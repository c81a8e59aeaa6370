//! Migration control traffic through batched per-peer descriptor rings
//! ([`agas::GasConfig::ctrl_ring`]): batching correctness and the
//! timer-only flush path. The unbatched default is covered by the golden
//! pins in `trace_pin.rs`.

mod common;

use agas::migrate::{free_block, migrate_block};
use agas::ops::{memget, memput};
use agas::{alloc_array, Distribution, GasConfig, GasLocal, GasMode, SimEv, SimWorld};
use common::{assert_consistent, events};
use netsim::{AdaptiveRing, Engine, NetConfig, OpId, RingConfig, Time};

/// Build an engine whose GAS layer posts control traffic through rings.
fn ring_engine(n: usize, mode: GasMode, ring: RingConfig) -> Engine<SimWorld> {
    let mut w = SimWorld::new(n, mode, NetConfig::ideal());
    let cfg = GasConfig {
        ctrl_ring: ring,
        ..GasConfig::default()
    };
    w.data.gas = (0..n).map(|_| GasLocal::new(cfg)).collect();
    Engine::new(w, 42)
}

fn mig_done(eng: &Engine<SimWorld>, ctx: u64) -> bool {
    events(eng)
        .iter()
        .any(|(_, _, e)| matches!(e, SimEv::MigDone(c, _) if *c == ctx))
}

#[test]
fn ctrl_ring_batches_migration_traffic_and_converges() {
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let ring = RingConfig {
            doorbell_batch: 4,
            doorbell_delay: Time::from_ns(300),
            adaptive: Some(AdaptiveRing::default()),
            ..RingConfig::default()
        };
        let mut eng = ring_engine(3, mode, ring);
        let arr = alloc_array(&mut eng, 6, 10, Distribution::Cyclic);
        memput(
            &mut eng,
            0,
            arr.block(2),
            vec![0x6E; 64],
            OpId::from_raw(500),
        );
        eng.run();
        for (i, gva) in arr.blocks.iter().enumerate() {
            migrate_block(
                &mut eng,
                0,
                *gva,
                (gva.home() + 1) % 3,
                OpId::from_raw(i as u64),
            );
        }
        eng.run();
        for i in 0..6 {
            assert!(mig_done(&eng, i), "{mode:?}: migration {i} never finished");
        }
        let total = eng.state.data.cluster.total_counters();
        assert_eq!(total.migrations_out, 6, "{mode:?}");
        // Data survived the ring-batched protocol.
        memget(&mut eng, 1, arr.block(2), 64, OpId::from_raw(600));
        eng.run();
        assert!(
            events(&eng)
                .iter()
                .any(|(_, _, e)| matches!(e, SimEv::GetDone(600, d) if d == &vec![0x6E; 64])),
            "{mode:?}"
        );
        assert_consistent(&eng, &arr.blocks);
        // Every control message of the six migrations went through this
        // engine's own rings, some sharing a doorbell. The count is this
        // run's alone: other engines in the process cannot move it.
        let mut rings = netsim::RingStats::default();
        for g in &eng.state.data.gas {
            rings.absorb(&g.ctrl_ring_stats());
        }
        assert_eq!(rings.descs, 30, "{mode:?}: {rings:?}");
        assert!(rings.coalesced > 0, "{mode:?}: no doorbell was shared");
    }
}

#[test]
fn ctrl_ring_timer_flushes_a_lone_request() {
    // One migration with a deep batch threshold: nothing ever fills the
    // ring, so completion depends entirely on the doorbell timer.
    let ring = RingConfig {
        doorbell_batch: 64,
        doorbell_delay: Time::from_ns(500),
        ..RingConfig::default()
    };
    let mut eng = ring_engine(3, GasMode::AgasNetwork, ring);
    let arr = alloc_array(&mut eng, 3, 10, Distribution::Cyclic);
    migrate_block(&mut eng, 0, arr.block(1), 2, OpId::from_raw(7));
    eng.run();
    assert!(mig_done(&eng, 7), "timer flush never fired");
    assert!(eng.state.data.gas[2]
        .btt
        .is_resident(arr.block(1).block_key()));
    assert_consistent(&eng, &arr.blocks);
}

#[test]
fn ctrl_ring_free_protocol_converges() {
    let ring = RingConfig {
        doorbell_batch: 3,
        doorbell_delay: Time::from_ns(400),
        ..RingConfig::default()
    };
    let mut eng = ring_engine(3, GasMode::AgasSoftware, ring);
    let arr = alloc_array(&mut eng, 4, 10, Distribution::Cyclic);
    for (i, gva) in arr.blocks.iter().enumerate() {
        free_block(&mut eng, 0, *gva, OpId::from_raw(40 + i as u64));
    }
    eng.run();
    for i in 0..4u64 {
        assert!(
            events(&eng)
                .iter()
                .any(|(_, _, e)| matches!(e, SimEv::FreeDone(c, _) if *c == 40 + i)),
            "free {i} never completed"
        );
    }
}
