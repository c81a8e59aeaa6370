//! Ring-batched schedules, replayed under the sharded engine.
//!
//! The golden pins (`trace_pin.rs`) run on the default batch-of-one rings,
//! where every descriptor passes straight through — the per-op schedule.
//! This suite covers *batched* rings, with and without the AIMD doorbell
//! controller: with descriptors sharing doorbells and moderation timers
//! coalescing completions, the schedule is still a pure function of the
//! seed, so the sequential run's `(trace_hash, now, events)` must be
//! reproduced bit-for-bit over the engine grid (shard lane counts
//! {1, 2, 4, 8}, adaptive windows at 2 and 4 lanes), and the chaos
//! drop/corrupt cells must stay violation-free and lane-invariant with
//! every op issued through rings.
//!
//! Shared-memory domains shrink the sharded engine's lookahead window (the
//! load/store short-circuit is cheaper than any wire hop), so the shm
//! scenario doubles as a regression test for that window math.

mod common;

use agas::check::Violation;
use agas::migrate::migrate_block;
use agas::ops::{get_many, memamo, memget, memput, put_many};
use agas::{GasMode, SimWorld};
use common::{jittery, Harness, Lanes, GRID};
use netsim::{
    AdaptiveRing, AmoOp, FaultPlan, FaultPlane, FaultRates, NetConfig, OpId, RingConfig, ShmDomain,
    Time,
};
use photon::PhotonConfig;

fn ring_photon() -> PhotonConfig {
    PhotonConfig {
        ring: RingConfig {
            doorbell_batch: 4,
            doorbell_delay: Time::from_us(2),
            ..RingConfig::default()
        },
        ..PhotonConfig::default()
    }
}

/// [`ring_photon`] with the AIMD doorbell controller attached to every
/// ring.
fn adaptive_ring_photon() -> PhotonConfig {
    let mut pcfg = ring_photon();
    pcfg.ring.adaptive = Some(AdaptiveRing::default());
    pcfg
}

fn harness(pcfg: PhotonConfig, net: NetConfig, seed: u64, lanes: Lanes) -> Harness {
    Harness::new(4, GasMode::AgasNetwork, net, pcfg, seed, lanes)
}

/// Run `scenario` across the whole lane grid and demand every run lands on
/// the sequential witness.
fn lane_invariant(name: &str, scenario: impl Fn(Lanes) -> (u64, u64, u64)) {
    let reference = scenario(Lanes::Seq);
    for lanes in GRID {
        let got = scenario(lanes);
        assert_eq!(
            got, reference,
            "{name} ({lanes:?}): ring-batched schedule diverged — \
             observed (hash, ps, events) = ({:#018x}, {}, {})",
            got.0, got.1, got.2
        );
    }
}

/// Vectored put/get bursts through the rings under jitter: every burst
/// targets one peer, so descriptors pile into one ring and share
/// doorbells; partial tails drain on the moderation timer.
fn vectored_bursts(pcfg: PhotonConfig, lanes: Lanes) -> (u64, u64, u64) {
    let mut h = harness(pcfg, jittery(), 31, lanes);
    let arr = h.alloc(8, 12);
    for round in 0..6u64 {
        for loc in 0..4u32 {
            let blocks = arr.blocks.clone();
            h.issue(loc, move |eng| {
                let puts = (0..6u64)
                    .map(|i| {
                        let b = (round + i + u64::from(loc)) % 8;
                        let gva = blocks[b as usize].with_offset((i % 8) * 16);
                        (
                            gva,
                            vec![(round * 8 + i + 1) as u8; 16],
                            OpId::from_raw(round * 100 + u64::from(loc) * 10 + i),
                        )
                    })
                    .collect();
                put_many(eng, loc, puts);
            });
        }
        h.run_steps(50);
    }
    for loc in 0..4u32 {
        let blocks = arr.blocks.clone();
        h.issue(loc, move |eng| {
            let gets = (0..8u64)
                .map(|b| {
                    (
                        blocks[b as usize].with_offset(0),
                        16,
                        OpId::from_raw(5000 + u64::from(loc) * 10 + b),
                    )
                })
                .collect();
            get_many(eng, loc, gets);
        });
    }
    h.run();
    let stats = h.world().data.eps[0].ring_stats();
    assert!(
        stats.doorbells > 0 && stats.coalesced > 0,
        "rings never engaged: {stats:?}"
    );
    h.finish()
}

/// Fetch-adds, compare-swaps, and a migration racing through the rings:
/// same-responder AMOs share doorbells (the `amo_batched` path) while the
/// home moves underneath them.
fn amo_ring_mix(lanes: Lanes) -> (u64, u64, u64) {
    let mut h = harness(ring_photon(), jittery(), 37, lanes);
    let arr = h.alloc(4, 12);
    for i in 0..32u64 {
        let loc = (i % 4) as u32;
        let gva = arr.block(i % 4).with_offset((i % 8) * 8);
        h.issue(loc, move |eng| {
            memamo(
                eng,
                loc,
                gva,
                AmoOp::FetchAdd { operand: i + 1 },
                OpId::from_raw(i),
            );
        });
        if i % 6 == 5 {
            let cas = arr.block((i + 1) % 4);
            h.issue(loc, move |eng| {
                memamo(
                    eng,
                    loc,
                    cas,
                    AmoOp::CompareSwap {
                        expected: 0,
                        desired: i,
                    },
                    OpId::from_raw(500 + i),
                );
            });
        }
        if i % 16 == 9 {
            let mig = arr.block(i % 4);
            h.issue(loc, move |eng| {
                migrate_block(
                    eng,
                    loc,
                    mig,
                    ((i + 1) % 4) as u32,
                    OpId::from_raw(9000 + i),
                );
            });
        }
        h.run_steps(10);
    }
    h.finish()
}

/// Mixed intra-/inter-domain traffic with an [`ShmDomain`] of size 2:
/// localities {0,1} and {2,3} short-circuit the NIC inside their domain
/// (zero wire messages, load/store costs) while cross-domain ops still
/// ride the rings. Exercises the shrunken lookahead window under lanes.
fn shm_domain_mix(lanes: Lanes) -> (u64, u64, u64) {
    let net = NetConfig {
        shm: Some(ShmDomain::node(2)),
        ..jittery()
    };
    let mut h = harness(ring_photon(), net, 43, lanes);
    let arr = h.alloc(8, 12);
    for i in 0..40u64 {
        let loc = (i % 4) as u32;
        // Even ops stay inside the domain (peer = partner locality), odd
        // ops cross it.
        let gva = arr.block((i * 3) % 8).with_offset((i % 4) * 32);
        h.issue(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 32], OpId::from_raw(i));
        });
        if i % 3 == 2 {
            h.issue(loc, move |eng| {
                memamo(
                    eng,
                    loc,
                    gva,
                    AmoOp::FetchAdd { operand: i },
                    OpId::from_raw(600 + i),
                );
            });
        }
        h.run_steps(12);
    }
    for i in 0..16u64 {
        let loc = ((i + 1) % 4) as u32;
        let gva = arr.block(i % 8);
        h.issue(loc, move |eng| {
            memget(eng, loc, gva, 32, OpId::from_raw(2000 + i));
        });
    }
    h.finish()
}

#[test]
fn ring_shadow_vectored_bursts() {
    lane_invariant("vectored_bursts", |lanes| {
        vectored_bursts(ring_photon(), lanes)
    });
    // The AIMD controller retunes each ring's effective batch from its
    // own occupancy history, so the schedule stays a function of the seed.
    lane_invariant("vectored_bursts+aimd", |lanes| {
        vectored_bursts(adaptive_ring_photon(), lanes)
    });
}

#[test]
fn ring_shadow_amo_mix() {
    lane_invariant("amo_ring_mix", amo_ring_mix);
}

#[test]
fn ring_shadow_shm_domain() {
    lane_invariant("shm_domain_mix", shm_domain_mix);
}

// ------------------------------------------------------- chaos, ringed

/// The slot-idempotent chaos workload from `shard_chaos.rs`, with every
/// op issued through the rings. Returns the full determinism witness plus
/// the correctness verdict inputs.
fn chaos_cell(rates: FaultRates, seed: u64, lanes: Lanes) -> (u64, u64, u64) {
    let plan = FaultPlan {
        seed: 61,
        rates,
        link_rates: Vec::new(),
        flaps: Vec::new(),
        partitions: Vec::new(),
    };
    let mut world =
        SimWorld::with_photon(4, GasMode::AgasNetwork, NetConfig::ideal(), ring_photon());
    world.data.cluster.faults = Some(FaultPlane::new(plan));
    for g in &mut world.data.gas {
        g.cfg.op_deadline = Some(Time::from_us(300));
        g.cfg.sweep_interval = Time::from_us(30);
        g.cfg.retry_on_deadline = true;
        g.cfg.record_history = true;
    }
    let mut h = Harness::with_world(world, seed, lanes);
    let arr = h.alloc(8, 12);
    let mut puts = 0u64;
    let mut gets = 0u64;
    for round in 0..10u64 {
        for l in 0..4u32 {
            let wb = (round + 3 * u64::from(l)) % 8;
            let gva = arr.block(wb).with_offset(64 + u64::from(l) * 8);
            let ctx = OpId::from_raw(puts);
            h.issue(l, move |eng| {
                memput(eng, l, gva, vec![l as u8 + 1; 8], ctx);
            });
            puts += 1;
            let rb = (round + 5 * u64::from(l) + 1) % 8;
            let owner = (l + 1) % 4;
            let gva = arr.block(rb).with_offset(64 + u64::from(owner) * 8);
            let ctx = OpId::from_raw((1 << 40) | gets);
            h.issue(l, move |eng| {
                memget(eng, l, gva, 8, ctx);
            });
            gets += 1;
        }
        h.run_steps(64);
    }
    let witness = h.finish();
    // Correctness inside every cell: full accounting, consistent history.
    let blocks = arr.blocks.clone();
    let w = h.world();
    let acked = w.put_acks() + w.get_acks();
    assert_eq!(
        acked + w.op_failures(),
        puts + gets,
        "chaos cell ({lanes:?}): ops silently lost"
    );
    let violations: Vec<Violation> = w.violations(&blocks);
    assert!(
        violations.is_empty(),
        "chaos cell ({lanes:?}): {violations:?}"
    );
    witness
}

fn drop_rates(p: f64) -> FaultRates {
    FaultRates {
        drop: p,
        dup: p / 2.0,
        corrupt: 0.0,
        delay_p: p,
        delay_min_ns: 200,
        delay_max_ns: 4_000,
    }
}

fn corrupt_rates(p: f64) -> FaultRates {
    FaultRates {
        drop: 0.0,
        dup: p / 2.0,
        corrupt: p,
        delay_p: p,
        delay_min_ns: 200,
        delay_max_ns: 4_000,
    }
}

#[test]
fn ring_shadow_chaos_drop() {
    for seed in [5u64, 13] {
        lane_invariant("chaos_drop/3%", |lanes| {
            chaos_cell(drop_rates(0.03), seed, lanes)
        });
    }
}

#[test]
fn ring_shadow_chaos_corrupt() {
    for seed in [5u64, 13] {
        lane_invariant("chaos_corrupt/3%", |lanes| {
            chaos_cell(corrupt_rates(0.03), seed, lanes)
        });
    }
}
