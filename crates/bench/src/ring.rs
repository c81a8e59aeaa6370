//! The descriptor-ring issue-path series (`repro ring`, EXPERIMENTS.md).
//!
//! Two measurements over the shared [`netsim::ring`] layer:
//!
//! * **Doorbell-batching ladder** — a vectored burst of small puts
//!   ([`agas::ops::put_many`]) through the photon submission rings at
//!   increasing `doorbell_batch`, showing doorbell events per op falling
//!   as descriptors share drains (batch 1 = the per-op issue baseline,
//!   every descriptor passing straight through).
//! * **Shm crossover** — the same single-op latency kernel run once over
//!   the network AGAS path and once inside a [`ShmDomain`], where
//!   co-located localities short-circuit the NIC with a load/store cost
//!   model and **zero wire messages**.
//!
//! Plus the AMO-batching cell backing the `repro amo` gate: multiple
//! fetch-adds to one responder must share a single ring doorbell
//! (telemetry `amo_batched`).
//!
//! Ring counters come from the run's own rings
//! ([`parcel_rt::World::total_ring_stats`]); the event and AMO-batching
//! counters are process-wide telemetry deltas, so every kernel here runs
//! strictly serially (no rayon).

use agas::{Distribution, GasMode};
use netsim::{telemetry, AmoOp, NetConfig, RingConfig, ShmDomain, Time};
use parcel_rt::{Runtime, NO_COMPLETION};
use photon::PhotonConfig;
use std::cell::RefCell;
use std::rc::Rc;

fn class_for(size: u32) -> u8 {
    let needed = size.max(4096);
    (u32::BITS - (needed - 1).leading_zeros()) as u8
}

fn ring_photon(batch: usize, delay: Time) -> PhotonConfig {
    PhotonConfig {
        ring: RingConfig {
            doorbell_batch: batch,
            doorbell_delay: delay,
            ..RingConfig::default()
        },
        ..PhotonConfig::default()
    }
}

/// One rung of the doorbell-batching ladder.
#[derive(Clone, Debug)]
pub struct RingLadderRow {
    /// `doorbell_batch` setting (1 = per-op issue).
    pub batch: usize,
    /// 8-byte puts issued (one `put_many` burst).
    pub ops: u64,
    /// Simulated time to quiescence.
    pub elapsed: Time,
    /// Events executed (telemetry delta).
    pub events: u64,
    /// Wire messages sent.
    pub msgs: u64,
    /// Ring doorbells rung (submission + completion rings).
    pub doorbells: u64,
    /// Descriptors drained through rings.
    pub descs: u64,
    /// Descriptors that shared a drain with an earlier one.
    pub coalesced: u64,
    /// Deepest any of locality 0's rings got.
    pub max_occupancy: usize,
}

impl RingLadderRow {
    /// Mean descriptors per doorbell (1.0 = no batching).
    pub fn descs_per_doorbell(&self) -> f64 {
        if self.doorbells > 0 {
            self.descs as f64 / self.doorbells as f64
        } else {
            0.0
        }
    }

    /// Doorbell events per issued op — the headline reduction.
    pub fn doorbells_per_op(&self) -> f64 {
        if self.ops > 0 {
            self.doorbells as f64 / self.ops as f64
        } else {
            0.0
        }
    }
}

/// One ladder rung: a vectored burst of `ops` 8-byte puts from locality 0
/// to blocks homed at locality 1, issued in one [`agas::ops::put_many`]
/// call so every same-peer descriptor is eligible for the same doorbell.
pub fn ring_ladder_row(batch: usize, ops: u64) -> RingLadderRow {
    let mut rt = Runtime::builder(2, GasMode::AgasNetwork)
        .net(NetConfig::ib_fdr())
        .photon(ring_photon(batch, Time::from_us(1)))
        .boot();
    let arr = rt.alloc(8, 16, Distribution::Single(1));
    let blocks = arr.blocks.clone();
    let msgs0 = rt.counters().msgs_sent;
    let rings0 = rt.eng.state.total_ring_stats();
    let before = telemetry::snapshot();
    let t0 = rt.now();
    let puts: Vec<_> = (0..ops)
        .map(|i| {
            let gva = blocks[(i % 8) as usize].with_offset((i / 8 % 1024) * 8);
            (gva, vec![0u8; 8], NO_COMPLETION)
        })
        .collect();
    agas::ops::put_many(&mut rt.eng, 0, puts);
    rt.run();
    rt.assert_quiescent();
    let d = telemetry::snapshot().since(before);
    let rings = rt.eng.state.total_ring_stats();
    RingLadderRow {
        batch,
        ops,
        elapsed: rt.now() - t0,
        events: d.events,
        msgs: rt.counters().msgs_sent - msgs0,
        doorbells: rings.doorbells - rings0.doorbells,
        descs: rings.descs - rings0.descs,
        coalesced: rings.coalesced - rings0.coalesced,
        max_occupancy: rt.eng.state.eps[0].ring_stats().max_occupancy,
    }
}

/// One size point of the shm-vs-network crossover.
#[derive(Clone, Copy, Debug)]
pub struct ShmCrossRow {
    /// Transfer size in bytes.
    pub size: u32,
    /// Remote put latency over the network AGAS path.
    pub net_put: Time,
    /// Remote get latency over the network AGAS path.
    pub net_get: Time,
    /// Same put, initiator and home co-located in one [`ShmDomain`].
    pub shm_put: Time,
    /// Same get inside the domain.
    pub shm_get: Time,
    /// Wire messages the two intra-domain ops cost (the invariant: 0).
    pub shm_msgs: u64,
    /// Ops that took the load/store short-circuit (the invariant: 2).
    pub shm_ops: u64,
}

impl ShmCrossRow {
    /// How much faster the intra-domain put is.
    pub fn put_speedup(&self) -> f64 {
        self.net_put.ps() as f64 / self.shm_put.ps().max(1) as f64
    }
}

/// One remote put + get of `size` bytes, A/B between the network AGAS
/// path and an intra-domain shared-memory short-circuit.
pub fn shm_cross_row(size: u32) -> ShmCrossRow {
    let run = |shm: Option<ShmDomain>| {
        let net = NetConfig {
            shm,
            ..NetConfig::ib_fdr()
        };
        let mut rt = Runtime::builder(2, GasMode::AgasNetwork).net(net).boot();
        let arr = rt.alloc(2, class_for(size), Distribution::Cyclic);
        let msgs0 = rt.counters().msgs_sent;
        let t_put = Rc::new(RefCell::new(Time::ZERO));
        let t2 = t_put.clone();
        let t0 = rt.now();
        rt.memput_cb(0, arr.block(1), vec![7u8; size as usize], move |eng, _| {
            *t2.borrow_mut() = eng.now();
        });
        rt.run();
        let put = *t_put.borrow() - t0;
        let t_get = Rc::new(RefCell::new(Time::ZERO));
        let t3 = t_get.clone();
        let t1 = rt.now();
        rt.memget_cb(0, arr.block(1), size, move |eng, data| {
            assert!(data.iter().all(|&b| b == 7), "shm path corrupted data");
            *t3.borrow_mut() = eng.now();
        });
        rt.run();
        rt.assert_quiescent();
        let get = *t_get.borrow() - t1;
        let msgs = rt.counters().msgs_sent - msgs0;
        let shm_ops = rt.eng.state.total_gas_stats().shm_ops;
        (put, get, msgs, shm_ops)
    };
    let (net_put, net_get, _, _) = run(None);
    let (shm_put, shm_get, shm_msgs, shm_ops) = run(Some(ShmDomain::node(2)));
    ShmCrossRow {
        size,
        net_put,
        net_get,
        shm_put,
        shm_get,
        shm_msgs,
        shm_ops,
    }
}

/// The AMO-batching cell: concurrent fetch-adds from several initiators
/// to one hot block, issued through the photon rings.
#[derive(Clone, Copy, Debug)]
pub struct AmoRingRow {
    /// Fetch-adds issued.
    pub amos: u64,
    /// AMOs that shared a ring doorbell with another AMO to the same
    /// responder (telemetry `amo_batched`).
    pub amo_batched: u64,
    /// Ring doorbells rung.
    pub doorbells: u64,
    /// Simulated time to quiescence.
    pub elapsed: Time,
    /// Final value of the hot counter word (must equal `amos`).
    pub counter: u64,
}

/// Issue `per_initiator` fetch-adds from each of three remote localities
/// at the same hot word, all rung through the submission rings.
pub fn amo_ring_batching(per_initiator: u64) -> AmoRingRow {
    let mut rt = Runtime::builder(4, GasMode::AgasNetwork)
        .net(NetConfig::ib_fdr())
        .photon(ring_photon(16, Time::from_us(1)))
        .boot();
    let arr = rt.alloc(1, 13, Distribution::Single(0));
    let hot = arr.block(0);
    let rings0 = rt.eng.state.total_ring_stats();
    let before = telemetry::snapshot();
    let t0 = rt.now();
    for l in 1..4u32 {
        for _ in 0..per_initiator {
            rt.memamo(l, hot, AmoOp::FetchAdd { operand: 1 });
        }
    }
    rt.run();
    rt.assert_quiescent();
    let d = telemetry::snapshot().since(before);
    let counter = u64::from_le_bytes(rt.read_block(hot)[..8].try_into().unwrap());
    AmoRingRow {
        amos: 3 * per_initiator,
        amo_batched: d.amo_batched,
        doorbells: rt.eng.state.total_ring_stats().doorbells - rings0.doorbells,
        elapsed: rt.now() - t0,
        counter,
    }
}
