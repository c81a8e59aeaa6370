//! The adaptive-controller ladder (`repro adaptive`, EXPERIMENTS.md,
//! DESIGN.md §3.8).
//!
//! A/B of static presets against the seed-deterministic feedback
//! controllers, in two halves:
//!
//! * **Window ladder** — the self-pumping GUPS kernel on an FDR fabric
//!   with 4-locality [`ShmDomain`]s. The shared-memory short-circuit
//!   shrinks the conservative lookahead to the 90 ns load/store cost, so
//!   a static sharded run crosses a barrier every 90 ns of virtual time
//!   — while the fabric's `safe_window_cap` (wire latency / load-store
//!   cost ≈ 11) leaves the adaptive controller room to widen the window
//!   back out under deep queues, and its serial-execution hint absorbs
//!   the shallow windows a static schedule would hand to idle workers.
//!   Three regimes (shallow / deep / bursty) × both AGAS modes × a lane
//!   ladder, every cell checked bit-identical against the sequential
//!   reference trace.
//! * **Ring A/B** — a burst-then-trickle put kernel through the photon
//!   submission rings: the AIMD controller raises the effective doorbell
//!   batch while the burst outruns it (fewer doorbells per op) and
//!   halves it back down when the trickle's occupancy EWMA runs light
//!   (shorter moderation delay, lower per-op latency).
//!
//! Telemetry counters are process-wide deltas, so the ring kernels run
//! strictly serially. The window ladder measures wall-clock throughput
//! like `repro parallel`; simulated results must not depend on the
//! controller (same trace hash, same final clock, same update count).

use agas::{alloc_array, Distribution, GasMode, SimWorld};
use netsim::{
    telemetry, AdaptiveRing, AdaptiveWindow, Engine, NetConfig, RingConfig, ShardedEngine,
    ShmDomain, Time,
};
use parcel_rt::Runtime;
use photon::PhotonConfig;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Queue-depth regime of one window-ladder series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// Few localities, tiny budgets: windows run near-empty, the serial
    /// hint is the only lever, and adaptive must stay within noise.
    Shallow,
    /// Many localities, several pump chains each: queues run deep and
    /// the controller should widen to the fabric cap and hold there.
    Deep,
    /// Deep phases separated by full drains: the controller must widen
    /// into each burst and narrow back down the tail, every phase.
    Bursty,
}

impl Regime {
    /// Every regime, ladder order.
    pub const ALL: [Regime; 3] = [Regime::Shallow, Regime::Deep, Regime::Bursty];

    /// Stable lower-case name (JSON rows, row ids).
    pub fn name(self) -> &'static str {
        match self {
            Regime::Shallow => "shallow",
            Regime::Deep => "deep",
            Regime::Bursty => "bursty",
        }
    }

    /// `(localities, updates_per_chain, chains_per_loc, phases)`.
    ///
    /// Locality counts are multiples of 32 so that every 4-locality shm
    /// domain falls inside one lane at every ladder rung (up to 8 lanes)
    /// — the partition under which widening past ×1 is provably safe.
    fn shape(self) -> (usize, u64, u64, u64) {
        match self {
            Regime::Shallow => (32, 8, 1, 1),
            Regime::Deep => (64, 48, 4, 1),
            Regime::Bursty => (64, 24, 2, 4),
        }
    }
}

/// The fabric every window-ladder cell runs on: FDR wire constants with
/// 4-locality shared-memory domains. `lookahead = 90 ns` (the domain
/// load/store cost), `safe_window_cap = 1 µs / 90 ns = 11`.
pub fn adaptive_fabric() -> NetConfig {
    NetConfig {
        shm: Some(ShmDomain::node(4)),
        ..NetConfig::ib_fdr()
    }
}

/// The controller tuning the ladder's adaptive cells run. Tighter than
/// [`AdaptiveWindow::default`]: the pump holds at most `chains × locs`
/// events pending, so the widen threshold sits between the shallow
/// regime's depth (~32) and the deep regime's (~256).
pub fn ladder_window_cfg() -> AdaptiveWindow {
    AdaptiveWindow {
        max_mult: 16, // clamped to the fabric's safe cap (11)
        widen_at: 96,
        narrow_at: 24,
        hysteresis: 2,
        serial_below: 6,
        ewma_shift: 2,
    }
}

/// One measured cell of the window ladder.
#[derive(Clone, Debug)]
pub struct AdaptiveLadderRow {
    /// Regime name (`shallow` / `deep` / `bursty`).
    pub regime: &'static str,
    /// GAS mode the pump ran over.
    pub mode: GasMode,
    /// Lane count (1 = the plain sequential engine, no threads).
    pub shards: usize,
    /// Was the window controller on?
    pub adaptive: bool,
    /// Pump puts completed (a pure function of the workload shape).
    pub updates: u64,
    /// Events executed.
    pub events: u64,
    /// Execution trace hash — must match the sequential reference.
    pub trace_hash: u64,
    /// Final simulated clock — must match the sequential reference.
    pub sim: Time,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Barrier windows crossed (0 when sequential).
    pub windows: u64,
    /// Windows the controller ran inline on the control thread.
    pub serial_windows: u64,
    /// Widening steps taken.
    pub widened: u64,
    /// Narrowing steps taken.
    pub narrowed: u64,
    /// Widest multiplier the controller reached (1 = never widened).
    pub max_mult: u32,
    /// The fabric's safe widening cap at this lane count.
    pub safe_cap: u32,
}

impl AdaptiveLadderRow {
    /// Wall-clock events per second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Mode names as they appear in JSON rows.
pub fn mode_name(mode: GasMode) -> &'static str {
    match mode {
        GasMode::AgasNetwork => "agas_network",
        GasMode::AgasSoftware => "agas_software",
        GasMode::Pgas => "pgas",
    }
}

/// Run one ladder cell: the phased GUPS pump at `shards` lanes (1 =
/// sequential engine), with the window controller on or off.
pub fn adaptive_gups(
    regime: Regime,
    mode: GasMode,
    shards: usize,
    adaptive: bool,
) -> AdaptiveLadderRow {
    let (locs, updates, chains, phases) = regime.shape();
    let seed = 42u64;
    let mut world = SimWorld::new(locs, mode, adaptive_fabric());
    world.data.record_events = false;
    let arm = |w: &mut SimWorld, phase: u64| {
        for l in 0..locs as u32 {
            w.arm_gups(l, updates * chains, seed ^ (phase << 16));
        }
    };
    if shards <= 1 {
        let mut eng = Engine::new(world, seed);
        let arr = alloc_array(&mut eng, locs as u64, 13, Distribution::Cyclic);
        eng.state.set_pump_blocks(arr.blocks.clone());
        let t = Instant::now();
        for phase in 0..phases {
            arm(&mut eng.state, phase);
            for l in 0..locs as u32 {
                for _ in 0..chains {
                    SimWorld::pump_prime(&mut eng, l);
                }
            }
            eng.run();
        }
        AdaptiveLadderRow {
            regime: regime.name(),
            mode,
            shards: 1,
            adaptive: false,
            updates: eng.state.pump_completed() + (phases - 1) * locs as u64 * updates * chains,
            events: eng.events_executed(),
            trace_hash: eng.trace_hash(),
            sim: eng.now(),
            wall_secs: t.elapsed().as_secs_f64(),
            windows: 0,
            serial_windows: 0,
            widened: 0,
            narrowed: 0,
            max_mult: 1,
            safe_cap: 1,
        }
    } else {
        let mut sh = ShardedEngine::new(world, seed, shards);
        if adaptive {
            sh.set_adaptive(ladder_window_cfg());
        }
        let arr = sh.drive(|e| alloc_array(e, locs as u64, 13, Distribution::Cyclic));
        sh.state().set_pump_blocks(arr.blocks.clone());
        let t = Instant::now();
        for phase in 0..phases {
            arm(sh.state(), phase);
            for l in 0..locs as u32 {
                sh.drive_at(l, move |e| {
                    for _ in 0..chains {
                        SimWorld::pump_prime(e, l);
                    }
                });
            }
            sh.run();
        }
        let wall_secs = t.elapsed().as_secs_f64();
        let stats = sh.stats().clone();
        AdaptiveLadderRow {
            regime: regime.name(),
            mode,
            shards,
            adaptive,
            updates: sh.state().pump_completed() + (phases - 1) * locs as u64 * updates * chains,
            events: sh.events_executed(),
            trace_hash: sh.trace_hash(),
            sim: sh.now(),
            wall_secs,
            windows: stats.windows,
            serial_windows: stats.serial_windows,
            widened: stats.widened,
            narrowed: stats.narrowed,
            max_mult: stats.max_mult_seen.max(1),
            safe_cap: sh.safe_window_cap(),
        }
    }
}

/// One side of the ring A/B.
#[derive(Clone, Debug)]
pub struct AdaptiveRingAbRow {
    /// Was the AIMD controller on?
    pub adaptive: bool,
    /// Configured (base) doorbell batch.
    pub base_batch: usize,
    /// Puts in the vectored burst phase.
    pub burst_ops: u64,
    /// Single spaced puts in the trickle phase.
    pub trickle_ops: u64,
    /// Ring doorbells rung across both phases (telemetry delta).
    pub doorbells: u64,
    /// Descriptors drained through rings.
    pub descs: u64,
    /// AIMD raise steps (telemetry `doorbell_batch_raised`).
    pub batch_raised: u64,
    /// AIMD lower steps (telemetry `doorbell_batch_lowered`).
    pub batch_lowered: u64,
    /// Simulated time the burst took to quiesce.
    pub burst_elapsed: Time,
    /// Mean simulated latency of one trickled put.
    pub trickle_latency: Time,
    /// Effective batch toward the hot peer after the trickle (floor when
    /// adaptive; the base batch when static).
    pub final_eff_batch: usize,
}

impl AdaptiveRingAbRow {
    /// Doorbell events per issued op across both phases.
    pub fn doorbells_per_op(&self) -> f64 {
        let ops = self.burst_ops + self.trickle_ops;
        if ops > 0 {
            self.doorbells as f64 / ops as f64
        } else {
            0.0
        }
    }
}

/// Burst-then-trickle puts through the photon submission rings, static
/// batch vs AIMD controller. Strictly serial (process-wide telemetry).
pub fn adaptive_ring_ab(adaptive: bool) -> AdaptiveRingAbRow {
    let base_batch = 8;
    let burst_ops = 256u64;
    let trickle_ops = 16u64;
    let pcfg = PhotonConfig {
        ring: RingConfig {
            doorbell_batch: base_batch,
            doorbell_delay: Time::from_us(1),
            adaptive: adaptive.then(AdaptiveRing::default),
            ..RingConfig::default()
        },
        ..PhotonConfig::default()
    };
    let mut rt = Runtime::builder(2, GasMode::AgasNetwork)
        .net(NetConfig::ib_fdr())
        .photon(pcfg)
        .boot();
    let arr = rt.alloc(8, 16, Distribution::Single(1));
    let blocks = arr.blocks.clone();
    let rings0 = rt.eng.state.total_ring_stats();
    let before = telemetry::snapshot();

    // Burst: one vectored issue, every descriptor aimed at locality 1.
    let t0 = rt.now();
    let puts: Vec<_> = (0..burst_ops)
        .map(|i| {
            let gva = blocks[(i % 8) as usize].with_offset((i / 8 % 1024) * 8);
            (gva, vec![1u8; 8], parcel_rt::NO_COMPLETION)
        })
        .collect();
    agas::ops::put_many(&mut rt.eng, 0, puts);
    rt.run();
    let burst_elapsed = rt.now() - t0;

    // Trickle: one put at a time, each run to quiescence, so every op
    // waits out the (effective) moderation delay alone in the ring.
    let mut trickle_total = Time::ZERO;
    for i in 0..trickle_ops {
        let gva = blocks[(i % 8) as usize].with_offset(4096 + i * 8);
        let t = Rc::new(RefCell::new(Time::ZERO));
        let t2 = t.clone();
        let t0 = rt.now();
        rt.memput_cb(0, gva, vec![2u8; 8], move |eng, _| {
            *t2.borrow_mut() = eng.now();
        });
        rt.run();
        trickle_total += *t.borrow() - t0;
    }
    rt.assert_quiescent();
    let d = telemetry::snapshot().since(before);
    let rings = rt.eng.state.total_ring_stats();
    let final_eff_batch = rt.eng.state.eps[0]
        .sub_ring_eff_batches()
        .iter()
        .find(|&&(peer, _)| peer == 1)
        .map_or(base_batch, |&(_, b)| b);
    AdaptiveRingAbRow {
        adaptive,
        base_batch,
        burst_ops,
        trickle_ops,
        doorbells: rings.doorbells - rings0.doorbells,
        descs: rings.descs - rings0.descs,
        batch_raised: d.doorbell_batch_raised,
        batch_lowered: d.doorbell_batch_lowered,
        burst_elapsed,
        trickle_latency: Time::from_ps(trickle_total.ps() / trickle_ops.max(1)),
        final_eff_batch,
    }
}
