//! Shared by the protocol-level integration tests: the one test
//! [`Harness`] (sequential or sharded engine over [`SimWorld`]) and the
//! golden trace-pin scenarios, each written once together with its
//! `GOLDEN_*` constant.
//!
//! A pin is the engine's final `(trace_hash, now)`. The hash folds every
//! executed `(time, seq)` pair, so it is a complete witness of execution
//! order: the sequential engine, the sharded engine at any lane count
//! (adaptive windows included) and a run under a lossless fault plane must
//! all land on the same constant. If a *deliberate* protocol change moves
//! a pin, re-capture with `cargo test -p agas --test trace_pin --
//! --nocapture` (each failure prints its observed pair).

// Not every integration-test binary uses every helper.
#![allow(dead_code)]

use agas::migrate::migrate_block;
use agas::ops::{memamo, memget, memput};
use agas::{
    alloc_array, membership, Distribution, GasMode, GlobalArray, MemberState, OwnerCache, SimEv,
    SimWorld,
};
use netsim::{
    AdaptiveWindow, AmoOp, Engine, FaultPlan, FaultPlane, LocalityId, NetConfig, OpId,
    ShardedEngine, Time,
};
use photon::PhotonConfig;

/// The jittery fabric most scenarios run on.
pub fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400, // 4× the ideal fabric's base latency of 100 ns
        ..NetConfig::ideal()
    }
}

/// A sequential engine over an ideal fabric, seed 42.
pub fn engine(n: usize, mode: GasMode) -> Engine<SimWorld> {
    Engine::new(SimWorld::new(n, mode, NetConfig::ideal()), 42)
}

/// Assert cluster-wide GAS consistency (delegates to the library's
/// checker, `agas::check`).
pub fn assert_consistent(eng: &Engine<SimWorld>, blocks: &[agas::Gva]) {
    agas::check::assert_consistent(&eng.state, blocks);
}

/// Every completion event recorded so far, ordered by `(time, locality)`
/// as [`SimWorld::drain_events`] orders them, without draining the logs.
pub fn events(eng: &Engine<SimWorld>) -> Vec<(Time, LocalityId, SimEv)> {
    let mut out: Vec<_> = (eng.state.data.locs.iter().enumerate())
        .flat_map(|(l, sl)| {
            (sl.events.iter()).map(move |(t, ev)| (*t, l as LocalityId, ev.clone()))
        })
        .collect();
    out.sort_by_key(|&(t, l, _)| (t, l));
    out
}

/// Which engine runs a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lanes {
    /// The plain sequential [`Engine`].
    Seq,
    /// A [`ShardedEngine`] with this many lanes and fixed windows.
    Fixed(usize),
    /// A [`ShardedEngine`] with this many lanes and adaptive windows.
    Adaptive(usize),
}

/// Every engine a golden pin must reproduce under.
pub const GRID: [Lanes; 7] = [
    Lanes::Seq,
    Lanes::Fixed(1),
    Lanes::Fixed(2),
    Lanes::Fixed(4),
    Lanes::Fixed(8),
    Lanes::Adaptive(2),
    Lanes::Adaptive(4),
];

/// One workload harness: the same `SimWorld` program driven either by the
/// sequential engine or by the sharded one.
#[allow(clippy::large_enum_variant)] // one per run, never moved in a loop
pub enum Harness {
    Seq(Engine<SimWorld>),
    Shard(ShardedEngine<SimWorld>),
}

impl Harness {
    /// A fresh `n`-locality world on the engine `lanes` names.
    pub fn new(
        n: usize,
        mode: GasMode,
        net: NetConfig,
        pcfg: PhotonConfig,
        seed: u64,
        lanes: Lanes,
    ) -> Harness {
        Harness::with_world(SimWorld::with_photon(n, mode, net, pcfg), seed, lanes)
    }

    /// Drive an already-configured `world` on the engine `lanes` names.
    pub fn with_world(world: SimWorld, seed: u64, lanes: Lanes) -> Harness {
        match lanes {
            Lanes::Seq => Harness::Seq(Engine::new(world, seed)),
            Lanes::Fixed(k) => Harness::Shard(ShardedEngine::new(world, seed, k)),
            Lanes::Adaptive(k) => {
                let mut s = ShardedEngine::new(world, seed, k);
                s.set_adaptive(AdaptiveWindow::default());
                Harness::Shard(s)
            }
        }
    }

    /// Driver-phase world access (between runs).
    pub fn world(&mut self) -> &mut SimWorld {
        match self {
            Harness::Seq(e) => &mut e.state,
            Harness::Shard(s) => s.state(),
        }
    }

    /// Issue driver code attributed to locality `loc` (op submissions,
    /// injected events).
    pub fn issue(&mut self, loc: LocalityId, f: impl FnOnce(&mut Engine<SimWorld>) + 'static) {
        match self {
            Harness::Seq(e) => f(e),
            Harness::Shard(s) => s.drive_at(loc, f),
        }
    }

    /// Driver-phase code that plans a global transition (allocation, the
    /// membership drivers): reads any locality, mutates only via scheduled
    /// events.
    pub fn drive<R>(&mut self, f: impl FnOnce(&mut Engine<SimWorld>) -> R) -> R {
        match self {
            Harness::Seq(e) => f(e),
            Harness::Shard(s) => s.drive(f),
        }
    }

    pub fn alloc(&mut self, blocks: u64, class: u8) -> GlobalArray {
        self.drive(|e| alloc_array(e, blocks, class, Distribution::Cyclic))
    }

    pub fn run(&mut self) {
        match self {
            Harness::Seq(e) => e.run(),
            Harness::Shard(s) => s.run(),
        };
    }

    pub fn run_steps(&mut self, n: u64) {
        match self {
            Harness::Seq(e) => e.run_steps(n),
            Harness::Shard(s) => s.run_steps(n),
        };
    }

    /// Run to quiescence and return the `(trace_hash, now, events)`
    /// determinism witness.
    pub fn finish(&mut self) -> (u64, u64, u64) {
        self.run();
        match self {
            Harness::Seq(e) => (e.trace_hash(), e.now().ps(), e.events_executed()),
            Harness::Shard(s) => (s.trace_hash(), s.now().ps(), s.events_executed()),
        }
    }

    /// Sharded window activity (`serial_windows + widened + windows`);
    /// `None` on the sequential engine.
    pub fn window_activity(&self) -> Option<u64> {
        match self {
            Harness::Seq(_) => None,
            Harness::Shard(s) => {
                let st = s.stats();
                Some(st.serial_windows + st.widened + st.windows)
            }
        }
    }
}

/// How a golden scenario runs: the engine, and an optional fault plan
/// installed before any traffic flows.
#[derive(Clone, Debug)]
pub struct Setup {
    pub lanes: Lanes,
    pub faults: Option<FaultPlan>,
}

impl Setup {
    /// The plain sequential run the pins were captured on.
    pub fn seq() -> Setup {
        Setup {
            lanes: Lanes::Seq,
            faults: None,
        }
    }

    /// A default-config harness for a golden scenario.
    fn harness(&self, n: usize, mode: GasMode, net: NetConfig, seed: u64) -> Harness {
        let mut h = Harness::new(n, mode, net, PhotonConfig::default(), seed, self.lanes);
        if let Some(plan) = &self.faults {
            h.world().data.cluster.faults = Some(FaultPlane::new(plan.clone()));
        }
        h
    }
}

/// Remote puts + read-back on a jittery fabric, one pin per GAS mode.
pub fn jitter_puts(mode: GasMode, seed: u64, setup: &Setup) -> Harness {
    let mut h = setup.harness(3, mode, jittery(), seed);
    let arr = h.alloc(4, 12);
    for i in 0..30u64 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 16);
        let loc = (i % 3) as u32;
        h.issue(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 16], OpId::from_raw(i));
        });
    }
    h.run();
    for i in 0..30u64 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 16);
        let loc = ((i + 1) % 3) as u32;
        h.issue(loc, move |eng| {
            memget(eng, loc, gva, 16, OpId::from_raw(100 + i));
        });
    }
    h
}

/// Puts racing migrations under jitter (the tier-1 migration mix).
pub fn migration_mix(mode: GasMode, setup: &Setup) -> Harness {
    let mut h = setup.harness(4, mode, jittery(), 11);
    let arr = h.alloc(4, 12);
    for round in 0..6u64 {
        for b in 0..4u64 {
            let gva = arr.block(b).with_offset(round * 16);
            let loc = (b % 4) as u32;
            h.issue(loc, move |eng| {
                memput(
                    eng,
                    loc,
                    gva,
                    vec![(round * 4 + b + 1) as u8; 16],
                    OpId::from_raw(round * 4 + b),
                );
            });
            let mig = arr.block(b);
            h.issue(0, move |eng| {
                migrate_block(
                    eng,
                    0,
                    mig,
                    ((round + b) % 4) as u32,
                    OpId::from_raw(9000 + round * 4 + b),
                );
            });
        }
        h.run_steps(40);
    }
    h
}

/// The deadline-sweep fault scenario: remote puts and gets race
/// migrations on a jittery fabric, and shortly after issue locality 0
/// forgets every wire op it still has in flight; the sweep converts the
/// silence into failures.
pub fn deadline_fault(seed: u64, setup: &Setup) -> Harness {
    let mut h = setup.harness(4, GasMode::AgasNetwork, jittery(), seed);
    for g in &mut h.world().data.gas {
        g.cfg.op_deadline = Some(Time::from_us(40));
        g.cfg.sweep_interval = Time::from_us(5);
    }
    let arr = h.alloc(4, 12);
    for i in 0..8u64 {
        let gva = arr.block(i % 4).with_offset((i / 4) * 64);
        h.issue(0, move |eng| {
            memput(eng, 0, gva, vec![i as u8 + 1; 64], OpId::from_raw(i));
            memget(eng, 0, gva, 64, OpId::from_raw(100 + i));
        });
    }
    let (m1, m2) = (arr.block(1), arr.block(2));
    h.issue(1, move |eng| {
        migrate_block(eng, 1, m1, 3, OpId::from_raw(900));
    });
    h.issue(2, move |eng| {
        migrate_block(eng, 2, m2, 0, OpId::from_raw(901));
    });
    // The injected endpoint amnesia touches eps[0]: locality 0's event.
    h.issue(0, |eng| {
        eng.schedule(Time::from_ns(150), |eng| {
            eng.state.data.eps[0].drop_pending_ops();
        });
    });
    h
}

/// Capacity pressure: a 4-entry NIC table and 3-entry owner caches force
/// constant evictions, pinning the exact LRU eviction order.
pub fn capacity_pressure(setup: &Setup) -> Harness {
    let net = NetConfig {
        xlate_capacity: 4,
        ..NetConfig::ideal()
    };
    let mut h = setup.harness(4, GasMode::AgasNetwork, net, 17);
    for g in &mut h.world().data.gas {
        g.cache = OwnerCache::new(3);
    }
    let arr = h.alloc(16, 12);
    for i in 0..120u64 {
        let gva = arr.block((i * 7) % 16).with_offset((i % 4) * 32);
        let loc = ((i + 1) % 4) as u32;
        h.issue(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 32], OpId::from_raw(i));
        });
        if i % 11 == 10 {
            let mig = arr.block(i % 16);
            let loc = (i % 4) as u32;
            h.issue(loc, move |eng| {
                migrate_block(
                    eng,
                    loc,
                    mig,
                    ((i + 2) % 4) as u32,
                    OpId::from_raw(9000 + i),
                );
            });
        }
        h.run_steps(15);
    }
    for i in 0..60u64 {
        let gva = arr.block((i * 3) % 16);
        let loc = (i % 4) as u32;
        h.issue(loc, move |eng| {
            memget(eng, loc, gva, 32, OpId::from_raw(2000 + i));
        });
    }
    h
}

/// A NIC firmware reset mid-run: flush + miss-driven reinstall paths.
pub fn flush_recovery(setup: &Setup) -> Harness {
    let mut h = setup.harness(4, GasMode::AgasNetwork, NetConfig::ideal(), 23);
    let arr = h.alloc(8, 12);
    for i in 0..60u64 {
        let gva = arr.block(i % 8).with_offset((i / 8) * 64);
        let loc = ((i + 1) % 4) as u32;
        h.issue(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 64], OpId::from_raw(i));
        });
        if i == 30 {
            // Driver-phase firmware reset, between runs: plain state access.
            let cluster = &mut h.world().data.cluster;
            for l in 0..4u32 {
                cluster.loc_mut(l).nic.xlate.flush_live();
            }
        }
        h.run_steps(10);
    }
    h
}

/// NIC-executed AMOs racing migrations under jitter: fetch-adds, CAS,
/// scatters, and a gather audit, with churn forcing the NACK/forward arms
/// of the AMO commit path into the pinned schedule.
pub fn amo_mix(mode: GasMode, setup: &Setup) -> Harness {
    let mut h = setup.harness(4, mode, jittery(), 19);
    let arr = h.alloc(4, 12);
    for i in 0..40u64 {
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
        if i % 5 == 4 {
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
        if i % 7 == 6 {
            let sc = arr.block((i + 2) % 4);
            h.issue(loc, move |eng| {
                memamo(
                    eng,
                    loc,
                    sc,
                    AmoOp::Scatter {
                        writes: vec![(112, i), (120, i + 1)],
                    },
                    OpId::from_raw(700 + i),
                );
            });
        }
        if i % 16 == 8 && mode.supports_migration() {
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
        h.run_steps(12);
    }
    for i in 0..16u64 {
        let loc = (i % 4) as u32;
        let gva = arr.block(i % 4);
        h.issue(loc, move |eng| {
            memamo(
                eng,
                loc,
                gva,
                AmoOp::Gather {
                    offsets: vec![0, 8, 16, 24],
                },
                OpId::from_raw(2000 + i),
            );
        });
    }
    h
}

/// The elastic membership plane as a pinned schedule: locality 3 boots
/// `Joining` and takes over a slice of locality 0's directory shard, a
/// member drains through the migration protocol while puts keep flowing,
/// and (under the AGAS modes) a member crashes after a seeded migration so
/// recovery re-issues its home blocks. Every transition is a per-locality
/// engine event, so it lands in the trace hash and no lane count can
/// reorder it.
pub fn member_mix(mode: GasMode, setup: &Setup) -> Harness {
    let mut h = setup.harness(4, mode, jittery(), 29);
    h.drive(|eng| membership::mark(eng, 3, MemberState::Joining));
    let arr = h.alloc(8, 12);
    for i in 0..24u64 {
        let gva = arr.block(i % 8).with_offset((i / 8) * 32);
        let loc = (i % 3) as u32;
        h.issue(loc, move |eng| {
            memput(eng, loc, gva, vec![(i + 1) as u8; 32], OpId::from_raw(i));
        });
        h.run_steps(10);
    }
    h.drive(|eng| membership::join(eng, 3, 0));
    for i in 0..24u64 {
        let gva = arr.block(i % 8).with_offset(64 + (i / 8) * 32);
        let loc = (i % 4) as u32;
        h.issue(loc, move |eng| {
            memput(
                eng,
                loc,
                gva,
                vec![(i + 101) as u8; 32],
                OpId::from_raw(100 + i),
            );
        });
        h.run_steps(10);
    }
    let drainee = if mode.supports_migration() { 2 } else { 3 };
    h.drive(move |eng| membership::drain(eng, drainee));
    for i in 0..16u64 {
        let gva = arr.block(i % 8);
        let loc = (i % 2) as u32;
        h.issue(loc, move |eng| {
            memget(eng, loc, gva, 32, OpId::from_raw(200 + i));
        });
        h.run_steps(10);
    }
    if mode.supports_migration() {
        // Quiesce before the crash: migration completions carry no
        // deadline, and the seeded migration guarantees the victim owns a
        // block when the links sever.
        h.run();
        let mig = arr.block(0);
        h.issue(0, move |eng| {
            migrate_block(eng, 0, mig, 1, OpId::from_raw(900));
        });
        h.run();
        h.drive(|eng| membership::crash(eng, 1));
        h.run_steps(64);
        for i in 0..8u64 {
            let gva = arr.block(i % 8);
            h.issue(0, move |eng| {
                memget(eng, 0, gva, 32, OpId::from_raw(300 + i));
            });
        }
    }
    h
}

/// One golden pin: a named scenario and the `(hash, ps)` it must land on
/// once run to quiescence. A scenario returns its harness with the
/// workload issued; [`Harness::finish`] runs the rest.
pub struct Pin {
    pub name: &'static str,
    pub run: fn(&Setup) -> Harness,
    pub want: (u64, u64),
}

/// The golden table: every pinned scenario with its constant.
pub fn pins() -> [Pin; 15] {
    [
        Pin {
            name: "jitter_puts/pgas",
            run: |s| jitter_puts(GasMode::Pgas, 7, s),
            want: GOLDEN_JITTER_PGAS,
        },
        Pin {
            name: "jitter_puts/sw",
            run: |s| jitter_puts(GasMode::AgasSoftware, 7, s),
            want: GOLDEN_JITTER_SW,
        },
        Pin {
            name: "jitter_puts/net",
            run: |s| jitter_puts(GasMode::AgasNetwork, 7, s),
            want: GOLDEN_JITTER_NET,
        },
        Pin {
            name: "migration_mix/sw",
            run: |s| migration_mix(GasMode::AgasSoftware, s),
            want: GOLDEN_MIG_SW,
        },
        Pin {
            name: "migration_mix/net",
            run: |s| migration_mix(GasMode::AgasNetwork, s),
            want: GOLDEN_MIG_NET,
        },
        Pin {
            name: "deadline_fault/11",
            run: |s| deadline_fault(11, s),
            want: GOLDEN_DEADLINE_11,
        },
        Pin {
            name: "deadline_fault/23",
            run: |s| deadline_fault(23, s),
            want: GOLDEN_DEADLINE_23,
        },
        Pin {
            name: "capacity_pressure",
            run: capacity_pressure,
            want: GOLDEN_CAPACITY,
        },
        Pin {
            name: "flush_recovery",
            run: flush_recovery,
            want: GOLDEN_FLUSH,
        },
        Pin {
            name: "amo_mix/pgas",
            run: |s| amo_mix(GasMode::Pgas, s),
            want: GOLDEN_AMO_PGAS,
        },
        Pin {
            name: "amo_mix/sw",
            run: |s| amo_mix(GasMode::AgasSoftware, s),
            want: GOLDEN_AMO_SW,
        },
        Pin {
            name: "amo_mix/net",
            run: |s| amo_mix(GasMode::AgasNetwork, s),
            want: GOLDEN_AMO_NET,
        },
        Pin {
            name: "member_mix/pgas",
            run: |s| member_mix(GasMode::Pgas, s),
            want: GOLDEN_MEMBER_PGAS,
        },
        Pin {
            name: "member_mix/sw",
            run: |s| member_mix(GasMode::AgasSoftware, s),
            want: GOLDEN_MEMBER_SW,
        },
        Pin {
            name: "member_mix/net",
            run: |s| member_mix(GasMode::AgasNetwork, s),
            want: GOLDEN_MEMBER_NET,
        },
    ]
}

/// Run the pins whose name starts with `prefix` under `setup` to
/// quiescence and demand each lands on its constant. Returns the finished
/// runs.
pub fn check_pins(prefix: &str, setup: &Setup) -> Vec<Harness> {
    let mut out = Vec::new();
    for pin in pins().iter().filter(|p| p.name.starts_with(prefix)) {
        let mut h = (pin.run)(setup);
        let (hash, ps, _) = h.finish();
        assert_eq!(
            (hash, ps),
            pin.want,
            "{} ({setup:?}): pin moved — observed (hash, ps) = ({hash:#018x}, {ps})",
            pin.name
        );
        out.push(h);
    }
    assert!(!out.is_empty(), "no pin named {prefix}*");
    out
}

/// [`check_pins`] in every [`GRID`] column that `keep` selects; returns
/// the runs, column by column.
pub fn check_pins_over(prefix: &str, keep: impl Fn(Lanes) -> bool) -> Vec<Harness> {
    (GRID.into_iter().filter(|&lanes| keep(lanes)))
        .flat_map(|lanes| {
            let setup = Setup {
                lanes,
                faults: None,
            };
            check_pins(prefix, &setup)
        })
        .collect()
}

// Captured from the seed implementation (std HashMap / LruMap translation
// structures); the flat-table rewrite reproduces them exactly.
pub const GOLDEN_JITTER_PGAS: (u64, u64) = (0x3a1b_a271_08e7_3ff4, 2_155_000);
pub const GOLDEN_JITTER_SW: (u64, u64) = (0x7b1b_771a_2630_7d1b, 6_591_400);
pub const GOLDEN_JITTER_NET: (u64, u64) = (0x4a67_b315_e66f_9216, 2_165_000);
pub const GOLDEN_MIG_SW: (u64, u64) = (0x50aa_0c4b_27e6_6b7e, 109_546_200);
pub const GOLDEN_MIG_NET: (u64, u64) = (0x6829_dca1_979a_1fcd, 100_872_800);
pub const GOLDEN_DEADLINE_11: (u64, u64) = (0x7d82_ca5b_de6f_587d, 40_000_000);
pub const GOLDEN_DEADLINE_23: (u64, u64) = (0xe63a_b7da_7176_c2ea, 40_000_000);
pub const GOLDEN_CAPACITY: (u64, u64) = (0xfe4f_3eb2_0d05_710b, 165_756_600);
pub const GOLDEN_FLUSH: (u64, u64) = (0xf28f_56b0_057b_a14c, 21_260_000);
// Captured when the AMO subsystem landed (NIC-executed active operations).
pub const GOLDEN_AMO_PGAS: (u64, u64) = (0x0c6b_7794_17b5_7bcc, 16_428_800);
pub const GOLDEN_AMO_SW: (u64, u64) = (0xd8c6_19aa_c5c3_b3e3, 38_448_400);
pub const GOLDEN_AMO_NET: (u64, u64) = (0xb4af_369e_0364_317d, 24_868_600);
// Captured when the elastic membership plane landed (join / drain / crash).
pub const GOLDEN_MEMBER_PGAS: (u64, u64) = (0x5e47_706e_d8f4_81fb, 21_898_800);
pub const GOLDEN_MEMBER_SW: (u64, u64) = (0x8ab1_8722_e778_5b6f, 59_989_200);
pub const GOLDEN_MEMBER_NET: (u64, u64) = (0x93bf_22a4_bb30_2218, 47_268_200);
