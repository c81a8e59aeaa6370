//! `gups_lanes2`: uniform-random 8-byte puts from `SimWorld`'s
//! self-pumping GUPS generator (one put in flight per locality), 256
//! localities with one 8 KiB block each, network-managed AGAS on the
//! wire-pure FDR fabric, run on the sharded engine at two lanes with the
//! adaptive window controller on.
//!
//! The generator lives inside the program, so the benchmark has no
//! per-op callback here. Simulated per-op latency comes from the gaps
//! between a locality's consecutive completions (with one put in flight,
//! each gap is one put's issue-to-completion time); those need
//! `record_events`, which is on only in repetitions that record latency.

use crate::trace::{self, NO_OP};
use crate::{Det, Latency, Layers, Rep, RepOpts, Setup};
use agas::{alloc_array, Distribution, GasMode, SimEv, SimWorld};
use netsim::{AdaptiveWindow, Engine, NetConfig, ShardedEngine};
use std::time::Instant;

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Localities; each homes one table block.
    pub localities: usize,
    /// Pump budget per locality.
    pub updates_per_loc: u64,
    /// Table block size class (2^class bytes).
    pub block_class: u8,
    /// Sharded-engine lanes.
    pub lanes: usize,
}

impl Config {
    /// The benchmark size.
    pub fn full() -> Config {
        Config {
            localities: 256,
            updates_per_loc: 2048,
            block_class: 13,
            lanes: 2,
        }
    }

    /// The smoke-test size.
    pub fn tiny() -> Config {
        Config {
            localities: 16,
            updates_per_loc: 64,
            ..Config::full()
        }
    }
}

/// One repetition. `serial` runs the plain sequential engine instead of
/// the sharded one (the reference for trace identity and speedup).
pub fn rep(cfg: &Config, seed: u64, opts: RepOpts, serial: bool) -> Rep {
    if opts.traced {
        trace::enable();
    }
    let n = cfg.localities;
    let record = opts.traced || opts.record_latency;

    let t = Instant::now();
    let boot = trace::span("setup.boot", NO_OP);
    let mut world = SimWorld::new(n, GasMode::AgasNetwork, NetConfig::ib_fdr());
    world.data.record_events = record;
    for l in 0..n as u32 {
        world.arm_gups(l, cfg.updates_per_loc, seed);
    }
    let mut eng = if serial {
        Eng::Serial(Box::new(Engine::new(world, seed)))
    } else {
        let mut sh = ShardedEngine::new(world, seed, cfg.lanes);
        sh.set_adaptive(AdaptiveWindow::default());
        Eng::Sharded(Box::new(sh))
    };
    drop(boot);
    let boot_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let alloc = trace::span("setup.alloc", NO_OP);
    let arr = eng.drive(|e| alloc_array(e, n as u64, cfg.block_class, Distribution::Cyclic));
    drop(alloc);
    let alloc_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let install = trace::span("setup.install", NO_OP);
    eng.world().set_pump_blocks(arr.blocks.clone());
    drop(install);
    let install_s = t.elapsed().as_secs_f64();

    let events0 = eng.events();
    let start = eng.now();
    let t = Instant::now();
    let prime = trace::span("bench.prime", NO_OP);
    for l in 0..n as u32 {
        eng.drive_at(l, move |e| SimWorld::pump_prime(e, l));
    }
    drop(prime);
    let run_span = trace::span("netsim.run", NO_OP);
    eng.run();
    drop(run_span);
    let run_s = t.elapsed().as_secs_f64();

    let attempted = n as u64 * cfg.updates_per_loc;
    let w = eng.world();
    let ops = w.pump_completed();
    let failed = w.op_failures() + attempted.saturating_sub(ops);
    let mut problems = Vec::new();
    if ops != attempted {
        problems.push(format!("gups: {ops} updates completed, budget {attempted}"));
    }
    for (l, sl) in w.data.locs.iter().enumerate() {
        let done = sl.pump.as_ref().map_or(0, |p| p.completed);
        if done != cfg.updates_per_loc {
            problems.push(format!("gups: locality {l} completed {done} updates"));
        }
    }
    if w.op_failures() > 0 {
        problems.push(format!("gups: {} puts failed", w.op_failures()));
    }

    let latency = record.then(|| {
        let mut lat = Latency::default();
        for sl in &w.data.locs {
            let mut prev = start;
            for (at, ev) in &sl.events {
                if let SimEv::PutDone(_) = ev {
                    lat.put.push((*at - prev).ps());
                    prev = *at;
                }
            }
        }
        lat.all = lat.put.clone();
        lat
    });

    let world_counters = opts
        .traced
        .then(|| crate::counters::read(Some(eng.world_ref() as &dyn crate::counters::Probe)));
    let det = Det {
        trace_hash: eng.trace_hash(),
        events: eng.events(),
        makespan_ps: (eng.now() - start).ps(),
        ops,
    };
    let run_events = det.events - events0;
    let shard = match &eng {
        Eng::Sharded(sh) => Some(sh.stats().clone()),
        Eng::Serial(_) => None,
    };
    drop(eng);
    let spans = if opts.traced {
        trace::take()
    } else {
        Vec::new()
    };
    let layers = world_counters.map(|reading| Layers {
        world: reading.world.expect("world counters"),
        run_events,
        shard,
        spans,
        ..Layers::default()
    });
    Rep {
        attempted,
        failed,
        ops,
        setup: Setup {
            boot_s,
            alloc_s,
            install_s,
        },
        run_s,
        det,
        latency,
        problems,
        layers,
    }
}

/// The sequential or sharded engine behind one repetition.
enum Eng {
    Serial(Box<Engine<SimWorld>>),
    Sharded(Box<ShardedEngine<SimWorld>>),
}

impl Eng {
    fn drive<R>(&mut self, f: impl FnOnce(&mut Engine<SimWorld>) -> R) -> R {
        match self {
            Eng::Serial(e) => f(e),
            Eng::Sharded(sh) => sh.drive(f),
        }
    }

    fn drive_at(&mut self, loc: u32, f: impl FnOnce(&mut Engine<SimWorld>)) {
        match self {
            Eng::Serial(e) => f(e),
            Eng::Sharded(sh) => sh.drive_at(loc, f),
        }
    }

    fn run(&mut self) -> u64 {
        match self {
            Eng::Serial(e) => e.run(),
            Eng::Sharded(sh) => sh.run(),
        }
    }

    fn world(&mut self) -> &mut SimWorld {
        match self {
            Eng::Serial(e) => &mut e.state,
            Eng::Sharded(sh) => sh.state(),
        }
    }

    fn world_ref(&self) -> &SimWorld {
        match self {
            Eng::Serial(e) => &e.state,
            Eng::Sharded(sh) => sh.state_ref(),
        }
    }

    fn now(&self) -> netsim::Time {
        match self {
            Eng::Serial(e) => e.now(),
            Eng::Sharded(sh) => sh.now(),
        }
    }

    fn events(&self) -> u64 {
        match self {
            Eng::Serial(e) => e.events_executed(),
            Eng::Sharded(sh) => sh.events_executed(),
        }
    }

    fn trace_hash(&self) -> u64 {
        match self {
            Eng::Serial(e) => e.trace_hash(),
            Eng::Sharded(sh) => sh.trace_hash(),
        }
    }
}
