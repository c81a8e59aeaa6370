//! `bfs_isir`: message-driven, label-correcting BFS in the
//! `workloads::bfs` idiom, on a 2^16-vertex small-world graph over 16
//! localities, software-managed AGAS, parcels over the two-sided ISIR
//! transport (photon eager sends with tag matching).
//!
//! The relax action is the benchmark's own: it carries its spawn instant
//! in its arguments, so the simulated latency of an op (one executed
//! relax parcel) runs from its spawn to the start of its action. The
//! graph is `workloads::Graph::small_world` of the seed (ring plus random
//! chords, always connected), handed to the program as replicated
//! read-only data; the labels are distributed GAS state.

use crate::counters::{self, Probe};
use crate::trace::{self, NO_OP};
use crate::{Det, Latency, Layers, Rep, RepOpts, Setup};
use agas::{Distribution, GasMode, GlobalArray};
use netsim::rng::Xoshiro256;
use parcel_rt::{ActionId, ArgReader, ArgWriter, Parcel, RtConfig, Runtime, Transport};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use workloads::Graph;

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Localities.
    pub localities: usize,
    /// Vertices.
    pub vertices: u32,
    /// Random chords per vertex.
    pub chords: u32,
    /// Label block size class (2^class bytes).
    pub block_class: u8,
}

impl Config {
    /// The benchmark size.
    pub fn full() -> Config {
        Config {
            localities: 16,
            vertices: 1 << 16,
            chords: 2,
            block_class: 12,
        }
    }

    /// The smoke-test size.
    pub fn tiny() -> Config {
        Config {
            vertices: 1 << 10,
            ..Config::full()
        }
    }
}

/// The generated inputs of one seed: the graph, its root and the
/// sequential oracle's labels.
pub struct Input {
    graph: Rc<Graph>,
    root: u32,
    oracle: Vec<u64>,
}

/// Generate the inputs of `seed`.
pub fn input(cfg: &Config, seed: u64) -> Input {
    let graph = Graph::small_world(cfg.vertices, cfg.chords, seed ^ 0xBF5_0000_0000);
    let root = Xoshiro256::seed_from_u64(seed ^ 0xB007_0000_0000)
        .next_below(u64::from(cfg.vertices)) as u32;
    let oracle = graph.bfs_oracle(root);
    Input {
        graph: Rc::new(graph),
        root,
        oracle,
    }
}

struct State {
    graph: Rc<Graph>,
    labels: Rc<GlobalArray>,
    relax: ActionId,
    spawned: u64,
    executed: u64,
    lat: Latency,
}

type Slot = Rc<RefCell<Option<State>>>;

fn relax_args(vertex: u32, depth: u64, spawned_ps: u64) -> Vec<u8> {
    ArgWriter::new()
        .u32(vertex)
        .u64(depth)
        .u64(spawned_ps)
        .finish()
}

/// One repetition.
pub fn rep(cfg: &Config, input: &Input, seed: u64, opts: RepOpts) -> Rep {
    if opts.traced {
        trace::enable();
    }
    let n = cfg.localities;

    let t = Instant::now();
    let boot = trace::span("setup.boot", NO_OP);
    let slot: Slot = Rc::new(RefCell::new(None));
    let mut b = Runtime::builder(n, GasMode::AgasSoftware).seed(seed);
    let s2 = slot.clone();
    let relax = b.register("perfbench_relax", move |eng, ctx| {
        let now = eng.now();
        let (op, graph, labels, relax) = {
            let mut s = s2.borrow_mut();
            let s = s.as_mut().expect("relax state installed");
            s.executed += 1;
            (s.executed, s.graph.clone(), s.labels.clone(), s.relax)
        };
        let _span = trace::span("bfs.relax", op);
        let mut r = ArgReader::new(&ctx.args);
        let vertex = r.u32();
        let depth = r.u64();
        let spawned = r.u64();
        {
            let mut s = s2.borrow_mut();
            let s = s.as_mut().expect("relax state installed");
            let lat = now.ps() - spawned;
            s.lat.all.push(lat);
            s.lat.parcel.push(lat);
        }
        let phys = ctx.target_phys();
        let mem = eng.state.cluster.mem_mut(ctx.loc);
        let cell = mem.read(phys, 8).expect("label cell inside its block");
        let cur = u64::from_le_bytes(cell.try_into().expect("8-byte label"));
        if depth >= cur {
            return;
        }
        mem.write(phys, &depth.to_le_bytes())
            .expect("label cell inside its block");
        let neighbors = graph.neighbors(vertex);
        if let Some(s) = s2.borrow_mut().as_mut() {
            s.spawned += neighbors.len() as u64;
        }
        for &w in neighbors {
            let parcel = Parcel {
                target: labels.at_byte(u64::from(w) * 8),
                action: relax,
                args: relax_args(w, depth + 1, now.ps()),
                cont: None,
                src: ctx.loc,
                hops: 0,
            };
            parcel_rt::send_parcel(eng, ctx.loc, parcel);
        }
    });
    let mut rt = b
        .rt_config(RtConfig {
            transport: Transport::Isir,
            ..RtConfig::default()
        })
        .boot();
    drop(boot);
    let boot_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let alloc = trace::span("setup.alloc", NO_OP);
    let bytes = u64::from(cfg.vertices) * 8;
    let labels = rt.alloc(
        bytes.div_ceil(1 << cfg.block_class),
        cfg.block_class,
        Distribution::Cyclic,
    );
    drop(alloc);
    let alloc_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let install = trace::span("setup.install", NO_OP);
    let unreached = vec![0xFF; 1 << cfg.block_class];
    for gva in &labels.blocks {
        rt.write_block(*gva, 0, &unreached);
    }
    let labels = Rc::new(labels);
    *slot.borrow_mut() = Some(State {
        graph: input.graph.clone(),
        labels: labels.clone(),
        relax,
        spawned: 1,
        executed: 0,
        lat: Latency {
            all: Vec::with_capacity(input.graph.edges.len()),
            parcel: Vec::with_capacity(input.graph.edges.len()),
            ..Latency::default()
        },
    });
    drop(install);
    let install_s = t.elapsed().as_secs_f64();

    let events0 = rt.eng.events_executed();
    let start = rt.now();
    let t = Instant::now();
    let prime = trace::span("bench.issue", 0);
    let root = labels.at_byte(u64::from(input.root) * 8);
    rt.spawn(0, root, relax, relax_args(input.root, 0, start.ps()), None);
    drop(prime);
    let run_span = trace::span("netsim.run", NO_OP);
    rt.run();
    drop(run_span);
    let run_s = t.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    let state = slot.borrow_mut().take().expect("relax state");
    let w = &rt.eng.state;
    let (attempted, ops) = (state.spawned, state.executed);
    let failed = attempted.saturating_sub(ops) + w.op_failures.len() as u64;
    if ops != attempted {
        problems.push(format!("bfs: {ops} of {attempted} relax parcels executed"));
    }
    if !w.op_failures.is_empty() || w.corrupt_parcels > 0 {
        problems.push(format!(
            "bfs: {} failed ops, {} corrupt parcels",
            w.op_failures.len(),
            w.corrupt_parcels
        ));
    }
    let per_block = 1usize << (cfg.block_class - 3);
    let mut got = Vec::with_capacity(input.oracle.len());
    for gva in &labels.blocks {
        let bytes = rt.read_block(*gva);
        got.extend(
            bytes
                .chunks_exact(8)
                .take(per_block)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
        );
    }
    got.truncate(input.oracle.len());
    if got != input.oracle {
        let bad = got
            .iter()
            .zip(&input.oracle)
            .filter(|(a, b)| a != b)
            .count();
        problems.push(format!("bfs: {bad} labels differ from the oracle"));
    }

    let det = Det {
        trace_hash: rt.eng.trace_hash(),
        events: rt.eng.events_executed(),
        makespan_ps: (rt.now() - start).ps(),
        ops,
    };
    let layers = opts.traced.then(|| Layers {
        world: counters::read(Some(w as &dyn Probe))
            .world
            .expect("world counters"),
        run_events: det.events - events0,
        ..Layers::default()
    });
    drop(rt);
    let layers = layers.map(|l| Layers {
        spans: trace::take(),
        ..l
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
        latency: Some(state.lat),
        problems,
        layers,
    }
}
