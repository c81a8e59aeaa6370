//! `churn_mixed`: 16 localities on network-managed AGAS. 256 blocks of
//! 8 KiB are allocated Blocked, so the Zipf-hot blocks start on locality
//! 0, and the runtime's load balancer migrates hot blocks away while the
//! traffic runs.
//!
//! Each locality runs a closed loop with a window of 8 ops over
//! Zipf(0.99)-chosen blocks: 60% 8-byte gets of a random locality slot,
//! 30% 8-byte puts to the issuing locality's own slot, 10% NIC fetch-adds
//! on word 0. A put is turned into a get of the same slot while the
//! locality still has a put to that block in flight, so "the last write"
//! of every slot is well defined. Word 0 holds AMO traffic only; slots
//! `1..=n` hold put/get traffic only (the history checker's convention).
//!
//! Latency is simulated time from the benchmark's issue call to its
//! completion continuation. The makespan ends at the last op's
//! completion rather than at quiescence: the balancer keeps running idle
//! rounds after the traffic stops, which would round quiescence up to its
//! 200 µs period.

use crate::counters::{self, Probe};
use crate::trace::{self, NO_OP};
use crate::{Det, Latency, Layers, Rep, RepOpts, Setup};
use agas::{Distribution, GasConfig, GasMode, Gva};
use netsim::rng::{Xoshiro256, Zipf};
use netsim::{AmoOp, Engine, Time};
use parcel_rt::{BalancerConfig, Completion, Runtime, World};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Localities.
    pub localities: usize,
    /// Blocks allocated.
    pub blocks: u64,
    /// Block size class (2^class bytes).
    pub block_class: u8,
    /// Ops each locality issues.
    pub ops_per_loc: u64,
    /// Ops each locality keeps in flight.
    pub window: u64,
    /// Zipf skew over blocks.
    pub zipf_theta: f64,
}

impl Config {
    /// The benchmark size.
    pub fn full() -> Config {
        Config {
            localities: 16,
            blocks: 256,
            block_class: 13,
            ops_per_loc: 32768,
            window: 8,
            zipf_theta: 0.99,
        }
    }

    /// The smoke-test size.
    pub fn tiny() -> Config {
        Config {
            ops_per_loc: 256,
            ..Config::full()
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Get,
    Put,
    Amo,
}

struct Loc {
    rng: Xoshiro256,
    remaining: u64,
    next_seq: u64,
    put_busy: Vec<bool>,
}

struct State {
    blocks: Vec<Gva>,
    zipf: Zipf,
    locs: Vec<Loc>,
    /// Value of the last put issued to `(block, loc)`, at `block * n + loc`.
    last_written: Vec<u64>,
    /// Fetch-adds issued per block.
    amo_issued: Vec<u64>,
    /// Values the fetch-adds of each block returned.
    amo_olds: Vec<Vec<u64>>,
    completed: u64,
    /// When the last op completed.
    last_done: Time,
    bad_gets: u64,
    lat: Latency,
}

type Shared = Rc<RefCell<State>>;

/// Put value: nonzero, and names its writer and block so a get can tell
/// whether a value belongs in the slot it read.
fn put_value(loc: usize, block: usize, seq: u64) -> u64 {
    ((loc as u64 + 1) << 48) | ((block as u64) << 32) | (seq & 0xffff_ffff)
}

/// Issue the next op of `loc`'s closed loop, if any remain.
fn issue(eng: &mut Engine<World>, st: &Shared, loc: usize) {
    let (kind, block, slot, op, value) = {
        let mut s = st.borrow_mut();
        let s = &mut *s;
        let n = s.locs.len();
        let l = &mut s.locs[loc];
        if l.remaining == 0 {
            return;
        }
        l.remaining -= 1;
        let block = s.zipf.sample(&mut l.rng);
        let roll = l.rng.next_below(100);
        let seq = l.next_seq;
        l.next_seq += 1;
        let op = ((loc as u64) << 32) | seq;
        let mut kind = match roll {
            0..=59 => Kind::Get,
            60..=89 => Kind::Put,
            _ => Kind::Amo,
        };
        if kind == Kind::Put && l.put_busy[block] {
            kind = Kind::Get;
        }
        match kind {
            Kind::Get => {
                let slot = 1 + l.rng.next_below(n as u64);
                (kind, block, slot, op, 0)
            }
            Kind::Put => {
                l.put_busy[block] = true;
                let value = put_value(loc, block, seq);
                s.last_written[block * n + loc] = value;
                (kind, block, loc as u64 + 1, op, value)
            }
            Kind::Amo => {
                s.amo_issued[block] += 1;
                (kind, block, 0, op, 0)
            }
        }
    };
    let _span = trace::span("bench.issue", op);
    let gva = st.borrow().blocks[block].with_offset(slot * 8);
    let issued = eng.now();
    let st2 = st.clone();
    let ctx = eng
        .state
        .new_completion(Completion::Driver(Box::new(move |eng, data| {
            let _span = trace::span("bench.complete", op);
            {
                let mut s = st2.borrow_mut();
                let s = &mut *s;
                let lat = (eng.now() - issued).ps();
                s.lat.all.push(lat);
                s.completed += 1;
                s.last_done = eng.now();
                match kind {
                    Kind::Get => {
                        s.lat.get.push(lat);
                        let v = u64::from_le_bytes(data[..8].try_into().expect("8-byte get"));
                        if v != 0 && (v >> 48 != slot || (v >> 32) & 0xffff != block as u64) {
                            s.bad_gets += 1;
                        }
                    }
                    Kind::Put => {
                        s.lat.put.push(lat);
                        s.locs[loc].put_busy[block] = false;
                    }
                    Kind::Amo => {
                        s.lat.amo.push(lat);
                        s.amo_olds[block].push(parcel_rt::decode_amo_result(&data).old);
                    }
                }
            }
            issue(eng, &st2, loc);
        })));
    let _call = trace::span("agas.call", op);
    let l = loc as u32;
    match kind {
        Kind::Get => agas::ops::memget(eng, l, gva, 8, ctx),
        Kind::Put => agas::ops::memput(eng, l, gva, value.to_le_bytes().to_vec(), ctx),
        Kind::Amo => agas::ops::memamo(eng, l, gva, AmoOp::FetchAdd { operand: 1 }, ctx),
    }
}

/// One repetition.
pub fn rep(cfg: &Config, seed: u64, opts: RepOpts) -> Rep {
    if opts.traced {
        trace::enable();
    }
    let n = cfg.localities;

    let t = Instant::now();
    let boot = trace::span("setup.boot", NO_OP);
    let mut rt = Runtime::builder(n, GasMode::AgasNetwork)
        .seed(seed)
        .gas_config(GasConfig {
            record_history: opts.traced,
            ..GasConfig::default()
        })
        .boot();
    rt.start_balancer(BalancerConfig::default());
    drop(boot);
    let boot_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let alloc = trace::span("setup.alloc", NO_OP);
    let arr = rt.alloc(cfg.blocks, cfg.block_class, Distribution::Blocked);
    drop(alloc);
    let alloc_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let install = trace::span("setup.install", NO_OP);
    let nb = cfg.blocks as usize;
    let attempted = n * cfg.ops_per_loc as usize;
    let st: Shared = Rc::new(RefCell::new(State {
        blocks: arr.blocks.clone(),
        zipf: Zipf::new(nb, cfg.zipf_theta),
        locs: (0..n)
            .map(|l| Loc {
                rng: Xoshiro256::seed_from_u64(seed ^ (0xC4u64 << 56) ^ ((l as u64) << 32)),
                remaining: cfg.ops_per_loc,
                next_seq: 0,
                put_busy: vec![false; nb],
            })
            .collect(),
        last_written: vec![0; nb * n],
        amo_issued: vec![0; nb],
        amo_olds: vec![Vec::new(); nb],
        completed: 0,
        last_done: Time::ZERO,
        bad_gets: 0,
        lat: Latency {
            all: Vec::with_capacity(attempted),
            get: Vec::with_capacity(attempted),
            put: Vec::with_capacity(attempted),
            amo: Vec::with_capacity(attempted),
            parcel: Vec::new(),
        },
    }));
    drop(install);
    let install_s = t.elapsed().as_secs_f64();

    let events0 = rt.eng.events_executed();
    let start = rt.now();
    let t = Instant::now();
    for loc in 0..n {
        for _ in 0..cfg.window {
            issue(&mut rt.eng, &st, loc);
        }
    }
    let run_span = trace::span("netsim.run", NO_OP);
    rt.run();
    drop(run_span);
    let run_s = t.elapsed().as_secs_f64();

    let attempted = attempted as u64;
    let mut problems = Vec::new();
    let s = st.borrow();
    let w = &rt.eng.state;
    let failed = w.op_failures.len() as u64 + attempted.saturating_sub(s.completed);
    if s.completed != attempted {
        problems.push(format!(
            "churn: {} of {attempted} ops completed",
            s.completed
        ));
    }
    if !w.op_failures.is_empty() {
        problems.push(format!("churn: {} ops failed", w.op_failures.len()));
    }
    if s.bad_gets > 0 {
        problems.push(format!(
            "churn: {} gets read a value foreign to their slot",
            s.bad_gets
        ));
    }
    if w.stale_completions > 0 {
        problems.push(format!("churn: {} stale completions", w.stale_completions));
    }
    for (b, gva) in arr.blocks.iter().enumerate() {
        let bytes = rt.read_block(*gva);
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        if word(0) != s.amo_issued[b] {
            problems.push(format!(
                "churn: block {b} word 0 is {} after {} fetch-adds",
                word(0),
                s.amo_issued[b]
            ));
        }
        let mut olds = s.amo_olds[b].clone();
        olds.sort_unstable();
        if olds.iter().enumerate().any(|(i, &v)| v != i as u64) {
            problems.push(format!(
                "churn: block {b} fetch-adds returned duplicate values"
            ));
        }
        for l in 0..n {
            if word(l + 1) != s.last_written[b * n + l] {
                problems.push(format!(
                    "churn: block {b} slot {} holds {:#x}, last write was {:#x}",
                    l + 1,
                    word(l + 1),
                    s.last_written[b * n + l]
                ));
            }
        }
    }
    if opts.traced {
        let violations = agas::check::check_history(w);
        if !violations.is_empty() {
            problems.push(format!(
                "churn: {} history violations, first: {:?}",
                violations.len(),
                violations[0]
            ));
        }
    }

    let det = Det {
        trace_hash: rt.eng.trace_hash(),
        events: rt.eng.events_executed(),
        makespan_ps: (s.last_done - start).ps(),
        ops: s.completed,
    };
    let layers = opts.traced.then(|| Layers {
        world: counters::read(Some(w as &dyn Probe))
            .world
            .expect("world counters"),
        run_events: det.events - events0,
        ..Layers::default()
    });
    let ops = s.completed;
    let latency = Some(s.lat.clone());
    drop(s);
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
        latency,
        problems,
        layers,
    }
}
