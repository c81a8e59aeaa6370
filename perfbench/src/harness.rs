//! One benchmark run: repetitions of one workload at one seed, the
//! determinism guard across them, and the metrics they yield.
//!
//! An untraced run (`trace = false`) repeats the workload until the run's
//! seconds are spent (at least [`MIN_TIMED`] timed repetitions after one
//! warm-up) and reports the end-to-end metrics: the 90th percentile of
//! the timed repetitions' `ops_per_s`, the median setup time over every
//! repetition, and the simulated figures every repetition shares. A traced run alternates
//! untraced and traced repetitions for the same time and reports the
//! per-layer metrics; its untraced repetitions are the base of
//! `trace.overhead` and, on `gups_lanes2`, alternate with sequential-engine
//! repetitions, the base of `netsim.shard.speedup_vs_serial`. Every repetition builds a fresh world from the same
//! seed, so the trace hash, event count, makespan, op count and per-op
//! simulated latencies must repeat exactly; any difference fails the run.

use crate::layers::{self, median, percentile, ratio, upper_decile, PER_LAYER};
use crate::{bfs, churn, counters, gups, Det, Latency, Rep, RepOpts, END_TO_END};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fewest timed repetitions in an untraced run.
pub const MIN_TIMED: usize = 3;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sharded-engine GUPS puts (see [`gups`]).
    GupsLanes2,
    /// Mixed gets/puts/AMOs under migration churn (see [`churn`]).
    ChurnMixed,
    /// Message-driven BFS over ISIR parcels (see [`bfs`]).
    BfsIsir,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GupsLanes2,
        Workload::ChurnMixed,
        Workload::BfsIsir,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GupsLanes2 => "gups_lanes2",
            Workload::ChurnMixed => "churn_mixed",
            Workload::BfsIsir => "bfs_isir",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's size.
    Full,
    /// Seconds-long inputs for the smoke tests.
    Tiny,
}

/// Options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds to spend repeating the workload.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of timed run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Where a traced run writes its spans (CSV).
    pub spans_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every check passed and no op failed.
    pub correct: bool,
    /// Ops attempted across all repetitions.
    pub attempted: u64,
    /// Ops failed across all repetitions (all of a repetition's ops when
    /// one of its checks failed).
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// The deterministic fingerprint shared by every repetition.
    pub det: Det,
    /// Simulated-time figures shared by every repetition.
    pub sim: SimFigures,
    /// Repetitions run.
    pub reps: usize,
    /// Ops per host second of every timed (untraced) repetition.
    pub rates: Vec<f64>,
    /// Check failures.
    pub problems: Vec<String>,
}

/// Simulated-time end-to-end figures; identical for every repetition of
/// one seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimFigures {
    /// Makespan, µs.
    pub makespan_us: f64,
    /// Median op latency, ns.
    pub op_p50_ns: f64,
    /// 99th-percentile op latency, ns.
    pub op_p99_ns: f64,
    /// Ops in the latency sample.
    pub op_samples: usize,
    /// Samples strictly above the 99th percentile's rank.
    pub beyond_p99: usize,
}

impl SimFigures {
    fn new(det: &Det, lat: &Latency) -> SimFigures {
        SimFigures {
            makespan_us: det.makespan_ps as f64 / 1e6,
            op_p50_ns: percentile(&lat.all, 50.0) as f64 / 1e3,
            op_p99_ns: percentile(&lat.all, 99.0) as f64 / 1e3,
            op_samples: lat.all.len(),
            beyond_p99: lat.all.len() - (lat.all.len() * 99).div_ceil(100),
        }
    }
}

/// A workload with its generated inputs.
enum Prepared {
    Gups(gups::Config),
    Churn(churn::Config),
    Bfs(bfs::Config, bfs::Input),
}

impl Prepared {
    fn new(w: Workload, scale: Scale, seed: u64) -> Prepared {
        let full = scale == Scale::Full;
        match w {
            Workload::GupsLanes2 => Prepared::Gups(if full {
                gups::Config::full()
            } else {
                gups::Config::tiny()
            }),
            Workload::ChurnMixed => Prepared::Churn(if full {
                churn::Config::full()
            } else {
                churn::Config::tiny()
            }),
            Workload::BfsIsir => {
                let cfg = if full {
                    bfs::Config::full()
                } else {
                    bfs::Config::tiny()
                };
                Prepared::Bfs(cfg, bfs::input(&cfg, seed))
            }
        }
    }

    /// One repetition, with the telemetry cross-check: the process-global
    /// `events` delta must equal the engine's own count.
    fn rep(&self, seed: u64, opts: RepOpts, serial: bool) -> Rep {
        let before = counters::read(None).telemetry;
        let mut rep = match self {
            Prepared::Gups(cfg) => gups::rep(cfg, seed, opts, serial),
            Prepared::Churn(cfg) => churn::rep(cfg, seed, opts),
            Prepared::Bfs(cfg, input) => bfs::rep(cfg, input, seed, opts),
        };
        let delta = counters::read(None).telemetry.since(before);
        if delta.events != rep.det.events {
            rep.problems.push(format!(
                "telemetry counted {} events, the engine executed {}",
                delta.events, rep.det.events
            ));
        }
        if let Some(l) = rep.layers.as_mut() {
            l.telemetry = delta;
        }
        rep
    }
}

/// Accumulates repetitions: op accounting, the determinism guard, and the
/// reference latency sample.
#[derive(Default)]
struct Tally {
    det: Option<Det>,
    lat: Option<Latency>,
    attempted: u64,
    failed: u64,
    reps: usize,
    setup_s: Vec<f64>,
    problems: Vec<String>,
}

impl Tally {
    /// Fold `rep` in, comparing its fingerprint and latencies with the
    /// first repetition's, and drop its latency sample.
    fn add(&mut self, label: &str, mut rep: Rep) -> Rep {
        self.reps += 1;
        self.attempted += rep.attempted;
        self.setup_s.push(rep.setup.total());
        if rep.problems.is_empty() {
            self.failed += rep.failed;
        } else {
            self.failed += rep.attempted;
            for p in rep.problems.drain(..) {
                self.problems.push(format!("{label}: {p}"));
            }
        }
        match self.det {
            None => self.det = Some(rep.det),
            Some(d) if d != rep.det => self.problems.push(format!(
                "{label}: nondeterministic: {:?} differs from the first repetition's {d:?}",
                rep.det
            )),
            Some(_) => {}
        }
        if let Some(lat) = rep.latency.take() {
            match &self.lat {
                None => self.lat = Some(lat),
                Some(l) if *l != lat => self
                    .problems
                    .push(format!("{label}: per-op simulated latencies differ")),
                Some(_) => {}
            }
        }
        rep
    }
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run the benchmark once.
pub fn run(o: &Options) -> Outcome {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(o.seconds);
    let work = Prepared::new(o.workload, o.scale, o.seed);
    let plain = RepOpts::default();
    let mut tally = Tally::default();
    tally.add("warm-up", work.rep(o.seed, plain, false));
    // One repetition's footprint; later repetitions reuse freed memory in
    // allocator-dependent ways.
    let peak = peak_rss_mib();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let rates;
    if !o.trace {
        let mut ops_per_s = Vec::new();
        while ops_per_s.len() < MIN_TIMED || started.elapsed() < budget {
            let rep = tally.add("timed", work.rep(o.seed, plain, false));
            ops_per_s.push(ratio(rep.ops as f64, rep.run_s));
        }
        rates = ops_per_s;
        if let Prepared::Gups(_) = work {
            // Completion gaps need the event log, which is off while timed.
            let opts = RepOpts {
                record_latency: true,
                ..plain
            };
            tally.add("latency", work.rep(o.seed, opts, false));
        }
        // Other work on a shared host contends for its caches and memory
        // and slows repetitions by up to half, in spells of a fraction of
        // a second to minutes; a compute-only loop stays within 5%. The
        // 90th percentile tracks the quiet spells; between runs it moved
        // less than the median or the upper quartile, and more steadily
        // than the fastest repetition.
        values.insert("ops_per_s", upper_decile(&rates));
        values.insert("peak_rss_mb", peak);
    } else {
        let traced = RepOpts {
            traced: true,
            ..plain
        };
        let is_gups = matches!(work, Prepared::Gups(_));
        let (mut plain_rate, mut traced_rate, mut serial_rate) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut per_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut spans = Vec::new();
        while traced_rate.is_empty() || started.elapsed() < budget {
            let rep = tally.add("untraced", work.rep(o.seed, plain, false));
            plain_rate.push(ratio(rep.ops as f64, rep.run_s));
            if is_gups {
                // The sequential engine's reference, interleaved with the
                // sharded repetitions so that both sides see the same host.
                let rep = tally.add("serial", work.rep(o.seed, plain, true));
                serial_rate.push(ratio(rep.ops as f64, rep.run_s));
            }
            let rep = work.rep(o.seed, traced, false);
            traced_rate.push(ratio(rep.ops as f64, rep.run_s));
            for (name, v) in layers::metrics(&rep) {
                per_rep.entry(name).or_default().push(v);
            }
            let mut rep = tally.add("traced", rep);
            spans = rep.layers.take().map(|l| l.spans).unwrap_or_default();
        }
        rates = plain_rate;
        for (name, vs) in &per_rep {
            values.insert(name, median(vs));
        }
        let speedup = if is_gups {
            ratio(median(&rates), median(&serial_rate))
        } else {
            0.0
        };
        values.insert("netsim.shard.speedup_vs_serial", speedup);
        values.insert(
            "trace.overhead",
            ratio(median(&traced_rate), median(&rates)) - 1.0,
        );
        if let Some(path) = &o.spans_out {
            if let Err(e) = crate::trace::write_csv(&spans, path) {
                tally.problems.push(format!("writing spans: {e}"));
            }
        }
    }

    let det = tally.det.expect("at least one repetition");
    let sim = SimFigures::new(&det, tally.lat.as_ref().unwrap_or(&Latency::default()));
    if sim.op_samples == 0 {
        tally.problems.push("no per-op latency was recorded".into());
    }
    values.insert("setup_s", median(&tally.setup_s));
    values.insert("sim_makespan_us", sim.makespan_us);
    values.insert("sim_op_p50_ns", sim.op_p50_ns);
    values.insert("sim_op_p99_ns", sim.op_p99_ns);

    let failed = if tally.problems.is_empty() {
        tally.failed
    } else {
        tally.attempted
    };
    values.insert(
        "outcome.failed_op_ratio",
        ratio(failed as f64, tally.attempted as f64),
    );
    let wanted = if o.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        match values.get(name) {
            Some(&value) if value.is_finite() => metrics.push(Metric { name, value, unit }),
            _ => tally
                .problems
                .push(format!("metric {name} was not measured")),
        }
    }
    let correct = tally.problems.is_empty() && failed == 0;
    Outcome {
        correct,
        attempted: tally.attempted,
        failed: if tally.problems.is_empty() {
            failed
        } else {
            tally.attempted
        },
        metrics,
        det,
        sim,
        reps: tally.reps,
        rates,
        problems: tally.problems,
    }
}

/// Escape `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The record line: the deterministic fingerprint, the simulated
    /// figures with their sample count, and any check failures.
    pub fn record_json(&self, o: &Options) -> String {
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        format!(
            concat!(
                "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, ",
                "\"reps\": {}, \"timed_ops_per_s\": [{}], ",
                "\"det\": {{\"trace_hash\": \"{:#018x}\", \"events\": {}, ",
                "\"makespan_ps\": {}, \"ops\": {}}}, ",
                "\"sim\": {{\"makespan_us\": {}, \"op_p50_ns\": {}, \"op_p99_ns\": {}, ",
                "\"op_samples\": {}, \"samples_beyond_p99\": {}}}, ",
                "\"problems\": [{}]}}}}"
            ),
            json_str(o.workload.name()),
            o.seed,
            o.trace,
            self.reps,
            self.rates
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            self.det.trace_hash,
            self.det.events,
            self.det.makespan_ps,
            self.det.ops,
            self.sim.makespan_us,
            self.sim.op_p50_ns,
            self.sim.op_p99_ns,
            self.sim.op_samples,
            self.sim.beyond_p99,
            problems.join(", ")
        )
    }
}
