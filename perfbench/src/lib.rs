//! The repository benchmark: three long, checked workloads driven through
//! the public APIs of `netsim`, `photon`, `agas`, `parcel-rt` and
//! `workloads`, reporting end-to-end metrics from untraced repetitions and
//! per-layer metrics from a separate traced run.
//!
//! See `perfbench/README.md` for the workloads, the metric table and the
//! two kinds of time (host and simulated) each number uses.

pub mod bfs;
pub mod churn;
pub mod counters;
pub mod gups;
pub mod harness;
pub mod layers;
pub mod trace;

pub use harness::{run, Metric, Outcome, Scale, Workload};

use counters::WorldCounters;
use netsim::telemetry::Snapshot;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
/// Simulated times carry `sim_` units, host times plain ones.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_makespan_us", "sim_us"),
    ("sim_op_p50_ns", "sim_ns"),
    ("sim_op_p99_ns", "sim_ns"),
];

/// What one repetition records beyond its timings.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepOpts {
    /// Record host spans, per-layer counters and op histories.
    pub traced: bool,
    /// Record per-op simulated latency where it is not free (GUPS).
    pub record_latency: bool,
}

/// Host seconds spent in each setup phase, up to the first issued op.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Building the world and booting the engine.
    pub boot_s: f64,
    /// Global allocation.
    pub alloc_s: f64,
    /// Installing workload state (initial values, generator state).
    pub install_s: f64,
}

impl Setup {
    /// The whole setup.
    pub fn total(&self) -> f64 {
        self.boot_s + self.alloc_s + self.install_s
    }
}

/// The deterministic fingerprint of a repetition: identical across every
/// repetition of one seed, traced or not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Det {
    /// Engine trace hash.
    pub trace_hash: u64,
    /// Events executed.
    pub events: u64,
    /// Simulated time from the first issue to quiescence (to the last
    /// op's completion where a background service outlives the traffic),
    /// ps.
    pub makespan_ps: u64,
    /// Ops completed.
    pub ops: u64,
}

/// Simulated per-op latencies, ps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Latency {
    /// Every op of the workload.
    pub all: Vec<u64>,
    /// Gets.
    pub get: Vec<u64>,
    /// Puts.
    pub put: Vec<u64>,
    /// NIC atomics.
    pub amo: Vec<u64>,
    /// Parcels, spawn to action start.
    pub parcel: Vec<u64>,
}

/// Per-layer raw data of a traced repetition.
#[derive(Debug, Default)]
pub struct Layers {
    /// Telemetry delta over the repetition (filled in by the harness).
    pub telemetry: Snapshot,
    /// World statistics at quiescence.
    pub world: WorldCounters,
    /// Events executed by the call into `run`.
    pub run_events: u64,
    /// Sharded-engine statistics, when sharded.
    pub shard: Option<netsim::ShardStats>,
    /// Host spans recorded.
    pub spans: Vec<trace::Span>,
}

/// One repetition of a workload: fresh world, setup, run, checks.
#[derive(Debug)]
pub struct Rep {
    /// Ops the workload attempted.
    pub attempted: u64,
    /// Ops that failed or never completed.
    pub failed: u64,
    /// Ops completed.
    pub ops: u64,
    /// Setup timings.
    pub setup: Setup,
    /// Host seconds from the first issue to quiescence.
    pub run_s: f64,
    /// Deterministic fingerprint.
    pub det: Det,
    /// Simulated per-op latencies, when recorded.
    pub latency: Option<Latency>,
    /// Output-check failures; empty when the run is correct.
    pub problems: Vec<String>,
    /// Per-layer data, for traced repetitions.
    pub layers: Option<Layers>,
}
