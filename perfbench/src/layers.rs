//! Per-layer metrics of a traced repetition. Layer = module name.
//!
//! Counts come from the world's statistics and the telemetry delta read
//! through [`crate::counters::read`]; host times come from the spans the
//! benchmark recorded around its own calls; simulated latencies come from
//! benchmark-side timestamps. Ratios whose base is zero read 0.

use crate::trace;
use crate::{Latency, Rep};

/// Per-layer metrics `(name, unit)`, printed by every traced run.
/// Simulated times carry `sim_` units, host times plain ones.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.engine.events", "count"),
    ("netsim.engine.events_per_op", "events/op"),
    ("netsim.engine.host_ns_per_event", "ns"),
    ("netsim.engine.run_self_ns_per_op", "ns"),
    ("netsim.shard.windows", "count"),
    ("netsim.shard.serial_windows", "count"),
    ("netsim.shard.barrier_wait_share", "ratio"),
    ("netsim.shard.replay_share", "ratio"),
    ("netsim.shard.lane_busy_min", "ratio"),
    ("netsim.shard.lane_event_imbalance", "ratio"),
    ("netsim.shard.speedup_vs_serial", "ratio"),
    ("netsim.nic.xlate_hits", "count"),
    ("netsim.nic.xlate_hit_ratio", "ratio"),
    ("netsim.nic.forwards_per_op", "1/op"),
    ("netsim.nic.nacks_per_op", "1/op"),
    ("netsim.nic.evictions", "count"),
    ("netsim.flatmap.lookups_per_op", "1/op"),
    ("netsim.flatmap.probes_per_lookup", "ratio"),
    ("agas.cache.memo_hits_per_op", "1/op"),
    ("agas.migrate.migrations", "count"),
    ("agas.directory.lookups_per_op", "1/op"),
    ("agas.ops.dir_queries_per_op", "1/op"),
    ("agas.ops.remote_share", "ratio"),
    ("agas.ops.retries_per_op", "1/op"),
    ("agas.ops.sw_fallbacks", "count"),
    ("agas.ops.issue_ns_p50", "ns"),
    ("agas.ops.sim_get_p50_ns", "sim_ns"),
    ("agas.ops.sim_put_p50_ns", "sim_ns"),
    ("agas.ops.sim_amo_p50_ns", "sim_ns"),
    ("agas.ops.sim_get_p99_ns", "sim_ns"),
    ("netsim.amo.executed", "count"),
    ("netsim.amo.nacked", "count"),
    ("netsim.amo.forwarded", "count"),
    ("netsim.net.wire_msgs_per_op", "1/op"),
    ("netsim.net.ctrl_msgs_per_op", "1/op"),
    ("netsim.net.bytes_per_op", "B/op"),
    ("netsim.ring.doorbells_per_op", "1/op"),
    ("netsim.ring.descs_per_doorbell", "ratio"),
    ("netsim.ring.coalesced", "count"),
    ("photon.eager_sends_per_op", "1/op"),
    ("photon.stalled_sends", "count"),
    ("photon.pwc_ops_per_op", "1/op"),
    ("photon.stale_completions", "count"),
    ("parcel_rt.parcels_per_op", "1/op"),
    ("parcel_rt.forwarded", "count"),
    ("parcel_rt.lco_ops", "count"),
    ("parcel_rt.action_ns_p50", "ns"),
    ("parcel_rt.sim_parcel_p50_ns", "sim_ns"),
    ("parcel_rt.cpu_busy_share", "ratio"),
    ("outcome.nacked", "count"),
    ("outcome.retried", "count"),
    ("outcome.deadline_exceeded", "count"),
    ("outcome.protocol_violations", "count"),
    ("outcome.failed_op_ratio", "ratio"),
    ("setup.boot_s", "s"),
    ("setup.alloc_s", "s"),
    ("setup.install_s", "s"),
    ("trace.overhead", "ratio"),
];

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile `p` (0–100) of unsorted `xs`; 0 when empty.
pub fn percentile(xs: &[u64], p: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank 90th percentile of `xs`; 0 when empty.
pub fn upper_decile(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() * 9).div_ceil(10) - 1]
}

fn p50_ns(ps: &[u64]) -> f64 {
    percentile(ps, 50.0) as f64 / 1e3
}

/// Every per-layer metric a single traced repetition determines (all of
/// [`PER_LAYER`] except the run-level `speedup_vs_serial`,
/// `failed_op_ratio` and `trace.overhead`).
pub fn metrics(rep: &Rep) -> Vec<(&'static str, f64)> {
    let l = rep.layers.as_ref().expect("traced repetition");
    let none = Latency::default();
    let lat = rep.latency.as_ref().unwrap_or(&none);
    let t = &l.telemetry;
    let w = &l.world;
    let net = &w.net;
    let ops = rep.ops as f64;
    let per_op = |x: u64| ratio(x as f64, ops);

    let self_ns = trace::self_times(&l.spans);
    let (run_ns, run_self_ns) = l
        .spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "netsim.run")
        .fold((0, 0), |(d, s), (span, own)| (d + span.dur(), s + own));
    let host_p50 = |name| {
        let d: Vec<f64> = trace::durations(&l.spans, name)
            .into_iter()
            .map(|x| x as f64)
            .collect();
        median(&d)
    };

    let shard = l.shard.clone().unwrap_or_default();
    let lane_busy_min = shard
        .utilization()
        .into_iter()
        .reduce(f64::min)
        .unwrap_or(0.0);
    let lane_events_max = shard.lane_events.iter().copied().max().unwrap_or(0) as f64;
    let lane_events_mean = ratio(
        shard.lane_events.iter().sum::<u64>() as f64,
        shard.lane_events.len() as f64,
    );

    let wire = net.msgs_sent
        + net.rdma_puts
        + net.rdma_gets
        + net.rdma_amos
        + net.ctrl_sent
        + net.nacks_sent;
    let ph = &w.photon;
    let gas = &w.gas;
    vec![
        ("netsim.engine.events", rep.det.events as f64),
        ("netsim.engine.events_per_op", per_op(rep.det.events)),
        (
            "netsim.engine.host_ns_per_event",
            ratio(run_ns as f64, l.run_events as f64),
        ),
        ("netsim.engine.run_self_ns_per_op", per_op(run_self_ns)),
        ("netsim.shard.windows", shard.windows as f64),
        ("netsim.shard.serial_windows", shard.serial_windows as f64),
        (
            "netsim.shard.barrier_wait_share",
            ratio(shard.barrier_wait_ns as f64, shard.wall_ns as f64),
        ),
        (
            "netsim.shard.replay_share",
            ratio(shard.replay_ns as f64, shard.wall_ns as f64),
        ),
        ("netsim.shard.lane_busy_min", lane_busy_min),
        (
            "netsim.shard.lane_event_imbalance",
            ratio(lane_events_max, lane_events_mean),
        ),
        ("netsim.nic.xlate_hits", net.xlate_hits as f64),
        (
            "netsim.nic.xlate_hit_ratio",
            ratio(
                net.xlate_hits as f64,
                (net.xlate_hits + net.xlate_misses) as f64,
            ),
        ),
        ("netsim.nic.forwards_per_op", per_op(net.xlate_forwards)),
        ("netsim.nic.nacks_per_op", per_op(net.nacks_sent)),
        ("netsim.nic.evictions", net.xlate_evictions as f64),
        ("netsim.flatmap.lookups_per_op", per_op(t.xlate_lookups)),
        (
            "netsim.flatmap.probes_per_lookup",
            ratio(t.xlate_probes as f64, t.xlate_lookups as f64),
        ),
        ("agas.cache.memo_hits_per_op", per_op(t.memo_hits)),
        ("agas.migrate.migrations", net.migrations_out as f64),
        ("agas.directory.lookups_per_op", per_op(net.dir_lookups)),
        ("agas.ops.dir_queries_per_op", per_op(gas.dir_queries)),
        (
            "agas.ops.remote_share",
            ratio(
                gas.remote_ops as f64,
                (gas.local_ops + gas.remote_ops) as f64,
            ),
        ),
        ("agas.ops.retries_per_op", per_op(gas.retries)),
        ("agas.ops.sw_fallbacks", gas.sw_fallbacks as f64),
        ("agas.ops.issue_ns_p50", host_p50("agas.call")),
        ("agas.ops.sim_get_p50_ns", p50_ns(&lat.get)),
        ("agas.ops.sim_put_p50_ns", p50_ns(&lat.put)),
        ("agas.ops.sim_amo_p50_ns", p50_ns(&lat.amo)),
        (
            "agas.ops.sim_get_p99_ns",
            percentile(&lat.get, 99.0) as f64 / 1e3,
        ),
        ("netsim.amo.executed", net.amo_executed as f64),
        ("netsim.amo.nacked", net.amo_nacked as f64),
        ("netsim.amo.forwarded", net.amo_forwarded as f64),
        ("netsim.net.wire_msgs_per_op", per_op(wire)),
        (
            "netsim.net.ctrl_msgs_per_op",
            per_op(net.ctrl_sent + net.nacks_sent),
        ),
        ("netsim.net.bytes_per_op", per_op(net.bytes_sent)),
        ("netsim.ring.doorbells_per_op", per_op(t.ring_doorbells)),
        (
            "netsim.ring.descs_per_doorbell",
            ratio(t.ring_descs as f64, t.ring_doorbells as f64),
        ),
        ("netsim.ring.coalesced", t.ring_coalesced as f64),
        ("photon.eager_sends_per_op", per_op(ph.eager_sends)),
        ("photon.stalled_sends", ph.stalled_sends as f64),
        (
            "photon.pwc_ops_per_op",
            per_op(ph.pwc_puts + ph.pwc_gets + ph.pwc_amos),
        ),
        ("photon.stale_completions", ph.stale_completions as f64),
        ("parcel_rt.parcels_per_op", per_op(w.rt.parcels_sent)),
        ("parcel_rt.forwarded", w.rt.parcels_forwarded as f64),
        ("parcel_rt.lco_ops", w.rt.lco_ops as f64),
        ("parcel_rt.action_ns_p50", host_p50("bfs.relax")),
        ("parcel_rt.sim_parcel_p50_ns", p50_ns(&lat.parcel)),
        (
            "parcel_rt.cpu_busy_share",
            ratio(
                w.cpu_busy_ps as f64,
                w.cpu_servers as f64 * rep.det.makespan_ps as f64,
            ),
        ),
        ("outcome.nacked", w.outcomes.nacked as f64),
        ("outcome.retried", w.outcomes.retried as f64),
        (
            "outcome.deadline_exceeded",
            w.outcomes.deadline_exceeded as f64,
        ),
        (
            "outcome.protocol_violations",
            w.outcomes.protocol_violations as f64,
        ),
        ("setup.boot_s", rep.setup.boot_s),
        ("setup.alloc_s", rep.setup.alloc_s),
        ("setup.install_s", rep.setup.install_s),
    ]
}
