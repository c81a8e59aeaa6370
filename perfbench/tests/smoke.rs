//! Smoke tests: every workload at tiny size, untraced and traced.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! `netsim::telemetry` is process-global and every run cross-checks its
//! events delta, so the tests take turns through [`run`].

use perfbench::harness::{Options, Outcome, Scale, Workload};
use perfbench::layers::PER_LAYER;
use perfbench::END_TO_END;
use std::sync::Mutex;

static ENGINES: Mutex<()> = Mutex::new(());

/// Run one benchmark run while no other test runs an engine.
fn run(o: &Options) -> Outcome {
    let _turn = ENGINES.lock().unwrap_or_else(|e| e.into_inner());
    perfbench::run(o)
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        spans_out: None,
    }
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_metric() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(w, trace));
            assert!(out.correct, "{w:?} trace={trace}: {:?}", out.problems);
            assert_eq!(out.failed, 0, "{w:?} trace={trace}");
            assert!(out.attempted > 0);
            let want = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, want.to_vec(), "{w:?} trace={trace}");
            let line = out.result_json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn deterministic_fields_repeat_across_runs_and_tracing() {
    for w in Workload::ALL {
        let timed = run(&tiny(w, false));
        let traced = run(&tiny(w, true));
        let again = run(&tiny(w, false));
        assert_eq!(
            timed.det, traced.det,
            "{w:?}: tracing perturbed the schedule"
        );
        assert_eq!(timed.det, again.det, "{w:?}");
        assert_eq!(timed.sim, traced.sim, "{w:?}");
        assert_eq!(timed.sim, again.sim, "{w:?}");
        for m in timed.metrics.iter().filter(|m| m.name.starts_with("sim_")) {
            assert_eq!(m.value, value(&again, m.name), "{w:?} {}", m.name);
        }
        let other = run(&Options {
            seed: 8,
            ..tiny(w, false)
        });
        assert_ne!(
            timed.det.trace_hash, other.det.trace_hash,
            "{w:?}: seed ignored"
        );
    }
}

#[test]
fn idle_layers_stay_idle() {
    for w in Workload::ALL {
        let out = run(&tiny(w, true));
        let shard: Vec<&str> = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| n.starts_with("netsim.shard."))
            .collect();
        match w {
            Workload::GupsLanes2 => {
                assert!(value(&out, "netsim.shard.windows") > 0.0);
                assert!(value(&out, "netsim.nic.xlate_hits") > 0.0);
                assert_eq!(value(&out, "netsim.nic.xlate_hit_ratio"), 1.0);
                assert_eq!(value(&out, "parcel_rt.parcels_per_op"), 0.0);
            }
            Workload::ChurnMixed => {
                assert!(value(&out, "agas.migrate.migrations") > 0.0);
                assert!(value(&out, "netsim.amo.executed") > 0.0);
                assert!(value(&out, "agas.ops.issue_ns_p50") > 0.0);
            }
            Workload::BfsIsir => {
                assert_eq!(value(&out, "netsim.nic.xlate_hits"), 0.0);
                assert!(value(&out, "photon.eager_sends_per_op") > 0.0);
                assert!(value(&out, "parcel_rt.action_ns_p50") > 0.0);
            }
        }
        if w != Workload::GupsLanes2 {
            for name in &shard {
                assert_eq!(value(&out, name), 0.0, "{w:?}: {name}");
            }
        }
        if w != Workload::ChurnMixed {
            assert_eq!(value(&out, "agas.migrate.migrations"), 0.0, "{w:?}");
        }
    }
}

#[test]
fn traced_run_writes_its_spans() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans-churn.csv");
    let out = run(&Options {
        spans_out: Some(path.clone()),
        ..tiny(Workload::ChurnMixed, true)
    });
    assert!(out.correct, "{:?}", out.problems);
    let csv = std::fs::read_to_string(&path).expect("spans written");
    assert!(csv.starts_with("id,parent,op,name,start_ns,end_ns\n"));
    for name in [
        "setup.boot",
        "netsim.run",
        "bench.issue",
        "bench.complete",
        "agas.call",
    ] {
        assert!(csv.contains(&format!(",{name},")), "no {name} span");
    }
}

/// Every string value of `field` in the flat array of objects listed
/// under `key` in `BENCHMARK.json`.
fn strings_under(json: &str, key: &str, field: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split(&format!("\"{field}\""))
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').unwrap() + 1..];
            s[..s.find('"').unwrap()].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_names_exactly_these_workloads_and_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(strings_under(&json, "workloads", "name"), workloads);
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let names: Vec<String> = list.iter().map(|&(n, _)| n.to_string()).collect();
        let units: Vec<String> = list.iter().map(|&(_, u)| u.to_string()).collect();
        assert_eq!(strings_under(&json, key, "name"), names, "{key}");
        assert_eq!(strings_under(&json, key, "unit"), units, "{key}");
    }
}
