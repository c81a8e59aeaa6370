//! Fault injection: lost completions. The photon endpoint forgets its
//! in-flight wire ops (simulating a dropped completion/NACK), and the
//! per-locality deadline sweep must convert the resulting silence into a
//! deterministic `DeadlineExceeded` failure instead of a hang — under
//! jitter, and while migrations race the victim ops.

mod common;

use agas::ops::memput;
use agas::{alloc_array, Distribution, GasMode, SimEv, SimWorld};
use common::{deadline_fault, events, jittery, Harness, Setup};
use netsim::{Engine, OpId, Time};

/// Run the golden `deadline_fault` scenario (remote puts and gets race
/// migrations on a jittery fabric, and shortly after issue locality 0
/// forgets every wire op it still has in flight) and summarize it.
fn run_scenario(seed: u64) -> (Vec<(Time, u32, SimEv)>, u64) {
    let Harness::Seq(mut eng) = deadline_fault(seed, &Setup::seq()) else {
        unreachable!("Setup::seq runs the sequential engine");
    };
    eng.run();
    let events = events(&eng);
    let failures = events
        .iter()
        .filter(|(_, _, e)| matches!(e, SimEv::OpFailed(_, _)))
        .count() as u64;
    (events, failures)
}

#[test]
fn dropped_completion_fails_deadline_instead_of_hanging() {
    // eng.run() returning at all proves no hang; the sweep must both
    // reclaim the orphaned ops and disarm afterwards.
    let (events, failures) = run_scenario(11);
    assert!(
        failures > 0,
        "dropping in-flight wire ops must surface DeadlineExceeded failures"
    );
    for (_, _, e) in &events {
        if let SimEv::OpFailed(_, msg) = e {
            assert!(
                msg.contains("deadline"),
                "expected a deadline failure, got: {msg}"
            );
        }
    }
    // Ops that were not dropped still complete.
    let completed = events
        .iter()
        .filter(|(_, _, e)| matches!(e, SimEv::PutDone(_) | SimEv::GetDone(_, _)))
        .count();
    assert!(
        completed + failures as usize >= 16,
        "every issued op must reach an outcome: {completed} completed, {failures} failed"
    );
}

#[test]
fn dropped_completion_recovery_is_deterministic() {
    let (a, fa) = run_scenario(23);
    let (b, fb) = run_scenario(23);
    assert_eq!(fa, fb);
    assert_eq!(a, b, "same seed must give an identical outcome timeline");
    // A different seed still terminates with the same accounting structure.
    let (_, fc) = run_scenario(24);
    assert!(fc > 0);
}

#[test]
fn no_deadline_configured_means_no_sweep_events() {
    // With op_deadline = None (the default) the sweep must never arm: the
    // schedule is identical to the seed behaviour, and nothing fails.
    let mut eng = Engine::new(SimWorld::new(2, GasMode::AgasNetwork, jittery()), 5);
    let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
    memput(&mut eng, 0, arr.block(1), vec![3; 32], OpId::from_raw(1));
    eng.run();
    assert!(events(&eng)
        .iter()
        .all(|(_, _, e)| !matches!(e, SimEv::OpFailed(_, _))));
    assert_eq!(eng.state.data.gas[0].outstanding_ops(), 0);
    assert!(!eng.state.data.gas[0].sweep_armed());
}
