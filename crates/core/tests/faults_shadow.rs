//! Shadow-model check for the fault plane: a **lossless** `FaultPlan` must
//! be observationally invisible.
//!
//! The fault plane owns a private RNG stream and takes a draw-free early
//! exit for lossless plans, so installing one must not move a single event:
//! the `(trace_hash, now)` pair of every scenario — and every golden pin in
//! `common` — has to stay bit-for-bit identical whether the plane is absent
//! or present-but-lossless. This is the guard that keeps fault-injection
//! hooks out of the simulator's timing model.

mod common;

use agas::GasMode;
use common::{check_pins, jitter_puts, migration_mix, Lanes, Setup};
use netsim::FaultPlan;
use proptest::prelude::*;

/// A sequential run with `plan` installed before any traffic flows.
fn with_plan(plan: Option<FaultPlan>) -> Setup {
    Setup {
        lanes: Lanes::Seq,
        faults: plan,
    }
}

#[test]
fn lossless_plane_reproduces_the_golden_pins() {
    check_pins("", &with_plan(Some(FaultPlan::lossless(0xDEAD_BEEF))));
}

#[test]
fn lossless_plane_is_invisible_regardless_of_its_seed() {
    // The plane's RNG is private: different plan seeds must yield identical
    // traces when the plan is lossless.
    let run = |plan| migration_mix(GasMode::AgasNetwork, &with_plan(plan)).finish();
    let a = run(Some(FaultPlan::lossless(1)));
    let b = run(Some(FaultPlan::lossless(2)));
    let none = run(None);
    assert_eq!(a, none);
    assert_eq!(b, none);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shadow model: for random engine seeds and modes, the run with a
    /// lossless plane installed is byte-identical to the run without one.
    #[test]
    fn lossless_plane_never_moves_a_trace(
        seed in 0u64..300,
        plan_seed in 0u64..300,
        mode_ix in 0usize..3,
    ) {
        let mode = GasMode::ALL[mode_ix];
        let bare = jitter_puts(mode, seed, &with_plan(None)).finish();
        let shadowed = jitter_puts(mode, seed, &with_plan(Some(FaultPlan::lossless(plan_seed)))).finish();
        prop_assert_eq!(bare, shadowed, "{:?} seed={}", mode, seed);
    }
}
