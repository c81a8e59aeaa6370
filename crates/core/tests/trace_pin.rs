//! Golden trace-hash pins on the sequential engine.
//!
//! Every scenario in `common` must land on its one `GOLDEN_*` constant.
//! `shard_pin.rs` replays the same scenarios under fixed shard lanes and
//! `shard_rt.rs` under adaptive windows, against the same constants. A
//! failure here means the protocol itself moved; a failure only in the
//! sharded suites means the sharded engine diverged from sequential
//! execution.

mod common;

use common::{check_pins, Setup};

fn pin(prefix: &str) {
    check_pins(prefix, &Setup::seq());
}

#[test]
fn pin_jitter_puts() {
    pin("jitter_puts/");
}

#[test]
fn pin_migration_mix() {
    pin("migration_mix/");
}

#[test]
fn pin_deadline_fault() {
    pin("deadline_fault/");
}

#[test]
fn pin_capacity_pressure() {
    pin("capacity_pressure");
}

#[test]
fn pin_flush_recovery() {
    pin("flush_recovery");
}

#[test]
fn pin_amo_mix() {
    pin("amo_mix/");
}

#[test]
fn pin_member_mix() {
    pin("member_mix/");
}
