//! The golden trace pins, replayed on the sharded engine.
//!
//! The sharded engine contracts to reproduce the sequential `(time, seq)`
//! order bit-for-bit at any lane count, so every scenario in `common` must
//! land on the same `GOLDEN_*` constant as in `trace_pin.rs` under 1, 2, 4
//! and 8 lanes with fixed windows. A failure here with a passing
//! `trace_pin.rs` means the sharded engine diverged; a failure in both
//! means the protocol itself moved.

mod common;

use common::{check_pins_over, Lanes};

fn shard_pin(prefix: &str) {
    check_pins_over(prefix, |lanes| matches!(lanes, Lanes::Fixed(_)));
}

#[test]
fn shard_pin_jitter_puts() {
    shard_pin("jitter_puts/");
}

#[test]
fn shard_pin_migration_mix() {
    shard_pin("migration_mix/");
}

#[test]
fn shard_pin_deadline_fault() {
    shard_pin("deadline_fault/");
}

#[test]
fn shard_pin_capacity_pressure() {
    shard_pin("capacity_pressure");
}

#[test]
fn shard_pin_flush_recovery() {
    shard_pin("flush_recovery");
}

#[test]
fn shard_pin_amo_mix() {
    shard_pin("amo_mix/");
}

#[test]
fn shard_pin_member_mix() {
    shard_pin("member_mix/");
}
