//! Local control objects (LCOs) — the runtime's synchronization primitives.
//!
//! HPX-5 style: an LCO is a small global object with *trigger* semantics.
//! Setting it (possibly remotely, via an LCO-set parcel) may fire waiting
//! continuations. Three kinds:
//!
//! * **future** — set once with a value; waiters receive the value;
//! * **and-gate** — triggers after `n` sets (values ignored);
//! * **reduce** — accumulates `n` little-endian `u64` contributions with a
//!   [`ReduceOp`]; waiters receive the accumulated value.
//!
//! LCOs occupy the reserved GVA size class [`LCO_CLASS`]; they live at
//! their home locality and never migrate, so routing is pure address
//! arithmetic in every GAS mode.

use crate::parcel::{ActionId, Parcel, ACTION_LCO_SET};
use crate::sched;
use crate::world::{DriverCb, World};
use agas::Gva;
use netsim::{Engine, LocalityId, Time};

/// The GVA size class reserved for LCOs (8-byte blocks, never in the BTT).
pub const LCO_CLASS: u8 = 3;

/// Reduction operators over `u64` contributions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Wrapping sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise xor.
    Xor,
}

impl ReduceOp {
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Xor => a ^ b,
        }
    }

    fn identity(self) -> u64 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Min => u64::MAX,
            ReduceOp::Max => 0,
            ReduceOp::Xor => 0,
        }
    }
}

enum LcoKind {
    Future,
    And {
        remaining: u64,
    },
    Reduce {
        remaining: u64,
        op: ReduceOp,
        acc: u64,
    },
    Gather {
        remaining: u64,
        parts: Vec<(u32, Vec<u8>)>,
    },
}

enum Waiter {
    /// Spawn this parcel with the LCO value appended to `prefix` args.
    Parcel {
        target: Gva,
        action: ActionId,
        prefix: Vec<u8>,
        cont: Option<Gva>,
    },
    /// Invoke a driver callback (benchmark harness / example drivers).
    Driver(DriverCb),
}

/// One LCO's state, stored at its home locality.
pub struct LcoState {
    kind: LcoKind,
    value: Option<Vec<u8>>,
    waiters: Vec<Waiter>,
}

impl LcoState {
    /// Has the LCO triggered?
    pub fn is_set(&self) -> bool {
        self.value.is_some()
    }

    /// The triggered value (empty for and-gates).
    pub fn value(&self) -> Option<&[u8]> {
        self.value.as_deref()
    }
}

fn new_lco(eng: &mut Engine<World>, loc: LocalityId, kind: LcoKind) -> Gva {
    let rt = &mut eng.state.rt[loc as usize];
    let seq = rt.next_lco_seq;
    rt.next_lco_seq += 1;
    let gva = Gva::new(loc, LCO_CLASS, seq, 0);
    rt.lcos.insert(
        gva.0,
        LcoState {
            kind,
            value: None,
            waiters: Vec::new(),
        },
    );
    gva
}

/// Create a future at `loc`.
pub fn new_future(eng: &mut Engine<World>, loc: LocalityId) -> Gva {
    new_lco(eng, loc, LcoKind::Future)
}

/// Create an and-gate at `loc` that triggers after `n` sets.
pub fn new_and(eng: &mut Engine<World>, loc: LocalityId, n: u64) -> Gva {
    assert!(n > 0, "and-gate needs at least one input");
    new_lco(eng, loc, LcoKind::And { remaining: n })
}

/// Create a reduce LCO at `loc` over `n` contributions.
pub fn new_reduce(eng: &mut Engine<World>, loc: LocalityId, n: u64, op: ReduceOp) -> Gva {
    assert!(n > 0, "reduction needs at least one input");
    new_lco(
        eng,
        loc,
        LcoKind::Reduce {
            remaining: n,
            op,
            acc: op.identity(),
        },
    )
}

/// Create a gather LCO at `loc` over `n` rank-prefixed contributions
/// (see [`set_gather`] / [`decode_gather`]).
pub fn new_gather(eng: &mut Engine<World>, loc: LocalityId, n: u64) -> Gva {
    assert!(n > 0, "gather needs at least one input");
    new_lco(
        eng,
        loc,
        LcoKind::Gather {
            remaining: n,
            parts: Vec::new(),
        },
    )
}

/// Contribute `value` from `rank` to a gather LCO.
pub fn set_gather(eng: &mut Engine<World>, from: LocalityId, lco: Gva, rank: u32, value: &[u8]) {
    let mut buf = Vec::with_capacity(value.len() + 4);
    buf.extend_from_slice(&rank.to_le_bytes());
    buf.extend_from_slice(value);
    lco_set(eng, from, lco, buf);
}

/// Decode a fired gather LCO's value into `(rank, bytes)` pairs, ordered
/// by rank.
pub fn decode_gather(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let rank = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
        out.push((rank, bytes[pos + 8..pos + 8 + len].to_vec()));
        pos += 8 + len;
    }
    out
}

/// Set/contribute to `lco` from `from`. Remote sets travel as parcels.
pub fn lco_set(eng: &mut Engine<World>, from: LocalityId, lco: Gva, value: Vec<u8>) {
    debug_assert_eq!(lco.class(), LCO_CLASS, "lco_set on a non-LCO address");
    let home = lco.home();
    if home == from {
        // Local set still pays a small scheduler cost for determinism with
        // the remote path's handler charge.
        let service = eng.state.rtcfg.lco_op;
        let now = eng.now();
        let (_, finish) = eng.state.cpus[from as usize].admit(now, service);
        eng.state.cluster.loc_mut(from).counters.cpu_busy += service;
        eng.schedule_at(finish, move |eng| apply(eng, home, lco, value));
    } else {
        sched::send_parcel(
            eng,
            from,
            Parcel {
                target: lco,
                action: ACTION_LCO_SET,
                args: value,
                cont: None,
                src: from,
                hops: 0,
            },
        );
    }
}

/// Apply a set at the LCO's home (called by the scheduler for LCO parcels).
pub(crate) fn apply(eng: &mut Engine<World>, loc: LocalityId, lco: Gva, value: Vec<u8>) {
    eng.state.rt[loc as usize].stats.lco_ops += 1;
    let state = eng.state.rt[loc as usize]
        .lcos
        .get_mut(&lco.0)
        .unwrap_or_else(|| panic!("set of unknown LCO {lco:?}"));
    let fired: Option<Vec<u8>> = match &mut state.kind {
        LcoKind::Future => {
            assert!(state.value.is_none(), "future {lco:?} set twice");
            Some(value)
        }
        LcoKind::And { remaining } => {
            assert!(*remaining > 0, "and-gate {lco:?} over-set");
            *remaining -= 1;
            (*remaining == 0).then(Vec::new)
        }
        LcoKind::Reduce { remaining, op, acc } => {
            assert!(*remaining > 0, "reduce {lco:?} over-set");
            let contribution = u64::from_le_bytes(
                value
                    .as_slice()
                    .try_into()
                    .expect("reduce contribution must be 8 bytes"),
            );
            *acc = op.apply(*acc, contribution);
            *remaining -= 1;
            (*remaining == 0).then(|| acc.to_le_bytes().to_vec())
        }
        LcoKind::Gather { remaining, parts } => {
            assert!(*remaining > 0, "gather {lco:?} over-set");
            assert!(value.len() >= 4, "gather contribution missing rank prefix");
            let rank = u32::from_le_bytes(value[..4].try_into().unwrap());
            parts.push((rank, value[4..].to_vec()));
            *remaining -= 1;
            (*remaining == 0).then(|| {
                parts.sort_by_key(|&(r, _)| r);
                let mut buf = Vec::new();
                for (r, data) in parts.iter() {
                    buf.extend_from_slice(&r.to_le_bytes());
                    buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
                    buf.extend_from_slice(data);
                }
                buf
            })
        }
    };
    if let Some(v) = fired {
        state.value = Some(v.clone());
        let waiters = std::mem::take(&mut state.waiters);
        fire(eng, loc, waiters, v);
    }
}

fn fire(eng: &mut Engine<World>, loc: LocalityId, waiters: Vec<Waiter>, value: Vec<u8>) {
    for w in waiters {
        match w {
            Waiter::Parcel {
                target,
                action,
                mut prefix,
                cont,
            } => {
                prefix.extend_from_slice(&value);
                sched::send_parcel(
                    eng,
                    loc,
                    Parcel {
                        target,
                        action,
                        args: prefix,
                        cont,
                        src: loc,
                        hops: 0,
                    },
                );
            }
            Waiter::Driver(cb) => run_driver_cb(eng, cb, value.clone()),
        }
    }
}

/// When `lco` triggers, spawn `action` at `target` with `prefix ++ value`
/// as arguments. Must be called at the LCO's home locality (driver code can
/// always do this; actions receive LCO homes explicitly).
pub fn attach_parcel(
    eng: &mut Engine<World>,
    lco: Gva,
    target: Gva,
    action: ActionId,
    prefix: Vec<u8>,
    cont: Option<Gva>,
) {
    let loc = lco.home();
    let state = eng.state.rt[loc as usize]
        .lcos
        .get_mut(&lco.0)
        .unwrap_or_else(|| panic!("attach to unknown LCO {lco:?}"));
    if let Some(v) = state.value.clone() {
        let mut args = prefix;
        args.extend_from_slice(&v);
        sched::send_parcel(
            eng,
            loc,
            Parcel {
                target,
                action,
                args,
                cont,
                src: loc,
                hops: 0,
            },
        );
    } else {
        state.waiters.push(Waiter::Parcel {
            target,
            action,
            prefix,
            cont,
        });
    }
}

/// When `lco` triggers, invoke `cb` with the value (driver-side waiting —
/// how benchmarks and examples observe completion) — on the next event at
/// the current time if the LCO already fired.
pub fn attach_driver(
    eng: &mut Engine<World>,
    lco: Gva,
    cb: impl FnOnce(&mut Engine<World>, Vec<u8>) + 'static,
) {
    let cb: DriverCb = Box::new(cb);
    let state = eng.state.rt[lco.home() as usize]
        .lcos
        .get_mut(&lco.0)
        .unwrap_or_else(|| panic!("wait on unknown LCO {lco:?}"));
    match state.value.clone() {
        Some(v) => run_driver_cb(eng, cb, v),
        None => state.waiters.push(Waiter::Driver(cb)),
    }
}

/// Run a driver callback as a zero-delay scheduled event, never inline, so
/// it observes the world after the firing event finished.
fn run_driver_cb(eng: &mut Engine<World>, cb: DriverCb, value: Vec<u8>) {
    eng.schedule(Time::ZERO, move |eng| cb(eng, value));
}

/// Inspect an LCO's state (driver/diagnostics).
pub fn peek(world: &World, lco: Gva) -> Option<&LcoState> {
    world.rt[lco.home() as usize].lcos.get(&lco.0)
}
