//! Descriptor rings: the one issue path into the fabric.
//!
//! Real NICs do not take one doorbell per operation. The initiator posts
//! descriptors into a bounded submission ring and rings the doorbell once
//! per *batch*; the NIC likewise coalesces completions and raises one
//! moderated interrupt for many finished descriptors. This module models
//! that shape once, and every layer issues through it: photon's PWC puts,
//! gets, AMOs and completions, `parcel-rt`'s parcels, and the GAS layer's
//! migration control traffic. There is no second, ring-less path.
//!
//! * [`Ring`] — one bounded per-peer ring: descriptors accumulate until a
//!   batch-size, byte-budget, or occupancy limit forces a flush, or until
//!   a caller-scheduled doorbell/moderation timer fires. Timers are
//!   invalidated by *epoch*: every [`Ring::drain`] bumps the epoch, so a
//!   timer armed against a ring that has since flushed finds a stale epoch
//!   and does nothing — exactly the arm-once/flush-cancels semantics a
//!   real moderation timer has, without any event cancellation machinery.
//! * [`RingSet`] — the per-(locality, peer) collection, deterministic
//!   iteration order, with pooled occupancy/doorbell/coalesce statistics
//!   and stuck-descriptor snapshots for quiescence reports.
//!
//! Every post answers with one [`Post`]: issue a [`Batch`] now, arm the
//! timer, or do nothing. A post to an empty ring that would flush on its
//! own (an effective batch of 1 — every layer's default) passes straight
//! through: the descriptor comes back as a one-element batch inside the
//! posting event and counts as a doorbell, with no queueing, no per-peer
//! ring and no allocation. That is the per-op schedule, so the default
//! configuration reproduces it exactly.
//!
//! The ring layer is pure bookkeeping: it never touches the engine. Callers
//! schedule the doorbell/moderation events on their own lane and drain
//! when they fire, which keeps the sharded engine's lane-aliasing contract
//! intact. Ring counters fold into the process [`telemetry`] when the
//! ring drops, so the per-op path touches no atomics.

use crate::adaptive::{AdaptiveRing, RingController, RingDecision};
use crate::nic::LocalityId;
use crate::telemetry;
use crate::time::Time;
use std::collections::{BTreeMap, VecDeque};

/// Configuration of the descriptor-ring issue path.
///
/// Every embedding layer (photon, parcel-rt, the GAS control path) owns a
/// plain `RingConfig`; each defaults to [`RingConfig::unbatched`], the
/// per-op schedule. Batching is opt-in through `doorbell_batch` or
/// `adaptive`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingConfig {
    /// Bounded ring occupancy, in descriptors. A push that fills the ring
    /// forces a flush regardless of the batch threshold.
    pub depth: usize,
    /// Descriptor count that rings the doorbell (submission batch size).
    /// `1` issues every descriptor inside the event that posts it.
    pub doorbell_batch: usize,
    /// Longest a partially filled submission ring waits before ringing its
    /// doorbell anyway.
    pub doorbell_delay: Time,
    /// Completion-coalescing moderation window: completions buffer at most
    /// this long before the coalesced interrupt fires.
    pub moderation: Time,
    /// Byte budget per batch: a push that brings buffered payload bytes to
    /// or above this flushes, bounding added latency for bulk traffic.
    pub max_bytes: u32,
    /// Occupancy-driven AIMD adjustment of the effective doorbell batch
    /// (see [`RingController`]). `None` (the default) pins the batch at
    /// `doorbell_batch`.
    pub adaptive: Option<AdaptiveRing>,
}

impl Default for RingConfig {
    fn default() -> RingConfig {
        RingConfig {
            depth: 256,
            doorbell_batch: 16,
            doorbell_delay: Time::from_us(5),
            moderation: Time::from_us(1),
            max_bytes: 8192,
            adaptive: None,
        }
    }
}

impl RingConfig {
    /// A batch-of-one ring: every post passes straight through, one
    /// doorbell per descriptor — the per-op schedule and every embedding
    /// layer's default.
    pub fn unbatched() -> RingConfig {
        RingConfig {
            doorbell_batch: 1,
            ..RingConfig::default()
        }
    }

    /// Does a ring holding `occ` descriptors and `bytes` payload bytes hit
    /// a flush condition under effective batch `batch`?
    fn flushes(&self, batch: usize, occ: usize, bytes: u64) -> bool {
        occ >= batch || bytes >= u64::from(self.max_bytes) || occ >= self.depth.max(1)
    }

    /// Does every post pass straight through? True for a static ring that
    /// flushes on any single descriptor, such as a batch of one.
    fn passes_everything(&self) -> bool {
        self.adaptive.is_none() && self.flushes(self.doorbell_batch, 1, 0)
    }
}

/// One posted descriptor: the payload plus the accounting the ring keeps.
#[derive(Clone, Debug)]
pub struct Desc<T> {
    /// The operation being carried (a request struct, a parcel, …).
    pub item: T,
    /// Wire-relevant payload size, for the byte budget.
    pub bytes: u32,
    /// Human-readable descriptor kind, for stuck-descriptor reports.
    pub kind: &'static str,
    /// When the descriptor was posted (for age reporting).
    pub enqueued: Time,
}

/// Descriptors issued under one doorbell, in post order.
#[derive(Debug)]
pub enum Batch<T> {
    /// A descriptor that passed straight through an empty ring.
    One(Desc<T>),
    /// A drained ring.
    Many(Vec<Desc<T>>),
}

impl<T> Batch<T> {
    /// Descriptors in the batch.
    pub fn len(&self) -> usize {
        match self {
            Batch::One(_) => 1,
            Batch::Many(v) => v.len(),
        }
    }

    /// Is the batch empty (a drain of an empty ring)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the descriptors in post order.
    pub fn iter(&self) -> std::slice::Iter<'_, Desc<T>> {
        match self {
            Batch::One(d) => std::slice::from_ref(d).iter(),
            Batch::Many(v) => v.iter(),
        }
    }
}

impl<T> IntoIterator for Batch<T> {
    type Item = Desc<T>;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Desc<T>>, std::vec::IntoIter<Desc<T>>>;

    fn into_iter(self) -> Self::IntoIter {
        match self {
            Batch::One(d) => Some(d).into_iter().chain(Vec::new()),
            Batch::Many(v) => None.into_iter().chain(v),
        }
    }
}

/// What a post asks its caller to do.
#[derive(Debug)]
pub enum Post<T> {
    /// A flush condition hit: ring the doorbell now and issue the batch,
    /// in post order, inside the posting event.
    Issue(Batch<T>),
    /// First descriptor of a fresh batch: schedule the doorbell/moderation
    /// timer against this epoch. A later drain invalidates it.
    Armed(u64),
    /// Buffered behind an already-armed timer; nothing to do.
    Buffered,
}

/// Per-ring counters (doorbells, descriptors, coalescing win, high water).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Doorbell events rung (one per non-empty drain or pass-through).
    pub doorbells: u64,
    /// Descriptors that passed through the ring.
    pub descs: u64,
    /// Descriptors that shared a doorbell with an earlier one — the saved
    /// per-op events (`descs - doorbells`).
    pub coalesced: u64,
    /// Highest occupancy ever observed.
    pub max_occupancy: usize,
}

impl RingStats {
    /// Pool `other` into these counters.
    pub fn absorb(&mut self, other: &RingStats) {
        self.doorbells += other.doorbells;
        self.descs += other.descs;
        self.coalesced += other.coalesced;
        self.max_occupancy = self.max_occupancy.max(other.max_occupancy);
    }
}

/// Ring counters, folded into the process telemetry when the ring drops
/// (so the per-op path touches no atomics).
#[derive(Debug, Default)]
struct Tally(RingStats);

impl Tally {
    /// Count one doorbell that issued `n >= 1` descriptors.
    fn doorbell(&mut self, n: usize) {
        let n = n as u64;
        self.0.doorbells += 1;
        self.0.descs += n;
        self.0.coalesced += n - 1;
    }

    /// Count one descriptor that passed straight through.
    fn pass(&mut self) {
        self.0.max_occupancy = self.0.max_occupancy.max(1);
        self.doorbell(1);
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        telemetry::record_ring(self.0.doorbells, self.0.descs, self.0.coalesced);
    }
}

/// A stuck-descriptor report line (quiescence diagnostics).
#[derive(Clone, Copy, Debug)]
pub struct DescSnapshot {
    /// The peer the ring points at.
    pub peer: LocalityId,
    /// Descriptor kind (`"put"`, `"amo"`, `"parcel"`, …).
    pub kind: &'static str,
    /// Payload bytes.
    pub bytes: u32,
    /// How long the descriptor has been waiting.
    pub age: Time,
}

impl DescSnapshot {
    /// Render for a quiescence-failure message.
    pub fn render(&self) -> String {
        format!(
            "{} desc peer={} bytes={} age={}",
            self.kind, self.peer, self.bytes, self.age
        )
    }
}

/// One bounded submission/completion ring toward a single peer.
///
/// Waiting descriptors sit in a FIFO that never holds more than `depth`
/// (a post that fills the ring flushes it). The FIFO allocates on the
/// first descriptor that actually waits, so a ring that only ever passes
/// descriptors through costs no storage.
#[derive(Debug)]
pub struct Ring<T> {
    cfg: RingConfig,
    queue: VecDeque<Desc<T>>,
    /// Buffered payload bytes.
    bytes: u64,
    /// Bumped on every drain; stale timers compare epochs and stand down.
    epoch: u64,
    /// The AIMD doorbell controller, when [`RingConfig::adaptive`] is set.
    ctrl: Option<RingController>,
    tally: Tally,
    /// Every post passes straight through ([`RingConfig`] is unbatched).
    direct: bool,
}

impl<T> Ring<T> {
    /// An empty ring.
    pub fn new(cfg: RingConfig) -> Ring<T> {
        Ring {
            ctrl: cfg
                .adaptive
                .map(|a| RingController::new(a, cfg.doorbell_batch as u32)),
            cfg,
            queue: VecDeque::new(),
            bytes: 0,
            epoch: 0,
            tally: Tally::default(),
            direct: cfg.passes_everything(),
        }
    }

    /// Buffered descriptor count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Buffered payload bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RingStats {
        self.tally.0
    }

    /// The flush threshold currently in force: the AIMD controller's
    /// effective batch when adaptive, the configured static batch
    /// otherwise.
    pub fn eff_batch(&self) -> usize {
        self.ctrl
            .as_ref()
            .map_or(self.cfg.doorbell_batch, |c| c.eff_batch() as usize)
    }

    /// The doorbell-timer delay currently in force. The adaptive
    /// controller scales the configured delay with its effective batch
    /// (a small batch should also flush sooner), never above the
    /// configured `doorbell_delay`.
    pub fn effective_delay(&self) -> Time {
        match &self.ctrl {
            Some(c) => {
                let base = self.cfg.doorbell_batch.max(1) as u64;
                let scaled = self.cfg.doorbell_delay.ps() * u64::from(c.eff_batch()) / base;
                Time::from_ps(scaled.min(self.cfg.doorbell_delay.ps())).max(Time::from_ps(1))
            }
            None => self.cfg.doorbell_delay,
        }
    }

    /// Post one descriptor. Returns what the caller must do: issue a
    /// batch now, arm the timer for the returned epoch, or nothing. A
    /// descriptor that would flush an empty ring on its own passes straight
    /// through; one posted behind waiting descriptors always queues behind
    /// them (FIFO is never bypassed).
    #[inline]
    pub fn post(&mut self, desc: Desc<T>) -> Post<T> {
        if self.direct {
            self.tally.pass();
            return Post::Issue(Batch::One(desc));
        }
        self.post_batched(desc)
    }

    #[inline(never)]
    fn post_batched(&mut self, desc: Desc<T>) -> Post<T> {
        if self.is_empty() && self.cfg.flushes(self.eff_batch(), 1, u64::from(desc.bytes)) {
            self.tally.0.max_occupancy = self.tally.0.max_occupancy.max(1);
            self.account(1, self.eff_batch());
            return Post::Issue(Batch::One(desc));
        }
        let was_empty = self.is_empty();
        self.bytes += u64::from(desc.bytes);
        self.queue.push_back(desc);
        let occ = self.len();
        let stats = &mut self.tally.0;
        stats.max_occupancy = stats.max_occupancy.max(occ);
        if self.cfg.flushes(self.eff_batch(), occ, self.bytes) {
            Post::Issue(self.drain())
        } else if was_empty {
            Post::Armed(self.epoch)
        } else {
            Post::Buffered
        }
    }

    /// Does a timer armed against `epoch` still have work? True exactly
    /// when no drain has happened since the arm and descriptors remain.
    pub fn timer_due(&self, epoch: u64) -> bool {
        self.epoch == epoch && !self.is_empty()
    }

    /// Ring the doorbell: take every buffered descriptor, in post order,
    /// and invalidate any armed timer.
    pub fn drain(&mut self) -> Batch<T> {
        let n = self.len();
        let eff = self.eff_batch();
        let out: Vec<Desc<T>> = self.queue.drain(..).collect();
        self.bytes = 0;
        self.epoch += 1;
        if n > 0 {
            self.account(n, eff);
        }
        Batch::Many(out)
    }

    /// Count a doorbell of `n` descriptors drained under effective batch
    /// `eff`, and feed the AIMD controller.
    fn account(&mut self, n: usize, eff: usize) {
        self.tally.doorbell(n);
        if let Some(c) = self.ctrl.as_mut() {
            // Infer the flush cause from occupancy: a drain at or past
            // the effective batch was producer-forced (raise); anything
            // shorter was a timer/byte-budget flush (candidate lower).
            // Occupancy at drain time is a pure function of the
            // simulated schedule, so the AIMD walk is deterministic.
            match c.on_flush(n as u32, n < eff) {
                RingDecision::Raised => telemetry::record_doorbell_adapt(1, 0),
                RingDecision::Lowered => telemetry::record_doorbell_adapt(0, 1),
                RingDecision::Held => {}
            }
        }
    }

    /// Snapshot every waiting descriptor (post order) for stuck reports.
    pub fn snapshots(&self, peer: LocalityId, now: Time) -> Vec<DescSnapshot> {
        self.queue
            .iter()
            .map(|d| DescSnapshot {
                peer,
                kind: d.kind,
                bytes: d.bytes,
                age: now - d.enqueued,
            })
            .collect()
    }
}

/// The per-peer ring collection one locality owns.
///
/// Rings materialize lazily per peer, on the first post that must wait (or
/// any post when adaptive, whose controller is per-peer state), and
/// iterate in peer order, so every walk (drain-all, snapshots, stats) is
/// deterministic. Posts that pass straight through an unbatched set never
/// create a per-peer ring.
#[derive(Debug)]
pub struct RingSet<T> {
    cfg: RingConfig,
    rings: BTreeMap<LocalityId, Ring<T>>,
    /// Every post passes straight through ([`RingConfig`] is unbatched),
    /// so no per-peer ring ever materializes.
    direct: bool,
    /// Doorbells of descriptors that passed through without a ring.
    passed: Tally,
}

impl<T> RingSet<T> {
    /// An empty set; rings appear on first use.
    pub fn new(cfg: RingConfig) -> RingSet<T> {
        RingSet {
            cfg,
            rings: BTreeMap::new(),
            direct: cfg.passes_everything(),
            passed: Tally::default(),
        }
    }

    /// Post a descriptor toward `peer` (see [`Ring::post`]).
    #[inline]
    pub fn post(&mut self, peer: LocalityId, desc: Desc<T>) -> Post<T> {
        if self.direct {
            self.passed.pass();
            return Post::Issue(Batch::One(desc));
        }
        self.post_to_ring(peer, desc)
    }

    #[inline(never)]
    fn post_to_ring(&mut self, peer: LocalityId, desc: Desc<T>) -> Post<T> {
        let cfg = self.cfg;
        self.rings
            .entry(peer)
            .or_insert_with(|| Ring::new(cfg))
            .post(desc)
    }

    /// Drain the ring toward `peer` (an empty batch if none exists).
    pub fn drain(&mut self, peer: LocalityId) -> Batch<T> {
        match self.rings.get_mut(&peer) {
            Some(r) => r.drain(),
            None => Batch::Many(Vec::new()),
        }
    }

    /// Is a timer armed against (`peer`, `epoch`) still live?
    pub fn timer_due(&self, peer: LocalityId, epoch: u64) -> bool {
        self.rings.get(&peer).is_some_and(|r| r.timer_due(epoch))
    }

    /// Total buffered descriptors across all peers.
    pub fn occupancy(&self) -> usize {
        self.rings.values().map(Ring::len).sum()
    }

    /// Every waiting descriptor across all peers, peer-then-post order.
    pub fn snapshots(&self, now: Time) -> Vec<DescSnapshot> {
        let mut out = Vec::new();
        for (&peer, ring) in &self.rings {
            out.extend(ring.snapshots(peer, now));
        }
        out
    }

    /// Counters pooled over every ring in the set and every pass-through.
    pub fn stats(&self) -> RingStats {
        let mut total = self.passed.0;
        for ring in self.rings.values() {
            total.absorb(&ring.stats());
        }
        total
    }

    /// The doorbell-timer delay in force toward `peer` (the configured
    /// static delay until the ring materializes).
    pub fn effective_delay(&self, peer: LocalityId) -> Time {
        self.rings
            .get(&peer)
            .map_or(self.cfg.doorbell_delay, Ring::effective_delay)
    }

    /// Per-peer effective doorbell batch, in peer order — the controller
    /// state a quiescence report renders. Empty when adaptive is off.
    pub fn eff_batches(&self) -> Vec<(LocalityId, usize)> {
        self.rings
            .iter()
            .filter(|(_, r)| r.ctrl.is_some())
            .map(|(&p, r)| (p, r.eff_batch()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(depth: usize, batch: usize, max_bytes: u32) -> RingConfig {
        RingConfig {
            depth,
            doorbell_batch: batch,
            max_bytes,
            ..RingConfig::default()
        }
    }

    fn desc(tag: u32, bytes: u32) -> Desc<u32> {
        Desc {
            item: tag,
            bytes,
            kind: "test",
            enqueued: Time::ZERO,
        }
    }

    fn items(batch: Batch<u32>) -> Vec<u32> {
        batch.into_iter().map(|d| d.item).collect()
    }

    /// The issued batch, or a panic naming what the post did instead.
    fn issued(post: Post<u32>) -> Vec<u32> {
        match post {
            Post::Issue(batch) => items(batch),
            other => panic!("expected Issue, got {other:?}"),
        }
    }

    #[test]
    fn batch_threshold_flushes() {
        let mut r: Ring<u32> = Ring::new(cfg(8, 3, u32::MAX));
        assert!(matches!(r.post(desc(0, 1)), Post::Armed(0)));
        assert!(matches!(r.post(desc(1, 1)), Post::Buffered));
        assert_eq!(issued(r.post(desc(2, 1))), vec![0, 1, 2]);
        assert!(r.is_empty());
    }

    #[test]
    fn byte_budget_flushes() {
        let mut r: Ring<u32> = Ring::new(cfg(8, 100, 64));
        assert!(matches!(r.post(desc(0, 32)), Post::Armed(0)));
        assert_eq!(issued(r.post(desc(1, 32))), vec![0, 1]);
    }

    #[test]
    fn full_ring_flushes_even_below_batch() {
        let mut r: Ring<u32> = Ring::new(cfg(2, 100, u32::MAX));
        assert!(matches!(r.post(desc(0, 1)), Post::Armed(0)));
        assert_eq!(issued(r.post(desc(1, 1))), vec![0, 1]);
    }

    #[test]
    fn drain_invalidates_timer_epoch() {
        let mut r: Ring<u32> = Ring::new(cfg(8, 3, u32::MAX));
        let Post::Armed(epoch) = r.post(desc(0, 1)) else {
            panic!("expected Armed");
        };
        assert!(r.timer_due(epoch));
        r.post(desc(1, 1));
        issued(r.post(desc(2, 1))); // Flush threshold.
        assert!(!r.timer_due(epoch), "flushed batch must cancel its timer");
        // The next batch arms a *new* epoch.
        let Post::Armed(e2) = r.post(desc(3, 1)) else {
            panic!("expected Armed");
        };
        assert_ne!(e2, epoch);
        assert!(r.timer_due(e2));
    }

    #[test]
    fn wraparound_preserves_fifo_order() {
        let mut r: Ring<u32> = Ring::new(cfg(4, 3, u32::MAX));
        let mut next = 0u32;
        for _ in 0..100 {
            r.post(desc(next, 1));
            r.post(desc(next + 1, 1));
            assert_eq!(
                issued(r.post(desc(next + 2, 1))),
                vec![next, next + 1, next + 2]
            );
            next += 3;
        }
        assert_eq!(r.stats().doorbells, 100);
        assert_eq!(r.stats().descs, 300);
        assert_eq!(r.stats().coalesced, 200);
        assert_eq!(r.stats().max_occupancy, 3);
    }

    #[test]
    fn snapshots_report_age_and_kind() {
        let mut r: Ring<u32> = Ring::new(cfg(8, 100, u32::MAX));
        r.post(Desc {
            item: 7,
            bytes: 48,
            kind: "parcel",
            enqueued: Time::from_ns(100),
        });
        let snaps = r.snapshots(3, Time::from_ns(350));
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].kind, "parcel");
        assert_eq!(snaps[0].bytes, 48);
        assert_eq!(snaps[0].age, Time::from_ns(250));
        assert!(snaps[0].render().contains("peer=3"));
    }

    #[test]
    fn ringset_is_per_peer_and_deterministic() {
        let mut set: RingSet<u32> = RingSet::new(cfg(8, 100, u32::MAX));
        set.post(5, desc(50, 1));
        set.post(2, desc(20, 1));
        set.post(5, desc(51, 1));
        assert_eq!(set.occupancy(), 3);
        let snaps = set.snapshots(Time::ZERO);
        assert_eq!(
            snaps.iter().map(|s| s.peer).collect::<Vec<_>>(),
            vec![2, 5, 5]
        );
        assert_eq!(items(set.drain(5)), vec![50, 51]);
        assert_eq!(set.occupancy(), 1);
        set.drain(2);
        assert_eq!(set.occupancy(), 0);
        assert_eq!(set.stats().doorbells, 2);
        assert_eq!(set.stats().descs, 3);
    }

    #[test]
    fn unbatched_set_passes_every_post_straight_through() {
        // N descriptors to M peers: each comes straight back, in post
        // order, as its own doorbell — with no per-peer ring behind it.
        const N: u32 = 1000;
        const M: u32 = 7;
        let mut set: RingSet<u32> = RingSet::new(RingConfig::unbatched());
        let mut out = Vec::new();
        for i in 0..N {
            match set.post(i % M, desc(i, 8)) {
                Post::Issue(Batch::One(d)) => out.push(d.item),
                other => panic!("post {i} did not pass through: {other:?}"),
            }
        }
        assert_eq!(out, (0..N).collect::<Vec<_>>());
        assert!(set.rings.is_empty(), "a pass-through materialized a ring");
        assert_eq!(set.occupancy(), 0);
        let s = set.stats();
        assert_eq!((s.doorbells, s.descs, s.coalesced), (N as u64, N as u64, 0));
        assert_eq!(s.max_occupancy, 1);
    }

    #[test]
    fn waiting_descriptors_are_never_bypassed() {
        // A batched ring holding descriptors: even a post that would
        // flush an empty ring on its own (the byte budget) queues behind
        // them and leaves in FIFO order.
        let mut set: RingSet<u32> = RingSet::new(cfg(8, 4, 64));
        assert_eq!(issued(set.post(1, desc(0, 64))), vec![0], "lone big desc");
        assert!(matches!(set.post(1, desc(1, 8)), Post::Armed(_)));
        assert_eq!(issued(set.post(1, desc(2, 64))), vec![1, 2]);

        // An adaptive set at effective batch 1 passes through too, but
        // through a per-peer ring whose controller sees the flush: the
        // full flush raises the batch, so the next post parks.
        let acfg = AdaptiveRing {
            floor: 1,
            ceil: 8,
            add: 1,
            ewma_shift: 2,
        };
        let mut set: RingSet<u32> = RingSet::new(RingConfig {
            doorbell_batch: 1,
            adaptive: Some(acfg),
            ..RingConfig::default()
        });
        assert_eq!(issued(set.post(3, desc(10, 1))), vec![10]);
        assert_eq!(set.eff_batches(), vec![(3, 2)]);
        assert!(matches!(set.post(3, desc(11, 1)), Post::Armed(_)));
        assert_eq!(issued(set.post(3, desc(12, 1))), vec![11, 12]);
    }

    #[test]
    fn empty_drain_rings_no_doorbell() {
        let mut r: Ring<u32> = Ring::new(cfg(4, 2, u32::MAX));
        let before = r.epoch;
        assert!(r.drain().is_empty());
        assert_eq!(r.stats().doorbells, 0);
        // Even an empty drain bumps the epoch so a stray timer stands down.
        assert_eq!(r.epoch, before + 1);
    }

    #[test]
    fn defaults_mirror_the_old_coalescer() {
        let c = RingConfig::default();
        assert_eq!(c.doorbell_batch, 16);
        assert_eq!(c.max_bytes, 8192);
        assert_eq!(c.doorbell_delay, Time::from_us(5));
        assert!(c.depth >= c.doorbell_batch);
        assert_eq!(c.adaptive, None, "adaptive must default off");
        assert_eq!(RingConfig::unbatched().doorbell_batch, 1);
    }

    #[test]
    fn adaptive_ring_walks_its_batch_with_load() {
        let acfg = AdaptiveRing {
            floor: 2,
            ceil: 32,
            add: 4,
            ewma_shift: 2,
        };
        let mut r: Ring<u32> = Ring::new(RingConfig {
            doorbell_batch: 8,
            adaptive: Some(acfg),
            ..RingConfig::default()
        });
        assert_eq!(r.eff_batch(), 8);
        // Sustained full batches raise the threshold toward the ceiling…
        for round in 0..20u32 {
            let mut flushed = false;
            for i in 0..r.eff_batch() as u32 {
                flushed = matches!(r.post(desc(round * 100 + i, 1)), Post::Issue(_));
            }
            assert!(flushed, "filling the effective batch must flush");
        }
        assert_eq!(r.eff_batch(), 32);
        assert!(r.effective_delay() >= RingConfig::default().doorbell_delay);
        // …and trickle flushes (timer path: drain below the batch) walk it
        // back down to the floor, shrinking the timer delay with it.
        for i in 0..40u32 {
            r.post(desc(1000 + i, 1));
            r.drain();
        }
        assert_eq!(r.eff_batch(), 2);
        assert!(r.effective_delay() < RingConfig::default().doorbell_delay);
        assert!(r.ctrl.is_some());
    }

    #[test]
    fn static_ring_ignores_controller_paths() {
        let mut r: Ring<u32> = Ring::new(cfg(8, 3, u32::MAX));
        assert_eq!(r.eff_batch(), 3);
        assert_eq!(r.effective_delay(), r.cfg.doorbell_delay);
        assert!(r.ctrl.is_none());
        r.post(desc(0, 1));
        r.drain();
        assert_eq!(r.eff_batch(), 3, "static batch never moves");
    }
}
