//! The one place the benchmark reads the program's counters.
//!
//! `netsim::telemetry` is process-global, so a delta is only this run's
//! work while one engine runs at a time: the benchmark never runs two
//! workloads, threads of workloads, or sweeps at once, and every
//! repetition cross-checks its telemetry `events` delta against the
//! engine's own `events_executed()`. When telemetry moves to per-run
//! values, [`read`] is the only function to change.

use agas::{GasStats, SimWorld};
use netsim::telemetry::{self, Snapshot};
use netsim::{Counters, OutcomeCounters};
use photon::PhotonStats;

/// Per-world statistics, summed over localities.
#[derive(Clone, Debug, Default)]
pub struct WorldCounters {
    /// NIC and network counters.
    pub net: Counters,
    /// GAS-layer statistics.
    pub gas: GasStats,
    /// Terminal op outcomes.
    pub outcomes: OutcomeCounters,
    /// Photon endpoint statistics.
    pub photon: PhotonStats,
    /// Parcel-runtime statistics (parcel worlds only).
    pub rt: parcel_rt::RtStats,
    /// Busy time of every CPU worker pool, ps.
    pub cpu_busy_ps: u64,
    /// CPU workers across the cluster.
    pub cpu_servers: u64,
}

/// A world the benchmark can read counters from.
pub trait Probe {
    /// This world's statistics.
    fn world_counters(&self) -> WorldCounters;
}

/// Everything the benchmark reads from the program at one instant: the
/// process-global telemetry and, when a world is given, its statistics.
#[derive(Clone, Debug, Default)]
pub struct Reading {
    /// Process-global telemetry totals.
    pub telemetry: Snapshot,
    /// The world's statistics (`None` when read without a world).
    pub world: Option<WorldCounters>,
}

/// Read every counter the benchmark uses.
pub fn read(world: Option<&dyn Probe>) -> Reading {
    Reading {
        telemetry: telemetry::snapshot(),
        world: world.map(Probe::world_counters),
    }
}

fn photon_total<'a>(eps: impl Iterator<Item = &'a photon::PhotonEndpoint>) -> PhotonStats {
    let mut t = PhotonStats::default();
    for ep in eps {
        let s = ep.stats;
        t.eager_sends += s.eager_sends;
        t.rdv_sends += s.rdv_sends;
        t.stalled_sends += s.stalled_sends;
        t.pwc_puts += s.pwc_puts;
        t.pwc_gets += s.pwc_gets;
        t.pwc_amos += s.pwc_amos;
        t.credits_returned += s.credits_returned;
        t.stale_completions += s.stale_completions;
        t.protocol_violations += s.protocol_violations;
        t.amo_batched += s.amo_batched;
    }
    t
}

fn cpu_total<'a>(pools: impl Iterator<Item = &'a netsim::ServerPool>) -> (u64, u64) {
    pools.fold((0, 0), |(busy, n), p| {
        (busy + p.busy_total().ps(), n + p.servers() as u64)
    })
}

impl Probe for SimWorld {
    fn world_counters(&self) -> WorldCounters {
        let d = &*self.data;
        let (cpu_busy_ps, cpu_servers) = cpu_total(d.cpus.iter());
        WorldCounters {
            net: self.total_counters(),
            gas: self.total_gas_stats(),
            outcomes: self.total_outcomes(),
            photon: photon_total(d.eps.iter()),
            rt: parcel_rt::RtStats::default(),
            cpu_busy_ps,
            cpu_servers,
        }
    }
}

impl Probe for parcel_rt::World {
    fn world_counters(&self) -> WorldCounters {
        let (cpu_busy_ps, cpu_servers) = cpu_total(self.cpus.iter());
        WorldCounters {
            net: self.cluster.total_counters(),
            gas: self.total_gas_stats(),
            outcomes: self.total_outcomes(),
            photon: photon_total(self.eps.iter()),
            rt: self.total_rt_stats(),
            cpu_busy_ps,
            cpu_servers,
        }
    }
}
