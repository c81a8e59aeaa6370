//! Lane-count independence of the sharded parcel runtime.
//!
//! Every workload in [`parcel_rt::workloads`] must produce the same
//! answer *and* the same folded `(time, seq)` schedule on the sequential
//! engine and on the sharded engine at 1/2/4/8 lanes — with adaptive
//! lookahead windows off and on, with and without parcel submission
//! rings, in both AGAS modes. The trace hash folds every executed event,
//! so equality here is a complete witness that sharded execution (and the
//! adaptive controller's widened/serial windows) replayed the sequential
//! schedule bit-for-bit.

use agas::GasMode;
use netsim::{AdaptiveWindow, NetConfig, RingConfig, Time};
use parcel_rt::workloads::{bfs_tree, ping_pong, spray_reduce, WorkloadResult, WorkloadSpec};

const LANES: [Option<usize>; 5] = [None, Some(1), Some(2), Some(4), Some(8)];

fn jittery() -> NetConfig {
    NetConfig {
        jitter_ns: 400,
        ..NetConfig::ideal()
    }
}

/// Run `f` across the lane grid (optionally with adaptive windows) and
/// assert every run reproduces the sequential result exactly.
fn grid(
    name: &str,
    adaptive: bool,
    f: impl Fn(&WorkloadSpec) -> WorkloadResult,
    base: WorkloadSpec,
) {
    let mut reference: Option<WorkloadResult> = None;
    for lanes in LANES {
        let spec = WorkloadSpec {
            lanes,
            adaptive: (adaptive && lanes.is_some()).then(AdaptiveWindow::default),
            ..base
        };
        let got = f(&spec);
        assert!(
            got.correct(),
            "{name} (lanes={lanes:?}, adaptive={adaptive}): value {} != expected {}",
            got.value,
            got.expected
        );
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(
                &got, want,
                "{name} (lanes={lanes:?}, adaptive={adaptive}): diverged from sequential run"
            ),
        }
    }
}

#[test]
fn ping_pong_is_lane_independent() {
    for mode in [GasMode::AgasNetwork, GasMode::AgasSoftware] {
        let spec = WorkloadSpec {
            net: jittery(),
            ..WorkloadSpec::new(4, mode)
        };
        grid("ping_pong", false, |s| ping_pong(s, 40), spec);
        grid("ping_pong", true, |s| ping_pong(s, 40), spec);
    }
}

#[test]
fn spray_reduce_is_lane_independent() {
    for mode in [GasMode::AgasNetwork, GasMode::AgasSoftware] {
        let spec = WorkloadSpec {
            net: jittery(),
            ..WorkloadSpec::new(8, mode)
        };
        grid("spray_reduce", false, spray_reduce, spec);
        grid("spray_reduce", true, spray_reduce, spec);
    }
}

#[test]
fn bfs_tree_is_lane_independent() {
    for mode in [GasMode::AgasNetwork, GasMode::AgasSoftware] {
        let spec = WorkloadSpec {
            net: jittery(),
            ..WorkloadSpec::new(8, mode)
        };
        grid("bfs_tree", false, bfs_tree, spec);
        grid("bfs_tree", true, bfs_tree, spec);
    }
}

#[test]
fn ringed_parcels_stay_lane_independent() {
    // Submission rings batch parcels into shared doorbells; the coalesced
    // schedule must still replay identically across lanes, adaptive
    // ring controllers included.
    let ring = RingConfig {
        doorbell_batch: 4,
        doorbell_delay: Time::from_ns(300),
        adaptive: Some(netsim::AdaptiveRing::default()),
        ..RingConfig::default()
    };
    let spec = WorkloadSpec {
        ring,
        ..WorkloadSpec::new(6, GasMode::AgasNetwork)
    };
    grid("spray_reduce+ring", false, spray_reduce, spec);
    grid("spray_reduce+ring", true, spray_reduce, spec);
    grid("bfs_tree+ring", true, bfs_tree, spec);
}

#[test]
fn adaptive_controller_engages_on_the_sharded_runtime() {
    // Sanity that the adaptive grid above actually exercised the
    // controller: a deep spray at 4 lanes with default adaptive config
    // must at least consult the controller (serial or widened windows).
    let spec = WorkloadSpec {
        lanes: Some(4),
        adaptive: Some(AdaptiveWindow::default()),
        ..WorkloadSpec::new(8, GasMode::AgasNetwork)
    };
    let rt = {
        let rtcfg = parcel_rt::RtConfig::default();
        let mut world = parcel_rt::ShardWorld::new(spec.n, spec.mode, spec.net, rtcfg);
        parcel_rt::workloads::install(&mut world);
        let mut s = netsim::ShardedEngine::new(world, spec.seed, 4);
        s.set_adaptive(AdaptiveWindow::default());
        let arr = s.drive(|e| {
            agas::alloc_array(
                e,
                8,
                parcel_rt::workloads::ANCHOR_CLASS,
                agas::Distribution::Cyclic,
            )
        });
        s.drive_at(0, move |e| {
            let lco = parcel_rt::lco::new_reduce(e, 0, 8, parcel_rt::ReduceOp::Sum);
            let args = parcel_rt::ArgWriter::new().u32(0).u32(8).gva(lco).finish();
            parcel_rt::send_parcel(
                e,
                0,
                parcel_rt::Parcel {
                    target: arr.block(0),
                    action: parcel_rt::workloads::SPRAY,
                    args,
                    cont: None,
                    src: 0,
                    hops: 0,
                },
            );
        });
        s.run();
        s.stats().clone()
    };
    assert!(
        rt.serial_windows + rt.widened + rt.windows > 0,
        "adaptive shard run recorded no window activity: {rt:?}"
    );
}
