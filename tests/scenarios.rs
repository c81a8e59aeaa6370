//! Feature-interaction scenarios: each test combines several subsystems
//! that are individually tested elsewhere (transport × jitter × migration ×
//! coalescing × balancer × fabric knobs) and asserts end-to-end invariants.

use nmvgas::workloads::{bfs, gups, skew, transpose};
use nmvgas::{Distribution, GasMode, NetConfig, Runtime, Time};
use parcel_rt::{BalancerConfig, RingConfig, RtConfig, Transport};
use std::cell::RefCell;
use std::rc::Rc;

fn rtcfg(transport: Transport, coalesce: bool) -> RtConfig {
    RtConfig {
        transport,
        ring: coalesce
            .then(RingConfig::default)
            .unwrap_or_else(RingConfig::unbatched),
        ..RtConfig::default()
    }
}

#[test]
fn gups_actions_isir_jitter_migration() {
    // Two-sided transport + reordering fabric + table blocks migrating
    // mid-run: the XOR checksum must still be exact.
    let cfg = gups::GupsConfig {
        cells_per_loc: 512,
        updates_per_loc: 300,
        window: 8,
        use_actions: true,
        ..gups::GupsConfig::default()
    };
    let expect = gups::expected_checksum(&cfg, 4);
    let net = NetConfig {
        jitter_ns: 600,
        ..NetConfig::ib_fdr()
    };
    let mut b = Runtime::builder(4, GasMode::AgasNetwork);
    gups::register_actions(&mut b);
    let mut rt = b.net(net).rt_config(rtcfg(Transport::Isir, false)).boot();
    let table = gups::alloc_table(&mut rt, &cfg);
    for (i, gva) in table.blocks.iter().enumerate() {
        rt.migrate(0, *gva, ((i as u32) * 3 + 1) % 4);
    }
    gups::run(&mut rt, &cfg, &table);
    assert_eq!(gups::table_checksum(&rt, &table), expect);
    rt.assert_quiescent();
}

#[test]
fn skew_with_balancer_service_and_coalescing() {
    // The in-runtime balancer (NIC telemetry) + parcel coalescing active at
    // once; reads drain, owners spread, nothing leaks.
    let cfg = skew::SkewConfig {
        blocks: 32,
        read_bytes: 2048,
        ops_per_loc: 600,
        window: 12,
        theta: 1.1,
        rebalance_every: 0, // the service does the moving
        ..skew::SkewConfig::default()
    };
    let mut rt = Runtime::builder(6, GasMode::AgasNetwork)
        .rt_config(rtcfg(Transport::Pwc, true))
        .boot();
    let data = skew::alloc_blocks(&mut rt, &cfg);
    rt.start_balancer(BalancerConfig {
        period: Time::from_us(150),
        ..BalancerConfig::default()
    });
    let res = skew::run(&mut rt, &cfg, &data);
    assert_eq!(res.ops, 3600);
    assert!(rt.eng.state.balancer_stats.migrations > 0);
    agas::check::assert_consistent(&rt.eng.state, &data.blocks);
    rt.assert_quiescent();
}

#[test]
fn transpose_on_oversubscribed_jittery_fabric() {
    let net = NetConfig {
        oversubscription: 4,
        jitter_ns: 300,
        ..NetConfig::ib_fdr()
    };
    let cfg = transpose::TransposeConfig {
        block_class: 12,
        rounds: 2,
    };
    let mut rt = Runtime::builder(6, GasMode::AgasNetwork).net(net).boot();
    let arrays = transpose::setup(&mut rt, &cfg);
    let res = transpose::run(&mut rt, &cfg, &arrays);
    transpose::verify(&rt, &cfg, &arrays);
    assert!(res.aggregate_gbps > 0.0);
}

#[test]
fn bfs_on_starved_nic_table() {
    // A 4-entry NIC table under a graph traversal: constant eviction
    // pressure on the label blocks, same distances.
    let net = NetConfig {
        xlate_capacity: 4,
        ..NetConfig::ib_fdr()
    };
    let cfg = bfs::BfsConfig {
        vertices: 512,
        chords: 2,
        block_class: 10,
        root: 0,
        seed: 44,
    };
    let slot = Rc::new(RefCell::new(None));
    let mut b = Runtime::builder(4, GasMode::AgasNetwork);
    bfs::register_actions(&mut b, slot.clone());
    let mut rt = b.net(net).boot();
    bfs::install(&mut rt, &cfg, &slot);
    bfs::run(&mut rt, &cfg, &slot);
    let got = bfs::read_labels(&rt, &slot);
    let expect = slot.borrow().as_ref().unwrap().graph.bfs_oracle(cfg.root);
    assert_eq!(got, expect);
}

#[test]
fn free_and_realloc_under_live_traffic() {
    // Hammer array A, free array B concurrently, allocate C, hammer C:
    // no cross-talk, no leaks.
    let mut rt = Runtime::builder(4, GasMode::AgasNetwork).boot();
    let a = rt.alloc(8, 12, Distribution::Cyclic);
    let b = rt.alloc(8, 12, Distribution::Cyclic);
    for i in 0..40u64 {
        rt.memput(
            (i % 4) as u32,
            a.block(i % 8).with_offset((i / 8) * 32),
            vec![(i + 1) as u8; 32],
        );
    }
    for gva in &b.blocks {
        rt.free_block_cb(0, *gva, |_, _| {});
    }
    rt.run();
    let c = rt.alloc(8, 12, Distribution::Cyclic);
    for i in 0..40u64 {
        rt.memput(
            ((i + 2) % 4) as u32,
            c.block(i % 8).with_offset((i / 8) * 32),
            vec![(i + 101) as u8; 32],
        );
    }
    rt.run();
    rt.assert_quiescent();
    for i in 0..40u64 {
        let block_a = rt.read_block(a.block(i % 8));
        let off = ((i / 8) * 32) as usize;
        assert_eq!(&block_a[off..off + 32], &vec![(i + 1) as u8; 32][..]);
        let block_c = rt.read_block(c.block(i % 8));
        assert_eq!(&block_c[off..off + 32], &vec![(i + 101) as u8; 32][..]);
    }
    agas::check::assert_consistent(&rt.eng.state, &a.blocks);
    agas::check::assert_consistent(&rt.eng.state, &c.blocks);
}

#[test]
fn explicit_distribution_end_to_end() {
    // User-chosen placement: everything on localities {1, 3}; ops and
    // migration still behave.
    let dist = Distribution::Explicit(Rc::new(vec![1, 3]));
    let mut rt = Runtime::builder(4, GasMode::AgasSoftware).boot();
    let arr = rt.alloc(6, 12, dist);
    assert_eq!(arr.block(0).home(), 1);
    assert_eq!(arr.block(1).home(), 3);
    for i in 0..6u64 {
        rt.memput(0, arr.block(i), vec![i as u8 + 1; 16]);
    }
    rt.run();
    rt.migrate(0, arr.block(0), 2);
    rt.run();
    for i in 0..6u64 {
        let got = rt.read_block(arr.block(i));
        assert_eq!(&got[..16], &vec![i as u8 + 1; 16][..]);
    }
    agas::check::assert_consistent(&rt.eng.state, &arr.blocks);
}

#[test]
fn multiport_flood_with_coalescing() {
    // 4-port NICs + coalesced parcel flood: everything lands, counters add
    // up, and the batch count reflects the aggregation.
    let net = NetConfig {
        nic_ports: 4,
        ..NetConfig::ethernet_10g()
    };
    let mut b = Runtime::builder(4, GasMode::AgasNetwork);
    let hits = Rc::new(std::cell::Cell::new(0u32));
    let h = hits.clone();
    let sink = b.register("sink", move |_, _| h.set(h.get() + 1));
    let mut rt = b.net(net).rt_config(rtcfg(Transport::Pwc, true)).boot();
    let arr = rt.alloc(8, 12, Distribution::Cyclic);
    for i in 0..800u64 {
        rt.spawn(
            (i % 4) as u32,
            arr.block((i * 3 + 1) % 8),
            sink,
            vec![0u8; 16],
            None,
        );
    }
    rt.run();
    rt.assert_quiescent();
    assert_eq!(hits.get(), 800);
    assert!(rt.eng.state.total_rt_stats().batches_sent > 0);
}

#[test]
fn cray_fabric_full_stack() {
    // The Gemini-class preset through GUPS + migration + verification.
    let cfg = gups::GupsConfig {
        cells_per_loc: 512,
        updates_per_loc: 256,
        window: 8,
        use_actions: true,
        ..gups::GupsConfig::default()
    };
    let expect = gups::expected_checksum(&cfg, 4);
    let mut b = Runtime::builder(4, GasMode::AgasNetwork);
    gups::register_actions(&mut b);
    let mut rt = b.net(NetConfig::cray_gemini()).boot();
    let table = gups::alloc_table(&mut rt, &cfg);
    rt.migrate(0, table.block(0), 3);
    gups::run(&mut rt, &cfg, &table);
    assert_eq!(gups::table_checksum(&rt, &table), expect);
}

#[test]
fn tracing_captures_a_mixed_scenario() {
    let mut rt = Runtime::builder(3, GasMode::AgasNetwork).boot();
    let arr = rt.alloc(3, 12, Distribution::Cyclic);
    rt.eng.state.cluster.tracer.enable(256);
    rt.memput(0, arr.block(1), vec![1u8; 64]);
    rt.migrate(0, arr.block(1), 2);
    rt.run();
    rt.memput(0, arr.block(1), vec![2u8; 64]);
    rt.run();
    let text = rt.eng.state.cluster.tracer.render();
    assert!(text.contains("put"), "{text}");
    assert!(text.contains("xlate HIT"), "{text}");
    // The stale second put rode the tombstone or bounced; either trace
    // artifact is acceptable evidence the migration window was exercised.
    assert!(
        text.contains("FWD") || text.contains("MISS") || text.contains("nack"),
        "{text}"
    );
}
