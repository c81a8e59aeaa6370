//! Property tests at the runtime layer: random parcel/LCO programs, LCO
//! semantics against oracles, and coalescing/transport equivalence.

use agas::{Distribution, GasMode};
use parcel_rt::{ArgWriter, ReduceOp, RingConfig, RtConfig, Runtime, Transport};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Gathered (rank, payload) pairs, shared with driver callbacks.
type Gathered = Rc<RefCell<Vec<(u32, Vec<u8>)>>>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A reduce LCO computes the same fold as the in-memory oracle, for any
    /// operator, contribution set, and contributing localities.
    #[test]
    fn reduce_matches_oracle(
        values in proptest::collection::vec((any::<u64>(), 0u32..4), 1..24),
        op_sel in 0u8..4,
    ) {
        let op = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max, ReduceOp::Xor][op_sel as usize];
        let mut rt = Runtime::builder(4, GasMode::AgasNetwork).boot();
        let red = rt.new_reduce(0, values.len() as u64, op);
        for &(v, from) in &values {
            parcel_rt::lco_set(&mut rt.eng, from, red, v.to_le_bytes().to_vec());
        }
        let got = Rc::new(Cell::new(0u64));
        let g = got.clone();
        rt.wait_lco(red, move |_, bytes| {
            g.set(u64::from_le_bytes(bytes.try_into().unwrap()));
        });
        rt.run();
        let expect = values.iter().fold(
            match op {
                ReduceOp::Sum | ReduceOp::Xor | ReduceOp::Max => 0u64,
                ReduceOp::Min => u64::MAX,
            },
            |acc, &(v, _)| match op {
                ReduceOp::Sum => acc.wrapping_add(v),
                ReduceOp::Min => acc.min(v),
                ReduceOp::Max => acc.max(v),
                ReduceOp::Xor => acc ^ v,
            },
        );
        prop_assert_eq!(got.get(), expect);
    }

    /// A gather LCO returns every contribution, ordered by rank, no matter
    /// the arrival order.
    #[test]
    fn gather_matches_oracle(
        mut entries in proptest::collection::vec((0u32..1000, proptest::collection::vec(any::<u8>(), 0..16)), 1..16),
    ) {
        // Ranks must be unique for a well-defined oracle.
        entries.sort_by_key(|&(r, _)| r);
        entries.dedup_by_key(|&mut (r, _)| r);
        let mut rt = Runtime::builder(3, GasMode::AgasSoftware).boot();
        let lco = parcel_rt::new_gather(&mut rt.eng, 0, entries.len() as u64);
        // Contribute in reverse order from varying localities.
        for (i, (rank, bytes)) in entries.iter().enumerate().rev() {
            parcel_rt::set_gather(&mut rt.eng, (i % 3) as u32, lco, *rank, bytes);
        }
        let got: Gathered = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        parcel_rt::attach_driver(&mut rt.eng, lco, move |_, bytes| {
            *g.borrow_mut() = parcel_rt::decode_gather(&bytes);
        });
        rt.run();
        prop_assert_eq!(&*got.borrow(), &entries);
    }

    /// The same random fan-out program produces identical block contents
    /// under every transport/coalescing combination.
    #[test]
    fn program_outcome_is_policy_independent(
        spawns in proptest::collection::vec((0u32..4, 0u64..8, 1u64..1000), 1..40),
        seed in 0u64..100,
    ) {
        let run = |transport: Transport, coalesce: bool| {
            let mut b = Runtime::builder(4, GasMode::AgasNetwork);
            let add = b.register("add", |eng, ctx| {
                let mut r = parcel_rt::ArgReader::new(&ctx.args);
                let v = r.u64();
                let phys = ctx.target_phys();
                eng.state.cluster.mem_mut(ctx.loc).xor_u64(phys, v).unwrap();
            });
            let mut rt = b
                .seed(seed)
                .rt_config(RtConfig {
                    transport,
                    ring: coalesce
                        .then(RingConfig::default)
                        .unwrap_or_else(RingConfig::unbatched),
                    ..RtConfig::default()
                })
                .boot();
            let arr = rt.alloc(8, 12, Distribution::Cyclic);
            for &(from, block, v) in &spawns {
                rt.spawn(from, arr.block(block), add, ArgWriter::new().u64(v).finish(), None);
            }
            rt.run();
            rt.assert_quiescent();
            (0..8u64)
                .map(|b| {
                    let bytes = rt.read_block(arr.block(b));
                    u64::from_le_bytes(bytes[0..8].try_into().unwrap())
                })
                .collect::<Vec<u64>>()
        };
        let baseline = run(Transport::Pwc, false);
        prop_assert_eq!(run(Transport::Pwc, true), baseline.clone());
        prop_assert_eq!(run(Transport::Isir, false), baseline);
    }

    /// Random and-gate fan-ins always fire exactly once after the last set.
    #[test]
    fn and_gate_fires_exactly_once(n in 1u64..64, extra_localities in 1usize..5) {
        let mut rt = Runtime::builder(extra_localities, GasMode::AgasNetwork).boot();
        let gate = rt.new_and(0, n);
        let fires = Rc::new(Cell::new(0u32));
        let f = fires.clone();
        rt.wait_lco(gate, move |_, _| f.set(f.get() + 1));
        for i in 0..n {
            parcel_rt::lco_set(
                &mut rt.eng,
                (i % extra_localities as u64) as u32,
                gate,
                vec![],
            );
            if i + 1 < n {
                rt.run();
                prop_assert_eq!(fires.get(), 0, "fired early at {}", i);
            }
        }
        rt.run();
        prop_assert_eq!(fires.get(), 1);
    }
}
