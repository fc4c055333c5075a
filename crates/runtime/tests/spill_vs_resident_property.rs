#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Differential property test for the spill tier: the same random
//! multi-root DAG executed by an engine with an unbounded budget and by an
//! engine with a budget far below the working set must produce *bitwise
//! equal* results — spilling is invisible except in the counters. The
//! counters themselves are pinned (evictions > 0 under the tight budget,
//! exactly 0 under the loose one) and the engine-owned temp files must be
//! gone when the `Engine` drops.

mod common;

use common::assert_roots_bitwise;
use fusedml_hop::interp::Bindings;
use fusedml_hop::{DagBuilder, HopDag, HopId};
use fusedml_linalg::{generate, TernaryOp};
use fusedml_runtime::{Engine, FusionMode};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomDag {
    ops: Vec<u8>,
    rows: usize,
    cols: usize,
}

/// Dense-only DAGs with every value comfortably above `MIN_SPILL_BYTES`
/// (40×20×8 = 6400 bytes at the minimum), so the tight budget always has an
/// eligible victim once a shared intermediate is live.
fn dag_strategy() -> impl Strategy<Value = RandomDag> {
    (proptest::collection::vec(0u8..10, 4..12), 40usize..100, 20usize..60)
        .prop_map(|(ops, rows, cols)| RandomDag { ops, rows, cols })
}

/// A chain with shared subexpressions and three roots; `prev` (a full-size
/// intermediate once `ops.len() >= 4`) stays live to the very end, so a
/// budget of two value-sizes must evict it mid-run and fault it back for the
/// final `sum(prev)`.
fn build(e: &RandomDag) -> (HopDag, Bindings) {
    let mut b = DagBuilder::new();
    let x = b.read("X", e.rows, e.cols, 1.0);
    let y = b.read("Y", e.rows, e.cols, 1.0);
    let v = b.read("v", e.rows, 1, 1.0);
    let mut cur: HopId = x;
    let mut prev: HopId = y;
    for (i, &op) in e.ops.iter().enumerate() {
        let next = match op {
            0 => b.mult(cur, y),
            1 => b.add(cur, prev),
            2 => b.sub(cur, v),
            3 => b.abs(cur),
            4 => b.sq(cur),
            5 => b.exp(cur),
            6 => b.mult(cur, prev),
            7 => {
                let c = b.lit(0.5 + i as f64 * 0.25);
                b.mult(cur, c)
            }
            8 => b.div(cur, v),
            _ => b.max(cur, y),
        };
        if i % 2 == 0 {
            prev = cur;
        }
        cur = next;
    }
    let s = b.sum(cur);
    let rs = b.row_sums(cur);
    let sp = b.sum(prev);
    let dag = b.build(vec![s, rs, sp]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(e.rows, e.cols, 0.5, 1.5, 1));
    bindings.insert("Y".into(), generate::rand_dense(e.rows, e.cols, 0.5, 1.5, 2));
    bindings.insert("v".into(), generate::rand_dense(e.rows, 1, 1.0, 2.0, 3));
    (dag, bindings)
}

/// A tight engine: budget of two value-sizes, one worker so victim selection
/// is deterministic enough to pin the counters.
fn tight_engine(mode: FusionMode, rows: usize, cols: usize) -> Engine {
    Engine::builder(mode).memory_budget(2 * 8 * rows * cols).workers(1).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn spilled_run_is_bitwise_equal_to_resident_run(e in dag_strategy()) {
        let (dag, bindings) = build(&e);
        for mode in [FusionMode::Base, FusionMode::Gen, FusionMode::GenFA] {
            let loose = Engine::new(mode); // default budget: nothing spills
            let expect = loose.execute(&dag, &bindings).into_values();
            prop_assert_eq!(
                loose.stats().scheduler_snapshot().spilled_bytes, 0,
                "{:?}: the unbounded engine must never spill", mode
            );
            prop_assert!(loose.spill_dir().is_none(), "no spill ⇒ no temp dir");

            let tight = tight_engine(mode, e.rows, e.cols);
            let got = tight.execute(&dag, &bindings).into_values();
            assert_roots_bitwise(&got, &expect, &format!("{mode:?} (ops {:?})", e.ops));
            if mode == FusionMode::Base {
                // Every op materializes in Base mode, so the shared
                // intermediate must have been evicted and faulted back.
                let sched = tight.stats().scheduler_snapshot();
                prop_assert!(sched.spilled_bytes > 0, "tight budget must evict (ops {:?})", e.ops);
                prop_assert!(sched.reloaded_bytes > 0, "evicted values must fault back");
                prop_assert!(sched.spill_faults > 0);
            }
        }
    }
}

/// Deterministic out-of-core chain: spills occur, every spilled value is
/// faulted back (no orphan files), and the tracked peak sits below the
/// unbounded run's peak. Both engines run one scheduler worker, because
/// whether the anchor spills at all is a property of the schedule: with two
/// workers `sum(anchor)` runs beside the first `sq`, the anchor retires
/// before the chain needs its bytes, and nothing is ever evicted (measured
/// on 2 cores: spilled_bytes 0 and the loose run's peak, 5 runs of 5).
#[test]
fn deterministic_chain_spills_and_reloads_everything() {
    let (rows, cols) = (300, 200); // 480 KB per value
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, 1.0);
    let anchor = b.exp(x); // stays live to the end
    let mut cur = anchor;
    for _ in 0..8 {
        cur = b.sq(cur);
    }
    let s = b.sum(cur);
    let sa = b.sum(anchor);
    let dag = b.build(vec![s, sa]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(rows, cols, 0.9, 1.1, 7));

    let loose = Engine::builder(FusionMode::Base).workers(1).build();
    let expect = loose.execute(&dag, &bindings).into_values();
    let loose_peak = loose.stats().scheduler_snapshot().peak_bytes;

    let budget = 2 * 8 * rows * cols + 8 * rows * cols / 2; // 2.5 values
    let tight = Engine::builder(FusionMode::Base).memory_budget(budget).workers(1).build();
    let got = tight.execute(&dag, &bindings).into_values();
    assert_roots_bitwise(&got, &expect, "Base");

    let sched = tight.stats().scheduler_snapshot();
    assert!(sched.spilled_bytes > 0, "anchor must spill under a 2.5-value budget");
    assert_eq!(
        sched.spilled_bytes, sched.reloaded_bytes,
        "every spilled value is live and must be read back before its last use"
    );
    assert!(sched.peak_bytes < loose_peak, "spilling must lower the tracked peak");
    let spill = tight.spill_stats();
    assert_eq!(spill.spill_events, spill.reload_events, "no orphan spill files after a run");
    assert!(spill.bytes_spilled > 0);
}

/// A task that reads one spilled input twice (`s + s ⊙ p` over a spilled
/// `s`) faults it in once, so its dispatch reserves for one copy. A
/// 4-value-wide `cbind` evicts `s` (V = one `X`-sized value; the budget is
/// 4.5 V); when the ternary dispatches, `X`, `keep` and `p` are resident,
/// and the output plus one copy of `s` fit beside them. Reserving `s` once
/// per read would evict `keep` as well.
#[test]
fn an_input_read_twice_is_reserved_once() {
    let (rows, cols) = (200, 100); // 160 KB per value
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, 1.0);
    let s = b.exp(x);
    let w2 = b.cbind(x, x);
    let w4 = b.cbind(w2, w2);
    let r = b.rix(w4, None, Some((0, cols)));
    let keep = b.abs(x); // read by `p` and again after the ternary
    let p = b.mult(r, keep);
    let m = b.ternary(TernaryOp::PlusMult, s, s, p);
    let z = b.mult(m, keep);
    let sz = b.sum(z);
    let dag = b.build(vec![sz]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(rows, cols, 0.9, 1.1, 5));

    let expect = Engine::builder(FusionMode::Base).workers(1).build().execute(&dag, &bindings);
    let budget = 9 * 8 * rows * cols / 2 + 4096; // 4.5 values and the scalar slots
    let tight = Engine::builder(FusionMode::Base).memory_budget(budget).workers(1).build();
    let got = tight.execute(&dag, &bindings);
    assert_roots_bitwise(got.values(), expect.values(), "Base");
    let sched = tight.stats().scheduler_snapshot();
    assert_eq!(tight.spill_stats().spill_events, 1, "only `s` is evicted");
    assert_eq!(sched.spill_faults, 1, "`s` faults in once for both reads");
    assert_eq!(sched.spilled_bytes, sched.reloaded_bytes);
}

/// The engine-owned temp directory honors the `spill_dir` knob and is swept
/// when the engine drops.
#[test]
fn spill_files_deleted_on_engine_drop() {
    let parent = std::env::temp_dir().join("fusedml-spill-knob-test");
    std::fs::create_dir_all(&parent).unwrap();
    let (rows, cols) = (200, 200);
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, 1.0);
    let anchor = b.abs(x);
    let mut cur = anchor;
    for _ in 0..4 {
        cur = b.sq(cur);
    }
    let s = b.sum(cur);
    let sa = b.sum(anchor);
    let dag = b.build(vec![s, sa]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(rows, cols, 0.9, 1.1, 11));

    let engine = Engine::builder(FusionMode::Base)
        .memory_budget(2 * 8 * rows * cols)
        .spill_dir(&parent)
        .workers(1)
        .build();
    let _ = engine.execute(&dag, &bindings);
    assert!(engine.spill_stats().spill_events > 0, "workload must spill");
    let dir = engine.spill_dir().expect("spill dir exists after first spill");
    assert!(dir.starts_with(&parent), "spill_dir knob places temp files under the given parent");
    assert!(dir.exists());
    drop(engine);
    assert!(!dir.exists(), "Engine drop must delete its spill directory and files");
    let _ = std::fs::remove_dir_all(&parent);
}
