#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Differential property test for the scheduled execution engine: random
//! DAGs (mixed dense/sparse inputs, shared subexpressions, multiple roots)
//! executed by the liveness-aware parallel scheduler must produce results
//! *bitwise-equal* to the retained sequential oracle, across every
//! `FusionMode` — and the tracked peak footprint must never exceed the
//! hold-everything sum of all materialized values.

mod common;

use common::assert_roots_bitwise;
use fusedml_hop::interp::Bindings;
use fusedml_hop::{DagBuilder, HopDag, HopId};
use fusedml_linalg::generate;
use fusedml_linalg::matrix::Value;
use fusedml_runtime::{Engine, FusionMode};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomDag {
    ops: Vec<u8>,
    rows: usize,
    cols: usize,
    sparse_main: bool,
}

fn dag_strategy() -> impl Strategy<Value = RandomDag> {
    (proptest::collection::vec(0u8..10, 2..10), 20usize..80, 10usize..40, 0u8..2)
        .prop_map(|(ops, rows, cols, sm)| RandomDag { ops, rows, cols, sparse_main: sm == 1 })
}

/// Builds a DAG with shared subexpressions (every second op reuses an
/// earlier value) and three roots of mixed shapes.
fn build(e: &RandomDag) -> (HopDag, Bindings) {
    let mut b = DagBuilder::new();
    let x = b.read("X", e.rows, e.cols, if e.sparse_main { 0.05 } else { 1.0 });
    let y = b.read("Y", e.rows, e.cols, 1.0);
    let v = b.read("v", e.rows, 1, 1.0);
    let mut cur: HopId = x;
    let mut prev: HopId = y; // shared-subexpression pool
    for (i, &op) in e.ops.iter().enumerate() {
        let next = match op {
            0 => b.mult(cur, y),
            1 => b.add(cur, prev),
            2 => b.sub(cur, v),
            3 => b.abs(cur),
            4 => b.sq(cur),
            5 => b.exp(cur),
            6 => b.mult(cur, prev), // reuse an earlier intermediate twice
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
    let sp = b.sum(prev); // keeps the shared intermediate live to the end
    let dag = b.build(vec![s, rs, sp]);
    let mut bindings = Bindings::new();
    let xm = if e.sparse_main {
        generate::rand_matrix(e.rows, e.cols, 0.5, 1.5, 0.05, 1)
    } else {
        generate::rand_dense(e.rows, e.cols, 0.5, 1.5, 1)
    };
    bindings.insert("X".into(), xm);
    bindings.insert("Y".into(), generate::rand_dense(e.rows, e.cols, 0.5, 1.5, 2));
    bindings.insert("v".into(), generate::rand_dense(e.rows, 1, 1.0, 2.0, 3));
    (dag, bindings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scheduled_equals_sequential_bitwise(e in dag_strategy()) {
        let (dag, bindings) = build(&e);
        for mode in [
            FusionMode::Base,
            FusionMode::Fused,
            FusionMode::Gen,
            FusionMode::GenFA,
            FusionMode::GenFNR,
        ] {
            let exec = Engine::new(mode);
            let script = exec.compile(&dag);
            let expect = script.execute_sequential(&bindings);
            let got = script.execute(&bindings).into_values();
            assert_roots_bitwise(&got, &expect, &format!("{mode:?} (ops {:?})", e.ops));
            // The liveness-tracked peak can never exceed the hold-everything
            // resident set (inputs + every materialized intermediate).
            let sched = exec.stats().scheduler_snapshot();
            prop_assert!(
                sched.peak_bytes <= sched.resident_all_bytes,
                "{mode:?}: peak {} > hold-everything {}",
                sched.peak_bytes,
                sched.resident_all_bytes
            );
        }
    }
}

/// Deterministic multi-intermediate chain: the tracked peak must drop ≥ 2×
/// below hold-everything (the acceptance bar for this refactor) in Base
/// mode, where every chain link materializes.
#[test]
fn chain_footprint_drops_at_least_2x() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 400, 300, 1.0);
    let mut cur = x;
    for _ in 0..12 {
        cur = b.exp(cur);
    }
    let s = b.sum(cur);
    let dag = b.build(vec![s]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(400, 300, -0.01, 0.01, 9));
    let exec = Engine::new(FusionMode::Base);
    let _ = exec.execute(&dag, &bindings);
    let sched = exec.stats().scheduler_snapshot();
    assert!(
        sched.footprint_reduction() >= 2.0,
        "chain peak {} vs hold-everything {} (reduction {:.2}×)",
        sched.peak_bytes,
        sched.resident_all_bytes,
        sched.footprint_reduction()
    );
    assert!(sched.bytes_freed_early > 0);
}

/// Independent branches actually execute in parallel (scheduler event
/// counters observe overlapping operators).
#[test]
fn independent_branches_run_in_parallel() {
    if fusedml_linalg::par::num_threads() < 2 {
        return; // single-core CI runner: nothing to observe
    }
    let mut b = DagBuilder::new();
    let x = b.read("X", 300, 300, 1.0);
    let y = b.read("Y", 300, 300, 1.0);
    // Four independent branches of real work.
    let e1 = b.exp(x);
    let e2 = b.sq(y);
    let e3 = b.mult(x, y);
    let e4 = b.add(x, y);
    let s1 = b.sum(e1);
    let s2 = b.sum(e2);
    let s3 = b.sum(e3);
    let s4 = b.sum(e4);
    let dag = b.build(vec![s1, s2, s3, s4]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(300, 300, 0.0, 1.0, 4));
    bindings.insert("Y".into(), generate::rand_dense(300, 300, 0.0, 1.0, 5));
    let exec = Engine::new(FusionMode::Base);
    let script = exec.compile(&dag);
    let base = script.execute_sequential(&bindings);
    let got = script.execute(&bindings).into_values();
    assert_roots_bitwise(&got, &base, "Base");
    let sched = exec.stats().scheduler_snapshot();
    assert!(sched.parallel_ops > 0, "independent branches must overlap");
}

/// Sparse mains flow through the scheduler unchanged (formats preserved).
#[test]
fn sparse_roots_keep_format() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 200, 200, 0.02);
    let y = b.read("Y", 200, 200, 1.0);
    let m = b.mult(x, y); // sparse-safe: stays sparse
    let dag = b.build(vec![m]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_matrix(200, 200, 1.0, 2.0, 0.02, 6));
    bindings.insert("Y".into(), generate::rand_dense(200, 200, 1.0, 2.0, 7));
    let exec = Engine::new(FusionMode::Base);
    let script = exec.compile(&dag);
    let seq = script.execute_sequential(&bindings);
    let got = script.execute(&bindings).into_values();
    assert_roots_bitwise(&got, &seq, "Base");
    match (&got[0], &seq[0]) {
        (Value::Matrix(a), Value::Matrix(b)) => assert_eq!(a.is_sparse(), b.is_sparse()),
        _ => panic!("matrix roots expected"),
    }
}
