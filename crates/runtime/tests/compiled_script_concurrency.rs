#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! The compile-once / execute-concurrently contract of the engine API:
//!
//! * one `CompiledScript` executed from N threads on distinct bindings must
//!   agree **bitwise** with the sequential oracle on every one of them;
//! * repeated `execute` calls perform **zero re-optimization** (`plan_for` /
//!   codegen run exactly once, pinned via optimizer and plan-cache stats);
//! * the shape-revalidation guard recompiles exactly once per new input
//!   geometry instead of trusting the stale plan;
//! * two engines with different configurations coexist without sharing
//!   pools or caches;
//! * the per-call records on `Outputs::sched` add up to the engine's.

mod common;

use common::assert_roots_bitwise;
use fusedml_hop::interp::{bind, Bindings};
use fusedml_hop::{DagBuilder, HopDag};
use fusedml_linalg::generate;
use fusedml_runtime::{Engine, EngineBuilder, FusionMode, SchedSnapshot};

/// The MLogreg-core expression (paper Expression 2) — compiles to a Row
/// operator under Gen.
fn mlogreg_dag(n: usize, m: usize, k: usize) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, 1.0);
    let v = b.read("V", m, k, 1.0);
    let p = b.read("P", n, k + 1, 1.0);
    let xv = b.mm(x, v);
    let pk = b.rix(p, None, Some((0, k)));
    let q = b.mult(pk, xv);
    let rs = b.row_sums(q);
    let prs = b.mult(pk, rs);
    let diff = b.sub(q, prs);
    let xt = b.t(x);
    let h = b.mm(xt, diff);
    b.build(vec![h])
}

fn mlogreg_bindings(n: usize, m: usize, k: usize, seed: u64) -> Bindings {
    bind(&[
        ("X", generate::rand_dense(n, m, -1.0, 1.0, seed)),
        ("V", generate::rand_dense(m, k, -1.0, 1.0, seed + 1000)),
        ("P", generate::rand_dense(n, k + 1, 0.0, 1.0, seed + 2000)),
    ])
}

/// N threads hammer one compiled script with *distinct* bindings; every
/// result must be bitwise-equal to the sequential oracle, and the optimizer
/// must have run exactly once.
#[test]
fn concurrent_executes_agree_bitwise_with_sequential() {
    const THREADS: usize = 8;
    let (n, m, k) = (120, 24, 3);
    let dag = mlogreg_dag(n, m, k);
    for mode in [FusionMode::Base, FusionMode::Fused, FusionMode::Gen] {
        let engine = Engine::new(mode);
        let script = engine.compile(&dag);
        let compiled_dags = engine.optimizer().stats.snapshot().dags_optimized;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let script = script.clone();
                s.spawn(move || {
                    let bindings = mlogreg_bindings(n, m, k, 100 * t as u64 + 1);
                    let expect = script.execute_sequential(&bindings);
                    for round in 0..3 {
                        let got = script.execute(&bindings);
                        assert_roots_bitwise(
                            got.values(),
                            &expect,
                            &format!("{mode:?} thread {t} round {round}"),
                        );
                    }
                });
            }
        });
        let snap = engine.optimizer().stats.snapshot();
        assert_eq!(
            snap.dags_optimized, compiled_dags,
            "{mode:?}: no thread may re-run the optimizer"
        );
        if mode == FusionMode::Gen {
            assert_eq!(snap.dags_optimized, 1, "Gen compiles the DAG exactly once");
            let (fused, _, _) = engine.stats().snapshot();
            assert!(fused >= THREADS, "every thread executed the fused operator");
        }
        assert_eq!(engine.stats().plan_recompiles(), 0, "{mode:?}: no shape recompiles");
    }
}

/// Repeated `execute` calls (including through freshly rebuilt DAGs, as an
/// iterative algorithm would issue) hit the engine's plan/script caches with
/// a 100% hit rate after the first call: zero re-optimization, zero new
/// codegen, and so zero new kernel lowering (an operator is lowered where it
/// is generated, on a plan-cache miss).
#[test]
fn repeated_execute_is_compile_free() {
    let (n, m, k) = (90, 16, 3);
    let engine = Engine::new(FusionMode::Gen);
    let bindings = mlogreg_bindings(n, m, k, 7);
    let _ = engine.execute(&mlogreg_dag(n, m, k), &bindings); // cold: compiles
    let opt_after_first = engine.optimizer().stats.snapshot();
    let plan_cache_after_first = engine.plan_cache().stats();
    assert_eq!(opt_after_first.dags_optimized, 1);

    for round in 0..10 {
        // Rebuild the DAG each round — same structure, fresh object — like
        // an iterative driver re-emitting its update rule.
        let _ = engine.execute(&mlogreg_dag(n, m, k), &bindings);
        let snap = engine.optimizer().stats.snapshot();
        assert_eq!(snap.dags_optimized, 1, "round {round}: plan cache must absorb the call");
    }
    assert_eq!(
        engine.plan_cache().stats().1,
        plan_cache_after_first.1,
        "no new operator compilations after the first call (100% hit rate)"
    );
}

/// Binding a different input geometry than the script was costed under must
/// not silently trust the stale plan: the guard recompiles — exactly once
/// per distinct geometry — and the results match the oracle.
#[test]
fn shape_revalidation_recompiles_once_per_geometry() {
    let (n, m, k) = (64, 16, 3);
    let engine = Engine::new(FusionMode::Gen);
    let script = engine.compile(&mlogreg_dag(n, m, k));

    // Declared geometry: no recompile.
    let b0 = mlogreg_bindings(n, m, k, 1);
    let expect0 = script.execute_sequential(&b0);
    assert_roots_bitwise(script.execute(&b0).values(), &expect0, "declared geometry");
    assert_eq!(engine.stats().plan_recompiles(), 0);

    // New row count: the costed plan's iteration spaces are stale — the
    // guard must recompile, once, and keep serving the new geometry.
    let big = 256;
    let b1 = mlogreg_bindings(big, m, k, 2);
    let expect1 = script.execute_sequential(&b1);
    for _ in 0..4 {
        assert_roots_bitwise(script.execute(&b1).values(), &expect1, "reshaped geometry");
    }
    assert_eq!(engine.stats().plan_recompiles(), 1, "one recompile per new geometry");
    assert_eq!(script.recompiled_variants(), 1);

    // The original geometry still runs against the base plan.
    assert_roots_bitwise(script.execute(&b0).values(), &expect0, "declared geometry again");
    assert_eq!(engine.stats().plan_recompiles(), 1);
}

/// A *dead* node whose stale geometry becomes incompatible with the new
/// bound shapes must not break the revalidation recompile — only live
/// nodes are re-propagated (regression: `with_read_geometry` used to
/// re-infer dead hops and panic on a valid execution).
#[test]
fn shape_revalidation_ignores_dead_nodes() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 8, 4, 1.0);
    let a = b.read("A", 3, 8, 1.0);
    let _dead = b.mm(a, x); // unreachable from roots; inner dim pins X to 8 rows
    let s = b.sum(x);
    let dag = b.build(vec![s]);
    let engine = Engine::new(FusionMode::Gen);
    let script = engine.compile(&dag);
    // X grows to 16 rows: valid (the dead matmult never runs).
    let bindings = bind(&[
        ("X", generate::rand_dense(16, 4, 0.0, 1.0, 11)),
        ("A", generate::rand_dense(3, 8, 0.0, 1.0, 12)),
    ]);
    let expect = script.execute_sequential(&bindings);
    assert_roots_bitwise(script.execute(&bindings).values(), &expect, "dead-node reshape");
    assert_eq!(engine.stats().plan_recompiles(), 1);
}

/// Two DAGs whose Row operators have equal nodes and differ only in a
/// side's geometry (a row-aligned `n×8` side, a broadcast `1×8` row)
/// compile to two operators, since the plan-cache key covers the side
/// load's invariance, and each runs its own kernel: both agree with `Base`.
#[test]
fn side_geometry_gets_its_own_row_operator() {
    let dag = |s_rows| {
        let mut b = DagBuilder::new();
        let x = b.read("X", 200, 30, 1.0);
        let w = b.read("W", 30, 8, 1.0);
        let s = b.read("S", s_rows, 8, 1.0);
        let xw = b.mm(x, w);
        let p = b.mult(xw, s);
        let e = b.exp(p);
        let r = b.row_sums(e);
        b.build(vec![r])
    };
    let (gen, base) = (Engine::new(FusionMode::Gen), Engine::new(FusionMode::Base));
    for s_rows in [200, 1] {
        let bindings = bind(&[
            ("X", generate::rand_dense(200, 30, -0.3, 0.3, 1)),
            ("W", generate::rand_dense(30, 8, -0.3, 0.3, 2)),
            ("S", generate::rand_dense(s_rows, 8, -1.0, 1.0, 3)),
        ]);
        let got = gen.execute(&dag(s_rows), &bindings).values()[0].as_matrix();
        let want = base.execute(&dag(s_rows), &bindings).values()[0].as_matrix();
        assert!(got.approx_eq(&want, 1e-9), "S is {s_rows}x8");
    }
    assert_eq!(gen.plan_cache().stats(), (0, 2), "one operator per side geometry");
}

/// Runs each `(dag, bindings)` on one `Gen` engine (plan cache on) and on a
/// `Base` engine; every result must agree to 1e-9. Returns the `Gen` engine.
fn gen_agrees_with_base(cases: &[(HopDag, Bindings)]) -> Engine {
    let (gen, base) = (Engine::new(FusionMode::Gen), Engine::new(FusionMode::Base));
    for (i, (dag, bindings)) in cases.iter().enumerate() {
        let got = gen.execute(dag, bindings).values()[0].as_matrix();
        let want = base.execute(dag, bindings).values()[0].as_matrix();
        assert!(got.approx_eq(&want, 1e-9), "case {i}");
    }
    gen
}

/// `rowSums(exp(X %*% W))` for W 30×8, then 30×5, then 30×12: the width of
/// the vector-matrix product is a register length codegen bakes into the
/// program, so the plan-cache key holds it and each W gets its own operator.
#[test]
fn vector_matrix_width_gets_its_own_row_operator() {
    let case = |k| {
        let mut b = DagBuilder::new();
        let x = b.read("X", 200, 30, 1.0);
        let w = b.read("W", 30, k, 1.0);
        let xw = b.mm(x, w);
        let e = b.exp(xw);
        let r = b.row_sums(e);
        let bindings = bind(&[
            ("X", generate::rand_dense(200, 30, -0.3, 0.3, 1)),
            ("W", generate::rand_dense(30, k, -0.3, 0.3, 2)),
        ]);
        (b.build(vec![r]), bindings)
    };
    let gen = gen_agrees_with_base(&[case(8), case(5), case(12)]);
    assert_eq!(gen.plan_cache().stats(), (0, 3), "one operator per product width");
}

/// `sum(X * (U %*% t(V)))` over a sparse X at rank 8, then 4, then 12: the
/// rank is Outer geometry codegen bakes into the spec, so the plan-cache key
/// holds it and each rank gets its own operator.
#[test]
fn outer_rank_gets_its_own_operator() {
    let (n, m) = (2000, 1500);
    let case = |k| {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, 0.01);
        let u = b.read("U", n, k, 1.0);
        let v = b.read("V", m, k, 1.0);
        let vt = b.t(v);
        let uv = b.mm(u, vt);
        let p = b.mult(x, uv);
        let s = b.sum(p);
        let bindings = bind(&[
            ("X", generate::rand_matrix(n, m, -1.0, 1.0, 0.01, 3)),
            ("U", generate::rand_dense(n, k, -1.0, 1.0, 4)),
            ("V", generate::rand_dense(m, k, -1.0, 1.0, 5)),
        ]);
        (b.build(vec![s]), bindings)
    };
    let cases = [case(8), case(4), case(12)];
    let gen = gen_agrees_with_base(&cases);
    assert_eq!(gen.plan_cache().stats(), (0, 3), "one operator per rank");
    let plan = gen.plan_for(&cases[0].0);
    assert!(plan.operators.iter().any(|f| f.op.spec.template_name() == "Outer"), "an Outer plan");
}

/// `rowSums(exp((X %*% W) * S))` at n = 200, then n = 100: the iteration
/// row count is not codegen geometry (mini-batches reuse one operator), so
/// the second DAG hits the plan cache and its result still agrees with
/// `Base`.
#[test]
fn row_count_reuses_the_row_operator() {
    let case = |n| {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, 30, 1.0);
        let w = b.read("W", 30, 8, 1.0);
        let s = b.read("S", n, 8, 1.0);
        let xw = b.mm(x, w);
        let p = b.mult(xw, s);
        let e = b.exp(p);
        let r = b.row_sums(e);
        let bindings = bind(&[
            ("X", generate::rand_dense(n, 30, -0.3, 0.3, 1)),
            ("W", generate::rand_dense(30, 8, -0.3, 0.3, 2)),
            ("S", generate::rand_dense(n, 8, -1.0, 1.0, 3)),
        ]);
        (b.build(vec![r]), bindings)
    };
    let gen = gen_agrees_with_base(&[case(200), case(100)]);
    assert_eq!(gen.plan_cache().stats(), (1, 1), "one operator for both row counts");
}

/// Two engines with different configurations coexist in one process with
/// fully isolated pools and caches.
#[test]
fn engines_are_isolated() {
    let (n, m, k) = (80, 16, 3);
    let a = EngineBuilder::new(FusionMode::Gen).workers(1).memory_budget(1 << 20).build();
    let b = EngineBuilder::new(FusionMode::Gen).workers(4).build();
    let bindings = mlogreg_bindings(n, m, k, 3);
    let _ = a.execute(&mlogreg_dag(n, m, k), &bindings);

    // Engine A did work; engine B's caches and pool never saw any of it.
    assert_eq!(a.optimizer().stats.snapshot().dags_optimized, 1);
    assert_eq!(b.optimizer().stats.snapshot().dags_optimized, 0);
    assert_eq!(b.plan_cache().stats(), (0, 0));
    let bp = b.pool_stats();
    assert_eq!((bp.hits, bp.misses, bp.returns), (0, 0, 0), "pools are engine-owned");
    assert_eq!(b.stats().snapshot(), (0, 0, 0));

    // B still works independently, with its own budget.
    let out_a = a.execute(&mlogreg_dag(n, m, k), &bindings);
    let out_b = b.execute(&mlogreg_dag(n, m, k), &bindings);
    assert_roots_bitwise(out_b.values(), out_a.values(), "engines agree on results");
    assert!(a.pool().max_bytes() != b.pool().max_bytes());
}

/// Per-call scheduler deltas come back on `Outputs` (satellite: SchedSnapshot
/// deltas per execute), and the multi-intermediate chain's delta shows early
/// frees on every call, not just cumulative totals.
#[test]
fn per_call_sched_deltas_are_reported() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 300, 200, 1.0);
    let mut cur = x;
    for _ in 0..8 {
        cur = b.exp(cur);
    }
    let s = b.sum(cur);
    let dag = b.build(vec![s]);
    let engine = Engine::new(FusionMode::Base);
    let script = engine.compile(&dag);
    let bindings = bind(&[("X", generate::rand_dense(300, 200, -0.01, 0.01, 5))]);
    let first = script.execute(&bindings).sched();
    let second = script.execute(&bindings).sched();
    for (i, snap) in [first, second].into_iter().enumerate() {
        assert!(snap.bytes_freed_early > 0, "call {i}: chain frees early");
        assert!(snap.peak_bytes > 0 && snap.peak_bytes <= snap.resident_all_bytes);
    }
    // Warm call recycles through the engine pool.
    assert!(second.pool_hits > 0, "warm executions must hit the engine pool");
}

/// `t(X)`, a basic operator, beside `sum(exp(X) ⊙ X)`, a fused operator the
/// tile interpreter runs (not a pure product chain).
fn basic_and_interpreted_dag(n: usize, m: usize) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, 1.0);
    let xt = b.t(x);
    let e = b.exp(x);
    let ex = b.mult(e, x);
    let s = b.sum(ex);
    b.build(vec![xt, s])
}

/// The parts add up: 8 threads execute two force-sharded `Gen` scripts, and
/// the per-call records folded with `SchedSnapshot::absorb` equal the
/// engine's record field by field — operator counts, pool requests and shard
/// work included. A reset empties the engine's record.
#[test]
fn per_call_records_add_up_to_the_engine_record() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    let (n, m, k) = (120, 24, 3);
    let engine =
        EngineBuilder::new(FusionMode::Gen).shards(2).shard_threads(1).force_shard(true).build();
    let scripts =
        [engine.compile(&mlogreg_dag(n, m, k)), engine.compile(&basic_and_interpreted_dag(n, m))];
    let records: Vec<SchedSnapshot> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let scripts = scripts.clone();
                s.spawn(move || {
                    let bindings = mlogreg_bindings(n, m, k, 100 * t as u64 + 1);
                    let runs = (0..ROUNDS).flat_map(|_| scripts.iter());
                    runs.map(|script| script.execute(&bindings).sched()).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let mut folded = SchedSnapshot::default();
    for r in &records {
        let mut alone = SchedSnapshot::default();
        alone.absorb(r);
        assert_eq!(&alone, r, "absorbing into an empty record copies every field");
        folded.absorb(r);
    }
    assert_eq!(folded, engine.stats().scheduler_snapshot(), "the records add up to the engine's");
    assert_eq!(engine.stats().snapshot(), (folded.fused_ops, 0, folded.basic_ops));
    assert_eq!(engine.stats().mono_snapshot(), (folded.mono_ops, folded.interp_fused_ops));
    // Not vacuous: every run counted its operators and sharded its fused
    // operator, and warm runs hit the pool.
    let runs = THREADS * ROUNDS;
    assert_eq!(folded.fused_ops, 2 * runs, "{folded:?}");
    assert!(folded.mono_ops >= runs && folded.interp_fused_ops >= runs, "{folded:?}");
    assert!(folded.basic_ops >= runs, "{folded:?}");
    assert!(folded.sharded_ops >= runs && folded.shards_used == 2, "{folded:?}");
    assert!(folded.pool_hits > 0 && folded.peak_bytes > 0, "{folded:?}");

    engine.stats().reset();
    assert_eq!(engine.stats().scheduler_snapshot(), SchedSnapshot::default());
    assert_eq!(engine.stats().snapshot(), (0, 0, 0));
}
