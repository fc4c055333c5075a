#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Engine reuse after failure: the recovery half of the failure-safety
//! contract. A worker panic or an exhausted spill-I/O retry must leave the
//! engine's pool, caches, and spill directory fully reusable — pinned by
//! executing again on the *same* engine and demanding bitwise-correct
//! results — and a poisoned request must never take down sibling serving
//! threads.

mod common;

use common::assert_roots_bitwise;
use fusedml_hop::interp::{bind, Bindings};
use fusedml_hop::{DagBuilder, HopDag};
use fusedml_linalg::fault::{FaultPlan, FaultSite};
use fusedml_linalg::generate;
use fusedml_runtime::{Engine, EngineBuilder, ExecError, FusionMode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A chain whose anchor stays live to the end: under a two-value budget the
/// anchor must spill and fault back, so the spill-I/O fault sites are
/// guaranteed to be visited.
fn spilling_workload(rows: usize, cols: usize) -> (HopDag, Bindings) {
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, 1.0);
    let anchor = b.exp(x);
    let mut cur = anchor;
    for _ in 0..6 {
        cur = b.sq(cur);
    }
    let s = b.sum(cur);
    let sa = b.sum(anchor);
    let dag = b.build(vec![s, sa]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(rows, cols, 0.9, 1.1, 7));
    (dag, bindings)
}

/// A worker panic becomes `ExecError::WorkerPanic` naming the op, and the
/// same engine executes bitwise-correctly afterwards.
#[test]
fn worker_panic_leaves_engine_reusable() {
    std::panic::set_hook(Box::new(|_| {}));
    let (dag, bindings) = spilling_workload(80, 60);
    let reference = Engine::new(FusionMode::Gen).execute(&dag, &bindings).into_values();

    let plan = Arc::new(FaultPlan::seeded(3).rate(FaultSite::TaskPanic, 1.0).max_faults(1));
    let engine = EngineBuilder::new(FusionMode::Gen)
        .fault_plan(Arc::clone(&plan))
        .verify_plans(true)
        .build();
    match engine.try_execute(&dag, &bindings) {
        Err(ExecError::WorkerPanic { op, message }) => {
            assert!(!op.is_empty(), "the error names the failing op");
            assert!(message.contains("injected task panic"), "payload preserved: {message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    drop(std::panic::take_hook());
    assert_eq!(engine.stats().failed_executions(), 1);
    assert_eq!(engine.stats().scheduler_snapshot().injected_faults, 1);

    // The fault budget is spent: no disarm needed, the engine just works.
    let out = engine.try_execute(&dag, &bindings).expect("engine reusable after a panic");
    assert_roots_bitwise(out.values(), &reference, "post-panic");
    assert_eq!(engine.store().spill_file_count(), 0);
}

/// Exhausted spill-read retries surface as `SpillIo { during: "read" }` with
/// the `io::Error` source preserved; disarming and re-executing on the same
/// engine is bitwise-correct and leaks no temp files.
#[test]
fn spill_read_failure_leaves_engine_reusable() {
    let (rows, cols) = (120, 80);
    let (dag, bindings) = spilling_workload(rows, cols);
    let reference = Engine::new(FusionMode::Base).execute(&dag, &bindings).into_values();

    let plan = Arc::new(FaultPlan::seeded(11).rate(FaultSite::SpillRead, 1.0));
    let engine = EngineBuilder::new(FusionMode::Base)
        .memory_budget(2 * 8 * rows * cols)
        .workers(1)
        .fault_plan(Arc::clone(&plan))
        .verify_plans(true)
        .build();
    match engine.try_execute(&dag, &bindings) {
        Err(e @ ExecError::SpillIo { during: "read", .. }) => {
            assert!(std::error::Error::source(&e).is_some(), "io source preserved");
        }
        other => panic!("expected a spill read failure, got {other:?}"),
    }
    let sched = engine.stats().scheduler_snapshot();
    assert!(sched.spill_retries > 0, "reads must retry before giving up");
    assert_eq!(engine.store().spill_file_count(), 0, "failed run discards its spill files");

    plan.disarm();
    let out = engine.try_execute(&dag, &bindings).expect("engine reusable after spill I/O loss");
    assert_roots_bitwise(out.values(), &reference, "post-spill-failure");
    assert_eq!(engine.store().spill_file_count(), 0);
}

/// Spill *write* failures never fail the run: after the retries exhaust, the
/// engine degrades to resident-only execution and still answers bitwise-
/// correctly (the value was never lost — it is still in memory).
#[test]
fn spill_write_failure_degrades_to_resident() {
    let (rows, cols) = (120, 80);
    let (dag, bindings) = spilling_workload(rows, cols);
    let reference = Engine::new(FusionMode::Base).execute(&dag, &bindings).into_values();

    let plan = Arc::new(FaultPlan::seeded(13).rate(FaultSite::SpillWrite, 1.0));
    let engine = EngineBuilder::new(FusionMode::Base)
        .memory_budget(2 * 8 * rows * cols)
        .workers(1)
        .fault_plan(Arc::clone(&plan))
        .verify_plans(true)
        .build();
    let out = engine.try_execute(&dag, &bindings).expect("write loss degrades, not fails");
    assert_roots_bitwise(out.values(), &reference, "degraded run");
    let sched = engine.stats().scheduler_snapshot();
    assert!(sched.spill_retries > 0, "writes must retry before degrading");
    assert_eq!(sched.degraded, 1, "the run records its degrade to resident-only");
    assert_eq!(sched.spilled_bytes, 0, "nothing landed on disk");
    assert_eq!(engine.store().spill_file_count(), 0);
}

/// The serving regression: eight threads share one engine; a fault budget of
/// one panic poisons exactly one request. The other threads' requests — and
/// later requests on the poisoned thread — all serve bitwise-correctly.
#[test]
fn poisoned_request_spares_sibling_threads() {
    std::panic::set_hook(Box::new(|_| {}));
    let (batch, features, classes) = (64, 32, 8);
    let mut b = DagBuilder::new();
    let x = b.read("X", batch, features, 1.0);
    let w = b.read("W", features, classes, 1.0);
    let scores = b.mm(x, w);
    let best = b.row_maxs(scores);
    let dag = b.build(vec![scores, best]);
    let weights = generate::rand_dense(features, classes, -0.5, 0.5, 42);

    let plan = Arc::new(FaultPlan::seeded(17).rate(FaultSite::TaskPanic, 1.0).max_faults(1));
    let engine = EngineBuilder::new(FusionMode::Gen)
        .fault_plan(Arc::clone(&plan))
        .verify_plans(true)
        .build();
    let script = engine.compile(&dag);
    let reference_engine = Engine::new(FusionMode::Gen);

    let threads = 8;
    let per_thread = 12;
    let failed = AtomicUsize::new(0);
    let served = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let script = script.clone();
            let weights = weights.clone();
            let reference_engine = reference_engine.clone();
            let (failed, served, dag) = (&failed, &served, &dag);
            s.spawn(move || {
                for r in 0..per_thread {
                    let seed = (t * per_thread + r + 1) as u64;
                    let batch_x = generate::rand_dense(batch, features, -1.0, 1.0, seed);
                    let bindings = bind(&[("X", batch_x), ("W", weights.clone())]);
                    match script.try_execute(&bindings) {
                        Ok(out) => {
                            let expect = reference_engine.execute(dag, &bindings).into_values();
                            assert_roots_bitwise(
                                out.values(),
                                &expect,
                                &format!("thread {t} request {r}"),
                            );
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ExecError::WorkerPanic { .. }) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
    });
    drop(std::panic::take_hook());
    assert_eq!(failed.load(Ordering::Relaxed), 1, "exactly one poisoned request");
    assert_eq!(served.load(Ordering::Relaxed), threads * per_thread - 1);
    assert_eq!(engine.stats().failed_executions(), 1);
}

/// Binding defects are typed, not panics: a missing input and a mis-shaped
/// input each come back as their own error variant, and neither perturbs
/// the engine.
#[test]
fn binding_defects_are_typed() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 32, 16, 1.0);
    let y = b.read("Y", 32, 16, 1.0);
    let m = b.mult(x, y);
    let s = b.sum(m);
    let dag = b.build(vec![s]);
    let engine = Engine::new(FusionMode::Gen);

    let only_x = bind(&[("X", generate::rand_dense(32, 16, 0.0, 1.0, 1))]);
    match engine.try_execute(&dag, &only_x) {
        Err(ExecError::UnboundInput { name }) => assert_eq!(name, "Y"),
        other => panic!("expected UnboundInput, got {other:?}"),
    }

    // Mutually inconsistent shapes (`X ⊙ Y` admits no 32×16 with 8×4):
    // geometry revalidation rejects them, typed against the first input
    // that left its declared shape, and caches no variant for them.
    let script = engine.compile(&dag);
    let wrong_shape = bind(&[
        ("X", generate::rand_dense(32, 16, 0.0, 1.0, 1)),
        ("Y", generate::rand_dense(8, 4, 0.0, 1.0, 2)),
    ]);
    for _ in 0..2 {
        match engine.try_execute(&dag, &wrong_shape) {
            Err(ExecError::ShapeMismatch { name, expected, bound }) => {
                assert_eq!(name, "Y");
                assert_eq!(expected, (32, 16));
                assert_eq!(bound, (8, 4));
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }
    assert_eq!(script.recompiled_variants(), 0, "a rejected geometry caches no variant");
    assert_eq!(engine.stats().plan_recompiles(), 0);
    assert_eq!(engine.stats().failed_executions(), 3, "every rejected binding is counted");

    // Neither defect perturbed the engine: it serves the declared shapes
    // bitwise-equal to an engine that never saw a bad binding.
    let good = bind(&[
        ("X", generate::rand_dense(32, 16, 0.0, 1.0, 1)),
        ("Y", generate::rand_dense(32, 16, 0.0, 1.0, 2)),
    ]);
    let out = engine.try_execute(&dag, &good).expect("engine unaffected by rejected bindings");
    let reference = Engine::new(FusionMode::Gen).execute(&dag, &good).into_values();
    assert_roots_bitwise(out.values(), &reference, "after rejected bindings");
    assert_eq!(script.recompiled_variants(), 0);
}

/// A compiled script compares the bound shapes with the compiled ones once
/// and, on a match, runs without checking anything else; every other
/// binding takes the full path with the errors and counters it always had:
/// a missing input is `UnboundInput`, a consistent new geometry is one
/// counted recompile, and mutually inconsistent shapes are the bind error of
/// the first input that left its declared shape.
#[test]
fn compiled_script_binding_errors_are_unchanged() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 64, 128, 1.0);
    let w = b.read("W", 128, 10, 1.0);
    let scores = b.mm(x, w);
    let best = b.row_maxs(scores);
    let dag = b.build(vec![scores, best]);
    let engine = Engine::new(FusionMode::Gen);
    let script = engine.compile(&dag);
    let x0 = generate::rand_dense(64, 128, -1.0, 1.0, 1);

    // The declared shapes, with and without an input the DAG does not read.
    let good = bind(&[("X", x0.clone()), ("W", generate::rand_dense(128, 10, -1.0, 1.0, 2))]);
    let want = script.execute_sequential(&good);
    let mut extra = good.clone();
    extra.insert("Z".into(), generate::rand_dense(3, 3, 0.0, 1.0, 3));
    for bindings in [&good, &extra] {
        let out = script.try_execute(bindings).expect("declared shapes execute");
        assert_roots_bitwise(out.values(), &want, "declared shapes");
    }

    match script.try_execute(&bind(&[("X", x0.clone())])) {
        Err(ExecError::UnboundInput { name }) => assert_eq!(name, "W"),
        other => panic!("expected UnboundInput, got {other:?}"),
    }

    // A consistent new geometry: one counted recompile, then served from it.
    let narrow = bind(&[("X", x0.clone()), ("W", generate::rand_dense(128, 3, -1.0, 1.0, 4))]);
    let want_narrow = script.execute_sequential(&narrow);
    for _ in 0..2 {
        let out = script.try_execute(&narrow).expect("a consistent geometry recompiles");
        assert_roots_bitwise(out.values(), &want_narrow, "reshaped W");
    }
    assert_eq!(script.recompiled_variants(), 1);
    assert_eq!(engine.stats().plan_recompiles(), 1);

    // `X %*% W` admits no 100-row `W` beside a 128-column `X`.
    let inconsistent = bind(&[("X", x0), ("W", generate::rand_dense(100, 10, -1.0, 1.0, 5))]);
    match script.try_execute(&inconsistent) {
        Err(ExecError::ShapeMismatch { name, expected, bound }) => {
            assert_eq!(name, "W");
            assert_eq!(expected, (128, 10));
            assert_eq!(bound, (100, 10));
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    assert_eq!(script.recompiled_variants(), 1, "a rejected geometry caches no variant");
    assert_eq!(engine.stats().failed_executions(), 2, "both rejected bindings are counted");

    // And the declared shapes still run against the base plan.
    let out = script.try_execute(&good).expect("declared shapes execute");
    assert_roots_bitwise(out.values(), &want, "declared shapes again");
    assert_eq!(engine.stats().plan_recompiles(), 1);
}
