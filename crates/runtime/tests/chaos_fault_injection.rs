#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Chaos property suite: random DAGs × fusion modes × seeded fault
//! schedules. The failure-safety contract under test:
//!
//! * an execution with faults injected either returns `Ok` **bitwise equal**
//!   to the fault-free run (transient faults retried or degraded away) or a
//!   clean typed `Err` — never a process panic, never a wrong answer;
//! * after any outcome, a fault-free re-execute **on the same engine** is
//!   bitwise-correct — failed runs sweep their slots, return pooled
//!   buffers, and discard spill tokens;
//! * no spill temp files leak: the engine's spill directory is empty after
//!   every execution, successful or failed.
//!
//! The fault schedules are deterministic in the plan seed (decisions hash
//! `(seed, site, draw-index)`), so a failing seed reproduces.

mod common;

use common::assert_roots_bitwise;
use fusedml_hop::interp::Bindings;
use fusedml_hop::{DagBuilder, HopDag, HopId};
use fusedml_linalg::fault::{FaultPlan, FaultSite};
use fusedml_linalg::generate;
use fusedml_runtime::{Engine, ExecError, FusionMode};
use std::sync::Arc;

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed-derived random DAG in the same family as the spill differential
/// property test: a chain with shared subexpressions and three roots, every
/// value large enough to be spill-eligible under a two-value budget.
fn random_dag(seed: u64) -> (HopDag, Bindings, usize, usize) {
    let mut s = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
    let rows = 40 + (splitmix64(&mut s) % 60) as usize;
    let cols = 20 + (splitmix64(&mut s) % 40) as usize;
    let n_ops = 4 + (splitmix64(&mut s) % 8) as usize;
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, 1.0);
    let y = b.read("Y", rows, cols, 1.0);
    let v = b.read("v", rows, 1, 1.0);
    let mut cur: HopId = x;
    let mut prev: HopId = y;
    for i in 0..n_ops {
        let next = match splitmix64(&mut s) % 10 {
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
    let sum = b.sum(cur);
    let rs = b.row_sums(cur);
    let sp = b.sum(prev);
    let dag = b.build(vec![sum, rs, sp]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(rows, cols, 0.5, 1.5, seed + 1));
    bindings.insert("Y".into(), generate::rand_dense(rows, cols, 0.5, 1.5, seed + 2));
    bindings.insert("v".into(), generate::rand_dense(rows, 1, 1.0, 2.0, seed + 3));
    (dag, bindings, rows, cols)
}

/// The headline property over a fixed seed matrix: 20 fault schedules × 3
/// fusion modes, each under a tight budget (so the spill sites actually get
/// visited) with two workers (so panic isolation crosses threads).
#[test]
fn chaos_matrix_ok_is_bitwise_err_is_clean_and_engine_survives() {
    // The injected panic fires inside the engine's catch; keep the default
    // hook from spraying backtraces over the test output.
    std::panic::set_hook(Box::new(|_| {}));
    let mut injected_total = 0u64;
    let mut failures = 0usize;
    let mut successes = 0usize;
    for seed in 0..20u64 {
        let (dag, bindings, rows, cols) = random_dag(seed);
        for mode in [FusionMode::Base, FusionMode::Gen, FusionMode::GenFA] {
            let tag = format!("seed {seed} mode {mode:?}");
            // Fault-free reference from a pristine engine.
            let reference = Engine::new(mode).execute(&dag, &bindings).into_values();

            let plan = Arc::new(
                FaultPlan::seeded(seed)
                    .rate(FaultSite::SpillWrite, 0.3)
                    .rate(FaultSite::SpillRead, 0.2)
                    .rate(FaultSite::Alloc, 0.05)
                    .rate(FaultSite::TaskExec, 0.1)
                    .rate(FaultSite::TaskPanic, 0.1),
            );
            let engine = Engine::builder(mode)
                .memory_budget(2 * 8 * rows * cols)
                .workers(2)
                .fault_plan(Arc::clone(&plan))
                .verify_plans(true)
                .build();

            match engine.try_execute(&dag, &bindings) {
                Ok(out) => {
                    successes += 1;
                    assert_roots_bitwise(out.values(), &reference, &tag);
                }
                Err(e) => {
                    failures += 1;
                    // A clean typed error, not a panic: rendering it and
                    // taking its source must both work.
                    let _ = e.to_string();
                    let _ = std::error::Error::source(&e);
                }
            }
            assert_eq!(
                engine.store().spill_file_count(),
                0,
                "{tag}: no spill temp files may survive an execution"
            );

            // Recovery invariant: disarm the faults and the *same* engine
            // must produce bitwise-correct results — twice, to catch state
            // corrupted by the first recovery itself.
            plan.disarm();
            for round in 0..2 {
                let out = engine
                    .try_execute(&dag, &bindings)
                    .unwrap_or_else(|e| panic!("{tag}: fault-free re-execute {round} failed: {e}"));
                assert_roots_bitwise(out.values(), &reference, &format!("{tag} re-exec {round}"));
                assert_eq!(engine.store().spill_file_count(), 0, "{tag} re-exec {round}");
            }
            injected_total += plan.total_injected();
        }
    }
    drop(std::panic::take_hook());
    assert!(injected_total > 0, "the fault matrix must actually inject faults");
    assert!(failures > 0, "some schedules must fail (otherwise the rates are too low to test)");
    assert!(successes > 0, "some schedules must survive (retry/degrade paths must matter)");
}

/// Rate 1.0 on the non-panicking task site with an unlimited budget: every
/// schedule fails, deterministically, with the typed `Injected` error.
#[test]
fn saturated_task_faults_always_err() {
    let (dag, bindings, _, _) = random_dag(99);
    let plan = Arc::new(FaultPlan::seeded(7).rate(FaultSite::TaskExec, 1.0));
    let engine =
        Engine::builder(FusionMode::Gen).fault_plan(Arc::clone(&plan)).verify_plans(true).build();
    for _ in 0..3 {
        match engine.try_execute(&dag, &bindings) {
            Err(ExecError::Injected { site: FaultSite::TaskExec, .. }) => {}
            other => panic!("expected an injected task failure, got {other:?}"),
        }
    }
    assert_eq!(engine.stats().failed_executions(), 3);
    plan.disarm();
    let reference = Engine::new(FusionMode::Gen).execute(&dag, &bindings).into_values();
    let out = engine.try_execute(&dag, &bindings).expect("disarmed engine executes");
    assert_roots_bitwise(out.values(), &reference, "post-saturation recovery");
}

/// An armed plan whose rates are all zero must be invisible: `Ok`, bitwise
/// equal, zero injections.
#[test]
fn zero_rate_plan_is_invisible() {
    let (dag, bindings, rows, cols) = random_dag(5);
    let plan = Arc::new(FaultPlan::seeded(1));
    let engine = Engine::builder(FusionMode::Gen)
        .memory_budget(2 * 8 * rows * cols)
        .fault_plan(Arc::clone(&plan))
        .verify_plans(true)
        .build();
    let reference = Engine::new(FusionMode::Gen).execute(&dag, &bindings).into_values();
    let out = engine.try_execute(&dag, &bindings).expect("zero rates never fail");
    assert_roots_bitwise(out.values(), &reference, "zero-rate plan");
    assert_eq!(plan.total_injected(), 0);
    assert_eq!(engine.stats().scheduler_snapshot().injected_faults, 0);
}
