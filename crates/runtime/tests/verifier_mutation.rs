#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Verifier mutation suite: corrupt each invariant class of a known-good
//! compiled artifact and assert the verifier rejects it with the *specific*
//! typed [`VerifyError`] variant — not just any error. Together with
//! `verifier_fuzz.rs` (no false positives) this pins the verifier from both
//! sides: it accepts everything the compiler produces and rejects every
//! class of corruption it claims to check.

use std::sync::Arc;

use fusedml_core::codegen::GeneratedOperator;
use fusedml_core::optimizer::{optimize, FusionPlan};
use fusedml_core::spoof::block::{compile_kernel, compile_row_kernel, BlockKernel, Kernel};
use fusedml_core::spoof::mono::{Product, ShapeClass};
use fusedml_core::spoof::{FusedSpec, Instr, Program, RowOut, RowSpec, SideAccess};
use fusedml_hop::liveness::{self, Liveness};
use fusedml_hop::{DagBuilder, HopDag, HopId};
use fusedml_linalg::ops::{AggOp, BinaryOp, UnaryOp};
use fusedml_runtime::schedule::{self, TaskGraph};
use fusedml_runtime::verify::{
    check_mono_shapes, check_residency_trace, check_row_kernel, verify_compiled, SlotState,
    SlotTransition,
};
use fusedml_runtime::{FusionMode, VerifyError};

/// `sum(exp(X)) + sum(X^2)`-style artifact set: one fused operator in Gen
/// mode (exp is *not* sparse-safe, which the sparse-claim mutation relies
/// on), everything basic in Base mode.
struct Artifacts {
    dag: HopDag,
    plan: Option<FusionPlan>,
    graph: TaskGraph,
    facts: Liveness,
    /// The exp hop (live, non-leaf) for shape mutations.
    exp: HopId,
}

fn artifacts(mode: FusionMode) -> Artifacts {
    let mut b = DagBuilder::new();
    let x = b.read("X", 40, 20, 1.0);
    let e = b.exp(x);
    let s = b.sum(e);
    let q = b.sum_sq(x);
    let dag = b.build(vec![s, q]);
    let plan = match mode {
        FusionMode::Base => None,
        _ => Some(optimize(&dag, mode)),
    };
    let graph = schedule::prepare(&dag, plan.as_ref(), None);
    let facts = liveness::analyze(&dag);
    Artifacts { dag, plan, graph, facts, exp: e }
}

fn verify(a: &Artifacts) -> Result<(), VerifyError> {
    verify_compiled(&a.dag, a.plan.as_ref(), &a.graph, &a.facts)
}

/// Baseline: the uncorrupted artifacts verify clean in both modes, so every
/// failure below is attributable to its mutation alone.
#[test]
fn clean_artifacts_verify_ok() {
    for mode in [FusionMode::Base, FusionMode::Gen] {
        let a = artifacts(mode);
        if matches!(mode, FusionMode::Gen) {
            assert!(
                a.plan.as_ref().is_some_and(|p| !p.operators.is_empty()),
                "Gen mode must fuse sum(exp(X)) — the mutations below corrupt that operator"
            );
        }
        verify(&a).unwrap_or_else(|e| panic!("{mode:?} baseline rejected: {e}"));
    }
}

/// Corruption 1 — register program reads a register no instruction defined.
#[test]
fn dangling_register_rejected() {
    let mut a = artifacts(FusionMode::Gen);
    {
        let plan = a.plan.as_mut().unwrap();
        let op = Arc::make_mut(&mut plan.operators[0].op);
        let prog = match &mut op.spec {
            FusedSpec::Cell(c) => &mut c.prog,
            FusedSpec::MAgg(m) => &mut m.prog,
            FusedSpec::Row(r) => &mut r.prog,
            FusedSpec::Outer(o) => &mut o.prog,
        };
        // A brand-new register nothing defines, read immediately.
        let undefined = prog.n_regs;
        prog.n_regs += 1;
        prog.instrs.push(Instr::Unary { out: 0, op: UnaryOp::Abs, a: undefined });
    }
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::DanglingRegister { .. }), "got {err:?}");
}

/// Corruption 2 — cached liveness facts drift from the DAG they describe.
#[test]
fn stale_liveness_rejected() {
    let mut a = artifacts(FusionMode::Base);
    a.facts.consumers[0] += 1;
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::StaleLiveness { .. }), "got {err:?}");
}

/// Corruption 3 — a fused operator claims sparse safety for a program that
/// is not zero-preserving (`exp(0) = 1`).
#[test]
fn sparse_overclaim_rejected() {
    let mut a = artifacts(FusionMode::Gen);
    {
        let plan = a.plan.as_mut().unwrap();
        let op = Arc::make_mut(&mut plan.operators[0].op);
        match &mut op.spec {
            FusedSpec::Cell(c) => c.sparse_safe = true,
            FusedSpec::MAgg(m) => m.sparse_safe = true,
            FusedSpec::Outer(o) => o.sparse_safe = true,
            FusedSpec::Row(_) => panic!("sum(exp(X)) must not compile as a Row operator"),
        }
    }
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::SparseClaim { .. }), "got {err:?}");
}

/// Corruption 4 — a task-graph read-occurrence refcount is off by one.
#[test]
fn refcount_mismatch_rejected() {
    let mut a = artifacts(FusionMode::Base);
    a.graph.reads_mut()[0] += 1;
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::RefcountMismatch { hop: 0, .. }), "got {err:?}");
}

/// Corruption 5 — a leaf input marked spill-eligible (leaves are pinned:
/// they are caller-owned and must never enter the eviction pool).
#[test]
fn leaf_spill_eligibility_rejected() {
    let mut a = artifacts(FusionMode::Base);
    a.graph.spill_ok_mut()[0] = true; // hop 0 is the Read leaf
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::SpillEligibility { hop: 0, .. }), "got {err:?}");
}

/// Corruption 6 — a task's output-byte estimate disagrees with the size
/// estimator the spill planner uses.
#[test]
fn task_bytes_mismatch_rejected() {
    let mut a = artifacts(FusionMode::Base);
    a.graph.task_out_bytes_mut()[0] += 8;
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::TaskBytesMismatch { task: 0, .. }), "got {err:?}");
}

/// Corruption 7 — a stored hop size drifts from what re-inference gives
/// (the compile-once/execute-many hazard `FusionPlan::matches` guards).
#[test]
fn shape_drift_rejected() {
    let mut a = artifacts(FusionMode::Base);
    let exp = a.exp;
    a.dag.hop_mut(exp).size.rows += 1;
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::ShapeDrift { .. }), "got {err:?}");
}

/// Corruption 8 — two fused operators both claim the same output hop.
#[test]
fn overlapping_fused_write_rejected() {
    let mut a = artifacts(FusionMode::Gen);
    {
        let plan = a.plan.as_mut().unwrap();
        let dup = plan.operators[0].clone();
        plan.operators.push(dup);
    }
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::OverlappingFusedWrite { .. }), "got {err:?}");
}

/// Corruption 9 — the plan's structural hash no longer matches the DAG it
/// is bound to (geometry changed after costing).
#[test]
fn plan_geometry_mismatch_rejected() {
    let mut a = artifacts(FusionMode::Gen);
    a.plan.as_mut().unwrap().dag_hash ^= 1;
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::PlanGeometryMismatch { .. }), "got {err:?}");
}

/// Corruption 10 — task-graph side tables truncated (field-length drift).
#[test]
fn truncated_reads_rejected() {
    let mut a = artifacts(FusionMode::Base);
    a.graph.reads_mut().pop();
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::TaskGraphMalformed { .. }), "got {err:?}");
}

/// Corruption 11 — a residency trace records a transition the slot state
/// machine forbids (`Resident → Loading` skips the eviction protocol).
#[test]
fn illegal_residency_transition_rejected() {
    let trace = vec![
        SlotTransition { slot: 0, from: SlotState::Empty, to: SlotState::Resident },
        SlotTransition { slot: 0, from: SlotState::Resident, to: SlotState::Loading },
    ];
    let err = check_residency_trace(1, &trace).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::ResidencyViolation {
                slot: 0,
                from: SlotState::Resident,
                to: SlotState::Loading,
                step: 1,
            }
        ),
        "got {err:?}"
    );
}

/// Corruption 12 — a trace whose replayed state disagrees with a recorded
/// from-state (the recorder lost an event).
#[test]
fn residency_state_drift_rejected() {
    // Slot 0 was never made Resident, yet the trace claims to evict it.
    let trace =
        vec![SlotTransition { slot: 0, from: SlotState::Resident, to: SlotState::Evicting }];
    let err = check_residency_trace(1, &trace).unwrap_err();
    assert!(matches!(err, VerifyError::ResidencyViolation { slot: 0, step: 0, .. }), "got {err:?}");
}

/// Corruption 13 — a trace that ends with a non-empty slot (a leaked
/// residency: the run finished but a value never left its slot).
#[test]
fn leaked_final_residency_rejected() {
    let trace = vec![SlotTransition { slot: 0, from: SlotState::Empty, to: SlotState::Resident }];
    let err = check_residency_trace(1, &trace).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::ResidencyViolation {
                slot: 0,
                from: SlotState::Resident,
                to: SlotState::Empty,
                step: 1,
            }
        ),
        "got {err:?}"
    );
}

/// A hand-built Row spec whose per-row body consumes the main row
/// element-wise: `rowSums(abs(X))`.
fn dense_main_row_spec(n: usize, m: usize) -> RowSpec {
    RowSpec {
        prog: Program {
            instrs: vec![
                Instr::LoadMainRow { out: 0 },
                Instr::VecUnary { out: 1, op: UnaryOp::Abs, a: 0 },
                Instr::VecAgg { out: 0, op: AggOp::Sum, a: 1 },
            ],
            n_regs: 1,
            vreg_lens: vec![m, m],
        },
        out: RowOut::RowAgg { src: 0 },
        out_rows: n,
        out_cols: 1,
    }
}

/// Corruption 14 — a Row kernel claims `sparse_main_ok` although its
/// per-row body consumes the main row element-wise (missing zeros would be
/// skipped on sparse inputs).
#[test]
fn row_kernel_sparse_overclaim_rejected() {
    let spec = dense_main_row_spec(8, 6);
    let mut kernel = compile_row_kernel(&spec, &[]);
    assert!(!kernel.sparse_main_ok, "abs consumes the main row densely");
    check_row_kernel(0, &spec, &[], &kernel).expect("honest kernel verifies");
    kernel.sparse_main_ok = true;
    let err = check_row_kernel(0, &spec, &[], &kernel).unwrap_err();
    assert!(matches!(err, VerifyError::SparseClaim { .. }), "got {err:?}");
}

/// Corruption 15 — a per-row instruction hoisted into the invariant
/// section (a main-row load is never loop-invariant).
#[test]
fn row_kernel_hoisted_main_load_rejected() {
    let spec = dense_main_row_spec(8, 6);
    let mut kernel = compile_row_kernel(&spec, &[]);
    kernel.invariant.insert(0, Instr::LoadMainRow { out: 0 });
    let err = check_row_kernel(0, &spec, &[], &kernel).unwrap_err();
    assert!(matches!(err, VerifyError::NotLoopInvariant { .. }), "got {err:?}");
}

/// Corruption 16 — a block kernel whose stored product is not the one its
/// block program classifies into: `X ⊙ Y` is the main input times gather
/// slot 0, and the product stored in its place would multiply the main
/// input by itself; a product stored for nothing, and none stored for a
/// chain, are rejected the same way.
#[test]
fn mono_shape_mismatch_rejected() {
    let prog = Program {
        instrs: vec![
            Instr::LoadMain { out: 0 },
            Instr::LoadSide { out: 1, side: 0, access: SideAccess::Cell },
            Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
        ],
        n_regs: 3,
        vreg_lens: vec![],
    };
    let mut kernel = compile_kernel(&prog);
    assert_eq!(kernel.mono_for(2), Some(&Product { mains: 1, slots: vec![0] }));
    check_mono_shapes(0, &kernel, &[2]).expect("honest kernel verifies");
    for corrupt in [Some(Product { mains: 2, slots: vec![] }), None] {
        kernel.mono[2] = corrupt;
        let err = check_mono_shapes(0, &kernel, &[2]).unwrap_err();
        assert!(matches!(err, VerifyError::MonoShapeMismatch { .. }), "got {err:?}");
    }
}

/// Corruption 17 — the kernel an operator carries is not the one its
/// program lowers to. A product stored for the `exp` result fails the mono
/// audit of the stored kernel; a kernel at another tile width, or a stored
/// class the kernel does not run under, passes the audits and fails the
/// comparison with a fresh lowering.
#[test]
fn stored_kernel_mutations_rejected() {
    let corrupt = |mutate: &dyn Fn(&mut GeneratedOperator)| {
        let mut a = artifacts(FusionMode::Gen);
        mutate(Arc::make_mut(&mut a.plan.as_mut().unwrap().operators[0].op));
        verify(&a).unwrap_err()
    };
    let block = |op: &mut GeneratedOperator, mutate: &dyn Fn(&mut BlockKernel)| match &mut op.kernel
    {
        Kernel::Block(k) => mutate(k),
        Kernel::Row(_) => panic!("sum(exp(X)) must not compile as a Row operator"),
    };
    let err = corrupt(&|op| block(op, &|k| k.mono[1] = Some(Product { mains: 1, slots: vec![] })));
    assert!(matches!(err, VerifyError::MonoShapeMismatch { .. }), "got {err:?}");
    let err = corrupt(&|op| block(op, &|k| k.width = 8));
    assert!(matches!(err, VerifyError::StaleKernel { .. }), "got {err:?}");
    let err = corrupt(&|op| op.class = ShapeClass::RowTile);
    assert!(matches!(err, VerifyError::StaleKernel { .. }), "got {err:?}");
}

/// The corrupted-artifact rejection also surfaces through the public
/// engine path: `Engine::try_compile` folds [`VerifyError`] into
/// [`fusedml_runtime::ExecError::Verify`] instead of panicking.
#[test]
fn engine_surfaces_verify_error_as_typed_exec_error() {
    // A healthy DAG compiles fine; this guards the plumbing, not a
    // corruption (the engine never produces corrupt artifacts itself, which
    // is exactly what the fuzz suite asserts).
    let mut b = DagBuilder::new();
    let x = b.read("X", 10, 10, 1.0);
    let e = b.exp(x);
    let s = b.sum(e);
    let dag = b.build(vec![s]);
    let engine = fusedml_runtime::EngineBuilder::new(FusionMode::Gen).verify_plans(true).build();
    assert!(engine.try_compile(&dag).is_ok());
}
