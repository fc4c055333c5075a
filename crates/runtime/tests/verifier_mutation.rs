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
use fusedml_core::spoof::block::{BlockKernel, Kernel, RowKernel};
use fusedml_core::spoof::mono::{Product, ShapeClass};
use fusedml_core::spoof::{FusedSpec, Instr, Program};
use fusedml_hop::{DagBuilder, HopDag, HopId};
use fusedml_linalg::ops::UnaryOp;
use fusedml_runtime::schedule::{self, TaskGraph};
use fusedml_runtime::verify::{check_residency_trace, verify_compiled, SlotState, SlotTransition};
use fusedml_runtime::{FusionMode, VerifyError};

/// `sum(exp(X)) + sum(X^2)`-style artifact set: one fused operator in Gen
/// mode (exp is *not* sparse-safe, which the sparse-claim mutation relies
/// on), everything basic in Base mode.
struct Artifacts {
    dag: HopDag,
    plan: Option<FusionPlan>,
    graph: TaskGraph,
    /// The exp hop (live, non-leaf) for shape mutations.
    exp: HopId,
}

fn artifacts(mode: FusionMode) -> Artifacts {
    let mut b = DagBuilder::new();
    let x = b.read("X", 40, 20, 1.0);
    let e = b.exp(x);
    let s = b.sum(e);
    let q = b.sum_sq(x);
    compiled(b.build(vec![s, q]), mode, e)
}

/// The artifacts `Engine::compile` builds for `dag` under `mode`.
fn compiled(dag: HopDag, mode: FusionMode, exp: HopId) -> Artifacts {
    let plan = match mode {
        FusionMode::Base => None,
        _ => Some(optimize(&dag, mode)),
    };
    let graph = schedule::prepare(&dag, plan.as_ref(), None);
    Artifacts { dag, plan, graph, exp }
}

/// `rowSums(exp(X) %*% W)` under `Gen`: one Row operator whose per-row body
/// consumes the main row element-wise (`exp`), so its honest kernel is not
/// `sparse_main_ok`.
fn row_artifacts() -> Artifacts {
    let mut b = DagBuilder::new();
    let x = b.read("X", 40, 20, 1.0);
    let w = b.read("W", 20, 5, 1.0);
    let e = b.exp(x);
    let m = b.mm(e, w);
    let s = b.row_sums(m);
    let a = compiled(b.build(vec![s]), FusionMode::Gen, e);
    verify(&a).expect("the honest Row artifacts verify");
    a
}

/// Operator 0 of `a`'s plan, for corruption.
fn operator(a: &mut Artifacts) -> &mut GeneratedOperator {
    Arc::make_mut(&mut a.plan.as_mut().unwrap().operators[0].op)
}

/// Corrupts the Row kernel operator 0 of `a` carries; returns the
/// verifier's verdict.
fn corrupt_row_kernel(mut a: Artifacts, mutate: impl Fn(&mut RowKernel)) -> VerifyError {
    match &mut operator(&mut a).kernel {
        Kernel::Row(k) => mutate(k),
        Kernel::Block(_) => panic!("rowSums(exp(X) %*% W) must compile as a Row operator"),
    }
    verify(&a).unwrap_err()
}

fn verify(a: &Artifacts) -> Result<(), VerifyError> {
    verify_compiled(&a.dag, a.plan.as_ref(), &a.graph)
}

fn spec_program(spec: &mut FusedSpec) -> &mut Program {
    match spec {
        FusedSpec::Cell(c) => &mut c.prog,
        FusedSpec::MAgg(m) => &mut m.prog,
        FusedSpec::Row(r) => &mut r.prog,
        FusedSpec::Outer(o) => &mut o.prog,
    }
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
        let prog = spec_program(&mut operator(&mut a).spec);
        // A brand-new register nothing defines, read immediately.
        let undefined = prog.n_regs;
        prog.n_regs += 1;
        prog.instrs.push(Instr::Unary { out: 0, op: UnaryOp::Abs, a: undefined });
    }
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::DanglingRegister { .. }), "got {err:?}");
}

/// Corruption 2 — a fused operator claims sparse safety for a program that
/// is not zero-preserving (`exp(0) = 1`).
#[test]
fn sparse_overclaim_rejected() {
    let mut a = artifacts(FusionMode::Gen);
    {
        match &mut operator(&mut a).spec {
            FusedSpec::Cell(c) => c.sparse_safe = true,
            FusedSpec::MAgg(m) => m.sparse_safe = true,
            FusedSpec::Outer(o) => o.sparse_safe = true,
            FusedSpec::Row(_) => panic!("sum(exp(X)) must not compile as a Row operator"),
        }
    }
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::SparseClaim { .. }), "got {err:?}");
}

/// Corruption 3 — a task-graph read-occurrence refcount is off by one.
#[test]
fn refcount_mismatch_rejected() {
    let mut a = artifacts(FusionMode::Base);
    a.graph.reads_mut()[0] += 1;
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::RefcountMismatch { hop: 0, .. }), "got {err:?}");
}

/// Corruption 4 — a leaf input marked spill-eligible (leaves are pinned:
/// they are caller-owned and must never enter the eviction pool).
#[test]
fn leaf_spill_eligibility_rejected() {
    let mut a = artifacts(FusionMode::Base);
    a.graph.spill_ok_mut()[0] = true; // hop 0 is the Read leaf
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::SpillEligibility { hop: 0, .. }), "got {err:?}");
}

/// Corruption 5 — a task's output-byte estimate disagrees with the size
/// estimator the spill planner uses.
#[test]
fn task_bytes_mismatch_rejected() {
    let mut a = artifacts(FusionMode::Base);
    a.graph.task_out_bytes_mut()[0] += 8;
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::TaskBytesMismatch { task: 0, .. }), "got {err:?}");
}

/// Corruption 6 — a stored hop size drifts from what re-inference gives
/// (the compile-once/execute-many hazard `FusionPlan::matches` guards).
#[test]
fn shape_drift_rejected() {
    let mut a = artifacts(FusionMode::Base);
    let exp = a.exp;
    a.dag.hop_mut(exp).size.rows += 1;
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::ShapeDrift { .. }), "got {err:?}");
}

/// Corruption 7 — two fused operators both claim the same output hop.
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

/// Corruption 8 — the plan's structural hash no longer matches the DAG it
/// is bound to (geometry changed after costing).
#[test]
fn plan_geometry_mismatch_rejected() {
    let mut a = artifacts(FusionMode::Gen);
    a.plan.as_mut().unwrap().dag_hash ^= 1;
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::PlanGeometryMismatch { .. }), "got {err:?}");
}

/// Corruption 9 — task-graph side tables truncated (field-length drift).
#[test]
fn truncated_reads_rejected() {
    let mut a = artifacts(FusionMode::Base);
    a.graph.reads_mut().pop();
    let err = verify(&a).unwrap_err();
    assert!(matches!(err, VerifyError::TaskGraphMalformed { .. }), "got {err:?}");
}

/// Corruption 10 — a residency trace records a transition the slot state
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

/// Corruption 11 — a trace whose replayed state disagrees with a recorded
/// from-state (the recorder lost an event).
#[test]
fn residency_state_drift_rejected() {
    // Slot 0 was never made Resident, yet the trace claims to evict it.
    let trace =
        vec![SlotTransition { slot: 0, from: SlotState::Resident, to: SlotState::Evicting }];
    let err = check_residency_trace(1, &trace).unwrap_err();
    assert!(matches!(err, VerifyError::ResidencyViolation { slot: 0, step: 0, .. }), "got {err:?}");
}

/// Corruption 12 — a trace that ends with a non-empty slot (a leaked
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

/// Corruption 13 — a Row kernel claims `sparse_main_ok` although its
/// per-row body consumes the main row element-wise (missing zeros would be
/// skipped on sparse inputs): not the kernel lowering gives.
#[test]
fn row_kernel_sparse_overclaim_rejected() {
    let err = corrupt_row_kernel(row_artifacts(), |k| {
        assert!(!k.sparse_main_ok, "exp consumes the main row densely");
        k.sparse_main_ok = true;
    });
    assert!(matches!(err, VerifyError::StaleKernel { .. }), "got {err:?}");
}

/// Corruption 14 — a per-row instruction hoisted into the invariant
/// section (a main-row load is never loop-invariant).
#[test]
fn row_kernel_hoisted_main_load_rejected() {
    let err = corrupt_row_kernel(row_artifacts(), |k| {
        k.invariant.insert(0, Instr::LoadMainRow { out: 0 });
    });
    assert!(matches!(err, VerifyError::StaleKernel { .. }), "got {err:?}");
}

/// Corruption 15 — a block kernel whose stored product is not the one its
/// block program classifies into: `sum(X ⊙ Y)` is the main input times
/// gather slot 0, and the product stored in its place would multiply the
/// main input by itself; none stored for the chain is rejected the same way.
#[test]
fn mono_shape_mismatch_rejected() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 40, 20, 1.0);
    let y = b.read("Y", 40, 20, 1.0);
    let xy = b.mult(x, y);
    let s = b.sum(xy);
    let dag = b.build(vec![s]);
    for corrupt in [Some(Product { mains: 2, slots: vec![] }), None] {
        let mut a = compiled(dag.clone(), FusionMode::Gen, xy);
        let Kernel::Block(k) = &mut operator(&mut a).kernel else {
            panic!("sum(X * Y) must compile to a block kernel");
        };
        let chain = Some(Product { mains: 1, slots: vec![0] });
        let r = k.mono.iter().position(|p| *p == chain).expect("X ⊙ Y is a product chain");
        k.mono[r] = corrupt;
        let err = verify(&a).unwrap_err();
        assert!(matches!(err, VerifyError::StaleKernel { .. }), "got {err:?}");
    }
}

/// Corruption 16 — the kernel an operator carries is not the one its
/// program lowers to: a product stored for the `exp` result, a kernel at
/// another tile width, or a stored class the kernel does not run under.
#[test]
fn stored_kernel_mutations_rejected() {
    let corrupt = |mutate: &dyn Fn(&mut GeneratedOperator)| {
        let mut a = artifacts(FusionMode::Gen);
        mutate(operator(&mut a));
        verify(&a).unwrap_err()
    };
    let block = |op: &mut GeneratedOperator, mutate: &dyn Fn(&mut BlockKernel)| match &mut op.kernel
    {
        Kernel::Block(k) => mutate(k),
        Kernel::Row(_) => panic!("sum(exp(X)) must not compile as a Row operator"),
    };
    let err = corrupt(&|op| block(op, &|k| k.mono[1] = Some(Product { mains: 1, slots: vec![] })));
    assert!(matches!(err, VerifyError::StaleKernel { .. }), "got {err:?}");
    let err = corrupt(&|op| block(op, &|k| k.width = 8));
    assert!(matches!(err, VerifyError::StaleKernel { .. }), "got {err:?}");
    let err = corrupt(&|op| op.class = ShapeClass::RowTile);
    assert!(matches!(err, VerifyError::StaleKernel { .. }), "got {err:?}");
}

/// Corruption 17 — an operator whose program is not the compilation of its
/// CPlan: a constant changed, and the operator rebuilt through
/// `GeneratedOperator::new`, so its kernel is the honest lowering of the
/// tampered program and every audit of the program itself passes.
#[test]
fn tampered_constant_rejected() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 40, 20, 1.0);
    let e = b.exp(x);
    let half = b.lit(0.5);
    let p = b.mult(e, half);
    let s = b.sum(p);
    let mut a = compiled(b.build(vec![s]), FusionMode::Gen, e);
    verify(&a).expect("the honest artifacts verify");
    let side_dims = a.plan.as_ref().unwrap().operators[0].cplan.side_dims.clone();
    let op = operator(&mut a);
    let mut spec = op.spec.clone();
    let mut tampered = 0;
    for ins in &mut spec_program(&mut spec).instrs {
        if let Instr::LoadConst { value, .. } = ins {
            *value += 1.0;
            tampered += 1;
        }
    }
    assert!(tampered > 0, "the program loads a constant: {:?}", op.spec);
    *op =
        GeneratedOperator::new(op.name.clone(), op.source.clone(), spec, op.plan_hash, &side_dims);
    let err = verify(&a).unwrap_err();
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
