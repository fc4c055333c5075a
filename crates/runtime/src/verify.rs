//! Static plan verification: an IR-invariant checker over every layer a
//! compiled script carries (DESIGN.md substitution X9).
//!
//! The codegen pipeline silently assumes a stack of invariants — template
//! legality (paper §4 fusion conditions), shape agreement between the HOP
//! facts and the bound geometry, register def-before-use in generated
//! programs, task-graph refcounts that exactly mirror liveness — and a
//! violation of any of them surfaces as a miscompile, a leak, or a scheduler
//! hang rather than an error. [`verify_compiled`] turns each assumption into
//! a machine-checked, typed [`VerifyError`]:
//!
//! 1. **Hop layer** ([`check_hops`]): DAG well-formedness (arity, topological
//!    input order, root validity), shape-inference consistency (every stored
//!    size re-derived through [`fusedml_hop::size::try_infer`]).
//! 2. **Fusion-plan layer** ([`check_plan`]): the plan still matches the DAG
//!    it will execute against, no hop is written by two fused operators, and
//!    every operator's CPlan is legal for its template — side-access
//!    geometry, node acyclicity, output arity/shape per paper Table 1.
//! 3. **Operator layer** (`check_spec`): def-before-use over scalar and
//!    vector registers, vector-width agreement, vector instructions confined
//!    to the Row template, defined result registers, and `sparse_safe`
//!    claims re-derived (structurally and by a numeric zero-probe of the
//!    compiled program). Then the stored operator is compared with a fresh
//!    derivation from its CPlan: the spec with
//!    [`codegen::compile_spec`], the kernel and its class with
//!    [`GeneratedOperator::new`] under the plan's side dims, the plan hash
//!    with [`CPlan::structural_hash`].
//! 4. **Task-graph layer** ([`check_task_graph`]): the stored graph is
//!    compared with what [`schedule::prepare`] builds from the same DAG and
//!    plan, and in `Base` mode its refcounts are cross-checked against the
//!    consumer counts [`fusedml_hop::liveness::analyze`] derives from the DAG.
//! 5. **Residency state machine** ([`check_residency_trace`]): an explicit
//!    transition table for the scheduler's slot lifecycle
//!    (`Empty/Resident/Streamed/Spilled/Loading/Evicting`). Debug builds
//!    record every slot transition under the scheduler lock and replay the
//!    trace against the table after each run — a lightweight lifecycle
//!    detector for the out-of-core machinery.
//!
//! Verification runs inside `Engine::compile` behind
//! `EngineBuilder::verify_plans` (default on in debug builds, off in release
//! unless requested), on the compile-once path only — executing a compiled
//! script never re-verifies.

use crate::schedule::{self, TaskGraph, TaskKind};
use fusedml_core::codegen::{self, GeneratedOperator};
use fusedml_core::cplan::{CNode, CPlan, CellAggKind, NodeId, OutputSpec, RowOutKind};
use fusedml_core::optimizer::{FusedOperator, FusionPlan};
use fusedml_core::spoof::block::whole_vector_load;
use fusedml_core::spoof::{eval_scalar_program, FusedSpec, Instr, Program, RowOut, SideAccess};
use fusedml_core::templates::TemplateType;
use fusedml_hop::liveness;
use fusedml_hop::{size, HopDag};
use std::cell::Cell;
use std::fmt;

/// A violated compile-time invariant, by layer and class. Each variant names
/// enough identity (hop / operator / instruction / task / slot) to locate the
/// violation without parsing the message.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The HOP DAG itself is malformed: arity mismatch, non-topological
    /// input, out-of-range id, or a shape that no longer re-infers.
    MalformedDag { hop: u32, detail: String },
    /// A stored hop size disagrees with re-inference from its input sizes.
    ShapeDrift { hop: u32, stored: (usize, usize), inferred: (usize, usize) },
    /// Plan-level geometry disagrees with the DAG variant it is bound to
    /// (structural hash, side dims, iteration or output dims).
    PlanGeometryMismatch { detail: String },
    /// Two fused operators both claim to write the same hop.
    OverlappingFusedWrite { hop: u32, first_op: usize, second_op: usize },
    /// A CPlan or spec violates its template's legality conditions
    /// (paper §4: side-access geometry, node ordering, output arity).
    IllegalTemplate { op_ix: usize, detail: String },
    /// A register-program instruction reads a register no earlier
    /// instruction defined, or references an out-of-range register, side, or
    /// scalar input.
    DanglingRegister { op_ix: usize, instr: usize, detail: String },
    /// Vector-register widths disagree across an instruction.
    RegisterWidthMismatch { op_ix: usize, instr: usize, detail: String },
    /// A `sparse_safe` claim the verifier cannot re-derive (structurally or
    /// by numeric zero-probe).
    SparseClaim { op_ix: usize, detail: String },
    /// A task-graph read-occurrence refcount disagrees with the one
    /// `prepare` counts (or, in `Base` mode, with the liveness consumer
    /// counts).
    RefcountMismatch { hop: u32, expected: u32, stored: u32 },
    /// A task's output-byte estimate disagrees with the one `prepare` takes
    /// from the size estimator.
    TaskBytesMismatch { task: usize, expected: usize, stored: usize },
    /// A generated operator is not what generating it from its CPlan gives
    /// now: its spec, plan hash, stored kernel or kernel class differs, so
    /// what would run is not what the plan describes.
    StaleKernel { op_ix: usize, detail: String },
    /// A spill-eligibility flag disagrees with the one `prepare` derives (a
    /// leaf or sub-threshold value marked eligible, or an eligible
    /// intermediate marked not).
    SpillEligibility { hop: u32, detail: String },
    /// The task graph is not the one `prepare` builds (tasks, leaves,
    /// producer counts, consumers, width, or a field's length).
    TaskGraphMalformed { detail: String },
    /// A task's shard plan is unsound: a non-fused task carries one, the
    /// partitioning is illegal for the operator (no main, too few rows, a
    /// partitioned side that does not row-align), or the merge plan
    /// disagrees with the template's aggregation semantics. Checked by
    /// re-deriving the spec from the operator and comparing.
    ShardPlan { task: usize, detail: String },
    /// A recorded slot transition the residency state machine forbids (or a
    /// trace that ends with a non-empty slot).
    ResidencyViolation { slot: usize, from: SlotState, to: SlotState, step: usize },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::MalformedDag { hop, detail } => {
                write!(f, "malformed DAG at hop {hop}: {detail}")
            }
            VerifyError::ShapeDrift { hop, stored, inferred } => write!(
                f,
                "hop {hop} stores size {}x{} but re-inference gives {}x{}",
                stored.0, stored.1, inferred.0, inferred.1
            ),
            VerifyError::PlanGeometryMismatch { detail } => {
                write!(f, "plan geometry mismatch: {detail}")
            }
            VerifyError::OverlappingFusedWrite { hop, first_op, second_op } => write!(
                f,
                "hop {hop} is written by fused operators #{first_op} and #{second_op}"
            ),
            VerifyError::IllegalTemplate { op_ix, detail } => {
                write!(f, "operator #{op_ix} violates template legality: {detail}")
            }
            VerifyError::DanglingRegister { op_ix, instr, detail } => {
                write!(f, "operator #{op_ix} instr {instr}: dangling register: {detail}")
            }
            VerifyError::RegisterWidthMismatch { op_ix, instr, detail } => {
                write!(f, "operator #{op_ix} instr {instr}: register width mismatch: {detail}")
            }
            VerifyError::SparseClaim { op_ix, detail } => {
                write!(f, "operator #{op_ix} over-claims sparse safety: {detail}")
            }
            VerifyError::RefcountMismatch { hop, expected, stored } => write!(
                f,
                "hop {hop} read-refcount is {stored} but recomputation gives {expected}"
            ),
            VerifyError::StaleKernel { op_ix, detail } => {
                write!(f, "operator #{op_ix} is stale: {detail}")
            }
            VerifyError::TaskBytesMismatch { task, expected, stored } => write!(
                f,
                "task {task} output estimate is {stored} bytes but the size estimator gives {expected}"
            ),
            VerifyError::SpillEligibility { hop, detail } => {
                write!(f, "hop {hop} spill eligibility is unsound: {detail}")
            }
            VerifyError::TaskGraphMalformed { detail } => {
                write!(f, "malformed task graph: {detail}")
            }
            VerifyError::ShardPlan { task, detail } => {
                write!(f, "unsound shard plan on task {task}: {detail}")
            }
            VerifyError::ResidencyViolation { slot, from, to, step } => write!(
                f,
                "slot {slot}: illegal residency transition {from:?} -> {to:?} at trace step {step}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a compiled artifact across all static layers: hop DAG, fusion
/// plan (when present), and task graph. This is the entry point
/// `Engine::compile` calls under `verify_plans`.
pub fn verify_compiled(
    dag: &HopDag,
    plan: Option<&FusionPlan>,
    graph: &TaskGraph,
) -> Result<(), VerifyError> {
    check_hops(dag)?;
    if let Some(p) = plan {
        check_plan(dag, p)?;
    }
    check_task_graph(dag, plan, graph)?;
    check_shard_plan(plan, graph)
}

/// Shard-plan soundness: every task carrying a [`crate::shard::ShardSpec`]
/// must be a fused task whose spec is exactly what
/// [`crate::shard::derive_spec`] re-derives from the operator — which
/// re-checks partitioning legality (a present main, `iter_rows >= shards`,
/// partitioned sides row-aligned with the iteration space, no cross-shard
/// main reads by construction) and merge-op/agg-kind agreement (e.g. `Min`
/// partials merged with `Min`, `Mean` never merged element-wise).
pub fn check_shard_plan(plan: Option<&FusionPlan>, graph: &TaskGraph) -> Result<(), VerifyError> {
    let specs = graph.shard_specs();
    if specs.len() != graph.tasks.len() {
        return Err(VerifyError::TaskGraphMalformed {
            detail: format!("shard has {} entries for {} tasks", specs.len(), graph.tasks.len()),
        });
    }
    for (t, spec) in specs.iter().enumerate() {
        let Some(spec) = spec else { continue };
        let err = |detail: String| VerifyError::ShardPlan { task: t, detail };
        let TaskKind::Fused { op_ix } = graph.tasks[t].kind else {
            return Err(err("non-fused task carries a shard spec".into()));
        };
        let Some(f) = plan.and_then(|p| p.operators.get(op_ix)) else {
            return Err(err(format!("fused operator #{op_ix} has no plan behind it")));
        };
        if spec.shards < 2 {
            return Err(err(format!("{}-shard plan (sharding needs >= 2)", spec.shards)));
        }
        match crate::shard::derive_spec(&f.op.spec, &f.cplan, spec.shards) {
            Some(ref derived) if derived == spec => {}
            Some(derived) => {
                return Err(err(format!(
                    "stored spec {spec:?} disagrees with re-derivation {derived:?}"
                )))
            }
            None => {
                return Err(err(format!(
                    "operator #{op_ix} is not legally shardable at {} shards",
                    spec.shards
                )))
            }
        }
    }
    Ok(())
}

// ===========================================================================
// Layer 1: hop DAG
// ===========================================================================

/// DAG well-formedness + shape re-inference.
pub fn check_hops(dag: &HopDag) -> Result<(), VerifyError> {
    let live = dag.live_set();
    for (i, h) in dag.iter().enumerate() {
        if h.id.index() != i {
            return Err(VerifyError::MalformedDag {
                hop: i as u32,
                detail: format!("arena id {} disagrees with position {i}", h.id),
            });
        }
        if h.inputs.len() != h.kind.arity() {
            return Err(VerifyError::MalformedDag {
                hop: h.id.0,
                detail: format!(
                    "{:?} expects {} inputs, has {}",
                    h.kind,
                    h.kind.arity(),
                    h.inputs.len()
                ),
            });
        }
        for &inp in &h.inputs {
            if inp.index() >= i {
                return Err(VerifyError::MalformedDag {
                    hop: h.id.0,
                    detail: format!("input {inp} does not precede its consumer (non-topological)"),
                });
            }
        }
        // Shape re-inference for live interior hops. Dead hops legitimately
        // keep stale sizes (`with_read_geometry` skips them), and leaf sizes
        // are external facts with nothing to re-derive from.
        if live[i] && !h.kind.is_leaf() {
            let ins: Vec<size::SizeInfo> = h.inputs.iter().map(|&inp| dag.hop(inp).size).collect();
            match size::try_infer(&h.kind, &ins) {
                Ok(s) => {
                    if (s.rows, s.cols) != (h.size.rows, h.size.cols) {
                        return Err(VerifyError::ShapeDrift {
                            hop: h.id.0,
                            stored: (h.size.rows, h.size.cols),
                            inferred: (s.rows, s.cols),
                        });
                    }
                }
                Err(m) => return Err(VerifyError::MalformedDag { hop: h.id.0, detail: m }),
            }
        }
    }
    for &r in dag.roots() {
        if r.index() >= dag.len() {
            return Err(VerifyError::MalformedDag {
                hop: r.0,
                detail: "root id out of range".into(),
            });
        }
    }
    Ok(())
}

// ===========================================================================
// Layer 2: fusion plan
// ===========================================================================

/// Plan ↔ DAG binding, fused-write exclusivity, and per-operator legality.
pub fn check_plan(dag: &HopDag, plan: &FusionPlan) -> Result<(), VerifyError> {
    if !plan.matches(dag) {
        return Err(VerifyError::PlanGeometryMismatch {
            detail: "plan structural hash disagrees with the DAG it is bound to".into(),
        });
    }
    let mut owner: Vec<Option<usize>> = vec![None; dag.len()];
    for (op_ix, f) in plan.operators.iter().enumerate() {
        for &r in &f.roots {
            if r.index() >= dag.len() {
                return Err(VerifyError::IllegalTemplate {
                    op_ix,
                    detail: format!("root hop {r} out of range"),
                });
            }
            if let Some(first) = owner[r.index()] {
                return Err(VerifyError::OverlappingFusedWrite {
                    hop: r.0,
                    first_op: first,
                    second_op: op_ix,
                });
            }
            owner[r.index()] = Some(op_ix);
        }
    }
    for (op_ix, f) in plan.operators.iter().enumerate() {
        check_operator(dag, op_ix, f)?;
    }
    Ok(())
}

/// One fused operator: CPlan legality, spec agreement, program soundness.
fn check_operator(dag: &HopDag, op_ix: usize, f: &FusedOperator) -> Result<(), VerifyError> {
    let cp = &f.cplan;
    check_cplan_inputs(dag, op_ix, cp)?;
    check_cplan_nodes(op_ix, cp)?;
    check_output_spec(dag, op_ix, f)?;
    check_spec(op_ix, cp, &f.op)?;
    Ok(())
}

/// CPlan input bindings: main/side/scalar hops exist and their stored
/// geometry agrees with the DAG's size facts.
fn check_cplan_inputs(dag: &HopDag, op_ix: usize, cp: &CPlan) -> Result<(), VerifyError> {
    let in_range = |h: fusedml_hop::HopId| h.index() < dag.len();
    if let Some(m) = cp.main {
        if !in_range(m) {
            return Err(VerifyError::IllegalTemplate {
                op_ix,
                detail: format!("main hop {m} out of range"),
            });
        }
        let sz = dag.hop(m).size;
        if (sz.rows, sz.cols) != (cp.iter_rows, cp.iter_cols) {
            return Err(VerifyError::PlanGeometryMismatch {
                detail: format!(
                    "operator #{op_ix} iterates {}x{} but its main hop {m} is {}x{}",
                    cp.iter_rows, cp.iter_cols, sz.rows, sz.cols
                ),
            });
        }
    }
    if cp.sides.len() != cp.side_dims.len() {
        return Err(VerifyError::PlanGeometryMismatch {
            detail: format!(
                "operator #{op_ix} has {} side hops but {} side dims",
                cp.sides.len(),
                cp.side_dims.len()
            ),
        });
    }
    for (s, (&h, &(r, c))) in cp.sides.iter().zip(cp.side_dims.iter()).enumerate() {
        if !in_range(h) {
            return Err(VerifyError::IllegalTemplate {
                op_ix,
                detail: format!("side {s} hop {h} out of range"),
            });
        }
        let sz = dag.hop(h).size;
        if (sz.rows, sz.cols) != (r, c) {
            return Err(VerifyError::PlanGeometryMismatch {
                detail: format!(
                    "operator #{op_ix} side {s} is bound as {r}x{c} but hop {h} is {}x{}",
                    sz.rows, sz.cols
                ),
            });
        }
    }
    for (s, &h) in cp.scalars.iter().enumerate() {
        if !in_range(h) {
            return Err(VerifyError::IllegalTemplate {
                op_ix,
                detail: format!("scalar {s} hop {h} out of range"),
            });
        }
        let sz = dag.hop(h).size;
        if (sz.rows, sz.cols) != (1, 1) {
            return Err(VerifyError::PlanGeometryMismatch {
                detail: format!(
                    "operator #{op_ix} scalar input {s} (hop {h}) is {}x{}, not 1x1",
                    sz.rows, sz.cols
                ),
            });
        }
    }
    for &h in &cp.covered {
        if !in_range(h) {
            return Err(VerifyError::IllegalTemplate {
                op_ix,
                detail: format!("covered hop {h} out of range"),
            });
        }
    }
    // Outer's UV binding exists exactly for Outer plans, and the declared
    // rank matches both factors.
    match (cp.ttype, cp.outer_uv) {
        (TemplateType::Outer, None) => {
            return Err(VerifyError::IllegalTemplate {
                op_ix,
                detail: "Outer plan without a UV binding".into(),
            })
        }
        (TemplateType::Outer, Some((u, v, rank))) => {
            for (name, s) in [("u", u), ("v", v)] {
                if s >= cp.side_dims.len() {
                    return Err(VerifyError::IllegalTemplate {
                        op_ix,
                        detail: format!("outer {name}-side index {s} out of range"),
                    });
                }
            }
            if cp.side_dims[u].1 != rank || cp.side_dims[v].1 != rank {
                return Err(VerifyError::PlanGeometryMismatch {
                    detail: format!(
                        "operator #{op_ix} declares rank {rank} but U is {}-wide and V is {}-wide",
                        cp.side_dims[u].1, cp.side_dims[v].1
                    ),
                });
            }
        }
        (_, Some(_)) => {
            return Err(VerifyError::IllegalTemplate {
                op_ix,
                detail: format!("{:?} plan carries an Outer UV binding", cp.ttype),
            })
        }
        (_, None) => {}
    }
    Ok(())
}

/// The dims a side read with `access` must have under `iter_rows ×
/// iter_cols` iteration.
fn side_access_dims(access: SideAccess, iter_rows: usize, iter_cols: usize) -> (usize, usize) {
    match access {
        SideAccess::Cell => (iter_rows, iter_cols),
        SideAccess::Col => (iter_rows, 1),
        SideAccess::Row => (1, iter_cols),
        SideAccess::Scalar => (1, 1),
    }
}

/// Whether a side-row slice `cl..cu` of an `r × c` side is legal under
/// `iter_rows`-row iteration: a whole-vector load, or an in-bounds,
/// non-empty slice of a row-aligned or single-row side.
fn side_row_slice_legal((r, c): (usize, usize), cl: usize, cu: usize, iter_rows: usize) -> bool {
    whole_vector_load(r, c, cl, cu) || ((r == iter_rows || r == 1) && cl < cu && cu <= c)
}

/// CPlan node graph: operand ordering (acyclicity), side/scalar index
/// bounds, and per-template side-access geometry (paper §4).
fn check_cplan_nodes(op_ix: usize, cp: &CPlan) -> Result<(), VerifyError> {
    let is_row = cp.ttype == TemplateType::Row;
    let is_outer = cp.ttype == TemplateType::Outer;
    let ill = |detail: String| VerifyError::IllegalTemplate { op_ix, detail };
    let operand = |i: usize, n: NodeId| -> Result<(), VerifyError> {
        if (n as usize) >= i {
            return Err(VerifyError::IllegalTemplate {
                op_ix,
                detail: format!("cplan node {i} references node {n} at or after itself"),
            });
        }
        Ok(())
    };
    let side_ok = |s: usize| -> Result<(usize, usize), VerifyError> {
        cp.side_dims.get(s).copied().ok_or_else(|| VerifyError::IllegalTemplate {
            op_ix,
            detail: format!("side index {s} out of range"),
        })
    };
    for (i, node) in cp.nodes.iter().enumerate() {
        match *node {
            CNode::Main => {}
            CNode::UVDot if !is_outer => {
                return Err(ill(format!("UVDot node in a {:?} plan", cp.ttype)))
            }
            CNode::UVDot => {}
            CNode::MainRow | CNode::SideRow { .. } | CNode::SideVector { .. } if !is_row => {
                return Err(ill(format!("row-vector node in a {:?} plan", cp.ttype)))
            }
            CNode::MainRow => {}
            CNode::Side { side, access } => {
                let (r, c) = side_ok(side)?;
                let want = side_access_dims(access, cp.iter_rows, cp.iter_cols);
                if (r, c) != want {
                    return Err(ill(format!(
                        "side {side} accessed as {access:?} must be {}x{}, is {r}x{c}",
                        want.0, want.1
                    )));
                }
            }
            CNode::SideRow { side, cl, cu } => {
                let (r, c) = side_ok(side)?;
                if !side_row_slice_legal((r, c), cl, cu, cp.iter_rows) {
                    return Err(ill(format!(
                        "side-row slice {cl}..{cu} of a {r}x{c} side under {}-row iteration",
                        cp.iter_rows
                    )));
                }
            }
            CNode::SideVector { side } => {
                let (r, c) = side_ok(side)?;
                if r != 1 && c != 1 {
                    return Err(ill(format!("side {side} used as a vector but is {r}x{c}")));
                }
            }
            CNode::ScalarInput { idx } => {
                if idx >= cp.scalars.len() {
                    return Err(ill(format!("scalar input index {idx} out of range")));
                }
            }
            CNode::Const { .. } => {}
            CNode::Unary { a, .. } => operand(i, a)?,
            CNode::Binary { a, b, .. } => {
                operand(i, a)?;
                operand(i, b)?;
            }
            CNode::Ternary { a, b, c, .. } => {
                operand(i, a)?;
                operand(i, b)?;
                operand(i, c)?;
            }
            CNode::VectMatMult { a, side } => {
                if !is_row {
                    return Err(ill(format!("VectMatMult node in a {:?} plan", cp.ttype)));
                }
                operand(i, a)?;
                side_ok(side)?;
            }
            CNode::Dot { a, b } => {
                if !is_row {
                    return Err(ill(format!("Dot node in a {:?} plan", cp.ttype)));
                }
                operand(i, a)?;
                operand(i, b)?;
            }
            CNode::VecAgg { a, .. } => {
                if !is_row {
                    return Err(ill(format!("VecAgg node in a {:?} plan", cp.ttype)));
                }
                operand(i, a)?;
            }
        }
    }
    Ok(())
}

/// Output spec ↔ template agreement, root arity, and output geometry
/// (paper Table 1 variants).
fn check_output_spec(dag: &HopDag, op_ix: usize, f: &FusedOperator) -> Result<(), VerifyError> {
    let cp = &f.cplan;
    let ill = |detail: String| VerifyError::IllegalTemplate { op_ix, detail };
    let n = cp.nodes.len();
    let node = |nid: NodeId| -> Result<(), VerifyError> {
        if (nid as usize) >= n {
            return Err(VerifyError::IllegalTemplate {
                op_ix,
                detail: format!("output references cplan node {nid}, have {n}"),
            });
        }
        Ok(())
    };
    let spec_matches = matches!(
        (&cp.output, cp.ttype),
        (OutputSpec::Cell { .. }, TemplateType::Cell)
            | (OutputSpec::MAgg { .. }, TemplateType::MAgg)
            | (OutputSpec::Row { .. }, TemplateType::Row)
            | (OutputSpec::Outer { .. }, TemplateType::Outer)
    );
    if !spec_matches {
        return Err(ill(format!("{:?} template with a mismatched output spec", cp.ttype)));
    }
    if f.roots.is_empty() {
        return Err(ill("operator with no root hops".into()));
    }
    for &r in &f.roots {
        if !cp.covered.contains(&r) {
            return Err(ill(format!("root hop {r} is not covered by the plan")));
        }
    }
    // Expected output geometry per template variant. `None` means the
    // verifier cannot derive it statically at this layer (Row vector widths
    // live in the register program, checked by `check_spec`).
    let expect: Option<(usize, usize)> = match &cp.output {
        OutputSpec::Cell { result, agg } => {
            node(*result)?;
            Some(match agg {
                CellAggKind::NoAgg => (cp.iter_rows, cp.iter_cols),
                CellAggKind::RowAgg(_) => (cp.iter_rows, 1),
                CellAggKind::ColAgg(_) => (1, cp.iter_cols),
                CellAggKind::FullAgg(_) => (1, 1),
            })
        }
        OutputSpec::MAgg { results } => {
            if results.is_empty() {
                return Err(ill("MAgg with no aggregates".into()));
            }
            if results.len() != f.roots.len() {
                return Err(ill(format!(
                    "MAgg computes {} aggregates for {} roots",
                    results.len(),
                    f.roots.len()
                )));
            }
            for &(nid, _) in results {
                node(nid)?;
            }
            // Each MAgg root is one 1×1 aggregate.
            for &r in &f.roots {
                let sz = dag.hop(r).size;
                if (sz.rows, sz.cols) != (1, 1) {
                    return Err(VerifyError::PlanGeometryMismatch {
                        detail: format!(
                            "operator #{op_ix} MAgg root {r} is {}x{}, not 1x1",
                            sz.rows, sz.cols
                        ),
                    });
                }
            }
            Some((1, results.len()))
        }
        OutputSpec::Row { out } => {
            match *out {
                RowOutKind::NoAgg { src }
                | RowOutKind::RowAgg { src }
                | RowOutKind::ColAgg { src }
                | RowOutKind::FullAgg { src } => node(src)?,
                RowOutKind::OuterColAgg { left, right } => {
                    node(left)?;
                    node(right)?;
                }
                RowOutKind::ColAggMultAdd { vec, scalar } => {
                    node(vec)?;
                    node(scalar)?;
                }
            }
            match *out {
                RowOutKind::RowAgg { .. } => Some((cp.iter_rows, 1)),
                RowOutKind::FullAgg { .. } => Some((1, 1)),
                _ => None,
            }
        }
        OutputSpec::Outer { result, out } => {
            node(*result)?;
            use fusedml_core::cplan::OuterOutKind as O;
            match *out {
                O::RightMM { side } | O::LeftMM { side } => {
                    if side >= cp.side_dims.len() {
                        return Err(ill(format!("outer MM side index {side} out of range")));
                    }
                    Some(match *out {
                        O::RightMM { side } => (cp.iter_rows, cp.side_dims[side].1),
                        _ => (cp.iter_cols, cp.side_dims[side].1),
                    })
                }
                O::FullAgg => Some((1, 1)),
                O::NoAgg => Some((cp.iter_rows, cp.iter_cols)),
            }
        }
    };
    if let Some((er, ec)) = expect {
        if (cp.out_rows, cp.out_cols) != (er, ec) {
            return Err(VerifyError::PlanGeometryMismatch {
                detail: format!(
                    "operator #{op_ix} output variant implies {er}x{ec}, plan stores {}x{}",
                    cp.out_rows, cp.out_cols
                ),
            });
        }
    }
    // Single-output templates bind exactly one root, and the root hop's size
    // facts are the costed output geometry.
    if !matches!(cp.output, OutputSpec::MAgg { .. }) {
        if f.roots.len() != 1 {
            return Err(ill(format!(
                "{:?} operator with {} roots (expected 1)",
                cp.ttype,
                f.roots.len()
            )));
        }
        let sz = dag.hop(f.roots[0]).size;
        if (sz.rows, sz.cols) != (cp.out_rows, cp.out_cols) {
            return Err(VerifyError::PlanGeometryMismatch {
                detail: format!(
                    "operator #{op_ix} writes {}x{} but its root hop {} is {}x{}",
                    cp.out_rows, cp.out_cols, f.roots[0], sz.rows, sz.cols
                ),
            });
        }
    }
    Ok(())
}

// ===========================================================================
// Layer 3: operators
// ===========================================================================

/// Register definedness after a [`check_program`] pass, used to validate the
/// spec's result references.
struct Defs {
    scalar: Vec<bool>,
    vector: Vec<bool>,
}

/// Per-template context for program checking.
struct ProgCx<'a> {
    op_ix: usize,
    ttype: TemplateType,
    iter_rows: usize,
    iter_cols: usize,
    side_dims: &'a [(usize, usize)],
    n_scalars: usize,
}

/// Instructions that only the Row template's vectorized kernel may emit
/// (they touch vector registers or consume whole rows).
fn is_vector_instr(ins: &Instr) -> bool {
    matches!(
        ins,
        Instr::LoadMainRow { .. }
            | Instr::LoadSideRow { .. }
            | Instr::VecUnary { .. }
            | Instr::VecBinaryVV { .. }
            | Instr::VecBinaryVS { .. }
            | Instr::VecMatMult { .. }
            | Instr::VecCumsum { .. }
            | Instr::Dot { .. }
            | Instr::VecAgg { .. }
    )
}

/// Def-before-use, register/width agreement, and template gating of one
/// register program. Returns the final definedness sets.
fn check_program(cx: &ProgCx<'_>, prog: &Program) -> Result<Defs, VerifyError> {
    let mut sdef = vec![false; prog.n_regs as usize];
    let mut vdef = vec![false; prog.vreg_lens.len()];
    let is_row = cx.ttype == TemplateType::Row;
    let is_outer = cx.ttype == TemplateType::Outer;
    for (i, ins) in prog.instrs.iter().enumerate() {
        let dangle =
            |detail: String| VerifyError::DanglingRegister { op_ix: cx.op_ix, instr: i, detail };
        let width = |detail: String| VerifyError::RegisterWidthMismatch {
            op_ix: cx.op_ix,
            instr: i,
            detail,
        };
        let template = |detail: String| VerifyError::IllegalTemplate {
            op_ix: cx.op_ix,
            detail: format!("instr {i}: {detail}"),
        };
        macro_rules! use_s {
            ($r:expr) => {{
                let r = $r as usize;
                if r >= sdef.len() || !sdef[r] {
                    return Err(dangle(format!("reads undefined scalar register {r}")));
                }
            }};
        }
        macro_rules! use_v {
            ($v:expr) => {{
                let v = $v as usize;
                if v >= vdef.len() || !vdef[v] {
                    return Err(dangle(format!("reads undefined vector register {v}")));
                }
            }};
        }
        macro_rules! def_s {
            ($r:expr) => {{
                let r = $r as usize;
                if r >= sdef.len() {
                    return Err(dangle(format!(
                        "defines scalar register {r}, program has {}",
                        sdef.len()
                    )));
                }
                sdef[r] = true;
            }};
        }
        macro_rules! def_v {
            ($v:expr) => {{
                let v = $v as usize;
                if v >= vdef.len() {
                    return Err(dangle(format!(
                        "defines vector register {v}, program has {}",
                        vdef.len()
                    )));
                }
                vdef[v] = true;
            }};
        }
        let vlen = |v: u16| prog.vreg_lens[v as usize];
        let side = |s: usize| -> Result<(usize, usize), VerifyError> {
            cx.side_dims.get(s).copied().ok_or_else(|| VerifyError::DanglingRegister {
                op_ix: cx.op_ix,
                instr: i,
                detail: format!("side input {s} out of range"),
            })
        };
        if !is_row && is_vector_instr(ins) {
            return Err(template("vector instruction outside the Row template".into()));
        }
        match *ins {
            Instr::LoadMain { out } => def_s!(out),
            Instr::LoadUVDot { out } => {
                if !is_outer {
                    return Err(template("UVDot load outside the Outer template".into()));
                }
                def_s!(out);
            }
            Instr::LoadSide { out, side: s, access } => {
                let (r, c) = side(s)?;
                let want = side_access_dims(access, cx.iter_rows, cx.iter_cols);
                if (r, c) != want {
                    return Err(template(format!(
                        "side {s} accessed as {access:?} must be {}x{}, is {r}x{c}",
                        want.0, want.1
                    )));
                }
                def_s!(out);
            }
            Instr::LoadScalar { out, idx } => {
                if idx >= cx.n_scalars {
                    return Err(dangle(format!("scalar input {idx} out of range")));
                }
                def_s!(out);
            }
            Instr::LoadConst { out, .. } => def_s!(out),
            Instr::Unary { out, a, .. } => {
                use_s!(a);
                def_s!(out);
            }
            Instr::Binary { out, a, b, .. } => {
                use_s!(a);
                use_s!(b);
                def_s!(out);
            }
            Instr::Ternary { out, a, b, c, .. } => {
                use_s!(a);
                use_s!(b);
                use_s!(c);
                def_s!(out);
            }
            Instr::LoadMainRow { out } => {
                def_v!(out);
                if vlen(out) != cx.iter_cols {
                    return Err(width(format!(
                        "main row register holds {} lanes for {} iteration columns",
                        vlen(out),
                        cx.iter_cols
                    )));
                }
            }
            Instr::LoadSideRow { out, side: s, cl, cu } => {
                let (r, c) = side(s)?;
                if !side_row_slice_legal((r, c), cl, cu, cx.iter_rows) {
                    return Err(template(format!(
                        "side-row slice {cl}..{cu} of a {r}x{c} side under {}-row iteration",
                        cx.iter_rows
                    )));
                }
                def_v!(out);
                if vlen(out) != cu - cl {
                    return Err(width(format!(
                        "side-row register holds {} lanes for a {}-wide slice",
                        vlen(out),
                        cu - cl
                    )));
                }
            }
            Instr::VecUnary { out, a, .. } | Instr::VecCumsum { out, a } => {
                use_v!(a);
                def_v!(out);
                if vlen(out) != vlen(a) {
                    return Err(width(format!("{} lanes from {}", vlen(out), vlen(a))));
                }
            }
            Instr::VecBinaryVV { out, a, b, .. } => {
                use_v!(a);
                use_v!(b);
                def_v!(out);
                if vlen(a) != vlen(b) || vlen(out) != vlen(a) {
                    return Err(width(format!(
                        "{} lanes from {} and {}",
                        vlen(out),
                        vlen(a),
                        vlen(b)
                    )));
                }
            }
            Instr::VecBinaryVS { out, a, b, .. } => {
                use_v!(a);
                use_s!(b);
                def_v!(out);
                if vlen(out) != vlen(a) {
                    return Err(width(format!("{} lanes from {}", vlen(out), vlen(a))));
                }
            }
            Instr::VecMatMult { out, a, side: s } => {
                let (r, c) = side(s)?;
                use_v!(a);
                def_v!(out);
                if vlen(a) != r || vlen(out) != c {
                    return Err(width(format!(
                        "row of {} lanes times a {r}x{c} side into {} lanes",
                        vlen(a),
                        vlen(out)
                    )));
                }
            }
            Instr::Dot { out, a, b } => {
                use_v!(a);
                use_v!(b);
                if vlen(a) != vlen(b) {
                    return Err(width(format!("dot of {} and {} lanes", vlen(a), vlen(b))));
                }
                def_s!(out);
            }
            Instr::VecAgg { out, a, .. } => {
                use_v!(a);
                def_s!(out);
            }
        }
    }
    Ok(Defs { scalar: sdef, vector: vdef })
}

/// Program soundness, result-register definedness and sparse-claim
/// re-derivation for one compiled operator, then its comparison with a
/// fresh derivation from the CPlan.
fn check_spec(op_ix: usize, cp: &CPlan, op: &GeneratedOperator) -> Result<(), VerifyError> {
    let spec = &op.spec;
    let cx = ProgCx {
        op_ix,
        ttype: cp.ttype,
        iter_rows: cp.iter_rows,
        iter_cols: cp.iter_cols,
        side_dims: &cp.side_dims,
        n_scalars: cp.scalars.len(),
    };
    let prog = spec.program();
    let defs = check_program(&cx, prog)?;
    let result_s = |r: u16, what: &str| -> Result<(), VerifyError> {
        if (r as usize) >= defs.scalar.len() || !defs.scalar[r as usize] {
            return Err(VerifyError::DanglingRegister {
                op_ix,
                instr: prog.instrs.len(),
                detail: format!("{what} reads undefined scalar register {r}"),
            });
        }
        Ok(())
    };
    let result_v = |v: u16, what: &str| -> Result<(), VerifyError> {
        if (v as usize) >= defs.vector.len() || !defs.vector[v as usize] {
            return Err(VerifyError::DanglingRegister {
                op_ix,
                instr: prog.instrs.len(),
                detail: format!("{what} reads undefined vector register {v}"),
            });
        }
        Ok(())
    };
    match spec {
        FusedSpec::Cell(c) => {
            result_s(c.result, "cell result")?;
            check_sparse_claim(op_ix, cp, prog, &[c.result], c.sparse_safe)?;
        }
        FusedSpec::MAgg(m) => {
            let regs: Vec<u16> = m.results.iter().map(|&(r, _)| r).collect();
            for &r in &regs {
                result_s(r, "multi-agg result")?;
            }
            check_sparse_claim(op_ix, cp, prog, &regs, m.sparse_safe)?;
        }
        FusedSpec::Outer(o) => {
            result_s(o.result, "outer result")?;
            check_sparse_claim(op_ix, cp, prog, &[o.result], o.sparse_safe)?;
        }
        FusedSpec::Row(r) => match r.out {
            RowOut::NoAgg { src } | RowOut::ColAgg { src } => result_v(src, "row output")?,
            RowOut::RowAgg { src } | RowOut::FullAgg { src } => result_s(src, "row output")?,
            RowOut::OuterColAgg { left, right } => {
                result_v(left, "row outer output")?;
                result_v(right, "row outer output")?;
            }
            RowOut::ColAggMultAdd { vec, scalar } => {
                result_v(vec, "row output")?;
                result_s(scalar, "row output")?;
            }
        },
    }
    // The audits above see only what the operator claims of itself; an
    // operator generated from another CPlan (a plan-cache key that misses
    // something codegen reads) or a kernel lowered under other side dims
    // passes them. What runs must be what generating it from this CPlan
    // gives now.
    let stale = |detail: String| Err(VerifyError::StaleKernel { op_ix, detail });
    let hash = cp.structural_hash();
    if op.plan_hash != hash {
        return stale(format!("plan hash {:#x}, the CPlan hashes to {hash:#x}", op.plan_hash));
    }
    // The hash covers what decides how a CPlan compiles, so this one
    // compiles: its operator was generated from a CPlan with the same hash.
    let fresh = codegen::compile_spec(cp);
    if *spec != fresh {
        return stale("the spec is not the compilation of its CPlan".into());
    }
    let fresh = GeneratedOperator::new(String::new(), String::new(), fresh, 0, &cp.side_dims);
    if op.kernel != fresh.kernel {
        return stale(
            "the kernel is not the lowering of its program under the plan's side dims".into(),
        );
    }
    if op.class != fresh.class {
        return stale(format!("class {:?}, lowering gives {:?}", op.class, fresh.class));
    }
    Ok(())
}

/// Audits `sparse_safe` for scalar-program templates: the structural claim
/// must be derivable from the CPlan, and the compiled program must actually
/// map a zero main cell to zero results (numeric probe with randomized side
/// and scalar values — a one-sided check that catches programs whose code
/// drifted from the plan they claim to implement).
fn check_sparse_claim(
    op_ix: usize,
    cp: &CPlan,
    prog: &Program,
    results: &[u16],
    claimed: bool,
) -> Result<(), VerifyError> {
    if !claimed {
        // Conservative (false) claims only cost performance, never
        // correctness: nothing to audit.
        return Ok(());
    }
    if !cp.sparse_safe() {
        return Err(VerifyError::SparseClaim {
            op_ix,
            detail: "spec claims sparse_safe but the plan is not zero-preserving".into(),
        });
    }
    // Numeric zero-probe: main = 0, everything else pseudo-random in
    // [0.25, 3). Deterministic (xorshift64, seeded by op index) so failures
    // reproduce.
    let state = Cell::new(0x9E37_79B9_7F4A_7C15u64 ^ ((op_ix as u64) << 17) | 1);
    let next = || {
        let mut s = state.get();
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        state.set(s);
        0.25 + (s % 1000) as f64 / 1000.0 * 2.75
    };
    let mut regs = vec![0.0f64; prog.n_regs as usize];
    for _trial in 0..3 {
        let scalars: Vec<f64> = (0..cp.scalars.len()).map(|_| next()).collect();
        regs.iter_mut().for_each(|r| *r = 0.0);
        eval_scalar_program(prog, &mut regs, 0.0, next(), &|_, _| next(), &scalars);
        for &r in results {
            let v = regs[r as usize];
            if v != 0.0 {
                return Err(VerifyError::SparseClaim {
                    op_ix,
                    detail: format!(
                        "zero-probe: a zero main cell produced {v} in result register {r}"
                    ),
                });
            }
        }
    }
    Ok(())
}

// ===========================================================================
// Layer 4: task graph
// ===========================================================================

/// The first index at which two slices differ (a length difference counts at
/// the shorter length).
fn first_diff<T: PartialEq>(fresh: &[T], stored: &[T]) -> Option<usize> {
    (0..fresh.len().max(stored.len())).find(|&i| fresh.get(i) != stored.get(i))
}

/// Task-graph consistency: the stored graph must be the one
/// [`schedule::prepare`] builds from the same DAG and plan (every field but
/// the shard plans, which [`check_shard_plan`] audits), and in `Base` mode
/// its refcounts must equal the consumer counts of
/// [`fusedml_hop::liveness::analyze`]. Runs after
/// [`check_hops`] and [`check_plan`], whose checks `prepare` relies on.
pub fn check_task_graph(
    dag: &HopDag,
    plan: Option<&FusionPlan>,
    graph: &TaskGraph,
) -> Result<(), VerifyError> {
    let TaskGraph {
        tasks,
        leaves,
        reads,
        n_producers,
        max_width,
        consumers_of,
        task_out_bytes,
        spill_ok,
        shard: _,
    } = schedule::prepare(dag, plan, None);
    let malformed = |detail: String| Err(VerifyError::TaskGraphMalformed { detail });
    for (name, len, want) in [
        ("reads", graph.reads.len(), reads.len()),
        ("spill_ok", graph.spill_ok.len(), spill_ok.len()),
        ("task_out_bytes", graph.task_out_bytes.len(), task_out_bytes.len()),
    ] {
        if len != want {
            return malformed(format!("{name} has {len} entries, prepare builds {want}"));
        }
    }
    if let Some(h) = first_diff(&reads, &graph.reads) {
        return Err(VerifyError::RefcountMismatch {
            hop: h as u32,
            expected: reads[h],
            stored: graph.reads[h],
        });
    }
    if let Some(t) = first_diff(&task_out_bytes, &graph.task_out_bytes) {
        return Err(VerifyError::TaskBytesMismatch {
            task: t,
            expected: task_out_bytes[t],
            stored: graph.task_out_bytes[t],
        });
    }
    if let Some(h) = first_diff(&spill_ok, &graph.spill_ok) {
        let detail = match (graph.spill_ok[h], dag.hop(fusedml_hop::HopId(h as u32)).kind.is_leaf())
        {
            (true, true) => "leaf binding marked spill-eligible",
            (true, false) => "sub-threshold value marked spill-eligible",
            (false, _) => "eligible intermediate marked ineligible",
        };
        return Err(VerifyError::SpillEligibility { hop: h as u32, detail: detail.into() });
    }
    for (name, at) in [
        ("task", first_diff(&tasks, &graph.tasks)),
        ("leaf", first_diff(&leaves, &graph.leaves)),
        ("producer count", first_diff(&n_producers, &graph.n_producers)),
        ("consumer list", first_diff(&consumers_of, &graph.consumers_of)),
    ] {
        if let Some(i) = at {
            return malformed(format!("{name} {i} is not the one prepare builds"));
        }
    }
    if max_width != graph.max_width {
        return malformed(format!("width {}, prepare builds {max_width}", graph.max_width));
    }
    // In Base mode (every task basic) the demanded set is exactly the live
    // set, so refcounts must also equal the liveness consumer counts plus
    // the root bonus: an analysis `prepare` does not use. Fused operators
    // legitimately collapse reads.
    if tasks.iter().all(|t| matches!(t.kind, TaskKind::Basic(_))) {
        let facts = liveness::analyze(dag);
        for h in 0..dag.len() {
            let exp = facts.consumers[h] + u32::from(facts.is_root[h]);
            if graph.reads[h] != exp {
                return Err(VerifyError::RefcountMismatch {
                    hop: h as u32,
                    expected: exp,
                    stored: graph.reads[h],
                });
            }
        }
    }
    Ok(())
}

// ===========================================================================
// Layer 5: residency state machine
// ===========================================================================

/// The observable residency states of a scheduler value slot (the `Slot`
/// enum with payloads erased) — the alphabet of the transition spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotState {
    Empty,
    Resident,
    Streamed,
    Spilled,
    Loading,
    Evicting,
}

/// One recorded slot transition. Debug builds record these under the
/// scheduler lock (so traces are totally ordered) and replay them through
/// [`check_residency_trace`] after every run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotTransition {
    pub slot: usize,
    pub from: SlotState,
    pub to: SlotState,
}

/// The residency transition table. Everything not listed is a lifecycle bug:
///
/// | from       | to         | event                                        |
/// |------------|------------|----------------------------------------------|
/// | `Empty`    | `Resident` | leaf materialized / task output stored       |
/// | `Empty`    | `Streamed` | over-budget leaf bound by reference          |
/// | `Resident` | `Empty`    | last read taken / root moved out / sweep     |
/// | `Streamed` | `Empty`    | last read taken / root moved out / sweep     |
/// | `Resident` | `Evicting` | eviction began (I/O outside the lock)        |
/// | `Evicting` | `Spilled`  | spill write succeeded                        |
/// | `Evicting` | `Resident` | spill write failed; run degrades resident    |
/// | `Spilled`  | `Loading`  | the gathering task's fault-in began          |
/// | `Spilled`  | `Empty`    | root discarded / failure sweep               |
/// | `Loading`  | `Resident` | reload succeeded                             |
/// | `Loading`  | `Empty`    | reload failed; failure sweep reclaimed slot  |
///
/// Notably *absent*: `Evicting → Empty`. Eviction I/O completes before its
/// worker returns, and the failure sweep runs only after the workers join —
/// a sweep observing `Evicting` means a worker abandoned a transition.
pub fn allowed_transition(from: SlotState, to: SlotState) -> bool {
    use SlotState as S;
    matches!(
        (from, to),
        (S::Empty, S::Resident)
            | (S::Empty, S::Streamed)
            | (S::Resident, S::Empty)
            | (S::Streamed, S::Empty)
            | (S::Resident, S::Evicting)
            | (S::Evicting, S::Spilled)
            | (S::Evicting, S::Resident)
            | (S::Spilled, S::Loading)
            | (S::Spilled, S::Empty)
            | (S::Loading, S::Resident)
            | (S::Loading, S::Empty)
    )
}

/// Replays a recorded trace against the transition table: every step must
/// start from the slot's tracked state (slots start `Empty`), every
/// transition must be allowed, and at the end of the run every slot must be
/// `Empty` again (roots are moved out; failures sweep).
pub fn check_residency_trace(n_slots: usize, trace: &[SlotTransition]) -> Result<(), VerifyError> {
    let mut states = vec![SlotState::Empty; n_slots];
    for (step, tr) in trace.iter().enumerate() {
        if tr.slot >= n_slots {
            return Err(VerifyError::ResidencyViolation {
                slot: tr.slot,
                from: tr.from,
                to: tr.to,
                step,
            });
        }
        let tracked = states[tr.slot];
        if tracked != tr.from || !allowed_transition(tr.from, tr.to) {
            return Err(VerifyError::ResidencyViolation {
                slot: tr.slot,
                from: tracked,
                to: tr.to,
                step,
            });
        }
        states[tr.slot] = tr.to;
    }
    for (slot, &s) in states.iter().enumerate() {
        if s != SlotState::Empty {
            return Err(VerifyError::ResidencyViolation {
                slot,
                from: s,
                to: SlotState::Empty,
                step: trace.len(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_table_matches_spec() {
        use SlotState as S;
        assert!(allowed_transition(S::Empty, S::Resident));
        assert!(allowed_transition(S::Evicting, S::Spilled));
        assert!(allowed_transition(S::Loading, S::Empty));
        assert!(!allowed_transition(S::Evicting, S::Empty), "abandoned eviction");
        assert!(!allowed_transition(S::Resident, S::Spilled), "must pass Evicting");
        assert!(!allowed_transition(S::Streamed, S::Spilled), "streamed never spills");
        assert!(!allowed_transition(S::Empty, S::Spilled));
    }

    #[test]
    fn trace_replay_catches_state_drift() {
        use SlotState as S;
        let ok = [
            SlotTransition { slot: 0, from: S::Empty, to: S::Resident },
            SlotTransition { slot: 0, from: S::Resident, to: S::Evicting },
            SlotTransition { slot: 0, from: S::Evicting, to: S::Spilled },
            SlotTransition { slot: 0, from: S::Spilled, to: S::Loading },
            SlotTransition { slot: 0, from: S::Loading, to: S::Resident },
            SlotTransition { slot: 0, from: S::Resident, to: S::Empty },
        ];
        assert!(check_residency_trace(1, &ok).is_ok());
        // A transition claiming a from-state the slot is not in.
        let drift = [
            SlotTransition { slot: 0, from: S::Empty, to: S::Resident },
            SlotTransition { slot: 0, from: S::Spilled, to: S::Loading },
        ];
        let err = check_residency_trace(1, &drift).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::ResidencyViolation { slot: 0, from: SlotState::Resident, step: 1, .. }
            ),
            "{err}"
        );
        // A trace that strands a value.
        let stranded = [SlotTransition { slot: 0, from: S::Empty, to: S::Resident }];
        let err = check_residency_trace(1, &stranded).unwrap_err();
        assert!(matches!(err, VerifyError::ResidencyViolation { step: 1, .. }), "{err}");
    }
}
