//! Sharded execution: the engine's one distributed runtime and one cluster
//! cost model (DESIGN.md substitution X11).
//!
//! [`execute`] runs a fused operator as `k` row bands through
//! [`par::run_bands`], the engine's one spawn site: the calling thread runs
//! band 0 and scoped threads spawned for the call run the rest, sharing the
//! caller's buffer pool scope and running the kernel the operator carries.
//! The driver row-partitions
//! the operator's bound inputs across the bands (each band reads its rows
//! in place through an O(1) [`Matrix::row_slice`] view; nothing is copied),
//! broadcasts row-invariant side inputs (an `Arc` clone in-process),
//! executes the *same* fused skeletons (`spoof::execute`) per band, and
//! merges the partial outputs:
//!
//! * map-class operators (`NoAgg`, `RowAgg`) concatenate partial rows, which
//!   is bitwise-identical to local execution because every skeleton's output
//!   format is a pure function of the main-input format and sparse-safety,
//! * reductions (`ColAgg`, `FullAgg`, MultiAgg) merge element-wise with the
//!   aggregate's combiner ([`MergeOp`]); `Mean` aggregates are not sharded
//!   because their finalization divides by a shard-local count.
//!
//! Whether an operator runs locally or sharded is a cost decision
//! ([`plan_operator`]): the same Boehm-2017-style estimator
//! ([`fusedml_core::opt::cost::CostModel::shard_op_seconds`] under
//! [`DistConfig::in_process`]) serves the planner and `table6`'s modeled
//! column, so modeled and measured execution share one code path.
//!
//! Failure semantics: a panicking band fails only its own request — it is
//! caught on its thread, a shared flag cancels the bands that have not
//! started yet, and the driver surfaces one typed [`ShardError`]. No thread
//! outlives the call, so nothing is left to recover.

use crate::error::panic_message;
use crate::exec::SchedSnapshot;
use crate::spoof;
use fusedml_core::codegen::GeneratedOperator;
use fusedml_core::opt::cost::{compute_costs, CostModel, DistConfig};
use fusedml_core::optimizer::{FusedOperator, FusionPlan};
use fusedml_core::spoof::block::row_invariant_load;
use fusedml_core::spoof::{CellAgg, FusedSpec, Instr, RowOut, SideAccess};
use fusedml_hop::{HopDag, HopId};
use fusedml_linalg::ops::AggOp;
use fusedml_linalg::{par, pool, Matrix};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Shard plans
// ---------------------------------------------------------------------------

/// How one side input travels to the shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SideDisp {
    /// Row-aligned with the main input: each shard receives its row slice.
    Partition,
    /// Row-invariant: every shard receives the whole matrix (`Arc` clone).
    Broadcast,
}

/// Element-wise combiner for one partially-aggregated output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeOp {
    Add,
    Min,
    Max,
}

/// How the driver merges per-shard partial outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergePlan {
    /// Map-class outputs: stack the row partitions back in shard order.
    ConcatRows,
    /// Aggregated outputs: fold element-wise, one combiner per output.
    Elementwise(Vec<MergeOp>),
}

/// A verified sharding decision for one fused operator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards the planner assumed (the driver clamps to the
    /// engine's `Shards::k`).
    pub shards: usize,
    /// Disposition per side input, in CPlan binding order.
    pub sides: Vec<SideDisp>,
    /// Partial-output merge semantics.
    pub merge: MergePlan,
}

/// The combiner matching an aggregate, or `None` when partial aggregates
/// cannot be merged element-wise (`Mean` divides by a shard-local count).
fn merge_op_for(op: AggOp) -> Option<MergeOp> {
    match op {
        AggOp::Sum | AggOp::SumSq => Some(MergeOp::Add),
        AggOp::Min => Some(MergeOp::Min),
        AggOp::Max => Some(MergeOp::Max),
        AggOp::Mean => None,
    }
}

/// Derives the legal sharding of a fused operator, or `None` when row
/// partitioning cannot be proven safe. Pure function of the operator spec
/// and CPlan geometry — the plan verifier re-derives it to cross-check
/// whatever the planner recorded.
///
/// Legality rules (each also documented in DESIGN.md §4 X11):
/// * a main input must exist (it carries the row partitioning),
/// * `iter_rows >= shards` so every shard receives at least one row,
/// * Outer operators never shard (their U/V factors are indexed by both the
///   row and the column of the main cell, so row partitioning is not
///   shuffle-free),
/// * every side access must resolve to a disposition: row-aligned accesses
///   (`Cell`/`Col`, row slices) partition and require `side.rows ==
///   iter_rows`; row-invariant accesses (`Row`/`Scalar`, whole-matrix
///   `VecMatMult`, single-row slices) broadcast; a side demanded both ways
///   disables sharding,
/// * the output aggregation must merge: concat for map-class, an
///   element-wise combiner for reductions, never `Mean`.
pub fn derive_spec(
    spec: &FusedSpec,
    cplan: &fusedml_core::cplan::CPlan,
    shards: usize,
) -> Option<ShardSpec> {
    if shards < 2 || cplan.main.is_none() || cplan.iter_rows < shards {
        return None;
    }
    let merge = match spec {
        FusedSpec::Outer(_) => return None,
        FusedSpec::Cell(c) => match c.agg {
            CellAgg::NoAgg | CellAgg::RowAgg(_) => MergePlan::ConcatRows,
            CellAgg::ColAgg(op) | CellAgg::FullAgg(op) => {
                MergePlan::Elementwise(vec![merge_op_for(op)?])
            }
        },
        FusedSpec::MAgg(m) => MergePlan::Elementwise(
            m.results.iter().map(|&(_, op)| merge_op_for(op)).collect::<Option<Vec<_>>>()?,
        ),
        FusedSpec::Row(r) => match r.out {
            RowOut::NoAgg { .. } | RowOut::RowAgg { .. } => MergePlan::ConcatRows,
            RowOut::ColAgg { .. }
            | RowOut::FullAgg { .. }
            | RowOut::OuterColAgg { .. }
            | RowOut::ColAggMultAdd { .. } => MergePlan::Elementwise(vec![MergeOp::Add]),
        },
    };
    // RowAgg(Mean) finalizes per row by `iter_cols`, which row partitioning
    // preserves; Cell NoAgg/RowAgg outputs are per-row pure. Both concat.
    let mut sides: Vec<Option<SideDisp>> = vec![None; cplan.sides.len()];
    let mut want = |i: usize, d: SideDisp| -> bool {
        match sides[i] {
            None => {
                sides[i] = Some(d);
                true
            }
            Some(prev) => prev == d,
        }
    };
    for instr in &spec.program().instrs {
        let ok = match *instr {
            Instr::LoadSide { side, access, .. } => match access {
                SideAccess::Cell | SideAccess::Col => want(side, SideDisp::Partition),
                SideAccess::Row | SideAccess::Scalar => want(side, SideDisp::Broadcast),
            },
            Instr::LoadSideRow { side, cl, cu, .. } => {
                // Row-invariant loads — a single-row side, or a whole
                // vector-side load (the hoisted `v` of an mv-chain) — read
                // the same lanes for every rix and broadcast; everything
                // else slices row rix of the side and must be partitioned
                // with the main.
                if row_invariant_load(&cplan.side_dims, side, cl, cu) {
                    want(side, SideDisp::Broadcast)
                } else {
                    want(side, SideDisp::Partition)
                }
            }
            Instr::VecMatMult { side, .. } => want(side, SideDisp::Broadcast),
            _ => true,
        };
        if !ok {
            return None;
        }
    }
    let sides: Vec<SideDisp> = sides
        .into_iter()
        // Sides never touched by the program broadcast (cheap and safe).
        .map(|d| d.unwrap_or(SideDisp::Broadcast))
        .collect();
    for (i, d) in sides.iter().enumerate() {
        if *d == SideDisp::Partition && cplan.side_dims[i].0 != cplan.iter_rows {
            return None;
        }
    }
    Some(ShardSpec { shards, sides, merge })
}

/// Local and sharded wall-time estimates for one fused operator.
#[derive(Clone, Debug)]
pub struct OpEstimate {
    /// Template + geometry label for reports.
    pub label: String,
    /// Eq. 4 single-node estimate.
    pub local_seconds: f64,
    /// Sharded estimate, `None` when the operator is not shardable.
    pub sharded_seconds: Option<f64>,
}

/// Modeled execution times of a whole fusion plan, local vs planner-chosen.
#[derive(Clone, Debug)]
pub struct PlanEstimate {
    /// Σ over operators of the local estimate.
    pub local_seconds: f64,
    /// Σ over operators of `min(local, sharded)` — what the planner picks.
    pub chosen_seconds: f64,
    /// Operators the planner shards under `chosen_seconds`.
    pub sharded_ops: usize,
    /// Per-operator breakdown.
    pub ops: Vec<OpEstimate>,
}

fn operator_bytes(dag: &HopDag, f: &FusedOperator, spec: &ShardSpec) -> (f64, f64, f64) {
    let main_bytes = f.cplan.main.map(|m| dag.hop(m).size.bytes()).unwrap_or(0.0);
    let mut part = main_bytes;
    let mut bcast = 0.0;
    for (&s, d) in f.cplan.sides.iter().zip(&spec.sides) {
        let b = dag.hop(s).size.bytes();
        match d {
            SideDisp::Partition => part += b,
            SideDisp::Broadcast => bcast += b,
        }
    }
    let out: f64 = f.roots.iter().map(|&r| dag.hop(r).size.bytes()).sum();
    (part, bcast, out)
}

fn operator_flops(f: &FusedOperator, compute: &[f64]) -> f64 {
    let mut ids: Vec<HopId> = f.cplan.covered.clone();
    ids.extend_from_slice(&f.roots);
    ids.sort_unstable();
    ids.dedup();
    ids.iter().map(|h| compute[h.index()]).sum()
}

/// Estimates one fused operator both ways and returns the estimate pair.
pub fn estimate_operator(
    dag: &HopDag,
    f: &FusedOperator,
    compute: &[f64],
    shards: usize,
    model: &CostModel,
) -> OpEstimate {
    let flops = operator_flops(f, compute);
    let in_bytes: f64 =
        f.cplan.main.iter().chain(f.cplan.sides.iter()).map(|&h| dag.hop(h).size.bytes()).sum();
    let out_bytes: f64 = f.roots.iter().map(|&r| dag.hop(r).size.bytes()).sum();
    let local_seconds = model.local_op_seconds(in_bytes, out_bytes, flops);
    let sharded_seconds = derive_spec(&f.op.spec, &f.cplan, shards).map(|spec| {
        let (part, bcast, out) = operator_bytes(dag, f, &spec);
        model.shard_op_seconds(&DistConfig::in_process(shards), part, bcast, out, flops, shards)
    });
    let label =
        format!("{}[{}x{}]", f.op.spec.template_name(), f.cplan.iter_rows, f.cplan.iter_cols);
    OpEstimate { label, local_seconds, sharded_seconds }
}

/// The planner's local-vs-sharded choice for one fused operator: shard
/// exactly when it is legal *and* the modeled sharded time beats local.
pub fn plan_operator(
    dag: &HopDag,
    f: &FusedOperator,
    compute: &[f64],
    shards: usize,
    model: &CostModel,
) -> Option<ShardSpec> {
    let spec = derive_spec(&f.op.spec, &f.cplan, shards)?;
    let est = estimate_operator(dag, f, compute, shards, model);
    match est.sharded_seconds {
        Some(s) if s < est.local_seconds => Some(spec),
        _ => None,
    }
}

/// Plans every operator of a fusion plan; index-aligned with
/// `plan.operators`.
pub fn plan_shards(
    dag: &HopDag,
    plan: &FusionPlan,
    shards: usize,
    model: &CostModel,
) -> Vec<Option<ShardSpec>> {
    let compute = compute_costs(dag);
    plan.operators.iter().map(|f| plan_operator(dag, f, &compute, shards, model)).collect()
}

/// Shards every legally-shardable operator of a plan unconditionally,
/// skipping the cost comparison (`EngineBuilder::force_shard`; differential
/// tests exercise the sharded data path on cost-unfavorable geometries).
pub fn force_shards(plan: &FusionPlan, shards: usize) -> Vec<Option<ShardSpec>> {
    plan.operators.iter().map(|f| derive_spec(&f.op.spec, &f.cplan, shards)).collect()
}

/// Models a whole plan's fused operators local vs planner-chosen — the
/// `table6` modeled column. Shares the estimator with [`plan_operator`].
pub fn estimate_plan(
    dag: &HopDag,
    plan: &FusionPlan,
    shards: usize,
    model: &CostModel,
) -> PlanEstimate {
    let compute = compute_costs(dag);
    let mut ops = Vec::with_capacity(plan.operators.len());
    let (mut local, mut chosen, mut sharded_ops) = (0.0, 0.0, 0usize);
    for f in &plan.operators {
        let e = estimate_operator(dag, f, &compute, shards, model);
        local += e.local_seconds;
        match e.sharded_seconds {
            Some(s) if s < e.local_seconds => {
                chosen += s;
                sharded_ops += 1;
            }
            _ => chosen += e.local_seconds,
        }
        ops.push(e);
    }
    PlanEstimate { local_seconds: local, chosen_seconds: chosen, sharded_ops, ops }
}

// ---------------------------------------------------------------------------
// Sharded execution
// ---------------------------------------------------------------------------

/// How an engine runs a sharded operator: `k` row bands, each capped at
/// `threads` kernel threads (`EngineBuilder::shards` / `shard_threads`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shards {
    /// Row bands per sharded operator.
    pub k: usize,
    /// Kernel threads inside each band.
    pub threads: usize,
}

/// A failed sharded execution: the lowest-numbered band that failed, and
/// why.
#[derive(Clone, Debug)]
pub struct ShardError {
    pub shard: usize,
    pub message: String,
}

/// What one band of a sharded execution came back with.
enum Band {
    Done(Vec<Matrix>),
    Panicked(String),
    /// Not started: a sibling band had already failed.
    Cancelled,
}

/// Executes one fused operator across `shards.k` row bands: each band runs
/// the skeleton over a balanced row range of the main input (and of the
/// partitioned sides), reading it in place through [`Matrix::row_slice`],
/// with the other sides broadcast whole. [`par::run_bands`] runs band 0 on
/// the calling thread and the others on scoped threads that re-enter the
/// caller's pool scope (tally included). The partials are then merged per the
/// spec, and the call's shard counters come back as a [`SchedSnapshot`]
/// (`sharded_ops` 1, `shards_used` ≤ `Shards::k` and ≤ main rows, broadcast
/// bytes once per receiving band, merged partial bytes, merge time, skew).
/// A panicking band cancels the bands that have not started and surfaces as
/// one [`ShardError`] naming the lowest failed band.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    shards: Shards,
    op: &GeneratedOperator,
    spec: &ShardSpec,
    main: &Matrix,
    sides: &[Matrix],
    scalars: &[f64],
    iter_cols: usize,
    inject_panic: bool,
) -> Result<(Vec<Matrix>, SchedSnapshot), ShardError> {
    let rows = main.rows();
    let k = spec.shards.min(shards.k).min(rows).max(1);
    let (base, rem) = (rows / k, rows % k);
    let band_start = |ix: usize| ix * base + ix.min(rem);
    let partition: Vec<bool> = spec.sides.iter().map(|d| *d == SideDisp::Partition).collect();
    let shard_broadcast_bytes =
        sides.iter().zip(&partition).map(|(s, &p)| if p { 0 } else { k * s.size_in_bytes() }).sum();
    let cancel = AtomicBool::new(false);
    let run_band = |ix: usize| -> (Band, u64) {
        let started = Instant::now();
        if cancel.load(Ordering::Relaxed) {
            return (Band::Cancelled, 0);
        }
        let _limit = par::limit_current_thread(shards.threads.max(1));
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic && ix == 0 {
                panic!("injected shard panic");
            }
            let (r0, r1) = (band_start(ix), band_start(ix + 1));
            let main = main.row_slice(r0, r1);
            let band_side =
                |(s, &p): (&Matrix, &bool)| if p { s.row_slice(r0, r1) } else { s.clone() };
            let sides: Vec<Matrix> = sides.iter().zip(&partition).map(band_side).collect();
            spoof::execute(op, Some(&main), &sides, scalars, r1 - r0, iter_cols)
        }));
        let band = match ran {
            Ok(outs) => Band::Done(outs),
            Err(payload) => {
                cancel.store(true, Ordering::Relaxed);
                Band::Panicked(panic_message(&*payload))
            }
        };
        (band, started.elapsed().as_nanos() as u64)
    };
    let bands = par::run_bands(0..k, run_band);
    let times: Vec<u64> = bands.iter().map(|&(_, t)| t).collect();
    let mut parts = Vec::with_capacity(k);
    let mut failed: Option<ShardError> = None;
    for (shard, (band, _)) in bands.into_iter().enumerate() {
        match band {
            Band::Done(outs) => parts.push(outs),
            Band::Panicked(message) => {
                failed.get_or_insert(ShardError { shard, message });
            }
            Band::Cancelled => {}
        }
    }
    if let Some(e) = failed {
        return Err(e);
    }
    let shard_partial_bytes = parts.iter().flat_map(|p| p.iter().map(Matrix::size_in_bytes)).sum();
    let merge_start = Instant::now();
    let outs = merge_parts(&spec.merge, parts);
    let shard_merge_us = merge_start.elapsed().as_micros() as usize;
    let max = times.iter().copied().max().unwrap_or(0);
    let mean = times.iter().sum::<u64>() / k as u64;
    let shard_skew_milli = max.saturating_mul(1000).checked_div(mean).unwrap_or(1000) as usize;
    let counts = SchedSnapshot {
        sharded_ops: 1,
        shards_used: k,
        shard_broadcast_bytes,
        shard_partial_bytes,
        shard_merge_us,
        shard_skew_milli,
        ..SchedSnapshot::default()
    };
    Ok((outs, counts))
}

/// Merges per-shard partial outputs, consuming them (their buffers go back
/// to the pool). Concat keeps the partials' shared format class (all-sparse
/// stays CSR, bitwise-identical to unsharded execution) and assembles one
/// pooled buffer; element-wise merges fold every later partial into the
/// first shard's in place (only a shared or sparse partial is copied).
fn merge_parts(plan: &MergePlan, parts: Vec<Vec<Matrix>>) -> Vec<Matrix> {
    let n_outs = parts.first().map(Vec::len).unwrap_or(0);
    // Per output, its partials in shard order.
    let mut per_out: Vec<Vec<Matrix>> = vec![Vec::new(); n_outs];
    for shard in parts {
        per_out.iter_mut().zip(shard).for_each(|(ms, m)| ms.push(m));
    }
    let merge_one = |(j, ms): (usize, Vec<Matrix>)| match plan {
        MergePlan::ConcatRows => {
            let out = Matrix::concat_rows(&ms);
            ms.into_iter().for_each(Matrix::recycle);
            out
        }
        MergePlan::Elementwise(ops) => {
            let op = ops.get(j).copied().unwrap_or(MergeOp::Add);
            let acc = ms
                .into_iter()
                .map(|m| m.try_into_dense().unwrap_or_else(|m| m.to_dense()))
                .reduce(|mut acc, d| {
                    for (a, &b) in acc.values_mut().iter_mut().zip(d.values()) {
                        *a = match op {
                            MergeOp::Add => *a + b,
                            MergeOp::Min => AggOp::Min.combine(*a, b),
                            MergeOp::Max => AggOp::Max.combine(*a, b),
                        };
                    }
                    pool::give(d.into_values());
                    acc
                });
            Matrix::dense(acc.expect("a sharded execution has at least one partial"))
        }
    };
    per_out.into_iter().enumerate().map(merge_one).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_core::spoof::{CellSpec, Program};
    use fusedml_linalg::DenseMatrix;

    fn sum_operator() -> GeneratedOperator {
        // sum(X): LoadMain → FullAgg(Sum).
        let prog =
            Program { instrs: vec![Instr::LoadMain { out: 0 }], n_regs: 1, vreg_lens: Vec::new() };
        spoof::operator(FusedSpec::Cell(CellSpec {
            prog,
            result: 0,
            agg: CellAgg::FullAgg(AggOp::Sum),
            sparse_safe: true,
        }))
    }

    fn square_operator() -> GeneratedOperator {
        // X^2 map-class: LoadMain, multiply by itself.
        let prog = Program {
            instrs: vec![
                Instr::LoadMain { out: 0 },
                Instr::Binary { out: 1, op: fusedml_linalg::ops::BinaryOp::Mult, a: 0, b: 0 },
            ],
            n_regs: 2,
            vreg_lens: Vec::new(),
        };
        spoof::operator(FusedSpec::Cell(CellSpec {
            prog,
            result: 1,
            agg: CellAgg::NoAgg,
            sparse_safe: true,
        }))
    }

    fn shards(k: usize) -> Shards {
        Shards { k, threads: 1 }
    }

    fn seq_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::dense(DenseMatrix::new(
            rows,
            cols,
            (0..rows * cols).map(|i| (i % 97) as f64 - 11.0).collect(),
        ))
    }

    #[test]
    fn sharded_full_agg_matches_local() {
        let op = sum_operator();
        let x = seq_matrix(1003, 8);
        let spec = ShardSpec {
            shards: 4,
            sides: Vec::new(),
            merge: MergePlan::Elementwise(vec![MergeOp::Add]),
        };
        let (outs, stats) =
            execute(shards(4), &op, &spec, &x, &[], &[], 8, false).expect("sharded execute");
        let local = spoof::execute(&op, Some(&x), &[], &[], 1003, 8);
        assert_eq!(stats.shards_used, 4);
        assert_eq!(outs.len(), 1);
        let (got, want) = (outs[0].as_dense().values()[0], local[0].as_dense().values()[0]);
        assert!((got - want).abs() <= 1e-11 * want.abs().max(1.0), "{got} vs {want}");
    }

    #[test]
    fn sharded_map_class_is_bitwise_equal() {
        let op = square_operator();
        let x = seq_matrix(517, 5);
        let spec = ShardSpec { shards: 3, sides: Vec::new(), merge: MergePlan::ConcatRows };
        let (outs, stats) =
            execute(shards(3), &op, &spec, &x, &[], &[], 5, false).expect("sharded execute");
        let local = spoof::execute(&op, Some(&x), &[], &[], 517, 5);
        assert_eq!(stats.shards_used, 3);
        assert_eq!(
            outs[0].as_dense().values(),
            local[0].as_dense().values(),
            "map-class shard merge must be bitwise identical"
        );
    }

    #[test]
    fn injected_shard_panic_fails_request_but_not_pool() {
        let op = sum_operator();
        let x = seq_matrix(64, 4);
        let spec = ShardSpec {
            shards: 2,
            sides: Vec::new(),
            merge: MergePlan::Elementwise(vec![MergeOp::Add]),
        };
        let err = execute(shards(2), &op, &spec, &x, &[], &[], 4, true)
            .expect_err("injected panic must fail the request");
        assert_eq!(err.shard, 0);
        assert!(err.message.contains("injected shard panic"), "{}", err.message);
        // The failure is confined to its call: a later execute succeeds.
        let (outs, _) =
            execute(shards(2), &op, &spec, &x, &[], &[], 4, false).expect("later execute");
        let local = spoof::execute(&op, Some(&x), &[], &[], 64, 4);
        assert_eq!(outs[0].as_dense().values()[0], local[0].as_dense().values()[0]);
    }

    #[test]
    fn merge_ops_fold_correctly() {
        let a = vec![Matrix::dense(DenseMatrix::new(1, 3, vec![1.0, 5.0, -2.0]))];
        let b = vec![Matrix::dense(DenseMatrix::new(1, 3, vec![4.0, 2.0, -7.0]))];
        let parts = vec![a, b];
        let add = merge_parts(&MergePlan::Elementwise(vec![MergeOp::Add]), parts.clone());
        assert_eq!(add[0].as_dense().values(), &[5.0, 7.0, -9.0]);
        let min = merge_parts(&MergePlan::Elementwise(vec![MergeOp::Min]), parts.clone());
        assert_eq!(min[0].as_dense().values(), &[1.0, 2.0, -7.0]);
        let max = merge_parts(&MergePlan::Elementwise(vec![MergeOp::Max]), parts);
        assert_eq!(max[0].as_dense().values(), &[4.0, 5.0, -2.0]);
    }

    #[test]
    fn mean_aggregates_are_not_merged() {
        assert_eq!(merge_op_for(AggOp::Mean), None);
        assert_eq!(merge_op_for(AggOp::Sum), Some(MergeOp::Add));
        assert_eq!(merge_op_for(AggOp::SumSq), Some(MergeOp::Add));
        assert_eq!(merge_op_for(AggOp::Min), Some(MergeOp::Min));
        assert_eq!(merge_op_for(AggOp::Max), Some(MergeOp::Max));
    }
}
