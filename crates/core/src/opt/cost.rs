//! The analytical cost model for DAG-structured fusion plans (paper §4.3,
//! Equation 4):
//!
//! `C(P|q) = Σ_p ( T̂w_p + max(T̂r_p, T̂c_p) )`
//!
//! Read/write times derive from input/output sizes divided by peak memory
//! bandwidth; compute time from floating-point operations divided by peak
//! compute bandwidth. Shared reads and CSEs inside one fused operator are
//! captured by *cost vectors*; memoization of (operator, cost-vector) pairs
//! returns zero on re-visits while still accounting for the redundant
//! compute of overlapping operators. Sparsity-exploiting operators scale
//! compute down by the main input's sparsity.

use crate::memo::{MemoEntry, MemoTable};
use crate::opt::partition::{InterestingPoint, PlanPartition};
use crate::templates::TemplateType;
use crate::util::{FxHashMap, FxHashSet};
use fusedml_hop::{HopDag, HopId, OpKind};
use fusedml_linalg::ops::UnaryOp;

/// Distributed-execution cost parameters (paper §4.4 "Constraints and
/// Distributed Operations"; DESIGN.md substitution X2).
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Number of executors.
    pub executors: usize,
    /// Aggregate executor scan bandwidth (bytes/s).
    pub exec_read_bw: f64,
    /// Point-to-point network bandwidth for broadcasts (bytes/s).
    pub net_bw: f64,
    /// Single-node memory budget: operators whose largest input exceeds
    /// this execute distributed.
    pub local_budget: f64,
    /// Block size constraint: distributed Row templates require
    /// `ncol(X) <= block_cols` (access to entire rows).
    pub block_cols: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            executors: 6,
            exec_read_bw: 6.0 * 32e9,
            net_bw: 1.25e9, // 10 Gb Ethernet
            local_budget: fusedml_hop::memory::DEFAULT_LOCAL_BUDGET,
            block_cols: 1000,
        }
    }
}

/// Bandwidth constants of the cost model. Defaults follow the paper's
/// nominal per-node peaks; only ratios matter for plan comparisons.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Peak read bandwidth (bytes/s).
    pub read_bw: f64,
    /// Peak write bandwidth (bytes/s).
    pub write_bw: f64,
    /// Peak compute bandwidth (FLOP/s).
    pub compute_bw: f64,
    /// Per-cell dispatch overhead of generated Cell/MAgg/Outer operators in
    /// FLOP-equivalents. The scalar register interpreter paid ~10–20 here;
    /// the tile-vectorized block backend amortizes instruction dispatch over
    /// whole tiles, leaving a small constant (re-measured by
    /// `calibrate::calibrate`) so the optimizer's Gen-vs-Base tradeoff
    /// reflects the faster backend.
    pub fused_dispatch_flops: f64,
    /// Per-row dispatch overhead of generated Row operators in
    /// FLOP-equivalents: the band-lowered row kernel pays its instruction
    /// dispatch once per row (per-row scalar prologue + per-row body
    /// dispatch), not per cell.
    pub row_dispatch_flops: f64,
    /// Distributed configuration (None = single-node only).
    pub dist: Option<DistConfig>,
}

/// Default per-cell dispatch overhead of the block backend (FLOP-equivalents
/// per generated-operator cell).
pub const DEFAULT_FUSED_DISPATCH_FLOPS: f64 = 2.0;

/// Default per-row dispatch overhead of the Row backend (FLOP-equivalents
/// per iterated main-input row).
pub const DEFAULT_ROW_DISPATCH_FLOPS: f64 = 32.0;

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_bw: 32e9,
            write_bw: 16e9,
            compute_bw: 4e9,
            fused_dispatch_flops: DEFAULT_FUSED_DISPATCH_FLOPS,
            row_dispatch_flops: DEFAULT_ROW_DISPATCH_FLOPS,
            dist: None,
        }
    }
}

/// Fixed per-operator dispatch overhead of sharded execution in seconds:
/// channel sends, reply collection, and merge bookkeeping across the shard
/// pool. The local-vs-sharded break-even point this implies (~a few MB of
/// input at 4 shards) is what the plan-choice tests pin.
pub const SHARD_DISPATCH_S: f64 = 40e-6;

impl CostModel {
    /// A model with the distributed backend enabled.
    pub fn with_distributed(dist: DistConfig) -> Self {
        CostModel { dist: Some(dist), ..CostModel::default() }
    }

    /// Estimated wall time of one operator executed locally (paper Eq. 4:
    /// write + max(read, compute), all single-node bandwidths).
    pub fn local_op_seconds(&self, in_bytes: f64, out_bytes: f64, flops: f64) -> f64 {
        out_bytes / self.write_bw + (in_bytes / self.read_bw).max(flops / self.compute_bw)
    }

    /// Estimated wall time of the same operator executed across `shards`
    /// worker shards (Boehm 2017-style): partitioned inputs scan in place at
    /// the aggregate executor bandwidth (no copy is charged: a shard reads
    /// its row band where it lies), broadcast sides pay the interconnect
    /// once per shard, compute divides across the executors that exist
    /// (shards beyond `dist.executors` share cores and add nothing), and the
    /// driver pays a fixed dispatch overhead plus the partial-output merge.
    pub fn shard_op_seconds(
        &self,
        dist: &DistConfig,
        part_bytes: f64,
        bcast_bytes: f64,
        out_bytes: f64,
        flops: f64,
        shards: usize,
    ) -> f64 {
        let k = shards.max(1) as f64;
        let scan = part_bytes / dist.exec_read_bw;
        let bcast = bcast_bytes * k / dist.net_bw;
        let compute = flops / (self.compute_bw * k.min(dist.executors.max(1) as f64));
        // Partial outputs flow back over the same interconnect and merge at
        // driver write bandwidth (the merge reads k partials, writes one).
        let merge = out_bytes * k / dist.net_bw + out_bytes / self.write_bw;
        SHARD_DISPATCH_S + bcast + scan.max(compute) + merge
    }
}

impl DistConfig {
    /// Cost constants for the in-process shard runtime (`runtime::shard`):
    /// shards are threads in one address space, so "network" transfers are
    /// memcpy-class (an `Arc` clone for broadcasts, buffer copies for partial
    /// merges), partitioned inputs are read in place, and executor scan
    /// bandwidth is the shared memory bus. Executors are the shards that can
    /// run at once: no more than the cores this process may use. Used both
    /// by the planner's local-vs-sharded choice and by `table6`'s modeled
    /// column, so modeled and measured execution share one estimator.
    pub fn in_process(shards: usize) -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        DistConfig {
            executors: shards.clamp(1, cores),
            exec_read_bw: 32e9,
            net_bw: 8e9,
            local_budget: fusedml_hop::memory::DEFAULT_LOCAL_BUDGET,
            block_cols: usize::MAX,
        }
    }
}

/// Per-hop compute workload in FLOPs (sparse-aware: proportional to the
/// estimated non-zeros actually touched).
pub fn compute_costs(dag: &HopDag) -> Vec<f64> {
    dag.iter()
        .map(|h| {
            let out_nnz = h.size.nnz();
            match &h.kind {
                OpKind::Read { .. } | OpKind::Literal { .. } => 0.0,
                OpKind::Unary { op } => out_nnz * unary_weight(*op),
                OpKind::Binary { .. } => out_nnz,
                OpKind::Ternary { .. } => 2.0 * out_nnz,
                OpKind::MatMult => {
                    // FLOPs for (m×k)%*%(k×n): 2·m·k·n scaled by the sparser
                    // input (sparse×dense iterates non-zeros of the sparse).
                    let a = dag.hop(h.inputs[0]);
                    let b = dag.hop(h.inputs[1]);
                    let sp = a.size.sparsity.min(b.size.sparsity).clamp(1e-12, 1.0);
                    2.0 * a.size.rows as f64 * a.size.cols as f64 * b.size.cols as f64 * sp
                }
                OpKind::Transpose => h.size.nnz(),
                OpKind::Agg { .. } => dag.hop(h.inputs[0]).size.nnz(),
                OpKind::CumAgg { .. } => h.size.cells() as f64,
                OpKind::RightIndex { .. } => out_nnz,
                OpKind::CBind | OpKind::RBind => out_nnz,
                OpKind::Diag => h.size.rows as f64,
            }
        })
        .collect()
}

fn unary_weight(op: UnaryOp) -> f64 {
    match op {
        UnaryOp::Exp | UnaryOp::Log | UnaryOp::Sigmoid | UnaryOp::Sqrt => 20.0,
        _ => 1.0,
    }
}

/// A cost vector: the running description of one opened fused operator
/// (paper §4.3 "Cost Computation via Cost Vectors").
#[derive(Clone, Debug)]
pub struct CostVector {
    pub id: u32,
    pub ttype: TemplateType,
    pub out_bytes: f64,
    pub compute: f64,
    /// Distinct inputs: hop → (bytes, sparsity, cells, rows).
    pub inputs: FxHashMap<HopId, (f64, f64, f64, f64)>,
}

impl CostVector {
    fn new(id: u32, ttype: TemplateType, out_bytes: f64) -> Self {
        CostVector { id, ttype, out_bytes, compute: 0.0, inputs: FxHashMap::default() }
    }

    fn add_input(&mut self, dag: &HopDag, h: HopId) {
        let s = dag.hop(h).size;
        self.inputs.insert(h, (s.bytes(), s.sparsity, s.cells() as f64, s.rows as f64));
    }
}

/// The plan-costing engine for one partition under an assignment.
pub struct PlanCoster<'a> {
    pub dag: &'a HopDag,
    pub memo: &'a MemoTable,
    pub part: &'a PlanPartition,
    pub compute: &'a [f64],
    pub model: &'a CostModel,
    /// Interesting points assigned `true` (materialize).
    pub materialized: &'a FxHashSet<InterestingPoint>,
    part_set: FxHashSet<HopId>,
    visited: FxHashSet<(HopId, u32)>,
    next_id: u32,
}

impl<'a> PlanCoster<'a> {
    pub fn new(
        dag: &'a HopDag,
        memo: &'a MemoTable,
        part: &'a PlanPartition,
        compute: &'a [f64],
        model: &'a CostModel,
        materialized: &'a FxHashSet<InterestingPoint>,
    ) -> Self {
        PlanCoster {
            dag,
            memo,
            part,
            compute,
            model,
            materialized,
            part_set: part.nodes.iter().copied().collect(),
            visited: FxHashSet::default(),
            next_id: 1,
        }
    }

    /// Costs the partition under the assignment; aborts early returning
    /// `f64::INFINITY` once the running cost exceeds `upper_bound` (partial
    /// costing, paper §4.4).
    pub fn partition_cost(mut self, upper_bound: f64) -> f64 {
        let mut total = 0.0;
        for &root in &self.part.roots {
            total += self.r_cost(root, &mut None);
            if total >= upper_bound {
                return f64::INFINITY;
            }
        }
        total
    }

    /// Picks the best valid memo entry at `hop`; see [`pick_best_entry`].
    pub fn pick_best(&self, hop: HopId, current: Option<TemplateType>) -> Option<MemoEntry> {
        pick_best_entry(self.memo, hop, current, self.materialized)
    }

    fn r_cost(&mut self, hop: HopId, current: &mut Option<CostVector>) -> f64 {
        let tag = (hop, current.as_ref().map(|c| c.id).unwrap_or(0));
        if !self.visited.insert(tag) {
            return 0.0;
        }
        let cur_type = current.as_ref().map(|c| c.ttype);
        let in_part = self.part_set.contains(&hop);
        let best = if in_part { self.pick_best(hop, cur_type) } else { None };
        let opened = cur_type.is_none();

        // The cost vector this hop contributes to.
        let mut fresh: Option<CostVector> = None;
        let cv: &mut Option<CostVector> = if opened {
            if let Some(b) = &best {
                let out_bytes = self.dag.hop(hop).size.bytes();
                fresh = Some(CostVector::new(self.next_id, b.ttype, out_bytes));
                self.next_id += 1;
            }
            &mut fresh // stays None for basic operators
        } else {
            current
        };

        // Add this operator's compute workload (skipping transposes fused
        // into Row operators, which read rows directly).
        if in_part {
            if let Some(v) = cv.as_mut() {
                let skip =
                    v.ttype == TemplateType::Row && self.dag.hop(hop).kind == OpKind::Transpose;
                if !skip {
                    v.compute += self.compute[hop.index()];
                }
            }
        }

        // Children.
        let inputs = self.dag.hop(hop).inputs.clone();
        let mut costs = 0.0;
        for (j, &input) in inputs.iter().enumerate() {
            let fused = best.as_ref().is_some_and(|b| b.inputs[j].is_fused());
            if fused {
                costs += self.r_cost(input, cv);
            } else {
                if self.part_set.contains(&input) {
                    costs += self.r_cost(input, &mut None);
                }
                if let Some(v) = cv.as_mut() {
                    if !self.dag.hop(input).is_scalar() {
                        v.add_input(self.dag, input);
                    }
                } else if opened {
                    // Basic operator input: charged in basic_cost below.
                }
            }
        }

        if opened {
            costs += match fresh {
                Some(v) => self.close_cost(&v),
                None => self.basic_cost(hop, in_part),
            };
        }
        costs
    }

    /// Eq. (4) contribution of a closed fused operator.
    fn close_cost(&self, v: &CostVector) -> f64 {
        let mut compute = v.compute;
        let max_cells = v.inputs.values().map(|&(_, _, c, _)| c).fold(0.0f64, f64::max);
        // The driver (main) input: the largest bound matrix. Its sparsity
        // and row count steer sparsity exploitation and per-row overheads.
        let driver_sp = v
            .inputs
            .values()
            .filter(|&&(_, _, c, _)| c >= 0.5 * max_cells)
            .map(|&(_, sp, _, _)| sp)
            .fold(1.0f64, f64::min);
        let driver_rows = v
            .inputs
            .values()
            .filter(|&&(_, _, c, _)| c >= 0.5 * max_cells)
            .map(|&(_, _, _, r)| r)
            .fold(0.0f64, f64::max);
        let iter_cells = match v.ttype {
            // Sparsity exploitation: Outer operators iterate non-zeros of
            // the sparse driver. The covered `UVᵀ` product is estimated
            // dense by `compute_costs`, so the driver's sparsity is the
            // correction for computing it at non-zero positions only.
            TemplateType::Outer => {
                compute *= driver_sp;
                max_cells * driver_sp
            }
            // Row operators execute sparse main rows over their non-zeros
            // (sparse-aware band execution). Per-hop compute is already
            // nnz-proportional for everything a Row template covers
            // (element-wise, matmult, agg), so no extra sparsity factor —
            // only the per-row instruction dispatch, paid once per row,
            // not per cell.
            TemplateType::Row => {
                compute += self.model.row_dispatch_flops * driver_rows;
                max_cells
            }
            _ => max_cells,
        };
        // Per-cell dispatch overhead of the generated operator's register
        // program (Cell/MAgg/Outer evaluate it per iterated tile cell).
        if v.ttype != TemplateType::Row {
            compute += self.model.fused_dispatch_flops * iter_cells;
        }
        let t_c = compute / self.model.compute_bw;
        self.io_cost(v.out_bytes, v.inputs.values().map(|&(b, _, _, _)| b), t_c)
    }

    /// Eq. (4) contribution of a basic (unfused) operator. Compute is
    /// charged regardless of partition membership: basic operators always
    /// run exactly once.
    fn basic_cost(&self, hop: HopId, in_part: bool) -> f64 {
        let _ = in_part;
        let h = self.dag.hop(hop);
        if h.kind.is_leaf() {
            return 0.0;
        }
        let t_c = self.compute[hop.index()] / self.model.compute_bw;
        let inputs: Vec<f64> = h.inputs.iter().map(|&i| self.dag.hop(i).size.bytes()).collect();
        self.io_cost(h.size.bytes(), inputs.into_iter(), t_c)
    }

    /// `T̂w + max(T̂r, T̂c)` with local/distributed bandwidth selection.
    fn io_cost(&self, out_bytes: f64, inputs: impl Iterator<Item = f64>, t_c: f64) -> f64 {
        let inputs: Vec<f64> = inputs.collect();
        let max_in = inputs.iter().copied().fold(0.0f64, f64::max);
        match self.model.dist {
            Some(d) if max_in > d.local_budget => {
                // Distributed operator: large inputs scan at aggregate
                // bandwidth; small inputs are broadcast to every executor.
                let mut t_r = 0.0;
                for b in &inputs {
                    if *b > d.local_budget {
                        t_r += b / d.exec_read_bw;
                    } else {
                        t_r += b * d.executors as f64 / d.net_bw;
                    }
                }
                let t_w = if out_bytes > d.local_budget {
                    out_bytes / (d.exec_read_bw / 2.0)
                } else {
                    // Collect to the driver.
                    out_bytes * d.executors as f64 / d.net_bw / d.executors as f64
                        + out_bytes / self.model.write_bw
                };
                let t_c_dist = t_c / d.executors as f64;
                t_w + t_r.max(t_c_dist)
            }
            _ => {
                let t_r: f64 = inputs.iter().sum::<f64>() / self.model.read_bw;
                let t_w = out_bytes / self.model.write_bw;
                t_w + t_r.max(t_c)
            }
        }
    }
}

/// Picks the best valid memo entry at `hop` (paper: query the memo table
/// "for the best fusion plan regarding template type and fusion
/// references"): maximal references first, then template preference.
/// Entries referencing a materialized interesting point are invalid and
/// ignored (paper §4.2); `current` restricts to merge-compatible types when
/// extending an open operator.
pub fn pick_best_entry(
    memo: &MemoTable,
    hop: HopId,
    current: Option<TemplateType>,
    materialized: &FxHashSet<InterestingPoint>,
) -> Option<MemoEntry> {
    let mut best: Option<&MemoEntry> = None;
    for e in memo.entries(hop) {
        let type_ok = match current {
            None => true,
            Some(t) => t.merge_compatible(e.ttype),
        };
        let valid = e
            .refs()
            .all(|r| !materialized.contains(&InterestingPoint { consumer: hop, target: r }));
        if !type_ok || !valid {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => {
                (e.ref_count(), e.ttype.preference()) > (b.ref_count(), b.ttype.preference())
            }
        };
        if better {
            best = Some(e);
        }
    }
    best.cloned()
}

/// The components of a partition's static lower bound (paper §4.4).
#[derive(Clone, Copy, Debug)]
pub struct StaticCosts {
    /// Writing the partition roots (seconds).
    pub root_writes: f64,
    /// Reading every partition input once (seconds).
    pub input_reads: f64,
    /// Minimal computation with maximal sparsity exploitation (seconds).
    pub min_compute: f64,
}

impl StaticCosts {
    /// Combines with per-assignment materialization costs into a sound
    /// lower bound on Eq. (4):
    ///
    /// `Σ_p (T̂w + max(T̂r, T̂c)) ≥ (root + mat writes) +
    ///  max(input reads + mat reads, min compute)`
    ///
    /// The materialization *reads* must stay inside the max — a
    /// compute-bound plan overlaps them with computation.
    pub fn lower_bound(&self, mat_writes: f64, mat_reads: f64) -> f64 {
        self.root_writes + mat_writes + (self.input_reads + mat_reads).max(self.min_compute)
    }
}

/// Computes the static lower-bound components: reading partition inputs
/// once, minimal computation, and writing partition roots.
pub fn static_parts(
    dag: &HopDag,
    part: &PlanPartition,
    compute: &[f64],
    model: &CostModel,
) -> StaticCosts {
    let input_reads: f64 =
        part.inputs.iter().map(|&i| dag.hop(i).size.bytes()).sum::<f64>() / model.read_bw;
    // Minimal compute assumes maximal sparsity exploitation: a
    // sparsity-exploiting operator (Outer, sparse-aware Row) scales its
    // whole compute by its driver's sparsity, so the sound per-node factor
    // is the minimum sparsity over everything the partition touches.
    let min_sp = part
        .nodes
        .iter()
        .chain(part.inputs.iter())
        .map(|&n| dag.hop(n).size.sparsity)
        .fold(1.0f64, f64::min)
        .clamp(0.0, 1.0);
    let min_compute: f64 =
        part.nodes.iter().map(|&n| compute[n.index()] * min_sp).sum::<f64>() / model.compute_bw;
    let root_writes: f64 =
        part.roots.iter().map(|&r| dag.hop(r).size.bytes()).sum::<f64>() / model.write_bw;
    StaticCosts { root_writes, input_reads, min_compute }
}

/// Convenience: the assignment-independent part of the lower bound.
pub fn static_costs(dag: &HopDag, part: &PlanPartition, compute: &[f64], model: &CostModel) -> f64 {
    static_parts(dag, part, compute, model).lower_bound(0.0, 0.0)
}

/// Minimal materialization costs of an assignment (`getMPCost`): every
/// distinct materialized target requires at least one write and one read.
/// Returns `(write_seconds, read_seconds)` so the lower bound can overlap
/// the reads with computation.
pub fn mp_cost(
    dag: &HopDag,
    points: &[InterestingPoint],
    assignment: &[bool],
    model: &CostModel,
) -> (f64, f64) {
    let mut seen: FxHashSet<HopId> = FxHashSet::default();
    let (mut w, mut r) = (0.0, 0.0);
    for (p, &on) in points.iter().zip(assignment) {
        if on && seen.insert(p.target) {
            let b = dag.hop(p.target).size.bytes();
            w += b / model.write_bw;
            r += b / model.read_bw;
        }
    }
    (w, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::opt::partition::partitions;
    use fusedml_hop::DagBuilder;

    fn cost_of(
        dag: &HopDag,
        memo: &MemoTable,
        part: &PlanPartition,
        materialized: &FxHashSet<InterestingPoint>,
    ) -> f64 {
        let compute = compute_costs(dag);
        let model = CostModel::default();
        PlanCoster::new(dag, memo, part, &compute, &model, materialized)
            .partition_cost(f64::INFINITY)
    }

    /// Fusing `sum(X⊙Y⊙Z)` must be cheaper than materializing intermediates.
    #[test]
    fn fusion_beats_materialization_for_cell_chain() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let z = b.read("Z", 1000, 1000, 1.0);
        let m1 = b.mult(x, y);
        let m2 = b.mult(m1, z);
        let s = b.sum(m2);
        let dag = b.build(vec![s]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        assert_eq!(parts.len(), 1);
        let fuse_all = FxHashSet::default();
        let c_fused = cost_of(&dag, &memo, &parts[0], &fuse_all);
        // Materialize the m1→m2 edge — but it is not an interesting point
        // here (single consumer); instead compare against an empty memo
        // (pure base execution).
        let empty = MemoTable::new();
        let c_base = cost_of(&dag, &empty, &parts[0], &fuse_all);
        assert!(c_fused < c_base * 0.8, "fused {c_fused} must beat base {c_base} clearly");
    }

    /// Redundant compute appears when a shared intermediate is fused into
    /// two consumers, and disappears when materialized.
    #[test]
    fn shared_intermediate_costs_reflect_redundancy() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 2000, 2000, 1.0);
        let y = b.read("Y", 2000, 2000, 1.0);
        let shared = b.exp(x); // expensive unary
        let p1 = b.mult(shared, y);
        let s1 = b.sum(p1);
        let p2 = b.mult(shared, x);
        let s2 = b.sum(p2);
        let dag = b.build(vec![s1, s2]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        assert_eq!(parts.len(), 1);
        let part = &parts[0];
        // Find the interesting points for the shared node's consumer edges.
        let shared_pts: Vec<InterestingPoint> =
            part.interesting.iter().copied().filter(|p| p.target == shared).collect();
        assert_eq!(shared_pts.len(), 2);
        let fuse_all = FxHashSet::default();
        let c_redundant = cost_of(&dag, &memo, part, &fuse_all);
        let materialize: FxHashSet<InterestingPoint> = shared_pts.into_iter().collect();
        let c_materialized = cost_of(&dag, &memo, part, &materialize);
        // exp is compute-heavy: computing it twice must cost more than one
        // materialize + two reads.
        assert!(
            c_materialized < c_redundant,
            "materialized {c_materialized} vs redundant {c_redundant}"
        );
    }

    /// Outer-template sparsity exploitation: the same expression over a
    /// sparse driver costs far less than over a dense driver.
    #[test]
    fn outer_sparsity_scales_compute() {
        let build = |sp: f64| {
            let mut b = DagBuilder::new();
            let x = b.read("X", 20_000, 20_000, sp);
            let u = b.read("U", 20_000, 100, 1.0);
            let v = b.read("V", 20_000, 100, 1.0);
            let vt = b.t(v);
            let uvt = b.mm(u, vt);
            let prod = b.mult(x, uvt);
            let s = b.sum(prod);
            b.build(vec![s])
        };
        let cost = |dag: &HopDag| {
            let memo = explore(dag);
            let parts = partitions(dag, &memo);
            // Pick the partition holding the main expression (largest).
            let part = parts.iter().max_by_key(|p| p.nodes.len()).unwrap();
            let fuse_all = FxHashSet::default();
            cost_of(dag, &memo, part, &fuse_all)
        };
        let sparse = build(0.001);
        let dense = build(1.0);
        let c_sparse = cost(&sparse);
        let c_dense = cost(&dense);
        assert!(
            c_sparse * 20.0 < c_dense,
            "sparse driver {c_sparse} must be ≫ cheaper than dense {c_dense}"
        );
    }

    /// Row-template sparsity exploitation: the mv-chain over a sparse main
    /// must cost far less than over a dense main (the band-lowered Row
    /// backend iterates non-zeros), and the per-row dispatch overhead must
    /// be visible for row-heavy shapes.
    #[test]
    fn row_sparsity_scales_compute() {
        let build = |sp: f64| {
            let mut b = DagBuilder::new();
            let x = b.read("X", 100_000, 1_000, sp);
            let v = b.read("v", 1_000, 1, 1.0);
            let xv = b.mm(x, v);
            let xt = b.t(x);
            let out = b.mm(xt, xv);
            b.build(vec![out])
        };
        let cost = |dag: &HopDag| {
            let memo = explore(dag);
            let parts = partitions(dag, &memo);
            let part = parts.iter().max_by_key(|p| p.nodes.len()).unwrap();
            let fuse_all = FxHashSet::default();
            cost_of(dag, &memo, part, &fuse_all)
        };
        let c_sparse = cost(&build(0.01));
        let c_dense = cost(&build(1.0));
        assert!(
            c_sparse * 5.0 < c_dense,
            "sparse row driver {c_sparse} must be ≫ cheaper than dense {c_dense}"
        );
        // The per-row overhead term responds to the model constant.
        let dag = build(0.01);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let part = parts.iter().max_by_key(|p| p.nodes.len()).unwrap();
        let compute = compute_costs(&dag);
        let fuse_all = FxHashSet::default();
        let cheap = CostModel { row_dispatch_flops: 0.0, ..CostModel::default() };
        let heavy = CostModel { row_dispatch_flops: 10_000.0, ..CostModel::default() };
        let c_cheap = PlanCoster::new(&dag, &memo, part, &compute, &cheap, &fuse_all)
            .partition_cost(f64::INFINITY);
        let c_heavy = PlanCoster::new(&dag, &memo, part, &compute, &heavy, &fuse_all)
            .partition_cost(f64::INFINITY);
        assert!(c_heavy > c_cheap, "per-row dispatch overhead must be visible");
    }

    /// Distributed operators charge broadcast costs for small side inputs.
    #[test]
    fn distributed_broadcast_costs_vectors() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 50_000_000, 100, 1.0); // 40 GB — distributed
        let v = b.read("v", 50_000_000, 1, 1.0); // 400 MB vector
        let m = b.mult(x, v);
        let s = b.sum(m);
        let dag = b.build(vec![s]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let part = parts.iter().max_by_key(|p| p.nodes.len()).unwrap();
        let compute = compute_costs(&dag);
        let fuse_all = FxHashSet::default();
        let local_model = CostModel::default();
        let dist_model = CostModel::with_distributed(DistConfig::default());
        let c_local = PlanCoster::new(&dag, &memo, part, &compute, &local_model, &fuse_all)
            .partition_cost(f64::INFINITY);
        let c_dist = PlanCoster::new(&dag, &memo, part, &compute, &dist_model, &fuse_all)
            .partition_cost(f64::INFINITY);
        // The broadcast of the 400 MB vector to 6 executors over 1.25 GB/s
        // must be visible in the distributed cost.
        assert!(c_dist != c_local);
        assert!(c_dist > 0.4e9 * 6.0 / 1.25e9 * 0.5, "broadcast term present: {c_dist}");
    }

    #[test]
    fn static_and_mp_costs_are_lower_bounds() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let shared = b.mult(x, y);
        let e1 = b.exp(shared);
        let s1 = b.sum(e1);
        let sq = b.sq(shared);
        let s2 = b.sum(sq);
        let dag = b.build(vec![s1, s2]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let part = &parts[0];
        let compute = compute_costs(&dag);
        let model = CostModel::default();
        let stat = static_parts(&dag, part, &compute, &model);
        for assignment in [vec![false; part.interesting.len()], vec![true; part.interesting.len()]]
        {
            let mat: FxHashSet<InterestingPoint> = part
                .interesting
                .iter()
                .zip(&assignment)
                .filter(|(_, &on)| on)
                .map(|(p, _)| *p)
                .collect();
            let (mw, mr) = mp_cost(&dag, &part.interesting, &assignment, &model);
            let lb = stat.lower_bound(mw, mr);
            let actual = PlanCoster::new(&dag, &memo, part, &compute, &model, &mat)
                .partition_cost(f64::INFINITY);
            assert!(lb <= actual * 1.0001, "lower bound {lb} must not exceed actual {actual}");
        }
    }
}
