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
//!
//! [`CostTable`] prices one partition under many assignments. Its walk
//! visits operators, each summarized once per assignment of the points its
//! fused region can reference: the region's cost and the operators it reads.
//! The summaries replay the per-hop recursion's sums in its order, so a cost
//! is bitwise what walking every hop of every region gives.

use crate::memo::{MemoEntry, MemoTable};
use crate::opt::partition::{InterestingPoint, PlanPartition};
use crate::templates::TemplateType;
use crate::util::{FxHashMap, FxHashSet};
use fusedml_hop::{HopDag, HopId, OpKind};
use fusedml_linalg::ops::UnaryOp;

/// Sharded-execution cost parameters (paper §4.4 "Constraints and
/// Distributed Operations"; DESIGN.md substitutions X2 and X11): the one
/// cluster configuration, [`DistConfig::in_process`], read by
/// [`CostModel::shard_op_seconds`].
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Number of executors.
    pub executors: usize,
    /// Aggregate executor scan bandwidth (bytes/s).
    pub exec_read_bw: f64,
    /// Point-to-point transfer bandwidth for broadcasts and partials
    /// (bytes/s).
    pub net_bw: f64,
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
    /// whole tiles, leaving a small constant so the optimizer's Gen-vs-Base
    /// tradeoff reflects the faster backend.
    pub fused_dispatch_flops: f64,
    /// Per-row dispatch overhead of generated Row operators in
    /// FLOP-equivalents: the band-lowered row kernel pays its instruction
    /// dispatch once per row (per-row scalar prologue + per-row body
    /// dispatch), not per cell.
    pub row_dispatch_flops: f64,
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
        }
    }
}

/// Fixed per-operator dispatch overhead of sharded execution in seconds:
/// spawning and joining the band threads, and merge bookkeeping. The
/// local-vs-sharded break-even point this implies (~a few MB of input at 4
/// shards) is what the plan-choice tests pin.
pub const SHARD_DISPATCH_S: f64 = 40e-6;

impl CostModel {
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
        DistConfig { executors: shards.clamp(1, cores), exec_read_bw: 32e9, net_bw: 8e9 }
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

/// An assignment over `part.interesting` as a bit mask: bit `i` set means
/// point `i` is materialized. `MPSkipEnum` falls back to fuse-all from 63
/// points on, so every assignment it costs fits; of a longer heuristic
/// assignment the points past the 64th stay fused.
pub fn assignment_mask(assignment: &[bool]) -> u64 {
    assignment.iter().take(64).enumerate().fold(0, |m, (i, &on)| m | u64::from(on) << i)
}

/// One hop of a [`CostTable`] under its dense local id (partition nodes in
/// `part.nodes` order, then `part.inputs`): the size terms Eq. (4) reads.
#[derive(Clone, Copy)]
struct Node {
    bytes: f64,
    sparsity: f64,
    cells: f64,
    rows: f64,
    compute: f64,
    scalar: bool,
    leaf: bool,
    transpose: bool,
    /// Range of [`CostTable::inputs`] (empty outside the partition, where
    /// the walk never descends).
    inputs: (u32, u32),
    /// Range of [`CostTable::entries`].
    entries: (u32, u32),
}

/// One memo entry of a partition node, stored in pick order.
struct Entry<'a> {
    ttype: TemplateType,
    /// Bit `j` set: input `j` is a fusion reference into the partition.
    fused: u32,
    /// The bits of the interesting points `(hop → ref)` the entry
    /// references: an assignment that sets one of them invalidates it
    /// (paper §4.2).
    invalid_if: u64,
    memo: &'a MemoEntry,
}

/// `getMPCost` row of one distinct materialization target: every assignment
/// that sets one of `points` pays at least one write and one read of it. A
/// target that is a partition root charges its read only: its write is
/// already in [`StaticCosts::root_writes`].
struct MatRow {
    write_s: f64,
    read_s: f64,
    points: u64,
}

/// A cost vector: the running description of the one fused operator being
/// summarized (paper §4.3 "Cost Computation via Cost Vectors"), scratch of
/// the table.
struct CostVector {
    /// Unique per summarized operator over the table's lifetime: the memo
    /// tag of `(operator, cost vector)` pairs.
    id: u64,
    ttype: TemplateType,
    out_bytes: f64,
    compute: f64,
    /// Distinct inputs, a bitset over local ids.
    inputs: Vec<u64>,
    /// Per partition node: `== id` once visited under this vector.
    seen: Vec<u64>,
}

/// One step of an operator summary's program: the cost of the operator is
/// the sum its steps describe plus [`Summary::close`].
#[derive(Clone, Copy)]
enum Step {
    /// Add the cost of the operator at this partition node, which the
    /// summarized one reads unfused (zero once the walk has costed it).
    Read(u32),
    /// Add a nested sum: the reads below one fused input that holds two or
    /// more of them, summed on their own as the recursive walk summed them.
    Group,
    /// End the innermost sum, or the program.
    End,
}

/// The operator opened at a partition node under one assignment of the
/// points its fused region can reference.
#[derive(Clone, Copy)]
struct Summary {
    /// Start of its program in [`CostTable::steps`], ended by [`Step::End`].
    steps: u32,
    /// Eq. (4) of the operator itself: its fused region closed, or the
    /// basic operator when no entry is valid.
    close: f64,
}

/// The set bits of a bitset, ascending.
fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let rest = |x: &u64| Some(x & (x - 1)).filter(|&y| y != 0);
        std::iter::successors(Some(word).filter(|&x| x != 0), rest)
            .map(move |x| w * 64 + x.trailing_zeros() as usize)
    })
}

/// The per-partition costing table: everything Eq. (4) and the memo lookups
/// need, gathered once so that costing one assignment is a walk over dense
/// arrays and `u64` masks — no allocation once warm.
///
/// A walk reads its assignment only through `invalid_if & mask`, so its cost
/// is a function of `mask & live`, `live` being the points some entry
/// references. A table with a point no entry references (among its first
/// 64) walks each distinct `mask & live` once and answers the other masks
/// from `priced`.
///
/// A walk visits operators, not hops. The operator opened at partition node
/// `n` — its template, its fused region and the partition nodes it reads
/// unfused — depends only on the entries picked in `n`'s fused closure, that
/// is on `mask & reach[n]`. Each `(n, mask & reach[n])` is summarized once:
/// the region's Eq. (4) cost and a program over the operator's reads. A walk
/// looks up one summary per operator and costs its reads in the order the
/// recursive walk over hops visited them. The program keeps that walk's
/// nested sums, so every cost has its bits: only a sum of at most one read
/// is flattened, and adding `0.0` to a cost, or a cost to `0.0`, is exact.
pub struct CostTable<'a> {
    part: &'a PlanPartition,
    model: &'a CostModel,
    nodes: Vec<Node>,
    /// Local ids of `part.roots`.
    roots: Vec<usize>,
    /// Local ids of every partition node's inputs, flattened.
    inputs: Vec<u32>,
    /// Every partition node's memo entries, flattened, each node's sorted
    /// descending by `(ref_count, preference)` (stable, so the first of
    /// equals in memo order still wins): the best valid entry is the first
    /// valid one.
    entries: Vec<Entry<'a>>,
    /// Per partition node: the OR of `invalid_if` over its fused closure,
    /// every entry of every node some entry's fused reference chain reaches.
    reach: Vec<u64>,
    mat_rows: Vec<MatRow>,
    stat: StaticCosts,
    /// The OR of every entry's `invalid_if`.
    live: u64,
    /// Walks by `mask & live`: `(total, true)` for one that finished,
    /// `(partial, false)` for one aborted at `partial ≥ upper_bound`. `None`
    /// when every point is live: no two masks then share a walk.
    priced: Option<FxHashMap<u64, (f64, bool)>>,
    /// Walks over the table's lifetime.
    walks: u64,
    /// Operator summaries by `(n, mask & reach[n])`.
    summaries: FxHashMap<(u32, u64), Summary>,
    /// Every summary's program, concatenated.
    steps: Vec<Step>,
    /// Scratch of the operator being summarized.
    region: CostVector,
    // Scratch of the plan being costed.
    mask: u64,
    /// Source of cost-vector ids and plan stamps; never reset, so a stale
    /// `seen` mark can never match.
    next_id: u64,
    /// `== stamp` once the walk costed the operator opened at a node.
    seen: Vec<u64>,
    stamp: u64,
}

impl<'a> CostTable<'a> {
    /// Builds the table. `part` must come from [`partitions`] over `memo`
    /// (sorted `nodes`, `inputs` and `interesting`; every fusion reference of
    /// a partition node stays inside the partition).
    ///
    /// [`partitions`]: crate::opt::partition::partitions
    pub fn new(
        dag: &HopDag,
        memo: &'a MemoTable,
        part: &'a PlanPartition,
        compute: &[f64],
        model: &'a CostModel,
    ) -> Self {
        let n_part = part.nodes.len();
        let local = |h: HopId| -> u32 {
            let id = part.nodes.binary_search(&h).unwrap_or_else(|_| {
                n_part + part.inputs.binary_search(&h).expect("input of a partition node")
            });
            id as u32
        };
        let point_bit = |consumer: HopId, target: HopId| -> u64 {
            let i = part.interesting.binary_search(&InterestingPoint { consumer, target });
            i.map_or(0, |i| 1u64.checked_shl(i as u32).unwrap_or(0))
        };
        let mut nodes = Vec::with_capacity(n_part + part.inputs.len());
        let (mut inputs, mut entries) = (Vec::new(), Vec::new());
        for (id, &h) in part.nodes.iter().chain(&part.inputs).enumerate() {
            let hop = dag.hop(h);
            let (in0, en0) = (inputs.len() as u32, entries.len() as u32);
            if id < n_part {
                inputs.extend(hop.inputs.iter().map(|&i| local(i)));
                let mut group: Vec<&MemoEntry> = memo.entries(h).iter().collect();
                group.sort_by_key(|e| std::cmp::Reverse((e.ref_count(), e.ttype.preference())));
                entries.extend(group.into_iter().map(|e| {
                    let in_part = |r: &HopId| part.nodes.binary_search(r).is_ok();
                    let fused = e.inputs.iter().enumerate().fold(0, |m, (j, i)| {
                        m | u32::from(i.fused_id().as_ref().is_some_and(in_part)) << j
                    });
                    let invalid_if = e.refs().fold(0, |m, r| m | point_bit(h, r));
                    Entry { ttype: e.ttype, fused, invalid_if, memo: e }
                }));
            }
            nodes.push(Node {
                bytes: hop.size.bytes(),
                sparsity: hop.size.sparsity,
                cells: hop.size.cells() as f64,
                rows: hop.size.rows as f64,
                compute: compute[h.index()],
                scalar: hop.is_scalar(),
                leaf: hop.kind.is_leaf(),
                transpose: hop.kind == OpKind::Transpose,
                inputs: (in0, inputs.len() as u32),
                entries: (en0, entries.len() as u32),
            });
        }
        let mut targets: Vec<HopId> = Vec::new();
        let mut mat_rows: Vec<MatRow> = Vec::new();
        for (i, p) in part.interesting.iter().enumerate().take(64) {
            let row = targets.iter().position(|&t| t == p.target).unwrap_or_else(|| {
                let b = dag.hop(p.target).size.bytes();
                let root = part.roots.contains(&p.target);
                targets.push(p.target);
                mat_rows.push(MatRow {
                    write_s: if root { 0.0 } else { b / model.write_bw },
                    read_s: b / model.read_bw,
                    points: 0,
                });
                mat_rows.len() - 1
            });
            mat_rows[row].points |= 1 << i;
        }
        let root = |r| part.nodes.binary_search(r).expect("partition root is a partition node");
        let live = entries.iter().fold(0, |m, e| m | e.invalid_if);
        // Hop ids are topological and local ids ascend with them, so every
        // fused input's closure is complete before its consumer's.
        let mut reach = vec![0u64; n_part];
        for n in 0..n_part {
            let (lo, hi) = nodes[n].entries;
            let ins = &inputs[nodes[n].inputs.0 as usize..nodes[n].inputs.1 as usize];
            for e in &entries[lo as usize..hi as usize] {
                let fused = ins.iter().enumerate().filter(|&(j, _)| e.fused >> j & 1 == 1);
                reach[n] |= fused.fold(e.invalid_if, |m, (_, &i)| {
                    debug_assert!((i as usize) < n, "fused input after its consumer");
                    m | reach[i as usize]
                });
            }
        }
        let every_point = assignment_mask(&vec![true; part.interesting.len()]);
        CostTable {
            part,
            model,
            nodes,
            roots: part.roots.iter().map(root).collect(),
            inputs,
            entries,
            reach,
            mat_rows,
            stat: static_parts(dag, part, compute, model),
            live,
            priced: (live != every_point).then(FxHashMap::default),
            walks: 0,
            summaries: FxHashMap::default(),
            steps: Vec::new(),
            region: CostVector {
                id: 0,
                ttype: TemplateType::Cell,
                out_bytes: 0.0,
                compute: 0.0,
                inputs: vec![0; (n_part + part.inputs.len()).div_ceil(64)],
                seen: vec![0; n_part],
            },
            mask: 0,
            next_id: 0,
            seen: vec![0; n_part],
            stamp: 0,
        }
    }

    /// The partition this table costs.
    pub fn part(&self) -> &'a PlanPartition {
        self.part
    }

    /// The best valid memo entry at partition node `hop` (paper: query the
    /// memo table "for the best fusion plan regarding template type and
    /// fusion references"): maximal references first, then template
    /// preference. Entries referencing a point that `mask` materializes are
    /// invalid and ignored (paper §4.2); `current` restricts to
    /// merge-compatible types when extending an open operator.
    pub fn best_entry(
        &self,
        hop: HopId,
        current: Option<TemplateType>,
        mask: u64,
    ) -> Option<&'a MemoEntry> {
        let n = self.part.nodes.binary_search(&hop).ok()?;
        self.pick(n, current, mask).map(|e| e.memo)
    }

    fn pick(&self, n: usize, current: Option<TemplateType>, mask: u64) -> Option<&Entry<'a>> {
        let (lo, hi) = self.nodes[n].entries;
        self.entries[lo as usize..hi as usize].iter().find(|e| {
            e.invalid_if & mask == 0 && current.is_none_or(|t| t.merge_compatible(e.ttype))
        })
    }

    /// A lower bound on [`CostTable::partition_cost`] of `mask` (paper §4.4):
    /// the static costs plus `getMPCost`, one write and one read of every
    /// distinct target the assignment materializes.
    pub fn lower_bound(&self, mask: u64) -> f64 {
        let (mut w, mut r) = (0.0, 0.0);
        for row in &self.mat_rows {
            if row.points & mask != 0 {
                w += row.write_s;
                r += row.read_s;
            }
        }
        self.stat.lower_bound(w, r)
    }

    /// Costs the partition under the assignment `mask`; aborts early
    /// returning `f64::INFINITY` once the running cost reaches `upper_bound`
    /// (partial costing, paper §4.4).
    ///
    /// A mask whose `mask & live` was walked before is answered without a
    /// walk when that walk finished, or aborted at or above `upper_bound`
    /// (the running cost only grows, so this walk would abort too).
    pub fn partition_cost(&mut self, mask: u64, upper_bound: f64) -> f64 {
        let key = mask & self.live;
        let known = self.priced.as_ref().and_then(|p| p.get(&key).copied());
        let cost = match known {
            Some((cost, complete)) if complete || cost >= upper_bound => cost,
            _ => {
                let walk = self.walk(key, upper_bound);
                if let Some(p) = &mut self.priced {
                    p.insert(key, walk);
                }
                walk.0
            }
        };
        if cost >= upper_bound {
            f64::INFINITY
        } else {
            cost
        }
    }

    /// Plans walked over the table's lifetime: [`CostTable::partition_cost`]
    /// calls less those answered without a walk.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Operator summaries built over the table's lifetime: distinct
    /// `(node, referenced points)` pairs the walks opened an operator at.
    pub fn summaries(&self) -> u64 {
        self.summaries.len() as u64
    }

    /// Walks the roots under `mask`: `(total, true)`, or `(partial, false)`
    /// once the running cost reaches `upper_bound` with roots left.
    fn walk(&mut self, mask: u64, upper_bound: f64) -> (f64, bool) {
        self.walks += 1;
        self.mask = mask;
        self.next_id += 1;
        self.stamp = self.next_id;
        let mut total = 0.0;
        for i in 0..self.roots.len() {
            total += self.op_cost(self.roots[i]);
            if total >= upper_bound && i + 1 < self.roots.len() {
                return (total, false);
            }
        }
        (total, true)
    }

    /// Costs the operator opened at partition node `n` and, first, the ones
    /// it reads. Memoized per walk: a re-visit returns zero, while a node
    /// fused into several operators still pays its compute in each.
    fn op_cost(&mut self, n: usize) -> f64 {
        if self.seen[n] == self.stamp {
            return 0.0;
        }
        self.seen[n] = self.stamp;
        let key = (n as u32, self.mask & self.reach[n]);
        let summary = match self.summaries.get(&key) {
            Some(&s) => s,
            None => {
                let s = self.summarize(n);
                self.summaries.insert(key, s);
                s
            }
        };
        let mut at = summary.steps as usize;
        self.sum_steps(&mut at) + summary.close
    }

    /// Runs the program from `at` to its [`Step::End`], leaving `at` past it.
    fn sum_steps(&mut self, at: &mut usize) -> f64 {
        let mut sum = 0.0;
        loop {
            let step = self.steps[*at];
            *at += 1;
            match step {
                Step::Read(n) => sum += self.op_cost(n as usize),
                Step::Group => sum += self.sum_steps(at),
                Step::End => return sum,
            }
        }
    }

    /// Summarizes the operator opened at partition node `n` under the walk's
    /// mask (of which it reads only the points in `reach[n]`) and appends
    /// its program.
    fn summarize(&mut self, n: usize) -> Summary {
        let start = self.steps.len() as u32;
        let node = self.nodes[n];
        let close = match self.pick(n, None, self.mask).map(|e| e.ttype) {
            Some(ttype) => {
                self.next_id += 1;
                let v = &mut self.region;
                (v.id, v.ttype, v.out_bytes, v.compute) = (self.next_id, ttype, node.bytes, 0.0);
                v.inputs.fill(0);
                self.visit(n, None);
                self.close_cost(&self.region)
            }
            None => {
                for at in node.inputs.0..node.inputs.1 {
                    let input = self.inputs[at as usize];
                    if (input as usize) < self.part.nodes.len() {
                        self.steps.push(Step::Read(input));
                    }
                }
                self.basic_cost(&node)
            }
        };
        self.steps.push(Step::End);
        Summary { steps: start, close }
    }

    /// Adds partition node `n` to the region being summarized, its entry
    /// picked among the types merge-compatible with `current` (any at the
    /// operator's root), follows its fused inputs and appends the reads of
    /// the others. Returns how many reads it appended.
    fn visit(&mut self, n: usize, current: Option<TemplateType>) -> usize {
        let node = self.nodes[n];
        let fused = self.pick(n, current, self.mask).map_or(0, |e| e.fused);
        // Add this hop's compute workload (skipping transposes fused into
        // Row operators, which read rows directly).
        if !(self.region.ttype == TemplateType::Row && node.transpose) {
            self.region.compute += node.compute;
        }
        let mut reads = 0;
        for (j, at) in (node.inputs.0..node.inputs.1).enumerate() {
            let input = self.inputs[at as usize] as usize;
            if fused >> j & 1 == 1 {
                if self.region.seen[input] == self.region.id {
                    continue;
                }
                self.region.seen[input] = self.region.id;
                let group = self.steps.len();
                self.steps.push(Step::Group);
                let inner = self.visit(input, Some(self.region.ttype));
                // The input's reads are one sum, added to this one. A sum of
                // one read is that read (`0.0 + x == x`) and a sum of none
                // adds `0.0`: only two or more keep a group of their own.
                match inner {
                    0 => self.steps.truncate(group),
                    1 => {
                        self.steps.remove(group);
                    }
                    _ => self.steps.push(Step::End),
                }
                reads += inner;
            } else {
                if input < self.part.nodes.len() {
                    self.steps.push(Step::Read(input as u32));
                    reads += 1;
                }
                if !self.nodes[input].scalar {
                    self.region.inputs[input / 64] |= 1 << (input % 64);
                }
            }
        }
        reads
    }

    /// Eq. (4) contribution of a closed fused operator.
    fn close_cost(&self, v: &CostVector) -> f64 {
        let mut compute = v.compute;
        let inputs = || bits(&v.inputs).map(|i| &self.nodes[i]);
        let max_cells = inputs().map(|n| n.cells).fold(0.0f64, f64::max);
        // The driver (main) input: the largest bound matrix. Its sparsity
        // and row count steer sparsity exploitation and per-row overheads.
        let (mut driver_sp, mut driver_rows) = (1.0f64, 0.0f64);
        for n in inputs().filter(|n| n.cells >= 0.5 * max_cells) {
            driver_sp = driver_sp.min(n.sparsity);
            driver_rows = driver_rows.max(n.rows);
        }
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
        self.io_cost(v.out_bytes, inputs().map(|n| n.bytes), t_c)
    }

    /// Eq. (4) contribution of a basic (unfused) operator, which always runs
    /// exactly once.
    fn basic_cost(&self, node: &Node) -> f64 {
        if node.leaf {
            return 0.0;
        }
        let t_c = node.compute / self.model.compute_bw;
        let inputs = &self.inputs[node.inputs.0 as usize..node.inputs.1 as usize];
        self.io_cost(node.bytes, inputs.iter().map(|&i| self.nodes[i as usize].bytes), t_c)
    }

    /// `T̂w + max(T̂r, T̂c)` at the single-node bandwidths.
    fn io_cost(&self, out_bytes: f64, inputs: impl Iterator<Item = f64>, t_c: f64) -> f64 {
        let t_r = inputs.fold(0.0, |sum, b| sum + b) / self.model.read_bw;
        let t_w = out_bytes / self.model.write_bw;
        t_w + t_r.max(t_c)
    }
}

/// One-shot costing of one assignment: builds the partition's [`CostTable`]
/// and walks it once. Enumerators keep the table and call
/// [`CostTable::partition_cost`] per candidate instead.
pub struct PlanCoster<'a> {
    table: CostTable<'a>,
    mask: u64,
}

impl<'a> PlanCoster<'a> {
    /// `materialized`: the interesting points assigned `true`.
    pub fn new(
        dag: &HopDag,
        memo: &'a MemoTable,
        part: &'a PlanPartition,
        compute: &[f64],
        model: &'a CostModel,
        materialized: &FxHashSet<InterestingPoint>,
    ) -> Self {
        let on: Vec<bool> = part.interesting.iter().map(|p| materialized.contains(p)).collect();
        PlanCoster {
            table: CostTable::new(dag, memo, part, compute, model),
            mask: assignment_mask(&on),
        }
    }

    /// Costs the partition under the assignment; see
    /// [`CostTable::partition_cost`].
    pub fn partition_cost(mut self, upper_bound: f64) -> f64 {
        self.table.partition_cost(self.mask, upper_bound)
    }
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
        let mut table = CostTable::new(&dag, &memo, part, &compute, &model);
        for on in [false, true] {
            let mask = assignment_mask(&vec![on; part.interesting.len()]);
            let lb = table.lower_bound(mask);
            let actual = table.partition_cost(mask, f64::INFINITY);
            assert!(lb <= actual * 1.0001, "lower bound {lb} must not exceed actual {actual}");
        }
    }
}
