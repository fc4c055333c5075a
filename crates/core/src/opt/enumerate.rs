//! `MPSkipEnum` — materialization-point skip enumeration (paper §4.4,
//! Algorithm 2, Figure 7).
//!
//! The exponential space of 2^|M′| materialization assignments is
//! linearized from negative to positive (fuse-all first, yielding a tight
//! initial upper bound), scanned with cost-based skip-ahead over subtrees
//! whose lower bound exceeds the best known plan, and decomposed into
//! independent sub-problems at valid cut sets of the reachability graph
//! (structural pruning). A partition whose space can outrun
//! `EnumConfig::max_eval` starts from the cheaper of fuse-all and
//! fuse-no-redundancy instead, so its plan never costs more than either
//! heuristic's.

use crate::memo::MemoTable;
use crate::opt::cost::{assignment_mask, CostModel, CostTable};
use crate::opt::heuristics;
use crate::opt::partition::PlanPartition;
use crate::util::FxHashSet;
use fusedml_hop::{HopDag, HopId};

/// Enumeration configuration (the Figure 12 ablation switches).
#[derive(Clone, Copy, Debug)]
pub struct EnumConfig {
    /// Cost-based pruning with lower bounds and skip-ahead.
    pub cost_prune: bool,
    /// Structural pruning via cut sets of the reachability graph.
    pub structural_prune: bool,
    /// Safety cap on costed plans (enumeration returns the best plan found
    /// so far once exceeded; `u64::MAX` disables). A partition it can cut
    /// short costs its fuse-all and fuse-no-redundancy plans first, even
    /// when the cap is below 2.
    pub max_eval: u64,
}

impl Default for EnumConfig {
    fn default() -> Self {
        // The cap bounds worst-case optimization time on very wide DAGs
        // (SystemML similarly bounds its search space and falls back to the
        // best plan found). A partition whose search space can outrun the cap
        // (2^|M′| >= max_eval: 15 points or more) is seeded with the cheaper
        // of fuse-all and fuse-no-redundancy, so even a capped plan never
        // costs more than either heuristic's. Smaller partitions are not
        // seeded: their scan is exhaustive up to sound pruning, so a seed
        // could change only how many plans it costs, not which plan wins.
        EnumConfig { cost_prune: true, structural_prune: true, max_eval: 32_768 }
    }
}

/// Result of one partition enumeration.
#[derive(Clone, Debug)]
pub struct EnumResult {
    /// Best assignment over the partition's interesting points (in
    /// `part.interesting` order).
    pub assignment: Vec<bool>,
    /// Cost of the best plan.
    pub cost: f64,
    /// Number of plans priced (what `EnumConfig::max_eval` caps).
    pub evaluated: u64,
    /// Of those, the plans the costing table walked: the others share their
    /// referenced points with a plan walked before (`CostTable::partition_cost`).
    pub walked: u64,
    /// Operator summaries the costing table built for those walks
    /// (`CostTable::summaries`); every other operator a walk visited reused one.
    pub summaries: u64,
    /// Scan positions cost-based skip-ahead jumped over, never priced.
    pub pruned_cost: u64,
    /// Scan positions a cut-set jump passed over, less the combined plan it
    /// prices; the sub-problem scans count their own plans.
    pub pruned_structural: u64,
    /// Size of the full search space (2^|M′|).
    pub search_space: f64,
    /// True when the scan stopped at `EnumConfig::max_eval` with candidates
    /// left: the assignment is the best found so far, not the optimum.
    pub capped: bool,
}

/// Enumerates the optimal assignment for one partition.
pub fn mpskip_enum(
    dag: &HopDag,
    memo: &MemoTable,
    part: &PlanPartition,
    compute: &[f64],
    model: &CostModel,
    cfg: &EnumConfig,
) -> EnumResult {
    enumerate_table(&mut CostTable::new(dag, memo, part, compute, model), dag, cfg)
}

/// [`mpskip_enum`] over a partition's costing table, which the caller keeps
/// to extract the chosen plan from.
pub(crate) fn enumerate_table(table: &mut CostTable, dag: &HopDag, cfg: &EnumConfig) -> EnumResult {
    let part = table.part();
    let n = part.interesting.len();
    // Order: cut-set points first (structural pruning), then the rest.
    let (order, cutset) =
        if cfg.structural_prune { plan_order(dag, part) } else { ((0..n).collect(), None) };
    let (walks, summaries) = (table.walks(), table.summaries());
    let mut state =
        EnumState { table, cfg, evaluated: 0, pruned_cost: 0, pruned_structural: 0, capped: false };
    // A search space the cap can cut short starts from the cheaper heuristic
    // plan, so a capped scan never returns worse than `Gen-FA` or `Gen-FNR`
    // and prunes against a tight bound from its first step.
    let seed = (n > 0 && n < 63 && 1u64 << n >= cfg.max_eval).then(|| state.heuristic_seed());
    let (best, cost) = state.enumerate(&order, cutset.as_ref(), 0, seed);
    EnumResult {
        assignment: (0..n).map(|i| i < 64 && best >> i & 1 == 1).collect(),
        cost,
        evaluated: state.evaluated,
        walked: state.table.walks() - walks,
        summaries: state.table.summaries() - summaries,
        pruned_cost: state.pruned_cost,
        pruned_structural: state.pruned_structural,
        search_space: 2f64.powi(n as i32),
        capped: state.capped,
    }
}

/// A cut set with its sub-problems, all as indices into `part.interesting`.
#[derive(Clone, Debug)]
struct CutSet {
    /// Size of the cut set — always a prefix of the enumeration order by
    /// construction.
    len: usize,
    s1: Vec<usize>,
    s2: Vec<usize>,
}

struct EnumState<'t, 'a> {
    table: &'t mut CostTable<'a>,
    cfg: &'t EnumConfig,
    evaluated: u64,
    pruned_cost: u64,
    pruned_structural: u64,
    capped: bool,
}

/// createAssignment: bit `len-1-i` of scan position `j` drives point
/// `order[i]`, so `j = 0` is fuse-all and increments flip from the back.
fn scan_mask(order: &[usize], j: u64) -> u64 {
    let (mut mask, mut rest) = (0, j);
    while rest != 0 {
        mask |= 1 << order[order.len() - 1 - rest.trailing_zeros() as usize];
        rest &= rest - 1;
    }
    mask
}

impl EnumState<'_, '_> {
    /// Costs one assignment, with partial-costing abort at `upper`.
    fn cost_assignment(&mut self, mask: u64, upper: f64) -> f64 {
        self.evaluated += 1;
        self.table.partition_cost(mask, upper)
    }

    /// Costs fuse-all and then fuse-no-redundancy (partially, against
    /// fuse-all's cost) and returns the cheaper as `(mask, cost)`.
    fn heuristic_seed(&mut self) -> (u64, f64) {
        let fa = self.cost_assignment(0, f64::INFINITY);
        let fnr = assignment_mask(&heuristics::fuse_no_redundancy(self.table.part()));
        if fnr == 0 {
            return (0, fa);
        }
        let c = self.cost_assignment(fnr, fa);
        if c < fa {
            (fnr, c)
        } else {
            (0, fa)
        }
    }

    /// The core linearized scan with skip-ahead (Algorithm 2) over the
    /// points of `order`. `fixed` carries the materialized points outside
    /// `order` (used by recursive sub-problem calls). A `seed` is the best of
    /// plans already costed, fuse-all (scan position 0) among them, so the
    /// scan starts at position 1. Returns the best assignment of the `order`
    /// points and its cost.
    fn enumerate(
        &mut self,
        order: &[usize],
        cutset: Option<&CutSet>,
        fixed: u64,
        seed: Option<(u64, f64)>,
    ) -> (u64, f64) {
        let len = order.len();
        if len == 0 || len >= 63 {
            // Nothing to decide — or, from 63 points on, the degenerate
            // safeguard: fall back to fuse-all (practically unreachable
            // thanks to partitioning).
            return (0, self.cost_assignment(fixed, f64::INFINITY));
        }
        let (mut best_q, mut best_c) = seed.unwrap_or((0, f64::INFINITY));
        let total: u64 = 1u64 << len;
        let mut j = u64::from(seed.is_some());
        while j < total {
            if self.evaluated >= self.cfg.max_eval {
                self.capped = true;
                break;
            }
            let q = scan_mask(order, j);

            // Structural pruning via cut-set decomposition (lines 6-10): at
            // the position with the cut set materialized and the rest fused.
            if let Some(cs) = cutset.filter(|cs| j == ((1u64 << cs.len) - 1) << (len - cs.len)) {
                // Solve the sub-problems independently (no nested
                // structural pruning, as in the paper: RG = null).
                let (q1, _) = self.enumerate(&cs.s1, None, q | fixed, None);
                let (q2, _) = self.enumerate(&cs.s2, None, q | fixed, None);
                let combined = q | q1 | q2;
                let c = self.cost_assignment(combined | fixed, best_c);
                if c < best_c {
                    best_c = c;
                    best_q = combined;
                }
                // Skip the whole subtree below the cut set.
                let subtree = 1u64 << (len - cs.len);
                self.pruned_structural += subtree - 1;
                j += subtree;
                continue;
            }

            // Cost-based pruning (lines 11-15): skip every assignment that
            // shares the prefix up to the last materialized point.
            if self.cfg.cost_prune && j > 0 && self.table.lower_bound(q | fixed) >= best_c {
                let skip = 1u64 << j.trailing_zeros();
                self.pruned_cost += skip;
                j += skip;
                continue;
            }

            let c = self.cost_assignment(q | fixed, best_c);
            if c < best_c {
                best_c = c;
                best_q = q;
            }
            j += 1;
        }
        (best_q, best_c)
    }
}

/// Builds the enumeration order: the best-scoring valid cut set first (if
/// any), then all remaining points. Returns (order, cutset).
fn plan_order(dag: &HopDag, part: &PlanPartition) -> (Vec<usize>, Option<CutSet>) {
    let n = part.interesting.len();
    let default: Vec<usize> = (0..n).collect();
    if n < 3 {
        return (default, None);
    }
    // Candidates: composite points per distinct target (single points are
    // the 1-element case); plus non-overlapping pairs of those composites.
    let mut targets: Vec<HopId> = part.interesting.iter().map(|p| p.target).collect();
    targets.sort_unstable();
    targets.dedup();
    let composite =
        |t: HopId| -> Vec<usize> { (0..n).filter(|&i| part.interesting[i].target == t).collect() };
    let mut candidates: Vec<Vec<usize>> = targets.iter().map(|&t| composite(t)).collect();
    let pairs: Vec<Vec<usize>> = {
        let mut v = Vec::new();
        for i in 0..targets.len() {
            for k in i + 1..targets.len() {
                let mut c = composite(targets[i]);
                c.extend(composite(targets[k]));
                v.push(c);
            }
        }
        v
    };
    candidates.extend(pairs);

    // (score, cutset, left split, right split)
    type BestSplit = (f64, Vec<usize>, Vec<usize>, Vec<usize>);
    let mut best: Option<BestSplit> = None;
    for cs in candidates {
        if cs.len() >= n {
            continue;
        }
        if let Some((s1, s2)) = split_by_cutset(dag, part, &cs) {
            if s1.is_empty() || s2.is_empty() {
                continue;
            }
            // Eq. (5): (2^|cs|-1)/2^|cs| · 2^|M'| + 1/2^|cs| · (2^|S1|+2^|S2|)
            let p_cs = 2f64.powi(cs.len() as i32);
            let score = (p_cs - 1.0) / p_cs * 2f64.powi(n as i32)
                + (2f64.powi(s1.len() as i32) + 2f64.powi(s2.len() as i32)) / p_cs;
            if best.as_ref().is_none_or(|(b, ..)| score < *b) {
                best = Some((score, cs, s1, s2));
            }
        }
    }
    match best {
        None => (default, None),
        Some((_, cs, s1, s2)) => {
            // Order: cut set, then S1, then S2.
            let order = [cs.as_slice(), &s1, &s2].concat();
            (order, Some(CutSet { len: cs.len(), s1, s2 }))
        }
    }
}

/// Checks whether materializing `cs` splits the remaining points into
/// root-side (S1) and descendant-side (S2) sets with `S1 ∩ S2 = ∅`
/// (Figure 7(b)). Returns point indices into `part.interesting`.
fn split_by_cutset(
    dag: &HopDag,
    part: &PlanPartition,
    cs: &[usize],
) -> Option<(Vec<usize>, Vec<usize>)> {
    let part_set: FxHashSet<HopId> = part.nodes.iter().copied().collect();
    let cut_targets: FxHashSet<HopId> = cs.iter().map(|&i| part.interesting[i].target).collect();
    // S1: nodes reachable from partition roots without descending through
    // cut targets.
    let mut top: FxHashSet<HopId> = FxHashSet::default();
    let mut stack: Vec<HopId> = part.roots.clone();
    while let Some(h) = stack.pop() {
        if !part_set.contains(&h) || !top.insert(h) {
            continue;
        }
        if cut_targets.contains(&h) {
            continue; // do not descend through the cut
        }
        stack.extend(dag.hop(h).inputs.iter().copied());
    }
    // S2: nodes reachable strictly below the cut targets.
    let mut bottom: FxHashSet<HopId> = FxHashSet::default();
    let mut stack: Vec<HopId> =
        cut_targets.iter().flat_map(|&t| dag.hop(t).inputs.clone()).collect();
    while let Some(h) = stack.pop() {
        if !part_set.contains(&h) || !bottom.insert(h) {
            continue;
        }
        stack.extend(dag.hop(h).inputs.iter().copied());
    }
    // The decomposition is only sound if the two sides share no nodes
    // beyond the cut itself: a node reachable both from the roots around
    // the cut and from below it couples the sides through redundant-compute
    // and shared-read effects (S1 ∩ S2 = ∅, paper §4.4).
    if top.iter().any(|h| !cut_targets.contains(h) && bottom.contains(h)) {
        return None;
    }
    let cs_set: FxHashSet<usize> = cs.iter().copied().collect();
    let mut s1 = Vec::new();
    let mut s2 = Vec::new();
    for i in 0..part.interesting.len() {
        if cs_set.contains(&i) {
            continue;
        }
        let p = part.interesting[i];
        let in_top = top.contains(&p.consumer)
            && !cut_targets.contains(&p.target)
            && top.contains(&p.target);
        let in_bottom = bottom.contains(&p.consumer)
            || (bottom.contains(&p.target) && !top.contains(&p.consumer));
        match (in_top, in_bottom) {
            (true, false) => s1.push(i),
            (false, true) => s2.push(i),
            // Overlap or unreachable: not a valid cut.
            _ => return None,
        }
    }
    Some((s1, s2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::opt::cost::compute_costs;
    use crate::opt::partition::partitions;
    use fusedml_hop::DagBuilder;

    /// A DAG with a genuine materialization decision: expensive shared
    /// intermediate consumed twice.
    fn shared_dag() -> HopDag {
        let mut b = DagBuilder::new();
        let x = b.read("X", 2000, 2000, 1.0);
        let y = b.read("Y", 2000, 2000, 1.0);
        let shared = b.exp(x);
        let p1 = b.mult(shared, y);
        let s1 = b.sum(p1);
        let p2 = b.mult(shared, x);
        let s2 = b.sum(p2);
        b.build(vec![s1, s2])
    }

    fn run(dag: &HopDag, cfg: EnumConfig) -> (EnumResult, usize) {
        let memo = explore(dag);
        let parts = partitions(dag, &memo);
        let part = parts.iter().max_by_key(|p| p.nodes.len()).unwrap();
        let compute = compute_costs(dag);
        let model = CostModel::default();
        let r = mpskip_enum(dag, &memo, part, &compute, &model, &cfg);
        (r, part.interesting.len())
    }

    #[test]
    fn exhaustive_and_pruned_agree_on_optimum() {
        let dag = shared_dag();
        let (full, n) = run(
            &dag,
            EnumConfig { cost_prune: false, structural_prune: false, max_eval: u64::MAX },
        );
        let (pruned, _) = run(&dag, EnumConfig::default());
        assert!(n >= 2);
        assert_eq!(full.evaluated, 1 << n, "exhaustive costs every plan");
        assert!(
            (full.cost - pruned.cost).abs() <= 1e-9 * full.cost.max(1.0),
            "pruning must preserve the optimum: {} vs {}",
            full.cost,
            pruned.cost
        );
        assert!(pruned.evaluated <= full.evaluated);
    }

    #[test]
    fn optimal_plan_materializes_expensive_shared_node() {
        let dag = shared_dag();
        let (r, _) = run(
            &dag,
            EnumConfig { cost_prune: false, structural_prune: false, max_eval: u64::MAX },
        );
        // exp(X) over 2000² with weight 20 is compute-dominant; computing it
        // twice is worse than materializing. The best plan must set at least
        // one materialization bit on the shared node's edges.
        assert!(r.assignment.iter().any(|&b| b), "best plan materializes: {:?}", r.assignment);
    }

    #[test]
    fn fuse_all_is_optimal_without_sharing() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let z = b.read("Z", 1000, 1000, 1.0);
        let m1 = b.mult(x, y);
        let m2 = b.mult(m1, z);
        let s = b.sum(m2);
        let dag = b.build(vec![s]);
        let (r, _) = run(&dag, EnumConfig::default());
        assert!(r.assignment.iter().all(|&b| !b), "no reason to materialize");
    }

    #[test]
    fn cost_pruning_reduces_evaluated_plans() {
        // Cheap compute, huge shared intermediates: materializing is
        // clearly bad, so lower bounds prune most of the search space.
        let mut b = DagBuilder::new();
        let x = b.read("X", 4000, 4000, 1.0);
        let y = b.read("Y", 4000, 4000, 1.0);
        let s1 = b.abs(x);
        let s2 = b.sq(y);
        let m1 = b.mult(s1, s2);
        let m2 = b.mult(s1, y);
        let m3 = b.mult(s2, x);
        let t1 = b.sum(m1);
        let t2 = b.sum(m2);
        let t3 = b.sum(m3);
        let dag = b.build(vec![t1, t2, t3]);
        let (full, n) = run(
            &dag,
            EnumConfig { cost_prune: false, structural_prune: false, max_eval: u64::MAX },
        );
        let (pruned, _) =
            run(&dag, EnumConfig { cost_prune: true, structural_prune: false, max_eval: u64::MAX });
        assert!(n >= 3, "need a real search space, got {n}");
        assert!(
            pruned.evaluated < full.evaluated,
            "pruning must skip plans: {} vs {}",
            pruned.evaluated,
            full.evaluated
        );
        assert!((full.cost - pruned.cost).abs() <= 1e-9 * full.cost.max(1.0));
    }

    #[test]
    fn max_eval_caps_work() {
        let dag = shared_dag();
        let (r, _) =
            run(&dag, EnumConfig { cost_prune: false, structural_prune: false, max_eval: 2 });
        assert!(r.evaluated <= 2);
        assert!(r.cost.is_finite());
    }
}
