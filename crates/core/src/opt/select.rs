//! Plan selection: turns per-partition assignments into concrete
//! [`OperatorPlan`]s by extracting the chosen memo entries along fusion
//! references (the same traversal the cost model performs), and groups
//! full-aggregate Cell plans sharing inputs into MultiAgg candidates.

use crate::cplan::OperatorPlan;
use crate::memo::{InputRef, MemoEntry, MemoTable};
use crate::opt::cost::{self, CostModel, CostTable};
use crate::opt::enumerate::{enumerate_table, EnumConfig};
use crate::opt::heuristics;
use crate::opt::partition::partitions;
use crate::templates::TemplateType;
use crate::util::{FxHashMap, FxHashSet};
use fusedml_hop::{HopDag, HopId, OpKind};
use fusedml_linalg::ops::AggDir;

/// Candidate selection policy (paper §4.1).
#[derive(Clone, Copy, Debug)]
pub enum SelectionPolicy {
    /// Cost-based enumeration with `MPSkipEnum` (the `Gen` configuration).
    CostBased(EnumConfig),
    /// The fuse-all heuristic (`Gen-FA`).
    FuseAll,
    /// The fuse-no-redundancy heuristic (`Gen-FNR`).
    FuseNoRedundancy,
}

/// Output of candidate selection.
#[derive(Clone, Debug, Default)]
pub struct SelectionResult {
    /// Selected fused operators.
    pub operators: Vec<OperatorPlan>,
    /// Groups of operator indices to combine into MultiAgg operators
    /// (each group has ≥2 full-agg Cell operators sharing inputs).
    pub magg_groups: Vec<Vec<usize>>,
    /// Total plans costed across partitions.
    pub plans_evaluated: u64,
    /// Of those, the plans the costing tables walked (`EnumResult::walked`).
    pub plans_walked: u64,
    /// Scan positions cost-based skip-ahead jumped over
    /// (`EnumResult::pruned_cost`).
    pub plans_pruned_cost: u64,
    /// Scan positions cut-set jumps passed over, less the plans they cost
    /// (`EnumResult::pruned_structural`).
    pub plans_pruned_structural: u64,
    /// Total search-space size across partitions (2^|M'| summed).
    pub search_space: f64,
    /// Number of partitions.
    pub partitions: usize,
    /// Total interesting points.
    pub interesting_points: usize,
    /// Partitions whose enumeration stopped at `EnumConfig::max_eval`: their
    /// plan is the best found so far, not the optimum.
    pub partitions_capped: usize,
    /// The largest |M'| among the capped partitions.
    pub capped_points: usize,
}

/// Runs candidate selection over a populated memo table.
pub fn select_plans(
    dag: &HopDag,
    memo: &MemoTable,
    policy: SelectionPolicy,
    model: &CostModel,
) -> SelectionResult {
    // Special-case pruning of Row plans without row-wise operations (all
    // policies), plus dominance pruning for the heuristics (paper §3.2).
    let mut m = memo.clone();
    m.prune_useless_row_plans(dag);
    if !matches!(policy, SelectionPolicy::CostBased(_)) {
        m.prune_dominated(dag);
    }
    let memo = &m;
    let parts = partitions(dag, memo);
    let compute = cost::compute_costs(dag);
    let mut result = SelectionResult { partitions: parts.len(), ..Default::default() };
    for part in &parts {
        result.interesting_points += part.interesting.len();
        let mut table = CostTable::new(dag, memo, part, &compute, model);
        let assignment: Vec<bool> = match policy {
            SelectionPolicy::CostBased(cfg) => {
                let r = enumerate_table(&mut table, dag, &cfg);
                result.plans_evaluated += r.evaluated;
                result.plans_walked += r.walked;
                result.plans_pruned_cost += r.pruned_cost;
                result.plans_pruned_structural += r.pruned_structural;
                result.search_space += r.search_space;
                if r.capped {
                    result.partitions_capped += 1;
                    result.capped_points = result.capped_points.max(part.interesting.len());
                }
                r.assignment
            }
            SelectionPolicy::FuseAll => {
                result.plans_evaluated += 1;
                result.search_space += 1.0;
                heuristics::fuse_all(part)
            }
            SelectionPolicy::FuseNoRedundancy => {
                result.plans_evaluated += 1;
                result.search_space += 1.0;
                heuristics::fuse_no_redundancy(part)
            }
        };
        let mask = cost::assignment_mask(&assignment);
        extract_operators(dag, &table, mask, &mut result.operators);
    }
    result.magg_groups = group_multi_aggregates(dag, &result.operators);
    result
}

/// Extracts operator plans for one partition under the assignment `mask`,
/// mirroring the cost model's traversal (open at roots/materialized
/// boundaries, follow fusion references of the best entries).
fn extract_operators(dag: &HopDag, table: &CostTable, mask: u64, out: &mut Vec<OperatorPlan>) {
    let part = table.part();
    let in_part = |h: &HopId| part.nodes.binary_search(h).is_ok();
    let mut opened: FxHashSet<HopId> = FxHashSet::default();
    let mut queue: Vec<HopId> = part.roots.clone();
    while let Some(root) = queue.pop() {
        if !opened.insert(root) {
            continue;
        }
        match table.best_entry(root, None, mask) {
            Some(entry) if entry.ref_count() > 0 => {
                let mut plan =
                    OperatorPlan { root, ttype: entry.ttype, entries: FxHashMap::default() };
                let mut frontier: Vec<HopId> = Vec::new();
                collect(dag, table, mask, root, entry, &mut plan, &mut frontier);
                // Refs can degrade to materialized when the assignment
                // invalidated all compatible sub-plans; a fused operator
                // covering a single op is pointless — execute it basic.
                let has_refs = plan.entries.values().any(|e| e.ref_count() > 0);
                if has_refs && plan.entries.len() > 1 {
                    out.push(plan);
                } else {
                    queue.extend(dag.hop(root).inputs.iter().copied().filter(in_part));
                }
                queue.extend(frontier.into_iter().filter(in_part));
            }
            // Basic operator (or single-op plan not worth fusing): recurse
            // into partition inputs.
            _ => queue.extend(dag.hop(root).inputs.iter().copied().filter(in_part)),
        }
    }
}

/// Recursively collects the covered hops of one operator. Each fused
/// reference is resolved to the input's best merge-compatible entry; a
/// reference without a valid compatible plan degrades to a materialized
/// input.
fn collect(
    dag: &HopDag,
    table: &CostTable,
    mask: u64,
    hop: HopId,
    entry: &MemoEntry,
    plan: &mut OperatorPlan,
    frontier: &mut Vec<HopId>,
) {
    if plan.entries.contains_key(&hop) {
        return;
    }
    let mut resolved = entry.clone();
    // Placeholder guards against diamond re-entry within this operator.
    plan.entries.insert(hop, resolved.clone());
    for (j, &input) in dag.hop(hop).inputs.iter().enumerate() {
        if resolved.inputs[j].is_fused() {
            match table.best_entry(input, Some(plan.ttype), mask) {
                Some(se) => collect(dag, table, mask, input, se, plan, frontier),
                None => {
                    resolved.inputs[j] = InputRef::Materialized;
                    frontier.push(input);
                }
            }
        } else {
            frontier.push(input);
        }
    }
    plan.entries.insert(hop, resolved);
}

/// Groups full-aggregate Cell operators sharing at least one input into
/// MultiAgg candidates of up to 3 aggregates (paper Table 1: MAgg binds
/// `X_ij` with full-agg variants; §5.2 multi-aggregate experiments).
fn group_multi_aggregates(dag: &HopDag, operators: &[OperatorPlan]) -> Vec<Vec<usize>> {
    // Candidates: Cell operators rooted at full aggregations.
    let mut cands: Vec<(usize, FxHashSet<HopId>)> = Vec::new();
    for (i, op) in operators.iter().enumerate() {
        if op.ttype != TemplateType::Cell {
            continue;
        }
        let root = dag.hop(op.root);
        if !matches!(root.kind, OpKind::Agg { dir: AggDir::Full, .. }) {
            continue;
        }
        // Leaf inputs of the covered set.
        let covered = op.covered();
        let mut leaves: FxHashSet<HopId> = FxHashSet::default();
        for &h in covered.iter() {
            for &input in &dag.hop(h).inputs {
                if !covered.contains(&input) && !dag.hop(input).is_scalar() {
                    leaves.insert(input);
                }
            }
        }
        cands.push((i, leaves));
    }
    // Greedy grouping by shared inputs.
    let mut used = vec![false; cands.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..cands.len() {
        if used[i] {
            continue;
        }
        let mut group = vec![cands[i].0];
        used[i] = true;
        for j in i + 1..cands.len() {
            if used[j] || group.len() >= 3 {
                continue;
            }
            if cands[i].1.intersection(&cands[j].1).next().is_some() {
                group.push(cands[j].0);
                used[j] = true;
            }
        }
        if group.len() >= 2 {
            groups.push(group);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    #[test]
    fn cell_chain_selected_as_single_operator() {
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let z = b.read("Z", 1000, 1000, 1.0);
        let m1 = b.mult(x, y);
        let m2 = b.mult(m1, z);
        let s = b.sum(m2);
        let dag = b.build(vec![s]);
        let memo = explore(&dag);
        let r = select_plans(
            &dag,
            &memo,
            SelectionPolicy::CostBased(EnumConfig::default()),
            &CostModel::default(),
        );
        assert_eq!(r.operators.len(), 1);
        let op = &r.operators[0];
        assert_eq!(op.root, s);
        let covered = op.covered();
        assert!(covered.contains(&m1) && covered.contains(&m2) && covered.contains(&s));
    }

    #[test]
    fn magg_groups_shared_input_aggregates() {
        // sum(X⊙Y), sum(X⊙Z): two full-agg Cell ops sharing X.
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", 1000, 1000, 1.0);
        let y = b.read("Y", 1000, 1000, 1.0);
        let z = b.read("Z", 1000, 1000, 1.0);
        let a = b.mult(x, y);
        let c = b.mult(x, z);
        let s1 = b.sum(a);
        let s2 = b.sum(c);
        let dag = b.build(vec![s1, s2]);
        let memo = explore(&dag);
        let r = select_plans(
            &dag,
            &memo,
            SelectionPolicy::CostBased(EnumConfig::default()),
            &CostModel::default(),
        );
        assert_eq!(r.operators.len(), 2);
        assert_eq!(r.magg_groups.len(), 1, "one MAgg group: {:?}", r.magg_groups);
        assert_eq!(r.magg_groups[0].len(), 2);
    }

    #[test]
    fn mlogreg_row_plan_extracted() {
        // The Figure 5 expression must select a Row operator rooted at the
        // final matmult covering the full chain.
        let (n, m, k) = (1000, 100, 4);
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", n, m, 1.0);
        let v = b.read("v", m, k, 1.0);
        let p = b.read("P", n, k + 1, 1.0);
        let h4 = b.mm(x, v);
        let h5 = b.rix(p, None, Some((0, k)));
        let h6 = b.mult(h5, h4);
        let h7 = b.row_sums(h6);
        let h8 = b.mult(h5, h7);
        let h9 = b.sub(h6, h8);
        let h10 = b.t(x);
        let h11 = b.mm(h10, h9);
        let dag = b.build(vec![h11]);
        let memo = explore(&dag);
        let r = select_plans(
            &dag,
            &memo,
            SelectionPolicy::CostBased(EnumConfig::default()),
            &CostModel::default(),
        );
        let root_op =
            r.operators.iter().find(|o| o.root == h11).expect("operator at the final matmult");
        assert_eq!(root_op.ttype, TemplateType::Row);
        // The Q intermediate (h6) has two consumers; the optimal plan for
        // this size fuses everything into one pass (single-pass over X).
        assert!(
            root_op.entries.len() >= 4,
            "covers a multi-op chain: {:?}",
            root_op.entries.keys()
        );
    }

    #[test]
    fn heuristics_extract_without_panic() {
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", 500, 500, 1.0);
        let y = b.read("Y", 500, 500, 1.0);
        let shared = b.mult(x, y);
        let e = b.exp(shared);
        let s1 = b.sum(e);
        let q = b.sq(shared);
        let s2 = b.sum(q);
        let dag = b.build(vec![s1, s2]);
        let memo = explore(&dag);
        for policy in [SelectionPolicy::FuseAll, SelectionPolicy::FuseNoRedundancy] {
            let r = select_plans(&dag, &memo, policy, &CostModel::default());
            assert!(!r.operators.is_empty());
        }
    }
}
