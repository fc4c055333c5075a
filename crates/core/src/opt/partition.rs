//! Plan partitions and interesting materialization points (paper §4.2,
//! Figure 6).

use crate::memo::MemoTable;
use crate::templates::TemplateType;
use crate::util::{FxHashMap, FxHashSet};
use fusedml_hop::{HopDag, HopId};

/// An interesting point: a boolean materialization decision on the data
/// dependency `consumer → target` (paper §4.2). `true` in an assignment
/// means the edge is *materialized*: fusion plans referencing `target` from
/// `consumer` become invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InterestingPoint {
    pub consumer: HopId,
    pub target: HopId,
}

/// A connected component of partial fusion plans.
#[derive(Clone, Debug)]
pub struct PlanPartition {
    /// Nodes with fusion plans in this partition.
    pub nodes: Vec<HopId>,
    /// Partition roots: nodes whose value leaves the partition — never
    /// referenced from within it, or externally consumed (a DAG root, or
    /// read by a live hop outside the partition). Each is materialized
    /// whatever the plan, so the cost walk starts an operator at every one.
    pub roots: Vec<HopId>,
    /// Partition inputs: nodes outside whose output is read by the partition.
    pub inputs: Vec<HopId>,
    /// Materialization points: nodes referenced from within the partition
    /// with multiple consumers, a DAG root counting one more. An externally
    /// consumed point is also a root.
    pub mat_points: Vec<HopId>,
    /// Interesting points `M'`: materialization-point consumer edges plus
    /// template-switch edges.
    pub interesting: Vec<InterestingPoint>,
}

/// Computes the plan partitions of a memo table: connected components over
/// fusion references (paper: "nodes of separate partitions are not reachable
/// via fusion").
pub fn partitions(dag: &HopDag, memo: &MemoTable) -> Vec<PlanPartition> {
    let group_ids = memo.group_ids();
    if group_ids.is_empty() {
        return Vec::new();
    }
    // Union-find over group ids.
    let index: FxHashMap<HopId, usize> =
        group_ids.iter().enumerate().map(|(i, &g)| (g, i)).collect();
    let mut parent: Vec<usize> = (0..group_ids.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut i = i;
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for &g in &group_ids {
        for e in memo.entries(g) {
            for r in e.refs() {
                if let Some(&ri) = index.get(&r) {
                    let (a, b) = (find(&mut parent, index[&g]), find(&mut parent, ri));
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
        }
    }
    // Collect components.
    let mut comps: FxHashMap<usize, Vec<HopId>> = FxHashMap::default();
    for &g in &group_ids {
        let root = find(&mut parent, index[&g]);
        comps.entry(root).or_default().push(g);
    }
    let consumers = dag.consumers();
    let live = dag.live_set();
    let dag_roots: FxHashSet<HopId> = dag.roots().iter().copied().collect();
    let mut out: Vec<PlanPartition> = comps
        .into_values()
        .map(|mut nodes| {
            nodes.sort_unstable();
            build_partition(dag, memo, nodes, &consumers, &live, &dag_roots)
        })
        .collect();
    out.sort_by_key(|p| p.nodes[0]);
    out
}

fn build_partition(
    dag: &HopDag,
    memo: &MemoTable,
    nodes: Vec<HopId>,
    consumers: &[Vec<HopId>],
    live: &[bool],
    dag_roots: &FxHashSet<HopId>,
) -> PlanPartition {
    let node_set: FxHashSet<HopId> = nodes.iter().copied().collect();

    // Roots: nodes unreferenced from within, plus the externally consumed.
    let mut referenced: FxHashSet<HopId> = FxHashSet::default();
    for &g in &nodes {
        for e in memo.entries(g) {
            for r in e.refs() {
                if node_set.contains(&r) {
                    referenced.insert(r);
                }
            }
        }
    }
    // A dead reader (unreachable from the DAG roots) never runs, so it does
    // not make a node externally consumed.
    let external = |n: HopId| {
        dag_roots.contains(&n)
            || consumers[n.index()].iter().any(|c| live[c.index()] && !node_set.contains(c))
    };
    let roots: Vec<HopId> =
        nodes.iter().copied().filter(|&n| !referenced.contains(&n) || external(n)).collect();

    // Inputs: hop inputs of partition nodes outside the partition.
    let mut inputs: Vec<HopId> = Vec::new();
    let mut seen = FxHashSet::default();
    for &g in &nodes {
        for &i in &dag.hop(g).inputs {
            if !node_set.contains(&i) && seen.insert(i) {
                inputs.push(i);
            }
        }
    }
    inputs.sort_unstable();

    // Materialization points: referenced partition nodes with >1 consumers
    // (DAG roots get one extra implicit consumer).
    let mat_points: Vec<HopId> = nodes
        .iter()
        .copied()
        .filter(|&n| {
            referenced.contains(&n)
                && consumers[n.index()].len() + usize::from(dag_roots.contains(&n)) > 1
        })
        .collect();
    let mat_set: FxHashSet<HopId> = mat_points.iter().copied().collect();

    // Interesting points.
    let mut interesting: Vec<InterestingPoint> = Vec::new();
    let mut ip_seen: FxHashSet<InterestingPoint> = FxHashSet::default();
    for &g in &nodes {
        for &input in &dag.hop(g).inputs {
            if !node_set.contains(&input) {
                continue;
            }
            // (1) Materialization-point consumers, per dependency.
            let is_mp_edge = mat_set.contains(&input);
            // (2) Template switches: W[input] has types not in W[g], on a
            //     fusible dependency (input referenced by some entry at g).
            let fusible = memo.entries(g).iter().any(|e| e.refs().any(|r| r == input));
            let is_switch = fusible && {
                let tin: Vec<TemplateType> = memo.entries(input).iter().map(|e| e.ttype).collect();
                let tg: Vec<TemplateType> = memo.entries(g).iter().map(|e| e.ttype).collect();
                tin.iter().any(|t| !tg.contains(t))
            };
            if is_mp_edge || is_switch {
                let p = InterestingPoint { consumer: g, target: input };
                if ip_seen.insert(p) {
                    interesting.push(p);
                }
            }
        }
    }
    interesting.sort_unstable();

    PlanPartition { nodes, roots, inputs, mat_points, interesting }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use fusedml_hop::DagBuilder;

    /// Two independent fusion chains → two partitions.
    #[test]
    fn independent_chains_split() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 100, 100, 1.0);
        let y = b.read("Y", 100, 100, 1.0);
        let s1 = {
            let m = b.mult(x, y);
            b.sum(m)
        };
        // Separate chain on different inputs, not fusible across colSums.
        let w = b.read("W", 200, 50, 1.0);
        let z = b.read("Z", 200, 50, 1.0);
        let s2 = {
            let m = b.add(w, z);
            let e = b.sq(m);
            b.sum(e)
        };
        let dag = b.build(vec![s1, s2]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        assert_eq!(parts.len(), 2, "two connected components");
        for p in &parts {
            assert!(!p.roots.is_empty());
            assert!(!p.inputs.is_empty());
        }
    }

    /// A shared intermediate with two consumers becomes a materialization
    /// point and contributes per-consumer interesting points.
    #[test]
    fn materialization_points_found() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 100, 100, 1.0);
        let y = b.read("Y", 100, 100, 1.0);
        let shared = b.mult(x, y); // consumed twice
        let e1 = b.exp(shared);
        let s1 = b.sum(e1);
        let sq = b.sq(shared);
        let s2 = b.sum(sq);
        let dag = b.build(vec![s1, s2]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        assert_eq!(parts.len(), 1, "connected through the shared node");
        let p = &parts[0];
        assert!(p.mat_points.contains(&shared), "shared mult is a mat point");
        let consumers: Vec<HopId> =
            p.interesting.iter().filter(|ip| ip.target == shared).map(|ip| ip.consumer).collect();
        assert_eq!(consumers.len(), 2, "one interesting point per consumer edge");
    }

    /// Template switches are interesting even without multiple consumers:
    /// `Y + X ⊙ UV^T` has a Cell/Outer switch at the plane (paper §4.2).
    #[test]
    fn template_switch_is_interesting() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 2000, 1000, 0.01);
        let u = b.read("U", 2000, 20, 1.0);
        let v = b.read("V", 1000, 20, 1.0);
        let yb = b.read("Y", 2000, 1000, 1.0);
        let vt = b.t(v);
        let uvt = b.mm(u, vt);
        let prod = b.mult(x, uvt);
        let plus = b.add(yb, prod);
        let s = b.sum(plus);
        let dag = b.build(vec![s]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        // The transpose's isolated R(-1) group forms its own tiny partition;
        // use the partition containing the plane.
        let p = parts.iter().find(|p| p.nodes.contains(&prod)).expect("plane partition");
        assert!(
            p.interesting.iter().any(|ip| ip.target == uvt || ip.target == prod),
            "template switch around the outer-product plane: {:?}",
            p.interesting
        );
    }

    /// A node whose value leaves the partition — a DAG output, or the input
    /// of a live hop outside the partition — is a root even though a
    /// partition entry fuses it, and stays a materialization point.
    #[test]
    fn externally_consumed_nodes_are_roots() {
        // The serving scorer: S = X W is an output and rowMaxs(S) reads it.
        let mut b = DagBuilder::new();
        let x = b.read("X", 64, 128, 1.0);
        let w = b.read("W", 128, 10, 1.0);
        let s = b.mm(x, w);
        let m = b.row_maxs(s);
        let dag = b.build(vec![s, m]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let p = parts.iter().find(|p| p.nodes.contains(&m)).expect("rowMaxs partition");
        assert!(p.nodes.contains(&s), "rowMaxs fuses S: {:?}", p.nodes);
        assert!(p.roots.contains(&s) && p.roots.contains(&m), "roots {:?}", p.roots);
        assert!(p.mat_points.contains(&s), "S stays a materialization point");
        assert!(p.interesting.contains(&InterestingPoint { consumer: m, target: s }));

        // E = exp(X B) feeds an unfusible cbind outside the partition and a
        // fused rowSums inside it.
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 50, 1.0);
        let bm = b.read("B", 50, 4, 1.0);
        let xb = b.mm(x, bm);
        let e = b.exp(xb);
        let r = b.row_sums(e);
        let c = b.cbind(e, r);
        let dag = b.build(vec![c]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let p = parts.iter().find(|p| p.nodes.contains(&r)).expect("rowSums partition");
        assert!(p.nodes.contains(&e) && !p.nodes.contains(&c), "{:?}", p.nodes);
        assert!(p.roots.contains(&e), "exp(X B) is read by cbind: roots {:?}", p.roots);
        assert!(p.mat_points.contains(&e));

        // The same cbind, dead (no root reaches it), never runs: E stays fused.
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 50, 1.0);
        let bm = b.read("B", 50, 4, 1.0);
        let xb = b.mm(x, bm);
        let e = b.exp(xb);
        let r = b.row_sums(e);
        b.cbind(e, r);
        let dag = b.build(vec![r]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let p = parts.iter().find(|p| p.nodes.contains(&r)).expect("rowSums partition");
        assert!(!p.roots.contains(&e), "only a dead hop reads exp(X B): roots {:?}", p.roots);
    }

    #[test]
    fn partition_roots_are_unreferenced() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 100, 100, 1.0);
        let y = b.read("Y", 100, 100, 1.0);
        let m = b.mult(x, y);
        let s = b.sum(m);
        let dag = b.build(vec![s]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].roots, vec![s]);
        assert!(parts[0].inputs.contains(&x));
        assert!(parts[0].inputs.contains(&y));
    }
}
