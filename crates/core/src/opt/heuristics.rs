//! Fusion heuristics (paper §4.1): the baseline assignment policies
//! fuse-all and fuse-no-redundancy.

use crate::opt::partition::PlanPartition;

/// Fuse-all (`Gen-FA`): maximal fusion, never materialize — redundant
/// compute on CSEs. "Similar to lazy evaluation in Spark, delayed arrays in
/// Repa, and code generation in SPOOF."
pub fn fuse_all(part: &PlanPartition) -> Vec<bool> {
    vec![false; part.interesting.len()]
}

/// Fuse-no-redundancy (`Gen-FNR`): materialize every intermediate with
/// multiple consumers, a DAG output counting one more — exactly the
/// partition's materialization points. "Similar to caching policies in
/// Emma."
pub fn fuse_no_redundancy(part: &PlanPartition) -> Vec<bool> {
    part.interesting.iter().map(|p| part.mat_points.contains(&p.target)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::opt::partition::partitions;
    use fusedml_hop::DagBuilder;

    #[test]
    fn heuristic_assignments_differ_on_shared_nodes() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 500, 500, 1.0);
        let y = b.read("Y", 500, 500, 1.0);
        let shared = b.mult(x, y);
        let e = b.exp(shared);
        let s1 = b.sum(e);
        let q = b.sq(shared);
        let s2 = b.sum(q);
        let dag = b.build(vec![s1, s2]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let part = &parts[0];
        let fa = fuse_all(part);
        let fnr = fuse_no_redundancy(part);
        assert!(fa.iter().all(|&v| !v), "fuse-all never materializes");
        // FNR materializes exactly the multi-consumer targets.
        for (p, &on) in part.interesting.iter().zip(&fnr) {
            assert_eq!(on, p.target == shared, "{p:?}");
        }
        assert!(fnr.iter().any(|&v| v), "fuse-no-redundancy materializes the shared node");

        // A DAG output with one consumer inside the partition is written
        // anyway, so fuse-no-redundancy materializes it too.
        let mut b = DagBuilder::new();
        let x = b.read("X", 64, 128, 1.0);
        let w = b.read("W", 128, 10, 1.0);
        let s = b.mm(x, w);
        let m = b.row_maxs(s);
        let dag = b.build(vec![s, m]);
        let memo = explore(&dag);
        let parts = partitions(&dag, &memo);
        let part = parts.iter().find(|p| p.nodes.contains(&m)).expect("rowMaxs partition");
        let fnr = fuse_no_redundancy(part);
        let edge = part
            .interesting
            .iter()
            .position(|p| (p.consumer, p.target) == (m, s))
            .expect("rowMaxs -> S is interesting");
        assert!(fnr[edge], "fuse-no-redundancy materializes the output S: {:?}", part.interesting);
    }
}
