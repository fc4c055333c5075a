//! Liveness analysis over HOP DAGs: per-hop counts of live read
//! occurrences and the root mask.
//!
//! The scheduler's task graph (`runtime::schedule::prepare`) carries the
//! refcounts, levels and widths execution runs on. This pass derives the
//! read counts a second, independent way, straight from the DAG, so the plan
//! verifier can cross-check the task graph's refcounts in `Base` mode.

use crate::dag::HopDag;

/// Liveness facts for one DAG.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Per-hop number of live consumer *read occurrences* (a consumer using
    /// the same input twice counts twice). Roots do not add to this count;
    /// see [`Liveness::is_root`].
    pub consumers: Vec<u32>,
    /// True for DAG roots (outputs that must survive the whole execution).
    pub is_root: Vec<bool>,
}

/// Computes liveness facts for a DAG.
pub fn analyze(dag: &HopDag) -> Liveness {
    let n = dag.len();
    let live = dag.live_set();
    let mut is_root = vec![false; n];
    for &r in dag.roots() {
        is_root[r.index()] = true;
    }
    let mut consumers = vec![0u32; n];
    for h in dag.iter().filter(|h| live[h.id.index()]) {
        for &i in &h.inputs {
            consumers[i.index()] += 1;
        }
    }
    Liveness { consumers, is_root }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;

    #[test]
    fn consumer_counts_and_roots() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 10, 10, 1.0);
        let a = b.mult(x, x); // x read twice
        let e = b.exp(a);
        let s = b.sum(e);
        let dag = b.build(vec![s]);
        let lv = analyze(&dag);
        assert_eq!(lv.consumers[x.index()], 2);
        assert_eq!(lv.consumers[a.index()], 1);
        assert_eq!(lv.consumers[s.index()], 0);
        assert!(lv.is_root[s.index()]);
        assert!(!lv.is_root[a.index()]);
    }

    #[test]
    fn dead_hops_are_excluded() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 10, 10, 1.0);
        let _dead = b.exp(x);
        let s = b.sum(x);
        let dag = b.build(vec![s]);
        let lv = analyze(&dag);
        // The dead consumer must not keep x's read count up.
        assert_eq!(lv.consumers[x.index()], 1);
    }
}
