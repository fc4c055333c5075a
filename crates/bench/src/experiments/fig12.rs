//! Figure 12: plan enumeration and pruning — the number of evaluated plans
//! per algorithm under (all) joint enumeration without partitioning,
//! (partition) independent partitions, and (partition+prune) with
//! cost-based and structural pruning.

use crate::report::Table;
use fusedml_core::explore::explore;
use fusedml_core::opt::{cost, mpskip_enum, partitions, CostModel, EnumConfig};
use fusedml_hop::HopDag;

/// Representative per-iteration DAGs per algorithm (the fusion-relevant
/// inner-loop bodies).
pub fn algorithm_dags() -> Vec<(&'static str, Vec<HopDag>)> {
    use fusedml_algos as algos;
    let _ = &algos::common::Algorithm::L2svm;
    // Reuse the bench fig8 builders plus algorithm-shaped DAGs.
    let l2svm = {
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", 100_000, 10, 1.0);
        let y = b.read("y", 100_000, 1, 1.0);
        let w = b.read("w", 10, 1, 1.0);
        let xw = b.mm(x, w);
        let yxw = b.mult(y, xw);
        let one = b.lit(1.0);
        let out = b.sub(one, yxw);
        let zero = b.lit(0.0);
        let ind = b.gt(out, zero);
        let mask = b.mult(ind, out);
        let sq = b.sq(mask);
        let obj = b.sum(sq);
        let d = b.mult(y, mask);
        let xt = b.t(x);
        let g = b.mm(xt, d);
        vec![b.build(vec![obj, g])]
    };
    let mlogreg = {
        let (n, m, k) = (100_000, 10, 4);
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", n, m, 1.0);
        let p = b.read("P", n, k + 1, 1.0);
        let v = b.read("v", m, k, 1.0);
        let xv = b.mm(x, v);
        let pk = b.rix(p, None, Some((0, k)));
        let q = b.mult(pk, xv);
        let rs = b.row_sums(q);
        let prs = b.mult(pk, rs);
        let diff = b.sub(q, prs);
        let xt = b.t(x);
        let h = b.mm(xt, diff);
        vec![b.build(vec![h])]
    };
    let glm = {
        let (n, m) = (100_000, 10);
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", n, m, 1.0);
        let y = b.read("y", n, 1, 1.0);
        let beta = b.read("b", m, 1, 1.0);
        let eta = b.mm(x, beta);
        let mu = b.sigmoid(eta);
        let w = b.unary(fusedml_linalg::ops::UnaryOp::Sprop, mu);
        let resid = b.sub(y, mu);
        let xt = b.t(x);
        let g = b.mm(xt, resid);
        let wsum = b.sum(w);
        vec![b.build(vec![g, wsum])]
    };
    let kmeans = {
        let (n, m, k) = (100_000, 10, 5);
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", n, m, 1.0);
        let c = b.read("C", k, m, 1.0);
        let ct = b.t(c);
        let xc = b.mm(x, ct);
        let neg2 = b.lit(-2.0);
        let xc2 = b.mult(xc, neg2);
        let csq = b.sq(c);
        let cn = b.agg(fusedml_linalg::ops::AggOp::Sum, fusedml_linalg::ops::AggDir::Row, csq);
        let cnt = b.t(cn);
        let d = b.add(xc2, cnt);
        let dmin = b.agg(fusedml_linalg::ops::AggOp::Min, fusedml_linalg::ops::AggDir::Row, d);
        let a = b.binary(fusedml_linalg::ops::BinaryOp::Eq, d, dmin);
        let wcss = b.sum(dmin);
        let at = b.t(a);
        let num = b.mm(at, x);
        let counts = b.col_sums(a);
        vec![b.build(vec![wcss, num, counts])]
    };
    let alscg = {
        let (n, m, r) = (10_000, 10_000, 20);
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("X", n, m, 0.01);
        let u = b.read("U", n, r, 1.0);
        let v = b.read("V", m, r, 1.0);
        let vt = b.t(v);
        let uvt = b.mm(u, vt);
        let zero = b.lit(0.0);
        let mask = b.neq(x, zero);
        let w = b.mult(mask, uvt);
        let wv = b.mm(w, v);
        let xv = b.mm(x, v);
        let diff = b.sub(wv, xv);
        let sq = b.sq(uvt);
        let msq = b.mult(mask, sq);
        let t1 = b.sum(msq);
        let xp = b.mult(x, uvt);
        let t2 = b.sum(xp);
        vec![b.build(vec![diff, t1, t2])]
    };
    let autoenc = {
        let (bsz, m, h1, h2) = (512, 100, 50, 2);
        let mut b = fusedml_hop::DagBuilder::new();
        let x = b.read("Xb", bsz, m, 1.0);
        let w1 = b.read("W1", m, h1, 1.0);
        let w2 = b.read("W2", h1, h2, 1.0);
        let a1 = b.mm(x, w1);
        let z1 = b.sigmoid(a1);
        let a2 = b.mm(z1, w2);
        let z2 = b.sigmoid(a2);
        let s2 = b.unary(fusedml_linalg::ops::UnaryOp::Sprop, z2);
        let d2 = b.mult(z2, s2);
        let z1t = b.t(z1);
        let dw2 = b.mm(z1t, d2);
        let w2t = b.t(w2);
        let dz1 = b.mm(d2, w2t);
        let s1 = b.unary(fusedml_linalg::ops::UnaryOp::Sprop, z1);
        let d1 = b.mult(dz1, s1);
        let xt = b.t(x);
        let dw1 = b.mm(xt, d1);
        vec![b.build(vec![dw1, dw2])]
    };
    vec![
        ("L2SVM", l2svm),
        ("MLogreg", mlogreg),
        ("GLM", glm),
        ("KMeans", kmeans),
        ("ALS-CG", alscg),
        ("AutoEncoder", autoenc),
    ]
}

/// One algorithm's row of Figure 12, summed over its DAGs.
#[derive(Debug, Default)]
pub struct Counts {
    /// `2^Σ|M'|`: joint enumeration without partitioning.
    pub all: f64,
    /// `Σ 2^|M'i|`: independent partitions.
    pub partition: f64,
    /// Plans `MPSkipEnum` costed (`EnumResult::evaluated`).
    pub evaluated: u64,
    /// Of those, the plans the costing tables walked.
    pub walked: u64,
    /// Scan positions cost-based skip-ahead jumped over.
    pub pruned_cost: u64,
    /// Scan positions cut-set jumps passed over.
    pub pruned_structural: u64,
    /// Operator summaries the costing tables built.
    pub summaries: u64,
    /// Partitions that ran into `EnumConfig::max_eval`.
    pub capped: usize,
    /// `MPSkipEnum` wall time, costing tables included.
    pub enum_s: f64,
}

/// Enumerates every partition of `dags` as `select_plans` does under `Gen`:
/// Row plans without row-wise operations pruned first, default `EnumConfig`.
pub fn counts(dags: &[HopDag]) -> Counts {
    let model = CostModel::default();
    let mut c = Counts::default();
    for dag in dags {
        let mut memo = explore(dag);
        memo.prune_useless_row_plans(dag);
        let parts = partitions(dag, &memo);
        let compute = cost::compute_costs(dag);
        let total_points: usize = parts.iter().map(|p| p.interesting.len()).sum();
        c.all += 2f64.powi(total_points as i32);
        for p in &parts {
            c.partition += 2f64.powi(p.interesting.len() as i32);
            let t0 = std::time::Instant::now();
            let r = mpskip_enum(dag, &memo, p, &compute, &model, &EnumConfig::default());
            c.enum_s += t0.elapsed().as_secs_f64();
            c.evaluated += r.evaluated;
            c.walked += r.walked;
            c.pruned_cost += r.pruned_cost;
            c.pruned_structural += r.pruned_structural;
            c.summaries += r.summaries;
            c.capped += usize::from(r.capped);
        }
    }
    c
}

/// Runs the enumeration-count comparison. The columns beside the paper's say
/// how many of the costed plans the costing tables walked (the others were
/// answered from a walk of the same referenced points), how many scan
/// positions each pruning skipped, how many operator summaries the walks
/// built (every other operator they visited reused one), what a costed and
/// a walked plan cost here (`MPSkipEnum` wall time over each count, costing
/// table included) and how many partitions ran into `EnumConfig::max_eval`.
pub fn run() {
    let mut t = Table::new(
        "Figure 12: # of evaluated plans (all vs partition vs partition+prune)",
        &[
            "algorithm",
            "all (2^Σ|M'|)",
            "partition (Σ2^|M'i|)",
            "partition+prune",
            "walked",
            "pruned by cost",
            "pruned by structure",
            "summaries built",
            "µs / costed plan",
            "µs / walked plan",
            "capped",
        ],
    );
    for (name, dags) in algorithm_dags() {
        let c = counts(&dags);
        t.row(vec![
            name.to_string(),
            format!("{:.0}", c.all),
            format!("{:.0}", c.partition),
            c.evaluated.to_string(),
            c.walked.to_string(),
            c.pruned_cost.to_string(),
            c.pruned_structural.to_string(),
            c.summaries.to_string(),
            format!("{:.2}", c.enum_s * 1e6 / c.evaluated as f64),
            format!("{:.2}", c.enum_s * 1e6 / c.walked as f64),
            c.capped.to_string(),
        ]);
    }
    t.print();
}
