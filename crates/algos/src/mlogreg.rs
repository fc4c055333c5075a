//! Multinomial logistic regression (MLogreg, Table 2) with a Newton-CG
//! solver whose Hessian-vector product is the paper's Expression (2) —
//! the Figure 5 memo-table example:
//!
//! `Q = P[,1:k] ⊙ (X v);  H = t(X) %*% (Q − P[,1:k] ⊙ rowSums(Q))`

use crate::common::{bindv, retire, run1, update, AlgoResult, Stopwatch};
use fusedml_hop::interp::Bindings;
use fusedml_hop::{DagBuilder, HopDag};
use fusedml_linalg::ops::{self, AggDir, AggOp, BinaryOp};
use fusedml_linalg::{generate, DenseMatrix, Matrix};
use fusedml_runtime::Engine;

/// Hyper-parameters (paper Table 2: λ=1e-3, 20 outer / 10 inner iterations).
#[derive(Clone, Copy, Debug)]
pub struct MLogregConfig {
    pub classes: usize,
    pub lambda: f64,
    pub max_outer: usize,
    pub max_inner: usize,
}

impl Default for MLogregConfig {
    fn default() -> Self {
        MLogregConfig { classes: 2, lambda: 1e-3, max_outer: 20, max_inner: 10 }
    }
}

/// Probability DAG: `P = cbind(E, 1) / (rowSums(E) + 1)` with
/// `E = exp(X %*% B)` — n×k probabilities including the base class.
pub fn build_prob_dag(n: usize, m: usize, k1: usize, sp: f64) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, sp);
    let beta = b.read("B", m, k1, 1.0);
    let eta = b.mm(x, beta);
    let e = b.exp(eta);
    let rs = b.row_sums(e);
    let one = b.lit(1.0);
    let denom = b.add(rs, one);
    let ones = b.read("ones", n, 1, 1.0);
    let full = b.cbind(e, ones);
    let p = b.div(full, denom);
    b.build(vec![p])
}

/// Gradient DAG: `G = t(X) %*% (P[,1:k1] − Y) + λB`.
fn build_grad_dag(n: usize, m: usize, k1: usize, sp: f64) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, sp);
    let p = b.read("P", n, k1 + 1, 1.0);
    let y = b.read("Y", n, k1, 1.0);
    let beta = b.read("B", m, k1, 1.0);
    let lam = b.read("lambda", 1, 1, 1.0);
    let pk = b.rix(p, None, Some((0, k1)));
    let diff = b.sub(pk, y);
    let xt = b.t(x);
    let g0 = b.mm(xt, diff);
    let reg = b.mult(lam, beta);
    let g = b.add(g0, reg);
    b.build(vec![g])
}

/// The Hessian-vector product DAG — paper Expression (2) / Figure 5.
pub fn build_hvp_dag(n: usize, m: usize, k1: usize, sp: f64) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, sp);
    let p = b.read("P", n, k1 + 1, 1.0);
    let v = b.read("v", m, k1, 1.0);
    let lam = b.read("lambda", 1, 1, 1.0);
    let xv = b.mm(x, v);
    let pk = b.rix(p, None, Some((0, k1)));
    let q = b.mult(pk, xv);
    let rs = b.row_sums(q);
    let prs = b.mult(pk, rs);
    let diff = b.sub(q, prs);
    let xt = b.t(x);
    let h0 = b.mm(xt, diff);
    let reg = b.mult(lam, v);
    let h = b.add(h0, reg);
    b.build(vec![h])
}

fn frob_dot(a: &Matrix, bm: &Matrix) -> f64 {
    ops::agg(&ops::binary(a, bm, BinaryOp::Mult), AggOp::Sum, AggDir::Full).get(0, 0)
}

/// Trains MLogreg with Newton-CG (outer Newton steps, inner CG solves using
/// the fused HVP).
pub fn run(exec: &Engine, x: &Matrix, y_labels: &Matrix, cfg: &MLogregConfig) -> AlgoResult {
    // Driver-side updates/retires recycle through the engine pool.
    let _scope = exec.scope();
    let sw = Stopwatch::start();
    let (n, m) = (x.rows(), x.cols());
    let k1 = cfg.classes - 1; // #classes − 1 coefficient columns
    let sp = x.sparsity();
    let prob_dag = build_prob_dag(n, m, k1, sp);
    let grad_dag = build_grad_dag(n, m, k1, sp);
    let hvp_dag = build_hvp_dag(n, m, k1, sp);

    // One-hot Y (first k1 classes; class k is the base).
    let mut yv = vec![0.0f64; n * k1];
    for r in 0..n {
        let label = y_labels.get(r, 0) as usize;
        if label >= 1 && label <= k1 {
            yv[r * k1 + (label - 1)] = 1.0;
        }
    }
    let y = Matrix::dense(DenseMatrix::new(n, k1, yv));

    let mut bindings = Bindings::new();
    bindv(&mut bindings, "X", x.clone());
    bindv(&mut bindings, "Y", y.clone());
    bindv(&mut bindings, "ones", Matrix::dense(DenseMatrix::filled(n, 1, 1.0)));
    bindv(&mut bindings, "lambda", Matrix::dense(DenseMatrix::filled(1, 1, cfg.lambda)));

    let mut beta = Matrix::zeros(m, k1);
    let mut iters = 0;
    for _ in 0..cfg.max_outer {
        iters += 1;
        bindv(&mut bindings, "B", beta.clone());
        let p = run1(exec, &prob_dag, &bindings);
        bindv(&mut bindings, "P", p);
        let g = run1(exec, &grad_dag, &bindings);
        // CG solve H d = −g. State vectors (d, r, pdir) update in place and
        // dying intermediates return to the buffer pool, so steady-state CG
        // iterations allocate ~zero fresh memory.
        let mut d = Matrix::zeros(m, k1);
        let mut r = ops::binary_scalar(&g, -1.0, BinaryOp::Mult);
        retire(g);
        let mut pdir = r.clone();
        let mut rs_old = frob_dot(&r, &r);
        for _ in 0..cfg.max_inner {
            if rs_old < 1e-12 {
                break;
            }
            bindv(&mut bindings, "v", pdir.clone());
            let hp = run1(exec, &hvp_dag, &bindings);
            let alpha = rs_old / frob_dot(&pdir, &hp).max(1e-12);
            let step = ops::binary_scalar(&pdir, alpha, BinaryOp::Mult);
            d = update(d, &step, BinaryOp::Add);
            retire(step);
            let hstep = ops::binary_scalar(&hp, alpha, BinaryOp::Mult);
            retire(hp);
            r = update(r, &hstep, BinaryOp::Sub);
            retire(hstep);
            let rs_new = frob_dot(&r, &r);
            let beta_cg = rs_new / rs_old;
            // pdir ← r + beta·pdir, reusing the dying scaled-direction buffer.
            let pb = ops::binary_scalar(&pdir, beta_cg, BinaryOp::Mult);
            pdir = update(pb, &r, BinaryOp::Add);
            rs_old = rs_new;
        }
        retire(r);
        retire(pdir);
        let d_norm = frob_dot(&d, &d).sqrt();
        // Drop the stale model binding so `beta` is uniquely held and the
        // update really happens in place (it is re-bound next iteration).
        bindings.remove("B");
        beta = update(beta, &d, BinaryOp::Add);
        retire(d);
        if d_norm < 1e-8 {
            break;
        }
    }
    // Objective: negative log-likelihood.
    bindv(&mut bindings, "B", beta.clone());
    let p = run1(exec, &prob_dag, &bindings);
    let mut nll = 0.0;
    for r in 0..n {
        let label = y_labels.get(r, 0) as usize;
        let col = if (1..=k1).contains(&label) { label - 1 } else { k1 };
        nll -= p.get(r, col).max(1e-15).ln();
    }
    AlgoResult { seconds: sw.seconds(), iterations: iters, objective: nll, model: vec![beta] }
}

/// Synthetic MLogreg workload with `k` classes.
pub fn synthetic_data(n: usize, m: usize, k: usize, sparsity: f64, seed: u64) -> (Matrix, Matrix) {
    generate::multiclass_data(n, m, k, sparsity, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_runtime::FusionMode;

    #[test]
    fn modes_agree_on_model() {
        let (x, y) = synthetic_data(300, 12, 3, 1.0, 1);
        let cfg = MLogregConfig { classes: 3, max_outer: 3, max_inner: 4, ..Default::default() };
        let base = run(&Engine::new(FusionMode::Base), &x, &y, &cfg);
        for mode in [FusionMode::Gen, FusionMode::GenFA] {
            let r = run(&Engine::new(mode), &x, &y, &cfg);
            assert!(r.model[0].approx_eq(&base.model[0], 1e-5), "{mode:?} model diverged");
        }
    }

    /// Steady-state iterations must draw their intermediates from the buffer
    /// pool: after a warm-up run, further training runs on the same executor
    /// serve allocations from retired buffers (near-zero fresh allocation).
    #[test]
    fn steady_state_iterations_reuse_pool() {
        let (x, y) = synthetic_data(400, 16, 3, 1.0, 3);
        let cfg = MLogregConfig { classes: 3, max_outer: 2, max_inner: 4, ..Default::default() };
        let exec = Engine::new(FusionMode::Gen);
        let _ = run(&exec, &x, &y, &cfg); // warm-up: cold misses fill the pool
        let before = exec.stats().scheduler_snapshot();
        let _ = run(&exec, &x, &y, &cfg);
        let after = exec.stats().scheduler_snapshot();
        let hits = after.pool_hits - before.pool_hits;
        assert!(hits > 0, "warm iterations must hit the pool (hits {hits})");
        // Early frees are what feed the pool: the scheduler must have
        // released intermediates before their DAGs finished.
        assert!(after.bytes_freed_early > 0);
    }

    #[test]
    fn training_reduces_nll() {
        let (x, y) = synthetic_data(400, 10, 2, 1.0, 2);
        let exec = Engine::new(FusionMode::Gen);
        let short =
            run(&exec, &x, &y, &MLogregConfig { max_outer: 1, max_inner: 2, ..Default::default() });
        let long =
            run(&exec, &x, &y, &MLogregConfig { max_outer: 6, max_inner: 5, ..Default::default() });
        assert!(long.objective <= short.objective + 1e-9);
    }
}
