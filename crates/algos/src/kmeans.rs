//! K-Means clustering via Lloyd's algorithm (Table 2: 1 run, k=5).
//!
//! The distance DAG `D = rowSums(X^2) − 2·X%*%t(C) + rowSums(C^2)'` with the
//! assignment indicator `A = (D == rowMins(D))` is the hybrid workload of
//! Figure 13(b): memory-bound for small k, compute-bound as k grows.

use crate::common::{bindv, retire, run1, AlgoResult, Stopwatch};
use fusedml_hop::interp::Bindings;
use fusedml_hop::{DagBuilder, HopDag};
use fusedml_linalg::ops::{AggDir, AggOp, BinaryOp};
use fusedml_linalg::{generate, simd, DenseMatrix, Matrix};
use fusedml_runtime::Engine;

/// Hyper-parameters (paper Table 2: ε=1e-12, 20 iterations, k centroids).
#[derive(Clone, Copy, Debug)]
pub struct KMeansConfig {
    pub k: usize,
    pub max_iter: usize,
    pub epsilon: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig { k: 5, max_iter: 20, epsilon: 1e-12 }
    }
}

/// Per-iteration DAG: assignment matrix `A`, within-cluster sum of squares,
/// and the new centroid numerator `t(A) %*% X` plus counts `colSums(A)`.
pub fn build_iter_dag(n: usize, m: usize, k: usize, sp: f64) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, sp);
    let c = b.read("C", k, m, 1.0);
    // D = −2·X%*%t(C) + rowSums(C^2)'  (row norms of X constant for argmin)
    let ct = b.t(c);
    let xc = b.mm(x, ct);
    let neg2 = b.lit(-2.0);
    let xc2 = b.mult(xc, neg2);
    let csq = b.sq(c);
    let cn = b.agg(AggOp::Sum, AggDir::Row, csq); // k×1
    let cnt = b.t(cn); // 1×k row vector
    let d = b.add(xc2, cnt);
    // A = (D == rowMins(D)) — ties broken later by normalization.
    let dmin = b.agg(AggOp::Min, AggDir::Row, d);
    let a = b.binary(BinaryOp::Eq, d, dmin);
    // wcss partial: sum(rowMins(D))
    let wcss = b.sum(dmin);
    // centroid update pieces
    let at = b.t(a);
    let num = b.mm(at, x); // k×m
    let counts = b.col_sums(a); // 1×k
    b.build(vec![a, wcss, num, counts])
}

/// Runs Lloyd's algorithm from a deterministic sample initialization.
pub fn run(exec: &Engine, x: &Matrix, cfg: &KMeansConfig) -> AlgoResult {
    // Driver-side updates/retires recycle through the engine pool.
    let _scope = exec.scope();
    let sw = Stopwatch::start();
    let (n, m) = (x.rows(), x.cols());
    let dag = build_iter_dag(n, m, cfg.k, x.sparsity());
    // Initialize centroids from evenly spaced rows.
    let mut cvals = Vec::with_capacity(cfg.k * m);
    for i in 0..cfg.k {
        let r = i * n / cfg.k;
        for c in 0..m {
            cvals.push(x.get(r, c));
        }
    }
    let mut centroids = Matrix::dense(DenseMatrix::new(cfg.k, m, cvals));
    let mut bindings = Bindings::new();
    bindv(&mut bindings, "X", x.clone());
    let mut wcss = f64::INFINITY;
    let mut iters = 0;
    for _ in 0..cfg.max_iter {
        iters += 1;
        bindv(&mut bindings, "C", centroids.clone());
        let mut outs = exec.execute(&dag, &bindings).into_values();
        let counts = outs.pop().expect("counts root").into_matrix();
        let num = outs.pop().expect("numerator root").into_matrix();
        let new_wcss = outs.pop().expect("wcss root").as_scalar();
        // The assignment matrix is only an explain/debug output: recycle it.
        outs.pop().expect("assignment root").recycle();
        // Normalize in place: the numerator root is uniquely owned, so its
        // buffer becomes the new centroid matrix without a copy.
        let mut cv = match num.try_into_dense() {
            Ok(d) => d.into_values(),
            Err(m) => m.to_dense().into_values(),
        };
        for ki in 0..cfg.k {
            let cnt = counts.get(0, ki).max(1.0);
            for c in 0..m {
                cv[ki * m + c] /= cnt;
            }
        }
        retire(counts);
        centroids = Matrix::dense(DenseMatrix::new(cfg.k, m, cv));
        if (wcss - new_wcss).abs() < cfg.epsilon * wcss.abs().max(1.0) {
            wcss = new_wcss;
            break;
        }
        wcss = new_wcss;
    }
    // Full WCSS including the constant X term for reporting.
    let xsq = sum_sq(x);
    let _ = run1; // (single-root helper unused here)
    AlgoResult {
        seconds: sw.seconds(),
        iterations: iters,
        objective: wcss + xsq,
        model: vec![centroids],
    }
}

/// `sum(X^2)` over the stored values (a CSR matrix's unstored cells add
/// nothing), without a squared copy of `X`.
fn sum_sq(x: &Matrix) -> f64 {
    match x {
        Matrix::Dense(d) => simd::sum_sq(d.values()),
        Matrix::Sparse(s) => simd::sum_sq(s.values()),
    }
}

/// Synthetic clustered data.
pub fn synthetic_data(n: usize, m: usize, sparsity: f64, seed: u64) -> Matrix {
    generate::rand_matrix(n, m, 0.0, 1.0, sparsity, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_linalg::ops;
    use fusedml_runtime::FusionMode;

    #[test]
    fn modes_agree_on_centroids() {
        let x = synthetic_data(400, 8, 1.0, 11);
        let cfg = KMeansConfig { k: 4, max_iter: 5, ..Default::default() };
        let base = run(&Engine::new(FusionMode::Base), &x, &cfg);
        for mode in [FusionMode::Gen, FusionMode::GenFA, FusionMode::GenFNR] {
            let r = run(&Engine::new(mode), &x, &cfg);
            assert!(r.model[0].approx_eq(&base.model[0], 1e-6), "{mode:?}");
        }
    }

    /// The reporting term equals the formula it replaced, `sum(X^2)` over a
    /// squared copy, on a dense and on a CSR input.
    #[test]
    fn sum_sq_is_the_sum_of_the_squared_copy() {
        let (dense, csr) = (synthetic_data(300, 7, 1.0, 17), synthetic_data(300, 7, 0.2, 18));
        assert!(matches!((&dense, &csr), (Matrix::Dense(_), Matrix::Sparse(_))));
        for x in [dense, csr] {
            let squared = ops::unary(&x, fusedml_linalg::ops::UnaryOp::Pow2);
            let want = ops::agg(&squared, AggOp::Sum, AggDir::Full).get(0, 0);
            let got = sum_sq(&x);
            assert!((got - want).abs() <= 1e-12 * want.abs(), "{got} vs {want}");
        }
    }

    #[test]
    fn wcss_decreases_with_iterations() {
        let x = synthetic_data(600, 6, 1.0, 13);
        let exec = Engine::new(FusionMode::Gen);
        let one = run(&exec, &x, &KMeansConfig { k: 5, max_iter: 1, ..Default::default() });
        let ten = run(&exec, &x, &KMeansConfig { k: 5, max_iter: 10, ..Default::default() });
        assert!(ten.objective <= one.objective + 1e-6);
    }
}
