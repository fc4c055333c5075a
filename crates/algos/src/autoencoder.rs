//! Two-layer autoencoder with mini-batch SGD (Table 2: |batch|=512,
//! H1=500, H2=2, scaled down by the harness) — the dense compute-intensive
//! workload of Table 5.
//!
//! Forward/backward bodies are per-batch DAGs: sigmoid activations, `sprop`
//! derivative chains (Cell fusion), and dense matrix multiplies.

use crate::common::{bindv, AlgoResult, Stopwatch};
use fusedml_hop::interp::Bindings;
use fusedml_hop::{DagBuilder, HopDag};
use fusedml_linalg::ops::{self, BinaryOp, UnaryOp};
use fusedml_linalg::{generate, Matrix};
use fusedml_runtime::Engine;

/// Hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct AeConfig {
    pub h1: usize,
    pub h2: usize,
    pub batch: usize,
    pub epochs: usize,
    pub step: f64,
}

impl Default for AeConfig {
    fn default() -> Self {
        AeConfig { h1: 64, h2: 2, batch: 512, epochs: 1, step: 0.1 }
    }
}

/// Builds the per-batch forward+backward DAG. Outputs: loss, dW1..dW4.
/// Architecture: X → sigmoid(XW1) → sigmoid(H1W2) → sigmoid(H2W3) →
/// (H3W4 = X̂), squared reconstruction error.
pub fn build_batch_dag(bsz: usize, m: usize, h1: usize, h2: usize) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("Xb", bsz, m, 1.0);
    let w1 = b.read("W1", m, h1, 1.0);
    let w2 = b.read("W2", h1, h2, 1.0);
    let w3 = b.read("W3", h2, h1, 1.0);
    let w4 = b.read("W4", h1, m, 1.0);
    // Forward.
    let a1 = b.mm(x, w1);
    let z1 = b.sigmoid(a1);
    let a2 = b.mm(z1, w2);
    let z2 = b.sigmoid(a2);
    let a3 = b.mm(z2, w3);
    let z3 = b.sigmoid(a3);
    let xhat = b.mm(z3, w4);
    // Loss: 0.5·sum((X̂ − X)^2) / bsz
    let diff = b.sub(xhat, x);
    let sq = b.sq(diff);
    let se = b.sum(sq);
    let scale = b.lit(0.5 / bsz as f64);
    let loss = b.mult(scale, se);
    // Backward (sprop chains: z ⊙ (1 − z) fused Cell patterns).
    let dscale = b.lit(1.0 / bsz as f64);
    let dxhat = b.mult(diff, dscale);
    let z3t = b.t(z3);
    let dw4 = b.mm(z3t, dxhat);
    let w4t = b.t(w4);
    let dz3 = b.mm(dxhat, w4t);
    let s3 = b.unary(UnaryOp::Sprop, z3);
    let da3 = b.mult(dz3, s3);
    let z2t = b.t(z2);
    let dw3 = b.mm(z2t, da3);
    let w3t = b.t(w3);
    let dz2 = b.mm(da3, w3t);
    let s2 = b.unary(UnaryOp::Sprop, z2);
    let da2 = b.mult(dz2, s2);
    let z1t = b.t(z1);
    let dw2 = b.mm(z1t, da2);
    let w2t = b.t(w2);
    let dz1 = b.mm(da2, w2t);
    let s1 = b.unary(UnaryOp::Sprop, z1);
    let da1 = b.mult(dz1, s1);
    let xt = b.t(x);
    let dw1 = b.mm(xt, da1);
    b.build(vec![loss, dw1, dw2, dw3, dw4])
}

/// Trains the autoencoder for `epochs` passes of mini-batches.
pub fn run(exec: &Engine, x: &Matrix, cfg: &AeConfig) -> AlgoResult {
    // Driver-side updates/retires recycle through the engine pool.
    let _scope = exec.scope();
    let sw = Stopwatch::start();
    let (n, m) = (x.rows(), x.cols());
    let bsz = cfg.batch.min(n);
    let dag = build_batch_dag(bsz, m, cfg.h1, cfg.h2);
    let mut w1 = generate::rand_dense(m, cfg.h1, -0.1, 0.1, 0xae1);
    let mut w2 = generate::rand_dense(cfg.h1, cfg.h2, -0.1, 0.1, 0xae2);
    let mut w3 = generate::rand_dense(cfg.h2, cfg.h1, -0.1, 0.1, 0xae3);
    let mut w4 = generate::rand_dense(cfg.h1, m, -0.1, 0.1, 0xae4);
    let mut bindings = Bindings::new();
    let n_batches = n / bsz;
    let mut loss = f64::INFINITY;
    let mut iters = 0;
    for _ in 0..cfg.epochs {
        for bi in 0..n_batches.max(1) {
            iters += 1;
            let lo = bi * bsz;
            let xb = ops::index_range(x, lo..lo + bsz, 0..m);
            bindv(&mut bindings, "Xb", xb);
            bindv(&mut bindings, "W1", w1.clone());
            bindv(&mut bindings, "W2", w2.clone());
            bindv(&mut bindings, "W3", w3.clone());
            bindv(&mut bindings, "W4", w4.clone());
            let outs = exec.execute(&dag, &bindings);
            loss = outs[0].as_scalar();
            let upd = |w: &Matrix, g: &Matrix| {
                let s = ops::binary_scalar(g, cfg.step, BinaryOp::Mult);
                ops::binary(w, &s, BinaryOp::Sub)
            };
            w1 = upd(&w1, &outs[1].as_matrix());
            w2 = upd(&w2, &outs[2].as_matrix());
            w3 = upd(&w3, &outs[3].as_matrix());
            w4 = upd(&w4, &outs[4].as_matrix());
        }
    }
    AlgoResult {
        seconds: sw.seconds(),
        iterations: iters,
        objective: loss,
        model: vec![w1, w2, w3, w4],
    }
}

/// Synthetic dense input (Mnist1m-like scaled).
pub fn synthetic_data(n: usize, m: usize, seed: u64) -> Matrix {
    generate::rand_dense(n, m, 0.0, 1.0, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_runtime::FusionMode;

    #[test]
    fn modes_agree_on_loss() {
        let x = synthetic_data(256, 20, 1);
        let cfg = AeConfig { h1: 16, h2: 2, batch: 128, epochs: 1, step: 0.05 };
        let base = run(&Engine::new(FusionMode::Base), &x, &cfg);
        for mode in [FusionMode::Gen, FusionMode::GenFA] {
            let r = run(&Engine::new(mode), &x, &cfg);
            assert!(
                fusedml_linalg::approx_eq(r.objective, base.objective, 1e-6),
                "{mode:?}: {} vs {}",
                r.objective,
                base.objective
            );
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let x = synthetic_data(512, 16, 2);
        let exec = Engine::new(FusionMode::Gen);
        let one = run(&exec, &x, &AeConfig { epochs: 1, batch: 128, h1: 12, h2: 2, step: 0.2 });
        let five = run(&exec, &x, &AeConfig { epochs: 5, batch: 128, h1: 12, h2: 2, step: 0.2 });
        assert!(five.objective < one.objective);
    }
}
