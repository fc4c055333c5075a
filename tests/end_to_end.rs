#![allow(clippy::disallowed_methods)] // test/example code may unwrap freely
//! Cross-crate integration tests: the full pipeline from DAG construction
//! through optimization, code generation, and execution, validated against
//! the reference interpreter for every fusion mode.

use fusedml::core::FusionMode;
use fusedml::hop::interp::bind;
use fusedml::hop::DagBuilder;
use fusedml::linalg::generate;
use fusedml::runtime::Engine;

const ALL_MODES: [FusionMode; 5] =
    [FusionMode::Base, FusionMode::Fused, FusionMode::Gen, FusionMode::GenFA, FusionMode::GenFNR];

/// Paper Figure 1(a): sum(X⊙Y⊙Z).
#[test]
fn fig1a_cell_chain_all_modes() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 300, 200, 1.0);
    let y = b.read("Y", 300, 200, 1.0);
    let z = b.read("Z", 300, 200, 1.0);
    let m1 = b.mult(x, y);
    let m2 = b.mult(m1, z);
    let s = b.sum(m2);
    let dag = b.build(vec![s]);
    let bindings = bind(&[
        ("X", generate::rand_dense(300, 200, -1.0, 1.0, 1)),
        ("Y", generate::rand_dense(300, 200, -1.0, 1.0, 2)),
        ("Z", generate::rand_dense(300, 200, -1.0, 1.0, 3)),
    ]);
    let expect = Engine::new(FusionMode::Base).execute(&dag, &bindings)[0].as_scalar();
    for mode in ALL_MODES {
        let got = Engine::new(mode).execute(&dag, &bindings)[0].as_scalar();
        assert!(fusedml::linalg::approx_eq(got, expect, 1e-9), "{mode:?}");
    }
}

/// Paper Figure 1(b): X^T(Xv) single-pass.
#[test]
fn fig1b_mv_chain_all_modes() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 1_000, 100, 1.0);
    let v = b.read("v", 100, 1, 1.0);
    let xv = b.mm(x, v);
    let xt = b.t(x);
    let out = b.mm(xt, xv);
    let dag = b.build(vec![out]);
    let bindings = bind(&[
        ("X", generate::rand_dense(1_000, 100, -1.0, 1.0, 4)),
        ("v", generate::rand_dense(100, 1, -1.0, 1.0, 5)),
    ]);
    let expect = Engine::new(FusionMode::Base).execute(&dag, &bindings)[0].as_matrix();
    for mode in ALL_MODES {
        let got = Engine::new(mode).execute(&dag, &bindings)[0].as_matrix();
        assert!(got.approx_eq(&expect, 1e-9), "{mode:?}");
    }
}

/// Paper Figure 1(c): multi-aggregates with shared inputs.
#[test]
fn fig1c_multi_aggregates_all_modes() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 400, 150, 1.0);
    let y = b.read("Y", 400, 150, 1.0);
    let xsq = b.sq(x);
    let s1 = b.sum(xsq);
    let xy = b.mult(x, y);
    let s2 = b.sum(xy);
    let ysq = b.sq(y);
    let s3 = b.sum(ysq);
    let dag = b.build(vec![s1, s2, s3]);
    let bindings = bind(&[
        ("X", generate::rand_dense(400, 150, -1.0, 1.0, 6)),
        ("Y", generate::rand_dense(400, 150, -1.0, 1.0, 7)),
    ]);
    let expect: Vec<f64> = Engine::new(FusionMode::Base)
        .execute(&dag, &bindings)
        .iter()
        .map(|v| v.as_scalar())
        .collect();
    for mode in ALL_MODES {
        let got: Vec<f64> =
            Engine::new(mode).execute(&dag, &bindings).iter().map(|v| v.as_scalar()).collect();
        for (g, e) in got.iter().zip(&expect) {
            assert!(fusedml::linalg::approx_eq(*g, *e, 1e-9), "{mode:?}");
        }
    }
}

/// Paper Figure 1(d): sparsity exploitation across operations.
#[test]
fn fig1d_outer_loss_all_modes() {
    let (n, m, r) = (500, 400, 10);
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, 0.02);
    let u = b.read("U", n, r, 1.0);
    let v = b.read("V", m, r, 1.0);
    let vt = b.t(v);
    let uvt = b.mm(u, vt);
    let eps = b.lit(1e-15);
    let plus = b.add(uvt, eps);
    let lg = b.log(plus);
    let prod = b.mult(x, lg);
    let s = b.sum(prod);
    let dag = b.build(vec![s]);
    let bindings = bind(&[
        ("X", generate::rand_matrix(n, m, 1.0, 5.0, 0.02, 8)),
        ("U", generate::rand_dense(n, r, 0.1, 1.0, 9)),
        ("V", generate::rand_dense(m, r, 0.1, 1.0, 10)),
    ]);
    let expect = Engine::new(FusionMode::Base).execute(&dag, &bindings)[0].as_scalar();
    for mode in ALL_MODES {
        let got = Engine::new(mode).execute(&dag, &bindings)[0].as_scalar();
        assert!(fusedml::linalg::approx_eq(got, expect, 1e-9), "{mode:?}");
    }
}

/// Gen plans must never be slower than necessary in operator count: the
/// cell chain collapses to exactly one fused operator and zero basic ops.
#[test]
fn gen_operator_counts() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 300, 300, 1.0);
    let y = b.read("Y", 300, 300, 1.0);
    let m = b.mult(x, y);
    let e = b.exp(m);
    let s = b.sum(e);
    let dag = b.build(vec![s]);
    let bindings = bind(&[
        ("X", generate::rand_dense(300, 300, -1.0, 1.0, 11)),
        ("Y", generate::rand_dense(300, 300, -1.0, 1.0, 12)),
    ]);
    let exec = Engine::new(FusionMode::Gen);
    let _ = exec.execute(&dag, &bindings);
    let (fused, _, basic) = exec.stats().snapshot();
    assert_eq!(fused, 1, "one fused operator covers the whole chain");
    assert_eq!(basic, 0, "no basic operators remain");
}

/// The compressed path: CLA sum(X^2) equals uncompressed execution.
#[test]
fn cla_integration() {
    let x = fusedml::linalg::generate::airline_like(5_000, 10, 12, 13);
    let cm = fusedml::cla::compress(&x);
    assert!(cm.compression_ratio() > 2.0);
    let ula = fusedml::linalg::ops::agg(
        &x,
        fusedml::linalg::ops::AggOp::SumSq,
        fusedml::linalg::ops::AggDir::Full,
    )
    .get(0, 0);
    let cla = fusedml::cla::ops::sum_sq(&cm);
    assert!(fusedml::linalg::approx_eq(ula, cla, 1e-9));
}
