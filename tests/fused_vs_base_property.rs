#![allow(clippy::disallowed_methods)] // test/example code may unwrap freely
//! Property test: fused execution must equal unfused execution on randomly
//! generated DAGs of cell-wise operations, aggregates, and matrix products,
//! on the algorithm DAGs whose Row operators run `VecMatMult` and outer
//! accumulations a tile of rows at a time, and on the Fig. 8(b)/(d) products
//! of three CSR inputs, whose sides the Cell and MAgg operators read from a
//! scattered row. DAGs that return an intermediate their fused consumers also
//! read must match `Base` bitwise, and compute that intermediate once.

use common::assert_roots_bitwise;
use fusedml::algos::{autoencoder, kmeans, mlogreg};
use fusedml::core::FusionMode;
use fusedml::hop::interp::Bindings;
use fusedml::hop::{DagBuilder, HopDag, HopId};
use fusedml::linalg::matrix::Value;
use fusedml::linalg::{generate, DenseMatrix, Matrix, SparseMatrix};
use fusedml::runtime::Engine;
use proptest::prelude::*;

#[path = "../crates/runtime/tests/common/mod.rs"]
mod common;

/// A random cell-wise expression over three inputs, closed by a full sum.
#[derive(Debug, Clone)]
struct RandomExpr {
    ops: Vec<u8>,
    rows: usize,
    cols: usize,
}

fn expr_strategy() -> impl Strategy<Value = RandomExpr> {
    (proptest::collection::vec(0u8..6, 1..8), 16usize..64, 8usize..32)
        .prop_map(|(ops, rows, cols)| RandomExpr { ops, rows, cols })
}

/// `e` closed by `sum(cur)` and `sum(rowSums(cur))`; with `output`, the
/// intermediate `cur` is returned as well.
fn build(e: &RandomExpr, output: bool) -> (fusedml::hop::HopDag, Bindings) {
    let mut b = DagBuilder::new();
    let x = b.read("X", e.rows, e.cols, 1.0);
    let y = b.read("Y", e.rows, e.cols, 1.0);
    let v = b.read("v", e.rows, 1, 1.0);
    let mut cur: HopId = x;
    for &op in &e.ops {
        cur = match op {
            0 => b.mult(cur, y),
            1 => b.add(cur, y),
            2 => b.sub(cur, v), // col-vector broadcast
            3 => b.abs(cur),
            4 => b.sq(cur),
            _ => {
                let c = b.lit(1.5);
                b.mult(cur, c)
            }
        };
    }
    let s = b.sum(cur);
    let rs = b.row_sums(cur);
    let s2 = b.sum(rs);
    let dag = b.build(if output { vec![cur, s, s2] } else { vec![s, s2] });
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(e.rows, e.cols, -1.0, 1.0, 1));
    bindings.insert("Y".into(), generate::rand_dense(e.rows, e.cols, -1.0, 1.0, 2));
    bindings.insert("v".into(), generate::rand_dense(e.rows, 1, -1.0, 1.0, 3));
    (dag, bindings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_equals_unfused_on_random_dags(e in expr_strategy()) {
        let (dag, bindings) = build(&e, false);
        let expect: Vec<f64> = Engine::new(FusionMode::Base)
            .execute(&dag, &bindings)
            .iter()
            .map(|x| x.as_scalar())
            .collect();
        for mode in [FusionMode::Gen, FusionMode::GenFA, FusionMode::GenFNR] {
            let got: Vec<f64> = Engine::new(mode)
                .execute(&dag, &bindings)
                .iter()
                .map(|x| x.as_scalar())
                .collect();
            for (g, x) in got.iter().zip(&expect) {
                prop_assert!(
                    fusedml::linalg::approx_eq(*g, *x, 1e-7),
                    "{mode:?}: {g} vs {x} (ops {:?})", e.ops
                );
            }
        }
    }

    /// The intermediate is an output its fused consumers also read: `Gen`
    /// materializes it once, bitwise `Base`'s; the sums over it reassociate.
    #[test]
    fn gen_equals_base_bitwise_when_an_output_is_also_consumed(e in expr_strategy()) {
        let (dag, bindings) = build(&e, true);
        let (expect, base_ops) = run(FusionMode::Base, &dag, &bindings);
        let (got, gen_ops) = run(FusionMode::Gen, &dag, &bindings);
        assert_roots_bitwise(&got[..1], &expect[..1], &format!("ops {:?}", e.ops));
        for (g, x) in got[1..].iter().zip(&expect[1..]) {
            let (g, x) = (g.as_scalar(), x.as_scalar());
            prop_assert!(fusedml::linalg::approx_eq(g, x, 1e-7), "{g} vs {x} (ops {:?})", e.ops);
        }
        prop_assert!(gen_ops <= base_ops, "Gen runs {gen_ops} operators, Base {base_ops}");
    }
}

/// Executes `dag` once under `mode`: the roots and how many operators ran.
fn run(mode: FusionMode, dag: &HopDag, bindings: &Bindings) -> (Vec<Value>, usize) {
    let engine = Engine::new(mode);
    let out = engine.execute(dag, bindings).into_values();
    let (fused, handcoded, basic) = engine.stats().snapshot();
    (out, fused + handcoded + basic)
}

/// The serving scorer (`S = X W` is an output, `rowMaxs(S)` reads it) and
/// MLogreg's probability DAG (`exp(X B)` feeds the unfusible `cbind` and a
/// fused `rowSums`): `Gen` matches `Base` bitwise. On the scorer every fused
/// operator `Gen` runs replaces at least two of `Base`'s, which a plan that
/// recomputes `X W` inside `rowMaxs` does not.
#[test]
fn gen_computes_an_output_its_consumers_read_once() {
    let mut b = DagBuilder::new();
    let x = b.read("X", 64, 128, 1.0);
    let w = b.read("W", 128, 10, 1.0);
    let s = b.mm(x, w);
    let best = b.row_maxs(s);
    let scorer = b.build(vec![s, best]);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(64, 128, -1.0, 1.0, 41));
    bindings.insert("W".into(), generate::rand_dense(128, 10, -0.5, 0.5, 42));
    let (expect, base_ops) = run(FusionMode::Base, &scorer, &bindings);
    let engine = Engine::new(FusionMode::Gen);
    let got = engine.execute(&scorer, &bindings).into_values();
    assert_roots_bitwise(&got, &expect, "scorer");
    let (fused, handcoded, basic) = engine.stats().snapshot();
    assert!(
        fused + handcoded + basic + fused <= base_ops,
        "scorer: Gen runs {fused} fused and {basic} basic operators, Base {base_ops}:\n{}",
        engine.compile(&scorer).explain()
    );

    let (n, m, k1) = (TILE_RAGGED_ROWS, 23, 3);
    let prob = mlogreg::build_prob_dag(n, m, k1, 1.0);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(n, m, -1.0, 1.0, 43));
    bindings.insert("B".into(), generate::rand_dense(m, k1, -0.5, 0.5, 44));
    bindings.insert("ones".into(), Matrix::dense(DenseMatrix::filled(n, 1, 1.0)));
    let (expect, _) = run(FusionMode::Base, &prob, &bindings);
    let (got, _) = run(FusionMode::Gen, &prob, &bindings);
    assert_roots_bitwise(&got, &expect, "mlogreg probabilities");
}

/// Rows of the algorithm cases: two full Row tiles (16 rows each — 8 and 4
/// divide it, should the height move) and a ragged tail of three.
const TILE_RAGGED_ROWS: usize = 2 * 16 + 3;

/// The KMeans distance/update DAG (k = 5), the MLogreg Hessian-vector DAG
/// with its `Q`/`H` pair (k = 3, sparse `X`) and an AutoEncoder batch DAG.
fn tiled_row_cases() -> Vec<(&'static str, HopDag, Bindings)> {
    let n = TILE_RAGGED_ROWS;
    let bind = |pairs: Vec<(&str, fusedml::linalg::Matrix)>| {
        let mut b = Bindings::new();
        for (name, m) in pairs {
            b.insert(name.into(), m);
        }
        b
    };
    let (m, k, k1, h1, h2) = (23, 5, 3, 9, 2);
    let x_sparse = generate::rand_matrix(n, m, -1.0, 1.0, 0.25, 11);
    assert!(x_sparse.is_sparse());
    vec![
        (
            "kmeans",
            kmeans::build_iter_dag(n, m, k, 1.0),
            bind(vec![
                ("X", generate::rand_dense(n, m, 0.0, 1.0, 1)),
                ("C", generate::rand_dense(k, m, 0.0, 1.0, 2)),
            ]),
        ),
        (
            "mlogreg_hvp",
            mlogreg::build_hvp_dag(n, m, k1, 0.25),
            bind(vec![
                ("X", x_sparse),
                ("P", generate::rand_dense(n, k1 + 1, 0.05, 0.3, 12)),
                ("v", generate::rand_dense(m, k1, -1.0, 1.0, 13)),
                ("lambda", generate::rand_dense(1, 1, 0.4, 0.6, 14)),
            ]),
        ),
        (
            "autoencoder",
            autoencoder::build_batch_dag(n, m, h1, h2),
            bind(vec![
                ("Xb", generate::rand_dense(n, m, 0.0, 1.0, 21)),
                ("W1", generate::rand_dense(m, h1, -0.5, 0.5, 22)),
                ("W2", generate::rand_dense(h1, h2, -0.5, 0.5, 23)),
                ("W3", generate::rand_dense(h2, h1, -0.5, 0.5, 24)),
                ("W4", generate::rand_dense(h1, m, -0.5, 0.5, 25)),
            ]),
        ),
    ]
}

#[test]
fn fused_equals_unfused_on_tiled_row_algorithm_dags() {
    for (name, dag, bindings) in tiled_row_cases() {
        let expect = Engine::new(FusionMode::Base).execute(&dag, &bindings).into_values();
        for mode in [FusionMode::Gen, FusionMode::GenFA, FusionMode::GenFNR] {
            let engine = Engine::new(mode);
            let out = engine.execute(&dag, &bindings);
            // Every case has a `VecMatMult` or an outer accumulation, which
            // the Row skeleton reports as its tile class.
            assert!(engine.stats().mono_snapshot().0 > 0, "{name} {mode:?}: no tiled Row operator");
            for (i, (g, x)) in out.values().iter().zip(&expect).enumerate() {
                assert!(
                    g.as_matrix().approx_eq(&x.as_matrix(), 1e-7),
                    "{name} {mode:?}: root {i} diverges from Base"
                );
            }
        }
    }
}

/// Every aggregate in every direction over a Row-fused input, `exp(X W)`
/// (n×5) and `exp(X v)` (one scalar per row): `Gen` matches `Base`. A Row
/// operator's column and full outputs add rows up, so a `Min`, `Max` or
/// `Mean` across rows stays out of it, and a per-row scalar's `SumSq`
/// squares it.
#[test]
fn fused_equals_unfused_on_every_row_aggregate() {
    use fusedml::linalg::ops::{AggDir, AggOp};
    let (n, m) = (TILE_RAGGED_ROWS, 23);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(n, m, -0.3, 0.3, 51));
    bindings.insert("W".into(), generate::rand_dense(m, 5, -0.5, 0.5, 52));
    bindings.insert("v".into(), generate::rand_dense(m, 1, -0.5, 0.5, 53));
    for side in ["W", "v"] {
        for op in [AggOp::Sum, AggOp::SumSq, AggOp::Min, AggOp::Max, AggOp::Mean] {
            for dir in [AggDir::Row, AggDir::Col, AggDir::Full] {
                let mut b = DagBuilder::new();
                let x = b.read("X", n, m, 1.0);
                let w = b.read(side, m, if side == "W" { 5 } else { 1 }, 1.0);
                let xw = b.mm(x, w);
                let e = b.exp(xw);
                let a = b.agg(op, dir, e);
                let dag = b.build(vec![a]);
                let (expect, _) = run(FusionMode::Base, &dag, &bindings);
                let (got, _) = run(FusionMode::Gen, &dag, &bindings);
                assert!(
                    got[0].as_matrix().approx_eq(&expect[0].as_matrix(), 1e-9),
                    "{op:?} {dir:?} over exp(X %*% {side})"
                );
            }
        }
    }
}

/// `colMins`, `colMaxs`, `colMeans` and the full `min`, `max` and `mean` of
/// `exp(X %*% W)`: aggregates across rows that no Row operator computes. The
/// Row template refuses them by the rule Row construction rejects them by,
/// so the optimizer costs plans that exist: `Gen` fuses at least one
/// operator (a Row plan it could not build used to drop the whole sub-DAG
/// to three basic operators) and matches `Base`.
#[test]
fn aggregates_across_rows_without_a_row_form_still_fuse() {
    use fusedml::linalg::ops::{AggDir, AggOp};
    let (n, m) = (200, 30);
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), generate::rand_dense(n, m, -0.3, 0.3, 61));
    bindings.insert("W".into(), generate::rand_dense(m, 5, -0.5, 0.5, 62));
    for op in [AggOp::Min, AggOp::Max, AggOp::Mean] {
        for dir in [AggDir::Col, AggDir::Full] {
            let mut b = DagBuilder::new();
            let x = b.read("X", n, m, 1.0);
            let w = b.read("W", m, 5, 1.0);
            let xw = b.mm(x, w);
            let e = b.exp(xw);
            let a = b.agg(op, dir, e);
            let dag = b.build(vec![a]);
            let (expect, _) = run(FusionMode::Base, &dag, &bindings);
            let engine = Engine::new(FusionMode::Gen);
            let got = engine.execute(&dag, &bindings).into_values();
            let (fused, _, _) = engine.stats().snapshot();
            assert!(fused >= 1, "{op:?} {dir:?} of exp(X %*% W): no fused operator under Gen");
            assert!(
                got[0].as_matrix().approx_eq(&expect[0].as_matrix(), 1e-9),
                "{op:?} {dir:?} of exp(X %*% W)"
            );
        }
    }
}

/// `sum(X ⊙ Y ⊙ Z)` and `sum(X ⊙ Y), sum(X ⊙ Z)` over three CSR inputs: `Y`
/// and `Z` are bound as sparse `Cell` sides, gathered from their scattered
/// rows. `X` alternates rows of two cells with full rows of three tiles.
#[test]
fn fused_equals_unfused_on_three_csr_inputs() {
    let (rows, cols) = (40, 600);
    let values = generate::rand_dense(rows, cols, 0.5, 1.5, 31);
    let mut triples = Vec::new();
    for r in 0..rows {
        for c in (0..cols).filter(|&c| r % 2 == 1 || c == 7 || c == cols - 7) {
            triples.push((r, c, values.get(r, c)));
        }
    }
    let x = Matrix::sparse(SparseMatrix::from_triples(rows, cols, triples));
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), x);
    bindings.insert("Y".into(), generate::rand_matrix(rows, cols, -1.0, 1.0, 0.1, 32));
    bindings.insert("Z".into(), generate::rand_matrix(rows, cols, -1.0, 1.0, 0.4, 33));
    assert!(bindings.values().all(Matrix::is_sparse));

    let mut b = DagBuilder::new();
    let [x, y, z] = ["X", "Y", "Z"].map(|name| b.read(name, rows, cols, 0.1));
    let (xy, xz) = (b.mult(x, y), b.mult(x, z));
    let xyz = b.mult(xy, z);
    let roots = vec![b.sum(xyz), b.sum(xy), b.sum(xz)];
    let dag = b.build(roots);

    let expect = Engine::new(FusionMode::Base).execute(&dag, &bindings).into_values();
    for mode in [FusionMode::Gen, FusionMode::GenFA, FusionMode::GenFNR] {
        let engine = Engine::new(mode);
        let out = engine.execute(&dag, &bindings);
        assert!(engine.stats().snapshot().0 > 0, "{mode:?}: nothing fused");
        for (i, (g, x)) in out.values().iter().zip(&expect).enumerate() {
            assert!(
                fusedml::linalg::approx_eq(g.as_scalar(), x.as_scalar(), 1e-7),
                "{mode:?}: root {i} is {} where Base has {}",
                g.as_scalar(),
                x.as_scalar()
            );
        }
    }
}

/// `Base`'s element-wise kernels on the arms that read a CSR right operand:
/// `|X ⊙ Y|` and `(X ⊙ v)²` over a CSR `X` run the sparse-left driver for
/// the product (a cellwise CSR `Y` walked alongside each row of `X`, a
/// broadcast CSR column), and `D² + Y`, `D²` a dense intermediate that dies
/// there, runs `binary_assign` in place with a cellwise CSR operand. `X` has
/// empty rows and cells `Y` misses; `Gen` fuses each root into one operator
/// and must match bitwise.
#[test]
fn fused_equals_unfused_on_csr_right_operands() {
    let (rows, cols) = (37, 45);
    let x = generate::rand_matrix(rows, cols, -1.0, 1.0, 0.2, 51);
    let x = {
        let xs = x.as_sparse();
        let triples = (0..rows)
            .filter(|r| r % 5 != 2)
            .flat_map(|r| xs.row_iter(r).map(move |(c, v)| (r, c, v)))
            .collect();
        Matrix::sparse(SparseMatrix::from_triples(rows, cols, triples))
    };
    let mut bindings = Bindings::new();
    bindings.insert("X".into(), x);
    bindings.insert("Y".into(), generate::rand_matrix(rows, cols, -1.0, 1.0, 0.3, 52));
    bindings.insert("v".into(), generate::rand_matrix(rows, 1, -1.0, 1.0, 0.25, 53));
    bindings.insert("D".into(), generate::rand_dense(rows, cols, -1.0, 1.0, 54));
    assert!(["X", "Y", "v"].iter().all(|n| bindings[*n].is_sparse()));

    let mut b = DagBuilder::new();
    let [x, y] = ["X", "Y"].map(|name| b.read(name, rows, cols, 0.2));
    let v = b.read("v", rows, 1, 0.25);
    let d = b.read("D", rows, cols, 1.0);
    let (xy, xv, d2) = (b.mult(x, y), b.mult(x, v), b.sq(d));
    let (xy, xv, d2y) = (b.abs(xy), b.sq(xv), b.add(d2, y));
    let dag = b.build(vec![xy, xv, d2y]);

    let (expect, _) = run(FusionMode::Base, &dag, &bindings);
    let (got, _) = run(FusionMode::Gen, &dag, &bindings);
    assert_roots_bitwise(&got, &expect, "CSR right operands");
}
