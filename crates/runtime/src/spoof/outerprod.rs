//! The `SpoofOuterProduct` skeleton: iterates the non-zero cells of the
//! main input `X` (or all cells for dense mains), computes the built-in
//! `dot(U[i,:], V[j,:])` per cell, evaluates the scalar program, and applies
//! the output variant: full aggregation, left/right matrix multiply, or
//! no-agg (paper Figure 3(a): the ALS-CG update rule).
//!
//! The block backend (default) is one `tiles::CellPass` carrying the factors —
//! it batches the dots into a `uv` tile — and the sink of the output
//! variant; the per-cell scalar pass (`CellBackend::Scalar`) is the
//! differential-test oracle.

use super::{with_pass, PassInput};
use crate::side::SideInput;
use fusedml_core::spoof::block::CellBackend;
use fusedml_core::spoof::{OuterOut, OuterSpec};
use fusedml_linalg::ops::AggOp;
use fusedml_linalg::{DenseMatrix, Matrix};

/// Executes an Outer operator with the kernels of the owning engine.
pub fn execute(
    spec: &OuterSpec,
    main: Option<&Matrix>,
    sides: &[SideInput],
    scalars: &[f64],
    iter_rows: usize,
    iter_cols: usize,
) -> Matrix {
    execute_with(spec, main, sides, scalars, iter_rows, iter_cols, CellBackend::Mono)
}

/// Executes under an explicit backend (differential tests pin `Scalar`).
pub fn execute_with(
    spec: &OuterSpec,
    main: Option<&Matrix>,
    sides: &[SideInput],
    scalars: &[f64],
    iter_rows: usize,
    iter_cols: usize,
    backend: CellBackend,
) -> Matrix {
    // U and V are dense row-major factor matrices (borrowed when bound dense).
    let u = sides[spec.u_side].to_dense_values();
    let v = sides[spec.v_side].to_dense_values();
    let (n, m) = (iter_rows, iter_cols);
    let input = PassInput {
        prog: &spec.prog,
        regs: &[spec.result],
        main,
        sides,
        scalars,
        rows: n,
        cols: m,
        sparse_safe: spec.sparse_safe,
        factors: Some((&u, &v, spec.rank)),
    };
    with_pass(input, backend, |pass| match spec.out {
        OuterOut::FullAgg => Matrix::dense(DenseMatrix::filled(1, 1, pass.full(&[AggOp::Sum])[0])),
        OuterOut::RightMM { side } => {
            // out (n×k) : out[i,:] += w_ij * S[j,:], row-parallel.
            let k = sides[side].cols();
            let out = pass.right_mm(&sides[side].to_dense_values(), k);
            Matrix::dense(DenseMatrix::new(n, k, out))
        }
        OuterOut::LeftMM { side } => {
            // out (m×k) : out[j,:] += w_ij * S[i,:]; per-thread partials.
            let k = sides[side].cols();
            let out = pass.left_mm(&sides[side].to_dense_values(), k);
            Matrix::dense(DenseMatrix::new(m, k, out))
        }
        OuterOut::NoAgg => pass.no_agg(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_core::spoof::{Instr, Program};
    use fusedml_linalg::generate;
    use fusedml_linalg::ops::{self, AggDir, AggOp, BinaryOp, UnaryOp};
    use fusedml_linalg::SparseMatrix;

    /// Reference: the unfused expression `sum(X ⊙ log(UV^T + eps))`.
    fn reference_loss(x: &Matrix, u: &Matrix, v: &Matrix, eps: f64) -> f64 {
        let uvt = ops::matmult(u, &ops::transpose(v));
        let plus = ops::binary_scalar(&uvt, eps, BinaryOp::Add);
        let lg = ops::unary(&plus, UnaryOp::Log);
        let prod = ops::binary(x, &lg, BinaryOp::Mult);
        ops::agg(&prod, AggOp::Sum, AggDir::Full).get(0, 0)
    }

    /// Spec for `sum(X ⊙ log(UV^T + eps))`.
    fn loss_spec(eps: f64, sparse_safe: bool) -> OuterSpec {
        OuterSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMain { out: 0 },
                    Instr::LoadUVDot { out: 1 },
                    Instr::LoadConst { out: 2, value: eps },
                    Instr::Binary { out: 3, op: BinaryOp::Add, a: 1, b: 2 },
                    Instr::Unary { out: 4, op: UnaryOp::Log, a: 3 },
                    Instr::Binary { out: 5, op: BinaryOp::Mult, a: 0, b: 4 },
                ],
                n_regs: 6,
                vreg_lens: vec![],
            },
            result: 5,
            out: OuterOut::FullAgg,
            u_side: 0,
            v_side: 1,
            rank: 8,
            sparse_safe,
        }
    }

    #[test]
    fn sparse_loss_matches_reference() {
        let (n, m, r) = (300, 200, 8);
        let x = generate::rand_matrix(n, m, 1.0, 5.0, 0.02, 1);
        let u = generate::rand_dense(n, r, 0.1, 1.0, 2);
        let v = generate::rand_dense(m, r, 0.1, 1.0, 3);
        let spec = loss_spec(1e-15, true);
        let out = execute(&spec, Some(&x), &[SideInput::bind(&u), SideInput::bind(&v)], &[], n, m);
        let expect = reference_loss(&x, &u, &v, 1e-15);
        assert!(
            fusedml_linalg::approx_eq(out.get(0, 0), expect, 1e-9),
            "{} vs {}",
            out.get(0, 0),
            expect
        );
    }

    #[test]
    fn dense_main_agrees_with_sparse_path() {
        let (n, m, r) = (100, 80, 8);
        let xd = generate::rand_matrix(n, m, 1.0, 5.0, 0.1, 4).to_dense();
        let u = generate::rand_dense(n, r, 0.1, 1.0, 5);
        let v = generate::rand_dense(m, r, 0.1, 1.0, 6);
        let sides = [SideInput::bind(&u), SideInput::bind(&v)];
        let sx = Matrix::sparse(SparseMatrix::from_dense(&xd));
        let dx = Matrix::dense(xd);
        let a = execute(&loss_spec(1e-15, true), Some(&sx), &sides, &[], n, m);
        let b = execute(&loss_spec(1e-15, false), Some(&dx), &sides, &[], n, m);
        assert!(fusedml_linalg::approx_eq(a.get(0, 0), b.get(0, 0), 1e-9));
    }

    /// Spec for the ALS right-mm update `((X != 0) ⊙ (UV^T)) %*% V`.
    fn update_spec() -> OuterSpec {
        OuterSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMain { out: 0 },
                    Instr::LoadConst { out: 1, value: 0.0 },
                    Instr::Binary { out: 2, op: BinaryOp::Neq, a: 0, b: 1 },
                    Instr::LoadUVDot { out: 3 },
                    Instr::Binary { out: 4, op: BinaryOp::Mult, a: 2, b: 3 },
                ],
                n_regs: 5,
                vreg_lens: vec![],
            },
            result: 4,
            out: OuterOut::RightMM { side: 1 },
            u_side: 0,
            v_side: 1,
            rank: 6,
            sparse_safe: true,
        }
    }

    #[test]
    fn right_mm_matches_reference() {
        let (n, m, r) = (150, 120, 6);
        let x = generate::rand_matrix(n, m, 1.0, 5.0, 0.05, 7);
        let u = generate::rand_dense(n, r, 0.1, 1.0, 8);
        let v = generate::rand_dense(m, r, 0.1, 1.0, 9);
        let out = execute(
            &update_spec(),
            Some(&x),
            &[SideInput::bind(&u), SideInput::bind(&v)],
            &[],
            n,
            m,
        );
        // Reference: ((X != 0) ⊙ (U V^T)) %*% V.
        let uvt = ops::matmult(&u, &ops::transpose(&v));
        let mask = ops::binary_scalar(&x, 0.0, BinaryOp::Neq);
        let w = ops::binary(&mask, &uvt, BinaryOp::Mult);
        let expect = ops::matmult(&w, &v);
        assert!(out.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn left_mm_matches_reference() {
        let (n, m, r) = (120, 100, 6);
        let x = generate::rand_matrix(n, m, 1.0, 5.0, 0.05, 10);
        let u = generate::rand_dense(n, r, 0.1, 1.0, 11);
        let v = generate::rand_dense(m, r, 0.1, 1.0, 12);
        let spec = OuterSpec { out: OuterOut::LeftMM { side: 0 }, ..update_spec() };
        let out = execute(&spec, Some(&x), &[SideInput::bind(&u), SideInput::bind(&v)], &[], n, m);
        // Reference: t((X != 0) ⊙ (U V^T)) %*% U.
        let uvt = ops::matmult(&u, &ops::transpose(&v));
        let mask = ops::binary_scalar(&x, 0.0, BinaryOp::Neq);
        let w = ops::binary(&mask, &uvt, BinaryOp::Mult);
        let expect = ops::matmult(&ops::transpose(&w), &u);
        assert!(out.approx_eq(&expect, 1e-9));
    }

    /// The block backend must agree with the scalar oracle for every output
    /// variant over sparse and dense mains (ragged tile tails included).
    #[test]
    fn block_backends_match_scalar_oracle() {
        use fusedml_core::spoof::block::CellBackend;
        let (n, m, r) = (90, 70, 6);
        let xd = generate::rand_matrix(n, m, 1.0, 5.0, 0.07, 21).to_dense();
        let u = generate::rand_dense(n, r, 0.1, 1.0, 22);
        let v = generate::rand_dense(m, r, 0.1, 1.0, 23);
        let sides = [SideInput::bind(&u), SideInput::bind(&v)];
        let sx = Matrix::sparse(SparseMatrix::from_dense(&xd));
        let dx = Matrix::dense(xd);
        let variants = [
            OuterOut::FullAgg,
            OuterOut::RightMM { side: 1 },
            OuterOut::LeftMM { side: 0 },
            OuterOut::NoAgg,
        ];
        for out_variant in variants {
            let spec = OuterSpec { out: out_variant, rank: r, ..update_spec() };
            for main in [&sx, &dx] {
                let oracle =
                    execute_with(&spec, Some(main), &sides, &[], n, m, CellBackend::Scalar);
                for backend in [CellBackend::Block, CellBackend::Mono] {
                    let got = execute_with(&spec, Some(main), &sides, &[], n, m, backend);
                    assert!(
                        got.approx_eq(&oracle, 1e-11),
                        "{out_variant:?} {backend:?} sparse={}",
                        main.is_sparse()
                    );
                }
            }
        }
    }

    #[test]
    fn no_agg_produces_sparse_w() {
        let (n, m, r) = (80, 70, 6);
        let x = generate::rand_matrix(n, m, 1.0, 5.0, 0.05, 13);
        let u = generate::rand_dense(n, r, 0.1, 1.0, 14);
        let v = generate::rand_dense(m, r, 0.1, 1.0, 15);
        let spec = OuterSpec { out: OuterOut::NoAgg, ..update_spec() };
        let out = execute(&spec, Some(&x), &[SideInput::bind(&u), SideInput::bind(&v)], &[], n, m);
        assert!(out.is_sparse());
        assert_eq!(out.nnz(), x.nnz(), "W has X's sparsity pattern");
    }
}
