//! Element-wise unary operations.

use super::loops::{un_loop, un_loop_assign, OpRef};
use super::UnaryOp;
use crate::dense::DenseMatrix;
use crate::matrix::Matrix;
use crate::{par, pool};

/// `out = f(a)` cell-wise. Sparse-safe functions (`f(0)=0`) run over stored
/// non-zeros only and keep the CSR format; a dense `a` maps row by row into a
/// pool buffer written exactly once.
pub fn unary(a: &Matrix, op: UnaryOp) -> Matrix {
    match a {
        Matrix::Sparse(s) if op.sparse_safe() => {
            let mut out = (**s).clone();
            for v in out.values_mut() {
                *v = op.apply(*v);
            }
            out.compact();
            Matrix::sparse(out)
        }
        Matrix::Sparse(_) => unary_assign(a.to_dense(), op),
        Matrix::Dense(d) => {
            let (rows, cols) = (d.rows(), d.cols());
            let mut data = pool::take_unzeroed(rows * cols);
            par::par_rows_mut(&mut data, rows, cols, cols.max(1), |r, row| {
                un_loop(op, OpRef::S(d.row(r)), row)
            });
            Matrix::dense(DenseMatrix::new(rows, cols, data))
        }
    }
}

/// In-place `a = f(a)`, reusing a uniquely owned dense (typically dying)
/// input buffer as the output. Bitwise-identical to [`unary`]'s dense path.
pub fn unary_assign(mut a: DenseMatrix, op: UnaryOp) -> Matrix {
    let (rows, cols) = (a.rows(), a.cols());
    par::par_rows_mut(a.values_mut(), rows, cols, cols.max(1), |_, row| un_loop_assign(op, row));
    Matrix::dense(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseMatrix;

    #[test]
    fn dense_exp() {
        let a = Matrix::dense(DenseMatrix::from_rows(&[&[0.0, 1.0]]));
        let e = unary(&a, UnaryOp::Exp);
        assert!((e.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((e.get(0, 1) - std::f64::consts::E).abs() < 1e-12);
    }

    #[test]
    fn sparse_safe_stays_sparse() {
        let a = Matrix::sparse(SparseMatrix::from_triples(3, 3, vec![(1, 1, -4.0)]));
        let r = unary(&a, UnaryOp::Abs);
        assert!(r.is_sparse());
        assert_eq!(r.get(1, 1), 4.0);
        assert_eq!(r.nnz(), 1);
    }

    #[test]
    fn sparse_unsafe_densifies() {
        let a = Matrix::sparse(SparseMatrix::from_triples(2, 2, vec![(0, 0, 1.0)]));
        let r = unary(&a, UnaryOp::Exp);
        assert!(!r.is_sparse());
        assert!((r.get(1, 1) - 1.0).abs() < 1e-12, "exp(0) = 1 must appear");
    }

    #[test]
    fn sign_can_compact() {
        // sign of positive values stays 1.0; no zeros introduced here, but
        // round can introduce zeros from values in (-0.5, 0.5).
        let a = Matrix::sparse(SparseMatrix::from_triples(1, 2, vec![(0, 0, 0.2)]));
        let r = unary(&a, UnaryOp::Round);
        assert_eq!(r.nnz(), 0);
    }

    #[test]
    fn all_ops_match_scalar_semantics_on_dense() {
        // Opaque to the optimizer, so `op.apply` below runs on the values at
        // run time like the kernels do (a folded constant NaN may differ in
        // its payload bits).
        let vals = std::hint::black_box([-1.5, -0.3, -0.0, 0.0, 0.4, 2.0, f64::INFINITY, f64::NAN]);
        let a = DenseMatrix::row_vector(&vals);
        for op in [
            UnaryOp::Exp,
            UnaryOp::Log,
            UnaryOp::Sqrt,
            UnaryOp::Abs,
            UnaryOp::Sign,
            UnaryOp::Round,
            UnaryOp::Floor,
            UnaryOp::Ceil,
            UnaryOp::Neg,
            UnaryOp::Sigmoid,
            UnaryOp::Pow2,
            UnaryOp::Sprop,
            UnaryOp::Recip,
        ] {
            let mapped = unary(&Matrix::dense(a.clone()), op);
            let assigned = unary_assign(a.clone(), op);
            for (i, &v) in vals.iter().enumerate() {
                let expect = op.apply(v).to_bits();
                let got = [mapped.get(0, i).to_bits(), assigned.get(0, i).to_bits()];
                assert_eq!(got, [expect; 2], "{op:?}({v})");
            }
        }
    }
}
