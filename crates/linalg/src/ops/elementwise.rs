//! Element-wise binary operations with matrix/vector/scalar broadcasting.
//!
//! Dense rows run the monomorphized `bin_loop` / `bin_loop_assign`
//! (one loop per operator, the dispatch hoisted out), dense operands are
//! read in place and outputs are pool buffers written exactly once.

use super::loops::{bin_loop, bin_loop_assign, OpRef};
use super::{resolve_broadcast, BinaryOp, Broadcast};
use crate::dense::DenseMatrix;
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use crate::{par, pool};
use std::borrow::Cow;

/// `out = a op scalar`, preserving sparsity when the operator allows it.
pub fn binary_scalar(a: &Matrix, s: f64, op: BinaryOp) -> Matrix {
    match a {
        Matrix::Sparse(sp) if op.apply(0.0, s) == 0.0 => {
            // Zero cells stay zero: operate on stored values only.
            let mut out = (**sp).clone();
            for v in out.values_mut() {
                *v = op.apply(*v, s);
            }
            out.compact();
            Matrix::sparse(out)
        }
        _ => dense_with_scalar(a, s, op, false),
    }
}

/// `out = scalar op a` (scalar on the left).
pub fn scalar_binary(s: f64, a: &Matrix, op: BinaryOp) -> Matrix {
    match a {
        Matrix::Sparse(sp) if op.apply(s, 0.0) == 0.0 => {
            let mut out = (**sp).clone();
            for v in out.values_mut() {
                *v = op.apply(s, *v);
            }
            out.compact();
            Matrix::sparse(out)
        }
        _ => dense_with_scalar(a, s, op, true),
    }
}

/// `a op s` (`s op a` with `scalar_left`) as a dense matrix: a dense row is
/// one [`bin_loop`]; a CSR row is the image of `+0.0` with the images of its
/// stored cells written over it — what densifying it first would give.
fn dense_with_scalar(a: &Matrix, s: f64, op: BinaryOp, scalar_left: bool) -> Matrix {
    let (rows, cols) = (a.rows(), a.cols());
    let apply = |v| if scalar_left { op.apply(s, v) } else { op.apply(v, s) };
    let mut out = pool::take_unzeroed(rows * cols);
    par::par_rows_mut(&mut out, rows, cols, cols.max(1), |r, orow| match a {
        Matrix::Dense(d) => {
            let (x, y) = (OpRef::S(d.row(r)), OpRef::C(s));
            if scalar_left {
                bin_loop(op, y, x, orow)
            } else {
                bin_loop(op, x, y, orow)
            }
        }
        Matrix::Sparse(sp) => {
            orow.fill(apply(0.0));
            for (c, v) in sp.row_iter(r) {
                orow[c] = apply(v);
            }
        }
    });
    Matrix::dense(DenseMatrix::new(rows, cols, out))
}

/// General element-wise `a op b` with broadcasting of `b` (cellwise, column
/// vector, row vector, or scalar). Sparse fast paths:
///
/// * left-sparse-safe op (`*`, `&`) with sparse `a`: iterate non-zeros of `a`
///   only — the sparsity-exploitation primitive of the paper,
/// * sparse ∘ sparse for `0 op 0 == 0` ops: row-wise merge join.
pub fn binary(a: &Matrix, b: &Matrix, op: BinaryOp) -> Matrix {
    // Symmetric scalar promotion (1x1 matrices act as scalars).
    if b.is_scalar_shaped() && !a.is_scalar_shaped() {
        return binary_scalar(a, b.get(0, 0), op);
    }
    if a.is_scalar_shaped() && !b.is_scalar_shaped() {
        return scalar_binary(a.get(0, 0), b, op);
    }
    let (rows, cols) = (a.rows(), a.cols());
    let bc = resolve_broadcast(rows, cols, b);

    match (a, bc) {
        (Matrix::Sparse(sa), _) if op.sparse_safe_left() => sparse_left_driver(sa, b, bc, op),
        (Matrix::Sparse(sa), Broadcast::Cellwise) if b.is_sparse() && op.zero_zero_is_zero() => {
            sparse_sparse_merge(sa, b.as_sparse(), op)
        }
        _ => dense_binary(&a.dense_view(), b, bc, op),
    }
}

/// Sparse left input with a sparse-safe operator: output non-zeros are a
/// subset of `a`'s non-zeros.
fn sparse_left_driver(a: &SparseMatrix, b: &Matrix, bc: Broadcast, op: BinaryOp) -> Matrix {
    let mut triples = Vec::with_capacity(a.nnz());
    for r in 0..a.rows() {
        for (c, v) in a.row_iter(r) {
            let bv = match bc {
                Broadcast::Cellwise => b.get(r, c),
                Broadcast::ColVector => b.get(r, 0),
                Broadcast::RowVector => b.get(0, c),
                Broadcast::Scalar => b.get(0, 0),
            };
            let out = op.apply(v, bv);
            if out != 0.0 {
                triples.push((r, c, out));
            }
        }
    }
    Matrix::sparse(SparseMatrix::from_triples(a.rows(), a.cols(), triples))
}

/// Row-wise merge join of two aligned CSR matrices for ops where `0 op 0 == 0`.
fn sparse_sparse_merge(a: &SparseMatrix, b: &SparseMatrix, op: BinaryOp) -> Matrix {
    let mut triples = Vec::with_capacity(a.nnz() + b.nnz());
    for r in 0..a.rows() {
        let (ac, av) = (a.row_cols(r), a.row_values(r));
        let (bc, bv) = (b.row_cols(r), b.row_values(r));
        let (mut i, mut j) = (0usize, 0usize);
        while i < ac.len() || j < bc.len() {
            let (c, x, y) = if j >= bc.len() || (i < ac.len() && ac[i] < bc[j]) {
                let t = (ac[i], av[i], 0.0);
                i += 1;
                t
            } else if i >= ac.len() || bc[j] < ac[i] {
                let t = (bc[j], 0.0, bv[j]);
                j += 1;
                t
            } else {
                let t = (ac[i], av[i], bv[j]);
                i += 1;
                j += 1;
                t
            };
            let out = op.apply(x, y);
            if out != 0.0 {
                triples.push((r, c, out));
            }
        }
    }
    Matrix::sparse(SparseMatrix::from_triples(a.rows(), a.cols(), triples))
}

/// In-place `a = a op b`, reusing `a`'s (uniquely owned, typically dying)
/// buffer as the output. Bitwise-identical to [`binary`] for a dense left
/// operand: it mirrors `binary`'s dispatch arm-for-arm, only writing into
/// `a`'s buffer instead of a fresh one. When the output shape differs from
/// `a` (1×1 left operand against a matrix), it falls back to [`binary`].
pub fn binary_assign(mut a: DenseMatrix, b: &Matrix, op: BinaryOp) -> Matrix {
    let (rows, cols) = (a.rows(), a.cols());
    if a.is_empty() || (rows == 1 && cols == 1 && !b.is_scalar_shaped()) {
        return binary(&Matrix::dense(a), b, op);
    }
    if b.is_scalar_shaped() && !(rows == 1 && cols == 1) {
        // binary_scalar's dense path, in place.
        let s = OpRef::C(b.get(0, 0));
        par::par_rows_mut(a.values_mut(), rows, cols, cols.max(1), |_, row| {
            bin_loop_assign(op, row, s)
        });
        return Matrix::dense(a);
    }
    let bc = resolve_broadcast(rows, cols, b);
    let bd = dense_rhs(b, bc);
    par::par_rows_mut(a.values_mut(), rows, cols, cols.max(1), |r, row| match &bd {
        Some(bm) => bin_loop_assign(op, row, bcast_row(bm, bc, r)),
        None => {
            for (c, v) in row.iter_mut().enumerate() {
                *v = op.apply(*v, b.get(r, c));
            }
        }
    });
    Matrix::dense(a)
}

/// Dense fallback; parallel over row bands.
fn dense_binary(a: &DenseMatrix, b: &Matrix, bc: Broadcast, op: BinaryOp) -> Matrix {
    let (rows, cols) = (a.rows(), a.cols());
    let mut out = pool::take_unzeroed(rows * cols);
    let bd = dense_rhs(b, bc);
    par::par_rows_mut(&mut out, rows, cols, cols.max(1), |r, orow| {
        let arow = a.row(r);
        match &bd {
            Some(bm) => bin_loop(op, OpRef::S(arow), bcast_row(bm, bc, r), orow),
            None => {
                // A cellwise CSR operand: `+0.0` where it stores nothing.
                bin_loop(op, OpRef::S(arow), OpRef::C(0.0), orow);
                for (c, v) in b.as_sparse().row_iter(r) {
                    orow[c] = op.apply(arow[c], v);
                }
            }
        }
    });
    Matrix::dense(DenseMatrix::new(rows, cols, out))
}

/// The right operand of a dense element-wise op as a dense matrix read by
/// row — a CSR broadcast operand (a row, a column, a cell) densified — or
/// `None` for a cellwise CSR operand, which is read cell by cell instead of
/// being densified into a large intermediate.
fn dense_rhs(b: &Matrix, bc: Broadcast) -> Option<Cow<'_, DenseMatrix>> {
    match b {
        Matrix::Sparse(_) if bc == Broadcast::Cellwise => None,
        _ => Some(b.dense_view()),
    }
}

/// Row `r` of the right operand under broadcast `bc`.
fn bcast_row(bm: &DenseMatrix, bc: Broadcast, r: usize) -> OpRef<'_> {
    match bc {
        Broadcast::Cellwise => OpRef::S(bm.row(r)),
        Broadcast::ColVector => OpRef::C(bm.get(r, 0)),
        Broadcast::RowVector => OpRef::S(bm.row(0)),
        Broadcast::Scalar => OpRef::C(bm.get(0, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(rows: &[&[f64]]) -> Matrix {
        Matrix::dense(DenseMatrix::from_rows(rows))
    }

    #[test]
    fn dense_add() {
        let a = dm(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = dm(&[&[10.0, 20.0], &[30.0, 40.0]]);
        let c = binary(&a, &b, BinaryOp::Add);
        assert_eq!(c.get(0, 0), 11.0);
        assert_eq!(c.get(1, 1), 44.0);
    }

    #[test]
    fn col_vector_broadcast() {
        let a = dm(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = dm(&[&[10.0], &[100.0]]);
        let c = binary(&a, &v, BinaryOp::Mult);
        assert_eq!(c.get(0, 1), 20.0);
        assert_eq!(c.get(1, 0), 300.0);
    }

    #[test]
    fn row_vector_broadcast() {
        let a = dm(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = dm(&[&[10.0, 100.0]]);
        let c = binary(&a, &v, BinaryOp::Add);
        assert_eq!(c.get(0, 0), 11.0);
        assert_eq!(c.get(1, 1), 104.0);
    }

    #[test]
    fn scalar_promotion_both_sides() {
        let a = dm(&[&[2.0, 4.0]]);
        let s = dm(&[&[2.0]]);
        assert_eq!(binary(&a, &s, BinaryOp::Div).get(0, 1), 2.0);
        assert_eq!(binary(&s, &a, BinaryOp::Div).get(0, 1), 0.5);
    }

    #[test]
    fn sparse_mult_stays_sparse() {
        let a = Matrix::sparse(SparseMatrix::from_triples(3, 3, vec![(0, 0, 2.0), (2, 2, 3.0)]));
        let b = dm(&[&[5.0, 1.0, 1.0], &[1.0, 1.0, 1.0], &[1.0, 1.0, 7.0]]);
        let c = binary(&a, &b, BinaryOp::Mult);
        assert!(c.is_sparse());
        assert_eq!(c.get(0, 0), 10.0);
        assert_eq!(c.get(2, 2), 21.0);
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn sparse_sparse_add_merges() {
        let a = Matrix::sparse(SparseMatrix::from_triples(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0)]));
        let b = Matrix::sparse(SparseMatrix::from_triples(2, 3, vec![(0, 0, 5.0), (1, 1, 3.0)]));
        let c = binary(&a, &b, BinaryOp::Add);
        assert!(c.is_sparse());
        assert_eq!(c.get(0, 0), 6.0);
        assert_eq!(c.get(0, 2), 2.0);
        assert_eq!(c.get(1, 1), 3.0);
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn sparse_sub_cancellation_drops_entry() {
        let a = Matrix::sparse(SparseMatrix::from_triples(1, 2, vec![(0, 0, 2.0)]));
        let b = Matrix::sparse(SparseMatrix::from_triples(1, 2, vec![(0, 0, 2.0)]));
        let c = binary(&a, &b, BinaryOp::Sub);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn scalar_op_on_sparse_preserves_format_when_safe() {
        let a = Matrix::sparse(SparseMatrix::from_triples(2, 2, vec![(0, 0, 4.0)]));
        let c = binary_scalar(&a, 2.0, BinaryOp::Mult);
        assert!(c.is_sparse());
        assert_eq!(c.get(0, 0), 8.0);
        // x^1 keeps zeros zero as well (0^2=0): pow with positive exponent safe
        let p = binary_scalar(&a, 2.0, BinaryOp::Pow);
        assert!(p.is_sparse());
        assert_eq!(p.get(0, 0), 16.0);
        // add densifies
        let d = binary_scalar(&a, 1.0, BinaryOp::Add);
        assert!(!d.is_sparse());
        assert_eq!(d.get(1, 1), 1.0);
    }

    #[test]
    fn comparison_produces_indicator() {
        let a = dm(&[&[1.0, -2.0], &[0.0, 4.0]]);
        let c = binary_scalar(&a, 0.0, BinaryOp::Neq);
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(1, 0), 0.0);
    }

    /// The in-place variant must be *bitwise* identical to `binary` — it is
    /// substituted for dying inputs on the scheduled execution path, which is
    /// differentially tested against the sequential oracle.
    #[test]
    fn binary_assign_bitwise_equals_binary() {
        let a = DenseMatrix::from_rows(&[&[1.5, -2.0, 0.0], &[0.25, 4.0, -1.0]]);
        let cell = dm(&[&[2.0, 3.0, 4.0], &[5.0, 6.0, 7.0]]);
        let colv = dm(&[&[10.0], &[20.0]]);
        let rowv = dm(&[&[1.0, 2.0, 3.0]]);
        let sc = dm(&[&[0.5]]);
        let sp = Matrix::sparse(SparseMatrix::from_triples(2, 3, vec![(0, 1, 2.0), (1, 2, 3.0)]));
        for b in [&cell, &colv, &rowv, &sc, &sp] {
            for op in [BinaryOp::Add, BinaryOp::Div, BinaryOp::Pow, BinaryOp::Max] {
                let expect = binary(&Matrix::dense(a.clone()), b, op);
                let got = binary_assign(a.clone(), b, op);
                assert_eq!((got.rows(), got.cols()), (expect.rows(), expect.cols()));
                for r in 0..got.rows() {
                    for c in 0..got.cols() {
                        assert!(
                            got.get(r, c).to_bits() == expect.get(r, c).to_bits(),
                            "{op:?} at ({r},{c}): {} vs {}",
                            got.get(r, c),
                            expect.get(r, c)
                        );
                    }
                }
            }
        }
    }

    /// Dense operands are read where they lie, owned or a row band of a
    /// larger matrix (a window into its parent's buffer): both give the same
    /// bits, as either operand of `binary` and under every broadcast, and as
    /// operands of `ternary`, `cbind` and `rbind`.
    #[test]
    fn owned_and_row_band_operands_agree_bitwise() {
        use crate::ops::{cbind, rbind, ternary, TernaryOp};
        let parent = Matrix::dense(DenseMatrix::new(
            6,
            3,
            (0..18).map(|i| f64::from(i) * 0.37 - 2.0).collect(),
        ));
        let band = parent.row_slice(2, 4);
        let owned = Matrix::dense(DenseMatrix::new(2, 3, band.as_dense().values().to_vec()));
        let bits =
            |m: &Matrix| m.dense_view().values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let cell = dm(&[&[2.0, -3.0, 0.5], &[5.0, 0.0, -7.0]]);
        let colv = dm(&[&[10.0], &[-20.0]]);
        let rowv = dm(&[&[1.0, -2.0, 3.0]]);
        let sc = dm(&[&[0.5]]);
        let sp = Matrix::sparse(SparseMatrix::from_triples(2, 3, vec![(0, 1, 2.0), (1, 2, 3.0)]));
        for op in [BinaryOp::Add, BinaryOp::Div, BinaryOp::Pow, BinaryOp::Max, BinaryOp::Lt] {
            for b in [&cell, &colv, &rowv, &sc, &sp] {
                assert_eq!(bits(&binary(&owned, b, op)), bits(&binary(&band, b, op)), "{op:?}");
            }
            for a in [&cell, &sc, &sp] {
                assert_eq!(bits(&binary(a, &owned, op)), bits(&binary(a, &band, op)), "{op:?}");
            }
        }
        for op in [TernaryOp::PlusMult, TernaryOp::IfElse] {
            let (o, b) = (ternary(&owned, &cell, &owned, op), ternary(&band, &cell, &band, op));
            assert_eq!(bits(&o), bits(&b), "{op:?}");
        }
        assert_eq!(bits(&cbind(&owned, &band)), bits(&cbind(&band, &owned)));
        assert_eq!(bits(&rbind(&owned, &band)), bits(&rbind(&band, &owned)));
    }

    #[test]
    fn binary_assign_scalar_left_falls_back() {
        let a = DenseMatrix::filled(1, 1, 2.0);
        let b = dm(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let got = binary_assign(a, &b, BinaryOp::Mult);
        let expect = binary(&dm(&[&[2.0]]), &b, BinaryOp::Mult);
        assert!(got.approx_eq(&expect, 0.0));
        assert_eq!((got.rows(), got.cols()), (2, 2));
    }

    #[test]
    fn dense_vs_sparse_agree() {
        let d = DenseMatrix::from_rows(&[&[1.0, 0.0, 3.0], &[0.0, 5.0, 0.0]]);
        let s = Matrix::sparse(SparseMatrix::from_dense(&d));
        let dd = Matrix::dense(d);
        for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mult, BinaryOp::Min, BinaryOp::Max] {
            let r1 = binary(&dd, &dd, op);
            let r2 = binary(&s, &s, op);
            assert!(r1.approx_eq(&r2, 1e-12), "op {op:?} disagrees");
        }
    }
}
