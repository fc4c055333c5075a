//! Reorganization and indexing operations: transpose, right indexing,
//! cbind/rbind, diag, seq.

use crate::dense::DenseMatrix;
use crate::matrix::Matrix;
use crate::par;

/// `t(a)`. Dense transpose is cache-blocked; sparse transpose uses the CSR
/// counting algorithm.
pub fn transpose(a: &Matrix) -> Matrix {
    match a {
        Matrix::Dense(d) => Matrix::dense(transpose_dense(d)),
        Matrix::Sparse(s) => Matrix::sparse(s.transpose()),
    }
}

const BLOCK: usize = 64;

fn transpose_dense(a: &DenseMatrix) -> DenseMatrix {
    let (rows, cols) = (a.rows(), a.cols());
    let mut out = crate::pool::take_unzeroed(rows * cols);
    // Parallel over output row bands (output rows = input columns).
    let src = a.values();
    par::par_rows_mut(&mut out, cols, rows.max(1), rows.max(1), |oc, orow| {
        // orow is output row `oc`, i.e. input column `oc`, of length `rows`.
        let mut r = 0;
        while r < rows {
            let rend = (r + BLOCK).min(rows);
            for (ri, slot) in orow[r..rend].iter_mut().enumerate() {
                *slot = src[(r + ri) * cols + oc];
            }
            r = rend;
        }
    });
    DenseMatrix::new(cols, rows, out)
}

/// Right indexing `a[rl:ru, cl:cu]` with half-open ranges (0-based).
pub fn index_range(
    a: &Matrix,
    row_range: std::ops::Range<usize>,
    col_range: std::ops::Range<usize>,
) -> Matrix {
    assert!(row_range.end <= a.rows() && col_range.end <= a.cols(), "index out of range");
    let (orows, ocols) = (row_range.len(), col_range.len());
    match a {
        Matrix::Dense(d) => {
            let mut out = Vec::with_capacity(orows * ocols);
            for r in row_range {
                out.extend_from_slice(&d.row(r)[col_range.clone()]);
            }
            Matrix::dense(DenseMatrix::new(orows, ocols, out))
        }
        Matrix::Sparse(s) => {
            let mut triples = Vec::new();
            for (ri, r) in row_range.enumerate() {
                for (c, v) in s.row_iter(r) {
                    if col_range.contains(&c) {
                        triples.push((ri, c - col_range.start, v));
                    }
                }
            }
            Matrix::sparse(crate::sparse::SparseMatrix::from_triples(orows, ocols, triples))
        }
    }
}

/// Column binding `cbind(a, b)` (dense output).
pub fn cbind(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "cbind row mismatch");
    let (rows, ac, bc) = (a.rows(), a.cols(), b.cols());
    let (ad, bd) = (a.dense_view(), b.dense_view());
    let mut out = crate::pool::take_values(rows * (ac + bc));
    for r in 0..rows {
        out.extend_from_slice(ad.row(r));
        out.extend_from_slice(bd.row(r));
    }
    Matrix::dense(DenseMatrix::new(rows, ac + bc, out))
}

/// Row binding `rbind(a, b)` (dense output).
pub fn rbind(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "rbind col mismatch");
    let (ad, bd) = (a.dense_view(), b.dense_view());
    let mut out = crate::pool::take_values(ad.len() + bd.len());
    out.extend_from_slice(ad.values());
    out.extend_from_slice(bd.values());
    Matrix::dense(DenseMatrix::new(a.rows() + b.rows(), a.cols(), out))
}

/// `diag(v)`: a column vector becomes a diagonal matrix; a square matrix
/// yields its diagonal as a column vector.
pub fn diag(a: &Matrix) -> Matrix {
    if a.cols() == 1 {
        let n = a.rows();
        let triples: Vec<_> = (0..n)
            .filter_map(|i| {
                let v = a.get(i, 0);
                (v != 0.0).then_some((i, i, v))
            })
            .collect();
        Matrix::sparse(crate::sparse::SparseMatrix::from_triples(n, n, triples))
    } else {
        assert_eq!(a.rows(), a.cols(), "diag of non-square matrix");
        let n = a.rows();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(a.get(i, i));
        }
        Matrix::dense(DenseMatrix::new(n, 1, out))
    }
}

/// `seq(from, to, incr)` as a column vector (inclusive bounds, SystemML
/// semantics).
pub fn seq(from: f64, to: f64, incr: f64) -> Matrix {
    assert!(incr != 0.0, "seq increment must be non-zero");
    let n = if (incr > 0.0 && from > to) || (incr < 0.0 && from < to) {
        0
    } else {
        ((to - from) / incr).floor() as usize + 1
    };
    let data: Vec<f64> = (0..n).map(|i| from + incr * i as f64).collect();
    Matrix::dense(DenseMatrix::new(n, 1, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseMatrix;

    #[test]
    fn dense_transpose() {
        let a = Matrix::dense(DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
        let t = transpose(&a);
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.get(2, 0), 3.0);
        assert!(transpose(&t).approx_eq(&a, 0.0));
    }

    #[test]
    fn sparse_transpose_via_matrix() {
        let s = Matrix::sparse(SparseMatrix::from_triples(2, 3, vec![(0, 2, 7.0)]));
        let t = transpose(&s);
        assert!(t.is_sparse());
        assert_eq!(t.get(2, 0), 7.0);
    }

    #[test]
    fn indexing_dense_and_sparse_agree() {
        let d = DenseMatrix::from_rows(&[
            &[1.0, 0.0, 3.0, 0.0],
            &[0.0, 5.0, 0.0, 7.0],
            &[8.0, 0.0, 9.0, 0.0],
        ]);
        let dd = Matrix::dense(d.clone());
        let ss = Matrix::sparse(SparseMatrix::from_dense(&d));
        let i1 = index_range(&dd, 1..3, 1..4);
        let i2 = index_range(&ss, 1..3, 1..4);
        assert_eq!((i1.rows(), i1.cols()), (2, 3));
        assert!(i1.approx_eq(&i2, 0.0));
        assert_eq!(i1.get(0, 0), 5.0);
        assert_eq!(i1.get(1, 1), 9.0);
    }

    #[test]
    fn cbind_rbind() {
        let a = Matrix::dense(DenseMatrix::from_rows(&[&[1.0], &[2.0]]));
        let b = Matrix::dense(DenseMatrix::from_rows(&[&[3.0], &[4.0]]));
        let c = cbind(&a, &b);
        assert_eq!((c.rows(), c.cols()), (2, 2));
        assert_eq!(c.get(0, 1), 3.0);
        let r = rbind(&a, &b);
        assert_eq!((r.rows(), r.cols()), (4, 1));
        assert_eq!(r.get(3, 0), 4.0);
    }

    #[test]
    fn diag_roundtrip() {
        let v = Matrix::dense(DenseMatrix::col_vector(&[1.0, 0.0, 3.0]));
        let d = diag(&v);
        assert!(d.is_sparse());
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(2, 2), 3.0);
        assert_eq!(d.nnz(), 2);
        let back = diag(&d);
        assert!(back.approx_eq(&v, 0.0));
    }

    #[test]
    fn seq_inclusive() {
        let s = seq(1.0, 5.0, 2.0);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.get(2, 0), 5.0);
        let e = seq(5.0, 1.0, 1.0);
        assert_eq!(e.rows(), 0);
        let d = seq(5.0, 1.0, -2.0);
        assert_eq!(d.rows(), 3);
        assert_eq!(d.get(2, 0), 1.0);
    }
}
