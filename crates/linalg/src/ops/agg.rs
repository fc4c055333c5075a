//! Aggregations: full, row-wise, and column-wise, over dense and sparse
//! matrices, plus cumulative aggregates.

use super::{AggDir, AggOp};
use crate::dense::DenseMatrix;
use crate::matrix::Matrix;
use crate::par;
use crate::sparse::SparseMatrix;

/// Aggregates `a` in direction `dir` with function `op`.
///
/// * `Full` → 1×1, `Row` → n×1 (`rowSums` et al.), `Col` → 1×m (`colSums`).
/// * Sparse inputs use non-zero iteration; for `Min`/`Max` the implicit
///   zeros are folded in whenever a row/column has fewer non-zeros than
///   cells, preserving exact semantics.
pub fn agg(a: &Matrix, op: AggOp, dir: AggDir) -> Matrix {
    match a {
        Matrix::Dense(d) => agg_dense(d, op, dir),
        Matrix::Sparse(s) => agg_sparse(s, op, dir),
    }
}

fn finalize_mean(op: AggOp, acc: f64, count: usize) -> f64 {
    if op == AggOp::Mean {
        acc / count as f64
    } else {
        acc
    }
}

fn agg_dense(a: &DenseMatrix, op: AggOp, dir: AggDir) -> Matrix {
    let (rows, cols) = (a.rows(), a.cols());
    match dir {
        AggDir::Full => {
            let acc = par::par_map_reduce(
                rows,
                cols.max(1),
                op.identity(),
                |lo, hi| {
                    let mut acc = op.identity();
                    for r in lo..hi {
                        for &v in a.row(r) {
                            acc = op.fold(acc, v);
                        }
                    }
                    acc
                },
                |x, y| op.combine(x, y),
            );
            Matrix::dense(DenseMatrix::filled(1, 1, finalize_mean(op, acc, rows * cols)))
        }
        AggDir::Row => {
            let mut out = crate::pool::take_unzeroed(rows);
            par::par_rows_mut(&mut out, rows, 1, cols.max(1), |r, slot| {
                let mut acc = op.identity();
                for &v in a.row(r) {
                    acc = op.fold(acc, v);
                }
                slot[0] = finalize_mean(op, acc, cols);
            });
            Matrix::dense(DenseMatrix::new(rows, 1, out))
        }
        AggDir::Col => {
            let mut acc = vec![op.identity(); cols];
            for r in 0..rows {
                for (c, &v) in a.row(r).iter().enumerate() {
                    acc[c] = op.fold(acc[c], v);
                }
            }
            for v in acc.iter_mut() {
                *v = finalize_mean(op, *v, rows);
            }
            Matrix::dense(DenseMatrix::new(1, cols, acc))
        }
    }
}

fn agg_sparse(a: &SparseMatrix, op: AggOp, dir: AggDir) -> Matrix {
    let (rows, cols) = (a.rows(), a.cols());
    match dir {
        AggDir::Full => {
            let mut acc = op.identity();
            for &v in a.values() {
                acc = op.fold(acc, v);
            }
            if !op.sparse_safe() && a.nnz() < rows * cols {
                acc = op.fold(acc, 0.0);
            }
            Matrix::dense(DenseMatrix::filled(1, 1, finalize_mean(op, acc, rows * cols)))
        }
        AggDir::Row => {
            let mut out = crate::pool::take_unzeroed(rows);
            for (r, slot) in out.iter_mut().enumerate() {
                let mut acc = op.identity();
                for &v in a.row_values(r) {
                    acc = op.fold(acc, v);
                }
                if !op.sparse_safe() && a.row_nnz(r) < cols {
                    acc = op.fold(acc, 0.0);
                }
                *slot = finalize_mean(op, acc, cols);
            }
            Matrix::dense(DenseMatrix::new(rows, 1, out))
        }
        AggDir::Col => {
            let mut acc = vec![op.identity(); cols];
            let mut counts = vec![0usize; cols];
            for r in 0..rows {
                for (c, v) in a.row_iter(r) {
                    acc[c] = op.fold(acc[c], v);
                    counts[c] += 1;
                }
            }
            for c in 0..cols {
                if !op.sparse_safe() && counts[c] < rows {
                    acc[c] = op.fold(acc[c], 0.0);
                }
                acc[c] = finalize_mean(op, acc[c], rows);
            }
            Matrix::dense(DenseMatrix::new(1, cols, acc))
        }
    }
}

/// Cumulative aggregate down the rows (SystemML's `cumsum`), dense output.
/// Only `Sum` is required by the evaluation workloads.
pub fn cum_agg(a: &Matrix, op: AggOp) -> Matrix {
    assert_eq!(op, AggOp::Sum, "only cumsum is supported");
    let d = a.to_dense();
    let (rows, cols) = (d.rows(), d.cols());
    let mut out = d.into_values();
    for r in 1..rows {
        for c in 0..cols {
            out[r * cols + c] += out[(r - 1) * cols + c];
        }
    }
    Matrix::dense(DenseMatrix::new(rows, cols, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> Matrix {
        Matrix::dense(DenseMatrix::from_rows(&[&[1.0, -2.0, 3.0], &[0.0, 5.0, -6.0]]))
    }

    fn sample_sparse() -> Matrix {
        Matrix::sparse(SparseMatrix::from_dense(sample_dense().as_dense()))
    }

    #[test]
    fn full_sum() {
        assert_eq!(agg(&sample_dense(), AggOp::Sum, AggDir::Full).get(0, 0), 1.0);
        assert_eq!(agg(&sample_sparse(), AggOp::Sum, AggDir::Full).get(0, 0), 1.0);
    }

    #[test]
    fn full_sumsq() {
        let expect = 1.0 + 4.0 + 9.0 + 25.0 + 36.0;
        assert_eq!(agg(&sample_dense(), AggOp::SumSq, AggDir::Full).get(0, 0), expect);
        assert_eq!(agg(&sample_sparse(), AggOp::SumSq, AggDir::Full).get(0, 0), expect);
    }

    #[test]
    fn row_sums() {
        let r = agg(&sample_dense(), AggOp::Sum, AggDir::Row);
        assert_eq!((r.rows(), r.cols()), (2, 1));
        assert_eq!(r.get(0, 0), 2.0);
        assert_eq!(r.get(1, 0), -1.0);
    }

    #[test]
    fn col_sums() {
        let c = agg(&sample_dense(), AggOp::Sum, AggDir::Col);
        assert_eq!((c.rows(), c.cols()), (1, 3));
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 1), 3.0);
        assert_eq!(c.get(0, 2), -3.0);
    }

    #[test]
    fn sparse_min_includes_implicit_zeros() {
        // All stored values positive, but there are implicit zeros, so min=0.
        let s = Matrix::sparse(SparseMatrix::from_triples(2, 2, vec![(0, 0, 5.0)]));
        assert_eq!(agg(&s, AggOp::Min, AggDir::Full).get(0, 0), 0.0);
        let rm = agg(&s, AggOp::Min, AggDir::Row);
        assert_eq!(rm.get(0, 0), 0.0);
        let cm = agg(&s, AggOp::Max, AggDir::Col);
        assert_eq!(cm.get(0, 0), 5.0);
        assert_eq!(cm.get(0, 1), 0.0);
    }

    #[test]
    fn sparse_dense_agree_on_all_ops_dirs() {
        for op in [AggOp::Sum, AggOp::SumSq, AggOp::Min, AggOp::Max, AggOp::Mean] {
            for dir in [AggDir::Full, AggDir::Row, AggDir::Col] {
                let d = agg(&sample_dense(), op, dir);
                let s = agg(&sample_sparse(), op, dir);
                assert!(d.approx_eq(&s, 1e-12), "{op:?}/{dir:?} disagree");
            }
        }
    }

    #[test]
    fn mean_divides() {
        let m = agg(&sample_dense(), AggOp::Mean, AggDir::Full);
        assert!((m.get(0, 0) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn cumsum_runs_down_rows() {
        let a = Matrix::dense(DenseMatrix::from_rows(&[&[1.0, 1.0], &[2.0, 3.0], &[4.0, 5.0]]));
        let c = cum_agg(&a, AggOp::Sum);
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(1, 0), 3.0);
        assert_eq!(c.get(2, 1), 9.0);
    }
}
