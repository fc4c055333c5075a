//! Matrix multiplication kernels: dense×dense and sparse×dense (the
//! register-blocked [`simd::gemm`] / [`simd::sparse_row_gemm`] kernels over a
//! packed right operand, which a small dense×dense product reads in place
//! instead, parallel over row bands; one dot per row against a vector),
//! dense×sparse, sparse×sparse, and the fused `t(X) %*% Y` (tsmm-style)
//! kernel that avoids materializing the transpose.

use crate::dense::DenseMatrix;
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use crate::{par, pool, simd};

/// `C = A %*% B`. Panics on an inner-dimension mismatch.
pub fn matmult(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmult inner dimension mismatch: {}x{} %*% {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    match (a, b) {
        (Matrix::Dense(x), Matrix::Dense(y)) => Matrix::dense(dense_dense(x, y)),
        (Matrix::Sparse(x), Matrix::Dense(y)) => Matrix::dense(sparse_dense(x, y)),
        (Matrix::Dense(x), Matrix::Sparse(y)) => Matrix::dense(dense_sparse(x, y)),
        (Matrix::Sparse(x), Matrix::Sparse(y)) => sparse_sparse(x, y),
    }
}

/// `C = t(X) %*% Y` computed as `Σ_r outer(X[r,:], Y[r,:])` without forming
/// `t(X)`. When `x` and `y` are the same matrix this is SystemML's `tsmm`.
/// Parallelized over row bands with per-thread partial outputs.
pub fn tsmm_left(x: &Matrix, y: &Matrix) -> Matrix {
    assert_eq!(x.rows(), y.rows(), "tsmm_left requires equal row counts");
    let (m, n) = (x.cols(), y.cols());
    let rows = x.rows();
    let acc = par::par_map_reduce(
        rows,
        m * n,
        pool::take_zeroed(m * n),
        |lo, hi| {
            let mut c = pool::take_zeroed(m * n);
            match (x, y) {
                (Matrix::Dense(xd), Matrix::Dense(yd)) => {
                    for r in lo..hi {
                        let xr = xd.row(r);
                        let yr = yd.row(r);
                        for (i, &xv) in xr.iter().enumerate() {
                            if xv != 0.0 {
                                let crow = &mut c[i * n..(i + 1) * n];
                                for (j, &yv) in yr.iter().enumerate() {
                                    crow[j] += xv * yv;
                                }
                            }
                        }
                    }
                }
                (Matrix::Sparse(xs), Matrix::Dense(yd)) => {
                    for r in lo..hi {
                        let yr = yd.row(r);
                        for (i, xv) in xs.row_iter(r) {
                            let crow = &mut c[i * n..(i + 1) * n];
                            for (j, &yv) in yr.iter().enumerate() {
                                crow[j] += xv * yv;
                            }
                        }
                    }
                }
                _ => {
                    for r in lo..hi {
                        for i in 0..m {
                            let xv = x.get(r, i);
                            if xv != 0.0 {
                                for j in 0..n {
                                    c[i * n + j] += xv * y.get(r, j);
                                }
                            }
                        }
                    }
                }
            }
            c
        },
        |mut a, b| {
            for (av, bv) in a.iter_mut().zip(b.iter()) {
                *av += bv;
            }
            pool::give(b);
            a
        },
    );
    Matrix::dense(DenseMatrix::new(m, n, acc))
}

/// `b` in the packed-panel form [`simd::gemm`] and [`simd::sparse_row_gemm`]
/// read, in a pooled buffer the caller gives back.
fn packed(b: &DenseMatrix) -> Vec<f64> {
    let (k, n) = (b.rows(), b.cols());
    let mut bp = pool::take_zeroed(simd::packed_len(k, n));
    simd::pack_panels(b.values(), n, (k, n), &mut bp);
    bp
}

/// Whether [`dense_dense`] packs its `k×n` right operand for `m` rows of
/// the left one, rather than reading it where it is. Packing zeroes and
/// copies `b` once, and saves a little on every row that reads it: it is
/// paid back only by more than 32 rows, and only by more than 128 when `b`
/// fits in 32 KB (fitted to a sweep over `m`, `k`, `n` on AVX2+FMA, recorded
/// in BENCH_NOTES.md).
fn packs(m: usize, k: usize, n: usize) -> bool {
    m > 32 && (m > 128 || k * n * 8 > 32 << 10)
}

fn dense_dense(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    // Every element is written: one `dot` per row, or `gemm` without
    // accumulation.
    let mut out = pool::take_unzeroed(m * n);
    if n == 1 {
        // Matrix-vector: one dot per row, `b`'s values are the vector.
        par::par_rows_mut(&mut out, m, 1, k, |r, c| c[0] = simd::dot(a.row(r), b.values()));
    } else if m * n > 0 {
        // The register-blocked kernel the fused Row operators run, over row
        // bands that share one packed copy of `b` — or that read a small `b`
        // where it is, since `gemm` sums in the same order either way.
        let bp = packs(m, k, n).then(|| packed(b));
        let rhs = match &bp {
            Some(bp) => simd::Rhs::Packed(bp),
            None => simd::Rhs::Rows { data: b.values(), rs: n },
        };
        par::par_row_bands_mut(&mut out, m, n, k * n, |r0, band| {
            let lhs = simd::Lhs { data: &a.values()[r0 * k..], rs: k, cs: 1 };
            simd::gemm(band, n, (band.len() / n, n, k), lhs, rhs, false);
        });
        if let Some(bp) = bp {
            pool::give(bp);
        }
    }
    DenseMatrix::new(m, n, out)
}

fn sparse_dense(a: &SparseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    // `sparse_row_gemm` writes every element of its row (zero for an empty
    // one).
    let mut out = pool::take_unzeroed(m * n);
    if m * n > 0 {
        let bp = packed(b);
        par::par_rows_mut(&mut out, m, n, n.max(a.nnz() / m), |r, crow| {
            simd::sparse_row_gemm(a.row_values(r), a.row_cols(r), &bp, k, crow);
        });
        pool::give(bp);
    }
    DenseMatrix::new(m, n, out)
}

fn dense_sparse(a: &DenseMatrix, b: &SparseMatrix) -> DenseMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = pool::take_zeroed(m * n);
    par::par_rows_mut(&mut out, m, n, k.max(1), |r, crow| {
        let arow = a.row(r);
        for (ki, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                for (j, bv) in b.row_iter(ki) {
                    crow[j] += av * bv;
                }
            }
        }
    });
    DenseMatrix::new(m, n, out)
}

fn sparse_sparse(a: &SparseMatrix, b: &SparseMatrix) -> Matrix {
    let (m, n) = (a.rows(), b.cols());
    // Row-at-a-time with a dense accumulator row; output format decided from
    // the observed density, as SystemML does with its output sparsity
    // estimator.
    let mut triples: Vec<(usize, usize, f64)> = Vec::new();
    let mut accum = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();
    for r in 0..m {
        for (ki, av) in a.row_iter(r) {
            for (j, bv) in b.row_iter(ki) {
                if accum[j] == 0.0 {
                    touched.push(j);
                }
                accum[j] += av * bv;
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            if accum[j] != 0.0 {
                triples.push((r, j, accum[j]));
            }
            accum[j] = 0.0;
        }
        touched.clear();
    }
    let nnz = triples.len();
    let sp = SparseMatrix::from_triples(m, n, triples);
    if nnz * 2 > m * n {
        Matrix::dense(sp.to_dense())
    } else {
        Matrix::sparse(sp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Matrix, b: &Matrix) -> DenseMatrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = DenseMatrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.get(i, p) * b.get(p, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn rnd_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        // Small deterministic LCG to avoid pulling rand into unit tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            data.push(if v.abs() < 0.3 { 0.0 } else { v });
        }
        DenseMatrix::new(rows, cols, data)
    }

    #[test]
    fn dense_dense_matches_naive() {
        let a = Matrix::dense(rnd_dense(7, 5, 1));
        let b = Matrix::dense(rnd_dense(5, 9, 2));
        let c = matmult(&a, &b);
        assert!(c.approx_eq(&Matrix::dense(naive(&a, &b)), 1e-10));
    }

    /// Whether the rule packs or not, `matmult` returns the packed kernel's
    /// bits (`dot` per row for one column), on both SIMD legs: ragged widths
    /// around the 8-column panel, every row count across the 32- and
    /// 128-row edges, and right operands on both sides of 32 KB.
    #[test]
    fn in_place_rhs_is_bitwise_the_packed_path() {
        let _paths = simd::tests::path_lock();
        for force in [false, true] {
            simd::force_scalar(force);
            for n in 1..=17usize {
                // 2 KB at most, and just over 32 KB.
                for (k, ms) in [
                    (15, (1..=130).collect::<Vec<_>>()),
                    ((32 << 10) / (8 * n) + 1, vec![1, 2, 5, 31, 32, 33, 127, 128, 129, 130]),
                ] {
                    let b = rnd_dense(k, n, 11 + n as u64);
                    let mut bp = vec![0.0; simd::packed_len(k, n)];
                    simd::pack_panels(b.values(), n, (k, n), &mut bp);
                    for &m in &ms {
                        let a = rnd_dense(m, k, 13 + m as u64);
                        let mut want = vec![0.0; m * n];
                        if n == 1 {
                            for (r, w) in want.iter_mut().enumerate() {
                                *w = simd::dot(a.row(r), b.values());
                            }
                        } else {
                            let lhs = simd::Lhs { data: a.values(), rs: k, cs: 1 };
                            let rhs = simd::Rhs::Packed(&bp);
                            simd::gemm(&mut want, n, (m, n, k), lhs, rhs, false);
                        }
                        let got = dense_dense(&a, &b);
                        let same =
                            got.values().iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(same, "m={m} k={k} n={n} packs={} force={force}", packs(m, k, n));
                    }
                }
            }
        }
        simd::force_scalar(false);
    }

    #[test]
    fn all_format_combinations_agree() {
        let ad = rnd_dense(8, 6, 3);
        let bd = rnd_dense(6, 4, 4);
        let combos: Vec<(Matrix, Matrix)> = vec![
            (Matrix::dense(ad.clone()), Matrix::dense(bd.clone())),
            (Matrix::sparse(SparseMatrix::from_dense(&ad)), Matrix::dense(bd.clone())),
            (Matrix::dense(ad.clone()), Matrix::sparse(SparseMatrix::from_dense(&bd))),
            (
                Matrix::sparse(SparseMatrix::from_dense(&ad)),
                Matrix::sparse(SparseMatrix::from_dense(&bd)),
            ),
        ];
        let expect = Matrix::dense(naive(&combos[0].0, &combos[0].1));
        for (a, b) in &combos {
            let c = matmult(a, b);
            assert!(c.approx_eq(&expect, 1e-10));
        }
    }

    #[test]
    fn tsmm_left_matches_explicit_transpose() {
        let x = rnd_dense(10, 4, 5);
        let y = rnd_dense(10, 3, 6);
        let expect = {
            let xt = super::super::reorg::transpose(&Matrix::dense(x.clone()));
            matmult(&xt, &Matrix::dense(y.clone()))
        };
        let got = tsmm_left(&Matrix::dense(x.clone()), &Matrix::dense(y));
        assert!(got.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn tsmm_left_sparse_input() {
        let x = rnd_dense(12, 5, 7);
        let y = rnd_dense(12, 2, 8);
        let expect = tsmm_left(&Matrix::dense(x.clone()), &Matrix::dense(y.clone()));
        let got = tsmm_left(&Matrix::sparse(SparseMatrix::from_dense(&x)), &Matrix::dense(y));
        assert!(got.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn matrix_vector() {
        let a = Matrix::dense(DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let v = Matrix::dense(DenseMatrix::col_vector(&[1.0, 1.0]));
        let c = matmult(&a, &v);
        assert_eq!((c.rows(), c.cols()), (2, 1));
        assert_eq!(c.get(0, 0), 3.0);
        assert_eq!(c.get(1, 0), 7.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        matmult(&a, &b);
    }

    #[test]
    fn sparse_sparse_output_format() {
        // Nearly-empty product stays sparse.
        let a = Matrix::sparse(SparseMatrix::from_triples(100, 100, vec![(0, 0, 1.0)]));
        let b = Matrix::sparse(SparseMatrix::from_triples(100, 100, vec![(0, 5, 2.0)]));
        let c = matmult(&a, &b);
        assert!(c.is_sparse());
        assert_eq!(c.get(0, 5), 2.0);
        assert_eq!(c.nnz(), 1);
    }
}
