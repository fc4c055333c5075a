//! Seeded input generation. Everything a workload binds is made here from
//! `--seed`; the engine under test only ever sees the generated matrices.
//!
//! Sparse inputs carry **exactly** `round(sparsity·cols)` non-zeros in every
//! row, so the amount of work (and the sparsity the planner costs with) does
//! not move with the seed — only the positions and values do.

use fusedml_linalg::{DenseMatrix, Matrix, SparseMatrix};

/// SplitMix64: tiny, fast, and good enough for benchmark inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input of one run: the stream depends on
    /// both, so two inputs of a run never share values.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = Fnv::default();
        h.bytes(stream.as_bytes());
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h.0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over bytes: the input checksum printed in every summary, so two
/// runs can show they measured the same inputs.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a matrix in: shape, then every stored value (and, for CSR, its
    /// column).
    pub fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        match m {
            Matrix::Dense(d) => d.values().iter().for_each(|v| self.u64(v.to_bits())),
            Matrix::Sparse(s) => {
                s.col_indices().iter().for_each(|&c| self.u64(c as u64));
                s.values().iter().for_each(|v| self.u64(v.to_bits()));
            }
        }
    }
}

/// Dense uniform matrix in `[lo, hi)`.
pub fn dense(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut Rng) -> Matrix {
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.range(lo, hi)).collect();
    Matrix::dense(DenseMatrix::new(rows, cols, data))
}

/// Non-zeros per row of a `cols`-wide matrix at the given sparsity (≥ 1).
pub fn nnz_per_row(cols: usize, sparsity: f64) -> usize {
    ((cols as f64 * sparsity).round() as usize).clamp(1, cols)
}

/// CSR matrix with exactly [`nnz_per_row`] non-zeros in every row, at
/// distinct uniformly drawn columns, values in `[lo, hi)` and never zero.
pub fn sparse(rows: usize, cols: usize, sparsity: f64, lo: f64, hi: f64, rng: &mut Rng) -> Matrix {
    let k = nnz_per_row(cols, sparsity);
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut col_idx = Vec::with_capacity(rows * k);
    let mut values = Vec::with_capacity(rows * k);
    row_ptr.push(0);
    for _ in 0..rows {
        let start = col_idx.len();
        if k * 8 < cols {
            // Few of many: draw, reject repeats, sort.
            while col_idx.len() - start < k {
                let c = rng.below(cols);
                if !col_idx[start..].contains(&c) {
                    col_idx.push(c);
                }
            }
            col_idx[start..].sort_unstable();
        } else {
            // Selection sampling (Knuth 3.4.2 S): already in column order.
            let mut need = k;
            for c in 0..cols {
                if rng.below(cols - c) < need {
                    col_idx.push(c);
                    need -= 1;
                }
            }
        }
        for _ in 0..k {
            let v = rng.range(lo, hi);
            values.push(if v == 0.0 { hi } else { v });
        }
        row_ptr.push(col_idx.len());
    }
    Matrix::sparse(SparseMatrix::from_csr(rows, cols, row_ptr, col_idx, values))
}

/// A sparse or dense feature matrix by the repository's own storage rule
/// (`Matrix::auto`: CSR below sparsity 0.4): dense storage gets zeros at the
/// non-selected positions, still exactly `nnz_per_row` non-zeros per row.
pub fn features(rows: usize, cols: usize, sparsity: f64, rng: &mut Rng) -> Matrix {
    if sparsity >= 1.0 {
        return dense(rows, cols, -1.0, 1.0, rng);
    }
    let m = sparse(rows, cols, sparsity, -1.0, 1.0, rng);
    Matrix::auto(m.to_dense())
}

/// `±1` labels from a seeded hyperplane over `x` (5 % flipped).
pub fn binary_labels(x: &Matrix, rng: &mut Rng) -> Matrix {
    let w: Vec<f64> = (0..x.cols()).map(|_| rng.range(-1.0, 1.0)).collect();
    let y: Vec<f64> = (0..x.rows())
        .map(|r| {
            let score: f64 = (0..x.cols()).map(|c| x.get(r, c) * w[c]).sum();
            let label = if score >= 0.0 { 1.0 } else { -1.0 };
            if rng.unit() < 0.05 {
                -label
            } else {
                label
            }
        })
        .collect();
    Matrix::dense(DenseMatrix::new(x.rows(), 1, y))
}

/// Class labels in `1..=k`.
pub fn class_labels(rows: usize, k: usize, rng: &mut Rng) -> Matrix {
    let y: Vec<f64> = (0..rows).map(|_| (rng.below(k) + 1) as f64).collect();
    Matrix::dense(DenseMatrix::new(rows, 1, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checksum(m: &Matrix) -> u64 {
        let mut h = Fnv::default();
        h.matrix(m);
        h.0
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = dense(50, 20, -1.0, 1.0, &mut Rng::new(7, "X"));
        let b = dense(50, 20, -1.0, 1.0, &mut Rng::new(7, "X"));
        let c = dense(50, 20, -1.0, 1.0, &mut Rng::new(8, "X"));
        let d = dense(50, 20, -1.0, 1.0, &mut Rng::new(7, "Y"));
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
        assert_ne!(checksum(&a), checksum(&d));
    }

    #[test]
    fn sparse_rows_carry_exactly_the_stated_non_zeros() {
        for (cols, sp) in [(1000, 0.1), (1000, 0.01), (2000, 0.001), (100, 0.25), (40, 0.9)] {
            let m = sparse(64, cols, sp, 1.0, 5.0, &mut Rng::new(3, "S"));
            let s = m.as_sparse();
            let k = nnz_per_row(cols, sp);
            for r in 0..64 {
                assert_eq!(s.row_nnz(r), k);
                assert!(s.row_cols(r).windows(2).all(|w| w[0] < w[1]));
                assert!(s.row_cols(r).iter().all(|&c| c < cols));
                assert!(s.row_values(r).iter().all(|&v| v != 0.0));
            }
        }
    }

    #[test]
    fn features_choose_storage_like_the_repository() {
        assert!(features(200, 100, 0.1, &mut Rng::new(1, "F")).is_sparse());
        let quarter = features(400, 100, 0.25, &mut Rng::new(1, "F"));
        assert_eq!(quarter.nnz(), 400 * 25);
        assert!(!features(200, 100, 1.0, &mut Rng::new(1, "F")).is_sparse());
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = Rng::new(1, "u");
        assert!((0..10_000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
