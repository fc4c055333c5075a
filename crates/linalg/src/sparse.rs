//! CSR (compressed sparse row) matrices.
//!
//! Value and index buffers of freshly built CSR matrices are drawn from the
//! current scope's buffer pool ([`crate::pool`]) and return to it when the
//! matrix is recycled, so sparse fused-operator outputs reach the same
//! steady-state zero-allocation behaviour as dense ones.

use crate::buf::Buf;
use crate::dense::DenseMatrix;
use crate::pool;
use std::fmt;
use std::sync::Arc;

/// A CSR sparse matrix of `f64` values.
///
/// `row_ptr` has `rows + 1` entries; row `r`'s non-zeros live at positions
/// `row_ptr[r]..row_ptr[r+1]` of `col_idx` / `values`, with `col_idx` strictly
/// increasing within each row. Zero-valued explicit entries are not stored.
///
/// A matrix is either the owner of its buffers or a *row band*: a window of
/// consecutive rows of another matrix that shares that matrix's `col_idx` /
/// `values` and owns only its rebased `row_ptr`. Every accessor presents the
/// window (`row_ptr()[0] == 0`, `nnz()` counts the band); the first mutable
/// access copies the window out, so nothing writes through to the parent.
#[derive(Clone)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    /// Both owned, or both windows of the same parent, which owns its
    /// buffers (a band of a band points at the root).
    col_idx: Buf<usize, SparseMatrix>,
    values: Buf<f64, SparseMatrix>,
}

impl PartialEq for SparseMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_indices() == other.col_indices()
            && self.values() == other.values()
    }
}

impl fmt::Debug for SparseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SparseMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("row_ptr", &self.row_ptr)
            .field("col_idx", &self.col_indices())
            .field("values", &self.values())
            .finish()
    }
}

impl SparseMatrix {
    /// Creates a CSR matrix from raw parts, validating the invariants.
    pub fn from_csr(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), values.len(), "col/val length mismatch");
        assert_eq!(*row_ptr.last().unwrap_or(&0), values.len(), "row_ptr tail");
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr monotone");
        debug_assert!(
            (0..rows).all(|r| {
                let s = &col_idx[row_ptr[r]..row_ptr[r + 1]];
                s.windows(2).all(|w| w[0] < w[1]) && s.iter().all(|&c| c < cols)
            }),
            "col_idx sorted and in range"
        );
        Self::from_parts(rows, cols, row_ptr, col_idx, values)
    }

    fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx: Buf::owned(col_idx),
            values: Buf::owned(values),
        }
    }

    /// Creates an empty (all-zero) sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_parts(rows, cols, vec![0; rows + 1], Vec::new(), Vec::new())
    }

    /// Builds a CSR matrix from (row, col, value) triples; duplicates are
    /// summed, zeros dropped. Buffers come from the scoped pool.
    pub fn from_triples(rows: usize, cols: usize, mut triples: Vec<(usize, usize, f64)>) -> Self {
        triples.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut counts = vec![0usize; rows + 1];
        let mut col_idx = pool::take_indices(triples.len());
        let mut values = pool::take_values(triples.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in triples {
            assert!(r < rows && c < cols, "triple out of range");
            if last == Some((r, c)) {
                *values.last_mut().expect("non-empty") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                counts[r + 1] += 1;
                last = Some((r, c));
            }
        }
        // Drop explicit zeros produced by cancellation.
        let mut keep_col = pool::take_indices(col_idx.len());
        let mut keep_val = pool::take_values(values.len());
        let mut ptr = pool::take_indices(rows + 1);
        ptr.push(0);
        let mut pos = 0usize;
        for r in 0..rows {
            let cnt = counts[r + 1];
            for _ in 0..cnt {
                if values[pos] != 0.0 {
                    keep_col.push(col_idx[pos]);
                    keep_val.push(values[pos]);
                }
                pos += 1;
            }
            ptr.push(keep_col.len());
        }
        pool::give_indices(col_idx);
        pool::give(values);
        Self::from_parts(rows, cols, ptr, keep_col, keep_val)
    }

    /// Converts a dense matrix to CSR, skipping zero cells. Buffers come from
    /// the scoped pool.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let rows = d.rows();
        let cols = d.cols();
        let mut row_ptr = pool::take_indices(rows + 1);
        row_ptr.push(0);
        let nnz = d.count_nnz();
        let mut col_idx = pool::take_indices(nnz);
        let mut values = pool::take_values(nnz);
        for r in 0..rows {
            for (c, &v) in d.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self::from_parts(rows, cols, row_ptr, col_idx, values)
    }

    /// Rows `[r0, r1)` of `parent` as a matrix that shares `parent`'s
    /// `col_idx` / `values`: O(rows of the band), no non-zero is copied. Only
    /// the rebased row pointers are new. The band keeps the parent's buffers
    /// alive.
    pub(crate) fn row_band(parent: &Arc<SparseMatrix>, r0: usize, r1: usize) -> SparseMatrix {
        assert!(r0 <= r1 && r1 <= parent.rows, "row band out of range");
        let (lo, hi) = (parent.row_ptr[r0], parent.row_ptr[r1]);
        let row_ptr = parent.row_ptr[r0..=r1].iter().map(|&p| p - lo).collect();
        let root = parent.values.parent().unwrap_or(parent);
        // SAFETY: both windows lie in the buffers `root` owns (`parent`'s
        // own, or those `parent` is itself a window of). Every method that
        // writes, moves or frees owned buffers takes `&mut self` or `self`,
        // which nobody can get on `root` while these `Arc` clones exist.
        let col_idx = unsafe { Buf::window(Arc::clone(root), &parent.col_indices()[lo..hi]) };
        // SAFETY: as for `col_idx`, just above.
        let values = unsafe { Buf::window(Arc::clone(root), &parent.values()[lo..hi]) };
        SparseMatrix { rows: r1 - r0, cols: parent.cols, row_ptr, col_idx, values }
    }

    /// True when the non-zeros live in another matrix's buffers.
    #[inline]
    pub(crate) fn is_band(&self) -> bool {
        self.values.parent().is_some()
    }

    /// Consumes a dying matrix and shelves its buffers in the scoped buffer
    /// pool. A band shelves its row pointers and releases its holds on the
    /// parent, whose buffers are shelved only if those were the last.
    pub(crate) fn recycle(self) {
        pool::give_indices(self.row_ptr);
        self.col_idx.recycle(pool::give_indices, SparseMatrix::recycle);
        self.values.recycle(pool::give, SparseMatrix::recycle);
    }

    /// Materializes as a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let row = out.row_mut(r);
            for (c, v) in self.row_iter(r) {
                row[c] = v;
            }
        }
        out
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values().len()
    }

    /// Fraction of non-zero cells.
    pub fn sparsity(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// The non-zero column indices of row `r`.
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_indices()[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// The non-zero values of row `r`.
    #[inline]
    pub fn row_values(&self, r: usize) -> &[f64] {
        &self.values()[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Mutable values of row `r` (indices fixed).
    #[inline]
    pub fn row_values_mut(&mut self, r: usize) -> &mut [f64] {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        &mut self.values.make_mut()[s..e]
    }

    /// Number of non-zeros in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Iterator over `(col, value)` pairs of row `r`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row_cols(r).iter().copied().zip(self.row_values(r).iter().copied())
    }

    /// All raw values (across rows).
    #[inline]
    pub fn values(&self) -> &[f64] {
        self.values.as_slice()
    }

    /// All raw values, mutable (a band copies on first write). Callers must
    /// not write zeros (they would remain stored); use
    /// [`SparseMatrix::compact`] afterwards if they might.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.values.make_mut()
    }

    /// Rows `r0..r0 + h` as the sparse `simd` kernels take them.
    #[inline]
    pub fn csr_rows(&self, r0: usize, h: usize) -> crate::simd::CsrRows<'_> {
        crate::simd::CsrRows {
            ptr: &self.row_ptr[r0..=r0 + h],
            cols: self.col_indices(),
            vals: self.values(),
        }
    }

    /// Raw CSR row pointer array.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw CSR column index array.
    #[inline]
    pub fn col_indices(&self) -> &[usize] {
        self.col_idx.as_slice()
    }

    /// Point lookup via binary search within the row (O(log nnz(r))).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        match self.row_cols(r).binary_search(&c) {
            Ok(pos) => self.row_values(r)[pos],
            Err(_) => 0.0,
        }
    }

    /// Removes stored zeros (after value mutation that may have produced
    /// them), preserving CSR invariants.
    pub fn compact(&mut self) {
        let mut w = 0usize;
        let mut new_ptr = vec![0usize; self.rows + 1];
        let (col_idx, values) = (self.col_idx.make_mut(), self.values.make_mut());
        for r in 0..self.rows {
            for p in self.row_ptr[r]..self.row_ptr[r + 1] {
                if values[p] != 0.0 {
                    values[w] = values[p];
                    col_idx[w] = col_idx[p];
                    w += 1;
                }
            }
            new_ptr[r + 1] = w;
        }
        self.values.truncate(w);
        self.col_idx.truncate(w);
        self.row_ptr = new_ptr;
    }

    /// Transposes via a two-pass counting strategy (O(nnz + rows + cols)).
    pub fn transpose(&self) -> SparseMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in self.col_indices() {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = counts;
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                let pos = next[c];
                next[c] += 1;
                col_idx[pos] = r;
                values[pos] = v;
            }
        }
        Self::from_parts(self.cols, self.rows, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        SparseMatrix::from_triples(3, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn triples_roundtrip() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
    }

    #[test]
    fn duplicate_triples_are_summed() {
        let m = SparseMatrix::from_triples(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn cancelling_triples_are_dropped() {
        let m = SparseMatrix::from_triples(2, 2, vec![(0, 0, 1.0), (0, 0, -1.0)]);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn dense_roundtrip() {
        let d = DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 0.0], &[3.0, 4.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s, sample());
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn transpose_is_involution() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 2), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn compact_removes_zeros() {
        let mut m = sample();
        m.row_values_mut(0)[0] = 0.0;
        m.compact();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
    }

    #[test]
    fn row_views() {
        let m = sample();
        assert_eq!(m.row_cols(2), &[0, 1]);
        assert_eq!(m.row_values(2), &[3.0, 4.0]);
        assert_eq!(m.row_nnz(1), 0);
    }
}
