//! Row-major dense `f64` matrices.

use crate::buf::Buf;
use std::fmt;
use std::sync::Arc;

/// A row-major dense matrix of `f64` values.
///
/// This is the workhorse value type of the runtime. Row-major layout is
/// load-bearing: the Row template binds fused operators to contiguous row
/// slices, and the vector-primitive library operates on `&[f64]` row views.
///
/// A matrix is either the owner of its buffer or a *row band*: a window of
/// consecutive rows of another matrix that shares that matrix's buffer. A
/// band reads like any other matrix; the first mutable access copies its
/// window out (copy on write), so nothing ever writes through to the parent.
#[derive(Clone)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    /// The `rows * cols` cells. A band's parent always owns its cells (a band
    /// of a band points at the root).
    data: Buf<f64, DenseMatrix>,
}

impl PartialEq for DenseMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.values() == other.values()
    }
}

impl DenseMatrix {
    /// Creates a matrix from a row-major buffer. Panics if the buffer length
    /// does not match `rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense buffer geometry mismatch");
        DenseMatrix { rows, cols, data: Buf::owned(data) }
    }

    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::new(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self::new(rows, cols, vec![value; rows * cols])
    }

    /// Creates an identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Self::new(n, n, data)
    }

    /// Creates a column vector from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Self::new(values.len(), 1, values.to_vec())
    }

    /// Creates a row vector from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::new(1, values.len(), values.to_vec())
    }

    /// Builds a matrix from a nested-array literal (row slices).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self::new(r, c, data)
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows `[r0, r1)` of `parent` as a matrix that shares `parent`'s buffer:
    /// O(1), no cell is copied. The band keeps the buffer alive.
    pub(crate) fn row_band(parent: &Arc<DenseMatrix>, r0: usize, r1: usize) -> DenseMatrix {
        assert!(r0 <= r1 && r1 <= parent.rows, "row band out of range");
        let cols = parent.cols;
        let root = parent.data.parent().unwrap_or(parent);
        // SAFETY: the window lies in the buffer `root` owns (`parent`'s own,
        // or the one `parent` is itself a window of). Every method that
        // writes, moves or frees an owned buffer takes `&mut self` or `self`,
        // which nobody can get on `root` while this `Arc` clone exists.
        let data = unsafe { Buf::window(Arc::clone(root), &parent.values()[r0 * cols..r1 * cols]) };
        DenseMatrix { rows: r1 - r0, cols, data }
    }

    /// True when the cells live in another matrix's buffer.
    #[inline]
    pub(crate) fn is_band(&self) -> bool {
        self.data.parent().is_some()
    }

    /// Raw row-major value buffer.
    #[inline]
    pub fn values(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable raw row-major value buffer (a band copies on first write).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.data.make_mut()
    }

    /// Consumes the matrix, returning its buffer (a band returns a copy of
    /// its window).
    pub fn into_values(self) -> Vec<f64> {
        self.data.into_vec()
    }

    /// Consumes a dying matrix and shelves its buffer in the scoped buffer
    /// pool. A band shelves nothing of its own; it releases its hold on the
    /// parent, whose buffer is shelved only if that was the last hold.
    pub(crate) fn recycle(self) {
        self.data.recycle(crate::pool::give, DenseMatrix::recycle);
    }

    /// Cell accessor (bounds-checked in debug builds only on the multiply).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.values()[r * self.cols + c]
    }

    /// Cell mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        let i = r * self.cols + c;
        self.values_mut()[i] = v;
    }

    /// Contiguous view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.values()[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable contiguous view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        let c = self.cols;
        &mut self.values_mut()[r * c..(r + 1) * c]
    }

    /// Number of non-zero cells (exact scan).
    pub fn count_nnz(&self) -> usize {
        self.values().iter().filter(|&&v| v != 0.0).count()
    }

    /// Fraction of non-zero cells in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.count_nnz() as f64 / self.len() as f64
    }

    /// Reinterprets the geometry without copying (`rows*cols` must be
    /// preserved). Used by reshape-style operations.
    pub fn reshaped(mut self, rows: usize, cols: usize) -> Self {
        assert_eq!(rows * cols, self.len(), "reshape must preserve cell count");
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// In-place map over all cells.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64 + Sync) {
        let cols = self.cols.max(1);
        let rows = self.rows;
        crate::par::par_rows_mut(self.values_mut(), rows, cols, cols, |_, row| {
            for v in row.iter_mut() {
                *v = f(*v);
            }
        });
    }

    /// True if this is a column vector (n×1) or row vector (1×n).
    pub fn is_vector(&self) -> bool {
        self.rows == 1 || self.cols == 1
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            writeln!(f, "  [{}{}]", shown.join(", "), if self.cols > 8 { ", …" } else { "" })?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let m = DenseMatrix::identity(4);
        assert_eq!(m.count_nnz(), 4);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 1.0);
        }
    }

    #[test]
    fn set_and_nnz() {
        let mut m = DenseMatrix::zeros(3, 3);
        assert_eq!(m.count_nnz(), 0);
        m.set(1, 2, 5.0);
        assert_eq!(m.count_nnz(), 1);
        assert!((m.sparsity() - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn map_inplace_applies_everywhere() {
        let mut m = DenseMatrix::filled(10, 10, 2.0);
        m.map_inplace(|v| v * v);
        assert!(m.values().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn reshape_preserves_data() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let r = m.reshaped(3, 2);
        assert_eq!(r.get(0, 0), 1.0);
        assert_eq!(r.get(2, 1), 6.0);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn bad_geometry_panics() {
        let _ = DenseMatrix::new(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn vectors() {
        assert!(DenseMatrix::col_vector(&[1.0, 2.0]).is_vector());
        assert!(DenseMatrix::row_vector(&[1.0, 2.0]).is_vector());
        assert!(!DenseMatrix::zeros(2, 2).is_vector());
    }
}
