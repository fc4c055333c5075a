//! Format-polymorphic matrix wrapper (the analogue of SystemML's
//! `MatrixBlock`), plus scalar values.

use crate::dense::DenseMatrix;
use crate::sparse::SparseMatrix;
use std::borrow::Cow;
use std::sync::Arc;

/// Threshold below which matrices are kept dense regardless of sparsity.
pub const SPARSE_THRESHOLD: f64 = 0.4;
/// Minimum cell count before the sparse format is considered.
pub const SPARSE_MIN_CELLS: usize = 4096;

/// A matrix in either dense or CSR-sparse representation.
///
/// Values are cheap to clone: the payload is reference-counted, matching the
/// copy-on-write behaviour of SystemML's buffer pool (intermediates are
/// logically immutable once produced by an operator).
#[derive(Clone, Debug)]
pub enum Matrix {
    Dense(Arc<DenseMatrix>),
    Sparse(Arc<SparseMatrix>),
}

impl Matrix {
    /// Wraps a dense matrix.
    pub fn dense(m: DenseMatrix) -> Self {
        Matrix::Dense(Arc::new(m))
    }

    /// Wraps a sparse matrix.
    pub fn sparse(m: SparseMatrix) -> Self {
        Matrix::Sparse(Arc::new(m))
    }

    /// Chooses the storage format by SystemML's rule of thumb: CSR iff the
    /// matrix is large and sparsity is below [`SPARSE_THRESHOLD`].
    pub fn auto(m: DenseMatrix) -> Self {
        if m.len() >= SPARSE_MIN_CELLS && m.sparsity() < SPARSE_THRESHOLD {
            Matrix::sparse(SparseMatrix::from_dense(&m))
        } else {
            Matrix::dense(m)
        }
    }

    /// An all-zeros matrix in dense format.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::dense(DenseMatrix::zeros(rows, cols))
    }

    pub fn rows(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.rows(),
            Matrix::Sparse(m) => m.rows(),
        }
    }

    pub fn cols(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.cols(),
            Matrix::Sparse(m) => m.cols(),
        }
    }

    /// Total cell count.
    pub fn len(&self) -> usize {
        self.rows() * self.cols()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_sparse(&self) -> bool {
        matches!(self, Matrix::Sparse(_))
    }

    /// Exact number of non-zero cells.
    pub fn nnz(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.count_nnz(),
            Matrix::Sparse(m) => m.nnz(),
        }
    }

    /// Fraction of non-zeros.
    pub fn sparsity(&self) -> f64 {
        match self {
            Matrix::Dense(m) => m.sparsity(),
            Matrix::Sparse(m) => m.sparsity(),
        }
    }

    /// Point lookup.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        match self {
            Matrix::Dense(m) => m.get(r, c),
            Matrix::Sparse(m) => m.get(r, c),
        }
    }

    /// Materializes a dense copy (an owned dense payload is copied too; the
    /// crate's kernels borrow it through `dense_view` instead).
    pub fn to_dense(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(m) => (**m).clone(),
            Matrix::Sparse(m) => m.to_dense(),
        }
    }

    /// The cells as a dense matrix: the dense payload borrowed, a sparse one
    /// densified. (Unlike [`Matrix::to_dense`], a dense operand is never
    /// copied.)
    pub(crate) fn dense_view(&self) -> Cow<'_, DenseMatrix> {
        match self {
            Matrix::Dense(m) => Cow::Borrowed(m),
            Matrix::Sparse(m) => Cow::Owned(m.to_dense()),
        }
    }

    /// Zero-copy borrow of a dense matrix's row-major values — for n×1 / 1×n
    /// matrices this is exactly the vector. `None` for sparse matrices.
    pub fn dense_values(&self) -> Option<&[f64]> {
        match self {
            Matrix::Dense(m) => Some(m.values()),
            Matrix::Sparse(_) => None,
        }
    }

    /// Dense row-major values, densifying once if sparse (a fused operator's
    /// `vectMatMult` side, where repeated row access dominates).
    pub fn to_dense_values(&self) -> Cow<'_, [f64]> {
        match self {
            Matrix::Dense(m) => Cow::Borrowed(m.values()),
            Matrix::Sparse(m) => Cow::Owned(m.to_dense().into_values()),
        }
    }

    /// Copies row `rix` columns `cl..cu` into `buf`, densifying a sparse
    /// row; rows broadcast when the matrix has a single row.
    pub fn read_row_into(&self, rix: usize, cl: usize, cu: usize, buf: &mut [f64]) {
        let r = if self.rows() == 1 { 0 } else { rix };
        debug_assert_eq!(buf.len(), cu - cl);
        match self {
            Matrix::Dense(m) => buf.copy_from_slice(&m.row(r)[cl..cu]),
            Matrix::Sparse(m) => {
                buf.fill(0.0);
                for (c, v) in m.row_iter(r) {
                    if c >= cl && c < cu {
                        buf[c - cl] = v;
                    }
                }
            }
        }
    }

    /// Copies an n×1 or 1×n matrix into `buf` as a flat vector.
    pub fn read_vector_into(&self, buf: &mut [f64]) {
        match self {
            Matrix::Dense(m) => buf.copy_from_slice(m.values()),
            Matrix::Sparse(m) => {
                buf.fill(0.0);
                if m.cols() == 1 {
                    for (r, slot) in buf.iter_mut().enumerate().take(m.rows()) {
                        for (_, v) in m.row_iter(r) {
                            *slot = v;
                        }
                    }
                } else {
                    for (c, v) in m.row_iter(0) {
                        buf[c] = v;
                    }
                }
            }
        }
    }

    /// Borrows the dense payload, panicking for sparse matrices (used where
    /// the caller has already guaranteed density, e.g. side inputs of Outer).
    pub fn as_dense(&self) -> &DenseMatrix {
        match self {
            Matrix::Dense(m) => m,
            Matrix::Sparse(_) => panic!("expected dense matrix"),
        }
    }

    /// Borrows the sparse payload, panicking for dense matrices.
    pub fn as_sparse(&self) -> &SparseMatrix {
        match self {
            Matrix::Sparse(m) => m,
            Matrix::Dense(_) => panic!("expected sparse matrix"),
        }
    }

    /// Converts to CSR (no-op for sparse inputs).
    pub fn to_sparse(&self) -> SparseMatrix {
        match self {
            Matrix::Dense(m) => SparseMatrix::from_dense(m),
            Matrix::Sparse(m) => (**m).clone(),
        }
    }

    /// True for n×1 or 1×n matrices.
    pub fn is_vector(&self) -> bool {
        self.rows() == 1 || self.cols() == 1
    }

    /// True for 1×1 matrices.
    pub fn is_scalar_shaped(&self) -> bool {
        self.rows() == 1 && self.cols() == 1
    }

    /// True when this handle is the only reference to a payload that owns
    /// its buffers — the precondition for spilling (dropping a shared payload
    /// frees nothing) and for in-place reuse. A row band ([`Matrix::row_slice`])
    /// never qualifies: its buffers belong to the matrix it was cut from.
    pub fn is_uniquely_owned(&self) -> bool {
        match self {
            Matrix::Dense(m) => Arc::strong_count(m) == 1 && !m.is_band(),
            Matrix::Sparse(m) => Arc::strong_count(m) == 1 && !m.is_band(),
        }
    }

    /// In-memory size estimate in bytes (8B/cell dense; 16B/nnz + row
    /// pointers sparse), mirroring SystemML's memory estimates.
    pub fn size_in_bytes(&self) -> usize {
        match self {
            Matrix::Dense(m) => 8 * m.len(),
            Matrix::Sparse(m) => 16 * m.nnz() + 8 * (m.rows() + 1),
        }
    }

    /// Consumes a dying matrix, returning its buffers to the scoped buffer
    /// pool when this is the last reference (shared payloads are simply
    /// dropped). Dense matrices recycle their value buffer; sparse matrices
    /// recycle the CSR value and index buffers. A buffer reaches the pool
    /// only once nothing can read it any more: a row band gives up its hold
    /// on the matrix it was cut from, and a matrix with live bands keeps its
    /// buffers until the last of them dies. Call sites that know a value is
    /// dead use this instead of `drop` so the next allocation is a pool hit.
    pub fn recycle(self) {
        match self {
            Matrix::Dense(a) => {
                if let Some(d) = Arc::into_inner(a) {
                    d.recycle();
                }
            }
            Matrix::Sparse(a) => {
                if let Some(s) = Arc::into_inner(a) {
                    s.recycle();
                }
            }
        }
    }

    /// Attempts to take sole ownership of the dense payload (for in-place
    /// reuse of a dying input as an operator output). Returns the matrix
    /// unchanged when it is sparse, the payload is shared, or it is a row
    /// band (whose cells are not its own to overwrite).
    pub fn try_into_dense(self) -> Result<DenseMatrix, Matrix> {
        match self {
            Matrix::Dense(a) if !a.is_band() => Arc::try_unwrap(a).map_err(Matrix::Dense),
            other => Err(other),
        }
    }

    /// Rows `[r0, r1)` as a matrix of the same storage format that shares
    /// this matrix's buffers: a dense band borrows the value buffer by
    /// offset, a CSR band borrows `col_idx` / `values` and owns only its
    /// rebased row pointers, so no cell is copied. This is the shard
    /// partitioner: a row-partitioned plan slices the main (and any
    /// row-aligned sides) with it, and per-shard execution sees ordinary
    /// matrices that scan their partition where it already lies. A band
    /// copies on its first mutable access and never writes through.
    pub fn row_slice(&self, r0: usize, r1: usize) -> Matrix {
        match self {
            Matrix::Dense(m) => Matrix::dense(DenseMatrix::row_band(m, r0, r1)),
            Matrix::Sparse(m) => Matrix::sparse(SparseMatrix::row_band(m, r0, r1)),
        }
    }

    /// Vertically concatenates row-partition results back into one matrix —
    /// the inverse of [`Matrix::row_slice`] over a full partitioning. Format
    /// is preserved exactly: all-sparse parts concatenate in CSR (the triples
    /// are copied verbatim, so a sliced-then-merged sparse value is bitwise
    /// identical to the unsliced one), any dense part densifies the result.
    /// The result's buffers come from the scoped pool.
    pub fn concat_rows(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat of zero parts");
        let cols = parts[0].cols();
        assert!(parts.iter().all(|p| p.cols() == cols), "column mismatch in row concat");
        let rows: usize = parts.iter().map(|p| p.rows()).sum();
        if parts.iter().all(|p| p.is_sparse()) {
            let nnz: usize = parts.iter().map(|p| p.nnz()).sum();
            let mut row_ptr = crate::pool::take_indices(rows + 1);
            let mut col_idx = crate::pool::take_indices(nnz);
            let mut values = crate::pool::take_values(nnz);
            row_ptr.push(0usize);
            let mut base = 0usize;
            for p in parts {
                let s = p.as_sparse();
                row_ptr.extend(s.row_ptr()[1..].iter().map(|&p| p + base));
                col_idx.extend_from_slice(s.col_indices());
                values.extend_from_slice(s.values());
                base += s.nnz();
            }
            Matrix::sparse(SparseMatrix::from_csr(rows, cols, row_ptr, col_idx, values))
        } else {
            let mut values = crate::pool::take_values(rows * cols);
            for p in parts {
                match p {
                    Matrix::Dense(m) => values.extend_from_slice(m.values()),
                    Matrix::Sparse(_) => values.extend_from_slice(p.to_dense().values()),
                }
            }
            Matrix::dense(DenseMatrix::new(rows, cols, values))
        }
    }

    /// Structural + numeric equality within tolerance, independent of format.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        if self.rows() != other.rows() || self.cols() != other.cols() {
            return false;
        }
        for r in 0..self.rows() {
            for c in 0..self.cols() {
                if !crate::approx_eq(self.get(r, c), other.get(r, c), tol) {
                    return false;
                }
            }
        }
        true
    }
}

impl From<DenseMatrix> for Matrix {
    fn from(m: DenseMatrix) -> Self {
        Matrix::dense(m)
    }
}

impl From<SparseMatrix> for Matrix {
    fn from(m: SparseMatrix) -> Self {
        Matrix::sparse(m)
    }
}

/// A runtime value: matrix or scalar (SystemML scripts freely mix both).
#[derive(Clone, Debug)]
pub enum Value {
    Matrix(Matrix),
    Scalar(f64),
}

impl Value {
    /// The scalar payload; panics on matrices (callers check kinds upstream).
    pub fn as_scalar(&self) -> f64 {
        match self {
            Value::Scalar(v) => *v,
            Value::Matrix(m) if m.is_scalar_shaped() => m.get(0, 0),
            Value::Matrix(_) => panic!("expected scalar value"),
        }
    }

    /// The matrix payload; a scalar is promoted to 1×1.
    pub fn as_matrix(&self) -> Matrix {
        match self {
            Value::Matrix(m) => m.clone(),
            Value::Scalar(v) => Matrix::dense(DenseMatrix::filled(1, 1, *v)),
        }
    }

    /// Moves the matrix payload out without touching the reference count
    /// (callers that own the value keep unique ownership of the buffer).
    pub fn into_matrix(self) -> Matrix {
        match self {
            Value::Matrix(m) => m,
            Value::Scalar(v) => Matrix::dense(DenseMatrix::filled(1, 1, v)),
        }
    }

    pub fn is_scalar(&self) -> bool {
        matches!(self, Value::Scalar(_))
    }

    /// In-memory size in bytes (scalars charge one cell).
    pub fn size_in_bytes(&self) -> usize {
        match self {
            Value::Scalar(_) => 8,
            Value::Matrix(m) => m.size_in_bytes(),
        }
    }

    /// Recycles a dying value's buffer into the pool (see [`Matrix::recycle`]).
    pub fn recycle(self) {
        if let Value::Matrix(m) = self {
            m.recycle();
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Scalar(v)
    }
}

impl From<Matrix> for Value {
    fn from(m: Matrix) -> Self {
        Value::Matrix(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_picks_sparse_for_sparse_data() {
        let mut d = DenseMatrix::zeros(100, 100);
        d.set(0, 0, 1.0);
        let m = Matrix::auto(d);
        assert!(m.is_sparse());
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn auto_keeps_dense_for_dense_data() {
        let m = Matrix::auto(DenseMatrix::filled(100, 100, 1.0));
        assert!(!m.is_sparse());
    }

    #[test]
    fn small_matrices_stay_dense() {
        let m = Matrix::auto(DenseMatrix::zeros(4, 4));
        assert!(!m.is_sparse());
    }

    #[test]
    fn approx_eq_across_formats() {
        let d = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let a = Matrix::dense(d.clone());
        let b = Matrix::sparse(SparseMatrix::from_dense(&d));
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn value_promotions() {
        let v = Value::Scalar(3.0);
        assert_eq!(v.as_scalar(), 3.0);
        let m = v.as_matrix();
        assert_eq!((m.rows(), m.cols()), (1, 1));
        assert_eq!(Value::Matrix(m).as_scalar(), 3.0);
    }

    #[test]
    fn sparse_recycle_returns_csr_buffers_to_pool() {
        let pool = crate::pool::BufferPool::handle();
        let _scope = crate::pool::enter(&pool);
        // Large enough that values/col_idx/row_ptr all clear the pooling
        // threshold.
        let mut d = DenseMatrix::zeros(100, 100);
        for i in 0..100 {
            for j in 0..100 {
                if (i + j) % 7 == 0 {
                    d.set(i, j, 1.0 + i as f64);
                }
            }
        }
        let m = Matrix::sparse(SparseMatrix::from_dense(&d));
        let returns_before = pool.stats().returns;
        m.recycle();
        assert!(pool.stats().returns > returns_before, "CSR buffers must shelve");
        // The next sparse construction is served from the recycled buffers.
        let hits_before = pool.stats().hits;
        let _again = SparseMatrix::from_dense(&d);
        assert!(pool.stats().hits > hits_before, "rebuild reuses recycled CSR buffers");
    }

    fn seq_dense(rows: usize, cols: usize) -> Matrix {
        Matrix::dense(DenseMatrix::new(rows, cols, (0..rows * cols).map(|i| i as f64).collect()))
    }

    /// A CSR matrix with ragged rows (row `i` holds `i % 4` non-zeros).
    fn ragged_sparse(rows: usize, cols: usize) -> Matrix {
        let mut d = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..i % 4 {
                d.set(i, (i + 2 * j) % cols, 1.0 + (i * cols + j) as f64);
            }
        }
        Matrix::sparse(SparseMatrix::from_dense(&d))
    }

    /// True when `inner` lies wholly inside `outer`'s memory.
    fn lies_within<T>(inner: &[T], outer: &[T]) -> bool {
        let (o, i) = (outer.as_ptr_range(), inner.as_ptr_range());
        o.start <= i.start && i.end <= o.end
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dense_row_slice_borrows_the_parents_buffer() {
        let m = seq_dense(7, 3);
        let band = m.row_slice(2, 5);
        assert_eq!((band.rows(), band.cols()), (3, 3));
        let (b, p) = (band.as_dense(), m.as_dense());
        assert!(lies_within(b.values(), p.values()), "a dense row slice must not copy");
        assert_eq!(b.values().as_ptr(), p.row(2).as_ptr());
        assert_eq!(b.values(), &p.values()[6..15]);
        assert_eq!(b.row(1), p.row(3));
        assert_eq!(band.get(2, 1), m.get(4, 1));
    }

    #[test]
    fn sparse_row_slice_shares_triples_and_counts_its_own_nnz() {
        let m = ragged_sparse(11, 6);
        let band = m.row_slice(3, 9);
        let (b, p) = (band.as_sparse(), m.as_sparse());
        assert!(lies_within(b.values(), p.values()), "a CSR row slice must not copy values");
        assert!(lies_within(b.col_indices(), p.col_indices()), "nor column indices");
        let want: usize = (3..9).map(|r| p.row_nnz(r)).sum();
        assert!(want > 0 && want < p.nnz());
        assert_eq!(band.nnz(), want);
        assert_eq!((b.values().len(), b.col_indices().len()), (want, want));
        assert_eq!((b.row_ptr()[0], b.row_ptr()[6]), (0, want), "a self-consistent window");
        assert_eq!(band.size_in_bytes(), 16 * want + 8 * 7);
        for r in 0..6 {
            assert_eq!(b.row_cols(r), p.row_cols(r + 3));
            assert_eq!(b.row_values(r), p.row_values(r + 3));
        }
    }

    #[test]
    fn slice_of_slice_empty_and_ragged_bands() {
        for m in [seq_dense(10, 4), ragged_sparse(10, 4)] {
            // A slice of a slice is the direct slice, and still a view of the
            // root's buffer.
            let nested = m.row_slice(2, 9).row_slice(1, 4);
            let direct = m.row_slice(3, 6);
            assert_eq!(nested.to_dense(), direct.to_dense());
            assert_eq!(nested.nnz(), direct.nnz());
            match (&nested, &m) {
                (Matrix::Dense(n), Matrix::Dense(p)) => {
                    assert!(lies_within(n.values(), p.values()))
                }
                (Matrix::Sparse(n), Matrix::Sparse(p)) => {
                    assert!(lies_within(n.values(), p.values()));
                    assert_eq!(&**n, direct.as_sparse());
                }
                _ => panic!("row_slice preserves the storage format"),
            }
            // Empty bands, at every position including both ends.
            for r in [0, 4, 10] {
                let empty = m.row_slice(r, r);
                assert_eq!((empty.rows(), empty.cols(), empty.nnz()), (0, 4, 0));
                assert!(empty.to_dense().values().is_empty());
            }
            // First and last bands of a ragged 3-way split (4 + 3 + 3 rows).
            let (first, last) = (m.row_slice(0, 4), m.row_slice(7, 10));
            for c in 0..4 {
                assert_eq!(first.get(0, c).to_bits(), m.get(0, c).to_bits());
                assert_eq!(first.get(3, c).to_bits(), m.get(3, c).to_bits());
                assert_eq!(last.get(0, c).to_bits(), m.get(7, c).to_bits());
                assert_eq!(last.get(2, c).to_bits(), m.get(9, c).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_slice_past_the_end_panics() {
        let _ = seq_dense(4, 2).row_slice(2, 5);
    }

    #[test]
    fn row_slice_then_concat_is_bitwise_identity_dense() {
        let m = seq_dense(7, 3);
        let parts = [m.row_slice(0, 3), m.row_slice(3, 5), m.row_slice(5, 7)];
        let back = Matrix::concat_rows(&parts);
        assert!(!back.is_sparse());
        assert_eq!(bits(back.as_dense().values()), bits(m.as_dense().values()));
        assert!(!lies_within(back.as_dense().values(), m.as_dense().values()), "concat owns");
    }

    #[test]
    fn row_slice_then_concat_is_bitwise_identity_sparse() {
        let m = ragged_sparse(9, 5);
        let parts = [m.row_slice(0, 2), m.row_slice(2, 2), m.row_slice(2, 9)];
        let back = Matrix::concat_rows(&parts);
        assert!(back.is_sparse(), "all-sparse parts stay CSR");
        let (b, p) = (back.as_sparse(), m.as_sparse());
        assert_eq!(b.row_ptr(), p.row_ptr());
        assert_eq!(b.col_indices(), p.col_indices());
        assert_eq!(bits(b.values()), bits(p.values()));
    }

    #[test]
    fn writing_to_a_slice_leaves_the_parent_untouched() {
        let m = seq_dense(6, 2);
        let before = m.as_dense().values().to_vec();
        let band = m.row_slice(1, 4);
        // A view is never handed out for in-place reuse or spilling.
        assert!(!band.is_uniquely_owned());
        let band = band.try_into_dense().expect_err("a view's cells are not its own");
        let Matrix::Dense(arc) = band else { panic!("dense stays dense") };
        let mut d = Arc::try_unwrap(arc).expect("sole handle to the view");
        d.values_mut()[0] = -1.0; // copies on write
        d.set(2, 1, -2.0);
        d.row_mut(1)[0] = -3.0;
        assert_eq!(d.values(), &[-1.0, 3.0, -3.0, 5.0, 6.0, -2.0]);
        assert!(!lies_within(d.values(), m.as_dense().values()));
        assert_eq!(m.as_dense().values(), &before[..]);
        // Consuming a view yields a copy of its window.
        let mut owned = m.row_slice(4, 6).to_dense().into_values();
        owned[0] = -4.0;
        assert_eq!(m.as_dense().values(), &before[..]);

        let s = ragged_sparse(8, 5);
        let before = s.as_sparse().clone();
        let mut band = s.row_slice(2, 8).to_sparse();
        let band_nnz = band.nnz();
        band.values_mut().iter_mut().for_each(|v| *v = -*v);
        band.row_values_mut(1)[0] = 0.0;
        band.compact();
        assert_eq!(band.nnz(), band_nnz - 1, "the stored zero is dropped from the copy only");
        assert_eq!(s.as_sparse(), &before);
        assert!(s.is_uniquely_owned(), "dropping every view releases the parent");
    }

    #[test]
    fn recycling_never_shelves_a_buffer_that_is_still_shared() {
        let pool = crate::pool::BufferPool::handle();
        let _scope = crate::pool::enter(&pool);
        let scribble = |len: usize| {
            let mut buf = crate::pool::take_zeroed(len);
            assert!(buf.iter().all(|&v| v == 0.0), "the pool hands out zeroed buffers");
            buf.fill(f64::NAN);
            buf
        };
        // Recycle a view while its parent lives: nothing may reach the pool.
        let m = seq_dense(64, 64);
        let before = m.as_dense().values().to_vec();
        m.row_slice(16, 48).recycle();
        assert_eq!(pool.stats().returns, 0, "a live parent's buffer stays out of the pool");
        let (_a, _b) = (scribble(64 * 64), scribble(32 * 64));
        assert_eq!(m.as_dense().values(), &before[..]);
        // Recycle the parent while a view lives: still nothing; the last
        // holder (the view) then shelves the whole buffer.
        let band = m.row_slice(0, 8);
        m.recycle();
        assert_eq!(pool.stats().returns, 0, "a live view keeps the buffer out of the pool");
        assert_eq!(band.as_dense().values(), &before[..8 * 64]);
        band.recycle();
        assert_eq!(pool.stats().returns, 1, "the last holder shelves the buffer");
        let hits = pool.stats().hits;
        let _c = scribble(64 * 64);
        assert_eq!(pool.stats().hits, hits + 1, "and the next request reuses it");

        // CSR: the same rule for the shared col_idx / values.
        let mut d = DenseMatrix::zeros(100, 100);
        for i in 0..100 {
            for j in (i % 7..100).step_by(7) {
                d.set(i, j, 1.0 + i as f64);
            }
        }
        let s = Matrix::sparse(SparseMatrix::from_dense(&d));
        let before = s.as_sparse().clone();
        let returns = pool.stats().returns;
        s.row_slice(10, 90).recycle();
        let _d = scribble(before.nnz());
        assert_eq!(s.as_sparse(), &before);
        let band = s.row_slice(0, 50);
        s.recycle();
        assert!(pool.stats().returns <= returns + 1, "at most the first view's row pointers");
        assert_eq!(band.as_sparse().row_values(49), before.row_values(49));
        let returns = pool.stats().returns;
        band.recycle();
        assert!(
            pool.stats().returns >= returns + 2,
            "col_idx and values shelve with the last view"
        );
    }

    #[test]
    fn concat_mixed_formats_densifies() {
        let d = Matrix::dense(DenseMatrix::filled(2, 2, 1.0));
        let s = Matrix::sparse(SparseMatrix::from_dense(&DenseMatrix::filled(3, 2, 2.0)));
        let back = Matrix::concat_rows(&[d, s]);
        assert!(!back.is_sparse());
        assert_eq!((back.rows(), back.cols()), (5, 2));
        assert_eq!(back.get(0, 0), 1.0);
        assert_eq!(back.get(4, 1), 2.0);
    }

    #[test]
    fn sparse_row_read_densifies() {
        let sp = Matrix::sparse(SparseMatrix::from_triples(2, 4, vec![(0, 1, 5.0), (0, 3, 7.0)]));
        let mut buf = vec![0.0; 3];
        sp.read_row_into(0, 1, 4, &mut buf);
        assert_eq!(buf, vec![5.0, 0.0, 7.0]);
    }

    #[test]
    fn single_row_broadcast() {
        let d = Matrix::dense(DenseMatrix::row_vector(&[1.0, 2.0, 3.0]));
        let mut buf = vec![0.0; 3];
        d.read_row_into(57, 0, 3, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dense_values_borrows_whole_vector() {
        let col = Matrix::dense(DenseMatrix::new(3, 1, vec![1.0, 2.0, 3.0]));
        assert_eq!(col.dense_values().unwrap(), &[1.0, 2.0, 3.0]);
        let sp = Matrix::sparse(SparseMatrix::from_triples(3, 1, vec![(1, 0, 9.0)]));
        assert!(sp.dense_values().is_none());
    }

    #[test]
    fn vector_reads() {
        let col = Matrix::sparse(SparseMatrix::from_triples(4, 1, vec![(2, 0, 9.0)]));
        let mut buf = vec![0.0; 4];
        col.read_vector_into(&mut buf);
        assert_eq!(buf, vec![0.0, 0.0, 9.0, 0.0]);
    }

    #[test]
    fn size_estimates() {
        let d = Matrix::dense(DenseMatrix::zeros(10, 10));
        assert_eq!(d.size_in_bytes(), 800);
        let s = Matrix::sparse(SparseMatrix::zeros(10, 10));
        assert_eq!(s.size_in_bytes(), 88);
    }
}
