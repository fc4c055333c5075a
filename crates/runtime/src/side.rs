//! Side-input access for fused operators: the runtime realization of the
//! paper's `getValue(b[i], …)` abstraction, hiding dense/sparse formats
//! behind a uniform interface (paper §5.2: "Gen handles such cases more
//! efficiently via stateful iterators under the covers of the stateless
//! getValue() abstraction").
//!
//! The stateless half is here: [`SideInput::value_at`] is a point read, which
//! is all the per-cell `Scalar` interpreters (the differential oracle) use.
//! The stateful half is in the tile layer (`spoof::tiles`): a sparse side's
//! row is scattered once into a `cols`-wide scratch (`RowScratch`) and every
//! tile of the main row gathers from it.

use fusedml_core::spoof::SideAccess;
use fusedml_linalg::{DenseMatrix, Matrix, SparseMatrix};

/// A bound side input. Dense sides expose direct indexing; a sparse side
/// answers a point read with a binary search of its CSR row. Point reads are
/// for the `Scalar` oracle; the tile path reads a sparse side through its
/// scattered row.
pub enum SideInput {
    Dense(std::sync::Arc<DenseMatrix>),
    Sparse(std::sync::Arc<SparseMatrix>),
}

impl SideInput {
    /// Binds a matrix value.
    pub fn bind(m: &Matrix) -> Self {
        match m {
            Matrix::Dense(d) => SideInput::Dense(d.clone()),
            Matrix::Sparse(s) => SideInput::Sparse(s.clone()),
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        match self {
            SideInput::Dense(d) => d.rows(),
            SideInput::Sparse(s) => s.rows(),
        }
    }

    #[inline]
    pub fn cols(&self) -> usize {
        match self {
            SideInput::Dense(d) => d.cols(),
            SideInput::Sparse(s) => s.cols(),
        }
    }

    /// Point access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        match self {
            SideInput::Dense(d) => d.get(r, c),
            SideInput::Sparse(s) => s.get(r, c),
        }
    }

    /// `getValue` under a [`SideAccess`] pattern at position (rix, cix).
    #[inline]
    pub fn value_at(&self, access: SideAccess, rix: usize, cix: usize) -> f64 {
        match access {
            SideAccess::Cell => self.get(rix, cix),
            SideAccess::Col => self.get(rix, 0),
            SideAccess::Row => self.get(0, cix),
            SideAccess::Scalar => self.get(0, 0),
        }
    }

    /// Copies row `rix` columns `cl..cu` into `buf` (densifying sparse
    /// rows); rows broadcast when the side has a single row.
    pub fn read_row_into(&self, rix: usize, cl: usize, cu: usize, buf: &mut [f64]) {
        let r = if self.rows() == 1 { 0 } else { rix };
        debug_assert_eq!(buf.len(), cu - cl);
        match self {
            SideInput::Dense(d) => buf.copy_from_slice(&d.row(r)[cl..cu]),
            SideInput::Sparse(s) => {
                buf.fill(0.0);
                for (c, v) in s.row_iter(r) {
                    if c >= cl && c < cu {
                        buf[c - cl] = v;
                    }
                }
            }
        }
    }

    /// Reads the whole side as a flat vector (for n×1 / 1×n sides).
    pub fn read_vector_into(&self, buf: &mut [f64]) {
        match self {
            SideInput::Dense(d) => buf.copy_from_slice(d.values()),
            SideInput::Sparse(s) => {
                buf.fill(0.0);
                if s.cols() == 1 {
                    for (r, slot) in buf.iter_mut().enumerate().take(s.rows()) {
                        for (_, v) in s.row_iter(r) {
                            *slot = v;
                        }
                    }
                } else {
                    for (c, v) in s.row_iter(0) {
                        buf[c] = v;
                    }
                }
            }
        }
    }

    /// Zero-copy borrow of a dense side's row `rix`, sliced to `cl..cu`
    /// (rows broadcast when the side has a single row). `None` for sparse
    /// sides — callers iterate their CSR rows instead of densifying.
    #[inline]
    pub fn dense_row(&self, rix: usize, cl: usize, cu: usize) -> Option<&[f64]> {
        match self {
            SideInput::Dense(d) => {
                let r = if d.rows() == 1 { 0 } else { rix };
                Some(&d.row(r)[cl..cu])
            }
            SideInput::Sparse(_) => None,
        }
    }

    /// Zero-copy borrow of a dense side's full row-major values — for n×1 /
    /// 1×n sides this is exactly the vector. `None` for sparse sides.
    #[inline]
    pub fn dense_values(&self) -> Option<&[f64]> {
        match self {
            SideInput::Dense(d) => Some(d.values()),
            SideInput::Sparse(_) => None,
        }
    }

    /// Dense row-major values (densifying once if sparse) — used for
    /// `vectMatMult` side matrices where repeated row access dominates.
    pub fn to_dense_values(&self) -> std::borrow::Cow<'_, [f64]> {
        match self {
            SideInput::Dense(d) => std::borrow::Cow::Borrowed(d.values()),
            SideInput::Sparse(s) => std::borrow::Cow::Owned(s.to_dense().into_values()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_linalg::SparseMatrix;

    #[test]
    fn value_access_patterns() {
        let d = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let s = SideInput::bind(&Matrix::dense(d));
        assert_eq!(s.value_at(SideAccess::Cell, 1, 0), 3.0);
        assert_eq!(s.value_at(SideAccess::Col, 1, 99), 3.0);
        assert_eq!(s.value_at(SideAccess::Row, 99, 1), 2.0);
        assert_eq!(s.value_at(SideAccess::Scalar, 9, 9), 1.0);
    }

    #[test]
    fn sparse_row_read_densifies() {
        let sp = SparseMatrix::from_triples(2, 4, vec![(0, 1, 5.0), (0, 3, 7.0)]);
        let s = SideInput::bind(&Matrix::sparse(sp));
        let mut buf = vec![0.0; 3];
        s.read_row_into(0, 1, 4, &mut buf);
        assert_eq!(buf, vec![5.0, 0.0, 7.0]);
    }

    #[test]
    fn single_row_broadcast() {
        let d = DenseMatrix::row_vector(&[1.0, 2.0, 3.0]);
        let s = SideInput::bind(&Matrix::dense(d));
        let mut buf = vec![0.0; 3];
        s.read_row_into(57, 0, 3, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dense_row_borrows_and_broadcasts() {
        let d = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let s = SideInput::bind(&Matrix::dense(d));
        assert_eq!(s.dense_row(1, 0, 3).unwrap(), &[4.0, 5.0, 6.0]);
        assert_eq!(s.dense_row(1, 1, 3).unwrap(), &[5.0, 6.0]);
        let row = DenseMatrix::row_vector(&[7.0, 8.0]);
        let b = SideInput::bind(&Matrix::dense(row));
        assert_eq!(b.dense_row(42, 0, 2).unwrap(), &[7.0, 8.0], "single row broadcasts");
        let sp = SparseMatrix::from_triples(2, 3, vec![(0, 1, 5.0)]);
        assert!(SideInput::bind(&Matrix::sparse(sp)).dense_row(0, 0, 3).is_none());
    }

    #[test]
    fn dense_values_borrows_whole_vector() {
        let col = DenseMatrix::new(3, 1, vec![1.0, 2.0, 3.0]);
        let s = SideInput::bind(&Matrix::dense(col));
        assert_eq!(s.dense_values().unwrap(), &[1.0, 2.0, 3.0]);
        let sp = SparseMatrix::from_triples(3, 1, vec![(1, 0, 9.0)]);
        assert!(SideInput::bind(&Matrix::sparse(sp)).dense_values().is_none());
    }

    #[test]
    fn vector_reads() {
        let col = SparseMatrix::from_triples(4, 1, vec![(2, 0, 9.0)]);
        let s = SideInput::bind(&Matrix::sparse(col));
        let mut buf = vec![0.0; 4];
        s.read_vector_into(&mut buf);
        assert_eq!(buf, vec![0.0, 0.0, 9.0, 0.0]);
    }
}
