//! # fusedml-cla
//!
//! Compressed Linear Algebra (CLA) substrate: column-group compression with
//! heterogeneous encodings, after Elgohary et al. (PVLDB 2016), which the
//! fusion paper's template skeletons execute over (paper §5.2, Figure 9).
//!
//! A [`CompressedMatrix`] partitions the columns of a matrix into
//! [`ColumnGroup`]s, each stored with one of four encodings:
//!
//! * **DDC** — dense dictionary coding: one small code per row indexing a
//!   dictionary of distinct tuples; ideal for low-cardinality columns,
//! * **RLE** — run-length encoding of per-value row runs; ideal for sorted
//!   or clustered data,
//! * **OLE** — offset-list encoding: per-value row-offset lists; ideal for
//!   sparse columns with repeated values,
//! * **Uncompressed** — fallback dense column storage.
//!
//! The key operations exploited by fused operators are *dictionary-only*
//! execution of sparse-safe value functions (`sum(X^2)` touches each distinct
//! value once and scales by its count) and value-count iteration
//! ([`CompressedMatrix::group_value_counts`]).

// Every unsafe block in this crate must discharge its obligations locally:
// `unsafe fn` bodies get no blanket license, and each block carries a
// `// SAFETY:` comment (enforced by the CI unsafe-audit grep gate).
#![deny(unsafe_op_in_unsafe_fn)]
// Tests and assertions use unwrap/expect freely; the targeted failure-path
// modules (`spill`, the runtime scheduler) re-deny at module level.
#![allow(clippy::disallowed_methods)]

pub mod cocode;
pub mod compress;
pub mod groups;
pub mod ops;

pub use compress::{compress, CompressionPlan, CompressionStats};
pub use groups::{ColumnGroup, Encoding};

use fusedml_linalg::DenseMatrix;

/// A column-compressed matrix.
#[derive(Clone, Debug)]
pub struct CompressedMatrix {
    rows: usize,
    cols: usize,
    groups: Vec<ColumnGroup>,
}

impl CompressedMatrix {
    /// Assembles a compressed matrix from column groups; the groups must
    /// cover every column exactly once.
    pub fn new(rows: usize, cols: usize, groups: Vec<ColumnGroup>) -> Self {
        let mut covered = vec![false; cols];
        for g in &groups {
            for &c in g.columns() {
                assert!(c < cols && !covered[c], "column {c} not covered exactly once");
                covered[c] = true;
            }
        }
        assert!(covered.iter().all(|&b| b), "all columns must be covered");
        CompressedMatrix { rows, cols, groups }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The column groups.
    pub fn groups(&self) -> &[ColumnGroup] {
        &self.groups
    }

    /// Mutable access to the column groups (crate-internal: invariants such
    /// as column coverage must be preserved by callers).
    pub(crate) fn groups_mut(&mut self) -> &mut [ColumnGroup] {
        &mut self.groups
    }

    /// Point lookup (slow path; used by tests and validation).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        for g in &self.groups {
            if let Some(pos) = g.columns().iter().position(|&gc| gc == c) {
                return g.get(r, pos);
            }
        }
        unreachable!("column {c} covered by construction")
    }

    /// Decompresses to a dense matrix.
    pub fn decompress(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for g in &self.groups {
            g.decompress_into(&mut out);
        }
        out
    }

    /// Compressed size estimate in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.groups.iter().map(|g| g.size_in_bytes()).sum::<usize>() + 24
    }

    /// Size of the equivalent uncompressed dense matrix in bytes.
    pub fn uncompressed_size_in_bytes(&self) -> usize {
        8 * self.rows * self.cols
    }

    /// Achieved compression ratio (uncompressed ÷ compressed).
    pub fn compression_ratio(&self) -> f64 {
        self.uncompressed_size_in_bytes() as f64 / self.size_in_bytes() as f64
    }

    /// Iterates `(value, count)` pairs per group — the hook that lets fused
    /// sparse-safe operators with a single input run over distinct values
    /// only (paper §5.2 "Compressed Linear Algebra").
    pub fn group_value_counts(&self) -> impl Iterator<Item = Vec<(f64, usize)>> + '_ {
        self.groups.iter().map(|g| g.value_counts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groups::ColumnGroup;

    #[test]
    fn new_rejects_uncovered_columns() {
        let g = ColumnGroup::uncompressed(vec![0], vec![1.0, 2.0]);
        let r = std::panic::catch_unwind(|| CompressedMatrix::new(2, 2, vec![g]));
        assert!(r.is_err());
    }

    #[test]
    fn new_rejects_double_covered_columns() {
        let g1 = ColumnGroup::uncompressed(vec![0], vec![1.0, 2.0]);
        let g2 = ColumnGroup::uncompressed(vec![0], vec![1.0, 2.0]);
        let r = std::panic::catch_unwind(|| CompressedMatrix::new(2, 1, vec![g1, g2]));
        assert!(r.is_err());
    }

    #[test]
    fn get_and_decompress_roundtrip() {
        let g0 = ColumnGroup::uncompressed(vec![1], vec![10.0, 20.0]);
        let g1 = ColumnGroup::uncompressed(vec![0], vec![1.0, 2.0]);
        let cm = CompressedMatrix::new(2, 2, vec![g0, g1]);
        assert_eq!(cm.get(0, 0), 1.0);
        assert_eq!(cm.get(1, 1), 20.0);
        let d = cm.decompress();
        assert_eq!(d.get(0, 1), 10.0);
    }
}
