//! The per-cell pass under the Cell, MAgg and Outer skeletons: the oracle
//! the tile walk is checked against, and what runs a kernel with more gathers
//! than the tile path supports.
//!
//! One walk visits the positions of a row range — every cell under dense
//! iteration, the non-zeros when the program is sparse-safe over a CSR main
//! — and runs `eval_scalar_program` once per position. It reads by point
//! only: `Matrix::get` or the CSR row's non-zeros for the main,
//! [`value_at`] for the sides and `dot(U_i, V_j)` for Outer. The
//! sinks on top of it are those of the tile walk; the skeletons finalize
//! either pass the same way.

use super::{CellSinks, PassInput};
use fusedml_core::spoof::{eval_scalar_program, SideAccess};
use fusedml_linalg::ops::AggOp;
use fusedml_linalg::{par, primitives as prim, DenseMatrix, Matrix, SparseMatrix};

/// The paper's `getValue(b[i], …)`: a side's value under a [`SideAccess`]
/// pattern at position (rix, cix), a point read (a binary search of the
/// CSR row for a sparse side).
#[inline]
pub(crate) fn value_at(side: &Matrix, access: SideAccess, rix: usize, cix: usize) -> f64 {
    match access {
        SideAccess::Cell => side.get(rix, cix),
        SideAccess::Col => side.get(rix, 0),
        SideAccess::Row => side.get(0, cix),
        SideAccess::Scalar => side.get(0, 0),
    }
}

/// One per-cell pass over the positions of a [`PassInput`].
pub(crate) struct ScalarPass<'a> {
    input: PassInput<'a>,
    /// The main input when it is iterated non-zero by non-zero.
    csr: Option<&'a SparseMatrix>,
    work: usize,
}

impl<'a> ScalarPass<'a> {
    pub(crate) fn new(input: PassInput<'a>) -> Self {
        ScalarPass { input, csr: input.csr(), work: input.work() }
    }

    /// Walks rows `lo..hi` on the calling thread, one `visit(r, c, results)`
    /// per position, `results[j]` the value of result register `regs[j]`.
    fn walk(&self, lo: usize, hi: usize, mut visit: impl FnMut(usize, usize, &[f64])) {
        let PassInput { prog, regs, main, sides, scalars, cols, factors, .. } = self.input;
        let mut file = vec![0.0; prog.n_regs as usize];
        let mut results = vec![0.0; regs.len()];
        let mut eval = |r: usize, c: usize, a: f64| {
            let uv = factors.map_or(0.0, |(u, v, k)| prim::dot_product(u, v, r * k, c * k, k));
            let side_at = |i: usize, acc: SideAccess| value_at(&sides[i], acc, r, c);
            eval_scalar_program(prog, &mut file, a, uv, &side_at, scalars);
            for (slot, &reg) in results.iter_mut().zip(regs) {
                *slot = file[reg as usize];
            }
            visit(r, c, &results);
        };
        for r in lo..hi {
            match self.csr {
                Some(x) => x.row_iter(r).for_each(|(c, a)| eval(r, c, a)),
                None => (0..cols).for_each(|c| eval(r, c, main.map_or(0.0, |m| m.get(r, c)))),
            }
        }
    }

    /// Sinks that accumulate: one `A` per worker, merged on the caller.
    fn reduce<A: Send>(
        &self,
        identity: impl Fn() -> A + Sync,
        visit: impl Fn(&mut A, usize, usize, &[f64]) + Sync,
        merge: impl Fn(A, A) -> A,
    ) -> A {
        let map = |lo, hi| {
            let mut acc = identity();
            self.walk(lo, hi, |r, c, v| visit(&mut acc, r, c, v));
            acc
        };
        par::par_map_reduce(self.input.rows, self.work, identity(), map, merge)
    }

    /// Sinks that write `row_len` output slots per main row, each slot
    /// starting at `init`: `visit(row, c, results)`, `row` the position's
    /// output row.
    fn bands(
        &self,
        row_len: usize,
        init: f64,
        visit: impl Fn(&mut [f64], usize, &[f64]) + Sync,
    ) -> Vec<f64> {
        let rows = self.input.rows;
        let mut out = vec![init; rows * row_len];
        par::par_row_bands_mut(&mut out, rows, row_len, self.work, |r0, band| {
            self.walk(r0, r0 + band.len() / row_len, |r, c, v| {
                let o = (r - r0) * row_len;
                visit(&mut band[o..o + row_len], c, v)
            })
        });
        out
    }
}

impl CellSinks for ScalarPass<'_> {
    fn csr(&self) -> Option<&SparseMatrix> {
        self.csr
    }

    fn full(&self, ops: &[AggOp]) -> Vec<f64> {
        self.reduce(
            || ops.iter().map(|op| op.identity()).collect(),
            |accs: &mut Vec<f64>, _, _, v| {
                for ((acc, op), &x) in accs.iter_mut().zip(ops).zip(v) {
                    *acc = op.fold(*acc, x);
                }
            },
            |mut a, b| {
                for ((x, y), op) in a.iter_mut().zip(b).zip(ops) {
                    *x = op.combine(*x, y);
                }
                a
            },
        )
    }

    fn row_agg(&self, op: AggOp) -> Vec<f64> {
        self.bands(1, op.identity(), |slot, _, v| slot[0] = op.fold(slot[0], v[0]))
    }

    fn col_agg(&self, op: AggOp) -> (Vec<f64>, Vec<usize>) {
        let cols = self.input.cols;
        self.reduce(
            || (vec![op.identity(); cols], vec![0usize; cols]),
            |(acc, counts), _, c, v| {
                acc[c] = op.fold(acc[c], v[0]);
                counts[c] += 1;
            },
            |(mut a, mut ca), (b, cb)| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = op.combine(*x, y);
                }
                for (x, y) in ca.iter_mut().zip(cb) {
                    *x += y;
                }
                (a, ca)
            },
        )
    }

    fn no_agg(&self) -> Matrix {
        let PassInput { rows, cols, .. } = self.input;
        if self.csr.is_none() {
            let out = self.bands(cols, 0.0, |orow, c, v| orow[c] = v[0]);
            return Matrix::dense(DenseMatrix::new(rows, cols, out));
        }
        let triples = self.reduce(
            Vec::new,
            |triples, r, c, v| {
                if v[0] != 0.0 {
                    triples.push((r, c, v[0]));
                }
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        Matrix::sparse(SparseMatrix::from_triples(rows, cols, triples))
    }

    fn right_mm(&self, s: &[f64], k: usize) -> Vec<f64> {
        self.bands(k, 0.0, |orow, c, v| {
            if v[0] != 0.0 {
                prim::vect_mult_add(s, v[0], orow, c * k, 0, k);
            }
        })
    }

    fn left_mm(&self, s: &[f64], k: usize) -> Vec<f64> {
        self.reduce(
            || vec![0.0; self.input.cols * k],
            |acc, r, c, v| {
                if v[0] != 0.0 {
                    prim::vect_mult_add(s, v[0], acc, r * k, c * k, k);
                }
            },
            |mut a, b| {
                a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
                a
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_access_patterns() {
        let s = Matrix::dense(DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        assert_eq!(value_at(&s, SideAccess::Cell, 1, 0), 3.0);
        assert_eq!(value_at(&s, SideAccess::Col, 1, 99), 3.0);
        assert_eq!(value_at(&s, SideAccess::Row, 99, 1), 2.0);
        assert_eq!(value_at(&s, SideAccess::Scalar, 9, 9), 1.0);
    }
}
