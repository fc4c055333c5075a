//! The `SpoofCellwise` skeleton: iterates cells (or non-zeros when the
//! generated function is sparse-safe) of the main input and applies the
//! register program, with no-agg / row-agg / col-agg / full-agg variants
//! (paper Table 1, Figure 4).
//!
//! The block backend (default) is one `tiles::CellPass` and the sink of the
//! aggregation variant; the per-cell scalar interpreter below is retained as
//! the differential-test oracle.

use crate::side::SideInput;
use crate::spoof::tiles::CellPass;
use fusedml_core::spoof::block::CellBackend;
use fusedml_core::spoof::{eval_scalar_program, CellAgg, CellSpec, SideAccess};
use fusedml_linalg::ops::AggOp;
use fusedml_linalg::{par, pool, DenseMatrix, Matrix, SparseMatrix};

/// Executes a Cell operator with the kernels of the owning engine (the
/// innermost kernel scope; see the private `super::kernels` helper).
pub fn execute(
    spec: &CellSpec,
    main: Option<&Matrix>,
    sides: &[SideInput],
    scalars: &[f64],
    iter_rows: usize,
    iter_cols: usize,
) -> Matrix {
    execute_with(spec, main, sides, scalars, iter_rows, iter_cols, CellBackend::Mono)
}

/// Executes a Cell operator under an explicit backend (differential tests
/// pin [`CellBackend::Scalar`] as the oracle for the tile paths and
/// [`CellBackend::Block`] to run the interpreter fallback on programs that
/// would classify).
pub fn execute_with(
    spec: &CellSpec,
    main: Option<&Matrix>,
    sides: &[SideInput],
    scalars: &[f64],
    iter_rows: usize,
    iter_cols: usize,
    backend: CellBackend,
) -> Matrix {
    let (rows, cols) = (iter_rows, iter_cols);
    let regs = [spec.result];
    let Some(pass) = CellPass::new(
        &spec.prog,
        &regs,
        backend,
        main,
        sides,
        scalars,
        rows,
        cols,
        spec.sparse_safe,
        None,
    ) else {
        return match (main, spec.sparse_safe) {
            (Some(Matrix::Sparse(s)), true) => sparse_safe_exec(spec, s, sides, scalars),
            (m, _) => dense_exec(spec, m, sides, scalars, rows, cols),
        };
    };
    // Pseudo-sparse-safe aggregation: a CSR pass has not folded the implicit
    // zeros (which map to zero under sparse-safety) that min/max must observe.
    let unseen_zeros = |op: AggOp, seen: usize, of: usize| !op.sparse_safe() && seen < of;
    match spec.agg {
        CellAgg::NoAgg => pass.no_agg(),
        CellAgg::RowAgg(op) => {
            let mut out = pass.row_agg(op);
            for (r, slot) in out.iter_mut().enumerate() {
                if pass.csr().is_some_and(|x| unseen_zeros(op, x.row_nnz(r), cols)) {
                    *slot = op.fold(*slot, 0.0);
                }
                *slot = finalize(op, *slot, cols);
            }
            Matrix::dense(DenseMatrix::new(rows, 1, out))
        }
        CellAgg::ColAgg(op) => {
            let (mut acc, counts) = pass.col_agg(op);
            for (slot, &seen) in acc.iter_mut().zip(&counts) {
                if unseen_zeros(op, seen, rows) {
                    *slot = op.fold(*slot, 0.0);
                }
                *slot = finalize(op, *slot, rows);
            }
            Matrix::dense(DenseMatrix::new(1, cols, acc))
        }
        CellAgg::FullAgg(op) => {
            let mut acc = pass.full(&[op])[0];
            if pass.csr().is_some_and(|x| unseen_zeros(op, x.nnz(), rows * cols)) {
                acc = op.fold(acc, 0.0);
            }
            Matrix::dense(DenseMatrix::filled(1, 1, finalize(op, acc, rows * cols)))
        }
    }
}

/// `Mean` divides the fold by the number of aggregated positions; shared by
/// the dense and sparse paths of both backends.
fn finalize(op: AggOp, acc: f64, count: usize) -> f64 {
    if op == AggOp::Mean {
        acc / count as f64
    } else {
        acc
    }
}

// ===========================================================================
// Scalar backend (the differential-test oracle)
// ===========================================================================

/// Evaluates the program for one (rix, cix) position.
#[inline]
fn exec_cell(
    spec: &CellSpec,
    regs: &mut [f64],
    a: f64,
    sides: &[SideInput],
    scalars: &[f64],
    rix: usize,
    cix: usize,
) -> f64 {
    let side_at = |i: usize, acc: SideAccess| sides[i].value_at(acc, rix, cix);
    eval_scalar_program(&spec.prog, regs, a, 0.0, &side_at, scalars);
    regs[spec.result as usize]
}

fn dense_exec(
    spec: &CellSpec,
    main: Option<&Matrix>,
    sides: &[SideInput],
    scalars: &[f64],
    rows: usize,
    cols: usize,
) -> Matrix {
    let main_get = |r: usize, c: usize| main.map_or(0.0, |m| m.get(r, c));
    match spec.agg {
        CellAgg::NoAgg => {
            if cols == 0 {
                // `par` cannot split a 0-long row; the answer is `rows × 0`.
                return Matrix::dense(DenseMatrix::new(rows, 0, Vec::new()));
            }
            let mut out = pool::take_unzeroed(rows * cols);
            par::par_rows_mut(&mut out, rows, cols.max(1), cols.max(1) * 4, |r, orow| {
                let mut regs = vec![0.0f64; spec.prog.n_regs as usize];
                for (c, slot) in orow.iter_mut().enumerate() {
                    *slot = exec_cell(spec, &mut regs, main_get(r, c), sides, scalars, r, c);
                }
            });
            Matrix::dense(DenseMatrix::new(rows, cols, out))
        }
        CellAgg::RowAgg(op) => {
            let mut out = pool::take_unzeroed(rows);
            par::par_rows_mut(&mut out, rows, 1, cols.max(1) * 4, |r, slot| {
                let mut regs = vec![0.0f64; spec.prog.n_regs as usize];
                let mut acc = op.identity();
                for c in 0..cols {
                    acc = op.fold(
                        acc,
                        exec_cell(spec, &mut regs, main_get(r, c), sides, scalars, r, c),
                    );
                }
                slot[0] = finalize(op, acc, cols);
            });
            Matrix::dense(DenseMatrix::new(rows, 1, out))
        }
        CellAgg::ColAgg(op) => {
            let mut acc = par::par_map_reduce(
                rows,
                cols.max(1) * 4,
                vec![op.identity(); cols],
                |lo, hi| {
                    let mut regs = vec![0.0f64; spec.prog.n_regs as usize];
                    let mut acc = vec![op.identity(); cols];
                    for r in lo..hi {
                        for (c, slot) in acc.iter_mut().enumerate() {
                            *slot = op.fold(
                                *slot,
                                exec_cell(spec, &mut regs, main_get(r, c), sides, scalars, r, c),
                            );
                        }
                    }
                    acc
                },
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x = op.combine(*x, y);
                    }
                    a
                },
            );
            for slot in acc.iter_mut() {
                *slot = finalize(op, *slot, rows);
            }
            Matrix::dense(DenseMatrix::new(1, cols, acc))
        }
        CellAgg::FullAgg(op) => {
            let acc = par::par_map_reduce(
                rows,
                cols.max(1) * 4,
                op.identity(),
                |lo, hi| {
                    let mut regs = vec![0.0f64; spec.prog.n_regs as usize];
                    let mut acc = op.identity();
                    for r in lo..hi {
                        for c in 0..cols {
                            acc = op.fold(
                                acc,
                                exec_cell(spec, &mut regs, main_get(r, c), sides, scalars, r, c),
                            );
                        }
                    }
                    acc
                },
                |a, b| op.combine(a, b),
            );
            Matrix::dense(DenseMatrix::filled(1, 1, finalize(op, acc, rows * cols)))
        }
    }
}

/// Sparse-safe execution over non-zeros only (scalar backend). All variants
/// parallelize over row ranges via the `linalg::par` helpers.
fn sparse_safe_exec(
    spec: &CellSpec,
    main: &SparseMatrix,
    sides: &[SideInput],
    scalars: &[f64],
) -> Matrix {
    let (rows, cols) = (main.rows(), main.cols());
    let work = (main.nnz() / rows.max(1)).max(1) * 4;
    match spec.agg {
        CellAgg::NoAgg => {
            let triples = par::par_map_reduce(
                rows,
                work,
                Vec::new(),
                |lo, hi| {
                    let mut regs = vec![0.0f64; spec.prog.n_regs as usize];
                    let mut triples = Vec::new();
                    for r in lo..hi {
                        for (c, v) in main.row_iter(r) {
                            let out = exec_cell(spec, &mut regs, v, sides, scalars, r, c);
                            if out != 0.0 {
                                triples.push((r, c, out));
                            }
                        }
                    }
                    triples
                },
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            );
            Matrix::sparse(SparseMatrix::from_triples(rows, cols, triples))
        }
        CellAgg::RowAgg(op) => {
            let mut out = pool::take_unzeroed(rows);
            par::par_rows_mut(&mut out, rows, 1, work, |r, slot| {
                let mut regs = vec![0.0f64; spec.prog.n_regs as usize];
                let mut acc = op.identity();
                for (c, v) in main.row_iter(r) {
                    acc = op.fold(acc, exec_cell(spec, &mut regs, v, sides, scalars, r, c));
                }
                // Pseudo-sparse-safe aggregation: min/max must still observe
                // the implicit zeros (which map to zero under sparse-safety).
                if !op.sparse_safe() && main.row_nnz(r) < cols {
                    acc = op.fold(acc, 0.0);
                }
                slot[0] = finalize(op, acc, cols);
            });
            Matrix::dense(DenseMatrix::new(rows, 1, out))
        }
        CellAgg::ColAgg(op) => {
            let (mut acc, counts) = par::par_map_reduce(
                rows,
                work,
                (vec![op.identity(); cols], vec![0usize; cols]),
                |lo, hi| {
                    let mut regs = vec![0.0f64; spec.prog.n_regs as usize];
                    let mut acc = vec![op.identity(); cols];
                    let mut counts = vec![0usize; cols];
                    for r in lo..hi {
                        for (c, v) in main.row_iter(r) {
                            acc[c] = op
                                .fold(acc[c], exec_cell(spec, &mut regs, v, sides, scalars, r, c));
                            counts[c] += 1;
                        }
                    }
                    (acc, counts)
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
            );
            for c in 0..cols {
                if !op.sparse_safe() && counts[c] < rows {
                    acc[c] = op.fold(acc[c], 0.0);
                }
                acc[c] = finalize(op, acc[c], rows);
            }
            Matrix::dense(DenseMatrix::new(1, cols, acc))
        }
        CellAgg::FullAgg(op) => {
            let acc = par::par_map_reduce(
                rows,
                work,
                op.identity(),
                |lo, hi| {
                    let mut regs = vec![0.0f64; spec.prog.n_regs as usize];
                    let mut acc = op.identity();
                    for r in lo..hi {
                        for (c, v) in main.row_iter(r) {
                            acc = op.fold(acc, exec_cell(spec, &mut regs, v, sides, scalars, r, c));
                        }
                    }
                    acc
                },
                |a, b| op.combine(a, b),
            );
            let acc =
                if !op.sparse_safe() && main.nnz() < rows * cols { op.fold(acc, 0.0) } else { acc };
            Matrix::dense(DenseMatrix::filled(1, 1, finalize(op, acc, rows * cols)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_core::spoof::{Instr, Program};
    use fusedml_linalg::generate;
    use fusedml_linalg::ops::BinaryOp;

    /// Builds a spec for `f(a, b0) = a * b0` with the given agg.
    fn mult_side_spec(agg: CellAgg, sparse_safe: bool) -> CellSpec {
        CellSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMain { out: 0 },
                    Instr::LoadSide { out: 1, side: 0, access: SideAccess::Cell },
                    Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
                ],
                n_regs: 3,
                vreg_lens: vec![],
            },
            result: 2,
            agg,
            sparse_safe,
        }
    }

    #[test]
    fn full_agg_matches_reference() {
        let x = generate::rand_matrix(50, 40, -1.0, 1.0, 0.3, 1);
        let y = generate::rand_dense(50, 40, -1.0, 1.0, 2);
        let spec = mult_side_spec(CellAgg::FullAgg(AggOp::Sum), true);
        let out = crate::spoof::execute(
            &fusedml_core::spoof::FusedSpec::Cell(spec),
            Some(&x),
            &[SideInput::bind(&y)],
            &[],
            50,
            40,
        );
        let expect = fusedml_linalg::ops::agg(
            &fusedml_linalg::ops::binary(&x, &y, BinaryOp::Mult),
            AggOp::Sum,
            fusedml_linalg::ops::AggDir::Full,
        );
        assert!(fusedml_linalg::approx_eq(out[0].get(0, 0), expect.get(0, 0), 1e-9));
    }

    #[test]
    fn no_agg_sparse_safe_keeps_sparse_output() {
        let x = generate::rand_matrix(100, 100, 1.0, 2.0, 0.05, 3);
        let y = generate::rand_dense(100, 100, 1.0, 2.0, 4);
        let spec = mult_side_spec(CellAgg::NoAgg, true);
        let out = crate::spoof::execute(
            &fusedml_core::spoof::FusedSpec::Cell(spec),
            Some(&x),
            &[SideInput::bind(&y)],
            &[],
            100,
            100,
        );
        assert!(out[0].is_sparse(), "sparse-safe NoAgg keeps CSR");
        let expect = fusedml_linalg::ops::binary(&x, &y, BinaryOp::Mult);
        assert!(out[0].approx_eq(&expect, 1e-12));
    }

    #[test]
    fn row_and_col_agg_match_reference() {
        let x = generate::rand_matrix(30, 20, -1.0, 1.0, 0.4, 5);
        let y = generate::rand_dense(30, 20, -1.0, 1.0, 6);
        let prod = fusedml_linalg::ops::binary(&x, &y, BinaryOp::Mult);
        for (agg, dir) in [
            (CellAgg::RowAgg(AggOp::Sum), fusedml_linalg::ops::AggDir::Row),
            (CellAgg::ColAgg(AggOp::Sum), fusedml_linalg::ops::AggDir::Col),
        ] {
            let spec = mult_side_spec(agg, true);
            let out = crate::spoof::execute(
                &fusedml_core::spoof::FusedSpec::Cell(spec),
                Some(&x),
                &[SideInput::bind(&y)],
                &[],
                30,
                20,
            );
            let expect = fusedml_linalg::ops::agg(&prod, AggOp::Sum, dir);
            assert!(out[0].approx_eq(&expect, 1e-9), "{dir:?}");
        }
    }

    #[test]
    fn dense_and_sparse_paths_agree() {
        let xd = generate::rand_matrix(40, 40, -1.0, 1.0, 0.2, 7).to_dense();
        let y = generate::rand_dense(40, 40, -1.0, 1.0, 8);
        let spec_sparse = mult_side_spec(CellAgg::FullAgg(AggOp::Sum), true);
        let spec_dense = mult_side_spec(CellAgg::FullAgg(AggOp::Sum), false);
        let sx = Matrix::sparse(SparseMatrix::from_dense(&xd));
        let dx = Matrix::dense(xd);
        let a = crate::spoof::execute(
            &fusedml_core::spoof::FusedSpec::Cell(spec_sparse),
            Some(&sx),
            &[SideInput::bind(&y)],
            &[],
            40,
            40,
        );
        let b = crate::spoof::execute(
            &fusedml_core::spoof::FusedSpec::Cell(spec_dense),
            Some(&dx),
            &[SideInput::bind(&y)],
            &[],
            40,
            40,
        );
        assert!(fusedml_linalg::approx_eq(a[0].get(0, 0), b[0].get(0, 0), 1e-9));
    }

    #[test]
    fn min_agg_over_sparse_observes_zeros() {
        // f(a) = a (identity via a * 1): min over positive sparse values
        // must still see the implicit zeros.
        let spec = CellSpec {
            prog: Program {
                instrs: vec![Instr::LoadMain { out: 0 }],
                n_regs: 1,
                vreg_lens: vec![],
            },
            result: 0,
            agg: CellAgg::FullAgg(AggOp::Min),
            sparse_safe: true,
        };
        let x = generate::rand_matrix(50, 50, 1.0, 2.0, 0.1, 9);
        let out = crate::spoof::execute(
            &fusedml_core::spoof::FusedSpec::Cell(spec),
            Some(&x),
            &[],
            &[],
            50,
            50,
        );
        assert_eq!(out[0].get(0, 0), 0.0);
    }

    #[test]
    fn scalar_no_agg_over_zero_columns_is_empty() {
        let spec = mult_side_spec(CellAgg::NoAgg, false);
        let out = execute_with(&spec, None, &[], &[], 3, 0, CellBackend::Scalar);
        assert_eq!((out.rows(), out.cols()), (3, 0));
    }

    /// Regression for the dense/sparse `Mean` finalization asymmetry: the
    /// dense path must divide by the aggregated count exactly like the
    /// sparse-safe path always did.
    #[test]
    fn mean_agg_finalizes_on_dense_inputs() {
        let (rows, cols) = (37, 23);
        let x = generate::rand_dense(rows, cols, 0.5, 1.5, 10);
        let y = generate::rand_dense(rows, cols, 0.5, 1.5, 11);
        let prod = fusedml_linalg::ops::binary(&x, &y, BinaryOp::Mult);
        for backend in [CellBackend::Scalar, CellBackend::Block, CellBackend::Mono] {
            for (agg, dir, count) in [
                (CellAgg::FullAgg(AggOp::Mean), fusedml_linalg::ops::AggDir::Full, rows * cols),
                (CellAgg::RowAgg(AggOp::Mean), fusedml_linalg::ops::AggDir::Row, cols),
                (CellAgg::ColAgg(AggOp::Mean), fusedml_linalg::ops::AggDir::Col, rows),
            ] {
                let spec = mult_side_spec(agg, true);
                let out =
                    execute_with(&spec, Some(&x), &[SideInput::bind(&y)], &[], rows, cols, backend);
                let sums = fusedml_linalg::ops::agg(&prod, AggOp::Sum, dir);
                for r in 0..out.rows() {
                    for c in 0..out.cols() {
                        let expect = sums.get(r, c) / count as f64;
                        assert!(
                            fusedml_linalg::approx_eq(out.get(r, c), expect, 1e-9),
                            "{backend:?} {dir:?} ({r},{c}): {} vs {expect}",
                            out.get(r, c)
                        );
                    }
                }
            }
        }
    }

    /// The block backends must agree with the scalar oracle across all agg
    /// variants, dense and sparse mains, and ragged (non-tile-multiple)
    /// shapes.
    #[test]
    fn block_backends_match_scalar_oracle() {
        let (rows, cols) = (45, 300); // cols not a multiple of the tile width
        let xd = generate::rand_matrix(rows, cols, -1.0, 1.0, 0.3, 12).to_dense();
        let y = generate::rand_dense(rows, cols, -1.0, 1.0, 13);
        let sx = Matrix::sparse(SparseMatrix::from_dense(&xd));
        let dx = Matrix::dense(xd);
        for agg in [
            CellAgg::NoAgg,
            CellAgg::RowAgg(AggOp::Sum),
            CellAgg::ColAgg(AggOp::Max),
            CellAgg::FullAgg(AggOp::SumSq),
            CellAgg::FullAgg(AggOp::Mean),
        ] {
            let spec = mult_side_spec(agg, true);
            for main in [&dx, &sx] {
                let sides = [SideInput::bind(&y)];
                let oracle =
                    execute_with(&spec, Some(main), &sides, &[], rows, cols, CellBackend::Scalar);
                for backend in [CellBackend::Block, CellBackend::Mono] {
                    let out = execute_with(&spec, Some(main), &sides, &[], rows, cols, backend);
                    assert!(
                        out.approx_eq(&oracle, 1e-12),
                        "{agg:?} {backend:?} sparse={}",
                        main.is_sparse()
                    );
                }
            }
        }
    }
}
