//! The `SpoofCellwise` skeleton: iterates cells (or non-zeros when the
//! generated function is sparse-safe) of the main input and applies the
//! register program, with no-agg / row-agg / col-agg / full-agg variants
//! (paper Table 1, Figure 4).
//!
//! The block backend (default) is one `tiles::CellPass` and the sink of the
//! aggregation variant; the per-cell scalar pass (`CellBackend::Scalar`) is
//! the differential-test oracle.

use super::{finalize, full_aggs, with_pass, PassInput};
use fusedml_core::spoof::block::{BlockKernel, CellBackend};
use fusedml_core::spoof::{CellAgg, CellSpec};
use fusedml_linalg::{DenseMatrix, Matrix};

/// Executes a Cell operator with its lowered `kernel` under an explicit
/// backend: [`super::execute`] passes the operator's kernel and
/// [`CellBackend::Mono`]; differential tests pin [`CellBackend::Scalar`] as
/// the oracle for the tile paths and [`CellBackend::Block`] to run the
/// interpreter fallback on programs that would classify.
#[allow(clippy::too_many_arguments)]
pub fn execute_with(
    spec: &CellSpec,
    kernel: &BlockKernel,
    main: Option<&Matrix>,
    sides: &[Matrix],
    scalars: &[f64],
    iter_rows: usize,
    iter_cols: usize,
    backend: CellBackend,
) -> Matrix {
    let (rows, cols) = (iter_rows, iter_cols);
    let input = PassInput {
        prog: &spec.prog,
        kernel,
        regs: &[spec.result],
        main,
        sides,
        scalars,
        rows,
        cols,
        sparse_safe: spec.sparse_safe,
        factors: None,
    };
    with_pass(input, backend, |pass| match spec.agg {
        CellAgg::NoAgg => pass.no_agg(),
        CellAgg::RowAgg(op) => {
            let (mut out, csr) = (pass.row_agg(op), pass.csr());
            for (r, slot) in out.iter_mut().enumerate() {
                let seen = csr.map_or(cols, |x| x.row_nnz(r));
                *slot = finalize(op, *slot, seen, cols);
            }
            Matrix::dense(DenseMatrix::new(rows, 1, out))
        }
        CellAgg::ColAgg(op) => {
            let (mut acc, counts) = pass.col_agg(op);
            for (slot, &seen) in acc.iter_mut().zip(&counts) {
                *slot = finalize(op, *slot, seen, rows);
            }
            Matrix::dense(DenseMatrix::new(1, cols, acc))
        }
        CellAgg::FullAgg(op) => {
            Matrix::dense(DenseMatrix::filled(1, 1, full_aggs(pass, &[op], rows * cols)[0]))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_core::spoof::block::compile_kernel;
    use fusedml_core::spoof::FusedSpec;

    /// Runs `backend` over a freshly lowered kernel.
    fn run(
        spec: &CellSpec,
        main: Option<&Matrix>,
        sides: &[Matrix],
        rows: usize,
        cols: usize,
        backend: CellBackend,
    ) -> Matrix {
        execute_with(spec, &compile_kernel(&spec.prog), main, sides, &[], rows, cols, backend)
    }
    use fusedml_core::spoof::{Instr, Program, SideAccess};
    use fusedml_linalg::generate;
    use fusedml_linalg::ops::{AggOp, BinaryOp};
    use fusedml_linalg::SparseMatrix;

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
            &crate::spoof::operator(FusedSpec::Cell(spec)),
            Some(&x),
            std::slice::from_ref(&y),
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
            &crate::spoof::operator(FusedSpec::Cell(spec)),
            Some(&x),
            std::slice::from_ref(&y),
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
                &crate::spoof::operator(FusedSpec::Cell(spec)),
                Some(&x),
                std::slice::from_ref(&y),
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
            &crate::spoof::operator(FusedSpec::Cell(spec_sparse)),
            Some(&sx),
            std::slice::from_ref(&y),
            &[],
            40,
            40,
        );
        let b = crate::spoof::execute(
            &crate::spoof::operator(FusedSpec::Cell(spec_dense)),
            Some(&dx),
            std::slice::from_ref(&y),
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
            &crate::spoof::operator(FusedSpec::Cell(spec)),
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
        let out = run(&spec, None, &[], 3, 0, CellBackend::Scalar);
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
                let out = run(&spec, Some(&x), std::slice::from_ref(&y), rows, cols, backend);
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

    /// A dense walk takes no scatter buffers, which only CSR tiles gather
    /// into: three dense side gathers ask the pool for what none do.
    #[test]
    fn dense_walk_takes_no_scatter_buffers() {
        use fusedml_linalg::{par, pool};
        use std::sync::Arc;
        let (rows, cols) = (4, 2000);
        let x = generate::rand_dense(rows, cols, -1.0, 1.0, 14);
        let ys: Vec<Matrix> =
            (0..3).map(|s| generate::rand_dense(rows, cols, -1.0, 1.0, 15 + s)).collect();
        let sides = &ys[..];
        // sum(X * Y0 * Y1 * Y2) over `n` side gathers.
        let requests = |n: usize| {
            let mut instrs = vec![Instr::LoadMain { out: 0 }];
            for side in 0..n {
                let r = (2 * side + 1) as u16;
                instrs.push(Instr::LoadSide { out: r, side, access: SideAccess::Cell });
                instrs.push(Instr::Binary { out: r + 1, op: BinaryOp::Mult, a: r - 1, b: r });
            }
            let spec = CellSpec {
                prog: Program { instrs, n_regs: (2 * n + 1) as u16, vreg_lens: vec![] },
                result: (2 * n) as u16,
                agg: CellAgg::FullAgg(AggOp::Sum),
                sparse_safe: false,
            };
            let tally = Arc::new(pool::PoolTally::default());
            let _pool = pool::enter_tallied(&pool::BufferPool::handle(), &tally);
            let _one = par::limit_current_thread(1);
            run(&spec, Some(&x), &sides[..n], rows, cols, CellBackend::Block);
            tally.hits() + tally.misses()
        };
        assert_eq!(requests(3), requests(0));
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
                let sides = [y.clone()];
                let oracle = run(&spec, Some(main), &sides, rows, cols, CellBackend::Scalar);
                for backend in [CellBackend::Block, CellBackend::Mono] {
                    let out = run(&spec, Some(main), &sides, rows, cols, backend);
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
