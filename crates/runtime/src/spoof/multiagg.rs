//! The `SpoofMultiAggregate` skeleton: one pass over the shared main input
//! evaluating `k` aggregate programs (paper §5.2 "Multi-Aggregate
//! Operations": `sum(X⊙Y), sum(X⊙Z)` compile to one operator with a shared
//! read of `X`).
//!
//! The block backend (default) is one `tiles::CellPass` into its `Full(k)`
//! sink — Cell's `FullAgg` with `k` accumulators; the per-cell scalar pass
//! (`CellBackend::Scalar`) is the differential-test oracle.

use super::{full_aggs, with_pass, PassInput};
use crate::side::SideInput;
use fusedml_core::spoof::block::CellBackend;
use fusedml_core::spoof::{MAggSpec, Reg};
use fusedml_linalg::ops::AggOp;
use fusedml_linalg::{DenseMatrix, Matrix};

/// Executes a MultiAgg operator, returning one 1×1 matrix per aggregate.
pub fn execute(
    spec: &MAggSpec,
    main: Option<&Matrix>,
    sides: &[SideInput],
    scalars: &[f64],
    iter_rows: usize,
    iter_cols: usize,
) -> Vec<Matrix> {
    execute_with(spec, main, sides, scalars, iter_rows, iter_cols, CellBackend::Mono)
}

/// Executes under an explicit backend (differential tests pin `Scalar`).
pub fn execute_with(
    spec: &MAggSpec,
    main: Option<&Matrix>,
    sides: &[SideInput],
    scalars: &[f64],
    iter_rows: usize,
    iter_cols: usize,
    backend: CellBackend,
) -> Vec<Matrix> {
    let (regs, ops): (Vec<Reg>, Vec<AggOp>) = spec.results.iter().copied().unzip();
    let input = PassInput {
        prog: &spec.prog,
        regs: &regs,
        main,
        sides,
        scalars,
        rows: iter_rows,
        cols: iter_cols,
        sparse_safe: spec.sparse_safe,
        factors: None,
    };
    let accs = with_pass(input, backend, |pass| full_aggs(pass, &ops, iter_rows * iter_cols));
    accs.into_iter().map(|v| Matrix::dense(DenseMatrix::filled(1, 1, v))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_core::spoof::{Instr, Program, SideAccess};
    use fusedml_linalg::generate;
    use fusedml_linalg::ops::{self, AggDir, AggOp, BinaryOp};

    /// `sum(X⊙Y), sum(X⊙Z)`: two aggregates sharing the main input.
    fn spec() -> MAggSpec {
        MAggSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMain { out: 0 },
                    Instr::LoadSide { out: 1, side: 0, access: SideAccess::Cell },
                    Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
                    Instr::LoadSide { out: 3, side: 1, access: SideAccess::Cell },
                    Instr::Binary { out: 4, op: BinaryOp::Mult, a: 0, b: 3 },
                ],
                n_regs: 5,
                vreg_lens: vec![],
            },
            results: vec![(2, AggOp::Sum), (4, AggOp::Sum)],
            sparse_safe: true,
        }
    }

    #[test]
    fn two_aggregates_match_reference() {
        let x = generate::rand_matrix(60, 50, -1.0, 1.0, 0.2, 1);
        let y = generate::rand_dense(60, 50, -1.0, 1.0, 2);
        let z = generate::rand_dense(60, 50, -1.0, 1.0, 3);
        let outs =
            execute(&spec(), Some(&x), &[SideInput::bind(&y), SideInput::bind(&z)], &[], 60, 50);
        assert_eq!(outs.len(), 2);
        let e1 = ops::agg(&ops::binary(&x, &y, BinaryOp::Mult), AggOp::Sum, AggDir::Full);
        let e2 = ops::agg(&ops::binary(&x, &z, BinaryOp::Mult), AggOp::Sum, AggDir::Full);
        assert!(fusedml_linalg::approx_eq(outs[0].get(0, 0), e1.get(0, 0), 1e-9));
        assert!(fusedml_linalg::approx_eq(outs[1].get(0, 0), e2.get(0, 0), 1e-9));
    }

    #[test]
    fn dense_main_path_agrees_with_sparse() {
        let xd = generate::rand_matrix(40, 40, -1.0, 1.0, 0.3, 4).to_dense();
        let y = generate::rand_dense(40, 40, -1.0, 1.0, 5);
        let z = generate::rand_dense(40, 40, -1.0, 1.0, 6);
        let sides = [SideInput::bind(&y), SideInput::bind(&z)];
        let sx = Matrix::sparse(fusedml_linalg::SparseMatrix::from_dense(&xd));
        let dx = Matrix::dense(xd);
        let a = execute(&spec(), Some(&sx), &sides, &[], 40, 40);
        let b = execute(&spec(), Some(&dx), &sides, &[], 40, 40);
        for (x1, x2) in a.iter().zip(&b) {
            assert!(fusedml_linalg::approx_eq(x1.get(0, 0), x2.get(0, 0), 1e-9));
        }
    }

    #[test]
    fn block_backends_match_scalar_oracle() {
        // Mixed aggregates (a product chain and a `Max` map, three folds)
        // over ragged shapes.
        let mixed = MAggSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMain { out: 0 },
                    Instr::LoadSide { out: 1, side: 0, access: SideAccess::Cell },
                    Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
                    Instr::LoadSide { out: 3, side: 1, access: SideAccess::Cell },
                    Instr::Binary { out: 4, op: BinaryOp::Max, a: 0, b: 3 },
                ],
                n_regs: 5,
                vreg_lens: vec![],
            },
            results: vec![(2, AggOp::Sum), (4, AggOp::Max), (2, AggOp::Mean)],
            sparse_safe: false,
        };
        let (rows, cols) = (31, 270);
        let xd = generate::rand_matrix(rows, cols, -1.0, 1.0, 0.4, 7).to_dense();
        let y = generate::rand_dense(rows, cols, -1.0, 1.0, 8);
        let z = generate::rand_dense(rows, cols, -1.0, 1.0, 9);
        let sides = [SideInput::bind(&y), SideInput::bind(&z)];
        let sx = Matrix::sparse(fusedml_linalg::SparseMatrix::from_dense(&xd));
        let dx = Matrix::dense(xd);
        for spec in [spec(), mixed] {
            for main in [&dx, &sx] {
                let oracle =
                    execute_with(&spec, Some(main), &sides, &[], rows, cols, CellBackend::Scalar);
                for backend in [CellBackend::Block, CellBackend::Mono] {
                    let outs = execute_with(&spec, Some(main), &sides, &[], rows, cols, backend);
                    for (o, e) in outs.iter().zip(&oracle) {
                        assert!(
                            fusedml_linalg::approx_eq(o.get(0, 0), e.get(0, 0), 1e-12),
                            "{backend:?} sparse={} {} vs {}",
                            main.is_sparse(),
                            o.get(0, 0),
                            e.get(0, 0)
                        );
                    }
                }
            }
        }
    }
}
