//! The `SpoofMultiAggregate` skeleton: one pass over the shared main input
//! evaluating `k` aggregate programs (paper §5.2 "Multi-Aggregate
//! Operations": `sum(X⊙Y), sum(X⊙Z)` compile to one operator with a shared
//! read of `X`).
//!
//! The block backend (default) is one `tiles::CellPass` into its `Full(k)` sink —
//! Cell's `FullAgg` with `k` accumulators; the per-cell scalar interpreter is
//! retained as the differential-test oracle.

use crate::side::SideInput;
use crate::spoof::tiles::CellPass;
use fusedml_core::spoof::block::CellBackend;
use fusedml_core::spoof::{eval_scalar_program, MAggSpec, Reg, SideAccess};
use fusedml_linalg::ops::AggOp;
use fusedml_linalg::{par, DenseMatrix, Matrix};

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
    let pass = CellPass::new(
        &spec.prog,
        &regs,
        backend,
        main,
        sides,
        scalars,
        iter_rows,
        iter_cols,
        spec.sparse_safe,
        None,
    );
    let accs = match pass {
        Some(pass) => pass.full(&ops),
        None => scalar_fold(spec, main, sides, scalars, iter_rows, iter_cols),
    };
    // Shared finalization: min/max over sparse-safe iteration must still
    // observe the implicit zeros, and `Mean` divides by the cell count.
    // (Only a CSR main is asked its non-zeros: a dense one would count them
    // in a scan as long as the pass.)
    let total = iter_rows * iter_cols;
    let unseen_zeros = match main {
        Some(Matrix::Sparse(s)) => spec.sparse_safe && s.nnz() < total,
        _ => false,
    };
    accs.into_iter()
        .zip(&spec.results)
        .map(|(mut v, &(_, op))| {
            if unseen_zeros && !op.sparse_safe() {
                v = op.fold(v, 0.0);
            }
            if op == AggOp::Mean {
                v /= total as f64;
            }
            Matrix::dense(DenseMatrix::filled(1, 1, v))
        })
        .collect()
}

fn scalar_fold(
    spec: &MAggSpec,
    main: Option<&Matrix>,
    sides: &[SideInput],
    scalars: &[f64],
    iter_rows: usize,
    iter_cols: usize,
) -> Vec<f64> {
    let k = spec.results.len();
    let identities: Vec<f64> = spec.results.iter().map(|&(_, op)| op.identity()).collect();

    let fold_row_range = |lo: usize, hi: usize| -> Vec<f64> {
        let mut regs = vec![0.0f64; spec.prog.n_regs as usize];
        let mut accs = identities.clone();
        let mut fold_cell = |a: f64, r: usize, c: usize, accs: &mut Vec<f64>| {
            let side_at = |i: usize, acc: SideAccess| sides[i].value_at(acc, r, c);
            eval_scalar_program(&spec.prog, &mut regs, a, 0.0, &side_at, scalars);
            for (j, &(reg, op)) in spec.results.iter().enumerate() {
                accs[j] = op.fold(accs[j], regs[reg as usize]);
            }
        };
        match (main, spec.sparse_safe) {
            (Some(Matrix::Sparse(s)), true) => {
                for r in lo..hi {
                    for (c, v) in s.row_iter(r) {
                        fold_cell(v, r, c, &mut accs);
                    }
                }
            }
            (m, _) => {
                for r in lo..hi {
                    for c in 0..iter_cols {
                        let a = m.map_or(0.0, |mm| mm.get(r, c));
                        fold_cell(a, r, c, &mut accs);
                    }
                }
            }
        }
        accs
    };

    par::par_map_reduce(
        iter_rows,
        iter_cols.max(1) * 4 * k,
        identities.clone(),
        fold_row_range,
        |mut a, b| {
            for (j, &(_, op)) in spec.results.iter().enumerate() {
                a[j] = op.combine(a[j], b[j]);
            }
            a
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_core::spoof::{Instr, Program};
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
