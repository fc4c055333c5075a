//! Compressed-matrix execution of fused Cell operators (paper §5.2,
//! Figure 9): under the conditions of a *single input* and *sparse-safe
//! operations*, the skeleton calls the generated operator only for the
//! distinct dictionary values of each column group, scaled by their counts —
//! achieving performance "remarkably close to hand-coded CLA operations".

use fusedml_cla::CompressedMatrix;
use fusedml_core::spoof::{eval_scalar_program, CellAgg, CellSpec, SideAccess};
use fusedml_linalg::ops::AggOp;
use fusedml_linalg::{DenseMatrix, Matrix};

/// Whether a Cell spec qualifies for dictionary-only execution: sparse-safe,
/// value-only (no side inputs or position-dependent accesses), and a full
/// aggregation.
pub fn qualifies(spec: &CellSpec, n_sides: usize) -> bool {
    spec.sparse_safe
        && n_sides == 0
        && matches!(spec.agg, CellAgg::FullAgg(_))
        && !spec
            .prog
            .instrs
            .iter()
            .any(|i| matches!(i, fusedml_core::spoof::Instr::LoadSide { .. }))
}

/// Executes a qualifying Cell operator over a compressed matrix via
/// `(value, count)` iteration. Panics if [`qualifies`] is false.
pub fn execute_cell_over_compressed(spec: &CellSpec, cm: &CompressedMatrix) -> Matrix {
    let CellAgg::FullAgg(op) = spec.agg else {
        panic!("dictionary-only execution requires a full aggregation")
    };
    assert!(spec.sparse_safe, "dictionary-only execution requires sparse-safety");
    let side = |_: usize, _: SideAccess| 0.0;
    let mut regs = vec![0.0f64; spec.prog.n_regs as usize];
    let mut acc = op.identity();
    for vc in cm.group_value_counts() {
        for (v, n) in vc {
            eval_scalar_program(&spec.prog, &mut regs, v, 0.0, &side, &[]);
            let out = regs[spec.result as usize];
            match op {
                AggOp::Sum | AggOp::Mean => acc += out * n as f64,
                AggOp::SumSq => acc += out * out * n as f64,
                AggOp::Min | AggOp::Max => acc = op.combine(acc, out),
            }
        }
    }
    if op == AggOp::Mean {
        acc /= (cm.rows() * cm.cols()) as f64;
    }
    Matrix::dense(DenseMatrix::filled(1, 1, acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_cla::compress;
    use fusedml_core::spoof::{Instr, Program};
    use fusedml_linalg::generate;
    use fusedml_linalg::ops::{AggDir, BinaryOp, UnaryOp};

    /// Spec for `sum(X^2)` — the Figure 9 workload.
    fn sum_sq_spec() -> CellSpec {
        CellSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMain { out: 0 },
                    Instr::Binary { out: 1, op: BinaryOp::Mult, a: 0, b: 0 },
                ],
                n_regs: 2,
                vreg_lens: vec![],
            },
            result: 1,
            agg: CellAgg::FullAgg(AggOp::Sum),
            sparse_safe: true,
        }
    }

    #[test]
    fn matches_uncompressed_reference() {
        let x = generate::airline_like(2_000, 8, 12, 5);
        let cm = compress(&x);
        let spec = sum_sq_spec();
        assert!(qualifies(&spec, 0));
        let got = execute_cell_over_compressed(&spec, &cm).get(0, 0);
        let sq = fusedml_linalg::ops::unary(&x, UnaryOp::Pow2);
        let expect = fusedml_linalg::ops::agg(&sq, AggOp::Sum, AggDir::Full).get(0, 0);
        assert!(fusedml_linalg::approx_eq(got, expect, 1e-9));
    }

    #[test]
    fn works_on_sparse_compressed_data() {
        let x = generate::rand_matrix(3_000, 6, 1.0, 3.0, 0.05, 6);
        let cm = compress(&x);
        let got = execute_cell_over_compressed(&sum_sq_spec(), &cm).get(0, 0);
        let expect = fusedml_linalg::ops::agg(&x, AggOp::SumSq, AggDir::Full).get(0, 0);
        assert!(fusedml_linalg::approx_eq(got, expect, 1e-9));
    }

    #[test]
    fn side_inputs_disqualify() {
        let spec = CellSpec {
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
            agg: CellAgg::FullAgg(AggOp::Sum),
            sparse_safe: true,
        };
        assert!(!qualifies(&spec, 1));
        assert!(!qualifies(&spec, 0), "LoadSide in program disqualifies too");
    }

    #[test]
    fn min_max_aggregates_supported() {
        let x = generate::airline_like(1_000, 4, 7, 8);
        let cm = compress(&x);
        for op in [AggOp::Min, AggOp::Max] {
            let spec = CellSpec { agg: CellAgg::FullAgg(op), ..sum_sq_spec() };
            let got = execute_cell_over_compressed(&spec, &cm).get(0, 0);
            let sq = fusedml_linalg::ops::unary(&x, UnaryOp::Pow2);
            let expect = fusedml_linalg::ops::agg(&sq, op, AggDir::Full).get(0, 0);
            assert!(fusedml_linalg::approx_eq(got, expect, 1e-9), "{op:?}");
        }
    }
}
