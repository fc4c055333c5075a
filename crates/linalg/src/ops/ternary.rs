//! Ternary fused scalar operations (`+*`, `-*`, `ifelse`).

use super::{resolve_broadcast, ter_loop, Broadcast, OpRef, TernaryOp};
use crate::dense::DenseMatrix;
use crate::matrix::Matrix;
use crate::par;

/// `out = op(a, b, c)` cell-wise, with each of `b` and `c` independently
/// broadcast (cellwise / column vector / row vector / scalar) against `a`'s
/// geometry: one [`ter_loop`] per row. Always produces a dense output:
/// ternary operators are not sparse-safe in general (`0 + b*c != 0`).
pub fn ternary(a: &Matrix, b: &Matrix, c: &Matrix, op: TernaryOp) -> Matrix {
    let (rows, cols) = (a.rows(), a.cols());
    let bcb = resolve_broadcast(rows, cols, b);
    let bcc = resolve_broadcast(rows, cols, c);
    let (ad, bd, cd) = (a.dense_view(), b.dense_view(), c.dense_view());
    let mut out = crate::pool::take_unzeroed(rows * cols);
    par::par_rows_mut(&mut out, rows, cols, cols.max(1), |r, orow| {
        let (bv, cv) = (bcast_row(&bd, bcb, r), bcast_row(&cd, bcc, r));
        ter_loop(op, OpRef::S(ad.row(r)), bv, cv, orow);
    });
    Matrix::dense(DenseMatrix::new(rows, cols, out))
}

/// Row `r` of a broadcast operand: a slice, or one value for the row.
#[inline]
fn bcast_row(m: &DenseMatrix, bc: Broadcast, r: usize) -> OpRef<'_> {
    match bc {
        Broadcast::Cellwise => OpRef::S(m.row(r)),
        Broadcast::ColVector => OpRef::C(m.get(r, 0)),
        Broadcast::RowVector => OpRef::S(m.row(0)),
        Broadcast::Scalar => OpRef::C(m.get(0, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(rows: &[&[f64]]) -> Matrix {
        Matrix::dense(DenseMatrix::from_rows(rows))
    }

    #[test]
    fn plus_mult() {
        let a = dm(&[&[1.0, 2.0]]);
        let b = dm(&[&[3.0, 4.0]]);
        let c = dm(&[&[5.0, 6.0]]);
        let r = ternary(&a, &b, &c, TernaryOp::PlusMult);
        assert_eq!(r.get(0, 0), 16.0);
        assert_eq!(r.get(0, 1), 26.0);
    }

    #[test]
    fn minus_mult_with_scalar_broadcast() {
        let a = dm(&[&[10.0, 20.0]]);
        let b = dm(&[&[2.0]]);
        let c = dm(&[&[3.0, 4.0]]);
        let r = ternary(&a, &b, &c, TernaryOp::MinusMult);
        assert_eq!(r.get(0, 0), 4.0);
        assert_eq!(r.get(0, 1), 12.0);
    }

    #[test]
    fn ifelse_selects() {
        let cond = dm(&[&[1.0, 0.0]]);
        let b = dm(&[&[7.0, 7.0]]);
        let c = dm(&[&[9.0, 9.0]]);
        let r = ternary(&cond, &b, &c, TernaryOp::IfElse);
        assert_eq!(r.get(0, 0), 7.0);
        assert_eq!(r.get(0, 1), 9.0);
    }

    /// One `ter_loop` per row is bitwise `op.apply` per cell, for every
    /// operator and every broadcast of `b` and `c` (signed zeros and a NaN
    /// among the values; `+*` / `-*` are not contracted).
    #[test]
    fn rows_are_bitwise_the_per_cell_apply() {
        let (rows, cols) = (3, 5);
        let val = |i: usize| [0.5, -0.0, 1.25, f64::NAN, -3.0, 0.0, 7.5][i % 7];
        let m = |r: usize, c: usize, s: usize| {
            let v: Vec<f64> = (0..r * c).map(|i| val(i + s)).collect();
            Matrix::dense(DenseMatrix::new(r, c, v))
        };
        let a = m(rows, cols, 0);
        let shapes = [(rows, cols), (rows, 1), (1, cols), (1, 1)];
        for op in [TernaryOp::PlusMult, TernaryOp::MinusMult, TernaryOp::IfElse] {
            for (i, &(br, bc)) in shapes.iter().enumerate() {
                for &(cr, cc) in &shapes {
                    let (b, c) = (m(br, bc, i + 1), m(cr, cc, i + 3));
                    let out = ternary(&a, &b, &c, op);
                    for r in 0..rows {
                        for k in 0..cols {
                            let at = |x: &Matrix| x.get(r.min(x.rows() - 1), k.min(x.cols() - 1));
                            let want = op.apply(a.get(r, k), at(&b), at(&c));
                            let got = out.get(r, k);
                            assert!(
                                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                                "{op:?} b {br}x{bc} c {cr}x{cc} ({r},{k}): {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn col_vector_broadcast_in_b_and_c() {
        let a = dm(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let b = dm(&[&[10.0], &[20.0]]);
        let c = dm(&[&[0.5, 1.5]]);
        let r = ternary(&a, &b, &c, TernaryOp::PlusMult);
        assert_eq!(r.get(0, 0), 6.0);
        assert_eq!(r.get(1, 1), 32.0);
    }
}
