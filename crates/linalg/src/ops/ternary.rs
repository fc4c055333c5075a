//! Ternary fused scalar operations (`+*`, `-*`, `ifelse`).

use super::{resolve_broadcast, Broadcast, TernaryOp};
use crate::dense::DenseMatrix;
use crate::matrix::Matrix;
use crate::par;

/// `out = op(a, b, c)` cell-wise, with each of `b` and `c` independently
/// broadcast (cellwise / column vector / row vector / scalar) against `a`'s
/// geometry. Always produces a dense output: ternary operators are not
/// sparse-safe in general (`0 + b*c != 0`).
pub fn ternary(a: &Matrix, b: &Matrix, c: &Matrix, op: TernaryOp) -> Matrix {
    let (rows, cols) = (a.rows(), a.cols());
    let bcb = resolve_broadcast(rows, cols, b);
    let bcc = resolve_broadcast(rows, cols, c);
    let (ad, bd, cd) = (a.dense_view(), b.dense_view(), c.dense_view());
    let mut out = crate::pool::take_unzeroed(rows * cols);
    par::par_rows_mut(&mut out, rows, cols, cols.max(1), |r, orow| {
        let arow = ad.row(r);
        for col in 0..cols {
            let bv = bcast_get(&bd, bcb, r, col);
            let cv = bcast_get(&cd, bcc, r, col);
            orow[col] = op.apply(arow[col], bv, cv);
        }
    });
    Matrix::dense(DenseMatrix::new(rows, cols, out))
}

#[inline(always)]
fn bcast_get(m: &DenseMatrix, bc: Broadcast, r: usize, c: usize) -> f64 {
    match bc {
        Broadcast::Cellwise => m.get(r, c),
        Broadcast::ColVector => m.get(r, 0),
        Broadcast::RowVector => m.get(0, c),
        Broadcast::Scalar => m.get(0, 0),
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
