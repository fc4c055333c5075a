#![allow(dead_code)] // each integration test links the helpers it needs
//! What "bitwise equal" means in the differential suites (DESIGN.md X10):
//! the same bit pattern, signed zeros and infinities included; **any NaN
//! equals any NaN**. Rust leaves the sign and payload of a computed NaN
//! unspecified — a constant-folded `0.0 / 0.0` and the one x86 produces at run
//! time differ in the sign bit — so no backend can be held to them.

use fusedml_linalg::matrix::Value;
use fusedml_linalg::Matrix;

/// The X10 cell rule.
pub fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Same shape, and every cell [`bits_eq`].
pub fn assert_bitwise(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
    for r in 0..got.rows() {
        for c in 0..got.cols() {
            let (g, w) = (got.get(r, c), want.get(r, c));
            assert!(bits_eq(g, w), "{what}: cell ({r},{c}) differs bitwise ({g:?} vs {w:?})");
        }
    }
}

/// [`assert_bitwise`] over the roots of two executions (a scalar root is a
/// 1×1 matrix).
pub fn assert_roots_bitwise(got: &[Value], want: &[Value], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: root count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_bitwise(&g.as_matrix(), &w.as_matrix(), &format!("{what} root {i}"));
    }
}
