//! Vector-primitive library for generated fused operators, mirroring
//! SystemML's `LibSpoofPrimitives`.
//!
//! Fused operators produced by the code generator do not materialize matrix
//! intermediates; instead they call these primitives on row slices and
//! scalars. Separating primitives from generated code keeps the per-operator
//! instruction footprint small (paper §5.2, Figure 10). Dense primitives take
//! `(&[f64], offset, len)` triples exactly like the Java originals; sparse
//! primitives additionally take the non-zero index array `aix`.
//!
//! This module is the calling convention, not a second implementation: the
//! dense hot loops ([`dot_product`], [`vect_mult_add`], [`vect_sum`],
//! [`vect_sum_sq`]) re-slice their arguments and call [`crate::simd`], which
//! compiles each kernel for AVX2+FMA and for the baseline target. What is
//! written out here — `min` / `max` folds, the scatter loops over `aix`,
//! `vect_outer_mult_add`, cumsum — has no explicit-SIMD form.

/// `sum(a[ai..ai+len] * b[bi..bi+len])` — dispatches to the AVX2+FMA path
/// when available (see [`crate::simd`]).
#[inline]
pub fn dot_product(a: &[f64], b: &[f64], ai: usize, bi: usize, len: usize) -> f64 {
    crate::simd::dot(&a[ai..ai + len], &b[bi..bi + len])
}

/// Sparse dot product: `sum(avals * b[bi + aix])` over the non-zeros of `a`.
#[inline]
pub fn dot_product_sparse(avals: &[f64], aix: &[usize], b: &[f64], bi: usize) -> f64 {
    let mut acc = 0.0;
    for (v, &ix) in avals.iter().zip(aix.iter()) {
        acc += v * b[bi + ix];
    }
    acc
}

/// `c[ci..ci+len] += a[ai..ai+len] * bval` — SIMD axpy (see [`crate::simd`]).
#[inline]
pub fn vect_mult_add(a: &[f64], bval: f64, c: &mut [f64], ai: usize, ci: usize, len: usize) {
    crate::simd::axpy(&a[ai..ai + len], bval, &mut c[ci..ci + len]);
}

/// Sparse variant: `c[ci + aix[k]] += avals[k] * bval`.
#[inline]
pub fn vect_mult_add_sparse(avals: &[f64], aix: &[usize], bval: f64, c: &mut [f64], ci: usize) {
    for (v, &ix) in avals.iter().zip(aix.iter()) {
        c[ci + ix] += v * bval;
    }
}

/// `sum(a[ai..ai+len])` — SIMD horizontal reduction (see [`crate::simd`]).
#[inline]
pub fn vect_sum(a: &[f64], ai: usize, len: usize) -> f64 {
    crate::simd::sum(&a[ai..ai + len])
}

/// `sum(a^2)` — SIMD horizontal reduction (see [`crate::simd`]).
#[inline]
pub fn vect_sum_sq(a: &[f64], ai: usize, len: usize) -> f64 {
    crate::simd::sum_sq(&a[ai..ai + len])
}

/// `max(a)`.
#[inline]
pub fn vect_max(a: &[f64], ai: usize, len: usize) -> f64 {
    let a = &a[ai..ai + len];
    a.iter().copied().fold(f64::NEG_INFINITY, crate::ops::max)
}

/// `min(a)`.
#[inline]
pub fn vect_min(a: &[f64], ai: usize, len: usize) -> f64 {
    let a = &a[ai..ai + len];
    a.iter().copied().fold(f64::INFINITY, crate::ops::min)
}

/// Outer-product accumulation `C[ci + i*n + j] += a[ai+i] * b[j]` for the
/// row-major `m×n` output block; used by Row-template column aggregations
/// (`vectOuterMultAdd`).
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors SystemML's LibSpoofPrimitives (array, offset, length) calling convention
pub fn vect_outer_mult_add(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    ai: usize,
    bi: usize,
    ci: usize,
    alen: usize,
    blen: usize,
) {
    let a = &a[ai..ai + alen];
    let b = &b[bi..bi + blen];
    for (i, &av) in a.iter().enumerate() {
        if av != 0.0 {
            let crow = &mut c[ci + i * blen..ci + (i + 1) * blen];
            for (j, &bv) in b.iter().enumerate() {
                crow[j] += av * bv;
            }
        }
    }
}

/// `c[ci..] += a[ai..]` (accumulate a full vector).
#[inline]
pub fn vect_add(a: &[f64], c: &mut [f64], ai: usize, ci: usize, len: usize) {
    let a = &a[ai..ai + len];
    let c = &mut c[ci..ci + len];
    for i in 0..len {
        c[i] += a[i];
    }
}

/// Scatter-accumulate sparse vector into dense: `c[ci+aix[k]] += avals[k]`.
#[inline]
pub fn vect_add_sparse(avals: &[f64], aix: &[usize], c: &mut [f64], ci: usize) {
    for (v, &ix) in avals.iter().zip(aix.iter()) {
        c[ci + ix] += v;
    }
}

/// Cumulative sum over a row vector, in place.
#[inline]
pub fn vect_cumsum_inplace(a: &mut [f64]) {
    let mut acc = 0.0;
    for v in a.iter_mut() {
        acc += *v;
        *v = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_matches_naive() {
        let a: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..17).map(|i| (i * 2) as f64).collect();
        let expect: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot_product(&a, &b, 0, 0, 17), expect);
        // Offsets:
        let expect2: f64 = a[3..10].iter().zip(&b[5..12]).map(|(x, y)| x * y).sum();
        assert_eq!(dot_product(&a, &b, 3, 5, 7), expect2);
    }

    #[test]
    fn sparse_dot() {
        let avals = [2.0, 3.0];
        let aix = [1usize, 4];
        let b = [1.0, 10.0, 1.0, 1.0, 100.0];
        assert_eq!(dot_product_sparse(&avals, &aix, &b, 0), 320.0);
    }

    #[test]
    fn mult_add_accumulates() {
        let a = [1.0, 2.0, 3.0];
        let mut c = [10.0, 10.0, 10.0];
        vect_mult_add(&a, 2.0, &mut c, 0, 0, 3);
        assert_eq!(c, [12.0, 14.0, 16.0]);
    }

    #[test]
    fn sparse_mult_add_scatters() {
        let avals = [5.0];
        let aix = [2usize];
        let mut c = [0.0; 4];
        vect_mult_add_sparse(&avals, &aix, 3.0, &mut c, 0);
        assert_eq!(c, [0.0, 0.0, 15.0, 0.0]);
    }

    #[test]
    fn sums_and_extrema() {
        let a: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(vect_sum(&a, 0, 10), 55.0);
        assert_eq!(vect_sum_sq(&a, 0, 10), 385.0);
        assert_eq!(vect_max(&a, 0, 10), 10.0);
        assert_eq!(vect_min(&a, 2, 5), 3.0);
    }

    #[test]
    fn outer_mult_add() {
        let a = [1.0, 2.0];
        let b = [10.0, 20.0, 30.0];
        let mut c = vec![0.0; 6];
        vect_outer_mult_add(&a, &b, &mut c, 0, 0, 0, 2, 3);
        assert_eq!(c, vec![10.0, 20.0, 30.0, 20.0, 40.0, 60.0]);
    }

    #[test]
    fn unary_and_cumsum() {
        let mut c = [1.0, 2.0, 3.0];
        vect_cumsum_inplace(&mut c);
        assert_eq!(c, [1.0, 3.0, 6.0]);
    }

    #[test]
    fn add_and_scatter() {
        let a = [1.0, 2.0];
        let mut c = [1.0, 1.0];
        vect_add(&a, &mut c, 0, 0, 2);
        assert_eq!(c, [2.0, 3.0]);
        let mut d = [0.0; 3];
        vect_add_sparse(&[7.0], &[1], &mut d, 0);
        assert_eq!(d, [0.0, 7.0, 0.0]);
    }
}
