//! SIMD tile primitives for the fused block engine (DESIGN.md substitution
//! X10).
//!
//! The default x86-64 target only assumes SSE2, so a plain Rust loop
//! autovectorizes to 128-bit code at best. Each primitive here has **one
//! source**: a portable body generic over `const FMA: bool` — reductions
//! over four lane accumulators in 4-element chunks, element-wise kernels a
//! plain loop — which the `primitive!` macro compiles twice: under
//! `#[target_feature(enable = "avx2,fma")]` with `FMA = true` (LLVM keeps the
//! four lanes in one 256-bit register, vectorizes the loops to 256 bits and
//! contracts `a·b + c` into one `vfmadd…pd`) and for the baseline target
//! with `FMA = false` (a multiply then an add). The public entry points pick
//! an instance per call, so non-AVX2 hosts and the `FUSEDML_FORCE_SCALAR` CI
//! leg run the same body.
//! One kernel stays hand-written `std::arch` code in `mod avx2`, with a
//! scalar twin: the [`gemm`] micro-tile (masked edge tiles, the hottest
//! kernel). [`gather_into`] is a plain indexed loop on every target.
//! [`crate::primitives`] is the `(array, offset, len)` calling convention
//! over these kernels (`dot_product` → [`dot`], `vect_mult_add` → [`axpy`],
//! `vect_sum` → [`sum`], `vect_sum_sq` → [`sum_sq`]).
//!
//! **Rounding policy** (pinned; see DESIGN.md §4 X10): the two instances of
//! a primitive perform the same operations in the same order and differ only
//! by FMA contraction. Elementwise *map* kernels (`mul2_into`, `mul3_into`,
//! `gather_into`) contract nothing and are bitwise identical on every
//! backend. *Reductions* (`dot*`, `sum`, `sum_sq`) keep four lane
//! accumulators, fold a ragged tail into them as one zero-padded chunk and
//! combine them as `(l0 + l1) + (l2 + l3)`; `axpy` and the register-blocked
//! matrix kernels ([`gemm`], [`sparse_row_gemm`], [`scatter_axpy`])
//! accumulate every output element over the inner index ascending — bitwise
//! what a chain of [`axpy`] calls gives on the same backend, whatever the
//! tile shape. Where every product is exact, both legs return the same bits.
//! [`dot_sums`] runs several `dot` terms in one loop and is bitwise each
//! single-term kernel on the same backend. The row-batch kernels
//! ([`dot_rows`], [`dot_rows_at`], [`dot_pairs`], [`sum_rows`],
//! [`axpy_gather`], [`axpy_scatter`]) run a tile's short rows in one call,
//! each result bitwise what the per-row `dot` / `sum` / `sum_sq` / `axpy`
//! call gives on the same backend; `dot_rows_at` and `dot_pairs` run four
//! dots per loop, each with its own lanes, tail and lane sum. `min`/`max`
//! folds are deliberately *not* implemented here: `_mm256_min_pd` does not
//! match `ops::min` on NaN and ±0.0, and the portable fold in `primitives`
//! is already cheap.
//!
//! Feature detection runs once (`std::arch::is_x86_feature_detected!`) and
//! is cached; [`force_scalar`] flips a process-wide override so
//! differential tests exercise the baseline leg in the same process, and
//! the `FUSEDML_FORCE_SCALAR` environment variable does the same for whole
//! test-suite runs (the CI scalar-fallback leg).

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set level the dispatchers select.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// The baseline instances and scalar twins (also the non-x86 and
    /// forced-fallback path).
    Scalar,
    /// The AVX2+FMA instances and kernels.
    Avx2,
}

/// Cached detection state: 0 = undetected, 1 = scalar, 2 = avx2.
static LEVEL: AtomicU8 = AtomicU8::new(0);
/// Runtime override: 0 = off, 1 = force scalar (differential tests).
static FORCE_SCALAR: AtomicU8 = AtomicU8::new(0);

#[cold]
fn detect() -> u8 {
    let lvl = if std::env::var_os("FUSEDML_FORCE_SCALAR").is_some_and(|v| v != "0" && !v.is_empty())
    {
        1
    } else {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                2
            } else {
                1
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            1
        }
    };
    LEVEL.store(lvl, Ordering::Relaxed);
    lvl
}

/// The SIMD level the dispatchers currently select (detection cached after
/// the first call; [`force_scalar`] overrides it at any time).
#[inline]
pub fn level() -> SimdLevel {
    if FORCE_SCALAR.load(Ordering::Relaxed) != 0 {
        return SimdLevel::Scalar;
    }
    let l = LEVEL.load(Ordering::Relaxed);
    let l = if l == 0 { detect() } else { l };
    if l == 2 {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

/// Forces every dispatcher onto the baseline leg (`true`) or
/// restores runtime detection (`false`). Process-wide; used by the
/// differential property tests to compare both paths in one process.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(u8::from(on), Ordering::Relaxed);
}

/// Whether the scalar override is currently active (env var or
/// [`force_scalar`]).
pub fn forced_scalar() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed) != 0 || level() == SimdLevel::Scalar
}

// ===========================================================================
// Portable bodies
// ===========================================================================

/// `a·b + c`: one fused rounding on the FMA instance, a multiply then an add
/// on the baseline one.
#[inline(always)]
fn madd<const FMA: bool>(a: f64, b: f64, c: f64) -> f64 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Folds `step(lane, x)` over the common length `n` of the inputs `xs` into
/// four lane accumulators, one 4-element chunk at a time; a ragged tail is
/// one more chunk, zero-padded, that updates all four lanes; the lanes then
/// combine as `(l0 + l1) + (l2 + l3)` — the accumulator register and masked
/// tail load of a 256-bit kernel. Under AVX2 the loop keeps the four lanes in
/// one `ymm`.
#[inline(always)]
fn fold_lanes<const K: usize>(xs: [&[f64]; K], step: impl Fn(f64, [f64; K]) -> f64) -> f64 {
    let n = xs.iter().map(|x| x.len()).min().unwrap_or(0);
    let xs = xs.map(|x| &x[..n]);
    let chunks = xs.map(|x| x.as_chunks::<4>().0);
    let mut acc = [0.0f64; 4];
    for chunk in (0..n / 4).map(|i| chunks.map(|c| &c[i])) {
        for (l, a) in acc.iter_mut().enumerate() {
            *a = step(*a, std::array::from_fn(|j| chunk[j][l]));
        }
    }
    if n % 4 != 0 {
        // Hidden from the optimizer, the tail's first index makes its four
        // lanes look alike: knowing the last lane is padding, LLVM's SLP pass
        // splits `sum`'s and `sum_sq`'s accumulator into 128-bit pairs.
        let k = std::hint::black_box(n - n % 4);
        for (l, a) in acc.iter_mut().enumerate() {
            *a = step(*a, std::array::from_fn(|j| xs[j].get(k + l).copied().unwrap_or(0.0)));
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Defines a public primitive from one body generic over `const FMA: bool`:
/// a `target_feature(avx2,fma)` instance with `FMA = true`, chosen when
/// [`level`] is [`SimdLevel::Avx2`], and the baseline instance with
/// `FMA = false`.
macro_rules! primitive {
    (
        $(#[$m:meta])*
        pub fn $name:ident<$fma:ident>($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$m])*
        #[inline]
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body<const $fma: bool>($($arg: $ty),*) $(-> $ret)? $body
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            fn fma($($arg: $ty),*) $(-> $ret)? {
                body::<true>($($arg),*)
            }
            fn baseline($($arg: $ty),*) $(-> $ret)? {
                body::<false>($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            if level() == SimdLevel::Avx2 {
                // SAFETY: level() == Avx2 implies runtime AVX2+FMA support.
                return unsafe { fma($($arg),*) };
            }
            baseline($($arg),*)
        }
    };
}

/// One `mr×nr` tile of [`gemm`]: `c`, `a` and `b` start at the tile's first
/// element. Same loop nest as the AVX2 body — the accumulator tile lives in
/// locals across the whole `p` loop, `p` ascends — with a separate multiply
/// and add where the vector body fuses them.
fn gemm_tile_scalar(
    c: &mut [f64],
    c_rs: usize,
    (mr, nr, kc): (usize, usize, usize),
    a: Lhs<'_>,
    (b, b_rs): (&[f64], usize),
    accumulate: bool,
) {
    let mut acc = [[0.0f64; NR]; MR];
    if accumulate {
        for (i, row) in acc.iter_mut().enumerate().take(mr) {
            row[..nr].copy_from_slice(&c[i * c_rs..i * c_rs + nr]);
        }
    }
    for p in 0..kc {
        let brow = &b[p * b_rs..p * b_rs + nr];
        for (i, row) in acc.iter_mut().enumerate().take(mr) {
            let av = a.data[i * a.rs + p * a.cs];
            for (x, &bv) in row.iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(mr) {
        c[i * c_rs..i * c_rs + nr].copy_from_slice(&row[..nr]);
    }
}

// ===========================================================================
// AVX2 + FMA kernels
// ===========================================================================

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Lane masks for ragged tails: entry `r` activates the first `r` lanes
    /// of a 256-bit masked load or store (high bit of each 64-bit lane
    /// selects).
    const TAIL_MASKS: [[i64; 4]; 5] =
        [[0, 0, 0, 0], [-1, 0, 0, 0], [-1, -1, 0, 0], [-1, -1, -1, 0], [-1, -1, -1, -1]];

    /// The mask activating the first `r ≤ 4` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane_mask(r: usize) -> __m256i {
        // SAFETY: TAIL_MASKS[r] is 32 readable bytes; loadu has no alignment
        // requirement (an `r > 4` panics on the index before the load).
        unsafe { _mm256_loadu_si256(TAIL_MASKS[r].as_ptr().cast()) }
    }

    /// The signature every [`gemm_tile`] instance shares.
    pub type GemmTile = unsafe fn(
        *mut f64,
        usize,
        (usize, usize, usize),
        *const f64,
        (usize, usize),
        *const f64,
        usize,
        bool,
    );

    /// One register tile of [`super::gemm`]: `C[mr×nr] (+)= Σ_p A(·,p)·B(p,·)`
    /// with the `MR × W` accumulator vectors held in registers across the
    /// whole `p` loop (`W` = 256-bit vectors per tile row: 2 for a full
    /// `NR`-column panel, 1 when `nr ≤ 4`), `p` ascending with one FMA per
    /// element per `p` — the association `axpy(B(p,·), A(i,p), C(i,·))` over
    /// ascending `p` produces. Rows `mr..MR` recompute row `mr − 1` and are
    /// not stored, so edge tiles run the same body. `B_FULL` promises that
    /// every `B` row is readable over all `4·W` lanes (a zero-padded packed
    /// panel); otherwise lanes at and beyond `nr` are masked off the loads.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and FMA, `1 ≤ mr ≤ MR`,
    /// `1 ≤ nr ≤ 4·W`, and that for all `i < mr`, `p < kc`:
    /// `a[i·a_rs + p·a_cs]` is readable, `b[p·b_rs + j]` is readable for
    /// `j < nr` (`j < 4·W` under `B_FULL`), and `c[i·c_rs + j]` is writable
    /// (and readable) for `j < nr`, with `c` overlapping neither input.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)] // a BLAS-style micro-kernel: three operands, their strides, the tile extents
    pub unsafe fn gemm_tile<const W: usize, const B_FULL: bool>(
        c: *mut f64,
        c_rs: usize,
        (mr, nr, kc): (usize, usize, usize),
        a: *const f64,
        (a_rs, a_cs): (usize, usize),
        b: *const f64,
        b_rs: usize,
        accumulate: bool,
    ) {
        debug_assert!((1..=super::MR).contains(&mr) && (1..=4 * W).contains(&nr));
        let masks: [__m256i; W] =
            std::array::from_fn(|w| lane_mask(nr.saturating_sub(4 * w).min(4)));
        let rows: [usize; super::MR] = std::array::from_fn(|i| i.min(mr - 1));
        let mut acc = [[_mm256_setzero_pd(); W]; super::MR];
        if accumulate {
            for (i, row) in acc.iter_mut().enumerate().take(mr) {
                for w in 0..W {
                    // SAFETY: row `i < mr` of `c` is readable over its first
                    // `nr` columns; the mask keeps lane `4w + l` off unless
                    // `4w + l < nr`.
                    row[w] = unsafe { _mm256_maskload_pd(c.add(i * c_rs + 4 * w), masks[w]) };
                }
            }
        }
        for p in 0..kc {
            let mut bv = [_mm256_setzero_pd(); W];
            for w in 0..W {
                // SAFETY: `p < kc`; under `B_FULL` all `4·W` lanes of the row
                // are readable, otherwise the mask stops at column `nr`.
                bv[w] = unsafe {
                    let bp = b.add(p * b_rs + 4 * w);
                    if B_FULL {
                        _mm256_loadu_pd(bp)
                    } else {
                        _mm256_maskload_pd(bp, masks[w])
                    }
                };
            }
            for i in 0..super::MR {
                // SAFETY: `rows[i] < mr` and `p < kc`, so the element is one
                // the caller guarantees readable.
                let av = unsafe { _mm256_set1_pd(*a.add(rows[i] * a_rs + p * a_cs)) };
                for w in 0..W {
                    acc[i][w] = _mm256_fmadd_pd(av, bv[w], acc[i][w]);
                }
            }
        }
        for (i, row) in acc.iter().enumerate().take(mr) {
            for w in 0..W {
                // SAFETY: row `i < mr` of `c` is writable over its first `nr`
                // columns; the mask keeps every other lane untouched.
                unsafe { _mm256_maskstore_pd(c.add(i * c_rs + 4 * w), masks[w], row[w]) };
            }
        }
    }
}

// ===========================================================================
// Dispatchers
// ===========================================================================

primitive! {
    /// `Σ a[i]·b[i]` over `min(a.len, b.len)` (reduction class).
    pub fn dot<FMA>(a: &[f64], b: &[f64]) -> f64 {
        fold_lanes([a, b], |s, [a, b]| madd::<FMA>(a, b, s))
    }
}

primitive! {
    /// `Σ a[i]·b[i]·c[i]` — the 3-factor product-chain sum (fig 8a).
    pub fn dot3_sum<FMA>(a: &[f64], b: &[f64], c: &[f64]) -> f64 {
        fold_lanes([a, b, c], |s, [a, b, c]| madd::<FMA>(a * b, c, s))
    }
}

primitive! {
    /// `Σ a[i]·b[i]·c[i]·d[i]` — the 4-factor product-chain sum.
    pub fn dot4_sum<FMA>(a: &[f64], b: &[f64], c: &[f64], d: &[f64]) -> f64 {
        fold_lanes([a, b, c, d], |s, [a, b, c, d]| madd::<FMA>(a * b * c, d, s))
    }
}

primitive! {
    /// `Σ a[i]` (reduction class).
    pub fn sum<FMA>(a: &[f64]) -> f64 {
        fold_lanes([a], |s, [a]| s + a)
    }
}

primitive! {
    /// `Σ a[i]²` (reduction class).
    pub fn sum_sq<FMA>(a: &[f64]) -> f64 {
        fold_lanes([a], |s, [a]| madd::<FMA>(a, a, s))
    }
}

/// Most terms one [`dot_sums`] call folds.
pub const MAX_DOT_SUMS: usize = 4;

/// One term of [`dot_sums`]: `Σ a[i]·b[i]`.
pub type DotTerm<'a> = (&'a [f64], &'a [f64]);

primitive! {
    /// `out[j] = dot(&a_j[..n], &b_j[..n])` for up to [`MAX_DOT_SUMS`] terms,
    /// in one loop that loads every term's 4-lane chunk in the same
    /// iteration, so terms over shared inputs stream them once. Each term
    /// keeps the four lanes, zero-padded tail and lane sum of `fold_lanes`:
    /// `out[j]` is *bitwise* what [`dot`] returns on the same backend.
    pub fn dot_sums<FMA>(n: usize, terms: &[DotTerm<'_>], out: &mut [f64]) {
        assert!(terms.len() <= MAX_DOT_SUMS && out.len() == terms.len(), "dot_sums: term count");
        match terms.len() {
            0 => {}
            1 => out.copy_from_slice(&fold_terms::<FMA, 1>(n, terms)),
            2 => out.copy_from_slice(&fold_terms::<FMA, 2>(n, terms)),
            3 => out.copy_from_slice(&fold_terms::<FMA, 3>(n, terms)),
            _ => out.copy_from_slice(&fold_terms::<FMA, 4>(n, terms)),
        }
    }
}

/// The body of [`dot_sums`] for `R` terms: [`fold_lanes`] with one set of
/// four lanes per term. Every chunk slice is cut to the chunk count, so the
/// loop indexes them without bounds checks and LLVM keeps each term's lanes
/// in one `ymm`.
#[inline(always)]
fn fold_terms<const FMA: bool, const R: usize>(n: usize, terms: &[DotTerm<'_>]) -> [f64; R] {
    let (m, terms) =
        (n / 4, std::array::from_fn::<_, R, _>(|j| (&terms[j].0[..n], &terms[j].1[..n])));
    let chunks = terms.map(|(a, b)| (&a.as_chunks::<4>().0[..m], &b.as_chunks::<4>().0[..m]));
    let mut acc = [[0.0f64; 4]; R];
    for i in 0..m {
        for (acc, (a, b)) in acc.iter_mut().zip(&chunks) {
            for (l, s) in acc.iter_mut().enumerate() {
                *s = madd::<FMA>(a[i][l], b[i][l], *s);
            }
        }
    }
    if !n.is_multiple_of(4) {
        // As in `fold_lanes`: a hidden first index keeps the tail's lanes
        // alike.
        let k = std::hint::black_box(n - n % 4);
        for (acc, (a, b)) in acc.iter_mut().zip(terms) {
            for (l, s) in acc.iter_mut().enumerate() {
                let at = |x: &[f64]| x.get(k + l).copied().unwrap_or(0.0);
                *s = madd::<FMA>(at(a), at(b), *s);
            }
        }
    }
    acc.map(|l| (l[0] + l[1]) + (l[2] + l[3]))
}

primitive! {
    /// `c[i] += alpha·a[i]` over `min(a.len, c.len)` (reduction class: `c`
    /// accumulates).
    pub fn axpy<FMA>(a: &[f64], alpha: f64, c: &mut [f64]) {
        for (c, &a) in c.iter_mut().zip(a) {
            *c = madd::<FMA>(a, alpha, *c);
        }
    }
}

primitive! {
    /// `out[i] = dot(&a[i·a_rs..][..len], &b[i·b_rs..][..len])` for
    /// `i < out.len()` (a stride of 0 repeats one row): a tile's short dots in
    /// one call, each bitwise [`dot`] on the same backend.
    pub fn dot_rows<FMA>(a: &[f64], a_rs: usize, b: &[f64], b_rs: usize, len: usize, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            let (x, y) = (&a[i * a_rs..][..len], &b[i * b_rs..][..len]);
            *o = fold_lanes([x, y], |s, [a, b]| madd::<FMA>(a, b, s));
        }
    }
}

/// Four [`dot`]s of length-`k` pairs in one chunk loop: each pair keeps its
/// own four lanes, its own zero-padded tail chunk and its own
/// `(l0 + l1) + (l2 + l3)` — the operations of [`fold_lanes`], so each result
/// is bitwise one `dot` — while the four multiply-add chains run side by side
/// instead of one after another.
#[inline(always)]
fn dot_lanes_x4<const FMA: bool>(k: usize, pairs: [(&[f64], &[f64]); 4]) -> [f64; 4] {
    let m = k / 4;
    let chunks =
        pairs.map(|(a, b)| (&a[..k].as_chunks::<4>().0[..m], &b[..k].as_chunks::<4>().0[..m]));
    let mut acc = [[0.0f64; 4]; 4];
    for i in 0..m {
        for (acc, (a, b)) in acc.iter_mut().zip(&chunks) {
            for (l, s) in acc.iter_mut().enumerate() {
                *s = madd::<FMA>(a[i][l], b[i][l], *s);
            }
        }
    }
    if !k.is_multiple_of(4) {
        // Hidden from the optimizer as in `fold_lanes`.
        let t = std::hint::black_box(k - k % 4);
        for (acc, (a, b)) in acc.iter_mut().zip(pairs) {
            for (l, s) in acc.iter_mut().enumerate() {
                let at = |x: &[f64]| if t + l < k { x[t + l] } else { 0.0 };
                *s = madd::<FMA>(at(a), at(b), *s);
            }
        }
    }
    acc.map(|l| (l[0] + l[1]) + (l[2] + l[3]))
}

/// Row `i` of the row-major `x` with rows `k` apart.
#[inline(always)]
fn row_of(x: &[f64], i: usize, k: usize) -> &[f64] {
    &x[i * k..][..k]
}

/// `out[t] = dot(A(ia(t)), B(ib(t)))` over rows `k` apart, four dots per
/// loop ([`dot_lanes_x4`]): within a run of equal `ia(t)` a group shares its
/// `A` row (each step loads five chunks, not eight), and a run's last one to
/// three positions wait for the next runs' to fill a group; the last one to
/// three of all run one [`fold_lanes`] each.
#[inline(always)]
fn dots_by_four<const FMA: bool>(
    (a, ia): (&[f64], impl Fn(usize) -> usize),
    (b, ib): (&[f64], impl Fn(usize) -> usize),
    k: usize,
    out: &mut [f64],
) {
    let n = out.len();
    let (mut wait, mut waiting) = ([0usize; 4], 0);
    let mut t = 0;
    while t < n {
        let x = row_of(a, ia(t), k);
        let end = t + (t..n).take_while(|&p| ia(p) == ia(t)).count();
        while end - t >= 4 {
            let pairs = std::array::from_fn(|d| (x, row_of(b, ib(t + d), k)));
            out[t..t + 4].copy_from_slice(&dot_lanes_x4::<FMA>(k, pairs));
            t += 4;
        }
        for p in t..end {
            wait[waiting] = p;
            waiting += 1;
            if waiting == 4 {
                let pairs = wait.map(|p| (row_of(a, ia(p), k), row_of(b, ib(p), k)));
                for (&p, d) in wait.iter().zip(dot_lanes_x4::<FMA>(k, pairs)) {
                    out[p] = d;
                }
                waiting = 0;
            }
        }
        t = end;
    }
    for &p in &wait[..waiting] {
        let (x, y) = (row_of(a, ia(p), k), row_of(b, ib(p), k));
        out[p] = fold_lanes([x, y], |s, [a, b]| madd::<FMA>(a, b, s));
    }
}

primitive! {
    /// `out[t] = dot(a, B(ix[t]))`, `B(j)` row `j` of the row-major `b`
    /// (rows `a.len()` apart): one row against scattered rows, four dots per
    /// loop, each bitwise [`dot`] on the same backend.
    pub fn dot_rows_at<FMA>(a: &[f64], b: &[f64], ix: &[usize], out: &mut [f64]) {
        let n = ix.len().min(out.len());
        dots_by_four::<FMA>((a, |_| 0), (b, |t| ix[t]), a.len(), &mut out[..n]);
    }
}

primitive! {
    /// `out[t] = dot(A(ia[t]), B(ib[t]))`, `A(j)` / `B(j)` row `j` of the
    /// row-major `a` / `b` (rows `k` apart): a tile whose positions lie in
    /// different rows of both, four dots per loop (sharing the `A` row
    /// within a run of equal `ia`), each bitwise [`dot`] on the same backend.
    pub fn dot_pairs<FMA>(a: &[f64], ia: &[usize], b: &[f64], ib: &[usize], k: usize, out: &mut [f64]) {
        let n = ia.len().min(ib.len()).min(out.len());
        dots_by_four::<FMA>((a, |t| ia[t]), (b, |t| ib[t]), k, &mut out[..n]);
    }
}

primitive! {
    /// `out[i] = sum(&a[i·rs..][..len])`, or [`sum_sq`] of it with `squares`,
    /// for `i < out.len()`: each bitwise the single-row kernel on the same
    /// backend.
    pub fn sum_rows<FMA>(a: &[f64], rs: usize, len: usize, squares: bool, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            let x = &a[i * rs..][..len];
            *o = if squares {
                fold_lanes([x], |s, [a]| madd::<FMA>(a, a, s))
            } else {
                fold_lanes([x], |s, [a]| s + a)
            };
        }
    }
}

/// `dst += w[t]·B(r_t)` for `t` ascending where `w[t] != 0`, `B(j)` row `j`
/// of the row-major `b` (rows `k = dst.len()` apart), `r_t = ix[t]` or `t`.
#[inline(always)]
fn axpy_gather_body<const FMA: bool>(
    w: &[f64],
    b: &[f64],
    row: impl Fn(usize) -> usize,
    dst: &mut [f64],
) {
    let k = dst.len();
    for (t, &wt) in w.iter().enumerate() {
        if wt != 0.0 {
            for (c, &x) in dst.iter_mut().zip(&b[row(t) * k..][..k]) {
                *c = madd::<FMA>(x, wt, *c);
            }
        }
    }
}

/// `A(r_t) += w[t]·x` for `t` ascending where `w[t] != 0`, `A(j)` row `j` of
/// the row-major `acc` (rows `k = x.len()` apart), `r_t = ix[t]` or `t`.
#[inline(always)]
fn axpy_scatter_body<const FMA: bool>(
    w: &[f64],
    x: &[f64],
    row: impl Fn(usize) -> usize,
    acc: &mut [f64],
) {
    let k = x.len();
    for (t, &wt) in w.iter().enumerate() {
        if wt != 0.0 {
            for (c, &x) in acc[row(t) * k..][..k].iter_mut().zip(x) {
                *c = madd::<FMA>(x, wt, *c);
            }
        }
    }
}

primitive! {
    /// `dst += w[t]·B(r_t)` over `t` ascending, skipping `w[t] == 0`: `B(j)`
    /// is row `j` of the row-major `b` (rows `dst.len()` apart), `r_t` is
    /// `ix[t]` (`ix` at least as long as `w`), or `t` without `ix`
    /// (reduction class: bitwise the chain of [`axpy`] calls it replaces).
    pub fn axpy_gather<FMA>(w: &[f64], b: &[f64], ix: Option<&[usize]>, dst: &mut [f64]) {
        match ix {
            Some(ix) => axpy_gather_body::<FMA>(w, b, |t| ix[t], dst),
            None => axpy_gather_body::<FMA>(w, b, |t| t, dst),
        }
    }
}

primitive! {
    /// `A(r_t) += w[t]·x` over `t` ascending, skipping `w[t] == 0`: `A(j)`
    /// is row `j` of the row-major `acc` (rows `x.len()` apart), `r_t` is
    /// `ix[t]` (`ix` at least as long as `w`), or `t` without `ix`
    /// (reduction class: bitwise the chain of [`axpy`] calls it replaces).
    pub fn axpy_scatter<FMA>(w: &[f64], x: &[f64], ix: Option<&[usize]>, acc: &mut [f64]) {
        match ix {
            Some(ix) => axpy_scatter_body::<FMA>(w, x, |t| ix[t], acc),
            None => axpy_scatter_body::<FMA>(w, x, |t| t, acc),
        }
    }
}

primitive! {
    /// `dst[i] = a[i]·b[i]` over `dst.len()` (map class: bitwise identical on
    /// every backend). `a` and `b` must be at least as long as `dst`.
    pub fn mul2_into<FMA>(dst: &mut [f64], a: &[f64], b: &[f64]) {
        let n = dst.len();
        for ((d, &a), &b) in dst.iter_mut().zip(&a[..n]).zip(&b[..n]) {
            *d = a * b;
        }
    }
}

primitive! {
    /// `dst[i] = a[i]·b[i]·c[i]` over `dst.len()` (map class).
    pub fn mul3_into<FMA>(dst: &mut [f64], a: &[f64], b: &[f64], c: &[f64]) {
        let n = dst.len();
        for (((d, &a), &b), &c) in dst.iter_mut().zip(&a[..n]).zip(&b[..n]).zip(&c[..n]) {
            *d = a * b * c;
        }
    }
}

/// Sparse gather over a CSR band: `dst[k] = src[idx[k]]` for
/// `min(dst.len, idx.len)` elements (map class). A plain indexed loop: in
/// one binary it measured 3–7 % faster than `vgatherqpd` on the CSR tiles it
/// serves (BENCH_NOTES.md).
#[inline]
pub fn gather_into(dst: &mut [f64], src: &[f64], idx: &[usize]) {
    for (d, &i) in dst.iter_mut().zip(idx) {
        *d = src[i];
    }
}

// ===========================================================================
// Register-blocked matrix kernel
// ===========================================================================

/// Rows of `C` one micro-kernel call keeps in registers.
const MR: usize = 4;
/// Columns of `C` one micro-kernel call keeps in registers (two 256-bit
/// vectors per row), and the width of a packed `B` panel.
const NR: usize = 8;
/// Rows of `A` swept against one `B` panel before moving to the next panel,
/// so a panel is reused from L1 across `MC / MR` tiles.
const MC: usize = 32;

/// The left operand of [`gemm`]: element `(i, p)` is `data[i·rs + p·cs]`, so
/// a row-major block (`cs == 1`) and the transpose of one (`rs == 1`) run
/// the same code.
#[derive(Clone, Copy, Debug)]
pub struct Lhs<'a> {
    pub data: &'a [f64],
    pub rs: usize,
    pub cs: usize,
}

/// The right operand of [`gemm`].
#[derive(Clone, Copy, Debug)]
pub enum Rhs<'a> {
    /// Zero-padded column panels written by [`pack_panels`] (or element by
    /// element through [`packed_index`]).
    Packed(&'a [f64]),
    /// Row-major rows `rs` apart: element `(p, j)` is `data[p·rs + j]`.
    Rows { data: &'a [f64], rs: usize },
}

/// Length of the packed form of a `kc×n` right operand.
#[inline]
pub fn packed_len(kc: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * kc
}

/// Where element `(p, j)` of a `kc`-row right operand lives in its packed
/// form: panels of `NR` consecutive columns, each `kc` rows of `NR` values.
#[inline]
pub fn packed_index(kc: usize, p: usize, j: usize) -> usize {
    (j / NR) * kc * NR + p * NR + j % NR
}

/// Packs the row-major `kc×n` matrix `b` (rows `rs` apart) into `dst`, which
/// must arrive zeroed with [`packed_len`]`(kc, n)` elements: the last
/// panel's missing columns stay `0.0`, so kernels read every panel row at
/// full width.
pub fn pack_panels(b: &[f64], rs: usize, (kc, n): (usize, usize), dst: &mut [f64]) {
    assert_eq!(dst.len(), packed_len(kc, n), "packed buffer length");
    for (jp, panel) in dst.chunks_exact_mut((kc * NR).max(1)).enumerate() {
        let (j0, nr) = (jp * NR, NR.min(n - jp * NR));
        for (p, row) in panel.chunks_exact_mut(NR).enumerate() {
            row[..nr].copy_from_slice(&b[p * rs + j0..p * rs + j0 + nr]);
        }
    }
}

/// `C (+)= A·B` over the row-major `m×n` block `c` (rows `c_rs` apart), the
/// inner dimension `kc` ascending for every output element: with
/// `accumulate` the sums continue from the values already in `c`, without it
/// they start from `0.0` and overwrite. Each `MR×NR` tile of `c` is held in
/// registers across the whole inner loop (reduction class: one FMA per
/// element per `p` on AVX2, multiply then add in the scalar twin — the same
/// results, bitwise, as `axpy(B(p,·), A(i,p), C(i,·))` for ascending `p` on
/// the respective backend).
pub fn gemm(
    c: &mut [f64],
    c_rs: usize,
    (m, n, kc): (usize, usize, usize),
    a: Lhs<'_>,
    b: Rhs<'_>,
    accumulate: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(c_rs >= n && c.len() >= (m - 1) * c_rs + n, "gemm: C out of bounds");
    // `b_ps` steps from one NR-column panel to the next, `b_rs` from one
    // inner index to the next.
    let (b_data, b_ps, b_rs, b_full) = match b {
        Rhs::Packed(d) => {
            assert!(d.len() >= packed_len(kc, n), "gemm: packed B out of bounds");
            (d, kc * NR, NR, true)
        }
        Rhs::Rows { data, rs } => {
            assert!(kc == 0 || data.len() >= (kc - 1) * rs + n, "gemm: B out of bounds");
            (data, NR, rs, false)
        }
    };
    assert!(kc == 0 || a.data.len() > (m - 1) * a.rs + (kc - 1) * a.cs, "gemm: A out of bounds");
    #[cfg(target_arch = "x86_64")]
    let avx2 = level() == SimdLevel::Avx2;
    for ic in (0..m).step_by(MC) {
        for jp in 0..n.div_ceil(NR) {
            let nr = NR.min(n - jp * NR);
            #[cfg(target_arch = "x86_64")]
            let tile: avx2::GemmTile = match (nr > 4, b_full) {
                (true, true) => avx2::gemm_tile::<2, true>,
                (true, false) => avx2::gemm_tile::<2, false>,
                (false, true) => avx2::gemm_tile::<1, true>,
                (false, false) => avx2::gemm_tile::<1, false>,
            };
            for i0 in (ic..m.min(ic + MC)).step_by(MR) {
                let dims = (MR.min(m - i0), nr, kc);
                let (c_off, a_off, b_off) = (i0 * c_rs + jp * NR, i0 * a.rs, jp * b_ps);
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    // The asserts above bound every element the tile
                    // addresses: rows `i0..i0+mr` × columns `jp·NR..+nr` of
                    // `c`, rows `i0..i0+mr` × inner `0..kc` of `a`, and inner
                    // `0..kc` × the same columns of `b` — all NR of them in a
                    // packed panel, which is what `B_FULL` reads.
                    //
                    // SAFETY: level() == Avx2 implies runtime AVX2+FMA
                    // support; `tile` was instantiated for this `nr` (`W = 2`
                    // iff `nr > 4`); every address is in bounds per the
                    // asserts (see above); `c` is a `&mut`, so it overlaps
                    // neither input.
                    unsafe {
                        let cp = c.as_mut_ptr().add(c_off);
                        let ap = a.data.as_ptr().wrapping_add(a_off);
                        let bp = b_data.as_ptr().wrapping_add(b_off);
                        tile(cp, c_rs, dims, ap, (a.rs, a.cs), bp, b_rs, accumulate);
                    }
                    continue;
                }
                let a_tile = Lhs { data: a.data.get(a_off..).unwrap_or(&[]), ..a };
                let b_tile = (b_data.get(b_off..).unwrap_or(&[]), b_rs);
                gemm_tile_scalar(&mut c[c_off..], c_rs, dims, a_tile, b_tile, accumulate);
            }
        }
    }
}

/// Consecutive rows of a CSR matrix, as the sparse kernels take them: row
/// `i` holds the non-zeros `ptr[i]..ptr[i + 1]` of `cols` / `vals`.
#[derive(Clone, Copy, Debug)]
pub struct CsrRows<'a> {
    pub ptr: &'a [usize],
    pub cols: &'a [usize],
    pub vals: &'a [f64],
}

impl<'a> CsrRows<'a> {
    /// How many rows.
    #[inline]
    pub fn len(self) -> usize {
        self.ptr.len().saturating_sub(1)
    }

    /// Whether there are no rows.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The column indices and values of row `i`.
    #[inline]
    pub fn row(self, i: usize) -> (&'a [usize], &'a [f64]) {
        let (lo, hi) = (self.ptr[i], self.ptr[i + 1]);
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }
}

/// `dst[j] = Σ_z vals[z]·B(cols[z], j)` for one sparse row (see
/// [`sparse_row_gemm`]).
#[inline(always)]
fn sparse_row_gemm_one<const FMA: bool>(
    (cols, vals): (&[usize], &[f64]),
    bp: &[f64],
    kc: usize,
    dst: &mut [f64],
) {
    /// The first `W` columns of one panel (`rows`: its `kc` rows).
    #[inline(always)]
    fn panel<const FMA: bool, const W: usize>(
        vals: &[f64],
        cols: &[usize],
        rows: &[[f64; NR]],
    ) -> [f64; W] {
        let mut acc = [0.0f64; W];
        for (&v, &c) in vals.iter().zip(cols) {
            for (x, &b) in acc.iter_mut().zip(&rows[c][..W]) {
                *x = madd::<FMA>(v, b, *x);
            }
        }
        acc
    }
    let rows = |jp: usize| bp[jp * kc * NR..(jp + 1) * kc * NR].as_chunks::<NR>().0;
    if (1..=4).contains(&dst.len()) {
        for (o, x) in dst.iter_mut().zip(panel::<FMA, 4>(vals, cols, rows(0))) {
            *o = x;
        }
        return;
    }
    let (full, tail) = dst.as_chunks_mut::<NR>();
    let jt = full.len();
    for (jp, out) in full.iter_mut().enumerate() {
        *out = panel::<FMA, NR>(vals, cols, rows(jp));
    }
    if !tail.is_empty() {
        for (o, x) in tail.iter_mut().zip(panel::<FMA, NR>(vals, cols, rows(jt))) {
            *o = x;
        }
    }
}

primitive! {
    /// Sparse rows against a packed right operand: row `i` of the row-major
    /// `dst` (rows `k = dst.len() / a.len()` apart) is
    /// `dst[i, j] = Σ_z vals[z]·B(cols[z], j)` over row `i`'s non-zeros in
    /// storage order, `bp` the [`pack_panels`] form of a `kc`-row matrix with
    /// at least `k` columns (reduction class, like [`gemm`]). The `NR`
    /// columns of one panel accumulate in registers across the non-zeros.
    ///
    /// A row of at most 4 columns accumulates only the first 4 lanes of its
    /// one panel (MLogreg's 3-class rows): each column's sum is the same.
    pub fn sparse_row_gemm<FMA>(a: CsrRows<'_>, bp: &[f64], kc: usize, dst: &mut [f64]) {
        let k = if a.is_empty() { 0 } else { dst.len() / a.len() };
        if k == 0 {
            return;
        }
        for (i, d) in dst.chunks_exact_mut(k).enumerate().take(a.len()) {
            sparse_row_gemm_one::<FMA>(a.row(i), bp, kc, d);
        }
    }
}

primitive! {
    /// The rank-1 updates of sparse rows: for each row `i` of `a`,
    /// `acc[cols[z]·k + j] += vals[z]·t_i[j]` over its non-zeros, `t_i` the
    /// row `t[i·t_rs..][..k]` and `acc` row-major with rows `k` apart
    /// (reduction class).
    ///
    /// Rows of 1 to 8 columns run a body of that fixed width, whose inner
    /// loop unrolls (MLogreg's 3-class Hessian-vector product); wider rows
    /// loop over `k`. The sums are the same either way.
    pub fn scatter_axpy<FMA>(a: CsrRows<'_>, t: &[f64], t_rs: usize, k: usize, acc: &mut [f64]) {
        /// `scatter_axpy` at the fixed width `K = k`.
        #[inline(always)]
        fn fixed<const FMA: bool, const K: usize>(
            a: CsrRows<'_>,
            t: &[f64],
            t_rs: usize,
            acc: &mut [f64],
        ) {
            let rows = acc.as_chunks_mut::<K>().0;
            for i in 0..a.len() {
                let t: [f64; K] = std::array::from_fn(|j| t[i * t_rs + j]);
                let (cols, vals) = a.row(i);
                for (&v, &c) in vals.iter().zip(cols) {
                    for (x, &t) in rows[c].iter_mut().zip(&t) {
                        *x = madd::<FMA>(v, t, *x);
                    }
                }
            }
        }
        match k {
            1 => fixed::<FMA, 1>(a, t, t_rs, acc),
            2 => fixed::<FMA, 2>(a, t, t_rs, acc),
            3 => fixed::<FMA, 3>(a, t, t_rs, acc),
            4 => fixed::<FMA, 4>(a, t, t_rs, acc),
            5 => fixed::<FMA, 5>(a, t, t_rs, acc),
            6 => fixed::<FMA, 6>(a, t, t_rs, acc),
            7 => fixed::<FMA, 7>(a, t, t_rs, acc),
            8 => fixed::<FMA, 8>(a, t, t_rs, acc),
            _ => {
                for i in 0..a.len() {
                    let (t, (cols, vals)) = (&t[i * t_rs..][..k], a.row(i));
                    for (&v, &c) in vals.iter().zip(cols) {
                        for (x, &t) in acc[c * k..(c + 1) * k].iter_mut().zip(t) {
                            *x = madd::<FMA>(v, t, *x);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// `force_scalar` is process-wide and the harness runs tests on parallel
    /// threads: every test that flips it holds this lock, so a bitwise
    /// comparison never straddles another test's flip.
    pub(crate) fn path_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
    }

    fn data(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-random values in [-1, 1].
        (0..n)
            .map(|i| {
                let x =
                    (seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64 * 2654435761))
                        >> 11;
                (x % 20001) as f64 / 10000.0 - 1.0
            })
            .collect()
    }

    /// Every ragged length 0..40 (covers n % 4 ∈ {0..3} many times over)
    /// through both dispatch paths.
    #[test]
    fn reductions_match_naive_across_ragged_lengths() {
        let _paths = path_lock();
        for force in [false, true] {
            force_scalar(force);
            for n in 0..40usize {
                let a = data(n, 1);
                let b = data(n, 2);
                let c = data(n, 3);
                let d = data(n, 4);
                assert!(close(dot(&a, &b), naive_dot(&a, &b)), "dot n={n} force={force}");
                let e3: f64 = (0..n).map(|i| a[i] * b[i] * c[i]).sum();
                assert!(close(dot3_sum(&a, &b, &c), e3), "dot3 n={n} force={force}");
                let e4: f64 = (0..n).map(|i| a[i] * b[i] * c[i] * d[i]).sum();
                assert!(close(dot4_sum(&a, &b, &c, &d), e4), "dot4 n={n} force={force}");
                assert!(close(sum(&a), a.iter().sum()), "sum n={n} force={force}");
                let esq: f64 = a.iter().map(|v| v * v).sum();
                assert!(close(sum_sq(&a), esq), "sum_sq n={n} force={force}");
            }
        }
        force_scalar(false);
    }

    /// One to four terms over a shared input and over distinct ones, at every
    /// tail length and across tile-sized and larger lengths: each result is
    /// bitwise the single-term kernel on the same path.
    #[test]
    fn dot_sums_are_bitwise_the_single_term_kernels() {
        let _paths = path_lock();
        for force in [false, true] {
            force_scalar(force);
            for n in (0..10).chain([255, 256, 257, 1000]) {
                let x = data(n, 51);
                let ys: Vec<Vec<f64>> = (0..4).map(|s| data(n, 52 + s)).collect();
                for k in 1..=MAX_DOT_SUMS {
                    for shared in [true, false] {
                        let terms: Vec<DotTerm<'_>> = (0..k)
                            .map(|j| match j {
                                1 if !shared => (&ys[1][..], &ys[0][..]),
                                _ => (&x[..], &ys[j][..]),
                            })
                            .collect();
                        let mut out = vec![f64::NAN; k];
                        dot_sums(n, &terms, &mut out);
                        for (j, (&(a, b), got)) in terms.iter().zip(&out).enumerate() {
                            assert_eq!(
                                got.to_bits(),
                                dot(a, b).to_bits(),
                                "n={n} k={k} j={j} force={force}"
                            );
                        }
                    }
                }
            }
        }
        force_scalar(false);
    }

    #[test]
    fn axpy_matches_scalar_within_rounding() {
        let _paths = path_lock();
        for force in [false, true] {
            force_scalar(force);
            for n in [0usize, 1, 3, 4, 7, 33] {
                let a = data(n, 5);
                let mut c = data(n, 6);
                let mut expect = c.clone();
                for i in 0..n {
                    expect[i] = a[i].mul_add(0.75, expect[i]);
                }
                axpy(&a, 0.75, &mut c);
                for i in 0..n {
                    assert!(close(c[i], expect[i]), "axpy n={n} i={i} force={force}");
                }
            }
        }
        force_scalar(false);
    }

    /// Map-class kernels are pinned *bitwise* across both dispatch paths.
    #[test]
    fn map_kernels_bitwise_identical_across_paths() {
        let _paths = path_lock();
        for n in [0usize, 1, 5, 8, 13, 31] {
            let a = data(n, 7);
            let b = data(n, 8);
            let c = data(n, 9);
            let mut d1 = vec![0.0; n];
            let mut d2 = vec![0.0; n];
            force_scalar(false);
            mul2_into(&mut d1, &a, &b);
            force_scalar(true);
            mul2_into(&mut d2, &a, &b);
            assert_eq!(d1, d2, "mul2 n={n}");
            force_scalar(false);
            mul3_into(&mut d1, &a, &b, &c);
            force_scalar(true);
            mul3_into(&mut d2, &a, &b, &c);
            assert_eq!(d1, d2, "mul3 n={n}");
        }
        force_scalar(false);
    }

    #[test]
    fn gather_matches_indexing() {
        let _paths = path_lock();
        let src = data(50, 10);
        let idx: Vec<usize> = vec![0, 7, 49, 3, 3, 21, 48, 9, 11];
        for force in [false, true] {
            force_scalar(force);
            let mut dst = vec![0.0; idx.len()];
            gather_into(&mut dst, &src, &idx);
            for (k, &i) in idx.iter().enumerate() {
                assert_eq!(dst[k], src[i], "force={force}");
            }
        }
        force_scalar(false);
    }

    /// `C (+)= A·B` by the textbook triple loop; `a_t` stores `A` transposed
    /// (`kc×m` row-major), which [`gemm`] addresses with swapped strides.
    fn naive_gemm(
        c0: &[f64],
        (m, n, kc): (usize, usize, usize),
        a: &[f64],
        a_t: bool,
        b: &[f64],
        accumulate: bool,
    ) -> Vec<f64> {
        let mut c = if accumulate { c0.to_vec() } else { vec![0.0; m * n] };
        for i in 0..m {
            for j in 0..n {
                for p in 0..kc {
                    let av = if a_t { a[p * m + i] } else { a[i * kc + p] };
                    c[i * n + j] += av * b[p * n + j];
                }
            }
        }
        c
    }

    fn lhs(a: &[f64], (m, kc): (usize, usize), a_t: bool) -> Lhs<'_> {
        if a_t {
            Lhs { data: a, rs: 1, cs: m }
        } else {
            Lhs { data: a, rs: kc, cs: 1 }
        }
    }

    /// Every edge tile (`mr ≤ MR`, `nr ≤ NR`), inner lengths 0/1/7/100, both
    /// `A` orientations, assign and accumulate, packed and row-addressed
    /// `B`, on both dispatch paths — against the triple loop, and AVX2
    /// against its scalar twin within the module's pinned bound.
    #[test]
    fn gemm_edge_tiles_match_naive_on_both_paths() {
        let _paths = path_lock();
        for mr in 1..=MR {
            for nr in 1..=NR {
                for kc in [0usize, 1, 7, 100] {
                    for a_t in [false, true] {
                        for accumulate in [false, true] {
                            let a = data(mr * kc, 11);
                            let b = data(kc * nr, 12);
                            let c0 = data(mr * nr, 13);
                            let dims = (mr, nr, kc);
                            let expect = naive_gemm(&c0, dims, &a, a_t, &b, accumulate);
                            let mut bp = vec![0.0; packed_len(kc, nr)];
                            pack_panels(&b, nr, (kc, nr), &mut bp);
                            let mut per_path = Vec::new();
                            for force in [false, true] {
                                force_scalar(force);
                                for rhs in [Rhs::Packed(&bp), Rhs::Rows { data: &b, rs: nr }] {
                                    let mut c = c0.clone();
                                    gemm(&mut c, nr, dims, lhs(&a, (mr, kc), a_t), rhs, accumulate);
                                    for (g, e) in c.iter().zip(&expect) {
                                        assert!(
                                            close(*g, *e),
                                            "{dims:?} a_t={a_t} acc={accumulate} force={force}"
                                        );
                                    }
                                    per_path.push(c);
                                }
                            }
                            // Packed and row-addressed B agree bitwise per
                            // path; the two paths agree within the bound.
                            assert!(per_path[0] == per_path[1] && per_path[2] == per_path[3]);
                            for (v, s) in per_path[0].iter().zip(&per_path[2]) {
                                assert!(close(*v, *s), "avx2 vs scalar twin {dims:?}");
                            }
                        }
                    }
                }
            }
        }
        force_scalar(false);
    }

    /// Blocks spanning many tiles, with row strides wider than the block
    /// (the register-file and output-band layouts): untouched columns of `c`
    /// stay untouched.
    #[test]
    fn gemm_multi_tile_blocks_with_wide_strides() {
        let _paths = path_lock();
        for force in [false, true] {
            force_scalar(force);
            for (m, n, kc) in [(9, 5, 100), (MC + 3, 2 * NR + 1, 13), (2, 100, 64), (11, 64, 3)] {
                let a = data(m * kc, 21);
                let b = data(kc * n, 22);
                let expect = naive_gemm(&[], (m, n, kc), &a, false, &b, false);
                let c_rs = n + 3;
                let mut c = vec![7.0; m * c_rs];
                let mut bp = vec![0.0; packed_len(kc, n)];
                pack_panels(&b, n, (kc, n), &mut bp);
                gemm(&mut c, c_rs, (m, n, kc), lhs(&a, (m, kc), false), Rhs::Packed(&bp), false);
                for i in 0..m {
                    for j in 0..n {
                        assert!(
                            close(c[i * c_rs + j], expect[i * n + j]),
                            "({m},{n},{kc}) [{i},{j}]"
                        );
                    }
                    assert!(i == m - 1 || c[i * c_rs + n..(i + 1) * c_rs] == [7.0; 3]);
                }
            }
        }
        force_scalar(false);
    }

    /// The summation-order guarantee: each output element is the chain
    /// `axpy(B(p,·), A(i,p), C(i,·))` for ascending `p` builds on the same
    /// backend — bitwise, which is what lets the tile backend replace that
    /// idiom without moving a result.
    #[test]
    fn gemm_is_bitwise_the_axpy_per_element_order() {
        let _paths = path_lock();
        for force in [false, true] {
            force_scalar(force);
            for (m, n, kc) in [(1, 5, 100), (6, 3, 40), (5, 9, 17), (7, 64, 100)] {
                let a = data(m * kc, 31);
                let b = data(kc * n, 32);
                let mut expect = vec![0.0; m * n];
                for i in 0..m {
                    for p in 0..kc {
                        axpy(
                            &b[p * n..(p + 1) * n],
                            a[i * kc + p],
                            &mut expect[i * n..(i + 1) * n],
                        );
                    }
                }
                let mut c = vec![0.0; m * n];
                let rhs = Rhs::Rows { data: &b, rs: n };
                gemm(&mut c, n, (m, n, kc), lhs(&a, (m, kc), false), rhs, false);
                assert!(c == expect, "({m},{n},{kc}) force={force}");
            }
        }
        force_scalar(false);
    }

    /// Three CSR rows (one of them empty) over `kc` columns.
    fn three_rows(kc: usize) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let cols: Vec<usize> = vec![0, 3, 4, 11, 20, kc - 1, 2, 5];
        let vals = data(cols.len(), 41);
        (vec![0, 6, 6, 8], cols, vals)
    }

    /// Each row of a batch is bitwise the per-non-zero `axpy` chain it
    /// replaces, at widths on both sides of the fixed-width bodies and of a
    /// panel, an empty row and a strided right operand included.
    #[test]
    fn sparse_row_gemm_and_scatter_axpy_match_dense_forms() {
        let _paths = path_lock();
        let kc = 37;
        let (ptr, cols, vals) = three_rows(kc);
        let a = CsrRows { ptr: &ptr, cols: &cols, vals: &vals };
        for force in [false, true] {
            force_scalar(force);
            for n in (1usize..=9).chain([16, 17]) {
                let b = data(kc * n, 42);
                let mut bp = vec![0.0; packed_len(kc, n)];
                pack_panels(&b, n, (kc, n), &mut bp);
                for (p, j) in [(0, 0), (kc - 1, n - 1), (5, n / 2)] {
                    assert_eq!(bp[packed_index(kc, p, j)], b[p * n + j]);
                }
                let mut dst = vec![9.0; a.len() * n];
                sparse_row_gemm(a, &bp, kc, &mut dst);
                let mut expect = vec![0.0; a.len() * n];
                for (i, e) in expect.chunks_exact_mut(n).enumerate() {
                    let (cols, vals) = a.row(i);
                    for (&v, &c) in vals.iter().zip(cols) {
                        axpy(&b[c * n..(c + 1) * n], v, e);
                    }
                }
                assert!(dst == expect, "sparse_row_gemm n={n} force={force}");

                let t_rs = n + 2;
                let t = data(a.len() * t_rs, 43);
                let mut acc = data(kc * n, 44);
                let mut expect = acc.clone();
                for i in 0..a.len() {
                    let (cols, vals) = a.row(i);
                    for (&v, &c) in vals.iter().zip(cols) {
                        axpy(&t[i * t_rs..][..n], v, &mut expect[c * n..(c + 1) * n]);
                    }
                }
                scatter_axpy(a, &t, t_rs, n, &mut acc);
                assert!(acc == expect, "scatter_axpy n={n} force={force}");
            }
        }
        force_scalar(false);
    }

    /// The row-batch kernels against the per-call ones they replace, on both
    /// legs: each `dot_rows` / `dot_rows_at` / `sum_rows` result is bitwise
    /// one `dot` / `sum` / `sum_sq`, and `axpy_gather` / `axpy_scatter` are
    /// bitwise the chain of `axpy` calls over the non-zero weights — at row
    /// lengths across the 4-lane chunk, strides of 0 and wider than a row,
    /// zero weights between stored ones, NaN / ±0 / ±inf values.
    #[test]
    fn row_batch_kernels_are_bitwise_the_per_call_ones() {
        let _paths = path_lock();
        let special = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
        for force in [false, true] {
            force_scalar(force);
            for len in [0usize, 1, 2, 3, 4, 5, 7, 10, 16, 17] {
                let h = 6;
                for (a_rs, b_rs) in [(len, len), (0, len + 3), (len + 2, 0)] {
                    let mut a = data(h * (len + 3) + 1, 61 + len as u64);
                    let b = data(h * (len + 3) + 1, 62);
                    a[len / 2] = special[len % special.len()];
                    let mut out = vec![f64::NAN; h];
                    dot_rows(&a, a_rs, &b, b_rs, len, &mut out);
                    for (i, got) in out.iter().enumerate() {
                        let want = dot(&a[i * a_rs..][..len], &b[i * b_rs..][..len]);
                        assert!(got.to_bits() == want.to_bits() || want.is_nan() && got.is_nan());
                    }
                    for squares in [false, true] {
                        sum_rows(&a, a_rs, len, squares, &mut out);
                        for (i, got) in out.iter().enumerate() {
                            let x = &a[i * a_rs..][..len];
                            let want = if squares { sum_sq(x) } else { sum(x) };
                            assert!(
                                got.to_bits() == want.to_bits() || want.is_nan() && got.is_nan()
                            );
                        }
                    }
                }
                let rows = 9;
                let v = data(rows * len, 63);
                let u = data(len, 64);
                let ix = [4usize, 0, 8, 8, 3];
                let mut out = vec![f64::NAN; ix.len()];
                dot_rows_at(&u, &v, &ix, &mut out);
                for (&j, got) in ix.iter().zip(&out) {
                    assert_eq!(got.to_bits(), dot(&u, &v[j * len..][..len]).to_bits());
                }
                let mut w = data(ix.len(), 65);
                w[1] = 0.0;
                w[3] = -0.0;
                let mut b = data(rows * len, 66);
                if len > 0 {
                    b[len] = f64::INFINITY; // row 1, read only through a zero weight
                }
                for at in [None, Some(&ix[..])] {
                    let row = |t: usize| at.map_or(t, |ix| ix[t]);
                    let mut dst = data(len, 67);
                    let mut want = dst.clone();
                    for (t, &wt) in w.iter().enumerate().filter(|(_, &wt)| wt != 0.0) {
                        axpy(&b[row(t) * len..][..len], wt, &mut want);
                    }
                    axpy_gather(&w, &b, at, &mut dst);
                    assert!(dst.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()));
                    let mut acc = data(rows * len, 68);
                    let mut want = acc.clone();
                    for (t, &wt) in w.iter().enumerate().filter(|(_, &wt)| wt != 0.0) {
                        axpy(&u, wt, &mut want[row(t) * len..][..len]);
                    }
                    axpy_scatter(&w, &u, at, &mut acc);
                    assert!(acc.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()));
                }
            }
        }
        force_scalar(false);
    }

    /// `dot_rows_at` and `dot_pairs` run their dots four to a loop: each
    /// result is bitwise one `dot` on both legs, at every remainder of a group
    /// of four (0–9 dots), at lengths across the 4-lane chunk and the
    /// rank-100 of fig8h, with NaN / ±0 / ±inf in the rows.
    #[test]
    fn four_way_dots_are_bitwise_dot() {
        let _paths = path_lock();
        let special = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
        let same =
            |got: f64, want: f64| got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan();
        for force in [false, true] {
            force_scalar(force);
            for k in (0..=10).chain([16, 17, 100]) {
                let rows = 7;
                let mut a = data(rows * k, 71 + k as u64);
                let b = data(rows * k, 72);
                if k > 2 {
                    a[k + 2] = special[k % special.len()];
                }
                for count in 0..=9usize {
                    let ia: Vec<usize> = (0..count).map(|t| (t * 5 + 1) % rows).collect();
                    let ib: Vec<usize> = (0..count).map(|t| (t * 3 + count) % rows).collect();
                    let mut out = vec![f64::NAN; count + 1];
                    dot_rows_at(&a[k..2 * k], &b, &ib, &mut out);
                    for (t, &j) in ib.iter().enumerate() {
                        let want = dot(&a[k..2 * k], &b[j * k..][..k]);
                        assert!(
                            same(out[t], want),
                            "dot_rows_at k={k} count={count} t={t} force={force}"
                        );
                    }
                    assert!(out[count].is_nan(), "dot_rows_at wrote past its indices");
                    dot_pairs(&a, &ia, &b, &ib, k, &mut out);
                    for (t, (&i, &j)) in ia.iter().zip(&ib).enumerate() {
                        let want = dot(&a[i * k..][..k], &b[j * k..][..k]);
                        assert!(
                            same(out[t], want),
                            "dot_pairs k={k} count={count} t={t} force={force}"
                        );
                    }
                    assert!(out[count].is_nan(), "dot_pairs wrote past its indices");
                }
            }
        }
        force_scalar(false);
    }

    /// The `i`-th draw of a 64-bit generator seeded with `seed`.
    fn draw(seed: u64, i: u64) -> u64 {
        (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    }

    fn signed(x: u64) -> f64 {
        if x & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Values with at most 26 significant bits over a spread of exponents,
    /// so every product with another such value or a power of two is exact
    /// while the sums still round.
    fn short_mantissas(n: usize, seed: u64) -> Vec<f64> {
        let v = |x: u64| signed(x) * (x >> 38) as f64 * 2f64.powi((x >> 8) as i32 % 21 - 10);
        (0..n as u64).map(|i| v(draw(seed, i))).collect()
    }

    /// Signed powers of two between 2⁻⁴ and 2⁴.
    fn powers_of_two(n: usize, seed: u64) -> Vec<f64> {
        let v = |x: u64| signed(x) * 2f64.powi((x >> 8) as i32 % 9 - 4);
        (0..n as u64).map(|i| v(draw(seed, i))).collect()
    }

    /// The two legs of every primitive with a multiply-add differ only by FMA
    /// contraction: on inputs whose products are exact (so a fused and an
    /// unfused multiply-add round alike) they return the same bits, ragged
    /// tails included.
    #[test]
    fn legs_differ_only_by_contraction() {
        let _paths = path_lock();
        let kc = 37;
        for n in (0..10).chain([255, 256, 257, 1000]) {
            let a = short_mantissas(n, 1);
            let [b, c, d] = [2, 3, 4].map(|s| powers_of_two(n, s));
            let cols: Vec<usize> = (0..kc).filter(|j| j % 3 != 1).collect();
            let vals = powers_of_two(cols.len(), 5);
            let panels = short_mantissas(packed_len(kc, n), 6);
            let legs = [false, true].map(|force| {
                force_scalar(force);
                let mut out = vec![dot(&a, &b), dot3_sum(&a, &b, &c), dot4_sum(&a, &b, &c, &d)];
                out.extend([sum(&a), sum_sq(&a)]);
                let terms: [DotTerm<'_>; 3] = [(&a, &b), (&c, &d), (&a, &d)];
                let mut sums = [0.0; 3];
                dot_sums(n, &terms, &mut sums);
                out.extend(sums);
                let mut y = short_mantissas(n, 7);
                axpy(&a, 0.25, &mut y);
                out.extend(y);
                let mut dst = vec![0.0; n];
                let one = CsrRows { ptr: &[0, cols.len()], cols: &cols, vals: &vals };
                sparse_row_gemm(one, &panels, kc, &mut dst);
                out.extend(dst);
                let mut acc = short_mantissas(kc * n, 8);
                scatter_axpy(one, &a, 0, n, &mut acc);
                out.extend(acc);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            force_scalar(false);
            assert!(legs[0] == legs[1], "n={n}");
        }
    }

    /// NaN and signed zeros flow through unchanged: map kernels propagate
    /// them bitwise; reductions poison the sum like the scalar twin.
    #[test]
    fn nan_and_signed_zero_semantics() {
        let _paths = path_lock();
        let a = [1.0, f64::NAN, -0.0, 0.0, 2.0];
        let b = [2.0, 1.0, 5.0, -3.0, 0.5];
        for force in [false, true] {
            force_scalar(force);
            let mut d = [0.0; 5];
            mul2_into(&mut d, &a, &b);
            assert!(d[1].is_nan());
            assert!(d[2] == 0.0 && d[2].is_sign_negative());
            assert!(dot(&a, &b).is_nan());
            assert!(sum(&a).is_nan());
        }
        force_scalar(false);
    }
}
