//! Hand-coded fused operators: the `Fused` baseline of the evaluation
//! (SystemML's default before automatic codegen), implementing a fixed set
//! of two-to-three-operator patterns matched structurally at compile time
//! (paper §1: such operators "are usually limited to fixed patterns of few
//! operators").
//!
//! Patterns (mirroring SystemML's hand-coded operator set):
//! * `tak+*` — `sum(X ⊙ Y)` / `sum(X ⊙ Y ⊙ Z)` without intermediates,
//! * `mmchain` — `t(X) %*% (X %*% v)` and `t(X) %*% (w ⊙ (X %*% v))`
//!   (matrix-*vector* chains only; the paper notes the hand-coded operator
//!   does not cover `X^T(XV)` with matrix `V`),
//! * `wcemm` — weighted cross-entropy `sum(X ⊙ log(U V^T + eps))`,
//! * `wdivmm`-style — `((X != 0) ⊙ (U V^T)) %*% V` and the transposed
//!   variant, the ALS-CG update kernels.
//!
//! Matching ([`match_patterns`]) is purely structural and value-free, so the
//! scheduled executor can treat each matched instance as one task with
//! explicit input dependencies; execution ([`exec_operator`]) receives the
//! materialized input values. The sequential oracle (`exec::sequential`)
//! dispatches the same two functions demand-driven.

use fusedml_core::util::FxHashMap;
use fusedml_hop::{HopDag, HopId, OpKind};
use fusedml_linalg::matrix::Value;
use fusedml_linalg::ops::{AggDir, AggOp, BinaryOp, UnaryOp};
use fusedml_linalg::{par, pool, primitives as prim, simd, DenseMatrix, Matrix};

/// The concrete hand-coded kernel a matched pattern executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HcKind {
    /// `sum(A ⊙ B [⊙ C])`; inputs `[a, b]` or `[a, b, c]`.
    TakPlusMult,
    /// `t(X) %*% ([w ⊙] (X %*% v))`; inputs `[x, v]` or `[x, v, w]`.
    MmChain,
    /// `sum(X ⊙ log(U Vᵀ + eps))`; inputs `[x, u, v, eps]`.
    Wcemm,
    /// `((X != 0) ⊙ (U Vᵀ)) %*% S` (right) / `t(…) %*% U`-style (left);
    /// inputs `[x, u, v, s]`.
    Wdivmm { left: bool },
}

/// A structurally matched hand-coded operator instance rooted at one hop.
#[derive(Clone, Debug)]
pub struct HcOperator {
    /// The hop whose value this operator produces.
    pub root: HopId,
    /// The values the executor must materialize before running it.
    pub inputs: Vec<HopId>,
    kind: HcKind,
}

/// Structurally matches all hand-coded patterns over the live hops of a DAG,
/// returning `root hop → operator`. No values are consulted.
pub fn match_patterns(dag: &HopDag) -> FxHashMap<HopId, HcOperator> {
    let live = dag.live_set();
    let mut out = FxHashMap::default();
    for h in dag.iter() {
        if !live[h.id.index()] {
            continue;
        }
        if let Some(hc) = try_match(dag, h.id) {
            out.insert(h.id, hc);
        }
    }
    out
}

/// Structural helpers.
fn kind(dag: &HopDag, h: HopId) -> &OpKind {
    &dag.hop(h).kind
}

/// Attempts all hand-coded patterns at `hop`.
fn try_match(dag: &HopDag, hop: HopId) -> Option<HcOperator> {
    match_tak_plus_mult(dag, hop)
        .or_else(|| match_mmchain(dag, hop))
        .or_else(|| match_wcemm(dag, hop))
        .or_else(|| match_wdivmm(dag, hop))
}

/// Executes a matched operator over its materialized input values (in
/// [`HcOperator::inputs`] order).
pub fn exec_operator(hc: &HcOperator, inputs: &[Value]) -> Value {
    debug_assert_eq!(inputs.len(), hc.inputs.len());
    match hc.kind {
        HcKind::TakPlusMult => exec_tak_plus_mult(inputs),
        HcKind::MmChain => exec_mmchain(inputs),
        HcKind::Wcemm => exec_wcemm(inputs),
        HcKind::Wdivmm { left } => exec_wdivmm(inputs, left),
    }
}

// ---------------------------------------------------------------------------
// `tak+*`: `sum(A ⊙ B)` or `sum(A ⊙ B ⊙ C)`.
// ---------------------------------------------------------------------------

fn match_tak_plus_mult(dag: &HopDag, hop: HopId) -> Option<HcOperator> {
    let OpKind::Agg { op: AggOp::Sum, dir: AggDir::Full } = kind(dag, hop) else {
        return None;
    };
    let inner = dag.hop(hop).inputs[0];
    let OpKind::Binary { op: BinaryOp::Mult } = kind(dag, inner) else {
        return None;
    };
    let [a, b] = dag.hop(inner).inputs[..] else {
        return None;
    };
    // Optional third factor.
    let (ops, third): (Vec<HopId>, Option<HopId>) = match kind(dag, a) {
        OpKind::Binary { op: BinaryOp::Mult } => {
            let [a1, a2] = dag.hop(a).inputs[..] else { return None };
            (vec![a1, a2], Some(b))
        }
        _ => (vec![a, b], None),
    };
    // All factors must be same-geometry matrices (no broadcasts here).
    let g = dag.hop(ops[0]).size;
    let all_same = ops
        .iter()
        .chain(third.iter())
        .all(|&f| dag.hop(f).size.rows == g.rows && dag.hop(f).size.cols == g.cols);
    if !all_same || g.cells() <= 1 {
        return None;
    }
    let mut inputs = ops;
    inputs.extend(third);
    Some(HcOperator { root: hop, inputs, kind: HcKind::TakPlusMult })
}

fn exec_tak_plus_mult(inputs: &[Value]) -> Value {
    let factors: Vec<Matrix> = inputs.iter().map(Value::as_matrix).collect();
    let (rows, cols) = (factors[0].rows(), factors[0].cols());
    let acc = par::par_map_reduce(
        rows,
        cols.max(1) * 2,
        0.0f64,
        |lo, hi| (lo..hi).map(|r| tak_row(&factors, r)).sum(),
        |x, y| x + y,
    );
    Value::Scalar(acc)
}

/// Row `r` of `sum(A ⊙ B [⊙ C])`. All factors dense: one `dot` over the row
/// slices. Otherwise the non-zeros of the CSR factor with the fewest in this
/// row, the other factors read at those columns (an index into a dense row,
/// a binary search of a CSR one). Sparse-safe like the fused operator: a
/// column the leading CSR factor does not store contributes 0 even where a
/// dense factor holds `inf` or `NaN`, so it matches the base `mult` + `sum`
/// on finite inputs only.
fn tak_row(factors: &[Matrix], r: usize) -> f64 {
    let lead = factors.iter().enumerate().filter_map(|(i, m)| match m {
        Matrix::Sparse(s) => Some((s.row_nnz(r), i, &**s)),
        Matrix::Dense(_) => None,
    });
    let Some((_, lead, s)) = lead.min_by_key(|&(nnz, ..)| nnz) else {
        return match factors {
            [a, b] => simd::dot(a.as_dense().row(r), b.as_dense().row(r)),
            [a, b, c] => {
                simd::dot3_sum(a.as_dense().row(r), b.as_dense().row(r), c.as_dense().row(r))
            }
            _ => unreachable!("tak+* has two or three factors"),
        };
    };
    s.row_iter(r)
        .map(|(c, v)| {
            let at = |(i, m): (usize, &Matrix)| if i == lead { v } else { m.get(r, c) };
            factors.iter().enumerate().map(at).product::<f64>()
        })
        .sum()
}

// ---------------------------------------------------------------------------
// `mmchain`: `t(X) %*% (X %*% v)` or `t(X) %*% (w ⊙ (X %*% v))`, vector `v`.
// ---------------------------------------------------------------------------

fn match_mmchain(dag: &HopDag, hop: HopId) -> Option<HcOperator> {
    if *kind(dag, hop) != OpKind::MatMult {
        return None;
    }
    let [l, rr] = dag.hop(hop).inputs[..] else { return None };
    let OpKind::Transpose = kind(dag, l) else { return None };
    let x1 = dag.hop(l).inputs[0];
    // Case 1: rhs = mm(X, v); Case 2: rhs = w ⊙ mm(X, v).
    let (w, inner_mm) = match kind(dag, rr) {
        OpKind::MatMult => (None, rr),
        OpKind::Binary { op: BinaryOp::Mult } => {
            let [wa, wb] = dag.hop(rr).inputs[..] else { return None };
            if *kind(dag, wb) == OpKind::MatMult {
                (Some(wa), wb)
            } else if *kind(dag, wa) == OpKind::MatMult {
                (Some(wb), wa)
            } else {
                return None;
            }
        }
        _ => return None,
    };
    let [x2, v] = dag.hop(inner_mm).inputs[..] else { return None };
    if x1 != x2 || dag.hop(v).size.cols != 1 {
        return None; // hand-coded mmchain only covers the same X and vectors
    }
    if let Some(w) = w {
        if dag.hop(w).size.cols != 1 || dag.hop(w).size.rows != dag.hop(x1).size.rows {
            return None;
        }
    }
    let mut inputs = vec![x1, v];
    inputs.extend(w);
    Some(HcOperator { root: hop, inputs, kind: HcKind::MmChain })
}

fn exec_mmchain(inputs: &[Value]) -> Value {
    let xm = inputs[0].as_matrix();
    let vm = inputs[1].as_matrix().to_dense().into_values();
    let wm = inputs.get(2).map(|v| v.as_matrix());
    let (n, m) = (xm.rows(), xm.cols());
    // Single pass: acc += X_r * (w_r * dot(X_r, v)).
    let acc = par::par_map_reduce(
        n,
        m * 2,
        vec![0.0f64; m],
        |lo, hi| {
            let mut acc = vec![0.0f64; m];
            let mut row = vec![0.0f64; m];
            for r in lo..hi {
                match &xm {
                    Matrix::Dense(d) => row.copy_from_slice(d.row(r)),
                    Matrix::Sparse(s) => {
                        row.fill(0.0);
                        for (c, v) in s.row_iter(r) {
                            row[c] = v;
                        }
                    }
                }
                let mut t = prim::dot_product(&row, &vm, 0, 0, m);
                if let Some(wv) = &wm {
                    t *= wv.get(r, 0);
                }
                if t != 0.0 {
                    prim::vect_mult_add(&row, t, &mut acc, 0, 0, m);
                }
            }
            acc
        },
        |mut a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        },
    );
    Value::Matrix(Matrix::dense(DenseMatrix::new(m, 1, acc)))
}

// ---------------------------------------------------------------------------
// `wcemm`: `sum(X ⊙ log(U V^T + eps))` over the non-zeros of sparse X.
// ---------------------------------------------------------------------------

fn match_wcemm(dag: &HopDag, hop: HopId) -> Option<HcOperator> {
    let OpKind::Agg { op: AggOp::Sum, dir: AggDir::Full } = kind(dag, hop) else {
        return None;
    };
    let prod = dag.hop(hop).inputs[0];
    let OpKind::Binary { op: BinaryOp::Mult } = kind(dag, prod) else { return None };
    let [x, lg] = dag.hop(prod).inputs[..] else { return None };
    let OpKind::Unary { op: UnaryOp::Log } = kind(dag, lg) else { return None };
    let plus = dag.hop(lg).inputs[0];
    let OpKind::Binary { op: BinaryOp::Add } = kind(dag, plus) else { return None };
    let [uvt, eps] = dag.hop(plus).inputs[..] else { return None };
    if !dag.hop(eps).is_scalar() || *kind(dag, uvt) != OpKind::MatMult {
        return None;
    }
    let [u, vt] = dag.hop(uvt).inputs[..] else { return None };
    let OpKind::Transpose = kind(dag, vt) else { return None };
    let v = dag.hop(vt).inputs[0];
    Some(HcOperator { root: hop, inputs: vec![x, u, v, eps], kind: HcKind::Wcemm })
}

fn exec_wcemm(inputs: &[Value]) -> Value {
    let xm = inputs[0].as_matrix();
    let um = inputs[1].as_matrix().to_dense();
    let vm = inputs[2].as_matrix().to_dense();
    let epsv = inputs[3].as_scalar();
    let r = um.cols();
    let xs = xm.to_sparse();
    let acc = par::par_map_reduce(
        xs.rows(),
        (xs.nnz() / xs.rows().max(1)).max(1) * r,
        0.0f64,
        |lo, hi| {
            let mut acc = 0.0;
            for i in lo..hi {
                for (j, a) in xs.row_iter(i) {
                    let uv = prim::dot_product(um.row(i), vm.row(j), 0, 0, r);
                    acc += a * (uv + epsv).ln();
                }
            }
            acc
        },
        |a, b| a + b,
    );
    Value::Scalar(acc)
}

// ---------------------------------------------------------------------------
// `wdivmm`-style: `((X != 0) ⊙ (U V^T)) %*% V` (right) or
// `t((X != 0) ⊙ (U V^T)) %*% U` (left).
// ---------------------------------------------------------------------------

fn match_wdivmm(dag: &HopDag, hop: HopId) -> Option<HcOperator> {
    if *kind(dag, hop) != OpKind::MatMult {
        return None;
    }
    let [l, s] = dag.hop(hop).inputs[..] else { return None };
    // Right form: l = masked plane, s = V. Left form: l = t(masked plane).
    let (plane, left) = match kind(dag, l) {
        OpKind::Transpose => (dag.hop(l).inputs[0], true),
        _ => (l, false),
    };
    let OpKind::Binary { op: BinaryOp::Mult } = kind(dag, plane) else { return None };
    let [mask, uvt] = dag.hop(plane).inputs[..] else { return None };
    let OpKind::Binary { op: BinaryOp::Neq } = kind(dag, mask) else { return None };
    let x = dag.hop(mask).inputs[0];
    if *kind(dag, uvt) != OpKind::MatMult {
        return None;
    }
    let [u, vt] = dag.hop(uvt).inputs[..] else { return None };
    let OpKind::Transpose = kind(dag, vt) else { return None };
    let v = dag.hop(vt).inputs[0];
    Some(HcOperator { root: hop, inputs: vec![x, u, v, s], kind: HcKind::Wdivmm { left } })
}

fn exec_wdivmm(inputs: &[Value], left: bool) -> Value {
    let xm = inputs[0].as_matrix().to_sparse();
    let um = inputs[1].as_matrix().to_dense();
    let vm = inputs[2].as_matrix().to_dense();
    let sm = inputs[3].as_matrix().to_dense();
    let r = um.cols();
    let k = sm.cols();
    let (n, m) = (xm.rows(), xm.cols());
    if left {
        // out (m×k): out[j,:] += w_ij * S[i,:]
        let acc = par::par_map_reduce(
            n,
            (xm.nnz() / n.max(1)).max(1) * r,
            pool::take_zeroed(m * k),
            |lo, hi| {
                let mut acc = pool::take_zeroed(m * k);
                for i in lo..hi {
                    for (j, _a) in xm.row_iter(i) {
                        let w = prim::dot_product(um.row(i), vm.row(j), 0, 0, r);
                        prim::vect_mult_add(sm.row(i), w, &mut acc[j * k..(j + 1) * k], 0, 0, k);
                    }
                }
                acc
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x += y;
                }
                pool::give(b);
                a
            },
        );
        Value::Matrix(Matrix::dense(DenseMatrix::new(m, k, acc)))
    } else {
        let mut out = pool::take_zeroed(n * k);
        par::par_rows_mut(&mut out, n, k, (xm.nnz() / n.max(1)).max(1) * r, |i, orow| {
            for (j, _a) in xm.row_iter(i) {
                let w = prim::dot_product(um.row(i), vm.row(j), 0, 0, r);
                prim::vect_mult_add(sm.row(j), w, orow, 0, 0, k);
            }
        });
        Value::Matrix(Matrix::dense(DenseMatrix::new(n, k, out)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{self, ExecStats};
    use fusedml_hop::interp::{self, Bindings};
    use fusedml_hop::DagBuilder;
    use fusedml_linalg::generate;

    /// The `Fused`-mode sequential oracle: hand-coded operators where the
    /// patterns match, basic operators everywhere else.
    fn interpret(dag: &HopDag, bindings: &Bindings, stats: &ExecStats) -> Vec<Value> {
        exec::sequential(dag, None, Some(&match_patterns(dag)), bindings, stats)
    }

    fn bind(pairs: &[(&str, Matrix)]) -> Bindings {
        pairs.iter().map(|(n, m)| (n.to_string(), m.clone())).collect()
    }

    fn run_both(dag: &HopDag, bindings: &Bindings) -> (Vec<Value>, Vec<Value>, usize) {
        let stats = ExecStats::default();
        let fused = interpret(dag, bindings, &stats);
        let base = interp::interpret(dag, bindings);
        let (_, hc, _) = stats.snapshot();
        (fused, base, hc)
    }

    #[test]
    fn tak_matches_base_and_matches_pattern() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 100, 80, 1.0);
        let y = b.read("Y", 100, 80, 1.0);
        let z = b.read("Z", 100, 80, 1.0);
        let m1 = b.mult(x, y);
        let m2 = b.mult(m1, z);
        let s = b.sum(m2);
        let dag = b.build(vec![s]);
        let bindings = bind(&[
            ("X", generate::rand_dense(100, 80, -1.0, 1.0, 1)),
            ("Y", generate::rand_dense(100, 80, -1.0, 1.0, 2)),
            ("Z", generate::rand_dense(100, 80, -1.0, 1.0, 3)),
        ]);
        let (fused, base, hc) = run_both(&dag, &bindings);
        assert!(hc >= 1, "tak+* must match");
        assert!(fusedml_linalg::approx_eq(fused[0].as_scalar(), base[0].as_scalar(), 1e-9));
    }

    /// Every format mix of two and three factors: the sparsest CSR row leads,
    /// whichever factor it is in, and the result is the base operators'.
    #[test]
    fn tak_over_csr_factors_matches_base() {
        let (rows, cols) = (60, 90);
        let formats = [
            generate::rand_dense(rows, cols, -1.0, 1.0, 21),
            generate::rand_matrix(rows, cols, -1.0, 1.0, 0.4, 22),
            generate::rand_matrix(rows, cols, -1.0, 1.0, 0.05, 23),
        ];
        let names = ["X", "Y", "Z"];
        for n in [2usize, 3] {
            let mut b = DagBuilder::new();
            let reads: Vec<_> = names[..n].iter().map(|v| b.read(v, rows, cols, 1.0)).collect();
            let prod = reads[1..].iter().fold(reads[0], |p, &f| b.mult(p, f));
            let s = b.sum(prod);
            let dag = b.build(vec![s]);
            for pick in 0..formats.len().pow(n as u32) {
                let mix: Vec<(&str, Matrix)> = (0..n)
                    .map(|i| (names[i], formats[pick / 3usize.pow(i as u32) % 3].clone()))
                    .collect();
                let bindings = bind(&mix);
                let (fused, base, hc) = run_both(&dag, &bindings);
                assert!(hc >= 1, "tak+* must match");
                assert!(
                    fusedml_linalg::approx_eq(fused[0].as_scalar(), base[0].as_scalar(), 1e-9),
                    "{n} factors, mix {pick}: {} vs {}",
                    fused[0].as_scalar(),
                    base[0].as_scalar()
                );
            }
        }
    }

    #[test]
    fn mmchain_matches_base() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 500, 60, 1.0);
        let v = b.read("v", 60, 1, 1.0);
        let xv = b.mm(x, v);
        let xt = b.t(x);
        let out = b.mm(xt, xv);
        let dag = b.build(vec![out]);
        let bindings = bind(&[
            ("X", generate::rand_dense(500, 60, -1.0, 1.0, 4)),
            ("v", generate::rand_dense(60, 1, -1.0, 1.0, 5)),
        ]);
        let (fused, base, hc) = run_both(&dag, &bindings);
        assert!(hc >= 1, "mmchain must match");
        assert!(fused[0].as_matrix().approx_eq(&base[0].as_matrix(), 1e-9));
    }

    #[test]
    fn mmchain_does_not_match_matrix_rhs() {
        // X^T (X V) with matrix V is NOT covered by the hand-coded operator
        // (paper §5.2: "the hand-coded mmchain operator only applies to
        // matrix-vector chains").
        let mut b = DagBuilder::new();
        let x = b.read("X", 200, 50, 1.0);
        let v = b.read("V", 50, 2, 1.0);
        let xv = b.mm(x, v);
        let xt = b.t(x);
        let out = b.mm(xt, xv);
        let dag = b.build(vec![out]);
        let bindings = bind(&[
            ("X", generate::rand_dense(200, 50, -1.0, 1.0, 6)),
            ("V", generate::rand_dense(50, 2, -1.0, 1.0, 7)),
        ]);
        let (fused, base, hc) = run_both(&dag, &bindings);
        assert_eq!(hc, 0, "no hand-coded operator applies");
        assert!(fused[0].as_matrix().approx_eq(&base[0].as_matrix(), 1e-9));
    }

    #[test]
    fn wcemm_matches_base() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 300, 250, 0.02);
        let u = b.read("U", 300, 10, 1.0);
        let v = b.read("V", 250, 10, 1.0);
        let vt = b.t(v);
        let uvt = b.mm(u, vt);
        let eps = b.lit(1e-15);
        let plus = b.add(uvt, eps);
        let lg = b.log(plus);
        let prod = b.mult(x, lg);
        let s = b.sum(prod);
        let dag = b.build(vec![s]);
        let bindings = bind(&[
            ("X", generate::rand_matrix(300, 250, 1.0, 5.0, 0.02, 8)),
            ("U", generate::rand_dense(300, 10, 0.1, 1.0, 9)),
            ("V", generate::rand_dense(250, 10, 0.1, 1.0, 10)),
        ]);
        let (fused, base, hc) = run_both(&dag, &bindings);
        assert!(hc >= 1, "wcemm must match");
        assert!(fusedml_linalg::approx_eq(fused[0].as_scalar(), base[0].as_scalar(), 1e-9));
    }

    #[test]
    fn wdivmm_right_matches_base() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 200, 150, 0.05);
        let u = b.read("U", 200, 8, 1.0);
        let v = b.read("V", 150, 8, 1.0);
        let vt = b.t(v);
        let uvt = b.mm(u, vt);
        let zero = b.lit(0.0);
        let mask = b.neq(x, zero);
        let w = b.mult(mask, uvt);
        let out = b.mm(w, v);
        let dag = b.build(vec![out]);
        let bindings = bind(&[
            ("X", generate::rand_matrix(200, 150, 1.0, 5.0, 0.05, 11)),
            ("U", generate::rand_dense(200, 8, 0.1, 1.0, 12)),
            ("V", generate::rand_dense(150, 8, 0.1, 1.0, 13)),
        ]);
        let (fused, base, hc) = run_both(&dag, &bindings);
        assert!(hc >= 1, "wdivmm must match");
        assert!(fused[0].as_matrix().approx_eq(&base[0].as_matrix(), 1e-9));
    }

    /// The demand-driven interpreter must not evaluate interior hops of a
    /// matched pattern (the seed implementation materialized them anyway).
    #[test]
    fn pattern_interiors_are_not_materialized() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 100, 80, 1.0);
        let y = b.read("Y", 100, 80, 1.0);
        let m1 = b.mult(x, y);
        let s = b.sum(m1);
        let dag = b.build(vec![s]);
        let bindings = bind(&[
            ("X", generate::rand_dense(100, 80, -1.0, 1.0, 14)),
            ("Y", generate::rand_dense(100, 80, -1.0, 1.0, 15)),
        ]);
        let stats = ExecStats::default();
        let _ = interpret(&dag, &bindings, &stats);
        let (_, hc, basic) = stats.snapshot();
        assert_eq!(hc, 1);
        assert_eq!(basic, 0, "the ⊙ interior must not run as a basic op");
    }
}
