//! The hand-coded pattern table: the `Fused` baseline of the evaluation
//! (SystemML's fused operators before automatic codegen), a fixed set of
//! two-to-six-operator patterns matched structurally (paper §1: such
//! operators "are usually limited to fixed patterns of few operators").
//!
//! Patterns (mirroring SystemML's hand-coded operator set), each compiled to
//! one generated operator of a fixed template:
//! * `wcemm` (Outer) — weighted cross-entropy `sum(X ⊙ log(U Vᵀ + eps))`,
//! * `wdivmm` (Outer) — `((X != 0) ⊙ (U Vᵀ)) %*% V` and the transposed
//!   `t((X != 0) ⊙ (U Vᵀ)) %*% U`, the ALS-CG update kernels,
//! * `mmchain` (Row) — `t(X) %*% (X %*% v)` and `t(X) %*% (w ⊙ (X %*% v))`
//!   (matrix-*vector* chains only; the paper notes the hand-coded operator
//!   does not cover `Xᵀ(XV)` with matrix `V`),
//! * `tak+*` (Cell) — `sum(X ⊙ Y)` / `sum(X ⊙ Y ⊙ Z)` without intermediates.
//!
//! The table is tried in that order, most specific first: `wcemm`'s root
//! also has `tak+*`'s shape. [`restrict`] keeps of an explored memo table
//! only each matched instance's interior, so the fuse-all selection emits one
//! operator per instance (`optimizer::Optimizer` under `FusionMode::Fused`)
//! and everything else runs as basic operators: what stays hand-coded is
//! the fixed pattern, the kernel is the engine's own.

use crate::memo::{InputRef, MemoEntry, MemoTable};
use crate::templates::TemplateType;
use fusedml_hop::{HopDag, HopId, OpKind};
use fusedml_linalg::ops::{AggDir, AggOp, BinaryOp, UnaryOp};

/// A structural matcher: the hops the pattern rooted at a hop computes
/// without materializing, or `None`.
type Matcher = fn(&HopDag, HopId) -> Option<Vec<HopId>>;

/// The pattern table, most specific first: `(template, matcher)`.
const TABLE: [(TemplateType, Matcher); 4] = [
    (TemplateType::Outer, match_wcemm),
    (TemplateType::Outer, match_wdivmm),
    (TemplateType::Row, match_mmchain),
    (TemplateType::Cell, match_tak_plus_mult),
];

/// One matched pattern instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    /// The template its operator is generated from.
    pub ttype: TemplateType,
    /// The hops the operator computes without materializing: the root, the
    /// interior operators and their literal operands (`eps`, the `0` of
    /// `X != 0`).
    pub interior: Vec<HopId>,
}

/// Structurally matches the pattern table over the live hops of a DAG, in
/// hop order. No values are consulted.
pub fn match_patterns(dag: &HopDag) -> Vec<Instance> {
    let live = dag.live_set();
    dag.iter()
        .filter(|h| live[h.id.index()])
        .filter_map(|h| {
            TABLE.iter().find_map(|&(ttype, matcher)| {
                let mut interior = matcher(dag, h.id)?;
                let literals: Vec<HopId> = interior
                    .iter()
                    .flat_map(|&i| dag.hop(i).inputs.iter().copied())
                    .filter(|&i| matches!(kind(dag, i), OpKind::Literal { .. }))
                    .collect();
                interior.extend(literals);
                interior.sort_unstable();
                interior.dedup();
                Some(Instance { ttype, interior })
            })
        })
        .collect()
}

/// The memo table the `Fused` baseline selects from: for each matched
/// instance, its interior hops' entries of the instance's template or of one
/// it absorbs (the Cell entry of the `X != 0` an Outer operator reads), with
/// every reference that leaves the interior read as materialized. Every
/// other group is dropped, so those hops run as basic operators.
pub fn restrict(dag: &HopDag, memo: &MemoTable) -> MemoTable {
    let mut out = MemoTable::new();
    for inst in match_patterns(dag) {
        for &h in &inst.interior {
            let absorbed = |e: &&MemoEntry| inst.ttype.merge_compatible(e.ttype);
            for e in memo.entries(h).iter().filter(absorbed) {
                let mut e = e.clone();
                for r in &mut e.inputs {
                    if r.fused_id().is_some_and(|i| inst.interior.binary_search(&i).is_err()) {
                        *r = InputRef::Materialized;
                    }
                }
                out.add(h, e);
            }
        }
    }
    out
}

fn kind(dag: &HopDag, h: HopId) -> &OpKind {
    &dag.hop(h).kind
}

/// `tak+*`: `sum(A ⊙ B)` or `sum(A ⊙ B ⊙ C)` over same-geometry factors.
fn match_tak_plus_mult(dag: &HopDag, hop: HopId) -> Option<Vec<HopId>> {
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
    let (factors, interior) = match kind(dag, a) {
        OpKind::Binary { op: BinaryOp::Mult } => {
            let [a1, a2] = dag.hop(a).inputs[..] else { return None };
            (vec![a1, a2, b], vec![hop, inner, a])
        }
        _ => (vec![a, b], vec![hop, inner]),
    };
    // All factors must be same-geometry matrices (no broadcasts here).
    let g = dag.hop(factors[0]).size;
    let all_same =
        factors.iter().all(|&f| dag.hop(f).size.rows == g.rows && dag.hop(f).size.cols == g.cols);
    (all_same && g.cells() > 1).then_some(interior)
}

/// `mmchain`: `t(X) %*% (X %*% v)` or `t(X) %*% (w ⊙ (X %*% v))`, vector `v`.
fn match_mmchain(dag: &HopDag, hop: HopId) -> Option<Vec<HopId>> {
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
    let mut interior = vec![hop, l, rr];
    if w.is_some() {
        interior.push(inner_mm);
    }
    Some(interior)
}

/// `wcemm`: `sum(X ⊙ log(U Vᵀ + eps))`.
fn match_wcemm(dag: &HopDag, hop: HopId) -> Option<Vec<HopId>> {
    let OpKind::Agg { op: AggOp::Sum, dir: AggDir::Full } = kind(dag, hop) else {
        return None;
    };
    let prod = dag.hop(hop).inputs[0];
    let OpKind::Binary { op: BinaryOp::Mult } = kind(dag, prod) else { return None };
    let [_x, lg] = dag.hop(prod).inputs[..] else { return None };
    let OpKind::Unary { op: UnaryOp::Log } = kind(dag, lg) else { return None };
    let plus = dag.hop(lg).inputs[0];
    let OpKind::Binary { op: BinaryOp::Add } = kind(dag, plus) else { return None };
    let [uvt, eps] = dag.hop(plus).inputs[..] else { return None };
    if !dag.hop(eps).is_scalar() || *kind(dag, uvt) != OpKind::MatMult {
        return None;
    }
    let [_u, vt] = dag.hop(uvt).inputs[..] else { return None };
    let OpKind::Transpose = kind(dag, vt) else { return None };
    Some(vec![hop, prod, lg, plus, uvt, vt])
}

/// `wdivmm`: `((X != 0) ⊙ (U Vᵀ)) %*% V` (right) or
/// `t((X != 0) ⊙ (U Vᵀ)) %*% U` (left).
fn match_wdivmm(dag: &HopDag, hop: HopId) -> Option<Vec<HopId>> {
    if *kind(dag, hop) != OpKind::MatMult {
        return None;
    }
    let l = dag.hop(hop).inputs[0];
    // Right form: l = masked plane. Left form: l = t(masked plane).
    let (plane, mut interior) = match kind(dag, l) {
        OpKind::Transpose => (dag.hop(l).inputs[0], vec![hop, l]),
        _ => (l, vec![hop]),
    };
    let OpKind::Binary { op: BinaryOp::Mult } = kind(dag, plane) else { return None };
    let [mask, uvt] = dag.hop(plane).inputs[..] else { return None };
    let OpKind::Binary { op: BinaryOp::Neq } = kind(dag, mask) else { return None };
    if *kind(dag, uvt) != OpKind::MatMult {
        return None;
    }
    let [_u, vt] = dag.hop(uvt).inputs[..] else { return None };
    let OpKind::Transpose = kind(dag, vt) else { return None };
    interior.extend([plane, mask, uvt, vt]);
    Some(interior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_hop::interp::{self, Bindings};
    use fusedml_hop::DagBuilder;
    use fusedml_linalg::matrix::Value;
    use fusedml_linalg::{generate, Matrix};
    use fusedml_runtime::{Engine, FusionMode, SchedSnapshot};

    fn bind(pairs: &[(&str, Matrix)]) -> Bindings {
        pairs.iter().map(|(n, m)| (n.to_string(), m.clone())).collect()
    }

    fn assert_matches_base(got: &Value, dag: &HopDag, bindings: &Bindings) {
        match &interp::interpret(dag, bindings)[0] {
            Value::Scalar(want) => {
                let got = got.as_scalar();
                assert!(fusedml_linalg::approx_eq(got, *want, 1e-9), "{got} vs {want}");
            }
            want => assert!(got.as_matrix().approx_eq(&want.as_matrix(), 1e-9)),
        }
    }

    /// `dag` holds one pattern instance, of template `ttype`; a `Fused`
    /// engine runs it as one generated operator of that template, with no
    /// basic operator for its interior, and returns `Base`'s result.
    /// Returns the run's record.
    fn check(dag: &HopDag, bindings: &Bindings, ttype: TemplateType) -> SchedSnapshot {
        let found = match_patterns(dag);
        assert_eq!(found.iter().map(|i| i.ttype).collect::<Vec<_>>(), [ttype]);
        let engine = Engine::new(FusionMode::Fused);
        let out = engine.execute(dag, bindings);
        let plan = engine.plan_for(dag);
        let templates: Vec<_> = plan.operators.iter().map(|f| f.op.spec.template_name()).collect();
        assert_eq!(templates, [format!("{ttype:?}")]);
        assert_eq!(engine.stats().snapshot(), (0, 1, 0), "(fused, handcoded, basic)");
        assert_matches_base(out.value(0), dag, bindings);
        out.sched()
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
        check(&dag, &bindings, TemplateType::Cell);
    }

    /// Every format mix of two and three factors.
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
                check(&dag, &bind(&mix), TemplateType::Cell);
            }
        }
    }

    /// `t(X) %*% (X %*% v)`, and `t(X) %*% (w ⊙ (X %*% v))` over a CSR `X`.
    fn mmchain_dag(weighted: bool) -> (HopDag, Bindings) {
        let mut b = DagBuilder::new();
        let x = b.read("X", 500, 60, if weighted { 0.3 } else { 1.0 });
        let v = b.read("v", 60, 1, 1.0);
        let w = b.read("w", 500, 1, 1.0);
        let mut xv = b.mm(x, v);
        if weighted {
            xv = b.mult(w, xv);
        }
        let xt = b.t(x);
        let out = b.mm(xt, xv);
        let dag = b.build(vec![out]);
        let x = if weighted {
            generate::rand_matrix(500, 60, -1.0, 1.0, 0.3, 16)
        } else {
            generate::rand_dense(500, 60, -1.0, 1.0, 4)
        };
        let bindings = bind(&[
            ("X", x),
            ("v", generate::rand_dense(60, 1, -1.0, 1.0, 5)),
            ("w", generate::rand_dense(500, 1, 0.0, 1.0, 17)),
        ]);
        (dag, bindings)
    }

    #[test]
    fn mmchain_matches_base() {
        let (dag, bindings) = mmchain_dag(false);
        check(&dag, &bindings, TemplateType::Row);
    }

    #[test]
    fn weighted_mmchain_matches_base() {
        let (dag, bindings) = mmchain_dag(true);
        check(&dag, &bindings, TemplateType::Row);
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
        assert_eq!(match_patterns(&dag), []);
        let engine = Engine::new(FusionMode::Fused);
        let out = engine.execute(&dag, &bindings);
        assert!(engine.plan_for(&dag).operators.is_empty(), "no hand-coded operator applies");
        assert_matches_base(out.value(0), &dag, &bindings);
    }

    /// `sum(X ⊙ log(U Vᵀ + eps))` is `wcemm` (Outer), not `tak+*` (Cell)
    /// over `X` and the `log` plane: no `U Vᵀ` plane is materialised, so
    /// the run peaks no higher than `Gen`'s.
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
        let fused = check(&dag, &bindings, TemplateType::Outer);
        let gen = Engine::new(FusionMode::Gen).execute(&dag, &bindings).sched();
        assert!(fused.peak_bytes <= gen.peak_bytes, "{} > {}", fused.peak_bytes, gen.peak_bytes);
    }

    /// `(X != 0) ⊙ (U Vᵀ)` times `V` (right), or transposed times `U`.
    fn wdivmm_dag(left: bool) -> (HopDag, Bindings) {
        let mut b = DagBuilder::new();
        let x = b.read("X", 200, 150, 0.05);
        let u = b.read("U", 200, 8, 1.0);
        let v = b.read("V", 150, 8, 1.0);
        let vt = b.t(v);
        let uvt = b.mm(u, vt);
        let zero = b.lit(0.0);
        let mask = b.neq(x, zero);
        let w = b.mult(mask, uvt);
        let out = if left {
            let wt = b.t(w);
            b.mm(wt, u)
        } else {
            b.mm(w, v)
        };
        let dag = b.build(vec![out]);
        let bindings = bind(&[
            ("X", generate::rand_matrix(200, 150, 1.0, 5.0, 0.05, 11)),
            ("U", generate::rand_dense(200, 8, 0.1, 1.0, 12)),
            ("V", generate::rand_dense(150, 8, 0.1, 1.0, 13)),
        ]);
        (dag, bindings)
    }

    #[test]
    fn wdivmm_right_matches_base() {
        let (dag, bindings) = wdivmm_dag(false);
        check(&dag, &bindings, TemplateType::Outer);
    }

    #[test]
    fn wdivmm_left_matches_base() {
        let (dag, bindings) = wdivmm_dag(true);
        check(&dag, &bindings, TemplateType::Outer);
    }

    /// The sequential oracle does not evaluate interior hops of a matched
    /// pattern either.
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
        let engine = Engine::new(FusionMode::Fused);
        let _ = engine.compile(&dag).execute_sequential(&bindings);
        let (fused, hc, basic) = engine.stats().snapshot();
        assert_eq!((fused, hc), (0, 1));
        assert_eq!(basic, 0, "the ⊙ interior must not run as a basic op");
    }
}
