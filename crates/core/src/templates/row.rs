//! The Row template: fused operators over sparse/dense rows `X_i` with side
//! inputs and scalars (paper Table 1; Figure 3(c) shows the MLogreg core).

use super::shape;
use super::{CloseDecision, FusionTemplate, TemplateType};
use fusedml_hop::{Hop, HopDag, OpKind};
use fusedml_linalg::ops::{AggDir, AggOp};

/// Maximum number of columns of a matmult right-hand side that still counts
/// as "skinny" for Row fusion (`X %*% V` with narrow `V`), mirroring
/// SystemML's `isFuseSkinnyMatrixMult`.
pub const ROW_NARROW_MAX: usize = 128;

/// Row-wise template implementation.
pub struct RowTemplate;

/// Whether a column or full aggregate has a Row form: a Row operator's
/// `ColAgg` / `FullAgg` outputs add rows up, so only a sum of per-row terms
/// (`Sum`, `SumSq`) does; `Min`, `Max` and `Mean` across rows do not. The
/// template admits what Row CPlan construction accepts, by this one rule.
pub(crate) fn sums_over_rows(op: AggOp) -> bool {
    matches!(op, AggOp::Sum | AggOp::SumSq)
}

/// Cell-wise map over a proper matrix (rows>1, cols>1): row-representable.
fn is_rowwise_cellwise(h: &Hop) -> bool {
    matches!(h.kind, OpKind::Unary { .. } | OpKind::Binary { .. } | OpKind::Ternary { .. })
        && shape::is_matrix(h)
}

/// `mm(X, V)` with a skinny right-hand side and a non-transpose left input:
/// per-row `vectMatMult`. (`mm(t(X), D)` is reached by *fusing* the left
/// transpose instead, as in paper Figure 5 group 11.)
fn is_skinny_matmult(dag: &HopDag, h: &Hop) -> bool {
    if h.kind != OpKind::MatMult {
        return false;
    }
    let l = dag.hop(h.inputs[0]);
    let r = dag.hop(h.inputs[1]);
    l.kind != OpKind::Transpose
        && l.size.rows > 1
        && l.size.cols > 1
        && r.size.cols <= ROW_NARROW_MAX
        && r.size.cols < l.size.cols.max(2)
}

/// `rix` keeping all rows (a column slice), usable as a per-row vector slice.
fn is_col_slice(h: &Hop, input: &Hop) -> bool {
    match h.kind {
        OpKind::RightIndex { rows, cols: _ } => {
            let full_rows = match rows {
                None => true,
                Some((lo, hi)) => lo == 0 && hi == input.size.rows,
            };
            full_rows && h.size.rows > 1
        }
        _ => false,
    }
}

impl FusionTemplate for RowTemplate {
    fn ttype(&self) -> TemplateType {
        TemplateType::Row
    }

    fn open(&self, dag: &HopDag, h: &Hop) -> bool {
        match h.kind {
            // Cell-wise matrix ops open Row just like Cell; costing decides.
            OpKind::Unary { .. } | OpKind::Binary { .. } | OpKind::Ternary { .. } => {
                is_rowwise_cellwise(h)
            }
            // Skinny matrix multiplies (matrix-vector and X %*% V).
            OpKind::MatMult => is_skinny_matmult(dag, h),
            // Transpose opens so that mm(t(X), D) can fuse its left input
            // (Figure 5 group 10 holds R(-1)).
            OpKind::Transpose => shape::is_matrix(h),
            // Row aggregations and column sums over matrices (rowSums,
            // rowMaxs, colSums, …).
            OpKind::Agg { dir: AggDir::Row, .. } => shape::is_matrix(dag.hop(h.inputs[0])),
            OpKind::Agg { dir: AggDir::Col, op } => {
                sums_over_rows(op) && shape::is_matrix(dag.hop(h.inputs[0]))
            }
            // Column slices (Figure 5 group 5 holds R(-1)).
            OpKind::RightIndex { .. } => {
                let input = dag.hop(h.inputs[0]);
                is_col_slice(h, input) && shape::is_matrix(input)
            }
            _ => false,
        }
    }

    fn fuse(&self, dag: &HopDag, h: &Hop, input: &Hop) -> bool {
        match h.kind {
            // Cell-wise continuation on the same row domain (including
            // vector intermediates like rowSums outputs).
            OpKind::Unary { .. } | OpKind::Binary { .. } | OpKind::Ternary { .. } => {
                shape::is_non_scalar(h) && h.size.rows == input.size.rows && h.size.rows > 1
            }
            // Aggregations over the covered input: any per row, sums across
            // rows.
            OpKind::Agg { op, dir } => {
                input.size.rows > 1 && (dir == AggDir::Row || sums_over_rows(op))
            }
            OpKind::MatMult => {
                let l = dag.hop(h.inputs[0]);
                let r = dag.hop(h.inputs[1]);
                if input.id == r.id && l.kind == OpKind::Transpose {
                    // t(X) %*% D — column-aggregating outer accumulation;
                    // the transpose child and D must share the row domain.
                    let x = dag.hop(l.inputs[0]);
                    return x.size.rows == r.size.rows && x.size.rows > 1;
                }
                if input.id == l.id && l.kind == OpKind::Transpose {
                    // Fusing the left transpose itself (R(10,-1) in Fig. 5):
                    // same geometric condition viewed from the other side.
                    let x = dag.hop(l.inputs[0]);
                    return x.size.rows == r.size.rows && x.size.rows > 1;
                }
                if input.id == l.id && l.kind != OpKind::Transpose {
                    // D %*% V with a skinny side V: per-row vectMatMult.
                    return r.size.cols <= ROW_NARROW_MAX && l.size.rows > 1;
                }
                false
            }
            // Column slicing of a covered row-aligned intermediate.
            OpKind::RightIndex { .. } => is_col_slice(h, input),
            _ => false,
        }
    }

    fn merge(&self, _dag: &HopDag, h: &Hop, input: &Hop) -> bool {
        // Row absorbs Row/Cell plans on the same row domain (type
        // compatibility is checked by the explorer via merge_compatible).
        input.size.rows == h.size.rows && h.size.rows > 1 && !input.kind.is_leaf()
    }

    /// Only column-wise or full aggregations close a Row template (paper
    /// §3.2); row aggregations keep the row domain and stay open. The
    /// `t(X) %*% D` matmult produces a column-aggregated output and closes.
    fn close(&self, dag: &HopDag, h: &Hop) -> CloseDecision {
        match h.kind {
            OpKind::Agg { dir: AggDir::Col | AggDir::Full, op } => {
                if sums_over_rows(op) {
                    CloseDecision::ClosedValid
                } else {
                    CloseDecision::ClosedInvalid
                }
            }
            OpKind::MatMult => {
                let l = dag.hop(h.inputs[0]);
                if l.kind == OpKind::Transpose {
                    CloseDecision::ClosedValid
                } else {
                    CloseDecision::Open
                }
            }
            _ => CloseDecision::Open,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_hop::DagBuilder;

    /// `t(X) %*% (X %*% v)` — the paper's Figure 1(b) / 8(e) pattern.
    fn mv_chain() -> (HopDag, [fusedml_hop::HopId; 5]) {
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 100, 1.0);
        let v = b.read("v", 100, 1, 1.0);
        let xv = b.mm(x, v);
        let xt = b.t(x);
        let out = b.mm(xt, xv);
        let dag = b.build(vec![out]);
        (dag, [x, v, xv, xt, out])
    }

    #[test]
    fn matrix_vector_mm_opens() {
        let (dag, ids) = mv_chain();
        let t = RowTemplate;
        assert!(t.open(&dag, dag.hop(ids[2])), "X%*%v opens Row");
        assert!(t.open(&dag, dag.hop(ids[3])), "t(X) opens Row");
        assert!(!t.open(&dag, dag.hop(ids[4])), "t(X)%*%D does not open (fuse-only)");
    }

    #[test]
    fn transpose_mm_fuses_both_sides() {
        let (dag, ids) = mv_chain();
        let t = RowTemplate;
        let out = dag.hop(ids[4]);
        assert!(t.fuse(&dag, out, dag.hop(ids[2])), "fuse right (Xv)");
        assert!(t.fuse(&dag, out, dag.hop(ids[3])), "fuse left t(X)");
    }

    #[test]
    fn tx_mm_closes_valid() {
        let (dag, ids) = mv_chain();
        let t = RowTemplate;
        assert_eq!(t.close(&dag, dag.hop(ids[4])), CloseDecision::ClosedValid);
        assert_eq!(t.close(&dag, dag.hop(ids[2])), CloseDecision::Open);
    }

    #[test]
    fn row_agg_stays_open_col_agg_closes() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 100, 50, 1.0);
        let rs = b.row_sums(x);
        let cs = b.col_sums(x);
        let dag = b.build(vec![rs, cs]);
        let t = RowTemplate;
        assert!(t.open(&dag, dag.hop(rs)));
        assert!(t.open(&dag, dag.hop(cs)));
        assert_eq!(t.close(&dag, dag.hop(rs)), CloseDecision::Open);
        assert_eq!(t.close(&dag, dag.hop(cs)), CloseDecision::ClosedValid);
    }

    #[test]
    fn wide_mm_does_not_open() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 100, 200, 1.0);
        let w = b.read("W", 200, 200, 1.0);
        let mm = b.mm(x, w);
        let dag = b.build(vec![mm]);
        assert!(!RowTemplate.open(&dag, dag.hop(mm)), "200-wide rhs is not skinny");
    }

    #[test]
    fn col_slice_opens_and_fuses() {
        let mut b = DagBuilder::new();
        let p = b.read("P", 100, 6, 1.0);
        let pk = b.rix(p, None, Some((0, 5)));
        let xv = b.read("Q", 100, 5, 1.0);
        let m = b.mult(pk, xv);
        let dag = b.build(vec![m]);
        let t = RowTemplate;
        assert!(t.open(&dag, dag.hop(pk)), "column slice opens Row");
        assert!(t.fuse(&dag, dag.hop(m), dag.hop(pk)), "slice fuses into b(*)");
    }

    #[test]
    fn row_slice_does_not_open() {
        let mut b = DagBuilder::new();
        let p = b.read("P", 100, 6, 1.0);
        let slice = b.rix(p, Some((0, 10)), None);
        let dag = b.build(vec![slice]);
        assert!(!RowTemplate.open(&dag, dag.hop(slice)), "row slicing breaks row binding");
    }

    #[test]
    fn merge_requires_same_row_domain() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 100, 50, 1.0);
        let y = b.read("Y", 100, 1, 1.0);
        let z = b.read("Z", 100, 1, 1.0);
        let yz = b.mult(y, z);
        let v = b.read("v", 50, 1, 1.0);
        let xv = b.mm(x, v);
        let m = b.mult(xv, yz);
        let dag = b.build(vec![m]);
        let t = RowTemplate;
        assert!(t.merge(&dag, dag.hop(m), dag.hop(yz)), "vector cell chain merges");
    }
}
