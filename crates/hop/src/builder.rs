//! Expression-builder front end for HOP DAGs.
//!
//! Stands in for SystemML's script parser: ML algorithms construct DAGs
//! programmatically. The builder hash-conses identical subexpressions, so
//! common subexpressions share one node (SystemML performs the equivalent
//! CSE during static rewrites).

use crate::dag::{HopDag, HopId};
use crate::hop::OpKind;
use crate::size::{self, SizeInfo};
use fusedml_linalg::ops::{AggDir, AggOp, BinaryOp, TernaryOp, UnaryOp};
use std::collections::HashMap;

/// Builds a [`HopDag`] bottom-up with hash-consing CSE.
#[derive(Default)]
pub struct DagBuilder {
    dag: HopDag,
    cse: HashMap<CseKey, HopId>,
}

/// Structural key for hash-consing.
#[derive(PartialEq, Eq, Hash)]
enum CseKey {
    Read(String),
    Literal(u64),
    Op(String, Vec<HopId>),
}

impl DagBuilder {
    pub fn new() -> Self {
        DagBuilder::default()
    }

    fn intern(&mut self, key: CseKey, kind: OpKind, inputs: Vec<HopId>, sz: SizeInfo) -> HopId {
        if let Some(&id) = self.cse.get(&key) {
            return id;
        }
        let id = self.dag.push(kind, inputs, sz);
        self.cse.insert(key, id);
        id
    }

    fn op_key(&self, kind: &OpKind, inputs: &[HopId]) -> CseKey {
        CseKey::Op(format!("{kind:?}"), inputs.to_vec())
    }

    /// The size info of an already-created node.
    pub fn size_of(&self, id: HopId) -> SizeInfo {
        self.dag.hop(id).size
    }

    // ---- leaves ---------------------------------------------------------

    /// Declares an input matrix with known geometry and sparsity estimate.
    pub fn read(&mut self, name: &str, rows: usize, cols: usize, sparsity: f64) -> HopId {
        let kind = OpKind::Read { name: name.to_string() };
        self.intern(
            CseKey::Read(name.to_string()),
            kind,
            vec![],
            SizeInfo::new(rows, cols, sparsity),
        )
    }

    /// A scalar literal.
    pub fn lit(&mut self, value: f64) -> HopId {
        self.intern(
            CseKey::Literal(value.to_bits()),
            OpKind::Literal { value },
            vec![],
            SizeInfo::scalar(),
        )
    }

    // ---- generic node constructors --------------------------------------

    /// Creates (or CSE-resolves) a node whose size is inferred from its
    /// inputs by [`size::infer`] — the same propagation the executor re-runs
    /// when bound input geometry changes.
    fn infer_node(&mut self, kind: OpKind, inputs: Vec<HopId>) -> HopId {
        let sizes: Vec<SizeInfo> = inputs.iter().map(|&i| self.size_of(i)).collect();
        let sz = size::infer(&kind, &sizes);
        let key = self.op_key(&kind, &inputs);
        self.intern(key, kind, inputs, sz)
    }

    /// Element-wise binary with broadcasting; the output geometry follows the
    /// non-scalar operand.
    pub fn binary(&mut self, op: BinaryOp, a: HopId, b: HopId) -> HopId {
        self.infer_node(OpKind::Binary { op }, vec![a, b])
    }

    /// Element-wise unary.
    pub fn unary(&mut self, op: UnaryOp, a: HopId) -> HopId {
        self.infer_node(OpKind::Unary { op }, vec![a])
    }

    /// Fused scalar ternary.
    pub fn ternary(&mut self, op: TernaryOp, a: HopId, b: HopId, c: HopId) -> HopId {
        self.infer_node(OpKind::Ternary { op }, vec![a, b, c])
    }

    /// Matrix multiplication.
    pub fn mm(&mut self, a: HopId, b: HopId) -> HopId {
        self.infer_node(OpKind::MatMult, vec![a, b])
    }

    /// Transpose.
    pub fn t(&mut self, a: HopId) -> HopId {
        self.infer_node(OpKind::Transpose, vec![a])
    }

    /// Aggregation.
    pub fn agg(&mut self, op: AggOp, dir: AggDir, a: HopId) -> HopId {
        self.infer_node(OpKind::Agg { op, dir }, vec![a])
    }

    /// Right indexing with optional static ranges.
    pub fn rix(
        &mut self,
        a: HopId,
        rows: Option<(usize, usize)>,
        cols: Option<(usize, usize)>,
    ) -> HopId {
        self.infer_node(OpKind::RightIndex { rows, cols }, vec![a])
    }

    /// Cumulative sum down the rows.
    pub fn cumsum(&mut self, a: HopId) -> HopId {
        self.infer_node(OpKind::CumAgg { op: AggOp::Sum }, vec![a])
    }

    /// Column binding.
    pub fn cbind(&mut self, a: HopId, b: HopId) -> HopId {
        self.infer_node(OpKind::CBind, vec![a, b])
    }

    /// Row binding.
    pub fn rbind(&mut self, a: HopId, b: HopId) -> HopId {
        self.infer_node(OpKind::RBind, vec![a, b])
    }

    /// `diag`.
    pub fn diag(&mut self, a: HopId) -> HopId {
        self.infer_node(OpKind::Diag, vec![a])
    }

    // ---- convenience wrappers (script-like surface) ----------------------

    pub fn add(&mut self, a: HopId, b: HopId) -> HopId {
        self.binary(BinaryOp::Add, a, b)
    }
    pub fn sub(&mut self, a: HopId, b: HopId) -> HopId {
        self.binary(BinaryOp::Sub, a, b)
    }
    pub fn mult(&mut self, a: HopId, b: HopId) -> HopId {
        self.binary(BinaryOp::Mult, a, b)
    }
    pub fn div(&mut self, a: HopId, b: HopId) -> HopId {
        self.binary(BinaryOp::Div, a, b)
    }
    pub fn min(&mut self, a: HopId, b: HopId) -> HopId {
        self.binary(BinaryOp::Min, a, b)
    }
    pub fn max(&mut self, a: HopId, b: HopId) -> HopId {
        self.binary(BinaryOp::Max, a, b)
    }
    pub fn pow(&mut self, a: HopId, b: HopId) -> HopId {
        self.binary(BinaryOp::Pow, a, b)
    }
    pub fn neq(&mut self, a: HopId, b: HopId) -> HopId {
        self.binary(BinaryOp::Neq, a, b)
    }
    pub fn gt(&mut self, a: HopId, b: HopId) -> HopId {
        self.binary(BinaryOp::Gt, a, b)
    }
    pub fn exp(&mut self, a: HopId) -> HopId {
        self.unary(UnaryOp::Exp, a)
    }
    pub fn log(&mut self, a: HopId) -> HopId {
        self.unary(UnaryOp::Log, a)
    }
    pub fn sqrt(&mut self, a: HopId) -> HopId {
        self.unary(UnaryOp::Sqrt, a)
    }
    pub fn abs(&mut self, a: HopId) -> HopId {
        self.unary(UnaryOp::Abs, a)
    }
    pub fn sigmoid(&mut self, a: HopId) -> HopId {
        self.unary(UnaryOp::Sigmoid, a)
    }
    pub fn sq(&mut self, a: HopId) -> HopId {
        self.unary(UnaryOp::Pow2, a)
    }
    pub fn sum(&mut self, a: HopId) -> HopId {
        self.agg(AggOp::Sum, AggDir::Full, a)
    }
    pub fn sum_sq(&mut self, a: HopId) -> HopId {
        self.agg(AggOp::SumSq, AggDir::Full, a)
    }
    pub fn row_sums(&mut self, a: HopId) -> HopId {
        self.agg(AggOp::Sum, AggDir::Row, a)
    }
    pub fn col_sums(&mut self, a: HopId) -> HopId {
        self.agg(AggOp::Sum, AggDir::Col, a)
    }
    pub fn row_maxs(&mut self, a: HopId) -> HopId {
        self.agg(AggOp::Max, AggDir::Row, a)
    }

    /// Finalizes the DAG with the given roots.
    pub fn build(mut self, roots: Vec<HopId>) -> HopDag {
        for r in roots {
            self.dag.add_root(r);
        }
        self.dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cse_merges_identical_subexpressions() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 10, 10, 1.0);
        let y = b.read("Y", 10, 10, 1.0);
        let m1 = b.mult(x, y);
        let m2 = b.mult(x, y);
        assert_eq!(m1, m2, "identical ops must be hash-consed");
        let m3 = b.mult(y, x);
        assert_ne!(m1, m3, "operand order distinguishes nodes");
    }

    #[test]
    fn literal_interned_by_bits() {
        let mut b = DagBuilder::new();
        assert_eq!(b.lit(1.5), b.lit(1.5));
        assert_ne!(b.lit(1.5), b.lit(2.5));
    }

    #[test]
    fn sizes_propagate_through_mm_chain() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 100, 20, 1.0);
        let v = b.read("v", 20, 1, 1.0);
        let xv = b.mm(x, v);
        assert_eq!((b.size_of(xv).rows, b.size_of(xv).cols), (100, 1));
        let xt = b.t(x);
        let out = b.mm(xt, xv);
        assert_eq!((b.size_of(out).rows, b.size_of(out).cols), (20, 1));
    }

    #[test]
    fn agg_shapes() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 50, 7, 1.0);
        let rs = b.row_sums(x);
        let cs = b.col_sums(x);
        let fs = b.sum(x);
        assert_eq!((b.size_of(rs).rows, b.size_of(rs).cols), (50, 1));
        assert_eq!((b.size_of(cs).rows, b.size_of(cs).cols), (1, 7));
        assert_eq!((b.size_of(fs).rows, b.size_of(fs).cols), (1, 1));
    }

    #[test]
    fn rix_ranges() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 10, 8, 0.1);
        let s = b.rix(x, Some((0, 5)), Some((2, 8)));
        let sz = b.size_of(s);
        assert_eq!((sz.rows, sz.cols), (5, 6));
        assert_eq!(sz.sparsity, 0.1);
    }

    #[test]
    #[should_panic(expected = "matmult shape mismatch")]
    fn mm_shape_mismatch_panics() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 10, 8, 1.0);
        let y = b.read("Y", 10, 8, 1.0);
        b.mm(x, y);
    }

    #[test]
    #[should_panic(expected = "incompatible binary shapes")]
    fn binary_shape_mismatch_panics() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 10, 8, 1.0);
        let y = b.read("Y", 9, 8, 1.0);
        b.add(x, y);
    }

    #[test]
    fn sparsity_estimates_flow() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 1000, 1000, 0.01);
        let y = b.read("Y", 1000, 1000, 0.5);
        let m = b.mult(x, y);
        assert!((b.size_of(m).sparsity - 0.005).abs() < 1e-12);
        let e = b.exp(m);
        assert_eq!(b.size_of(e).sparsity, 1.0, "exp densifies");
    }

    #[test]
    fn scalar_broadcast_keeps_matrix_shape() {
        let mut b = DagBuilder::new();
        let x = b.read("X", 10, 10, 1.0);
        let c = b.lit(2.0);
        let y = b.mult(x, c);
        assert_eq!((b.size_of(y).rows, b.size_of(y).cols), (10, 10));
        let z = b.mult(c, x);
        assert_eq!((b.size_of(z).rows, b.size_of(z).cols), (10, 10));
    }
}
