//! Code generation plans (CPlans): the backend-independent representation of
//! fused operators (paper §2.2, Figure 3).
//!
//! A CPlan is a DAG of `CNode`s (basic operations) under a template node
//! with a specific data binding: a main input (iterated by the runtime
//! skeleton), materialized matrix side inputs, and scalar inputs. CPlans are
//! constructed by traversing the HOP DAG top-down along the fusion
//! references of the selected memo entries.

use crate::memo::MemoEntry;
use crate::spoof::block::row_invariant_load;
use crate::spoof::SideAccess;
use crate::templates::TemplateType;
use crate::util::{FxHashMap, FxHashSet};
use fusedml_hop::{HopDag, HopId, OpKind};
use fusedml_linalg::ops::{AggDir, AggOp, BinaryOp, TernaryOp, UnaryOp};

/// Index of a CNode within a CPlan arena.
pub type NodeId = u32;

/// A basic operation node of a CPlan.
#[derive(Clone, Debug, PartialEq)]
pub enum CNode {
    /// The main-input cell value `a` (Cell/MAgg/Outer).
    Main,
    /// The main-input row `X[rix, :]` (Row).
    MainRow,
    /// The Outer template's built-in `dot(U[rix,:], V[cix,:])`.
    UVDot,
    /// Scalar access into a matrix side input.
    Side { side: usize, access: SideAccess },
    /// Row slice `b[side][rix, cl..cu]` of a row-aligned side input
    /// (row 0 is broadcast when the side has a single row).
    SideRow { side: usize, cl: usize, cu: usize },
    /// A whole n×1 / 1×n side input viewed as a flat vector (e.g. `v` in
    /// `X %*% v`).
    SideVector { side: usize },
    /// A bound scalar input (non-literal 1×1 intermediate).
    ScalarInput { idx: usize },
    /// A literal.
    Const { value: f64 },
    /// Scalar or element-wise vector unary (class decided by input).
    Unary { op: UnaryOp, a: NodeId },
    /// Scalar or element-wise vector binary.
    Binary { op: BinaryOp, a: NodeId, b: NodeId },
    /// Scalar ternary.
    Ternary { op: TernaryOp, a: NodeId, b: NodeId, c: NodeId },
    /// `a %*% b[side]`: row vector × side matrix (`vectMatMult`).
    VectMatMult { a: NodeId, side: usize },
    /// `dot(a, b)` of two vectors.
    Dot { a: NodeId, b: NodeId },
    /// Vector aggregate to scalar (`vectSum` …).
    VecAgg { op: AggOp, a: NodeId },
}

/// Cell aggregation variants (paper Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CellAggKind {
    NoAgg,
    RowAgg(AggOp),
    ColAgg(AggOp),
    FullAgg(AggOp),
}

/// Row output variants (paper Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RowOutKind {
    /// Write the result vector to the output row (n×k).
    NoAgg { src: NodeId },
    /// Write the result scalar to the output row (n×1).
    RowAgg { src: NodeId },
    /// Accumulate the result vector column-wise (1×k).
    ColAgg { src: NodeId },
    /// Accumulate the result scalar (1×1).
    FullAgg { src: NodeId },
    /// Accumulate `left ⊗ right` (m×k, the `t(X) %*% D` pattern,
    /// `COL_AGG_B1_T` in Figure 3(c)).
    OuterColAgg { left: NodeId, right: NodeId },
    /// Accumulate `vec * scalar` column-wise (m×1, the `t(X) %*% q` pattern
    /// with a per-row scalar `q_r`): `out += vec * scalar` per row.
    ColAggMultAdd { vec: NodeId, scalar: NodeId },
}

/// Outer output variants (paper Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OuterOutKind {
    FullAgg,
    /// `out[i,:] += w * S[j,:]` with an m×r side `S` (right mm).
    RightMM {
        side: usize,
    },
    /// `out[j,:] += w * S[i,:]` with an n×r side `S` (left mm).
    LeftMM {
        side: usize,
    },
    NoAgg,
}

/// The output action of a CPlan (the template variant of Table 1).
#[derive(Clone, Debug, PartialEq)]
pub enum OutputSpec {
    Cell { result: NodeId, agg: CellAggKind },
    MAgg { results: Vec<(NodeId, AggOp)> },
    Row { out: RowOutKind },
    Outer { result: NodeId, out: OuterOutKind },
}

/// A constructed code-generation plan.
#[derive(Clone, Debug, PartialEq)]
pub struct CPlan {
    pub ttype: TemplateType,
    pub nodes: Vec<CNode>,
    pub output: OutputSpec,
    /// HOP of the main input (None ⇒ dense iteration without a driver).
    pub main: Option<HopId>,
    /// HOPs of the matrix side inputs, by side index.
    pub sides: Vec<HopId>,
    /// Geometry (rows, cols) of each side input, by side index.
    pub side_dims: Vec<(usize, usize)>,
    /// HOPs of bound scalar inputs, by scalar index.
    pub scalars: Vec<HopId>,
    /// Iteration geometry (rows × cols of the main/plane domain).
    pub iter_rows: usize,
    pub iter_cols: usize,
    /// Output geometry.
    pub out_rows: usize,
    pub out_cols: usize,
    /// Outer only: (u_side, v_side, rank).
    pub outer_uv: Option<(usize, usize, usize)>,
    /// The HOPs computed inside this operator (for DAG replacement).
    pub covered: Vec<HopId>,
}

impl CPlan {
    /// Structural identity for the plan cache: template type, node
    /// structure, and output spec — independent of HOP ids, so equivalent
    /// operators from different DAGs share one compiled class (paper §2.1:
    /// the plan cache "identifies equivalent CPlans via hashing").
    /// A Row side-row load also hashes its lanes and whether it reads the
    /// same lanes every row (a broadcast row, a whole vector): that bit is
    /// the only side geometry Row lowering sees, so equal keys lower to
    /// equal kernels while the raw side dims (mini-batch row counts) stay
    /// out of the key. The other side geometry codegen bakes into the spec
    /// is hashed too: a vector-matrix product's width (its side's column
    /// count, a register length) and the Outer UV binding with its rank.
    pub fn structural_hash(&self) -> u64 {
        let mut s = String::with_capacity(256);
        s.push_str(self.ttype.tag());
        for n in &self.nodes {
            s.push_str(&format!("{n:?};"));
            if let Some((side, cl, cu)) = self.side_row_lanes(n) {
                let invariant = row_invariant_load(&self.side_dims, side, cl, cu);
                s.push_str(&format!("{cl}..{cu}:{invariant};"));
            }
            if let CNode::VectMatMult { side, .. } = *n {
                s.push_str(&format!("x{};", self.side_dims[side].1));
            }
        }
        s.push_str(&format!(
            "|{:?}|{:?}|{}x{}",
            self.output, self.outer_uv, self.iter_cols, self.out_cols
        ));
        crate::util::fx_hash(&s)
    }

    /// The side and the lanes `cl..cu` a Row side-row node loads: a
    /// [`CNode::SideVector`] loads its whole n×1 / 1×n side.
    pub fn side_row_lanes(&self, n: &CNode) -> Option<(usize, usize, usize)> {
        match *n {
            CNode::SideRow { side, cl, cu } => Some((side, cl, cu)),
            CNode::SideVector { side } => {
                let (r, c) = self.side_dims[side];
                Some((side, 0, r.max(c)))
            }
            _ => None,
        }
    }

    /// True if the plan's scalar function is zero-preserving in the main
    /// input (`f(0, …) = 0`), enabling non-zero-only iteration.
    pub fn sparse_safe(&self) -> bool {
        if self.main.is_none() {
            return false;
        }
        match &self.output {
            OutputSpec::Cell { result, .. } => self.zero_preserving(*result),
            OutputSpec::MAgg { results } => results.iter().all(|(r, _)| self.zero_preserving(*r)),
            OutputSpec::Outer { result, .. } => self.zero_preserving(*result),
            OutputSpec::Row { .. } => false,
        }
    }

    /// Structural zero-propagation: is node `id` guaranteed zero when the
    /// main input value is zero?
    fn zero_preserving(&self, id: NodeId) -> bool {
        match &self.nodes[id as usize] {
            CNode::Main => true,
            CNode::Binary { op: BinaryOp::Mult | BinaryOp::And, a, b } => {
                self.zero_preserving(*a) || self.zero_preserving(*b)
            }
            CNode::Binary { op: BinaryOp::Div, a, .. } => self.zero_preserving(*a),
            // Comparisons of a zero-preserving value against literal zero:
            // (0 != 0) = 0, (0 > 0) = 0, (0 < 0) = 0.
            CNode::Binary { op: BinaryOp::Neq | BinaryOp::Gt | BinaryOp::Lt, a, b } => {
                self.zero_preserving(*a)
                    && matches!(self.nodes[*b as usize], CNode::Const { value } if value == 0.0)
            }
            CNode::Unary { op, a } => op.sparse_safe() && self.zero_preserving(*a),
            _ => false,
        }
    }

    /// Node count (used by compilation-overhead statistics).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }
}

/// A fused operator selected by candidate selection: the root HOP, the
/// template, and the chosen memo entry per covered HOP.
#[derive(Clone, Debug)]
pub struct OperatorPlan {
    pub root: HopId,
    pub ttype: TemplateType,
    pub entries: FxHashMap<HopId, MemoEntry>,
}

impl OperatorPlan {
    /// The covered HOP set.
    pub fn covered(&self) -> FxHashSet<HopId> {
        self.entries.keys().copied().collect()
    }
}

/// Errors during CPlan construction (callers fall back to unfused
/// execution of the affected operator).
#[derive(Clone, Debug, PartialEq)]
pub struct ConstructError(pub String);

impl std::fmt::Display for ConstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cplan construction failed: {}", self.0)
    }
}

/// Constructs the CPlan for a selected operator plan.
pub fn construct(dag: &HopDag, plan: &OperatorPlan) -> Result<CPlan, ConstructError> {
    match plan.ttype {
        TemplateType::Cell => CellBuilder::new(dag, plan).build(),
        TemplateType::Row => RowBuilder::new(dag, plan).build(),
        TemplateType::Outer => OuterBuilder::new(dag, plan).build(),
        TemplateType::MAgg => Err(ConstructError(
            "MAgg plans are assembled from Cell plans via construct_multi_agg".into(),
        )),
    }
}

/// Combines ≥2 full-aggregate Cell CPlans sharing a main input into one
/// MAgg CPlan (paper Table 1; §5.2 "Multi-Aggregate Operations").
pub fn construct_multi_agg(plans: &[CPlan]) -> Result<CPlan, ConstructError> {
    if plans.len() < 2 {
        return Err(ConstructError("MAgg needs at least two aggregates".into()));
    }
    let main = plans[0].main;
    let (ir, ic) = (plans[0].iter_rows, plans[0].iter_cols);
    if plans.iter().any(|p| {
        p.ttype != TemplateType::Cell
            || p.main != main
            || p.iter_rows != ir
            || p.iter_cols != ic
            || !matches!(p.output, OutputSpec::Cell { agg: CellAggKind::FullAgg(_), .. })
    }) {
        return Err(ConstructError(
            "MAgg requires full-agg Cell plans with a shared main input".into(),
        ));
    }
    let mut nodes: Vec<CNode> = Vec::new();
    let mut sides: Vec<HopId> = Vec::new();
    let mut scalars: Vec<HopId> = Vec::new();
    let mut results: Vec<(NodeId, AggOp)> = Vec::new();
    let mut covered: Vec<HopId> = Vec::new();
    for p in plans {
        let side_remap: Vec<usize> = p
            .sides
            .iter()
            .map(|&h| {
                sides.iter().position(|&s| s == h).unwrap_or_else(|| {
                    sides.push(h);
                    sides.len() - 1
                })
            })
            .collect();
        let scalar_remap: Vec<usize> = p
            .scalars
            .iter()
            .map(|&h| {
                scalars.iter().position(|&s| s == h).unwrap_or_else(|| {
                    scalars.push(h);
                    scalars.len() - 1
                })
            })
            .collect();
        let base = nodes.len() as NodeId;
        for n in &p.nodes {
            let mut n2 = n.clone();
            match &mut n2 {
                CNode::Side { side, .. }
                | CNode::SideRow { side, .. }
                | CNode::SideVector { side } => *side = side_remap[*side],
                CNode::ScalarInput { idx } => *idx = scalar_remap[*idx],
                CNode::Unary { a, .. } | CNode::VecAgg { a, .. } => *a += base,
                CNode::VectMatMult { a, side } => {
                    *a += base;
                    *side = side_remap[*side];
                }
                CNode::Binary { a, b, .. } | CNode::Dot { a, b } => {
                    *a += base;
                    *b += base;
                }
                CNode::Ternary { a, b, c, .. } => {
                    *a += base;
                    *b += base;
                    *c += base;
                }
                _ => {}
            }
            nodes.push(n2);
        }
        if let OutputSpec::Cell { result, agg: CellAggKind::FullAgg(op) } = p.output {
            results.push((result + base, op));
        }
        covered.extend(p.covered.iter().copied());
    }
    covered.sort_unstable();
    covered.dedup();
    let k = results.len();
    let side_dims: Vec<(usize, usize)> = {
        // Side geometries are recovered from the component plans.
        let mut dims = vec![(0usize, 0usize); sides.len()];
        for p in plans {
            for (i, &h) in p.sides.iter().enumerate() {
                let pos = sides.iter().position(|&s| s == h).expect("remapped side");
                dims[pos] = p.side_dims[i];
            }
        }
        dims
    };
    Ok(CPlan {
        ttype: TemplateType::MAgg,
        nodes,
        output: OutputSpec::MAgg { results },
        main,
        side_dims,
        sides,
        scalars,
        iter_rows: ir,
        iter_cols: ic,
        out_rows: 1,
        out_cols: k,
        outer_uv: None,
        covered,
    })
}

// ===========================================================================
// Shared builder machinery
// ===========================================================================

/// Looks up the (rows, cols) geometry of each side-input HOP.
fn side_dims_of(dag: &HopDag, sides: &[HopId]) -> Vec<(usize, usize)> {
    sides.iter().map(|&h| (dag.hop(h).size.rows, dag.hop(h).size.cols)).collect()
}

struct BuilderState<'a> {
    dag: &'a HopDag,
    plan: &'a OperatorPlan,
    nodes: Vec<CNode>,
    node_map: FxHashMap<HopId, NodeId>,
    sides: Vec<HopId>,
    scalars: Vec<HopId>,
}

impl<'a> BuilderState<'a> {
    fn new(dag: &'a HopDag, plan: &'a OperatorPlan) -> Self {
        BuilderState {
            dag,
            plan,
            nodes: Vec::new(),
            node_map: FxHashMap::default(),
            sides: Vec::new(),
            scalars: Vec::new(),
        }
    }

    fn push(&mut self, n: CNode) -> NodeId {
        // Local CSE on identical nodes.
        if let Some(pos) = self.nodes.iter().position(|x| *x == n) {
            return pos as NodeId;
        }
        self.nodes.push(n);
        (self.nodes.len() - 1) as NodeId
    }

    fn side_index(&mut self, h: HopId) -> usize {
        if let Some(pos) = self.sides.iter().position(|&s| s == h) {
            pos
        } else {
            self.sides.push(h);
            self.sides.len() - 1
        }
    }

    fn scalar_index(&mut self, h: HopId) -> usize {
        if let Some(pos) = self.scalars.iter().position(|&s| s == h) {
            pos
        } else {
            self.scalars.push(h);
            self.scalars.len() - 1
        }
    }

    /// Is `h` computed inside this operator?
    fn is_covered(&self, h: HopId) -> bool {
        self.plan.entries.contains_key(&h)
    }

    /// Does the chosen entry at `h` fuse input position `j`?
    fn fused_input(&self, h: HopId, j: usize) -> bool {
        self.plan.entries.get(&h).is_some_and(|e| e.inputs[j].is_fused())
    }
}

// ===========================================================================
// Cell template construction (paper Figure 3(b))
// ===========================================================================

struct CellBuilder<'a> {
    st: BuilderState<'a>,
    iter_rows: usize,
    iter_cols: usize,
}

impl<'a> CellBuilder<'a> {
    fn new(dag: &'a HopDag, plan: &'a OperatorPlan) -> Self {
        CellBuilder { st: BuilderState::new(dag, plan), iter_rows: 0, iter_cols: 0 }
    }

    fn build(mut self) -> Result<CPlan, ConstructError> {
        let dag = self.st.dag;
        let root = dag.hop(self.st.plan.root).clone();
        let (agg, fn_root) = match root.kind {
            OpKind::Agg { op, dir } => {
                let kind = match dir {
                    AggDir::Full => CellAggKind::FullAgg(op),
                    AggDir::Row => CellAggKind::RowAgg(op),
                    AggDir::Col => CellAggKind::ColAgg(op),
                };
                (kind, root.inputs[0])
            }
            _ => (CellAggKind::NoAgg, root.id),
        };
        let fr = dag.hop(fn_root);
        self.iter_rows = fr.size.rows;
        self.iter_cols = fr.size.cols;

        let main = self.select_main(fn_root);
        let result = self.translate(fn_root, main)?;
        let (out_rows, out_cols) = match agg {
            CellAggKind::NoAgg => (self.iter_rows, self.iter_cols),
            CellAggKind::RowAgg(_) => (self.iter_rows, 1),
            CellAggKind::ColAgg(_) => (1, self.iter_cols),
            CellAggKind::FullAgg(_) => (1, 1),
        };
        let mut covered: Vec<HopId> = self.st.plan.entries.keys().copied().collect();
        covered.sort_unstable();
        Ok(CPlan {
            ttype: TemplateType::Cell,
            nodes: self.st.nodes,
            output: OutputSpec::Cell { result, agg },
            main,
            side_dims: side_dims_of(dag, &self.st.sides),
            sides: self.st.sides,
            scalars: self.st.scalars,
            iter_rows: self.iter_rows,
            iter_cols: self.iter_cols,
            out_rows,
            out_cols,
            outer_uv: None,
            covered,
        })
    }

    /// Chooses the sparse driver: among non-covered inputs with the full
    /// iteration geometry, the one with minimal sparsity (paper §5.2:
    /// Gen "correctly selects X as sparse driver").
    fn select_main(&self, fn_root: HopId) -> Option<HopId> {
        let dag = self.st.dag;
        let mut best: Option<HopId> = None;
        let consider = |id: HopId, best: &mut Option<HopId>| {
            let ih = dag.hop(id);
            if ih.size.rows == self.iter_rows
                && ih.size.cols == self.iter_cols
                && !matches!(ih.kind, OpKind::Literal { .. })
            {
                let better =
                    best.is_none() || ih.size.sparsity < dag.hop(best.unwrap()).size.sparsity;
                if better {
                    *best = Some(id);
                }
            }
        };
        let mut stack = vec![fn_root];
        let mut seen = FxHashSet::default();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            if self.st.is_covered(id) {
                let h = dag.hop(id);
                for (j, &input) in h.inputs.iter().enumerate() {
                    if self.st.fused_input(id, j) && self.st.is_covered(input) {
                        stack.push(input);
                    } else {
                        consider(input, &mut best);
                    }
                }
            } else {
                consider(id, &mut best);
            }
        }
        best
    }

    fn translate(&mut self, id: HopId, main: Option<HopId>) -> Result<NodeId, ConstructError> {
        if let Some(&n) = self.st.node_map.get(&id) {
            return Ok(n);
        }
        let dag = self.st.dag;
        let h = dag.hop(id).clone();
        let node = if !self.st.is_covered(id) {
            self.input_node(id, main)?
        } else {
            match h.kind {
                OpKind::Unary { op } => {
                    let a = self.child(id, 0, main)?;
                    CNode::Unary { op, a }
                }
                OpKind::Binary { op } => {
                    let a = self.child(id, 0, main)?;
                    let b = self.child(id, 1, main)?;
                    CNode::Binary { op, a, b }
                }
                OpKind::Ternary { op } => {
                    let a = self.child(id, 0, main)?;
                    let b = self.child(id, 1, main)?;
                    let c = self.child(id, 2, main)?;
                    CNode::Ternary { op, a, b, c }
                }
                ref k => {
                    return Err(ConstructError(format!(
                        "unsupported covered op in Cell template: {k:?}"
                    )))
                }
            }
        };
        let n = self.st.push(node);
        self.st.node_map.insert(id, n);
        Ok(n)
    }

    fn child(&mut self, h: HopId, j: usize, main: Option<HopId>) -> Result<NodeId, ConstructError> {
        let input = self.st.dag.hop(h).inputs[j];
        if self.st.fused_input(h, j) && self.st.is_covered(input) {
            self.translate(input, main)
        } else {
            if let Some(&n) = self.st.node_map.get(&input) {
                return Ok(n);
            }
            let node = self.input_node(input, main)?;
            let n = self.st.push(node);
            self.st.node_map.insert(input, n);
            Ok(n)
        }
    }

    fn input_node(&mut self, id: HopId, main: Option<HopId>) -> Result<CNode, ConstructError> {
        let h = self.st.dag.hop(id).clone();
        if let OpKind::Literal { value } = h.kind {
            return Ok(CNode::Const { value });
        }
        if Some(id) == main {
            return Ok(CNode::Main);
        }
        let (r, c) = (h.size.rows, h.size.cols);
        if r == 1 && c == 1 {
            let idx = self.st.scalar_index(id);
            return Ok(CNode::ScalarInput { idx });
        }
        let access = if r == self.iter_rows && c == self.iter_cols {
            SideAccess::Cell
        } else if r == self.iter_rows && c == 1 {
            SideAccess::Col
        } else if r == 1 && c == self.iter_cols {
            SideAccess::Row
        } else {
            return Err(ConstructError(format!(
                "side input {id} of shape {r}x{c} incompatible with {}x{} Cell iteration",
                self.iter_rows, self.iter_cols
            )));
        };
        let side = self.st.side_index(id);
        Ok(CNode::Side { side, access })
    }
}

// ===========================================================================
// Outer template construction (paper Figure 3(a))
// ===========================================================================

struct OuterBuilder<'a> {
    st: BuilderState<'a>,
    iter_rows: usize,
    iter_cols: usize,
    opening: Option<HopId>,
}

impl<'a> OuterBuilder<'a> {
    fn new(dag: &'a HopDag, plan: &'a OperatorPlan) -> Self {
        OuterBuilder { st: BuilderState::new(dag, plan), iter_rows: 0, iter_cols: 0, opening: None }
    }

    fn build(mut self) -> Result<CPlan, ConstructError> {
        let dag = self.st.dag;
        // The opening outer product: a covered mm whose output IS the plane.
        let opening = self
            .st
            .plan
            .entries
            .keys()
            .copied()
            .filter(|&id| dag.hop(id).kind == OpKind::MatMult)
            .max_by_key(|&id| dag.hop(id).size.cells())
            .ok_or_else(|| ConstructError("no opening outer product found".into()))?;
        self.opening = Some(opening);
        let op_hop = dag.hop(opening).clone();
        self.iter_rows = op_hop.size.rows;
        self.iter_cols = op_hop.size.cols;
        let u = op_hop.inputs[0];
        let vt = op_hop.inputs[1];
        let v = match dag.hop(vt).kind {
            OpKind::Transpose => dag.hop(vt).inputs[0],
            _ => {
                return Err(ConstructError(
                    "outer product rhs must be an explicit transpose".into(),
                ))
            }
        };
        let rank = dag.hop(u).size.cols;
        let u_side = self.st.side_index(u);
        let v_side = self.st.side_index(v);

        let root = dag.hop(self.st.plan.root).clone();
        let main = self.select_main();
        let (result, out, out_rows, out_cols) = match root.kind {
            OpKind::Agg { op: AggOp::Sum, dir: AggDir::Full } => {
                let r = self.translate(root.inputs[0], main)?;
                (r, OuterOutKind::FullAgg, 1, 1)
            }
            OpKind::MatMult if root.id != opening => {
                let l = dag.hop(root.inputs[0]).clone();
                if l.kind == OpKind::Transpose && self.st.is_covered(l.id) {
                    // Left mm: t(plane) %*% S.
                    let plane = l.inputs[0];
                    let r = self.translate(plane, main)?;
                    let s = self.st.side_index(root.inputs[1]);
                    (r, OuterOutKind::LeftMM { side: s }, root.size.rows, root.size.cols)
                } else {
                    // Right mm: plane %*% S.
                    let r = self.translate(root.inputs[0], main)?;
                    let s = self.st.side_index(root.inputs[1]);
                    (r, OuterOutKind::RightMM { side: s }, root.size.rows, root.size.cols)
                }
            }
            _ => {
                let r = self.translate(root.id, main)?;
                (r, OuterOutKind::NoAgg, self.iter_rows, self.iter_cols)
            }
        };
        let mut covered: Vec<HopId> = self.st.plan.entries.keys().copied().collect();
        covered.sort_unstable();
        Ok(CPlan {
            ttype: TemplateType::Outer,
            nodes: self.st.nodes,
            output: OutputSpec::Outer { result, out },
            main,
            side_dims: side_dims_of(dag, &self.st.sides),
            sides: self.st.sides,
            scalars: self.st.scalars,
            iter_rows: self.iter_rows,
            iter_cols: self.iter_cols,
            out_rows,
            out_cols,
            outer_uv: Some((u_side, v_side, rank)),
            covered,
        })
    }

    /// The sparse driver: the sparsest non-covered n×m input of a covered
    /// cell-wise op in the plane chain.
    fn select_main(&self) -> Option<HopId> {
        let dag = self.st.dag;
        let mut best: Option<HopId> = None;
        for (&id, entry) in &self.st.plan.entries {
            let h = dag.hop(id);
            if !matches!(h.kind, OpKind::Binary { .. } | OpKind::Ternary { .. }) {
                continue;
            }
            for (j, &input) in h.inputs.iter().enumerate() {
                if entry.inputs[j].is_fused() && self.st.is_covered(input) {
                    continue;
                }
                let ih = dag.hop(input);
                if ih.size.rows == self.iter_rows && ih.size.cols == self.iter_cols {
                    let better =
                        best.is_none() || ih.size.sparsity < dag.hop(best.unwrap()).size.sparsity;
                    if better {
                        best = Some(input);
                    }
                }
            }
        }
        best
    }

    fn translate(&mut self, id: HopId, main: Option<HopId>) -> Result<NodeId, ConstructError> {
        if let Some(&n) = self.st.node_map.get(&id) {
            return Ok(n);
        }
        let dag = self.st.dag;
        let h = dag.hop(id).clone();
        let node = if Some(id) == self.opening {
            CNode::UVDot
        } else if !self.st.is_covered(id) {
            self.input_node(id, main)?
        } else {
            match h.kind {
                OpKind::Unary { op } => {
                    let a = self.child(id, 0, main)?;
                    CNode::Unary { op, a }
                }
                OpKind::Binary { op } => {
                    let a = self.child(id, 0, main)?;
                    let b = self.child(id, 1, main)?;
                    CNode::Binary { op, a, b }
                }
                OpKind::Transpose => {
                    // Pass-through marker on the plane (left-mm pattern).
                    return self.child(id, 0, main);
                }
                ref k => {
                    return Err(ConstructError(format!(
                        "unsupported covered op in Outer template: {k:?}"
                    )))
                }
            }
        };
        let n = self.st.push(node);
        self.st.node_map.insert(id, n);
        Ok(n)
    }

    fn child(&mut self, h: HopId, j: usize, main: Option<HopId>) -> Result<NodeId, ConstructError> {
        let input = self.st.dag.hop(h).inputs[j];
        if self.st.fused_input(h, j) && self.st.is_covered(input) {
            self.translate(input, main)
        } else {
            if let Some(&n) = self.st.node_map.get(&input) {
                return Ok(n);
            }
            let node = self.input_node(input, main)?;
            let n = self.st.push(node);
            self.st.node_map.insert(input, n);
            Ok(n)
        }
    }

    fn input_node(&mut self, id: HopId, main: Option<HopId>) -> Result<CNode, ConstructError> {
        let h = self.st.dag.hop(id).clone();
        if let OpKind::Literal { value } = h.kind {
            return Ok(CNode::Const { value });
        }
        if Some(id) == main {
            return Ok(CNode::Main);
        }
        let (r, c) = (h.size.rows, h.size.cols);
        if r == 1 && c == 1 {
            let idx = self.st.scalar_index(id);
            return Ok(CNode::ScalarInput { idx });
        }
        let access = if r == self.iter_rows && c == self.iter_cols {
            SideAccess::Cell
        } else if r == self.iter_rows && c == 1 {
            SideAccess::Col
        } else if r == 1 && c == self.iter_cols {
            SideAccess::Row
        } else {
            return Err(ConstructError(format!(
                "Outer side input {id} of shape {r}x{c} incompatible with plane"
            )));
        };
        let side = self.st.side_index(id);
        Ok(CNode::Side { side, access })
    }
}

// ===========================================================================
// Row template construction (paper Figure 3(c))
// ===========================================================================

/// Value class of a translated Row node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RClass {
    Scalar,
    Vector(usize),
}

struct RowBuilder<'a> {
    st: BuilderState<'a>,
    /// Row-iteration domain (rows of the main input).
    n: usize,
    classes: FxHashMap<NodeId, RClass>,
    main: Option<HopId>,
}

impl<'a> RowBuilder<'a> {
    fn new(dag: &'a HopDag, plan: &'a OperatorPlan) -> Self {
        RowBuilder {
            st: BuilderState::new(dag, plan),
            n: 0,
            classes: FxHashMap::default(),
            main: None,
        }
    }

    fn build(mut self) -> Result<CPlan, ConstructError> {
        let dag = self.st.dag;
        let root = dag.hop(self.st.plan.root).clone();
        self.n = match root.kind {
            OpKind::MatMult => {
                let l = dag.hop(root.inputs[0]);
                if l.kind == OpKind::Transpose {
                    dag.hop(root.inputs[1]).size.rows
                } else {
                    root.size.rows
                }
            }
            OpKind::Agg { .. } => dag.hop(root.inputs[0]).size.rows,
            _ => root.size.rows,
        };
        self.main = self.select_main();
        if self.main.is_none() {
            return Err(ConstructError(
                "Row template requires a row-major main input on the row domain".into(),
            ));
        }
        let (out, out_rows, out_cols) = match root.kind {
            OpKind::MatMult => {
                let l = dag.hop(root.inputs[0]).clone();
                if l.kind == OpKind::Transpose {
                    // t(X) %*% D → OuterColAgg(row(X), vec(D)); with a
                    // per-row scalar D (n×1) this degenerates to a
                    // vectMultAdd accumulation (t(X) %*% q).
                    let left = self.translate_transposed_left(l.id)?;
                    let right_raw = self.child(root.id, 1)?;
                    let out = match self.class(right_raw) {
                        RClass::Vector(_) => RowOutKind::OuterColAgg { left, right: right_raw },
                        RClass::Scalar => {
                            RowOutKind::ColAggMultAdd { vec: left, scalar: right_raw }
                        }
                    };
                    (out, root.size.rows, root.size.cols)
                } else {
                    let r = self.translate(root.id)?;
                    match self.class(r) {
                        RClass::Vector(_) => {
                            (RowOutKind::NoAgg { src: r }, root.size.rows, root.size.cols)
                        }
                        RClass::Scalar => (RowOutKind::RowAgg { src: r }, root.size.rows, 1),
                    }
                }
            }
            OpKind::Agg { op, dir } => {
                let inner = self.child(root.id, 0)?;
                match dir {
                    AggDir::Row => {
                        let s = self.scalarize_agg(inner, op)?;
                        (RowOutKind::RowAgg { src: s }, self.n, 1)
                    }
                    AggDir::Col => {
                        summed_over_rows(op)?;
                        let v = self.as_vector_node(inner)?;
                        let v = if op == AggOp::SumSq { self.square(v) } else { v };
                        (RowOutKind::ColAgg { src: v }, 1, root.size.cols)
                    }
                    AggDir::Full => {
                        summed_over_rows(op)?;
                        let s = self.scalarize_agg(inner, op)?;
                        (RowOutKind::FullAgg { src: s }, 1, 1)
                    }
                }
            }
            _ => {
                let r = self.translate(root.id)?;
                match self.class(r) {
                    RClass::Vector(k) => (RowOutKind::NoAgg { src: r }, self.n, k),
                    RClass::Scalar => (RowOutKind::RowAgg { src: r }, self.n, 1),
                }
            }
        };
        let mut covered: Vec<HopId> = self.st.plan.entries.keys().copied().collect();
        covered.sort_unstable();
        let iter_cols = self.main.map(|m| dag.hop(m).size.cols).unwrap_or(1);
        Ok(CPlan {
            ttype: TemplateType::Row,
            nodes: self.st.nodes,
            output: OutputSpec::Row { out },
            main: self.main,
            side_dims: side_dims_of(dag, &self.st.sides),
            sides: self.st.sides,
            scalars: self.st.scalars,
            iter_rows: self.n,
            iter_cols,
            out_rows,
            out_cols,
            outer_uv: None,
            covered,
        })
    }

    /// Main = the largest non-covered matrix input on the row domain
    /// (including through covered transposes).
    fn select_main(&self) -> Option<HopId> {
        let dag = self.st.dag;
        let mut best: Option<HopId> = None;
        let consider = |id: HopId, best: &mut Option<HopId>, rows: usize| {
            let ih = dag.hop(id);
            if ih.size.rows == rows
                && ih.size.cols > 1
                && !matches!(ih.kind, OpKind::Literal { .. })
            {
                let better =
                    best.is_none() || ih.size.cells() > dag.hop(best.unwrap()).size.cells();
                if better {
                    *best = Some(id);
                }
            }
        };
        for (&id, entry) in &self.st.plan.entries {
            let h = dag.hop(id);
            for (j, &input) in h.inputs.iter().enumerate() {
                if entry.inputs[j].is_fused() && self.st.is_covered(input) {
                    // Look through covered transposes for the X in t(X).
                    let ih = dag.hop(input);
                    if ih.kind == OpKind::Transpose {
                        let child = ih.inputs[0];
                        if !self.st.is_covered(child) {
                            consider(child, &mut best, self.n);
                        }
                    }
                    continue;
                }
                let ih = dag.hop(input);
                if ih.kind == OpKind::Transpose && !self.st.is_covered(input) {
                    consider(ih.inputs[0], &mut best, self.n);
                } else {
                    consider(input, &mut best, self.n);
                }
            }
        }
        best
    }

    fn class(&self, n: NodeId) -> RClass {
        self.classes.get(&n).copied().unwrap_or(RClass::Scalar)
    }

    fn set_class(&mut self, n: NodeId, c: RClass) {
        self.classes.insert(n, c);
    }

    /// `n²`, of `n`'s class.
    fn square(&mut self, n: NodeId) -> NodeId {
        let cls = self.class(n);
        let id = self.st.push(CNode::Unary { op: UnaryOp::Pow2, a: n });
        self.set_class(id, cls);
        id
    }

    fn as_vector_node(&mut self, n: NodeId) -> Result<NodeId, ConstructError> {
        match self.class(n) {
            RClass::Vector(_) => Ok(n),
            RClass::Scalar => Err(ConstructError("expected vector-class node".into())),
        }
    }

    /// The per-row scalar a row aggregate `op` gives: a vector reduces
    /// through `VecAgg`, and a per-row scalar is a one-element row, its own
    /// aggregate but under `SumSq`.
    fn scalarize_agg(&mut self, n: NodeId, op: AggOp) -> Result<NodeId, ConstructError> {
        match self.class(n) {
            RClass::Scalar if op == AggOp::SumSq => Ok(self.square(n)),
            RClass::Scalar => Ok(n),
            RClass::Vector(_) => {
                let id = self.st.push(CNode::VecAgg { op, a: n });
                self.set_class(id, RClass::Scalar);
                Ok(id)
            }
        }
    }

    /// Translates `t(X)` on the left of the closing mm as the per-row
    /// vector of `X` (`vrix` in Figure 3(c)).
    fn translate_transposed_left(&mut self, t: HopId) -> Result<NodeId, ConstructError> {
        let dag = self.st.dag;
        let child = dag.hop(t).inputs[0];
        if self.st.is_covered(t) && self.st.fused_input(t, 0) && self.st.is_covered(child) {
            let n = self.translate(child)?;
            self.as_vector_node(n)
        } else {
            let n = self.row_input_node(child)?;
            self.as_vector_node(n)
        }
    }

    fn translate(&mut self, id: HopId) -> Result<NodeId, ConstructError> {
        if let Some(&n) = self.st.node_map.get(&id) {
            return Ok(n);
        }
        let dag = self.st.dag;
        let h = dag.hop(id).clone();
        if !self.st.is_covered(id) {
            let n = self.row_input_node(id)?;
            self.st.node_map.insert(id, n);
            return Ok(n);
        }
        let n = match h.kind {
            OpKind::Unary { op } => {
                let a = self.child(id, 0)?;
                let node = self.st.push(CNode::Unary { op, a });
                let cls = self.class(a);
                self.set_class(node, cls);
                node
            }
            OpKind::Binary { op } => {
                let a = self.child(id, 0)?;
                let b = self.child(id, 1)?;
                self.binary_vs(op, a, b)?
            }
            OpKind::Ternary { op } => {
                let a = self.child(id, 0)?;
                let b = self.child(id, 1)?;
                let c = self.child(id, 2)?;
                if self.class(a) == RClass::Scalar
                    && self.class(b) == RClass::Scalar
                    && self.class(c) == RClass::Scalar
                {
                    let node = self.st.push(CNode::Ternary { op, a, b, c });
                    self.set_class(node, RClass::Scalar);
                    node
                } else {
                    match op {
                        TernaryOp::PlusMult | TernaryOp::MinusMult => {
                            let m = self.binary_vs(BinaryOp::Mult, b, c)?;
                            let bop = if op == TernaryOp::PlusMult {
                                BinaryOp::Add
                            } else {
                                BinaryOp::Sub
                            };
                            self.binary_vs(bop, a, m)?
                        }
                        TernaryOp::IfElse => {
                            return Err(ConstructError(
                                "vector ifelse unsupported in Row template".into(),
                            ))
                        }
                    }
                }
            }
            OpKind::MatMult => {
                let l = dag.hop(h.inputs[0]).clone();
                if l.kind == OpKind::Transpose {
                    return Err(ConstructError(
                        "inner t(X)%*%D must be the operator root in Row template".into(),
                    ));
                }
                let a = self.child(id, 0)?;
                let a = self.as_vector_node(a)?;
                let rhs = h.inputs[1];
                let rh = dag.hop(rhs);
                if self.st.is_covered(rhs) && self.st.fused_input(id, 1) {
                    return Err(ConstructError(
                        "covered matmult rhs unsupported in Row template".into(),
                    ));
                }
                if rh.size.cols == 1 {
                    let side = self.st.side_index(rhs);
                    let v = self.st.push(CNode::SideVector { side });
                    self.set_class(v, RClass::Vector(rh.size.rows));
                    let node = self.st.push(CNode::Dot { a, b: v });
                    self.set_class(node, RClass::Scalar);
                    node
                } else {
                    let side = self.st.side_index(rhs);
                    let node = self.st.push(CNode::VectMatMult { a, side });
                    self.set_class(node, RClass::Vector(rh.size.cols));
                    node
                }
            }
            OpKind::Agg { op, dir: AggDir::Row } => {
                let a = self.child(id, 0)?;
                self.scalarize_agg(a, op)?
            }
            OpKind::RightIndex { rows: _, cols } => {
                let input = h.inputs[0];
                let (cl, cu) = cols.unwrap_or((0, dag.hop(input).size.cols));
                if self.st.fused_input(id, 0) && self.st.is_covered(input) {
                    return Err(ConstructError(
                        "slicing covered intermediates unsupported in Row template".into(),
                    ));
                }
                let ih = dag.hop(input);
                if ih.size.rows != self.n && ih.size.rows != 1 {
                    return Err(ConstructError("rix input not row-aligned".into()));
                }
                let side = self.st.side_index(input);
                let node = self.st.push(CNode::SideRow { side, cl, cu });
                self.set_class(node, RClass::Vector(cu - cl));
                node
            }
            ref k => {
                return Err(ConstructError(format!(
                    "unsupported covered op in Row template: {k:?}"
                )))
            }
        };
        self.st.node_map.insert(id, n);
        Ok(n)
    }

    fn child(&mut self, h: HopId, j: usize) -> Result<NodeId, ConstructError> {
        let input = self.st.dag.hop(h).inputs[j];
        if self.st.fused_input(h, j) && self.st.is_covered(input) {
            self.translate(input)
        } else {
            if let Some(&n) = self.st.node_map.get(&input) {
                return Ok(n);
            }
            let n = self.row_input_node(input)?;
            self.st.node_map.insert(input, n);
            Ok(n)
        }
    }

    fn binary_vs(&mut self, op: BinaryOp, a: NodeId, b: NodeId) -> Result<NodeId, ConstructError> {
        let cls = match (self.class(a), self.class(b)) {
            (RClass::Vector(la), RClass::Vector(lb)) => {
                if la != lb {
                    return Err(ConstructError(format!(
                        "vector length mismatch {la} vs {lb} in Row binary"
                    )));
                }
                RClass::Vector(la)
            }
            (RClass::Vector(la), RClass::Scalar) => RClass::Vector(la),
            (RClass::Scalar, RClass::Vector(lb)) => RClass::Vector(lb),
            (RClass::Scalar, RClass::Scalar) => RClass::Scalar,
        };
        let n = self.st.push(CNode::Binary { op, a, b });
        self.set_class(n, cls);
        Ok(n)
    }

    /// Classifies a materialized input in the per-row view.
    fn row_input_node(&mut self, id: HopId) -> Result<NodeId, ConstructError> {
        let h = self.st.dag.hop(id).clone();
        if let OpKind::Literal { value } = h.kind {
            let n = self.st.push(CNode::Const { value });
            self.set_class(n, RClass::Scalar);
            return Ok(n);
        }
        if Some(id) == self.main {
            let cols = h.size.cols;
            let n = self.st.push(CNode::MainRow);
            self.set_class(n, RClass::Vector(cols));
            return Ok(n);
        }
        let (r, c) = (h.size.rows, h.size.cols);
        if r == 1 && c == 1 {
            let idx = self.st.scalar_index(id);
            let n = self.st.push(CNode::ScalarInput { idx });
            self.set_class(n, RClass::Scalar);
            return Ok(n);
        }
        if r == self.n && c == 1 {
            let side = self.st.side_index(id);
            let n = self.st.push(CNode::Side { side, access: SideAccess::Col });
            self.set_class(n, RClass::Scalar);
            return Ok(n);
        }
        if r == self.n || r == 1 {
            let side = self.st.side_index(id);
            let n = self.st.push(CNode::SideRow { side, cl: 0, cu: c });
            self.set_class(n, RClass::Vector(c));
            return Ok(n);
        }
        Err(ConstructError(format!(
            "Row side input {id} of shape {r}x{c} not row-alignable to n={}",
            self.n
        )))
    }
}

/// A column or full aggregate a Row operator computes must be a sum over
/// rows of per-row terms (`templates::sums_over_rows`, the rule the Row
/// template admits by).
fn summed_over_rows(op: AggOp) -> Result<(), ConstructError> {
    if crate::templates::sums_over_rows(op) {
        Ok(())
    } else {
        Err(ConstructError(format!("a {op:?} across rows is not a sum of per-row terms")))
    }
}
