//! Whole-program kernel monomorphization (DESIGN.md substitution X10,
//! "mono backend") — the Rust answer to the paper's fast-janino codegen.
//!
//! The tile evaluator in [`super::block`] pays one dispatch `match` per
//! *instruction* per tile. This module removes it for a bounded family of
//! *shape templates*: [`classify`] pattern-matches a lowered
//! [`BlockProgram`] body into a [`MonoKernel`], whose loops are
//! instantiated statically — one `#[inline]` loop instance per operator
//! combination, expanded via the same `with_unop!`/`with_binop!` dispatch
//! tables the tile evaluator uses — so an entire register program executes
//! as straight-line native code over the SIMD primitive layer with zero
//! per-instruction dispatch. It is the only kernel table: a result register
//! has a `MonoKernel` or runs the tile interpreter.
//!
//! The shape taxonomy (see DESIGN.md §4 X10):
//!
//! * [`MonoKernel::Product`] — multiply chains of up to four main-input and
//!   `Cell`/`Row` side-gather factors (`sum(X⊙Y⊙Z)`, `X⊙b`), summed by the
//!   fused `dot`/`dot3_sum`/`dot4_sum` reductions;
//! * [`MonoKernel::Map1`]/[`MonoKernel::Map2`]/[`MonoKernel::Map3`] —
//!   single unary/binary/ternary maps over non-tile leaves;
//! * [`MonoKernel::MulUnBin`] — `outer(a, un(inner(b, c)))` with
//!   `outer ∈ {Mult, Add}`, `inner ∈ {Add, Mult, Sub}` and all thirteen
//!   unary ops: the weighted-nonlinearity family that dominates the
//!   fig 8h Outer panel (`X ⊙ log(UVᵀ + eps)`) and sigmoid/exp cells;
//! * [`MonoKernel::Tree`] — a bounded DAG evaluator (≤ [`MAX_NODES`]
//!   nodes, ≤ [`MAX_DEPTH`] depth) that runs arbitrary remaining bodies
//!   in chunked stack buffers, one monomorphized loop per node.
//!
//! Programs that exceed the bounds fall back to the tile interpreter; the
//! chosen class is surfaced per operator through [`ShapeClass`] into
//! `ExecStats` and re-audited by `runtime::verify`.

use super::block::{
    bin_loop, fold_result, ter_loop, un_loop, with_binop, with_unop, BlockEval, BlockInstr,
    BlockProgram, Factors, OpRef, Opnd, TReg, TileCtx, ValSrc,
};
use super::Reg;
use fusedml_linalg::ops::{AggOp, BinaryOp, TernaryOp, UnaryOp};

/// Maximum nodes a [`MonoKernel::Tree`] may hold; larger bodies stay on
/// the tile interpreter (bounds keep the stack buffers at ~6 KB).
pub const MAX_NODES: usize = 12;
/// Maximum operand depth of a [`MonoKernel::Tree`].
pub const MAX_DEPTH: usize = 6;
/// Elements evaluated per tree chunk (fits `MAX_NODES` lanes in L1).
const CHUNK: usize = 64;

/// The shape class a compiled register executes under — reported through
/// `ExecStats` and re-audited by the plan verifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeClass {
    /// Multiply chain over main-input and side-gather factors
    /// ([`MonoKernel::Product`]).
    ProductChain,
    /// Row mv-chain (`RowShape::MvChain`): the tile body at an L1-sized
    /// tile height, a dot and an axpy per row.
    MvChain,
    /// Row tile body whose matrix-shaped work (a `VecMatMult`, an
    /// `OuterColAgg` output) runs in the register-blocked `simd::gemm`
    /// micro-kernel, a tile of rows per instruction dispatch.
    RowTile,
    /// Monomorphized single unary map.
    Map1,
    /// Monomorphized single binary map.
    Map2,
    /// Monomorphized single ternary map.
    Map3,
    /// Monomorphized `outer(a, un(inner(b, c)))` chain.
    MulUnBin,
    /// Monomorphized bounded-DAG chunk evaluator.
    TreeMap,
    /// Tile/scalar interpreter fallback.
    Interpreted,
}

impl ShapeClass {
    /// True when the class executes through a specialized (statically
    /// instantiated) kernel rather than the interpreter.
    #[inline]
    pub fn is_specialized(self) -> bool {
        !matches!(self, ShapeClass::Interpreted)
    }

    /// Stable lowercase label (stats output, bench reports).
    pub fn label(self) -> &'static str {
        match self {
            ShapeClass::ProductChain => "product_chain",
            ShapeClass::MvChain => "mv_chain",
            ShapeClass::RowTile => "row_tile",
            ShapeClass::Map1 => "map1",
            ShapeClass::Map2 => "map2",
            ShapeClass::Map3 => "map3",
            ShapeClass::MulUnBin => "mul_un_bin",
            ShapeClass::TreeMap => "tree_map",
            ShapeClass::Interpreted => "interpreted",
        }
    }
}

/// Operator of one [`Tree`](MonoKernel::Tree) node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeOp {
    Un(UnaryOp),
    Bin(BinaryOp),
    Ter(TernaryOp),
}

/// One operand of a tree node: a non-tile leaf or an earlier node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeArg {
    /// A non-`Tile` leaf operand (Main / Uv / Gather / Uniform).
    Leaf(Opnd),
    /// Index of an earlier node in the topo-ordered node list.
    Node(u8),
}

/// One node of the bounded DAG evaluator. Unused argument slots hold
/// `TreeArg::Leaf(Opnd::Uniform(0))` (the constant-zero slot).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeNode {
    pub op: TreeOp,
    pub args: [TreeArg; 3],
}

/// A whole register program compiled to one static kernel instance.
///
/// Leaves are always non-`Tile` [`Opnd`]s, resolved against the evaluator's
/// uniform file and the skeleton's tile context — a mono kernel never reads
/// or writes the tile register file.
#[derive(Clone, Debug, PartialEq)]
pub enum MonoKernel {
    /// `dst[i] = Π factors[i]`: the main input `mains` times and one factor
    /// per gather slot (an index into [`BlockProgram::gathers`]), one to
    /// four factors in all.
    Product { mains: u8, slots: Vec<u16> },
    /// `dst[i] = op(a[i])`.
    Map1 { op: UnaryOp, a: Opnd },
    /// `dst[i] = op(a[i], b[i])`.
    Map2 { op: BinaryOp, a: Opnd, b: Opnd },
    /// `dst[i] = op(a[i], b[i], c[i])`.
    Map3 { op: TernaryOp, a: Opnd, b: Opnd, c: Opnd },
    /// `dst[i] = outer(a[i], un(inner(b[i], c[i])))`.
    MulUnBin { outer: BinaryOp, a: Opnd, un: UnaryOp, inner: BinaryOp, b: Opnd, c: Opnd },
    /// Bounded-DAG chunk evaluator; the last node is the root.
    Tree { nodes: Vec<TreeNode> },
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// Outer operators admitted by the [`MonoKernel::MulUnBin`] template.
#[inline]
fn mul_un_bin_outer(op: BinaryOp) -> bool {
    matches!(op, BinaryOp::Mult | BinaryOp::Add)
}

/// Inner operators admitted by the [`MonoKernel::MulUnBin`] template.
#[inline]
fn mul_un_bin_inner(op: BinaryOp) -> bool {
    matches!(op, BinaryOp::Add | BinaryOp::Mult | BinaryOp::Sub)
}

/// Classifies the value of scalar register `r` of a lowered program into a
/// [`MonoKernel`], or `None` when the body does not fit any template
/// (interpreter fallback). Classification is purely structural and
/// deterministic — `runtime::verify` re-runs it to audit cached kernels.
pub fn classify(bp: &BlockProgram, r: Reg) -> Option<MonoKernel> {
    let ValSrc::Varying(root) = bp.src_of(r) else { return None };

    // Definition map over the body; bail on register reuse (reaching
    // definitions would be ambiguous — the compiler emits single-assignment
    // form, so this only trips on hand-built programs).
    let mut def: Vec<Option<usize>> = vec![None; bp.n_tiles as usize];
    for (i, ins) in bp.body.iter().enumerate() {
        let out = match *ins {
            BlockInstr::Unary { out, .. }
            | BlockInstr::Binary { out, .. }
            | BlockInstr::Ternary { out, .. } => out,
        };
        if def[out as usize].is_some() {
            return None;
        }
        def[out as usize] = Some(i);
    }

    // Multiply chains first: a two-factor chain is also a `Map2`, and only
    // the product kernel sums through the fused `dot` reductions.
    if let Some(product) = product_chain(root, bp, &def) {
        return Some(product);
    }
    let Opnd::Tile(t) = root else { return None };

    let mut nodes: Vec<TreeNode> = Vec::new();
    let mut memo: Vec<Option<u8>> = vec![None; bp.n_tiles as usize];
    let root_ix = build_node(t, 0, bp, &def, &mut nodes, &mut memo)?;
    debug_assert_eq!(root_ix as usize, nodes.len() - 1);

    // Single-node bodies collapse to the map templates.
    if nodes.len() == 1 {
        let n = nodes[0];
        return Some(match (n.op, n.args) {
            (TreeOp::Un(op), [TreeArg::Leaf(a), _, _]) => MonoKernel::Map1 { op, a },
            (TreeOp::Bin(op), [TreeArg::Leaf(a), TreeArg::Leaf(b), _]) => {
                MonoKernel::Map2 { op, a, b }
            }
            (TreeOp::Ter(op), [TreeArg::Leaf(a), TreeArg::Leaf(b), TreeArg::Leaf(c)]) => {
                MonoKernel::Map3 { op, a, b, c }
            }
            _ => unreachable!("single node has only leaf args"),
        });
    }

    // Three-node `outer(leaf, un(inner(leaf, leaf)))` chains collapse to the
    // MulUnBin template (commutative outers normalize the leaf to the left).
    if nodes.len() == 3 {
        if let TreeNode { op: TreeOp::Bin(outer), args: [x, y, _] } = nodes[2] {
            let leaf_node = match (x, y) {
                (TreeArg::Leaf(a), TreeArg::Node(n)) => Some((a, n)),
                (TreeArg::Node(n), TreeArg::Leaf(a)) if mul_un_bin_outer(outer) => Some((a, n)),
                _ => None,
            };
            if let Some((a, un_ix)) = leaf_node {
                if let TreeNode { op: TreeOp::Un(un), args: [TreeArg::Node(in_ix), _, _] } =
                    nodes[un_ix as usize]
                {
                    if let TreeNode {
                        op: TreeOp::Bin(inner),
                        args: [TreeArg::Leaf(b), TreeArg::Leaf(c), _],
                    } = nodes[in_ix as usize]
                    {
                        if mul_un_bin_outer(outer) && mul_un_bin_inner(inner) {
                            return Some(MonoKernel::MulUnBin { outer, a, un, inner, b, c });
                        }
                    }
                }
            }
        }
    }

    Some(MonoKernel::Tree { nodes })
}

/// The [`MonoKernel::Product`] for `root` when it is a pure multiply chain
/// over the main input and `Cell`/`Row` side gathers with at most four
/// factors (a register reused on the path counts once per use). Anything else
/// on the path — a uniform, the `Uv` tile, another operator — is not a
/// product chain. Factors are collected left operand first, so a chain the
/// compiler emitted main-first multiplies in the interpreter's order.
fn product_chain(root: Opnd, bp: &BlockProgram, def: &[Option<usize>]) -> Option<MonoKernel> {
    let (mut mains, mut slots) = (0u8, Vec::new());
    let mut stack = vec![root];
    while let Some(o) = stack.pop() {
        match o {
            Opnd::Main => mains += 1,
            Opnd::Gather(g) => slots.push(g),
            Opnd::Tile(t) => match bp.body[def[t as usize]?] {
                BlockInstr::Binary { op: BinaryOp::Mult, a, b, .. } => stack.extend([b, a]),
                _ => return None,
            },
            Opnd::Uv | Opnd::Uniform(_) => return None,
        }
        if mains as usize + slots.len() > 4 {
            return None;
        }
    }
    Some(MonoKernel::Product { mains, slots })
}

/// Recursively builds the topo-ordered node list for tile `t`. Memoized so
/// DAG-shaped reuse of an intermediate costs one node, not a subtree copy.
fn build_node(
    t: TReg,
    depth: usize,
    bp: &BlockProgram,
    def: &[Option<usize>],
    nodes: &mut Vec<TreeNode>,
    memo: &mut [Option<u8>],
) -> Option<u8> {
    if depth > MAX_DEPTH {
        return None;
    }
    if let Some(ix) = memo[t as usize] {
        return Some(ix);
    }
    let ins = bp.body[def[t as usize]?];
    let zero = TreeArg::Leaf(Opnd::Uniform(0));
    let arg = |o: Opnd, nodes: &mut Vec<TreeNode>, memo: &mut [Option<u8>]| match o {
        Opnd::Tile(u) => build_node(u, depth + 1, bp, def, nodes, memo).map(TreeArg::Node),
        leaf => Some(TreeArg::Leaf(leaf)),
    };
    let node = match ins {
        BlockInstr::Unary { op, a, .. } => {
            TreeNode { op: TreeOp::Un(op), args: [arg(a, nodes, memo)?, zero, zero] }
        }
        BlockInstr::Binary { op, a, b, .. } => TreeNode {
            op: TreeOp::Bin(op),
            args: [arg(a, nodes, memo)?, arg(b, nodes, memo)?, zero],
        },
        BlockInstr::Ternary { op, a, b, c, .. } => TreeNode {
            op: TreeOp::Ter(op),
            args: [arg(a, nodes, memo)?, arg(b, nodes, memo)?, arg(c, nodes, memo)?],
        },
    };
    if nodes.len() >= MAX_NODES {
        return None;
    }
    nodes.push(node);
    let ix = (nodes.len() - 1) as u8;
    memo[t as usize] = Some(ix);
    Some(ix)
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// A resolved operand with branch-free element access: slices index
/// `i & !0`, uniforms alias a one-element buffer through `i & 0`.
#[derive(Clone, Copy)]
struct ArgRef<'a> {
    s: &'a [f64],
    mask: usize,
}

impl<'a> ArgRef<'a> {
    #[inline(always)]
    fn at(&self, i: usize) -> f64 {
        // SAFETY-free: `i & mask` is either `i` (slice of length ≥ n) or 0.
        self.s[i & self.mask]
    }
}

/// Lowers an `OpRef` into an [`ArgRef`], spilling uniforms into `slot`.
#[inline(always)]
fn arg_ref<'a>(r: OpRef<'a>, slot: &'a mut [f64; 1]) -> ArgRef<'a> {
    match r {
        OpRef::S(s) => ArgRef { s, mask: usize::MAX },
        OpRef::C(c) => {
            slot[0] = c;
            ArgRef { s: &slot[..], mask: 0 }
        }
    }
}

impl MonoKernel {
    /// The shape class of this kernel (stats / verification).
    pub fn class(&self) -> ShapeClass {
        match self {
            MonoKernel::Product { .. } => ShapeClass::ProductChain,
            MonoKernel::Map1 { .. } => ShapeClass::Map1,
            MonoKernel::Map2 { .. } => ShapeClass::Map2,
            MonoKernel::Map3 { .. } => ShapeClass::Map3,
            MonoKernel::MulUnBin { .. } => ShapeClass::MulUnBin,
            MonoKernel::Tree { .. } => ShapeClass::TreeMap,
        }
    }

    /// Evaluates the kernel over `n` elements into `dst[..n]`, reading
    /// leaves through the evaluator's uniform file and the tile context.
    /// The tile register file is never touched.
    pub fn map_into(&self, ev: &BlockEval, ctx: &TileCtx<'_>, n: usize, dst: &mut [f64]) {
        let dst = &mut dst[..n];
        match *self {
            MonoKernel::Product { mains, ref slots } => {
                Factors::resolve(mains, slots, ev, ctx, n).product_into(dst)
            }
            MonoKernel::Map1 { op, a } => un_loop(op, ev.opnd(a, ctx, n), dst),
            MonoKernel::Map2 { op, a, b } => {
                bin_loop(op, ev.opnd(a, ctx, n), ev.opnd(b, ctx, n), dst)
            }
            MonoKernel::Map3 { op, a, b, c } => {
                ter_loop(op, ev.opnd(a, ctx, n), ev.opnd(b, ctx, n), ev.opnd(c, ctx, n), dst)
            }
            MonoKernel::MulUnBin { outer, a, un, inner, b, c } => {
                let (mut sa, mut sb, mut sc) = ([0.0], [0.0], [0.0]);
                let a = arg_ref(ev.opnd(a, ctx, n), &mut sa);
                let b = arg_ref(ev.opnd(b, ctx, n), &mut sb);
                let c = arg_ref(ev.opnd(c, ctx, n), &mut sc);
                mul_un_bin_loop(outer, un, inner, a, b, c, dst);
            }
            MonoKernel::Tree { ref nodes } => {
                eval_tree(nodes, ev, ctx, n, |base, vals| {
                    dst[base..base + vals.len()].copy_from_slice(vals)
                });
            }
        }
    }

    /// Fused map + reduce: folds the kernel's values over `n` elements into
    /// `acc` under `op` without materializing a tile. Reduction order is
    /// chunk-sequential with the same per-chunk primitives as the tile
    /// interpreter's `fold_result`, so backends agree within the documented
    /// FMA rounding policy (see `linalg::simd`).
    pub fn fold(&self, op: AggOp, acc: f64, ev: &BlockEval, ctx: &TileCtx<'_>, n: usize) -> f64 {
        let mut acc = acc;
        match *self {
            MonoKernel::Product { mains, ref slots } => {
                let f = Factors::resolve(mains, slots, ev, ctx, n);
                if matches!(op, AggOp::Sum | AggOp::Mean) {
                    acc += f.sum(n);
                } else {
                    let mut buf = [0.0f64; CHUNK];
                    for base in (0..n).step_by(CHUNK) {
                        let m = (n - base).min(CHUNK);
                        f.window(base, m).product_into(&mut buf[..m]);
                        acc = fold_result(op, acc, OpRef::S(&buf[..m]), m);
                    }
                }
            }
            MonoKernel::Tree { ref nodes } => {
                eval_tree(nodes, ev, ctx, n, |_, vals| {
                    acc = fold_result(op, acc, OpRef::S(vals), vals.len());
                });
            }
            _ => {
                // Map shapes: chunk through a stack buffer, fold per chunk.
                let mut buf = [0.0f64; CHUNK];
                let mut base = 0;
                while base < n {
                    let m = (n - base).min(CHUNK);
                    self.map_chunk(ev, ctx, n, base, &mut buf[..m]);
                    acc = fold_result(op, acc, OpRef::S(&buf[..m]), m);
                    base += m;
                }
            }
        }
        acc
    }

    /// Evaluates elements `[base, base+m)` of a map-shaped kernel into
    /// `out` (helper for [`Self::fold`]).
    fn map_chunk(&self, ev: &BlockEval, ctx: &TileCtx<'_>, n: usize, base: usize, out: &mut [f64]) {
        let m = out.len();
        fn window(r: OpRef<'_>, base: usize, m: usize) -> OpRef<'_> {
            match r {
                OpRef::S(s) => OpRef::S(&s[base..base + m]),
                c => c,
            }
        }
        match *self {
            MonoKernel::Map1 { op, a } => un_loop(op, window(ev.opnd(a, ctx, n), base, m), out),
            MonoKernel::Map2 { op, a, b } => bin_loop(
                op,
                window(ev.opnd(a, ctx, n), base, m),
                window(ev.opnd(b, ctx, n), base, m),
                out,
            ),
            MonoKernel::Map3 { op, a, b, c } => ter_loop(
                op,
                window(ev.opnd(a, ctx, n), base, m),
                window(ev.opnd(b, ctx, n), base, m),
                window(ev.opnd(c, ctx, n), base, m),
                out,
            ),
            MonoKernel::MulUnBin { outer, a, un, inner, b, c } => {
                let (mut sa, mut sb, mut sc) = ([0.0], [0.0], [0.0]);
                let a = arg_ref(window(ev.opnd(a, ctx, n), base, m), &mut sa);
                let b = arg_ref(window(ev.opnd(b, ctx, n), base, m), &mut sb);
                let c = arg_ref(window(ev.opnd(c, ctx, n), base, m), &mut sc);
                mul_un_bin_loop(outer, un, inner, a, b, c, out);
            }
            MonoKernel::Product { .. } | MonoKernel::Tree { .. } => {
                unreachable!("product and tree folds have their own arms")
            }
        }
    }
}

/// `dst[i] = outer(a[i], un(inner(b[i], c[i])))`, one static loop instance
/// per admitted `(outer, un, inner)` combination (2 × 13 × 3 = 78 loops).
/// The six `(outer, inner)` arms are spelled out because `macro_rules!`
/// definitions cannot nest; each arm expands the thirteen-way unary table.
fn mul_un_bin_loop(
    outer: BinaryOp,
    un: UnaryOp,
    inner: BinaryOp,
    a: ArgRef<'_>,
    b: ArgRef<'_>,
    c: ArgRef<'_>,
    dst: &mut [f64],
) {
    let n = dst.len();
    match (outer, inner) {
        (BinaryOp::Mult, BinaryOp::Add) => {
            macro_rules! go {
                ($k:expr) => {
                    for i in 0..n {
                        dst[i] = BinaryOp::Mult
                            .apply(a.at(i), $k.apply(BinaryOp::Add.apply(b.at(i), c.at(i))));
                    }
                };
            }
            with_unop!(un, go)
        }
        (BinaryOp::Mult, BinaryOp::Mult) => {
            macro_rules! go {
                ($k:expr) => {
                    for i in 0..n {
                        dst[i] = BinaryOp::Mult
                            .apply(a.at(i), $k.apply(BinaryOp::Mult.apply(b.at(i), c.at(i))));
                    }
                };
            }
            with_unop!(un, go)
        }
        (BinaryOp::Mult, BinaryOp::Sub) => {
            macro_rules! go {
                ($k:expr) => {
                    for i in 0..n {
                        dst[i] = BinaryOp::Mult
                            .apply(a.at(i), $k.apply(BinaryOp::Sub.apply(b.at(i), c.at(i))));
                    }
                };
            }
            with_unop!(un, go)
        }
        (BinaryOp::Add, BinaryOp::Add) => {
            macro_rules! go {
                ($k:expr) => {
                    for i in 0..n {
                        dst[i] = BinaryOp::Add
                            .apply(a.at(i), $k.apply(BinaryOp::Add.apply(b.at(i), c.at(i))));
                    }
                };
            }
            with_unop!(un, go)
        }
        (BinaryOp::Add, BinaryOp::Mult) => {
            macro_rules! go {
                ($k:expr) => {
                    for i in 0..n {
                        dst[i] = BinaryOp::Add
                            .apply(a.at(i), $k.apply(BinaryOp::Mult.apply(b.at(i), c.at(i))));
                    }
                };
            }
            with_unop!(un, go)
        }
        (BinaryOp::Add, BinaryOp::Sub) => {
            macro_rules! go {
                ($k:expr) => {
                    for i in 0..n {
                        dst[i] = BinaryOp::Add
                            .apply(a.at(i), $k.apply(BinaryOp::Sub.apply(b.at(i), c.at(i))));
                    }
                };
            }
            with_unop!(un, go)
        }
        _ => unreachable!("classify admits Mult/Add outers and Add/Mult/Sub inners"),
    }
}

/// Streams the bounded DAG over `n` elements in [`CHUNK`]-sized stack
/// buffers, invoking `emit(base, values)` with the root's values per chunk.
fn eval_tree(
    nodes: &[TreeNode],
    ev: &BlockEval,
    ctx: &TileCtx<'_>,
    n: usize,
    mut emit: impl FnMut(usize, &[f64]),
) {
    debug_assert!(!nodes.is_empty() && nodes.len() <= MAX_NODES);
    // Resolve every leaf once per tile; uniforms spill into a flat buffer.
    let mut leaf_refs: [OpRef<'_>; MAX_NODES * 3] = [OpRef::C(0.0); MAX_NODES * 3];
    let mut cbuf = [0.0f64; MAX_NODES * 3];
    for (ni, node) in nodes.iter().enumerate() {
        for (ai, arg) in node.args.iter().enumerate() {
            if let TreeArg::Leaf(o) = *arg {
                leaf_refs[ni * 3 + ai] = ev.opnd(o, ctx, n);
                if let OpRef::C(c) = leaf_refs[ni * 3 + ai] {
                    cbuf[ni * 3 + ai] = c;
                }
            }
        }
    }
    let mut bufs = [[0.0f64; CHUNK]; MAX_NODES];
    let mut base = 0;
    while base < n {
        let m = (n - base).min(CHUNK);
        for (ni, node) in nodes.iter().enumerate() {
            let (done, rest) = bufs.split_at_mut(ni);
            let done: &[[f64; CHUNK]] = done;
            let out = &mut rest[0][..m];
            let arg = |ai: usize| -> ArgRef<'_> {
                match node.args[ai] {
                    TreeArg::Node(j) => ArgRef { s: &done[j as usize][..m], mask: usize::MAX },
                    TreeArg::Leaf(_) => match leaf_refs[ni * 3 + ai] {
                        OpRef::S(s) => ArgRef { s: &s[base..base + m], mask: usize::MAX },
                        OpRef::C(_) => ArgRef { s: &cbuf[ni * 3 + ai..ni * 3 + ai + 1], mask: 0 },
                    },
                }
            };
            match node.op {
                TreeOp::Un(op) => {
                    let a = arg(0);
                    macro_rules! go {
                        ($k:expr) => {
                            for i in 0..m {
                                out[i] = $k.apply(a.at(i));
                            }
                        };
                    }
                    with_unop!(op, go)
                }
                TreeOp::Bin(op) => {
                    let (a, b) = (arg(0), arg(1));
                    macro_rules! go {
                        ($k:expr) => {
                            for i in 0..m {
                                out[i] = $k.apply(a.at(i), b.at(i));
                            }
                        };
                    }
                    with_binop!(op, go)
                }
                TreeOp::Ter(op) => {
                    let (a, b, c) = (arg(0), arg(1), arg(2));
                    for (i, o) in out[..m].iter_mut().enumerate() {
                        *o = op.apply(a.at(i), b.at(i), c.at(i));
                    }
                }
            }
        }
        emit(base, &bufs[nodes.len() - 1][..m]);
        base += m;
    }
}

#[cfg(test)]
mod tests {
    use super::super::block::{compile_kernel, lower, BlockEval, TileCtx, TileSrc};
    use super::super::{eval_scalar_program, Instr, Program, SideAccess};
    use super::*;

    fn no_sides(_: usize, _: SideAccess) -> f64 {
        0.0
    }

    /// Runs register `r` of `prog` through the mono kernel over `main` and
    /// compares against the scalar interpreter.
    fn check_against_scalar(prog: &Program, r: Reg, main: &[f64], uv: &[f64]) {
        let k = compile_kernel(prog);
        let m = k.mono_for(r).expect("expected a mono kernel");
        let bp = &k.block;
        let mut ev = BlockEval::new(bp, main.len().max(8));
        ev.set_invariants(bp, &no_sides, &[]);
        let ctx = TileCtx {
            main: TileSrc::Slice(main),
            uv: if uv.is_empty() { TileSrc::Const(0.0) } else { TileSrc::Slice(uv) },
            gathers: &[],
        };
        let mut out = vec![0.0; main.len()];
        m.map_into(&ev, &ctx, main.len(), &mut out);
        let mut regs = vec![0.0; prog.n_regs as usize];
        for i in 0..main.len() {
            let uvv = uv.get(i).copied().unwrap_or(0.0);
            eval_scalar_program(prog, &mut regs, main[i], uvv, &no_sides, &[]);
            assert_eq!(out[i].to_bits(), regs[r as usize].to_bits(), "element {i}");
        }
    }

    #[test]
    fn classifies_fig8h_shape_as_mul_un_bin() {
        // r = main * log(uv + eps) — the fig 8h Outer body.
        let prog = Program {
            instrs: vec![
                Instr::LoadMain { out: 0 },
                Instr::LoadUVDot { out: 1 },
                Instr::LoadConst { out: 2, value: 1e-15 },
                Instr::Binary { out: 3, op: BinaryOp::Add, a: 1, b: 2 },
                Instr::Unary { out: 4, op: UnaryOp::Log, a: 3 },
                Instr::Binary { out: 5, op: BinaryOp::Mult, a: 0, b: 4 },
            ],
            n_regs: 6,
            vreg_lens: vec![],
        };
        let k = compile_kernel(&prog);
        match k.mono_for(5) {
            Some(MonoKernel::MulUnBin { outer, un, inner, .. }) => {
                assert_eq!(*outer, BinaryOp::Mult);
                assert_eq!(*un, UnaryOp::Log);
                assert_eq!(*inner, BinaryOp::Add);
            }
            other => panic!("expected MulUnBin, got {other:?}"),
        }
        assert_eq!(k.shape_class(5), ShapeClass::MulUnBin);
        let main: Vec<f64> = (0..37).map(|i| (i % 5) as f64).collect();
        let uv: Vec<f64> = (0..37).map(|i| 0.25 + i as f64).collect();
        check_against_scalar(&prog, 5, &main, &uv);
    }

    #[test]
    fn classifies_single_unary_as_map1() {
        let prog = Program {
            instrs: vec![
                Instr::LoadMain { out: 0 },
                Instr::Unary { out: 1, op: UnaryOp::Sigmoid, a: 0 },
            ],
            n_regs: 2,
            vreg_lens: vec![],
        };
        let k = compile_kernel(&prog);
        assert!(matches!(k.mono_for(1), Some(MonoKernel::Map1 { op: UnaryOp::Sigmoid, .. })));
        let main: Vec<f64> = (0..13).map(|i| i as f64 - 6.0).collect();
        check_against_scalar(&prog, 1, &main, &[]);
    }

    #[test]
    fn deep_bodies_fall_into_tree_and_match_scalar() {
        // r = sigmoid((main - 3) * main) + abs(main): DAG with main reused.
        let prog = Program {
            instrs: vec![
                Instr::LoadMain { out: 0 },
                Instr::LoadConst { out: 1, value: 3.0 },
                Instr::Binary { out: 2, op: BinaryOp::Sub, a: 0, b: 1 },
                Instr::Binary { out: 3, op: BinaryOp::Mult, a: 2, b: 0 },
                Instr::Unary { out: 4, op: UnaryOp::Sigmoid, a: 3 },
                Instr::Unary { out: 5, op: UnaryOp::Abs, a: 0 },
                Instr::Binary { out: 6, op: BinaryOp::Add, a: 4, b: 5 },
            ],
            n_regs: 7,
            vreg_lens: vec![],
        };
        let k = compile_kernel(&prog);
        assert!(matches!(k.mono_for(6), Some(MonoKernel::Tree { .. })));
        assert_eq!(k.shape_class(6), ShapeClass::TreeMap);
        // Cross a chunk boundary to exercise the streaming path.
        let main: Vec<f64> = (0..150).map(|i| (i as f64) * 0.31 - 20.0).collect();
        check_against_scalar(&prog, 6, &main, &[]);
    }

    #[test]
    fn fold_matches_map_then_fold() {
        let prog = Program {
            instrs: vec![
                Instr::LoadMain { out: 0 },
                Instr::Unary { out: 1, op: UnaryOp::Exp, a: 0 },
            ],
            n_regs: 2,
            vreg_lens: vec![],
        };
        let k = compile_kernel(&prog);
        let m = k.mono_for(1).unwrap();
        let bp = &k.block;
        let main: Vec<f64> = (0..200).map(|i| (i as f64) * 0.01 - 1.0).collect();
        let mut ev = BlockEval::new(bp, main.len());
        ev.set_invariants(bp, &no_sides, &[]);
        let ctx = TileCtx { main: TileSrc::Slice(&main), uv: TileSrc::Const(0.0), gathers: &[] };
        let mut out = vec![0.0; main.len()];
        m.map_into(&ev, &ctx, main.len(), &mut out);
        let expect = fold_result(AggOp::Sum, 0.0, OpRef::S(&out), out.len());
        let got = m.fold(AggOp::Sum, 0.0, &ev, &ctx, main.len());
        // Reduction-class kernel: chunk association differs from the
        // whole-tile fold, so agreement is within the documented policy
        // (`linalg::simd`: ≤ 1e-12 relative), not bitwise.
        assert!((got - expect).abs() <= 1e-12 * expect.abs().max(1.0), "{got} vs {expect}");
    }

    #[test]
    fn oversized_bodies_stay_on_the_interpreter() {
        // A 13-op unary chain exceeds MAX_NODES.
        let mut instrs = vec![Instr::LoadMain { out: 0 }];
        for i in 0..13u16 {
            instrs.push(Instr::Unary { out: i + 1, op: UnaryOp::Abs, a: i });
        }
        let prog = Program { n_regs: 14, instrs, vreg_lens: vec![] };
        let bp = lower(&prog);
        assert!(classify(&bp, 13).is_none());
        let k = compile_kernel(&prog);
        assert_eq!(k.shape_class(13), ShapeClass::Interpreted);
    }
}
