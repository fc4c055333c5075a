//! The fused-operator IR: register programs executed by the runtime's
//! template skeletons.
//!
//! The paper generates Java source per fused operator and JIT-compiles it
//! with janino. We keep the identical pipeline shape but compile CPlans into
//! flat register programs whose instructions call the same vector-primitive
//! library (`fusedml_linalg::primitives`) the generated Java calls
//! (DESIGN.md substitution X1). Cell/MAgg/Outer programs execute through
//! the tile-vectorized [`block`] backend (dispatch amortized over whole
//! tiles; multiply chains run the fused product loops of [`mono`]); the
//! per-cell scalar interpreter below is retained as the differential-test
//! oracle.
//! Row programs lower to a band-level [`block::RowKernel`] — invariant
//! work hoisted out of the per-row loop, sparse rows consumed over their
//! non-zeros, the `Xᵀ(Xv)` mv-chain shape recognized — executed by the
//! skeleton that owns data access, multi-threading and aggregation.

use fusedml_linalg::ops::{AggOp, BinaryOp, TernaryOp, UnaryOp};

pub mod block;
pub mod mono;

/// Scalar register index.
pub type Reg = u16;
/// Vector register index.
pub type VReg = u16;

/// How a scalar side-input value is addressed from the current (row, col)
/// position — `getValue(b[i], …)` in the paper's generated code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SideAccess {
    /// `b[i].get(rix, cix)` — matrix aligned with the main input.
    Cell,
    /// `b[i].get(rix, 0)` — column vector.
    Col,
    /// `b[i].get(0, cix)` — row vector.
    Row,
    /// `b[i].get(0, 0)` — 1×1.
    Scalar,
}

/// One instruction of a fused-operator register program.
///
/// Scalar instructions serve the Cell/MAgg/Outer templates; vector
/// instructions additionally serve the Row template. Vector registers hold
/// row-length intermediates managed in a per-thread ring buffer by the
/// skeleton (paper §2.2: "memory for row intermediates is managed via a
/// preallocated ring buffer per thread").
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `out = a` — the current main-input cell value (Cell/MAgg/Outer).
    LoadMain { out: Reg },
    /// `out = dot(U[rix,:], V[cix,:])` — Outer template's built-in
    /// outer-product cell value (`dotProduct(a1, a2, …)` in Figure 3(a)).
    LoadUVDot { out: Reg },
    /// `out = getValue(b[side], access)` at the current position.
    LoadSide { out: Reg, side: usize, access: SideAccess },
    /// `out = scalars[idx]` (bound scalar inputs).
    LoadScalar { out: Reg, idx: usize },
    /// `out = const`.
    LoadConst { out: Reg, value: f64 },
    /// Scalar unary.
    Unary { out: Reg, op: UnaryOp, a: Reg },
    /// Scalar binary.
    Binary { out: Reg, op: BinaryOp, a: Reg, b: Reg },
    /// Scalar ternary.
    Ternary { out: Reg, op: TernaryOp, a: Reg, b: Reg, c: Reg },

    // ---- vector instructions (Row template) -----------------------------
    /// `vout = X[rix, :]` — the main row (densified for sparse inputs).
    LoadMainRow { out: VReg },
    /// `vout = b[side][rix, cl..cu]` — a (sliced) row of a row-aligned side
    /// input; `cl..cu` supports fused column indexing (`rix` ops).
    LoadSideRow { out: VReg, side: usize, cl: usize, cu: usize },
    /// Element-wise vector unary.
    VecUnary { out: VReg, op: UnaryOp, a: VReg },
    /// Element-wise vector-vector binary.
    VecBinaryVV { out: VReg, op: BinaryOp, a: VReg, b: VReg },
    /// Vector-scalar binary (`scalar_left` puts the scalar on the lhs).
    VecBinaryVS { out: VReg, op: BinaryOp, a: VReg, b: Reg, scalar_left: bool },
    /// `vout = a %*% b[side]` — row vector (len m) times side matrix (m×k);
    /// `vectMatrixMult` in the paper's primitive library.
    VecMatMult { out: VReg, a: VReg, side: usize },
    /// `out = dot(a, b)`.
    Dot { out: Reg, a: VReg, b: VReg },
    /// `out = agg(a)` — vector aggregate to scalar (`vectSum` etc.).
    VecAgg { out: Reg, op: AggOp, a: VReg },
    /// `vout = cumsum(a)` (row-wise cumulative sum).
    VecCumsum { out: VReg, a: VReg },
}

/// Aggregation behaviour of a Cell operator (paper Table 1, Cell variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellAgg {
    /// `out[r,c] = f(a)` — dense (or sparse-safe sparse) output.
    NoAgg,
    /// `out[r] += f(a)` — row aggregation.
    RowAgg(AggOp),
    /// `out[c] += f(a)` — column aggregation.
    ColAgg(AggOp),
    /// scalar `out += f(a)`.
    FullAgg(AggOp),
}

/// Output behaviour of a Row operator (paper Table 1, Row variants).
#[derive(Clone, Debug, PartialEq)]
pub enum RowOut {
    /// `out[r, :] = v` — no aggregation, n×k output.
    NoAgg { src: VReg },
    /// `out[r] = s` — row aggregation, n×1 output.
    RowAgg { src: Reg },
    /// `out += v` — column aggregation, 1×k output.
    ColAgg { src: VReg },
    /// `out += s` — full aggregation, 1×1 output.
    FullAgg { src: Reg },
    /// `out += a ⊗ b` — column aggregation over an outer product
    /// (`COL_AGG_B1_T` in Figure 3(c)): m×k output from row vectors of
    /// lengths m and k.
    OuterColAgg { left: VReg, right: VReg },
    /// `out += v * s` — column aggregation of a scaled row vector
    /// (the matrix-vector `t(X) %*% q` pattern, `vectMultAdd`).
    ColAggMultAdd { vec: VReg, scalar: Reg },
}

/// Output behaviour of an Outer operator (paper Table 1, Outer variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OuterOut {
    /// `out += w` — full aggregation.
    FullAgg,
    /// `out[i, :] += w * S[j, :]` — right matrix multiply `W %*% S`
    /// (`OutProdType.RIGHT`); `side` is the m×r factor.
    RightMM { side: usize },
    /// `out[j, :] += w * S[i, :]` — left matrix multiply `t(W) %*% S`;
    /// `side` is the n×r factor.
    LeftMM { side: usize },
    /// `out[i, j] = w` — no aggregation (sparse output).
    NoAgg,
}

/// A compiled scalar/vector register program with static register geometry.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// Instructions in execution order (already topologically sorted).
    pub instrs: Vec<Instr>,
    /// Number of scalar registers.
    pub n_regs: u16,
    /// Per-vector-register lengths (indexed by `VReg`).
    pub vreg_lens: Vec<usize>,
}

/// Specification of a compiled Cell-template operator.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    pub prog: Program,
    /// The register holding the per-cell result.
    pub result: Reg,
    pub agg: CellAgg,
    /// True if `f(0, …) == 0`, so the skeleton may iterate non-zeros only.
    pub sparse_safe: bool,
}

/// Specification of a compiled MultiAgg-template operator: `k` scalar
/// programs sharing the main input, each with a full aggregate.
#[derive(Clone, Debug, PartialEq)]
pub struct MAggSpec {
    pub prog: Program,
    /// Result register and aggregation function per aggregate output.
    pub results: Vec<(Reg, AggOp)>,
    pub sparse_safe: bool,
}

/// Specification of a compiled Row-template operator.
#[derive(Clone, Debug, PartialEq)]
pub struct RowSpec {
    pub prog: Program,
    pub out: RowOut,
}

/// Specification of a compiled Outer-template operator.
#[derive(Clone, Debug, PartialEq)]
pub struct OuterSpec {
    pub prog: Program,
    /// Register holding the per-cell value `w_ij`.
    pub result: Reg,
    pub out: OuterOut,
    /// Side-input indices of the U (n×r) and V (m×r) factors.
    pub u_side: usize,
    pub v_side: usize,
    /// Rank of the factorization (`ncol(U)`).
    pub rank: usize,
    /// True if the program is zero-preserving in the main input, enabling
    /// non-zero-only iteration — the template's raison d'être.
    pub sparse_safe: bool,
}

/// A compiled fused operator of any template type.
#[derive(Clone, Debug, PartialEq)]
pub enum FusedSpec {
    Cell(CellSpec),
    MAgg(MAggSpec),
    Row(RowSpec),
    Outer(OuterSpec),
}

impl FusedSpec {
    /// The template kind name (for stats and explain output).
    pub fn template_name(&self) -> &'static str {
        match self {
            FusedSpec::Cell(_) => "Cell",
            FusedSpec::MAgg(_) => "MAgg",
            FusedSpec::Row(_) => "Row",
            FusedSpec::Outer(_) => "Outer",
        }
    }

    /// The underlying program (MAgg shares one program).
    pub fn program(&self) -> &Program {
        match self {
            FusedSpec::Cell(c) => &c.prog,
            FusedSpec::MAgg(m) => &m.prog,
            FusedSpec::Row(r) => &r.prog,
            FusedSpec::Outer(o) => &o.prog,
        }
    }
}

/// Evaluates the scalar subset of a program for one (rix, cix) position.
///
/// `main` is the current main-input value, `uv_dot` the Outer template's
/// precomputed dot product, `side_at` resolves side accesses, `scalars` the
/// bound scalar inputs. Vector instructions panic — the Row skeleton uses
/// the runtime Row skeleton's vector interpreter instead. This evaluator is shared by the runtime
/// skeletons and by codegen's sparse-safety probing.
#[allow(clippy::too_many_arguments)]
pub fn eval_scalar_program(
    prog: &Program,
    regs: &mut [f64],
    main: f64,
    uv_dot: f64,
    side_at: &dyn Fn(usize, SideAccess) -> f64,
    scalars: &[f64],
) {
    for ins in &prog.instrs {
        match *ins {
            Instr::LoadMain { out } => regs[out as usize] = main,
            Instr::LoadUVDot { out } => regs[out as usize] = uv_dot,
            Instr::LoadSide { out, side, access } => regs[out as usize] = side_at(side, access),
            Instr::LoadScalar { out, idx } => regs[out as usize] = scalars[idx],
            Instr::LoadConst { out, value } => regs[out as usize] = value,
            Instr::Unary { out, op, a } => regs[out as usize] = op.apply(regs[a as usize]),
            Instr::Binary { out, op, a, b } => {
                regs[out as usize] = op.apply(regs[a as usize], regs[b as usize])
            }
            Instr::Ternary { out, op, a, b, c } => {
                regs[out as usize] = op.apply(regs[a as usize], regs[b as usize], regs[c as usize])
            }
            _ => panic!("vector instruction in scalar program: {ins:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_sides(_: usize, _: SideAccess) -> f64 {
        0.0
    }

    #[test]
    fn scalar_program_evaluates() {
        // f(a) = (a != 0) * 2 + 1
        let prog = Program {
            instrs: vec![
                Instr::LoadMain { out: 0 },
                Instr::LoadConst { out: 1, value: 0.0 },
                Instr::Binary { out: 2, op: BinaryOp::Neq, a: 0, b: 1 },
                Instr::LoadConst { out: 3, value: 2.0 },
                Instr::Binary { out: 4, op: BinaryOp::Mult, a: 2, b: 3 },
                Instr::LoadConst { out: 5, value: 1.0 },
                Instr::Binary { out: 6, op: BinaryOp::Add, a: 4, b: 5 },
            ],
            n_regs: 7,
            vreg_lens: vec![],
        };
        let mut regs = vec![0.0; 7];
        eval_scalar_program(&prog, &mut regs, 5.0, 0.0, &no_sides, &[]);
        assert_eq!(regs[6], 3.0);
        eval_scalar_program(&prog, &mut regs, 0.0, 0.0, &no_sides, &[]);
        assert_eq!(regs[6], 1.0);
    }

    #[test]
    fn side_and_scalar_loads() {
        let prog = Program {
            instrs: vec![
                Instr::LoadSide { out: 0, side: 1, access: SideAccess::Col },
                Instr::LoadScalar { out: 1, idx: 0 },
                Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
            ],
            n_regs: 3,
            vreg_lens: vec![],
        };
        let mut regs = vec![0.0; 3];
        let side = |i: usize, acc: SideAccess| {
            assert_eq!(i, 1);
            assert_eq!(acc, SideAccess::Col);
            7.0
        };
        eval_scalar_program(&prog, &mut regs, 0.0, 0.0, &side, &[3.0]);
        assert_eq!(regs[2], 21.0);
    }

    #[test]
    #[should_panic(expected = "vector instruction in scalar program")]
    fn vector_instr_rejected_in_scalar_eval() {
        let prog =
            Program { instrs: vec![Instr::LoadMainRow { out: 0 }], n_regs: 0, vreg_lens: vec![4] };
        let mut regs = vec![];
        eval_scalar_program(&prog, &mut regs, 0.0, 0.0, &no_sides, &[]);
    }

    #[test]
    fn uv_dot_load() {
        let prog = Program {
            instrs: vec![
                Instr::LoadMain { out: 0 },
                Instr::LoadUVDot { out: 1 },
                Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
            ],
            n_regs: 3,
            vreg_lens: vec![],
        };
        let mut regs = vec![0.0; 3];
        eval_scalar_program(&prog, &mut regs, 2.0, 3.5, &no_sides, &[]);
        assert_eq!(regs[2], 7.0);
    }
}
