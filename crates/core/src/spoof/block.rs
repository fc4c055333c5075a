//! Tile-vectorized execution of scalar register programs (DESIGN.md
//! substitution X1, "block backend").
//!
//! The scalar interpreter in [`super::eval_scalar_program`] pays an
//! instruction-dispatch `match` per *cell*, which the paper's janino-compiled
//! Java never does. This module amortizes that dispatch over tiles: a scalar
//! [`Program`] is lowered once into a [`BlockProgram`] whose registers are
//! tiles of doubles, so each instruction becomes one tight,
//! auto-vectorizable loop per tile instead of one `match` per cell. A dense
//! row is one tile while a register file that wide fits [`TILE_FILE_BYTES`]
//! ([`dense_tile_width`]), so a Cell / MAgg pass over short rows runs like
//! one loop per instruction per row; CSR non-zeros run in tiles of
//! [`CSR_TILE_WIDTH`]. Where a dense map's result is the body's last
//! instruction, [`BlockEval::eval_last_into`] runs that instruction into the
//! output row instead of a register, so no copy follows it.
//!
//! Lowering classifies every scalar register by *variance*:
//!
//! * **invariant** — constants, bound scalars, `Scalar`-access side loads and
//!   anything derived from them: computed once per operator invocation;
//! * **row-uniform** — `Col`-access side loads and derivations: computed once
//!   per row (tiles never cross row boundaries);
//! * **varying** — the main input, the Outer template's `dot(U,V)` values,
//!   `Cell`/`Row`-access side loads and derivations: computed per tile.
//!
//! Only varying computations reach the per-tile body; uniform work is hoisted
//! into prologues replayed through the existing scalar evaluator. On top of
//! the generic body, [`compile_kernel`] marks every result register that is a
//! multiply chain as a [`super::mono::Product`] — the one shape whose
//! reduction the per-instruction loops cannot fuse.

use super::mono::Product;
use super::{Instr, Program, Reg, SideAccess};
use fusedml_linalg::ops::{bin_loop, ter_loop, un_loop, AggOp, BinaryOp, TernaryOp, UnaryOp};
use fusedml_linalg::primitives as prim;
use fusedml_linalg::simd;

/// A resolved operand: a slice of exactly the tile length, or a value
/// uniform across the tile.
pub use fusedml_linalg::ops::OpRef;

/// Tile register index.
pub type TReg = u16;

/// The widest tile a pass evaluates: what [`compile_kernel`] sets as
/// [`BlockKernel::width`], the cap every walk's width is clamped to.
pub const MAX_TILE_WIDTH: usize = 8192;

/// The tile width of a CSR walk (and of Outer's walks), and the narrowest
/// tile a dense walk splits a row into. 256 doubles = 2 KB per register.
pub const CSR_TILE_WIDTH: usize = 256;

/// The L1 share a dense walk's tile register file may take (`n_tiles` tiles
/// of 8-byte elements); the rest of a 48 KB L1d holds the streamed rows.
/// Sized by an in-binary sweep over 2–12 registers and 256–4000-wide tiles
/// (BENCH_NOTES.md): the fastest width's file lay between 16 and 48 KB.
pub const TILE_FILE_BYTES: usize = 24 << 10;

/// Clamps a tile width to the supported range (`8..=`[`MAX_TILE_WIDTH`]), so
/// no width set on a kernel produces a degenerate evaluator.
pub fn clamp_tile_width(w: usize) -> usize {
    w.clamp(8, MAX_TILE_WIDTH)
}

/// The width a dense walk tiles rows of `cols` elements at, for a body that
/// writes `n_tiles` tile registers (0: a body of uniforms only): the whole
/// row while `n_tiles` registers that wide fit [`TILE_FILE_BYTES`], else the
/// widest that fits but at least [`CSR_TILE_WIDTH`]; then at most `cap`
/// (the kernel's [`BlockKernel::width`]) and clamped.
pub fn dense_tile_width(n_tiles: usize, cols: usize, cap: usize) -> usize {
    let fits = TILE_FILE_BYTES / 8 / n_tiles.max(1);
    let w = if n_tiles == 0 || cols <= fits { cols } else { fits.max(CSR_TILE_WIDTH) };
    clamp_tile_width(w.min(cap))
}

/// The argument of the Cell/MAgg/Outer skeletons' `execute_with`. `execute`
/// always passes [`CellBackend::Mono`]; the differential suites pass the
/// other two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellBackend {
    /// The per-cell scalar interpreter: the differential-test oracle, and
    /// what a kernel with more side gathers than the tile path supports
    /// (more than 16) runs in production.
    Scalar,
    /// The tile evaluator alone: what every result register that is not a
    /// product chain runs in production, forced for all of them.
    Block,
    /// Production: the tile evaluator, and a result register that is a
    /// [`super::mono::Product`] runs the fused product loops instead.
    Mono,
}

// ===========================================================================
// IR
// ===========================================================================

/// A per-element operand of a body instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Opnd {
    /// A computed tile register.
    Tile(TReg),
    /// The main-input tile supplied by the skeleton.
    Main,
    /// The precomputed `dot(U[i,:], V[j,:])` tile (Outer template).
    Uv,
    /// A gathered side-input tile (index into [`BlockProgram::gathers`]).
    Gather(u16),
    /// A uniform scalar (index into the uniform register file).
    Uniform(u16),
}

/// One vectorized instruction of the per-tile body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockInstr {
    Unary { out: TReg, op: UnaryOp, a: Opnd },
    Binary { out: TReg, op: BinaryOp, a: Opnd, b: Opnd },
    Ternary { out: TReg, op: TernaryOp, a: Opnd, b: Opnd, c: Opnd },
}

impl BlockInstr {
    /// The tile register the instruction writes.
    #[inline]
    pub fn out(&self) -> TReg {
        match *self {
            BlockInstr::Unary { out, .. }
            | BlockInstr::Binary { out, .. }
            | BlockInstr::Ternary { out, .. } => out,
        }
    }
}

/// Where the final value of a scalar register of the source [`Program`]
/// lives after lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValSrc {
    /// Uniform across the tile: index into the uniform file.
    Uniform(u16),
    /// Varies per element: read through the operand source.
    Varying(Opnd),
}

/// A scalar [`Program`] lowered to tile-at-a-time form.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BlockProgram {
    /// Invocation-invariant prologue (uniform-file scalar instructions).
    pub invariant: Vec<Instr>,
    /// Per-row prologue (`Col`-access side loads and derivations).
    pub row_uniform: Vec<Instr>,
    /// The per-tile body.
    pub body: Vec<BlockInstr>,
    /// Uniform register file size (slot 0 is the constant zero).
    pub n_uniform: u16,
    /// Number of tile registers.
    pub n_tiles: u16,
    /// Side tiles the skeleton must gather before evaluating the body:
    /// one `(side, access)` per slot, `access ∈ {Cell, Row}`.
    pub gathers: Vec<(usize, SideAccess)>,
    /// Final value source per scalar register of the source program.
    pub result_src: Vec<ValSrc>,
}

impl BlockProgram {
    /// Final value source of scalar register `r`.
    #[inline]
    pub fn src_of(&self, r: Reg) -> ValSrc {
        self.result_src[r as usize]
    }
}

/// Variance level of a uniform slot during lowering.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Level {
    Invariant,
    Row,
}

/// Lowers a scalar program (Cell/MAgg/Outer templates — no vector
/// instructions) into a [`BlockProgram`].
pub fn lower(prog: &Program) -> BlockProgram {
    let mut bp = BlockProgram {
        // Slot 0 holds 0.0 so unwritten registers read as zero, matching the
        // scalar evaluator's zero-initialized register file.
        n_uniform: 1,
        result_src: vec![ValSrc::Uniform(0); prog.n_regs as usize],
        ..BlockProgram::default()
    };
    let mut ulevel: Vec<Level> = vec![Level::Invariant];
    let new_u = |bp: &mut BlockProgram, ulevel: &mut Vec<Level>, lvl: Level| -> u16 {
        let s = bp.n_uniform;
        bp.n_uniform += 1;
        ulevel.push(lvl);
        s
    };
    let new_t = |bp: &mut BlockProgram| -> TReg {
        let t = bp.n_tiles;
        bp.n_tiles += 1;
        t
    };
    let gather_slot = |bp: &mut BlockProgram, side: usize, access: SideAccess| -> u16 {
        if let Some(i) = bp.gathers.iter().position(|&g| g == (side, access)) {
            return i as u16;
        }
        bp.gathers.push((side, access));
        (bp.gathers.len() - 1) as u16
    };
    // Resolves a source-program register to an operand + its level.
    let classify = |bp: &BlockProgram, ulevel: &[Level], r: Reg| -> (Opnd, Level) {
        match bp.src_of(r) {
            ValSrc::Uniform(s) => (Opnd::Uniform(s), ulevel[s as usize]),
            ValSrc::Varying(o) => (o, Level::Row), // level unused for varying
        }
    };
    for ins in &prog.instrs {
        match *ins {
            Instr::LoadConst { out, value } => {
                let s = new_u(&mut bp, &mut ulevel, Level::Invariant);
                bp.invariant.push(Instr::LoadConst { out: s, value });
                bp.result_src[out as usize] = ValSrc::Uniform(s);
            }
            Instr::LoadScalar { out, idx } => {
                let s = new_u(&mut bp, &mut ulevel, Level::Invariant);
                bp.invariant.push(Instr::LoadScalar { out: s, idx });
                bp.result_src[out as usize] = ValSrc::Uniform(s);
            }
            Instr::LoadSide { out, side, access } => match access {
                SideAccess::Scalar => {
                    let s = new_u(&mut bp, &mut ulevel, Level::Invariant);
                    bp.invariant.push(Instr::LoadSide { out: s, side, access });
                    bp.result_src[out as usize] = ValSrc::Uniform(s);
                }
                SideAccess::Col => {
                    let s = new_u(&mut bp, &mut ulevel, Level::Row);
                    bp.row_uniform.push(Instr::LoadSide { out: s, side, access });
                    bp.result_src[out as usize] = ValSrc::Uniform(s);
                }
                SideAccess::Cell | SideAccess::Row => {
                    let slot = gather_slot(&mut bp, side, access);
                    bp.result_src[out as usize] = ValSrc::Varying(Opnd::Gather(slot));
                }
            },
            Instr::LoadMain { out } => {
                bp.result_src[out as usize] = ValSrc::Varying(Opnd::Main);
            }
            Instr::LoadUVDot { out } => {
                bp.result_src[out as usize] = ValSrc::Varying(Opnd::Uv);
            }
            Instr::Unary { out, op, a } => {
                let (oa, la) = classify(&bp, &ulevel, a);
                if let ValSrc::Uniform(sa) = bp.src_of(a) {
                    let s = new_u(&mut bp, &mut ulevel, la);
                    let target = if la == Level::Invariant {
                        &mut bp.invariant
                    } else {
                        &mut bp.row_uniform
                    };
                    target.push(Instr::Unary { out: s, op, a: sa });
                    bp.result_src[out as usize] = ValSrc::Uniform(s);
                } else {
                    let t = new_t(&mut bp);
                    bp.body.push(BlockInstr::Unary { out: t, op, a: oa });
                    bp.result_src[out as usize] = ValSrc::Varying(Opnd::Tile(t));
                }
            }
            Instr::Binary { out, op, a, b } => {
                let (oa, la) = classify(&bp, &ulevel, a);
                let (ob, lb) = classify(&bp, &ulevel, b);
                match (bp.src_of(a), bp.src_of(b)) {
                    (ValSrc::Uniform(sa), ValSrc::Uniform(sb)) => {
                        let lvl = if la == Level::Row || lb == Level::Row {
                            Level::Row
                        } else {
                            Level::Invariant
                        };
                        let s = new_u(&mut bp, &mut ulevel, lvl);
                        let target = if lvl == Level::Invariant {
                            &mut bp.invariant
                        } else {
                            &mut bp.row_uniform
                        };
                        target.push(Instr::Binary { out: s, op, a: sa, b: sb });
                        bp.result_src[out as usize] = ValSrc::Uniform(s);
                    }
                    _ => {
                        let t = new_t(&mut bp);
                        bp.body.push(BlockInstr::Binary { out: t, op, a: oa, b: ob });
                        bp.result_src[out as usize] = ValSrc::Varying(Opnd::Tile(t));
                    }
                }
            }
            Instr::Ternary { out, op, a, b, c } => {
                let (oa, la) = classify(&bp, &ulevel, a);
                let (ob, lb) = classify(&bp, &ulevel, b);
                let (oc, lc) = classify(&bp, &ulevel, c);
                match (bp.src_of(a), bp.src_of(b), bp.src_of(c)) {
                    (ValSrc::Uniform(sa), ValSrc::Uniform(sb), ValSrc::Uniform(sc)) => {
                        let lvl = if [la, lb, lc].contains(&Level::Row) {
                            Level::Row
                        } else {
                            Level::Invariant
                        };
                        let s = new_u(&mut bp, &mut ulevel, lvl);
                        let target = if lvl == Level::Invariant {
                            &mut bp.invariant
                        } else {
                            &mut bp.row_uniform
                        };
                        target.push(Instr::Ternary { out: s, op, a: sa, b: sb, c: sc });
                        bp.result_src[out as usize] = ValSrc::Uniform(s);
                    }
                    _ => {
                        let t = new_t(&mut bp);
                        bp.body.push(BlockInstr::Ternary { out: t, op, a: oa, b: ob, c: oc });
                        bp.result_src[out as usize] = ValSrc::Varying(Opnd::Tile(t));
                    }
                }
            }
            _ => panic!("vector instruction in cell block program: {ins:?}"),
        }
    }
    bp
}

// ===========================================================================
// Evaluation
// ===========================================================================

/// A per-element tile input supplied by the skeleton: either a slice of at
/// least the tile's length, or a value uniform across the tile.
#[derive(Clone, Copy, Debug)]
pub enum TileSrc<'a> {
    Slice(&'a [f64]),
    Const(f64),
}

/// Inputs for evaluating one tile.
#[derive(Clone, Copy)]
pub struct TileCtx<'a> {
    pub main: TileSrc<'a>,
    pub uv: TileSrc<'a>,
    /// One entry per [`BlockProgram::gathers`] slot.
    pub gathers: &'a [TileSrc<'a>],
}

impl<'a> TileCtx<'a> {
    /// A context with no inputs (programs over constants only).
    pub fn empty() -> TileCtx<'static> {
        TileCtx { main: TileSrc::Const(0.0), uv: TileSrc::Const(0.0), gathers: &[] }
    }
}

/// Reusable evaluator state: the uniform scalar file plus the tile register
/// file (one allocation per thread, reused across rows and tiles).
pub struct BlockEval {
    u: Vec<f64>,
    tiles: Vec<f64>,
    width: usize,
}

impl BlockEval {
    /// Allocates evaluator state for `bp` with the given tile width.
    pub fn new(bp: &BlockProgram, width: usize) -> Self {
        BlockEval {
            u: vec![0.0; bp.n_uniform as usize],
            tiles: vec![0.0; bp.n_tiles as usize * width],
            width,
        }
    }

    /// The tile width this evaluator was sized for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Runs the invocation-invariant prologue (constants, bound scalars,
    /// `Scalar`-access side loads).
    pub fn set_invariants(
        &mut self,
        bp: &BlockProgram,
        side_at: &dyn Fn(usize, SideAccess) -> f64,
        scalars: &[f64],
    ) {
        for ins in &bp.invariant {
            match *ins {
                Instr::LoadConst { out, value } => self.u[out as usize] = value,
                Instr::LoadScalar { out, idx } => self.u[out as usize] = scalars[idx],
                Instr::LoadSide { out, side, access } => {
                    self.u[out as usize] = side_at(side, access)
                }
                Instr::Unary { out, op, a } => self.u[out as usize] = op.apply(self.u[a as usize]),
                Instr::Binary { out, op, a, b } => {
                    self.u[out as usize] = op.apply(self.u[a as usize], self.u[b as usize])
                }
                Instr::Ternary { out, op, a, b, c } => {
                    self.u[out as usize] =
                        op.apply(self.u[a as usize], self.u[b as usize], self.u[c as usize])
                }
                _ => unreachable!("only loads and scalar ops are invariant"),
            }
        }
    }

    /// Runs the per-row prologue; `side_at` must resolve `Col` accesses at
    /// the current row. No-op for programs without row-uniform work.
    pub fn begin_row(&mut self, bp: &BlockProgram, side_at: &dyn Fn(usize, SideAccess) -> f64) {
        if bp.row_uniform.is_empty() {
            return;
        }
        for ins in &bp.row_uniform {
            match *ins {
                Instr::LoadSide { out, side, access } => {
                    self.u[out as usize] = side_at(side, access)
                }
                Instr::Unary { out, op, a } => self.u[out as usize] = op.apply(self.u[a as usize]),
                Instr::Binary { out, op, a, b } => {
                    self.u[out as usize] = op.apply(self.u[a as usize], self.u[b as usize])
                }
                Instr::Ternary { out, op, a, b, c } => {
                    self.u[out as usize] =
                        op.apply(self.u[a as usize], self.u[b as usize], self.u[c as usize])
                }
                _ => unreachable!("only side loads and scalar ops are row-uniform"),
            }
        }
    }

    /// Evaluates the first `k` instructions of the per-tile body for `n`
    /// elements (`n <= width`): all of them before the results are read,
    /// all but the last before [`Self::eval_last_into`].
    pub fn eval_body(&mut self, bp: &BlockProgram, ctx: &TileCtx<'_>, n: usize, k: usize) {
        debug_assert!(n <= self.width);
        let w = self.width;
        for ins in &bp.body[..k] {
            // Lowering numbers registers in definition order: every operand
            // lies below the register written.
            let (head, tail) = self.tiles.split_at_mut(ins.out() as usize * w);
            run_instr(ins, head, w, ctx, &self.u, &mut tail[..n]);
        }
    }

    /// Runs the body's last instruction over the tile into `dst` (one slot
    /// per position) instead of its register, after [`Self::eval_body`] ran
    /// the others: the same loop over the same operands, so `dst` holds
    /// bitwise what [`write_result`] copies out of the register.
    pub fn eval_last_into(&self, bp: &BlockProgram, ctx: &TileCtx<'_>, dst: &mut [f64]) {
        let ins = bp.body.last().expect("a body to run");
        run_instr(ins, &self.tiles, self.width, ctx, &self.u, dst)
    }

    /// Reads the final value of scalar register `reg` after [`Self::eval_body`]
    /// (slice of `n` elements, or a uniform value).
    pub fn value_of<'a>(
        &'a self,
        bp: &BlockProgram,
        reg: Reg,
        ctx: &TileCtx<'a>,
        n: usize,
    ) -> OpRef<'a> {
        match bp.src_of(reg) {
            ValSrc::Uniform(s) => OpRef::C(self.u[s as usize]),
            ValSrc::Varying(o) => resolve(o, &self.tiles, self.width, n, ctx, &self.u),
        }
    }

    /// Resolves a gather/main source without evaluating (product chains).
    pub fn opnd<'a>(&'a self, o: Opnd, ctx: &TileCtx<'a>, n: usize) -> OpRef<'a> {
        resolve(o, &self.tiles, self.width, n, ctx, &self.u)
    }
}

/// Runs one body instruction over `dst.len()` elements into `dst`, its
/// register operands read from `tiles` (registers `width` apart).
#[inline(always)]
fn run_instr(
    ins: &BlockInstr,
    tiles: &[f64],
    w: usize,
    ctx: &TileCtx<'_>,
    u: &[f64],
    dst: &mut [f64],
) {
    let n = dst.len();
    match *ins {
        BlockInstr::Unary { op, a, .. } => un_loop(op, resolve(a, tiles, w, n, ctx, u), dst),
        BlockInstr::Binary { op, a, b, .. } => {
            bin_loop(op, resolve(a, tiles, w, n, ctx, u), resolve(b, tiles, w, n, ctx, u), dst)
        }
        BlockInstr::Ternary { op, a, b, c, .. } => ter_loop(
            op,
            resolve(a, tiles, w, n, ctx, u),
            resolve(b, tiles, w, n, ctx, u),
            resolve(c, tiles, w, n, ctx, u),
            dst,
        ),
    }
}

#[inline(always)]
fn resolve<'a>(
    o: Opnd,
    tiles: &'a [f64],
    width: usize,
    n: usize,
    ctx: &TileCtx<'a>,
    u: &[f64],
) -> OpRef<'a> {
    let from_src = |s: TileSrc<'a>| match s {
        TileSrc::Slice(x) => OpRef::S(&x[..n]),
        TileSrc::Const(c) => OpRef::C(c),
    };
    match o {
        Opnd::Tile(t) => OpRef::S(&tiles[t as usize * width..t as usize * width + n]),
        Opnd::Main => from_src(ctx.main),
        Opnd::Uv => from_src(ctx.uv),
        Opnd::Gather(g) => from_src(ctx.gathers[g as usize]),
        Opnd::Uniform(s) => OpRef::C(u[s as usize]),
    }
}

/// Folds an aggregate over a tile result of `n` elements.
pub fn fold_result(op: AggOp, acc: f64, r: OpRef<'_>, n: usize) -> f64 {
    match r {
        OpRef::S(s) => match op {
            AggOp::Sum | AggOp::Mean => acc + prim::vect_sum(s, 0, n),
            AggOp::SumSq => acc + prim::vect_sum_sq(s, 0, n),
            AggOp::Min => op.combine(acc, prim::vect_min(s, 0, n)),
            AggOp::Max => op.combine(acc, prim::vect_max(s, 0, n)),
        },
        OpRef::C(c) => match op {
            AggOp::Sum | AggOp::Mean => acc + c * n as f64,
            AggOp::SumSq => acc + c * c * n as f64,
            AggOp::Min | AggOp::Max => {
                if n > 0 {
                    op.combine(acc, c)
                } else {
                    acc
                }
            }
        },
    }
}

/// Copies a tile result into an output slice.
pub fn write_result(r: OpRef<'_>, dst: &mut [f64]) {
    match r {
        OpRef::S(s) => dst.copy_from_slice(&s[..dst.len()]),
        OpRef::C(c) => dst.fill(c),
    }
}

// ===========================================================================
// Product-chain loops (`mono::Product`)
// ===========================================================================

/// Product-chain factors resolved for one tile: a uniform prefactor plus up
/// to four slice factors.
#[derive(Clone, Copy)]
pub struct Factors<'a> {
    pub k: f64,
    s: [&'a [f64]; 4],
    len: usize,
}

impl<'a> Factors<'a> {
    /// The empty factor list (the product `1`), a placeholder slot.
    pub(crate) const NONE: Factors<'static> = Factors { k: 1.0, s: [&[]; 4], len: 0 };

    /// The factors of a [`super::mono::Product`] for the current tile: the
    /// main input `mains` times, then the gather slots in order.
    pub(crate) fn resolve(
        mains: u8,
        slots: &[u16],
        ev: &'a BlockEval,
        ctx: &TileCtx<'a>,
        n: usize,
    ) -> Factors<'a> {
        let refs = std::iter::repeat_n(Opnd::Main, mains as usize)
            .chain(slots.iter().map(|&s| Opnd::Gather(s)))
            .map(|o| ev.opnd(o, ctx, n));
        Factors::from_refs(refs).expect("classify caps product chains at four factors")
    }

    /// The same factors narrowed to elements `base..base + m`.
    pub(crate) fn window(&self, base: usize, m: usize) -> Factors<'a> {
        let mut w = *self;
        for s in &mut w.s[..self.len] {
            *s = &s[base..base + m];
        }
        w
    }

    /// Builds the factor list from resolved operand references.
    pub fn from_refs(refs: impl Iterator<Item = OpRef<'a>>) -> Option<Factors<'a>> {
        let mut f = Factors { k: 1.0, s: [&[]; 4], len: 0 };
        for r in refs {
            match r {
                OpRef::C(c) => f.k *= c,
                OpRef::S(s) => {
                    if f.len == 4 {
                        return None;
                    }
                    f.s[f.len] = s;
                    f.len += 1;
                }
            }
        }
        Some(f)
    }

    /// `Σ_i k · Π_j s_j[i]` over `n` elements — the fused sum loop, each
    /// arity dispatched to the matching SIMD reduction.
    pub fn sum(&self, n: usize) -> f64 {
        let k = self.k;
        match self.len {
            0 => k * n as f64,
            1 => self.scaled(prim::vect_sum(self.s[0], 0, n)),
            2 => self.scaled(prim::dot_product(self.s[0], self.s[1], 0, 0, n)),
            3 => k * simd::dot3_sum(&self.s[0][..n], &self.s[1][..n], &self.s[2][..n]),
            _ => {
                k * simd::dot4_sum(
                    &self.s[0][..n],
                    &self.s[1][..n],
                    &self.s[2][..n],
                    &self.s[3][..n],
                )
            }
        }
    }

    /// A one- or two-slice sum from the raw `sum` / `dot` of its slices.
    #[inline]
    fn scaled(&self, raw: f64) -> f64 {
        if self.k == 1.0 {
            raw
        } else {
            self.k * raw
        }
    }

    /// `out[j] = fs[j].sum(n)`, bitwise, for at most [`simd::MAX_DOT_SUMS`]
    /// factor lists: every list of two slices is summed in one
    /// [`simd::dot_sums`] loop over the tile, so lists that share an input
    /// read it once; any other list runs its own [`Self::sum`].
    pub(crate) fn sums(fs: &[Factors<'_>], n: usize, out: &mut [f64]) {
        const M: usize = simd::MAX_DOT_SUMS;
        assert!(fs.len() <= M && out.len() == fs.len(), "Factors::sums: list count");
        let (mut terms, mut at, mut m) = ([(&[][..], &[][..]); M], [0; M], 0);
        for (j, f) in fs.iter().enumerate() {
            match f.len {
                2 => {
                    terms[m] = (&f.s[0][..n], &f.s[1][..n]);
                    at[m] = j;
                    m += 1;
                }
                _ => out[j] = f.sum(n),
            }
        }
        let mut raw = [0.0; M];
        simd::dot_sums(n, &terms[..m], &mut raw[..m]);
        for (&j, &r) in at[..m].iter().zip(&raw) {
            out[j] = fs[j].scaled(r);
        }
    }

    /// `dst[i] = k · Π_j s_j[i]` for `i < dst.len()`.
    pub fn product_into(&self, dst: &mut [f64]) {
        let n = dst.len();
        let k = self.k;
        match self.len {
            0 => dst.fill(k),
            1 => {
                let a = &self.s[0][..n];
                for i in 0..n {
                    dst[i] = k * a[i];
                }
            }
            2 if k == 1.0 => simd::mul2_into(dst, &self.s[0][..n], &self.s[1][..n]),
            2 => {
                let (a, b) = (&self.s[0][..n], &self.s[1][..n]);
                for i in 0..n {
                    dst[i] = k * a[i] * b[i];
                }
            }
            3 if k == 1.0 => {
                simd::mul3_into(dst, &self.s[0][..n], &self.s[1][..n], &self.s[2][..n])
            }
            3 => {
                let (a, b, c) = (&self.s[0][..n], &self.s[1][..n], &self.s[2][..n]);
                for i in 0..n {
                    dst[i] = k * a[i] * b[i] * c[i];
                }
            }
            _ => {
                let (a, b, c, d) =
                    (&self.s[0][..n], &self.s[1][..n], &self.s[2][..n], &self.s[3][..n]);
                for i in 0..n {
                    dst[i] = k * a[i] * b[i] * c[i] * d[i];
                }
            }
        }
    }
}

// ===========================================================================
// Compiled kernel: block program + per-register product chains
// ===========================================================================

/// Maximum distinct `(side, access)` gathers the tile path supports; a
/// kernel with more runs the per-cell scalar pass.
pub const MAX_GATHERS: usize = 16;

/// A fully compiled block kernel: the lowered program plus the per-register
/// kernel table. `codegen::generate` lowers one per Cell / MAgg / Outer
/// operator and the operator carries it.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockKernel {
    pub block: BlockProgram,
    /// The product chain of each scalar register (indexed by `Reg`) whose
    /// value is one; `None` runs the tile interpreter.
    pub mono: Vec<Option<Product>>,
    /// The widest tile the skeletons evaluate with: [`MAX_TILE_WIDTH`], so a
    /// walk takes [`CSR_TILE_WIDTH`] or [`dense_tile_width`]; the
    /// differential suites set narrower caps to put tile edges in short rows.
    pub width: usize,
}

impl BlockKernel {
    /// The product chain of a result register, if it is one.
    #[inline]
    pub fn mono_for(&self, r: Reg) -> Option<&Product> {
        self.mono.get(r as usize).and_then(|m| m.as_ref())
    }

    /// True if the gather list fits the tile path ([`MAX_GATHERS`]).
    pub fn tiled(&self) -> bool {
        self.block.gathers.len() <= MAX_GATHERS
    }
}

/// Lowers a scalar program into a [`BlockKernel`], with the product chain of
/// every register that is one (only varying results can be: a uniform one is
/// a prologue scalar, not a loop).
pub fn compile_kernel(prog: &Program) -> BlockKernel {
    let block = lower(prog);
    let mono = (0..prog.n_regs).map(|r| super::mono::classify(&block, r)).collect();
    BlockKernel { block, mono, width: MAX_TILE_WIDTH }
}

/// The lowered form of a generated operator: a block kernel for the Cell,
/// MAgg and Outer templates, a band kernel for Row.
#[derive(Clone, Debug, PartialEq)]
pub enum Kernel {
    Block(BlockKernel),
    Row(RowKernel),
}

// ===========================================================================
// Row-template lowering
// ===========================================================================

/// A Row [`Program`] lowered for band execution: instructions are split by
/// *variance* into an invocation-invariant prologue (run once per row band)
/// and a per-row body, main-row reads become virtual (resolved against the
/// skeleton's dense or sparse row view instead of a densified copy), and the
/// dominant `Xᵀ(Xv)` mv-chain shape is recognized.
///
/// Lowering depends on the side-input geometry (a `LoadSideRow` of a whole
/// column vector is invariant, a row-aligned slice is not), so the plan-cache
/// key covers each side-row load's invariance bit
/// (`CPlan::structural_hash`).
#[derive(Clone, Debug, PartialEq)]
pub struct RowKernel {
    /// Invocation-invariant instructions: constants, bound scalars,
    /// `Scalar`-access side loads, whole-vector / broadcast side rows, and
    /// anything derived only from those. Run once per band context.
    pub invariant: Vec<Instr>,
    /// Per-row instructions (main-row work, `Col` side loads, derivations).
    pub per_row: Vec<Instr>,
    /// Vector registers holding the current main row. Never materialized:
    /// reads resolve against the skeleton's row view.
    pub main_vregs: Vec<VReg>,
    /// Vector registers whose value is invocation-invariant.
    pub invariant_vregs: Vec<bool>,
    /// True when every use of the main row — instructions and the Row
    /// output — can consume a sparse row directly over its non-zeros, so
    /// sparse mains execute without densification.
    pub sparse_main_ok: bool,
    /// The dominant shape the program matches, where it matches one.
    pub shape: Option<RowShape>,
}

/// A dominant Row program shape the skeleton schedules specially.
#[derive(Clone, Debug, PartialEq)]
pub enum RowShape {
    /// `acc += g(dot(x_row, v)) · x_row` — the `Xᵀ(Xv)` / mlogreg
    /// `Xᵀ(w ⊙ (Xv))` family: a single dot of the main row against an
    /// invariant vector, an arbitrary scalar-only tail computing the
    /// multiplier, and a `ColAggMultAdd` output over the main row. Every
    /// main row is read twice in a row — by the dot, then by the axpy — and
    /// by nothing else, so the skeleton keeps its tiles small enough that
    /// the second read finds the rows in L1.
    MvChain {
        /// The invariant vector register dotted with the main row.
        v: VReg,
    },
}

use super::{RowOut, RowSpec, VReg};

/// True when a `LoadSideRow` of a side with dims `(rows, cols)` sliced to
/// `cl..cu` reads the side's whole column vector (`v` in `X %*% v`) rather
/// than a per-row slice. Shared by lowering, the band executor, and the
/// interpreter oracle so the classification can never drift between them.
#[inline]
pub fn whole_vector_load(rows: usize, cols: usize, cl: usize, cu: usize) -> bool {
    cols == 1 && cu - cl == rows && rows > 1
}

/// True when a `LoadSideRow` of side `side` sliced to `cl..cu` reads the same
/// lanes for every row: the side is a single row, or the load is a
/// [`whole_vector_load`]. A side outside `side_dims` is not invariant.
/// Shared by Row lowering, the sharding rules and the plan verifier.
#[inline]
pub fn row_invariant_load(side_dims: &[(usize, usize)], side: usize, cl: usize, cu: usize) -> bool {
    side_dims.get(side).is_some_and(|&(r, c)| r == 1 || whole_vector_load(r, c, cl, cu))
}

/// Lowers a Row program into a [`RowKernel`] under the given side-input
/// dimensions (`(rows, cols)` per side, the CPlan's `side_dims`).
pub fn compile_row_kernel(spec: &RowSpec, side_dims: &[(usize, usize)]) -> RowKernel {
    let prog = &spec.prog;
    let mut sc_inv = vec![false; prog.n_regs as usize];
    let mut v_inv = vec![false; prog.vreg_lens.len()];
    let mut main_vregs: Vec<VReg> = Vec::new();
    let mut invariant = Vec::new();
    let mut per_row = Vec::new();
    for ins in &prog.instrs {
        let is_main = |v: VReg, mains: &[VReg]| mains.contains(&v);
        let inv = match *ins {
            Instr::LoadConst { .. } | Instr::LoadScalar { .. } => true,
            Instr::LoadSide { access, .. } => access == SideAccess::Scalar,
            Instr::LoadMain { .. } => false,
            Instr::LoadUVDot { .. } => panic!("UVDot in Row program"),
            Instr::LoadMainRow { out } => {
                main_vregs.push(out);
                false
            }
            // Whole column vectors (`v` in `X %*% v`) and 1×m broadcast
            // rows read the same data for every row: load once per band.
            Instr::LoadSideRow { side, cl, cu, .. } => row_invariant_load(side_dims, side, cl, cu),
            Instr::Unary { a, .. } => sc_inv[a as usize],
            Instr::Binary { a, b, .. } => sc_inv[a as usize] && sc_inv[b as usize],
            Instr::Ternary { a, b, c, .. } => {
                sc_inv[a as usize] && sc_inv[b as usize] && sc_inv[c as usize]
            }
            Instr::VecUnary { a, .. } | Instr::VecCumsum { a, .. } => {
                v_inv[a as usize] && !is_main(a, &main_vregs)
            }
            Instr::VecBinaryVV { a, b, .. } => {
                v_inv[a as usize]
                    && v_inv[b as usize]
                    && !is_main(a, &main_vregs)
                    && !is_main(b, &main_vregs)
            }
            Instr::VecBinaryVS { a, b, .. } => {
                v_inv[a as usize] && sc_inv[b as usize] && !is_main(a, &main_vregs)
            }
            Instr::VecMatMult { a, .. } => v_inv[a as usize] && !is_main(a, &main_vregs),
            Instr::Dot { a, b, .. } => {
                v_inv[a as usize]
                    && v_inv[b as usize]
                    && !is_main(a, &main_vregs)
                    && !is_main(b, &main_vregs)
            }
            Instr::VecAgg { a, .. } => v_inv[a as usize] && !is_main(a, &main_vregs),
        };
        match *ins {
            Instr::LoadMainRow { out }
            | Instr::LoadSideRow { out, .. }
            | Instr::VecUnary { out, .. }
            | Instr::VecBinaryVV { out, .. }
            | Instr::VecBinaryVS { out, .. }
            | Instr::VecMatMult { out, .. }
            | Instr::VecCumsum { out, .. } => v_inv[out as usize] = inv,
            Instr::LoadMain { out }
            | Instr::LoadSide { out, .. }
            | Instr::LoadScalar { out, .. }
            | Instr::LoadConst { out, .. }
            | Instr::Unary { out, .. }
            | Instr::Binary { out, .. }
            | Instr::Ternary { out, .. }
            | Instr::Dot { out, .. }
            | Instr::VecAgg { out, .. } => sc_inv[out as usize] = inv,
            Instr::LoadUVDot { .. } => unreachable!(),
        }
        if inv {
            invariant.push(ins.clone());
        } else {
            per_row.push(ins.clone());
        }
    }
    let sparse_main_ok = row_sparse_main_ok(&per_row, &main_vregs);
    let shape = specialize_row(&per_row, &main_vregs, &v_inv, &spec.out);
    RowKernel { invariant, per_row, main_vregs, invariant_vregs: v_inv, sparse_main_ok, shape }
}

/// True when every per-row use of the main row can iterate non-zeros
/// directly: `Dot`, `VecMatMult` (as the row operand), and `VecAgg` consume
/// sparse rows; element-wise vector ops and cumsum need the dense row. All
/// Row outputs scatter or read scalars, so they never force densification.
fn row_sparse_main_ok(per_row: &[Instr], mains: &[VReg]) -> bool {
    let is_main = |v: VReg| mains.contains(&v);
    per_row.iter().all(|ins| match *ins {
        Instr::VecUnary { a, .. } | Instr::VecCumsum { a, .. } => !is_main(a),
        Instr::VecBinaryVV { a, b, .. } => !is_main(a) && !is_main(b),
        Instr::VecBinaryVS { a, .. } => !is_main(a),
        _ => true,
    })
}

/// Tries to recognize the per-row body as a [`RowShape`] shape.
fn specialize_row(
    per_row: &[Instr],
    mains: &[VReg],
    v_inv: &[bool],
    out: &RowOut,
) -> Option<RowShape> {
    let RowOut::ColAggMultAdd { vec, .. } = *out else { return None };
    if !mains.contains(&vec) {
        return None;
    }
    let is_main = |v: VReg| mains.contains(&v);
    let mut dot: Option<VReg> = None;
    for ins in per_row {
        match *ins {
            Instr::LoadMainRow { .. } => {}
            Instr::Dot { a, b, .. } => {
                if dot.is_some() {
                    return None;
                }
                dot = Some(if is_main(a) && !is_main(b) && v_inv[b as usize] {
                    b
                } else if is_main(b) && !is_main(a) && v_inv[a as usize] {
                    a
                } else {
                    return None;
                });
            }
            Instr::LoadSide { .. }
            | Instr::LoadScalar { .. }
            | Instr::LoadConst { .. }
            | Instr::Unary { .. }
            | Instr::Binary { .. }
            | Instr::Ternary { .. } => {}
            _ => return None, // other vector work: not this shape
        }
    }
    Some(RowShape::MvChain { v: dot? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spoof::eval_scalar_program;

    fn no_sides(_: usize, _: SideAccess) -> f64 {
        0.0
    }

    /// `f(a) = (a != 0) * 2 + 1` — from the scalar evaluator's test.
    fn indicator_prog() -> Program {
        Program {
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
        }
    }

    #[test]
    fn lowering_hoists_constants() {
        let bp = lower(&indicator_prog());
        // The three constants are invariant; the three binaries touch the
        // varying main, so they stay in the body.
        assert_eq!(bp.invariant.len(), 3);
        assert!(bp.row_uniform.is_empty());
        assert_eq!(bp.body.len(), 3);
        assert!(bp.gathers.is_empty());
    }

    #[test]
    fn block_matches_scalar_on_indicator() {
        let prog = indicator_prog();
        let bp = lower(&prog);
        let mut ev = BlockEval::new(&bp, 8);
        ev.set_invariants(&bp, &no_sides, &[]);
        let main = [5.0, 0.0, -1.0, 0.0, 2.0];
        let ctx = TileCtx { main: TileSrc::Slice(&main), uv: TileSrc::Const(0.0), gathers: &[] };
        ev.eval_body(&bp, &ctx, main.len(), bp.body.len());
        let out = ev.value_of(&bp, 6, &ctx, main.len());
        let mut regs = vec![0.0; 7];
        for (i, &m) in main.iter().enumerate() {
            eval_scalar_program(&prog, &mut regs, m, 0.0, &no_sides, &[]);
            assert_eq!(out.get(i), regs[6], "element {i}");
        }
    }

    #[test]
    fn side_access_classes() {
        // t0 = side0[Cell]; t1 = side1[Col]; t2 = side2[Scalar];
        // r = (t0 * t1) + t2
        let prog = Program {
            instrs: vec![
                Instr::LoadSide { out: 0, side: 0, access: SideAccess::Cell },
                Instr::LoadSide { out: 1, side: 1, access: SideAccess::Col },
                Instr::LoadSide { out: 2, side: 2, access: SideAccess::Scalar },
                Instr::Binary { out: 3, op: BinaryOp::Mult, a: 0, b: 1 },
                Instr::Binary { out: 4, op: BinaryOp::Add, a: 3, b: 2 },
            ],
            n_regs: 5,
            vreg_lens: vec![],
        };
        let bp = lower(&prog);
        assert_eq!(bp.gathers, vec![(0, SideAccess::Cell)]);
        assert_eq!(bp.invariant.len(), 1, "Scalar access is invariant");
        assert_eq!(bp.row_uniform.len(), 1, "Col access is row-uniform");
        assert_eq!(bp.body.len(), 2);

        let mut ev = BlockEval::new(&bp, 4);
        ev.set_invariants(&bp, &|s, _| if s == 2 { 10.0 } else { 0.0 }, &[]);
        ev.begin_row(&bp, &|s, _| if s == 1 { 3.0 } else { 0.0 });
        let side_tile = [1.0, 2.0, 4.0];
        let g = [TileSrc::Slice(&side_tile[..])];
        let ctx = TileCtx { main: TileSrc::Const(0.0), uv: TileSrc::Const(0.0), gathers: &g };
        ev.eval_body(&bp, &ctx, 3, bp.body.len());
        let out = ev.value_of(&bp, 4, &ctx, 3);
        assert_eq!([out.get(0), out.get(1), out.get(2)], [13.0, 16.0, 22.0]);
    }

    #[test]
    fn uniform_result_program() {
        // r = 3 * 7 — fully invariant; no body instructions at all.
        let prog = Program {
            instrs: vec![
                Instr::LoadConst { out: 0, value: 3.0 },
                Instr::LoadConst { out: 1, value: 7.0 },
                Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
            ],
            n_regs: 3,
            vreg_lens: vec![],
        };
        let bp = lower(&prog);
        assert!(bp.body.is_empty());
        let mut ev = BlockEval::new(&bp, 4);
        ev.set_invariants(&bp, &no_sides, &[]);
        let ctx = TileCtx::empty();
        match ev.value_of(&bp, 2, &ctx, 4) {
            OpRef::C(v) => assert_eq!(v, 21.0),
            OpRef::S(_) => panic!("uniform result expected"),
        }
        assert_eq!(fold_result(AggOp::Sum, 0.0, OpRef::C(21.0), 4), 84.0);
    }

    /// `r = Π leaves`, multiplied left to right.
    fn chain(leaves: &[Instr]) -> (Program, Reg) {
        let mut instrs: Vec<Instr> = leaves.to_vec();
        let n = leaves.len() as Reg;
        let mut acc = 0;
        for (i, leaf) in (1..n).enumerate() {
            let out = n + i as Reg;
            instrs.push(Instr::Binary { out, op: BinaryOp::Mult, a: acc, b: leaf });
            acc = out;
        }
        (Program { n_regs: acc.max(n - 1) + 1, instrs, vreg_lens: vec![] }, acc)
    }

    fn side(out: Reg, side: usize, access: SideAccess) -> Instr {
        Instr::LoadSide { out, side, access }
    }

    #[test]
    fn specializes_product_chains() {
        use crate::spoof::mono::classify;
        let product = |mains, slots: &[u16]| Some(Product { mains, slots: slots.into() });
        let main = |out| Instr::LoadMain { out };
        // One to four factors: X, X⊙Y, X⊙Y⊙Z (fig8a), X⊙X⊙Y (the main twice),
        // and X⊙Y⊙Z⊙b with a `Row`-access gather.
        for (leaves, expect) in [
            (vec![main(0)], product(1, &[])),
            (vec![side(0, 0, SideAccess::Cell)], product(0, &[0])),
            (vec![main(0), side(1, 0, SideAccess::Cell)], product(1, &[0])),
            (
                vec![main(0), side(1, 0, SideAccess::Cell), side(2, 1, SideAccess::Cell)],
                product(1, &[0, 1]),
            ),
            (vec![main(0), main(1), side(2, 0, SideAccess::Cell)], product(2, &[0])),
            (
                vec![
                    main(0),
                    side(1, 0, SideAccess::Cell),
                    side(2, 1, SideAccess::Cell),
                    side(3, 2, SideAccess::Row),
                ],
                product(1, &[0, 1, 2]),
            ),
        ] {
            let (prog, result) = chain(&leaves);
            let k = compile_kernel(&prog);
            assert_eq!(classify(&k.block, result), expect, "{leaves:?}");
            assert_eq!(k.mono_for(result), expect.as_ref());
        }
        // Every intermediate of a chain is a (shorter) chain of its own.
        let (prog, _) =
            chain(&[main(0), side(1, 0, SideAccess::Cell), side(2, 1, SideAccess::Cell)]);
        assert_eq!(compile_kernel(&prog).mono_for(3), product(1, &[0]).as_ref());
    }

    #[test]
    fn does_not_specialize_non_products() {
        let main = |out| Instr::LoadMain { out };
        let cell = |out, s| side(out, s, SideAccess::Cell);
        // Not a product is the tile interpreter: there is no other kernel.
        let not_product = |prog: &Program, result: Reg, why: &str| {
            assert_eq!(compile_kernel(prog).mono_for(result), None, "{why}");
        };
        // A constant factor is a uniform operand, not a slice factor.
        let (prog, r) = chain(&[main(0), Instr::LoadConst { out: 1, value: 2.0 }]);
        not_product(&prog, r, "constant factor");
        // The Outer template's dot(U, V) tile is not a gather.
        let (prog, r) = chain(&[main(0), Instr::LoadUVDot { out: 1 }]);
        not_product(&prog, r, "uv leaf");
        // Five factors exceed the fused loops' arity.
        let (prog, r) = chain(&[main(0), cell(1, 0), cell(2, 1), cell(3, 2), cell(4, 3)]);
        not_product(&prog, r, "five factors");
        // r = log(uv + eps) * a — the fig8h shape: Add and Log on the path.
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
        not_product(&prog, 5, "non-Mult node");
    }

    #[test]
    fn factors_sum_and_product_agree() {
        let a: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..13).map(|i| (i as f64).cos()).collect();
        let c: Vec<f64> = (0..13).map(|i| 1.0 + i as f64 * 0.1).collect();
        for slices in [vec![&a], vec![&a, &b], vec![&a, &b, &c]] {
            let refs = slices.iter().map(|s| OpRef::S(&s[..]));
            let f = Factors::from_refs(refs.chain([OpRef::C(2.0)])).unwrap();
            let mut out = vec![0.0; 13];
            f.product_into(&mut out);
            let expect: Vec<f64> =
                (0..13).map(|i| 2.0 * slices.iter().map(|s| s[i]).product::<f64>()).collect();
            for (x, y) in out.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-12);
            }
            let s = f.sum(13);
            let es: f64 = expect.iter().sum();
            assert!((s - es).abs() < 1e-9 * es.abs().max(1.0), "{s} vs {es}");
        }
    }

    #[test]
    fn tile_width_clamps_and_backend_defaults() {
        assert_eq!(clamp_tile_width(1), 8);
        assert_eq!(clamp_tile_width(64), 64);
        assert_eq!(clamp_tile_width(1 << 20), MAX_TILE_WIDTH);
        assert_eq!(clamp_tile_width(CSR_TILE_WIDTH), CSR_TILE_WIDTH);
    }

    #[test]
    fn dense_rows_are_one_tile_while_the_register_file_fits() {
        let fits = TILE_FILE_BYTES / 8 / 2;
        // Two registers: the whole row up to the budget, then the budget.
        assert_eq!(dense_tile_width(2, 1000, MAX_TILE_WIDTH), 1000);
        assert_eq!(dense_tile_width(2, fits, MAX_TILE_WIDTH), fits);
        assert_eq!(dense_tile_width(2, fits + 1, MAX_TILE_WIDTH), fits);
        // No tile register: the whole row, up to the clamp.
        assert_eq!(dense_tile_width(0, 5000, MAX_TILE_WIDTH), 5000);
        assert_eq!(dense_tile_width(0, 20_000, MAX_TILE_WIDTH), MAX_TILE_WIDTH);
        // A large register file never goes below the CSR width.
        assert_eq!(dense_tile_width(500, 1000, MAX_TILE_WIDTH), CSR_TILE_WIDTH);
        // A kernel's cap wins; a zero-column row still gets a valid width.
        assert_eq!(dense_tile_width(2, 1000, 33), 33);
        assert_eq!(dense_tile_width(2, 0, MAX_TILE_WIDTH), 8);
    }

    use crate::spoof::{RowOut, RowSpec};

    /// `t(X) %*% (w ⊙ (X %*% v))` — the mlogreg-style sparse row pattern:
    /// v0 = main row; v1 = v (whole-vector side 0, m×1); r0 = dot(v0, v1);
    /// r1 = w[rix] (Col side 1, n×1); r2 = r0 * r1; out += r2 · v0.
    fn mlogreg_row_spec(m: usize) -> RowSpec {
        RowSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMainRow { out: 0 },
                    Instr::LoadSideRow { out: 1, side: 0, cl: 0, cu: m },
                    Instr::Dot { out: 0, a: 0, b: 1 },
                    Instr::LoadSide { out: 1, side: 1, access: SideAccess::Col },
                    Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
                ],
                n_regs: 3,
                vreg_lens: vec![m, m],
            },
            out: RowOut::ColAggMultAdd { vec: 0, scalar: 2 },
        }
    }

    #[test]
    fn row_lowering_hoists_invariants_and_specializes_mv_chain() {
        let m = 40;
        let spec = mlogreg_row_spec(m);
        let k = compile_row_kernel(&spec, &[(m, 1), (100, 1)]);
        // The whole-vector load of `v` is invariant (once per band); the
        // dot, the Col-access load of `w`, and the multiply stay per-row.
        assert_eq!(k.invariant, vec![Instr::LoadSideRow { out: 1, side: 0, cl: 0, cu: m }]);
        assert_eq!(k.per_row.len(), 4);
        assert_eq!(k.main_vregs, vec![0]);
        assert!(k.invariant_vregs[1] && !k.invariant_vregs[0]);
        // Sparse mains execute over non-zeros: no densification anywhere.
        assert!(k.sparse_main_ok, "mv-chain must not densify the sparse main");
        assert_eq!(k.shape, Some(RowShape::MvChain { v: 1 }));
    }

    #[test]
    fn row_lowering_detects_dense_main_uses() {
        // exp(X) per row: VecUnary over the main row needs the dense row.
        let spec = RowSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMainRow { out: 0 },
                    Instr::VecUnary { out: 1, op: UnaryOp::Exp, a: 0 },
                ],
                n_regs: 0,
                vreg_lens: vec![8, 8],
            },
            out: RowOut::NoAgg { src: 1 },
        };
        let k = compile_row_kernel(&spec, &[]);
        assert!(!k.sparse_main_ok);
        assert!(k.shape.is_none());
        assert!(k.invariant.is_empty());
    }
}
