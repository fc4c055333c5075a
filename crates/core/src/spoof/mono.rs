//! Product chains: the one Cell/MAgg/Outer body shape that runs a loop of
//! its own instead of the tile interpreter (DESIGN.md substitution X10).
//!
//! The tile evaluator in [`super::block`] runs a body one instruction at a
//! time, each instruction one static loop over the tile. For a multiply
//! chain under a sum (`sum(X⊙Y⊙Z)`, fig8a–d) that means writing every
//! partial product to a tile register and reading it back to add it up; a
//! [`Product`] reads the factors once and sums them in the fused
//! `dot` / `dot3_sum` / `dot4_sum` reductions, and several products over
//! shared inputs (a MAgg's `sum(X⊙Y), sum(X⊙Z)`) in one [`fold_sums`] loop.
//! That is the only reduction the interpreter cannot fuse, and the only
//! specialization a bench row pays for: every other body — single maps,
//! `a·f(b∘c)` chains, bounded DAGs — was
//! measured level with or slower under a kernel of its own than under the
//! interpreter (BENCH_NOTES.md "PR 24"), so there is none.
//!
//! The class an operator executes under is surfaced through [`ShapeClass`]
//! into `ExecStats` and re-audited by `runtime::verify`.

use super::block::{
    fold_result, BlockEval, BlockInstr, BlockProgram, Factors, OpRef, Opnd, TileCtx, ValSrc,
};
use super::Reg;
use fusedml_linalg::ops::{AggOp, BinaryOp};
use fusedml_linalg::simd;

/// Elements per stack chunk when a product is folded under `Min` / `Max` /
/// `SumSq` (no fused reduction: multiply a chunk, fold it).
const CHUNK: usize = 64;

/// The kernel family a fused operator executes under — reported through
/// `ExecStats` and re-audited by the plan verifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeClass {
    /// Cell/MAgg/Outer operator whose every result is a [`Product`].
    ProductChain,
    /// Row mv-chain (`RowShape::MvChain`): the tile body at an L1-sized
    /// tile height, a dot and an axpy per row.
    MvChain,
    /// Row tile body whose matrix-shaped work (a `VecMatMult`, an
    /// `OuterColAgg` output) runs in the register-blocked `simd::gemm`
    /// micro-kernel, a tile of rows per instruction dispatch.
    RowTile,
    /// The tile (Cell/MAgg/Outer) or band (Row) interpreter.
    Interpreted,
}

impl ShapeClass {
    /// True when the class executes through a specialized kernel rather
    /// than the interpreter.
    #[inline]
    pub fn is_specialized(self) -> bool {
        !matches!(self, ShapeClass::Interpreted)
    }
}

/// `dst[i] = Π factors[i]`: the main input `mains` times and one factor per
/// gather slot (an index into [`BlockProgram::gathers`]), one to four
/// factors in all. A product never reads or writes the tile register file.
#[derive(Clone, Debug, PartialEq)]
pub struct Product {
    pub mains: u8,
    pub slots: Vec<u16>,
}

/// The [`Product`] for scalar register `r` of a lowered program when its
/// value is a pure multiply chain over the main input and `Cell`/`Row` side
/// gathers with at most four factors (a register reused on the path counts
/// once per use), `None` otherwise: anything else on the path — a uniform,
/// the `Uv` tile, another operator — runs the tile interpreter. Factors are
/// collected left operand first, so a chain the compiler emitted main-first
/// multiplies in the interpreter's order. Purely structural and
/// deterministic — `runtime::verify` re-runs it to audit cached kernels.
pub fn classify(bp: &BlockProgram, r: Reg) -> Option<Product> {
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
    Some(Product { mains, slots })
}

impl Product {
    /// Writes the product over `n` elements into `dst[..n]`, reading the
    /// factors through the tile context.
    pub fn map_into(&self, ev: &BlockEval, ctx: &TileCtx<'_>, n: usize, dst: &mut [f64]) {
        Factors::resolve(self.mains, &self.slots, ev, ctx, n).product_into(&mut dst[..n])
    }

    /// Fused map + reduce: folds the product over `n` elements into `acc`
    /// under `op` without materializing a tile. Sums run the fused `dot`
    /// reductions; the other aggregates go chunk by chunk through the
    /// interpreter's `fold_result`, so backends agree within the documented
    /// FMA rounding policy (see `linalg::simd`).
    pub fn fold(&self, op: AggOp, acc: f64, ev: &BlockEval, ctx: &TileCtx<'_>, n: usize) -> f64 {
        let f = Factors::resolve(self.mains, &self.slots, ev, ctx, n);
        if matches!(op, AggOp::Sum | AggOp::Mean) {
            return acc + f.sum(n);
        }
        let mut acc = acc;
        let mut buf = [0.0f64; CHUNK];
        for base in (0..n).step_by(CHUNK) {
            let m = (n - base).min(CHUNK);
            f.window(base, m).product_into(&mut buf[..m]);
            acc = fold_result(op, acc, OpRef::S(&buf[..m]), m);
        }
        acc
    }
}

/// [`Product::fold`] under `Sum` (or `Mean`) of several products over one
/// tile, each into its own accumulator — bitwise what the per-product folds
/// give. The MAgg `sum(X⊙Y), sum(X⊙Z)` shape: the products of one or two
/// factors are summed [`simd::MAX_DOT_SUMS`] at a time in one loop that
/// reads every factor in the same iteration (`Factors::sums`), so a shared
/// input streams once per tile instead of once per product.
pub fn fold_sums<'p>(
    sums: impl IntoIterator<Item = (&'p Product, &'p mut f64)>,
    ev: &BlockEval,
    ctx: &TileCtx<'_>,
    n: usize,
) {
    const M: usize = simd::MAX_DOT_SUMS;
    let mut sums = sums.into_iter();
    loop {
        let mut fs = [Factors::NONE; M];
        let mut accs: [Option<&mut f64>; M] = Default::default();
        let mut m = 0;
        for ((p, acc), (f, slot)) in sums.by_ref().take(M).zip(fs.iter_mut().zip(&mut accs)) {
            *f = Factors::resolve(p.mains, &p.slots, ev, ctx, n);
            *slot = Some(acc);
            m += 1;
        }
        if m == 0 {
            return;
        }
        let mut out = [0.0; M];
        Factors::sums(&fs[..m], n, &mut out[..m]);
        for (acc, s) in accs.into_iter().flatten().zip(out) {
            *acc += s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::block::{compile_kernel, lower, TileSrc};
    use super::super::{Instr, Program, SideAccess};
    use super::*;
    use fusedml_linalg::ops::UnaryOp;

    #[test]
    fn fold_matches_map_then_fold() {
        // r = main ⊙ side0 ⊙ side1, 200 elements: three full chunks and a tail.
        let prog = Program {
            instrs: vec![
                Instr::LoadMain { out: 0 },
                Instr::LoadSide { out: 1, side: 0, access: SideAccess::Cell },
                Instr::LoadSide { out: 2, side: 1, access: SideAccess::Cell },
                Instr::Binary { out: 3, op: BinaryOp::Mult, a: 0, b: 1 },
                Instr::Binary { out: 4, op: BinaryOp::Mult, a: 3, b: 2 },
            ],
            n_regs: 5,
            vreg_lens: vec![],
        };
        let k = compile_kernel(&prog);
        let m = k.mono_for(4).expect("a three-factor chain is a product");
        assert_eq!(*m, Product { mains: 1, slots: vec![0, 1] });
        let bp = &k.block;
        let main: Vec<f64> = (0..200).map(|i| (i as f64) * 0.01 - 1.0).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let z: Vec<f64> = (0..200).map(|i| 0.5 + (i % 3) as f64).collect();
        let mut ev = BlockEval::new(bp, main.len());
        ev.set_invariants(bp, &|_, _| 0.0, &[]);
        let g = [TileSrc::Slice(&y[..]), TileSrc::Slice(&z[..])];
        let ctx = TileCtx { main: TileSrc::Slice(&main), uv: TileSrc::Const(0.0), gathers: &g };
        let mut out = vec![0.0; main.len()];
        m.map_into(&ev, &ctx, main.len(), &mut out);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.to_bits(), (main[i] * y[i] * z[i]).to_bits(), "element {i}");
        }
        // `Sum` is the fused `dot3_sum`, whose association differs from a
        // whole-tile sum: agreement is within the documented policy
        // (`linalg::simd`: ≤ 1e-12 relative). `Min` / `Max` are exact.
        let expect = fold_result(AggOp::Sum, 0.0, OpRef::S(&out), out.len());
        let got = m.fold(AggOp::Sum, 0.0, &ev, &ctx, main.len());
        assert!((got - expect).abs() <= 1e-12 * expect.abs().max(1.0), "{got} vs {expect}");
        for op in [AggOp::Min, AggOp::Max] {
            let expect = fold_result(op, op.identity(), OpRef::S(&out), out.len());
            assert_eq!(m.fold(op, op.identity(), &ev, &ctx, main.len()), expect, "{op:?}");
        }
    }

    /// Two, three, four and six products folded together — over a shared main
    /// `X`, with one three-factor product that keeps its own loop, and with a
    /// uniform main that turns factors into a prefactor — land on exactly the
    /// bits of one `Product::fold` each.
    #[test]
    fn fold_sums_are_bitwise_the_per_product_folds() {
        let cell = |out, side| Instr::LoadSide { out, side, access: SideAccess::Cell };
        let mult = |out, a, b| Instr::Binary { out, op: BinaryOp::Mult, a, b };
        let prog = Program {
            instrs: vec![
                Instr::LoadMain { out: 0 },
                cell(1, 0),
                cell(2, 1),
                cell(3, 2),
                mult(4, 0, 1), // X⊙Y
                mult(5, 0, 2), // X⊙Z
                mult(6, 1, 2),
                mult(7, 6, 3), // Y⊙Z⊙W
                mult(8, 0, 3), // X⊙W
            ],
            n_regs: 9,
            vreg_lens: vec![],
        };
        let k = compile_kernel(&prog);
        let products: Vec<&Product> =
            [4, 5, 7, 8, 0, 3].iter().map(|&r| k.mono_for(r).expect("a product")).collect();
        let bp = &k.block;
        let width = 300;
        let col = |seed: usize| -> Vec<f64> {
            (0..width).map(|i| (((i * 37 + seed * 11) % 101) as f64 - 50.0) / 7.0).collect()
        };
        let (x, y, z, w) = (col(1), col(2), col(3), col(4));
        let mut ev = BlockEval::new(bp, width);
        ev.set_invariants(bp, &|_, _| 0.0, &[]);
        let g = [TileSrc::Slice(&y[..]), TileSrc::Slice(&z[..]), TileSrc::Slice(&w[..])];
        for main in [TileSrc::Slice(&x[..]), TileSrc::Const(2.5)] {
            let ctx = TileCtx { main, uv: TileSrc::Const(0.0), gathers: &g };
            for n in [0, 1, 3, 4, 5, 256, 257, 300] {
                for count in [2, 3, 4, 6] {
                    let ps = &products[..count];
                    let start: Vec<f64> = (0..count).map(|j| j as f64 - 1.5).collect();
                    let want: Vec<f64> = ps
                        .iter()
                        .zip(&start)
                        .map(|(p, &acc)| p.fold(AggOp::Sum, acc, &ev, &ctx, n))
                        .collect();
                    let mut got = start.clone();
                    fold_sums(ps.iter().copied().zip(got.iter_mut()), &ev, &ctx, n);
                    for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(g.to_bits(), w.to_bits(), "{count} products, n={n}, #{j}");
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_bodies_stay_on_the_interpreter() {
        // A 13-op unary chain is not a product, however long: there is no
        // size bound to pass or fail, only the one shape.
        let mut instrs = vec![Instr::LoadMain { out: 0 }];
        for i in 0..13u16 {
            instrs.push(Instr::Unary { out: i + 1, op: UnaryOp::Abs, a: i });
        }
        let prog = Program { n_regs: 14, instrs, vreg_lens: vec![] };
        let bp = lower(&prog);
        assert!(classify(&bp, 13).is_none());
        assert_eq!(compile_kernel(&prog).mono_for(13), None);
    }
}
