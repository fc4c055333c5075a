//! The `SpoofRowwise` skeleton: iterates rows of the main input, evaluating
//! the vector register program per row, and applies the Row output variant
//! (paper Table 1, Figure 3(c)).
//!
//! Two backends share every output variant. The **block backend** (default)
//! executes the band-lowered [`RowKernel`] a **tile of `RB` consecutive main
//! rows per instruction dispatch**: worker threads own one context per
//! contiguous *row band* (one pooled register file, the kernel's invariant
//! prologue — constants, whole-vector side loads, derivations — replayed
//! once per band), a vector register is an `RB × len` row-major tile and a
//! scalar register `RB` lanes, main rows and row-aligned dense side rows
//! are zero-copy `(slice, row stride)` views, and an invariant register is
//! one row at stride 0. Element-wise instructions run once over a tile
//! whose rows are adjacent in memory. The matrix-shaped work goes through
//! the register-blocked `simd::gemm` kernel: `VecMatMult` is
//! `tile(h×m) · side(m×k)` against the side packed once per band into
//! zero-padded panels (dense or sparse side alike), and an `OuterColAgg`
//! output is the rank-`h` update `acc += leftᵀ · right` with `left` read
//! through swapped strides. `gemm` picks its register tile per block, so
//! a narrow side (`k ≤ 4`: 8 tile rows at a time) and a short accumulator
//! (1, 2 or 5 rows: exactly those rows, 8–10 FMA chains wide) keep the FMA
//! ports busy like a wide one. Every output element still sums over the
//! inner index in ascending order, so tiling moves no result beyond what
//! FMA contraction already allowed. Sparse main rows execute directly over
//! their non-zeros whenever the kernel is [`RowKernel::sparse_main_ok`]
//! (the paper's `genexecSparse` split, §2.2): `VecMatMult` accumulates a
//! panel's columns in registers across the non-zeros
//! (`simd::sparse_row_gemm`), and a sparse left operand of the outer update
//! scatters the right operand's row into one accumulator row per non-zero
//! (`simd::scatter_axpy`). A ragged band tail is a shorter tile. The
//! `Xᵀ(Xv)`-style mv-chain shape ([`RowShape::MvChain`](block::RowShape)) runs the
//! same body at a tile height cut to what keeps its rows in L1 between the
//! dot and the axpy that reads them again — a row or two of a 1000-column
//! dense main, the full `RB` of short or sparse rows. The **interpreter
//! backend** is the original per-row evaluator, retained as the
//! differential-test oracle.

use super::scalar::value_at;
use fusedml_core::spoof::block::{self, RowKernel};
use fusedml_core::spoof::{Instr, Program, Reg, RowOut, RowSpec, SideAccess};
use fusedml_linalg::ops::{bin_loop, bin_rows, ter_loop, un_loop, AggOp, BinaryOp, OpRef, RowsRef};
use fusedml_linalg::simd::CsrRows;
use fusedml_linalg::{par, pool, primitives as prim, simd, DenseMatrix, Matrix};
use std::borrow::Cow;

/// Which execution backend the Row skeleton uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowBackend {
    /// The original per-row vector-program interpreter (differential-test
    /// oracle).
    Interp,
    /// Band-lowered execution over the [`RowKernel`] (default): per-band
    /// contexts, invariant hoisting, a tile of rows per instruction,
    /// sparse-aware rows.
    Block,
}

/// Executes a Row operator over the main input's rows with its band-lowered
/// `kernel` under an explicit backend ([`super::execute`] passes
/// [`RowBackend::Block`]; differential tests pin [`RowBackend::Interp`] as
/// the oracle for the band-lowered path).
pub fn execute_with(
    spec: &RowSpec,
    kernel: &RowKernel,
    main: &Matrix,
    sides: &[Matrix],
    scalars: &[f64],
    backend: RowBackend,
) -> Matrix {
    match backend {
        RowBackend::Block => block_exec(spec, kernel, main, sides, scalars),
        RowBackend::Interp => interp_exec(spec, main, sides, scalars),
    }
}

/// Per-row work estimate for the parallel-split heuristic: each vector
/// instruction streams roughly one row's worth of values (non-zeros for
/// sparse mains), so the estimate scales with *both* program length and
/// effective row width — short programs over wide rows still parallelize,
/// and long programs over skinny (or very sparse) rows don't run serial.
fn work_per_row(spec: &RowSpec, main: &Matrix) -> usize {
    let eff_cols = match main {
        Matrix::Sparse(s) => (s.nnz() / s.rows().max(1)).max(1),
        Matrix::Dense(_) => main.cols(),
    };
    spec.prog.instrs.len().max(4) * eff_cols.max(4)
}

// ===========================================================================
// Block backend: band contexts over the lowered RowKernel, a tile at a time
// ===========================================================================

/// Main rows one instruction dispatch covers. Picked from the sweep recorded
/// in BENCH_NOTES_ARCHIVE.md's tile-of-rows section: tall enough that a
/// rank-`RB` accumulator update amortizes its loads and stores of `C`, short
/// enough that `RB` rows of a 1000-column main still sit in L2 between the
/// instructions that reread it.
const RB: usize = 16;

/// Bytes of main rows a tile of an mv-chain kernel (`RowShape::MvChain`:
/// a dot over the rows, then an axpy of the same rows) may span, so the axpy
/// still finds them in L1: half of a 32 KB L1d.
const L1_TILE_BYTES: usize = 16 << 10;

/// `h` rows of one vector operand: row `i` is `data[i·stride..][..len]`.
/// Main rows and row-aligned dense side rows are views into their matrix
/// (`stride` = its column count), owned registers are adjacent rows
/// (`stride == len`), and an invariant register is one row every tile row
/// reads (`stride == 0`).
#[derive(Clone, Copy)]
struct Tile<'a> {
    data: &'a [f64],
    stride: usize,
    len: usize,
}

impl<'a> Tile<'a> {
    #[inline]
    fn row(self, i: usize) -> &'a [f64] {
        &self.data[i * self.stride..i * self.stride + self.len]
    }

    /// The rows as a [`bin_rows`] operand.
    #[inline]
    fn rows(self) -> RowsRef<'a> {
        RowsRef::Rows(self.data, self.stride)
    }

    /// The `h` rows as one slice when they are adjacent in memory.
    #[inline]
    fn flat(self, h: usize) -> Option<&'a [f64]> {
        (h == 1 || self.stride == self.len).then(|| &self.data[..h * self.len])
    }
}

/// The current tile of main rows `r0..r0 + h`: zero-copy dense rows or the
/// raw CSR rows, their `h + 1` row pointers resolved once per tile.
#[derive(Clone, Copy)]
enum MainTile<'a> {
    Dense(Tile<'a>),
    Sparse(CsrRows<'a>),
}

/// Resolves main tiles for a band: dense rows are borrowed, sparse rows pass
/// through as non-zeros when the kernel allows, and densify into band-owned
/// pooled scratch otherwise (taken once per band, not once per tile).
struct RowReader<'a> {
    main: &'a Matrix,
    scratch: Vec<f64>,
    sparse_ok: bool,
}

impl<'a> RowReader<'a> {
    fn new(main: &'a Matrix, sparse_ok: bool, rb: usize) -> Self {
        let scratch = match main {
            Matrix::Sparse(_) if !sparse_ok => pool::take_zeroed(rb * main.cols()),
            _ => Vec::new(),
        };
        RowReader { main, scratch, sparse_ok }
    }

    fn tile(&mut self, r0: usize, h: usize) -> MainTile<'_> {
        let m = self.main.cols();
        match self.main {
            Matrix::Dense(d) => {
                MainTile::Dense(Tile { data: &d.values()[r0 * m..], stride: m, len: m })
            }
            Matrix::Sparse(s) if self.sparse_ok => MainTile::Sparse(s.csr_rows(r0, h)),
            Matrix::Sparse(s) => {
                self.scratch[..h * m].fill(0.0);
                for (i, row) in self.scratch.chunks_exact_mut(m.max(1)).take(h).enumerate() {
                    for (c, v) in s.row_iter(r0 + i) {
                        row[c] = v;
                    }
                }
                MainTile::Dense(Tile { data: &self.scratch, stride: m, len: m })
            }
        }
    }
}

impl Drop for RowReader<'_> {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.scratch));
    }
}

/// Where a vector register's current tile lives.
#[derive(Clone, Copy)]
enum VSlot {
    /// In the band's register file from `off`: one row per tile row, or a
    /// single row when the register is invariant (`uniform`).
    Owned { off: usize, uniform: bool },
    /// The (virtual) main tile.
    Main,
    /// A zero-copy view of a dense side: tile row `i` over main row `r`
    /// starts at `values[r·stride + base]` — `stride` is the side's column
    /// count for a row-aligned slice, `0` for a whole-vector or broadcast
    /// load.
    Side { side: u16, base: usize, stride: usize },
}

/// Per-band execution context: the tile register files (the paper's
/// preallocated per-thread ring buffer) and the packed `VecMatMult`
/// operands, drawn from the pool once per band and given back when it ends,
/// with the kernel's invariant prologue replayed at construction.
struct BandCtx<'a> {
    kernel: &'a RowKernel,
    spec: &'a RowSpec,
    sides: &'a [Matrix],
    scalars: &'a [f64],
    /// Tile height the register files are sized for.
    rb: usize,
    /// `n_regs × rb` scalar lanes (register `r`, tile row `l` at
    /// `r·rb + l`), then every [`VSlot::Owned`] vector register.
    file: Vec<f64>,
    /// Where the vector registers start in `file`.
    vbase: usize,
    vslots: Vec<VSlot>,
    /// The packed-panel form (`simd::pack_panels`) of each side a
    /// `VecMatMult` multiplies by; empty for the others.
    panels: Vec<Vec<f64>>,
}

/// What a tile's instructions read besides the register file: the slots, the
/// dense sides and the main tile at `r0`.
#[derive(Clone, Copy)]
struct Env<'s> {
    vslots: &'s [VSlot],
    lens: &'s [usize],
    sides: &'s [Matrix],
    main: MainTile<'s>,
    r0: usize,
}

/// Read access to a tile's vector registers: the register file on either
/// side of the output register an instruction holds mutably (all of it in
/// `lo` when there is none).
struct Srcs<'s> {
    env: Env<'s>,
    lo: &'s [f64],
    hi: &'s [f64],
    hi_off: usize,
}

impl<'s> Env<'s> {
    /// Every register, read-only.
    fn read(self, vfile: &'s [f64]) -> Srcs<'s> {
        Srcs { env: self, lo: vfile, hi: &[], hi_off: usize::MAX }
    }

    /// The `h` rows of output register `out`, mutably, and every other
    /// register to read (registers are SSA-allocated: an instruction never
    /// reads its own output).
    fn write(self, vfile: &'s mut [f64], out: u16, h: usize) -> (&'s mut [f64], Srcs<'s>) {
        let VSlot::Owned { off, .. } = self.vslots[out as usize] else {
            unreachable!("vector instruction writes an owned register")
        };
        let (lo, rest) = vfile.split_at_mut(off);
        let (dst, hi) = rest.split_at_mut(self.lens[out as usize] * h);
        let hi_off = off + dst.len();
        (dst, Srcs { env: self, lo, hi, hi_off })
    }
}

impl<'s> Srcs<'s> {
    /// The tile's CSR rows when `v` is the main register of a sparse tile.
    #[inline]
    fn sparse(&self, v: u16) -> Option<CsrRows<'s>> {
        match (self.env.vslots[v as usize], self.env.main) {
            (VSlot::Main, MainTile::Sparse(rows)) => Some(rows),
            _ => None,
        }
    }

    /// Resolves a vector register to its tile. Panics on a dense read of a
    /// sparse main tile — lowering guarantees that never happens.
    fn tile(&self, v: u16) -> Tile<'s> {
        let len = self.env.lens[v as usize];
        match self.env.vslots[v as usize] {
            VSlot::Owned { off, uniform } => {
                let data =
                    if off < self.hi_off { &self.lo[off..] } else { &self.hi[off - self.hi_off..] };
                Tile { data, stride: if uniform { 0 } else { len }, len }
            }
            VSlot::Main => match self.env.main {
                MainTile::Dense(t) => t,
                MainTile::Sparse(_) => unreachable!("dense read of sparse main tile"),
            },
            VSlot::Side { side, base, stride } => {
                let vals = self.env.sides[side as usize].dense_values().expect("dense side");
                Tile { data: &vals[self.env.r0 * stride + base..], stride, len }
            }
        }
    }
}

/// Runs `f(a, dst)` once over the whole tile when `a`'s rows are adjacent in
/// memory, else once per tile row.
fn map_tile(h: usize, a: Tile<'_>, dst: &mut [f64], mut f: impl FnMut(&[f64], &mut [f64])) {
    match a.flat(h) {
        Some(src) => f(src, dst),
        None => {
            for (i, d) in dst.chunks_exact_mut(a.len.max(1)).enumerate() {
                f(a.row(i), d);
            }
        }
    }
}

impl<'a> BandCtx<'a> {
    fn new(
        kernel: &'a RowKernel,
        spec: &'a RowSpec,
        sides: &'a [Matrix],
        scalars: &'a [f64],
        rb: usize,
    ) -> Self {
        let prog = &spec.prog;
        let mut slots: Vec<Option<VSlot>> = vec![None; prog.vreg_lens.len()];
        for &m in &kernel.main_vregs {
            slots[m as usize] = Some(VSlot::Main);
        }
        let mut panels: Vec<Vec<f64>> = sides.iter().map(|_| Vec::new()).collect();
        for ins in kernel.invariant.iter().chain(&kernel.per_row) {
            match *ins {
                Instr::LoadSideRow { out, side, cl, .. } => {
                    if let Matrix::Dense(d) = &sides[side] {
                        let stride =
                            if kernel.invariant_vregs[out as usize] { 0 } else { d.cols() };
                        slots[out as usize] =
                            Some(VSlot::Side { side: side as u16, base: cl, stride });
                    }
                }
                Instr::VecMatMult { side, .. } if panels[side].is_empty() => {
                    panels[side] = pack_side(&sides[side]);
                }
                _ => {}
            }
        }
        let vbase = prog.n_regs as usize * rb;
        let mut end = 0;
        let vslots = slots
            .into_iter()
            .enumerate()
            .map(|(v, slot)| {
                slot.unwrap_or_else(|| {
                    let uniform = kernel.invariant_vregs[v];
                    let off = end;
                    end += prog.vreg_lens[v] * if uniform { 1 } else { rb };
                    VSlot::Owned { off, uniform }
                })
            })
            .collect();
        let file = pool::take_zeroed(vbase + end);
        let mut ctx = BandCtx { kernel, spec, sides, scalars, rb, file, vbase, vslots, panels };
        // The prologue runs as a tile of one row; its scalars then fill
        // every lane, its vectors are single rows every tile row reads.
        let no_main = MainTile::Dense(Tile { data: &[], stride: 0, len: 0 });
        for ins in &kernel.invariant {
            ctx.exec_instr(ins, 0, 1, no_main);
        }
        for lanes in ctx.file[..vbase].chunks_exact_mut(rb) {
            lanes.fill(lanes[0]);
        }
        ctx
    }

    /// Scalar register `r` of tile row `l`.
    #[inline]
    fn scalar(&self, r: Reg, l: usize) -> f64 {
        self.file[r as usize * self.rb + l]
    }

    /// Read access to every register of the tile at `r0`.
    fn srcs<'s>(&'s self, r0: usize, main: MainTile<'s>) -> Srcs<'s> {
        let env = Env {
            vslots: &self.vslots,
            lens: &self.spec.prog.vreg_lens,
            sides: self.sides,
            main,
            r0,
        };
        env.read(&self.file[self.vbase..])
    }

    /// Evaluates the per-row body for main rows `r0..r0 + h`, one dispatch
    /// per instruction.
    fn run_tile(&mut self, r0: usize, h: usize, main: MainTile<'_>) {
        let kernel = self.kernel;
        for ins in &kernel.per_row {
            self.exec_instr(ins, r0, h, main);
        }
    }

    fn exec_instr(&mut self, ins: &Instr, r0: usize, h: usize, main: MainTile<'_>) {
        let (rb, sides) = (self.rb, self.sides);
        let lens = &self.spec.prog.vreg_lens;
        let env = Env { vslots: &self.vslots, lens, sides, main, r0 };
        let (sregs, vfile) = self.file.split_at_mut(self.vbase);
        match *ins {
            // ---- scalar instructions: one lane per tile row --------------
            Instr::LoadMain { out } => {
                // Degenerate scalar main (not used by Row plans): the first
                // cell of each row.
                for (l, lane) in sregs[out as usize * rb..][..h].iter_mut().enumerate() {
                    *lane = match main {
                        MainTile::Dense(t) => t.row(l).first().copied().unwrap_or(0.0),
                        MainTile::Sparse(rows) => match rows.row(l) {
                            ([0, ..], vals) => vals[0],
                            _ => 0.0,
                        },
                    };
                }
            }
            Instr::LoadUVDot { .. } => panic!("UVDot in Row program"),
            Instr::LoadSide { out, side, access } => {
                let lanes = &mut sregs[out as usize * rb..][..h];
                match &sides[side] {
                    // An `n×1` column read down the rows: the tile's lanes
                    // are adjacent.
                    Matrix::Dense(d)
                        if d.cols() == 1
                            && matches!(access, SideAccess::Col | SideAccess::Cell) =>
                    {
                        lanes.copy_from_slice(&d.values()[r0..r0 + h]);
                    }
                    s => {
                        for (l, lane) in lanes.iter_mut().enumerate() {
                            *lane = value_at(s, access, r0 + l, 0);
                        }
                    }
                }
            }
            Instr::LoadScalar { out, idx } => {
                sregs[out as usize * rb..][..h].fill(self.scalars[idx]);
            }
            Instr::LoadConst { out, value } => sregs[out as usize * rb..][..h].fill(value),
            Instr::Unary { out, op, a } => {
                let x = copy_lanes(sregs, rb, a, h);
                un_loop(op, OpRef::S(&x), &mut sregs[out as usize * rb..][..h]);
            }
            Instr::Binary { out, op, a, b } => {
                let (x, y) = (copy_lanes(sregs, rb, a, h), copy_lanes(sregs, rb, b, h));
                bin_loop(op, OpRef::S(&x), OpRef::S(&y), &mut sregs[out as usize * rb..][..h]);
            }
            Instr::Ternary { out, op, a, b, c } => {
                let [x, y, z] = [a, b, c].map(|r| copy_lanes(sregs, rb, r, h));
                let dst = &mut sregs[out as usize * rb..][..h];
                ter_loop(op, OpRef::S(&x), OpRef::S(&y), OpRef::S(&z), dst);
            }
            // ---- vector loads --------------------------------------------
            Instr::LoadMainRow { .. } => {} // virtual: reads resolve via the main tile
            Instr::LoadSideRow { out, side, cl, cu } => {
                // Dense sides were bound as zero-copy views at construction;
                // a sparse side densifies the tile's rows into the register.
                if let VSlot::Owned { off, .. } = self.vslots[out as usize] {
                    let s = &sides[side];
                    let len = cu - cl;
                    let dst = &mut vfile[off..off + len * h];
                    // A col-vector side read at full length is a
                    // whole-vector view (`v` in `X %*% v`), not a row slice.
                    if block::whole_vector_load(s.rows(), s.cols(), cl, cu) {
                        s.read_vector_into(dst);
                    } else {
                        for (i, row) in dst.chunks_exact_mut(len.max(1)).enumerate() {
                            s.read_row_into(r0 + i, cl, cu, row);
                        }
                    }
                }
            }
            // ---- vector compute ------------------------------------------
            Instr::VecUnary { out, op, a } => {
                let (dst, srcs) = env.write(vfile, out, h);
                map_tile(h, srcs.tile(a), dst, |src, d| un_loop(op, OpRef::S(src), d));
            }
            Instr::VecBinaryVV { out, op, a, b } => {
                let (dst, srcs) = env.write(vfile, out, h);
                let (ta, tb) = (srcs.tile(a), srcs.tile(b));
                match (ta.flat(h), tb.flat(h)) {
                    (Some(x), Some(y)) => bin_loop(op, OpRef::S(x), OpRef::S(y), dst),
                    _ => bin_rows(op, ta.rows(), tb.rows(), ta.len, dst),
                }
            }
            Instr::VecBinaryVS { out, op, a, b, scalar_left } => {
                let (dst, srcs) = env.write(vfile, out, h);
                let ta = srcs.tile(a);
                let s = RowsRef::Lanes(&sregs[b as usize * rb..][..h]);
                let (x, y) = if scalar_left { (s, ta.rows()) } else { (ta.rows(), s) };
                bin_rows(op, x, y, ta.len, dst);
            }
            Instr::VecMatMult { out, a, side } => {
                let (kc, k) = (sides[side].rows(), sides[side].cols());
                let bp = &self.panels[side];
                let (dst, srcs) = env.write(vfile, out, h);
                debug_assert_eq!((kc, k), (lens[a as usize], lens[out as usize]));
                if let Some(rows) = srcs.sparse(a) {
                    simd::sparse_row_gemm(rows, bp, kc, dst);
                } else {
                    let ta = srcs.tile(a);
                    let lhs = simd::Lhs { data: ta.data, rs: ta.stride, cs: 1 };
                    simd::gemm(dst, k, (h, k, kc), lhs, simd::Rhs::Packed(bp), false);
                }
            }
            Instr::Dot { out, a, b } => {
                let srcs = env.read(vfile);
                let lanes = &mut sregs[out as usize * rb..][..h];
                // Which operand is the sparse main tile is one decision per
                // tile; the dense operand resolves once.
                match (srcs.sparse(a), srcs.sparse(b)) {
                    (None, None) => {
                        let (ta, tb) = (srcs.tile(a), srcs.tile(b));
                        simd::dot_rows(ta.data, ta.stride, tb.data, tb.stride, ta.len, lanes);
                    }
                    (Some(rows), Some(_)) => {
                        for (l, lane) in lanes.iter_mut().enumerate() {
                            let (_, vals) = rows.row(l);
                            *lane = prim::vect_sum_sq(vals, 0, vals.len());
                        }
                    }
                    (Some(rows), None) | (None, Some(rows)) => {
                        let dense = srcs.tile(if srcs.sparse(a).is_some() { b } else { a });
                        for (l, lane) in lanes.iter_mut().enumerate() {
                            let (cols, vals) = rows.row(l);
                            *lane = prim::dot_product_sparse(vals, cols, dense.row(l), 0);
                        }
                    }
                }
            }
            Instr::VecAgg { out, op, a } => {
                let srcs = env.read(vfile);
                let lanes = &mut sregs[out as usize * rb..][..h];
                match srcs.sparse(a) {
                    None => dense_aggs(op, srcs.tile(a), lanes),
                    Some(rows) => {
                        for (l, lane) in lanes.iter_mut().enumerate() {
                            *lane = sparse_agg(op, rows.row(l).1, lens[a as usize]);
                        }
                    }
                }
            }
            Instr::VecCumsum { out, a } => {
                let (dst, srcs) = env.write(vfile, out, h);
                let ta = srcs.tile(a);
                for (i, d) in dst.chunks_exact_mut(ta.len.max(1)).enumerate() {
                    d.copy_from_slice(ta.row(i));
                    prim::vect_cumsum_inplace(d);
                }
            }
        }
    }

    // ---- output emission -------------------------------------------------

    /// `dst = vregs[src]` for the tile's `h` rows of `dst` (scatter over
    /// non-zeros for a sparse main tile; `dst` arrives zeroed).
    fn write_tile(&self, src: u16, r0: usize, h: usize, main: MainTile<'_>, dst: &mut [f64]) {
        let srcs = self.srcs(r0, main);
        let k = dst.len() / h;
        if let Some(rows) = srcs.sparse(src) {
            for (i, d) in dst.chunks_exact_mut(k.max(1)).enumerate() {
                let (cols, vals) = rows.row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    d[c] = v;
                }
            }
        } else {
            map_tile(h, srcs.tile(src), dst, |s, d| d.copy_from_slice(s));
        }
    }

    /// `acc += scale_i · vregs[src]` over the tile's rows in order, `scale_i`
    /// the lane of scalar register `scale` (or 1 for a plain column sum).
    fn add_tile(
        &self,
        src: u16,
        scale: Option<Reg>,
        r0: usize,
        h: usize,
        main: MainTile<'_>,
        acc: &mut [f64],
    ) {
        let srcs = self.srcs(r0, main);
        let sparse = srcs.sparse(src);
        let dense = sparse.is_none().then(|| srcs.tile(src));
        for i in 0..h {
            match (dense, sparse.map(|rows| rows.row(i)), scale.map(|s| self.scalar(s, i))) {
                (Some(t), _, None) => prim::vect_add(t.row(i), acc, 0, 0, acc.len()),
                (Some(t), _, Some(s)) => prim::vect_mult_add(t.row(i), s, acc, 0, 0, acc.len()),
                (None, Some((cols, vals)), None) => prim::vect_add_sparse(vals, cols, acc, 0),
                (None, Some((cols, vals)), Some(s)) => {
                    prim::vect_mult_add_sparse(vals, cols, s, acc, 0)
                }
                (None, None, _) => unreachable!("a tile is dense or sparse"),
            }
        }
    }

    /// `acc[i, j] += Σ_l left_l[i] · right_l[j]` over the tile's rows `l` in
    /// order — a rank-`h` update of the row-major `orows × ocols`
    /// accumulator, iterating main-row non-zeros where possible.
    #[allow(clippy::too_many_arguments)] // two registers, the tile, the accumulator and its geometry
    fn outer_add(
        &self,
        left: u16,
        right: u16,
        r0: usize,
        h: usize,
        main: MainTile<'_>,
        acc: &mut [f64],
        (orows, ocols): (usize, usize),
    ) {
        let srcs = self.srcs(r0, main);
        match (srcs.sparse(left), srcs.sparse(right)) {
            (None, None) => {
                // Dense on both sides: the whole tile in one update, `left`
                // read as its own transpose.
                let (l, r) = (srcs.tile(left), srcs.tile(right));
                let lhs = simd::Lhs { data: l.data, rs: 1, cs: l.stride };
                let rhs = simd::Rhs::Rows { data: r.data, rs: r.stride };
                simd::gemm(acc, ocols, (orows, ocols, h), lhs, rhs, true);
            }
            (Some(rows), None) => {
                let t = srcs.tile(right);
                simd::scatter_axpy(rows, t.data, t.stride, ocols, acc);
            }
            (Some(rows), Some(_)) => {
                // x ⊗ x (per-row gram): nnz² updates.
                for i in 0..h {
                    let (cols, vals) = rows.row(i);
                    for (&ci, &vi) in cols.iter().zip(vals) {
                        prim::vect_mult_add_sparse(vals, cols, vi, acc, ci * ocols);
                    }
                }
            }
            (None, Some(rows)) => {
                for i in 0..h {
                    let (cols, vals) = rows.row(i);
                    for (j, &lv) in srcs.tile(left).row(i).iter().enumerate().take(orows) {
                        if lv != 0.0 {
                            prim::vect_mult_add_sparse(vals, cols, lv, acc, j * ocols);
                        }
                    }
                }
            }
        }
    }
}

impl Drop for BandCtx<'_> {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.file));
        for p in self.panels.drain(..) {
            pool::give(p);
        }
    }
}

/// The packed-panel form of a `VecMatMult` side, in a pooled buffer: dense
/// sides copy row by row, sparse sides scatter their non-zeros.
fn pack_side(s: &Matrix) -> Vec<f64> {
    let (kc, k) = (s.rows(), s.cols());
    let mut bp = pool::take_zeroed(simd::packed_len(kc, k));
    match s {
        Matrix::Dense(d) => simd::pack_panels(d.values(), k, (kc, k), &mut bp),
        Matrix::Sparse(sp) => {
            for p in 0..kc {
                for (j, v) in sp.row_iter(p) {
                    bp[simd::packed_index(kc, p, j)] = v;
                }
            }
        }
    }
    bp
}

/// Scalar register `r`'s `h` lanes, copied out of the register file the
/// instruction writes.
#[inline]
fn copy_lanes(sregs: &[f64], rb: usize, r: Reg, h: usize) -> [f64; RB] {
    let mut x = [0.0; RB];
    x[..h].copy_from_slice(&sregs[r as usize * rb..][..h]);
    x
}

/// `out[i] = dense_agg(op, t.row(i))` for the tile's `out.len()` rows, the
/// sums in one `simd::sum_rows` call.
fn dense_aggs(op: AggOp, t: Tile<'_>, out: &mut [f64]) {
    match op {
        AggOp::Sum | AggOp::SumSq | AggOp::Mean => {
            simd::sum_rows(t.data, t.stride, t.len, op == AggOp::SumSq, out);
            if op == AggOp::Mean {
                out.iter_mut().for_each(|o| *o /= t.len as f64);
            }
        }
        AggOp::Min | AggOp::Max => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = dense_agg(op, t.row(i));
            }
        }
    }
}

fn dense_agg(op: AggOp, v: &[f64]) -> f64 {
    match op {
        AggOp::Sum => prim::vect_sum(v, 0, v.len()),
        AggOp::SumSq => prim::vect_sum_sq(v, 0, v.len()),
        AggOp::Min => prim::vect_min(v, 0, v.len()),
        AggOp::Max => prim::vect_max(v, 0, v.len()),
        AggOp::Mean => prim::vect_sum(v, 0, v.len()) / v.len() as f64,
    }
}

/// Aggregates a sparse main row of logical length `len` over its non-zeros
/// `vals`; `Mean` divides by the full length. `Min` / `Max` fold one `0.0`
/// for the implicit zeros, if any: `ops::min` / `ops::max` order `-0.0`
/// below `+0.0`, so where the zero falls does not matter.
fn sparse_agg(op: AggOp, vals: &[f64], len: usize) -> f64 {
    match op {
        AggOp::Sum => prim::vect_sum(vals, 0, vals.len()),
        AggOp::SumSq => prim::vect_sum_sq(vals, 0, vals.len()),
        AggOp::Mean => prim::vect_sum(vals, 0, vals.len()) / len as f64,
        AggOp::Min | AggOp::Max => {
            let acc = dense_agg(op, vals);
            if vals.len() < len {
                op.fold(acc, 0.0)
            } else {
                acc
            }
        }
    }
}

/// The tiles `(r0, h)` covering rows `lo..hi`, `rb` rows each and a ragged
/// last one.
fn tiles(lo: usize, hi: usize, rb: usize) -> impl Iterator<Item = (usize, usize)> {
    (lo..hi).step_by(rb).map(move |r0| (r0, rb.min(hi - r0)))
}

/// The output dims over an `n`-row main input: the variant's shape, its
/// vector widths the lengths of the registers it writes.
fn out_dims(spec: &RowSpec, n: usize) -> (usize, usize) {
    let len = |v: u16| spec.prog.vreg_lens[v as usize];
    match spec.out {
        RowOut::NoAgg { src } => (n, len(src)),
        RowOut::RowAgg { .. } => (n, 1),
        RowOut::ColAgg { src } => (1, len(src)),
        RowOut::FullAgg { .. } => (1, 1),
        RowOut::OuterColAgg { left, right } => (len(left), len(right)),
        RowOut::ColAggMultAdd { vec, .. } => (len(vec), 1),
    }
}

fn block_exec(
    spec: &RowSpec,
    kernel: &RowKernel,
    main: &Matrix,
    sides: &[Matrix],
    scalars: &[f64],
) -> Matrix {
    let n = main.rows();
    let (orows, ocols) = out_dims(spec, n);
    let work = work_per_row(spec, main);
    // An mv-chain rereads its tile's main rows at once: keep them in L1.
    let rb = if kernel.shape.is_some() {
        let row_bytes = match main {
            Matrix::Sparse(s) => 16 * s.nnz() / s.rows().max(1),
            Matrix::Dense(d) => 8 * d.cols(),
        };
        (L1_TILE_BYTES / row_bytes.max(1)).clamp(1, RB)
    } else {
        RB
    };
    let band = || {
        (
            BandCtx::new(kernel, spec, sides, scalars, rb),
            RowReader::new(main, kernel.sparse_main_ok, rb),
        )
    };
    let add_reduce = |mut a: Vec<f64>, b: Vec<f64>| {
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x += y;
        }
        pool::give(b);
        a
    };
    match &spec.out {
        RowOut::NoAgg { src } => {
            let mut out = pool::take_zeroed(n * ocols);
            par::par_row_bands_mut(&mut out, n, ocols, work, |b0, rows| {
                let (mut ctx, mut rr) = band();
                for (r0, h) in tiles(0, rows.len() / ocols.max(1), rb) {
                    let view = rr.tile(b0 + r0, h);
                    ctx.run_tile(b0 + r0, h, view);
                    ctx.write_tile(*src, b0 + r0, h, view, &mut rows[r0 * ocols..(r0 + h) * ocols]);
                }
            });
            Matrix::dense(DenseMatrix::new(n, ocols, out))
        }
        RowOut::RowAgg { src } => {
            let mut out = pool::take_zeroed(n);
            par::par_row_bands_mut(&mut out, n, 1, work, |b0, rows| {
                let (mut ctx, mut rr) = band();
                for (r0, h) in tiles(0, rows.len(), rb) {
                    let view = rr.tile(b0 + r0, h);
                    ctx.run_tile(b0 + r0, h, view);
                    for (l, slot) in rows[r0..r0 + h].iter_mut().enumerate() {
                        *slot = ctx.scalar(*src, l);
                    }
                }
            });
            Matrix::dense(DenseMatrix::new(n, 1, out))
        }
        RowOut::FullAgg { src } => {
            let acc = par::par_map_reduce(
                n,
                work,
                0.0f64,
                |lo, hi| {
                    let (mut ctx, mut rr) = band();
                    let mut acc = 0.0;
                    for (r0, h) in tiles(lo, hi, rb) {
                        ctx.run_tile(r0, h, rr.tile(r0, h));
                        for l in 0..h {
                            acc += ctx.scalar(*src, l);
                        }
                    }
                    acc
                },
                |a, b| a + b,
            );
            Matrix::dense(DenseMatrix::filled(1, 1, acc))
        }
        // The accumulating outputs: one zeroed accumulator per band, summed
        // in band order; only the per-tile update differs.
        out @ (RowOut::ColAgg { .. }
        | RowOut::OuterColAgg { .. }
        | RowOut::ColAggMultAdd { .. }) => {
            let len = orows * ocols;
            let acc = par::par_map_reduce(
                n,
                work,
                pool::take_zeroed(len),
                |lo, hi| {
                    let (mut ctx, mut rr) = band();
                    let mut acc = pool::take_zeroed(len);
                    for (r0, h) in tiles(lo, hi, rb) {
                        let view = rr.tile(r0, h);
                        ctx.run_tile(r0, h, view);
                        match *out {
                            RowOut::ColAgg { src } => {
                                ctx.add_tile(src, None, r0, h, view, &mut acc)
                            }
                            RowOut::ColAggMultAdd { vec, scalar } => {
                                ctx.add_tile(vec, Some(scalar), r0, h, view, &mut acc)
                            }
                            RowOut::OuterColAgg { left, right } => {
                                ctx.outer_add(left, right, r0, h, view, &mut acc, (orows, ocols))
                            }
                            _ => unreachable!("an accumulating output"),
                        }
                    }
                    acc
                },
                add_reduce,
            );
            Matrix::dense(DenseMatrix::new(orows, ocols, acc))
        }
    }
}

// ===========================================================================
// Interpreter backend (the differential-test oracle)
// ===========================================================================

/// One sequential loop over the main rows: run the row's program, then fold
/// its `RowOut` into the one output buffer.
fn interp_exec(spec: &RowSpec, main: &Matrix, sides: &[Matrix], scalars: &[f64]) -> Matrix {
    let n = main.rows();
    // Side matrices used by VecMatMult need row-major access: dense sides
    // are borrowed (the Cow stays Borrowed), sparse sides densify once.
    let dense_sides: Vec<Option<Cow<'_, [f64]>>> = (0..sides.len())
        .map(|s| {
            let used = spec
                .prog
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::VecMatMult { side, .. } if *side == s));
            used.then(|| sides[s].to_dense_values())
        })
        .collect();
    let (orows, ocols) = out_dims(spec, n);
    let mut out = vec![0.0; orows * ocols];
    let mut ctx = RowCtx::new(spec, main, sides, scalars, &dense_sides);
    for r in 0..n {
        ctx.run_row(r);
        let (v, s) = (|x: u16| &ctx.vregs[x as usize], |x: u16| ctx.sregs[x as usize]);
        match spec.out {
            RowOut::NoAgg { src } => out[r * ocols..(r + 1) * ocols].copy_from_slice(v(src)),
            RowOut::RowAgg { src } => out[r] = s(src),
            RowOut::ColAgg { src } => prim::vect_add(v(src), &mut out, 0, 0, ocols),
            RowOut::FullAgg { src } => out[0] += s(src),
            RowOut::OuterColAgg { left, right } => {
                prim::vect_outer_mult_add(v(left), v(right), &mut out, 0, 0, 0, orows, ocols)
            }
            RowOut::ColAggMultAdd { vec, scalar } => {
                prim::vect_mult_add(v(vec), s(scalar), &mut out, 0, 0, orows)
            }
        }
    }
    Matrix::dense(DenseMatrix::new(orows, ocols, out))
}

/// Execution context of the interpreter backend.
struct RowCtx<'a> {
    spec: &'a RowSpec,
    main: &'a Matrix,
    sides: &'a [Matrix],
    scalars: &'a [f64],
    dense_sides: &'a [Option<Cow<'a, [f64]>>],
    sregs: Vec<f64>,
    vregs: Vec<Vec<f64>>,
    main_buf: Vec<f64>,
}

impl<'a> RowCtx<'a> {
    fn new(
        spec: &'a RowSpec,
        main: &'a Matrix,
        sides: &'a [Matrix],
        scalars: &'a [f64],
        dense_sides: &'a [Option<Cow<'a, [f64]>>],
    ) -> Self {
        RowCtx {
            spec,
            main,
            sides,
            scalars,
            dense_sides,
            sregs: vec![0.0; spec.prog.n_regs as usize],
            vregs: spec.prog.vreg_lens.iter().map(|&l| vec![0.0; l]).collect(),
            main_buf: vec![0.0; main.cols()],
        }
    }

    /// Loads the main row into the context buffer (dense copy or sparse
    /// densification, the `genexecDense`/`genexecSparse` split of §2.2).
    fn load_main_row(&mut self, r: usize) {
        match self.main {
            Matrix::Dense(d) => self.main_buf.copy_from_slice(d.row(r)),
            Matrix::Sparse(s) => {
                self.main_buf.fill(0.0);
                for (c, v) in s.row_iter(r) {
                    self.main_buf[c] = v;
                }
            }
        }
    }

    fn run_row(&mut self, rix: usize) {
        self.load_main_row(rix);
        let prog: &Program = &self.spec.prog;
        for ins in &prog.instrs {
            match *ins {
                Instr::LoadMain { out } => {
                    // Degenerate scalar main (not used by Row plans, but
                    // kept for completeness): first cell of the row.
                    self.sregs[out as usize] = self.main_buf.first().copied().unwrap_or(0.0)
                }
                Instr::LoadUVDot { .. } => panic!("UVDot in Row program"),
                Instr::LoadSide { out, side, access } => {
                    self.sregs[out as usize] = value_at(&self.sides[side], access, rix, 0)
                }
                Instr::LoadScalar { out, idx } => self.sregs[out as usize] = self.scalars[idx],
                Instr::LoadConst { out, value } => self.sregs[out as usize] = value,
                Instr::Unary { out, op, a } => {
                    self.sregs[out as usize] = op.apply(self.sregs[a as usize])
                }
                Instr::Binary { out, op, a, b } => {
                    self.sregs[out as usize] =
                        op.apply(self.sregs[a as usize], self.sregs[b as usize])
                }
                Instr::Ternary { out, op, a, b, c } => {
                    self.sregs[out as usize] = op.apply(
                        self.sregs[a as usize],
                        self.sregs[b as usize],
                        self.sregs[c as usize],
                    )
                }
                Instr::LoadMainRow { out } => {
                    let dst = &mut self.vregs[out as usize];
                    dst.copy_from_slice(&self.main_buf);
                }
                Instr::LoadSideRow { out, side, cl, cu } => {
                    let s = &self.sides[side];
                    let dst = &mut self.vregs[out as usize];
                    // A col-vector side read at full length is a whole-vector
                    // view (`v` in `X %*% v`), not a row slice.
                    if block::whole_vector_load(s.rows(), s.cols(), cl, cu) {
                        s.read_vector_into(dst);
                    } else {
                        s.read_row_into(rix, cl, cu, dst);
                    }
                }
                Instr::VecUnary { out, op, a } => {
                    let (dst, src) = two_vregs(&mut self.vregs, out, a);
                    un_loop(op, OpRef::S(src), dst);
                }
                Instr::VecBinaryVV { out, op, a, b } => {
                    // Registers are SSA-allocated: `out` differs from both
                    // sources. Move `b` out to satisfy the borrow checker
                    // without copying, restoring it afterwards.
                    let b_vals = std::mem::take(&mut self.vregs[b as usize]);
                    let (dst, x) = two_vregs(&mut self.vregs, out, a);
                    let xs: &[f64] = if a == b { &b_vals } else { x };
                    bin_loop(op, OpRef::S(xs), OpRef::S(&b_vals), dst);
                    self.vregs[b as usize] = b_vals;
                }
                Instr::VecBinaryVS { out, op, a, b, scalar_left } => {
                    let s = self.sregs[b as usize];
                    let (dst, src) = two_vregs(&mut self.vregs, out, a);
                    vec_binary_vs(op, src, s, scalar_left, dst);
                }
                Instr::VecMatMult { out, a, side } => {
                    let bvals =
                        self.dense_sides[side].as_deref().expect("side densified for VecMatMult");
                    let k = self.sides[side].cols();
                    let (dst, src) = two_vregs(&mut self.vregs, out, a);
                    let len = src.len();
                    dst.fill(0.0);
                    for (i, &av) in src.iter().enumerate().take(len) {
                        if av != 0.0 {
                            prim::vect_mult_add(&bvals[i * k..(i + 1) * k], av, dst, 0, 0, k);
                        }
                    }
                }
                Instr::Dot { out, a, b } => {
                    let x = &self.vregs[a as usize];
                    let y = &self.vregs[b as usize];
                    self.sregs[out as usize] = prim::dot_product(x, y, 0, 0, x.len());
                }
                Instr::VecAgg { out, op, a } => {
                    self.sregs[out as usize] = dense_agg(op, &self.vregs[a as usize]);
                }
                Instr::VecCumsum { out, a } => {
                    let src = self.vregs[a as usize].clone();
                    let dst = &mut self.vregs[out as usize];
                    dst.copy_from_slice(&src);
                    prim::vect_cumsum_inplace(dst);
                }
            }
        }
    }
}

/// Borrows two distinct vector registers mutably/immutably.
fn two_vregs(vregs: &mut [Vec<f64>], out: u16, a: u16) -> (&mut [f64], &[f64]) {
    assert_ne!(out, a, "vector registers are SSA-allocated");
    let (o, a) = (out as usize, a as usize);
    if o < a {
        let (lo, hi) = vregs.split_at_mut(a);
        (&mut lo[o], &hi[0])
    } else {
        let (lo, hi) = vregs.split_at_mut(o);
        (&mut hi[0], &lo[a])
    }
}

/// `dst = op(a, s)`, or `op(s, a)` with the scalar on the left.
fn vec_binary_vs(op: BinaryOp, a: &[f64], s: f64, scalar_left: bool, dst: &mut [f64]) {
    let (a, s) = (OpRef::S(a), OpRef::C(s));
    let (x, y) = if scalar_left { (s, a) } else { (a, s) };
    bin_loop(op, x, y, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_core::spoof::Program;
    use fusedml_linalg::generate;
    use fusedml_linalg::ops::{self, AggDir, UnaryOp};

    /// Runs `backend` over a kernel lowered under the bound sides' geometry.
    fn run(
        spec: &RowSpec,
        main: &Matrix,
        sides: &[Matrix],
        scalars: &[f64],
        backend: RowBackend,
    ) -> Matrix {
        let dims: Vec<(usize, usize)> = sides.iter().map(|s| (s.rows(), s.cols())).collect();
        let kernel = block::compile_row_kernel(spec, &dims);
        execute_with(spec, &kernel, main, sides, scalars, backend)
    }

    fn execute(spec: &RowSpec, main: &Matrix, sides: &[Matrix], scalars: &[f64]) -> Matrix {
        run(spec, main, sides, scalars, RowBackend::Block)
    }

    /// Spec for `t(X) %*% (X %*% v)` — Row with ColAggMultAdd output.
    fn mv_chain_spec(m: usize) -> RowSpec {
        RowSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMainRow { out: 0 },
                    Instr::LoadSideRow { out: 1, side: 0, cl: 0, cu: m },
                    Instr::Dot { out: 0, a: 0, b: 1 },
                ],
                n_regs: 1,
                vreg_lens: vec![m, m],
            },
            out: RowOut::ColAggMultAdd { vec: 0, scalar: 0 },
        }
    }

    #[test]
    fn mv_chain_matches_reference() {
        let (n, m) = (200, 30);
        let x = generate::rand_dense(n, m, -1.0, 1.0, 1);
        let v = generate::rand_dense(m, 1, -1.0, 1.0, 2);
        for backend in [RowBackend::Interp, RowBackend::Block] {
            let out = run(&mv_chain_spec(m), &x, std::slice::from_ref(&v), &[], backend);
            let xv = ops::matmult(&x, &v);
            let expect = ops::matmult(&ops::transpose(&x), &xv);
            assert!(out.approx_eq(&expect, 1e-9), "{backend:?}: X^T(Xv) fused vs reference");
        }
    }

    #[test]
    fn mv_chain_sparse_main_agrees() {
        let (n, m) = (300, 25);
        let xs = generate::rand_matrix(n, m, -1.0, 1.0, 0.1, 3);
        let v = generate::rand_dense(m, 1, -1.0, 1.0, 4);
        for backend in [RowBackend::Interp, RowBackend::Block] {
            let out = run(&mv_chain_spec(m), &xs, std::slice::from_ref(&v), &[], backend);
            let expect = ops::matmult(&ops::transpose(&xs), &ops::matmult(&xs, &v));
            assert!(out.approx_eq(&expect, 1e-9), "{backend:?}");
        }
    }

    #[test]
    fn mv_chain_sparse_sides_agree() {
        // Sparse main AND sparse v: the block path must stay exact without
        // ever densifying either (the kernel is sparse_main_ok).
        let (n, m) = (300, 25);
        let xs = generate::rand_matrix(n, m, -1.0, 1.0, 0.1, 5);
        let vs = generate::rand_matrix(m, 1, -1.0, 1.0, 0.4, 6);
        let oracle =
            run(&mv_chain_spec(m), &xs, std::slice::from_ref(&vs), &[], RowBackend::Interp);
        let got = run(&mv_chain_spec(m), &xs, std::slice::from_ref(&vs), &[], RowBackend::Block);
        assert!(got.approx_eq(&oracle, 1e-9));
    }

    #[test]
    fn no_agg_writes_rows() {
        let (n, m) = (50, 10);
        let x = generate::rand_dense(n, m, -1.0, 1.0, 7);
        let spec = RowSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMainRow { out: 0 },
                    Instr::LoadConst { out: 0, value: 2.0 },
                    Instr::VecBinaryVS {
                        out: 1,
                        op: BinaryOp::Mult,
                        a: 0,
                        b: 0,
                        scalar_left: false,
                    },
                ],
                n_regs: 1,
                vreg_lens: vec![m, m],
            },
            out: RowOut::NoAgg { src: 1 },
        };
        for backend in [RowBackend::Interp, RowBackend::Block] {
            let out = run(&spec, &x, &[], &[], backend);
            let expect = ops::binary_scalar(&x, 2.0, BinaryOp::Mult);
            assert!(out.approx_eq(&expect, 1e-12), "{backend:?}");
        }
    }

    #[test]
    fn col_agg_matches_colsums() {
        let (n, m) = (80, 12);
        let x = generate::rand_dense(n, m, -1.0, 1.0, 8);
        let spec = RowSpec {
            prog: Program {
                instrs: vec![Instr::LoadMainRow { out: 0 }],
                n_regs: 0,
                vreg_lens: vec![m],
            },
            out: RowOut::ColAgg { src: 0 },
        };
        for backend in [RowBackend::Interp, RowBackend::Block] {
            let out = run(&spec, &x, &[], &[], backend);
            let expect = ops::agg(&x, AggOp::Sum, AggDir::Col);
            assert!(out.approx_eq(&expect, 1e-9), "{backend:?}");
        }
    }

    #[test]
    fn vect_mat_mult_instruction() {
        // X %*% V per row with OuterColAgg → t(X) %*% (X %*% V).
        let (n, m, k) = (60, 14, 3);
        let x = generate::rand_dense(n, m, -1.0, 1.0, 9);
        let v = generate::rand_dense(m, k, -1.0, 1.0, 10);
        let spec = RowSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMainRow { out: 0 },
                    Instr::VecMatMult { out: 1, a: 0, side: 0 },
                ],
                n_regs: 0,
                vreg_lens: vec![m, k],
            },
            out: RowOut::OuterColAgg { left: 0, right: 1 },
        };
        for backend in [RowBackend::Interp, RowBackend::Block] {
            let out = run(&spec, &x, std::slice::from_ref(&v), &[], backend);
            let expect = ops::matmult(&ops::transpose(&x), &ops::matmult(&x, &v));
            assert!(out.approx_eq(&expect, 1e-9), "{backend:?}");
        }
    }

    #[test]
    fn vect_mat_mult_sparse_main_and_side() {
        // Sparse X and sparse V: per-row VecMatMult iterates non-zeros and
        // CSR side rows — results must match the densifying oracle.
        let (n, m, k) = (80, 20, 5);
        let x = generate::rand_matrix(n, m, -1.0, 1.0, 0.15, 11);
        let v = generate::rand_matrix(m, k, -1.0, 1.0, 0.4, 12);
        let spec = RowSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMainRow { out: 0 },
                    Instr::VecMatMult { out: 1, a: 0, side: 0 },
                ],
                n_regs: 0,
                vreg_lens: vec![m, k],
            },
            out: RowOut::OuterColAgg { left: 0, right: 1 },
        };
        let sides = [v.clone()];
        let oracle = run(&spec, &x, &sides, &[], RowBackend::Interp);
        let got = run(&spec, &x, &sides, &[], RowBackend::Block);
        assert!(got.approx_eq(&oracle, 1e-9));
    }

    /// The per-band buffers — tile register file, packed `VecMatMult`
    /// panels, densify scratch, outer accumulator — come from the
    /// pool and go back when the band ends: a warm operator executes again
    /// in its engine's scope without one fresh allocation.
    #[test]
    fn warm_execute_allocates_no_new_pool_buffer() {
        let (n, m, k) = (300, 40, 3);
        let v = generate::rand_dense(m, k, -1.0, 1.0, 21);
        // x_row ⊗ (abs(x_row)·V): the `abs` densifies sparse rows into
        // scratch, the dense tile feeds the panel kernel and the outer update.
        let densifying = RowSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMainRow { out: 0 },
                    Instr::VecUnary { out: 1, op: UnaryOp::Abs, a: 0 },
                    Instr::VecMatMult { out: 2, a: 1, side: 0 },
                ],
                n_regs: 0,
                vreg_lens: vec![m, m, k],
            },
            out: RowOut::OuterColAgg { left: 1, right: 2 },
        };
        // x_row ⊗ (x_row·V) over non-zeros: the scattered accumulator.
        let sparse_left = RowSpec {
            prog: Program {
                instrs: vec![
                    Instr::LoadMainRow { out: 0 },
                    Instr::VecMatMult { out: 1, a: 0, side: 0 },
                ],
                n_regs: 0,
                vreg_lens: vec![m, k],
            },
            out: RowOut::OuterColAgg { left: 0, right: 1 },
        };
        let engine = crate::Engine::new(crate::FusionMode::Gen);
        let _scope = engine.scope();
        // One band per execute, whatever other tests do to the global
        // thread count meanwhile: the same buffers every time.
        let _one = par::limit_current_thread(1);
        let sides = [v.clone()];
        for x in [
            generate::rand_dense(n, m, -1.0, 1.0, 22),
            generate::rand_matrix(n, m, -1.0, 1.0, 0.2, 23),
        ] {
            for spec in [&densifying, &sparse_left] {
                // The pool hands out by size class, not exact fit: a few
                // rounds settle which retired buffer serves which request.
                let expect = execute(spec, &x, &sides, &[]);
                for _ in 0..3 {
                    execute(spec, &x, &sides, &[]).recycle();
                }
                let warm = engine.pool_stats();
                for _ in 0..3 {
                    let again = execute(spec, &x, &sides, &[]);
                    assert!(again.approx_eq(&expect, 0.0));
                    again.recycle();
                }
                let after = engine.pool_stats();
                assert_eq!(after.misses, warm.misses, "sparse={}", x.is_sparse());
                assert!(after.hits >= warm.hits + 9, "the band buffers are pooled at all");
                expect.recycle();
            }
        }
    }

    #[test]
    fn work_heuristic_tracks_program_length_and_sparsity() {
        let dense = generate::rand_dense(10, 1000, -1.0, 1.0, 1);
        let sparse = generate::rand_matrix(1000, 1000, -1.0, 1.0, 0.01, 2);
        let short = mv_chain_spec(1000);
        let mut long = mv_chain_spec(1000);
        for _ in 0..20 {
            long.prog.instrs.push(Instr::LoadConst { out: 0, value: 1.0 });
        }
        // Longer programs mean more work per row.
        assert!(work_per_row(&long, &dense) > work_per_row(&short, &dense));
        // Sparse rows cost by their non-zeros, not the full width.
        assert!(work_per_row(&short, &sparse) < work_per_row(&short, &dense));
    }
}
