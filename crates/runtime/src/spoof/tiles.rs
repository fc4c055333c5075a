//! The one cell-iteration driver under the Cell, MAgg and Outer skeletons.
//!
//! A `CellPass` is built once per operator run. It resolves the lowered
//! [`BlockKernel`] from the owning engine's caches, walks the main input by
//! dense row ranges or by CSR non-zeros, gives each worker one set of pooled
//! state, and hands every tile of positions to an output sink
//! (`super::CellSinks`) as a `Tile` view — the tile interpreter's result
//! registers, or the fused loops of a [`Product`] where a result is one,
//! Outer's `dot(U_i, V_j)` tile filled on the way. The skeletons pick a sink
//! and finalize.
//!
//! Below the driver, `TileRunner` resolves each of the program's side
//! gathers into per-tile slices — zero-copy for dense sides under dense
//! iteration, gathered by column index under CSR iteration. Wherever a CSR
//! row (a sparse side's, or a CSR main walked densely) has to be addressed
//! by column it is scattered into a `RowScratch`.

use super::{CellSinks, PassInput};
use crate::side::SideInput;
use fusedml_linalg::ops::AggOp;
use fusedml_linalg::{par, pool, primitives as prim, simd, DenseMatrix, Matrix, SparseMatrix};
use std::sync::Arc;

use fusedml_core::spoof::block::{
    fold_result, write_result, BlockEval, BlockKernel, CellBackend, OpRef, TileCtx, TileSrc,
};
use fusedml_core::spoof::mono::{self, Product};
use fusedml_core::spoof::{Reg, SideAccess};

/// Maximum distinct `(side, access)` gathers the tile path supports; kernels
/// beyond this run the per-cell scalar pass.
pub const MAX_GATHERS: usize = 16;

/// True if the kernel's gather list fits the tile path.
pub fn supported(kernel: &BlockKernel) -> bool {
    kernel.block.gathers.len() <= MAX_GATHERS
}

/// The column positions of one tile: a contiguous range under dense
/// iteration, the column indices of a run of non-zeros under CSR iteration.
#[derive(Clone, Copy)]
pub(crate) enum TileCols<'a> {
    Range(usize),
    Indices(&'a [usize]),
}

impl TileCols<'_> {
    /// The column of the tile's `t`-th position.
    #[inline]
    pub(crate) fn at(self, t: usize) -> usize {
        match self {
            TileCols::Range(c0) => c0 + t,
            TileCols::Indices(ix) => ix[t],
        }
    }
}

/// One tile of positions of one main row, as an output sink sees it.
/// Results are addressed by their index `j` in the pass's register list.
pub(crate) struct Tile<'t> {
    pass: &'t CellPass<'t>,
    ev: &'t BlockEval,
    ctx: &'t TileCtx<'t>,
    scratch: &'t mut [f64],
    row: usize,
    cols: TileCols<'t>,
    n: usize,
}

impl<'t> Tile<'t> {
    /// The main-input row this tile lies in.
    pub(crate) fn row(&self) -> usize {
        self.row
    }

    /// Where in that row (not tied to the borrow of the tile, so a sink can
    /// hold it across [`Self::map`]).
    pub(crate) fn cols(&self) -> TileCols<'t> {
        self.cols
    }

    /// Folds result `j` over the tile into `acc` without materializing it.
    pub(crate) fn fold(&self, j: usize, op: AggOp, acc: f64) -> f64 {
        match self.pass.mono(j) {
            Some(mk) => mk.fold(op, acc, self.ev, self.ctx, self.n),
            None => fold_result(op, acc, self.value_of(j), self.n),
        }
    }

    /// Folds product results under `Sum` into their accumulators, sharing one
    /// loop over the tile (`mono::fold_sums`) — bitwise what [`Self::fold`]
    /// gives per result.
    pub(crate) fn fold_sums<'p>(&self, sums: impl IntoIterator<Item = (&'p Product, &'p mut f64)>) {
        mono::fold_sums(sums, self.ev, self.ctx, self.n)
    }

    /// Writes result `j` into `dst`, which must hold one slot per position.
    pub(crate) fn map_into(&self, j: usize, dst: &mut [f64]) {
        match self.pass.mono(j) {
            Some(mk) => mk.map_into(self.ev, self.ctx, self.n, dst),
            None => write_result(self.value_of(j), dst),
        }
    }

    /// Result `j`, materialized in the worker's scratch tile.
    pub(crate) fn map(&mut self, j: usize) -> &[f64] {
        let dst = std::mem::take(&mut self.scratch);
        self.map_into(j, &mut dst[..self.n]);
        self.scratch = dst;
        &self.scratch[..self.n]
    }

    fn value_of(&self, j: usize) -> OpRef<'_> {
        self.ev.value_of(&self.pass.kernel.block, self.pass.regs[j], self.ctx, self.n)
    }
}

/// One pass over the cells (or, when the program is sparse-safe and the main
/// is CSR, the non-zeros) of a main input; see the module docs.
pub(crate) struct CellPass<'a> {
    kernel: Arc<BlockKernel>,
    width: usize,
    main: Option<&'a Matrix>,
    /// The main input when it is iterated non-zero by non-zero.
    csr: Option<&'a SparseMatrix>,
    sides: &'a [SideInput],
    scalars: &'a [f64],
    rows: usize,
    cols: usize,
    regs: &'a [Reg],
    /// `Mono` backend: a result register that is a `Product` runs as one.
    specialize: bool,
    /// The interpreter body runs unless every result is a product.
    run_body: bool,
    /// Outer's dense row-major `(U, V, rank)`.
    factors: Option<(&'a [f64], &'a [f64], usize)>,
    /// `par` work hint per main row.
    work: usize,
}

impl<'a> CellPass<'a> {
    /// Builds the pass for one operator run, or `None` when the operator
    /// must run the per-cell scalar pass (`Scalar` backend, or more gathers
    /// than [`MAX_GATHERS`]).
    pub(crate) fn new(input: PassInput<'a>, backend: CellBackend) -> Option<Self> {
        if backend == CellBackend::Scalar {
            return None;
        }
        let caches = super::kernels();
        let kernel = caches.block.get_or_lower(input.prog);
        if !supported(&kernel) {
            return None;
        }
        let PassInput { regs, main, sides, scalars, rows, cols, factors, .. } = input;
        let csr = input.csr();
        debug_assert!(csr.is_none_or(|x| (x.rows(), x.cols()) == (rows, cols)));
        let specialize = backend == CellBackend::Mono;
        let run_body = !specialize || regs.iter().any(|&r| kernel.mono_for(r).is_none());
        let work = input.work();
        Some(CellPass {
            kernel,
            width: caches.tile_width,
            main,
            csr,
            sides,
            scalars,
            rows,
            cols,
            regs,
            specialize,
            run_body,
            factors,
            work,
        })
    }

    fn mono(&self, j: usize) -> Option<&Product> {
        self.kernel.mono_for(self.regs[j]).filter(|_| self.specialize)
    }

    /// Fills `buf[t] = dot(U[i,:], V[at(t),:])` for the `n` positions of a
    /// tile when the pass has factors.
    fn uv_tile<'b>(&self, i: usize, at: TileCols<'_>, n: usize, buf: &'b mut [f64]) -> TileSrc<'b> {
        let Some((u, v, rank)) = self.factors else { return TileSrc::Const(0.0) };
        let urow = &u[i * rank..(i + 1) * rank];
        for (t, slot) in buf[..n].iter_mut().enumerate() {
            *slot = prim::dot_product(urow, v, 0, at.at(t) * rank, rank);
        }
        TileSrc::Slice(&buf[..n])
    }

    /// Walks rows `lo..hi` on the calling thread, one `sink` call per tile.
    fn walk(&self, lo: usize, hi: usize, mut sink: impl FnMut(&mut Tile<'_>)) {
        let (width, cols) = (self.width, self.cols);
        let mut tr = TileRunner::new(&self.kernel, self.sides, self.scalars, cols, width);
        let mut uv = pool::take_zeroed(if self.factors.is_some() { width } else { 0 });
        let mut scratch = pool::take_zeroed(width);
        let mut emit = |ev: &BlockEval, ctx: &TileCtx<'_>, n, row, at| {
            sink(&mut Tile { pass: self, ev, ctx, scratch: &mut scratch, row, cols: at, n })
        };
        match self.csr {
            Some(x) => {
                for r in lo..hi {
                    tr.begin_row(r);
                    for (vals, ix) in x.row_values(r).chunks(width).zip(x.row_cols(r).chunks(width))
                    {
                        let at = TileCols::Indices(ix);
                        let dots = self.uv_tile(r, at, ix.len(), &mut uv);
                        tr.sparse_tile(
                            TileSrc::Slice(vals),
                            dots,
                            r,
                            ix,
                            self.run_body,
                            |ev, ctx, n| emit(ev, ctx, n, r, at),
                        );
                    }
                }
            }
            None => {
                let mut mr = MainReader::new(self.main, cols);
                for r in lo..hi {
                    tr.begin_row(r);
                    let row = mr.row(r);
                    let mut c0 = 0;
                    while c0 < cols {
                        let n = width.min(cols - c0);
                        let at = TileCols::Range(c0);
                        let dots = self.uv_tile(r, at, n, &mut uv);
                        tr.dense_tile(
                            sub_tile(row, c0, n),
                            dots,
                            r,
                            c0,
                            n,
                            self.run_body,
                            |ev, ctx, n| emit(ev, ctx, n, r, at),
                        );
                        c0 += n;
                    }
                }
            }
        }
        pool::give(uv);
        pool::give(scratch);
    }

    /// Sinks that accumulate: one `A` per worker, merged on the caller.
    fn reduce<A: Send>(
        &self,
        identity: impl Fn() -> A + Sync,
        tile: impl Fn(&mut A, &mut Tile<'_>) + Sync,
        merge: impl Fn(A, A) -> A,
    ) -> A {
        let map = |lo, hi| {
            let mut acc = identity();
            self.walk(lo, hi, |t| tile(&mut acc, t));
            acc
        };
        par::par_map_reduce(self.rows, self.work, identity(), map, merge)
    }

    /// Sinks that write `row_len` output slots per main row in place.
    fn bands(
        &self,
        out: &mut [f64],
        row_len: usize,
        tile: impl Fn(&mut [f64], &mut Tile<'_>) + Sync,
    ) {
        par::par_row_bands_mut(out, self.rows, row_len, self.work, |r0, band| {
            self.walk(r0, r0 + band.len() / row_len, |t| {
                let o = (t.row() - r0) * row_len;
                tile(&mut band[o..o + row_len], t)
            })
        });
    }
}

impl CellSinks for CellPass<'_> {
    fn csr(&self) -> Option<&SparseMatrix> {
        self.csr
    }

    /// When two or more results are product chains under `Sum` / `Mean`,
    /// their tile sums run as one loop over the shared inputs
    /// ([`Tile::fold_sums`]); every other result folds on its own.
    fn full(&self, ops: &[AggOp]) -> Vec<f64> {
        let mut sums: Vec<Option<&Product>> = (0..ops.len())
            .map(|j| self.mono(j).filter(|_| matches!(ops[j], AggOp::Sum | AggOp::Mean)))
            .collect();
        let fused = sums.iter().flatten().count() >= 2;
        if !fused {
            sums.fill(None);
        }
        self.reduce(
            || ops.iter().map(|op| op.identity()).collect::<Vec<f64>>(),
            |accs, t| {
                if fused {
                    t.fold_sums(
                        accs.iter_mut().zip(&sums).filter_map(|(acc, p)| Some(((*p)?, acc))),
                    );
                }
                for (j, ((acc, &op), p)) in accs.iter_mut().zip(ops).zip(&sums).enumerate() {
                    if p.is_none() {
                        *acc = t.fold(j, op, *acc);
                    }
                }
            },
            |mut a, b| {
                for ((x, y), op) in a.iter_mut().zip(b).zip(ops) {
                    *x = op.combine(*x, y);
                }
                a
            },
        )
    }

    fn row_agg(&self, op: AggOp) -> Vec<f64> {
        let mut out = pool::take_unzeroed(self.rows);
        out.fill(op.identity());
        self.bands(&mut out, 1, |slot, t| slot[0] = t.fold(0, op, slot[0]));
        out
    }

    fn col_agg(&self, op: AggOp) -> (Vec<f64>, Vec<usize>) {
        let cols = self.cols;
        self.reduce(
            || (vec![op.identity(); cols], vec![0usize; cols]),
            |(acc, counts), t| {
                let at = t.cols();
                for (i, &v) in t.map(0).iter().enumerate() {
                    let c = at.at(i);
                    acc[c] = op.fold(acc[c], v);
                    counts[c] += 1;
                }
            },
            |(mut a, mut ca), (b, cb)| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = op.combine(*x, y);
                }
                for (x, y) in ca.iter_mut().zip(cb) {
                    *x += y;
                }
                (a, ca)
            },
        )
    }

    fn no_agg(&self) -> Matrix {
        let (rows, cols) = (self.rows, self.cols);
        if self.csr.is_none() {
            // Dense iteration tiles every column of every row: each slot is
            // written once.
            let mut out = pool::take_unzeroed(rows * cols);
            self.bands(&mut out, cols, |orow, t| {
                let c0 = t.cols().at(0);
                t.map_into(0, &mut orow[c0..c0 + t.n])
            });
            return Matrix::dense(DenseMatrix::new(rows, cols, out));
        }
        let triples = self.reduce(
            Vec::new,
            |triples, t| {
                let (r, at) = (t.row(), t.cols());
                for (i, &w) in t.map(0).iter().enumerate() {
                    if w != 0.0 {
                        triples.push((r, at.at(i), w));
                    }
                }
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        Matrix::sparse(SparseMatrix::from_triples(rows, cols, triples))
    }

    fn right_mm(&self, s: &[f64], k: usize) -> Vec<f64> {
        let mut out = pool::take_zeroed(self.rows * k);
        self.bands(&mut out, k, |orow, t| {
            let at = t.cols();
            for (i, &w) in t.map(0).iter().enumerate() {
                if w != 0.0 {
                    prim::vect_mult_add(&s[at.at(i) * k..], w, orow, 0, 0, k);
                }
            }
        });
        out
    }

    /// Per-worker partials, summed.
    fn left_mm(&self, s: &[f64], k: usize) -> Vec<f64> {
        self.reduce(
            || pool::take_zeroed(self.cols * k),
            |acc, t| {
                let (srow, at) = (&s[t.row() * k..], t.cols());
                for (i, &w) in t.map(0).iter().enumerate() {
                    if w != 0.0 {
                        prim::vect_mult_add(srow, w, &mut acc[at.at(i) * k..], 0, 0, k);
                    }
                }
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x += y;
                }
                pool::give(b);
                a
            },
        )
    }
}

/// Narrows a row-spanning tile source to one tile.
#[inline]
fn sub_tile<'a>(src: TileSrc<'a>, c0: usize, n: usize) -> TileSrc<'a> {
    match src {
        TileSrc::Slice(s) => TileSrc::Slice(&s[c0..c0 + n]),
        TileSrc::Const(c) => TileSrc::Const(c),
    }
}

/// One CSR row made addressable by column: a pooled, `cols`-wide buffer that
/// is `+0.0` everywhere except at the stored cells of the row it holds.
struct RowScratch {
    buf: Vec<f64>,
    /// Which row of its matrix is scattered into `buf`.
    held: Option<usize>,
}

impl Drop for RowScratch {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.buf));
    }
}

impl RowScratch {
    /// A scratch for rows of `cols` columns, holding none (`cols` = 0: a
    /// placeholder that is never loaded).
    fn new(cols: usize) -> Self {
        RowScratch { buf: pool::take_zeroed(cols), held: None }
    }

    /// Makes the buffer hold row `r` of `csr` — always the same matrix for
    /// one scratch. The row held before is un-scattered through its own
    /// column indices, so a load costs the two rows' non-zeros, not `cols`.
    fn load(&mut self, csr: &SparseMatrix, r: usize) {
        debug_assert_eq!(csr.cols(), self.buf.len());
        if let Some(h) = self.held.replace(r) {
            for &c in csr.row_cols(h) {
                self.buf[c] = 0.0;
            }
        }
        for (&c, &v) in csr.row_cols(r).iter().zip(csr.row_values(r)) {
            self.buf[c] = v;
        }
    }
}

/// Reads main-input rows for dense (full row-range) iteration, densifying
/// sparse rows into scratch.
struct MainReader<'a> {
    m: Option<&'a Matrix>,
    scratch: RowScratch,
}

impl<'a> MainReader<'a> {
    fn new(m: Option<&'a Matrix>, cols: usize) -> Self {
        let scratch = match m {
            Some(Matrix::Sparse(_)) => RowScratch::new(cols),
            _ => RowScratch::new(0),
        };
        MainReader { m, scratch }
    }

    /// The whole main row as a tile source (slice with `sub_tile`).
    fn row(&mut self, r: usize) -> TileSrc<'_> {
        match self.m {
            Some(Matrix::Dense(d)) => TileSrc::Slice(d.row(r)),
            Some(Matrix::Sparse(s)) => {
                self.scratch.load(s, r);
                TileSrc::Slice(&self.scratch.buf)
            }
            None => TileSrc::Const(0.0),
        }
    }
}

/// Per-thread tile-execution state: the evaluator register files plus
/// per-gather-slot scratch.
struct TileRunner<'k, 's> {
    kernel: &'k BlockKernel,
    eval: BlockEval,
    sides: &'s [SideInput],
    /// Per gather slot of a sparse side, the side row addressable by column:
    /// loaded per main row for `Cell` access, once with row 0 for `Row`.
    side_rows: Vec<RowScratch>,
    /// Scatter-gather scratch (sparse-main iteration), tile-width sized.
    scatter_bufs: Vec<Vec<f64>>,
    width: usize,
}

impl Drop for TileRunner<'_, '_> {
    fn drop(&mut self) {
        for buf in self.scatter_bufs.drain(..) {
            pool::give(buf);
        }
    }
}

impl<'k, 's> TileRunner<'k, 's> {
    /// Builds a runner and runs the invocation-invariant prologue.
    /// `iter_cols` sizes the row scratch of the sparse sides.
    fn new(
        kernel: &'k BlockKernel,
        sides: &'s [SideInput],
        scalars: &[f64],
        iter_cols: usize,
        width: usize,
    ) -> Self {
        let bp = &kernel.block;
        assert!(bp.gathers.len() <= MAX_GATHERS, "gather count exceeds tile path");
        let mut eval = BlockEval::new(bp, width);
        eval.set_invariants(bp, &|i, acc| sides[i].value_at(acc, 0, 0), scalars);
        let mut side_rows = Vec::with_capacity(bp.gathers.len());
        let mut scatter_bufs = Vec::with_capacity(bp.gathers.len());
        for &(side, access) in &bp.gathers {
            side_rows.push(match &sides[side] {
                SideInput::Sparse(s) => {
                    let mut row = RowScratch::new(iter_cols);
                    if access == SideAccess::Row {
                        // Row access reads row 0 everywhere: scatter it once.
                        row.load(s, 0);
                    }
                    row
                }
                SideInput::Dense(_) => RowScratch::new(0),
            });
            scatter_bufs.push(pool::take_zeroed(width));
        }
        TileRunner { kernel, eval, sides, side_rows, scatter_bufs, width }
    }

    /// Per-row prologue of both iterations: runs the row-uniform program and
    /// scatters row `r` of every sparse `Cell`-access side.
    fn begin_row(&mut self, r: usize) {
        let bp = &self.kernel.block;
        self.eval.begin_row(bp, &|i, acc| self.sides[i].value_at(acc, r, 0));
        for (slot, &(side, access)) in bp.gathers.iter().enumerate() {
            if let (SideInput::Sparse(s), SideAccess::Cell) = (&self.sides[side], access) {
                self.side_rows[slot].load(s, r);
            }
        }
    }

    /// Gathers side tiles for columns `[c0, c0+n)` of row `r`, optionally
    /// evaluates the body, and hands the evaluator + context to `f`.
    #[allow(clippy::too_many_arguments)] // one call site, in `CellPass::walk`
    fn dense_tile<R>(
        &mut self,
        main: TileSrc<'_>,
        uv: TileSrc<'_>,
        r: usize,
        c0: usize,
        n: usize,
        run_body: bool,
        f: impl FnOnce(&BlockEval, &TileCtx<'_>, usize) -> R,
    ) -> R {
        let bp = &self.kernel.block;
        let mut g = [TileSrc::Const(0.0); MAX_GATHERS];
        for (slot, &(side, access)) in bp.gathers.iter().enumerate() {
            g[slot] = match (&self.sides[side], access) {
                (SideInput::Dense(d), SideAccess::Cell) => TileSrc::Slice(&d.row(r)[c0..c0 + n]),
                (SideInput::Dense(d), SideAccess::Row) => TileSrc::Slice(&d.row(0)[c0..c0 + n]),
                (SideInput::Sparse(_), SideAccess::Cell | SideAccess::Row) => {
                    TileSrc::Slice(&self.side_rows[slot].buf[c0..c0 + n])
                }
                _ => unreachable!("Col/Scalar accesses are hoisted out of gathers"),
            };
        }
        let ctx = TileCtx { main, uv, gathers: &g[..bp.gathers.len()] };
        if run_body {
            self.eval.eval_body(bp, &ctx, n);
        }
        f(&self.eval, &ctx, n)
    }

    /// Gathers side tiles at the scattered column indices `cols` of row `r`
    /// (non-zero batching), optionally evaluates, and hands off to `f`.
    fn sparse_tile<R>(
        &mut self,
        main: TileSrc<'_>,
        uv: TileSrc<'_>,
        r: usize,
        cols: &[usize],
        run_body: bool,
        f: impl FnOnce(&BlockEval, &TileCtx<'_>, usize) -> R,
    ) -> R {
        let bp = &self.kernel.block;
        let n = cols.len();
        debug_assert!(n <= self.width);
        for (slot, &(side, access)) in bp.gathers.iter().enumerate() {
            let buf = &mut self.scatter_bufs[slot][..n];
            let row = match (&self.sides[side], access) {
                (SideInput::Dense(d), SideAccess::Cell) => d.row(r),
                (SideInput::Dense(d), SideAccess::Row) => d.row(0),
                (SideInput::Sparse(_), SideAccess::Cell | SideAccess::Row) => {
                    &self.side_rows[slot].buf
                }
                _ => unreachable!("Col/Scalar accesses are hoisted out of gathers"),
            };
            simd::gather_into(buf, row, cols);
        }
        let mut g = [TileSrc::Const(0.0); MAX_GATHERS];
        for (slot, buf) in self.scatter_bufs[..bp.gathers.len()].iter().enumerate() {
            g[slot] = TileSrc::Slice(&buf[..n]);
        }
        let ctx = TileCtx { main, uv, gathers: &g[..bp.gathers.len()] };
        if run_body {
            self.eval.eval_body(bp, &ctx, n);
        }
        f(&self.eval, &ctx, n)
    }
}
