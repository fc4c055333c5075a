//! The one cell-iteration driver under the Cell, MAgg and Outer skeletons.
//!
//! A `CellPass` is built once per operator run over the lowered
//! [`BlockKernel`] the operator carries. It walks the main input by
//! dense row ranges or by CSR non-zeros, gives each worker one set of pooled
//! state, and hands every tile of positions to an output sink
//! (`super::CellSinks`) as a `Tile` view — the tile interpreter's result
//! registers, or the fused loops of a [`Product`] where a result is one,
//! Outer's `dot(U_i, V_j)` tile filled on the way. The skeletons pick a sink
//! and finalize.
//!
//! A dense Cell / MAgg row is one tile while the body's register file that
//! wide fits L1 ([`dense_tile_width`]); CSR non-zeros and Outer's walks run
//! in tiles of [`CSR_TILE_WIDTH`]. The dense `no_agg` sink of a result that
//! is the body's last instruction (and not a product) runs that instruction
//! straight into the output row (`Walk::LastInSink`).
//!
//! A tile lies in one main row, except where the `full` sink folds a CSR
//! main by its non-zeros, under a program with no per-row prologue whose
//! gathers all read dense sides: there a tile takes whole short rows while
//! they fit its width (a longer row is chunked on its own, and no tile
//! crosses a `par` band). Such a tile carries each position's row — Outer's
//! dots are one `simd::dot_pairs` call, a dense `Cell` side is gathered at
//! `r·cols + c` — and the sink sees each row's segment as that row's own
//! tile, so every fold is bitwise the per-row walk's.
//!
//! Below the driver, `TileRunner` resolves each of the program's side
//! gathers into per-tile slices — zero-copy for dense sides under dense
//! iteration, gathered by column index under CSR iteration. Wherever a CSR
//! row (a sparse side's, or a CSR main walked densely) has to be addressed
//! by column it is scattered into a `RowScratch`.

use super::scalar::value_at;
use super::{CellSinks, PassInput};
use fusedml_linalg::ops::AggOp;
use fusedml_linalg::{par, pool, simd, DenseMatrix, Matrix, SparseMatrix};

use fusedml_core::spoof::block::{
    clamp_tile_width, dense_tile_width, fold_result, write_result, BlockEval, BlockKernel,
    CellBackend, OpRef, Opnd, TileCtx, TileSrc, ValSrc, CSR_TILE_WIDTH,
};
use fusedml_core::spoof::mono::{self, Product};
use fusedml_core::spoof::{Reg, SideAccess};

pub use fusedml_core::spoof::block::MAX_GATHERS;

/// The column positions of one tile: a contiguous range under dense
/// iteration, the column indices of a run of non-zeros under CSR iteration.
#[derive(Clone, Copy)]
pub(crate) enum TileCols<'a> {
    Range(usize),
    Indices(&'a [usize]),
}

impl<'a> TileCols<'a> {
    /// The column of the tile's `t`-th position.
    #[inline]
    pub(crate) fn at(self, t: usize) -> usize {
        match self {
            TileCols::Range(c0) => c0 + t,
            TileCols::Indices(ix) => ix[t],
        }
    }

    /// The columns as the `simd` row-batch kernels address rows: the first
    /// column of a range, or `0` and the scattered indices.
    #[inline]
    fn split(self) -> (usize, Option<&'a [usize]>) {
        match self {
            TileCols::Range(c0) => (c0, None),
            TileCols::Indices(ix) => (0, Some(ix)),
        }
    }
}

/// The main rows of a CSR tile's positions: one row, or a row per position
/// (a tile that batches short rows).
#[derive(Clone, Copy)]
enum TileRows<'a> {
    One(usize),
    Each(&'a [usize]),
}

/// One tile of positions of one main row, as an output sink sees it.
/// Results are addressed by their index `j` in the pass's register list.
/// In a tile that batches short rows, each row's segment is a `Tile` of its
/// own: `ctx` holds the segment's inputs, the body registers the whole tile,
/// from which the segment starts at `base`.
pub(crate) struct Tile<'t> {
    pass: &'t CellPass<'t>,
    ev: &'t BlockEval,
    ctx: &'t TileCtx<'t>,
    base: usize,
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

    /// Runs the body's last instruction, result 0 of a `Walk::LastInSink`
    /// walk, into `dst` (one slot per position): bitwise [`Self::map_into`].
    pub(crate) fn last_into(&self, dst: &mut [f64]) {
        debug_assert_eq!(self.base, 0, "only dense tiles write in place");
        self.ev.eval_last_into(&self.pass.kernel.block, self.ctx, &mut dst[..self.n])
    }

    /// Result `j` over the tile: a body register is read at the tile's
    /// offset `base` in the evaluated tile, any other operand through `ctx`.
    fn value_of(&self, j: usize) -> OpRef<'_> {
        let (bp, reg) = (&self.pass.kernel.block, self.pass.regs[j]);
        let ValSrc::Varying(Opnd::Tile(_)) = bp.src_of(reg) else {
            return self.ev.value_of(bp, reg, self.ctx, self.n);
        };
        match self.ev.value_of(bp, reg, self.ctx, self.base + self.n) {
            OpRef::S(s) => OpRef::S(&s[self.base..]),
            c => c,
        }
    }
}

/// How a walk runs each tile's body before handing the tile to its sink.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Walk {
    /// The whole body (none where every result is a product), one main row
    /// per tile.
    Rows,
    /// As `Rows`, but short CSR rows share a tile (only where
    /// [`CellPass::batches`]).
    Batched,
    /// All but the body's last instruction, which the sink runs into the
    /// output ([`Tile::last_into`]); see [`CellPass::last_in_sink`].
    LastInSink,
}

/// One pass over the cells (or, when the program is sparse-safe and the main
/// is CSR, the non-zeros) of a main input; see the module docs.
pub(crate) struct CellPass<'a> {
    kernel: &'a BlockKernel,
    width: usize,
    main: Option<&'a Matrix>,
    /// The main input when it is iterated non-zero by non-zero.
    csr: Option<&'a SparseMatrix>,
    sides: &'a [Matrix],
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
    /// Short CSR rows may share a tile (see [`Self::walk`]): the main is
    /// walked by its non-zeros, no prologue runs per row and every gather
    /// reads a dense side, so a position's inputs depend on its row and
    /// column only.
    batches: bool,
}

impl<'a> CellPass<'a> {
    /// Builds the pass for one operator run, or `None` when the operator
    /// must run the per-cell scalar pass (`Scalar` backend, or more gathers
    /// than [`MAX_GATHERS`]).
    pub(crate) fn new(input: PassInput<'a>, backend: CellBackend) -> Option<Self> {
        if backend == CellBackend::Scalar {
            return None;
        }
        let PassInput { kernel, regs, main, sides, scalars, rows, cols, factors, .. } = input;
        if !kernel.tiled() {
            return None;
        }
        let csr = input.csr();
        debug_assert!(csr.is_none_or(|x| (x.rows(), x.cols()) == (rows, cols)));
        let specialize = backend == CellBackend::Mono;
        let run_body = !specialize || regs.iter().any(|&r| kernel.mono_for(r).is_none());
        let work = input.work();
        let batches = csr.is_some()
            && kernel.block.row_uniform.is_empty()
            && kernel.block.gathers.iter().all(|&(i, _)| matches!(sides[i], Matrix::Dense(_)));
        // The width depends on the kernel and the row length only, so every
        // backend and every result set of one kernel tiles a row alike.
        let width = if csr.is_some() || factors.is_some() {
            clamp_tile_width(kernel.width.min(CSR_TILE_WIDTH))
        } else {
            dense_tile_width(kernel.block.n_tiles as usize, cols, kernel.width)
        };
        Some(CellPass {
            kernel,
            width,
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
            batches,
        })
    }

    fn mono(&self, j: usize) -> Option<&Product> {
        self.kernel.mono_for(self.regs[j]).filter(|_| self.specialize)
    }

    /// True when the pass's one result is the register the body's last
    /// instruction writes and not a product the pass runs as one: a dense
    /// map then writes that instruction straight into its output.
    fn last_in_sink(&self) -> bool {
        let bp = &self.kernel.block;
        self.mono(0).is_none()
            && matches!(
                (bp.src_of(self.regs[0]), bp.body.last()),
                (ValSrc::Varying(Opnd::Tile(t)), Some(ins)) if ins.out() == t
            )
    }

    /// How many body instructions a tile of a `walk` runs before its sink.
    fn body_len(&self, walk: Walk) -> usize {
        match (self.run_body, walk) {
            (false, _) => 0,
            (true, Walk::LastInSink) => self.kernel.block.body.len() - 1,
            (true, Walk::Rows | Walk::Batched) => self.kernel.block.body.len(),
        }
    }

    /// Fills `buf[t] = dot(U[r_t,:], V[at(t),:])` for the `n` positions of a
    /// tile when the pass has factors, `r_t` the position's main row: one
    /// row-batch call per tile, four dots per loop where the columns are
    /// scattered.
    fn uv_tile<'b>(
        &self,
        rows: TileRows<'_>,
        at: TileCols<'_>,
        n: usize,
        buf: &'b mut [f64],
    ) -> TileSrc<'b> {
        let Some((u, v, rank)) = self.factors else { return TileSrc::Const(0.0) };
        let out = &mut buf[..n];
        match (rows, at) {
            (TileRows::One(i), TileCols::Range(c0)) => {
                simd::dot_rows(&u[i * rank..][..rank], 0, &v[c0 * rank..], rank, rank, out)
            }
            (TileRows::One(i), TileCols::Indices(ix)) => {
                simd::dot_rows_at(&u[i * rank..][..rank], v, ix, out)
            }
            (TileRows::Each(rows), TileCols::Indices(ix)) => {
                simd::dot_pairs(u, rows, v, ix, rank, out)
            }
            (TileRows::Each(_), TileCols::Range(_)) => unreachable!("only CSR tiles batch rows"),
        }
        TileSrc::Slice(&buf[..n])
    }

    /// Walks rows `lo..hi` on the calling thread, one `sink` call per tile.
    ///
    /// Under `Walk::Batched` (only where [`Self::batches`]) a CSR tile takes
    /// whole rows while they fit within the tile width — a longer row is
    /// chunked on its own — and the sink sees each row's segment as that
    /// row's own tile, so its folds see the positions, the tile boundaries
    /// and the order of the per-row walk.
    fn walk(&self, lo: usize, hi: usize, walk: Walk, mut sink: impl FnMut(&mut Tile<'_>)) {
        let batch = walk == Walk::Batched;
        debug_assert!(!batch || self.batches);
        debug_assert!(walk != Walk::LastInSink || (self.csr.is_none() && self.last_in_sink()));
        let (width, cols, k) = (self.width, self.cols, self.body_len(walk));
        let csr = self.csr.is_some();
        let mut tr = TileRunner::new(self.kernel, self.sides, self.scalars, cols, width, csr);
        let mut uv = pool::take_zeroed(if self.factors.is_some() { width } else { 0 });
        let mut scratch = pool::take_zeroed(width);
        let mut emit = |ev: &BlockEval, ctx: &TileCtx<'_>, base, n, row, at| {
            sink(&mut Tile { pass: self, ev, ctx, base, scratch: &mut scratch, row, cols: at, n })
        };
        match self.csr {
            Some(x) => {
                let ptr = x.row_ptr();
                // Each position's row in a batched tile.
                let mut pos_rows = vec![0; if batch { width } else { 0 }];
                let mut r = lo;
                while r < hi {
                    // Rows `r..r1` fit one tile together.
                    let mut r1 = r;
                    while batch && r1 < hi && ptr[r1 + 1] - ptr[r] <= width {
                        r1 += 1;
                    }
                    if r1 >= r + 2 {
                        let (p0, p1) = (ptr[r], ptr[r1]);
                        let (ix, n) = (&x.col_indices()[p0..p1], p1 - p0);
                        for q in r..r1 {
                            pos_rows[ptr[q] - p0..ptr[q + 1] - p0].fill(q);
                        }
                        let each = TileRows::Each(&pos_rows[..n]);
                        let dots = self.uv_tile(each, TileCols::Indices(ix), n, &mut uv);
                        let vals = TileSrc::Slice(&x.values()[p0..p1]);
                        tr.sparse_tile(vals, dots, each, ix, k, |ev, ctx, _| {
                            let mut g = [TileSrc::Const(0.0); MAX_GATHERS];
                            for q in r..r1 {
                                let (s, m) = (ptr[q] - p0, ptr[q + 1] - ptr[q]);
                                if m == 0 {
                                    continue;
                                }
                                for (w, &src) in g.iter_mut().zip(ctx.gathers) {
                                    *w = sub_tile(src, s, m);
                                }
                                let seg = TileCtx {
                                    main: sub_tile(ctx.main, s, m),
                                    uv: sub_tile(ctx.uv, s, m),
                                    gathers: &g[..ctx.gathers.len()],
                                };
                                emit(ev, &seg, s, m, q, TileCols::Indices(&ix[s..s + m]));
                            }
                        });
                        r = r1;
                        continue;
                    }
                    tr.begin_row(r);
                    for (vals, ix) in x.row_values(r).chunks(width).zip(x.row_cols(r).chunks(width))
                    {
                        let at = TileCols::Indices(ix);
                        let dots = self.uv_tile(TileRows::One(r), at, ix.len(), &mut uv);
                        tr.sparse_tile(
                            TileSrc::Slice(vals),
                            dots,
                            TileRows::One(r),
                            ix,
                            k,
                            |ev, ctx, n| emit(ev, ctx, 0, n, r, at),
                        );
                    }
                    r += 1;
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
                        let dots = self.uv_tile(TileRows::One(r), at, n, &mut uv);
                        tr.dense_tile(sub_tile(row, c0, n), dots, r, c0, n, k, |ev, ctx, n| {
                            emit(ev, ctx, 0, n, r, at)
                        });
                        c0 += n;
                    }
                }
            }
        }
        pool::give(uv);
        pool::give(scratch);
    }

    /// Sinks that accumulate: one `A` per worker, merged on the caller;
    /// `Walk::Batched` lets short CSR rows share a tile ([`Self::walk`]).
    fn reduce<A: Send>(
        &self,
        walk: Walk,
        identity: impl Fn() -> A + Sync,
        tile: impl Fn(&mut A, &mut Tile<'_>) + Sync,
        merge: impl Fn(A, A) -> A,
    ) -> A {
        let map = |lo, hi| {
            let mut acc = identity();
            self.walk(lo, hi, walk, |t| tile(&mut acc, t));
            acc
        };
        par::par_map_reduce(self.rows, self.work, identity(), map, merge)
    }

    /// Sinks that write `row_len` output slots per main row in place.
    fn bands(
        &self,
        out: &mut [f64],
        row_len: usize,
        walk: Walk,
        tile: impl Fn(&mut [f64], &mut Tile<'_>) + Sync,
    ) {
        par::par_row_bands_mut(out, self.rows, row_len, self.work, |r0, band| {
            self.walk(r0, r0 + band.len() / row_len, walk, |t| {
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
    /// ([`Tile::fold_sums`]); every other result folds on its own. The only
    /// sink whose tiles batch short CSR rows: it folds each row's segment as
    /// the per-row walk folds that row's tile.
    fn full(&self, ops: &[AggOp]) -> Vec<f64> {
        let mut sums: Vec<Option<&Product>> = (0..ops.len())
            .map(|j| self.mono(j).filter(|_| matches!(ops[j], AggOp::Sum | AggOp::Mean)))
            .collect();
        let fused = sums.iter().flatten().count() >= 2;
        if !fused {
            sums.fill(None);
        }
        self.reduce(
            if self.batches { Walk::Batched } else { Walk::Rows },
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
        self.bands(&mut out, 1, Walk::Rows, |slot, t| slot[0] = t.fold(0, op, slot[0]));
        out
    }

    fn col_agg(&self, op: AggOp) -> (Vec<f64>, Vec<usize>) {
        let cols = self.cols;
        self.reduce(
            Walk::Rows,
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
            let walk = if self.last_in_sink() { Walk::LastInSink } else { Walk::Rows };
            self.bands(&mut out, cols, walk, |orow, t| {
                let c0 = t.cols().at(0);
                let dst = &mut orow[c0..c0 + t.n];
                match walk {
                    Walk::LastInSink => t.last_into(dst),
                    _ => t.map_into(0, dst),
                }
            });
            return Matrix::dense(DenseMatrix::new(rows, cols, out));
        }
        let triples = self.reduce(
            Walk::Rows,
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
        self.bands(&mut out, k, Walk::Rows, |orow, t| {
            let (c0, ix) = t.cols().split();
            simd::axpy_gather(t.map(0), &s[c0 * k..], ix, orow);
        });
        out
    }

    /// Per-worker partials, summed.
    fn left_mm(&self, s: &[f64], k: usize) -> Vec<f64> {
        self.reduce(
            Walk::Rows,
            || pool::take_zeroed(self.cols * k),
            |acc, t| {
                let ((c0, ix), srow) = (t.cols().split(), &s[t.row() * k..][..k]);
                simd::axpy_scatter(t.map(0), srow, ix, &mut acc[c0 * k..]);
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
    sides: &'s [Matrix],
    /// Per gather slot of a sparse side, the side row addressable by column:
    /// loaded per main row for `Cell` access, once with row 0 for `Row`.
    side_rows: Vec<RowScratch>,
    /// Scatter-gather scratch of a CSR walk, one tile-width buffer per
    /// gather slot (a dense walk takes none).
    scatter_bufs: Vec<Vec<f64>>,
    /// A batched tile's flat side indices `r·cols + c`, sized on first use.
    flat: Vec<usize>,
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
    /// `iter_cols` sizes the row scratch of the sparse sides; only a `csr`
    /// walk calls [`Self::sparse_tile`], which needs the scatter buffers.
    fn new(
        kernel: &'k BlockKernel,
        sides: &'s [Matrix],
        scalars: &[f64],
        iter_cols: usize,
        width: usize,
        csr: bool,
    ) -> Self {
        let bp = &kernel.block;
        assert!(kernel.tiled(), "gather count exceeds tile path");
        let mut eval = BlockEval::new(bp, width);
        eval.set_invariants(bp, &|i, acc| value_at(&sides[i], acc, 0, 0), scalars);
        let mut side_rows = Vec::with_capacity(bp.gathers.len());
        let mut scatter_bufs = Vec::with_capacity(if csr { bp.gathers.len() } else { 0 });
        for &(side, access) in &bp.gathers {
            side_rows.push(match &sides[side] {
                Matrix::Sparse(s) => {
                    let mut row = RowScratch::new(iter_cols);
                    if access == SideAccess::Row {
                        // Row access reads row 0 everywhere: scatter it once.
                        row.load(s, 0);
                    }
                    row
                }
                Matrix::Dense(_) => RowScratch::new(0),
            });
            if csr {
                scatter_bufs.push(pool::take_zeroed(width));
            }
        }
        TileRunner { kernel, eval, sides, side_rows, scatter_bufs, flat: Vec::new(), width }
    }

    /// Per-row prologue of both iterations: runs the row-uniform program and
    /// scatters row `r` of every sparse `Cell`-access side.
    fn begin_row(&mut self, r: usize) {
        let bp = &self.kernel.block;
        self.eval.begin_row(bp, &|i, acc| value_at(&self.sides[i], acc, r, 0));
        for (slot, &(side, access)) in bp.gathers.iter().enumerate() {
            if let (Matrix::Sparse(s), SideAccess::Cell) = (&self.sides[side], access) {
                self.side_rows[slot].load(s, r);
            }
        }
    }

    /// Gathers side tiles for columns `[c0, c0+n)` of row `r`, runs the
    /// body's first `k` instructions, and hands the evaluator + context to
    /// `f`.
    #[allow(clippy::too_many_arguments)] // one call site, in `CellPass::walk`
    fn dense_tile<R>(
        &mut self,
        main: TileSrc<'_>,
        uv: TileSrc<'_>,
        r: usize,
        c0: usize,
        n: usize,
        k: usize,
        f: impl FnOnce(&BlockEval, &TileCtx<'_>, usize) -> R,
    ) -> R {
        let bp = &self.kernel.block;
        let mut g = [TileSrc::Const(0.0); MAX_GATHERS];
        for (slot, &(side, access)) in bp.gathers.iter().enumerate() {
            g[slot] = match (&self.sides[side], access) {
                (Matrix::Dense(d), SideAccess::Cell) => TileSrc::Slice(&d.row(r)[c0..c0 + n]),
                (Matrix::Dense(d), SideAccess::Row) => TileSrc::Slice(&d.row(0)[c0..c0 + n]),
                (Matrix::Sparse(_), SideAccess::Cell | SideAccess::Row) => {
                    TileSrc::Slice(&self.side_rows[slot].buf[c0..c0 + n])
                }
                _ => unreachable!("Col/Scalar accesses are hoisted out of gathers"),
            };
        }
        let ctx = TileCtx { main, uv, gathers: &g[..bp.gathers.len()] };
        self.eval.eval_body(bp, &ctx, n, k);
        f(&self.eval, &ctx, n)
    }

    /// Gathers side tiles at the scattered column indices `cols` of `rows`
    /// (non-zero batching), runs the body's first `k` instructions, and hands
    /// off to `f`. A tile with a row per position gathers dense sides only.
    fn sparse_tile<R>(
        &mut self,
        main: TileSrc<'_>,
        uv: TileSrc<'_>,
        rows: TileRows<'_>,
        cols: &[usize],
        k: usize,
        f: impl FnOnce(&BlockEval, &TileCtx<'_>, usize) -> R,
    ) -> R {
        let bp = &self.kernel.block;
        let n = cols.len();
        debug_assert!(n <= self.width);
        for (slot, &(side, access)) in bp.gathers.iter().enumerate() {
            let buf = &mut self.scatter_bufs[slot][..n];
            let row = match (&self.sides[side], access, rows) {
                (Matrix::Dense(d), SideAccess::Cell, TileRows::Each(rows)) => {
                    // Each position reads its own row: gather by flat index.
                    self.flat.resize(self.width, 0);
                    for ((f, &r), &c) in self.flat.iter_mut().zip(rows).zip(cols) {
                        *f = r * d.cols() + c;
                    }
                    simd::gather_into(buf, d.values(), &self.flat[..n]);
                    continue;
                }
                (Matrix::Dense(d), SideAccess::Cell, TileRows::One(r)) => d.row(r),
                (Matrix::Dense(d), SideAccess::Row, _) => d.row(0),
                (Matrix::Sparse(_), SideAccess::Cell | SideAccess::Row, TileRows::One(_)) => {
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
        self.eval.eval_body(bp, &ctx, n, k);
        f(&self.eval, &ctx, n)
    }
}
