//! Tile gathering for the block backend: resolves each of a
//! [`fusedml_core::spoof::block::BlockProgram`]'s side gathers into per-tile slices — zero-copy for
//! dense sides under dense iteration, densified-row or scatter-gather
//! scratch otherwise — and drives the tile evaluator.
//!
//! The skeletons own iteration order (dense row ranges or CSR non-zero
//! batches) and aggregation; this module owns everything between "here is a
//! tile worth of positions" and "here is the evaluated result tile".

use crate::side::SideInput;
use fusedml_linalg::pool;
use fusedml_linalg::simd;

use fusedml_core::spoof::block::{BlockEval, BlockKernel, OpRef, TileCtx, TileSrc};
use fusedml_core::spoof::SideAccess;

/// Maximum distinct `(side, access)` gathers the tile path supports; kernels
/// beyond this fall back to the scalar interpreter.
pub const MAX_GATHERS: usize = 16;

/// True if the kernel's gather list fits the tile path.
pub fn supported(kernel: &BlockKernel) -> bool {
    kernel.block.gathers.len() <= MAX_GATHERS
}

/// Narrows a row-spanning tile source to one tile.
#[inline]
pub fn sub_tile<'a>(src: TileSrc<'a>, c0: usize, n: usize) -> TileSrc<'a> {
    match src {
        TileSrc::Slice(s) => TileSrc::Slice(&s[c0..c0 + n]),
        TileSrc::Const(c) => TileSrc::Const(c),
    }
}

/// Reads main-input rows for dense (full row-range) iteration, densifying
/// sparse rows into scratch.
pub struct MainReader<'a> {
    m: Option<&'a fusedml_linalg::Matrix>,
    scratch: Vec<f64>,
}

impl Drop for MainReader<'_> {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.scratch));
    }
}

impl<'a> MainReader<'a> {
    pub fn new(m: Option<&'a fusedml_linalg::Matrix>, cols: usize) -> Self {
        let scratch = match m {
            Some(fusedml_linalg::Matrix::Sparse(_)) => pool::take_zeroed(cols),
            _ => Vec::new(),
        };
        MainReader { m, scratch }
    }

    /// The whole main row as a tile source (slice with `sub_tile`).
    pub fn row(&mut self, r: usize) -> TileSrc<'_> {
        match self.m {
            Some(fusedml_linalg::Matrix::Dense(d)) => TileSrc::Slice(d.row(r)),
            Some(fusedml_linalg::Matrix::Sparse(s)) => {
                self.scratch.fill(0.0);
                for (c, v) in s.row_iter(r) {
                    self.scratch[c] = v;
                }
                TileSrc::Slice(&self.scratch)
            }
            None => TileSrc::Const(0.0),
        }
    }
}

/// Per-thread tile-execution state: the evaluator register files plus
/// per-gather-slot scratch.
pub struct TileRunner<'k, 's> {
    pub kernel: &'k BlockKernel,
    pub eval: BlockEval,
    sides: &'s [SideInput],
    /// Densified side rows (sparse sides under dense iteration; row 0 of
    /// sparse `Row`-access sides, filled once).
    row_bufs: Vec<Vec<f64>>,
    /// Scatter-gather scratch (sparse-main iteration), tile-width sized.
    scatter_bufs: Vec<Vec<f64>>,
    width: usize,
}

impl Drop for TileRunner<'_, '_> {
    fn drop(&mut self) {
        for buf in self.row_bufs.drain(..).chain(self.scatter_bufs.drain(..)) {
            pool::give(buf);
        }
    }
}

impl<'k, 's> TileRunner<'k, 's> {
    /// Builds a runner and runs the invocation-invariant prologue.
    /// `iter_cols` sizes the densified-row scratch for dense iteration.
    pub fn new(
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
        let mut row_bufs = vec![Vec::new(); bp.gathers.len()];
        let mut scatter_bufs = vec![Vec::new(); bp.gathers.len()];
        for (slot, &(side, access)) in bp.gathers.iter().enumerate() {
            if matches!(sides[side], SideInput::Sparse(_)) {
                let mut buf = pool::take_zeroed(iter_cols);
                if access == SideAccess::Row {
                    // Row access reads row 0 everywhere: densify once.
                    sides[side].read_row_into(0, 0, iter_cols, &mut buf);
                }
                row_bufs[slot] = buf;
            }
            scatter_bufs[slot] = pool::take_zeroed(width);
        }
        TileRunner { kernel, eval, sides, row_bufs, scatter_bufs, width }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    /// Per-row prologue for dense iteration: runs the row-uniform program
    /// and densifies sparse `Cell`-access side rows.
    pub fn begin_row_dense(&mut self, r: usize) {
        let bp = &self.kernel.block;
        self.eval.begin_row(bp, &|i, acc| self.sides[i].value_at(acc, r, 0));
        for (slot, &(side, access)) in bp.gathers.iter().enumerate() {
            if access == SideAccess::Cell {
                if let SideInput::Sparse(s) = &self.sides[side] {
                    let buf = &mut self.row_bufs[slot];
                    buf.fill(0.0);
                    for (c, v) in s.row_iter(r) {
                        buf[c] = v;
                    }
                }
            }
        }
    }

    /// Per-row prologue for sparse (non-zero-batched) iteration: only the
    /// row-uniform program runs; gathers happen per batch.
    pub fn begin_row_sparse(&mut self, r: usize) {
        let bp = &self.kernel.block;
        self.eval.begin_row(bp, &|i, acc| self.sides[i].value_at(acc, r, 0));
    }

    /// Gathers side tiles for columns `[c0, c0+n)` of row `r`, optionally
    /// evaluates the body, and hands the evaluator + context to `f`.
    #[allow(clippy::too_many_arguments)] // mirrors the skeleton calling convention
    pub fn dense_tile<R>(
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
                    TileSrc::Slice(&self.row_bufs[slot][c0..c0 + n])
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
    pub fn sparse_tile<R>(
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
            let buf = &mut self.scatter_bufs[slot];
            match (&self.sides[side], access) {
                (SideInput::Dense(d), SideAccess::Cell) => {
                    simd::gather_into(&mut buf[..n], d.row(r), cols);
                }
                (SideInput::Dense(d), SideAccess::Row) => {
                    simd::gather_into(&mut buf[..n], d.row(0), cols);
                }
                (SideInput::Sparse(s), SideAccess::Cell) => {
                    for (b, &c) in buf[..n].iter_mut().zip(cols) {
                        *b = s.get(r, c);
                    }
                }
                (SideInput::Sparse(s), SideAccess::Row) => {
                    for (b, &c) in buf[..n].iter_mut().zip(cols) {
                        *b = s.get(0, c);
                    }
                }
                _ => unreachable!("Col/Scalar accesses are hoisted out of gathers"),
            }
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

/// Folds an evaluated tile result into a per-column accumulator slice
/// (dense column aggregation).
#[inline]
pub fn fold_cols(op: fusedml_linalg::ops::AggOp, acc: &mut [f64], r: OpRef<'_>) {
    match r {
        OpRef::S(s) => {
            for (a, &v) in acc.iter_mut().zip(s) {
                *a = op.fold(*a, v);
            }
        }
        OpRef::C(c) => {
            for a in acc.iter_mut() {
                *a = op.fold(*a, c);
            }
        }
    }
}
