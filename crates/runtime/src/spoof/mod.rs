//! Template skeletons: hand-coded data-access shells that call the
//! generated register programs per value (paper §2.2, Figure 4).
//!
//! "We made the conscious design decision not to generate the data access
//! into the fused operators. Instead, the hand-coded skeleton implements the
//! data access — depending on its sparse-safeness over cells or non-zero
//! values — of dense, sparse, or compressed matrices and calls an abstract
//! genexec method for each value."
//!
//! The Cell, MAgg and Outer skeletons are one pass over the positions of
//! the main input — `tiles::CellPass`, the tile walk over dense rows or CSR
//! non-zeros, or `scalar::ScalarPass`, its per-cell oracle — and the output
//! sink of their variant (`CellSinks`); the Row skeleton drives the
//! band-lowered `RowKernel` a tile of rows per instruction, with per-band
//! register contexts and sparse-aware row views.
//!
//! Every skeleton runs the kernel it is handed: [`execute`] passes the one
//! `codegen::generate` lowered onto the operator, the differential suites
//! lower their own.

pub mod cellwise;
pub mod compressed;
pub mod multiagg;
pub mod outerprod;
pub mod rowwise;
mod scalar;
pub mod tiles;

use fusedml_core::codegen::GeneratedOperator;
use fusedml_core::spoof::block::{BlockKernel, CellBackend, Kernel};
use fusedml_core::spoof::{FusedSpec, Program, Reg};
use fusedml_linalg::ops::AggOp;
use fusedml_linalg::{Matrix, SparseMatrix};
use rowwise::RowBackend;

/// What one Cell / MAgg / Outer pass runs over: the register program and
/// its lowered kernel, its result registers (a sink addresses result `j` as
/// `regs[j]`) and the bound inputs of a `rows × cols` iteration space.
#[derive(Clone, Copy)]
pub(crate) struct PassInput<'a> {
    pub prog: &'a Program,
    pub kernel: &'a BlockKernel,
    pub regs: &'a [Reg],
    pub main: Option<&'a Matrix>,
    pub sides: &'a [Matrix],
    pub scalars: &'a [f64],
    pub rows: usize,
    pub cols: usize,
    /// The program maps a zero main value to zero.
    pub sparse_safe: bool,
    /// Outer's dense row-major `(U, V, rank)`.
    pub factors: Option<(&'a [f64], &'a [f64], usize)>,
}

impl<'a> PassInput<'a> {
    /// The main input when it is iterated non-zero by non-zero: a CSR main
    /// under a sparse-safe program.
    fn csr(&self) -> Option<&'a SparseMatrix> {
        match self.main {
            Some(Matrix::Sparse(s)) if self.sparse_safe => Some(s),
            _ => None,
        }
    }

    /// `par` work hint per main row.
    fn work(&self) -> usize {
        let per_row = self.csr().map_or(self.cols, |x| x.nnz() / self.rows.max(1)).max(1);
        per_row * self.factors.map_or(4 * self.regs.len(), |(_, _, rank)| rank)
    }
}

/// The output sinks of one pass over the positions of a Cell / MAgg / Outer
/// operator — what is left of a template's output variant. Results are not
/// finalized (see [`finalize`]).
pub(crate) trait CellSinks {
    /// The main input if the pass iterates its non-zeros only — then the
    /// folds have not seen the implicit zeros.
    fn csr(&self) -> Option<&SparseMatrix>;
    /// `Full(k)`: result `j` folded under `ops[j]` over every position (Cell
    /// and Outer `FullAgg` with `k` = 1, MAgg).
    fn full(&self, ops: &[AggOp]) -> Vec<f64>;
    /// `RowAgg`: result 0 folded per main row.
    fn row_agg(&self, op: AggOp) -> Vec<f64>;
    /// `ColAgg`: result 0 folded per column, with how many positions each
    /// column was visited at (fewer than `rows` only under CSR iteration).
    fn col_agg(&self, op: AggOp) -> (Vec<f64>, Vec<usize>);
    /// `NoAgg`: result 0 at every position — dense under dense iteration,
    /// the non-zero results as CSR under CSR iteration.
    fn no_agg(&self) -> Matrix;
    /// `RightMM`: `out[i,:] += w_ij * S[j,:]` for the `rows × k` output, `s`
    /// the row-major `cols × k` side.
    fn right_mm(&self, s: &[f64], k: usize) -> Vec<f64>;
    /// `LeftMM`: `out[j,:] += w_ij * S[i,:]` for the `cols × k` output, `s`
    /// the row-major `rows × k` side.
    fn left_mm(&self, s: &[f64], k: usize) -> Vec<f64>;
}

/// Runs `finish` over the pass of one operator run: the tile walk, or the
/// per-cell oracle under [`CellBackend::Scalar`] and for a kernel with more
/// gathers than [`tiles::MAX_GATHERS`].
pub(crate) fn with_pass<R>(
    input: PassInput<'_>,
    backend: CellBackend,
    finish: impl FnOnce(&dyn CellSinks) -> R,
) -> R {
    match tiles::CellPass::new(input, backend) {
        Some(pass) => finish(&pass),
        None => finish(&scalar::ScalarPass::new(input)),
    }
}

/// One aggregate over `of` positions, of which the pass visited `seen`:
/// `Min` / `Max` still fold the implicit zeros a CSR pass skipped (they map
/// to zero under sparse-safety), and `Mean` divides by `of`.
pub(crate) fn finalize(op: AggOp, acc: f64, seen: usize, of: usize) -> f64 {
    let acc = if !op.sparse_safe() && seen < of { op.fold(acc, 0.0) } else { acc };
    if op == AggOp::Mean {
        acc / of as f64
    } else {
        acc
    }
}

/// [`CellSinks::full`] over `of` positions, finalized. Only a CSR pass is
/// asked its non-zeros: a dense main would count them in a scan as long as
/// the pass.
pub(crate) fn full_aggs(pass: &dyn CellSinks, ops: &[AggOp], of: usize) -> Vec<f64> {
    let seen = pass.csr().map_or(of, |x| x.nnz());
    pass.full(ops).into_iter().zip(ops).map(|(acc, &op)| finalize(op, acc, seen, of)).collect()
}

/// Executes a generated operator's kernel over bound inputs.
///
/// `main` is the template's main input (Cell/MAgg/Outer iterate its
/// cells/non-zeros; Row iterates its rows); `sides` and `scalars` follow the
/// CPlan's binding order. Returns the operator output(s): one matrix except
/// for MultiAgg, which returns one 1×1 matrix per aggregate.
pub fn execute(
    op: &GeneratedOperator,
    main: Option<&Matrix>,
    sides: &[Matrix],
    scalars: &[f64],
    iter_rows: usize,
    iter_cols: usize,
) -> Vec<Matrix> {
    let (rows, cols, mono) = (iter_rows, iter_cols, CellBackend::Mono);
    match (&op.spec, &op.kernel) {
        (FusedSpec::Cell(c), Kernel::Block(k)) => {
            vec![cellwise::execute_with(c, k, main, sides, scalars, rows, cols, mono)]
        }
        (FusedSpec::MAgg(m), Kernel::Block(k)) => {
            multiagg::execute_with(m, k, main, sides, scalars, rows, cols, mono)
        }
        (FusedSpec::Row(r), Kernel::Row(k)) => {
            let main = main.expect("Row template requires a main input");
            vec![rowwise::execute_with(r, k, main, sides, scalars, RowBackend::Block)]
        }
        (FusedSpec::Outer(o), Kernel::Block(k)) => {
            vec![outerprod::execute_with(o, k, main, sides, scalars, rows, cols, mono)]
        }
        _ => {
            unreachable!("generate lowers a Row spec to a row kernel, the others to block kernels")
        }
    }
}

/// A generated operator over a hand-built spec, lowered with no side rows.
#[cfg(test)]
pub(crate) fn operator(spec: FusedSpec) -> GeneratedOperator {
    GeneratedOperator::new(String::new(), String::new(), spec, 0, &[])
}
