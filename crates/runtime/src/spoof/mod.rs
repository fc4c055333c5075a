//! Template skeletons: hand-coded data-access shells that call the
//! generated register programs per value (paper §2.2, Figure 4).
//!
//! "We made the conscious design decision not to generate the data access
//! into the fused operators. Instead, the hand-coded skeleton implements the
//! data access — depending on its sparse-safeness over cells or non-zero
//! values — of dense, sparse, or compressed matrices and calls an abstract
//! genexec method for each value."
//!
//! The Cell, MAgg and Outer skeletons are one driver — `tiles::CellPass`,
//! the tile walk over dense rows or CSR non-zeros of the main input — and
//! the output sink of their variant; the Row skeleton drives the
//! band-lowered `RowKernel` a tile of rows per instruction, with per-band
//! register contexts and sparse-aware row views.

pub mod cellwise;
pub mod compressed;
pub mod multiagg;
pub mod outerprod;
pub mod rowwise;
pub mod tiles;

use crate::side::SideInput;
use fusedml_core::plancache::KernelCaches;
use fusedml_core::spoof::block::RowShape;
use fusedml_core::spoof::mono::ShapeClass;
use fusedml_core::spoof::{FusedSpec, Instr, Program, Reg, RowOut};
use fusedml_linalg::{scoped, Matrix};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    static CURRENT_KERNELS: scoped::Stack<Arc<KernelCaches>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an installed kernel-cache scope (see [`enter_kernels`]);
/// the shared [`scoped`] machinery debug-asserts LIFO drop order.
pub struct KernelScope {
    _guard: scoped::Guard<Arc<KernelCaches>>,
}

/// Installs an engine's kernel caches as the current thread's lowering cache
/// until the returned guard drops. The executor enters a scope around each
/// task, so the skeletons resolve lowered block/row kernels from the engine
/// that compiled them — there is no process-wide kernel cache. Outside any
/// scope the skeletons lower uncached (correct, just slower; only exercised
/// by direct skeleton tests).
pub fn enter_kernels(caches: &Arc<KernelCaches>) -> KernelScope {
    KernelScope { _guard: scoped::push(&CURRENT_KERNELS, Arc::clone(caches)) }
}

/// The kernel caches the skeletons should lower through: the innermost
/// installed scope, or a fresh empty set when executing outside any engine.
pub(crate) fn kernels() -> Arc<KernelCaches> {
    scoped::top(&CURRENT_KERNELS).unwrap_or_else(|| Arc::new(KernelCaches::default()))
}

/// Classifies the kernel family `execute` runs a fused operator under with
/// the currently scoped kernel caches: a [`ShapeClass`] whose
/// [`is_specialized`](ShapeClass::is_specialized) is true means a kernel of
/// its own carries the inner loops (product chain, mv-chain, row tile);
/// `Interpreted` means the tile/band interpreter runs the register program
/// per tile.
/// `side_dims` follows the operator's side binding order (the Row kernel
/// cache is keyed on side geometry).
pub fn kernel_class(spec: &FusedSpec, side_dims: &[(usize, usize)]) -> ShapeClass {
    let caches = kernels();
    match spec {
        FusedSpec::Cell(c) => block_class(&caches, &c.prog, std::slice::from_ref(&c.result)),
        FusedSpec::MAgg(m) => {
            let regs: Vec<Reg> = m.results.iter().map(|&(r, _)| r).collect();
            block_class(&caches, &m.prog, &regs)
        }
        FusedSpec::Outer(o) => block_class(&caches, &o.prog, std::slice::from_ref(&o.result)),
        FusedSpec::Row(r) => {
            let kernel = caches.row.get_or_lower(r, side_dims);
            let matrix_shaped = matches!(r.out, RowOut::OuterColAgg { .. })
                || kernel.per_row.iter().any(|i| matches!(i, Instr::VecMatMult { .. }));
            match kernel.shape {
                Some(RowShape::MvChain { .. }) => ShapeClass::MvChain,
                None if matrix_shaped => ShapeClass::RowTile,
                None => ShapeClass::Interpreted,
            }
        }
    }
}

/// The block-template shape class: a product chain only when *every* result
/// register is one (otherwise the tile body still runs and the operator
/// counts as interpreted).
fn block_class(caches: &KernelCaches, prog: &Program, regs: &[Reg]) -> ShapeClass {
    let kernel = caches.block.get_or_lower(prog);
    let all_products = tiles::supported(&kernel)
        && !regs.is_empty()
        && regs.iter().all(|&r| kernel.mono_for(r).is_some());
    if all_products {
        ShapeClass::ProductChain
    } else {
        ShapeClass::Interpreted
    }
}

/// Executes a compiled fused operator over bound inputs.
///
/// `main` is the template's main input (Cell/MAgg/Outer iterate its
/// cells/non-zeros; Row iterates its rows); `sides` and `scalars` follow the
/// CPlan's binding order. Returns the operator output(s): one matrix except
/// for MultiAgg, which returns one 1×1 matrix per aggregate.
pub fn execute(
    spec: &FusedSpec,
    main: Option<&Matrix>,
    sides: &[SideInput],
    scalars: &[f64],
    iter_rows: usize,
    iter_cols: usize,
) -> Vec<Matrix> {
    match spec {
        FusedSpec::Cell(c) => {
            vec![cellwise::execute(c, main, sides, scalars, iter_rows, iter_cols)]
        }
        FusedSpec::MAgg(m) => multiagg::execute(m, main, sides, scalars, iter_rows, iter_cols),
        FusedSpec::Row(r) => {
            vec![rowwise::execute(
                r,
                main.expect("Row template requires a main input"),
                sides,
                scalars,
            )]
        }
        FusedSpec::Outer(o) => {
            vec![outerprod::execute(o, main, sides, scalars, iter_rows, iter_cols)]
        }
    }
}
