#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Differential property tests for the tile-vectorized block backend:
//! random scalar register programs executed through the Cell and MultiAgg
//! skeletons must agree with the per-cell scalar interpreter (the oracle)
//! across dense/sparse mains, every `SideAccess` kind, every aggregation
//! variant, and ragged tail tiles (rows/cols not a multiple of the tile
//! width).
//!
//! Elementwise (NoAgg) results agree to 1e-12 (bitwise in the generic path;
//! a product kernel multiplies its main factors first); aggregates are
//! reassociated tile-wise, so they agree to a slightly looser 1e-11.

mod common;

use fusedml_core::spoof::block::{compile_kernel, CellBackend};
use fusedml_core::spoof::mono::ShapeClass;
use fusedml_core::spoof::{CellAgg, CellSpec, Instr, MAggSpec, Program, SideAccess};
use fusedml_linalg::ops::{AggOp, BinaryOp, TernaryOp, UnaryOp};
use fusedml_linalg::{generate, Matrix};
use fusedml_runtime::side::SideInput;
use fusedml_runtime::spoof::{cellwise, multiagg};
use rand::{rngs::StdRng, Rng, SeedableRng};

const N_SIDES: usize = 3;
const N_SCALARS: usize = 2;

/// Generates a random scalar program over the main input, `N_SIDES` sides
/// with random access kinds, bound scalars, and constants. The operator set
/// is restricted to operations whose NaN/∞ behaviour is order-independent,
/// so the differential comparison stays exact-by-construction.
fn random_program(rng: &mut StdRng) -> Program {
    let n_instrs = rng.gen_range(1..14usize);
    let mut instrs: Vec<Instr> = Vec::with_capacity(n_instrs);
    let mut next = 0u16;
    for _ in 0..n_instrs {
        let have = next;
        let pick = |rng: &mut StdRng, have: u16| rng.gen_range(0..have);
        let kind = if have == 0 { 0 } else { rng.gen_range(0..8u32) };
        let out = next;
        next += 1;
        let ins = match kind {
            // Loads.
            0 => match rng.gen_range(0..5u32) {
                0 => Instr::LoadMain { out },
                1 => {
                    let access = match rng.gen_range(0..4u32) {
                        0 => SideAccess::Cell,
                        1 => SideAccess::Col,
                        2 => SideAccess::Row,
                        _ => SideAccess::Scalar,
                    };
                    Instr::LoadSide { out, side: rng.gen_range(0..N_SIDES), access }
                }
                2 => Instr::LoadScalar { out, idx: rng.gen_range(0..N_SCALARS) },
                3 => Instr::LoadConst { out, value: rng.gen_range(-2.0..2.0) },
                _ => Instr::LoadMain { out },
            },
            // Unary over an existing register.
            1 | 2 => {
                let ops = [
                    UnaryOp::Abs,
                    UnaryOp::Neg,
                    UnaryOp::Sigmoid,
                    UnaryOp::Pow2,
                    UnaryOp::Sprop,
                    UnaryOp::Round,
                    UnaryOp::Floor,
                    UnaryOp::Ceil,
                    UnaryOp::Sign,
                    UnaryOp::Exp,
                ];
                Instr::Unary { out, op: ops[rng.gen_range(0..ops.len())], a: pick(rng, have) }
            }
            // Ternary.
            3 => {
                let ops = [TernaryOp::PlusMult, TernaryOp::MinusMult, TernaryOp::IfElse];
                Instr::Ternary {
                    out,
                    op: ops[rng.gen_range(0..ops.len())],
                    a: pick(rng, have),
                    b: pick(rng, have),
                    c: pick(rng, have),
                }
            }
            // Binary (weighted towards Mult so product chains appear).
            _ => {
                let ops = [
                    BinaryOp::Mult,
                    BinaryOp::Mult,
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Min,
                    BinaryOp::Max,
                    BinaryOp::Eq,
                    BinaryOp::Neq,
                    BinaryOp::Lt,
                    BinaryOp::Le,
                    BinaryOp::Gt,
                    BinaryOp::Ge,
                ];
                Instr::Binary {
                    out,
                    op: ops[rng.gen_range(0..ops.len())],
                    a: pick(rng, have),
                    b: pick(rng, have),
                }
            }
        };
        instrs.push(ins);
    }
    Program { instrs, n_regs: next, vreg_lens: vec![] }
}

struct Inputs {
    dense_main: Matrix,
    sparse_main: Matrix,
    sides: Vec<Matrix>,
    scalars: Vec<f64>,
    rows: usize,
    cols: usize,
}

fn random_inputs(rng: &mut StdRng, seed: u64) -> Inputs {
    let rows = rng.gen_range(2..28usize);
    // Mix of tiny, sub-tile, and multi-tile-with-ragged-tail widths.
    let cols = *[3, 17, 255, 256, 300, 517].get(rng.gen_range(0..6usize)).unwrap();
    let dense = generate::rand_dense(rows, cols, -1.5, 1.5, seed.wrapping_mul(31) + 1);
    let sp = generate::rand_matrix(rows, cols, -1.5, 1.5, 0.25, seed.wrapping_mul(31) + 2);
    let sides = (0..N_SIDES)
        .map(|i| {
            if rng.gen_bool(0.3) {
                generate::rand_matrix(rows, cols, -1.5, 1.5, 0.3, seed * 7 + i as u64)
            } else {
                generate::rand_dense(rows, cols, -1.5, 1.5, seed * 7 + i as u64)
            }
        })
        .collect();
    let scalars = (0..N_SCALARS).map(|_| rng.gen_range(-1.5..1.5)).collect();
    Inputs { dense_main: dense, sparse_main: sp, sides, scalars, rows, cols }
}

fn random_agg(rng: &mut StdRng) -> AggOp {
    [AggOp::Sum, AggOp::SumSq, AggOp::Min, AggOp::Max, AggOp::Mean][rng.gen_range(0..5usize)]
}

#[test]
fn cell_block_backends_match_scalar_oracle_on_random_programs() {
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = random_program(&mut rng);
        let inputs = random_inputs(&mut rng, seed);
        let result = prog.n_regs - 1;
        let agg = match rng.gen_range(0..4u32) {
            0 => CellAgg::NoAgg,
            1 => CellAgg::RowAgg(random_agg(&mut rng)),
            2 => CellAgg::ColAgg(random_agg(&mut rng)),
            _ => CellAgg::FullAgg(random_agg(&mut rng)),
        };
        let tol = if agg == CellAgg::NoAgg { 1e-12 } else { 1e-11 };
        // Exercise both the dense iteration order and (claiming sparse
        // safety for the comparison) the non-zero-batched order.
        for (main, sparse_safe) in
            [(&inputs.dense_main, false), (&inputs.sparse_main, true), (&inputs.sparse_main, false)]
        {
            // NoAgg over claimed-sparse-safe programs only emits non-zeros
            // in both backends; programs here are generally not sparse-safe,
            // so restrict that combination to aggregating variants.
            if sparse_safe && agg == CellAgg::NoAgg {
                continue;
            }
            let spec = CellSpec { prog: prog.clone(), result, agg, sparse_safe };
            let sides: Vec<SideInput> = inputs.sides.iter().map(SideInput::bind).collect();
            let oracle = cellwise::execute_with(
                &spec,
                Some(main),
                &sides,
                &inputs.scalars,
                inputs.rows,
                inputs.cols,
                CellBackend::Scalar,
            );
            for backend in [CellBackend::Block, CellBackend::Mono] {
                let got = cellwise::execute_with(
                    &spec,
                    Some(main),
                    &sides,
                    &inputs.scalars,
                    inputs.rows,
                    inputs.cols,
                    backend,
                );
                assert!(
                    got.approx_eq(&oracle, tol),
                    "seed {seed}: {backend:?} diverges from scalar oracle \
                     (agg {agg:?}, sparse_safe {sparse_safe}, {}x{}, prog {:?})",
                    inputs.rows,
                    inputs.cols,
                    prog
                );
            }
        }
    }
}

#[test]
fn multiagg_block_backends_match_scalar_oracle_on_random_programs() {
    for seed in 1000..1080u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = random_program(&mut rng);
        let inputs = random_inputs(&mut rng, seed);
        let k = rng.gen_range(1..4usize);
        let results: Vec<(u16, AggOp)> =
            (0..k).map(|_| (rng.gen_range(0..prog.n_regs), random_agg(&mut rng))).collect();
        for (main, sparse_safe) in
            [(&inputs.dense_main, false), (&inputs.sparse_main, true), (&inputs.sparse_main, false)]
        {
            let spec = MAggSpec { prog: prog.clone(), results: results.clone(), sparse_safe };
            let sides: Vec<SideInput> = inputs.sides.iter().map(SideInput::bind).collect();
            let oracle = multiagg::execute_with(
                &spec,
                Some(main),
                &sides,
                &inputs.scalars,
                inputs.rows,
                inputs.cols,
                CellBackend::Scalar,
            );
            for backend in [CellBackend::Block, CellBackend::Mono] {
                let got = multiagg::execute_with(
                    &spec,
                    Some(main),
                    &sides,
                    &inputs.scalars,
                    inputs.rows,
                    inputs.cols,
                    backend,
                );
                for (g, o) in got.iter().zip(&oracle) {
                    assert!(
                        fusedml_linalg::approx_eq(g.get(0, 0), o.get(0, 0), 1e-11),
                        "seed {seed}: {backend:?} diverges ({} vs {}, sparse_safe \
                         {sparse_safe}, prog {:?})",
                        g.get(0, 0),
                        o.get(0, 0),
                        prog
                    );
                }
            }
        }
    }
}

/// Multiply chains are the one shape with a kernel of their own
/// (`MonoKernel::Product`: `dot`-family sums, `mul2`/`mul3` maps), so `Mono`
/// and the tile interpreter (`Block`) share no loop on them: one to four
/// factors, the main input once or twice, `Cell` and `Row` gathers, dense
/// and CSR mains, every aggregation. Written main-first and left-deep — the
/// order the compiler emits and the product kernel multiplies in — the maps
/// are bitwise; folds reassociate within the file's tolerance.
#[test]
fn product_chains_agree_between_mono_and_tile_interpreter() {
    let main = |out| Instr::LoadMain { out };
    let side = |out, side, access| Instr::LoadSide { out, side, access };
    let chains = [
        vec![main(0)],
        vec![main(0), side(1, 0, SideAccess::Cell)],
        vec![main(0), side(1, 0, SideAccess::Cell), side(2, 1, SideAccess::Cell)],
        vec![main(0), main(1), side(2, 0, SideAccess::Cell)],
        vec![
            main(0),
            side(1, 0, SideAccess::Cell),
            side(2, 1, SideAccess::Cell),
            side(3, 2, SideAccess::Row),
        ],
    ];
    let mut aggs = vec![CellAgg::NoAgg];
    for op in [AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::SumSq] {
        aggs.extend([CellAgg::RowAgg(op), CellAgg::ColAgg(op), CellAgg::FullAgg(op)]);
    }
    for (ci, leaves) in chains.iter().enumerate() {
        let n = leaves.len() as u16;
        let mut instrs = leaves.clone();
        let mut result = 0;
        for leaf in 1..n {
            instrs.push(Instr::Binary {
                out: n + leaf - 1,
                op: BinaryOp::Mult,
                a: result,
                b: leaf,
            });
            result = n + leaf - 1;
        }
        let prog = Program { instrs, n_regs: result.max(n - 1) + 1, vreg_lens: vec![] };
        assert_eq!(compile_kernel(&prog).shape_class(result), ShapeClass::ProductChain);
        for seed in [7u64, 8, 9] {
            let inputs = random_inputs(&mut StdRng::seed_from_u64(seed + ci as u64), seed);
            let sides: Vec<SideInput> = inputs.sides.iter().map(SideInput::bind).collect();
            for (main, sparse_safe) in [(&inputs.dense_main, false), (&inputs.sparse_main, true)] {
                for &agg in &aggs {
                    let spec = CellSpec { prog: prog.clone(), result, agg, sparse_safe };
                    let run = |backend| {
                        cellwise::execute_with(
                            &spec,
                            Some(main),
                            &sides,
                            &inputs.scalars,
                            inputs.rows,
                            inputs.cols,
                            backend,
                        )
                    };
                    let (mono, block) = (run(CellBackend::Mono), run(CellBackend::Block));
                    let what = format!(
                        "chain {ci} {agg:?} sparse={} {}x{}",
                        main.is_sparse(),
                        inputs.rows,
                        inputs.cols
                    );
                    if agg == CellAgg::NoAgg {
                        common::assert_bitwise(&mono, &block, &what);
                    } else {
                        assert!(mono.approx_eq(&block, 1e-11), "{what}");
                    }
                }
            }
        }
    }
}

/// Sweeping the tile width (including widths far from the default and ones
/// that never divide the column counts) must not change results. Widths are
/// per-engine configuration now: each sweep point installs a fresh
/// [`KernelCaches`] scope instead of mutating process globals.
#[test]
fn tile_width_sweep_preserves_results() {
    use fusedml_core::plancache::KernelCaches;
    let mut rng = StdRng::seed_from_u64(9000);
    let prog = random_program(&mut rng);
    let inputs = random_inputs(&mut rng, 9000);
    let spec = CellSpec {
        prog: prog.clone(),
        result: prog.n_regs - 1,
        agg: CellAgg::FullAgg(AggOp::Sum),
        sparse_safe: false,
    };
    let sides: Vec<SideInput> = inputs.sides.iter().map(SideInput::bind).collect();
    let oracle = cellwise::execute_with(
        &spec,
        Some(&inputs.dense_main),
        &sides,
        &inputs.scalars,
        inputs.rows,
        inputs.cols,
        CellBackend::Scalar,
    );
    for width in [8, 33, 100, 256, 1024] {
        for backend in [CellBackend::Block, CellBackend::Mono] {
            let caches = KernelCaches::with_config(16, width);
            let _scope = fusedml_runtime::spoof::enter_kernels(&caches);
            let got = cellwise::execute_with(
                &spec,
                Some(&inputs.dense_main),
                &sides,
                &inputs.scalars,
                inputs.rows,
                inputs.cols,
                backend,
            );
            assert!(got.approx_eq(&oracle, 1e-11), "width {width} backend {backend:?}");
        }
    }
}
