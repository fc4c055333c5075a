#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Differential property tests for the tile-vectorized block backend:
//! random scalar register programs executed through the Cell, MultiAgg and
//! Outer skeletons must agree with the per-cell scalar pass (the oracle:
//! one walk, one `eval_scalar_program` per position, point reads only)
//! across dense/sparse mains, every `SideAccess` kind, every aggregation
//! variant, and ragged tail tiles (rows/cols not a multiple of the tile
//! width). The three skeletons share one tile driver
//! (`spoof::tiles::CellPass`) and one oracle walk, each under the same
//! output sinks; `every_sink_on_the_format_width_grid` walks each sink over
//! the tile-edge shapes, and `sparse_cell_sides_match_the_oracle_lookup` the
//! ways a CSR side's scattered row can go stale.
//! `seventeen_gathers_run_the_scalar_pass_against_base` checks the oracle
//! where it runs in production, a kernel past the tile path's gather limit,
//! against the `Base` kernels.
//!
//! Elementwise (NoAgg) results agree to 1e-12 (bitwise in the generic path;
//! a product kernel multiplies its main factors first); aggregates are
//! reassociated tile-wise, so they agree to a slightly looser 1e-11.

mod common;

use fusedml_core::spoof::block::{compile_kernel, BlockKernel, CellBackend};
use fusedml_core::spoof::{
    CellAgg, CellSpec, Instr, MAggSpec, OuterOut, OuterSpec, Program, SideAccess,
};
use fusedml_linalg::ops::{AggOp, BinaryOp, TernaryOp, UnaryOp};
use fusedml_linalg::{generate, par, Matrix, SparseMatrix};
use fusedml_runtime::side::SideInput;
use fusedml_runtime::spoof::{cellwise, multiagg, outerprod};
use rand::{rngs::StdRng, Rng, SeedableRng};

const N_SIDES: usize = 3;
const N_SCALARS: usize = 2;

/// Generates a random scalar program over the main input, `N_SIDES` sides
/// with random access kinds, bound scalars, and constants. The operator set
/// is restricted to operations whose NaN/∞ behaviour is order-independent,
/// so the differential comparison stays exact-by-construction. With `uv`, a
/// fifth of the loads read Outer's `dot(U_i, V_j)` instead of the main.
fn random_program(rng: &mut StdRng, uv: bool) -> Program {
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
                _ if uv => Instr::LoadUVDot { out },
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
        let prog = random_program(&mut rng, false);
        let kernel = compile_kernel(&prog);
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
                &kernel,
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
                    &kernel,
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
        let prog = random_program(&mut rng, false);
        let kernel = compile_kernel(&prog);
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
                &kernel,
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
                    &kernel,
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

/// Outer legs: every `OuterOut` over {dense, CSR sparse-safe, CSR not
/// sparse-safe} mains, `Block` and `Mono` against `Scalar`. Programs read
/// `dot(U_i, V_j)` as well as the main and the sides; `U`/`V` are bound CSR
/// on some seeds (the skeleton densifies them once). `RightMM` multiplies
/// with `V`, `LeftMM` with `U`, as the ALS-CG update does.
#[test]
fn outer_block_backends_match_scalar_oracle_on_random_programs() {
    for seed in 2000..2060u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = random_program(&mut rng, true);
        let kernel = compile_kernel(&prog);
        let inputs = random_inputs(&mut rng, seed);
        let rank = rng.gen_range(1..9usize);
        let mut bound = inputs.sides.clone();
        for (i, len) in [inputs.rows, inputs.cols].into_iter().enumerate() {
            let density = if rng.gen_bool(0.3) { 0.3 } else { 1.0 };
            bound.push(generate::rand_matrix(len, rank, -1.0, 1.0, density, seed * 13 + i as u64));
        }
        let (u_side, v_side) = (N_SIDES, N_SIDES + 1);
        let sides: Vec<SideInput> = bound.iter().map(SideInput::bind).collect();
        for out in [
            OuterOut::FullAgg,
            OuterOut::RightMM { side: v_side },
            OuterOut::LeftMM { side: u_side },
            OuterOut::NoAgg,
        ] {
            for (main, sparse_safe) in [
                (&inputs.dense_main, false),
                (&inputs.sparse_main, true),
                (&inputs.sparse_main, false),
            ] {
                let spec = OuterSpec {
                    prog: prog.clone(),
                    result: prog.n_regs - 1,
                    out,
                    u_side,
                    v_side,
                    rank,
                    sparse_safe,
                };
                let run = |backend| {
                    outerprod::execute_with(
                        &spec,
                        &kernel,
                        Some(main),
                        &sides,
                        &inputs.scalars,
                        inputs.rows,
                        inputs.cols,
                        backend,
                    )
                };
                let oracle = run(CellBackend::Scalar);
                for backend in [CellBackend::Block, CellBackend::Mono] {
                    let got = run(backend);
                    let what = format!(
                        "seed {seed}: {backend:?} {out:?} sparse={} sparse_safe {sparse_safe}, \
                         {}x{} rank {rank}, prog {prog:?}",
                        main.is_sparse(),
                        inputs.rows,
                        inputs.cols
                    );
                    if out == OuterOut::NoAgg {
                        common::assert_bitwise(&got, &oracle, &what);
                    } else {
                        assert!(got.approx_eq(&oracle, 1e-11), "{what}");
                    }
                }
            }
        }
    }
}

/// Multiply chains are the one shape with a kernel of their own
/// (`mono::Product`: `dot`-family sums, `mul2`/`mul3` maps), so `Mono`
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
        let kernel = compile_kernel(&prog);
        assert!(kernel.mono_for(result).is_some());
        for seed in [7u64, 8, 9] {
            let inputs = random_inputs(&mut StdRng::seed_from_u64(seed + ci as u64), seed);
            let sides: Vec<SideInput> = inputs.sides.iter().map(SideInput::bind).collect();
            for (main, sparse_safe) in [(&inputs.dense_main, false), (&inputs.sparse_main, true)] {
                for &agg in &aggs {
                    let spec = CellSpec { prog: prog.clone(), result, agg, sparse_safe };
                    let run = |backend| {
                        cellwise::execute_with(
                            &spec,
                            &kernel,
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

/// A MAgg operator folding `X ⊙ S0 ⊙ S1` (a product chain) and `X ⊙ (S0 + S1)`
/// (not one) over the same inputs: the one kind of pass in which the tile
/// body runs *and* a result bypasses it through the fused product fold, so
/// the two must read the same gathered tiles. Dense and CSR mains (two tiles
/// and a ragged tail per dense row), one and two workers, a summing and an
/// order-statistic aggregate.
#[test]
fn magg_mixes_a_product_chain_with_an_interpreted_result() {
    let cell = |out, side| Instr::LoadSide { out, side, access: SideAccess::Cell };
    let bin = |out, op, a, b| Instr::Binary { out, op, a, b };
    let prog = Program {
        instrs: vec![
            Instr::LoadMain { out: 0 },
            cell(1, 0),
            cell(2, 1),
            bin(3, BinaryOp::Mult, 0, 1),
            bin(4, BinaryOp::Mult, 3, 2),
            bin(5, BinaryOp::Add, 1, 2),
            bin(6, BinaryOp::Mult, 0, 5),
        ],
        n_regs: 7,
        vreg_lens: vec![],
    };
    let kernel = compile_kernel(&prog);
    assert!(kernel.mono_for(4).is_some() && kernel.mono_for(6).is_none());
    let cols = 517;
    let rows = 2 * par::PAR_THRESHOLD / cols + 3;
    let dense = generate::rand_dense(rows, cols, -1.5, 1.5, 41);
    let csr = generate::rand_matrix(rows, cols, -1.5, 1.5, 0.3, 42);
    let bound = [
        generate::rand_dense(rows, cols, -1.5, 1.5, 43),
        generate::rand_matrix(rows, cols, -1.5, 1.5, 0.3, 44),
    ];
    let sides: Vec<SideInput> = bound.iter().map(SideInput::bind).collect();
    for (main, sparse_safe) in [(&dense, false), (&csr, true)] {
        for op in [AggOp::Sum, AggOp::Min] {
            let spec =
                MAggSpec { prog: prog.clone(), results: vec![(4, op), (6, op)], sparse_safe };
            let run = |backend, threads| {
                let _limit = par::limit_current_thread(threads);
                multiagg::execute_with(&spec, &kernel, Some(main), &sides, &[], rows, cols, backend)
            };
            let oracle = run(CellBackend::Scalar, 1);
            for backend in [CellBackend::Block, CellBackend::Mono] {
                for threads in [1, 2] {
                    let got = run(backend, threads);
                    assert_eq!(got.len(), 2);
                    for (j, (g, o)) in got.iter().zip(&oracle).enumerate() {
                        assert!(
                            g.approx_eq(o, 1e-11),
                            "result {j} {op:?} {backend:?} {threads} threads sparse={}: {g:?} vs {o:?}",
                            main.is_sparse()
                        );
                    }
                }
            }
        }
    }
}

/// MAgg operators whose product sums share one loop over their inputs
/// (`mono::fold_sums`): two, three and four product chains of one to three
/// factors (`X`, `X⊙S0`, `X⊙S1`, `S0⊙S1`, `X⊙s2ᵀ` with a `Row` gather,
/// `X⊙S0⊙S1`) under `Sum` / `Mean`, beside a `Min` over a product and a
/// `Sum` / `Max` over a non-product. Dense and CSR mains (CSR both walked by
/// non-zeros and densely), one and two workers: every backend agrees with
/// the oracle, and under `Mono` each result is bitwise what the same result
/// gives in an operator of its own, where it folds alone.
#[test]
fn magg_fuses_product_sums_bitwise_the_per_result_folds() {
    let cell = |out, side| Instr::LoadSide { out, side, access: SideAccess::Cell };
    let mult = |out, a, b| Instr::Binary { out, op: BinaryOp::Mult, a, b };
    let prog = Program {
        instrs: vec![
            Instr::LoadMain { out: 0 },
            cell(1, 0),
            cell(2, 1),
            Instr::LoadSide { out: 3, side: 2, access: SideAccess::Row },
            mult(4, 0, 1),
            mult(5, 0, 2),
            mult(6, 1, 2),
            mult(7, 0, 3),
            mult(8, 4, 2),
            Instr::Binary { out: 9, op: BinaryOp::Add, a: 1, b: 2 },
            mult(10, 0, 9),
        ],
        n_regs: 11,
        vreg_lens: vec![],
    };
    let kernel = compile_kernel(&prog);
    assert!([0, 4, 5, 6, 7, 8].iter().all(|&r| kernel.mono_for(r).is_some()));
    assert!(kernel.mono_for(10).is_none());
    let (sum, mean) = (AggOp::Sum, AggOp::Mean);
    let result_sets: [Vec<(u16, AggOp)>; 3] = [
        vec![(4, sum), (10, sum), (5, sum), (4, AggOp::Min)],
        vec![(4, sum), (5, mean), (10, AggOp::Max), (6, sum), (5, AggOp::Min)],
        vec![(8, sum), (4, sum), (5, sum), (10, sum), (7, sum), (0, mean), (6, AggOp::Min)],
    ];
    let cols = 517;
    let rows = 2 * par::PAR_THRESHOLD / cols + 3;
    let dense = generate::rand_dense(rows, cols, -1.5, 1.5, 71);
    let csr = generate::rand_matrix(rows, cols, -1.5, 1.5, 0.3, 72);
    let bound = [
        generate::rand_dense(rows, cols, -1.5, 1.5, 73),
        generate::rand_matrix(rows, cols, -1.5, 1.5, 0.3, 74),
        generate::rand_dense(1, cols, -1.5, 1.5, 75),
    ];
    let sides: Vec<SideInput> = bound.iter().map(SideInput::bind).collect();
    for results in &result_sets {
        for (main, sparse_safe) in [(&dense, false), (&csr, true), (&csr, false)] {
            let run = |results: &[(u16, AggOp)], backend, threads| {
                let _limit = par::limit_current_thread(threads);
                let spec = MAggSpec { prog: prog.clone(), results: results.to_vec(), sparse_safe };
                multiagg::execute_with(&spec, &kernel, Some(main), &sides, &[], rows, cols, backend)
            };
            let oracle = run(results, CellBackend::Scalar, 1);
            for threads in [1, 2] {
                let what = format!(
                    "{results:?} sparse={} safe={sparse_safe} {threads} threads",
                    main.is_sparse()
                );
                for backend in [CellBackend::Block, CellBackend::Mono] {
                    for (j, (g, o)) in
                        run(results, backend, threads).iter().zip(&oracle).enumerate()
                    {
                        assert!(
                            g.approx_eq(o, 1e-11),
                            "{what} {backend:?} result {j}: {g:?} vs {o:?}"
                        );
                    }
                }
                let fused = run(results, CellBackend::Mono, threads);
                for (j, (&result, got)) in results.iter().zip(&fused).enumerate() {
                    let alone = run(&[result], CellBackend::Mono, threads);
                    common::assert_bitwise(got, &alone[0], &format!("{what} result {j} alone"));
                }
            }
        }
    }
}

/// `no_agg` takes its dense output without zeroing it: the second of two runs
/// on one engine writes into the buffer the first one recycled (NaN in every
/// slot in debug builds, the first run's values in release) and must still
/// match the oracle cell for cell — through a product chain's
/// `Product::map_into` and through the tile interpreter, on one and two
/// workers.
#[test]
fn no_agg_overwrites_every_slot_of_a_recycled_output() {
    use fusedml_runtime::{Engine, FusionMode};
    let engine = Engine::new(FusionMode::Gen);
    let _scope = engine.scope();
    let cols = 517;
    let rows = 2 * par::PAR_THRESHOLD / cols + 3;
    let side = generate::rand_dense(rows, cols, -1.5, 1.5, 81);
    let sides = [SideInput::bind(&side)];
    let (x1, x2) = (
        generate::rand_dense(rows, cols, -1.5, 1.5, 82),
        generate::rand_dense(rows, cols, -1.5, 1.5, 83),
    );
    let cell = Instr::LoadSide { out: 1, side: 0, access: SideAccess::Cell };
    let bin = |op| Instr::Binary { out: 2, op, a: 0, b: 1 };
    for (body, op) in [("product", BinaryOp::Mult), ("interpreted", BinaryOp::Add)] {
        let prog = Program {
            instrs: vec![Instr::LoadMain { out: 0 }, cell.clone(), bin(op)],
            n_regs: 3,
            vreg_lens: vec![],
        };
        let kernel = compile_kernel(&prog);
        assert_eq!(kernel.mono_for(2).is_some(), op == BinaryOp::Mult);
        let spec = CellSpec { prog, result: 2, agg: CellAgg::NoAgg, sparse_safe: false };
        let run = |main: &Matrix, backend| {
            cellwise::execute_with(&spec, &kernel, Some(main), &sides, &[], rows, cols, backend)
        };
        let oracle = run(&x2, CellBackend::Scalar);
        for backend in [CellBackend::Block, CellBackend::Mono] {
            for threads in [1, 2] {
                let _limit = par::limit_current_thread(threads);
                let first = run(&x1, backend);
                let buffer = first.as_dense().values().as_ptr();
                first.recycle();
                let hits = engine.pool_stats().hits;
                let second = run(&x2, backend);
                assert!(engine.pool_stats().hits > hits, "{body} {backend:?}: no pool hit");
                assert_eq!(
                    second.as_dense().values().as_ptr(),
                    buffer,
                    "{body} {backend:?} {threads} threads: the recycled buffer is reused"
                );
                common::assert_bitwise(
                    &second,
                    &oracle,
                    &format!("{body} {backend:?} {threads} threads"),
                );
            }
        }
    }
}

/// Sweeping the tile width (including widths far from the default and ones
/// that never divide the column counts) must not change results. Each sweep
/// point sets the width on the kernel it lowers.
#[test]
fn tile_width_sweep_preserves_results() {
    let mut rng = StdRng::seed_from_u64(9000);
    let prog = random_program(&mut rng, false);
    let mut kernel = compile_kernel(&prog);
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
        &kernel,
        Some(&inputs.dense_main),
        &sides,
        &inputs.scalars,
        inputs.rows,
        inputs.cols,
        CellBackend::Scalar,
    );
    for width in [8, 33, 100, 256, 1024] {
        kernel.width = width;
        for backend in [CellBackend::Block, CellBackend::Mono] {
            let got = cellwise::execute_with(
                &spec,
                &kernel,
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

/// An operator of the grid: which skeleton, which output sink.
#[derive(Clone, Copy, Debug)]
enum GridOp {
    Cell(CellAgg),
    MAgg,
    Outer(OuterOut),
}

/// `(X ⊙ (S0 + s1ᵀ)) − s2` with `S0` read per cell, `s1` per column (`Row`
/// access) and `s2` per row (`Col` access, so every row has a row-uniform
/// prologue); Outer multiplies by `dot(U_i, V_j)`. Not a product chain, so
/// the map class is bitwise on every backend.
fn grid_program() -> Program {
    Program {
        instrs: vec![
            Instr::LoadMain { out: 0 },
            Instr::LoadSide { out: 1, side: 0, access: SideAccess::Cell },
            Instr::LoadSide { out: 2, side: 1, access: SideAccess::Row },
            Instr::LoadSide { out: 3, side: 2, access: SideAccess::Col },
            Instr::Binary { out: 4, op: BinaryOp::Add, a: 1, b: 2 },
            Instr::Binary { out: 5, op: BinaryOp::Mult, a: 0, b: 4 },
            Instr::Binary { out: 6, op: BinaryOp::Sub, a: 5, b: 3 },
            Instr::LoadUVDot { out: 7 },
            Instr::Binary { out: 8, op: BinaryOp::Mult, a: 6, b: 7 },
        ],
        n_regs: 9,
        vreg_lens: vec![],
    }
}

/// CSR with the cells of `d` kept where `keep(r, c)`.
fn csr_where(d: &Matrix, keep: impl Fn(usize, usize) -> bool) -> Matrix {
    let mut triples = Vec::new();
    for r in 0..d.rows() {
        for c in (0..d.cols()).filter(|&c| keep(r, c)) {
            triples.push((r, c, d.get(r, c)));
        }
    }
    Matrix::sparse(SparseMatrix::from_triples(d.rows(), d.cols(), triples))
}

/// One set of inputs for the grid operators. Outer runs all of `prog`, which
/// ends in `LoadUVDot` and a multiply by it, with `(U, V, rank)` at `uv`;
/// Cell and MAgg run the instructions before those two, every kernel at tile
/// width `width`.
struct Grid<'a> {
    prog: Program,
    width: usize,
    maggs: Vec<(u16, AggOp)>,
    sides: &'a [SideInput],
    uv: (usize, usize, usize),
    rows: usize,
    cols: usize,
}

impl Grid<'_> {
    fn run(
        &self,
        op: GridOp,
        main: Option<&Matrix>,
        sparse_safe: bool,
        backend: CellBackend,
        threads: usize,
    ) -> Vec<Matrix> {
        let _limit = par::limit_current_thread(threads);
        let (rows, cols, sides) = (self.rows, self.cols, self.sides);
        let n_cell = self.prog.instrs.len() - 2;
        let cell_prog = Program {
            instrs: self.prog.instrs[..n_cell].to_vec(),
            n_regs: n_cell as u16,
            vreg_lens: vec![],
        };
        let kernel = compile_kernel(match op {
            GridOp::Outer(_) => &self.prog,
            _ => &cell_prog,
        });
        let kernel = BlockKernel { width: self.width, ..kernel };
        match op {
            GridOp::Cell(agg) => {
                let result = cell_prog.n_regs - 1;
                let spec = CellSpec { prog: cell_prog, result, agg, sparse_safe };
                vec![cellwise::execute_with(&spec, &kernel, main, sides, &[], rows, cols, backend)]
            }
            GridOp::MAgg => {
                let spec = MAggSpec { prog: cell_prog, results: self.maggs.clone(), sparse_safe };
                multiagg::execute_with(&spec, &kernel, main, sides, &[], rows, cols, backend)
            }
            GridOp::Outer(out) => {
                let (u_side, v_side, rank) = self.uv;
                let spec = OuterSpec {
                    prog: self.prog.clone(),
                    result: self.prog.n_regs - 1,
                    out,
                    u_side,
                    v_side,
                    rank,
                    sparse_safe,
                };
                vec![outerprod::execute_with(&spec, &kernel, main, sides, &[], rows, cols, backend)]
            }
        }
    }

    /// `Block` and `Mono` on one and on two threads against the `Scalar`
    /// oracle. Map-class sinks are bitwise against the oracle; sinks that
    /// keep a main row on one worker are bitwise across thread counts.
    fn check(&self, what: &str, op: GridOp, main: Option<&Matrix>, sparse_safe: bool) {
        let map_class = matches!(op, GridOp::Cell(CellAgg::NoAgg) | GridOp::Outer(OuterOut::NoAgg));
        let row_local = map_class
            || matches!(
                op,
                GridOp::Cell(CellAgg::RowAgg(_)) | GridOp::Outer(OuterOut::RightMM { .. })
            );
        let what = format!(
            "{what} {}x{} {op:?} main {} sparse_safe {sparse_safe}",
            self.rows,
            self.cols,
            main.map_or("none", |m| if m.is_sparse() { "csr" } else { "dense" })
        );
        let oracle = self.run(op, main, sparse_safe, CellBackend::Scalar, 1);
        let check = |got: &[Matrix], want: &[Matrix], bitwise: bool, what: &str| {
            assert_eq!(got.len(), want.len(), "{what}: result count");
            for (g, w) in got.iter().zip(want) {
                if bitwise {
                    common::assert_bitwise(g, w, what);
                } else {
                    assert!(g.approx_eq(w, 1e-11), "{what}: {g:?} vs {w:?}");
                }
            }
        };
        for backend in [CellBackend::Block, CellBackend::Mono] {
            let one = self.run(op, main, sparse_safe, backend, 1);
            let two = self.run(op, main, sparse_safe, backend, 2);
            check(&one, &oracle, map_class, &format!("{what} {backend:?} 1 thread"));
            check(&two, &oracle, map_class, &format!("{what} {backend:?} 2 threads"));
            check(&two, &one, row_local, &format!("{what} {backend:?} 2 vs 1 threads"));
        }
    }
}

/// One `rows × cols` point of the grid at tile width `width`: every sink,
/// every main format.
fn grid_point(width: usize, rows: usize, cols: usize) {
    const RANK: usize = 3;
    let seed = (width * 1000 + cols) as u64;
    let dense = generate::rand_dense(rows, cols, -1.5, 1.5, seed);
    // Row 0 is full (longer than one tile once `cols > width`), row 1 is
    // empty, the rest hold three cells in ten.
    let csr = csr_where(&dense, |r, c| r == 0 || (r != 1 && (r * 31 + c * 17) % 10 < 3));
    // A CSR `Cell` side denser than the CSR main, a CSR `Row` side, a dense
    // `Col` side, then Outer's factors.
    let s0 = generate::rand_dense(rows, cols, -1.5, 1.5, seed + 1);
    let s1 = generate::rand_dense(1, cols, -1.5, 1.5, seed + 2);
    let bound = [
        csr_where(&s0, |r, c| (r * 7 + c * 3) % 10 < 6),
        csr_where(&s1, |_, c| c % 2 == 0),
        generate::rand_dense(rows, 1, -1.5, 1.5, seed + 3),
        generate::rand_dense(rows, RANK, -1.0, 1.0, seed + 4),
        generate::rand_dense(cols, RANK, -1.0, 1.0, seed + 5),
    ];
    let sides: Vec<SideInput> = bound.iter().map(SideInput::bind).collect();
    let grid = Grid {
        prog: grid_program(),
        width,
        maggs: vec![(5, AggOp::Sum), (6, AggOp::Max), (4, AggOp::Min), (6, AggOp::Mean)],
        sides: &sides,
        uv: (3, 4, RANK),
        rows,
        cols,
    };
    let ops = [
        GridOp::Cell(CellAgg::NoAgg),
        GridOp::Cell(CellAgg::RowAgg(AggOp::Sum)),
        GridOp::Cell(CellAgg::RowAgg(AggOp::Min)),
        GridOp::Cell(CellAgg::ColAgg(AggOp::Sum)),
        GridOp::Cell(CellAgg::ColAgg(AggOp::Max)),
        GridOp::Cell(CellAgg::FullAgg(AggOp::SumSq)),
        GridOp::Cell(CellAgg::FullAgg(AggOp::Mean)),
        GridOp::MAgg,
        GridOp::Outer(OuterOut::FullAgg),
        GridOp::Outer(OuterOut::RightMM { side: 4 }),
        GridOp::Outer(OuterOut::LeftMM { side: 3 }),
        GridOp::Outer(OuterOut::NoAgg),
    ];
    let mains = [(Some(&dense), false), (Some(&csr), true), (Some(&csr), false), (None, false)];
    for op in ops {
        for (main, sparse_safe) in mains {
            if main.is_none() && matches!(op, GridOp::Outer(_)) {
                continue; // `main = None` is Cell / MAgg over sides only
            }
            grid.check(&format!("width {width}"), op, main, sparse_safe);
        }
    }
}

/// Drives every output sink of the shared driver through `execute_with` at
/// the shapes its tile walk has edges at: tile widths 8 / 33 / 256, column
/// counts around a tile boundary (none, one, `w−1`, `w`, `w+1`, three tiles
/// and a ragged fourth), an empty CSR row and one longer than a tile, no
/// main at all, a CSR side denser than the main, and row counts on either
/// side of the `par` split under one and two threads. `limit_current_thread`
/// is the thread-local cap: `set_num_threads` is process-wide and would race
/// with the other tests of this binary.
#[test]
fn every_sink_on_the_format_width_grid() {
    for width in [8usize, 33, 256] {
        for cols in [0, 1, width - 1, width, width + 1, 3 * width + 5] {
            // Three rows run inline; the second count clears the split
            // threshold even under the CSR work hint (`nnz / rows · 4` at a
            // density of 0.3).
            for rows in [3, 2 * par::PAR_THRESHOLD / cols.max(1) + 3] {
                grid_point(width, rows, cols);
            }
        }
    }
}

/// `X ⊙ (S0 + S1) − S2` with all three sides read per cell; Outer multiplies
/// by `dot(U_i, V_j)`. Sums rather than a product chain, so a wrong value
/// gathered from any one side reaches the result whatever the other two hold,
/// and the map class is bitwise on every backend.
fn three_cell_sides_program() -> Program {
    let cell = |out, side| Instr::LoadSide { out, side, access: SideAccess::Cell };
    Program {
        instrs: vec![
            Instr::LoadMain { out: 0 },
            cell(1, 0),
            cell(2, 1),
            cell(3, 2),
            Instr::Binary { out: 4, op: BinaryOp::Add, a: 1, b: 2 },
            Instr::Binary { out: 5, op: BinaryOp::Mult, a: 0, b: 4 },
            Instr::Binary { out: 6, op: BinaryOp::Sub, a: 5, b: 3 },
            Instr::LoadUVDot { out: 7 },
            Instr::Binary { out: 8, op: BinaryOp::Mult, a: 6, b: 7 },
        ],
        n_regs: 9,
        vreg_lens: vec![],
    }
}

/// `X / S0`: the one program here that tells a stored `-0.0` (`-inf`) from a
/// stored or absent `+0.0` (`+inf`) even where the output keeps no zeros.
fn divide_by_side_program() -> Program {
    Program {
        instrs: vec![
            Instr::LoadMain { out: 0 },
            Instr::LoadSide { out: 1, side: 0, access: SideAccess::Cell },
            Instr::Binary { out: 2, op: BinaryOp::Div, a: 0, b: 1 },
            Instr::LoadUVDot { out: 3 },
            Instr::Binary { out: 4, op: BinaryOp::Mult, a: 2, b: 3 },
        ],
        n_regs: 5,
        vreg_lens: vec![],
    }
}

/// Sparse `Cell` sides are read from a scattered row (`tiles::RowScratch`);
/// the oracle looks every cell up. Each case below is a way for a scratch to
/// hold the wrong thing — a row it was not cleared of, a row it was never
/// loaded with — run through every sink, under CSR iteration and (the same
/// sides, densified per row) dense iteration, at a tile width every full row
/// spans four tiles of, on row counts either side of the `par` split.
#[test]
fn sparse_cell_sides_match_the_oracle_lookup() {
    const RANK: usize = 3;
    let width = 16;
    let cols = 3 * width + 5;
    let every_sink = [
        GridOp::Cell(CellAgg::NoAgg),
        GridOp::Cell(CellAgg::RowAgg(AggOp::Sum)),
        GridOp::Cell(CellAgg::RowAgg(AggOp::Max)),
        GridOp::Cell(CellAgg::ColAgg(AggOp::Sum)),
        GridOp::Cell(CellAgg::ColAgg(AggOp::Min)),
        GridOp::Cell(CellAgg::FullAgg(AggOp::Sum)),
        GridOp::Cell(CellAgg::FullAgg(AggOp::SumSq)),
        GridOp::MAgg,
        GridOp::Outer(OuterOut::FullAgg),
        GridOp::Outer(OuterOut::NoAgg),
    ];
    // A `Min` / `Max` over NaNs depends on the fold order; sums do not.
    let sums_and_maps = [
        GridOp::Cell(CellAgg::NoAgg),
        GridOp::Cell(CellAgg::RowAgg(AggOp::Sum)),
        GridOp::Cell(CellAgg::ColAgg(AggOp::Sum)),
        GridOp::Cell(CellAgg::FullAgg(AggOp::Sum)),
        GridOp::MAgg,
        GridOp::Outer(OuterOut::FullAgg),
        GridOp::Outer(OuterOut::NoAgg),
    ];
    for rows in [9, 2 * par::PAR_THRESHOLD / cols + 3] {
        let values = |seed| generate::rand_dense(rows, cols, 0.5, 1.5, seed);
        let (x, s0, s1, s2) = (values(1), values(2), values(3), values(4));
        let sixty = |r: usize, c: usize| (r * 7 + c * 3) % 10 < 6;
        // Main rows cycle through two cells, a full row of four tiles (the
        // scratch must survive across them) and one cell.
        let alternating = csr_where(&x, |r, c| match r % 3 {
            0 => c == 1 || c == cols - 2,
            1 => true,
            _ => c == cols / 2,
        });
        let factors = [
            generate::rand_dense(rows, RANK, -1.0, 1.0, 5),
            generate::rand_dense(cols, RANK, -1.0, 1.0, 6),
        ];
        // Every sink over the case's CSR main (sparse-safe, then walked
        // densely) and over the dense main.
        let check =
            |name: &str, prog: Program, cell_sides: Vec<Matrix>, csr: &Matrix, ops: &[GridOp]| {
                let n_sides = cell_sides.len();
                // The Cell result and the register before it, both summed.
                let result = prog.n_regs - 3;
                let sides: Vec<SideInput> =
                    cell_sides.iter().chain(&factors).map(SideInput::bind).collect();
                let grid = Grid {
                    prog,
                    width,
                    maggs: vec![(result, AggOp::Sum), (result - 1, AggOp::Sum)],
                    sides: &sides,
                    uv: (n_sides, n_sides + 1, RANK),
                    rows,
                    cols,
                };
                for &op in ops {
                    for (main, sparse_safe) in [(csr, true), (csr, false), (&x, false)] {
                        grid.check(name, op, Some(main), sparse_safe);
                    }
                }
            };
        // Side rows 60 % full on a support that shifts with the row; full and
        // empty rows in turn; long / empty / two-cell rows, out of step with
        // the main's cycle.
        check(
            "alternating rows",
            three_cell_sides_program(),
            vec![
                csr_where(&s0, sixty),
                csr_where(&s1, |r, _| r % 2 == 1),
                csr_where(&s2, |r, c| match r % 4 {
                    0 | 3 => c % 10 != 0,
                    1 => false,
                    _ => c == 1 || c == cols - 1,
                }),
            ],
            &alternating,
            &every_sink,
        );
        // Every gathered value is an implicit zero: a side cell that reads
        // non-zero was left behind by another row or column.
        check(
            "disjoint supports",
            three_cell_sides_program(),
            vec![
                csr_where(&s0, |_, c| c % 2 == 1),
                csr_where(&s1, |r, c| c % 2 == 1 && (r + c) % 3 == 0),
                csr_where(&s2, |r, c| c % 2 == 1 && r % 2 == 0),
            ],
            &csr_where(&x, |r, c| c % 2 == 0 && (r % 3 == 1 || c % 16 == 0)),
            &every_sink,
        );
        // A gather returns the stored bits, an absent cell `+0.0`
        // (`from_triples` drops zeros, so the CSR arrays are built here).
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.0];
        let (mut ptr, mut idx, mut vals) = (vec![0], Vec::new(), Vec::new());
        for r in 0..rows {
            for c in (0..cols).filter(|&c| sixty(r, c)) {
                idx.push(c);
                vals.push(specials[(r + idx.len()) % specials.len()]);
            }
            ptr.push(idx.len());
        }
        check(
            "stored zeros, NaN and infinities",
            divide_by_side_program(),
            vec![Matrix::sparse(SparseMatrix::from_csr(rows, cols, ptr, idx, vals))],
            &alternating,
            &sums_and_maps,
        );
    }
}

/// A kernel with more side gathers than the tile path supports runs the
/// per-cell scalar pass in production: `main ⊙ (S0 + … + S16)` over 17
/// `Cell` sides (every other one CSR) through `spoof::execute` on generated
/// operators, against the `Base` kernels.
#[test]
fn seventeen_gathers_run_the_scalar_pass_against_base() {
    use fusedml_core::codegen::GeneratedOperator;
    use fusedml_core::spoof::FusedSpec;
    use fusedml_linalg::ops::{self, AggDir};
    use fusedml_runtime::spoof::{self, tiles};
    const SIDES: usize = tiles::MAX_GATHERS + 1;
    let (rows, cols) = (120, 40);
    let mut instrs = vec![Instr::LoadMain { out: 0 }];
    for side in 0..SIDES {
        instrs.push(Instr::LoadSide { out: side as u16 + 1, side, access: SideAccess::Cell });
    }
    let mut sum = 1;
    for b in 2..=SIDES as u16 {
        let out = SIDES as u16 + b - 1;
        instrs.push(Instr::Binary { out, op: BinaryOp::Add, a: sum, b });
        sum = out;
    }
    let result = sum + 1;
    instrs.push(Instr::Binary { out: result, op: BinaryOp::Mult, a: 0, b: sum });
    let prog = Program { instrs, n_regs: result + 1, vreg_lens: vec![] };
    assert!(!compile_kernel(&prog).tiled(), "{SIDES} gathers fit the tile path");
    let operator = |spec| GeneratedOperator::new(String::new(), String::new(), spec, 0, &[]);

    let side_mats: Vec<Matrix> = (0..SIDES)
        .map(|i| {
            let d = generate::rand_matrix(rows, cols, -1.0, 1.0, 0.5, 700 + i as u64).to_dense();
            if i % 2 == 0 {
                Matrix::dense(d)
            } else {
                Matrix::sparse(SparseMatrix::from_dense(&d))
            }
        })
        .collect();
    let sides: Vec<SideInput> = side_mats.iter().map(SideInput::bind).collect();
    let side_sum = side_mats[1..]
        .iter()
        .fold(side_mats[0].clone(), |acc, s| ops::binary(&acc, s, BinaryOp::Add));
    let dense = generate::rand_matrix(rows, cols, -1.0, 1.0, 0.5, 699).to_dense();
    let csr = Matrix::sparse(SparseMatrix::from_dense(&dense));
    for main in [Matrix::dense(dense), csr] {
        let prod = ops::binary(&main, &side_sum, BinaryOp::Mult);
        let cases = [
            (CellAgg::NoAgg, prod.clone()),
            (CellAgg::RowAgg(AggOp::Min), ops::agg(&prod, AggOp::Min, AggDir::Row)),
            (CellAgg::FullAgg(AggOp::Sum), ops::agg(&prod, AggOp::Sum, AggDir::Full)),
        ];
        let magg = operator(FusedSpec::MAgg(MAggSpec {
            prog: prog.clone(),
            results: vec![(result, AggOp::Sum), (result, AggOp::Min)],
            sparse_safe: true,
        }));
        let magg_expect =
            [AggOp::Sum, AggOp::Min].map(|op| ops::agg(&prod, op, AggDir::Full).get(0, 0));
        for threads in [1, 2] {
            let _limit = par::limit_current_thread(threads);
            let what = format!("csr main {} on {threads} threads", main.is_sparse());
            for (agg, expect) in &cases {
                let spec = CellSpec { prog: prog.clone(), result, agg: *agg, sparse_safe: true };
                let cell = operator(FusedSpec::Cell(spec));
                let out = &spoof::execute(&cell, Some(&main), &sides, &[], rows, cols)[0];
                assert!(out.approx_eq(expect, 1e-11), "{agg:?} {what}");
            }
            let outs = spoof::execute(&magg, Some(&main), &sides, &[], rows, cols);
            for (out, expect) in outs.iter().zip(magg_expect) {
                assert!(fusedml_linalg::approx_eq(out.get(0, 0), expect, 1e-11), "MAgg {what}");
            }
        }
    }
}

/// `n` pseudo-random multiples of 1/8 in [-4, 4]: a rank-17 `U_i·V_j`, its
/// products with the main and every sum of those below 2⁴⁰ are exact, so
/// any summation order gives the same bits.
fn eighths(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| {
            let x = (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % 65) as f64 / 8.0 - 4.0
        })
        .collect()
}

/// Outer's per-tile `U_i·V_j` (one `simd::dot_rows` / `dot_rows_at` call per
/// tile) and its `right_mm` / `left_mm` sinks (one `simd::axpy_gather` /
/// `axpy_scatter` call per tile) against the scalar pass, bitwise: ranks
/// around the 4-lane chunk and the 16-value line, CSR rows of 1–3 and of
/// ≈ 20 non-zeros, one row with none, and a dense main, under `full`,
/// `right_mm`, `left_mm` and `no_agg`. The program is ALS-CG's
/// `(X ≠ 0) ⊙ (U Vᵀ − X)`; its values are exact (see [`eighths`]), so the
/// scalar pass's per-cell order and the tiles' per-tile order agree to the
/// bit, and a dot or an axpy of the wrong row does not.
#[test]
fn outer_tiles_are_bitwise_the_scalar_pass_at_every_rank() {
    let (rows, cols) = (19, 70);
    let prog = Program {
        instrs: vec![
            Instr::LoadMain { out: 0 },
            Instr::LoadUVDot { out: 1 },
            Instr::Binary { out: 2, op: BinaryOp::Sub, a: 1, b: 0 },
            Instr::LoadConst { out: 3, value: 0.0 },
            Instr::Binary { out: 4, op: BinaryOp::Neq, a: 0, b: 3 },
            Instr::Binary { out: 5, op: BinaryOp::Mult, a: 4, b: 2 },
        ],
        n_regs: 6,
        vreg_lens: vec![],
    };
    let kernel = compile_kernel(&prog);
    let dense =
        Matrix::dense(fusedml_linalg::DenseMatrix::new(rows, cols, eighths(rows * cols, 1)));
    // Short rows of one to three cells, rows of about twenty, one empty.
    let short_and_long = csr_where(&dense, |r, c| match r % 3 {
        _ if r == 7 => false,
        0 => c % 23 == r % 23 || (r % 2 == 0 && c == 69),
        1 => c % 7 == 1 || c % 11 == 0,
        _ => c == (r * 5) % cols,
    });
    for rank in [1, 3, 4, 5, 10, 16, 17] {
        let u =
            Matrix::dense(fusedml_linalg::DenseMatrix::new(rows, rank, eighths(rows * rank, 2)));
        let v =
            Matrix::dense(fusedml_linalg::DenseMatrix::new(cols, rank, eighths(cols * rank, 3)));
        let sides = [SideInput::bind(&u), SideInput::bind(&v)];
        for out in [
            OuterOut::FullAgg,
            OuterOut::RightMM { side: 1 },
            OuterOut::LeftMM { side: 0 },
            OuterOut::NoAgg,
        ] {
            for (main, sparse_safe) in
                [(&short_and_long, true), (&short_and_long, false), (&dense, false)]
            {
                let spec = OuterSpec {
                    prog: prog.clone(),
                    result: 5,
                    out,
                    u_side: 0,
                    v_side: 1,
                    rank,
                    sparse_safe,
                };
                for threads in [1, 2] {
                    let run = |backend| {
                        let _limit = par::limit_current_thread(threads);
                        outerprod::execute_with(
                            &spec,
                            &kernel,
                            Some(main),
                            &sides,
                            &[],
                            rows,
                            cols,
                            backend,
                        )
                    };
                    let oracle = run(CellBackend::Scalar);
                    for backend in [CellBackend::Block, CellBackend::Mono] {
                        let what = format!(
                            "rank {rank} {out:?} {backend:?} sparse={} sparse_safe={sparse_safe} \
                             threads={threads}",
                            main.is_sparse()
                        );
                        common::assert_bitwise(&run(backend), &oracle, &what);
                    }
                }
            }
        }
    }
}

/// A `full` sink over a CSR main batches short rows into one tile when the
/// program runs no per-row prologue and gathers dense sides only; every other
/// walk takes one row per tile. Appending an unused `Col`-access load gives
/// the same program a per-row prologue, so the two kernels below run the
/// batched and the per-row walk over the same positions: their results must
/// agree bitwise, on random values whose sums round. Outer `FullAgg` (with
/// and without gathers), Cell `FullAgg` under `Sum` / `SumSq` / `Min` /
/// `Mean` and a MAgg whose product sums fold together, over CSR rows of zero
/// to three non-zeros, an empty row and a row longer than a tile, at tile
/// widths 8, 33 and 256 on one, two and three threads.
#[test]
fn batched_short_rows_are_bitwise_the_per_row_tiles() {
    const RANK: usize = 5;
    let (rows, cols) = (1500, 300);
    let cell = |out, side, access| Instr::LoadSide { out, side, access };
    // `X ⊙ (S0 + s1ᵀ) ⊙ S0` over a dense `Cell` side and a dense `Row` side;
    // `X ⊙ S0` and `X ⊙ s1ᵀ` are product chains.
    let body = vec![
        Instr::LoadMain { out: 0 },
        cell(1, 0, SideAccess::Cell),
        cell(2, 1, SideAccess::Row),
        Instr::Binary { out: 3, op: BinaryOp::Add, a: 1, b: 2 },
        Instr::Binary { out: 4, op: BinaryOp::Mult, a: 0, b: 3 },
        Instr::Binary { out: 5, op: BinaryOp::Mult, a: 4, b: 1 },
        Instr::Binary { out: 6, op: BinaryOp::Mult, a: 0, b: 1 },
        Instr::Binary { out: 7, op: BinaryOp::Mult, a: 0, b: 2 },
    ];
    // Outer: `X ⊙ (S0 + s1ᵀ) ⊙ U Vᵀ`, and fig8h's `X ⊙ log(U Vᵀ + 1e-15)`.
    let outer_gathers = [
        &body[..5],
        &[Instr::LoadUVDot { out: 5 }, Instr::Binary { out: 6, op: BinaryOp::Mult, a: 4, b: 5 }],
    ]
    .concat();
    let fig8h = vec![
        Instr::LoadMain { out: 0 },
        Instr::LoadUVDot { out: 1 },
        Instr::LoadConst { out: 2, value: 1e-15 },
        Instr::Binary { out: 3, op: BinaryOp::Add, a: 1, b: 2 },
        Instr::Unary { out: 4, op: UnaryOp::Log, a: 3 },
        Instr::Binary { out: 5, op: BinaryOp::Mult, a: 0, b: 4 },
    ];
    // The program, and the same program with a per-row prologue.
    let both = |instrs: &[Instr]| {
        let n = instrs.len() as u16;
        let plain = Program { instrs: instrs.to_vec(), n_regs: n, vreg_lens: vec![] };
        let mut per_row = plain.clone();
        per_row.instrs.push(cell(n, 2, SideAccess::Col));
        per_row.n_regs += 1;
        assert!(compile_kernel(&plain).block.row_uniform.is_empty());
        assert!(!compile_kernel(&per_row).block.row_uniform.is_empty());
        [plain, per_row]
    };
    let dense = generate::rand_dense(rows, cols, -1.5, 1.5, 41);
    // Row 0 holds every column (longer than a tile at every width), row 1
    // none, the others zero to three cells.
    let csr =
        csr_where(&dense, |r, c| r == 0 || (r != 1 && (c * 7 + r * 13) % cols < (r * 31) % 4));
    let bound = [
        generate::rand_dense(rows, cols, -1.5, 1.5, 42),
        generate::rand_dense(1, cols, -1.5, 1.5, 43),
        generate::rand_dense(rows, 1, -1.5, 1.5, 44),
        generate::rand_dense(rows, RANK, 0.1, 1.0, 45),
        generate::rand_dense(cols, RANK, 0.1, 1.0, 46),
    ];
    let sides: Vec<SideInput> = bound.iter().map(SideInput::bind).collect();
    let (cell_progs, outer_progs) = (both(&body), [both(&outer_gathers), both(&fig8h)]);
    for width in [8, 33, 256] {
        for threads in [1, 2, 3] {
            let run = |what: &str,
                       exec: &dyn Fn(&Program, &BlockKernel) -> Vec<Matrix>,
                       progs: &[Program; 2]| {
                let _limit = par::limit_current_thread(threads);
                let [batched, per_row] = progs.each_ref().map(|p| {
                    let kernel = BlockKernel { width, ..compile_kernel(p) };
                    exec(p, &kernel)
                });
                for (b, p) in batched.iter().zip(&per_row) {
                    common::assert_bitwise(
                        b,
                        p,
                        &format!("{what} width {width} threads {threads}"),
                    );
                }
            };
            for op in [AggOp::Sum, AggOp::SumSq, AggOp::Min, AggOp::Mean] {
                let exec = |prog: &Program, kernel: &BlockKernel| {
                    let spec = CellSpec {
                        prog: prog.clone(),
                        result: 5,
                        agg: CellAgg::FullAgg(op),
                        sparse_safe: true,
                    };
                    vec![cellwise::execute_with(
                        &spec,
                        kernel,
                        Some(&csr),
                        &sides,
                        &[],
                        rows,
                        cols,
                        CellBackend::Mono,
                    )]
                };
                run(&format!("Cell {op:?}"), &exec, &cell_progs);
            }
            for backend in [CellBackend::Block, CellBackend::Mono] {
                let exec = |prog: &Program, kernel: &BlockKernel| {
                    let results = vec![
                        (6, AggOp::Sum),
                        (7, AggOp::Sum),
                        (5, AggOp::Min),
                        (4, AggOp::Mean),
                        (3, AggOp::SumSq),
                    ];
                    let spec = MAggSpec { prog: prog.clone(), results, sparse_safe: true };
                    multiagg::execute_with(
                        &spec,
                        kernel,
                        Some(&csr),
                        &sides,
                        &[],
                        rows,
                        cols,
                        backend,
                    )
                };
                run(&format!("MAgg {backend:?}"), &exec, &cell_progs);
                for progs in &outer_progs {
                    let result = progs[0].n_regs - 1;
                    let exec = |prog: &Program, kernel: &BlockKernel| {
                        let spec = OuterSpec {
                            prog: prog.clone(),
                            result,
                            out: OuterOut::FullAgg,
                            u_side: 3,
                            v_side: 4,
                            rank: RANK,
                            sparse_safe: true,
                        };
                        vec![outerprod::execute_with(
                            &spec,
                            kernel,
                            Some(&csr),
                            &sides,
                            &[],
                            rows,
                            cols,
                            backend,
                        )]
                    };
                    run(&format!("Outer {backend:?}"), &exec, progs);
                }
            }
        }
    }
}

/// The Cell / MAgg part of [`grid_program`] (three tile registers) and a
/// twelve-register chain over the same inputs, whose register file is past
/// the L1 budget at every width above the floor, so its dense rows split at
/// `CSR_TILE_WIDTH`.
fn l1_width_programs() -> [Program; 2] {
    let grid = grid_program();
    let n_cell = grid.instrs.len() - 2;
    let cell = Program { instrs: grid.instrs[..n_cell].to_vec(), n_regs: n_cell as u16, ..grid };
    let mut instrs = cell.instrs.clone();
    for i in 0..9u16 {
        let (out, prev) = (7 + i, 6 + i);
        instrs.push(match i % 3 {
            0 => Instr::Binary { out, op: BinaryOp::Add, a: prev, b: 1 },
            1 => Instr::Unary { out, op: UnaryOp::Sigmoid, a: prev },
            _ => Instr::Ternary { out, op: TernaryOp::MinusMult, a: prev, b: 0, c: 2 },
        });
    }
    let chain = Program { instrs, n_regs: 16, vreg_lens: vec![] };
    [cell, chain]
}

/// Dense rows as the production kernel tiles them — one tile while the
/// register file fits the L1 budget, `dense_tile_width` wide past it —
/// shorter than, equal to and longer than that width (one and two tiles and a
/// ragged third), through every Cell sink and a MAgg, on one, two and three
/// threads: maps bitwise, aggregates within 1e-12 of the `Scalar` oracle.
#[test]
fn dense_rows_around_the_l1_width_match_the_oracle() {
    use fusedml_core::spoof::block::{dense_tile_width, CSR_TILE_WIDTH, MAX_TILE_WIDTH};
    for prog in l1_width_programs() {
        let kernel = compile_kernel(&prog);
        assert_eq!(kernel.width, MAX_TILE_WIDTH, "production kernels carry the cap");
        let w = dense_tile_width(kernel.block.n_tiles as usize, usize::MAX, kernel.width);
        assert!((CSR_TILE_WIDTH..MAX_TILE_WIDTH).contains(&w));
        let result = prog.n_regs - 1;
        for cols in [w - 1, w, w + 1, 2 * w + 5] {
            let rows = 2 * par::PAR_THRESHOLD / cols + 3;
            let seed = (w + cols) as u64;
            let main = generate::rand_dense(rows, cols, -1.5, 1.5, seed);
            let bound = [
                generate::rand_dense(rows, cols, -1.5, 1.5, seed + 1),
                generate::rand_dense(1, cols, -1.5, 1.5, seed + 2),
                generate::rand_dense(rows, 1, -1.5, 1.5, seed + 3),
            ];
            let sides: Vec<SideInput> = bound.iter().map(SideInput::bind).collect();
            let cells = [
                CellAgg::NoAgg,
                CellAgg::RowAgg(AggOp::Sum),
                CellAgg::ColAgg(AggOp::Sum),
                CellAgg::FullAgg(AggOp::SumSq),
                CellAgg::FullAgg(AggOp::Min),
            ];
            let maggs = vec![(4, AggOp::Sum), (5, AggOp::Sum), (result, AggOp::Max)];
            let run = |agg: Option<CellAgg>, backend, threads| {
                let _limit = par::limit_current_thread(threads);
                let main = Some(&main);
                match agg {
                    Some(agg) => {
                        let spec = CellSpec { prog: prog.clone(), result, agg, sparse_safe: false };
                        vec![cellwise::execute_with(
                            &spec,
                            &kernel,
                            main,
                            &sides,
                            &[],
                            rows,
                            cols,
                            backend,
                        )]
                    }
                    None => {
                        let spec = MAggSpec {
                            prog: prog.clone(),
                            results: maggs.clone(),
                            sparse_safe: false,
                        };
                        multiagg::execute_with(
                            &spec,
                            &kernel,
                            main,
                            &sides,
                            &[],
                            rows,
                            cols,
                            backend,
                        )
                    }
                }
            };
            for agg in cells.into_iter().map(Some).chain([None]) {
                let oracle = run(agg, CellBackend::Scalar, 1);
                for backend in [CellBackend::Block, CellBackend::Mono] {
                    for threads in [1, 2, 3] {
                        let what = format!(
                            "n_tiles {} {rows}x{cols} {agg:?} {backend:?} {threads} threads",
                            kernel.block.n_tiles
                        );
                        for (g, o) in run(agg, backend, threads).iter().zip(&oracle) {
                            if agg == Some(CellAgg::NoAgg) {
                                common::assert_bitwise(g, o, &what);
                            } else {
                                assert!(g.approx_eq(o, 1e-12), "{what}: {g:?} vs {o:?}");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A dense map whose result is the body's last instruction runs that
/// instruction straight into the output row; every other map copies its
/// result register out. The two must give the same bits, here on the
/// format/width grid (tile caps 8 / 33 / 256 and the production one, columns
/// around a tile edge, a dense main, a CSR main walked densely, no main, one
/// and two threads): bodies ending in a `Unary`, a `Binary` (a product under
/// `Block`, the product loop under `Mono`), a `Ternary` over three slices and
/// one over a uniform, each against itself with an unread instruction
/// appended (the result is then not the last instruction), and results that
/// are the main, a gather or a uniform, every one against the `Scalar` oracle.
#[test]
fn in_place_maps_are_bitwise_the_register_path() {
    use fusedml_core::spoof::block::MAX_TILE_WIDTH;
    let main = |out| Instr::LoadMain { out };
    let cell = |out, side| Instr::LoadSide { out, side, access: SideAccess::Cell };
    let row = |out, side| Instr::LoadSide { out, side, access: SideAccess::Row };
    let bin = |out, op, a, b| Instr::Binary { out, op, a, b };
    let ter = |out, op, a, b, c| Instr::Ternary { out, op, a, b, c };
    let leaves = vec![main(0), cell(1, 0), row(2, 1), Instr::LoadScalar { out: 3, idx: 0 }];
    let bodies: Vec<(&str, Vec<Instr>)> = vec![
        (
            "unary",
            vec![bin(4, BinaryOp::Add, 0, 1), Instr::Unary { out: 5, op: UnaryOp::Sigmoid, a: 4 }],
        ),
        ("binary", vec![bin(4, BinaryOp::Mult, 0, 2), bin(5, BinaryOp::Sub, 4, 1)]),
        ("product", vec![bin(4, BinaryOp::Mult, 0, 1), bin(5, BinaryOp::Mult, 4, 2)]),
        ("ternary", vec![bin(4, BinaryOp::Max, 0, 2), ter(5, TernaryOp::PlusMult, 4, 1, 0)]),
        (
            "ternary uniform",
            vec![ter(4, TernaryOp::MinusMult, 0, 3, 1), ter(5, TernaryOp::IfElse, 1, 4, 3)],
        ),
    ];
    let program = |body: &[Instr], result: u16, unread: bool| {
        let mut instrs = leaves.clone();
        instrs.extend_from_slice(body);
        if unread {
            instrs.push(Instr::Unary { out: 6, op: UnaryOp::Neg, a: 0 });
        }
        (Program { instrs, n_regs: 7, vreg_lens: vec![] }, result)
    };
    // (name, the program and its result, the same with an unread instruction
    // appended where the map writes in place).
    type Case = (String, (Program, u16), Option<(Program, u16)>);
    let mut cases: Vec<Case> = Vec::new();
    for (name, body) in &bodies {
        cases.push((name.to_string(), program(body, 5, false), Some(program(body, 5, true))));
    }
    // Results the sink copies or fills: the main, a gather, a uniform.
    for (name, result) in [("main", 0), ("gather", 1), ("uniform", 3)] {
        cases.push((name.to_string(), program(&bodies[1].1, result, false), None));
    }
    for width in [8usize, 33, 256, MAX_TILE_WIDTH] {
        let edge = width.min(300);
        for cols in [1, edge - 1, edge, edge + 1, 3 * edge + 5] {
            for rows in [3, 2 * par::PAR_THRESHOLD / cols + 3] {
                let seed = (width * 1000 + cols) as u64;
                let dense = generate::rand_dense(rows, cols, -1.5, 1.5, seed);
                let csr = csr_where(&dense, |r, c| r != 1 && (r * 31 + c * 17) % 10 < 3);
                let bound = [
                    generate::rand_dense(rows, cols, -1.5, 1.5, seed + 1),
                    generate::rand_dense(1, cols, -1.5, 1.5, seed + 2),
                ];
                let sides: Vec<SideInput> = bound.iter().map(SideInput::bind).collect();
                for (name, (prog, result), register) in &cases {
                    let run = |prog: &Program, result, main, backend, threads| {
                        let _limit = par::limit_current_thread(threads);
                        let kernel = BlockKernel { width, ..compile_kernel(prog) };
                        let spec = CellSpec {
                            prog: prog.clone(),
                            result,
                            agg: CellAgg::NoAgg,
                            sparse_safe: false,
                        };
                        cellwise::execute_with(
                            &spec,
                            &kernel,
                            main,
                            &sides,
                            &[0.75],
                            rows,
                            cols,
                            backend,
                        )
                    };
                    for main in [Some(&dense), Some(&csr), None] {
                        let what = format!(
                            "{name} width {width} {rows}x{cols} main {}",
                            main.map_or("none", |m| if m.is_sparse() { "csr" } else { "dense" })
                        );
                        let oracle = run(prog, *result, main, CellBackend::Scalar, 1);
                        for backend in [CellBackend::Block, CellBackend::Mono] {
                            for threads in [1, 2] {
                                let what = format!("{what} {backend:?} {threads} threads");
                                let got = run(prog, *result, main, backend, threads);
                                common::assert_bitwise(&got, &oracle, &what);
                                if let Some((reg_prog, reg_result)) = register {
                                    let want = run(reg_prog, *reg_result, main, backend, threads);
                                    common::assert_bitwise(
                                        &got,
                                        &want,
                                        &format!("{what} vs register"),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
