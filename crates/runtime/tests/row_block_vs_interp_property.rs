#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Differential property tests for the band-lowered Row backend: random
//! Row register programs executed through the block path (per-band
//! contexts, invariant hoisting, zero-copy dense side views, sparse rows
//! over non-zeros, mv-chain fast path) must agree with the per-row
//! interpreter (the oracle: one sequential loop over the main rows, each
//! row's `RowOut` folded into one output buffer) across dense/sparse mains
//! and sides, every `RowOut` variant, and ragged band tails
//! (row counts that don't divide the thread-band size) — mirroring
//! `block_vs_scalar_property.rs` for the Cell/MAgg templates.
//!
//! The block backend runs a tile of rows per instruction and its
//! matrix-shaped work through `simd::gemm`'s packed panels, so the grid
//! tests below walk what tiling can break: row counts on every side of a
//! tile boundary, `VecMatMult` widths on every side of a panel boundary,
//! `VecMatMult` over a computed (non-main) register, and row-aligned side
//! slices that start past column 0.
//!
//! Aggregating outputs reassociate across non-zeros and bands, so results
//! agree to 1e-9; elementwise (NoAgg) rows agree to 1e-11.
//! `row_tiles_are_bitwise_the_interpreter_on_the_lane_grid` holds the block
//! backend's one-loop-per-tile instructions to the oracle's bits instead:
//! on values with few mantissa bits every product and every sum an order
//! could change is exact, so a sparse row folded over its non-zeros and a
//! dense one folded over every cell agree to the bit, and a result that
//! differs is a lane or a row read from the wrong place.

mod common;

use fusedml_core::spoof::block::compile_row_kernel;
use fusedml_core::spoof::{Instr, Program, RowOut, RowSpec, SideAccess};
use fusedml_linalg::ops::{AggOp, BinaryOp, TernaryOp, UnaryOp};
use fusedml_linalg::{generate, Matrix};
use fusedml_runtime::side::SideInput;
use fusedml_runtime::spoof::rowwise::{self, RowBackend};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Runs `backend` over a kernel lowered under the bound sides' geometry.
fn run(
    spec: &RowSpec,
    main: &Matrix,
    sides: &[SideInput],
    scalars: &[f64],
    backend: RowBackend,
) -> Matrix {
    let dims: Vec<(usize, usize)> = sides.iter().map(|s| (s.rows(), s.cols())).collect();
    rowwise::execute_with(spec, &compile_row_kernel(spec, &dims), main, sides, scalars, backend)
}

/// Side layout (fixed across cases; densities vary):
/// 0: m×k matrix (VecMatMult), 1: m×1 column vector (whole-vector loads),
/// 2: n×m row-aligned matrix (side-row slices), 3: n×1 column (Col loads).
const N_SCALARS: usize = 2;

struct Shape {
    n: usize,
    m: usize,
    k: usize,
}

/// Register state tracked during generation.
struct Gen {
    instrs: Vec<Instr>,
    n_sregs: u16,
    vreg_lens: Vec<usize>,
    /// Vector registers of main-row length m.
    m_vecs: Vec<u16>,
    /// Vector registers of VecMatMult-output length k.
    k_vecs: Vec<u16>,
}

impl Gen {
    fn sreg(&mut self) -> u16 {
        let r = self.n_sregs;
        self.n_sregs += 1;
        r
    }
    fn vreg(&mut self, len: usize) -> u16 {
        self.vreg_lens.push(len);
        (self.vreg_lens.len() - 1) as u16
    }
}

/// Generates a random, well-typed Row program. The operator set is
/// restricted to operations whose NaN/∞ behaviour is order-independent so
/// the differential comparison stays tolerance-tight.
fn random_row_program(rng: &mut StdRng, sh: &Shape) -> Gen {
    let mut g = Gen {
        instrs: Vec::new(),
        n_sregs: 0,
        vreg_lens: Vec::new(),
        m_vecs: Vec::new(),
        k_vecs: Vec::new(),
    };
    // Always start from the main row.
    let main = g.vreg(sh.m);
    g.instrs.push(Instr::LoadMainRow { out: main });
    g.m_vecs.push(main);

    let n_extra = rng.gen_range(1..10usize);
    for _ in 0..n_extra {
        let have_scalars = g.n_sregs > 0;
        match rng.gen_range(0..10u32) {
            // Whole-vector load of the m×1 side.
            0 => {
                let v = g.vreg(sh.m);
                g.instrs.push(Instr::LoadSideRow { out: v, side: 1, cl: 0, cu: sh.m });
                g.m_vecs.push(v);
            }
            // Row slice of the row-aligned n×m side.
            1 => {
                let v = g.vreg(sh.m);
                g.instrs.push(Instr::LoadSideRow { out: v, side: 2, cl: 0, cu: sh.m });
                g.m_vecs.push(v);
            }
            // Scalar loads: bound scalar / constant / Col- or Scalar-access.
            2 => {
                let out = g.sreg();
                g.instrs.push(match rng.gen_range(0..4u32) {
                    0 => Instr::LoadScalar { out, idx: rng.gen_range(0..N_SCALARS) },
                    1 => Instr::LoadConst { out, value: rng.gen_range(-1.5..1.5) },
                    2 => Instr::LoadSide { out, side: 3, access: SideAccess::Col },
                    _ => Instr::LoadSide { out, side: 3, access: SideAccess::Scalar },
                });
            }
            // Vector unary over an m-vector.
            3 => {
                let a = g.m_vecs[rng.gen_range(0..g.m_vecs.len())];
                let out = g.vreg(sh.m);
                let ops = [UnaryOp::Abs, UnaryOp::Neg, UnaryOp::Pow2, UnaryOp::Sigmoid];
                g.instrs.push(Instr::VecUnary { out, op: ops[rng.gen_range(0..ops.len())], a });
                g.m_vecs.push(out);
            }
            // Vector-vector binary over two m-vectors.
            4 => {
                let a = g.m_vecs[rng.gen_range(0..g.m_vecs.len())];
                let b = g.m_vecs[rng.gen_range(0..g.m_vecs.len())];
                let out = g.vreg(sh.m);
                let ops = [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mult, BinaryOp::Max];
                g.instrs.push(Instr::VecBinaryVV {
                    out,
                    op: ops[rng.gen_range(0..ops.len())],
                    a,
                    b,
                });
                g.m_vecs.push(out);
            }
            // Vector-scalar binary.
            5 if have_scalars => {
                let a = g.m_vecs[rng.gen_range(0..g.m_vecs.len())];
                let b = rng.gen_range(0..g.n_sregs);
                let out = g.vreg(sh.m);
                let ops = [BinaryOp::Add, BinaryOp::Mult, BinaryOp::Min];
                g.instrs.push(Instr::VecBinaryVS {
                    out,
                    op: ops[rng.gen_range(0..ops.len())],
                    a,
                    b,
                    scalar_left: rng.gen_bool(0.5),
                });
                g.m_vecs.push(out);
            }
            // vectMatMult: m-vector × (m×k side) → k-vector.
            6 => {
                let a = g.m_vecs[rng.gen_range(0..g.m_vecs.len())];
                let out = g.vreg(sh.k);
                g.instrs.push(Instr::VecMatMult { out, a, side: 0 });
                g.k_vecs.push(out);
            }
            // Dot of two m-vectors.
            7 => {
                let a = g.m_vecs[rng.gen_range(0..g.m_vecs.len())];
                let b = g.m_vecs[rng.gen_range(0..g.m_vecs.len())];
                let out = g.sreg();
                g.instrs.push(Instr::Dot { out, a, b });
            }
            // Vector aggregate to scalar.
            8 => {
                let a = g.m_vecs[rng.gen_range(0..g.m_vecs.len())];
                let out = g.sreg();
                let ops = [AggOp::Sum, AggOp::SumSq, AggOp::Min, AggOp::Max, AggOp::Mean];
                g.instrs.push(Instr::VecAgg { out, op: ops[rng.gen_range(0..ops.len())], a });
            }
            // Scalar compute over existing scalar registers.
            _ if have_scalars => {
                let pick = |rng: &mut StdRng, n: u16| rng.gen_range(0..n);
                let out = g.sreg();
                if rng.gen_bool(0.3) {
                    g.instrs.push(Instr::Ternary {
                        out,
                        op: [TernaryOp::PlusMult, TernaryOp::MinusMult, TernaryOp::IfElse]
                            [rng.gen_range(0..3usize)],
                        a: pick(rng, out),
                        b: pick(rng, out),
                        c: pick(rng, out),
                    });
                } else {
                    let ops = [BinaryOp::Add, BinaryOp::Mult, BinaryOp::Sub, BinaryOp::Max];
                    g.instrs.push(Instr::Binary {
                        out,
                        op: ops[rng.gen_range(0..ops.len())],
                        a: pick(rng, out),
                        b: pick(rng, out),
                    });
                }
            }
            // Fallback when no scalars exist yet: another VecAgg.
            _ => {
                let a = g.m_vecs[rng.gen_range(0..g.m_vecs.len())];
                let out = g.sreg();
                g.instrs.push(Instr::VecAgg { out, op: AggOp::Sum, a });
            }
        }
    }
    g
}

/// Picks a random output variant compatible with the generated registers.
fn random_out(rng: &mut StdRng, g: &Gen) -> RowOut {
    let m_vec = |rng: &mut StdRng| g.m_vecs[rng.gen_range(0..g.m_vecs.len())];
    loop {
        match rng.gen_range(0..6u32) {
            0 => {
                let src = m_vec(rng);
                return RowOut::NoAgg { src };
            }
            1 if g.n_sregs > 0 => {
                let src = rng.gen_range(0..g.n_sregs);
                return RowOut::RowAgg { src };
            }
            2 => {
                let src = m_vec(rng);
                return RowOut::ColAgg { src };
            }
            3 if g.n_sregs > 0 => {
                let src = rng.gen_range(0..g.n_sregs);
                return RowOut::FullAgg { src };
            }
            4 => {
                // m×m outer, or m×k against a VecMatMult result.
                let left = m_vec(rng);
                if !g.k_vecs.is_empty() && rng.gen_bool(0.5) {
                    let right = g.k_vecs[rng.gen_range(0..g.k_vecs.len())];
                    return RowOut::OuterColAgg { left, right };
                }
                let right = m_vec(rng);
                return RowOut::OuterColAgg { left, right };
            }
            5 if g.n_sregs > 0 => {
                let vec = m_vec(rng);
                let scalar = rng.gen_range(0..g.n_sregs);
                return RowOut::ColAggMultAdd { vec, scalar };
            }
            _ => {}
        }
    }
}

struct Inputs {
    dense_main: Matrix,
    sparse_main: Matrix,
    sides: Vec<Matrix>,
    scalars: Vec<f64>,
}

fn random_inputs(rng: &mut StdRng, sh: &Shape, seed: u64) -> Inputs {
    let sp = |rng: &mut StdRng| if rng.gen_bool(0.4) { Some(0.3) } else { None };
    let side = |rng: &mut StdRng, r: usize, c: usize, s: u64| match sp(rng) {
        Some(d) => generate::rand_matrix(r, c, -1.5, 1.5, d, s),
        None => generate::rand_dense(r, c, -1.5, 1.5, s),
    };
    Inputs {
        dense_main: generate::rand_dense(sh.n, sh.m, -1.5, 1.5, seed * 31 + 1),
        sparse_main: generate::rand_matrix(sh.n, sh.m, -1.5, 1.5, 0.25, seed * 31 + 2),
        sides: vec![
            side(rng, sh.m, sh.k, seed * 7 + 10),
            side(rng, sh.m, 1, seed * 7 + 11),
            side(rng, sh.n, sh.m, seed * 7 + 12),
            side(rng, sh.n, 1, seed * 7 + 13),
        ],
        scalars: (0..N_SCALARS).map(|_| rng.gen_range(-1.5..1.5)).collect(),
    }
}

#[test]
fn row_block_backend_matches_interpreter_on_random_programs() {
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Row counts straddle thread-band boundaries (ragged tails); m is
        // kept moderate so nnz²-style outputs stay cheap.
        let sh = Shape {
            n: *[1, 2, 7, 17, 35, 61, 64, 127, 350].get(rng.gen_range(0..9usize)).unwrap(),
            m: *[3, 17, 40, 97].get(rng.gen_range(0..4usize)).unwrap(),
            k: *[1, 2, 3, 4, 5, 8, 9].get(rng.gen_range(0..7usize)).unwrap(),
        };
        let g = random_row_program(&mut rng, &sh);
        let out = random_out(&mut rng, &g);
        let inputs = random_inputs(&mut rng, &sh, seed);
        let prog =
            Program { instrs: g.instrs.clone(), n_regs: g.n_sregs, vreg_lens: g.vreg_lens.clone() };
        let sides: Vec<SideInput> = inputs.sides.iter().map(SideInput::bind).collect();
        let spec = RowSpec { prog, out };
        let tol = if matches!(spec.out, RowOut::NoAgg { .. }) { 1e-11 } else { 1e-9 };
        for main in [&inputs.dense_main, &inputs.sparse_main] {
            let oracle = run(&spec, main, &sides, &inputs.scalars, RowBackend::Interp);
            let got = run(&spec, main, &sides, &inputs.scalars, RowBackend::Block);
            assert!(
                got.approx_eq(&oracle, tol),
                "seed {seed}: block diverges from interpreter (out {:?}, \
                 sparse={}, {}x{}, prog {:?})",
                spec.out,
                main.is_sparse(),
                sh.n,
                sh.m,
                spec.prog
            );
        }
    }
}

/// The mv-chain shape must agree with the oracle on the mlogreg-style
/// pattern `t(X) %*% (w ⊙ (X %*% v))` — dense and sparse X, dense and
/// sparse v.
#[test]
fn mlogreg_pattern_all_modes_and_densities_agree() {
    let (n, m) = (211, 37); // ragged everywhere
    let spec = RowSpec {
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
    };
    let w = generate::rand_dense(n, 1, 0.1, 1.0, 3);
    for x in
        [generate::rand_dense(n, m, -1.0, 1.0, 1), generate::rand_matrix(n, m, -1.0, 1.0, 0.08, 2)]
    {
        for v in [
            generate::rand_dense(m, 1, -1.0, 1.0, 4),
            generate::rand_matrix(m, 1, -1.0, 1.0, 0.5, 5),
        ] {
            let sides = [SideInput::bind(&v), SideInput::bind(&w)];
            let oracle = run(&spec, &x, &sides, &[], RowBackend::Interp);
            let got = run(&spec, &x, &sides, &[], RowBackend::Block);
            assert!(
                got.approx_eq(&oracle, 1e-9),
                "sparse_x={}, sparse_v={}",
                x.is_sparse(),
                v.is_sparse()
            );
        }
    }
}

// ---- what tiling can break ------------------------------------------------

/// The block backend's tile height (`rowwise::RB`, private to the runtime).
const RB: usize = 16;

/// Row counts on every side of a tile boundary for `RB` and for the other
/// heights of its sweep, so the edges stay covered if the constant moves.
fn tile_edge_row_counts() -> Vec<usize> {
    let mut ns: Vec<usize> =
        [RB, 4, 8, 32].iter().flat_map(|&rb| [1, rb - 1, rb, rb + 1, 2 * rb + 3]).collect();
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// `X %*% V` per row (`V` is side 0, `m×k`) under each output variant; the
/// last two read a row-aligned `n×(k+2)` side 1 from column 2 on.
fn vmm_spec(m: usize, k: usize, out: usize) -> RowSpec {
    let mut instrs =
        vec![Instr::LoadMainRow { out: 0 }, Instr::VecMatMult { out: 1, a: 0, side: 0 }];
    let mut vreg_lens = vec![m, k];
    let agg = Instr::VecAgg { out: 0, op: AggOp::Sum, a: 1 };
    let (out, n_regs) = match out {
        0 => (RowOut::NoAgg { src: 1 }, 0),
        1 => (RowOut::ColAgg { src: 1 }, 0),
        2 => {
            instrs.push(agg);
            (RowOut::RowAgg { src: 0 }, 1)
        }
        3 => {
            instrs.push(agg);
            (RowOut::FullAgg { src: 0 }, 1)
        }
        4 => (RowOut::OuterColAgg { left: 0, right: 1 }, 0),
        5 => {
            instrs.push(agg);
            (RowOut::ColAggMultAdd { vec: 0, scalar: 0 }, 1)
        }
        // t(P[, 2:]) %*% X — the KMeans centroid update, the side slice on
        // the left.
        6 => {
            instrs.push(Instr::LoadSideRow { out: 2, side: 1, cl: 2, cu: k + 2 });
            vreg_lens.push(k);
            (RowOut::OuterColAgg { left: 2, right: 0 }, 0)
        }
        // (X V) ⊙ P[, 2:], written per row.
        _ => {
            instrs.push(Instr::LoadSideRow { out: 2, side: 1, cl: 2, cu: k + 2 });
            instrs.push(Instr::VecBinaryVV { out: 3, op: BinaryOp::Mult, a: 1, b: 2 });
            vreg_lens.extend([k, k]);
            (RowOut::NoAgg { src: 3 }, 0)
        }
    };
    RowSpec { prog: Program { instrs, n_regs, vreg_lens }, out }
}

const VMM_OUTS: usize = 8;

fn check_vmm(n: usize, m: usize, k: usize, out: usize) {
    let spec = vmm_spec(m, k, out);
    let seed = (n * 131 + k * 7 + out) as u64;
    let p = generate::rand_dense(n, k + 2, -1.5, 1.5, seed + 3);
    for x in [
        generate::rand_dense(n, m, -1.5, 1.5, seed),
        generate::rand_matrix(n, m, -1.5, 1.5, 0.25, seed + 1),
    ] {
        for v in [
            generate::rand_dense(m, k, -1.5, 1.5, seed + 2),
            generate::rand_matrix(m, k, -1.5, 1.5, 0.4, seed + 2),
        ] {
            let sides = [SideInput::bind(&v), SideInput::bind(&p)];
            let oracle = run(&spec, &x, &sides, &[], RowBackend::Interp);
            let got = run(&spec, &x, &sides, &[], RowBackend::Block);
            let tol = if matches!(spec.out, RowOut::NoAgg { .. }) { 1e-11 } else { 1e-9 };
            assert!(
                got.approx_eq(&oracle, tol),
                "n={n} m={m} k={k} out={:?} sparse_x={} sparse_v={}",
                spec.out,
                x.is_sparse(),
                v.is_sparse()
            );
        }
    }
}

/// Every output variant at every tile-edge row count, dense and sparse main
/// × dense and sparse `VecMatMult` side.
#[test]
fn tile_edges_agree_for_every_output_and_format() {
    for n in tile_edge_row_counts() {
        for out in 0..VMM_OUTS {
            check_vmm(n, 13, 3, out);
        }
    }
}

/// `VecMatMult` widths on every side of a packed-panel boundary (one
/// vector, one panel, one panel and a column, many panels) at a single row,
/// a ragged tile and two tiles and a tail.
#[test]
fn panel_widths_agree_across_tile_heights() {
    for k in [1, 2, 3, 4, 5, 8, 9, 64, 100] {
        for n in [1, RB + 1, 2 * RB + 3] {
            for out in [0, 4, 6, 7] {
                check_vmm(n, 11, k, out);
            }
        }
    }
}

/// The AutoEncoder chain `σ(σ(X W₁) W₂) W₃ − X`: `VecMatMult` over computed
/// registers (never the main row), a 64-column and a 2-column panel set in
/// one program, dense and sparse weights, every tile-edge row count.
#[test]
fn autoencoder_chain_multiplies_non_main_registers() {
    let (m, h1, h2) = (10, 64, 2);
    let sig = |out, a| Instr::VecUnary { out, op: UnaryOp::Sigmoid, a };
    let spec = RowSpec {
        prog: Program {
            instrs: vec![
                Instr::LoadMainRow { out: 0 },
                Instr::VecMatMult { out: 1, a: 0, side: 0 },
                sig(2, 1),
                Instr::VecMatMult { out: 3, a: 2, side: 1 },
                sig(4, 3),
                Instr::VecMatMult { out: 5, a: 4, side: 2 },
                Instr::VecBinaryVV { out: 6, op: BinaryOp::Sub, a: 5, b: 0 },
            ],
            n_regs: 0,
            vreg_lens: vec![m, h1, h1, h2, h2, m, m],
        },
        out: RowOut::NoAgg { src: 6 },
    };
    for n in tile_edge_row_counts() {
        let x = generate::rand_dense(n, m, 0.0, 1.0, n as u64);
        for sparse_w in [false, true] {
            let w = |r, c, s| match sparse_w {
                true => generate::rand_matrix(r, c, -1.0, 1.0, 0.5, s),
                false => generate::rand_dense(r, c, -1.0, 1.0, s),
            };
            let ws = [w(m, h1, 1), w(h1, h2, 2), w(h2, m, 3)];
            let sides: Vec<SideInput> = ws.iter().map(SideInput::bind).collect();
            let oracle = run(&spec, &x, &sides, &[], RowBackend::Interp);
            let got = run(&spec, &x, &sides, &[], RowBackend::Block);
            assert!(got.approx_eq(&oracle, 1e-11), "n={n} sparse_w={sparse_w}");
        }
    }
}

// ---- one loop per tile, bitwise ---------------------------------------------

/// `n` pseudo-random multiples of 1/8 in [-4, 4] with NaN, ±0 and ±inf at
/// every `special`-th position (none when 0): sums of up to 17 products of
/// them are exact.
fn eighths(n: usize, seed: u64, special: usize) -> Vec<f64> {
    let odd = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
    (0..n as u64)
        .map(|i| {
            let x = (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match special {
                s if s > 0 && i as usize % s == s - 1 => odd[(x >> 40) as usize % odd.len()],
                _ => ((x >> 33) % 65) as f64 / 8.0 - 4.0,
            }
        })
        .collect()
}

/// A CSR `rows×cols` matrix storing the values of `dense` where `keep`
/// holds — explicit ±0 included.
fn csr_of(
    dense: &[f64],
    (rows, cols): (usize, usize),
    keep: impl Fn(usize, usize) -> bool,
) -> Matrix {
    let mut ptr = vec![0];
    let (mut ix, mut vals) = (Vec::new(), Vec::new());
    for r in 0..rows {
        for c in (0..cols).filter(|&c| keep(r, c)) {
            ix.push(c);
            vals.push(dense[r * cols + c]);
        }
        ptr.push(ix.len());
    }
    Matrix::sparse(fusedml_linalg::SparseMatrix::from_csr(rows, cols, ptr, ix, vals))
}

const UNARY: [UnaryOp; 13] = [
    UnaryOp::Exp,
    UnaryOp::Log,
    UnaryOp::Sqrt,
    UnaryOp::Abs,
    UnaryOp::Sign,
    UnaryOp::Round,
    UnaryOp::Floor,
    UnaryOp::Ceil,
    UnaryOp::Neg,
    UnaryOp::Sigmoid,
    UnaryOp::Pow2,
    UnaryOp::Sprop,
    UnaryOp::Recip,
];
const BINARY: [BinaryOp; 15] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mult,
    BinaryOp::Div,
    BinaryOp::Min,
    BinaryOp::Max,
    BinaryOp::Pow,
    BinaryOp::Eq,
    BinaryOp::Neq,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::And,
    BinaryOp::Or,
];
const TERNARY: [TernaryOp; 3] = [TernaryOp::PlusMult, TernaryOp::MinusMult, TernaryOp::IfElse];
const AGGS: [AggOp; 5] = [AggOp::Sum, AggOp::SumSq, AggOp::Min, AggOp::Max, AggOp::Mean];

/// Runs `prog` under every `RowAgg` of a scalar register and every `NoAgg`
/// of a listed vector register, block against interpreter, bitwise.
fn check_bits(prog: &Program, vecs: &[u16], main: &Matrix, sides: &[SideInput], what: &str) {
    let outs = (0..prog.n_regs)
        .map(|src| RowOut::RowAgg { src })
        .chain(vecs.iter().map(|&src| RowOut::NoAgg { src }));
    for out in outs {
        let spec = RowSpec { prog: prog.clone(), out };
        let scalars = [0.75, -1.5];
        let oracle = run(&spec, main, sides, &scalars, RowBackend::Interp);
        let got = run(&spec, main, sides, &scalars, RowBackend::Block);
        common::assert_bitwise(&got, &oracle, &format!("{what}, {:?}", spec.out));
    }
}

/// The signed-zero leg of the lane grid, for release builds (where LLVM is
/// free to pick either zero out of `f64::min(-0.0, 0.0)` by operand order):
/// every row holds one zero of one sign among zeros of the other, at a
/// column that walks every position of widths 1–17, in a dense main, a CSR
/// main storing the odd zero only and one storing every zero. Row `Min` /
/// `Max` (`VecAgg` and the lane-wise `Binary`) give `-0.0` / `+0.0` on both
/// backends, wherever the odd zero sits and whether or not it is stored.
#[test]
fn signed_zeros_fold_alike_in_every_column_position() {
    let prog = Program {
        instrs: vec![
            Instr::LoadMainRow { out: 0 },
            Instr::VecAgg { out: 0, op: AggOp::Min, a: 0 },
            Instr::VecAgg { out: 1, op: AggOp::Max, a: 0 },
            Instr::Binary { out: 2, op: BinaryOp::Min, a: 1, b: 0 },
            Instr::Binary { out: 3, op: BinaryOp::Max, a: 0, b: 1 },
        ],
        n_regs: 4,
        vreg_lens: vec![],
    };
    for w in 1..=17usize {
        let n = 2 * w + RB + 1;
        let prog = Program { vreg_lens: vec![w], ..prog.clone() };
        for odd in [-0.0f64, 0.0] {
            // Row `r` holds `odd` at column `r % w`, the other zero elsewhere.
            let vals: Vec<f64> =
                (0..n * w).map(|i| if i % w == (i / w) % w { odd } else { -odd }).collect();
            let mains = [
                Matrix::dense(fusedml_linalg::DenseMatrix::new(n, w, vals.clone())),
                csr_of(&vals, (n, w), |r, c| c == r % w),
                csr_of(&vals, (n, w), |_, _| true),
            ];
            for main in &mains {
                let what = format!("w={w} odd={odd:?} sparse_main={}", main.is_sparse());
                check_bits(&prog, &[], main, &[], &what);
                // `-0.0` is the minimum of a row holding one, `+0.0` the
                // maximum of a row holding one (an implicit zero is `+0.0`).
                let has = |r, z: f64| (0..w).any(|c| main.get(r, c).to_bits() == z.to_bits());
                for src in 0..4u16 {
                    let spec = RowSpec { prog: prog.clone(), out: RowOut::RowAgg { src } };
                    let got = run(&spec, main, &[], &[], RowBackend::Block);
                    for r in 0..n {
                        let z = match src % 2 {
                            0 if has(r, -0.0) => -0.0f64,
                            0 => 0.0,
                            _ if has(r, 0.0) => 0.0,
                            _ => -0.0,
                        };
                        let g = got.get(r, 0);
                        assert_eq!(g.to_bits(), z.to_bits(), "{what} r{src} row {r}: {g:?}");
                    }
                }
            }
        }
    }
}

/// Every instruction the block backend runs as one loop per tile, at
/// register widths 1–17 (both sides of the 16-value line, every 4-lane
/// tail) and tiles of 1, `RB − 1` and `RB` rows and a ragged second one:
/// scalar `Unary` / `Binary` / `Ternary` lanes over every operator, `Col`
/// loads of a dense and a CSR `n×1` side, `VecBinaryVV` over a row-aligned
/// side view (rows wider than the register), `VecBinaryVS` with the scalar
/// on either side, `VecAgg` under every `AggOp` and `Dot` over dense tiles,
/// both over the non-zeros of a CSR main, and the densified CSR main; NaN,
/// ±0 and ±inf in the main, the sides and the lanes.
#[test]
fn row_tiles_are_bitwise_the_interpreter_on_the_lane_grid() {
    let mut case = 0usize;
    for w in 1..=17usize {
        for n in [1, RB - 1, RB, RB + 1] {
            let seed = (w * 100 + n) as u64;
            let main_vals = eighths(n * w, seed, 7);
            let dense_main =
                Matrix::dense(fusedml_linalg::DenseMatrix::new(n, w, main_vals.clone()));
            let stored = |r, c| (r * 3 + c) % 4 != 1 && r % 6 != 4;
            let csr_main = csr_of(&main_vals, (n, w), stored);
            let col_vals = eighths(n, seed + 1, 3);
            let cols = [
                Matrix::dense(fusedml_linalg::DenseMatrix::new(n, 1, col_vals.clone())),
                csr_of(&col_vals, (n, 1), |r, _| r % 2 == 0),
            ];
            // Row-aligned side, read from column 1: a view whose rows are
            // two values wider than the register.
            let wide = Matrix::dense(fusedml_linalg::DenseMatrix::new(
                n,
                w + 2,
                eighths(n * (w + 2), seed + 2, 5),
            ));
            // An invariant row with no special values: a CSR main's dot
            // skips its implicit zeros, so an inf here would not meet them.
            let row =
                Matrix::dense(fusedml_linalg::DenseMatrix::new(1, w, eighths(w, seed + 3, 0)));
            for col in &cols {
                let sides: Vec<SideInput> =
                    [col, &wide, &row].into_iter().map(SideInput::bind).collect();
                let (u, b, t) = (UNARY[case % 13], BINARY[case % 15], TERNARY[case % 3]);
                let (vv, vs) = (BINARY[(case + 7) % 15], BINARY[(case + 11) % 15]);
                let agg = AGGS[case % 5];
                let scalar_left = case.is_multiple_of(2);
                case += 1;
                // Densifies a CSR main: the element-wise ops read it.
                let lanes = Program {
                    instrs: vec![
                        Instr::LoadMainRow { out: 0 },
                        Instr::LoadSide { out: 0, side: 0, access: SideAccess::Col },
                        Instr::LoadScalar { out: 1, idx: case % 2 },
                        Instr::Unary { out: 2, op: u, a: 0 },
                        Instr::Binary { out: 3, op: b, a: 2, b: 1 },
                        Instr::Ternary { out: 4, op: t, a: 0, b: 3, c: 2 },
                        Instr::LoadSideRow { out: 1, side: 1, cl: 1, cu: w + 1 },
                        Instr::VecBinaryVV { out: 2, op: vv, a: 1, b: 0 },
                        Instr::VecBinaryVS { out: 3, op: vs, a: 2, b: 4, scalar_left },
                        Instr::VecAgg { out: 5, op: agg, a: 3 },
                        Instr::Dot { out: 6, a: 3, b: 1 },
                        Instr::VecAgg { out: 7, op: AGGS[(case + 2) % 5], a: 1 },
                    ],
                    n_regs: 8,
                    vreg_lens: vec![w; 4],
                };
                // Runs a CSR main over its non-zeros.
                let over_main = Program {
                    instrs: vec![
                        Instr::LoadMainRow { out: 0 },
                        Instr::LoadSideRow { out: 1, side: 2, cl: 0, cu: w },
                        Instr::Dot { out: 0, a: 0, b: 1 },
                        Instr::VecAgg { out: 1, op: agg, a: 0 },
                        Instr::LoadSide { out: 2, side: 0, access: SideAccess::Col },
                        Instr::Binary { out: 3, op: b, a: 1, b: 2 },
                    ],
                    n_regs: 4,
                    vreg_lens: vec![w; 2],
                };
                for main in [&dense_main, &csr_main] {
                    let what = format!(
                        "w={w} n={n} sparse_main={} sparse_col={}",
                        main.is_sparse(),
                        col.is_sparse()
                    );
                    check_bits(&lanes, &[2, 3], main, &sides, &what);
                    check_bits(&over_main, &[], main, &sides, &what);
                }
            }
        }
    }
}
