#![allow(clippy::disallowed_methods)] // test code may unwrap freely
//! Differential tests for the SIMD tile primitives under the tile
//! interpreter and the product-chain loops, pinned to the rounding policy
//! documented in `fusedml_linalg::simd` (DESIGN.md substitution X10):
//!
//! * **Map-class** work (elementwise NoAgg results) must be **bitwise
//!   identical** across the scalar interpreter, the tile interpreter alone
//!   (`Block`) and the production backend (`Mono`) — no FMA contraction, no
//!   reassociation.
//!   This holds through ±0.0 and ±∞ inputs, through NaN (any NaN equals any
//!   NaN: `common::assert_bitwise`), and through every ragged tail length
//!   `n % 8 ∈ {0..7}`.
//! * **Reduction-class** work (aggregates) may reassociate lane/chunk sums
//!   (backend-defined association), but must agree with the scalar oracle
//!   to 1e-12 relative per tile chain; we assert 1e-11 end-to-end.

mod common;

use common::assert_bitwise;
use fusedml_core::spoof::block::CellBackend;
use fusedml_core::spoof::mono::{classify, Product};
use fusedml_core::spoof::{block, CellAgg, CellSpec, Instr, Program, SideAccess};
use fusedml_linalg::ops::{AggOp, BinaryOp, TernaryOp, UnaryOp};
use fusedml_linalg::{simd, DenseMatrix, Matrix, SparseMatrix};
use fusedml_runtime::spoof::cellwise;
use rand::{rngs::StdRng, Rng, SeedableRng};

const ALL_BACKENDS: [CellBackend; 3] = [CellBackend::Scalar, CellBackend::Block, CellBackend::Mono];

/// `main * exp(side + scalar)` — the shape of the Figure 8(h) inner
/// expression: three dependent body instructions, a uniform operand.
fn mul_un_bin_prog() -> Program {
    Program {
        instrs: vec![
            Instr::LoadMain { out: 0 },
            Instr::LoadSide { out: 1, side: 0, access: SideAccess::Cell },
            Instr::LoadScalar { out: 2, idx: 0 },
            Instr::Binary { out: 3, op: BinaryOp::Add, a: 1, b: 2 },
            Instr::Unary { out: 4, op: UnaryOp::Exp, a: 3 },
            Instr::Binary { out: 5, op: BinaryOp::Mult, a: 0, b: 4 },
        ],
        n_regs: 6,
        vreg_lens: vec![],
    }
}

/// `sigmoid(main * side0) +* (side1, main)` — a deeper body: a ternary,
/// the main input read by two instructions.
fn tree_prog() -> Program {
    Program {
        instrs: vec![
            Instr::LoadMain { out: 0 },
            Instr::LoadSide { out: 1, side: 0, access: SideAccess::Cell },
            Instr::Binary { out: 2, op: BinaryOp::Mult, a: 0, b: 1 },
            Instr::Unary { out: 3, op: UnaryOp::Sigmoid, a: 2 },
            Instr::LoadSide { out: 4, side: 1, access: SideAccess::Cell },
            Instr::Ternary { out: 5, op: TernaryOp::PlusMult, a: 3, b: 4, c: 0 },
        ],
        n_regs: 6,
        vreg_lens: vec![],
    }
}

fn dense(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
    let mut data = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            data.push(f(r, c));
        }
    }
    Matrix::dense(DenseMatrix::new(rows, cols, data))
}

fn run(
    spec: &CellSpec,
    main: &Matrix,
    sides: &[Matrix],
    scalars: &[f64],
    backend: CellBackend,
) -> Matrix {
    let kernel = block::compile_kernel(&spec.prog);
    let (rows, cols) = (main.rows(), main.cols());
    cellwise::execute_with(spec, &kernel, Some(main), sides, scalars, rows, cols, backend)
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f64, what: &str) {
    let (ad, bd) = (a.to_dense(), b.to_dense());
    for (i, (x, y)) in ad.values().iter().zip(bd.values()).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        assert!((x - y).abs() <= tol * scale, "{what}: cell {i}: {x} vs {y} (tol {tol})");
    }
}

/// Map-class results are bitwise identical across all three backends for
/// every tail length `cols % 8 ∈ {0..7}` — the maskload/gather tail paths
/// must not diverge from the full-lane paths.
#[test]
fn map_class_is_bitwise_across_backends_and_ragged_tails() {
    for (name, prog) in [("mul_un_bin", mul_un_bin_prog()), ("tree", tree_prog())] {
        for cols in 256..264usize {
            // cols % 8 covers 0..=7
            let rows = 5;
            let main = dense(rows, cols, |r, c| ((r * 31 + c) % 23) as f64 * 0.37 - 3.0);
            let s0 = dense(rows, cols, |r, c| ((r * 17 + c) % 19) as f64 * 0.21 - 1.5);
            let s1 = dense(rows, cols, |r, c| ((r * 13 + c) % 29) as f64 * 0.11 - 1.0);
            let sides = [s0.clone(), s1.clone()];
            let spec = CellSpec {
                prog: prog.clone(),
                result: prog.n_regs - 1,
                agg: CellAgg::NoAgg,
                sparse_safe: false,
            };
            let oracle = run(&spec, &main, &sides, &[0.25], CellBackend::Scalar);
            for backend in ALL_BACKENDS {
                let got = run(&spec, &main, &sides, &[0.25], backend);
                assert_bitwise(&got, &oracle, &format!("{name} cols={cols} {backend:?}"));
            }
        }
    }
}

/// NaN, ±0.0, and ±∞ flow through map-class kernels bit-for-bit: the SIMD
/// lanes and the per-instruction tile loops apply IEEE semantics identically
/// to the scalar interpreter.
#[test]
fn nan_and_signed_zero_propagate_identically() {
    let specials = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.25];
    let (rows, cols) = (4, 259); // ragged tail: 259 % 8 == 3
    let main = dense(rows, cols, |r, c| specials[(r * cols + c) % specials.len()]);
    let s0 = dense(rows, cols, |r, c| specials[(r * cols + c * 3 + 1) % specials.len()]);
    let s1 = dense(rows, cols, |r, c| ((r + c) % 7) as f64 - 3.0);
    let sides = [s0.clone(), s1.clone()];
    for prog in [mul_un_bin_prog(), tree_prog()] {
        let spec = CellSpec {
            prog: prog.clone(),
            result: prog.n_regs - 1,
            agg: CellAgg::NoAgg,
            sparse_safe: false,
        };
        let oracle = run(&spec, &main, &sides, &[0.5], CellBackend::Scalar);
        for backend in ALL_BACKENDS {
            let got = run(&spec, &main, &sides, &[0.5], backend);
            assert_bitwise(&got, &oracle, &format!("specials {backend:?}"));
        }
    }
}

/// Aggregates over sparse banded mains (runs of contiguous non-zeros with
/// empty gaps, exercising the non-zero-batched gather path) agree with the
/// scalar oracle under the documented reduction policy.
#[test]
fn sparse_banded_mains_agree_across_backends() {
    let (rows, cols) = (24, 517);
    let mut triples = Vec::new();
    for r in 0..rows {
        // A band of 40 + r contiguous non-zeros starting at a varying
        // offset, so chunk boundaries land everywhere in the band.
        let start = (r * 37) % 300;
        for c in start..(start + 40 + r).min(cols) {
            triples.push((r, c, ((r * 7 + c) % 13) as f64 * 0.4 - 2.0));
        }
    }
    let main = Matrix::sparse(SparseMatrix::from_triples(rows, cols, triples));
    let s0 = dense(rows, cols, |r, c| ((r * 11 + c) % 17) as f64 * 0.3 - 1.2);
    let s1 = dense(rows, cols, |r, c| ((r * 5 + c) % 23) as f64 * 0.17 - 1.9);
    let sides = [s0.clone(), s1.clone()];
    for prog in [mul_un_bin_prog(), tree_prog()] {
        for agg in [AggOp::Sum, AggOp::SumSq, AggOp::Min, AggOp::Max] {
            let spec = CellSpec {
                prog: prog.clone(),
                result: prog.n_regs - 1,
                agg: CellAgg::FullAgg(agg),
                sparse_safe: true,
            };
            let oracle = run(&spec, &main, &sides, &[0.25], CellBackend::Scalar);
            for backend in ALL_BACKENDS {
                let got = run(&spec, &main, &sides, &[0.25], backend);
                assert_close(&got, &oracle, 1e-11, &format!("{agg:?} {backend:?}"));
            }
        }
    }
}

/// Random programs: map-class (NoAgg) bitwise, reductions to 1e-11, across
/// all three backends, with column counts that sweep the tail residues.
#[test]
fn random_programs_agree_across_backends() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed * 131 + 7);
        let prog = random_program(&mut rng);
        let result = prog.n_regs - 1;
        let rows = rng.gen_range(2..9usize);
        let cols = *[63, 256, 257, 260, 263, 300].get(rng.gen_range(0..6usize)).unwrap();
        let main = dense(rows, cols, |r, c| ((r * 31 + c * 7) % 41) as f64 * 0.1 - 2.0);
        let s0 = dense(rows, cols, |r, c| ((r * 3 + c) % 31) as f64 * 0.13 - 2.0);
        let s1 = dense(rows, cols, |r, c| ((r * 23 + c) % 37) as f64 * 0.09 - 1.7);
        let sides = [s0.clone(), s1.clone()];
        let scalars = [rng.gen_range(-1.5..1.5), rng.gen_range(-1.5..1.5)];
        for (agg, tol) in [
            (CellAgg::NoAgg, 0.0),
            (CellAgg::FullAgg(AggOp::Sum), 1e-11),
            (CellAgg::RowAgg(AggOp::Max), 1e-11),
            (CellAgg::ColAgg(AggOp::Sum), 1e-11),
        ] {
            let spec = CellSpec { prog: prog.clone(), result, agg, sparse_safe: false };
            let oracle = run(&spec, &main, &sides, &scalars, CellBackend::Scalar);
            for backend in ALL_BACKENDS {
                let got = run(&spec, &main, &sides, &scalars, backend);
                if agg == CellAgg::NoAgg {
                    assert_bitwise(&got, &oracle, &format!("seed {seed} {backend:?}"));
                } else {
                    assert_close(&got, &oracle, tol, &format!("seed {seed} {backend:?} {agg:?}"));
                }
            }
        }
    }
}

/// Forcing the scalar tile primitives (the `FUSEDML_FORCE_SCALAR` path) must
/// not change map-class results bitwise, and reductions stay within policy —
/// both legs compile the same lane-accumulator body.
#[test]
fn forced_scalar_fallback_matches_vector_paths() {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            simd::force_scalar(self.0);
        }
    }
    let _restore = Restore(simd::forced_scalar());

    let (rows, cols) = (6, 261);
    let main = dense(rows, cols, |r, c| ((r * 31 + c) % 23) as f64 * 0.37 - 3.0);
    let s0 = dense(rows, cols, |r, c| ((r * 17 + c) % 19) as f64 * 0.21 - 1.5);
    let s1 = dense(rows, cols, |r, c| ((r * 13 + c) % 29) as f64 * 0.11 - 1.0);
    let sides = [s0.clone(), s1.clone()];
    for prog in [mul_un_bin_prog(), tree_prog()] {
        let map_spec = CellSpec {
            prog: prog.clone(),
            result: prog.n_regs - 1,
            agg: CellAgg::NoAgg,
            sparse_safe: false,
        };
        let agg_spec = CellSpec { agg: CellAgg::FullAgg(AggOp::Sum), ..map_spec.clone() };

        simd::force_scalar(false);
        let map_vec = run(&map_spec, &main, &sides, &[0.25], CellBackend::Mono);
        let agg_vec = run(&agg_spec, &main, &sides, &[0.25], CellBackend::Mono);
        simd::force_scalar(true);
        let map_sca = run(&map_spec, &main, &sides, &[0.25], CellBackend::Mono);
        let agg_sca = run(&agg_spec, &main, &sides, &[0.25], CellBackend::Mono);
        simd::force_scalar(false);

        assert_bitwise(&map_vec, &map_sca, "forced-scalar map class");
        assert_close(&agg_vec, &agg_sca, 1e-11, "forced-scalar reduction class");
    }
}

/// The two fixtures above run the tile interpreter on every leg (neither is
/// a multiply chain); the fig8a body `main ⊙ side0 ⊙ side1` is a product.
#[test]
fn fixture_programs_classify_as_expected() {
    for p in [mul_un_bin_prog(), tree_prog()] {
        assert_eq!(classify(&block::lower(&p), p.n_regs - 1), None);
    }
    let chain = Program {
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
    assert_eq!(classify(&block::lower(&chain), 4), Some(Product { mains: 1, slots: vec![0, 1] }));
}

/// Random scalar programs restricted to operations whose NaN/∞ behaviour is
/// order-independent (mirrors the block property-test generator).
fn random_program(rng: &mut StdRng) -> Program {
    let n_instrs = rng.gen_range(1..12usize);
    let mut instrs: Vec<Instr> = Vec::with_capacity(n_instrs);
    let mut next = 0u16;
    for _ in 0..n_instrs {
        let have = next;
        let pick = |rng: &mut StdRng, have: u16| rng.gen_range(0..have);
        let kind = if have == 0 { 0 } else { rng.gen_range(0..8u32) };
        let out = next;
        next += 1;
        let ins = match kind {
            0 => match rng.gen_range(0..4u32) {
                0 => Instr::LoadMain { out },
                1 => {
                    let access = match rng.gen_range(0..4u32) {
                        0 => SideAccess::Cell,
                        1 => SideAccess::Col,
                        2 => SideAccess::Row,
                        _ => SideAccess::Scalar,
                    };
                    Instr::LoadSide { out, side: rng.gen_range(0..2usize), access }
                }
                2 => Instr::LoadScalar { out, idx: rng.gen_range(0..2usize) },
                _ => Instr::LoadConst { out, value: rng.gen_range(-2.0..2.0) },
            },
            1 | 2 => {
                let ops = [
                    UnaryOp::Abs,
                    UnaryOp::Neg,
                    UnaryOp::Sigmoid,
                    UnaryOp::Pow2,
                    UnaryOp::Sprop,
                    UnaryOp::Round,
                    UnaryOp::Sign,
                    UnaryOp::Exp,
                ];
                Instr::Unary { out, op: ops[rng.gen_range(0..ops.len())], a: pick(rng, have) }
            }
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
            _ => {
                let ops = [
                    BinaryOp::Mult,
                    BinaryOp::Mult,
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Min,
                    BinaryOp::Max,
                    BinaryOp::Lt,
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
