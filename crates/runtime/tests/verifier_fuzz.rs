#![allow(clippy::disallowed_methods)] // test/bench code may unwrap freely
//! Verifier fuzz suite: randomly generated, *well-formed* DAGs across every
//! fusion mode must compile verified-clean under `verify_plans(true)`. The
//! verifier's job is rejecting corrupted artifacts (see
//! `verifier_mutation.rs`); this suite pins down the complementary property
//! — zero false positives on everything the compiler actually produces —
//! spot-checks that verified plans still execute bitwise-identically to
//! the sequential oracle, and runs the whole corpus through long-lived
//! engines whose plan caches hand operators from one DAG to the next.

mod common;

use common::assert_roots_bitwise;
use fusedml_hop::interp::Bindings;
use fusedml_hop::{DagBuilder, HopDag, HopId};
use fusedml_linalg::generate;
use fusedml_runtime::{Engine, EngineBuilder, FusionMode};

const MODES: [FusionMode; 5] =
    [FusionMode::Base, FusionMode::Fused, FusionMode::Gen, FusionMode::GenFA, FusionMode::GenFNR];

/// Deterministic xorshift* generator: the suite must replay identically in
/// CI, so seeds are explicit and no ambient entropy is used.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A shape-tracked node pool: ops only combine compatible operands, so
/// every generated DAG is well-formed by construction (the property under
/// test is verifier cleanliness, not builder robustness).
struct Pool {
    nodes: Vec<(HopId, usize, usize)>,
}

impl Pool {
    fn same_shape_pair(&self, rng: &mut XorShift) -> Option<((HopId, usize, usize), HopId)> {
        for _ in 0..8 {
            let a = self.nodes[rng.pick(self.nodes.len())];
            let candidates: Vec<HopId> = self
                .nodes
                .iter()
                .filter(|&&(id, r, c)| r == a.1 && c == a.2 && id != a.0)
                .map(|&(id, _, _)| id)
                .collect();
            if !candidates.is_empty() {
                return Some((a, candidates[rng.pick(candidates.len())]));
            }
        }
        None
    }
}

fn random_dag(seed: u64) -> (HopDag, Bindings) {
    let mut rng = XorShift::new(seed);
    let rows = 16 + rng.pick(48);
    let cols = 4 + rng.pick(20);
    let sparse_main = rng.pick(4) == 0;
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, if sparse_main { 0.05 } else { 1.0 });
    let y = b.read("Y", rows, cols, 1.0);
    let v = b.read("v", cols, 1, 1.0);
    let w = b.read("w", rows, 1, 1.0);
    let mut pool =
        Pool { nodes: vec![(x, rows, cols), (y, rows, cols), (v, cols, 1), (w, rows, 1)] };
    let n_ops = 3 + rng.pick(10);
    for i in 0..n_ops {
        let choice = rng.pick(12);
        let next = match choice {
            // Element-wise binaries over a same-shape pair.
            0..=3 => pool.same_shape_pair(&mut rng).map(|((a, r, c), other)| {
                let id = match rng.pick(4) {
                    0 => b.add(a, other),
                    1 => b.mult(a, other),
                    2 => b.sub(a, other),
                    _ => b.max(a, other),
                };
                (id, r, c)
            }),
            // Unaries on anything.
            4..=6 => {
                let (a, r, c) = pool.nodes[rng.pick(pool.nodes.len())];
                let id = match rng.pick(5) {
                    0 => b.abs(a),
                    1 => b.sq(a),
                    2 => b.exp(a),
                    3 => b.sigmoid(a),
                    _ => {
                        let abs = b.abs(a); // keep the sqrt domain non-negative
                        b.sqrt(abs)
                    }
                };
                Some((id, r, c))
            }
            // Scalar broadcast.
            7 => {
                let (a, r, c) = pool.nodes[rng.pick(pool.nodes.len())];
                let lit = b.lit(0.25 + i as f64 * 0.5);
                Some((b.mult(a, lit), r, c))
            }
            // Matrix-vector multiply when a compatible pair exists.
            8 | 9 => {
                let mats: Vec<(HopId, usize, usize)> =
                    pool.nodes.iter().copied().filter(|&(_, r, c)| r > 1 && c > 1).collect();
                if mats.is_empty() {
                    None
                } else {
                    let (m, r, c) = mats[rng.pick(mats.len())];
                    let vecs: Vec<HopId> = pool
                        .nodes
                        .iter()
                        .filter(|&&(_, vr, vc)| vr == c && vc == 1)
                        .map(|&(id, _, _)| id)
                        .collect();
                    if vecs.is_empty() {
                        None
                    } else {
                        Some((b.mm(m, vecs[rng.pick(vecs.len())]), r, 1))
                    }
                }
            }
            // Row / column aggregates (keeps Row-template patterns flowing).
            10 => {
                let mats: Vec<(HopId, usize, usize)> =
                    pool.nodes.iter().copied().filter(|&(_, r, c)| r > 1 && c > 1).collect();
                if mats.is_empty() {
                    None
                } else {
                    let (m, r, _) = mats[rng.pick(mats.len())];
                    Some((b.row_sums(m), r, 1))
                }
            }
            // Transpose-multiply chain t(X) %*% u → cols×1.
            _ => {
                let mats: Vec<(HopId, usize, usize)> =
                    pool.nodes.iter().copied().filter(|&(_, r, c)| r > 1 && c > 1).collect();
                if mats.is_empty() {
                    None
                } else {
                    let (m, r, c) = mats[rng.pick(mats.len())];
                    let vecs: Vec<HopId> = pool
                        .nodes
                        .iter()
                        .filter(|&&(_, vr, vc)| vr == r && vc == 1)
                        .map(|&(id, _, _)| id)
                        .collect();
                    if vecs.is_empty() {
                        None
                    } else {
                        let t = b.t(m);
                        Some((b.mm(t, vecs[rng.pick(vecs.len())]), c, 1))
                    }
                }
            }
        };
        if let Some(n) = next {
            pool.nodes.push(n);
        }
    }
    // Roots: a full aggregate of the last node plus one or two extra shapes
    // so multi-root plans (MAgg candidates, shared intermediates) appear.
    let last = pool.nodes[pool.nodes.len() - 1].0;
    let mut roots = vec![b.sum(last)];
    if rng.pick(2) == 0 {
        let (m, _, _) = pool.nodes[rng.pick(pool.nodes.len())];
        roots.push(b.sum_sq(m));
    }
    if rng.pick(2) == 0 {
        let mats: Vec<HopId> =
            pool.nodes.iter().filter(|&&(_, r, c)| r > 1 && c > 1).map(|&(id, _, _)| id).collect();
        if !mats.is_empty() {
            roots.push(b.row_sums(mats[rng.pick(mats.len())]));
        }
    }
    let dag = b.build(roots);
    let mut bindings = Bindings::new();
    let xm = if sparse_main {
        generate::rand_matrix(rows, cols, 0.5, 1.5, 0.05, seed)
    } else {
        generate::rand_dense(rows, cols, 0.5, 1.5, seed)
    };
    bindings.insert("X".into(), xm);
    bindings.insert("Y".into(), generate::rand_dense(rows, cols, 0.5, 1.5, seed + 1));
    bindings.insert("v".into(), generate::rand_dense(cols, 1, 0.5, 1.5, seed + 2));
    bindings.insert("w".into(), generate::rand_dense(rows, 1, 0.5, 1.5, seed + 3));
    (dag, bindings)
}

/// Every random DAG × every fusion mode must compile verified-clean: the
/// verifier rejecting a compiler-produced artifact is a bug in one or the
/// other, and either way a hard failure here.
#[test]
fn random_dags_compile_verified_clean() {
    for seed in 0..40u64 {
        let (dag, _) = random_dag(seed);
        for mode in MODES {
            let engine = EngineBuilder::new(mode).verify_plans(true).build();
            if let Err(e) = engine.try_compile(&dag) {
                panic!("seed {seed} mode {mode:?}: verifier rejected a clean compile: {e}");
            }
        }
    }
}

/// A subset of the fuzz corpus also executes: verified plans must still
/// agree bitwise with the sequential oracle (verification is observation-
/// only — it cannot perturb results).
#[test]
fn verified_plans_execute_bitwise_equal() {
    for seed in [0u64, 3, 7, 11, 19, 29, 31, 37] {
        let (dag, bindings) = random_dag(seed);
        for mode in MODES {
            let engine = EngineBuilder::new(mode).verify_plans(true).build();
            let script = engine.compile(&dag);
            let expect = script.execute_sequential(&bindings);
            let got = script.execute(&bindings).into_values();
            assert_roots_bitwise(&got, &expect, &format!("seed {seed} {mode:?}"));
        }
    }
}

/// Reuse across DAGs: every seed runs through one long-lived engine per
/// fused mode (plan cache on, verification on), so a DAG runs the operators
/// an earlier DAG generated wherever their plan-cache keys agree. Each
/// result must agree with a `Base` engine to 1e-9: checked against
/// `execute_sequential`, which runs the same operators, a stale cached
/// operator would agree with itself.
#[test]
fn plan_cache_reuse_across_dags_agrees_with_base() {
    let base = Engine::new(FusionMode::Base);
    let engines: Vec<Engine> =
        MODES[1..].iter().map(|&m| EngineBuilder::new(m).verify_plans(true).build()).collect();
    for seed in 0..40u64 {
        let (dag, bindings) = random_dag(seed);
        let want = base.execute(&dag, &bindings).into_values();
        for engine in &engines {
            let got = engine.execute(&dag, &bindings).into_values();
            for (r, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    g.as_matrix().approx_eq(&w.as_matrix(), 1e-9),
                    "seed {seed} {:?} root {r}",
                    engine.mode()
                );
            }
        }
    }
    let hits: usize = engines.iter().map(|e| e.plan_cache().stats().0).sum();
    assert!(hits > 0, "no operator was reused across DAGs, so no reuse was checked");
}

/// The Outer template (sparsity-exploiting `sum(X * (U %*% t(V)))` family)
/// compiles verified-clean too — it carries the most intricate invariants
/// (UV binding agreement, rank checks, sparse-safety claims).
#[test]
fn outer_template_compiles_verified_clean() {
    for &(n, m, k) in &[(60usize, 40usize, 4usize), (30, 30, 8)] {
        let mut b = DagBuilder::new();
        let x = b.read("X", n, m, 0.05);
        let u = b.read("U", n, k, 1.0);
        let v = b.read("V", m, k, 1.0);
        let vt = b.t(v);
        let uv = b.mm(u, vt);
        let prod = b.mult(x, uv);
        let s = b.sum(prod);
        let dag = b.build(vec![s]);
        for mode in MODES {
            let engine = EngineBuilder::new(mode).verify_plans(true).build();
            engine.try_compile(&dag).unwrap_or_else(|e| {
                panic!("outer {n}x{m} rank {k} mode {mode:?}: {e}");
            });
        }
    }
}
