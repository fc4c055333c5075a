//! `compile_cold`: nothing executes. One round is one cold-compile pass: a
//! fresh `Gen` engine (plan caching off, verifier off) compiles a fixed
//! corpus, so `hop` + `core` (explore → memo → partition → `MPSkipEnum` →
//! codegen → lower) do all the work and the kernels none.
//!
//! The corpus is the Figure 8 expression builders at the `ops_*` sizes, the
//! six per-iteration algorithm DAGs of Figure 12, an autoencoder batch DAG
//! (the enumeration-heavy case: set-up asserts the optimizer really costs
//! ≥ 10⁴ plans for it; the `algos` builder is private, so the shape is
//! restated here), and eight random DAGs. The *shape* of
//! every DAG is fixed — compile time depends on structure, and the work
//! must not move with the seed — while `--seed` draws the literals inside
//! the random DAGs, which changes every structural hash and nothing else.
//!
//! Correctness: the compiler's output is executed. Each corpus DAG is
//! re-inferred at a geometry ~100× smaller, compiled by an engine of the
//! same configuration, run on seeded inputs and compared with `hop::interp`.
//! And `operators_compiled` must be equal on every pass (no hidden cache
//! hit can shorten a pass).

use super::{Part, RoundOutcome, Scale, Workload};
use crate::gen::{self, Fnv, Rng};
use crate::panel::{roots_agree, Class};
use crate::trace::Tracer;
use fusedml_bench::experiments::{fig12, fig8};
use fusedml_core::optimizer::dag_structural_hash;
use fusedml_hop::interp::{self, Bindings};
use fusedml_hop::{DagBuilder, HopDag, HopId, OpKind};
use fusedml_linalg::ops::{AggDir, AggOp, BinaryOp, UnaryOp};
use fusedml_runtime::{Engine, EngineBuilder, FusionMode};
use std::collections::HashMap;
use std::time::Instant;

pub struct Item {
    pub name: String,
    pub dag: HopDag,
}

/// The cold-compile engine: every pass gets a new one.
pub fn cold_engine() -> Engine {
    EngineBuilder::new(FusionMode::Gen).cache_plans(false).verify_plans(false).workers(1).build()
}

/// An autoencoder's per-batch forward + backward DAG in the shape
/// `algos::autoencoder` builds it, with one hidden layer fewer:
/// `X → sigmoid(XW1) → sigmoid(H1W2) → H2W3 = X̂`, squared error, three
/// weight gradients. (The full four-weight DAG costs the optimizer its
/// 32768-plan cap and 0.25 s alone — more than the rest of the corpus and
/// more than sixty passes have room for; this one costs 13506 plans.)
pub fn autoencoder_dag(bsz: usize, m: usize, h1: usize, h2: usize) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("Xb", bsz, m, 1.0);
    let w1 = b.read("W1", m, h1, 1.0);
    let w2 = b.read("W2", h1, h2, 1.0);
    let w3 = b.read("W3", h2, m, 1.0);
    // Forward.
    let a1 = b.mm(x, w1);
    let z1 = b.sigmoid(a1);
    let a2 = b.mm(z1, w2);
    let z2 = b.sigmoid(a2);
    let xhat = b.mm(z2, w3);
    // Loss: 0.5·sum((X̂ − X)^2) / bsz.
    let diff = b.sub(xhat, x);
    let sq = b.sq(diff);
    let se = b.sum(sq);
    let scale = b.lit(0.5 / bsz as f64);
    let loss = b.mult(scale, se);
    // Backward (sprop chains: z ⊙ (1 − z)).
    let dscale = b.lit(1.0 / bsz as f64);
    let dxhat = b.mult(diff, dscale);
    let z2t = b.t(z2);
    let dw3 = b.mm(z2t, dxhat);
    let w3t = b.t(w3);
    let dz2 = b.mm(dxhat, w3t);
    let s2 = b.unary(UnaryOp::Sprop, z2);
    let da2 = b.mult(dz2, s2);
    let z1t = b.t(z1);
    let dw2 = b.mm(z1t, da2);
    let w2t = b.t(w2);
    let dz1 = b.mm(da2, w2t);
    let s1 = b.unary(UnaryOp::Sprop, z1);
    let da1 = b.mult(dz1, s1);
    let xt = b.t(x);
    let dw1 = b.mm(xt, da1);
    b.build(vec![loss, dw1, dw2, dw3])
}

/// A random expression over two dense and one sparse `n`×`m` matrix, a
/// weight column and a model vector. `structure` alone decides the shape of
/// the DAG; `seed` only draws the literals.
pub fn random_dag(structure: u64, seed: u64) -> HopDag {
    let mut pick = Rng::new(structure, "compile.structure");
    let mut lit = Rng::new(seed, &format!("compile.literals.{structure}"));
    let (n, m) = (50_000, 20 + 10 * (structure as usize % 3));
    let mut b = DagBuilder::new();
    let mut mats: Vec<HopId> =
        vec![b.read("X", n, m, 1.0), b.read("Y", n, m, 1.0), b.read("S", n, m, 0.05)];
    let mut cols: Vec<HopId> = vec![b.read("w", n, 1, 1.0)];
    let v = b.read("v", m, 1, 1.0);
    const BIN: [BinaryOp; 5] =
        [BinaryOp::Mult, BinaryOp::Add, BinaryOp::Sub, BinaryOp::Min, BinaryOp::Max];
    for _ in 0..24 + pick.below(10) {
        let a = mats[pick.below(mats.len())];
        let c = cols[pick.below(cols.len())];
        let op = BIN[pick.below(BIN.len())];
        match pick.below(8) {
            0 | 1 => {
                let other = mats[pick.below(mats.len())];
                mats.push(b.binary(op, a, other));
            }
            2 => {
                let abs = b.abs(a);
                mats.push(if pick.below(2) == 0 { b.sigmoid(a) } else { b.sqrt(abs) });
            }
            3 => {
                let k = b.lit(lit.range(0.25, 1.75));
                mats.push(b.binary(op, a, k));
            }
            4 => cols.push(b.mm(a, v)),
            5 => cols.push(b.row_sums(a)),
            6 => mats.push(b.binary(op, a, c)),
            _ => {
                let other = cols[pick.below(cols.len())];
                cols.push(b.binary(op, c, other));
            }
        }
    }
    let last_mat = mats[mats.len() - 1];
    let last_col = cols[cols.len() - 1];
    let total = b.sum(last_mat);
    let xt = b.t(mats[0]);
    let grad = b.mm(xt, last_col);
    let sums = b.agg(AggOp::Sum, AggDir::Col, mats[mats.len() / 2]);
    b.build(vec![total, grad, sums])
}

/// Builds the corpus (see the module comment).
pub fn corpus(seed: u64, scale: Scale) -> Vec<Item> {
    let super::ops::Shapes { sparse: (rows, cols), outer: (n, m, rank), .. } =
        super::ops::shapes(Scale::Full);
    let mut items: Vec<Item> = vec![
        ("fig8a_cell", fig8::cell_dag(rows, cols, 1.0).0),
        ("fig8b_cell_0.1", fig8::cell_dag(rows, cols, 0.1).0),
        ("fig8c_magg", fig8::magg_dag(rows, cols, 1.0).0),
        ("fig8d_magg_0.1", fig8::magg_dag(rows, cols, 0.1).0),
        ("fig8e_row", fig8::row_dag(rows, cols, 1, 1.0).0),
        ("fig8f_row_0.1", fig8::row_dag(rows, cols, 1, 0.1).0),
        ("fig8g_row_k2", fig8::row_dag(rows, cols, 2, 1.0).0),
        ("row_weighted_0.01", fig8::row_sparse_dag(rows, cols, 0.01).0),
        ("fig8h_outer_0.01", fig8::outer_dag(n, m, rank, 0.01).0),
        ("fig8h_outer_0.001", fig8::outer_dag(n, m, rank, 0.001).0),
    ]
    .into_iter()
    .map(|(name, dag)| Item { name: name.to_string(), dag })
    .collect();
    for (algo, dags) in fig12::algorithm_dags() {
        for (i, dag) in dags.into_iter().enumerate() {
            items.push(Item { name: format!("fig12_{algo}_{i}"), dag });
        }
    }
    // At the quick scale the 13506-plan enumeration (0.09 s a pass) is left
    // out; its smaller cousin in the Figure 12 set stays.
    if scale == Scale::Full {
        let dag = autoencoder_dag(512, 100, 64, 2);
        items.push(Item { name: "autoencoder_batch".to_string(), dag });
    }
    for structure in 0..scale.pick(8, 2) as u64 {
        items.push(Item { name: format!("random_{structure}"), dag: random_dag(structure, seed) });
    }
    items
}

/// Shrinks a dimension for the executed-output check: anything large
/// becomes ~100× smaller, small dimensions (ranks, class counts, feature
/// widths that index ranges refer to) stay.
fn shrink(d: usize) -> usize {
    if d > 256 {
        (d / 100).max(16)
    } else {
        d
    }
}

/// Executes what the compiler produces for `dag` at a small geometry and
/// compares with the interpreter.
fn check_executed(engine: &Engine, item: &Item, seed: u64) -> Result<(), String> {
    let mut geometry: HashMap<String, (usize, usize, f64)> = HashMap::new();
    let mut bindings = Bindings::new();
    for h in item.dag.iter() {
        if let OpKind::Read { name } = &h.kind {
            let (r, c, sp) = (shrink(h.size.rows), shrink(h.size.cols), h.size.sparsity);
            geometry.insert(name.clone(), (r, c, sp));
            let stream = format!("compile.check.{}.{name}", item.name);
            let m = if sp < 1.0 {
                gen::sparse(r, c, sp, 0.1, 1.0, &mut Rng::new(seed, &stream))
            } else {
                gen::dense(r, c, 0.1, 1.0, &mut Rng::new(seed, &stream))
            };
            bindings.insert(name.clone(), m);
        }
    }
    let fail = |what: String| format!("{}: {what}", item.name);
    // An incompatible geometry panics inside size inference; that is a
    // finding about this check, not a crash of the benchmark.
    let reshape = std::panic::AssertUnwindSafe(|| item.dag.with_read_geometry(&geometry));
    let small = std::panic::catch_unwind(reshape).map_err(|_| fail("geometry rejected".into()))?;
    let want = interp::interpret(&small, &bindings);
    let script = engine.try_compile(&small).map_err(|e| fail(e.to_string()))?;
    let got = script.try_execute(&bindings).map_err(|e| fail(e.to_string()))?;
    roots_agree(got.values(), &want, Class::Reduce).map_err(fail)
}

pub struct CompileCold {
    items: Vec<Item>,
    parts: Vec<Part>,
    /// `(operators_compiled, plans_evaluated)` of the set-up pass.
    expected: (usize, u64),
    ae_plans_evaluated: u64,
    memo_entries: u64,
    errors: Vec<String>,
    checksum: u64,
}

/// One cold pass over `items` on a fresh engine; returns the pass's
/// `(operators_compiled, plans_evaluated)` and the number of failed
/// compiles.
fn pass(items: &[Item], tr: &mut Tracer, unit: u32, part_ms: &mut [f64]) -> ((usize, u64), u32) {
    let engine = cold_engine();
    let mut failed = 0;
    for (i, item) in items.iter().enumerate() {
        let t0 = Instant::now();
        tr.enter("runtime.Engine.try_compile", i as u32, unit);
        let script = engine.try_compile(&item.dag);
        tr.exit();
        part_ms[i] = t0.elapsed().as_secs_f64() * 1e3;
        failed += u32::from(script.is_err());
        std::hint::black_box(&script);
    }
    let s = engine.optimizer().stats.snapshot();
    ((s.operators_compiled, s.plans_evaluated), failed)
}

impl CompileCold {
    pub fn setup(seed: u64, scale: Scale) -> CompileCold {
        let items = corpus(seed, scale);
        let mut hash = Fnv::default();
        items.iter().for_each(|it| hash.u64(dag_structural_hash(&it.dag)));
        let mut errors = Vec::new();

        let mut scratch = vec![0.0; items.len()];
        let (expected, failed) = pass(&items, &mut Tracer::off(), 0, &mut scratch);
        if failed > 0 {
            errors.push(format!("{failed} corpus DAGs failed to compile"));
        }
        // The enumeration-heavy case must really be present.
        let ae = cold_engine();
        let ae_item = items.iter().find(|it| it.name == "autoencoder_batch");
        let ae_plans_evaluated = ae_item.map_or(0, |it| {
            let _ = ae.try_compile(&it.dag);
            ae.optimizer().stats.snapshot().plans_evaluated
        });
        if ae_item.is_some() && ae_plans_evaluated < 10_000 {
            errors.push(format!(
                "autoencoder_batch costs {ae_plans_evaluated} plans, expected >= 10^4"
            ));
        }
        let memo_entries = items
            .iter()
            .map(|it| fusedml_core::explore::explore(&it.dag).total_entries())
            .sum::<usize>();

        let checker = cold_engine();
        for item in &items {
            if let Err(e) = check_executed(&checker, item, seed) {
                errors.push(e);
            }
        }
        let parts = items.iter().map(|it| Part { name: it.name.clone(), template: None }).collect();
        CompileCold {
            items,
            parts,
            expected,
            ae_plans_evaluated,
            memo_entries: memo_entries as u64,
            errors,
            checksum: hash.0,
        }
    }
}

impl Workload for CompileCold {
    fn parts(&self) -> &[Part] {
        &self.parts
    }

    fn round(&mut self, tr: &mut Tracer, unit: u32, part_ms: &mut [f64]) -> RoundOutcome {
        let (counts, failed) = pass(&self.items, tr, unit, part_ms);
        // A pass that compiled a different number of operators hit (or
        // missed) a cache it should not have: the whole pass is void.
        let void = u32::from(counts != self.expected) * self.items.len() as u32;
        RoundOutcome { attempted: self.items.len() as u32, failed: failed.max(void) }
    }

    fn errors(&self) -> &[String] {
        &self.errors
    }

    fn input_checksum(&self) -> u64 {
        self.checksum
    }

    fn counts(&self) -> Vec<(String, u64)> {
        vec![
            ("corpus_dags".into(), self.items.len() as u64),
            ("operators_compiled_per_pass".into(), self.expected.0 as u64),
            ("plans_evaluated_per_pass".into(), self.expected.1),
            ("autoencoder_plans_evaluated".into(), self.ae_plans_evaluated),
            ("memo_entries".into(), self.memo_entries),
        ]
    }

    fn engine(&self) -> Option<&Engine> {
        None
    }
}
