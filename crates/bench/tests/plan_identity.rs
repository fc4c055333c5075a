#![allow(clippy::disallowed_methods)] // test code may unwrap freely
//! Plan-identity oracle for `MPSkipEnum`: the 25 `compile_cold` corpus shapes
//! of fusebench plus the four-weight autoencoder that runs into the
//! enumeration cap must enumerate to the assignments and costs recorded in
//! `plan_identity.tsv`. That file was written by `dump` at the commit
//! *before* the costing table replaced the hash-set coster (PR 18), so it
//! does not depend on the code it checks. One row, the capped one, was
//! re-recorded later; the file's `#` lines say when and why. Regenerate it
//! only from a commit whose plans are trusted: `cargo test -p fusedml-bench
//! --test plan_identity -- --ignored --nocapture dump | grep '^@' | cut -c2-`.
//!
//! The same corpus pins who runs into the enumeration cap: the four-weight
//! autoencoder and nobody else.

use fusedml_bench::experiments::{fig12, fig8};
use fusedml_core::explore::explore;
use fusedml_core::opt::{cost, mpskip_enum, partitions, CostModel, EnumConfig};
use fusedml_hop::{DagBuilder, HopDag, HopId};
use fusedml_linalg::ops::{AggDir, AggOp, BinaryOp, UnaryOp};
use fusedml_runtime::{EngineBuilder, FusionMode};

/// fusebench's `gen::Rng` (SplitMix64 keyed by an FNV-1a of the stream name),
/// restated: `random_dag` must draw the shapes `compile_cold` compiles.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in stream.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The autoencoder batch DAG of `algos::autoencoder` (`hidden = 3`, weights
/// W1..W4: the DAG every cold `algos_e2e` compile caps on) or fusebench's
/// `compile_cold` cousin with one hidden layer fewer (`hidden = 2`).
fn autoencoder_dag(bsz: usize, m: usize, h1: usize, h2: usize, hidden: usize) -> HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("Xb", bsz, m, 1.0);
    let widths: Vec<usize> = if hidden == 3 { vec![m, h1, h2, h1, m] } else { vec![m, h1, h2, m] };
    let ws: Vec<HopId> = widths
        .windows(2)
        .enumerate()
        .map(|(i, w)| b.read(&format!("W{}", i + 1), w[0], w[1], 1.0))
        .collect();
    // Forward: sigmoid on every layer but the last.
    let mut zs = vec![x];
    for &w in &ws[..hidden] {
        let a = b.mm(zs[zs.len() - 1], w);
        zs.push(b.sigmoid(a));
    }
    let xhat = b.mm(zs[hidden], ws[hidden]);
    let diff = b.sub(xhat, x);
    let sq = b.sq(diff);
    let se = b.sum(sq);
    let scale = b.lit(0.5 / bsz as f64);
    let loss = b.mult(scale, se);
    // Backward (sprop chains: z ⊙ (1 − z)), last layer first.
    let dscale = b.lit(1.0 / bsz as f64);
    let mut delta = b.mult(diff, dscale);
    let mut grads = Vec::new();
    for layer in (0..=hidden).rev() {
        let zt = b.t(zs[layer]);
        grads.push(b.mm(zt, delta));
        if layer > 0 {
            let wt = b.t(ws[layer]);
            let dz = b.mm(delta, wt);
            let s = b.unary(UnaryOp::Sprop, zs[layer]);
            delta = b.mult(dz, s);
        }
    }
    grads.reverse();
    let mut roots = vec![loss];
    roots.extend(grads);
    b.build(roots)
}

/// fusebench's `workloads::compile::random_dag`, restated.
fn random_dag(structure: u64, seed: u64) -> HopDag {
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

/// The `compile_cold` corpus at its full scale (`ops_sparse` sizes for the
/// Figure 8 builders), then the capped four-weight autoencoder.
fn corpus() -> Vec<(String, HopDag)> {
    let (rows, cols) = (4000, 1000);
    let (n, m, rank) = (6000, 2000, 100);
    let mut items: Vec<(String, HopDag)> = vec![
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
    .map(|(name, dag)| (name.to_string(), dag))
    .collect();
    for (algo, dags) in fig12::algorithm_dags() {
        for (i, dag) in dags.into_iter().enumerate() {
            items.push((format!("fig12_{algo}_{i}"), dag));
        }
    }
    items.push(("autoencoder_batch".to_string(), autoencoder_dag(512, 100, 64, 2, 2)));
    for structure in 0..8 {
        items.push((format!("random_{structure}"), random_dag(structure, 1)));
    }
    items.push(("autoencoder_4w_capped".to_string(), autoencoder_dag(512, 100, 64, 2, 3)));
    items
}

/// One row per partition: `(name, partition, bits, cost, evaluated, capped)`,
/// the enumeration run exactly as `select_plans` runs it (Row plans without
/// row-wise operations pruned first, default `EnumConfig`).
fn enumerate_corpus() -> Vec<(String, usize, String, f64, u64, bool)> {
    let model = CostModel::default();
    let mut rows = Vec::new();
    for (name, dag) in corpus() {
        let mut memo = explore(&dag);
        memo.prune_useless_row_plans(&dag);
        let compute = cost::compute_costs(&dag);
        for (ix, part) in partitions(&dag, &memo).iter().enumerate() {
            let r = mpskip_enum(&dag, &memo, part, &compute, &model, &EnumConfig::default());
            let bits: String = r.assignment.iter().map(|&on| if on { '1' } else { '0' }).collect();
            rows.push((name.clone(), ix, format!("b{bits}"), r.cost, r.evaluated, r.capped));
        }
    }
    rows
}

#[test]
#[ignore = "writes the oracle: run at a commit whose plans are trusted"]
fn dump() {
    for (name, ix, bits, cost, evaluated, _) in enumerate_corpus() {
        println!("@{name}\t{ix}\t{bits}\t{cost:e}\t{evaluated}");
    }
}

#[test]
fn corpus_enumerates_to_the_recorded_plans() {
    let want: Vec<Vec<&str>> = include_str!("plan_identity.tsv")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
        .collect();
    let got = enumerate_corpus();
    assert_eq!(got.len(), want.len(), "partition count of the corpus");
    let mut dags = std::collections::BTreeSet::new();
    for ((name, ix, bits, cost, evaluated, capped), w) in got.iter().zip(&want) {
        dags.insert(name.clone());
        let at = format!("{name} partition {ix}");
        assert_eq!((name.as_str(), ix.to_string().as_str()), (w[0], w[1]), "row order");
        assert_eq!(bits, w[2], "{at}: assignment");
        let want_cost: f64 = w[3].parse().unwrap();
        assert!(
            (cost - want_cost).abs() <= 1e-9 * want_cost.abs(),
            "{at}: cost {cost:e}, recorded {want_cost:e}"
        );
        assert_eq!(evaluated.to_string(), w[4], "{at}: plans costed");
        assert_eq!(*capped, name == "autoencoder_4w_capped" && *ix == 0, "{at}: capped");
    }
    assert_eq!(dags.len(), 26, "25 compile_cold shapes + the capped autoencoder");
}

/// A capped enumeration shows where a user looks: the last line of
/// `CompiledScript::explain` and the optimizer's statistics. The Figure 12
/// algorithm DAGs enumerate to the end and say nothing.
#[test]
fn explain_reports_the_cap() {
    let compile = |dag: &HopDag| {
        let engine = EngineBuilder::new(FusionMode::Gen).workers(1).build();
        let explain = engine.compile(dag).explain();
        (explain, engine.optimizer().stats.snapshot().partitions_capped)
    };
    let (explain, capped) = compile(&autoencoder_dag(512, 100, 64, 2, 3));
    let line = "enumeration capped at 32768 of 2^20 plans in 1 partition(s): plan is best-so-far\n";
    assert!(explain.ends_with(line), "explain ends with the cap line:\n{explain}");
    assert_eq!(capped, 1);
    for (algo, dags) in fig12::algorithm_dags() {
        for dag in &dags {
            let (explain, capped) = compile(dag);
            assert!(!explain.contains("capped"), "{algo}:\n{explain}");
            assert_eq!(capped, 0, "{algo}");
        }
    }
}

/// `repro fig12` counts the plans the engine's optimizer costs, on every
/// Figure 12 algorithm and on a random DAG whose memo holds Row plans
/// without row-wise operations: `select_plans` prunes those before it
/// enumerates (23 plans costed unpruned, 32 pruned), and so must Figure 12.
#[test]
fn figure_12_counts_what_the_engine_costs() {
    let mut sets = fig12::algorithm_dags();
    sets.push(("random_38", vec![random_dag(38, 38)]));
    for (name, dags) in sets {
        let engine = EngineBuilder::new(FusionMode::Gen).workers(1).build();
        for dag in &dags {
            engine.compile(dag);
        }
        let s = engine.optimizer().stats.snapshot();
        let c = fig12::counts(&dags);
        assert_eq!(
            (c.evaluated, c.walked, c.pruned_cost, c.pruned_structural),
            (s.plans_evaluated, s.plans_walked, s.plans_pruned_cost, s.plans_pruned_structural),
            "{name}"
        );
    }
}
