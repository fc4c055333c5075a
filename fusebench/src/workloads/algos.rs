//! `algos_e2e`: the paper's six algorithms (Tables 3–5) through
//! `algos::*::run` on **one long-lived `Gen` engine** with the plan cache
//! on. One round is one pass over all six. Each pass rebuilds its DAGs,
//! probes the script and plan caches, schedules, and mixes basic with fused
//! kernels — everything between the optimizer and the kernels that the
//! `ops_*` workloads skip. The cold compiles happen in set-up (the first
//! pass), so compile work moved there shows in `setup_s`.
//!
//! Every algorithm runs a fixed iteration count (convergence thresholds are
//! zero), so a round is the same work for every seed. The oracle is a
//! `FusionMode::Base` engine — no optimizer, no generated operators — whose
//! objectives must agree within 1e-6. It runs **after** the timed phase
//! ([`Workload::check_after_timing`]), once `rss_peak_mb` has been read:
//! `Base` materialises what `Gen` fuses away (the 19 MB `U Vᵀ` plane of
//! ALS-CG among them) and took the process to 71 MB or 81 MB, depending on
//! the order a hash map freed its buffers, where the `Gen` engine with all
//! its inputs peaks at 19 MB.

use super::ops::engine_1t;
use super::{Check, Part, RoundOutcome, Scale, Workload};
use crate::gen::{self, Fnv, Rng};
use crate::panel::close;
use crate::trace::Tracer;
use fusedml_algos::{alscg, autoencoder, glm, kmeans, l2svm, mlogreg, AlgoResult};
use fusedml_linalg::ops::BinaryOp;
use fusedml_linalg::Matrix;
use fusedml_runtime::{Engine, FusionMode};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub const ALGOS: [&str; 6] = ["l2svm", "mlogreg", "glm", "kmeans", "alscg", "autoencoder"];

/// The span name of each algorithm's `run`.
const SPANS: [&str; 6] = [
    "algos.l2svm.run",
    "algos.mlogreg.run",
    "algos.glm.run",
    "algos.kmeans.run",
    "algos.alscg.run",
    "algos.autoencoder.run",
];

struct Data {
    x: Matrix,
    y_pm1: Matrix,
    y_01: Matrix,
    y_class: Matrix,
    x_dense: Matrix,
    ratings: Matrix,
    x_ae: Matrix,
    ae: autoencoder::AeConfig,
    als_rank: usize,
}

pub struct AlgosE2e {
    engine: Engine,
    data: Data,
    parts: Vec<Part>,
    /// `Gen` objective and iteration count of the set-up pass; every timed
    /// pass must reproduce them.
    expected: Vec<(f64, usize)>,
    check: Check,
    errors: Vec<String>,
    checksum: u64,
}

fn run_one(engine: &Engine, d: &Data, which: usize) -> AlgoResult {
    match which {
        0 => l2svm::run(
            engine,
            &d.x,
            &d.y_pm1,
            &l2svm::L2svmConfig { epsilon: 0.0, max_iter: 10, ..Default::default() },
        ),
        1 => mlogreg::run(
            engine,
            &d.x,
            &d.y_class,
            &mlogreg::MLogregConfig {
                classes: 4,
                max_outer: 3,
                max_inner: 4,
                ..Default::default()
            },
        ),
        2 => glm::run(
            engine,
            &d.x,
            &d.y_01,
            &glm::GlmConfig { max_outer: 3, max_inner: 4, ..Default::default() },
        ),
        3 => kmeans::run(
            engine,
            &d.x_dense,
            &kmeans::KMeansConfig { k: 5, max_iter: 10, epsilon: 0.0 },
        ),
        4 => alscg::run(
            engine,
            &d.ratings,
            &alscg::AlsConfig { rank: d.als_rank, max_iter: 5, ..Default::default() },
        ),
        _ => autoencoder::run(engine, &d.x_ae, &d.ae),
    }
}

/// Runs one algorithm, turning a panic inside it into `None`.
fn guarded(engine: &Engine, d: &Data, which: usize) -> Option<AlgoResult> {
    catch_unwind(AssertUnwindSafe(|| run_one(engine, d, which))).ok()
}

impl AlgosE2e {
    pub fn setup(seed: u64, scale: Scale) -> AlgosE2e {
        Self::setup_with(seed, scale, Check::Oracle)
    }

    pub fn setup_with(seed: u64, scale: Scale, check: Check) -> AlgosE2e {
        let (n, m) = (scale.pick(6000, 400), scale.pick(100, 20));
        let x = gen::features(n, m, 0.25, &mut Rng::new(seed, "algos.X"));
        let y_pm1 = gen::binary_labels(&x, &mut Rng::new(seed, "algos.y"));
        let half = fusedml_linalg::ops::binary_scalar(&y_pm1, 1.0, BinaryOp::Add);
        let y_01 = fusedml_linalg::ops::binary_scalar(&half, 0.5, BinaryOp::Mult);
        let data = Data {
            y_class: gen::class_labels(n, 4, &mut Rng::new(seed, "algos.classes")),
            x_dense: gen::dense(n, m, 0.0, 1.0, &mut Rng::new(seed, "algos.Xd")),
            ratings: gen::sparse(
                scale.pick(1600, 200),
                scale.pick(1500, 150),
                scale.pick(1, 5) as f64 * 0.01,
                1.0,
                5.0,
                &mut Rng::new(seed, "algos.R"),
            ),
            x_ae: gen::dense(scale.pick(1536, 256), m, 0.0, 1.0, &mut Rng::new(seed, "algos.Xae")),
            ae: autoencoder::AeConfig {
                h1: scale.pick(64, 16),
                h2: 2,
                batch: scale.pick(512, 128),
                epochs: 2,
                step: 0.1,
            },
            als_rank: scale.pick(10, 4),
            x,
            y_pm1,
            y_01,
        };
        let mut hash = Fnv::default();
        for m in [&data.x, &data.y_pm1, &data.y_class, &data.x_dense, &data.ratings, &data.x_ae] {
            hash.matrix(m);
        }

        // The first pass: every cold compile of the workload lands here.
        let engine = engine_1t(FusionMode::Gen);
        let mut errors = Vec::new();
        let expected = (0..ALGOS.len())
            .map(|i| match guarded(&engine, &data, i) {
                Some(r) => (r.objective, r.iterations),
                None => {
                    errors.push(format!("{}: run panicked", ALGOS[i]));
                    (f64::NAN, 0)
                }
            })
            .collect();
        let parts = ALGOS.iter().map(|a| Part { name: a.to_string(), template: None }).collect();
        AlgosE2e { engine, data, parts, expected, check, errors, checksum: hash.0 }
    }
}

impl Workload for AlgosE2e {
    fn parts(&self) -> &[Part] {
        &self.parts
    }

    fn round(&mut self, tr: &mut Tracer, unit: u32, part_ms: &mut [f64]) -> RoundOutcome {
        let mut out = RoundOutcome::default();
        for i in 0..ALGOS.len() {
            let t0 = Instant::now();
            tr.enter(SPANS[i], i as u32, unit);
            let r = guarded(&self.engine, &self.data, i);
            tr.exit();
            part_ms[i] = t0.elapsed().as_secs_f64() * 1e3;
            let (objective, iterations) = self.expected[i];
            let ok = r
                .is_some_and(|r| r.iterations == iterations && close(r.objective, objective, 1e-6));
            out.attempted += 1;
            out.failed += u32::from(!ok);
        }
        out
    }

    fn check_after_timing(&mut self) {
        if self.check == Check::Skip {
            return;
        }
        let base = engine_1t(FusionMode::Base);
        for (i, name) in ALGOS.iter().enumerate() {
            let gen = self.expected[i].0;
            match guarded(&base, &self.data, i) {
                Some(b) if close(gen, b.objective, 1e-6) => {}
                Some(b) => self
                    .errors
                    .push(format!("{name}: Gen objective {gen:e}, Base oracle {:e}", b.objective)),
                None => self.errors.push(format!("{name}: the Base oracle panicked")),
            }
        }
    }

    fn errors(&self) -> &[String] {
        &self.errors
    }

    fn input_checksum(&self) -> u64 {
        self.checksum
    }

    fn counts(&self) -> Vec<(String, u64)> {
        let opt = self.engine.optimizer().stats.snapshot();
        let (hits, misses) = self.engine.plan_cache().stats();
        let (fused, _, basic) = self.engine.stats().snapshot();
        let iterations: usize = self.expected.iter().map(|(_, it)| it).sum();
        vec![
            ("iterations_per_pass".into(), iterations as u64),
            ("dags_optimized".into(), opt.dags_optimized as u64),
            ("operators_compiled".into(), opt.operators_compiled as u64),
            ("plans_evaluated".into(), opt.plans_evaluated),
            ("plancache_hits".into(), hits as u64),
            ("plancache_misses".into(), misses as u64),
            ("fused_ops".into(), fused as u64),
            ("basic_ops".into(), basic as u64),
            ("recompiles".into(), self.engine.stats().plan_recompiles() as u64),
        ]
    }

    fn engine(&self) -> Option<&Engine> {
        Some(&self.engine)
    }
}
