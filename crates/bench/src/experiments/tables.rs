//! Tables 3–6: compilation overhead, data-intensive, compute-intensive, and
//! distributed end-to-end experiments.

use super::Scale;
use crate::report::Table;
use crate::MODES;
use fusedml_algos::{alscg, autoencoder, glm, kmeans, l2svm, mlogreg};
use fusedml_hop::interp::Bindings;
use fusedml_linalg::{generate, par, Matrix};
use fusedml_runtime::{shard, Engine, FusionMode};
use std::time::Instant;

/// Table 3: end-to-end compilation overhead per algorithm (Mnist60k-like
/// input; plan caching across iterations disabled to expose per-DAG
/// optimization, as SystemML's dynamic recompilation does).
pub fn table3(scale: Scale) {
    let (n, m) = scale.pick((10_000, 784), (60_000, 784));
    let mut t = Table::new(
        &format!("Table 3: compilation overhead (Mnist60k-like {n}x{m}, Gen)"),
        &["algorithm", "total [s]", "#DAGs/#CPlans/#compiled", "codegen [ms]", "opt [ms]"],
    );
    let mut run_algo = |name: &str, f: &mut dyn FnMut(&Engine) -> f64| {
        // Re-optimize per iteration (recompilation), as SystemML's dynamic
        // recompilation does.
        let exec = Engine::builder(FusionMode::Gen).cache_plans(false).build();
        let secs = f(&exec);
        let s = exec.optimizer().stats.snapshot();
        t.row(vec![
            name.to_string(),
            Table::secs(secs),
            format!("{}/{}/{}", s.dags_optimized, s.cplans_constructed, s.operators_compiled),
            format!("{:.1}", s.codegen_seconds * 1000.0),
            format!("{:.1}", s.optimize_seconds * 1000.0),
        ]);
    };
    let (x, y) = l2svm::synthetic_data(n, 100, 0.25, 1);
    run_algo("L2SVM", &mut |e| {
        l2svm::run(e, &x, &y, &l2svm::L2svmConfig { max_iter: 5, ..Default::default() }).seconds
    });
    let (xm, ym) = mlogreg::synthetic_data(n, 100, 3, 0.25, 2);
    run_algo("MLogreg", &mut |e| {
        mlogreg::run(
            e,
            &xm,
            &ym,
            &mlogreg::MLogregConfig {
                classes: 3,
                max_outer: 3,
                max_inner: 3,
                ..Default::default()
            },
        )
        .seconds
    });
    let (xg, yg) = glm::synthetic_data(n, 100, 0.25, 3);
    run_algo("GLM", &mut |e| {
        glm::run(e, &xg, &yg, &glm::GlmConfig { max_outer: 3, max_inner: 3, ..Default::default() })
            .seconds
    });
    let xk = kmeans::synthetic_data(n, 100, 1.0, 4);
    run_algo("KMeans", &mut |e| {
        kmeans::run(e, &xk, &kmeans::KMeansConfig { k: 5, max_iter: 5, ..Default::default() })
            .seconds
    });
    let xa = alscg::synthetic_data(2000, 1500, 0.01, 5);
    run_algo("ALS-CG", &mut |e| {
        alscg::run(e, &xa, &alscg::AlsConfig { rank: 10, max_iter: 5, ..Default::default() })
            .seconds
    });
    let xe = autoencoder::synthetic_data(2048, 100, 6);
    run_algo("AutoEncoder", &mut |e| {
        autoencoder::run(e, &xe, &autoencoder::AeConfig { epochs: 2, ..Default::default() }).seconds
    });
    t.print();
}

/// The regret column of Tables 4–5: `Gen ÷ min(Base, Gen-FA, Gen-FNR)` over
/// one row's per-mode seconds (in [`MODES`] order, `INFINITY` where a mode
/// did not run), flagged `REGRET` above 1.25 the way Table 6 flags
/// `DIVERGES`. Paper §5 rests on the cost-based plan never losing to a
/// heuristic or to `Base`; the column reports, it gates nothing.
fn regret(secs: &[f64]) -> String {
    let of = |mode| secs[MODES.iter().position(|&m| m == mode).expect("a table mode")];
    let rival = [FusionMode::Base, FusionMode::GenFA, FusionMode::GenFNR]
        .map(of)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let gen = of(FusionMode::Gen);
    if !gen.is_finite() || !rival.is_finite() {
        return "N/A".to_string();
    }
    match gen / rival.max(1e-12) {
        r if r > 1.25 => format!("REGRET {r:.2}x (>1.25x)"),
        r => format!("ok ({r:.2}x)"),
    }
}

/// One row of Tables 4–5: the per-mode seconds, then their regret.
fn mode_row(t: &mut Table, algo: &str, data: &str, secs: [f64; MODES.len()]) {
    let mut row = vec![algo.to_string(), data.to_string()];
    row.extend(secs.iter().map(|&s| Table::secs(s)));
    row.push(regret(&secs));
    t.row(row);
}

/// Seconds of `run` on a fresh engine per mode, in [`MODES`] order.
fn per_mode(run: impl Fn(&Engine) -> f64) -> [f64; MODES.len()] {
    MODES.map(|mode| run(&Engine::new(mode)))
}

const MODE_HEADER: [&str; 8] =
    ["algorithm", "data", "Base", "Fused", "Gen", "Gen-FA", "Gen-FNR", "Gen regret"];

/// Table 4: data-intensive algorithms end-to-end across modes.
pub fn table4(scale: Scale) {
    let sizes: Vec<(usize, usize)> =
        scale.pick(vec![(50_000, 10), (200_000, 10)], vec![(1_000_000, 10), (10_000_000, 10)]);
    let mut t = Table::new("Table 4: data-intensive algorithms [s]", &MODE_HEADER);
    let l2 = l2svm::L2svmConfig { max_iter: 10, ..Default::default() };
    for &(n, m) in &sizes {
        let data = format!("{n}x{m}");
        let (x, y) = l2svm::synthetic_data(n, m, 1.0, 11);
        mode_row(&mut t, "L2SVM", &data, per_mode(|e| l2svm::run(e, &x, &y, &l2).seconds));
        let (xm, ym) = mlogreg::synthetic_data(n, m, 2, 1.0, 12);
        let cfg =
            mlogreg::MLogregConfig { classes: 2, max_outer: 3, max_inner: 3, ..Default::default() };
        mode_row(&mut t, "MLogreg", &data, per_mode(|e| mlogreg::run(e, &xm, &ym, &cfg).seconds));
        let (xg, yg) = glm::synthetic_data(n, m, 1.0, 13);
        let cfg = glm::GlmConfig { max_outer: 3, max_inner: 3, ..Default::default() };
        mode_row(&mut t, "GLM", &data, per_mode(|e| glm::run(e, &xg, &yg, &cfg).seconds));
        let xk = kmeans::synthetic_data(n, m, 1.0, 14);
        let cfg = kmeans::KMeansConfig { k: 5, max_iter: 5, ..Default::default() };
        mode_row(&mut t, "KMeans", &data, per_mode(|e| kmeans::run(e, &xk, &cfg).seconds));
    }
    // Real-dataset substitutes.
    let (ar, ac) = scale.pick((50_000, 29), (500_000, 29));
    let airline = generate::airline_like(ar, ac, 20, 15);
    let (_, ya) = l2svm::synthetic_data(ar, ac, 1.0, 16);
    let secs = per_mode(|e| l2svm::run(e, &airline, &ya, &l2).seconds);
    mode_row(&mut t, "L2SVM", "Airline78-like", secs);
    let (mr, mc) = scale.pick((10_000, 784), (100_000, 784));
    let mnist = generate::mnist_like(mr, mc, 0.25, 17);
    let (_, ymn) = l2svm::synthetic_data(mr, mc, 1.0, 18);
    let secs = per_mode(|e| l2svm::run(e, &mnist, &ymn, &l2).seconds);
    mode_row(&mut t, "L2SVM", "Mnist8m-like", secs);
    t.print();
}

/// Table 5: compute-intensive algorithms (ALS-CG with the dense-plane OOM
/// guard producing the paper's `N/A` entries, AutoEncoder).
pub fn table5(scale: Scale) {
    let mut t = Table::new("Table 5: compute-intensive algorithms [s]", &MODE_HEADER);
    // The guard: modes without sparsity exploitation materialize the dense
    // n×m plane; refuse when it exceeds the budget (Table 5's N/A).
    let guard_bytes = scale.pick(0.4e9, 2.0e9);
    let als = alscg::AlsConfig { rank: 20, max_iter: 2, ..Default::default() };
    let als_row = |t: &mut Table, data: &str, x: &Matrix, (n, m): (usize, usize)| {
        let secs = MODES.map(|mode| {
            let materializes_plane =
                matches!(mode, FusionMode::Base | FusionMode::GenFA | FusionMode::GenFNR);
            if materializes_plane && alscg::dense_plane_bytes(n, m) > guard_bytes {
                f64::INFINITY
            } else {
                alscg::run(&Engine::new(mode), x, &als).seconds
            }
        });
        mode_row(t, "ALS-CG", data, secs);
    };
    let als_sizes: Vec<(usize, usize)> =
        scale.pick(vec![(2_000, 2_000), (8_000, 8_000)], vec![(10_000, 10_000), (40_000, 40_000)]);
    for &(n, m) in &als_sizes {
        let x = alscg::synthetic_data(n, m, 0.01, 21);
        als_row(&mut t, &format!("{n}x{m} (0.01)"), &x, (n, m));
    }
    // Netflix-like / Amazon-like substitutes.
    let (nr, nc, nsp) = scale.pick((20_000, 2_000, 0.012), (480_000 / 4, 17_770 / 4, 0.012));
    let netflix = generate::ratings_like(nr, nc, nsp, 1.5, 22);
    als_row(&mut t, "Netflix-like", &netflix, (nr, nc));
    // AutoEncoder (dense).
    let sizes: Vec<(usize, usize)> = scale.pick(vec![(4_096, 100)], vec![(100_000, 784)]);
    let ae = autoencoder::AeConfig { epochs: 1, ..Default::default() };
    for &(n, m) in &sizes {
        let x = autoencoder::synthetic_data(n, m, 23);
        let secs = per_mode(|e| autoencoder::run(e, &x, &ae).seconds);
        mode_row(&mut t, "AutoEncoder", &format!("{n}x{m}"), secs);
    }
    t.print();
}

/// Builds the L2SVM gradient-iteration DAG `t(X) %*% (y ⊙ max(0, 1 − y ⊙ Xw))`
/// with the hinge written as indicator times margin.
fn l2svm_iteration_dag(n: usize, m: usize) -> fusedml_hop::HopDag {
    let mut b = fusedml_hop::DagBuilder::new();
    let xx = b.read("X", n, m, 1.0);
    let yy = b.read("y", n, 1, 1.0);
    let ww = b.read("w", m, 1, 1.0);
    let xw = b.mm(xx, ww);
    let yxw = b.mult(yy, xw);
    let one = b.lit(1.0);
    let out = b.sub(one, yxw);
    let zero = b.lit(0.0);
    let ind = b.gt(out, zero);
    let mask = b.mult(ind, out);
    let d = b.mult(yy, mask);
    let xt = b.t(xx);
    let g = b.mm(xt, d);
    b.build(vec![g])
}

/// Builds the mlogreg CG inner-iteration DAG `t(X) %*% (w ⊙ (X %*% v))` —
/// the paper's canonical Row-template fusion — at the given geometry.
fn mlogreg_iteration_dag(n: usize, m: usize) -> fusedml_hop::HopDag {
    let mut b = fusedml_hop::DagBuilder::new();
    let x = b.read("X", n, m, 1.0);
    let w = b.read("w", n, 1, 1.0);
    let v = b.read("v", m, 1, 1.0);
    let xv = b.mm(x, v);
    let wxv = b.mult(w, xv);
    let xt = b.t(x);
    let g = b.mm(xt, wxv);
    b.build(vec![g])
}

/// Builds the kmeans distance-iteration DAG (`min` over `-2·XC^T + ‖C‖²`,
/// summed to the WCSS scalar) with `k` centroids.
fn kmeans_iteration_dag(n: usize, m: usize, k: usize) -> fusedml_hop::HopDag {
    let mut b = fusedml_hop::DagBuilder::new();
    let xx = b.read("X", n, m, 1.0);
    let c = b.read("C", k, m, 1.0);
    let ct = b.t(c);
    let xc = b.mm(xx, ct);
    let neg2 = b.lit(-2.0);
    let xc2 = b.mult(xc, neg2);
    let csq = b.sq(c);
    let cn = b.agg(fusedml_linalg::ops::AggOp::Sum, fusedml_linalg::ops::AggDir::Row, csq);
    let cnt = b.t(cn);
    let d = b.add(xc2, cnt);
    let dmin = b.agg(fusedml_linalg::ops::AggOp::Min, fusedml_linalg::ops::AggDir::Row, d);
    let wcss = b.sum(dmin);
    b.build(vec![wcss])
}

/// Table 6: the per-iteration DAGs of the distributed algorithms on the
/// sharded runtime ([`fusedml_runtime::shard`], DESIGN.md substitution X11),
/// one engine of `shards` single-threaded workers per fusion mode. Per mode it
/// reports the measured median iteration and the bytes the driver broadcast
/// to the shards in it, **measured**
/// ([`SchedSnapshot::shard_broadcast_bytes`](fusedml_runtime::SchedSnapshot)):
/// the paper's Table 6 point — eager fusion pulls more vectors into a
/// distributed operator and so broadcasts more — is read off a counter, not a
/// model. `Base` has no fused operators, so nothing of it shards.
///
/// For `Gen` the cost model's per-plan estimate stands beside the measured
/// wall time — modeled and measured share one estimator
/// ([`shard::estimate_plan`]), so the table is the drift detector for the
/// cost model the planner shards with.
///
/// The local baseline runs kernels at one thread (a single shard's compute),
/// so "speedup" is shards-vs-one-shard on identical kernels. A
/// modeled-vs-measured ratio beyond 3x in either direction is flagged in the
/// last column. The shard count follows the machine — `min(4, cores)`, at
/// least 2 — so under `--smoke` the gate measures something everywhere and
/// checks what the planner promises: it shards at least one operator, and no
/// row's sharded `Gen` iteration is slower than 0.9x its local one.
pub fn table6(scale: Scale) {
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let shards = cores.clamp(2, 4);
    let (n, m) = scale.pick((200_000, 100), (1_000_000, 100));
    let iters = 5usize;
    let modes = MODES.into_iter().filter(|&m| m != FusionMode::Fused);
    let mode_names: Vec<String> = modes.clone().map(|m| format!("{m:?}")).collect();
    let mut t = Table::new(
        &format!(
            "Table 6: sharded runtime (X {n}x{m}, {shards} shards x 1 thread, {iters} iterations; \
             per-mode columns in the order {})",
            mode_names.join(" / ")
        ),
        &[
            "algorithm",
            "measured sharded [s]",
            "broadcast [KB/iter]",
            "Gen modeled local [s]",
            "Gen modeled sharded [s]",
            "Gen measured local [s]",
            "Gen speedup",
            "Gen sharded ops (plan/run)",
            "Gen model vs measured",
        ],
    );
    let mut cases: Vec<(&str, fusedml_hop::HopDag, Bindings)> = Vec::new();
    {
        let (x, y) = l2svm::synthetic_data(n, m, 1.0, 31);
        let mut bindings = Bindings::new();
        bindings.insert("X".into(), x);
        bindings.insert("y".into(), y);
        bindings.insert("w".into(), Matrix::zeros(m, 1));
        cases.push(("L2SVM", l2svm_iteration_dag(n, m), bindings));
    }
    {
        let dag = mlogreg_iteration_dag(n, m);
        let mut bindings = Bindings::new();
        bindings.insert("X".into(), generate::rand_dense(n, m, -1.0, 1.0, 41));
        bindings.insert("w".into(), generate::rand_dense(n, 1, 0.0, 1.0, 42));
        bindings.insert("v".into(), generate::rand_dense(m, 1, -1.0, 1.0, 43));
        cases.push(("MLogreg", dag, bindings));
    }
    {
        let k = 20;
        let dag = kmeans_iteration_dag(n, m, k);
        let mut bindings = Bindings::new();
        bindings.insert("X".into(), kmeans::synthetic_data(n, m, 1.0, 44));
        bindings.insert("C".into(), generate::rand_dense(k, m, 0.0, 1.0, 45));
        cases.push(("KMeans", dag, bindings));
    }
    // Median iteration (after one warm-up) and the scheduler delta of the
    // last one.
    let median_iteration = |script: &fusedml_runtime::CompiledScript, bindings: &Bindings| {
        let _warmup = script.execute(bindings);
        let mut sched = fusedml_runtime::SchedSnapshot::default();
        let mut secs: Vec<f64> = (0..iters)
            .map(|_| {
                let t0 = Instant::now();
                sched = script.execute(bindings).sched();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(f64::total_cmp);
        (secs[iters / 2], sched)
    };
    let mut total_sharded_ops = 0usize;
    for (name, dag, bindings) in &cases {
        let local = Engine::builder(FusionMode::Gen).build();
        let plan = local.plan_for(dag);
        let est = shard::estimate_plan(dag, &plan, shards, &local.optimizer().model);
        // One kernel thread: the honest single-shard baseline (the sharded
        // engine runs `shards` workers of one kernel thread each).
        par::set_num_threads(1);
        let (local_secs, _) = median_iteration(&local.compile(dag), bindings);
        par::set_num_threads(0);

        let (mut secs_cells, mut bcast_cells) = (Vec::new(), Vec::new());
        let (mut gen_secs, mut gen_ops) = (0.0, 0usize);
        for mode in modes.clone() {
            let engine = Engine::builder(mode).shards(shards).shard_threads(1).build();
            let (secs, sched) = median_iteration(&engine.compile(dag), bindings);
            secs_cells.push(Table::secs(secs));
            bcast_cells.push(format!("{:.1}", sched.shard_broadcast_bytes as f64 / 1e3));
            if mode == FusionMode::Gen {
                (gen_secs, gen_ops) = (secs, sched.sharded_ops);
            }
        }
        total_sharded_ops += gen_ops;

        let speedup = local_secs / gen_secs.max(1e-12);
        let ratio = |modeled: f64, measured: f64| {
            let (a, b) = (modeled.max(1e-12), measured.max(1e-12));
            (a / b).max(b / a)
        };
        let drift = ratio(est.chosen_seconds, gen_secs).max(ratio(est.local_seconds, local_secs));
        let flag = if drift > 3.0 {
            format!("DIVERGES {drift:.1}x (>3x)")
        } else {
            format!("ok ({drift:.1}x)")
        };
        t.row(vec![
            name.to_string(),
            secs_cells.join(" / "),
            bcast_cells.join(" / "),
            Table::secs(est.local_seconds),
            Table::secs(est.chosen_seconds),
            Table::secs(local_secs),
            format!("{speedup:.2}x"),
            format!("{}/{}", est.sharded_ops, gen_ops),
            flag,
        ]);
        if scale == Scale::Smoke {
            assert!(
                speedup >= 0.9,
                "{name}: the planner's choice at {shards} shards runs at {speedup:.2}x of the \
                 one-thread local iteration on {cores} cores (gate: >= 0.9x)"
            );
        }
    }
    t.print();
    if scale == Scale::Smoke {
        assert!(
            total_sharded_ops > 0,
            "the planner sharded no operator at {shards} shards on {n}x{m}"
        );
    }
}
