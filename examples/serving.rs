#![allow(clippy::disallowed_methods)] // test/example code may unwrap freely
//! Model serving: compile a scorer once, answer requests from many threads —
//! and keep serving when one request dies.
//!
//! The paper's premise — fusion-plan optimization is compile-time work
//! amortized over many executions — is exactly the shape of a serving
//! workload: one optimized program, millions of requests. This example
//! compiles the MLogreg scoring expression into a [`CompiledScript`] and
//! drives it from a multi-threaded request loop; every worker shares the
//! engine's buffer pool and the script's compiled operators (each carrying
//! its lowered kernel), and none of them ever re-runs the optimizer.
//!
//! The failure half: a deterministic fault plan injects a worker panic into
//! exactly one request (`TaskPanic` at rate 1.0, fault budget 1). That
//! request comes back as a typed `ExecError` from `try_execute`; the other
//! requests — including later ones on the *same* thread — serve normally,
//! because a contained failure sweeps its slots, returns its pooled
//! buffers, and never poisons the engine.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use fusedml::core::FusionMode;
use fusedml::hop::interp::bind;
use fusedml::hop::DagBuilder;
use fusedml::linalg::fault::{FaultPlan, FaultSite};
use fusedml::linalg::generate;
use fusedml::runtime::{CompiledScript, EngineBuilder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn main() {
    // The scorer: raw class scores S = X W for a request batch X, plus the
    // per-row best score — two roots served from one fused pass where the
    // optimizer finds one.
    let (batch, features, classes) = (256, 128, 10);
    let mut b = DagBuilder::new();
    let x = b.read("X", batch, features, 1.0);
    let w = b.read("W", features, classes, 1.0);
    let scores = b.mm(x, w);
    let best = b.row_maxs(scores);
    let dag = b.build(vec![scores, best]);

    // One engine for the process: 2 inter-op workers per request (kernels
    // keep their internal row-band parallelism), a 256 MiB pool budget —
    // and a chaos plan that panics exactly one task across the whole load.
    let faults = Arc::new(FaultPlan::seeded(2024).rate(FaultSite::TaskPanic, 1.0).max_faults(1));
    let engine = EngineBuilder::new(FusionMode::Gen)
        .workers(2)
        .memory_budget(256 << 20)
        .fault_plan(Arc::clone(&faults))
        .build();
    let script = engine.compile(&dag); // optimize + codegen happen HERE, once
    println!("compiled scorer for {batch}x{features} -> {classes} classes");
    println!("plan:\n{}", script.explain());

    // The model is fixed; each request brings its own batch.
    let weights = generate::rand_dense(features, classes, -0.5, 0.5, 42);
    let threads = 8;
    let requests_per_thread = 50;
    let served = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    // The injected panic is caught inside the engine; silence the default
    // hook's backtrace spam for the serving loop.
    std::panic::set_hook(Box::new(|_| {}));
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let script = script.clone();
            let weights = weights.clone();
            let (served, failed) = (&served, &failed);
            s.spawn(move || {
                // Hold the engine scope so retired responses recycle into
                // the shared pool (and the next request reuses them).
                let _scope = script.engine().scope();
                for r in 0..requests_per_thread {
                    let seed = (t * requests_per_thread + r + 1) as u64;
                    let batch_x = generate::rand_dense(batch, features, -1.0, 1.0, seed);
                    match script.try_execute(&bind(&[("X", batch_x), ("W", weights.clone())])) {
                        Ok(out) => {
                            {
                                let best = out.matrix(1);
                                assert_eq!((best.rows(), best.cols()), (batch, 1));
                                // `best` (an Arc clone) must die before the
                                // recycle below, or root 1's buffer is still
                                // shared and silently skips the pool.
                            }
                            // Response consumed: retire its buffers.
                            out.into_values()
                                .into_iter()
                                .for_each(fusedml::linalg::matrix::Value::recycle);
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            // One poisoned request, typed and contained;
                            // this thread keeps serving the rest.
                            println!("request {seed} failed cleanly: {e}");
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    drop(std::panic::take_hook()); // restore the default hook
    let elapsed = t0.elapsed();
    let total = threads * requests_per_thread;
    let (ok, err) = (served.load(Ordering::Relaxed), failed.load(Ordering::Relaxed));
    println!(
        "served {ok}/{total} requests ({err} failed) from {threads} threads in {elapsed:?} \
         ({:.0} req/s)",
        ok as f64 / elapsed.as_secs_f64()
    );
    assert_eq!(err, 1, "the fault budget allows exactly one injected panic");
    assert_eq!(ok, total - 1, "every other request must serve normally");

    // The whole point: zero re-optimization under load.
    let opt = engine.optimizer().stats.snapshot();
    let pool = engine.pool_stats();
    println!(
        "optimizer ran on {} DAG(s); {} operators compiled; recompiles {}; pool hit rate {:.0}%",
        opt.dags_optimized,
        opt.operators_compiled,
        engine.stats().plan_recompiles(),
        100.0 * pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64
    );
    assert_eq!(opt.dags_optimized, 1, "compile once");
    assert_eq!(engine.stats().plan_recompiles(), 0, "no shape drift in this loop");

    // Error-path accounting: the failure is visible in the engine counters,
    // not just in the one rejected request.
    let sched = engine.stats().scheduler_snapshot();
    println!(
        "failures: {} failed execution(s), {} injected fault(s) ({} from the plan), \
         {} spill retries",
        engine.stats().failed_executions(),
        sched.injected_faults,
        faults.total_injected(),
        sched.spill_retries,
    );
    assert_eq!(engine.stats().failed_executions(), 1);
    assert_eq!(faults.total_injected(), 1);

    // Memory tier: report where the bytes lived. Peak is the worst single
    // run; spill counters sum over the load.
    println!(
        "memory: peak resident {:.2} MB/run, spilled {:.2} MB, reloaded {:.2} MB",
        sched.peak_bytes as f64 / 1e6,
        sched.spilled_bytes as f64 / 1e6,
        sched.reloaded_bytes as f64 / 1e6,
    );
    assert_eq!(sched.spilled_bytes, 0, "a scorer this small must serve entirely in memory");

    // --- Sharded scoring (DESIGN.md substitution X11): the same pattern at
    // bulk scale. A nightly batch of 200k rows scores p = sigmoid(X v); the
    // cost model decides this operator is worth sharding, so the engine
    // row-partitions X into 4 bands run on threads spawned for the call,
    // broadcasts v, and concatenates the per-shard score blocks — no code
    // change in the serving loop, just `EngineBuilder::shards(4)`.
    let (n, m) = (200_000, 128);
    let mut b = DagBuilder::new();
    let x = b.read("X", n, m, 1.0);
    let v = b.read("v", m, 1, 1.0);
    let xv = b.mm(x, v);
    let p = b.sigmoid(xv);
    let bulk = b.build(vec![p]);
    let sharded = EngineBuilder::new(FusionMode::Gen).shards(4).shard_threads(1).build();
    let bulk_script = sharded.compile(&bulk);
    let batch_x = generate::rand_dense(n, m, -1.0, 1.0, 7);
    let model_v = generate::rand_dense(m, 1, -0.5, 0.5, 8);
    let bulk_bindings = bind(&[("X", batch_x), ("v", model_v)]);
    let t1 = std::time::Instant::now();
    let out = bulk_script.execute(&bulk_bindings);
    let bulk_elapsed = t1.elapsed();
    let scores = out.matrix(0);
    assert_eq!((scores.rows(), scores.cols()), (n, 1));
    let snap = out.sched();
    println!(
        "sharded scorer: {n} rows in {bulk_elapsed:?} (cold) across {} shard(s); {} sharded op(s), \
         broadcast {:.1} KB, partials {:.2} MB, merge {} us, skew {:.2}x",
        sharded.shards(),
        snap.sharded_ops,
        snap.shard_broadcast_bytes as f64 / 1e3,
        snap.shard_partial_bytes as f64 / 1e6,
        snap.shard_merge_us,
        snap.shard_skew_milli as f64 / 1e3,
    );
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    assert_eq!(sharded.shards(), 4, "the builder knob sets the band count");
    if cores >= 2 {
        assert!(snap.sharded_ops > 0, "the planner must shard a 200kx128 scorer");
        assert_eq!(snap.shards_used, 4, "the bulk batch must use every shard");
        assert!(snap.shard_partial_bytes > 0, "per-shard score blocks flow back to the driver");
    } else {
        assert_eq!(
            snap.sharded_ops, 0,
            "one core runs one shard at a time: the planner stays local"
        );
    }

    // Warm medians, side by side: the same batch on the sharded engine (each
    // shard scans its rows of X in place) and on a plain local engine using
    // the same cores as kernel threads. Reported, not asserted: the ratio
    // belongs to the machine.
    let warm_median_ms = |script: &CompiledScript| {
        let mut ms: Vec<f64> = (0..9)
            .map(|_| {
                let t = std::time::Instant::now();
                let _ = script.execute(&bulk_bindings);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    let local = EngineBuilder::new(FusionMode::Gen).build();
    let local_script = local.compile(&bulk);
    let _warmup = local_script.execute(&bulk_bindings);
    let (sharded_ms, local_ms) = (warm_median_ms(&bulk_script), warm_median_ms(&local_script));
    println!(
        "bulk scorer warm median of 9 on {cores} core(s): sharded (4 shards x 1 thread) \
         {sharded_ms:.1} ms, local {local_ms:.1} ms"
    );
}
