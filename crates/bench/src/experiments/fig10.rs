//! Figure 10: footprint of `sum(f(X/rowSums(X)))` with `f` a sequence of `n`
//! row operations `X ⊙ i`. The paper's panel is about the JVM refusing to
//! JIT large inlined methods; an ahead-of-time-compiled engine has no such
//! cliff (DESIGN.md substitution X4), so what is measured here is the chain's
//! *memory* footprint.
//!
//! The first table reports the multi-intermediate chain under the scheduled
//! executor: tracked peak resident bytes (frees at last use + pooled buffers)
//! against the hold-everything bytes the seed runtime kept, plus buffer-pool
//! hit rates and scheduler parallelism. In `--smoke` mode the Base-mode
//! reduction is a CI regression gate (must stay ≥ 2×).
//!
//! The second table exercises the *out-of-core* path: a chain whose live
//! working set is ~4× the engine's memory budget, forcing the spill tier to
//! evict farthest-next-use anchors and fault them back during the fold. In
//! `--smoke` mode this is a second CI gate: the bounded one-worker run must
//! keep its tracked peak within the budget, actually spill, and finish
//! within 3× of the unbounded run, and the budgeted two-worker run must keep
//! its tracked peak within the budget too (a running task's reservation is
//! charged until it completes, so two workers cannot spend the same
//! headroom). The peaks gated, and printed, are each engine's highest over
//! all its timed reps.

use super::Scale;
use crate::report::Table;
use fusedml_hop::interp::Bindings;
use fusedml_hop::DagBuilder;
use fusedml_linalg::generate;
use fusedml_runtime::{Engine, FusionMode, SchedSnapshot};
use std::time::Instant;

fn footprint_dag(rows: usize, cols: usize, n_ops: usize) -> fusedml_hop::HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, 1.0);
    let rs = b.row_sums(x);
    let mut cur = b.div(x, rs);
    for i in 0..n_ops {
        let c = b.lit(1.0 + (i as f64) * 1e-3);
        cur = b.mult(cur, c);
    }
    let s = b.sum(cur);
    b.build(vec![s])
}

/// One footprint measurement: executes the chain DAG under `mode` and
/// returns `(peak, hold_everything, reduction, freed_early, hit_rate,
/// parallel_ops)` from the scheduler counters.
pub fn measure_footprint(
    mode: FusionMode,
    rows: usize,
    cols: usize,
    n_ops: usize,
) -> (usize, usize, f64, usize, f64, usize) {
    let dag = footprint_dag(rows, cols, n_ops);
    let mut bindings = Bindings::new();
    bindings.insert("X".to_string(), generate::rand_dense(rows, cols, 0.5, 2.0, 1));
    let exec = Engine::new(mode);
    let _ = exec.execute(&dag, &bindings); // cold run compiles + fills pool
    exec.stats().reset();
    let _ = exec.execute(&dag, &bindings); // warm run: steady-state numbers
    let s = exec.stats().scheduler_snapshot();
    (
        s.peak_bytes,
        s.resident_all_bytes,
        s.footprint_reduction(),
        s.bytes_freed_early,
        s.pool_hit_rate(),
        s.parallel_ops,
    )
}

fn mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1e6)
}

/// The scheduler/buffer-pool footprint table (and the smoke-mode CI gate).
fn run_footprint(scale: Scale) {
    let (rows, cols) = scale.pick3((2_000, 256), (10_000, 256), (100_000, 1_000));
    let mut t = Table::new(
        &format!("Figure 10 (runtime footprint): chain on X {rows}x{cols}, warm pool"),
        &[
            "mode",
            "#row ops",
            "peak MB",
            "hold-all MB",
            "reduction",
            "freed MB",
            "pool hit%",
            "par ops",
        ],
    );
    let mut base_reductions: Vec<f64> = Vec::new();
    for n_ops in scale.pick3(vec![8usize], vec![8, 32, 64], vec![8, 32, 64, 128]) {
        for mode in [FusionMode::Base, FusionMode::Gen] {
            let (peak, all, red, freed, hit, par) = measure_footprint(mode, rows, cols, n_ops);
            if mode == FusionMode::Base {
                base_reductions.push(red);
            }
            t.row(vec![
                format!("{mode:?}"),
                n_ops.to_string(),
                mb(peak),
                mb(all),
                format!("{red:.2}x"),
                mb(freed),
                format!("{:.0}%", hit * 100.0),
                par.to_string(),
            ]);
        }
    }
    t.print();
    if scale == Scale::Smoke {
        // CI regression gate: the liveness-aware peak of the
        // multi-intermediate chain must stay ≥ 2× below hold-everything.
        for red in base_reductions {
            assert!(red >= 2.0, "fig10 footprint gate: Base reduction {red:.2}x < 2x");
        }
        println!("fig10 footprint gate: ok (Base reduction >= 2x)");
    }
}

/// A workload whose *minimum possible* working set exceeds any fraction of
/// its size — no execution order can dodge the spill tier. A forced
/// sequential chain `a_{i+1} = exp(a_i)` is consumed in *mirror* order
/// (`sum(a_i ⊙ a_{k-1-i})`): while the first half of the chain is being
/// produced, none of its mirror partners exist yet, so all of it must stay
/// live — k/2 full-size values no scheduler can free early. `exp` keeps the
/// workload compute-bound, which is what makes the ≤ 3× out-of-core
/// slowdown gate meaningful rather than a measure of disk bandwidth.
fn ooc_dag(rows: usize, cols: usize, k: usize) -> fusedml_hop::HopDag {
    let mut b = DagBuilder::new();
    let x = b.read("X", rows, cols, 1.0);
    let neg = b.lit(-1.0);
    let mut anchors = Vec::with_capacity(k);
    let mut cur = x;
    for _ in 0..k {
        // a ← exp(-a) keeps the chain bounded in (0, 1): no overflow and no
        // denormal slowdowns over an arbitrary chain depth.
        let m = b.mult(cur, neg);
        cur = b.exp(m);
        anchors.push(cur);
    }
    let mut total = None;
    for i in 0..k / 2 {
        let m = b.mult(anchors[i], anchors[k - 1 - i]);
        let p = b.sum(m);
        total = Some(match total {
            None => p,
            Some(t) => b.add(t, p),
        });
    }
    b.build(vec![total.expect("k >= 2")])
}

/// Per engine on the out-of-core chain: the median wall time over `reps`
/// warm runs and the scheduler snapshot of its last run, whose
/// `peak_bytes` is the highest peak of any of the `reps` runs (each run
/// resets the counters, so the gate sees every run's peak this way). The
/// engines' runs interleave, each round in the opposite order to the last,
/// so a slow stretch of the host lands on every engine alike.
fn measure_ooc(
    engines: &[&Engine],
    dag: &fusedml_hop::HopDag,
    bindings: &Bindings,
    reps: usize,
) -> Vec<(f64, SchedSnapshot)> {
    for exec in engines {
        let _ = exec.execute(dag, bindings); // cold run compiles + fills pool
    }
    let mut times = vec![Vec::with_capacity(reps); engines.len()];
    let mut peaks = vec![0; engines.len()];
    for rep in 0..reps {
        for k in 0..engines.len() {
            let k = if rep % 2 == 0 { k } else { engines.len() - 1 - k };
            engines[k].stats().reset();
            let t0 = Instant::now();
            let _ = engines[k].execute(dag, bindings);
            times[k].push(t0.elapsed().as_secs_f64());
            peaks[k] = peaks[k].max(engines[k].stats().scheduler_snapshot().peak_bytes);
        }
    }
    engines
        .iter()
        .zip(times)
        .zip(peaks)
        .map(|((exec, mut t), peak_bytes)| {
            t.sort_by(f64::total_cmp);
            (t[t.len() / 2], SchedSnapshot { peak_bytes, ..exec.stats().scheduler_snapshot() })
        })
        .collect()
}

/// The out-of-core panel (and the smoke-mode CI gate): working set ≈ 4× the
/// budget, at one and at two workers.
fn run_out_of_core(scale: Scale) {
    let (rows, cols, k) = scale.pick3((1_000, 256, 28), (4_000, 256, 28), (10_000, 512, 28));
    let val_bytes = 8 * rows * cols;
    // The unavoidable working set is the first half of the chain plus the
    // in-flight pair (~k/2 + 2 values); the budget is a quarter of it. The
    // 4 KiB of headroom covers the scalar slots (fold partials and the
    // literal), which sit below `MIN_SPILL_BYTES` and can never evict.
    let budget = (k / 2 + 2) * val_bytes / 4 + 4096;
    let reps = scale.pick(7, 5);
    let dag = ooc_dag(rows, cols, k);
    let mut bindings = Bindings::new();
    bindings.insert("X".to_string(), generate::rand_dense(rows, cols, 0.0, 0.5, 2));
    let loose = Engine::builder(FusionMode::Base).workers(1).build();
    let tight = Engine::builder(FusionMode::Base).memory_budget(budget).workers(1).build();
    let tight2 = Engine::builder(FusionMode::Base).memory_budget(budget).workers(2).build();
    let [(loose_s, loose_snap), (tight_s, tight_snap), (tight2_s, tight2_snap)]: [_; 3] =
        measure_ooc(&[&loose, &tight, &tight2], &dag, &bindings, reps)
            .try_into()
            .expect("three engines");
    let mut t = Table::new(
        &format!(
            "Figure 10 (out-of-core): mirror-paired chain of {k} on X {rows}x{cols}, budget {} MB",
            mb(budget)
        ),
        &["engine", "peak MB", "spilled MB", "reloaded MB", "faults", "stall ms", "time"],
    );
    for (name, s, secs) in [
        ("unbounded", &loose_snap, loose_s),
        ("budgeted", &tight_snap, tight_s),
        ("budgeted, 2 workers", &tight2_snap, tight2_s),
    ] {
        t.row(vec![
            name.to_string(),
            mb(s.peak_bytes),
            mb(s.spilled_bytes),
            mb(s.reloaded_bytes),
            s.spill_faults.to_string(),
            format!("{:.1}", s.spill_stall_us as f64 / 1e3),
            Table::secs(secs),
        ]);
    }
    t.print();
    if scale == Scale::Smoke {
        assert_eq!(loose_snap.spilled_bytes, 0, "fig10 ooc gate: unbounded run must not spill");
        assert!(tight_snap.spilled_bytes > 0, "fig10 ooc gate: 4x working set must spill");
        for (workers, s) in [(1, &tight_snap), (2, &tight2_snap)] {
            assert!(
                s.peak_bytes <= budget,
                "fig10 ooc gate: peak {} exceeds budget {budget} at {workers} worker(s)",
                s.peak_bytes,
            );
        }
        let ratio = tight_s / loose_s.max(1e-3);
        assert!(
            ratio <= 3.0,
            "fig10 ooc gate: out-of-core slowdown {ratio:.2}x > 3x (tight {tight_s:.4}s vs loose {loose_s:.4}s)"
        );
        println!(
            "fig10 ooc gate: ok (peak <= budget at 1 and 2 workers in every rep, spills > 0, slowdown {ratio:.2}x <= 3x)"
        );
    }
}

/// Runs both tables (and, under `--smoke`, both gates).
pub fn run(scale: Scale) {
    run_footprint(scale);
    run_out_of_core(scale);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the scheduled executor: tracked peak memory on
    /// the multi-intermediate chain drops ≥ 2× versus hold-everything.
    #[test]
    fn footprint_reduction_gate_holds() {
        let (peak, all, red, freed, _hit, _par) = measure_footprint(FusionMode::Base, 500, 128, 12);
        assert!(red >= 2.0, "reduction {red:.2}x (peak {peak}, hold-all {all})");
        assert!(freed > 0, "chain intermediates must free early");
    }

    /// Under Gen the chain fuses, so even hold-everything is small — but the
    /// tracked peak must still never exceed it.
    #[test]
    fn gen_peak_bounded_by_hold_everything() {
        let (peak, all, _red, _freed, _hit, _par) =
            measure_footprint(FusionMode::Gen, 500, 128, 12);
        assert!(peak <= all);
    }

    /// The out-of-core gate conditions hold at test size, at one and at two
    /// workers: a working set 4× the budget spills, stays within the budget,
    /// and reloads everything.
    #[test]
    fn ooc_chain_stays_within_budget() {
        let (rows, cols, k) = (300, 128, 28);
        let budget = (k / 2 + 2) * 8 * rows * cols / 4 + 4096; // scalar-slot headroom
        let dag = ooc_dag(rows, cols, k);
        let mut bindings = Bindings::new();
        bindings.insert("X".to_string(), generate::rand_dense(rows, cols, 0.0, 0.5, 2));
        for workers in [1, 2] {
            let exec =
                Engine::builder(FusionMode::Base).memory_budget(budget).workers(workers).build();
            let (_, snap) = measure_ooc(&[&exec], &dag, &bindings, 1)[0];
            assert!(snap.spilled_bytes > 0, "4x working set must spill ({workers} workers)");
            assert!(
                snap.peak_bytes <= budget,
                "peak {} > budget {budget} ({workers} workers)",
                snap.peak_bytes
            );
            assert_eq!(snap.spilled_bytes, snap.reloaded_bytes, "every anchor faults back");
        }
    }
}
