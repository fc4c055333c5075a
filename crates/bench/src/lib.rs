// Tests and assertions use unwrap/expect freely; the targeted failure-path
// modules (`spill`, the runtime scheduler) re-deny at module level.
#![allow(clippy::disallowed_methods)]
//! # fusedml-bench
//!
//! The benchmark harness reproducing every table and figure of the paper's
//! evaluation (§5). Each experiment is a library function printing the
//! paper-style rows; the `repro` binary dispatches by experiment id
//! (`fig8`…`fig13`, `table3`…`table6`). `fusebench/` (a package of its
//! own) imports the Figure 8 / Figure 12 DAG builders from here and is the
//! harness whose run-to-run spread is known.
//!
//! Data sizes are scaled down from the paper by a documented factor (the
//! harness runs on one machine); the reproduction target is the *shape* of
//! each series — who wins, by roughly what factor, where crossovers fall.
//! See BENCH_NOTES.md (repo root) for the recorded measurements and
//! reproduction instructions (BENCH_NOTES_ARCHIVE.md for the first baseline).

pub mod experiments;
pub mod report;

use fusedml_hop::interp::Bindings;
use fusedml_hop::HopDag;
use fusedml_runtime::{Engine, FusionMode};
use std::time::Instant;

/// All execution modes of the evaluation, in table order.
pub const MODES: [FusionMode; 5] =
    [FusionMode::Base, FusionMode::Fused, FusionMode::Gen, FusionMode::GenFA, FusionMode::GenFNR];

/// One timed run of a DAG under a mode, with the engine's fused-kernel
/// classification counters for a single execution (see
/// [`fusedml_runtime::ExecStats::mono_snapshot`]).
#[derive(Clone, Copy, Debug)]
pub struct TimedStats {
    /// Median wall-clock seconds over the timed repetitions.
    pub secs: f64,
    /// Fused operators executed in one run.
    pub fused_ops: usize,
    /// Fused operators that ran a product chain, mv-chain or row tile.
    pub mono_ops: usize,
    /// Fused operators that ran the tile/band interpreter.
    pub interp_fused_ops: usize,
}

/// Median wall-clock seconds of `reps` executions of a DAG under a mode,
/// plus how the fused operators executed: the per-run
/// `fused`/`mono`/`interpreted` counters from the engine's
/// [`fusedml_runtime::ExecStats`]. The DAG is compiled once
/// ([`Engine::compile`]); the warm-up execution fills the buffer pool, and
/// the timed repetitions run the compiled script with zero re-optimization.
pub fn time_dag_stats(
    mode: FusionMode,
    dag: &HopDag,
    bindings: &Bindings,
    reps: usize,
) -> TimedStats {
    let engine = Engine::new(mode);
    let script = engine.compile(dag);
    let _ = script.execute(bindings); // warm-up: fills the pool
    engine.stats().reset();
    let _ = script.execute(bindings);
    let (fused_ops, _, _) = engine.stats().snapshot();
    let (mono_ops, interp_fused_ops) = engine.stats().mono_snapshot();
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let _ = script.execute(bindings);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    TimedStats { secs: times[times.len() / 2], fused_ops, mono_ops, interp_fused_ops }
}

/// Times a closure once.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Short mode labels used in the printed tables.
pub fn mode_label(m: FusionMode) -> &'static str {
    match m {
        FusionMode::Base => "Base",
        FusionMode::Fused => "Fused",
        FusionMode::Gen => "Gen",
        FusionMode::GenFA => "Gen-FA",
        FusionMode::GenFNR => "Gen-FNR",
    }
}
