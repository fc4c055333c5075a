//! The six workloads. Each is set up from `--seed` alone, checks every one
//! of its units against an independent oracle during set-up, and then
//! executes *rounds*: one round runs every part (panel / algorithm / DAG)
//! of the workload once, round-robin, so a noisy burst on the host lands on
//! all parts alike instead of on whichever part happened to be in its
//! timing window.

pub mod algos;
pub mod compile;
pub mod ops;
pub mod serve;
pub mod shard;

use crate::panel::{Panel, PanelSpec, Template};
use crate::trace::Tracer;
use fusedml_runtime::Engine;

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 6] =
    ["ops_dense", "ops_sparse", "algos_e2e", "compile_cold", "serve_small", "shard_scan"];

/// Input sizes: `Full` is what the benchmark measures; `Quick` is the same
/// code on inputs ~40× smaller, for `--quick` and the unit tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    pub fn pick(self, full: usize, quick: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// One separately timed part of a round.
#[derive(Clone, Debug)]
pub struct Part {
    pub name: String,
    /// The fused-operator template the part exercises, when it is a panel.
    pub template: Option<Template>,
}

/// What one round did.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundOutcome {
    pub attempted: u32,
    pub failed: u32,
}

pub trait Workload {
    fn parts(&self) -> &[Part];

    /// Executes every part once on the calling thread, writing each part's
    /// milliseconds into `part_ms` (same order as [`Workload::parts`]).
    fn round(&mut self, tr: &mut Tracer, unit: u32, part_ms: &mut [f64]) -> RoundOutcome;

    /// An oracle too large to run before `rss_peak_mb` is read runs here,
    /// after the timed phase, and adds what it finds to
    /// [`Workload::errors`]. Only `algos_e2e` has one.
    fn check_after_timing(&mut self) {}

    /// What the oracles disagreed with (empty ⇒ correct).
    fn errors(&self) -> &[String];

    /// Checksum of every generated input.
    fn input_checksum(&self) -> u64;

    /// Counts that must repeat exactly for the same seed and round count.
    fn counts(&self) -> Vec<(String, u64)>;

    /// The engine whose pool / scheduler counters describe this workload,
    /// if it executes anything.
    fn engine(&self) -> Option<&Engine>;

    /// Runs the timed phase. The default is a single closed-loop client
    /// calling [`Workload::round`]; `serve_small` overrides it with its
    /// client threads. With `traced`, even units record spans and odd units
    /// do not, so one run yields both sides of `trace.overhead_share`.
    fn timed(&mut self, phase: &Phase, traced: bool) -> Timed {
        crate::run::timed_rounds(self, phase, traced)
    }
}

/// How long a timed phase runs: a fixed number of rounds, so that two
/// commits do identical work, and a deadline (`--seconds`) that only bites
/// when the host is slower than it was when the round counts were chosen:
/// the phase then stops early, but never before `min_rounds`. Medians do
/// not care how many rounds fed them; the driver's time cap does.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub rounds: u32,
    pub min_rounds: u32,
    pub deadline_s: f64,
    /// Zero of every span timestamp of the run.
    pub epoch: std::time::Instant,
}

/// The samples of one timed phase.
pub struct Timed {
    /// Milliseconds per unit, in execution order.
    pub unit_ms: Vec<f64>,
    /// Whether the unit at the same index recorded spans.
    pub unit_traced: Vec<bool>,
    /// Milliseconds per part, `part_ms[part][sample]`.
    pub part_ms: Vec<Vec<f64>>,
    /// Whether the part sample at the same index recorded spans.
    pub part_traced: Vec<bool>,
    pub wall_s: f64,
    /// Calls made through `try_execute` / `try_compile`, and how many of
    /// them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Units with at least one failed call.
    pub failed_units: u64,
    /// The phase hit its deadline before the fixed unit count.
    pub truncated: bool,
    pub tracers: Vec<Tracer>,
}

/// A round-robin set of panels on one engine — `ops_dense`, `ops_sparse`
/// and `shard_scan` are all this.
pub struct PanelSet {
    pub engine: Engine,
    pub panels: Vec<Panel>,
    parts: Vec<Part>,
    errors: Vec<String>,
    checksum: u64,
}

/// Whether set-up compares with the oracle. Only the traced run's layer
/// suite skips it: its numbers are not gated, and the workload whose panels
/// it borrows checks them in its own runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    Oracle,
    Skip,
}

impl PanelSet {
    /// Compiles every spec on `engine` and, unless told to skip it, checks
    /// each against the oracle.
    pub fn build<'a>(
        engine: Engine,
        specs: impl IntoIterator<Item = &'a PanelSpec>,
        check: Check,
    ) -> PanelSet {
        let mut hash = crate::gen::Fnv::default();
        let mut panels = Vec::new();
        let mut errors = Vec::new();
        for spec in specs {
            spec.inputs.iter().for_each(|(_, m)| hash.matrix(m));
            match Panel::prepare(&engine, spec, check) {
                Ok(p) => panels.push(p),
                Err(e) => errors.push(e),
            }
        }
        let parts = panels
            .iter()
            .map(|p| Part { name: p.name.to_string(), template: Some(p.template) })
            .collect();
        PanelSet { engine, panels, parts, errors, checksum: hash.0 }
    }

    /// Records a set-up finding that makes the run incorrect.
    pub fn push_error(&mut self, e: String) {
        self.errors.push(e);
    }
}

impl Workload for PanelSet {
    fn parts(&self) -> &[Part] {
        &self.parts
    }

    fn round(&mut self, tr: &mut Tracer, unit: u32, part_ms: &mut [f64]) -> RoundOutcome {
        let mut out = RoundOutcome::default();
        for (i, p) in self.panels.iter().enumerate() {
            let (ms, ok) = p.execute(tr, i as u32, unit);
            part_ms[i] = ms;
            out.attempted += 1;
            out.failed += u32::from(!ok);
        }
        out
    }

    fn errors(&self) -> &[String] {
        &self.errors
    }

    fn input_checksum(&self) -> u64 {
        self.checksum
    }

    fn counts(&self) -> Vec<(String, u64)> {
        let (fused, handcoded, basic) = self.engine.stats().snapshot();
        let (mono, interpreted) = self.engine.stats().mono_snapshot();
        let sched = self.engine.stats().scheduler_snapshot();
        let opt = self.engine.optimizer().stats.snapshot();
        vec![
            ("fused_ops".into(), fused as u64),
            ("handcoded_ops".into(), handcoded as u64),
            ("basic_ops".into(), basic as u64),
            ("mono_ops".into(), mono as u64),
            ("interp_fused_ops".into(), interpreted as u64),
            ("sharded_ops".into(), sched.sharded_ops as u64),
            ("operators_compiled".into(), opt.operators_compiled as u64),
            ("plans_evaluated".into(), opt.plans_evaluated),
            ("recompiles".into(), self.engine.stats().plan_recompiles() as u64),
        ]
    }

    fn engine(&self) -> Option<&Engine> {
        Some(&self.engine)
    }
}

/// Sets up a workload by name.
pub fn setup(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ops_dense" => Box::new(ops::dense(seed, scale)),
        "ops_sparse" => Box::new(ops::sparse(seed, scale)),
        "algos_e2e" => Box::new(algos::AlgosE2e::setup(seed, scale)),
        "compile_cold" => Box::new(compile::CompileCold::setup(seed, scale)),
        "serve_small" => Box::new(serve::ServeSmall::setup(seed, scale)),
        "shard_scan" => Box::new(shard::setup(seed, scale)),
        _ => return None,
    })
}
