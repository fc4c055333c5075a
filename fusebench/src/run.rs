//! One benchmark run: the set-up pass, the timed phase, and the end-to-end
//! metrics computed from them.

use crate::panel::Template;
use crate::stats::{median, percentile, sorted};
use crate::trace::{Tracer, NONE};
use crate::workloads::{self, Phase, RoundOutcome, Scale, Timed, Workload};
use std::time::Instant;

/// Set-up passes per run; `setup_s` is their median.
pub const SETUP_PASSES: usize = 3;
/// Warm-up rounds that close every set-up pass.
pub const WARMUP_ROUNDS: u32 = 5;

/// Timed rounds per second of `--seconds`, chosen on the 2-vCPU container
/// so that the timed phase lasts about 0.85 × `--seconds` when the host is
/// calm, and the floor each workload keeps however short the run is asked
/// to be. `serve_small` rounds are 1600 requests.
pub fn pace(workload: &str) -> (f64, u32) {
    match workload {
        "ops_dense" => (5.0, 60),
        "ops_sparse" => (28.0, 60),
        "algos_e2e" => (4.5, 35),
        "compile_cold" => (10.5, 60),
        "serve_small" => (4.8, 4),
        "shard_scan" => (8.5, 60),
        _ => (1.0, 1),
    }
}

/// The timed phase for `--seconds` of a workload.
pub fn phase_for(workload: &str, seconds: f64, epoch: Instant) -> Phase {
    let (rounds_per_s, min_rounds) = pace(workload);
    Phase {
        rounds: ((seconds * rounds_per_s).round() as u32).max(min_rounds),
        min_rounds,
        deadline_s: seconds,
        epoch,
    }
}

/// The default single-client timed phase: `phase.rounds` rounds back to
/// back. When `traced`, even rounds record spans and odd rounds do not.
pub fn timed_rounds<W: Workload + ?Sized>(w: &mut W, phase: &Phase, traced: bool) -> Timed {
    let n_parts = w.parts().len();
    let cap = phase.rounds as usize;
    let mut tracer = if traced { Tracer::on(phase.epoch, 0) } else { Tracer::off() };
    let mut t = Timed {
        unit_ms: Vec::with_capacity(cap),
        unit_traced: Vec::with_capacity(cap),
        part_ms: vec![Vec::with_capacity(cap); n_parts],
        part_traced: Vec::new(),
        wall_s: 0.0,
        attempted: 0,
        failed: 0,
        failed_units: 0,
        truncated: false,
        tracers: Vec::new(),
    };
    let mut scratch = vec![0.0; n_parts];
    let start = Instant::now();
    for unit in 0..phase.rounds {
        if unit >= phase.min_rounds && start.elapsed().as_secs_f64() > phase.deadline_s {
            t.truncated = true;
            break;
        }
        tracer.set_on(traced && unit % 2 == 0);
        let t0 = Instant::now();
        tracer.enter("fusebench.round", NONE, unit);
        let RoundOutcome { attempted, failed } = w.round(&mut tracer, unit, &mut scratch);
        tracer.exit();
        t.unit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        t.unit_traced.push(tracer.is_on());
        for (samples, &ms) in t.part_ms.iter_mut().zip(&scratch) {
            samples.push(ms);
        }
        t.attempted += u64::from(attempted);
        t.failed += u64::from(failed);
        t.failed_units += u64::from(failed > 0);
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t.part_traced = t.unit_traced.clone(); // one sample of every part per unit
    t.tracers.push(tracer);
    t
}

/// A workload set up and warmed.
pub struct Ready {
    pub workload: Box<dyn Workload>,
    /// Seconds each set-up pass took; the first is measured from process
    /// start.
    pub setup_passes_s: Vec<f64>,
}

/// One set-up pass: generate the inputs from the seed, build the engine,
/// compile, check every unit against its oracle, run the warm-up rounds.
/// The same deterministic work every time.
fn setup_pass(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    let mut workload = workloads::setup(name, seed, scale)?;
    let mut scratch = vec![0.0; workload.parts().len()];
    for unit in 0..WARMUP_ROUNDS {
        workload.round(&mut Tracer::off(), unit, &mut scratch);
    }
    Some(workload)
}

/// Runs the set-up passes (each on fresh state; the previous pass is
/// dropped first so its memory is reused, not added) and keeps the last.
/// An oracle finding of any pass stays with the run.
pub fn set_up(
    name: &str,
    seed: u64,
    scale: Scale,
    passes: usize,
    process_start: Instant,
) -> Option<(Ready, Vec<String>)> {
    let mut kept = None;
    let mut setup_passes_s = Vec::new();
    let mut errors = Vec::new();
    for pass in 0..passes {
        drop(kept.take());
        let t0 = if pass == 0 { process_start } else { Instant::now() };
        let workload = setup_pass(name, seed, scale)?;
        setup_passes_s.push(t0.elapsed().as_secs_f64());
        errors.extend(workload.errors().iter().map(|e| format!("pass {pass}: {e}")));
        kept = Some(workload);
    }
    Some((Ready { workload: kept?, setup_passes_s }, errors))
}

/// p50 / p90 / p99 and sample count of one part.
#[derive(Clone, Debug)]
pub struct PartSummary {
    pub name: String,
    pub template: Option<Template>,
    pub count: usize,
    pub min: f64,
    pub p10: f64,
    pub p25: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

pub fn summarize_parts(w: &dyn Workload, t: &Timed) -> Vec<PartSummary> {
    w.parts()
        .iter()
        .zip(&t.part_ms)
        .map(|(part, samples)| {
            // In a traced run only the untraced units count.
            let plain: Vec<f64> = samples
                .iter()
                .zip(&t.part_traced)
                .filter(|(_, &traced)| !traced)
                .map(|(&ms, _)| ms)
                .collect();
            let s = sorted(&plain);
            PartSummary {
                name: part.name.clone(),
                template: part.template,
                count: s.len(),
                min: percentile(&s, 0.0),
                p10: percentile(&s, 0.1),
                p25: percentile(&s, 0.25),
                p50: percentile(&s, 0.5),
                p90: percentile(&s, 0.9),
                p99: percentile(&s, 0.99),
            }
        })
        .collect()
}

/// Units that recorded no spans (all of them in an untraced run).
pub fn untraced_units(t: &Timed) -> Vec<f64> {
    t.unit_ms.iter().zip(&t.unit_traced).filter(|(_, &tr)| !tr).map(|(&ms, _)| ms).collect()
}

/// `VmHWM` of this process so far, in MB (10⁶ bytes).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// The end-to-end metrics, in `BENCHMARK.json` order. `exec_ms_min` is the
/// undisturbed unit: every part's fastest sample of the phase, added up
/// (README, "End-to-end metrics", for why not the median).
pub fn end_to_end(
    setup_passes_s: &[f64],
    parts: &[PartSummary],
    rss_peak_mb: f64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", median(setup_passes_s)),
        ("exec_ms_min", parts.iter().map(|p| p.min).sum()),
        ("rss_peak_mb", rss_peak_mb),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `exec_ms_min` adds up every part's fastest untraced sample; the
    /// fastest whole unit (here 9 ms) is never below it.
    #[test]
    fn exec_ms_min_is_the_sum_of_the_parts_minima() {
        let part = |name: &str| workloads::Part { name: name.to_string(), template: None };
        struct Two(Vec<workloads::Part>);
        impl Workload for Two {
            fn parts(&self) -> &[workloads::Part] {
                &self.0
            }
            fn round(&mut self, _: &mut Tracer, _: u32, _: &mut [f64]) -> RoundOutcome {
                RoundOutcome::default()
            }
            fn errors(&self) -> &[String] {
                &[]
            }
            fn input_checksum(&self) -> u64 {
                0
            }
            fn counts(&self) -> Vec<(String, u64)> {
                Vec::new()
            }
            fn engine(&self) -> Option<&fusedml_runtime::Engine> {
                None
            }
        }
        let timed = Timed {
            unit_ms: vec![9.0, 9.0, 1.0],
            unit_traced: vec![false, false, true],
            part_ms: vec![vec![3.0, 5.0, 0.5], vec![6.0, 4.0, 0.5]],
            part_traced: vec![false, false, true],
            wall_s: 1.0,
            attempted: 6,
            failed: 0,
            failed_units: 0,
            truncated: false,
            tracers: Vec::new(),
        };
        let parts = summarize_parts(&Two(vec![part("a"), part("b")]), &timed);
        let metrics = end_to_end(&[3.0, 2.5, 2.0], &parts, 10.0);
        assert_eq!(metrics, vec![("setup_s", 2.5), ("exec_ms_min", 7.0), ("rss_peak_mb", 10.0)]);
    }
}
