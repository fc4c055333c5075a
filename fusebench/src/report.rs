//! Turns a run into its result line, its summary file and (traced) its
//! Chrome trace; and the `--quick` self-check.

use crate::json::Json;
use crate::layers;
use crate::run::{self, PartSummary, Ready};
use crate::spec;
use crate::trace::{self, Tracer};
use crate::workloads::{self, Phase, Scale, Timed};
use crate::RunArgs;
use std::process::ExitCode;
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
pub const RUN_SECONDS: u32 = 12;

/// Everything one run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<(&'static str, f64)>,
    pub counts: Vec<(String, u64)>,
    pub checksum: u64,
    pub summary: Json,
    pub chrome_trace: Option<Json>,
}

fn metrics_json(metrics: &[(&'static str, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value)| {
                let unit = spec::unit_of(name).unwrap_or("");
                (
                    name.to_string(),
                    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

fn parts_json(parts: &[PartSummary]) -> Json {
    Json::Arr(
        parts
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("name", Json::str(p.name.as_str())),
                    ("template", p.template.map_or(Json::Null, |t| Json::str(format!("{t:?}")))),
                    ("samples", Json::Num(p.count as f64)),
                    ("min_ms", Json::Num(p.min)),
                    ("p10_ms", Json::Num(p.p10)),
                    ("p25_ms", Json::Num(p.p25)),
                    ("p50_ms", Json::Num(p.p50)),
                    ("p90_ms", Json::Num(p.p90)),
                    ("p99_ms", Json::Num(p.p99)),
                ])
            })
            .collect(),
    )
}

/// The distribution of the timed units (untraced ones in a traced run).
fn unit_quantiles(t: &Timed) -> Json {
    let s = crate::stats::sorted(&run::untraced_units(t));
    let q = |p: f64| Json::Num(crate::stats::percentile(&s, p));
    Json::obj(vec![
        ("samples", Json::Num(s.len() as f64)),
        ("min", q(0.0)),
        ("p10", q(0.1)),
        ("p25", q(0.25)),
        ("p50", q(0.5)),
        ("p75", q(0.75)),
        ("p90", q(0.9)),
        ("p99", q(0.99)),
    ])
}

fn machine_json() -> Json {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default().trim().to_string();
    Json::obj(vec![
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("simd", Json::str(format!("{:?}", fusedml_linalg::simd::level()))),
        ("l2_private", Json::str(read("/sys/devices/system/cpu/cpu0/cache/index2/size"))),
        ("l3_shared_with_host", Json::str(read("/sys/devices/system/cpu/cpu0/cache/index3/size"))),
        ("kernel", Json::str(read("/proc/sys/kernel/osrelease"))),
        ("kernel_threads_per_client", Json::Num(fusedml_linalg::par::num_threads() as f64)),
    ])
}

/// How a run is traced: not at all, with the layer suite run now, or with
/// suite rows measured earlier in this process (`--quick` runs the suite
/// once for all six workloads).
#[derive(Clone, Copy)]
pub enum Trace<'a> {
    Off,
    On,
    OnWithSuite(&'a [(&'static str, f64)]),
}

/// Sets up, measures and summarises one workload.
pub fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: Trace,
    scale: Scale,
    phase: Phase,
    process_start: Instant,
) -> Option<Outcome> {
    let traced = !matches!(trace, Trace::Off);
    // The traced run prints no `setup_s`, so one set-up pass is enough.
    let passes = if traced { 1 } else { run::SETUP_PASSES };
    let (Ready { mut workload, setup_passes_s }, mut errors) =
        run::set_up(name, seed, scale, passes, process_start)?;
    // What the host does to the timed phase (and, traced, to the suite).
    let host = layers::HostProbe::open();

    // Exact counts are taken here, after the same deterministic set-up and
    // warm-up work in every run: the timed phase may stop at its deadline,
    // so what it adds to a counter is not a count that repeats.
    let counts = workload.counts();
    let timed: Timed = workload.timed(&phase, traced);
    // The peak is read before an oracle that would set it (`algos_e2e`).
    let rss_peak_mb = run::rss_peak_mb();
    // Set-up findings are in `errors` already, pass by pass.
    let found_at_setup = workload.errors().len();
    workload.check_after_timing();
    errors.extend(workload.errors()[found_at_setup..].iter().cloned());

    let parts = run::summarize_parts(workload.as_ref(), &timed);
    let end_to_end = run::end_to_end(&setup_passes_s, &parts, rss_peak_mb);
    let checksum = workload.input_checksum();

    let (mut layer_rows, mut chrome_trace, mut span_self) = (Vec::new(), None, Vec::new());
    if traced {
        let part_names: Vec<String> = workload.parts().iter().map(|p| p.name.clone()).collect();
        layer_rows = layers::of_workload(workload.as_ref(), &timed);
        // The suite builds its own states; free this workload's first.
        drop(workload);
        let mut suite_tracer = Tracer::on(phase.epoch, 100);
        match trace {
            Trace::OnWithSuite(rows) => layer_rows.extend_from_slice(rows),
            _ => layer_rows.extend(layers::suite(seed, scale, &mut suite_tracer)),
        }
        let tracers: Vec<&Tracer> = timed.tracers.iter().chain([&suite_tracer]).collect();
        chrome_trace = Some(trace::chrome_trace(&tracers, &part_names));
        span_self = trace::self_time_ms(&tracers);
    }
    // Which state of the host the run saw (README, "What the host does").
    let host = host.close();
    if traced {
        layer_rows.extend(host.rows());
    }
    let per_layer = layers::in_spec_order(layer_rows);

    let correct = errors.is_empty();
    let summary = Json::obj(vec![
        ("benchmark", Json::str("fusebench")),
        ("workload", Json::str(name)),
        ("seed", Json::str(seed.to_string())),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("scale", Json::str(format!("{scale:?}"))),
        ("machine", machine_json()),
        (
            "host",
            Json::obj(vec![
                ("spin_open_us", Json::Num(host.spin_open_us)),
                ("spin_close_us", Json::Num(host.spin_close_us)),
                ("steal_share", Json::Num(host.steal_share)),
            ]),
        ),
        (
            "phase",
            Json::obj(vec![
                ("rounds_planned", Json::Num(f64::from(phase.rounds))),
                ("units_measured", Json::Num(timed.unit_ms.len() as f64)),
                ("units_failed", Json::Num(timed.failed_units as f64)),
                ("wall_s", Json::Num(timed.wall_s)),
                ("stopped_at_deadline", Json::Bool(timed.truncated)),
            ]),
        ),
        ("setup_passes_s", Json::Arr(setup_passes_s.iter().map(|&s| Json::Num(s)).collect())),
        ("unit_ms", unit_quantiles(&timed)),
        ("input_checksum", Json::str(format!("{checksum:016x}"))),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(timed.attempted as f64)),
        ("failed", Json::Num(timed.failed as f64)),
        ("oracle_findings", Json::Arr(errors.iter().map(|e| Json::str(e.as_str())).collect())),
        ("end_to_end", metrics_json(&end_to_end)),
        ("per_layer", metrics_json(&per_layer)),
        ("parts", parts_json(&parts)),
        (
            "exact_counts",
            Json::Obj(counts.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect()),
        ),
        (
            "span_self_ms",
            Json::Obj(span_self.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))).collect()),
        ),
        ("claim", Json::Null),
    ]);
    Some(Outcome {
        correct,
        attempted: timed.attempted.max(1),
        failed: timed.failed,
        end_to_end,
        per_layer,
        counts,
        checksum,
        summary,
        chrome_trace,
    })
}

/// The one-line result the driver reads.
pub fn result_line(o: &Outcome, traced: bool) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", metrics_json(if traced { &o.per_layer } else { &o.end_to_end })),
    ])
    .compact()
}

/// `fusebench --workload …`: one run, one result line on stdout.
pub fn single(args: &RunArgs, process_start: Instant) -> ExitCode {
    let phase = run::phase_for(&args.workload, args.seconds, process_start);
    let Some(outcome) = measure(
        &args.workload,
        args.seed,
        args.seconds,
        if args.trace { Trace::On } else { Trace::Off },
        Scale::Full,
        phase,
        process_start,
    ) else {
        eprintln!("unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    // The summary and the trace are by-products: failing to write them is
    // reported, but the measurement still stands.
    let stem =
        format!("{}-seed{}{}", args.workload, args.seed, if args.trace { "-traced" } else { "" });
    let write = |suffix: &str, doc: &Json| {
        let path = args.out_dir.join(format!("{stem}.{suffix}.json"));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, doc.pretty()));
        match written {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    };
    write("summary", &outcome.summary);
    if let Some(chrome) = &outcome.chrome_trace {
        write("trace", chrome);
    }
    for finding in outcome.summary.get("oracle_findings").and_then(Json::as_arr).unwrap_or(&[]) {
        eprintln!("oracle: {}", finding.as_str().unwrap_or(""));
    }
    println!("{}", result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}

/// What `--quick` found wrong with one workload (empty ⇒ fine). `suite` is
/// the layer suite's rows at the quick scale.
pub fn quick_findings(name: &str, seed: u64, suite: &[(&'static str, f64)]) -> Vec<String> {
    let phase = Phase { rounds: 10, min_rounds: 10, deadline_s: 60.0, epoch: Instant::now() };
    let mut findings = Vec::new();
    let mut previous: Option<(Vec<(String, u64)>, u64)> = None;
    // Two in-process repetitions; the second is traced, so the per-layer
    // vocabulary is checked with this workload's own rows in it.
    for traced in [false, true] {
        let trace = if traced { Trace::OnWithSuite(suite) } else { Trace::Off };
        let Some(o) = measure(name, seed, 0.0, trace, Scale::Quick, phase, Instant::now()) else {
            return vec![format!("{name}: unknown workload")];
        };
        if !o.correct {
            findings.push(format!("{name}: an oracle check failed"));
        }
        if o.failed > 0 {
            findings.push(format!("{name}: {} of {} operations failed", o.failed, o.attempted));
        }
        let expect: Vec<&str> = if traced {
            spec::PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            spec::END_TO_END.iter().map(|m| m.0).collect()
        };
        let got = if traced { &o.per_layer } else { &o.end_to_end };
        for want in expect {
            match got.iter().find(|(n, _)| *n == want) {
                None => findings.push(format!("{name}: metric {want} is missing")),
                Some((_, v)) if !v.is_finite() => {
                    findings.push(format!("{name}: metric {want} is not a number"));
                }
                Some(_) => {}
            }
        }
        if let Some((counts, checksum)) = &previous {
            if *counts != o.counts {
                findings.push(format!("{name}: exact counts differ: {counts:?} vs {:?}", o.counts));
            }
            if *checksum != o.checksum {
                findings.push(format!("{name}: input checksums differ between repetitions"));
            }
        }
        previous = Some((o.counts, o.checksum));
    }
    findings
}

/// `fusebench --quick`: all six workloads at the quick scale, 10 rounds
/// each, twice; fails on a missing metric, a failed oracle check, a failed
/// operation or an exact count that differs between the two repetitions.
pub fn quick(start: Instant) -> ExitCode {
    let mut bad = 0;
    let suite = layers::suite(1, Scale::Quick, &mut Tracer::off());
    for name in workloads::NAMES {
        let findings = quick_findings(name, 1, &suite);
        println!("{name}: {}", if findings.is_empty() { "ok" } else { "FAILED" });
        findings.iter().for_each(|f| println!("  {f}"));
        bad += findings.len();
    }
    println!("quick: {bad} finding(s) in {:.1} s", start.elapsed().as_secs_f64());
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_run(name: &str, seed: u64) -> Outcome {
        let phase = Phase { rounds: 3, min_rounds: 3, deadline_s: 60.0, epoch: Instant::now() };
        measure(name, seed, 0.0, Trace::Off, Scale::Quick, phase, Instant::now())
            .unwrap_or_else(|| panic!("{name} is a workload"))
    }

    /// The same seed gives the same inputs and the same exact counts;
    /// another seed gives other inputs, and the run is still correct.
    #[test]
    fn seeds_decide_the_inputs_and_nothing_else() {
        for name in workloads::NAMES {
            let (a, b, c) = (quick_run(name, 7), quick_run(name, 7), quick_run(name, 8));
            assert_eq!(a.checksum, b.checksum, "{name}");
            assert_eq!(a.counts, b.counts, "{name}");
            assert_ne!(a.checksum, c.checksum, "{name}");
            assert_eq!(a.counts, c.counts, "{name}: work must not move with the seed");
            for o in [&a, &b, &c] {
                assert!(o.correct && o.failed == 0, "{name}: {}", o.summary.pretty());
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = quick_run("ops_dense", 1);
        let line = result_line(&o, false);
        let doc = Json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let keys: Vec<&str> = doc.as_obj().unwrap_or(&[]).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, spec::END_TO_END.map(|m| m.0));
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
            assert_eq!(m.get("unit").and_then(Json::as_str), spec::unit_of(name));
        }
        assert!(o.summary.pretty().trim_end().ends_with("\"claim\": null\n}"));
    }

    /// `--quick` on every workload: every named metric present, every
    /// oracle check passing, every exact count equal between repetitions.
    #[test]
    fn quick_mode_finds_nothing() {
        let suite = layers::suite(1, Scale::Quick, &mut Tracer::off());
        for name in workloads::NAMES {
            assert_eq!(quick_findings(name, 1, &suite), Vec::<String>::new());
        }
    }
}
