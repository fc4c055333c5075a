//! Sets of runs: `fusebench runs` measures every workload `--runs` times
//! (each run a fresh process with its own seed) into one set file;
//! `fusebench spread` measures two such sets of the same binary,
//! alternating run by run, and reports how far they disagree — the evidence
//! behind the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::spec;
use crate::stats::{iqr_share, quartiles};
use crate::workloads;
use std::path::Path;
use std::process::{Command, ExitCode};

/// Runs one workload in a child process and returns its record: the result
/// line's fields plus workload, seed and the exact counts of its summary.
fn run_child(workload: &str, seed: u64, seconds: f64, out_dir: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0", "--out"])
        .arg(out_dir)
        .output()
        .map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let result = Json::parse(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    let summary =
        std::fs::read_to_string(out_dir.join(format!("{workload}-seed{seed}.summary.json")))
            .ok()
            .and_then(|text| Json::parse(&text).ok());
    let counts =
        summary.as_ref().and_then(|s| s.get("exact_counts")).cloned().unwrap_or(Json::Null);
    let mut record = vec![
        ("workload".to_string(), Json::str(workload)),
        // A string: seeds are any u64, and a JSON number holds only 53 bits.
        ("seed".to_string(), Json::str(seed.to_string())),
    ];
    record.extend(result.as_obj().unwrap_or(&[]).iter().cloned());
    record.push(("exact_counts".to_string(), counts));
    Ok(Json::Obj(record))
}

fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn quartile_json(v: &[f64]) -> Json {
    match quartiles(v) {
        Some((q1, q2, q3)) => Json::obj(vec![
            ("q1", Json::Num(q1)),
            ("median", Json::Num(q2)),
            ("q3", Json::Num(q3)),
            ("iqr_share", Json::Num(iqr_share(v).unwrap_or(f64::NAN))),
        ]),
        None => Json::Null,
    }
}

/// One row of the spread table per workload × end-to-end metric: both
/// sets' quartiles, how much worse the second median is than the first (as
/// the driver judges it), and whether the recorded bound covers both.
fn spread_rows(a: &[Json], b: &[Json]) -> (Vec<Json>, bool, bool) {
    let mut rows = Vec::new();
    let (mut all_within, mut twice) = (true, true);
    for workload in workloads::NAMES {
        for (metric, unit, better, bound) in spec::END_TO_END {
            let (va, vb) = (values(a, workload, metric), values(b, workload, metric));
            let (Some((_, ma, _)), Some((_, mb, _))) = (quartiles(&va), quartiles(&vb)) else {
                continue;
            };
            let worse = if better == "lower" { (mb - ma) / ma } else { (ma - mb) / ma };
            let spread = iqr_share(&va).unwrap_or(f64::NAN).max(iqr_share(&vb).unwrap_or(f64::NAN));
            let set_diff = ((mb - ma) / ma).abs();
            // The driver's rule: no second median worse than the first by
            // more than the bound, and every spread within the bound —
            // except `setup_s`'s, which the driver does not gate (the row
            // says so). ISSUE 13's rule, the bound at least twice the
            // set-to-set difference, has a column of its own.
            let spread_gated = metric != "setup_s";
            let within = worse <= bound && (!spread_gated || spread <= bound);
            twice &= 2.0 * set_diff <= bound;
            all_within &= within;
            rows.push(Json::obj(vec![
                ("workload", Json::str(workload)),
                ("metric", Json::str(metric)),
                ("unit", Json::str(unit)),
                ("bound", Json::Num(bound)),
                ("a", quartile_json(&va)),
                ("b", quartile_json(&vb)),
                ("b_worse_than_a_share", Json::Num(worse)),
                ("set_diff_share", Json::Num(set_diff)),
                ("bound_at_least_twice_set_diff", Json::Bool(2.0 * set_diff <= bound)),
                ("widest_iqr_share", Json::Num(spread)),
                ("spread_gated", Json::Bool(spread_gated)),
                ("spread_below_third_of_bound", Json::Bool(spread <= bound / 3.0)),
                ("within_bound", Json::Bool(within)),
            ]));
        }
    }
    (rows, all_within, twice)
}

/// Whether every run of a workload reports the same exact counts.
fn counts_identical(runs: &[Json]) -> bool {
    workloads::NAMES.iter().all(|w| {
        let mut counts = runs
            .iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w))
            .map(|r| r.get("exact_counts"));
        let first = counts.next();
        counts.all(|c| Some(c) == first)
    })
}

pub fn main(spread: bool, runs: usize, seconds: f64, first_seed: u64, out: &str) -> ExitCode {
    let out_path = Path::new(out);
    // The children's summaries go beside the set file, not beside the cwd.
    let scratch = out_path.parent().unwrap_or(Path::new("")).join("out/sets");
    let scratch = scratch.as_path();
    let n_sets = if spread { 2 } else { 1 };
    let mut sets: Vec<Vec<Json>> = vec![Vec::new(); n_sets];
    let mut trouble = Vec::new();
    for i in 0..runs {
        for workload in workloads::NAMES {
            // Alternate: run i of set a, then run i of set b, same seed.
            for (s, set) in sets.iter_mut().enumerate() {
                let seed = first_seed.wrapping_add(i as u64);
                eprintln!("set {} run {}/{} {workload} seed {seed}", ["a", "b"][s], i + 1, runs);
                match run_child(workload, seed, seconds, scratch) {
                    Ok(record) => set.push(record),
                    Err(e) => trouble.push(e),
                }
            }
        }
    }
    let all: Vec<Json> = sets.iter().flatten().cloned().collect();
    let sound = all.iter().all(|r| {
        r.get("correct").and_then(Json::as_bool) == Some(true)
            && r.get("failed").and_then(Json::as_f64) == Some(0.0)
    });
    let mut doc = vec![
        ("benchmark", Json::str("fusebench")),
        ("kind", Json::str(if spread { "spread" } else { "set" })),
        ("seconds", Json::Num(seconds)),
        ("runs_per_workload", Json::Num(runs as f64)),
        ("first_seed", Json::str(first_seed.to_string())),
        ("every_run_correct_and_unfailed", Json::Bool(sound)),
        ("exact_counts_identical", Json::Bool(counts_identical(&all))),
        ("trouble", Json::Arr(trouble.iter().map(|t| Json::str(t.as_str())).collect())),
    ];
    let mut ok = sound && trouble.is_empty();
    if spread {
        let (rows, within, twice) = spread_rows(&sets[0], &sets[1]);
        ok &= within;
        doc.push(("every_row_within_bound", Json::Bool(within)));
        doc.push(("every_bound_at_least_twice_set_diff", Json::Bool(twice)));
        doc.push(("rows", Json::Arr(rows)));
        doc.push(("a", Json::Arr(sets[0].clone())));
        doc.push(("b", Json::Arr(sets[1].clone())));
    } else {
        doc.push(("runs", Json::Arr(sets[0].clone())));
    }
    doc.push(("claim", Json::Null));
    if let Err(e) = std::fs::write(out_path, Json::obj(doc).pretty()) {
        eprintln!("could not write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, exec: f64, count: f64) -> Json {
        Json::obj(vec![
            ("workload", Json::str(workload)),
            (
                "metrics",
                Json::obj(vec![("exec_ms_min", Json::obj(vec![("value", Json::Num(exec))]))]),
            ),
            ("exact_counts", Json::obj(vec![("fused_ops", Json::Num(count))])),
        ])
    }

    #[test]
    fn spread_rows_flag_a_second_set_that_is_worse_than_the_bound() {
        let a: Vec<Json> = (0..5).map(|i| run("ops_dense", 100.0 + f64::from(i), 7.0)).collect();
        let near: Vec<Json> = (0..5).map(|i| run("ops_dense", 101.0 + f64::from(i), 7.0)).collect();
        let far: Vec<Json> = (0..5).map(|i| run("ops_dense", 140.0 + f64::from(i), 7.0)).collect();
        let (rows, within, twice) = spread_rows(&a, &near);
        assert_eq!(rows.len(), 1);
        assert!(within && twice);
        assert!(!spread_rows(&a, &far).1);
        // An improvement is never "worse", but two sets of one binary that
        // far apart break the twice-the-difference rule either way.
        let (_, within, twice) = spread_rows(&far, &a);
        assert!(within && !twice);
    }

    #[test]
    fn counts_must_be_identical_per_workload() {
        let same = vec![
            run("ops_dense", 1.0, 7.0),
            run("ops_dense", 2.0, 7.0),
            run("serve_small", 1.0, 9.0),
        ];
        assert!(counts_identical(&same));
        let differ = vec![run("ops_dense", 1.0, 7.0), run("ops_dense", 1.0, 8.0)];
        assert!(!counts_identical(&differ));
    }
}
