//! `fusebench compare <a.json> <b.json>`: one row per workload × metric of
//! two set files (`fusebench runs`), with both medians and quartiles, the
//! ratio *with its base*, and a verdict.
//!
//! * `unresolved` — either side's run-to-run spread (interquartile range
//!   over median) is wider than the metric's bound: the benchmark cannot
//!   tell on this host, which is not the same as "unchanged";
//! * `worse` — `b`'s median is worse than `a`'s by more than the bound;
//! * `better` — `b`'s median is better by more than `a`'s own spread *and*
//!   `b` wins at least nine tenths of the seed-matched pairs;
//! * `same` — otherwise.
//!
//! Exits non-zero when any row is `worse`.

use crate::json::Json;
use crate::spec;
use crate::stats::{iqr_share, quartiles};
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// `(seed, value)` of every run of a workload that reports the metric.
fn samples(doc: &Json, workload: &str, metric: &str) -> Vec<(u64, f64)> {
    // A set file keeps its runs under "runs"; a spread file under "a".
    let runs = doc.get("runs").or_else(|| doc.get("a")).and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| {
            let seed = r.get("seed").and_then(Json::as_str)?.parse().ok()?;
            Some((seed, r.get("metrics")?.get(metric)?.get("value")?.as_f64()?))
        })
        .collect()
}

pub fn verdict(a: &[(u64, f64)], b: &[(u64, f64)], better: &str, bound: f64) -> Verdict {
    let (va, vb): (Vec<f64>, Vec<f64>) =
        (a.iter().map(|s| s.1).collect(), b.iter().map(|s| s.1).collect());
    let (Some((_, ma, _)), Some((_, mb, _))) = (quartiles(&va), quartiles(&vb)) else {
        return Verdict::Unresolved;
    };
    let (spread_a, spread_b) =
        (iqr_share(&va).unwrap_or(f64::NAN), iqr_share(&vb).unwrap_or(f64::NAN));
    if !(spread_a <= bound && spread_b <= bound) {
        return Verdict::Unresolved;
    }
    let lower = better == "lower";
    let worse_by = if lower { (mb - ma) / ma } else { (ma - mb) / ma };
    if worse_by > bound {
        return Verdict::Worse;
    }
    // Seed-matched pairs; ties count for neither side.
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|&(seed, x)| b.iter().find(|s| s.0 == seed).map(|&(_, y)| (x, y)))
        .filter(|(x, y)| x != y)
        .collect();
    let wins = pairs.iter().filter(|&&(x, y)| if lower { y < x } else { y > x }).count();
    if -worse_by > spread_a && !pairs.is_empty() && wins * 10 >= pairs.len() * 9 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub fn main(a_path: &str, b_path: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p).map_err(|e| e.to_string()).and_then(|t| Json::parse(&t))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) => {
            eprintln!("{a_path}: {e}");
            return ExitCode::from(2);
        }
        (_, Err(e)) => {
            eprintln!("{b_path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<13} {:<14} {:>30} {:>30} {:>34}  verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "ratio with its base"
    );
    let mut worse = 0;
    for workload in crate::workloads::NAMES {
        for (metric, unit, better, bound) in spec::END_TO_END {
            let (sa, sb) = (samples(&a, workload, metric), samples(&b, workload, metric));
            let q = |s: &[(u64, f64)]| quartiles(&s.iter().map(|v| v.1).collect::<Vec<_>>());
            let (Some(qa), Some(qb)) = (q(&sa), q(&sb)) else { continue };
            let v = verdict(&sa, &sb, better, bound);
            worse += usize::from(v == Verdict::Worse);
            let cell = |(q1, q2, q3): (f64, f64, f64)| format!("{q2:.4} [{q1:.4}, {q3:.4}]");
            println!(
                "{workload:<13} {metric:<14} {:>30} {:>30} {:>34}  {}",
                cell(qa),
                cell(qb),
                format!("b/a = {:.4} (a = {:.4} {unit})", qb.1 / qa.1, qa.1),
                format!("{v:?}").to_lowercase(),
            );
        }
    }
    if worse > 0 {
        println!("{worse} row(s) worse than their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: &[f64]) -> Vec<(u64, f64)> {
        values.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect()
    }

    /// Seeds are strings in set files: two seeds that differ only below
    /// 2⁵³'s resolution must stay two seeds.
    #[test]
    fn seeds_above_53_bits_stay_apart() {
        let run = |seed: u64, v: f64| {
            Json::obj(vec![
                ("workload", Json::str("ops_dense")),
                ("seed", Json::str(seed.to_string())),
                (
                    "metrics",
                    Json::obj(vec![("exec_ms_min", Json::obj(vec![("value", Json::Num(v))]))]),
                ),
            ])
        };
        let doc =
            Json::obj(vec![("runs", Json::Arr(vec![run(u64::MAX, 1.0), run(u64::MAX - 1, 2.0)]))]);
        let text = doc.pretty();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            samples(&back, "ops_dense", "exec_ms_min"),
            vec![(u64::MAX, 1.0), (u64::MAX - 1, 2.0)]
        );
    }

    #[test]
    fn verdicts() {
        let a = set(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(verdict(&a, &a, "lower", 0.1), Verdict::Same);
        let slower = set(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        assert_eq!(verdict(&a, &slower, "lower", 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, "higher", 0.1), Verdict::Better);
        assert_eq!(verdict(&slower, &a, "lower", 0.1), Verdict::Better);
        // Inside the bound and inside the spread: same.
        let nudged = set(&[100.2, 101.1, 99.0, 100.4, 99.9]);
        assert_eq!(verdict(&a, &nudged, "lower", 0.1), Verdict::Same);
        // A spread wider than the bound resolves nothing, however far apart.
        let noisy = set(&[100.0, 140.0, 80.0, 130.0, 90.0]);
        assert_eq!(verdict(&a, &noisy, "lower", 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &slower, "lower", 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&a, &set(&[1.0]), "lower", 0.1), Verdict::Unresolved);
    }
}
