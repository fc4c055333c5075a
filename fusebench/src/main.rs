//! fusebench — the repository's benchmark.
//!
//! ```text
//! fusebench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one result line
//! fusebench --quick                                                   all six workloads, tiny, self-checking
//! fusebench runs --runs <n> --out <set.json> [--seconds <s>]          a set of runs of every workload
//! fusebench spread --runs <n> --out <SPREAD.json> [--seconds <s>]     two alternating sets and their spreads
//! fusebench compare <a.json> <b.json>                                 per workload × metric verdicts
//! ```
//!
//! See `fusebench/README.md` for what every workload and metric means.

mod compare;
mod gen;
mod json;
mod layers;
mod panel;
mod report;
mod run;
mod sets;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

/// Options of a single run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the summary and the Chrome trace go.
    pub out_dir: std::path::PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fusebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n  \
         fusebench --quick\n  fusebench runs --runs <n> --out <set.json> [--seconds <s>] [--first-seed <n>]\n  \
         fusebench spread --runs <n> --out <SPREAD.json> [--seconds <s>]\n  \
         fusebench compare <a.json> <b.json>",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the optional subcommand.
fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    // Thread policy: one kernel thread per client everywhere. With two
    // kernel threads the same round alternates between two speeds depending
    // on where the host places the vCPUs (README, "Thread policy").
    fusedml_linalg::par::set_num_threads(1);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let parse = |key: &str, default: f64| -> Option<f64> {
        flag(&args, key).map_or(Some(default), |v| v.parse().ok())
    };
    // Seeds are whole numbers of any size a u64 holds; absent means 1.
    let seed = |key: &str| -> Option<u64> { flag(&args, key).map_or(Some(1), |v| v.parse().ok()) };
    match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::main(a, b),
            _ => usage(),
        },
        Some(cmd @ ("runs" | "spread")) => {
            let (Some(runs), Some(seconds), Some(first_seed), Some(out)) = (
                parse("--runs", 5.0),
                parse("--seconds", f64::from(report::RUN_SECONDS)),
                seed("--first-seed"),
                flag(&args, "--out"),
            ) else {
                return usage();
            };
            sets::main(cmd == "spread", runs as usize, seconds, first_seed, out)
        }
        Some("--quick") => report::quick(process_start),
        _ => {
            let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
                flag(&args, "--workload"),
                seed("--seed"),
                parse("--seconds", f64::from(report::RUN_SECONDS)),
                parse("--trace", 0.0),
            ) else {
                return usage();
            };
            if !workloads::NAMES.contains(&workload) || seconds.is_nan() || seconds <= 0.0 {
                return usage();
            }
            report::single(
                &RunArgs {
                    workload: workload.to_string(),
                    seed,
                    seconds,
                    trace: trace != 0.0,
                    out_dir: flag(&args, "--out").unwrap_or("fusebench/out").into(),
                },
                process_start,
            )
        }
    }
}
