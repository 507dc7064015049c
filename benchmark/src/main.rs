//! The repo's one benchmark. See `README.md` beside `Cargo.toml` for the
//! workloads, how to run them and how to read the output.
//!
//! ```text
//! fgcs-benchmark [run] --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! fgcs-benchmark check
//! ```

mod adapter;
mod closed_loop;
mod fleet;
mod json;
mod mix;
mod paper;
mod procfs;
mod registry;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// How long and how large a run is.
pub struct Scale {
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Reduced scale, full correctness gate; numbers are not comparable.
    pub quick: bool,
    /// How many times set-up runs; `setup_s` is the median.
    pub setup_reps: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

const USAGE: &str = "usage: fgcs-benchmark [run] --workload <name|all> [--seed N] \
                     [--seconds N] [--trace 0|1] [--quick]\n       fgcs-benchmark check";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: registry::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" => {}
            "--workload" => out.workload = value("a workload name")?.clone(),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let known = registry::WORKLOADS.iter().any(|(n, _)| *n == out.workload);
    if !known && out.workload != "all" {
        let names: Vec<&str> = registry::WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("--workload must be one of {names:?} or all"));
    }
    Ok(out)
}

fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let scale = Scale {
        seconds: if args.quick {
            args.seconds / 20.0
        } else {
            args.seconds
        },
        quick: args.quick,
        setup_reps: if args.quick { 1 } else { 3 },
    };
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let result = match (workload, args.trace) {
        ("fleet_sweep", false) => fleet::run(args.seed, &scale),
        ("fleet_sweep", true) => fleet::run_traced(args.seed, &scale, &out_dir),
        ("paper_all", false) => paper::run(&scale, &out_dir),
        ("paper_all", true) => paper::run_traced(&scale, &out_dir),
        (_, false) => serve::run(workload, args.seed, &scale),
        (_, true) => serve::run_traced(workload, args.seed, &scale, &out_dir),
    }?;
    report::print_result(workload, args.trace, args.quick, &result);
    Ok(result.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "check") {
        let problems = registry::check(
            &paper::repo_root().join("BENCHMARK.json"),
            std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json")),
        );
        for p in &problems {
            eprintln!("check: {p}");
        }
        if problems.is_empty() {
            println!("check: BENCHMARK.json, layers.json and the printed names agree");
            return ExitCode::SUCCESS;
        }
        return ExitCode::FAILURE;
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        registry::WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for w in workloads {
        match run_one(w, &args) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                // No result line: the run could not be carried out.
                eprintln!("{w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
