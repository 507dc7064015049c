//! `fgcs-exp` — regenerates every table and figure of the ICPP'06 FGCS
//! paper, plus the extension experiments, printing paper-vs-measured
//! comparisons and writing CSV series under `results/`.
//!
//! ```text
//! fgcs-exp <experiment> [--quick]
//! fgcs-exp all [--quick]
//! fgcs-exp gate
//! ```
//!
//! Experiments, in the order `all` runs them: `table1`, `fig1a`,
//! `fig1b`, `calibrate`, `fig2`, `fig3`, `fig4`, `fig5`, `table2`,
//! `fig6`, `fig7`, `regularity` (X1), `predict` (X2), `proactive` (X3),
//! `ablation` (X4), `policies` (X5), `scenarios` (X6), `cluster` (X7),
//! `rules` (X8), `depth` (X9), `seeds` (X10), `faults` (X11), `trace`;
//! and the three `all` skips because their outputs carry wall-clock
//! measurements: `serve` (X12), `sched` (X14), `fleet` (X15).
//!
//! `table2`, `fig6`, `fig7`, `regularity`, `predict`, `depth`, `faults`
//! and `trace` read the one standard testbed trace, and `rules` and
//! `seeds` pass through it; [`trace_exps::standard_trace`] generates it
//! once per process, so `all` traces the 20-machine lab once, not ten
//! times. Likewise `calibrate` reuses the Figure 1 points `fig1a` and
//! `fig1b` swept earlier in the same process, and sweeps the rest.
//!
//! The paper-vs-measured lines an experiment prints are the rows of the
//! check ([`fgcs_experiments::claims`]) it runs on the CSV it is about
//! to write; at full scale a failed bound stops the run.
//!
//! `gate` runs no experiment: it checks, in the cwd, every paper claim
//! on the committed paper CSVs under `results/` (Table 1, Figure 1 and
//! the calibration, Figure 3, Table 2, Figures 6 and 7, X2, X3), X11's
//! and X15's tables there, and every X12–X15 claim on the committed
//! `BENCH_serve.json` and `BENCH_fleet.json`. It prints each paper
//! CSV's rows and the list of recorded departures from the paper, and
//! exits 1 naming the first failed bound.

mod contention_exps;
mod extension_exps;
mod fault_exps;
mod fleet_exps;
mod predict_exps;
mod report;
mod sched_exps;
#[cfg(target_os = "linux")]
mod serve_exps;
mod trace_exps;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "Table 1: resource usage of tested applications"),
    (
        "fig1a",
        "Figure 1(a): host CPU reduction vs LH, equal priority",
    ),
    (
        "fig1b",
        "Figure 1(b): host CPU reduction vs LH, guest nice 19",
    ),
    (
        "calibrate",
        "Derive Th1/Th2 from the sweeps (the paper's reading of Fig 1)",
    ),
    ("fig2", "Figure 2: reduction vs LH x guest priority"),
    (
        "fig3",
        "Figure 3: guest CPU usage, equal vs lowest priority",
    ),
    (
        "fig4",
        "Figure 4: SPEC x Musbus slowdown and thrashing on 384 MB Solaris",
    ),
    ("fig5", "Figure 5: the five-state availability model"),
    (
        "table2",
        "Table 2: unavailability by cause over the 3-month testbed",
    ),
    ("fig6", "Figure 6: CDF of availability-interval lengths"),
    (
        "fig7",
        "Figure 7: unavailability occurrences per hour of day",
    ),
    ("regularity", "X1 (§5.3): daily patterns repeat across days"),
    ("predict", "X2 (§6): availability predictors vs baselines"),
    ("proactive", "X3 (§1): proactive vs oblivious job placement"),
    (
        "ablation",
        "X4: two-threshold managed policy vs static priorities",
    ),
    ("policies", "X5: the full §3.2.2 policy design space"),
    (
        "scenarios",
        "X6 (§6): predictability across testbed scenarios",
    ),
    ("cluster", "X7: placement strategies on a live FGCS cluster"),
    (
        "rules",
        "X8: ablation of the 1-min spike tolerance and 5-min harvest delay",
    ),
    (
        "depth",
        "X9: history depth and trimming ablation for the predictor",
    ),
    ("seeds", "X10: Table 2 statistics across independent seeds"),
    (
        "faults",
        "X11: Table 2 / Figure 6 drift under injected measurement faults",
    ),
    (
        "serve",
        "X12: fgcs-service throughput, query latency, overload backpressure (not in `all`)",
    ),
    (
        "sched",
        "X14: fgcs-sched prediction-driven placement vs baselines on a live cluster (not in `all`)",
    ),
    (
        "fleet",
        "X15: 100k-machine heterogeneous fleet through the streaming path (not in `all`)",
    ),
    (
        "trace",
        "Dump the full testbed trace to results/ (JSONL + CSV)",
    ),
];

fn usage() -> ! {
    eprintln!("usage: fgcs-exp <experiment|all> [--quick]\n\nexperiments:");
    for (name, desc) in EXPERIMENTS {
        eprintln!("  {name:<12} {desc}");
    }
    eprintln!("\n--quick runs reduced-scale versions (for smoke tests).");
    eprintln!(
        "`fgcs-exp gate` (no flags) checks the paper's claims on the committed results/ \
         and the X11-X15 claims on results/, BENCH_serve.json and BENCH_fleet.json in the cwd."
    );
    std::process::exit(2);
}

fn run(name: &str, quick: bool) {
    match name {
        "table1" => contention_exps::table1(quick),
        "fig1a" => contention_exps::fig1(0, quick),
        "fig1b" => contention_exps::fig1(19, quick),
        "calibrate" => contention_exps::calibrate_exp(quick),
        "fig2" => contention_exps::fig2(quick),
        "fig3" => contention_exps::fig3(quick),
        "fig4" => contention_exps::fig4(quick),
        "fig5" => contention_exps::fig5(),
        "ablation" => contention_exps::ablation(quick),
        "policies" => extension_exps::policies(quick),
        "scenarios" => extension_exps::scenario_study(quick),
        "cluster" => extension_exps::cluster_study(quick),
        "rules" => extension_exps::detector_rules(quick),
        "depth" => predict_exps::depth(quick),
        "seeds" => extension_exps::seeds(quick),
        "faults" => fault_exps::fault_matrix(quick),
        #[cfg(target_os = "linux")]
        "serve" => serve_exps::serve(quick),
        #[cfg(not(target_os = "linux"))]
        "serve" => println!("X12 needs the Linux event loops (epoll sockets); skipping"),
        "sched" => sched_exps::sched(quick),
        "fleet" => fleet_exps::fleet(quick),
        "table2" => trace_exps::table2(quick),
        "fig6" => trace_exps::fig6(quick),
        "fig7" => trace_exps::fig7(quick),
        "regularity" => trace_exps::regularity(quick),
        "trace" => trace_exps::dump_trace(quick),
        "predict" => predict_exps::predict(quick),
        "proactive" => predict_exps::proactive(quick),
        _ => usage(),
    }
}

/// `fgcs-exp gate`: every claim on the committed artifacts in the cwd.
/// Prints each paper CSV's rows, then every departure from the paper.
fn gate() -> Result<(), String> {
    use fgcs_experiments::claims::{self, Claim, Section, PAPER_BOUNDS};
    use fgcs_testbed::json::{parse, Value};
    let read = |path: &str| -> Result<Section, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        match parse(&text).map_err(|e| format!("{path}: {e}"))? {
            Value::Obj(doc) => Ok(doc),
            _ => Err(format!("{path}: not a JSON object")),
        }
    };
    claims::gate(&read("BENCH_serve.json")?, &read("BENCH_fleet.json")?)?;
    let results = claims::gate_results(|file| {
        let path = format!("results/{file}");
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    })?;
    for (file, rows) in &results {
        println!("results/{file}");
        rows.iter().for_each(|r| println!("  {r}"));
    }
    println!("\ndepartures from the paper:");
    for b in PAPER_BOUNDS {
        if let Claim::Departure { .. } = b.claim {
            let measured: Vec<String> = results
                .iter()
                .flat_map(|(_, rows)| rows)
                .filter(|r| std::ptr::eq(r.bound, b))
                .map(|r| r.measured.clone())
                .collect();
            let measured = if measured.is_empty() {
                "checked by its experiment".to_string()
            } else {
                format!("measured {}", measured.join(", "))
            };
            println!(
                "  {:<20} {:<44} paper {:<14} {} ({measured})",
                b.id,
                b.quantity,
                b.paper,
                claims::recorded(b)
            );
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "gate") {
        if args.len() > 1 {
            usage();
        }
        if let Err(e) = gate() {
            eprintln!("fgcs-exp gate: {e}");
            std::process::exit(1);
        }
        println!(
            "fgcs-exp gate: the paper's claims hold on results/, and the X11-X15 claims on \
             BENCH_serve.json, BENCH_fleet.json and results/"
        );
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let names: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if names.len() != 1 {
        usage();
    }
    let name = names[0].as_str();
    let t0 = std::time::Instant::now();
    if name == "all" {
        for (n, _) in EXPERIMENTS {
            // `serve` measures wall-clock throughput/latency, so its
            // outputs are not byte-reproducible golden files like the
            // other CSVs; run it explicitly (`fgcs-exp serve`), the way
            // `cargo bench` regenerates BENCH_sim.json. `sched` splices
            // a gate into BENCH_serve.json too, so it is likewise run
            // explicitly (`fgcs-exp sched`). `fleet` regenerates
            // BENCH_fleet.json (wall-clock and RSS measurements), so it
            // follows the same rule (`fgcs-exp fleet`).
            if *n != "serve" && *n != "sched" && *n != "fleet" {
                run(n, quick);
            }
        }
    } else {
        run(name, quick);
    }
    println!("\n[{name} done in {:.1?}]", t0.elapsed());
}
