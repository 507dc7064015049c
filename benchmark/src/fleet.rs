//! `fleet_sweep`: the offline half of the system — plan generation,
//! batched tracer, detector, streaming fold, merge — through
//! `run_fleet`, with no socket, wire or lock code involved.
//!
//! The window is a sequence of slices, each one complete sweep of a
//! 512-machine, 92-day fleet with its own seed. A slice is the unit a
//! user waits for (a finished analysis), so its duration is this
//! workload's `result_p50_us`.

use std::time::Instant;

use crate::adapter::{
    fleet_oracle_check, fleet_span, fleet_sweep, fleet_sweep_traced, FleetOutcome, Sketch,
};
use crate::mix::SplitMix64;
use crate::procfs;
use crate::registry::DEFAULT_SEED;
use crate::report::{print_spread, RunResult};
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::Scale;

const DAYS: usize = 92;
/// Machines per slice: eight chunks of 64, so two workers get four each.
const SLICE_MACHINES: usize = 512;
/// Fleet the exact oracle is run on; the sample-by-sample tracer it uses
/// is some thirty times slower than the batched one.
const ORACLE_MACHINES: usize = 200;
const ORACLE_DAYS: usize = 7;
/// Occurrences in slice 0 of the default seed at full scale. Generators,
/// detector and fold are deterministic, so any other count means one of
/// them changed behaviour.
const DEFAULT_SEED_OCCURRENCES: u64 = 159_853;

fn workers() -> usize {
    std::env::var("FGCS_PAR_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

struct Sizes {
    machines: usize,
    oracle_machines: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            machines: SLICE_MACHINES / 8,
            oracle_machines: ORACLE_MACHINES / 10,
        }
    } else {
        Sizes {
            machines: SLICE_MACHINES,
            oracle_machines: ORACLE_MACHINES,
        }
    }
}

/// Checks shared by both kinds of run: every slice folded every machine,
/// per-archetype and combined accumulators agree, the sweep repeats, the
/// default seed lands on its recorded count, and a small fleet matches
/// the exact oracle.
fn gates(result: &mut RunResult, seed: u64, size: &Sizes, quick: bool, slices: &[FleetOutcome]) {
    for (i, s) in slices.iter().enumerate() {
        result.attempted += 1;
        if s.machines != size.machines as u64 || s.archetype_occurrences != s.occurrences {
            result.failed += 1;
            result.fail(format!(
                "slice {i}: {} machines, {} vs {} occurrences",
                s.machines, s.occurrences, s.archetype_occurrences
            ));
        }
    }
    result.attempted += 1;
    if fleet_sweep(seed, size.machines, DAYS) != slices[0] {
        result.failed += 1;
        result.fail("a second sweep of slice 0 differs from the first".into());
    }
    if seed == DEFAULT_SEED && !quick {
        result.attempted += 1;
        if slices[0].occurrences != DEFAULT_SEED_OCCURRENCES {
            result.failed += 1;
            result.fail(format!(
                "default seed: {} occurrences, recorded {DEFAULT_SEED_OCCURRENCES}",
                slices[0].occurrences
            ));
        }
    }
    result.attempted += 1;
    if let Err(why) = fleet_oracle_check(seed, size.oracle_machines, ORACLE_DAYS) {
        result.failed += 1;
        result.fail(why);
    }
}

pub fn run(seed: u64, scale: &Scale) -> Result<RunResult, String> {
    let size = sizes(scale.quick);
    let mut result = RunResult::default();

    // Nothing to build or connect: set-up is the warm-up sweep of one
    // chunk that pages the code in and sizes the allocator's arenas.
    let setups: Vec<f64> = (0..scale.setup_reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(fleet_sweep(seed, 64, DAYS));
            t0.elapsed().as_secs_f64()
        })
        .collect();

    let machine_days = (size.machines * DAYS) as f64;
    let (cpu_before, _) = procfs::process_cpu_s();
    let start = Instant::now();
    let (mut outcomes, mut secs) = (Vec::new(), Vec::new());
    while outcomes.is_empty() || start.elapsed().as_secs_f64() < scale.seconds {
        let t0 = Instant::now();
        outcomes.push(fleet_sweep(
            seed + outcomes.len() as u64,
            size.machines,
            DAYS,
        ));
        secs.push(t0.elapsed().as_secs_f64());
    }
    let (cpu_after, _) = procfs::process_cpu_s();
    let peak_rss_mb = procfs::peak_rss_mb();

    gates(&mut result, seed, &size, scale.quick, &outcomes);

    let per_s = quartiles(&secs.iter().map(|s| machine_days / s).collect::<Vec<_>>());
    let slice_us = quartiles(&secs.iter().map(|s| s * 1e6).collect::<Vec<_>>());
    println!(
        "fleet_sweep: {} slices of {} machines x {DAYS} days, {} workers, {} occurrences in slice 0",
        outcomes.len(),
        size.machines,
        workers(),
        outcomes[0].occurrences
    );
    print_spread("work_per_s", "1/s", &per_s);
    print_spread("result_p50_us", "us", &slice_us);
    result.set("setup_s", median(&setups));
    result.set("work_per_s", per_s.median);
    result.set("result_p50_us", slice_us.median);
    result.set(
        "cpu_us_per_work",
        (cpu_after - cpu_before) * 1e6 / (machine_days * outcomes.len() as f64),
    );
    result.set("peak_rss_mb", peak_rss_mb);
    result.correct = result.problems.is_empty();
    Ok(result)
}

/// Runs `f` with `FGCS_PAR_WORKERS` set to `n`, then restores it. The
/// fleet workload runs no other thread while this changes the
/// environment.
fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var("FGCS_PAR_WORKERS").ok();
    std::env::set_var("FGCS_PAR_WORKERS", n.to_string());
    let r = f();
    match prev {
        Some(v) => std::env::set_var("FGCS_PAR_WORKERS", v),
        None => std::env::remove_var("FGCS_PAR_WORKERS"),
    }
    r
}

pub fn run_traced(
    seed: u64,
    scale: &Scale,
    out_dir: &std::path::Path,
) -> Result<RunResult, String> {
    let size = sizes(scale.quick);
    let mut result = RunResult::default();
    let epoch = Instant::now();
    let machine_days = (size.machines * DAYS) as f64;
    std::hint::black_box(fleet_sweep(seed, 64, DAYS));

    // Untraced reference slices, then the same slices under spans.
    let timed = |budget: f64, sweep: &mut dyn FnMut(u64) -> FleetOutcome| {
        let start = Instant::now();
        let mut outcomes = Vec::new();
        while outcomes.is_empty() || start.elapsed().as_secs_f64() < budget {
            outcomes.push(sweep(seed + outcomes.len() as u64));
        }
        let per_s = machine_days * outcomes.len() as f64 / start.elapsed().as_secs_f64();
        (outcomes, per_s)
    };
    let (reference, reference_per_s) = timed(0.2 * scale.seconds, &mut |s| {
        fleet_sweep(s, size.machines, DAYS)
    });
    let mut tracer = Tracer::new(epoch);
    let (traced, traced_per_s) = timed(0.6 * scale.seconds, &mut |s| {
        let (outcome, t) = fleet_sweep_traced(s, size.machines, DAYS, workers(), epoch);
        tracer.absorb(t);
        outcome
    });

    gates(&mut result, seed, &size, scale.quick, &traced);
    result.attempted += 1;
    if traced[0] != reference[0] {
        result.failed += 1;
        result.fail("the traced sweep's result differs from run_fleet's".into());
    }

    // T(1 worker) ÷ (n × T(n workers)) on a slice a quarter the size.
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    let time_with = |w: usize| {
        with_workers(w, || {
            let t0 = Instant::now();
            std::hint::black_box(fleet_sweep(seed, size.machines / 4, DAYS));
            t0.elapsed().as_secs_f64()
        })
    };
    let (t1, tn) = (time_with(1), time_with(n));
    result.set("par.fleet_efficiency", t1 / (n as f64 * tn));

    // The sketch alone, at the sweep's capacity, on interval-like values.
    let root = tracer.begin("stats.sketch_bench", 0, 0);
    let mut rng = SplitMix64::new(seed);
    let values: Vec<f64> = (0..200_000)
        .map(|_| rng.below(240_000) as f64 / 1e4)
        .collect();
    let (mut a, mut b) = (Sketch::new(), Sketch::new());
    let s = tracer.begin("stats.sketch_push", root, 0);
    for &v in &values {
        a.push(v);
    }
    tracer.end(s);
    values.iter().rev().for_each(|&v| b.push(v));
    let s = tracer.begin("stats.sketch_merge", root, 0);
    a.merge(&b);
    tracer.end(s);
    let s = tracer.begin("stats.sketch_quantile", root, 0);
    for i in 1..1_000 {
        std::hint::black_box(a.quantile(i as f64 / 1_000.0));
    }
    tracer.end(s);
    tracer.end(root);

    let stats = tracer.layer_stats();
    let mean_us = |name: &str| {
        stats
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e3 / s.count.max(1) as f64)
    };
    let total_ns = |name: &str| stats.get(name).map_or(0.0, |s| s.total_ns as f64);
    result.set("testbed.plan_generate_us", mean_us(fleet_span::PLAN));
    result.set("testbed.trace_machine_us", mean_us(fleet_span::TRACE));
    // `trace_machine_batched` generates its plan inside, so the tracer
    // proper is what is left.
    result.set(
        "testbed.tracer_us",
        mean_us(fleet_span::TRACE) - mean_us(fleet_span::PLAN),
    );
    result.set("testbed.fold_push_us", mean_us(fleet_span::PUSH));
    result.set("testbed.fold_merge_us", mean_us(fleet_span::MERGE));
    result.set("testbed.fleet_occurrences", traced[0].occurrences as f64);
    result.set(
        "stats.sketch_push_ns",
        total_ns("stats.sketch_push") / values.len() as f64,
    );
    result.set("stats.sketch_merge_us", mean_us("stats.sketch_merge"));
    result.set(
        "stats.sketch_quantile_ns",
        total_ns("stats.sketch_quantile") / 999.0,
    );
    result.set(
        "stats.sketch_rank_err_bound",
        traced[0].rank_err_bound as f64,
    );
    result.set("trace.overhead_share", traced_per_s / reference_per_s - 1.0);

    println!(
        "fleet_sweep: {} traced slices at {traced_per_s:.0} machine-days/s, {} reference slices at \
         {reference_per_s:.0}; chunk self time {:.1} % of chunk time",
        traced.len(),
        reference.len(),
        stats.get(fleet_span::CHUNK).map_or(0.0, |s| 100.0
            * s.self_ns as f64
            / s.total_ns.max(1) as f64),
    );
    let path = out_dir.join("trace-fleet_sweep.jsonl");
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "fleet_sweep: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    result.correct = result.problems.is_empty();
    Ok(result)
}
