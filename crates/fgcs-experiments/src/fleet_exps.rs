//! X15: fleet-scale streaming analysis — the §5 study at 100k machines.
//!
//! The paper instrumented 20 machines. A production FGCS federation is
//! three to five orders of magnitude larger, which is exactly where the
//! exact analysis path dies: it materializes every availability
//! interval of every machine before sorting. This experiment exercises
//! the bounded-memory alternative end to end:
//!
//! 1. **Lab oracle** — the standard 20-machine trace is folded through
//!    the streaming path ([`trace_exps::verified_streaming`] asserts
//!    bit-equality for Table 2 / Fig 7 and the CDF bound for Fig 6),
//!    then the sketch's *measured* quantile rank error at every
//!    percentile is compared against its runtime-certified bound.
//! 2. **Reproducibility** — a small fleet is run twice in-process with
//!    `FGCS_PAR_WORKERS` forced to 1 and then 4; the accumulators must
//!    agree bit-for-bit (fixed chunking + in-order merge).
//! 3. **Fleet sweep** — 100k machines × 92 days (smoke: 200 × 14)
//!    across five archetypes, streaming only, with peak RSS read from
//!    `/proc/self/status` against a fixed budget. Set
//!    `FGCS_FLEET_MACHINES` to push the sweep to 1M.
//! 4. **Verdicts** — which of the paper's headline findings (CPU
//!    contention dominates; weekend intervals run longer; daily
//!    patterns repeat) survive on each archetype.
//!
//! The RSS budget, the sketch certificate and reproducibility are the
//! bounds of [`claims::check_x15_fleet`], run on `BENCH_fleet.json`
//! before it is written. Writes `results/fleet_archetypes.csv`,
//! `results/fleet_cdf.csv`, and `BENCH_fleet.json` (cwd-relative, flat
//! keys that `fgcs-exp gate` checks again).

use fgcs_experiments::claims;
use fgcs_testbed::analysis;
use fgcs_testbed::calendar::DayType;
use fgcs_testbed::fleet::{run_fleet, Archetype, FleetConfig};
use fgcs_testbed::json::ObjWriter;
use fgcs_testbed::streaming::StreamingAnalysis;

use fgcs_experiments::artifacts::csv_text;

use crate::report::{banner, compare_line, pct, write_csv, write_text, TextTable};
use crate::trace_exps;

/// Peak resident set ("high-water mark") of this process, in MB. Linux
/// reads it from `/proc/self/status`; elsewhere the gate degrades to 0
/// (absent /proc there is nothing portable to measure).
fn peak_rss_mb() -> u64 {
    proc_status_kb("VmHWM:").unwrap_or(0) / 1024
}

/// Current resident set in MB (same caveats as [`peak_rss_mb`]).
fn current_rss_mb() -> u64 {
    proc_status_kb("VmRSS:").unwrap_or(0) / 1024
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The machine the sweep ran on, for `BENCH_fleet.json`: the core
/// count the worker pool defaults to, the kernel and CPU model from
/// `/proc` ("unknown" where it is absent), and the `FGCS_PAR_WORKERS`
/// override ("unset" when the default applies).
fn host() -> ObjWriter {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let workers = std::env::var("FGCS_PAR_WORKERS").unwrap_or_else(|_| "unset".into());
    let mut o = ObjWriter::new();
    o.u64("nproc", nproc as u64)
        .str("kernel", &kernel)
        .str("cpu_model", &cpu_model)
        .str("FGCS_PAR_WORKERS", &workers);
    o
}

/// The RSS ceiling for the full 100k-machine sweep. The exact path
/// would need gigabytes just for the interval vectors at this scale;
/// the streaming path fits the whole sweep, analysis included, in a
/// fraction of this.
const RSS_BUDGET_MB: u64 = 1024;

/// Measured-vs-certified sketch accuracy on the lab trace.
struct SketchAccuracy {
    /// Worst observed quantile rank error (fraction of n) over every
    /// integer percentile of both day-type sketches.
    measured: f64,
    /// Worst runtime-certified bound (fraction of n), plus one rank of
    /// slack for the discrete target-rank convention.
    bound: f64,
}

/// Queries every integer percentile from `acc`'s interval sketches and
/// measures how far each answer's true rank (from the exact sorted
/// intervals) sits from the target rank. Ties are handled by measuring
/// distance to the `[#<v, #<=v]` rank interval, since any value inside
/// a tie run is a correct order statistic. Whether the measured error
/// stays within the runtime-certified bound is X15's claim, checked on
/// the `BENCH_fleet.json` it lands in.
fn sketch_accuracy(acc: &StreamingAnalysis, iv: &analysis::IntervalAnalysis) -> SketchAccuracy {
    let mut out = SketchAccuracy {
        measured: 0.0,
        bound: 0.0,
    };
    for (dt, ecdf) in [
        (DayType::Weekday, &iv.weekday),
        (DayType::Weekend, &iv.weekend),
    ] {
        let sk = acc.interval_sketch(dt);
        if sk.count() == 0 {
            continue;
        }
        let n = sk.count() as f64;
        let bound = (sk.quantile_rank_error_bound() as f64 + 1.0) / n;
        out.bound = out.bound.max(bound);
        let sorted = ecdf.samples();
        let mut worst = 0.0f64;
        for i in 1..100 {
            let q = i as f64 / 100.0;
            let v = sk.quantile(q).expect("interval lengths contain no NaNs");
            let lo = sorted.partition_point(|&x| x < v) as f64;
            let hi = sorted.partition_point(|&x| x <= v) as f64;
            let target = q * n;
            let err = if target < lo {
                lo - target
            } else if target > hi {
                target - hi
            } else {
                0.0
            };
            worst = worst.max(err / n);
        }
        out.measured = out.measured.max(worst);
        println!(
            "  {dt} (k = {}): n = {}, stored {}, certified rank bound {bound:.5}, \
             worst measured {worst:.5}",
            sk.k(),
            sk.count(),
            sk.stored_len(),
        );
    }
    out
}

/// Phase 1: on the 20-machine trace (where the exact ECDF is cheap),
/// check the sketch twice — at the production capacity, where the lab
/// trace fits without compaction (the common fast path), and at a
/// deliberately tiny capacity that forces multiple compaction rounds,
/// so the error certificate is exercised for real.
fn lab_sketch_accuracy(quick: bool) -> (SketchAccuracy, SketchAccuracy) {
    let trace = trace_exps::standard_trace(quick);
    let acc = trace_exps::verified_streaming(trace);
    let iv = analysis::intervals(trace);
    let production = sketch_accuracy(&acc, &iv);
    let stressed = StreamingAnalysis::from_trace(trace, STRESS_K);
    let stress = sketch_accuracy(&stressed, &iv);
    (production, stress)
}

/// Sketch capacity small enough that the lab trace overflows it and
/// compaction (the lossy step the certificate accounts for) runs.
const STRESS_K: usize = 32;

/// Phase 2: the determinism contract, checked in-process. Machines are
/// folded in machine order and chunking is a config constant, so the
/// result must be bit-identical no matter how many workers raced over
/// the machines.
fn repro_check() -> bool {
    let mut cfg = FleetConfig::smoke();
    cfg.machines = 60;
    cfg.days = 7;
    cfg.chunk_size = 7; // deliberately not a divisor of the count
    let prev = std::env::var("FGCS_PAR_WORKERS").ok();
    std::env::set_var("FGCS_PAR_WORKERS", "1");
    let a = run_fleet(&cfg);
    std::env::set_var("FGCS_PAR_WORKERS", "4");
    let b = run_fleet(&cfg);
    match prev {
        Some(v) => std::env::set_var("FGCS_PAR_WORKERS", v),
        None => std::env::remove_var("FGCS_PAR_WORKERS"),
    }
    format!("{:?}", a.combined) == format!("{:?}", b.combined)
        && a.per_archetype.len() == b.per_archetype.len()
        && a.per_archetype
            .iter()
            .zip(&b.per_archetype)
            .all(|((x, s), (y, t))| x == y && format!("{s:?}") == format!("{t:?}"))
}

/// Which of the paper's §5 findings hold on one archetype.
struct Verdict {
    /// Table 2: CPU contention is the dominant cause (paper: 69–79%).
    cpu_dominant: bool,
    /// Figure 6: weekend intervals run longer than weekday ones.
    weekend_longer: bool,
    /// §5.3: hour-of-day patterns repeat across same-type days.
    regular: bool,
}

fn verdict(acc: &StreamingAnalysis) -> Verdict {
    let t2 = acc.table2_summary();
    let cpu_mid = (t2.cpu_pct.min + t2.cpu_pct.max) as f64 / 2.0;
    let reg = acc.regularity();
    Verdict {
        cpu_dominant: cpu_mid >= 50.0,
        weekend_longer: acc.mean_hours(DayType::Weekend) > acc.mean_hours(DayType::Weekday),
        regular: reg.weekday_correlation >= 0.5,
    }
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "holds"
    } else {
        "breaks"
    }
}

/// X15 entry point.
pub fn fleet(quick: bool) {
    banner("X15 — fleet-scale streaming analysis under a fixed memory budget");

    println!("phase 1: sketch accuracy vs the exact oracle (lab scale)");
    let (acc1, stress1) = lab_sketch_accuracy(quick);
    compare_line(
        "worst sketch quantile rank error (lab)",
        format!("{:.5}", acc1.measured),
        &format!("<= certified bound {:.5}", acc1.bound),
    );
    compare_line(
        &format!("same, sketch squeezed to k = {STRESS_K}"),
        format!("{:.5}", stress1.measured),
        &format!("<= certified bound {:.5}", stress1.bound),
    );

    println!("\nphase 2: bit-reproducibility across FGCS_PAR_WORKERS = 1 vs 4");
    let repro = repro_check();
    println!(
        "  60-machine probe fleet: accumulators {}",
        if repro { "bit-identical" } else { "DIVERGED" }
    );

    println!("\nphase 3: the fleet sweep");
    let mut cfg = if quick {
        FleetConfig::smoke()
    } else {
        FleetConfig {
            machines: claims::X15_MACHINES as usize,
            chunk_size: 512,
            ..FleetConfig::default()
        }
    };
    // Escape hatch for the 1M-machine version of the sweep. Peak memory
    // stays flat: `run_fleet` folds each traced machine into one open
    // chunk partial and merges it once the chunk is full, and the
    // accumulators scale with days, not machines; only wall-clock grows.
    if let Ok(m) = std::env::var("FGCS_FLEET_MACHINES") {
        cfg.machines = m.parse().expect("FGCS_FLEET_MACHINES must be a count");
    }
    let rss_before = current_rss_mb();
    println!(
        "  {} machines x {} days, sketch k = {}, chunk = {}, RSS before: {} MB",
        cfg.machines, cfg.days, cfg.sketch_k, cfg.chunk_size, rss_before
    );
    let t0 = std::time::Instant::now();
    let result = run_fleet(&cfg);
    let wall = t0.elapsed();
    let peak = peak_rss_mb();
    let t2 = result.combined.table2_summary();
    println!(
        "  swept {} machines ({} occurrences) in {:.1?}; peak RSS {} MB (budget {} MB)",
        t2.machines, t2.occurrences, wall, peak, RSS_BUDGET_MB
    );
    compare_line(
        "peak RSS for the whole sweep",
        format!("{peak} MB"),
        &format!("<= {RSS_BUDGET_MB} MB (exact path: O(machines) — gigabytes)"),
    );

    println!("\nphase 4: per-archetype verdicts on the paper's findings");
    let mut table = TextTable::new(&[
        "archetype",
        "machines",
        "occ/machine",
        "cpu% (mid)",
        "wd/we mean (h)",
        "cpu dominant",
        "weekend longer",
        "regular",
    ]);
    let mut arch_csv = Vec::new();
    let mut cdf_csv = Vec::new();
    let mut arch_objs: Vec<(&'static str, ObjWriter)> = Vec::new();
    let everyone: Vec<(&str, &StreamingAnalysis)> = result
        .per_archetype
        .iter()
        .map(|(a, s)| (a.name(), s))
        .chain(std::iter::once(("combined", &result.combined)))
        .collect();
    for (name, acc) in &everyone {
        let s = acc.table2_summary();
        let v = verdict(acc);
        let reg = acc.regularity();
        let cpu_mid = (s.cpu_pct.min + s.cpu_pct.max) as f64 / 2.0;
        let (wd_mean, we_mean) = (
            acc.mean_hours(DayType::Weekday),
            acc.mean_hours(DayType::Weekend),
        );
        table.row(vec![
            name.to_string(),
            s.machines.to_string(),
            format!("{:.1}", s.occurrences as f64 / s.machines.max(1) as f64),
            format!("{cpu_mid:.0}%"),
            format!("{wd_mean:.2}/{we_mean:.2}"),
            yes_no(v.cpu_dominant).into(),
            yes_no(v.weekend_longer).into(),
            yes_no(v.regular).into(),
        ]);
        arch_csv.push(format!(
            "{name},{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{},{},{}",
            s.machines,
            s.occurrences,
            s.cpu_pct.min,
            s.cpu_pct.max,
            s.mem_pct.min,
            s.mem_pct.max,
            s.urr_pct.min,
            s.urr_pct.max,
            s.urr_reboot_fraction,
            wd_mean,
            we_mean,
            reg.weekday_correlation,
            reg.weekend_correlation,
            v.cpu_dominant as u8,
            v.weekend_longer as u8,
            v.regular as u8,
        ));
        for (dt, label) in [(DayType::Weekday, "weekday"), (DayType::Weekend, "weekend")] {
            let sk = acc.interval_sketch(dt);
            for i in 0..=48 {
                let h = i as f64 * 0.5;
                cdf_csv.push(format!(
                    "{name},{label},{h:.1},{:.4}",
                    sk.cdf(h).unwrap_or(0.0)
                ));
            }
        }
        let mut o = ObjWriter::new();
        o.u64("machines", s.machines)
            .u64("occurrences", s.occurrences)
            .f64("cpu_pct_mid", cpu_mid)
            .f64("urr_reboot_fraction", s.urr_reboot_fraction)
            .u64("cpu_dominant", v.cpu_dominant as u64)
            .u64("weekend_longer", v.weekend_longer as u64)
            .u64("regular", v.regular as u64);
        arch_objs.push((name_static(name), o));
    }
    table.print();
    println!(
        "  reading: the student lab reproduces the paper; servers and build \
         farms erase the weekday/weekend divide (no console users), and \
         power-off desktops / lid-close laptops flip the dominant cause \
         from CPU contention to revocation."
    );
    compare_line(
        "combined URR reboot fraction",
        pct(t2.urr_reboot_fraction),
        "~90% on the lab testbed; lower fleet-wide (lid closes, power-off)",
    );

    let text = csv_text(
        "archetype,machines,occurrences,cpu_pct_min,cpu_pct_max,mem_pct_min,mem_pct_max,\
         urr_pct_min,urr_pct_max,urr_reboot_fraction,weekday_mean_h,weekend_mean_h,\
         weekday_corr,weekend_corr,cpu_dominant,weekend_longer,regular",
        &arch_csv,
    );
    if let Err(e) = claims::check_x15_archetypes(&text) {
        panic!("X15 fleet archetypes: {e}");
    }
    let p = write_text("fleet_archetypes", &text).expect("csv");
    println!("wrote {}", p.display());
    let p = write_csv("fleet_cdf", "archetype,day_type,hours,cdf", &cdf_csv).expect("csv");
    println!("wrote {}", p.display());

    let mut bench = ObjWriter::new();
    bench
        .u64("schema_version", 1)
        .str("experiment", "fleet")
        .obj("host", host())
        .u64("fleet_machines", t2.machines)
        .u64("fleet_days", cfg.days as u64)
        .u64("fleet_archetypes", result.per_archetype.len() as u64)
        .u64("fleet_occurrences", t2.occurrences)
        .u64("peak_rss_mb", peak)
        .u64("rss_budget_mb", RSS_BUDGET_MB)
        .u64("sketch_k", cfg.sketch_k as u64)
        .f64("lab_rank_err", acc1.measured)
        .f64("lab_rank_bound", acc1.bound)
        .u64("stress_k", STRESS_K as u64)
        .f64("stress_rank_err", stress1.measured)
        .f64("stress_rank_bound", stress1.bound)
        .u64(
            "sketch_within_bound",
            (acc1.measured <= acc1.bound && stress1.measured <= stress1.bound) as u64,
        )
        .u64("repro_identical", repro as u64)
        .f64("fleet_wall_secs", wall.as_secs_f64());
    for (name, o) in arch_objs {
        bench.obj(name, o);
    }
    let doc = bench.finish();
    claims::assert_claim("X15", &doc, claims::check_x15_fleet);
    std::fs::write("BENCH_fleet.json", doc + "\n").expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");
}

/// Maps an archetype (or "combined") name back to a `'static` key for
/// the JSON writer.
fn name_static(name: &str) -> &'static str {
    for a in Archetype::ALL {
        if a.name() == name {
            return a.name();
        }
    }
    "combined"
}
