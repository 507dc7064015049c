//! Regenerators for the trace study: Table 2, Figures 6–7, and the
//! regularity analysis (§5).
//!
//! The analyses here run through the bounded-memory streaming path
//! ([`fgcs_testbed::streaming`]) — the same code the fleet experiment
//! uses at 100k+ machines — and, at this lab scale where it is cheap,
//! verify every reported number against the exact in-memory oracle
//! before printing anything.

use std::borrow::Cow;
use std::io::Write;
use std::sync::OnceLock;

use fgcs_stats::sketch::DEFAULT_K;
use fgcs_testbed::analysis::{self, REBOOT_CUTOFF_SECS};
use fgcs_testbed::calendar::DayType;
use fgcs_testbed::runner::{run_testbed, TestbedConfig};
use fgcs_testbed::streaming::{StreamingAnalysis, Table2Summary};
use fgcs_testbed::trace::Trace;

use crate::report::{banner, bar, compare_line, hours, pct, write_csv, TextTable};

/// The standard testbed: 20 machines × 92 days under the paper's
/// detector, or 8 × 21 with `--quick`.
pub fn standard_config(quick: bool) -> TestbedConfig {
    let mut cfg = TestbedConfig::default();
    if quick {
        cfg.lab.machines = 8;
        cfg.lab.days = 21;
    }
    cfg
}

/// The trace of [`standard_config`], generated on first use and then
/// shared by reference for the rest of the process: the §5 study is one
/// trace read many ways, and `fgcs-exp all` reads it ten times.
pub fn standard_trace(quick: bool) -> &'static Trace {
    static FULL: OnceLock<Trace> = OnceLock::new();
    static QUICK: OnceLock<Trace> = OnceLock::new();
    let cell = if quick { &QUICK } else { &FULL };
    cell.get_or_init(|| run_testbed(&standard_config(quick)))
}

/// The trace of `cfg`: the shared [`standard_trace`] when `cfg` is a
/// standard configuration, a fresh run otherwise. For sweeps whose
/// grid passes through the standard point (X8's paper-rules row, X10's
/// default seed).
pub fn trace_for(cfg: &TestbedConfig) -> Cow<'static, Trace> {
    for quick in [false, true] {
        if *cfg == standard_config(quick) {
            return Cow::Borrowed(standard_trace(quick));
        }
    }
    Cow::Owned(run_testbed(cfg))
}

/// Folds `trace` through the streaming analysis and verifies it against
/// the exact oracle: Table 2 and the Figure 7 matrix must agree
/// bit-for-bit (integer folds commute), Figure 6 CDF queries must land
/// within the sketch's runtime-certified rank-error bound.
pub fn verified_streaming(trace: &Trace) -> StreamingAnalysis {
    let acc = StreamingAnalysis::from_trace(trace, DEFAULT_K);
    let t2 = analysis::table2(trace);
    assert_eq!(
        acc.table2_summary(),
        Table2Summary::from(&t2),
        "streaming Table 2 diverged from the exact oracle"
    );
    assert_eq!(
        acc.day_hour_counts(),
        &analysis::day_hour_counts(trace)[..],
        "streaming Figure 7 matrix diverged from the exact oracle"
    );
    let iv = analysis::intervals(trace);
    let mut worst_eps = 0.0f64;
    for (dt, ecdf) in [
        (DayType::Weekday, &iv.weekday),
        (DayType::Weekend, &iv.weekend),
    ] {
        let sk = acc.interval_sketch(dt);
        assert_eq!(sk.count(), ecdf.len() as u64, "{dt} interval count");
        if sk.count() == 0 {
            continue;
        }
        let eps = sk.rank_error_bound() as f64 / sk.count() as f64;
        worst_eps = worst_eps.max(eps);
        for i in 0..=48 {
            let x = i as f64 * 0.5; // 0 h .. 24 h
            let exact = ecdf.eval(x);
            let sketched = sk.cdf(x).expect("non-empty sketch");
            assert!(
                (exact - sketched).abs() <= eps + 1e-12,
                "{dt} cdf({x}): exact {exact}, sketch {sketched}, bound {eps}"
            );
        }
    }
    println!(
        "[streaming verified against exact oracle: Table 2 + Fig 7 bit-identical, \
         Fig 6 CDF error <= {worst_eps:.5} (k = {DEFAULT_K})]"
    );
    acc
}

/// Table 2: resource unavailability by cause.
pub fn table2(quick: bool) {
    banner("Table 2 — resource unavailability due to different causes");
    let trace = standard_trace(quick);
    println!(
        "trace: {} machines x {} days = {} machine-days, {} occurrences",
        trace.meta.machines,
        trace.meta.days,
        trace.machine_days(),
        trace.records.len()
    );
    let t2s = verified_streaming(trace).table2_summary();

    let mut table = TextTable::new(&["category", "measured (per machine)", "paper (per machine)"]);
    table.row(vec![
        "total".into(),
        t2s.total.to_string(),
        "405-453".into(),
    ]);
    table.row(vec![
        "UEC / CPU contention".into(),
        t2s.cpu.to_string(),
        "283-356".into(),
    ]);
    table.row(vec![
        "UEC / memory contention".into(),
        t2s.mem.to_string(),
        "83-121".into(),
    ]);
    table.row(vec!["URR".into(), t2s.urr.to_string(), "3-12".into()]);
    table.row(vec![
        "CPU %".into(),
        format!("{}%", t2s.cpu_pct),
        "69-79%".into(),
    ]);
    table.row(vec![
        "memory %".into(),
        format!("{}%", t2s.mem_pct),
        "19-30%".into(),
    ]);
    table.row(vec![
        "URR %".into(),
        format!("{}%", t2s.urr_pct),
        "0-3%".into(),
    ]);
    table.print();
    compare_line(
        &format!("URR from reboots (raw outage < {REBOOT_CUTOFF_SECS}s)"),
        pct(t2s.urr_reboot_fraction),
        "~90%",
    );

    // The per-machine CSV is inherently a per-machine artifact; it comes
    // from the exact path (which the summary above was verified against).
    let t2 = analysis::table2(trace);
    let csv: Vec<String> = t2
        .per_machine
        .iter()
        .enumerate()
        .map(|(m, c)| {
            format!(
                "{m},{},{},{},{},{}",
                c.total, c.cpu, c.mem, c.urr, c.urr_reboots
            )
        })
        .collect();
    let path = write_csv("table2", "machine,total,cpu,mem,urr,urr_reboots", &csv).expect("csv");
    println!("wrote {}", path.display());
}

/// Figure 6: cumulative distribution of availability-interval lengths.
pub fn fig6(quick: bool) {
    banner("Figure 6 — CDF of availability-interval lengths");
    let trace = standard_trace(quick);
    let acc = verified_streaming(trace);
    let (wd, we) = (
        acc.interval_sketch(DayType::Weekday),
        acc.interval_sketch(DayType::Weekend),
    );

    let mut table = TextTable::new(&["interval length", "weekday CDF", "weekend CDF"]);
    let grid_hours: Vec<f64> = vec![
        5.0 / 60.0,
        0.5,
        1.0,
        2.0,
        3.0,
        4.0,
        5.0,
        6.0,
        8.0,
        10.0,
        12.0,
    ];
    let mut csv = Vec::new();
    for &h in &grid_hours {
        let wdc = wd.cdf(h).unwrap_or(0.0);
        let wec = we.cdf(h).unwrap_or(0.0);
        table.row(vec![
            if h < 0.2 {
                "5 min".into()
            } else {
                format!("{h:.1} h")
            },
            pct(wdc),
            pct(wec),
        ]);
        csv.push(format!("{h:.3},{wdc:.4},{wec:.4}"));
    }
    table.print();
    compare_line(
        "weekday mean interval",
        hours(acc.mean_hours(DayType::Weekday) * 3600.0),
        "close to 3 h",
    );
    compare_line(
        "weekend mean interval",
        hours(acc.mean_hours(DayType::Weekend) * 3600.0),
        "above 5 h",
    );
    compare_line(
        "weekday intervals in 2-4 h",
        pct(wd.cdf(4.0).unwrap_or(0.0) - wd.cdf(2.0).unwrap_or(0.0)),
        "~60%",
    );
    compare_line(
        "weekend intervals in 4-6 h",
        pct(we.cdf(6.0).unwrap_or(0.0) - we.cdf(4.0).unwrap_or(0.0)),
        "~60%",
    );
    compare_line(
        "intervals shorter than 5 min",
        pct(wd.cdf(5.0 / 60.0).unwrap_or(0.0)),
        "~5%",
    );
    let path = write_csv("fig6", "hours,weekday_cdf,weekend_cdf", &csv).expect("csv");
    println!("wrote {}", path.display());
}

/// Figure 7: unavailability occurrences per hour of day.
pub fn fig7(quick: bool) {
    banner("Figure 7 — unavailability occurrences per hour of day (testbed-wide)");
    let trace = standard_trace(quick);
    let h = verified_streaming(trace).hourly();

    let mut csv = Vec::new();
    for (dt, g) in [
        (DayType::Weekday, &h.weekday),
        (DayType::Weekend, &h.weekend),
    ] {
        println!("\n{dt}s (mean [min-max], bar scaled to 20):");
        let mut table = TextTable::new(&["hour", "mean", "range", ""]);
        for (hour, s) in g.iter() {
            table.row(vec![
                format!("{:02}-{:02}", hour, hour + 1),
                format!("{:.1}", s.mean()),
                format!("[{:.0}-{:.0}]", s.min(), s.max()),
                bar(s.mean(), 20.0, 30),
            ]);
            csv.push(format!(
                "{dt},{hour},{:.3},{:.0},{:.0}",
                s.mean(),
                s.min(),
                s.max()
            ));
        }
        table.print();
    }
    println!();
    compare_line(
        "4-5 AM spike (updatedb on every machine)",
        format!("{:.1}", h.weekday.get(&4).map(|s| s.mean()).unwrap_or(0.0)),
        "20 (= machine count)",
    );
    println!("expected shape: low at night, ramp after 10 AM, weekday > weekend at the same hour.");
    let path = write_csv("fig7", "day_type,hour,mean,min,max", &csv).expect("csv");
    println!("wrote {}", path.display());
}

/// The §5.3 regularity claim: daily patterns repeat.
pub fn regularity(quick: bool) {
    banner("Regularity (§5.3) — are daily patterns comparable to recent history?");
    let trace = standard_trace(quick);
    let r = verified_streaming(trace).regularity();
    compare_line(
        "mean pairwise weekday correlation",
        format!("{:.2}", r.weekday_correlation),
        "high (patterns repeat)",
    );
    compare_line(
        "mean pairwise weekend correlation",
        format!("{:.2}", r.weekend_correlation),
        "high (patterns repeat)",
    );
    compare_line(
        "mean per-hour weekday CV",
        format!("{:.2}", r.weekday_mean_cv),
        "small deviations",
    );
    compare_line(
        "mean per-hour weekend CV",
        format!("{:.2}", r.weekend_mean_cv),
        "small deviations",
    );
    println!(
        "interpretation: per-hour failure counts correlate strongly across days \
         of the same type, which is exactly what makes the history-window \
         predictor (experiment `predict`) work."
    );
}

/// Writes the full trace to results/ in both formats.
pub fn dump_trace(quick: bool) {
    banner("Trace dump — the three-month testbed trace on disk");
    let trace = standard_trace(quick);
    let dir = crate::report::results_dir();
    std::fs::create_dir_all(&dir).expect("mkdir results");
    let jsonl = dir.join("trace.jsonl");
    let csv = dir.join("trace.csv");
    // Buffered, with an explicit flush so a write error still surfaces.
    let create = |path| std::io::BufWriter::new(std::fs::File::create(path).expect("create"));
    let mut out = create(&jsonl);
    trace.write_jsonl(&mut out).expect("write jsonl");
    out.flush().expect("write jsonl");
    let mut out = create(&csv);
    trace.write_csv(&mut out).expect("write csv");
    out.flush().expect("write csv");
    println!(
        "wrote {} ({} records) and {}",
        jsonl.display(),
        trace.records.len(),
        csv.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_trace_is_generated_once_and_is_the_plain_testbed_run() {
        let first = standard_trace(true);
        assert!(std::ptr::eq(first, standard_trace(true)));
        assert_eq!(*first, run_testbed(&standard_config(true)));
    }

    #[test]
    fn trace_for_shares_only_the_standard_configuration() {
        let standard = standard_config(true);
        match trace_for(&standard) {
            Cow::Borrowed(t) => assert!(std::ptr::eq(t, standard_trace(true))),
            Cow::Owned(_) => panic!("the standard configuration must share"),
        }
        let mut other = standard;
        other.detector.harvest_delay = 15;
        match trace_for(&other) {
            Cow::Owned(t) => assert_eq!(t, run_testbed(&other)),
            Cow::Borrowed(_) => panic!("a non-standard detector must not share"),
        }
    }
}
