//! Every claim the repository checks, each bound written once: the
//! paper's (its tables and figures, X1–X3) and the repository's own
//! measured claims (X11–X15).
//!
//! **The paper's claims** live in one table, [`PAPER_BOUNDS`]. Each
//! bound is tagged by its [`Claim`]: `Reproduced` (inside the paper's
//! band, or a shape claim that holds) or `Departure` (a recorded
//! deviation, checked against its recorded value and tolerance so it
//! cannot silently grow). One `check_paper_<artifact>` per committed
//! paper CSV reads the CSV text and returns its [`Row`]s, failing with
//! the id of the first bound that does not hold. Quantities no CSV
//! carries (X1's correlations and CVs, Figure 6's means) are checked
//! where the experiment computes them, through the same table. Bounds
//! that need the paper's scale bind only there; a reduced run reports
//! them unbound.
//!
//! **The repository's own claims** are one function each over the
//! artifact section the claim is about: X12–X14 over `BENCH_serve.json`
//! as [`json::parse`] reads it, X15 over `BENCH_fleet.json` and
//! `fleet_archetypes.csv`, X11 over `fault_matrix.csv`.
//!
//! Every check has two callers: the experiment, on what it is about to
//! write ([`assert_claim`], [`assert_paper`]), and `fgcs-exp gate`, on
//! the committed artifacts ([`gate`], [`gate_results`]). The paper's
//! checks have a third, `tests/pipeline.rs`, at its reduced scale.
//!
//! A quick run writes the same sections at reduced scale. Where a bound
//! needs full scale to mean anything (X12's loop speedup, X13's
//! failover timings) its check reads the scale from the section and
//! skips the bound below it; [`gate`] requires full scale.

use std::collections::BTreeMap;

use fgcs_core::calibrate::{threshold_from_rows, Calibration};
use fgcs_core::contention::Fig1Row;
use fgcs_predict::eval::EvalConfig;
use fgcs_testbed::analysis::{CauseCounts, Range, Regularity, Table2};
use fgcs_testbed::fleet::Archetype;
use fgcs_testbed::json::{self, Value};
use fgcs_testbed::trace::Trace;

/// A JSON object as [`json::parse`] reads it.
pub type Section = BTreeMap<String, Value>;

/// The connection rung X12's multi-loop claim is made at.
pub const X12_GATE_CONNS: u64 = 4096;
/// Machines in X13's full-scale cluster replay.
pub const X13_MACHINES: u64 = 16;
/// Machines in X15's full-scale fleet sweep.
pub const X15_MACHINES: u64 = 100_000;

#[derive(Clone, Copy)]
enum Op {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
}

impl Op {
    fn holds(self, v: f64, limit: f64) -> bool {
        match self {
            Op::Lt => v < limit,
            Op::Le => v <= limit,
            Op::Eq => v == limit,
            Op::Ge => v >= limit,
            Op::Gt => v > limit,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Eq => "==",
            Op::Ge => ">=",
            Op::Gt => ">",
        }
    }
}

/// Requires `s[key] op limit`; the error names the bound.
fn need(s: &Section, key: &str, op: Op, limit: f64) -> Result<(), String> {
    let v = json::get_f64(s, key)?;
    if op.holds(v, limit) {
        Ok(())
    } else {
        Err(format!("{key} = {v}, need {} {limit}", op.symbol()))
    }
}

/// Requires `s[key] op s[other]`.
fn need_vs(s: &Section, key: &str, op: Op, other: &str) -> Result<(), String> {
    need(s, key, op, json::get_f64(s, other)?).map_err(|e| format!("{e} ({other})"))
}

/// Field `key` of `s` as an object.
pub fn section<'a>(s: &'a Section, key: &str) -> Result<&'a Section, String> {
    json::get(s, key)?
        .as_obj()
        .ok_or_else(|| format!("field {key:?} is not an object"))
}

/// X12: at the gate rung, 4 event loops ingest at least 2x one loop
/// under the same offered load, and do not buy it with query latency.
/// Takes the `multicore` section of `BENCH_serve.json`.
pub fn check_x12_multicore(multicore: &Section) -> Result<(), String> {
    let gate = section(multicore, "gate")?;
    if json::get_u64(gate, "conns")? < X12_GATE_CONNS {
        // A quick run's rung is logged, not claimed: two loops on a
        // saturated host need the full windows to separate cleanly.
        return Ok(());
    }
    need(gate, "speedup", Op::Ge, 2.0)?;
    need(gate, "p99_ratio", Op::Le, 1.5)
}

/// X13: a SIGKILLed primary's follower promotes itself with no operator
/// step, the router fails over and reads from followers, no acked
/// record is lost, and queries stay responsive through the failover.
/// Takes the `cluster` section of `BENCH_serve.json`.
pub fn check_x13_cluster(s: &Section) -> Result<(), String> {
    need(s, "failover_records_lost", Op::Eq, 0.0)?;
    need(s, "failover_count", Op::Ge, 1.0)?;
    need(s, "follower_reads", Op::Ge, 1.0)?;
    need(s, "failover_promote_ms", Op::Gt, 0.0)?;
    if json::get_u64(s, "machines")? < X13_MACHINES {
        // A quick replay is too short for its timings to carry bounds.
        return Ok(());
    }
    need(s, "failover_promote_ms", Op::Le, 2000.0)?;
    need(s, "failover_gap_ms", Op::Le, 2000.0)?;
    need(s, "during_query_p99_us", Op::Le, 50_000.0)
}

/// X14: prediction-driven placement evicts strictly less and wastes
/// strictly less work than both baselines, completes at least as much,
/// and no policy ever admits past its fairshare quota. Takes the
/// `sched` section of `BENCH_serve.json`.
pub fn check_x14_sched(s: &Section) -> Result<(), String> {
    need(s, "quota_violations", Op::Eq, 0.0)?;
    for baseline in ["greedy", "rand"] {
        let vs = |key: &str| format!("{baseline}_{key}");
        need_vs(s, "pred_evictions", Op::Lt, &vs("evictions"))?;
        need_vs(s, "pred_wasted_secs", Op::Lt, &vs("wasted_secs"))?;
        need_vs(
            s,
            "pred_completed_work_secs",
            Op::Ge,
            &vs("completed_work_secs"),
        )?;
    }
    Ok(())
}

/// X15: the fleet sweep fits its RSS budget, the sketch honours its
/// certified rank bound (also at the stressed capacity where compaction
/// runs), and the accumulators are bit-reproducible across worker
/// counts. Takes `BENCH_fleet.json`, whose keys are flat.
pub fn check_x15_fleet(s: &Section) -> Result<(), String> {
    need_vs(s, "peak_rss_mb", Op::Le, "rss_budget_mb")?;
    need(s, "sketch_within_bound", Op::Eq, 1.0)?;
    need(s, "repro_identical", Op::Eq, 1.0)?;
    need_vs(s, "stress_rank_err", Op::Le, "stress_rank_bound")
}

/// Parses `json`, the section an experiment is about to write, and
/// panics naming the failed bound unless `check` passes on it.
pub fn assert_claim(claim: &str, json: &str, check: fn(&Section) -> Result<(), String>) {
    let parsed = json::parse(json).unwrap_or_else(|e| panic!("{claim}: unreadable section: {e}"));
    let s = parsed
        .as_obj()
        .unwrap_or_else(|| panic!("{claim}: section is not an object"));
    if let Err(e) = check(s) {
        panic!("{claim}: {e}");
    }
}

/// Splices `{key: json}` into cwd `BENCH_serve.json`, keeping every
/// other section (X12's serve numbers, the other splicer's gate)
/// byte for byte. Starts a minimal document when X12 has not run.
pub fn splice_bench(key: &str, json: &str) {
    let path = "BENCH_serve.json";
    let base = std::fs::read_to_string(path).unwrap_or_else(|_| "{}".to_string());
    let out = json::splice_key(&base, key, json).unwrap_or_else(|e| panic!("{path}: {e}"));
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("spliced {key} gate into {path}");
}

/// Every claim on the committed artifacts, at full scale: the X12–X14
/// sections of `serve` (`BENCH_serve.json`) and `fleet`
/// (`BENCH_fleet.json`). The error names the claim and the failed bound.
pub fn gate(serve: &Section, fleet: &Section) -> Result<(), String> {
    let claim = |name: &str, r: Result<(), String>| r.map_err(|e| format!("{name}: {e}"));
    claim("X12 fan-in scaling", section(serve, "scaling").map(|_| ()))?;
    claim("X12 multi-loop ingest", {
        section(serve, "multicore").and_then(|m| {
            need(section(m, "gate")?, "conns", Op::Eq, X12_GATE_CONNS as f64)?;
            check_x12_multicore(m)
        })
    })?;
    claim("X13 unattended failover", {
        section(serve, "cluster").and_then(|c| {
            need(c, "machines", Op::Ge, X13_MACHINES as f64)?;
            check_x13_cluster(c)
        })
    })?;
    claim(
        "X14 predictive placement",
        section(serve, "sched").and_then(check_x14_sched),
    )?;
    claim("X15 fleet sweep", {
        need(fleet, "fleet_machines", Op::Ge, X15_MACHINES as f64)
            .and_then(|()| check_x15_fleet(fleet))
    })
}

/// X11: the fault matrix has one row per fault scale of the preset,
/// in order; the weekday and the weekend mean interval fall strictly
/// with the scale; and no cause's share moves more than a point from
/// x0 to x4. Takes `fault_matrix.csv`; the bounds bind at full scale.
pub fn check_x11_fault_matrix(csv: &str, full: bool) -> Result<Vec<Row>, String> {
    let csv = Csv::parse(csv)?;
    let scales = csv.column("scale")?;
    if scales != X11_SCALES {
        return Err(format!("fault scales {scales:?}, need {X11_SCALES:?}"));
    }
    let mut rows = Rows::new(full);
    for (of, col) in [("weekday", "weekday_mean_h"), ("weekend", "weekend_mean_h")] {
        let means = csv.column(col)?;
        let rise = (1..means.len())
            .find(|&i| means[i] >= means[i - 1])
            .map(|i| format!("{} h at x{}", means[i], scales[i]));
        rows.shape("x11.means_fall", of, rise);
    }
    for (of, col) in [
        ("cpu", "cpu_frac"),
        ("mem", "mem_frac"),
        ("urr", "urr_frac"),
    ] {
        let share = csv.column(col)?;
        let drift = (share[share.len() - 1] - share[0]) * 100.0;
        rows.value("x11.cause_drift", of, drift, format!("{drift:+.2} pp"));
    }
    hold(rows.rows)
}

/// The fault scales X11 runs the noisy preset at.
pub const X11_SCALES: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];

/// X15: the fleet table has one row per archetype, then the combined
/// fleet. Takes `fleet_archetypes.csv`.
pub fn check_x15_archetypes(csv: &str) -> Result<(), String> {
    let csv = Csv::parse(csv)?;
    let col = csv.col("archetype")?;
    let names: Vec<&str> = csv.rows.iter().map(|r| r[col]).collect();
    let want: Vec<&str> = Archetype::ALL
        .iter()
        .map(|a| a.name())
        .chain(["combined"])
        .collect();
    if names != want {
        return Err(format!("archetype rows {names:?}, need {want:?}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The paper's claims.
// ---------------------------------------------------------------------

/// How a paper bound is checked, and so how its rows are tagged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Claim {
    /// `Reproduced`: a yes/no shape claim holds.
    Holds,
    /// `Reproduced`: the measured value, or both ends of a measured
    /// range, lie inside the paper's band `[lo, hi]`.
    Band(f64, f64),
    /// `Departure`: a recorded deviation from the paper. The measured
    /// value, or both ends of a measured range, lie within `tol` of the
    /// recorded `lo..=hi`.
    Departure { lo: f64, hi: f64, tol: f64 },
}

/// One claim of the paper and the bound it is checked against.
#[derive(Debug)]
pub struct Bound {
    /// What rows, failures and EXPERIMENTS.md cite it by.
    pub id: &'static str,
    /// What is measured.
    pub quantity: &'static str,
    /// The paper's value, as the paper gives it.
    pub paper: &'static str,
    /// The bound.
    pub claim: Claim,
    /// Binds only on an artifact made at the paper's scale.
    pub full_scale_only: bool,
}

const fn bound(
    id: &'static str,
    quantity: &'static str,
    paper: &'static str,
    claim: Claim,
    full_scale_only: bool,
) -> Bound {
    Bound {
        id,
        quantity,
        paper,
        claim,
        full_scale_only,
    }
}

/// A departure recorded as one value.
const fn departure(value: f64, tol: f64) -> Claim {
    departed(value, value, tol)
}

/// A departure recorded as a range.
const fn departed(lo: f64, hi: f64, tol: f64) -> Claim {
    Claim::Departure { lo, hi, tol }
}

/// The last field of a [`Bound`]: binds at the paper's scale only, or
/// at any scale.
const FULL: bool = true;
const ANY: bool = false;

/// Every bound the paper's claims are checked against, and X11's on
/// how two of them move under injected faults.
#[rustfmt::skip]
pub static PAPER_BOUNDS: &[Bound] = &[
    // Table 1, against the workloads' values in [`TABLE1`].
    bound("table1.cpu", "CPU usage alone, largest gap to Table 1", "Table 1", Claim::Band(0.0, 0.01), ANY),
    bound("table1.memory", "resident and virtual MB, largest gap to Table 1", "Table 1", Claim::Band(0.0, 2.0), ANY),
    // Figure 1 and the thresholds read off it.
    bound("fig1.monotone", "M = 1 reduction never falls as LH grows", "grows with LH", Claim::Holds, ANY),
    bound("fig1.falls_with_m", "reduction falls with M at every LH from Th1", "decreases with M", Claim::Holds, FULL),
    bound("fig1.converging", "first M gap above last M gap at every LH from Th1", "curves converge", Claim::Holds, ANY),
    bound("fig1.full_load", "M = 1 reduction at LH 1.0, nice-0 guest", "~50%", Claim::Band(0.45, 0.55), ANY),
    bound("fig1.full_load_nice19", "M = 1 reduction at LH 1.0, nice-19 guest", "10-20%", Claim::Band(0.10, 0.20), ANY),
    bound("calibration.th1", "Th1: lowest LH of steady > 5% reduction, nice 0", "0.20", Claim::Band(0.175, 0.225), ANY),
    bound("calibration.th2", "Th2: lowest LH of steady > 5% reduction, nice 19", "0.60", departure(0.55, 0.025), FULL),
    bound("calibration.separation", "Th2 - Th1", "0.40", Claim::Band(0.3, 0.5), ANY),
    // Figure 3.
    bound("fig3.gap", "guest CPU gained at equal priority, host LH 0.2", "~2 pp", Claim::Band(0.01, 0.03), ANY),
    bound("fig3.gap_lightest", "guest CPU gained at equal priority, host LH 0.1", "~2 pp", departure(0.0, 0.005), FULL),
    // Table 2: per-machine counts over the 92 days, and shares.
    bound("table2.total", "occurrences per machine", "405-453", departed(397.0, 481.0, 5.0), FULL),
    bound("table2.cpu", "CPU-contention occurrences per machine", "283-356", departed(278.0, 359.0, 5.0), FULL),
    bound("table2.mem", "memory-contention occurrences per machine", "83-121", departed(91.0, 122.0, 5.0), FULL),
    bound("table2.urr", "URR occurrences per machine", "3-12", Claim::Band(3.0, 12.0), FULL),
    bound("table2.cpu_pct", "CPU-contention % per machine", "69-79%", Claim::Band(69.0, 79.0), FULL),
    bound("table2.mem_pct", "memory-contention % per machine", "19-30%", Claim::Band(19.0, 30.0), FULL),
    bound("table2.urr_pct", "URR % per machine", "0-3%", Claim::Band(0.0, 3.0), ANY),
    bound("table2.reboots", "URR from reboots (raw outage < 60 s)", "~90%", Claim::Band(0.85, 0.95), ANY),
    bound("table2.causes", "testbed-wide CPU > memory > URR occurrences", "UEC dominates", Claim::Holds, ANY),
    // Figure 6.
    bound("fig6.weekday_shorter", "weekday CDF at or above weekend CDF at every length", "weekday shorter", Claim::Holds, FULL),
    bound("fig6.under_5min", "weekday intervals shorter than 5 min", "~5%", Claim::Band(0.025, 0.075), ANY),
    bound("fig6.weekday_2_4h", "weekday intervals in 2-4 h", "~60%", departure(0.1611, 0.02), FULL),
    bound("fig6.weekend_4_6h", "weekend intervals in 4-6 h", "~60%", departure(0.0996, 0.02), FULL),
    bound("fig6.weekday_mean", "weekday mean interval, hours", "close to 3 h", departure(4.30, 0.25), FULL),
    bound("fig6.weekend_mean", "weekend mean interval, hours", "above 5 h", Claim::Band(5.0, f64::INFINITY), ANY),
    // Figure 7.
    bound("fig7.spike", "4-5 AM mean less the machine count", "= machines", Claim::Band(-0.5, 0.5), ANY),
    bound("fig7.night_under_day", "mean over 10-18 h above mean over 1-6 h less 4-5 AM", "day busier", Claim::Holds, ANY),
    bound("fig7.weekday_over_weekend", "weekday mean above weekend mean, every hour 10-18", "weekday busier", Claim::Holds, ANY),
    // X1 (§5.3).
    bound("x1.correlation", "mean pairwise correlation of same-type days", "high", Claim::Band(0.5, 1.0), ANY),
    bound("x1.cv", "mean per-hour coefficient of variation", "small", Claim::Band(0.0, 1.0), ANY),
    // X2 (§5.3, §6): the paper's history-window scheme.
    bound("predict.beats_baselines", "history-window below every structure-free baseline", "history predicts", Claim::Holds, ANY),
    bound("predict.history_best", "a history variant has the best Brier score", "history best", Claim::Holds, ANY),
    bound("predict.lead_1h", "hourly-rate's Brier lead over history, 1 h", "history best", departure(0.00122, 0.002), FULL),
    bound("predict.lead_2h", "hourly-rate's Brier lead over history, 2 h", "history best", departure(0.00492, 0.002), FULL),
    // X3 (§1): proactive management.
    bound("proactive.response", "proactive mean response below oblivious", "improved [10,18]", Claim::Holds, ANY),
    bound("proactive.failures", "proactive failures per job at most oblivious", "fewer failures", Claim::Holds, ANY),
    // X11 (§5 under injected measurement faults): gaps censor the long
    // intervals first, and drops thin the data and censoring removes
    // it, but neither invents failures.
    bound("x11.means_fall", "mean interval falls strictly with fault scale", "not in the paper", Claim::Holds, FULL),
    bound("x11.cause_drift", "cause share at x4 less share at x0, pp", "Table 2 mix", Claim::Band(-1.0, 1.0), FULL),
];

/// Table 1 of the paper: each workload's CPU usage alone, resident MB
/// and virtual MB.
pub const TABLE1: [(&str, f64, u32, u32); 10] = [
    ("apsi", 0.98, 193, 205),
    ("galgel", 0.99, 29, 155),
    ("bzip2", 0.97, 180, 182),
    ("mcf", 0.99, 96, 96),
    ("H1", 0.086, 71, 122),
    ("H2", 0.092, 213, 247),
    ("H3", 0.172, 53, 151),
    ("H4", 0.219, 68, 122),
    ("H5", 0.570, 210, 236),
    ("H6", 0.662, 84, 113),
];

/// A departure's recorded value and tolerance, `recorded 0.55 ± 0.025`;
/// empty for a reproduced bound.
pub fn recorded(b: &Bound) -> String {
    match b.claim {
        Claim::Departure { lo, hi, tol } if lo == hi => format!("recorded {lo} ± {tol}"),
        Claim::Departure { lo, hi, tol } => format!("recorded {lo}-{hi} ± {tol}"),
        Claim::Holds | Claim::Band(..) => String::new(),
    }
}

/// The bound `id` in [`PAPER_BOUNDS`].
fn paper_bound(id: &str) -> &'static Bound {
    PAPER_BOUNDS
        .iter()
        .find(|b| b.id == id)
        .unwrap_or_else(|| panic!("no paper bound {id}"))
}

/// The traced lab a trace artifact was made from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lab {
    /// Machines traced.
    pub machines: u32,
    /// Days traced.
    pub days: u32,
}

impl Lab {
    /// The paper's testbed: 20 machines over 92 days.
    pub const PAPER: Lab = Lab {
        machines: 20,
        days: 92,
    };

    /// The lab `trace` was traced from.
    pub fn of(trace: &Trace) -> Lab {
        Lab {
            machines: trace.meta.machines,
            days: trace.meta.days,
        }
    }
}

/// One bound checked on one artifact.
#[derive(Clone, Debug)]
pub struct Row {
    /// The bound.
    pub bound: &'static Bound,
    /// Which instance of the bound, when it is checked more than once
    /// on an artifact (a day type, a window, a guest priority).
    pub of: String,
    /// The measured value, as printed.
    pub measured: String,
    /// Whether the bound holds; `None` when it does not bind at the
    /// artifact's scale.
    pub holds: Option<bool>,
}

impl Row {
    /// `id (of)`, what failures and the departure list name.
    pub fn name(&self) -> String {
        if self.of.is_empty() {
            self.bound.id.to_string()
        } else {
            format!("{} ({})", self.bound.id, self.of)
        }
    }

    /// The row's tag and, for a departure, its recorded value.
    pub fn tag(&self) -> String {
        match self.bound.claim {
            Claim::Departure { .. } => format!("Departure: {}", recorded(self.bound)),
            Claim::Holds | Claim::Band(..) => "Reproduced".to_string(),
        }
    }

    fn failure(&self) -> String {
        let need = match self.bound.claim {
            Claim::Holds => "it to hold".to_string(),
            Claim::Band(lo, hi) => format!("{lo} to {hi}"),
            Claim::Departure { lo, hi, tol } => format!("{} to {}", lo - tol, hi + tol),
        };
        format!(
            "{}: {} = {}, need {need}",
            self.name(),
            self.bound.quantity,
            self.measured
        )
    }
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = match self.holds {
            Some(true) => "",
            Some(false) => " FAILS",
            None => " (binds at full scale only)",
        };
        write!(
            f,
            "{:<34} {:<52} measured: {:<18} paper: {:<16} {}{verdict}",
            self.name(),
            self.bound.quantity,
            self.measured,
            self.bound.paper,
            self.tag()
        )
    }
}

/// Rows under construction for one artifact at one scale.
struct Rows {
    full: bool,
    rows: Vec<Row>,
}

impl Rows {
    fn new(full: bool) -> Self {
        Rows {
            full,
            rows: Vec::new(),
        }
    }

    fn push(&mut self, id: &str, of: &str, measured: String, holds: impl FnOnce(Claim) -> bool) {
        let bound = paper_bound(id);
        let binds = self.full || !bound.full_scale_only;
        self.rows.push(Row {
            bound,
            of: of.to_string(),
            measured,
            holds: binds.then(|| holds(bound.claim)),
        });
    }

    /// A measured range `lo..=hi` (a value when `lo == hi`) against the
    /// band or the departure `id`.
    fn range(&mut self, id: &str, of: &str, (lo, hi): (f64, f64), measured: String) {
        self.push(id, of, measured, |claim| match claim {
            Claim::Band(a, b) => a <= lo && hi <= b,
            Claim::Departure { lo: a, hi: b, tol } => a - tol <= lo && hi <= b + tol,
            Claim::Holds => unreachable!("{id} is a yes/no claim"),
        });
    }

    fn value(&mut self, id: &str, of: &str, v: f64, measured: String) {
        self.range(id, of, (v, v), measured);
    }

    /// The yes/no claim `id`; `measured` says what was seen.
    fn holds(&mut self, id: &str, of: &str, ok: bool, measured: String) {
        self.push(id, of, measured, |claim| {
            assert_eq!(claim, Claim::Holds, "{id} is not a yes/no claim");
            ok
        });
    }

    /// The shape claim `id`, which holds unless a counterexample was
    /// found.
    fn shape(&mut self, id: &str, of: &str, counterexample: Option<String>) {
        let measured = counterexample
            .as_ref()
            .map_or("yes".into(), |c| format!("no: {c}"));
        self.holds(id, of, counterexample.is_none(), measured);
    }
}

/// `rows`, or the first bound among them that does not hold.
pub fn hold(rows: Vec<Row>) -> Result<Vec<Row>, String> {
    match rows.iter().find(|r| r.holds == Some(false)) {
        Some(r) => Err(r.failure()),
        None => Ok(rows),
    }
}

/// Prints `rows`, an experiment's check of the artifact it is about to
/// write. A failed check panics naming the bound at the paper's scale
/// (`full`); a quick run is smaller than any scale the bounds are set
/// for, so there the failure is printed.
pub fn assert_paper(artifact: &str, rows: Result<Vec<Row>, String>, full: bool) {
    match rows {
        Ok(rows) => rows.iter().for_each(|r| println!("{r}")),
        Err(e) if full => panic!("{artifact}: {e}"),
        Err(e) => println!("{artifact}: {e} (not held at quick scale)"),
    }
}

/// A CSV artifact as the experiments write it: a header line, then rows
/// of as many comma-separated cells.
struct Csv<'a> {
    header: Vec<&'a str>,
    rows: Vec<Vec<&'a str>>,
}

impl<'a> Csv<'a> {
    fn parse(text: &'a str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().ok_or("empty CSV")?.split(',').collect();
        let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
        if let Some((i, r)) = rows
            .iter()
            .enumerate()
            .find(|(_, r)| r.len() != header.len())
        {
            return Err(format!(
                "row {} has {} cells, the header {}",
                i + 1,
                r.len(),
                header.len()
            ));
        }
        Ok(Csv { header, rows })
    }

    fn col(&self, name: &str) -> Result<usize, String> {
        self.header
            .iter()
            .position(|h| *h == name)
            .ok_or_else(|| format!("no column {name:?}"))
    }

    fn num(row: &[&str], col: usize) -> Result<f64, String> {
        row[col]
            .parse()
            .map_err(|_| format!("{:?} is not a number", row[col]))
    }

    /// Column `name` as numbers.
    fn column(&self, name: &str) -> Result<Vec<f64>, String> {
        let c = self.col(name)?;
        self.rows.iter().map(|r| Self::num(r, c)).collect()
    }
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Table 1: each workload's CPU usage alone and its memory footprint
/// against the paper's. Takes `table1.csv`.
pub fn check_paper_table1(csv: &str, full: bool) -> Result<Vec<Row>, String> {
    let csv = Csv::parse(csv)?;
    let (name, cpu) = (csv.col("name")?, csv.col("cpu_measured")?);
    let (res, virt) = (csv.col("resident_mb")?, csv.col("virtual_mb")?);
    if csv.rows.len() != TABLE1.len() {
        return Err(format!(
            "{} workloads, need {}",
            csv.rows.len(),
            TABLE1.len()
        ));
    }
    let (mut cpu_gap, mut mb_gap) = ((0.0f64, ""), (0.0f64, ""));
    for row in &csv.rows {
        let &(w, paper_cpu, paper_res, paper_virt) = TABLE1
            .iter()
            .find(|p| p.0 == row[name])
            .ok_or_else(|| format!("workload {:?} is not in Table 1", row[name]))?;
        let gap = (Csv::num(row, cpu)? - paper_cpu).abs();
        if gap > cpu_gap.0 {
            cpu_gap = (gap, w);
        }
        for (col, paper) in [(res, paper_res), (virt, paper_virt)] {
            let gap = (Csv::num(row, col)? - paper as f64).abs();
            if gap > mb_gap.0 {
                mb_gap = (gap, w);
            }
        }
    }
    let mut rows = Rows::new(full);
    let measured = format!("{:.2} pp ({})", cpu_gap.0 * 100.0, cpu_gap.1);
    rows.value("table1.cpu", "", cpu_gap.0, measured);
    let measured = format!("{} MB ({})", mb_gap.0, mb_gap.1);
    rows.value("table1.memory", "", mb_gap.0, measured);
    hold(rows.rows)
}

/// Figure 1 points as `Fig1Row`s from a `lh,m1,...` table.
fn fig1_points(csv: &Csv) -> Result<Vec<Fig1Row>, String> {
    let lh = csv.col("lh")?;
    let mut points = Vec::new();
    for row in &csv.rows {
        for (i, h) in csv.header.iter().enumerate() {
            if let Some(m) = h.strip_prefix('m') {
                points.push(Fig1Row {
                    lh: Csv::num(row, lh)?,
                    m: m.parse().map_err(|_| format!("bad column {h:?}"))?,
                    reduction: Csv::num(row, i)?,
                });
            }
        }
    }
    Ok(points)
}

/// `(lh, reduction)` of group size `m`, in `LH` order.
fn series(points: &[Fig1Row], m: usize) -> Vec<(f64, f64)> {
    let mut s: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.m == m)
        .map(|p| (p.lh, p.reduction))
        .collect();
    s.sort_by(|a, b| a.0.total_cmp(&b.0));
    s
}

/// The Figure 1 shape rows of one guest priority's points.
fn fig1_shape(rows: &mut Rows, points: &[Fig1Row], nice: i8, of: &str) -> Result<(), String> {
    let one = series(points, 1);
    let fall = one.windows(2).find(|w| w[1].1 < w[0].1);
    rows.shape(
        "fig1.monotone",
        of,
        fall.map(|w| format!("{} at LH {}", w[1].1, w[1].0)),
    );
    let &(top, full_load) = one.last().ok_or("no M = 1 series")?;
    if top != 1.0 {
        return Err(format!("the M = 1 series ends at LH {top}, not 1.0"));
    }
    if nice != 0 {
        rows.value("fig1.full_load_nice19", of, full_load, pct(full_load));
        return Ok(());
    }
    rows.value("fig1.full_load", of, full_load, pct(full_load));

    let th1 = threshold_from_rows(points);
    let mut ms: Vec<usize> = points.iter().map(|p| p.m).collect();
    ms.sort_unstable();
    ms.dedup();
    let (mut rising, mut diverging) = (None, None);
    for &(lh, _) in one.iter().filter(|&&(lh, _)| lh >= th1) {
        let at: Vec<f64> = ms
            .iter()
            .map(|&m| {
                points
                    .iter()
                    .find(|p| p.m == m && p.lh == lh)
                    .map(|p| p.reduction)
                    .ok_or_else(|| format!("no point at LH {lh}, M = {m}"))
            })
            .collect::<Result<_, _>>()?;
        if let Some(i) = (1..at.len()).find(|&i| at[i] >= at[i - 1]) {
            rising.get_or_insert(format!("M = {} at LH {lh}", ms[i]));
        }
        let n = at.len();
        if n >= 3 && at[0] - at[1] <= at[n - 2] - at[n - 1] {
            diverging.get_or_insert(format!("LH {lh}"));
        }
    }
    rows.shape("fig1.falls_with_m", of, rising);
    rows.shape("fig1.converging", of, diverging);
    Ok(())
}

/// Figure 1(a): the nice-0 guest's shape. Takes `fig1a.csv`.
pub fn check_paper_fig1a(csv: &str, full: bool) -> Result<Vec<Row>, String> {
    check_fig1(csv, full, 0)
}

/// Figure 1(b): the nice-19 guest's shape. Takes `fig1b.csv`.
pub fn check_paper_fig1b(csv: &str, full: bool) -> Result<Vec<Row>, String> {
    check_fig1(csv, full, 19)
}

fn check_fig1(csv: &str, full: bool, nice: i8) -> Result<Vec<Row>, String> {
    let points = fig1_points(&Csv::parse(csv)?)?;
    let mut rows = Rows::new(full);
    fig1_shape(&mut rows, &points, nice, "")?;
    hold(rows.rows)
}

/// The thresholds, read off the calibration grid by
/// [`Calibration::from_rows`], and both priorities' shapes. Takes
/// `calibration.csv`.
pub fn check_paper_calibration(csv: &str, full: bool) -> Result<Vec<Row>, String> {
    let csv = Csv::parse(csv)?;
    let (nice, lh, m, red) = (
        csv.col("guest_nice")?,
        csv.col("lh")?,
        csv.col("m")?,
        csv.col("reduction")?,
    );
    let (mut equal, mut lowest) = (Vec::new(), Vec::new());
    for row in &csv.rows {
        let point = Fig1Row {
            lh: Csv::num(row, lh)?,
            m: Csv::num(row, m)? as usize,
            reduction: Csv::num(row, red)?,
        };
        match row[nice] {
            "0" => equal.push(point),
            "19" => lowest.push(point),
            other => return Err(format!("guest nice {other:?}, need 0 or 19")),
        }
    }
    let mut rows = Rows::new(full);
    fig1_shape(&mut rows, &equal, 0, "nice 0")?;
    fig1_shape(&mut rows, &lowest, 19, "nice 19")?;
    // The calibration grid is too fine for single points to fall with M
    // (Figure 1's grid carries that claim).
    rows.rows.retain(|r| r.bound.id != "fig1.falls_with_m");
    let t = Calibration::from_rows(equal, lowest).thresholds;
    rows.value("calibration.th1", "", t.th1, format!("{:.2}", t.th1));
    rows.value("calibration.th2", "", t.th2, format!("{:.2}", t.th2));
    let sep = t.th2 - t.th1;
    rows.value("calibration.separation", "", sep, format!("{sep:.2}"));
    hold(rows.rows)
}

/// Figure 3: what an equal-priority guest gains over a nice-19 one
/// under light host load. Takes `fig3.csv`.
pub fn check_paper_fig3(csv: &str, full: bool) -> Result<Vec<Row>, String> {
    let csv = Csv::parse(csv)?;
    let (host, eq, low) = (
        csv.col("host_usage")?,
        csv.col("equal_prio")?,
        csv.col("nice19")?,
    );
    let mut rows = Rows::new(full);
    for (id, load) in [("fig3.gap", "0.2"), ("fig3.gap_lightest", "0.1")] {
        let gaps: Vec<f64> = csv
            .rows
            .iter()
            .filter(|r| r[host] == load)
            .map(|r| Ok(Csv::num(r, eq)? - Csv::num(r, low)?))
            .collect::<Result<_, String>>()?;
        if gaps.is_empty() {
            return Err(format!("no rows at host load {load}"));
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        rows.value(id, "", mean, format!("{:+.2} pp", mean * 100.0));
    }
    hold(rows.rows)
}

fn table2_rows(csv: &str, lab: Lab) -> Result<Vec<Row>, String> {
    let csv = Csv::parse(csv)?;
    if csv.rows.len() != lab.machines as usize {
        return Err(format!(
            "{} machines, the lab has {}",
            csv.rows.len(),
            lab.machines
        ));
    }
    let col = |name| csv.col(name);
    let (total, cpu, mem, urr, reboots) = (
        col("total")?,
        col("cpu")?,
        col("mem")?,
        col("urr")?,
        col("urr_reboots")?,
    );
    let count = |row: &[&str], c: usize| {
        row[c]
            .parse::<usize>()
            .map_err(|_| format!("{:?} is not a count", row[c]))
    };
    let per_machine = csv
        .rows
        .iter()
        .map(|r| {
            Ok(CauseCounts {
                total: count(r, total)?,
                cpu: count(r, cpu)?,
                mem: count(r, mem)?,
                urr: count(r, urr)?,
                urr_reboots: count(r, reboots)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let t2 = Table2::from_per_machine(per_machine);
    let bounds = |r: Range| (r.min as f64, r.max as f64);
    let mut rows = Rows::new(lab == Lab::PAPER);
    for (id, range) in [
        ("table2.total", t2.total),
        ("table2.cpu", t2.cpu),
        ("table2.mem", t2.mem),
        ("table2.urr", t2.urr),
    ] {
        rows.range(id, "", bounds(range), range.to_string());
    }
    let (cpu_pct, mem_pct, urr_pct) = t2.percentage_ranges();
    for (id, range) in [
        ("table2.cpu_pct", cpu_pct),
        ("table2.mem_pct", mem_pct),
        ("table2.urr_pct", urr_pct),
    ] {
        rows.range(id, "", bounds(range), format!("{range}%"));
    }
    let fraction = t2.urr_reboot_fraction;
    rows.value("table2.reboots", "", fraction, pct(fraction));
    let sum = |get: fn(&CauseCounts) -> usize| t2.per_machine.iter().map(get).sum::<usize>();
    let (c, m, u) = (sum(|c| c.cpu), sum(|c| c.mem), sum(|c| c.urr));
    rows.holds(
        "table2.causes",
        "",
        c > m && m > u,
        format!("{c} > {m} > {u}"),
    );
    Ok(rows.rows)
}

/// Table 2: unavailability by cause, per machine. Takes `table2.csv`
/// traced from `lab`.
pub fn check_paper_table2(csv: &str, lab: Lab) -> Result<Vec<Row>, String> {
    hold(table2_rows(csv, lab)?)
}

fn fig6_rows(csv: &str, lab: Lab) -> Result<Vec<Row>, String> {
    let csv = Csv::parse(csv)?;
    let (hours, wd, we) = (
        csv.column("hours")?,
        csv.column("weekday_cdf")?,
        csv.column("weekend_cdf")?,
    );
    let at = |h: f64, cdf: &[f64]| {
        hours
            .iter()
            .position(|&x| (x - h).abs() < 1e-3)
            .map(|i| cdf[i])
            .ok_or_else(|| format!("no CDF point at {h} h"))
    };
    let mut rows = Rows::new(lab == Lab::PAPER);
    let below = (0..hours.len()).find(|&i| wd[i] < we[i]);
    let below = below.map(|i| format!("at {} h", hours[i]));
    rows.shape("fig6.weekday_shorter", "", below);
    let short = at(5.0 / 60.0, &wd)?;
    rows.value("fig6.under_5min", "", short, pct(short));
    let mass = at(4.0, &wd)? - at(2.0, &wd)?;
    rows.value("fig6.weekday_2_4h", "", mass, pct(mass));
    let mass = at(6.0, &we)? - at(4.0, &we)?;
    rows.value("fig6.weekend_4_6h", "", mass, pct(mass));
    Ok(rows.rows)
}

/// Figure 6: the availability-interval CDFs. Takes `fig6.csv` traced
/// from `lab`.
pub fn check_paper_fig6(csv: &str, lab: Lab) -> Result<Vec<Row>, String> {
    hold(fig6_rows(csv, lab)?)
}

/// Figure 6's mean interval lengths, in hours, which no CSV carries:
/// the experiment checks them where it computes them.
pub fn check_paper_interval_means(
    weekday: f64,
    weekend: f64,
    lab: Lab,
) -> Result<Vec<Row>, String> {
    let mut rows = Rows::new(lab == Lab::PAPER);
    rows.value("fig6.weekday_mean", "", weekday, format!("{weekday:.2} h"));
    rows.value("fig6.weekend_mean", "", weekend, format!("{weekend:.2} h"));
    hold(rows.rows)
}

fn fig7_rows(csv: &str, lab: Lab) -> Result<Vec<Row>, String> {
    let csv = Csv::parse(csv)?;
    let (day_type, hour, mean) = (csv.col("day_type")?, csv.col("hour")?, csv.col("mean")?);
    let mut means = [[f64::NAN; 24]; 2];
    for row in &csv.rows {
        let d = match row[day_type] {
            "weekday" => 0,
            "weekend" => 1,
            other => return Err(format!("day type {other:?}")),
        };
        let h = Csv::num(row, hour)? as usize;
        *means[d]
            .get_mut(h)
            .ok_or_else(|| format!("hour {h} out of range"))? = Csv::num(row, mean)?;
    }
    if let Some(d) = means.iter().position(|m| m.iter().any(|v| v.is_nan())) {
        return Err(format!("{} hours missing", ["weekday", "weekend"][d]));
    }
    let avg = |m: &[f64; 24], hours: &[usize]| {
        hours.iter().map(|&h| m[h]).sum::<f64>() / hours.len() as f64
    };
    let day: Vec<usize> = (10..=18).collect();
    let night = [1, 2, 3, 5, 6];
    let mut rows = Rows::new(lab == Lab::PAPER);
    for (m, of) in means.iter().zip(["weekday", "weekend"]) {
        let spike = m[4] - lab.machines as f64;
        let measured = format!("{:.3} on {}", m[4], lab.machines);
        rows.value("fig7.spike", of, spike, measured);
        let (d, n) = (avg(m, &day), avg(m, &night));
        rows.holds(
            "fig7.night_under_day",
            of,
            d > n,
            format!("{d:.2} vs {n:.2}"),
        );
    }
    let under = day.iter().find(|&&h| means[0][h] <= means[1][h]);
    let under = under.map(|h| format!("at {h} h"));
    rows.shape("fig7.weekday_over_weekend", "", under);
    Ok(rows.rows)
}

/// Figure 7: occurrences per hour of day. Takes `fig7.csv` traced from
/// `lab`.
pub fn check_paper_fig7(csv: &str, lab: Lab) -> Result<Vec<Row>, String> {
    hold(fig7_rows(csv, lab)?)
}

/// Every row of Table 2, Figure 6 and Figure 7 on one trace, each with
/// its verdict, failing or not: X10's pass matrix over seeds.
pub fn trace_rows(table2: &str, fig6: &str, fig7: &str, lab: Lab) -> Result<Vec<Row>, String> {
    let mut rows = table2_rows(table2, lab)?;
    rows.extend(fig6_rows(fig6, lab)?);
    rows.extend(fig7_rows(fig7, lab)?);
    Ok(rows)
}

/// X1 (§5.3): daily patterns repeat. No CSV carries these; the
/// experiment checks them where it computes them.
pub fn check_paper_regularity(r: &Regularity, lab: Lab) -> Result<Vec<Row>, String> {
    let mut rows = Rows::new(lab == Lab::PAPER);
    for (id, of, v) in [
        ("x1.correlation", "weekday", r.weekday_correlation),
        ("x1.correlation", "weekend", r.weekend_correlation),
        ("x1.cv", "weekday", r.weekday_mean_cv),
        ("x1.cv", "weekend", r.weekend_mean_cv),
    ] {
        rows.value(id, of, v, format!("{v:.2}"));
    }
    hold(rows.rows)
}

/// The predictors built from the trace's history, and the
/// structure-free baselines they are measured against.
const HISTORY: [&str; 2] = ["history-window", "history-no-trim"];
const STRUCTURE_FREE: [&str; 4] = ["global-rate", "renewal", "last-day", "base-rate"];

/// X2: the paper's history-window scheme against the baselines, window
/// by window. Takes `predict.csv`; at full scale it must hold every
/// window of [`EvalConfig::default`].
pub fn check_paper_predict(csv: &str, full: bool) -> Result<Vec<Row>, String> {
    let csv = Csv::parse(csv)?;
    let (window, predictor, brier) = (
        csv.col("window_secs")?,
        csv.col("predictor")?,
        csv.col("brier")?,
    );
    let mut windows: Vec<u64> = Vec::new();
    for row in &csv.rows {
        let w = Csv::num(row, window)? as u64;
        if windows.last() != Some(&w) {
            windows.push(w);
        }
    }
    if full && windows != EvalConfig::default().windows {
        return Err(format!("windows {windows:?}, need the standard ones"));
    }
    let mut rows = Rows::new(full);
    for &w in &windows {
        let scores: Vec<(&str, f64)> = csv
            .rows
            .iter()
            .filter(|r| r[window] == w.to_string())
            .map(|r| Ok((r[predictor], Csv::num(r, brier)?)))
            .collect::<Result<_, String>>()?;
        let best_of = |names: &[&str]| {
            scores
                .iter()
                .filter(|(p, _)| names.contains(p))
                .map(|&(_, b)| b)
                .reduce(f64::min)
                .ok_or_else(|| format!("no {names:?} score at window {w}"))
        };
        let trimmed = best_of(&["history-window"])?;
        let baseline = best_of(&STRUCTURE_FREE)?;
        let of = format!("{} h", w as f64 / 3600.0);
        let measured = format!("{trimmed:.5} vs {baseline:.5}");
        rows.holds("predict.beats_baselines", &of, trimmed < baseline, measured);
        let lead = best_of(&HISTORY)? - best_of(&["hourly-rate"])?;
        match w {
            3600 => rows.value("predict.lead_1h", &of, lead, format!("{lead:.5}")),
            7200 => rows.value("predict.lead_2h", &of, lead, format!("{lead:.5}")),
            _ => {
                let (best, _) = scores
                    .iter()
                    .copied()
                    .reduce(|a, b| if b.1 < a.1 { b } else { a })
                    .ok_or("no scores")?;
                rows.holds(
                    "predict.history_best",
                    &of,
                    HISTORY.contains(&best),
                    best.to_string(),
                );
            }
        }
    }
    hold(rows.rows)
}

/// X3: prediction-driven placement against oblivious placement, for
/// every job shape. Takes `proactive.csv`; at full scale it must hold
/// both single and gang jobs.
pub fn check_paper_proactive(csv: &str, full: bool) -> Result<Vec<Row>, String> {
    let csv = Csv::parse(csv)?;
    let (shape, policy) = (csv.col("shape")?, csv.col("policy")?);
    let (response, failures) = (csv.col("mean_response_secs")?, csv.col("mean_failures")?);
    let mut shapes: Vec<&str> = csv.rows.iter().map(|r| r[shape]).collect();
    shapes.dedup();
    if full && shapes != ["single", "gang4"] {
        return Err(format!("job shapes {shapes:?}, need single and gang4"));
    }
    let mut rows = Rows::new(full);
    for s in shapes {
        let outcome = |p: &str| {
            let r = csv
                .rows
                .iter()
                .find(|r| r[shape] == s && r[policy] == p)
                .ok_or_else(|| format!("no {p} row for {s}"))?;
            Ok::<_, String>((Csv::num(r, response)?, Csv::num(r, failures)?))
        };
        let (obl, pro) = (outcome("oblivious")?, outcome("proactive")?);
        let measured = format!("{:.2}x", obl.0 / pro.0.max(1.0));
        rows.holds("proactive.response", s, pro.0 < obl.0, measured);
        let measured = format!("{:.2} vs {:.2}", pro.1, obl.1);
        rows.holds("proactive.failures", s, pro.1 <= obl.1, measured);
    }
    hold(rows.rows)
}

/// A check of one committed CSV's text.
pub type CsvCheck = fn(&str) -> Result<Vec<Row>, String>;

/// Each committed paper CSV under `results/` and its check at the
/// paper's scale.
pub const PAPER_CSVS: [(&str, CsvCheck); 10] = [
    ("table1.csv", |c| check_paper_table1(c, true)),
    ("fig1a.csv", |c| check_paper_fig1a(c, true)),
    ("fig1b.csv", |c| check_paper_fig1b(c, true)),
    ("calibration.csv", |c| check_paper_calibration(c, true)),
    ("fig3.csv", |c| check_paper_fig3(c, true)),
    ("table2.csv", |c| check_paper_table2(c, Lab::PAPER)),
    ("fig6.csv", |c| check_paper_fig6(c, Lab::PAPER)),
    ("fig7.csv", |c| check_paper_fig7(c, Lab::PAPER)),
    ("predict.csv", |c| check_paper_predict(c, true)),
    ("proactive.csv", |c| check_paper_proactive(c, true)),
];

/// Every check on the committed CSVs, which `read` returns by file name
/// under `results/`: the paper's, at full scale, and X11's and X15's.
/// Returns each paper CSV's rows, then X11's; the error names the file
/// and the failed bound.
pub fn gate_results(
    read: impl Fn(&str) -> Result<String, String>,
) -> Result<Vec<(&'static str, Vec<Row>)>, String> {
    let mut out = Vec::new();
    for (file, check) in PAPER_CSVS {
        let rows = check(&read(file)?).map_err(|e| format!("{file}: {e}"))?;
        out.push((file, rows));
    }
    let x11 = check_x11_fault_matrix(&read("fault_matrix.csv")?, true)
        .map_err(|e| format!("X11 fault matrix: {e}"))?;
    out.push(("fault_matrix.csv", x11));
    check_x15_archetypes(&read("fleet_archetypes.csv")?)
        .map_err(|e| format!("X15 fleet archetypes: {e}"))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(json: &str) -> Section {
        json::parse(json).unwrap().as_obj().unwrap().clone()
    }

    #[test]
    fn a_quick_section_skips_only_its_full_scale_bounds() {
        let quick = obj(r#"{"gate":{"conns":256,"speedup":1.0,"p99_ratio":9.0}}"#);
        assert_eq!(check_x12_multicore(&quick), Ok(()));
        let full = obj(r#"{"gate":{"conns":4096,"speedup":1.0,"p99_ratio":0.3}}"#);
        let err = check_x12_multicore(&full).unwrap_err();
        assert!(err.contains("speedup"), "{err}");

        let slow = r#"{"machines":6,"failover_records_lost":0,"failover_count":1,
            "follower_reads":1,"failover_promote_ms":5000,"failover_gap_ms":5000,
            "during_query_p99_us":1e6}"#;
        assert_eq!(check_x13_cluster(&obj(slow)), Ok(()));
        let lost = obj(&slow.replace("\"failover_records_lost\":0", "\"failover_records_lost\":1"));
        let err = check_x13_cluster(&lost).unwrap_err();
        assert!(err.contains("failover_records_lost"), "{err}");
    }

    fn committed(file: &str) -> String {
        let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn every_paper_bound_has_one_id_and_binds_on_the_committed_artifacts() {
        let mut ids: Vec<&str> = PAPER_BOUNDS.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), PAPER_BOUNDS.len(), "duplicate bound ids");

        let mut rows: Vec<Row> = Vec::new();
        for (file, check) in PAPER_CSVS {
            rows.extend(check(&committed(file)).unwrap_or_else(|e| panic!("{file}: {e}")));
        }
        let reg = Regularity {
            weekday_correlation: 0.8,
            weekend_correlation: 0.8,
            weekday_mean_cv: 0.5,
            weekend_mean_cv: 0.5,
        };
        rows.extend(check_paper_regularity(&reg, Lab::PAPER).unwrap());
        rows.extend(check_paper_interval_means(4.3, 7.3, Lab::PAPER).unwrap());
        rows.extend(check_x11_fault_matrix(&committed("fault_matrix.csv"), true).unwrap());
        for b in PAPER_BOUNDS {
            assert!(
                rows.iter()
                    .any(|r| r.bound.id == b.id && r.holds == Some(true)),
                "{} is never checked",
                b.id
            );
        }
    }

    #[test]
    fn a_reduced_lab_leaves_only_the_full_scale_bounds_unbound() {
        let lab = Lab {
            machines: 20,
            days: 28,
        };
        let rows = check_paper_table2(&committed("table2.csv"), lab).unwrap();
        for r in &rows {
            assert_eq!(r.holds.is_none(), r.bound.full_scale_only, "{r}");
        }
        let err = check_paper_table2(
            &committed("table2.csv"),
            Lab {
                machines: 19,
                ..Lab::PAPER
            },
        );
        assert!(err.unwrap_err().contains("20 machines"));
    }

    #[test]
    fn a_departure_fails_past_its_tolerance_either_way() {
        let rows = |weekday_h| check_paper_interval_means(weekday_h, 7.3, Lab::PAPER);
        assert!(rows(4.30 + 0.25).is_ok());
        let err = rows(4.30 + 0.26).unwrap_err();
        assert!(err.starts_with("fig6.weekday_mean:"), "{err}");
        assert!(rows(4.30 - 0.26).is_err());
    }

    #[test]
    fn a_malformed_csv_is_an_error_not_a_pass() {
        assert!(check_paper_fig3("host_usage,equal_prio\n0.2,0.8\n", true)
            .unwrap_err()
            .contains("nice19"));
        assert!(
            check_paper_fig7("day_type,hour,mean\nweekday,4\n", Lab::PAPER)
                .unwrap_err()
                .contains("cells")
        );
    }

    #[test]
    fn a_missing_key_is_a_failure_not_a_pass() {
        let err = check_x15_fleet(&obj(r#"{"peak_rss_mb":8}"#)).unwrap_err();
        assert!(err.contains("rss_budget_mb"), "{err}");
    }
}
