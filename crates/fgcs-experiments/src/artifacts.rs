//! The CSV text of the paper artifacts the claims check, rendered from
//! the analyses that produce them. The experiments write this text to
//! `results/` and the integration tests check it at their own scale, so
//! both read the numbers in the same format.

use fgcs_core::calibrate::Calibration;
use fgcs_predict::eval::EvalResult;
use fgcs_predict::proactive::PolicyOutcome;
use fgcs_testbed::analysis::{HourlyAnalysis, Table2};
use fgcs_testbed::calendar::DayType;
use fgcs_testbed::streaming::StreamingAnalysis;

/// A CSV file's text: `header`, then one line per row.
pub fn csv_text(header: &str, rows: &[String]) -> String {
    let mut text = String::new();
    for line in std::iter::once(header).chain(rows.iter().map(String::as_str)) {
        text.push_str(line);
        text.push('\n');
    }
    text
}

/// `calibration.csv`: every Figure 1 point the thresholds were read off.
pub fn calibration_csv(cal: &Calibration) -> String {
    let rows: Vec<String> = [(0, &cal.equal_priority), (19, &cal.lowest_priority)]
        .into_iter()
        .flat_map(|(nice, rows)| {
            rows.iter()
                .map(move |r| format!("{nice},{:.2},{},{:.4}", r.lh, r.m, r.reduction))
        })
        .collect();
    csv_text("guest_nice,lh,m,reduction", &rows)
}

/// `table2.csv`: Table 2's counts per machine.
pub fn table2_csv(t2: &Table2) -> String {
    let rows: Vec<String> = t2
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
    csv_text("machine,total,cpu,mem,urr,urr_reboots", &rows)
}

/// The interval lengths, in hours, at which `fig6.csv` reads the CDFs.
pub const FIG6_HOURS: [f64; 11] = [
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

/// Figure 6's CDF of `day_type` interval lengths at `hours`.
pub fn fig6_cdf(acc: &StreamingAnalysis, day_type: DayType, hours: f64) -> f64 {
    acc.interval_sketch(day_type).cdf(hours).unwrap_or(0.0)
}

/// `fig6.csv`: both CDFs at [`FIG6_HOURS`].
pub fn fig6_csv(acc: &StreamingAnalysis) -> String {
    let rows: Vec<String> = FIG6_HOURS
        .iter()
        .map(|&h| {
            let wd = fig6_cdf(acc, DayType::Weekday, h);
            let we = fig6_cdf(acc, DayType::Weekend, h);
            format!("{h:.3},{wd:.4},{we:.4}")
        })
        .collect();
    csv_text("hours,weekday_cdf,weekend_cdf", &rows)
}

/// `fig7.csv`: occurrences per hour of day, mean and range over days.
pub fn fig7_csv(h: &HourlyAnalysis) -> String {
    let rows: Vec<String> = [
        (DayType::Weekday, &h.weekday),
        (DayType::Weekend, &h.weekend),
    ]
    .into_iter()
    .flat_map(|(dt, g)| {
        g.iter().map(move |(hour, s)| {
            format!("{dt},{hour},{:.3},{:.0},{:.0}", s.mean(), s.min(), s.max())
        })
    })
    .collect();
    csv_text("day_type,hour,mean,min,max", &rows)
}

/// `rows` window by window, in `windows`' order, best Brier score first.
pub fn ranked<'a>(rows: &'a [EvalResult], windows: &[u64]) -> Vec<&'a EvalResult> {
    let mut out = Vec::with_capacity(rows.len());
    for &w in windows {
        let start = out.len();
        out.extend(rows.iter().filter(|r| r.window == w));
        out[start..].sort_by(|a, b| a.brier.partial_cmp(&b.brier).expect("no NaN"));
    }
    out
}

/// `predict.csv`: every predictor's score at every window, ranked.
pub fn predict_csv(rows: &[EvalResult], windows: &[u64]) -> String {
    let rows: Vec<String> = ranked(rows, windows)
        .into_iter()
        .map(|r| {
            format!(
                "{},{},{:.5},{:.4},{:.4},{}",
                r.window, r.predictor, r.brier, r.accuracy, r.base_rate, r.queries
            )
        })
        .collect();
    csv_text(
        "window_secs,predictor,brier,accuracy,base_rate,queries",
        &rows,
    )
}

/// `proactive.csv`: the oblivious and the proactive outcome of each job
/// shape.
pub fn proactive_csv(shapes: &[(&str, &PolicyOutcome, &PolicyOutcome)]) -> String {
    let rows: Vec<String> = shapes
        .iter()
        .flat_map(|&(shape, oblivious, proactive)| {
            [("oblivious", oblivious), ("proactive", proactive)].map(|(policy, o)| {
                format!(
                    "{shape},{policy},{:.2},{:.4},{}",
                    o.mean_response, o.mean_failures, o.timed_out
                )
            })
        })
        .collect();
    csv_text(
        "shape,policy,mean_response_secs,mean_failures,timeouts",
        &rows,
    )
}
