//! `fgcs-exp gate` checks the X11–X15 claims on the committed
//! `BENCH_serve.json`, `BENCH_fleet.json` and `results/`, and the
//! paper's claims on the committed paper CSVs. It passes on the files
//! as committed, and on copies with one violation planted it fails,
//! naming the bound.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn gate(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fgcs-exp"))
        .arg("gate")
        .current_dir(dir)
        .output()
        .expect("spawn fgcs-exp gate")
}

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Where the number after the first `"key":` in `doc` starts and ends.
fn span(doc: &str, key: &str) -> (usize, usize) {
    let pat = format!("\"{key}\":");
    let start = doc
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in the artifact"))
        + pat.len();
    (
        start,
        start + doc[start..].find([',', '}']).expect("value ends"),
    )
}

fn number(doc: &str, key: &str) -> f64 {
    let (start, end) = span(doc, key);
    doc[start..end].parse().expect("a number")
}

/// `doc` with the value of `key` replaced by `value`.
fn plant(doc: &str, key: &str, value: f64) -> String {
    let (start, end) = span(doc, key);
    format!("{}{value}{}", &doc[..start], &doc[end..])
}

/// `csv` with column `col` of the row that starts with the cells `key`
/// replaced by `value`.
fn plant_cell(csv: &str, key: &[&str], col: &str, value: &str) -> String {
    let mut lines: Vec<String> = csv.lines().map(String::from).collect();
    let c = lines[0]
        .split(',')
        .position(|h| h == col)
        .unwrap_or_else(|| panic!("no column {col}"));
    let row = lines
        .iter_mut()
        .find(|l| l.split(',').zip(key).all(|(cell, k)| cell == *k))
        .unwrap_or_else(|| panic!("no row {key:?}"));
    let mut cells: Vec<&str> = row.split(',').collect();
    cells[c] = value;
    *row = cells.join(",");
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Every committed artifact the gate reads, by path under the repo.
fn committed() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = ["BENCH_serve.json", "BENCH_fleet.json"]
        .iter()
        .map(|f| (f.to_string(), read(f)))
        .collect();
    for entry in std::fs::read_dir(repo().join("results")).expect("results dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = format!("results/{}", path.file_name().unwrap().to_string_lossy());
            files.push((name.clone(), read(&name)));
        }
    }
    files
}

fn read(name: &str) -> String {
    std::fs::read_to_string(repo().join(name)).expect("committed artifact")
}

#[test]
fn the_gate_passes_on_the_committed_artifacts_and_fails_on_each_planted_violation() {
    let out = gate(&repo());
    assert!(
        out.status.success(),
        "the committed artifacts fail the gate: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let (serve, fleet) = (read("BENCH_serve.json"), read("BENCH_fleet.json"));
    let (table2, calibration) = (read("results/table2.csv"), read("results/calibration.csv"));
    let (fig6, fig7) = (read("results/fig6.csv"), read("results/fig7.csv"));
    let faults = read("results/fault_matrix.csv");
    // Column 5 is `weekday_mean_h`.
    let weekday_mean = |scale: &str| {
        let row = faults.lines().find(|l| l.starts_with(&format!("{scale},")));
        row.and_then(|r| r.split(',').nth(5))
            .expect("a weekday mean")
    };
    let without_last_row = |name: &str| {
        let text = read(name);
        let cut = text.trim_end().rfind('\n').expect("a data row") + 1;
        text[..cut].to_string()
    };
    let cases = [
        (
            "speedup",
            "BENCH_serve.json",
            plant(&serve, "speedup", 1.99),
        ),
        (
            "failover_promote_ms",
            "BENCH_serve.json",
            plant(&serve, "failover_promote_ms", 2000.5),
        ),
        (
            "pred_evictions",
            "BENCH_serve.json",
            plant(&serve, "pred_evictions", number(&serve, "greedy_evictions")),
        ),
        (
            "peak_rss_mb",
            "BENCH_fleet.json",
            plant(&fleet, "peak_rss_mb", number(&fleet, "rss_budget_mb") + 1.0),
        ),
        // One machine's total past Table 2's recorded departure range.
        (
            "table2.total",
            "results/table2.csv",
            plant_cell(&table2, &["18"], "total", "490"),
        ),
        // LH 0.15 crosses 5% steadily at M = 1: Th1 moves to 0.15.
        (
            "calibration.th1",
            "results/calibration.csv",
            plant_cell(&calibration, &["0", "0.15", "1"], "reduction", "0.0600"),
        ),
        (
            "fig7.spike (weekday)",
            "results/fig7.csv",
            plant_cell(&fig7, &["weekday", "4"], "mean", "22.242"),
        ),
        // The weekday 2-4 h mass falls from 16.1% to 12.1%.
        (
            "fig6.weekday_2_4h",
            "results/fig6.csv",
            plant_cell(&fig6, &["4.000"], "weekday_cdf", "0.5208"),
        ),
        (
            "X11 fault matrix",
            "results/fault_matrix.csv",
            without_last_row("results/fault_matrix.csv"),
        ),
        // The x1 and x2 weekday means swapped: the mean rises at x2.
        (
            "x11.means_fall (weekday)",
            "results/fault_matrix.csv",
            plant_cell(
                &plant_cell(&faults, &["1"], "weekday_mean_h", weekday_mean("2")),
                &["2"],
                "weekday_mean_h",
                weekday_mean("1"),
            ),
        ),
        (
            "X15 fleet archetypes",
            "results/fleet_archetypes.csv",
            without_last_row("results/fleet_archetypes.csv"),
        ),
    ];

    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate");
    for (bound, file, planted) in cases {
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(scratch.join("results")).expect("create scratch dir");
        for (name, text) in committed() {
            let text = if name == file { &planted } else { &text };
            std::fs::write(scratch.join(&name), text).expect("write copy");
        }
        let out = gate(&scratch);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bound} planted: {stderr}");
        assert!(
            stderr.contains(bound),
            "{bound} planted, but the failure does not name it: {stderr}"
        );
    }
    std::fs::remove_dir_all(&scratch).expect("remove scratch dir");
}
