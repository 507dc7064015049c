//! `fgcs-exp gate` checks the X12–X15 claims on the committed
//! `BENCH_serve.json` and `BENCH_fleet.json`. It passes on the files as
//! committed, and on copies with one violation planted it fails, naming
//! the bound.

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

#[test]
fn the_gate_passes_on_the_committed_artifacts_and_fails_on_each_planted_violation() {
    let out = gate(&repo());
    assert!(
        out.status.success(),
        "the committed artifacts fail the gate: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let read = |name: &str| std::fs::read_to_string(repo().join(name)).expect("committed artifact");
    let (serve, fleet) = (read("BENCH_serve.json"), read("BENCH_fleet.json"));
    let cases = [
        ("speedup", plant(&serve, "speedup", 1.99), fleet.clone()),
        (
            "failover_promote_ms",
            plant(&serve, "failover_promote_ms", 2000.5),
            fleet.clone(),
        ),
        (
            "pred_evictions",
            plant(&serve, "pred_evictions", number(&serve, "greedy_evictions")),
            fleet.clone(),
        ),
        (
            "peak_rss_mb",
            serve.clone(),
            plant(&fleet, "peak_rss_mb", number(&fleet, "rss_budget_mb") + 1.0),
        ),
    ];

    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate");
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    for (bound, serve, fleet) in cases {
        std::fs::write(scratch.join("BENCH_serve.json"), serve).expect("write copy");
        std::fs::write(scratch.join("BENCH_fleet.json"), fleet).expect("write copy");
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
