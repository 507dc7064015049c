//! The repository's own measured claims, X12–X15, each checked once.
//!
//! Every bound a claim makes lives in one function here, over the
//! artifact section the claim is about, as [`json::parse`] reads it.
//! Two callers run the same function: the experiment, on the section it
//! is about to write ([`assert_claim`]), and `fgcs-exp gate`, on the
//! committed `BENCH_serve.json` and `BENCH_fleet.json` ([`gate`]).
//!
//! A quick run writes the same sections at reduced scale. Where a bound
//! needs full scale to mean anything (X12's loop speedup, X13's
//! failover timings) its check reads the scale from the section and
//! skips the bound below it; [`gate`] requires full scale.

use std::collections::BTreeMap;

use fgcs_testbed::json::{self, Value};

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

    #[test]
    fn a_missing_key_is_a_failure_not_a_pass() {
        let err = check_x15_fleet(&obj(r#"{"peak_rss_mb":8}"#)).unwrap_err();
        assert!(err.contains("rss_budget_mb"), "{err}");
    }
}
