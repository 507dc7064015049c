//! Every name the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, with their units. `BENCHMARK.json` and
//! `layers.json` declare the same names; `check` fails when they drift.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::json::{self, Value};

pub const DEFAULT_SEED: u64 = 20060301;

/// `(name, why)` — the `why` is repeated in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "ingest_small",
        "4096 machines send 4-sample counter batches over 8 connections, as live monitors do: per-frame cost (syscalls, decode, dispatch, lock, reply) does the work; work unit = sample",
    ),
    (
        "ingest_bulk_repl",
        "64 machines backfill 128-sample batches over 2 connections into a primary with a replication log and one follower: per-sample cost and the replication path do the work; work unit = sample",
    ),
    (
        "query_mix",
        "512 preloaded machines, 8 connections, every 100 requests are 89 QueryAvail, 10 Place, 1 SampleBatch: reads beside writes under the one online-model lock; work unit = request",
    ),
    (
        "fleet_sweep",
        "run_fleet over 512-machine x 92-day slices of the five-archetype mix: the offline half (plan, batched tracer, detector, streaming fold, merge), no socket or lock code; work unit = machine-day",
    ),
    (
        "paper_all",
        "passes of fgcs-exp all, every regenerated CSV byte-compared with the committed one: the only workload that runs fgcs-sim, the cluster and proactive loops and the exact oracles; work unit = experiment",
    ),
];

/// `(name, unit, better, bound)`.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("result_p50_us", "us", "lower", 0.25),
    ("cpu_us_per_work", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
];

/// The experiments `fgcs-exp all` runs, in its order.
pub const EXPERIMENTS: [&str; 23] = [
    "table1",
    "fig1a",
    "fig1b",
    "calibrate",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "table2",
    "fig6",
    "fig7",
    "regularity",
    "predict",
    "proactive",
    "ablation",
    "policies",
    "scenarios",
    "cluster",
    "rules",
    "depth",
    "seeds",
    "faults",
    "trace",
];

/// `(name, unit, better)` of the per-layer metrics that are not one of
/// the `exp.<name>_ms` rows.
const LAYER_METRICS: [(&str, &str, &str); 66] = [
    // fgcs-wire
    ("wire.encode_batch_ns", "ns", "lower"),
    ("wire.decode_batch_ns", "ns", "lower"),
    ("wire.encode_reply_ns", "ns", "lower"),
    ("wire.bytes_per_sample", "B", "lower"),
    // fgcs-core
    ("core.monitor_sample_ns", "ns", "lower"),
    ("core.detector_observe_ns", "ns", "lower"),
    // fgcs-testbed
    ("testbed.recorder_observe_ns", "ns", "lower"),
    ("testbed.recorder_transitions", "count", "lower"),
    ("testbed.recorder_records", "count", "lower"),
    ("testbed.plan_generate_us", "us", "lower"),
    ("testbed.trace_machine_us", "us", "lower"),
    ("testbed.tracer_us", "us", "lower"),
    ("testbed.fold_push_us", "us", "lower"),
    ("testbed.fold_merge_us", "us", "lower"),
    ("testbed.fleet_occurrences", "count", "lower"),
    // fgcs-stats
    ("stats.sketch_push_ns", "ns", "lower"),
    ("stats.sketch_merge_us", "us", "lower"),
    ("stats.sketch_quantile_ns", "ns", "lower"),
    ("stats.sketch_rank_err_bound", "count", "lower"),
    // fgcs-par
    ("par.fleet_efficiency", "ratio", "higher"),
    // fgcs-predict
    ("predict.online_update_ns", "ns", "lower"),
    ("predict.predict_machine_ns", "ns", "lower"),
    ("predict.place_scan_us", "us", "lower"),
    ("predict.events", "count", "lower"),
    // fgcs-service, seen from outside
    ("service.server_cpu_us_per_op", "us", "lower"),
    ("service.server_user_us_per_op", "us", "lower"),
    ("service.server_sys_us_per_op", "us", "lower"),
    ("service.driver_busy_share", "ratio", "lower"),
    ("service.layers_us_per_op", "us", "lower"),
    ("service.unattributed_us_per_op", "us", "lower"),
    ("service.per_sample_share", "ratio", "lower"),
    ("service.lock_wait_us.online", "us", "lower"),
    ("service.lock_wait_us.machines", "us", "lower"),
    ("service.lock_wait_us.shards", "us", "lower"),
    ("service.lock_wait_us.counters", "us", "lower"),
    ("service.lock_wait_us.queue", "us", "lower"),
    ("service.lock_contended.online", "count", "lower"),
    ("service.lock_contended.machines", "count", "lower"),
    ("service.lock_contended.shards", "count", "lower"),
    ("service.lock_contended.counters", "count", "lower"),
    ("service.lock_contended.queue", "count", "lower"),
    ("service.shed_batches", "count", "lower"),
    ("service.decode_errors", "count", "lower"),
    ("service.queue_depth_max", "count", "lower"),
    ("service.rss_growth_mb", "MB", "lower"),
    ("service.start_ms", "ms", "lower"),
    ("service.shutdown_ms", "ms", "lower"),
    // Latencies that cannot repeat within a gate's bound on a 2-vCPU VM.
    ("service.rtt_p99_us", "us", "lower"),
    ("service.ingest_p50_us", "us", "lower"),
    ("service.ingest_p99_us", "us", "lower"),
    ("service.query_p50_us", "us", "lower"),
    ("service.query_p99_us", "us", "lower"),
    ("service.place_p50_us", "us", "lower"),
    // replication, seen from outside
    ("repl.lag_seq_p50", "count", "lower"),
    ("repl.lag_seq_max", "count", "lower"),
    ("repl.catchup_ms", "ms", "lower"),
    ("repl.pull_cpu_us_per_batch", "us", "lower"),
    ("repl.overhead_share", "ratio", "lower"),
    ("repl.follower_identical", "bool", "higher"),
    // fgcs-sim
    ("sim.ticks_per_s_idle", "1/s", "higher"),
    ("sim.ticks_per_s_contended", "1/s", "higher"),
    ("sim.ticks_per_s_thrashing", "1/s", "higher"),
    // open loop, informational
    ("openloop.ingest_p50_us", "us", "lower"),
    ("openloop.ingest_p99_us", "us", "lower"),
    ("openloop.late_p99_us", "us", "lower"),
    // tracing cost
    ("trace.overhead_share", "ratio", "higher"),
];

/// Every per-layer metric, `(name, unit, better)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut all: Vec<(String, &'static str, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    all.extend(
        EXPERIMENTS
            .iter()
            .map(|e| (format!("exp.{e}_ms"), "ms", "lower")),
    );
    all
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn names_of(doc: &Value, key: &str) -> Result<Vec<BTreeMap<String, Value>>, String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("{key}: missing or not a list"))?
        .iter()
        .map(|v| {
            v.as_obj()
                .cloned()
                .ok_or(format!("{key}: entry is not an object"))
        })
        .collect()
}

fn str_field<'a>(obj: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or(format!("entry lacks a string {key:?}: {obj:?}"))
}

/// Compares what the run prints (the tables above) with what
/// `BENCHMARK.json` and `layers.json` declare. Returns every mismatch.
pub fn check(benchmark_json: &Path, layers_json: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let mut load = |path: &Path| -> Option<Value> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| problems.push(format!("{}: {e}", path.display())))
            .ok()?;
        json::parse(&text)
            .map_err(|e| problems.push(format!("{}: {e}", path.display())))
            .ok()
    };
    let (Some(bench), Some(layers)) = (load(benchmark_json), load(layers_json)) else {
        return problems;
    };
    if let Err(e) = check_docs(&bench, &layers, &mut problems) {
        problems.push(e);
    }
    problems
}

/// Reports names declared but not printed, printed but not declared,
/// malformed, repeated, or too many.
fn same(
    problems: &mut Vec<String>,
    what: &str,
    declared: &[String],
    printed: &[String],
    cap: usize,
) {
    if declared.len() > cap {
        problems.push(format!("{what}: {} entries, at most {cap}", declared.len()));
    }
    for n in declared {
        if !valid_name(n) {
            problems.push(format!("{what}: bad name {n:?}"));
        }
        if !printed.contains(n) {
            problems.push(format!("{what}: {n} is declared but never printed"));
        }
    }
    for n in printed {
        if !declared.contains(n) {
            problems.push(format!("{what}: {n} is printed but not declared"));
        }
    }
    let unique: BTreeSet<&String> = declared.iter().collect();
    if unique.len() != declared.len() {
        problems.push(format!("{what}: a name is declared twice"));
    }
}

fn check_docs(bench: &Value, layers: &Value, problems: &mut Vec<String>) -> Result<(), String> {
    let expected_keys: BTreeSet<&str> = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ]
    .into();
    let keys: BTreeSet<&str> = bench
        .as_obj()
        .ok_or("BENCHMARK.json is not an object")?
        .keys()
        .map(String::as_str)
        .collect();
    if keys != expected_keys {
        problems.push(format!(
            "BENCHMARK.json keys are {keys:?}, want {expected_keys:?}"
        ));
    }

    let declared_workloads = names_of(bench, "workloads")?;
    let mut names = Vec::new();
    for w in &declared_workloads {
        let name = str_field(w, "name")?;
        names.push(name.to_string());
        let why = str_field(w, "why")?;
        if WORKLOADS.iter().any(|(n, y)| *n == name && *y != why) {
            problems.push(format!(
                "workload {name}: its why differs from the one printed"
            ));
        }
    }
    let workloads: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
    same(problems, "workloads", &names, &workloads, 8);

    let declared_e2e = names_of(bench, "end_to_end")?;
    let mut names = Vec::new();
    for m in &declared_e2e {
        let name = str_field(m, "name")?;
        names.push(name.to_string());
        if let Some(&(_, unit, better, bound)) = END_TO_END.iter().find(|e| e.0 == name) {
            if str_field(m, "unit")? != unit || str_field(m, "better")? != better {
                problems.push(format!("end_to_end {name}: unit or direction differs"));
            }
            if m.get("bound") != Some(&Value::Num(bound)) {
                problems.push(format!("end_to_end {name}: bound differs from {bound}"));
            }
        }
    }
    let e2e: Vec<String> = END_TO_END.iter().map(|e| e.0.to_string()).collect();
    same(problems, "end_to_end", &names, &e2e, 16);

    let declared_layers = names_of(bench, "per_layer")?;
    let printed = per_layer();
    let mut names = Vec::new();
    for m in &declared_layers {
        let name = str_field(m, "name")?;
        names.push(name.to_string());
        if let Some((_, unit, better)) = printed.iter().find(|p| p.0 == name) {
            if str_field(m, "unit")? != *unit || str_field(m, "better")? != *better {
                problems.push(format!("per_layer {name}: unit or direction differs"));
            }
        }
    }
    let layer_names: Vec<String> = printed.iter().map(|p| p.0.clone()).collect();
    same(problems, "per_layer", &names, &layer_names, 128);

    // layers.json: what each per-layer metric should move, and where it
    // should stay flat.
    let mut described = Vec::new();
    for entry in names_of(layers, "layers")? {
        let name = str_field(&entry, "name")?.to_string();
        let moves = entry
            .get("moves")
            .and_then(Value::as_obj)
            .ok_or(format!("layers.json {name}: no moves object"))?;
        let (metric, workload) = (str_field(moves, "metric")?, str_field(moves, "workload")?);
        if !e2e.iter().any(|m| m == metric) {
            problems.push(format!("layers.json {name}: moves unknown metric {metric}"));
        }
        if !workloads.iter().any(|w| w == workload) {
            problems.push(format!(
                "layers.json {name}: moves on unknown workload {workload}"
            ));
        }
        let flat = str_field(&entry, "flat_on")?;
        if !workloads.iter().any(|w| w == flat) {
            problems.push(format!(
                "layers.json {name}: flat_on unknown workload {flat}"
            ));
        }
        if flat == workload {
            problems.push(format!(
                "layers.json {name}: moves and stays flat on {flat}"
            ));
        }
        described.push(name);
    }
    same(problems, "layers.json", &described, &layer_names, 128);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_unique_and_within_the_caps() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{}", layers.len());
        let mut seen = BTreeSet::new();
        for (name, unit, better) in &layers {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.clone()), "{name} twice");
            assert!(unit.len() <= 16 && ["lower", "higher"].contains(better));
        }
        for (name, why) in WORKLOADS {
            assert!(
                valid_name(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|e| e.0 == "setup_s" && e.1 == "s" && e.2 == "lower"));
        assert!(END_TO_END.iter().all(|e| e.3 <= 0.25));
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn the_committed_declarations_match_what_the_run_prints() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let problems = check(&root.join("../BENCHMARK.json"), &root.join("layers.json"));
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn check_reports_drift_in_both_directions() {
        let bench = json::parse(
            r#"{"command": [], "paths": [], "run_seconds": 1,
                "workloads": [{"name": "ingest_small", "why": "x"}],
                "end_to_end": [{"name": "nonsense", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap();
        let layers = json::parse(r#"{"layers": []}"#).unwrap();
        let mut problems = Vec::new();
        check_docs(&bench, &layers, &mut problems).unwrap();
        let all = problems.join("\n");
        assert!(
            all.contains("nonsense is declared but never printed"),
            "{all}"
        );
        assert!(all.contains("setup_s is printed but not declared"), "{all}");
        assert!(
            all.contains("fleet_sweep is printed but not declared"),
            "{all}"
        );
    }
}
