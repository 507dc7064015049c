//! `run_testbed` traces through the span tracer; the per-sample tracer
//! `trace_machine` is the oracle that says what a trace is. These tests
//! pin the two to each other record-for-record (`TraceRecord` equality
//! compares the f64 interval means exactly) for every detector the
//! experiments send down this path — the X8 grid, the paper's default
//! among its four corners — on every scenario lab and every fleet
//! archetype.

use fgcs::core::detector::DetectorConfig;
use fgcs::core::model::FailureCause;
use fgcs::testbed::fleet::Archetype;
use fgcs::testbed::lab::LabConfig;
use fgcs::testbed::runner::{run_testbed, trace_machine, TestbedConfig};
use fgcs::testbed::scenarios;
use fgcs::testbed::trace::TraceRecord;

/// The per-sample oracle for a whole testbed: machine after machine.
fn oracle_records(cfg: &TestbedConfig) -> Vec<TraceRecord> {
    (0..cfg.lab.machines)
        .flat_map(|m| trace_machine(cfg, m))
        .collect()
}

/// The X8 ablation grid (`extension_exps::detector_rules`); its
/// 60 s / 300 s corner is the default detector.
fn detectors() -> Vec<(String, DetectorConfig)> {
    let mut out = Vec::new();
    for spike_tolerance in [1, 60] {
        for harvest_delay in [15, 300] {
            out.push((
                format!("spike {spike_tolerance} s / harvest {harvest_delay} s"),
                DetectorConfig {
                    spike_tolerance,
                    harvest_delay,
                    ..DetectorConfig::wallclock_default()
                },
            ));
        }
    }
    out
}

/// Every lab shape the repo defines, cut to 3 machines × 7 days.
fn reduced_labs() -> Vec<(String, LabConfig)> {
    let scenario_labs = scenarios::all()
        .into_iter()
        .map(|(name, lab)| (name.to_string(), lab));
    let archetype_labs = Archetype::ALL
        .into_iter()
        .map(|arch| (format!("{arch:?}"), arch.lab_config()));
    scenario_labs
        .chain(archetype_labs)
        .map(|(name, lab)| {
            (
                name,
                LabConfig {
                    machines: 3,
                    days: 7,
                    ..lab
                },
            )
        })
        .collect()
}

#[test]
fn run_testbed_equals_the_per_sample_oracle_for_every_detector_and_lab() {
    for (lab_name, lab) in reduced_labs() {
        for (det_name, detector) in detectors() {
            let cfg = TestbedConfig {
                lab: lab.clone(),
                detector,
            };
            let trace = run_testbed(&cfg);
            assert!(!trace.records.is_empty(), "{lab_name}, {det_name}");
            assert_eq!(
                trace.records,
                oracle_records(&cfg),
                "{lab_name}, detector {det_name}"
            );
        }
    }
}

#[test]
fn gap_policy_still_takes_the_per_sample_path() {
    // A span tracer feeds one dead observation per downtime, so under a
    // gap policy every outage longer than `max_silence` would read as
    // silence and be censored. Force such outages into the window: the
    // records can only match the oracle if the fallback engaged.
    let mut cfg = TestbedConfig::tiny();
    cfg.lab.days = 10;
    cfg.lab.hw_failures_per_day = 0.3;
    cfg.detector.max_silence = Some(120);
    let oracle = oracle_records(&cfg);
    let long_outages = oracle
        .iter()
        .filter(|r| r.cause == FailureCause::Revocation)
        .filter(|r| r.end.is_some_and(|end| end - r.start > 120))
        .count();
    assert!(long_outages > 0, "no outage longer than max_silence");
    assert_eq!(run_testbed(&cfg).records, oracle);
}
