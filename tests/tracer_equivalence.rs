//! `run_testbed` traces through the span tracer; the per-sample tracer
//! `trace_machine` is the oracle that says what a trace is. Likewise
//! `run_testbed_faulty` traces through the supervised walker, and
//! `trace_machine_supervised_per_sample` — every sample through the
//! fault stream and the supervisor — is its oracle. These tests pin
//! each pair to each other record-for-record (`TraceRecord` equality
//! compares the f64 interval means exactly; the supervised pair also
//! compares the whole `MachineQuality`, censored spans in order) for
//! every detector the experiments send down these paths — the X8 grid,
//! the paper's default among its four corners — on every scenario lab
//! and every fleet archetype.
//!
//! The supervised sweep here is the tier-1 copy (3 machines × 7 days);
//! `wide_supervised_sweep`, ignored by default, runs the same matrix at
//! 4 machines × 14 days over more seeds: `cargo test --release --test
//! tracer_equivalence -- --ignored`.

use fgcs::core::detector::DetectorConfig;
use fgcs::core::model::FailureCause;
use fgcs::faults::FaultConfig;
use fgcs::testbed::fleet::Archetype;
use fgcs::testbed::lab::LabConfig;
use fgcs::testbed::quality::MachineQuality;
use fgcs::testbed::runner::{
    run_testbed, trace_machine, trace_machine_supervised, trace_machine_supervised_per_sample,
    SupervisorConfig, TestbedConfig,
};
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

/// Every lab shape the repo defines, cut to `machines` × `days`.
fn labs(machines: usize, days: usize) -> Vec<(String, LabConfig)> {
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
                    machines,
                    days,
                    ..lab
                },
            )
        })
        .collect()
}

#[test]
fn run_testbed_equals_the_per_sample_oracle_for_every_detector_and_lab() {
    for (lab_name, lab) in labs(3, 7) {
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
fn gap_policy_span_path_equals_the_per_sample_oracle() {
    // The span tracer feeds one dead observation per downtime, so unless
    // it keeps the detector's silence clock at each span's last tick,
    // every outage longer than `max_silence` reads as silence and is
    // censored. Force such outages into the window: the records can
    // only match the oracle if the clock was kept.
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

/// Fault scales the supervised sweep covers: ×0 is the identity
/// injection; ×20 and ×60 force give-ups, overlapping restart outages,
/// backward clock jumps clamped at 0 and delayed samples flushed at the
/// end of the stream.
const SCALES: [f64; 5] = [0.0, 1.0, 4.0, 20.0, 60.0];

/// What the supervised sweep exercised, summed over every machine.
#[derive(Default)]
struct Coverage {
    gave_up: u64,
    out_of_order: u64,
    lost_in_crash: u64,
    gaps: u64,
    delayed: u64,
}

impl Coverage {
    fn add(&mut self, q: &MachineQuality) {
        self.gave_up += q.gave_up as u64;
        self.out_of_order += q.out_of_order;
        self.lost_in_crash += q.lost_in_crash;
        self.gaps += q.gaps;
        self.delayed += q.delayed;
    }
}

/// Asserts walker == oracle on every lab × detector × seed × scale and
/// machine, and that the sweep reached every supervisor branch.
fn supervised_sweep(machines: usize, days: usize, seeds: &[u64]) {
    let sup = SupervisorConfig::default();
    let mut cov = Coverage::default();
    for (lab_name, lab) in labs(machines, days) {
        for (det_name, detector) in detectors() {
            for &seed in seeds {
                let cfg = TestbedConfig {
                    lab: LabConfig {
                        seed,
                        ..lab.clone()
                    },
                    detector,
                };
                for scale in SCALES {
                    let faults = FaultConfig::noisy(seed).scaled(scale);
                    for m in 0..machines {
                        let walker = trace_machine_supervised(&cfg, &faults, &sup, m);
                        let oracle = trace_machine_supervised_per_sample(&cfg, &faults, &sup, m);
                        assert_eq!(
                            walker, oracle,
                            "{lab_name}, detector {det_name}, seed {seed}, x{scale}, machine {m}"
                        );
                        cov.add(&oracle.1);
                    }
                }
            }
        }
    }
    assert!(cov.gave_up > 0, "no supervisor gave up");
    assert!(cov.out_of_order > 0, "no out-of-order sample");
    assert!(cov.lost_in_crash > 0, "no sample lost to a crash outage");
    assert!(cov.gaps > 0, "no censoring gap");
    assert!(cov.delayed > 0, "no delayed sample");
}

#[test]
fn supervised_walker_equals_the_per_sample_oracle_for_every_detector_lab_and_scale() {
    supervised_sweep(3, 7, &[20050801, 7]);
}

#[test]
#[ignore = "wide sweep, run in release by scripts/ci.sh"]
fn wide_supervised_sweep() {
    supervised_sweep(4, 14, &[20050801, 7, 4242]);
}
