//! Counted cost of the service's ingest path: how many samples of a
//! lab the detector has to step, rather than settle, when they arrive
//! in 128-sample batches through `OccurrenceRecorder::observe_all`. A
//! count is deterministic where a timing is not: an edit to
//! `Detector::settles` that silently stops settling a common sample
//! kind raises it past the ceiling below.

use fgcs_core::detector::DetectorConfig;
use fgcs_core::monitor::Observation;
use fgcs_testbed::lab::{LabConfig, MachinePlan};
use fgcs_testbed::runner::{trace_machine, TestbedConfig};
use fgcs_testbed::OccurrenceRecorder;

/// Samples per `SampleBatch` of a bulk backfill.
const BATCH: usize = 128;

#[test]
fn observe_all_steps_a_small_share_of_a_lab() {
    let cfg = TestbedConfig {
        lab: LabConfig::default(),
        detector: DetectorConfig::wallclock_default(),
    };
    let (mut samples, mut stepped) = (0usize, 0u64);
    for machine in 0..cfg.lab.machines {
        let plan = MachinePlan::generate(&cfg.lab, machine);
        let observations: Vec<(u64, Observation)> = plan
            .samples()
            .map(|s| (s.t, cfg.lab.observation(&s)))
            .collect();
        let mut recorder = OccurrenceRecorder::new(machine as u32, cfg.detector);
        for batch in observations.chunks(BATCH) {
            recorder.observe_all(batch.iter().copied(), |_, _, _| stepped += 1);
        }
        samples += observations.len();
        assert_eq!(
            recorder.into_records(),
            trace_machine(&cfg, machine),
            "machine {machine}"
        );
    }
    println!(
        "observe_all: {stepped} of {samples} samples stepped ({:.2} %)",
        100.0 * stepped as f64 / samples as f64
    );
    assert_eq!(samples, 20 * 92 * 5_760);
    // 145,744 (1.38 %) when this test was written: S1/S2 band changes
    // and the starts and ends of spikes, outages and harvest waits. A
    // ceiling that only moves down.
    assert!(stepped <= 145_744, "{stepped} samples stepped");
}
