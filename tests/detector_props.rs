//! Property-based tests of the unavailability detector: for *any*
//! observation sequence, the detector's outputs must satisfy the
//! structural invariants of the five-state model.

use fgcs::core::detector::{Detector, DetectorConfig, EventEdge};
use fgcs::core::events::OccurrenceRecorder;
use fgcs::core::model::{AvailState, Thresholds};
use fgcs::core::monitor::Observation;
use fgcs::testbed::analysis::machine_intervals;
use proptest::prelude::*;

fn config() -> DetectorConfig {
    DetectorConfig {
        thresholds: Thresholds::LINUX_TESTBED,
        guest_working_set_mb: 64,
        spike_tolerance: 60,
        harvest_delay: 300,
        max_silence: None,
    }
}

prop_compose! {
    fn arb_observation()(
        load in 0.0f64..=1.0,
        mem in 0u32..2048,
        alive in prop::bool::weighted(0.95),
    ) -> Observation {
        Observation { host_load: load, free_mem_mb: mem, alive }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Edges alternate strictly Started/Ended with matching causes and
    /// non-decreasing timestamps, whatever the input.
    #[test]
    fn edges_are_well_formed(observations in prop::collection::vec(arb_observation(), 1..300)) {
        let mut d = Detector::new(config());
        let mut open: Option<fgcs::core::model::FailureCause> = None;
        let mut last_t = 0u64;
        for (i, obs) in observations.iter().enumerate() {
            let t = i as u64 * 15;
            let step = d.observe(t, obs);
            for e in &step.edges {
                match *e {
                    EventEdge::Started { cause, at } => {
                        prop_assert!(open.is_none(), "nested start");
                        prop_assert!(at >= last_t);
                        open = Some(cause);
                    }
                    EventEdge::Ended { cause, at, calm_from } => {
                        prop_assert_eq!(open.take(), Some(cause), "mismatched end");
                        prop_assert!(at >= last_t);
                        prop_assert!(calm_from <= at, "calm after harvest");
                    }
                }
            }
            last_t = t;
            // State and openness agree.
            prop_assert_eq!(d.state().is_failure(), open.is_some());
        }
    }

    /// The occurrence recorder accepts every detector stream, and
    /// availability intervals plus unavailability durations exactly tile
    /// the span.
    #[test]
    fn events_and_intervals_tile_time(observations in prop::collection::vec(arb_observation(), 1..300)) {
        let mut recorder = OccurrenceRecorder::new(0, config());
        let mut end_t = 0;
        for (i, obs) in observations.iter().enumerate() {
            let t = i as u64 * 15;
            recorder.observe(t, obs);
            end_t = t + 15;
        }
        let records: Vec<_> = recorder.records().iter().collect();
        let intervals = machine_intervals(&records, end_t);
        let avail: u64 = intervals.iter().map(|(s, e)| e - s).sum();
        let unavail: u64 = records
            .iter()
            .map(|r| r.end.unwrap_or(end_t).min(end_t).saturating_sub(r.start))
            .sum();
        prop_assert_eq!(avail + unavail, end_t);
        // Intervals are sorted, disjoint, non-empty.
        for w in intervals.windows(2) {
            prop_assert!(w[0].1 <= w[1].0);
        }
        for (s, e) in intervals {
            prop_assert!(s < e);
        }
    }

    /// A dead machine is *always* S5, regardless of history.
    #[test]
    fn dead_machine_is_s5(observations in prop::collection::vec(arb_observation(), 0..100)) {
        let mut d = Detector::new(config());
        for (i, obs) in observations.iter().enumerate() {
            d.observe(i as u64 * 15, obs);
        }
        let t = observations.len() as u64 * 15;
        d.observe(t, &Observation::dead());
        // Either the machine was already unavailable for another cause
        // (the cause changes on the next dead sample) or it is S5 now.
        d.observe(t + 15, &Observation::dead());
        prop_assert_eq!(d.state(), AvailState::S5);
    }

    /// While the machine is available, the reported state matches the
    /// threshold classification of the most recent calm load sample.
    #[test]
    fn available_state_tracks_load_band(loads in prop::collection::vec(0.0f64..=0.6, 1..100)) {
        let mut d = Detector::new(config());
        for (i, &load) in loads.iter().enumerate() {
            let obs = Observation { host_load: load, free_mem_mb: 512, alive: true };
            let step = d.observe(i as u64 * 15, &obs);
            // Loads stay at or below Th2, so no failure can ever occur.
            prop_assert!(step.state.is_available());
            let expect = if load < 0.2 { AvailState::S1 } else { AvailState::S2 };
            prop_assert_eq!(step.state, expect);
        }
    }

    /// Spikes shorter than the tolerance never produce an event.
    #[test]
    fn short_spikes_never_fail(
        spike_len in 1usize..4, // 15-45 s of >Th2 load, tolerance is 60 s
        background in 0.0f64..=0.5,
    ) {
        let mut d = Detector::new(config());
        let mut t = 0u64;
        let mut step_at = |d: &mut Detector, load: f64| {
            let s = d.observe(t, &Observation { host_load: load, free_mem_mb: 512, alive: true });
            t += 15;
            s
        };
        for _ in 0..10 {
            let s = step_at(&mut d, background);
            prop_assert!(s.edges.is_empty());
        }
        for _ in 0..spike_len {
            let s = step_at(&mut d, 0.95);
            prop_assert!(s.edges.is_empty(), "spike of {spike_len} samples failed early");
        }
        let s = step_at(&mut d, background);
        prop_assert!(s.edges.is_empty());
        prop_assert!(d.state().is_available());
    }
}
