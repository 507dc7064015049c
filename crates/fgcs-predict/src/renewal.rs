//! A renewal-theory predictor built on the Figure 6 distributions.
//!
//! §5.2 argues that "facilities to predict such interval lengths provide
//! the knowledge of how much computation power an FGCS system can
//! deliver without interruption". This module turns that claim into an
//! algorithm: model each machine as an alternating renewal process of
//! availability intervals (length distribution `F`, the Figure 6 CDF)
//! and outages. For a random time point in equilibrium,
//!
//! ```text
//! P(no failure in [t, t+w]) = E[max(0, L − w)] / (E[L] + E[D])
//! ```
//!
//! where `L` is an availability-interval length and `D` an outage
//! duration: the window survives iff `t` falls inside an interval whose
//! *residual* exceeds `w`, and the inspection-paradox-weighted residual
//! integral is exactly `E[max(0, L − w)]`.
//!
//! Interval samples are kept per day type (the paper's weekday/weekend
//! split), so the predictor inherits Figure 6's weekday-vs-weekend
//! difference, though not the finer hour-of-day structure.

use std::collections::HashMap;
use std::sync::RwLock;

use fgcs_testbed::analysis::machine_intervals;
use fgcs_testbed::calendar::{day_index, day_type, DayType, SECS_PER_DAY};
use fgcs_testbed::trace::Trace;

use crate::predictor::AvailabilityPredictor;

/// Interval-distribution (renewal) availability predictor.
#[derive(Debug, Clone, Default)]
pub struct RenewalPredictor {
    /// Sorted availability-interval lengths, per day type.
    intervals: [Vec<f64>; 2],
    /// Mean outage duration, per day type.
    mean_outage: [f64; 2],
    /// Mean availability-interval length, per day type (0 with no
    /// samples); `mean_excess(slot, 0.0)`, computed once in `fit`.
    mean_interval: [f64; 2],
    start_weekday: u8,
    /// `mean_excess` per day type and probed window, filled on first
    /// probe: it depends on nothing else, and scoring probes each window
    /// thousands of times.
    excess_memo: ExcessMemo,
}

/// Per day type, window → `E[max(0, L − w)]`. Behind locks so that a
/// fitted predictor stays `Sync` and windows can be scored in parallel.
#[derive(Debug, Default)]
struct ExcessMemo([RwLock<HashMap<u64, f64>>; 2]);

impl Clone for ExcessMemo {
    /// A cache: a clone starts empty and refills on demand.
    fn clone(&self) -> Self {
        ExcessMemo::default()
    }
}

impl RenewalPredictor {
    fn slot(dt: DayType) -> usize {
        (dt == DayType::Weekend) as usize
    }

    /// `E[max(0, L − w)]` over the stored samples for the day type.
    fn mean_excess(&self, slot: usize, w: f64) -> f64 {
        let samples = &self.intervals[slot];
        if samples.is_empty() {
            return 0.0;
        }
        // Samples are sorted: only the suffix with L > w contributes.
        let idx = samples.partition_point(|&l| l <= w);
        let excess: f64 = samples[idx..].iter().map(|l| l - w).sum();
        excess / samples.len() as f64
    }

    /// [`Self::mean_excess`] at `window`, memoized per day type.
    fn memo_excess(&self, slot: usize, window: u64) -> f64 {
        let memo = &self.excess_memo.0[slot];
        if let Some(&v) = memo.read().expect("renewal memo poisoned").get(&window) {
            return v;
        }
        let v = self.mean_excess(slot, window as f64);
        memo.write()
            .expect("renewal memo poisoned")
            .insert(window, v);
        v
    }
}

impl AvailabilityPredictor for RenewalPredictor {
    fn name(&self) -> &'static str {
        "renewal"
    }

    fn fit(&mut self, trace: &Trace, train_end: u64) {
        self.start_weekday = trace.meta.start_weekday;
        let mut intervals: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let mut outage_sum = [0.0f64; 2];
        let mut outage_n = [0u64; 2];

        for (_, recs) in trace.per_machine() {
            let recs: Vec<_> = recs
                .into_iter()
                .take_while(|r| r.start < train_end)
                .collect();
            // Attribute each interval to the day type of its midpoint:
            // an interval spanning Friday evening to Monday morning is
            // weekend capacity.
            for (s, e) in machine_intervals(&recs, train_end) {
                let slot = Self::slot(day_type(day_index(s + (e - s) / 2), self.start_weekday));
                intervals[slot].push((e - s) as f64);
            }
            for r in recs {
                let end = r.end.unwrap_or(train_end).min(train_end);
                let slot = Self::slot(day_type(day_index(r.start), self.start_weekday));
                outage_sum[slot] += end.saturating_sub(r.start) as f64;
                outage_n[slot] += 1;
            }
        }
        for v in &mut intervals {
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        }
        self.intervals = intervals;
        self.excess_memo = ExcessMemo::default();
        for slot in 0..2 {
            self.mean_outage[slot] = if outage_n[slot] > 0 {
                outage_sum[slot] / outage_n[slot] as f64
            } else {
                0.0
            };
            self.mean_interval[slot] = self.mean_excess(slot, 0.0);
        }
    }

    fn predict(&self, _machine: u32, t: u64, window: u64) -> f64 {
        let slot = Self::slot(day_type(t / SECS_PER_DAY, self.start_weekday));
        let mu_l = self.mean_interval[slot];
        if mu_l == 0.0 {
            return 0.5; // no training data for this day type
        }
        let cycle = mu_l + self.mean_outage[slot];
        (self.memo_excess(slot, window) / cycle).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_core::model::{FailureCause, Thresholds};
    use fgcs_testbed::trace::{TraceMeta, TraceRecord};

    fn meta(machines: u32, days: u32) -> TraceMeta {
        TraceMeta {
            seed: 1,
            machines,
            days,
            sample_period: 15,
            start_weekday: 0,
            span_secs: days as u64 * SECS_PER_DAY,
            thresholds: Thresholds::LINUX_TESTBED,
        }
    }

    fn rec(machine: u32, start: u64, end: u64) -> TraceRecord {
        TraceRecord {
            machine,
            cause: FailureCause::CpuContention,
            start,
            end: Some(end),
            raw_end: Some(end),
            avail_cpu: 0.9,
            avail_mem_mb: 800,
        }
    }

    /// One machine failing for 30 min every 4 hours on weekdays —
    /// regular intervals of 3.5 h — and never on weekends.
    fn periodic_trace() -> Trace {
        let mut records = Vec::new();
        for day in 0..21u64 {
            if day_type(day, 0) == DayType::Weekend {
                continue;
            }
            for k in 0..6u64 {
                let s = day * SECS_PER_DAY + k * 4 * 3600 + 3600;
                records.push(rec(0, s, s + 1800));
            }
        }
        Trace {
            meta: meta(1, 21),
            records,
        }
    }

    #[test]
    fn mean_excess_is_monotone_decreasing() {
        let mut p = RenewalPredictor::default();
        p.fit(&periodic_trace(), 14 * SECS_PER_DAY);
        let mut prev = f64::INFINITY;
        for w in [0u64, 1800, 3600, 2 * 3600, 4 * 3600, 8 * 3600] {
            let v = p.mean_excess(0, w as f64);
            assert!(v <= prev, "not decreasing at {w}");
            prev = v;
        }
    }

    #[test]
    fn prediction_decays_with_window() {
        let mut p = RenewalPredictor::default();
        p.fit(&periodic_trace(), 14 * SECS_PER_DAY);
        let t = 15 * SECS_PER_DAY + 10 * 3600;
        let short = p.predict(0, t, 600);
        let long = p.predict(0, t, 6 * 3600);
        assert!(short > long + 0.3, "short {short} long {long}");
        assert!(short > 0.7, "short windows mostly survive: {short}");
        // Regular weekday intervals are ~3.5 h; only the rare
        // weekend-adjacent long intervals can fit a 6 h window.
        assert!(long < 0.3, "long {long}");
    }

    #[test]
    fn memoized_predictions_equal_the_direct_sum_and_refit_clears_them() {
        let trace = periodic_trace();
        let mut p = RenewalPredictor::default();
        p.fit(&trace, 7 * SECS_PER_DAY);
        let t = 15 * SECS_PER_DAY + 10 * 3600;
        let before = p.predict(0, t, 600);
        assert_eq!(p.predict(0, t, 600), before, "a memo hit");
        // A refit on more data must not answer from the old memo.
        p.fit(&trace, 14 * SECS_PER_DAY);
        let mut fresh = RenewalPredictor::default();
        fresh.fit(&trace, 14 * SECS_PER_DAY);
        assert_ne!(fresh.predict(0, t, 600), before, "the refit moves it");
        for w in [600u64, 4 * 3600] {
            let direct = p.mean_excess(0, w as f64) / (p.mean_interval[0] + p.mean_outage[0]);
            assert_eq!(p.predict(0, t, w), direct.clamp(0.0, 1.0));
            assert_eq!(p.predict(0, t, w), fresh.predict(0, t, w));
        }
    }

    #[test]
    fn untrained_returns_uncertainty() {
        let p = RenewalPredictor::default();
        assert_eq!(p.predict(0, 0, 3600), 0.5);
    }

    #[test]
    fn weekday_weekend_distributions_are_separate() {
        // Failures only on weekdays: weekend windows should look great.
        let mut p = RenewalPredictor::default();
        p.fit(&periodic_trace(), 21 * SECS_PER_DAY);
        let weekday_t = 22 * SECS_PER_DAY + 10 * 3600; // Tuesday
        let weekend_t = 26 * SECS_PER_DAY + 10 * 3600; // Saturday
        let wd = p.predict(0, weekday_t, 2 * 3600);
        let we = p.predict(0, weekend_t, 2 * 3600);
        assert!(we > wd, "weekend {we} weekday {wd}");
    }

    #[test]
    fn probabilities_are_valid_on_real_traces() {
        use fgcs_testbed::runner::{run_testbed, TestbedConfig};
        let mut cfg = TestbedConfig::tiny();
        cfg.lab.days = 14;
        let trace = run_testbed(&cfg);
        let mut p = RenewalPredictor::default();
        p.fit(&trace, 10 * SECS_PER_DAY);
        for t in (10 * SECS_PER_DAY..13 * SECS_PER_DAY).step_by(7200) {
            for w in [600u64, 3600, 6 * 3600] {
                let prob = p.predict(0, t, w);
                assert!((0.0..=1.0).contains(&prob), "prob {prob}");
            }
        }
    }
}
