//! Property-based tests of the trace layer and statistics substrate:
//! serialization round-trips, index-vs-naive equivalence, and ECDF /
//! quantile invariants over arbitrary inputs.

use fgcs::core::model::{FailureCause, Thresholds};
use fgcs::predict::predictor::{window_was_available, EventIndex};
use fgcs::stats::ecdf::Ecdf;
use fgcs::stats::quantile::quantile;
use fgcs::testbed::trace::{Trace, TraceMeta, TraceRecord};
use proptest::prelude::*;

fn meta(machines: u32) -> TraceMeta {
    TraceMeta {
        seed: 1,
        machines,
        days: 30,
        sample_period: 15,
        start_weekday: 0,
        span_secs: 30 * 86_400,
        thresholds: Thresholds::LINUX_TESTBED,
    }
}

prop_compose! {
    fn arb_cause()(idx in 0usize..3) -> FailureCause {
        [FailureCause::CpuContention, FailureCause::MemoryThrashing, FailureCause::Revocation][idx]
    }
}

prop_compose! {
    fn arb_record(machines: u32)(
        machine in 0..machines,
        cause in arb_cause(),
        start in 0u64..2_000_000,
        dur in prop::option::of(1u64..100_000),
        raw_frac in 0.0f64..=1.0,
        avail_cpu in 0.0f64..=1.0,
        avail_mem in 0u32..2048,
    ) -> TraceRecord {
        let end = dur.map(|d| start + d);
        let raw_end = end.map(|e| start + ((e - start) as f64 * raw_frac) as u64);
        TraceRecord { machine, cause, start, end, raw_end, avail_cpu, avail_mem_mb: avail_mem }
    }
}

/// Sorted, per-machine non-overlapping records (what the detector
/// actually produces); in about half the cases one machine's last record
/// is still open when the trace ends.
fn arb_clean_records(machines: u32) -> impl Strategy<Value = Vec<TraceRecord>> {
    (
        prop::collection::vec((0..machines, 0u64..500, 1u64..300, arb_cause()), 0..40),
        0..2 * machines,
    )
        .prop_map(move |(raw, open)| {
            let mut per_machine: Vec<Vec<TraceRecord>> = vec![Vec::new(); machines as usize];
            for (m, gap, dur, cause) in raw {
                let list = &mut per_machine[m as usize];
                let start = list
                    .last()
                    .map(|r: &TraceRecord| r.end.unwrap() + gap + 1)
                    .unwrap_or(gap);
                list.push(TraceRecord {
                    machine: m,
                    cause,
                    start,
                    end: Some(start + dur),
                    raw_end: Some(start + dur / 2),
                    avail_cpu: 0.9,
                    avail_mem_mb: 900,
                });
            }
            if let Some(last) = per_machine
                .get_mut(open as usize)
                .and_then(|l| l.last_mut())
            {
                last.end = None;
                last.raw_end = None;
            }
            let mut all: Vec<TraceRecord> = per_machine.into_iter().flatten().collect();
            all.sort_by_key(|r| (r.machine, r.start));
            all
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// JSONL round trip is lossless for arbitrary records.
    #[test]
    fn jsonl_round_trip(records in prop::collection::vec(arb_record(5), 0..50)) {
        let trace = Trace { meta: meta(5), records };
        let mut buf = Vec::new();
        trace.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(&buf[..]).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// CSV round trip is lossless for arbitrary records.
    #[test]
    fn csv_round_trip(records in prop::collection::vec(arb_record(5), 0..50)) {
        let trace = Trace { meta: meta(5), records };
        let mut buf = Vec::new();
        trace.write_csv(&mut buf).unwrap();
        let back = Trace::read_csv(&buf[..], trace.meta.clone()).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// The binary-searched EventIndex agrees with the naive linear scans
    /// on every query: window availability, the end of the occurrence
    /// covering `t` (an open one never ends) and the first start at or
    /// after `t`.
    #[test]
    fn event_index_matches_naive(
        records in arb_clean_records(4),
        queries in prop::collection::vec((0u32..4, 0u64..40_000, 1u64..5_000), 1..50),
    ) {
        let trace = Trace { meta: meta(4), records };
        let index = EventIndex::build(&trace, u64::MAX);
        for (m, t, w) in queries {
            let naive = window_was_available(&trace.records, m, t, w);
            let fast = index.window_available(m, t, w);
            prop_assert_eq!(fast, naive, "machine {} window [{}, {})", m, t, t + w);

            let on_m = || trace.records.iter().filter(|r| r.machine == m);
            let covering_end = on_m()
                .map(|r| (r.start, r.end.unwrap_or(u64::MAX)))
                .find(|&(s, e)| s <= t && e > t)
                .map(|(_, e)| e);
            prop_assert_eq!(index.covering_end(m, t), covering_end, "machine {} t {}", m, t);
            let next_start = on_m().map(|r| r.start).filter(|&s| s >= t).min();
            prop_assert_eq!(index.next_start(m, t), next_start, "machine {} t {}", m, t);
        }
    }

    /// ECDF is a valid CDF: monotone, 0-to-1, eval at max is 1.
    #[test]
    fn ecdf_is_a_cdf(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let e = Ecdf::new(&samples);
        let mut prev = 0.0;
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for i in 0..=20 {
            let x = lo + (hi - lo) * i as f64 / 20.0;
            let y = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&y));
            prop_assert!(y + 1e-12 >= prev, "not monotone");
            prev = y;
        }
        prop_assert_eq!(e.eval(hi), 1.0);
        prop_assert_eq!(e.eval(lo - 1.0), 0.0);
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantile_bounds(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = quantile(&samples, q).unwrap();
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            prop_assert!(v >= prev);
            prev = v;
        }
    }

    /// OnlineStats merge is equivalent to sequential accumulation for
    /// any split point.
    #[test]
    fn online_stats_merge_any_split(
        samples in prop::collection::vec(-1e3f64..1e3, 2..100),
        split_frac in 0.0f64..=1.0,
    ) {
        use fgcs::stats::OnlineStats;
        let split = ((samples.len() as f64 * split_frac) as usize).min(samples.len());
        let whole = OnlineStats::from_slice(&samples);
        let mut left = OnlineStats::from_slice(&samples[..split]);
        let right = OnlineStats::from_slice(&samples[split..]);
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-4);
    }
}
