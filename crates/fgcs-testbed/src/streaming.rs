//! Bounded-memory streaming versions of the §5 analyses.
//!
//! The exact path ([`crate::analysis`]) materializes every availability
//! interval before sorting it into an ECDF, so its memory grows with
//! fleet-days — fine for 20 machines × 92 days, fatal for 100k+. This
//! module folds each machine's occurrence records into fixed-size
//! accumulators the moment they are produced and then discards them:
//!
//! * **Table 2** — per-machine [`CauseCounts`] reduced on the fly into
//!   min–max [`Range`]s and percentage ranges (integer arithmetic,
//!   *exactly* equal to the exact path);
//! * **Figure 6** — interval lengths pushed into mergeable
//!   [`RankSketch`]es (weekday/weekend), quantiles within the sketch's
//!   runtime-certified rank bound of the exact ECDF;
//! * **Figure 7** — the day×hour occurrence matrix, whose size is
//!   bounded by *days*, not machines, and which is bit-identical to
//!   [`analysis::day_hour_counts`] (integer addition commutes across
//!   machines).
//!
//! [`StreamingAnalysis::merge`] combines partials over disjoint sets of
//! machines; folding and merging them in a fixed grouping and order
//! (what [`crate::fleet::run_fleet`] does) makes the result
//! bit-identical regardless of the worker count.

use fgcs_stats::sketch::RankSketch;

use crate::analysis::{
    self, machine_intervals, CauseCounts, HourlyAnalysis, Range, Regularity, Table2,
};
use crate::calendar::{day_index, day_type, DayType, SECS_PER_HOUR};
use crate::trace::{Trace, TraceRecord};

/// A running min–max fold over per-machine values, mirroring
/// `Range::over` (empty folds collapse to `0-0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RangeFold {
    min: usize,
    max: usize,
    any: bool,
}

impl RangeFold {
    fn new() -> Self {
        RangeFold {
            min: usize::MAX,
            max: 0,
            any: false,
        }
    }

    fn push(&mut self, v: usize) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.any = true;
    }

    fn merge(&mut self, o: &RangeFold) {
        if o.any {
            self.min = self.min.min(o.min);
            self.max = self.max.max(o.max);
            self.any = true;
        }
    }

    fn get(&self) -> Range {
        if self.any {
            Range {
                min: self.min,
                max: self.max,
            }
        } else {
            Range { min: 0, max: 0 }
        }
    }
}

/// The Table 2 numbers without the per-machine vector: everything the
/// paper's table reports, computable in O(1) memory per machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Summary {
    /// Machines folded in.
    pub machines: u64,
    /// Total occurrences across the fleet.
    pub occurrences: u64,
    /// Range of per-machine totals.
    pub total: Range,
    /// Range of per-machine S3 counts.
    pub cpu: Range,
    /// Range of per-machine S4 counts.
    pub mem: Range,
    /// Range of per-machine S5 counts.
    pub urr: Range,
    /// Percentage ranges relative to each machine's own total
    /// (machines with zero occurrences excluded, as in
    /// [`Table2::percentage_ranges`]).
    pub cpu_pct: Range,
    /// S4 percentage range.
    pub mem_pct: Range,
    /// S5 percentage range.
    pub urr_pct: Range,
    /// Fraction of all URR occurrences that are reboots.
    pub urr_reboot_fraction: f64,
}

impl From<&Table2> for Table2Summary {
    /// The same summary computed from the exact analysis — the
    /// equivalence oracle for the streaming path.
    fn from(t2: &Table2) -> Self {
        let (cpu_pct, mem_pct, urr_pct) = t2.percentage_ranges();
        Table2Summary {
            machines: t2.per_machine.len() as u64,
            occurrences: t2.per_machine.iter().map(|c| c.total as u64).sum(),
            total: t2.total,
            cpu: t2.cpu,
            mem: t2.mem,
            urr: t2.urr,
            cpu_pct,
            mem_pct,
            urr_pct,
            urr_reboot_fraction: t2.urr_reboot_fraction,
        }
    }
}

/// Streaming accumulator for Table 2 / Figure 6 / Figure 7 over a
/// fleet of machines. Feed one machine at a time with
/// [`StreamingAnalysis::push_machine`]; memory stays `O(days + sketch)`
/// no matter how many machines flow through.
#[derive(Debug, Clone)]
pub struct StreamingAnalysis {
    days: usize,
    span_secs: u64,
    start_weekday: u8,
    machines: u64,
    // Table 2.
    sums: CauseCounts,
    total_r: RangeFold,
    cpu_r: RangeFold,
    mem_r: RangeFold,
    urr_r: RangeFold,
    cpu_pct_r: RangeFold,
    mem_pct_r: RangeFold,
    urr_pct_r: RangeFold,
    // Figure 6.
    weekday_hours: RankSketch,
    weekend_hours: RankSketch,
    weekday_sum: f64,
    weekend_sum: f64,
    // Figure 7.
    day_hour: Vec<[u32; 24]>,
}

impl StreamingAnalysis {
    /// An empty accumulator for a trace of `days` days starting on
    /// `start_weekday`, with interval sketches of capacity `sketch_k`.
    pub fn new(days: usize, start_weekday: u8, sketch_k: usize) -> Self {
        StreamingAnalysis {
            days,
            span_secs: days as u64 * crate::calendar::SECS_PER_DAY,
            start_weekday,
            machines: 0,
            sums: CauseCounts::default(),
            total_r: RangeFold::new(),
            cpu_r: RangeFold::new(),
            mem_r: RangeFold::new(),
            urr_r: RangeFold::new(),
            cpu_pct_r: RangeFold::new(),
            mem_pct_r: RangeFold::new(),
            urr_pct_r: RangeFold::new(),
            weekday_hours: RankSketch::new(sketch_k),
            weekend_hours: RankSketch::new(sketch_k),
            weekday_sum: 0.0,
            weekend_sum: 0.0,
            day_hour: vec![[0u32; 24]; days],
        }
    }

    /// Folds an entire trace, machine by machine (including machines
    /// with no records — their zero counts widen the Table 2 ranges,
    /// exactly as the exact path counts them).
    pub fn from_trace(trace: &Trace, sketch_k: usize) -> Self {
        let mut acc = Self::new(trace.meta.days as usize, trace.meta.start_weekday, sketch_k);
        let per_machine = trace.per_machine();
        for m in 0..trace.meta.machines {
            match per_machine.get(&m) {
                Some(recs) => acc.push_machine_refs(recs),
                None => acc.push_machine_refs(&[]),
            }
        }
        acc
    }

    /// Folds one machine's complete record list (sorted by start, the
    /// order the recorder produces) and forgets it.
    pub fn push_machine(&mut self, records: &[TraceRecord]) {
        let refs: Vec<&TraceRecord> = records.iter().collect();
        self.push_machine_refs(&refs);
    }

    /// [`Self::push_machine`] over borrowed records.
    pub fn push_machine_refs(&mut self, records: &[&TraceRecord]) {
        self.machines += 1;

        // Table 2: fold this machine's counts into the ranges.
        let mut c = CauseCounts::default();
        for r in records {
            c.push_record(r);
        }
        self.sums.total += c.total;
        self.sums.cpu += c.cpu;
        self.sums.mem += c.mem;
        self.sums.urr += c.urr;
        self.sums.urr_reboots += c.urr_reboots;
        self.total_r.push(c.total);
        self.cpu_r.push(c.cpu);
        self.mem_r.push(c.mem);
        self.urr_r.push(c.urr);
        let pct = |n: usize| (n * 100 + c.total / 2).checked_div(c.total);
        if let (Some(cpu), Some(mem), Some(urr)) = (pct(c.cpu), pct(c.mem), pct(c.urr)) {
            self.cpu_pct_r.push(cpu);
            self.mem_pct_r.push(mem);
            self.urr_pct_r.push(urr);
        }

        // Figure 6: availability intervals into the sketches.
        for (s, e) in machine_intervals(records, self.span_secs) {
            let hours = (e - s) as f64 / SECS_PER_HOUR as f64;
            match day_type(day_index(s), self.start_weekday) {
                DayType::Weekday => {
                    self.weekday_hours.push(hours);
                    self.weekday_sum += hours;
                }
                DayType::Weekend => {
                    self.weekend_hours.push(hours);
                    self.weekend_sum += hours;
                }
            }
        }

        // Figure 7: hour-bin hits.
        for r in records {
            analysis::count_record_hours(&mut self.day_hour, r, self.span_secs);
        }
    }

    /// Merges a partial accumulator produced over a disjoint set of
    /// machines. Merge partials in a fixed order (e.g. the chunk order
    /// of [`crate::fleet::run_fleet`]) for bit-identical results across
    /// worker counts.
    ///
    /// # Panics
    /// Panics if the two accumulators describe different trace shapes.
    pub fn merge(&mut self, o: &StreamingAnalysis) {
        assert_eq!(
            (self.days, self.span_secs, self.start_weekday),
            (o.days, o.span_secs, o.start_weekday),
            "StreamingAnalysis::merge: trace shape mismatch"
        );
        self.machines += o.machines;
        self.sums.total += o.sums.total;
        self.sums.cpu += o.sums.cpu;
        self.sums.mem += o.sums.mem;
        self.sums.urr += o.sums.urr;
        self.sums.urr_reboots += o.sums.urr_reboots;
        self.total_r.merge(&o.total_r);
        self.cpu_r.merge(&o.cpu_r);
        self.mem_r.merge(&o.mem_r);
        self.urr_r.merge(&o.urr_r);
        self.cpu_pct_r.merge(&o.cpu_pct_r);
        self.mem_pct_r.merge(&o.mem_pct_r);
        self.urr_pct_r.merge(&o.urr_pct_r);
        self.weekday_hours.merge(&o.weekday_hours);
        self.weekend_hours.merge(&o.weekend_hours);
        self.weekday_sum += o.weekday_sum;
        self.weekend_sum += o.weekend_sum;
        for (mine, theirs) in self.day_hour.iter_mut().zip(&o.day_hour) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }

    /// Machines folded in so far.
    pub fn machines(&self) -> u64 {
        self.machines
    }

    /// Trace length in days.
    pub fn days(&self) -> usize {
        self.days
    }

    /// The Table 2 summary (exactly equal to the exact path's numbers —
    /// integer folds commute).
    pub fn table2_summary(&self) -> Table2Summary {
        Table2Summary {
            machines: self.machines,
            occurrences: self.sums.total as u64,
            total: self.total_r.get(),
            cpu: self.cpu_r.get(),
            mem: self.mem_r.get(),
            urr: self.urr_r.get(),
            cpu_pct: self.cpu_pct_r.get(),
            mem_pct: self.mem_pct_r.get(),
            urr_pct: self.urr_pct_r.get(),
            urr_reboot_fraction: if self.sums.urr == 0 {
                0.0
            } else {
                self.sums.urr_reboots as f64 / self.sums.urr as f64
            },
        }
    }

    /// Interval-length sketch for a day type (Figure 6).
    pub fn interval_sketch(&self, dt: DayType) -> &RankSketch {
        match dt {
            DayType::Weekday => &self.weekday_hours,
            DayType::Weekend => &self.weekend_hours,
        }
    }

    /// Mean interval length in hours for a day type (exact running sum,
    /// not a sketch estimate).
    pub fn mean_hours(&self, dt: DayType) -> f64 {
        let (sum, n) = match dt {
            DayType::Weekday => (self.weekday_sum, self.weekday_hours.count()),
            DayType::Weekend => (self.weekend_sum, self.weekend_hours.count()),
        };
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// The day×hour occurrence matrix (bit-identical to
    /// [`analysis::day_hour_counts`]).
    pub fn day_hour_counts(&self) -> &[[u32; 24]] {
        &self.day_hour
    }

    /// Figure 7 bands, bit-identical to [`analysis::hourly`].
    pub fn hourly(&self) -> HourlyAnalysis {
        analysis::hourly_from_matrix(&self.day_hour, self.start_weekday)
    }

    /// §5.3 regularity metrics, bit-identical to
    /// [`analysis::regularity`].
    pub fn regularity(&self) -> Regularity {
        analysis::regularity_from_matrix(&self.day_hour, self.start_weekday)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_testbed, TestbedConfig};
    use fgcs_stats::Ecdf;

    fn lab_trace() -> Trace {
        let mut cfg = TestbedConfig::tiny();
        cfg.lab.machines = 4;
        cfg.lab.days = 14;
        run_testbed(&cfg)
    }

    #[test]
    fn table2_summary_matches_exact_path() {
        let trace = lab_trace();
        let exact = Table2Summary::from(&analysis::table2(&trace));
        let streaming = StreamingAnalysis::from_trace(&trace, 1024).table2_summary();
        assert_eq!(streaming, exact);
    }

    #[test]
    fn fig7_matrix_is_bit_identical() {
        let trace = lab_trace();
        let acc = StreamingAnalysis::from_trace(&trace, 256);
        assert_eq!(
            acc.day_hour_counts(),
            &analysis::day_hour_counts(&trace)[..]
        );
        let exact = analysis::regularity(&trace);
        assert_eq!(acc.regularity(), exact);
        let bands = acc.hourly();
        let exact_bands = analysis::hourly(&trace);
        assert_eq!(bands.weekday.bands(), exact_bands.weekday.bands());
        assert_eq!(bands.weekend.bands(), exact_bands.weekend.bands());
    }

    #[test]
    fn fig6_sketch_within_bound_of_exact_ecdf() {
        let trace = lab_trace();
        let acc = StreamingAnalysis::from_trace(&trace, 512);
        let exact = analysis::intervals(&trace);
        for (dt, ecdf) in [
            (DayType::Weekday, &exact.weekday),
            (DayType::Weekend, &exact.weekend),
        ] {
            let sk = acc.interval_sketch(dt);
            assert_eq!(sk.count(), ecdf.len() as u64, "{dt:?} interval count");
            let bound = sk.quantile_rank_error_bound() as i64;
            for i in 1..20 {
                let q = i as f64 / 20.0;
                let v = sk.quantile(q).expect("non-empty, no NaN");
                let rank = ecdf.samples().iter().filter(|x| **x <= v).count() as i64;
                let target = (q * ecdf.len() as f64).ceil() as i64;
                assert!(
                    (rank - target).abs() <= bound,
                    "{dt:?} q={q}: rank {rank} target {target} bound {bound}"
                );
            }
            // Exact means agree to float tolerance (different sum order).
            let m = acc.mean_hours(dt);
            assert!((m - ecdf.mean()).abs() < 1e-9 * (1.0 + m.abs()));
        }
    }

    #[test]
    fn merge_of_machine_partitions_equals_single_pass() {
        let trace = lab_trace();
        let whole = StreamingAnalysis::from_trace(&trace, 256);
        // Split machines 0..4 into two partials and merge in order.
        let per = trace.per_machine();
        let k = 256;
        let mut a = StreamingAnalysis::new(trace.meta.days as usize, trace.meta.start_weekday, k);
        let mut b = StreamingAnalysis::new(trace.meta.days as usize, trace.meta.start_weekday, k);
        for m in 0..trace.meta.machines {
            let target = if m < 2 { &mut a } else { &mut b };
            match per.get(&m) {
                Some(recs) => target.push_machine_refs(recs),
                None => target.push_machine_refs(&[]),
            }
        }
        a.merge(&b);
        // Integer state and sketches are bit-identical; the running f64
        // interval-hour sums are grouped differently ((a)+(b) vs one
        // pass), so they agree only to float tolerance. Fleet-level
        // bit-reproducibility still holds because the chunking — and
        // therefore the grouping — is a config constant.
        assert_eq!(a.table2_summary(), whole.table2_summary());
        assert_eq!(a.day_hour_counts(), whole.day_hour_counts());
        for dt in [DayType::Weekday, DayType::Weekend] {
            assert_eq!(
                format!("{:?}", a.interval_sketch(dt)),
                format!("{:?}", whole.interval_sketch(dt))
            );
            let (x, y) = (a.mean_hours(dt), whole.mean_hours(dt));
            assert!((x - y).abs() < 1e-9 * (1.0 + x.abs()), "{dt:?}: {x} vs {y}");
        }
    }

    #[test]
    fn empty_machines_widen_ranges_like_exact() {
        // A trace claiming 3 machines where only machine 1 has records.
        let mut trace = lab_trace();
        trace.meta.machines = 6; // 2 extra silent machines
        let exact = Table2Summary::from(&analysis::table2(&trace));
        let streaming = StreamingAnalysis::from_trace(&trace, 64).table2_summary();
        assert_eq!(streaming, exact);
        assert_eq!(streaming.total.min, 0, "silent machines pull min to 0");
    }

    #[test]
    fn ecdf_cdf_and_sketch_cdf_agree_within_bound() {
        let trace = lab_trace();
        let acc = StreamingAnalysis::from_trace(&trace, 512);
        let exact = analysis::intervals(&trace);
        let sk = acc.interval_sketch(DayType::Weekday);
        let eps = sk.rank_error_bound() as f64 / sk.count() as f64;
        for x in [0.5, 1.0, 2.0, 4.0, 8.0, 24.0] {
            let e = Ecdf::eval(&exact.weekday, x);
            let s = sk.cdf(x).unwrap();
            assert!((e - s).abs() <= eps + 1e-12, "x={x}: exact {e} sketch {s}");
        }
    }
}
