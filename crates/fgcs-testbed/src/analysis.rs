//! Trace analysis — the §5 results.
//!
//! * [`table2`] — unavailability by cause, per-machine ranges (Table 2)
//!   including the reboot/failure split of URR;
//! * [`intervals`] — availability-interval lengths, weekday vs weekend
//!   (Figure 6);
//! * [`hourly`] — unavailability occurrences per hour of day with mean
//!   and range bands (Figure 7);
//! * [`regularity`] — the across-day deviation analysis behind the
//!   paper's predictability claim (§5.3).

use fgcs_core::model::FailureCause;
use fgcs_stats::corr::mean_pairwise_correlation;
use fgcs_stats::ecdf::Ecdf;
use fgcs_stats::grouped::GroupedStats;

use crate::calendar::{day_index, day_type, DayType, SECS_PER_DAY, SECS_PER_HOUR};
use crate::quality::TraceQualityReport;
use crate::trace::{Trace, TraceRecord};

/// URR occurrences with a raw outage shorter than this are machine
/// reboots ("URR with intervals shorter than one minute", §5.1).
pub const REBOOT_CUTOFF_SECS: u64 = 60;

/// Per-machine failure counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CauseCounts {
    /// All occurrences.
    pub total: usize,
    /// S3, CPU contention.
    pub cpu: usize,
    /// S4, memory thrashing.
    pub mem: usize,
    /// S5, revocation.
    pub urr: usize,
    /// S5 occurrences classified as reboots (raw outage < 1 minute).
    pub urr_reboots: usize,
}

/// Min–max range over machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Smallest per-machine value.
    pub min: usize,
    /// Largest per-machine value.
    pub max: usize,
}

impl Range {
    fn over<I: Iterator<Item = usize>>(values: I) -> Range {
        let mut min = usize::MAX;
        let mut max = 0;
        let mut any = false;
        for v in values {
            min = min.min(v);
            max = max.max(v);
            any = true;
        }
        if !any {
            Range { min: 0, max: 0 }
        } else {
            Range { min, max }
        }
    }
}

impl std::fmt::Display for Range {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}", self.min, self.max)
    }
}

/// The Table 2 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Per-machine counts (index = machine id).
    pub per_machine: Vec<CauseCounts>,
    /// Range of totals across machines.
    pub total: Range,
    /// Range of S3 counts.
    pub cpu: Range,
    /// Range of S4 counts.
    pub mem: Range,
    /// Range of S5 counts.
    pub urr: Range,
    /// Fraction of all URR occurrences that are reboots (paper: ~90%).
    pub urr_reboot_fraction: f64,
}

impl Table2 {
    /// The table over per-machine counts (index = machine id): the
    /// ranges across machines and the testbed-wide URR reboot fraction.
    pub fn from_per_machine(per_machine: Vec<CauseCounts>) -> Table2 {
        let urr_total: usize = per_machine.iter().map(|c| c.urr).sum();
        let reboots: usize = per_machine.iter().map(|c| c.urr_reboots).sum();
        Table2 {
            total: Range::over(per_machine.iter().map(|c| c.total)),
            cpu: Range::over(per_machine.iter().map(|c| c.cpu)),
            mem: Range::over(per_machine.iter().map(|c| c.mem)),
            urr: Range::over(per_machine.iter().map(|c| c.urr)),
            urr_reboot_fraction: if urr_total == 0 {
                0.0
            } else {
                reboots as f64 / urr_total as f64
            },
            per_machine,
        }
    }

    /// Percentage ranges relative to each machine's own total, as the
    /// paper reports them.
    pub fn percentage_ranges(&self) -> (Range, Range, Range) {
        let pct = |get: fn(&CauseCounts) -> usize| {
            Range::over(
                self.per_machine
                    .iter()
                    .filter(|c| c.total > 0)
                    .map(|c| (get(c) * 100 + c.total / 2) / c.total),
            )
        };
        (pct(|c| c.cpu), pct(|c| c.mem), pct(|c| c.urr))
    }
}

impl CauseCounts {
    /// Counts one occurrence record, including the reboot/failure split
    /// of URR — the single per-record rule both the exact [`table2`] and
    /// the streaming path ([`crate::streaming`]) apply.
    pub fn push_record(&mut self, r: &TraceRecord) {
        self.total += 1;
        match r.cause {
            FailureCause::CpuContention => self.cpu += 1,
            FailureCause::MemoryThrashing => self.mem += 1,
            FailureCause::Revocation => {
                self.urr += 1;
                let reboot = r
                    .raw_duration()
                    .map(|d| d < REBOOT_CUTOFF_SECS)
                    .unwrap_or(false);
                if reboot {
                    self.urr_reboots += 1;
                }
            }
        }
    }
}

/// Computes the Table 2 statistics from a trace.
pub fn table2(trace: &Trace) -> Table2 {
    let mut per_machine = vec![CauseCounts::default(); trace.meta.machines as usize];
    for r in &trace.records {
        per_machine[r.machine as usize].push_record(r);
    }
    Table2::from_per_machine(per_machine)
}

/// Availability intervals of one machine as `(start, end)` pairs — the
/// complement of its occurrences over the trace span.
pub fn machine_intervals(records: &[&TraceRecord], span_secs: u64) -> Vec<(u64, u64)> {
    let mut intervals = Vec::new();
    let mut cursor = 0u64;
    for r in records {
        if r.start > cursor {
            intervals.push((cursor, r.start));
        }
        cursor = cursor.max(r.end.unwrap_or(span_secs).min(span_secs));
        if cursor >= span_secs {
            break;
        }
    }
    if cursor < span_secs {
        intervals.push((cursor, span_secs));
    }
    intervals
}

/// The Figure 6 reproduction: interval-length distributions by day type.
#[derive(Debug, Clone)]
pub struct IntervalAnalysis {
    /// Interval lengths (hours) for intervals starting on weekdays.
    pub weekday: Ecdf,
    /// Interval lengths (hours) for intervals starting on weekends.
    pub weekend: Ecdf,
}

impl IntervalAnalysis {
    /// Mean interval length in hours for a day type.
    pub fn mean_hours(&self, dt: DayType) -> f64 {
        match dt {
            DayType::Weekday => self.weekday.mean(),
            DayType::Weekend => self.weekend.mean(),
        }
    }

    /// Fraction of intervals with length in `(lo_hours, hi_hours]`.
    pub fn fraction_between(&self, dt: DayType, lo_hours: f64, hi_hours: f64) -> f64 {
        match dt {
            DayType::Weekday => self.weekday.fraction_between(lo_hours, hi_hours),
            DayType::Weekend => self.weekend.fraction_between(lo_hours, hi_hours),
        }
    }
}

/// Computes the availability-interval distributions. Intervals are
/// classified by the day type of their start, as the paper plots
/// weekday and weekend curves.
pub fn intervals(trace: &Trace) -> IntervalAnalysis {
    let mut weekday = Vec::new();
    let mut weekend = Vec::new();
    for (_, recs) in trace.per_machine() {
        for (s, e) in machine_intervals(&recs, trace.meta.span_secs) {
            let hours = (e - s) as f64 / SECS_PER_HOUR as f64;
            match day_type(day_index(s), trace.meta.start_weekday) {
                DayType::Weekday => weekday.push(hours),
                DayType::Weekend => weekend.push(hours),
            }
        }
    }
    IntervalAnalysis {
        weekday: Ecdf::new(&weekday),
        weekend: Ecdf::new(&weekend),
    }
}

/// [`intervals`] over a trace with known quality problems: availability
/// intervals overlapping a censored span are *excluded* from the
/// distributions, not truncated at the censoring boundary. A censored
/// span means "we do not know what the machine did here" — the paper's
/// Figure 6 plots observed interval *lengths*, and an interval whose
/// true extent is unknown has no defensible length to contribute;
/// truncating it at the gap would systematically bias the CDFs short.
pub fn intervals_censored(trace: &Trace, quality: &TraceQualityReport) -> IntervalAnalysis {
    let mut weekday = Vec::new();
    let mut weekend = Vec::new();
    for (machine, recs) in trace.per_machine() {
        let mq = quality.machines.get(&machine);
        for (s, e) in machine_intervals(&recs, trace.meta.span_secs) {
            if mq.is_some_and(|m| m.overlaps_censored(s, e)) {
                continue;
            }
            let hours = (e - s) as f64 / SECS_PER_HOUR as f64;
            match day_type(day_index(s), trace.meta.start_weekday) {
                DayType::Weekday => weekday.push(hours),
                DayType::Weekend => weekend.push(hours),
            }
        }
    }
    IntervalAnalysis {
        weekday: Ecdf::new(&weekday),
        weekend: Ecdf::new(&weekend),
    }
}

/// The Figure 7 reproduction: per-hour occurrence counts, aggregated
/// over the testbed, with mean and min–max range across days.
#[derive(Debug, Clone)]
pub struct HourlyAnalysis {
    /// Hour-of-day statistics over weekdays (key = hour `0..24`,
    /// value = testbed-wide occurrence count for that hour of each day).
    pub weekday: GroupedStats<u8>,
    /// Same over weekend days.
    pub weekend: GroupedStats<u8>,
}

/// Per-day, per-hour occurrence matrix (day-major), used by both the
/// hourly bands and the regularity analysis. An occurrence spanning
/// multiple hours is counted once in every hour interval it overlaps, as
/// the paper specifies.
pub fn day_hour_counts(trace: &Trace) -> Vec<[u32; 24]> {
    let mut counts = vec![[0u32; 24]; trace.meta.days as usize];
    for r in &trace.records {
        count_record_hours(&mut counts, r, trace.meta.span_secs);
    }
    counts
}

/// Adds one record's hour-bin hits to a day×hour matrix — shared by
/// [`day_hour_counts`] and the streaming path so the Figure 7 matrix is
/// bit-identical either way.
pub fn count_record_hours(counts: &mut [[u32; 24]], r: &TraceRecord, span_secs: u64) {
    let days = counts.len();
    let end = r.end.unwrap_or(span_secs).min(span_secs);
    let mut hour_start = r.start - (r.start % SECS_PER_HOUR);
    while hour_start < end {
        let day = (hour_start / SECS_PER_DAY) as usize;
        if day >= days {
            break;
        }
        let hour = ((hour_start % SECS_PER_DAY) / SECS_PER_HOUR) as usize;
        counts[day][hour] += 1;
        hour_start += SECS_PER_HOUR;
    }
}

/// Computes the Figure 7 hourly bands.
pub fn hourly(trace: &Trace) -> HourlyAnalysis {
    hourly_from_matrix(&day_hour_counts(trace), trace.meta.start_weekday)
}

/// [`hourly`] from a precomputed day×hour matrix — the entry point the
/// bounded-memory streaming path ([`crate::streaming`]) shares with the
/// exact one, so both produce bit-identical Figure 7 bands.
pub fn hourly_from_matrix(matrix: &[[u32; 24]], start_weekday: u8) -> HourlyAnalysis {
    let mut weekday = GroupedStats::new();
    let mut weekend = GroupedStats::new();
    for (day, hours) in matrix.iter().enumerate() {
        let target = match day_type(day as u64, start_weekday) {
            DayType::Weekday => &mut weekday,
            DayType::Weekend => &mut weekend,
        };
        for (h, &c) in hours.iter().enumerate() {
            target.push(h as u8, c as f64);
        }
    }
    HourlyAnalysis { weekday, weekend }
}

/// The §5.3 regularity analysis: how similar the hourly failure pattern
/// of one day is to other days of the same type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regularity {
    /// Mean pairwise Pearson correlation between weekday hour-vectors.
    pub weekday_correlation: f64,
    /// Mean pairwise Pearson correlation between weekend hour-vectors.
    pub weekend_correlation: f64,
    /// Mean coefficient of variation of the per-hour weekday counts
    /// (small = "deviations ... are small").
    pub weekday_mean_cv: f64,
    /// Same for weekends.
    pub weekend_mean_cv: f64,
}

/// Computes the regularity metrics.
pub fn regularity(trace: &Trace) -> Regularity {
    regularity_from_matrix(&day_hour_counts(trace), trace.meta.start_weekday)
}

/// [`regularity`] from a precomputed day×hour matrix (shared with the
/// streaming path, same bit-identity guarantee as
/// [`hourly_from_matrix`]).
pub fn regularity_from_matrix(matrix: &[[u32; 24]], start_weekday: u8) -> Regularity {
    let mut weekday_vecs: Vec<Vec<f64>> = Vec::new();
    let mut weekend_vecs: Vec<Vec<f64>> = Vec::new();
    for (day, hours) in matrix.iter().enumerate() {
        let v: Vec<f64> = hours.iter().map(|&c| c as f64).collect();
        match day_type(day as u64, start_weekday) {
            DayType::Weekday => weekday_vecs.push(v),
            DayType::Weekend => weekend_vecs.push(v),
        }
    }
    let bands = hourly_from_matrix(matrix, start_weekday);
    let mean_cv = |g: &GroupedStats<u8>| {
        let cvs: Vec<f64> = g
            .iter()
            .filter(|(_, s)| s.mean() > 0.0)
            .map(|(_, s)| s.cv())
            .collect();
        if cvs.is_empty() {
            0.0
        } else {
            cvs.iter().sum::<f64>() / cvs.len() as f64
        }
    };
    Regularity {
        weekday_correlation: mean_pairwise_correlation(&weekday_vecs).unwrap_or(0.0),
        weekend_correlation: mean_pairwise_correlation(&weekend_vecs).unwrap_or(0.0),
        weekday_mean_cv: mean_cv(&bands.weekday),
        weekend_mean_cv: mean_cv(&bands.weekend),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceMeta, TraceRecord};
    use fgcs_core::model::Thresholds;

    /// End-to-end NaN regression: a recovered trace whose damaged line
    /// carried a non-finite availability mean must flow through every §5
    /// analysis without panicking — the loader rejects the line, the
    /// stats sorts are total_cmp either way.
    #[test]
    fn recovered_trace_with_non_finite_means_analyzes_cleanly() {
        use crate::runner::{run_testbed, TestbedConfig};
        let trace = run_testbed(&TestbedConfig::tiny());
        let mut buf = Vec::new();
        trace.write_jsonl(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // A corrupt record whose JSON number overflows to infinity.
        text.push_str(
            "{\"machine\":0,\"cause\":\"CpuContention\",\"start\":10,\
             \"end\":20,\"raw_end\":20,\"avail_cpu\":1e999,\"avail_mem_mb\":1}\n",
        );
        let (back, q) = Trace::read_jsonl_recovering(text.as_bytes()).unwrap();
        assert_eq!(q.corrupt_lines, 1, "the non-finite record is rejected");
        assert_eq!(back.records.len(), trace.records.len());
        assert!(back.records.iter().all(|r| r.avail_cpu.is_finite()));

        let t2 = table2(&back);
        assert!(t2.urr_reboot_fraction.is_finite());
        let iv = intervals(&back);
        assert!(iv.mean_hours(DayType::Weekday).is_finite());
        let h = hourly(&back);
        assert!(h.weekday.bands().iter().all(|(_, _, m, _)| m.is_finite()));
        let r = regularity(&back);
        assert!(r.weekday_correlation.is_finite());
    }

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

    fn rec(machine: u32, cause: FailureCause, start: u64, end: u64, raw_end: u64) -> TraceRecord {
        TraceRecord {
            machine,
            cause,
            start,
            end: Some(end),
            raw_end: Some(raw_end),
            avail_cpu: 0.9,
            avail_mem_mb: 800,
        }
    }

    #[test]
    fn censored_intervals_are_excluded_not_truncated() {
        // One machine, one day. Occurrence at [3600, 7200) splits the day
        // into intervals [0, 3600) and [7200, 86400). Censoring a span
        // inside the second interval must drop that whole interval.
        let records = vec![rec(0, FailureCause::CpuContention, 3_600, 7_200, 7_000)];
        let trace = Trace {
            meta: meta(1, 1),
            records,
        };
        let clean = intervals(&trace);
        assert_eq!(clean.weekday.len(), 2);

        let mut q = TraceQualityReport::new();
        q.machine_mut(0).censored_spans = vec![(10_000, 12_000)];
        let censored = intervals_censored(&trace, &q);
        assert_eq!(censored.weekday.len(), 1, "overlapping interval excluded");
        assert!(
            (censored.weekday.mean() - 1.0).abs() < 1e-9,
            "the 1 h interval survives"
        );

        // An empty quality report reproduces the uncensored analysis.
        let same = intervals_censored(&trace, &TraceQualityReport::new());
        assert_eq!(same.weekday.len(), clean.weekday.len());
        assert_eq!(same.weekend.len(), clean.weekend.len());
    }

    #[test]
    fn table2_counts_and_reboot_split() {
        let records = vec![
            rec(0, FailureCause::CpuContention, 100, 700, 400),
            rec(0, FailureCause::MemoryThrashing, 1_000, 1_500, 1_200),
            rec(0, FailureCause::Revocation, 2_000, 2_400, 2_030), // reboot (30 s)
            rec(1, FailureCause::Revocation, 3_000, 11_000, 10_000), // hw failure
            rec(1, FailureCause::CpuContention, 20_000, 20_600, 20_300),
        ];
        let t2 = table2(&Trace {
            meta: meta(2, 1),
            records,
        });
        assert_eq!(t2.per_machine[0].total, 3);
        assert_eq!(t2.per_machine[0].urr_reboots, 1);
        assert_eq!(t2.per_machine[1].urr_reboots, 0);
        assert_eq!(t2.total, Range { min: 2, max: 3 });
        assert_eq!(t2.cpu, Range { min: 1, max: 1 });
        assert!((t2.urr_reboot_fraction - 0.5).abs() < 1e-12);
        let (cpu_pct, mem_pct, urr_pct) = t2.percentage_ranges();
        assert_eq!(cpu_pct, Range { min: 33, max: 50 });
        assert_eq!(mem_pct, Range { min: 0, max: 33 });
        assert_eq!(urr_pct, Range { min: 33, max: 50 });
    }

    #[test]
    fn machine_intervals_complement() {
        let r1 = rec(0, FailureCause::CpuContention, 100, 200, 150);
        let r2 = rec(0, FailureCause::CpuContention, 500, 600, 550);
        let refs: Vec<&TraceRecord> = vec![&r1, &r2];
        let ivals = machine_intervals(&refs, 1_000);
        assert_eq!(ivals, vec![(0, 100), (200, 500), (600, 1_000)]);
        // An occurrence still open at the end of the trace truncates the
        // last interval.
        let open = TraceRecord {
            end: None,
            raw_end: None,
            ..rec(0, FailureCause::CpuContention, 700, 0, 0)
        };
        assert_eq!(
            machine_intervals(&[&r1, &open], 1_000),
            [(0, 100), (200, 700)]
        );
        // No occurrences: the whole span is one interval.
        assert_eq!(machine_intervals(&[], 1_000), [(0, 1_000)]);
        // An occurrence at time zero leaves no empty leading interval.
        let at_zero = rec(0, FailureCause::Revocation, 0, 50, 50);
        assert_eq!(machine_intervals(&[&at_zero], 100), [(50, 100)]);
    }

    #[test]
    fn intervals_split_by_day_type() {
        // One event on a weekday (day 0, Monday) and one on a weekend
        // (day 5, Saturday) for a 7-day, 1-machine trace.
        let records = vec![
            rec(
                0,
                FailureCause::CpuContention,
                10 * SECS_PER_HOUR,
                11 * SECS_PER_HOUR,
                10 * SECS_PER_HOUR + 600,
            ),
            rec(
                0,
                FailureCause::CpuContention,
                5 * SECS_PER_DAY + 10 * SECS_PER_HOUR,
                5 * SECS_PER_DAY + 12 * SECS_PER_HOUR,
                5 * SECS_PER_DAY + 11 * SECS_PER_HOUR,
            ),
        ];
        let a = intervals(&Trace {
            meta: meta(1, 7),
            records,
        });
        // Intervals: [0,10h) wd, [11h, day5+10h) wd, [day5+12h, day7) we.
        assert_eq!(a.weekday.len(), 2);
        assert_eq!(a.weekend.len(), 1);
        assert!((a.weekend.samples()[0] - 36.0).abs() < 1e-9);
    }

    #[test]
    fn day_hour_counts_spanning_event() {
        // Event from 01:30 to 03:10 covers hour bins 1, 2 and 3.
        let records = vec![rec(0, FailureCause::CpuContention, 5_400, 11_400, 11_000)];
        let m = day_hour_counts(&Trace {
            meta: meta(1, 1),
            records,
        });
        assert_eq!(m[0][1], 1);
        assert_eq!(m[0][2], 1);
        assert_eq!(m[0][3], 1);
        assert_eq!(m[0][0], 0);
        assert_eq!(m[0][4], 0);
    }

    #[test]
    fn hourly_aggregates_across_machines() {
        // Two machines failing in the same hour of the same weekday.
        let records = vec![
            rec(
                0,
                FailureCause::CpuContention,
                10 * SECS_PER_HOUR,
                10 * SECS_PER_HOUR + 100,
                10 * SECS_PER_HOUR + 50,
            ),
            rec(
                1,
                FailureCause::CpuContention,
                10 * SECS_PER_HOUR + 200,
                10 * SECS_PER_HOUR + 300,
                10 * SECS_PER_HOUR + 250,
            ),
        ];
        let h = hourly(&Trace {
            meta: meta(2, 1),
            records,
        });
        let stats = h.weekday.get(&10).expect("hour 10 present");
        assert_eq!(stats.mean(), 2.0);
        assert_eq!(h.weekday.get(&11), None.or(h.weekday.get(&11)));
    }

    #[test]
    fn regularity_of_identical_days_is_perfect() {
        // The same event pattern on two weekdays.
        let records = vec![
            rec(
                0,
                FailureCause::CpuContention,
                10 * SECS_PER_HOUR,
                10 * SECS_PER_HOUR + 600,
                10 * SECS_PER_HOUR + 300,
            ),
            rec(
                0,
                FailureCause::CpuContention,
                SECS_PER_DAY + 10 * SECS_PER_HOUR,
                SECS_PER_DAY + 10 * SECS_PER_HOUR + 600,
                SECS_PER_DAY + 10 * SECS_PER_HOUR + 300,
            ),
        ];
        let r = regularity(&Trace {
            meta: meta(1, 2),
            records,
        });
        assert!((r.weekday_correlation - 1.0).abs() < 1e-9);
        assert_eq!(r.weekday_mean_cv, 0.0);
    }

    #[test]
    fn open_event_counts_until_span_end() {
        let mut r = rec(0, FailureCause::Revocation, 23 * SECS_PER_HOUR, 0, 0);
        r.end = None;
        r.raw_end = None;
        let m = day_hour_counts(&Trace {
            meta: meta(1, 1),
            records: vec![r],
        });
        assert_eq!(m[0][23], 1);
    }
}
