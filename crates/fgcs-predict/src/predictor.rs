//! Availability predictors.
//!
//! §5.3 of the paper concludes: "it is feasible to predict resource
//! availability over an arbitrary future time window, if the prediction
//! uses history data for the corresponding time windows from previous
//! weekdays or weekends ... One approach is to use statistics on history
//! trace to alleviate the effects of 'irregular' data." The
//! [`HistoryWindowPredictor`] is that algorithm; the others are the
//! baselines any evaluation needs.
//!
//! A predictor answers: *what is the probability that machine `m`
//! remains available throughout the window `[t, t+w)`?*

use fgcs_testbed::calendar::{day_index, day_type, hour_of_day, DayType, SECS_PER_DAY};
use fgcs_testbed::trace::{Trace, TraceRecord};

/// Probability that a machine stays available over a future window.
///
/// `Send + Sync` so that [`crate::eval::evaluate`] can score one fitted
/// predictor on several windows at once.
pub trait AvailabilityPredictor: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;
    /// Trains on all trace records that *start* before `train_end`.
    fn fit(&mut self, trace: &Trace, train_end: u64);
    /// Probability of zero unavailability on `machine` during
    /// `[t, t + window)`. Must return a value in `[0, 1]`.
    fn predict(&self, machine: u32, t: u64, window: u64) -> f64;
}

/// True iff no occurrence on `machine` intersects `[t, t+w)` — the
/// ground truth the predictors are scored against.
pub fn window_was_available(records: &[TraceRecord], machine: u32, t: u64, w: u64) -> bool {
    !records
        .iter()
        .any(|r| r.machine == machine && r.start < t + w && r.end.unwrap_or(u64::MAX) > t)
}

/// Per-machine event index with O(log n) window queries.
///
/// The detector guarantees each machine's occurrences are non-overlapping
/// and start-ordered, so a window `[t, t+w)` intersects an occurrence iff
/// either some occurrence *starts* inside the window, or the last
/// occurrence starting before `t` is still open at `t`.
#[derive(Debug, Clone, Default)]
pub struct EventIndex {
    // (start, end) per machine, start-sorted.
    per_machine: Vec<Vec<(u64, u64)>>,
}

impl EventIndex {
    /// Builds the index from all records starting before `cutoff`.
    pub fn build(trace: &Trace, cutoff: u64) -> Self {
        let mut per_machine = vec![Vec::new(); trace.meta.machines as usize];
        for r in &trace.records {
            if r.start < cutoff {
                per_machine[r.machine as usize].push((r.start, r.end.unwrap_or(u64::MAX)));
            }
        }
        for v in &mut per_machine {
            v.sort_unstable();
        }
        EventIndex { per_machine }
    }

    /// True iff no indexed occurrence intersects `[t, t+w)` on `machine`.
    pub fn window_available(&self, machine: u32, t: u64, w: u64) -> bool {
        let Some(events) = self.per_machine.get(machine as usize) else {
            return true;
        };
        let before_end = events.partition_point(|&(s, _)| s < t + w);
        let before_start = events.partition_point(|&(s, _)| s < t);
        if before_start < before_end {
            return false; // an occurrence starts inside the window
        }
        if before_start > 0 {
            let (_, end) = events[before_start - 1];
            if end > t {
                return false; // a preceding occurrence still covers t
            }
        }
        true
    }

    /// End of the occurrence covering `t` on `machine` (`start <= t <
    /// end`), if any; an occurrence still open at the end of the trace
    /// never ends, so it reads `u64::MAX`.
    pub fn covering_end(&self, machine: u32, t: u64) -> Option<u64> {
        let events = self.per_machine.get(machine as usize)?;
        let at_or_before = events.partition_point(|&(s, _)| s <= t);
        let (_, end) = *events.get(at_or_before.checked_sub(1)?)?;
        (end > t).then_some(end)
    }

    /// Start of the first occurrence on `machine` starting at or after `t`.
    pub fn next_start(&self, machine: u32, t: u64) -> Option<u64> {
        let events = self.per_machine.get(machine as usize)?;
        events
            .get(events.partition_point(|&(s, _)| s < t))
            .map(|e| e.0)
    }
}

fn training_records(trace: &Trace, train_end: u64) -> Vec<&TraceRecord> {
    trace
        .records
        .iter()
        .filter(|r| r.start < train_end)
        .collect()
}

// ---------------------------------------------------------------------
// The paper's proposal.
// ---------------------------------------------------------------------

/// The prior probability `p0` a history predictor shrinks toward.
const PRIOR: f64 = 0.5;

/// History-window prediction: look at the *same clock window* on the
/// most recent `history_days` days of the same type (weekday/weekend)
/// and report the fraction that was failure-free, shrunk toward a prior:
/// `(good + k·p0) / (n + k)` over `n` history days of which `good` were
/// available, with prior probability `p0 = 0.5` worth `k` pseudo-days.
///
/// With `trim_worst` set, the single worst day (the most "irregular"
/// datum) is dropped before averaging — the paper's suggestion to "use
/// statistics on history trace to alleviate the effects of irregular
/// data". The `last-day` baseline is the same rule over one day with a
/// light prior ([`HistoryWindowPredictor::last_day`]).
#[derive(Debug, Clone)]
pub struct HistoryWindowPredictor {
    /// How many same-type history days to consult.
    pub history_days: usize,
    /// The prior's weight `k`, in pseudo-days.
    pub prior_weight: f64,
    /// Drop the most pessimistic history day before averaging.
    pub trim_worst: bool,
    name: &'static str,
    start_weekday: u8,
    index: EventIndex,
    train_end: u64,
}

impl HistoryWindowPredictor {
    /// Creates an untrained predictor with the paper-suggested defaults
    /// (10 history days, trimming on) and Laplace's rule as the prior:
    /// `p0 = 0.5` worth one pseudo-day.
    pub fn new() -> Self {
        HistoryWindowPredictor {
            history_days: 10,
            prior_weight: 1.0,
            trim_worst: true,
            name: "history-window",
            start_weekday: 0,
            index: EventIndex::default(),
            train_end: 0,
        }
    }

    /// The last-same-day baseline: what happened in the same window on
    /// the most recent day of the same type, clamped away from certainty
    /// by a prior worth a tenth of a day.
    pub fn last_day() -> Self {
        HistoryWindowPredictor {
            prior_weight: 0.1,
            name: "last-day",
            ..HistoryWindowPredictor::new()
                .with_history_days(1)
                .with_trim(false)
        }
    }

    /// Sets the history depth.
    pub fn with_history_days(mut self, days: usize) -> Self {
        self.history_days = days.max(1);
        self
    }

    /// Enables/disables irregular-data trimming.
    pub fn with_trim(mut self, trim: bool) -> Self {
        self.trim_worst = trim;
        self.name = if trim {
            "history-window"
        } else {
            "history-no-trim"
        };
        self
    }
}

impl Default for HistoryWindowPredictor {
    fn default() -> Self {
        HistoryWindowPredictor::new()
    }
}

impl AvailabilityPredictor for HistoryWindowPredictor {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fit(&mut self, trace: &Trace, train_end: u64) {
        self.start_weekday = trace.meta.start_weekday;
        self.train_end = train_end;
        self.index = EventIndex::build(trace, train_end);
    }

    fn predict(&self, machine: u32, t: u64, window: u64) -> f64 {
        let target_type = day_type(day_index(t), self.start_weekday);
        // Outcomes seen and how many were available; a sum of 1.0s is
        // exact, so counting is the same as summing the outcomes.
        let (mut n, mut good) = (0usize, 0usize);
        let mut day = day_index(t);
        // Walk backwards over same-type days fully inside the training
        // span.
        while n < self.history_days && day > 0 {
            day -= 1;
            if day_type(day, self.start_weekday) != target_type {
                continue;
            }
            let shift = (day_index(t) - day) * SECS_PER_DAY;
            if t < shift {
                break;
            }
            let (hs, hw) = (t - shift, window);
            if hs + hw > self.train_end {
                continue; // window leaks outside the training data
            }
            n += 1;
            good += usize::from(self.index.window_available(machine, hs, hw));
        }
        if n == 0 {
            return PRIOR; // no history: the prior alone
        }
        if self.trim_worst && n >= 3 && good < n {
            // Drop one worst (unavailable) sample: a single irregular
            // bad day should not dominate the estimate.
            n -= 1;
        }
        let k = self.prior_weight;
        ((good as f64 + k * PRIOR) / (n as f64 + k)).clamp(0.0, 1.0)
    }
}

// ---------------------------------------------------------------------
// Baselines.
// ---------------------------------------------------------------------

/// Homogeneous-Poisson baseline: one global failure rate per machine,
/// `P = exp(-λ_m · w)`. Ignores all temporal structure.
#[derive(Debug, Clone, Default)]
pub struct GlobalRatePredictor {
    rates: Vec<f64>, // per machine, events per second
}

impl AvailabilityPredictor for GlobalRatePredictor {
    fn name(&self) -> &'static str {
        "global-rate"
    }

    fn fit(&mut self, trace: &Trace, train_end: u64) {
        let span = train_end.max(1) as f64;
        self.rates = vec![0.0; trace.meta.machines as usize];
        for r in training_records(trace, train_end) {
            self.rates[r.machine as usize] += 1.0;
        }
        for rate in &mut self.rates {
            *rate /= span;
        }
    }

    fn predict(&self, machine: u32, _t: u64, window: u64) -> f64 {
        let lambda = self.rates.get(machine as usize).copied().unwrap_or(0.0);
        (-lambda * window as f64).exp()
    }
}

/// A per-(day type, hour) table of failure rates and the hour-by-hour
/// survival integral over it, shared by the two hour-profile predictors.
#[derive(Debug, Clone, Default)]
struct HourProfile {
    /// By (weekday? 0:1, hour).
    table: [[f64; 24]; 2],
    start_weekday: u8,
}

impl HourProfile {
    /// Pooled events per machine-second, by (day type, hour): training
    /// records starting in that hour over the machine-seconds that hour
    /// spans on the training days of its type.
    fn fit(trace: &Trace, train_end: u64) -> Self {
        let start_weekday = trace.meta.start_weekday;
        let mut table = [[0.0f64; 24]; 2];
        let mut days_of_type = [0.0f64; 2];
        let machines = trace.meta.machines.max(1) as f64;
        let train_days = (train_end / SECS_PER_DAY).min(trace.meta.days as u64);
        for day in 0..train_days {
            days_of_type[Self::day_kind(day, start_weekday)] += 1.0;
        }
        for r in training_records(trace, train_end) {
            let hour = hour_of_day(r.start) as usize;
            table[Self::day_kind(day_index(r.start), start_weekday)][hour] += 1.0;
        }
        for (row, days) in table.iter_mut().zip(days_of_type) {
            let machine_secs = days * 3600.0 * machines;
            for count in row {
                *count = if machine_secs > 0.0 {
                    *count / machine_secs
                } else {
                    0.0
                };
            }
        }
        HourProfile {
            table,
            start_weekday,
        }
    }

    fn day_kind(day: u64, start_weekday: u8) -> usize {
        (day_type(day, start_weekday) == DayType::Weekend) as usize
    }

    /// `exp(-∫ scale · table)` over `[t, t + window)`, integrated hour
    /// slice by hour slice.
    fn survival(&self, scale: f64, t: u64, window: u64) -> f64 {
        let mut expected = 0.0;
        let mut cursor = t;
        let end = t + window;
        while cursor < end {
            let idx = Self::day_kind(day_index(cursor), self.start_weekday);
            let hour = hour_of_day(cursor) as usize;
            let hour_end = cursor - (cursor % 3600) + 3600;
            let slice = hour_end.min(end) - cursor;
            expected += scale * self.table[idx][hour] * slice as f64;
            cursor = hour_end;
        }
        (-expected).exp()
    }
}

/// Hour-profile Poisson baseline: a per-(day-type, hour) failure rate
/// pooled over machines, integrated over the query window. Captures the
/// diurnal pattern but not machine identity or day-to-day persistence.
#[derive(Debug, Clone, Default)]
pub struct HourlyRatePredictor {
    /// Events per machine-second.
    rates: HourProfile,
}

impl AvailabilityPredictor for HourlyRatePredictor {
    fn name(&self) -> &'static str {
        "hourly-rate"
    }

    fn fit(&mut self, trace: &Trace, train_end: u64) {
        self.rates = HourProfile::fit(trace, train_end);
    }

    fn predict(&self, _machine: u32, t: u64, window: u64) -> f64 {
        // `1.0 * rate` is `rate` exactly, so this is the plain integral.
        self.rates.survival(1.0, t, window)
    }
}

/// Factorized per-machine × hour-of-day Poisson predictor:
/// `λ(m, d, h) = rate_m · shape(d, h)`, where `rate_m` is machine `m`'s
/// overall failure rate and `shape` is the pooled diurnal profile
/// normalized to mean 1.
///
/// This is the placement-grade predictor: the history-window scheme is
/// better *calibrated* for a single machine over time (best Brier), but
/// its per-window estimates are too coarse to rank machines against each
/// other at a fixed instant — exactly what a proactive scheduler needs.
/// Factorizing pools the diurnal shape across machines (lots of data)
/// while keeping the per-machine identity (the quiet corner machine
/// really is quieter).
#[derive(Debug, Clone, Default)]
pub struct MachineHourlyPredictor {
    machine_rate: Vec<f64>, // events per second, per machine
    shape: HourProfile,     // multiplier per (day type, hour), mean ~1
}

impl AvailabilityPredictor for MachineHourlyPredictor {
    fn name(&self) -> &'static str {
        "machine-hourly"
    }

    fn fit(&mut self, trace: &Trace, train_end: u64) {
        let machines = trace.meta.machines.max(1) as usize;
        let span = train_end.max(1) as f64;
        let training = training_records(trace, train_end);
        self.machine_rate = vec![0.0; machines];
        for r in &training {
            self.machine_rate[r.machine as usize] += 1.0;
        }
        for rate in &mut self.machine_rate {
            *rate /= span;
        }
        // Normalize the pooled hourly rates into a mean-1 shape:
        // shape(d, h) = (pooled rate in that hour) / (pooled overall rate).
        let overall_rate = training.len() as f64 / (span * machines as f64); // events/machine-sec
        self.shape = HourProfile::fit(trace, train_end);
        for hour_rate in self.shape.table.iter_mut().flatten() {
            *hour_rate = if overall_rate > 0.0 {
                *hour_rate / overall_rate
            } else {
                1.0
            };
        }
    }

    fn predict(&self, machine: u32, t: u64, window: u64) -> f64 {
        let rate = self
            .machine_rate
            .get(machine as usize)
            .copied()
            .unwrap_or(0.0);
        self.shape.survival(rate, t, window)
    }
}

/// Constant optimist: always predicts the training-set base rate of
/// window availability — the weakest calibrated baseline.
#[derive(Debug, Clone)]
pub struct BaseRatePredictor {
    /// Window length the base rate was estimated for.
    probe_window: u64,
    rate: f64,
}

impl BaseRatePredictor {
    /// Creates a base-rate predictor probing with the given window.
    pub fn new(probe_window: u64) -> Self {
        BaseRatePredictor {
            probe_window,
            rate: 0.5,
        }
    }

    /// The fraction of probe windows `[t, t + probe_window)` for which
    /// `available(machine, t, probe_window)` holds, probing every
    /// machine from `t = 0` in steps of `max(probe_window, 600)` s up to
    /// `train_end`; 0.5 when no window fits.
    fn rate_of(
        &self,
        machines: u32,
        train_end: u64,
        available: impl Fn(u32, u64, u64) -> bool,
    ) -> f64 {
        let mut good = 0u64;
        let mut total = 0u64;
        let step = self.probe_window.max(600);
        for m in 0..machines {
            let mut t = 0;
            while t + self.probe_window <= train_end {
                total += 1;
                if available(m, t, self.probe_window) {
                    good += 1;
                }
                t += step;
            }
        }
        if total == 0 {
            0.5
        } else {
            good as f64 / total as f64
        }
    }
}

impl AvailabilityPredictor for BaseRatePredictor {
    fn name(&self) -> &'static str {
        "base-rate"
    }

    fn fit(&mut self, trace: &Trace, train_end: u64) {
        let index = EventIndex::build(trace, train_end);
        self.rate = self.rate_of(trace.meta.machines, train_end, |m, t, w| {
            index.window_available(m, t, w)
        });
    }

    fn predict(&self, _machine: u32, _t: u64, _window: u64) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_core::model::{FailureCause, Thresholds};
    use fgcs_testbed::trace::TraceMeta;

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

    /// A trace where machine 0 fails 10:00–10:30 on every weekday.
    fn regular_trace(days: u32) -> Trace {
        let mut records = Vec::new();
        for d in 0..days as u64 {
            if day_type(d, 0) == DayType::Weekday {
                let s = d * SECS_PER_DAY + 10 * 3600;
                records.push(rec(0, s, s + 1800));
            }
        }
        Trace {
            meta: meta(2, days),
            records,
        }
    }

    #[test]
    fn ground_truth_window_checks() {
        let records = vec![rec(0, 1000, 2000)];
        assert!(!window_was_available(&records, 0, 500, 1000)); // overlaps start
        assert!(!window_was_available(&records, 0, 1500, 100)); // inside
        assert!(window_was_available(&records, 0, 2000, 500)); // after end
        assert!(window_was_available(&records, 0, 0, 1000)); // before start
        assert!(window_was_available(&records, 1, 1500, 100)); // other machine
    }

    #[test]
    fn history_predictor_learns_the_10am_failure() {
        let trace = regular_trace(28);
        let mut p = HistoryWindowPredictor::new().with_trim(false);
        p.fit(&trace, 21 * SECS_PER_DAY);
        // Day 21 is a Monday. The 10:00–10:30 window fails every weekday.
        let bad = p.predict(0, 21 * SECS_PER_DAY + 10 * 3600, 1800);
        let good = p.predict(0, 21 * SECS_PER_DAY + 14 * 3600, 1800);
        assert!(bad < 0.2, "bad-window prediction {bad}");
        assert!(good > 0.8, "good-window prediction {good}");
        // Machine 1 never fails.
        let other = p.predict(1, 21 * SECS_PER_DAY + 10 * 3600, 1800);
        assert!(other > 0.8, "other machine {other}");
    }

    #[test]
    fn history_predictor_distinguishes_day_types() {
        let trace = regular_trace(28);
        let mut p = HistoryWindowPredictor::new().with_trim(false);
        p.fit(&trace, 26 * SECS_PER_DAY);
        // Day 26 is a Saturday: weekends never fail at 10:00.
        let weekend = p.predict(0, 26 * SECS_PER_DAY + 10 * 3600, 1800);
        assert!(weekend > 0.8, "weekend {weekend}");
    }

    #[test]
    fn history_predictor_with_no_history_is_uncertain() {
        let trace = regular_trace(28);
        let mut p = HistoryWindowPredictor::new();
        p.fit(&trace, 1); // nothing usable
        assert_eq!(p.predict(0, 10 * 3600, 1800), 0.5);
    }

    #[test]
    fn trimming_forgives_one_irregular_day() {
        // Machine fails at 10:00 only on ONE of ten weekdays.
        let mut records = Vec::new();
        let s = 7 * SECS_PER_DAY + 10 * 3600; // second Monday
        records.push(rec(0, s, s + 1800));
        let trace = Trace {
            meta: meta(1, 28),
            records,
        };
        let t = 21 * SECS_PER_DAY + 10 * 3600;
        let mut trimmed = HistoryWindowPredictor::new().with_trim(true);
        trimmed.fit(&trace, 21 * SECS_PER_DAY);
        let mut plain = HistoryWindowPredictor::new().with_trim(false);
        plain.fit(&trace, 21 * SECS_PER_DAY);
        assert!(trimmed.predict(0, t, 1800) > plain.predict(0, t, 1800));
        assert!(trimmed.predict(0, t, 1800) > 0.9);
    }

    #[test]
    fn global_rate_decays_with_window() {
        let trace = regular_trace(28);
        let mut p = GlobalRatePredictor::default();
        p.fit(&trace, 21 * SECS_PER_DAY);
        let short = p.predict(0, 0, 600);
        let long = p.predict(0, 0, 6 * 3600);
        assert!(short > long, "short {short} long {long}");
        assert!(short > 0.9);
        // Machine 1 never failed: probability 1.
        assert_eq!(p.predict(1, 0, 6 * 3600), 1.0);
    }

    #[test]
    fn hourly_rate_sees_the_diurnal_pattern() {
        let trace = regular_trace(56);
        let mut p = HourlyRatePredictor::default();
        p.fit(&trace, 49 * SECS_PER_DAY);
        let t_bad = 49 * SECS_PER_DAY + 10 * 3600;
        let t_good = 49 * SECS_PER_DAY + 2 * 3600;
        assert!(p.predict(0, t_bad, 3600) < p.predict(0, t_good, 3600));
    }

    #[test]
    fn base_rate_is_constant_and_sane() {
        let trace = regular_trace(28);
        let mut p = BaseRatePredictor::new(3600);
        p.fit(&trace, 21 * SECS_PER_DAY);
        let a = p.predict(0, 123, 3600);
        let b = p.predict(1, 999_999, 7200);
        assert_eq!(a, b);
        assert!(a > 0.5 && a <= 1.0, "base rate {a}");
    }

    #[test]
    fn indexed_base_rate_equals_the_brute_force_scan() {
        // Machine 0: records whose edges sit on the 600 s probe grid and
        // one between grid points; machine 1: a closed record, then one
        // still open at the end of the trace; machine 2: none; and one
        // record past the training horizon.
        let mut open = rec(1, 5400, 0);
        open.end = None;
        open.raw_end = None;
        let records = vec![
            rec(0, 1200, 1800),
            rec(0, 2400, 2500),
            rec(0, 3000, 4200),
            rec(1, 600, 700),
            open,
            rec(2, 20_000, 20_600),
        ];
        let trace = Trace {
            meta: meta(3, 1),
            records,
        };
        let train_end = 3 * 3600;
        let training: Vec<TraceRecord> = trace
            .records
            .iter()
            .filter(|r| r.start < train_end)
            .copied()
            .collect();
        let index = EventIndex::build(&trace, train_end);
        for m in 0..3 {
            for t in (0..train_end).step_by(100) {
                for w in [0, 100, 600, 1200] {
                    assert_eq!(
                        index.window_available(m, t, w),
                        window_was_available(&training, m, t, w),
                        "machine {m} t {t} w {w}"
                    );
                }
            }
        }
        for probe in [600, 1200, 3600] {
            let mut p = BaseRatePredictor::new(probe);
            p.fit(&trace, train_end);
            let brute = p.rate_of(3, train_end, |m, t, w| {
                window_was_available(&training, m, t, w)
            });
            assert_eq!(p.predict(0, 0, probe), brute, "probe {probe}");
            assert!(brute > 0.0 && brute < 1.0, "probe {probe}: {brute}");
        }

        // And on a simulated trace, at the probe window X2 uses.
        use fgcs_testbed::runner::{run_testbed, TestbedConfig};
        let trace = run_testbed(&TestbedConfig::tiny());
        let train_end = trace.meta.span_secs / 2;
        let training: Vec<TraceRecord> = trace
            .records
            .iter()
            .filter(|r| r.start < train_end)
            .copied()
            .collect();
        let mut p = BaseRatePredictor::new(3600);
        p.fit(&trace, train_end);
        let brute = p.rate_of(trace.meta.machines, train_end, |m, t, w| {
            window_was_available(&training, m, t, w)
        });
        assert_eq!(p.predict(0, 0, 3600), brute);
    }

    #[test]
    fn predictions_are_probabilities() {
        let trace = regular_trace(28);
        let mut predictors: Vec<Box<dyn AvailabilityPredictor>> = vec![
            Box::new(HistoryWindowPredictor::new()),
            Box::new(GlobalRatePredictor::default()),
            Box::new(HourlyRatePredictor::default()),
            Box::new(HistoryWindowPredictor::last_day()),
            Box::new(BaseRatePredictor::new(3600)),
        ];
        for p in &mut predictors {
            p.fit(&trace, 21 * SECS_PER_DAY);
            for t in [0u64, 10 * 3600, 21 * SECS_PER_DAY + 5 * 3600] {
                for w in [600u64, 3600, 8 * 3600] {
                    let prob = p.predict(0, t, w);
                    assert!((0.0..=1.0).contains(&prob), "{}: {prob}", p.name());
                }
            }
        }
    }
}
