//! The testbed tracer: lab generator → monitor observations → detector →
//! trace records, for every machine in parallel.
//!
//! This is the software that ran on the paper's 20 machines for three
//! months, condensed: each machine's resource monitor feeds the §4
//! detector, and every unavailability occurrence is recorded together
//! with the mean available CPU/memory of the preceding availability
//! interval.

use fgcs_core::detector::DetectorConfig;
use fgcs_core::monitor::Observation;
use fgcs_faults::{CrashPlan, FaultConfig, FaultStream, InjectionStats, Injector};
use fgcs_stats::Rng;

use crate::lab::{LabConfig, LoadSample, MachinePlan, PlanSpan};
use crate::quality::{MachineQuality, TraceQualityReport};
use crate::trace::{Trace, TraceMeta, TraceRecord};

// The occurrence assembler every tracer below is built on lives in
// `fgcs-core`; re-exported so `runner::OccurrenceRecorder` keeps
// resolving for the service and the benchmark adapter.
pub use fgcs_core::events::{OccurrenceRecorder, RecorderRestoreError, RecorderSnapshot};

/// Testbed configuration: the lab model plus the detector parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedConfig {
    /// Workload generator configuration.
    pub lab: LabConfig,
    /// Detector configuration (timestamps in seconds).
    pub detector: DetectorConfig,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            lab: LabConfig::default(),
            detector: DetectorConfig::wallclock_default(),
        }
    }
}

impl TestbedConfig {
    /// Small configuration for tests.
    pub fn tiny() -> Self {
        TestbedConfig {
            lab: LabConfig::tiny(),
            detector: DetectorConfig::wallclock_default(),
        }
    }
}

/// Runs the whole testbed and collects the trace. Machines are traced in
/// parallel; the result is deterministic in the seed regardless of the
/// worker count.
///
/// Every machine goes through the span tracer
/// ([`trace_machine_batched`]), the same one [`crate::fleet::run_fleet`]
/// uses; its records are bit-identical to the per-sample oracle
/// [`trace_machine`] for every detector configuration (pinned by
/// `tests/tracer_equivalence.rs`).
pub fn run_testbed(cfg: &TestbedConfig) -> Trace {
    let ids: Vec<usize> = (0..cfg.lab.machines).collect();
    let per_machine = fgcs_par::par_map(&ids, |&id| trace_machine_batched(cfg, id));
    let mut records = Vec::new();
    for recs in per_machine {
        records.extend(recs);
    }
    Trace {
        meta: TraceMeta {
            seed: cfg.lab.seed,
            machines: cfg.lab.machines as u32,
            days: cfg.lab.days as u32,
            sample_period: cfg.lab.sample_period,
            start_weekday: cfg.lab.start_weekday,
            span_secs: cfg.lab.span_secs(),
            thresholds: cfg.detector.thresholds,
        },
        records,
    }
}

/// Traces a single machine over the full span, one detector step per
/// monitor sample.
///
/// This is the **per-sample oracle**, not the product path: it states
/// what a trace *is* (every sample of [`MachinePlan::samples`] through
/// an [`OccurrenceRecorder`]) and the span tracer is tested against it.
/// [`run_testbed`] and [`crate::fleet::run_fleet`] call
/// [`trace_machine_batched`] instead; [`trace_machine_supervised_per_sample`]
/// is the same kind of oracle for supervised runs.
pub fn trace_machine(cfg: &TestbedConfig, machine_id: usize) -> Vec<TraceRecord> {
    let plan = MachinePlan::generate(&cfg.lab, machine_id);
    let mut recorder = OccurrenceRecorder::new(machine_id as u32, cfg.detector);
    for s in plan.samples() {
        recorder.observe(s.t, &cfg.lab.observation(&s));
    }
    recorder.into_records()
}

/// The span kernel: traces a run of consecutive monitor samples of one
/// [`PlanSpan`] without stepping the detector on samples that provably
/// cannot change it. The clean span tracer runs it once per span, the
/// supervised walker once per clean run.
struct SpanKernel<'a> {
    lab: &'a LabConfig,
    th2: f64,
    guest_working_set_mb: u32,
    /// Consecutive samples are at most `max_silence` apart, so samples
    /// skipped between two observations can never hide a censoring gap.
    may_skip: bool,
}

/// What every sample of a live span does to a detector that has
/// settled on it: the span's loads and memory are constant, and every
/// sample's load lies in [`PlanSpan::load_bounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanClass {
    /// Every sample is calm (load `<= Th2`, free memory at least the
    /// guest working set): an available detector without a pending
    /// spike stays so, and each sample only adds to the interval means.
    Calm,
    /// No sample is calm (free memory under the working set, or load
    /// `> Th2` throughout): once one sample has been observed while the
    /// detector was already unavailable, it sits at
    /// `Unavailable { cause, calm_since: None, revived }` and further
    /// samples change nothing.
    Failing,
    /// The load bounds straddle `Th2`: every sample is stepped.
    Mixed,
}

impl<'a> SpanKernel<'a> {
    fn new(lab: &'a LabConfig, detector: &DetectorConfig) -> Self {
        SpanKernel {
            lab,
            th2: detector.thresholds.th2,
            guest_working_set_mb: detector.guest_working_set_mb,
            may_skip: detector.max_silence.is_none_or(|m| lab.sample_period <= m),
        }
    }

    fn class(&self, span: &PlanSpan, free: u32) -> SpanClass {
        let (lo, hi) = span.load_bounds(self.lab.idle_load_max);
        if free < self.guest_working_set_mb || lo > self.th2 {
            SpanClass::Failing
        } else if hi <= self.th2 {
            SpanClass::Calm
        } else {
            SpanClass::Mixed
        }
    }

    /// Traces the consecutive samples of `span` delivered, each
    /// unchanged, at `t0, t0 + p, …` before `end` (`t0 < end`), with the
    /// records observing each one would produce:
    ///
    /// * a dead run feeds the detector one dead observation instead of
    ///   one per sample — consecutive dead samples are idempotent for
    ///   the detector;
    /// * a calm run steps the detector only until it is available with
    ///   no spike pending, then credits the remaining samples straight
    ///   to the interval means;
    /// * a failing run steps the detector only until one sample has been
    ///   observed while it was already unavailable, then just draws the
    ///   remaining samples' noise;
    /// * a mixed run is stepped per sample.
    ///
    /// The per-sample noise draw is always performed — the RNG stream
    /// position and float-add order are what make the paths
    /// bit-identical. The detector's gap-policy clock ends at the run's
    /// last sample, as if every sample had been observed.
    #[inline]
    fn trace(
        &self,
        recorder: &mut OccurrenceRecorder,
        noise: &mut Rng,
        span: &PlanSpan,
        t0: u64,
        end: u64,
    ) {
        let lab = self.lab;
        let p = lab.sample_period;
        let mut t = t0;
        if span.dead {
            if self.may_skip {
                recorder.observe(t0, &Observation::dead());
                recorder.skip_to(t0 + (end - 1 - t0) / p * p);
                return;
            }
            while t < end {
                recorder.observe(t, &Observation::dead());
                t += p;
            }
            return;
        }
        let free = lab.free_for_guest_mb(span.mem_mb);
        let observe = |recorder: &mut OccurrenceRecorder, noise: &mut Rng, t: u64| {
            let load = span.load_with(noise.range_f64(0.0, lab.idle_load_max));
            recorder.observe(
                t,
                &Observation {
                    host_load: load,
                    free_mem_mb: free,
                    alive: true,
                },
            )
        };
        let class = if self.may_skip {
            self.class(span, free)
        } else {
            SpanClass::Mixed
        };
        match class {
            SpanClass::Calm => {
                while t < end && (!recorder.is_available() || recorder.spike_active()) {
                    observe(recorder, noise, t);
                    t += p;
                }
                while t < end {
                    let load = span.load_with(noise.range_f64(0.0, lab.idle_load_max));
                    recorder.accumulate_available_sample(load, free);
                    t += p;
                }
            }
            SpanClass::Failing => {
                while t < end {
                    let was_unavailable = !recorder.is_available();
                    let step = observe(recorder, noise, t);
                    t += p;
                    // A censoring gap re-baselines the detector before
                    // the sample, so only a gapless step settles it.
                    if was_unavailable && step.gap.is_none() {
                        break;
                    }
                }
                while t < end {
                    noise.range_f64(0.0, lab.idle_load_max);
                    t += p;
                }
            }
            SpanClass::Mixed => {
                while t < end {
                    observe(recorder, noise, t);
                    t += p;
                }
            }
        }
        if self.may_skip {
            recorder.skip_to(t - p);
        }
    }
}

/// The span tracer, and the tracer every clean run uses
/// ([`run_testbed`], [`crate::fleet::run_fleet`]): traces a single
/// machine like [`trace_machine`], but one [`PlanSpan`] at a time
/// through the span kernel instead of sample by sample, producing
/// **bit-identical records** for every detector configuration, a
/// `max_silence` gap policy included (asserted across all scenarios,
/// archetypes and the X8 detector variants):
///
/// * downtime spans feed the detector one dead observation (at the
///   first monitor tick inside the span) instead of thousands;
/// * calm spans (every sample's load at most `Th2`, memory above the
///   guest floor) step the detector only until it is available with no
///   spike pending, then credit the remaining samples straight to the
///   interval means;
/// * failing spans (memory under the guest floor, or every sample's
///   load over `Th2`) step it only until it has settled unavailable,
///   then just draw the remaining samples' noise;
/// * the detector's silence clock still ends each span at its last
///   tick, so a gap policy sees exactly the silences the per-sample
///   path sees.
pub fn trace_machine_batched(cfg: &TestbedConfig, machine_id: usize) -> Vec<TraceRecord> {
    let plan = MachinePlan::generate(&cfg.lab, machine_id);
    let p = cfg.lab.sample_period;
    let kernel = SpanKernel::new(&cfg.lab, &cfg.detector);
    let mut recorder = OccurrenceRecorder::new(machine_id as u32, cfg.detector);
    let mut noise = Rng::new(plan.noise_seed());
    for span in plan.spans() {
        // First monitor tick inside the span; spans shorter than the
        // sampling period can fall between ticks and are never observed
        // (exactly as in the sample-by-sample path).
        let first = span.start.div_ceil(p) * p;
        if first < span.end {
            kernel.trace(&mut recorder, &mut noise, &span, first, span.end);
        }
    }
    recorder.into_records()
}

/// How the testbed supervisor handles faulty per-machine tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// How many tracer crashes are retried before the supervisor gives
    /// up on a machine (its remaining span is then censored, the rest of
    /// the testbed keeps running).
    pub max_retries: u32,
    /// First retry backoff, seconds; doubles per consecutive crash.
    pub backoff_base_secs: u64,
    /// Backoff ceiling, seconds.
    pub backoff_cap_secs: u64,
    /// A machine that stays up this long after a crash earns its retry
    /// budget back (the attempt counter resets). Without this, any
    /// machine whose *lifetime* crash count exceeds `max_retries` is
    /// eventually abandoned, no matter how spread out the crashes —
    /// give-up should mean "crash looping", not "crashed six times in
    /// three months".
    pub healthy_reset_secs: u64,
    /// Detector gap policy ([`DetectorConfig::max_silence`]) used for
    /// faulty runs: streams silent beyond this are censored rather than
    /// silently extended. Must comfortably exceed the sample period so a
    /// clean stream never triggers it.
    pub max_silence_secs: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 5,
            backoff_base_secs: 60,
            backoff_cap_secs: 960,
            healthy_reset_secs: 86_400,
            max_silence_secs: 120,
        }
    }
}

/// Capped exponential backoff after the `attempt`-th consecutive crash
/// (1-based): `base * 2^(attempt-1)`, capped. Shared by the testbed
/// supervisor and the service client's reconnect loop; the arithmetic
/// itself lives in [`fgcs_core::backoff`].
pub fn backoff_delay(sup: &SupervisorConfig, attempt: u32) -> u64 {
    fgcs_core::backoff::backoff_units(sup.backoff_base_secs, sup.backoff_cap_secs, attempt)
}

/// Runs the testbed with fault injection under supervision. With
/// `faults` all-zero this produces a trace identical to
/// [`run_testbed`] and a clean quality report; with nonzero rates it
/// never aborts — lost data is counted and censored per machine in the
/// returned [`TraceQualityReport`].
pub fn run_testbed_faulty(
    cfg: &TestbedConfig,
    faults: &FaultConfig,
    sup: &SupervisorConfig,
) -> (Trace, TraceQualityReport) {
    let ids: Vec<usize> = (0..cfg.lab.machines).collect();
    let per_machine = fgcs_par::par_map(&ids, |&id| trace_machine_supervised(cfg, faults, sup, id));
    let mut records = Vec::new();
    let mut quality = TraceQualityReport::new();
    for (recs, mq) in per_machine {
        quality.parsed_records += recs.len() as u64;
        records.extend(recs);
        quality.machines.insert(mq.machine, mq);
    }
    let trace = Trace {
        meta: TraceMeta {
            seed: cfg.lab.seed,
            machines: cfg.lab.machines as u32,
            days: cfg.lab.days as u32,
            sample_period: cfg.lab.sample_period,
            start_weekday: cfg.lab.start_weekday,
            span_secs: cfg.lab.span_secs(),
            thresholds: cfg.detector.thresholds,
        },
        records,
    };
    (trace, quality)
}

/// The supervisor of one machine's tracer: its state, and what it does
/// with each delivered sample. Shared by the supervised walker and its
/// per-sample oracle.
struct Supervision<'a> {
    lab: &'a LabConfig,
    sup: &'a SupervisorConfig,
    /// Crash times not handled yet, increasing.
    crashes: &'a [u64],
    recorder: OccurrenceRecorder,
    quality: MachineQuality,
    outage_until: u64,
    attempts: u32,
    last_crash_t: Option<u64>,
    last_t: Option<u64>,
    abandoned_at: Option<u64>,
}

impl<'a> Supervision<'a> {
    fn new(
        lab: &'a LabConfig,
        detector: DetectorConfig,
        sup: &'a SupervisorConfig,
        crashes: &'a [u64],
        machine_id: usize,
    ) -> Self {
        Supervision {
            lab,
            sup,
            crashes,
            recorder: OccurrenceRecorder::new(machine_id as u32, detector),
            quality: MachineQuality {
                machine: machine_id as u32,
                ..Default::default()
            },
            outage_until: 0,
            attempts: 0,
            last_crash_t: None,
            last_t: None,
            abandoned_at: None,
        }
    }

    /// The detector a supervised run traces with: the testbed's, under
    /// the supervisor's gap policy.
    fn detector(cfg: &TestbedConfig, sup: &SupervisorConfig) -> DetectorConfig {
        DetectorConfig {
            max_silence: Some(sup.max_silence_secs),
            ..cfg.detector
        }
    }

    /// Handles one delivered sample. Does nothing once the supervisor
    /// has given up on the machine.
    // Forced: left to the inliner, the per-sample oracle runs 1.2-1.3x
    // slower.
    #[inline(always)]
    fn deliver(&mut self, s: LoadSample) {
        if self.abandoned_at.is_some() {
            return;
        }
        // Supervision: handle tracer crashes scheduled before this sample.
        while let Some((&crash_t, rest)) = self.crashes.split_first() {
            if crash_t > s.t {
                break;
            }
            self.crashes = rest;
            self.quality.crashes += 1;
            if self
                .last_crash_t
                .is_some_and(|prev| crash_t.saturating_sub(prev) > self.sup.healthy_reset_secs)
            {
                self.attempts = 0;
            }
            self.last_crash_t = Some(crash_t);
            self.attempts += 1;
            if self.attempts > self.sup.max_retries {
                // Retries exhausted: this machine's tail is censored,
                // the testbed itself keeps going.
                self.quality.gave_up = true;
                self.abandoned_at = Some(crash_t);
                return;
            }
            let backoff = backoff_delay(self.sup, self.attempts);
            self.outage_until = self.outage_until.max(crash_t.saturating_add(backoff));
        }
        if s.t < self.outage_until {
            self.quality.lost_in_crash += 1;
            return;
        }
        // The detector requires non-decreasing timestamps; late (or
        // clock-rewound) deliveries are discarded, not reordered.
        if self.last_t.is_some_and(|lt| s.t < lt) {
            self.quality.out_of_order += 1;
            return;
        }
        self.last_t = Some(s.t);
        self.quality.samples_used += 1;

        let step = self.recorder.observe(s.t, &self.lab.observation(&s));
        if let Some(gap) = step.gap {
            self.quality.gaps += 1;
            self.quality.censored_spans.push(gap);
        }
    }

    /// How many of up to `n` samples delivered at `d0, d0 + p, …` the
    /// supervisor would use one after the other with nothing to do but
    /// observe them: `d0` is a real (unclamped) time, past any crash
    /// outage, not before the last used sample and without a censoring
    /// gap after it, and the run ends before the next crash is due.
    /// Within such a run every test is monotone in `t`, so checking the
    /// first sample covers all.
    fn clean_run_len(&self, d0: i64, n: u64) -> u64 {
        let Ok(d0) = u64::try_from(d0) else {
            return 0;
        };
        let p = self.lab.sample_period;
        let max_silence = self.sup.max_silence_secs;
        if d0 < self.outage_until {
            return 0;
        }
        if let Some(lt) = self.last_t {
            if d0 < lt || d0 - lt > max_silence {
                return 0;
            }
        }
        let mut n = if p <= max_silence { n } else { n.min(1) };
        if let Some(&crash_t) = self.crashes.first() {
            if crash_t <= d0 {
                return 0;
            }
            n = n.min((crash_t - d0).div_ceil(p));
        }
        n
    }

    /// Books a clean run of `k` used samples ending at `last`.
    fn used_run(&mut self, k: u64, last: u64) {
        self.quality.samples_used += k;
        self.last_t = Some(last);
    }

    fn finish(self, stats: InjectionStats, span: u64) -> (Vec<TraceRecord>, MachineQuality) {
        let mut quality = self.quality;
        if let Some(from) = self.abandoned_at {
            // Nothing past the fatal crash was observed.
            quality.censored_spans.push((from.min(span), span));
        }
        quality.dropped = stats.dropped;
        quality.duplicated = stats.duplicated;
        quality.delayed = stats.delayed;
        quality.restarts = stats.restarts;
        quality.lost_in_restart = stats.lost_in_restart;
        quality.clock_jumps = stats.clock_jumps;
        (self.recorder.into_records(), quality)
    }
}

/// Traces one machine through the fault injector, supervised: tracer
/// crashes are retried with capped exponential backoff, out-of-order
/// samples are discarded (and counted), and silence gaps are censored by
/// the detector's gap policy instead of stretching whatever state was
/// current.
///
/// Walks [`MachinePlan::spans`] like [`trace_machine_batched`]. A
/// *clean run* — samples the injector passes through untouched
/// ([`Injector::pass_clean`]) and the supervisor would simply observe,
/// one after the other — goes through the same span kernel; only the
/// samples at a fault, a crash, a crash outage, an out-of-order tail or
/// a gap take the per-sample injector and supervisor. Records and
/// [`MachineQuality`] equal [`trace_machine_supervised_per_sample`]'s
/// exactly (pinned by `tests/tracer_equivalence.rs`).
pub fn trace_machine_supervised(
    cfg: &TestbedConfig,
    faults: &FaultConfig,
    sup: &SupervisorConfig,
    machine_id: usize,
) -> (Vec<TraceRecord>, MachineQuality) {
    let lab = &cfg.lab;
    let p = lab.sample_period;
    let span_secs = lab.span_secs();
    let plan = MachinePlan::generate(lab, machine_id);
    let detector = Supervision::detector(cfg, sup);
    let kernel = SpanKernel::new(lab, &detector);
    let crash_plan = CrashPlan::generate(faults, machine_id as u64, span_secs);
    let mut sv = Supervision::new(lab, detector, sup, &crash_plan.times, machine_id);
    let mut injector = Injector::new(faults, machine_id as u64);
    let mut noise = Rng::new(plan.noise_seed());

    'spans: for span in plan.spans() {
        let mut t = span.start.div_ceil(p) * p;
        while t < span.end {
            if injector.is_quiet() {
                let d0 = t as i64 + injector.clock_offset();
                let n = sv.clean_run_len(d0, (span.end - t).div_ceil(p));
                let k = if n > 0 { injector.pass_clean(n) } else { 0 };
                if k > 0 {
                    let d0 = d0 as u64;
                    kernel.trace(&mut sv.recorder, &mut noise, &span, d0, d0 + k * p);
                    sv.used_run(k, d0 + (k - 1) * p);
                    t += k * p;
                    continue;
                }
            }
            let s = span.sample_at(t, &mut noise, lab.idle_load_max);
            if let Some(d) = injector.push(s) {
                sv.deliver(d);
            }
            while let Some(d) = injector.next_queued() {
                sv.deliver(d);
            }
            if sv.abandoned_at.is_some() {
                break 'spans;
            }
            t += p;
        }
    }
    if sv.abandoned_at.is_none() {
        injector.finish();
        while let Some(d) = injector.next_queued() {
            sv.deliver(d);
        }
    }
    sv.finish(injector.stats(), span_secs)
}

/// [`trace_machine_supervised`] one delivered sample at a time: every
/// sample of [`MachinePlan::samples`] through a [`FaultStream`] and the
/// supervisor. This is the **per-sample oracle** for supervised runs, as
/// [`trace_machine`] is for clean ones; tests and benches call it, no
/// product path does.
pub fn trace_machine_supervised_per_sample(
    cfg: &TestbedConfig,
    faults: &FaultConfig,
    sup: &SupervisorConfig,
    machine_id: usize,
) -> (Vec<TraceRecord>, MachineQuality) {
    let span_secs = cfg.lab.span_secs();
    let plan = MachinePlan::generate(&cfg.lab, machine_id);
    let crash_plan = CrashPlan::generate(faults, machine_id as u64, span_secs);
    let detector = Supervision::detector(cfg, sup);
    let mut sv = Supervision::new(&cfg.lab, detector, sup, &crash_plan.times, machine_id);
    let mut stream = FaultStream::new(plan.samples(), faults, machine_id as u64);
    for s in stream.by_ref() {
        sv.deliver(s);
        if sv.abandoned_at.is_some() {
            break;
        }
    }
    sv.finish(stream.stats(), span_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_core::model::FailureCause;

    #[test]
    fn tiny_testbed_produces_events() {
        let trace = run_testbed(&TestbedConfig::tiny());
        assert!(!trace.records.is_empty());
        // updatedb alone guarantees roughly one S3 per machine-day.
        let cpu = trace
            .records
            .iter()
            .filter(|r| r.cause == FailureCause::CpuContention)
            .count();
        assert!(
            cpu as u32 >= trace.meta.machines * trace.meta.days / 2,
            "cpu events {cpu}"
        );
    }

    #[test]
    fn records_are_well_formed() {
        let trace = run_testbed(&TestbedConfig::tiny());
        for r in &trace.records {
            assert!(r.start < trace.meta.span_secs);
            if let (Some(end), Some(raw)) = (r.end, r.raw_end) {
                assert!(r.start < end, "{r:?}");
                assert!(raw <= end, "{r:?}");
                assert!(raw >= r.start, "{r:?}");
            }
            assert!((0.0..=1.0).contains(&r.avail_cpu), "{r:?}");
            assert!(r.machine < trace.meta.machines);
        }
    }

    #[test]
    fn per_machine_records_are_ordered_and_disjoint() {
        let trace = run_testbed(&TestbedConfig::tiny());
        for (_, recs) in trace.per_machine() {
            for w in recs.windows(2) {
                let end = w[0].end.expect("only the last record may be open");
                assert!(end <= w[1].start, "overlap: {:?} {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_testbed(&TestbedConfig::tiny());
        let b = run_testbed(&TestbedConfig::tiny());
        assert_eq!(a, b);
    }

    #[test]
    fn updatedb_causes_4am_events_on_every_machine() {
        let cfg = TestbedConfig::tiny();
        let trace = run_testbed(&cfg);
        for day in 0..cfg.lab.days as u64 {
            for m in 0..cfg.lab.machines as u32 {
                let lo = day * 86_400 + 4 * 3_600;
                let hi = day * 86_400 + 5 * 3_600;
                let hit = trace
                    .records
                    .iter()
                    .any(|r| r.machine == m && r.start >= lo && r.start < hi);
                assert!(hit, "machine {m} day {day} missing a 4-5 AM event");
            }
        }
    }

    #[test]
    fn zero_faults_reproduce_the_clean_trace_exactly() {
        let cfg = TestbedConfig::tiny();
        let clean = run_testbed(&cfg);
        let (faulty, quality) =
            run_testbed_faulty(&cfg, &FaultConfig::off(1), &SupervisorConfig::default());
        assert_eq!(faulty, clean, "identity injection must be bit-identical");
        assert!(quality.is_clean(), "{quality}");
        assert_eq!(quality.parsed_records, clean.records.len() as u64);
    }

    /// FNV-1a over every delivered sample of machine 3's default-lab
    /// week under `faults`, then the injection counts.
    fn fault_stream_digest(faults: &FaultConfig) -> (u64, fgcs_faults::InjectionStats) {
        let lab = LabConfig {
            days: 7,
            ..LabConfig::default()
        };
        let plan = MachinePlan::generate(&lab, 3);
        let mut stream = FaultStream::new(plan.samples(), faults, 3);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for s in stream.by_ref() {
            eat(s.t);
            eat(s.host_load.to_bits());
            eat(s.host_resident_mb as u64);
            eat(s.alive as u64);
        }
        (h, stream.stats())
    }

    /// Golden values from the build *before* `FaultStream::next` and
    /// `SampleIter` were restructured: a reordered RNG draw, a changed
    /// release order of delayed samples or a moved float add shows up
    /// here, not only as a differing byte in `results/fault_matrix.csv`.
    #[test]
    fn fault_stream_output_matches_the_golden_digests() {
        use fgcs_faults::InjectionStats;
        let golden = [
            (0.0, 0x8c70_865a_f913_0f40, InjectionStats::default()),
            (
                1.0,
                0x2f0b_ca24_c896_3510,
                InjectionStats {
                    dropped: 209,
                    duplicated: 70,
                    delayed: 90,
                    restarts: 12,
                    lost_in_restart: 96,
                    clock_jumps: 6,
                    corrupted_lines: 0,
                },
            ),
            (
                4.0,
                0xcfc9_4faf_3055_4037,
                InjectionStats {
                    dropped: 809,
                    duplicated: 293,
                    delayed: 310,
                    restarts: 84,
                    lost_in_restart: 672,
                    clock_jumps: 21,
                    corrupted_lines: 0,
                },
            ),
        ];
        for (scale, digest, stats) in golden {
            let got = fault_stream_digest(&FaultConfig::noisy(20050801).scaled(scale));
            assert_eq!(got, (digest, stats), "noisy x{scale}");
        }
    }

    #[test]
    fn noisy_faults_never_abort_and_are_accounted() {
        let mut cfg = TestbedConfig::tiny();
        cfg.lab.days = 6;
        let faults = FaultConfig::noisy(42);
        let (trace, quality) = run_testbed_faulty(&cfg, &faults, &SupervisorConfig::default());
        assert!(!trace.records.is_empty());
        assert!(!quality.is_clean(), "noisy run must report faults");
        let t = quality.totals();
        assert!(
            t.dropped > 0,
            "drop rate 0.005 over 6 days must drop something"
        );
        // Records stay structurally sound even under faults.
        for (_, recs) in trace.per_machine() {
            for w in recs.windows(2) {
                let end = w[0].end.expect("only the last record may be open");
                assert!(end <= w[1].start, "overlap: {:?} {:?}", w[0], w[1]);
            }
            for r in recs {
                if let (Some(end), Some(raw)) = (r.end, r.raw_end) {
                    assert!(r.start <= end && raw <= end && raw >= r.start, "{r:?}");
                }
            }
        }
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let mut cfg = TestbedConfig::tiny();
        cfg.lab.days = 5;
        let faults = FaultConfig::noisy(7);
        let sup = SupervisorConfig::default();
        let a = run_testbed_faulty(&cfg, &faults, &sup);
        let b = run_testbed_faulty(&cfg, &faults, &sup);
        assert_eq!(a, b);
    }

    #[test]
    fn supervisor_gives_up_and_censors_instead_of_aborting() {
        let mut cfg = TestbedConfig::tiny();
        cfg.lab.days = 8;
        let mut faults = FaultConfig::off(3);
        faults.crash_rate_per_day = 6.0; // crashes far beyond the retry budget
        let sup = SupervisorConfig {
            max_retries: 2,
            ..SupervisorConfig::default()
        };
        let (trace, quality) = run_testbed_faulty(&cfg, &faults, &sup);
        let abandoned: Vec<_> = quality.machines.values().filter(|m| m.gave_up).collect();
        assert!(
            !abandoned.is_empty(),
            "this crash rate must exhaust 2 retries"
        );
        for m in abandoned {
            assert_eq!(m.crashes, sup.max_retries as u64 + 1);
            let (_, until) = *m.censored_spans.last().unwrap();
            assert_eq!(until, cfg.lab.span_secs(), "tail is censored to the end");
        }
        // The testbed as a whole still produced a trace.
        assert_eq!(trace.meta.machines as usize, cfg.lab.machines);
    }

    #[test]
    fn restart_outages_censor_via_the_gap_policy() {
        let mut cfg = TestbedConfig::tiny();
        cfg.lab.days = 6;
        let mut faults = FaultConfig::off(11);
        faults.restart_rate = 0.001;
        faults.restart_outage_samples = 20; // 300 s > max_silence 120 s
        let (_, quality) = run_testbed_faulty(&cfg, &faults, &SupervisorConfig::default());
        let t = quality.totals();
        assert!(t.restarts > 0);
        assert!(t.gaps > 0, "a 300 s outage must be censored, got {quality}");
        assert_eq!(t.lost_in_restart, t.restarts * 20);
    }

    #[test]
    fn recorder_snapshot_restore_resumes_exactly() {
        // Stream a full lab machine, cut at several points (including
        // mid-occurrence), restore, and require the resumed recorder to
        // finish with bit-identical records — the invariant the service
        // snapshot subsystem is built on.
        let cfg = TestbedConfig::tiny();
        let plan = MachinePlan::generate(&cfg.lab, 0);
        let samples: Vec<_> = plan.samples().collect();
        let mut full = OccurrenceRecorder::new(0, cfg.detector);
        for s in &samples {
            full.observe(s.t, &cfg.lab.observation(s));
        }
        let expected = full.into_records();
        for cut in [1, samples.len() / 3, samples.len() / 2, samples.len() - 1] {
            let mut pre = OccurrenceRecorder::new(0, cfg.detector);
            for s in &samples[..cut] {
                pre.observe(s.t, &cfg.lab.observation(s));
            }
            let snap = pre.snapshot();
            let mut resumed =
                OccurrenceRecorder::restore(cfg.detector, &snap, pre.records().to_vec())
                    .expect("valid snapshot");
            for s in &samples[cut..] {
                resumed.observe(s.t, &cfg.lab.observation(s));
            }
            assert_eq!(resumed.into_records(), expected, "cut {cut}");
        }
    }

    #[test]
    fn batched_tracer_is_bit_identical_to_exact_on_all_archetypes() {
        // The whole fleet subsystem rests on this: span-batched tracing
        // must reproduce the per-sample path record-for-record,
        // including the f64 interval means.
        for (name, lab) in crate::scenarios::all() {
            let cfg = TestbedConfig {
                lab: LabConfig {
                    machines: 3,
                    days: 7,
                    ..lab
                },
                detector: DetectorConfig::wallclock_default(),
            };
            for m in 0..cfg.lab.machines {
                assert_eq!(
                    trace_machine_batched(&cfg, m),
                    trace_machine(&cfg, m),
                    "{name} machine {m}"
                );
            }
        }
        for arch in crate::fleet::Archetype::ALL {
            let cfg = TestbedConfig {
                lab: LabConfig {
                    machines: 3,
                    days: 7,
                    ..arch.lab_config()
                },
                detector: DetectorConfig::wallclock_default(),
            };
            for m in 0..cfg.lab.machines {
                assert_eq!(
                    trace_machine_batched(&cfg, m),
                    trace_machine(&cfg, m),
                    "{arch:?} machine {m}"
                );
            }
        }
    }

    #[test]
    fn batched_tracer_keeps_the_silence_clock_under_gap_policy() {
        let mut cfg = TestbedConfig::tiny();
        cfg.lab.hw_failures_per_day = 0.3; // downtimes far longer than the policy
        for max_silence in [14, 15, 120] {
            // 14 s < the 15 s period: every sample is a gap, nothing skips.
            cfg.detector.max_silence = Some(max_silence);
            for m in 0..cfg.lab.machines {
                assert_eq!(
                    trace_machine_batched(&cfg, m),
                    trace_machine(&cfg, m),
                    "max_silence {max_silence}, machine {m}"
                );
            }
        }
    }

    #[test]
    fn supervised_walker_equals_the_oracle_when_every_sample_is_a_gap() {
        // A silence limit under the 15 s period: every used sample opens
        // a gap, so clean runs shrink to one sample and the kernel steps.
        let cfg = TestbedConfig::tiny();
        let sup = SupervisorConfig {
            max_silence_secs: 14,
            ..SupervisorConfig::default()
        };
        for scale in [0.0, 1.0] {
            let faults = FaultConfig::noisy(5).scaled(scale);
            for m in 0..cfg.lab.machines {
                let walker = trace_machine_supervised(&cfg, &faults, &sup, m);
                assert!(walker.1.gaps > 0, "x{scale}, machine {m}");
                assert_eq!(
                    walker,
                    trace_machine_supervised_per_sample(&cfg, &faults, &sup, m),
                    "x{scale}, machine {m}"
                );
            }
        }
    }

    #[test]
    fn plan_spans_tile_the_trace_and_match_samples() {
        let mut lab = LabConfig::tiny();
        lab.hw_failures_per_day = 0.3; // force downtimes into the window
        let plan = MachinePlan::generate(&lab, 1);
        let spans: Vec<_> = plan.spans().collect();
        assert_eq!(spans.first().unwrap().start, 0);
        assert_eq!(spans.last().unwrap().end, lab.span_secs());
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "spans must tile");
        }
        // Every sample's dead/alive status and memory agree with the
        // span that contains it.
        let mut it = spans.iter();
        let mut cur = it.next().unwrap();
        for s in plan.samples() {
            while s.t >= cur.end {
                cur = it.next().unwrap();
            }
            assert_eq!(s.alive, !cur.dead, "t={}", s.t);
            if s.alive {
                assert_eq!(s.host_resident_mb, cur.mem_mb, "t={}", s.t);
            }
        }
    }

    /// Where the kernel boundary tests start their span.
    const T0: u64 = 86_400;

    /// A live span of 200 samples from [`T0`] (long enough for the
    /// spike tolerance and the harvest delay to run out inside it).
    fn live_span(loads: Vec<f64>, mem_mb: u32) -> PlanSpan {
        PlanSpan {
            start: T0,
            end: T0 + 200 * 15,
            dead: false,
            loads,
            mem_mb,
        }
    }

    /// Loads `[0.25, l]` whose fold onto `noise` is exactly `target`.
    fn loads_summing_to(target: f64, noise: f64) -> Vec<f64> {
        let sum = |l: f64| live_span(vec![0.25, l], 0).load_with(noise);
        let mut l = target - noise - 0.25;
        while sum(l) < target {
            l = l.next_up();
        }
        while sum(l) > target {
            l = l.next_down();
        }
        assert_eq!(sum(l), target, "no load folds onto {noise} to {target}");
        vec![0.25, l]
    }

    /// Recorders entering a span in each detector situation that
    /// decides how far the kernel must step: available, mid-spike,
    /// mid-harvest-wait, and just after a dead span (revocation,
    /// `revived` unset).
    fn entry_states(
        lab: &LabConfig,
        detector: DetectorConfig,
    ) -> Vec<(&'static str, OccurrenceRecorder)> {
        let p = lab.sample_period;
        let live = |host_load: f64, free_mem_mb: u32| Observation {
            host_load,
            free_mem_mb,
            alive: true,
        };
        let calm = live(0.1, 512);
        let fresh = || OccurrenceRecorder::new(0, detector);
        let mut available = fresh();
        available.observe(T0 - 2 * p, &calm);
        available.observe(T0 - p, &calm);
        let mut spike = fresh();
        spike.observe(T0 - 2 * p, &calm);
        spike.observe(T0 - p, &live(1.0, 512));
        let mut harvest = fresh();
        harvest.observe(T0 - 3 * p, &live(0.1, 0));
        harvest.observe(T0 - 2 * p, &calm);
        harvest.observe(T0 - p, &calm);
        let mut dead = fresh();
        dead.observe(T0 - 2 * p, &calm);
        dead.observe(T0 - p, &Observation::dead());
        assert!(available.is_available() && !available.spike_active());
        assert!(spike.spike_active());
        assert!(!harvest.is_available() && !dead.is_available());
        vec![
            ("available", available),
            ("mid-spike", spike),
            ("mid-harvest-wait", harvest),
            ("after a dead span", dead),
        ]
    }

    /// Records plus the resumable state, with the load band masked: it
    /// never reaches a record, and a credited sample leaves it as the
    /// last stepped one set it.
    fn settled(recorder: &OccurrenceRecorder) -> (Vec<TraceRecord>, RecorderSnapshot) {
        let mut snap = recorder.snapshot();
        if let fgcs_core::detector::DetectorSnapshot::Available { band, .. } = &mut snap.detector {
            *band = fgcs_core::model::LoadBand::Light;
        }
        (recorder.records().to_vec(), snap)
    }

    #[test]
    fn span_kernel_equals_per_sample_observe_at_the_class_boundaries() {
        let lab = LabConfig::default();
        let base = DetectorConfig::wallclock_default();
        let th2 = base.thresholds.th2;
        let floor_mb = lab.phys_mem_mb - lab.kernel_mem_mb - base.guest_working_set_mb;
        let mem = lab.base_resident_mb;
        let mut spans = Vec::new();
        for (target, lo_class, hi_class) in [
            (th2.next_down(), SpanClass::Mixed, SpanClass::Calm),
            (th2, SpanClass::Mixed, SpanClass::Calm),
            (th2.next_up(), SpanClass::Failing, SpanClass::Mixed),
        ] {
            // The noise-0 fold (`lo`) and the noise-`idle_load_max`
            // fold (`hi`) each just under, at and just over Th2.
            spans.push((live_span(loads_summing_to(target, 0.0), mem), lo_class));
            let hi_loads = loads_summing_to(target, lab.idle_load_max);
            spans.push((live_span(hi_loads, mem), hi_class));
        }
        // Free memory exactly at the guest floor, and one MB under it.
        spans.push((live_span(vec![0.1], floor_mb), SpanClass::Calm));
        spans.push((live_span(vec![0.1], floor_mb + 1), SpanClass::Failing));
        spans.push((live_span(vec![0.7], floor_mb), SpanClass::Failing));
        spans.push((live_span(Vec::new(), mem), SpanClass::Calm));

        for max_silence in [None, Some(120)] {
            let detector = DetectorConfig {
                max_silence,
                ..base
            };
            let kernel = SpanKernel::new(&lab, &detector);
            for (i, (span, class)) in spans.iter().enumerate() {
                let free = lab.free_for_guest_mb(span.mem_mb);
                assert_eq!(kernel.class(span, free), *class, "span {i}: {span:?}");
                for (entry, recorder) in entry_states(&lab, detector) {
                    let mut fast = recorder.clone();
                    let mut fast_noise = Rng::new(i as u64);
                    kernel.trace(&mut fast, &mut fast_noise, span, T0, span.end);
                    let mut oracle = recorder;
                    let mut oracle_noise = Rng::new(i as u64);
                    for t in (T0..span.end).step_by(lab.sample_period as usize) {
                        let s = span.sample_at(t, &mut oracle_noise, lab.idle_load_max);
                        oracle.observe(t, &lab.observation(&s));
                    }
                    let at = format!("span {i} ({class:?}), {entry}, max_silence {max_silence:?}");
                    assert_eq!(settled(&fast), settled(&oracle), "{at}");
                    assert_eq!(fast_noise, oracle_noise, "{at}: noise stream position");
                }
            }
        }
    }

    #[test]
    fn revocations_appear_with_raised_failure_rate() {
        let mut cfg = TestbedConfig::tiny();
        cfg.lab.days = 10;
        cfg.lab.hw_failures_per_day = 0.3;
        let trace = run_testbed(&cfg);
        let urr = trace
            .records
            .iter()
            .filter(|r| r.cause == FailureCause::Revocation)
            .count();
        assert!(urr > 0, "expected URR events");
    }
}
