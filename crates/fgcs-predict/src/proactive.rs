//! Proactive guest-job management — the paper's motivating application.
//!
//! §1: proactive approaches "explore availability prediction in job
//! scheduling ... \[and\] achieve significantly improved job response time
//! compared to the methods which are oblivious to future unavailability".
//! This module closes that loop on our traces (X3, `fgcs-exp
//! proactive`): place compute-bound guest jobs — single tasks or gangs —
//! on testbed machines either obliviously (random available machine) or
//! proactively (the machine the predictor deems most likely to stay
//! available for the job's duration), replay the trace, and compare
//! response times.
//!
//! Failure semantics follow the paper's model: a guest job hit by
//! unavailability is killed and loses all progress ("the guest process
//! is already killed or migrated off and no state is left on the host"),
//! so it restarts elsewhere. Every task, single or in a gang, runs
//! through one kill-and-restart loop that reads the trace through the
//! crate's one occurrence index, [`EventIndex`]. As in X2's ground
//! truth, an occurrence still open when the trace ends never ends, so a
//! task that needs its machine after that point never finishes there.

use fgcs_stats::rng::Rng;
use fgcs_testbed::trace::Trace;

use crate::predictor::{AvailabilityPredictor, EventIndex};

/// Placement policies under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Uniformly random among machines currently available.
    Oblivious,
    /// Highest predicted availability for the job's remaining duration.
    Proactive,
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Policy::Oblivious => f.write_str("oblivious"),
            Policy::Proactive => f.write_str("proactive"),
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ProactiveConfig {
    /// Number of guest jobs to replay.
    pub jobs: usize,
    /// Job CPU demand range, seconds (compute-bound batch jobs; the
    /// paper's victims "take hours to finish").
    pub job_secs: (u64, u64),
    /// First submission time (must leave training history before it).
    pub submit_from: u64,
    /// Last submission time.
    pub submit_until: u64,
    /// RNG seed for submissions and oblivious choices.
    pub seed: u64,
    /// Give up on a job after this much wall time.
    pub max_response: u64,
}

impl Default for ProactiveConfig {
    fn default() -> Self {
        ProactiveConfig {
            jobs: 300,
            job_secs: (1800, 6 * 3600),
            submit_from: 0,
            submit_until: 0,
            seed: 0x50524F41,
            max_response: 7 * 86_400,
        }
    }
}

/// Outcome of replaying the job set under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Policy replayed.
    pub policy: Policy,
    /// Mean job response time, seconds.
    pub mean_response: f64,
    /// Mean number of failures (kills/restarts) per job.
    pub mean_failures: f64,
    /// Jobs that hit the response cap.
    pub timed_out: usize,
}

/// One policy's replay state: the trace's occurrence index and the
/// predictor the proactive policy ranks machines with.
struct Replay<'a> {
    index: EventIndex,
    predictor: &'a dyn AvailabilityPredictor,
    policy: Policy,
    machines: u32,
}

impl<'a> Replay<'a> {
    fn new(trace: &Trace, predictor: &'a dyn AvailabilityPredictor, policy: Policy) -> Self {
        Replay {
            index: EventIndex::build(trace, u64::MAX),
            predictor,
            policy,
            machines: trace.meta.machines,
        }
    }

    /// Machines available at `now`, in id order.
    fn available(&self, now: u64) -> Vec<u32> {
        (0..self.machines)
            .filter(|&m| self.index.window_available(m, now, 1))
            .collect()
    }

    /// One machine for a task of `work` seconds at `now`, if any is
    /// available.
    fn choose(&self, now: u64, work: u64, rng: &mut Rng) -> Option<u32> {
        let candidates = self.available(now);
        if candidates.is_empty() {
            return None;
        }
        Some(match self.policy {
            Policy::Oblivious => *rng.choose(&candidates),
            Policy::Proactive => {
                // Collect the near-best candidates and pick among them at
                // random: a deterministic argmax would dogpile one machine
                // whenever estimates tie, which is neither realistic nor
                // fair to the baseline.
                let scored: Vec<(u32, f64)> = candidates
                    .iter()
                    .map(|&m| (m, self.predictor.predict(m, now, work)))
                    .collect();
                let best_p = scored.iter().map(|s| s.1).fold(f64::NEG_INFINITY, f64::max);
                let near: Vec<u32> = scored
                    .iter()
                    .filter(|s| s.1 >= best_p - 0.02)
                    .map(|s| s.0)
                    .collect();
                *rng.choose(&near)
            }
        })
    }

    /// Up to `k` distinct machines for a gang at `now` (proactive: the
    /// top-predicted ones; oblivious: a random subset).
    fn choose_gang(&self, now: u64, work: u64, k: usize, rng: &mut Rng) -> Vec<u32> {
        let mut candidates = self.available(now);
        match self.policy {
            Policy::Oblivious => rng.shuffle(&mut candidates),
            Policy::Proactive => {
                candidates.sort_by(|&a, &b| {
                    self.predictor
                        .predict(b, now, work)
                        .partial_cmp(&self.predictor.predict(a, now, work))
                        .expect("probabilities are not NaN")
                });
            }
        }
        candidates.truncate(k);
        candidates
    }

    /// Runs one task of `work` seconds submitted at `submit`, on `first`
    /// if given and otherwise on the policy's choice; a task killed by
    /// unavailability restarts from scratch on a fresh choice. Returns
    /// the finish time (`None` once `deadline` passes first) and the
    /// number of kills.
    fn run_task(
        &self,
        first: Option<u32>,
        submit: u64,
        work: u64,
        deadline: u64,
        rng: &mut Rng,
    ) -> (Option<u64>, u64) {
        let mut now = submit;
        let mut placed = first;
        let mut failures = 0;
        loop {
            if now >= deadline {
                return (None, failures);
            }
            let Some(m) = placed.take().or_else(|| self.choose(now, work, rng)) else {
                // Nobody available: wait for the earliest recovery.
                let wake = (0..self.machines)
                    .filter_map(|m| self.index.covering_end(m, now))
                    .min()
                    .unwrap_or(now + 600);
                now = wake.max(now + 60);
                continue;
            };
            // Run until completion or the next failure on that machine.
            match self.index.next_start(m, now) {
                Some(start) if start < now + work => {
                    // Killed mid-run; restart from scratch.
                    failures += 1;
                    now = start.max(now + 1);
                }
                _ => return (Some(now + work), failures),
            }
        }
    }
}

/// The job set's `(submit, work)` draws from RNG stream `stream`; the
/// same seed yields the same jobs under both policies, so the comparison
/// is paired. A zero `submit_until` means 12 hours before the trace ends.
fn draw_jobs(
    trace: &Trace,
    cfg: &ProactiveConfig,
    stream: u64,
) -> impl Iterator<Item = (u64, u64)> {
    let submit_until = if cfg.submit_until == 0 {
        trace.meta.span_secs.saturating_sub(12 * 3600)
    } else {
        cfg.submit_until
    };
    let submit = (cfg.submit_from, submit_until.max(cfg.submit_from + 1));
    let job_secs = cfg.job_secs;
    let mut rng = Rng::for_stream(cfg.seed, stream);
    (0..cfg.jobs).map(move |_| {
        let at = rng.range_u64(submit.0, submit.1);
        (at, rng.range_u64(job_secs.0, job_secs.1 + 1))
    })
}

/// Replays `cfg.jobs` single-task guest jobs over the trace under one
/// policy. The same seed yields the same submission times for both
/// policies, so the comparison is paired.
pub fn replay(
    trace: &Trace,
    predictor: &dyn AvailabilityPredictor,
    policy: Policy,
    cfg: &ProactiveConfig,
) -> PolicyOutcome {
    let ctx = Replay::new(trace, predictor, policy);
    // Placement randomness is a stream of its own, apart from the jobs.
    let mut choice_rng = Rng::for_stream(cfg.seed, 2);

    let mut total_response = 0.0;
    let mut total_failures = 0u64;
    let mut timed_out = 0usize;
    for (submit, work) in draw_jobs(trace, cfg, 1) {
        let deadline = submit + cfg.max_response;
        let (finish, failures) = ctx.run_task(None, submit, work, deadline, &mut choice_rng);
        total_failures += failures;
        if let Some(finish) = finish {
            total_response += (finish - submit) as f64;
        } else {
            timed_out += 1;
            total_response += cfg.max_response as f64;
        }
    }

    PolicyOutcome {
        policy,
        mean_response: total_response / cfg.jobs.max(1) as f64,
        mean_failures: total_failures as f64 / cfg.jobs.max(1) as f64,
        timed_out,
    }
}

/// Gang-job configuration: the paper's motivating workload is "composed
/// of multiple related jobs that are submitted as a group and must all
/// complete before the results can be used" — job response time is the
/// *makespan* over its tasks, which amplifies the cost of every
/// unavailability hit.
#[derive(Debug, Clone, PartialEq)]
pub struct GangConfig {
    /// Base replay parameters (`job_secs` is per *task*).
    pub base: ProactiveConfig,
    /// Number of parallel tasks per job.
    pub tasks: usize,
}

impl Default for GangConfig {
    fn default() -> Self {
        GangConfig {
            base: ProactiveConfig::default(),
            tasks: 4,
        }
    }
}

/// Replays gang jobs: each job submits `tasks` equal tasks at once, on
/// distinct machines where possible (proactive: the top-predicted
/// machines; oblivious: a random available subset); a task killed by
/// unavailability restarts like a single job; the job finishes when its
/// *last* task does.
pub fn replay_gang(
    trace: &Trace,
    predictor: &dyn AvailabilityPredictor,
    policy: Policy,
    cfg: &GangConfig,
) -> PolicyOutcome {
    let ctx = Replay::new(trace, predictor, policy);
    let mut choice_rng = Rng::for_stream(cfg.base.seed, 12);

    let mut total_response = 0.0;
    let mut total_failures = 0u64;
    let mut timed_out = 0usize;
    for (submit, work) in draw_jobs(trace, &cfg.base, 11) {
        let deadline = submit + cfg.base.max_response;
        // Initial gang placement on distinct machines; tasks beyond the
        // available machines are placed when they first run.
        let placed = ctx.choose_gang(submit, work, cfg.tasks, &mut choice_rng);
        let mut makespan = 0u64;
        let mut job_timed_out = false;
        for task in 0..cfg.tasks {
            let first = placed.get(task).copied();
            let (finish, failures) = ctx.run_task(first, submit, work, deadline, &mut choice_rng);
            total_failures += failures;
            if let Some(finish) = finish {
                makespan = makespan.max(finish - submit);
            } else {
                job_timed_out = true;
                makespan = cfg.base.max_response;
            }
        }
        if job_timed_out {
            timed_out += 1;
        }
        total_response += makespan as f64;
    }

    PolicyOutcome {
        policy,
        mean_response: total_response / cfg.base.jobs.max(1) as f64,
        mean_failures: total_failures as f64 / (cfg.base.jobs.max(1) * cfg.tasks.max(1)) as f64,
        timed_out,
    }
}

/// Fits the predictor on the first `train_fraction` of the trace and
/// moves the first submission past the training span.
fn train(
    trace: &Trace,
    predictor: &mut dyn AvailabilityPredictor,
    train_fraction: f64,
    cfg: &ProactiveConfig,
) -> ProactiveConfig {
    let train_end = (trace.meta.span_secs as f64 * train_fraction) as u64;
    predictor.fit(trace, train_end);
    ProactiveConfig {
        submit_from: cfg.submit_from.max(train_end),
        ..cfg.clone()
    }
}

/// Gang-job comparison under both policies, paired job sets.
pub fn compare_gang(
    trace: &Trace,
    predictor: &mut dyn AvailabilityPredictor,
    train_fraction: f64,
    cfg: &GangConfig,
) -> (PolicyOutcome, PolicyOutcome) {
    let c = GangConfig {
        base: train(trace, predictor, train_fraction, &cfg.base),
        tasks: cfg.tasks,
    };
    let oblivious = replay_gang(trace, predictor, Policy::Oblivious, &c);
    let proactive = replay_gang(trace, predictor, Policy::Proactive, &c);
    (oblivious, proactive)
}

/// Runs the full comparison: trains the predictor on the first
/// `train_fraction` of the trace, replays the same job set under both
/// policies, returns `(oblivious, proactive)`.
pub fn compare(
    trace: &Trace,
    predictor: &mut dyn AvailabilityPredictor,
    train_fraction: f64,
    cfg: &ProactiveConfig,
) -> (PolicyOutcome, PolicyOutcome) {
    let c = train(trace, predictor, train_fraction, cfg);
    let oblivious = replay(trace, predictor, Policy::Oblivious, &c);
    let proactive = replay(trace, predictor, Policy::Proactive, &c);
    (oblivious, proactive)
}

/// SLO migration trigger used by the guest scheduler (`fgcs-sched`,
/// DESIGN.md §14): a guest is proactively re-placed when the predicted
/// probability of losing its host within the lookahead window reaches
/// `fail_threshold`. The comparison is **inclusive** — a failure
/// probability exactly at the threshold migrates — so a zero threshold
/// means "migrate at any risk" and a threshold above 1.0 disables
/// migration entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationTrigger {
    /// Failure-probability threshold in `[0, 1]`.
    pub fail_threshold: f64,
}

impl MigrationTrigger {
    /// Creates a trigger firing at the given failure probability.
    pub fn new(fail_threshold: f64) -> Self {
        MigrationTrigger { fail_threshold }
    }

    /// Whether a guest whose host survives the lookahead window with
    /// probability `survival` should be re-placed now. A non-finite
    /// survival (a predictor bug upstream) must not strand the guest
    /// on a dying host, so it counts as certain failure.
    pub fn should_migrate(&self, survival: f64) -> bool {
        !survival.is_finite() || (1.0 - survival) >= self.fail_threshold
    }
}

/// Largest window `w <= max_horizon` (whole seconds) for which
/// `survive(w)` stays at or above `threshold` — the scheduler's
/// "predicted time to unavailability" of one machine. `survive` must be
/// non-increasing in the window length, which any survival function
/// is; the binary search probes it `O(log max_horizon)` times, so the
/// helper is cheap enough to run over a wire-backed predictor (one
/// `QueryAvail` round trip per probe). Returns 0 when even an
/// instantaneous placement misses the threshold (a non-finite probe
/// counts as a miss), and `max_horizon` when the whole horizon clears
/// it.
pub fn time_to_failure(
    mut survive: impl FnMut(u64) -> f64,
    threshold: f64,
    max_horizon: u64,
) -> u64 {
    let clears = |p: f64| p.is_finite() && p >= threshold;
    if clears(survive(max_horizon)) {
        return max_horizon;
    }
    if !clears(survive(0)) {
        return 0;
    }
    let (mut lo, mut hi) = (0u64, max_horizon);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if clears(survive(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineAvailabilityModel;
    use crate::predictor::{HistoryWindowPredictor, MachineHourlyPredictor};
    use fgcs_testbed::runner::{run_testbed, TestbedConfig};

    fn lab_trace() -> Trace {
        let mut cfg = TestbedConfig::tiny();
        cfg.lab.machines = 6;
        cfg.lab.days = 28;
        run_testbed(&cfg)
    }

    #[test]
    fn migration_threshold_is_inclusive() {
        let trig = MigrationTrigger::new(0.25);
        // Failure probability exactly at the threshold migrates.
        assert!(trig.should_migrate(0.75));
        assert!(trig.should_migrate(0.60));
        assert!(!trig.should_migrate(0.7500001));
        // Degenerate thresholds pin the boundary semantics down.
        assert!(MigrationTrigger::new(0.0).should_migrate(1.0));
        assert!(MigrationTrigger::new(1.0).should_migrate(0.0));
        assert!(!MigrationTrigger::new(1.1).should_migrate(0.0));
        // A broken predictor (NaN survival) must evacuate, not strand.
        assert!(trig.should_migrate(f64::NAN));
    }

    #[test]
    fn time_to_failure_boundary_is_inclusive() {
        // A step survival function: >= threshold up to exactly 100s.
        let step = |w: u64| if w <= 100 { 0.5 } else { 0.4 };
        assert_eq!(time_to_failure(step, 0.5, 86_400), 100);
        // Certain-failure and never-failure extremes.
        assert_eq!(time_to_failure(|_| 0.0, 0.5, 86_400), 0);
        assert_eq!(time_to_failure(|_| 1.0, 0.5, 86_400), 86_400);
        assert_eq!(time_to_failure(|_| f64::NAN, 0.5, 86_400), 0);
        assert_eq!(time_to_failure(|_| 0.9, 0.5, 0), 0);
    }

    #[test]
    fn empty_history_never_triggers_migration() {
        // A model that has seen no samples and no events treats every
        // machine as event-free: survival 1.0 at any window, so the
        // migration policy leaves guests alone and the predicted time
        // to failure is the whole horizon.
        let model = OnlineAvailabilityModel::new(0);
        let surv = model.predict(7, 0, 6 * 3600);
        assert_eq!(surv, 1.0);
        assert!(!MigrationTrigger::new(0.5).should_migrate(surv));
        assert_eq!(
            time_to_failure(|w| model.predict(7, 0, w), 0.5, 86_400),
            86_400
        );
    }

    #[test]
    fn all_unavailable_history_triggers_immediately() {
        // An event at the top of every hour for a week: the machine is
        // effectively always failing, so the trigger fires and the
        // predicted time to failure is well under an hour.
        let mut model = OnlineAvailabilityModel::new(0);
        model.ensure_machine(1);
        for h in 0..(7 * 24) {
            model.record_event(1, h * 3600);
        }
        model.observe_time(7 * 86_400);
        let now = 7 * 86_400;
        let surv = model.predict(1, now, 3600);
        assert!(surv < 0.5, "hourly-failing machine survives {surv}");
        assert!(MigrationTrigger::new(0.5).should_migrate(surv));
        let ttf = time_to_failure(|w| model.predict(1, now, w), 0.5, 86_400);
        assert!(ttf < 3600, "ttf {ttf} for an hourly-failing machine");
    }

    #[test]
    fn jobs_complete_under_both_policies() {
        let trace = lab_trace();
        let mut p = HistoryWindowPredictor::new();
        let cfg = ProactiveConfig {
            jobs: 60,
            job_secs: (1800, 2 * 3600),
            ..Default::default()
        };
        let (obl, pro) = compare(&trace, &mut p, 0.6, &cfg);
        assert_eq!(obl.policy, Policy::Oblivious);
        assert_eq!(pro.policy, Policy::Proactive);
        assert!(obl.mean_response > 0.0);
        assert!(pro.mean_response > 0.0);
        assert_eq!(obl.timed_out, 0, "{obl:?}");
        assert_eq!(pro.timed_out, 0, "{pro:?}");
    }

    #[test]
    fn proactive_does_not_lose_badly() {
        // On the lab trace, prediction-driven placement must be at least
        // competitive with random placement (the paper expects a win).
        let trace = lab_trace();
        let mut p = MachineHourlyPredictor::default();
        let cfg = ProactiveConfig {
            jobs: 150,
            ..Default::default()
        };
        let (obl, pro) = compare(&trace, &mut p, 0.6, &cfg);
        assert!(
            pro.mean_response <= obl.mean_response * 1.1,
            "proactive {} vs oblivious {}",
            pro.mean_response,
            obl.mean_response
        );
    }

    #[test]
    fn gang_jobs_complete_and_cost_more_than_singles() {
        let trace = lab_trace();
        let mut p = MachineHourlyPredictor::default();
        let base = ProactiveConfig {
            jobs: 60,
            job_secs: (1800, 2 * 3600),
            ..Default::default()
        };
        let (single, _) = compare(&trace, &mut p, 0.6, &base);
        let gang_cfg = GangConfig { base, tasks: 4 };
        let (gang, _) = compare_gang(&trace, &mut p, 0.6, &gang_cfg);
        // The makespan over 4 tasks is at least the single-task response.
        assert!(
            gang.mean_response >= single.mean_response,
            "gang {} single {}",
            gang.mean_response,
            single.mean_response
        );
        assert_eq!(gang.timed_out, 0, "{gang:?}");
    }

    #[test]
    fn gang_proactive_beats_oblivious_on_heterogeneous_lab() {
        let mut cfg = TestbedConfig::tiny();
        cfg.lab.machines = 10;
        cfg.lab.days = 28;
        cfg.lab.machine_busyness_spread = 0.6;
        let trace = run_testbed(&cfg);
        let mut p = MachineHourlyPredictor::default();
        let gang_cfg = GangConfig {
            base: ProactiveConfig {
                jobs: 120,
                ..Default::default()
            },
            tasks: 4,
        };
        let (obl, pro) = compare_gang(&trace, &mut p, 0.6, &gang_cfg);
        assert!(
            pro.mean_response <= obl.mean_response,
            "proactive {} oblivious {}",
            pro.mean_response,
            obl.mean_response
        );
    }

    #[test]
    fn response_time_includes_waiting() {
        // A job on a single machine with a long outage must include the
        // wait in its response time.
        use fgcs_core::model::{FailureCause, Thresholds};
        use fgcs_testbed::trace::{TraceMeta, TraceRecord};
        let meta = TraceMeta {
            seed: 1,
            machines: 1,
            days: 2,
            sample_period: 15,
            start_weekday: 0,
            span_secs: 2 * 86_400,
            thresholds: Thresholds::LINUX_TESTBED,
        };
        let records = vec![TraceRecord {
            machine: 0,
            cause: FailureCause::Revocation,
            start: 0,
            end: Some(40_000),
            raw_end: Some(39_000),
            avail_cpu: 1.0,
            avail_mem_mb: 900,
        }];
        let trace = Trace { meta, records };
        let mut p = HistoryWindowPredictor::new();
        p.fit(&trace, 10);
        let cfg = ProactiveConfig {
            jobs: 5,
            job_secs: (600, 601),
            submit_from: 100,
            submit_until: 101,
            ..Default::default()
        };
        let out = replay(&trace, &p, Policy::Oblivious, &cfg);
        // Submitted at ~100 while the machine is down until 40_000.
        assert!(out.mean_response >= 39_000.0, "{out:?}");

        // A final occurrence still open when the trace ends never ends:
        // a job killed by it waits out its whole response cap instead of
        // resuming once the trace stops.
        let mut open = trace.records[0];
        open.start = 100_000;
        open.end = None;
        open.raw_end = None;
        let trace = Trace {
            meta: trace.meta,
            records: vec![open],
        };
        let cfg = ProactiveConfig {
            submit_from: 99_800,
            submit_until: 99_801,
            ..cfg
        };
        let out = replay(&trace, &p, Policy::Oblivious, &cfg);
        assert_eq!(out.timed_out, cfg.jobs, "{out:?}");
        assert_eq!(out.mean_failures, 1.0, "{out:?}");
        assert_eq!(out.mean_response, cfg.max_response as f64, "{out:?}");
    }
}
