//! The scheduler core: job lifecycle, checkpointed progress, eviction
//! and SLO-driven migration.
//!
//! Deliberately I/O-free and clock-free: callers (the serve loop, the
//! X14 replay, tests) drive it with explicit timestamps and feed it
//! machine views/predictions, so the same state machine is exercised
//! everywhere. The revocation semantics match `fgcs-sim`/`fgcs-testbed`:
//! when a host turns unavailable the guest is killed where it stands
//! and loses everything since its last checkpoint. A *migration* is the
//! controlled variant — the guest checkpoints first (banking all
//! progress), pays a fixed re-placement cost, and requeues.
//!
//! Migration state machine (DESIGN.md §14):
//!
//! ```text
//!            submit                 place
//!   (admit) ────────▶ Queued ────────────────▶ Running ──▶ Done
//!                       ▲                        │ │
//!                       │  evict (revocation):   │ │ complete at
//!                       │  lose work since last ◀┘ │ anchor+remaining
//!                       │  checkpoint              │
//!                       └──────────────────────────┘
//!                          migrate (SLO): bank all progress,
//!                          pay `migration_cost`, avoid old host
//! ```

use std::collections::{BTreeMap, VecDeque};

use fgcs_predict::MigrationTrigger;
use fgcs_stats::Rng;
use fgcs_wire::SchedStatsPayload;

use crate::fairshare::{Fairshare, ShareStatus};
use crate::policy::{choose, Policy};
use crate::source::MachineView;

/// Scheduler tuning. Defaults suit the X14 lab traces: 15-minute
/// checkpoints, migration when the predicted chance of losing the host
/// within 30 minutes reaches 35%, and a 2-minute re-placement cost.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Placement ranking.
    pub policy: Policy,
    /// Borrowable extra slots in the fairshare pool.
    pub pool_extra: u64,
    /// Guest-seconds of runtime between automatic checkpoints.
    pub checkpoint_every: u64,
    /// When the predictor's failure probability over
    /// `migrate_lookahead` crosses this trigger, the guest migrates.
    pub migration: MigrationTrigger,
    /// Lookahead window for the migration check, seconds.
    pub migrate_lookahead: u64,
    /// Guest-seconds of progress a migration costs (checkpoint
    /// transfer + restart), charged as wasted work.
    pub migration_cost: u64,
    /// Survival threshold defining "predicted time to unavailability"
    /// for placement ranking.
    pub place_threshold: f64,
    /// Cap on the time-to-failure search horizon, seconds.
    pub place_horizon: u64,
    /// Admission control: a user may hold at most
    /// `max_backlog_factor × max(allowance, 1)` outstanding
    /// (queued + running) jobs.
    pub max_backlog_factor: u64,
    /// Seed for the random placement baseline.
    pub seed: u64,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            policy: Policy::Predictive,
            pool_extra: 2,
            checkpoint_every: 900,
            migration: MigrationTrigger::new(0.35),
            migrate_lookahead: 1800,
            migration_cost: 120,
            place_threshold: 0.5,
            place_horizon: 6 * 3600,
            max_backlog_factor: 4,
            seed: 0x5eed,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a host (and a fairshare slot).
    Queued,
    /// Running on `machine`; un-banked progress accrues since `anchor`.
    Running {
        /// Host machine id.
        machine: u32,
        /// Timestamp progress is accounted from (advanced by each
        /// checkpoint).
        anchor: u64,
    },
    /// All `work` guest-seconds delivered.
    Done {
        /// Completion timestamp.
        at: u64,
    },
}

impl JobState {
    /// Wire code 1..=3 (`Frame::SchedJobReply`).
    pub fn code(self) -> u8 {
        match self {
            JobState::Queued => 1,
            JobState::Running { .. } => 2,
            JobState::Done { .. } => 3,
        }
    }
}

/// One guest job.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Scheduler-wide id, monotone from 1.
    pub id: u64,
    /// Owning user.
    pub user: u32,
    /// Total work requirement, guest-seconds.
    pub work: u64,
    /// Checkpointed (banked) progress, guest-seconds.
    pub done: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Host revocations suffered.
    pub evictions: u32,
    /// Proactive migrations performed.
    pub migrations: u32,
    /// Submission timestamp.
    pub submitted: u64,
    /// Most recent host, avoided on the next placement right after a
    /// migration (the predictor just condemned it).
    pub last_host: Option<u32>,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The user's outstanding backlog is at its quota-derived cap.
    QuotaExceeded,
    /// The user is not registered with the fairshare ledger.
    UnknownUser,
}

/// The scheduler: queue, running set, fairshare ledger, counters.
pub struct Scheduler {
    cfg: SchedConfig,
    fairshare: Fairshare,
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    /// machine → job id, one guest per machine.
    occupied: BTreeMap<u32, u64>,
    next_id: u64,
    rng: Rng,
    submitted: u64,
    completed: u64,
    completed_work: u64,
    rejected: u64,
    evictions: u64,
    migrations: u64,
    wasted_secs: u64,
    /// Ticks where some user's running count exceeded their allowance.
    /// Zero by construction ([`Fairshare::try_acquire`] is the only
    /// path into Running); exported so experiments can assert it.
    quota_violations: u64,
    /// Per-user peak concurrent running jobs.
    peaks: BTreeMap<u32, u64>,
}

impl Scheduler {
    /// Creates an empty scheduler; register users before submitting.
    pub fn new(cfg: SchedConfig) -> Scheduler {
        Scheduler {
            fairshare: Fairshare::new(cfg.pool_extra),
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            occupied: BTreeMap::new(),
            next_id: 1,
            rng: Rng::new(cfg.seed),
            submitted: 0,
            completed: 0,
            completed_work: 0,
            rejected: 0,
            evictions: 0,
            migrations: 0,
            wasted_secs: 0,
            quota_violations: 0,
            peaks: BTreeMap::new(),
            cfg,
        }
    }

    /// Registers `user` with `base` owned slots.
    pub fn add_user(&mut self, user: u32, base: u64) {
        self.fairshare.add_user(user, base);
    }

    /// Whether `user` is registered.
    pub fn has_user(&self, user: u32) -> bool {
        self.fairshare.has_user(user)
    }

    /// Fairshare `request` op; returns slots granted.
    pub fn share_request(&mut self, user: u32, n: u64) -> u64 {
        self.fairshare.request(user, n)
    }

    /// Fairshare `release` op; returns slots returned to the pool.
    pub fn share_release(&mut self, user: u32, n: u64) -> u64 {
        self.fairshare.release(user, n)
    }

    /// Fairshare `status` op.
    pub fn share_status(&self, user: u32) -> ShareStatus {
        self.fairshare.status(user)
    }

    /// Admission control + enqueue. `Err` rejections never become jobs.
    pub fn submit(&mut self, user: u32, work: u64, now: u64) -> Result<u64, SubmitError> {
        if !self.fairshare.has_user(user) {
            self.rejected += 1;
            return Err(SubmitError::UnknownUser);
        }
        let outstanding = self
            .jobs
            .values()
            .filter(|j| j.user == user && !matches!(j.state, JobState::Done { .. }))
            .count() as u64;
        let cap = self.cfg.max_backlog_factor * self.fairshare.allowance(user).max(1);
        if outstanding >= cap {
            self.rejected += 1;
            return Err(SubmitError::QuotaExceeded);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.submitted += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                user,
                work: work.max(1),
                done: 0,
                state: JobState::Queued,
                evictions: 0,
                migrations: 0,
                submitted: now,
                last_host: None,
            },
        );
        self.queue.push_back(id);
        Ok(id)
    }

    /// Accrues progress for every running job up to `now`: banks full
    /// checkpoints and completes jobs whose remaining work fits before
    /// `now` (at their exact completion instant).
    pub fn advance(&mut self, now: u64) {
        let running: Vec<u64> = self.occupied.values().copied().collect();
        for id in running {
            self.bank(id, now);
        }
    }

    /// Host `machine` was revoked at `now` (the service reported a
    /// transition out of the available states, or the replayed trace
    /// says so). The guest there — if any — is killed: progress since
    /// its last checkpoint is wasted, and the job requeues at the
    /// front.
    pub fn on_unavailable(&mut self, machine: u32, now: u64) {
        let Some(&id) = self.occupied.get(&machine) else {
            return;
        };
        self.bank(id, now);
        // Banking may have completed the job just before the revocation.
        let Some(&id) = self.occupied.get(&machine) else {
            return;
        };
        let job = self.jobs.get_mut(&id).expect("occupied job exists");
        let JobState::Running { anchor, .. } = job.state else {
            unreachable!("occupied job not running");
        };
        let lost = now.saturating_sub(anchor);
        self.wasted_secs += lost;
        self.evictions += 1;
        job.evictions += 1;
        job.state = JobState::Queued;
        job.last_host = Some(machine);
        let user = job.user;
        self.queue.push_front(id);
        self.occupied.remove(&machine);
        self.fairshare.yield_slot(user);
    }

    /// SLO migration sweep at `now`: any guest whose host fails the
    /// [`MigrationTrigger`] over the lookahead window checkpoints
    /// everything, pays [`SchedConfig::migration_cost`] (charged as
    /// wasted work), and requeues avoiding that host. Returns how many
    /// guests moved.
    pub fn check_migrations(&mut self, now: u64, survival: &mut dyn FnMut(u32, u64) -> f64) -> u64 {
        let hosts: Vec<(u32, u64)> = self.occupied.iter().map(|(m, j)| (*m, *j)).collect();
        let mut moved = 0;
        for (machine, id) in hosts {
            let surv = survival(machine, self.cfg.migrate_lookahead);
            if !self.cfg.migration.should_migrate(surv) {
                continue;
            }
            self.bank(id, now);
            if !self.occupied.contains_key(&machine) {
                continue; // banking completed it under the wire
            }
            let job = self.jobs.get_mut(&id).expect("occupied job exists");
            let JobState::Running { anchor, .. } = job.state else {
                unreachable!("occupied job not running");
            };
            // Controlled checkpoint: bank the partial progress too,
            // then charge the migration cost against it.
            job.done = (job.done + now.saturating_sub(anchor)).min(job.work - 1);
            job.done = job.done.saturating_sub(self.cfg.migration_cost);
            job.state = JobState::Queued;
            job.last_host = Some(machine);
            job.migrations += 1;
            let user = job.user;
            self.wasted_secs += self.cfg.migration_cost;
            self.migrations += 1;
            moved += 1;
            self.queue.push_front(id);
            self.occupied.remove(&machine);
            self.fairshare.yield_slot(user);
        }
        moved
    }

    /// Drains the queue onto free harvestable machines at `now`,
    /// respecting fairshare allowances. Jobs whose user is out of
    /// slots stay queued in order; placement stops when no candidate
    /// machines remain.
    pub fn place(
        &mut self,
        now: u64,
        views: &[MachineView],
        survival: &mut dyn FnMut(u32, u64) -> f64,
    ) {
        let mut free: Vec<MachineView> = views
            .iter()
            .filter(|v| v.harvestable && !self.occupied.contains_key(&v.machine))
            .copied()
            .collect();
        let mut skipped: Vec<u64> = Vec::new();
        while let Some(id) = self.queue.pop_front() {
            if free.is_empty() {
                self.queue.push_front(id);
                break;
            }
            let (user, remaining, avoid) = {
                let job = &self.jobs[&id];
                (
                    job.user,
                    job.work.saturating_sub(job.done).max(1),
                    job.last_host,
                )
            };
            if !self.fairshare.try_acquire(user) {
                skipped.push(id);
                continue;
            }
            // Right after a migration the predictor just condemned the
            // old host; only go back when it is the sole option.
            let pool: Vec<MachineView> = match avoid {
                Some(a) if free.len() > 1 => {
                    free.iter().filter(|v| v.machine != a).copied().collect()
                }
                _ => free.clone(),
            };
            let chosen = choose(
                self.cfg.policy,
                &pool,
                remaining,
                self.cfg.place_threshold,
                self.cfg.place_horizon,
                &mut self.rng,
                survival,
            );
            match chosen {
                Some(machine) => {
                    free.retain(|v| v.machine != machine);
                    self.occupied.insert(machine, id);
                    let job = self.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running {
                        machine,
                        anchor: now,
                    };
                    let running = self.running_of(user);
                    let peak = self.peaks.entry(user).or_insert(0);
                    *peak = (*peak).max(running);
                    if running > self.fairshare.allowance(user) {
                        self.quota_violations += 1;
                    }
                }
                None => {
                    self.fairshare.yield_slot(user);
                    skipped.push(id);
                }
            }
        }
        // Skipped jobs keep their relative order ahead of later
        // arrivals.
        for id in skipped.into_iter().rev() {
            self.queue.push_front(id);
        }
    }

    /// One job by id.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// The running set as `(machine, job id)` pairs.
    pub fn hosts(&self) -> Vec<(u32, u64)> {
        self.occupied.iter().map(|(m, j)| (*m, *j)).collect()
    }

    /// Currently running jobs of `user`.
    pub fn running_of(&self, user: u32) -> u64 {
        self.occupied
            .values()
            .filter(|id| self.jobs[id].user == user)
            .count() as u64
    }

    /// Per-user peak concurrent running jobs observed so far.
    pub fn peak_running(&self, user: u32) -> u64 {
        self.peaks.get(&user).copied().unwrap_or(0)
    }

    /// Ticks where a user exceeded their allowance (always 0 unless
    /// the quota gate is broken — experiments assert on it).
    pub fn quota_violations(&self) -> u64 {
        self.quota_violations
    }

    /// Total guest-seconds of completed jobs.
    pub fn completed_work(&self) -> u64 {
        self.completed_work
    }

    /// Wire-shaped counters. The conservation identity
    /// `submitted == completed + queued + running` holds because
    /// rejected submissions never become jobs and evicted/migrated
    /// jobs return to the queue.
    pub fn stats(&self) -> SchedStatsPayload {
        SchedStatsPayload {
            submitted: self.submitted,
            completed: self.completed,
            rejected: self.rejected,
            evictions: self.evictions,
            migrations: self.migrations,
            wasted_secs: self.wasted_secs,
            queued: self.queue.len() as u64,
            running: self.occupied.len() as u64,
        }
    }

    /// Banks progress for one running job up to `now`: whole
    /// checkpoints move `done`/`anchor` forward; completion fires at
    /// the exact instant the remaining work is delivered.
    fn bank(&mut self, id: u64, now: u64) {
        let job = self.jobs.get_mut(&id).expect("banking a known job");
        let JobState::Running { machine, anchor } = job.state else {
            return;
        };
        // Saturating: a peer-chosen `work` near `u64::MAX` must never
        // complete nor overflow, however late `anchor` is.
        let finish = anchor.saturating_add(job.work - job.done);
        if finish <= now {
            job.done = job.work;
            job.state = JobState::Done { at: finish };
            let user = job.user;
            self.completed += 1;
            self.completed_work = self.completed_work.saturating_add(job.work);
            self.occupied.remove(&machine);
            self.fairshare.yield_slot(user);
            return;
        }
        let ckpt = self.cfg.checkpoint_every.max(1);
        let banked = (now.saturating_sub(anchor) / ckpt) * ckpt;
        if banked > 0 {
            job.done += banked;
            job.state = JobState::Running {
                machine,
                anchor: anchor + banked,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(ids: &[u32]) -> Vec<MachineView> {
        ids.iter()
            .map(|&machine| MachineView {
                machine,
                harvestable: true,
                occurrences: 0,
            })
            .collect()
    }

    fn sure(_: u32, _: u64) -> f64 {
        1.0
    }

    fn cfg() -> SchedConfig {
        SchedConfig {
            checkpoint_every: 100,
            migration_cost: 30,
            pool_extra: 2,
            ..SchedConfig::default()
        }
    }

    #[test]
    fn eviction_loses_exactly_the_unbanked_progress() {
        let mut s = Scheduler::new(cfg());
        s.add_user(1, 1);
        let id = s.submit(1, 1000, 0).unwrap();
        s.place(0, &views(&[7]), &mut sure);
        assert!(matches!(s.job(id).unwrap().state, JobState::Running { .. }));

        s.advance(350);
        assert_eq!(s.job(id).unwrap().done, 300, "three banked checkpoints");
        s.on_unavailable(7, 350);
        let j = s.job(id).unwrap();
        assert_eq!(j.state, JobState::Queued);
        assert_eq!(j.done, 300, "banked work survives the kill");
        assert_eq!(j.evictions, 1);
        assert_eq!(s.stats().wasted_secs, 50, "350 − 300 lost");
        assert_eq!(s.share_status(1).in_use, 0, "slot yielded");
    }

    #[test]
    fn completion_fires_at_the_exact_instant() {
        let mut s = Scheduler::new(cfg());
        s.add_user(1, 1);
        let id = s.submit(1, 1000, 0).unwrap();
        s.place(0, &views(&[7]), &mut sure);
        s.advance(5000);
        match s.job(id).unwrap().state {
            JobState::Done { at } => assert_eq!(at, 1000),
            other => panic!("not done: {other:?}"),
        }
        let st = s.stats();
        assert_eq!((st.completed, st.running, st.queued), (1, 0, 0));
        assert_eq!(s.completed_work(), 1000);
    }

    #[test]
    fn a_job_of_maximal_work_never_completes_nor_overflows() {
        let mut s = Scheduler::new(cfg());
        s.add_user(1, 1);
        let id = s.submit(1, u64::MAX, 0).unwrap();
        s.place(10, &views(&[7]), &mut sure);
        s.advance(20);
        let job = s.job(id).unwrap();
        assert!(matches!(job.state, JobState::Running { .. }), "{job:?}");
        assert_eq!((s.stats().completed, s.completed_work()), (0, 0));
    }

    #[test]
    fn migration_banks_progress_and_avoids_the_old_host() {
        let mut s = Scheduler::new(cfg());
        s.add_user(1, 1);
        let id = s.submit(1, 1000, 0).unwrap();
        s.place(0, &views(&[3, 7]), &mut sure);
        let first = match s.job(id).unwrap().state {
            JobState::Running { machine, .. } => machine,
            other => panic!("not running: {other:?}"),
        };

        // At t=250: 2 checkpoints banked (200), 50 un-banked. The host
        // is condemned, so migration banks all 250 then charges 30.
        let moved = s.check_migrations(250, &mut |m, _| if m == first { 0.0 } else { 1.0 });
        assert_eq!(moved, 1);
        let j = s.job(id).unwrap();
        assert_eq!(j.state, JobState::Queued);
        assert_eq!(j.done, 220, "250 banked − 30 migration cost");
        assert_eq!(j.migrations, 1);
        assert_eq!(j.evictions, 0, "migration is not an eviction");
        assert_eq!(s.stats().wasted_secs, 30, "only the cost is wasted");

        s.place(250, &views(&[3, 7]), &mut sure);
        match s.job(id).unwrap().state {
            JobState::Running { machine, .. } => {
                assert_ne!(machine, first, "condemned host avoided")
            }
            other => panic!("not running: {other:?}"),
        }
    }

    #[test]
    fn admission_control_caps_the_backlog() {
        let mut s = Scheduler::new(SchedConfig {
            max_backlog_factor: 2,
            pool_extra: 0,
            ..cfg()
        });
        s.add_user(1, 1);
        assert!(s.submit(1, 100, 0).is_ok());
        assert!(s.submit(1, 100, 0).is_ok());
        assert_eq!(s.submit(1, 100, 0), Err(SubmitError::QuotaExceeded));
        assert_eq!(s.submit(9, 100, 0), Err(SubmitError::UnknownUser));
        assert_eq!(s.stats().rejected, 2);
        assert_eq!(s.stats().submitted, 2);
    }

    #[test]
    fn quotas_gate_dispatch_and_extra_slots_lift_the_gate() {
        let mut s = Scheduler::new(cfg());
        s.add_user(1, 1);
        s.add_user(2, 1);
        let _ = s.submit(1, 500, 0).unwrap();
        let _ = s.submit(1, 500, 0).unwrap();
        let b1 = s.submit(2, 500, 0).unwrap();
        s.place(0, &views(&[1, 2, 3, 4]), &mut sure);
        assert_eq!(s.running_of(1), 1, "user 1 capped at base");
        assert_eq!(s.running_of(2), 1);
        assert!(matches!(s.job(b1).unwrap().state, JobState::Running { .. }));

        assert_eq!(s.share_request(1, 1), 1);
        s.place(0, &views(&[1, 2, 3, 4]), &mut sure);
        assert_eq!(s.running_of(1), 2, "extra slot lifts the gate");
        assert_eq!(s.peak_running(1), 2);
        assert_eq!(s.quota_violations(), 0);

        // Conservation: submitted == completed + queued + running.
        let st = s.stats();
        assert_eq!(st.submitted, st.completed + st.queued + st.running);
    }

    #[test]
    fn skipped_users_do_not_block_others() {
        let mut s = Scheduler::new(SchedConfig {
            pool_extra: 0,
            ..cfg()
        });
        s.add_user(1, 1);
        s.add_user(2, 1);
        let _ = s.submit(1, 500, 0).unwrap();
        let _ = s.submit(1, 500, 0).unwrap(); // will be slot-starved
        let b = s.submit(2, 500, 0).unwrap(); // behind it in the queue
        s.place(0, &views(&[1, 2, 3]), &mut sure);
        assert!(
            matches!(s.job(b).unwrap().state, JobState::Running { .. }),
            "user 2 places even though user 1's second job is starved"
        );
    }
}
