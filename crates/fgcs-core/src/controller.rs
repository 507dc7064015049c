//! The guest-job controller.
//!
//! Binds an [`OccurrenceRecorder`] (the §4 detector plus the §5
//! occurrence records) to a simulated [`Machine`] and enforces the §3.2
//! management policy on the running guest process:
//!
//! * S1 → run at default priority; S2 → `renice` to 19;
//! * transient spike above `Th2` → `SIGSTOP`, resume if it subsides
//!   within the tolerance ("the guest process resumes if the contention
//!   diminishes after a certain duration, otherwise it is terminated"),
//!   at the priority of the band it subsided into;
//! * S3/S4/S5 → kill the guest;
//! * "no more than one guest process is allowed to run concurrently on
//!   the same machine" — submissions queue.
//!
//! The controller also tracks job completions and failure counts. A
//! killed guest is never re-queued here: its spec waits in
//! [`Controller::take_killed`] for whoever manages the controller (the
//! [`crate::cluster::Cluster`] re-queues it on another machine).

use std::collections::VecDeque;

use fgcs_sim::machine::Machine;
use fgcs_sim::proc::{Pid, ProcSpec};
use fgcs_sim::time::secs;

use crate::detector::DetectorConfig;
use crate::events::OccurrenceRecorder;
use crate::monitor::{Monitor, Observation};
use crate::policy::PolicyAction;

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Detector configuration (timestamps in ticks).
    pub detector: DetectorConfig,
    /// Monitor sampling period in ticks.
    pub sample_period: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            detector: DetectorConfig::sim_default(),
            sample_period: secs(2),
        }
    }
}

/// Lifetime statistics of a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Guest jobs started (including restarts).
    pub started: u64,
    /// Guest jobs that ran to completion.
    pub completed: u64,
    /// Guest jobs killed by the detector.
    pub terminated: u64,
    /// SIGSTOPs issued.
    pub suspensions: u64,
    /// Renice operations issued.
    pub renices: u64,
}

#[derive(Debug, Clone)]
enum GuestSlot {
    Idle,
    Running { pid: Pid, spec: ProcSpec },
}

/// Drives one machine's guest workload under the FGCS policy.
#[derive(Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    machine: Machine,
    monitor: Monitor,
    recorder: OccurrenceRecorder,
    slot: GuestSlot,
    queue: VecDeque<ProcSpec>,
    stats: ControllerStats,
    next_sample: u64,
    last_obs: Option<Observation>,
    killed: Vec<ProcSpec>,
}

impl Controller {
    /// Creates a controller around a machine.
    pub fn new(cfg: ControllerConfig, machine: Machine) -> Self {
        Controller {
            cfg,
            machine,
            monitor: Monitor::new(),
            // One controller drives one machine: its records carry id 0.
            recorder: OccurrenceRecorder::new(0, cfg.detector),
            slot: GuestSlot::Idle,
            queue: VecDeque::new(),
            stats: ControllerStats::default(),
            next_sample: 0,
            last_obs: None,
            killed: Vec::new(),
        }
    }

    /// Submits a guest job. It starts at the next sampling point at
    /// which the machine is available and no other guest runs.
    pub fn submit(&mut self, spec: ProcSpec) {
        self.queue.push_back(spec);
    }

    /// The underlying machine (for spawning host load, inspection).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access, e.g. to inject host workload mid-run.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The detector state and the unavailability occurrences recorded
    /// so far.
    pub fn recorder(&self) -> &OccurrenceRecorder {
        &self.recorder
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// True while a guest process occupies the machine.
    pub fn guest_running(&self) -> bool {
        matches!(self.slot, GuestSlot::Running { .. })
    }

    /// Pid of the running guest, if any.
    pub fn guest_pid(&self) -> Option<Pid> {
        match &self.slot {
            GuestSlot::Running { pid, .. } => Some(*pid),
            GuestSlot::Idle => None,
        }
    }

    /// Jobs waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Advances machine + policy by `n` ticks.
    ///
    /// The machine runs batched ([`Machine::run_ticks`]) up to the next
    /// sampling point or the end, whichever is first, and a finished
    /// guest is reaped once per such stretch. Nothing reads the guest
    /// slot between two sampling points, and the batched machine is
    /// tick-exact against [`Machine::step`], so every observable equals
    /// reaping after each single step (`run_ticks_stepwise`, the test
    /// reference below).
    pub fn run_ticks(&mut self, n: u64) {
        let end = self.machine.now() + n;
        while self.machine.now() < end {
            let now = self.machine.now();
            if now >= self.next_sample {
                self.sample_and_act();
                self.next_sample = now + self.cfg.sample_period;
            }
            let horizon = self.next_sample.max(now + 1).min(end);
            self.machine.run_ticks(horizon - now);
            self.reap_completed();
        }
    }

    /// The per-tick reference `run_ticks` is pinned to: one
    /// [`Machine::step`] and one reap per tick.
    #[cfg(test)]
    fn run_ticks_stepwise(&mut self, n: u64) {
        for _ in 0..n {
            if self.machine.now() >= self.next_sample {
                self.sample_and_act();
                self.next_sample = self.machine.now() + self.cfg.sample_period;
            }
            self.machine.step();
            self.reap_completed();
        }
    }

    /// Runs until the queue and slot are empty or `max_ticks` elapse;
    /// returns the number of ticks consumed.
    pub fn run_until_drained(&mut self, max_ticks: u64) -> u64 {
        let start = self.machine.now();
        while (self.guest_running() || !self.queue.is_empty())
            && self.machine.now() - start < max_ticks
        {
            self.run_ticks(self.cfg.sample_period.max(1));
        }
        self.machine.now() - start
    }

    fn reap_completed(&mut self) {
        if let GuestSlot::Running { pid, .. } = &self.slot {
            let exited = self
                .machine
                .process(*pid)
                .map(|p| p.is_exited())
                .unwrap_or(true);
            if exited {
                self.slot = GuestSlot::Idle;
                self.stats.completed += 1;
            }
        }
    }

    /// The most recent monitor observation, if a sample has been taken.
    pub fn last_observation(&self) -> Option<Observation> {
        self.last_obs
    }

    /// Drains the specs of guest jobs killed by the detector since the
    /// last call.
    pub fn take_killed(&mut self) -> Vec<ProcSpec> {
        std::mem::take(&mut self.killed)
    }

    fn sample_and_act(&mut self) {
        let obs = self.monitor.sample(&self.machine);
        self.last_obs = Some(obs);
        let t = self.machine.now();
        let before = self.recorder.state();
        let step = self.recorder.observe(t, &obs);

        if let GuestSlot::Running { pid, spec } = std::mem::replace(&mut self.slot, GuestSlot::Idle)
        {
            let action = PolicyAction::from_step(before, &step, spec.nice);
            action.apply(&mut self.machine, pid);
            match action {
                PolicyAction::SetNice(_) | PolicyAction::Resume(Some(_)) => self.stats.renices += 1,
                PolicyAction::Suspend => self.stats.suspensions += 1,
                PolicyAction::Stay | PolicyAction::Resume(None) | PolicyAction::Terminate => {}
            }
            if action != PolicyAction::Terminate {
                self.slot = GuestSlot::Running { pid, spec };
            } else {
                self.stats.terminated += 1;
                // Hand the spec back to whoever manages this controller
                // (see `take_killed`): in a cluster the job is re-queued
                // on another machine.
                self.killed.push(spec);
            }
        }

        // Start the next job if the machine is available, idle, and not
        // riding out a load spike (starting a guest mid-spike would run
        // it unmanaged until the spike resolves).
        if self.recorder.is_available() && !self.recorder.spike_active() && !self.guest_running() {
            if let Some(spec) = self.queue.pop_front() {
                self.recorder.set_guest_working_set(spec.mem.resident_mb);
                // Re-check memory fit before placement.
                if self.machine.free_mem_for_guest_mb() >= spec.mem.resident_mb {
                    let pid = self.machine.spawn(spec.clone());
                    // Enter at the priority the current state demands.
                    if self.recorder.state() == crate::model::AvailState::S2 {
                        let _ = self.machine.renice(pid, 19);
                    }
                    self.slot = GuestSlot::Running { pid, spec };
                    self.stats.started += 1;
                } else {
                    // Does not fit: requeue and wait for memory.
                    self.queue.push_front(spec);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_sim::proc::{Demand, MemSpec, ProcClass};
    use fgcs_sim::workloads::synthetic;

    fn quick_cfg() -> ControllerConfig {
        ControllerConfig {
            detector: DetectorConfig {
                thresholds: crate::model::Thresholds::LINUX_TESTBED,
                guest_working_set_mb: 4,
                spike_tolerance: secs(10),
                harvest_delay: secs(20),
                max_silence: None,
            },
            sample_period: secs(1),
        }
    }

    fn finite_guest(work_secs: u64) -> ProcSpec {
        ProcSpec::new(
            "job",
            ProcClass::Guest,
            0,
            Demand::CpuBound {
                total_work: Some(secs(work_secs)),
            },
            MemSpec::tiny(),
        )
    }

    #[test]
    fn idle_machine_completes_job() {
        let mut ctl = Controller::new(quick_cfg(), Machine::default_linux());
        ctl.submit(finite_guest(5));
        let ticks = ctl.run_until_drained(secs(60));
        assert!(ticks >= secs(5));
        let s = ctl.stats();
        assert_eq!(s.started, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.terminated, 0);
        assert!(!ctl.guest_running());
    }

    #[test]
    fn job_queues_behind_running_guest() {
        let mut ctl = Controller::new(quick_cfg(), Machine::default_linux());
        ctl.submit(finite_guest(3));
        ctl.submit(finite_guest(3));
        ctl.run_ticks(secs(2));
        assert!(ctl.guest_running());
        assert_eq!(ctl.queue_len(), 1, "only one guest at a time");
        ctl.run_until_drained(secs(120));
        assert_eq!(ctl.stats().completed, 2);
    }

    #[test]
    fn heavy_host_load_gets_guest_reniced() {
        let mut machine = Machine::default_linux();
        machine.spawn(synthetic::host_process("h", 0.4));
        let mut ctl = Controller::new(quick_cfg(), machine);
        ctl.submit(finite_guest(60));
        ctl.run_ticks(secs(10));
        let pid = ctl.guest_pid().expect("guest running");
        assert_eq!(
            ctl.machine().process(pid).unwrap().nice,
            19,
            "S2 demands nice 19"
        );
        assert_eq!(ctl.recorder().state(), crate::model::AvailState::S2);
    }

    #[test]
    fn persistent_overload_terminates_guest() {
        let mut machine = Machine::default_linux();
        machine.spawn(synthetic::host_process("h", 0.9));
        let mut ctl = Controller::new(quick_cfg(), machine);
        ctl.submit(finite_guest(600));
        ctl.run_ticks(secs(40));
        assert!(!ctl.guest_running());
        assert_eq!(ctl.stats().terminated, 1);
        assert!(ctl.stats().suspensions >= 1, "suspended before the kill");
        assert_eq!(ctl.recorder().records().len(), 1);
        assert_eq!(
            ctl.recorder().records()[0].cause,
            crate::model::FailureCause::CpuContention
        );
    }

    #[test]
    fn oversized_job_waits_for_memory() {
        let mut machine = Machine::new(fgcs_sim::machine::MachineConfig::solaris_384mb());
        machine.spawn(ProcSpec::new(
            "mem-hog",
            ProcClass::Host,
            0,
            Demand::CpuBound {
                total_work: Some(secs(20)),
            },
            MemSpec::resident(250),
        ));
        let mut ctl = Controller::new(quick_cfg(), machine);
        ctl.submit(ProcSpec::new(
            "big-job",
            ProcClass::Guest,
            0,
            Demand::CpuBound {
                total_work: Some(secs(2)),
            },
            MemSpec::resident(120), // 250 + 120 + 100 > 384: must wait
        ));
        ctl.run_ticks(secs(10));
        assert!(
            !ctl.guest_running(),
            "placement deferred under memory pressure"
        );
        ctl.run_ticks(secs(120));
        assert_eq!(ctl.stats().completed, 1, "{:?}", ctl.stats());
    }

    /// The batched `run_ticks` against the per-tick reference, in
    /// lockstep through chunk sizes that straddle sampling points: a
    /// finite guest suspended by a host spike, resumed, and completed;
    /// then a second guest killed by a host hog spawned mid-run.
    #[test]
    fn batched_run_ticks_equals_the_per_tick_reference() {
        let spiky = || {
            let mut machine = Machine::default_linux();
            machine.spawn(ProcSpec::new(
                "spike",
                ProcClass::Host,
                0,
                Demand::Phases {
                    phases: vec![fgcs_sim::proc::Phase {
                        busy: secs(5),
                        idle: secs(300),
                    }],
                    repeat: true,
                },
                MemSpec::tiny(),
            ));
            let mut ctl = Controller::new(quick_cfg(), machine);
            ctl.submit(finite_guest(30));
            ctl
        };
        let (mut batched, mut stepwise) = (spiky(), spiky());
        let chunks = [37, 1, 1_013, 250, 999, 4_321];
        let mut killed = (Vec::new(), Vec::new());
        for round in 0..60 {
            let n = chunks[round % chunks.len()];
            batched.run_ticks(n);
            stepwise.run_ticks_stepwise(n);
            if round == 30 {
                assert_eq!(batched.stats().completed, 1, "{:?}", batched.stats());
                for ctl in [&mut batched, &mut stepwise] {
                    ctl.machine_mut().spawn(synthetic::host_process("hog", 0.9));
                    ctl.submit(finite_guest(600));
                }
            }
            killed.0.extend(batched.take_killed());
            killed.1.extend(stepwise.take_killed());
            assert_eq!(batched.machine().now(), stepwise.machine().now());
            assert_eq!(batched.stats(), stepwise.stats(), "round {round}");
            assert_eq!(batched.guest_pid(), stepwise.guest_pid(), "round {round}");
            assert_eq!(
                batched.machine().accounting(),
                stepwise.machine().accounting(),
                "round {round}"
            );
        }
        let s = batched.stats();
        assert!(s.suspensions >= 1 && s.terminated == 1, "{s:?}");
        assert_eq!(killed.0.len(), 1);
        assert_eq!(killed.0, killed.1);
        assert_eq!(batched.recorder().records(), stepwise.recorder().records());
    }

    /// A spike out of S1 that subsides into S2 resumes the guest at the
    /// nice 19 that S2 demands, not at the priority it was stopped at.
    #[test]
    fn spike_subsiding_into_s2_resumes_the_guest_at_nice_19() {
        let hosts = crate::policy::spike_into_s2_hosts();
        let machine = crate::contention::machine_with(&Default::default(), &hosts);
        let mut ctl = Controller::new(quick_cfg(), machine);
        ctl.submit(finite_guest(600));
        ctl.run_ticks(secs(20));
        let s = ctl.stats();
        assert_eq!((s.suspensions, s.terminated), (1, 0), "{s:?}");
        assert_eq!(ctl.recorder().state(), crate::model::AvailState::S2);
        let guest = ctl.machine().process(ctl.guest_pid().unwrap()).unwrap();
        assert!(!guest.is_suspended(), "resumed");
        assert_eq!(guest.nice, 19, "S2 demands nice 19");
    }

    #[test]
    fn suspension_pauses_then_resumes_guest() {
        let mut machine = Machine::default_linux();
        // A host burst long enough to trigger suspension but shorter than
        // the spike tolerance, so the guest resumes instead of dying.
        machine.spawn(ProcSpec::new(
            "spike",
            ProcClass::Host,
            0,
            Demand::Phases {
                phases: vec![fgcs_sim::proc::Phase {
                    busy: secs(5),
                    idle: secs(300),
                }],
                repeat: true,
            },
            MemSpec::tiny(),
        ));
        let mut ctl = Controller::new(quick_cfg(), machine);
        ctl.submit(finite_guest(30));
        ctl.run_ticks(secs(60));
        let s = ctl.stats();
        assert!(s.suspensions >= 1, "{s:?}");
        assert_eq!(s.terminated, 0, "{s:?}");
        assert_eq!(s.completed, 1, "{s:?}");
    }
}
