//! Process model.
//!
//! A simulated process is a CPU-demand pattern plus a memory footprint
//! and a nice value. The demand patterns cover everything the paper's
//! experiments need:
//!
//! * duty-cycle loops — the synthetic host programs of §3.2.1, which
//!   compute for a burst and sleep the rest of the period to hit a target
//!   *isolated CPU usage*;
//! * fully CPU-bound programs — the guest applications;
//! * phase lists — compile jobs and interactive bursts in the Musbus-like
//!   host workloads.

use crate::time::Tick;

/// Process identifier, unique within one [`crate::machine::Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Whether a process belongs to the host user, a guest job, or the
/// system itself. The FGCS monitor aggregates Host + System usage as
/// "host resource usage" — system daemons (e.g. `updatedb`) are host
/// processes from the guest's point of view, exactly as in §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcClass {
    /// A local user's process.
    Host,
    /// A foreign guest job managed by the FGCS system.
    Guest,
    /// An OS daemon; counted as host load by the monitor.
    System,
}

impl ProcClass {
    /// True for processes whose CPU usage counts as host load.
    pub fn counts_as_host(self) -> bool {
        !matches!(self, ProcClass::Guest)
    }
}

/// Memory footprint of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSpec {
    /// Resident set size in MB (the working set competing for RAM).
    pub resident_mb: u32,
    /// Virtual size in MB (reported, not charged).
    pub virtual_mb: u32,
}

impl MemSpec {
    /// A footprint with equal resident and virtual size.
    pub const fn resident(mb: u32) -> Self {
        MemSpec {
            resident_mb: mb,
            virtual_mb: mb,
        }
    }

    /// The negligible footprint of the synthetic CPU-contention programs
    /// ("all the programs have very small resident sets", §3.2.1).
    pub const fn tiny() -> Self {
        MemSpec {
            resident_mb: 2,
            virtual_mb: 4,
        }
    }
}

/// One compute/sleep phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// CPU work in ticks.
    pub busy: u64,
    /// Sleep after the work, in ticks.
    pub idle: u64,
}

/// CPU-demand pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Demand {
    /// Repeat `busy` ticks of work then `idle` ticks of sleep, forever.
    DutyCycle {
        /// CPU work per period, in ticks.
        busy: u64,
        /// Sleep per period, in ticks.
        idle: u64,
    },
    /// Always wants the CPU; exits after `total_work` ticks if given.
    CpuBound {
        /// Remaining CPU work in ticks, or `None` to run forever.
        total_work: Option<u64>,
    },
    /// A sequence of phases, optionally repeated forever. A process with
    /// `repeat == false` exits after its last phase.
    Phases {
        /// The phase list; must be non-empty.
        phases: Vec<Phase>,
        /// Whether to loop the phase list.
        repeat: bool,
    },
}

impl Demand {
    /// Builds a duty cycle achieving isolated CPU usage `usage` over the
    /// given `period_ticks` (busy = round(usage × period), clamped so a
    /// nonzero usage gets at least one busy tick and a usage below 1.0
    /// keeps at least one idle tick).
    ///
    /// # Panics
    /// Panics if `usage` is outside `[0, 1]` or `period_ticks == 0`.
    pub fn duty_cycle(usage: f64, period_ticks: u64) -> Demand {
        assert!((0.0..=1.0).contains(&usage), "usage in [0,1]");
        assert!(period_ticks > 0, "period must be positive");
        let mut busy = (usage * period_ticks as f64).round() as u64;
        if usage > 0.0 {
            busy = busy.max(1);
        }
        if usage < 1.0 {
            busy = busy.min(period_ticks - 1);
        }
        let idle = period_ticks - busy;
        if idle == 0 {
            Demand::CpuBound { total_work: None }
        } else {
            Demand::DutyCycle { busy, idle }
        }
    }

    /// The long-run isolated CPU usage this demand would achieve on an
    /// otherwise idle machine.
    pub fn isolated_usage(&self) -> f64 {
        match self {
            Demand::DutyCycle { busy, idle } => *busy as f64 / (*busy + *idle) as f64,
            Demand::CpuBound { .. } => 1.0,
            Demand::Phases { phases, .. } => {
                let busy: u64 = phases.iter().map(|p| p.busy).sum();
                let total: u64 = phases.iter().map(|p| p.busy + p.idle).sum();
                if total == 0 {
                    0.0
                } else {
                    busy as f64 / total as f64
                }
            }
        }
    }
}

/// Everything needed to spawn a process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcSpec {
    /// Human-readable name for reports.
    pub name: String,
    /// Host/guest/system classification.
    pub class: ProcClass,
    /// Unix nice value, −20..=19 (only 0..=19 is used by FGCS).
    pub nice: i8,
    /// CPU-demand pattern.
    pub demand: Demand,
    /// Memory footprint.
    pub mem: MemSpec,
}

impl ProcSpec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        class: ProcClass,
        nice: i8,
        demand: Demand,
        mem: MemSpec,
    ) -> Self {
        assert!((-20..=19).contains(&nice), "nice out of range");
        ProcSpec {
            name: name.into(),
            class,
            nice,
            demand,
            mem,
        }
    }

    /// A tiny-footprint synthetic host program with the given isolated
    /// usage and duty-cycle period.
    pub fn synthetic_host(name: impl Into<String>, usage: f64, period_ticks: u64) -> Self {
        ProcSpec::new(
            name,
            ProcClass::Host,
            0,
            Demand::duty_cycle(usage, period_ticks),
            MemSpec::tiny(),
        )
    }

    /// A fully CPU-bound guest process at the given nice value.
    pub fn cpu_bound_guest(name: impl Into<String>, nice: i8) -> Self {
        ProcSpec::new(
            name,
            ProcClass::Guest,
            nice,
            Demand::CpuBound { total_work: None },
            MemSpec::tiny(),
        )
    }
}

/// Run-state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Wants the CPU.
    Runnable,
    /// Sleeping; `remaining` ticks until it wakes.
    Sleeping {
        /// Ticks left to sleep.
        remaining: u64,
    },
    /// Stopped by SIGSTOP (the FGCS suspension mechanism).
    Suspended {
        /// State to restore on SIGCONT.
        prev: SleepOrRun,
    },
    /// Finished; never scheduled again.
    Exited,
}

/// What a suspended process was doing, restored on resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepOrRun {
    /// Was runnable.
    Runnable,
    /// Was sleeping with this many ticks left.
    Sleeping(u64),
}

/// A live process inside a machine.
#[derive(Debug, Clone)]
pub struct Process {
    /// Identifier.
    pub pid: Pid,
    /// The spawning spec (name/class/mem retained for reporting).
    pub spec: ProcSpec,
    /// Current nice value (may differ from spec after `renice`).
    pub nice: i8,
    /// Scheduler quantum counter, in ticks.
    pub counter: u64,
    /// Run-state.
    pub state: RunState,
    /// Progress within the demand pattern.
    pub progress: DemandProgress,
    /// Total CPU ticks consumed since spawn.
    pub cpu_ticks: u64,
    /// Total ticks spent runnable but not running (scheduler wait).
    pub wait_ticks: u64,
    /// Tick at which the process was spawned.
    pub spawned_at: Tick,
}

/// Cursor into a [`Demand`] pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandProgress {
    /// Index of the current phase (always 0 for simple demands).
    pub phase: usize,
    /// CPU ticks still to burn in the current busy period.
    pub busy_left: u64,
}

impl Process {
    /// Creates a process in the state it has immediately after `fork`:
    /// runnable at the start of its first busy period, with a fresh
    /// quantum.
    pub fn spawn(pid: Pid, spec: ProcSpec, now: Tick) -> Self {
        let busy_left = match &spec.demand {
            Demand::DutyCycle { busy, .. } => *busy,
            Demand::CpuBound { total_work } => total_work.unwrap_or(u64::MAX),
            Demand::Phases { phases, .. } => phases.first().map(|p| p.busy).unwrap_or(0),
        };
        let nice = spec.nice;
        let mut p = Process {
            pid,
            spec,
            nice,
            counter: nice_to_ticks(nice),
            state: RunState::Runnable,
            progress: DemandProgress {
                phase: 0,
                busy_left,
            },
            cpu_ticks: 0,
            wait_ticks: 0,
            spawned_at: now,
        };
        // A phase list that starts with zero busy work begins by sleeping;
        // an empty phase list exits immediately.
        p.settle_after_work();
        p
    }

    /// True if the scheduler may pick this process.
    pub fn is_runnable(&self) -> bool {
        matches!(self.state, RunState::Runnable)
    }

    /// True once exited.
    pub fn is_exited(&self) -> bool {
        matches!(self.state, RunState::Exited)
    }

    /// True while suspended.
    pub fn is_suspended(&self) -> bool {
        matches!(self.state, RunState::Suspended { .. })
    }

    /// Whether this process's resident set currently competes for
    /// physical memory. Suspended processes are assumed paged out (the
    /// kernel reclaims an un-running job's pages quickly under pressure),
    /// and exited processes are gone.
    pub fn occupies_memory(&self) -> bool {
        !self.is_exited() && !self.is_suspended()
    }

    /// Consumes one tick of CPU, retiring one tick of demand. Thrashing
    /// does not slow a process's progress here: the machine charges it
    /// as page-fault I/O stalls instead.
    ///
    /// Must only be called on a runnable process.
    pub fn run_tick(&mut self) {
        debug_assert!(self.is_runnable(), "ran a non-runnable process");
        self.cpu_ticks += 1;
        self.progress.busy_left = self.progress.busy_left.saturating_sub(1);
        if self.progress.busy_left == 0 {
            self.settle_after_work();
        }
    }

    /// Consumes `k` ticks of CPU in one call — equivalent to `k`
    /// consecutive `run_tick()` calls. The caller must guarantee
    /// `k <= busy_left`, so the demand pattern can settle at most once,
    /// at the end of the batch.
    pub fn run_bulk(&mut self, k: u64) {
        debug_assert!(self.is_runnable(), "ran a non-runnable process");
        debug_assert!(
            k <= self.progress.busy_left,
            "bulk run overshoots the busy period"
        );
        self.cpu_ticks += k;
        self.progress.busy_left -= k;
        if self.progress.busy_left == 0 {
            self.settle_after_work();
        }
    }

    /// Advances a sleeping process's timer by `k` ticks at once —
    /// equivalent to `k` [`Process::sleep_tick`] calls that all leave it
    /// asleep. The caller must guarantee `k <= remaining` (a timer at
    /// zero wakes on the *next* tick, which must go through the per-tick
    /// path). No-op for other states.
    pub fn sleep_bulk(&mut self, k: u64) {
        if let RunState::Sleeping { remaining } = self.state {
            debug_assert!(k <= remaining, "bulk sleep would skip the wake tick");
            self.state = RunState::Sleeping {
                remaining: remaining - k,
            };
        }
    }

    /// Called when the current busy period completes: move to the next
    /// sleep / phase / exit according to the demand pattern.
    fn settle_after_work(&mut self) {
        if self.progress.busy_left > 0 {
            return;
        }
        match &self.spec.demand {
            Demand::DutyCycle { busy, idle } => {
                self.state = RunState::Sleeping { remaining: *idle };
                self.progress.busy_left = *busy;
            }
            Demand::CpuBound { total_work } => {
                if total_work.is_some() {
                    self.state = RunState::Exited;
                } else {
                    // busy_left hit 0 only via u64 exhaustion; refill.
                    self.progress.busy_left = u64::MAX;
                }
            }
            Demand::Phases { phases, repeat } => {
                // Sleep out the current phase's idle part, then advance.
                let cur = phases.get(self.progress.phase).copied();
                match cur {
                    None => self.state = RunState::Exited,
                    Some(ph) => {
                        let next = self.progress.phase + 1;
                        let (next_phase, exited) = if next < phases.len() {
                            (next, false)
                        } else if *repeat {
                            (0, false)
                        } else {
                            (0, true)
                        };
                        if ph.idle > 0 {
                            self.state = RunState::Sleeping { remaining: ph.idle };
                        }
                        if exited && ph.idle == 0 {
                            self.state = RunState::Exited;
                            return;
                        }
                        if exited {
                            // Sleep out the tail idle, then exit on wake.
                            self.progress.phase = usize::MAX; // sentinel: exit on wake
                            return;
                        }
                        self.progress.phase = next_phase;
                        self.progress.busy_left = phases[next_phase].busy;
                        if self.progress.busy_left == 0 && ph.idle == 0 {
                            // Degenerate all-zero phase: avoid infinite
                            // loop by exiting.
                            self.state = RunState::Exited;
                        }
                    }
                }
            }
        }
    }

    /// Advances a sleeping process by one tick; wakes it when the timer
    /// expires. No-op for other states.
    ///
    /// A process put to sleep for `S` ticks stays off the CPU for exactly
    /// `S` machine ticks: the timer decrements through `S-1, …, 0` and
    /// the process wakes on the tick *after* it reaches zero.
    pub fn sleep_tick(&mut self) {
        if let RunState::Sleeping { remaining } = self.state {
            if remaining == 0 {
                if self.progress.phase == usize::MAX {
                    self.state = RunState::Exited;
                } else {
                    self.state = RunState::Runnable;
                }
            } else {
                self.state = RunState::Sleeping {
                    remaining: remaining - 1,
                };
            }
        }
    }

    /// Suspends (SIGSTOP). No-op if exited or already suspended.
    pub fn suspend(&mut self) {
        self.state = match self.state {
            RunState::Runnable => RunState::Suspended {
                prev: SleepOrRun::Runnable,
            },
            RunState::Sleeping { remaining } => RunState::Suspended {
                prev: SleepOrRun::Sleeping(remaining),
            },
            other => other,
        };
    }

    /// Resumes (SIGCONT). No-op unless suspended.
    pub fn resume(&mut self) {
        if let RunState::Suspended { prev } = self.state {
            self.state = match prev {
                SleepOrRun::Runnable => RunState::Runnable,
                SleepOrRun::Sleeping(r) => RunState::Sleeping { remaining: r },
            };
        }
    }

    /// Terminates the process.
    pub fn kill(&mut self) {
        self.state = RunState::Exited;
    }
}

/// The Linux 2.4 `NICE_TO_TICKS` mapping for HZ = 100: the per-epoch
/// quantum in ticks. nice 0 → 6 ticks (60 ms), nice 19 → 1 tick (10 ms),
/// nice −20 → 11 ticks.
///
/// This constant is the mechanical origin of the paper's two thresholds:
/// a host process only loses CPU to a lowest-priority guest once its
/// per-period demand exceeds this quantum budget (Th2), while an
/// equal-priority guest starts competing as soon as the host's banked
/// carry-over runs out (Th1).
#[inline]
pub fn nice_to_ticks(nice: i8) -> u64 {
    // 2.4: NICE_TO_TICKS(n) = ((20 - n) >> 2) + 1 for HZ=100.
    (((20 - nice as i64) >> 2) + 1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nice_to_ticks_matches_kernel_table() {
        assert_eq!(nice_to_ticks(0), 6);
        assert_eq!(nice_to_ticks(19), 1);
        assert_eq!(nice_to_ticks(-20), 11);
        assert_eq!(nice_to_ticks(10), 3);
        // Monotone non-increasing in nice.
        let mut prev = u64::MAX;
        for n in -20..=19 {
            let q = nice_to_ticks(n);
            assert!(q <= prev && q >= 1);
            prev = q;
        }
    }

    #[test]
    fn duty_cycle_targets_usage() {
        let d = Demand::duty_cycle(0.25, 40);
        assert_eq!(d, Demand::DutyCycle { busy: 10, idle: 30 });
        assert!((d.isolated_usage() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn duty_cycle_clamps_extremes() {
        // Tiny usage still gets one busy tick.
        match Demand::duty_cycle(0.001, 40) {
            Demand::DutyCycle { busy, .. } => assert_eq!(busy, 1),
            other => panic!("{other:?}"),
        }
        // Full usage becomes CPU bound.
        assert_eq!(
            Demand::duty_cycle(1.0, 40),
            Demand::CpuBound { total_work: None }
        );
        // Near-full usage keeps one idle tick.
        match Demand::duty_cycle(0.999, 40) {
            Demand::DutyCycle { busy, idle } => {
                assert_eq!(busy, 39);
                assert_eq!(idle, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spawn_starts_runnable_with_quantum() {
        let spec = ProcSpec::synthetic_host("h", 0.5, 40);
        let p = Process::spawn(Pid(1), spec, 0);
        assert!(p.is_runnable());
        assert_eq!(p.counter, 6);
        assert_eq!(p.progress.busy_left, 20);
    }

    #[test]
    fn duty_cycle_lifecycle() {
        let spec = ProcSpec::synthetic_host("h", 0.5, 4); // busy 2, idle 2
        let mut p = Process::spawn(Pid(1), spec, 0);
        p.run_tick();
        assert!(p.is_runnable());
        p.run_tick();
        assert!(matches!(p.state, RunState::Sleeping { remaining: 2 }));
        p.sleep_tick(); // 2 -> 1
        p.sleep_tick(); // 1 -> 0
        assert!(!p.is_runnable(), "still sleeping through the final tick");
        p.sleep_tick(); // wake
        assert!(p.is_runnable());
        assert_eq!(p.progress.busy_left, 2);
        assert_eq!(p.cpu_ticks, 2);
    }

    #[test]
    fn cpu_bound_with_budget_exits() {
        let spec = ProcSpec::new(
            "g",
            ProcClass::Guest,
            0,
            Demand::CpuBound {
                total_work: Some(3),
            },
            MemSpec::tiny(),
        );
        let mut p = Process::spawn(Pid(1), spec, 0);
        p.run_tick();
        p.run_tick();
        assert!(!p.is_exited());
        p.run_tick();
        assert!(p.is_exited());
        assert_eq!(p.cpu_ticks, 3);
    }

    #[test]
    fn phases_run_in_sequence_then_exit() {
        let spec = ProcSpec::new(
            "compile",
            ProcClass::Host,
            0,
            Demand::Phases {
                phases: vec![Phase { busy: 1, idle: 1 }, Phase { busy: 2, idle: 0 }],
                repeat: false,
            },
            MemSpec::tiny(),
        );
        let mut p = Process::spawn(Pid(1), spec, 0);
        p.run_tick(); // phase 0 busy done -> sleep 1
        assert!(matches!(p.state, RunState::Sleeping { remaining: 1 }));
        p.sleep_tick(); // 1 -> 0
        p.sleep_tick(); // wake into phase 1
        assert!(p.is_runnable());
        p.run_tick();
        p.run_tick(); // phase 1 done, no idle, no repeat -> exit
        assert!(p.is_exited());
    }

    #[test]
    fn phases_repeat_loops() {
        let spec = ProcSpec::new(
            "loop",
            ProcClass::Host,
            0,
            Demand::Phases {
                phases: vec![Phase { busy: 1, idle: 1 }],
                repeat: true,
            },
            MemSpec::tiny(),
        );
        let mut p = Process::spawn(Pid(1), spec, 0);
        for _ in 0..10 {
            assert!(p.is_runnable());
            p.run_tick(); // busy 1 done -> sleep 1
            p.sleep_tick(); // 1 -> 0
            p.sleep_tick(); // wake
        }
        assert!(p.is_runnable());
    }

    #[test]
    fn suspend_preserves_sleep_timer() {
        let spec = ProcSpec::synthetic_host("h", 0.5, 4);
        let mut p = Process::spawn(Pid(1), spec, 0);
        p.run_tick();
        p.run_tick(); // now sleeping 2
        p.suspend();
        assert!(p.is_suspended());
        // Suspended: sleep timer frozen.
        p.sleep_tick();
        p.sleep_tick();
        assert!(p.is_suspended());
        p.resume();
        assert!(matches!(p.state, RunState::Sleeping { remaining: 2 }));
    }

    #[test]
    fn suspend_runnable_resumes_runnable() {
        let spec = ProcSpec::cpu_bound_guest("g", 19);
        let mut p = Process::spawn(Pid(1), spec, 0);
        p.suspend();
        assert!(!p.is_runnable());
        assert!(!p.occupies_memory());
        p.resume();
        assert!(p.is_runnable());
    }

    #[test]
    fn kill_is_terminal() {
        let spec = ProcSpec::cpu_bound_guest("g", 0);
        let mut p = Process::spawn(Pid(1), spec, 0);
        p.kill();
        assert!(p.is_exited());
        p.resume();
        assert!(p.is_exited());
        p.sleep_tick();
        assert!(p.is_exited());
    }

    #[test]
    fn isolated_usage_of_phases() {
        let d = Demand::Phases {
            phases: vec![Phase { busy: 3, idle: 1 }, Phase { busy: 1, idle: 3 }],
            repeat: true,
        };
        assert!((d.isolated_usage() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "nice out of range")]
    fn nice_range_enforced() {
        ProcSpec::new(
            "x",
            ProcClass::Host,
            21,
            Demand::CpuBound { total_work: None },
            MemSpec::tiny(),
        );
    }
}
