//! Guest-management policies — the design space of §3.2.2.
//!
//! The paper's policy is the product [`Detector`] itself: default
//! priority below `Th1`, nice 19 between the thresholds, suspend on a
//! spike above `Th2`, terminate when the spike persists. The paper
//! argues for it by elimination:
//!
//! * *gradually decreasing* the guest priority from 0 to 19 under heavy
//!   host load "does not achieve additional benefit ... it introduces
//!   redundancy to managing guest jobs at runtime";
//! * *always enforcing the lowest priority* "is too conservative" — the
//!   guest loses ~2% CPU it could have had under light host load;
//! * *terminating the guest whenever a host application starts* "makes
//!   it a coarse-grained cycle sharing system" (the SETI@home model).
//!
//! This module makes each of those alternatives executable beside the
//! detector so the argument can be reproduced quantitatively
//! (experiments X4/X5): every policy maps load observations to guest
//! actions, run by [`run_policy`] against a live simulated machine.
//! `PolicyAction::from_step` is the one translation of a detector step
//! into a guest action, shared with the live-sim
//! [`Controller`](crate::controller::Controller).

use fgcs_sim::machine::{Machine, MachineConfig};
use fgcs_sim::proc::{Pid, ProcSpec};
use fgcs_sim::time::secs;

use crate::contention::{isolated_host_load, machine_with, reduction_rate};
use crate::detector::{Detector, DetectorConfig, GuestAction, Step};
use crate::model::{AvailState, Thresholds};
use crate::monitor::{Monitor, Observation};

/// What a policy wants done to the guest after a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Leave the guest as is.
    Stay,
    /// Set the guest's nice value.
    SetNice(i8),
    /// SIGSTOP the guest.
    Suspend,
    /// SIGCONT the guest, first renicing it when a nice value is given
    /// (a spike that subsided into a different band than it began in).
    Resume(Option<i8>),
    /// Kill the guest.
    Terminate,
}

impl PolicyAction {
    /// The guest action a detector step demands. `before` is the
    /// detector's state before the step and `default_nice` the guest's
    /// own priority, which S1 restores; S2 demands nice 19. A spike that
    /// subsides into a different band resumes the guest at the priority
    /// of the band it subsided into.
    pub(crate) fn from_step(before: AvailState, step: &Step, default_nice: i8) -> PolicyAction {
        match step.action {
            None | Some(GuestAction::MachineAvailable) => PolicyAction::Stay,
            Some(GuestAction::RestoreDefaultPriority) => PolicyAction::SetNice(default_nice),
            Some(GuestAction::SetLowestPriority) => PolicyAction::SetNice(19),
            Some(GuestAction::Suspend) => PolicyAction::Suspend,
            Some(GuestAction::Resume) if step.state == before => PolicyAction::Resume(None),
            Some(GuestAction::Resume) if step.state == AvailState::S2 => {
                PolicyAction::Resume(Some(19))
            }
            Some(GuestAction::Resume) => PolicyAction::Resume(Some(default_nice)),
            Some(GuestAction::Terminate) => PolicyAction::Terminate,
        }
    }

    /// Applies the action to the guest `pid` on `m`. A guest that has
    /// already exited has nothing left to manage, so errors are dropped.
    pub(crate) fn apply(self, m: &mut Machine, pid: Pid) {
        let _ = match self {
            PolicyAction::Stay => Ok(()),
            PolicyAction::SetNice(n) => m.renice(pid, n),
            PolicyAction::Suspend => m.suspend(pid),
            PolicyAction::Resume(nice) => {
                if let Some(n) = nice {
                    let _ = m.renice(pid, n);
                }
                m.resume(pid)
            }
            PolicyAction::Terminate => m.kill(pid),
        };
    }
}

/// A guest-management policy: a function from observations to actions.
pub trait GuestPolicy {
    /// Short name for reports.
    fn name(&self) -> &'static str;
    /// Decides the action for the observation taken at time `t` (ticks).
    fn decide(&mut self, t: u64, obs: &Observation) -> PolicyAction;
}

/// The paper's two-threshold policy is the product detector, managing a
/// guest of default priority 0.
impl GuestPolicy for Detector {
    fn name(&self) -> &'static str {
        "two-threshold"
    }

    fn decide(&mut self, t: u64, obs: &Observation) -> PolicyAction {
        let before = self.state();
        let step = self.observe(t, obs);
        PolicyAction::from_step(before, &step, 0)
    }
}

/// The product detector ([`DetectorConfig::sim_default`], 1-minute spike
/// tolerance in ticks) with the given thresholds: the policy X4 and X5
/// measure.
pub fn two_threshold(thresholds: Thresholds) -> Detector {
    Detector::new(DetectorConfig {
        thresholds,
        ..DetectorConfig::sim_default()
    })
}

/// §3.2.2 alternative 1: gradually decrease the guest priority as host
/// load grows — nice tracks the load linearly between the thresholds.
#[derive(Debug, Clone)]
pub struct GradualPolicy {
    thresholds: Thresholds,
    nice: i8,
}

impl GradualPolicy {
    /// Creates the policy.
    pub fn new(thresholds: Thresholds) -> Self {
        GradualPolicy {
            thresholds,
            nice: 0,
        }
    }
}

impl GuestPolicy for GradualPolicy {
    fn name(&self) -> &'static str {
        "gradual"
    }

    fn decide(&mut self, _t: u64, obs: &Observation) -> PolicyAction {
        let Thresholds { th1, th2 } = self.thresholds;
        let frac = ((obs.host_load - th1) / (th2 - th1).max(1e-9)).clamp(0.0, 1.0);
        let want = (frac * 19.0).round() as i8;
        if want != self.nice {
            self.nice = want;
            PolicyAction::SetNice(want)
        } else {
            PolicyAction::Stay
        }
    }
}

/// §3.2.2 alternative 2 (the Entropia model): the guest always runs at
/// the lowest priority, no further management.
#[derive(Debug, Clone, Default)]
pub struct AlwaysLowestPolicy {
    set: bool,
}

impl GuestPolicy for AlwaysLowestPolicy {
    fn name(&self) -> &'static str {
        "always-lowest"
    }

    fn decide(&mut self, _t: u64, _obs: &Observation) -> PolicyAction {
        if self.set {
            PolicyAction::Stay
        } else {
            self.set = true;
            PolicyAction::SetNice(19)
        }
    }
}

/// The coarse-grained extreme (the SETI@home model): suspend the guest
/// whenever there is *any* noticeable host activity, resume only when
/// the machine is essentially idle.
#[derive(Debug, Clone)]
pub struct CoarseGrainedPolicy {
    /// Host load above which the guest is suspended.
    pub activity_threshold: f64,
    suspended: bool,
}

/// The policy with a 5% activity threshold.
impl Default for CoarseGrainedPolicy {
    fn default() -> Self {
        CoarseGrainedPolicy {
            activity_threshold: 0.05,
            suspended: false,
        }
    }
}

impl GuestPolicy for CoarseGrainedPolicy {
    fn name(&self) -> &'static str {
        "coarse-grained"
    }

    fn decide(&mut self, _t: u64, obs: &Observation) -> PolicyAction {
        if obs.host_load > self.activity_threshold && !self.suspended {
            self.suspended = true;
            PolicyAction::Suspend
        } else if obs.host_load <= self.activity_threshold && self.suspended {
            self.suspended = false;
            PolicyAction::Resume(None)
        } else {
            PolicyAction::Stay
        }
    }
}

/// Outcome of running one policy against one host workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyOutcome {
    /// Reduction rate of host CPU usage caused by the managed guest.
    pub host_reduction: f64,
    /// CPU usage the guest achieved.
    pub guest_usage: f64,
    /// Whether the guest was terminated by the policy.
    pub guest_terminated: bool,
    /// Renice/suspend/resume actions issued (management overhead).
    pub actions: u64,
}

/// Runs a policy-managed guest against a host workload and measures both
/// sides with [`crate::contention::measure_group`]'s protocol: the same
/// isolated baseline and reduction rate, then a managed run whose guest
/// the policy steers every `sample_period` ticks.
pub fn run_policy(
    machine_cfg: &MachineConfig,
    hosts: &[ProcSpec],
    policy: &mut dyn GuestPolicy,
    sample_period: u64,
    warmup_secs: u64,
    measure_secs: u64,
) -> PolicyOutcome {
    let lh_isolated = isolated_host_load(machine_cfg, hosts, warmup_secs, measure_secs);

    // Managed run.
    let mut m = machine_with(machine_cfg, hosts);
    let guest: Pid = m.spawn(ProcSpec::cpu_bound_guest("guest", 0));
    let mut monitor = Monitor::new();
    let mut actions = 0u64;
    let mut terminated = false;

    let mut next_sample = 0u64;
    let mut run_until = |m: &mut Machine, end: u64| {
        while m.now() < end {
            if m.now() >= next_sample {
                let obs = monitor.sample(m);
                if !terminated {
                    let action = policy.decide(m.now(), &obs);
                    if action != PolicyAction::Stay {
                        action.apply(m, guest);
                        terminated = action == PolicyAction::Terminate;
                        actions += 1;
                    }
                }
                next_sample = m.now() + sample_period;
            }
            // Batched up to the next sample or the end (tick-exact
            // against `step()`).
            m.run_ticks(next_sample.max(m.now() + 1).min(end) - m.now());
        }
    };
    run_until(&mut m, secs(warmup_secs));
    let before = m.accounting();
    run_until(&mut m, secs(warmup_secs + measure_secs));
    let acct = m.accounting().since(&before);
    PolicyOutcome {
        host_reduction: reduction_rate(lh_isolated, acct.host_load()),
        guest_usage: acct.guest_load(),
        guest_terminated: terminated,
        actions,
    }
}

/// The standard policy lineup for comparisons.
pub fn standard_policies(thresholds: Thresholds) -> Vec<Box<dyn GuestPolicy>> {
    vec![
        Box::new(two_threshold(thresholds)),
        Box::new(GradualPolicy::new(thresholds)),
        Box::new(AlwaysLowestPolicy::default()),
        Box::new(CoarseGrainedPolicy::default()),
    ]
}

/// Hosts asleep for 6 s, then two 2 s CPU bursts beside a steady 40%
/// host: a spike out of S1 that subsides, within the spike tolerance,
/// into S2.
#[cfg(test)]
pub(crate) fn spike_into_s2_hosts() -> Vec<ProcSpec> {
    use fgcs_sim::proc::{Demand, MemSpec, Phase, ProcClass};
    let sleep = Phase {
        busy: 1,
        idle: secs(6),
    };
    let burst = Phase {
        busy: secs(2),
        idle: 1,
    };
    let steady = [Phase { busy: 28, idle: 42 }; 300];
    [
        vec![sleep, burst],
        vec![sleep, burst],
        [&[sleep][..], &steady].concat(),
    ]
    .into_iter()
    .map(|phases| {
        let demand = Demand::Phases {
            phases,
            repeat: false,
        };
        ProcSpec::new("h", ProcClass::Host, 0, demand, MemSpec::tiny())
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NOTICEABLE_SLOWDOWN;
    use fgcs_sim::workloads::synthetic;

    fn obs(load: f64) -> Observation {
        Observation {
            host_load: load,
            free_mem_mb: 900,
            alive: true,
        }
    }

    /// `run_policy` on the default machine, sampled every 2 s.
    fn run(
        hosts: &[ProcSpec],
        policy: &mut dyn GuestPolicy,
        warmup: u64,
        measure: u64,
    ) -> PolicyOutcome {
        run_policy(
            &MachineConfig::default(),
            hosts,
            policy,
            secs(2),
            warmup,
            measure,
        )
    }

    /// The §3.2 mapping of the shipped policy: the product detector at
    /// its 1-minute spike tolerance, sampled every 2 s.
    #[test]
    fn two_threshold_decision_table() {
        use PolicyAction::*;
        let mut p = two_threshold(Thresholds::LINUX_TESTBED);
        let table = [
            (0, 0.1, Stay), // S1, already nice 0
            (2, 0.4, SetNice(19)),
            (4, 0.4, Stay),
            (6, 0.9, Suspend),
            (8, 0.9, Stay),          // within tolerance
            (10, 0.3, Resume(None)), // back into S2, still nice 19
            (12, 0.9, Suspend),
            (14, 0.1, Resume(Some(0))), // subsides into S1
            (16, 0.9, Suspend),
            (18, 0.4, Resume(Some(19))), // subsides into Heavy: S2
            (20, 0.4, Stay),
            (22, 0.9, Suspend),
            (80, 0.9, Stay),
            (82, 0.9, Terminate), // the spike outlived the minute
        ];
        for (t, load, want) in table {
            assert_eq!(p.decide(secs(t), &obs(load)), want, "t = {t} s");
        }
    }

    #[test]
    fn gradual_tracks_load() {
        let mut p = GradualPolicy::new(Thresholds::LINUX_TESTBED);
        assert_eq!(p.decide(0, &obs(0.1)), PolicyAction::Stay); // nice stays 0
        assert_eq!(p.decide(1, &obs(0.4)), PolicyAction::SetNice(10));
        assert_eq!(p.decide(2, &obs(0.4)), PolicyAction::Stay);
        assert_eq!(p.decide(3, &obs(0.9)), PolicyAction::SetNice(19));
        assert_eq!(p.decide(4, &obs(0.05)), PolicyAction::SetNice(0));
    }

    #[test]
    fn always_lowest_sets_once() {
        let mut p = AlwaysLowestPolicy::default();
        assert_eq!(p.decide(0, &obs(0.0)), PolicyAction::SetNice(19));
        assert_eq!(p.decide(1, &obs(0.9)), PolicyAction::Stay);
    }

    #[test]
    fn coarse_grained_toggles_on_any_activity() {
        let mut p = CoarseGrainedPolicy::default();
        assert_eq!(p.decide(0, &obs(0.3)), PolicyAction::Suspend);
        assert_eq!(p.decide(1, &obs(0.3)), PolicyAction::Stay);
        assert_eq!(p.decide(2, &obs(0.01)), PolicyAction::Resume(None));
        assert_eq!(p.decide(3, &obs(0.01)), PolicyAction::Stay);
    }

    #[test]
    fn run_policy_measures_both_sides() {
        let hosts = [synthetic::host_process("h", 0.3)];
        let mut policy = AlwaysLowestPolicy::default();
        let out = run(&hosts, &mut policy, 5, 60);
        assert!(out.host_reduction < 0.05, "{out:?}");
        assert!(out.guest_usage > 0.5, "{out:?}");
        assert!(!out.guest_terminated);
    }

    #[test]
    fn coarse_grained_wastes_the_machine() {
        // Under a 30% host workload the coarse-grained policy keeps the
        // guest suspended almost always, harvesting nearly nothing.
        let hosts = [synthetic::host_process("h", 0.3)];
        let mut coarse = CoarseGrainedPolicy::default();
        let coarse_out = run(&hosts, &mut coarse, 5, 60);
        let mut fine = two_threshold(Thresholds::LINUX_TESTBED);
        let fine_out = run(&hosts, &mut fine, 5, 60);
        assert!(
            fine_out.guest_usage > coarse_out.guest_usage + 0.2,
            "fine {fine_out:?} coarse {coarse_out:?}"
        );
    }

    /// The controller's resume-into-S2 case through `run_policy`: the
    /// guest resumes at nice 19, sparing the host as a static nice-19
    /// guest would (at nice 0 the host loses ~20%).
    #[test]
    fn two_threshold_resumes_into_s2_at_nice_19() {
        let mut policy = two_threshold(Thresholds::LINUX_TESTBED);
        let hosts = spike_into_s2_hosts();
        let out = run(&hosts, &mut policy, 20, 60);
        assert_eq!(policy.state(), AvailState::S2);
        assert!(!out.guest_terminated, "{out:?}");
        assert_eq!(out.actions, 2, "suspend, then resume at nice 19: {out:?}");
        assert!(out.host_reduction < NOTICEABLE_SLOWDOWN, "{out:?}");
    }

    #[test]
    fn two_threshold_terminates_under_sustained_overload() {
        let hosts = [synthetic::host_process("h", 0.9)];
        let mut policy = two_threshold(Thresholds::LINUX_TESTBED);
        let out = run(&hosts, &mut policy, 5, 120);
        assert!(out.guest_terminated, "{out:?}");
        assert!(out.host_reduction < 0.1, "{out:?}");
    }
}
