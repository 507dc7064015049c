//! Guest-management policies — the design space of §3.2.2.
//!
//! The paper argues for the two-threshold policy by elimination:
//!
//! * *gradually decreasing* the guest priority from 0 to 19 under heavy
//!   host load "does not achieve additional benefit ... it introduces
//!   redundancy to managing guest jobs at runtime";
//! * *always enforcing the lowest priority* "is too conservative" — the
//!   guest loses ~2% CPU it could have had under light host load;
//! * *terminating the guest whenever a host application starts* "makes
//!   it a coarse-grained cycle sharing system" (the SETI@home model).
//!
//! This module makes each of those alternatives executable so the
//! argument can be reproduced quantitatively (experiment X4/X5): every
//! policy is a small state machine from load observations to guest
//! actions, run by [`run_policy`] against a live simulated machine.

use fgcs_sim::machine::{Machine, MachineConfig};
use fgcs_sim::proc::{Pid, ProcSpec};
use fgcs_sim::time::secs;

use crate::model::Thresholds;
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
    /// SIGCONT the guest.
    Resume,
    /// Kill the guest.
    Terminate,
}

/// A guest-management policy: a function from observations to actions.
pub trait GuestPolicy {
    /// Short name for reports.
    fn name(&self) -> &'static str;
    /// Decides the action for the observation taken at time `t` (ticks).
    fn decide(&mut self, t: u64, obs: &Observation) -> PolicyAction;
}

/// The paper's policy: default priority below `Th1`, nice 19 between
/// the thresholds, suspend on transient spikes, terminate when the
/// spike persists. (A thin, detector-free re-statement used for policy
/// comparisons; the production path is [`crate::detector`].)
#[derive(Debug, Clone)]
pub struct TwoThresholdPolicy {
    thresholds: Thresholds,
    spike_tolerance: u64,
    spike_since: Option<u64>,
    suspended: bool,
    nice: i8,
}

impl TwoThresholdPolicy {
    /// Creates the policy with a spike tolerance in ticks.
    pub fn new(thresholds: Thresholds, spike_tolerance: u64) -> Self {
        TwoThresholdPolicy {
            thresholds,
            spike_tolerance,
            spike_since: None,
            suspended: false,
            nice: 0,
        }
    }
}

impl GuestPolicy for TwoThresholdPolicy {
    fn name(&self) -> &'static str {
        "two-threshold"
    }

    fn decide(&mut self, t: u64, obs: &Observation) -> PolicyAction {
        use crate::model::LoadBand::*;
        match self.thresholds.classify(obs.host_load) {
            Excessive => match self.spike_since {
                None => {
                    self.spike_since = Some(t);
                    self.suspended = true;
                    PolicyAction::Suspend
                }
                Some(s0) if t.saturating_sub(s0) >= self.spike_tolerance => PolicyAction::Terminate,
                Some(_) => PolicyAction::Stay,
            },
            band => {
                if self.suspended {
                    self.suspended = false;
                    self.spike_since = None;
                    return PolicyAction::Resume;
                }
                self.spike_since = None;
                let want = if band == Light { 0 } else { 19 };
                if want != self.nice {
                    self.nice = want;
                    PolicyAction::SetNice(want)
                } else {
                    PolicyAction::Stay
                }
            }
        }
    }
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

impl CoarseGrainedPolicy {
    /// Creates the policy with a 5% activity threshold.
    pub fn new() -> Self {
        CoarseGrainedPolicy {
            activity_threshold: 0.05,
            suspended: false,
        }
    }
}

impl Default for CoarseGrainedPolicy {
    fn default() -> Self {
        CoarseGrainedPolicy::new()
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
            PolicyAction::Resume
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
/// sides, mirroring [`crate::contention::measure_group`]'s protocol
/// (isolated baseline first, then the managed run).
pub fn run_policy(
    machine_cfg: &MachineConfig,
    hosts: &[ProcSpec],
    policy: &mut dyn GuestPolicy,
    sample_period: u64,
    warmup_secs: u64,
    measure_secs: u64,
) -> PolicyOutcome {
    // Isolated baseline.
    let mut alone = Machine::new(machine_cfg.clone());
    for h in hosts {
        alone.spawn(h.clone());
    }
    alone.run_ticks(secs(warmup_secs));
    let iso = alone.measure(secs(measure_secs));

    // Managed run.
    let mut m = Machine::new(machine_cfg.clone());
    for h in hosts {
        m.spawn(h.clone());
    }
    let guest: Pid = m.spawn(ProcSpec::cpu_bound_guest("guest", 0));
    let mut monitor = Monitor::new();
    let mut actions = 0u64;
    let mut terminated = false;

    let warmup = secs(warmup_secs);
    let total_ticks = secs(warmup_secs + measure_secs);
    let mut before = None;
    let mut next_sample = 0u64;
    while m.now() < total_ticks {
        if m.now() >= next_sample {
            let obs = monitor.sample(&m);
            if !terminated {
                match policy.decide(m.now(), &obs) {
                    PolicyAction::Stay => {}
                    PolicyAction::SetNice(n) => {
                        let _ = m.renice(guest, n);
                        actions += 1;
                    }
                    PolicyAction::Suspend => {
                        let _ = m.suspend(guest);
                        actions += 1;
                    }
                    PolicyAction::Resume => {
                        let _ = m.resume(guest);
                        actions += 1;
                    }
                    PolicyAction::Terminate => {
                        let _ = m.kill(guest);
                        terminated = true;
                        actions += 1;
                    }
                }
            }
            next_sample = m.now() + sample_period;
        }
        if m.now() == warmup {
            before = Some(m.accounting());
        }
        // Batched up to the next point anything is read: a sample, the
        // warm-up snapshot, or the end (tick-exact against `step()`).
        let mut horizon = next_sample.max(m.now() + 1).min(total_ticks);
        if m.now() < warmup {
            horizon = horizon.min(warmup);
        }
        m.run_ticks(horizon - m.now());
    }
    let acct = m.accounting().since(&before.unwrap_or_default());
    let lh_isolated = iso.host_load();
    let lh_managed = acct.host_load();
    PolicyOutcome {
        host_reduction: if lh_isolated > 0.0 {
            ((lh_isolated - lh_managed) / lh_isolated).max(0.0)
        } else {
            0.0
        },
        guest_usage: acct.guest_load(),
        guest_terminated: terminated,
        actions,
    }
}

/// The standard policy lineup for comparisons.
pub fn standard_policies(thresholds: Thresholds) -> Vec<Box<dyn GuestPolicy>> {
    vec![
        Box::new(TwoThresholdPolicy::new(
            thresholds,
            fgcs_sim::time::minutes(1),
        )),
        Box::new(GradualPolicy::new(thresholds)),
        Box::new(AlwaysLowestPolicy::default()),
        Box::new(CoarseGrainedPolicy::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_sim::workloads::synthetic;

    fn obs(load: f64) -> Observation {
        Observation {
            host_load: load,
            free_mem_mb: 900,
            alive: true,
        }
    }

    #[test]
    fn two_threshold_decision_table() {
        let mut p = TwoThresholdPolicy::new(Thresholds::LINUX_TESTBED, 600);
        assert_eq!(p.decide(0, &obs(0.1)), PolicyAction::Stay); // already nice 0
        assert_eq!(p.decide(10, &obs(0.4)), PolicyAction::SetNice(19));
        assert_eq!(p.decide(20, &obs(0.4)), PolicyAction::Stay);
        assert_eq!(p.decide(30, &obs(0.9)), PolicyAction::Suspend);
        assert_eq!(p.decide(40, &obs(0.9)), PolicyAction::Stay); // within tolerance
        assert_eq!(p.decide(50, &obs(0.3)), PolicyAction::Resume);
        assert_eq!(p.decide(60, &obs(0.9)), PolicyAction::Suspend);
        assert_eq!(p.decide(700, &obs(0.9)), PolicyAction::Terminate);
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
        let mut p = CoarseGrainedPolicy::new();
        assert_eq!(p.decide(0, &obs(0.3)), PolicyAction::Suspend);
        assert_eq!(p.decide(1, &obs(0.3)), PolicyAction::Stay);
        assert_eq!(p.decide(2, &obs(0.01)), PolicyAction::Resume);
        assert_eq!(p.decide(3, &obs(0.01)), PolicyAction::Stay);
    }

    #[test]
    fn run_policy_measures_both_sides() {
        let hosts = [synthetic::host_process("h", 0.3)];
        let mut policy = AlwaysLowestPolicy::default();
        let out = run_policy(
            &MachineConfig::default(),
            &hosts,
            &mut policy,
            secs(2),
            5,
            60,
        );
        assert!(out.host_reduction < 0.05, "{out:?}");
        assert!(out.guest_usage > 0.5, "{out:?}");
        assert!(!out.guest_terminated);
    }

    #[test]
    fn coarse_grained_wastes_the_machine() {
        // Under a 30% host workload the coarse-grained policy keeps the
        // guest suspended almost always, harvesting nearly nothing.
        let hosts = [synthetic::host_process("h", 0.3)];
        let mut coarse = CoarseGrainedPolicy::new();
        let coarse_out = run_policy(
            &MachineConfig::default(),
            &hosts,
            &mut coarse,
            secs(2),
            5,
            60,
        );
        let mut fine = TwoThresholdPolicy::new(Thresholds::LINUX_TESTBED, secs(60));
        let fine_out = run_policy(&MachineConfig::default(), &hosts, &mut fine, secs(2), 5, 60);
        assert!(
            fine_out.guest_usage > coarse_out.guest_usage + 0.2,
            "fine {fine_out:?} coarse {coarse_out:?}"
        );
    }

    #[test]
    fn two_threshold_terminates_under_sustained_overload() {
        let hosts = [synthetic::host_process("h", 0.9)];
        let mut policy = TwoThresholdPolicy::new(Thresholds::LINUX_TESTBED, secs(60));
        let out = run_policy(
            &MachineConfig::default(),
            &hosts,
            &mut policy,
            secs(2),
            5,
            120,
        );
        assert!(out.guest_terminated, "{out:?}");
        assert!(out.host_reduction < 0.1, "{out:?}");
    }
}
