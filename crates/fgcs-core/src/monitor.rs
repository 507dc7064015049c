//! The non-intrusive resource monitor.
//!
//! On every published iShare machine "there is a resource monitor
//! measuring CPU and memory usage of host processes periodically ...
//! \[using\] lightweight system utilities, such as `vmstat` and `prstat`"
//! (§5). This module is that monitor: it reads cumulative CPU counters
//! from a [`ResourceProbe`] (the simulator's accounting, standing in for
//! `/proc/stat`), diffs them across its sampling period, and emits
//! [`Observation`]s — host load, free memory, service liveness — the
//! detector consumes.
//!
//! Everything here is *observable without privileges on the host*: no
//! per-host-process instrumentation, no knowledge of contention-free
//! performance, exactly the paper's constraint.

/// What a machine exposes to the monitor — the `vmstat`/`prstat` surface.
pub trait ResourceProbe {
    /// Cumulative (host+system CPU ticks, total ticks) since boot.
    fn cpu_counters(&self) -> (u64, u64);
    /// Memory currently available for a guest working set, in MB.
    fn free_mem_for_guest_mb(&self) -> u32;
    /// Whether the FGCS service still responds. `false` means the
    /// machine was revoked or crashed (URR): "its termination indicates
    /// resource revocation".
    fn service_alive(&self) -> bool;
}

impl ResourceProbe for fgcs_sim::Machine {
    fn cpu_counters(&self) -> (u64, u64) {
        let a = self.accounting();
        (a.host + a.system, a.total())
    }

    fn free_mem_for_guest_mb(&self) -> u32 {
        self.free_mem_for_guest_mb()
    }

    fn service_alive(&self) -> bool {
        // Plumbed through from the simulator's revocation state
        // (`Machine::revoke`), so S5 is detectable from the probe itself
        // rather than only from synthetic lab downtime.
        self.service_alive()
    }
}

/// One monitor sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Host CPU load over the last sampling period, in `[0, 1]`.
    pub host_load: f64,
    /// Memory available to a guest working set, MB.
    pub free_mem_mb: u32,
    /// FGCS service liveness.
    pub alive: bool,
}

impl Observation {
    /// An observation representing a dead machine (URR): no service, no
    /// meaningful load reading.
    pub fn dead() -> Self {
        Observation {
            host_load: 0.0,
            free_mem_mb: 0,
            alive: false,
        }
    }

    /// One recorded sample as the detector sees it: the load and free
    /// guest memory if the machine answered, [`Observation::dead`] if
    /// it did not.
    #[inline]
    pub fn sampled(alive: bool, host_load: f64, free_mem_mb: u32) -> Self {
        if alive {
            Observation {
                host_load,
                free_mem_mb,
                alive,
            }
        } else {
            Observation::dead()
        }
    }
}

/// Periodic sampler turning probe counter reads into [`Observation`]s.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    last: Option<(u64, u64)>,
    resets: u64,
}

impl Monitor {
    /// Creates a monitor with no sample history.
    pub fn new() -> Self {
        Monitor {
            last: None,
            resets: 0,
        }
    }

    /// Takes one sample. The first call establishes the counter baseline
    /// and reports the load as 0 over an empty window; subsequent calls
    /// report utilization since the previous call.
    ///
    /// Cumulative counters on a real machine are not monotone across the
    /// monitor's lifetime: a host reboot or a monitor-daemon restart
    /// resets them to zero, and a counter wrap or torn read can yield a
    /// busy diff larger than the total diff. A naive diff then reports
    /// garbage (a negative busy span underflows `u64` to a huge load).
    /// Any such inconsistent window is treated as a counter reset: the
    /// baseline is re-established from the new reading and the window's
    /// load is reported as 0, exactly like the very first sample.
    pub fn sample<P: ResourceProbe>(&mut self, probe: &P) -> Observation {
        if !probe.service_alive() {
            // Counter baselines are meaningless across a machine death.
            self.last = None;
            return Observation::dead();
        }
        let (busy, total) = probe.cpu_counters();
        let host_load = match self.last {
            Some((b0, t0)) if total > t0 && busy >= b0 && busy - b0 <= total - t0 => {
                (busy - b0) as f64 / (total - t0) as f64
            }
            Some((b0, t0)) if total < t0 || busy < b0 || busy - b0 > total - t0 => {
                // Counters went backwards (or busy outran total): the
                // machine or monitor restarted between samples.
                self.resets += 1;
                0.0
            }
            _ => 0.0, // first sample, or an empty window (total == t0)
        };
        self.last = Some((busy, total));
        Observation {
            host_load: host_load.clamp(0.0, 1.0),
            free_mem_mb: probe.free_mem_for_guest_mb(),
            alive: true,
        }
    }

    /// How many counter resets / inconsistent windows this monitor has
    /// detected and absorbed.
    pub fn reset_count(&self) -> u64 {
        self.resets
    }

    /// Forgets the counter baseline (e.g. after the monitor restarts).
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// Captures the monitor's complete state for checkpointing. A
    /// monitor restored from the snapshot continues diffing counter
    /// streams from the same baseline, so a process restart does not
    /// masquerade as a counter reset.
    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            last: self.last,
            resets: self.resets,
        }
    }

    /// Rebuilds a monitor from a [`Monitor::snapshot`].
    pub fn restore(snap: MonitorSnapshot) -> Monitor {
        Monitor {
            last: snap.last,
            resets: snap.resets,
        }
    }
}

/// Serializable view of a [`Monitor`]'s state (see [`Monitor::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorSnapshot {
    /// The counter baseline `(busy, total)` of the last consistent
    /// sample, if any.
    pub last: Option<(u64, u64)>,
    /// Counter resets absorbed so far.
    pub resets: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeProbe {
        busy: u64,
        total: u64,
        mem: u32,
        alive: bool,
    }

    impl ResourceProbe for FakeProbe {
        fn cpu_counters(&self) -> (u64, u64) {
            (self.busy, self.total)
        }
        fn free_mem_for_guest_mb(&self) -> u32 {
            self.mem
        }
        fn service_alive(&self) -> bool {
            self.alive
        }
    }

    #[test]
    fn first_sample_establishes_baseline() {
        let mut m = Monitor::new();
        let p = FakeProbe {
            busy: 100,
            total: 1000,
            mem: 512,
            alive: true,
        };
        let o = m.sample(&p);
        assert_eq!(o.host_load, 0.0);
        assert_eq!(o.free_mem_mb, 512);
        assert!(o.alive);
    }

    #[test]
    fn diff_computes_window_load() {
        let mut m = Monitor::new();
        let mut p = FakeProbe {
            busy: 0,
            total: 0,
            mem: 512,
            alive: true,
        };
        m.sample(&p);
        p.busy = 30;
        p.total = 100;
        let o = m.sample(&p);
        assert!((o.host_load - 0.3).abs() < 1e-12);
        p.busy = 30; // idle window
        p.total = 200;
        let o = m.sample(&p);
        assert_eq!(o.host_load, 0.0);
    }

    #[test]
    fn dead_service_reports_urr_and_resets() {
        let mut m = Monitor::new();
        let mut p = FakeProbe {
            busy: 0,
            total: 0,
            mem: 512,
            alive: true,
        };
        m.sample(&p);
        p.alive = false;
        let o = m.sample(&p);
        assert!(!o.alive);
        // After reboot the baseline is re-established, not diffed across
        // the outage.
        p.alive = true;
        p.busy = 1_000_000;
        p.total = 1_000_000;
        let o = m.sample(&p);
        assert_eq!(o.host_load, 0.0, "no diff across a death");
    }

    #[test]
    fn stalled_counters_report_zero() {
        let mut m = Monitor::new();
        let p = FakeProbe {
            busy: 5,
            total: 10,
            mem: 1,
            alive: true,
        };
        m.sample(&p);
        let o = m.sample(&p); // identical counters: empty window
        assert_eq!(o.host_load, 0.0);
    }

    #[test]
    fn counter_reset_rebaselines_instead_of_garbage() {
        let mut m = Monitor::new();
        let mut p = FakeProbe {
            busy: 500_000,
            total: 1_000_000,
            mem: 512,
            alive: true,
        };
        m.sample(&p);
        // Monitor restart: counters restart from (near) zero. total < t0,
        // so the old code already re-baselined — but busy-in-between
        // states must not underflow either.
        p.busy = 10;
        p.total = 100;
        let o = m.sample(&p);
        assert_eq!(o.host_load, 0.0, "reset window reports no load");
        assert_eq!(m.reset_count(), 1);
        // After re-baselining, diffs work again.
        p.busy = 40;
        p.total = 200;
        let o = m.sample(&p);
        assert!((o.host_load - 0.3).abs() < 1e-12);
        assert_eq!(m.reset_count(), 1);
    }

    #[test]
    fn negative_busy_diff_with_advancing_total_is_a_reset() {
        // The garbage case: total advanced past the baseline but busy
        // went backwards (partial reset / torn read). The naive diff
        // underflowed u64 and clamped to a 100% load spike.
        let mut m = Monitor::new();
        let mut p = FakeProbe {
            busy: 900,
            total: 1_000,
            mem: 512,
            alive: true,
        };
        m.sample(&p);
        p.busy = 100; // busy < b0 ...
        p.total = 2_000; // ... but total > t0
        let o = m.sample(&p);
        assert_eq!(
            o.host_load, 0.0,
            "inconsistent window must not fake a spike"
        );
        assert_eq!(m.reset_count(), 1);
    }

    #[test]
    fn busy_outrunning_total_is_a_reset() {
        let mut m = Monitor::new();
        let mut p = FakeProbe {
            busy: 0,
            total: 1_000,
            mem: 512,
            alive: true,
        };
        m.sample(&p);
        p.busy = 5_000; // busy diff 5000 > total diff 1000
        p.total = 2_000;
        let o = m.sample(&p);
        assert_eq!(o.host_load, 0.0);
        assert_eq!(m.reset_count(), 1);
    }

    #[test]
    fn revoked_machine_probe_reports_dead() {
        use fgcs_sim::Machine;
        let mut machine = Machine::default_linux();
        let mut mon = Monitor::new();
        assert!(mon.sample(&machine).alive);
        machine.revoke();
        let o = mon.sample(&machine);
        assert_eq!(
            o,
            Observation::dead(),
            "revocation is visible from the probe"
        );
        machine.restore_service();
        assert!(mon.sample(&machine).alive);
    }

    #[test]
    fn snapshot_restore_keeps_baseline_and_reset_count() {
        let mut m = Monitor::new();
        let mut p = FakeProbe {
            busy: 500_000,
            total: 1_000_000,
            mem: 512,
            alive: true,
        };
        m.sample(&p);
        p.busy = 10; // counter reset absorbed pre-snapshot
        p.total = 100;
        m.sample(&p);
        let mut restored = Monitor::restore(m.snapshot());
        // The restored monitor diffs from the persisted baseline (10, 100)
        // rather than re-establishing one (which would report 0).
        p.busy = 40;
        p.total = 200;
        let o = restored.sample(&p);
        assert!((o.host_load - 0.3).abs() < 1e-12, "load {}", o.host_load);
        assert_eq!(restored.reset_count(), 1, "reset count survives");
        assert_eq!(m.sample(&p).host_load, o.host_load, "matches original");
    }

    #[test]
    fn machine_probe_integration() {
        use fgcs_sim::{Machine, ProcSpec};
        let mut machine = Machine::default_linux();
        machine.spawn(ProcSpec::synthetic_host("h", 0.4, 40));
        let mut mon = Monitor::new();
        mon.sample(&machine);
        machine.run_ticks(fgcs_sim::time::secs(30));
        let o = mon.sample(&machine);
        assert!((o.host_load - 0.4).abs() < 0.05, "load {}", o.host_load);
        assert!(o.alive);
        assert!(o.free_mem_mb > 0);
    }
}
