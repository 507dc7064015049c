//! Deterministic fault injection for the FGCS measurement stack.
//!
//! The paper's three-month Purdue deployment (§5) ran on real machines:
//! monitors crashed and restarted, samples were lost or delivered late,
//! cumulative CPU counters reset to zero mid-trace, clocks jumped, and
//! log files ended up with truncated or garbled lines. The reproduction's
//! monitor → detector → trace → analysis pipeline, by contrast, was built
//! on a perfect observation stream — so nothing downstream had ever been
//! exercised against the failure modes the original testbed actually saw.
//!
//! This crate injects exactly those failure modes, deterministically from
//! a seed, so the hardened consumers can be tested and the §5 results can
//! be re-derived under increasing measurement noise:
//!
//! * [`FaultConfig`] — one knob per failure mode, all zero by default
//!   (the identity injection);
//! * [`injector::Injector`] — applies drops, duplicates, delayed
//!   (out-of-order) delivery, monitor restarts (a contiguous outage of
//!   lost samples) and persistent clock jumps to a time-stamped sample
//!   stream, one pushed sample at a time. Each mode counts down the
//!   trials left before its next fault, so a fault-free stretch passes
//!   in O(1); [`injector::FaultStream`] is its iterator adapter over
//!   any such stream;
//! * [`injector::CrashPlan`] — Poisson schedule of tracing-task crashes
//!   for the testbed supervisor to recover from;
//! * [`injector::FaultyProbe`] — wraps a [`fgcs_core::monitor::ResourceProbe`]
//!   and resets its cumulative CPU counters to zero at monitor restarts,
//!   the failure the monitor must detect instead of emitting garbage;
//! * [`corrupt`] — byte-level corruption of serialized JSONL/CSV traces
//!   (flipped bytes, truncated lines, deleted lines, inserted garbage).
//!
//! Everything is a pure function of `(FaultConfig::seed, machine_id)`:
//! two runs with the same configuration inject byte-identical faults, so
//! experiments are reproducible and failures shrink to a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;
pub mod injector;

pub use corrupt::{corrupt_text, CorruptionReport, FrameCorruptor};
pub use injector::{CrashPlan, FaultStream, FaultyProbe, Injector, Timestamped};

/// Fault rates for one injection run. All rates are probabilities per
/// underlying sample (or per line, for corruption) in `[0, 1]`; the
/// default is all-zero, which injects nothing and reproduces the clean
/// pipeline bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Master seed; machine `i` derives its own independent stream.
    pub seed: u64,
    /// Probability a sample is silently lost.
    pub drop_rate: f64,
    /// Probability a sample is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a sample is delayed and arrives out of order.
    pub delay_rate: f64,
    /// Maximum delay, in delivered-sample slots (a delayed sample is
    /// re-inserted after 1..=this many later samples).
    pub max_delay_slots: u32,
    /// Probability, per sample, that the monitor restarts: the next
    /// [`FaultConfig::restart_outage_samples`] samples are lost and any
    /// cumulative counters the monitor kept reset to zero.
    pub restart_rate: f64,
    /// How many consecutive samples a monitor restart swallows.
    pub restart_outage_samples: u32,
    /// Probability, per sample, that the machine clock jumps. The jump
    /// is persistent (skew): every later timestamp keeps the offset.
    pub clock_jump_rate: f64,
    /// Maximum magnitude of one clock jump, seconds (drawn uniformly in
    /// `[-max, +max]`).
    pub clock_jump_max_secs: u64,
    /// Tracing-task crashes per machine-day (Poisson), handled by the
    /// testbed supervisor with capped exponential backoff.
    pub crash_rate_per_day: f64,
    /// Probability a serialized trace line is corrupted on disk.
    pub corrupt_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off(0)
    }
}

impl FaultConfig {
    /// The identity injection: nothing is dropped, delayed, reset,
    /// jumped, crashed or corrupted.
    pub fn off(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            max_delay_slots: 4,
            restart_rate: 0.0,
            restart_outage_samples: 8,
            clock_jump_rate: 0.0,
            clock_jump_max_secs: 120,
            crash_rate_per_day: 0.0,
            corrupt_rate: 0.0,
        }
    }

    /// A representative noisy monitoring fleet: roughly one lost sample
    /// in 200, occasional duplicates and late deliveries, a monitor
    /// restart every few hours, a clock jump a day, a tracer crash every
    /// couple of weeks and one corrupt line in 500.
    pub fn noisy(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_rate: 0.005,
            duplicate_rate: 0.002,
            delay_rate: 0.002,
            max_delay_slots: 4,
            restart_rate: 0.0005,
            restart_outage_samples: 8,
            clock_jump_rate: 0.0002,
            clock_jump_max_secs: 120,
            crash_rate_per_day: 0.08,
            corrupt_rate: 0.002,
        }
    }

    /// Scales every rate by `factor` (clamped to `[0, 1]`), keeping the
    /// structural knobs (outage length, delay slots, jump magnitude)
    /// fixed. `scaled(0.0)` is the identity injection.
    pub fn scaled(&self, factor: f64) -> Self {
        let s = |r: f64| (r * factor).clamp(0.0, 1.0);
        FaultConfig {
            seed: self.seed,
            drop_rate: s(self.drop_rate),
            duplicate_rate: s(self.duplicate_rate),
            delay_rate: s(self.delay_rate),
            max_delay_slots: self.max_delay_slots,
            restart_rate: s(self.restart_rate),
            restart_outage_samples: self.restart_outage_samples,
            clock_jump_rate: s(self.clock_jump_rate),
            clock_jump_max_secs: self.clock_jump_max_secs,
            crash_rate_per_day: (self.crash_rate_per_day * factor).max(0.0),
            corrupt_rate: s(self.corrupt_rate),
        }
    }
}

/// What one injection run actually did — the ground truth the hardened
/// consumers' quality reports are checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionStats {
    /// Samples silently dropped.
    pub dropped: u64,
    /// Samples delivered twice.
    pub duplicated: u64,
    /// Samples delivered late (out of order).
    pub delayed: u64,
    /// Monitor restarts injected.
    pub restarts: u64,
    /// Samples swallowed by monitor-restart outages.
    pub lost_in_restart: u64,
    /// Persistent clock jumps applied.
    pub clock_jumps: u64,
    /// Serialized lines corrupted.
    pub corrupted_lines: u64,
}

impl InjectionStats {
    /// Component-wise sum, for fleet-wide totals.
    pub fn merge(&mut self, other: &InjectionStats) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.restarts += other.restarts;
        self.lost_in_restart += other.lost_in_restart;
        self.clock_jumps += other.clock_jumps;
        self.corrupted_lines += other.corrupted_lines;
    }

    /// Total number of injected fault events of any kind.
    pub fn total_events(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.delayed
            + self.restarts
            + self.clock_jumps
            + self.corrupted_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_clamps() {
        let c = FaultConfig::noisy(1).scaled(1e6);
        assert!(c.drop_rate <= 1.0 && c.corrupt_rate <= 1.0);
        assert_eq!(c.max_delay_slots, FaultConfig::noisy(1).max_delay_slots);
    }

    #[test]
    fn stats_merge_adds() {
        let mut a = InjectionStats {
            dropped: 1,
            duplicated: 2,
            ..Default::default()
        };
        let b = InjectionStats {
            dropped: 10,
            clock_jumps: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.dropped, 11);
        assert_eq!(a.duplicated, 2);
        assert_eq!(a.clock_jumps, 3);
        assert_eq!(a.total_events(), 16);
    }
}
