//! Simulated time.
//!
//! The simulator runs at a fixed 100 Hz timer, the `HZ` of the Linux 2.4
//! kernels on the paper's RedHat testbed: one tick is 10 ms, and the
//! scheduler makes one decision per tick. All simulator durations are
//! expressed in ticks.

/// One scheduler tick in milliseconds (100 Hz timer).
pub const TICK_MS: u64 = 10;

/// Ticks per second.
pub const TICKS_PER_SEC: u64 = 1000 / TICK_MS;

/// Ticks per minute.
pub const TICKS_PER_MIN: u64 = 60 * TICKS_PER_SEC;

/// A point in simulated time, measured in ticks since machine boot.
pub type Tick = u64;

/// Converts whole seconds to ticks.
#[inline]
pub const fn secs(s: u64) -> u64 {
    s * TICKS_PER_SEC
}

/// Converts minutes to ticks.
#[inline]
pub const fn minutes(m: u64) -> u64 {
    m * TICKS_PER_MIN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(secs(1), 100);
        assert_eq!(minutes(1), 6000);
    }
}
