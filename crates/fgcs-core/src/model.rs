//! The five-state availability model (§4, Figure 5).
//!
//! | State | Meaning                                             |
//! |-------|-----------------------------------------------------|
//! | S1    | Full resource availability for the guest process    |
//! | S2    | Availability at lowest guest priority               |
//! | S3    | CPU unavailability — excessive contention (UEC)     |
//! | S4    | Memory thrashing (UEC)                              |
//! | S5    | Machine unavailability — resource revocation (URR)  |
//!
//! S3, S4 and S5 are *unrecoverable* failure states for a guest process:
//! even if host load later drops or the machine comes back, the guest has
//! been killed or migrated and no state remains on the host.

/// One of the five availability states of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AvailState {
    /// Full availability: host CPU load below `Th1`.
    S1,
    /// Availability with the guest at lowest priority:
    /// `Th1 <= LH <= Th2`.
    S2,
    /// CPU unavailability (UEC): host load steadily above `Th2`.
    S3,
    /// Memory thrashing (UEC): the guest working set no longer fits.
    S4,
    /// Machine unavailability (URR): revoked or failed.
    S5,
}

impl AvailState {
    /// All five states in order.
    pub const ALL: [AvailState; 5] = [
        AvailState::S1,
        AvailState::S2,
        AvailState::S3,
        AvailState::S4,
        AvailState::S5,
    ];

    /// True for the failure states S3/S4/S5.
    pub fn is_failure(self) -> bool {
        matches!(self, AvailState::S3 | AvailState::S4 | AvailState::S5)
    }

    /// True for the availability states S1/S2.
    pub fn is_available(self) -> bool {
        !self.is_failure()
    }

    /// The failure cause, for failure states.
    pub fn cause(self) -> Option<FailureCause> {
        match self {
            AvailState::S3 => Some(FailureCause::CpuContention),
            AvailState::S4 => Some(FailureCause::MemoryThrashing),
            AvailState::S5 => Some(FailureCause::Revocation),
            _ => None,
        }
    }

    /// Human-readable description, as in Figure 5's legend.
    pub fn description(self) -> &'static str {
        match self {
            AvailState::S1 => "full resource availability for guest process",
            AvailState::S2 => "resource availability for guest process with lowest priority",
            AvailState::S3 => "CPU unavailability (UEC)",
            AvailState::S4 => "memory thrashing (UEC)",
            AvailState::S5 => "machine unavailability (URR)",
        }
    }

    /// Stable numeric code 1..=5, for wire formats and compact logs.
    pub fn code(self) -> u8 {
        match self {
            AvailState::S1 => 1,
            AvailState::S2 => 2,
            AvailState::S3 => 3,
            AvailState::S4 => 4,
            AvailState::S5 => 5,
        }
    }

    /// Inverse of [`AvailState::code`].
    pub fn from_code(code: u8) -> Option<AvailState> {
        match code {
            1 => Some(AvailState::S1),
            2 => Some(AvailState::S2),
            3 => Some(AvailState::S3),
            4 => Some(AvailState::S4),
            5 => Some(AvailState::S5),
            _ => None,
        }
    }

    /// Whether a *guest job* may observe a transition from `self` to
    /// `to`. Availability states inter-convert; failure states are
    /// absorbing for the job (Figure 5's arrows all point into S3/S4/S5).
    pub fn can_transition(self, to: AvailState) -> bool {
        match (self.is_failure(), to.is_failure()) {
            (true, _) => false,       // failures are absorbing for the job
            (false, _) => self != to, // S1<->S2 and any failure entry
        }
    }
}

impl std::fmt::Display for AvailState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AvailState::S1 => "S1",
            AvailState::S2 => "S2",
            AvailState::S3 => "S3",
            AvailState::S4 => "S4",
            AvailState::S5 => "S5",
        };
        f.write_str(s)
    }
}

/// Why a resource became unavailable. The paper's Table 2 splits UEC
/// into CPU and memory contention and contrasts both with URR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FailureCause {
    /// UEC — host CPU load steadily above `Th2` (state S3).
    CpuContention,
    /// UEC — guest working set no longer fits in memory (state S4).
    MemoryThrashing,
    /// URR — machine revoked or crashed (state S5).
    Revocation,
}

impl FailureCause {
    /// The corresponding failure state.
    pub fn state(self) -> AvailState {
        match self {
            FailureCause::CpuContention => AvailState::S3,
            FailureCause::MemoryThrashing => AvailState::S4,
            FailureCause::Revocation => AvailState::S5,
        }
    }

    /// Stable numeric code 1..=3, for wire formats and compact logs.
    pub fn code(self) -> u8 {
        match self {
            FailureCause::CpuContention => 1,
            FailureCause::MemoryThrashing => 2,
            FailureCause::Revocation => 3,
        }
    }

    /// Inverse of [`FailureCause::code`].
    pub fn from_code(code: u8) -> Option<FailureCause> {
        match code {
            1 => Some(FailureCause::CpuContention),
            2 => Some(FailureCause::MemoryThrashing),
            3 => Some(FailureCause::Revocation),
            _ => None,
        }
    }
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureCause::CpuContention => "cpu-contention",
            FailureCause::MemoryThrashing => "memory-thrashing",
            FailureCause::Revocation => "revocation",
        };
        f.write_str(s)
    }
}

/// The two host-load thresholds derived from the §3.2 contention
/// experiments.
///
/// On the paper's Linux testbed `Th1 = 20%` and `Th2 = 60%`;
/// [`Thresholds::LINUX_TESTBED`] captures those values, and
/// [`crate::calibrate`] re-derives them from our simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Host load above which the guest must drop to lowest priority.
    pub th1: f64,
    /// Host load above which the guest must be terminated.
    pub th2: f64,
}

impl Thresholds {
    /// The paper's Linux-testbed values: `Th1 = 0.2`, `Th2 = 0.6`.
    pub const LINUX_TESTBED: Thresholds = Thresholds { th1: 0.2, th2: 0.6 };

    /// Creates validated thresholds.
    ///
    /// # Panics
    /// Panics unless `0 < th1 <= th2 <= 1`.
    pub fn new(th1: f64, th2: f64) -> Self {
        assert!(
            th1 > 0.0 && th1 <= th2 && th2 <= 1.0,
            "invalid thresholds: th1={th1} th2={th2}"
        );
        Thresholds { th1, th2 }
    }

    /// Maps a host-load sample to its band.
    pub fn classify(&self, host_load: f64) -> LoadBand {
        if host_load < self.th1 {
            LoadBand::Light
        } else if host_load <= self.th2 {
            LoadBand::Heavy
        } else {
            LoadBand::Excessive
        }
    }
}

/// The band a host-load sample falls into, relative to the thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBand {
    /// `LH < Th1`: guest may run at default priority (S1).
    Light,
    /// `Th1 <= LH <= Th2`: guest must run at lowest priority (S2).
    Heavy,
    /// `LH > Th2`: noticeable slowdown even at lowest priority; guest
    /// must be suspended (transient) or terminated (persistent).
    Excessive,
}

impl LoadBand {
    /// Stable numeric code 1..=3, for wire formats and compact logs.
    pub fn code(self) -> u8 {
        match self {
            LoadBand::Light => 1,
            LoadBand::Heavy => 2,
            LoadBand::Excessive => 3,
        }
    }

    /// Inverse of [`LoadBand::code`].
    pub fn from_code(code: u8) -> Option<LoadBand> {
        match code {
            1 => Some(LoadBand::Light),
            2 => Some(LoadBand::Heavy),
            3 => Some(LoadBand::Excessive),
            _ => None,
        }
    }
}

/// The slowdown tolerance defining "noticeable": the paper uses a 5%
/// reduction of host CPU usage throughout.
pub const NOTICEABLE_SLOWDOWN: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_partition() {
        assert!(AvailState::S1.is_available());
        assert!(AvailState::S2.is_available());
        for s in [AvailState::S3, AvailState::S4, AvailState::S5] {
            assert!(s.is_failure());
            assert!(!s.is_available());
        }
    }

    #[test]
    fn causes_map_to_states() {
        assert_eq!(FailureCause::CpuContention.state(), AvailState::S3);
        assert_eq!(FailureCause::MemoryThrashing.state(), AvailState::S4);
        assert_eq!(FailureCause::Revocation.state(), AvailState::S5);
        for s in AvailState::ALL {
            match s.cause() {
                Some(c) => assert_eq!(c.state(), s),
                None => assert!(s.is_available()),
            }
        }
    }

    #[test]
    fn transition_matrix_matches_figure5() {
        use AvailState::*;
        // Availability states reach each other and every failure state.
        assert!(S1.can_transition(S2));
        assert!(S2.can_transition(S1));
        for f in [S3, S4, S5] {
            assert!(S1.can_transition(f));
            assert!(S2.can_transition(f));
        }
        // Failure states are absorbing for the guest job.
        for f in [S3, S4, S5] {
            for t in AvailState::ALL {
                assert!(!f.can_transition(t), "{f} -> {t} should be forbidden");
            }
        }
        // Self-loops are not transitions.
        assert!(!S1.can_transition(S1));
    }

    #[test]
    fn thresholds_classify_bands() {
        let t = Thresholds::LINUX_TESTBED;
        assert_eq!(t.classify(0.0), LoadBand::Light);
        assert_eq!(t.classify(0.19), LoadBand::Light);
        assert_eq!(t.classify(0.2), LoadBand::Heavy);
        assert_eq!(t.classify(0.6), LoadBand::Heavy);
        assert_eq!(t.classify(0.61), LoadBand::Excessive);
        assert_eq!(t.classify(1.0), LoadBand::Excessive);
    }

    #[test]
    #[should_panic(expected = "invalid thresholds")]
    fn thresholds_validate_order() {
        Thresholds::new(0.7, 0.3);
    }

    #[test]
    fn wire_codes_round_trip() {
        for s in AvailState::ALL {
            assert_eq!(AvailState::from_code(s.code()), Some(s));
        }
        assert_eq!(AvailState::from_code(0), None);
        assert_eq!(AvailState::from_code(6), None);
        for c in [
            FailureCause::CpuContention,
            FailureCause::MemoryThrashing,
            FailureCause::Revocation,
        ] {
            assert_eq!(FailureCause::from_code(c.code()), Some(c));
        }
        assert_eq!(FailureCause::from_code(0), None);
        assert_eq!(FailureCause::from_code(4), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(AvailState::S3.to_string(), "S3");
        assert_eq!(FailureCause::Revocation.to_string(), "revocation");
        assert!(AvailState::S4.description().contains("thrashing"));
    }
}
