//! Unavailability detection.
//!
//! [`Detector`] turns the monitor's observation stream into the
//! five-state model of §4, applying the paper's timing rules:
//!
//! * a load spike above `Th2` first *suspends* the guest; only if the
//!   spike persists beyond the tolerance (1 minute in the paper's
//!   experiments) is the resource declared unavailable (S3) and the
//!   guest terminated — transient spikes "caused by a host user starting
//!   remote X applications or by some system processes" do not count;
//! * insufficient free memory for the guest working set is S4
//!   *immediately* ("the guest process must be immediately terminated to
//!   avoid memory thrashing");
//! * FGCS-service death is S5 immediately;
//! * after a failure, the machine is only harvested again once it has
//!   been calm (`LH <= Th2`, memory fits, service alive) for the harvest
//!   delay — §5.2: "the system should wait for about 5 minutes before
//!   harvesting a machine recently released from heavy host workloads".

use crate::model::{AvailState, FailureCause, LoadBand, Thresholds};
use crate::monitor::Observation;

/// Detector timing and threshold configuration. Times are in the same
/// unit as the timestamps passed to [`Detector::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// The contention thresholds.
    pub thresholds: Thresholds,
    /// Guest working-set size in MB, for S4 detection.
    pub guest_working_set_mb: u32,
    /// How long `LH > Th2` may persist (guest suspended) before S3.
    pub spike_tolerance: u64,
    /// How long the machine must stay calm after a failure before a new
    /// availability interval begins.
    pub harvest_delay: u64,
    /// The gap policy: if the observation stream goes silent for longer
    /// than this, the detector no longer knows what happened — the span
    /// since the last observation is reported as a *censoring gap*
    /// ([`Step::gap`]), any open occurrence is closed at the last
    /// observed time, and detection re-baselines from the next sample.
    /// `None` (the default everywhere) disables the policy: silence
    /// silently extends whatever state was current, which is only sound
    /// for a lossless observation stream.
    pub max_silence: Option<u64>,
}

/// A [`DetectorConfig`] that cannot work: zero timing windows or a zero
/// working set make the detector misbehave silently (a zero spike
/// tolerance turns every transient blip into S3; a zero harvest delay
/// re-harvests a machine the instant it calms; a zero working set makes
/// S4 undetectable; a zero silence window censors every sample gap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorConfigError {
    /// `spike_tolerance` was 0.
    ZeroSpikeTolerance,
    /// `harvest_delay` was 0.
    ZeroHarvestDelay,
    /// `guest_working_set_mb` was 0.
    ZeroGuestWorkingSet,
    /// `max_silence` was `Some(0)`.
    ZeroMaxSilence,
}

impl std::fmt::Display for DetectorConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorConfigError::ZeroSpikeTolerance => {
                write!(
                    f,
                    "spike_tolerance must be positive (0 turns every blip into S3)"
                )
            }
            DetectorConfigError::ZeroHarvestDelay => {
                write!(
                    f,
                    "harvest_delay must be positive (0 defeats the 5-minute rule)"
                )
            }
            DetectorConfigError::ZeroGuestWorkingSet => {
                write!(
                    f,
                    "guest_working_set_mb must be positive (0 makes S4 undetectable)"
                )
            }
            DetectorConfigError::ZeroMaxSilence => {
                write!(
                    f,
                    "max_silence must be positive when set (0 censors every gap)"
                )
            }
        }
    }
}

impl std::error::Error for DetectorConfigError {}

impl DetectorConfig {
    /// Defaults with timestamps in simulator ticks (10 ms): 1-minute
    /// spike tolerance, 5-minute harvest delay, paper thresholds, and a
    /// modest 64 MB guest working set.
    pub fn sim_default() -> Self {
        DetectorConfig {
            thresholds: Thresholds::LINUX_TESTBED,
            guest_working_set_mb: 64,
            spike_tolerance: fgcs_sim::time::minutes(1),
            harvest_delay: fgcs_sim::time::minutes(5),
            max_silence: None,
        }
    }

    /// Defaults with timestamps in seconds (used by the testbed tracer).
    pub fn wallclock_default() -> Self {
        DetectorConfig {
            thresholds: Thresholds::LINUX_TESTBED,
            guest_working_set_mb: 64,
            spike_tolerance: 60,
            harvest_delay: 300,
            max_silence: None,
        }
    }

    /// Checks the configuration for values that would make the detector
    /// silently misbehave.
    pub fn validate(&self) -> Result<(), DetectorConfigError> {
        if self.spike_tolerance == 0 {
            return Err(DetectorConfigError::ZeroSpikeTolerance);
        }
        if self.harvest_delay == 0 {
            return Err(DetectorConfigError::ZeroHarvestDelay);
        }
        if self.guest_working_set_mb == 0 {
            return Err(DetectorConfigError::ZeroGuestWorkingSet);
        }
        if self.max_silence == Some(0) {
            return Err(DetectorConfigError::ZeroMaxSilence);
        }
        Ok(())
    }
}

/// What the FGCS middleware should do to the guest job after a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestAction {
    /// Restore the guest to default priority (entering S1).
    RestoreDefaultPriority,
    /// `renice` the guest to the lowest priority (entering S2).
    SetLowestPriority,
    /// SIGSTOP the guest (transient spike above `Th2`).
    Suspend,
    /// SIGCONT the guest (spike subsided within tolerance).
    Resume,
    /// Kill the guest; the resource has failed.
    Terminate,
    /// The machine has become harvestable again after a failure.
    MachineAvailable,
}

/// Start/end edge of an unavailability occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventEdge {
    /// Unavailability began.
    Started {
        /// Failure cause.
        cause: FailureCause,
        /// Timestamp.
        at: u64,
    },
    /// Unavailability ended (machine harvestable again).
    Ended {
        /// Failure cause of the occurrence that ended.
        cause: FailureCause,
        /// When the machine became harvestable (after the harvest delay).
        at: u64,
        /// When the failure condition actually cleared — the machine
        /// came back / load dropped / memory freed. The paper's URR
        /// analysis classifies outages by *this* duration ("URR with
        /// intervals shorter than one minute" are reboots).
        calm_from: u64,
    },
}

/// The unavailability edges one observation produced, held inline: the
/// detector emits nothing, one edge, or — when a cause change or a
/// censoring gap closes one occurrence and the same observation opens
/// the next — one `Ended` followed by one `Started`, never more. Reads
/// as a slice of [`EventEdge`] and iterates by reference or by value,
/// like the `Vec` it replaces, without the per-observation allocation.
#[derive(Clone, Copy)]
pub struct Edges {
    len: u8,
    slots: [EventEdge; 2],
}

impl Edges {
    /// Filler for the slots past `len`; never observable.
    const VACANT: EventEdge = EventEdge::Started {
        cause: FailureCause::CpuContention,
        at: 0,
    };

    /// No edges.
    pub const fn new() -> Self {
        Edges {
            len: 0,
            slots: [Self::VACANT; 2],
        }
    }

    /// Appends an edge. The two slots rely on the detector's order
    /// invariant: at most one `Ended`, then at most one `Started`.
    fn push(&mut self, edge: EventEdge) {
        debug_assert!(self.len < 2, "an observation yields at most two edges");
        self.slots[self.len as usize] = edge;
        self.len += 1;
    }
}

impl Default for Edges {
    fn default() -> Self {
        Edges::new()
    }
}

impl std::ops::Deref for Edges {
    type Target = [EventEdge];

    fn deref(&self) -> &[EventEdge] {
        &self.slots[..self.len as usize]
    }
}

impl std::fmt::Debug for Edges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Edges {
    fn eq(&self, other: &Edges) -> bool {
        **self == **other
    }
}

impl PartialEq<[EventEdge]> for Edges {
    fn eq(&self, other: &[EventEdge]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<EventEdge>> for Edges {
    fn eq(&self, other: &Vec<EventEdge>) -> bool {
        **self == **other
    }
}

impl IntoIterator for Edges {
    type Item = EventEdge;
    type IntoIter = std::iter::Take<std::array::IntoIter<EventEdge, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a Edges {
    type Item = &'a EventEdge;
    type IntoIter = std::slice::Iter<'a, EventEdge>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Result of feeding one observation to the detector.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Model state after the observation.
    pub state: AvailState,
    /// Action for the guest-job controller, if any.
    pub action: Option<GuestAction>,
    /// Unavailability edges produced by this observation (at most two:
    /// a cause change closes one occurrence and opens another).
    pub edges: Edges,
    /// A censoring gap `(silent_from, silent_until)`: the stream was
    /// silent for longer than [`DetectorConfig::max_silence`] before this
    /// observation. Whatever happened in the span is unknown; any
    /// occurrence open at `silent_from` was closed there (see
    /// [`Step::edges`]) and the interval containing the gap must be
    /// treated as censored, not as observed availability.
    pub gap: Option<(u64, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Available {
        band: LoadBand,
        spike_since: Option<u64>,
    },
    Unavailable {
        cause: FailureCause,
        calm_since: Option<u64>,
        /// For revocations: when the service first responded again. The
        /// paper's URR "interval" is the down time itself ("URR with
        /// intervals shorter than one minute" are reboots), independent
        /// of how long the load then takes to calm down.
        revived: Option<u64>,
    },
}

/// Serializable view of a [`Detector`]'s dynamic state (everything but
/// the configuration), captured by [`Detector::snapshot`]. A detector
/// rebuilt via [`Detector::restore`] with the same configuration
/// continues the observation stream exactly where the snapshot left
/// off: feeding both detectors the same subsequent samples yields
/// identical steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorSnapshot {
    /// The machine was available (S1/S2, possibly with a tolerated
    /// spike pending).
    Available {
        /// Load band of the last sample.
        band: LoadBand,
        /// When the current `LH > Th2` spike started, if one is being
        /// tolerated.
        spike_since: Option<u64>,
        /// Timestamp of the last observation.
        last_t: Option<u64>,
    },
    /// The machine was inside an unavailability occurrence (S3/S4/S5).
    Unavailable {
        /// Failure cause of the open occurrence.
        cause: FailureCause,
        /// When the machine last turned calm, if the harvest-delay clock
        /// is running.
        calm_since: Option<u64>,
        /// For revocations: when the service first responded again.
        revived: Option<u64>,
        /// Timestamp of the last observation.
        last_t: Option<u64>,
    },
}

/// The incremental unavailability detector.
#[derive(Debug, Clone)]
pub struct Detector {
    cfg: DetectorConfig,
    mode: Mode,
    /// Timestamp of the last observation, for the gap policy.
    last_t: Option<u64>,
}

impl Detector {
    /// Creates a detector; the machine starts available and idle (S1).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DetectorConfig::validate`];
    /// use [`Detector::try_new`] to handle invalid configurations.
    pub fn new(cfg: DetectorConfig) -> Self {
        Self::try_new(cfg).expect("invalid DetectorConfig")
    }

    /// Creates a detector, rejecting configurations that would make it
    /// silently misbehave.
    pub fn try_new(cfg: DetectorConfig) -> Result<Self, DetectorConfigError> {
        cfg.validate()?;
        Ok(Detector {
            cfg,
            mode: Mode::Available {
                band: LoadBand::Light,
                spike_since: None,
            },
            last_t: None,
        })
    }

    /// Configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Updates the guest working-set size used for S4 detection — called
    /// by the controller when a new guest job (with a different memory
    /// footprint) is placed on the machine.
    pub fn set_guest_working_set(&mut self, mb: u32) {
        self.cfg.guest_working_set_mb = mb;
    }

    /// Current model state.
    pub fn state(&self) -> AvailState {
        match self.mode {
            Mode::Available {
                band: LoadBand::Light,
                ..
            } => AvailState::S1,
            Mode::Available { .. } => AvailState::S2,
            Mode::Unavailable { cause, .. } => cause.state(),
        }
    }

    /// True while a guest job may run (possibly suspended).
    pub fn is_available(&self) -> bool {
        matches!(self.mode, Mode::Available { .. })
    }

    /// True while a transient load spike above `Th2` is being tolerated
    /// (the guest, if any, is suspended). New jobs should not be placed
    /// until the spike resolves one way or the other.
    pub fn spike_active(&self) -> bool {
        matches!(
            self.mode,
            Mode::Available {
                spike_since: Some(_),
                ..
            }
        )
    }

    /// While the harvest-delay clock runs (unavailable, calm since `s`):
    /// `s + harvest_delay`. Absent a censoring gap, a calm observation
    /// before it changes only the gap-policy clock; the first calm one
    /// at or after it ends the occurrence. `None` while no clock runs.
    #[inline]
    pub fn harvest_deadline(&self) -> Option<u64> {
        match self.mode {
            Mode::Unavailable {
                calm_since: Some(s),
                ..
            } => Some(s.saturating_add(self.cfg.harvest_delay)),
            _ => None,
        }
    }

    /// While a spike is tolerated (available, above `Th2` since `s0`):
    /// `s0 + spike_tolerance`. Absent a censoring gap, a live, excessive
    /// observation whose memory fits changes only the gap-policy clock
    /// before it; the first one at or after it opens an S3 occurrence.
    /// `None` while no spike is pending.
    #[inline]
    pub fn spike_deadline(&self) -> Option<u64> {
        match self.mode {
            Mode::Available {
                spike_since: Some(s0),
                ..
            } => Some(s0.saturating_add(self.cfg.spike_tolerance)),
            _ => None,
        }
    }

    /// Moves the gap-policy clock to `t` as if the stream had been
    /// observed up to `t`, without stepping. Only sound for a caller
    /// that has proven the observations it skips could not change the
    /// state and were never more than `max_silence` apart — a batched
    /// tracer skipping repeated dead samples, calm idle ones, or the
    /// samples before [`Self::harvest_deadline`] or
    /// [`Self::spike_deadline`].
    pub fn skip_to(&mut self, t: u64) {
        debug_assert!(
            self.last_t.is_none_or(|last| last <= t),
            "time went backwards"
        );
        self.last_t = Some(t);
    }

    /// Captures the detector's dynamic state for checkpointing.
    pub fn snapshot(&self) -> DetectorSnapshot {
        match self.mode {
            Mode::Available { band, spike_since } => DetectorSnapshot::Available {
                band,
                spike_since,
                last_t: self.last_t,
            },
            Mode::Unavailable {
                cause,
                calm_since,
                revived,
            } => DetectorSnapshot::Unavailable {
                cause,
                calm_since,
                revived,
                last_t: self.last_t,
            },
        }
    }

    /// Rebuilds a detector from a [`Detector::snapshot`] under `cfg`.
    /// For the restored detector to continue the stream exactly, `cfg`
    /// must equal the configuration the snapshot was taken under; the
    /// configuration is still validated so a corrupted restore cannot
    /// produce a silently misbehaving detector.
    pub fn restore(
        cfg: DetectorConfig,
        snap: DetectorSnapshot,
    ) -> Result<Detector, DetectorConfigError> {
        cfg.validate()?;
        let (mode, last_t) = match snap {
            DetectorSnapshot::Available {
                band,
                spike_since,
                last_t,
            } => (Mode::Available { band, spike_since }, last_t),
            DetectorSnapshot::Unavailable {
                cause,
                calm_since,
                revived,
                last_t,
            } => (
                Mode::Unavailable {
                    cause,
                    calm_since,
                    revived,
                },
                last_t,
            ),
        };
        Ok(Detector { cfg, mode, last_t })
    }

    /// Whether [`Self::observe`]`(t, obs)` would change nothing but the
    /// gap-policy clock: the same mode written back, no action, edge or
    /// gap. `observe`'s rules, read without writing. Available: a live
    /// sample whose memory fits, either in the current band with no
    /// spike pending or excessive inside a pending spike's tolerance.
    /// Unavailable: a non-calm sample with no calm clock running, or a
    /// calm one inside a running harvest wait (before
    /// [`Self::harvest_deadline`]); for a revocation, only while
    /// `revived` stays as it is (set and the sample live, or unset and
    /// the sample dead). Never across a `max_silence` gap, and never
    /// for `t` before the last observation.
    #[inline]
    pub fn settles(&self, t: u64, obs: &Observation) -> bool {
        if let Some(last) = self.last_t {
            if t < last || self.cfg.max_silence.is_some_and(|m| t - last > m) {
                return false;
            }
        }
        let mem_ok = obs.free_mem_mb >= self.cfg.guest_working_set_mb;
        let new_band = self.cfg.thresholds.classify(obs.host_load);
        match self.mode {
            Mode::Available { band, spike_since } => {
                obs.alive
                    && mem_ok
                    && match new_band {
                        LoadBand::Excessive => spike_since
                            .is_some_and(|s0| t.saturating_sub(s0) < self.cfg.spike_tolerance),
                        _ => spike_since.is_none() && new_band == band,
                    }
            }
            Mode::Unavailable {
                cause,
                calm_since,
                revived,
            } => {
                let revived_kept = if cause == FailureCause::Revocation {
                    revived.is_some() == obs.alive
                } else {
                    obs.alive && revived.is_none()
                };
                let calm = obs.alive && mem_ok && new_band != LoadBand::Excessive;
                revived_kept
                    && match calm_since {
                        Some(s) => calm && t.saturating_sub(s) < self.cfg.harvest_delay,
                        None => !calm,
                    }
            }
        }
    }

    /// Feeds one observation taken at time `t`. Timestamps must be
    /// non-decreasing across calls.
    ///
    /// If [`DetectorConfig::max_silence`] is set and the stream was
    /// silent for longer than that since the previous observation, the
    /// silent span is reported as [`Step::gap`]: any open occurrence is
    /// closed at the moment the silence began (we cannot claim it lasted
    /// through a span we did not observe) and the detector re-baselines
    /// before processing `obs` normally.
    pub fn observe(&mut self, t: u64, obs: &Observation) -> Step {
        let mut edges = Edges::new();
        let mut action = None;

        let mut gap = None;
        if let (Some(max_silence), Some(last)) = (self.cfg.max_silence, self.last_t) {
            if t.saturating_sub(last) > max_silence {
                gap = Some((last, t));
                if let Mode::Unavailable { cause, .. } = self.mode {
                    edges.push(EventEdge::Ended {
                        cause,
                        at: last,
                        calm_from: last,
                    });
                }
                self.mode = Mode::Available {
                    band: LoadBand::Light,
                    spike_since: None,
                };
            }
        }
        self.last_t = Some(t);

        let mem_ok = obs.free_mem_mb >= self.cfg.guest_working_set_mb;

        match self.mode {
            Mode::Available { band, spike_since } => {
                if !obs.alive {
                    self.fail(FailureCause::Revocation, t, &mut edges);
                    action = Some(GuestAction::Terminate);
                } else if !mem_ok {
                    self.fail(FailureCause::MemoryThrashing, t, &mut edges);
                    action = Some(GuestAction::Terminate);
                } else {
                    match self.cfg.thresholds.classify(obs.host_load) {
                        LoadBand::Excessive => match spike_since {
                            None => {
                                // First excessive sample: suspend, start
                                // the tolerance clock.
                                self.mode = Mode::Available {
                                    band,
                                    spike_since: Some(t),
                                };
                                action = Some(GuestAction::Suspend);
                            }
                            Some(s0) if t.saturating_sub(s0) >= self.cfg.spike_tolerance => {
                                self.fail(FailureCause::CpuContention, t, &mut edges);
                                action = Some(GuestAction::Terminate);
                            }
                            Some(_) => {} // still within tolerance, stay suspended
                        },
                        new_band @ (LoadBand::Light | LoadBand::Heavy) => {
                            if spike_since.is_some() {
                                // Spike subsided within tolerance.
                                action = Some(GuestAction::Resume);
                            } else if new_band != band {
                                action = Some(match new_band {
                                    LoadBand::Light => GuestAction::RestoreDefaultPriority,
                                    _ => GuestAction::SetLowestPriority,
                                });
                            }
                            self.mode = Mode::Available {
                                band: new_band,
                                spike_since: None,
                            };
                        }
                    }
                }
            }
            Mode::Unavailable {
                cause,
                calm_since,
                revived,
            } => {
                // A machine death during a contention outage is a new,
                // different occurrence: close one, open the other.
                if !obs.alive && cause != FailureCause::Revocation {
                    edges.push(EventEdge::Ended {
                        cause,
                        at: t,
                        calm_from: t,
                    });
                    edges.push(EventEdge::Started {
                        cause: FailureCause::Revocation,
                        at: t,
                    });
                    self.mode = Mode::Unavailable {
                        cause: FailureCause::Revocation,
                        calm_since: None,
                        revived: None,
                    };
                } else {
                    // For a revocation, remember when the service first
                    // came back (resets if the machine flaps).
                    let revived = if cause == FailureCause::Revocation {
                        if obs.alive {
                            Some(revived.unwrap_or(t))
                        } else {
                            None
                        }
                    } else {
                        None
                    };
                    let calm = obs.alive
                        && mem_ok
                        && self.cfg.thresholds.classify(obs.host_load) != LoadBand::Excessive;
                    if calm {
                        let since = calm_since.unwrap_or(t);
                        if t.saturating_sub(since) >= self.cfg.harvest_delay {
                            let calm_from = if cause == FailureCause::Revocation {
                                revived.unwrap_or(since)
                            } else {
                                since
                            };
                            edges.push(EventEdge::Ended {
                                cause,
                                at: t,
                                calm_from,
                            });
                            let band = match self.cfg.thresholds.classify(obs.host_load) {
                                LoadBand::Light => LoadBand::Light,
                                _ => LoadBand::Heavy,
                            };
                            self.mode = Mode::Available {
                                band,
                                spike_since: None,
                            };
                            action = Some(GuestAction::MachineAvailable);
                        } else {
                            self.mode = Mode::Unavailable {
                                cause,
                                calm_since: Some(since),
                                revived,
                            };
                        }
                    } else {
                        self.mode = Mode::Unavailable {
                            cause,
                            calm_since: None,
                            revived,
                        };
                    }
                }
            }
        }

        Step {
            state: self.state(),
            action,
            edges,
            gap,
        }
    }

    fn fail(&mut self, cause: FailureCause, t: u64, edges: &mut Edges) {
        edges.push(EventEdge::Started { cause, at: t });
        self.mode = Mode::Unavailable {
            cause,
            calm_since: None,
            revived: None,
        };
    }
}

/// Random detector configurations and observation streams for the
/// properties of [`Detector::settles`] and of the recorder's
/// `observe_all`.
#[cfg(test)]
pub(crate) mod streams {
    use super::*;
    use proptest::strategy::{fn_strategy, Strategy};
    use proptest::test_runner::TestRng;

    fn below(rng: &mut TestRng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    /// A load in `[lo, hi)`, or one of the thresholds themselves.
    fn load(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
        match below(rng, 8) {
            0 => Thresholds::LINUX_TESTBED.th1,
            1 => Thresholds::LINUX_TESTBED.th2,
            _ => lo + (hi - lo) * rng.next_f64(),
        }
    }

    /// One observation of a kind: light, heavy, excessive, NaN, dead
    /// (with or without readings) or memory-short. The guest working
    /// set is 100 MB, so 100 MB free fits exactly.
    fn observation(rng: &mut TestRng, kind: u64) -> Observation {
        let free_mem_mb = 100 + below(rng, 3) as u32 * 450;
        let live = |host_load| Observation {
            host_load,
            free_mem_mb,
            alive: true,
        };
        match kind {
            0 => live(load(rng, 0.0, 0.2)),
            1 => live(load(rng, 0.2, 0.6)),
            2 => live(load(rng, 0.600_001, 1.0)),
            3 => live(f64::NAN),
            4 => Observation::dead(),
            5 => Observation {
                alive: false,
                ..live(load(rng, 0.0, 1.0))
            },
            _ => Observation {
                free_mem_mb: below(rng, 100) as u32,
                ..live(load(rng, 0.0, 1.0))
            },
        }
    }

    /// A configuration with short waits, so that streams cross their
    /// deadlines, and `max_silence` both `None` and `Some`; then a
    /// stream of runs, each one kind of sample at one kind of step:
    /// repeated timestamps, steps short against the waits, or long
    /// enough to trip the gap policy. Runs of one kind build spikes
    /// and harvest waits; mixed runs cut them short. With `backwards`
    /// a step may also go back in time.
    pub(crate) fn config_and_stream(
        backwards: bool,
    ) -> impl Strategy<Value = (DetectorConfig, Vec<(u64, Observation)>)> {
        fn_strategy(move |rng: &mut TestRng| {
            let cfg = DetectorConfig {
                thresholds: Thresholds::LINUX_TESTBED,
                guest_working_set_mb: 100,
                spike_tolerance: 1 + below(rng, 90),
                harvest_delay: 1 + below(rng, 300),
                max_silence: (below(rng, 2) == 0).then(|| 1 + below(rng, 120)),
            };
            let mut t = below(rng, 1_000);
            let mut stream = Vec::new();
            for _ in 0..1 + below(rng, 12) {
                let kind = below(rng, 7);
                let mixed = below(rng, 4) == 0;
                let step = match below(rng, 4) {
                    0 => 0,
                    1 => 1 + below(rng, 20),
                    2 => 15,
                    _ => below(rng, 200),
                };
                for _ in 0..1 + below(rng, 24) {
                    let kind = if mixed { below(rng, 7) } else { kind };
                    t = if backwards && below(rng, 32) == 0 {
                        t.saturating_sub(1 + below(rng, 30))
                    } else {
                        t + step
                    };
                    stream.push((t, observation(rng, kind)));
                }
            }
            (cfg, stream)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            thresholds: Thresholds::LINUX_TESTBED,
            guest_working_set_mb: 100,
            spike_tolerance: 60,
            harvest_delay: 300,
            max_silence: None,
        }
    }

    fn obs(load: f64) -> Observation {
        Observation {
            host_load: load,
            free_mem_mb: 1000,
            alive: true,
        }
    }

    #[test]
    fn edges_hold_zero_one_or_two_in_order() {
        let ended = EventEdge::Ended {
            cause: FailureCause::CpuContention,
            at: 120,
            calm_from: 90,
        };
        let started = EventEdge::Started {
            cause: FailureCause::Revocation,
            at: 120,
        };

        let mut e = Edges::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e, Edges::default());
        assert_eq!(e, Vec::new());
        assert_eq!(e.into_iter().count(), 0);
        assert_eq!((&e).into_iter().count(), 0);
        assert_eq!(format!("{e:?}"), "[]");

        e.push(ended);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0], ended);
        assert_eq!(e, vec![ended]);
        assert_eq!(e, [ended][..]);
        assert_ne!(e, Edges::new());
        assert_ne!(e, vec![started], "the vacant slot must not take part");

        e.push(started);
        assert_eq!(e.len(), 2);
        assert_eq!(e, vec![ended, started]);
        assert_ne!(e, vec![started, ended]);
        let mut by_ref = Vec::new();
        for edge in &e {
            by_ref.push(*edge);
        }
        let by_value: Vec<EventEdge> = e.into_iter().collect();
        assert_eq!(by_ref, vec![ended, started]);
        assert_eq!(by_value, by_ref);
        assert_eq!(format!("{e:?}"), format!("{by_ref:?}"));

        // Equality looks at the live prefix only: same single edge,
        // different history in the unused slot.
        let mut a = Edges::new();
        a.push(started);
        let mut b = Edges::new();
        b.push(started);
        b.slots[1] = ended;
        assert_eq!(a, b);
    }

    #[test]
    fn light_load_is_s1() {
        let mut d = Detector::new(cfg());
        let s = d.observe(0, &obs(0.1));
        assert_eq!(s.state, AvailState::S1);
        assert!(s.edges.is_empty());
        assert!(s.action.is_none());
    }

    #[test]
    fn heavy_load_moves_to_s2_with_renice() {
        let mut d = Detector::new(cfg());
        d.observe(0, &obs(0.1));
        let s = d.observe(10, &obs(0.4));
        assert_eq!(s.state, AvailState::S2);
        assert_eq!(s.action, Some(GuestAction::SetLowestPriority));
        // And back to S1 restores priority.
        let s = d.observe(20, &obs(0.1));
        assert_eq!(s.state, AvailState::S1);
        assert_eq!(s.action, Some(GuestAction::RestoreDefaultPriority));
    }

    #[test]
    fn transient_spike_suspends_then_resumes() {
        let mut d = Detector::new(cfg());
        d.observe(0, &obs(0.3));
        let s = d.observe(10, &obs(0.9));
        assert_eq!(s.action, Some(GuestAction::Suspend));
        assert_eq!(
            s.state,
            AvailState::S2,
            "state stays S2 during a transient spike"
        );
        // Spike ends within tolerance.
        let s = d.observe(40, &obs(0.3));
        assert_eq!(s.action, Some(GuestAction::Resume));
        assert_eq!(s.state, AvailState::S2);
        assert!(s.edges.is_empty(), "no unavailability recorded");
    }

    #[test]
    fn persistent_spike_is_s3() {
        let mut d = Detector::new(cfg());
        d.observe(0, &obs(0.1));
        d.observe(10, &obs(0.9));
        let s = d.observe(40, &obs(0.95));
        assert!(s.edges.is_empty(), "still within tolerance");
        let s = d.observe(70, &obs(0.9)); // 60 units after spike start
        assert_eq!(s.state, AvailState::S3);
        assert_eq!(s.action, Some(GuestAction::Terminate));
        assert_eq!(
            s.edges,
            vec![EventEdge::Started {
                cause: FailureCause::CpuContention,
                at: 70
            }]
        );
    }

    #[test]
    fn spike_state_remembers_prior_band() {
        let mut d = Detector::new(cfg());
        d.observe(0, &obs(0.1)); // S1
        let s = d.observe(10, &obs(0.9));
        assert_eq!(s.state, AvailState::S1, "S1 spike stays S1 while suspended");
    }

    #[test]
    fn memory_pressure_is_immediate_s4() {
        let mut d = Detector::new(cfg());
        d.observe(0, &obs(0.1));
        let o = Observation {
            host_load: 0.1,
            free_mem_mb: 99,
            alive: true,
        };
        let s = d.observe(10, &o);
        assert_eq!(s.state, AvailState::S4);
        assert_eq!(s.action, Some(GuestAction::Terminate));
        assert_eq!(
            s.edges,
            vec![EventEdge::Started {
                cause: FailureCause::MemoryThrashing,
                at: 10
            }]
        );
    }

    #[test]
    fn service_death_is_immediate_s5() {
        let mut d = Detector::new(cfg());
        d.observe(0, &obs(0.1));
        let s = d.observe(10, &Observation::dead());
        assert_eq!(s.state, AvailState::S5);
        assert_eq!(
            s.edges,
            vec![EventEdge::Started {
                cause: FailureCause::Revocation,
                at: 10
            }]
        );
    }

    #[test]
    fn recovery_requires_harvest_delay() {
        let mut d = Detector::new(cfg());
        d.observe(0, &obs(0.1));
        d.observe(10, &Observation::dead());
        // Machine back, calm — but the delay has not elapsed.
        let s = d.observe(20, &obs(0.1));
        assert_eq!(s.state, AvailState::S5);
        assert!(s.edges.is_empty());
        let s = d.observe(200, &obs(0.1));
        assert_eq!(s.state, AvailState::S5);
        // 300 after calm start.
        let s = d.observe(320, &obs(0.1));
        assert_eq!(s.state, AvailState::S1);
        assert_eq!(s.action, Some(GuestAction::MachineAvailable));
        assert_eq!(
            s.edges,
            vec![EventEdge::Ended {
                cause: FailureCause::Revocation,
                at: 320,
                calm_from: 20
            }]
        );
    }

    #[test]
    fn urr_interval_is_the_down_time_not_the_calm_time() {
        // Machine dies at t=10, comes back at t=40, but a load blip at
        // t=100 resets the calm clock. The recorded raw outage must still
        // be the ~30 s of down time, so the paper's reboot classification
        // (< 1 minute) is unaffected by post-boot load noise.
        let mut d = Detector::new(cfg());
        d.observe(0, &obs(0.1));
        d.observe(10, &Observation::dead());
        d.observe(40, &obs(0.1)); // back up, calm begins
        d.observe(100, &obs(0.9)); // transient blip resets calm
        d.observe(130, &obs(0.1)); // calm again from 130
        let s = d.observe(440, &obs(0.1)); // 130 + 300 harvest delay
        assert_eq!(
            s.edges,
            vec![EventEdge::Ended {
                cause: FailureCause::Revocation,
                at: 440,
                calm_from: 40
            }]
        );
    }

    #[test]
    fn urr_revival_resets_if_the_machine_flaps() {
        let mut d = Detector::new(cfg());
        d.observe(0, &Observation::dead());
        d.observe(30, &obs(0.1)); // revived at 30...
        d.observe(60, &Observation::dead()); // ...but dies again
        d.observe(90, &obs(0.1)); // final revival at 90
        let s = d.observe(390, &obs(0.1));
        assert_eq!(
            s.edges,
            vec![EventEdge::Ended {
                cause: FailureCause::Revocation,
                at: 390,
                calm_from: 90
            }]
        );
    }

    #[test]
    fn calm_clock_resets_on_new_turbulence() {
        let mut d = Detector::new(cfg());
        d.observe(0, &obs(0.9));
        d.observe(60, &obs(0.9)); // S3
        assert_eq!(d.state(), AvailState::S3);
        d.observe(100, &obs(0.1)); // calm begins
        d.observe(300, &obs(0.9)); // turbulence: calm clock resets
        let s = d.observe(410, &obs(0.1)); // calm again at 410
        assert_eq!(s.state, AvailState::S3, "delay must restart");
        let s = d.observe(710, &obs(0.1));
        assert_eq!(s.state, AvailState::S1);
    }

    #[test]
    fn recovery_into_heavy_load_lands_in_s2() {
        let mut d = Detector::new(cfg());
        d.observe(0, &Observation::dead());
        d.observe(100, &obs(0.5));
        let s = d.observe(400, &obs(0.5));
        assert_eq!(s.state, AvailState::S2);
    }

    #[test]
    fn cause_change_splits_occurrences() {
        let mut d = Detector::new(cfg());
        d.observe(0, &obs(0.9));
        d.observe(60, &obs(0.9)); // S3 starts
        let s = d.observe(120, &Observation::dead()); // machine rebooted
        assert_eq!(s.state, AvailState::S5);
        assert_eq!(
            s.edges,
            vec![
                EventEdge::Ended {
                    cause: FailureCause::CpuContention,
                    at: 120,
                    calm_from: 120
                },
                EventEdge::Started {
                    cause: FailureCause::Revocation,
                    at: 120
                },
            ]
        );
    }

    #[test]
    fn s4_requires_working_set_threshold_exactly() {
        let mut d = Detector::new(cfg());
        let o = Observation {
            host_load: 0.1,
            free_mem_mb: 100,
            alive: true,
        };
        let s = d.observe(0, &o);
        assert_eq!(
            s.state,
            AvailState::S1,
            "exactly fitting working set is fine"
        );
    }

    #[test]
    fn zero_config_values_are_rejected() {
        let mut c = cfg();
        c.spike_tolerance = 0;
        assert_eq!(
            Detector::try_new(c).unwrap_err(),
            DetectorConfigError::ZeroSpikeTolerance
        );
        let mut c = cfg();
        c.harvest_delay = 0;
        assert_eq!(
            Detector::try_new(c).unwrap_err(),
            DetectorConfigError::ZeroHarvestDelay
        );
        let mut c = cfg();
        c.guest_working_set_mb = 0;
        assert_eq!(
            Detector::try_new(c).unwrap_err(),
            DetectorConfigError::ZeroGuestWorkingSet
        );
        let mut c = cfg();
        c.max_silence = Some(0);
        assert_eq!(
            Detector::try_new(c).unwrap_err(),
            DetectorConfigError::ZeroMaxSilence
        );
        assert!(Detector::try_new(cfg()).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid DetectorConfig")]
    fn new_panics_on_invalid_config() {
        let mut c = cfg();
        c.harvest_delay = 0;
        let _ = Detector::new(c);
    }

    #[test]
    fn silence_without_policy_extends_state() {
        // Without max_silence, a long gap changes nothing: unavailability
        // silently spans it (the pre-hardening behavior, sound only for
        // lossless streams).
        let mut d = Detector::new(cfg());
        d.observe(0, &obs(0.1));
        d.observe(10, &Observation::dead());
        let s = d.observe(100_000, &obs(0.1));
        assert_eq!(s.gap, None);
        assert_eq!(s.state, AvailState::S5, "still in the old occurrence");
    }

    #[test]
    fn gap_closes_open_occurrence_at_last_observation() {
        let mut c = cfg();
        c.max_silence = Some(120);
        let mut d = Detector::new(c);
        d.observe(0, &obs(0.1));
        d.observe(10, &Observation::dead()); // S5 occurrence opens at 10
        d.observe(20, &Observation::dead());
        // Stream goes silent for 980 > 120: we cannot claim the outage
        // lasted until 1000.
        let s = d.observe(1000, &obs(0.1));
        assert_eq!(s.gap, Some((20, 1000)));
        assert_eq!(
            s.edges,
            vec![EventEdge::Ended {
                cause: FailureCause::Revocation,
                at: 20,
                calm_from: 20
            }]
        );
        assert_eq!(s.state, AvailState::S1, "re-baselined from the new sample");
    }

    #[test]
    fn gap_while_available_censors_without_edges() {
        let mut c = cfg();
        c.max_silence = Some(120);
        let mut d = Detector::new(c);
        d.observe(0, &obs(0.1));
        let s = d.observe(500, &obs(0.1));
        assert_eq!(s.gap, Some((0, 500)));
        assert!(s.edges.is_empty(), "nothing was open, nothing to close");
        assert_eq!(s.state, AvailState::S1);
    }

    #[test]
    fn gap_then_immediate_failure_opens_fresh_occurrence() {
        let mut c = cfg();
        c.max_silence = Some(120);
        let mut d = Detector::new(c);
        d.observe(0, &obs(0.9));
        d.observe(60, &obs(0.9)); // S3 opens at 60
        let s = d.observe(1000, &Observation::dead());
        assert_eq!(s.gap, Some((60, 1000)));
        assert_eq!(
            s.edges,
            vec![
                EventEdge::Ended {
                    cause: FailureCause::CpuContention,
                    at: 60,
                    calm_from: 60
                },
                EventEdge::Started {
                    cause: FailureCause::Revocation,
                    at: 1000
                },
            ],
            "gap closes the old occurrence, the new observation opens a new one"
        );
        assert_eq!(s.state, AvailState::S5);
    }

    #[test]
    fn spike_clock_does_not_survive_a_gap() {
        let mut c = cfg();
        c.max_silence = Some(120);
        let mut d = Detector::new(c);
        d.observe(0, &obs(0.1));
        d.observe(10, &obs(0.9)); // spike clock starts at 10
                                  // 990 of silence; a naive detector would declare S3 here because
                                  // "the spike persisted 990 > 60".
        let s = d.observe(1000, &obs(0.9));
        assert_eq!(s.gap, Some((10, 1000)));
        assert_ne!(
            s.state,
            AvailState::S3,
            "spike tolerance restarts after a gap"
        );
        assert_eq!(s.action, Some(GuestAction::Suspend));
    }

    #[test]
    fn gap_exactly_at_max_silence_is_not_censored() {
        let mut c = cfg();
        c.max_silence = Some(120);
        let mut d = Detector::new(c);
        d.observe(0, &obs(0.1));
        let s = d.observe(120, &obs(0.1));
        assert_eq!(
            s.gap, None,
            "boundary: gap must strictly exceed max_silence"
        );
    }

    #[test]
    fn full_cycle_s1_to_s3_to_s1() {
        let mut d = Detector::new(cfg());
        let mut edges = Vec::new();
        let loads = [
            (0u64, 0.1),
            (30, 0.7), // spike
            (90, 0.7), // persists -> S3
            (120, 0.1),
            (420, 0.1), // recovered
        ];
        for (t, l) in loads {
            edges.extend(d.observe(t, &obs(l)).edges);
        }
        assert_eq!(
            edges,
            vec![
                EventEdge::Started {
                    cause: FailureCause::CpuContention,
                    at: 90
                },
                EventEdge::Ended {
                    cause: FailureCause::CpuContention,
                    at: 420,
                    calm_from: 120
                },
            ]
        );
        assert_eq!(d.state(), AvailState::S1);
    }

    /// Snapshot/restore at *every* prefix of an eventful stream: the
    /// restored detector must produce exactly the same steps as the
    /// uninterrupted one for the remainder — the invariant the service's
    /// crash-safe checkpointing is built on.
    #[test]
    fn snapshot_restore_continues_stream_exactly() {
        let mut silent_cfg = cfg();
        silent_cfg.max_silence = Some(600);
        // Spike, contention, recovery, death, revival, and a censoring
        // gap: every Mode variant and timer is exercised.
        let samples: Vec<(u64, Observation)> = vec![
            (0, obs(0.1)),
            (30, obs(0.4)),
            (60, obs(0.7)),
            (150, obs(0.7)), // tolerance exceeded -> S3
            (180, obs(0.1)),
            (500, obs(0.1)), // harvest delay passed -> S1
            (530, Observation::dead()),
            (560, obs(0.2)),  // revived, calm clock running
            (900, obs(0.2)),  // harvested again
            (1700, obs(0.1)), // 800 s silence -> gap
            (1730, obs(0.9)),
        ];
        for cut in 0..samples.len() {
            let mut full = Detector::new(silent_cfg);
            for (t, o) in &samples[..cut] {
                full.observe(*t, o);
            }
            let mut restored =
                Detector::restore(silent_cfg, full.snapshot()).expect("restore succeeds");
            for (t, o) in &samples[cut..] {
                let a = full.observe(*t, o);
                let b = restored.observe(*t, o);
                assert_eq!(a, b, "divergence after cut {cut} at t {t}");
            }
            assert_eq!(full.snapshot(), restored.snapshot(), "cut {cut}");
        }
    }

    /// The detector's state with the gap-policy clock masked: what a
    /// sample inside one of the two waits must leave unchanged.
    fn without_clock(d: &Detector) -> DetectorSnapshot {
        match d.snapshot() {
            DetectorSnapshot::Available {
                band, spike_since, ..
            } => DetectorSnapshot::Available {
                band,
                spike_since,
                last_t: None,
            },
            DetectorSnapshot::Unavailable {
                cause,
                calm_since,
                revived,
                ..
            } => DetectorSnapshot::Unavailable {
                cause,
                calm_since,
                revived,
                last_t: None,
            },
        }
    }

    /// Feeds `o` every `period` from `t` on and returns the first time
    /// at which it changed anything but the gap-policy clock.
    fn first_change(d: &mut Detector, mut t: u64, period: u64, o: &Observation) -> u64 {
        loop {
            let before = without_clock(d);
            let step = d.observe(t, o);
            if without_clock(d) != before || !step.edges.is_empty() || step.action.is_some() {
                return t;
            }
            t += period;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The two deadlines are exact: a calm stream inside the harvest
        /// wait, or an excessive one inside the spike tolerance, first
        /// changes the detector at the first sample at or after the
        /// accessor's deadline, for any timing and any gap policy that
        /// the stream's period never trips.
        #[test]
        fn each_wait_ends_at_the_first_sample_at_or_after_its_deadline(
            (harvest_delay, spike_tolerance, period, t0) in
                (1u64..2_000, 1u64..600, 1u64..120, 0u64..100_000),
            slack in proptest::option::of(0u64..200),
            (calm_load, excessive_load) in (0.0f64..=0.6, 0.600_001f64..=1.0),
        ) {
            let cfg = DetectorConfig {
                harvest_delay,
                spike_tolerance,
                max_silence: slack.map(|s| period + s),
                ..cfg()
            };

            // Harvest wait: S4, then a calm stream from `t0 + period`.
            let mut d = Detector::new(cfg);
            d.observe(t0, &Observation { free_mem_mb: 0, ..obs(calm_load) });
            proptest::prop_assert_eq!(d.harvest_deadline(), None);
            let since = t0 + period;
            d.observe(since, &obs(calm_load));
            let deadline = d.harvest_deadline().expect("the calm clock runs");
            proptest::prop_assert_eq!(deadline, since + harvest_delay);
            proptest::prop_assert_eq!(d.spike_deadline(), None);
            let first = since + deadline.saturating_sub(since).div_ceil(period) * period;
            let changed = first_change(&mut d, since + period, period, &obs(calm_load));
            proptest::prop_assert_eq!(changed, first, "harvest deadline {}", deadline);
            proptest::prop_assert!(d.is_available());
            proptest::prop_assert_eq!(d.harvest_deadline(), None);

            // Spike tolerance: calm, then an excessive stream from
            // `t0 + period`.
            let mut d = Detector::new(cfg);
            d.observe(t0, &obs(calm_load));
            proptest::prop_assert_eq!(d.spike_deadline(), None);
            let s0 = t0 + period;
            d.observe(s0, &obs(excessive_load));
            let deadline = d.spike_deadline().expect("the spike is tolerated");
            proptest::prop_assert_eq!(deadline, s0 + spike_tolerance);
            proptest::prop_assert_eq!(d.harvest_deadline(), None);
            let first = s0 + deadline.saturating_sub(s0).div_ceil(period) * period;
            let changed = first_change(&mut d, s0 + period, period, &obs(excessive_load));
            proptest::prop_assert_eq!(changed, first, "spike deadline {}", deadline);
            proptest::prop_assert_eq!(d.state(), AvailState::S3);
            proptest::prop_assert_eq!(d.spike_deadline(), None);
        }
    }

    /// The snapshot `d` would have after moving its gap-policy clock to
    /// `t` and nothing else.
    fn clock_moved(d: &Detector, t: u64) -> DetectorSnapshot {
        match d.snapshot() {
            DetectorSnapshot::Available {
                band, spike_since, ..
            } => DetectorSnapshot::Available {
                band,
                spike_since,
                last_t: Some(t),
            },
            DetectorSnapshot::Unavailable {
                cause,
                calm_since,
                revived,
                ..
            } => DetectorSnapshot::Unavailable {
                cause,
                calm_since,
                revived,
                last_t: Some(t),
            },
        }
    }

    /// `settles` holds exactly when `observe` would change only the
    /// gap-policy clock, at a time not before the last observation.
    /// Steps the detector through the whole stream; returns how many
    /// samples settled.
    fn settles_exactly(
        (cfg, stream): (DetectorConfig, Vec<(u64, Observation)>),
    ) -> Result<usize, proptest::test_runner::TestCaseError> {
        let mut d = Detector::new(cfg);
        let mut settled = 0;
        for (i, (t, o)) in stream.into_iter().enumerate() {
            let settles = d.settles(t, &o);
            let in_order = d.last_t.is_none_or(|last| last <= t);
            let quiet = Step {
                state: d.state(),
                action: None,
                edges: Edges::new(),
                gap: None,
            };
            let expected = clock_moved(&d, t);
            let before = d.snapshot();
            let step = d.observe(t, &o);
            let only_clock = step == quiet && d.snapshot() == expected;
            proptest::prop_assert_eq!(
                settles,
                in_order && only_clock,
                "sample {} at t {} ({:?}) from {:?}: {:?}",
                i,
                t,
                o,
                before,
                step
            );
            settled += usize::from(settles);
        }
        Ok(settled)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2_000))]

        /// Whenever `settles(t, obs)` holds, `observe(t, obs)` returns
        /// the same state with no edge, action or gap and leaves the
        /// snapshot as it was but for `last_t = Some(t)`; and whenever
        /// `observe` would do only that at an in-order `t`, `settles`
        /// holds.
        #[test]
        fn settles_is_exactly_a_step_that_moves_only_the_clock(
            run in streams::config_and_stream(true),
        ) {
            settles_exactly(run)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1_000_000))]

        /// The CI sweep (`scripts/ci.sh`, release): 1,000,000 streams.
        #[test]
        #[ignore]
        fn settles_is_exactly_a_step_that_moves_only_the_clock_wide(
            run in streams::config_and_stream(true),
        ) {
            settles_exactly(run)?;
        }
    }

    #[test]
    fn the_generated_streams_settle_and_step_both() {
        let (mut settled, mut total) = (0, 0);
        for case in 0..200 {
            let mut rng = proptest::test_runner::TestRng::new(case);
            let run =
                proptest::strategy::Strategy::generate(&streams::config_and_stream(true), &mut rng);
            total += run.1.len();
            settled += settles_exactly(run).expect("exact");
        }
        // Both sides of the predicate must be well exercised for the
        // property to mean anything.
        assert!(settled * 5 > total, "{settled} of {total} settled");
        assert!(settled * 5 < total * 4, "{settled} of {total} settled");
    }

    #[test]
    fn restore_rejects_invalid_config() {
        let d = Detector::new(cfg());
        let mut bad = cfg();
        bad.spike_tolerance = 0;
        assert_eq!(
            Detector::restore(bad, d.snapshot()).err(),
            Some(DetectorConfigError::ZeroSpikeTolerance)
        );
    }
}
