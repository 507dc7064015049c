//! The FGCS core: the ICPP'06 paper's primary contribution.
//!
//! * [`model`] — the five-state availability model of §4 (Figure 5),
//!   with the two contention thresholds `Th1`/`Th2`.
//! * [`monitor`] — the non-intrusive resource monitor (§5): periodic
//!   `vmstat`-style sampling of host CPU load, free memory and service
//!   liveness.
//! * [`detector`] — maps observations to states and unavailability
//!   events, applying the 1-minute transient-spike and 5-minute
//!   harvest-delay rules.
//! * [`events`] — the §5 trace record ([`TraceRecord`]) and its one
//!   assembler, [`OccurrenceRecorder`]: detector edges become
//!   unavailability occurrences with the mean guest-available CPU and
//!   memory of the preceding availability interval.
//! * [`controller`] — the guest-job state machine: renice on S2,
//!   suspend on spikes, terminate on S3/S4/S5, queue and resubmit jobs.
//! * [`cluster`] — the multi-machine iShare service: per-node
//!   controllers behind a shared queue with pluggable placement.
//! * [`contention`] — the §3.2 offline contention experiments (Figures
//!   1–4, Table 1) against the `fgcs-sim` machine.
//! * [`calibrate`] — derives `Th1`/`Th2` from the experiments, the way
//!   the paper reads them off Figure 1.
//! * [`policy`] — the §3.2.2 design space: the two-threshold policy and
//!   the rejected alternatives (gradual priorities, always-lowest,
//!   coarse-grained), executable for quantitative comparison.
//! * [`backoff`] — the shared capped-exponential-backoff-with-jitter
//!   schedule used by every retry loop in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod calibrate;
pub mod cluster;
pub mod contention;
pub mod controller;
pub mod detector;
pub mod events;
pub mod model;
pub mod monitor;
pub mod policy;

pub use controller::{Controller, ControllerConfig, ControllerStats};
pub use detector::{
    Detector, DetectorConfig, DetectorConfigError, DetectorSnapshot, EventEdge, GuestAction, Step,
};
pub use events::{OccurrenceRecorder, RecorderRestoreError, RecorderSnapshot, TraceRecord};
pub use model::{AvailState, FailureCause, LoadBand, Thresholds, NOTICEABLE_SLOWDOWN};
pub use monitor::{Monitor, MonitorSnapshot, Observation, ResourceProbe};
