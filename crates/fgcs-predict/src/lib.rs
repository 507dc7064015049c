//! Availability prediction for fine-grained cycle sharing.
//!
//! The ICPP'06 paper establishes *that* FGCS availability is predictable
//! (daily patterns repeat, §5.3) and leaves the predictors themselves as
//! future work (§6). This crate builds them:
//!
//! * [`predictor`] — the paper's history-window scheme (same clock
//!   window on recent same-type days, with irregular-data trimming), the
//!   baselines it must beat (global-rate Poisson, hourly-rate Poisson,
//!   last-day, base-rate), the placement-grade machine-hourly predictor,
//!   and [`predictor::EventIndex`], the crate's one occurrence index.
//! * [`eval`] — train/test evaluation with Brier score and accuracy
//!   over a grid of window lengths.
//! * [`renewal`] — a renewal-theory predictor built directly on the
//!   Figure 6 interval-length distributions.
//! * [`online`] — the streaming model behind the availability service,
//!   bit-identical to the machine-hourly predictor on the same records.
//! * [`proactive`] — the motivating application: proactive guest-job
//!   placement versus oblivious random placement for single and gang
//!   jobs, replayed over testbed traces, comparing job response times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod online;
pub mod predictor;
pub mod proactive;
pub mod renewal;

pub use eval::{evaluate, standard_predictors, EvalConfig, EvalResult};
pub use online::OnlineAvailabilityModel;
pub use predictor::{
    AvailabilityPredictor, BaseRatePredictor, GlobalRatePredictor, HistoryWindowPredictor,
    HourlyRatePredictor, MachineHourlyPredictor,
};
pub use proactive::{
    compare, compare_gang, replay, replay_gang, time_to_failure, GangConfig, MigrationTrigger,
    Policy, PolicyOutcome, ProactiveConfig,
};
pub use renewal::RenewalPredictor;
