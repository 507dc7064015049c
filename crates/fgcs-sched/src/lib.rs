//! Prediction-driven guest scheduling over the availability cluster.
//!
//! The paper's thesis is that multi-state availability *prediction*
//! should drive guest-job placement in a fine-grained cycle-sharing
//! system. The rest of the stack produces those predictions — the
//! detector and testbed (`fgcs-core`, `fgcs-testbed`), the predictors
//! (`fgcs-predict`), and the replicated availability service with its
//! cluster router (`fgcs-service`). This crate closes the loop: a
//! scheduler that consumes availability predictions and placement
//! stats from the cluster and decides *where guest jobs actually run*.
//!
//! Three concerns, three modules:
//!
//! - [`fairshare`]: per-user quota accounting. Every user owns `base`
//!   concurrent guest slots and can request/release *extra* slots from
//!   a shared pool; admission control and dispatch are gated on the
//!   resulting allowance. Invariants are documented on
//!   [`fairshare::Fairshare`] and asserted in tests.
//! - [`policy`] + [`sched`]: placement and the job lifecycle. The
//!   prediction-driven policy ranks harvestable machines by predicted
//!   time-to-unavailability for the job's *remaining* runtime
//!   (`fgcs_predict::time_to_failure`); random and predictionless
//!   greedy baselines share the same dispatch path, so experiment
//!   comparisons are paired. Guests checkpoint periodically; a host
//!   revocation (the `fgcs-sim`/`fgcs-testbed` semantics: the guest is
//!   killed where it stands) loses exactly the un-checkpointed
//!   progress, while an SLO-driven migration
//!   (`fgcs_predict::MigrationTrigger`) banks progress first and pays
//!   a fixed re-placement cost.
//! - [`serve`] + [`source`]: the service surface. A thin wire API
//!   (`Frame::Sched*`, DESIGN.md §9 tags 20–26), answered on the
//!   availability service's epoll event loop (`fgcs_service::EventLoop`,
//!   so Linux only), over a tick loop that polls an
//!   [`source::AvailabilitySource`] — in production the cluster router
//!   ([`source::ClusterSource`]), in tests anything.
//!
//! DESIGN.md §14 describes the placement policy, the fairshare
//! invariants, and the migration state machine; experiment X14
//! (`fgcs-experiments`, `results/sched_eval.csv`) evaluates the three
//! policies against each other over replayed testbed traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fairshare;
pub mod policy;
pub mod sched;
pub mod serve;
pub mod source;

pub use fairshare::{Fairshare, ShareStatus};
pub use policy::Policy;
pub use sched::{Job, JobState, SchedConfig, Scheduler};
pub use serve::{SchedServeConfig, SchedServer};
pub use source::{AvailabilitySource, ClusterSource, MachineView};
