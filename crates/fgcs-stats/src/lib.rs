//! Statistics substrate for the `fgcs` workspace.
//!
//! The ICPP'06 FGCS study is, at heart, an empirical-statistics paper:
//! reduction-rate curves, cumulative distributions of interval lengths,
//! per-hour frequency bands. The offline crate set available to this
//! workspace has no statistics library of the required shape, so this
//! crate implements the needed machinery from scratch:
//!
//! * [`rng`] — a deterministic, seedable PRNG (xoshiro256++ seeded through
//!   SplitMix64) with stream splitting, so every simulation in the
//!   workspace is reproducible bit-for-bit from a single seed.
//! * [`dist`] — the random distributions used by the workload generators
//!   (uniform, Bernoulli, exponential, Poisson, normal, log-normal,
//!   discrete/weighted with alias tables).
//! * [`desc`] — streaming descriptive statistics (Welford) with parallel
//!   merge, used by every analysis pass.
//! * [`mod@quantile`] — sample quantiles with linear interpolation.
//! * [`ecdf`] — empirical CDFs (Figure 6 of the paper).
//! * [`grouped`] — keyed statistics (mean + range per hour-of-day bucket,
//!   Figure 7 of the paper).
//! * [`corr`] — correlation and coefficient-of-variation helpers used by
//!   the daily-pattern regularity analysis.
//! * [`bootstrap`] — percentile-bootstrap confidence intervals for the
//!   trace statistics.
//! * [`sketch`] — a mergeable, deterministic streaming quantile/CDF
//!   sketch with a runtime-certified rank-error bound, for fleet-scale
//!   analyses that cannot afford sort-the-world.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod corr;
pub mod desc;
pub mod dist;
pub mod ecdf;
pub mod grouped;
pub mod quantile;
pub mod rng;
pub mod sketch;

pub use desc::OnlineStats;
pub use ecdf::Ecdf;
pub use quantile::{median, quantile};
pub use rng::Rng;
pub use sketch::RankSketch;
