//! The synthetic iShare testbed: workload generation, trace collection,
//! trace formats and the §5 analyses.
//!
//! The paper instrumented 20 student-lab Linux machines for three months;
//! that trace was never published. This crate rebuilds the pipeline
//! end-to-end on a synthetic but carefully parameterized lab model:
//!
//! * [`lab`] — the student-lab workload generator (sessions, compile
//!   bursts, the 4 AM `updatedb` job, frustration reboots, rare hardware
//!   failures), emitting exactly what a `vmstat`-style monitor observes;
//! * [`runner`] — feeds those observations through `fgcs-core`'s
//!   [`OccurrenceRecorder`] (the §4 detector plus the §5 record
//!   assembler) on every machine, in parallel;
//! * [`trace`] — JSONL and CSV round-trips of the resulting
//!   [`TraceRecord`]s;
//! * [`loadtrace`] — the raw monitor-sample layer underneath it, with
//!   offline event derivation through the same recorder (re-analyze
//!   archived logs under any thresholds);
//! * [`analysis`] — Table 2, Figure 6, Figure 7 and the §5.3 regularity
//!   analysis;
//! * [`streaming`] — the same analyses as bounded-memory sketch folds
//!   that scale to fleets of 100k+ machines;
//! * [`fleet`] — archetype-mixed fleet generation (labs, server farms,
//!   office desktops, laptops, build farms) with a deterministic
//!   per-machine fan-out;
//! * [`calendar`] — weekday/weekend and hour-of-day arithmetic;
//! * [`scenarios`] — the §6 future-work testbeds (enterprise desktop,
//!   home PC) as ready-made configurations.
//!
//! ```
//! use fgcs_testbed::runner::{run_testbed, TestbedConfig};
//! use fgcs_testbed::analysis;
//!
//! let mut cfg = TestbedConfig::tiny();
//! cfg.lab.days = 2;
//! let trace = run_testbed(&cfg);
//! let t2 = analysis::table2(&trace);
//! assert!(t2.total.max > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod calendar;
pub mod fleet;
pub mod json;
pub mod lab;
pub mod loadtrace;
pub mod quality;
pub mod runner;
pub mod scenarios;
pub mod streaming;
pub mod trace;

pub use fleet::{run_fleet, Archetype, FleetConfig, FleetResult};
pub use lab::{LabConfig, LoadSample, MachinePlan};
pub use quality::{MachineQuality, QualityTotals, TraceQualityReport};
pub use runner::{
    backoff_delay, run_testbed, run_testbed_faulty, trace_machine, trace_machine_batched,
    trace_machine_supervised, trace_machine_supervised_per_sample, OccurrenceRecorder,
    RecorderRestoreError, RecorderSnapshot, SupervisorConfig, TestbedConfig,
};
pub use streaming::{StreamingAnalysis, Table2Summary};
pub use trace::{Trace, TraceError, TraceMeta, TraceRecord};
