//! Archetype-mixed fleet generation and streaming fleet analysis.
//!
//! The paper's testbed is 20 student-lab machines. A production FGCS
//! system federates *heterogeneous fleets* — labs next to server farms
//! next to laptops — at scales where per-interval vectors do not fit in
//! memory. This module generates such fleets deterministically and
//! folds every machine's occurrence stream straight into
//! [`StreamingAnalysis`] accumulators, per archetype and combined:
//! memory stays bounded by the sketch capacity and the trace length, not
//! the machine count.
//!
//! Determinism: machines are traced in parallel, one machine per work
//! item of [`fgcs_par::par_map_reduce`], and folded on the calling
//! thread in machine order. Fold and merge grouping is fixed by
//! fixed-size chunks (a config constant, *not* derived from the worker
//! count): each chunk's partial accumulator is merged in chunk order.
//! The result is bit-identical for any `FGCS_PAR_WORKERS`.

use fgcs_core::detector::DetectorConfig;
use fgcs_stats::rng::Rng;
use fgcs_stats::sketch;

use crate::lab::LabConfig;
use crate::runner::{trace_machine_batched, TestbedConfig};
use crate::scenarios;
use crate::streaming::StreamingAnalysis;

/// A machine-population archetype in a heterogeneous fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Archetype {
    /// The paper's shared student-lab machines (the baseline).
    StudentLab,
    /// Rack servers: no console users, near-continuous uptime, only
    /// cron jobs and rare hardware failures interrupt the guest.
    ServerFarm,
    /// Office desktops: 9-to-5 single owners who power the machine off
    /// overnight — long *scheduled* unavailability.
    OfficeDesktop,
    /// Laptops: evening-heavy usage and lid-close revocations — the
    /// machine vanishes mid-interval without a reboot signature.
    Laptop,
    /// Build-farm workers: no console users but bursty compile storms
    /// that saturate CPU and memory at unpredictable hours.
    BuildFarm,
}

impl Archetype {
    /// Every archetype, in the canonical fleet order.
    pub const ALL: [Archetype; 5] = [
        Archetype::StudentLab,
        Archetype::ServerFarm,
        Archetype::OfficeDesktop,
        Archetype::Laptop,
        Archetype::BuildFarm,
    ];

    /// Stable identifier used in CSVs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Archetype::StudentLab => "student-lab",
            Archetype::ServerFarm => "server-farm",
            Archetype::OfficeDesktop => "office-desktop",
            Archetype::Laptop => "laptop",
            Archetype::BuildFarm => "build-farm",
        }
    }

    /// The workload model for this archetype. Fleet-level fields
    /// (`seed`, `machines`, `days`) are overwritten by the runner.
    pub fn lab_config(self) -> LabConfig {
        match self {
            Archetype::StudentLab => scenarios::student_lab(),
            Archetype::ServerFarm => LabConfig {
                // No console users at all: occupancy zero draws no
                // session randomness, leaving cron and failures.
                weekday_occupancy: [0.0; 24],
                weekend_occupancy: [0.0; 24],
                reboots_per_session_hour: 0.0,
                // Background daemons churn a bit more than a lab box.
                idle_load_max: 0.06,
                blips_per_hour: 2.5,
                // Servers fail rarely but repairs take long.
                hw_failures_per_day: 0.002,
                hw_downtime_median_secs: 14_400.0,
                ..LabConfig::default()
            },
            Archetype::OfficeDesktop => LabConfig {
                // Shut down at 7 PM most days, back at 8 AM.
                nightly_off_hours: Some((19, 8)),
                nightly_off_prob: 0.85,
                ..scenarios::enterprise_desktop()
            },
            Archetype::Laptop => LabConfig {
                // The lid closes mid-session far more often than anyone
                // reboots: revocation dominates every other cause.
                lid_close_per_session_hour: 0.30,
                lid_close_secs: (300, 7_200),
                reboots_per_session_hour: 0.002,
                hw_failures_per_day: 0.001,
                ..scenarios::home_pc()
            },
            Archetype::BuildFarm => LabConfig {
                weekday_occupancy: [0.0; 24],
                weekend_occupancy: [0.0; 24],
                reboots_per_session_hour: 0.0,
                // CI storms arrive at all hours and pin the machine.
                storms_per_day: 6.0,
                storm_secs: (300, 2_700),
                storm_load: (0.75, 1.0),
                storm_mem_mb: (400, 900),
                idle_load_max: 0.05,
                hw_failures_per_day: 0.004,
                ..LabConfig::default()
            },
        }
    }
}

/// Fleet composition and scale.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Master seed; each archetype derives an independent stream.
    pub seed: u64,
    /// Total machine count across all archetypes.
    pub machines: usize,
    /// Trace length in days.
    pub days: usize,
    /// Relative archetype weights (need not sum to 1; zero-weight
    /// archetypes are excluded).
    pub mix: Vec<(Archetype, f64)>,
    /// Detector parameters, shared by the whole fleet.
    pub detector: DetectorConfig,
    /// Capacity of the interval sketches.
    pub sketch_k: usize,
    /// Machines per merge group: each group's machines are folded into
    /// one partial accumulator, which is then merged into the totals.
    /// Not a unit of parallel work (that is one machine). A fixed
    /// constant — the grouping decides the float sums, so it must not
    /// depend on the worker count or determinism is lost.
    pub chunk_size: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 20060301,
            machines: 1_000,
            days: 92,
            mix: default_mix(),
            detector: DetectorConfig::wallclock_default(),
            sketch_k: sketch::DEFAULT_K,
            chunk_size: 64,
        }
    }
}

/// A plausible federated-fleet composition: labs and desktops dominate,
/// with server and build capacity and a laptop long tail.
pub fn default_mix() -> Vec<(Archetype, f64)> {
    vec![
        (Archetype::StudentLab, 0.25),
        (Archetype::ServerFarm, 0.20),
        (Archetype::OfficeDesktop, 0.30),
        (Archetype::Laptop, 0.15),
        (Archetype::BuildFarm, 0.10),
    ]
}

impl FleetConfig {
    /// A small configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        FleetConfig {
            machines: 200,
            days: 14,
            sketch_k: 512,
            chunk_size: 16,
            ..FleetConfig::default()
        }
    }

    /// How many machines each archetype receives: proportional to its
    /// weight, floors first, remainder to the largest fractional parts
    /// (ties broken by mix order). Deterministic; sums to `machines`.
    pub fn archetype_counts(&self) -> Vec<(Archetype, usize)> {
        let active: Vec<(Archetype, f64)> =
            self.mix.iter().filter(|(_, w)| *w > 0.0).copied().collect();
        let total_w: f64 = active.iter().map(|(_, w)| w).sum();
        if active.is_empty() || total_w <= 0.0 || self.machines == 0 {
            return Vec::new();
        }
        let mut counts: Vec<(Archetype, usize)> = Vec::with_capacity(active.len());
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(active.len());
        let mut assigned = 0usize;
        for (i, (a, w)) in active.iter().enumerate() {
            let share = self.machines as f64 * w / total_w;
            let floor = share.floor() as usize;
            counts.push((*a, floor));
            fracs.push((i, share - floor as f64));
            assigned += floor;
        }
        // Largest-remainder apportionment for the leftover machines.
        fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for (i, _) in fracs.iter().take(self.machines - assigned) {
            counts[*i].1 += 1;
        }
        counts
    }

    /// The fully-resolved per-archetype lab configuration: the
    /// archetype's workload model with this fleet's scale and a seed
    /// derived from the fleet seed (one independent stream per
    /// archetype, machines within it split further by machine id).
    pub fn resolved_lab(&self, arch: Archetype, count: usize) -> LabConfig {
        let idx = Archetype::ALL.iter().position(|a| *a == arch).unwrap() as u64;
        LabConfig {
            seed: Rng::for_stream(self.seed, idx).next_u64(),
            machines: count,
            days: self.days,
            ..arch.lab_config()
        }
    }
}

/// Per-archetype and combined streaming analyses for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// One accumulator per archetype with a nonzero machine count, in
    /// [`Archetype::ALL`] order restricted to the mix.
    pub per_archetype: Vec<(Archetype, StreamingAnalysis)>,
    /// All archetypes merged.
    pub combined: StreamingAnalysis,
}

impl FleetResult {
    /// The accumulator for one archetype, if it was part of the mix.
    pub fn archetype(&self, a: Archetype) -> Option<&StreamingAnalysis> {
        self.per_archetype
            .iter()
            .find(|(b, _)| *b == a)
            .map(|(_, s)| s)
    }
}

/// Runs the whole fleet: every machine is traced with the batched
/// tracer and folded into streaming accumulators. Machines are the
/// parallel work items; one open chunk partial and the per-archetype
/// totals are the only accumulators, so peak memory is
/// `O(archetypes × (days + sketch_k))` plus the records of machines
/// traced ahead of a slower earlier one — independent of the machine
/// count. Deterministic in the seed for any worker count.
pub fn run_fleet(cfg: &FleetConfig) -> FleetResult {
    let counts = cfg.archetype_counts();
    let start_weekday = LabConfig::default().start_weekday;

    // Resolve per-archetype testbed configs and the global machine
    // layout: archetype `a` owns the contiguous block
    // [prefix[a], prefix[a] + count_a).
    let mut testbeds: Vec<TestbedConfig> = Vec::with_capacity(counts.len());
    let mut prefix: Vec<usize> = Vec::with_capacity(counts.len() + 1);
    prefix.push(0);
    for (arch, count) in &counts {
        testbeds.push(TestbedConfig {
            lab: cfg.resolved_lab(*arch, *count),
            detector: cfg.detector,
        });
        prefix.push(prefix.last().unwrap() + count);
    }
    let total = *prefix.last().unwrap();

    let chunk = cfg.chunk_size.max(1);
    let fresh = || -> Vec<StreamingAnalysis> {
        counts
            .iter()
            .map(|_| StreamingAnalysis::new(cfg.days, start_weekday, cfg.sketch_k))
            .collect()
    };

    // Each machine is one work item; its records are folded on the
    // calling thread in machine order into the open chunk's partial,
    // which is merged into the totals once its `chunk` machines are in.
    // The folds and merges are those of a serial run, in the same order,
    // so the result is bit-identical for any worker count; only records
    // that finished ahead of a slower earlier machine are ever held.
    let (mut per, mut open) = (fresh(), fresh());
    fgcs_par::par_map_reduce(
        &vec![(); total], // zero-sized: the item's index is the machine
        |m, _| {
            // Which archetype block does global machine `m` fall in?
            let a = prefix.partition_point(|&p| p <= m) - 1;
            (a, trace_machine_batched(&testbeds[a], m - prefix[a]))
        },
        0,
        |m, (a, records)| {
            open[a].push_machine(&records);
            if (m + 1) % chunk == 0 || m + 1 == total {
                for (mine, theirs) in per.iter_mut().zip(&open) {
                    mine.merge(theirs);
                }
                open = fresh();
            }
            m + 1
        },
    );

    let mut combined = StreamingAnalysis::new(cfg.days, start_weekday, cfg.sketch_k);
    for acc in &per {
        combined.merge(acc);
    }
    FleetResult {
        per_archetype: counts.iter().map(|(a, _)| *a).zip(per).collect(),
        combined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_core::model::FailureCause;

    #[test]
    fn counts_are_proportional_and_exact() {
        let cfg = FleetConfig {
            machines: 1_003,
            ..FleetConfig::default()
        };
        let counts = cfg.archetype_counts();
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<usize>(), 1_003);
        assert_eq!(counts.len(), 5);
        for (a, c) in &counts {
            let w = cfg.mix.iter().find(|(b, _)| b == a).unwrap().1;
            let share = 1_003.0 * w;
            assert!(
                (*c as f64 - share).abs() <= 1.0,
                "{a:?}: {c} vs share {share}"
            );
        }
    }

    #[test]
    fn zero_weight_archetypes_are_excluded() {
        let cfg = FleetConfig {
            machines: 100,
            mix: vec![(Archetype::StudentLab, 1.0), (Archetype::Laptop, 0.0)],
            ..FleetConfig::default()
        };
        let counts = cfg.archetype_counts();
        assert_eq!(counts, vec![(Archetype::StudentLab, 100)]);
    }

    #[test]
    fn fleet_run_is_deterministic_across_worker_counts() {
        // 40 machines in chunks of 7 (not a divisor), and 5 machines,
        // fewer than one chunk, traced in parallel all the same. The
        // one-worker run is the serial definition.
        for (machines, chunk_size) in [(40, 7), (5, 7)] {
            let mut cfg = FleetConfig::smoke();
            cfg.machines = machines;
            cfg.days = 5;
            cfg.chunk_size = chunk_size;
            let prev = std::env::var("FGCS_PAR_WORKERS").ok();
            std::env::set_var("FGCS_PAR_WORKERS", "1");
            let a = run_fleet(&cfg);
            std::env::set_var("FGCS_PAR_WORKERS", "4");
            let b = run_fleet(&cfg);
            match prev {
                Some(v) => std::env::set_var("FGCS_PAR_WORKERS", v),
                None => std::env::remove_var("FGCS_PAR_WORKERS"),
            }
            assert_eq!(a.combined.machines(), machines as u64);
            assert_eq!(format!("{:?}", a.combined), format!("{:?}", b.combined));
            for ((aa, x), (ab, y)) in a.per_archetype.iter().zip(&b.per_archetype) {
                assert_eq!(aa, ab);
                assert_eq!(format!("{x:?}"), format!("{y:?}"), "{machines} machines");
            }
        }
    }

    #[test]
    fn archetypes_behave_according_to_their_story() {
        let mut cfg = FleetConfig::smoke();
        cfg.machines = 50;
        cfg.days = 14;
        let result = run_fleet(&cfg);
        assert_eq!(result.combined.machines(), 50);

        let t2 = |a: Archetype| {
            result
                .archetype(a)
                .expect("in default mix")
                .table2_summary()
        };
        // Server farms barely go unavailable compared to labs.
        let lab = t2(Archetype::StudentLab);
        let servers = t2(Archetype::ServerFarm);
        let lab_rate = lab.occurrences as f64 / lab.machines as f64;
        let server_rate = servers.occurrences as f64 / servers.machines as f64;
        assert!(
            server_rate < lab_rate,
            "servers {server_rate} vs lab {lab_rate}"
        );
        // Office desktops see far more revocation (nightly power-off).
        let office = t2(Archetype::OfficeDesktop);
        assert!(
            office.urr.max > lab.urr.max,
            "office URR {:?} vs lab {:?}",
            office.urr,
            lab.urr
        );
        // Laptop lid-closes are revocations *without* the reboot
        // signature, so their reboot fraction collapses.
        let laptop = t2(Archetype::Laptop);
        assert!(
            laptop.urr_reboot_fraction < 0.5,
            "laptop reboot fraction {}",
            laptop.urr_reboot_fraction
        );
        assert!(laptop.urr.max > 0, "lid closes must register");
    }

    #[test]
    fn lid_close_produces_revocations_in_the_raw_trace() {
        let mut lab = Archetype::Laptop.lab_config();
        lab.machines = 4;
        lab.days = 14;
        let cfg = TestbedConfig {
            lab,
            detector: fgcs_core::detector::DetectorConfig::wallclock_default(),
        };
        let urr: usize = (0..4)
            .map(|m| {
                trace_machine_batched(&cfg, m)
                    .iter()
                    .filter(|r| r.cause == FailureCause::Revocation)
                    .count()
            })
            .sum();
        assert!(urr > 5, "lid closes over 8 laptop-weeks, got {urr}");
    }
}
