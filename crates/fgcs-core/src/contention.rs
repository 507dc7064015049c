//! The §3.2 resource-contention experiments.
//!
//! This is the offline experiment harness the paper uses to derive the
//! two thresholds: run a host group alone to measure its isolated CPU
//! usage `LH`, run it again with a guest process, and report the
//! *reduction rate of host CPU usage* — plus the guest-side and
//! memory-side variants behind Figures 2–4 and Table 1.

use fgcs_sim::machine::{Machine, MachineConfig};
use fgcs_sim::proc::ProcSpec;
use fgcs_sim::time::secs;
use fgcs_sim::workloads::{musbus, spec, synthetic};
use fgcs_stats::rng::Rng;

/// Harness configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionConfig {
    /// Settling time before measurement starts, seconds. Lets quantum
    /// counters and duty-cycle phases reach steady state.
    pub warmup_secs: u64,
    /// Measurement window, seconds.
    pub measure_secs: u64,
    /// Random host-group combinations averaged per data point ("for each
    /// tested host group, multiple combinations of host processes were
    /// used", §3.2.1).
    pub combos: usize,
    /// Base seed; every data point derives an independent stream.
    pub seed: u64,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig {
            warmup_secs: 20,
            measure_secs: 240,
            combos: 12,
            seed: 0x46474353,
        }
    }
}

impl ContentionConfig {
    /// A cheaper configuration for tests and benchmarks.
    pub fn quick() -> Self {
        ContentionConfig {
            warmup_secs: 10,
            measure_secs: 120,
            combos: 6,
            seed: 0x46474353,
        }
    }
}

/// Result of measuring one host group against one guest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupMeasurement {
    /// Host CPU usage measured with no guest present (the paper's `LH`).
    pub lh_isolated: f64,
    /// Host CPU usage measured with the guest running.
    pub lh_contended: f64,
    /// `(lh_isolated − lh_contended) / lh_isolated`, floored at 0.
    pub reduction_rate: f64,
    /// CPU usage achieved by the guest during the contended run.
    pub guest_usage: f64,
    /// Whether the contended run thrashed memory at any point.
    pub thrashing: bool,
}

/// A fresh machine of the given configuration running `hosts`.
pub(crate) fn machine_with(machine_cfg: &MachineConfig, hosts: &[ProcSpec]) -> Machine {
    let mut m = Machine::new(machine_cfg.clone());
    for h in hosts {
        m.spawn(h.clone());
    }
    m
}

/// The paper's `LH`: host CPU usage of `hosts` running alone, measured
/// for `measure_secs` after `warmup_secs` — the isolated baseline of
/// every reduction rate.
pub(crate) fn isolated_host_load(
    machine_cfg: &MachineConfig,
    hosts: &[ProcSpec],
    warmup_secs: u64,
    measure_secs: u64,
) -> f64 {
    let mut alone = machine_with(machine_cfg, hosts);
    alone.run_ticks(secs(warmup_secs));
    alone.measure(secs(measure_secs)).host_load()
}

/// The *reduction rate of host CPU usage*:
/// `(lh_isolated − lh_contended) / lh_isolated`, floored at 0, and 0
/// for a host group that used no CPU alone.
pub(crate) fn reduction_rate(lh_isolated: f64, lh_contended: f64) -> f64 {
    if lh_isolated > 0.0 {
        ((lh_isolated - lh_contended) / lh_isolated).max(0.0)
    } else {
        0.0
    }
}

/// Runs a host group alone and then together with `guest`, on fresh
/// machines of the given configuration.
pub fn measure_group(
    machine_cfg: &MachineConfig,
    hosts: &[ProcSpec],
    guest: Option<&ProcSpec>,
    cfg: &ContentionConfig,
) -> GroupMeasurement {
    let lh_isolated = isolated_host_load(machine_cfg, hosts, cfg.warmup_secs, cfg.measure_secs);

    // Contended run.
    let mut together = machine_with(machine_cfg, hosts);
    if let Some(g) = guest {
        together.spawn(g.clone());
    }
    let thrash_at_start = together.is_thrashing();
    together.run_ticks(secs(cfg.warmup_secs));
    let con = together.measure(secs(cfg.measure_secs));
    let lh_contended = con.host_load();

    GroupMeasurement {
        lh_isolated,
        lh_contended,
        reduction_rate: reduction_rate(lh_isolated, lh_contended),
        guest_usage: con.guest_load(),
        thrashing: thrash_at_start || together.is_thrashing(),
    }
}

/// One point of the Figure 1 curves: the mean reduction rate over
/// `cfg.combos` random host-group combinations with the given target
/// `LH`, group size `m`, and guest nice value.
pub fn reduction_point(lh: f64, m: usize, guest_nice: i8, cfg: &ContentionConfig) -> f64 {
    // Low LH values cannot be split across large groups without
    // violating the per-member usage floor; cap the group size the way
    // the paper's experimenters would (you cannot build a 5-process
    // group that only uses 5% of the CPU in total).
    let m = m.min(synthetic::max_group_size(lh));
    // Combos fan out across workers; each derives its RNG purely from
    // (seed, combo index), and the rates are summed in combo order on
    // the calling thread, so the mean is bit-identical to the serial
    // loop at any worker count. Called from inside a sweep's worker this
    // runs inline (fgcs-par never nests pools).
    let rates = fgcs_par::par_jobs(cfg.combos, |combo| {
        // Independent deterministic stream per (LH, m, nice, combo).
        let stream = (lh * 1000.0) as u64
            ^ ((m as u64) << 20)
            ^ ((guest_nice as u64) << 32)
            ^ ((combo as u64) << 40);
        let mut rng = Rng::for_stream(cfg.seed, stream);
        let hosts = synthetic::host_group(&mut rng, lh, m);
        let guest = synthetic::guest_process(guest_nice);
        measure_group(&MachineConfig::default(), &hosts, Some(&guest), cfg).reduction_rate
    });
    rates.iter().sum::<f64>() / cfg.combos as f64
}

/// A row of the Figure 1 data: group size, target load, mean reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Row {
    /// Target isolated host load.
    pub lh: f64,
    /// Host group size `M`.
    pub m: usize,
    /// Mean reduction rate of host CPU usage.
    pub reduction: f64,
}

/// Sweeps Figure 1: `LH ∈ lh_values × M ∈ m_values` at one guest nice
/// value, in parallel.
pub fn fig1_sweep(
    guest_nice: i8,
    lh_values: &[f64],
    m_values: &[usize],
    cfg: &ContentionConfig,
) -> Vec<Fig1Row> {
    let points: Vec<(f64, usize)> = lh_values
        .iter()
        .flat_map(|&lh| m_values.iter().map(move |&m| (lh, m)))
        .collect();
    fgcs_par::par_map(&points, |&(lh, m)| Fig1Row {
        lh,
        m,
        reduction: reduction_point(lh, m, guest_nice, cfg),
    })
}

/// The standard Figure 1 grid: `LH ∈ {0.1, …, 1.0}`, `M ∈ {1, …, 5}`.
pub fn fig1_standard_grid() -> (Vec<f64>, Vec<usize>) {
    (
        (1..=10).map(|i| i as f64 / 10.0).collect(),
        (1..=5).collect(),
    )
}

/// A row of the Figure 2 surface: reduction rate for one host load and
/// one guest priority.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Row {
    /// Isolated host CPU usage (single host process).
    pub lh: f64,
    /// Guest nice value.
    pub guest_nice: i8,
    /// Mean reduction rate of host CPU usage.
    pub reduction: f64,
}

/// Sweeps Figure 2: a single host process against guests of different
/// priorities — the experiment showing that gradually decreasing guest
/// priority buys nothing between `Th1` and `Th2`.
pub fn priority_sweep(
    lh_values: &[f64],
    nice_values: &[i8],
    cfg: &ContentionConfig,
) -> Vec<Fig2Row> {
    let points: Vec<(f64, i8)> = lh_values
        .iter()
        .flat_map(|&lh| nice_values.iter().map(move |&n| (lh, n)))
        .collect();
    fgcs_par::par_map(&points, |&(lh, nice)| {
        let hosts = [synthetic::host_process("host", lh)];
        let guest = synthetic::guest_process(nice);
        let meas = measure_group(&MachineConfig::default(), &hosts, Some(&guest), cfg);
        Fig2Row {
            lh,
            guest_nice: nice,
            reduction: meas.reduction_rate,
        }
    })
}

/// A row of Figure 3: guest CPU usage under light host load, equal
/// versus lowest priority.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Row {
    /// Isolated host CPU usage.
    pub host_usage: f64,
    /// Isolated guest CPU usage.
    pub guest_usage_isolated: f64,
    /// Guest nice value (0 or 19).
    pub guest_nice: i8,
    /// Actual guest CPU usage in the contended run.
    pub guest_usage_actual: f64,
}

/// Sweeps Figure 3: CPU-intensive guests (isolated usage ≥ 0.7) with
/// priority 0 and 19 under light host workloads (`LH ≤ 0.2`).
pub fn guest_usage_experiment(
    host_usages: &[f64],
    guest_usages: &[f64],
    cfg: &ContentionConfig,
) -> Vec<Fig3Row> {
    let points: Vec<(f64, f64, i8)> = host_usages
        .iter()
        .flat_map(|&h| {
            guest_usages
                .iter()
                .flat_map(move |&g| [0i8, 19i8].into_iter().map(move |n| (h, g, n)))
        })
        .collect();
    fgcs_par::par_map(&points, |&(h, g, nice)| {
        let hosts = [synthetic::host_process("host", h)];
        let guest = synthetic::guest_with_usage(g, nice);
        let meas = measure_group(&MachineConfig::default(), &hosts, Some(&guest), cfg);
        Fig3Row {
            host_usage: h,
            guest_usage_isolated: g,
            guest_nice: nice,
            guest_usage_actual: meas.guest_usage,
        }
    })
}

/// A row of Figure 4: one SPEC guest against one Musbus host workload on
/// the 384 MB Solaris machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Host workload name (H1–H6).
    pub workload: &'static str,
    /// Guest application name.
    pub guest_app: &'static str,
    /// Guest nice value (0 or 19).
    pub guest_nice: i8,
    /// Reduction rate of host CPU usage.
    pub reduction: f64,
    /// Whether the combination thrashed memory (the starred bars).
    pub thrashing: bool,
}

/// Sweeps Figure 4: every `(H1–H6) × (apsi, galgel, bzip2, mcf) × nice
/// {0, 19}` combination on the Solaris-class machine.
pub fn spec_musbus_experiment(cfg: &ContentionConfig) -> Vec<Fig4Row> {
    let mut points = Vec::new();
    for h in musbus::all() {
        for a in spec::all() {
            for nice in [0i8, 19i8] {
                points.push((h, a, nice));
            }
        }
    }
    fgcs_par::par_map(&points, |&(h, a, nice)| {
        let hosts = h.processes();
        let guest = a.guest_spec(nice);
        let meas = measure_group(&MachineConfig::solaris_384mb(), &hosts, Some(&guest), cfg);
        Fig4Row {
            workload: h.name,
            guest_app: a.name,
            guest_nice: nice,
            reduction: meas.reduction_rate,
            thrashing: meas.thrashing,
        }
    })
}

/// A row of Table 1: measured resource usage of one application or host
/// workload running alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Application or workload name.
    pub name: &'static str,
    /// Measured isolated CPU usage.
    pub cpu_usage: f64,
    /// Resident set size, MB.
    pub resident_mb: u32,
    /// Virtual size, MB.
    pub virtual_mb: u32,
}

/// Reproduces Table 1 by measuring every application and workload alone
/// on the Solaris-class machine.
pub fn table1_measurements(cfg: &ContentionConfig) -> Vec<Table1Row> {
    // Each row is an independent measurement on its own fresh machine;
    // par_map preserves input order, so the table keeps the paper's
    // apps-then-workloads row order.
    let apps = spec::all();
    let mut rows = fgcs_par::par_map(&apps, |a| {
        // A lone guest's usage is reported in the guest counter.
        let mut m = machine_with(&MachineConfig::solaris_384mb(), &[a.guest_spec(0)]);
        m.run_ticks(secs(cfg.warmup_secs));
        let acct = m.measure(secs(cfg.measure_secs));
        Table1Row {
            name: a.name,
            cpu_usage: acct.guest_load(),
            resident_mb: a.resident_mb,
            virtual_mb: a.virtual_mb,
        }
    });
    let workloads = musbus::all();
    rows.extend(fgcs_par::par_map(&workloads, |h| {
        let meas = measure_group(&MachineConfig::solaris_384mb(), &h.processes(), None, cfg);
        let (res, virt) = h.processes().iter().fold((0, 0), |(r, v), p| {
            (r + p.mem.resident_mb, v + p.mem.virtual_mb)
        });
        Table1Row {
            name: h.name,
            cpu_usage: meas.lh_isolated,
            resident_mb: res,
            virtual_mb: virt,
        }
    }));
    rows
}

/// Convenience: reduction rates and `LH` values for one guest class,
/// indexed `[m][lh]` as the paper's Figure 1 plots them.
pub fn fig1_series(rows: &[Fig1Row], m: usize) -> Vec<(f64, f64)> {
    let mut series: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.m == m)
        .map(|r| (r.lh, r.reduction))
        .collect();
    series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_host_has_zero_reduction() {
        let cfg = ContentionConfig::quick();
        let hosts = [synthetic::host_process("h", 0.3)];
        let m = measure_group(&MachineConfig::default(), &hosts, None, &cfg);
        assert!(m.reduction_rate < 0.02, "reduction {}", m.reduction_rate);
        assert!((m.lh_isolated - 0.3).abs() < 0.05);
        assert!(!m.thrashing);
        assert_eq!(m.guest_usage, 0.0);
    }

    #[test]
    fn equal_priority_guest_hurts_heavy_host() {
        let cfg = ContentionConfig::quick();
        let hosts = [synthetic::host_process("h", 0.8)];
        let guest = synthetic::guest_process(0);
        let m = measure_group(&MachineConfig::default(), &hosts, Some(&guest), &cfg);
        assert!(m.reduction_rate > 0.15, "reduction {}", m.reduction_rate);
    }

    #[test]
    fn nice19_guest_spares_light_host() {
        let cfg = ContentionConfig::quick();
        let hosts = [synthetic::host_process("h", 0.3)];
        let guest = synthetic::guest_process(19);
        let m = measure_group(&MachineConfig::default(), &hosts, Some(&guest), &cfg);
        assert!(m.reduction_rate < 0.05, "reduction {}", m.reduction_rate);
        assert!(m.guest_usage > 0.5, "guest should harvest idle cycles");
    }

    #[test]
    fn reduction_grows_with_lh() {
        let cfg = ContentionConfig::quick();
        let low = reduction_point(0.2, 1, 0, &cfg);
        let high = reduction_point(0.9, 1, 0, &cfg);
        assert!(high > low + 0.1, "low {low} high {high}");
    }

    #[test]
    fn reduction_decreases_with_group_size() {
        let cfg = ContentionConfig::quick();
        let m1 = reduction_point(0.5, 1, 0, &cfg);
        let m5 = reduction_point(0.5, 5, 0, &cfg);
        assert!(m5 < m1, "m1 {m1} m5 {m5}");
    }

    #[test]
    fn fig1_sweep_covers_grid() {
        let cfg = ContentionConfig::quick();
        let rows = fig1_sweep(19, &[0.2, 0.8], &[1, 3], &cfg);
        assert_eq!(rows.len(), 4);
        let series = fig1_series(&rows, 3);
        assert_eq!(series.len(), 2);
        assert!(series[0].0 < series[1].0);
    }

    #[test]
    fn fig4_galgel_never_thrashes() {
        // galgel's 29 MB working set fits alongside every host workload.
        let cfg = ContentionConfig::quick();
        let rows = spec_musbus_experiment(&cfg);
        for r in rows.iter().filter(|r| r.guest_app == "galgel") {
            assert!(!r.thrashing, "galgel thrashing against {}", r.workload);
        }
        // And apsi against H2 must thrash: 213 + 193 + 100 > 384.
        assert!(rows
            .iter()
            .any(|r| r.guest_app == "apsi" && r.workload == "H2" && r.thrashing));
    }

    #[test]
    fn table1_matches_specs() {
        let cfg = ContentionConfig::quick();
        let rows = table1_measurements(&cfg);
        assert_eq!(rows.len(), 10);
        let apsi = rows.iter().find(|r| r.name == "apsi").unwrap();
        assert!((apsi.cpu_usage - 0.98).abs() < 0.02);
        assert_eq!(apsi.resident_mb, 193);
        let h5 = rows.iter().find(|r| r.name == "H5").unwrap();
        assert!(
            (h5.cpu_usage - 0.57).abs() < 0.06,
            "H5 cpu {}",
            h5.cpu_usage
        );
    }
}
