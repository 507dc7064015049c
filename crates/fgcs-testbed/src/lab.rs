//! The synthetic student-lab workload generator.
//!
//! The paper traced 20 RedHat Linux machines "in a general purpose
//! computer laboratory for student use at Purdue University" for three
//! months. That trace is not published, so this module generates the
//! closest synthetic equivalent, parameterized by everything the paper
//! *does* report about the environment:
//!
//! * students log on with a strong diurnal/weekly pattern ("unavailability
//!   happens more frequently during the day time after 10 AM with more
//!   students using the machines"), doing editing, compiling and testing
//!   — modeled as sessions with a low interactive base load plus short
//!   heavy bursts;
//! * the `updatedb` cron job runs at 4 AM every day for about 30 minutes
//!   at high CPU on every machine;
//! * users occasionally reboot a slow machine (the dominant URR source,
//!   ~90%), and rare hardware/software failures take a machine down for
//!   hours;
//! * machines have more than 1 GB of memory, so thrashing (S4) needs a
//!   memory-hungry burst (large compile/link jobs) on top of the base
//!   load.
//!
//! The generator produces the exact observable stream the real iShare
//! monitor would have sampled: `(host_load, host_resident_mb, alive)` at
//! the monitor period, deterministic from the seed.

use fgcs_core::monitor::Observation;
use fgcs_stats::dist::{Exponential, LogNormal, Poisson, Sample, Uniform};
use fgcs_stats::rng::Rng;

use crate::calendar::{day_type, DayType, SECS_PER_DAY, SECS_PER_HOUR};

/// Lab model configuration. Defaults reproduce the paper's testbed
/// statistics (Table 2, Figures 6–7); every knob is exposed so the
/// "different patterns of host workloads" future-work experiments can
/// retarget it.
#[derive(Debug, Clone, PartialEq)]
pub struct LabConfig {
    /// Master seed; machine `i` derives stream `i`.
    pub seed: u64,
    /// Number of machines (paper: 20).
    pub machines: usize,
    /// Trace length in days (paper: ~92, three months).
    pub days: usize,
    /// Monitor sampling period, seconds.
    pub sample_period: u64,
    /// Weekday the trace starts on (0 = Monday).
    pub start_weekday: u8,
    /// Physical memory per machine, MB ("larger than 1 GB").
    pub phys_mem_mb: u32,
    /// Kernel-reserved memory, MB.
    pub kernel_mem_mb: u32,
    /// Probability a machine's console is occupied, per hour of a
    /// weekday.
    pub weekday_occupancy: [f64; 24],
    /// Same for weekend days.
    pub weekend_occupancy: [f64; 24],
    /// Median session length, minutes.
    pub session_median_mins: f64,
    /// Log-normal sigma of session length.
    pub session_sigma: f64,
    /// Heavy bursts (compiles, test runs) per occupied hour.
    pub bursts_per_session_hour: f64,
    /// Median burst length, seconds.
    pub burst_median_secs: f64,
    /// Log-normal sigma of burst length.
    pub burst_sigma: f64,
    /// Uniform range of the extra host load during a burst.
    pub burst_load: (f64, f64),
    /// Fraction of bursts that are also memory-hungry (S4 material).
    pub mem_burst_prob: f64,
    /// Uniform range of extra resident memory during a memory burst, MB.
    pub mem_burst_mb: (u32, u32),
    /// Frustration reboots per occupied hour.
    pub reboots_per_session_hour: f64,
    /// Reboot downtime range, seconds (kept under a minute, the paper's
    /// reboot signature).
    pub reboot_downtime_secs: (u64, u64),
    /// Hardware/software failures per machine-day.
    pub hw_failures_per_day: f64,
    /// Median hardware-failure downtime, seconds.
    pub hw_downtime_median_secs: f64,
    /// Whether the 4 AM `updatedb` cron job runs.
    pub updatedb: bool,
    /// Host load imposed by `updatedb` while it runs.
    pub updatedb_load: f64,
    /// `updatedb` duration, seconds (paper: "lasts for about 30 minutes").
    pub updatedb_duration_secs: u64,
    /// Machine base resident memory (daemons etc.), MB.
    pub base_resident_mb: u32,
    /// Extra resident memory while a session is active, MB range.
    pub session_resident_mb: (u32, u32),
    /// Idle-machine background load ceiling.
    pub idle_load_max: f64,
    /// Interactive base load range while a session is active.
    pub session_load: (f64, f64),
    /// Short system-load blips per hour of machine uptime: "the host CPU
    /// load which exceeds Th2 will drop down shortly after several
    /// seconds. The transiently high CPU load may be caused by a host
    /// user starting remote X applications or by some system processes"
    /// (§4). These exercise the detector's suspend/resume path; they are
    /// too short to create unavailability under the 1-minute tolerance.
    pub blips_per_hour: f64,
    /// Blip duration range, seconds (kept under the spike tolerance).
    pub blip_secs: (u64, u64),
    /// Blip load range.
    pub blip_load: (f64, f64),
    /// Heterogeneity across machines: machine `i` of `n` scales its
    /// occupancy by `1 - spread/2 + spread * i/(n-1)`. Real labs are not
    /// uniform — corner machines see less use — and this is what gives a
    /// proactive scheduler something to exploit. The default is mild
    /// (the paper's per-machine Table 2 ranges are fairly tight); the
    /// proactive-scheduling experiment raises it explicitly.
    pub machine_busyness_spread: f64,
    /// Office-desktop archetype: the machine is powered off overnight
    /// between `(off_hour, on_hour)` (wrapping past midnight when
    /// `on_hour <= off_hour`). `None` (the default) disables the
    /// behavior and draws no randomness, keeping existing seeds
    /// bit-identical.
    pub nightly_off_hours: Option<(u8, u8)>,
    /// Probability (per day) that the user actually shuts the machine
    /// down when [`Self::nightly_off_hours`] is set.
    pub nightly_off_prob: f64,
    /// Laptop archetype: lid-close revocations per occupied hour. The
    /// machine simply vanishes mid-session — the paper's S5 without the
    /// reboot signature. `0.0` (the default) draws no randomness.
    pub lid_close_per_session_hour: f64,
    /// Lid-close downtime range, seconds (long enough to never look
    /// like a reboot).
    pub lid_close_secs: (u64, u64),
    /// Build-farm archetype: session-independent compile storms per
    /// day (whole-farm CI bursts). `0.0` (the default) draws no
    /// randomness.
    pub storms_per_day: f64,
    /// Compile-storm duration range, seconds.
    pub storm_secs: (u64, u64),
    /// Compile-storm load range.
    pub storm_load: (f64, f64),
    /// Compile-storm resident-memory range, MB.
    pub storm_mem_mb: (u32, u32),
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            seed: 20050801, // the trace began in August 2005
            machines: 20,
            days: 92,
            sample_period: 15,
            start_weekday: 0,
            phys_mem_mb: 1124,
            kernel_mem_mb: 100,
            weekday_occupancy: [
                0.10, 0.06, 0.04, 0.03, 0.03, 0.03, 0.04, 0.08, 0.18, 0.32, 0.45, 0.52, 0.55, 0.58,
                0.60, 0.62, 0.60, 0.55, 0.48, 0.42, 0.38, 0.32, 0.24, 0.15,
            ],
            weekend_occupancy: [
                0.08, 0.05, 0.04, 0.03, 0.02, 0.02, 0.03, 0.04, 0.08, 0.12, 0.18, 0.22, 0.25, 0.26,
                0.28, 0.28, 0.26, 0.24, 0.22, 0.20, 0.18, 0.15, 0.12, 0.10,
            ],
            session_median_mins: 45.0,
            session_sigma: 0.8,
            bursts_per_session_hour: 0.68,
            burst_median_secs: 300.0,
            burst_sigma: 0.7,
            burst_load: (0.60, 0.97),
            mem_burst_prob: 0.31,
            mem_burst_mb: (700, 980),
            reboots_per_session_hour: 0.010,
            reboot_downtime_secs: (15, 40),
            hw_failures_per_day: 0.008,
            hw_downtime_median_secs: 7_200.0,
            updatedb: true,
            updatedb_load: 0.85,
            updatedb_duration_secs: 1_800,
            base_resident_mb: 210,
            session_resident_mb: (80, 260),
            idle_load_max: 0.03,
            session_load: (0.04, 0.16),
            blips_per_hour: 1.5,
            blip_secs: (5, 40),
            blip_load: (0.70, 0.95),
            machine_busyness_spread: 0.15,
            nightly_off_hours: None,
            nightly_off_prob: 0.0,
            lid_close_per_session_hour: 0.0,
            lid_close_secs: (120, 1_800),
            storms_per_day: 0.0,
            storm_secs: (300, 2_700),
            storm_load: (0.75, 1.0),
            storm_mem_mb: (400, 900),
        }
    }
}

impl LabConfig {
    /// Total trace span in seconds.
    pub fn span_secs(&self) -> u64 {
        self.days as u64 * SECS_PER_DAY
    }

    /// A small configuration for tests: 2 machines, 4 days.
    pub fn tiny() -> Self {
        LabConfig {
            machines: 2,
            days: 4,
            ..LabConfig::default()
        }
    }

    /// Memory left for a guest process when host + system processes
    /// hold `resident_mb`: physical minus kernel minus resident,
    /// saturating at zero.
    pub fn free_for_guest_mb(&self, resident_mb: u32) -> u32 {
        self.phys_mem_mb
            .saturating_sub(self.kernel_mem_mb)
            .saturating_sub(resident_mb)
    }

    /// The monitor observation of sample `s` on this lab's machines.
    pub fn observation(&self, s: &LoadSample) -> Observation {
        Observation::sampled(
            s.alive,
            s.host_load,
            self.free_for_guest_mb(s.host_resident_mb),
        )
    }

    /// The occupancy profile for a day type.
    pub fn occupancy(&self, dt: DayType) -> &[f64; 24] {
        match dt {
            DayType::Weekday => &self.weekday_occupancy,
            DayType::Weekend => &self.weekend_occupancy,
        }
    }

    /// Session arrival rate (per second) that yields the target
    /// occupancy under the one-session-at-a-time policy: for an M/G/1/1
    /// loss system, occupancy `p = ρ/(1+ρ)` with `ρ = λ·E[S]`, so
    /// `λ = p / ((1-p)·E[S])`.
    fn arrival_rate(&self, occupancy: f64) -> f64 {
        let p = occupancy.clamp(0.0, 0.95);
        if p == 0.0 {
            return 0.0;
        }
        let mean_secs =
            self.session_median_mins * 60.0 * (self.session_sigma * self.session_sigma / 2.0).exp();
        p / ((1.0 - p) * mean_secs)
    }
}

/// One observable sample of a machine, as the monitor would read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSample {
    /// Timestamp, seconds since trace start.
    pub t: u64,
    /// Host CPU load in `[0, 1]`.
    pub host_load: f64,
    /// Resident memory of host + system processes, MB (excl. kernel).
    pub host_resident_mb: u32,
    /// Machine/service liveness.
    pub alive: bool,
}

impl fgcs_faults::Timestamped for LoadSample {
    fn ts(&self) -> u64 {
        self.t
    }
    fn set_ts(&mut self, t: u64) {
        self.t = t;
    }
}

/// A half-open time interval with a load and memory contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Contribution {
    start: u64,
    end: u64,
    load: f64,
    mem_mb: u32,
}

/// The generated plan for one machine over the whole trace span.
#[derive(Debug, Clone)]
pub struct MachinePlan {
    cfg: LabConfig,
    /// Additive load/memory contributions, sorted by start.
    contributions: Vec<Contribution>,
    /// Downtime intervals, sorted, non-overlapping.
    downtimes: Vec<(u64, u64)>,
    /// Per-sample background noise seed.
    noise_seed: u64,
}

impl MachinePlan {
    /// Generates machine `machine_id`'s plan, deterministic in
    /// `(cfg.seed, machine_id)`.
    pub fn generate(cfg: &LabConfig, machine_id: usize) -> Self {
        let mut rng = Rng::for_stream(cfg.seed, machine_id as u64);
        let busyness = if cfg.machines > 1 {
            1.0 - cfg.machine_busyness_spread / 2.0
                + cfg.machine_busyness_spread * machine_id as f64 / (cfg.machines - 1) as f64
        } else {
            1.0
        };
        let mut contributions: Vec<Contribution> = Vec::new();
        let mut downtimes: Vec<(u64, u64)> = Vec::new();
        let span = cfg.span_secs();

        let session_len = LogNormal::with_median(cfg.session_median_mins * 60.0, cfg.session_sigma);
        let burst_len = LogNormal::with_median(cfg.burst_median_secs, cfg.burst_sigma);
        let burst_load = Uniform::new(cfg.burst_load.0, cfg.burst_load.1);
        let session_load = Uniform::new(cfg.session_load.0, cfg.session_load.1);

        // --- Sessions, with the one-at-a-time console policy. ---
        let mut busy_until: u64 = 0;
        for day in 0..cfg.days as u64 {
            let dt = day_type(day, cfg.start_weekday);
            let profile = *cfg.occupancy(dt);
            for hour in 0..24u64 {
                let hour_start = day * SECS_PER_DAY + hour * SECS_PER_HOUR;
                let lambda = cfg.arrival_rate((profile[hour as usize] * busyness).min(0.95));
                if lambda <= 0.0 {
                    continue;
                }
                // Poisson arrivals within the hour.
                let n = Poisson::new(lambda * SECS_PER_HOUR as f64).sample(&mut rng);
                for _ in 0..n {
                    let start = hour_start + rng.below(SECS_PER_HOUR);
                    if start < busy_until {
                        continue; // console already taken
                    }
                    let dur = session_len.sample(&mut rng).clamp(300.0, 6.0 * 3600.0) as u64;
                    let end = (start + dur).min(span);
                    busy_until = end;
                    contributions.push(Contribution {
                        start,
                        end,
                        load: session_load.sample(&mut rng),
                        mem_mb: rng.range_u64(
                            cfg.session_resident_mb.0 as u64,
                            cfg.session_resident_mb.1 as u64 + 1,
                        ) as u32,
                    });

                    // Heavy bursts within the session.
                    let hours = (end - start) as f64 / SECS_PER_HOUR as f64;
                    let bursts = Poisson::new(cfg.bursts_per_session_hour * hours).sample(&mut rng);
                    for _ in 0..bursts {
                        let bs = start + rng.below((end - start).max(1));
                        let bd = burst_len.sample(&mut rng).clamp(20.0, 900.0) as u64;
                        let be = (bs + bd).min(end);
                        let mem = if rng.chance(cfg.mem_burst_prob) {
                            rng.range_u64(cfg.mem_burst_mb.0 as u64, cfg.mem_burst_mb.1 as u64 + 1)
                                as u32
                        } else {
                            rng.range_u64(30, 120) as u32
                        };
                        contributions.push(Contribution {
                            start: bs,
                            end: be,
                            load: burst_load.sample(&mut rng),
                            mem_mb: mem,
                        });
                    }

                    // Frustration reboot during the session?
                    if rng.chance(cfg.reboots_per_session_hour * hours) {
                        let rs = start + rng.below((end - start).max(1));
                        let rd = rng
                            .range_u64(cfg.reboot_downtime_secs.0, cfg.reboot_downtime_secs.1 + 1);
                        downtimes.push((rs, (rs + rd).min(span)));
                    }

                    // Lid close mid-session (laptop archetype)? The
                    // `> 0.0` gate short-circuits before any draw so
                    // default configs keep their RNG streams.
                    if cfg.lid_close_per_session_hour > 0.0
                        && rng.chance(cfg.lid_close_per_session_hour * hours)
                    {
                        let ls = start + rng.below((end - start).max(1));
                        let ld = rng.range_u64(cfg.lid_close_secs.0, cfg.lid_close_secs.1 + 1);
                        downtimes.push((ls, (ls + ld).min(span)));
                    }
                }
            }

            // --- Short system blips, §4's transient spikes. ---
            if cfg.blips_per_hour > 0.0 {
                let n = Poisson::new(cfg.blips_per_hour * 24.0).sample(&mut rng);
                for _ in 0..n {
                    let bs = day * SECS_PER_DAY + rng.below(SECS_PER_DAY);
                    let bd = rng.range_u64(cfg.blip_secs.0, cfg.blip_secs.1 + 1);
                    contributions.push(Contribution {
                        start: bs,
                        end: (bs + bd).min(span),
                        load: rng.range_f64(cfg.blip_load.0, cfg.blip_load.1),
                        mem_mb: 10,
                    });
                }
            }

            // --- updatedb at 4 AM. ---
            if cfg.updatedb {
                let start = day * SECS_PER_DAY + 4 * SECS_PER_HOUR + rng.below(120);
                let dur = cfg.updatedb_duration_secs + rng.below(240);
                contributions.push(Contribution {
                    start,
                    end: (start + dur).min(span),
                    load: cfg.updatedb_load,
                    mem_mb: 40,
                });
            }

            // --- Compile storms (build-farm archetype). ---
            if cfg.storms_per_day > 0.0 {
                let n = Poisson::new(cfg.storms_per_day).sample(&mut rng);
                for _ in 0..n {
                    let ss = day * SECS_PER_DAY + rng.below(SECS_PER_DAY);
                    let sd = rng.range_u64(cfg.storm_secs.0, cfg.storm_secs.1 + 1);
                    contributions.push(Contribution {
                        start: ss,
                        end: (ss + sd).min(span),
                        load: rng.range_f64(cfg.storm_load.0, cfg.storm_load.1),
                        mem_mb: rng
                            .range_u64(cfg.storm_mem_mb.0 as u64, cfg.storm_mem_mb.1 as u64 + 1)
                            as u32,
                    });
                }
            }

            // --- Nightly power-off (office-desktop archetype). ---
            if let Some((off_h, on_h)) = cfg.nightly_off_hours {
                if cfg.nightly_off_prob > 0.0 && rng.chance(cfg.nightly_off_prob) {
                    let off = day * SECS_PER_DAY
                        + off_h as u64 % 24 * SECS_PER_HOUR
                        + rng.below(SECS_PER_HOUR);
                    let on_day = if on_h <= off_h { day + 1 } else { day };
                    let on = on_day * SECS_PER_DAY
                        + on_h as u64 % 24 * SECS_PER_HOUR
                        + rng.below(SECS_PER_HOUR);
                    if on > off {
                        downtimes.push((off.min(span), on.min(span)));
                    }
                }
            }
        }

        // --- Hardware/software failures over the whole span. ---
        let hw = Exponential::new((cfg.hw_failures_per_day / SECS_PER_DAY as f64).max(1e-12));
        let hw_down = LogNormal::with_median(cfg.hw_downtime_median_secs, 1.0);
        let mut t = hw.sample(&mut rng) as u64;
        while t < span && cfg.hw_failures_per_day > 0.0 {
            let dur = hw_down.sample(&mut rng).clamp(600.0, 12.0 * 3600.0) as u64;
            downtimes.push((t, (t + dur).min(span)));
            t += dur + hw.sample(&mut rng) as u64;
        }

        contributions.sort_by_key(|c| c.start);
        downtimes.sort_unstable();
        // Merge overlapping downtimes.
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(downtimes.len());
        for (s, e) in downtimes {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }

        // A reboot or crash kills every user process: truncate
        // contributions at the first downtime they overlap (the user logs
        // back in as a *new* session, which we do not re-create).
        for c in &mut contributions {
            for &(ds, de) in &merged {
                if ds >= c.end {
                    break;
                }
                if de <= c.start {
                    continue; // outage ended before this process started
                }
                // Outage overlaps the contribution: it dies at the outage
                // start (or never ran if it "started" mid-outage).
                c.end = ds.max(c.start);
                break;
            }
        }
        contributions.retain(|c| c.end > c.start);

        MachinePlan {
            cfg: cfg.clone(),
            contributions,
            downtimes: merged,
            noise_seed: rng.next_u64(),
        }
    }

    /// Downtime intervals (for tests and ground-truth comparisons).
    pub fn downtimes(&self) -> &[(u64, u64)] {
        &self.downtimes
    }

    /// Number of load/memory contributions (diagnostic).
    pub fn contribution_count(&self) -> usize {
        self.contributions.len()
    }

    /// Iterates monitor samples over the whole span.
    pub fn samples(&self) -> SampleIter<'_> {
        SampleIter {
            cfg: &self.cfg,
            spans: self.spans(),
            span: PlanSpan {
                start: 0,
                end: 0,
                dead: false,
                loads: Vec::new(),
                mem_mb: 0,
            },
            t: 0,
            noise: Rng::new(self.noise_seed),
        }
    }

    /// Seed of the per-sample background-noise stream (the batched
    /// tracer replays it sample-for-sample to stay bit-identical with
    /// [`Self::samples`]).
    pub(crate) fn noise_seed(&self) -> u64 {
        self.noise_seed
    }

    /// Iterates maximal time spans over which the machine's state is
    /// constant: same liveness, same set of active contributions. Within
    /// a span every monitor sample differs only by the background-noise
    /// draw, which lets the fleet tracer process whole spans at a time
    /// instead of re-deriving the active set per sample.
    ///
    /// The spans exactly tile `[0, span_secs)`, and evaluating
    /// [`Self::samples`] at any `t` inside a span observes precisely
    /// `loads`/`mem_mb` (alive) or a dead sample.
    pub fn spans(&self) -> PlanSpanIter<'_> {
        PlanSpanIter {
            plan: self,
            t: 0,
            next_contrib: 0,
            active: Vec::new(),
            next_down: 0,
        }
    }
}

/// A maximal constant-state span of a [`MachinePlan`]: see
/// [`MachinePlan::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpan {
    /// Span start, inclusive (seconds since trace start).
    pub start: u64,
    /// Span end, exclusive.
    pub end: u64,
    /// True if the machine is down for the whole span.
    pub dead: bool,
    /// Load of each active contribution, in activation order: a
    /// sample's load is `noise + loads[0] + loads[1] + …`, added in
    /// exactly that order.
    pub loads: Vec<f64>,
    /// Total resident memory over the span, MB (the saturating fold is
    /// order-deterministic, so it is safe to precompute).
    pub mem_mb: u32,
}

/// Iterator over [`PlanSpan`]s: see [`MachinePlan::spans`].
#[derive(Debug, Clone)]
pub struct PlanSpanIter<'a> {
    plan: &'a MachinePlan,
    t: u64,
    next_contrib: usize,
    active: Vec<Contribution>,
    next_down: usize,
}

impl Iterator for PlanSpanIter<'_> {
    type Item = PlanSpan;

    fn next(&mut self) -> Option<PlanSpan> {
        let plan = self.plan;
        let span_secs = plan.cfg.span_secs();
        if self.t >= span_secs {
            return None;
        }
        let t = self.t;

        // The active set at time `t`, in activation order.
        while self.next_contrib < plan.contributions.len()
            && plan.contributions[self.next_contrib].start <= t
        {
            self.active.push(plan.contributions[self.next_contrib]);
            self.next_contrib += 1;
        }
        self.active.retain(|c| c.end > t);
        while self.next_down < plan.downtimes.len() && plan.downtimes[self.next_down].1 <= t {
            self.next_down += 1;
        }
        let down = plan.downtimes.get(self.next_down);
        let dead = down.map(|&(s, e)| s <= t && t < e).unwrap_or(false);

        // The span extends to the next state change: a contribution
        // starting or ending, or a downtime boundary.
        let mut end = span_secs;
        if let Some(c) = plan.contributions.get(self.next_contrib) {
            end = end.min(c.start);
        }
        for c in &self.active {
            end = end.min(c.end);
        }
        if let Some(&(s, e)) = down {
            end = end.min(if dead { e } else { s.max(t + 1) });
        }
        debug_assert!(end > t, "span must advance");
        self.t = end;

        let (loads, mem_mb) = if dead {
            (Vec::new(), 0)
        } else {
            let mut mem = plan.cfg.base_resident_mb;
            let mut loads = Vec::with_capacity(self.active.len());
            for c in &self.active {
                loads.push(c.load);
                mem = mem.saturating_add(c.mem_mb);
            }
            (loads, mem)
        };
        Some(PlanSpan {
            start: t,
            end,
            dead,
            loads,
            mem_mb,
        })
    }
}

/// Iterator over a machine's monitor samples: one per monitor period,
/// each read off the [`PlanSpan`] that contains its timestamp (a span
/// shorter than the period can fall between two samples and is never
/// observed). [`MachinePlan::spans`] is the one definition of what is
/// active when; this only adds the per-sample background noise.
#[derive(Debug, Clone)]
pub struct SampleIter<'a> {
    cfg: &'a LabConfig,
    spans: PlanSpanIter<'a>,
    /// The span containing the last sample (empty before the first).
    span: PlanSpan,
    t: u64,
    noise: Rng,
}

impl Iterator for SampleIter<'_> {
    type Item = LoadSample;

    #[inline]
    fn next(&mut self) -> Option<LoadSample> {
        let t = self.t;
        while t >= self.span.end {
            // The spans tile [0, span_secs): running out of them is
            // running out of trace.
            self.span = self.spans.next()?;
        }
        self.t += self.cfg.sample_period;
        Some(
            self.span
                .sample_at(t, &mut self.noise, self.cfg.idle_load_max),
        )
    }
}

impl PlanSpan {
    /// The monitor sample at `t` inside this span. An alive sample draws
    /// its background noise from `noise` (`[0, idle_load_max)`) and adds
    /// the span's loads to it in order; a dead one draws nothing.
    #[inline]
    pub(crate) fn sample_at(&self, t: u64, noise: &mut Rng, idle_load_max: f64) -> LoadSample {
        if self.dead {
            return LoadSample {
                t,
                host_load: 0.0,
                host_resident_mb: 0,
                alive: false,
            };
        }
        LoadSample {
            t,
            host_load: self.load_with(noise.range_f64(0.0, idle_load_max)),
            host_resident_mb: self.mem_mb,
            alive: true,
        }
    }

    /// The host load of an alive sample whose background noise is
    /// `noise`: the span's loads added to it in order, capped at 1.
    #[inline]
    pub(crate) fn load_with(&self, noise: f64) -> f64 {
        let mut load = noise;
        for &l in &self.loads {
            load += l;
        }
        load.min(1.0)
    }

    /// `(lo, hi)` with every alive sample's load in `[lo, hi]`: the loads
    /// folded onto noise `0` and onto noise `idle_load_max`. Rounded f64
    /// addition and `min` are monotone, and the noise draw never leaves
    /// `[0, idle_load_max]`.
    pub(crate) fn load_bounds(&self, idle_load_max: f64) -> (f64, f64) {
        (self.load_with(0.0), self.load_with(idle_load_max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `samples()` was before it became a walk over `spans()`: its
    /// own activate / retire / downtime bookkeeping, re-run per sample.
    /// Kept as the reference the span walk must equal bit for bit.
    fn reference_samples(plan: &MachinePlan) -> Vec<LoadSample> {
        let cfg = &plan.cfg;
        let mut noise = Rng::new(plan.noise_seed);
        let mut active: Vec<Contribution> = Vec::new();
        let (mut next_contrib, mut next_down) = (0, 0);
        let mut out = Vec::new();
        let mut t = 0;
        while t < cfg.span_secs() {
            while next_contrib < plan.contributions.len()
                && plan.contributions[next_contrib].start <= t
            {
                active.push(plan.contributions[next_contrib]);
                next_contrib += 1;
            }
            active.retain(|c| c.end > t);
            while next_down < plan.downtimes.len() && plan.downtimes[next_down].1 <= t {
                next_down += 1;
            }
            let down = plan
                .downtimes
                .get(next_down)
                .is_some_and(|&(s, e)| s <= t && t < e);
            out.push(if down {
                LoadSample {
                    t,
                    host_load: 0.0,
                    host_resident_mb: 0,
                    alive: false,
                }
            } else {
                let mut load: f64 = noise.range_f64(0.0, cfg.idle_load_max);
                let mut mem = cfg.base_resident_mb;
                for c in &active {
                    load += c.load;
                    mem = mem.saturating_add(c.mem_mb);
                }
                LoadSample {
                    t,
                    host_load: load.min(1.0),
                    host_resident_mb: mem,
                    alive: true,
                }
            });
            t += cfg.sample_period;
        }
        out
    }

    #[test]
    fn samples_equal_the_per_sample_reference_bit_for_bit() {
        // Every lab shape `tests/tracer_equivalence.rs` enumerates, plus
        // periods that do and do not divide the span boundaries.
        let labs = crate::scenarios::all()
            .into_iter()
            .map(|(name, lab)| (name.to_string(), lab))
            .chain(
                crate::fleet::Archetype::ALL
                    .into_iter()
                    .map(|arch| (format!("{arch:?}"), arch.lab_config())),
            );
        for (name, lab) in labs {
            for sample_period in [15, 7, 60] {
                let cfg = LabConfig {
                    machines: 3,
                    days: 7,
                    sample_period,
                    ..lab.clone()
                };
                for machine in 0..cfg.machines {
                    let plan = MachinePlan::generate(&cfg, machine);
                    let got: Vec<LoadSample> = plan.samples().collect();
                    let want = reference_samples(&plan);
                    assert_eq!(got.len(), want.len(), "{name} machine {machine}");
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            g.t == w.t
                                && g.host_load.to_bits() == w.host_load.to_bits()
                                && g.host_resident_mb == w.host_resident_mb
                                && g.alive == w.alive,
                            "{name} machine {machine} period {sample_period}: {g:?} != {w:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blips_are_short_and_frequent() {
        let mut cfg = LabConfig::tiny();
        cfg.bursts_per_session_hour = 0.0;
        cfg.updatedb = false;
        cfg.blips_per_hour = 4.0;
        let plan = MachinePlan::generate(&cfg, 0);
        // Count maximal runs of load above Th2-ish among alive samples.
        let mut spikes = 0u32;
        let mut in_spike = false;
        let mut longest = 0u64;
        let mut cur = 0u64;
        for s in plan.samples() {
            let hot = s.alive && s.host_load > 0.6;
            if hot {
                cur += cfg.sample_period;
                longest = longest.max(cur);
                if !in_spike {
                    spikes += 1;
                    in_spike = true;
                }
            } else {
                in_spike = false;
                cur = 0;
            }
        }
        // ~4/hour over 4 days, though sub-sample-period blips are missed.
        assert!(spikes > 50, "spikes {spikes}");
        assert!(
            longest <= 90,
            "blips must stay transient, longest {longest}s"
        );
    }

    #[test]
    fn deterministic_from_seed() {
        let cfg = LabConfig::tiny();
        let a: Vec<LoadSample> = MachinePlan::generate(&cfg, 3).samples().collect();
        let b: Vec<LoadSample> = MachinePlan::generate(&cfg, 3).samples().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn machines_differ() {
        let cfg = LabConfig::tiny();
        let a: Vec<LoadSample> = MachinePlan::generate(&cfg, 0).samples().collect();
        let b: Vec<LoadSample> = MachinePlan::generate(&cfg, 1).samples().collect();
        assert_ne!(a, b);
    }

    #[test]
    fn sample_cadence_and_span() {
        let cfg = LabConfig::tiny();
        let samples: Vec<LoadSample> = MachinePlan::generate(&cfg, 0).samples().collect();
        assert_eq!(samples.len() as u64, cfg.span_secs() / cfg.sample_period);
        assert_eq!(samples[0].t, 0);
        assert_eq!(samples[1].t, cfg.sample_period);
        assert!(samples.last().unwrap().t < cfg.span_secs());
    }

    #[test]
    fn loads_are_bounded() {
        let cfg = LabConfig::tiny();
        for s in MachinePlan::generate(&cfg, 1).samples() {
            assert!((0.0..=1.0).contains(&s.host_load), "load {}", s.host_load);
        }
    }

    #[test]
    fn updatedb_spikes_every_day_at_4am() {
        let cfg = LabConfig::tiny();
        let plan = MachinePlan::generate(&cfg, 0);
        for day in 0..cfg.days as u64 {
            // Look for a high-load sample in the 04:05–04:25 window
            // (inside updatedb regardless of jitter).
            let lo = day * SECS_PER_DAY + 4 * SECS_PER_HOUR + 300;
            let hi = day * SECS_PER_DAY + 4 * SECS_PER_HOUR + 1500;
            let spike = plan
                .samples()
                .filter(|s| s.t >= lo && s.t < hi && s.alive)
                .any(|s| s.host_load >= cfg.updatedb_load);
            let was_down = plan.downtimes().iter().any(|&(s, e)| s < hi && e > lo);
            assert!(spike || was_down, "no updatedb spike on day {day}");
        }
    }

    #[test]
    fn no_updatedb_when_disabled() {
        let mut cfg = LabConfig::tiny();
        cfg.updatedb = false;
        cfg.bursts_per_session_hour = 0.0;
        cfg.blips_per_hour = 0.0;
        let plan = MachinePlan::generate(&cfg, 0);
        // Without updatedb and bursts, load stays at session base levels.
        let max = plan.samples().map(|s| s.host_load).fold(0.0, f64::max);
        assert!(max < 0.5, "max load {max}");
    }

    #[test]
    fn weekday_busier_than_weekend() {
        let cfg = LabConfig {
            machines: 1,
            days: 14,
            ..LabConfig::default()
        };
        let plan = MachinePlan::generate(&cfg, 0);
        let mut wd = (0.0, 0u64);
        let mut we = (0.0, 0u64);
        for s in plan.samples() {
            if !s.alive {
                continue;
            }
            match crate::calendar::day_type_at(s.t, cfg.start_weekday) {
                DayType::Weekday => {
                    wd.0 += s.host_load;
                    wd.1 += 1;
                }
                DayType::Weekend => {
                    we.0 += s.host_load;
                    we.1 += 1;
                }
            }
        }
        let wd_mean = wd.0 / wd.1 as f64;
        let we_mean = we.0 / we.1 as f64;
        assert!(wd_mean > we_mean, "weekday {wd_mean} weekend {we_mean}");
    }

    #[test]
    fn downtimes_are_sorted_and_disjoint() {
        let cfg = LabConfig {
            days: 30,
            hw_failures_per_day: 0.05, // force several
            reboots_per_session_hour: 0.05,
            ..LabConfig::default()
        };
        let plan = MachinePlan::generate(&cfg, 2);
        let d = plan.downtimes();
        assert!(!d.is_empty());
        for w in d.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap {w:?}");
        }
    }

    #[test]
    fn dead_samples_during_downtime() {
        let mut cfg = LabConfig::tiny();
        cfg.hw_failures_per_day = 0.5;
        let plan = MachinePlan::generate(&cfg, 0);
        if let Some(&(s, e)) = plan.downtimes().first() {
            let dead = plan
                .samples()
                .filter(|x| x.t >= s && x.t < e)
                .all(|x| !x.alive);
            assert!(dead);
        }
    }

    #[test]
    fn arrival_rate_inversion() {
        let cfg = LabConfig::default();
        // p = ρ/(1+ρ) must hold for the computed λ.
        let mean_secs =
            cfg.session_median_mins * 60.0 * (cfg.session_sigma * cfg.session_sigma / 2.0).exp();
        for &p in &[0.1, 0.3, 0.6] {
            let lambda = cfg.arrival_rate(p);
            let rho = lambda * mean_secs;
            assert!((rho / (1.0 + rho) - p).abs() < 1e-9);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn every_sample_load_lies_in_the_span_bounds(
            loads in proptest::collection::vec(0.0f64..0.7, 0..6),
            idle_load_max in 0.0f64..0.2,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let span = PlanSpan {
                start: 0,
                end: 64 * 15,
                dead: false,
                loads,
                mem_mb: 0,
            };
            let (lo, hi) = span.load_bounds(idle_load_max);
            let mut noise = Rng::new(seed);
            for t in (span.start..span.end).step_by(15) {
                let load = span.sample_at(t, &mut noise, idle_load_max).host_load;
                proptest::prop_assert!(lo <= load && load <= hi, "{load} outside [{lo}, {hi}]");
            }
            // The largest noise `range_f64` can return.
            let top = idle_load_max * (((1u64 << 53) - 1) as f64 / (1u64 << 53) as f64);
            let load = span.load_with(top);
            proptest::prop_assert!(lo <= load && load <= hi, "{load} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn memory_exceeds_base_during_mem_burst() {
        let mut cfg = LabConfig::tiny();
        cfg.mem_burst_prob = 1.0;
        cfg.bursts_per_session_hour = 3.0;
        let plan = MachinePlan::generate(&cfg, 0);
        let peak = plan.samples().map(|s| s.host_resident_mb).max().unwrap();
        assert!(
            peak > cfg.base_resident_mb + cfg.mem_burst_mb.0,
            "peak {peak}"
        );
    }
}
