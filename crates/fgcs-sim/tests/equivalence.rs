//! Tick-exact equivalence between the per-tick reference path and the
//! event-horizon batched path.
//!
//! Two machines are driven through identical schedules of spawns, kills,
//! renices, suspends and resumes; one advances via `step()` (through
//! `run_ticks_stepwise`), the other via the batched `run_ticks` in
//! randomly sized chunks. After every segment the complete observable
//! state must be identical: clock, cumulative CPU accounting, recalc
//! count, memory aggregates, per-pid cpu/wait ticks, quantum counters,
//! run states, and the full scheduling log.
//!
//! `Machine::measure`, which skips the periods of a repeating scheduling
//! state, is held to the same oracle: its returned delta and every
//! observable after the window must equal a stepped twin's.

use fgcs_sim::machine::{CpuAccounting, Machine, MachineConfig};
use fgcs_sim::proc::{Demand, MemSpec, Phase, Pid, ProcClass, ProcSpec};
use fgcs_sim::workloads::{musbus, spec, synthetic};
use fgcs_stats::rng::Rng;

/// Asserts every observable of the two machines is identical.
fn assert_same(a: &Machine, b: &Machine, ctx: &str) {
    assert_same_state(a, b, ctx);
    assert_eq!(a.run_log(), b.run_log(), "run log diverged ({ctx})");
}

/// Asserts every observable but the run log is identical.
fn assert_same_state(a: &Machine, b: &Machine, ctx: &str) {
    assert_eq!(a.now(), b.now(), "clock diverged ({ctx})");
    assert_eq!(
        a.accounting(),
        b.accounting(),
        "accounting diverged ({ctx})"
    );
    assert_eq!(
        a.recalc_count(),
        b.recalc_count(),
        "recalcs diverged ({ctx})"
    );
    assert_eq!(
        a.total_resident_mb(),
        b.total_resident_mb(),
        "memory diverged ({ctx})"
    );
    assert_eq!(
        a.host_resident_mb(),
        b.host_resident_mb(),
        "host memory diverged ({ctx})"
    );
    let pa: Vec<_> = a.processes().collect();
    let pb: Vec<_> = b.processes().collect();
    assert_eq!(pa.len(), pb.len(), "process count diverged ({ctx})");
    for (x, y) in pa.iter().zip(&pb) {
        let pid = x.pid;
        assert_eq!(x.cpu_ticks, y.cpu_ticks, "{pid} cpu_ticks diverged ({ctx})");
        assert_eq!(
            x.wait_ticks, y.wait_ticks,
            "{pid} wait_ticks diverged ({ctx})"
        );
        assert_eq!(x.counter, y.counter, "{pid} counter diverged ({ctx})");
        assert_eq!(x.state, y.state, "{pid} state diverged ({ctx})");
        assert_eq!(x.nice, y.nice, "{pid} nice diverged ({ctx})");
        assert_eq!(x.progress, y.progress, "{pid} progress diverged ({ctx})");
    }
}

/// Which corner of the workload space a fuzz schedule leans into.
#[derive(Debug, Clone, Copy, Default)]
struct Mix {
    /// Thrash-inducing footprints on the small-memory machine.
    heavy_mem: bool,
    /// Adds a long-sleep duty cycle to the demand mix.
    sleepy: bool,
    /// "One runnable, many sleepers": mostly short-burst long-sleep
    /// processes banking counters beside an occasional CPU hog, over
    /// the full nice range — the lone-runnable epoch cycle's home turf.
    lone: bool,
}

/// A random process spec drawn from a mix that exercises every demand
/// pattern, both classes, the full nice range, and footprints from tiny
/// to thrash-inducing.
fn random_spec(rng: &mut Rng, mix: Mix) -> ProcSpec {
    let Mix {
        heavy_mem,
        sleepy,
        lone,
    } = mix;
    let class = if rng.chance(0.5) {
        ProcClass::Host
    } else {
        ProcClass::Guest
    };
    let nice = if lone {
        rng.range_u64(0, 40) as i8 - 20
    } else {
        rng.range_u64(0, 19) as i8
    };
    let demand = match rng.below(if sleepy { 5 } else { 4 }) {
        _ if lone => match rng.below(15) {
            0 => Demand::CpuBound { total_work: None },
            1 => Demand::CpuBound {
                total_work: Some(rng.range_u64(1, 400)),
            },
            2 => Demand::DutyCycle {
                busy: rng.range_u64(20, 300),
                idle: rng.range_u64(1, 50),
            },
            _ => Demand::DutyCycle {
                busy: rng.range_u64(1, 3),
                idle: rng.range_u64(100, 1000),
            },
        },
        0 => Demand::CpuBound { total_work: None },
        1 => Demand::CpuBound {
            total_work: Some(rng.range_u64(1, 400)),
        },
        2 => Demand::DutyCycle {
            busy: rng.range_u64(1, 50),
            idle: rng.range_u64(1, 80),
        },
        3 => {
            let n = rng.range_u64(1, 4) as usize;
            let phases = (0..n)
                .map(|_| Phase {
                    busy: rng.range_u64(1, 30),
                    idle: rng.range_u64(0, 40),
                })
                .collect();
            Demand::Phases {
                phases,
                repeat: rng.chance(0.5),
            }
        }
        // Sleeper-heavy mix: long sleeps dominate so idle batching and
        // wake ordering get a workout.
        _ => Demand::DutyCycle {
            busy: rng.range_u64(1, 3),
            idle: rng.range_u64(100, 1000),
        },
    };
    let mem = if heavy_mem && rng.chance(0.4) {
        MemSpec::resident(rng.range_u64(100, 400) as u32)
    } else {
        MemSpec::tiny()
    };
    ProcSpec::new(format!("p{}", rng.next_u32()), class, nice, demand, mem)
}

/// Drives a stepwise/batched machine pair through one random schedule.
fn fuzz_one(seed: u64, mix: Mix) {
    let mut rng = Rng::for_stream(0xE9_01_44_FE, seed);
    let cfg = if mix.heavy_mem {
        MachineConfig::solaris_384mb()
    } else {
        MachineConfig::default()
    };
    let mut reference = Machine::new(cfg.clone());
    let mut batched = Machine::new(cfg.clone());
    reference.enable_run_log();
    batched.enable_run_log();
    // The batched machine's twin without a run log, so that the closing
    // `measure` may skip periods.
    let mut unlogged = Machine::new(cfg);

    let mut spawned: u32 = 0;
    for seg in 0..40 {
        // A random control action, mirrored on every machine.
        let action = rng.below(6);
        let spec = (action < 2).then(|| random_spec(&mut rng, mix));
        let pid = (action >= 2 && spawned > 0).then(|| Pid(rng.below(spawned as u64) as u32));
        let nice = (action == 3 && pid.is_some()).then(|| rng.range_u64(0, 19) as i8);
        for m in [&mut reference, &mut batched, &mut unlogged] {
            if let Some(spec) = &spec {
                assert_eq!(m.spawn(spec.clone()), Pid(spawned));
            }
            let Some(pid) = pid else { continue };
            let _ = match action {
                2 => m.kill(pid),
                3 => m.renice(pid, nice.unwrap()),
                4 => m.suspend(pid),
                _ => m.resume(pid),
            };
        }
        spawned += spec.is_some() as u32;

        // Advance all by the same span; the batched machines cover it
        // in random-size chunks so batch boundaries land everywhere.
        let span = rng.range_u64(1, 500);
        reference.run_ticks_stepwise(span);
        let mut left = span;
        while left > 0 {
            let chunk = rng.range_u64(1, left.min(200) + 1).min(left);
            batched.run_ticks(chunk);
            unlogged.run_ticks(chunk);
            left -= chunk;
        }
        assert_same(&reference, &batched, &format!("seed {seed} segment {seg}"));
    }
    assert_same_state(&reference, &unlogged, &format!("seed {seed} unlogged"));

    // One long measurement window closes the schedule.
    let ctx = format!("seed {seed} closing measure");
    let want = stepwise_delta(&mut reference, 20_000);
    assert_eq!(
        batched.measure(20_000),
        want,
        "logged delta diverged ({ctx})"
    );
    assert_eq!(unlogged.measure(20_000), want, "delta diverged ({ctx})");
    assert_same(&reference, &batched, &ctx);
    assert_same_state(&reference, &unlogged, &ctx);
}

/// Steps `m` through `ticks` ticks and returns its accounting delta.
fn stepwise_delta(m: &mut Machine, ticks: u64) -> CpuAccounting {
    let before = m.accounting();
    m.run_ticks_stepwise(ticks);
    m.accounting().since(&before)
}

#[test]
fn batched_equals_stepwise_light_workloads() {
    for seed in 0..12 {
        fuzz_one(seed, Mix::default());
    }
}

#[test]
fn batched_equals_stepwise_thrashing_workloads() {
    for seed in 100..112 {
        fuzz_one(
            seed,
            Mix {
                heavy_mem: true,
                ..Mix::default()
            },
        );
    }
}

#[test]
fn batched_equals_stepwise_sleeper_heavy_workloads() {
    for seed in 200..212 {
        fuzz_one(
            seed,
            Mix {
                sleepy: true,
                ..Mix::default()
            },
        );
    }
}

#[test]
fn batched_equals_stepwise_thrashing_and_sleepy() {
    for seed in 300..308 {
        fuzz_one(
            seed,
            Mix {
                heavy_mem: true,
                sleepy: true,
                lone: false,
            },
        );
    }
}

#[test]
fn batched_equals_stepwise_one_runnable_many_sleepers() {
    for seed in 400..416 {
        fuzz_one(
            seed,
            Mix {
                lone: true,
                ..Mix::default()
            },
        );
    }
}

/// The lone-runnable epoch cycle: one process holds the CPU through
/// many of its own quanta while everyone else sleeps or is stopped, so
/// a batch spans epoch recalculations. Each case puts a guest — CPU
/// bound, finite, or a duty cycle whose busy period ends inside a span —
/// at nice -20 / 0 / 19 (quanta of 11 / 6 / 1 ticks) beside sleepers
/// that bank counters across those recalculations at their own nice
/// values and a suspended process that banks them too; chunk sizes
/// straddle the quantum so `rem` cuts spans mid-quantum, and the run
/// log pins every tick.
#[test]
fn lone_runnable_epoch_cycle_batches_tick_exactly() {
    let guests = |nice: i8| {
        [
            Demand::CpuBound { total_work: None },
            Demand::CpuBound {
                total_work: Some(777),
            },
            Demand::DutyCycle {
                busy: 130,
                idle: 17,
            },
        ]
        .map(|d| ProcSpec::new("guest", ProcClass::Guest, nice, d, MemSpec::tiny()))
    };
    for nice in [-20i8, 0, 19] {
        for (g, guest) in guests(nice).into_iter().enumerate() {
            let mut reference = Machine::default_linux();
            let mut batched = Machine::default_linux();
            reference.enable_run_log();
            batched.enable_run_log();
            let sleeper = |name: &str, nice: i8, busy: u64, idle: u64| {
                ProcSpec::new(
                    name,
                    ProcClass::Host,
                    nice,
                    Demand::DutyCycle { busy, idle },
                    MemSpec::tiny(),
                )
            };
            let specs = [
                sleeper("s-20", -20, 1, 311),
                sleeper("s0", 0, 2, 97),
                sleeper("s19", 19, 1, 523),
                ProcSpec::cpu_bound_guest("stopped", 5),
                guest,
            ];
            for spec in specs {
                assert_eq!(reference.spawn(spec.clone()), batched.spawn(spec));
            }
            let stopped = Pid(3);
            reference.suspend(stopped).unwrap();
            batched.suspend(stopped).unwrap();

            let mut rng = Rng::for_stream(0x10_4E, (nice as i64 + 20) as u64 * 8 + g as u64);
            for seg in 0..40 {
                if seg == 25 {
                    // The stopped process comes back holding whatever
                    // the recalculations banked for it.
                    reference.resume(stopped).unwrap();
                    batched.resume(stopped).unwrap();
                }
                if seg == 30 {
                    reference.kill(stopped).unwrap();
                    batched.kill(stopped).unwrap();
                }
                let span = rng.range_u64(1, 300);
                reference.run_ticks_stepwise(span);
                let mut left = span;
                while left > 0 {
                    let chunk = rng.range_u64(1, left.min(40) + 1).min(left);
                    batched.run_ticks(chunk);
                    left -= chunk;
                }
                assert_same(
                    &reference,
                    &batched,
                    &format!("nice {nice} guest {g} segment {seg}"),
                );
            }
            // The scenario must have crossed many epochs with sleepers
            // at their banked fixed points, or it tested nothing.
            assert!(
                reference.recalc_count() > 50,
                "nice {nice} guest {g}: only {} recalcs",
                reference.recalc_count()
            );
        }
    }
}

/// Sustained thrashing spans are batched (work ticks + page-fault
/// stalls together) and must stay tick-exact against the reference:
/// the fractional stall-debt accrual is replayed scalar-exactly, so
/// the residual debt, the iowait accounting, and the run-log positions
/// all land on identical values.
///
/// Two pressure regimes matter and both are pinned here: *mild*
/// overcommit (efficiency > 0.5, debt crosses a whole stall only every
/// few work ticks) and *deep* overcommit (several stall ticks per work
/// tick). The per-segment control actions kill/resume residents so the
/// pressure flips on and off mid-run.
#[test]
fn thrash_spans_batch_tick_exactly() {
    for (label, resident_mb) in [("mild", 430u32), ("deep", 900u32)] {
        let cfg = MachineConfig::solaris_384mb();
        let mut reference = Machine::new(cfg.clone());
        let mut batched = Machine::new(cfg);
        reference.enable_run_log();
        batched.enable_run_log();

        // One big host resident creates the pressure; a host and a
        // guest compete for the CPU through the span (so the margin
        // and wait-tick paths are exercised while thrashing); a
        // duty-cycle sleeper bounds batches with wake horizons.
        let heavy = ProcSpec::new(
            "resident",
            ProcClass::Host,
            10,
            Demand::DutyCycle { busy: 7, idle: 23 },
            MemSpec::resident(resident_mb),
        );
        let cruncher = ProcSpec::new(
            "cruncher",
            ProcClass::Host,
            0,
            Demand::CpuBound { total_work: None },
            MemSpec::tiny(),
        );
        let guest = ProcSpec::cpu_bound_guest("guest", 19);
        for (r, b) in [(&heavy, &heavy), (&cruncher, &cruncher), (&guest, &guest)] {
            let pa = reference.spawn(r.clone());
            let pb = batched.spawn(b.clone());
            assert_eq!(pa, pb);
        }

        let mut rng = Rng::for_stream(0x0071_8405, resident_mb as u64);
        for seg in 0..30 {
            let span = rng.range_u64(50, 400);
            reference.run_ticks_stepwise(span);
            let mut left = span;
            while left > 0 {
                let chunk = rng.range_u64(1, left.min(128) + 1).min(left);
                batched.run_ticks(chunk);
                left -= chunk;
            }
            assert_same(
                &reference,
                &batched,
                &format!("{label} overcommit, segment {seg}"),
            );
        }
        // The span must actually have thrashed: page-fault stalls are
        // the whole point of the scenario.
        assert!(
            reference.accounting().iowait > 0,
            "{label}: scenario never thrashed"
        );
    }
}

/// The documented six-to-one epoch pattern must survive batching with
/// the run log enabled (per-tick entries, identical to the reference).
#[test]
fn run_log_batches_are_per_tick() {
    let mut m = Machine::default_linux();
    m.spawn(ProcSpec::new(
        "h",
        ProcClass::Host,
        0,
        Demand::CpuBound { total_work: None },
        MemSpec::tiny(),
    ));
    m.spawn(ProcSpec::cpu_bound_guest("g", 19));
    m.enable_run_log();
    m.run_ticks(70);
    let log = m.run_log();
    assert_eq!(log.len(), 70);
    for (j, &(t, _)) in log.iter().enumerate() {
        assert_eq!(t, j as u64, "log must hold one entry per tick");
    }
}

/// A stepwise/batched machine pair with the run log on.
fn logged_pair(cfg: MachineConfig) -> (Machine, Machine) {
    let mut reference = Machine::new(cfg.clone());
    let mut batched = Machine::new(cfg);
    reference.enable_run_log();
    batched.enable_run_log();
    (reference, batched)
}

fn spawn_both(reference: &mut Machine, batched: &mut Machine, spec: ProcSpec) {
    assert_eq!(reference.spawn(spec.clone()), batched.spawn(spec));
}

/// Advances both machines by `span` ticks, the batched one in random
/// chunks of at most `max_chunk` ticks, then compares every observable.
fn advance_both(
    reference: &mut Machine,
    batched: &mut Machine,
    rng: &mut Rng,
    span: u64,
    max_chunk: u64,
    ctx: &str,
) {
    reference.run_ticks_stepwise(span);
    let mut left = span;
    while left > 0 {
        let chunk = rng.range_u64(1, left.min(max_chunk) + 1);
        batched.run_ticks(chunk);
        left -= chunk;
    }
    assert_same(reference, batched, ctx);
}

/// Races on the Figure 1 machine: a `synthetic::host_group` of 1–5
/// duty-cycle hosts beside a CPU-bound guest at nice 0 (Figure 1(a)) or
/// nice 19 (Figure 1(b)). Whenever two of them are runnable the batch is
/// a race, cut by host wakes and busy-period ends, and hosts due to wake
/// join it inline; chunks cut races mid-quantum and mid-epoch.
#[test]
fn figure1_races_batch_tick_exactly() {
    for seed in 0..6u64 {
        for hosts in 1..=5usize {
            for nice in [0i8, 19] {
                let stream = seed * 16 + hosts as u64 * 2 + (nice == 19) as u64;
                let mut rng = Rng::for_stream(0xF1_61, stream);
                let (mut reference, mut batched) = logged_pair(MachineConfig::default());
                let lh = rng.range_f64(hosts as f64 * synthetic::MIN_USAGE, 1.0);
                for spec in synthetic::host_group(&mut rng, lh, hosts) {
                    spawn_both(&mut reference, &mut batched, spec);
                }
                spawn_both(&mut reference, &mut batched, synthetic::guest_process(nice));
                for seg in 0..12 {
                    let span = rng.range_u64(1, 2_000);
                    let ctx = format!("seed {seed} hosts {hosts} nice {nice} segment {seg}");
                    advance_both(&mut reference, &mut batched, &mut rng, span, 300, &ctx);
                }
            }
        }
    }
}

/// All-CPU-bound races with nobody asleep: 2–6 processes over the full
/// nice range, some with a finite budget that ends mid-span. An epoch
/// that ends on the process that began it repeats until the segment
/// ends, so long chunks retire thousands of epochs at once; the run log
/// pins every tick of them.
#[test]
fn cpu_bound_races_skip_repeating_epochs_tick_exactly() {
    for seed in 0..16u64 {
        let mut rng = Rng::for_stream(0xC9_0B, seed);
        let (mut reference, mut batched) = logged_pair(MachineConfig::default());
        let n = rng.range_u64(2, 7);
        for i in 0..n {
            let nice = rng.range_u64(0, 40) as i8 - 20;
            // The first process never finishes, so the machine never
            // runs out of work.
            let total_work = (i > 0 && rng.chance(0.3)).then(|| rng.range_u64(1, 40_000));
            let class = if rng.chance(0.5) {
                ProcClass::Host
            } else {
                ProcClass::Guest
            };
            let spec = ProcSpec::new(
                format!("cpu{i}"),
                class,
                nice,
                Demand::CpuBound { total_work },
                MemSpec::tiny(),
            );
            spawn_both(&mut reference, &mut batched, spec);
        }
        for seg in 0..6 {
            let span = rng.range_u64(10_000, 20_000);
            let ctx = format!("seed {seed} segment {seg}");
            advance_both(&mut reference, &mut batched, &mut rng, span, 20_000, &ctx);
        }
        assert!(
            reference.recalc_count() > 500,
            "seed {seed}: only {} recalcs",
            reference.recalc_count()
        );
    }
}

/// Duty cycles with control calls between randomly sized chunks: 2–5
/// duty-cycle hosts and guests plus a CPU-bound guest, and before every
/// chunk a suspend, resume or renice of a random process on both
/// machines. Races start from arbitrary counters, stopped processes bank
/// the recalculations races count, and renices change goodness weights
/// and quanta between one epoch and the next.
#[test]
fn duty_cycle_races_with_control_calls_tick_exactly() {
    for seed in 0..16u64 {
        let mut rng = Rng::for_stream(0xD0_7C, seed);
        let (mut reference, mut batched) = logged_pair(MachineConfig::default());
        let n = rng.range_u64(2, 6);
        for i in 0..n {
            let class = if rng.chance(0.5) {
                ProcClass::Host
            } else {
                ProcClass::Guest
            };
            let nice = rng.range_u64(0, 20) as i8;
            let demand = Demand::DutyCycle {
                busy: rng.range_u64(1, 60),
                idle: rng.range_u64(1, 90),
            };
            let spec = ProcSpec::new(format!("d{i}"), class, nice, demand, MemSpec::tiny());
            spawn_both(&mut reference, &mut batched, spec);
        }
        let nice = rng.range_u64(0, 20) as i8;
        spawn_both(
            &mut reference,
            &mut batched,
            ProcSpec::cpu_bound_guest("g", nice),
        );
        for chunk in 0..150 {
            let pid = Pid(rng.below(n + 1) as u32);
            match rng.below(4) {
                0 => {
                    reference.suspend(pid).unwrap();
                    batched.suspend(pid).unwrap();
                }
                1 => {
                    reference.resume(pid).unwrap();
                    batched.resume(pid).unwrap();
                }
                2 => {
                    let nice = rng.range_u64(0, 40) as i8 - 20;
                    reference.renice(pid, nice).unwrap();
                    batched.renice(pid, nice).unwrap();
                }
                _ => {}
            }
            let span = rng.range_u64(1, 400);
            reference.run_ticks_stepwise(span);
            batched.run_ticks(span);
            assert_same(&reference, &batched, &format!("seed {seed} chunk {chunk}"));
        }
    }
}

/// Twin machines running `specs`: the reference one steps, the other
/// batches and measures. Neither logs, so `measure` may skip periods.
fn measure_pair(cfg: MachineConfig, specs: &[ProcSpec]) -> (Machine, Machine) {
    let mut reference = Machine::new(cfg.clone());
    let mut fast = Machine::new(cfg);
    for spec in specs {
        spawn_both(&mut reference, &mut fast, spec.clone());
    }
    (reference, fast)
}

/// Advances both machines by `warm` ticks, the reference through
/// `step()` and `fast` through `run_ticks`.
fn warm_both(reference: &mut Machine, fast: &mut Machine, warm: u64) {
    reference.run_ticks_stepwise(warm);
    fast.run_ticks(warm);
}

/// Measures `window` ticks on `fast` and steps the reference through
/// them: the accounting deltas and every observable must agree.
fn measure_both(reference: &mut Machine, fast: &mut Machine, window: u64, ctx: &str) {
    let want = stepwise_delta(reference, window);
    assert_eq!(
        fast.measure(window),
        want,
        "measured delta diverged ({ctx})"
    );
    assert_same(reference, fast, ctx);
}

/// The contention harness's warm-up and window (20 s, 240 s).
const WARM: u64 = 2_000;
const WINDOW: u64 = 24_000;

/// A Figure 1 host group: `m` duty-cycle hosts summing to `lh`.
fn figure1_hosts(lh: f64, m: usize, stream: u64) -> Vec<ProcSpec> {
    let mut rng = Rng::for_stream(0xF1_3E, stream);
    synthetic::host_group(&mut rng, lh, m.min(synthetic::max_group_size(lh)))
}

/// `measure` on the Figure 1 machines: every group size, alone and
/// beside a CPU-bound guest at nice 0 and 19, over light to saturating
/// loads. Most of these windows repeat their scheduling state early and
/// skip whole periods; the rest step through to the end.
#[test]
fn measure_equals_stepwise_on_figure1_points() {
    for m in 1..=5usize {
        for (j, lh) in [0.2, 0.5, 0.8, 1.0].into_iter().enumerate() {
            let hosts = figure1_hosts(lh, m, (m * 8 + j) as u64);
            for guest in [None, Some(0i8), Some(19)] {
                let ctx = format!("M={m} LH={lh} guest nice {guest:?}");
                let mut specs = hosts.clone();
                specs.extend(guest.map(synthetic::guest_process));
                let (mut reference, mut fast) = measure_pair(MachineConfig::default(), &specs);
                warm_both(&mut reference, &mut fast, WARM);
                measure_both(&mut reference, &mut fast, WINDOW, &ctx);
            }
        }
    }
}

/// `measure` on Figure 4's Solaris machine, where a Musbus workload and
/// a SPEC guest overcommit memory: the page-fault stall debt is a float
/// the state key compares bit for bit.
#[test]
fn measure_equals_stepwise_on_the_thrashing_solaris_machine() {
    for h in musbus::all() {
        for app in [spec::APSI, spec::BZIP2] {
            for nice in [0i8, 19] {
                let ctx = format!("{} + {} at nice {nice}", h.name, app.name);
                let mut specs = h.processes();
                specs.push(app.guest_spec(nice));
                let cfg = MachineConfig::solaris_384mb();
                let (mut reference, mut fast) = measure_pair(cfg, &specs);
                warm_both(&mut reference, &mut fast, WARM);
                measure_both(&mut reference, &mut fast, WINDOW, &ctx);
            }
        }
    }
}

/// `measure` when process 0, whose sleeps time the samples, is a phase
/// list: a Musbus compiler loop ahead of its group, and a three-phase
/// loop beside a duty cycle and a guest.
#[test]
fn measure_equals_stepwise_when_process_0_runs_phases() {
    let three_phases = ProcSpec::new(
        "phases",
        ProcClass::Host,
        0,
        Demand::Phases {
            phases: vec![
                Phase { busy: 5, idle: 20 },
                Phase { busy: 12, idle: 3 },
                Phase { busy: 1, idle: 40 },
            ],
            repeat: true,
        },
        MemSpec::tiny(),
    );
    let groups = musbus::all().map(|h| {
        let mut specs = h.processes();
        specs.rotate_right(1); // the compiler first
        specs
    });
    let mixed = vec![
        three_phases,
        synthetic::host_process("host", 0.3),
        synthetic::guest_process(0),
    ];
    for (g, hosts) in groups.into_iter().chain([mixed]).enumerate() {
        for guest in [None, Some(0i8)] {
            let ctx = format!("group {g} guest nice {guest:?}");
            let mut specs = hosts.clone();
            specs.extend(guest.map(synthetic::guest_process));
            let (mut reference, mut fast) = measure_pair(MachineConfig::default(), &specs);
            warm_both(&mut reference, &mut fast, WARM);
            measure_both(&mut reference, &mut fast, WINDOW, &ctx);
        }
    }
}

/// `measure` after the guest was suspended (it banks recalculations
/// while stopped) or reniced (its quantum changes at the next
/// recalculation) between the warm-up and the window, and after a
/// resume that brings the stopped guest back inside a second window.
#[test]
fn measure_equals_stepwise_with_a_suspended_or_reniced_guest() {
    for m in [1usize, 3] {
        let mut specs = figure1_hosts(0.6, m, 100 + m as u64);
        specs.push(synthetic::guest_process(0));
        let guest = Pid(m as u32);
        for suspend in [true, false] {
            let ctx = format!("M={m} {}", if suspend { "suspend" } else { "renice" });
            let (mut reference, mut fast) = measure_pair(MachineConfig::default(), &specs);
            warm_both(&mut reference, &mut fast, WARM);
            for machine in [&mut reference, &mut fast] {
                if suspend {
                    machine.suspend(guest).unwrap();
                } else {
                    machine.renice(guest, 19).unwrap();
                }
            }
            measure_both(&mut reference, &mut fast, WINDOW, &ctx);
            reference.resume(guest).unwrap();
            fast.resume(guest).unwrap();
            measure_both(
                &mut reference,
                &mut fast,
                WINDOW,
                &format!("{ctx}, resumed"),
            );
        }
    }
}

/// With the run log on, `measure` steps every tick it logs: the log
/// must hold one entry per executed tick of the window, as the
/// reference's does.
#[test]
fn measure_equals_stepwise_with_the_run_log_on() {
    let mut specs = figure1_hosts(0.5, 2, 7);
    specs.push(synthetic::guest_process(19));
    let (mut reference, mut fast) = logged_pair(MachineConfig::default());
    for spec in specs {
        spawn_both(&mut reference, &mut fast, spec);
    }
    warm_both(&mut reference, &mut fast, WARM);
    measure_both(&mut reference, &mut fast, WINDOW, "run log on");
    assert_eq!(fast.run_log().len() as u64, WARM + WINDOW);
}

/// `measure` on a Solaris machine that thrashes through the whole
/// window, with a lone duty-cycle host and then beside a guest. Under
/// mild overcommit the integer state soon repeats while the stall debt
/// drifts, so only the debt's bits and the pending stall keep those
/// samples apart; under deep overcommit the per-tick debt saturates at
/// 50 whole stall ticks, the machine is exactly periodic, and every
/// sample ends on a pending stall that the skip must carry over.
#[test]
fn measure_equals_stepwise_while_thrashing() {
    for (label, resident_mb) in [("mild", 330u32), ("deep", 6_000)] {
        for guest in [None, Some(19i8)] {
            let ctx = format!("{label} overcommit, guest nice {guest:?}");
            let host = ProcSpec::new(
                "host",
                ProcClass::Host,
                0,
                Demand::DutyCycle { busy: 5, idle: 40 },
                MemSpec::resident(resident_mb),
            );
            let mut specs = vec![host];
            specs.extend(guest.map(synthetic::guest_process));
            let cfg = MachineConfig::solaris_384mb();
            let (mut reference, mut fast) = measure_pair(cfg, &specs);
            warm_both(&mut reference, &mut fast, WARM);
            measure_both(&mut reference, &mut fast, WINDOW, &ctx);
            assert!(reference.accounting().iowait > 0, "{ctx}: never thrashed");
        }
    }
}

/// `measure` on a machine whose samples outgrow the arena before its
/// state repeats: 40 hosts with distinct duty cycles, process 0 asleep
/// every tenth tick. Past the sample cap the window runs on through
/// `run_ticks`.
#[test]
fn measure_equals_stepwise_past_the_sample_cap() {
    let mut specs = vec![ProcSpec::synthetic_host("fast", 0.1, 10)];
    specs.extend((0..39).map(|i| ProcSpec::synthetic_host(format!("h{i}"), 0.01, 101 + 2 * i)));
    specs.push(synthetic::guest_process(0));
    let (mut reference, mut fast) = measure_pair(MachineConfig::default(), &specs);
    warm_both(&mut reference, &mut fast, WARM);
    measure_both(&mut reference, &mut fast, WINDOW, "past the sample cap");
}
