//! Simulator stepping throughput: the per-tick reference path
//! (`run_ticks_stepwise`) versus the event-horizon batched path
//! (`run_ticks`), in ticks per second, over four workload shapes:
//!
//! * `idle_heavy` — low-duty hosts that sleep most of every period; the
//!   machine idles between wakes, so the batched path retires whole
//!   sleep horizons at once;
//! * `contended` — CPU-bound host and guest processes competing at
//!   mixed priorities; the batched path replays the race once per
//!   context switch and retires repeating epochs whole;
//! * `thrashing` — memory overcommit; work ticks go through the slow
//!   path but iowait stalls batch;
//! * `harvest` — the Figure 1 machine: three duty-cycle hosts and one
//!   CPU-bound nice-19 guest that soaks up every tick they leave. The
//!   guest's quantum is one tick, so whenever the hosts sleep it is a
//!   lone runnable crossing an epoch per tick; batches span those
//!   epochs up to the next host wake.
//!
//! After the rows it gates the batched path against the stepwise one in
//! the same process: at least [`MIN_HARVEST_SPEEDUP`]× on `harvest` and
//! [`MIN_CONTENDED_SPEEDUP`]× on `contended`, or the bench exits
//! non-zero. Ratios, so host speed cancels; each is the median of nine
//! paired rounds, so one host hiccup cannot sink it.
//!
//! `scripts/ci.sh` runs this with `FGCS_BENCH_QUICK=1`; BENCH_sim.json
//! records a full run's before/after ticks per second.

use std::time::Duration;

use criterion::{criterion_group, Criterion, Throughput};
use std::hint::black_box;

use fgcs_bench::paired_ratio;
use fgcs_sim::machine::{Machine, MachineConfig};
use fgcs_sim::proc::{Demand, MemSpec, ProcClass, ProcSpec};
use fgcs_sim::time::secs;
use fgcs_sim::workloads::synthetic;
use fgcs_stats::rng::Rng;

/// The batched path measures 6.7–7.4× the stepwise one on `harvest`
/// (median of nine paired rounds, nine quick runs on a 2-vCPU host;
/// 1.07× before lone-runnable spans crossed epoch boundaries, about 4×
/// before races batched); anything under this means lone-runnable spans
/// or races stopped batching.
const MIN_HARVEST_SPEEDUP: f64 = 5.0;

/// The batched path measures about 170× the stepwise one on `contended`
/// (about 2.2× when every epoch boundary among several runnables went
/// through `step()`); anything under this means repeating epochs
/// stopped retiring whole.
const MIN_CONTENDED_SPEEDUP: f64 = 20.0;

/// Sub-percent-duty host mix — the paper's mostly-idle lab machine.
/// Long sleeps between short bursts, so most wall time is idle and the
/// batched path retires whole sleep horizons at once.
fn idle_heavy() -> Machine {
    let mut m = Machine::default_linux();
    m.spawn(ProcSpec::new(
        "h1",
        ProcClass::Host,
        0,
        Demand::DutyCycle { busy: 2, idle: 998 },
        MemSpec::tiny(),
    ));
    m.spawn(ProcSpec::new(
        "h2",
        ProcClass::Host,
        0,
        Demand::DutyCycle {
            busy: 5,
            idle: 1995,
        },
        MemSpec::tiny(),
    ));
    m.spawn(ProcSpec::new(
        "sys",
        ProcClass::System,
        0,
        Demand::DutyCycle {
            busy: 1,
            idle: 4999,
        },
        MemSpec::tiny(),
    ));
    m.spawn(ProcSpec::new(
        "g",
        ProcClass::Guest,
        19,
        Demand::DutyCycle {
            busy: 10,
            idle: 3990,
        },
        MemSpec::tiny(),
    ));
    m
}

/// CPU-bound contention: two hosts and two guests, mixed priorities —
/// always someone runnable, batches bounded by quanta and margins.
fn contended() -> Machine {
    let mut m = Machine::default_linux();
    m.spawn(ProcSpec::new(
        "h1",
        ProcClass::Host,
        0,
        Demand::CpuBound { total_work: None },
        MemSpec::tiny(),
    ));
    m.spawn(ProcSpec::new(
        "h2",
        ProcClass::Host,
        5,
        Demand::CpuBound { total_work: None },
        MemSpec::tiny(),
    ));
    m.spawn(ProcSpec::new(
        "g1",
        ProcClass::Guest,
        19,
        Demand::CpuBound { total_work: None },
        MemSpec::tiny(),
    ));
    m.spawn(ProcSpec::new(
        "g2",
        ProcClass::Guest,
        10,
        Demand::CpuBound { total_work: None },
        MemSpec::tiny(),
    ));
    m
}

/// Memory overcommit on the small Solaris-class machine: every executed
/// tick owes page-fault stall, most wall time is iowait.
fn thrashing() -> Machine {
    let mut m = Machine::new(MachineConfig::solaris_384mb());
    m.spawn(ProcSpec::new(
        "h",
        ProcClass::Host,
        0,
        Demand::CpuBound { total_work: None },
        MemSpec::resident(250),
    ));
    m.spawn(ProcSpec::new(
        "g",
        ProcClass::Guest,
        19,
        Demand::CpuBound { total_work: None },
        MemSpec::resident(250),
    ));
    m
}

/// The Figure 1 machine (`contention::reduction_point` at LH = 0.5,
/// M = 3): a `synthetic::host_group` of three duty-cycle hosts at
/// 600–840 ms periods plus the CPU-bound guest at nice 19.
fn harvest() -> Machine {
    let mut m = Machine::default_linux();
    let mut rng = Rng::new(0xF161);
    for host in synthetic::host_group(&mut rng, 0.5, 3) {
        m.spawn(host);
    }
    m.spawn(synthetic::guest_process(19));
    m
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    let span = secs(10);
    for (name, build) in [
        ("idle_heavy", idle_heavy as fn() -> Machine),
        ("contended", contended),
        ("thrashing", thrashing),
        ("harvest", harvest),
    ] {
        // Warm one machine per path past spawn transients, then measure
        // steady-state stepping. State carries across iterations — the
        // workloads are steady, so every span is representative.
        let mut stepwise = build();
        stepwise.run_ticks_stepwise(secs(5));
        let mut batched = build();
        batched.run_ticks(secs(5));

        g.throughput(Throughput::Elements(span));
        g.bench_function(format!("stepwise/{name}"), |b| {
            b.iter(|| {
                stepwise.run_ticks_stepwise(span);
                black_box(stepwise.now())
            })
        });
        g.bench_function(format!("batched/{name}"), |b| {
            b.iter(|| {
                batched.run_ticks(span);
                black_box(batched.now())
            })
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_sim_throughput
}

/// Exits non-zero unless the batched path is at least `min`× the
/// stepwise one on the machine `build` returns, read as the median of
/// nine paired rounds.
fn gate(name: &str, build: fn() -> Machine, min: f64) {
    let span = secs(10);
    let iters = if std::env::var_os("FGCS_BENCH_QUICK").is_some() {
        20
    } else {
        200
    };
    let mut stepwise = build();
    stepwise.run_ticks_stepwise(secs(5));
    let mut batched = build();
    batched.run_ticks(secs(5));
    let (speedup, batched_ns, stepwise_ns) = paired_ratio(
        9,
        iters,
        || {
            batched.run_ticks(span);
            batched.now()
        },
        || {
            stepwise.run_ticks_stepwise(span);
            stepwise.now()
        },
    );
    println!(
        "gate sim_throughput/{name}  batched {:.2} ns/tick, stepwise {:.1} ns/tick, \
         median round speedup {speedup:.2}x (need >= {min}x)",
        batched_ns / span as f64,
        stepwise_ns / span as f64
    );
    if speedup < min {
        eprintln!("sim bench: batched path only {speedup:.2}x the stepwise path on {name}");
        std::process::exit(1);
    }
}

fn main() {
    benches();
    gate("harvest", harvest, MIN_HARVEST_SPEEDUP);
    gate("contended", contended, MIN_CONTENDED_SPEEDUP);
}
