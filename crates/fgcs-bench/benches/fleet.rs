//! Fleet-path benchmarks: the two optimizations that make the 100k+
//! machine sweep (X15) feasible.
//!
//! * `tracer` — the per-sample reference tracer (`trace_machine`)
//!   versus the event-horizon batched tracer (`trace_machine_batched`)
//!   over one machine-fortnight, per archetype. The batched path
//!   collapses dead downtime to a single detector observe, skips a
//!   harvest wait or a spike tolerance to the deadline the detector
//!   reports, and, once the detector has settled on a calm or a failing
//!   span, stops stepping it, crediting a calm run in one call; the two
//!   are bit-identical (asserted in fgcs-testbed's tests and
//!   `tests/tracer_equivalence.rs`, pinned by `tests/trace_golden.rs`).
//! * `supervised` — the supervised per-sample oracle
//!   (`trace_machine_supervised_per_sample`: every sample through the
//!   fault stream and the supervisor) versus the supervised walker
//!   (`trace_machine_supervised`, what X11's `run_testbed_faulty` uses)
//!   on the student lab at fault scales ×0 and ×1. Between fault events
//!   the walker runs the span tracer's kernel; the two are bit-identical
//!   (asserted in `tests/tracer_equivalence.rs`).
//!   `pass_clean/x{0.5,1,4}` prices the fault countdown walk alone: one
//!   [`Injector`] walking a million underlying samples the way the
//!   walker does (clean stretches through `pass_clean`, each faulting
//!   sample through `push`), reported per underlying sample.
//! * `plan` — what every tracer does before the first detector step:
//!   `generate/<archetype>` builds one 92-day [`MachinePlan`] (the draw
//!   loop, the stable radix sort by start, the downtime merge and the
//!   one-cursor truncation), `walk/<archetype>` walks its spans through
//!   one reused [`PlanSpan`] (DESIGN.md §15.6).
//! * `quantiles` — sort-based exact quantiles versus the mergeable
//!   [`RankSketch`] over a 100k-element stream: the sketch is what lets
//!   the Figure 6 analysis run without materializing fleet-scale
//!   interval vectors.
//!
//! After the rows it gates the span tracer against the per-sample one
//! in the same process: on the student-lab archetype — the paper's lab,
//! which `run_testbed` traces for every §5 artifact — it must be at
//! least [`MIN_SPEEDUP`]× faster, and the supervised walker at least
//! [`MIN_SUPERVISED_SPEEDUP`]× its oracle at noisy ×1 (each the median
//! of nine paired rounds), or the bench exits non-zero. Ratios, so host
//! speed cancels.

use std::time::Duration;

use criterion::{criterion_group, Criterion, Throughput};
use std::hint::black_box;

use fgcs_bench::paired_ratio;
use fgcs_core::detector::DetectorConfig;
use fgcs_faults::{FaultConfig, Injector, Timestamped};
use fgcs_stats::quantile::quantiles;
use fgcs_stats::sketch::RankSketch;
use fgcs_testbed::fleet::Archetype;
use fgcs_testbed::lab::{MachinePlan, PlanSpan};
use fgcs_testbed::runner::{
    trace_machine, trace_machine_batched, trace_machine_supervised,
    trace_machine_supervised_per_sample, SupervisorConfig, TestbedConfig,
};

/// The span tracer measures 3.9–5.3× the per-sample one on the student
/// lab (median of nine paired rounds, 11 quick runs on a 2-vCPU host;
/// 3.4–4.4× over 10 runs alternated with those, before it skipped the
/// harvest delay and the spike tolerance to their deadlines), since
/// loaded spans settle like idle ones; with only idle spans settled it
/// read 2.1–2.5×. Anything under this means the settled-span paths
/// stopped engaging.
const MIN_SPEEDUP: f64 = 2.8;

/// The supervised walker measures 4.5–5.3× its per-sample oracle on the
/// student lab at noisy ×1 (median of nine paired rounds, 6 quick runs
/// on a 2-vCPU host) since each fault mode counts down to its next
/// fault; with a draw per mode and sample it read 2.2–2.9× over 4 runs
/// alternated with those. Anything under this means clean runs stopped
/// reaching the span kernel.
const MIN_SUPERVISED_SPEEDUP: f64 = 1.8;

/// The X11 fault plan at `scale` (×0 is the identity injection).
fn noisy(scale: f64) -> FaultConfig {
    FaultConfig::noisy(20050801).scaled(scale)
}

fn archetype_testbed(arch: Archetype) -> TestbedConfig {
    let mut lab = arch.lab_config();
    lab.machines = 1;
    lab.days = 14;
    TestbedConfig {
        lab,
        detector: DetectorConfig::wallclock_default(),
    }
}

fn bench_tracer(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_tracer");
    for arch in [
        Archetype::StudentLab,
        Archetype::ServerFarm,
        Archetype::Laptop,
    ] {
        let cfg = archetype_testbed(arch);
        g.throughput(Throughput::Elements(cfg.lab.days as u64));
        g.bench_function(format!("exact/{}", arch.name()), |b| {
            b.iter(|| black_box(trace_machine(&cfg, 0).len()))
        });
        g.bench_function(format!("batched/{}", arch.name()), |b| {
            b.iter(|| black_box(trace_machine_batched(&cfg, 0).len()))
        });
    }
    g.finish();
}

fn bench_supervised(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_supervised");
    let cfg = archetype_testbed(Archetype::StudentLab);
    let sup = SupervisorConfig::default();
    g.throughput(Throughput::Elements(cfg.lab.days as u64));
    for scale in [0.0, 1.0] {
        let faults = noisy(scale);
        g.bench_function(format!("oracle/x{scale}"), |b| {
            b.iter(|| black_box(trace_machine_supervised_per_sample(&cfg, &faults, &sup, 0).0))
        });
        g.bench_function(format!("walker/x{scale}"), |b| {
            b.iter(|| black_box(trace_machine_supervised(&cfg, &faults, &sup, 0).0))
        });
    }
    g.finish();
}

/// A bare timestamp: the fault scan never reads a sample's content.
#[derive(Clone)]
struct Tick(u64);

impl Timestamped for Tick {
    fn ts(&self) -> u64 {
        self.0
    }
    fn set_ts(&mut self, t: u64) {
        self.0 = t;
    }
}

/// Walks `n` underlying samples through a fresh injector as the
/// supervised walker does; returns how many it delivered (samples still
/// held back at the end are not counted).
fn scan(faults: &FaultConfig, n: u64) -> u64 {
    let mut inj = Injector::new(faults, 0);
    let (mut i, mut delivered) = (0, 0);
    while i < n {
        if inj.is_quiet() {
            let k = inj.pass_clean(n - i);
            (i, delivered) = (i + k, delivered + k);
            if i == n {
                break;
            }
        }
        delivered += u64::from(inj.push(Tick(i * 15)).is_some());
        while inj.next_queued().is_some() {
            delivered += 1;
        }
        i += 1;
    }
    delivered
}

fn bench_pass_clean(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_supervised");
    const N: u64 = 1_000_000;
    g.throughput(Throughput::Elements(N));
    for scale in [0.5, 1.0, 4.0] {
        let faults = noisy(scale);
        g.bench_function(format!("pass_clean/x{scale}"), |b| {
            b.iter(|| black_box(scan(&faults, N)))
        });
    }
    g.finish();
}

fn bench_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan");
    for arch in Archetype::ALL {
        let lab = arch.lab_config();
        assert_eq!(lab.days, 92, "{arch:?}: the rows price a 92-day machine");
        g.throughput(Throughput::Elements(lab.days as u64));
        g.bench_function(format!("generate/{}", arch.name()), |b| {
            b.iter(|| black_box(MachinePlan::generate(black_box(&lab), 0)))
        });
        let plan = MachinePlan::generate(&lab, 0);
        g.bench_function(format!("walk/{}", arch.name()), |b| {
            b.iter(|| {
                let (mut spans, mut span, mut n) = (plan.spans(), PlanSpan::default(), 0usize);
                while spans.next_into(&mut span) {
                    n += span.loads.len();
                }
                black_box(n)
            })
        });
    }
    g.finish();
}

fn bench_quantiles(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_quantiles");
    // A deterministic scrambled stream, no RNG needed.
    let xs: Vec<f64> = (0u64..100_000)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 100_003) as f64)
        .collect();
    let qs = [0.5, 0.9, 0.99];
    g.throughput(Throughput::Elements(xs.len() as u64));
    g.bench_function("sort_exact", |b| b.iter(|| black_box(quantiles(&xs, &qs))));
    g.bench_function("sketch_k4096", |b| {
        b.iter(|| {
            let mut sk = RankSketch::new(4096);
            sk.extend(&xs);
            black_box(sk.quantiles(&qs))
        })
    });
    // The mergeable path the fleet runner actually uses: per-chunk
    // sketches merged in order.
    g.bench_function("sketch_k4096_merged_16", |b| {
        b.iter(|| {
            let mut total = RankSketch::new(4096);
            for chunk in xs.chunks(xs.len() / 16) {
                let mut part = RankSketch::new(4096);
                part.extend(chunk);
                total.merge(&part);
            }
            black_box(total.quantiles(&qs))
        })
    });
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
    targets = bench_tracer, bench_supervised, bench_pass_clean, bench_plan, bench_quantiles
}

fn gate() {
    let cfg = archetype_testbed(Archetype::StudentLab);
    let iters = if std::env::var_os("FGCS_BENCH_QUICK").is_some() {
        5
    } else {
        25
    };
    let (speedup, span, per_sample) = paired_ratio(
        9,
        iters,
        || trace_machine_batched(black_box(&cfg), 0).len(),
        || trace_machine(black_box(&cfg), 0).len(),
    );
    println!(
        "gate fleet_tracer/student-lab  span {:.0} us, per-sample {:.0} us, \
         median round speedup {speedup:.2}x (need >= {MIN_SPEEDUP}x)",
        span / 1e3,
        per_sample / 1e3
    );
    if speedup < MIN_SPEEDUP {
        eprintln!("fleet bench: span tracer only {speedup:.2}x the per-sample tracer");
        std::process::exit(1);
    }

    let (faults, sup) = (noisy(1.0), SupervisorConfig::default());
    let (speedup, walker, oracle) = paired_ratio(
        9,
        iters,
        || {
            trace_machine_supervised(black_box(&cfg), &faults, &sup, 0)
                .0
                .len()
        },
        || {
            trace_machine_supervised_per_sample(black_box(&cfg), &faults, &sup, 0)
                .0
                .len()
        },
    );
    println!(
        "gate fleet_supervised/student-lab/x1  walker {:.0} us, per-sample {:.0} us, \
         median round speedup {speedup:.2}x (need >= {MIN_SUPERVISED_SPEEDUP}x)",
        walker / 1e3,
        oracle / 1e3
    );
    if speedup < MIN_SUPERVISED_SPEEDUP {
        eprintln!("fleet bench: supervised walker only {speedup:.2}x its per-sample oracle");
        std::process::exit(1);
    }
}

fn main() {
    benches();
    gate();
}
