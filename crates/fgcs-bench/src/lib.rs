//! Shared fixtures for the fgcs benchmark suite (see `benches/`).
//!
//! Benchmarks run scaled-down versions of the real experiment code
//! paths: the same functions `fgcs-exp` uses to regenerate each table
//! and figure, with parameters reduced so a full `cargo bench` completes
//! in minutes.

use std::hint::black_box;
use std::time::Instant;

use fgcs_core::contention::ContentionConfig;
use fgcs_testbed::runner::TestbedConfig;
use fgcs_testbed::trace::Trace;

/// Contention config for benches: short runs, single combo.
pub fn bench_contention_cfg() -> ContentionConfig {
    ContentionConfig {
        warmup_secs: 2,
        measure_secs: 20,
        combos: 1,
        seed: 0xBE7C4,
    }
}

/// Testbed config for benches: 4 machines, 7 days.
pub fn bench_testbed_cfg() -> TestbedConfig {
    let mut cfg = TestbedConfig::tiny();
    cfg.lab.machines = 4;
    cfg.lab.days = 7;
    cfg
}

/// A pre-generated small trace shared by analysis benches.
pub fn bench_trace() -> Trace {
    fgcs_testbed::runner::run_testbed(&bench_testbed_cfg())
}

/// A longer trace for predictor benches (needs enough history days).
pub fn bench_trace_long() -> Trace {
    let mut cfg = bench_testbed_cfg();
    cfg.lab.days = 21;
    fgcs_testbed::runner::run_testbed(&cfg)
}

/// Nanoseconds per call of `f` over `iters` back-to-back calls.
fn ns_per_call<T>(iters: u32, f: &mut impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Nanoseconds per call of `f` over `iters` back-to-back calls, best of
/// `rounds` — the timer behind the `wire` and `place` ratio gates, which
/// compare two of these so host speed cancels.
pub fn best_ns<T>(rounds: u32, iters: u32, mut f: impl FnMut() -> T) -> f64 {
    (0..rounds)
        .map(|_| ns_per_call(iters, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Median over `rounds` of the per-round ratio `slow / fast`, each round
/// timing `iters` calls of one then `iters` of the other (the order
/// alternating between rounds), with each side's best round in ns per
/// call. A host hiccup lands in one round's ratio instead of in one
/// side's best, so a ratio gate read this way does not flake when the
/// two sides would otherwise be timed seconds apart.
pub fn paired_ratio<A, B>(
    rounds: u32,
    iters: u32,
    mut fast: impl FnMut() -> A,
    mut slow: impl FnMut() -> B,
) -> (f64, f64, f64) {
    let (mut best_fast, mut best_slow) = (f64::INFINITY, f64::INFINITY);
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|round| {
            let (f, s) = if round % 2 == 0 {
                let f = ns_per_call(iters, &mut fast);
                (f, ns_per_call(iters, &mut slow))
            } else {
                let s = ns_per_call(iters, &mut slow);
                (ns_per_call(iters, &mut fast), s)
            };
            best_fast = best_fast.min(f);
            best_slow = best_slow.min(s);
            s / f
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[ratios.len() / 2], best_fast, best_slow)
}
