//! Placement-path benchmarks for the online availability model.
//!
//! * `place` — one `OnlineAvailabilityModel::place` pass over fleets of
//!   512, 10 k and 100 k registered machines with 25 %, 75 % and 100 %
//!   of them harvestable. Throughput is registered machines per second,
//!   so ns per registered machine is `1e9 / (elem/s)`: the cost of a
//!   `Place` request that follows a write is that times the fleet, under
//!   one lock and nothing else. The model remembers its last answer
//!   until the next write, so these rows alternate `t` between two
//!   instants one second apart in the same hour: every call misses the
//!   memo and scores the same five hour slices.
//! * `place/512_machines/repeat` — the same `place` call twice in a row
//!   with no write between, which is most of the service's `Place`
//!   requests: a key compare under the lock.
//! * `predict_machine` — one per-machine prediction (the service's
//!   `QueryAvail`) against a 1-day and a 92-day observed horizon. The
//!   day-type tally is kept as the horizon advances, not recounted per
//!   call, so the two should read the same.
//!
//! After the rows it gates the memo in the same process: a repeated
//! `place` at 512 machines must be at least [`MIN_HIT_SPEEDUP`]× cheaper
//! than a pass or the bench exits non-zero. A ratio, so host speed
//! cancels.

use std::time::Duration;

use criterion::{criterion_group, Criterion, Throughput};
use std::hint::black_box;

use fgcs_bench::best_ns;
use fgcs_predict::OnlineAvailabilityModel;

const DAY: u64 = 86_400;
/// The job length `query_mix` places, and its query horizon.
const JOB_LEN: u64 = 14_400;
const QUERY_HORIZON: u64 = 1_800;
/// A memo hit is a key compare and a copy, a few ns; the 512-machine
/// pass is several µs. Anything under this means `place` stopped
/// answering repeats from the memo.
const MIN_HIT_SPEEDUP: f64 = 20.0;

/// A scrambled but repeatable value in `0..n`.
fn scatter(i: u64, salt: u64, n: u64) -> u64 {
    let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x.wrapping_mul(0x94D0_49BB_1331_11EB) >> 17) % n
}

/// A fleet observed for `days`: every machine registered, most with a
/// handful of failures at their own hours of the day, `harvestable_pct`
/// of them currently placeable.
fn fleet(machines: u32, days: u64, harvestable_pct: u64) -> OnlineAvailabilityModel {
    let mut model = OnlineAvailabilityModel::new(2);
    for m in 0..machines {
        let i = u64::from(m);
        model.set_harvestable(m, scatter(i, 1, 100) < harvestable_pct);
        for e in 0..scatter(i, 2, 9) {
            let day = scatter(i, 3 + e, days);
            let hour = (scatter(i, 4, 24) + e) % 24;
            model.record_event(m, day * DAY + hour * 3_600 + scatter(i, 5 + e, 3_600));
        }
    }
    model.observe_time(days * DAY);
    model
}

/// The `t` of a pass's `i`th call: `now - 1` and `now - 2` in turn, so
/// no call finds the previous one's answer in the memo, and both windows
/// cover the same hour slices.
fn miss_t(now: u64, i: u64) -> u64 {
    now - 1 - (i & 1)
}

fn bench_place(c: &mut Criterion) {
    let mut g = c.benchmark_group("place");
    for machines in [512u32, 10_000, 100_000] {
        g.throughput(Throughput::Elements(u64::from(machines)));
        for pct in [25u64, 75, 100] {
            let mut model = fleet(machines, 14, pct);
            let now = model.horizon();
            let mut i = 0;
            g.bench_function(format!("{machines}_machines/{pct}pct_harvestable"), |b| {
                b.iter(|| {
                    i += 1;
                    black_box(model.place(black_box(miss_t(now, i)), JOB_LEN))
                })
            });
        }
        if machines == 512 {
            let mut model = fleet(machines, 14, 100);
            let now = model.horizon();
            g.bench_function(format!("{machines}_machines/repeat"), |b| {
                b.iter(|| black_box(model.place(black_box(now - 1), JOB_LEN)))
            });
        }
    }
    g.finish();
}

fn bench_predict_machine(c: &mut Criterion) {
    let mut g = c.benchmark_group("predict_machine");
    for days in [1u64, 92] {
        let model = fleet(512, days, 100);
        let now = model.horizon();
        let mut m = 0u32;
        g.bench_function(format!("{days}_day_horizon"), |b| {
            b.iter(|| {
                m = (m + 37) % 512;
                black_box(model.predict_machine(black_box(m), now, QUERY_HORIZON))
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
    targets = bench_place, bench_predict_machine
}

fn gate() {
    let mut model = fleet(512, 14, 100);
    let now = model.horizon();
    let (pass_iters, repeat_iters) = if std::env::var_os("FGCS_BENCH_QUICK").is_some() {
        (200, 20_000)
    } else {
        (2_000, 200_000)
    };
    let mut i = 0;
    let pass = best_ns(7, pass_iters, || {
        i += 1;
        model.place(black_box(miss_t(now, i)), JOB_LEN)
    });
    let repeat = best_ns(7, repeat_iters, || model.place(black_box(now - 1), JOB_LEN));
    let speedup = pass / repeat;
    println!(
        "gate place/512_machines  pass {pass:.0} ns, repeat {repeat:.1} ns, \
         speedup {speedup:.0}x (need >= {MIN_HIT_SPEEDUP}x)"
    );
    if speedup < MIN_HIT_SPEEDUP {
        eprintln!("place bench: a repeated place only {speedup:.1}x cheaper than a pass");
        std::process::exit(1);
    }
}

fn main() {
    benches();
    gate();
}
