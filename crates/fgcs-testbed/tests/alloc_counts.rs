//! Counted cost: how many times the span walk, the span tracer and the
//! JSONL trace codec call the allocator, read off a counting global
//! allocator. A count is deterministic where a timing is not, so it
//! states each one's cost exactly: it must not grow with the number of
//! spans walked or records written and read.
//!
//! Each count is per thread (the counters are thread-locals), so tests
//! running side by side in this binary do not see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fgcs_core::detector::DetectorConfig;
use fgcs_core::model::{FailureCause, Thresholds};
use fgcs_testbed::lab::{LabConfig, MachinePlan, PlanSpan};
use fgcs_testbed::runner::{trace_machine_batched, TestbedConfig};
use fgcs_testbed::scenarios;
use fgcs_testbed::trace::{Trace, TraceMeta, TraceRecord};

/// Counts every allocation and reallocation of the calling thread, then
/// defers to the system allocator.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

fn student_lab(days: usize) -> LabConfig {
    LabConfig {
        days,
        ..scenarios::student_lab()
    }
}

/// Walks every span of `plan` through one reused [`PlanSpan`]; returns
/// how many were live.
fn walk(plan: &MachinePlan) -> u64 {
    let (mut spans, mut span, mut live) = (plan.spans(), PlanSpan::default(), 0);
    while spans.next_into(&mut span) {
        live += u64::from(!span.dead);
    }
    live
}

#[test]
fn the_span_walk_allocates_a_bounded_number_of_times() {
    let short = MachinePlan::generate(&student_lab(14), 0);
    let long = MachinePlan::generate(&student_lab(92), 0);
    let (short_spans, short_allocs) = allocations(|| walk(&short));
    let (long_spans, long_allocs) = allocations(|| walk(&long));
    println!("walk: 14 days {short_spans} live spans, {short_allocs} allocations");
    println!("walk: 92 days {long_spans} live spans, {long_allocs} allocations");
    assert!(long_spans > 5_000, "{long_spans} live spans");
    // Only the active set and the loads buffer grow, each by doubling
    // up to the largest active set: 6.4x the spans, a handful more
    // allocations at most.
    assert!(long_allocs <= 8, "{long_allocs} allocations");
    assert!(
        long_allocs <= short_allocs + 4,
        "{short_allocs} -> {long_allocs}"
    );
}

#[test]
fn the_span_tracer_allocates_a_bounded_number_of_times() {
    let cfg = |days| TestbedConfig {
        lab: student_lab(days),
        detector: DetectorConfig::wallclock_default(),
    };
    let (short, short_allocs) = allocations(|| trace_machine_batched(&cfg(14), 0));
    let (long, long_allocs) = allocations(|| trace_machine_batched(&cfg(92), 0));
    println!(
        "trace_machine_batched: 14 days {} records, {short_allocs} allocations",
        short.len()
    );
    println!(
        "trace_machine_batched: 92 days {} records, {long_allocs} allocations",
        long.len()
    );
    // The plan, its sort buffer, the walk's two buffers and the record
    // vector each grow by doubling: logarithmic in the trace, never one
    // allocation per span.
    assert!(long_allocs <= 48, "{long_allocs} allocations");
    assert!(
        long_allocs <= short_allocs + 16,
        "{short_allocs} -> {long_allocs}"
    );
}

/// `n` records over 20 machines, every field varying, a tenth still
/// open.
fn synthetic_trace(n: u64) -> Trace {
    let causes = [
        FailureCause::CpuContention,
        FailureCause::MemoryThrashing,
        FailureCause::Revocation,
    ];
    let records = (0..n)
        .map(|i| {
            let start = i * 7_919 + (i % 13) * 86_400;
            let end = (i % 10 != 0).then_some(start + 60 + i % 3_600);
            TraceRecord {
                machine: (i % 20) as u32,
                cause: causes[(i % 3) as usize],
                start,
                end,
                raw_end: end.map(|e| e - i % 60),
                avail_cpu: 1.0 / (1.0 + (i % 97) as f64),
                avail_mem_mb: (i % 2_048) as u32,
            }
        })
        .collect();
    Trace {
        meta: TraceMeta {
            seed: u64::MAX - 7,
            machines: 20,
            days: 92,
            sample_period: 15,
            start_weekday: 0,
            span_secs: 92 * 86_400,
            thresholds: Thresholds::LINUX_TESTBED,
        },
        records,
    }
}

#[test]
fn the_jsonl_codec_allocates_a_bounded_number_of_times() {
    let (short, long) = (synthetic_trace(1_000), synthetic_trace(16_000));
    let write = |t: &Trace| {
        allocations(|| {
            let mut buf = Vec::new();
            t.write_jsonl(&mut buf).unwrap();
            buf
        })
    };
    let ((short_buf, short_w), (long_buf, long_w)) = (write(&short), write(&long));
    let read = |buf: &[u8]| allocations(|| Trace::read_jsonl(buf).unwrap());
    let ((short_back, short_r), (long_back, long_r)) = (read(&short_buf), read(&long_buf));
    let recover = |buf: &[u8]| allocations(|| Trace::read_jsonl_recovering(buf).unwrap());
    let ((_, short_q), (long_recovered, long_q)) = (recover(&short_buf), recover(&long_buf));
    assert_eq!(short_back, short);
    assert_eq!(long_back, long);
    assert_eq!(long_recovered.0, long);
    for (what, s, l) in [
        ("write_jsonl", short_w, long_w),
        ("read_jsonl", short_r, long_r),
        ("read_jsonl_recovering", short_q, long_q),
    ] {
        println!("{what}: 1000 records {s} allocations, 16000 records {l} allocations");
        // The output, the record vector and the line buffers grow by
        // doubling, the meta line and the report's per-machine entries
        // are fixed: 16x the records, a few more allocations at most,
        // never one per record.
        assert!(l <= 40, "{what}: {l} allocations");
        assert!(l <= s + 6, "{what}: {s} -> {l}");
    }
}
