//! Minimal data-parallel harness for the `fgcs` workspace.
//!
//! The experiment sweeps in this repository are embarrassingly parallel:
//! each `(LH, M, priority)` contention point, each machine-day of the
//! testbed trace, each predictor evaluation fold is independent of the
//! others. The offline crate set does not include `rayon`, so this crate
//! provides the primitives the workspace needs on top of
//! `std::thread::scope` and an atomic work index:
//!
//! * [`par_map`] — applies a function to every item of a slice on a pool
//!   of scoped worker threads, preserving input order in the output.
//! * [`par_map_indexed`] — like [`par_map`] but hands the item index to
//!   the closure, which simulations use to derive a deterministic
//!   per-item RNG substream (so results do not depend on which thread
//!   happened to pick up which item).
//! * [`par_map_reduce`] — maps in parallel and folds the results in
//!   input order as they arrive, so a sweep's memory does not grow with
//!   its item count.
//!
//! Work is distributed by an atomic fetch-add over the item index — a
//! degenerate but effective form of work stealing for items whose cost
//! varies by an order of magnitude or less, which is the case for every
//! sweep in this workspace. Each worker writes results into a disjoint
//! region handed out by `split_off`-style slicing, so no locking is
//! involved on the hot path.
//!
//! Panics in workers are propagated: if any item's closure panics, the
//! calling thread panics after the scope joins (`std::thread::scope`
//! semantics), never silently dropping results.
//!
//! ## Worker count
//!
//! The pool size defaults to `std::thread::available_parallelism()`,
//! capped by the item count. Set the `FGCS_PAR_WORKERS` environment
//! variable to a positive integer to override it — `FGCS_PAR_WORKERS=1`
//! forces fully serial execution (useful for profiling and for
//! confirming that a sweep's output is independent of the worker count).
//!
//! ## Nesting
//!
//! Calls nested inside a worker (e.g. a parallel sweep whose per-point
//! closure itself calls [`par_map`]) run inline on the worker thread
//! rather than spawning a second tier of threads. The outer call already
//! saturates the machine; nesting would only add oversubscription.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

std::thread_local! {
    /// True while the current thread is a pool worker; nested calls see
    /// this and run inline instead of spawning another pool.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Returns the worker count used by [`par_map`]: the `FGCS_PAR_WORKERS`
/// environment variable if set to a positive integer, otherwise the
/// available parallelism — either way capped by the item count (and at
/// least 1). An invalid override (`0`, empty, unparseable) falls back to
/// the default and warns once on stderr instead of being trusted
/// downstream: a typo'd `FGCS_PAR_WORKERS=O8` should not silently
/// serialize a sweep.
pub fn default_workers(items: usize) -> usize {
    let hw_default = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    let hw = match std::env::var("FGCS_PAR_WORKERS") {
        Err(_) => hw_default(),
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "fgcs-par: ignoring FGCS_PAR_WORKERS={v:?} \
                         (expected a positive integer); using the default worker count"
                    );
                });
                hw_default()
            }
        },
    };
    hw.min(items).max(1)
}

/// Applies `f` to every element of `items` in parallel, returning results
/// in input order. Runs inline (no threads) when `items.len() <= 1` or
/// when called from within another `fgcs-par` worker.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// Like [`par_map`], but the closure also receives the item's index.
///
/// The index is the idiomatic hook for deterministic parallel RNG: derive
/// the item's random stream from `(seed, index)` rather than from any
/// thread-local state, and the sweep's output is identical no matter how
/// many workers run it.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = default_workers(n);
    if workers == 1 || IN_WORKER.with(|w| w.get()) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Workers claim fixed-size chunks of the index space and buffer each
    // chunk's results locally, so the shared slot table is touched once
    // per chunk rather than once per item.
    let chunk = (n / (workers * 8)).max(1);
    let chunks = n.div_ceil(chunk);
    let slots: Vec<Mutex<Option<Vec<R>>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= chunks {
                        break;
                    }
                    let lo = c * chunk;
                    let hi = (lo + chunk).min(n);
                    let buf: Vec<R> = (lo..hi).map(|i| f(i, &items[i])).collect();
                    *slots[c].lock().expect("result slot poisoned") = Some(buf);
                }
            });
        }
    });

    let mut out = Vec::with_capacity(n);
    for slot in slots {
        let buf = slot
            .into_inner()
            .expect("result slot poisoned")
            .expect("worker filled every claimed chunk");
        out.extend(buf);
    }
    out
}

/// Parallel fold: maps every item with `f` and reduces the results in
/// input order with `reduce`, starting from `init`.
///
/// The reduction runs on the calling thread, in deterministic input
/// order, so non-associative-in-floating-point reductions still produce
/// reproducible output. Each result is folded as soon as it and every
/// earlier one have arrived, so only results that finished ahead of a
/// slower earlier item are ever held — not one per item.
///
/// If an item's closure panics, the panic propagates once the workers
/// have joined; no partial fold is returned.
pub fn par_map_reduce<T, R, A, F, G>(items: &[T], f: F, init: A, reduce: G) -> A
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    G: FnMut(A, R) -> A,
{
    map_reduce_on(default_workers(items.len()), items, f, init, reduce)
}

fn map_reduce_on<T, R, A, F, G>(workers: usize, items: &[T], f: F, init: A, mut reduce: G) -> A
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    G: FnMut(A, R) -> A,
{
    if workers <= 1 || IN_WORKER.with(|w| w.get()) {
        return items
            .iter()
            .enumerate()
            .fold(init, |acc, (i, t)| reduce(acc, f(i, t)));
    }
    let n = items.len();
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (tx, next, f) = (tx.clone(), &next, &f);
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, f(i, &items[i]))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Results that arrived ahead of an earlier, still-running item.
        let mut early = std::collections::BTreeMap::new();
        let mut acc = init;
        let mut due = 0;
        for (i, r) in rx {
            early.insert(i, r);
            while let Some(r) = early.remove(&due) {
                acc = reduce(acc, r);
                due += 1;
            }
        }
        // Short only if a worker panicked; the scope then re-raises
        // that panic instead of returning `acc`.
        acc
    })
}

/// Runs `n` independent jobs in parallel, returning their results in job
/// order. A convenience wrapper over [`par_map_indexed`] for sweeps that
/// are naturally indexed rather than slice-shaped (e.g. "simulate machine
/// `i` of 20").
pub fn par_jobs<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let idx: Vec<usize> = (0..n).collect();
    par_map_indexed(&idx, |_, &i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = par_map(&[7u32], |&x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn indexed_passes_correct_indices() {
        let items = vec!["a", "b", "c", "d"];
        let out = par_map_indexed(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<u32> = (0..10_000).collect();
        par_map(&items, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn map_reduce_sums_in_order() {
        let items: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let total = par_map_reduce(&items, |_, &x| x, 0.0, |a, b| a + b);
        assert_eq!(total, 5050.0);
    }

    #[test]
    fn map_reduce_folds_in_input_order_at_every_worker_count() {
        let items: Vec<usize> = (0..64).collect();
        let last = items.len() - 1;
        for workers in [1, 2, 3] {
            // Item 0 waits until the last item has started, so the
            // results in between arrive before it. One worker runs
            // inline and in order, and must not wait.
            let gate = std::sync::Barrier::new(2);
            let order = map_reduce_on(
                workers,
                &items,
                |i, &x| {
                    assert_eq!(i, x);
                    if workers > 1 && (i == 0 || i == last) {
                        gate.wait();
                    }
                    x
                },
                Vec::new(),
                |mut acc, r| {
                    acc.push(r);
                    acc
                },
            );
            assert_eq!(order, items, "{workers} workers");
        }
    }

    #[test]
    fn map_reduce_runs_inline_inside_a_worker() {
        let outer: Vec<u64> = (0..8).collect();
        let out = par_map(&outer, |&x| {
            let worker = std::thread::current().id();
            let inner: Vec<u64> = (0..100).collect();
            map_reduce_on(
                3,
                &inner,
                |_, &y| {
                    assert_eq!(std::thread::current().id(), worker, "spawned a second tier");
                    x * 1000 + y
                },
                0,
                |a, b| a + b,
            )
        });
        let expect: Vec<u64> = (0..8)
            .map(|x| (0..100).map(|y| x * 1000 + y).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_reduce_propagates_a_panic_instead_of_a_partial_fold() {
        let items: Vec<usize> = (0..200).collect();
        for workers in [1, 2, 3] {
            let folded = std::cell::Cell::new(0usize);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map_reduce_on(
                    workers,
                    &items,
                    |_, &x| {
                        if x == 42 {
                            panic!("item 42 fails on purpose");
                        }
                        x
                    },
                    0usize,
                    |n, r| {
                        assert_eq!(r, n, "folded out of order");
                        folded.set(n + 1);
                        n + 1
                    },
                )
            }));
            assert!(result.is_err(), "{workers} workers returned a fold");
            assert!(
                folded.get() <= 42,
                "{workers} workers folded past the panic"
            );
        }
    }

    #[test]
    fn par_jobs_indexed() {
        let out = par_jobs(5, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Items with wildly different cost must still return in order.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 100_000 {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn nested_calls_run_inline() {
        let outer: Vec<u64> = (0..8).collect();
        let out = par_map(&outer, |&x| {
            let inner: Vec<u64> = (0..100).collect();
            par_map(&inner, |&y| x * 1000 + y).iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..8)
            .map(|x| (0..100).map(|y| x * 1000 + y).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn chunked_results_cover_non_divisible_lengths() {
        // Lengths straddling chunk boundaries must not drop or reorder.
        for n in [2usize, 3, 7, 63, 64, 65, 257] {
            let items: Vec<usize> = (0..n).collect();
            let out = par_map_indexed(&items, |i, &x| {
                assert_eq!(i, x);
                x + 1
            });
            assert_eq!(out, (1..=n).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        par_map(&items, |&x| {
            if x == 42 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn default_workers_bounds() {
        assert_eq!(default_workers(0), 1);
        assert_eq!(default_workers(1), 1);
        assert!(default_workers(1000) >= 1);
    }

    #[test]
    fn worker_env_override() {
        // Serialized via a process-wide lock would be overkill for one
        // test; set, check, and restore in one place instead.
        let prev = std::env::var("FGCS_PAR_WORKERS").ok();
        std::env::set_var("FGCS_PAR_WORKERS", "3");
        assert_eq!(default_workers(1000), 3);
        std::env::set_var("FGCS_PAR_WORKERS", "0"); // invalid: ignored
        assert!(default_workers(1000) >= 1);
        std::env::set_var("FGCS_PAR_WORKERS", "junk"); // invalid: ignored
        assert!(default_workers(1000) >= 1);
        match prev {
            Some(v) => std::env::set_var("FGCS_PAR_WORKERS", v),
            None => std::env::remove_var("FGCS_PAR_WORKERS"),
        }
    }
}
