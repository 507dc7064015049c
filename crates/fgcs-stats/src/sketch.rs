//! Mergeable streaming quantile / CDF sketch with a provable rank bound.
//!
//! The exact analysis path ([`crate::ecdf::Ecdf`], [`crate::quantile`](mod@crate::quantile))
//! clones and sorts every sample it summarizes, so its memory grows with
//! fleet-days. `RankSketch` replaces that with a fixed-size multi-level
//! compactor (Munro–Paterson lineage, the deterministic ancestor of the
//! KLL sketch): items live in levels of capacity `k`; an item at level
//! `l` stands for `2^l` original samples. When a level fills, it is
//! sorted and every other item survives to the level above — which
//! survivors alternates deterministically per level, so the sketch is a
//! pure function of the input sequence (no RNG, bit-reproducible).
//!
//! # Error bound
//!
//! One compaction at level `l` changes the rank estimate of any query
//! point by at most `2^l` (for a query `x`, let `j` of the `2m` compacted
//! items be `<= x`; the survivors contribute `2^l * 2 * ceil(j/2)` or
//! `2^l * 2 * floor(j/2)` in place of `2^l * j`, a difference of at most
//! `2^l`). The sketch *counts* that cost as it runs: `err` accumulates
//! `2^l` per compaction, so [`RankSketch::rank_error_bound`] is not an
//! asymptotic estimate but a certificate for this exact input. With
//! capacity `k`, level `l` compacts about `n / (k * 2^l)` times, giving
//! `err ~= n * log2(n/k) / k` — a relative rank error of
//! `log2(n/k) / k`, e.g. ~0.4% at `k = 4096`, `n = 10^8`, in ~0.5 MB.
//!
//! # Merging
//!
//! [`RankSketch::merge`] concatenates levels pairwise and re-compacts;
//! `count`, `nan_count`, min/max and the error certificate add. Merging
//! per-worker partials in a fixed order yields bit-identical results
//! regardless of how many workers produced them, which is what the fleet
//! pipeline in `fgcs-testbed` relies on.
//!
//! # NaN policy
//!
//! NaNs are counted, never stored. [`RankSketch::quantile`] refuses
//! (returns `None`) if any NaN was seen — same contract as
//! [`crate::quantile::quantile`] — while [`RankSketch::quantile_lenient`]
//! summarizes the non-NaN samples, same contract as [`Ecdf::new`]
//! dropping NaNs.
//!
//! [`Ecdf::new`]: crate::ecdf::Ecdf::new

use crate::quantile::sort_total;

/// Default level capacity: ~0.4% worst-case rank error at 10^8 samples
/// for ~0.5 MB per fully-loaded sketch.
pub const DEFAULT_K: usize = 4096;

/// A deterministic, mergeable streaming quantile/CDF sketch.
///
/// Memory is `O(k * log(n / k))` for `n` pushed samples; all estimates
/// carry the runtime-certified rank bound [`Self::rank_error_bound`].
#[derive(Debug, Clone)]
pub struct RankSketch {
    k: usize,
    /// `levels[l]` holds unsorted retained items of weight `2^l`.
    levels: Vec<Vec<f64>>,
    /// Per-level survivor parity, toggled on every compaction.
    toggles: Vec<bool>,
    /// Non-NaN samples observed (including compacted-away ones).
    count: u64,
    /// NaN samples observed (counted, never stored).
    nan_count: u64,
    /// Accumulated worst-case rank error from all compactions so far.
    err: u64,
    min: f64,
    max: f64,
}

impl RankSketch {
    /// Creates a sketch with level capacity `k` (clamped to `>= 4` and
    /// rounded down to even, so a full level always compacts cleanly).
    pub fn new(k: usize) -> Self {
        let k = k.max(4) & !1;
        RankSketch {
            k,
            levels: vec![Vec::new()],
            toggles: vec![false],
            count: 0,
            nan_count: 0,
            err: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Level capacity this sketch was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Non-NaN samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// NaN samples observed (they are counted but never stored).
    pub fn nan_count(&self) -> u64 {
        self.nan_count
    }

    /// True if no non-NaN sample has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum of the non-NaN samples (tracked outside the levels,
    /// so it never falls victim to compaction).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum of the non-NaN samples.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Number of items currently retained across all levels.
    pub fn stored_len(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Certified worst-case rank error of any [`Self::rank`] estimate,
    /// *for the input actually seen*: the sum of `2^l` over every
    /// compaction performed at level `l`. Quantile queries add one
    /// top-level weight of discretization — see
    /// [`Self::quantile_rank_error_bound`].
    pub fn rank_error_bound(&self) -> u64 {
        self.err
    }

    /// Certified worst-case rank error of a [`Self::quantile`] answer:
    /// the rank certificate plus one top-level item weight (consecutive
    /// retained values are at most one top-weight apart in estimated
    /// rank, so the selected value's estimated rank overshoots the
    /// target by less than that).
    pub fn quantile_rank_error_bound(&self) -> u64 {
        self.err + self.top_weight()
    }

    fn top_weight(&self) -> u64 {
        1u64 << (self.levels.len() - 1)
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            self.nan_count += 1;
            return;
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.levels[0].push(x);
        if self.levels[0].len() >= self.k {
            self.compact(0);
        }
    }

    /// Adds every sample in `xs`.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Sorts level `l`, promotes alternating items to level `l + 1`
    /// (parity toggles per level), cascades upward. Each call adds
    /// `2^l` to the error certificate.
    fn compact(&mut self, l: usize) {
        if self.levels.len() == l + 1 {
            self.levels.push(Vec::new());
            self.toggles.push(false);
        }
        let mut buf = std::mem::take(&mut self.levels[l]);
        sort_total(&mut buf);
        // Compact an even prefix; an odd straggler (possible after
        // merge) stays behind at this level with its weight intact.
        let even = buf.len() & !1;
        let start = usize::from(self.toggles[l]);
        self.toggles[l] = !self.toggles[l];
        for i in (start..even).step_by(2) {
            self.levels[l + 1].push(buf[i]);
        }
        if even < buf.len() {
            self.levels[l].push(buf[even]);
        }
        self.err += 1u64 << l;
        if self.levels[l + 1].len() >= self.k {
            self.compact(l + 1);
        }
    }

    /// Merges `other` into `self`: levelwise concatenation plus
    /// re-compaction. Counts, NaN counts, extrema and the error
    /// certificates add. Deterministic: merging the same partials in the
    /// same order always yields a bit-identical sketch.
    ///
    /// # Panics
    /// Panics if the two sketches have different capacities `k`.
    pub fn merge(&mut self, other: &RankSketch) {
        assert_eq!(self.k, other.k, "RankSketch::merge: capacity mismatch");
        self.count += other.count;
        self.nan_count += other.nan_count;
        self.err += other.err;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
            self.toggles.push(false);
        }
        for (l, items) in other.levels.iter().enumerate() {
            self.levels[l].extend_from_slice(items);
        }
        for l in 0..self.levels.len() {
            while self.levels[l].len() >= self.k {
                self.compact(l);
            }
        }
    }

    /// Estimated number of samples `<= x`, within
    /// [`Self::rank_error_bound`] of the true count.
    pub fn rank(&self, x: f64) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(l, items)| (1u64 << l) * items.iter().filter(|v| **v <= x).count() as u64)
            .sum()
    }

    /// Estimated empirical CDF at `x` over the non-NaN samples, `None`
    /// if empty.
    pub fn cdf(&self, x: f64) -> Option<f64> {
        (self.count > 0).then(|| self.rank(x) as f64 / self.count as f64)
    }

    /// Estimated `q`-quantile. Returns `None` for an empty sketch, a `q`
    /// outside `[0, 1]`, or when any NaN was observed — the same refusal
    /// contract as [`crate::quantile::quantile`].
    ///
    /// The answer is a retained sample value whose true rank is within
    /// [`Self::quantile_rank_error_bound`] of `ceil(q * count)`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.nan_count > 0 {
            return None;
        }
        self.quantile_lenient(q)
    }

    /// Estimated `q`-quantile of the non-NaN samples, ignoring any NaNs
    /// seen — the same drop-NaNs contract as [`crate::ecdf::Ecdf::new`].
    pub fn quantile_lenient(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        if q == 0.0 {
            return Some(self.min);
        }
        if q == 1.0 {
            return Some(self.max);
        }
        // Smallest retained value whose estimated rank reaches the
        // target — Ecdf::inverse semantics over the weighted items.
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut items: Vec<(f64, u64)> = self
            .levels
            .iter()
            .enumerate()
            .flat_map(|(l, lv)| lv.iter().map(move |&v| (v, 1u64 << l)))
            .collect();
        items.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cum = 0u64;
        for (v, w) in items {
            cum += w;
            if cum >= target {
                return Some(v.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Several quantiles at once (single pass over the retained items
    /// per query point; `None` entries follow [`Self::quantile`] rules).
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Option<f64>> {
        qs.iter().map(|&q| self.quantile(q)).collect()
    }
}

impl Default for RankSketch {
    fn default() -> Self {
        RankSketch::new(DEFAULT_K)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::quantile;
    use crate::rng::Rng;

    /// True rank (count of values <= v) in exact data.
    fn true_rank(xs: &[f64], v: f64) -> u64 {
        xs.iter().filter(|x| **x <= v).count() as u64
    }

    #[test]
    fn small_input_is_exact() {
        let mut s = RankSketch::new(64);
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        s.extend(&xs);
        assert_eq!(s.rank_error_bound(), 0);
        assert_eq!(s.quantile(0.5), Some(24.0));
        assert_eq!(s.quantile(0.0), Some(0.0));
        assert_eq!(s.quantile(1.0), Some(49.0));
        assert_eq!(s.rank(24.0), 25);
    }

    #[test]
    fn rank_bound_holds_on_large_uniform() {
        let mut rng = Rng::new(7);
        let xs: Vec<f64> = (0..200_000).map(|_| rng.range_f64(0.0, 1.0)).collect();
        let mut s = RankSketch::new(256);
        s.extend(&xs);
        assert!(s.stored_len() < 256 * 16, "stored {}", s.stored_len());
        for i in 1..20 {
            let q = i as f64 / 20.0;
            let v = s.quantile(q).unwrap();
            let target = (q * xs.len() as f64).ceil() as i64;
            let r = true_rank(&xs, v) as i64;
            let bound = s.quantile_rank_error_bound() as i64;
            assert!(
                (r - target).abs() <= bound,
                "q={q}: rank {r} target {target} bound {bound}"
            );
        }
        // The certificate is far below n (otherwise it is vacuous).
        assert!(s.quantile_rank_error_bound() < xs.len() as u64 / 20);
    }

    #[test]
    fn deterministic_across_runs() {
        let xs: Vec<f64> = (0u64..10_000)
            .map(|i| (i.wrapping_mul(2654435761) % 10007) as f64)
            .collect();
        let mut a = RankSketch::new(128);
        let mut b = RankSketch::new(128);
        a.extend(&xs);
        b.extend(&xs);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn merge_counts_and_extrema_add() {
        let mut a = RankSketch::new(64);
        let mut b = RankSketch::new(64);
        a.extend(&[1.0, 2.0, f64::NAN]);
        b.extend(&[-5.0, 10.0]);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.nan_count(), 1);
        assert_eq!(a.min(), Some(-5.0));
        assert_eq!(a.max(), Some(10.0));
    }

    #[test]
    fn merge_order_is_deterministic() {
        let mut rng = Rng::new(11);
        let parts: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..5_000).map(|_| rng.range_f64(0.0, 100.0)).collect())
            .collect();
        let build = || {
            let mut acc = RankSketch::new(128);
            for p in &parts {
                let mut s = RankSketch::new(128);
                s.extend(p);
                acc.merge(&s);
            }
            acc
        };
        let a = build();
        let b = build();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn merged_bound_holds_vs_concat() {
        let mut rng = Rng::new(3);
        let xa: Vec<f64> = (0..30_000)
            .map(|_| rng.range_f64(0.0, 1.0).powi(3))
            .collect();
        let xb: Vec<f64> = (0..50_000).map(|_| rng.range_f64(0.5, 2.0)).collect();
        let mut a = RankSketch::new(256);
        let mut b = RankSketch::new(256);
        a.extend(&xa);
        b.extend(&xb);
        a.merge(&b);
        let mut all = xa.clone();
        all.extend_from_slice(&xb);
        assert_eq!(a.count(), all.len() as u64);
        for i in 1..10 {
            let q = i as f64 / 10.0;
            let v = a.quantile(q).unwrap();
            let target = (q * all.len() as f64).ceil() as i64;
            let r = true_rank(&all, v) as i64;
            assert!((r - target).abs() <= a.quantile_rank_error_bound() as i64);
        }
    }

    #[test]
    fn nan_policy_mirrors_exact_paths() {
        let mut s = RankSketch::new(64);
        s.extend(&[1.0, f64::NAN, 3.0]);
        // Strict accessor refuses, like quantile::quantile.
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(quantile(&[1.0, f64::NAN, 3.0], 0.5), None);
        // Lenient accessor drops NaN, like Ecdf::new.
        assert_eq!(s.quantile_lenient(0.5), Some(1.0));
        assert_eq!(s.nan_count(), 1);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn constant_input_collapses() {
        let mut s = RankSketch::new(16);
        for _ in 0..10_000 {
            s.push(4.25);
        }
        for q in [0.0, 0.1, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(4.25), "q={q}");
        }
        assert_eq!(s.cdf(4.25), Some(1.0));
        assert_eq!(s.cdf(4.0), Some(0.0));
    }

    #[test]
    fn empty_and_bad_q() {
        let s = RankSketch::default();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.cdf(0.0), None);
        assert_eq!(s.min(), None);
        let mut s2 = RankSketch::new(16);
        s2.push(1.0);
        assert_eq!(s2.quantile(1.5), None);
        assert_eq!(s2.quantile(-0.1), None);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn merge_rejects_capacity_mismatch() {
        let mut a = RankSketch::new(16);
        let b = RankSketch::new(32);
        a.merge(&b);
    }
}
