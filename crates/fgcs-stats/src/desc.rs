//! Streaming descriptive statistics.
//!
//! [`OnlineStats`] implements Welford's algorithm for numerically stable
//! single-pass mean/variance, extended with Chan's parallel combination
//! rule so that per-worker accumulators from a parallel sweep can be
//! merged without losing precision.

/// Single-pass mean/variance/min/max accumulator.
///
/// ```
/// use fgcs_stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.push(x); }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    /// An empty accumulator (`min`/`max` at the identity elements ±∞, so
    /// the first observation always replaces them — a derived `Default`
    /// would silently clamp every group's minimum to 0).
    fn default() -> Self {
        OnlineStats::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds an accumulator from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = OnlineStats::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (Chan et al.).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (`n` denominator); 0 with fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// `max - min`, or 0 when empty.
    pub fn range(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max - self.min
        }
    }

    /// Coefficient of variation `stddev/mean`; 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.stddev() / m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_equals_new() {
        assert_eq!(OnlineStats::default(), OnlineStats::new());
        assert_eq!(OnlineStats::default().min(), f64::INFINITY);
    }

    #[test]
    fn empty_is_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn known_variance() {
        // Values 2, 4, 4, 4, 5, 5, 7, 9: population variance is exactly 4.
        let s = OnlineStats::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let whole = OnlineStats::from_slice(&data);
        let mut left = OnlineStats::from_slice(&data[..337]);
        let right = OnlineStats::from_slice(&data[337..]);
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::from_slice(&[1.0, 2.0]);
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Catastrophic cancellation test: values near 1e9 with tiny spread.
        let base = 1.0e9;
        let s = OnlineStats::from_slice(&[base + 1.0, base + 2.0, base + 3.0]);
        assert!((s.variance() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        let s = OnlineStats::from_slice(&[5.0, 5.0, 5.0]);
        assert_eq!(s.cv(), 0.0);
    }
}
