//! Random distributions used by the workload generators.
//!
//! Everything here is driven by the deterministic [`Rng`], so sampled
//! workloads are reproducible. Each distribution is a small value type
//! with a `sample(&mut Rng)` method; a [`Sample`] trait unifies them for
//! generic code.

use crate::rng::Rng;

/// A distribution that can be sampled with an [`Rng`].
pub trait Sample {
    /// The sampled value type.
    type Output;
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> Self::Output;
}

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        Uniform { lo, hi }
    }
}

impl Sample for Uniform {
    type Output = f64;
    fn sample(&self, rng: &mut Rng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }
}

/// Bernoulli distribution: `true` with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli distribution. `p` is clamped to `[0, 1]`.
    pub fn new(p: f64) -> Self {
        Bernoulli {
            p: p.clamp(0.0, 1.0),
        }
    }
}

impl Sample for Bernoulli {
    type Output = bool;
    fn sample(&self, rng: &mut Rng) -> bool {
        rng.chance(self.p)
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used for inter-arrival times of user sessions and failure events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Panics
    /// Panics if `lambda <= 0` or is non-finite.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "rate must be positive");
        Exponential { lambda }
    }
}

impl Sample for Exponential {
    type Output = f64;
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF; (1 - u) keeps the argument strictly positive.
        -(1.0 - rng.f64()).ln() / self.lambda
    }
}

/// Geometric distribution on `{0, 1, 2, …}`: the number of failed
/// Bernoulli(`p`) trials before the first success, so
/// `P(G ≥ k) = (1 − p)^k`.
///
/// Lets a loop count down to the next success of a per-trial chance
/// instead of drawing every trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    /// `ln(1 − p)`; −∞ when `p ≥ 1`.
    ln_q: f64,
}

impl Geometric {
    /// Creates a geometric distribution with success probability `p`;
    /// `p ≥ 1` succeeds at the first trial.
    ///
    /// # Panics
    /// Panics unless `p > 0`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0, "success probability must be positive");
        Geometric {
            ln_q: (-p.min(1.0)).ln_1p(),
        }
    }
}

impl Sample for Geometric {
    type Output = u64;
    fn sample(&self, rng: &mut Rng) -> u64 {
        // Inverse CDF: ⌊ln(1 − u) / ln(1 − p)⌋ ≥ k ⇔ 1 − u ≤ (1 − p)^k.
        // The cast saturates: a tiny p caps at u64::MAX, and p ≥ 1
        // (ln_q = −∞) gives 0.
        ((1.0 - rng.f64()).ln() / self.ln_q) as u64
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Knuth's product method for small means; for large means a
/// normal approximation with continuity correction, which is accurate to
/// well under a count for the `lambda` values used by the lab workload
/// generator and avoids the O(`lambda`) cost of the exact method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
    /// Knuth's stopping product `e^-lambda`, computed once here rather
    /// than once per draw (unused on the normal-approximation branch).
    limit: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with mean `lambda >= 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda >= 0.0);
        let limit = if lambda < 30.0 { (-lambda).exp() } else { 0.0 };
        Poisson { lambda, limit }
    }
}

impl Sample for Poisson {
    type Output = u64;
    fn sample(&self, rng: &mut Rng) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            let mut product = rng.f64();
            let mut count = 0u64;
            while product > self.limit {
                product *= rng.f64();
                count += 1;
            }
            count
        } else {
            let normal = Normal::new(self.lambda, self.lambda.sqrt());
            let x = normal.sample(rng) + 0.5;
            if x < 0.0 {
                0
            } else {
                x.floor() as u64
            }
        }
    }
}

/// Normal distribution (Box–Muller polar method, one value per draw).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation (`sd >= 0`).
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd.is_finite() && sd >= 0.0);
        Normal { mean, sd }
    }

    /// Draws a standard-normal variate.
    pub fn standard(rng: &mut Rng) -> f64 {
        // Marsaglia polar method; discard the spare to stay stateless.
        loop {
            let u = 2.0 * rng.f64() - 1.0;
            let v = 2.0 * rng.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Sample for Normal {
    type Output = f64;
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.mean + self.sd * Normal::standard(rng)
    }
}

/// Log-normal distribution parameterized by the underlying normal's
/// `mu`/`sigma`.
///
/// Session lengths and burst durations in the lab model are log-normal:
/// most sessions are short, a few last many hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Creates from the underlying normal parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            norm: Normal::new(mu, sigma),
        }
    }

    /// Creates a log-normal with the given *median* and `sigma`
    /// (`median = exp(mu)`), which is the natural way to express
    /// "typical session is 45 minutes, heavy tail".
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0);
        LogNormal::new(median.ln(), sigma)
    }
}

impl Sample for LogNormal {
    type Output = f64;
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Discrete distribution over `0..weights.len()` with the given weights,
/// implemented with Walker's alias method: O(n) construction, O(1)
/// sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl Discrete {
    /// Builds an alias table from non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty weight vector");
        let total: f64 = weights.iter().sum();
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0) && total > 0.0,
            "weights must be non-negative and sum to a positive value"
        );
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Residual entries are 1.0 up to rounding.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
        }
        Discrete { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no categories (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }
}

impl Sample for Discrete {
    type Output = usize;
    fn sample(&self, rng: &mut Rng) -> usize {
        let i = rng.below_usize(self.prob.len());
        if rng.f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
        (0..n).map(|_| f()).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0);
        let mut r = Rng::new(1);
        let m = mean_of(50_000, || {
            let x = d.sample(&mut r);
            assert!((2.0..6.0).contains(&x));
            x
        });
        assert!((m - 4.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn bernoulli_rate() {
        let d = Bernoulli::new(0.3);
        let mut r = Rng::new(2);
        let hits = (0..100_000).filter(|_| d.sample(&mut r)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let d = Exponential::new(0.5); // mean 2
        let mut r = Rng::new(3);
        let m = mean_of(100_000, || {
            let x = d.sample(&mut r);
            assert!(x >= 0.0);
            x
        });
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    fn geometric_saturates_at_both_ends() {
        let mut r = Rng::new(4);
        let certain = Geometric::new(1.0);
        assert!((0..1000).all(|_| certain.sample(&mut r) == 0));
        assert!((0..1000).all(|_| Geometric::new(2.0).sample(&mut r) == 0));
        // ln(1 − u) / ln(1 − p) is ~1e301 here: the countdown caps
        // instead of overflowing.
        let rare = Geometric::new(1e-300);
        assert!((0..1000).all(|_| rare.sample(&mut r) > 1 << 62));
    }

    #[test]
    fn geometric_mean_is_within_five_sigma() {
        for (seed, p) in [(13, 0.003), (14, 0.2), (15, 0.7)] {
            let d = Geometric::new(p);
            let mut r = Rng::new(seed);
            let n = 100_000;
            let m = mean_of(n, || d.sample(&mut r) as f64);
            let (mean, var) = ((1.0 - p) / p, (1.0 - p) / (p * p));
            let sigma = (var / n as f64).sqrt();
            assert!(
                (m - mean).abs() < 5.0 * sigma,
                "p = {p}: mean {m}, want {mean}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "success probability must be positive")]
    fn geometric_rejects_zero_probability() {
        Geometric::new(0.0);
    }

    #[test]
    fn poisson_small_lambda_mean_and_variance() {
        let d = Poisson::new(4.0);
        let mut r = Rng::new(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r) as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.06, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let d = Poisson::new(0.0);
        let mut r = Rng::new(6);
        assert!((0..100).all(|_| d.sample(&mut r) == 0));
    }

    #[test]
    fn poisson_large_lambda_approximation() {
        let d = Poisson::new(200.0);
        let mut r = Rng::new(7);
        let n = 50_000;
        let mean = mean_of(n, || d.sample(&mut r) as f64);
        assert!((mean - 200.0).abs() < 0.8, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 3.0);
        let mut r = Rng::new(8);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let sd = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((sd - 3.0).abs() < 0.05, "sd {sd}");
    }

    #[test]
    fn lognormal_median() {
        let d = LogNormal::with_median(45.0, 0.8);
        let mut r = Rng::new(9);
        let mut samples: Vec<f64> = (0..100_001).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[50_000];
        assert!((median / 45.0 - 1.0).abs() < 0.05, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn discrete_frequencies_match_weights() {
        let d = Discrete::new(&[1.0, 2.0, 3.0, 4.0]);
        let mut r = Rng::new(10);
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[d.sample(&mut r)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = (i + 1) as f64 / 10.0;
            let got = c as f64 / n as f64;
            assert!((got - expect).abs() < 0.01, "counts {counts:?}");
        }
    }

    #[test]
    fn discrete_single_category() {
        let d = Discrete::new(&[5.0]);
        let mut r = Rng::new(11);
        assert!((0..100).all(|_| d.sample(&mut r) == 0));
    }

    #[test]
    fn discrete_zero_weight_never_sampled() {
        let d = Discrete::new(&[1.0, 0.0, 1.0]);
        let mut r = Rng::new(12);
        assert!((0..50_000).all(|_| d.sample(&mut r) != 1));
    }

    #[test]
    #[should_panic]
    fn discrete_rejects_all_zero() {
        Discrete::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty weight vector")]
    fn discrete_rejects_empty() {
        Discrete::new(&[]);
    }
}
