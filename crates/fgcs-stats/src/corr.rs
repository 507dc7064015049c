//! Correlation measures for the daily-pattern regularity analysis.
//!
//! The paper's key predictability claim (§5.3) is that "the deviations of
//! unavailability frequency over the same time window across different
//! weekdays (weekends) are small" — i.e. per-hour failure-count vectors of
//! different days are strongly correlated. These helpers quantify that.

/// Pearson correlation of two equal-length series.
///
/// Returns `None` if the lengths differ, fewer than two points are given,
/// or either series is constant (zero variance).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Mean pairwise Pearson correlation across a set of equal-length series
/// (e.g. one per day). `None` when fewer than two usable pairs exist.
pub fn mean_pairwise_correlation(series: &[Vec<f64>]) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..series.len() {
        for j in (i + 1)..series.len() {
            if let Some(r) = pearson(&series[i], &series[j]) {
                sum += r;
                count += 1;
            }
        }
    }
    if count == 0 {
        None
    } else {
        Some(sum / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_correlation() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_negative_correlation() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &ys).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_is_near_zero() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, -1.0, -1.0, 1.0];
        assert!(pearson(&xs, &ys).unwrap().abs() < 0.5);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(pearson(&[1.0], &[1.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn mean_pairwise_on_identical_series() {
        let s = vec![vec![1.0, 2.0, 3.0]; 4];
        assert!((mean_pairwise_correlation(&s).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_pairwise_needs_two_series() {
        assert_eq!(mean_pairwise_correlation(&[vec![1.0, 2.0]]), None);
    }
}
