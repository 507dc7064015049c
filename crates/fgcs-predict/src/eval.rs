//! Predictor evaluation.
//!
//! Splits a trace into a training prefix and a test suffix, builds a
//! query set of `(machine, t, window)` probes over the test period, and
//! scores each predictor with the Brier score and thresholded accuracy
//! against the ground truth.

use fgcs_testbed::calendar::SECS_PER_DAY;
use fgcs_testbed::trace::Trace;

use crate::predictor::{AvailabilityPredictor, EventIndex};

/// Evaluation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Fraction of the trace used for training (by time).
    pub train_fraction: f64,
    /// Window lengths to probe, seconds.
    pub windows: Vec<u64>,
    /// Spacing between query start times, seconds.
    pub query_stride: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            train_fraction: 0.75,
            windows: vec![1800, 3600, 2 * 3600, 4 * 3600, 8 * 3600],
            query_stride: 2 * 3600,
        }
    }
}

/// Score of one predictor at one window length.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Predictor name.
    pub predictor: &'static str,
    /// Window length, seconds.
    pub window: u64,
    /// Mean Brier score (lower is better; 0.25 = coin flip).
    pub brier: f64,
    /// Accuracy of thresholding the probability at 0.5.
    pub accuracy: f64,
    /// Fraction of probed windows that were actually available.
    pub base_rate: f64,
    /// Number of queries scored.
    pub queries: usize,
}

/// Evaluates a set of predictors on a trace. Each predictor is trained
/// on the prefix `[0, train_end)` and probed over the suffix.
///
/// Results come window-major, in `predictors` order. Each window is
/// scored on its own `fgcs-par` worker, and each predictor's score sums
/// over the window's queries in query order, so the scores do not
/// depend on the worker count.
pub fn evaluate(
    trace: &Trace,
    predictors: &mut [Box<dyn AvailabilityPredictor>],
    cfg: &EvalConfig,
) -> Vec<EvalResult> {
    let span = trace.meta.span_secs;
    let train_end = ((span as f64 * cfg.train_fraction) as u64 / SECS_PER_DAY) * SECS_PER_DAY;
    for p in predictors.iter_mut() {
        p.fit(trace, train_end);
    }

    let truth_index = EventIndex::build(trace, u64::MAX);
    let predictors: &[Box<dyn AvailabilityPredictor>] = predictors;
    let per_window = fgcs_par::par_map(&cfg.windows, |&window| {
        let window_probes = || {
            probes(
                trace.meta.machines,
                train_end,
                span,
                cfg.query_stride,
                window,
            )
        };
        // Ground truth once per window, shared by every predictor.
        let truth: Vec<bool> = window_probes()
            .map(|(m, t)| truth_index.window_available(m, t, window))
            .collect();
        predictors
            .iter()
            .map(|p| score(&**p, window, window_probes().zip(truth.iter().copied())))
            .collect::<Vec<_>>()
    });
    per_window.into_iter().flatten().collect()
}

/// One window's probes: every machine, from `train_end` every `stride`
/// while the window fits in the trace, machine-major.
fn probes(
    machines: u32,
    train_end: u64,
    span: u64,
    stride: u64,
    window: u64,
) -> impl Iterator<Item = (u32, u64)> {
    (0..machines).flat_map(move |m| {
        (0..)
            .map(move |k| train_end + k * stride)
            .take_while(move |&t| t + window <= span)
            .map(move |t| (m, t))
    })
}

/// Scores `p` on one window's `(probe, truth)` queries, in order.
fn score(
    p: &dyn AvailabilityPredictor,
    window: u64,
    queries: impl Iterator<Item = ((u32, u64), bool)>,
) -> EvalResult {
    let (mut n, mut available, mut correct) = (0usize, 0usize, 0usize);
    let mut brier = 0.0;
    for ((m, t), truth) in queries {
        let prob = p.predict(m, t, window).clamp(0.0, 1.0);
        let y = if truth { 1.0 } else { 0.0 };
        brier += (prob - y) * (prob - y);
        if (prob >= 0.5) == truth {
            correct += 1;
        }
        available += usize::from(truth);
        n += 1;
    }
    let n_f = n.max(1) as f64;
    EvalResult {
        predictor: p.name(),
        window,
        brier: brier / n_f,
        accuracy: correct as f64 / n_f,
        base_rate: available as f64 / n_f,
        queries: n,
    }
}

/// The standard predictor lineup: the paper's history-window scheme and
/// all baselines.
pub fn standard_predictors() -> Vec<Box<dyn AvailabilityPredictor>> {
    use crate::predictor::*;
    vec![
        Box::new(HistoryWindowPredictor::new()),
        Box::new(HistoryWindowPredictor::new().with_trim(false)),
        Box::new(MachineHourlyPredictor::default()),
        Box::new(HourlyRatePredictor::default()),
        Box::new(crate::renewal::RenewalPredictor::default()),
        Box::new(GlobalRatePredictor::default()),
        Box::new(HistoryWindowPredictor::last_day()),
        Box::new(BaseRatePredictor::new(3600)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_testbed::runner::{run_testbed, TestbedConfig};

    fn small_trace() -> Trace {
        let mut cfg = TestbedConfig::tiny();
        cfg.lab.machines = 4;
        cfg.lab.days = 28;
        run_testbed(&cfg)
    }

    #[test]
    fn evaluation_produces_rows_for_every_predictor_and_window() {
        let trace = small_trace();
        let mut preds = standard_predictors();
        let cfg = EvalConfig {
            windows: vec![3600, 4 * 3600],
            ..Default::default()
        };
        let rows = evaluate(&trace, &mut preds, &cfg);
        assert_eq!(rows.len(), preds.len() * 2);
        for r in &rows {
            assert!(r.queries > 0);
            assert!((0.0..=1.0).contains(&r.brier), "{r:?}");
            assert!((0.0..=1.0).contains(&r.accuracy), "{r:?}");
        }
    }

    #[test]
    fn history_window_beats_global_rate_on_lab_trace() {
        let trace = small_trace();
        let mut preds = standard_predictors();
        let cfg = EvalConfig {
            windows: vec![2 * 3600],
            ..Default::default()
        };
        let rows = evaluate(&trace, &mut preds, &cfg);
        let brier_of = |name: &str| {
            rows.iter()
                .find(|r| r.predictor == name)
                .map(|r| r.brier)
                .unwrap()
        };
        // The paper's claim: history windows predict better than a
        // structure-free rate.
        assert!(
            brier_of("history-window") < brier_of("base-rate"),
            "history {} vs base {}",
            brier_of("history-window"),
            brier_of("base-rate")
        );
    }

    #[test]
    fn brier_degrades_gracefully_with_window_length() {
        // Longer windows are intrinsically harder (lower base rate);
        // scores must remain valid probabilistic scores.
        let trace = small_trace();
        let mut preds: Vec<Box<dyn AvailabilityPredictor>> =
            vec![Box::new(crate::predictor::HistoryWindowPredictor::new())];
        let cfg = EvalConfig {
            windows: vec![1800, 8 * 3600],
            ..Default::default()
        };
        let rows = evaluate(&trace, &mut preds, &cfg);
        assert!(rows.iter().all(|r| r.brier <= 0.5));
    }
}
