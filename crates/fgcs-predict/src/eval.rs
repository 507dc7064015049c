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
    let mut results = Vec::new();
    for &window in &cfg.windows {
        // Shared query set and ground truth for every predictor.
        let mut queries: Vec<(u32, u64, bool)> = Vec::new();
        for m in 0..trace.meta.machines {
            let mut t = train_end;
            while t + window <= span {
                let truth = truth_index.window_available(m, t, window);
                queries.push((m, t, truth));
                t += cfg.query_stride;
            }
        }
        let base_rate = if queries.is_empty() {
            0.0
        } else {
            queries.iter().filter(|q| q.2).count() as f64 / queries.len() as f64
        };
        for p in predictors.iter() {
            let mut brier = 0.0;
            let mut correct = 0usize;
            for &(m, t, truth) in &queries {
                let prob = p.predict(m, t, window).clamp(0.0, 1.0);
                let y = if truth { 1.0 } else { 0.0 };
                brier += (prob - y) * (prob - y);
                if (prob >= 0.5) == truth {
                    correct += 1;
                }
            }
            let n = queries.len().max(1) as f64;
            results.push(EvalResult {
                predictor: p.name(),
                window,
                brier: brier / n,
                accuracy: correct as f64 / n,
                base_rate,
                queries: queries.len(),
            });
        }
    }
    results
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
        Box::new(LastDayPredictor::default()),
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
