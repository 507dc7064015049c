//! What a run hands back, and how it is printed: readable lines first,
//! then, as the last line of standard output, the one JSON object the
//! driver reads.

use std::collections::BTreeMap;

use crate::json;
use crate::registry;
use crate::stats::Quartiles;

#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output the workload checked was correct.
    pub correct: bool,
    /// Operations attempted: requests sent, or outputs checked.
    pub attempted: u64,
    /// Of those, how many failed: refused, errored, lost, or wrong.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Why `correct` is false, when it is.
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn fail(&mut self, why: String) {
        eprintln!("INCORRECT: {why}");
        self.problems.push(why);
    }
}

/// Prints "name = median unit (q1 … q3 over n slices)".
pub fn print_spread(name: &str, unit: &str, q: &Quartiles) {
    println!(
        "  {name:<24} {:>14.3} {unit:<6} (quartiles {:.3} … {:.3} over {} slices)",
        q.median, q.q1, q.q3, q.n
    );
}

/// Prints the result: a table of the declared metrics of the run's kind
/// (end-to-end without tracing, per-layer with it; a metric the workload
/// has no part in reads 0), then the JSON line.
pub fn print_result(workload: &str, traced: bool, quick: bool, result: &RunResult) {
    let declared: Vec<(String, &str)> = if traced {
        registry::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        registry::END_TO_END
            .iter()
            .map(|e| (e.0.to_string(), e.1))
            .collect()
    };
    for name in result.metrics.keys() {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "{workload} reported undeclared metric {name}"
        );
    }
    println!(
        "{workload}: {} metrics{}",
        if traced { "per-layer" } else { "end-to-end" },
        if quick {
            " (quick: true — reduced scale, never compare these numbers)"
        } else {
            ""
        }
    );
    let mut fields = Vec::new();
    for (name, unit) in &declared {
        let value = result.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<34} {value:>16.4} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(name),
            json::num(value),
            json::quote(unit)
        ));
    }
    println!(
        "  correct = {}, attempted = {}, failed = {} (failed share {:.6})",
        result.correct,
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, {}\"metrics\": {{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        if quick { "\"quick\": true, " } else { "" },
        fields.join(", ")
    );
}
