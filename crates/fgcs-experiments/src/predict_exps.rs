//! Regenerators for the prediction extension (X2) and the proactive
//! scheduling experiment (X3).

use fgcs_predict::eval::{evaluate, standard_predictors, EvalConfig};
use fgcs_predict::predictor::MachineHourlyPredictor;
use fgcs_predict::proactive::{compare, ProactiveConfig};

use fgcs_experiments::artifacts::{predict_csv, proactive_csv, ranked};
use fgcs_experiments::claims::{self, assert_paper};

use crate::report::{banner, write_csv, write_text, TextTable};
use crate::trace_exps::standard_trace;

/// X2: predictor evaluation across window lengths.
pub fn predict(quick: bool) {
    banner("Prediction (X2) — history-window scheme vs baselines");
    let trace = standard_trace(quick);
    let mut predictors = standard_predictors();
    let cfg = EvalConfig::default();
    let rows = evaluate(trace, &mut predictors, &cfg);

    let mut table = TextTable::new(&["window", "predictor", "Brier", "accuracy", "base rate"]);
    for r in ranked(&rows, &cfg.windows) {
        table.row(vec![
            format!("{:.1}h", r.window as f64 / 3600.0),
            r.predictor.to_string(),
            format!("{:.4}", r.brier),
            format!("{:.1}%", r.accuracy * 100.0),
            format!("{:.1}%", r.base_rate * 100.0),
        ]);
    }
    table.print();
    println!("(rows sorted by Brier, lower is better)");
    let text = predict_csv(&rows, &cfg.windows);
    assert_paper(
        "predict",
        claims::check_paper_predict(&text, !quick),
        !quick,
    );
    let path = write_text("predict", &text).expect("csv");
    println!("wrote {}", path.display());
}

/// X3: proactive vs oblivious guest-job placement.
///
/// Runs on a *heterogeneous* lab (busyness spread 0.6): prediction-driven
/// placement needs machines that actually differ, which the paper's
/// future-work section anticipates ("testbeds with different patterns of
/// host workloads").
pub fn proactive(quick: bool) {
    banner("Proactive scheduling (X3) — prediction-driven placement vs oblivious");
    let mut tb = fgcs_testbed::runner::TestbedConfig::default();
    if quick {
        tb.lab.machines = 8;
        tb.lab.days = 21;
    }
    tb.lab.machine_busyness_spread = 0.6;
    let trace = fgcs_testbed::runner::run_testbed(&tb);
    let mut predictor = MachineHourlyPredictor::default();
    let cfg = ProactiveConfig {
        jobs: if quick { 120 } else { 400 },
        ..Default::default()
    };
    let (obl, pro) = compare(&trace, &mut predictor, 0.6, &cfg);

    let mut table = TextTable::new(&["policy", "mean response", "mean failures/job", "timeouts"]);
    for o in [&obl, &pro] {
        table.row(vec![
            o.policy.to_string(),
            format!("{:.2}h", o.mean_response / 3600.0),
            format!("{:.2}", o.mean_failures),
            o.timed_out.to_string(),
        ]);
    }
    table.print();
    // Gang jobs: the paper's motivating workload — groups of tasks that
    // must all complete (response = makespan).
    use fgcs_predict::proactive::{compare_gang, GangConfig};
    let gang_cfg = GangConfig {
        base: ProactiveConfig {
            jobs: if quick { 80 } else { 250 },
            job_secs: (1800, 3 * 3600),
            ..Default::default()
        },
        tasks: 4,
    };
    let mut predictor2 = MachineHourlyPredictor::default();
    let (gobl, gpro) = compare_gang(&trace, &mut predictor2, 0.6, &gang_cfg);
    println!("\ngang jobs (4 tasks each, response = makespan over the group):");
    let mut gtable = TextTable::new(&["policy", "mean makespan", "mean failures/task", "timeouts"]);
    for o in [&gobl, &gpro] {
        gtable.row(vec![
            o.policy.to_string(),
            format!("{:.2}h", o.mean_response / 3600.0),
            format!("{:.2}", o.mean_failures),
            o.timed_out.to_string(),
        ]);
    }
    gtable.print();

    let text = proactive_csv(&[("single", &obl, &pro), ("gang4", &gobl, &gpro)]);
    assert_paper(
        "proactive",
        claims::check_paper_proactive(&text, !quick),
        !quick,
    );
    let path = write_text("proactive", &text).expect("csv");
    println!("wrote {}", path.display());
}

/// X9: how much history does the history-window predictor need, and
/// does the irregular-data trimming help? ("An aggressive prediction
/// algorithm would accommodate the small deviations ... One approach is
/// to use statistics on history trace to alleviate the effects of
/// 'irregular' data", §5.3.)
pub fn depth(quick: bool) {
    use fgcs_predict::predictor::HistoryWindowPredictor;
    banner("Prediction depth (X9) — history days and trimming");
    let trace = standard_trace(quick);
    let cfg = EvalConfig {
        windows: vec![2 * 3600],
        ..Default::default()
    };

    let mut table = TextTable::new(&["history days", "Brier (trim)", "Brier (no trim)"]);
    let mut csv = Vec::new();
    for days in [1usize, 2, 3, 5, 10, 15, 20] {
        let mut preds: Vec<Box<dyn fgcs_predict::AvailabilityPredictor>> = vec![
            Box::new(
                HistoryWindowPredictor::new()
                    .with_history_days(days)
                    .with_trim(true),
            ),
            Box::new(
                HistoryWindowPredictor::new()
                    .with_history_days(days)
                    .with_trim(false),
            ),
        ];
        let rows = evaluate(trace, &mut preds, &cfg);
        let trim = rows
            .iter()
            .find(|r| r.predictor == "history-window")
            .unwrap()
            .brier;
        let no_trim = rows
            .iter()
            .find(|r| r.predictor == "history-no-trim")
            .unwrap()
            .brier;
        table.row(vec![
            days.to_string(),
            format!("{trim:.4}"),
            format!("{no_trim:.4}"),
        ]);
        csv.push(format!("{days},{trim:.5},{no_trim:.5}"));
    }
    table.print();
    println!(
        "\none same-type day of history is noisy; a handful of days nearly \
         saturates the score — recent history really is all the predictor \
         needs, as the paper's regularity result implies."
    );
    let path = write_csv(
        "predict_depth",
        "history_days,brier_trim,brier_no_trim",
        &csv,
    )
    .expect("csv");
    println!("wrote {}", path.display());
}
