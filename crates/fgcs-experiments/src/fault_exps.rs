//! X11: the §5 trace analyses re-run under injected measurement faults.
//!
//! The paper's numbers came from a real, imperfect deployment; this
//! experiment measures how far Table 2 and Figure 6 drift as the
//! measurement pipeline degrades, and reconciles the pipeline's quality
//! accounting against the injector's ground truth at every fault scale.

use fgcs_core::model::FailureCause;
use fgcs_faults::corrupt::corrupt_text;
use fgcs_faults::FaultConfig;
use fgcs_testbed::analysis;
use fgcs_testbed::runner::{run_testbed_faulty, SupervisorConfig};
use fgcs_testbed::trace::Trace;

use fgcs_experiments::artifacts::csv_text;
use fgcs_experiments::claims;

use crate::report::{banner, pct, write_text, TextTable};
use crate::trace_exps::{standard_config, standard_trace};

/// Fleet-wide fraction of occurrences per cause (S3, S4, S5).
fn cause_fractions(trace: &Trace) -> (f64, f64, f64) {
    let n = trace.records.len().max(1) as f64;
    let frac =
        |cause: FailureCause| trace.records.iter().filter(|r| r.cause == cause).count() as f64 / n;
    (
        frac(FailureCause::CpuContention),
        frac(FailureCause::MemoryThrashing),
        frac(FailureCause::Revocation),
    )
}

/// X11: Table 2 / Figure 6 drift under increasing fault rates.
pub fn fault_matrix(quick: bool) {
    banner("X11 — §5 analyses under injected measurement faults");
    let cfg = standard_config(quick);
    let sup = SupervisorConfig::default();
    let expected_samples = cfg.lab.span_secs() / cfg.lab.sample_period;

    let baseline = standard_trace(quick);

    // The identity injection must reproduce the clean pipeline exactly —
    // this is the byte-identity guarantee the whole harness rests on.
    let off = FaultConfig::off(cfg.lab.seed);
    let identity = run_testbed_faulty(&cfg, &off, &sup);
    let (trace0, q0) = &identity;
    assert!(
        trace0 == baseline,
        "identity injection diverged from the clean testbed"
    );
    assert!(q0.is_clean(), "identity injection reported faults: {q0}");
    println!("identity check: zero-rate injection is bit-identical to the clean run");

    let mut table = TextTable::new(&[
        "scale",
        "records",
        "cpu %",
        "mem %",
        "urr %",
        "wd mean h",
        "we mean h",
        "censored h",
        "corrupt",
    ]);
    let mut csv = Vec::new();
    for scale in claims::X11_SCALES {
        let faults = FaultConfig::noisy(cfg.lab.seed).scaled(scale);
        // The scale-0 row *is* the identity run: same config, so the
        // same trace — reuse it rather than tracing 20 machines again.
        assert!(
            scale != 0.0 || faults == off,
            "noisy x0 must be the identity config"
        );
        let rerun = (scale != 0.0).then(|| run_testbed_faulty(&cfg, &faults, &sup));
        let (trace, quality) = rerun.as_ref().unwrap_or(&identity);
        let totals = quality.totals();

        // Reconciliation 1: for every machine the supervisor did not
        // abandon, the injector's ground-truth sample accounting and the
        // supervisor's must balance exactly.
        for m in quality.machines.values() {
            if m.gave_up {
                continue;
            }
            let consumed = m.samples_used + m.out_of_order + m.lost_in_crash;
            let delivered = expected_samples + m.duplicated - m.dropped - m.lost_in_restart;
            assert_eq!(
                consumed, delivered,
                "machine {}: supervisor accounting does not reconcile with the injector",
                m.machine
            );
        }

        // Reconciliation 2: corrupt the serialized trace and check the
        // recovering loader reports exactly the injected damage, with
        // every surviving record intact.
        let mut buf = Vec::new();
        trace.write_jsonl(&mut buf).expect("serialize");
        let text = String::from_utf8(buf).expect("utf8");
        let (damaged, creport) = corrupt_text(&text, &faults, 0);
        drop(text); // only the damaged copy is read back
        let (reloaded, lq) =
            Trace::read_jsonl_recovering(damaged.as_bytes()).expect("recovering load");
        assert_eq!(
            lq.corrupt_lines, creport.lines_corrupted,
            "loader must count exactly the injected corruption"
        );
        assert_eq!(
            reloaded.records.len() + lq.corrupt_lines as usize,
            trace.records.len(),
            "every record either survives or is counted"
        );

        let (cpu, mem, urr) = cause_fractions(trace);
        let iv = analysis::intervals_censored(trace, quality);
        let censored_h = totals.censored_secs as f64 / 3600.0;
        table.row(vec![
            format!("{scale:.1}"),
            trace.records.len().to_string(),
            pct(cpu),
            pct(mem),
            pct(urr),
            format!("{:.2}", iv.weekday.mean()),
            format!("{:.2}", iv.weekend.mean()),
            format!("{censored_h:.1}"),
            lq.corrupt_lines.to_string(),
        ]);
        csv.push(format!(
            "{scale},{},{cpu:.4},{mem:.4},{urr:.4},{:.4},{:.4},{},{},{},{},{},{}",
            trace.records.len(),
            iv.weekday.mean(),
            iv.weekend.mean(),
            totals.censored_secs,
            lq.corrupt_lines,
            totals.dropped,
            totals.restarts,
            totals.crashes,
            totals.gave_up,
        ));
        if scale == 0.0 {
            assert!(quality.is_clean(), "scale 0 must be the identity");
        } else {
            println!("scale {scale:.1}: {quality}");
        }
    }
    table.print();
    let text = csv_text(
        "scale,records,cpu_frac,mem_frac,urr_frac,weekday_mean_h,weekend_mean_h,\
         censored_secs,corrupt_lines,dropped,restarts,crashes,gave_up",
        &csv,
    );
    let rows = claims::check_x11_fault_matrix(&text, !quick)
        .unwrap_or_else(|e| panic!("X11 fault matrix: {e}"));
    rows.iter().for_each(|r| println!("{r}"));
    let path = write_text("fault_matrix", &text).expect("csv");
    println!("wrote {}", path.display());
}
