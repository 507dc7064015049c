//! Regenerators for the contention experiments: Figures 1–4, Table 1 and
//! the Th1/Th2 calibration.

use std::sync::OnceLock;

use fgcs_core::calibrate::{Calibration, CalibrationConfig};
use fgcs_core::contention::{
    self, fig1_series, fig1_sweep, guest_usage_experiment, priority_sweep, spec_musbus_experiment,
    table1_measurements, ContentionConfig, Fig1Row,
};
use fgcs_core::policy::{run_policy, two_threshold};
use fgcs_sim::time::secs;

use fgcs_experiments::artifacts::{calibration_csv, csv_text};
use fgcs_experiments::claims::{self, assert_paper};

use crate::report::{banner, pct, write_csv, write_text, TextTable};

fn contention_cfg(quick: bool) -> ContentionConfig {
    if quick {
        ContentionConfig::quick()
    } else {
        ContentionConfig::default()
    }
}

/// Figure 1 rows and the contention configuration that swept them.
type KeptRows = (ContentionConfig, Vec<Fig1Row>);

/// The rows [`fig1`] swept at `guest_nice` (0 or 19) in this process, so
/// that [`calibrate_exp`] reads the points the two share instead of
/// simulating them again: `fgcs-exp all` runs `fig1a` and `fig1b` first.
fn kept_fig1(guest_nice: i8) -> &'static OnceLock<KeptRows> {
    static EQUAL: OnceLock<KeptRows> = OnceLock::new();
    static LOWEST: OnceLock<KeptRows> = OnceLock::new();
    if guest_nice == 0 {
        &EQUAL
    } else {
        &LOWEST
    }
}

/// Figure 1(a)/(b): reduction rate of host CPU usage vs `LH` for host
/// groups of 1–5 processes, guest at nice 0 or nice 19.
pub fn fig1(guest_nice: i8, quick: bool) {
    let label = if guest_nice == 0 { "fig1a" } else { "fig1b" };
    banner(&format!(
        "Figure 1({}) — host CPU reduction vs LH, guest nice {guest_nice}",
        if guest_nice == 0 { "a" } else { "b" }
    ));
    let cfg = contention_cfg(quick);
    let (lh, m) = contention::fig1_standard_grid();
    let rows = fig1_sweep(guest_nice, &lh, &m, &cfg);
    // Only the first sweep per process is kept; calibrate checks the tag.
    let _ = kept_fig1(guest_nice).set((cfg, rows.clone()));

    let mut table = TextTable::new(&["LH", "M=1", "M=2", "M=3", "M=4", "M=5"]);
    let series: Vec<Vec<(f64, f64)>> = (1..=5).map(|mm| fig1_series(&rows, mm)).collect();
    let mut csv = Vec::new();
    for (i, &l) in lh.iter().enumerate() {
        let mut cells = vec![format!("{l:.1}")];
        let mut csv_row = vec![format!("{l:.2}")];
        for s in &series {
            cells.push(pct(s[i].1));
            csv_row.push(format!("{:.4}", s[i].1));
        }
        table.row(cells);
        csv.push(csv_row.join(","));
    }
    table.print();
    let text = csv_text("lh,m1,m2,m3,m4,m5", &csv);
    let check = if guest_nice == 0 {
        claims::check_paper_fig1a
    } else {
        claims::check_paper_fig1b
    };
    assert_paper(label, check(&text, !quick), !quick);
    println!("(Th1 and Th2 are read off the finer grid of `calibrate`)");
    let path = write_text(label, &text).expect("write csv");
    println!("wrote {}", path.display());
}

/// Threshold calibration — the paper's reading of Figure 1.
pub fn calibrate_exp(quick: bool) {
    banner("Calibration — deriving Th1/Th2 from the contention sweeps");
    let cfg = if quick {
        CalibrationConfig::quick()
    } else {
        CalibrationConfig::default()
    };
    let rows = |nice| calibration_rows(nice, &cfg, kept_fig1(nice).get());
    let text = calibration_csv(&Calibration::from_rows(rows(0), rows(19)));
    assert_paper(
        "calibration",
        claims::check_paper_calibration(&text, !quick),
        !quick,
    );
    let path = write_text("calibration", &text).expect("write csv");
    println!("wrote {}", path.display());
}

/// Calibration's Figure 1 rows at `guest_nice` over `cfg`'s grid, in
/// its LH-major order: what `fig1_sweep` over that grid returns, bit for
/// bit. A point is a pure function of `(LH, M, nice, config)`, so a row
/// of `kept` stands in for it when `kept` was swept under the same
/// `ContentionConfig`, at the same `LH` bits and the same `M`. Every `LH`
/// missing any `M` is swept anew as a whole series, in one call.
fn calibration_rows(
    guest_nice: i8,
    cfg: &CalibrationConfig,
    kept: Option<&KeptRows>,
) -> Vec<Fig1Row> {
    let reused = |lh: f64| -> Option<Vec<Fig1Row>> {
        let (_, rows) = kept.filter(|(swept_under, _)| *swept_under == cfg.contention)?;
        cfg.m_values
            .iter()
            .map(|&m| {
                rows.iter()
                    .find(|r| r.lh.to_bits() == lh.to_bits() && r.m == m)
                    .copied()
            })
            .collect()
    };
    let missing: Vec<f64> = cfg
        .lh_grid
        .iter()
        .copied()
        .filter(|&lh| reused(lh).is_none())
        .collect();
    let mut swept = fig1_sweep(guest_nice, &missing, &cfg.m_values, &cfg.contention).into_iter();
    let mut rows = Vec::with_capacity(cfg.lh_grid.len() * cfg.m_values.len());
    for &lh in &cfg.lh_grid {
        match reused(lh) {
            Some(series) => rows.extend(series),
            None => rows.extend(swept.by_ref().take(cfg.m_values.len())),
        }
    }
    rows
}

/// Figure 2: reduction rate for one host process vs guest priority.
pub fn fig2(quick: bool) {
    banner("Figure 2 — reduction rate vs LH x guest priority");
    let cfg = contention_cfg(quick);
    let lh: Vec<f64> = (2..=10).map(|i| i as f64 / 10.0).collect();
    let nices: Vec<i8> = vec![0, 5, 10, 15, 19];
    let rows = priority_sweep(&lh, &nices, &cfg);

    let mut table = TextTable::new(&["LH", "nice 0", "nice 5", "nice 10", "nice 15", "nice 19"]);
    let mut csv = Vec::new();
    for &l in &lh {
        let mut cells = vec![format!("{l:.1}")];
        for &n in &nices {
            let r = rows
                .iter()
                .find(|r| r.lh == l && r.guest_nice == n)
                .expect("grid complete");
            cells.push(pct(r.reduction));
            csv.push(format!("{l:.2},{n},{:.4}", r.reduction));
        }
        table.row(cells);
    }
    table.print();
    let path = write_csv("fig2", "lh,guest_nice,reduction", &csv).expect("write csv");
    println!("wrote {}", path.display());
    println!(
        "paper's finding: for LH in 0.2-0.5 the guest priority hardly matters; \
         above 0.5 only nice 19 keeps the slowdown acceptable — gradual \
         priorities buy nothing."
    );
}

/// Figure 3: guest CPU usage with equal vs lowest priority under light
/// host load.
pub fn fig3(quick: bool) {
    banner("Figure 3 — guest CPU usage, equal vs lowest priority");
    let cfg = contention_cfg(quick);
    let rows = guest_usage_experiment(&[0.2, 0.1], &[1.0, 0.9, 0.8, 0.7], &cfg);

    let mut table = TextTable::new(&["host+guest (isolated)", "equal priority", "nice 19", "gap"]);
    let mut csv = Vec::new();
    for &h in &[0.2, 0.1] {
        for &g in &[1.0, 0.9, 0.8, 0.7] {
            let at = |nice: i8| {
                rows.iter()
                    .find(|r| {
                        r.host_usage == h && r.guest_usage_isolated == g && r.guest_nice == nice
                    })
                    .expect("grid complete")
                    .guest_usage_actual
            };
            let (eq, low) = (at(0), at(19));
            table.row(vec![
                format!("{h:.1}+{g:.1}"),
                pct(eq),
                pct(low),
                format!("{:+.1}pp", (eq - low) * 100.0),
            ]);
            csv.push(format!("{h:.1},{g:.1},{eq:.4},{low:.4}"));
        }
    }
    table.print();
    let text = csv_text("host_usage,guest_usage_isolated,equal_prio,nice19", &csv);
    assert_paper("fig3", claims::check_paper_fig3(&text, !quick), !quick);
    let path = write_text("fig3", &text).expect("write csv");
    println!("wrote {}", path.display());
}

/// Figure 4: SPEC guests × Musbus hosts on the 384 MB Solaris machine.
pub fn fig4(quick: bool) {
    banner("Figure 4 — SPEC x Musbus slowdown with thrashing flags (* = thrashing)");
    let cfg = contention_cfg(quick);
    let rows = spec_musbus_experiment(&cfg);

    for nice in [0i8, 19] {
        println!("\nguest priority {nice}:");
        let mut table = TextTable::new(&["workload", "apsi", "galgel", "bzip2", "mcf"]);
        for h in ["H1", "H2", "H3", "H4", "H5", "H6"] {
            let mut cells = vec![h.to_string()];
            for app in ["apsi", "galgel", "bzip2", "mcf"] {
                let r = rows
                    .iter()
                    .find(|r| r.workload == h && r.guest_app == app && r.guest_nice == nice)
                    .expect("grid complete");
                let star = if r.thrashing { "*" } else { "" };
                cells.push(format!("{}{star}", pct(r.reduction)));
            }
            table.row(cells);
        }
        table.print();
    }
    let csv: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{},{},{},{:.4},{}",
                r.workload, r.guest_app, r.guest_nice, r.reduction, r.thrashing
            )
        })
        .collect();
    let path = write_csv(
        "fig4",
        "workload,guest_app,guest_nice,reduction,thrashing",
        &csv,
    )
    .expect("write csv");
    println!("wrote {}", path.display());
    println!(
        "paper's findings: H2/H5 thrash with apsi/bzip2/mcf regardless of priority \
         (memory is orthogonal to CPU priority); galgel never thrashes; H1/H3 \
         negligible, H4 needs renice, H6 forces termination."
    );
}

/// Table 1: resource usage of the tested applications, measured alone.
pub fn table1(quick: bool) {
    banner("Table 1 — resource usage of tested applications (measured alone)");
    let cfg = contention_cfg(quick);
    let rows = table1_measurements(&cfg);

    let mut table = TextTable::new(&[
        "workload",
        "CPU (measured)",
        "CPU (paper)",
        "resident MB",
        "virtual MB",
    ]);
    let mut csv = Vec::new();
    for r in &rows {
        let p = claims::TABLE1
            .iter()
            .find(|p| p.0 == r.name)
            .expect("known name");
        table.row(vec![
            r.name.to_string(),
            pct(r.cpu_usage),
            pct(p.1),
            format!("{} ({})", r.resident_mb, p.2),
            format!("{} ({})", r.virtual_mb, p.3),
        ]);
        csv.push(format!(
            "{},{:.4},{:.4},{},{}",
            r.name, r.cpu_usage, p.1, r.resident_mb, r.virtual_mb
        ));
    }
    table.print();
    let text = csv_text("name,cpu_measured,cpu_paper,resident_mb,virtual_mb", &csv);
    assert_paper("table1", claims::check_paper_table1(&text, !quick), !quick);
    let path = write_text("table1", &text).expect("write csv");
    println!("wrote {}", path.display());
}

/// Figure 5: the five-state model, printed as its transition table.
pub fn fig5() {
    banner("Figure 5 — the multi-state availability model");
    use fgcs_core::model::AvailState;
    for s in AvailState::ALL {
        println!("{s}: {}", s.description());
    }
    println!("\nguest-job transition matrix (rows: from, cols: to):");
    let mut table = TextTable::new(&["", "S1", "S2", "S3", "S4", "S5"]);
    for from in AvailState::ALL {
        let mut cells = vec![from.to_string()];
        for to in AvailState::ALL {
            cells.push(if from.can_transition(to) {
                "yes".into()
            } else {
                ".".into()
            });
        }
        table.row(cells);
    }
    table.print();
    println!("S3/S4/S5 are absorbing for a guest job: no state is left on the host.");
}

/// Ablation: the two-threshold managed policy versus static guest
/// priorities (the §3.2.2 argument, plus the controller in the loop).
pub fn ablation(quick: bool) {
    banner("Ablation — managed two-threshold policy vs static priorities");
    let cfg = contention_cfg(quick);
    let thresholds = fgcs_core::model::Thresholds::LINUX_TESTBED;
    let machine = fgcs_sim::machine::MachineConfig::default();

    let mut table = TextTable::new(&[
        "host LH",
        "static nice 0",
        "static nice 19",
        "managed policy",
        "managed guest CPU",
    ]);
    let mut csv = Vec::new();
    for &lh in &[0.1, 0.3, 0.5, 0.7, 0.9] {
        let hosts = [fgcs_sim::workloads::synthetic::host_process("h", lh)];
        let eq = contention::measure_group(
            &machine,
            &hosts,
            Some(&fgcs_sim::workloads::synthetic::guest_process(0)),
            &cfg,
        );
        let low = contention::measure_group(
            &machine,
            &hosts,
            Some(&fgcs_sim::workloads::synthetic::guest_process(19)),
            &cfg,
        );
        let managed = run_policy(
            &machine,
            &hosts,
            &mut two_threshold(thresholds),
            secs(2),
            cfg.warmup_secs,
            cfg.measure_secs,
        );
        table.row(vec![
            format!("{lh:.1}"),
            pct(eq.reduction_rate),
            pct(low.reduction_rate),
            pct(managed.host_reduction),
            pct(managed.guest_usage),
        ]);
        csv.push(format!(
            "{lh:.1},{:.4},{:.4},{:.4},{:.4}",
            eq.reduction_rate, low.reduction_rate, managed.host_reduction, managed.guest_usage
        ));
    }
    table.print();
    let path = write_csv(
        "ablation_policy",
        "lh,static0,static19,managed,managed_guest_cpu",
        &csv,
    )
    .expect("write csv");
    println!("wrote {}", path.display());
    println!(
        "the managed policy keeps host slowdown near the nice-19 line at high \
         load while harvesting more CPU than always-nice-19 at low load — the \
         paper's argument for the two-threshold design."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows as bit patterns, so `==` is bit-for-bit.
    fn bits(rows: &[Fig1Row]) -> Vec<(u64, usize, u64)> {
        rows.iter()
            .map(|r| (r.lh.to_bits(), r.m, r.reduction.to_bits()))
            .collect()
    }

    /// `cfg`'s grid points whose `LH` bits also appear in Figure 1's grid.
    fn shared_lh(cfg: &CalibrationConfig) -> Vec<f64> {
        let (fig1_lh, _) = contention::fig1_standard_grid();
        cfg.lh_grid
            .iter()
            .copied()
            .filter(|lh| fig1_lh.iter().any(|f| f.to_bits() == lh.to_bits()))
            .collect()
    }

    #[test]
    fn the_full_grids_share_every_figure_1_lh_value() {
        // Both grids are exact divisions, so `i / 20` at even `i` is
        // `(i / 2) / 10` to the bit (a product like `6 * 0.05` is not).
        let (fig1_lh, _) = contention::fig1_standard_grid();
        assert_eq!(shared_lh(&CalibrationConfig::default()), fig1_lh);
        assert_eq!(shared_lh(&CalibrationConfig::quick()), fig1_lh);
    }

    #[test]
    fn rows_assembled_from_figure_1_equal_a_fresh_sweep() {
        let cfg = CalibrationConfig::quick();
        assert!(
            !shared_lh(&cfg).is_empty(),
            "the quick grids share no point"
        );
        let (lh, m) = contention::fig1_standard_grid();
        for nice in [0, 19] {
            let kept = (cfg.contention, fig1_sweep(nice, &lh, &m, &cfg.contention));
            let fresh = fig1_sweep(nice, &cfg.lh_grid, &cfg.m_values, &cfg.contention);
            let assembled = calibration_rows(nice, &cfg, Some(&kept));
            assert_eq!(bits(&assembled), bits(&fresh), "nice {nice}");
        }
    }

    #[test]
    fn only_a_row_swept_under_the_same_configuration_is_reused() {
        let contention = ContentionConfig {
            warmup_secs: 2,
            measure_secs: 10,
            combos: 1,
            ..ContentionConfig::quick()
        };
        let cfg = CalibrationConfig {
            lh_grid: vec![0.5, 0.3],
            m_values: vec![1],
            contention,
        };
        let fresh = fig1_sweep(0, &cfg.lh_grid, &cfg.m_values, &contention);
        let sentinel = Fig1Row {
            lh: 0.5,
            m: 1,
            reduction: -7.0,
        };
        let reused = calibration_rows(0, &cfg, Some(&(contention, vec![sentinel])));
        assert_eq!(bits(&reused), bits(&[sentinel, fresh[1]]));

        let other = ContentionConfig {
            seed: contention.seed + 1,
            ..contention
        };
        let not_reused = calibration_rows(0, &cfg, Some(&(other, vec![sentinel])));
        assert_eq!(bits(&not_reused), bits(&fresh));
        let near = Fig1Row {
            lh: f64::from_bits(0.5f64.to_bits() + 1),
            ..sentinel
        };
        let not_reused = calibration_rows(0, &cfg, Some(&(contention, vec![near])));
        assert_eq!(bits(&not_reused), bits(&fresh));
    }
}
