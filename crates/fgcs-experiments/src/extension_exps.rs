//! Extension experiments beyond the paper's figures: the §3.2.2 policy
//! design space (X5) and the §6 future-work testbed scenarios (X6).

use fgcs_core::model::Thresholds;
use fgcs_core::policy::{run_policy, standard_policies};
use fgcs_predict::eval::{evaluate, standard_predictors, EvalConfig};
use fgcs_sim::machine::MachineConfig;
use fgcs_sim::time::secs;
use fgcs_sim::workloads::synthetic;
use fgcs_testbed::analysis;
use fgcs_testbed::runner::{run_testbed, TestbedConfig};
use fgcs_testbed::scenarios;

use fgcs_experiments::artifacts::{fig6_csv, fig7_csv, table2_csv};
use fgcs_experiments::claims::{self, Lab, Row};
use fgcs_stats::sketch::DEFAULT_K;
use fgcs_testbed::streaming::StreamingAnalysis;

use crate::report::{banner, pct, write_csv, TextTable};
use crate::trace_exps::{standard_config, trace_for};

/// X5: the guest-management policy design space of §3.2.2.
pub fn policies(quick: bool) {
    banner("Policies (X5) — the §3.2.2 design space, quantified");
    let (warmup, measure) = if quick { (5, 60) } else { (10, 240) };
    let thresholds = Thresholds::LINUX_TESTBED;

    let mut table = TextTable::new(&[
        "host LH",
        "policy",
        "host slowdown",
        "guest CPU",
        "terminated",
        "mgmt actions",
    ]);
    let mut csv = Vec::new();
    for &lh in &[0.1, 0.3, 0.5, 0.7, 0.9] {
        let hosts = [synthetic::host_process("h", lh)];
        for policy in standard_policies(thresholds).iter_mut() {
            let out = run_policy(
                &MachineConfig::default(),
                &hosts,
                policy.as_mut(),
                secs(2),
                warmup,
                measure,
            );
            table.row(vec![
                format!("{lh:.1}"),
                policy.name().to_string(),
                pct(out.host_reduction),
                pct(out.guest_usage),
                if out.guest_terminated {
                    "yes".into()
                } else {
                    "no".into()
                },
                out.actions.to_string(),
            ]);
            csv.push(format!(
                "{lh:.1},{},{:.4},{:.4},{},{}",
                policy.name(),
                out.host_reduction,
                out.guest_usage,
                out.guest_terminated,
                out.actions
            ));
        }
    }
    table.print();
    println!(
        "\nthe paper's elimination argument, quantified: gradual priorities \
         protect the host no better than the two-threshold policy while \
         managing more; always-lowest forgoes guest CPU at light load; \
         coarse-grained wastes most of the machine."
    );
    let path = write_csv(
        "policies",
        "lh,policy,host_reduction,guest_usage,terminated,actions",
        &csv,
    )
    .expect("csv");
    println!("wrote {}", path.display());
}

/// X7: cluster placement strategies on live machines — the iShare
/// service end-to-end, comparing how placement interacts with the
/// five-state policy.
pub fn cluster_study(quick: bool) {
    use fgcs_core::cluster::{
        Cluster, FewestFailuresPlacement, LeastLoadedPlacement, Placement, RandomPlacement,
        RoundRobinPlacement,
    };
    use fgcs_core::controller::ControllerConfig;
    use fgcs_sim::machine::Machine;
    use fgcs_sim::proc::{Demand, MemSpec, ProcClass, ProcSpec};
    use fgcs_sim::time::minutes;

    banner("Cluster (X7) — placement strategies on a live 6-machine service");
    // All six machines are *available* (below Th2) but far from equal: a
    // guest on the 55%-loaded box computes at half the speed it gets on
    // the idle one. Jobs trickle in, so placement — not raw capacity —
    // decides how fast the queue drains.
    let host_loads = [0.05, 0.10, 0.25, 0.40, 0.50, 0.55];
    let jobs: usize = if quick { 10 } else { 20 };
    let job_minutes = if quick { 3 } else { 5 };
    let arrival_gap = minutes(3);

    let placements: Vec<Box<dyn Placement>> = vec![
        Box::new(RandomPlacement::new(0xC1)),
        Box::new(RoundRobinPlacement::default()),
        Box::new(LeastLoadedPlacement),
        Box::new(FewestFailuresPlacement),
    ];

    let mut table = TextTable::new(&[
        "placement",
        "mean response (min)",
        "completed",
        "terminations",
        "dispatches",
    ]);
    let mut csv = Vec::new();
    for placement in placements {
        let name = placement.name();
        let machines: Vec<Machine> = host_loads
            .iter()
            .map(|&l| {
                let mut m = Machine::default_linux();
                m.spawn(synthetic::host_process("user", l));
                m
            })
            .collect();
        let mut cluster = Cluster::new(machines, ControllerConfig::default(), placement);
        cluster.run_ticks(secs(10));
        for i in 0..jobs {
            cluster.submit(ProcSpec::new(
                format!("job-{i}"),
                ProcClass::Guest,
                0,
                Demand::CpuBound {
                    total_work: Some(minutes(job_minutes)),
                },
                MemSpec::resident(32),
            ));
            cluster.run_ticks(arrival_gap);
        }
        cluster.run_until_drained(minutes(360));
        let s = cluster.stats();
        let mean_resp = s.mean_response_ticks / minutes(1) as f64;
        table.row(vec![
            name.to_string(),
            format!("{mean_resp:.2}"),
            s.completed.to_string(),
            s.terminated.to_string(),
            s.dispatched.to_string(),
        ]);
        csv.push(format!(
            "{name},{mean_resp:.3},{},{},{}",
            s.completed, s.terminated, s.dispatched
        ));
    }
    table.print();
    println!(
        "\nload-aware placement runs each job on the quietest machine, so its \
         mean response approaches the job's raw compute time; blind \
         strategies pay the slowdown of whatever machine they hit."
    );
    let path = write_csv(
        "cluster",
        "placement,mean_response_min,completed,terminated,dispatched",
        &csv,
    )
    .expect("csv");
    println!("wrote {}", path.display());
}

/// X8: ablation of the detector's two timing rules — the 1-minute
/// transient-spike tolerance (§4) and the 5-minute harvest delay (§5.2:
/// "the system should wait for about 5 minutes before harvesting a
/// machine recently released from heavy host workloads").
pub fn detector_rules(quick: bool) {
    banner("Detector rules (X8) — spike tolerance and harvest delay, ablated");
    let base = standard_config(quick);

    // "No spike tolerance" is 1 s, not 0: DetectorConfig rejects 0 as a
    // misconfiguration, and with 15 s sampling any tolerance below the
    // sample period already means a spike confirmed at the next sample
    // fails immediately — tolerance ablated at the sampling resolution.
    let variants: Vec<(&str, u64, u64)> = vec![
        ("both rules (paper)", 60, 300),
        ("no spike tolerance", 1, 300),
        ("no harvest delay", 60, 15),
        ("neither rule", 1, 15),
    ];
    let mut table = TextTable::new(&[
        "detector",
        "events/machine-day",
        "vs paper rules",
        "intervals <5min",
        "wd mean interval (h)",
    ]);
    let mut csv = Vec::new();
    let mut baseline_events = 0usize;
    for (name, spike, harvest) in variants {
        let mut cfg = base.clone();
        cfg.detector.spike_tolerance = spike;
        cfg.detector.harvest_delay = harvest;
        let trace = trace_for(&cfg);
        let events = trace.records.len();
        if spike == 60 && harvest == 300 {
            baseline_events = events;
        }
        let rate = events as f64 / trace.machine_days() as f64;
        let iv = analysis::intervals(&trace);
        let short = iv.weekday.eval(5.0 / 60.0);
        let rel = if baseline_events > 0 {
            events as f64 / baseline_events as f64
        } else {
            1.0
        };
        table.row(vec![
            name.to_string(),
            format!("{rate:.1}"),
            format!("{rel:.2}x"),
            pct(short),
            format!("{:.2}", iv.weekday.mean()),
        ]);
        csv.push(format!(
            "{name},{spike},{harvest},{rate:.3},{short:.4},{:.4}",
            iv.weekday.mean()
        ));
    }
    table.print();
    println!(
        "\nwithout the 1-minute tolerance every short load blip kills the \
         guest; without the 5-minute harvest delay the system re-places \
         jobs onto machines that are about to fail again, fragmenting the \
         availability intervals — the paper's two rules both earn their keep."
    );
    let path = write_csv(
        "detector_rules",
        "variant,spike_tolerance,harvest_delay,events_per_machine_day,frac_under_5min,wd_mean_hours",
        &csv,
    )
    .expect("csv");
    println!("wrote {}", path.display());
}

/// X6: the §6 future-work scenarios — does the predictability finding
/// transfer to other host-workload patterns?
pub fn scenario_study(quick: bool) {
    banner("Scenarios (X6) — predictability across host-workload patterns (§6)");
    let mut table = TextTable::new(&[
        "testbed",
        "events/machine-day",
        "cpu%",
        "mem%",
        "urr%",
        "wd corr",
        "we corr",
        "history Brier (2h)",
        "base Brier (2h)",
    ]);
    let mut csv = Vec::new();
    for (name, mut lab) in scenarios::all() {
        if quick {
            lab.machines = 6;
            lab.days = 21;
        } else {
            lab.machines = 12;
            lab.days = 56;
        }
        let cfg = TestbedConfig {
            lab,
            ..TestbedConfig::default()
        };
        let trace = run_testbed(&cfg);
        let t2 = analysis::table2(&trace);
        let (cpu, mem, urr) = t2.percentage_ranges();
        let reg = analysis::regularity(&trace);
        let total: usize = t2.per_machine.iter().map(|c| c.total).sum();
        let rate = total as f64 / trace.machine_days() as f64;

        let mut preds = standard_predictors();
        let eval_cfg = EvalConfig {
            windows: vec![2 * 3600],
            ..Default::default()
        };
        let rows = evaluate(&trace, &mut preds, &eval_cfg);
        let brier = |n: &str| {
            rows.iter()
                .find(|r| r.predictor == n)
                .map(|r| r.brier)
                .unwrap_or(f64::NAN)
        };

        table.row(vec![
            name.to_string(),
            format!("{rate:.1}"),
            format!("{cpu}"),
            format!("{mem}"),
            format!("{urr}"),
            format!("{:.2}", reg.weekday_correlation),
            format!("{:.2}", reg.weekend_correlation),
            format!("{:.3}", brier("history-window")),
            format!("{:.3}", brier("base-rate")),
        ]);
        csv.push(format!(
            "{name},{rate:.3},{:.2},{:.2},{:.4},{:.4}",
            reg.weekday_correlation,
            reg.weekend_correlation,
            brier("history-window"),
            brier("base-rate")
        ));
    }
    table.print();
    println!(
        "\nthe paper's expectation (§6): different host-workload patterns, \
         similar predictability — history-window prediction should beat the \
         base rate on every testbed."
    );
    let path = write_csv(
        "scenarios",
        "testbed,events_per_machine_day,wd_corr,we_corr,history_brier,base_brier",
        &csv,
    )
    .expect("csv");
    println!("wrote {}", path.display());
}

/// X10: seed robustness — the Table 2 reproduction must not hinge on a
/// lucky seed. Re-runs the full testbed under several seeds and reports
/// the spread of the headline statistics, with a bootstrap CI on the
/// per-machine event count, and which of the Table 2, Figure 6 and
/// Figure 7 rows hold on each seed; the default seed must pass them all.
pub fn seeds(quick: bool) {
    use fgcs_stats::bootstrap::bootstrap_mean_ci;
    use fgcs_stats::rng::Rng;

    banner("Seeds (X10) — Table 2 statistics across independent seeds");
    let seeds: &[u64] = if quick {
        &[1, 2, 3]
    } else {
        &[20050801, 1, 42, 0xFEED, 20260707]
    };
    let mut table = TextTable::new(&[
        "seed",
        "total (per machine)",
        "cpu%",
        "mem%",
        "urr%",
        "reboot frac",
        "mean events/machine ±95% CI",
    ]);
    let mut csv = Vec::new();
    let mut matrix: Vec<(u64, Vec<Row>)> = Vec::new();
    for &seed in seeds {
        let mut cfg = TestbedConfig::default();
        if quick {
            cfg.lab.machines = 8;
            cfg.lab.days = 28;
        }
        cfg.lab.seed = seed;
        let trace = trace_for(&cfg);
        let t2 = analysis::table2(&trace);
        let acc = StreamingAnalysis::from_trace(&trace, DEFAULT_K);
        let rows = claims::trace_rows(
            &table2_csv(&t2),
            &fig6_csv(&acc),
            &fig7_csv(&acc.hourly()),
            Lab::of(&trace),
        )
        .expect("readable artifacts");
        if seed == TestbedConfig::default().lab.seed {
            if let Err(e) = claims::hold(rows.clone()) {
                panic!("X10 default seed: {e}");
            }
        }
        matrix.push((seed, rows));
        let (cpu, mem, urr) = t2.percentage_ranges();
        let counts: Vec<f64> = t2.per_machine.iter().map(|c| c.total as f64).collect();
        let mut rng = Rng::new(seed ^ 0xB00);
        let ci = bootstrap_mean_ci(&counts, 2000, 0.95, &mut rng).expect("non-empty");
        table.row(vec![
            seed.to_string(),
            t2.total.to_string(),
            cpu.to_string(),
            mem.to_string(),
            urr.to_string(),
            format!("{:.2}", t2.urr_reboot_fraction),
            format!("{:.0} [{:.0}, {:.0}]", ci.estimate, ci.lo, ci.hi),
        ]);
        csv.push(format!(
            "{seed},{},{},{},{},{:.4},{:.1},{:.1},{:.1}",
            t2.total, cpu, mem, urr, t2.urr_reboot_fraction, ci.estimate, ci.lo, ci.hi
        ));
    }
    table.print();

    println!("\nTable 2 / Figure 6 / Figure 7 rows per seed (- = binds at full scale only):");
    let mut header = vec!["row".to_string()];
    header.extend(matrix.iter().map(|(seed, _)| seed.to_string()));
    let mut pass = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for (i, row) in matrix[0].1.iter().enumerate() {
        let mut cells = vec![row.name()];
        cells.extend(matrix.iter().map(|(_, rows)| {
            match rows[i].holds {
                Some(true) => "pass",
                Some(false) => "FAIL",
                None => "-",
            }
            .to_string()
        }));
        pass.row(cells);
    }
    pass.print();
    let path = write_csv(
        "seeds",
        "seed,total_range,cpu_pct,mem_pct,urr_pct,reboot_frac,mean,ci_lo,ci_hi",
        &csv,
    )
    .expect("csv");
    println!("wrote {}", path.display());
}
