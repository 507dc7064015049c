//! Component microbenchmarks: the hot inner loops of the simulator,
//! detector, trace generator, statistics substrate and parallel harness.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use fgcs_core::contention::ContentionConfig;
use fgcs_core::detector::{Detector, DetectorConfig};
use fgcs_core::monitor::{Monitor, Observation};
use fgcs_faults::{FaultConfig, FaultStream};
use fgcs_predict::predictor::EventIndex;
use fgcs_sim::machine::Machine;
use fgcs_sim::proc::ProcSpec;
use fgcs_sim::time::secs;
use fgcs_sim::workloads::synthetic;
use fgcs_stats::ecdf::Ecdf;
use fgcs_stats::rng::Rng;
use fgcs_testbed::lab::{LabConfig, MachinePlan};

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched");
    for procs in [2usize, 6, 12] {
        let mut m = Machine::default_linux();
        let mut rng = Rng::new(9);
        for s in synthetic::host_group(&mut rng, 0.6, procs - 1) {
            m.spawn(s);
        }
        m.spawn(ProcSpec::cpu_bound_guest("g", 19));
        g.throughput(Throughput::Elements(secs(1)));
        g.bench_function(format!("machine_second/{procs}procs"), |b| {
            b.iter(|| {
                m.run_ticks(secs(1));
                black_box(m.now())
            })
        });
    }
    g.finish();
}

/// One Figure 1 measurement as `contention::reduction_point` makes it:
/// a fresh machine running combination 0 of the point (LH 0.6, `M`)
/// beside a nice-0 guest, warmed up, then measured through
/// `Machine::measure`, which skips the periods it has already seen.
fn bench_contention(c: &mut Criterion) {
    let mut g = c.benchmark_group("contention");
    let cfg = ContentionConfig::default();
    let lh = 0.6;
    for m in [1usize, 3, 5] {
        let stream = (lh * 1000.0) as u64 ^ ((m as u64) << 20);
        let hosts = synthetic::host_group(&mut Rng::for_stream(cfg.seed, stream), lh, m);
        g.throughput(Throughput::Elements(secs(
            cfg.warmup_secs + cfg.measure_secs,
        )));
        g.bench_function(format!("measure_point/M{m}"), |b| {
            b.iter(|| {
                let mut machine = Machine::default_linux();
                for h in &hosts {
                    machine.spawn(h.clone());
                }
                machine.spawn(synthetic::guest_process(0));
                machine.run_ticks(secs(cfg.warmup_secs));
                black_box(machine.measure(secs(cfg.measure_secs)))
            })
        });
    }
    g.finish();
}

fn bench_monitor_detector(c: &mut Criterion) {
    let mut g = c.benchmark_group("detect");
    let mut machine = Machine::default_linux();
    machine.spawn(synthetic::host_process("h", 0.4));
    machine.run_ticks(secs(10));
    let mut monitor = Monitor::new();
    g.bench_function("monitor_sample", |b| {
        b.iter(|| black_box(monitor.sample(&machine)))
    });

    let mut det = Detector::new(DetectorConfig::wallclock_default());
    let mut t = 0u64;
    g.throughput(Throughput::Elements(1));
    g.bench_function("detector_observe", |b| {
        b.iter(|| {
            t += 15;
            let load = if (t / 900).is_multiple_of(2) {
                0.1
            } else {
                0.9
            };
            black_box(det.observe(
                t,
                &Observation {
                    host_load: load,
                    free_mem_mb: 512,
                    alive: true,
                },
            ))
        })
    });
    g.finish();
}

fn bench_lab_generator(c: &mut Criterion) {
    let mut g = c.benchmark_group("lab");
    let cfg = LabConfig {
        days: 7,
        ..LabConfig::default()
    };
    g.bench_function("plan_generation_7days", |b| {
        b.iter(|| black_box(MachinePlan::generate(&cfg, 3)))
    });
    let plan = MachinePlan::generate(&cfg, 3);
    g.throughput(Throughput::Elements(cfg.span_secs() / cfg.sample_period));
    g.bench_function("sample_iter", |b| {
        b.iter(|| black_box(plan.samples().count()))
    });
    g.finish();

    // The injector over the same machine-week: what it adds per sample
    // with nothing to inject, and at the noisy fleet's rates.
    let mut g = c.benchmark_group("faults");
    g.throughput(Throughput::Elements(cfg.span_secs() / cfg.sample_period));
    for (name, faults) in [
        ("stream_identity", FaultConfig::off(cfg.seed)),
        ("stream_noisy", FaultConfig::noisy(cfg.seed)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(FaultStream::new(plan.samples(), &faults, 3).count()))
        });
    }
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("stats");
    let mut rng = Rng::new(5);
    let samples: Vec<f64> = (0..10_000).map(|_| rng.f64() * 12.0).collect();
    g.bench_function("ecdf_build_10k", |b| {
        b.iter(|| black_box(Ecdf::new(&samples)))
    });
    let ecdf = Ecdf::new(&samples);
    g.bench_function("ecdf_eval", |b| b.iter(|| black_box(ecdf.eval(6.0))));
    g.bench_function("rng_f64_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.f64();
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_event_index(c: &mut Criterion) {
    let trace = fgcs_bench::bench_trace();
    let index = EventIndex::build(&trace, u64::MAX);
    c.bench_function("event_index/window_query", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = (t + 7919) % trace.meta.span_secs;
            black_box(index.window_available(2, t, 3600))
        })
    });
}

fn bench_par(c: &mut Criterion) {
    // The ablation the DESIGN calls out: parallel harness vs sequential
    // on a realistic sweep shape.
    let items: Vec<u64> = (0..64).collect();
    let work = |&i: &u64| -> f64 {
        let mut rng = Rng::for_stream(42, i);
        (0..20_000).map(|_| rng.f64()).sum()
    };
    let mut g = c.benchmark_group("par");
    g.bench_function("sequential_64", |b| {
        b.iter(|| black_box(items.iter().map(work).collect::<Vec<_>>()))
    });
    g.bench_function("par_map_64", |b| {
        b.iter(|| black_box(fgcs_par::par_map(&items, work)))
    });
    g.finish();
}

fn bench_policy_and_cluster(c: &mut Criterion) {
    use fgcs_core::cluster::{Cluster, LeastLoadedPlacement};
    use fgcs_core::controller::ControllerConfig;
    use fgcs_core::model::Thresholds;
    use fgcs_core::policy::{run_policy, two_threshold};
    use fgcs_sim::machine::MachineConfig;
    use fgcs_sim::proc::{Demand, MemSpec, ProcClass};

    let mut g = c.benchmark_group("policy");
    g.bench_function("two_threshold_managed_run", |b| {
        let hosts = [synthetic::host_process("h", 0.4)];
        b.iter(|| {
            let mut p = two_threshold(Thresholds::LINUX_TESTBED);
            black_box(run_policy(
                &MachineConfig::default(),
                &hosts,
                &mut p,
                secs(2),
                2,
                20,
            ))
        })
    });
    g.bench_function("cluster_drain_4nodes", |b| {
        b.iter(|| {
            let machines = (0..4).map(|_| Machine::default_linux()).collect();
            let mut cluster = Cluster::new(
                machines,
                ControllerConfig::default(),
                Box::new(LeastLoadedPlacement),
            );
            for _ in 0..4 {
                cluster.submit(fgcs_sim::proc::ProcSpec::new(
                    "j",
                    ProcClass::Guest,
                    0,
                    Demand::CpuBound {
                        total_work: Some(secs(2)),
                    },
                    MemSpec::tiny(),
                ));
            }
            cluster.run_until_drained(secs(120));
            black_box(cluster.stats())
        })
    });
    g.finish();
}

fn bench_predictors_fit(c: &mut Criterion) {
    use fgcs_predict::predictor::{HistoryWindowPredictor, MachineHourlyPredictor};
    use fgcs_predict::renewal::RenewalPredictor;
    use fgcs_predict::AvailabilityPredictor;

    let trace = fgcs_bench::bench_trace_long();
    let train_end = trace.meta.span_secs / 2;
    let mut g = c.benchmark_group("predictor");
    g.bench_function("fit_history_window", |b| {
        b.iter(|| {
            let mut p = HistoryWindowPredictor::new();
            p.fit(&trace, train_end);
            black_box(p.predict(0, train_end + 3_600, 7_200))
        })
    });
    g.bench_function("fit_machine_hourly", |b| {
        b.iter(|| {
            let mut p = MachineHourlyPredictor::default();
            p.fit(&trace, train_end);
            black_box(p.predict(0, train_end + 3_600, 7_200))
        })
    });
    g.bench_function("fit_renewal", |b| {
        b.iter(|| {
            let mut p = RenewalPredictor::default();
            p.fit(&trace, train_end);
            black_box(p.predict(0, train_end + 3_600, 7_200))
        })
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = components;
    config = config();
    targets = bench_scheduler, bench_contention, bench_monitor_detector, bench_lab_generator,
              bench_stats, bench_event_index, bench_par, bench_policy_and_cluster,
              bench_predictors_fit
}
criterion_main!(components);
