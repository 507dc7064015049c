//! X14: the prediction-driven guest scheduler (`fgcs-sched`) evaluated
//! over a live availability cluster.
//!
//! Replays a heterogeneous testbed lab through a 2-shard in-process
//! cluster (the monitor stream the real iShare deployment would have
//! produced), then runs three [`fgcs_sched::Scheduler`] instances in
//! lockstep over the *same* job arrivals and the *same* cluster state:
//!
//! * **predictive** — placement ranked by predicted time-to-failure
//!   from the cluster's online model, plus the SLO migration sweep;
//! * **greedy** — fewest recorded occurrences wins, no predictions;
//! * **random** — any harvestable machine, no predictions.
//!
//! All three see identical revocations (the service-side `harvestable`
//! bit going false under a guest) and identical fairshare quotas, so
//! the comparison is paired. The run *asserts* the tentpole claim —
//! predictive strictly fewer evictions and strictly less wasted work
//! than both baselines at equal-or-better completed guest work, with
//! zero fairshare violations anywhere, the bounds of
//! [`fgcs_experiments::claims::check_x14_sched`] — and writes
//! `results/sched_eval.csv` plus a flat `"sched"` gate object into
//! `BENCH_serve.json`, which `fgcs-exp gate` checks again.

#[cfg(target_os = "linux")]
pub fn sched(quick: bool) {
    imp::sched(quick);
}

#[cfg(not(target_os = "linux"))]
pub fn sched(_quick: bool) {
    println!("X14 needs the Linux cluster router (epoll sockets); skipping");
}

#[cfg(target_os = "linux")]
mod imp {
    use std::time::Duration;

    use fgcs_sched::{AvailabilitySource, ClusterSource, Policy, SchedConfig, Scheduler};
    use fgcs_service::cluster::{ClusterClient, ClusterConfig, ShardSpec};
    use fgcs_service::{Server, ServiceConfig};
    use fgcs_stats::rng::Rng;
    use fgcs_testbed::json::ObjWriter;
    use fgcs_testbed::lab::LabConfig;
    use fgcs_testbed::MachinePlan;
    use fgcs_wire::{Frame, SampleLoad, WireSample};

    use fgcs_experiments::claims;

    use crate::report::{banner, hours, write_csv, TextTable};

    /// Scheduler tick, seconds of trace time. Coarser than the monitor
    /// period (revocations are seen at tick granularity, like a real
    /// scheduler polling cluster stats) but no coarser than the
    /// detector's 5-minute harvest delay, so occurrences cannot recover
    /// unseen between ticks; much finer than the checkpoint interval,
    /// so evictions still lose real progress.
    const TICK: u64 = 300;
    /// Jobs checkpoint on the hour; an eviction loses up to an hour.
    const CHECKPOINT: u64 = 3_600;
    /// A controlled migration costs this much re-run work, seconds.
    const MIGRATION_COST: u64 = 300;

    struct Arrival {
        at: u64,
        user: u32,
        work: u64,
    }

    /// One policy under test: its scheduler and whether it may consult
    /// the cluster's predictor (survival queries + migration sweep).
    struct Contender {
        policy: Policy,
        sched: Scheduler,
        predicts: bool,
        rejected: u64,
    }

    fn wire(s: &fgcs_testbed::lab::LoadSample) -> WireSample {
        WireSample {
            t: s.t,
            load: SampleLoad::Direct(s.host_load),
            host_resident_mb: s.host_resident_mb,
            alive: s.alive,
        }
    }

    /// Streams every machine's samples in `[lo, hi)` through the
    /// router, then blocks until both shards have applied them.
    fn stream_span(router: &mut ClusterClient, waves: &[Vec<WireSample>], lo: u64, hi: u64) {
        let mut last_t = 0u64;
        for (i, wave) in waves.iter().enumerate() {
            let machine = i as u32 + 1;
            let chunk: Vec<WireSample> = wave
                .iter()
                .filter(|s| s.t >= lo && s.t < hi)
                .copied()
                .collect();
            let Some(tail) = chunk.last() else { continue };
            last_t = last_t.max(tail.t);
            for batch in chunk.chunks(1_000) {
                let reply = router
                    .ingest(machine, batch.to_vec())
                    .unwrap_or_else(|e| panic!("X14: ingest machine {machine}: {e}"));
                assert!(matches!(reply, Frame::Ack { .. }), "X14: {reply:?}");
            }
        }
        // The ingest queue is asynchronous: wait until every shard has
        // drained and every machine's detector reached the span end.
        'shards: for s in 0..router.shard_count() {
            for _ in 0..4_000 {
                let stats = router.stats_of(s).expect("X14: shard stats");
                let done =
                    stats.queue_depth == 0 && stats.machines.iter().all(|m| m.last_t >= last_t);
                if done {
                    continue 'shards;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            panic!("X14: shard {s} never caught up to t = {last_t}");
        }
    }

    /// One scheduler tick, the serve loop's exact order: revocations,
    /// progress, migration sweep, placement.
    fn tick(
        c: &mut Contender,
        now: u64,
        views: &[fgcs_sched::MachineView],
        source: &mut ClusterSource,
    ) {
        for (machine, _) in c.sched.hosts() {
            let gone = !views.iter().any(|v| v.machine == machine && v.harvestable);
            if gone {
                c.sched.on_unavailable(machine, now);
            }
        }
        c.sched.advance(now);
        if c.predicts {
            let mut surv = |m: u32, w: u64| source.survival(m, w).unwrap_or(1.0);
            c.sched.check_migrations(now, &mut surv);
            c.sched.place(now, views, &mut surv);
        } else {
            // Predictionless: no migration sweep (survival 1.0 never
            // trips the trigger) and placement never queries the model.
            let mut blind = |_: u32, _: u64| 1.0;
            c.sched.place(now, views, &mut blind);
        }
    }

    pub fn sched(quick: bool) {
        banner("Scheduler (X14) — prediction-driven placement + SLO migration vs baselines");
        // The lab the paper's future-work section anticipates:
        // "testbeds with different patterns of host workloads". Odd
        // machines run the student-lab occupancy shifted by 12 hours
        // (an opposite-timezone / night-shift fleet), so both machine
        // groups rack up *similar occurrence totals* — a pure count
        // (greedy) cannot tell them apart, but the hour-of-day model
        // knows which half is quiet right now. A mild busyness spread
        // keeps greedy meaningfully better than random.
        let (train_days, eval_days) = if quick { (7u64, 2u64) } else { (14u64, 7u64) };
        let lab = LabConfig {
            machine_busyness_spread: 0.4,
            machines: if quick { 10 } else { 20 },
            days: (train_days + eval_days) as usize,
            ..LabConfig::default()
        };
        let mut night = lab.clone();
        for h in 0..24 {
            night.weekday_occupancy[h] = lab.weekday_occupancy[(h + 12) % 24];
            night.weekend_occupancy[h] = lab.weekend_occupancy[(h + 12) % 24];
        }
        let users: &[(u32, u64)] = &[(1, 2), (2, 2)];

        println!(
            "lab: {} machines x {} days (train {train_days}, eval {eval_days}), \
             spread {}, odd machines on the opposite shift, {} users of base quota 2",
            lab.machines,
            lab.days,
            lab.machine_busyness_spread,
            users.len()
        );

        // The monitor streams, exactly what the testbed tracer detects.
        let waves: Vec<Vec<WireSample>> = (0..lab.machines)
            .map(|i| {
                let cfg = if i % 2 == 0 { &lab } else { &night };
                MachinePlan::generate(cfg, i)
                    .samples()
                    .map(|s| wire(&s))
                    .collect()
            })
            .collect();

        // A 2-shard cluster of real availability servers, machine
        // ownership by rendezvous hashing.
        let shard = |name: &str| -> (Server, ShardSpec) {
            let server = Server::start(ServiceConfig::default()).expect("X14: shard starts");
            let spec = ShardSpec {
                name: name.to_string(),
                primary_addr: server.local_addr().to_string(),
                follower_addr: None,
            };
            (server, spec)
        };
        let (shard0, spec0) = shard("shard-0");
        let (shard1, spec1) = shard("shard-1");
        let mut router =
            ClusterClient::connect(ClusterConfig::new(vec![spec0, spec1])).expect("X14: router");

        // Train: the prefix days flow through the cluster before any
        // guest arrives, so the online model has history to predict on.
        let train_end = train_days * 86_400;
        let span = lab.span_secs();
        stream_span(&mut router, &waves, 0, train_end);
        let mut source = ClusterSource::new(router);

        // The paired job workload: Poisson-ish arrivals on the hour,
        // multi-hour jobs, identical for every policy.
        let mut wl = Rng::for_stream(lab.seed, 0xeca1);
        let mut arrivals: Vec<Arrival> = Vec::new();
        let mut t = train_end;
        while t < span {
            for &(user, _) in users {
                if wl.chance(0.30) {
                    arrivals.push(Arrival {
                        at: t,
                        user,
                        work: wl.range_u64(1_800, 4 * 3_600),
                    });
                }
            }
            t += 3_600;
        }
        println!(
            "workload: {} job arrivals over the eval window",
            arrivals.len()
        );

        let contender = |policy: Policy, predicts: bool| {
            let mut sched = Scheduler::new(SchedConfig {
                policy,
                pool_extra: 2,
                checkpoint_every: CHECKPOINT,
                migration_cost: MIGRATION_COST,
                // Look a full hour ahead: evacuating before the morning
                // rush costs MIGRATION_COST but saves a checkpoint's
                // worth of lost progress.
                migrate_lookahead: 1_800,
                ..SchedConfig::default()
            });
            for &(user, base) in users {
                sched.add_user(user, base);
            }
            Contender {
                policy,
                sched,
                predicts,
                rejected: 0,
            }
        };
        let mut contenders = [
            contender(Policy::Predictive, true),
            contender(Policy::Greedy, false),
            contender(Policy::Random, false),
        ];

        // The lockstep replay: each tick streams the next slice of
        // monitor samples, reads the cluster once, and drives all
        // three schedulers off that one snapshot.
        let mut arrival_idx = 0;
        let mut shared_mid = false;
        let mut now = train_end;
        while now < span {
            let next = (now + TICK).min(span);
            stream_span(source.client_mut(), &waves, now, next);
            now = next;
            let views = source.machines().expect("X14: cluster views");

            // Halfway through, user 1 borrows an extra slot from the
            // pool — the fairshare path under real load.
            if !shared_mid && now >= train_end + eval_days * 43_200 {
                shared_mid = true;
                for c in contenders.iter_mut() {
                    let got = c.sched.share_request(1, 1);
                    assert_eq!(got, 1, "X14: pool of 2 must grant 1 extra");
                }
            }

            while arrival_idx < arrivals.len() && arrivals[arrival_idx].at < now {
                let a = &arrivals[arrival_idx];
                for c in contenders.iter_mut() {
                    if c.sched.submit(a.user, a.work, now).is_err() {
                        c.rejected += 1;
                    }
                }
                arrival_idx += 1;
            }
            for c in contenders.iter_mut() {
                tick(c, now, &views, &mut source);
            }
        }

        // Drain: the trace is over, so the cluster state is frozen (no
        // further revocations) — let every policy finish its backlog so
        // throughput compares completed work on the *same* job set
        // rather than whoever was luckier with the last stragglers.
        let views = source.machines().expect("X14: final cluster views");
        for _ in 0..(48 * 3_600 / TICK) {
            if contenders.iter().all(|c| {
                let s = c.sched.stats();
                s.queued == 0 && s.running == 0
            }) {
                break;
            }
            now += TICK;
            for c in contenders.iter_mut() {
                c.sched.advance(now);
                let mut blind = |_: u32, _: u64| 1.0;
                c.sched.place(now, &views, &mut blind);
            }
        }

        // Report and assert.
        let mut table = TextTable::new(&[
            "policy",
            "completed",
            "completed work",
            "evictions",
            "migrations",
            "wasted",
            "rejected",
            "quota viol.",
        ]);
        let mut csv = Vec::new();
        for c in &contenders {
            let s = c.sched.stats();
            table.row(vec![
                c.policy.to_string(),
                format!("{}/{}", s.completed, s.submitted),
                hours(c.sched.completed_work() as f64),
                s.evictions.to_string(),
                s.migrations.to_string(),
                hours(s.wasted_secs as f64),
                c.rejected.to_string(),
                c.sched.quota_violations().to_string(),
            ]);
            csv.push(format!(
                "{},{},{},{},{},{},{},{},{}",
                c.policy,
                s.submitted,
                s.completed,
                c.sched.completed_work(),
                s.evictions,
                s.migrations,
                s.wasted_secs,
                c.rejected,
                c.sched.quota_violations(),
            ));
        }
        table.print();

        for c in &contenders {
            for &(user, base) in users {
                let ceiling = base + if user == 1 { 1 } else { 0 };
                assert!(
                    c.sched.peak_running(user) <= ceiling,
                    "X14: user {user} peaked above its allowance under {}",
                    c.policy
                );
            }
            let s = c.sched.stats();
            assert_eq!(
                s.submitted,
                s.completed + s.queued + s.running,
                "X14: job conservation broke under {}",
                c.policy
            );
        }
        let [pred, greedy, random] = &contenders;
        let (ps, gs, rs) = (
            pred.sched.stats(),
            greedy.sched.stats(),
            random.sched.stats(),
        );
        let path = write_csv(
            "sched_eval",
            "policy,submitted,completed,completed_work_secs,evictions,migrations,\
             wasted_secs,rejected,quota_violations",
            &csv,
        )
        .expect("csv");
        println!("wrote {}", path.display());

        let mut w = ObjWriter::new();
        w.str(
            "description",
            "X14: fgcs-sched over a live 2-shard cluster replaying the heterogeneous \
             testbed lab; three policies in lockstep over identical arrivals, \
             revocations from the service-side harvestable bit, fairshare quotas \
             enforced; predictive = time-to-failure placement + SLO migration",
        )
        .str(
            "command",
            "cargo run --release -p fgcs-experiments --bin fgcs-exp -- sched",
        )
        .u64("machines", lab.machines as u64)
        .u64("train_days", train_days)
        .u64("eval_days", eval_days)
        .u64("jobs", arrivals.len() as u64)
        .u64("pred_evictions", ps.evictions)
        .u64("pred_migrations", ps.migrations)
        .u64("pred_wasted_secs", ps.wasted_secs)
        .u64("pred_completed", ps.completed)
        .u64("pred_completed_work_secs", pred.sched.completed_work())
        .u64("greedy_evictions", gs.evictions)
        .u64("greedy_wasted_secs", gs.wasted_secs)
        .u64("greedy_completed", gs.completed)
        .u64("greedy_completed_work_secs", greedy.sched.completed_work())
        .u64("rand_evictions", rs.evictions)
        .u64("rand_wasted_secs", rs.wasted_secs)
        .u64("rand_completed", rs.completed)
        .u64("rand_completed_work_secs", random.sched.completed_work())
        .u64(
            "quota_violations",
            contenders.iter().map(|c| c.sched.quota_violations()).sum(),
        );
        let gate = w.finish();
        claims::assert_claim("X14", &gate, claims::check_x14_sched);
        println!(
            "\npredictive: {} evictions / {} wasted vs greedy {} / {} and random {} / {} \
             (strictly better on both, throughput >= both, 0 quota violations)",
            ps.evictions,
            hours(ps.wasted_secs as f64),
            gs.evictions,
            hours(gs.wasted_secs as f64),
            rs.evictions,
            hours(rs.wasted_secs as f64)
        );
        claims::splice_bench("sched", &gate);

        drop(source);
        shard0.shutdown();
        shard1.shutdown();
    }
}
