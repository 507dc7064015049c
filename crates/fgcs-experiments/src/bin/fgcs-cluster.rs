//! `fgcs-cluster` — X13: kill-primary automatic failover under live
//! replayed load.
//!
//! Boots a 2-shard cluster as real `fgcs-serve` processes (one primary
//! and one replication follower per shard, machine ids owned by
//! rendezvous hashing), replays a deterministic availability wave
//! through the fault-hardened [`ClusterClient`](fgcs_service::ClusterClient) router in three phases,
//! and SIGKILLs shard 0's primary between the first and second phase:
//!
//! 1. **before** — both primaries healthy; baseline ingest throughput
//!    and query latency through the router.
//! 2. **during** — shard 0's primary is killed (`SIGKILL`, no graceful
//!    anything, and **no operator step**): the follower's pull loop
//!    detects the silence — consecutive missed pulls plus an expired
//!    lease (DESIGN.md §13.5) — and self-promotes at a fresh epoch;
//!    the router rides out the dead endpoint with retries, fails over
//!    to the self-promoted follower, and resumes the interrupted
//!    stream via the strictly-`t > last_t` replay protocol.
//! 3. **after** — steady state on the promoted topology.
//!
//! The run asserts the tentpole claim end to end: the cluster's final
//! per-machine transition records bit-identical to an unkilled
//! single-server reference fed the same trace, and the bounds of
//! [`check_x13_cluster`](fgcs_experiments::claims::check_x13_cluster)
//! on the section it writes — zero records lost up to the acked
//! replication seq, a failover, reads routed through the follower
//! endpoints (`follower_reads` counts them) and, at full scale,
//! detection + self-promotion in bounded time (`failover_promote_ms`).
//! Writes `results/serve_cluster.csv` and splices a flat `"cluster"`
//! gate object into `BENCH_serve.json` (both cwd-relative), which
//! `fgcs-exp gate` checks again.
//!
//! ```text
//! fgcs-cluster [--quick]
//! ```
//!
//! Requires the sibling `fgcs-serve` binary (built by
//! `cargo build --release --workspace`).

#[cfg(target_os = "linux")]
mod imp {
    use std::io::{BufRead, BufReader};
    use std::path::{Path, PathBuf};
    use std::process::{Child, ChildStdin, Command, Stdio};
    use std::time::{Duration, Instant};

    use fgcs_experiments::claims;
    use fgcs_service::cluster::{ClusterClient, ClusterConfig, ShardSpec};
    use fgcs_service::loadgen::wave_sample;
    use fgcs_service::{ClientConfig, Server, ServiceClient, ServiceConfig};
    use fgcs_stats::quantile::quantiles;
    use fgcs_testbed::json::ObjWriter;
    use fgcs_wire::{ErrorCode, Frame, WireSample, WireTransition};

    /// Sample spacing of the replay wave, seconds.
    const STEP: u64 = 15;

    /// One `fgcs-serve` child plus the plumbing that controls its life:
    /// it serves until its stdin reaches EOF, so dropping `stdin` is a
    /// graceful shutdown and `Child::kill` is the SIGKILL under test.
    struct Node {
        child: Child,
        addr: String,
        stdin: Option<ChildStdin>,
    }

    impl Node {
        fn spawn(serve_bin: &Path, args: &[String]) -> Node {
            let mut child = Command::new(serve_bin)
                .args(args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn {}: {e}", serve_bin.display()));
            let stdin = child.stdin.take();
            let stdout = child.stdout.take().expect("child stdout piped");
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .expect("read fgcs-serve banner");
            let addr = line
                .strip_prefix("listening on ")
                .unwrap_or_else(|| panic!("unexpected fgcs-serve banner: {line:?}"))
                .trim()
                .to_string();
            Node { child, addr, stdin }
        }

        /// Graceful shutdown: EOF on stdin, then reap.
        fn shutdown(mut self) {
            drop(self.stdin.take());
            let _ = self.child.wait();
        }

        /// SIGKILL mid-flight — the failure under test. Reaps the
        /// zombie but leaves the OS to discover the dead socket.
        fn kill(mut self) {
            let _ = self.child.kill();
            let _ = self.child.wait();
            drop(self.stdin.take());
        }
    }

    fn admin(addr: &str) -> ServiceClient {
        let mut cfg = ClientConfig::new(addr);
        cfg.backoff_unit_ms = 1;
        ServiceClient::connect(cfg).unwrap_or_else(|e| panic!("connect {addr}: {e}"))
    }

    /// (role, applied_seq, head_seq, acked_seq) of a node.
    fn repl_status(client: &mut ServiceClient) -> (u8, u64, u64, u64) {
        match client.request(&Frame::ReplStatus) {
            Ok(Frame::ReplStatusReply {
                role,
                applied_seq,
                head_seq,
                acked_seq,
                ..
            }) => (role, applied_seq, head_seq, acked_seq),
            other => panic!("ReplStatusReply expected, got {other:?}"),
        }
    }

    /// Blocks until the server behind `client` has applied every
    /// machine's wave up to sample index `final_i` and drained its
    /// ingest queue.
    fn wait_caught_up(client: &mut ServiceClient, machines: &[u32], final_i: u64) {
        let final_t = final_i * STEP;
        for _ in 0..2_000 {
            if let Ok(Frame::StatsReply(stats)) = client.request(&Frame::QueryStats) {
                let done = stats.queue_depth == 0
                    && machines.iter().all(|&m| {
                        stats
                            .machines
                            .iter()
                            .any(|s| s.machine == m && s.last_t >= final_t)
                    });
                if done {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("X13: server did not catch up to t = {final_t}");
    }

    fn transitions_of(client: &mut ServiceClient, machine: u32) -> Vec<WireTransition> {
        match client.request(&Frame::QueryTransitions {
            machine,
            since_seq: 0,
            max: 1_000_000,
        }) {
            Ok(Frame::Transitions { transitions, .. }) => transitions,
            other => panic!("Transitions expected, got {other:?}"),
        }
    }

    struct PhaseOutcome {
        batches: u64,
        samples: u64,
        elapsed: Duration,
        lat_us: Vec<f64>,
        gap: Option<Duration>,
    }

    /// One phase of routed replay: samples `[lo, hi)` of every machine,
    /// interleaved batch-round-robin across machines (so both shards
    /// see concurrent load), availability queries mixed in. Returns
    /// `(batches, samples, elapsed, query latencies in µs, gap)` where
    /// `gap` is the time from `gap_from` to the first acked batch on a
    /// machine in `gap_machines` (the killed shard's fleet).
    #[allow(clippy::too_many_arguments)]
    fn run_phase(
        router: &mut ClusterClient,
        machines: &[u32],
        lo: u64,
        hi: u64,
        batch: u64,
        query_every: u64,
        gap_from: Option<Instant>,
        gap_machines: &[u32],
    ) -> PhaseOutcome {
        let mut out = PhaseOutcome {
            batches: 0,
            samples: 0,
            elapsed: Duration::ZERO,
            lat_us: Vec::new(),
            gap: None,
        };
        let t0 = Instant::now();
        let mut i = lo;
        while i < hi {
            let end = (i + batch).min(hi);
            for &m in machines {
                let samples: Vec<WireSample> = (i..end).map(|j| wave_sample(m, j)).collect();
                let n = samples.len() as u64;
                let reply = router
                    .ingest(m, samples)
                    .unwrap_or_else(|e| panic!("X13: routed ingest died for machine {m}: {e}"));
                assert!(
                    matches!(reply, Frame::Ack { .. }),
                    "X13: ingest must ack, got {reply:?}"
                );
                out.batches += 1;
                out.samples += n;
                if out.gap.is_none() && gap_machines.contains(&m) {
                    out.gap = gap_from.map(|t| t.elapsed());
                }
                if out.batches.is_multiple_of(query_every) {
                    let q0 = Instant::now();
                    let reply = router
                        .query_avail(m, 1_800)
                        .unwrap_or_else(|e| panic!("X13: routed query died: {e}"));
                    // Ingest is asynchronous: an early query can reach
                    // the server before its worker applied the
                    // machine's first batch, and the typed
                    // UnknownMachine error is a served (and timed)
                    // answer too.
                    assert!(
                        matches!(
                            reply,
                            Frame::AvailReply { .. }
                                | Frame::Error {
                                    code: ErrorCode::UnknownMachine,
                                    ..
                                }
                        ),
                        "X13: query must answer, got {reply:?}"
                    );
                    out.lat_us.push(q0.elapsed().as_secs_f64() * 1e6);
                }
            }
            i = end;
        }
        out.elapsed = t0.elapsed();
        out
    }

    fn p50_p99(lat: &[f64]) -> (f64, f64) {
        // One call, one sort — quantile() per percentile sorted twice.
        match quantiles(lat, &[0.5, 0.99]) {
            Some(q) => (q[0], q[1]),
            None => (0.0, 0.0),
        }
    }

    fn serve_bin() -> PathBuf {
        let exe = std::env::current_exe().expect("current_exe");
        let bin = exe.parent().expect("exe dir").join("fgcs-serve");
        assert!(
            bin.exists(),
            "X13 needs the sibling fgcs-serve binary at {} — \
             build it first (cargo build --release --workspace)",
            bin.display()
        );
        bin
    }

    pub fn main() {
        let quick = std::env::args().any(|a| a == "--quick");
        // Thirds must land on batch boundaries so the kill happens
        // exactly between routed batches, never inside one.
        let (machines, samples, batch) = if quick {
            (6u32, 600u64, 50u64)
        } else {
            (claims::X13_MACHINES as u32, 3_600u64, 100u64)
        };
        let query_every = 4;
        let ids: Vec<u32> = (1..=machines).collect();
        let third = samples / 3;

        println!(
            "=== X13 — kill-primary failover: {machines} machines x {samples} samples, \
             2 shards, SIGKILL at t = {}s ===",
            third * STEP
        );

        // Unkilled single-server reference on the same trace: the
        // bit-identical baseline the cluster must match.
        let reference =
            Server::start(ServiceConfig::default()).expect("X13: reference server starts");
        let mut ref_client = admin(&reference.local_addr().to_string());
        for &m in &ids {
            let wave: Vec<WireSample> = (0..samples).map(|i| wave_sample(m, i)).collect();
            for chunk in wave.chunks(batch as usize) {
                let reply = ref_client
                    .request(&Frame::SampleBatch {
                        machine: m,
                        samples: chunk.to_vec(),
                    })
                    .expect("X13: reference ingest");
                assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
            }
        }
        wait_caught_up(&mut ref_client, &ids, samples - 1);

        // The cluster: per shard one primary and one follower pulling
        // its replication log, all real processes.
        let bin = serve_bin();
        let spawn_primary = || {
            Node::spawn(
                &bin,
                &[
                    "--addr".into(),
                    "127.0.0.1:0".into(),
                    "--repl-log".into(),
                    "65536".into(),
                ],
            )
        };
        // Followers run with automatic failover armed: a primary that
        // misses 3 consecutive pulls after its 250 ms lease expires is
        // declared dead and the follower self-promotes. No operator
        // anywhere in this experiment.
        let spawn_follower = |of: &str| {
            Node::spawn(
                &bin,
                &[
                    "--addr".into(),
                    "127.0.0.1:0".into(),
                    "--repl-log".into(),
                    "65536".into(),
                    "--follower-of".into(),
                    of.into(),
                    "--pull-interval".into(),
                    "1".into(),
                    "--auto-promote".into(),
                    "--lease".into(),
                    "250".into(),
                    "--missed-pulls".into(),
                    "3".into(),
                ],
            )
        };
        let primary0 = spawn_primary();
        let primary1 = spawn_primary();
        let follower0 = spawn_follower(&primary0.addr);
        let follower1 = spawn_follower(&primary1.addr);
        println!(
            "shard-0: primary {} -> follower {}\nshard-1: primary {} -> follower {}",
            primary0.addr, follower0.addr, primary1.addr, follower1.addr
        );

        let mut ccfg = ClusterConfig::new(vec![
            ShardSpec {
                name: "shard-0".into(),
                primary_addr: primary0.addr.clone(),
                follower_addr: Some(follower0.addr.clone()),
            },
            ShardSpec {
                name: "shard-1".into(),
                primary_addr: primary1.addr.clone(),
                follower_addr: Some(follower1.addr.clone()),
            },
        ]);
        ccfg.backoff.base = 5;
        ccfg.backoff.cap = 100;
        ccfg.max_attempts = 12;
        let mut router = ClusterClient::connect(ccfg).expect("X13: router");

        let owned0: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&m| router.shard_for(m) == 0)
            .collect();
        let owned1: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&m| router.shard_for(m) == 1)
            .collect();
        assert!(
            !owned0.is_empty() && !owned1.is_empty(),
            "X13: rendezvous must give both shards machines ({owned0:?} / {owned1:?})"
        );
        println!("ownership: shard-0 {owned0:?}, shard-1 {owned1:?}");

        // Phase 1: healthy baseline.
        let before = run_phase(&mut router, &ids, 0, third, batch, query_every, None, &[]);

        // Quiesce shard 0 to the phase boundary: the primary drains its
        // ingest queue and the follower applies up to the primary's log
        // head, so the kill point's acked seq covers everything routed
        // so far and the zero-loss claim is exact, not probabilistic.
        let mut p0 = admin(&primary0.addr);
        wait_caught_up(&mut p0, &owned0, third - 1);
        let mut f0 = admin(&follower0.addr);
        let (head_at_kill, acked_at_kill) = {
            let mut status = None;
            for _ in 0..2_000 {
                let (_, _, head, acked) = repl_status(&mut p0);
                let (_, applied, _, _) = repl_status(&mut f0);
                if head > 0 && applied == head {
                    status = Some((head, acked));
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            status.expect("X13: follower never caught up to the primary's log head")
        };
        drop(p0);

        // The failure: SIGKILL the primary. Nothing else — no Promote
        // frame, no operator. The follower must notice the silence and
        // take over on its own; `failover_promote_ms` is how long the
        // cluster had no shard-0 primary.
        let t_kill = Instant::now();
        primary0.kill();
        let promote_ms = {
            let mut flipped = None;
            for _ in 0..4_000 {
                let (role, _, _, _) = repl_status(&mut f0);
                if role == fgcs_service::ROLE_PRIMARY {
                    flipped = Some(t_kill.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            flipped.expect("X13: follower never self-promoted after the SIGKILL")
        };
        let (_, applied_at_promote, _, _) = repl_status(&mut f0);
        assert!(
            applied_at_promote >= acked_at_kill,
            "X13: promoted follower behind the acked seq ({applied_at_promote} < {acked_at_kill})"
        );
        assert_eq!(
            applied_at_promote, head_at_kill,
            "X13: promoted follower must hold the full acked log"
        );

        // Phase 2: the router discovers the dead endpoint, fails over,
        // and resumes. `gap` = SIGKILL to the first shard-0 ack.
        let during = run_phase(
            &mut router,
            &ids,
            third,
            2 * third,
            batch,
            query_every,
            Some(t_kill),
            &owned0,
        );
        let gap = during.gap.expect("X13: during phase acked a shard-0 batch");

        // Phase 3: steady state on the promoted topology.
        let after = run_phase(
            &mut router,
            &ids,
            2 * third,
            samples,
            batch,
            query_every,
            None,
            &[],
        );

        let m = router.metrics;

        // Converge and compare: every machine's transition records on
        // its owning node must be bit-identical to the reference.
        let mut surv0 = f0;
        wait_caught_up(&mut surv0, &owned0, samples - 1);
        let mut surv1 = admin(&primary1.addr);
        wait_caught_up(&mut surv1, &owned1, samples - 1);
        let mut records_total = 0u64;
        let mut records_lost = 0u64;
        for (owned, client) in [(&owned0, &mut surv0), (&owned1, &mut surv1)] {
            for &machine in owned.iter() {
                let want = transitions_of(&mut ref_client, machine);
                let got = transitions_of(client, machine);
                assert!(!want.is_empty(), "X13: wave must produce transitions");
                records_total += want.len() as u64;
                records_lost += want.iter().filter(|t| !got.contains(t)).count() as u64;
                assert_eq!(
                    want, got,
                    "X13: machine {machine} records diverge from the unkilled reference"
                );
            }
        }
        reference.shutdown();

        let gap_ms = gap.as_secs_f64() * 1e3;
        let (b50, b99) = p50_p99(&before.lat_us);
        let (d50, d99) = p50_p99(&during.lat_us);
        let (a50, a99) = p50_p99(&after.lat_us);
        let rate = |p: &PhaseOutcome| p.samples as f64 / p.elapsed.as_secs_f64().max(1e-9);
        for (name, p, p50, p99) in [
            ("before", &before, b50, b99),
            ("during", &during, d50, d99),
            ("after", &after, a50, a99),
        ] {
            println!(
                "{name:>7}: {:>5} batches ({:>7} samples) in {:>6.3} s -> {:>8.0} samples/s, \
                 query p50 {:>6.0} us  p99 {:>7.0} us",
                p.batches,
                p.samples,
                p.elapsed.as_secs_f64(),
                rate(p),
                p50,
                p99
            );
        }
        println!(
            "failover: self-promotion {promote_ms:.1} ms (SIGKILL -> follower is primary), \
             gap {gap_ms:.1} ms (SIGKILL -> first shard-0 ack), \
             {} retries, {} failovers, {} resumed batches, {} samples deduped on resume, \
             {} follower reads",
            m.retries, m.failovers, m.resumed_batches, m.skipped_samples, m.follower_reads
        );
        println!(
            "records:  {records_total} transitions across {} machines, {records_lost} lost, \
             acked seq at kill {acked_at_kill} (log head {head_at_kill}), \
             promoted follower applied {applied_at_promote}",
            machines
        );

        // results/serve_cluster.csv — failover columns live on the
        // `during` row (zero elsewhere), like the phase they belong to.
        std::fs::create_dir_all("results").expect("mkdir results");
        let row = |phase: &str, p: &PhaseOutcome, p50: f64, p99: f64, failover: bool| {
            format!(
                "{phase},{},{},{:.3},{:.0},{:.0},{:.0},{:.1},{},{},{},{},{},{:.1},{}",
                p.batches,
                p.samples,
                p.elapsed.as_secs_f64(),
                rate(p),
                p50,
                p99,
                if failover { gap_ms } else { 0.0 },
                if failover { records_lost } else { 0 },
                if failover { m.retries } else { 0 },
                if failover { m.failovers } else { 0 },
                if failover { m.resumed_batches } else { 0 },
                if failover { m.skipped_samples } else { 0 },
                if failover { promote_ms } else { 0.0 },
                if failover { m.follower_reads } else { 0 },
            )
        };
        let csv = format!(
            "phase,batches,samples,elapsed_s,samples_per_s,query_p50_us,query_p99_us,\
             gap_ms,records_lost,retries,failovers,resumed_batches,skipped_samples,\
             promote_ms,follower_reads\n{}\n{}\n{}\n",
            row("before", &before, b50, b99, false),
            row("during", &during, d50, d99, true),
            row("after", &after, a50, a99, false),
        );
        std::fs::write("results/serve_cluster.csv", csv).expect("write serve_cluster.csv");
        println!("wrote results/serve_cluster.csv");

        // The flat gate object, checked here and by `fgcs-exp gate`.
        let mut w = ObjWriter::new();
        w.str(
            "description",
            "X13: 2-shard cluster (fgcs-serve primaries + replication followers), \
             SIGKILL shard-0 primary mid-replay with no operator step: the follower \
             detects the dead primary (missed pulls + expired lease) and self-promotes \
             at a fresh epoch; router fails over with capped-jittered retries and \
             t > last_t resume, reads served from follower endpoints; phases are \
             routed replay thirds before/during/after the kill",
        )
        .str(
            "command",
            "cargo run --release -p fgcs-experiments --bin fgcs-cluster",
        )
        .u64("machines", machines as u64)
        .u64("samples_per_machine", samples)
        .f64("failover_promote_ms", promote_ms)
        .f64("failover_gap_ms", gap_ms)
        .u64("failover_records_lost", records_lost)
        .u64("failover_records_total", records_total)
        .u64("failover_acked_seq_at_kill", acked_at_kill)
        .u64("failover_applied_seq_at_promote", applied_at_promote)
        .u64("failover_retries", m.retries)
        .u64("failover_count", m.failovers)
        .u64("failover_resumed_batches", m.resumed_batches)
        .u64("failover_skipped_samples", m.skipped_samples)
        .u64("follower_reads", m.follower_reads)
        .f64("before_query_p99_us", b99)
        .f64("during_query_p99_us", d99)
        .f64("after_query_p99_us", a99)
        .f64("before_samples_per_sec", rate(&before))
        .f64("during_samples_per_sec", rate(&during))
        .f64("after_samples_per_sec", rate(&after));
        let gate = w.finish();
        claims::assert_claim("X13", &gate, claims::check_x13_cluster);
        claims::splice_bench("cluster", &gate);

        follower1.shutdown();
        primary1.shutdown();
        // The promoted follower is shut down last: `surv0` still holds
        // a connection, which the graceful path happily drains.
        drop(surv0);
        drop(surv1);
        follower0.shutdown();
        println!("\n[X13 done: 0/{records_total} records lost, gap {gap_ms:.1} ms]");
    }
}

#[cfg(target_os = "linux")]
fn main() {
    imp::main();
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("fgcs-cluster: the cluster experiment needs the Linux socket layer");
    std::process::exit(2);
}
