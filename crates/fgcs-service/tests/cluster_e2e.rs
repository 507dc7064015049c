//! Replicated cluster mode, end to end: follower seq-log streaming,
//! promotion, follower crash-restart resubscription, and kill-primary
//! failover through the routing client.
//!
//! The contract under test (DESIGN.md §13): a follower pulling the
//! primary's replication log rebuilds **bit-identical** state (the
//! entries carry the raw ingested batches and ingest is deterministic);
//! a follower restarted mid-stream resubscribes from the replication
//! cursor its snapshot restored — never from scratch, never skipping —
//! and still converges bit-identically; and killing the primary under
//! live load, promoting the follower, and failing the router over loses
//! zero records: the cluster's final state matches an unkilled
//! single-server reference on the same trace, record for record.

#![cfg(target_os = "linux")]

use fgcs_core::backoff::BackoffPolicy;
use fgcs_service::cluster::{ClusterClient, ClusterConfig, ShardSpec};
use fgcs_service::loadgen::wave_sample;
use fgcs_service::{
    ClientConfig, Server, ServiceClient, ServiceConfig, ROLE_FOLLOWER, ROLE_PRIMARY,
};
use fgcs_wire::{Frame, WireSample};

const MACHINES: u32 = 3;
const SAMPLES: u64 = 400;

fn connect(addr: &str) -> ServiceClient {
    let mut cfg = ClientConfig::new(addr);
    cfg.backoff_unit_ms = 1;
    ServiceClient::connect(cfg).expect("client connects")
}

fn primary_config() -> ServiceConfig {
    ServiceConfig {
        repl_log_capacity: 4096,
        ..Default::default()
    }
}

fn follower_config(primary_addr: &str) -> ServiceConfig {
    ServiceConfig {
        follower_of: Some(primary_addr.to_string()),
        pull_interval_ms: 1,
        ..Default::default()
    }
}

/// Streams wave samples `range` for every machine directly to `client`.
fn stream_wave(client: &mut ServiceClient, range: std::ops::Range<u64>) {
    for machine in 1..=MACHINES {
        let todo: Vec<WireSample> = range.clone().map(|i| wave_sample(machine, i)).collect();
        for chunk in todo.chunks(50) {
            let reply = client
                .request(&Frame::SampleBatch {
                    machine,
                    samples: chunk.to_vec(),
                })
                .expect("batch sent");
            assert!(matches!(reply, Frame::Ack { .. }), "tag {}", reply.tag());
        }
    }
}

/// Polls `Stats` until every machine's pipeline on `client`'s server
/// has consumed its sample at `final_i`.
fn wait_caught_up(client: &mut ServiceClient, final_i: u64) {
    let final_t = final_i * 15;
    for _ in 0..1_000 {
        let Frame::StatsReply(stats) = client.request(&Frame::QueryStats).unwrap() else {
            panic!("stats reply expected")
        };
        let done = (1..=MACHINES).all(|m| {
            stats
                .machines
                .iter()
                .any(|s| s.machine == m && s.last_t >= final_t)
        });
        if done && stats.queue_depth == 0 {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("server did not catch up to sample {final_i}");
}

fn repl_status(client: &mut ServiceClient) -> (u8, u64, u64) {
    match client.request(&Frame::ReplStatus).unwrap() {
        Frame::ReplStatusReply {
            role,
            applied_seq,
            acked_seq,
            ..
        } => (role, applied_seq, acked_seq),
        other => panic!("repl status reply expected, got tag {}", other.tag()),
    }
}

/// Asserts every machine's records and transitions are identical
/// between two servers.
fn assert_bit_identical(a: &Server, b: &Server, what: &str) {
    for m in 1..=MACHINES {
        assert_eq!(
            a.records(m).expect("a streamed"),
            b.records(m).expect("b streamed"),
            "{what}: machine {m} occurrence records diverge"
        );
        assert_eq!(
            a.transitions(m).expect("a streamed"),
            b.transitions(m).expect("b streamed"),
            "{what}: machine {m} transition log diverges"
        );
    }
}

fn snap_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fgcs-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A follower streaming the primary's seq log converges to the same
/// state bit for bit, and promotion turns it into a primary that
/// accepts ingest.
#[test]
fn follower_converges_bit_identical_and_promotes() {
    let primary = Server::start(primary_config()).expect("primary");
    let follower =
        Server::start(follower_config(&primary.local_addr().to_string())).expect("follower");

    let mut to_primary = connect(&primary.local_addr().to_string());
    stream_wave(&mut to_primary, 0..SAMPLES);
    wait_caught_up(&mut to_primary, SAMPLES - 1);

    let mut to_follower = connect(&follower.local_addr().to_string());
    wait_caught_up(&mut to_follower, SAMPLES - 1);
    assert_bit_identical(&primary, &follower, "replicated catch-up");
    assert!(!follower.repl_failed(), "no divergence tripwire fired");

    // The follower applied everything the primary logged, and the
    // primary saw the acks come back (acks ride the pull requests, so
    // the last ack can lag one pull interval).
    let (role, applied, _) = repl_status(&mut to_follower);
    assert_eq!(role, ROLE_FOLLOWER);
    assert_eq!(applied, primary.repl_seq(), "follower applied the full log");
    for _ in 0..200 {
        if primary.repl_acked_seq() == primary.repl_seq() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(primary.repl_acked_seq(), primary.repl_seq());

    // A follower refuses ingest with the typed routing signal…
    let reply = to_follower
        .request(&Frame::SampleBatch {
            machine: 1,
            samples: vec![wave_sample(1, SAMPLES)],
        })
        .unwrap();
    assert!(
        matches!(reply, Frame::Error { code, .. } if code == fgcs_wire::ErrorCode::NotPrimary),
        "follower must reject ingest: {reply:?}"
    );

    // …until promoted, after which it ingests like any primary.
    let promoted = to_follower.request(&Frame::Promote).unwrap();
    assert!(matches!(promoted, Frame::Ack { .. }));
    let (role, _, _) = repl_status(&mut to_follower);
    assert_eq!(role, ROLE_PRIMARY);
    let reply = to_follower
        .request(&Frame::SampleBatch {
            machine: 1,
            samples: vec![wave_sample(1, SAMPLES)],
        })
        .unwrap();
    assert!(matches!(reply, Frame::Ack { .. }), "promoted node ingests");

    primary.shutdown();
    follower.shutdown();
}

/// A follower stopped mid-stream restarts from its snapshot, carries a
/// positive replication cursor in that snapshot, resubscribes from it,
/// and converges bit-identically — the crash-recovery path composed
/// with replication.
#[test]
fn follower_restart_resubscribes_from_snapshot_cursor() {
    let dir = snap_dir("resub");
    let primary = Server::start(primary_config()).expect("primary");
    let mut follower_cfg = follower_config(&primary.local_addr().to_string());
    follower_cfg.snapshot_dir = Some(dir.to_string_lossy().into_owned());
    follower_cfg.snapshot_interval_ms = 60_000; // the final checkpoint is the one that matters

    let follower = Server::start(follower_cfg.clone()).expect("follower, first life");
    let mut to_primary = connect(&primary.local_addr().to_string());
    stream_wave(&mut to_primary, 0..SAMPLES / 2);
    wait_caught_up(&mut to_primary, SAMPLES / 2 - 1);
    let mut to_follower = connect(&follower.local_addr().to_string());
    wait_caught_up(&mut to_follower, SAMPLES / 2 - 1);
    // Graceful stop writes the final checkpoint with the follower's
    // replication cursor in the header.
    follower.shutdown();

    let floor_in_snapshot = std::fs::read_dir(&dir)
        .expect("snapshot dir exists")
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path()).ok())
        .filter_map(|body| {
            let (_, tail) = body.split_once("\"repl_seq\":")?;
            tail.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse::<u64>()
                .ok()
        })
        .max()
        .expect("a snapshot carrying repl_seq");
    assert!(
        floor_in_snapshot > 0,
        "the snapshot must persist a positive replication cursor"
    );

    // The primary keeps moving while the follower is down.
    stream_wave(&mut to_primary, SAMPLES / 2..SAMPLES);
    wait_caught_up(&mut to_primary, SAMPLES - 1);

    // Second life: restore, resubscribe from the restored cursor, and
    // converge on the full wave.
    let follower = Server::start(follower_cfg).expect("follower, second life");
    let mut to_follower = connect(&follower.local_addr().to_string());
    wait_caught_up(&mut to_follower, SAMPLES - 1);
    assert_bit_identical(&primary, &follower, "restart + resubscribe");
    assert!(!follower.repl_failed());
    let (_, applied, _) = repl_status(&mut to_follower);
    assert_eq!(applied, primary.repl_seq());

    primary.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance scenario: kill the primary mid-replay under the
/// router, promote its follower, fail the router over — zero records
/// lost, final state bit-identical to an unkilled single-server
/// reference on the same trace.
#[test]
fn kill_primary_promote_follower_router_loses_nothing() {
    // Unkilled reference.
    let reference = Server::start(ServiceConfig::default()).expect("reference");
    let mut to_reference = connect(&reference.local_addr().to_string());
    stream_wave(&mut to_reference, 0..SAMPLES);
    wait_caught_up(&mut to_reference, SAMPLES - 1);

    // The replicated shard.
    let primary = Server::start(primary_config()).expect("primary");
    let follower =
        Server::start(follower_config(&primary.local_addr().to_string())).expect("follower");
    let mut cfg = ClusterConfig::new(vec![ShardSpec {
        name: "shard-0".into(),
        primary_addr: primary.local_addr().to_string(),
        follower_addr: Some(follower.local_addr().to_string()),
    }]);
    cfg.backoff = BackoffPolicy { base: 2, cap: 20 };
    cfg.max_attempts = 12;
    let mut router = ClusterClient::connect(cfg).expect("router");

    // First half of the wave through the router.
    for machine in 1..=MACHINES {
        let first: Vec<WireSample> = (0..SAMPLES / 2).map(|i| wave_sample(machine, i)).collect();
        for chunk in first.chunks(50) {
            let reply = router.ingest(machine, chunk.to_vec()).expect("ingest");
            assert!(matches!(reply, Frame::Ack { .. }));
        }
    }
    // Let the follower ack everything the primary logged, so the kill
    // provably loses nothing up to the acked seq.
    let mut to_follower = connect(&follower.local_addr().to_string());
    wait_caught_up(&mut to_follower, SAMPLES / 2 - 1);
    let acked_at_kill = primary.repl_acked_seq();
    let head_at_kill = primary.repl_seq();

    // Kill the primary, promote the follower.
    primary.shutdown();
    let promoted = to_follower.request(&Frame::Promote).unwrap();
    assert!(matches!(promoted, Frame::Ack { .. }));

    // Nothing acked was lost: the promoted follower applied at least
    // everything the primary had acknowledged back to it.
    let (role, applied, _) = repl_status(&mut to_follower);
    assert_eq!(role, ROLE_PRIMARY);
    assert!(
        applied >= acked_at_kill,
        "promoted follower applied {applied}, primary had acked {acked_at_kill}"
    );
    assert_eq!(
        applied, head_at_kill,
        "the follower was fully caught up at the kill"
    );

    // Second half through the router: the cached route points at the
    // dead primary, so the first request fails over (and the ingest
    // path resumes strictly after the follower's per-machine last_t —
    // retried batches never double-count).
    for machine in 1..=MACHINES {
        let second: Vec<WireSample> = (SAMPLES / 2..SAMPLES)
            .map(|i| wave_sample(machine, i))
            .collect();
        for chunk in second.chunks(50) {
            let reply = router
                .ingest(machine, chunk.to_vec())
                .expect("ingest after kill");
            assert!(matches!(reply, Frame::Ack { .. }));
        }
    }
    assert!(
        router.metrics.failovers >= 1,
        "the router flipped to the promoted follower: {:?}",
        router.metrics
    );

    wait_caught_up(&mut to_follower, SAMPLES - 1);
    assert_bit_identical(&reference, &follower, "failover");
    follower.shutdown();
    reference.shutdown();
}

/// A chained deployment — primary → mid → leaf, each pulling from the
/// node above — converges bit-identically at depth 2. The mid node
/// serves `ReplPull` from the log it mirrors (`append_remote` retains
/// entries precisely so a follower can feed its own follower), so the
/// leaf never talks to the primary at all.
#[test]
fn follower_chain_depth_two_converges_bit_identical() {
    let primary = Server::start(primary_config()).expect("primary");
    let mid = Server::start(follower_config(&primary.local_addr().to_string())).expect("mid");
    let leaf = Server::start(follower_config(&mid.local_addr().to_string())).expect("leaf");

    let mut to_primary = connect(&primary.local_addr().to_string());
    let mut to_mid = connect(&mid.local_addr().to_string());
    let mut to_leaf = connect(&leaf.local_addr().to_string());

    // Two pushes with a convergence wait between them, so the second
    // half exercises steady-state relay (mid already caught up), not
    // just one bulk catch-up.
    for range in [0..SAMPLES / 2, SAMPLES / 2..SAMPLES] {
        stream_wave(&mut to_primary, range.clone());
        wait_caught_up(&mut to_primary, range.end - 1);
        wait_caught_up(&mut to_mid, range.end - 1);
        wait_caught_up(&mut to_leaf, range.end - 1);
    }

    assert_bit_identical(&primary, &mid, "depth 1 of the chain");
    assert_bit_identical(&primary, &leaf, "depth 2 of the chain");
    assert!(!mid.repl_failed(), "mid tripped divergence");
    assert!(!leaf.repl_failed(), "leaf tripped divergence");

    // The seq log relays verbatim: every hop holds the same head.
    let (role, applied, _) = repl_status(&mut to_leaf);
    assert_eq!(role, ROLE_FOLLOWER);
    assert_eq!(applied, primary.repl_seq(), "leaf applied the full log");
    let (_, mid_applied, _) = repl_status(&mut to_mid);
    assert_eq!(mid_applied, primary.repl_seq());

    primary.shutdown();
    mid.shutdown();
    leaf.shutdown();
}

/// `NotPrimary` is a routing signal from a live node, not a fault: the
/// router's first flip must retry immediately instead of burning a
/// backoff step. With a 2 s backoff base, any sleep would blow the
/// elapsed budget — a router booted with a stale shard view (follower
/// listed as primary) must stream at full speed from request one, and
/// a mid-stream kill + promotion must heal through the normal
/// (slept) transport path without miscounting the instant reroutes.
#[test]
fn not_primary_reroute_skips_the_backoff_sleep() {
    let primary = Server::start(primary_config()).expect("primary");
    let follower =
        Server::start(follower_config(&primary.local_addr().to_string())).expect("follower");

    // Stale shard view: the follower is listed as the primary.
    let mut cfg = ClusterConfig::new(vec![ShardSpec {
        name: "shard-0".into(),
        primary_addr: follower.local_addr().to_string(),
        follower_addr: Some(primary.local_addr().to_string()),
    }]);
    cfg.backoff = BackoffPolicy {
        base: 2_000,
        cap: 2_000,
    };
    cfg.max_attempts = 4;
    let mut router = ClusterClient::connect(cfg).expect("router");

    let t0 = std::time::Instant::now();
    for machine in 1..=MACHINES {
        let first: Vec<WireSample> = (0..SAMPLES / 2).map(|i| wave_sample(machine, i)).collect();
        for chunk in first.chunks(50) {
            let reply = router.ingest(machine, chunk.to_vec()).expect("ingest");
            assert!(matches!(reply, Frame::Ack { .. }));
        }
    }
    // A jittered backoff step is at least base/2 = 1 s; staying under
    // that proves the reroute never slept.
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(1_000),
        "wrong-primary ingest burned a backoff step: {:?} elapsed, {:?}",
        t0.elapsed(),
        router.metrics
    );
    assert_eq!(
        (router.metrics.instant_reroutes, router.metrics.failovers),
        (1, 1),
        "exactly one instant flip to the real primary: {:?}",
        router.metrics
    );

    // Mid-stream promotion: the cached route now points at the real
    // primary; kill it and promote the follower. The next ingest heals
    // over the *transport* path, which must still back off (and must
    // not count as an instant reroute).
    let mut to_follower = connect(&follower.local_addr().to_string());
    wait_caught_up(&mut to_follower, SAMPLES / 2 - 1);
    primary.shutdown();
    let promoted = to_follower.request(&Frame::Promote).unwrap();
    assert!(matches!(promoted, Frame::Ack { .. }));

    for machine in 1..=MACHINES {
        let second: Vec<WireSample> = (SAMPLES / 2..SAMPLES)
            .map(|i| wave_sample(machine, i))
            .collect();
        for chunk in second.chunks(50) {
            let reply = router
                .ingest(machine, chunk.to_vec())
                .expect("ingest after kill + promotion");
            assert!(matches!(reply, Frame::Ack { .. }));
        }
    }
    assert!(
        router.metrics.failovers >= 2,
        "the transport fault flipped the route back: {:?}",
        router.metrics
    );
    assert_eq!(
        router.metrics.instant_reroutes, 1,
        "transport bounces must not skip the sleep: {:?}",
        router.metrics
    );
    wait_caught_up(&mut to_follower, SAMPLES - 1);
    follower.shutdown();
}

/// The tentpole of automatic failover (DESIGN.md §13.5): a follower
/// started with `auto_promote` detects its primary's death through the
/// pull loop alone — consecutive missed pulls plus an expired lease —
/// and self-promotes with **no operator frame**, at a strictly higher
/// epoch, having applied everything the primary logged.
#[test]
fn auto_promotion_follower_takes_over_without_an_operator() {
    let mut pcfg = primary_config();
    pcfg.lease_ms = 150;
    let primary = Server::start(pcfg).expect("primary");
    let mut fcfg = follower_config(&primary.local_addr().to_string());
    fcfg.auto_promote = true;
    fcfg.lease_ms = 150;
    fcfg.missed_pull_threshold = 2;
    let follower = Server::start(fcfg).expect("follower");

    let mut to_primary = connect(&primary.local_addr().to_string());
    stream_wave(&mut to_primary, 0..SAMPLES / 2);
    wait_caught_up(&mut to_primary, SAMPLES / 2 - 1);
    let mut to_follower = connect(&follower.local_addr().to_string());
    wait_caught_up(&mut to_follower, SAMPLES / 2 - 1);
    let head_at_kill = primary.repl_seq();
    assert_eq!(follower.epoch(), 1, "everyone is born at epoch 1");

    primary.shutdown();

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while follower.role() != ROLE_PRIMARY {
        assert!(
            std::time::Instant::now() < deadline,
            "follower never self-promoted after the primary died"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(follower.epoch(), 2, "promotion allocates a fresh epoch");
    let (role, applied, _) = repl_status(&mut to_follower);
    assert_eq!(role, ROLE_PRIMARY);
    assert_eq!(
        applied, head_at_kill,
        "the promoted follower applied the full log before taking over"
    );
    let reply = to_follower
        .request(&Frame::SampleBatch {
            machine: 1,
            samples: vec![wave_sample(1, SAMPLES / 2)],
        })
        .unwrap();
    assert!(
        matches!(reply, Frame::Ack { .. }),
        "self-promoted node ingests: {reply:?}"
    );
    follower.shutdown();
}

/// Fencing: a `ReplPull` carrying a strictly higher epoch demotes a
/// node that still believes it is the primary (it paused through a
/// failover, say), and the `NotPrimary` reply is the fencer's
/// confirmation. An equal epoch never fences — that is every routine
/// pull.
#[test]
fn a_pull_with_a_higher_epoch_fences_the_primary() {
    let primary = Server::start(primary_config()).expect("primary");
    let mut c = connect(&primary.local_addr().to_string());

    let fenced = c
        .request(&Frame::ReplPull {
            after_seq: 0,
            max_entries: 0,
            epoch: 7,
        })
        .unwrap();
    assert!(
        matches!(
            fenced,
            Frame::Error { code, .. } if code == fgcs_wire::ErrorCode::NotPrimary
        ),
        "a superseding epoch must demote and reject: {fenced:?}"
    );
    assert_eq!(primary.role(), ROLE_FOLLOWER, "the node demoted itself");
    assert_eq!(primary.epoch(), 7, "and adopted the superseding epoch");

    let reply = c
        .request(&Frame::SampleBatch {
            machine: 1,
            samples: vec![wave_sample(1, 0)],
        })
        .unwrap();
    assert!(
        matches!(reply, Frame::Error { code, .. } if code == fgcs_wire::ErrorCode::NotPrimary),
        "a fenced node must reject ingest: {reply:?}"
    );

    // Same epoch again: a routine pull, served normally.
    let reply = c
        .request(&Frame::ReplPull {
            after_seq: 0,
            max_entries: 10,
            epoch: 7,
        })
        .unwrap();
    assert!(
        matches!(reply, Frame::ReplEntries { .. }),
        "an equal epoch never fences: {reply:?}"
    );
    primary.shutdown();
}

/// The follower-read staleness bound: a bounded follower that has
/// never completed a pull answers `TooStale`, a caught-up one answers
/// reads, and the router prefers the replica (counting
/// `follower_reads`) while writes keep going to the primary.
#[test]
fn bounded_follower_reads_answer_fresh_and_reject_stale() {
    // Stale: bounded, upstream dead, never pulled.
    let mut orphan_cfg = follower_config("127.0.0.1:1");
    orphan_cfg.max_read_lag = Some(10);
    let orphan = Server::start(orphan_cfg).expect("orphan follower");
    let mut to_orphan = connect(&orphan.local_addr().to_string());
    for frame in [
        Frame::QueryAvail {
            machine: 1,
            horizon: 60,
        },
        Frame::Place { job_len: 60 },
        Frame::QueryStats,
    ] {
        let reply = to_orphan.request(&frame).unwrap();
        assert!(
            matches!(
                reply,
                Frame::Error { code, .. } if code == fgcs_wire::ErrorCode::TooStale
            ),
            "unknown staleness must gate reads: {reply:?}"
        );
    }
    orphan.shutdown();

    // Fresh: caught up within the bound, read through the router.
    let primary = Server::start(primary_config()).expect("primary");
    let mut fcfg = follower_config(&primary.local_addr().to_string());
    fcfg.max_read_lag = Some(1_000_000);
    let follower = Server::start(fcfg).expect("follower");
    let mut to_primary = connect(&primary.local_addr().to_string());
    stream_wave(&mut to_primary, 0..SAMPLES / 2);
    wait_caught_up(&mut to_primary, SAMPLES / 2 - 1);
    let mut to_follower = connect(&follower.local_addr().to_string());
    wait_caught_up(&mut to_follower, SAMPLES / 2 - 1);

    let cfg = ClusterConfig::new(vec![ShardSpec {
        name: "shard-0".into(),
        primary_addr: primary.local_addr().to_string(),
        follower_addr: Some(follower.local_addr().to_string()),
    }]);
    let mut router = ClusterClient::connect(cfg).expect("router");
    let avail = router.query_avail(1, 60).expect("follower-served read");
    assert!(matches!(avail, Frame::AvailReply { .. }), "{avail:?}");
    let placed = router.place_on(0, 60).expect("follower-served placement");
    assert!(matches!(placed, Frame::PlaceReply { .. }), "{placed:?}");
    let stats = router.read_stats_of(0).expect("follower-served stats");
    assert!(stats.machines.iter().any(|m| m.machine == 1));
    assert_eq!(
        router.metrics.follower_reads, 3,
        "all three reads came off the replica: {:?}",
        router.metrics
    );
    assert_eq!(router.metrics.failovers, 0, "no write-route flips");

    primary.shutdown();
    follower.shutdown();
}

/// The split-brain tie-break the ingest resume leans on: when *both*
/// endpoints claim the primary role — a revived old primary at epoch 1
/// next to the promoted follower at epoch 2 — `aim_at_primary` must
/// pick the higher epoch, never the revenant, so the resume's `last_t`
/// floor always comes from the node that actually owns the shard.
#[test]
fn aim_at_primary_prefers_the_higher_epoch_over_a_revenant() {
    // The "old primary": a plain primary, epoch 1.
    let revenant = Server::start(primary_config()).expect("revenant");
    // The "promoted follower": promoted out of follower mode, epoch 2.
    let mut fcfg = follower_config("127.0.0.1:1");
    fcfg.repl_log_capacity = 4096;
    let promoted = Server::start(fcfg).expect("promoted");
    promoted.promote();
    assert_eq!(promoted.epoch(), 2);
    assert_eq!(revenant.epoch(), 1);

    let mut cfg = ClusterConfig::new(vec![ShardSpec {
        name: "shard-0".into(),
        primary_addr: revenant.local_addr().to_string(),
        follower_addr: Some(promoted.local_addr().to_string()),
    }]);
    cfg.backoff = BackoffPolicy { base: 1, cap: 4 };
    let mut router = ClusterClient::connect(cfg).expect("router");

    // The route starts on the listed primary — the revenant.
    assert_eq!(router.endpoint_of(0), revenant.local_addr().to_string());
    router.aim_at_primary(0);
    assert_eq!(
        router.endpoint_of(0),
        promoted.local_addr().to_string(),
        "two primaries: the higher epoch must win"
    );
    // Idempotent once aimed.
    router.aim_at_primary(0);
    assert_eq!(router.endpoint_of(0), promoted.local_addr().to_string());

    // And the aimed route is where ingest lands. The ack means
    // *enqueued* — poll for the apply before judging who got the data.
    let reply = router.ingest(1, vec![wave_sample(1, 0)]).expect("ingest");
    assert!(matches!(reply, Frame::Ack { .. }));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while promoted.records(1).is_none() {
        assert!(
            std::time::Instant::now() < deadline,
            "the true primary never got the data"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(revenant.records(1).is_none(), "the revenant got nothing");

    revenant.shutdown();
    promoted.shutdown();
}

/// When *both* endpoints answer `NotPrimary` (a promotion that never
/// lands), only the first flip is instant — the rest back off, so two
/// followers can never trap the router in a hot ping-pong loop.
#[test]
fn repeated_not_primary_backs_off_after_the_first_flip() {
    let primary = Server::start(primary_config()).expect("primary");
    let f1 = Server::start(follower_config(&primary.local_addr().to_string())).expect("f1");
    let f2 = Server::start(follower_config(&primary.local_addr().to_string())).expect("f2");

    let mut cfg = ClusterConfig::new(vec![ShardSpec {
        name: "shard-0".into(),
        primary_addr: f1.local_addr().to_string(),
        follower_addr: Some(f2.local_addr().to_string()),
    }]);
    cfg.backoff = BackoffPolicy { base: 2, cap: 8 };
    cfg.max_attempts = 3;
    let mut router = ClusterClient::connect(cfg).expect("router");

    let err = router
        .ingest(1, vec![wave_sample(1, 0)])
        .expect_err("two followers can never accept ingest");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    assert_eq!(
        router.metrics.instant_reroutes, 1,
        "only the first consecutive NotPrimary skips the sleep: {:?}",
        router.metrics
    );

    primary.shutdown();
    f1.shutdown();
    f2.shutdown();
}
