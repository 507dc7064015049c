//! Crash-safe snapshot/restore, end to end: graceful restarts, a real
//! SIGKILL mid-replay, and transition-seq continuity across restores.
//!
//! The recovery contract under test: a restarted server restores the
//! newest usable snapshot, clients learn how far each machine got from
//! `QueryStats` (per-machine `last_t`) and resend only samples
//! *strictly after* that, and the resulting occurrence records and
//! transition logs are **bit-identical** to an uninterrupted run.
#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use fgcs_service::loadgen::Source;
use fgcs_service::{
    run_loadgen, ClientConfig, LoadGenConfig, Server, ServiceClient, ServiceConfig,
};
use fgcs_testbed::TraceRecord;
use fgcs_wire::{Frame, StatsPayload, WireTransition};

const MACHINES: u32 = 4;
const SAMPLES: u64 = 400;
/// The token the SIGKILL test's `fgcs-serve` is started with.
const TOKEN: &str = "snapshot-e2e-token";

fn connect(addr: &str, token: Option<&str>) -> ServiceClient {
    let mut cfg = ClientConfig::new(addr);
    cfg.backoff_unit_ms = 1;
    cfg.token = token.map(str::to_string);
    ServiceClient::connect(cfg).expect("client connects")
}

fn stats(client: &mut ServiceClient) -> StatsPayload {
    let Frame::StatsReply(stats) = client.request(&Frame::QueryStats).unwrap() else {
        panic!("stats reply expected")
    };
    stats
}

/// Replays wave samples `0..samples` of every machine through the load
/// driver over `conns` connections (machine `m` on connection
/// `m % conns`, so each machine's stream stays in order), then waits
/// until the server has consumed them. With `resume` set, each machine
/// resumes strictly after the `last_t` the server reports in
/// `QueryStats`: the client side of restart recovery.
fn replay(addr: &str, token: Option<&str>, conns: usize, samples: u64, resume: bool) {
    let mut client = connect(addr, token);
    let mut resume_after = BTreeMap::new();
    if resume {
        for m in stats(&mut client).machines {
            resume_after.insert(m.machine, m.last_t);
        }
    }
    let mut lg = LoadGenConfig::new(Source::Wave {
        machines: MACHINES,
        samples,
        resume_after,
    });
    lg.conns = conns;
    lg.batch_size = 50;
    lg.token = token.map(str::to_string);
    let r = run_loadgen(addr, &lg).expect("load driver runs");
    assert!(
        r.conns_sustained == conns && r.acks == r.batches_sent,
        "every batch acked on a sustained connection: {r:?}"
    );
    wait_caught_up(&mut client, samples - 1);
}

/// Polls `Stats` until every machine's pipeline has consumed its sample
/// at `final_i` (ingest is asynchronous).
fn wait_caught_up(client: &mut ServiceClient, final_i: u64) {
    let final_t = final_i * 15;
    for _ in 0..600 {
        let stats = stats(client);
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

/// The deterministic payload of the newest snapshot in `dir`: its
/// machine, record and transition lines. The header and counters lines
/// legitimately differ between runs (elapsed time, batch boundaries
/// after a resume).
fn final_snapshot_lines(dir: &Path) -> Vec<String> {
    let newest = std::fs::read_dir(dir)
        .expect("snapshot dir exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .max()
        .expect("a snapshot was written");
    std::fs::read_to_string(newest)
        .expect("snapshot reads")
        .lines()
        .filter(|l| {
            ["machine", "record", "transition"]
                .iter()
                .any(|kind| l.starts_with(&format!("{{\"kind\":\"{kind}\"")))
        })
        .map(str::to_string)
        .collect()
}

struct Reference {
    records: Vec<Vec<TraceRecord>>,
    transitions: Vec<Vec<WireTransition>>,
    snapshot: Vec<String>,
}

/// The uninterrupted reference: the full wave through one life of a
/// one-loop server, and the final snapshot its graceful shutdown cuts.
fn reference_run(tag: &str) -> Reference {
    let dir = snap_dir(&format!("reference-{tag}"));
    let server = Server::start(ServiceConfig {
        event_loops: 1,
        snapshot_dir: Some(dir.to_string_lossy().into_owned()),
        snapshot_interval_ms: 60_000,
        ..Default::default()
    })
    .expect("reference server");
    replay(&server.local_addr().to_string(), None, 1, SAMPLES, false);
    let records = (1..=MACHINES)
        .map(|m| server.records(m).expect("machine streamed"))
        .collect();
    let transitions = (1..=MACHINES)
        .map(|m| server.transitions(m).expect("machine streamed"))
        .collect();
    server.shutdown();
    let snapshot = final_snapshot_lines(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    Reference {
        records,
        transitions,
        snapshot,
    }
}

fn snap_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgcs-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts that `server` holds the reference's records and transition
/// log for every machine.
fn assert_matches_reference(server: &Server, reference: &Reference, what: &str) {
    for m in 1..=MACHINES {
        let idx = (m - 1) as usize;
        assert_eq!(
            server.records(m).expect("machine restored"),
            reference.records[idx],
            "{what}: records bit-identical to the uninterrupted run, machine {m}"
        );
        assert_eq!(
            server.transitions(m).expect("machine restored"),
            reference.transitions[idx],
            "{what}: transition log identical (seqs continue, no restart at 1), machine {m}"
        );
    }
}

/// Graceful restart: stop mid-replay (final checkpoint), start a fresh
/// server process-state on the same snapshot dir, resume, and end up
/// bit-identical to an uninterrupted run on one event loop — the
/// reference never restarts and never forwards, so a multi-loop restart
/// variant cannot drift from the plain path unnoticed.
fn graceful_restart_is_bit_identical(tag: &str, mut svc: ServiceConfig) {
    let reference = reference_run(&format!("graceful-{tag}"));
    let dir = snap_dir(&format!("graceful-{tag}"));
    svc.snapshot_dir = Some(dir.to_string_lossy().into_owned());
    svc.snapshot_interval_ms = 60_000; // periodic writes irrelevant here

    // First life: half the wave, then a graceful shutdown (which takes
    // the final checkpoint after draining).
    let first = Server::start(svc.clone()).expect("first life");
    replay(&first.local_addr().to_string(), None, 1, SAMPLES / 2, false);
    first.shutdown();

    // Second life: restores the snapshot; the client resumes strictly
    // after each machine's restored last_t.
    let second = Server::start(svc).expect("second life");
    replay(&second.local_addr().to_string(), None, 1, SAMPLES, true);
    assert_matches_reference(&second, &reference, tag);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_restart_is_bit_identical_one_loop() {
    graceful_restart_is_bit_identical(
        "loops-1",
        ServiceConfig {
            event_loops: 1,
            ..Default::default()
        },
    );
}

#[test]
fn graceful_restart_is_bit_identical_multiloop() {
    graceful_restart_is_bit_identical(
        "loops-4",
        ServiceConfig {
            event_loops: 4,
            ..Default::default()
        },
    );
}

fn transitions_since(client: &mut ServiceClient, since_seq: u64) -> Vec<WireTransition> {
    let Frame::Transitions { transitions, .. } = client
        .request(&Frame::QueryTransitions {
            machine: 1,
            since_seq,
            max: 1000,
        })
        .unwrap()
    else {
        panic!("transitions reply expected")
    };
    transitions
}

/// Transition seqs must keep climbing across a restore: a client that
/// followed the log with `QueryTransitions { since_seq }` before the
/// restart must be able to keep following it after, without collisions
/// or replays of seqs it already consumed.
#[test]
fn transition_seqs_survive_restart_without_collision() {
    let dir = snap_dir("seqs");
    let svc = ServiceConfig {
        snapshot_dir: Some(dir.to_string_lossy().into_owned()),
        snapshot_interval_ms: 60_000,
        ..Default::default()
    };

    let first = Server::start(svc.clone()).expect("first life");
    let addr = first.local_addr().to_string();
    replay(&addr, None, 1, SAMPLES / 2, false);
    let before = transitions_since(&mut connect(&addr, None), 1);
    assert!(!before.is_empty(), "first life produced transitions");
    let consumed = before.last().unwrap().seq;
    first.shutdown();

    let second = Server::start(svc).expect("second life");
    let addr = second.local_addr().to_string();
    replay(&addr, None, 1, SAMPLES, true);
    // Catch up from the last consumed seq, exactly as a live follower
    // would: everything new is strictly beyond it.
    let after = transitions_since(&mut connect(&addr, None), consumed + 1);
    assert!(
        !after.is_empty(),
        "second half of the wave produced transitions"
    );
    assert!(
        after.iter().all(|t| t.seq > consumed),
        "no seq collision with what was consumed before the restart"
    );
    let full: Vec<u64> = before.iter().chain(&after).map(|t| t.seq).collect();
    assert!(
        full.windows(2).all(|w| w[1] > w[0]),
        "the stitched log is strictly increasing: {full:?}"
    );
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns the real `fgcs-serve` binary with snapshots on (plus any
/// `extra` flags, e.g. `--loops 4`), returning the
/// child and its bound address (parsed from the `listening on` line).
fn spawn_serve(dir: &Path, interval_ms: u64, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fgcs-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--snapshot-dir",
            &dir.to_string_lossy(),
            "--snapshot-interval",
            &interval_ms.to_string(),
        ])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("fgcs-serve spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("reads the listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("listening line")
        .to_string();
    (child, addr)
}

/// The crash test proper: SIGKILL the token-gated serve binary
/// mid-replay, restart on the same snapshot dir, resume from `Stats`,
/// and compare against an uninterrupted run — bit-identical records and
/// transitions, and the same machine, record and transition lines in
/// the final snapshot. The kill lands *between* ingest and checkpoint
/// at an arbitrary point; any samples past the last snapshot are simply
/// re-ingested by the resume protocol without seq collisions.
///
/// Both lives run `loops` event loops and are fed over `loops`
/// connections, so with four, ingest crosses the forwarding rings while
/// the 50 ms checkpoints are being cut: the checkpoint must be a
/// consistent cut across loop-owned shards (including batches in flight
/// on the rings), and the restore must land identically however the new
/// loops repartition the shards.
fn sigkill_mid_replay(loops: usize) {
    let tag = format!("loops-{loops}");
    let reference = reference_run(&format!("sigkill-{tag}"));
    let dir = snap_dir(&format!("sigkill-{tag}"));

    // First life: the real binary, checkpointing every 50 ms.
    let loops_arg = loops.to_string();
    let (mut child, addr) = spawn_serve(&dir, 50, &["--loops", &loops_arg, "--auth-token", TOKEN]);
    replay(&addr, Some(TOKEN), loops, SAMPLES / 2, false);
    // The token flag is live: a wrong token is refused, not retried.
    let mut bad = ClientConfig::new(&addr);
    bad.backoff_unit_ms = 1;
    bad.token = Some("not-the-token".to_string());
    match ServiceClient::connect(bad) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::PermissionDenied, "{e}"),
        Ok(_) => panic!("{tag}: a wrong token was accepted"),
    }
    // Let at least one checkpoint land, then SIGKILL — no final
    // snapshot, no graceful anything.
    std::thread::sleep(std::time::Duration::from_millis(300));
    child.kill().expect("SIGKILL delivered");
    let _ = child.wait();
    let snaps = std::fs::read_dir(&dir)
        .expect("snapshot dir exists")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .count();
    assert!(
        snaps > 0,
        "{tag}: at least one periodic checkpoint was written before the kill"
    );

    // Second life: in-process server on the same dir (same restore
    // path as the binary). The client resumes strictly past whatever
    // the last checkpoint captured.
    let second = Server::start(ServiceConfig {
        event_loops: loops,
        auth_token: Some(TOKEN.to_string()),
        snapshot_dir: Some(dir.to_string_lossy().into_owned()),
        snapshot_interval_ms: 60_000,
        ..Default::default()
    })
    .expect("restarted server");
    replay(
        &second.local_addr().to_string(),
        Some(TOKEN),
        loops,
        SAMPLES,
        true,
    );
    assert_matches_reference(
        &second,
        &reference,
        &format!("{tag}, SIGKILL + restore + resume"),
    );
    second.shutdown();
    assert_eq!(
        final_snapshot_lines(&dir),
        reference.snapshot,
        "{tag}: the final snapshot after kill + restart + resume diverges from the uninterrupted run's"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_replay_restores_and_resumes_bit_identical() {
    sigkill_mid_replay(1);
}

#[test]
fn sigkill_mid_replay_multiloop_restores_bit_identical() {
    sigkill_mid_replay(4);
}
