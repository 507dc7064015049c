//! Crash-safe snapshot/restore, end to end: graceful restarts, a real
//! SIGKILL mid-replay, and transition-seq continuity across restores.
//!
//! The recovery contract under test: a restarted server restores the
//! newest usable snapshot, clients learn how far each machine got from
//! `QueryStats` (per-machine `last_t`) and resend only samples
//! *strictly after* that, and the resulting occurrence records and
//! transition logs are **bit-identical** to an uninterrupted run.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use fgcs_service::loadgen::wave_sample;
use fgcs_service::{ClientConfig, Server, ServiceClient, ServiceConfig};
use fgcs_testbed::TraceRecord;
use fgcs_wire::{Frame, WireSample, WireTransition};

const MACHINES: u32 = 3;
const SAMPLES: u64 = 400;

fn connect(addr: &str) -> ServiceClient {
    let mut cfg = ClientConfig::new(addr);
    cfg.backoff_unit_ms = 1;
    ServiceClient::connect(cfg).expect("client connects")
}

/// Sends wave samples `range` for every machine, resuming strictly
/// after each machine's server-side `last_t` (queried via `Stats`) when
/// `resume` is set.
fn stream_wave(client: &mut ServiceClient, range: std::ops::Range<u64>, resume: bool) {
    let mut last_t = std::collections::BTreeMap::new();
    if resume {
        let Frame::StatsReply(stats) = client.request(&Frame::QueryStats).unwrap() else {
            panic!("stats reply expected")
        };
        for m in stats.machines {
            last_t.insert(m.machine, m.last_t);
        }
    }
    for machine in 1..=MACHINES {
        let from = last_t.get(&machine).copied();
        let todo: Vec<WireSample> = range
            .clone()
            .map(|i| wave_sample(machine, i))
            .filter(|s| from.is_none_or(|lt| s.t > lt))
            .collect();
        for chunk in todo.chunks(50) {
            let reply = client
                .request(&Frame::SampleBatch {
                    machine,
                    samples: chunk.to_vec(),
                })
                .expect("batch sent");
            assert!(
                matches!(reply, Frame::Ack { .. }),
                "expected Ack, got tag {}",
                reply.tag()
            );
        }
    }
}

/// Polls `Stats` until every machine's pipeline has consumed its sample
/// at `final_i` (ingest is asynchronous).
fn wait_caught_up(client: &mut ServiceClient, final_i: u64) {
    let final_t = final_i * 15;
    for _ in 0..600 {
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

/// The uninterrupted reference: the full wave through one life of a
/// one-loop server.
fn reference_run() -> (Vec<Vec<TraceRecord>>, Vec<Vec<WireTransition>>) {
    let server = Server::start(ServiceConfig {
        event_loops: 1,
        ..Default::default()
    })
    .expect("reference server");
    let mut client = connect(&server.local_addr().to_string());
    stream_wave(&mut client, 0..SAMPLES, false);
    wait_caught_up(&mut client, SAMPLES - 1);
    let records = (1..=MACHINES)
        .map(|m| server.records(m).expect("machine streamed"))
        .collect();
    let transitions = (1..=MACHINES)
        .map(|m| server.transitions(m).expect("machine streamed"))
        .collect();
    server.shutdown();
    (records, transitions)
}

fn snap_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fgcs-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Graceful restart: stop mid-replay (final checkpoint), start a fresh
/// server process-state on the same snapshot dir, resume, and end up
/// bit-identical to an uninterrupted run on one event loop — the
/// reference never restarts and never forwards, so a multi-loop restart
/// variant cannot drift from the plain path unnoticed.
fn graceful_restart_is_bit_identical(tag: &str, mut svc: ServiceConfig) {
    let (ref_records, ref_transitions) = reference_run();
    let dir = snap_dir(&format!("graceful-{tag}"));
    svc.snapshot_dir = Some(dir.to_string_lossy().into_owned());
    svc.snapshot_interval_ms = 60_000; // periodic writes irrelevant here

    // First life: half the wave, then a graceful shutdown (which takes
    // the final checkpoint after draining).
    let first = Server::start(svc.clone()).expect("first life");
    let mut client = connect(&first.local_addr().to_string());
    stream_wave(&mut client, 0..SAMPLES / 2, false);
    wait_caught_up(&mut client, SAMPLES / 2 - 1);
    first.shutdown();

    // Second life: restores the snapshot; the client resumes strictly
    // after each machine's restored last_t.
    let second = Server::start(svc).expect("second life");
    let mut client = connect(&second.local_addr().to_string());
    stream_wave(&mut client, 0..SAMPLES, true);
    wait_caught_up(&mut client, SAMPLES - 1);

    for m in 1..=MACHINES {
        let idx = (m - 1) as usize;
        assert_eq!(
            second.records(m).expect("machine restored"),
            ref_records[idx],
            "{tag}: records bit-identical through the restart, machine {m}"
        );
        assert_eq!(
            second.transitions(m).expect("machine restored"),
            ref_transitions[idx],
            "{tag}: transition log identical (seqs continue, no restart at 1), machine {m}"
        );
    }
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
    let mut client = connect(&first.local_addr().to_string());
    stream_wave(&mut client, 0..SAMPLES / 2, false);
    wait_caught_up(&mut client, SAMPLES / 2 - 1);
    let Frame::Transitions {
        transitions: before,
        ..
    } = client
        .request(&Frame::QueryTransitions {
            machine: 1,
            since_seq: 1,
            max: 1000,
        })
        .unwrap()
    else {
        panic!("transitions reply expected")
    };
    assert!(!before.is_empty(), "first life produced transitions");
    let consumed = before.last().unwrap().seq;
    first.shutdown();

    let second = Server::start(svc).expect("second life");
    let mut client = connect(&second.local_addr().to_string());
    stream_wave(&mut client, 0..SAMPLES, true);
    wait_caught_up(&mut client, SAMPLES - 1);
    // Catch up from the last consumed seq, exactly as a live follower
    // would: everything new is strictly beyond it.
    let Frame::Transitions {
        transitions: after, ..
    } = client
        .request(&Frame::QueryTransitions {
            machine: 1,
            since_seq: consumed + 1,
            max: 1000,
        })
        .unwrap()
    else {
        panic!("transitions reply expected")
    };
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
fn spawn_serve(dir: &std::path::Path, interval_ms: u64, extra: &[&str]) -> (Child, String) {
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

/// The crash test proper: SIGKILL the serve binary mid-replay, restart
/// on the same snapshot dir, resume from `Stats`, and compare against
/// an uninterrupted run — bit-identical records and transitions. The
/// kill lands *between* ingest and checkpoint at an arbitrary point;
/// any samples past the last snapshot are simply re-ingested by the
/// resume protocol without seq collisions.
fn sigkill_mid_replay(tag: &str, serve_args: &[&str], restart_svc: ServiceConfig) {
    let (ref_records, ref_transitions) = reference_run();
    let dir = snap_dir(&format!("sigkill-{tag}"));

    // First life: the real binary, checkpointing every 50 ms.
    let (mut child, addr) = spawn_serve(&dir, 50, serve_args);
    let mut client = connect(&addr);
    stream_wave(&mut client, 0..SAMPLES / 2, false);
    wait_caught_up(&mut client, SAMPLES / 2 - 1);
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
    let svc = ServiceConfig {
        snapshot_dir: Some(dir.to_string_lossy().into_owned()),
        snapshot_interval_ms: 60_000,
        ..restart_svc
    };
    let second = Server::start(svc).expect("restarted server");
    let mut client = connect(&second.local_addr().to_string());
    stream_wave(&mut client, 0..SAMPLES, true);
    wait_caught_up(&mut client, SAMPLES - 1);

    for m in 1..=MACHINES {
        let idx = (m - 1) as usize;
        assert_eq!(
            second.records(m).expect("machine restored"),
            ref_records[idx],
            "{tag}: records survive a SIGKILL + restore + resume, machine {m}"
        );
        assert_eq!(
            second.transitions(m).expect("machine restored"),
            ref_transitions[idx],
            "{tag}: transitions identical after the crash, machine {m}"
        );
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_replay_restores_and_resumes_bit_identical() {
    sigkill_mid_replay(
        "loops-1",
        &["--loops", "1"],
        ServiceConfig {
            event_loops: 1,
            ..Default::default()
        },
    );
}

/// The same crash, but the killed life *and* the restarted life run
/// four event loops: the checkpoint must be a consistent cut across
/// loop-owned shards (including batches in flight on the forwarding
/// rings), and the restore must land identically however the new
/// loops repartition the shards.
#[test]
fn sigkill_mid_replay_multiloop_restores_bit_identical() {
    sigkill_mid_replay(
        "loops-4",
        &["--loops", "4"],
        ServiceConfig {
            event_loops: 4,
            ..Default::default()
        },
    );
}
