//! `fgcs-smoke`: a tiny end-to-end client probe for CI.
//!
//! ```text
//! fgcs-smoke --addr HOST:PORT [--token TOKEN]
//! fgcs-smoke --addr HOST:PORT --replay MACHINES:SAMPLES [--resume] [--loops N]
//! ```
//!
//! **Probe mode** (no `--replay`) checks, in order:
//!
//! 1. a (token-authenticated) client can send a sample batch and get
//!    an `Ack`;
//! 2. after a forced disconnect the next batch transparently
//!    reconnects (re-authenticating) and is `Ack`ed too;
//! 3. `QueryStats` reports both batches ingested;
//! 4. when a token is set, a client presenting the *wrong* token is
//!    rejected with `PermissionDenied` (the typed `Unauthorized`
//!    error), not retried into oblivion.
//!
//! **Replay mode** streams the deterministic replay wave
//! ([`fgcs_service::loadgen::wave_sample`]: the same wave regardless of
//! timing, so two runs are bit-comparable) for `MACHINES` machines ×
//! `SAMPLES` samples each through the load driver
//! ([`fgcs_service::run_loadgen`]), then waits until the server has
//! ingested everything. With `--resume` it first asks the server (via
//! `QueryStats`, whose per-machine stats carry `last_t`) how far each
//! machine got, and replays only samples *strictly after* that — the
//! client side of restart recovery. `--loops N` replays over N
//! concurrent connections (machine `m` rides connection `m % N`, so
//! each machine's stream stays in order on one connection and the
//! replay stays deterministic) — pointed at a multi-loop server this
//! exercises concurrent ingest across event loops, including the
//! cross-loop forwarding rings.
//!
//! Exits 0 on success, 1 with a message on the first failure — the CI
//! smoke gate for the event loops, auth handshake, and the
//! kill-and-restart snapshot check.

use std::process::exit;

use fgcs_service::{ClientConfig, ServiceClient};
use fgcs_wire::{Frame, SampleLoad, WireSample};

fn fail(msg: &str) -> ! {
    eprintln!("fgcs-smoke: FAIL: {msg}");
    exit(1);
}

fn batch(machine: u32, t0: u64) -> Frame {
    let samples = (0..4)
        .map(|i| WireSample {
            t: t0 + 60 * i,
            load: SampleLoad::Direct(0.05),
            host_resident_mb: 64,
            alive: true,
        })
        .collect();
    Frame::SampleBatch { machine, samples }
}

fn query_stats(client: &mut ServiceClient) -> fgcs_wire::StatsPayload {
    match client.request(&Frame::QueryStats) {
        Ok(Frame::StatsReply(stats)) => stats,
        Ok(other) => fail(&format!("stats: unexpected tag {}", other.tag())),
        Err(e) => fail(&format!("stats: {e}")),
    }
}

/// Streams the wave to the server over `loops` concurrent connections
/// of the load driver; with `resume` set, only the samples the server
/// hasn't seen yet (per its own `last_t` book-keeping). Machine `m`
/// rides connection `m % loops` with one request in flight: per-machine
/// sample order is preserved, so the recorded occurrences are
/// deterministic however the connections interleave.
#[cfg(target_os = "linux")]
fn run_replay(
    cfg: &ClientConfig,
    client: &mut ServiceClient,
    machines: u32,
    samples: u64,
    resume: bool,
    loops: u32,
) {
    use fgcs_service::loadgen::Source;
    use fgcs_service::{run_loadgen, LoadGenConfig};
    use std::collections::BTreeMap;

    let mut resume_after = BTreeMap::new();
    if resume {
        for m in query_stats(client).machines {
            resume_after.insert(m.machine, m.last_t);
        }
    }
    let mut lg = LoadGenConfig::new(Source::Wave {
        machines,
        samples,
        resume_after,
    });
    lg.conns = loops.clamp(1, machines) as usize;
    lg.batch_size = 50;
    lg.token = cfg.token.clone();
    let r = match run_loadgen(&cfg.addr, &lg) {
        Ok(r) => r,
        Err(e) => fail(&format!("replay: {e}")),
    };
    // A shed batch would break the bit-identity the restart smoke diffs
    // on; the replay load is far below the forwarding rings' capacity,
    // so anything but an Ack for every batch means something is wrong.
    if r.conns_sustained != lg.conns || r.acks != r.batches_sent {
        fail(&format!(
            "replay: not every batch acked on a sustained connection: {r:?}"
        ));
    }
    // Ingest is asynchronous: wait until every machine's pipeline has
    // consumed its final sample before declaring the replay done (the
    // caller may snapshot-and-diff right after we exit).
    let final_t = (samples - 1) * 15;
    for _ in 0..200 {
        let stats = query_stats(client);
        let caught_up = (1..=machines).all(|m| {
            stats
                .machines
                .iter()
                .any(|s| s.machine == m && s.last_t >= final_t)
        });
        if caught_up {
            println!("fgcs-smoke: replay OK ({machines} machines x {samples} samples)");
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    fail("replay: server did not catch up to the final sample in time");
}

#[cfg(not(target_os = "linux"))]
fn run_replay(_: &ClientConfig, _: &mut ServiceClient, _: u32, _: u64, _: bool, _: u32) {
    fail("--replay needs the Linux load driver (epoll sockets)");
}

fn main() {
    let mut addr = None;
    let mut token: Option<String> = None;
    let mut replay: Option<(u32, u64)> = None;
    let mut resume = false;
    let mut loops = 1u32;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next(),
            "--token" => token = args.next(),
            "--loops" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => loops = n,
                _ => fail("--loops needs a count >= 1"),
            },
            "--replay" => {
                let spec = args.next().unwrap_or_default();
                let parsed = spec
                    .split_once(':')
                    .and_then(|(m, n)| Some((m.parse::<u32>().ok()?, n.parse::<u64>().ok()?)));
                match parsed {
                    Some((m, n)) if m >= 1 && n >= 2 => replay = Some((m, n)),
                    _ => fail("--replay needs MACHINES:SAMPLES (at least 1:2)"),
                }
            }
            "--resume" => resume = true,
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    let Some(addr) = addr else {
        fail("--addr is required");
    };

    let mut cfg = ClientConfig::new(addr.clone());
    cfg.backoff_unit_ms = 1; // keep CI fast if something is down
    cfg.token = token.clone();
    let mut client = match ServiceClient::connect(cfg.clone()) {
        Ok(c) => c,
        Err(e) => fail(&format!("connect: {e}")),
    };

    if let Some((machines, samples)) = replay {
        run_replay(&cfg, &mut client, machines, samples, resume, loops);
        return;
    }

    match client.request(&batch(7, 0)) {
        Ok(Frame::Ack { .. }) => {}
        Ok(other) => fail(&format!("batch 1: expected Ack, got tag {}", other.tag())),
        Err(e) => fail(&format!("batch 1: {e}")),
    }

    client.force_disconnect();
    match client.request(&batch(7, 240)) {
        Ok(Frame::Ack { .. }) => {}
        Ok(other) => fail(&format!(
            "batch 2 (after reconnect): expected Ack, got tag {}",
            other.tag()
        )),
        Err(e) => fail(&format!("batch 2 (after reconnect): {e}")),
    }
    if client.reconnects != 1 {
        fail(&format!("expected 1 reconnect, saw {}", client.reconnects));
    }

    match client.request(&Frame::QueryStats) {
        Ok(Frame::StatsReply(stats)) => {
            // Forwarding is asynchronous; both batches must at least be
            // accounted for (ingested now or still on a ring — an Ack
            // means accepted, so ingested catches up; poll briefly).
            let mut ingested = stats.ingested_batches;
            let mut spins = 0;
            while ingested < 2 && spins < 100 {
                std::thread::sleep(std::time::Duration::from_millis(10));
                match client.request(&Frame::QueryStats) {
                    Ok(Frame::StatsReply(s)) => ingested = s.ingested_batches,
                    Ok(other) => fail(&format!("stats poll: unexpected tag {}", other.tag())),
                    Err(e) => fail(&format!("stats poll: {e}")),
                }
                spins += 1;
            }
            if ingested < 2 {
                fail(&format!("expected >= 2 ingested batches, saw {ingested}"));
            }
        }
        Ok(other) => fail(&format!("stats: unexpected tag {}", other.tag())),
        Err(e) => fail(&format!("stats: {e}")),
    }

    if token.is_some() {
        let mut bad = ClientConfig::new(addr);
        bad.backoff_unit_ms = 1;
        bad.token = Some("definitely-not-the-token".to_string());
        match ServiceClient::connect(bad) {
            Err(e) if e.kind() == std::io::ErrorKind::PermissionDenied => {}
            Err(e) => fail(&format!(
                "wrong token: expected PermissionDenied, got {e:?}"
            )),
            Ok(_) => fail("wrong token was accepted"),
        }
    }

    println!("fgcs-smoke: OK");
}
