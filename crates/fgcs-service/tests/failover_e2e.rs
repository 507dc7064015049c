//! Process-level failover: real `fgcs-serve` processes, real signals.
//!
//! The scenario the in-process suites cannot produce is a primary that
//! is *paused*, not dead — SIGSTOP freezes the process while the kernel
//! keeps accepting its TCP connections, so requests hang instead of
//! failing fast, and a later SIGCONT revives a node that still believes
//! it is the primary of a cluster that has since moved on. That node
//! answers `QueryStats` with a cursor that includes writes its
//! replacement never received; a router that trusted it for the ingest
//! resume floor would silently drop the pending suffix. The regression
//! pinned here: the resume probes both endpoints' `ReplStatus` and only
//! trusts the node holding the primary role at the highest epoch, and
//! the new primary's fencer demotes the revenant as soon as it wakes.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fgcs_core::backoff::BackoffPolicy;
use fgcs_service::cluster::{ClusterClient, ClusterConfig, ShardSpec};
use fgcs_service::{ClientConfig, ServiceClient, ROLE_FOLLOWER, ROLE_PRIMARY};
use fgcs_wire::{Frame, SampleLoad, WireSample, WireTransition};

/// A spawned `fgcs-serve` process. Shuts down hard on drop so a failed
/// assertion never leaks a listener.
struct Serve {
    child: Child,
    addr: String,
}

/// A pid-derived loopback IP (all of 127.0.0.0/8 routes to `lo` on
/// Linux). Sibling test binaries churn kernel-assigned ports on
/// 127.0.0.1, and a still-retrying router or a fencer in one of them
/// can reach a *recycled* port now owned by this test's server —
/// injecting foreign batches or foreign fencing epochs. A private
/// loopback address makes that cross-talk impossible.
fn local_ip() -> String {
    let pid = std::process::id();
    format!("127.{}.{}.1", 1 + (pid >> 8) % 254, pid % 256)
}

impl Serve {
    fn spawn(args: &[&str]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fgcs-serve"))
            .args(args)
            .stdin(Stdio::piped()) // held open: EOF is the shutdown signal
            .stdout(Stdio::piped())
            // Inherited so promotion/fencing log lines land in the test
            // output — the evidence that matters when a failover
            // assertion trips.
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn fgcs-serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("fgcs-serve prints its address")
            .expect("stdout readable");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .to_string();
        std::thread::spawn(move || for _ in lines {}); // keep the pipe drained
        Serve { child, addr }
    }

    fn signal(&self, sig: &str) {
        let ok = Command::new("kill")
            .arg(sig)
            .arg(self.child.id().to_string())
            .status()
            .expect("kill runs")
            .success();
        assert!(ok, "kill {sig} pid {}", self.child.id());
    }

    /// SIGSTOPs the process and waits until the stop has actually
    /// landed. `kill(2)` only *queues* a group stop and wakes one
    /// thread; on an oversubscribed box that thread can go unscheduled
    /// for ~100 ms while the server's connection threads keep serving
    /// — long enough for a whole test phase to complete against a
    /// primary the test believes is frozen. `/proc/<pid>/stat` state
    /// `T` means the group stop was initiated: every thread now has
    /// the stop pending, so no *new* request can be served.
    fn freeze(&self) {
        self.signal("-STOP");
        let path = format!("/proc/{}/stat", self.child.id());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stat = std::fs::read_to_string(&path).expect("proc stat readable");
            // Field 3, one char after the parenthesised comm (which is
            // the only field that may itself contain `)`).
            let state = stat.rfind(") ").and_then(|i| stat[i + 2..].chars().next());
            if state == Some('T') {
                return;
            }
            assert!(Instant::now() < deadline, "SIGSTOP never landed: {stat:?}");
            std::thread::yield_now();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // A SIGSTOPped child ignores SIGKILL until continued.
        self.signal("-CONT");
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn connect(addr: &str) -> ServiceClient {
    let mut cfg = ClientConfig::new(addr);
    cfg.backoff_unit_ms = 1;
    ServiceClient::connect(cfg).expect("client connects")
}

fn status(addr: &str) -> Option<(u8, u64, u64)> {
    let mut cfg = ClientConfig::new(addr);
    cfg.backoff_unit_ms = 1;
    cfg.read_timeout_ms = 500;
    let mut c = ServiceClient::connect(cfg).ok()?;
    match c.request(&Frame::ReplStatus).ok()? {
        Frame::ReplStatusReply {
            role,
            epoch,
            applied_seq,
            ..
        } => Some((role, epoch, applied_seq)),
        _ => None,
    }
}

fn transitions(addr: &str) -> Vec<WireTransition> {
    match connect(addr)
        .request(&Frame::QueryTransitions {
            machine: 1,
            since_seq: 0,
            max: 1_000_000,
        })
        .expect("transitions query")
    {
        Frame::Transitions { transitions, .. } => transitions,
        other => panic!("Transitions expected, got tag {}", other.tag()),
    }
}

/// An `Ack` means *accepted*, not applied: a batch that arrived on a
/// loop other than its machine's home loop is acked once it is on the
/// forwarding ring (DESIGN.md §12), so a state query fired right after
/// the final ack races the home loop's drain. Poll until machine 1's
/// cursor reaches `want`.
fn wait_applied(addr: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let last = match connect(addr).request(&Frame::QueryStats) {
            Ok(Frame::StatsReply(stats)) => stats
                .machines
                .iter()
                .find(|m| m.machine == 1)
                .map(|m| m.last_t),
            _ => None,
        };
        if last == Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "forwarding rings on {addr} never drained: machine-1 last_t {last:?}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn sample(i: u64) -> WireSample {
    WireSample {
        t: i * 15,
        load: SampleLoad::Direct(if (i / 40) % 2 == 1 { 0.9 } else { 0.05 }),
        host_resident_mb: 100,
        alive: true,
    }
}

#[test]
fn paused_then_revived_primary_cannot_poison_the_resume_floor() {
    let bind = format!("{}:0", local_ip());
    let p = Serve::spawn(&["--addr", &bind, "--repl-log", "65536", "--lease", "200"]);
    let f = Serve::spawn(&[
        "--addr",
        &bind,
        "--repl-log",
        "65536",
        "--follower-of",
        &p.addr,
        "--pull-interval",
        "1",
        "--auto-promote",
        "--lease",
        "200",
        "--missed-pulls",
        "3",
    ]);

    let mut cfg = ClusterConfig::new(vec![ShardSpec {
        name: "s".into(),
        primary_addr: p.addr.clone(),
        follower_addr: Some(f.addr.clone()),
    }]);
    cfg.request_timeout_ms = 500;
    cfg.backoff = BackoffPolicy { base: 5, cap: 100 };
    cfg.max_attempts = 60;
    let mut router = ClusterClient::connect(cfg).expect("router");

    const N1: u64 = 200; // before the pause
    const N2: u64 = 260; // streamed through the failover window
    const N3: u64 = 320; // after the revival
    for chunk in (0..N1).map(sample).collect::<Vec<_>>().chunks(50) {
        let reply = router.ingest(1, chunk.to_vec()).expect("phase-1 ingest");
        assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
    }
    // Quiesce: the follower must hold everything before the pause, so
    // any later shortfall is unambiguously a resume bug.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let head = connect(&p.addr)
            .request(&Frame::ReplStatus)
            .ok()
            .and_then(|r| match r {
                Frame::ReplStatusReply { head_seq, .. } => Some(head_seq),
                _ => None,
            })
            .expect("primary status");
        if status(&f.addr).is_some_and(|(_, _, applied)| applied >= head) {
            break;
        }
        assert!(Instant::now() < deadline, "follower never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }

    p.freeze();

    // Phase 2 rides through detection + self-promotion: requests to the
    // frozen primary hang to the deadline, the router keeps flipping,
    // and the follower takes over mid-stream with no operator step.
    for chunk in (N1..N2).map(sample).collect::<Vec<_>>().chunks(20) {
        let reply = router.ingest(1, chunk.to_vec()).expect("failover ingest");
        assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
    }
    let (role, new_epoch, _) = status(&f.addr).expect("promoted follower answers");
    assert_eq!(role, ROLE_PRIMARY, "the follower self-promoted");
    assert!(new_epoch >= 2, "promotion raised the epoch: {new_epoch}");

    p.signal("-CONT");

    // The revenant wakes up still calling itself a primary; the new
    // primary's fencer must demote it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some((role, epoch, _)) = status(&p.addr) {
            if role == ROLE_FOLLOWER && epoch >= new_epoch {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "revived primary was never fenced: {:?}",
            status(&p.addr)
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Phase 3: with both nodes answering — one of them a fenced, stale
    // revenant — every remaining sample must still land exactly once on
    // the real primary.
    for chunk in (N2..N3).map(sample).collect::<Vec<_>>().chunks(20) {
        let reply = router.ingest(1, chunk.to_vec()).expect("phase-3 ingest");
        assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
    }

    // Every chunk was acked; the queue drain is async, so wait for the
    // final sample's cursor before judging state. A lost suffix (the
    // poisoned-floor bug this test pins) panics inside `wait_applied`.
    wait_applied(&f.addr, (N3 - 1) * 15);
    let stats = match connect(&f.addr).request(&Frame::QueryStats).unwrap() {
        Frame::StatsReply(s) => s,
        other => panic!("stats expected, got tag {}", other.tag()),
    };
    assert!(
        stats.ingested_samples >= N3,
        "a poisoned resume floor drops the pending suffix: {} < {N3}",
        stats.ingested_samples
    );

    // Exactly-once is a *state* property, not a counter property: under
    // load a request the follower already started applying can time out,
    // making the router read a mid-batch resume floor and resend an
    // overlapping suffix. The per-machine out-of-order guard drops those
    // duplicates from state (the raw counter legitimately counts them),
    // so the decisive check is bit-identity of the derived transition
    // records against an unpaused reference fed the same trace — a
    // dropped suffix or a double-applied sample both diverge here.
    let reference = Serve::spawn(&["--addr", &bind]);
    let mut rc = connect(&reference.addr);
    for chunk in (0..N3).map(sample).collect::<Vec<_>>().chunks(50) {
        let reply = rc
            .request(&Frame::SampleBatch {
                machine: 1,
                samples: chunk.to_vec(),
            })
            .expect("reference ingest");
        assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
    }
    drop(rc);
    wait_applied(&reference.addr, (N3 - 1) * 15);
    assert_eq!(
        transitions(&f.addr),
        transitions(&reference.addr),
        "survivor's records diverge from the unpaused reference"
    );
}
