//! Cluster routing client: rendezvous-hashed sharding, one
//! [`ServiceClient`] per shard endpoint.
//!
//! A cluster is K *shards*, each a primary `fgcs-serve` plus the
//! follower replicating its seq log (DESIGN.md §13). Machine ids map to
//! shards by rendezvous (highest-random-weight) hashing over the shard
//! *names*: every `(name, machine)` pair gets an independent score and
//! the highest score owns the machine. Removing a shard therefore only
//! moves the machines it owned (everyone else's argmax is unchanged) —
//! pinned by a property test — and ownership never depends on list
//! order or on which endpoint (primary/follower) currently serves.
//!
//! [`ClusterClient`] is the blocking request façade on top of that map,
//! hardened end to end:
//!
//! * **per-request deadlines** — every attempt (connect + auth + reply)
//!   runs against one deadline inside [`ServiceClient`]; a hung server
//!   surfaces as `TimedOut`, not a wedged caller, and any failed
//!   attempt drops its connection, so a late reply is never read as the
//!   answer to the next request;
//! * **capped-exponential-backoff retries with jitter** — the shared
//!   [`BackoffPolicy`] used by [`ServiceClient`] and the testbed
//!   supervisor. The router owns every retry: its connections make one
//!   attempt per request and never resend;
//! * **failover** — on connect errors, timeouts, or a typed
//!   [`ErrorCode::NotPrimary`] rejection the router flips the shard to
//!   its other endpoint (primary ⇄ follower) and retries there, so a
//!   SIGKILLed primary plus its follower's self-promotion (DESIGN.md
//!   §13.5) heals in one flip, no operator step;
//! * **at-most-once ingest resume** — a retry after an *ambiguous*
//!   failure (the connection died after the batch was sent; the server
//!   may or may not have applied it) first locates the current primary
//!   (both endpoints are probed with `ReplStatus`; the node claiming
//!   the primary role at the highest epoch wins, so a paused-then-
//!   revived old primary can't answer with a stale cursor), then asks
//!   it how far the machine got (`QueryStats` carries per-machine
//!   `last_t`) and resends only the strict `t > last_t` suffix.
//!   Strictness matters: a duplicate of the `last_t` sample would be
//!   *accepted* (only `t < last_t` is out-of-order) and double-count;
//! * **follower reads** — [`ClusterClient::read_on`] sends queries
//!   (`QueryAvail`/`Place`/`QueryStats`) to the follower endpoint
//!   first, falling back to the write path on a transport error or a
//!   typed [`ErrorCode::TooStale`] rejection from the follower's
//!   staleness gate. Writes always take the primary route.

use std::io;
use std::time::Duration;

use fgcs_core::backoff::BackoffPolicy;
use fgcs_wire::{ErrorCode, Frame, StatsPayload, WireSample};

use crate::client::{probe_repl_status, ClientConfig, ServiceClient};

/// One shard of the cluster: the primary and the follower replicating
/// it.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Stable shard name fed to rendezvous hashing. Ownership is a
    /// function of the *name*, not the addresses, so promoting the
    /// follower (or moving a node to a new port) never reshuffles keys.
    pub name: String,
    /// Address of the shard's primary.
    pub primary_addr: String,
    /// Address of the shard's follower; `None` runs the shard
    /// unreplicated (failover disabled, errors surface after retries).
    pub follower_addr: Option<String>,
}

/// [`ClusterClient`] configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The shards, in any order (ownership ignores order).
    pub shards: Vec<ShardSpec>,
    /// Auth token presented on every fresh connection; `None` sends no
    /// `Auth` frame.
    pub token: Option<String>,
    /// Deadline per attempt (connect + auth + one reply), ms.
    pub request_timeout_ms: u64,
    /// Total attempts per request before the last error surfaces.
    pub max_attempts: u32,
    /// Backoff between attempts, ms; jittered to half-open
    /// `[delay/2, delay]` so a fleet of routers doesn't thunder back.
    pub backoff: BackoffPolicy,
    /// Jitter seed; vary per router instance to decorrelate them.
    pub seed: u64,
}

impl ClusterConfig {
    /// Defaults: 2 s attempt deadline, 8 attempts, 20 ms → 500 ms
    /// backoff, no token.
    pub fn new(shards: Vec<ShardSpec>) -> Self {
        ClusterConfig {
            shards,
            token: None,
            request_timeout_ms: 2_000,
            max_attempts: 8,
            backoff: BackoffPolicy { base: 20, cap: 500 },
            seed: 0x5eed_cafe,
        }
    }
}

/// Router fault/recovery counters, for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterMetrics {
    /// Attempts re-run after a transport error, timeout, or
    /// `NotPrimary` rejection.
    pub retries: u64,
    /// Endpoint flips (primary ⇄ follower).
    pub failovers: u64,
    /// Ingest batches that went through the `t > last_t` resume filter
    /// after an ambiguous failure.
    pub resumed_batches: u64,
    /// Samples the resume filter dropped as already applied.
    pub skipped_samples: u64,
    /// `NotPrimary` reroutes that skipped the backoff sleep: the
    /// rejection is a routing signal naming a healthy endpoint, so the
    /// first flip per request retries immediately.
    pub instant_reroutes: u64,
    /// Read requests answered by a follower endpoint (the rest fell
    /// back to the write path).
    pub follower_reads: u64,
}

/// Per-shard connection state.
struct ShardState {
    /// Whether requests currently target the follower endpoint.
    on_follower: bool,
    /// This shard's write connection, if open.
    conn: Option<ServiceClient>,
    /// The connection pinned to the follower endpoint for reads, if
    /// open. Kept separate from the write connection so read traffic
    /// never evicts the primary connection (and vice versa).
    read_conn: Option<ServiceClient>,
}

/// The blocking cluster router. See the module docs for the fault
/// model; one instance is single-threaded (one request in flight).
pub struct ClusterClient {
    cfg: ClusterConfig,
    shards: Vec<ShardState>,
    /// Fault/recovery counters.
    pub metrics: ClusterMetrics,
    /// Monotone salt folded into the jitter seed per sleep.
    salt: u64,
}

/// Rendezvous (highest-random-weight) score of shard `name` for `key`:
/// FNV-1a over the name then the key bytes, finished with an avalanche
/// mix so near-identical names still score independently.
pub fn rendezvous_score(name: &str, key: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    for b in key.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // splitmix64 finalizer.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Index of the shard owning `key`: argmax of [`rendezvous_score`],
/// ties broken toward the lexically smallest name so ownership is a
/// pure function of the name *set* (list order never matters).
///
/// # Panics
/// On an empty `names` slice — a cluster has at least one shard.
pub fn rendezvous_owner<S: AsRef<str>>(names: &[S], key: u32) -> usize {
    assert!(!names.is_empty(), "rendezvous over zero shards");
    let mut best = 0usize;
    for i in 1..names.len() {
        let (bi, bn) = (rendezvous_score(names[i].as_ref(), key), names[i].as_ref());
        let (bb, nb) = (
            rendezvous_score(names[best].as_ref(), key),
            names[best].as_ref(),
        );
        if bi > bb || (bi == bb && bn < nb) {
            best = i;
        }
    }
    best
}

fn stats_reply(reply: Frame) -> io::Result<StatsPayload> {
    match reply {
        Frame::StatsReply(stats) => Ok(stats),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply to QueryStats: tag {}", other.tag()),
        )),
    }
}

impl ClusterClient {
    /// Builds a router over `cfg.shards`. Connections are opened
    /// lazily, so a dead node costs nothing until a request routes to
    /// it. Errors only on zero shards.
    pub fn connect(cfg: ClusterConfig) -> io::Result<ClusterClient> {
        if cfg.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one shard",
            ));
        }
        let shards = cfg
            .shards
            .iter()
            .map(|_| ShardState {
                on_follower: false,
                conn: None,
                read_conn: None,
            })
            .collect();
        Ok(ClusterClient {
            shards,
            metrics: ClusterMetrics::default(),
            salt: 0,
            cfg,
        })
    }

    /// Number of shards the router spans.
    pub fn shard_count(&self) -> usize {
        self.cfg.shards.len()
    }

    /// The shard owning `machine` under rendezvous hashing.
    pub fn shard_for(&self, machine: u32) -> usize {
        rendezvous_owner(
            &self
                .cfg
                .shards
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>(),
            machine,
        )
    }

    /// The endpoint shard `s` currently targets.
    pub fn endpoint_of(&self, s: usize) -> &str {
        let spec = &self.cfg.shards[s];
        match &spec.follower_addr {
            Some(f) if self.shards[s].on_follower => f,
            _ => &spec.primary_addr,
        }
    }

    /// Streams one machine's samples to its owning shard with
    /// at-most-once delivery: retries after ambiguous failures resend
    /// only the strict `t > last_t` suffix the shard has not applied.
    /// Returns the final server reply (`Ack`, or `Busy` under shed).
    pub fn ingest(&mut self, machine: u32, samples: Vec<WireSample>) -> io::Result<Frame> {
        let shard = self.shard_for(machine);
        let mut pending = samples;
        let mut attempt: u32 = 0;
        let mut rerouting = false;
        loop {
            if pending.is_empty() {
                // Everything was applied before the failure; nothing
                // left to deliver.
                return Ok(Frame::Ack { seq: 0 });
            }
            let frame = Frame::SampleBatch {
                machine,
                samples: pending.clone(),
            };
            match self.attempt(shard, false, &frame) {
                Ok(Frame::Error {
                    code: ErrorCode::NotPrimary,
                    detail,
                }) => {
                    // A routing signal, not an ambiguous failure: the
                    // follower applied nothing, so the full remainder
                    // goes to the flipped endpoint.
                    self.bounce(shard, &mut attempt, &detail, !rerouting)?;
                    rerouting = true;
                }
                Ok(reply) => return Ok(reply),
                Err(e) if e.kind() == io::ErrorKind::PermissionDenied => return Err(e),
                Err(e) => {
                    // Ambiguous: the server may have applied the batch
                    // before the connection died. Fail over, locate the
                    // *current* primary (an old primary revived mid-
                    // failover still answers stats, with a cursor that
                    // includes writes the new primary never got — a
                    // stale `last_t` here would silently drop the
                    // pending suffix), then ask it how far this machine
                    // actually got and resume strictly after that.
                    self.bounce(shard, &mut attempt, &e.to_string(), false)
                        .map_err(|_| e)?;
                    rerouting = false;
                    self.aim_at_primary(shard);
                    let applied_t = self
                        .stats_of(shard)?
                        .machines
                        .iter()
                        .find(|m| m.machine == machine)
                        .map(|m| m.last_t);
                    if let Some(last_t) = applied_t {
                        let before = pending.len();
                        pending.retain(|s| s.t > last_t);
                        self.metrics.resumed_batches += 1;
                        self.metrics.skipped_samples += (before - pending.len()) as u64;
                    }
                }
            }
        }
    }

    /// Availability query for `machine` on its owning shard, preferring
    /// the follower replica ([`ClusterClient::read_on`]).
    pub fn query_avail(&mut self, machine: u32, horizon: u64) -> io::Result<Frame> {
        let shard = self.shard_for(machine);
        self.read_on(shard, &Frame::QueryAvail { machine, horizon })
    }

    /// Placement query against shard `s`, preferring the follower
    /// replica ([`ClusterClient::read_on`]).
    pub fn place_on(&mut self, s: usize, job_len: u64) -> io::Result<Frame> {
        self.read_on(s, &Frame::Place { job_len })
    }

    /// `QueryStats` against shard `s`'s *write* endpoint. Authoritative
    /// by construction: the ingest resume filter derives its `t >
    /// last_t` floor from this, and a follower's floor may lag.
    pub fn stats_of(&mut self, s: usize) -> io::Result<StatsPayload> {
        stats_reply(self.request_on(s, &Frame::QueryStats)?)
    }

    /// `QueryStats` against shard `s`, preferring the follower replica.
    /// Fine for dashboards and load checks; never feed the result into
    /// a dedup decision (see [`ClusterClient::stats_of`]).
    pub fn read_stats_of(&mut self, s: usize) -> io::Result<StatsPayload> {
        stats_reply(self.read_on(s, &Frame::QueryStats)?)
    }

    /// Sends a read-only `frame` to shard `s`, preferring its follower
    /// endpoint. One attempt goes to the follower; a transport failure
    /// or a typed `TooStale`/`NotPrimary` rejection falls back to the
    /// full write path (retries, failover and all), so a read is never
    /// *less* available than before follower reads existed. Any other
    /// typed error from the follower (UnknownMachine on a caught-up
    /// replica, say) is a real answer and returns as-is.
    pub fn read_on(&mut self, s: usize, frame: &Frame) -> io::Result<Frame> {
        if self.cfg.shards[s].follower_addr.is_some() {
            match self.attempt(s, true, frame) {
                Ok(Frame::Error { code, .. })
                    if code == ErrorCode::TooStale || code == ErrorCode::NotPrimary => {}
                Ok(reply) => {
                    self.metrics.follower_reads += 1;
                    return Ok(reply);
                }
                Err(e) if e.kind() == io::ErrorKind::PermissionDenied => return Err(e),
                Err(_) => {}
            }
        }
        self.request_on(s, frame)
    }

    /// Sends `frame` to shard `s` with the full retry/failover
    /// discipline. Use [`ClusterClient::ingest`] for sample batches —
    /// this path retries verbatim, which is at-least-once.
    pub fn request_on(&mut self, s: usize, frame: &Frame) -> io::Result<Frame> {
        let mut attempt: u32 = 0;
        let mut rerouting = false;
        loop {
            match self.attempt(s, false, frame) {
                // Both rejections are routing signals from a live
                // follower: NotPrimary for writes, TooStale for reads
                // behind a staleness gate. Flip and retry.
                Ok(Frame::Error { code, detail })
                    if code == ErrorCode::NotPrimary || code == ErrorCode::TooStale =>
                {
                    self.bounce(s, &mut attempt, &detail, !rerouting)?;
                    rerouting = true;
                }
                Ok(reply) => return Ok(reply),
                Err(e) if e.kind() == io::ErrorKind::PermissionDenied => return Err(e),
                Err(e) => {
                    self.bounce(s, &mut attempt, "transport", false)
                        .map_err(|_| e)?;
                    rerouting = false;
                }
            }
        }
    }

    /// One failure step: drop the shard's connection, flip its
    /// endpoint (if replicated), charge the retry budget, and sleep the
    /// jittered backoff. `Err` when the budget is spent.
    ///
    /// `instant` skips the sleep: a `NotPrimary` rejection is a routing
    /// signal from a live node — the flipped endpoint is known-good, so
    /// the first reroute per request should not burn a backoff step.
    /// Only the *first* consecutive one gets this (the caller clears it
    /// after use); if both endpoints claim not-primary (promotion still
    /// in flight) the subsequent flips back off normally rather than
    /// ping-ponging hot between the two.
    fn bounce(&mut self, s: usize, attempt: &mut u32, why: &str, instant: bool) -> io::Result<()> {
        self.shards[s].conn = None;
        if self.cfg.shards[s].follower_addr.is_some() {
            self.shards[s].on_follower = !self.shards[s].on_follower;
            self.metrics.failovers += 1;
        }
        *attempt += 1;
        if *attempt >= self.cfg.max_attempts {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("shard {s}: retries exhausted ({why})"),
            ));
        }
        self.metrics.retries += 1;
        if instant {
            self.metrics.instant_reroutes += 1;
            return Ok(());
        }
        let delay = self
            .cfg
            .backoff
            .delay_jittered(*attempt, self.cfg.seed ^ self.salt);
        self.salt = self.salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
        std::thread::sleep(Duration::from_millis(delay));
        Ok(())
    }

    /// One attempt on shard `s`, over its write connection to the
    /// current endpoint or, for a `read`, over the connection pinned to
    /// its follower. A closed connection redials inside the attempt.
    /// Connections never retry or resend on their own: the router owns
    /// every retry, and a resend would break at-most-once ingest.
    fn attempt(&mut self, s: usize, read: bool, frame: &Frame) -> io::Result<Frame> {
        let (cfg, st) = (&self.cfg, &mut self.shards[s]);
        let spec = &cfg.shards[s];
        let (conn, addr) = match &spec.follower_addr {
            Some(f) if read => (&mut st.read_conn, f),
            Some(f) if st.on_follower => (&mut st.conn, f),
            _ => (&mut st.conn, &spec.primary_addr),
        };
        let dial = || ClientConfig::single_attempt(addr, cfg.request_timeout_ms, cfg.token.clone());
        conn.get_or_insert_with(|| ServiceClient::new(dial()))
            .request(frame)
    }

    /// Points shard `s`'s write route at whichever endpoint currently
    /// holds the primary role at the highest epoch. Both endpoints are
    /// probed with `ReplStatus` over throwaway connections; a node that
    /// answers as a follower — or not at all — can't win, and between
    /// two self-styled primaries the higher epoch does (the lower one
    /// is a revenant that paused through its own replacement). No
    /// change when neither endpoint claims the role (failover still in
    /// flight: the caller's retry loop keeps flipping normally). The
    /// ingest resume calls this before trusting a `last_t` floor.
    pub fn aim_at_primary(&mut self, s: usize) {
        let spec = &self.cfg.shards[s];
        let Some(follower_addr) = spec.follower_addr.as_deref() else {
            return;
        };
        let mut best: Option<(u64, bool)> = None; // (epoch, use follower endpoint)
        for (addr, on_follower) in [(spec.primary_addr.as_str(), false), (follower_addr, true)] {
            let probe =
                probe_repl_status(addr, self.cfg.token.clone(), self.cfg.request_timeout_ms);
            if let crate::repl::Probe::Reached { role, epoch, .. } = probe {
                if role == crate::repl::ROLE_PRIMARY && best.is_none_or(|(be, _)| epoch > be) {
                    best = Some((epoch, on_follower));
                }
            }
        }
        if let Some((_, on_follower)) = best {
            if self.shards[s].on_follower != on_follower {
                self.shards[s].conn = None;
                self.shards[s].on_follower = on_follower;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServiceConfig};
    use fgcs_wire::SampleLoad;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shard-{i}")).collect()
    }

    #[test]
    fn rendezvous_spreads_keys_and_ignores_list_order() {
        let fwd = names(4);
        let mut counts = [0usize; 4];
        for key in 0..1_000u32 {
            counts[rendezvous_owner(&fwd, key)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (100..500).contains(c),
                "shard {i} owns {c} of 1000 keys — distribution is badly skewed"
            );
        }
        // Ownership is a function of the name set: permuting the list
        // maps every key to the same *name*.
        let mut rev = fwd.clone();
        rev.reverse();
        for key in 0..1_000u32 {
            assert_eq!(
                fwd[rendezvous_owner(&fwd, key)],
                rev[rendezvous_owner(&rev, key)]
            );
        }
    }

    fn wave(machine: u32, n: u64) -> Vec<WireSample> {
        (0..n)
            .map(|i| WireSample {
                t: i * 15,
                load: SampleLoad::Direct(if ((i + 7 * machine as u64) / 40) % 2 == 1 {
                    0.9
                } else {
                    0.05
                }),
                host_resident_mb: 100,
                alive: true,
            })
            .collect()
    }

    #[test]
    fn router_routes_ingest_and_queries_per_shard() {
        let a = Server::start(ServiceConfig::default()).unwrap();
        let b = Server::start(ServiceConfig::default()).unwrap();
        let cfg = ClusterConfig::new(vec![
            ShardSpec {
                name: "a".into(),
                primary_addr: a.local_addr().to_string(),
                follower_addr: None,
            },
            ShardSpec {
                name: "b".into(),
                primary_addr: b.local_addr().to_string(),
                follower_addr: None,
            },
        ]);
        let mut router = ClusterClient::connect(cfg).unwrap();
        for machine in 1..=8u32 {
            let reply = router.ingest(machine, wave(machine, 20)).unwrap();
            assert!(
                matches!(reply, Frame::Ack { .. }),
                "machine {machine}: {reply:?}"
            );
        }
        // Every machine landed on exactly its owning shard.
        let spin = |r: &mut ClusterClient, s: usize| -> StatsPayload {
            for _ in 0..200 {
                let st = r.stats_of(s).unwrap();
                if st.queue_depth == 0 {
                    return st;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            panic!("shard {s} never drained");
        };
        let (sa, sb) = (spin(&mut router, 0), spin(&mut router, 1));
        assert_eq!(sa.ingested_batches + sb.ingested_batches, 8);
        for machine in 1..=8u32 {
            let owner = router.shard_for(machine);
            let (on, off) = if owner == 0 { (&sa, &sb) } else { (&sb, &sa) };
            assert!(on.machines.iter().any(|m| m.machine == machine));
            assert!(!off.machines.iter().any(|m| m.machine == machine));
        }
        assert_eq!(router.metrics.retries, 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn router_fails_over_on_not_primary_and_resumes_after_a_dead_endpoint() {
        // The "primary" endpoint is actually a follower (it rejects
        // ingest with NotPrimary); the real primary is listed as the
        // follower endpoint. One flip must heal the route.
        let primary = Server::start(ServiceConfig::default()).unwrap();
        let follower = Server::start(ServiceConfig {
            // Points at a dead port: the pull loop just backs off, and
            // the node keeps rejecting ingest as a follower.
            follower_of: Some("127.0.0.1:1".to_string()),
            ..Default::default()
        })
        .unwrap();
        let mut cfg = ClusterConfig::new(vec![ShardSpec {
            name: "s".into(),
            primary_addr: follower.local_addr().to_string(),
            follower_addr: Some(primary.local_addr().to_string()),
        }]);
        cfg.backoff = BackoffPolicy { base: 1, cap: 4 };
        let mut router = ClusterClient::connect(cfg).unwrap();
        let reply = router.ingest(9, wave(9, 12)).unwrap();
        assert!(matches!(reply, Frame::Ack { .. }));
        assert_eq!(router.metrics.failovers, 1, "one flip lands on the primary");

        // The flipped route keeps serving reads too.
        let avail = router.query_avail(9, 60);
        assert!(avail.is_ok(), "queries survive the flip: {avail:?}");
        primary.shutdown();
        follower.shutdown();
    }
}
