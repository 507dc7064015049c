//! Cluster routing client: rendezvous-hashed sharding over a
//! fault-hardened [`ClientPool`] transport (Linux only).
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
//!   runs against one deadline; a hung server surfaces as `TimedOut`,
//!   not a wedged caller;
//! * **capped-exponential-backoff retries with jitter** — the shared
//!   [`BackoffPolicy`] used by [`crate::ServiceClient`] and the testbed
//!   supervisor;
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
use std::time::{Duration, Instant};

use fgcs_core::backoff::BackoffPolicy;
use fgcs_wire::{ErrorCode, Frame, StatsPayload, WireSample};

use crate::pool::{ClientPool, PoolCloseReason, PoolEvent};

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
    /// Per-slot nonblocking connect deadline, ms ([`ClientPool::add`]).
    pub connect_timeout_ms: u64,
    /// Total attempts per request before the last error surfaces.
    pub max_attempts: u32,
    /// Backoff between attempts, ms; jittered to half-open
    /// `[delay/2, delay]` so a fleet of routers doesn't thunder back.
    pub backoff: BackoffPolicy,
    /// Jitter seed; vary per router instance to decorrelate them.
    pub seed: u64,
}

impl ClusterConfig {
    /// Defaults: 2 s request deadline, 1 s connect deadline, 8
    /// attempts, 20 ms → 500 ms backoff, no token.
    pub fn new(shards: Vec<ShardSpec>) -> Self {
        ClusterConfig {
            shards,
            token: None,
            request_timeout_ms: 2_000,
            connect_timeout_ms: 1_000,
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
    /// The pool slot holding this shard's write connection, if open.
    slot: Option<usize>,
    /// The pool slot pinned to the follower endpoint for reads, if
    /// open. Kept separate from the write slot so read traffic never
    /// evicts the primary connection (and vice versa).
    read_slot: Option<usize>,
}

/// The blocking cluster router. See the module docs for the fault
/// model; one instance is single-threaded (one request in flight).
pub struct ClusterClient {
    cfg: ClusterConfig,
    pool: ClientPool,
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

impl ClusterClient {
    /// Builds a router over `cfg.shards`. Connections are opened
    /// lazily, so a dead node costs nothing until a request routes to
    /// it. Errors only on epoll setup failure or zero shards.
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
                slot: None,
                read_slot: None,
            })
            .collect();
        Ok(ClusterClient {
            pool: ClientPool::new()?,
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
            match self.try_on(shard, &frame) {
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
        match self.request_on(s, &Frame::QueryStats)? {
            Frame::StatsReply(stats) => Ok(stats),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply to QueryStats: tag {}", other.tag()),
            )),
        }
    }

    /// `QueryStats` against shard `s`, preferring the follower replica.
    /// Fine for dashboards and load checks; never feed the result into
    /// a dedup decision (see [`ClusterClient::stats_of`]).
    pub fn read_stats_of(&mut self, s: usize) -> io::Result<StatsPayload> {
        match self.read_on(s, &Frame::QueryStats)? {
            Frame::StatsReply(stats) => Ok(stats),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply to QueryStats: tag {}", other.tag()),
            )),
        }
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
            match self.try_read(s, frame) {
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
            match self.try_on(s, frame) {
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
        if let Some(slot) = self.shards[s].slot.take() {
            self.pool.close(slot);
        }
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

    /// One attempt: connect (+auth) if needed, send, await the reply,
    /// all against a single deadline.
    fn try_on(&mut self, s: usize, frame: &Frame) -> io::Result<Frame> {
        let deadline = Instant::now() + Duration::from_millis(self.cfg.request_timeout_ms.max(1));
        let slot = self.ensure_slot(s, deadline)?;
        if !self.pool.send(slot, frame) {
            self.unmap(slot);
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection died before the request was written",
            ));
        }
        self.await_reply(slot, deadline)
    }

    /// One attempt against shard `s`'s follower endpoint, over the
    /// shard's dedicated read slot. No retries here — the caller falls
    /// back to the write path on failure.
    fn try_read(&mut self, s: usize, frame: &Frame) -> io::Result<Frame> {
        let deadline = Instant::now() + Duration::from_millis(self.cfg.request_timeout_ms.max(1));
        let slot = match self.shards[s].read_slot {
            Some(slot) if self.pool.is_open(slot) => slot,
            _ => {
                self.shards[s].read_slot = None;
                let addr = self.cfg.shards[s]
                    .follower_addr
                    .clone()
                    .expect("read path requires a follower endpoint");
                let slot = self.pool.add(&addr, self.cfg.connect_timeout_ms)?;
                self.shards[s].read_slot = Some(slot);
                if let Err(e) = self.handshake(slot, deadline) {
                    self.shards[s].read_slot = None;
                    return Err(e);
                }
                slot
            }
        };
        if !self.pool.send(slot, frame) {
            self.unmap(slot);
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection died before the request was written",
            ));
        }
        self.await_reply(slot, deadline)
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
        let Some(follower_addr) = self.cfg.shards[s].follower_addr.clone() else {
            return;
        };
        let primary_addr = self.cfg.shards[s].primary_addr.clone();
        let mut best: Option<(u64, bool)> = None; // (epoch, use follower endpoint)
        for (addr, on_follower) in [(primary_addr, false), (follower_addr, true)] {
            if let Some((role, epoch)) = self.probe_role(&addr) {
                if role == crate::repl::ROLE_PRIMARY && best.is_none_or(|(be, _)| epoch > be) {
                    best = Some((epoch, on_follower));
                }
            }
        }
        if let Some((_, on_follower)) = best {
            if self.shards[s].on_follower != on_follower {
                if let Some(slot) = self.shards[s].slot.take() {
                    self.pool.close(slot);
                }
                self.shards[s].on_follower = on_follower;
            }
        }
    }

    /// `ReplStatus` against one address over a throwaway connection:
    /// `Some((role, epoch))` on a well-formed reply, `None` otherwise.
    fn probe_role(&mut self, addr: &str) -> Option<(u8, u64)> {
        let deadline = Instant::now() + Duration::from_millis(self.cfg.request_timeout_ms.max(1));
        let slot = self.pool.add(addr, self.cfg.connect_timeout_ms).ok()?;
        let result = (|| {
            self.handshake(slot, deadline).ok()?;
            if !self.pool.send(slot, &Frame::ReplStatus) {
                return None;
            }
            match self.await_reply(slot, deadline) {
                Ok(Frame::ReplStatusReply { role, epoch, .. }) => Some((role, epoch)),
                _ => None,
            }
        })();
        self.pool.close(slot);
        result
    }

    /// Returns an open slot for shard `s`, dialing its current
    /// endpoint (and authenticating) if none is cached. Sends are
    /// buffered while the nonblocking connect resolves, so no
    /// round-trip is spent waiting for the handshake itself.
    fn ensure_slot(&mut self, s: usize, deadline: Instant) -> io::Result<usize> {
        if let Some(slot) = self.shards[s].slot {
            if self.pool.is_open(slot) {
                return Ok(slot);
            }
            self.shards[s].slot = None;
        }
        let addr = self.endpoint_of(s).to_string();
        let slot = self.pool.add(&addr, self.cfg.connect_timeout_ms)?;
        self.shards[s].slot = Some(slot);
        if let Err(e) = self.handshake(slot, deadline) {
            self.shards[s].slot = None;
            return Err(e);
        }
        Ok(slot)
    }

    /// Authenticates a freshly added slot when the cluster has a token
    /// (no-op otherwise). On failure the slot is closed; the caller
    /// must drop its reference.
    fn handshake(&mut self, slot: usize, deadline: Instant) -> io::Result<()> {
        let Some(token) = self.cfg.token.clone() else {
            return Ok(());
        };
        if !self.pool.send(slot, &Frame::Auth { token }) {
            self.unmap(slot);
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection died before Auth was written",
            ));
        }
        match self.await_reply(slot, deadline)? {
            Frame::Ack { .. } => Ok(()),
            Frame::Error { code, detail } => {
                self.pool.close(slot);
                let kind = if code == ErrorCode::Unauthorized {
                    // Terminal: backoff cannot fix a wrong secret.
                    io::ErrorKind::PermissionDenied
                } else {
                    io::ErrorKind::ConnectionRefused
                };
                Err(io::Error::new(kind, format!("auth rejected: {detail}")))
            }
            other => {
                self.pool.close(slot);
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected reply to Auth: tag {}", other.tag()),
                ))
            }
        }
    }

    /// Pumps the pool until `slot` yields a frame, dies, or the
    /// deadline passes (which closes the slot: a late reply to an
    /// abandoned request must never be mistaken for the next one).
    fn await_reply(&mut self, slot: usize, deadline: Instant) -> io::Result<Frame> {
        let mut events: Vec<PoolEvent> = Vec::new();
        loop {
            let now = Instant::now();
            if now >= deadline {
                self.pool.close(slot);
                self.unmap(slot);
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "request deadline exceeded",
                ));
            }
            let budget = deadline
                .saturating_duration_since(now)
                .as_millis()
                .clamp(1, i32::MAX as u128) as i32;
            events.clear();
            self.pool.poll(budget, &mut events)?;
            let mut reply: Option<Frame> = None;
            let mut died: Option<PoolCloseReason> = None;
            for ev in events.drain(..) {
                match ev {
                    PoolEvent::Connected { .. } => {}
                    PoolEvent::Frame { slot: from, frame } if from == slot => {
                        if reply.is_none() {
                            reply = Some(frame);
                        }
                    }
                    // A frame on another shard's slot with no request
                    // outstanding there: a late reply to an abandoned
                    // request. Dropping it is exactly why timed-out
                    // slots are closed, but be safe against races.
                    PoolEvent::Frame { .. } => {}
                    PoolEvent::Closed { slot: from, reason } => {
                        self.unmap(from);
                        if from == slot {
                            died = Some(reason);
                        }
                    }
                }
            }
            if let Some(frame) = reply {
                return Ok(frame);
            }
            if let Some(reason) = died {
                let kind = match reason {
                    PoolCloseReason::ConnectTimeout => io::ErrorKind::TimedOut,
                    PoolCloseReason::Eof => io::ErrorKind::UnexpectedEof,
                    _ => io::ErrorKind::ConnectionReset,
                };
                return Err(io::Error::new(
                    kind,
                    format!("connection closed ({reason:?})"),
                ));
            }
        }
    }

    /// Clears whichever shard holds pool slot `slot` (write or read).
    fn unmap(&mut self, slot: usize) {
        for st in &mut self.shards {
            if st.slot == Some(slot) {
                st.slot = None;
            }
            if st.read_slot == Some(slot) {
                st.read_slot = None;
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
