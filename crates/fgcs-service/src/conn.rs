//! The availability service's side of the event loops ([`ServiceLoop`],
//! behind the skeleton in [`crate::epoll`]): request semantics in
//! [`handle_conn_frame`] — auth gating, shed accounting, query answers,
//! one reply per frame — a single function that unit tests can call
//! without a socket, plus the cross-loop ingest rule (DESIGN.md §12).
//! A loop ingests batches for its own shards inline, so a slow server
//! shows up as TCP backpressure on the sender; batches homed on another
//! loop travel over an SPSC ring ([`std::sync::mpsc::sync_channel`],
//! one per ordered loop pair) and an `eventfd` wake, and a batch that
//! finds its ring full is shed itself and answered `Busy`. The hot path
//! takes no cross-loop locks. A replication pull with less than a batch
//! to take parks its connection ([`Outcome::Park`]) until the batch is
//! there or its hold runs out; an append on another loop wakes the
//! parking loop's `eventfd` once the log reaches the progress at which
//! a pull parked there holds a batch, not on every append.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fgcs_sys::EventFd;
use fgcs_wire::{
    ErrorCode, Frame, WireTransition, MAX_REPL_SNAPSHOT_BYTES, MAX_TRANSITIONS_PER_FRAME,
};

use crate::epoll::{EventLoop, LoopHandler, Outcome};
use crate::repl::{hold_until, pull_hold, Progress, PullReply};
use crate::snapshot;
use crate::state::{Batch, Shared};

/// Longest prediction window a peer may ask for, in seconds
/// (`QueryAvail.horizon`, `Place.job_len`): 31 days. The model scores a
/// window hour by hour — `place()` collects 32 B per hour before it
/// ranks anything — so an unbounded `u64` would let one 20-byte frame
/// buy unbounded work on an event loop. The paper's guest jobs run for
/// hours; a month leaves two orders of magnitude of room and costs at
/// most 744 slices (≈ 24 KiB) per request.
pub(crate) const MAX_WINDOW_SECS: u64 = 31 * 86_400;

/// Per-connection protocol state, owned by the event loop that runs
/// the connection.
#[derive(Debug, Default)]
struct ConnCtx {
    /// Batches accepted on this connection, echoed in `Ack`.
    pub ack_seq: u64,
    /// Whether the stream has presented a valid auth token (always
    /// `false` until then; irrelevant when the server has no token).
    pub authed: bool,
    /// Whether a pull was served or parked on this connection: its
    /// first one never waits.
    pulled: bool,
    /// The replication pull this connection's reply waits on.
    parked: Option<ParkedPull>,
}

/// A `ReplPull` waiting at this node for a batch (DESIGN.md §13.1).
#[derive(Debug, Clone, Copy)]
struct ParkedPull {
    after_seq: u64,
    max_entries: u32,
    /// When it arrived.
    since: Instant,
    /// Whether this node was primary then: a demotion meanwhile answers
    /// it `NotPrimary`.
    as_primary: bool,
}

pub(crate) fn resolve_addr(addr: &str) -> std::io::Result<SocketAddr> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("address {addr:?} resolves to nothing"),
        )
    })
}

/// Binds `loops` listeners sharing one address via `SO_REUSEPORT`: the
/// first bind resolves a concrete port (the configured one, or an
/// OS-assigned one for port 0), the rest join it.
fn bind_reuseport_set(addr: &SocketAddr, loops: usize) -> std::io::Result<Vec<TcpListener>> {
    let first = fgcs_sys::listen_reuseport(addr)?;
    let concrete = first.local_addr()?;
    let mut listeners = vec![first];
    for _ in 1..loops {
        listeners.push(fgcs_sys::listen_reuseport(&concrete)?);
    }
    Ok(listeners)
}

/// Binds the listener set and spawns all event loops. Returns the bound
/// address and the loops. Nothing keeps running unless every bind,
/// eventfd and loop setup succeeded.
pub(crate) fn spawn_loops(shared: &Arc<Shared>) -> std::io::Result<(SocketAddr, Vec<EventLoop>)> {
    let loops = shared.event_loops;
    let cfg = &shared.cfg;
    let addr = resolve_addr(&cfg.addr)?;

    // One listener per loop. A lone loop needs no port sharing, so it
    // binds plainly — std's `bind` sets `SO_REUSEADDR`, so a restarted
    // server rebinds its old port while the previous life's sockets sit
    // in TIME_WAIT; the `SO_REUSEPORT` listeners set it as well.
    let listeners = if loops > 1 {
        bind_reuseport_set(&addr, loops)?
    } else {
        vec![TcpListener::bind(addr)?]
    };
    let local = listeners[0].local_addr()?;

    let wakes: Vec<Arc<EventFd>> = (0..loops)
        .map(|_| EventFd::new().map(Arc::new))
        .collect::<std::io::Result<_>>()?;

    // One SPSC ring per ordered loop pair: src owns tx_mat[src][dst],
    // dst owns rx_mat[dst][src]. Strictly one producer and one consumer
    // per channel, so std's array-backed sync_channel runs lock-free.
    let ring_cap = cfg.queue_capacity.max(1);
    let mut tx_mat: Vec<Vec<Option<SyncSender<Batch>>>> = (0..loops)
        .map(|_| (0..loops).map(|_| None).collect())
        .collect();
    let mut rx_mat: Vec<Vec<Option<Receiver<Batch>>>> = (0..loops)
        .map(|_| (0..loops).map(|_| None).collect())
        .collect();
    for src in 0..loops {
        for dst in 0..loops {
            if src != dst {
                let (tx, rx) = sync_channel(ring_cap);
                tx_mat[src][dst] = Some(tx);
                rx_mat[dst][src] = Some(rx);
            }
        }
    }

    // One wake target per loop; none without a log, where no pull
    // parks, or without a second loop to append.
    let repl_loops = if shared.repl.enabled() && loops > 1 {
        loops
    } else {
        0
    };
    let wake_at: Arc<[WakeAt]> = (0..repl_loops).map(|_| WakeAt::default()).collect();

    let mut running: Vec<EventLoop> = Vec::with_capacity(loops);
    for (i, listener) in listeners.into_iter().enumerate() {
        let handler = ServiceLoop {
            shared: Arc::clone(shared),
            router: LoopRouter {
                loop_id: i,
                forward_tx: std::mem::take(&mut tx_mat[i]),
                wakes: wakes.clone(),
                wake_at: Arc::clone(&wake_at),
            },
            forward_rx: std::mem::take(&mut rx_mat[i]),
        };
        let max_conns = cfg.effective_max_connections();
        match EventLoop::spawn_woken(listener, max_conns, Arc::clone(&wakes[i]), handler) {
            Ok(l) => running.push(l),
            Err(e) => {
                running.iter().for_each(EventLoop::stop);
                running.into_iter().for_each(EventLoop::join);
                return Err(e);
            }
        }
    }
    Ok((local, running))
}

/// One event loop's handler: the request dispatch over the shared
/// state, plus this loop's ends of the forwarding rings.
struct ServiceLoop {
    shared: Arc<Shared>,
    router: LoopRouter,
    /// `rx[src]`: forwarded batches from loop `src`; `None` for self.
    forward_rx: Vec<Option<Receiver<Batch>>>,
}

impl LoopHandler for ServiceLoop {
    type Conn = ConnCtx;

    fn handle(&mut self, frame: Frame, ctx: &mut ConnCtx) -> Outcome {
        handle_conn_frame(&self.shared, frame, ctx, &mut self.router, Instant::now())
    }

    fn resume(&mut self, ctx: &mut ConnCtx) -> Option<Frame> {
        resume_pull(&self.shared, ctx, &self.router, Instant::now())
    }

    fn open_conns(&self) -> &AtomicU64 {
        &self.shared.active_conns
    }

    fn conn_refused(&mut self) {
        self.shared.counters.update(|c| c.conn_rejects += 1);
    }

    fn decode_error(&mut self) {
        self.shared.counters.update(|c| c.decode_errors += 1);
    }

    /// Ingests batches other loops forwarded for our shards, in
    /// source-loop order. Checked every wakeup — the eventfd wake only
    /// bounds idle latency; correctness never depends on catching a
    /// specific signal. Then withdraws this loop's wake target: the
    /// [`resume_pull`]s polled next publish again every target still
    /// waiting, so an answered pull's target does not outlive it.
    fn after_events(&mut self) {
        for rx in self.forward_rx.iter().flatten() {
            while let Ok(batch) = rx.try_recv() {
                self.shared.ingest_batch(batch);
                self.shared.pending_forwarded.fetch_sub(1, Ordering::AcqRel);
                self.router.appended(&self.shared);
            }
        }
        self.router.withdraw_wake();
    }

    /// The shutdown drain (DESIGN.md §12). The skeleton has already
    /// dropped this loop's connections (no new batches); drop the
    /// forward *senders* next, then blocking-drain every inbound ring
    /// until its sender side disconnects. Every loop drops its senders
    /// before its first blocking recv, so each drain terminates — no
    /// cyclic wait.
    fn finish(self) {
        drop(self.router);
        for rx in self.forward_rx.iter().flatten() {
            while let Ok(batch) = rx.recv() {
                self.shared.ingest_batch(batch);
                self.shared.pending_forwarded.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
}

/// A loop's view of the shard-ownership map: enough to decide, per
/// batch, between inline ingest and forwarding to the home loop.
struct LoopRouter {
    loop_id: usize,
    /// `tx[dst]`: the SPSC ring into loop `dst`; `None` for self.
    forward_tx: Vec<Option<SyncSender<Batch>>>,
    /// Every loop's wake eventfd, to nudge a forward's recipient out of
    /// `epoll_wait`.
    wakes: Vec<Arc<EventFd>>,
    /// `[dst]`: the log progress at which a pull parked on loop `dst`
    /// holds a batch. Empty without a log or with one loop.
    wake_at: Arc<[WakeAt]>,
}

/// One loop's wake target: the least [`Progress`] at which a pull
/// parked there holds a batch, per count ([`Progress::NEVER`] while
/// none waits). Per count is exact: a pull is ready once either of its
/// counts is reached.
#[derive(Debug)]
struct WakeAt {
    entries: AtomicU64,
    bytes: AtomicU64,
}

impl Default for WakeAt {
    fn default() -> WakeAt {
        WakeAt {
            entries: AtomicU64::new(u64::MAX),
            bytes: AtomicU64::new(u64::MAX),
        }
    }
}

impl WakeAt {
    // SeqCst throughout, to pair with the log's progress counters
    // (see `LoopRouter::wait_for`).
    fn load(&self) -> Progress {
        Progress {
            entries: self.entries.load(Ordering::SeqCst),
            bytes: self.bytes.load(Ordering::SeqCst),
        }
    }

    fn lower_to(&self, target: Progress) {
        self.entries.fetch_min(target.entries, Ordering::SeqCst);
        self.bytes.fetch_min(target.bytes, Ordering::SeqCst);
    }

    /// Resets to [`Progress::NEVER`], returning what was there.
    fn take(&self) -> Progress {
        Progress {
            entries: self.entries.swap(u64::MAX, Ordering::SeqCst),
            bytes: self.bytes.swap(u64::MAX, Ordering::SeqCst),
        }
    }
}

impl LoopRouter {
    /// The router of a server with one event loop: every shard is its
    /// own, so nothing is ever forwarded.
    #[cfg(test)]
    fn solo() -> LoopRouter {
        LoopRouter {
            loop_id: 0,
            forward_tx: vec![None],
            wakes: Vec::new(),
            wake_at: Arc::new([]),
        }
    }

    /// Publishes that a pull parked on this loop holds a batch once the
    /// log reaches `batch_at`, then checks the log has not got there
    /// already: `false` = it has, answer the pull now. Publishing before
    /// that check, against an appender that counts its append before
    /// it reads the targets (both SeqCst), is what keeps a wake from
    /// being lost to an append between the pull's check and the park.
    fn wait_for(&self, shared: &Shared, batch_at: Progress) -> bool {
        let Some(own) = self.wake_at.get(self.loop_id) else {
            return true;
        };
        own.lower_to(batch_at);
        !shared.repl.progress().reached(batch_at)
    }

    /// Withdraws this loop's wake target ([`ServiceLoop::after_events`]).
    fn withdraw_wake(&self) {
        if let Some(own) = self.wake_at.get(self.loop_id) {
            if own.load() != Progress::NEVER {
                own.take();
            }
        }
    }

    /// After a local append: wakes every other loop whose parked pull
    /// now holds a batch, taking its target (its pulls publish again
    /// when polled). Makes no syscall otherwise, so a parked pull costs
    /// about one signal per batch, not one per append.
    fn appended(&self, shared: &Shared) {
        if self.wake_at.is_empty() {
            return;
        }
        let now = shared.repl.progress();
        for (dst, target) in self.wake_at.iter().enumerate() {
            if dst != self.loop_id && now.reached(target.load()) && target.take() != Progress::NEVER
            {
                self.wakes[dst].signal();
            }
        }
    }

    /// Routes one accepted batch. Owned shard → ingest inline, return
    /// `None`. Foreign shard → forward; a full ring sheds the arriving
    /// batch (returned for the caller's shed accounting + Busy reply).
    fn submit(&mut self, shared: &Shared, batch: Batch) -> Option<Batch> {
        let home = shared.home_loop(batch.machine);
        if home == self.loop_id {
            shared.ingest_batch(batch);
            self.appended(shared);
            return None;
        }
        let tx = self.forward_tx[home]
            .as_ref()
            .expect("every loop pair has a forwarding ring");
        // Count the batch in flight *before* sending: once it is in the
        // ring its Ack may race ahead of the ingest, and queue_depth
        // must never claim "drained" while it is.
        shared.pending_forwarded.fetch_add(1, Ordering::AcqRel);
        match tx.try_send(batch) {
            Ok(()) => {
                self.wakes[home].signal();
                None
            }
            Err(TrySendError::Full(b)) | Err(TrySendError::Disconnected(b)) => {
                shared.pending_forwarded.fetch_sub(1, Ordering::AcqRel);
                Some(b)
            }
        }
    }
}

/// Handles one decoded frame, arrived at `now`: auth gate first, then
/// the request dispatch. Exactly one reply per frame, always — a parked
/// pull's comes from [`resume_pull`].
fn handle_conn_frame(
    shared: &Shared,
    frame: Frame,
    ctx: &mut ConnCtx,
    router: &mut LoopRouter,
    now: Instant,
) -> Outcome {
    if let Some(expected) = &shared.cfg.auth_token {
        if !ctx.authed {
            return match frame {
                Frame::Auth { ref token } if token == expected => {
                    ctx.authed = true;
                    Outcome::Reply(Frame::Ack { seq: 0 })
                }
                Frame::Auth { .. } => {
                    shared.counters.update(|c| c.auth_rejects += 1);
                    Outcome::ReplyThenClose(Frame::Error {
                        code: ErrorCode::Unauthorized,
                        detail: "auth token mismatch".to_string(),
                    })
                }
                _ => {
                    shared.counters.update(|c| c.auth_rejects += 1);
                    Outcome::ReplyThenClose(Frame::Error {
                        code: ErrorCode::Unauthorized,
                        detail: "authenticate before sending requests".to_string(),
                    })
                }
            };
        }
    }
    if let Frame::Auth { .. } = frame {
        // Re-auth on an authed stream, or auth to an open server:
        // harmless, acknowledged, not counted as a batch.
        return Outcome::Reply(Frame::Ack { seq: 0 });
    }
    if let Frame::ReplPull {
        after_seq,
        max_entries,
        epoch,
    } = frame
    {
        let pull = ParkedPull {
            after_seq,
            max_entries,
            since: now,
            as_primary: shared.is_primary(),
        };
        return repl_pull(shared, pull, epoch, ctx, router);
    }
    Outcome::Reply(handle_request(shared, frame, ctx, router))
}

/// A `ReplPull`: the repl-enabled and fencing checks, the ack, then an
/// answer now or a park until the batching rule answers it
/// ([`hold_until`]). A pull from a newer epoch never parks, nor does a
/// connection's first: a follower that (re)connects learns the head,
/// epoch and lease at once, and so opens its read-staleness gate.
fn repl_pull(
    shared: &Shared,
    pull: ParkedPull,
    epoch: u64,
    ctx: &mut ConnCtx,
    router: &LoopRouter,
) -> Outcome {
    // A node without a replication log is no replication peer:
    // no pull, whatever its epoch, may fence it.
    if !shared.repl.enabled() {
        return Outcome::Reply(Frame::Error {
            code: ErrorCode::Unsupported,
            detail: "replication log disabled; start the server with --repl-log".to_string(),
        });
    }
    // Fencing next: a pull carrying a strictly higher epoch
    // proves a newer primary exists. If this node still
    // thought it was one (paused through a failover, then
    // revived), demote it on the spot and answer `NotPrimary`
    // — the reply is the fencer's confirmation.
    let newer = epoch > shared.epoch();
    if shared.fence_if_superseded(epoch) {
        eprintln!(
            "fgcs-service: {} demoted to follower: fenced by a newer \
             primary at epoch {epoch}",
            shared.cfg.addr
        );
        return Outcome::Reply(Frame::Error {
            code: ErrorCode::NotPrimary,
            detail: format!("fenced: superseded by epoch {epoch}"),
        });
    }
    let first = !std::mem::replace(&mut ctx.pulled, true);
    let hold = pull_hold(shared.cfg.pull_interval_ms);
    let pending = shared.repl.pending(pull.after_seq, pull.max_entries);
    match hold_until(pending, Duration::ZERO, hold) {
        Some(batch_at) if !newer && !first && router.wait_for(shared, batch_at) => {
            shared.repl.ack(pull.after_seq);
            ctx.parked = Some(pull);
            Outcome::Park(pull.since + hold)
        }
        _ => Outcome::Reply(pull_reply(shared, pull.after_seq, pull.max_entries)),
    }
}

/// The reply to a connection's parked pull at `now`, once the batching
/// rule answers it or the node stopped being the primary it parked at;
/// `None` while it waits, its wake target published again.
fn resume_pull(
    shared: &Shared,
    ctx: &mut ConnCtx,
    router: &LoopRouter,
    now: Instant,
) -> Option<Frame> {
    let pull = ctx.parked?;
    let reply = if pull.as_primary && !shared.is_primary() {
        Frame::Error {
            code: ErrorCode::NotPrimary,
            detail: "demoted while the pull waited".to_string(),
        }
    } else {
        let pending = shared.repl.pending(pull.after_seq, pull.max_entries);
        let waited = now.saturating_duration_since(pull.since);
        let hold = pull_hold(shared.cfg.pull_interval_ms);
        if let Some(batch_at) = hold_until(pending, waited, hold) {
            if router.wait_for(shared, batch_at) {
                return None;
            }
        }
        pull_reply(shared, pull.after_seq, pull.max_entries)
    };
    ctx.parked = None;
    Some(reply)
}

/// The entries past `after_seq` (at most `max_entries`), or a snapshot
/// where the log no longer holds them.
fn pull_reply(shared: &Shared, after_seq: u64, max_entries: u32) -> Frame {
    match shared.repl.pull(after_seq, max_entries as usize) {
        PullReply::Entries { head_seq, entries } => Frame::ReplEntries {
            head_seq,
            epoch: shared.epoch(),
            lease_ms: shared.cfg.lease_ms,
            entries,
        },
        PullReply::NeedSnapshot => {
            let data = shared.collect_snapshot();
            let repl_seq = data.repl_seq;
            let bytes = snapshot::serialize_snapshot(&data).into_bytes();
            if bytes.len() > MAX_REPL_SNAPSHOT_BYTES {
                // The state has outgrown single-frame resync;
                // the log must be sized so followers never lag
                // past its tail (DESIGN.md §13).
                return Frame::Error {
                    code: ErrorCode::Unsupported,
                    detail: format!(
                        "state too large for snapshot resync ({} bytes); \
                         raise --repl-log so followers never need one",
                        bytes.len()
                    ),
                };
            }
            Frame::ReplSnapshot { repl_seq, bytes }
        }
    }
}

/// The request dispatch (post-auth).
fn handle_request(
    shared: &Shared,
    frame: Frame,
    ctx: &mut ConnCtx,
    router: &mut LoopRouter,
) -> Frame {
    match frame {
        Frame::SampleBatch { machine, samples } => {
            if !shared.is_primary() {
                // A fault-aware client treats this as a routing signal:
                // close, re-resolve the shard's endpoint, resend there.
                return Frame::Error {
                    code: ErrorCode::NotPrimary,
                    detail: "node is a follower; send ingest to the primary".to_string(),
                };
            }
            // Own shard: ingested before this returns. Foreign shard:
            // forwarded to its home loop, or — the one backpressure
            // rule — handed back because that ring is full.
            match router.submit(shared, Batch { machine, samples }) {
                Some(shed) => {
                    // One locked update, so a concurrent stats read can
                    // never see the shed batch without its samples.
                    let total = shared.counters.update(|c| {
                        c.shed_batches += 1;
                        c.shed_samples += shed.samples.len() as u64;
                        c.busy_replies += 1;
                        c.busy_replies
                    });
                    // Busy tells the producer that exactly this batch
                    // was not ingested; nothing accepted earlier is
                    // ever dropped or reordered.
                    Frame::Busy {
                        shed_batches: total,
                    }
                }
                None => {
                    ctx.ack_seq += 1;
                    Frame::Ack { seq: ctx.ack_seq }
                }
            }
        }
        Frame::QueryAvail { machine, horizon } => {
            if let Some(err) = window_gate(horizon).or_else(|| read_staleness_gate(shared)) {
                return err;
            }
            let Some(cell) = shared.machine_get(machine) else {
                return Frame::Error {
                    code: ErrorCode::UnknownMachine,
                    detail: format!("machine {machine} has not streamed any samples"),
                };
            };
            // A poisoned machine lock (a panic mid-ingest) must degrade
            // to a typed error on this one machine, not panic the
            // connection — that panic would take the whole event loop,
            // and every other machine's connections, with it.
            let Ok(m) = cell.lock() else {
                return poisoned_machine(machine);
            };
            let (state, last_t, available) = (m.state(), m.last_t(), m.is_available());
            drop(m);
            let prob = if available {
                shared
                    .lock_online()
                    .predict_machine(machine, last_t, horizon)
            } else {
                // Currently inside an unavailability occurrence: the
                // window cannot be failure-free.
                0.0
            };
            shared.counters.update(|c| c.queries_answered += 1);
            Frame::AvailReply {
                machine,
                state: state.code(),
                prob,
            }
        }
        Frame::Place { job_len } => {
            if let Some(err) = window_gate(job_len).or_else(|| read_staleness_gate(shared)) {
                return err;
            }
            // One pass over the online model's placement table: the
            // harvestable flags ingest publishes there (available, no
            // spike pending) and the history they are ranked by sit
            // under the one lock, so no shard map, machine cell or
            // per-fleet allocation is touched. Ties go to the lowest id.
            // With no write since the last `Place` of this length, the
            // model answers from its memo instead of the pass.
            let mut online = shared.lock_online();
            let horizon = online.horizon();
            let best = online.place(horizon, job_len);
            drop(online);
            shared.counters.update(|c| c.placements_answered += 1);
            match best {
                Some((machine, prob)) => Frame::PlaceReply {
                    machine: Some(machine),
                    prob,
                },
                None => Frame::PlaceReply {
                    machine: None,
                    prob: 0.0,
                },
            }
        }
        Frame::QueryStats => {
            if let Some(err) = read_staleness_gate(shared) {
                return err;
            }
            Frame::StatsReply(shared.stats_snapshot())
        }
        Frame::ReplStatus => {
            let st = shared.repl.status();
            Frame::ReplStatusReply {
                role: shared.role_code(),
                epoch: shared.epoch(),
                applied_seq: st.head_seq,
                head_seq: st.head_seq,
                tail_seq: st.tail_seq,
                acked_seq: st.acked_seq,
                log_len: st.len,
            }
        }
        Frame::Promote => {
            if shared.promote() {
                Frame::Ack { seq: 0 }
            } else {
                Frame::Error {
                    code: ErrorCode::Internal,
                    detail: "fencing epoch exhausted; promotion refused".to_string(),
                }
            }
        }
        Frame::QueryTransitions {
            machine,
            since_seq,
            max,
        } => {
            let Some(cell) = shared.machine_get(machine) else {
                return Frame::Error {
                    code: ErrorCode::UnknownMachine,
                    detail: format!("machine {machine} has not streamed any samples"),
                };
            };
            let cap = (max as usize).min(MAX_TRANSITIONS_PER_FRAME);
            let Ok(m) = cell.lock() else {
                return poisoned_machine(machine);
            };
            let transitions: Vec<WireTransition> = m
                .transitions()
                .iter()
                .filter(|t| t.seq >= since_seq)
                .take(cap)
                .copied()
                .collect();
            drop(m);
            Frame::Transitions {
                machine,
                transitions,
            }
        }
        // Server-to-client frames arriving at the server are protocol
        // misuse, answered (once) rather than dropped.
        other => Frame::Error {
            code: ErrorCode::Unsupported,
            detail: format!("frame tag {} is not a request", other.tag()),
        },
    }
}

/// Typed reply for a machine whose lock was poisoned by an earlier
/// panic: the one machine is unusable, the server is not.
fn poisoned_machine(machine: u32) -> Frame {
    Frame::Error {
        code: ErrorCode::Internal,
        detail: format!("machine {machine} state is poisoned by an earlier panic"),
    }
}

/// Refuses a peer-chosen prediction window above [`MAX_WINDOW_SECS`]
/// before any model work: a typed error, and the connection survives.
fn window_gate(window: u64) -> Option<Frame> {
    (window > MAX_WINDOW_SECS).then(|| Frame::Error {
        code: ErrorCode::Unsupported,
        detail: format!(
            "prediction window of {window} s exceeds the {MAX_WINDOW_SECS} s (31-day) cap"
        ),
    })
}

/// The follower-read staleness bound (DESIGN.md §13.5). Primaries and
/// unbounded followers (`max_read_lag` unset) always pass. A bounded
/// follower answers reads only while its applied head is within the
/// configured lag of the newest primary head its pull loop has seen —
/// otherwise (including before the first successful pull, and forever
/// after a divergence tripwire) the client gets `TooStale` and should
/// retry against the primary.
fn read_staleness_gate(shared: &Shared) -> Option<Frame> {
    if shared.is_primary() {
        return None;
    }
    let cap = shared.cfg.max_read_lag?;
    // Stored as `head_seq + 1` so 0 still means "never pulled" even
    // when the primary's log is legitimately empty.
    let seen_raw = shared.primary_head_seen.load(Ordering::Acquire);
    let seen = seen_raw.saturating_sub(1);
    let applied = shared.repl.head_seq();
    let lag = seen.saturating_sub(applied);
    let frozen = shared.repl_failed.load(Ordering::Acquire);
    if frozen || seen_raw == 0 || lag > cap {
        return Some(Frame::Error {
            code: ErrorCode::TooStale,
            detail: format!(
                "follower lag {lag} exceeds the read bound {cap} \
                 (applied {applied} of {seen}{})",
                if frozen { "; replication stopped" } else { "" }
            ),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repl::{PULL_HOLD_CAP, ROLE_FOLLOWER, ROLE_PRIMARY};
    use crate::server::ServiceConfig;
    use fgcs_stats::rng::Rng;
    use fgcs_wire::{SampleLoad, WireSample};
    use std::collections::VecDeque;

    #[test]
    fn poisoned_machine_cell_is_a_typed_error_and_place_never_touches_it() {
        let shared = Shared::new(ServiceConfig {
            event_loops: 1,
            ..Default::default()
        })
        .unwrap();
        for machine in [1u32, 2] {
            let samples = (0..4)
                .map(|i| WireSample {
                    t: 60 * i,
                    load: SampleLoad::Direct(0.05),
                    host_resident_mb: 64,
                    alive: true,
                })
                .collect();
            shared.ingest_batch(Batch { machine, samples });
        }
        // A panic while machine 1's lock is held, as a bug mid-ingest
        // would leave it.
        let cell = shared.machine_get(1).unwrap();
        let panicked = std::thread::spawn(move || {
            let _held = cell.lock().unwrap();
            panic!("poisoning machine 1 on purpose");
        })
        .join();
        assert!(panicked.is_err());

        let mut ctx = ConnCtx::default();
        let mut router = LoopRouter::solo();
        let mut ask = |frame| {
            reply_now(handle_conn_frame(
                &shared,
                frame,
                &mut ctx,
                &mut router,
                Instant::now(),
            ))
        };
        for frame in [
            Frame::QueryAvail {
                machine: 1,
                horizon: 1800,
            },
            Frame::QueryTransitions {
                machine: 1,
                since_seq: 0,
                max: 8,
            },
        ] {
            let reply = ask(frame);
            assert!(
                matches!(
                    reply,
                    Frame::Error {
                        code: ErrorCode::Internal,
                        ..
                    }
                ),
                "the one machine is unusable, typed: {reply:?}"
            );
        }
        // Its neighbour answers, and `Place` — which reads only the
        // online model's table, where machine 1 keeps the flag its last
        // whole batch published — answers too.
        assert!(matches!(
            ask(Frame::QueryAvail {
                machine: 2,
                horizon: 1800
            }),
            Frame::AvailReply { machine: 2, .. }
        ));
        assert!(matches!(
            ask(Frame::Place { job_len: 3600 }),
            Frame::PlaceReply {
                machine: Some(1),
                ..
            }
        ));
    }

    fn reply_now(outcome: Outcome) -> Frame {
        match outcome {
            Outcome::Reply(reply) | Outcome::ReplyThenClose(reply) => reply,
            Outcome::Park(_) => panic!("the request parked"),
        }
    }

    fn ask(shared: &Shared, frame: Frame) -> Frame {
        let mut ctx = ConnCtx::default();
        let mut router = LoopRouter::solo();
        reply_now(handle_conn_frame(
            shared,
            frame,
            &mut ctx,
            &mut router,
            Instant::now(),
        ))
    }

    #[test]
    fn a_pull_cannot_fence_a_server_without_a_replication_log() {
        let shared = Shared::new(ServiceConfig {
            event_loops: 1,
            ..Default::default()
        })
        .unwrap();
        let reply = ask(
            &shared,
            Frame::ReplPull {
                after_seq: 0,
                max_entries: 8,
                epoch: u64::MAX,
            },
        );
        assert!(
            matches!(
                reply,
                Frame::Error {
                    code: ErrorCode::Unsupported,
                    ..
                }
            ),
            "{reply:?}"
        );
        assert!(shared.is_primary(), "a standalone server was demoted");
        assert_eq!(shared.epoch(), 1);
    }

    #[test]
    fn promote_at_the_last_epoch_is_refused_and_changes_nothing() {
        let shared = Shared::new(ServiceConfig {
            event_loops: 1,
            follower_of: Some("127.0.0.1:9".to_string()),
            ..Default::default()
        })
        .unwrap();
        assert!(!shared.is_primary());
        shared.observe_epoch(u64::MAX);
        let reply = ask(&shared, Frame::Promote);
        assert!(
            matches!(
                reply,
                Frame::Error {
                    code: ErrorCode::Internal,
                    ..
                }
            ),
            "{reply:?}"
        );
        assert!(!shared.is_primary(), "promoted without a fencing epoch");
        assert_eq!(shared.epoch(), u64::MAX);

        // One below the last epoch still promotes, onto the last one.
        let shared = Shared::new(ServiceConfig {
            event_loops: 1,
            follower_of: Some("127.0.0.1:9".to_string()),
            ..Default::default()
        })
        .unwrap();
        shared.observe_epoch(u64::MAX - 1);
        assert_eq!(ask(&shared, Frame::Promote), Frame::Ack { seq: 0 });
        assert!(shared.is_primary());
        assert_eq!(shared.epoch(), u64::MAX);
        assert_eq!(ask(&shared, Frame::Promote), Frame::Ack { seq: 0 });
        assert_eq!(shared.epoch(), u64::MAX, "a repeated promote bumps nothing");
    }

    // --- The cross-loop wake: one signal per batch, none lost.

    #[test]
    fn an_append_wakes_a_parked_pull_once_per_batch_and_never_misses_it() {
        let shared = Arc::new(
            Shared::new(ServiceConfig {
                event_loops: 2,
                repl_log_capacity: 4_096,
                pull_interval_ms: 2_000,
                ..Default::default()
            })
            .unwrap(),
        );
        assert_eq!(shared.home_loop(0), 0, "machine 0 ingests on loop 0");
        let wakes: Vec<Arc<EventFd>> = (0..2).map(|_| Arc::new(EventFd::new().unwrap())).collect();
        let wake_at: Arc<[WakeAt]> = (0..2).map(|_| WakeAt::default()).collect();
        let mut routers: Vec<LoopRouter> = (0..2)
            .map(|loop_id| LoopRouter {
                loop_id,
                forward_tx: vec![None, None],
                wakes: wakes.clone(),
                wake_at: Arc::clone(&wake_at),
            })
            .collect();
        // Whether loop 1's eventfd was signalled since the last look.
        let ep = fgcs_sys::Epoll::new().unwrap();
        ep.add(wakes[1].fd(), fgcs_sys::EPOLLIN, 1).unwrap();
        let mut events = vec![fgcs_sys::EpollEvent::zeroed(); 2];
        let mut woken = || {
            let n = ep.wait(&mut events, 0).unwrap();
            wakes[1].drain();
            n > 0
        };
        let t0 = Instant::now();
        let mut clock = 0;
        let mut ingest_on_loop_0 = |routers: &mut Vec<LoopRouter>| {
            let samples = (0..128)
                .map(|_| {
                    clock += 15;
                    WireSample {
                        t: clock,
                        load: SampleLoad::Direct(0.5),
                        host_resident_mb: 64,
                        alive: true,
                    }
                })
                .collect();
            let batch = Frame::SampleBatch {
                machine: 0,
                samples,
            };
            let out =
                handle_conn_frame(&shared, batch, &mut ConnCtx::default(), &mut routers[0], t0);
            assert!(matches!(out, Outcome::Reply(Frame::Ack { .. })));
        };
        let pull = |shared: &Shared| Frame::ReplPull {
            after_seq: shared.repl.head_seq(),
            max_entries: u32::MAX,
            epoch: shared.epoch(),
        };

        // A caught-up pull parks on loop 1 (its connection's second).
        let mut follower = ConnCtx::default();
        let out = handle_conn_frame(&shared, pull(&shared), &mut follower, &mut routers[1], t0);
        assert!(matches!(out, Outcome::Reply(Frame::ReplEntries { .. })));
        let out = handle_conn_frame(&shared, pull(&shared), &mut follower, &mut routers[1], t0);
        assert!(matches!(out, Outcome::Park(_)), "{out:?}");
        // Appends on loop 0 signal loop 1 once: on the one that
        // completes the batch.
        let mut appends = 0;
        while !woken() {
            ingest_on_loop_0(&mut routers);
            appends += 1;
            assert!(appends <= 64, "no wake after {appends} appends");
        }
        assert!(appends >= 20, "woken after {appends} appends, not a batch");
        routers[1].withdraw_wake();
        match resume_pull(&shared, &mut follower, &routers[1], t0) {
            Some(Frame::ReplEntries { entries, .. }) => assert_eq!(entries.len(), appends),
            other => panic!("a full batch must answer the parked pull: {other:?}"),
        }
        // A pull answered at the hold leaves its target behind until
        // the loop's next poll withdraws it; a batch of appends after
        // that makes no syscall.
        let hold = pull_hold(shared.cfg.pull_interval_ms);
        let out = handle_conn_frame(&shared, pull(&shared), &mut follower, &mut routers[1], t0);
        assert!(matches!(out, Outcome::Park(_)), "{out:?}");
        let reply = resume_pull(&shared, &mut follower, &routers[1], t0 + hold);
        assert!(
            matches!(reply, Some(Frame::ReplEntries { ref entries, .. }) if entries.is_empty()),
            "{reply:?}"
        );
        routers[1].withdraw_wake();
        for _ in 0..appends {
            ingest_on_loop_0(&mut routers);
        }
        assert!(!woken(), "an answered pull's target woke the loop");

        // An append between a pull's check and its park: the check
        // sees less than a batch, loop 0 completes it before the target
        // is published (so it cannot signal), and the re-check after
        // publishing catches it.
        let pending = shared.repl.pending(shared.repl.head_seq(), u32::MAX);
        let batch_at = hold_until(pending, Duration::ZERO, hold).expect("less than a batch");
        for _ in 0..appends {
            ingest_on_loop_0(&mut routers);
        }
        assert!(!woken());
        assert!(
            !routers[1].wait_for(&shared, batch_at),
            "a missed append lost the wake"
        );
    }

    // --- A seeded frame driver over the shipped handler.

    /// A boundary-biased `u64`: 0, 1, 2, `u64::MAX - 1`, `u64::MAX` or
    /// anything.
    fn edge(rng: &mut Rng) -> u64 {
        [0, 1, 2, u64::MAX - 1, u64::MAX, rng.next_u64()][rng.below_usize(6)]
    }

    /// A pull around this node's log and epoch: a position below, at or
    /// past the head; no entries, one, a few, or `u32::MAX`-ish; an
    /// epoch below, at or above the node's.
    fn pull_frame(rng: &mut Rng, shared: &Shared) -> Frame {
        let (head, epoch) = (shared.repl.head_seq(), shared.epoch());
        let after_seq = match rng.below(4) {
            0 => head.saturating_sub(1 + rng.below(8)),
            1 | 2 => head,
            _ => head + 1 + rng.below(3),
        };
        let max_entries =
            [0, 1, 1 + rng.below(64) as u32, u32::MAX - 1, u32::MAX][rng.below_usize(5)];
        let epoch = match rng.below(8) {
            0 => epoch - 1,
            1 => epoch.saturating_add(1),
            _ => epoch,
        };
        Frame::ReplPull {
            after_seq,
            max_entries,
            epoch,
        }
    }

    /// A batch of 1, 8 or 128 samples for one of four machines, each
    /// machine's clock moving forward.
    fn batch_frame(rng: &mut Rng, clocks: &mut [u64; 4]) -> Frame {
        let machine = rng.below_usize(4);
        let samples = (0..[1, 8, 128][rng.below_usize(3)])
            .map(|_| {
                clocks[machine] += 15;
                WireSample {
                    t: clocks[machine],
                    load: SampleLoad::Direct(rng.f64()),
                    host_resident_mb: 64,
                    alive: true,
                }
            })
            .collect();
        Frame::SampleBatch {
            machine: machine as u32,
            samples,
        }
    }

    /// A frame a well-behaved peer could send: its token first, then
    /// pulls, sample batches (which fill what parked pulls wait for),
    /// status and stats reads, and now and then an operator `Promote`.
    fn valid_frame(
        rng: &mut Rng,
        shared: &Shared,
        token: &Option<String>,
        authed: bool,
        clocks: &mut [u64; 4],
    ) -> Frame {
        match (token, rng.below(10)) {
            (Some(token), _) if !authed => Frame::Auth {
                token: token.clone(),
            },
            (_, 0..=2) => pull_frame(rng, shared),
            (_, 3..=5) => batch_frame(rng, clocks),
            (_, 6) => Frame::ReplStatus,
            (_, 7) => Frame::QueryStats,
            _ if rng.chance(0.3) => Frame::Promote,
            _ => Frame::ReplStatus,
        }
    }

    /// A frame from a hostile or broken peer: wrong tokens, pulls at
    /// boundary cursors, caps and epochs, promotion spam.
    fn hostile_frame(rng: &mut Rng, token: &Option<String>) -> Frame {
        match rng.below(6) {
            0 => Frame::Auth {
                token: format!("forged-{}", rng.below(3)),
            },
            1 => Frame::Auth {
                token: token.clone().unwrap_or_default(),
            },
            2 | 3 => Frame::ReplPull {
                after_seq: edge(rng),
                max_entries: edge(rng) as u32,
                epoch: edge(rng),
            },
            4 => Frame::Promote,
            _ => [Frame::ReplStatus, Frame::QueryStats][rng.below_usize(2)].clone(),
        }
    }

    /// One connection of a driven session, as the event loop keeps it:
    /// the handler's state, the frames pipelined behind a parked pull,
    /// and the parked pull (its frame index, the role it parked under
    /// and when it parked).
    #[derive(Default)]
    struct Link {
        ctx: ConnCtx,
        /// Pulls handled on this connection since it opened.
        pulls: u32,
        queued: VecDeque<(usize, Frame)>,
        parked: Option<(usize, u8, Instant)>,
        /// Frame indexes in the order they were answered.
        answered: Vec<usize>,
    }

    /// A driven session: the node, its two connections, a virtual clock.
    struct Session {
        handler: ServiceLoop,
        links: [Link; 2],
        now: Instant,
        /// The last clock step: a loop tick.
        tick: Duration,
        /// Frames dropped unanswered because their connection closed
        /// before them.
        dropped: Vec<usize>,
    }

    impl Session {
        /// The loop tick: every parked pull is offered to the resume
        /// path, and an answered one lets the frames behind it run.
        fn wake(&mut self) -> Result<(), String> {
            for l in 0..2 {
                let Some((i, role, since)) = self.links[l].parked else {
                    continue;
                };
                let shared = Arc::clone(&self.handler.shared);
                let link = &mut self.links[l];
                let waited = self.now.duration_since(since);
                match resume_pull(&shared, &mut link.ctx, &self.handler.router, self.now) {
                    None if waited >= PULL_HOLD_CAP => {
                        return Err(format!("pull {i} still parked after {waited:?}"));
                    }
                    None => continue,
                    Some(_) if waited > PULL_HOLD_CAP + self.tick => {
                        return Err(format!("pull {i} answered only after {waited:?}"));
                    }
                    Some(reply) => {
                        let demoted = role == ROLE_PRIMARY && !shared.is_primary();
                        let not_primary = matches!(
                            reply,
                            Frame::Error {
                                code: ErrorCode::NotPrimary,
                                ..
                            }
                        );
                        if demoted != not_primary {
                            return Err(format!(
                                "pull {i} parked as {role}, now {}: answered {reply:?}",
                                shared.role_code()
                            ));
                        }
                        if !matches!(
                            reply,
                            Frame::ReplEntries { .. }
                                | Frame::ReplSnapshot { .. }
                                | Frame::Error { .. }
                        ) || reply.encode().is_err()
                        {
                            return Err(format!("pull {i} resumed unsendable {reply:?}"));
                        }
                        if link.ctx.parked.is_some() {
                            return Err(format!("pull {i} answered but still parked"));
                        }
                        link.parked = None;
                        link.answered.push(i);
                    }
                }
                self.run(l)?;
            }
            Ok(())
        }

        /// Handles link `l`'s queued frames until one parks it.
        fn run(&mut self, l: usize) -> Result<(), String> {
            while self.links[l].parked.is_none() {
                let Some((i, frame)) = self.links[l].queued.pop_front() else {
                    break;
                };
                self.handle(l, i, frame)?;
            }
            Ok(())
        }

        /// Hands frame `i` to the handler on link `l` and checks the
        /// outcome: no panic; a reply of a reply type that encodes, or
        /// a park of a pull that wants entries, carries no newer epoch
        /// and is not its connection's first, due within the cap; an
        /// epoch that never fell; and a
        /// role that moved only follower → primary on `Promote`, or
        /// primary → follower on a `ReplPull` from a strictly higher
        /// epoch.
        fn handle(&mut self, l: usize, i: usize, frame: Frame) -> Result<(), String> {
            let shared = Arc::clone(&self.handler.shared);
            let (epoch, role) = (shared.epoch(), shared.role_code());
            let sent = frame.clone();
            let link = &mut self.links[l];
            link.pulls += u32::from(matches!(sent, Frame::ReplPull { .. }));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let router = &mut self.handler.router;
                handle_conn_frame(&shared, frame, &mut link.ctx, router, self.now)
            }))
            .map_err(|_| format!("frame {i} panicked the handler: {sent:?}"))?;
            let (epoch_after, role_after) = (shared.epoch(), shared.role_code());
            if epoch_after < epoch {
                return Err(format!(
                    "frame {i} {sent:?} lowered the epoch {epoch} → {epoch_after}"
                ));
            }
            let allowed = match sent {
                _ if role_after == role => true,
                Frame::Promote => role_after == ROLE_PRIMARY,
                Frame::ReplPull { epoch: theirs, .. } => {
                    role_after == ROLE_FOLLOWER && theirs > epoch
                }
                _ => false,
            };
            if !allowed {
                return Err(format!(
                    "frame {i} {sent:?} moved role {role} → {role_after}"
                ));
            }
            let (reply, closed) = match outcome {
                Outcome::Reply(reply) => (reply, false),
                Outcome::ReplyThenClose(reply) => (reply, true),
                Outcome::Park(deadline) => {
                    let parkable = link.pulls > 1
                        && matches!(
                            sent,
                            Frame::ReplPull { max_entries, epoch: theirs, .. }
                                if max_entries > 0 && theirs <= epoch
                        );
                    if !parkable || link.ctx.parked.is_none() {
                        return Err(format!("frame {i} {sent:?} parked"));
                    }
                    if deadline > self.now + PULL_HOLD_CAP {
                        return Err(format!("frame {i} parked past the cap"));
                    }
                    link.parked = Some((i, role, self.now));
                    return Ok(());
                }
            };
            let typed = matches!(
                reply,
                Frame::Ack { .. }
                    | Frame::Error { .. }
                    | Frame::ReplEntries { .. }
                    | Frame::ReplSnapshot { .. }
                    | Frame::ReplStatusReply { .. }
                    | Frame::StatsReply(_)
            );
            if !typed || reply.encode().is_err() {
                return Err(format!(
                    "frame {i} {sent:?} got an unsendable reply {reply:?}"
                ));
            }
            link.answered.push(i);
            if closed {
                (link.ctx, link.pulls) = (ConnCtx::default(), 0);
                self.dropped.extend(link.queued.drain(..).map(|(j, _)| j));
            }
            Ok(())
        }
    }

    /// One seeded session through the `LoopHandler` seam. The node is
    /// a primary or a follower, with or without a token, a replication
    /// log (a primary's holding a few batches) and a read bound; its
    /// two connections take `frames` frames between them that go
    /// valid, then hostile, then valid, reconnecting whenever closed,
    /// while a virtual clock ticks 0–9 ms per frame. A parked pull holds
    /// back the frames sent behind it on its connection, as the event
    /// loop does. Every frame is checked as [`Session::handle`] and
    /// every resume as [`Session::wake`] say; at the end, past the cap,
    /// every frame has been answered exactly once, in order on its
    /// connection, unless its connection closed before it.
    fn drive_frames(seed: u64, frames: usize) -> Result<(), String> {
        let mut rng = Rng::new(seed);
        let token = rng.chance(0.5).then(|| "fuzz-token".to_string());
        let follower = rng.chance(0.5);
        let shared = Shared::new(ServiceConfig {
            event_loops: 1,
            auth_token: token.clone(),
            follower_of: follower.then(|| "127.0.0.1:9".to_string()),
            repl_log_capacity: [0, 2, 64, 4_096][rng.below_usize(4)],
            max_read_lag: rng.chance(0.5).then(|| rng.below(3)),
            pull_interval_ms: [0, 1, 5, 2_000][rng.below_usize(4)],
            ..Default::default()
        })
        .unwrap();
        let mut clocks = [0u64; 4];
        if !follower {
            for _ in 0..rng.below(5) {
                if let Frame::SampleBatch { machine, samples } = batch_frame(&mut rng, &mut clocks)
                {
                    shared.ingest_batch(Batch { machine, samples });
                }
            }
        }
        let mut session = Session {
            handler: ServiceLoop {
                shared: Arc::new(shared),
                router: LoopRouter::solo(),
                forward_rx: vec![None],
            },
            links: Default::default(),
            now: Instant::now(),
            tick: Duration::ZERO,
            dropped: Vec::new(),
        };
        for i in 0..frames {
            session.tick = Duration::from_micros([0, 100, 1_000, 4_000, 9_000][rng.below_usize(5)]);
            session.now += session.tick;
            session.wake()?;
            let l = rng.below_usize(2);
            let shared = Arc::clone(&session.handler.shared);
            let authed = session.links[l].ctx.authed;
            let frame = if (frames / 3..2 * frames / 3).contains(&i) {
                hostile_frame(&mut rng, &token)
            } else {
                valid_frame(&mut rng, &shared, &token, authed, &mut clocks)
            };
            session.links[l].queued.push_back((i, frame));
            session.run(l)?;
        }
        session.tick = PULL_HOLD_CAP;
        while session.links.iter().any(|link| link.parked.is_some()) {
            session.now += session.tick;
            session.wake()?;
        }
        let mut replies = vec![0u32; frames];
        for link in &session.links {
            if !link.answered.is_sorted() {
                return Err(format!("replies out of order: {:?}", link.answered));
            }
            link.answered.iter().for_each(|&i| replies[i] += 1);
        }
        session.dropped.iter().for_each(|&i| replies[i] += 1);
        match replies.iter().position(|&n| n != 1) {
            Some(i) => Err(format!("frame {i} got {} replies", replies[i])),
            None => Ok(()),
        }
    }

    #[test]
    fn hostile_frames_never_break_the_handler_or_its_transitions() {
        let test = "hostile_frames_never_break_the_handler_or_its_transitions";
        crate::repl::tests::sweep(test, 300, |seed| drive_frames(seed, 60));
    }

    /// The CI sweep (`scripts/ci.sh`, release): 5,000 sessions of 60
    /// frames, 300,000 frames.
    #[test]
    #[ignore]
    fn hostile_frames_never_break_the_handler_or_its_transitions_wide() {
        let test = "hostile_frames_never_break_the_handler_or_its_transitions_wide";
        crate::repl::tests::sweep(test, 5_000, |seed| drive_frames(seed, 60));
    }
}
