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
//! takes no cross-loop locks.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

use fgcs_sys::EventFd;
use fgcs_wire::{
    ErrorCode, Frame, WireTransition, MAX_REPL_SNAPSHOT_BYTES, MAX_TRANSITIONS_PER_FRAME,
};

use crate::epoll::{EventLoop, LoopHandler, Outcome};
use crate::repl::PullReply;
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

    let mut running: Vec<EventLoop> = Vec::with_capacity(loops);
    for (i, listener) in listeners.into_iter().enumerate() {
        let handler = ServiceLoop {
            shared: Arc::clone(shared),
            router: LoopRouter {
                loop_id: i,
                forward_tx: std::mem::take(&mut tx_mat[i]),
                wakes: wakes.clone(),
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
        handle_conn_frame(&self.shared, frame, ctx, &mut self.router)
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
    /// specific signal.
    fn after_events(&mut self) {
        for rx in self.forward_rx.iter().flatten() {
            while let Ok(batch) = rx.try_recv() {
                self.shared.ingest_batch(batch);
                self.shared.pending_forwarded.fetch_sub(1, Ordering::AcqRel);
            }
        }
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
        }
    }

    /// Routes one accepted batch. Owned shard → ingest inline, return
    /// `None`. Foreign shard → forward; a full ring sheds the arriving
    /// batch (returned for the caller's shed accounting + Busy reply).
    fn submit(&mut self, shared: &Shared, batch: Batch) -> Option<Batch> {
        let home = shared.home_loop(batch.machine);
        if home == self.loop_id {
            shared.ingest_batch(batch);
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

/// Handles one decoded frame: auth gate first, then the request
/// dispatch. Exactly one reply per frame, always.
fn handle_conn_frame(
    shared: &Shared,
    frame: Frame,
    ctx: &mut ConnCtx,
    router: &mut LoopRouter,
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
    Outcome::Reply(handle_request(shared, frame, ctx, router))
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
        Frame::ReplPull {
            after_seq,
            max_entries,
            epoch,
        } => {
            // A node without a replication log is no replication peer:
            // no pull, whatever its epoch, may fence it.
            if !shared.repl.enabled() {
                return Frame::Error {
                    code: ErrorCode::Unsupported,
                    detail: "replication log disabled; start the server with --repl-log"
                        .to_string(),
                };
            }
            // Fencing next: a pull carrying a strictly higher epoch
            // proves a newer primary exists. If this node still
            // thought it was one (paused through a failover, then
            // revived), demote it on the spot and answer `NotPrimary`
            // — the reply is the fencer's confirmation.
            if shared.fence_if_superseded(epoch) {
                eprintln!(
                    "fgcs-service: {} demoted to follower: fenced by a newer \
                     primary at epoch {epoch}",
                    shared.cfg.addr
                );
                return Frame::Error {
                    code: ErrorCode::NotPrimary,
                    detail: format!("fenced: superseded by epoch {epoch}"),
                };
            }
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
    use crate::repl::{ROLE_FOLLOWER, ROLE_PRIMARY};
    use crate::server::ServiceConfig;
    use fgcs_stats::rng::Rng;
    use fgcs_wire::{SampleLoad, WireSample};

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
        let mut ask = |frame| match handle_conn_frame(&shared, frame, &mut ctx, &mut router) {
            Outcome::Reply(reply) | Outcome::ReplyThenClose(reply) => reply,
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

    fn ask(shared: &Shared, frame: Frame) -> Frame {
        let mut ctx = ConnCtx::default();
        let mut router = LoopRouter::solo();
        match handle_conn_frame(shared, frame, &mut ctx, &mut router) {
            Outcome::Reply(reply) | Outcome::ReplyThenClose(reply) => reply,
        }
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

    // --- A seeded frame driver over the shipped handler.

    /// A boundary-biased `u64`: 0, 1, 2, `u64::MAX - 1`, `u64::MAX` or
    /// anything.
    fn edge(rng: &mut Rng) -> u64 {
        [0, 1, 2, u64::MAX - 1, u64::MAX, rng.next_u64()][rng.below_usize(6)]
    }

    /// A frame a well-behaved peer could send: its token first, then
    /// pulls inside this node's log at this node's epoch, status and
    /// stats reads, and now and then an operator `Promote`.
    fn valid_frame(rng: &mut Rng, shared: &Shared, token: &Option<String>, authed: bool) -> Frame {
        match (token, rng.below(8)) {
            (Some(token), _) if !authed => Frame::Auth {
                token: token.clone(),
            },
            (_, 0..=2) => Frame::ReplPull {
                after_seq: rng.below(shared.repl.head_seq() + 1),
                max_entries: 1 + rng.below(64) as u32,
                epoch: shared.epoch(),
            },
            (_, 3..=4) => Frame::ReplStatus,
            (_, 5..=6) => Frame::QueryStats,
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

    /// One seeded session through the `LoopHandler` seam. The node is
    /// a primary or a follower, with or without a token, a replication
    /// log (a primary's holding a few batches) and a read bound; its
    /// one connection takes `frames` frames that go valid, then
    /// hostile, then valid, and reconnects whenever it is closed. After
    /// every frame: no panic; a reply of a reply type that encodes; an
    /// epoch that never fell; and a role that moved only follower →
    /// primary on `Promote`, or primary → follower on a `ReplPull` from
    /// a strictly higher epoch.
    fn drive_frames(seed: u64, frames: usize) -> Result<(), String> {
        let mut rng = Rng::new(seed);
        let token = rng.chance(0.5).then(|| "fuzz-token".to_string());
        let follower = rng.chance(0.5);
        let shared = Shared::new(ServiceConfig {
            event_loops: 1,
            auth_token: token.clone(),
            follower_of: follower.then(|| "127.0.0.1:9".to_string()),
            repl_log_capacity: [0, 2, 64][rng.below_usize(3)],
            max_read_lag: rng.chance(0.5).then(|| rng.below(3)),
            ..Default::default()
        })
        .unwrap();
        if !follower {
            for machine in 0..rng.below(5) as u32 {
                let samples = (0..1 + rng.below(8))
                    .map(|i| WireSample {
                        t: 60 * i,
                        load: SampleLoad::Direct(rng.f64()),
                        host_resident_mb: 64,
                        alive: true,
                    })
                    .collect();
                shared.ingest_batch(Batch { machine, samples });
            }
        }
        let mut handler = ServiceLoop {
            shared: Arc::new(shared),
            router: LoopRouter::solo(),
            forward_rx: vec![None],
        };
        let mut ctx = ConnCtx::default();
        for i in 0..frames {
            let shared = Arc::clone(&handler.shared);
            let frame = if (frames / 3..2 * frames / 3).contains(&i) {
                hostile_frame(&mut rng, &token)
            } else {
                valid_frame(&mut rng, &shared, &token, ctx.authed)
            };
            let (epoch, role) = (shared.epoch(), shared.role_code());
            let sent = frame.clone();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handler.handle(frame, &mut ctx)
            }))
            .map_err(|_| format!("frame {i} panicked the handler: {sent:?}"))?;
            let (reply, closed) = match outcome {
                Outcome::Reply(reply) => (reply, false),
                Outcome::ReplyThenClose(reply) => (reply, true),
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
            if closed {
                ctx = ConnCtx::default();
            }
        }
        Ok(())
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
