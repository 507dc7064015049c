//! Primary → follower replication: the seq log and the pull loop.
//!
//! Replication streams the primary's ingested sample batches — not its
//! derived state — to a follower, which replays them through its own
//! (deterministic) ingest path and therefore rebuilds records and
//! transitions **bit-identically**. The protocol is pull-based so it
//! rides the existing strict request/reply connection handling: the
//! follower sends [`Frame::ReplPull`] and the primary
//! answers with entries, an empty reply (caught up), or a full
//! snapshot when the requested position has been trimmed from the log.
//! A pull with less than a batch to take waits at the primary for one
//! ([`hold_until`], the long-poll's batching rule), so a caught-up
//! follower sends its next pull at once instead of napping.
//!
//! ## Exactly-once apply
//!
//! Every log entry carries a primary-global sequence number, and every
//! machine cell remembers the newest entry applied to it
//! (`MachineState::last_repl_seq`, persisted in snapshots). Entry
//! append (primary) and entry apply (follower) both happen inside the
//! machine's critical section, with the log lock nested inside
//! (machine → log, never the reverse), so:
//!
//! * log order equals seq order — a pull never observes seq `N`
//!   without `N-1`;
//! * a snapshot collector that reads the log head *first* and then
//!   captures machines is a consistent cut: everything at or below
//!   that head is fully contained, anything above it is absorbed on
//!   restore by the per-machine `last_repl_seq` skip check.
//!
//! A restarted follower therefore resumes with `after_seq =` its own
//! log head; duplicate deliveries are skipped per machine, gaps are
//! impossible, and nothing is ever applied twice.
//!
//! ## Divergence tripwires
//!
//! Each entry records the primary's post-apply cursors
//! (`last_t_after`, `next_seq_after`). The follower asserts its own
//! cursors land exactly there after applying; any mismatch means the
//! replicas have diverged and the pull loop stops hard rather than
//! silently corrupting the follower.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fgcs_core::backoff::BackoffPolicy;
use fgcs_wire::{
    EncodedSamples, ErrorCode, Frame, ReplEntry, MAX_FRAME_LEN, MAX_REPL_ENTRIES_PER_FRAME,
    REPL_ENTRIES_HEADER_LEN,
};

use crate::client::{probe_repl_status, ClientConfig, ServiceClient};
use crate::snapshot;
use crate::state::Shared;

/// Role code for a primary, as carried in `ReplStatusReply::role`.
pub const ROLE_PRIMARY: u8 = 1;
/// Role code for a follower.
pub const ROLE_FOLLOWER: u8 = 2;

/// Default log capacity (entries) when a node is started as a follower
/// without an explicit `repl_log_capacity`: a promoted follower must be
/// able to serve its *own* follower from the log it mirrored.
pub(crate) const DEFAULT_REPL_LOG_CAPACITY: usize = 4_096;

/// One batch of a pull, in sample-encoding bytes: a pull finding less
/// past its position waits for more ([`hold_until`]). One event-loop
/// read scratch, 24 entries of 128 samples.
pub(crate) const REPL_BATCH_BYTES: u64 = 64 * 1024;

/// The longest any pull waits for a batch, whatever `pull_interval_ms`
/// says: well under the 50 ms floor of a follower's attempt deadline.
pub(crate) const PULL_HOLD_CAP: Duration = Duration::from_millis(25);

/// How long this node holds a pull that has less than a batch to take:
/// `pull_interval_ms`, at least 1 ms and at most [`PULL_HOLD_CAP`].
pub(crate) fn pull_hold(pull_interval_ms: u64) -> Duration {
    Duration::from_millis(pull_interval_ms.max(1)).min(PULL_HOLD_CAP)
}

/// How much a log has taken since it was made: entries and their
/// sample-encoding bytes. Both only grow (a snapshot reset or a raised
/// cursor rewinds neither), so a waiting pull can name the progress at
/// which it holds a batch, and an appender on another thread can tell
/// when the log got there without taking its lock
/// ([`ReplLog::progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Progress {
    pub entries: u64,
    pub bytes: u64,
}

impl Progress {
    /// A target no log reaches: nothing waits.
    pub const NEVER: Progress = Progress {
        entries: u64::MAX,
        bytes: u64::MAX,
    };

    /// Whether this progress has reached `target` on either count.
    pub fn reached(self, target: Progress) -> bool {
        self.entries >= target.entries || self.bytes >= target.bytes
    }
}

/// Where a pull stands against the log ([`ReplLog::pending`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pending {
    /// The log's progress at the check.
    pub now: Progress,
    /// The progress at which the pull holds a batch: as many entries
    /// past its position as one reply takes (its `max_entries`, a
    /// frame's, the log's capacity — waiting for more would trim its
    /// position), or [`REPL_BATCH_BYTES`] of their samples.
    pub batch_at: Progress,
}

/// The long-poll's batching rule (DESIGN.md §13.1): whether a pull is
/// answered now or held at this node for more to take. `pending` is
/// `None` where only a snapshot serves the position (trimmed, or past
/// the head); `waited` is how long the pull has waited, `hold` the
/// longest it may ([`pull_hold`]). `None` answers now: a pull wanting
/// no entries (the fencer's) never waits, nor does one that holds a
/// batch. `Some(batch_at)` holds it until the log reaches `batch_at`.
pub(crate) fn hold_until(
    pending: Option<Pending>,
    waited: Duration,
    hold: Duration,
) -> Option<Progress> {
    let p = pending?;
    (!p.now.reached(p.batch_at) && waited < hold).then_some(p.batch_at)
}

/// What a [`ReplLog::pull`] request gets back.
pub(crate) enum PullReply {
    /// The requested position is retained: entries past `after_seq`
    /// (possibly none, when the puller is caught up).
    Entries {
        /// Newest seq allocated (0 when nothing was ever logged).
        head_seq: u64,
        /// Seq-ascending entries starting just past `after_seq`.
        entries: Vec<ReplEntry>,
    },
    /// The position was trimmed (or the puller has diverged ahead of
    /// the log); only a full snapshot can resync it.
    NeedSnapshot,
}

/// Log cursors for `ReplStatusReply`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplLogStatus {
    pub head_seq: u64,
    pub tail_seq: u64,
    pub acked_seq: u64,
    pub len: u64,
    /// Bytes of sample encodings the retained entries hold.
    pub sample_bytes: u64,
}

#[derive(Debug)]
struct ReplLogInner {
    /// Retained entries, oldest first, seqs contiguous up to
    /// `next_seq - 1`: `append_local` allocates consecutively,
    /// `append_remote` refuses gaps, and every cursor jump clears the
    /// deque — so an entry's position is its seq minus the front's.
    entries: VecDeque<ReplEntry>,
    /// Next seq to allocate (primary) / expect (follower). Head is
    /// `next_seq - 1`.
    next_seq: u64,
    /// Highest applied-seq any puller has acknowledged.
    acked_seq: u64,
    /// Sum of the retained entries' `samples.byte_len()`.
    sample_bytes: u64,
}

impl ReplLogInner {
    /// Retains `entry` as the newest, trimming the oldest past `capacity`.
    fn push(&mut self, entry: ReplEntry, capacity: usize) {
        self.sample_bytes += entry.samples.byte_len() as u64;
        self.entries.push_back(entry);
        while self.entries.len() > capacity {
            if let Some(old) = self.entries.pop_front() {
                self.sample_bytes -= old.samples.byte_len() as u64;
            }
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.sample_bytes = 0;
    }

    fn ack(&mut self, after_seq: u64) {
        if after_seq < self.next_seq {
            self.acked_seq = self.acked_seq.max(after_seq);
        }
    }

    /// Where a pull from `after_seq` starts in `entries` (`len` when it
    /// is caught up), or `None` where only a snapshot serves it: past
    /// the head (the puller claims more than this log ever allocated —
    /// divergence, e.g. it pulled from a different primary), or trimmed
    /// past its position (or nothing retained while the head moved).
    fn position(&self, after_seq: u64) -> Option<usize> {
        let head = self.next_seq - 1;
        if after_seq >= head {
            return (after_seq == head).then_some(self.entries.len());
        }
        let front = self.entries.front()?.seq;
        (front <= after_seq + 1).then(|| (after_seq + 1 - front) as usize)
    }
}

/// The replication seq log: a bounded ring of the most recent ingested
/// batches, in seq order. Capacity 0 disables replication entirely
/// ([`ReplLog::enabled`]); the log then never retains anything and
/// pulls are answered `Unsupported`.
#[derive(Debug)]
pub(crate) struct ReplLog {
    capacity: usize,
    inner: Mutex<ReplLogInner>,
    /// [`Progress`], counted under the lock and read without it.
    appended_entries: AtomicU64,
    appended_bytes: AtomicU64,
}

impl ReplLog {
    pub(crate) fn new(capacity: usize) -> Self {
        ReplLog {
            capacity,
            inner: Mutex::new(ReplLogInner {
                entries: VecDeque::new(),
                next_seq: 1,
                acked_seq: 0,
                sample_bytes: 0,
            }),
            appended_entries: AtomicU64::new(0),
            appended_bytes: AtomicU64::new(0),
        }
    }

    /// Whether this node retains a log at all.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Newest seq allocated/applied (0 before anything was logged).
    pub(crate) fn head_seq(&self) -> u64 {
        self.inner.lock().unwrap().next_seq - 1
    }

    /// Allocates the next seq for a locally ingested batch and retains
    /// the entry. Called by the primary's ingest path while it holds
    /// the batch's machine lock — that nesting (machine → log) is what
    /// makes log order equal seq order. The caller encodes the samples
    /// before taking either lock.
    pub(crate) fn append_local(
        &self,
        machine: u32,
        samples: EncodedSamples,
        last_t_after: u64,
        next_seq_after: u64,
    ) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let entry = ReplEntry {
            seq,
            machine,
            last_t_after,
            next_seq_after,
            samples,
        };
        self.retain(&mut inner, entry);
        seq
    }

    /// Retains a new entry and counts it in [`ReplLog::progress`], in
    /// one critical section.
    fn retain(&self, inner: &mut ReplLogInner, entry: ReplEntry) {
        // SeqCst: an appender's count and a parked pull's published
        // target (`conn.rs`) are read across threads without the lock.
        self.appended_entries.fetch_add(1, Ordering::SeqCst);
        self.appended_bytes
            .fetch_add(entry.samples.byte_len() as u64, Ordering::SeqCst);
        inner.push(entry, self.capacity);
    }

    /// How much this log has taken ([`Progress`]).
    pub(crate) fn progress(&self) -> Progress {
        Progress {
            entries: self.appended_entries.load(Ordering::SeqCst),
            bytes: self.appended_bytes.load(Ordering::SeqCst),
        }
    }

    /// Mirrors a pulled entry into this follower's own log (so a
    /// promoted follower can serve *its* follower) and advances the
    /// expected cursor. Entries below the cursor are duplicate
    /// deliveries and ignored; a gap above it is a protocol violation.
    pub(crate) fn append_remote(&self, entry: ReplEntry) -> Result<(), String> {
        let mut inner = self.inner.lock().unwrap();
        if entry.seq < inner.next_seq {
            return Ok(());
        }
        if entry.seq > inner.next_seq {
            return Err(format!(
                "replication gap: expected seq {}, got {}",
                inner.next_seq, entry.seq
            ));
        }
        inner.next_seq = entry.seq + 1;
        self.retain(&mut inner, entry);
        Ok(())
    }

    /// Resets the cursor after installing a snapshot consistent with
    /// `repl_seq`, discarding any retained entries (they predate the
    /// snapshot or will be re-pulled).
    pub(crate) fn reset_to(&self, repl_seq: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.clear();
        inner.next_seq = repl_seq + 1;
    }

    /// Raises the allocation cursor to at least `next` (never lowers
    /// it) — used on restore and promotion so a new primary can never
    /// re-allocate a seq some machine cell already carries.
    pub(crate) fn raise_next(&self, next: u64) {
        let mut inner = self.inner.lock().unwrap();
        if next > inner.next_seq {
            inner.clear();
            inner.next_seq = next;
        }
    }

    /// Highest applied-seq acked by a puller.
    pub(crate) fn acked_seq(&self) -> u64 {
        self.inner.lock().unwrap().acked_seq
    }

    /// Records a puller's ack that everything through `after_seq` is
    /// applied — unless it is past the head, which this log never
    /// allocated.
    pub(crate) fn ack(&self, after_seq: u64) {
        self.inner.lock().unwrap().ack(after_seq);
    }

    /// Where a pull from `after_seq` taking `max_entries` stands: `None`
    /// where only a snapshot serves it (trimmed, or past the head).
    pub(crate) fn pending(&self, after_seq: u64, max_entries: u32) -> Option<Pending> {
        let inner = self.inner.lock().unwrap();
        let past = inner.entries.range(inner.position(after_seq)?..);
        let room = (max_entries as usize)
            .min(MAX_REPL_ENTRIES_PER_FRAME)
            .min(self.capacity);
        let entries = past.len() as u64;
        let mut bytes = 0;
        for e in past.take(room) {
            if bytes >= REPL_BATCH_BYTES {
                break;
            }
            bytes += e.samples.byte_len() as u64;
        }
        // Under the lock, `now` counts exactly the entries checked.
        let now = self.progress();
        Some(Pending {
            now,
            batch_at: Progress {
                entries: now.entries - entries + room as u64,
                bytes: now.bytes - bytes + REPL_BATCH_BYTES,
            },
        })
    }

    /// Answers a pull for entries past `after_seq`: at most
    /// `max_entries`, and no more than one frame can carry — a puller
    /// further behind than that gets the oldest part now and the rest on
    /// its next pull (each reply holds at least one entry, so it always
    /// advances). The entries share the log's sample encodings.
    ///
    /// A pull for `after_seq = N` doubles as the puller's ack that
    /// everything through N is applied — unless N is past the head,
    /// which this log never allocated.
    pub(crate) fn pull(&self, after_seq: u64, max_entries: usize) -> PullReply {
        let mut inner = self.inner.lock().unwrap();
        inner.ack(after_seq);
        let Some(skip) = inner.position(after_seq) else {
            return PullReply::NeedSnapshot;
        };
        let cap = max_entries.min(MAX_REPL_ENTRIES_PER_FRAME);
        let mut room = MAX_FRAME_LEN - REPL_ENTRIES_HEADER_LEN;
        let mut entries: Vec<ReplEntry> = Vec::new();
        for e in inner.entries.iter().skip(skip).take(cap) {
            debug_assert_eq!(e.seq, after_seq + 1 + entries.len() as u64);
            let len = e.encoded_len();
            if len > room && !entries.is_empty() {
                break;
            }
            room = room.saturating_sub(len);
            entries.push(e.clone());
        }
        PullReply::Entries {
            head_seq: inner.next_seq - 1,
            entries,
        }
    }

    pub(crate) fn status(&self) -> ReplLogStatus {
        let inner = self.inner.lock().unwrap();
        ReplLogStatus {
            head_seq: inner.next_seq - 1,
            tail_seq: inner.entries.front().map_or(0, |e| e.seq),
            acked_seq: inner.acked_seq,
            len: inner.entries.len() as u64,
            sample_bytes: inner.sample_bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// The follower pull loop
// ---------------------------------------------------------------------------

/// The pull and fence loops' retry cadence, ms (capped, jittered).
const RETRY: BackoffPolicy = BackoffPolicy { base: 20, cap: 500 };

/// Primary-liveness bookkeeping for automatic failover (DESIGN.md
/// §13.5). Two conditions must hold simultaneously before a follower
/// declares its primary dead: the missed-pull threshold (consecutive
/// transport failures — typed errors from a live primary reset it) and
/// the lease (granted by the primary on every `ReplEntries`) expired.
/// The caller passes the time.
struct Liveness {
    /// Consecutive transport-level pull failures.
    failures: u32,
    /// The lease duration the primary last granted (0 = no lease; the
    /// threshold alone then decides). Starts from our own `lease_ms`
    /// as the boot grace period.
    lease: Duration,
    /// When the lease was granted: the last reply, or boot. (A deadline
    /// `since + lease` would overflow on a peer-granted `u64::MAX`.)
    since: Instant,
}

impl Liveness {
    fn new(grace_ms: u64, now: Instant) -> Self {
        Liveness {
            failures: 0,
            lease: Duration::from_millis(grace_ms),
            since: now,
        }
    }

    /// Any reply at all proves the primary's process is alive.
    fn saw_reply(&mut self, granted_lease_ms: Option<u64>, now: Instant) {
        self.failures = 0;
        if let Some(ms) = granted_lease_ms {
            self.lease = Duration::from_millis(ms);
        }
        self.since = now;
    }

    /// Whether the primary should now be considered dead.
    fn expired(&self, threshold: u32, now: Instant) -> bool {
        self.failures >= threshold.max(1)
            && (self.lease.is_zero() || now.saturating_duration_since(self.since) >= self.lease)
    }
}

/// What a `ReplStatus` probe of one node found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// Its role code, fencing epoch and applied seq.
    Reached { role: u8, epoch: u64, applied: u64 },
    /// No status reply within the attempt deadline.
    Unreachable,
}

/// An election's outcome, naming the peer that decided it: one that
/// ranks first (more caught up, or as caught up at a lower address),
/// one already primary at our epoch or later, or one that did not
/// answer and so may be a candidate cut off from us.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Promote,
    Defer(SocketAddr),
    Superseded(SocketAddr, u64),
    Blocked(SocketAddr),
}

/// The failover election (DESIGN.md §13.5), from this node's bound
/// address, applied seq and epoch and one probe per promotion peer.
/// Promotion is unanimous: every peer must answer, none may be a
/// primary at our epoch or later, and we must rank first.
fn elect(me: SocketAddr, applied: u64, epoch: u64, probes: &[(SocketAddr, Probe)]) -> Verdict {
    let mut verdict = Verdict::Promote;
    for &(peer, probe) in probes {
        match probe {
            Probe::Reached { role, epoch: e, .. } if role == ROLE_PRIMARY && e >= epoch => {
                return Verdict::Superseded(peer, e);
            }
            Probe::Reached { applied: a, .. } if (Reverse(a), peer) < (Reverse(applied), me) => {
                verdict = Verdict::Defer(peer);
            }
            Probe::Reached { .. } => {}
            Probe::Unreachable => verdict = Verdict::Blocked(peer),
        }
    }
    verdict
}

/// One pull reply, classified for the loop's bookkeeping.
enum Pulled {
    /// Entries or an installed snapshot, with the lease the primary
    /// granted (a snapshot grants none).
    Served { lease_ms: Option<u64> },
    /// A live process answered without serving us: a typed error, an
    /// unexpected tag or a snapshot that would not install.
    Refused,
    /// No reply at all.
    Missed,
}

/// The follower's pull thread: runs until shutdown or promotion,
/// reconnecting to the primary with capped jittered backoff — a
/// follower must outlive arbitrarily long primary outages (unless
/// `auto_promote` decides the outage *is* the failover). The election
/// knows this node by `me`, the address it bound; losing it to a peer
/// already primary re-points the loop at that peer. A caught-up pull
/// waits at the primary for a batch ([`hold_until`]), so the only
/// timed sleep here is the failure backoff.
pub(crate) fn pull_loop(shared: &Shared, me: SocketAddr, peers: &[SocketAddr]) {
    let first = shared
        .cfg
        .follower_of
        .clone()
        .expect("pull loop requires follower_of");
    // One attempt per request (max_retries 0): this loop owns the retry
    // cadence with the shared jittered policy, and the client redials
    // on the request after a failed one. The attempt deadline (connect
    // + auth + reply) is tied to the lease so a SIGSTOPped (wedged, not
    // dead) primary is detected within a few lease windows, not after
    // threshold × 2 s. Its 50 ms floor is twice the longest a primary
    // holds a pull ([`PULL_HOLD_CAP`]).
    let timeout_ms = if shared.cfg.auto_promote {
        (shared.cfg.lease_ms / 2).clamp(50, 2_000)
    } else {
        2_000
    };
    let target =
        |addr: &str| ClientConfig::single_attempt(addr, timeout_ms, shared.cfg.auth_token.clone());
    let mut client_cfg = target(&first);
    let seed = first
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    let mut client = ServiceClient::new(client_cfg.clone());
    let mut attempts: u32 = 0;
    let mut liveness = Liveness::new(shared.cfg.lease_ms, Instant::now());
    while !shared.shutting_down() && !shared.is_primary() {
        let addr = &client_cfg.addr;
        let after_seq = shared.repl.head_seq();
        let pull = Frame::ReplPull {
            after_seq,
            max_entries: MAX_REPL_ENTRIES_PER_FRAME as u32,
            epoch: shared.epoch(),
        };
        let reply = client.request(&pull);
        let now = Instant::now();
        let pulled = match reply {
            Ok(Frame::ReplEntries {
                head_seq,
                epoch,
                lease_ms,
                entries,
            }) => {
                // Adopt the primary's epoch so a later self-promotion
                // allocates a strictly higher one, and publish its log
                // head for the follower-read staleness gate (stored
                // +1 so 0 keeps meaning "never pulled").
                shared.observe_epoch(epoch);
                // saturating: `head_seq` is peer-controlled, and
                // u64::MAX + 1 wrapping to the "never pulled" sentinel
                // would freeze the staleness gate shut.
                shared
                    .primary_head_seen
                    .store(head_seq.saturating_add(1), Ordering::Release);
                for e in entries {
                    if shared.shutting_down() {
                        return;
                    }
                    if let Err(err) = shared.apply_repl_entry(e) {
                        eprintln!(
                            "fgcs-service: FATAL: follower diverged from {addr}: {err}; \
                             pull loop stopped — resync by restarting with an empty state"
                        );
                        shared.repl_failed.store(true, Ordering::Release);
                        return;
                    }
                }
                Pulled::Served {
                    lease_ms: Some(lease_ms),
                }
            }
            Ok(Frame::ReplSnapshot { repl_seq, bytes }) => {
                match install_pulled_snapshot(shared, repl_seq, &bytes) {
                    Ok(()) => Pulled::Served { lease_ms: None },
                    Err(err) => {
                        eprintln!("fgcs-service: snapshot resync from {addr} failed: {err}");
                        Pulled::Refused
                    }
                }
            }
            // The primary exists but can't serve us yet (no log
            // configured, restarting, auth hiccup). Keep trying — an
            // operator fixing the primary shouldn't have to restart
            // every follower too.
            Ok(Frame::Error { code, detail }) => {
                if attempts == 0 || code == ErrorCode::Unsupported {
                    eprintln!("fgcs-service: pull from {addr} rejected ({code:?}): {detail}");
                }
                Pulled::Refused
            }
            Ok(other) => {
                eprintln!(
                    "fgcs-service: unexpected pull reply tag {} from {addr}",
                    other.tag()
                );
                client.force_disconnect();
                Pulled::Refused
            }
            Err(_) => Pulled::Missed,
        };
        // Any reply proves the primary alive, so only silence can start
        // a failover; only a served pull resets the backoff.
        match pulled {
            Pulled::Served { lease_ms } => {
                attempts = 0;
                liveness.saw_reply(lease_ms, now);
                continue;
            }
            Pulled::Refused => liveness.saw_reply(None, now),
            Pulled::Missed => {
                liveness.failures = liveness.failures.saturating_add(1);
                let threshold = shared.cfg.missed_pull_threshold;
                if shared.cfg.auto_promote && liveness.expired(threshold, now) {
                    match self_promote(shared, me, peers, &client_cfg) {
                        Failover::Promoted => return,
                        Failover::Follow(winner) => {
                            eprintln!("fgcs-service: now following {winner}");
                            client_cfg = target(&winner.to_string());
                            client = ServiceClient::new(client_cfg.clone());
                            liveness = Liveness::new(shared.cfg.lease_ms, now);
                            attempts = 0;
                            continue;
                        }
                        Failover::Stay => {}
                    }
                }
            }
        }
        attempts = attempts.saturating_add(1);
        sleep_ms(RETRY.delay_jittered(attempts, seed));
    }
}

/// What a failover attempt leaves the pull loop to do.
enum Failover {
    /// This node is primary: the pull loop is over.
    Promoted,
    /// A peer is already primary at our epoch or later: pull from it.
    Follow(SocketAddr),
    /// No change: keep pulling from the same address.
    Stay,
}

/// The failover once the primary is declared dead: probes of every
/// promotion peer, the election, then promotion and fencing of the
/// (possibly not-quite-dead) old primary.
fn self_promote(
    shared: &Shared,
    me: SocketAddr,
    peers: &[SocketAddr],
    cfg: &ClientConfig,
) -> Failover {
    if shared.repl_failed.load(Ordering::Acquire) || shared.shutting_down() {
        return Failover::Stay;
    }
    let token = &shared.cfg.auth_token;
    let probe =
        |peer: SocketAddr| probe_repl_status(&peer.to_string(), token.clone(), cfg.read_timeout_ms);
    let probes: Vec<_> = peers.iter().map(|&peer| (peer, probe(peer))).collect();
    let applied = shared.repl.head_seq();
    let verdict = elect(me, applied, shared.epoch(), &probes);
    eprintln!(
        "fgcs-service: primary {} declared dead; election as {me} at applied seq {applied}: \
         {verdict:?}",
        cfg.addr
    );
    match verdict {
        Verdict::Promote => {}
        Verdict::Superseded(winner, epoch) => {
            shared.observe_epoch(epoch);
            return Failover::Follow(winner);
        }
        Verdict::Defer(_) | Verdict::Blocked(_) => return Failover::Stay,
    }
    if !shared.promote() {
        eprintln!("fgcs-service: fencing epoch exhausted; staying a follower");
        return Failover::Stay;
    }
    fence_old_primary(shared, cfg);
    Failover::Promoted
}

/// Hammers the old primary's address with an epoch-carrying `ReplPull`
/// until something answers (the fence lands — a revived primary
/// demotes itself inside `fence_if_superseded` before replying) or the
/// server shuts down. A SIGKILLed primary never answers; the periodic
/// refused connect is the cost of covering the paused-then-revived
/// one, which can come back minutes later.
fn fence_old_primary(shared: &Shared, client_cfg: &ClientConfig) {
    let seed = 0x0fe2_ce0a;
    let mut attempts: u32 = 0;
    let mut client = ServiceClient::new(client_cfg.clone());
    while !shared.shutting_down() {
        let fence = Frame::ReplPull {
            after_seq: shared.repl.head_seq(),
            max_entries: 0,
            epoch: shared.epoch(),
        };
        if let Ok(reply) = client.request(&fence) {
            eprintln!(
                "fgcs-service: fenced old primary {} at epoch {} (reply tag {})",
                client_cfg.addr,
                shared.epoch(),
                reply.tag()
            );
            return;
        }
        attempts = attempts.saturating_add(1);
        sleep_ms(RETRY.delay_jittered(attempts, seed));
    }
}

fn install_pulled_snapshot(shared: &Shared, repl_seq: u64, bytes: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "snapshot is not UTF-8".to_string())?;
    let data = snapshot::parse_snapshot(text)?;
    if data.repl_seq != repl_seq {
        return Err(format!(
            "frame says repl_seq {repl_seq}, snapshot says {}",
            data.repl_seq
        ));
    }
    shared.install_snapshot(data)
}

fn sleep_ms(ms: u64) {
    std::thread::sleep(Duration::from_millis(ms));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fgcs_wire::{SampleLoad, WireSample};

    fn entry(seq: u64) -> ReplEntry {
        ReplEntry {
            seq,
            machine: 1,
            last_t_after: seq * 10,
            next_seq_after: 1,
            samples: EncodedSamples::default(),
        }
    }

    #[test]
    fn log_allocates_monotone_seqs_and_trims_to_capacity() {
        let log = ReplLog::new(3);
        for i in 1..=5u64 {
            let seq = log.append_local(7, EncodedSamples::default(), i * 10, 1);
            assert_eq!(seq, i);
        }
        let st = log.status();
        assert_eq!(st.head_seq, 5);
        assert_eq!(st.tail_seq, 3, "capacity 3 keeps seqs 3..=5");
        assert_eq!(st.len, 3);
    }

    #[test]
    fn pull_serves_retained_positions_and_resyncs_trimmed_ones() {
        let log = ReplLog::new(3);
        for i in 1..=5u64 {
            log.append_local(7, EncodedSamples::default(), i, 1);
        }
        // Caught up: empty entries, head visible.
        match log.pull(5, 100) {
            PullReply::Entries { head_seq, entries } => {
                assert_eq!(head_seq, 5);
                assert!(entries.is_empty());
            }
            PullReply::NeedSnapshot => panic!("caught-up pull must not resync"),
        }
        // Retained: seqs 3..=5, so after_seq 2 streams entries.
        match log.pull(2, 2) {
            PullReply::Entries { head_seq, entries } => {
                assert_eq!(head_seq, 5);
                assert_eq!(
                    entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
                    vec![3, 4],
                    "max_entries caps the reply"
                );
            }
            PullReply::NeedSnapshot => panic!("retained pull must not resync"),
        }
        // Trimmed: after_seq 1 would need seq 2, which is gone.
        assert!(matches!(log.pull(1, 100), PullReply::NeedSnapshot));
        // Ahead of the log: divergence, resync.
        assert!(matches!(log.pull(9, 100), PullReply::NeedSnapshot));
    }

    #[test]
    fn append_remote_skips_duplicates_and_rejects_gaps() {
        let log = ReplLog::new(8);
        log.append_remote(entry(1)).unwrap();
        log.append_remote(entry(2)).unwrap();
        // Duplicate delivery after a reconnect: ignored.
        log.append_remote(entry(2)).unwrap();
        assert_eq!(log.head_seq(), 2);
        // A gap can only mean a protocol violation.
        assert!(log.append_remote(entry(5)).is_err());
        log.append_remote(entry(3)).unwrap();
        assert_eq!(log.head_seq(), 3);
    }

    #[test]
    fn reset_and_raise_move_the_cursor_safely() {
        let log = ReplLog::new(4);
        log.append_remote(entry(1)).unwrap();
        log.reset_to(10);
        assert_eq!(log.head_seq(), 10);
        assert_eq!(log.status().len, 0);
        log.raise_next(8); // never lowers
        assert_eq!(log.head_seq(), 10);
        log.raise_next(21);
        assert_eq!(log.head_seq(), 20);
    }

    #[test]
    fn acks_are_monotone() {
        let log = ReplLog::new(8);
        for i in 1..=7u64 {
            log.append_local(1, EncodedSamples::default(), i, 1);
        }
        log.pull(3, 0);
        log.pull(1, 0);
        assert_eq!(log.acked_seq(), 3);
        log.pull(7, 0);
        assert_eq!(log.acked_seq(), 7);
    }

    #[test]
    fn an_ack_past_the_head_is_not_recorded() {
        // A puller ahead of this log (diverged, or pulling from the
        // wrong primary) is resynced; what it claims was never logged
        // here, so it must not count as acknowledged.
        let log = ReplLog::new(8);
        for i in 1..=5u64 {
            log.append_local(1, EncodedSamples::default(), i, 1);
        }
        log.pull(2, 0);
        assert!(matches!(log.pull(9, 16), PullReply::NeedSnapshot));
        assert_eq!(log.acked_seq(), 2);
    }

    #[test]
    fn the_log_retains_each_batch_as_its_wire_bytes() {
        // 128 `Direct` samples: a 4-byte count plus 22 bytes each,
        // where a `Vec<WireSample>` holds 40 bytes a sample (5,120).
        let samples: EncodedSamples = (0..128u64)
            .map(|t| WireSample {
                t,
                load: SampleLoad::Direct(0.1),
                host_resident_mb: 100,
                alive: true,
            })
            .collect();
        let log = ReplLog::new(2);
        for i in 1..=3u64 {
            log.append_local(1, samples.clone(), i, 1);
        }
        assert_eq!(log.status().sample_bytes, 2 * 2_820, "two retained entries");
        // A pull hands out the retained encoding unchanged.
        let PullReply::Entries { entries, .. } = log.pull(2, 16) else {
            panic!("retained position must stream");
        };
        assert_eq!(entries[0].samples, samples);
        log.reset_to(3);
        assert_eq!(log.status().sample_bytes, 0);
    }

    // --- pull() boundary behavior. A follower's resume cursor lands
    // exactly on these edges after reconnects, so each one is pinned:
    // an off-by-one here silently skips or re-applies a record.

    #[test]
    fn pull_at_exact_log_head_is_empty_not_resync() {
        let log = ReplLog::new(4);
        for i in 1..=4u64 {
            log.append_local(1, EncodedSamples::default(), i, 1);
        }
        // after_seq == head_seq: caught up. One past it: divergence.
        match log.pull(4, 16) {
            PullReply::Entries { head_seq, entries } => {
                assert_eq!(head_seq, 4);
                assert!(entries.is_empty());
            }
            PullReply::NeedSnapshot => panic!("pull at head must not resync"),
        }
        assert!(matches!(log.pull(5, 16), PullReply::NeedSnapshot));
    }

    #[test]
    fn pull_boundary_between_pruned_and_retained_is_exact() {
        let log = ReplLog::new(3);
        for i in 1..=10u64 {
            log.append_local(1, EncodedSamples::default(), i, 1);
        }
        // Retained: 8..=10. after_seq 7 needs seq 8 — the oldest
        // retained entry — and must stream, not resync.
        match log.pull(7, 16) {
            PullReply::Entries { entries, .. } => {
                assert_eq!(
                    entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
                    vec![8, 9, 10]
                );
            }
            PullReply::NeedSnapshot => panic!("oldest retained seq must stream"),
        }
        // after_seq 6 needs seq 7, trimmed one step ago: resync.
        assert!(matches!(log.pull(6, 16), PullReply::NeedSnapshot));
    }

    #[test]
    fn pull_of_empty_log_from_zero_is_caught_up() {
        let log = ReplLog::new(4);
        match log.pull(0, 16) {
            PullReply::Entries { head_seq, entries } => {
                assert_eq!(head_seq, 0);
                assert!(entries.is_empty(), "a brand-new log has nothing to send");
            }
            PullReply::NeedSnapshot => panic!("empty log must not demand a snapshot"),
        }
    }

    #[test]
    fn pull_from_zero_after_wraparound_resyncs() {
        // A fresh follower (cursor 0) joining a log that has already
        // trimmed seq 1 cannot be served incrementally.
        let log = ReplLog::new(2);
        for i in 1..=5u64 {
            log.append_local(1, EncodedSamples::default(), i, 1);
        }
        assert!(matches!(log.pull(0, 16), PullReply::NeedSnapshot));
        // But the retained window itself still streams contiguously.
        match log.pull(3, 16) {
            PullReply::Entries { entries, .. } => {
                assert_eq!(
                    entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
                    vec![4, 5]
                );
            }
            PullReply::NeedSnapshot => panic!("retained window must stream after wrap"),
        }
    }

    #[test]
    fn pull_with_zero_cap_reports_head_without_entries() {
        // The fencer sends max_entries 0: it wants the epoch check and
        // a reply, not data.
        let log = ReplLog::new(4);
        for i in 1..=3u64 {
            log.append_local(1, EncodedSamples::default(), i, 1);
        }
        match log.pull(1, 0) {
            PullReply::Entries { head_seq, entries } => {
                assert_eq!(head_seq, 3);
                assert!(entries.is_empty());
            }
            PullReply::NeedSnapshot => panic!("zero-cap pull of a retained seq must answer"),
        }
    }

    #[test]
    fn pull_fills_one_frame_at_most_and_resumes_where_it_stopped() {
        // 1,000 entries of 128 samples are ~2.8 MB on the wire: nearly
        // three frames' worth, while the entry cap alone would try to
        // send them all in one.
        let samples: EncodedSamples = vec![
            WireSample {
                t: 0,
                load: SampleLoad::Direct(0.1),
                host_resident_mb: 100,
                alive: true,
            };
            128
        ]
        .into();
        let log = ReplLog::new(4_096);
        for i in 1..=1_000u64 {
            log.append_local(1, samples.clone(), i, 1);
        }
        let mut after = 0;
        let mut pulls = 0;
        while after < 1_000 {
            let PullReply::Entries { head_seq, entries } =
                log.pull(after, MAX_REPL_ENTRIES_PER_FRAME)
            else {
                panic!("retained position must stream");
            };
            assert!(!entries.is_empty(), "every reply advances the puller");
            for (i, e) in entries.iter().enumerate() {
                assert_eq!(e.seq, after + 1 + i as u64, "contiguous, in order");
            }
            after = entries.last().unwrap().seq;
            let frame = Frame::ReplEntries {
                head_seq,
                epoch: 1,
                lease_ms: 0,
                entries,
            };
            assert!(frame.encode().is_ok(), "pull {pulls}: reply fits a frame");
            pulls += 1;
        }
        assert_eq!(pulls, 3, "each reply filled its frame");
    }

    #[test]
    fn pull_seeks_by_offset_in_a_mirrored_log_too() {
        // A follower's own log starts wherever its snapshot left off,
        // not at seq 1.
        let log = ReplLog::new(8);
        log.reset_to(40);
        for seq in 41..=46u64 {
            log.append_remote(entry(seq)).unwrap();
        }
        match log.pull(43, 2) {
            PullReply::Entries { head_seq, entries } => {
                assert_eq!(head_seq, 46);
                assert_eq!(
                    entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
                    vec![44, 45]
                );
            }
            PullReply::NeedSnapshot => panic!("retained pull must not resync"),
        }
        assert!(matches!(log.pull(39, 2), PullReply::NeedSnapshot));
    }

    // --- The long-poll's batching rule: a pure function of what lies
    // past the pull, how long it waited and the hold.

    fn direct(n: usize) -> EncodedSamples {
        let sample = WireSample {
            t: 0,
            load: SampleLoad::Direct(0.1),
            host_resident_mb: 100,
            alive: true,
        };
        vec![sample; n].into()
    }

    #[test]
    fn a_pull_is_answered_at_once_only_with_a_batch_or_no_way_to_wait() {
        // Capacity 6 of 7 entries: seq 1 is trimmed. Seqs 3..=7 hold
        // 2,978 samples, 5 × 4 + 2,978 × 22 = 65,536 bytes: one batch
        // exactly.
        let log = ReplLog::new(6);
        for n in [1, 1, 595, 595, 596, 596, 596] {
            log.append_local(1, direct(n), 0, 1);
        }
        let all = MAX_REPL_ENTRIES_PER_FRAME as u32;
        let now = log.progress();
        assert_eq!(now.entries, 7, "a trim does not rewind the progress");
        assert_eq!(
            log.pending(2, all),
            Some(Pending {
                now,
                batch_at: Progress {
                    entries: 2 + 6,
                    bytes: now.bytes,
                },
            }),
            "a batch exactly: its bytes are the log's now"
        );
        let hold = pull_hold(5);
        let (zero, just_short) = (Duration::ZERO, hold - Duration::from_micros(1));
        #[rustfmt::skip]
        let table = [
            // after_seq, max_entries, waited, answered now, why
            (0, all, zero, true, "trimmed: a snapshot, now"),
            (8, all, zero, true, "past the head: a snapshot, now"),
            (7, 0, zero, true, "max_entries 0, the fencer's: never waits"),
            (3, 0, zero, true, "max_entries 0 short of a batch"),
            (2, all, zero, true, "exactly one batch"),
            (1, all, zero, true, "more than a batch"),
            (3, all, zero, false, "four entries, 595 samples short of a batch"),
            (3, 4, zero, true, "as many entries as the pull takes"),
            (3, 5, zero, false, "fewer entries than the pull takes"),
            (3, u32::MAX, just_short, false, "u32::MAX entries: capped at a frame"),
            (3, all, hold, true, "short of a batch at the hold"),
            (7, all, just_short, false, "caught up, inside the hold"),
            (7, all, hold, true, "caught up at the hold: answered empty"),
        ];
        for (after_seq, max_entries, waited, answered, why) in table {
            let pending = log.pending(after_seq, max_entries);
            assert_eq!(
                hold_until(pending, waited, hold).is_none(),
                answered,
                "{why}: after_seq {after_seq}, {pending:?}"
            );
        }
        // A held pull is released by the append that completes its
        // batch, which is what a parking loop publishes for appenders.
        let target = hold_until(log.pending(3, all), zero, hold).expect("held");
        assert_eq!(target.entries, 3 + 6, "the log's window past seq 3");
        let short = Progress {
            entries: target.entries - 1,
            bytes: target.bytes - 1,
        };
        assert!(!short.reached(target) && !log.progress().reached(target));
        log.append_local(1, direct(595), 0, 1);
        assert!(log.progress().reached(target), "595 samples more");
        assert!(!log.progress().reached(Progress::NEVER));
        // A log's whole window is a batch too: waiting for more would
        // trim the pull's position.
        let small = ReplLog::new(2);
        small.append_local(1, direct(1), 0, 1);
        assert!(hold_until(small.pending(0, all), zero, hold).is_some());
        small.append_local(1, direct(1), 0, 1);
        assert_eq!(hold_until(small.pending(0, all), zero, hold), None);
        // The hold is `pull_interval_ms` between 1 ms and the cap.
        assert_eq!(pull_hold(0), Duration::from_millis(1));
        assert_eq!(pull_hold(5), Duration::from_millis(5));
        assert_eq!(pull_hold(2_000), PULL_HOLD_CAP);
        // Asking acks nothing; a parked pull's ack is its own call.
        assert_eq!(log.acked_seq(), 0);
        log.ack(3);
        log.ack(99);
        assert_eq!(log.acked_seq(), 3, "no ack past the head");
    }

    // --- Liveness: the failure detector driving self-promotion.

    fn ms(t0: Instant, ms: u64) -> Instant {
        t0 + Duration::from_millis(ms)
    }

    #[test]
    fn liveness_needs_both_threshold_and_lease_expiry() {
        let t0 = Instant::now();
        let mut l = Liveness::new(0, t0);
        assert!(!l.expired(3, t0), "no failures yet");
        l.failures = 3;
        assert!(l.expired(3, t0), "zero lease: threshold alone decides");
        // A granted lease in the future holds the failover back even
        // past the threshold, and lets it go once it runs out.
        l.saw_reply(Some(60_000), t0);
        l.failures = 10;
        assert!(
            !l.expired(3, ms(t0, 59_999)),
            "unexpired lease must veto promotion"
        );
        assert!(l.expired(3, ms(t0, 60_000)));
        // Any reply resets the failure count and restarts the lease.
        l.saw_reply(None, ms(t0, 60_000));
        assert_eq!(l.failures, 0);
        l.failures = 3;
        assert!(!l.expired(1, ms(t0, 60_001)));
    }

    #[test]
    fn liveness_threshold_zero_is_treated_as_one() {
        let t0 = Instant::now();
        let mut l = Liveness::new(0, t0);
        assert!(!l.expired(0, t0), "zero failures never expires");
        l.failures = 1;
        assert!(l.expired(0, t0));
    }

    #[test]
    fn a_granted_lease_of_any_length_is_kept_not_overflowed() {
        // The lease is the primary's to choose; `now + u64::MAX ms`
        // would panic the pull thread.
        let t0 = Instant::now();
        let mut l = Liveness::new(1_000, t0);
        l.saw_reply(Some(u64::MAX), t0);
        l.failures = 5;
        assert!(
            !l.expired(1, ms(t0, 86_400_000)),
            "a year-long lease still holds"
        );
    }

    // --- The election: a pure function of this node and its probes.

    fn node(last_octet: u8, port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, last_octet], port))
    }

    fn follower(applied: u64) -> Probe {
        Probe::Reached {
            role: ROLE_FOLLOWER,
            epoch: 1,
            applied,
        }
    }

    #[test]
    fn two_followers_cut_off_from_each_other_do_not_both_promote() {
        // Both lost the primary and each other, at one epoch: were an
        // unreachable peer skipped, both would promote into epoch 2.
        let (a, b) = (node(1, 7001), node(1, 7002));
        let seen_by_a = elect(a, 5, 1, &[(b, Probe::Unreachable)]);
        let seen_by_b = elect(b, 5, 1, &[(a, Probe::Unreachable)]);
        assert_eq!(seen_by_a, Verdict::Blocked(b));
        assert_eq!(seen_by_b, Verdict::Blocked(a));
        // Once they reach each other, exactly one wins.
        assert_eq!(elect(a, 5, 1, &[(b, follower(5))]), Verdict::Promote);
        assert_eq!(elect(b, 5, 1, &[(a, follower(5))]), Verdict::Defer(a));
        // A follower without peers decides alone.
        assert_eq!(elect(a, 0, 1, &[]), Verdict::Promote);
    }

    #[test]
    fn both_sides_of_a_tie_rank_the_pair_the_same_way() {
        // Ranked as socket addresses: port 9 below port 10 (as text,
        // "…:10" sorts first), and the IP before the port.
        for (low, high) in [(node(1, 9), node(1, 10)), (node(1, 65_000), node(2, 1))] {
            assert_eq!(elect(low, 3, 1, &[(high, follower(3))]), Verdict::Promote);
            assert_eq!(
                elect(high, 3, 1, &[(low, follower(3))]),
                Verdict::Defer(low)
            );
            // Being more caught up outranks any address.
            assert_eq!(elect(high, 4, 1, &[(low, follower(3))]), Verdict::Promote);
            assert_eq!(
                elect(low, 3, 1, &[(high, follower(4))]),
                Verdict::Defer(high)
            );
        }
    }

    #[test]
    fn a_peer_already_primary_supersedes_every_other_answer() {
        let (me, dead, ahead, primary) = (node(1, 1), node(1, 2), node(1, 3), node(1, 4));
        let probes = |epoch| {
            [
                (dead, Probe::Unreachable),
                (ahead, follower(9)),
                (
                    primary,
                    Probe::Reached {
                        role: ROLE_PRIMARY,
                        epoch,
                        applied: 0,
                    },
                ),
            ]
        };
        assert_eq!(elect(me, 5, 2, &probes(2)), Verdict::Superseded(primary, 2));
        assert_eq!(elect(me, 5, 2, &probes(7)), Verdict::Superseded(primary, 7));
        // A primary from an older epoch is a revenant, ranked like any
        // other node: here the unreachable peer decides.
        assert!(matches!(elect(me, 9, 2, &probes(1)), Verdict::Blocked(_)));
    }

    /// Seeds a sweep runs: `0..n`, or only `FGCS_REPLAY_SEED` when set.
    pub(crate) fn sweep_seeds(n: u64) -> Vec<u64> {
        match std::env::var("FGCS_REPLAY_SEED") {
            Ok(seed) => vec![seed.parse().expect("FGCS_REPLAY_SEED must be a u64")],
            Err(_) => (0..n).collect(),
        }
    }

    /// Runs `check` on every sweep seed and names the first failing one
    /// with its replay command.
    pub(crate) fn sweep(test: &str, n: u64, check: impl Fn(u64) -> Result<(), String>) {
        for seed in sweep_seeds(n) {
            if let Err(why) = check(seed) {
                panic!(
                    "seed {seed}: {why}\nreplay: FGCS_REPLAY_SEED={seed} \
                     cargo test -p fgcs-service --lib {test} -- --include-ignored"
                );
            }
        }
    }

    /// One seeded failover round. 2–5 nodes, some of them primaries
    /// already, with small random epochs and applied seqs (ties are the
    /// point) and an arbitrary, possibly asymmetric reachability
    /// matrix. Every follower whose liveness expired (random failure
    /// counts, lease lengths and reply times) elects on the probes its
    /// row of the matrix allows, every peer listing all the others. No
    /// two primaries may share an epoch: neither two promotions, nor a
    /// promotion and an incumbent.
    fn election_round(seed: u64) -> Result<(), String> {
        use fgcs_stats::rng::Rng;
        let mut rng = Rng::new(seed);
        let n = 2 + rng.below_usize(4);
        let t0 = Instant::now();
        let now = ms(t0, 1_000);
        struct Node {
            addr: SocketAddr,
            role: u8,
            epoch: u64,
            applied: u64,
            expired: bool,
        }
        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                let mut liveness = Liveness::new(rng.below(3) * 500, ms(t0, rng.below(1_000)));
                liveness.failures = rng.below(4) as u32;
                let threshold = rng.below(4) as u32;
                Node {
                    // Distinct by port; the random octet and base shuffle
                    // the address order against the index.
                    addr: node(1 + rng.below(2) as u8, rng.below(100) as u16 * 8 + i as u16),
                    role: if rng.chance(0.2) {
                        ROLE_PRIMARY
                    } else {
                        ROLE_FOLLOWER
                    },
                    epoch: 1 + rng.below(3),
                    applied: rng.below(3),
                    expired: liveness.expired(threshold, now),
                }
            })
            .collect();
        let density = 0.3 + 0.7 * rng.f64();
        let reach: Vec<Vec<bool>> = (0..n)
            .map(|_| (0..n).map(|_| rng.chance(density)).collect())
            .collect();
        let mut primaries: Vec<(u64, String)> = nodes
            .iter()
            .filter(|m| m.role == ROLE_PRIMARY)
            .map(|m| (m.epoch, format!("incumbent {}", m.addr)))
            .collect();
        let incumbents = primaries.len();
        for (i, me) in nodes.iter().enumerate() {
            if me.role != ROLE_FOLLOWER || !me.expired {
                continue;
            }
            let probes: Vec<(SocketAddr, Probe)> = (nodes.iter().enumerate())
                .filter(|&(j, _)| j != i)
                .map(|(j, peer)| {
                    let probe = if reach[i][j] {
                        Probe::Reached {
                            role: peer.role,
                            epoch: peer.epoch,
                            applied: peer.applied,
                        }
                    } else {
                        Probe::Unreachable
                    };
                    (peer.addr, probe)
                })
                .collect();
            if elect(me.addr, me.applied, me.epoch, &probes) == Verdict::Promote {
                primaries.push((me.epoch + 1, format!("{} on {probes:?}", me.addr)));
            }
        }
        for (k, (epoch, who)) in primaries.iter().enumerate().skip(incumbents) {
            if let Some((_, other)) = primaries[..k].iter().find(|(e, _)| e == epoch) {
                return Err(format!("two primaries in epoch {epoch}: {other} and {who}"));
            }
        }
        Ok(())
    }

    #[test]
    fn election_never_puts_two_primaries_in_one_epoch() {
        let test = "election_never_puts_two_primaries_in_one_epoch";
        sweep(test, 2_000, election_round);
    }

    /// The CI sweep (`scripts/ci.sh`, release): 100,000 rounds.
    #[test]
    #[ignore]
    fn election_never_puts_two_primaries_in_one_epoch_wide() {
        let test = "election_never_puts_two_primaries_in_one_epoch_wide";
        sweep(test, 100_000, election_round);
    }
}
