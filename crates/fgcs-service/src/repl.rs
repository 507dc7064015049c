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

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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
}

/// The replication seq log: a bounded ring of the most recent ingested
/// batches, in seq order. Capacity 0 disables replication entirely
/// ([`ReplLog::enabled`]); the log then never retains anything and
/// pulls are answered `Unsupported`.
#[derive(Debug)]
pub(crate) struct ReplLog {
    capacity: usize,
    inner: Mutex<ReplLogInner>,
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
        inner.push(entry, self.capacity);
        seq
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
        inner.push(entry, self.capacity);
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
        let head = inner.next_seq - 1;
        if after_seq > head {
            // The puller claims to be ahead of this log — divergence
            // (e.g. it pulled from a different primary). Resync.
            return PullReply::NeedSnapshot;
        }
        inner.acked_seq = inner.acked_seq.max(after_seq);
        if after_seq == head {
            return PullReply::Entries {
                head_seq: head,
                entries: Vec::new(),
            };
        }
        match inner.entries.front() {
            Some(front) if front.seq <= after_seq + 1 => {
                let cap = max_entries.min(MAX_REPL_ENTRIES_PER_FRAME);
                let skip = (after_seq + 1 - front.seq) as usize;
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
                    head_seq: head,
                    entries,
                }
            }
            // Trimmed past the requested position (or nothing retained
            // at all while the head has moved): snapshot resync.
            _ => PullReply::NeedSnapshot,
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

/// Spawns the follower's pull thread. The loop runs until shutdown or
/// promotion, reconnecting to the primary with capped jittered backoff
/// — a follower must outlive arbitrarily long primary outages (unless
/// `auto_promote` decides the outage *is* the failover).
pub(crate) fn spawn_pull_thread(shared: Arc<Shared>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("fgcs-repl-pull".into())
        .spawn(move || pull_loop(&shared))
        .expect("spawn replication pull thread")
}

/// Primary-liveness bookkeeping for automatic failover (DESIGN.md
/// §13.5). Two conditions must hold simultaneously before a follower
/// declares its primary dead: the missed-pull threshold (consecutive
/// transport failures — typed errors from a live primary reset it) and
/// the lease (granted by the primary on every `ReplEntries`) expired.
struct Liveness {
    /// Consecutive transport-level pull failures.
    failures: u32,
    /// The lease duration the primary last granted (0 = no lease; the
    /// threshold alone then decides). Starts from our own `lease_ms`
    /// as the boot grace period.
    lease: Duration,
    /// When the current lease runs out.
    deadline: Instant,
}

impl Liveness {
    fn new(grace_ms: u64) -> Self {
        let lease = Duration::from_millis(grace_ms);
        Liveness {
            failures: 0,
            lease,
            deadline: Instant::now() + lease,
        }
    }

    /// Any reply at all proves the primary's process is alive.
    fn saw_reply(&mut self, granted_lease_ms: Option<u64>) {
        self.failures = 0;
        if let Some(ms) = granted_lease_ms {
            self.lease = Duration::from_millis(ms);
        }
        self.deadline = Instant::now() + self.lease;
    }

    /// Whether the primary should now be considered dead.
    fn expired(&self, threshold: u32) -> bool {
        self.failures >= threshold.max(1)
            && (self.lease.is_zero() || Instant::now() >= self.deadline)
    }
}

fn pull_loop(shared: &Shared) {
    let addr = shared
        .cfg
        .follower_of
        .clone()
        .expect("pull loop requires follower_of");
    // One attempt per request (max_retries 0): this loop owns the retry
    // cadence with the shared jittered policy, and the client redials
    // on the request after a failed one. The attempt deadline (connect
    // + auth + reply) is tied to the lease so a SIGSTOPped (wedged, not
    // dead) primary is detected within a few lease windows, not after
    // threshold × 2 s.
    let timeout_ms = if shared.cfg.auto_promote {
        (shared.cfg.lease_ms / 2).clamp(50, 2_000)
    } else {
        2_000
    };
    let client_cfg = ClientConfig::single_attempt(&addr, timeout_ms, shared.cfg.auth_token.clone());
    let policy = BackoffPolicy { base: 20, cap: 500 };
    let seed = addr
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    let mut client = ServiceClient::new(client_cfg.clone());
    let mut attempts: u32 = 0;
    let mut liveness = Liveness::new(shared.cfg.lease_ms);
    while !shared.shutting_down() && !shared.is_primary() {
        let after_seq = shared.repl.head_seq();
        let pull = Frame::ReplPull {
            after_seq,
            max_entries: MAX_REPL_ENTRIES_PER_FRAME as u32,
            epoch: shared.epoch(),
        };
        match client.request(&pull) {
            Ok(Frame::ReplEntries {
                head_seq,
                epoch,
                lease_ms,
                entries,
            }) => {
                attempts = 0;
                liveness.saw_reply(Some(lease_ms));
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
                let caught_up = entries.is_empty();
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
                if caught_up && shared.repl.head_seq() >= head_seq {
                    sleep_ms(shared.cfg.pull_interval_ms.max(1));
                }
            }
            Ok(Frame::ReplSnapshot { repl_seq, bytes }) => {
                attempts = 0;
                liveness.saw_reply(None);
                match install_pulled_snapshot(shared, repl_seq, &bytes) {
                    Ok(()) => {}
                    Err(err) => {
                        eprintln!("fgcs-service: snapshot resync from {addr} failed: {err}");
                        sleep_ms(policy.delay_jittered(1, seed));
                    }
                }
            }
            Ok(Frame::Error { code, detail }) => {
                // The primary exists but can't serve us yet (no log
                // configured, restarting, auth hiccup). Keep trying —
                // an operator fixing the primary shouldn't have to
                // restart every follower too. A typed error is a live
                // process answering: it resets liveness, so only real
                // silence can trigger a failover.
                attempts = attempts.saturating_add(1);
                liveness.saw_reply(None);
                if attempts == 1 || code == ErrorCode::Unsupported {
                    eprintln!("fgcs-service: pull from {addr} rejected ({code:?}): {detail}");
                }
                sleep_ms(policy.delay_jittered(attempts, seed));
            }
            Ok(other) => {
                eprintln!(
                    "fgcs-service: unexpected pull reply tag {} from {addr}",
                    other.tag()
                );
                client.force_disconnect();
                attempts = attempts.saturating_add(1);
                liveness.saw_reply(None);
                sleep_ms(policy.delay_jittered(attempts, seed));
            }
            Err(_) => {
                attempts = attempts.saturating_add(1);
                liveness.failures = liveness.failures.saturating_add(1);
                if maybe_self_promote(shared, &liveness, &addr, &client_cfg) {
                    return;
                }
                sleep_ms(policy.delay_jittered(attempts, seed));
            }
        }
    }
}

/// Decides whether this follower should take over now, and if so does
/// the whole failover: election among `promotion_peers`, promotion,
/// then fencing of the (possibly not-quite-dead) old primary. Returns
/// `true` when the node promoted — the pull loop is over.
fn maybe_self_promote(
    shared: &Shared,
    liveness: &Liveness,
    primary_addr: &str,
    client_cfg: &ClientConfig,
) -> bool {
    if !shared.cfg.auto_promote
        || shared.repl_failed.load(Ordering::Acquire)
        || !liveness.expired(shared.cfg.missed_pull_threshold)
        || shared.shutting_down()
    {
        return false;
    }
    let my_applied = shared.repl.head_seq();
    // Election: defer to any sibling follower that is strictly more
    // caught up, or equally caught up with a lexically lower address
    // (addresses must be distinct for the tie-break to be total — the
    // operator lists each follower's real listen address). A peer that
    // already promoted wins outright. Unreachable peers don't block:
    // they may be as dead as the primary.
    for peer in &shared.cfg.promotion_peers {
        let probe = probe_repl_status(
            peer,
            shared.cfg.auth_token.clone(),
            client_cfg.read_timeout_ms,
        );
        let Some((role, epoch, applied_seq)) = probe else {
            continue;
        };
        if role == ROLE_PRIMARY && epoch >= shared.epoch() {
            // Someone already took over; never start a second reign.
            eprintln!(
                "fgcs-service: primary {primary_addr} is dead but peer {peer} already \
                 promoted (epoch {epoch}); staying a follower"
            );
            shared.observe_epoch(epoch);
            return false;
        }
        if applied_seq > my_applied
            || (applied_seq == my_applied && peer.as_str() < shared.cfg.addr.as_str())
        {
            return false;
        }
    }
    eprintln!(
        "fgcs-service: primary {primary_addr} declared dead \
         ({} consecutive missed pulls, lease expired); self-promoting at applied seq {}",
        liveness.failures, my_applied
    );
    shared.promote();
    fence_old_primary(shared, primary_addr, client_cfg);
    true
}

/// Hammers the old primary's address with an epoch-carrying `ReplPull`
/// until something answers (the fence lands — a revived primary
/// demotes itself inside `fence_if_superseded` before replying) or the
/// server shuts down. A SIGKILLed primary never answers; the periodic
/// refused connect is the cost of covering the paused-then-revived
/// one, which can come back minutes later.
fn fence_old_primary(shared: &Shared, primary_addr: &str, client_cfg: &ClientConfig) {
    let policy = BackoffPolicy { base: 20, cap: 500 };
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
                "fgcs-service: fenced old primary {primary_addr} at epoch {} \
                 (reply tag {})",
                shared.epoch(),
                reply.tag()
            );
            return;
        }
        attempts = attempts.saturating_add(1);
        sleep_ms(policy.delay_jittered(attempts, seed));
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
mod tests {
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

    // --- Liveness: the failure detector driving self-promotion.

    #[test]
    fn liveness_needs_both_threshold_and_lease_expiry() {
        let mut l = Liveness::new(0);
        assert!(!l.expired(3), "no failures yet");
        l.failures = 3;
        assert!(l.expired(3), "zero lease: threshold alone decides");
        // A granted lease in the future holds the failover back even
        // past the threshold.
        l.saw_reply(Some(60_000));
        l.failures = 10;
        assert!(!l.expired(3), "unexpired lease must veto promotion");
        // Any reply resets the failure count.
        l.saw_reply(Some(60_000));
        assert_eq!(l.failures, 0);
        assert!(!l.expired(1));
    }

    #[test]
    fn liveness_threshold_zero_is_treated_as_one() {
        let mut l = Liveness::new(0);
        assert!(!l.expired(0), "zero failures never expires");
        l.failures = 1;
        assert!(l.expired(0));
    }
}
