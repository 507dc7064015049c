//! The message vocabulary and payload serialization.
//!
//! Every message is a [`Frame`]; payload field layouts are documented in
//! DESIGN.md §9. All integers are little-endian; `f64` fields travel as
//! their IEEE-754 bit pattern so values round-trip bit-exactly.

use std::sync::Arc;

use crate::codec::{ByteReader, EncodeError, PayloadError};

/// Protocol version carried in every frame header. Decoders reject
/// frames from any other version rather than guessing at layouts.
/// Version 2 added the failover fields: `epoch` on
/// [`Frame::ReplPull`] / [`Frame::ReplEntries`] /
/// [`Frame::ReplStatusReply`], `lease_ms` on [`Frame::ReplEntries`],
/// and [`ErrorCode::TooStale`].
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard cap on samples per [`Frame::SampleBatch`].
pub const MAX_SAMPLES_PER_BATCH: usize = 16_384;
/// Hard cap on transitions per [`Frame::Transitions`].
pub const MAX_TRANSITIONS_PER_FRAME: usize = 65_536;
/// Hard cap on per-machine entries in a [`StatsPayload`].
pub const MAX_MACHINE_STATS: usize = 65_536;
/// Hard cap on the detail string of an [`Frame::Error`].
pub const MAX_ERROR_DETAIL: usize = 1_024;
/// Hard cap on the token string of a [`Frame::Auth`].
pub const MAX_AUTH_TOKEN: usize = 256;
/// Hard cap on entries per [`Frame::ReplEntries`]. Each entry carries
/// one ingested batch, so this bounds replication catch-up chunks.
pub const MAX_REPL_ENTRIES_PER_FRAME: usize = 1_024;
/// Payload bytes of a [`Frame::ReplEntries`] before its first entry
/// (`head_seq`, `epoch`, `lease_ms`, entry count). With
/// [`ReplEntry::encoded_len`] it lets a sender fill a reply up to
/// [`crate::codec::MAX_FRAME_LEN`] and no further.
pub const REPL_ENTRIES_HEADER_LEN: usize = 8 + 8 + 8 + 4;
/// Hard cap on the serialized snapshot carried by a
/// [`Frame::ReplSnapshot`] resync: the largest byte string that still
/// fits a single frame under [`crate::codec::MAX_FRAME_LEN`] (8-byte
/// seq + 4-byte length prefix). Primaries whose state outgrows this
/// must keep enough replication log retained that followers never need
/// a snapshot resync.
pub const MAX_REPL_SNAPSHOT_BYTES: usize = crate::codec::MAX_FRAME_LEN - 12;

/// How one sample reports CPU usage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleLoad {
    /// Host load already computed by the sender, in `[0, 1]`.
    Direct(f64),
    /// Raw cumulative counters (busy ticks, total ticks); the server
    /// diffs them through its per-machine `fgcs_core::monitor::Monitor`,
    /// which also absorbs counter resets.
    Counters {
        /// Cumulative busy (host + system) ticks since boot.
        busy: u64,
        /// Cumulative total ticks since boot.
        total: u64,
    },
}

/// One monitor sample as it crosses the wire — the observable surface of
/// `fgcs_testbed::lab::LoadSample`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSample {
    /// Timestamp, seconds since the machine's trace start.
    pub t: u64,
    /// CPU usage, direct or counter-level.
    pub load: SampleLoad,
    /// Resident memory of host + system processes, MB.
    pub host_resident_mb: u32,
    /// Machine/service liveness.
    pub alive: bool,
}

/// One detector state transition, as pushed to consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTransition {
    /// Per-machine monotone sequence number.
    pub seq: u64,
    /// Timestamp of the observation that caused the transition.
    pub at: u64,
    /// New state, coded 1..=5 (`AvailState::code`).
    pub state: u8,
}

/// One replication-log entry: an ingested sample batch plus the
/// post-apply cursors it produced on the primary. The follower replays
/// the batch through its own ingest path (which is deterministic) and
/// then asserts that its cursors landed exactly on `last_t_after` /
/// `next_seq_after` — any mismatch means the replicas have diverged and
/// continuing would silently corrupt the follower.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplEntry {
    /// Primary-global monotone replication sequence number (1-based).
    pub seq: u64,
    /// Machine the batch belongs to.
    pub machine: u32,
    /// The machine's `last_t` after the primary applied this batch.
    pub last_t_after: u64,
    /// The machine's next transition seq after the primary applied
    /// this batch.
    pub next_seq_after: u64,
    /// The raw samples, exactly as ingested, in their wire layout.
    pub samples: EncodedSamples,
}

impl ReplEntry {
    /// Bytes this entry occupies in a [`Frame::ReplEntries`] payload.
    pub fn encoded_len(&self) -> usize {
        8 + 4 + 8 + 8 + self.samples.byte_len()
    }
}

/// A sample list held as its wire bytes: the count-prefixed layout
/// [`Frame::SampleBatch`] and [`Frame::ReplEntries`] carry (DESIGN.md
/// §9), behind an `Arc` so clones share one allocation.
///
/// The bytes are valid by construction. Encoding a `&[WireSample]`
/// writes them, and decoding checks them once — the count cap, every
/// kind and `alive` byte, and the exact length — before copying the
/// slice in. So [`EncodedSamples::iter`] cannot fail, and writing the
/// list into a frame is one copy. A replication log keeps each batch
/// this way: 22 bytes per `Direct` sample against 40 as a
/// `Vec<WireSample>`, and a pull clones a pointer, not the samples.
///
/// Equality compares bytes, so it is bit-exact: two lists holding the
/// same NaN load are equal, unlike their `WireSample`s.
#[derive(Clone, PartialEq, Eq)]
pub struct EncodedSamples(Arc<[u8]>);

impl EncodedSamples {
    /// Encodes `samples`.
    ///
    /// # Panics
    ///
    /// If there are more than [`MAX_SAMPLES_PER_BATCH`] samples: no
    /// frame could carry them. Every decoded batch is within the cap.
    fn encode(samples: &[WireSample]) -> Self {
        assert!(
            samples.len() <= MAX_SAMPLES_PER_BATCH,
            "{} samples exceed the batch cap {MAX_SAMPLES_PER_BATCH}",
            samples.len()
        );
        // Room for the larger (counters) layout: the Arc copies it out.
        let mut out = Vec::with_capacity(4 + (8 + 1 + 16 + 4 + 1) * samples.len());
        put_samples(&mut out, samples);
        EncodedSamples(out.into())
    }

    /// Reads and validates a sample list, leaving `r` just past it.
    fn read(r: &mut ByteReader<'_>) -> Result<Self, PayloadError> {
        Ok(EncodedSamples(read_sample_bytes(r)?.into()))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        sample_count(&self.0)
    }

    /// Whether the list holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the encoding, count prefix included: what the list
    /// occupies in a frame and in memory.
    pub fn byte_len(&self) -> usize {
        self.0.len()
    }

    /// The samples, in order, decoded from the bytes.
    pub fn iter(&self) -> impl Iterator<Item = WireSample> + '_ {
        decode_samples(&self.0)
    }
}

impl Default for EncodedSamples {
    fn default() -> Self {
        Self::encode(&[])
    }
}

impl From<&[WireSample]> for EncodedSamples {
    fn from(samples: &[WireSample]) -> Self {
        Self::encode(samples)
    }
}

impl From<Vec<WireSample>> for EncodedSamples {
    fn from(samples: Vec<WireSample>) -> Self {
        Self::encode(&samples)
    }
}

impl FromIterator<WireSample> for EncodedSamples {
    fn from_iter<I: IntoIterator<Item = WireSample>>(iter: I) -> Self {
        Self::encode(&iter.into_iter().collect::<Vec<_>>())
    }
}

impl std::fmt::Debug for EncodedSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Per-machine entry of a [`StatsPayload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineStat {
    /// Machine id.
    pub machine: u32,
    /// Current detector state, coded 1..=5.
    pub state: u8,
    /// Timestamp of the last ingested sample.
    pub last_t: u64,
    /// Unavailability occurrences recorded so far.
    pub occurrences: u64,
    /// State transitions recorded so far.
    pub transitions: u64,
    /// A guest may be placed here right now: the machine is in an
    /// available state and its recent-spike guard is quiet. This is the
    /// same predicate [`Frame::Place`] ranks candidates with, exported
    /// so schedulers can filter machines without decoding state codes.
    pub harvestable: bool,
}

/// Server counters exposed by [`Frame::StatsReply`]. The backpressure
/// identity `ingested + shed + decode-rejected == frames sent` is checked
/// against these by the overload experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsPayload {
    /// Sample batches fed to a detector.
    pub ingested_batches: u64,
    /// Samples fed to a detector.
    pub ingested_samples: u64,
    /// Batches shed (oldest-first) because the ingest queue was full.
    pub shed_batches: u64,
    /// Samples inside shed batches.
    pub shed_samples: u64,
    /// Frames rejected by the decoder (bad checksum/payload/tag).
    pub decode_errors: u64,
    /// `Busy` frames sent to producers.
    pub busy_replies: u64,
    /// Batches currently queued, not yet ingested.
    pub queue_depth: u64,
    /// Availability queries answered.
    pub queries_answered: u64,
    /// Placement requests answered.
    pub placements_answered: u64,
    /// Ingested samples per second since the server started.
    pub ingest_rate: f64,
    /// Per-machine detector state.
    pub machines: Vec<MachineStat>,
}

/// Scheduler counters exposed by [`Frame::SchedStatsReply`]. The
/// conservation identity `submitted == completed + queued + running`
/// (rejected submissions never become jobs) is what the scheduler
/// end-to-end tests reconcile against these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStatsPayload {
    /// Jobs accepted via [`Frame::SchedSubmit`].
    pub submitted: u64,
    /// Jobs that reached their full work requirement.
    pub completed: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Eviction events (host became unavailable under a running guest).
    pub evictions: u64,
    /// Proactive migrations (predicted failure crossed the SLO threshold).
    pub migrations: u64,
    /// Guest-seconds of progress lost to evictions (work since the last
    /// checkpoint at the moment the host revoked the guest).
    pub wasted_secs: u64,
    /// Jobs currently waiting for placement.
    pub queued: u64,
    /// Jobs currently running on a host.
    pub running: u64,
}

/// Typed error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame failed to decode (checksum, payload, or unknown tag).
    BadFrame,
    /// The queried machine has never streamed a sample.
    UnknownMachine,
    /// The request is valid but the server does not support it.
    Unsupported,
    /// The server hit an internal error handling the request.
    Internal,
    /// The stream has not presented a valid [`Frame::Auth`] token; the
    /// server closes the connection after sending this.
    Unauthorized,
    /// The server is at its connection cap; this connection is refused
    /// and closed.
    ConnLimit,
    /// The request mutates ingest state but this node is a follower;
    /// the client should fail over to the primary (or wait for this
    /// node's promotion).
    NotPrimary,
    /// A job submission was refused because the user is already at
    /// their fairshare allowance (base quota plus granted extra) times
    /// the scheduler's backlog factor.
    QuotaExceeded,
    /// The queried job id is not known to the scheduler.
    UnknownJob,
    /// The request is a read served by a follower whose replication
    /// lag currently exceeds the configured staleness bound; the
    /// client should retry against the primary (or wait for the
    /// follower to catch up).
    TooStale,
}

impl ErrorCode {
    /// Wire code (1-based; 0 is reserved as invalid).
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::UnknownMachine => 2,
            ErrorCode::Unsupported => 3,
            ErrorCode::Internal => 4,
            ErrorCode::Unauthorized => 5,
            ErrorCode::ConnLimit => 6,
            ErrorCode::NotPrimary => 7,
            ErrorCode::QuotaExceeded => 8,
            ErrorCode::UnknownJob => 9,
            ErrorCode::TooStale => 10,
        }
    }

    /// Inverse of [`ErrorCode::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(ErrorCode::BadFrame),
            2 => Some(ErrorCode::UnknownMachine),
            3 => Some(ErrorCode::Unsupported),
            4 => Some(ErrorCode::Internal),
            5 => Some(ErrorCode::Unauthorized),
            6 => Some(ErrorCode::ConnLimit),
            7 => Some(ErrorCode::NotPrimary),
            8 => Some(ErrorCode::QuotaExceeded),
            9 => Some(ErrorCode::UnknownJob),
            10 => Some(ErrorCode::TooStale),
            _ => None,
        }
    }
}

/// One protocol message. The strict request/reply pairing (every client
/// frame earns exactly one server frame) is what makes the shed/reject
/// accounting reconcile exactly; see DESIGN.md §9.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Producer → server: a batch of monitor samples for one machine.
    SampleBatch {
        /// Machine id the samples belong to.
        machine: u32,
        /// The samples, timestamps non-decreasing.
        samples: Vec<WireSample>,
    },
    /// Server → producer: the batch was queued. `seq` counts batches
    /// accepted on this connection.
    Ack {
        /// Batches accepted on this connection so far.
        seq: u64,
    },
    /// Server → producer: the batch was queued, but the ingest queue was
    /// full and the *oldest* queued batch was shed to make room. The
    /// producer should slow down.
    Busy {
        /// Total batches the server has shed so far.
        shed_batches: u64,
    },
    /// Consumer → server: probability the machine stays available over
    /// `[now, now + horizon)`.
    QueryAvail {
        /// Machine id.
        machine: u32,
        /// Window length, seconds.
        horizon: u64,
    },
    /// Server → consumer: answer to [`Frame::QueryAvail`].
    AvailReply {
        /// Machine id echoed back.
        machine: u32,
        /// Current detector state, coded 1..=5.
        state: u8,
        /// Probability of uninterrupted availability over the horizon.
        prob: f64,
    },
    /// Consumer → server: pick the machine most likely to stay available
    /// for a job of the given length.
    Place {
        /// Job length, seconds.
        job_len: u64,
    },
    /// Server → consumer: answer to [`Frame::Place`].
    PlaceReply {
        /// Chosen machine, or `None` if no machine is currently
        /// harvestable.
        machine: Option<u32>,
        /// Predicted availability of the chosen machine over the job.
        prob: f64,
    },
    /// Consumer → server: request a [`Frame::StatsReply`].
    QueryStats,
    /// Server → consumer: ingest/queue/shed counters and per-machine
    /// detector state.
    StatsReply(StatsPayload),
    /// Consumer → server: request transitions of one machine with
    /// `seq >= since_seq`, at most `max` of them.
    QueryTransitions {
        /// Machine id.
        machine: u32,
        /// First sequence number wanted.
        since_seq: u64,
        /// Cap on transitions returned.
        max: u32,
    },
    /// Server → consumer: state/transition push for one machine.
    Transitions {
        /// Machine id.
        machine: u32,
        /// The transitions, sequence-ordered.
        transitions: Vec<WireTransition>,
    },
    /// Either direction: a typed error. Sent by the server for
    /// unanswerable requests and for every rejected (undecodable) frame.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail (bounded).
        detail: String,
    },
    /// Client → server: shared-token authentication. When the server is
    /// configured with a token, this must be the first frame on every
    /// connection; a matching token earns `Ack { seq: 0 }`, anything
    /// else earns `Error { Unauthorized }` and the connection is
    /// closed. Servers without a token configured accept (and `Ack`)
    /// the frame but do not require it.
    Auth {
        /// The shared secret (UTF-8, bounded by [`MAX_AUTH_TOKEN`]).
        token: String,
    },
    /// Follower → primary: pull replication entries with
    /// `seq > after_seq`. Doubles as the applied-seq ack — a pull for
    /// `after_seq = N` tells the primary the follower has durably
    /// applied everything through `N`, so the log can be trimmed.
    ReplPull {
        /// Highest replication seq the follower has applied.
        after_seq: u64,
        /// Cap on entries wanted in the reply.
        max_entries: u32,
        /// The puller's current epoch. Doubles as the **fencing**
        /// write: a node that receives a pull carrying a strictly
        /// higher epoch than its own has been superseded — if it still
        /// thinks it is a primary it demotes itself on the spot, so a
        /// paused-then-revived primary rejects ingest (`NotPrimary`)
        /// instead of splitting the brain.
        epoch: u64,
    },
    /// Primary → follower: answer to [`Frame::ReplPull`] when the
    /// requested position is still in the log (possibly empty when the
    /// follower is caught up).
    ReplEntries {
        /// Newest replication seq the primary has allocated (0 when
        /// nothing was ever logged). Lets the follower see its lag even
        /// on an empty reply.
        head_seq: u64,
        /// The primary's current epoch; the follower adopts it so a
        /// later self-promotion allocates a strictly higher one.
        epoch: u64,
        /// Liveness lease granted by this reply, milliseconds: the
        /// follower may declare the primary dead once this much time
        /// passes without any reply (0 = no lease; detection then
        /// rests on the missed-pull threshold alone).
        lease_ms: u64,
        /// The entries, seq-ascending, starting just past `after_seq`.
        entries: Vec<ReplEntry>,
    },
    /// Primary → follower: answer to [`Frame::ReplPull`] when the
    /// requested position has been trimmed from the log (or the
    /// follower is brand-new): a full serialized snapshot to install,
    /// after which the follower resumes pulling from `repl_seq`.
    ReplSnapshot {
        /// Replication seq the snapshot is consistent with.
        repl_seq: u64,
        /// The serialized snapshot (DESIGN.md §11 format).
        bytes: Vec<u8>,
    },
    /// Either role → server: request a [`Frame::ReplStatusReply`].
    ReplStatus,
    /// Server → client: replication-role and log-cursor status.
    ReplStatusReply {
        /// 1 = primary, 2 = follower.
        role: u8,
        /// The node's current epoch. A client choosing between two
        /// nodes that both claim primaryship must trust the higher
        /// epoch — the lower one is a revived ghost awaiting fencing.
        epoch: u64,
        /// Follower: highest replication seq applied. Primary: newest
        /// seq allocated.
        applied_seq: u64,
        /// Newest seq in the retained log (0 when empty).
        head_seq: u64,
        /// Oldest seq in the retained log (0 when empty).
        tail_seq: u64,
        /// Highest applied-seq acked by a pulling follower.
        acked_seq: u64,
        /// Entries currently retained in the log.
        log_len: u64,
    },
    /// Operator → follower: promote to primary. The node stops pulling,
    /// starts accepting `SampleBatch` ingest and logging it for its own
    /// followers, and replies `Ack { seq: 0 }`. Idempotent.
    Promote,
    /// Client → scheduler: submit a guest job of `work` guest-seconds
    /// on behalf of `user`. Earns a [`Frame::SchedJobReply`] when
    /// admitted, or `Error { QuotaExceeded }` when the user's backlog
    /// allowance is exhausted.
    SchedSubmit {
        /// Submitting user id.
        user: u32,
        /// Total work the job needs, guest-seconds.
        work: u64,
    },
    /// Client → scheduler: query one job by id. Earns a
    /// [`Frame::SchedJobReply`] or `Error { UnknownJob }`.
    SchedQueryJob {
        /// Job id from the submit reply.
        id: u64,
    },
    /// Scheduler → client: the state of one job.
    SchedJobReply {
        /// Job id (allocated at submit, monotone per scheduler).
        id: u64,
        /// Owning user id.
        user: u32,
        /// Job state, coded 1..=3 (queued / running / completed).
        state: u8,
        /// Host machine while running, `None` otherwise.
        machine: Option<u32>,
        /// Checkpointed progress, guest-seconds.
        done: u64,
        /// Total work requirement, guest-seconds.
        work: u64,
        /// Times this job was evicted by host revocation.
        evictions: u32,
        /// Times this job was proactively migrated.
        migrations: u32,
    },
    /// Client → scheduler: fairshare operation for one user, coded
    /// 1..=3 (request extra / release extra / status only). Earns a
    /// [`Frame::SchedShareReply`] with the post-operation ledger row.
    SchedShare {
        /// User id.
        user: u32,
        /// Operation code 1..=3.
        op: u8,
        /// Slots to request or release (ignored for status).
        amount: u64,
    },
    /// Scheduler → client: one user's fairshare ledger row.
    SchedShareReply {
        /// User id echoed back.
        user: u32,
        /// Base quota, concurrent running-job slots.
        base: u64,
        /// Extra slots currently granted from the shared pool.
        extra: u64,
        /// Slots currently consumed by running jobs.
        in_use: u64,
        /// Slots left in the shared pool.
        pool_free: u64,
    },
    /// Client → scheduler: request a [`Frame::SchedStatsReply`].
    SchedQueryStats,
    /// Scheduler → client: scheduler counters.
    SchedStatsReply(SchedStatsPayload),
}

impl Frame {
    /// The frame's type tag, as carried in the header.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::SampleBatch { .. } => 1,
            Frame::Ack { .. } => 2,
            Frame::Busy { .. } => 3,
            Frame::QueryAvail { .. } => 4,
            Frame::AvailReply { .. } => 5,
            Frame::Place { .. } => 6,
            Frame::PlaceReply { .. } => 7,
            Frame::QueryStats => 8,
            Frame::StatsReply(_) => 9,
            Frame::QueryTransitions { .. } => 10,
            Frame::Transitions { .. } => 11,
            Frame::Error { .. } => 12,
            Frame::Auth { .. } => 13,
            Frame::ReplPull { .. } => 14,
            Frame::ReplEntries { .. } => 15,
            Frame::ReplSnapshot { .. } => 16,
            Frame::ReplStatus => 17,
            Frame::ReplStatusReply { .. } => 18,
            Frame::Promote => 19,
            Frame::SchedSubmit { .. } => 20,
            Frame::SchedQueryJob { .. } => 21,
            Frame::SchedJobReply { .. } => 22,
            Frame::SchedShare { .. } => 23,
            Frame::SchedShareReply { .. } => 24,
            Frame::SchedQueryStats => 25,
            Frame::SchedStatsReply(_) => 26,
        }
    }

    /// Serializes the payload (everything after the header) into `out`.
    pub(crate) fn encode_payload(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        match self {
            Frame::SampleBatch { machine, samples } => {
                if samples.len() > MAX_SAMPLES_PER_BATCH {
                    return Err(EncodeError::TooManyElements {
                        what: "samples",
                        len: samples.len(),
                        max: MAX_SAMPLES_PER_BATCH,
                    });
                }
                put_u32(out, *machine);
                put_samples(out, samples);
            }
            Frame::Ack { seq } => put_u64(out, *seq),
            Frame::Busy { shed_batches } => put_u64(out, *shed_batches),
            Frame::QueryAvail { machine, horizon } => {
                put_u32(out, *machine);
                put_u64(out, *horizon);
            }
            Frame::AvailReply {
                machine,
                state,
                prob,
            } => {
                put_u32(out, *machine);
                out.push(*state);
                put_f64(out, *prob);
            }
            Frame::Place { job_len } => put_u64(out, *job_len),
            Frame::PlaceReply { machine, prob } => {
                match machine {
                    Some(m) => {
                        out.push(1);
                        put_u32(out, *m);
                    }
                    None => {
                        out.push(0);
                        put_u32(out, 0);
                    }
                }
                put_f64(out, *prob);
            }
            Frame::QueryStats => {}
            Frame::StatsReply(s) => {
                if s.machines.len() > MAX_MACHINE_STATS {
                    return Err(EncodeError::TooManyElements {
                        what: "machine stats",
                        len: s.machines.len(),
                        max: MAX_MACHINE_STATS,
                    });
                }
                put_u64(out, s.ingested_batches);
                put_u64(out, s.ingested_samples);
                put_u64(out, s.shed_batches);
                put_u64(out, s.shed_samples);
                put_u64(out, s.decode_errors);
                put_u64(out, s.busy_replies);
                put_u64(out, s.queue_depth);
                put_u64(out, s.queries_answered);
                put_u64(out, s.placements_answered);
                put_f64(out, s.ingest_rate);
                put_u32(out, s.machines.len() as u32);
                for m in &s.machines {
                    put_u32(out, m.machine);
                    out.push(m.state);
                    put_u64(out, m.last_t);
                    put_u64(out, m.occurrences);
                    put_u64(out, m.transitions);
                    out.push(m.harvestable as u8);
                }
            }
            Frame::QueryTransitions {
                machine,
                since_seq,
                max,
            } => {
                put_u32(out, *machine);
                put_u64(out, *since_seq);
                put_u32(out, *max);
            }
            Frame::Transitions {
                machine,
                transitions,
            } => {
                if transitions.len() > MAX_TRANSITIONS_PER_FRAME {
                    return Err(EncodeError::TooManyElements {
                        what: "transitions",
                        len: transitions.len(),
                        max: MAX_TRANSITIONS_PER_FRAME,
                    });
                }
                put_u32(out, *machine);
                put_u32(out, transitions.len() as u32);
                for t in transitions {
                    put_u64(out, t.seq);
                    put_u64(out, t.at);
                    out.push(t.state);
                }
            }
            Frame::Error { code, detail } => {
                let bytes = detail.as_bytes();
                if bytes.len() > MAX_ERROR_DETAIL {
                    return Err(EncodeError::TooManyElements {
                        what: "error detail bytes",
                        len: bytes.len(),
                        max: MAX_ERROR_DETAIL,
                    });
                }
                out.push(code.code());
                put_u32(out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
            Frame::Auth { token } => {
                let bytes = token.as_bytes();
                if bytes.len() > MAX_AUTH_TOKEN {
                    return Err(EncodeError::TooManyElements {
                        what: "auth token bytes",
                        len: bytes.len(),
                        max: MAX_AUTH_TOKEN,
                    });
                }
                put_u32(out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
            Frame::ReplPull {
                after_seq,
                max_entries,
                epoch,
            } => {
                put_u64(out, *after_seq);
                put_u32(out, *max_entries);
                put_u64(out, *epoch);
            }
            Frame::ReplEntries {
                head_seq,
                epoch,
                lease_ms,
                entries,
            } => {
                if entries.len() > MAX_REPL_ENTRIES_PER_FRAME {
                    return Err(EncodeError::TooManyElements {
                        what: "replication entries",
                        len: entries.len(),
                        max: MAX_REPL_ENTRIES_PER_FRAME,
                    });
                }
                put_u64(out, *head_seq);
                put_u64(out, *epoch);
                put_u64(out, *lease_ms);
                put_u32(out, entries.len() as u32);
                for e in entries {
                    put_u64(out, e.seq);
                    put_u32(out, e.machine);
                    put_u64(out, e.last_t_after);
                    put_u64(out, e.next_seq_after);
                    out.extend_from_slice(&e.samples.0);
                }
            }
            Frame::ReplSnapshot { repl_seq, bytes } => {
                if bytes.len() > MAX_REPL_SNAPSHOT_BYTES {
                    return Err(EncodeError::TooManyElements {
                        what: "replication snapshot bytes",
                        len: bytes.len(),
                        max: MAX_REPL_SNAPSHOT_BYTES,
                    });
                }
                put_u64(out, *repl_seq);
                put_u32(out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
            Frame::ReplStatus => {}
            Frame::ReplStatusReply {
                role,
                epoch,
                applied_seq,
                head_seq,
                tail_seq,
                acked_seq,
                log_len,
            } => {
                out.push(*role);
                put_u64(out, *epoch);
                put_u64(out, *applied_seq);
                put_u64(out, *head_seq);
                put_u64(out, *tail_seq);
                put_u64(out, *acked_seq);
                put_u64(out, *log_len);
            }
            Frame::Promote => {}
            Frame::SchedSubmit { user, work } => {
                put_u32(out, *user);
                put_u64(out, *work);
            }
            Frame::SchedQueryJob { id } => put_u64(out, *id),
            Frame::SchedJobReply {
                id,
                user,
                state,
                machine,
                done,
                work,
                evictions,
                migrations,
            } => {
                put_u64(out, *id);
                put_u32(out, *user);
                out.push(*state);
                match machine {
                    Some(m) => {
                        out.push(1);
                        put_u32(out, *m);
                    }
                    None => {
                        out.push(0);
                        put_u32(out, 0);
                    }
                }
                put_u64(out, *done);
                put_u64(out, *work);
                put_u32(out, *evictions);
                put_u32(out, *migrations);
            }
            Frame::SchedShare { user, op, amount } => {
                put_u32(out, *user);
                out.push(*op);
                put_u64(out, *amount);
            }
            Frame::SchedShareReply {
                user,
                base,
                extra,
                in_use,
                pool_free,
            } => {
                put_u32(out, *user);
                put_u64(out, *base);
                put_u64(out, *extra);
                put_u64(out, *in_use);
                put_u64(out, *pool_free);
            }
            Frame::SchedQueryStats => {}
            Frame::SchedStatsReply(s) => {
                put_u64(out, s.submitted);
                put_u64(out, s.completed);
                put_u64(out, s.rejected);
                put_u64(out, s.evictions);
                put_u64(out, s.migrations);
                put_u64(out, s.wasted_secs);
                put_u64(out, s.queued);
                put_u64(out, s.running);
            }
        }
        Ok(())
    }

    /// Deserializes a payload for `tag`. The whole payload must be
    /// consumed; trailing bytes are an error (they would mean a layout
    /// mismatch that a lenient decoder would silently paper over).
    pub(crate) fn decode_payload(tag: u8, payload: &[u8]) -> Result<Frame, PayloadError> {
        let mut r = ByteReader::new(payload);
        let frame = match tag {
            1 => {
                let machine = r.u32()?;
                let samples = read_samples(&mut r)?;
                Frame::SampleBatch { machine, samples }
            }
            2 => Frame::Ack { seq: r.u64()? },
            3 => Frame::Busy {
                shed_batches: r.u64()?,
            },
            4 => Frame::QueryAvail {
                machine: r.u32()?,
                horizon: r.u64()?,
            },
            5 => {
                let machine = r.u32()?;
                let state = state_code(r.u8()?)?;
                let prob = r.f64()?;
                Frame::AvailReply {
                    machine,
                    state,
                    prob,
                }
            }
            6 => Frame::Place { job_len: r.u64()? },
            7 => {
                let has = r.flag()?;
                let m = r.u32()?;
                let prob = r.f64()?;
                Frame::PlaceReply {
                    machine: has.then_some(m),
                    prob,
                }
            }
            8 => Frame::QueryStats,
            9 => {
                let mut s = StatsPayload {
                    ingested_batches: r.u64()?,
                    ingested_samples: r.u64()?,
                    shed_batches: r.u64()?,
                    shed_samples: r.u64()?,
                    decode_errors: r.u64()?,
                    busy_replies: r.u64()?,
                    queue_depth: r.u64()?,
                    queries_answered: r.u64()?,
                    placements_answered: r.u64()?,
                    ingest_rate: r.f64()?,
                    machines: Vec::new(),
                };
                let count = r.u32()? as usize;
                if count > MAX_MACHINE_STATS {
                    return Err(PayloadError::new(format!(
                        "machine stat count {count} exceeds cap {MAX_MACHINE_STATS}"
                    )));
                }
                for _ in 0..count {
                    s.machines.push(MachineStat {
                        machine: r.u32()?,
                        state: state_code(r.u8()?)?,
                        last_t: r.u64()?,
                        occurrences: r.u64()?,
                        transitions: r.u64()?,
                        harvestable: r.flag()?,
                    });
                }
                Frame::StatsReply(s)
            }
            10 => Frame::QueryTransitions {
                machine: r.u32()?,
                since_seq: r.u64()?,
                max: r.u32()?,
            },
            11 => {
                let machine = r.u32()?;
                let count = r.u32()? as usize;
                if count > MAX_TRANSITIONS_PER_FRAME {
                    return Err(PayloadError::new(format!(
                        "transition count {count} exceeds cap {MAX_TRANSITIONS_PER_FRAME}"
                    )));
                }
                let mut transitions = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    transitions.push(WireTransition {
                        seq: r.u64()?,
                        at: r.u64()?,
                        state: state_code(r.u8()?)?,
                    });
                }
                Frame::Transitions {
                    machine,
                    transitions,
                }
            }
            12 => {
                let code = ErrorCode::from_code(r.u8()?)
                    .ok_or_else(|| PayloadError::new("unknown error code"))?;
                let len = r.u32()? as usize;
                if len > MAX_ERROR_DETAIL {
                    return Err(PayloadError::new(format!(
                        "error detail length {len} exceeds cap {MAX_ERROR_DETAIL}"
                    )));
                }
                let bytes = r.bytes(len)?;
                let detail = std::str::from_utf8(bytes)
                    .map_err(|e| PayloadError::new(format!("error detail not UTF-8: {e}")))?
                    .to_string();
                Frame::Error { code, detail }
            }
            13 => {
                let len = r.u32()? as usize;
                if len > MAX_AUTH_TOKEN {
                    return Err(PayloadError::new(format!(
                        "auth token length {len} exceeds cap {MAX_AUTH_TOKEN}"
                    )));
                }
                let bytes = r.bytes(len)?;
                let token = std::str::from_utf8(bytes)
                    .map_err(|e| PayloadError::new(format!("auth token not UTF-8: {e}")))?
                    .to_string();
                Frame::Auth { token }
            }
            14 => Frame::ReplPull {
                after_seq: r.u64()?,
                max_entries: r.u32()?,
                epoch: r.u64()?,
            },
            15 => {
                let head_seq = r.u64()?;
                let epoch = r.u64()?;
                let lease_ms = r.u64()?;
                let count = r.u32()? as usize;
                if count > MAX_REPL_ENTRIES_PER_FRAME {
                    return Err(PayloadError::new(format!(
                        "replication entry count {count} exceeds cap {MAX_REPL_ENTRIES_PER_FRAME}"
                    )));
                }
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let seq = r.u64()?;
                    let machine = r.u32()?;
                    let last_t_after = r.u64()?;
                    let next_seq_after = r.u64()?;
                    let samples = EncodedSamples::read(&mut r)?;
                    entries.push(ReplEntry {
                        seq,
                        machine,
                        last_t_after,
                        next_seq_after,
                        samples,
                    });
                }
                Frame::ReplEntries {
                    head_seq,
                    epoch,
                    lease_ms,
                    entries,
                }
            }
            16 => {
                let repl_seq = r.u64()?;
                let len = r.u32()? as usize;
                if len > MAX_REPL_SNAPSHOT_BYTES {
                    return Err(PayloadError::new(format!(
                        "replication snapshot length {len} exceeds cap {MAX_REPL_SNAPSHOT_BYTES}"
                    )));
                }
                let bytes = r.bytes(len)?.to_vec();
                Frame::ReplSnapshot { repl_seq, bytes }
            }
            17 => Frame::ReplStatus,
            18 => {
                let role = r.u8()?;
                if !(1..=2).contains(&role) {
                    return Err(PayloadError::new(format!(
                        "replication role {role} outside 1..=2"
                    )));
                }
                Frame::ReplStatusReply {
                    role,
                    epoch: r.u64()?,
                    applied_seq: r.u64()?,
                    head_seq: r.u64()?,
                    tail_seq: r.u64()?,
                    acked_seq: r.u64()?,
                    log_len: r.u64()?,
                }
            }
            19 => Frame::Promote,
            20 => Frame::SchedSubmit {
                user: r.u32()?,
                work: r.u64()?,
            },
            21 => Frame::SchedQueryJob { id: r.u64()? },
            22 => {
                let id = r.u64()?;
                let user = r.u32()?;
                let state = job_state_code(r.u8()?)?;
                let has = r.flag()?;
                let m = r.u32()?;
                Frame::SchedJobReply {
                    id,
                    user,
                    state,
                    machine: has.then_some(m),
                    done: r.u64()?,
                    work: r.u64()?,
                    evictions: r.u32()?,
                    migrations: r.u32()?,
                }
            }
            23 => {
                let user = r.u32()?;
                let op = r.u8()?;
                if !(1..=3).contains(&op) {
                    return Err(PayloadError::new(format!("share op {op} outside 1..=3")));
                }
                Frame::SchedShare {
                    user,
                    op,
                    amount: r.u64()?,
                }
            }
            24 => Frame::SchedShareReply {
                user: r.u32()?,
                base: r.u64()?,
                extra: r.u64()?,
                in_use: r.u64()?,
                pool_free: r.u64()?,
            },
            25 => Frame::SchedQueryStats,
            26 => Frame::SchedStatsReply(SchedStatsPayload {
                submitted: r.u64()?,
                completed: r.u64()?,
                rejected: r.u64()?,
                evictions: r.u64()?,
                migrations: r.u64()?,
                wasted_secs: r.u64()?,
                queued: r.u64()?,
                running: r.u64()?,
            }),
            other => return Err(PayloadError::new(format!("unknown frame tag {other}"))),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Serializes a sample list (count-prefixed), the shared layout of
/// [`Frame::SampleBatch`] and [`Frame::ReplEntries`]. Callers enforce
/// [`MAX_SAMPLES_PER_BATCH`] before encoding.
fn put_samples(out: &mut Vec<u8>, samples: &[WireSample]) {
    put_u32(out, samples.len() as u32);
    for s in samples {
        put_u64(out, s.t);
        match s.load {
            SampleLoad::Direct(load) => {
                out.push(0);
                put_f64(out, load);
            }
            SampleLoad::Counters { busy, total } => {
                out.push(1);
                put_u64(out, busy);
                put_u64(out, total);
            }
        }
        put_u32(out, s.host_resident_mb);
        out.push(s.alive as u8);
    }
}

/// Inverse of [`put_samples`], enforcing [`MAX_SAMPLES_PER_BATCH`].
fn read_samples(r: &mut ByteReader<'_>) -> Result<Vec<WireSample>, PayloadError> {
    let bytes = read_sample_bytes(r)?;
    let mut samples = Vec::with_capacity(sample_count(bytes));
    samples.extend(decode_samples(bytes));
    Ok(samples)
}

/// Reads a sample list and returns its bytes, count prefix included.
/// Only the bytes that can be invalid are looked at: the count (against
/// [`MAX_SAMPLES_PER_BATCH`]), each kind byte, which fixes the sample's
/// length, and each `alive` byte.
fn read_sample_bytes<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8], PayloadError> {
    let start = r.position();
    let count = r.u32()? as usize;
    if count > MAX_SAMPLES_PER_BATCH {
        return Err(PayloadError::new(format!(
            "sample count {count} exceeds cap {MAX_SAMPLES_PER_BATCH}"
        )));
    }
    for _ in 0..count {
        r.bytes(8)?;
        match r.u8()? {
            0 => r.bytes(8)?,
            1 => r.bytes(16)?,
            k => return Err(PayloadError::new(format!("unknown sample kind {k}"))),
        };
        r.bytes(4)?;
        r.flag()?;
    }
    Ok(r.since(start))
}

/// The count prefix of a sample list's bytes.
fn sample_count(bytes: &[u8]) -> usize {
    bytes
        .first_chunk::<4>()
        .map_or(0, |c| u32::from_le_bytes(*c) as usize)
}

/// The samples of a list [`read_sample_bytes`] accepted. Bytes it would
/// not accept end the iterator early; nothing here panics.
fn decode_samples(bytes: &[u8]) -> impl Iterator<Item = WireSample> + '_ {
    let mut rest = bytes.get(4..).unwrap_or_default();
    (0..sample_count(bytes)).map_while(move |_| {
        let (sample, tail) = split_sample(rest)?;
        rest = tail;
        Some(sample)
    })
}

/// Decodes the sample at the front of `b` and returns it with the rest
/// of `b`; `None` if `b` is short or a kind or `alive` byte is invalid.
fn split_sample(b: &[u8]) -> Option<(WireSample, &[u8])> {
    let (t, b) = b.split_first_chunk::<8>()?;
    let (kind, b) = b.split_first()?;
    let (load, b) = match kind {
        0 => {
            let (load, b) = b.split_first_chunk::<8>()?;
            (SampleLoad::Direct(f64::from_le_bytes(*load)), b)
        }
        1 => {
            let (busy, b) = b.split_first_chunk::<8>()?;
            let (total, b) = b.split_first_chunk::<8>()?;
            let busy = u64::from_le_bytes(*busy);
            let total = u64::from_le_bytes(*total);
            (SampleLoad::Counters { busy, total }, b)
        }
        _ => return None,
    };
    let (resident, b) = b.split_first_chunk::<4>()?;
    let (alive, b) = b.split_first()?;
    let sample = WireSample {
        t: u64::from_le_bytes(*t),
        load,
        host_resident_mb: u32::from_le_bytes(*resident),
        alive: match alive {
            0 => false,
            1 => true,
            _ => return None,
        },
    };
    Some((sample, b))
}

/// Validates a model-state code (1..=5, `AvailState::code`).
fn state_code(code: u8) -> Result<u8, PayloadError> {
    if (1..=5).contains(&code) {
        Ok(code)
    } else {
        Err(PayloadError::new(format!(
            "state code {code} outside 1..=5"
        )))
    }
}

/// Validates a job-state code (1..=3: queued / running / completed).
fn job_state_code(code: u8) -> Result<u8, PayloadError> {
    if (1..=3).contains(&code) {
        Ok(code)
    } else {
        Err(PayloadError::new(format!(
            "job state code {code} outside 1..=3"
        )))
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip() {
        for c in [
            ErrorCode::BadFrame,
            ErrorCode::UnknownMachine,
            ErrorCode::Unsupported,
            ErrorCode::Internal,
            ErrorCode::Unauthorized,
            ErrorCode::ConnLimit,
            ErrorCode::NotPrimary,
            ErrorCode::QuotaExceeded,
            ErrorCode::UnknownJob,
            ErrorCode::TooStale,
        ] {
            assert_eq!(ErrorCode::from_code(c.code()), Some(c));
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(200), None);
    }

    #[test]
    fn tags_are_unique() {
        let frames = vec![
            Frame::SampleBatch {
                machine: 0,
                samples: vec![],
            },
            Frame::Ack { seq: 0 },
            Frame::Busy { shed_batches: 0 },
            Frame::QueryAvail {
                machine: 0,
                horizon: 0,
            },
            Frame::AvailReply {
                machine: 0,
                state: 1,
                prob: 0.5,
            },
            Frame::Place { job_len: 0 },
            Frame::PlaceReply {
                machine: None,
                prob: 0.0,
            },
            Frame::QueryStats,
            Frame::StatsReply(StatsPayload::default()),
            Frame::QueryTransitions {
                machine: 0,
                since_seq: 0,
                max: 0,
            },
            Frame::Transitions {
                machine: 0,
                transitions: vec![],
            },
            Frame::Error {
                code: ErrorCode::BadFrame,
                detail: String::new(),
            },
            Frame::Auth {
                token: String::new(),
            },
            Frame::ReplPull {
                after_seq: 0,
                max_entries: 0,
                epoch: 0,
            },
            Frame::ReplEntries {
                head_seq: 0,
                epoch: 0,
                lease_ms: 0,
                entries: vec![],
            },
            Frame::ReplSnapshot {
                repl_seq: 0,
                bytes: vec![],
            },
            Frame::ReplStatus,
            Frame::ReplStatusReply {
                role: 1,
                epoch: 1,
                applied_seq: 0,
                head_seq: 0,
                tail_seq: 0,
                acked_seq: 0,
                log_len: 0,
            },
            Frame::Promote,
            Frame::SchedSubmit { user: 0, work: 0 },
            Frame::SchedQueryJob { id: 0 },
            Frame::SchedJobReply {
                id: 0,
                user: 0,
                state: 1,
                machine: None,
                done: 0,
                work: 0,
                evictions: 0,
                migrations: 0,
            },
            Frame::SchedShare {
                user: 0,
                op: 3,
                amount: 0,
            },
            Frame::SchedShareReply {
                user: 0,
                base: 0,
                extra: 0,
                in_use: 0,
                pool_free: 0,
            },
            Frame::SchedQueryStats,
            Frame::SchedStatsReply(SchedStatsPayload::default()),
        ];
        let mut tags: Vec<u8> = frames.iter().map(|f| f.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), frames.len());
    }

    #[test]
    fn nan_probability_round_trips_bit_exactly() {
        let bits = 0x7ff8_dead_beef_0001u64;
        let f = Frame::AvailReply {
            machine: 1,
            state: 2,
            prob: f64::from_bits(bits),
        };
        let enc = crate::codec::encode(&f).unwrap();
        let mut d = Decoder::new();
        d.push(&enc);
        match d.next_frame().unwrap().unwrap() {
            Frame::AvailReply { prob, .. } => assert_eq!(prob.to_bits(), bits),
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn auth_round_trips_and_respects_the_token_cap() {
        let f = Frame::Auth {
            token: "s3cr3t-τøκ".to_string(),
        };
        let enc = f.encode().unwrap();
        assert_eq!(crate::codec::decode_one(&enc).unwrap(), f);

        let over = Frame::Auth {
            token: "x".repeat(MAX_AUTH_TOKEN + 1),
        };
        assert!(matches!(
            over.encode(),
            Err(EncodeError::TooManyElements { .. })
        ));
        let at_cap = Frame::Auth {
            token: "x".repeat(MAX_AUTH_TOKEN),
        };
        let enc = at_cap.encode().unwrap();
        assert_eq!(crate::codec::decode_one(&enc).unwrap(), at_cap);
    }

    #[test]
    fn replication_frames_round_trip() {
        let frames = vec![
            Frame::ReplPull {
                after_seq: 42,
                max_entries: 256,
                epoch: 3,
            },
            Frame::ReplEntries {
                head_seq: 99,
                epoch: 2,
                lease_ms: 750,
                entries: vec![
                    ReplEntry {
                        seq: 43,
                        machine: 7,
                        last_t_after: 1_234,
                        next_seq_after: 5,
                        samples: vec![
                            WireSample {
                                t: 1_200,
                                load: SampleLoad::Direct(0.25),
                                host_resident_mb: 512,
                                alive: true,
                            },
                            WireSample {
                                t: 1_234,
                                load: SampleLoad::Counters {
                                    busy: 10,
                                    total: 100,
                                },
                                host_resident_mb: 600,
                                alive: false,
                            },
                        ]
                        .into(),
                    },
                    ReplEntry {
                        seq: 44,
                        machine: 8,
                        last_t_after: 0,
                        next_seq_after: 1,
                        samples: vec![].into(),
                    },
                ],
            },
            Frame::ReplSnapshot {
                repl_seq: 17,
                bytes: b"{\"kind\":\"header\"}\n".to_vec(),
            },
            Frame::ReplStatus,
            Frame::ReplStatusReply {
                role: 2,
                epoch: 7,
                applied_seq: 40,
                head_seq: 44,
                tail_seq: 12,
                acked_seq: 40,
                log_len: 33,
            },
            Frame::Promote,
        ];
        for f in frames {
            let enc = f.encode().unwrap();
            assert_eq!(crate::codec::decode_one(&enc).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn sched_frames_round_trip() {
        let frames = vec![
            Frame::SchedSubmit {
                user: 3,
                work: 7_200,
            },
            Frame::SchedQueryJob { id: 11 },
            Frame::SchedJobReply {
                id: 11,
                user: 3,
                state: 2,
                machine: Some(42),
                done: 1_800,
                work: 7_200,
                evictions: 1,
                migrations: 2,
            },
            Frame::SchedJobReply {
                id: 12,
                user: 3,
                state: 1,
                machine: None,
                done: 0,
                work: 600,
                evictions: 0,
                migrations: 0,
            },
            Frame::SchedShare {
                user: 3,
                op: 1,
                amount: 2,
            },
            Frame::SchedShareReply {
                user: 3,
                base: 2,
                extra: 2,
                in_use: 3,
                pool_free: 1,
            },
            Frame::SchedQueryStats,
            Frame::SchedStatsReply(SchedStatsPayload {
                submitted: 20,
                completed: 15,
                rejected: 4,
                evictions: 6,
                migrations: 3,
                wasted_secs: 5_400,
                queued: 2,
                running: 3,
            }),
        ];
        for f in frames {
            let enc = f.encode().unwrap();
            assert_eq!(crate::codec::decode_one(&enc).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn sched_job_reply_rejects_unknown_job_states() {
        let mut enc = Frame::SchedJobReply {
            id: 1,
            user: 0,
            state: 1,
            machine: None,
            done: 0,
            work: 0,
            evictions: 0,
            migrations: 0,
        }
        .encode()
        .unwrap();
        // Corrupt the state byte (13th payload byte: id + user precede
        // it) and fix the CRC so the failure is the state validator.
        enc[crate::codec::HEADER_LEN + 12] = 9;
        let crc = crate::codec::crc32(&enc[crate::codec::HEADER_LEN..]);
        enc[8..12].copy_from_slice(&crc.to_le_bytes());
        let mut d = Decoder::new();
        d.push(&enc);
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn repl_entries_respects_the_entry_cap() {
        let entry = ReplEntry {
            seq: 1,
            machine: 0,
            last_t_after: 0,
            next_seq_after: 0,
            samples: vec![].into(),
        };
        let over = Frame::ReplEntries {
            head_seq: 0,
            epoch: 0,
            lease_ms: 0,
            entries: vec![entry; MAX_REPL_ENTRIES_PER_FRAME + 1],
        };
        assert!(matches!(
            over.encode(),
            Err(EncodeError::TooManyElements { .. })
        ));
    }

    #[test]
    fn repl_entry_encoded_len_is_what_the_encoder_writes() {
        let sample = |load| WireSample {
            t: 7,
            load,
            host_resident_mb: 64,
            alive: true,
        };
        let entries = vec![
            ReplEntry {
                seq: 1,
                machine: 2,
                last_t_after: 3,
                next_seq_after: 4,
                samples: vec![].into(),
            },
            ReplEntry {
                seq: 2,
                machine: 2,
                last_t_after: 3,
                next_seq_after: 4,
                samples: vec![
                    sample(SampleLoad::Direct(0.5)),
                    sample(SampleLoad::Counters { busy: 1, total: 2 }),
                    sample(SampleLoad::Direct(0.25)),
                ]
                .into(),
            },
        ];
        let want = REPL_ENTRIES_HEADER_LEN + entries.iter().map(|e| e.encoded_len()).sum::<usize>();
        let enc = Frame::ReplEntries {
            head_seq: 2,
            epoch: 1,
            lease_ms: 0,
            entries,
        }
        .encode()
        .unwrap();
        assert_eq!(enc.len() - crate::codec::HEADER_LEN, want);
    }

    #[test]
    fn repl_status_reply_rejects_unknown_roles() {
        let mut enc = Frame::ReplStatusReply {
            role: 1,
            epoch: 1,
            applied_seq: 0,
            head_seq: 0,
            tail_seq: 0,
            acked_seq: 0,
            log_len: 0,
        }
        .encode()
        .unwrap();
        // Corrupt the role byte (first payload byte) and fix the CRC.
        enc[crate::codec::HEADER_LEN] = 9;
        let crc = crate::codec::crc32(&enc[crate::codec::HEADER_LEN..]);
        enc[8..12].copy_from_slice(&crc.to_le_bytes());
        let mut d = Decoder::new();
        d.push(&enc);
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn auth_with_invalid_utf8_is_recoverable() {
        let mut enc = Frame::Auth {
            token: "abcd".to_string(),
        }
        .encode()
        .unwrap();
        // Corrupt a token byte into an invalid UTF-8 lead byte and fix
        // the CRC so the failure is the UTF-8 check, not the checksum.
        let n = enc.len();
        enc[n - 1] = 0xff;
        let crc = crate::codec::crc32(&enc[crate::codec::HEADER_LEN..]);
        enc[8..12].copy_from_slice(&crc.to_le_bytes());
        let mut d = Decoder::new();
        d.push(&enc);
        match d.next_frame() {
            Err(e) => assert!(!e.is_fatal(), "bad token bytes skip one frame: {e}"),
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    use crate::codec::Decoder;
}
