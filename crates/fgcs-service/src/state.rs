//! Server-side state: per-machine detector pipelines, the shard map
//! the event loops partition, and the shared counters behind the
//! `Stats` frame.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fgcs_core::model::AvailState;
use fgcs_core::monitor::{Monitor, Observation, ResourceProbe};
use fgcs_predict::OnlineAvailabilityModel;
use fgcs_testbed::{OccurrenceRecorder, TraceRecord};
use fgcs_wire::{
    EncodedSamples, MachineStat, ReplEntry, SampleLoad, StatsPayload, WireSample, WireTransition,
};

use crate::repl::{ReplLog, ROLE_FOLLOWER, ROLE_PRIMARY};
use crate::server::ServiceConfig;
use crate::snapshot::{self, MachineSnapshot, SnapshotData, SnapshotSink};

/// One decoded sample batch on its way to its machine's pipeline.
#[derive(Debug)]
pub(crate) struct Batch {
    pub machine: u32,
    pub samples: Vec<WireSample>,
}

/// Probe adapter turning a counter-level [`WireSample`] into one
/// `ResourceProbe` read, so remote counter streams run through the same
/// `Monitor` (baseline diffs, reset absorption) as local ones.
struct WireProbe {
    busy: u64,
    total: u64,
    free_mem_mb: u32,
    alive: bool,
}

impl ResourceProbe for WireProbe {
    fn cpu_counters(&self) -> (u64, u64) {
        (self.busy, self.total)
    }

    fn free_mem_for_guest_mb(&self) -> u32 {
        self.free_mem_mb
    }

    fn service_alive(&self) -> bool {
        self.alive
    }
}

/// One machine's ingest pipeline: monitor → recorder (detector +
/// occurrence records) → transition log.
#[derive(Debug)]
pub(crate) struct MachineState {
    monitor: Monitor,
    recorder: OccurrenceRecorder,
    transitions: Vec<WireTransition>,
    last_t: Option<u64>,
    pub(crate) out_of_order: u64,
    /// Sequence for the next transition. A dedicated counter (not
    /// `transitions.len() + 1`): it is persisted in snapshots, so seqs
    /// keep climbing monotonically across a restart instead of
    /// restarting at 1 and colliding with what clients already saw.
    next_seq: u64,
    /// Newest replication-log seq applied to (primary: stamped onto)
    /// this machine, persisted in snapshots. The exactly-once guard:
    /// a restoring or resyncing node skips any pulled entry at or
    /// below this stamp (DESIGN.md §13).
    pub(crate) last_repl_seq: u64,
}

impl MachineState {
    fn new(machine: u32, cfg: &ServiceConfig) -> Self {
        MachineState {
            monitor: Monitor::new(),
            recorder: OccurrenceRecorder::new(machine, cfg.detector),
            transitions: Vec::new(),
            last_t: None,
            out_of_order: 0,
            next_seq: 1,
            last_repl_seq: 0,
        }
    }

    /// Captures everything this pipeline needs to resume after a
    /// restart.
    pub(crate) fn snapshot(&self, machine: u32) -> MachineSnapshot {
        MachineSnapshot {
            machine,
            monitor: self.monitor.snapshot(),
            recorder: self.recorder.snapshot(),
            last_t: self.last_t,
            out_of_order: self.out_of_order,
            next_seq: self.next_seq,
            last_repl_seq: self.last_repl_seq,
            records: self.recorder.records().to_vec(),
            transitions: self.transitions.clone(),
        }
    }

    /// Rebuilds a pipeline from a snapshot, validating it against the
    /// current detector config. The caller applies snapshots
    /// all-or-nothing: a single failing machine rejects the whole file.
    pub(crate) fn restore(cfg: &ServiceConfig, snap: MachineSnapshot) -> Result<Self, String> {
        if snap
            .transitions
            .last()
            .is_some_and(|t| snap.next_seq <= t.seq)
        {
            return Err(format!(
                "machine {}: next_seq {} would reuse a persisted seq",
                snap.machine, snap.next_seq
            ));
        }
        let recorder = OccurrenceRecorder::restore(cfg.detector, &snap.recorder, snap.records)
            .map_err(|e| format!("machine {}: {e}", snap.machine))?;
        Ok(MachineState {
            monitor: Monitor::restore(snap.monitor),
            recorder,
            transitions: snap.transitions,
            last_t: snap.last_t,
            out_of_order: snap.out_of_order,
            next_seq: snap.next_seq,
            last_repl_seq: snap.last_repl_seq,
        })
    }

    /// Feeds a batch's samples in order. Returns the starts of the
    /// unavailability occurrences they triggered and the batch's newest
    /// timestamp (for the online model).
    fn ingest_samples(
        &mut self,
        cfg: &ServiceConfig,
        samples: impl Iterator<Item = WireSample>,
    ) -> (Vec<u64>, Option<u64>) {
        let mut started = Vec::new();
        let mut max_t = None;
        for s in samples {
            started.extend(self.ingest_sample(cfg, &s));
            max_t = Some(max_t.map_or(s.t, |t: u64| t.max(s.t)));
        }
        (started, max_t)
    }

    /// Feeds one wire sample. Returns the starts of any unavailability
    /// occurrences this sample triggered.
    fn ingest_sample(&mut self, cfg: &ServiceConfig, s: &WireSample) -> Vec<u64> {
        // The detector requires non-decreasing timestamps; late
        // deliveries are discarded and counted, as in the supervised
        // testbed tracer.
        if self.last_t.is_some_and(|lt| s.t < lt) {
            self.out_of_order += 1;
            return Vec::new();
        }
        self.last_t = Some(s.t);

        let free_mem_mb = cfg.free_for_guest_mb(s.host_resident_mb);
        let obs = match s.load {
            SampleLoad::Direct(host_load) => Observation::sampled(s.alive, host_load, free_mem_mb),
            SampleLoad::Counters { busy, total } => self.monitor.sample(&WireProbe {
                busy,
                total,
                free_mem_mb,
                alive: s.alive,
            }),
        };

        let before = self.recorder.state();
        let step = self.recorder.observe(s.t, &obs);
        if step.state != before {
            self.transitions.push(WireTransition {
                seq: self.next_seq,
                at: s.t,
                state: step.state.code(),
            });
            self.next_seq += 1;
        }
        step.edges
            .iter()
            .filter_map(|e| match *e {
                fgcs_core::detector::EventEdge::Started { at, .. } => Some(at),
                _ => None,
            })
            .collect()
    }

    pub(crate) fn state(&self) -> AvailState {
        self.recorder.state()
    }

    pub(crate) fn is_available(&self) -> bool {
        self.recorder.is_available()
    }

    /// Whether a guest may be placed here right now: available, and no
    /// load spike pending. What `Place` ranks and
    /// `MachineStat::harvestable` reports.
    pub(crate) fn harvestable(&self) -> bool {
        self.recorder.is_available() && !self.recorder.spike_active()
    }

    pub(crate) fn last_t(&self) -> u64 {
        self.last_t.unwrap_or(0)
    }

    pub(crate) fn last_t_opt(&self) -> Option<u64> {
        self.last_t
    }

    /// The transition-seq counter, exposed for the replication
    /// divergence tripwires (`ReplEntry::next_seq_after`).
    pub(crate) fn next_transition_seq(&self) -> u64 {
        self.next_seq
    }

    pub(crate) fn records(&self) -> &[TraceRecord] {
        self.recorder.records()
    }

    pub(crate) fn transitions(&self) -> &[WireTransition] {
        &self.transitions
    }
}

/// The accounting counters behind the `Stats` frame, as plain values.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CounterValues {
    pub ingested_batches: u64,
    pub ingested_samples: u64,
    pub shed_batches: u64,
    pub shed_samples: u64,
    pub decode_errors: u64,
    pub busy_replies: u64,
    pub queries_answered: u64,
    pub placements_answered: u64,
    /// Streams rejected by the auth gate (not part of `StatsPayload`:
    /// the reject happens before the stream is trusted).
    pub auth_rejects: u64,
    /// Connections refused at the cap with `Error { ConnLimit }`.
    pub conn_rejects: u64,
}

impl CounterValues {
    /// Field-wise sum, for folding per-slot counters on read.
    fn accumulate(&mut self, o: &CounterValues) {
        self.ingested_batches += o.ingested_batches;
        self.ingested_samples += o.ingested_samples;
        self.shed_batches += o.shed_batches;
        self.shed_samples += o.shed_samples;
        self.decode_errors += o.decode_errors;
        self.busy_replies += o.busy_replies;
        self.queries_answered += o.queries_answered;
        self.placements_answered += o.placements_answered;
        self.auth_rejects += o.auth_rejects;
        self.conn_rejects += o.conn_rejects;
    }
}

/// Contention statistics for one instrumented lock category. All
/// relaxed atomics: the numbers feed the X12 contention table, not any
/// control flow.
#[derive(Debug, Default)]
pub(crate) struct LockStats {
    /// Total lock acquisitions through [`lock_timed`].
    pub acquisitions: AtomicU64,
    /// Acquisitions that found the lock held (`try_lock` failed).
    pub contended: AtomicU64,
    /// Nanoseconds spent blocked on contended acquisitions.
    pub wait_ns: AtomicU64,
}

impl LockStats {
    pub(crate) fn values(&self) -> (u64, u64, u64) {
        (
            self.acquisitions.load(Ordering::Relaxed),
            self.contended.load(Ordering::Relaxed),
            self.wait_ns.load(Ordering::Relaxed),
        )
    }
}

/// Locks a mutex while charging the acquisition to `stats`: an
/// uncontended `try_lock` costs two relaxed increments; only the
/// contended path reads the clock (twice), so instrumentation adds
/// nothing measurable to an uncontended hot path.
pub(crate) fn lock_timed<'a, T>(
    m: &'a Mutex<T>,
    stats: &LockStats,
) -> std::sync::MutexGuard<'a, T> {
    stats.acquisitions.fetch_add(1, Ordering::Relaxed);
    match m.try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::WouldBlock) => {
            stats.contended.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let g = m.lock().unwrap();
            stats
                .wait_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            g
        }
        Err(std::sync::TryLockError::Poisoned(e)) => panic!("poisoned lock: {e}"),
    }
}

/// The instrumented lock categories of [`Shared`] (the counters track
/// their own stats inside [`Counters`]). Per category, not per mutex:
/// all 16 shard-map locks fold into `shards`, every machine cell into
/// `machines` — the question the X12 table answers is "which *kind* of
/// lock still costs time", not which instance.
#[derive(Debug, Default)]
pub(crate) struct LockStatsSet {
    /// The global online-model mutex (the one shared hot-path lock the
    /// event loops have left).
    pub online: LockStats,
    /// Per-machine pipeline cells, ingest path only.
    pub machines: LockStats,
    /// Shard map locks (machine-id → cell lookup).
    pub shards: LockStats,
}

/// How many counter slots to allocate at minimum; covers every event
/// loop plus the checkpointer and stats readers without collisions at
/// the loop counts the experiments run (≤ 8).
const COUNTER_SLOT_FLOOR: usize = 16;

/// Returns this thread's counter-slot index in `0..n`. Each thread
/// gets its slot round-robin on first use, so as long as at most `n`
/// threads ever touch the counters (one slot per event loop, plus the
/// checkpointer, a follower's pull thread and stats readers) no two
/// share a slot; beyond that — several servers in one test process —
/// slots are shared and the mutex per slot keeps updates atomic.
fn thread_slot(n: usize) -> usize {
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    SLOT.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            s.set(v);
        }
        v
    }) % n
}

/// One counter slot, padded to a cache line so two loops bumping
/// adjacent slots don't false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CounterSlot(Mutex<CounterValues>);

/// Monotone counters behind the `Stats` frame, sliced into per-thread
/// slots folded on read.
///
/// A mutex (per slot) instead of relaxed atomics: a shed event bumps
/// three counters at once, and with independent atomics a concurrent
/// stats read could observe the batch shed but not its samples (a torn
/// snapshot). Slotting restores what the single lock took away: each
/// event loop lands in its own slot (see [`thread_slot`]), so loops
/// never serialize on a shared counter lock during ingest, while
/// [`Counters::snapshot`] holds *all* slot locks at once — the fold is
/// still a consistent set, which the on-disk snapshots rely on.
#[derive(Debug)]
pub(crate) struct Counters {
    slots: Box<[CounterSlot]>,
    stats: LockStats,
}

impl Default for Counters {
    fn default() -> Self {
        Counters::new(COUNTER_SLOT_FLOOR)
    }
}

impl Counters {
    pub(crate) fn new(slots: usize) -> Self {
        let n = slots.max(COUNTER_SLOT_FLOOR);
        Counters {
            slots: (0..n).map(|_| CounterSlot::default()).collect(),
            stats: LockStats::default(),
        }
    }

    /// Applies one atomic update to this thread's counter slot.
    pub(crate) fn update<R>(&self, f: impl FnOnce(&mut CounterValues) -> R) -> R {
        let slot = &self.slots[thread_slot(self.slots.len())];
        f(&mut lock_timed(&slot.0, &self.stats))
    }

    /// A consistent fold of all slots: every slot lock is held
    /// simultaneously (acquired in index order, so concurrent snapshots
    /// can't deadlock; updaters only ever hold one), which means no
    /// multi-counter update can be observed half-applied.
    pub(crate) fn snapshot(&self) -> CounterValues {
        let guards: Vec<_> = self.slots.iter().map(|s| s.0.lock().unwrap()).collect();
        let mut sum = CounterValues::default();
        for g in &guards {
            sum.accumulate(g);
        }
        sum
    }

    /// Replaces the entire counter set (snapshot restore): the restored
    /// values land in slot 0, every other slot is zeroed, all under
    /// simultaneously-held locks.
    pub(crate) fn set_all(&self, values: CounterValues) {
        let mut guards: Vec<_> = self.slots.iter().map(|s| s.0.lock().unwrap()).collect();
        for g in guards.iter_mut() {
            **g = CounterValues::default();
        }
        *guards[0] = values;
    }

    /// Contention stats for the slot locks.
    pub(crate) fn lock_stats(&self) -> &LockStats {
        &self.stats
    }
}

/// One shard of the per-machine state map.
type StateShard = Mutex<BTreeMap<u32, Arc<Mutex<MachineState>>>>;

/// Everything the event loops, the checkpointer and a follower's pull
/// thread share.
pub(crate) struct Shared {
    pub cfg: ServiceConfig,
    /// Per-machine pipelines, sharded by machine id so ingest and query
    /// handlers touching different machines stop serializing on one map
    /// lock (DESIGN.md §10). Deterministic read paths (stats,
    /// snapshots) re-sort by id after collecting across shards.
    shards: Box<[StateShard]>,
    pub online: Mutex<OnlineAvailabilityModel>,
    pub shutdown: AtomicBool,
    pub counters: Counters,
    /// Contention instrumentation for the remaining shared locks.
    pub locks: LockStatsSet,
    /// Batches accepted (Ack'd) by one event loop but still in flight
    /// on a cross-loop forwarding ring. This is what `queue_depth`
    /// reports, so "queue empty" means "everything accepted is
    /// ingested".
    pub pending_forwarded: AtomicU64,
    /// Resolved event-loop count; the divisor of the shard→loop
    /// ownership map.
    pub event_loops: usize,
    /// Connections currently served (registered conn fds, all loops).
    /// Stays a plain atomic — it is instantaneous occupancy, not
    /// accounting.
    pub active_conns: AtomicU64,
    pub started_at: Instant,
    /// Serving time accumulated by previous lives of this server
    /// (restored from snapshot), so `ingest_rate` spans restarts.
    /// Atomic because a runtime snapshot install (follower resync)
    /// rewrites it through `&self`.
    prior_elapsed_ms: AtomicU64,
    /// Where periodic and shutdown checkpoints go; `None` disables
    /// snapshotting entirely.
    snapshots: Option<SnapshotSink>,
    /// The replication seq log (capacity 0 when replication is off).
    pub(crate) repl: ReplLog,
    /// Replication role: `ROLE_PRIMARY` or `ROLE_FOLLOWER`. A follower
    /// rejects `SampleBatch` with `NotPrimary` and runs the pull loop;
    /// `Promote` flips this exactly once.
    role: AtomicU8,
    /// Set when the pull loop hit a divergence tripwire and stopped —
    /// the node keeps answering queries from its frozen state but must
    /// never be promoted.
    pub(crate) repl_failed: AtomicBool,
    /// Fencing epoch (DESIGN.md §13.5). Every node starts at 1; a
    /// promotion allocates `max(observed) + 1`, and a node that sees a
    /// strictly higher epoch on an incoming `ReplPull` demotes itself —
    /// a paused-then-revived primary is fenced to `NotPrimary` instead
    /// of splitting the brain. Persisted in snapshots.
    epoch: AtomicU64,
    /// The newest primary log head a follower's pull loop has observed
    /// (`ReplEntries::head_seq`). Own applied head versus this is the
    /// staleness bound follower reads are gated on; 0 until the first
    /// successful pull.
    pub(crate) primary_head_seen: AtomicU64,
}

impl Shared {
    /// Builds the shared state, restoring from the newest usable
    /// snapshot when `cfg.snapshot_dir` is set. Restore happens here —
    /// before the caller binds the listener — so early client traffic
    /// can never race the restore with fresh machine state.
    pub(crate) fn new(cfg: ServiceConfig) -> io::Result<Self> {
        let online = OnlineAvailabilityModel::new(cfg.start_weekday);
        let n_shards = cfg.state_shards();
        let shards: Box<[StateShard]> =
            (0..n_shards).map(|_| Mutex::new(BTreeMap::new())).collect();
        let snapshots = match &cfg.snapshot_dir {
            Some(dir) => Some(SnapshotSink::new(Path::new(dir), cfg.snapshot_interval_ms)?),
            None => None,
        };
        let event_loops = cfg.resolved_event_loops().max(1);
        let role = if cfg.follower_of.is_some() {
            ROLE_FOLLOWER
        } else {
            ROLE_PRIMARY
        };
        let repl = ReplLog::new(cfg.repl_capacity());
        let shared = Shared {
            shards,
            online: Mutex::new(online),
            shutdown: AtomicBool::new(false),
            counters: Counters::new(event_loops),
            locks: LockStatsSet::default(),
            pending_forwarded: AtomicU64::new(0),
            event_loops,
            active_conns: AtomicU64::new(0),
            started_at: Instant::now(),
            prior_elapsed_ms: AtomicU64::new(0),
            snapshots,
            repl,
            role: AtomicU8::new(role),
            repl_failed: AtomicBool::new(false),
            epoch: AtomicU64::new(1),
            primary_head_seen: AtomicU64::new(0),
            cfg,
        };
        if let Some(dir) = shared.cfg.snapshot_dir.clone() {
            if let Some(data) = snapshot::load_latest(Path::new(&dir)) {
                if let Err(e) = shared.install_snapshot(data) {
                    // A snapshot that parsed but doesn't fit the current
                    // config (e.g. a changed detector) — start fresh
                    // rather than guess.
                    eprintln!("fgcs-service: snapshot not applicable, starting fresh: {e}");
                }
            }
        }
        Ok(shared)
    }

    /// Applies a parsed snapshot all-or-nothing: every machine is
    /// rebuilt and validated before anything is installed. Works
    /// through `&self` so a follower can install a snapshot-resync
    /// pulled from its primary at runtime (DESIGN.md §13) — existing
    /// state is discarded shard by shard, so concurrent queries may
    /// briefly see a mix of old and new machines mid-install; a node
    /// being resynced was serving stale state anyway.
    pub(crate) fn install_snapshot(&self, data: SnapshotData) -> Result<(), String> {
        let repl_floor = data.repl_seq;
        let mut restored: Vec<(u32, MachineState)> = Vec::with_capacity(data.machines.len());
        for snap in data.machines {
            let machine = snap.machine;
            restored.push((machine, MachineState::restore(&self.cfg, snap)?));
        }
        // The online model is not persisted: it is rebuilt exactly from
        // the restored occurrence records (each record start is one
        // Started edge) plus the latest observed time. This matches the
        // streamed model bit for bit — pinned by a fgcs-predict test.
        let mut online = OnlineAvailabilityModel::new(self.cfg.start_weekday);
        let mut horizon = None;
        for (id, st) in &restored {
            online.set_harvestable(*id, st.harvestable());
            for r in st.records() {
                online.record_event(*id, r.start);
            }
            if let Some(t) = st.last_t_opt() {
                horizon = Some(horizon.map_or(t, |h: u64| h.max(t)));
            }
        }
        if let Some(h) = horizon {
            online.observe_time(h);
        }
        let max_stamp = restored
            .iter()
            .map(|(_, st)| st.last_repl_seq)
            .max()
            .unwrap_or(0);
        for shard in self.shards.iter() {
            lock_timed(shard, &self.locks.shards).clear();
        }
        for (id, st) in restored {
            let shard = &self.shards[id as usize % self.shards.len()];
            shard.lock().unwrap().insert(id, Arc::new(Mutex::new(st)));
        }
        *self.online.lock().unwrap() = online;
        self.counters.set_all(data.counters);
        self.prior_elapsed_ms
            .store(data.elapsed_ms, Ordering::Release);
        // Epochs only move forward: a restored snapshot (or a resync
        // pulled from the primary) can raise ours, never lower it.
        self.observe_epoch(data.epoch);
        if self.is_primary() {
            // A restarted primary must never re-allocate a seq some
            // machine cell already carries (the snapshot header is a
            // floor: stamps above it come from entries logged while
            // the snapshot was being collected).
            self.repl.raise_next(repl_floor.max(max_stamp) + 1);
        } else {
            // A follower resumes pulling just past the snapshot's
            // floor; entries in (floor, max_stamp] that some machines
            // already contain are skipped by their per-machine stamp.
            self.repl.reset_to(repl_floor);
        }
        Ok(())
    }

    /// Total serving time across all lives of this server, in ms.
    fn elapsed_ms(&self) -> u64 {
        self.prior_elapsed_ms.load(Ordering::Acquire) + self.started_at.elapsed().as_millis() as u64
    }

    /// Collects a complete snapshot of the current state. Machines are
    /// captured one at a time under their own locks (per-machine
    /// consistency); the counters are copied under their single lock, so
    /// they are mutually consistent as a set.
    ///
    /// The replication floor is read **before** any machine is
    /// captured: log append/apply and the machine mutation share the
    /// machine's critical section, so every entry at or below the head
    /// observed here is fully contained in the captures that follow.
    /// Entries above the floor may be partially contained; a restoring
    /// node resumes pulling just past the floor and the per-machine
    /// `last_repl_seq` stamps skip exactly the contained overlap.
    pub(crate) fn collect_snapshot(&self) -> SnapshotData {
        let repl_seq = self.repl.head_seq();
        let machines = self
            .machines_sorted()
            .into_iter()
            .map(|(id, cell)| cell.lock().unwrap().snapshot(id))
            .collect();
        SnapshotData {
            elapsed_ms: self.elapsed_ms(),
            repl_seq,
            epoch: self.epoch(),
            counters: self.counters.snapshot(),
            machines,
        }
    }

    /// Periodic checkpoint hook — called from the dedicated
    /// checkpointer thread (event loops never block on snapshot I/O).
    /// The sink's single mutex gates the interval and serializes
    /// writers. A write failure is logged, never fatal.
    pub(crate) fn checkpoint_if_due(&self) {
        let Some(sink) = &self.snapshots else { return };
        if let Err(e) = sink.maybe_write(|| self.collect_snapshot()) {
            eprintln!("fgcs-service: checkpoint failed: {e}");
        }
    }

    /// Unconditional final checkpoint, for graceful shutdown.
    pub(crate) fn checkpoint_final(&self) {
        let Some(sink) = &self.snapshots else { return };
        if let Err(e) = sink.write_now(&self.collect_snapshot()) {
            eprintln!("fgcs-service: final checkpoint failed: {e}");
        }
    }

    /// Whether snapshotting is enabled.
    pub(crate) fn snapshots_enabled(&self) -> bool {
        self.snapshots.is_some()
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Whether this node currently accepts `SampleBatch` ingest.
    pub(crate) fn is_primary(&self) -> bool {
        self.role.load(Ordering::Acquire) == ROLE_PRIMARY
    }

    /// The wire role code (`ReplStatusReply::role`).
    pub(crate) fn role_code(&self) -> u8 {
        self.role.load(Ordering::Acquire)
    }

    /// Promotes a follower to primary (idempotent). The pull loop
    /// observes the flip and exits; the allocation cursor is raised
    /// past every stamp any machine carries so the new primary can
    /// never re-allocate an applied seq, and the epoch is bumped past
    /// everything observed so the old primary can be fenced. Returns
    /// `false`, with role and epoch unchanged, when the epoch is
    /// already `u64::MAX`: no bump could fence anyone.
    pub(crate) fn promote(&self) -> bool {
        if self.is_primary() {
            return true;
        }
        if self
            .epoch
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |e| e.checked_add(1))
            .is_err()
        {
            return false;
        }
        if self.role.swap(ROLE_PRIMARY, Ordering::AcqRel) == ROLE_PRIMARY {
            return true;
        }
        let max_stamp = self
            .machines_sorted()
            .into_iter()
            .map(|(_, cell)| cell.lock().unwrap().last_repl_seq)
            .max()
            .unwrap_or(0);
        self.repl.raise_next(max_stamp + 1);
        true
    }

    /// The node's current fencing epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Adopts a higher epoch observed on the wire (monotone max, e.g.
    /// from a primary's `ReplEntries`), without any role change.
    pub(crate) fn observe_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// The fencing write: an incoming `ReplPull` carrying a strictly
    /// higher epoch proves a newer primary exists. Adopt the epoch,
    /// and if this node still thought it was a primary, demote it —
    /// ingest flips to `NotPrimary` before this call returns, so a
    /// revived pre-failover primary can never double-count a batch.
    /// Returns `true` when a demotion happened.
    pub(crate) fn fence_if_superseded(&self, peer_epoch: u64) -> bool {
        if peer_epoch <= self.epoch.load(Ordering::Acquire) {
            return false;
        }
        self.epoch.fetch_max(peer_epoch, Ordering::AcqRel);
        self.role.swap(ROLE_FOLLOWER, Ordering::AcqRel) == ROLE_PRIMARY
    }

    fn shard(&self, machine: u32) -> &StateShard {
        &self.shards[machine as usize % self.shards.len()]
    }

    /// Which event loop owns a machine's shard. Shards are partitioned
    /// round-robin across loops (`shard % loops`), so every loop owns
    /// `shards/loops` of them exclusively; a connection whose batch
    /// lands on a non-owning loop forwards it to the home loop instead
    /// of locking across loops.
    pub(crate) fn home_loop(&self, machine: u32) -> usize {
        (machine as usize % self.shards.len()) % self.event_loops
    }

    /// The online-model lock, instrumented.
    pub(crate) fn lock_online(&self) -> std::sync::MutexGuard<'_, OnlineAvailabilityModel> {
        lock_timed(&self.online, &self.locks.online)
    }

    /// Looks up (or creates) the state cell for a machine.
    pub(crate) fn machine_entry(&self, machine: u32) -> Arc<Mutex<MachineState>> {
        let mut map = lock_timed(self.shard(machine), &self.locks.shards);
        if let Some(m) = map.get(&machine) {
            return Arc::clone(m);
        }
        let m = Arc::new(Mutex::new(MachineState::new(machine, &self.cfg)));
        // Registered under the new cell's own lock, like every later
        // publication (see `finish_ingest`): whoever finds the cell in
        // the map waits on it until the model knows the machine.
        let fresh = m.lock().expect("a lock nobody else has seen yet");
        map.insert(machine, Arc::clone(&m));
        drop(map);
        self.lock_online()
            .set_harvestable(machine, fresh.harvestable());
        drop(fresh);
        m
    }

    /// Looks up a machine without creating it.
    pub(crate) fn machine_get(&self, machine: u32) -> Option<Arc<Mutex<MachineState>>> {
        lock_timed(self.shard(machine), &self.locks.shards)
            .get(&machine)
            .map(Arc::clone)
    }

    /// Every known machine, sorted by id — the same order the single
    /// pre-shard BTreeMap used to iterate in, so stats and placement
    /// stay deterministic (lowest id wins ties).
    pub(crate) fn machines_sorted(&self) -> Vec<(u32, Arc<Mutex<MachineState>>)> {
        let mut all: Vec<(u32, Arc<Mutex<MachineState>>)> = Vec::new();
        for shard in self.shards.iter() {
            let map = lock_timed(shard, &self.locks.shards);
            all.extend(map.iter().map(|(&id, cell)| (id, Arc::clone(cell))));
        }
        all.sort_unstable_by_key(|&(id, _)| id);
        all
    }

    /// Ingests one batch into its machine's pipeline and the online
    /// model. Called from the machine's home event loop only.
    pub(crate) fn ingest_batch(&self, batch: Batch) {
        if self.cfg.ingest_delay_us > 0 {
            // Artificial per-batch cost, used by overload tests to pin
            // the server's ingest capacity below the offered load.
            std::thread::sleep(std::time::Duration::from_micros(self.cfg.ingest_delay_us));
        }
        let Batch { machine, samples } = batch;
        let n_samples = samples.len();
        // The log's copy is encoded before any lock is taken, so the
        // machine critical section does not grow by it.
        let encoded = self
            .repl
            .enabled()
            .then(|| EncodedSamples::from(samples.as_slice()));
        let cell = self.machine_entry(machine);
        {
            let mut m = lock_timed(&cell, &self.locks.machines);
            let (started, max_t) = m.ingest_samples(&self.cfg, samples.iter().copied());
            if let Some(encoded) = encoded.filter(|_| self.is_primary()) {
                // Seq allocation nests the log lock inside the machine
                // lock (machine → log, the fixed order), so log order
                // equals seq order and the stamp lands in the same
                // critical section as the mutation it describes.
                let seq =
                    self.repl
                        .append_local(machine, encoded, m.last_t(), m.next_transition_seq());
                m.last_repl_seq = seq;
            }
            self.finish_ingest(machine, &m, n_samples, started, max_t);
        }
    }

    /// The tail of a machine's ingest critical section: online-model
    /// updates (under the model's own lock, nested machine → online like
    /// machine → repl log; nothing takes the two the other way round)
    /// and the accounting counters.
    ///
    /// `m` is the caller's guard on the machine, and that is what keeps
    /// the model's placement table honest: the harvestable flag is only
    /// ever written by a thread holding that machine's lock, so the
    /// table holds the machine's state as of its latest critical
    /// section whatever the writers' timing. (Per-machine ingest is
    /// serial in any case — the home event loop, or one follower apply
    /// thread — but the flag does not lean on it.) `Place` then reads flags and
    /// history under the one online lock and never touches a cell.
    fn finish_ingest(
        &self,
        machine: u32,
        m: &MachineState,
        n_samples: usize,
        started: Vec<u64>,
        max_t: Option<u64>,
    ) {
        let mut online = self.lock_online();
        if let Some(t) = max_t {
            online.observe_time(t);
        }
        for at in started {
            online.record_event(machine, at);
        }
        online.set_harvestable(machine, m.harvestable());
        drop(online);
        self.counters.update(|c| {
            c.ingested_batches += 1;
            c.ingested_samples += n_samples as u64;
        });
    }

    /// Applies one pulled replication entry (follower side): replays
    /// the raw samples through the normal ingest path straight from
    /// their wire bytes, stamps the machine, mirrors the entry (the
    /// same bytes) into this node's own log, and
    /// asserts the divergence tripwires. An entry at or below the
    /// machine's stamp is a duplicate delivery and skipped whole —
    /// only the log cursor advances. Errors are fatal to replication.
    pub(crate) fn apply_repl_entry(&self, entry: ReplEntry) -> Result<(), String> {
        let cell = self.machine_entry(entry.machine);
        {
            let mut m = lock_timed(&cell, &self.locks.machines);
            let mut applied = None;
            if entry.seq > m.last_repl_seq {
                applied = Some(m.ingest_samples(&self.cfg, entry.samples.iter()));
                m.last_repl_seq = entry.seq;
                if m.last_t() != entry.last_t_after
                    || m.next_transition_seq() != entry.next_seq_after
                {
                    return Err(format!(
                        "machine {} seq {}: cursors landed at last_t {} / next_seq {}, \
                         primary had {} / {}",
                        entry.machine,
                        entry.seq,
                        m.last_t(),
                        m.next_transition_seq(),
                        entry.last_t_after,
                        entry.next_seq_after
                    ));
                }
            }
            let (machine, n_samples) = (entry.machine, entry.samples.len());
            self.repl.append_remote(entry)?;
            if let Some((started, max_t)) = applied {
                self.finish_ingest(machine, &m, n_samples, started, max_t);
            }
        }
        Ok(())
    }

    /// Snapshot for the `Stats` frame (also exposed on [`crate::Server`]).
    pub(crate) fn stats_snapshot(&self) -> StatsPayload {
        let c = self.counters.snapshot();
        let elapsed = self.elapsed_ms() as f64 / 1000.0;
        let machines: Vec<MachineStat> = self
            .machines_sorted()
            .into_iter()
            .map(|(id, cell)| {
                let m = cell.lock().unwrap();
                MachineStat {
                    machine: id,
                    state: m.state().code(),
                    last_t: m.last_t(),
                    occurrences: m.records().len() as u64,
                    transitions: m.transitions().len() as u64,
                    harvestable: m.harvestable(),
                }
            })
            .collect();
        StatsPayload {
            ingested_batches: c.ingested_batches,
            ingested_samples: c.ingested_samples,
            shed_batches: c.shed_batches,
            shed_samples: c.shed_samples,
            decode_errors: c.decode_errors,
            busy_replies: c.busy_replies,
            queue_depth: self.pending_forwarded.load(Ordering::Acquire),
            queries_answered: c.queries_answered,
            placements_answered: c.placements_answered,
            ingest_rate: if elapsed > 0.0 {
                c.ingested_samples as f64 / elapsed
            } else {
                0.0
            },
            machines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_map_keeps_sorted_iteration_order() {
        let cfg = crate::server::ServiceConfig {
            state_shards: 4,
            ..Default::default()
        };
        let shared = Shared::new(cfg).expect("no snapshot dir, infallible");
        // Insert in scrambled order, across all shards.
        for id in [9u32, 2, 7, 0, 13, 4, 11, 6] {
            shared.machine_entry(id);
        }
        let ids: Vec<u32> = shared.machines_sorted().iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![0, 2, 4, 6, 7, 9, 11, 13]);
        // Entry is idempotent and get finds what entry created.
        shared.machine_entry(7);
        assert_eq!(shared.machines_sorted().len(), 8);
        assert!(shared.machine_get(13).is_some());
        assert!(shared.machine_get(14).is_none());
    }

    #[test]
    fn slotted_counters_fold_and_replace_consistently() {
        let c = Counters::new(4);
        // Updates from many threads land in (possibly different) slots;
        // the fold must see every one exactly once.
        let c = Arc::new(c);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    c.update(|v| {
                        v.shed_batches += 1;
                        v.shed_samples += 3;
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = c.snapshot();
        assert_eq!(snap.shed_batches, 800);
        assert_eq!(snap.shed_samples, 2400);
        // A multi-field update is never observed torn: the ratio is
        // exact in every snapshot because snapshot() holds all slots.
        assert_eq!(snap.shed_samples, 3 * snap.shed_batches);
        // set_all replaces everything, across all slots.
        let restored = CounterValues {
            ingested_batches: 42,
            ..Default::default()
        };
        c.set_all(restored);
        let snap = c.snapshot();
        assert_eq!(snap.ingested_batches, 42);
        assert_eq!(snap.shed_batches, 0, "old slot contents cleared");
        assert!(c.lock_stats().values().0 >= 800, "acquisitions counted");
    }

    #[test]
    fn home_loop_partitions_shards_exclusively() {
        let cfg = crate::server::ServiceConfig {
            state_shards: 16,
            event_loops: 4,
            ..Default::default()
        };
        let shared = Shared::new(cfg).unwrap();
        assert_eq!(shared.event_loops, 4);
        // Every machine maps to exactly one loop, and two machines in
        // the same shard always share a home loop.
        for m in 0..200u32 {
            let home = shared.home_loop(m);
            assert!(home < 4);
            assert_eq!(home, (m as usize % 16) % 4);
            assert_eq!(shared.home_loop(m + 16), home, "same shard, same loop");
        }
        // All four loops own at least one shard.
        let owners: std::collections::BTreeSet<usize> =
            (0..16u32).map(|m| shared.home_loop(m)).collect();
        assert_eq!(owners.len(), 4);
    }

    #[test]
    fn lock_timed_counts_contention_only_when_blocked() {
        let m = Mutex::new(0u32);
        let stats = LockStats::default();
        // Uncontended: acquisitions tick, contended does not.
        *lock_timed(&m, &stats) += 1;
        *lock_timed(&m, &stats) += 1;
        let (acq, cont, _) = stats.values();
        assert_eq!((acq, cont), (2, 0));
        // Contended: hold the lock in another thread while this one
        // acquires.
        std::thread::scope(|s| {
            let g = lock_timed(&m, &stats);
            let h = s.spawn(|| {
                *lock_timed(&m, &stats) += 1;
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(g);
            h.join().unwrap();
        });
        let (acq, cont, wait) = stats.values();
        assert_eq!(acq, 4);
        assert_eq!(cont, 1);
        assert!(wait > 0, "blocked time recorded");
    }

    /// One square wave per machine: long enough busy/idle stretches to
    /// drive real transitions and occurrence records.
    fn wave_batch(machine: u32, from: usize, n: usize) -> Batch {
        let samples = (from..from + n)
            .map(|i| WireSample {
                t: i as u64 * 15,
                load: SampleLoad::Direct(if (i / 40) % 2 == 1 { 0.9 } else { 0.05 }),
                host_resident_mb: 100,
                alive: true,
            })
            .collect();
        Batch { machine, samples }
    }

    fn snap_cfg(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig {
            snapshot_dir: Some(dir.to_string_lossy().into_owned()),
            snapshot_interval_ms: 60_000,
            ..Default::default()
        }
    }

    #[test]
    fn shared_state_survives_a_snapshot_restore_cycle() {
        let dir = std::env::temp_dir().join(format!("fgcs-shared-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let first = Shared::new(snap_cfg(&dir)).expect("shared");
        for m in [1u32, 5] {
            first.ingest_batch(wave_batch(m, 0, 200));
        }
        first.counters.update(|c| {
            c.queries_answered = 7;
            c.auth_rejects = 2;
        });
        let before = first.stats_snapshot();
        assert!(
            before.machines.iter().all(|m| m.transitions > 0),
            "the wave must produce transitions for the test to mean anything"
        );
        first.checkpoint_final();
        drop(first);

        // A brand-new Shared on the same dir resumes where we left off.
        let second = Shared::new(snap_cfg(&dir)).expect("restored shared");
        let after = second.stats_snapshot();
        assert_eq!(after.machines, before.machines);
        assert_eq!(after.ingested_batches, before.ingested_batches);
        assert_eq!(after.ingested_samples, before.ingested_samples);
        assert_eq!(after.queries_answered, 7);
        for m in [1u32, 5] {
            let orig = Shared::new(ServiceConfig::default()).unwrap();
            orig.ingest_batch(wave_batch(m, 0, 200));
            let orig_cell = orig.machine_get(m).unwrap();
            let orig_state = orig_cell.lock().unwrap();
            let cell = second.machine_get(m).expect("machine restored");
            let st = cell.lock().unwrap();
            assert_eq!(st.records(), orig_state.records(), "machine {m} records");
            assert_eq!(
                st.transitions(),
                orig_state.transitions(),
                "machine {m} transitions"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transition_seqs_continue_across_restore_and_resume_is_exact() {
        let dir = std::env::temp_dir().join(format!("fgcs-seq-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Uninterrupted reference run.
        let reference = Shared::new(ServiceConfig::default()).unwrap();
        reference.ingest_batch(wave_batch(1, 0, 400));

        // Interrupted run: first half, checkpoint, new Shared, second half.
        let first = Shared::new(snap_cfg(&dir)).expect("shared");
        first.ingest_batch(wave_batch(1, 0, 200));
        first.checkpoint_final();
        drop(first);
        let second = Shared::new(snap_cfg(&dir)).expect("restored");
        second.ingest_batch(wave_batch(1, 200, 200));

        let ref_cell = reference.machine_get(1).unwrap();
        let ref_state = ref_cell.lock().unwrap();
        let cell = second.machine_get(1).unwrap();
        let st = cell.lock().unwrap();
        assert_eq!(st.records(), ref_state.records(), "bit-identical records");
        assert_eq!(
            st.transitions(),
            ref_state.transitions(),
            "seqs continue monotonically past the restart — no restart at 1"
        );
        let seqs: Vec<u64> = st.transitions().iter().map(|t| t.seq).collect();
        assert!(
            seqs.windows(2).all(|w| w[1] > w[0]),
            "strictly increasing seqs: {seqs:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_timestamp_resend_does_not_double_count() {
        // The resend protocol replays samples with strictly t > last_t;
        // this pins why: a sample at exactly last_t is *accepted* by the
        // out-of-order check (which only rejects t < last_t) and would
        // skew the availability means if replayed.
        let shared = Shared::new(ServiceConfig::default()).unwrap();
        shared.ingest_batch(wave_batch(1, 0, 100));
        let cell = shared.machine_get(1).unwrap();
        let oo = cell.lock().unwrap().out_of_order;
        assert_eq!(oo, 0);
        // Replay the last sample (t == last_t): not counted out-of-order.
        shared.ingest_batch(wave_batch(1, 99, 1));
        assert_eq!(cell.lock().unwrap().out_of_order, 0);
        // A genuinely old sample is rejected and counted.
        shared.ingest_batch(wave_batch(1, 50, 1));
        assert_eq!(cell.lock().unwrap().out_of_order, 1);
    }
}
