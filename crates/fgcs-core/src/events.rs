//! Unavailability occurrences: the §5 trace record and its assembler.
//!
//! The §5 trace "contains the start and end time of each occurrence of
//! resource unavailability, the corresponding failure state (S3, S4, or
//! S5), and the available CPU and memory for guest jobs". A
//! [`TraceRecord`] is one such occurrence; an [`OccurrenceRecorder`]
//! feeds monitor observations to the §4 [`Detector`] and turns its
//! event edges into records, tracking the mean guest-available CPU and
//! memory over the preceding availability interval.
//!
//! This is the one place edges become occurrences: the live-sim
//! [`crate::Controller`], every `fgcs-testbed` tracer, its offline
//! re-derivation of archived monitor logs and the networked ingest path
//! of `fgcs-service` all feed the same recorder. The complementary
//! *availability intervals* of §5.2 are reconstructed from the records
//! by `fgcs_testbed::analysis::machine_intervals`.

use crate::detector::{
    Detector, DetectorConfig, DetectorConfigError, DetectorSnapshot, EventEdge, Step,
};
use crate::model::{AvailState, FailureCause};
use crate::monitor::Observation;

/// One unavailability occurrence on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Machine id, `0..machines`.
    pub machine: u32,
    /// Failure cause (maps 1:1 to states S3/S4/S5).
    pub cause: FailureCause,
    /// Start of the occurrence, seconds since trace start.
    pub start: u64,
    /// When the machine became harvestable again; `None` if the trace
    /// ended first.
    pub end: Option<u64>,
    /// When the failure condition cleared (excludes the harvest delay).
    pub raw_end: Option<u64>,
    /// Mean CPU fraction that was available to guests over the preceding
    /// availability interval.
    pub avail_cpu: f64,
    /// Mean memory available to guests over the preceding availability
    /// interval, MB.
    pub avail_mem_mb: u32,
}

impl TraceRecord {
    /// The failure state of this record.
    pub fn state(&self) -> AvailState {
        self.cause.state()
    }

    /// Occurrence duration (to harvestability), if closed.
    pub fn duration(&self) -> Option<u64> {
        self.end.map(|e| e - self.start)
    }

    /// Duration of the raw failure condition, if closed.
    pub fn raw_duration(&self) -> Option<u64> {
        self.raw_end.map(|e| e.saturating_sub(self.start))
    }
}

/// Detector + occurrence bookkeeping for one machine: feeds observations
/// to the §4 detector and turns its event edges into [`TraceRecord`]s,
/// tracking the running mean of guest-available CPU/memory over the
/// preceding availability interval.
///
/// Every testbed tracer *and* the networked ingest path
/// (`fgcs-service`) are built on this type, so a sample stream replayed
/// over TCP produces bit-identical records to an in-process run by
/// construction: same accumulation order, same f64 sums.
///
/// The per-sample methods are `#[inline]`: the testbed's span tracer
/// calls them from another crate in its innermost loop.
#[derive(Debug, Clone)]
pub struct OccurrenceRecorder {
    machine: u32,
    detector: Detector,
    records: Vec<TraceRecord>,
    open: Option<usize>,
    avail_cpu_sum: f64,
    avail_mem_sum: f64,
    avail_samples: u64,
}

impl OccurrenceRecorder {
    /// A recorder for `machine` with a fresh detector.
    pub fn new(machine: u32, config: DetectorConfig) -> Self {
        OccurrenceRecorder {
            machine,
            detector: Detector::new(config),
            records: Vec::new(),
            open: None,
            avail_cpu_sum: 0.0,
            avail_mem_sum: 0.0,
            avail_samples: 0,
        }
    }

    /// Current detector state.
    #[inline]
    pub fn state(&self) -> AvailState {
        self.detector.state()
    }

    /// Whether the machine is currently in an availability state.
    #[inline]
    pub fn is_available(&self) -> bool {
        self.detector.is_available()
    }

    /// Whether a load spike is pending (above Th2 but within tolerance).
    #[inline]
    pub fn spike_active(&self) -> bool {
        self.detector.spike_active()
    }

    /// Updates the detector's guest working-set size (see
    /// [`Detector::set_guest_working_set`]).
    pub fn set_guest_working_set(&mut self, mb: u32) {
        self.detector.set_guest_working_set(mb);
    }

    /// Records produced so far. The last one may still be open
    /// (`end == None`).
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the recorder, returning its records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Feeds one observation: accumulates availability-interval means,
    /// steps the detector, and converts event edges into records.
    /// Timestamps must be non-decreasing (the caller discards
    /// out-of-order samples).
    #[inline]
    pub fn observe(&mut self, t: u64, obs: &Observation) -> Step {
        // Means cover samples taken while the detector was available
        // *before* this sample was applied: the sample that opens an
        // occurrence still describes the interval it ends, and samples
        // inside an occurrence describe none.
        if self.detector.is_available() && obs.alive {
            self.avail_cpu_sum += 1.0 - obs.host_load;
            self.avail_mem_sum += obs.free_mem_mb as f64;
            self.avail_samples += 1;
        }

        let step = self.detector.observe(t, obs);
        if step.gap.is_some() {
            // What accumulated before the silence does not describe the
            // interval that resumes after it.
            self.avail_cpu_sum = 0.0;
            self.avail_mem_sum = 0.0;
            self.avail_samples = 0;
        }
        for edge in &step.edges {
            match *edge {
                EventEdge::Started { cause, at } => {
                    debug_assert!(self.open.is_none(), "nested occurrence");
                    let n = self.avail_samples.max(1) as f64;
                    self.records.push(TraceRecord {
                        machine: self.machine,
                        cause,
                        start: at,
                        end: None,
                        raw_end: None,
                        avail_cpu: self.avail_cpu_sum / n,
                        avail_mem_mb: (self.avail_mem_sum / n) as u32,
                    });
                    self.open = Some(self.records.len() - 1);
                    self.avail_cpu_sum = 0.0;
                    self.avail_mem_sum = 0.0;
                    self.avail_samples = 0;
                }
                EventEdge::Ended { at, calm_from, .. } => {
                    let idx = self.open.take().expect("Ended without open record");
                    let start = self.records[idx].start;
                    // A gap-close can end an occurrence at its own start
                    // sample; clamp instead of trusting the edge times.
                    let end = at.max(start);
                    self.records[idx].end = Some(end);
                    self.records[idx].raw_end = Some(calm_from.clamp(start, end));
                }
            }
        }
        step
    }

    /// Fast path for batched tracers: credits one available sample to
    /// the running interval means without stepping the detector. Only
    /// valid when the detector is calmly available (`is_available()`,
    /// no pending spike) and the observation could not change that —
    /// the float operations mirror [`Self::observe`] exactly.
    #[inline]
    pub fn accumulate_available_sample(&mut self, host_load: f64, free_mem_mb: u32) {
        self.avail_cpu_sum += 1.0 - host_load;
        self.avail_mem_sum += free_mem_mb as f64;
        self.avail_samples += 1;
    }

    /// Fast path for batched tracers: moves the detector's gap-policy
    /// clock to `t` after samples were credited or skipped without a
    /// step (see [`Detector::skip_to`]).
    #[inline]
    pub fn skip_to(&mut self, t: u64) {
        self.detector.skip_to(t);
    }

    /// Captures everything needed to resume this recorder after a
    /// process restart, *except* the records themselves (callers persist
    /// those separately — typically via the trace serializers — and hand
    /// them back to [`OccurrenceRecorder::restore`]).
    pub fn snapshot(&self) -> RecorderSnapshot {
        RecorderSnapshot {
            machine: self.machine,
            detector: self.detector.snapshot(),
            open: self.open.map(|i| i as u64),
            avail_cpu_sum: self.avail_cpu_sum,
            avail_mem_sum: self.avail_mem_sum,
            avail_samples: self.avail_samples,
        }
    }

    /// Rebuilds a recorder from a [`RecorderSnapshot`] and the records
    /// that were persisted alongside it. The snapshot is validated
    /// against the records before anything is applied: an `open` index
    /// out of bounds, or pointing at an already-closed record, rejects
    /// the whole snapshot (the crash-safe loader then falls back to an
    /// older one rather than resuming from inconsistent state).
    pub fn restore(
        cfg: DetectorConfig,
        snap: &RecorderSnapshot,
        records: Vec<TraceRecord>,
    ) -> Result<OccurrenceRecorder, RecorderRestoreError> {
        let open = match snap.open {
            None => None,
            Some(i) => {
                let idx = i as usize;
                match records.get(idx) {
                    None => return Err(RecorderRestoreError::OpenOutOfBounds(i)),
                    Some(r) if r.end.is_some() => {
                        return Err(RecorderRestoreError::OpenRecordClosed(i))
                    }
                    Some(_) => Some(idx),
                }
            }
        };
        let detector =
            Detector::restore(cfg, snap.detector).map_err(RecorderRestoreError::InvalidConfig)?;
        Ok(OccurrenceRecorder {
            machine: snap.machine,
            detector,
            records,
            open,
            avail_cpu_sum: snap.avail_cpu_sum,
            avail_mem_sum: snap.avail_mem_sum,
            avail_samples: snap.avail_samples,
        })
    }
}

/// Serializable view of an [`OccurrenceRecorder`]'s resumable state
/// (see [`OccurrenceRecorder::snapshot`]). Records are not included;
/// they travel through the trace serializers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecorderSnapshot {
    /// The machine this recorder traces.
    pub machine: u32,
    /// Detector state at snapshot time.
    pub detector: DetectorSnapshot,
    /// Index of the still-open record (`end == None`), if any.
    pub open: Option<u64>,
    /// Running sum of `1 - host_load` over the current availability
    /// interval.
    pub avail_cpu_sum: f64,
    /// Running sum of free guest memory (MB) over the interval.
    pub avail_mem_sum: f64,
    /// Samples accumulated into the sums.
    pub avail_samples: u64,
}

/// Why [`OccurrenceRecorder::restore`] rejected a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecorderRestoreError {
    /// `open` pointed past the end of the persisted records.
    OpenOutOfBounds(u64),
    /// `open` pointed at a record that already has an end time.
    OpenRecordClosed(u64),
    /// The detector configuration failed validation.
    InvalidConfig(DetectorConfigError),
}

impl std::fmt::Display for RecorderRestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecorderRestoreError::OpenOutOfBounds(i) => {
                write!(f, "open record index {i} out of bounds")
            }
            RecorderRestoreError::OpenRecordClosed(i) => {
                write!(f, "open record index {i} points at a closed record")
            }
            RecorderRestoreError::InvalidConfig(e) => write!(f, "invalid detector config: {e}"),
        }
    }
}

impl std::error::Error for RecorderRestoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Thresholds;

    fn config() -> DetectorConfig {
        DetectorConfig {
            thresholds: Thresholds::LINUX_TESTBED,
            guest_working_set_mb: 10,
            spike_tolerance: 60,
            harvest_delay: 300,
            max_silence: None,
        }
    }

    #[test]
    fn detector_edges_round_trip() {
        let load = |t: u64| if (600..1500).contains(&t) { 0.95 } else { 0.05 };
        let mut rec = OccurrenceRecorder::new(3, config());
        let mut trigger = None;
        for i in 0..200 {
            let t = i * 15;
            let step = rec.observe(t, &Observation::sampled(true, load(t), 100));
            if matches!(step.edges.first(), Some(EventEdge::Started { .. })) {
                trigger = Some(t);
            }
        }
        assert_eq!(rec.records().len(), 1);
        let r = rec.records()[0];
        assert_eq!(r.machine, 3);
        assert_eq!(r.cause, FailureCause::CpuContention);
        assert!(r.start >= 660 && r.start <= 675, "start {}", r.start);
        assert!(r.end.unwrap() >= 1800, "end {:?}", r.end);
        assert!(r.raw_end.unwrap() >= r.start && r.raw_end <= r.end);
        // The interval mean covers every sample up to the one that
        // opened the occurrence: the detector was still available when
        // each was credited, the tolerated spike samples included.
        let before: Vec<f64> = (0..=trigger.unwrap())
            .step_by(15)
            .map(|t| 1.0 - load(t))
            .collect();
        let mean = before.iter().sum::<f64>() / before.len() as f64;
        assert!(
            (r.avail_cpu - mean).abs() < 1e-12,
            "{} vs {mean}",
            r.avail_cpu
        );
        assert_eq!(r.avail_mem_mb, 100);
        assert_eq!(rec.snapshot().open, None, "the occurrence closed");
    }

    #[test]
    #[should_panic(expected = "Ended without open record")]
    fn rejects_orphan_end() {
        // A detector restored mid-occurrence, handed a recorder whose
        // records do not know about it: the first `Ended` edge has no
        // open record to close.
        let mut rec = OccurrenceRecorder::new(0, config());
        rec.observe(0, &Observation::dead());
        let mut snap = rec.snapshot();
        snap.open = None;
        let mut orphan =
            OccurrenceRecorder::restore(config(), &snap, Vec::new()).expect("valid snapshot");
        for i in 1..100 {
            orphan.observe(i * 15, &Observation::sampled(true, 0.0, 100));
        }
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let cfg = DetectorConfig::wallclock_default();
        let mut rec = OccurrenceRecorder::new(0, cfg);
        // Drive into an occurrence so `open` is set.
        rec.observe(0, &Observation::dead());
        let snap = rec.snapshot();
        assert!(snap.open.is_some(), "death opens a record");
        // open index beyond the records we pass back.
        assert_eq!(
            OccurrenceRecorder::restore(cfg, &snap, Vec::new()).err(),
            Some(RecorderRestoreError::OpenOutOfBounds(0))
        );
        // open pointing at an already-closed record.
        let mut closed = rec.records().to_vec();
        closed[0].end = Some(10);
        assert_eq!(
            OccurrenceRecorder::restore(cfg, &snap, closed).err(),
            Some(RecorderRestoreError::OpenRecordClosed(0))
        );
        // Invalid detector config is rejected before anything is applied.
        let mut bad = cfg;
        bad.spike_tolerance = 0;
        assert!(matches!(
            OccurrenceRecorder::restore(bad, &snap, rec.records().to_vec()),
            Err(RecorderRestoreError::InvalidConfig(_))
        ));
    }
}
