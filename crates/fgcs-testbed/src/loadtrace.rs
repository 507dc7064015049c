//! Raw monitor-sample traces.
//!
//! The event trace of [`crate::trace`] is a *derived* artifact: the real
//! iShare monitor first logs raw periodic samples (`vmstat` output) and
//! the unavailability occurrences are distilled from them. This module
//! is that lower layer: a compact on-disk format for per-machine
//! `(t, host_load, resident_mb, alive)` series, plus [`derive_events`],
//! which replays a stored series through the §4 detector and the same
//! occurrence recorder the live tracers use — so archived raw logs can
//! be (re-)analyzed under any threshold configuration, not just the one
//! that was live at collection time.

use std::io::{BufRead, Write};

use fgcs_core::detector::DetectorConfig;
use fgcs_core::events::OccurrenceRecorder;
use fgcs_core::monitor::Observation;

use crate::lab::LoadSample;
use crate::trace::{TraceError, TraceRecord};

/// A stored raw-sample series for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSeries {
    /// Machine id.
    pub machine: u32,
    /// Sampling period, seconds.
    pub sample_period: u64,
    /// The samples, time-ordered.
    pub samples: Vec<LoadSample>,
}

impl LoadSeries {
    /// Collects the series a machine's monitor would log over the whole
    /// trace span of `cfg`.
    pub fn collect(cfg: &crate::lab::LabConfig, machine: usize) -> LoadSeries {
        let plan = crate::lab::MachinePlan::generate(cfg, machine);
        LoadSeries {
            machine: machine as u32,
            sample_period: cfg.sample_period,
            samples: plan.samples().collect(),
        }
    }

    /// Writes the series as CSV: header, then
    /// `t,load_millis,resident_mb,alive` rows (load quantized to 0.1% —
    /// the precision `vmstat` output actually carries).
    pub fn write_csv<W: Write>(&self, mut w: W) -> Result<(), TraceError> {
        writeln!(
            w,
            "# machine={} sample_period={}",
            self.machine, self.sample_period
        )?;
        writeln!(w, "t,load_millis,resident_mb,alive")?;
        for s in &self.samples {
            writeln!(
                w,
                "{},{},{},{}",
                s.t,
                (s.host_load * 1000.0).round() as u32,
                s.host_resident_mb,
                u8::from(s.alive),
            )?;
        }
        Ok(())
    }

    /// Reads a series written by [`LoadSeries::write_csv`].
    pub fn read_csv<R: BufRead>(r: R) -> Result<LoadSeries, TraceError> {
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| TraceError::Parse("empty load trace".into()))??;
        let mut machine = None;
        let mut period = None;
        for token in header.trim_start_matches('#').split_whitespace() {
            if let Some(v) = token.strip_prefix("machine=") {
                machine = v.parse::<u32>().ok();
            }
            if let Some(v) = token.strip_prefix("sample_period=") {
                period = v.parse::<u64>().ok();
            }
        }
        let machine =
            machine.ok_or_else(|| TraceError::Parse("missing machine= in header".into()))?;
        let sample_period =
            period.ok_or_else(|| TraceError::Parse("missing sample_period= in header".into()))?;

        let mut samples = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line?;
            if i == 0 || line.trim().is_empty() {
                continue; // column header
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 4 {
                return Err(TraceError::Parse(format!(
                    "line {}: expected 4 fields",
                    i + 2
                )));
            }
            let parse = |s: &str, what: &str| -> Result<u64, TraceError> {
                s.parse::<u64>()
                    .map_err(|e| TraceError::Parse(format!("line {}: {what}: {e}", i + 2)))
            };
            samples.push(LoadSample {
                t: parse(fields[0], "t")?,
                host_load: parse(fields[1], "load_millis")? as f64 / 1000.0,
                host_resident_mb: parse(fields[2], "resident_mb")? as u32,
                alive: parse(fields[3], "alive")? != 0,
            });
        }
        Ok(LoadSeries {
            machine,
            sample_period,
            samples,
        })
    }

    /// The samples quantized the way [`LoadSeries::write_csv`] stores
    /// them (for round-trip comparisons).
    pub fn quantized(&self) -> LoadSeries {
        LoadSeries {
            machine: self.machine,
            sample_period: self.sample_period,
            samples: self
                .samples
                .iter()
                .map(|s| LoadSample {
                    host_load: (s.host_load * 1000.0).round() / 1000.0,
                    ..*s
                })
                .collect(),
        }
    }
}

/// Replays a stored series through an [`OccurrenceRecorder`],
/// producing the event records the live tracer would have recorded —
/// the offline analysis path for archived monitor logs.
/// `phys_mem_mb`/`kernel_mem_mb` convert resident sizes into
/// guest-available memory, exactly as the runner does.
pub fn derive_events(
    series: &LoadSeries,
    detector_cfg: DetectorConfig,
    phys_mem_mb: u32,
    kernel_mem_mb: u32,
) -> Vec<TraceRecord> {
    let mut recorder = OccurrenceRecorder::new(series.machine, detector_cfg);
    for s in &series.samples {
        let free_mem_mb = phys_mem_mb
            .saturating_sub(kernel_mem_mb)
            .saturating_sub(s.host_resident_mb);
        recorder.observe(
            s.t,
            &Observation::sampled(s.alive, s.host_load, free_mem_mb),
        );
    }
    recorder.into_records()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::LabConfig;
    use crate::runner::{trace_machine, TestbedConfig};

    fn tiny_series() -> LoadSeries {
        let mut cfg = LabConfig::tiny();
        cfg.days = 2;
        LoadSeries::collect(&cfg, 0)
    }

    #[test]
    fn csv_round_trip_is_lossless_after_quantization() {
        let series = tiny_series();
        let mut buf = Vec::new();
        series.write_csv(&mut buf).unwrap();
        let back = LoadSeries::read_csv(&buf[..]).unwrap();
        assert_eq!(back, series.quantized());
        assert_eq!(back.machine, 0);
        assert_eq!(back.sample_period, 15);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(LoadSeries::read_csv(&b""[..]).is_err());
        assert!(
            LoadSeries::read_csv(&b"# no keys\nt,load_millis,resident_mb,alive\n"[..]).is_err()
        );
        let bad = "# machine=0 sample_period=15\nt,load_millis,resident_mb,alive\n1,2\n";
        assert!(LoadSeries::read_csv(bad.as_bytes()).is_err());
    }

    #[test]
    fn derived_events_match_the_live_tracer() {
        // The offline path (stored raw series -> detector) must produce
        // exactly the records the live runner produced.
        let cfg = TestbedConfig::tiny();
        let live = trace_machine(&cfg, 1);
        let series = LoadSeries::collect(&cfg.lab, 1);
        let derived = derive_events(
            &series,
            cfg.detector,
            cfg.lab.phys_mem_mb,
            cfg.lab.kernel_mem_mb,
        );
        assert_eq!(derived, live);
    }

    #[test]
    fn derived_events_match_the_recorder_across_censoring_gaps() {
        // One silent hour in every six under a 2-minute gap policy: the
        // interval means restart at every censoring gap and gap-closed
        // records keep `end`/`raw_end` clamped, as in the live recorder.
        let mut cfg = TestbedConfig::tiny();
        cfg.detector.max_silence = Some(120);
        for machine in 0..cfg.lab.machines {
            let mut series = LoadSeries::collect(&cfg.lab, machine);
            series.samples.retain(|s| s.t % 21_600 >= 3_600);
            let mut recorder = OccurrenceRecorder::new(machine as u32, cfg.detector);
            let mut gaps = 0;
            for s in &series.samples {
                let step = recorder.observe(s.t, &cfg.lab.observation(s));
                gaps += usize::from(step.gap.is_some());
            }
            assert!(gaps > 0, "machine {machine}: the silences must censor");
            let derived = derive_events(
                &series,
                cfg.detector,
                cfg.lab.phys_mem_mb,
                cfg.lab.kernel_mem_mb,
            );
            assert_eq!(derived, recorder.into_records(), "machine {machine}");
        }
    }

    #[test]
    fn reanalysis_with_different_thresholds_changes_events() {
        // The point of keeping raw logs: re-derive events under other
        // thresholds without re-collecting.
        let cfg = TestbedConfig::tiny();
        let series = LoadSeries::collect(&cfg.lab, 0);
        let baseline = derive_events(
            &series,
            cfg.detector,
            cfg.lab.phys_mem_mb,
            cfg.lab.kernel_mem_mb,
        );
        let mut strict = cfg.detector;
        strict.thresholds = fgcs_core::model::Thresholds::new(0.05, 0.12);
        let stricter = derive_events(&series, strict, cfg.lab.phys_mem_mb, cfg.lab.kernel_mem_mb);
        // A lower Th2 yields strictly more unavailable time (events may
        // merge, so compare durations rather than counts).
        let span = cfg.lab.span_secs();
        let unavailable = |recs: &[TraceRecord]| -> u64 {
            recs.iter().map(|r| r.end.unwrap_or(span) - r.start).sum()
        };
        assert!(
            unavailable(&stricter) > unavailable(&baseline),
            "lower Th2 must find more unavailability: {} vs {}",
            unavailable(&stricter),
            unavailable(&baseline)
        );
    }

    #[test]
    fn quantization_error_is_bounded() {
        let series = tiny_series();
        let q = series.quantized();
        for (a, b) in series.samples.iter().zip(&q.samples) {
            assert!((a.host_load - b.host_load).abs() <= 0.0005);
        }
    }
}
