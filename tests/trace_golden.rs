//! The tracers' root-level output check, so tier-1 `cargo test -q` sees
//! a changed trace: every field of every `TraceRecord` a product tracer
//! emits (`avail_cpu` by its bits), and for the supervised walker every
//! `MachineQuality` count and censored span, folded into one FNV-1a
//! digest per run.
//!
//! `tracer_equivalence.rs` pins the span tracers to their per-sample
//! oracles; this file pins the output itself. The digests were recorded
//! from the build *before* the span kernel learnt to skip the harvest
//! delay and the spike tolerance in closed form. Never regenerate them
//! with the code under test: a digest that moves means the tracers now
//! write different traces, and every committed CSV downstream of them
//! would move too.

use fgcs::core::detector::DetectorConfig;
use fgcs::faults::FaultConfig;
use fgcs::testbed::fleet::Archetype;
use fgcs::testbed::lab::LabConfig;
use fgcs::testbed::quality::MachineQuality;
use fgcs::testbed::runner::{
    trace_machine_batched, trace_machine_supervised, SupervisorConfig, TestbedConfig,
};
use fgcs::testbed::scenarios;
use fgcs::testbed::trace::TraceRecord;

/// FNV-1a, 64-bit, over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// An optional time as a presence flag and its value.
    fn eat_opt(&mut self, x: Option<u64>) {
        self.eat(x.is_some() as u64);
        self.eat(x.unwrap_or(0));
    }

    fn eat_records(&mut self, records: &[TraceRecord]) {
        self.eat(records.len() as u64);
        for r in records {
            self.eat(r.machine as u64);
            self.eat(r.cause as u64);
            self.eat(r.start);
            self.eat_opt(r.end);
            self.eat_opt(r.raw_end);
            self.eat(r.avail_cpu.to_bits());
            self.eat(r.avail_mem_mb as u64);
        }
    }

    fn eat_quality(&mut self, q: &MachineQuality) {
        for x in [
            q.machine as u64,
            q.samples_used,
            q.dropped,
            q.duplicated,
            q.delayed,
            q.out_of_order,
            q.restarts,
            q.lost_in_restart,
            q.clock_jumps,
            q.crashes,
            q.lost_in_crash,
            q.gaps,
            q.gave_up as u64,
        ] {
            self.eat(x);
        }
        self.eat(q.censored_spans.len() as u64);
        for &(from, until) in &q.censored_spans {
            self.eat(from);
            self.eat(until);
        }
    }
}

/// One digest over every machine's span-traced records, in machine order.
fn batched_digest(cfg: &TestbedConfig) -> u64 {
    let mut h = Fnv::new();
    for machine in 0..cfg.lab.machines {
        h.eat_records(&trace_machine_batched(cfg, machine));
    }
    h.0
}

fn small(lab: LabConfig) -> LabConfig {
    LabConfig {
        machines: 5,
        days: 14,
        ..lab
    }
}

fn default_detector(lab: LabConfig) -> TestbedConfig {
    TestbedConfig {
        lab,
        detector: DetectorConfig::wallclock_default(),
    }
}

#[test]
fn the_papers_student_lab_traces_to_its_golden_digest() {
    let lab = scenarios::student_lab();
    assert_eq!((lab.machines, lab.days), (20, 92));
    assert_eq!(
        batched_digest(&default_detector(lab)),
        0xea2b_44a5_c259_d71c
    );
}

#[test]
fn every_archetype_traces_to_its_golden_digest() {
    let golden: [(Archetype, u64); 5] = [
        (Archetype::StudentLab, 0x371a_a303_73a3_7b56),
        (Archetype::ServerFarm, 0xa249_1af9_59b8_a86b),
        (Archetype::OfficeDesktop, 0x6b4d_b72a_916e_d936),
        (Archetype::Laptop, 0x9e04_2846_d699_3e67),
        (Archetype::BuildFarm, 0x2b21_3cfc_8be5_9f50),
    ];
    for (arch, digest) in golden {
        let cfg = default_detector(small(arch.lab_config()));
        assert_eq!(batched_digest(&cfg), digest, "{arch:?} at 5 x 14");
    }
}

#[test]
fn the_x8_detector_variants_trace_to_their_golden_digests() {
    // (spike tolerance, harvest delay) of X8's four rows; the first is
    // the paper's detector, so its digest is the student-lab archetype's.
    let golden: [((u64, u64), u64); 4] = [
        ((60, 300), 0x371a_a303_73a3_7b56),
        ((1, 300), 0xfb2d_18a2_3da5_82f6),
        ((60, 15), 0x9719_4da4_8d38_0b2a),
        ((1, 15), 0x1024_839d_2846_51b2),
    ];
    for ((spike_tolerance, harvest_delay), digest) in golden {
        let cfg = TestbedConfig {
            lab: small(scenarios::student_lab()),
            detector: DetectorConfig {
                spike_tolerance,
                harvest_delay,
                ..DetectorConfig::wallclock_default()
            },
        };
        assert_eq!(
            batched_digest(&cfg),
            digest,
            "spike {spike_tolerance} s / harvest {harvest_delay} s"
        );
    }
}

/// Re-pinned once, when the fault injector moved from one draw per mode
/// and sample to per-mode countdowns: the same fault law, another
/// realization of it.
#[test]
fn the_supervised_walker_at_noisy_x1_traces_to_its_golden_digest() {
    // X11's lab and fault seed.
    let cfg = default_detector(scenarios::student_lab());
    let faults = FaultConfig::noisy(cfg.lab.seed).scaled(1.0);
    let sup = SupervisorConfig::default();
    let mut h = Fnv::new();
    let mut faulted = 0;
    for machine in 0..cfg.lab.machines {
        let (records, quality) = trace_machine_supervised(&cfg, &faults, &sup, machine);
        faulted += !quality.is_clean() as u32;
        h.eat_records(&records);
        h.eat_quality(&quality);
    }
    assert!(faulted > 0, "noisy x1 must fault some machine");
    assert_eq!(h.0, 0xd4df_d2fc_bbf1_07d3);
}
