//! The lab generator's root-level check, so tier-1 `cargo test -q` sees a
//! changed plan: every monitor sample (`t`, the bits of `host_load`,
//! `host_resident_mb`, `alive`) and every merged downtime of each
//! machine, folded into one FNV-1a digest per lab.
//!
//! The digests were recorded from the build *before*
//! `MachinePlan::generate` and the span walk were rewritten for linear
//! time. Never regenerate them with the code under test: a digest that
//! moves means the generator now writes different traces, and every
//! committed CSV downstream of it would move too.

use fgcs::testbed::fleet::Archetype;
use fgcs::testbed::lab::{LabConfig, MachinePlan};
use fgcs::testbed::scenarios;

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
}

/// One digest over every machine of `lab`, in machine order.
fn lab_digest(lab: &LabConfig) -> u64 {
    let mut h = Fnv::new();
    for machine in 0..lab.machines {
        let plan = MachinePlan::generate(lab, machine);
        for s in plan.samples() {
            h.eat(s.t);
            h.eat(s.host_load.to_bits());
            h.eat(s.host_resident_mb as u64);
            h.eat(s.alive as u64);
        }
        for &(start, end) in plan.downtimes() {
            h.eat(start);
            h.eat(end);
        }
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

#[test]
fn the_papers_student_lab_matches_its_golden_digest() {
    let lab = scenarios::student_lab();
    assert_eq!((lab.machines, lab.days), (20, 92));
    assert_eq!(lab_digest(&lab), 0x6c08_7165_3eab_a552);
}

#[test]
fn every_archetype_matches_its_golden_digest() {
    let golden: [(Archetype, u64); 5] = [
        (Archetype::StudentLab, 0x151e_1986_f5d0_719b),
        (Archetype::ServerFarm, 0xa14f_0b8b_9ec7_0434),
        (Archetype::OfficeDesktop, 0xb8a1_3069_16ee_6b57),
        (Archetype::Laptop, 0x26be_f20a_313b_0020),
        (Archetype::BuildFarm, 0x7937_1510_ab59_66eb),
    ];
    for (arch, digest) in golden {
        assert_eq!(
            lab_digest(&small(arch.lab_config())),
            digest,
            "{arch:?} at 5 x 14"
        );
    }
}

#[test]
fn every_scenario_lab_matches_its_golden_digest() {
    let golden: [(&str, u64); 3] = [
        ("student-lab", 0x151e_1986_f5d0_719b),
        ("enterprise", 0x8eec_6516_79f3_0491),
        ("home-pc", 0x8387_5d00_9a33_3b63),
    ];
    let labs = scenarios::all();
    assert_eq!(labs.len(), golden.len());
    for ((name, lab), (want_name, digest)) in labs.into_iter().zip(golden) {
        assert_eq!(name, want_name);
        assert_eq!(lab_digest(&small(lab)), digest, "{name} at 5 x 14");
    }
}
