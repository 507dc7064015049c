//! Quickstart: run a guest job on a simulated host machine under the
//! FGCS policy and watch the five-state model in action.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fgcs::core::controller::{Controller, ControllerConfig};
use fgcs::core::model::AvailState;
use fgcs::sim::machine::Machine;
use fgcs::sim::proc::{Demand, MemSpec, Phase, ProcClass, ProcSpec};
use fgcs::sim::time::secs;
use fgcs::sim::workloads::synthetic;

fn main() {
    // A host machine with a moderate interactive user (35% CPU)...
    let mut machine = Machine::default_linux();
    machine.spawn(synthetic::host_process("interactive-user", 0.35));
    // ...plus a heavy compile burst a minute in (90 s of near-full load).
    machine.spawn(ProcSpec::new(
        "compile-burst",
        ProcClass::Host,
        0,
        Demand::Phases {
            phases: vec![
                Phase {
                    busy: 1,
                    idle: secs(60),
                }, // quiet first
                Phase {
                    busy: secs(90),
                    idle: secs(3600),
                },
            ],
            repeat: false,
        },
        MemSpec::tiny(),
    ));

    // Submit a 3-minute compute-bound guest job through the controller;
    // a job killed by unavailability is resubmitted below.
    let mut ctl = Controller::new(ControllerConfig::default(), machine);
    ctl.submit(ProcSpec::new(
        "monte-carlo",
        ProcClass::Guest,
        0,
        Demand::CpuBound {
            total_work: Some(secs(180)),
        },
        MemSpec::resident(48),
    ));

    println!("t(s)  state  guest?  note");
    let mut last_state = None;
    for step in 0..400 {
        ctl.run_ticks(secs(2));
        for spec in ctl.take_killed() {
            ctl.submit(spec);
        }
        let state = ctl.recorder().state();
        if Some(state) != last_state || step % 15 == 0 {
            let note = match state {
                AvailState::S1 => "light host load: guest at default priority",
                AvailState::S2 => "heavy host load: guest reniced to 19",
                AvailState::S3 => "persistent overload: guest terminated (UEC)",
                AvailState::S4 => "memory thrashing: guest terminated (UEC)",
                AvailState::S5 => "machine revoked (URR)",
            };
            println!(
                "{:>4}  {}    {}    {}",
                (step + 1) * 2,
                state,
                if ctl.guest_running() { "yes" } else { "no " },
                note
            );
            last_state = Some(state);
        }
        if ctl.stats().completed > 0 {
            break;
        }
    }

    let s = ctl.stats();
    println!(
        "\njob lifecycle: started {}x, completed {}, terminated {}, suspended {}x, reniced {}x",
        s.started, s.completed, s.terminated, s.suspensions, s.renices
    );
    println!(
        "unavailability occurrences recorded: {}",
        ctl.recorder().records().len()
    );
    for e in ctl.recorder().records() {
        println!("  {:?}", e);
    }
}
