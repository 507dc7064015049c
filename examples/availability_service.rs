//! Availability service: the paper's monitor → detector → predictor
//! loop across a real TCP boundary. Starts the server in a thread,
//! streams one lab machine's trace through the wire protocol, then asks
//! the live server whether the machine will stay available for a
//! 30-minute job and where it would place one.
//!
//! ```text
//! cargo run --release --example availability_service
//! ```

use fgcs::service::{ClientConfig, Server, ServiceClient, ServiceConfig};
use fgcs::testbed::runner::TestbedConfig;
use fgcs::testbed::MachinePlan;
use fgcs::wire::{Frame, SampleLoad, WireSample};

fn main() -> std::io::Result<()> {
    // One lab machine, a few simulated days of its local user's load.
    let mut cfg = TestbedConfig::tiny();
    cfg.lab.machines = 1;
    cfg.lab.days = 4;

    let server = Server::start(ServiceConfig::for_testbed(&cfg))?;
    let addr = server.local_addr().to_string();
    println!("server listening on {addr}");

    // Stream machine 0's trace over the wire, batch by batch.
    let machine = 0u32;
    let plan = MachinePlan::generate(&cfg.lab, machine as usize);
    let mut client = ServiceClient::connect(ClientConfig::new(&addr))?;
    let mut batch: Vec<WireSample> = Vec::with_capacity(256);
    let mut sent = 0u64;
    for s in plan.samples() {
        batch.push(WireSample {
            t: s.t,
            load: SampleLoad::Direct(s.host_load),
            host_resident_mb: s.host_resident_mb,
            alive: s.alive,
        });
        if batch.len() == 256 {
            client.request(&Frame::SampleBatch {
                machine,
                samples: std::mem::take(&mut batch),
            })?;
            sent += 256;
        }
    }
    if !batch.is_empty() {
        sent += batch.len() as u64;
        client.request(&Frame::SampleBatch {
            machine,
            samples: batch,
        })?;
    }
    println!("streamed {sent} samples for machine {machine}");

    // An `Ack` means accepted: a batch that arrived on a loop other than
    // its machine's home loop may still be on a forwarding ring.
    while server.stats().ingested_samples < sent {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Will this machine stay available for a 30-minute job?
    let horizon = 1_800;
    match client.request(&Frame::QueryAvail { machine, horizon })? {
        Frame::AvailReply { state, prob, .. } => println!(
            "machine {machine}: state S{state}, P(no failure in next {} min) = {prob:.3}",
            horizon / 60
        ),
        other => println!("unexpected reply: tag {}", other.tag()),
    }

    // Where would the service place a 30-minute guest job right now?
    match client.request(&Frame::Place { job_len: horizon })? {
        Frame::PlaceReply {
            machine: Some(m),
            prob,
        } => {
            println!("placement: run it on machine {m} (survival estimate {prob:.3})")
        }
        Frame::PlaceReply { machine: None, .. } => {
            println!("placement: no machine is currently harvestable — hold the job")
        }
        other => println!("unexpected reply: tag {}", other.tag()),
    }

    server.shutdown();
    Ok(())
}
