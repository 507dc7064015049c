//! Cluster service: the iShare cycle-sharing service end-to-end on live
//! simulated machines — a shared job queue over per-machine FGCS
//! controllers, with load-aware placement.
//!
//! ```text
//! cargo run --release --example cluster_service
//! ```

use fgcs::core::cluster::{Cluster, LeastLoadedPlacement};
use fgcs::core::controller::ControllerConfig;
use fgcs::sim::machine::Machine;
use fgcs::sim::proc::{Demand, MemSpec, ProcClass, ProcSpec};
use fgcs::sim::time::{minutes, secs};
use fgcs::sim::workloads::synthetic;

fn main() {
    // Six lab machines with very different local users.
    let host_loads = [0.05, 0.15, 0.30, 0.45, 0.65, 0.85];
    let machines: Vec<Machine> = host_loads
        .iter()
        .map(|&load| {
            let mut m = Machine::default_linux();
            m.spawn(synthetic::host_process("local-user", load));
            m
        })
        .collect();

    let mut cluster = Cluster::new(
        machines,
        ControllerConfig::default(),
        Box::new(LeastLoadedPlacement),
    );

    // Let every monitor take its first samples.
    cluster.run_ticks(secs(10));

    // A batch of 18 five-minute compute jobs.
    for i in 0..18 {
        cluster.submit(ProcSpec::new(
            format!("task-{i}"),
            ProcClass::Guest,
            0,
            Demand::CpuBound {
                total_work: Some(minutes(5)),
            },
            MemSpec::resident(32),
        ));
    }
    println!("submitted 18 x 5-minute guest tasks to a 6-machine cluster");
    println!("(host loads: {host_loads:?})\n");

    let ticks = cluster.run_until_drained(minutes(240));
    let stats = cluster.stats();
    println!(
        "drained in {:.1} simulated minutes: {} completed, {} terminations, {} dispatches",
        ticks as f64 / minutes(1) as f64,
        stats.completed,
        stats.terminated,
        stats.dispatched,
    );
    println!(
        "mean job response: {:.1} minutes (raw compute time: 5.0)",
        stats.mean_response_ticks / minutes(1) as f64
    );

    println!("\nper-node outcome:");
    println!(
        "{:>5} {:>10} {:>10} {:>11} {:>9}",
        "node", "host load", "completed", "terminated", "failures"
    );
    for (i, &load) in host_loads.iter().enumerate() {
        let s = cluster.node(i).stats();
        println!(
            "{:>5} {:>10.2} {:>10} {:>11} {:>9}",
            i,
            load,
            s.completed,
            s.terminated,
            cluster.node(i).recorder().records().len(),
        );
    }
    println!(
        "\nleast-loaded placement steers work toward the quiet machines; the\n\
         85%-loaded node stays in S3 and is never harvested — exactly the\n\
         behaviour the five-state model prescribes."
    );
}
