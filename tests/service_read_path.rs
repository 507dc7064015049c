//! The service layer's root-level test: a seeded fleet streamed into a
//! one-loop server over localhost TCP, then the whole read path
//! (`QueryAvail`, `Place`, the placement table's flags) checked against
//! what the machine cells report, before and after one write flips the
//! placement winner. The checks live with the service
//! crate's own e2e suite, which runs them at one and four loops, a follower
//! and a snapshot restore; this is the fast case Tier-1 always runs.

#![cfg(target_os = "linux")]

#[path = "../crates/fgcs-service/tests/witness/mod.rs"]
#[allow(dead_code)]
mod witness;

use fgcs::service::Server;

#[test]
fn place_reads_what_the_machine_cells_know() {
    let server = Server::start(witness::config(1)).expect("server starts");
    witness::stream(&server, &witness::scenario(20_060_301, 24, false));
    witness::assert_states_covered(&witness::check_read_path(&server));
    witness::check_place_after_flip(&server);
    server.shutdown();
}
