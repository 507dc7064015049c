//! Scaffolding shared by `e2e.rs` and `backend_e2e.rs`: waiting for a
//! server's books to close, and the transition log the in-process
//! pipeline writes for a testbed machine.

use fgcs_service::Server;
use fgcs_testbed::{MachinePlan, OccurrenceRecorder, TestbedConfig};
use fgcs_wire::{StatsPayload, WireTransition};

/// Polls until the server's counters reconcile with `batches_sent`
/// (queued work may still be draining when the load generator returns).
pub fn drain(server: &Server, batches_sent: u64) -> StatsPayload {
    for _ in 0..600 {
        let stats = server.stats();
        let accounted = stats.ingested_batches + stats.shed_batches + stats.decode_errors;
        if accounted >= batches_sent && stats.queue_depth == 0 {
            return stats;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("server failed to drain: {:?}", server.stats());
}

/// Machine `machine`'s plan replayed through a local recorder: the
/// transition log a server that ingested the same samples must hold.
pub fn expected_transitions(cfg: &TestbedConfig, machine: usize) -> Vec<WireTransition> {
    let mut rec = OccurrenceRecorder::new(machine as u32, cfg.detector);
    let mut out = Vec::new();
    for s in MachinePlan::generate(&cfg.lab, machine).samples() {
        let before = rec.state();
        let step = rec.observe(s.t, &cfg.lab.observation(&s));
        if step.state != before {
            out.push(WireTransition {
                seq: out.len() as u64 + 1,
                at: s.t,
                state: step.state.code(),
            });
        }
    }
    out
}
