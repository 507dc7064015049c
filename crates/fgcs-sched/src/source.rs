//! Where the scheduler learns about machines: stats + predictions.
//!
//! The scheduler core ([`crate::sched::Scheduler`]) is deliberately
//! I/O-free; the serve loop feeds it through this trait. Production
//! uses [`ClusterSource`] — the sharded availability cluster via
//! `fgcs_service::ClusterClient` — while tests and the X14 experiment
//! substitute in-process sources.

use std::io;

/// One machine as the scheduler sees it: the `harvestable` placement
/// bit and the occurrence count (`MachineStat` over the wire), which is
/// all the predictionless policies get to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineView {
    /// Machine id.
    pub machine: u32,
    /// A guest may be placed here right now (available, spike guard
    /// quiet) — the service-side `Frame::Place` predicate.
    pub harvestable: bool,
    /// Unavailability occurrences recorded so far.
    pub occurrences: u64,
}

/// The scheduler's window onto the cluster.
pub trait AvailabilitySource {
    /// Every machine the cluster knows about, with current placement
    /// bits. Called once per scheduler tick.
    fn machines(&mut self) -> io::Result<Vec<MachineView>>;

    /// Predicted probability that `machine` stays available over the
    /// next `window` seconds.
    fn survival(&mut self, machine: u32, window: u64) -> io::Result<f64>;
}

/// The production source: per-machine stats and availability queries
/// routed through the sharded cluster router.
pub struct ClusterSource {
    client: fgcs_service::ClusterClient,
}

impl ClusterSource {
    /// Wraps an already-connected router.
    pub fn new(client: fgcs_service::ClusterClient) -> ClusterSource {
        ClusterSource { client }
    }

    /// The wrapped router (e.g. to read its fault metrics).
    pub fn client_mut(&mut self) -> &mut fgcs_service::ClusterClient {
        &mut self.client
    }
}

impl AvailabilitySource for ClusterSource {
    fn machines(&mut self) -> io::Result<Vec<MachineView>> {
        let mut views = Vec::new();
        for s in 0..self.client.shard_count() {
            let stats = self.client.stats_of(s)?;
            views.extend(stats.machines.iter().map(|m| MachineView {
                machine: m.machine,
                harvestable: m.harvestable,
                occurrences: m.occurrences,
            }));
        }
        views.sort_by_key(|v| v.machine);
        Ok(views)
    }

    fn survival(&mut self, machine: u32, window: u64) -> io::Result<f64> {
        match self.client.query_avail(machine, window)? {
            fgcs_wire::Frame::AvailReply { prob, .. } => Ok(prob),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply to QueryAvail: {other:?}"),
            )),
        }
    }
}
