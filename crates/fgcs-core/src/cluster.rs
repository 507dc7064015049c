//! A multi-machine FGCS cluster — the iShare service end-to-end.
//!
//! In iShare, "resource publication and discovery are enabled by a
//! Peer-to-Peer network \[and\] cycle sharing happens when resource
//! consumers submit guest jobs to published machines" (§5). This module
//! is that service running on *live* simulated machines (as opposed to
//! the trace-replay experiments in `fgcs-predict`): a set of per-machine
//! [`Controller`]s behind a shared job queue and a pluggable
//! [`Placement`] strategy.
//!
//! Jobs flow: `submit` → cluster queue → placement picks an available,
//! idle node → the node's controller runs the guest under the
//! five-state policy → completion, or termination and automatic
//! re-queueing at the cluster level (the guest loses all progress, per
//! the model).

use std::collections::VecDeque;

use fgcs_sim::machine::Machine;
use fgcs_sim::proc::ProcSpec;
use fgcs_stats::rng::Rng;

use crate::controller::{Controller, ControllerConfig, ControllerStats};
use crate::model::AvailState;

/// What placement strategies see about each node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    /// Node index within the cluster.
    pub node: usize,
    /// Detector state of the node.
    pub state: AvailState,
    /// True if the node can accept a job right now (available, no guest).
    pub accepts_jobs: bool,
    /// Host load from the node's latest monitor sample, if any.
    pub host_load: Option<f64>,
    /// Unavailability occurrences recorded on this node so far.
    pub failures: usize,
}

/// A job-placement strategy over cluster nodes.
pub trait Placement {
    /// Short name for reports.
    fn name(&self) -> &'static str;
    /// Chooses one of the nodes with `accepts_jobs == true`, or `None`
    /// to hold the job in the queue.
    fn choose(&mut self, nodes: &[NodeView]) -> Option<usize>;
}

/// Uniformly random among accepting nodes.
#[derive(Debug)]
pub struct RandomPlacement {
    rng: Rng,
}

impl RandomPlacement {
    /// Creates a random placement with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomPlacement {
            rng: Rng::new(seed),
        }
    }
}

impl Placement for RandomPlacement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn choose(&mut self, nodes: &[NodeView]) -> Option<usize> {
        let open: Vec<usize> = nodes
            .iter()
            .filter(|n| n.accepts_jobs)
            .map(|n| n.node)
            .collect();
        if open.is_empty() {
            None
        } else {
            Some(*self.rng.choose(&open))
        }
    }
}

/// Round-robin over accepting nodes.
#[derive(Debug, Default)]
pub struct RoundRobinPlacement {
    next: usize,
}

impl Placement for RoundRobinPlacement {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn choose(&mut self, nodes: &[NodeView]) -> Option<usize> {
        if nodes.is_empty() {
            return None;
        }
        for offset in 0..nodes.len() {
            let idx = (self.next + offset) % nodes.len();
            if nodes[idx].accepts_jobs {
                self.next = idx + 1;
                return Some(nodes[idx].node);
            }
        }
        None
    }
}

/// Lowest current host load among accepting nodes — the natural greedy
/// strategy a load monitor enables.
#[derive(Debug, Default)]
pub struct LeastLoadedPlacement;

impl Placement for LeastLoadedPlacement {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn choose(&mut self, nodes: &[NodeView]) -> Option<usize> {
        nodes
            .iter()
            .filter(|n| n.accepts_jobs)
            .min_by(|a, b| {
                let la = a.host_load.unwrap_or(1.0);
                let lb = b.host_load.unwrap_or(1.0);
                la.partial_cmp(&lb).expect("loads are not NaN")
            })
            .map(|n| n.node)
    }
}

/// Fewest historical failures among accepting nodes — a trivial
/// history-based strategy, the cluster-level analogue of availability
/// prediction.
#[derive(Debug, Default)]
pub struct FewestFailuresPlacement;

impl Placement for FewestFailuresPlacement {
    fn name(&self) -> &'static str {
        "fewest-failures"
    }

    fn choose(&mut self, nodes: &[NodeView]) -> Option<usize> {
        nodes
            .iter()
            .filter(|n| n.accepts_jobs)
            .min_by_key(|n| n.failures)
            .map(|n| n.node)
    }
}

/// Aggregate cluster statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterStats {
    /// Jobs dispatched to nodes (including re-dispatches).
    pub dispatched: u64,
    /// Jobs completed across all nodes.
    pub completed: u64,
    /// Guest terminations across all nodes.
    pub terminated: u64,
    /// Jobs currently waiting in the cluster queue.
    pub queued: usize,
    /// Mean response time (submit → completion) of finished jobs, ticks.
    pub mean_response_ticks: f64,
}

/// Lifecycle record of one cluster job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job's process spec.
    pub spec: ProcSpec,
    /// Cluster time at submission.
    pub submitted_at: u64,
    /// Cluster time at completion, once finished.
    pub completed_at: Option<u64>,
    /// Times the job was killed and re-queued.
    pub restarts: u32,
}

impl JobRecord {
    /// Response time (submit → completion), if finished.
    pub fn response(&self) -> Option<u64> {
        self.completed_at.map(|c| c - self.submitted_at)
    }
}

/// The FGCS cluster: one controller per machine plus a shared queue.
pub struct Cluster {
    nodes: Vec<Controller>,
    /// Indices into `jobs` awaiting dispatch.
    queue: VecDeque<usize>,
    jobs: Vec<JobRecord>,
    /// Job index currently running on each node.
    in_flight: Vec<Option<usize>>,
    /// Per-node completed count at the last reconciliation.
    seen_completed: Vec<u64>,
    placement: Box<dyn Placement>,
    dispatched: u64,
    now: u64,
    dispatch_period: u64,
    next_dispatch: u64,
}

impl Cluster {
    /// Builds a cluster from machines, one controller each. Terminated
    /// jobs return to the *cluster* queue (so another node can pick them
    /// up), hence per-node resubmission is disabled.
    pub fn new(
        machines: Vec<Machine>,
        mut controller_cfg: ControllerConfig,
        placement: Box<dyn Placement>,
    ) -> Self {
        controller_cfg.resubmit_on_failure = false;
        let dispatch_period = controller_cfg.sample_period;
        let nodes: Vec<Controller> = machines
            .into_iter()
            .map(|m| Controller::new(controller_cfg, m))
            .collect();
        let n = nodes.len();
        Cluster {
            nodes,
            queue: VecDeque::new(),
            jobs: Vec::new(),
            in_flight: vec![None; n],
            seen_completed: vec![0; n],
            placement,
            dispatched: 0,
            now: 0,
            dispatch_period,
            next_dispatch: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a clusterless cluster.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Submits a job to the cluster queue; returns its job index.
    pub fn submit(&mut self, spec: ProcSpec) -> usize {
        let idx = self.jobs.len();
        self.jobs.push(JobRecord {
            spec,
            submitted_at: self.now,
            completed_at: None,
            restarts: 0,
        });
        self.queue.push_back(idx);
        idx
    }

    /// Lifecycle records of every submitted job.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// Read access to a node's controller.
    pub fn node(&self, idx: usize) -> &Controller {
        &self.nodes[idx]
    }

    /// Mutable access to a node's controller (e.g. to inject host load).
    pub fn node_mut(&mut self, idx: usize) -> &mut Controller {
        &mut self.nodes[idx]
    }

    /// Current views of every node, as placement strategies see them.
    pub fn views(&self) -> Vec<NodeView> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, c)| NodeView {
                node: i,
                state: c.recorder().state(),
                accepts_jobs: c.recorder().is_available()
                    && !c.recorder().spike_active()
                    && !c.guest_running()
                    && c.queue_len() == 0,
                host_load: c.last_observation().map(|o| o.host_load),
                failures: c.recorder().records().len(),
            })
            .collect()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ClusterStats {
        let mut s = ClusterStats {
            queued: self.queue.len(),
            dispatched: self.dispatched,
            ..Default::default()
        };
        for n in &self.nodes {
            let ns: ControllerStats = n.stats();
            s.completed += ns.completed;
            s.terminated += ns.terminated;
        }
        let responses: Vec<u64> = self.jobs.iter().filter_map(|j| j.response()).collect();
        if !responses.is_empty() {
            s.mean_response_ticks = responses.iter().sum::<u64>() as f64 / responses.len() as f64;
        }
        s
    }

    /// Advances every node by `n` ticks, dispatching queued jobs at the
    /// sampling cadence and reclaiming jobs whose guests were killed.
    pub fn run_ticks(&mut self, n: u64) {
        let end = self.now + n;
        while self.now < end {
            let step = self.dispatch_period.min(end - self.now).max(1);
            for node in &mut self.nodes {
                node.run_ticks(step);
            }
            self.now += step;
            if self.now >= self.next_dispatch {
                self.reconcile();
                self.dispatch();
                self.next_dispatch = self.now + self.dispatch_period;
            }
        }
    }

    /// Runs until every job completes or `max_ticks` elapse; returns the
    /// ticks consumed.
    pub fn run_until_drained(&mut self, max_ticks: u64) -> u64 {
        let start = self.now;
        while self.has_outstanding_work() && self.now - start < max_ticks {
            self.run_ticks(self.dispatch_period);
        }
        self.now - start
    }

    /// True while any job is queued or running.
    pub fn has_outstanding_work(&self) -> bool {
        !self.queue.is_empty()
            || self
                .nodes
                .iter()
                .any(|n| n.guest_running() || n.queue_len() > 0)
    }

    /// Reconciles per-node outcomes with the job table: jobs whose guest
    /// completed get a completion time; jobs whose guest was killed go
    /// back to the cluster queue (the guest loses all progress).
    fn reconcile(&mut self) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let killed = node.take_killed();
            let completed = node.stats().completed;
            if let Some(job) = self.in_flight[i] {
                if !killed.is_empty() {
                    self.jobs[job].restarts += 1;
                    self.queue.push_back(job);
                    self.in_flight[i] = None;
                } else if completed > self.seen_completed[i] {
                    self.jobs[job].completed_at = Some(self.now);
                    self.in_flight[i] = None;
                }
            }
            self.seen_completed[i] = completed;
        }
    }

    fn dispatch(&mut self) {
        loop {
            if self.queue.is_empty() {
                break;
            }
            let views = self.views();
            let Some(node) = self.placement.choose(&views) else {
                break;
            };
            debug_assert!(views[node].accepts_jobs, "placement chose a busy node");
            let job = self.queue.pop_front().expect("checked non-empty");
            self.nodes[node].submit(self.jobs[job].spec.clone());
            self.in_flight[node] = Some(job);
            self.dispatched += 1;
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("queued", &self.queue.len())
            .field("placement", &self.placement.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_sim::proc::{Demand, MemSpec, ProcClass};
    use fgcs_sim::time::secs;
    use fgcs_sim::workloads::synthetic;

    fn job(work_secs: u64) -> ProcSpec {
        ProcSpec::new(
            "job",
            ProcClass::Guest,
            0,
            Demand::CpuBound {
                total_work: Some(secs(work_secs)),
            },
            MemSpec::tiny(),
        )
    }

    fn idle_cluster(n: usize, placement: Box<dyn Placement>) -> Cluster {
        let machines = (0..n).map(|_| Machine::default_linux()).collect();
        Cluster::new(machines, ControllerConfig::default(), placement)
    }

    #[test]
    fn jobs_complete_across_nodes() {
        let mut c = idle_cluster(3, Box::new(RoundRobinPlacement::default()));
        for _ in 0..6 {
            c.submit(job(5));
        }
        c.run_until_drained(secs(300));
        let s = c.stats();
        assert_eq!(s.completed, 6, "{s:?}");
        assert_eq!(s.queued, 0);
        assert!(!c.has_outstanding_work());
        // Round-robin used every node.
        for i in 0..3 {
            assert!(c.node(i).stats().completed > 0, "node {i} unused");
        }
    }

    #[test]
    fn one_job_per_node_at_a_time() {
        let mut c = idle_cluster(2, Box::new(RoundRobinPlacement::default()));
        for _ in 0..5 {
            c.submit(job(30));
        }
        c.run_ticks(secs(10));
        let running: usize = (0..2).map(|i| c.node(i).guest_running() as usize).sum();
        assert_eq!(running, 2, "both nodes busy");
        assert!(
            c.stats().queued >= 1,
            "excess jobs wait in the cluster queue"
        );
    }

    #[test]
    fn least_loaded_avoids_the_busy_machine() {
        let mut busy = Machine::default_linux();
        busy.spawn(synthetic::host_process("hog", 0.5));
        let idle = Machine::default_linux();
        let mut c = Cluster::new(
            vec![busy, idle],
            ControllerConfig::default(),
            Box::new(LeastLoadedPlacement),
        );
        // Let monitors take a couple of samples before any job arrives.
        c.run_ticks(secs(10));
        c.submit(job(5));
        c.run_until_drained(secs(120));
        assert_eq!(
            c.node(1).stats().completed,
            1,
            "idle node should get the job"
        );
        assert_eq!(c.node(0).stats().started, 0);
    }

    #[test]
    fn random_placement_spreads_work() {
        let mut c = idle_cluster(4, Box::new(RandomPlacement::new(7)));
        for _ in 0..24 {
            c.submit(job(2));
        }
        c.run_until_drained(secs(600));
        assert_eq!(c.stats().completed, 24);
        let used = (0..4).filter(|&i| c.node(i).stats().completed > 0).count();
        assert!(used >= 3, "random placement used only {used} nodes");
    }

    #[test]
    fn fewest_failures_prefers_reliable_nodes() {
        // Node 0 carries a persistent overload that kills guests.
        let mut flaky = Machine::default_linux();
        flaky.spawn(synthetic::host_process("hog", 0.9));
        let steady = Machine::default_linux();
        let mut c = Cluster::new(
            vec![flaky, steady],
            ControllerConfig::default(),
            Box::new(FewestFailuresPlacement),
        );
        // Give the flaky node time to record failures.
        c.run_ticks(fgcs_sim::time::minutes(10));
        assert!(
            !c.node(0).recorder().records().is_empty(),
            "flaky node has history"
        );
        c.submit(job(5));
        c.run_until_drained(secs(300));
        assert_eq!(c.node(1).stats().completed, 1);
    }

    #[test]
    fn job_records_track_lifecycle() {
        let mut c = idle_cluster(2, Box::new(RoundRobinPlacement::default()));
        c.run_ticks(secs(30)); // submissions later than t=0
        let id = c.submit(job(5));
        assert_eq!(id, 0);
        assert!(c.jobs()[id].submitted_at >= secs(30));
        c.run_until_drained(secs(120));
        let rec = &c.jobs()[id];
        assert!(rec.completed_at.is_some(), "{rec:?}");
        let resp = rec.response().unwrap();
        assert!(resp >= secs(5) && resp < secs(60), "response {resp}");
        assert_eq!(rec.restarts, 0);
        assert!(c.stats().mean_response_ticks > 0.0);
    }

    #[test]
    fn killed_jobs_restart_and_finish_elsewhere() {
        // Node 0 becomes overloaded shortly after the job starts there.
        let mut flaky = Machine::default_linux();
        flaky.spawn(ProcSpec::new(
            "late-hog",
            ProcClass::Host,
            0,
            Demand::Phases {
                phases: vec![
                    fgcs_sim::proc::Phase {
                        busy: 1,
                        idle: secs(20),
                    },
                    fgcs_sim::proc::Phase {
                        busy: secs(600),
                        idle: 1,
                    },
                ],
                repeat: false,
            },
            MemSpec::tiny(),
        ));
        let steady = Machine::default_linux();
        // Round-robin places the first job on node 0.
        let mut c = Cluster::new(
            vec![flaky, steady],
            ControllerConfig::default(),
            Box::new(RoundRobinPlacement::default()),
        );
        let id = c.submit(job(300));
        c.run_until_drained(fgcs_sim::time::minutes(60));
        let rec = &c.jobs()[id];
        assert!(rec.completed_at.is_some(), "{rec:?}");
        assert!(
            rec.restarts >= 1,
            "job should have been killed once: {rec:?}"
        );
        assert_eq!(
            c.node(1).stats().completed,
            1,
            "finished on the steady node"
        );
    }

    #[test]
    fn views_reflect_node_states() {
        let mut overloaded = Machine::default_linux();
        overloaded.spawn(synthetic::host_process("hog", 0.95));
        let mut c = Cluster::new(
            vec![overloaded, Machine::default_linux()],
            ControllerConfig::default(),
            Box::new(RoundRobinPlacement::default()),
        );
        c.run_ticks(fgcs_sim::time::minutes(3));
        let views = c.views();
        assert_eq!(views.len(), 2);
        assert!(
            !views[0].accepts_jobs,
            "overloaded node must not accept jobs: {views:?}"
        );
        assert!(views[1].accepts_jobs, "{views:?}");
        assert!(views[0].failures >= 1);
        assert_eq!(views[1].state, AvailState::S1);
    }

    #[test]
    fn queue_drains_when_nodes_recover() {
        // A single node that is overloaded for two minutes, then idle.
        let mut m = Machine::default_linux();
        m.spawn(ProcSpec::new(
            "burst",
            ProcClass::Host,
            0,
            Demand::CpuBound {
                total_work: Some(secs(120)),
            },
            MemSpec::tiny(),
        ));
        let mut c = Cluster::new(
            vec![m],
            ControllerConfig::default(),
            Box::new(RoundRobinPlacement::default()),
        );
        c.submit(job(5));
        c.run_ticks(secs(60));
        assert_eq!(c.stats().completed, 0, "node still overloaded");
        c.run_until_drained(fgcs_sim::time::minutes(20));
        assert_eq!(c.stats().completed, 1, "{:?}", c.stats());
    }
}
