//! Property tests for the cluster routing layer.
//!
//! Two properties the cluster design leans on (DESIGN.md §13):
//!
//! 1. **Rendezvous stability** — removing a shard moves *only* the
//!    machines that shard owned; every other machine keeps its owner.
//!    Without this, losing one node would reshuffle (and corrupt) the
//!    per-machine streams of every shard.
//! 2. **Routing transparency** — a trace streamed through the
//!    [`ClusterClient`] router produces bit-identical transition
//!    records to the same trace streamed directly at a single server:
//!    sharding must not observably change the pipeline.

#![cfg(target_os = "linux")]

use proptest::prelude::*;

use fgcs_service::cluster::{rendezvous_owner, ClusterClient, ClusterConfig, ShardSpec};
use fgcs_service::loadgen::wave_sample;
use fgcs_service::{ClientConfig, Server, ServiceClient, ServiceConfig};
use fgcs_wire::{Frame, WireSample, WireTransition};

fn server() -> Server {
    Server::start(ServiceConfig::default()).expect("server starts")
}

/// Samples `0..samples` of machine `m`'s replay wave: long busy/idle
/// stretches so the detector records real transitions.
fn wave(machine: u32, samples: u64) -> Vec<WireSample> {
    (0..samples).map(|i| wave_sample(machine, i)).collect()
}

fn transitions_of(client: &mut ServiceClient, machine: u32) -> Vec<WireTransition> {
    match client.request(&Frame::QueryTransitions {
        machine,
        since_seq: 0,
        max: 10_000,
    }) {
        Ok(Frame::Transitions { transitions, .. }) => transitions,
        other => panic!("transitions reply expected, got {other:?}"),
    }
}

/// Blocks until `client`'s server reports every machine caught up to
/// the wave's final sample (ingest is asynchronous).
fn wait_caught_up(client: &mut ServiceClient, machines: &[u32], final_t: u64) {
    for _ in 0..400 {
        if let Ok(Frame::StatsReply(stats)) = client.request(&Frame::QueryStats) {
            let done = machines.iter().all(|&m| {
                stats
                    .machines
                    .iter()
                    .any(|s| s.machine == m && s.last_t >= final_t)
            });
            if done {
                return;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("server did not catch up to t={final_t}");
}

fn direct_client(addr: &str) -> ServiceClient {
    let mut cfg = ClientConfig::new(addr);
    cfg.backoff_unit_ms = 1;
    ServiceClient::connect(cfg).expect("connect")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Removing one shard moves only the keys it owned: for every key
    /// whose owner survives, the owner (by name) is unchanged.
    #[test]
    fn rendezvous_moves_only_the_removed_nodes_keys(
        n in 2usize..9,
        salt in 0u64..1_000,
        removed_pick in 0usize..8,
        keys in prop::collection::vec(0u32..100_000, 1..128),
    ) {
        let names: Vec<String> = (0..n).map(|i| format!("node-{salt}-{i}")).collect();
        let removed = removed_pick % n;
        let survivors: Vec<String> = names
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != removed)
            .map(|(_, s)| s.clone())
            .collect();
        for &key in &keys {
            let before = &names[rendezvous_owner(&names, key)];
            if before == &names[removed] {
                continue; // this key's owner died; it must move
            }
            let after = &survivors[rendezvous_owner(&survivors, key)];
            prop_assert_eq!(
                before, after,
                "key {} changed owner though its shard survived", key
            );
        }
    }
}

proptest! {
    // Each case boots real TCP servers; a handful of cases over the
    // machine/sample/shard-count space is the budget.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The router is observationally transparent: per-machine
    /// transition records are bit-identical to a direct single-server
    /// run of the same trace.
    #[test]
    fn router_and_direct_connect_records_are_bit_identical(
        machines in 2u32..6,
        samples in 90u64..170,
        shard_count in 1usize..4,
    ) {
        let ids: Vec<u32> = (1..=machines).collect();
        let final_t = (samples - 1) * 15;

        // Reference: everything into one server, directly.
        let reference = server();
        let mut direct = direct_client(&reference.local_addr().to_string());
        for &m in &ids {
            for chunk in wave(m, samples).chunks(50) {
                let reply = direct
                    .request(&Frame::SampleBatch { machine: m, samples: chunk.to_vec() })
                    .expect("direct ingest");
                prop_assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
            }
        }
        wait_caught_up(&mut direct, &ids, final_t);

        // Cluster: same trace through the rendezvous router.
        let nodes: Vec<Server> = (0..shard_count).map(|_| server()).collect();
        let shards = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| ShardSpec {
                name: format!("shard-{i}"),
                primary_addr: n.local_addr().to_string(),
                follower_addr: None,
            })
            .collect();
        let mut router = ClusterClient::connect(ClusterConfig::new(shards)).expect("router");
        for &m in &ids {
            for chunk in wave(m, samples).chunks(50) {
                let reply = router.ingest(m, chunk.to_vec()).expect("routed ingest");
                prop_assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
            }
        }
        for (i, node) in nodes.iter().enumerate() {
            let owned: Vec<u32> = ids
                .iter()
                .copied()
                .filter(|&m| router.shard_for(m) == i)
                .collect();
            if owned.is_empty() {
                continue;
            }
            let mut c = direct_client(&node.local_addr().to_string());
            wait_caught_up(&mut c, &owned, final_t);
            for &m in &owned {
                let want = transitions_of(&mut direct, m);
                let got = transitions_of(&mut c, m);
                prop_assert!(!want.is_empty(), "wave must produce transitions");
                prop_assert_eq!(
                    want, got,
                    "machine {} records diverge through the router", m
                );
            }
        }
        prop_assert_eq!(router.metrics.retries, 0, "healthy cluster: no retries");

        reference.shutdown();
        for n in nodes {
            n.shutdown();
        }
    }
}
