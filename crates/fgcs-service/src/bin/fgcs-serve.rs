//! `fgcs-serve`: run the availability service from the command line.
//!
//! ```text
//! fgcs-serve [--addr HOST:PORT] [--loops N] [--queue-capacity N]
//!            [--max-conns N] [--shards N] [--auth-token TOKEN]
//!            [--snapshot-dir DIR] [--snapshot-interval MS]
//!            [--repl-log N] [--follower-of HOST:PORT] [--pull-interval MS]
//!            [--auto-promote] [--lease MS] [--missed-pulls N]
//!            [--promotion-peer HOST:PORT]... [--max-read-lag N]
//! ```
//!
//! Prints the bound address on stdout (port 0 picks a free port, which
//! is how the CI smoke drives it), then serves until stdin reaches EOF.

use std::io::Read;
use std::process::exit;

use fgcs_service::{Server, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: fgcs-serve [--addr HOST:PORT] [--loops N] [--queue-capacity N]\n\
         \x20                 [--max-conns N] [--shards N] [--auth-token TOKEN]\n\
         \x20                 [--snapshot-dir DIR] [--snapshot-interval MS]\n\
         \x20                 [--repl-log N] [--follower-of HOST:PORT] [--pull-interval MS]\n\
         \x20                 [--auto-promote] [--lease MS] [--missed-pulls N]\n\
         \x20                 [--promotion-peer HOST:PORT]... [--max-read-lag N]\n\
         \n\
         Runs until stdin reaches EOF. Prints `listening on ADDR` once bound.\n\
         With --snapshot-dir the server checkpoints its ingest state there\n\
         periodically and on shutdown, and restores from it at startup.\n\
         --loops N runs N event loops sharing the port via SO_REUSEPORT\n\
         (0 = auto: min(cores, shards)); N must not exceed --shards.\n\
         --queue-capacity N bounds each cross-loop forwarding ring; a batch\n\
         that finds its ring full is shed and answered Busy.\n\
         --repl-log N retains the last N replication log entries so a\n\
         follower can stream them; --follower-of ADDR starts this node as\n\
         that primary's follower (rejects ingest). As primary, a node holds\n\
         a pull with less than a batch to take for up to --pull-interval ms\n\
         (default 5, at most 25). --auto-promote lets a follower\n\
         self-promote once its primary misses --missed-pulls consecutive\n\
         pulls AND the --lease ms granted on the last reply has expired,\n\
         and only if every --promotion-peer (repeatable: the siblings' bound\n\
         addresses; needs a concrete --addr) answers and none is more caught\n\
         up or ties at a lower address. --max-read-lag N lets a\n\
         follower answer QueryAvail/Place/QueryStats while its applied seq\n\
         is within N of the primary head it last saw (otherwise TooStale)."
    );
    exit(2);
}

fn main() {
    let mut cfg = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("fgcs-serve: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--loops" => match value("--loops").parse() {
                Ok(n) => cfg.event_loops = n,
                Err(_) => usage(),
            },
            "--queue-capacity" => match value("--queue-capacity").parse() {
                Ok(n) if n >= 1 => cfg.queue_capacity = n,
                _ => usage(),
            },
            "--max-conns" => match value("--max-conns").parse() {
                Ok(n) => cfg.max_connections = n,
                Err(_) => usage(),
            },
            "--shards" => match value("--shards").parse() {
                Ok(n) => cfg.state_shards = n,
                Err(_) => usage(),
            },
            "--auth-token" => cfg.auth_token = Some(value("--auth-token")),
            "--snapshot-dir" => cfg.snapshot_dir = Some(value("--snapshot-dir")),
            "--snapshot-interval" => match value("--snapshot-interval").parse() {
                Ok(ms) => cfg.snapshot_interval_ms = ms,
                Err(_) => usage(),
            },
            "--repl-log" => match value("--repl-log").parse() {
                Ok(n) if n >= 1 => cfg.repl_log_capacity = n,
                _ => usage(),
            },
            "--follower-of" => cfg.follower_of = Some(value("--follower-of")),
            "--pull-interval" => match value("--pull-interval").parse() {
                Ok(ms) => cfg.pull_interval_ms = ms,
                Err(_) => usage(),
            },
            "--auto-promote" => cfg.auto_promote = true,
            "--lease" => match value("--lease").parse() {
                Ok(ms) => cfg.lease_ms = ms,
                Err(_) => usage(),
            },
            "--missed-pulls" => match value("--missed-pulls").parse() {
                Ok(n) if n >= 1 => cfg.missed_pull_threshold = n,
                _ => usage(),
            },
            "--promotion-peer" => cfg.promotion_peers.push(value("--promotion-peer")),
            "--max-read-lag" => match value("--max-read-lag").parse() {
                Ok(n) => cfg.max_read_lag = Some(n),
                Err(_) => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("fgcs-serve: unknown argument {other:?}");
                usage()
            }
        }
    }

    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fgcs-serve: failed to start: {e}");
            exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    eprintln!("fgcs-serve: loops={}", server.event_loops());

    // Block until the parent closes our stdin, then drain and exit.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    let stats = server.stats();
    server.shutdown();
    eprintln!(
        "fgcs-serve: done — ingested {} batches ({} samples), shed {}, decode errors {}, \
         {} queries answered",
        stats.ingested_batches,
        stats.ingested_samples,
        stats.shed_batches,
        stats.decode_errors,
        stats.queries_answered
    );
}
