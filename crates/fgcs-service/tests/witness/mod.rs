//! The read path's independent witness, shared by this crate's
//! `read_path_e2e.rs` and the workspace root's
//! `tests/service_read_path.rs` (which includes this file by path, so
//! Tier-1 runs the one-loop case without a second copy of the checks).
//!
//! `Place` answers from the online model's placement table alone. The
//! machine cells know the same facts by another route — `Server::stats`
//! reads each recorder under its own lock, `Server::records` returns the
//! occurrences the model was fed from — so a check built only on those
//! is a second opinion on the table's flags and on the reply. Every
//! placement is asked twice, and again after a write flips its winner,
//! so the model's memo of its last placement answers to the same
//! witness.

use fgcs_predict::OnlineAvailabilityModel;
use fgcs_service::{ClientConfig, Server, ServiceClient, ServiceConfig};
use fgcs_stats::rng::Rng;
use fgcs_wire::{Frame, SampleLoad, StatsPayload, WireSample};

/// Sample period of the generated histories, seconds. One sample above
/// `Th2` is a spike the detector is still tolerating (tolerance 60 s);
/// a second one a period later is a failure.
const PERIOD: u64 = 60;
/// Samples per `SampleBatch`.
const BATCH: usize = 48;
/// Job lengths every check places: inside one hour, across several,
/// and across days (day-type boundaries whatever the weekday).
pub const JOB_LENS: [u64; 3] = [1_800, 14_400, 3 * 86_400 + 600];
/// Connections `stream` spreads the machines over.
const CONNS: usize = 4;

/// How a machine's history ends — what its flag must say afterwards.
#[derive(Clone, Copy, PartialEq)]
enum Ending {
    /// Calm long enough to be harvested again.
    Calm,
    /// One sample above `Th2`: available, spike pending.
    Spike,
    /// Load held above `Th2`: S3.
    Busy,
    /// No memory left for a guest: S4.
    Thrashing,
    /// The machine went away: S5.
    Dead,
}

/// Three days of one machine's samples: calm, with `spells` busy spells
/// at seeded hours (so machines differ in when they fail, not only in
/// how often), then the ending.
fn history(rng: &mut Rng, spells: u64, ending: Ending) -> Vec<WireSample> {
    let total = 3 * 86_400 / PERIOD as usize;
    let mut busy = vec![false; total];
    for _ in 0..spells {
        let at = rng.below(total as u64 - 120) as usize;
        let len = 3 + rng.below(20) as usize;
        busy[at..at + len].fill(true);
    }
    // A calm run-in to the ending, longer than the harvest delay, so
    // the ending is what decides the final state.
    busy[total - 30..].fill(false);
    let tail = match ending {
        Ending::Calm => 0,
        Ending::Spike => 1,
        Ending::Busy | Ending::Thrashing | Ending::Dead => 6,
    };
    (0..total)
        .map(|i| {
            let last = i >= total - tail;
            WireSample {
                t: i as u64 * PERIOD,
                load: SampleLoad::Direct(
                    if busy[i] || (last && matches!(ending, Ending::Spike | Ending::Busy)) {
                        0.95
                    } else {
                        0.05
                    },
                ),
                host_resident_mb: if last && ending == Ending::Thrashing {
                    1 << 20
                } else {
                    64
                },
                alive: !(last && ending == Ending::Dead),
            }
        })
        .collect()
}

/// The seeded fleet as `SampleBatch` frames, machine by machine. With
/// `all_down` no machine ends harvestable.
pub fn scenario(seed: u64, machines: u32, all_down: bool) -> Vec<Frame> {
    let mut rng = Rng::new(seed);
    let mut frames = Vec::new();
    for m in 0..machines {
        let ending = match (all_down, m % 6) {
            (false, 0 | 1) => Ending::Calm,
            (_, 2) => Ending::Spike,
            (_, 3) => Ending::Thrashing,
            (_, 4) => Ending::Dead,
            _ => Ending::Busy,
        };
        // Sparse, unordered ids: the table's registration order must
        // not matter, and neither must the shard a machine lands in.
        let machine = (m * 37 + 5) % 101;
        // The first machine never fails before its ending: a zero-event
        // row still counts in the pooled normalisation.
        let spells = if m == 0 { 0 } else { rng.below(5) };
        for chunk in history(&mut rng, spells, ending).chunks(BATCH) {
            frames.push(Frame::SampleBatch {
                machine,
                samples: chunk.to_vec(),
            });
        }
    }
    frames
}

fn client(addr: &str) -> ServiceClient {
    let mut cfg = ClientConfig::new(addr);
    cfg.backoff_unit_ms = 1;
    ServiceClient::connect(cfg).expect("client connects")
}

/// Streams the frames over a few concurrent connections — machine `m`
/// always on connection `m mod CONNS`, so one machine's batches stay in
/// order while different machines' ingest really does overlap — and
/// waits until the server has ingested every one.
pub fn stream(server: &Server, frames: &[Frame]) {
    let addr = server.local_addr().to_string();
    std::thread::scope(|s| {
        for conn in 0..CONNS {
            let addr = &addr;
            s.spawn(move || {
                let mut c = client(addr);
                for f in frames {
                    let Frame::SampleBatch { machine, .. } = f else {
                        unreachable!("scenario frames are batches")
                    };
                    if *machine as usize % CONNS == conn {
                        let reply = c.request(f).expect("batch answered");
                        assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
                    }
                }
            });
        }
    });
    wait_for("ingest to drain", || {
        let st = server.stats();
        st.ingested_batches == frames.len() as u64 && st.queue_depth == 0
    });
}

/// Polls `done` for up to 20 s.
pub fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    for _ in 0..2_000 {
        if done() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// A default server config with `loops` event loops.
pub fn config(loops: usize) -> ServiceConfig {
    ServiceConfig {
        event_loops: loops,
        ..Default::default()
    }
}

/// What a quiescent server answered, for comparing servers that were
/// fed the same history: per machine `(id, harvestable, state, prob
/// bits)`, then the placements for [`JOB_LENS`].
#[derive(Debug, PartialEq)]
pub struct Answers {
    pub machines: Vec<(u32, bool, u8, u64)>,
    pub placements: Vec<(Option<u32>, u64)>,
}

/// The model the server should hold, rebuilt from what its machine
/// cells report: every occurrence start is one event, the newest sample
/// time is the horizon, and a machine with no event still counts.
fn model_from_cells(server: &Server, stats: &StatsPayload) -> OnlineAvailabilityModel {
    let mut model = OnlineAvailabilityModel::new(ServiceConfig::default().start_weekday);
    for st in &stats.machines {
        model.ensure_machine(st.machine);
        for r in server.records(st.machine).expect("listed machine exists") {
            model.record_event(st.machine, r.start);
        }
        model.observe_time(st.last_t);
    }
    model
}

/// Checks a quiescent server's read path against its machine cells:
/// the placement table's flag of every machine equals the recorder's,
/// every `AvailReply` equals `predict_machine` on the rebuilt model, and
/// every `PlaceReply` equals a brute-force scan of the stats in id
/// order — bit for bit.
pub fn check_read_path(server: &Server) -> Answers {
    let stats = server.stats();
    let model = model_from_cells(server, &stats);
    let mut c = client(&server.local_addr().to_string());

    let mut machines = Vec::new();
    for st in &stats.machines {
        assert_eq!(
            server.placement_flag(st.machine),
            Some(st.harvestable),
            "machine {}: the table's flag against the recorder's",
            st.machine
        );
        let want = if st.state <= 2 {
            model.predict_machine(st.machine, st.last_t, 1_800)
        } else {
            0.0
        };
        match c.request(&Frame::QueryAvail {
            machine: st.machine,
            horizon: 1_800,
        }) {
            Ok(Frame::AvailReply {
                machine,
                state,
                prob,
            }) => {
                assert_eq!((machine, state), (st.machine, st.state));
                assert_eq!(prob.to_bits(), want.to_bits(), "machine {machine}");
            }
            other => panic!("QueryAvail({}): {other:?}", st.machine),
        }
        machines.push((st.machine, st.harvestable, st.state, want.to_bits()));
    }
    assert_eq!(server.placement_flag(u32::MAX), None, "unknown machine");

    // Each placement is asked twice back to back: the second answer is
    // the model's memo of the first, and must be the same bits.
    let mut placements = Vec::new();
    for job_len in JOB_LENS {
        let mut want: Option<(u32, f64)> = None;
        for st in stats.machines.iter().filter(|st| st.harvestable) {
            let p = model.predict_machine(st.machine, model.horizon(), job_len);
            if want.is_none_or(|(_, bp)| p > bp) {
                want = Some((st.machine, p));
            }
        }
        let want = (want.map(|w| w.0), want.map_or(0.0, |w| w.1).to_bits());
        for ask in ["first", "repeated"] {
            assert_eq!(place(&mut c, job_len), want, "{ask} Place({job_len})");
        }
        placements.push(want);
    }
    Answers {
        machines,
        placements,
    }
}

/// `Place(job_len)`'s reply as `(machine, prob bits)`.
fn place(c: &mut ServiceClient, job_len: u64) -> (Option<u32>, u64) {
    match c.request(&Frame::Place { job_len }) {
        Ok(Frame::PlaceReply { machine, prob }) => (machine, prob.to_bits()),
        other => panic!("Place({job_len}): {other:?}"),
    }
}

/// Streams one batch and waits until the server has ingested it.
fn ingest_one(server: &Server, c: &mut ServiceClient, frame: &Frame) {
    let before = server.stats().ingested_batches;
    let reply = c.request(frame).expect("batch answered");
    assert!(matches!(reply, Frame::Ack { .. }), "{reply:?}");
    wait_for("the batch", || {
        server.stats().ingested_batches == before + 1
    });
}

/// One sample above `Th2`, `PERIOD` after `after`.
fn loaded_sample(machine: u32, after: u64) -> Frame {
    Frame::SampleBatch {
        machine,
        samples: vec![WireSample {
            t: after + PERIOD,
            load: SampleLoad::Direct(0.95),
            host_resident_mb: 64,
            alive: true,
        }],
    }
}

/// A write between two placements is seen by the second: one batch
/// flips the winner of `Place(JOB_LENS[1])` out of the placeable set,
/// and the next `Place`, asked at the key the model's one-entry memo
/// still holds, must equal the brute-force scan of the new state — not
/// the answer remembered from before the write.
///
/// A first batch, to a busy machine that stays busy, moves the horizon
/// one period on; the flipping batch then lands at that same instant,
/// so the service asks both placements at the same `t` and only the
/// write can tell them apart. Needs a server that accepts writes and a
/// scenario with a placeable machine and one in S3.
pub fn check_place_after_flip(server: &Server) {
    let job_len = JOB_LENS[1];
    let stats = server.stats();
    let horizon = stats
        .machines
        .iter()
        .map(|st| st.last_t)
        .max()
        .expect("a fleet");
    let busy = stats
        .machines
        .iter()
        .find(|st| st.state == 3)
        .expect("a machine in S3")
        .machine;
    let mut c = client(&server.local_addr().to_string());
    ingest_one(server, &mut c, &loaded_sample(busy, horizon));
    let moved = check_read_path(server);

    // `check_read_path` asked every length; make this one the memo's.
    let remembered = place(&mut c, job_len);
    assert_eq!(remembered, moved.placements[1]);
    let winner = remembered.0.expect("a placeable machine");
    assert_eq!(server.placement_flag(winner), Some(true));
    // Still available, but a spike is pending, so the machine is no
    // longer placeable.
    ingest_one(server, &mut c, &loaded_sample(winner, horizon));
    assert_eq!(server.placement_flag(winner), Some(false), "the flip");
    let after = place(&mut c, job_len);
    let flipped = check_read_path(server);
    assert_eq!(
        after, flipped.placements[1],
        "Place({job_len}) after the flip"
    );
    assert_ne!(after.0, Some(winner), "the winner left");
}

/// The scenario really did drive machines through every state the flag
/// depends on, so agreement above is not agreement on "all true".
pub fn assert_states_covered(a: &Answers) {
    let any = |f: fn(&(u32, bool, u8, u64)) -> bool| a.machines.iter().any(f);
    assert!(
        any(|m| m.1 && m.3 == 1.0f64.to_bits()),
        "harvestable, spotless"
    );
    assert!(
        any(|m| m.1 && m.3 != 1.0f64.to_bits()),
        "harvestable, has failed before"
    );
    assert!(any(|m| !m.1 && m.2 <= 2), "available but spiking");
    assert!(any(|m| m.2 == 3), "a machine in S3");
    assert!(any(|m| m.2 == 4), "a machine in S4");
    assert!(any(|m| m.2 == 5), "a machine in S5");
    assert!(a.placements.iter().all(|p| p.0.is_some()));
}
