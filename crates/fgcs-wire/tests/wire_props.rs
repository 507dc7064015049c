//! Fuzz-style round-trip properties for the wire protocol.
//!
//! Equality is checked on the *re-encoded bytes*, not on the decoded
//! value: encode → decode → encode must be the identity on byte
//! strings. That is strictly stronger than value equality for the f64
//! fields (NaN bit patterns must survive) and is exactly the guarantee
//! the end-to-end parity test leans on.

use proptest::prelude::*;

use fgcs_wire::{
    decode_one, DecodeError, Decoder, EncodeError, ErrorCode, Frame, MachineStat, ReplEntry,
    SampleLoad, SchedStatsPayload, StatsPayload, WireSample, WireTransition, HEADER_LEN,
    MAX_ERROR_DETAIL, MAX_SAMPLES_PER_BATCH, REPL_ENTRIES_HEADER_LEN,
};

/// encode → decode → encode must reproduce the exact byte string.
fn assert_bytes_round_trip(frame: &Frame) -> Result<(), TestCaseError> {
    let bytes = frame.encode().expect("encodable");
    let decoded = decode_one(&bytes).expect("decodable");
    let again = decoded.encode().expect("re-encodable");
    prop_assert_eq!(&bytes, &again);
    prop_assert_eq!(frame.tag(), decoded.tag());
    Ok(())
}

fn sample_strategy() -> impl proptest::strategy::Strategy<Value = WireSample> {
    (
        (any::<u64>(), any::<bool>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<bool>()),
    )
        .prop_map(
            |((t, direct, load_bits), (busy, total, resident, alive))| WireSample {
                t,
                load: if direct {
                    // Arbitrary bit patterns: NaNs and infinities included.
                    SampleLoad::Direct(f64::from_bits(load_bits))
                } else {
                    SampleLoad::Counters { busy, total }
                },
                host_resident_mb: resident,
                alive,
            },
        )
}

/// A sample's fields with the load as raw bits, so NaNs compare equal
/// to themselves.
fn sample_bits(s: &WireSample) -> (u64, u8, u64, u64, u32, bool) {
    let (kind, a, b) = match s.load {
        SampleLoad::Direct(load) => (0, load.to_bits(), 0),
        SampleLoad::Counters { busy, total } => (1, busy, total),
    };
    (s.t, kind, a, b, s.host_resident_mb, s.alive)
}

/// One replication entry per batch, the batch's samples encoded.
fn repl_entries_of(batches: &[Vec<WireSample>]) -> Vec<ReplEntry> {
    batches
        .iter()
        .enumerate()
        .map(|(i, samples)| ReplEntry {
            seq: 100 + i as u64,
            machine: i as u32,
            last_t_after: samples.last().map_or(0, |s| s.t),
            next_seq_after: i as u64 * 3,
            samples: samples.as_slice().into(),
        })
        .collect()
}

/// Entry header (seq, machine, last_t_after, next_seq_after) plus the
/// sample count: the bytes before an entry's first sample.
const ENTRY_PREFIX_LEN: usize = 8 + 4 + 8 + 8 + 4;

fn sample_wire_len(s: &WireSample) -> usize {
    match s.load {
        SampleLoad::Direct(_) => 22,
        SampleLoad::Counters { .. } => 30,
    }
}

fn transition_strategy() -> impl proptest::strategy::Strategy<Value = WireTransition> {
    (any::<u64>(), any::<u64>(), 1u8..=5).prop_map(|(seq, at, state)| WireTransition {
        seq,
        at,
        state,
    })
}

fn machine_stat_strategy() -> impl proptest::strategy::Strategy<Value = MachineStat> {
    (
        (any::<u32>(), 1u8..=5, any::<bool>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((machine, state, harvestable), (last_t, occurrences, transitions))| MachineStat {
                machine,
                state,
                last_t,
                occurrences,
                transitions,
                harvestable,
            },
        )
}

fn detail_strategy() -> impl proptest::strategy::Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..64)
        .prop_map(|v| String::from_utf8(v).expect("ascii is utf-8"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sample_batches_round_trip(
        machine in any::<u32>(),
        samples in prop::collection::vec(sample_strategy(), 0..48),
    ) {
        assert_bytes_round_trip(&Frame::SampleBatch { machine, samples })?;
    }

    #[test]
    fn control_frames_round_trip(
        seq in any::<u64>(),
        machine in any::<u32>(),
        horizon in any::<u64>(),
        job_len in any::<u64>(),
    ) {
        assert_bytes_round_trip(&Frame::Ack { seq })?;
        assert_bytes_round_trip(&Frame::Busy { shed_batches: seq })?;
        assert_bytes_round_trip(&Frame::QueryAvail { machine, horizon })?;
        assert_bytes_round_trip(&Frame::Place { job_len })?;
        assert_bytes_round_trip(&Frame::QueryStats)?;
        assert_bytes_round_trip(&Frame::QueryTransitions {
            machine,
            since_seq: seq,
            max: horizon as u32,
        })?;
    }

    #[test]
    fn reply_frames_round_trip(
        machine in any::<u32>(),
        state in 1u8..=5,
        prob_bits in any::<u64>(),
        chosen in prop::option::of(any::<u32>()),
    ) {
        let prob = f64::from_bits(prob_bits);
        assert_bytes_round_trip(&Frame::AvailReply { machine, state, prob })?;
        assert_bytes_round_trip(&Frame::PlaceReply { machine: chosen, prob })?;
    }

    #[test]
    fn transitions_round_trip(
        machine in any::<u32>(),
        transitions in prop::collection::vec(transition_strategy(), 0..64),
    ) {
        assert_bytes_round_trip(&Frame::Transitions { machine, transitions })?;
    }

    #[test]
    fn stats_round_trip(
        counters in prop::collection::vec(any::<u64>(), 9..10),
        rate_bits in any::<u64>(),
        machines in prop::collection::vec(machine_stat_strategy(), 0..24),
    ) {
        let s = StatsPayload {
            ingested_batches: counters[0],
            ingested_samples: counters[1],
            shed_batches: counters[2],
            shed_samples: counters[3],
            decode_errors: counters[4],
            busy_replies: counters[5],
            queue_depth: counters[6],
            queries_answered: counters[7],
            placements_answered: counters[8],
            ingest_rate: f64::from_bits(rate_bits),
            machines,
        };
        assert_bytes_round_trip(&Frame::StatsReply(s))?;
    }

    #[test]
    fn sched_frames_round_trip(
        ids in prop::collection::vec(any::<u64>(), 8..9),
        user in any::<u32>(),
        job_state in 1u8..=3,
        share_op in 1u8..=3,
        machine in prop::option::of(any::<u32>()),
        counts in prop::collection::vec(any::<u32>(), 2..3),
    ) {
        assert_bytes_round_trip(&Frame::SchedSubmit { user, work: ids[0] })?;
        assert_bytes_round_trip(&Frame::SchedQueryJob { id: ids[1] })?;
        assert_bytes_round_trip(&Frame::SchedJobReply {
            id: ids[1],
            user,
            state: job_state,
            machine,
            done: ids[2],
            work: ids[3],
            evictions: counts[0],
            migrations: counts[1],
        })?;
        assert_bytes_round_trip(&Frame::SchedShare { user, op: share_op, amount: ids[4] })?;
        assert_bytes_round_trip(&Frame::SchedShareReply {
            user,
            base: ids[5],
            extra: ids[6],
            in_use: ids[7],
            pool_free: ids[0],
        })?;
        assert_bytes_round_trip(&Frame::SchedQueryStats)?;
        assert_bytes_round_trip(&Frame::SchedStatsReply(SchedStatsPayload {
            submitted: ids[0],
            completed: ids[1],
            rejected: ids[2],
            evictions: ids[3],
            migrations: ids[4],
            wasted_secs: ids[5],
            queued: ids[6],
            running: ids[7],
        }))?;
    }

    #[test]
    fn error_frames_round_trip(code in 1u8..=9, detail in detail_strategy()) {
        let code = ErrorCode::from_code(code).expect("valid code");
        assert_bytes_round_trip(&Frame::Error { code, detail })?;
    }

    #[test]
    fn auth_frames_round_trip(token in detail_strategy()) {
        assert_bytes_round_trip(&Frame::Auth { token })?;
    }

    #[test]
    fn repl_entries_round_trip_and_iterate_bit_exactly(
        batches in prop::collection::vec(prop::collection::vec(sample_strategy(), 0..24), 0..9),
        head_seq in any::<u64>(),
        lease_ms in any::<u64>(),
    ) {
        let entries = repl_entries_of(&batches);
        let written: usize = entries.iter().map(ReplEntry::encoded_len).sum();
        let frame = Frame::ReplEntries { head_seq, epoch: 2, lease_ms, entries };
        let bytes = frame.encode().expect("encodable");
        prop_assert_eq!(bytes.len(), HEADER_LEN + REPL_ENTRIES_HEADER_LEN + written);
        assert_bytes_round_trip(&frame)?;
        // Both the sender's encoding and the decoded one yield the
        // input samples, bit for bit.
        let Ok(Frame::ReplEntries { entries: decoded, .. }) = decode_one(&bytes) else {
            return Err(TestCaseError::fail("a ReplEntries frame decodes to one"));
        };
        let Frame::ReplEntries { entries, .. } = &frame else { unreachable!() };
        prop_assert_eq!(decoded.len(), batches.len());
        for ((sent, got), batch) in entries.iter().zip(&decoded).zip(&batches) {
            prop_assert_eq!(sent, got);
            prop_assert_eq!(got.samples.len(), batch.len());
            let want: Vec<_> = batch.iter().map(sample_bits).collect();
            let from_sent: Vec<_> = sent.samples.iter().map(|s| sample_bits(&s)).collect();
            let from_got: Vec<_> = got.samples.iter().map(|s| sample_bits(&s)).collect();
            prop_assert_eq!(&from_sent, &want);
            prop_assert_eq!(&from_got, &want);
        }
    }

    #[test]
    fn a_bad_sample_byte_in_a_repl_entry_is_recoverable(
        batches in prop::collection::vec(prop::collection::vec(sample_strategy(), 1..8), 1..9),
        pick in any::<u64>(),
        alive_byte in any::<bool>(),
        bad in 2u8..=255,
    ) {
        // Entry k's sample j gets an unknown kind byte or a non-0/1
        // `alive` byte, and the CRC is recomputed so the checksum
        // passes: the sample validator alone must catch it.
        let k = pick as usize % batches.len();
        let j = (pick >> 32) as usize % batches[k].len();
        let entries = repl_entries_of(&batches);
        let mut at = HEADER_LEN
            + REPL_ENTRIES_HEADER_LEN
            + entries[..k].iter().map(ReplEntry::encoded_len).sum::<usize>()
            + ENTRY_PREFIX_LEN
            + batches[k][..j].iter().map(sample_wire_len).sum::<usize>();
        at += if alive_byte { sample_wire_len(&batches[k][j]) - 1 } else { 8 };
        let frame = Frame::ReplEntries { head_seq: 200, epoch: 2, lease_ms: 0, entries };
        let mut bytes = frame.encode().unwrap();
        prop_assert!(bytes[at] <= 1, "offset {} is a kind or alive byte", at);
        bytes[at] = bad;
        let crc = fgcs_wire::codec::crc32(&bytes[HEADER_LEN..]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        let mut d = Decoder::new();
        d.push(&bytes);
        match d.next_frame() {
            Err(e @ DecodeError::BadPayload(_)) => prop_assert!(!e.is_fatal()),
            other => {
                return Err(TestCaseError::fail(format!("bad byte at {at} accepted: {other:?}")))
            }
        }
        // The bad frame was consumed; the next one on the stream decodes.
        d.push(&frame.encode().unwrap());
        prop_assert_eq!(d.next_frame().unwrap(), Some(frame));
    }

    #[test]
    fn chunked_decode_equals_oneshot(
        seqs in prop::collection::vec(any::<u64>(), 1..12),
        chunk in 1usize..40,
    ) {
        // A mixed stream of frames, fed to one decoder in `chunk`-byte
        // pieces and to another in one shot.
        let frames: Vec<Frame> = seqs
            .iter()
            .enumerate()
            .map(|(i, &s)| match i % 3 {
                0 => Frame::Ack { seq: s },
                1 => Frame::QueryAvail { machine: s as u32, horizon: s },
                _ => Frame::SampleBatch {
                    machine: s as u32,
                    samples: vec![WireSample {
                        t: s,
                        load: SampleLoad::Direct(0.25),
                        host_resident_mb: 64,
                        alive: true,
                    }],
                },
            })
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode().unwrap());
        }

        let mut oneshot = Decoder::new();
        oneshot.push(&stream);
        let mut expect = Vec::new();
        while let Some(f) = oneshot.next_frame().unwrap() {
            expect.push(f);
        }

        let mut chunked = Decoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            chunked.push(piece);
            while let Some(f) = chunked.next_frame().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(got, frames);
    }

    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Any byte soup must produce frames, recoverable errors, a
        // fatal error, or starvation — never a panic or an infinite
        // loop (every non-`Ok(None)` outcome consumes at least a
        // header's worth of bytes or poisons the decoder).
        let mut d = Decoder::new();
        d.push(&bytes);
        for _ in 0..=bytes.len() {
            match d.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) if e.is_fatal() => break,
                Err(_) => {}
            }
        }
    }

    #[test]
    fn payload_flip_always_detected(
        machine in any::<u32>(),
        samples in prop::collection::vec(sample_strategy(), 1..16),
        flip_seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        // The guarantee FrameCorruptor (fgcs-faults) relies on: XOR-ing
        // any payload byte with a nonzero mask must be detected, so
        // "frames corrupted" == "frames rejected" exactly.
        let frame = Frame::SampleBatch { machine, samples };
        let mut bytes = frame.encode().unwrap();
        let payload_len = bytes.len() - HEADER_LEN;
        let idx = HEADER_LEN + (flip_seed as usize % payload_len);
        bytes[idx] ^= mask;
        let mut d = Decoder::new();
        d.push(&bytes);
        match d.next_frame() {
            Err(DecodeError::BadChecksum { .. }) => {}
            other => {
                return Err(TestCaseError::fail(format!("flip at {idx} undetected: {other:?}")))
            }
        }
        // The corrupted frame was consumed; a clean frame still decodes.
        let good = Frame::Ack { seq: 7 };
        d.push(&good.encode().unwrap());
        prop_assert_eq!(d.next_frame().unwrap(), Some(good));
    }
}

#[test]
fn encode_rejects_overlong_fields() {
    let sample = WireSample {
        t: 0,
        load: SampleLoad::Direct(0.0),
        host_resident_mb: 0,
        alive: true,
    };
    let too_many = Frame::SampleBatch {
        machine: 0,
        samples: vec![sample; MAX_SAMPLES_PER_BATCH + 1],
    };
    assert!(matches!(
        too_many.encode(),
        Err(EncodeError::TooManyElements {
            what: "samples",
            ..
        })
    ));

    let long_detail = Frame::Error {
        code: ErrorCode::Internal,
        detail: "x".repeat(MAX_ERROR_DETAIL + 1),
    };
    assert!(matches!(
        long_detail.encode(),
        Err(EncodeError::TooManyElements { .. })
    ));
}
