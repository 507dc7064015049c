//! Golden frames: bytes an older build put on the wire.
//!
//! The `.hex` files under `tests/golden/` were written by commit
//! 5063329 — the last build whose `crc32` was the byte-at-a-time loop —
//! from the values the builders below construct. Every round-trip test
//! elsewhere runs the same checksum on both sides, so a kernel that is
//! self-consistent but wrong would pass them all and still cut this
//! build off from every old peer. These bytes cannot be fooled that
//! way: regenerating them with the code under test defeats the point,
//! so a format change adds a new file and keeps the old one decoding.
//!
//! The root package's `tests/wire_checksum.rs` includes this file by
//! `#[path]`, so it runs under the tier-1 `cargo test -q` as well.

use fgcs_wire::{
    decode_one, DecodeError, Frame, ReplEntry, SampleLoad, WireSample, HEADER_LEN,
    REPL_ENTRIES_HEADER_LEN,
};

const DIRECT_128: &str = include_str!("golden/sample_batch_direct_128.hex");
const COUNTERS_3: &str = include_str!("golden/sample_batch_counters_3.hex");
const REPL_ENTRIES_2: &str = include_str!("golden/repl_entries_2.hex");

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert_eq!(digits.len() % 2, 0, "odd number of hex digits");
    digits
        .chunks_exact(2)
        .map(|pair| {
            let s = std::str::from_utf8(pair).expect("ascii");
            u8::from_str_radix(s, 16).expect("hex digit pair")
        })
        .collect()
}

/// splitmix64 finalizer: a repeatable scramble of `i`.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn direct_sample(i: u64) -> WireSample {
    WireSample {
        t: 15 * i,
        load: SampleLoad::Direct((mix(i) >> 11) as f64 / (1u64 << 53) as f64),
        host_resident_mb: 256 + (mix(i ^ 0xabc) % 1024) as u32,
        alive: i % 17 != 16,
    }
}

fn counters_sample(i: u64) -> WireSample {
    WireSample {
        t: 15 * i,
        load: SampleLoad::Counters {
            busy: mix(i) >> 40,
            total: (mix(i) >> 40) + 1500 * (i + 1),
        },
        host_resident_mb: 300 + i as u32,
        alive: true,
    }
}

/// The `ingest_bulk_repl` shape: 2,824 payload bytes, a whole number
/// of 8-byte steps.
fn direct_batch() -> Frame {
    Frame::SampleBatch {
        machine: 7,
        samples: (0..128).map(direct_sample).collect(),
    }
}

/// 98 payload bytes: twelve 8-byte steps and a 2-byte tail.
fn counters_batch() -> Frame {
    Frame::SampleBatch {
        machine: 4095,
        samples: (0..3).map(counters_sample).collect(),
    }
}

fn repl_entries() -> Frame {
    Frame::ReplEntries {
        head_seq: 9,
        epoch: 2,
        lease_ms: 250,
        entries: vec![
            ReplEntry {
                seq: 8,
                machine: 7,
                last_t_after: 30,
                next_seq_after: 3,
                samples: (1..3).map(direct_sample).collect(),
            },
            ReplEntry {
                seq: 9,
                machine: 4095,
                last_t_after: 45,
                next_seq_after: 1,
                samples: vec![counters_sample(3)].into(),
            },
        ],
    }
}

/// Old bytes decode to the value, and the value encodes to the old
/// bytes.
fn assert_golden(hex: &str, frame: &Frame, payload_len: usize) {
    let bytes = unhex(hex);
    assert_eq!(bytes.len(), HEADER_LEN + payload_len);
    assert_eq!(&decode_one(&bytes).expect("golden frame decodes"), frame);
    assert_eq!(frame.encode().expect("encodable"), bytes);
}

#[test]
fn golden_frames_decode_and_re_encode_byte_identically() {
    assert_golden(DIRECT_128, &direct_batch(), 4 + 4 + 128 * 22);
    assert_golden(COUNTERS_3, &counters_batch(), 4 + 4 + 3 * 30);
    assert_golden(
        REPL_ENTRIES_2,
        &repl_entries(),
        REPL_ENTRIES_HEADER_LEN + (32 + 2 * 22) + (32 + 30),
    );
}

#[test]
fn every_single_bit_flip_in_a_128_sample_payload_is_a_bad_checksum() {
    // `payload_flip_always_detected` (wire_props.rs) samples flips in
    // frames of up to 16 samples; this walks all 22,592 payload bits of
    // the frame size the replication path actually carries.
    let mut bytes = unhex(DIRECT_128);
    let mut flips = 0u32;
    for idx in HEADER_LEN..bytes.len() {
        for bit in 0..8 {
            bytes[idx] ^= 1 << bit;
            match decode_one(&bytes) {
                Err(DecodeError::BadChecksum { .. }) => {}
                other => panic!("flip of bit {bit} at byte {idx} undetected: {other:?}"),
            }
            bytes[idx] ^= 1 << bit;
            flips += 1;
        }
    }
    assert_eq!(flips, 22_592);
    assert_eq!(decode_one(&bytes).expect("restored"), direct_batch());
}
