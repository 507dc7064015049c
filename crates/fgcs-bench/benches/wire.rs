//! Wire-path benchmarks: what one frame costs to checksum, decode and
//! encode.
//!
//! * `crc32` — `fgcs_wire::codec::crc32` at 64 B (a control frame),
//!   2,824 B (the payload of a 128-sample `Direct` batch) and 1 MiB
//!   (`MAX_FRAME_LEN`), beside a local byte-at-a-time loop — the
//!   algorithm the wire format was first written with — as the
//!   yardstick. Throughput is bytes per second. The kernel is the
//!   braided CRC of DESIGN §9.1: from 64 B on, four lanes run
//!   independent CRC chains over interleaved words and fold once at the
//!   end (about 0.22 ns/B at 2,824 B against slicing-by-8's 0.75 on a
//!   2-vCPU x86-64 VM); shorter inputs go eight bytes per step.
//! * `frame` — `Decoder::push + next_frame` and `encode_into` for 4- and
//!   128-sample batches: the checksum plus the payload parse/serialize
//!   around it.
//! * `clone/128_samples` — `Vec<WireSample>::clone`, the copy the
//!   replication path used to make per batch.
//!
//! After the rows it gates the kernel against the yardstick in the same
//! process: `crc32` must be at least [`MIN_SPEEDUP`]× the bytewise loop
//! at 2,824 B or the bench exits non-zero. A ratio, so host speed
//! cancels.

use std::time::Duration;

use criterion::{criterion_group, Criterion, Throughput};
use std::hint::black_box;

use fgcs_bench::best_ns;
use fgcs_wire::codec::crc32;
use fgcs_wire::{encode_into, Decoder, Frame, SampleLoad, WireSample, MAX_FRAME_LEN};

/// Payload bytes of a 128-sample `Direct` batch: machine + count + 128 × 22.
const BATCH_PAYLOAD: usize = 4 + 4 + 128 * 22;
/// The braided kernel measures 6.8–13.2× the bytewise loop (the low
/// end on a busy host) and slicing-by-8 3.7–4.0×, so anything under
/// this means the lanes stopped overlapping and the kernel fell back
/// to one dependent chain.
const MIN_SPEEDUP: f64 = 5.0;

/// The yardstick: one table, one dependent lookup per byte.
struct Bytewise([u32; 256]);

impl Bytewise {
    fn new() -> Self {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        Bytewise(table)
    }

    fn crc32(&self, data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = self.0[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }
}

/// Repeatable scrambled bytes.
fn scrambled(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

fn samples(n: u64) -> Vec<WireSample> {
    (0..n)
        .map(|i| WireSample {
            t: 15 * i,
            load: SampleLoad::Direct((i % 100) as f64 / 100.0),
            host_resident_mb: 512 + i as u32,
            alive: true,
        })
        .collect()
}

fn bench_crc32(c: &mut Criterion) {
    let yardstick = Bytewise::new();
    let mut g = c.benchmark_group("crc32");
    for len in [64usize, BATCH_PAYLOAD, MAX_FRAME_LEN] {
        let data = scrambled(len);
        assert_eq!(crc32(&data), yardstick.crc32(&data));
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("kernel/{len}_bytes"), |b| {
            b.iter(|| crc32(black_box(&data)))
        });
        g.bench_function(format!("bytewise/{len}_bytes"), |b| {
            b.iter(|| yardstick.crc32(black_box(&data)))
        });
    }
    g.finish();
}

fn bench_frames(c: &mut Criterion) {
    let mut g = c.benchmark_group("frame");
    for n in [4u64, 128] {
        let frame = Frame::SampleBatch {
            machine: 7,
            samples: samples(n),
        };
        let bytes = frame.encode().expect("encodable");
        g.throughput(Throughput::Bytes(bytes.len() as u64));
        let mut decoder = Decoder::new();
        g.bench_function(format!("decode/{n}_samples"), |b| {
            b.iter(|| {
                decoder.push(black_box(&bytes));
                decoder.next_frame().expect("decodes").expect("complete")
            })
        });
        let mut buf = Vec::new();
        g.bench_function(format!("encode/{n}_samples"), |b| {
            b.iter(|| {
                encode_into(black_box(&frame), &mut buf).expect("encodable");
                buf.len()
            })
        });
    }
    g.finish();
}

fn bench_clone(c: &mut Criterion) {
    let samples = samples(128);
    c.bench_function("clone/128_samples", |b| {
        b.iter(|| black_box(&samples).clone())
    });
}

fn gate() {
    let yardstick = Bytewise::new();
    let data = scrambled(BATCH_PAYLOAD);
    let iters = if std::env::var_os("FGCS_BENCH_QUICK").is_some() {
        500
    } else {
        5_000
    };
    let kernel = best_ns(7, iters, || crc32(black_box(&data)));
    let bytewise = best_ns(7, iters, || yardstick.crc32(black_box(&data)));
    let speedup = bytewise / kernel;
    println!(
        "gate crc32/{BATCH_PAYLOAD}_bytes  kernel {kernel:.0} ns ({:.2} ns/B), bytewise {bytewise:.0} ns, \
         speedup {speedup:.2}x (need >= {MIN_SPEEDUP}x)",
        kernel / BATCH_PAYLOAD as f64
    );
    if speedup < MIN_SPEEDUP {
        eprintln!("wire bench: crc32 kernel only {speedup:.2}x the bytewise loop");
        std::process::exit(1);
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_crc32, bench_frames, bench_clone
}

fn main() {
    benches();
    gate();
}
