//! Seeded choices the harness itself makes: which machine a request
//! names and which kind of request comes next. The machines' load
//! histories come from the repo's own generators (through
//! `adapter::Inputs`); nothing here reaches the program under test
//! except as the requests it produces.

use crate::closed_loop::Kind;

/// SplitMix64, the usual seeding generator; small enough to own, so a
/// change to `fgcs-stats` cannot change which requests are sent.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(seed: u64, n: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// Requests per block of the `query_mix` pattern.
pub const BLOCK: u64 = 100;

/// The kind of the `i`-th request a connection sends under `query_mix`:
/// every block of 100 holds 10 `Place` (positions 5, 15, … 95), one
/// `SampleBatch` (position 50) and 89 `QueryAvail`, spread evenly so no
/// slice of the run sees a burst of the expensive kind.
pub fn query_mix_kind(i: u64) -> Kind {
    match i % BLOCK {
        50 => Kind::Ingest,
        p if p % 10 == 5 => Kind::Place,
        _ => Kind::Query,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_100_is_89_queries_10_places_1_batch() {
        for block in [0u64, 1, 17, 12_345] {
            let mut counts = [0usize; 3];
            for i in block * BLOCK..(block + 1) * BLOCK {
                counts[query_mix_kind(i) as usize] += 1;
            }
            assert_eq!(counts[Kind::Ingest as usize], 1);
            assert_eq!(counts[Kind::Query as usize], 89);
            assert_eq!(counts[Kind::Place as usize], 10);
        }
    }

    #[test]
    fn permutation_is_a_permutation_and_repeats_from_its_seed() {
        let a = permutation(20060301, 512);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..512).collect::<Vec<u32>>());
        assert_eq!(a, permutation(20060301, 512));
        assert_ne!(a, permutation(20060302, 512));
        assert_ne!(
            a, sorted,
            "a seeded shuffle that leaves 512 items in order is broken"
        );
        assert!(permutation(1, 0).is_empty());
        assert_eq!(permutation(1, 1), vec![0]);
    }
}
