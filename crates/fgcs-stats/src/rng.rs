//! Deterministic pseudo-random number generation.
//!
//! The workspace needs reproducible simulations: the same seed must yield
//! the same three-month testbed trace on every run and on every platform.
//! We therefore implement the PRNG ourselves instead of depending on an
//! external crate whose output could change between versions.
//!
//! The generator is **xoshiro256++** (Blackman & Vigna), seeded by running
//! the 64-bit seed through **SplitMix64**, the recommended seeding
//! procedure. xoshiro256++ passes BigCrush, has a period of 2^256 − 1 and
//! supports an efficient `jump` operation that advances the state by 2^128
//! steps, which we expose as [`Rng::split`] for carving independent
//! streams for parallel simulations.

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seeding xoshiro and useful on its own for hashing small
/// integers into well-mixed 64-bit values (e.g. per-machine sub-seeds).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable xoshiro256++ generator.
///
/// ```
/// use fgcs_stats::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // The all-zero state is invalid for xoshiro; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s }
    }

    /// Derives a generator for a named substream, e.g. one per machine.
    ///
    /// Mixes `stream` into the seed through SplitMix64 so that nearby
    /// stream ids produce unrelated generators.
    pub fn for_stream(seed: u64, stream: u64) -> Self {
        let mut sm = seed;
        let a = splitmix64(&mut sm);
        let mut sm2 = stream ^ 0xA076_1D64_78BD_642F;
        let b = splitmix64(&mut sm2);
        Rng::new(a ^ b.rotate_left(17))
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns the next 32-bit output (upper half of a 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Requires `lo <= hi`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0)");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`. Requires `lo < hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Chooses a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below_usize(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Jumps the state forward by 2^128 draws and returns the *pre-jump*
    /// generator, leaving `self` in the jumped position.
    ///
    /// Calling `split` repeatedly yields a sequence of generators whose
    /// output streams are non-overlapping for any realistic draw count —
    /// the primitive used to hand one independent stream to each worker
    /// in a parallel sweep.
    pub fn split(&mut self) -> Rng {
        let child = self.clone();
        self.jump();
        child
    }

    /// Advances the state by 2^128 steps (the xoshiro256++ jump).
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut s2 = 0u64;
        let mut s3 = 0u64;
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    s0 ^= self.s[0];
                    s1 ^= self.s[1];
                    s2 ^= self.s[2];
                    s3 ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = [s0, s1, s2, s3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vectors() {
        // Reference outputs for seed 0, published with the SplitMix64
        // algorithm (first three outputs).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(0xDEAD_BEEF);
        let mut b = Rng::new(0xDEAD_BEEF);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = Rng::new(3);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[r.below(7) as usize] += 1;
        }
        for &c in &counts {
            let expected = n / 7;
            assert!(
                (c as i64 - expected as i64).abs() < (expected / 10) as i64,
                "counts {counts:?}"
            );
        }
    }

    #[test]
    fn below_covers_boundaries() {
        let mut r = Rng::new(5);
        let mut saw0 = false;
        let mut saw_max = false;
        for _ in 0..10_000 {
            match r.below(4) {
                0 => saw0 = true,
                3 => saw_max = true,
                _ => {}
            }
        }
        assert!(saw0 && saw_max);
    }

    #[test]
    fn range_u64_respects_bounds() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_u64_empty_panics() {
        Rng::new(0).range_u64(5, 5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(13);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn split_streams_do_not_correlate_trivially() {
        let mut base = Rng::new(99);
        let mut a = base.split();
        let mut b = base.split();
        let matches = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn split_preserves_prefix_stream() {
        // The generator returned by split() produces what self would have
        // produced without the jump.
        let mut a = Rng::new(123);
        let mut reference = a.clone();
        let mut child = a.split();
        for _ in 0..100 {
            assert_eq!(child.next_u64(), reference.next_u64());
        }
    }

    #[test]
    fn for_stream_decorrelates_consecutive_ids() {
        let mut a = Rng::for_stream(7, 0);
        let mut b = Rng::for_stream(7, 1);
        let matches = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(21);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }

    #[test]
    fn golden_regression_pin() {
        // Regression pin: the exact output for a fixed seed. If this test
        // ever fails, reproducibility of every recorded experiment in
        // EXPERIMENTS.md is broken — do not "fix" the test, fix the RNG.
        let mut r = Rng::new(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330
            ]
        );
    }
}
