//! Deterministic pseudo-random number generation.
//!
//! Every experiment in the reproduction must be bit-for-bit repeatable,
//! so engines and workload generators use an explicit-seed SplitMix64.
//! (`rand` is used at API boundaries where distributions are handy; the
//! hot scheduler paths use this allocation-free generator directly.)

/// SplitMix64's fixed state increment (the golden-ratio constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output function: advance `x` by one step and
/// finalize it. A cheap, high-quality 64-bit mixer for deterministic
/// ids, routing and checksums; `SplitMix64::new(x).next_u64() ==
/// mix64(x)`.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: tiny, fast, full-period 2^64 generator. Good enough for
/// victim selection and synthetic workload shapes; not cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let old = self.state;
        self.state = old.wrapping_add(GAMMA);
        mix64(old)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    /// Uses Lemire's multiply-shift reduction (slight modulo bias is
    /// irrelevant at our bounds ≪ 2^64).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below_usize(i + 1);
            xs.swap(i, j);
        }
    }

    /// Fork a statistically-independent child generator (e.g. one per
    /// worker) from this one.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0xA5A5_A5A5_DEAD_BEEF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mix64_is_the_generator_output() {
        // Reference outputs of SplitMix64 for seeds 0 and 1234567.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(1_234_567), 6_457_827_717_110_365_317);
        for seed in [0, 1, 42, u64::MAX] {
            let mut r = SplitMix64::new(seed);
            assert_eq!(r.next_u64(), mix64(seed));
            assert_eq!(r.next_u64(), mix64(seed.wrapping_add(GAMMA)));
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SplitMix64::new(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below_usize(8)] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left slice unchanged"
        );
    }

    #[test]
    fn fork_diverges() {
        let mut a = SplitMix64::new(11);
        let mut f = a.fork();
        assert_ne!(a.next_u64(), f.next_u64());
    }
}
