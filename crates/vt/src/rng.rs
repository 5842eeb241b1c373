//! A seeded pseudo-random generator (splitmix64) with range and bool draws.
//!
//! Everything that draws randomness — simulated link jitter, the TCP
//! mesh's reconnect jitter, the workload generators, the model checker's
//! fault plans and the property runner — draws it from here, so a seed
//! names one stream on every build.
//!
//! ```
//! use decaf_vt::rng::SplitMix64;
//!
//! let mut rng = SplitMix64::new(7);
//! let die = rng.range(1..=6u32);
//! assert!((1..=6).contains(&die));
//! assert!(!rng.chance(0.0));
//! ```

use std::ops::{Range, RangeInclusive};

/// Sebastiano Vigna's splitmix64: one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose whole output is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`). The modulo bias is below `n / 2⁶⁴`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no value to draw");
        self.next_u64() % n
    }

    /// A value in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`: never for `p <= 0`, always for `p >= 1`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// A uniform value in `range` (`a..b` or `a..=b`, integers or `f64`).
    /// Panics on an empty range.
    pub fn range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

/// A range [`SplitMix64::range`] can draw from.
pub trait SampleRange<T> {
    /// One uniform draw from `self`.
    fn sample(self, rng: &mut SplitMix64) -> T;
}

// Every type here is unsigned or 64 bits wide, so a span converts to `u64`
// without sign extension.
macro_rules! int_ranges {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut SplitMix64) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut SplitMix64) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range {lo}..={hi}");
                // Only the full 64-bit range has a span that wraps to zero.
                let span = (hi.wrapping_sub(lo) as u64).wrapping_add(1);
                let draw = if span == 0 { rng.next_u64() } else { rng.below(span) };
                lo.wrapping_add(draw as $t)
            }
        }
    )+};
}
int_ranges!(u8, u32, u64, usize, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut SplitMix64) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        loop {
            // Rounding can land `start + width·u` on `end`; draw again.
            let x = self.start + (self.end - self.start) * rng.unit();
            if x < self.end {
                return x;
            }
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample(self, rng: &mut SplitMix64) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        (lo + (hi - lo) * u).clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference outputs for seed 1234567 from the public-domain C
    /// implementation: the stream is pinned, not merely self-consistent.
    #[test]
    fn matches_reference_vector() {
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
        assert_eq!(g.next_u64(), 9817491932198370423);
    }

    #[test]
    fn integer_ranges_hold_their_bounds_and_reach_both_ends() {
        let mut g = SplitMix64::new(3);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2_000 {
            let x = g.range(2..=5u32);
            assert!((2..=5).contains(&x));
            lo_seen |= x == 2;
            hi_seen |= x == 5;
            let y = g.range(-3..4i64);
            assert!((-3..4).contains(&y));
            assert_eq!(g.range(9..10usize), 9);
            assert_eq!(g.range(7..=7u64), 7);
        }
        assert!(lo_seen && hi_seen);
        let _ = g.range(0..=u64::MAX);
        let _ = g.range(i64::MIN..=i64::MAX);
        for _ in 0..2_000 {
            let w = g.range(-100..=-90i64);
            assert!((-100..=-90).contains(&w));
        }
    }

    #[test]
    fn float_ranges_hold_their_bounds() {
        let mut g = SplitMix64::new(4);
        for _ in 0..10_000 {
            let x = g.range(-0.1..=0.1);
            assert!((-0.1..=0.1).contains(&x));
            let y = g.range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&y));
            assert!((0.0..1.0).contains(&g.unit()));
        }
        assert_eq!(g.range(0.5..=0.5), 0.5);
    }

    #[test]
    fn chance_is_exact_at_zero_and_one_and_near_p_between() {
        let mut g = SplitMix64::new(5);
        let mut hits = 0;
        for _ in 0..10_000 {
            assert!(!g.chance(0.0));
            assert!(g.chance(1.0));
            hits += usize::from(g.chance(0.25));
        }
        assert!((2_200..2_800).contains(&hits), "{hits}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SplitMix64::new(1).range(3..3u32);
    }
}
