//! The harness's own seeded generator (splitmix64).
//!
//! Gesture sequences must be byte-identical for a given `--seed` whichever
//! `rand` the build links — the offline container's stand-in returns range
//! starts — so nothing here depends on an external crate.

/// Sebastiano Vigna's splitmix64: one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose whole output is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `(seed, lane)`, e.g. one per site.
    pub fn stream(seed: u64, lane: u64) -> Self {
        let mut root = SplitMix64(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        SplitMix64(root.next_u64())
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// small `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `len` printable ASCII characters.
    pub fn ascii(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (b' ' + self.below(95) as u8) as char)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference outputs for seed 1234567 from the public-domain C
    /// implementation: the sequence is pinned, not merely self-consistent.
    #[test]
    fn matches_reference_vector() {
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
        assert_eq!(g.next_u64(), 9817491932198370423);
    }

    #[test]
    fn streams_differ_by_lane_and_repeat_by_seed() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::stream(7, 2);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::stream(7, 2);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut g = SplitMix64::stream(7, 3);
            (0..4).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(SplitMix64::new(1)
            .ascii(128)
            .bytes()
            .all(|b| (32..127).contains(&b)));
    }
}
