//! A tiny deterministic RNG for simulator-internal pseudo-randomness.

/// SplitMix64: a small, fast, high-quality 64-bit PRNG.
///
/// Used for guest-visible pseudo-randomness (e.g. the LCG-style input
/// initialization the paper's benchmarks perform with `rand()`) and anywhere
/// the simulator needs repeatable "random" choices without depending on the
/// `rand` crate in the hot path.
///
/// # Examples
///
/// ```
/// use ccsvm_engine::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The current stream position, for checkpointing. Restoring via
    /// [`SplitMix64::set_state`] resumes the exact draw sequence.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Restores a stream position captured by [`SplitMix64::state`].
    pub fn set_state(&mut self, state: u64) {
        self.state = state;
    }

    /// The next 64-bit value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded sampling (Lemire); bias is negligible for the
        // simulator's purposes and the result stays deterministic.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(SplitMix64::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn bounded_values_in_range() {
        let mut r = SplitMix64::new(123);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SplitMix64::new(1).next_below(0);
    }

    #[test]
    fn rough_uniformity() {
        let mut r = SplitMix64::new(2024);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[r.next_below(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket count {b} out of range");
        }
    }
}
