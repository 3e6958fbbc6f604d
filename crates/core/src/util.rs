//! Small deterministic utilities shared across the workspace.

/// SplitMix64 PRNG — tiny, deterministic, dependency-free.
///
/// Used wherever the workspace needs reproducible pseudo-randomness without
/// pulling `rand` into a library crate (coefficient generation, synthetic
/// grids, the fmax seed sweep). The sequence is fixed by the seed and the
/// algorithm, so every test and benchmark is reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value: [`splitmix64`] of the current state, which
    /// then advances by the golden-ratio increment.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(SPLITMIX_GAMMA);
        out
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via rejection-free multiply-shift.
    ///
    /// # Panics
    /// Panics when `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// The SplitMix64 state increment (2^64 / golden ratio).
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step as a pure function: the value
/// [`SplitMix64::next_u64`] returns from state `x`. The workspace's
/// single-shot hash wherever a draw must be a pure function of a key
/// (shadow sampling, retry jitter, program node seeds, the cluster model's
/// scan order).
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 over a byte stream — the workspace's stable byte hash: the
/// planner-memory sidecar checksum, program node seeds and the
/// compiled-kernel cache key. Stable across runs and platforms.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rounds `v` up to the next multiple of `m`.
///
/// # Panics
/// Panics when `m == 0`.
#[inline]
pub fn round_up(v: usize, m: usize) -> usize {
    assert!(m > 0, "modulus must be positive");
    v.div_ceil(m) * m
}

/// Rounds `v` down to the previous multiple of `m`.
///
/// # Panics
/// Panics when `m == 0`.
#[inline]
pub fn round_down(v: usize, m: usize) -> usize {
    assert!(m > 0, "modulus must be positive");
    (v / m) * m
}

/// Integer ceiling division.
#[inline]
pub fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_struct_steps_the_pure_function() {
        let mut r = SplitMix64::new(5);
        let mut state = 5u64;
        for _ in 0..4 {
            assert_eq!(r.next_u64(), splitmix64(state));
            state = state.wrapping_add(SPLITMIX_GAMMA);
        }
        // Pinned draw: a changed mixer would shift every seeded stream.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64("foobar".bytes()), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut r = SplitMix64::new(42);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn splitmix_f64_roughly_uniform() {
        let mut r = SplitMix64::new(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_in_range() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(r.next_below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(1).next_below(0);
    }

    #[test]
    fn rounding_helpers() {
        assert_eq!(round_up(0, 4), 0);
        assert_eq!(round_up(1, 4), 4);
        assert_eq!(round_up(4, 4), 4);
        assert_eq!(round_up(5, 4), 8);
        assert_eq!(round_down(7, 4), 4);
        assert_eq!(round_down(8, 4), 8);
        assert_eq!(ceil_div(9, 4), 3);
        assert_eq!(ceil_div(8, 4), 2);
    }
}
