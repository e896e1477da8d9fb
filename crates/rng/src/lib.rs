//! # dee-rng — the workspace's one seeded PRNG
//!
//! xorshift64* (Vigna's 12/25/27 shifts and `0x2545_F491_4F6C_DD1D`
//! multiplier): one `u64` of state, no platform-dependent behaviour and
//! no dependencies, so a seed yields the same stream on every host.
//! `dee-gen` draws its programs from it, and every seeded property test
//! and differential fuzz in the workspace draws its inputs from it, so a
//! seed printed by a failing case reproduces that case exactly.
//!
//! Four generators deliberately keep their own mixers, because their
//! output is pinned: the workload input generators (`dee-workloads`'
//! xorshift32 feeds every golden), `dee-store`'s `checksum64` and LZ
//! hash (file formats), and the serve fault plan's per-site mixer
//! (pinned by its own test).
//!
//! Seeded suites read their seed and length from the environment through
//! [`env_u64`]: `DEE_CHAOS_SEED` picks the stream and `DEE_CHAOS_ITERS`
//! its length.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A xorshift64* generator.
pub struct Rng(u64);

impl Rng {
    /// Seeds from any `u64`, zero included: the state is
    /// `seed · 0x9E37_79B9_7F4A_7C15 | 1`, which is never the all-zero
    /// fixed point and keeps nearby seeds far apart.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Starts from the raw state `state`, which must not be zero (the
    /// all-zero state is a fixed point of the shifts).
    #[must_use]
    pub fn from_state(state: u64) -> Rng {
        debug_assert_ne!(state, 0, "xorshift64* state must be non-zero");
        Rng(state)
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below anything
    /// a test or generator here can see).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly chosen element of the non-empty `items`.
    #[inline]
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

/// The environment variable `name` parsed as a `u64`, or `default` when
/// it is unset or does not parse.
#[must_use]
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seeded stream in the workspace starts from one of these two
    /// seedings, so a change to either, or to the step, shows here first.
    #[test]
    fn both_seedings_are_pinned() {
        let draws = |mut rng: Rng| -> Vec<u64> { (0..4).map(|_| rng.next_u64()).collect() };
        assert_eq!(
            draws(Rng::new(42)),
            [
                0x7c3d_3da7_30e9_fd2b,
                0xbc66_74d0_9f2b_33fc,
                0xc1cd_cc7e_2428_8d6f,
                0x321e_8b4f_3807_4d7f,
            ]
        );
        assert_eq!(
            draws(Rng::from_state(42)),
            [
                0x56ce_4ab7_719b_a3a0,
                0xc841_eb53_ebbb_2dda,
                0xca46_6be0_c998_0276,
                0xf1ac_c733_4a7b_70df,
            ]
        );
    }
}
