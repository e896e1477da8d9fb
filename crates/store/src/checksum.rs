//! A hand-rolled 64-bit checksum for container chunks and footers.
//!
//! The repo is offline and std-only, so instead of pulling in xxHash or
//! CRC crates the store uses a small word-at-a-time mixer built from the
//! splitmix64 finalizer: each 8-byte lane is avalanched, folded into the
//! running state, and the state is rotated and multiplied so byte order
//! and position both matter. This is a *corruption detector*, not a MAC —
//! the threat model is bit rot, truncation, and torn writes, not an
//! adversary forging collisions. The length is folded into the seed so
//! streams that differ only by trailing zero bytes hash differently.

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE_MUL: u64 = 0xFF51_AFD7_ED55_8CCD;
const STEP_ADD: u64 = 0xC4CE_B9FE_1A85_EC53;

/// The splitmix64 finalizer: a fast full-avalanche bijection on `u64`.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

/// Checksums a byte slice. Stable across platforms and releases: the
/// on-disk format depends on it.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut state = SEED ^ mix64(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for lane in &mut chunks {
        let word = u64::from_le_bytes(lane.try_into().expect("8 bytes"));
        state ^= mix64(word);
        state = state
            .rotate_left(27)
            .wrapping_mul(LANE_MUL)
            .wrapping_add(STEP_ADD);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        // Tag the tail with its length so "ab" + zero padding cannot
        // collide with a literal "ab\0...\0" lane.
        let word = u64::from_le_bytes(last) ^ ((tail.len() as u64) << 56);
        state ^= mix64(word);
        state = state
            .rotate_left(27)
            .wrapping_mul(LANE_MUL)
            .wrapping_add(STEP_ADD);
    }
    mix64(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_reference_values() {
        // Pinned: these are part of the on-disk format. If this test
        // fails, the container version must be bumped. The inputs cover
        // no lane, a tail only, whole lanes only, and lanes plus a tail.
        let ramp: Vec<u8> = (0u8..=255).collect();
        let pins: [(&[u8], u64); 7] = [
            (b"", 0x9ca0_66f1_a4ab_2eea),
            (b"a", 0xabc5_e246_4830_40b7),
            (b"ab", 0xf42d_9e35_28fb_c16e),
            (b"payload", 0xe575_f91e_fc9f_c2d0),
            (&ramp[..16], 0xdb2b_ca3a_fd9c_e6b6),
            (&ramp[..19], 0xb47d_6f8c_41c1_bb4b),
            (&ramp[..], 0xb6a5_44bd_6e1c_19f7),
        ];
        for (bytes, pinned) in pins {
            assert_eq!(checksum64(bytes), pinned, "{} bytes", bytes.len());
        }
        assert_ne!(checksum64(b"a"), checksum64(b"b"));
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
    }

    #[test]
    fn length_extension_with_zeros_changes_the_sum() {
        let base = checksum64(b"payload");
        assert_ne!(base, checksum64(b"payload\0"));
        assert_ne!(base, checksum64(b"payload\0\0\0\0\0\0\0\0"));
    }

    #[test]
    fn single_bit_flips_always_detected_on_a_window() {
        let data: Vec<u8> = (0u32..256).map(|i| (i * 7 + 13) as u8).collect();
        let reference = checksum64(&data);
        let mut flipped = data.clone();
        for byte in 0..data.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum64(&flipped), reference, "byte {byte} bit {bit}");
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn position_matters() {
        // Same multiset of lanes in a different order must differ.
        let mut a = vec![0u8; 16];
        a[0] = 1;
        let mut b = vec![0u8; 16];
        b[8] = 1;
        assert_ne!(checksum64(&a), checksum64(&b));
    }
}
