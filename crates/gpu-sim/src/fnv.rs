//! FNV-1a: the one process-stable hash fold of the workspace.
//!
//! Every persisted or cross-process identity — [`DeviceSpec`]
//! fingerprints, `PlanKey` and `TuneKey` hashes, search-space
//! fingerprints, the tune store's record checksums — folds its fields
//! through these functions instead of `std`'s hasher, so the values
//! are identical across processes and Rust versions. Words fold as
//! their little-endian bytes.
//!
//! [`DeviceSpec`]: crate::DeviceSpec

/// The standard 64-bit FNV offset basis every fold starts from.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Fold `bytes` into `h`, one byte at a time.
#[inline]
pub fn fnv1a_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Fold the little-endian bytes of `w` into `h`.
#[inline]
pub fn fnv1a_word(h: &mut u64, w: u64) {
    fnv1a_bytes(h, &w.to_le_bytes());
}

/// FNV-1a of a byte string, seeded with [`FNV_OFFSET_BASIS`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    fnv1a_bytes(&mut h, bytes);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_word_folds_as_its_little_endian_bytes() {
        let (mut a, mut b) = (FNV_OFFSET_BASIS, FNV_OFFSET_BASIS);
        fnv1a_word(&mut a, 0x0102_0304_0506_0708);
        fnv1a_bytes(&mut b, &[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a, b);
    }
}
