//! FNV-1a: the one process-stable hash fold of the workspace.
//!
//! Every persisted or cross-process identity — [`DeviceSpec`]
//! fingerprints, `PlanKey` and `TuneKey` hashes, search-space
//! fingerprints, the tune store's record checksums — folds its fields
//! through these functions instead of `std`'s hasher, so the values
//! are identical across processes and Rust versions. Words fold as
//! their little-endian bytes.
//!
//! An identity that is hashed here writes its fields through a
//! [`KeyWriter`] rather than into the fold directly. [`FnvWriter`] is
//! the persistent fold; an in-process identity (the serving layer's
//! LRU key) implements the same trait over the same writes, so a field
//! added to a key reaches both at once.
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

/// FNV-1a of a byte string, seeded with [`FNV_OFFSET_BASIS`]. A
/// `const fn`, so fixed tags hash at compile time.
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// The input words of a key, written in a fixed order. One `write_*`
/// routine per key type drives any writer, so every consumer of the
/// key sees exactly the same inputs.
pub trait KeyWriter {
    /// A variable-length byte string (a name).
    fn bytes(&mut self, bytes: &[u8]);
    /// One fixed-width word; floats are written as their bit patterns.
    fn word(&mut self, w: u64);
    /// Fixed-width words in order, as if written one by one.
    fn words(&mut self, words: &[u64]) {
        for &w in words {
            self.word(w);
        }
    }
    /// A word that legacy persistent hashes elide at its `legacy`
    /// value: [`FnvWriter`] folds `tag, value` only when they differ,
    /// so hashes pinned before the field existed stay valid. A writer
    /// of exact identity writes `value` unconditionally.
    fn elidable_word(&mut self, tag: u64, value: u64, legacy: u64);
}

/// The persistent FNV-1a fold as a [`KeyWriter`].
#[derive(Clone, Copy, Debug)]
pub struct FnvWriter(u64);

impl FnvWriter {
    /// A fold at [`FNV_OFFSET_BASIS`].
    pub fn new() -> Self {
        FnvWriter(FNV_OFFSET_BASIS)
    }

    /// The folded hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for FnvWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyWriter for FnvWriter {
    #[inline]
    fn bytes(&mut self, bytes: &[u8]) {
        fnv1a_bytes(&mut self.0, bytes);
    }

    #[inline]
    fn word(&mut self, w: u64) {
        fnv1a_word(&mut self.0, w);
    }

    #[inline]
    fn elidable_word(&mut self, tag: u64, value: u64, legacy: u64) {
        if value != legacy {
            self.word(tag);
            self.word(value);
        }
    }
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

    #[test]
    fn the_writer_folds_like_the_functions() {
        let mut w = FnvWriter::new();
        w.bytes(b"foo");
        w.word(7);
        w.elidable_word(1, 128, 128);
        w.elidable_word(2, 64, 128);
        let mut h = FNV_OFFSET_BASIS;
        fnv1a_bytes(&mut h, b"foo");
        for word in [7, 2, 64] {
            fnv1a_word(&mut h, word);
        }
        assert_eq!(w.finish(), h);
        const FOOBAR: u64 = fnv1a(b"foobar");
        assert_eq!(FOOBAR, 0x8594_4171_f739_67e8);
    }
}
