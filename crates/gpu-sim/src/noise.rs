//! Deterministic measurement noise.
//!
//! Real auto-tuning measures wall-clock times that jitter run to run; the
//! paper's model-based tuner is judged against such measurements
//! (Fig 12). To reproduce that texture without sacrificing
//! reproducibility, the simulator can perturb its times by a small
//! multiplicative factor that is a *pure hash* of the experiment's
//! identifying string and a seed — the same configuration always
//! "measures" the same, but neighbouring configurations de-correlate.

use crate::fnv::{fnv1a_word, FNV_OFFSET_BASIS};

/// Multiplicative noise factor in `[1 - amplitude, 1 + amplitude]`,
/// deterministic in `(key, seed)`.
pub fn measurement_noise(key: &str, seed: u64, amplitude: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&amplitude),
        "amplitude must be in [0, 1)"
    );
    let mut h = seed ^ 0x51_7c_c1_b7_27_22_0a_95;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 32;
    let unit = (h as f64 / u64::MAX as f64) * 2.0 - 1.0; // [-1, 1]
    1.0 + unit * amplitude
}

/// Pre-hashed identity of one evaluation point — the allocation-free
/// replacement for the string keys of [`measurement_noise`]. Derived
/// from the evaluation's `PlanKey` (device, kernel, config, dims) so
/// distinct configurations de-correlate exactly as the string keys did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NoiseKey(pub u64);

impl NoiseKey {
    /// Fold a sequence of words into a key (FNV-style, order-sensitive).
    pub fn from_words(words: &[u64]) -> Self {
        let mut h = FNV_OFFSET_BASIS;
        for &w in words {
            fnv1a_word(&mut h, w);
            h ^= h >> 29;
        }
        NoiseKey(h)
    }
}

/// Multiplicative noise factor keyed by a pre-hashed [`NoiseKey`] — the
/// same texture as [`measurement_noise`] without the per-call string
/// allocation.
pub fn measurement_noise_keyed(key: NoiseKey, seed: u64, amplitude: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&amplitude),
        "amplitude must be in [0, 1)"
    );
    let mut h = key.0 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x51_7c_c1_b7_27_22_0a_95;
    h ^= h >> 33;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 32;
    let unit = (h as f64 / u64::MAX as f64) * 2.0 - 1.0; // [-1, 1]
    1.0 + unit * amplitude
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            measurement_noise("cfg-a", 1, 0.02),
            measurement_noise("cfg-a", 1, 0.02)
        );
    }

    #[test]
    fn varies_with_key_and_seed() {
        let a = measurement_noise("cfg-a", 1, 0.02);
        let b = measurement_noise("cfg-b", 1, 0.02);
        let c = measurement_noise("cfg-a", 2, 0.02);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bounded() {
        for i in 0..500 {
            let f = measurement_noise(&format!("k{i}"), 42, 0.05);
            assert!((0.95..=1.05).contains(&f), "noise {f} out of bounds");
        }
    }

    #[test]
    fn zero_amplitude_is_identity() {
        assert_eq!(measurement_noise("anything", 9, 0.0), 1.0);
    }

    #[test]
    fn spreads_across_range() {
        let vals: Vec<f64> = (0..200)
            .map(|i| measurement_noise(&format!("cfg{i}"), 7, 0.02))
            .collect();
        assert!(vals.iter().any(|&v| v > 1.01));
        assert!(vals.iter().any(|&v| v < 0.99));
    }

    #[test]
    #[should_panic]
    fn amplitude_must_be_sane() {
        measurement_noise("x", 0, 1.5);
    }
}
