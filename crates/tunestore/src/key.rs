//! Stable, versioned identity of one tuning problem.
//!
//! A [`TuneKey`] content-hashes everything that determines a tuning
//! result: the device-spec fingerprint, the full [`KernelSpec`], the
//! problem grid, the tuner kind with its parameters (β for the
//! model-based tuner, the annealing schedule for the stochastic one),
//! the measurement-noise seed, and a fingerprint of the searched
//! parameter space. Two runs with equal keys are bit-identical, so a
//! persisted best configuration can be served verbatim.
//!
//! The hash uses the same explicit FNV-1a fold ([`gpu_sim::fnv`]) as
//! [`inplane_core::PlanKey`] — not `std`'s hasher — so it is identical
//! across processes and Rust versions, and it folds in
//! [`SCHEMA_VERSION`] so any change to the key layout silently
//! invalidates every stale persisted record (the stored hash no longer
//! matches the recomputed one).
//!
//! A [`RequestIdentity`] is the in-process twin of the key: the same
//! input words, written by the same routines, kept verbatim and hashed
//! word-wise. It costs a fraction of the byte-serial FNV fold and
//! compares exactly, so the serving layer's hot-key cache is keyed by
//! it and builds the persistent key only below that cache.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use gpu_sim::{fnv1a, DeviceSpec, FnvWriter, GridDims, KeyWriter};
use inplane_core::{KernelSpec, LaunchConfig};
use stencil_autotune::{AnnealOptions, ParameterSpace};

/// Version of the key layout and record schema. Bump whenever a hashed
/// field is added, removed, or re-ordered: records persisted under any
/// other version are evicted at load.
pub const SCHEMA_VERSION: u64 = 1;

/// Which search strategy produced (or should produce) a result, with
/// the parameters that change its answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TunerKind {
    /// Exhaustive search over the whole space (§IV-C).
    Exhaustive,
    /// Model-based tuning (§VI) with its β cutoff, carried as `f64`
    /// bits so the key is exact.
    ModelBased {
        /// `beta_percent.to_bits()`.
        beta_bits: u64,
    },
    /// Simulated-annealing search with its schedule.
    Stochastic {
        /// Evaluation budget.
        evaluations: u64,
        /// `initial_temperature.to_bits()`.
        temperature_bits: u64,
        /// Restart stall limit.
        stall_limit: u64,
    },
}

impl TunerKind {
    /// The model-based tuner with cutoff `beta_percent`.
    pub fn model_based(beta_percent: f64) -> Self {
        TunerKind::ModelBased {
            beta_bits: beta_percent.to_bits(),
        }
    }

    /// The stochastic tuner under `opts`.
    pub fn stochastic(opts: &AnnealOptions) -> Self {
        TunerKind::Stochastic {
            evaluations: opts.evaluations as u64,
            temperature_bits: opts.initial_temperature.to_bits(),
            stall_limit: opts.stall_limit as u64,
        }
    }

    /// Serialized tag.
    pub fn label(&self) -> &'static str {
        match self {
            TunerKind::Exhaustive => "exhaustive",
            TunerKind::ModelBased { .. } => "model-based",
            TunerKind::Stochastic { .. } => "stochastic",
        }
    }

    /// The FNV-1a hash of [`Self::label`], the tuner's key word.
    fn label_word(&self) -> u64 {
        const EXHAUSTIVE: u64 = fnv1a(b"exhaustive");
        const MODEL_BASED: u64 = fnv1a(b"model-based");
        const STOCHASTIC: u64 = fnv1a(b"stochastic");
        match self {
            TunerKind::Exhaustive => EXHAUSTIVE,
            TunerKind::ModelBased { .. } => MODEL_BASED,
            TunerKind::Stochastic { .. } => STOCHASTIC,
        }
    }

    /// The three parameter words folded into the key hash (zero-padded).
    pub(crate) fn params(&self) -> [u64; 3] {
        match *self {
            TunerKind::Exhaustive => [0, 0, 0],
            TunerKind::ModelBased { beta_bits } => [beta_bits, 0, 0],
            TunerKind::Stochastic {
                evaluations,
                temperature_bits,
                stall_limit,
            } => [evaluations, temperature_bits, stall_limit],
        }
    }

    /// Rebuild from the serialized tag + parameter words.
    pub(crate) fn from_parts(label: &str, params: [u64; 3]) -> Option<Self> {
        match label {
            "exhaustive" => Some(TunerKind::Exhaustive),
            "model-based" => Some(TunerKind::ModelBased {
                beta_bits: params[0],
            }),
            "stochastic" => Some(TunerKind::Stochastic {
                evaluations: params[0],
                temperature_bits: params[1],
                stall_limit: params[2],
            }),
            _ => None,
        }
    }
}

/// Stable content-hash identity of one tuning problem.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneKey {
    /// Marketing name of the device (display / debugging only — the
    /// fingerprint is what the hash covers).
    pub device_name: String,
    /// [`DeviceSpec::fingerprint`] of the target device.
    pub device_fp: u64,
    /// The kernel being tuned.
    pub kernel: KernelSpec,
    /// Problem-grid dimensions.
    pub dims: GridDims,
    /// Search strategy + parameters.
    pub tuner: TunerKind,
    /// Measurement-noise seed of the run.
    pub seed: u64,
    /// [`ParameterSpace::fingerprint`] of the searched space.
    pub space_fp: u64,
    hash: u64,
}

impl TuneKey {
    /// Key for tuning `kernel` on `device` over `dims`, searching
    /// `space` with `tuner` under noise seed `seed`.
    pub fn new(
        device: &DeviceSpec,
        kernel: &KernelSpec,
        dims: GridDims,
        space: &ParameterSpace,
        tuner: TunerKind,
        seed: u64,
    ) -> Self {
        Self::from_parts(
            device.name.to_string(),
            device.fingerprint(),
            kernel.clone(),
            dims,
            tuner,
            seed,
            space.fingerprint(),
        )
    }

    /// Rebuild a key from already-extracted parts (what the record
    /// loader does); the hash is always recomputed, never trusted.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        device_name: String,
        device_fp: u64,
        kernel: KernelSpec,
        dims: GridDims,
        tuner: TunerKind,
        seed: u64,
        space_fp: u64,
    ) -> Self {
        let hash = stable_hash_of(device_fp, &kernel, dims, tuner, seed, space_fp);
        TuneKey {
            device_name,
            device_fp,
            kernel,
            dims,
            tuner,
            seed,
            space_fp,
            hash,
        }
    }

    /// The precomputed process-stable 64-bit hash of this key.
    #[inline]
    pub fn stable_hash(&self) -> u64 {
        self.hash
    }

    /// Hash of the kernel identity alone (every [`KernelSpec`] field,
    /// no device/grid/tuner) — what warm-starting matches on: "the same
    /// kernel, tuned anywhere else".
    pub fn kernel_identity(&self) -> u64 {
        let mut w = FnvWriter::new();
        write_kernel(&mut w, &self.kernel);
        w.finish()
    }

    /// True when `other` is the same kernel tuned in a different
    /// setting (device and/or grid) — a warm-start donor.
    pub fn is_sibling_of(&self, other: &TuneKey) -> bool {
        self.kernel_identity() == other.kernel_identity()
            && (self.device_fp != other.device_fp || self.dims != other.dims)
    }
}

/// The [`TuneKey::stable_hash`] of a key with these parts, without
/// building the key.
pub(crate) fn stable_hash_of(
    device_fp: u64,
    kernel: &KernelSpec,
    dims: GridDims,
    tuner: TunerKind,
    seed: u64,
    space_fp: u64,
) -> u64 {
    let mut w = FnvWriter::new();
    w.word(SCHEMA_VERSION);
    w.word(device_fp);
    write_problem(&mut w, kernel, dims, tuner, seed, space_fp);
    w.finish()
}

/// Every [`KernelSpec`] field, in key order.
fn write_kernel<W: KeyWriter>(w: &mut W, kernel: &KernelSpec) {
    w.bytes(kernel.name.as_bytes());
    w.words(&[
        // The stable method id; pinned by
        // `legacy_tune_key_hashes_are_pinned`.
        kernel.method.id(),
        kernel.radius as u64,
        kernel.elem_bytes as u64,
        kernel.flops_per_point as u64,
        kernel.streamed_inputs as u64,
        kernel.coeff_inputs as u64,
        kernel.outputs as u64,
    ]);
}

/// The key's inputs after the device: kernel, grid, tuner, seed and
/// space fingerprint.
fn write_problem<W: KeyWriter>(
    w: &mut W,
    kernel: &KernelSpec,
    dims: GridDims,
    tuner: TunerKind,
    seed: u64,
    space_fp: u64,
) {
    write_kernel(w, kernel);
    let params = tuner.params();
    w.words(&[
        dims.lx as u64,
        dims.ly as u64,
        dims.lz as u64,
        tuner.label_word(),
        params[0],
        params[1],
        params[2],
        seed,
        space_fp,
    ]);
}

/// The exact in-process identity of one tuning problem: the words a
/// [`TuneKey`] hashes, with the device's fingerprint *inputs* in place
/// of its fingerprint (the legacy-elided geometry words included).
///
/// Equal identities have equal stable keys. Equality compares every
/// word (floats by bit pattern, so `0.0` and `-0.0` differ, as they do
/// in the stable key); the word-wise hash only picks the bucket. Not
/// stable across processes or versions: never persist it.
#[derive(Clone, Debug)]
pub struct RequestIdentity {
    hash: u64,
    words: Vec<u64>,
}

impl RequestIdentity {
    /// The identity of tuning `kernel` on `device` over `dims` with
    /// `tuner` under `seed`, searching the space fingerprinted
    /// `space_fp`.
    pub fn new(
        device: &DeviceSpec,
        kernel: &KernelSpec,
        dims: GridDims,
        tuner: TunerKind,
        seed: u64,
        space_fp: u64,
    ) -> Self {
        let mut w = IdentityWriter(Vec::with_capacity(64));
        device.write_key_inputs(&mut w);
        write_problem(&mut w, kernel, dims, tuner, seed, space_fp);
        let words = w.0;
        RequestIdentity {
            hash: mix_words(&words),
            words,
        }
    }

    /// The in-process hash of the identity's words.
    #[inline]
    pub fn fast_hash(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for RequestIdentity {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.words == other.words
    }
}

impl Eq for RequestIdentity {}

impl Hash for RequestIdentity {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Records key words verbatim. A byte string becomes its length and
/// then its bytes packed eight to a word, so the stream stays
/// unambiguous; elidable words are always written.
struct IdentityWriter(Vec<u64>);

impl KeyWriter for IdentityWriter {
    fn bytes(&mut self, bytes: &[u8]) {
        self.0.push(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0.push(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0.push(w);
    }

    #[inline]
    fn words(&mut self, words: &[u64]) {
        self.0.extend_from_slice(words);
    }

    #[inline]
    fn elidable_word(&mut self, _tag: u64, value: u64, _legacy: u64) {
        self.0.push(value);
    }
}

/// A multiply-rotate fold over whole words with a final avalanche, so
/// every output bit depends on every word (hash tables index by both
/// the low and the high bits). Four interleaved lanes keep the
/// multiplies independent of each other.
fn mix_words(words: &[u64]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut lanes = [words.len() as u64, 1, 2, 3];
    let mut quads = words.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &w) in lanes.iter_mut().zip(quad) {
            *lane = step(*lane, w);
        }
    }
    for (lane, &w) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = step(*lane, w);
    }
    let [a, b, c, d] = lanes;
    let mut h = step(step(step(a, b), c), d);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// For each slot, the first slot holding an equal identity — how a
/// batch collapses its duplicates before resolving.
pub fn first_occurrences(ids: &[RequestIdentity]) -> Vec<usize> {
    let mut first: HashMap<&RequestIdentity, usize> = HashMap::with_capacity(ids.len());
    ids.iter()
        .enumerate()
        .map(|(i, id)| *first.entry(id).or_insert(i))
        .collect()
}

impl std::hash::Hash for TuneKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The best configuration a key resolved to: the part of a record a
/// store hit serves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BestConfig {
    /// The winning launch configuration.
    pub config: LaunchConfig,
    /// Its measured throughput, MPoint/s.
    pub mpoints: f64,
    /// Configurations the producing search executed.
    pub evaluated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn kernel(order: usize) -> KernelSpec {
        KernelSpec::star_order(
            Method::InPlane(Variant::FullSlice),
            order,
            Precision::Single,
        )
    }

    fn space(dev: &DeviceSpec, k: &KernelSpec, dims: &GridDims) -> ParameterSpace {
        ParameterSpace::quick_space(dev, k, dims)
    }

    #[test]
    fn keys_distinguish_every_field() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 64);
        let k = kernel(4);
        let s = space(&dev, &k, &dims);
        let base = TuneKey::new(&dev, &k, dims, &s, TunerKind::Exhaustive, 1);
        let variants = [
            TuneKey::new(
                &DeviceSpec::gtx680(),
                &k,
                dims,
                &s,
                TunerKind::Exhaustive,
                1,
            ),
            TuneKey::new(&dev, &kernel(8), dims, &s, TunerKind::Exhaustive, 1),
            TuneKey::new(
                &dev,
                &k,
                GridDims::new(256, 256, 32),
                &s,
                TunerKind::Exhaustive,
                1,
            ),
            TuneKey::new(&dev, &k, dims, &s, TunerKind::model_based(5.0), 1),
            TuneKey::new(&dev, &k, dims, &s, TunerKind::model_based(10.0), 1),
            TuneKey::new(
                &dev,
                &k,
                dims,
                &s,
                TunerKind::stochastic(&AnnealOptions::default()),
                1,
            ),
            TuneKey::new(&dev, &k, dims, &s, TunerKind::Exhaustive, 2),
            TuneKey::new(
                &dev,
                &k,
                dims,
                &ParameterSpace::from_configs(vec![LaunchConfig::new(32, 4, 1, 1)]),
                TunerKind::Exhaustive,
                1,
            ),
        ];
        for other in &variants {
            assert_ne!(base.stable_hash(), other.stable_hash());
        }
        let again = TuneKey::new(&dev, &k, dims, &s, TunerKind::Exhaustive, 1);
        assert_eq!(base, again);
        assert_eq!(base.stable_hash(), again.stable_hash());
    }

    #[test]
    fn siblings_share_kernel_but_not_setting() {
        let dims = GridDims::new(256, 256, 64);
        let k = kernel(4);
        let d580 = DeviceSpec::gtx580();
        let d680 = DeviceSpec::gtx680();
        let a = TuneKey::new(
            &d580,
            &k,
            dims,
            &space(&d580, &k, &dims),
            TunerKind::Exhaustive,
            1,
        );
        let b = TuneKey::new(
            &d680,
            &k,
            dims,
            &space(&d680, &k, &dims),
            TunerKind::Exhaustive,
            1,
        );
        let c = TuneKey::new(
            &d580,
            &kernel(8),
            dims,
            &space(&d580, &kernel(8), &dims),
            TunerKind::Exhaustive,
            1,
        );
        assert!(a.is_sibling_of(&b));
        assert!(b.is_sibling_of(&a));
        assert!(!a.is_sibling_of(&a), "a key is not its own sibling");
        assert!(!a.is_sibling_of(&c), "different kernels never match");
    }

    /// The Routine migration must not invalidate persisted tunes: the
    /// hashed method word is now the registry id, and these literals
    /// were captured from the pre-migration `match`-based `method_code`.
    /// If any of them drifts, every stored record for that method would
    /// silently miss on lookup.
    #[test]
    fn legacy_tune_key_hashes_are_pinned() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let space = ParameterSpace::from_configs(vec![LaunchConfig::new(64, 4, 1, 2)]);
        let pinned: [(Method, u64); 5] = [
            (Method::ForwardPlane, 0x456f_e7ca_a144_71f9),
            (Method::InPlane(Variant::Classical), 0x22b4_76e6_cdb6_1528),
            (Method::InPlane(Variant::Vertical), 0xf901_f135_62e6_20c8),
            (Method::InPlane(Variant::Horizontal), 0x596d_081d_1a4f_4f17),
            (Method::InPlane(Variant::FullSlice), 0xcbad_48b1_efa6_6c6e),
        ];
        for (m, want) in pinned {
            let k = KernelSpec::star_order(m, 4, Precision::Single);
            let key = TuneKey::new(&dev, &k, dims, &space, TunerKind::Exhaustive, 42);
            assert_eq!(
                key.stable_hash(),
                want,
                "{} no longer hashes to its pre-Routine value",
                m.label()
            );
        }
    }

    /// The device-model parameterization (`coalesce_segment_bytes`,
    /// `smem_bank_bytes`, the wave64/Ampere presets) must not perturb
    /// the NVIDIA fingerprints that persisted tune keys embed: the new
    /// fields are elided from `DeviceSpec::fingerprint` at their legacy
    /// defaults, so every stored optimum stays warm. These fingerprints
    /// were captured before the fields existed; the pinned key hashes
    /// above depend on them transitively.
    #[test]
    fn nvidia_fingerprints_survive_device_model_extension() {
        assert_eq!(DeviceSpec::gtx580().fingerprint(), 0xb918_beb1_e8a8_43bc);
        assert_eq!(DeviceSpec::gtx680().fingerprint(), 0xb20e_b1aa_2c5a_778e);
        assert_eq!(DeviceSpec::c2070().fingerprint(), 0x1972_ea53_7613_347e);

        // And keys built on them hash identically whether or not the
        // new fields sit at their defaults explicitly.
        let mut dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let space = ParameterSpace::from_configs(vec![LaunchConfig::new(64, 4, 1, 2)]);
        let k = KernelSpec::star_order(Method::ForwardPlane, 4, Precision::Single);
        let key = TuneKey::new(&dev, &k, dims, &space, TunerKind::Exhaustive, 42);
        dev.coalesce_segment_bytes = gpu_sim::LEGACY_COALESCE_SEGMENT_BYTES;
        dev.smem_bank_bytes = gpu_sim::LEGACY_SMEM_BANK_BYTES;
        let again = TuneKey::new(&dev, &k, dims, &space, TunerKind::Exhaustive, 42);
        assert_eq!(key.stable_hash(), again.stable_hash());

        // A genuinely different geometry (the wave64 preset) must key
        // a different store slot.
        let amd = TuneKey::new(
            &DeviceSpec::hd7970(),
            &k,
            dims,
            &space,
            TunerKind::Exhaustive,
            42,
        );
        assert_ne!(key.stable_hash(), amd.stable_hash());
    }

    #[test]
    fn tuner_kind_round_trips() {
        for t in [
            TunerKind::Exhaustive,
            TunerKind::model_based(5.0),
            TunerKind::stochastic(&AnnealOptions::default()),
        ] {
            assert_eq!(TunerKind::from_parts(t.label(), t.params()), Some(t));
        }
        assert_eq!(TunerKind::from_parts("oracle", [0, 0, 0]), None);
    }
}
