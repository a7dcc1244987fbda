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

use gpu_sim::{fnv1a, fnv1a_bytes, fnv1a_word, DeviceSpec, GridDims, FNV_OFFSET_BASIS};
use inplane_core::{KernelSpec, LaunchConfig, Method};
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

/// Parse a [`Method`] back from its `label()` rendering by consulting
/// the routine registry — new routines are parseable the day they are
/// registered, with no table to maintain here.
pub fn method_from_label(label: &str) -> Option<Method> {
    inplane_core::routine_by_label(label).map(|rt| rt.method())
}

/// The stable routine id is the hashed method word. Ids are pinned by
/// the registry (and by the `legacy_tune_key_hashes_are_pinned` test),
/// so persisted keys survive the Routine migration byte-for-byte.
fn method_code(method: Method) -> u64 {
    method.routine().id()
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
        let mut h = FNV_OFFSET_BASIS;
        fnv1a_word(&mut h, SCHEMA_VERSION);
        fnv1a_word(&mut h, device_fp);
        fnv1a_bytes(&mut h, kernel.name.as_bytes());
        let params = tuner.params();
        for w in [
            method_code(kernel.method),
            kernel.radius as u64,
            kernel.elem_bytes as u64,
            kernel.flops_per_point as u64,
            kernel.streamed_inputs as u64,
            kernel.coeff_inputs as u64,
            kernel.outputs as u64,
            dims.lx as u64,
            dims.ly as u64,
            dims.lz as u64,
            fnv1a(tuner.label().as_bytes()),
            params[0],
            params[1],
            params[2],
            seed,
            space_fp,
        ] {
            fnv1a_word(&mut h, w);
        }
        TuneKey {
            device_name,
            device_fp,
            kernel,
            dims,
            tuner,
            seed,
            space_fp,
            hash: h,
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
        let mut h = FNV_OFFSET_BASIS;
        fnv1a_bytes(&mut h, self.kernel.name.as_bytes());
        for w in [
            method_code(self.kernel.method),
            self.kernel.radius as u64,
            self.kernel.elem_bytes as u64,
            self.kernel.flops_per_point as u64,
            self.kernel.streamed_inputs as u64,
            self.kernel.coeff_inputs as u64,
            self.kernel.outputs as u64,
        ] {
            fnv1a_word(&mut h, w);
        }
        h
    }

    /// True when `other` is the same kernel tuned in a different
    /// setting (device and/or grid) — a warm-start donor.
    pub fn is_sibling_of(&self, other: &TuneKey) -> bool {
        self.kernel_identity() == other.kernel_identity()
            && (self.device_fp != other.device_fp || self.dims != other.dims)
    }
}

impl std::hash::Hash for TuneKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The best configuration a key resolved to (what gets persisted).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BestConfig {
    /// The winning launch configuration.
    pub config: LaunchConfig,
    /// Its measured throughput, MPoint/s.
    pub mpoints: f64,
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

    #[test]
    fn method_labels_round_trip() {
        for m in [
            Method::ForwardPlane,
            Method::InPlane(Variant::Classical),
            Method::InPlane(Variant::Vertical),
            Method::InPlane(Variant::Horizontal),
            Method::InPlane(Variant::FullSlice),
            Method::InPlane(Variant::DoubleBuffered),
        ] {
            assert_eq!(method_from_label(&m.label()), Some(m));
        }
        assert_eq!(method_from_label("warp-drive"), None);
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
