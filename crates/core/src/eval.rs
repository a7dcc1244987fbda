//! The memoizing evaluation context: one shared front door for the
//! plan → price → noise pipeline.
//!
//! Every consumer of the simulator — the four tuners, the application
//! suite, the temporal and multi-GPU studies, the figure benchmarks —
//! ultimately performs the same three steps:
//!
//! 1. **plan**: lower `(device, kernel, config, dims)` to a
//!    [`BlockPlan`] (pure, via [`build_block_plan`]),
//! 2. **price**: run the clean timing engine over that plan
//!    ([`gpu_sim::simulate_clean`], pure and deterministic),
//! 3. **noise**: optionally perturb the priced time by the seeded
//!    measurement-noise hash ([`gpu_sim::apply_noise`]).
//!
//! Steps 1 and 2 are pure functions of hashable inputs, so an
//! [`EvalContext`] memoizes both behind a sharded concurrent cache:
//! plans keyed by [`PlanKey`], clean reports keyed by
//! `(PlanKey, SimOptions::pricing_fingerprint)`. Step 3 stays outside
//! the cache — it is a cheap hash applied per `(key, seed)` after the
//! cached report is fetched — which is what lets one cache serve both
//! "model" evaluations (no noise) and "measurements" (±2% jitter)
//! without ever storing a noisy number.
//!
//! The cache is std-only (`RwLock<HashMap>` shards plus atomic
//! counters) and safe to share across rayon workers; batch entry
//! points fan out internally. A fixed seed therefore yields
//! bit-identical results whether the cache is cold, warm, shared
//! between tuners, or hit from any number of threads in any order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use gpu_sim::plan::{BlockPlan, GridDims};
use gpu_sim::{
    apply_noise, fnv1a_bytes, fnv1a_word, simulate_clean, DeviceSpec, NoiseKey, SimOptions,
    SimReport, FNV_OFFSET_BASIS,
};
use rayon::prelude::*;

use crate::config::LaunchConfig;
use crate::kernel::KernelSpec;
use crate::simulate::build_block_plan;

/// Amplitude of the simulated run-to-run measurement jitter (±2%, the
/// order real CUDA wall-clock timing shows).
pub const MEASUREMENT_NOISE_AMPLITUDE: f64 = 0.02;

/// Number of cache shards. A power of two so the shard index is a bit
/// mask of the key hash; 16 keeps write contention negligible at the
/// parallelism of the tuning sweeps.
const N_SHARDS: usize = 16;

/// Hashable identity of one lowering: everything [`build_block_plan`]
/// reads, plus a `salt` that namespaces externally-built plans (the
/// temporal study salts with its time-block depth so a time-blocked
/// plan never aliases the plain spatial plan of the same launch).
///
/// The 64-bit [`stable_hash`](PlanKey::stable_hash) is computed once at
/// construction with the workspace's FNV-1a fold ([`gpu_sim::fnv`])
/// over the fields — not `std`'s hasher — so it is identical across
/// processes and Rust versions; the measurement-noise stream derives
/// from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanKey {
    /// [`DeviceSpec::fingerprint`] of the target device.
    pub device_id: u64,
    /// The kernel being lowered.
    pub kernel: KernelSpec,
    /// The launch configuration `(TX, TY, RX, RY)`.
    pub config: LaunchConfig,
    /// Problem-grid dimensions.
    pub dims: GridDims,
    /// Namespace for externally-built plans (0 = the standard lowering).
    pub salt: u64,
    hash: u64,
}

impl PlanKey {
    /// Key for the standard lowering of `(kernel, config)` on `device`.
    pub fn new(
        device: &DeviceSpec,
        kernel: &KernelSpec,
        config: &LaunchConfig,
        dims: GridDims,
    ) -> Self {
        Self::with_salt(device, kernel, config, dims, 0)
    }

    /// Key in the namespace `salt` — for callers that lower plans
    /// themselves (e.g. temporal blocking) and must not collide with
    /// the standard lowering.
    pub fn with_salt(
        device: &DeviceSpec,
        kernel: &KernelSpec,
        config: &LaunchConfig,
        dims: GridDims,
        salt: u64,
    ) -> Self {
        let device_id = device.fingerprint();
        let mut h = FNV_OFFSET_BASIS;
        fnv1a_word(&mut h, device_id);
        fnv1a_bytes(&mut h, kernel.name.as_bytes());
        for w in [
            // The stable method id (ids 0–4 are the original method
            // codes, so cached hashes are stable).
            kernel.method.id(),
            kernel.radius as u64,
            kernel.elem_bytes as u64,
            kernel.flops_per_point as u64,
            kernel.streamed_inputs as u64,
            kernel.coeff_inputs as u64,
            kernel.outputs as u64,
            config.tx as u64,
            config.ty as u64,
            config.rx as u64,
            config.ry as u64,
            dims.lx as u64,
            dims.ly as u64,
            dims.lz as u64,
            salt,
        ] {
            fnv1a_word(&mut h, w);
        }
        PlanKey {
            device_id,
            kernel: kernel.clone(),
            config: *config,
            dims,
            salt,
            hash: h,
        }
    }

    /// The precomputed process-stable 64-bit hash of this key.
    #[inline]
    pub fn stable_hash(&self) -> u64 {
        self.hash
    }

    /// The measurement-noise key for this evaluation point — distinct
    /// configurations de-correlate because the hash covers every field.
    #[inline]
    pub fn noise_key(&self) -> NoiseKey {
        NoiseKey(self.hash)
    }
}

impl std::hash::Hash for PlanKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Snapshot of an [`EvalContext`]'s cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Evaluations served from the report cache.
    pub hits: u64,
    /// Evaluations that had to price a plan.
    pub misses: u64,
    /// Reports inserted (≤ misses: concurrent misses on one key insert
    /// once).
    pub inserts: u64,
}

impl CacheStats {
    /// Fraction of evaluations served from cache (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct Shard {
    plans: HashMap<PlanKey, Arc<BlockPlan>>,
    /// Clean reports per key, one per pricing fingerprint (the inner
    /// list is almost always length 1 — only the ablation study prices
    /// the same key under several option sets).
    reports: HashMap<PlanKey, Vec<(u64, SimReport)>>,
}

/// Sharded memoizing front end over the plan → price → noise pipeline.
///
/// See the [module docs](self) for the layering. Construct one per
/// scope you want isolated (benchmarks construct fresh ones to measure
/// cold-cache behaviour), or use [`EvalContext::global`] — the
/// process-wide context every default-entry-point evaluation routes
/// through, which is what lets independent tuners reuse each other's
/// work within one process.
pub struct EvalContext {
    shards: Vec<RwLock<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl Default for EvalContext {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalContext {
    /// An empty context.
    pub fn new() -> Self {
        EvalContext {
            shards: (0..N_SHARDS)
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// The process-wide shared context.
    pub fn global() -> &'static EvalContext {
        static GLOBAL: OnceLock<EvalContext> = OnceLock::new();
        GLOBAL.get_or_init(EvalContext::new)
    }

    fn shard_of(&self, key: &PlanKey) -> &RwLock<Shard> {
        &self.shards[(key.stable_hash() >> 60) as usize & (N_SHARDS - 1)]
    }

    /// Layer 1 — the memoized lowering for the standard pipeline.
    pub fn plan(
        &self,
        device: &DeviceSpec,
        kernel: &KernelSpec,
        config: &LaunchConfig,
        dims: GridDims,
    ) -> Arc<BlockPlan> {
        let key = PlanKey::new(device, kernel, config, dims);
        self.plan_with(&key, || build_block_plan(device, kernel, config, dims))
    }

    /// Layer 1 for externally-lowered plans: return the cached plan for
    /// `key`, building it with `build` on first use. `build` must be a
    /// pure function of `key` — the cache assumes one key ↔ one plan.
    pub fn plan_with(&self, key: &PlanKey, build: impl FnOnce() -> BlockPlan) -> Arc<BlockPlan> {
        let shard = self.shard_of(key);
        if let Some(plan) = shard.read().expect("eval cache poisoned").plans.get(key) {
            return Arc::clone(plan);
        }
        // Build outside the lock: concurrent first misses may lower the
        // same key twice, but the function is pure so either wins.
        let built = Arc::new(build());
        let mut guard = shard.write().expect("eval cache poisoned");
        Arc::clone(guard.plans.entry(key.clone()).or_insert(built))
    }

    /// Layers 1+2 for externally-lowered plans: the memoized clean
    /// price of `key`'s plan under `opts` (noise fields ignored).
    pub fn price_with(
        &self,
        device: &DeviceSpec,
        key: &PlanKey,
        dims: GridDims,
        opts: &SimOptions,
        build: impl FnOnce() -> BlockPlan,
    ) -> SimReport {
        debug_assert_eq!(
            key.device_id,
            device.fingerprint(),
            "PlanKey was built for a different device"
        );
        let fp = opts.pricing_fingerprint();
        let shard = self.shard_of(key);
        let cached = shard
            .read()
            .expect("eval cache poisoned")
            .reports
            .get(key)
            .and_then(|reports| reports.iter().find(|(f, _)| *f == fp))
            .map(|(_, report)| report.clone());
        if let Some(report) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return report;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = self.plan_with(key, build);
        let report = simulate_clean(device, &plan, &dims, opts);
        let mut guard = shard.write().expect("eval cache poisoned");
        let slot = guard.reports.entry(key.clone()).or_default();
        if !slot.iter().any(|(f, _)| *f == fp) {
            slot.push((fp, report.clone()));
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
        report
    }

    /// Layer 2 — the memoized clean price of `(kernel, config)` on
    /// `device` under explicit options.
    pub fn evaluate_with(
        &self,
        device: &DeviceSpec,
        kernel: &KernelSpec,
        config: &LaunchConfig,
        dims: GridDims,
        opts: &SimOptions,
    ) -> SimReport {
        let key = PlanKey::new(device, kernel, config, dims);
        self.price_with(device, &key, dims, opts, || {
            build_block_plan(device, kernel, config, dims)
        })
    }

    /// Layer 2 under default options — the model's view of a launch.
    pub fn evaluate(
        &self,
        device: &DeviceSpec,
        kernel: &KernelSpec,
        config: &LaunchConfig,
        dims: GridDims,
    ) -> SimReport {
        self.evaluate_with(device, kernel, config, dims, &SimOptions::default())
    }

    /// Layer 3 — a "measurement": the cached clean price perturbed by
    /// the deterministic ±2% noise for `(key, seed)`. Only the noise
    /// multiply runs per call; the expensive part is shared through the
    /// cache.
    pub fn measure(
        &self,
        device: &DeviceSpec,
        kernel: &KernelSpec,
        config: &LaunchConfig,
        dims: GridDims,
        seed: u64,
    ) -> SimReport {
        let key = PlanKey::new(device, kernel, config, dims);
        let mut report = self.price_with(device, &key, dims, &SimOptions::default(), || {
            build_block_plan(device, kernel, config, dims)
        });
        apply_noise(
            &mut report,
            key.noise_key(),
            seed,
            MEASUREMENT_NOISE_AMPLITUDE,
        );
        report
    }

    /// Batch of clean evaluations, fanned out over rayon. Output order
    /// matches `configs`; results are independent of worker count.
    pub fn evaluate_batch(
        &self,
        device: &DeviceSpec,
        kernel: &KernelSpec,
        configs: &[LaunchConfig],
        dims: GridDims,
    ) -> Vec<SimReport> {
        configs
            .par_iter()
            .map(|config| self.evaluate(device, kernel, config, dims))
            .collect()
    }

    /// Batch of noisy measurements, fanned out over rayon. Output order
    /// matches `configs`; results are independent of worker count.
    pub fn measure_batch(
        &self,
        device: &DeviceSpec,
        kernel: &KernelSpec,
        configs: &[LaunchConfig],
        dims: GridDims,
        seed: u64,
    ) -> Vec<SimReport> {
        configs
            .par_iter()
            .map(|config| self.measure(device, kernel, config, dims, seed))
            .collect()
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }

    /// Cached plans + reports across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.read().expect("eval cache poisoned");
                shard.plans.len() + shard.reports.values().map(Vec::len).sum::<usize>()
            })
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan and report and zero the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = shard.write().expect("eval cache poisoned");
            guard.plans.clear();
            guard.reports.clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.inserts.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{Method, Variant};
    use crate::simulate::simulate_kernel;
    use stencil_grid::Precision;

    fn spec(order: usize) -> KernelSpec {
        KernelSpec::star_order(
            Method::InPlane(Variant::FullSlice),
            order,
            Precision::Single,
        )
    }

    fn cfg() -> LaunchConfig {
        LaunchConfig::new(32, 8, 1, 1)
    }

    #[test]
    fn plan_keys_distinguish_every_field() {
        let dev = gpu_sim::DeviceSpec::gtx580();
        let base = PlanKey::new(&dev, &spec(2), &cfg(), GridDims::paper());
        let other_dev = PlanKey::new(
            &gpu_sim::DeviceSpec::gtx680(),
            &spec(2),
            &cfg(),
            GridDims::paper(),
        );
        let other_kernel = PlanKey::new(&dev, &spec(4), &cfg(), GridDims::paper());
        let other_cfg = PlanKey::new(
            &dev,
            &spec(2),
            &LaunchConfig::new(64, 8, 1, 1),
            GridDims::paper(),
        );
        let other_dims = PlanKey::new(&dev, &spec(2), &cfg(), GridDims::new(256, 256, 128));
        let salted = PlanKey::with_salt(&dev, &spec(2), &cfg(), GridDims::paper(), 3);
        for other in [&other_dev, &other_kernel, &other_cfg, &other_dims, &salted] {
            assert_ne!(&base, other);
            assert_ne!(base.stable_hash(), other.stable_hash());
        }
        let again = PlanKey::new(&dev, &spec(2), &cfg(), GridDims::paper());
        assert_eq!(base, again);
        assert_eq!(base.stable_hash(), again.stable_hash());
    }

    #[test]
    fn cached_evaluation_is_bit_identical_to_uncached() {
        let ctx = EvalContext::new();
        let dev = gpu_sim::DeviceSpec::gtx580();
        let direct = simulate_kernel(
            &dev,
            &spec(4),
            &cfg(),
            GridDims::paper(),
            &SimOptions::default(),
        );
        let cold = ctx.evaluate(&dev, &spec(4), &cfg(), GridDims::paper());
        let warm = ctx.evaluate(&dev, &spec(4), &cfg(), GridDims::paper());
        assert_eq!(direct.time_s.to_bits(), cold.time_s.to_bits());
        assert_eq!(cold, warm);
        let stats = ctx.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
    }

    #[test]
    fn measurements_share_the_clean_cache_across_seeds() {
        let ctx = EvalContext::new();
        let dev = gpu_sim::DeviceSpec::gtx680();
        let a = ctx.measure(&dev, &spec(2), &cfg(), GridDims::paper(), 7);
        let b = ctx.measure(&dev, &spec(2), &cfg(), GridDims::paper(), 7);
        let c = ctx.measure(&dev, &spec(2), &cfg(), GridDims::paper(), 8);
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        assert_ne!(a.time_s.to_bits(), c.time_s.to_bits());
        // One pricing, three cache interactions.
        let stats = ctx.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        let clean = ctx.evaluate(&dev, &spec(2), &cfg(), GridDims::paper());
        assert!((a.time_s / clean.time_s - 1.0).abs() <= MEASUREMENT_NOISE_AMPLITUDE + 1e-9);
    }

    #[test]
    fn pricing_fingerprints_do_not_collide_in_cache() {
        let ctx = EvalContext::new();
        let dev = gpu_sim::DeviceSpec::gtx580();
        let default_opts = SimOptions::default();
        let slow = SimOptions {
            barrier_cycles: 512.0,
            ..SimOptions::default()
        };
        let a = ctx.evaluate_with(&dev, &spec(4), &cfg(), GridDims::paper(), &default_opts);
        let b = ctx.evaluate_with(&dev, &spec(4), &cfg(), GridDims::paper(), &slow);
        assert!(
            b.time_s > a.time_s,
            "heavier barriers must not be served from the default-opts cache"
        );
        // Same plan, two priced entries.
        let stats = ctx.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.inserts, 2);
    }

    #[test]
    fn batch_matches_sequential_and_preserves_order() {
        let ctx = EvalContext::new();
        let dev = gpu_sim::DeviceSpec::gtx580();
        let configs: Vec<LaunchConfig> = [(32, 8), (64, 4), (64, 8), (128, 2), (16, 16)]
            .iter()
            .map(|&(tx, ty)| LaunchConfig::new(tx, ty, 1, 1))
            .collect();
        let batch = ctx.measure_batch(&dev, &spec(2), &configs, GridDims::paper(), 5);
        let fresh = EvalContext::new();
        for (config, from_batch) in configs.iter().zip(&batch) {
            let solo = fresh.measure(&dev, &spec(2), config, GridDims::paper(), 5);
            assert_eq!(solo.time_s.to_bits(), from_batch.time_s.to_bits());
        }
    }

    #[test]
    fn clear_resets_everything() {
        let ctx = EvalContext::new();
        let dev = gpu_sim::DeviceSpec::gtx580();
        ctx.evaluate(&dev, &spec(2), &cfg(), GridDims::paper());
        assert!(!ctx.is_empty());
        ctx.clear();
        assert!(ctx.is_empty());
        assert_eq!(ctx.stats(), CacheStats::default());
    }
}
