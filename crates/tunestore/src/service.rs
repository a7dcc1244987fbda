//! The serving layer: batch tuning requests against a shared
//! [`EvalContext`], fronted by the persistent store and a single-flight
//! guard.
//!
//! Request resolution is layered:
//!
//! 1. **store** — an exact [`TuneKey`] hit is served verbatim
//!    ([`Provenance::Store`]); a second run of an identical sweep does
//!    no search work at all and returns bit-identical numbers;
//! 2. **single-flight** — concurrent identical requests collapse onto
//!    one worker: the first becomes the leader and computes, the rest
//!    block on a condvar and share the leader's response;
//! 3. **warm start** — a model-based request that misses looks for
//!    stored optima of the *same kernel* on a different device or grid
//!    and injects them into the measured shortlist
//!    ([`Provenance::WarmStarted`] when that changed the shortlist);
//! 4. **compute** — the requested tuner runs over the shared
//!    memoizing [`EvalContext`], and the result is persisted.
//!
//! Batches fan out over the rayon worker pool; duplicates inside one
//! batch — requests with equal [`RequestIdentity`] — resolve once.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use conc_check::region;
use conc_check::sync::AtomicU64;
use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig};
use rayon::prelude::*;
use stencil_autotune::{
    exhaustive_tune_with, model_based_tune_seeded_with, stochastic_tune_with, AnnealOptions,
    ParameterSpace, Provenance, TuneOutcome, TuneSample,
};

use crate::key::{
    first_occurrences, scatter_occurrences, stable_hash_of, RequestIdentity, TuneKey, TunerKind,
};
use crate::record::TuneRecord;
use crate::singleflight::{Joined, SingleFlight};
use crate::store::TuneStore;

/// Which search strategy a request asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum TunerSpec {
    /// Exhaustive search (§IV-C).
    Exhaustive,
    /// Model-based tuning (§VI) with its β cutoff in percent.
    ModelBased {
        /// The cutoff (the paper uses 5).
        beta_percent: f64,
    },
    /// Simulated-annealing search.
    Stochastic(AnnealOptions),
}

impl TunerSpec {
    fn kind(&self) -> TunerKind {
        match self {
            TunerSpec::Exhaustive => TunerKind::Exhaustive,
            TunerSpec::ModelBased { beta_percent } => TunerKind::model_based(*beta_percent),
            TunerSpec::Stochastic(opts) => TunerKind::stochastic(opts),
        }
    }
}

/// One tuning request.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneRequest {
    /// Target device.
    pub device: DeviceSpec,
    /// Kernel to tune.
    pub kernel: KernelSpec,
    /// Problem-grid dimensions.
    pub dims: GridDims,
    /// The feasible search space.
    pub space: ParameterSpace,
    /// Search strategy.
    pub tuner: TunerSpec,
    /// Measurement-noise seed.
    pub seed: u64,
}

impl TuneRequest {
    /// The stable [`TuneKey`] identifying this request.
    pub fn key(&self) -> TuneKey {
        TuneKey::new(
            &self.device,
            &self.kernel,
            self.dims,
            &self.space,
            self.tuner.kind(),
            self.seed,
        )
    }

    /// `self.key().stable_hash()`, without cloning the names and the
    /// kernel into an owned key.
    pub fn stable_hash(&self) -> u64 {
        stable_hash_of(
            self.device.fingerprint(),
            &self.kernel,
            self.dims,
            self.tuner.kind(),
            self.seed,
            self.space.fingerprint(),
        )
    }

    /// The exact in-process identity of this request: equal for two
    /// requests exactly when every input of their stable keys is.
    pub fn identity(&self) -> RequestIdentity {
        RequestIdentity::new(
            &self.device,
            &self.kernel,
            self.dims,
            self.tuner.kind(),
            self.seed,
            self.space.fingerprint(),
        )
    }

    /// Whether a search can run on this request at all: the space must
    /// be non-empty and a model-based β positive (not NaN).
    pub fn validate(&self) -> Result<(), RequestError> {
        if self.space.is_empty() {
            return Err(RequestError::EmptySpace);
        }
        match self.tuner {
            TunerSpec::ModelBased { beta_percent }
                if beta_percent.is_nan() || beta_percent <= 0.0 =>
            {
                Err(RequestError::NonPositiveBeta)
            }
            _ => Ok(()),
        }
    }
}

/// Why a request cannot be tuned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The parameter space holds no configuration.
    EmptySpace,
    /// A model-based β that is zero, negative or NaN.
    NonPositiveBeta,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RequestError::EmptySpace => "cannot tune over an empty parameter space",
            RequestError::NonPositiveBeta => "beta must be positive",
        })
    }
}

/// One resolved request.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneResponse {
    /// The winning configuration and its measured throughput.
    pub best: TuneSample,
    /// Configurations the producing search executed.
    pub evaluated: u64,
    /// Every measured sample of the producing search (just the winner
    /// when the result came from the store — per-sample data is not
    /// persisted).
    pub samples: Vec<TuneSample>,
    /// How the result was produced.
    pub provenance: Provenance,
    /// The request's stable key hash (for logging / correlation).
    pub key_hash: u64,
}

impl TuneResponse {
    /// Repackage as a [`TuneOutcome`] over the carried samples.
    pub fn into_outcome(self) -> TuneOutcome {
        TuneOutcome {
            best: self.best,
            samples: self.samples,
            provenance: self.provenance,
        }
    }
}

/// Which path inside the service produced one response — richer than
/// [`Provenance`] (a condvar waiter shares its *leader's* provenance,
/// so provenance alone cannot tell "I computed" from "I shared").
/// Serving layers (crates/tuneserve) use the trace to attribute work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolveTrace {
    /// Served verbatim from the backing store.
    Store,
    /// This request led the single-flight: it ran the search and
    /// persisted the record.
    Led,
    /// This request blocked on — and shared — another leader's
    /// in-flight computation.
    Shared,
}

/// Counter snapshot of a [`TuneService`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests served verbatim from the store.
    pub served_from_store: u64,
    /// Requests that ran a full search.
    pub computed: u64,
    /// Requests that ran a warm-started search.
    pub warm_started: u64,
    /// Requests that blocked on — and shared — another worker's
    /// in-flight computation.
    pub shared: u64,
}

/// Maximum warm-start donor configurations injected per request.
const MAX_WARM_SEEDS: usize = 3;

enum Ctx {
    Static(&'static EvalContext),
    Shared(Arc<EvalContext>),
}

impl Ctx {
    fn get(&self) -> &EvalContext {
        match self {
            Ctx::Static(ctx) => ctx,
            Ctx::Shared(ctx) => ctx,
        }
    }
}

/// The single-flight tuning service. See the [module docs](self).
pub struct TuneService {
    store: Arc<dyn TuneStore>,
    ctx: Ctx,
    inflight: SingleFlight<TuneResponse>,
    served_from_store: AtomicU64,
    computed: AtomicU64,
    warm_started: AtomicU64,
    shared: AtomicU64,
}

impl TuneService {
    /// A service over `store` evaluating through `ctx`.
    pub fn new(store: Arc<dyn TuneStore>, ctx: Arc<EvalContext>) -> Self {
        Self::build(store, Ctx::Shared(ctx))
    }

    /// A service over `store` evaluating through the process-wide
    /// [`EvalContext::global`] — what the bench binaries use, so
    /// service-routed and direct evaluations share one cache.
    pub fn with_global_ctx(store: Arc<dyn TuneStore>) -> Self {
        Self::build(store, Ctx::Static(EvalContext::global()))
    }

    fn build(store: Arc<dyn TuneStore>, ctx: Ctx) -> Self {
        TuneService {
            store,
            ctx,
            inflight: SingleFlight::new(),
            served_from_store: AtomicU64::new_named(0, "service.served_from_store"),
            computed: AtomicU64::new_named(0, "service.computed"),
            warm_started: AtomicU64::new_named(0, "service.warm_started"),
            shared: AtomicU64::new_named(0, "service.shared"),
        }
    }

    /// The backing store.
    pub fn store(&self) -> &dyn TuneStore {
        &*self.store
    }

    /// The evaluation context requests are priced through.
    pub fn ctx(&self) -> &EvalContext {
        self.ctx.get()
    }

    /// Number of searches currently in flight (leaders computing).
    /// Failed or published flights are retired immediately, so this
    /// also regression-checks that a panicking leader cleans up.
    pub fn inflight_len(&self) -> usize {
        self.inflight.inflight_len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            served_from_store: self.served_from_store.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            warm_started: self.warm_started.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
        }
    }

    /// Resolve one request through store → single-flight → search.
    ///
    /// # Panics
    /// Panics when [`TuneRequest::validate`] fails (an empty space, or
    /// a model-based β that is not positive) — invalid requests are
    /// rejected *before* the single-flight guard so a waiter can never
    /// block on a leader that died validating. The serving layer
    /// refuses them with a coded reason before they get here.
    pub fn resolve(&self, req: &TuneRequest) -> TuneResponse {
        self.resolve_traced(req, &req.key()).0
    }

    /// [`Self::resolve`], also reporting *which path* served the
    /// request (store hit, single-flight leader, or condvar sharer) —
    /// the serving layer attributes latency and compute by the trace.
    /// `key` must be `req.key()`: callers that already built it to probe
    /// their own tiers pass it on instead of hashing the request again.
    ///
    /// If a leader panics mid-search, its flight is marked failed and
    /// every waiter retries from the store check — one of them leads
    /// the next attempt. A panicking leader therefore never strands
    /// its waiters (and its own panic propagates to its caller).
    ///
    /// # Panics
    /// Same contract as [`Self::resolve`].
    pub fn resolve_traced(&self, req: &TuneRequest, key: &TuneKey) -> (TuneResponse, ResolveTrace) {
        if let Err(why) = req.validate() {
            panic!("{why}");
        }
        debug_assert_eq!(key.stable_hash(), req.stable_hash());
        let hash = key.stable_hash();

        loop {
            if let Some(resp) = self.try_resolve_stored(hash) {
                return (resp, ResolveTrace::Store);
            }
            // Single-flight: first miss per key leads, the rest wait.
            match self.inflight.join(hash) {
                Joined::Shared(resp) => {
                    self.shared.fetch_add(1, Ordering::Relaxed);
                    return (resp, ResolveTrace::Shared);
                }
                Joined::Retry => continue,
                Joined::Lead(leadership) => {
                    // Re-check the store *under leadership*: between
                    // this thread's store miss and its election, a
                    // previous leader may have published and retired
                    // its flight. Computing here would be a duplicate
                    // search (the conc-check burst proof finds exactly
                    // this interleaving); publishing the stored record
                    // keeps the key at-most-once-computed.
                    if let Some(resp) = self.try_resolve_stored(hash) {
                        leadership.publish(resp.clone());
                        return (resp, ResolveTrace::Store);
                    }
                    let response = self.compute(key, req);
                    self.store.put(&TuneRecord {
                        key: key.clone(),
                        best: response.best.config,
                        mpoints: response.best.mpoints,
                        evaluated: response.evaluated,
                    });
                    // Persist first, then retire the flight: a request
                    // arriving after the removal hits the store instead
                    // of recomputing.
                    leadership.publish(response.clone());
                    return (response, ResolveTrace::Led);
                }
            }
        }
    }

    /// The store-hit fast path alone: an exact [`TuneKey`] hit is
    /// repackaged as a response (counted `served_from_store`), a miss
    /// returns `None` *without* entering the single-flight guard.
    pub fn try_resolve_cached(&self, key: &TuneKey) -> Option<TuneResponse> {
        self.try_resolve_stored(key.stable_hash())
    }

    /// [`Self::try_resolve_cached`] for the key whose stable hash is
    /// `hash` ([`TuneRequest::stable_hash`]): one store probe that
    /// copies out only the served fields. The serving layer calls this
    /// before deciding whether a request must pass admission control.
    pub fn try_resolve_stored(&self, hash: u64) -> Option<TuneResponse> {
        let rec = self.store.get_best(hash)?;
        self.served_from_store.fetch_add(1, Ordering::Relaxed);
        let best = TuneSample {
            config: rec.config,
            mpoints: rec.mpoints,
        };
        Some(TuneResponse {
            best,
            evaluated: rec.evaluated,
            samples: vec![best],
            provenance: Provenance::Store,
            key_hash: hash,
        })
    }

    /// If a leader is already computing the key hashed to `hash`, wait
    /// for it and share its response (counted `shared`); otherwise
    /// return `None` immediately. Blocks only for the remainder of an
    /// *already running* computation — never starts one — which is why
    /// the serving layer may call it before admission control. A
    /// leader that panics instead of publishing also yields `None`.
    pub fn wait_if_inflight(&self, hash: u64) -> Option<TuneResponse> {
        let resp = self.inflight.wait_existing(hash)?;
        self.shared.fetch_add(1, Ordering::Relaxed);
        Some(resp)
    }

    /// Resolve a batch over the rayon worker pool. Output order matches
    /// `requests`. Identical requests *within* the batch are
    /// deduplicated before fan-out: one occurrence resolves, the rest
    /// are served its response (counted `shared`) without touching the
    /// single-flight guard at all.
    pub fn resolve_batch(&self, requests: &[TuneRequest]) -> Vec<TuneResponse> {
        // Map each slot to the first slot carrying the same request.
        let ids: Vec<RequestIdentity> = requests.iter().map(TuneRequest::identity).collect();
        let canonical = first_occurrences(&ids);
        let unique: Vec<usize> = (0..requests.len()).filter(|&i| canonical[i] == i).collect();
        let resolved: Vec<(usize, TuneResponse)> = unique
            .par_iter()
            .map(|&i| (i, self.resolve(&requests[i])))
            .collect();
        // An in-batch duplicate shares the canonical occurrence's work
        // exactly like a condvar waiter.
        scatter_occurrences(&canonical, resolved, |response| {
            self.shared.fetch_add(1, Ordering::Relaxed);
            response
        })
    }

    fn compute(&self, key: &TuneKey, req: &TuneRequest) -> TuneResponse {
        let ctx = self.ctx.get();
        // The search is the long-running part; `region::compute` marks
        // it so the model checker warns (CCK-101) if a caller ever
        // reshapes this path to hold a service lock across it.
        let (outcome, evaluated) = region::compute(|| match &req.tuner {
            TunerSpec::Exhaustive => {
                let out = exhaustive_tune_with(
                    ctx,
                    &req.device,
                    &req.kernel,
                    req.dims,
                    &req.space,
                    req.seed,
                );
                let evaluated = out.evaluated() as u64;
                (out, evaluated)
            }
            TunerSpec::ModelBased { beta_percent } => {
                let seeds = self.warm_seeds(key);
                let out = model_based_tune_seeded_with(
                    ctx,
                    &req.device,
                    &req.kernel,
                    req.dims,
                    &req.space,
                    *beta_percent,
                    req.seed,
                    &seeds,
                );
                let evaluated = out.executed as u64;
                (out.into_outcome(), evaluated)
            }
            TunerSpec::Stochastic(opts) => {
                let out = stochastic_tune_with(
                    ctx,
                    &req.device,
                    &req.kernel,
                    req.dims,
                    &req.space,
                    opts,
                    req.seed,
                );
                let evaluated = out.executed as u64;
                (out.into_outcome(), evaluated)
            }
        });
        match outcome.provenance {
            Provenance::WarmStarted => self.warm_started.fetch_add(1, Ordering::Relaxed),
            _ => self.computed.fetch_add(1, Ordering::Relaxed),
        };
        TuneResponse {
            best: outcome.best,
            evaluated,
            samples: outcome.samples,
            provenance: outcome.provenance,
            key_hash: key.stable_hash(),
        }
    }

    /// Stored optima of the same kernel tuned on a different device or
    /// grid — the warm-start donors, best first.
    fn warm_seeds(&self, key: &TuneKey) -> Vec<LaunchConfig> {
        let mut donors: Vec<TuneRecord> = self
            .store
            .records()
            .into_iter()
            .filter(|rec| key.is_sibling_of(&rec.key))
            .collect();
        donors.sort_by(|a, b| b.mpoints.total_cmp(&a.mpoints));
        let mut seeds: Vec<LaunchConfig> = Vec::new();
        for rec in donors {
            if !seeds.contains(&rec.best) {
                seeds.push(rec.best);
                if seeds.len() == MAX_WARM_SEEDS {
                    break;
                }
            }
        }
        seeds
    }
}
