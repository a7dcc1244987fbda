//! [`TuneServer`]: the traffic-ready front end over [`TuneService`].
//!
//! Request resolution is tiered, cheapest first:
//!
//! 1. **hot-key LRU** ([`HotKeyLru`]) — one mutex + map probe, keyed by
//!    the request's exact [`RequestIdentity`]; the persistent
//!    [`TuneKey`](stencil_tunestore::TuneKey) hash is needed only below
//!    this tier;
//! 2. **store** — the sharded persistent tier (per-shard locks), probed
//!    by [`TuneRequest::stable_hash`]. The [`KeyIndex`] supplies that
//!    hash for every identity the store already served or persisted, so
//!    only an identity's first trip below the LRU folds it;
//! 3. **share** — an identical request already in flight is joined,
//!    never recomputed (bounded by the leader's remaining work);
//! 4. **admission** ([`ComputePool`]) — only here does the request ask
//!    to *spend compute*: a request no search can run is refused, then
//!    deadline check, oracle triage against the request's budget, then
//!    a non-blocking pool permit. Refusals are coded [`ShedReason`]s,
//!    not queues or panics;
//! 5. **compute** — the single-flight search of the underlying
//!    service under the owned `TuneKey`, holding the permit for the
//!    duration.
//!
//! Batches dedup identical requests (equal identities) *before* any of
//! this: one occurrence resolves, duplicates are served its response.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use conc_check::sync::{AtomicU64, Mutex};

use inplane_core::EvalContext;
use rayon::prelude::*;
use stencil_autotune::Provenance;
use stencil_tunestore::{
    first_occurrences, scatter_occurrences, RequestIdentity, ResolveTrace, ServiceStats,
    StoreStats, TuneRequest, TuneResponse, TuneService, TuneStore,
};

use crate::admission::{predicted_search_micros, AdmissionStats, ComputePool, ShedReason};
use crate::lru::{HotKeyLru, KeyIndex, KeyIndexStats, LruStats};
use crate::shard::ShardedStore;

/// One serving request: the tuning problem plus its latency budget.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRequest {
    /// The tuning problem.
    pub req: TuneRequest,
    /// Deadline budget in microseconds. `None` means "no deadline":
    /// the request is never triaged or expired, only pool-shed.
    pub budget_micros: Option<u64>,
}

impl ServeRequest {
    /// A request with no deadline budget.
    pub fn unbounded(req: TuneRequest) -> Self {
        ServeRequest {
            req,
            budget_micros: None,
        }
    }

    /// A request that must fit a `budget_micros` deadline.
    pub fn with_budget(req: TuneRequest, budget_micros: u64) -> Self {
        ServeRequest {
            req,
            budget_micros: Some(budget_micros),
        }
    }
}

/// Which tier served a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServeTier {
    /// The hot-key LRU cache.
    Lru,
    /// The (sharded) persistent store.
    Store,
    /// Shared another request's in-flight computation (or its
    /// already-resolved response, for in-batch duplicates).
    Shared,
    /// Ran a warm-started search.
    WarmStarted,
    /// Ran a full search.
    Computed,
}

impl ServeTier {
    /// Stable lowercase label (report keys).
    pub fn label(&self) -> &'static str {
        match self {
            ServeTier::Lru => "lru",
            ServeTier::Store => "store",
            ServeTier::Shared => "shared",
            ServeTier::WarmStarted => "warm",
            ServeTier::Computed => "computed",
        }
    }
}

/// A successfully served response.
#[derive(Clone, Debug, PartialEq)]
pub struct Served {
    /// The resolved tuning response.
    pub response: TuneResponse,
    /// The tier that produced it.
    pub tier: ServeTier,
}

/// The outcome of one serving request: a response or a coded refusal.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeOutcome {
    /// The request was served.
    Served(Served),
    /// The request was shed; the reason says why and is never a panic
    /// or an unbounded block.
    Shed(ShedReason),
}

impl ServeOutcome {
    /// The served payload, if any.
    pub fn served(&self) -> Option<&Served> {
        match self {
            ServeOutcome::Served(s) => Some(s),
            ServeOutcome::Shed(_) => None,
        }
    }

    /// The shed reason, if any.
    pub fn shed(&self) -> Option<ShedReason> {
        match self {
            ServeOutcome::Served(_) => None,
            ServeOutcome::Shed(r) => Some(*r),
        }
    }
}

/// Sizing knobs of a [`TuneServer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Concurrent-search bound of the compute pool.
    pub pool_limit: usize,
    /// Hot-key LRU capacity (0 disables the cache).
    pub lru_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            pool_limit: rayon::current_num_threads().max(1),
            lru_capacity: 1024,
        }
    }
}

/// Counter snapshot across every layer of a [`TuneServer`]. The store
/// counters come through both aggregated (`store`) *and* per shard
/// (`per_shard`) — the sharding wrapper never sums them away.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// The underlying service's single-flight counters.
    pub service: ServiceStats,
    /// Hot-key LRU counters.
    pub lru: LruStats,
    /// Identity → stable-hash index counters: its misses are the
    /// stable-hash folds still done on the request path.
    pub index: KeyIndexStats,
    /// Admission-control counters.
    pub admission: AdmissionStats,
    /// Aggregate store counters (per-shard sum).
    pub store: StoreStats,
    /// Per-shard store counters, index-aligned with the shards.
    pub per_shard: Vec<StoreStats>,
    /// In-batch duplicates served from their canonical occurrence.
    pub batch_deduped: u64,
}

/// The serving layer; see the [module docs](self).
pub struct TuneServer {
    service: TuneService,
    store: Arc<ShardedStore>,
    lru: HotKeyLru,
    index: KeyIndex,
    pool: ComputePool,
    /// Oracle prices per key hash — pricing lowers a proxy plan, so
    /// hot keys (and every configuration of a retried key) pay once.
    prices: Mutex<HashMap<u64, u64>>,
    batch_deduped: AtomicU64,
}

impl TuneServer {
    /// A server over `store`, evaluating through `ctx`.
    pub fn new(store: Arc<ShardedStore>, ctx: Arc<EvalContext>, config: ServerConfig) -> Self {
        let service = TuneService::new(Arc::clone(&store) as Arc<dyn TuneStore>, ctx);
        Self::build(store, service, config)
    }

    /// A server evaluating through the process-wide
    /// [`EvalContext::global`] — what the bench binaries use.
    pub fn with_global_ctx(store: Arc<ShardedStore>, config: ServerConfig) -> Self {
        let service = TuneService::with_global_ctx(Arc::clone(&store) as Arc<dyn TuneStore>);
        Self::build(store, service, config)
    }

    fn build(store: Arc<ShardedStore>, service: TuneService, config: ServerConfig) -> Self {
        TuneServer {
            service,
            store,
            lru: HotKeyLru::new(config.lru_capacity),
            index: KeyIndex::new(),
            pool: ComputePool::new(config.pool_limit),
            prices: Mutex::new_named(HashMap::new(), "server.prices"),
            batch_deduped: AtomicU64::new_named(0, "server.batch_deduped"),
        }
    }

    /// The underlying single-flight service.
    pub fn service(&self) -> &TuneService {
        &self.service
    }

    /// The sharded persistent tier.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Identities in the stable-hash index — exposed so tests can
    /// assert it never outgrows [`ShardedStore::len`].
    #[doc(hidden)]
    pub fn key_index_len(&self) -> usize {
        self.index.entries()
    }

    /// Counter snapshot across every layer.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            service: self.service.stats(),
            lru: self.lru.stats(),
            index: self.index.stats(),
            admission: self.pool.stats(),
            store: self.store.stats(),
            per_shard: self.store.shard_stats(),
            batch_deduped: self.batch_deduped.load(Ordering::Relaxed),
        }
    }

    /// The oracle-predicted search cost for `req`, cached per key.
    /// `hash` must be `req.stable_hash()` — the hash the caller
    /// already probed the store with.
    pub fn predicted_micros(&self, req: &TuneRequest, hash: u64) -> u64 {
        if let Some(&p) = self.prices.lock_recovered().get(&hash) {
            return p;
        }
        let p = predicted_search_micros(req);
        self.prices.lock_recovered().insert(hash, p);
        p
    }

    /// Resolve one request through the tiered path; never blocks on
    /// pool capacity, never panics on overload.
    pub fn resolve(&self, sreq: &ServeRequest) -> ServeOutcome {
        self.resolve_at(Instant::now(), sreq)
    }

    /// [`Self::resolve`] with an explicit arrival instant — the batch
    /// path passes the batch's start so queueing time counts against
    /// each request's deadline.
    pub fn resolve_at(&self, arrived: Instant, sreq: &ServeRequest) -> ServeOutcome {
        self.resolve_identified(arrived, sreq, sreq.req.identity())
    }

    /// The tiered path proper. `id` is `sreq.req.identity()`; the
    /// stable hash is looked up (or folded) only on an LRU miss, and the
    /// owned key is built only for a search.
    fn resolve_identified(
        &self,
        arrived: Instant,
        sreq: &ServeRequest,
        id: RequestIdentity,
    ) -> ServeOutcome {
        // Tier 1: hot-key LRU.
        if let Some(response) = self.lru.get(&id) {
            return ServeOutcome::Served(Served {
                response,
                tier: ServeTier::Lru,
            });
        }
        let (hash, indexed) = self.index.stable_hash(&id, &sreq.req);
        // Tier 2: the sharded store.
        if let Some(response) = self.service.try_resolve_stored(hash) {
            return self.keep(id, hash, indexed, response, ServeTier::Store);
        }
        // Tier 3: join an in-flight identical request. This waits only
        // for a computation that is *already running* — admission
        // control has already bounded how many of those exist.
        if let Some(response) = self.service.wait_if_inflight(hash) {
            return self.keep(id, hash, indexed, response, ServeTier::Shared);
        }
        // Tier 4: admission — the request now asks to spend compute,
        // and first must be one a search can run at all.
        if let Err(why) = sreq.req.validate() {
            self.pool.record_invalid();
            return ServeOutcome::Shed(ShedReason::InvalidRequest(why));
        }
        if let Some(budget) = sreq.budget_micros {
            let elapsed = arrived.elapsed().as_micros().min(u64::MAX as u128) as u64;
            if elapsed > budget {
                self.pool.record_deadline();
                return ServeOutcome::Shed(ShedReason::DeadlineExpired {
                    elapsed_micros: elapsed,
                    budget_micros: budget,
                });
            }
            let predicted = self.predicted_micros(&sreq.req, hash);
            if predicted > budget {
                self.pool.record_over_budget();
                return ServeOutcome::Shed(ShedReason::OverBudget {
                    predicted_micros: predicted,
                    budget_micros: budget,
                });
            }
        }
        let permit = match self.pool.try_acquire() {
            Ok(p) => p,
            Err(reason) => return ServeOutcome::Shed(reason),
        };
        // Tier 5: the single-flight search. A racing leader that
        // registered between tier 3 and here downgrades us to a
        // sharer; a racing leader that already *persisted* downgrades
        // us to a store hit. Either way the permit is held only
        // briefly.
        let key = sreq.req.key();
        let (response, trace) = self.service.resolve_traced(&sreq.req, &key);
        drop(permit);
        let tier = match trace {
            ResolveTrace::Store => ServeTier::Store,
            ResolveTrace::Shared => ServeTier::Shared,
            ResolveTrace::Led => match response.provenance {
                Provenance::WarmStarted => ServeTier::WarmStarted,
                _ => ServeTier::Computed,
            },
        };
        self.keep(id, hash, indexed, response, tier)
    }

    /// Serve `response`, which the store holds under `hash`: the index
    /// learns the hash unless it supplied it, and the LRU the response.
    fn keep(
        &self,
        id: RequestIdentity,
        hash: u64,
        indexed: bool,
        response: TuneResponse,
        tier: ServeTier,
    ) -> ServeOutcome {
        if !indexed {
            self.index.insert(&id, hash);
        }
        self.lru.put(id, response.clone());
        ServeOutcome::Served(Served { response, tier })
    }

    /// Deadline-aware batched resolve. Identical requests inside the
    /// batch are deduplicated *before* the tiered path: one occurrence
    /// per identity resolves (in parallel over the rayon pool),
    /// duplicates are served its outcome as [`ServeTier::Shared`].
    /// Output order matches `batch`; every request's deadline is
    /// measured from the batch's entry, so stragglers behind a large
    /// batch shed with [`ShedReason::DeadlineExpired`] instead of
    /// blowing the budget silently.
    pub fn resolve_batch(&self, batch: &[ServeRequest]) -> Vec<ServeOutcome> {
        let arrived = Instant::now();
        let ids: Vec<RequestIdentity> = batch.iter().map(|s| s.req.identity()).collect();
        let canonical = first_occurrences(&ids);
        let unique: Vec<usize> = (0..batch.len()).filter(|&i| canonical[i] == i).collect();
        let resolved: Vec<(usize, ServeOutcome)> = unique
            .par_iter()
            .map(|&i| {
                (
                    i,
                    self.resolve_identified(arrived, &batch[i], ids[i].clone()),
                )
            })
            .collect();
        scatter_occurrences(&canonical, resolved, |outcome| {
            self.batch_deduped.fetch_add(1, Ordering::Relaxed);
            match outcome {
                // A duplicate shares the canonical occurrence's
                // response without doing any of its work.
                ServeOutcome::Served(s) => ServeOutcome::Served(Served {
                    response: s.response,
                    tier: ServeTier::Shared,
                }),
                shed => shed,
            }
        })
    }
}
