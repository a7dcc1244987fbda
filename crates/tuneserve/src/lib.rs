#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # stencil-tuneserve
//!
//! Tuning-as-a-service: the traffic-ready layer above
//! [`stencil_tunestore::TuneService`], built for the load profile a
//! production auto-tuner meets — millions of mostly-repeated requests,
//! a hot head of popular keys, bursts of identical requests, and more
//! offered search work than the machine should ever accept.
//!
//! * [`shard`] — [`ShardedStore`]: N per-shard-locked
//!   [`TuneStore`](stencil_tunestore::TuneStore) shards keyed by
//!   [`TuneKey`](stencil_tunestore::TuneKey) hash, with epoch-based
//!   per-shard compaction that never blocks readers of other shards
//!   and per-shard [`StoreStats`](stencil_tunestore::StoreStats) that
//!   survive aggregation;
//! * [`lru`] — [`HotKeyLru`]: a bounded hot-key response cache in
//!   front of the JSONL tier, keyed by the request's exact
//!   [`RequestIdentity`](stencil_tunestore::RequestIdentity) rather
//!   than its persistent key hash, with hit/evict counters; and
//!   [`KeyIndex`], which remembers each identity's persistent hash
//!   once the store holds its record, so store hits skip the fold;
//! * [`admission`] — [`ComputePool`] (a never-blocking bounded
//!   semaphore over searches), oracle triage
//!   ([`predicted_search_micros`]: the static traffic oracle prices a
//!   search before any of it runs), and the coded [`ShedReason`]
//!   refusals (`SRV-001..004`);
//! * [`server`] — [`TuneServer`]: identity → LRU → stable key (indexed
//!   or folded) → store →
//!   share-in-flight → admission → single-flight compute, plus
//!   deadline-aware [`TuneServer::resolve_batch`] (in-batch dedup by
//!   identity);
//! * [`mod@replay`] — the Zipfian traffic-replay bench: a devices ×
//!   orders × grids × precisions key universe, Zipf-ranked popularity
//!   with a duplicate-burstiness knob, multi-worker replay reporting
//!   throughput, p50/p99/p999 latency, shed rate and per-tier
//!   provenance counts;
//! * [`report`] — [`ServingReport`], persisted as
//!   `BENCH_serving.json` so the serving trajectory is tracked across
//!   PRs;
//! * [`conc`] — the concurrency proofs: every core above runs under
//!   the `conc-check` deterministic model checker, which explores
//!   bounded-exhaustive interleavings (plus injected leader panics
//!   and spurious condvar wakeups) and reports coded `CCK-*`
//!   findings with replayable counterexample traces.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use gpu_sim::{DeviceSpec, GridDims};
//! use inplane_core::{EvalContext, KernelSpec, Method, Variant};
//! use stencil_autotune::ParameterSpace;
//! use stencil_grid::Precision;
//! use stencil_tunestore::{TuneRequest, TunerSpec};
//! use stencil_tuneserve::{ServeRequest, ServeTier, ServerConfig, ShardedStore, TuneServer};
//!
//! let device = DeviceSpec::gtx580();
//! let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
//! let dims = GridDims::new(128, 128, 32);
//! let space = ParameterSpace::quick_space(&device, &kernel, &dims);
//! let server = TuneServer::new(
//!     Arc::new(ShardedStore::mem(4)),
//!     Arc::new(EvalContext::new()),
//!     ServerConfig { pool_limit: 2, lru_capacity: 64 },
//! );
//! let req = ServeRequest::unbounded(TuneRequest {
//!     device, kernel, dims, space, tuner: TunerSpec::Exhaustive, seed: 1,
//! });
//!
//! let cold = server.resolve(&req);
//! assert_eq!(cold.served().unwrap().tier, ServeTier::Computed);
//! let hot = server.resolve(&req);
//! assert_eq!(hot.served().unwrap().tier, ServeTier::Lru);
//! ```

pub mod admission;
pub mod conc;
pub mod lru;
pub mod replay;
pub mod report;
pub mod server;
pub mod shard;

pub use admission::{predicted_search_micros, AdmissionStats, ComputePool, Permit, ShedReason};
pub use lru::{HotKeyLru, KeyIndex, KeyIndexStats, LruStats};
pub use replay::{
    replay, zipf_trace, LatencyStats, ReplayConfig, ReplayOutcome, ShedCounts, TierCounts,
    TrafficMix, Zipf,
};
pub use report::{ServingReport, SERVING_SCHEMA_VERSION};
pub use server::{
    ServeOutcome, ServeRequest, ServeTier, Served, ServerConfig, ServerStats, TuneServer,
};
pub use shard::{CompactionReport, ShardedStore};
