//! Every tier answers with the key its request hashes to.
//!
//! The server keys each request once and threads that one key through
//! the LRU, store, in-flight, admission and compute tiers (and, for
//! batches, through the in-batch dedup). A key handed to the wrong tier
//! would show up here as a response whose `key_hash` is not the
//! request's, or as tier counters that drift from the pinned replay.

use std::collections::HashSet;
use std::sync::Arc;

use inplane_core::EvalContext;
use stencil_tuneserve::{
    zipf_trace, ReplayConfig, ServeOutcome, ServeRequest, ServeTier, ServerConfig, ShardedStore,
    TrafficMix, TuneServer,
};

/// Hot-key LRU capacity: small against the 48-key universe, so the
/// replay evicts and falls through to the store.
const LRU_CAPACITY: usize = 4;
const REQUESTS: usize = 600;
const TRACE_SEED: u64 = 7;

/// `(lru hits, lru misses, lru evictions, store hits, store misses,
/// computed, shared)` of the sequential replay, recorded when every
/// tier still re-keyed the request itself.
const PINNED_SEQUENTIAL: (u64, u64, u64, u64, u64, u64, u64) = (271, 329, 325, 282, 141, 47, 0);

fn server(pool_limit: usize) -> TuneServer {
    TuneServer::new(
        Arc::new(ShardedStore::mem(4)),
        Arc::new(EvalContext::new()),
        ServerConfig {
            pool_limit,
            lru_capacity: LRU_CAPACITY,
        },
    )
}

fn universe() -> Vec<ServeRequest> {
    TrafficMix::standard()
        .universe()
        .into_iter()
        .map(ServeRequest::unbounded)
        .collect()
}

fn trace(universe_len: usize) -> Vec<usize> {
    let cfg = ReplayConfig::default();
    zipf_trace(
        universe_len,
        REQUESTS,
        cfg.zipf_exponent,
        cfg.burstiness,
        TRACE_SEED,
    )
}

/// The response of an unbounded request (never shed) and its tier,
/// after checking it carries the request's own key hash.
fn served_own_key(sreq: &ServeRequest, outcome: &ServeOutcome) -> ServeTier {
    let served = outcome
        .served()
        .unwrap_or_else(|| panic!("unbounded request shed: {outcome:?}"));
    assert_eq!(
        served.response.key_hash,
        sreq.req.key().stable_hash(),
        "the {} tier answered with another request's key",
        served.tier.label()
    );
    served.tier
}

/// A sequential Zipf replay over a cold server: every response on the
/// compute, store and LRU tiers carries its request's key hash, and the
/// tier counters equal those the replay produced before the key was
/// threaded through the tiers.
#[test]
fn sequential_replay_serves_each_request_its_own_key() {
    let universe = universe();
    assert_eq!(universe.len(), 48);
    let trace = trace(universe.len());
    let server = server(1);

    let mut tiers = HashSet::new();
    for &k in &trace {
        let sreq = &universe[k];
        tiers.insert(served_own_key(sreq, &server.resolve(sreq)));
    }
    for tier in [ServeTier::Computed, ServeTier::Store, ServeTier::Lru] {
        assert!(tiers.contains(&tier), "the replay never reached {tier:?}");
    }

    // Any drift from the pinned counters means a tier now probes with
    // a different key than it did when each tier built its own.
    let stats = server.stats();
    assert_eq!(
        (
            stats.lru.hits,
            stats.lru.misses,
            stats.lru.evictions,
            stats.store.hits,
            stats.store.misses,
            stats.service.computed,
            stats.service.shared,
        ),
        PINNED_SEQUENTIAL,
        "{stats:?}"
    );
}

/// The same trace cut into batches: on a cold server the batch path
/// computes, then a second pass serves from the LRU and the store, and
/// in-batch duplicates share their canonical slot — all with the
/// request's own key hash.
#[test]
fn batched_replay_serves_each_request_its_own_key() {
    let universe = universe();
    let trace = trace(universe.len());
    // Unique keys of a batch resolve in parallel; a pool as large as the
    // universe never sheds them.
    let server = server(universe.len());

    let mut tiers = HashSet::new();
    for _pass in 0..2 {
        for window in trace.chunks(40) {
            let batch: Vec<ServeRequest> = window.iter().map(|&k| universe[k].clone()).collect();
            let outcomes = server.resolve_batch(&batch);
            assert_eq!(outcomes.len(), batch.len());
            for (sreq, outcome) in batch.iter().zip(&outcomes) {
                tiers.insert(served_own_key(sreq, outcome));
            }
        }
    }
    for tier in [
        ServeTier::Computed,
        ServeTier::Store,
        ServeTier::Lru,
        ServeTier::Shared,
    ] {
        assert!(tiers.contains(&tier), "the batches never reached {tier:?}");
    }

    // Each distinct key is searched exactly once, and the dedup count is
    // fixed by the trace alone.
    let stats = server.stats();
    let distinct: HashSet<usize> = trace.iter().copied().collect();
    assert_eq!(stats.service.computed, distinct.len() as u64);
    let deduped: u64 = trace
        .chunks(40)
        .map(|w| (w.len() - w.iter().collect::<HashSet<_>>().len()) as u64)
        .sum();
    assert_eq!(stats.batch_deduped, 2 * deduped);
}
