//! The serving layer under concurrent duplicate bursts and saturated
//! pools: single-flight exactly-once, coded shedding, LRU provenance.

use std::sync::{Arc, Barrier};

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, Method, Variant};
use stencil_autotune::ParameterSpace;
use stencil_grid::Precision;
use stencil_tuneserve::{
    ServeOutcome, ServeRequest, ServeTier, ServerConfig, ShardedStore, ShedReason, TuneServer,
};
use stencil_tunestore::{TuneRequest, TuneStore, TunerSpec};

fn request(device: DeviceSpec, order: usize, seed: u64) -> TuneRequest {
    let kernel = KernelSpec::star_order(
        Method::InPlane(Variant::FullSlice),
        order,
        Precision::Single,
    );
    let dims = GridDims::new(96, 96, 32);
    let space = ParameterSpace::quick_space(&device, &kernel, &dims);
    assert!(!space.is_empty());
    TuneRequest {
        device,
        kernel,
        dims,
        space,
        tuner: TunerSpec::Exhaustive,
        seed,
    }
}

fn server(shards: usize, pool_limit: usize, lru_capacity: usize) -> TuneServer {
    TuneServer::new(
        Arc::new(ShardedStore::mem(shards)),
        Arc::new(EvalContext::new()),
        ServerConfig {
            pool_limit,
            lru_capacity,
        },
    )
}

/// K concurrent identical requests with pool capacity for all of them:
/// exactly one search runs, nobody sheds, and the K−1 others come back
/// with a cache/share provenance.
#[test]
fn duplicate_burst_computes_exactly_once() {
    const K: usize = 8;
    let server = Arc::new(server(4, K, 64));
    let req = request(DeviceSpec::gtx580(), 4, 7);
    let barrier = Arc::new(Barrier::new(K));

    let outcomes: Vec<ServeOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                let sreq = ServeRequest::unbounded(req.clone());
                scope.spawn(move || {
                    barrier.wait();
                    server.resolve(&sreq)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = server.stats();
    assert_eq!(stats.service.computed, 1, "single-flight: one search");
    assert_eq!(stats.admission.shed(), 0, "capacity for all: zero shed");
    let mut led = 0;
    for outcome in &outcomes {
        let served = outcome.served().expect("nothing sheds at capacity");
        match served.tier {
            ServeTier::Computed => led += 1,
            ServeTier::Lru | ServeTier::Store | ServeTier::Shared => {}
            other => panic!("unexpected tier {other:?}"),
        }
    }
    assert_eq!(led, 1, "exactly one request led the flight");
    // All K responses carry the same winning configuration.
    let best = outcomes[0].served().unwrap().response.best;
    for o in &outcomes {
        assert_eq!(o.served().unwrap().response.best, best);
    }
    // A later resolve is a pure LRU hit.
    let again = server.resolve(&ServeRequest::unbounded(req));
    assert_eq!(again.served().unwrap().tier, ServeTier::Lru);
    assert_eq!(server.stats().service.computed, 1);
    // K racing resolves of one identity index it once.
    assert_eq!(server.key_index_len(), 1);
    assert_eq!(server.store().len(), 1);
}

/// A zero-permit server still serves everything the store already
/// knows; only *fresh* searches shed, and they shed with `SRV-001`.
#[test]
fn saturated_pool_sheds_fresh_work_but_serves_caches() {
    let store = Arc::new(ShardedStore::mem(4));
    let ctx = Arc::new(EvalContext::new());
    let warm = request(DeviceSpec::gtx580(), 2, 3);
    let fresh = request(DeviceSpec::gtx680(), 4, 3);

    // Warm the store through a server that may compute.
    let writer = TuneServer::new(
        Arc::clone(&store),
        Arc::clone(&ctx),
        ServerConfig {
            pool_limit: 1,
            lru_capacity: 16,
        },
    );
    assert!(writer
        .resolve(&ServeRequest::unbounded(warm.clone()))
        .served()
        .is_some());

    // A cache-only server over the same store: zero permits.
    let frozen = TuneServer::new(
        store,
        ctx,
        ServerConfig {
            pool_limit: 0,
            lru_capacity: 16,
        },
    );
    let hit = frozen.resolve(&ServeRequest::unbounded(warm));
    assert_eq!(hit.served().unwrap().tier, ServeTier::Store);

    let shed = frozen.resolve(&ServeRequest::unbounded(fresh));
    match shed {
        ServeOutcome::Shed(reason @ ShedReason::PoolSaturated { limit: 0 }) => {
            assert_eq!(reason.code(), "SRV-001");
        }
        other => panic!("expected SRV-001 shed, got {other:?}"),
    }
    let stats = frozen.stats();
    assert_eq!(stats.admission.shed_saturated, 1);
    assert_eq!(stats.service.computed, 0);
    // The store hit is indexed, the pool-refused request is not.
    assert_eq!(frozen.key_index_len(), 1);
    assert_eq!(frozen.store().len(), 1);
}

/// Duplicates racing a pool of one: whoever needs a permit and cannot
/// get one sheds with a code — never blocks, never panics — while the
/// flight itself still runs exactly once, and a retry after the burst
/// is served without recomputing.
#[test]
fn saturated_duplicates_shed_coded_and_never_recompute() {
    const K: usize = 6;
    let server = Arc::new(server(4, 1, 64));
    let req = request(DeviceSpec::c2070(), 4, 11);
    let barrier = Arc::new(Barrier::new(K));

    let outcomes: Vec<ServeOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                let sreq = ServeRequest::unbounded(req.clone());
                scope.spawn(move || {
                    barrier.wait();
                    server.resolve(&sreq)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(server.stats().service.computed, 1, "one search at most");
    assert!(outcomes.iter().any(|o| o.served().is_some()));
    assert!(server.key_index_len() <= server.store().len());
    for outcome in &outcomes {
        if let Some(reason) = outcome.shed() {
            assert!(
                matches!(reason, ShedReason::PoolSaturated { limit: 1 }),
                "only coded pool sheds allowed: {reason:?}"
            );
        }
    }
    // The burst is over: retries are served from cache, no new search.
    let retry = server.resolve(&ServeRequest::unbounded(req));
    let tier = retry.served().expect("store is warm").tier;
    assert!(matches!(tier, ServeTier::Lru | ServeTier::Store));
    assert_eq!(server.stats().service.computed, 1);
}

/// Budget gating: a fresh search priced over its budget is shed with
/// `SRV-002` before touching the pool, a zero budget sheds one way or
/// the other (`SRV-002`/`SRV-003`) without ever searching — but
/// budgeted requests for already-cached keys are still served (cheap
/// tiers bypass both gates).
#[test]
fn budgets_triage_fresh_searches_only() {
    let server = server(2, 4, 16);
    let req = request(DeviceSpec::gtx580(), 2, 19);

    // The oracle prices this search in the milliseconds: a budget one
    // microsecond short of the prediction triages it deterministically
    // (elapsed time at admission is far below the budget).
    let predicted = server.predicted_micros(&req, req.key().stable_hash());
    assert!(predicted > 1000, "search priced at {predicted}us");
    let triaged = server.resolve(&ServeRequest::with_budget(req.clone(), predicted - 1));
    match triaged {
        ServeOutcome::Shed(
            reason @ ShedReason::OverBudget {
                predicted_micros, ..
            },
        ) => {
            assert_eq!(reason.code(), "SRV-002");
            assert_eq!(predicted_micros, predicted);
        }
        other => panic!("expected SRV-002 shed, got {other:?}"),
    }
    assert_eq!(server.stats().admission.shed_over_budget, 1);

    // A zero budget sheds coded too — by deadline or triage, whichever
    // gate trips first — and still runs no search.
    let starved = server.resolve(&ServeRequest::with_budget(req.clone(), 0));
    let code = starved.shed().expect("zero budget sheds").code();
    assert!(code == "SRV-002" || code == "SRV-003", "coded shed: {code}");
    assert_eq!(server.stats().service.computed, 0);
    assert_eq!(server.key_index_len(), 0, "a shed request is never indexed");

    // Unbounded resolve fills the caches...
    assert!(server
        .resolve(&ServeRequest::unbounded(req.clone()))
        .served()
        .is_some());
    // ...after which even a zero budget is served from the LRU.
    let cached = server.resolve(&ServeRequest::with_budget(req, 0));
    assert_eq!(cached.served().unwrap().tier, ServeTier::Lru);
    assert_eq!(server.key_index_len(), 1);
    assert_eq!(server.store().len(), 1);
}

/// In-batch dedup at the server: duplicates inside one batch never
/// reach the tiered path — they are served the canonical occurrence's
/// response as `Shared`, and the dedup counter records them.
#[test]
fn batch_dedups_identical_keys_before_resolution() {
    let server = server(4, 4, 64);
    let a = request(DeviceSpec::gtx580(), 2, 5);
    let b = request(DeviceSpec::gtx680(), 4, 5);
    let batch = vec![
        ServeRequest::unbounded(a.clone()),
        ServeRequest::unbounded(a.clone()),
        ServeRequest::unbounded(b),
        ServeRequest::unbounded(a),
    ];

    let outcomes = server.resolve_batch(&batch);
    assert_eq!(outcomes.len(), 4);
    let stats = server.stats();
    assert_eq!(stats.service.computed, 2, "two distinct keys, two searches");
    assert_eq!(stats.batch_deduped, 2, "slots 1 and 3 deduped onto slot 0");
    assert_eq!(outcomes[1].served().unwrap().tier, ServeTier::Shared);
    assert_eq!(outcomes[3].served().unwrap().tier, ServeTier::Shared);
    assert_eq!(
        outcomes[0].served().unwrap().response.best,
        outcomes[1].served().unwrap().response.best
    );
    assert_eq!(
        outcomes[1].served().unwrap().response.best,
        outcomes[3].served().unwrap().response.best
    );
}

/// The sharded store spreads a real key population over its shards,
/// keeps per-shard stats addressable, and aggregates them losslessly.
#[test]
fn sharded_store_distributes_and_reports_per_shard() {
    let store = ShardedStore::mem(4);
    let ctx = Arc::new(EvalContext::new());
    let devices = [
        DeviceSpec::gtx580(),
        DeviceSpec::gtx680(),
        DeviceSpec::c2070(),
    ];
    let mut keys = Vec::new();
    for device in &devices {
        for order in [2, 4] {
            for seed in [1, 2] {
                keys.push(request(device.clone(), order, seed));
            }
        }
    }

    let server = TuneServer::new(
        Arc::new(store),
        ctx,
        ServerConfig {
            pool_limit: 4,
            lru_capacity: 0, // disable the LRU so gets hit the shards
        },
    );
    for req in &keys {
        assert!(server
            .resolve(&ServeRequest::unbounded(req.clone()))
            .served()
            .is_some());
    }
    let store = server.store();
    assert_eq!(store.len(), keys.len());
    assert_eq!(server.key_index_len(), keys.len());
    let lens = store.shard_lens();
    assert_eq!(lens.iter().sum::<usize>(), keys.len());
    assert!(
        lens.iter().filter(|&&l| l > 0).count() >= 2,
        "12 keys land on at least two of four shards: {lens:?}"
    );
    // Every key routes to the shard its hash says, stably.
    for req in &keys {
        let key = req.key();
        assert_eq!(store.shard_index(&key), store.shard_index(&key));
        assert!(store.get(&key).is_some());
    }
    // Aggregate stats are exactly the per-shard sum.
    let per_shard = store.shard_stats();
    let agg = server.stats().store;
    assert_eq!(per_shard.len(), 4);
    assert_eq!(agg.hits, per_shard.iter().map(|s| s.hits).sum::<u64>());
    assert_eq!(agg.misses, per_shard.iter().map(|s| s.misses).sum::<u64>());
    assert_eq!(
        agg.inserts,
        per_shard.iter().map(|s| s.inserts).sum::<u64>()
    );
    assert!(agg.inserts >= keys.len() as u64);
    // The server's stats snapshot carries the un-summed vector too.
    assert_eq!(server.stats().per_shard, per_shard);
}

/// JSONL shards compact independently: compacting one shard reclaims
/// its duplicate lines and bumps *its* epoch only, while every other
/// shard (and the whole facade) keeps serving reads throughout.
#[test]
fn jsonl_shard_compaction_is_per_shard_and_epoch_bumped() {
    let dir = tempdir();
    let service = stencil_tunestore::TuneService::new(
        Arc::new(ShardedStore::open_dir(&dir, 3).unwrap()) as Arc<dyn TuneStore>,
        Arc::new(EvalContext::new()),
    );

    // Write each key twice (re-put on resolve refresh) so shard files
    // accumulate superseded lines.
    let mut reqs = Vec::new();
    for (order, seed) in [(2, 1), (4, 1), (2, 2), (4, 2), (2, 3), (4, 3)] {
        reqs.push(request(DeviceSpec::gtx580(), order, seed));
    }
    for req in &reqs {
        let resp = service.resolve(req);
        // Duplicate the line on disk deliberately.
        service.store().put(&stencil_tunestore::TuneRecord {
            key: req.key(),
            best: resp.best.config,
            mpoints: resp.best.mpoints,
            evaluated: resp.evaluated,
        });
    }

    // Reopen through the sharded facade under test.
    drop(service);
    let store = ShardedStore::open_dir(&dir, 3).unwrap();
    assert_eq!(store.len(), reqs.len(), "duplicates collapse on read");
    let dirty: Vec<usize> = (0..3).filter(|&i| store.shard_lens()[i] > 0).collect();
    let victim = dirty[0];

    assert_eq!(store.epochs(), vec![0, 0, 0]);
    let reclaimed = store.compact_shard(victim).unwrap();
    assert!(reclaimed > 0, "superseded lines were reclaimed");
    let epochs = store.epochs();
    assert_eq!(epochs[victim], 1, "compacted shard's epoch bumped");
    for (i, &e) in epochs.iter().enumerate() {
        if i != victim {
            assert_eq!(e, 0, "other shards' epochs untouched");
        }
    }
    // Every record is still served after the rewrite.
    for req in &reqs {
        assert!(store.get(&req.key()).is_some());
    }
    // A whole-store pass compacts the rest and reports per shard.
    let report = store.compact().unwrap();
    assert_eq!(report.reclaimed.len(), 3);
    assert_eq!(report.epochs[victim], 2);
    assert_eq!(store.len(), reqs.len());

    std::fs::remove_dir_all(&dir).ok();
}

/// The key index lives in the process, not the store: a server
/// reopened over the same shard files starts with an empty index,
/// folds each hash once, and serves the hashes the first server did.
#[test]
fn a_reopened_store_starts_with_an_empty_key_index() {
    let dir = tempdir();
    let reqs: Vec<TuneRequest> = [(2, 1), (4, 1), (2, 2)]
        .into_iter()
        .map(|(order, seed)| request(DeviceSpec::gtx580(), order, seed))
        .collect();
    let config = ServerConfig {
        pool_limit: 1,
        lru_capacity: 0, // every repeat reaches the index
    };
    let first = TuneServer::new(
        Arc::new(ShardedStore::open_dir(&dir, 2).unwrap()),
        Arc::new(EvalContext::new()),
        config,
    );
    let hashes: Vec<u64> = reqs
        .iter()
        .map(|req| {
            let outcome = first.resolve(&ServeRequest::unbounded(req.clone()));
            outcome.served().expect("computed").response.key_hash
        })
        .collect();
    assert_eq!(first.key_index_len(), reqs.len());
    drop(first);

    let reopened = TuneServer::new(
        Arc::new(ShardedStore::open_dir(&dir, 2).unwrap()),
        Arc::new(EvalContext::new()),
        ServerConfig {
            pool_limit: 0, // serves what the files hold, computes nothing
            lru_capacity: 0,
        },
    );
    assert_eq!(reopened.store().len(), reqs.len());
    assert_eq!(reopened.key_index_len(), 0);
    for _ in 0..2 {
        for (req, &hash) in reqs.iter().zip(&hashes) {
            let outcome = reopened.resolve(&ServeRequest::unbounded(req.clone()));
            let served = outcome.served().expect("served from the files");
            assert_eq!(served.tier, ServeTier::Store);
            assert_eq!(served.response.key_hash, hash);
            assert_eq!(hash, req.stable_hash());
        }
    }
    let index = reopened.stats().index;
    assert_eq!((index.misses, index.hits), (3, 3), "one fold per identity");
    assert_eq!(reopened.key_index_len(), reqs.len());

    std::fs::remove_dir_all(&dir).ok();
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tuneserve-shard-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
