//! Concurrency proofs: the serving layer's cores driven under the
//! `conc-check` model.
//!
//! Each `prove_*` function explores the bounded-exhaustive schedule
//! space (interleavings × injected leader panics × spurious condvar
//! wakeups) of one shipped component — the real [`ComputePool`], the
//! real [`HotKeyLru`], the real [`ShardedStore`], the real
//! [`SingleFlight`] — and returns
//! the checker's [`CheckReport`]. A clean report is a proof over the
//! explored space, not a lucky run: the scheduler, not the OS,
//! decides every interleaving, and the report says how many
//! schedules that covered.
//!
//! The tier-1 test (`tests/conc_proofs.rs`) runs these with a small
//! budget; the `conc` bench binary runs them with a large one and
//! writes the schedule counts into `BENCH_conc.json`.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use conc_check::sync::{fault, thread, AtomicU64, AtomicUsize};
use conc_check::{cck_assert, CheckReport, Checker};
use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{KernelSpec, LaunchConfig, Method, Variant};
use stencil_autotune::{ParameterSpace, Provenance, TuneSample};
use stencil_grid::Precision;
use stencil_tunestore::{
    Joined, RequestIdentity, SingleFlight, TuneKey, TuneRecord, TuneResponse, TuneStore, TunerKind,
};

use crate::admission::ComputePool;
use crate::lru::HotKeyLru;
use crate::shard::ShardedStore;

/// One named proof and its exploration report.
pub struct ProofOutcome {
    /// Stable proof name (report keys).
    pub name: &'static str,
    /// What the proof asserts, one line.
    pub claim: &'static str,
    /// The checker's report.
    pub report: CheckReport,
}

/// Run every proof with `budget` schedules each.
pub fn run_all(budget: u64) -> Vec<ProofOutcome> {
    vec![
        ProofOutcome {
            name: "pool_admission",
            claim: "saturated pool sheds without blocking; permits never over-admit \
                    and always return",
            report: prove_pool_admission(budget),
        },
        ProofOutcome {
            name: "permit_unwind",
            claim: "a panicking permit holder still frees its slot (no leak on any \
                    unwind schedule)",
            report: prove_permit_unwind(budget),
        },
        ProofOutcome {
            name: "singleflight_burst",
            claim: "a duplicate burst computes exactly once; dying leaders never \
                    strand waiters",
            report: prove_singleflight_burst(budget),
        },
        ProofOutcome {
            name: "lru_adversarial",
            claim: "concurrent insert/hit/evict keeps the LRU bounded and its \
                    counters consistent",
            report: prove_lru_adversarial(budget),
        },
        ProofOutcome {
            name: "shard_isolation",
            claim: "compacting one shard never disturbs traffic on another",
            report: prove_shard_isolation(budget),
        },
    ]
}

/// True when every proof in `outcomes` is clean.
pub fn all_ok(outcomes: &[ProofOutcome]) -> bool {
    outcomes.iter().all(|o| o.report.ok())
}

/// Total distinct schedules executed across `outcomes`.
pub fn total_schedules(outcomes: &[ProofOutcome]) -> u64 {
    outcomes.iter().map(|o| o.report.schedules).sum()
}

/// Saturated-pool admission: under every interleaving of competing
/// `try_acquire`s, at most `limit` permits are simultaneously held,
/// refusals return immediately (the checker would report any blocked
/// schedule as a deadlock), and every permit returns on drop.
pub fn prove_pool_admission(budget: u64) -> CheckReport {
    Checker::with_budget(budget).check(|| {
        let pool = Arc::new(ComputePool::new(1));
        let holders = Arc::new(AtomicUsize::new_named(0, "proof.holders"));
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let pool = Arc::clone(&pool);
                let holders = Arc::clone(&holders);
                thread::spawn_named(&format!("acquirer-{i}"), move || match pool.try_acquire() {
                    Ok(permit) => {
                        let now = holders.fetch_add(1, Ordering::AcqRel) + 1;
                        cck_assert!(
                            now <= pool.limit(),
                            "CCK-004",
                            "{now} permits held at once with limit {}",
                            pool.limit()
                        );
                        holders.fetch_sub(1, Ordering::AcqRel);
                        drop(permit);
                        true
                    }
                    Err(reason) => {
                        cck_assert!(
                            reason.code() == "SRV-001",
                            "CCK-004",
                            "saturated pool shed with wrong code {}",
                            reason.code()
                        );
                        false
                    }
                })
            })
            .collect();
        let admitted = workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .filter(|&got_permit| got_permit)
            .count();
        cck_assert!(
            admitted >= 1,
            "CCK-004",
            "a 1-permit pool admitted nobody out of 4"
        );
        cck_assert!(
            pool.in_use() == 0,
            "CCK-003",
            "{} permits leaked after all workers finished",
            pool.in_use()
        );
        let stats = pool.stats();
        cck_assert!(
            stats.admitted + stats.shed_saturated == 4,
            "CCK-004",
            "admission counters torn: {} admitted + {} shed != 4",
            stats.admitted,
            stats.shed_saturated
        );
    })
}

/// Permit-leak hardening: a holder that panics at an injected fault
/// point still returns its permit through the RAII drop — `in_use`
/// is back to zero on every schedule, including every panic arm.
pub fn prove_permit_unwind(budget: u64) -> CheckReport {
    Checker::with_budget(budget).check(|| {
        let pool = Arc::new(ComputePool::new(2));
        let workers: Vec<_> = (0..3)
            .map(|i| {
                let pool = Arc::clone(&pool);
                thread::spawn_named(&format!("holder-{i}"), move || {
                    if let Ok(_permit) = pool.try_acquire() {
                        // The panic arm of this point unwinds through
                        // the permit's Drop.
                        fault::point(0xA0 + i);
                    }
                })
            })
            .collect();
        for w in workers {
            let _ = w.join();
        }
        cck_assert!(
            pool.in_use() == 0,
            "CCK-003",
            "{} permits leaked across an unwind",
            pool.in_use()
        );
    })
}

/// The K-thread duplicate burst: all surviving threads observe one
/// identical value, the compute runs at most once (exactly once when
/// anyone survives), and a leader killed at the injected fault point
/// never strands its waiters — they retry and one of them leads.
pub fn prove_singleflight_burst(budget: u64) -> CheckReport {
    Checker::with_budget(budget).check(|| {
        let flights: Arc<SingleFlight<u64>> = Arc::new(SingleFlight::new());
        let computes = Arc::new(AtomicU64::new_named(0, "proof.computes"));
        let published = Arc::new(AtomicU64::new_named(0, "proof.store"));
        let resolve = {
            let flights = Arc::clone(&flights);
            let computes = Arc::clone(&computes);
            let published = Arc::clone(&published);
            move || -> u64 {
                // The service's shape: store check, then single-flight,
                // retrying past failed flights.
                loop {
                    let stored = published.load(Ordering::Acquire);
                    if stored != 0 {
                        return stored;
                    }
                    match flights.join(9) {
                        Joined::Shared(v) => return v,
                        Joined::Retry => continue,
                        Joined::Lead(leadership) => {
                            // The service's leader-side store re-check:
                            // a previous leader may have published and
                            // retired its flight between this thread's
                            // store miss and its election. Without this,
                            // the checker exhibits a duplicate compute.
                            let stored = published.load(Ordering::Acquire);
                            if stored != 0 {
                                leadership.publish(stored);
                                return stored;
                            }
                            computes.fetch_add(1, Ordering::AcqRel);
                            published.store(42, Ordering::Release);
                            leadership.publish(42);
                            return 42;
                        }
                    }
                }
            }
        };
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let resolve = resolve.clone();
                thread::spawn_named(&format!("burst-{i}"), resolve)
            })
            .collect();
        let mut survivors = 0u64;
        for w in workers {
            if let Ok(v) = w.join() {
                survivors += 1;
                cck_assert!(
                    v == 42,
                    "CCK-005",
                    "a burst member observed {v} instead of the published 42"
                );
            }
        }
        let ran = computes.load(Ordering::Acquire);
        if survivors > 0 {
            cck_assert!(
                ran == 1,
                "CCK-005",
                "duplicate burst computed {ran} times for one key"
            );
        } else {
            cck_assert!(
                ran == 0,
                "CCK-005",
                "computed {ran} times yet every thread died pre-publish"
            );
        }
        cck_assert!(
            flights.inflight_len() == 0,
            "CCK-003",
            "{} flights leaked after the burst drained",
            flights.inflight_len()
        );
    })
}

fn proof_response(tag: u64) -> TuneResponse {
    let best = TuneSample {
        config: LaunchConfig::new(32, 4, 1, 1),
        mpoints: tag as f64,
    };
    TuneResponse {
        best,
        evaluated: tag,
        samples: vec![best],
        provenance: Provenance::Computed,
        key_hash: tag,
    }
}

/// The identity of a small exhaustive request under noise seed
/// `seed`: distinct seeds give distinct identities.
pub(crate) fn proof_identity(seed: u64) -> RequestIdentity {
    let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single);
    RequestIdentity::new(
        &DeviceSpec::gtx580(),
        &kernel,
        GridDims::new(32, 32, 8),
        TunerKind::Exhaustive,
        seed,
        0,
    )
}

/// Adversarial LRU traffic: concurrent puts and gets over a capacity-2
/// cache with three keys. Under every interleaving the cache stays
/// bounded, the lazily-invalidated recency queue respects its sweep
/// bound, and the counters reconcile (`inserts - evictions == len`,
/// `hits + misses == gets`).
pub fn prove_lru_adversarial(budget: u64) -> CheckReport {
    let ids: Arc<Vec<RequestIdentity>> = Arc::new((0..=3).map(proof_identity).collect());
    Checker::with_budget(budget).check(move || {
        let lru = Arc::new(HotKeyLru::new(2));
        let gets = Arc::new(AtomicU64::new_named(0, "proof.gets"));
        let workers: Vec<_> = (0..3)
            .map(|i| {
                let lru = Arc::clone(&lru);
                let gets = Arc::clone(&gets);
                let ids = Arc::clone(&ids);
                thread::spawn_named(&format!("lru-{i}"), move || {
                    let key = i as u64 + 1;
                    lru.put(ids[key as usize].clone(), proof_response(key));
                    lru.get(&ids[key as usize]);
                    gets.fetch_add(1, Ordering::AcqRel);
                    lru.put(ids[3].clone(), proof_response(3));
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = lru.stats();
        cck_assert!(
            stats.len <= lru.capacity() as u64,
            "CCK-004",
            "cache holds {} entries over its bound {}",
            stats.len,
            lru.capacity()
        );
        cck_assert!(
            stats.inserts - stats.evictions == stats.len,
            "CCK-004",
            "torn LRU counters: {} inserts - {} evictions != {} resident",
            stats.inserts,
            stats.evictions,
            stats.len
        );
        cck_assert!(
            stats.hits + stats.misses == gets.load(Ordering::Acquire),
            "CCK-004",
            "torn hit/miss counters: {} + {} != {}",
            stats.hits,
            stats.misses,
            gets.load(Ordering::Acquire)
        );
        cck_assert!(
            lru.queue_len() <= 4 * lru.capacity() + 16 + 1,
            "CCK-004",
            "recency queue grew to {} past its sweep bound",
            lru.queue_len()
        );
    })
}

/// Two records whose stable hashes route to shards 0 and 1 of a
/// two-way store (found by seed search; pure, so cheap).
fn records_on_distinct_shards() -> (TuneRecord, TuneRecord) {
    let device = DeviceSpec::gtx580();
    let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single);
    let dims = GridDims::new(32, 32, 8);
    let space = ParameterSpace::quick_space(&device, &kernel, &dims);
    let key_for = |seed: u64| {
        TuneKey::new(
            &device,
            &kernel,
            dims,
            &space,
            stencil_tunestore::TunerKind::Exhaustive,
            seed,
        )
    };
    let mut on_zero = None;
    let mut on_one = None;
    for seed in 0..64 {
        let key = key_for(seed);
        let slot = key.stable_hash() % 2;
        if slot == 0 && on_zero.is_none() {
            on_zero = Some(key);
        } else if slot == 1 && on_one.is_none() {
            on_one = Some(key);
        }
        if on_zero.is_some() && on_one.is_some() {
            break;
        }
    }
    let rec = |key: TuneKey| TuneRecord {
        key,
        best: LaunchConfig::new(32, 4, 1, 1),
        mpoints: 100.0,
        evaluated: 5,
    };
    (
        rec(on_zero.expect("a seed hashing to shard 0")),
        rec(on_one.expect("a seed hashing to shard 1")),
    )
}

/// Shard isolation: one thread compacts shard 0 in a loop while
/// another writes and reads a key on shard 1. Under every
/// interleaving the reader sees its own write verbatim and the
/// compaction epochs advance exactly as many times as compactions
/// ran.
pub fn prove_shard_isolation(budget: u64) -> CheckReport {
    let (rec0, rec1) = records_on_distinct_shards();
    Checker::with_budget(budget).check(move || {
        let store = Arc::new(ShardedStore::mem(2));
        store.put(&rec0);
        let compactor = {
            let store = Arc::clone(&store);
            thread::spawn_named("compactor", move || {
                for _ in 0..2 {
                    store
                        .compact_shard(0)
                        .expect("mem compaction is infallible");
                }
            })
        };
        let traffic = {
            let store = Arc::clone(&store);
            let rec1 = rec1.clone();
            thread::spawn_named("traffic", move || {
                store.put(&rec1);
                store.get(&rec1.key)
            })
        };
        let read_back = traffic.join().unwrap();
        compactor.join().unwrap();
        cck_assert!(
            read_back.as_ref().map(|r| r.evaluated) == Some(rec1.evaluated),
            "CCK-004",
            "a compaction of shard 0 disturbed a write on shard 1: read back {:?}",
            read_back.map(|r| r.evaluated)
        );
        let epochs = store.epochs();
        cck_assert!(
            epochs == vec![2, 0],
            "CCK-004",
            "epochs {epochs:?} after exactly two compactions of shard 0"
        );
        cck_assert!(
            store.shard_lens() == vec![1, 1],
            "CCK-004",
            "shard occupancy {:?} after one record each",
            store.shard_lens()
        );
    })
}
