//! Regression: a leader that panics mid-resolution must not poison
//! the service or strand its waiters. Before the `SingleFlight`
//! extraction the dead flight stayed in the inflight map, so every
//! later request for that key blocked forever on a condvar nobody
//! would ever signal — and the poisoned mutexes turned *unrelated*
//! requests into panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, Method, Variant};
use stencil_autotune::ParameterSpace;
use stencil_grid::Precision;
use stencil_tunestore::{
    BestConfig, MemStore, ResolveTrace, StoreStats, TuneKey, TuneRecord, TuneRequest, TuneService,
    TuneStore, TunerSpec,
};

/// Delegates to a [`MemStore`] but panics on the first `put` — the
/// leader dies *after* computing, mid-flight, with waiters possibly
/// parked.
struct FaultyStore {
    inner: MemStore,
    puts: AtomicU64,
    panic_on_put: u64,
}

impl FaultyStore {
    fn panicking_once() -> Self {
        FaultyStore {
            inner: MemStore::new(),
            puts: AtomicU64::new(0),
            panic_on_put: 0,
        }
    }
}

impl TuneStore for FaultyStore {
    fn get(&self, key: &TuneKey) -> Option<TuneRecord> {
        self.inner.get(key)
    }

    fn get_best(&self, hash: u64) -> Option<BestConfig> {
        self.inner.get_best(hash)
    }

    fn put(&self, record: &TuneRecord) {
        if self.puts.fetch_add(1, Ordering::SeqCst) == self.panic_on_put {
            panic!("injected: store write failed mid-flight");
        }
        self.inner.put(record);
    }

    fn records(&self) -> Vec<TuneRecord> {
        self.inner.records()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

fn request(seed: u64) -> TuneRequest {
    let device = DeviceSpec::gtx580();
    let kernel = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
    let dims = GridDims::new(64, 64, 8);
    let space = ParameterSpace::quick_space(&device, &kernel, &dims);
    TuneRequest {
        device,
        kernel,
        dims,
        space,
        tuner: TunerSpec::Exhaustive,
        seed,
    }
}

#[test]
fn panicking_leader_cleans_up_and_later_resolves_succeed() {
    let svc = TuneService::new(
        Arc::new(FaultyStore::panicking_once()),
        Arc::new(EvalContext::new()),
    );
    let req = request(1);

    let died = catch_unwind(AssertUnwindSafe(|| svc.resolve(&req)));
    assert!(died.is_err(), "first resolve must propagate the panic");

    // The flight must be retired despite the unwind...
    assert_eq!(svc.inflight_len(), 0, "dead flight left in the map");
    // ...and nobody can be left waiting on it.
    assert!(svc.wait_if_inflight(req.key().stable_hash()).is_none());

    // The same key resolves fine afterwards (store put now succeeds),
    // as do unrelated keys: nothing got poisoned.
    let (resp, trace) = svc.resolve_traced(&req, &req.key());
    assert_eq!(trace, ResolveTrace::Led);
    assert_eq!(svc.inflight_len(), 0);
    let (again, trace2) = svc.resolve_traced(&req, &req.key());
    assert_eq!(trace2, ResolveTrace::Store);
    assert_eq!(resp.best.config, again.best.config);
    let other = request(2);
    let (_, trace3) = svc.resolve_traced(&other, &other.key());
    assert_eq!(trace3, ResolveTrace::Led);
}

#[test]
fn concurrent_waiters_survive_a_dying_leader() {
    let svc = Arc::new(TuneService::new(
        Arc::new(FaultyStore::panicking_once()),
        Arc::new(EvalContext::new()),
    ));
    let req = request(3);

    // Several threads race the same key; exactly one put panics, so
    // exactly one thread dies. Everyone else must finish (retrying
    // past the failed flight, never hanging) with identical numbers.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let req = req.clone();
            std::thread::spawn(move || catch_unwind(AssertUnwindSafe(|| svc.resolve(&req))).ok())
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let died = results.iter().filter(|r| r.is_none()).count();
    assert_eq!(died, 1, "exactly the leader with the failing put dies");
    let bits: Vec<u64> = results
        .iter()
        .flatten()
        .map(|r| r.best.mpoints.to_bits())
        .collect();
    assert_eq!(bits.len(), 3);
    assert!(bits.windows(2).all(|w| w[0] == w[1]), "divergent responses");
    assert_eq!(svc.inflight_len(), 0);
}
