//! In-batch dedup and the traced resolve primitives: duplicates inside
//! one `resolve_batch` call collapse onto a single search, and the
//! serving-layer primitives (`try_resolve_cached`, `wait_if_inflight`,
//! `resolve_traced`) report the path that actually served them.

use std::sync::Arc;

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, Method, Variant};
use stencil_autotune::ParameterSpace;
use stencil_grid::Precision;
use stencil_tunestore::{MemStore, ResolveTrace, TuneRequest, TuneService, TunerSpec};

fn service() -> TuneService {
    TuneService::new(Arc::new(MemStore::new()), Arc::new(EvalContext::new()))
}

fn request(order: usize, seed: u64) -> TuneRequest {
    let device = DeviceSpec::gtx580();
    let kernel = KernelSpec::star_order(
        Method::InPlane(Variant::FullSlice),
        order,
        Precision::Single,
    );
    let dims = GridDims::new(128, 128, 32);
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

/// A batch carrying the same key five times (plus one distinct key)
/// runs exactly two searches; the four duplicate slots are counted
/// `shared` and served responses identical to their canonical slot.
#[test]
fn batch_duplicates_collapse_to_one_search() {
    let svc = service();
    let a = request(2, 1);
    let b = request(4, 1);
    let batch = vec![a.clone(), a.clone(), b, a.clone(), a.clone(), a];

    let responses = svc.resolve_batch(&batch);
    assert_eq!(responses.len(), 6);
    let stats = svc.stats();
    assert_eq!(stats.computed, 2, "one search per distinct key");
    assert_eq!(stats.shared, 4, "four in-batch duplicates shared");
    assert_eq!(stats.served_from_store, 0);
    for dup in [1, 3, 4, 5] {
        assert_eq!(responses[dup], responses[0], "slot {dup} mirrors slot 0");
    }
    assert_ne!(responses[2].key_hash, responses[0].key_hash);
    // Output order matches input order: slot 2 is the other key.
    assert_eq!(responses[2].key_hash, svc.resolve(&batch[2]).key_hash);
}

/// Duplicates in a *second* batch are store hits, not re-shares: the
/// dedup only spans one batch, persistence spans all of them.
#[test]
fn second_batch_is_served_from_the_store() {
    let svc = service();
    let a = request(2, 3);
    svc.resolve_batch(&[a.clone(), a.clone()]);
    let before = svc.stats();
    assert_eq!(before.computed, 1);
    assert_eq!(before.shared, 1);

    let responses = svc.resolve_batch(&[a.clone(), a]);
    let after = svc.stats();
    assert_eq!(after.computed, 1, "no re-search on a warm store");
    assert_eq!(after.served_from_store, 1, "canonical slot hit the store");
    assert_eq!(after.shared, 2, "the duplicate slot deduped in-batch");
    assert_eq!(responses[0], responses[1]);
}

/// The traced resolve distinguishes leading from store-hit serving, and
/// the serving-layer primitives never start work of their own.
#[test]
fn traced_primitives_report_their_path() {
    let svc = service();
    let req = request(4, 9);
    let key = req.key();
    let hash = key.stable_hash();

    // Nothing cached, nothing in flight: the cheap probes decline.
    assert!(svc.try_resolve_cached(&key).is_none());
    assert!(svc.wait_if_inflight(hash).is_none());
    assert_eq!(svc.stats().computed, 0, "probes started no search");

    let (led, trace) = svc.resolve_traced(&req, &key);
    assert_eq!(trace, ResolveTrace::Led);

    // Now the store answers — both through the probe and the resolve.
    let cached = svc.try_resolve_cached(&key).expect("store is warm");
    assert_eq!(cached.best, led.best);
    let (again, trace) = svc.resolve_traced(&req, &key);
    assert_eq!(trace, ResolveTrace::Store);
    assert_eq!(again.best, led.best);
    assert_eq!(svc.stats().computed, 1);
}
