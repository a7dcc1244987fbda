//! Store robustness: the disk format must survive every realistic
//! failure mode — reopen, torn tails, flipped bytes, stale schemas —
//! by degrading to a re-tune, never by panicking; and the service must
//! collapse concurrent identical requests onto one computation.

use std::sync::{Arc, Barrier};

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, Method, Variant};
use stencil_autotune::{ParameterSpace, Provenance};
use stencil_grid::Precision;
use stencil_tunestore::{
    JsonlDiskStore, TuneKey, TuneRecord, TuneRequest, TuneService, TuneStore, TunerKind, TunerSpec,
};

fn scratch_path(tag: &str) -> std::path::PathBuf {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("tunestore-{tag}-{}-{t}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("store.jsonl")
}

fn kernel(order: usize) -> KernelSpec {
    KernelSpec::star_order(
        Method::InPlane(Variant::FullSlice),
        order,
        Precision::Single,
    )
}

fn sample_record(order: usize, seed: u64, mpoints: f64) -> TuneRecord {
    let dev = DeviceSpec::gtx580();
    let k = kernel(order);
    let dims = GridDims::new(256, 256, 32);
    let space = ParameterSpace::quick_space(&dev, &k, &dims);
    TuneRecord {
        key: TuneKey::new(&dev, &k, dims, &space, TunerKind::Exhaustive, seed),
        best: LaunchConfig::new(64, 4, 2, 1),
        mpoints,
        evaluated: 99,
    }
}

#[test]
fn round_trip_and_reopen_after_append() {
    let path = scratch_path("reopen");
    let a = sample_record(2, 1, 1000.5);
    let b = sample_record(4, 1, 2000.25);
    {
        let store = JsonlDiskStore::open(&path).unwrap();
        store.put(&a);
        store.put(&b);
        assert_eq!(store.len(), 2);
    }
    // Reopen: both records live, bit-exact.
    let store = JsonlDiskStore::open(&path).unwrap();
    assert_eq!(store.len(), 2);
    let got = store.get(&a.key).expect("record a survives reopen");
    assert_eq!(got, a);
    assert_eq!(got.mpoints.to_bits(), a.mpoints.to_bits());
    assert_eq!(store.get(&b.key).expect("record b survives reopen"), b);
    assert_eq!(store.stats().hits, 2);
    // Appending after reopen keeps earlier records.
    let c = sample_record(8, 1, 3000.0);
    store.put(&c);
    let store = JsonlDiskStore::open(&path).unwrap();
    assert_eq!(store.len(), 3);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn newest_record_per_key_wins() {
    let path = scratch_path("newest");
    let old = sample_record(2, 1, 111.0);
    let mut new = old.clone();
    new.mpoints = 222.0;
    {
        let store = JsonlDiskStore::open(&path).unwrap();
        store.put(&old);
        store.put(&new);
    }
    let store = JsonlDiskStore::open(&path).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.get(&old.key).unwrap().mpoints, 222.0);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn truncated_final_line_is_skipped_and_counted() {
    let path = scratch_path("torn");
    let a = sample_record(2, 1, 1000.0);
    let b = sample_record(4, 1, 2000.0);
    {
        let store = JsonlDiskStore::open(&path).unwrap();
        store.put(&a);
        store.put(&b);
    }
    // Simulate a crash mid-append: cut the file inside the last line.
    let text = std::fs::read_to_string(&path).unwrap();
    let cut = text.len() - 25;
    std::fs::write(&path, &text[..cut]).unwrap();
    let store = JsonlDiskStore::open(&path).unwrap();
    assert_eq!(store.len(), 1, "only the intact line survives");
    assert!(store.get(&a.key).is_some());
    assert!(store.get(&b.key).is_none());
    assert_eq!(store.stats().corrupt, 1);
    assert_eq!(store.stats().stale, 0);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn checksum_corrupted_record_is_skipped_and_counted() {
    let path = scratch_path("crc");
    let a = sample_record(2, 1, 1000.0);
    let b = sample_record(4, 1, 2000.0);
    {
        let store = JsonlDiskStore::open(&path).unwrap();
        store.put(&a);
        store.put(&b);
    }
    // Flip one digit inside the first line's payload.
    let text = std::fs::read_to_string(&path).unwrap();
    let idx = text.find("\"evaluated\":99").unwrap() + "\"evaluated\":".len();
    let mut bytes = text.into_bytes();
    bytes[idx] = b'7';
    std::fs::write(&path, bytes).unwrap();
    let store = JsonlDiskStore::open(&path).unwrap();
    assert_eq!(store.len(), 1);
    assert!(
        store.get(&a.key).is_none(),
        "tampered record must not serve"
    );
    assert!(store.get(&b.key).is_some());
    assert_eq!(store.stats().corrupt, 1);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn schema_version_mismatch_evicts_the_record() {
    let path = scratch_path("schema");
    let a = sample_record(2, 1, 1000.0);
    {
        let store = JsonlDiskStore::open(&path).unwrap();
        store.put(&a);
    }
    // Rewrite the line to claim schema version 0 with a valid checksum
    // (the record parser re-checksums, so fabricate via the public
    // format: easiest is to corrupt v and re-frame through TuneRecord's
    // own serialization of a doctored line).
    let text = std::fs::read_to_string(&path).unwrap();
    let payload_start = text.find(",\"rec\":").unwrap() + ",\"rec\":".len();
    let payload = text[payload_start..].trim_end().strip_suffix('}').unwrap();
    let old_payload = payload.replacen("{\"v\":1,", "{\"v\":0,", 1);
    // FNV-1a, the store's checksum.
    let crc = gpu_sim::fnv1a(old_payload.as_bytes());
    std::fs::write(
        &path,
        format!("{{\"crc\":\"{crc:016x}\",\"rec\":{old_payload}}}\n"),
    )
    .unwrap();
    let store = JsonlDiskStore::open(&path).unwrap();
    assert_eq!(store.len(), 0);
    assert_eq!(store.stats().stale, 1);
    assert_eq!(store.stats().corrupt, 0);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn garbage_and_blank_lines_never_panic() {
    let path = scratch_path("garbage");
    let a = sample_record(2, 1, 1000.0);
    {
        let store = JsonlDiskStore::open(&path).unwrap();
        store.put(&a);
    }
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("\nnot json\n\n{\"crc\":\"zz\"}\n{}\n");
    std::fs::write(&path, text).unwrap();
    let store = JsonlDiskStore::open(&path).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.stats().corrupt, 3, "blank lines are not counted");
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn compaction_keeps_newest_per_key_atomically() {
    let path = scratch_path("compact");
    let store = JsonlDiskStore::open(&path).unwrap();
    for round in 0..4u64 {
        for order in [2usize, 4] {
            store.put(&sample_record(order, 1, 100.0 * (round + 1) as f64));
        }
    }
    assert_eq!(store.len(), 2);
    let reclaimed = store.compact().unwrap();
    assert_eq!(reclaimed, 6, "8 appended lines collapse to 2");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 2);
    // Compacted file reloads cleanly with the newest values.
    let store = JsonlDiskStore::open(&path).unwrap();
    assert_eq!(store.len(), 2);
    assert_eq!(
        store.get(&sample_record(2, 1, 0.0).key).unwrap().mpoints,
        400.0
    );
    assert_eq!(store.stats().skipped(), 0);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn concurrent_identical_requests_single_flight() {
    const N: usize = 8;
    let dev = DeviceSpec::gtx580();
    let k = kernel(4);
    let dims = GridDims::new(256, 256, 32);
    let space = ParameterSpace::quick_space(&dev, &k, &dims);
    let svc = Arc::new(TuneService::new(
        Arc::new(stencil_tunestore::MemStore::new()),
        Arc::new(EvalContext::new()),
    ));
    let req = TuneRequest {
        device: dev,
        kernel: k,
        dims,
        space,
        tuner: TunerSpec::Exhaustive,
        seed: 5,
    };
    let barrier = Arc::new(Barrier::new(N));
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let req = req.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    svc.resolve(&req)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = svc.stats();
    assert_eq!(stats.computed, 1, "exactly one worker computes");
    assert_eq!(
        stats.computed + stats.shared + stats.served_from_store,
        N as u64
    );
    for r in &responses {
        assert_eq!(r.best.config, responses[0].best.config);
        assert_eq!(
            r.best.mpoints.to_bits(),
            responses[0].best.mpoints.to_bits()
        );
    }
    // A later request is served from the store.
    let late = svc.resolve(&req);
    assert_eq!(late.provenance, Provenance::Store);
}

#[test]
fn warm_start_seeds_model_based_from_sibling_device() {
    let d580 = DeviceSpec::gtx580();
    let d680 = DeviceSpec::gtx680();
    let k = kernel(4);
    let dims = GridDims::new(256, 256, 32);
    let svc = TuneService::new(
        Arc::new(stencil_tunestore::MemStore::new()),
        Arc::new(EvalContext::new()),
    );
    // Tune exhaustively on the GTX580 to seed the store.
    let cold = svc.resolve(&TuneRequest {
        device: d580.clone(),
        kernel: k.clone(),
        dims,
        space: ParameterSpace::quick_space(&d580, &k, &dims),
        tuner: TunerSpec::Exhaustive,
        seed: 1,
    });
    assert_eq!(cold.provenance, Provenance::Computed);
    // A model-based run for the same kernel on the GTX680 warm-starts
    // from the stored GTX580 optimum (unless the model's own top β%
    // already contains it, in which case it stays Computed — with the
    // tiny β used here the injected seed is measured as an extra).
    let space680 = ParameterSpace::quick_space(&d680, &k, &dims);
    let warm = svc.resolve(&TuneRequest {
        device: d680,
        kernel: k,
        dims,
        space: space680,
        tuner: TunerSpec::ModelBased { beta_percent: 1.0 },
        seed: 1,
    });
    assert!(
        matches!(
            warm.provenance,
            Provenance::WarmStarted | Provenance::Computed
        ),
        "unexpected provenance {:?}",
        warm.provenance
    );
    let stats = svc.stats();
    assert_eq!(stats.warm_started + stats.computed, 2);
}
