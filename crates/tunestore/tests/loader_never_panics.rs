//! Never-panic property for the `JsonlDiskStore` loader: whatever bytes
//! sit in the store file, `open` returns, `get` of every key that was
//! written returns, every line the record parser refuses is counted as
//! `corrupt` or `stale`, and a record whose checksum was not recomputed
//! over damage is only ever served intact.
//!
//! Inputs: arbitrary bytes, and files of valid records damaged by byte
//! flips, truncation, inserted `\r`/`\n` and non-UTF-8 runs. Some
//! damaged payloads are re-checksummed, so the damage reaches the JSON
//! parser and the field checks behind the checksum gate.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use gpu_sim::{fnv1a, DeviceSpec, GridDims};
use inplane_core::{KernelSpec, LaunchConfig, Method, Variant};
use proptest::prelude::*;
use stencil_autotune::ParameterSpace;
use stencil_grid::Precision;
use stencil_tunestore::{JsonlDiskStore, TuneKey, TuneRecord, TuneStore, TunerKind};

/// The frame around a record's payload: `{"crc":"<16 hex>","rec":…}`.
const CRC_PREFIX: &str = "{\"crc\":\"";
const REC_INFIX: &str = "\",\"rec\":";

/// A few distinct valid records (built once: keys hash the space).
fn records() -> &'static [TuneRecord] {
    static RECORDS: OnceLock<Vec<TuneRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 32);
        let mut out = Vec::new();
        for (i, order) in [2usize, 4, 8].into_iter().enumerate() {
            let k = KernelSpec::star_order(
                Method::InPlane(Variant::FullSlice),
                order,
                Precision::Single,
            );
            let space = ParameterSpace::quick_space(&dev, &k, &dims);
            for seed in [1u64, 2] {
                out.push(TuneRecord {
                    key: TuneKey::new(&dev, &k, dims, &space, TunerKind::Exhaustive, seed),
                    best: LaunchConfig::new(64, 4, 2, 1),
                    mpoints: 1000.0 * (i + 1) as f64 + seed as f64 / 3.0,
                    evaluated: 40 + seed,
                });
            }
        }
        out
    })
}

/// A fresh store path of its own.
fn scratch_path() -> PathBuf {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("tunestore-loader-{}-{t}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("store.jsonl")
}

/// Lines the loader must refuse: every non-blank line (split on `\n`,
/// one trailing `\r` dropped) that is not UTF-8 or that the record
/// parser rejects.
fn unreadable_lines(bytes: &[u8]) -> u64 {
    bytes
        .split(|&b| b == b'\n')
        .map(|raw| raw.strip_suffix(b"\r").unwrap_or(raw))
        .filter(|raw| match std::str::from_utf8(raw) {
            Err(_) => true,
            Ok(line) => !line.trim().is_empty() && TuneRecord::from_jsonl(line).is_err(),
        })
        .count() as u64
}

/// Open a store over `bytes`; check the accounting and get every
/// written key. Unless `rechecksummed` (a damaged payload then carries a
/// valid checksum and may be served as written), a key is served intact
/// or not at all.
fn open_and_check(path: &Path, bytes: &[u8], rechecksummed: bool) -> Result<(), TestCaseError> {
    std::fs::write(path, bytes).unwrap();
    let store = JsonlDiskStore::open(path).expect("content never fails the open");
    let stats = store.stats();
    prop_assert_eq!(stats.corrupt + stats.stale, unreadable_lines(bytes));
    for rec in records() {
        match store.get(&rec.key) {
            Some(got) if !rechecksummed => {
                prop_assert_eq!(&got, rec);
                prop_assert_eq!(got.mpoints.to_bits(), rec.mpoints.to_bits());
            }
            _ => {}
        }
    }
    let _ = store.records();
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    Ok(())
}

/// Replace the checksum of every framed line with its payload's, so a
/// damaged payload reaches the parser.
fn rechecksum(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    for (i, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        if i > 0 {
            out.push(b'\n');
        }
        let framed = std::str::from_utf8(raw).ok().and_then(|line| {
            let rest = line.strip_prefix(CRC_PREFIX)?;
            let payload = rest.get(16..)?.strip_prefix(REC_INFIX)?.strip_suffix('}')?;
            Some(format!(
                "{CRC_PREFIX}{:016x}{REC_INFIX}{payload}}}",
                fnv1a(payload.as_bytes())
            ))
        });
        match framed {
            Some(line) => out.extend_from_slice(line.as_bytes()),
            None => out.extend_from_slice(raw),
        }
    }
    out
}

/// Bytes a damaging edit writes: JSON structure, digits, line breaks
/// and bytes that are never valid UTF-8 on their own.
const EDIT_BYTES: &[u8] = b"{}[]\":,.-+0123456789eEtrufalsn \\\r\n\x80\xbf\xc3\xe2\xf0\xff";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_loader(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        open_and_check(&scratch_path(), &bytes, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_records_never_panic_the_loader(
        picks in prop::collection::vec(0usize..6, 1..8),
        edits in prop::collection::vec((any::<u64>(), any::<u8>(), 0u8..5), 0..6),
        truncate in any::<u64>(),
        truncated in any::<bool>(),
        rechecksummed in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        for &i in &picks {
            bytes.extend_from_slice(records()[i].to_jsonl().as_bytes());
            bytes.push(b'\n');
        }
        for &(at, b, op) in &edits {
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            let b = EDIT_BYTES[b as usize % EDIT_BYTES.len()];
            match op {
                // Flip a bit, overwrite, insert a line break, insert a
                // non-UTF-8 run, delete.
                0 if at < bytes.len() => bytes[at] ^= 1 << (b % 8),
                1 if at < bytes.len() => bytes[at] = b,
                2 => bytes.insert(at, if b.is_multiple_of(2) { b'\n' } else { b'\r' }),
                3 => {
                    bytes.splice(at..at, [0xff, 0xc3, b, 0x80]);
                }
                4 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        if truncated {
            bytes.truncate((truncate % (bytes.len() as u64 + 1)) as usize);
        }
        if rechecksummed {
            bytes = rechecksum(&bytes);
        }
        open_and_check(&scratch_path(), &bytes, rechecksummed)?;
    }
}

#[test]
fn intact_records_are_all_served() {
    let mut bytes = Vec::new();
    for rec in records() {
        bytes.extend_from_slice(rec.to_jsonl().as_bytes());
        bytes.extend_from_slice(b"\r\n");
    }
    let path = scratch_path();
    std::fs::write(&path, &bytes).unwrap();
    let store = JsonlDiskStore::open(&path).unwrap();
    assert_eq!(store.len(), records().len());
    for rec in records() {
        assert_eq!(store.get(&rec.key).as_ref(), Some(rec));
    }
    assert_eq!(store.stats().corrupt + store.stats().stale, 0);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}
