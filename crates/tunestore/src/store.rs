//! The persistence layer: a [`TuneStore`] trait with an in-memory
//! implementation and an append-only JSONL disk store.
//!
//! [`JsonlDiskStore`] is built for the failure modes a long-lived
//! autotune cache actually meets: a process killed mid-append leaves a
//! torn final line (skipped at load, counted), a flipped byte fails the
//! per-record checksum (skipped, counted), an old binary's records fail
//! the schema-version gate (evicted, counted), and repeated re-tuning
//! of the same key appends duplicates that [`JsonlDiskStore::compact`]
//! collapses to the newest per key via an atomic tmp+rename rewrite.
//! Loading never panics on file content.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use conc_check::sync::{AtomicU64, Mutex, RwLock};

use crate::key::BestConfig;
use crate::record::TuneRecord;
use crate::util::atomic_write;
use crate::TuneKey;

/// Snapshot of a store's behaviour counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Records written.
    pub inserts: u64,
    /// Persisted lines skipped as corrupt at load (framing, checksum,
    /// truncation, parse failures).
    pub corrupt: u64,
    /// Persisted lines evicted as stale at load (schema-version or
    /// key-hash mismatch).
    pub stale: u64,
    /// Append/flush failures (the in-memory view stays authoritative).
    pub io_errors: u64,
}

impl StoreStats {
    /// Corrupt + stale: everything the loader refused to serve.
    pub fn skipped(&self) -> u64 {
        self.corrupt + self.stale
    }

    /// The report-side mirror of these counters (corrupt and stale fold
    /// into one "refused to serve" figure).
    pub fn counters(&self) -> stencil_autotune::StoreCounters {
        stencil_autotune::StoreCounters {
            hits: self.hits,
            misses: self.misses,
            corrupt: self.skipped(),
        }
    }
}

/// A keyed store of tuning results.
///
/// Implementations are thread-safe; `get`/`put` may be called from any
/// number of workers concurrently.
pub trait TuneStore: Send + Sync {
    /// The newest record for `key`, if any.
    fn get(&self, key: &TuneKey) -> Option<TuneRecord>;
    /// The served fields of the newest record whose key has stable
    /// hash `hash`, if any — the serving path's probe: one lookup,
    /// counted like [`Self::get`], copying no key.
    fn get_best(&self, hash: u64) -> Option<BestConfig>;
    /// Insert (or replace) the record for its key.
    fn put(&self, record: &TuneRecord);
    /// Every live record, in unspecified order (used by warm-start
    /// donor scans).
    fn records(&self) -> Vec<TuneRecord>;
    /// Counter snapshot.
    fn stats(&self) -> StoreStats;
    /// Number of live (newest-per-key) records.
    fn len(&self) -> usize;
    /// True when no records are live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    corrupt: AtomicU64,
    stale: AtomicU64,
    io_errors: AtomicU64,
}

impl Counters {
    /// Count one lookup as a hit or a miss.
    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
        }
    }
}

/// Volatile in-memory store (process lifetime only).
#[derive(Default)]
pub struct MemStore {
    map: RwLock<HashMap<u64, TuneRecord>>,
    counters: Counters,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TuneStore for MemStore {
    fn get(&self, key: &TuneKey) -> Option<TuneRecord> {
        let found = self.map.read_recovered().get(&key.stable_hash()).cloned();
        self.counters.count(found.is_some());
        found
    }

    fn get_best(&self, hash: u64) -> Option<BestConfig> {
        let found = self
            .map
            .read_recovered()
            .get(&hash)
            .map(TuneRecord::best_config);
        self.counters.count(found.is_some());
        found
    }

    fn put(&self, record: &TuneRecord) {
        self.map
            .write_recovered()
            .insert(record.key.stable_hash(), record.clone());
        self.counters.inserts.fetch_add(1, Ordering::Relaxed);
    }

    fn records(&self) -> Vec<TuneRecord> {
        self.map.read_recovered().values().cloned().collect()
    }

    fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }

    fn len(&self) -> usize {
        self.map.read_recovered().len()
    }
}

/// Append-only JSONL store backed by one file.
pub struct JsonlDiskStore {
    path: PathBuf,
    map: RwLock<HashMap<u64, TuneRecord>>,
    /// Serializes appends (and orders them against compaction rewrites).
    append_lock: Mutex<()>,
    counters: Counters,
    /// Lines currently on disk, including duplicates and skipped ones
    /// (what compaction reclaims).
    disk_lines: AtomicU64,
}

impl JsonlDiskStore {
    /// Open (or create) the store at `path`, loading every live record.
    ///
    /// Unreadable *content* never fails the open — corrupt (including
    /// non-UTF-8) and stale lines are counted and skipped, and later
    /// lines win over earlier ones for the same key. Only a
    /// filesystem-level error on an existing file (e.g. permissions) is
    /// returned.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let store = JsonlDiskStore {
            path,
            map: RwLock::new_named(HashMap::new(), "diskstore.map"),
            append_lock: Mutex::new_named((), "diskstore.append"),
            counters: Counters::default(),
            disk_lines: AtomicU64::new_named(0, "diskstore.disk_lines"),
        };
        let bytes = match std::fs::read(&store.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut map = HashMap::new();
        let mut lines = 0u64;
        for raw in bytes.split(|&b| b == b'\n') {
            let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
            let Ok(line) = std::str::from_utf8(raw) else {
                lines += 1;
                store.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            lines += 1;
            match TuneRecord::from_jsonl(line) {
                Ok(rec) => {
                    map.insert(rec.key.stable_hash(), rec);
                }
                Err(e) if e.is_stale() => {
                    store.counters.stale.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    store.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        store.disk_lines.store(lines, Ordering::Relaxed);
        *store.map.write_recovered() = map;
        Ok(store)
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rewrite the file to exactly one (newest) record per key, via an
    /// atomic tmp+rename. Returns the number of disk lines reclaimed.
    pub fn compact(&self) -> std::io::Result<usize> {
        let _guard = self.append_lock.lock_recovered();
        let map = self.map.read_recovered();
        let mut entries: Vec<&TuneRecord> = map.values().collect();
        // Deterministic file order, independent of hash-map iteration.
        entries.sort_by_key(|r| r.key.stable_hash());
        let mut contents = String::new();
        for rec in &entries {
            contents.push_str(&rec.to_jsonl());
            contents.push('\n');
        }
        atomic_write(&self.path, contents)?;
        let before = self
            .disk_lines
            .swap(entries.len() as u64, Ordering::Relaxed);
        Ok((before as usize).saturating_sub(entries.len()))
    }
}

impl TuneStore for JsonlDiskStore {
    fn get(&self, key: &TuneKey) -> Option<TuneRecord> {
        let found = self.map.read_recovered().get(&key.stable_hash()).cloned();
        self.counters.count(found.is_some());
        found
    }

    fn get_best(&self, hash: u64) -> Option<BestConfig> {
        let found = self
            .map
            .read_recovered()
            .get(&hash)
            .map(TuneRecord::best_config);
        self.counters.count(found.is_some());
        found
    }

    fn put(&self, record: &TuneRecord) {
        self.map
            .write_recovered()
            .insert(record.key.stable_hash(), record.clone());
        self.counters.inserts.fetch_add(1, Ordering::Relaxed);
        let _guard = self.append_lock.lock_recovered();
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut f| writeln!(f, "{}", record.to_jsonl()));
        match appended {
            Ok(()) => {
                self.disk_lines.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: tune store append to {} failed: {e}",
                    self.path.display()
                );
            }
        }
    }

    fn records(&self) -> Vec<TuneRecord> {
        self.map.read_recovered().values().cloned().collect()
    }

    fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }

    fn len(&self) -> usize {
        self.map.read_recovered().len()
    }
}
