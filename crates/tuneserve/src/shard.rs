//! [`ShardedStore`]: N independent [`TuneStore`] shards behind one
//! `TuneStore` facade.
//!
//! Every key routes to exactly one shard by its stable hash, so the
//! lock a `get`/`put` takes is the *shard's* lock — N concurrent
//! requests for different shards never contend, and compacting one
//! shard (an epoch-bumping file rewrite for JSONL shards) never blocks
//! readers or writers of any other shard. The facade's [`StoreStats`]
//! is the per-shard sum, but the per-shard snapshots stay addressable
//! through [`ShardedStore::shard_stats`] — hit/corrupt/stale counters
//! survive the wrapper instead of being summed away.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use conc_check::sync::AtomicU64;

use stencil_tunestore::{
    BestConfig, JsonlDiskStore, MemStore, StoreStats, TuneKey, TuneRecord, TuneStore,
};

/// One shard's backend: volatile or JSONL-on-disk.
enum ShardBackend {
    Mem(MemStore),
    Jsonl(JsonlDiskStore),
}

impl ShardBackend {
    fn as_store(&self) -> &dyn TuneStore {
        match self {
            ShardBackend::Mem(s) => s,
            ShardBackend::Jsonl(s) => s,
        }
    }

    /// Collapse the shard to one newest record per key. A no-op for
    /// memory shards (their map is already deduplicated).
    fn compact(&self) -> std::io::Result<usize> {
        match self {
            ShardBackend::Mem(_) => Ok(0),
            ShardBackend::Jsonl(s) => s.compact(),
        }
    }
}

struct Shard {
    backend: ShardBackend,
    /// Compaction epoch: bumped once per completed [`ShardBackend::compact`].
    epoch: AtomicU64,
}

/// What one whole-store compaction did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Disk lines reclaimed per shard (duplicates + corrupt/stale
    /// lines collapsed away), index-aligned with the shards.
    pub reclaimed: Vec<usize>,
    /// Each shard's compaction epoch after the pass.
    pub epochs: Vec<u64>,
}

/// N-way sharded [`TuneStore`]; see the [module docs](self).
pub struct ShardedStore {
    shards: Vec<Shard>,
}

impl ShardedStore {
    /// `n` volatile in-memory shards (bench and test backend).
    ///
    /// # Panics
    /// Panics when `n` is zero.
    pub fn mem(n: usize) -> Self {
        assert!(n > 0, "a sharded store needs at least one shard");
        ShardedStore {
            shards: (0..n)
                .map(|_| Shard {
                    backend: ShardBackend::Mem(MemStore::new()),
                    epoch: AtomicU64::new_named(0, "shard.epoch"),
                })
                .collect(),
        }
    }

    /// `n` JSONL shards under `dir` (`shard-00.jsonl`,
    /// `shard-01.jsonl`, ...), each with the full torn-line/corruption
    /// tolerance of [`JsonlDiskStore`].
    ///
    /// # Panics
    /// Panics when `n` is zero.
    pub fn open_dir(dir: impl AsRef<Path>, n: usize) -> std::io::Result<Self> {
        assert!(n > 0, "a sharded store needs at least one shard");
        let dir: PathBuf = dir.as_ref().into();
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let store = JsonlDiskStore::open(dir.join(format!("shard-{i:02}.jsonl")))?;
            shards.push(Shard {
                backend: ShardBackend::Jsonl(store),
                epoch: AtomicU64::new_named(0, "shard.epoch"),
            });
        }
        Ok(ShardedStore { shards })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `key` routes to.
    pub fn shard_index(&self, key: &TuneKey) -> usize {
        self.index_of_hash(key.stable_hash())
    }

    fn index_of_hash(&self, hash: u64) -> usize {
        // The stable hash is FNV-mixed; modulo over the shard count
        // spreads keys evenly (asserted by the distribution test).
        (hash % self.shards.len() as u64) as usize
    }

    /// Per-shard counter snapshots, index-aligned with the shards —
    /// the satellite contract: aggregate views never destroy them.
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards
            .iter()
            .map(|s| s.backend.as_store().stats())
            .collect()
    }

    /// Per-shard live-record counts.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.backend.as_store().len())
            .collect()
    }

    /// Each shard's compaction epoch.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.epoch.load(Ordering::Relaxed))
            .collect()
    }

    /// Compact shard `i` alone, returning reclaimed disk lines. Takes
    /// only that shard's locks: requests hashing elsewhere proceed
    /// untouched for the whole rewrite.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn compact_shard(&self, i: usize) -> std::io::Result<usize> {
        let shard = &self.shards[i];
        let reclaimed = shard.backend.compact()?;
        shard.epoch.fetch_add(1, Ordering::Relaxed);
        Ok(reclaimed)
    }

    /// Compact every shard, one at a time — at no point is more than
    /// one shard's lock held, so the store as a whole stays readable
    /// throughout.
    pub fn compact(&self) -> std::io::Result<CompactionReport> {
        let mut reclaimed = Vec::with_capacity(self.shards.len());
        for i in 0..self.shards.len() {
            reclaimed.push(self.compact_shard(i)?);
        }
        Ok(CompactionReport {
            reclaimed,
            epochs: self.epochs(),
        })
    }
}

impl TuneStore for ShardedStore {
    fn get(&self, key: &TuneKey) -> Option<TuneRecord> {
        self.shards[self.shard_index(key)]
            .backend
            .as_store()
            .get(key)
    }

    fn get_best(&self, hash: u64) -> Option<BestConfig> {
        self.shards[self.index_of_hash(hash)]
            .backend
            .as_store()
            .get_best(hash)
    }

    fn put(&self, record: &TuneRecord) {
        self.shards[self.shard_index(&record.key)]
            .backend
            .as_store()
            .put(record)
    }

    fn records(&self) -> Vec<TuneRecord> {
        self.shards
            .iter()
            .flat_map(|s| s.backend.as_store().records())
            .collect()
    }

    fn stats(&self) -> StoreStats {
        self.shard_stats()
            .into_iter()
            .fold(StoreStats::default(), |a, b| StoreStats {
                hits: a.hits + b.hits,
                misses: a.misses + b.misses,
                inserts: a.inserts + b.inserts,
                corrupt: a.corrupt + b.corrupt,
                stale: a.stale + b.stale,
                io_errors: a.io_errors + b.io_errors,
            })
    }

    fn len(&self) -> usize {
        self.shard_lens().iter().sum()
    }
}
