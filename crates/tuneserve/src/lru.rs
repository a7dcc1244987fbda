//! [`HotKeyLru`]: a bounded least-recently-used response cache keyed
//! by [`RequestIdentity`].
//!
//! Under Zipfian traffic a handful of hot keys dominate; serving them
//! from a small in-memory map ahead of the store turns the common case
//! into one mutex acquisition and a map probe — no persistent key
//! hash, no shard RwLock, no store counters, no record→response
//! repacking. The map is indexed by the identity's word-wise hash
//! through a pass-through hasher, and a hit is confirmed by comparing
//! the stored identity word for word, so two requests share an entry
//! exactly when every input of their stable keys is equal. (Two live
//! identities whose fast hashes collide take turns in one slot: that
//! costs a cache entry, never a wrong answer.)
//!
//! The cache is strictly bounded: inserting into a full cache evicts
//! the least recently *touched* entry (gets refresh recency), and every
//! hit, miss, insert and eviction is counted.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use conc_check::sync::Mutex;

use stencil_tunestore::{RequestIdentity, TuneResponse};

/// Counter snapshot of a [`HotKeyLru`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing (or a disabled cache).
    pub misses: u64,
    /// Responses inserted.
    pub inserts: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: u64,
}

/// A [`Hasher`] for keys that already are well-mixed hashes: it
/// returns the `u64` it is given.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct Entry {
    identity: RequestIdentity,
    response: TuneResponse,
    /// The recency tick of this entry's newest queue slot; older queue
    /// slots for the same key are stale and skipped at eviction time.
    tick: u64,
}

#[derive(Default)]
struct Inner {
    /// Entries by [`RequestIdentity::fast_hash`].
    map: HashMap<u64, Entry, BuildHasherDefault<PassThrough>>,
    /// Recency queue of `(fast_hash, tick)` — lazily invalidated, so a
    /// re-touched key leaves a stale slot behind instead of an O(n)
    /// removal.
    order: VecDeque<(u64, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
}

impl Inner {
    fn evict_one(&mut self) -> bool {
        while let Some((hash, tick)) = self.order.pop_front() {
            let live = self.map.get(&hash).is_some_and(|entry| entry.tick == tick);
            if live {
                self.map.remove(&hash);
                self.evictions += 1;
                return true;
            }
            // A stale slot: the key was re-touched (or already
            // evicted) since this slot was queued. Drop and continue.
        }
        false
    }

    /// Bound the lazily-invalidated queue: once stale slots outnumber
    /// live entries by a wide margin, sweep them out in one pass.
    fn sweep_if_bloated(&mut self, capacity: usize) {
        if self.order.len() > 4 * capacity + 16 {
            let map = &self.map;
            self.order
                .retain(|(h, t)| map.get(h).is_some_and(|e| e.tick == *t));
        }
    }
}

/// Bounded hot-key response cache; see the [module docs](self).
pub struct HotKeyLru {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl HotKeyLru {
    /// A cache holding at most `capacity` responses. Zero disables the
    /// cache entirely: every get is a miss, every put a no-op.
    pub fn new(capacity: usize) -> Self {
        HotKeyLru {
            capacity,
            inner: Mutex::new_named(Inner::default(), "lru.inner"),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cached response for `id`, refreshing its recency.
    pub fn get(&self, id: &RequestIdentity) -> Option<TuneResponse> {
        let mut guard = self.inner.lock_recovered();
        let inner = &mut *guard;
        let hash = id.fast_hash();
        let response = match inner.map.get_mut(&hash) {
            Some(entry) if entry.identity == *id => {
                inner.tick += 1;
                entry.tick = inner.tick;
                inner.order.push_back((hash, inner.tick));
                inner.hits += 1;
                entry.response.clone()
            }
            _ => {
                inner.misses += 1;
                return None;
            }
        };
        inner.sweep_if_bloated(self.capacity);
        Some(response)
    }

    /// Cache `response` under `id`, evicting the least recently
    /// touched entry when full.
    pub fn put(&self, id: RequestIdentity, response: TuneResponse) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock_recovered();
        inner.tick += 1;
        let (hash, tick) = (id.fast_hash(), inner.tick);
        inner.order.push_back((hash, tick));
        let entry = Entry {
            identity: id,
            response,
            tick,
        };
        let fresh = inner.map.insert(hash, entry).is_none();
        if fresh {
            inner.inserts += 1;
            while inner.map.len() > self.capacity {
                assert!(inner.evict_one(), "a full cache always has a live entry");
            }
        }
        inner.sweep_if_bloated(self.capacity);
    }

    /// Length of the lazily-invalidated recency queue — exposed so
    /// the concurrency proofs can assert the `4 * capacity + 16`
    /// bound holds under every explored interleaving.
    #[doc(hidden)]
    pub fn queue_len(&self) -> usize {
        self.inner.lock_recovered().order.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LruStats {
        let inner = self.inner.lock_recovered();
        LruStats {
            hits: inner.hits,
            misses: inner.misses,
            inserts: inner.inserts,
            evictions: inner.evictions,
            len: inner.map.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conc::proof_identity as id;
    use inplane_core::LaunchConfig;
    use stencil_autotune::{Provenance, TuneSample};

    fn response(tag: u64) -> TuneResponse {
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

    #[test]
    fn evicts_least_recently_touched() {
        let lru = HotKeyLru::new(2);
        lru.put(id(1), response(1));
        lru.put(id(2), response(2));
        assert!(lru.get(&id(1)).is_some(), "refreshes key 1");
        lru.put(id(3), response(3)); // evicts 2, the stalest
        assert!(lru.get(&id(2)).is_none());
        assert!(lru.get(&id(1)).is_some());
        assert!(lru.get(&id(3)).is_some());
        let s = lru.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
        assert_eq!(s.inserts, 3);
    }

    #[test]
    fn reinsert_refreshes_without_growing() {
        let lru = HotKeyLru::new(2);
        lru.put(id(1), response(1));
        lru.put(id(2), response(2));
        lru.put(id(1), response(10)); // overwrite, not an insert
        let s = lru.stats();
        assert_eq!(s.inserts, 2);
        assert_eq!(s.len, 2);
        assert_eq!(lru.get(&id(1)).unwrap().evaluated, 10);
    }

    #[test]
    fn zero_capacity_disables() {
        let lru = HotKeyLru::new(0);
        lru.put(id(1), response(1));
        assert!(lru.get(&id(1)).is_none());
        let s = lru.stats();
        assert_eq!((s.inserts, s.hits, s.misses, s.len), (0, 0, 1, 0));
    }

    #[test]
    fn stale_queue_slots_are_swept() {
        let lru = HotKeyLru::new(2);
        lru.put(id(1), response(1));
        lru.put(id(2), response(2));
        for _ in 0..100 {
            lru.get(&id(1));
            lru.get(&id(2));
        }
        // The lazy queue stays bounded relative to capacity.
        assert!(lru.queue_len() <= 4 * lru.capacity + 16 + 1);
    }
}
