//! Per-query-shape result cache with epoch validation and TTL.
//!
//! The key is computed by `geoblocks::api::body_cache_key`: a 64-bit
//! FNV-1a hash of the *encoded request* (polygon vertices by bit
//! pattern plus the aggregate spec) mixed with the server's filter key;
//! update requests, and bodies over `geoblocks::MAX_ENTRY_BYTES`, are
//! never cached (the key function returns `None`).
//! FNV-1a is not collision-resistant, and a request carries free f64
//! bits, so two requests can share a key: the server stores the request
//! body beside its reply (`V` is an `Arc` of both), and a lookup takes an
//! `accept` predicate that serves an entry only when the stored body
//! equals the one in hand — a collision is counted as a miss.
//!
//! Invalidation is **transactional by construction** rather than by
//! hook: every entry records the engine *data epoch* its reply was
//! computed at, and a lookup only returns entries whose epoch equals the
//! engine's current one. `GeoBlockEngine::apply_updates` publishes the
//! new block and the bumped epoch in a single atomic state swap, so the
//! instant an update commits, every cached reply is unservable — there
//! is no window where a stale answer and the new epoch coexist. The TTL
//! is a second, time-based bound so an idle server eventually drops
//! entries even with no updates; capacity is bounded by evicting the
//! oldest insertion, which [`FifoMap`] finds in amortised O(1) — an
//! insert at capacity costs what any other insert does, never a scan of
//! the cache under its lock.
//!
//! The cache is generic over the sync [`Backend`] and takes time as an
//! explicit microsecond tick (`*_at` methods), so `gb_check` can explore
//! its interleavings deterministically: under the model checker every
//! get/insert/purge runs at a schedule-chosen point with a
//! schedule-chosen clock, and the "never serve a reply from another
//! epoch" invariant is exhaustively checked against a cache-less shadow.
//! Production code uses the tick-free wrappers ([`ResultCache::get`] and
//! friends), which derive the tick from a monotonic anchor.

use gb_common::sync::backend::{Backend, MutexApi, StdBackend};
use gb_common::sync::rank;
use gb_common::{Counter, FifoMap};
use std::time::{Duration, Instant};

/// One cached reply: the value (the encoded wire bytes by default), the
/// data epoch it answers for, and the tick it was inserted at (for the TTL
/// bound). Eviction order is the map's own insertion sequence —
/// deterministic even when two inserts share a tick.
#[derive(Debug, Clone)]
struct Entry<V> {
    reply: V,
    epoch: u64,
    inserted_us: u64,
}

/// Hit/miss counters, readable without the map lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The server-side result cache, holding values of type `V` (the reply's
/// wire bytes by default). All methods take `&self`; the map is behind one
/// mutex (a lookup clones the value out, so the critical section is
/// tiny), the counters are relaxed [`Counter`]s.
#[derive(Debug)]
pub struct ResultCache<B: Backend = StdBackend, V: Send = Vec<u8>> {
    entries: B::Mutex<FifoMap<Entry<V>>>,
    capacity: usize,
    ttl_us: u64,
    /// Monotonic anchor for the tick-free production wrappers.
    anchor: Instant,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
}

impl<B: Backend, V: Clone + Send> ResultCache<B, V> {
    /// A cache holding at most `capacity` replies, each valid for `ttl`
    /// (and only while the engine stays on the entry's data epoch).
    pub fn new(capacity: usize, ttl: Duration) -> ResultCache<B, V> {
        ResultCache {
            entries: B::Mutex::new("entries", rank::LEAF, FifoMap::new(capacity)),
            capacity,
            ttl_us: ttl.as_micros().min(u64::MAX as u128) as u64,
            anchor: Instant::now(),
            hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// Microseconds since this cache was created — the tick the
    /// production wrappers feed to the `*_at` kernel methods.
    fn tick_us(&self) -> u64 {
        self.anchor.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Look up the reply for `key`, valid at `current_epoch`, as of tick
    /// `now_us`, that `accept` takes for the request in hand. Counts a hit
    /// or miss: a live entry `accept` refuses (another request under the
    /// same key) is a miss and stays, for the insert that replaces it; a
    /// dead entry (expired, or from an older epoch) is removed on the way.
    pub fn get_at(
        &self,
        key: u64,
        current_epoch: u64,
        now_us: u64,
        accept: impl FnOnce(&V) -> bool,
    ) -> Option<V> {
        let mut entries = self.entries.lock();
        let ttl_us = self.ttl_us;
        let mut dead = false;
        let served = entries.get(key).and_then(|e| {
            let fresh = now_us.saturating_sub(e.inserted_us) <= ttl_us;
            dead = e.epoch < current_epoch || !fresh;
            (e.epoch == current_epoch && fresh && accept(&e.reply)).then(|| e.reply.clone())
        });
        if served.is_some() {
            self.hits.incr();
            return served;
        }
        // An entry from a newer epoch stays: the reader read the epoch an
        // instant before the update the entry's request saw.
        if dead {
            entries.remove(key);
        }
        self.misses.incr();
        None
    }

    /// Insert a reply computed at `epoch`, as of tick `now_us`. A
    /// zero-capacity cache accepts nothing; at capacity, the
    /// oldest-inserted entry is evicted. A reply never replaces one from a
    /// newer epoch: epochs only rise, so no reader could be served it.
    pub fn insert_at(&self, key: u64, reply: V, epoch: u64, now_us: u64) {
        if self.capacity == 0 {
            return;
        }
        let entry = Entry {
            reply,
            epoch,
            inserted_us: now_us,
        };
        let mut entries = self.entries.lock();
        if entries.get(key).is_some_and(|e| e.epoch > epoch) {
            return;
        }
        if entries.insert(key, entry).is_some() {
            self.evictions.incr();
        }
        self.insertions.incr();
    }

    /// Drop every dead entry: expired at tick `now_us`, or from an epoch
    /// older than `current_epoch` — the space-reclamation half of
    /// invalidation (correctness never depends on it;
    /// [`ResultCache::get_at`] checks the epoch on every lookup).
    pub fn purge_stale_at(&self, current_epoch: u64, now_us: u64) {
        let mut entries = self.entries.lock();
        let before = entries.len();
        let ttl_us = self.ttl_us;
        entries.retain(|_, e| {
            e.epoch >= current_epoch && now_us.saturating_sub(e.inserted_us) <= ttl_us
        });
        let dropped = before.saturating_sub(entries.len());
        self.evictions.add(dropped as u64);
    }

    /// [`ResultCache::get_if`] accepting whatever entry `key` holds.
    pub fn get(&self, key: u64, current_epoch: u64) -> Option<V> {
        self.get_if(key, current_epoch, |_| true)
    }

    /// [`ResultCache::get_at`] at the current wall-clock tick.
    pub fn get_if(
        &self,
        key: u64,
        current_epoch: u64,
        accept: impl FnOnce(&V) -> bool,
    ) -> Option<V> {
        self.get_at(key, current_epoch, self.tick_us(), accept)
    }

    /// [`ResultCache::insert_at`] at the current wall-clock tick.
    pub fn insert(&self, key: u64, reply: V, epoch: u64) {
        self.insert_at(key, reply, epoch, self.tick_us());
    }

    /// [`ResultCache::purge_stale_at`] at the current wall-clock tick.
    pub fn purge_stale(&self, current_epoch: u64) {
        self.purge_stale_at(current_epoch, self.tick_us());
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize, ttl_ms: u64) -> ResultCache {
        ResultCache::new(cap, Duration::from_millis(ttl_ms))
    }

    #[test]
    fn hit_after_insert_at_same_epoch() {
        let c = cache(8, 10_000);
        assert_eq!(c.get(1, 0), None);
        c.insert(1, vec![42], 0);
        assert_eq!(c.get(1, 0), Some(vec![42]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn epoch_change_invalidates_instantly() {
        let c = cache(8, 10_000);
        c.insert(7, vec![1, 2, 3], 0);
        assert_eq!(c.get(7, 1), None, "new epoch must not see the old reply");
        // And the dead entry was dropped.
        assert!(c.is_empty());
    }

    #[test]
    fn ttl_expires_entries() {
        // Deterministic clock: insert at tick 0, look up one past the TTL.
        let c = cache(8, 1);
        c.insert_at(9, vec![5], 3, 0);
        assert_eq!(
            c.get_at(9, 3, 1_000, |_| true),
            Some(vec![5]),
            "at the TTL edge"
        );
        assert_eq!(
            c.get_at(9, 3, 1_001, |_| true),
            None,
            "one tick past the TTL"
        );
    }

    #[test]
    fn capacity_evicts_oldest() {
        let c = cache(2, 10_000);
        c.insert(1, vec![1], 0);
        c.insert(2, vec![2], 0);
        c.insert(3, vec![3], 0); // evicts key 1 (lowest insertion seq)
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1, 0), None);
        assert_eq!(c.get(2, 0), Some(vec![2]));
        assert_eq!(c.get(3, 0), Some(vec![3]));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_at_capacity_evicts_nothing() {
        let c = cache(2, 10_000);
        c.insert(1, vec![1], 0);
        c.insert(2, vec![2], 0);
        c.insert(2, vec![22], 0); // overwrite, not a new key
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1, 0), Some(vec![1]));
        assert_eq!(c.get(2, 0), Some(vec![22]));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let c = cache(0, 10_000);
        c.insert(1, vec![1], 0);
        assert_eq!(c.get(1, 0), None);
        assert!(c.is_empty());
    }

    #[test]
    fn purge_stale_reclaims_old_epochs() {
        let c = cache(16, 10_000);
        for k in 0..5 {
            c.insert(k, vec![k as u8], 0);
        }
        for k in 5..8 {
            c.insert(k, vec![k as u8], 1);
        }
        c.purge_stale(1);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(6, 1), Some(vec![6]));
    }

    #[test]
    fn a_reader_one_epoch_behind_keeps_the_newer_reply() {
        let c = cache(8, 10_000);
        c.insert(5, vec![2], 2);
        assert_eq!(c.get(5, 1), None, "epoch 1 is never served epoch 2's reply");
        assert_eq!(c.get(5, 2), Some(vec![2]), "the epoch-2 reply survived");
        c.purge_stale(1);
        assert_eq!(c.get(5, 2), Some(vec![2]), "purge at epoch 1 keeps it too");
    }

    #[test]
    fn an_older_reply_never_replaces_a_newer_one() {
        let c = cache(8, 10_000);
        c.insert(5, vec![2], 2);
        c.insert(5, vec![1], 1); // a slow request computed before the update
        assert_eq!(c.get(5, 2), Some(vec![2]));
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn purge_stale_reclaims_expired_entries() {
        let c = cache(16, 1);
        c.insert_at(1, vec![1], 0, 0);
        c.insert_at(2, vec![2], 0, 5_000);
        c.purge_stale_at(0, 5_500); // key 1 is 5.5ms old, TTL is 1ms
        assert_eq!(c.len(), 1);
        assert_eq!(c.get_at(2, 0, 5_600, |_| true), Some(vec![2]));
    }
}
