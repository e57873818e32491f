//! Sequential reference models ("shadows") of the concurrent kernels.
//!
//! A shadow re-implements a kernel's observable semantics with plain
//! single-threaded data structures — no locks, no atomics, no time
//! source beyond the explicit tick. Model-checked tests run the real
//! kernel and the shadow side by side under a serializing witness and
//! assert the real kernel never produces an answer the shadow could
//! not; the conformance proptest (`tests/conformance.rs`) drives the
//! *production* `ResultCache<StdBackend>` and [`CacheModel`] with
//! identical operation sequences and requires identical outputs, so the
//! shadow is pinned to the real implementation rather than drifting
//! into a convenient fiction.

use std::collections::BTreeMap;

/// One shadow cache entry, mirroring `gb_serve::cache::Entry`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ModelEntry {
    reply: Vec<u8>,
    epoch: u64,
    inserted_us: u64,
    seq: u64,
}

/// Sequential shadow of `gb_serve::cache::ResultCache`, operation for
/// operation: epoch-validated lookup with eager removal of dead entries
/// (expired, or from an older epoch — a newer epoch's entry stays, and so
/// does a live one the lookup's `accept` refuses), TTL
/// inclusive at the boundary, zero-capacity no-op inserts, inserts that
/// never replace a newer epoch's entry, and oldest-`seq` eviction when a
/// *new* key lands in a full cache.
///
/// Keys live in a `BTreeMap` so iteration order is deterministic; the
/// eviction victim is chosen by minimum insertion `seq`, exactly as the
/// real cache does, so ties in tick values cannot diverge the two.
#[derive(Debug, Clone, Default)]
pub struct CacheModel {
    entries: BTreeMap<u64, ModelEntry>,
    seq: u64,
    capacity: usize,
    ttl_us: u64,
}

impl CacheModel {
    /// Shadow of `ResultCache::new` with the TTL already in microseconds.
    pub fn new(capacity: usize, ttl_us: u64) -> CacheModel {
        CacheModel {
            entries: BTreeMap::new(),
            seq: 0,
            capacity,
            ttl_us,
        }
    }

    /// Shadow of `ResultCache::get_at`.
    pub fn get_at(
        &mut self,
        key: u64,
        current_epoch: u64,
        now_us: u64,
        accept: impl FnOnce(&[u8]) -> bool,
    ) -> Option<Vec<u8>> {
        let e = self.entries.get(&key)?;
        let age = now_us.saturating_sub(e.inserted_us);
        if e.epoch == current_epoch && age <= self.ttl_us && accept(&e.reply) {
            return Some(e.reply.clone());
        }
        if e.epoch < current_epoch || age > self.ttl_us {
            self.entries.remove(&key);
        }
        None
    }

    /// Shadow of `ResultCache::insert_at`.
    pub fn insert_at(&mut self, key: u64, reply: Vec<u8>, epoch: u64, now_us: u64) {
        if self.capacity == 0 || self.entries.get(&key).is_some_and(|e| e.epoch > epoch) {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(&k, _)| k)
            {
                self.entries.remove(&oldest);
            }
        }
        let seq = self.seq;
        self.seq += 1;
        self.entries.insert(
            key,
            ModelEntry {
                reply,
                epoch,
                inserted_us: now_us,
                seq,
            },
        );
    }

    /// Shadow of `ResultCache::purge_stale_at`.
    pub fn purge_stale_at(&mut self, current_epoch: u64, now_us: u64) {
        let ttl_us = self.ttl_us;
        self.entries.retain(|_, e| {
            e.epoch >= current_epoch && now_us.saturating_sub(e.inserted_us) <= ttl_us
        });
    }

    /// Shadow of `ResultCache::len`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Shadow of `ResultCache::is_empty`.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_mismatch_misses_and_drops() {
        let mut m = CacheModel::new(4, 1_000_000);
        m.insert_at(1, vec![9], 0, 0);
        assert_eq!(m.get_at(1, 1, 0, |_| true), None);
        assert!(
            m.is_empty(),
            "dead entry removed eagerly, like the real cache"
        );
    }

    #[test]
    fn a_newer_epoch_entry_survives_an_older_reader_and_an_older_insert() {
        let mut m = CacheModel::new(4, 1_000_000);
        m.insert_at(1, vec![2], 2, 0);
        assert_eq!(m.get_at(1, 1, 0, |_| true), None);
        m.insert_at(1, vec![1], 1, 0);
        m.purge_stale_at(1, 0);
        assert_eq!(m.get_at(1, 2, 0, |_| true), Some(vec![2]));
    }

    #[test]
    fn ttl_is_inclusive_at_the_boundary() {
        let mut m = CacheModel::new(4, 1_000);
        m.insert_at(1, vec![9], 0, 0);
        assert_eq!(m.get_at(1, 0, 1_000, |_| true), Some(vec![9]));
        assert_eq!(m.get_at(1, 0, 1_001, |_| true), None);
    }

    #[test]
    fn full_cache_evicts_lowest_seq_for_new_keys_only() {
        let mut m = CacheModel::new(2, 1_000_000);
        m.insert_at(1, vec![1], 0, 0);
        m.insert_at(2, vec![2], 0, 0);
        m.insert_at(2, vec![22], 0, 0); // overwrite: no eviction
        assert_eq!(m.get_at(1, 0, 0, |_| true), Some(vec![1]));
        m.insert_at(3, vec![3], 0, 0); // new key: evicts key 1 (seq 0)
        assert_eq!(m.get_at(1, 0, 0, |_| true), None);
        assert_eq!(m.get_at(2, 0, 0, |_| true), Some(vec![22]));
        assert_eq!(m.get_at(3, 0, 0, |_| true), Some(vec![3]));
    }

    #[test]
    fn zero_capacity_accepts_nothing() {
        let mut m = CacheModel::new(0, 1_000_000);
        m.insert_at(1, vec![1], 0, 0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
