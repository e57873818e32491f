//! [`FifoMap`] — a capacity-bounded hash map that evicts in insertion
//! order, in amortised O(1).
//!
//! The result cache (`gb_serve::cache`) and the covering memo
//! (`geoblocks::memo`) bound their size by dropping the entry with the
//! lowest live insertion sequence number. Finding that entry by scanning
//! the map costs O(capacity) on every insert at capacity — under the
//! owner's lock, on the request path. Here each insertion also appends
//! `(seq, key)` to a queue, which is therefore sorted by `seq`; the
//! victim is the first queue entry whose `seq` still matches the map's.
//! Overwrites and removals leave their old queue entry behind as a
//! *tombstone* (its `seq` no longer matches), skipped when it reaches the
//! front and swept out in one pass whenever the queue outgrows
//! `2 × capacity`, so the queue never holds more than `2 × capacity + 1`
//! entries and every operation stays amortised O(1).
//!
//! The map is plain, non-`Sync` data: its owners already serialise
//! access behind their own (ranked, model-checked) mutex.

// Runs under the result-cache and memo locks on the request path.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use crate::FxHashMap;
use std::collections::VecDeque;

/// A hash map of at most `capacity` entries keyed by `u64`. Inserting a
/// *new* key into a full map first evicts the entry inserted (or last
/// overwritten) longest ago.
#[derive(Debug)]
pub struct FifoMap<V> {
    /// Live entries with the sequence number of their last insertion.
    entries: FxHashMap<u64, (u64, V)>,
    /// `(seq, key)` per insertion, ascending in `seq`; an entry is live
    /// iff the map still holds `key` at that `seq`.
    order: VecDeque<(u64, u64)>,
    next_seq: u64,
    capacity: usize,
}

impl<V> FifoMap<V> {
    /// An empty map holding at most `capacity` entries (0 holds none).
    pub fn new(capacity: usize) -> FifoMap<V> {
        FifoMap {
            entries: FxHashMap::default(),
            order: VecDeque::new(),
            next_seq: 0,
            capacity,
        }
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.entries.get(&key).map(|(_, v)| v)
    }

    /// Store `value` under `key` as the newest entry. Overwriting a key
    /// evicts nothing; a new key landing in a full map evicts the oldest
    /// entry, which is returned. A zero-capacity map stores nothing.
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        let evicted = if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // Nothing to evict only at capacity 0: store nothing.
            Some(self.pop_oldest()?)
        } else {
            None
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        // An overwritten entry's queue slot becomes a tombstone.
        self.entries.insert(key, (seq, value));
        self.compact_if_bloated();
        self.order.push_back((seq, key));
        evicted
    }

    /// Remove and return the value stored under `key`.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let (_, value) = self.entries.remove(&key)?;
        self.compact_if_bloated();
        Some(value)
    }

    /// Keep only the entries `keep` approves of.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &V) -> bool) {
        self.entries.retain(|&key, (_, value)| keep(key, value));
        self.compact_if_bloated();
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove the live entry with the lowest sequence number. Every queue
    /// entry is popped at most once, so the tombstones skipped here are
    /// paid for by the operations that created them.
    fn pop_oldest(&mut self) -> Option<(u64, V)> {
        while let Some((seq, key)) = self.order.pop_front() {
            if Self::is_live(&self.entries, seq, key) {
                return self.entries.remove(&key).map(|(_, value)| (key, value));
            }
        }
        None
    }

    #[inline]
    fn is_live(entries: &FxHashMap<u64, (u64, V)>, seq: u64, key: u64) -> bool {
        matches!(entries.get(&key), Some(&(live, _)) if live == seq)
    }

    /// Sweep the tombstones out once they outnumber the capacity: the
    /// sweep is O(queue) and more than `capacity` tombstone-creating
    /// operations separate two sweeps. Run before every queue push and
    /// after every removal, it keeps the queue at `2 × capacity + 1`
    /// entries or fewer.
    fn compact_if_bloated(&mut self) {
        if self.order.len() > 2 * self.capacity {
            let entries = &self.entries;
            self.order
                .retain(|&(seq, key)| Self::is_live(entries, seq, key));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn evicts_in_insertion_order_and_overwrites_requeue() {
        let mut m = FifoMap::new(2);
        assert_eq!(m.insert(1, 'a'), None);
        assert_eq!(m.insert(2, 'b'), None);
        assert_eq!(m.insert(1, 'c'), None, "overwrite evicts nothing");
        // Key 1 was re-sequenced by the overwrite, so key 2 is now oldest.
        assert_eq!(m.insert(3, 'd'), Some((2, 'b')));
        assert_eq!(m.insert(4, 'e'), Some((1, 'c')));
        assert_eq!((m.get(3), m.get(4), m.len()), (Some(&'d'), Some(&'e'), 2));
    }

    #[test]
    fn removed_entries_are_never_the_victim() {
        let mut m = FifoMap::new(2);
        m.insert(1, ());
        m.insert(2, ());
        assert_eq!(m.remove(1), Some(()));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.insert(3, ()), None, "room again after the removal");
        assert_eq!(m.insert(4, ()), Some((2, ())));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, ()), None);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut m = FifoMap::new(0);
        assert_eq!(m.insert(1, 1), None);
        assert!(m.is_empty() && m.get(1).is_none() && m.order.is_empty());
    }

    /// The naive reference: a flat list scanned for the minimum `seq`.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u64, u64, u32)>, // (key, seq, value)
        seq: u64,
    }

    impl Model {
        fn insert(&mut self, cap: usize, key: u64, value: u32) -> Option<(u64, u32)> {
            let mut evicted = None;
            if let Some(at) = self.entries.iter().position(|e| e.0 == key) {
                self.entries.remove(at);
            } else if self.entries.len() >= cap {
                let (at, _) = self.entries.iter().enumerate().min_by_key(|(_, e)| e.1)?;
                let (k, _, v) = self.entries.remove(at);
                evicted = Some((k, v));
            }
            self.entries.push((key, self.seq, value));
            self.seq += 1;
            evicted
        }
    }

    proptest! {
        #[test]
        fn matches_the_min_seq_scan_model(
            cap in 0usize..7,
            ops in prop::collection::vec((0u8..8, 0u64..10, 0u32..1000), 1..200),
        ) {
            let mut real = FifoMap::new(cap);
            let mut model = Model::default();
            for &(op, key, value) in &ops {
                match op {
                    // Inserts dominate so the map sits at capacity.
                    0..=4 => prop_assert_eq!(
                        real.insert(key, value),
                        model.insert(cap, key, value),
                        "victim of insert({})", key
                    ),
                    5 | 6 => {
                        let at = model.entries.iter().position(|e| e.0 == key);
                        let want = at.map(|at| model.entries.remove(at).2);
                        prop_assert_eq!(real.remove(key), want);
                    }
                    _ => {
                        real.retain(|k, &v| (k + u64::from(v)) % 3 != key % 3);
                        model.entries.retain(|e| (e.0 + u64::from(e.2)) % 3 != key % 3);
                    }
                }
                prop_assert_eq!(real.len(), model.entries.len());
                prop_assert!(real.len() <= cap);
                prop_assert!(
                    real.order.len() <= 2 * cap + 1,
                    "queue {} over the tombstone bound at capacity {}", real.order.len(), cap
                );
                for e in &model.entries {
                    prop_assert_eq!(real.get(e.0), Some(&e.2));
                }
            }
        }
    }
}
