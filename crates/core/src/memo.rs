//! The covering memo and the hot-query table — the engine-side state
//! behind the query hot path's warm start (see DESIGN.md "Query hot
//! path").
//!
//! [`CoveringMemo`] memoizes `polygon → Arc<CellUnion>` keyed by
//! [`gb_cell::polygon_cover_key`]. Coverings are pure functions of
//! (polygon, grid, level) and the engine's grid and level are fixed for
//! its lifetime, so entries **never invalidate** — not on data epochs,
//! not on trie rebuilds. The 64-bit key is only a lookup key: every
//! entry stores the polygon's canonical vertex stream and a hit compares
//! it exactly, so a hash collision degrades to a miss, never to a wrong
//! covering.
//!
//! [`HotQueryTable`] counts encoded Select/Count requests so the engine
//! can persist its top-K hottest query shapes into the snapshot (`HOTQ`
//! section) and a restarted server can warm the covering memo and the
//! serve-layer result cache before the first dashboard paint.

use gb_cell::CellUnion;
use gb_common::sync::OrderedMutex;
use gb_common::{Counter, FifoMap, FxHashMap};
use std::sync::Arc;

/// Rank of the memo shards and the hot-query table in the declared lock
/// order: leaf locks on the query path, same band as the hit-statistic
/// shards, never held while computing a covering or taking another lock.
const RANK_MEMO: u8 = 1;

/// Shard count — a power of two so the shard index is a mask of the
/// already-mixed key.
const MEMO_SHARDS: usize = 8;

#[derive(Debug)]
struct MemoEntry {
    /// Canonical vertex stream (`gb_cell::normalized_vertex_bits`) for
    /// exact verification on hit.
    verify: Vec<u64>,
    covering: Arc<CellUnion>,
}

/// Hit/miss/churn counts, surfaced through `CacheMetrics` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries dropped by capacity eviction (oldest-first within a shard).
    pub evictions: u64,
    /// Entries dropped by [`CoveringMemo::invalidate_all`] — the explicit
    /// grid/level-change hook; normal operation never invalidates.
    pub invalidations: u64,
}

/// A sharded, capacity-bounded, never-invalidating covering memo.
#[derive(Debug)]
pub struct CoveringMemo {
    /// Each shard evicts its own oldest insertion (amortised O(1)).
    memo: Vec<OrderedMutex<FifoMap<MemoEntry>>>,
    shard_capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
}

impl CoveringMemo {
    /// A memo holding at most (roughly) `capacity` coverings across all
    /// shards. Capacity 0 disables memoization (every lookup computes —
    /// the ablation configuration).
    pub fn new(capacity: usize) -> CoveringMemo {
        let shard_capacity = capacity.div_ceil(MEMO_SHARDS);
        CoveringMemo {
            memo: (0..MEMO_SHARDS)
                .map(|_| OrderedMutex::new("memo", RANK_MEMO, FifoMap::new(shard_capacity)))
                .collect(),
            shard_capacity,
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            invalidations: Counter::new(),
        }
    }

    #[inline]
    fn shard_index(key: u64) -> usize {
        // polygon_cover_key is already FNV-mixed; fold the high bits in
        // so shard choice and map bucket choice stay decorrelated.
        ((key >> 32) ^ key) as usize & (MEMO_SHARDS - 1)
    }

    /// The covering for the polygon whose cover key is `key` and whose
    /// canonical vertex stream is `verify`, computing it with `cover` on
    /// a miss. The covering is computed *outside* the shard lock; two
    /// racing misses on the same key both compute and the second insert
    /// wins (both results are bit-identical, so either Arc is correct).
    pub fn get_or_insert_with<F>(&self, key: u64, verify: &[u64], cover: F) -> Arc<CellUnion>
    where
        F: FnOnce() -> CellUnion,
    {
        self.get_or_insert_with_hit(key, verify, cover).0
    }

    /// Like [`CoveringMemo::get_or_insert_with`], also reporting whether
    /// the covering came from the memo (`true`) or was computed (`false`)
    /// — the per-request memo-hit flag the tracer records.
    pub fn get_or_insert_with_hit<F>(
        &self,
        key: u64,
        verify: &[u64],
        cover: F,
    ) -> (Arc<CellUnion>, bool)
    where
        F: FnOnce() -> CellUnion,
    {
        if let Some(slot) = self.memo.get(Self::shard_index(key)) {
            {
                let shard = slot.lock();
                if let Some(entry) = shard.get(key) {
                    if entry.verify == verify {
                        self.hits.incr();
                        return (Arc::clone(&entry.covering), true);
                    }
                }
            }
            self.misses.incr();
            let covering = Arc::new(cover());
            if self.shard_capacity > 0 {
                let entry = MemoEntry {
                    verify: verify.to_vec(),
                    covering: Arc::clone(&covering),
                };
                if slot.lock().insert(key, entry).is_some() {
                    self.evictions.incr();
                }
            }
            (covering, false)
        } else {
            // Unreachable (MEMO_SHARDS > 0); compute without caching to
            // stay panic-free.
            self.misses.incr();
            (Arc::new(cover()), false)
        }
    }

    /// Drop every memoized covering, counting the dropped entries as
    /// invalidations. Coverings are pure functions of (polygon, grid,
    /// level), so the engine never calls this during normal operation —
    /// it is the explicit hook for grid/level reconfiguration paths and
    /// ablation experiments, kept observable so `/metrics` can prove the
    /// counter stays flat in production.
    pub fn invalidate_all(&self) -> usize {
        let mut dropped = 0usize;
        for slot in &self.memo {
            let mut shard = slot.lock();
            dropped += shard.len();
            shard.clear();
        }
        self.invalidations.add(dropped as u64);
        dropped
    }

    /// Number of memoized coverings.
    pub fn len(&self) -> usize {
        self.memo.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
        }
    }

    /// Zero the hit/miss/churn counters (entries stay — they never go
    /// stale).
    pub fn reset_stats(&self) {
        self.hits.reset();
        self.misses.reset();
        self.evictions.reset();
        self.invalidations.reset();
    }
}

/// One tracked query shape: its encoded request bytes and how often it
/// has been asked.
#[derive(Debug, Clone)]
struct HotQuery {
    bytes: Vec<u8>,
    count: u64,
}

/// A bounded count-min-style table of the hottest encoded requests,
/// keyed by FNV of the wire bytes. When full, a new shape evicts the
/// coldest entry only if it has been seen more often — a cheap
/// frequency filter that keeps dashboard staples resident.
#[derive(Debug, Default)]
pub struct HotQueryTable {
    entries: FxHashMap<u64, HotQuery>,
    capacity: usize,
    /// A lower bound on every resident count (counts only grow, and the
    /// bound is lowered with each insertion), exact after each scan for
    /// the coldest. A newcomer must beat the coldest resident, so one
    /// that does not beat this bound is dropped without that scan —
    /// every never-seen shape of weight 1 on a full table.
    floor: u64,
    /// Scans for the coldest resident.
    #[cfg(test)]
    scans: usize,
}

impl HotQueryTable {
    /// A table remembering at most `capacity` query shapes.
    pub fn new(capacity: usize) -> HotQueryTable {
        HotQueryTable {
            capacity,
            floor: u64::MAX,
            ..HotQueryTable::default()
        }
    }

    /// Record `weight` occurrences (more than one when merging a
    /// snapshot's persisted statistics) of the request whose wire bytes
    /// hash to `key`. `encode` produces those bytes and runs only if the
    /// table admits the request as a new shape.
    pub fn record(&mut self, key: u64, weight: u64, encode: impl FnOnce() -> Vec<u8>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(e) = self.entries.get_mut(&key) {
            e.count = e.count.saturating_add(weight);
            return;
        }
        if self.entries.len() >= self.capacity {
            if weight <= self.floor {
                return;
            }
            #[cfg(test)]
            {
                self.scans += 1;
            }
            let coldest = self
                .entries
                .iter()
                .min_by_key(|(&k, e)| (e.count, k))
                .map(|(&k, e)| (k, e.count));
            let Some((coldest_key, coldest_count)) = coldest else {
                return;
            };
            self.floor = coldest_count;
            if weight <= coldest_count {
                return;
            }
            self.entries.remove(&coldest_key);
        }
        self.floor = self.floor.min(weight);
        self.entries.insert(
            key,
            HotQuery {
                bytes: encode(),
                count: weight,
            },
        );
    }

    /// The top `k` query shapes by count (descending, key ascending for
    /// determinism): `(count, encoded request bytes)`.
    pub fn top(&self, k: usize) -> Vec<(u64, Vec<u8>)> {
        let mut all: Vec<(u64, u64, &HotQuery)> = self
            .entries
            .iter()
            .map(|(&key, e)| (e.count, key, e))
            .collect();
        all.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        all.into_iter()
            .take(k)
            .map(|(count, _, e)| (count, e.bytes.clone()))
            .collect()
    }

    /// Number of tracked shapes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_cell::CellId;

    fn union(raws: &[u64]) -> CellUnion {
        CellUnion::from_cells(raws.iter().map(|&r| CellId::from_raw(r)).collect())
    }

    #[test]
    fn hit_returns_the_same_arc_without_recompute() {
        let memo = CoveringMemo::new(16);
        let mut computes = 0;
        let a = memo.get_or_insert_with(1, &[10, 20], || {
            computes += 1;
            union(&[])
        });
        let b = memo.get_or_insert_with(1, &[10, 20], || {
            computes += 1;
            union(&[])
        });
        assert_eq!(computes, 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 1,
                misses: 1,
                ..MemoStats::default()
            }
        );
    }

    #[test]
    fn hit_flag_reports_memo_residency() {
        let memo = CoveringMemo::new(16);
        let (_, hit) = memo.get_or_insert_with_hit(1, &[10], || union(&[]));
        assert!(!hit, "first lookup computes");
        let (_, hit) = memo.get_or_insert_with_hit(1, &[10], || union(&[]));
        assert!(hit, "second lookup is served by the memo");
    }

    #[test]
    fn colliding_key_with_different_vertices_is_a_miss() {
        let memo = CoveringMemo::new(16);
        memo.get_or_insert_with(1, &[10], || union(&[]));
        let mut computed = false;
        memo.get_or_insert_with(1, &[11], || {
            computed = true;
            union(&[])
        });
        assert!(computed, "a colliding key must never alias polygons");
        assert_eq!(memo.stats().hits, 0);
    }

    #[test]
    fn zero_capacity_always_computes() {
        let memo = CoveringMemo::new(0);
        let mut computes = 0;
        for _ in 0..3 {
            memo.get_or_insert_with(1, &[10], || {
                computes += 1;
                union(&[])
            });
        }
        assert_eq!(computes, 3);
        assert!(memo.is_empty());
        assert_eq!(memo.stats().misses, 3);
    }

    #[test]
    fn capacity_evicts_oldest_within_a_shard() {
        let memo = CoveringMemo::new(MEMO_SHARDS); // one entry per shard
        let shard0: Vec<u64> = (0..1000u64)
            .filter(|&k| CoveringMemo::shard_index(k) == 0)
            .take(2)
            .collect();
        memo.get_or_insert_with(shard0[0], &[1], || union(&[]));
        memo.get_or_insert_with(shard0[1], &[2], || union(&[]));
        // The first key was evicted; probing it recomputes.
        let mut computed = false;
        memo.get_or_insert_with(shard0[0], &[1], || {
            computed = true;
            union(&[])
        });
        assert!(computed);
        assert!(
            memo.stats().evictions >= 1,
            "capacity eviction must be counted: {:?}",
            memo.stats()
        );
    }

    #[test]
    fn full_shard_evicts_exactly_its_oldest_entry() {
        let memo = CoveringMemo::new(2 * MEMO_SHARDS); // two entries per shard
        let keys: Vec<u64> = (0..1000u64)
            .filter(|&k| CoveringMemo::shard_index(k) == 3)
            .take(3)
            .collect();
        for &k in &keys {
            memo.get_or_insert_with(k, &[k], || union(&[]));
        }
        assert_eq!(memo.stats().evictions, 1, "one insert past capacity");
        assert_eq!(memo.len(), 2);
        // The two younger entries are resident, the oldest is gone (probed
        // last: its miss re-inserts it and evicts the next-oldest).
        for (i, resident) in [(1, true), (2, true), (0, false)] {
            let (_, hit) = memo.get_or_insert_with_hit(keys[i], &[keys[i]], || union(&[]));
            assert_eq!(hit, resident, "key #{i}");
        }
        assert_eq!(memo.stats().evictions, 2);
    }

    #[test]
    fn racing_misses_both_compute_and_leave_one_entry() {
        // Both threads look up the key before either inserts: the barrier
        // sits inside the covering computation, which runs after the miss.
        let memo = CoveringMemo::new(16);
        let barrier = std::sync::Barrier::new(2);
        let coverings: Vec<Arc<CellUnion>> = std::thread::scope(|s| {
            let racer = || {
                s.spawn(|| {
                    memo.get_or_insert_with(7, &[1, 2, 3], || {
                        barrier.wait();
                        union(&[CellId::ROOT.child(2).raw()])
                    })
                })
            };
            let (a, b) = (racer(), racer());
            [a, b].map(|h| h.join().expect("racer")).into()
        });
        assert_eq!(coverings[0], coverings[1], "bit-identical computations");
        assert_eq!(memo.len(), 1, "the second insert overwrote the first");
        assert_eq!(
            memo.stats(),
            MemoStats {
                misses: 2,
                ..MemoStats::default()
            },
            "an overwrite evicts nothing"
        );
    }

    #[test]
    fn invalidate_all_clears_and_counts() {
        let memo = CoveringMemo::new(16);
        for k in 0..5u64 {
            memo.get_or_insert_with(k, &[k], || union(&[]));
        }
        assert_eq!(memo.len(), 5);
        assert_eq!(memo.invalidate_all(), 5);
        assert!(memo.is_empty());
        assert_eq!(memo.stats().invalidations, 5);
        // Entries really are gone: the next lookup recomputes.
        let mut computed = false;
        memo.get_or_insert_with(0, &[0], || {
            computed = true;
            union(&[])
        });
        assert!(computed);
        // Counters survive entry invalidation and reset together.
        memo.reset_stats();
        assert_eq!(memo.stats(), MemoStats::default());
    }

    #[test]
    fn hot_table_tracks_counts_and_orders_top() {
        let mut t = HotQueryTable::new(4);
        for _ in 0..5 {
            t.record(1, 1, || b"a".to_vec());
        }
        t.record(2, 1, || b"b".to_vec());
        t.record(3, 3, || b"c".to_vec());
        let top = t.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], (5, b"a".to_vec()));
        assert_eq!(top[1], (3, b"c".to_vec()));
    }

    #[test]
    fn full_hot_table_drops_weight_one_strangers_without_scanning() {
        let mut t = HotQueryTable::new(3);
        t.record(1, 1, || b"a".to_vec());
        t.record(2, 1, || b"b".to_vec());
        t.record(3, 1, || b"c".to_vec());
        t.record(1, 1, || panic!("a resident shape is not encoded again")); // counts 2, 1, 1
        let before = t.top(3);
        for stranger in 10..200u64 {
            t.record(stranger, 1, || panic!("a dropped shape is never encoded"));
        }
        assert_eq!(t.top(3), before, "the table is untouched");
        assert_eq!(t.scans, 0, "a weight-1 newcomer cannot win: no scan");
        // A heavier merged shape (snapshot warm-up) still evicts the
        // coldest, ties broken towards the lowest key.
        t.record(7, 2, || b"w".to_vec());
        assert_eq!(t.scans, 1);
        let top = t.top(3);
        assert_eq!(top[0], (2, b"a".to_vec()));
        assert_eq!(top[1], (2, b"w".to_vec()));
        assert_eq!(top[2], (1, b"c".to_vec()), "key 2 went, key 3 stayed");
        // The bound follows the table up: with every count at 2 or more
        // a weight-2 newcomer is now dropped early as well.
        t.record(3, 1, || b"c".to_vec());
        t.record(8, 2, || b"x".to_vec());
        t.record(9, 2, || b"y".to_vec());
        assert_eq!(
            t.scans, 2,
            "one scan refreshed the bound, the next was skipped"
        );
        let names: Vec<Vec<u8>> = t.top(3).into_iter().map(|(_, b)| b).collect();
        assert_eq!(names, [b"a".to_vec(), b"c".to_vec(), b"w".to_vec()]);
    }

    #[test]
    fn hot_table_eviction_needs_a_hotter_newcomer() {
        let mut t = HotQueryTable::new(2);
        t.record(1, 5, || b"a".to_vec());
        t.record(2, 4, || b"b".to_vec());
        t.record(3, 1, || b"c".to_vec()); // colder than both residents: dropped
        assert_eq!(t.len(), 2);
        assert!(t.top(4).iter().all(|(_, b)| b != b"c"));
        t.record(4, 10, || b"d".to_vec()); // hotter than the coldest: evicts key 2
        let top = t.top(4);
        assert_eq!(top.len(), 2);
        assert!(top.iter().any(|(_, b)| b == b"d"));
        assert!(top.iter().all(|(_, b)| b != b"b"));
    }
}
