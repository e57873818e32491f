//! The covering memo — the engine-side state that lets a repeated polygon
//! skip its covering (see DESIGN.md "Query hot path").
//!
//! [`CoveringMemo`] memoizes `polygon → Arc<CellUnion>` keyed by
//! [`gb_cell::cover_key_from_bits`] over the polygon's
//! [`gb_cell::normalized_vertex_bits`]. Coverings are pure functions of
//! (polygon, grid, level) and the engine's grid and level are fixed for
//! its lifetime, so entries **never invalidate**, not even on data
//! epochs. The 64-bit key is only a lookup key: every
//! entry stores the polygon's canonical vertex stream and a hit compares
//! it exactly, so a hash collision degrades to a miss, never to a wrong
//! covering. Only traffic fills the memo: it is not persisted, and a
//! restarted engine starts with it empty.

use gb_cell::CellUnion;
use gb_common::sync::OrderedMutex;
use gb_common::{Counter, FifoMap};
use std::sync::Arc;

/// Rank of the memo shards in the declared lock order: leaf locks on the
/// query path, between the publisher mutex (0) and the state slot (2),
/// never held while computing a covering or taking another lock.
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

/// Hit/miss/churn counts, surfaced through
/// `GeoBlockEngine::memo_stats` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries dropped by capacity eviction (oldest-first within a shard).
    pub evictions: u64,
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
        }
    }

    #[inline]
    fn shard_index(key: u64) -> usize {
        // The cover key is already FNV-mixed; fold the high bits in
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
        }
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
}
