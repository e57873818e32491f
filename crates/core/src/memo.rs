//! The covering memo — the engine-side state that lets a repeated polygon
//! skip its covering (see DESIGN.md "Query hot path").
//!
//! [`CoveringMemo`] memoizes `polygon → Arc<CellUnion>` keyed by
//! [`gb_cell::cover_key_from_bits`] over the polygon's vertex stream as
//! sent ([`gb_cell::normalized_vertex_bits`]). Coverings are pure
//! functions of (polygon, grid, level) and the engine's grid and level
//! are fixed for its lifetime, so entries **never invalidate**, not even
//! on data epochs. The 64-bit key is only a lookup key: every entry
//! stores the polygon's vertex stream and a hit compares it exactly, so a
//! hash collision degrades to a miss, never to a wrong covering. A stream
//! over [`MAX_ENTRY_BYTES`] is covered and not memoised. Only traffic
//! fills the memo: it is not persisted, and a restarted engine starts
//! with it empty.
//!
//! The memo is one map behind one leaf lock: a lookup or an insert holds
//! it for a hash probe, and a miss covers with the lock released.

// Runs under the memo lock on the request path.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use gb_cell::CellUnion;
use gb_common::sync::{rank, OrderedMutex};
use gb_common::{Counter, FifoMap};
use std::sync::Arc;

/// The most key material one cache entry may pin: a polygon whose vertex
/// stream is longer is covered and not memoised, and a request body that
/// is longer is answered and not cached by the serve layer (see
/// `api::body_cache_key`). Every dashboard polygon is a few hundred
/// bytes; a 16 MiB body cached 4 096 times would pin 64 GiB.
pub const MAX_ENTRY_BYTES: usize = 64 * 1024;

#[derive(Debug)]
struct MemoEntry {
    /// The polygon's vertex stream (`gb_cell::normalized_vertex_bits`)
    /// for exact verification on hit.
    verify: Vec<u64>,
    covering: Arc<CellUnion>,
}

/// Hit/miss/churn counts, surfaced through
/// `GeoBlockEngine::memo_stats` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries dropped by capacity eviction (the oldest first).
    pub evictions: u64,
}

/// A capacity-bounded, never-invalidating covering memo.
#[derive(Debug)]
pub struct CoveringMemo {
    /// Evicts its oldest insertion (amortised O(1)).
    memo: OrderedMutex<FifoMap<MemoEntry>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl CoveringMemo {
    /// A memo holding at most `capacity` coverings. Capacity 0 disables
    /// memoization (every lookup computes — the ablation configuration).
    pub fn new(capacity: usize) -> CoveringMemo {
        CoveringMemo {
            memo: OrderedMutex::new("memo", rank::LEAF, FifoMap::new(capacity)),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// The covering for the polygon whose cover key is `key` and whose
    /// vertex stream is `verify`, computing it with `cover` on a miss.
    /// The covering is computed *outside* the lock; two racing misses on
    /// the same key both compute and the second insert wins (both results
    /// are bit-identical, so either Arc is correct).
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
        let memoisable = std::mem::size_of_val(verify) <= MAX_ENTRY_BYTES;
        if memoisable {
            if let Some(entry) = self.memo.lock().get(key) {
                if entry.verify == verify {
                    self.hits.incr();
                    return (Arc::clone(&entry.covering), true);
                }
            }
        }
        self.misses.incr();
        let covering = Arc::new(cover());
        if memoisable {
            let entry = MemoEntry {
                verify: verify.to_vec(),
                covering: Arc::clone(&covering),
            };
            if self.memo.lock().insert(key, entry).is_some() {
                self.evictions.incr();
            }
        }
        (covering, false)
    }

    /// Number of memoized coverings.
    pub fn len(&self) -> usize {
        self.memo.lock().len()
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
    fn a_full_memo_evicts_exactly_its_oldest_entry() {
        let memo = CoveringMemo::new(2);
        for k in 0..3u64 {
            memo.get_or_insert_with(k, &[k], || union(&[]));
        }
        assert_eq!(memo.stats().evictions, 1, "one insert past capacity");
        assert_eq!(memo.len(), 2);
        // The two younger entries are resident, the oldest is gone (probed
        // last: its miss re-inserts it and evicts the next-oldest).
        for (k, resident) in [(1, true), (2, true), (0, false)] {
            let (_, hit) = memo.get_or_insert_with_hit(k, &[k], || union(&[]));
            assert_eq!(hit, resident, "key {k}");
        }
        assert_eq!(memo.stats().evictions, 2);
    }

    #[test]
    fn a_stream_over_the_entry_bound_is_covered_and_not_memoised() {
        let memo = CoveringMemo::new(16);
        let long = vec![7u64; MAX_ENTRY_BYTES / 8 + 1];
        for _ in 0..2 {
            let (_, hit) = memo.get_or_insert_with_hit(1, &long, || union(&[]));
            assert!(!hit);
        }
        assert!(memo.is_empty());
        assert_eq!(memo.stats().misses, 2);
        let fits = vec![7u64; MAX_ENTRY_BYTES / 8];
        memo.get_or_insert_with(2, &fits, || union(&[]));
        assert_eq!(memo.len(), 1, "a stream of exactly the bound is memoised");
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
