//! The §3.6 hit statistics, log-structured: queries append, readers fold.
//!
//! The paper counts a hit "for each query cell that intersects with the
//! GeoBlock". A query knows its hit cells as a slice (the run of its
//! covering that may overlap the block, `GeoBlock::overlapping`, in curve
//! order); the statistics only have to be *counts* when someone reads
//! them — a cache rebuild, a snapshot, a gauge. So recording is an
//! append: `HitLog::append` takes one lock and copies the run onto a log.
//! Reading folds: sort the log, run-length it, and merge the runs
//! into [`HitCounts`], a sorted `(cell, hits)` column — sequential passes
//! over memory, where a hash-map counter pays a cache miss per hit cell
//! once it holds more cells than the cache does. The log is also folded
//! when it passes `FOLD_BOUND`, so it stays bounded when nobody reads
//! (`RebuildPolicy::Manual`).
//!
//! One mutex guards the log and the folded column together, so an append
//! and a fold are two critical sections of one lock and every reader sees
//! every completed append: there is no interleaving for `gb_check` to
//! explore that [`gb_common::sync::OrderedMutex`] does not already rule
//! out (see DESIGN.md "Static analysis & invariants").

use gb_common::sync::OrderedMutex;
use std::sync::Arc;

/// Log length (hit cells) at which an append folds the log itself: 8 MiB
/// of cell ids, some 7 000 neighbourhood-sized queries. Large, because a
/// fold rewrites the whole column: its cost per hit falls with the length
/// of the log it folds.
const FOLD_BOUND: usize = 1 << 20;

/// Rank of the hit log in the declared engine lock order (see `DESIGN.md`
/// "Static analysis & invariants"): between the kernel's publisher mutex
/// (0) and state slot (2), so a publisher may fold the log mid-transition.
const RANK_HIT_LOG: u8 = 1;

/// Hits per query cell: distinct raw cell ids in ascending order and, in
/// a parallel column, how often a query covering named each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HitCounts {
    cells: Vec<u64>,
    hits: Vec<u64>,
}

impl HitCounts {
    /// Number of distinct cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no cell was ever hit.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells (raw ids), ascending.
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// The hit counts, parallel to [`HitCounts::cells`].
    pub fn values(&self) -> std::slice::Iter<'_, u64> {
        self.hits.iter()
    }

    /// `(cell, hits)` pairs in ascending cell order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.cells.iter().copied().zip(self.hits.iter().copied())
    }

    /// The hits of the cell at `index` of [`HitCounts::cells`].
    pub(crate) fn hits_at(&self, index: usize) -> u64 {
        self.hits.get(index).copied().unwrap_or(0)
    }

    /// Count a log of hit cells, one entry per hit. Sorts `log` in place.
    pub(crate) fn from_log(log: &mut [u64]) -> HitCounts {
        log.sort_unstable();
        let mut counts = HitCounts::default();
        for run in log.chunk_by(|a, b| a == b) {
            if let Some(&cell) = run.first() {
                counts.cells.push(cell);
                counts.hits.push(run.len() as u64);
            }
        }
        counts
    }

    /// From parallel `cells` / `hits` columns in any order; a cell listed
    /// twice is returned as the error.
    pub(crate) fn from_columns(cells: Vec<u64>, hits: Vec<u64>) -> Result<HitCounts, u64> {
        debug_assert_eq!(cells.len(), hits.len());
        if cells.is_sorted_by(|a, b| a < b) {
            return Ok(HitCounts { cells, hits });
        }
        let mut pairs: Vec<(u64, u64)> = cells.into_iter().zip(hits).collect();
        pairs.sort_unstable();
        let twice = pairs.chunk_by(|a, b| a.0 == b.0).find(|run| run.len() > 1);
        match twice.and_then(|run| run.first()) {
            Some(&(cell, _)) => Err(cell),
            None => Ok(pairs.into_iter().collect()),
        }
    }

    /// A hash-map counter — what the tests count hits with — as a column.
    #[cfg(test)]
    pub(crate) fn from_map(map: &gb_common::FxHashMap<u64, u64>) -> HitCounts {
        map.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// The sum of two columns: one sequential merge. Sums saturate: a
    /// restored column is untrusted input.
    pub(crate) fn merged(&self, other: &HitCounts) -> HitCounts {
        let mut out = HitCounts {
            cells: Vec::with_capacity(self.len() + other.len()),
            hits: Vec::with_capacity(self.len() + other.len()),
        };
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        loop {
            let (cell, hits) = match (a.peek().copied(), b.peek().copied()) {
                (Some(x), Some(y)) if x.0 == y.0 => {
                    a.next();
                    b.next();
                    (x.0, x.1.saturating_add(y.1))
                }
                (Some(x), Some(y)) if x.0 < y.0 => {
                    a.next();
                    x
                }
                (Some(x), None) => {
                    a.next();
                    x
                }
                (_, Some(y)) => {
                    b.next();
                    y
                }
                (None, None) => break,
            };
            out.cells.push(cell);
            out.hits.push(hits);
        }
        out
    }
}

/// Counts from `(cell, hits)` pairs in any order; a cell named more than
/// once gets the (saturating) sum.
impl FromIterator<(u64, u64)> for HitCounts {
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(pairs: T) -> Self {
        let mut pairs: Vec<(u64, u64)> = pairs.into_iter().collect();
        pairs.sort_unstable();
        let mut counts = HitCounts::default();
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            if let Some(&(cell, _)) = run.first() {
                counts.cells.push(cell);
                let hits = run.iter().map(|p| p.1).fold(0, u64::saturating_add);
                counts.hits.push(hits);
            }
        }
        counts
    }
}

/// The engine's hit statistics: an append-only log in front of the folded
/// [`HitCounts`].
pub(crate) struct HitLog {
    hit_log: OrderedMutex<LogState>,
    /// Log length at which an append folds ([`FOLD_BOUND`]).
    bound: usize,
}

struct LogState {
    /// Hit cells since the last fold, in arrival order.
    log: Vec<u64>,
    /// Everything folded so far. Shared, not copied, with readers: a fold
    /// merges into a fresh column and swaps the `Arc`.
    folded: Arc<HitCounts>,
}

impl LogState {
    fn fold(&mut self) {
        if self.log.is_empty() {
            return;
        }
        let fresh = HitCounts::from_log(&mut self.log);
        self.log.clear();
        self.folded = Arc::new(self.folded.merged(&fresh));
    }
}

impl HitLog {
    pub(crate) fn new() -> HitLog {
        HitLog::with_bound(FOLD_BOUND)
    }

    pub(crate) fn with_bound(bound: usize) -> HitLog {
        HitLog {
            hit_log: OrderedMutex::new(
                "hit_log",
                RANK_HIT_LOG,
                LogState {
                    log: Vec::new(),
                    folded: Arc::default(),
                },
            ),
            bound,
        }
    }

    /// Record one query's hit cells: one lock acquisition, one copy.
    pub(crate) fn append(&self, cells: &[gb_cell::CellId]) {
        let mut state = self.hit_log.lock();
        state.log.extend(cells.iter().map(|cell| cell.raw()));
        if state.log.len() >= self.bound {
            state.fold();
        }
    }

    /// Add counts restored from a snapshot.
    pub(crate) fn absorb(&self, counts: &HitCounts) {
        let mut state = self.hit_log.lock();
        state.folded = Arc::new(state.folded.merged(counts));
    }

    /// Every hit appended so far, as counts (folds the log first).
    pub(crate) fn counts(&self) -> Arc<HitCounts> {
        let mut state = self.hit_log.lock();
        state.fold();
        Arc::clone(&state.folded)
    }

    /// Hit cells appended since the last fold.
    #[cfg(test)]
    pub(crate) fn log_len(&self) -> usize {
        self.hit_log.lock().log.len()
    }

    /// Panic while holding the log's mutex (from a thread of the test's).
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        let _guard = self.hit_log.lock();
        panic!("deliberate hit-log poison");
    }

    #[cfg(test)]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.hit_log.is_poisoned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_cell::CellId;
    use gb_common::FxHashMap;
    use proptest::prelude::*;

    fn column(pairs: &[(u64, u64)]) -> HitCounts {
        pairs.iter().copied().collect()
    }

    /// A distinct cell per `n < 64`.
    fn cell(n: u64) -> CellId {
        (0..3).fold(CellId::ROOT, |c, d| c.child(((n >> (2 * d)) & 3) as u8))
    }

    #[test]
    fn fold_counts_runs_of_a_sorted_log() {
        let mut log = vec![9, 3, 9, 5, 3, 9];
        assert_eq!(
            HitCounts::from_log(&mut log),
            column(&[(3, 2), (5, 1), (9, 3)])
        );
        assert!(HitCounts::from_log(&mut []).is_empty());
    }

    #[test]
    fn fold_merge_adds_shared_cells_and_keeps_the_rest() {
        let a = column(&[(1, 1), (4, 2), (7, 3)]);
        let b = column(&[(0, 5), (4, 10), (9, 1)]);
        let want = column(&[(0, 5), (1, 1), (4, 12), (7, 3), (9, 1)]);
        assert_eq!(a.merged(&b), want);
        assert_eq!(b.merged(&a), want);
        assert_eq!(a.merged(&HitCounts::default()), a);
        assert_eq!(HitCounts::default().merged(&a), a);
        // Sums saturate: restored counts are untrusted.
        let top = HitCounts::from_columns(vec![4], vec![u64::MAX]).unwrap();
        assert_eq!(column(&[(4, u64::MAX - 1), (4, 2)]), top);
        assert_eq!(top.merged(&column(&[(4, 2)])), top);
    }

    #[test]
    fn fold_columns_sort_and_reject_duplicates() {
        let sorted = HitCounts::from_columns(vec![2, 5, 8], vec![1, 1, 4]).unwrap();
        let shuffled = HitCounts::from_columns(vec![8, 2, 5], vec![4, 1, 1]).unwrap();
        assert_eq!(sorted, shuffled);
        assert_eq!(
            HitCounts::from_columns(vec![8, 2, 8], vec![4, 1, 1]),
            Err(8)
        );
    }

    #[test]
    fn fold_at_the_bound_keeps_the_log_short() {
        let log = HitLog::with_bound(64);
        let mut want: FxHashMap<u64, u64> = FxHashMap::default();
        // 10× the bound, in query-sized appends that never divide it.
        for i in 0..64u64 {
            let cells: Vec<CellId> = (0..10).map(|j| cell((i * 7 + j * 3) % 41)).collect();
            for c in &cells {
                *want.entry(c.raw()).or_insert(0) += 1;
            }
            log.append(&cells);
            assert!(log.log_len() < 64);
        }
        assert_eq!(*log.counts(), HitCounts::from_map(&want));
        assert_eq!(log.log_len(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Appends interleaved with reads and restores ≡ a hash-map counter.
        #[test]
        fn fold_log_matches_a_hash_map_counter(
            ops in prop::collection::vec((0u8..8, prop::collection::vec(0u64..48, 0..20)), 1..60),
            bound in 1usize..80,
        ) {
            let log = HitLog::with_bound(bound);
            let mut model: FxHashMap<u64, u64> = FxHashMap::default();
            for (op, cells) in &ops {
                match op {
                    // A read in between must not lose or double anything.
                    0 => prop_assert_eq!(&*log.counts(), &HitCounts::from_map(&model)),
                    // A restored column is added on top.
                    1 => {
                        let mut restored: Vec<u64> = cells.iter().map(|&n| cell(n).raw()).collect();
                        let restored = HitCounts::from_log(&mut restored);
                        for (c, n) in restored.iter() {
                            *model.entry(c).or_insert(0) += n;
                        }
                        log.absorb(&restored);
                    }
                    _ => {
                        let cells: Vec<CellId> = cells.iter().map(|&n| cell(n)).collect();
                        for c in &cells {
                            *model.entry(c.raw()).or_insert(0) += 1;
                        }
                        log.append(&cells);
                        prop_assert!(log.log_len() < bound);
                    }
                }
            }
            prop_assert_eq!(&*log.counts(), &HitCounts::from_map(&model));
        }
    }
}
