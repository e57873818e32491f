//! The query-driven aggregate cache of §3.6: one key-sorted column of
//! cached records, which is its own index.
//!
//! The paper's cache is a trie of two-`u32` nodes (Figure 7), which lets
//! Figure 8 find a cell's cached record *and its children's*. The children
//! step is not implemented (see [`crate::qc`]), so the cache is a column:
//! the raw ids of the cached cells ascending (curve order, so a covering's
//! probes sweep it forward), each with its record in [`crate::Layer`]'s
//! layout — not a `Layer`, whose keys share one level: these may be of any
//! level up to the block level.
//!
//! Every cache is made by one fill (`AggregateTrie::fill`): read the
//! block's record of each key in key order, with one set of cursors per
//! level parity.
//! Rebuild, update and restart differ only in the keys, so a cached record
//! is a copy of the block's by construction. A cached record costs a block
//! record's `16 + 24·c` bytes (the key replaces Figure 7's 8-byte nodes),
//! so the Figure-18 budget `threshold × cells × record_bytes` buys
//! ⌊threshold × cells⌋ keys.

use crate::aggregate::RecordRef;
use crate::block::GeoBlock;
use crate::gallop;
use crate::query::Cursors;
use gb_cell::CellId;
use std::hash::{Hash, Hasher};

/// The aggregate cache (the paper's name): cached cells and their records,
/// sorted by key.
#[derive(Debug, Clone)]
pub struct AggregateTrie {
    /// Attribute columns per record.
    n_cols: usize,
    /// Raw ids of the cached cells, ascending.
    keys: Vec<u64>,
    /// Tuples per cached cell.
    counts: Vec<u64>,
    /// Per-column minima, maxima and sums, each flattened `cell × column`.
    mins: Vec<f64>,
    maxs: Vec<f64>,
    sums: Vec<f64>,
}

/// A stateful probe: each lookup gallops forward from the previous match,
/// O(log gap) on an ascending stream (covering cells arrive sorted), and
/// binary-searches when the stream jumps backward — any order is correct.
#[derive(Debug)]
pub struct FlatCursor<'a> {
    cache: &'a AggregateTrie,
    /// The key column, one pointer hop shorter than through `cache`.
    keys: &'a [u64],
    /// Position of the previous match.
    pos: usize,
}

impl<'a> FlatCursor<'a> {
    /// The cached record of `cell`, if the cache holds one.
    pub fn lookup(&mut self, cell: CellId) -> Option<RecordRef<'a>> {
        let raw = cell.raw();
        let i = match self.keys.get(self.pos) {
            Some(&k) if k <= raw => gallop::lower_bound_from(self.keys, raw, self.pos),
            _ => self.keys.partition_point(|&key| key < raw),
        };
        self.pos = i;
        (self.keys.get(i) == Some(&raw)).then(|| self.cache.record(i))
    }
}

impl AggregateTrie {
    /// The cache over `keys` (raw cell ids, ascending): each key's record
    /// is `block`'s record of its cell, or the empty record (count 0, ±∞,
    /// 0) — a cached "no data here", so Figure 18's hit rate can reach 1.
    pub(crate) fn fill(block: &GeoBlock, keys: Vec<u64>) -> AggregateTrie {
        let n_cols = block.schema().len();
        let (inf, neg_inf) = (vec![f64::INFINITY; n_cols], vec![f64::NEG_INFINITY; n_cols]);
        let zero = vec![0.0; n_cols];
        let empty = RecordRef {
            count: 0,
            mins: &inf,
            maxs: &neg_inf,
            sums: &zero,
        };
        let values = keys.len() * n_cols;
        let mut cache = AggregateTrie {
            n_cols,
            keys: Vec::new(),
            counts: Vec::with_capacity(keys.len()),
            mins: Vec::with_capacity(values),
            maxs: Vec::with_capacity(values),
            sums: Vec::with_capacity(values),
        };
        // Ascending keys ascend within every level, but the keys of one
        // layer's searches may nest: a layer is searched for cells of its
        // own level and of the odd level above, and a parent's key sits
        // between its children's. Those two levels differ in parity, so
        // each parity resumes its own cursors.
        let mut cursors = [Cursors::new(), Cursors::new()];
        for &raw in &keys {
            let cell = CellId::from_raw(raw);
            let r = block
                .record_of(cell, &mut cursors[usize::from(cell.level() % 2)])
                .unwrap_or(empty);
            cache.counts.push(r.count);
            cache.mins.extend_from_slice(r.mins);
            cache.maxs.extend_from_slice(r.maxs);
            cache.sums.extend_from_slice(r.sums);
        }
        cache.keys = keys;
        cache
    }

    /// The same keys filled from `block` — the next data epoch's cache.
    pub(crate) fn refill(&self, block: &GeoBlock) -> AggregateTrie {
        AggregateTrie::fill(block, self.keys.clone())
    }

    /// Number of cached records.
    pub fn num_cached(&self) -> usize {
        self.keys.len()
    }

    /// Bytes of one cached record, what a block record costs: key (8) +
    /// count (8) + 3 × 8 per column.
    pub fn record_bytes(&self) -> usize {
        16 + 24 * self.n_cols
    }

    /// Total cache footprint — what the Figure-18 threshold bounds.
    pub fn size_bytes(&self) -> usize {
        self.keys.len() * self.record_bytes()
    }

    /// A stateful probe for sorted probe streams — the adapted SELECT's
    /// lookup path (it probes covering cells in ascending raw order).
    pub fn flat_cursor(&self) -> FlatCursor<'_> {
        FlatCursor {
            cache: self,
            keys: &self.keys,
            pos: 0,
        }
    }

    fn record(&self, i: usize) -> RecordRef<'_> {
        let cols = i * self.n_cols..(i + 1) * self.n_cols;
        RecordRef {
            count: self.counts[i],
            mins: &self.mins[cols.clone()],
            maxs: &self.maxs[cols.clone()],
            sums: &self.sums[cols],
        }
    }

    /// A digest over the keys and records, floats by bit pattern.
    pub fn content_hash(&self) -> u64 {
        let mut h = gb_common::FxHasher::default();
        self.n_cols.hash(&mut h);
        self.keys.hash(&mut h);
        self.counts.hash(&mut h);
        for v in self.mins.iter().chain(&self.maxs).chain(&self.sums) {
            v.to_bits().hash(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use gb_cell::Grid;
    use gb_data::{extract, CleaningRules, ColumnDef, Filter, RawTable, Schema};
    use gb_geom::{Point, Rect};
    use proptest::prelude::*;

    fn block(points: &[(f64, f64)], level: u8) -> GeoBlock {
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        for (i, &(x, y)) in points.iter().enumerate() {
            raw.push_row(Point::new(x, y), &[i as f64 * 0.1]);
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        build(
            &extract(&raw, grid, &CleaningRules::none(), None).base,
            level,
            &Filter::all(),
        )
        .0
    }

    #[test]
    fn an_empty_cache_answers_nothing_and_costs_nothing() {
        let b = block(&[(10.0, 10.0), (80.0, 30.0)], 6);
        let cache = AggregateTrie::fill(&b, Vec::new());
        assert_eq!((cache.num_cached(), cache.size_bytes()), (0, 0));
        assert!(cache.flat_cursor().lookup(b.cell_at(0)).is_none());
        assert_eq!(cache.record_bytes(), b.record_bytes());
    }

    #[test]
    fn the_fill_copies_block_records_and_caches_empty_cells() {
        let b = block(&[(10.0, 10.0), (12.0, 11.0), (80.0, 30.0)], 6);
        // Nested keys: the odd-level parent is searched in the layer its
        // children are, and its key sits between theirs.
        let parent = b.cell_at(0).parent();
        let mut cells = vec![CellId::ROOT, parent];
        cells.extend((0..4u8).map(|k| parent.child(k)));
        cells.sort_unstable();
        let cache = AggregateTrie::fill(&b, cells.iter().map(|c| c.raw()).collect());
        assert_eq!(cache.size_bytes(), 6 * b.record_bytes());
        let mut cursor = cache.flat_cursor();
        let mut empty = 0;
        for cell in cells {
            let got = cursor.lookup(cell).expect("every key is cached");
            let got = (got.count, got.min(0), got.max(0), got.sum(0).to_bits());
            let want = match b.record_of(cell, &mut Cursors::new()) {
                Some(r) => (r.count, r.min(0), r.max(0), r.sum(0).to_bits()),
                None => {
                    empty += 1;
                    (0, f64::INFINITY, f64::NEG_INFINITY, 0.0f64.to_bits())
                }
            };
            assert_eq!(got, want, "{cell:?}");
        }
        assert!(empty > 0, "three points leave a sibling empty");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cursor is a binary search over the key column: random
        /// multi-level key sets (ancestors and descendants of each other
        /// included, and the empty set), probed in arbitrary order at every
        /// key, its parent, its children and its curve neighbours, find the
        /// record `keys.binary_search` finds — the same record, not an
        /// equal one.
        #[test]
        fn flat_lookup_is_a_binary_search_of_the_key_column(
            points in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..60),
            paths in prop::collection::vec(prop::collection::vec(0u8..4, 0..12), 0..40),
            order in prop::collection::vec(any::<u32>(), 0..400),
            level in 2u8..10,
        ) {
            let b = block(&points, level);
            let mut keys: Vec<u64> = paths
                .iter()
                .flat_map(|path| {
                    let cell = path.iter().fold(CellId::ROOT, |cell, &k| cell.child(k));
                    [cell.raw(), cell.parent_at(cell.level() / 2).raw()]
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let cache = AggregateTrie::fill(&b, keys.clone());

            let mut probes: Vec<CellId> = Vec::new();
            for &raw in &keys {
                let cell = CellId::from_raw(raw);
                probes.extend([cell, cell.parent_at(cell.level().saturating_sub(1)), cell.next(), cell.prev()]);
                probes.extend((0..4u8).map(|k| cell.child(k)));
            }
            probes.push(CellId::ROOT);
            // Arbitrary order: swap positions the stream names.
            for (i, &j) in order.iter().enumerate() {
                let n = probes.len();
                probes.swap(i % n, j as usize % n);
            }
            let mut cursor = cache.flat_cursor();
            for cell in probes {
                let got = cursor.lookup(cell).map(|r| r.mins.as_ptr());
                let want = keys.binary_search(&cell.raw()).ok().map(|i| cache.record(i).mins.as_ptr());
                prop_assert_eq!(got, want, "{:?}", cell);
            }
        }
    }
}
