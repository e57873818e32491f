//! The query-driven aggregate cache of §3.6: a sparse sub-pyramid of the
//! block's quadtree, one key-sorted [`Layer`] per level up to the block
//! level.
//!
//! The paper's cache is a trie of two-`u32` nodes (Figure 7), which lets
//! Figure 8 find a cell's cached record *and its children's*. The children
//! step is not implemented (see [`crate::qc`]), so a lookup only finds a
//! cell's own record: `Layer::find` in the layer of the cell's level.
//!
//! Every cache is made by one fill (`AggregateTrie::fill`): level by
//! level, the block's search (`GeoBlock::locate`) finds each key, whose
//! record is then copied, folded from its children at an odd level, or
//! empty where no data lies. Rebuild, update and restart differ only in
//! the keys, so a cached record is the block's by construction. It costs
//! a block record's `16 + 24·c` bytes (the key replaces Figure 7's 8-byte
//! nodes), so the Figure-18 budget `threshold × cells × record_bytes`
//! buys ⌊threshold × cells⌋ keys.

use crate::aggregate::RecordRef;
use crate::block::GeoBlock;
use crate::layer::Layer;
use crate::query::Cursors;
use gb_cell::{CellId, MAX_LEVEL};
use std::hash::{Hash, Hasher};

/// The aggregate cache (the paper's name): cached cells and their records,
/// one layer per level.
#[derive(Debug, Clone)]
pub struct AggregateTrie {
    /// Attribute columns per record.
    n_cols: usize,
    /// `layers[l]` holds the cached cells of level `l`, one layer per
    /// level from the root to the block level.
    layers: Vec<Layer>,
}

/// A stateful probe: per level, each lookup gallops forward from the
/// previous one in that level's layer, O(log gap) on an ascending stream
/// (covering cells arrive sorted), and restarts the level from its first
/// key when a probe goes behind it — any order is correct.
#[derive(Debug)]
pub struct FlatCursor<'a> {
    layers: &'a [Layer],
    /// Per level, the position past the previous lookup.
    cursors: [usize; MAX_LEVEL as usize + 1],
}

impl<'a> FlatCursor<'a> {
    /// The cached record of `cell`, if the cache holds one.
    pub fn lookup(&mut self, cell: CellId) -> Option<RecordRef<'a>> {
        let level = usize::from(cell.level());
        let layer = self.layers.get(level)?;
        let (raw, cursor) = (cell.raw(), &mut self.cursors[level]);
        if cursor.checked_sub(1).is_some_and(|i| layer.keys[i] >= raw) {
            *cursor = 0;
        }
        layer.find(raw, cursor).map(|i| layer.record(i))
    }
}

impl AggregateTrie {
    /// The cache over `keys` (raw ids of cells at or above the block
    /// level, distinct, in any order): each key's record is `block`'s
    /// record of its cell, or the empty record (count 0, ±∞, 0) — a cached
    /// "no data here", so Figure 18's hit rate can reach 1.
    pub(crate) fn fill(block: &GeoBlock, mut keys: Vec<u64>) -> AggregateTrie {
        let n_cols = block.schema().len();
        let level_of = |raw: u64| CellId::from_raw(raw).level();
        keys.sort_unstable_by_key(|&raw| (level_of(raw), raw));
        let mut rest = keys.as_slice();
        let layers = (0..=block.level())
            .map(|level| {
                let (run, tail) = rest.split_at(rest.partition_point(|&k| level_of(k) == level));
                rest = tail;
                // One level's keys ascend and are disjoint, so its searches,
                // all in one layer of the block, resume one set of cursors.
                let mut cursors = Cursors::new();
                let mut layer = Layer::with_capacity(level, n_cols, run.len());
                for &raw in run {
                    match block.locate(CellId::from_raw(raw), &mut cursors) {
                        Some((src, range)) if src.level == level => layer.extend_from(src, range),
                        Some((src, group)) => layer.push_fold(src, group),
                        None => layer.push_empty(raw),
                    }
                }
                layer
            })
            .collect();
        debug_assert!(rest.is_empty(), "no record below the block level");
        AggregateTrie { n_cols, layers }
    }

    /// The same keys filled from `block` — the next data epoch's cache.
    pub(crate) fn refill(&self, block: &GeoBlock) -> AggregateTrie {
        let keys = self.layers.iter().flat_map(|l| l.keys.iter().copied());
        AggregateTrie::fill(block, keys.collect())
    }

    /// Number of cached records.
    pub fn num_cached(&self) -> usize {
        self.layers.iter().map(Layer::num_cells).sum()
    }

    /// Bytes of one cached record, what a block record costs: key (8) +
    /// count (8) + 3 × 8 per column.
    pub fn record_bytes(&self) -> usize {
        16 + 24 * self.n_cols
    }

    /// Total cache footprint — what the Figure-18 threshold bounds.
    pub fn size_bytes(&self) -> usize {
        self.num_cached() * self.record_bytes()
    }

    /// A stateful probe for sorted probe streams — the adapted SELECT's
    /// lookup path (it probes covering cells in ascending raw order).
    pub fn flat_cursor(&self) -> FlatCursor<'_> {
        FlatCursor {
            layers: &self.layers,
            cursors: [0; MAX_LEVEL as usize + 1],
        }
    }

    /// A digest over the keys and records, floats by bit pattern.
    pub fn content_hash(&self) -> u64 {
        let mut h = gb_common::FxHasher::default();
        self.n_cols.hash(&mut h);
        for layer in &self.layers {
            layer.hash_into(&mut h);
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

    /// A record as comparable bits: count, then every column's min, max
    /// and sum by bit pattern.
    fn bits(r: RecordRef<'_>) -> (u64, Vec<u64>) {
        let floats = r.mins.iter().chain(r.maxs).chain(r.sums);
        (r.count, floats.map(|v| v.to_bits()).collect())
    }

    #[test]
    fn the_fill_copies_block_records_and_caches_empty_cells() {
        // A cluster and a few strays, so most siblings of an ancestor of a
        // stored cell hold no data; fractional values put the fold's
        // association into the low bits.
        let mut state = 7u64;
        let points: Vec<(f64, f64)> = (0..60)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (u, v) = ((state >> 40) % 1000, (state >> 20) % 1000);
                let spread = if i % 5 == 0 { 0.1 } else { 0.012 };
                (5.0 + u as f64 * spread, 7.0 + v as f64 * spread)
            })
            .collect();
        // An even and an odd block level: the odd levels above either are
        // folded by the fill, the kept ones copied.
        for level in [6u8, 7] {
            let b = block(&points, level);
            // Every ancestor of every stored cell, at every level, and all
            // four children of each: keys that nest, and cells without data.
            let mut keys: Vec<u64> = (0..b.num_cells())
                .flat_map(|i| (0..level).map(move |l| (i, l)))
                .flat_map(|(i, l)| {
                    let ancestor = b.cell_at(i).parent_at(l);
                    std::iter::once(ancestor).chain((0..4u8).map(move |k| ancestor.child(k)))
                })
                .map(CellId::raw)
                .collect();
            keys.sort_unstable();
            keys.dedup();
            // Shuffled: the fill takes its keys in any order.
            keys.sort_unstable_by_key(|&k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17));
            let cache = AggregateTrie::fill(&b, keys.clone());
            assert_eq!(cache.size_bytes(), keys.len() * b.record_bytes());
            let mut cursor = cache.flat_cursor();
            let (mut empty, mut odd) = (0, 0);
            for &raw in &keys {
                let cell = CellId::from_raw(raw);
                let got = bits(cursor.lookup(cell).expect("every key is cached"));
                let want = match b.record_of(cell, &mut Cursors::new()) {
                    Some(r) => bits(r),
                    None => {
                        empty += 1;
                        (
                            0,
                            [f64::INFINITY, f64::NEG_INFINITY, 0.0]
                                .map(f64::to_bits)
                                .to_vec(),
                        )
                    }
                };
                odd += usize::from(cell.level() % 2 == 1 && want.0 > 0);
                assert_eq!(got, want, "level {level}: {cell:?}");
            }
            assert!(
                empty > 0 && odd > 0,
                "level {level}: {empty} empty, {odd} odd"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cursor is a binary search over the probe's level: random
        /// multi-level key sets (ancestors and descendants of each other
        /// included, and the empty set), probed in arbitrary order at every
        /// key, its parent, its children and its curve neighbours, find the
        /// record a binary search of that level's key column finds — the
        /// same record, not an equal one.
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
            keys.retain(|&k| CellId::from_raw(k).level() <= level);
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
            // The curve's ends have no neighbour: `next` / `prev` step off
            // them to an id that is not a cell.
            probes.retain(|c| c.is_valid());
            // Arbitrary order: swap positions the stream names.
            for (i, &j) in order.iter().enumerate() {
                let n = probes.len();
                probes.swap(i % n, j as usize % n);
            }
            let mut cursor = cache.flat_cursor();
            for cell in probes {
                let got = cursor.lookup(cell).map(|r| r.mins.as_ptr());
                let want = cache.layers.get(usize::from(cell.level())).and_then(|layer| {
                    let i = layer.keys.binary_search(&cell.raw()).ok()?;
                    Some(layer.record(i).mins.as_ptr())
                });
                prop_assert_eq!(got, want, "{:?}", cell);
            }
        }
    }
}
