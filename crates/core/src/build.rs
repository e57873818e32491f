//! Building GeoBlocks from sorted base data (§3.3, Figure 5).
//!
//! "The second phase, build, utilizes the clean and sorted base data to
//! generate a GeoBlock in a single pass and thus in linear time."
//!
//! [`build`] is the incremental path: the base data is already sorted, so
//! each call filters + aggregates in one O(n) sweep — this is what makes
//! "building additional Blocks with different filter sets reasonably
//! cheap" (Figure 11a) and what the §4.4 payoff analysis measures against
//! the isolated path (filter before sort, `gb_data::extract_filtered`).
//!
//! There is one build path, fanned out over a [`Pool`]: [`build`] sizes
//! the pool from the machine and the input, [`build_parallel`] takes the
//! thread count from its caller. Chunk boundaries are aligned to
//! block-level cell boundaries, so no cell is ever split across workers.
//! A first pass over each chunk counts its cells, the block-level layer is
//! allocated once at its exact size, and each chunk then fills its own
//! disjoint share of it: every cell aggregate is folded by exactly one
//! thread, column by column in base-row order with the per-tuple steps of
//! `Layer::add_tuple`, so the block is **bit-identical** at every thread
//! count (see `parallel_build_is_bit_identical`) and to the per-tuple fold
//! (`records_are_the_per_tuple_fold_bit_for_bit`). Everything coarser —
//! the layers up to the root record, which is the global header — is
//! folded from the finished block-level layer afterwards, so even its
//! floating-point sums are byte-for-byte stable.

use crate::block::GeoBlock;
use crate::gallop;
use crate::layer::{fold_column, Layer};
use gb_cell::MAX_LEVEL;
use gb_common::Pool;
use gb_data::{BaseTable, Filter, Rows};
use std::ops::Range;
use std::time::Duration;

/// Statistics of one build pass.
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Wall time of the whole build: the aggregation sweep and the folds
    /// of the coarser layers.
    pub build_time: Duration,
    /// Rows scanned (all base rows).
    pub rows_scanned: usize,
    /// Rows that passed the filter and were aggregated.
    pub rows_kept: usize,
    /// Worker threads used (1 = serial sweep).
    pub threads: usize,
}

/// Build a GeoBlock at `level` over the rows of `base` matching `filter`.
///
/// Single linear pass, shared among the machine's threads when the base
/// is large enough to occupy them. Empty cells are omitted (§3.4).
pub fn build(base: &BaseTable, level: u8, filter: &Filter) -> (GeoBlock, BuildStats) {
    let pool = Pool::auto_for(base.num_rows());
    build_on(&pool, base, level, filter)
}

/// Row indices that cut `base` into at most `parts` contiguous ranges
/// whose boundaries never split a block-level cell: each tentative even
/// split is pushed forward to the end of the cell it lands in.
fn cell_aligned_boundaries(base: &BaseTable, level: u8, parts: usize) -> Vec<usize> {
    let keys = base.keys();
    let n = keys.len();
    let mut cuts = vec![0usize];
    for i in 1..parts {
        let tentative = i * n / parts;
        if tentative <= *cuts.last().unwrap() || tentative >= n {
            continue;
        }
        let cut = cell_end(keys, level, tentative);
        if cut > *cuts.last().unwrap() && cut < n {
            cuts.push(cut);
        }
    }
    cuts.push(n);
    cuts
}

/// The row past the last one of the block-level cell that row `row` of
/// the sorted `keys` lies in.
fn cell_end(keys: &[u64], level: u8, row: usize) -> usize {
    // Largest leaf key that still belongs to the row's cell: same prefix,
    // all level-local bits set.
    let shift = 2 * (MAX_LEVEL - level) as u64;
    gallop::upper_bound_from(keys, keys[row] | ((1u64 << (shift + 1)) - 1), row)
}

/// The block-level cell id of leaf key `key`, by pure bit arithmetic:
/// clear the low bits and set the sentinel.
fn cell_of(key: u64, level: u8) -> u64 {
    let shift = 2 * (MAX_LEVEL - level) as u64;
    (key & !((1u64 << (shift + 1)) - 1)) | (1u64 << shift)
}

/// [`build`] on exactly `threads` workers, whatever the input size.
pub fn build_parallel(
    base: &BaseTable,
    level: u8,
    filter: &Filter,
    threads: usize,
) -> (GeoBlock, BuildStats) {
    build_on(&Pool::new(threads), base, level, filter)
}

/// The records of one cell-aligned row range: its share of the block-level
/// layer, which it alone writes.
struct Share<'a> {
    n_cols: usize,
    keys: &'a mut [u64],
    counts: &'a mut [u64],
    mins: &'a mut [f64],
    maxs: &'a mut [f64],
    sums: &'a mut [f64],
}

impl<'a> Share<'a> {
    /// Cut `records` into consecutive shares of `cells[i]` records each.
    fn split(records: &'a mut Layer, cells: &[usize]) -> Vec<Share<'a>> {
        let n_cols = records.n_cols;
        let (mut keys, mut counts) = (&mut records.keys[..], &mut records.counts[..]);
        let (mut mins, mut maxs) = (&mut records.mins[..], &mut records.maxs[..]);
        let mut sums = &mut records.sums[..];
        fn front<'a, T>(column: &mut &'a mut [T], n: usize) -> &'a mut [T] {
            column.split_off_mut(..n).expect("the shares fit the layer")
        }
        cells
            .iter()
            .map(|&n| Share {
                n_cols,
                keys: front(&mut keys, n),
                counts: front(&mut counts, n),
                mins: front(&mut mins, n * n_cols),
                maxs: front(&mut maxs, n * n_cols),
                sums: front(&mut sums, n * n_cols),
            })
            .collect()
    }

    /// Record `i`: cell `key`, folded from `base`'s `rows` in row order,
    /// column by column.
    fn put(
        &mut self,
        i: usize,
        key: u64,
        base: &BaseTable,
        rows: impl ExactSizeIterator<Item = usize> + Clone,
    ) {
        self.keys[i] = key;
        self.counts[i] = rows.len() as u64;
        for (col, column) in base.columns().iter().enumerate() {
            let (min, max, sum) = fold_column(rows.clone().map(|r| column.value_f64(r)));
            let at = i * self.n_cols + col;
            (self.mins[at], self.maxs[at], self.sums[at]) = (min, max, sum);
        }
    }
}

/// The block-level cells that rows `rows` of the sorted `keys` fall in,
/// in key order, each with its row range.
fn cells(
    keys: &[u64],
    level: u8,
    rows: Range<usize>,
) -> impl Iterator<Item = (u64, Range<usize>)> + '_ {
    let keys = &keys[..rows.end];
    let mut row = rows.start;
    std::iter::from_fn(move || {
        let (start, key) = (row, *keys.get(row)?);
        row = cell_end(keys, level, start);
        Some((cell_of(key, level), start..row))
    })
}

/// One O(len) filter + aggregate sweep over `rows` of the sorted base,
/// filling `out` with the records of the cells its kept rows fall in.
fn sweep(base: &BaseTable, level: u8, filter: &Filter, rows: Range<usize>, out: &mut Share<'_>) {
    // The kept rows of a cell, when a filter picks them.
    let mut kept: Vec<usize> = Vec::new();
    let mut i = 0usize;
    for (cell, rows) in cells(base.keys(), level, rows) {
        if filter.is_trivial() {
            out.put(i, cell, base, rows);
        } else {
            kept.clear();
            kept.extend(rows.filter(|&r| filter.matches(base, r)));
            if kept.is_empty() {
                continue;
            }
            out.put(i, cell, base, kept.iter().copied());
        }
        i += 1;
    }
    debug_assert_eq!(i, out.keys.len(), "the count pass and the sweep agree");
}

/// The build on `pool`. The block does not depend on the pool's size:
/// ranges are cell-aligned (`cell_aligned_boundaries`), so each record is
/// folded by one worker in base-row order into its range's share of one
/// exact-size layer, and the coarser layers are folded from it on this
/// thread.
fn build_on(pool: &Pool, base: &BaseTable, level: u8, filter: &Filter) -> (GeoBlock, BuildStats) {
    assert!(level <= MAX_LEVEL);
    let timer = gb_common::Timer::start();
    let cuts = cell_aligned_boundaries(base, level, pool.threads());
    let ranges = || cuts.windows(2).map(|cut| cut[0]..cut[1]);
    // The first pass: how many records each range writes.
    let counts = pool.run(ranges(), |range| {
        cells(base.keys(), level, range)
            .filter(|(_, rows)| {
                filter.is_trivial() || rows.clone().any(|r| filter.matches(base, r))
            })
            .count()
    });
    let mut records = Layer::zeroed(level, base.schema().len(), counts.iter().sum());
    // Each task owns its share of the layer and its range of rows.
    let shares = Share::split(&mut records, &counts);
    pool.run(shares.into_iter().zip(ranges()), |(mut share, range)| {
        sweep(base, level, filter, range, &mut share);
    });
    let mut block = GeoBlock::from_records(*base.grid(), base.schema().clone(), records);
    block.refresh_derived();
    let stats = BuildStats {
        build_time: timer.elapsed(),
        rows_scanned: base.num_rows(),
        rows_kept: block.num_rows() as usize,
        threads: pool.threads(),
    };
    (block, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_cell::{CellId, CellUnion, Grid};
    use gb_data::{
        extract, AggFunc, AggRequest, AggSpec, CleaningRules, CmpOp, ColumnDef, RawTable, Schema,
    };
    use gb_geom::{Point, Rect};

    fn base_data(n: usize) -> BaseTable {
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::i64("k")]));
        // Deterministic scatter over a 100×100 domain.
        let mut state = 7u64;
        for i in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((state >> 16) % 10_000) as f64 / 100.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((state >> 16) % 10_000) as f64 / 100.0;
            raw.push_row(Point::new(x, y), &[i as f64, (i % 10) as f64]);
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        extract(&raw, grid, &CleaningRules::none(), None).base
    }

    /// Min, max and sum of column `col`.
    fn min_max_sum(col: usize) -> AggSpec {
        AggSpec::new(vec![
            AggRequest::new(AggFunc::Min, col),
            AggRequest::new(AggFunc::Max, col),
            AggRequest::new(AggFunc::Sum, col),
        ])
    }

    /// Byte-level equality: every array identical, floats compared by bits.
    fn assert_blocks_identical(a: &GeoBlock, b: &GeoBlock) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.num_rows(), b.num_rows());
        // The records and every coarser layer, up to the root record (the
        // global header).
        assert_eq!(a.layers.len(), b.layers.len());
        for (la, lb) in a.layers.iter().zip(&b.layers) {
            assert_eq!(la.level, lb.level);
            assert_eq!(la.keys, lb.keys);
            assert_eq!(la.counts, lb.counts);
            assert_eq!(bits(&la.mins), bits(&lb.mins));
            assert_eq!(bits(&la.maxs), bits(&lb.maxs));
            assert_eq!(bits(&la.sums), bits(&lb.sums), "level {}", la.level);
        }
    }

    #[test]
    fn build_satisfies_invariants() {
        let base = base_data(5000);
        let (block, stats) = build(&base, 8, &Filter::all());
        block.check_invariants();
        assert_eq!(block.num_rows(), 5000);
        assert_eq!(stats.rows_kept, 5000);
        assert!(block.num_cells() > 100, "cells: {}", block.num_cells());
        assert!(block.num_cells() <= 4usize.pow(8));
    }

    #[test]
    #[should_panic(expected = "layer 2 invalid: empty cell")]
    fn check_invariants_validates_derived_layers() {
        let (mut block, _) = build(&base_data(500), 6, &Filter::all());
        block.layers[1].counts[0] = 0;
        block.check_invariants();
    }

    #[test]
    #[should_panic(expected = "layer 4 is not the canonical fold")]
    fn check_invariants_refolds_derived_layers() {
        let (mut block, _) = build(&base_data(500), 6, &Filter::all());
        block.layers[2].sums[0] += 1.0;
        block.check_invariants();
    }

    #[test]
    fn every_row_lands_in_its_cell() {
        let base = base_data(1000);
        let (block, _) = build(&base, 6, &Filter::all());
        for row in 0..1000 {
            let leaf = CellId::from_raw(base.keys()[row]);
            let cell = leaf.parent_at(6);
            let records = block.records();
            let range = records.under(cell, &mut 0);
            assert_eq!(range.len(), 1, "cell present");
            assert!(records.counts[range.start] > 0);
        }
    }

    #[test]
    fn filtered_build_aggregates_subset() {
        let base = base_data(2000);
        let f = Filter::on(&base, "k", CmpOp::Eq, 3.0).unwrap();
        let (block, stats) = build(&base, 8, &f);
        block.check_invariants();
        assert_eq!(block.num_rows(), 200);
        assert_eq!(stats.rows_kept, 200);
        // Global sums reflect only matching rows: all k values are 3.
        let global = block.global_aggregate(&min_max_sum(1));
        assert_eq!(global.values(), [3.0, 3.0, 600.0]);
    }

    #[test]
    fn empty_filter_result_builds_empty_block() {
        let base = base_data(100);
        let f = Filter::on(&base, "v", CmpOp::Lt, -1.0).unwrap();
        let (block, _) = build(&base, 8, &f);
        assert_eq!(block.num_rows(), 0);
        assert_eq!(block.num_cells(), 0);
        let everything = CellUnion::from_cells(vec![CellId::ROOT]);
        assert!(block.overlapping(&everything).is_empty());
        // The layers are still there, one (empty) per kept level: 0, 2,
        // 4, 6 and the block level 8.
        assert_eq!(block.layers().len(), 5);
        assert!(block.layers().iter().all(|l| l.num_cells() == 0));
        assert_eq!(block.derived_bytes(), 0);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        // A small base, then one row short of and exactly at the size from
        // which `build` itself fans out (where the machine has the cores).
        let cutoff = 2 * gb_common::pool::MIN_ROWS_PER_THREAD;
        for (n, levels) in [
            (6000, &[4u8, 8, 11][..]),
            (cutoff - 1, &[9]),
            (cutoff, &[9]),
        ] {
            let base = base_data(n);
            for &level in levels {
                let (pooled, _) = build(&base, level, &Filter::all());
                for threads in [1usize, 2, 3, 4, 8] {
                    let (par, stats) = build_parallel(&base, level, &Filter::all(), threads);
                    par.check_invariants();
                    assert_eq!(stats.rows_kept, n);
                    assert_eq!(stats.threads, threads);
                    assert_blocks_identical(&pooled, &par);
                }
            }
        }
    }

    #[test]
    fn parallel_build_with_filter_is_bit_identical() {
        let base = base_data(4000);
        let f = Filter::on(&base, "k", CmpOp::Lt, 4.0).unwrap();
        let (serial, sstats) = build(&base, 9, &f);
        let (par, pstats) = build_parallel(&base, 9, &f, 4);
        assert_eq!(sstats.rows_kept, pstats.rows_kept);
        assert_blocks_identical(&serial, &par);
    }

    /// The block-level records the per-tuple steps fold, the steps a §5
    /// update takes for a fresh cell: `push_empty` at each new cell, then
    /// one `add_tuple` per kept row, in base-row order.
    fn per_tuple_records(base: &BaseTable, level: u8, filter: &Filter) -> Layer {
        let mut out = Layer::with_capacity(level, base.schema().len(), 0);
        for row in (0..base.num_rows()).filter(|&r| filter.matches(base, r)) {
            let cell = CellId::from_raw(base.keys()[row]).parent_at(level).raw();
            if out.keys.last() != Some(&cell) {
                out.push_empty(cell);
            }
            out.add_tuple(out.num_cells() - 1, |col| base.value_f64(row, col));
        }
        out
    }

    #[test]
    fn records_are_the_per_tuple_fold_bit_for_bit() {
        // Scattered rows, then three stacks of rows on one point each, so
        // their order is the raw order: `0.0` before `-0.0`, `-0.0`
        // before `0.0` (which of two equal values a min or max keeps
        // shows in the sign), and repeated values whose sum depends on
        // the order of its terms. `k` is an `I64` column.
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::i64("k")]));
        for i in 0..3000u32 {
            let (x, y) = (
                f64::from(i * 37 % 1000) / 10.0,
                f64::from(i * 91 % 997) / 10.0,
            );
            raw.push_row(
                Point::new(x, y),
                &[f64::from(i % 7) * 0.1, f64::from(i % 5) - 2.0],
            );
        }
        let stacks: [(f64, &[f64]); 3] = [
            (12.5, &[0.0, -0.0, 3.0]),
            (50.5, &[-0.0, 0.0, -3.0]),
            (80.5, &[0.1, 0.2, 0.1, 0.2, 0.1, 0.7, 0.1]),
        ];
        for (at, values) in stacks {
            for (i, &v) in values.iter().enumerate() {
                raw.push_row(
                    Point::new(at, at),
                    &[v, if i % 2 == 0 { -0.0 } else { 7.0 }],
                );
            }
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        let base = extract(&raw, grid, &CleaningRules::none(), None).base;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let some = Filter::on(&base, "k", CmpOp::Ge, 0.0).unwrap();
        for filter in [Filter::all(), some] {
            for level in [0u8, 5, 9, 30] {
                let want = per_tuple_records(&base, level, &filter);
                for threads in [1usize, 2, 3] {
                    let (block, _) = build_parallel(&base, level, &filter, threads);
                    let got = block.records();
                    let case = format!("level {level}, {threads} threads, {filter:?}");
                    assert_eq!(got.keys, want.keys, "{case}");
                    assert_eq!(got.counts, want.counts, "{case}");
                    assert_eq!(bits(&got.mins), bits(&want.mins), "{case}");
                    assert_eq!(bits(&got.maxs), bits(&want.maxs), "{case}");
                    assert_eq!(bits(&got.sums), bits(&want.sums), "{case}");
                }
            }
        }
    }

    #[test]
    fn parallel_build_coarse_level_few_cells() {
        // At level 0 there is one cell: all split points collapse and the
        // build must degenerate gracefully to a single chunk.
        let base = base_data(2000);
        let (serial, _) = build(&base, 0, &Filter::all());
        let (par, _) = build_parallel(&base, 0, &Filter::all(), 8);
        assert_eq!(serial.num_cells(), 1);
        assert_blocks_identical(&serial, &par);
    }

    #[test]
    fn boundaries_are_cell_aligned_and_cover_all_rows() {
        let base = base_data(3000);
        for parts in [2usize, 4, 7] {
            let cuts = cell_aligned_boundaries(&base, 8, parts);
            assert_eq!(*cuts.first().unwrap(), 0);
            assert_eq!(*cuts.last().unwrap(), 3000);
            assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{cuts:?}");
            for &cut in &cuts[1..cuts.len() - 1] {
                let prev = CellId::from_raw(base.keys()[cut - 1]).parent_at(8);
                let next = CellId::from_raw(base.keys()[cut]).parent_at(8);
                assert_ne!(prev, next, "cut {cut} splits cell {prev:?}");
            }
        }
    }

    #[test]
    fn coarsen_matches_direct_build() {
        let base = base_data(3000);
        let (fine, _) = build(&base, 10, &Filter::all());
        let (coarse_direct, _) = build(&base, 6, &Filter::all());
        let coarse = fine.coarsen(6);
        coarse.check_invariants();
        let (coarse, direct) = (coarse.records(), coarse_direct.records());
        assert_eq!(coarse.keys, direct.keys);
        assert_eq!(coarse.counts, direct.counts);
        for (a, b) in coarse.sums.iter().zip(&direct.sums) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert_eq!(coarse.mins, direct.mins);
        assert_eq!(coarse.maxs, direct.maxs);
    }

    #[test]
    fn coarsen_to_same_level_is_identity() {
        let base = base_data(500);
        let (block, _) = build(&base, 7, &Filter::all());
        let same = block.coarsen(7);
        assert_blocks_identical(&same, &block);
    }

    #[test]
    fn memory_scales_with_cells_not_rows() {
        let base_small = base_data(2000);
        let base_large = base_data(20_000);
        let (a, _) = build(&base_small, 5, &Filter::all());
        let (b, _) = build(&base_large, 5, &Filter::all());
        // Level 5 has at most 1024 cells; more rows ≈ same cells.
        assert!(
            b.memory_bytes() < a.memory_bytes() * 3,
            "a={} b={}",
            a.memory_bytes(),
            b.memory_bytes()
        );
    }

    #[test]
    fn global_header_matches_scan() {
        let base = base_data(1500);
        let (block, _) = build(&base, 8, &Filter::all());
        let expect_sum: f64 = (0..1500).map(|i| i as f64).sum();
        let global = block.global_aggregate(&min_max_sum(0));
        assert_eq!(global.count, 1500);
        assert_eq!(global.values()[..2], [0.0, 1499.0]);
        assert!((global.values()[2] - expect_sum).abs() < 1e-6);
    }
}
