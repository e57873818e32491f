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
//! [`build_parallel`] fans the sweep out across threads. Chunk boundaries
//! are aligned to block-level cell boundaries, so no cell is ever split
//! across workers: every cell aggregate is accumulated by exactly one
//! thread in base-row order, and the merged block is **bit-identical** to
//! the serial one (see `parallel_build_is_bit_identical`). The global
//! header is defined as an in-order fold over the cell aggregates in both
//! paths, which keeps even its floating-point sums byte-for-byte stable.

use crate::block::GeoBlock;
use gb_cell::MAX_LEVEL;
use gb_common::Pool;
use gb_data::{BaseTable, Filter, Rows, Schema};
use std::ops::Range;
use std::time::Duration;

/// Statistics of one build pass.
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Wall time of the aggregation sweep.
    pub build_time: Duration,
    /// Rows scanned (all base rows).
    pub rows_scanned: usize,
    /// Rows that passed the filter and were aggregated.
    pub rows_kept: usize,
    /// Worker threads used (1 = serial sweep).
    pub threads: usize,
}

/// The cell aggregates produced by sweeping one contiguous row range.
/// Offsets are local to the range's filtered sequence; [`assemble`]
/// rebases them while concatenating partials in range order.
struct Partial {
    keys: Vec<u64>,
    offsets: Vec<u64>,
    counts: Vec<u32>,
    key_mins: Vec<u64>,
    key_maxs: Vec<u64>,
    mins: Vec<f64>,
    maxs: Vec<f64>,
    sums: Vec<f64>,
    rows_kept: u64,
}

/// One O(len) filter + aggregate sweep over `rows` of the sorted base.
fn sweep_range(base: &BaseTable, level: u8, filter: &Filter, rows: Range<usize>) -> Partial {
    let c = base.schema().len();
    let shift = 2 * (MAX_LEVEL - level) as u64;
    let mut p = Partial {
        keys: Vec::new(),
        offsets: Vec::new(),
        counts: Vec::new(),
        key_mins: Vec::new(),
        key_maxs: Vec::new(),
        mins: Vec::new(),
        maxs: Vec::new(),
        sums: Vec::new(),
        rows_kept: 0,
    };

    let keys = base.keys();
    let trivial = filter.is_trivial();
    let mut offset = 0u64; // position within this range's filtered sequence
    let mut cur_cell = u64::MAX;
    let mut cur_count = 0u32;

    for row in rows {
        if !trivial && !filter.matches(base, row) {
            continue;
        }
        let leaf = keys[row];
        // Block-level cell id of this leaf, by pure bit arithmetic: clear
        // the low bits and set the sentinel.
        let cell = (leaf & !((1u64 << (shift + 1)) - 1)) | (1u64 << shift);

        if cell != cur_cell {
            if cur_count > 0 {
                p.counts.push(cur_count);
            }
            cur_cell = cell;
            cur_count = 0;
            p.keys.push(cell);
            p.offsets.push(offset);
            p.key_mins.push(leaf);
            p.key_maxs.push(leaf);
            p.mins.extend(std::iter::repeat_n(f64::INFINITY, c));
            p.maxs.extend(std::iter::repeat_n(f64::NEG_INFINITY, c));
            p.sums.extend(std::iter::repeat_n(0.0, c));
        }
        cur_count += 1;
        offset += 1;
        let last = p.keys.len() - 1;
        p.key_maxs[last] = leaf; // keys ascend, so the last seen is max
        let base_idx = last * c;
        for col in 0..c {
            let v = base.value_f64(row, col);
            let m = &mut p.mins[base_idx + col];
            if v < *m {
                *m = v;
            }
            let m = &mut p.maxs[base_idx + col];
            if v > *m {
                *m = v;
            }
            p.sums[base_idx + col] += v;
        }
    }
    if cur_count > 0 {
        p.counts.push(cur_count);
    }
    p.rows_kept = offset;
    p
}

/// Concatenate partials (in range order) into a block and derive the
/// global header by folding the cell aggregates in cell order. The fold is
/// the *definition* of the header, shared by the serial and parallel
/// paths, so both produce identical bytes.
fn assemble(grid: gb_cell::Grid, level: u8, schema: Schema, partials: Vec<Partial>) -> GeoBlock {
    let c = schema.len();
    let n_cells: usize = partials.iter().map(|p| p.keys.len()).sum();
    let mut block = GeoBlock {
        grid,
        level,
        schema,
        keys: Vec::with_capacity(n_cells),
        offsets: Vec::with_capacity(n_cells),
        counts: Vec::with_capacity(n_cells),
        key_mins: Vec::with_capacity(n_cells),
        key_maxs: Vec::with_capacity(n_cells),
        mins: Vec::with_capacity(n_cells * c),
        maxs: Vec::with_capacity(n_cells * c),
        sums: Vec::with_capacity(n_cells * c),
        n_rows: 0,
        min_cell: 0,
        max_cell: 0,
        global_mins: vec![f64::INFINITY; c],
        global_maxs: vec![f64::NEG_INFINITY; c],
        global_sums: vec![0.0; c],
        dirty_offsets: false,
        prefix_counts: Vec::new(),
        pyramid: Default::default(),
    };

    let mut row_base = 0u64;
    for p in partials {
        debug_assert!(
            block
                .keys
                .last()
                .zip(p.keys.first())
                .is_none_or(|(a, b)| a < b),
            "partials must cover disjoint, ascending cell ranges"
        );
        block.keys.extend_from_slice(&p.keys);
        block.offsets.extend(p.offsets.iter().map(|o| o + row_base));
        block.counts.extend_from_slice(&p.counts);
        block.key_mins.extend_from_slice(&p.key_mins);
        block.key_maxs.extend_from_slice(&p.key_maxs);
        block.mins.extend_from_slice(&p.mins);
        block.maxs.extend_from_slice(&p.maxs);
        block.sums.extend_from_slice(&p.sums);
        row_base += p.rows_kept;
    }
    block.n_rows = row_base;
    block.min_cell = block.keys.first().copied().unwrap_or(0);
    block.max_cell = block.keys.last().copied().unwrap_or(0);

    for cell in 0..block.keys.len() {
        let base_idx = cell * c;
        for col in 0..c {
            let v = block.mins[base_idx + col];
            if v < block.global_mins[col] {
                block.global_mins[col] = v;
            }
            let v = block.maxs[base_idx + col];
            if v > block.global_maxs[col] {
                block.global_maxs[col] = v;
            }
            block.global_sums[col] += block.sums[base_idx + col];
        }
    }

    block
}

/// Build a GeoBlock at `level` over the rows of `base` matching `filter`.
///
/// Single linear pass. Empty cells are omitted (§3.4); tuple offsets are
/// positions within the *filtered* row sequence, which keeps the COUNT
/// range-sum arithmetic of Listing 2 exact per block.
pub fn build(base: &BaseTable, level: u8, filter: &Filter) -> (GeoBlock, BuildStats) {
    assert!(level <= MAX_LEVEL);
    let timer = gb_common::Timer::start();
    let n = base.keys().len();
    let partial = sweep_range(base, level, filter, 0..n);
    let rows_kept = partial.rows_kept as usize;
    let mut block = assemble(*base.grid(), level, base.schema().clone(), vec![partial]);
    block.refresh_derived(None);
    let stats = BuildStats {
        build_time: timer.elapsed(),
        rows_scanned: n,
        rows_kept,
        threads: 1,
    };
    (block, stats)
}

/// Row indices that cut `base` into at most `parts` contiguous ranges
/// whose boundaries never split a block-level cell: each tentative even
/// split is pushed forward to the end of the cell it lands in.
fn cell_aligned_boundaries(base: &BaseTable, level: u8, parts: usize) -> Vec<usize> {
    let keys = base.keys();
    let n = keys.len();
    let shift = 2 * (MAX_LEVEL - level) as u64;
    let mut cuts = vec![0usize];
    for i in 1..parts {
        let tentative = i * n / parts;
        if tentative <= *cuts.last().unwrap() || tentative >= n {
            continue;
        }
        // Largest leaf key that still belongs to the tentative row's cell:
        // same prefix, all level-local bits set.
        let hi = keys[tentative] | ((1u64 << (shift + 1)) - 1);
        let cut = tentative + keys[tentative..].partition_point(|&k| k <= hi);
        if cut > *cuts.last().unwrap() && cut < n {
            cuts.push(cut);
        }
    }
    cuts.push(n);
    cuts
}

/// [`build`], fanned out over `threads` workers.
///
/// The result is bit-identical to the serial build: chunks are
/// cell-aligned (`cell_aligned_boundaries`), so each cell aggregate is
/// produced by one worker in base-row order, and the merge concatenates
/// partials in ascending key order before deriving the global header with
/// the same fold the serial path uses.
pub fn build_parallel(
    base: &BaseTable,
    level: u8,
    filter: &Filter,
    threads: usize,
) -> (GeoBlock, BuildStats) {
    assert!(level <= MAX_LEVEL);
    let n = base.keys().len();
    if threads <= 1 || n < 2 {
        let (block, mut stats) = build(base, level, filter);
        stats.threads = 1;
        return (block, stats);
    }
    let timer = gb_common::Timer::start();
    let cuts = cell_aligned_boundaries(base, level, threads);
    let pool = Pool::new(threads);
    let partials = pool.run(cuts.len() - 1, |i| {
        sweep_range(base, level, filter, cuts[i]..cuts[i + 1])
    });
    let rows_kept: u64 = partials.iter().map(|p| p.rows_kept).sum();
    let mut block = assemble(*base.grid(), level, base.schema().clone(), partials);
    // Pyramid layers are independent in-order folds over the assembled
    // cells: fanning them over the pool is bit-identical to the serial
    // build at any thread count.
    block.refresh_derived(Some(&pool));
    let stats = BuildStats {
        build_time: timer.elapsed(),
        rows_scanned: n,
        rows_kept: rows_kept as usize,
        threads,
    };
    (block, stats)
}

/// Build a GeoBlock and return the *filtered base rows* alongside, for
/// baselines that need the same filtered view (parity in experiments).
pub fn build_with_rows(base: &BaseTable, level: u8, filter: &Filter) -> (GeoBlock, Vec<u32>) {
    let rows = filter.matching_rows(base);
    let (block, _) = build(base, level, filter);
    (block, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_cell::{CellId, Grid};
    use gb_data::{extract, CleaningRules, CmpOp, ColumnDef, RawTable, Schema};
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

    /// Byte-level equality: every array identical, floats compared by bits.
    fn assert_blocks_identical(a: &GeoBlock, b: &GeoBlock) {
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.key_mins, b.key_mins);
        assert_eq!(a.key_maxs, b.key_maxs);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.mins), bits(&b.mins));
        assert_eq!(bits(&a.maxs), bits(&b.maxs));
        assert_eq!(bits(&a.sums), bits(&b.sums));
        assert_eq!(a.n_rows, b.n_rows);
        assert_eq!(a.min_cell, b.min_cell);
        assert_eq!(a.max_cell, b.max_cell);
        assert_eq!(bits(&a.global_mins), bits(&b.global_mins));
        assert_eq!(bits(&a.global_maxs), bits(&b.global_maxs));
        assert_eq!(bits(&a.global_sums), bits(&b.global_sums));
        // Derived structures too: count prefix and every pyramid layer.
        assert_eq!(a.prefix_counts, b.prefix_counts);
        assert_eq!(a.pyramid, b.pyramid, "pyramids diverged");
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
    fn every_row_lands_in_its_cell() {
        let base = base_data(1000);
        let (block, _) = build(&base, 6, &Filter::all());
        for row in 0..1000 {
            let leaf = CellId::from_raw(base.keys()[row]);
            let cell = leaf.parent_at(6);
            let idx = block.keys.binary_search(&cell.raw()).expect("cell present");
            assert!(block.counts[idx] > 0);
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
        let kidx = 1;
        assert_eq!(block.global_mins[kidx], 3.0);
        assert_eq!(block.global_maxs[kidx], 3.0);
        assert_eq!(block.global_sums[kidx], 600.0);
    }

    #[test]
    fn empty_filter_result_builds_empty_block() {
        let base = base_data(100);
        let f = Filter::on(&base, "v", CmpOp::Lt, -1.0).unwrap();
        let (block, _) = build(&base, 8, &f);
        assert_eq!(block.num_rows(), 0);
        assert_eq!(block.num_cells(), 0);
        assert!(!block.may_overlap(CellId::ROOT));
        // The pyramid is still there, one (empty) layer per level.
        assert_eq!(block.pyramid().num_levels(), 8);
        assert_eq!(block.pyramid().num_records(), 0);
        assert_eq!(block.pyramid().memory_bytes(), 0);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let base = base_data(6000);
        for level in [4u8, 8, 11] {
            let (serial, _) = build(&base, level, &Filter::all());
            for threads in [2usize, 3, 4, 8] {
                let (par, stats) = build_parallel(&base, level, &Filter::all(), threads);
                par.check_invariants();
                assert_eq!(stats.rows_kept, 6000);
                assert_blocks_identical(&serial, &par);
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

    #[test]
    fn parallel_build_one_thread_delegates_to_serial() {
        let base = base_data(1500);
        let (serial, _) = build(&base, 7, &Filter::all());
        let (par, stats) = build_parallel(&base, 7, &Filter::all(), 1);
        assert_eq!(stats.threads, 1);
        assert_blocks_identical(&serial, &par);
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
        assert_eq!(coarse.keys, coarse_direct.keys);
        assert_eq!(coarse.counts, coarse_direct.counts);
        assert_eq!(coarse.offsets, coarse_direct.offsets);
        assert_eq!(coarse.key_mins, coarse_direct.key_mins);
        assert_eq!(coarse.key_maxs, coarse_direct.key_maxs);
        for (a, b) in coarse.sums.iter().zip(&coarse_direct.sums) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert_eq!(coarse.mins, coarse_direct.mins);
        assert_eq!(coarse.maxs, coarse_direct.maxs);
    }

    #[test]
    fn coarsen_to_same_level_is_identity() {
        let base = base_data(500);
        let (block, _) = build(&base, 7, &Filter::all());
        let same = block.coarsen(7);
        assert_eq!(same.keys, block.keys);
        assert_eq!(same.counts, block.counts);
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
        let vidx = 0;
        let expect_sum: f64 = (0..1500).map(|i| i as f64).sum();
        assert!((block.global_sums[vidx] - expect_sum).abs() < 1e-6);
        assert_eq!(block.global_mins[vidx], 0.0);
        assert_eq!(block.global_maxs[vidx], 1499.0);
    }
}
