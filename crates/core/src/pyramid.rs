//! The aggregate pyramid: precomputed cell aggregates at **every** level
//! from the block level up to the root (§3.4 "aggregate granularity",
//! turned from a build-time choice into a query-time structure).
//!
//! The covering of a query polygon consists of grid-aligned cells whose
//! levels range from the block level (boundary cells) up to much coarser
//! interior cells. The base query path expands a coarse interior cell into
//! a scan over up to 4^Δ block-level records; the pyramid instead holds
//! one precomputed record per non-empty cell per level, so any covering
//! cell is answered by **one** binary search and **one** record combine.
//!
//! Every layer is defined as the *in-order fold* of the block-level
//! records it covers — [`GeoBlock::coarsen`] hands out the same layer as
//! a block of its own — so a pyramid lookup is bit-identical to scanning
//! the underlying records into a fresh accumulator (floating-point
//! association included). That
//! definition is what lets the query tests assert exact (`approx_eq` at
//! `0.0`) agreement between the pyramid path and the range-scan path.
//!
//! Layers are independent of one another (each folds directly from the
//! block level, never from the next-finer layer), which makes the build
//! embarrassingly parallel: `build_parallel` fans one task per layer over
//! [`gb_common::Pool`] and the result is bit-identical at any thread
//! count.

use crate::block::GeoBlock;
use gb_cell::CellId;
use gb_common::Pool;

/// One pyramid layer: cell aggregates at a single level coarser than the
/// block level, sorted by key — the same SoA layout as the block's own
/// records minus the base-data linkage (offsets, leaf-key bounds).
#[derive(Debug, Clone, PartialEq)]
pub struct PyramidLevel {
    /// The cell level of this layer.
    pub(crate) level: u8,
    /// Cell ids (raw) at `level`, ascending.
    pub(crate) keys: Vec<u64>,
    /// Tuples per cell. `u64`: coarse cells aggregate entire subtrees, so
    /// the block's per-cell `u32` bound does not apply.
    pub(crate) counts: Vec<u64>,
    /// Per-column minima, flattened `cell × column`.
    pub(crate) mins: Vec<f64>,
    /// Per-column maxima, flattened `cell × column`.
    pub(crate) maxs: Vec<f64>,
    /// Per-column sums, flattened `cell × column`.
    pub(crate) sums: Vec<f64>,
}

impl PyramidLevel {
    /// Number of non-empty cells in this layer.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.keys.len()
    }

    /// Heap bytes: key (8) + count (8) + 3 × 8 per column, per cell.
    pub(crate) fn memory_bytes(&self, n_cols: usize) -> usize {
        self.keys.len() * (16 + 24 * n_cols)
    }
}

/// In-order fold of `block`'s records into their ancestors at `level` —
/// the canonical aggregation ([`GeoBlock::coarsen`] copies its result):
/// the first record of each group seeds the accumulator, later records
/// fold in ascending key order.
fn fold_level(block: &GeoBlock, level: u8) -> PyramidLevel {
    let (keys, counts, c) = (&block.keys, &block.counts, block.schema().len());
    let (mins, maxs, sums) = (&block.mins, &block.maxs, &block.sums);
    // At most one cell per distinct level-`level` ancestor: the layer can
    // never exceed `4^level` cells nor the block's own cell count.
    // Reserving the bound up front keeps the grouping loop reallocation-
    // free (builds run this once per level); `shrink_to_fit` afterwards
    // returns the slack so the resident pyramid stays honest.
    let cap = (1usize << (2 * u32::from(level)).min(62)).min(keys.len());
    let mut out = PyramidLevel {
        level,
        keys: Vec::with_capacity(cap),
        counts: Vec::with_capacity(cap),
        mins: Vec::with_capacity(cap * c),
        maxs: Vec::with_capacity(cap * c),
        sums: Vec::with_capacity(cap * c),
    };
    // Sentinel bit of `level`: `parent + (lsb − 1)` is the raw id of the
    // group's last descendant leaf (`CellId::range_max`, hoisted to pure
    // arithmetic for the hot loop).
    let lsb = 1u64 << (2 * u64::from(gb_cell::MAX_LEVEL - level));
    let mut i = 0usize;
    while i < keys.len() {
        let parent = CellId::raw_parent_at(keys[i], level);
        let hi = parent + (lsb - 1);
        out.keys.push(parent);
        let col_base = out.mins.len();
        out.mins.extend_from_slice(&mins[i * c..(i + 1) * c]);
        out.maxs.extend_from_slice(&maxs[i * c..(i + 1) * c]);
        out.sums.extend_from_slice(&sums[i * c..(i + 1) * c]);
        let mut count = u64::from(counts[i]);
        i += 1;
        while i < keys.len() && keys[i] <= hi {
            count += u64::from(counts[i]);
            let base = i * c;
            let (gmins, gmaxs, gsums) = (
                &mut out.mins[col_base..col_base + c],
                &mut out.maxs[col_base..col_base + c],
                &mut out.sums[col_base..col_base + c],
            );
            for col in 0..c {
                gmins[col] = gmins[col].min(mins[base + col]);
                gmaxs[col] = gmaxs[col].max(maxs[base + col]);
                gsums[col] += sums[base + col];
            }
            i += 1;
        }
        out.counts.push(count);
    }
    out.keys.shrink_to_fit();
    out.counts.shrink_to_fit();
    out.mins.shrink_to_fit();
    out.maxs.shrink_to_fit();
    out.sums.shrink_to_fit();
    out
}

/// Precomputed cell aggregates at every level strictly coarser than the
/// block level. `levels[l]` is the layer for cell level `l`, for
/// `l ∈ 0..block_level` (the block's own records *are* the block-level
/// layer and are not duplicated). The `Default` (no layers) is what a
/// block under construction carries until `GeoBlock::refresh_derived`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggPyramid {
    pub(crate) n_cols: usize,
    pub(crate) levels: Vec<PyramidLevel>,
}

impl AggPyramid {
    /// Build the pyramid for `block`, one independent fold per layer. With
    /// a pool, layers are fanned out as parallel tasks; results are
    /// bit-identical either way because no layer depends on another.
    pub(crate) fn build(block: &GeoBlock, pool: Option<&Pool>) -> AggPyramid {
        let n_levels = block.level() as usize;
        let make = |l: usize| fold_level(block, l as u8);
        let levels = match pool {
            Some(pool) => pool.run(n_levels, make),
            None => (0..n_levels).map(make).collect(),
        };
        AggPyramid {
            n_cols: block.schema().len(),
            levels,
        }
    }

    /// Number of layers (== the block level).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total records across all layers.
    pub fn num_records(&self) -> usize {
        self.levels.iter().map(PyramidLevel::num_cells).sum()
    }

    /// Heap bytes of every layer — the pyramid's share of
    /// [`GeoBlock::memory_bytes`] (Figure 11b accounting).
    pub fn memory_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.memory_bytes(self.n_cols))
            .sum()
    }

    /// Digest over every layer (floats by bit pattern): equal hashes mean
    /// bit-identical pyramids. Every producer's pyramid hashes like
    /// `AggPyramid::build` of its block; version-2 snapshot files fold
    /// this digest into their stored state hash.
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = gb_common::FxHasher::default();
        self.n_cols.hash(&mut h);
        self.levels.len().hash(&mut h);
        for layer in &self.levels {
            layer.level.hash(&mut h);
            layer.keys.hash(&mut h);
            layer.counts.hash(&mut h);
            for v in layer.mins.iter().chain(&layer.maxs).chain(&layer.sums) {
                v.to_bits().hash(&mut h);
            }
        }
        h.finish()
    }
}
