//! The GeoBlock storage layout (§3.4, Figure 1).
//!
//! A GeoBlock stores one **cell aggregate** per non-empty grid cell at the
//! block level, in ascending spatial-key order (the same order as the base
//! data), plus a **global header** combining everything block-wide.
//!
//! Each cell aggregate holds: the cell's spatial key, the base-data offset
//! of its first tuple, the tuple count, the min/max *leaf* keys of the
//! contained tuples, and per-column min/max/sum. We lay the records out
//! struct-of-arrays (columnar), which is both cache-friendlier for the
//! query scans and a faithful byte-count match for the paper's fixed-size
//! record layout.

use crate::aggregate::AggResult;
use crate::gallop;
use crate::pyramid::AggPyramid;
use gb_cell::{CellId, Grid};
use gb_data::{AggSpec, Schema};

/// A pre-aggregating materialized view over geospatial point data.
#[derive(Debug, Clone)]
pub struct GeoBlock {
    pub(crate) grid: Grid,
    pub(crate) level: u8,
    pub(crate) schema: Schema,

    // --- cell aggregates, SoA, sorted by `keys` ---
    /// Block-level cell ids (raw), ascending.
    pub(crate) keys: Vec<u64>,
    /// Offset (in the block's base-data row order) of the first tuple.
    pub(crate) offsets: Vec<u64>,
    /// Tuples in the cell.
    pub(crate) counts: Vec<u32>,
    /// Minimum leaf key among the cell's tuples.
    pub(crate) key_mins: Vec<u64>,
    /// Maximum leaf key among the cell's tuples.
    pub(crate) key_maxs: Vec<u64>,
    /// Per-column minima, flattened `cell × column`.
    pub(crate) mins: Vec<f64>,
    /// Per-column maxima, flattened `cell × column`.
    pub(crate) maxs: Vec<f64>,
    /// Per-column sums, flattened `cell × column`.
    pub(crate) sums: Vec<f64>,

    // --- global header (§3.4) ---
    /// Total tuples in the block.
    pub(crate) n_rows: u64,
    /// Smallest block-level cell id (raw) present.
    pub(crate) min_cell: u64,
    /// Largest block-level cell id (raw) present.
    pub(crate) max_cell: u64,
    /// Block-wide per-column (min, max, sum), flattened like one record.
    pub(crate) global_mins: Vec<f64>,
    pub(crate) global_maxs: Vec<f64>,
    pub(crate) global_sums: Vec<f64>,

    /// Set by updates: tuple offsets no longer match any base data, so
    /// COUNT must sum per-cell counts instead of the offset range trick.
    pub(crate) dirty_offsets: bool,

    // --- derived acceleration structures (never serialized: every
    // --- producer rebuilds them from the arrays above through
    // --- `refresh_derived`, the one place the canonical folds run) ---
    /// Exclusive prefix over `counts` (`n + 1` entries): the tuple count
    /// of any aggregate run `[a, b)` is `prefix_counts[b] −
    /// prefix_counts[a]` — Listing 2's offset trick, kept valid across
    /// updates (unlike `offsets`, which are pinned to the base data).
    pub(crate) prefix_counts: Vec<u64>,
    /// Aggregates at every level coarser than the block level.
    pub(crate) pyramid: AggPyramid,
}

impl GeoBlock {
    /// The grid this block decomposes.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The block level (grid resolution, §3.2).
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The attribute schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of non-empty grid cells (cell aggregates).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.keys.len()
    }

    /// Total tuples aggregated into the block.
    #[inline]
    pub fn num_rows(&self) -> u64 {
        self.n_rows
    }

    /// The maximum spatial error of query answers: the cell diagonal at the
    /// block level (§3.2).
    pub fn error_bound(&self) -> f64 {
        self.grid.cell_diagonal(self.level)
    }

    /// Number of attribute columns.
    #[inline]
    pub(crate) fn n_cols(&self) -> usize {
        self.schema.len()
    }

    /// The cell id of aggregate `idx`.
    #[inline]
    pub fn cell_at(&self, idx: usize) -> CellId {
        CellId::from_raw(self.keys[idx])
    }

    /// First aggregate index with key ≥ `key`, galloping forward from the
    /// cursor `from` (O(log gap), see [`crate::gallop`]).
    #[inline]
    pub(crate) fn lower_bound_from(&self, key: u64, from: usize) -> usize {
        gallop::lower_bound_from(&self.keys, key, from)
    }

    /// First aggregate index with key > `key`, galloping forward from the
    /// cursor `from`.
    #[inline]
    pub(crate) fn upper_bound_from(&self, key: u64, from: usize) -> usize {
        gallop::upper_bound_from(&self.keys, key, from)
    }

    /// The block-wide aggregate from the global header (100 % selectivity
    /// answers come from here in O(1)).
    pub fn global_aggregate(&self, spec: &AggSpec) -> AggResult {
        let mut r = AggResult::new(spec);
        r.combine_record(
            spec,
            self.n_rows,
            |col| self.global_mins[col],
            |col| self.global_maxs[col],
            |col| self.global_sums[col],
        );
        r.finalize(spec)
    }

    /// Constant-time pre-check from the header: can `cell` overlap any
    /// aggregate in this block? (§3.5 "thanks to the prefix-based
    /// containment checks, this is possible in constant time".)
    #[inline]
    pub fn may_overlap(&self, cell: CellId) -> bool {
        if self.keys.is_empty() {
            return false;
        }
        cell.range_max().raw() >= self.min_cell_leaf_min()
            && cell.range_min().raw() <= self.max_cell_leaf_max()
    }

    #[inline]
    fn min_cell_leaf_min(&self) -> u64 {
        CellId::from_raw(self.min_cell).range_min().raw()
    }

    #[inline]
    fn max_cell_leaf_max(&self) -> u64 {
        CellId::from_raw(self.max_cell).range_max().raw()
    }

    /// Bytes of one cell-aggregate record for this schema: key (8) +
    /// offset (8) + count (4) + key min/max (16) + 3 × 8 per column.
    pub fn record_bytes(&self) -> usize {
        8 + 8 + 4 + 16 + 24 * self.n_cols()
    }

    /// Heap bytes of the block-level cell aggregates + global header —
    /// the paper's original Figure-11b numerator, and the base the cache
    /// budget (aggregate threshold) is computed against.
    pub fn aggregate_bytes(&self) -> usize {
        self.num_cells() * self.record_bytes() + 3 * 8 * self.n_cols() + 32
    }

    /// Heap bytes of the derived acceleration structures: the count
    /// prefix plus the aggregate pyramid.
    pub fn derived_bytes(&self) -> usize {
        self.prefix_counts.len() * 8 + self.pyramid.memory_bytes()
    }

    /// Total heap bytes — cell aggregates, header, count prefix, and
    /// pyramid (the honest Figure-11b numerator for this implementation).
    pub fn memory_bytes(&self) -> usize {
        self.aggregate_bytes() + self.derived_bytes()
    }

    /// The aggregate pyramid.
    #[inline]
    pub fn pyramid(&self) -> &AggPyramid {
        &self.pyramid
    }

    /// Rebuild every derived structure (count prefix and pyramid) from
    /// the current cell aggregates — the single funnel every producer
    /// (build, coarsen, updates, snapshot load) ends in. With a pool the
    /// pyramid layers are fanned out; they are independent folds, so the
    /// result is bit-identical at any thread count. Updates call this
    /// instead of patching derived state in place: in-place propagation
    /// of sums would drift from the canonical fold by ULPs and break the
    /// pyramid-vs-scan bit-identity invariant.
    pub(crate) fn refresh_derived(&mut self, pool: Option<&gb_common::Pool>) {
        self.prefix_counts.clear();
        self.prefix_counts.reserve(self.keys.len() + 1);
        self.prefix_counts.push(0);
        let mut run = 0u64;
        for &cnt in &self.counts {
            run += u64::from(cnt);
            self.prefix_counts.push(run);
        }
        // Release the stale layers before folding their replacement.
        self.pyramid = AggPyramid::default();
        self.pyramid = AggPyramid::build(self, pool);
    }

    /// A digest over every stored array (floats by bit pattern, so NaN
    /// payloads and signed zeros count). Two blocks with equal hashes are
    /// byte-identical for all practical purposes — the `scale-threads`
    /// experiment uses this to prove parallel builds match serial ones.
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = gb_common::FxHasher::default();
        self.level.hash(&mut h);
        self.keys.hash(&mut h);
        self.offsets.hash(&mut h);
        self.counts.hash(&mut h);
        self.key_mins.hash(&mut h);
        self.key_maxs.hash(&mut h);
        let bits = |v: &[f64], h: &mut gb_common::FxHasher| {
            for x in v {
                x.to_bits().hash(h);
            }
        };
        bits(&self.mins, &mut h);
        bits(&self.maxs, &mut h);
        bits(&self.sums, &mut h);
        self.n_rows.hash(&mut h);
        self.min_cell.hash(&mut h);
        self.max_cell.hash(&mut h);
        bits(&self.global_mins, &mut h);
        bits(&self.global_maxs, &mut h);
        bits(&self.global_sums, &mut h);
        h.finish()
    }

    /// Build a coarser GeoBlock at `level` from this one **without**
    /// rescanning the base data (§3.4 "aggregate granularity"): the
    /// aggregate arrays *are* this block's pyramid layer for `level` (the
    /// canonical in-order fold), plus one grouping pass for the base-data
    /// linkage (offsets, leaf-key bounds) the pyramid does not carry.
    pub fn coarsen(&self, level: u8) -> GeoBlock {
        assert!(level <= self.level, "coarsen can only reduce the level");
        if level == self.level {
            return self.clone();
        }
        let layer = &self.pyramid.levels[level as usize];
        let mut out = GeoBlock {
            grid: self.grid,
            level,
            schema: self.schema.clone(),
            keys: layer.keys.clone(),
            offsets: Vec::new(),
            counts: layer
                .counts
                .iter()
                .map(|&n| u32::try_from(n).expect("cell count fits u32"))
                .collect(),
            key_mins: Vec::new(),
            key_maxs: Vec::new(),
            mins: layer.mins.clone(),
            maxs: layer.maxs.clone(),
            sums: layer.sums.clone(),
            n_rows: self.n_rows,
            min_cell: 0,
            max_cell: 0,
            global_mins: self.global_mins.clone(),
            global_maxs: self.global_maxs.clone(),
            global_sums: self.global_sums.clone(),
            dirty_offsets: self.dirty_offsets,
            prefix_counts: Vec::new(),
            pyramid: AggPyramid::default(),
        };

        // Base-data linkage per coarse group: first offset, leaf-key span.
        let mut i = 0usize;
        while i < self.keys.len() {
            let parent = self.cell_at(i).parent_at(level);
            out.offsets.push(self.offsets[i]);
            out.key_mins.push(self.key_mins[i]);
            let mut key_max = 0u64;
            while i < self.keys.len() && parent.contains(self.cell_at(i)) {
                key_max = key_max.max(self.key_maxs[i]);
                i += 1;
            }
            out.key_maxs.push(key_max);
        }
        debug_assert_eq!(out.offsets.len(), out.keys.len());

        out.min_cell = out.keys.first().copied().unwrap_or(0);
        out.max_cell = out.keys.last().copied().unwrap_or(0);
        debug_assert!(
            out.keys.windows(2).all(|w| w[0] < w[1]),
            "coarse keys unique+sorted"
        );
        out.refresh_derived(None);
        out
    }

    /// Check every invariant of the *stored* arrays without panicking —
    /// the validation gate for untrusted inputs (snapshot loads): a
    /// corrupt file that passes the container checksums must still
    /// describe a structurally possible block before any fold or query
    /// code touches it. Derived state is never read from outside, so it
    /// is not checked here (see [`GeoBlock::check_invariants`]).
    pub fn validate(&self) -> Result<(), String> {
        let c = self.n_cols();
        let n = self.keys.len();
        if self.offsets.len() != n || self.counts.len() != n {
            return Err(format!(
                "array lengths disagree: {n} keys, {} offsets, {} counts",
                self.offsets.len(),
                self.counts.len()
            ));
        }
        if self.key_mins.len() != n || self.key_maxs.len() != n {
            return Err("key min/max arrays do not match the cell count".into());
        }
        if self.mins.len() != n * c || self.maxs.len() != n * c || self.sums.len() != n * c {
            return Err(format!(
                "aggregate arrays must hold cells × columns = {} values",
                n * c
            ));
        }
        if self.global_mins.len() != c || self.global_maxs.len() != c || self.global_sums.len() != c
        {
            return Err("global header arrays do not match the column count".into());
        }
        if self.level > gb_cell::MAX_LEVEL {
            return Err(format!("block level {} exceeds MAX_LEVEL", self.level));
        }
        if !self.keys.windows(2).all(|w| w[0] < w[1]) {
            return Err("cell keys not strictly ascending".into());
        }
        let total: u64 = self.counts.iter().map(|&x| u64::from(x)).sum();
        if total != self.n_rows {
            return Err(format!(
                "counts sum to {total}, header says {}",
                self.n_rows
            ));
        }
        for (i, &k) in self.keys.iter().enumerate() {
            let cell = CellId::try_from_raw(k)
                .ok_or_else(|| format!("malformed cell id {k:#x} at index {i}"))?;
            if cell.level() != self.level {
                return Err(format!(
                    "cell {i} at level {}, block level is {}",
                    cell.level(),
                    self.level
                ));
            }
            if self.counts[i] == 0 {
                return Err(format!("empty cell stored at index {i}"));
            }
            let key_ok = |raw: u64| CellId::try_from_raw(raw).is_some_and(|id| cell.contains(id));
            if !key_ok(self.key_mins[i]) || !key_ok(self.key_maxs[i]) {
                return Err(format!("leaf key bounds of cell {i} outside the cell"));
            }
        }
        if n > 0 && (self.min_cell != self.keys[0] || self.max_cell != self.keys[n - 1]) {
            return Err("header min/max cells disagree with the key array".into());
        }
        if !self.dirty_offsets {
            // Offsets are a running prefix sum of counts.
            let mut expect = self.offsets.first().copied().unwrap_or(0);
            for i in 0..n {
                if self.offsets[i] != expect {
                    return Err(format!("offset prefix-sum broken at index {i}"));
                }
                expect += u64::from(self.counts[i]);
            }
        }
        Ok(())
    }

    /// Sanity-check internal invariants (used by tests and debug builds):
    /// [`GeoBlock::validate`], plus the derived structures are what
    /// `refresh_derived` makes of the current records, bit for bit.
    #[track_caller]
    pub fn check_invariants(&self) {
        if let Err(e) = self.validate() {
            panic!("GeoBlock invariant violated: {e}");
        }
        let mut fresh = self.clone();
        fresh.refresh_derived(None);
        assert_eq!(self.prefix_counts, fresh.prefix_counts, "stale prefix");
        let (have, want) = (self.pyramid.content_hash(), fresh.pyramid.content_hash());
        assert_eq!(
            have, want,
            "pyramid is not the canonical fold of the records"
        );
    }
}
