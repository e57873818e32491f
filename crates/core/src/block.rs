//! The GeoBlock storage layout (§3.4, Figure 1).
//!
//! A GeoBlock stores one **cell aggregate** per non-empty grid cell at the
//! block level, in ascending spatial-key order (the same order as the base
//! data) — and nothing else. The paper's **global header**, everything
//! combined block-wide, is the root of the fold tree derived from them.
//!
//! Each cell aggregate holds the cell's spatial key, the tuple count and
//! per-column min/max/sum — aggregates only: nothing links a record back
//! to the tuples it came from (the paper's tuple offsets and leaf-key
//! bounds answered no query here and are gone). The records are laid out
//! struct-of-arrays in a [`Layer`], the one record layout of this crate:
//! the block is the finest of its own layers, and each coarser level is
//! the fold of the next finer one, up to the root record. Only the even
//! levels above the block level are materialised; a query reads a cell of
//! an odd one as its ≤ 4 children's records, and folds nothing.

use crate::aggregate::{AggPlan, AggResult, RecordRef};
use crate::layer::Layer;
use gb_cell::{CellId, CellUnion, Grid};
use gb_data::{AggSpec, Schema};

/// Does a block of `block_level` keep a layer for `level`? Its own level
/// and every even level above it: one rule, no knob. Every odd level sits
/// right above a kept one, so a query reads its cell as ≤ 4 kept records.
/// The parity is of absolute levels, so the root record — the global
/// header — is always stored, and a coarsened block keeps its source's
/// even layers.
fn materialised(level: u8, block_level: u8) -> bool {
    level == block_level || (level < block_level && level.is_multiple_of(2))
}

/// A pre-aggregating materialized view over geospatial point data.
#[derive(Debug, Clone)]
pub struct GeoBlock {
    pub(crate) grid: Grid,
    pub(crate) schema: Schema,

    /// The materialised levels, root first: `layers[i]` holds the record
    /// of every non-empty cell of level `2i`, and the last one those of
    /// the block level (see `materialised`). That last one — the
    /// block-level cell aggregates — is the stored state; a block under
    /// construction holds nothing else. The coarser ones are derived:
    /// never serialized, and rebuilt by every producer through
    /// `refresh_derived`, the one place the folds run.
    pub(crate) layers: Vec<Layer>,
}

impl GeoBlock {
    /// A block over `records`, its block-level cell aggregates, with
    /// nothing derived yet: every producer makes one of these and ends in
    /// `refresh_derived`.
    pub(crate) fn from_records(grid: Grid, schema: Schema, records: Layer) -> GeoBlock {
        GeoBlock {
            grid,
            schema,
            layers: vec![records],
        }
    }

    /// The grid this block decomposes.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The block level (grid resolution, §3.2): the level of its records.
    #[inline]
    pub fn level(&self) -> u8 {
        self.records().level
    }

    /// The attribute schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Every materialised layer, root first: the even levels above the
    /// block level, then the block-level cell aggregates.
    #[inline]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The layer of `level`, if the block holds it: `None` for an odd
    /// level above the block level, for any level below it, and for every
    /// level above it in a block that holds its stored layer only (one
    /// under construction, before `refresh_derived`).
    #[inline]
    pub(crate) fn layer_at(&self, level: u8) -> Option<&Layer> {
        if level == self.level() {
            Some(self.records())
        } else {
            let layer = self.layers.get(usize::from(level / 2))?;
            (layer.level == level).then_some(layer)
        }
    }

    /// The block-level cell aggregates: the last layer, in a finished
    /// block and in one still under construction alike.
    #[inline]
    pub(crate) fn records(&self) -> &Layer {
        self.layers.last().expect("a block holds its records")
    }

    /// Number of non-empty grid cells (cell aggregates).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.records().num_cells()
    }

    /// Total tuples aggregated into the block: the root record's count.
    #[inline]
    pub fn num_rows(&self) -> u64 {
        self.root().map_or(0, |root| root.count)
    }

    /// The maximum spatial error of query answers: the cell diagonal at the
    /// block level (§3.2).
    pub fn error_bound(&self) -> f64 {
        self.grid.cell_diagonal(self.level())
    }

    /// Number of attribute columns.
    #[inline]
    pub(crate) fn n_cols(&self) -> usize {
        self.schema.len()
    }

    /// The cell id of aggregate `idx`.
    #[inline]
    pub fn cell_at(&self, idx: usize) -> CellId {
        CellId::from_raw(self.records().keys[idx])
    }

    /// The root record — the fold of every record, and so the §3.4
    /// global header. `None` in an empty block.
    pub(crate) fn root(&self) -> Option<RecordRef<'_>> {
        let top = self.layer_at(0)?;
        (top.num_cells() > 0).then(|| top.record(0))
    }

    /// The block-wide aggregate, read from the root record (100 %
    /// selectivity answers come from here in O(1)).
    pub fn global_aggregate(&self, spec: &AggSpec) -> AggResult {
        let mut r = AggResult::new(spec);
        if let Some(root) = self.root() {
            root.combine_into(&AggPlan::compile(spec), &mut r);
        }
        r.finalize(spec)
    }

    /// The run of `covering`'s cells that may overlap an aggregate in this
    /// block: those whose leaf range meets the block's key extent (Listing
    /// 1 lines 5–6, the paper's constant-time prefix check), as one slice.
    /// A covering's cells are disjoint and in curve order, so their leaf
    /// ranges ascend and the cells that reach into the extent are
    /// contiguous.
    pub fn overlapping<'c>(&self, covering: &'c CellUnion) -> &'c [CellId] {
        let Some((lo, hi)) = self.leaf_extent() else {
            return &[];
        };
        let cells = covering.cells();
        let start = cells.partition_point(|c| c.range_max().raw() < lo);
        let end = start + cells[start..].partition_point(|c| c.range_min().raw() <= hi);
        &cells[start..end]
    }

    /// The first and the last leaf under the block's records, `None` in an
    /// empty block.
    #[inline]
    fn leaf_extent(&self) -> Option<(u64, u64)> {
        let keys = &self.records().keys;
        let first = CellId::from_raw(*keys.first()?).range_min();
        let last = CellId::from_raw(*keys.last()?).range_max();
        Some((first.raw(), last.raw()))
    }

    /// Bytes of one cell-aggregate record for this schema: key (8) +
    /// count (8) + 3 × 8 per column.
    pub fn record_bytes(&self) -> usize {
        self.records().record_bytes()
    }

    /// Heap bytes of the block-level cell aggregates — the original
    /// Figure-11b numerator. The paper's global header is the root record,
    /// counted in [`GeoBlock::derived_bytes`].
    pub fn aggregate_bytes(&self) -> usize {
        self.records().memory_bytes()
    }

    /// Heap bytes of the derived acceleration structure: every
    /// materialised layer coarser than the block level.
    pub fn derived_bytes(&self) -> usize {
        let coarser = &self.layers[..self.layers.len() - 1];
        coarser.iter().map(Layer::memory_bytes).sum()
    }

    /// Total heap bytes — cell aggregates and coarser layers (the honest
    /// Figure-11b numerator for this implementation).
    pub fn memory_bytes(&self) -> usize {
        self.aggregate_bytes() + self.derived_bytes()
    }

    /// Rebuild everything derived (the coarser layers) from the stored
    /// layer, the last in `layers` whether stale coarser ones precede it
    /// or not — the single funnel every producer (build, coarsen,
    /// updates, snapshot load) ends in.
    /// The levels are one cascade: each is the fold of the next finer one
    /// (`Layer::fold_to`), from the block level up to the root record.
    /// Each step needs the one before, so it runs on the calling thread.
    /// Only the `materialised` levels stay: an odd layer is freed once
    /// the even one above it has been folded from it.
    /// Updates call this instead of patching derived state in place:
    /// in-place propagation of sums would drift from the canonical fold by
    /// ULPs and break the layer-vs-oracle bit-identity invariant.
    pub(crate) fn refresh_derived(&mut self) {
        let Some(records) = self.layers.pop() else {
            return;
        };
        // Release the stale layers before folding their replacement.
        self.layers = Vec::new();

        let mut layers = Vec::with_capacity(usize::from(records.level) / 2 + 2);
        layers.push(records);
        let mut odd: Option<Layer> = None;
        while let Some(finer) = odd.as_ref().or(layers.last()).filter(|l| l.level > 0) {
            let coarser = finer.fold_to(finer.level - 1);
            if coarser.level.is_multiple_of(2) {
                layers.push(coarser);
                odd = None;
            } else {
                odd = Some(coarser);
            }
        }
        layers.reverse();
        self.layers = layers;
    }

    /// A digest over the stored state — the block-level records and the
    /// global header the `HDRS` section stores beside them (floats by bit
    /// pattern, so NaN payloads and signed zeros count). Two blocks with
    /// equal hashes are byte-identical for all practical purposes — the
    /// `scale-threads` experiment uses this to prove parallel builds match
    /// serial ones.
    pub fn content_hash(&self) -> u64 {
        crate::snapshot::Header::of(self).digest(self.records())
    }

    /// Build a coarser GeoBlock at `level` from this one **without**
    /// rescanning the base data (§3.4 "aggregate granularity"): its
    /// records *are* this block's records of `level` — its layer, or at an
    /// odd level the fold of the layer below — so the cascade folds its
    /// coarser layers into this block's own, bit for bit.
    pub fn coarsen(&self, level: u8) -> GeoBlock {
        assert!(level <= self.level(), "coarsen can only reduce the level");
        let records = match self.layer_at(level) {
            Some(layer) => layer.clone(),
            None => self.layer_at(level + 1).expect("kept").fold_to(level),
        };
        let mut out = GeoBlock::from_records(self.grid, self.schema.clone(), records);
        out.refresh_derived();
        out
    }

    /// Check every invariant of the *stored* state — the block-level
    /// records — without panicking: the validation gate for untrusted
    /// inputs (snapshot loads). A corrupt file that passes the container
    /// checksums must still describe a structurally possible block before
    /// any fold or query code touches it. Derived state is never read from
    /// outside; [`GeoBlock::check_invariants`] covers it.
    pub fn validate(&self) -> Result<(), String> {
        let (records, c) = (self.records(), self.n_cols());
        if records.n_cols != c {
            return Err(format!(
                "records with {} columns, schema with {c}",
                records.n_cols
            ));
        }
        records.validate()?;
        let total = records
            .counts
            .iter()
            .try_fold(0u64, |sum, &n| sum.checked_add(n));
        if total.is_none() {
            return Err("the counts overflow a u64".into());
        }
        Ok(())
    }

    /// Sanity-check internal invariants (used by tests and debug builds):
    /// [`GeoBlock::validate`], the block keeps exactly the
    /// `materialised` levels, each a valid [`Layer`], and the derived
    /// structures are what `refresh_derived` makes of the current
    /// records, bit for bit.
    #[track_caller]
    pub fn check_invariants(&self) {
        if let Err(e) = self.validate() {
            panic!("GeoBlock invariant violated: {e}");
        }
        let block = self.level();
        let levels: Vec<u8> = self.layers.iter().map(|l| l.level).collect();
        let kept: Vec<u8> = (0..=block).filter(|&l| materialised(l, block)).collect();
        assert_eq!(levels, kept, "materialised levels");
        let fresh = self.coarsen(self.level());
        for (have, want) in self.layers.iter().zip(&fresh.layers) {
            let l = have.level;
            if let Err(e) = have.validate() {
                panic!("layer {l} invalid: {e}");
            }
            assert_eq!(have.n_cols, self.n_cols(), "layer {l} columns");
            assert_eq!(
                have.content_hash(),
                want.content_hash(),
                "layer {l} is not the canonical fold of the records"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::build::build;
    use crate::GeoBlock;
    use gb_cell::{CellId, Grid};
    use gb_data::{extract, CleaningRules, CmpOp, ColumnDef, Filter, RawTable, Schema};
    use gb_geom::{Point, Polygon, Rect};
    use proptest::prelude::*;

    #[test]
    fn a_stored_only_copy_holds_no_coarser_level() {
        // Its one layer is the block level's: no coarser level may read
        // it, so there is no root record — and no rows — until the copy
        // derives its layers.
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        for i in 0..500 {
            let (x, y) = ((i * 37 % 100) as f64, (i * 61 % 100) as f64);
            raw.push_row(Point::new(x + 0.5, y + 0.5), &[i as f64]);
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        let base = extract(&raw, grid, &CleaningRules::none(), None).base;
        for level in [6u8, 7] {
            let (block, _) = build(&base, level, &Filter::all());
            let records = block.records().clone();
            let mut copy = GeoBlock::from_records(*block.grid(), block.schema().clone(), records);
            assert_eq!(copy.layer_at(level), Some(block.records()));
            for coarser in 0..level {
                assert!(copy.layer_at(coarser).is_none(), "level {coarser}");
            }
            assert!(copy.root().is_none());
            assert_eq!(copy.num_rows(), 0);
            copy.refresh_derived();
            assert_eq!(copy.num_rows(), 500);
            assert_eq!(copy.layer_at(0), block.layer_at(0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `overlapping` is the per-cell pre-check as one run: for
        /// rectangles inside, straddling and outside a block whose data
        /// fills only part of the domain, and for an empty block, it is
        /// exactly the covering's cells whose leaf range meets the block's
        /// first and last leaf, and so holds every cell with data.
        #[test]
        fn overlapping_is_the_run_the_key_extent_keeps(
            points in prop::collection::vec((20.0..70.0f64, 30.0..60.0f64), 1..80),
            rects in prop::collection::vec(
                (-30.0..120.0f64, -30.0..120.0f64, 0.5..60.0f64, 0.5..60.0f64),
                1..12,
            ),
            level in 3u8..10,
        ) {
            let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
            for (i, &(x, y)) in points.iter().enumerate() {
                raw.push_row(Point::new(x, y), &[i as f64]);
            }
            let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
            let base = extract(&raw, grid, &CleaningRules::none(), None).base;
            let nothing = Filter::on(&base, "v", CmpOp::Lt, -1.0).unwrap();
            let (block, _) = build(&base, level, &Filter::all());
            let (empty, _) = build(&base, level, &nothing);
            prop_assert_eq!(empty.num_cells(), 0);
            for &(x, y, w, h) in &rects {
                let rect = Rect::from_bounds(x, y, x + w, y + h);
                let covering = block.cover(&Polygon::rectangle(rect));
                let (first, last) = (block.cell_at(0), block.cell_at(block.num_cells() - 1));
                let want: Vec<CellId> = covering
                    .iter()
                    .filter(|c| c.range_max() >= first.range_min() && c.range_min() <= last.range_max())
                    .collect();
                prop_assert_eq!(block.overlapping(&covering), want.as_slice());
                for c in covering.iter().filter(|&c| block.records_under(c).next().is_some()) {
                    prop_assert!(want.contains(&c));
                }
                prop_assert!(empty.overlapping(&covering).is_empty());
            }
        }
    }
}
