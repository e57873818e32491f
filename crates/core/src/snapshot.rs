//! GeoBlock persistence: snapshot encode/decode over the `gb_store`
//! container.
//!
//! The paper's economics — an expensive one-time build (§3.3) amortized
//! over arbitrarily many cheap queries — only survive a process restart
//! if the block can be saved and restored. A snapshot stores what a
//! [`GeoBlock`] cannot derive: its schema, its grid and its block-level
//! cell aggregates. One encoder and one decoder, reached in memory
//! through [`GeoBlock::to_snapshot_bytes`] /
//! [`GeoBlock::from_snapshot_bytes`] and on disk through
//! [`GeoBlock::write_snapshot`] / [`GeoBlock::read_snapshot`].
//!
//! ## Sections (format version 10)
//!
//! Four sections, in this order, each behind its length, under the
//! container's one checksum:
//!
//! | section | content |
//! |---------|---------|
//! | `SCHM`  | column count, then per column: name |
//! | `GRID`  | domain rectangle (4 × f64 bits); the curve is Hilbert |
//! | `HDRS`  | level, **content hash**, **state hash** |
//! | `CELL`  | the block-level [`Layer`]: keys, counts (u64), the singles' values (one per column of each count-1 record), the full records' min/max/sum |
//!
//! Which record is a single is its count alone, so the marks and rank
//! that find a record's values are derived from the counts on load, never
//! stored. Everything coarser than a cell — the coarser layers and the
//! §3.4 global header, which is their root record — is a fold of the
//! `CELL` layer, so it is **never** serialized: every load rebuilds it through
//! the same `GeoBlock::refresh_derived` every other producer of a block
//! ends in (see `DESIGN.md` "Persistence" for the measurements behind
//! this).
//!
//! The loader reads exactly [`SNAPSHOT_VERSION`]: nothing in the
//! repository loads a snapshot written by another build, so a file of any
//! other version is refused by the container as
//! `SnapshotError::UnsupportedVersion` before the checksum is verified.
//!
//! Every load re-derives two digests and compares them with the values
//! stored at save time: the content hash (the stored layer's logical
//! records, whichever kind stores them — [`GeoBlock::content_hash`]) and
//! a *state hash* over the content hash, the grid domain and the schema.
//! The checksum catches flipped bits; the two digests catch sections
//! *grafted* between two individually-valid snapshots and sealed again.
//! The round-trip gate ("loaded state ≡ saved state") is thus enforced by
//! the loader itself, not just by tests. Decoding never panics: all
//! failures surface as [`SnapshotError`].

// Snapshot bytes come from disk: a corrupt file is a typed error.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::cast_possible_truncation))]

use crate::block::GeoBlock;
use crate::layer::Layer;
use gb_cell::Grid;
use gb_common::{FxHasher, Timer};
use gb_data::{ColumnDef, Schema};
use gb_geom::Rect;
use gb_store::{SnapshotReader, SnapshotWriter};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Duration;

pub use gb_store::SnapshotError;

/// The snapshot format version: the one the writer stamps and the only one
/// the loader reads. Bump on any change to what is stored or to what a
/// stored digest spans. See `DESIGN.md` "Persistence".
pub const SNAPSHOT_VERSION: u16 = 10;

/// The state hash: the block's `content` digest plus what the content
/// hash excludes — the grid domain and the schema. Stored in `HDRS` and
/// re-derived at load: it is what makes a graft of one valid snapshot's
/// `GRID` or `SCHM` onto another a typed error instead of silently wrong
/// answers.
fn state_hash(content: u64, grid: &Grid, schema: &Schema) -> u64 {
    let mut h = FxHasher::default();
    content.hash(&mut h);
    let d = grid.domain();
    for v in [d.min.x, d.min.y, d.max.x, d.max.y] {
        v.to_bits().hash(&mut h);
    }
    for col in schema.columns() {
        col.name.hash(&mut h);
    }
    h.finish()
}

/// Where one save or one load spent its time. A save fills `hash`,
/// `encode`, `checksum` and `write`; a load `read`, `verify`, `decode`,
/// `hash` and `derive`; an in-memory round trip leaves `write` / `read`
/// zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistStats {
    /// Size of the container.
    pub bytes: usize,
    /// Load: the file into memory.
    pub read: Duration,
    /// Load: the container's header and its checksum.
    pub verify: Duration,
    /// Load: sections into arrays, and the structural validation of what
    /// they describe.
    pub decode: Duration,
    /// The content hash and the state hash — computed to be stored by a
    /// save, re-derived and compared by a load.
    pub hash: Duration,
    /// Load: the coarser layers, folded again.
    pub derive: Duration,
    /// Save: the sections encoded into the output buffer.
    pub encode: Duration,
    /// Save: the checksum.
    pub checksum: Duration,
    /// Save: the buffer to a temp file, renamed into place.
    pub write: Duration,
}

impl PersistStats {
    /// All phases of the one direction that filled this.
    pub fn total(&self) -> Duration {
        (self.read + self.verify + self.decode + self.hash + self.derive)
            + (self.encode + self.checksum + self.write)
    }
}

impl GeoBlock {
    /// This block in the current snapshot format.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        self.encode_snapshot().0
    }

    /// Decode and fully validate a snapshot.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<GeoBlock, SnapshotError> {
        Ok(GeoBlock::decode_snapshot(bytes)?.0)
    }

    /// Write this block's snapshot to `path` (atomic temp-file + rename),
    /// reporting where the time went. Borrows: a save on a serving engine
    /// copies no block.
    pub fn write_snapshot(&self, path: &Path) -> Result<PersistStats, SnapshotError> {
        let (bytes, mut stats) = self.encode_snapshot();
        let timer = Timer::start();
        gb_store::write_atomic(path, &bytes)?;
        stats.write = timer.elapsed();
        Ok(stats)
    }

    /// Read and decode the snapshot at `path`, written by
    /// [`GeoBlock::write_snapshot`] or
    /// [`crate::GeoBlockEngine::write_snapshot`], reporting where the time
    /// went.
    pub fn read_snapshot(path: &Path) -> Result<(GeoBlock, PersistStats), SnapshotError> {
        let timer = Timer::start();
        let bytes = std::fs::read(path)?;
        let read = timer.elapsed();
        let (block, mut stats) = GeoBlock::decode_snapshot(&bytes)?;
        stats.read = read;
        Ok((block, stats))
    }

    /// The one writer: every section encoded straight into the container's
    /// buffer, sized up front from what the arrays will take (the 1 KiB
    /// holds the header and the three small sections).
    fn encode_snapshot(&self) -> (Vec<u8>, PersistStats) {
        let b = self;
        let mut stats = PersistStats::default();
        let mut timer = Timer::start();
        let content = b.content_hash();
        let state = state_hash(content, &b.grid, &b.schema);
        stats.hash = timer.lap();

        let mut out =
            SnapshotWriter::with_capacity(SNAPSHOT_VERSION, 1024 + b.records().encoded_bytes());

        // `SCHM`, `GRID`, `HDRS`, `CELL`: the order is the layout.
        out.section(|w| {
            w.len_u32(b.schema.len());
            for col in b.schema.columns() {
                w.str(&col.name);
            }
        });

        out.section(|w| {
            let d = b.grid.domain();
            w.f64(d.min.x);
            w.f64(d.min.y);
            w.f64(d.max.x);
            w.f64(d.max.y);
        });

        out.section(|w| {
            w.u8(b.level());
            w.u64(content);
            w.u64(state);
        });

        out.section(|w| b.records().encode(w));
        stats.encode = timer.lap();

        let bytes = out.into_bytes();
        stats.checksum = timer.lap();
        stats.bytes = bytes.len();
        (bytes, stats)
    }

    /// The one loader.
    fn decode_snapshot(bytes: &[u8]) -> Result<(GeoBlock, PersistStats), SnapshotError> {
        let mut stats = PersistStats {
            bytes: bytes.len(),
            ..PersistStats::default()
        };
        let mut timer = Timer::start();
        let mut sections = SnapshotReader::from_bytes(bytes, SNAPSHOT_VERSION)?;
        stats.verify = timer.lap();

        let mut r = sections.next_section("section `SCHM`")?;
        let n_cols = r.u32()? as usize;
        let mut cols = Vec::new();
        for _ in 0..n_cols {
            cols.push(ColumnDef { name: r.str()? });
        }
        r.finish()?;
        let schema =
            Schema::try_new(cols).map_err(|e| SnapshotError::corrupt(format!("schema: {e}")))?;

        let mut r = sections.next_section("section `GRID`")?;
        let (x0, y0, x1, y1) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
        r.finish()?;
        if !(x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite())
            || x1 <= x0
            || y1 <= y0
        {
            return Err(SnapshotError::corrupt(format!(
                "grid domain [{x0}, {y0}] – [{x1}, {y1}] is not a positive rectangle"
            )));
        }
        let grid = Grid::hilbert(Rect::from_bounds(x0, y0, x1, y1));

        let mut r = sections.next_section("section `HDRS`")?;
        let (level, stored_content, stored_state) = (r.u8()?, r.u64()?, r.u64()?);
        r.finish()?;
        let mut r = sections.next_section("section `CELL`")?;
        let records = Layer::decode(&mut r, level, schema.len())?;
        r.finish()?;
        sections.finish()?;

        let mut block = GeoBlock::from_records(grid, schema, records);
        block
            .validate()
            .map_err(|e| SnapshotError::corrupt(format!("block: {e}")))?;
        stats.decode = timer.lap();

        // The checksum cannot catch sections *swapped* between two
        // individually-valid snapshots and sealed again: the content hash
        // catches a `CELL` or `HDRS` graft, the state hash a `GRID` or
        // `SCHM` one — a typed error instead of wrong answers.
        let content = block.content_hash();
        if content != stored_content {
            return Err(SnapshotError::corrupt(format!(
                "content hash mismatch: stored {stored_content:#x}, decoded {content:#x}"
            )));
        }
        let state = state_hash(content, &block.grid, &block.schema);
        if state != stored_state {
            return Err(SnapshotError::corrupt(format!(
                "state hash mismatch: stored {stored_state:#x}, decoded {state:#x} \
                 (grid or schema section does not belong to this snapshot)"
            )));
        }
        stats.hash = timer.lap();

        // The stored layer is now known to be the saved one: derive
        // everything coarser from it.
        block.refresh_derived();
        stats.derive = timer.lap();
        Ok((block, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use gb_data::{extract, AggFunc, AggRequest, AggSpec, CleaningRules, Filter, RawTable};
    use gb_geom::Point;
    use gb_store::ByteWriter;

    /// Where each section lies in [`sections`]' list.
    const SCHM: usize = 0;
    const GRID: usize = 1;
    const HDRS: usize = 2;
    const CELL: usize = 3;

    /// The four sections of a current file, in order.
    fn sections(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut reader = SnapshotReader::from_bytes(bytes, SNAPSHOT_VERSION).unwrap();
        let all = (0..4)
            .map(|_| {
                let mut r = reader.next_section("test").unwrap();
                r.bytes(r.remaining()).unwrap().to_vec()
            })
            .collect();
        reader.finish().unwrap();
        all
    }

    /// `sections` in order, sealed under a fresh checksum.
    fn seal(sections: &[Vec<u8>]) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_VERSION);
        for payload in sections {
            w.section(|p| p.bytes(payload));
        }
        w.into_bytes()
    }

    /// `bytes` with section `which` replaced by `payload`, sealed again.
    fn with_section(bytes: &[u8], which: usize, payload: Vec<u8>) -> Vec<u8> {
        let mut all = sections(bytes);
        all[which] = payload;
        seal(&all)
    }

    fn block(n: usize, level: u8) -> GeoBlock {
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("k")]));
        let mut state = 9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 16) % 10_000) as f64 / 100.0
        };
        for i in 0..n {
            raw.push_row(
                Point::new(next(), next()),
                &[i as f64 - 7.5, (i % 5) as f64],
            );
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        let base = extract(&raw, grid, &CleaningRules::none(), None).base;
        build(&base, level, &Filter::all()).0
    }

    #[test]
    fn block_roundtrips_bit_identically() {
        let b = block(3000, 8);
        let bytes = b.to_snapshot_bytes();
        let back = GeoBlock::from_snapshot_bytes(&bytes).expect("decodes");
        assert_eq!(back.content_hash(), b.content_hash());
        assert_eq!(back.num_cells(), b.num_cells());
        assert_eq!(back.num_rows(), b.num_rows());
        assert_eq!(back.schema(), b.schema());
        assert_eq!(back.grid(), b.grid());
        // Encoding is deterministic.
        assert_eq!(bytes, back.to_snapshot_bytes());
        // `HDRS` is the level and the two digests, nothing else.
        let header = &sections(&bytes)[HDRS];
        assert_eq!(header.len(), 1 + 8 + 8);
        assert_eq!(header[0], 8);
        assert_eq!(header[1..9], b.content_hash().to_le_bytes());
    }

    #[test]
    fn updated_block_roundtrips_bit_identically() {
        let mut b = block(1000, 7);
        let mut batch = crate::update::UpdateBatch::new();
        batch.push(Point::new(50.0, 50.0), vec![1.0, 2.0]);
        batch.push(Point::new(99.0, 99.0), vec![3.0, 4.0]);
        b.apply_updates(&batch).expect("valid batch");
        let back = GeoBlock::from_snapshot_bytes(&b.clone().to_snapshot_bytes()).unwrap();
        assert_eq!(back.content_hash(), b.content_hash());
    }

    #[test]
    fn header_hash_guards_against_cross_section_swaps() {
        // Build two different blocks, then graft block B's CELL section
        // onto block A's header and seal the file again: the checksum
        // passes, but the stored content hash catches the mismatch.
        let a = block(2000, 8).to_snapshot_bytes();
        let b = block(2100, 8).to_snapshot_bytes();
        let franken = with_section(&a, CELL, sections(&b)[CELL].clone());
        let err = GeoBlock::from_snapshot_bytes(&franken).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("content hash"), "{err}");
    }

    #[test]
    fn a_section_moved_without_resealing_fails_the_checksum() {
        // The same graft, with A's checksum left as it was: the one
        // checksum over every section refuses it before anything decodes.
        let a = block(2000, 8).to_snapshot_bytes();
        let b = block(2100, 8).to_snapshot_bytes();
        let mut moved = with_section(&a, CELL, sections(&b)[CELL].clone());
        moved[10..18].copy_from_slice(&a[10..18]);
        let err = GeoBlock::from_snapshot_bytes(&moved).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch), "{err:?}");
    }

    /// `bytes` with its `GRID` section replaced by the domain
    /// `[0, 0] – [x1, 100]`.
    fn with_grid(bytes: &[u8], x1: f64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for v in [0.0, 0.0, x1, 100.0] {
            w.f64(v);
        }
        with_section(bytes, GRID, w.into_inner())
    }

    /// `bytes` with its `SCHM` section replaced by columns `v` and
    /// `second`.
    fn with_schema(bytes: &[u8], second: &str) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.len_u32(2);
        for name in ["v", second] {
            w.str(name);
        }
        with_section(bytes, SCHM, w.into_inner())
    }

    #[test]
    fn grid_and_schema_grafts_are_rejected_by_the_state_hash() {
        // GeoBlock::content_hash covers the records only, so a GRID or
        // SCHM section from another (individually valid) snapshot of the
        // same records, sealed again, passes the checksum AND the content
        // hash. The HDRS state hash must catch it — otherwise the engine
        // would cover query polygons under the wrong domain, or name the
        // columns wrongly.
        let bytes = block(800, 7).to_snapshot_bytes();
        // The sections as the writer wrote them.
        assert_eq!(with_grid(&bytes, 100.0), bytes);
        assert_eq!(with_schema(&bytes, "k"), bytes);
        // A wider domain, or another column name, sealed again.
        for graft in [with_grid(&bytes, 200.0), with_schema(&bytes, "kk")] {
            let err = GeoBlock::from_snapshot_bytes(&graft).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("state hash"), "{err}");
        }
    }

    mod producers {
        use super::*;
        use crate::{build_parallel, UpdateBatch};
        use gb_cell::CellUnion;
        use proptest::prelude::*;

        fn layer_hashes(b: &GeoBlock) -> Vec<u64> {
            b.layers().iter().map(Layer::content_hash).collect()
        }

        /// Every aligned ancestor of a sample of `b`'s stored cells, of a
        /// kept level or read as its children: SELECT over it alone is
        /// the reference's fold of that cell, bit for bit.
        fn assert_records_are_the_reference_folds(b: &GeoBlock) {
            let spec = AggSpec::new(vec![
                AggRequest::new(AggFunc::Count, 0),
                AggRequest::new(AggFunc::Sum, 0),
                AggRequest::new(AggFunc::Min, 0),
                AggRequest::new(AggFunc::Max, 1),
                AggRequest::new(AggFunc::Sum, 1),
            ]);
            for i in (0..b.num_cells()).step_by(b.num_cells() / 16 + 1) {
                let cell = b.cell_at(i);
                for level in 0..=cell.level() {
                    let covering = CellUnion::from_cells(vec![cell.parent_at(level)]);
                    let (got, stats) = b.select_covering(&covering, &spec);
                    assert_eq!(
                        stats.cells_combined, 1,
                        "an ancestor of a stored cell has data"
                    );
                    let want = crate::reference::select_covering(b, &covering, &spec);
                    let got = got.finalize(&spec);
                    assert!(
                        got.approx_eq(&want, 0.0),
                        "{covering:?}: {got:?} vs {want:?}"
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The one derived-state property: whichever way a block came
            /// to be, it keeps the block level and the even levels above
            /// it, its layers are valid and bit-equal to the canonical
            /// fold of its records (`check_invariants`), each layer's
            /// digest is the one of its records all stored full — also
            /// after a batch turns a single full — and SELECT over any
            /// aligned ancestor alone, kept level or not, is the
            /// reference's answer.
            #[test]
            fn every_producer_yields_the_canonical_pyramid(
                points in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..250),
                batches in prop::collection::vec(
                    prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..16),
                    0..3,
                ),
                level in 1u8..11,
                coarser_by in 0u8..11,
            ) {
                let mut raw =
                    RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("k")]));
                // Every ninth `k` is `-0.0`: a row whose record of one tuple
                // is a single all the same.
                for (i, &(x, y)) in points.iter().enumerate() {
                    let k = if i % 9 == 4 { -0.0 } else { (i % 9) as f64 };
                    raw.push_row(Point::new(x, y), &[x * 0.37 - y, k]);
                }
                let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
                let base = extract(&raw, grid, &CleaningRules::none(), None).base;

                let (mut b, _) = build(&base, level, &Filter::all());
                b.check_invariants();
                let kept: Vec<u8> = (0..level).step_by(2).chain([level]).collect();
                let levels: Vec<u8> = b.layers().iter().map(|l| l.level).collect();
                prop_assert_eq!(levels, kept);
                for threads in [1, 2, 3, 4, 8] {
                    let (par, _) = build_parallel(&base, level, &Filter::all(), threads);
                    par.check_invariants();
                    prop_assert_eq!(layer_hashes(&par), layer_hashes(&b));
                }
                for batch_pts in &batches {
                    let mut batch = UpdateBatch::new();
                    for &(x, y) in batch_pts {
                        batch.push(Point::new(x, y), vec![x - y, (x * 0.1).floor()]);
                    }
                    b.apply_updates(&batch).expect("valid batch");
                    b.check_invariants();
                }
                // A tuple on a single's cell: the update turns it full.
                let single = (0..b.num_cells()).find(|&i| b.records().record(i).count == 1);
                if let Some(i) = single {
                    let mut batch = UpdateBatch::new();
                    batch.push(b.grid().cell_rect(b.cell_at(i)).center(), vec![1.0, 2.0]);
                    prop_assert_eq!(b.apply_updates(&batch).expect("valid batch").in_place, 1);
                    prop_assert!(b.records().record(i).count != 1);
                    b.check_invariants();
                }
                for layer in b.layers() {
                    prop_assert_eq!(layer.content_hash(), crate::layer::full_layout_hash(layer));
                }
                assert_records_are_the_reference_folds(&b);
                let want = layer_hashes(&b);
                // A coarser block's layers are the source's own, at every
                // level both keep.
                let coarse = b.coarsen(level.saturating_sub(coarser_by));
                coarse.check_invariants();
                assert_records_are_the_reference_folds(&coarse);
                for layer in coarse.layers() {
                    if let Some(source) = b.layer_at(layer.level) {
                        prop_assert_eq!(layer.content_hash(), source.content_hash());
                    }
                }

                let back = GeoBlock::from_snapshot_bytes(&b.to_snapshot_bytes()).expect("load");
                back.check_invariants();
                prop_assert_eq!(layer_hashes(&back), want);
            }
        }
    }

    mod kinds {
        use super::*;
        use crate::layer::{fold_column, full_layout_hash};
        use crate::{build_parallel, UpdateBatch};
        use gb_data::Rows;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Per block-level cell, the value rows folded into its record in
        /// fold order: base-row order, then each batch in batch order.
        type Folded = BTreeMap<u64, Vec<Vec<f64>>>;

        /// A value of the generated tables: a quarter step, or `-0.0`.
        fn value(k: i8, negative_zero: bool) -> f64 {
            if negative_zero {
                -0.0
            } else {
                f64::from(k) * 0.25
            }
        }

        /// Every block-level record of `b` is, bit for bit, `fold_column`
        /// of its rows in fold order, stored as the kind its count makes
        /// it, and every layer's digest is the all-full layout's.
        fn assert_records_are_their_rows(
            b: &GeoBlock,
            folded: &Folded,
        ) -> Result<(), TestCaseError> {
            let records = b.records();
            prop_assert_eq!(
                records.keys.clone(),
                folded.keys().copied().collect::<Vec<_>>()
            );
            for (i, rows) in folded.values().enumerate() {
                let got = records.record(i);
                prop_assert_eq!(got.count, rows.len() as u64);
                for col in 0..b.n_cols() {
                    let (min, max, sum) = fold_column(rows.iter().map(|r| r[col]));
                    let want = [min, max, sum].map(f64::to_bits);
                    prop_assert_eq!(
                        [got.min(col), got.max(col), got.sum(col)].map(f64::to_bits),
                        want
                    );
                }
            }
            for layer in b.layers() {
                prop_assert_eq!(layer.validate(), Ok(()));
                prop_assert_eq!(layer.content_hash(), full_layout_hash(layer));
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Over tables with repeated locations, cells of one row and
            /// `-0.0` values, every producer stores each record as the
            /// fold of its rows, singles apart by their count: the build
            /// at 1, 2 and 4 threads, `fold_to` (`coarsen`), a batch that
            /// turns a single into a full record, one that makes new
            /// singles, and a snapshot round trip.
            #[test]
            fn every_producer_stores_each_record_as_the_fold_of_its_rows(
                sites in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..40),
                rows in prop::collection::vec((0usize..40, -3i8..4, any::<bool>()), 1..120),
                fresh in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64, -3i8..4, any::<bool>()), 1..6),
                level in 1u8..13,
                coarser_by in 1u8..6,
            ) {
                let mut raw =
                    RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("k")]));
                for &(site, k, zero) in &rows {
                    let (x, y) = sites[site % sites.len()];
                    raw.push_row(Point::new(x, y), &[value(k, zero), f64::from(k)]);
                }
                let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
                let base = extract(&raw, grid, &CleaningRules::none(), None).base;
                let mut folded = Folded::new();
                for row in 0..base.num_rows() {
                    let cell = grid.cell_for_point(base.location(row), level).raw();
                    let values = (0..2).map(|col| base.value_f64(row, col)).collect();
                    folded.entry(cell).or_default().push(values);
                }

                let (mut b, _) = build(&base, level, &Filter::all());
                assert_records_are_their_rows(&b, &folded)?;
                for threads in [1, 2, 4] {
                    let (par, _) = build_parallel(&base, level, &Filter::all(), threads);
                    prop_assert_eq!(&par.layers, &b.layers);
                }
                let coarse = b.coarsen(level.saturating_sub(coarser_by));
                for layer in coarse.layers() {
                    prop_assert_eq!(layer.content_hash(), full_layout_hash(layer));
                    if let Some(source) = b.layer_at(layer.level) {
                        prop_assert_eq!(layer, source);
                    }
                }

                // A tuple on a single's row turns it full.
                let single = (0..b.num_cells()).find(|&i| b.records().record(i).count == 1);
                if let Some(i) = single {
                    let cell = b.cell_at(i);
                    let row = (0..base.num_rows())
                        .find(|&r| grid.cell_for_point(base.location(r), level) == cell)
                        .expect("a single has its row");
                    let values = vec![0.5, -1.0];
                    folded.get_mut(&cell.raw()).expect("stored").push(values.clone());
                    let mut batch = UpdateBatch::new();
                    batch.push(base.location(row), values);
                    prop_assert_eq!(b.apply_updates(&batch).expect("valid batch").in_place, 1);
                    prop_assert_eq!(b.records().record(i).count, 2);
                    assert_records_are_their_rows(&b, &folded)?;
                }

                // Tuples in cells without data make new records, singles
                // unless two land in one cell, `-0.0` values included.
                let mut batch = UpdateBatch::new();
                for &(x, y, k, zero) in &fresh {
                    let cell = grid.cell_for_point(Point::new(x, y), level).raw();
                    let values = vec![f64::from(k), value(k, zero)];
                    folded.entry(cell).or_default().push(values.clone());
                    batch.push(Point::new(x, y), values);
                }
                b.apply_updates(&batch).expect("valid batch");
                b.check_invariants();
                assert_records_are_their_rows(&b, &folded)?;
                let singles = folded.values().filter(|rows| rows.len() == 1).count();
                prop_assert_eq!(b.records().num_singles(), singles);

                let back = GeoBlock::from_snapshot_bytes(&b.to_snapshot_bytes()).expect("load");
                prop_assert_eq!(&back.layers, &b.layers);
                assert_records_are_their_rows(&back, &folded)?;
            }
        }
    }

    #[test]
    fn a_fifth_section_is_refused() {
        // The layout is the four sections and nothing after them, even
        // under a valid checksum.
        let bytes = block(500, 6).to_snapshot_bytes();
        let mut five = sections(&bytes);
        five.push(vec![1, 2, 3]);
        let err = GeoBlock::from_snapshot_bytes(&seal(&five)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn stats_cover_both_directions() {
        let dir = std::env::temp_dir().join("gb_snapshot_stats_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("block.gbsnap");
        let b = block(2000, 8);
        let saved = b.write_snapshot(&path).expect("save");
        let (back, loaded) = GeoBlock::read_snapshot(&path).expect("load");
        assert_eq!(back.content_hash(), b.content_hash());
        assert_eq!(saved.bytes, b.to_snapshot_bytes().len());
        assert_eq!(loaded.bytes, saved.bytes);
        // Each direction fills its own phases and leaves the other's zero.
        let zero = Duration::ZERO;
        assert_eq!(
            (saved.read, saved.verify, saved.decode, saved.derive),
            (zero, zero, zero, zero)
        );
        assert_eq!(
            (loaded.encode, loaded.checksum, loaded.write),
            (zero, zero, zero)
        );
        assert_eq!(
            saved.total(),
            saved.hash + saved.encode + saved.checksum + saved.write
        );
        assert_eq!(
            loaded.total(),
            loaded.read + loaded.verify + loaded.decode + loaded.hash + loaded.derive
        );
        assert!(saved.total() > zero && loaded.total() > zero);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_version_and_magic_are_typed_errors() {
        let b = block(300, 6);
        let mut bytes = b.to_snapshot_bytes();
        // Future version.
        bytes[8] = 0xFF;
        assert!(matches!(
            GeoBlock::from_snapshot_bytes(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion { .. }
        ));
        bytes[8] = SNAPSHOT_VERSION as u8;
        bytes[0] = b'X';
        assert!(matches!(
            GeoBlock::from_snapshot_bytes(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        ));
    }

    #[test]
    fn no_byte_flip_panics_and_every_one_is_refused() {
        // Exhaustive over a small snapshot: a flipped byte in the magic or
        // the version is refused by name, and one anywhere after them by
        // the checksum, which two inputs differing in one word never pass.
        let bytes = block(120, 5).to_snapshot_bytes();
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x01;
            let err = GeoBlock::from_snapshot_bytes(&m).expect_err("a flipped byte loaded");
            let want = match i {
                0..8 => matches!(err, SnapshotError::BadMagic),
                8..10 => matches!(err, SnapshotError::UnsupportedVersion { .. }),
                _ => matches!(err, SnapshotError::ChecksumMismatch),
            };
            assert!(want, "a flip at byte {i}: {err:?}");
        }
    }

    #[test]
    fn truncations_error_not_panic() {
        let b = block(200, 6);
        let bytes = b.to_snapshot_bytes();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                GeoBlock::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} parsed"
            );
        }
    }
}
