//! GeoBlock persistence: snapshot encode/decode over the `gb_store`
//! container.
//!
//! The paper's economics — an expensive one-time build (§3.3) amortized
//! over arbitrarily many cheap queries — only survive a process restart
//! if the block can be saved and restored. A [`Snapshot`] captures the
//! complete [`GeoBlock`]: schema, grid, block-level cell aggregates, and
//! the global header derived from them.
//!
//! ## Sections (format version 5)
//!
//! | tag    | content |
//! |--------|---------|
//! | `SCHM` | column count, then per column: type tag, name |
//! | `GRID` | domain rectangle (4 × f64 bits), curve tag (always 0: Hilbert; any other is refused) |
//! | `HDRS` | level, `n_rows`, min/max cell, global min/max/sum, **block content hash**, **state hash** |
//! | `CELL` | the block-level [`Layer`]: keys, counts (u64), per-cell min/max/sum |
//! | `TRIE` | (no longer written) the aggregate cache as trie nodes; read only for the state hash |
//! | `HITS` | (no longer written) hit-statistic key/count pairs; read only for the state hash |
//! | `HOTQ` | (no longer written) hot-query shapes, count + encoded request; read only for the state hash |
//!
//! Derived state — the coarser layers — is **never** serialized: the
//! layers are deterministic folds of the `CELL` layer, so every load
//! rebuilds them through the same `GeoBlock::refresh_derived` every other
//! producer of a block ends in (see `DESIGN.md` "Persistence" for the
//! measurements behind this).
//!
//! `HDRS` still carries the §3.4 global header, because the format does:
//! the writer fills it from the derived block (the root record is the
//! fold of every record), and the loader checks the stored one — its row
//! count and key extent against `CELL`, all of it against the stored
//! content hash — then keeps only the level and serves the derived header.
//! A writer that patched its header per tuple stored global sums that
//! drift from the root record after updates; its digest still covers
//! them, so its files load.
//!
//! Earlier writers stored an aggregate cache as a `TRIE` section, the
//! hit statistics it was sized from as `HITS` and the hottest requests as
//! `HOTQ`; the loader parses each only to re-derive what its writer put
//! into the state hash.
//!
//! The loader reads the current version and the one before it. Version 5
//! changed no section: it is version 4 under the container's word-wise
//! section checksum (`gb_store::checksum_for`), which the container reader
//! picks from the file's version before this module sees a byte — so the
//! decoder below has no version branch at all. A file of any other version
//! is refused by the container as `SnapshotError::UnsupportedVersion`
//! before a checksum is verified.
//!
//! Every load re-derives two digests and compares them with the values
//! stored at save time: the content hash (cell aggregates + header as
//! stored, which for this writer is [`GeoBlock::content_hash`]) and a
//! *state hash* spanning everything the content hash excludes — grid,
//! schema, and a legacy `TRIE`, `HITS` or `HOTQ`.
//! Per-section checksums catch flipped bits; the state hash catches
//! sections *grafted* between two individually-valid snapshots. The
//! round-trip gate ("loaded state ≡ saved state") is thus enforced by the
//! loader itself, not just by tests. Decoding never panics: all failures
//! surface as [`SnapshotError`].

use crate::block::GeoBlock;
use crate::layer::{hash_bits, Layer};
use gb_cell::Grid;
use gb_common::{FxHasher, Timer};
use gb_data::{ColumnDef, ColumnType, Schema};
use gb_geom::Rect;
use gb_store::{ByteReader, ByteWriter, SectionTag, SnapshotReader, SnapshotWriter};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Duration;

pub use gb_store::SnapshotError;

/// Current snapshot format version. Bump on any change to an existing
/// section's encoding **or** to what the stored state hash spans; adding
/// new optional sections an older reader could safely ignore does not
/// require a bump. Version 5 is version 4 under the word-wise section
/// checksum. See `DESIGN.md` "Persistence".
pub const SNAPSHOT_VERSION: u16 = 5;

/// The versions the loader reads: the current one and the one before it.
const READABLE: std::ops::RangeInclusive<u16> = SNAPSHOT_VERSION - 1..=SNAPSHOT_VERSION;

const TAG_SCHEMA: SectionTag = SectionTag(*b"SCHM");
const TAG_GRID: SectionTag = SectionTag(*b"GRID");
const TAG_HEADER: SectionTag = SectionTag(*b"HDRS");
const TAG_CELLS: SectionTag = SectionTag(*b"CELL");
const TAG_TRIE: SectionTag = SectionTag(*b"TRIE");
const TAG_HITS: SectionTag = SectionTag(*b"HITS");
const TAG_HOTQ: SectionTag = SectionTag(*b"HOTQ");

/// The `GRID` section's curve tag: the Hilbert curve, the only one.
const HILBERT_TAG: u8 = 0;

/// The `HDRS` section's block header: the level and the §3.4 global
/// header. A writer stores [`Header::of`] the block; a loader checks the
/// stored one against the stored content hash and against the block
/// `CELL` derives to, and keeps nothing of it but the level.
pub(crate) struct Header {
    level: u8,
    n_rows: u64,
    min_cell: u64,
    max_cell: u64,
    /// Per column: the global minima, maxima and sums.
    globals: [Vec<f64>; 3],
}

impl Header {
    /// The header of a derived block: its global values are the root
    /// record's, or in an empty block the empty fold's (min +∞, max −∞,
    /// sum 0 per column), as writers have always stored them.
    pub(crate) fn of(block: &GeoBlock) -> Header {
        let c = block.schema().len();
        let globals = match block.root() {
            Some(root) => [root.mins, root.maxs, root.sums].map(<[f64]>::to_vec),
            None => [f64::INFINITY, f64::NEG_INFINITY, 0.0].map(|v| vec![v; c]),
        };
        // The key extent: the first and the last block-level key, 0 and 0
        // in an empty block.
        let keys = &block.records().keys;
        Header {
            level: block.level(),
            n_rows: block.num_rows(),
            min_cell: keys.first().copied().unwrap_or(0),
            max_cell: keys.last().copied().unwrap_or(0),
            globals,
        }
    }

    /// The content hash of `records` under this header (floats by bit
    /// pattern): [`GeoBlock::content_hash`] for a derived header, and what
    /// a loader checks a stored one against.
    pub(crate) fn digest(&self, records: &Layer) -> u64 {
        let mut h = FxHasher::default();
        records.hash_into(&mut h);
        (self.n_rows, self.min_cell, self.max_cell).hash(&mut h);
        for values in &self.globals {
            hash_bits(values, &mut h);
        }
        h.finish()
    }

    /// Whether this stored header describes `block`, derived from the
    /// `CELL` it came with: the same level, row count and key extent, and
    /// one global value per column. The values themselves may differ: an
    /// older writer's drifted from the records.
    fn describes(&self, block: &GeoBlock) -> bool {
        let shape = |h: &Header| {
            let lens = h.globals.each_ref().map(Vec::len);
            (h.level, h.n_rows, h.min_cell, h.max_cell, lens)
        };
        shape(self) == shape(&Header::of(block))
    }

    /// The section payload: the header, then the two digests.
    fn encode(&self, w: &mut ByteWriter, content: u64, state: u64) {
        w.u8(self.level);
        for v in [self.n_rows, self.min_cell, self.max_cell] {
            w.u64(v);
        }
        for values in &self.globals {
            w.f64_slice(values);
        }
        w.u64(content);
        w.u64(state);
    }

    /// Decode what [`Header::encode`] wrote: the header and the content
    /// and state digests, untrusted until checked.
    fn decode(payload: &[u8]) -> Result<(Header, u64, u64), SnapshotError> {
        let mut r = ByteReader::new(payload, "section `HDRS`");
        let header = Header {
            level: r.u8()?,
            n_rows: r.u64()?,
            min_cell: r.u64()?,
            max_cell: r.u64()?,
            globals: [r.f64_vec()?, r.f64_vec()?, r.f64_vec()?],
        };
        let (content, state) = (r.u64()?, r.u64()?);
        r.finish()?;
        Ok((header, content, state))
    }
}

/// Digest over the *whole* snapshot state — the block's `content` digest
/// plus the pieces the content hash deliberately excludes (grid
/// domain, schema, a legacy `TRIE` section's digest, a legacy `HITS`
/// section's pairs), left open for a legacy `HOTQ` section
/// ([`hash_legacy_hotq`]). Stored in `HDRS` and re-derived at load:
/// it is what makes a graft of one valid snapshot's
/// `GRID`/`SCHM`/`TRIE`/`HITS`/`HOTQ` section onto another a typed error
/// instead of silently wrong answers.
fn state_hasher(
    content: u64,
    block: &GeoBlock,
    trie: Option<u64>,
    hits: Option<&[(u64, u64)]>,
) -> FxHasher {
    let mut h = FxHasher::default();
    content.hash(&mut h);
    let d = block.grid().domain();
    d.min.x.to_bits().hash(&mut h);
    d.min.y.to_bits().hash(&mut h);
    d.max.x.to_bits().hash(&mut h);
    d.max.y.to_bits().hash(&mut h);
    // Writers that could enumerate a grid by another curve hashed a flag
    // for it here; every grid is Hilbert, so the flag is always false.
    false.hash(&mut h);
    for col in block.schema().columns() {
        col.name.hash(&mut h);
        (col.ty == ColumnType::I64).hash(&mut h);
    }
    match trie {
        None => false.hash(&mut h),
        Some(digest) => {
            true.hash(&mut h);
            digest.hash(&mut h);
        }
    }
    match hits {
        None => false.hash(&mut h),
        Some(hits) => {
            true.hash(&mut h);
            // What `Vec<(u64, u64)>` of the pairs hashes to: the digest
            // version-4 files carry.
            hits.len().hash(&mut h);
            for pair in hits {
                pair.hash(&mut h);
            }
        }
    }
    h
}

/// Feed a `HOTQ` section (the hottest encoded requests, which earlier
/// writers stored) into the state hash as its writer did: the
/// `(count, request bytes)` entries hashed as the `Vec` they were written
/// from. Nothing else reads the section, so the entries stream into the
/// hasher: nothing is sized from the stored count and no payload is kept.
/// A file without the section hashes nothing here, so files written
/// without it stay valid version 5. This goes with `legacy_trie_digest`.
fn hash_legacy_hotq(payload: &[u8], h: &mut FxHasher) -> Result<(), SnapshotError> {
    let mut r = ByteReader::new(payload, "section `HOTQ`");
    let n = r.u32()? as usize;
    n.hash(h);
    for _ in 0..n {
        r.u64()?.hash(h);
        let len = r.u32()? as usize;
        r.bytes(len)?.hash(h);
    }
    r.finish()
}

/// The digest a writer that still stored the aggregate cache as a `TRIE`
/// section put into the state hash for it: the section's six fields (root
/// cell, column count, two node arrays, cached counts and values), hashed
/// as that cache's `content_hash` hashed them. Nothing else reads the
/// section, so this goes when version 5, the last version that may carry
/// one, stops being readable.
fn legacy_trie_digest(payload: &[u8]) -> Result<u64, SnapshotError> {
    let mut r = ByteReader::new(payload, "section `TRIE`");
    let (root, n_cols) = (r.u64()?, r.u32()? as usize);
    let (first_children, aggs) = (r.u32_vec()?, r.u32_vec()?);
    let (counts, values) = (r.u64_vec()?, r.f64_vec()?);
    r.finish()?;
    let mut h = FxHasher::default();
    root.hash(&mut h);
    n_cols.hash(&mut h);
    for (first_child, agg) in first_children.iter().zip(&aggs) {
        first_child.hash(&mut h);
        agg.hash(&mut h);
    }
    counts.hash(&mut h);
    for v in &values {
        v.to_bits().hash(&mut h);
    }
    Ok(h.finish())
}

/// The `(cell, hits)` pairs of a `HITS` section, in the order its writer
/// stored them (ascending cell), which is the order it hashed them in.
/// Nothing else reads them, so this goes with `legacy_trie_digest`.
fn legacy_hits(payload: &[u8]) -> Result<Vec<(u64, u64)>, SnapshotError> {
    let mut r = ByteReader::new(payload, "section `HITS`");
    let (cells, hits) = (r.u64_vec()?, r.u64_vec()?);
    r.finish()?;
    if cells.len() != hits.len() {
        return Err(SnapshotError::corrupt(
            "hit-statistic key/count arrays disagree in length",
        ));
    }
    Ok(cells.into_iter().zip(hits).collect())
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
    /// Load: container framing and every section checksum.
    pub verify: Duration,
    /// Load: sections into arrays, and the structural validation of what
    /// they describe.
    pub decode: Duration,
    /// The content hash and the state hash — computed to be stored by a
    /// save, re-derived and compared by a load.
    pub hash: Duration,
    /// Load: the coarser layers, folded again.
    pub derive: Duration,
    /// Save: sections framed and encoded into the output buffer.
    pub encode: Duration,
    /// Save: every section checksum.
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

/// A persistable unit: the block.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub block: GeoBlock,
}

impl Snapshot {
    /// A snapshot of `block`.
    pub fn new(block: GeoBlock) -> Self {
        Snapshot { block }
    }

    /// Borrowing view for serialization (no clones).
    pub fn as_ref(&self) -> SnapshotRef<'_> {
        SnapshotRef { block: &self.block }
    }

    /// Serialize to the container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.as_ref().to_bytes()
    }
}

/// Borrowed counterpart of [`Snapshot`]: serializes a block **without
/// cloning it** — the save path on a serving engine must not double peak
/// memory just to write a file.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotRef<'a> {
    pub block: &'a GeoBlock,
}

impl SnapshotRef<'_> {
    /// Serialize to the current container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode().0
    }

    /// The one writer: every section encoded straight into the container's
    /// buffer, sized up front from what the arrays will take.
    fn encode(&self) -> (Vec<u8>, PersistStats) {
        let b = self.block;
        let mut stats = PersistStats::default();
        let mut timer = Timer::start();
        let header = Header::of(b);
        let content = header.digest(b.records());
        let state = state_hasher(content, b, None, None).finish();
        stats.hash = timer.lap();

        let mut out = SnapshotWriter::with_capacity(
            SNAPSHOT_VERSION,
            1024 + b.num_cells() * b.record_bytes(),
        );

        out.section(TAG_SCHEMA, |w| {
            w.len_u32(b.schema.len());
            for col in b.schema.columns() {
                w.u8(match col.ty {
                    ColumnType::F64 => 0,
                    ColumnType::I64 => 1,
                });
                w.str(&col.name);
            }
        });

        out.section(TAG_GRID, |w| {
            let d = b.grid.domain();
            w.f64(d.min.x);
            w.f64(d.min.y);
            w.f64(d.max.x);
            w.f64(d.max.y);
            w.u8(HILBERT_TAG);
        });

        out.section(TAG_HEADER, |w| header.encode(w, content, state));

        out.section(TAG_CELLS, |w| b.records().encode(w));
        stats.encode = timer.lap();

        let bytes = out.into_bytes();
        stats.checksum = timer.lap();
        stats.bytes = bytes.len();
        (bytes, stats)
    }

    /// Serialize and write to `path` (atomic temp-file + rename).
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        self.save_with_stats(path).map(|_| ())
    }

    /// [`SnapshotRef::save`], reporting where the time went.
    pub fn save_with_stats(&self, path: &Path) -> Result<PersistStats, SnapshotError> {
        let (bytes, mut stats) = self.encode();
        let timer = Timer::start();
        gb_store::write_atomic(path, &bytes)?;
        stats.write = timer.elapsed();
        Ok(stats)
    }
}

impl Snapshot {
    /// Decode and fully validate a snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        Ok(Snapshot::decode(bytes)?.0)
    }

    /// The one loader.
    fn decode(bytes: &[u8]) -> Result<(Snapshot, PersistStats), SnapshotError> {
        let mut stats = PersistStats {
            bytes: bytes.len(),
            ..PersistStats::default()
        };
        let mut timer = Timer::start();
        let reader = SnapshotReader::from_bytes(bytes, READABLE)?;
        stats.verify = timer.lap();

        let mut r = ByteReader::new(reader.require(TAG_SCHEMA)?, "section `SCHM`");
        let n_cols = r.u32()? as usize;
        let mut cols = Vec::new();
        for _ in 0..n_cols {
            let ty = match r.u8()? {
                0 => ColumnType::F64,
                1 => ColumnType::I64,
                t => {
                    return Err(SnapshotError::corrupt(format!(
                        "unknown column type tag {t}"
                    )))
                }
            };
            let name = r.str()?;
            cols.push(ColumnDef { name, ty });
        }
        r.finish()?;
        let schema =
            Schema::try_new(cols).map_err(|e| SnapshotError::corrupt(format!("schema: {e}")))?;

        let mut r = ByteReader::new(reader.require(TAG_GRID)?, "section `GRID`");
        let (x0, y0, x1, y1) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
        match r.u8()? {
            HILBERT_TAG => {}
            t => return Err(SnapshotError::corrupt(format!("unknown curve tag {t}"))),
        }
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

        let (header, stored_hash, stored_state_hash) = Header::decode(reader.require(TAG_HEADER)?)?;
        let mut r = ByteReader::new(reader.require(TAG_CELLS)?, "section `CELL`");
        let records = Layer::decode(&mut r, header.level, schema.len())?;
        r.finish()?;

        let mut block = GeoBlock::from_records(grid, schema, records);
        block
            .validate()
            .map_err(|e| SnapshotError::corrupt(format!("block: {e}")))?;
        stats.decode = timer.lap();

        let content = header.digest(block.records());
        if content != stored_hash {
            return Err(SnapshotError::corrupt(format!(
                "content hash mismatch: stored {stored_hash:#x}, decoded {content:#x}"
            )));
        }
        stats.hash = timer.lap();

        // The stored layer is now known to describe a possible block:
        // derive the coarser layers from it, and the header the block
        // serves in place of the stored one.
        block.refresh_derived();
        stats.derive = timer.lap();
        if !header.describes(&block) {
            return Err(SnapshotError::corrupt(
                "`HDRS` row count, key extent or column count disagrees with `CELL`",
            ));
        }

        let trie = reader
            .section(TAG_TRIE)
            .map(legacy_trie_digest)
            .transpose()?;

        let hits = reader.section(TAG_HITS).map(legacy_hits).transpose()?;

        stats.decode += timer.lap();

        // Per-section checksums cannot catch sections *swapped* between
        // two individually-valid snapshots, and the content hash only
        // covers HDRS + CELL. The state hash spans grid, schema and the
        // legacy sections too, so any cross-file graft fails here with a
        // typed error instead of serving wrong answers.
        let mut h = state_hasher(content, &block, trie, hits.as_deref());
        if let Some(payload) = reader.section(TAG_HOTQ) {
            hash_legacy_hotq(payload, &mut h)?;
        }
        let actual_state = h.finish();
        if actual_state != stored_state_hash {
            return Err(SnapshotError::corrupt(format!(
                "state hash mismatch: stored {stored_state_hash:#x}, decoded {actual_state:#x} \
                 (grid/schema/trie/hits/hotq section does not belong to this snapshot)"
            )));
        }
        stats.hash += timer.lap();
        Ok((Snapshot { block }, stats))
    }

    /// Serialize and write to `path` (atomic temp-file + rename).
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        self.as_ref().save(path)
    }

    /// Read and decode a snapshot file.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        Ok(Snapshot::load_with_stats(path)?.0)
    }

    /// [`Snapshot::load`], reporting where the time went.
    pub fn load_with_stats(path: &Path) -> Result<(Snapshot, PersistStats), SnapshotError> {
        let timer = Timer::start();
        let bytes = std::fs::read(path)?;
        let read = timer.elapsed();
        let (snapshot, mut stats) = Snapshot::decode(&bytes)?;
        stats.read = read;
        Ok((snapshot, stats))
    }
}

impl GeoBlock {
    /// Persist this block to `path` — borrows, no clone.
    pub fn write_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        SnapshotRef { block: self }.save(path)
    }

    /// Load a block from a snapshot written by [`GeoBlock::write_snapshot`]
    /// or [`crate::GeoBlockEngine::write_snapshot`].
    pub fn read_snapshot(path: &Path) -> Result<GeoBlock, SnapshotError> {
        Ok(Snapshot::load(path)?.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use gb_data::{extract, AggFunc, AggRequest, AggSpec, CleaningRules, Filter, RawTable};
    use gb_geom::Point;

    /// Re-frame `bytes` section by section under `version` — and so under
    /// that version's checksum rule — with `edit` deciding each payload
    /// (`None` drops the section) and `extra` appended last.
    fn reframe(
        bytes: &[u8],
        version: u16,
        edit: impl Fn(SectionTag, &[u8]) -> Option<Vec<u8>>,
        extra: Option<(SectionTag, &[u8])>,
    ) -> Vec<u8> {
        let reader = SnapshotReader::from_bytes(bytes, READABLE).unwrap();
        let mut w = SnapshotWriter::new(version);
        for tag in reader.tags() {
            if let Some(payload) = edit(tag, reader.require(tag).unwrap()) {
                w.section(tag, |p| p.bytes(&payload));
            }
        }
        if let Some((tag, payload)) = extra {
            w.section(tag, |p| p.bytes(payload));
        }
        w.into_bytes()
    }

    fn block(n: usize, level: u8) -> GeoBlock {
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::i64("k")]));
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
        let snap = Snapshot::new(b.clone());
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(back.block.content_hash(), b.content_hash());
        assert_eq!(back.block.num_cells(), b.num_cells());
        assert_eq!(back.block.num_rows(), b.num_rows());
        assert_eq!(back.block.schema(), b.schema());
        assert_eq!(back.block.grid(), b.grid());
        // Encoding is deterministic.
        assert_eq!(bytes, Snapshot::new(back.block).to_bytes());
    }

    #[test]
    fn updated_block_roundtrips_bit_identically() {
        let mut b = block(1000, 7);
        let mut batch = crate::update::UpdateBatch::new();
        batch.push(Point::new(50.0, 50.0), vec![1.0, 2.0]);
        batch.push(Point::new(99.0, 99.0), vec![3.0, 4.0]);
        b.apply_updates(&batch).expect("valid batch");
        let back = Snapshot::from_bytes(&Snapshot::new(b.clone()).to_bytes()).unwrap();
        assert_eq!(back.block.content_hash(), b.content_hash());
    }

    #[test]
    fn header_hash_guards_against_cross_section_swaps() {
        // Build two different blocks, then graft block A's CELL section
        // onto block B's header: every per-section checksum still passes,
        // but the stored content hash catches the mismatch.
        let a = Snapshot::new(block(2000, 8)).to_bytes();
        let b = Snapshot::new(block(2100, 8)).to_bytes();
        let rb = SnapshotReader::from_bytes(&b, READABLE).unwrap();
        let cells_of_b = rb.require(TAG_CELLS).unwrap();
        let graft =
            |tag, own: &[u8]| Some(if tag == TAG_CELLS { cells_of_b } else { own }.to_vec());
        let franken = reframe(&a, SNAPSHOT_VERSION, graft, None);
        let err = Snapshot::from_bytes(&franken).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
    }

    /// `bytes` with its header edited by `edit`, then digested, hashed
    /// and summed again as a writer of that header would have.
    fn with_header(bytes: &[u8], block: &GeoBlock, edit: impl Fn(&mut Header)) -> Vec<u8> {
        let reader = SnapshotReader::from_bytes(bytes, READABLE).unwrap();
        let (mut header, _, _) = Header::decode(reader.require(TAG_HEADER).unwrap()).unwrap();
        edit(&mut header);
        let content = header.digest(block.records());
        let state = state_hasher(content, block, None, None).finish();
        let mut w = ByteWriter::new();
        header.encode(&mut w, content, state);
        let payload = w.into_inner();
        let swap = |tag, own: &[u8]| Some(if tag == TAG_HEADER { &payload } else { own }.to_vec());
        reframe(bytes, SNAPSHOT_VERSION, swap, None)
    }

    #[test]
    fn the_stored_header_is_checked_and_the_derived_one_served() {
        let b = block(500, 7);
        let bytes = Snapshot::new(b.clone()).to_bytes();
        assert_eq!(
            Snapshot::from_bytes(&with_header(&bytes, &b, |_| {}))
                .unwrap()
                .block
                .content_hash(),
            b.content_hash()
        );
        // A row count or key extent that disagrees with `CELL` is corrupt,
        // however well digested.
        for edit in [
            (|h: &mut Header| h.n_rows += 1) as fn(&mut Header),
            |h| h.n_rows -= 1,
            |h| h.max_cell = h.min_cell,
        ] {
            let err = Snapshot::from_bytes(&with_header(&bytes, &b, edit)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("disagrees with `CELL`"), "{err}");
        }
        // Global values that drifted from the records (as a writer that
        // patched them per tuple left them) load under their digest, and
        // the block serves the root record instead.
        let drifted = with_header(&bytes, &b, |h| {
            h.globals[2][0] += 0.5;
            h.globals[1][1] = 1e9;
        });
        let back = Snapshot::from_bytes(&drifted).expect("digest covers the drift");
        back.block.check_invariants();
        assert_eq!(back.block.content_hash(), b.content_hash());
        let spec = AggSpec::new(
            [AggFunc::Sum, AggFunc::Max]
                .into_iter()
                .flat_map(|func| (0..2).map(move |col| AggRequest::new(func, col)))
                .collect(),
        );
        assert_eq!(
            back.block.global_aggregate(&spec),
            b.global_aggregate(&spec)
        );
    }

    /// `bytes` with its `GRID` section replaced by the domain
    /// `[0, 0] – [x1, 100]` under curve tag `tag`.
    fn with_grid(bytes: &[u8], x1: f64, tag: u8) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for v in [0.0, 0.0, x1, 100.0] {
            w.f64(v);
        }
        w.u8(tag);
        let payload = w.into_inner();
        let swap = |t, own: &[u8]| Some(if t == TAG_GRID { &payload } else { own }.to_vec());
        reframe(bytes, SNAPSHOT_VERSION, swap, None)
    }

    #[test]
    fn grid_graft_is_rejected_by_the_state_hash() {
        // GeoBlock::content_hash deliberately excludes the grid, so a
        // GRID section from another (individually valid) snapshot passes
        // every per-section checksum AND the block content hash. The
        // HDRS state hash must catch it — otherwise the engine would
        // cover query polygons under the wrong domain.
        let bytes = Snapshot::new(block(800, 7)).to_bytes();
        // The section as the writer wrote it.
        assert_eq!(with_grid(&bytes, 100.0, 0), bytes);
        // A wider domain, every checksum recomputed.
        let err = Snapshot::from_bytes(&with_grid(&bytes, 200.0, 0)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("state hash"), "{err}");
    }

    #[test]
    fn curve_tags_other_than_hilbert_are_corrupt() {
        let bytes = Snapshot::new(block(300, 6)).to_bytes();
        for tag in [1, 2, u8::MAX] {
            let err = Snapshot::from_bytes(&with_grid(&bytes, 100.0, tag)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
            assert!(
                err.to_string()
                    .contains(&format!("unknown curve tag {tag}")),
                "{err}"
            );
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
            /// fold of its records (`check_invariants`), and SELECT over
            /// any aligned ancestor alone, kept level or not, is the
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
                    RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::i64("k")]));
                for (i, &(x, y)) in points.iter().enumerate() {
                    raw.push_row(Point::new(x, y), &[x * 0.37 - y, (i % 9) as f64]);
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

                let v5 = Snapshot::new(b).to_bytes();
                // Version 4 is version 5 under the byte-wise checksum.
                let keep = |_, own: &[u8]| Some(own.to_vec());
                let v4 = reframe(&v5, 4, keep, None);
                for (what, bytes) in [("v5 load", &v5), ("v4 load", &v4)] {
                    let back = Snapshot::from_bytes(bytes).expect(what);
                    back.block.check_invariants();
                    prop_assert_eq!(layer_hashes(&back.block), want.clone(), "{}", what);
                }
            }
        }
    }

    #[test]
    fn unknown_sections_are_ignored() {
        // Forward compatibility: a newer writer may add sections.
        let b = block(500, 6);
        let keep = |_, own: &[u8]| Some(own.to_vec());
        let extra = Some((SectionTag(*b"XTRA"), &[1u8, 2, 3][..]));
        let bytes = reframe(
            &Snapshot::new(b.clone()).to_bytes(),
            SNAPSHOT_VERSION,
            keep,
            extra,
        );
        let back = Snapshot::from_bytes(&bytes).expect("extra ignored");
        assert_eq!(back.block.content_hash(), b.content_hash());
    }

    #[test]
    fn file_roundtrip_via_geoblock_api() {
        let dir = std::env::temp_dir().join("gb_snapshot_api_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("block.gbsnap");
        let b = block(2000, 8);
        b.write_snapshot(&path).expect("save");
        let back = GeoBlock::read_snapshot(&path).expect("load");
        assert_eq!(back.content_hash(), b.content_hash());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_cover_both_directions() {
        let dir = std::env::temp_dir().join("gb_snapshot_stats_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("block.gbsnap");
        let snap = Snapshot::new(block(2000, 8));
        let saved = snap.as_ref().save_with_stats(&path).expect("save");
        let (back, loaded) = Snapshot::load_with_stats(&path).expect("load");
        assert_eq!(back.block.content_hash(), snap.block.content_hash());
        assert_eq!(saved.bytes, snap.to_bytes().len());
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
        let snap = Snapshot::new(b);
        let mut bytes = snap.to_bytes();
        // Future version.
        bytes[8] = 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion { .. }
        ));
        bytes[8] = SNAPSHOT_VERSION as u8;
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        ));
    }

    #[test]
    fn no_byte_flip_panics_and_most_are_detected() {
        // Exhaustive over a small snapshot: flipping any single byte must
        // never panic, and must never yield a block with a different
        // content hash (either it errors, or the flip was in an optional
        // byte that doesn't change the decoded block — which cannot
        // happen here since every byte is load-bearing).
        let b = block(120, 5);
        let hash = b.content_hash();
        let bytes = Snapshot::new(b).to_bytes();
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x01;
            match Snapshot::from_bytes(&m) {
                Err(_) => {}
                Ok(s) => {
                    // Only reachable if the flip cancelled out — it can't.
                    assert_eq!(
                        s.block.content_hash(),
                        hash,
                        "silent corruption at byte {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn truncations_error_not_panic() {
        let b = block(200, 6);
        let bytes = Snapshot::new(b).to_bytes();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                Snapshot::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} parsed"
            );
        }
    }
}
