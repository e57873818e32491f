//! Integration gate for snapshot persistence — the acceptance criteria of
//! the persistence PR, enforced as tests:
//!
//! 1. **Lossless round-trip**: the loaded block's `content_hash` equals
//!    the saved one, for clean and updated blocks.
//! 2. **Restart ≡ fresh build**: an engine over a loaded snapshot answers
//!    bit-identically to a freshly built engine, and the engine writes the
//!    block only.
//! 3. **No panics on bad input**: corrupt, truncated, wrong-magic, and
//!    wrong-version snapshots all come back as typed `SnapshotError`s, a
//!    missing file as `SnapshotError::Io`; on a 60 k-row taxi block saved
//!    by a serving engine, every probed single-byte flip and truncation is
//!    refused.
//! 4. **The previous version keeps loading, older ones are refused by
//!    name**: a checked-in version-4 file (the current layout under the
//!    byte-wise section checksum) answers like a fresh build, and every
//!    corruption probe is a typed error under both checksum rules; a file
//!    stamped with an older version is `UnsupportedVersion`, never
//!    `ChecksumMismatch` or `Corrupt`. The fixture's `TRIE`, `HITS` and
//!    `HOTQ` sections, which this tree no longer writes, are still held to
//!    the state hash, in the fixture and in a version-5 file that carries
//!    them — among them a version-5 file the last `HITS` writer wrote.
//! 5. **A stored header is checked, the derived one served**: a
//!    checked-in version-5 file whose global sums drifted from its records
//!    loads under its digest and answers like `reference`, from the root
//!    record.

use gb_cell::Grid;
use gb_data::{
    datasets, extract, polygons, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter,
    RawTable, Rows, Schema,
};
use gb_geom::{Point, Polygon, Rect};
use gb_store::{ByteReader, SectionTag, SnapshotReader, SnapshotWriter};
use geoblocks::{
    build, reference, GeoBlock, GeoBlockEngine, Layer, SnapshotError, UpdateBatch, SNAPSHOT_VERSION,
};
use std::path::PathBuf;

fn base_data(n: usize) -> gb_data::BaseTable {
    let mut raw = RawTable::new(Schema::new(vec![
        ColumnDef::f64("fare"),
        ColumnDef::i64("pax"),
    ]));
    let mut state = 2024u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 16) % 10_000) as f64 / 100.0
    };
    for i in 0..n {
        raw.push_row(Point::new(next(), next()), &[next(), (i % 6) as f64]);
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
    extract(&raw, grid, &CleaningRules::none(), None).base
}

fn spec() -> AggSpec {
    AggSpec::new(vec![
        AggRequest::new(AggFunc::Count, 0),
        AggRequest::new(AggFunc::Sum, 0),
        AggRequest::new(AggFunc::Min, 0),
        AggRequest::new(AggFunc::Max, 1),
        AggRequest::new(AggFunc::Avg, 1),
    ])
}

fn polys() -> Vec<Polygon> {
    (0..10)
        .map(|i| {
            let (cx, cy, r) = (12.0 + 8.0 * i as f64, 25.0 + 5.5 * i as f64, 7.0);
            Polygon::new(vec![
                Point::new(cx, cy - r),
                Point::new(cx + r, cy),
                Point::new(cx, cy + r),
                Point::new(cx - r, cy),
            ])
        })
        .collect()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gb_persistence_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn roundtrip_is_lossless_clean_and_dirty() {
    let base = base_data(5000);
    let (block, _) = build(&base, 9, &Filter::all());
    let path = temp_path("clean.gbsnap");
    block.write_snapshot(&path).expect("save clean");
    let (loaded, _) = GeoBlock::read_snapshot(&path).expect("load clean");
    assert_eq!(loaded.content_hash(), block.content_hash());

    // Mixed updates (in place and spliced) → still lossless.
    let mut dirty = block.clone();
    let mut batch = UpdateBatch::new();
    for i in 0..30 {
        batch.push(
            Point::new(3.3 * i as f64 + 0.5, 97.0 - 3.1 * i as f64),
            vec![i as f64, 1.0],
        );
    }
    dirty.apply_updates(&batch).expect("valid batch");
    let path = temp_path("dirty.gbsnap");
    dirty.write_snapshot(&path).expect("save dirty");
    let (loaded, _) = GeoBlock::read_snapshot(&path).expect("load dirty");
    assert_eq!(loaded.content_hash(), dirty.content_hash());
    // And the loaded block still answers like the original.
    for p in &polys() {
        assert_eq!(loaded.count(p).0, dirty.count(p).0);
    }
}

#[test]
fn loaded_engine_matches_freshly_built_engine() {
    let base = base_data(6000);
    let (block, _) = build(&base, 9, &Filter::all());
    let s = spec();
    let workload = polys();

    // "Production" engine: serve traffic, then save.
    let engine = GeoBlockEngine::new(block.clone());
    for p in &workload {
        engine.select(p, &s);
    }
    let path = temp_path("engine.gbsnap");
    engine.write_snapshot(&path).expect("save");

    // The engine writes the block and nothing else.
    let written = std::fs::read(&path).expect("saved file");
    let tags = SnapshotReader::from_bytes(&written, READABLE).expect("well-framed");
    assert!(
        tags.tags().all(|tag| !LEGACY.contains(&tag)),
        "no legacy section"
    );
    assert_eq!(written, block.clone().to_snapshot_bytes());

    // "Restarted" engine from the snapshot vs a freshly built one.
    let restarted = GeoBlockEngine::new(GeoBlock::read_snapshot(&path).expect("load").0);
    let fresh = GeoBlockEngine::new(block.clone());
    assert_eq!(
        restarted.block_snapshot().content_hash(),
        block.content_hash()
    );
    for p in &workload {
        let a = restarted.select(p, &s).result;
        let b = fresh.select(p, &s).result;
        let (c, _) = block.select(p, &s);
        assert!(
            a.approx_eq(&b, 0.0),
            "loaded vs fresh engine: {a:?} vs {b:?}"
        );
        assert!(
            a.approx_eq(&c, 0.0),
            "loaded engine vs block: {a:?} vs {c:?}"
        );
        assert_eq!(restarted.count(p).result, block.count(p).0);
    }
}

#[test]
fn bad_snapshots_yield_typed_errors_never_panics() {
    let base = base_data(1500);
    let (block, _) = build(&base, 8, &Filter::all());
    let bytes = block.to_snapshot_bytes();

    // Wrong magic.
    let mut m = bytes.clone();
    m[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        GeoBlock::from_snapshot_bytes(&m).unwrap_err(),
        SnapshotError::BadMagic
    ));

    // Future version.
    let mut m = bytes.clone();
    m[8] = 0x7F;
    m[9] = 0x7F;
    assert!(matches!(
        GeoBlock::from_snapshot_bytes(&m).unwrap_err(),
        SnapshotError::UnsupportedVersion { .. }
    ));

    // Truncations at a spread of byte positions.
    for cut in (0..bytes.len()).step_by(101) {
        assert!(GeoBlock::from_snapshot_bytes(&bytes[..cut]).is_err());
    }

    // Bit flips across the whole file: typed error or (impossible here)
    // an identical block — never a panic, never silent corruption.
    for i in (0..bytes.len()).step_by(13) {
        let mut m = bytes.clone();
        m[i] ^= 0x40;
        let _ = GeoBlock::from_snapshot_bytes(&m);
    }

    // The same guarantees through the file-based engine API.
    let path = temp_path("corrupt.gbsnap");
    std::fs::write(&path, b"GBSNAP\r\nbut then garbage follows").unwrap();
    assert!(GeoBlockEngine::builder().snapshot(&path).build().is_err());
    assert!(matches!(
        GeoBlock::read_snapshot(&temp_path("does-not-exist.gbsnap")).unwrap_err(),
        SnapshotError::Io(_)
    ));
}

/// A real block on disk: 60 k taxi rows, seven columns, saved by a serving
/// engine. It round-trips losslessly, an engine over the loaded block
/// answers bit-identically, the file carries the current version, and
/// every one of ~48 single-byte flips and 16 truncations spread across the
/// file is refused. The version field lies outside every checksum:
/// stamped as the previous version the same sections fail that version's
/// byte-wise rule, and stamped as version 3 they are not read at all.
#[test]
fn a_taxi_block_round_trips_and_every_corruption_is_refused() {
    let ds = datasets::nyc_taxi(60_000, 42);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let (block, _) = build(&base, 9, &Filter::all());
    let spec = AggSpec::k_aggregates(base.schema(), 7);
    let polys = polygons::neighborhoods(30, 42);
    let engine = GeoBlockEngine::new(block.clone());
    for p in &polys {
        engine.select(p, &spec);
    }
    let path = temp_path("taxi.gbsnap");
    engine.write_snapshot(&path).expect("save");
    let (loaded, _) = GeoBlock::read_snapshot(&path).expect("load");
    assert_eq!(loaded.content_hash(), block.content_hash());
    let warm = GeoBlockEngine::new(loaded);
    for p in &polys {
        let (a, b) = (warm.select(p, &spec).result, engine.select(p, &spec).result);
        assert!(a.approx_eq(&b, 0.0), "{a:?} vs {b:?}");
        assert_eq!(warm.count(p).result, engine.count(p).result);
    }

    let bytes = std::fs::read(&path).expect("saved file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(bytes[8..10], SNAPSHOT_VERSION.to_le_bytes());
    for i in (0..bytes.len()).step_by(bytes.len() / 48) {
        let mut m = bytes.clone();
        m[i] ^= 0x10;
        assert!(
            GeoBlock::from_snapshot_bytes(&m).is_err(),
            "a flip at byte {i} loaded"
        );
    }
    for cut in (0..bytes.len()).step_by(bytes.len() / 16) {
        assert!(
            GeoBlock::from_snapshot_bytes(&bytes[..cut]).is_err(),
            "a cut at byte {cut} loaded"
        );
    }
    let stamped = |version: u16| {
        let mut m = bytes.clone();
        m[8..10].copy_from_slice(&version.to_le_bytes());
        GeoBlock::from_snapshot_bytes(&m).unwrap_err()
    };
    let err = stamped(SNAPSHOT_VERSION - 1);
    assert!(
        matches!(err, SnapshotError::ChecksumMismatch { .. }),
        "{err:?}"
    );
    let err = stamped(3);
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion { found: 3, .. }),
        "{err:?}"
    );
}

/// The versions the loader reads: this one and the one before it.
const READABLE: std::ops::RangeInclusive<u16> = SNAPSHOT_VERSION - 1..=SNAPSHOT_VERSION;

/// Sections this tree no longer writes but a version-4 or -5 file may
/// carry: the aggregate cache as trie nodes, the hit statistics it was
/// sized from, and the hottest encoded requests. The loader reads each
/// only for its share of the state hash.
const LEGACY: [SectionTag; 3] = [
    SectionTag(*b"TRIE"),
    SectionTag(*b"HITS"),
    SectionTag(*b"HOTQ"),
];

/// Re-frame a snapshot section by section under `version` — the writer
/// sums the sections under that version's checksum rule — letting `edit`
/// change each payload on the way.
fn reframe_under(version: u16, bytes: &[u8], edit: impl Fn(SectionTag, &mut Vec<u8>)) -> Vec<u8> {
    let reader = SnapshotReader::from_bytes(bytes, READABLE).expect("well-framed");
    let mut w = SnapshotWriter::new(version);
    for tag in reader.tags() {
        let mut payload = reader.require(tag).unwrap().to_vec();
        edit(tag, &mut payload);
        w.section(tag, |p| p.bytes(&payload));
    }
    w.into_bytes()
}

/// The file re-framed under its own version without the section `drop`.
fn reframe_without(bytes: &[u8], drop: SectionTag) -> Vec<u8> {
    let reader = SnapshotReader::from_bytes(bytes, READABLE).expect("well-framed");
    let mut w = SnapshotWriter::new(reader.version());
    for tag in reader.tags().filter(|&tag| tag != drop) {
        w.section(tag, |p| p.bytes(reader.require(tag).unwrap()));
    }
    w.into_bytes()
}

/// [`reframe_under`] the file's own version.
fn reframe(bytes: &[u8], edit: impl Fn(SectionTag, &mut Vec<u8>)) -> Vec<u8> {
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    reframe_under(version, bytes, edit)
}

fn assert_answers_bit_identical(loaded: &GeoBlock, fresh: &GeoBlock) {
    assert_eq!(loaded.content_hash(), fresh.content_hash());
    let layer_hashes = |b: &GeoBlock| {
        b.layers()
            .iter()
            .map(Layer::content_hash)
            .collect::<Vec<_>>()
    };
    assert_eq!(layer_hashes(loaded), layer_hashes(fresh));
    loaded.check_invariants();
    let whole = Polygon::rectangle(Rect::from_bounds(-1.0, -1.0, 101.0, 101.0));
    for p in polys().iter().chain([&whole]) {
        let (a, _) = loaded.select(p, &spec());
        let (b, _) = fresh.select(p, &spec());
        assert!(a.approx_eq(&b, 0.0), "{a:?} vs {b:?}");
        assert_eq!(loaded.count(p).0, fresh.count(p).0);
    }
}

/// A format-version-4 snapshot — the current section layouts under the
/// byte-wise FNV-1a section checksum — written by
/// `GeoBlockEngine::write_snapshot` at commit 26c9fdd (the last whose writer
/// emitted version 4; this tree cannot regenerate it). The engine held
/// `build(&base_data(40), 5, &Filter::all())` at threshold 0.5 after three
/// `QueryRequest::Select`s of the rectangle (10,10)–(70,70) with `spec()`,
/// a `rebuild_cache` and then the batch of [`v4_fixture_block`] through
/// `GeoBlockEngine::apply_updates`, which bumps a cell in place *and*
/// splices a new one; `HITS` and both [`LEGACY`] sections are present.
const V4_FIXTURE: &[u8] = include_bytes!("fixtures/v4_fnv.gbsnap");

/// The fresh block the version-4 fixture must answer like: the same build
/// plus the same batch (one tuple in place, one in a new cell).
fn v4_fixture_block() -> GeoBlock {
    let base = base_data(40);
    let (mut fresh, _) = build(&base, 5, &Filter::all());
    let mut batch = UpdateBatch::new();
    batch.push(base.location(0), vec![12.5, 3.0]);
    batch.push(Point::new(99.5, 0.5), vec![7.25, 2.0]);
    let report = fresh.apply_updates(&batch).expect("valid batch");
    assert_eq!((report.in_place, report.new_cells), (1, 1));
    fresh
}

/// The two files every probe below runs on: the version-4 fixture and the
/// same state saved by this tree as version 5.
fn both_versions() -> [Vec<u8>; 2] {
    let v5 = GeoBlock::from_snapshot_bytes(V4_FIXTURE)
        .expect("v4 fixture")
        .to_snapshot_bytes();
    assert_eq!(v5[8..10], SNAPSHOT_VERSION.to_le_bytes());
    [V4_FIXTURE.to_vec(), v5]
}

#[test]
fn v4_fixture_loads_to_bit_identical_answers() {
    assert!(V4_FIXTURE.len() <= 16 * 1024);
    assert_eq!(V4_FIXTURE[8..10], 4u16.to_le_bytes());

    let snap = GeoBlock::from_snapshot_bytes(V4_FIXTURE).expect("v4 file loads");
    let fresh = v4_fixture_block();
    assert_answers_bit_identical(&snap, &fresh);

    // Saving it again writes version 5 without the legacy sections: every
    // other payload is the fixture's, but for the state hash (the last
    // word of `HDRS`), which no longer spans them. The result is stable.
    let rewritten = snap.to_snapshot_bytes();
    assert_eq!(rewritten[8..10], SNAPSHOT_VERSION.to_le_bytes());
    let (old, new) = (
        SnapshotReader::from_bytes(V4_FIXTURE, READABLE).expect("well-framed"),
        SnapshotReader::from_bytes(&rewritten, READABLE).expect("well-framed"),
    );
    let mut kept: Vec<SectionTag> = old.tags().collect();
    assert!(LEGACY.iter().all(|tag| kept.contains(tag)));
    kept.retain(|tag| !LEGACY.contains(tag));
    assert_eq!(new.tags().collect::<Vec<_>>(), kept);
    for tag in kept {
        let (a, b) = (old.require(tag).unwrap(), new.require(tag).unwrap());
        let hashed = if tag == SectionTag(*b"HDRS") { 8 } else { 0 };
        assert_eq!(a.len(), b.len(), "{tag}");
        assert_eq!(a[..a.len() - hashed], b[..b.len() - hashed], "{tag}");
    }
    let again = GeoBlock::from_snapshot_bytes(&rewritten).expect("rewritten file loads");
    assert_answers_bit_identical(&again, &fresh);
    assert_eq!(again.to_snapshot_bytes(), rewritten);

    // A flipped payload byte fails the byte-wise checksum …
    let cell = V4_FIXTURE.len() / 2;
    let mut flipped = V4_FIXTURE.to_vec();
    flipped[cell] ^= 0x04;
    assert!(matches!(
        GeoBlock::from_snapshot_bytes(&flipped).unwrap_err(),
        SnapshotError::ChecksumMismatch { .. }
    ));
    // … and the version selects the rule, not trial and error: the same
    // sections summed under the other version's rule are rejected, both
    // ways, although every payload byte is intact.
    for (file, stamp) in [(V4_FIXTURE, 5u16), (&rewritten[..], 4)] {
        let mut restamped = file.to_vec();
        restamped[8..10].copy_from_slice(&stamp.to_le_bytes());
        assert!(matches!(
            GeoBlock::from_snapshot_bytes(&restamped).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
        // Re-summed under the stamped version's rule, they load again:
        // nothing but the checksum tells the two versions apart.
        let resummed = reframe_under(stamp, file, |_, _| {});
        assert_eq!(resummed[8..10], stamp.to_le_bytes());
        let back = GeoBlock::from_snapshot_bytes(&resummed).expect("re-summed file loads");
        assert_answers_bit_identical(&back, &fresh);
    }
}

/// A format-version-5 snapshot whose `HDRS` global sums drifted from the
/// records, written by `GeoBlockEngine::write_snapshot` at commit b9e88b2
/// (the last whose block kept its global header apart from the records and
/// patched it per tuple). The engine held
/// `build(&base_data(300), 4, &Filter::all())` at threshold 0.5 after three
/// `select`s of the rectangle (10,10)–(70,70) with `spec()`, a
/// `rebuild_cache` and then [`drift_batch`] rounds 0 and 1 through
/// `GeoBlockEngine::apply_updates`; `HITS` is present.
const V5_DRIFT_FIXTURE: &[u8] = include_bytes!("fixtures/v5_header_drift.gbsnap");

/// Round `round` of the fractional batches behind [`V5_DRIFT_FIXTURE`]:
/// even rows at base-row locations (in place), odd ones near the right
/// edge (new cells).
fn drift_batch(base: &gb_data::BaseTable, round: usize) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for k in 0..8 {
        let at = if k % 2 == 0 {
            base.location(10 * k + round)
        } else {
            Point::new(97.5 - 1.5 * k as f64, 0.5 + 1.25 * (k + 4 * round) as f64)
        };
        batch.push(at, vec![(k + 8 * round) as f64 / 7.0 + 0.1, (k % 3) as f64]);
    }
    batch
}

/// The fresh block the drift fixture must answer like.
fn drift_fixture_block() -> GeoBlock {
    let base = base_data(300);
    let (mut fresh, _) = build(&base, 4, &Filter::all());
    for round in 0..2 {
        fresh
            .apply_updates(&drift_batch(&base, round))
            .expect("valid batch");
    }
    fresh
}

/// The global min, max and sum per column as `HDRS` stores them.
fn stored_globals(file: &[u8]) -> [Vec<f64>; 3] {
    let reader = SnapshotReader::from_bytes(file, READABLE).expect("well-framed");
    let mut r = ByteReader::new(reader.require(SectionTag(*b"HDRS")).unwrap(), "HDRS");
    let _level_rows_extent = (r.u8(), r.u64(), r.u64(), r.u64());
    [(); 3].map(|()| r.f64_vec().expect("three value arrays"))
}

#[test]
fn older_headers_are_checked_and_the_records_answer() {
    // The drift fixture's stored sums are not the root record's: the
    // loader accepts them under their digest and serves the root.
    let fresh = drift_fixture_block();
    let c = fresh.schema().len();
    let root_spec = AggSpec::new(
        [AggFunc::Min, AggFunc::Max, AggFunc::Sum]
            .into_iter()
            .flat_map(|func| (0..c).map(move |col| AggRequest::new(func, col)))
            .collect(),
    );
    let root = fresh.global_aggregate(&root_spec);
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let [mins, maxs, sums] = stored_globals(V5_DRIFT_FIXTURE);
    assert_eq!([mins, maxs].concat(), root.values()[..2 * c]);
    assert_ne!(
        bits(&sums),
        bits(&root.values()[2 * c..]),
        "the fixture drifted"
    );

    let whole = Polygon::rectangle(Rect::from_bounds(-1.0, -1.0, 101.0, 101.0));
    for (file, fresh) in [
        (V4_FIXTURE, v4_fixture_block()),
        (V5_DRIFT_FIXTURE, drift_fixture_block()),
    ] {
        let snap = GeoBlock::from_snapshot_bytes(file).expect("an older writer's file loads");
        assert_answers_bit_identical(&snap, &fresh);
        let block = snap.clone();
        let engine = GeoBlockEngine::new(snap);
        for p in polys().iter().chain([&whole]) {
            let covering = block.cover(p);
            let naive = reference::select_covering(&block, &covering, &spec());
            let (direct, _) = block.select(p, &spec());
            assert!(direct.approx_eq(&naive, 0.0), "{direct:?} vs {naive:?}");
            let served = engine.select(p, &spec()).result;
            assert!(served.approx_eq(&naive, 0.0), "{served:?} vs {naive:?}");
            assert_eq!(
                block.count(p).0,
                reference::count_covering(&block, &covering)
            );
        }
        assert_eq!(
            block.global_aggregate(&spec()),
            block.select(&whole, &spec()).0
        );

        // Saved again, the header is the derived one, and stable.
        let rewritten = GeoBlock::from_snapshot_bytes(file)
            .unwrap()
            .to_snapshot_bytes();
        let [_, _, resaved] = stored_globals(&rewritten);
        let root = block.global_aggregate(&root_spec);
        assert_eq!(bits(&resaved), bits(&root.values()[2 * c..]));
        let again = GeoBlock::from_snapshot_bytes(&rewritten).expect("rewritten file loads");
        assert_eq!(again.to_snapshot_bytes(), rewritten);
    }
}

#[test]
fn legacy_sections_are_still_held_to_the_state_hash() {
    let fresh = v4_fixture_block();
    // The fixture, and its sections re-summed as version 5: the file a
    // version-5 writer that still stored both sections would have written.
    let v5 = reframe_under(SNAPSHOT_VERSION, V4_FIXTURE, |_, _| {});
    for file in [V4_FIXTURE.to_vec(), v5] {
        let version = file[8];
        let back = GeoBlock::from_snapshot_bytes(&file).expect("a file with legacy sections loads");
        assert_answers_bit_identical(&back, &fresh);
        // Read for the digest only, but the digest is checked: stripped,
        // or with its last byte (a cached value, a request byte) flipped
        // under a recomputed checksum, the file is corrupt by the state
        // hash.
        for legacy in LEGACY {
            let stripped = reframe_without(&file, legacy);
            let flipped = reframe(&file, |tag, payload| {
                if tag == legacy {
                    *payload.last_mut().expect("non-empty section") ^= 0x01;
                }
            });
            for bad in [stripped, flipped] {
                let err = GeoBlock::from_snapshot_bytes(&bad).unwrap_err();
                assert!(
                    matches!(err, SnapshotError::Corrupt { .. }),
                    "v{version} {legacy}: {err}"
                );
                assert!(
                    err.to_string().contains("state hash"),
                    "v{version} {legacy}: {err}"
                );
            }
        }
    }
}

#[test]
fn crafted_cell_sections_are_typed_errors_under_both_rules() {
    let fresh = v4_fixture_block();
    let n = fresh.num_cells();
    let n_sums = n * fresh.schema().len();
    for file in both_versions() {
        let version = file[8];
        // A structurally impossible CELL — `sums`, its last array, one
        // value short — under a valid checksum: rejected before any fold
        // indexes it (this panicked once).
        let short = reframe(&file, |tag, payload| {
            if tag == SectionTag(*b"CELL") {
                let count_at = payload.len() - 8 * (n_sums + 1);
                payload[count_at..count_at + 8].copy_from_slice(&(n_sums as u64 - 1).to_le_bytes());
                payload.truncate(payload.len() - 8);
            }
        });
        let err = GeoBlock::from_snapshot_bytes(&short).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Corrupt { .. }),
            "v{version}: {err}"
        );
        // A flipped CELL byte under a valid checksum — in the keys, the
        // counts, the aggregates — is caught by validation or the digest.
        // (Layout: keys, counts, mins, maxs, sums — each a u64 count and
        // the values.)
        for at in [12, 8 * (n + 2) + 1, 8 * (2 * n + 3) + 3, usize::MAX] {
            let flipped = reframe(&file, |tag, payload| {
                if tag == SectionTag(*b"CELL") {
                    let at = at.min(payload.len() - 1);
                    payload[at] ^= 0x20;
                }
            });
            let err = GeoBlock::from_snapshot_bytes(&flipped).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt { .. }),
                "v{version}, byte {at}: {err}"
            );
        }
    }
}

#[test]
fn older_versions_are_unsupported_not_corrupt() {
    for file in both_versions() {
        // Every older version, and the next one.
        for old in (0..*READABLE.start()).chain([SNAPSHOT_VERSION + 1]) {
            // Stamped only (the sections still summed under the file's own
            // rule), and re-summed under the stamped version's rule.
            let mut stamped = file.clone();
            stamped[8..10].copy_from_slice(&old.to_le_bytes());
            let resummed = reframe_under(old, &file, |_, _| {});
            for bytes in [stamped, resummed] {
                let err = GeoBlock::from_snapshot_bytes(&bytes).unwrap_err();
                assert!(
                    matches!(
                        &err,
                        SnapshotError::UnsupportedVersion { found, readable }
                            if *found == old && *readable == READABLE
                    ),
                    "v{old}: {err:?}"
                );
                assert!(err.to_string().contains("reads versions 4–5"), "{err}");
            }
        }
    }
}

/// A format-version-5 snapshot written by `GeoBlockEngine::write_snapshot`
/// at commit 48dadd7, the last whose engine kept hit statistics and wrote
/// them as a `HITS` section. The engine held
/// `build(&base_data(150), 5, &Filter::all())` at threshold 0.5 after one
/// `select` with `spec()` of each of the first four [`polys`] and a
/// `rebuild_cache`; `HITS` is its only section this tree does not write.
const V5_HITS_FIXTURE: &[u8] = include_bytes!("fixtures/v5_hits.gbsnap");

#[test]
fn a_hits_section_loads_and_is_dropped_on_the_next_save() {
    assert!(V5_HITS_FIXTURE.len() <= 16 * 1024);
    assert_eq!(V5_HITS_FIXTURE[8..10], 5u16.to_le_bytes());
    let hits = SectionTag(*b"HITS");
    let old = SnapshotReader::from_bytes(V5_HITS_FIXTURE, READABLE).expect("well-framed");
    assert_eq!(
        old.tags()
            .filter(|tag| LEGACY.contains(tag))
            .collect::<Vec<_>>(),
        [hits]
    );

    // It loads and answers bit-identically to a fresh build, through the
    // engine too.
    let snap = GeoBlock::from_snapshot_bytes(V5_HITS_FIXTURE).expect("a HITS file loads");
    let (fresh, _) = build(&base_data(150), 5, &Filter::all());
    assert_answers_bit_identical(&snap, &fresh);
    let fresh_file = fresh.clone().to_snapshot_bytes();
    let (restored, built) = (
        GeoBlockEngine::new(snap.clone()),
        GeoBlockEngine::new(fresh),
    );
    for p in &polys() {
        let (a, b) = (restored.select(p, &spec()), built.select(p, &spec()));
        assert!(a.result.approx_eq(&b.result, 0.0), "{a:?} vs {b:?}");
        assert_eq!(restored.count(p).result, built.count(p).result);
    }

    // Saved again, it is the fresh block's file: no `HITS`, and every
    // other payload the fixture's but for the state hash (the last word
    // of `HDRS`), which no longer spans the section.
    let rewritten = snap.to_snapshot_bytes();
    assert_eq!(rewritten, fresh_file);
    let new = SnapshotReader::from_bytes(&rewritten, READABLE).expect("well-framed");
    let kept: Vec<SectionTag> = old.tags().filter(|&tag| tag != hits).collect();
    assert_eq!(new.tags().collect::<Vec<_>>(), kept);
    for tag in kept {
        let (a, b) = (old.require(tag).unwrap(), new.require(tag).unwrap());
        let hashed = if tag == SectionTag(*b"HDRS") { 8 } else { 0 };
        assert_eq!(a[..a.len() - hashed], b[..b.len() - hashed], "{tag}");
    }

    // Read for the state hash only, but held to it: a flipped `HITS` byte
    // under a recomputed checksum — in a cell id, in a count — or the
    // section stripped is corrupt.
    let n_cells = u64::from_le_bytes(old.require(hits).unwrap()[..8].try_into().unwrap());
    for at in [8, 8 + 8 * n_cells as usize + 8 + 3] {
        let flipped = reframe(V5_HITS_FIXTURE, |tag, payload| {
            if tag == hits {
                payload[at] ^= 0x01;
            }
        });
        let err = GeoBlock::from_snapshot_bytes(&flipped).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Corrupt { .. }),
            "byte {at}: {err}"
        );
        assert!(err.to_string().contains("state hash"), "byte {at}: {err}");
    }
    let err = GeoBlock::from_snapshot_bytes(&reframe_without(V5_HITS_FIXTURE, hits)).unwrap_err();
    assert!(err.to_string().contains("state hash"), "stripped: {err}");
}
