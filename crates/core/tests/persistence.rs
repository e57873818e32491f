//! Integration gate for snapshot persistence, enforced as tests:
//!
//! 1. **Lossless round-trip**: the loaded block's `content_hash` equals
//!    the saved one, for clean and updated blocks.
//! 2. **Restart ≡ fresh build**: an engine over a loaded snapshot answers
//!    bit-identically to a freshly built engine and to `reference`, and the
//!    engine writes the block's four sections only.
//! 3. **No panics on bad input**: corrupt, truncated, wrong-magic, and
//!    wrong-version snapshots all come back as typed `SnapshotError`s, a
//!    missing file as `SnapshotError::Io`; on a 60 k-row taxi block saved
//!    by a serving engine, every probed single-byte flip and truncation is
//!    refused.
//! 4. **Crafted sections are refused**: a `CELL` crafted under a valid
//!    checksum is `Corrupt` (the `GRID` and `SCHM` grafts the state hash
//!    refuses are `geoblocks::snapshot`'s unit tests).
//! 5. **One version**: a current file stamped with any other version is
//!    `UnsupportedVersion`, never `ChecksumMismatch` or `Corrupt`.

use gb_cell::{CellId, Grid};
use gb_data::{
    datasets, extract, polygons, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter,
    RawTable, Rows, Schema,
};
use gb_geom::{Point, Polygon, Rect};
use gb_store::{SectionTag, SnapshotReader, SnapshotWriter};
use geoblocks::{
    build, reference, GeoBlock, GeoBlockEngine, SnapshotError, UpdateBatch, SNAPSHOT_VERSION,
};
use std::path::PathBuf;

fn base_data(n: usize) -> gb_data::BaseTable {
    let mut raw = RawTable::new(Schema::new(vec![
        ColumnDef::f64("fare"),
        ColumnDef::f64("pax"),
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
    let reader = SnapshotReader::from_bytes(&written, SNAPSHOT_VERSION).expect("well-framed");
    let tags: Vec<SectionTag> = reader.tags().collect();
    assert_eq!(
        tags,
        [*b"SCHM", *b"GRID", *b"HDRS", *b"CELL"].map(SectionTag)
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
        let covering = block.cover(p);
        let want = reference::select_covering(&block, &covering, &s);
        assert!(
            a.approx_eq(&want, 0.0),
            "loaded engine vs reference: {a:?} vs {want:?}"
        );
        assert_eq!(restarted.count(p).result, block.count(p).0);
        assert_eq!(
            restarted.count(p).result,
            reference::count_covering(&block, &covering)
        );
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
/// file is refused. The version field lies outside every checksum: stamped
/// as the previous or the next version, the same sections are not read at
/// all.
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
    for version in [SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1] {
        let err = stamped(version);
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion { found, .. } if found == version),
            "{err:?}"
        );
    }
}

/// Re-frame a snapshot section by section, every checksum recomputed,
/// letting `edit` change each payload on the way.
fn reframe(bytes: &[u8], edit: impl Fn(SectionTag, &mut Vec<u8>)) -> Vec<u8> {
    let reader = SnapshotReader::from_bytes(bytes, SNAPSHOT_VERSION).expect("well-framed");
    let mut w = SnapshotWriter::new(SNAPSHOT_VERSION);
    for tag in reader.tags() {
        let mut payload = reader.require(tag).unwrap().to_vec();
        edit(tag, &mut payload);
        w.section(tag, |p| p.bytes(&payload));
    }
    w.into_bytes()
}

/// Two current files: a clean block, and the same block after a batch
/// that bumps a cell in place *and* splices a new one.
fn current_files() -> [Vec<u8>; 2] {
    let base = base_data(40);
    let (block, _) = build(&base, 5, &Filter::all());
    let mut updated = block.clone();
    let mut batch = UpdateBatch::new();
    batch.push(base.location(0), vec![12.5, 3.0]);
    batch.push(Point::new(99.5, 0.5), vec![7.25, 2.0]);
    let report = updated.apply_updates(&batch).expect("valid batch");
    assert_eq!((report.in_place, report.new_cells), (1, 1));
    [block.to_snapshot_bytes(), updated.to_snapshot_bytes()]
}

/// The `CELL` payload's six arrays — keys, counts, singles, then the full
/// records' minima, maxima and sums — as the byte ranges of their values,
/// each behind its u64 count.
fn cell_arrays(payload: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut at = 0;
    let arrays: Vec<_> = (0..6)
        .map(|_| {
            let count = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
            let values = at + 8..at + 8 + 8 * count as usize;
            at = values.end;
            values
        })
        .collect();
    assert_eq!(at, payload.len(), "six arrays fill the section");
    arrays
}

/// `payload`'s array `which` with its last value dropped, its count one
/// lower.
fn drop_last_value(payload: &mut Vec<u8>, which: usize) {
    let values = cell_arrays(payload)[which].clone();
    let count = (values.len() / 8 - 1) as u64;
    payload[values.start - 8..values.start].copy_from_slice(&count.to_le_bytes());
    payload.drain(values.end - 8..values.end);
}

const CELL: SectionTag = SectionTag(*b"CELL");
const COUNTS: usize = 1;
const SINGLES: usize = 2;
const SUMS: usize = 5;

#[test]
fn crafted_cell_sections_are_typed_errors() {
    for file in current_files() {
        let block = GeoBlock::from_snapshot_bytes(&file).expect("loads");
        let n = block.num_cells();
        // Both kinds are on file, so every crafted case below bites.
        let singles = block.layers().last().unwrap().num_singles();
        assert!(0 < singles && singles < n, "{singles} singles of {n}");
        let refused = |edit: &dyn Fn(&mut Vec<u8>), what: &str| {
            let crafted = reframe(&file, |tag, payload| {
                if tag == CELL {
                    edit(payload);
                }
            });
            let err = GeoBlock::from_snapshot_bytes(&crafted).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt { .. }),
                "{what}: {err}"
            );
            assert!(err.to_string().contains(what), "{what}: {err}");
        };
        // A structurally impossible CELL — `sums`, its last array, one
        // value short — under a valid checksum: rejected before any fold
        // indexes it (this panicked once).
        refused(&|p| drop_last_value(p, SUMS), "other cells × columns");
        // `singles` one value short of what the count-1 records hold.
        refused(&|p| drop_last_value(p, SINGLES), "count-1 cells × columns");
        // A count flipped from 1 to 2, or from 2 to 1, the arrays
        // unchanged: the records no longer fit the arrays.
        let payload = SnapshotReader::from_bytes(&file, SNAPSHOT_VERSION)
            .unwrap()
            .require(CELL)
            .unwrap()
            .to_vec();
        let counts: Vec<u64> = payload[cell_arrays(&payload)[COUNTS].clone()]
            .chunks_exact(8)
            .map(|n| u64::from_le_bytes(n.try_into().unwrap()))
            .collect();
        for (from, to) in [(1u64, 2u64), (2, 1)] {
            let i = counts
                .iter()
                .position(|&n| n == from)
                .expect("a record of that count");
            refused(
                &|p| {
                    let at = cell_arrays(p)[COUNTS].start + 8 * i;
                    p[at..at + 8].copy_from_slice(&to.to_le_bytes());
                },
                "count-1 cells × columns",
            );
        }
        // A flipped CELL byte under a valid checksum — in the keys, the
        // counts, the singles, the full records — is caught by
        // validation or the digest.
        for values in cell_arrays(&payload) {
            for at in [values.start + 4, values.end - 1]
                .into_iter()
                .filter(|_| !values.is_empty())
            {
                let flipped = reframe(&file, |tag, payload| {
                    if tag == CELL {
                        payload[at] ^= 0x20;
                    }
                });
                let err = GeoBlock::from_snapshot_bytes(&flipped).unwrap_err();
                assert!(
                    matches!(err, SnapshotError::Corrupt { .. }),
                    "byte {at}: {err}"
                );
            }
        }
    }
}

/// A file in the version-8 layout, whose `CELL` stored the singles' marks
/// beside the counts (keys, counts, one bit per record, the singles'
/// values, then the full records' minima, maxima and sums), is refused by
/// its version before anything is decoded.
#[test]
fn a_version_8_file_is_unsupported() {
    let file = &current_files()[1];
    let block = GeoBlock::from_snapshot_bytes(file).expect("loads");
    let keys: Vec<u64> = (0..block.num_cells())
        .map(|i| block.cell_at(i).raw())
        .collect();
    let (mut counts, mut marks) = (Vec::new(), vec![0u64; keys.len().div_ceil(64)]);
    let (mut singles, mut full) = (Vec::new(), [Vec::new(), Vec::new(), Vec::new()]);
    for (i, r) in keys
        .iter()
        .flat_map(|&k| block.records_under(CellId::from_raw(k)))
        .enumerate()
    {
        counts.push(r.count);
        for c in 0..block.schema().len() {
            if r.count == 1 {
                marks[i / 64] |= 1 << (i % 64);
                singles.push(r.sum(c));
            } else {
                full[0].push(r.min(c));
                full[1].push(r.max(c));
                full[2].push(r.sum(c));
            }
        }
    }
    let reader = SnapshotReader::from_bytes(file, SNAPSHOT_VERSION).unwrap();
    let mut w = SnapshotWriter::new(8);
    for tag in reader.tags() {
        let payload = reader.require(tag).unwrap();
        w.section(tag, |p| {
            if tag == CELL {
                p.u64_slice(&keys);
                p.u64_slice(&counts);
                p.u64_slice(&marks);
                p.f64_slice(&singles);
                for values in &full {
                    p.f64_slice(values);
                }
            } else {
                p.bytes(payload);
            }
        });
    }
    let err = GeoBlock::from_snapshot_bytes(&w.into_bytes()).unwrap_err();
    assert!(
        matches!(
            err,
            SnapshotError::UnsupportedVersion {
                found: 8,
                expected: 9
            }
        ),
        "{err:?}"
    );
}

#[test]
fn older_versions_are_unsupported_not_corrupt() {
    for file in current_files() {
        // Every older version, and the next one.
        for other in (0..SNAPSHOT_VERSION).chain([SNAPSHOT_VERSION + 1]) {
            // Stamped only, and stamped with a payload byte flipped too:
            // the version is refused before any checksum is verified.
            let mut stamped = file.clone();
            stamped[8..10].copy_from_slice(&other.to_le_bytes());
            let mut corrupt = stamped.clone();
            let last = corrupt.len() - 1;
            corrupt[last] ^= 0x01;
            for bytes in [stamped, corrupt] {
                let err = GeoBlock::from_snapshot_bytes(&bytes).unwrap_err();
                assert!(
                    matches!(
                        &err,
                        SnapshotError::UnsupportedVersion { found, expected }
                            if *found == other && *expected == SNAPSHOT_VERSION
                    ),
                    "v{other}: {err:?}"
                );
                let reads = format!("reads version {SNAPSHOT_VERSION}");
                assert!(err.to_string().contains(&reads), "{err}");
            }
        }
    }
}
