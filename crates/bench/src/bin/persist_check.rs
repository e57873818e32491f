//! CI gate: snapshot persistence round-trip + rejection checks.
//!
//! Runs in tier-1 CI (`persist-roundtrip` step). Builds a GeoBlock from
//! the synthetic taxi data, serves a short workload, snapshots the
//! engine, reloads it, and verifies the acceptance criteria of the
//! persistence subsystem end-to-end:
//!
//! 1. loaded `GeoBlock::content_hash()` == saved hash (lossless),
//! 2. an engine over the loaded block answers bit-identically to the
//!    engine it was saved from, and a version-5 file the last writer of
//!    hit statistics wrote (a `HITS` section) loads and saves again
//!    without the section,
//! 3. corrupt / truncated / wrong-magic / wrong-version snapshots return
//!    typed errors — never panics; the file written is stamped with the
//!    current version, its section checksums are the ones that version
//!    prescribes, and a file stamped with a version older than the
//!    previous one is refused by version, not as corrupt,
//! 4. the hardened request path: an unknown filter column is a clean
//!    `DataError`, not a process kill.
//!
//! Prints one `ok:`/`FAIL:` line per check; exits 1 on any failure.

use gb_data::{datasets, extract, AggSpec, CmpOp, Filter, Rows};
use gb_geom::Polygon;
use gb_store::{SectionTag, SnapshotReader};
use geoblocks::{build, GeoBlock, GeoBlockEngine, Snapshot, SnapshotError, SNAPSHOT_VERSION};

/// A version-5 snapshot with a `HITS` section, written by the last engine
/// that kept hit statistics (see the test that pins it).
const HITS_FIXTURE: &[u8] = include_bytes!("../../../core/tests/fixtures/v5_hits.gbsnap");

struct Gate {
    failed: bool,
}

impl Gate {
    fn check(&mut self, name: &str, ok: bool, detail: &str) {
        if ok {
            println!("ok:   {name}");
        } else {
            println!("FAIL: {name} — {detail}");
            self.failed = true;
        }
    }
}

fn main() {
    let mut gate = Gate { failed: false };
    let dir = std::env::temp_dir().join("gb_persist_check");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("gate.gbsnap");

    // Build + serve: small but real (taxi skew, 7-column schema).
    let ds = datasets::nyc_taxi(60_000, 42);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let (block, _) = build(&base, 9, &Filter::all());
    let spec = AggSpec::k_aggregates(base.schema(), 7);
    let polys: Vec<Polygon> = gb_data::polygons::neighborhoods(30, 42);
    let engine = GeoBlockEngine::new(block.clone());
    for p in &polys {
        engine.select(p, &spec);
    }

    // 1. Save → load → content-hash identity.
    engine.write_snapshot(&path).expect("snapshot save");
    let loaded_block = GeoBlock::read_snapshot(&path).expect("block load");
    gate.check(
        "block round-trip content_hash",
        loaded_block.content_hash() == block.content_hash(),
        "loaded hash differs from saved hash",
    );

    // 2. Restart identity: same answers from the loaded block.
    let warm = GeoBlockEngine::new(loaded_block);
    let mut identical = true;
    for p in &polys {
        let a = warm.select(p, &spec);
        let b = engine.select(p, &spec);
        identical &= a.result.approx_eq(&b.result, 0.0);
        identical &= warm.count(p).result == engine.count(p).result;
    }
    gate.check(
        "loaded engine answers bit-identically",
        identical,
        "SELECT/COUNT diverged between saved and loaded engines",
    );
    let resaved = Snapshot::from_bytes(HITS_FIXTURE).map(|snap| snap.to_bytes());
    let hits_dropped = resaved.as_ref().is_ok_and(|bytes| {
        SnapshotReader::from_bytes(bytes, SNAPSHOT_VERSION..=SNAPSHOT_VERSION)
            .is_ok_and(|r| r.tags().all(|tag| tag != SectionTag(*b"HITS")))
            && Snapshot::from_bytes(bytes).is_ok()
    });
    gate.check(
        "a HITS-carrying v5 file loads and saves without HITS",
        hits_dropped,
        &format!("{:?}", resaved.err()),
    );

    // 3. Rejection paths: typed errors, no panics.
    let bytes = std::fs::read(&path).expect("read snapshot");
    let mut m = bytes.clone();
    m[0] ^= 0xFF;
    gate.check(
        "wrong magic rejected",
        matches!(Snapshot::from_bytes(&m), Err(SnapshotError::BadMagic)),
        "expected BadMagic",
    );
    let mut m = bytes.clone();
    m[8] = 0xFF;
    m[9] = 0x7F;
    gate.check(
        "future version rejected",
        matches!(
            Snapshot::from_bytes(&m),
            Err(SnapshotError::UnsupportedVersion { .. })
        ),
        "expected UnsupportedVersion",
    );
    // ~48 flip probes spread across the file (each probe re-parses the
    // whole snapshot, so the count — not the file size — bounds runtime).
    let flip_step = (bytes.len() / 48).max(1);
    let flips_ok = (0..bytes.len()).step_by(flip_step).all(|i| {
        let mut m = bytes.clone();
        m[i] ^= 0x10;
        Snapshot::from_bytes(&m).is_err()
    });
    gate.check(
        "single-byte corruption rejected",
        flips_ok,
        "a bit flip slipped through the checksums",
    );
    let cut_step = (bytes.len() / 16).max(1);
    let cuts_ok = (0..bytes.len())
        .step_by(cut_step)
        .all(|c| Snapshot::from_bytes(&bytes[..c]).is_err());
    gate.check("truncation rejected", cuts_ok, "a truncated file parsed");
    gate.check(
        "missing file is a typed Io error",
        matches!(
            GeoBlock::read_snapshot(&dir.join("missing.gbsnap")),
            Err(SnapshotError::Io(_))
        ),
        "expected Io error",
    );

    // 3b. The version field is outside every checksum: stamped as the
    // previous version the same sections must fail that version's
    // byte-wise rule, and stamped as the one before that they are not
    // read at all.
    let stamped = |version: u16| {
        let mut m = bytes.clone();
        m[8..10].copy_from_slice(&version.to_le_bytes());
        Snapshot::from_bytes(&m)
    };
    gate.check(
        &format!("the writer stamps version {SNAPSHOT_VERSION}"),
        bytes[8..10] == SNAPSHOT_VERSION.to_le_bytes(),
        "the writer stamped another version",
    );
    gate.check(
        "the file's version selects the checksum rule",
        matches!(
            stamped(SNAPSHOT_VERSION - 1),
            Err(SnapshotError::ChecksumMismatch { .. })
        ),
        "a version-5 file verified under the version-4 rule",
    );
    gate.check(
        "a file stamped v3 is UnsupportedVersion",
        matches!(
            stamped(3),
            Err(SnapshotError::UnsupportedVersion { found: 3, .. })
        ),
        "a version-3 file was decoded, or refused as corrupt",
    );

    // 4. Hardened request path.
    gate.check(
        "unknown filter column is a clean error",
        Filter::on(&base, "definitely_not_a_column", CmpOp::Eq, 1.0).is_err(),
        "expected DataError::UnknownColumn",
    );

    let _ = std::fs::remove_file(&path);
    if gate.failed {
        eprintln!("persist_check: FAILED");
        std::process::exit(1);
    }
    println!("persist_check: all checks passed");
}
