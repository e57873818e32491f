//! CI gate: snapshot persistence round-trip + rejection checks.
//!
//! Runs in tier-1 CI (`persist-roundtrip` step). Builds a GeoBlock from
//! the synthetic taxi data, serves a short workload, snapshots the
//! engine, reloads it, and verifies the acceptance criteria of the
//! persistence subsystem end-to-end:
//!
//! 1. loaded `GeoBlock::content_hash()` == saved hash (lossless),
//! 2. `GeoBlockEngine::from_snapshot` answers bit-identically to the
//!    engine it was saved from, warm from the first query, with the cache
//!    the saved statistics rebuild,
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
use geoblocks::{build, GeoBlock, GeoBlockEngine, Snapshot, SnapshotError, SNAPSHOT_VERSION};

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
    let engine = GeoBlockEngine::new(block.clone(), 0.1);
    for p in &polys {
        engine.select(p, &spec);
    }
    engine.rebuild_cache();

    // 1. Save → load → content-hash identity.
    engine.write_snapshot(&path).expect("snapshot save");
    let loaded_block = GeoBlock::read_snapshot(&path).expect("block load");
    gate.check(
        "block round-trip content_hash",
        loaded_block.content_hash() == block.content_hash(),
        "loaded hash differs from saved hash",
    );

    // 2. Warm engine identity: same answers, cache hits from query one.
    let warm = GeoBlockEngine::from_snapshot(&path, 0.1).expect("engine load");
    engine.rebuild_cache();
    gate.check(
        "restored cache is the one the saved statistics rebuild",
        warm.trie_snapshot().content_hash() == engine.trie_snapshot().content_hash(),
        "cache content hash differs",
    );
    warm.reset_metrics();
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
    gate.check(
        "warm start hits the cache immediately",
        warm.metrics().direct_hits > 0,
        "no direct hits — restored cache is cold",
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
