//! The work ratchet: what a seeded block costs in bytes, what generating
//! its rows and its set-up allocate, what 64 seeded SELECTs and COUNTs cost in record searches
//! and reads, what the paper's query cache (`gb_baselines::BlockQcIndex`)
//! learns from them and holds, what an 8-row update allocates, what
//! one snapshot save and one load allocate and how long the file is,
//! asserted against recorded constants. Counts of
//! work do not depend on the host, so this gate holds where timings cannot
//! steer.
//!
//! The bytes are ceilings: a change that shrinks the block or what its
//! set-up or an update allocates lowers them in the same diff, so the gate ratchets. The
//! query counts are equalities: a change that alters how a covering cell
//! is answered (which layer, which fold) must not change how many cells
//! are searched or combined, and a change that does must say so by
//! re-recording them. So are the cache's counts: which cells it tracks
//! and caches, what it costs, and how many probes it answers, and so are
//! the block's content hash, which proves its records bit for bit, and
//! the length of its snapshot file, which for these records moves only
//! with the format.
//!
//! This file is a test binary of its own because it installs a global
//! allocator (the only way to *observe* an allocation), and holds one
//! test so nothing else allocates while it counts.

use gb_baselines::{BlockQcIndex, SpatialAggIndex};
use gb_data::{datasets, extract, polygons, AggSpec, Filter, Rows};
use gb_geom::Point;
use geoblocks::{build_parallel, GeoBlock, GeoBlockEngine, QueryStats, UpdateBatch, UpdateReport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The system allocator, summing the bytes of every allocation of at
/// least [`COUNTED`] bytes.
struct Counting;

/// Smallest allocation counted. The data arrays of a set-up are far
/// larger; below it lie only the fork-join's bookkeeping (thread handles,
/// result slots, one entry per run or range), which grows with the pool's
/// size — so the counts are the same on a 1-CPU and a many-CPU runner.
const COUNTED: usize = 4096;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic add on a plain
// counter, which neither allocates nor unwinds. `realloc` and
// `alloc_zeroed` keep their default implementations, which go through
// `alloc` and so are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= COUNTED {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the bytes it allocated (counted allocations only).
fn allocated<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}

const ROWS: usize = 100_000;
const SEED: u64 = 1;
/// The benchmark's block level.
const LEVEL: u8 = 10;
const POLYGONS: usize = 64;

/// The block's `GeoBlock::content_hash`, the digest of its logical
/// records: how a record is stored does not move it.
const CONTENT_HASH: u64 = 0x291a_c4f1_844c_467e;
/// Ceiling on `GeoBlock::derived_bytes`: the materialised coarser layers
/// (2 899 840 B while a record of one tuple stored its value three times).
const MAX_DERIVED_BYTES: usize = 2_255_244;
/// Ceiling on `GeoBlock::memory_bytes` per aggregated row, rounded up (104
/// while a record of one tuple stored its value three times).
const MAX_BYTES_PER_ROW: usize = 72;
/// SELECT's `QueryStats::searches` summed over the polygons.
const SEARCHES: usize = 10_293;
/// SELECT's `QueryStats::cells_combined` summed over the polygons.
const CELLS_COMBINED: usize = 4_689;
/// COUNT's `QueryStats::searches` summed over the polygons: SELECT's
/// search, one per covering cell.
const COUNT_SEARCHES: usize = 10_293;
/// COUNT's `QueryStats::cells_combined` summed over the polygons: one
/// record read per covering cell with data, as for SELECT.
const COUNT_CELLS_COMBINED: usize = 4_689;
/// Ceiling on the bytes `datasets::nyc_taxi` allocates: the pickup sites
/// and their cumulative weights, the two coordinate columns and the seven
/// attribute columns, each allocated once at its final length (43 809 024
/// B while the sites, their weights and every attribute column grew by
/// doubling).
const MAX_GENERATE_BYTES: usize = 14_400_000;
/// Ceiling on the bytes `extract` allocates: each chunk's pairs, the key
/// column and the permutation, and the gathered columns.
const MAX_EXTRACT_BYTES: usize = 9_956_320;
/// Ceiling on the bytes `build_parallel` allocates, the same on 1, 2 and 4
/// threads: the records and each coarser layer, each once at its exact
/// size (16 002 248 B while a record of one tuple stored its value three
/// times, 11 275 024 B on one thread while the count pass grew a bitset of
/// the singles per range).
const MAX_BUILD_BYTES: usize = 11_262_736;
/// BlockQC's aggregate threshold (the serving benchmark's).
const THRESHOLD: f64 = 0.05;
/// After two SELECT passes and a rebuild: cached cells, their bytes, and
/// the distinct query cells the hit statistics track.
const CACHED: usize = 2_011;
const CACHE_BYTES: usize = 370_024;
const TRACKED_CELLS: usize = 9_963;
/// Cache probes and direct hits over the three passes (the third after
/// the rebuild).
const PROBES: u64 = 30_879;
const DIRECT_HITS: u64 = 2_341;
/// Ceiling on the bytes an 8-row `GeoBlockEngine::apply_updates`
/// allocates when every row lands in a cell with data: the next block's
/// records and each of its coarser layers (the odd ones freed as the
/// cascade passes) (16 002 248 B while a record of one tuple stored its
/// value three times).
const MAX_UPDATE_IN_PLACE_BYTES: usize = 11_263_408;
/// The same ceiling for a batch of 4 rows in cells with data and 4 in
/// cells without: the same one pass, 4 records larger (23 787 920 B while
/// a splice copied the records a second time, 16 384 864 B while the
/// engine refilled an aggregate cache after each update, 16 381 920 B in
/// place, 16 005 192 B while a record of one tuple stored its value three
/// times).
const MAX_UPDATE_NEW_CELL_BYTES: usize = 11_265_456;
/// Ceiling on the bytes a serving engine's `write_snapshot` allocates:
/// the container buffer, sized once from the stored arrays (7 404 096 B
/// while a record of one tuple stored its value three times, 4 832 288 B
/// while the file stored the singles' marks, 4 827 248 B while the buffer
/// held its header beside the 1 KiB for the small sections). A save that
/// copied the block would add its 7.1 MB.
const MAX_SAVE_BYTES: usize = 4_827_232;
/// The length of the block's snapshot file (4 826 464 B while each section
/// carried a tag and a checksum of its own).
const SNAPSHOT_BYTES: usize = 4_826_417;
/// Ceiling on the bytes `GeoBlock::read_snapshot` allocates: the file, the
/// decoded records, their marks derived from the counts, and the coarser
/// layers the load derives (23 405 600 B while a record of one tuple stored
/// its value three times, 16 094 240 B while the file stored the marks,
/// 16 089 200 B while each section carried a tag and a checksum).
const MAX_LOAD_BYTES: usize = 16_089_153;

#[test]
fn block_bytes_and_select_work_stay_at_their_recorded_values() {
    let started = Instant::now();
    let (ds, generate_bytes) = allocated(|| datasets::nyc_taxi(ROWS, SEED));
    let rules = datasets::nyc_cleaning_rules();
    let (extracted, extract_bytes) = allocated(|| extract(&ds.raw, ds.grid, &rules, None));
    let base = extracted.base;
    let ((block, _), build_bytes) = allocated(|| build_parallel(&base, LEVEL, &Filter::all(), 1));
    let built = started.elapsed();
    assert!(built.as_secs_f64() < 2.0, "set-up took {built:?}");
    for threads in [2, 4] {
        let (_, bytes) = allocated(|| build_parallel(&base, LEVEL, &Filter::all(), threads));
        assert_eq!(
            bytes, build_bytes,
            "build allocated {bytes} B on {threads} threads, {build_bytes} B on 1"
        );
    }
    assert!(
        generate_bytes <= MAX_GENERATE_BYTES,
        "generating the rows allocated {generate_bytes} B, over the recorded {MAX_GENERATE_BYTES}"
    );
    assert!(
        extract_bytes <= MAX_EXTRACT_BYTES,
        "extract allocated {extract_bytes} B, over the recorded {MAX_EXTRACT_BYTES}"
    );
    assert!(
        build_bytes <= MAX_BUILD_BYTES,
        "build allocated {build_bytes} B, over the recorded {MAX_BUILD_BYTES}"
    );

    assert_eq!(
        block.content_hash(),
        CONTENT_HASH,
        "the block's records are not the recorded ones, bit for bit"
    );
    let rows = usize::try_from(block.num_rows()).expect("rows fit a usize");
    let per_row = block.memory_bytes().div_ceil(rows);
    assert!(
        block.derived_bytes() <= MAX_DERIVED_BYTES,
        "derived bytes {} over the recorded {MAX_DERIVED_BYTES}",
        block.derived_bytes()
    );
    assert!(
        per_row <= MAX_BYTES_PER_ROW,
        "{per_row} B/row over the recorded {MAX_BYTES_PER_ROW}"
    );

    let spec = AggSpec::k_aggregates(block.schema(), 4);
    let polys = polygons::neighborhoods(POLYGONS, SEED);
    let (mut select, mut count) = (QueryStats::default(), QueryStats::default());
    for poly in &polys {
        for (work, stats) in [
            (&mut select, block.select(poly, &spec).1),
            (&mut count, block.count(poly).1),
        ] {
            work.searches += stats.searches;
            work.cells_combined += stats.cells_combined;
        }
    }
    assert_eq!(
        (select.searches, select.cells_combined),
        (SEARCHES, CELLS_COMBINED),
        "SELECT's searches and cells combined over {POLYGONS} polygons"
    );
    assert_eq!(
        (count.searches, count.cells_combined),
        (COUNT_SEARCHES, COUNT_CELLS_COMBINED),
        "COUNT's searches and cells combined over {POLYGONS} polygons"
    );

    // Four points, each in a block-level cell without data, from a
    // lattice over the domain.
    let occupied: Vec<u64> = (0..block.num_cells())
        .map(|i| block.cell_at(i).raw())
        .collect();
    let domain = ds.grid.domain();
    let empty: Vec<Point> = (0..64 * 64)
        .map(|i| {
            let (u, v) = ((i % 64) as f64 + 0.5, (i / 64) as f64 + 0.5);
            Point::new(
                domain.min.x + domain.width() * u / 64.0,
                domain.min.y + domain.height() * v / 64.0,
            )
        })
        .filter(|&p| {
            let cell = ds.grid.cell_for_point(p, LEVEL).raw();
            occupied.binary_search(&cell).is_err()
        })
        .take(4)
        .collect();
    assert_eq!(empty.len(), 4, "cells without data on the lattice");
    let n_cols = block.schema().len();

    let mut qc = BlockQcIndex::new(block.clone(), THRESHOLD);
    for _ in 0..2 {
        for poly in &polys {
            qc.select(poly, &spec);
        }
    }
    qc.rebuild();
    for poly in &polys {
        qc.select(poly, &spec);
    }
    assert_eq!(
        (qc.num_cached(), qc.cached_bytes(), qc.tracked_cells()),
        (CACHED, CACHE_BYTES, TRACKED_CELLS),
        "cached cells, their bytes and the tracked cells"
    );
    let counts = qc.counts();
    assert_eq!(
        (counts.probes, counts.direct_hits),
        (PROBES, DIRECT_HITS),
        "cache probes and direct hits over three passes"
    );
    drop(qc);

    let engine = GeoBlockEngine::new(block);

    // One save from the serving engine and one load of what it wrote.
    let path = std::env::temp_dir().join(format!("gb_work_{}.gbsnap", std::process::id()));
    let (saved, save_bytes) = allocated(|| engine.write_snapshot(&path));
    saved.expect("save");
    let (loaded, load_bytes) = allocated(|| GeoBlock::read_snapshot(&path));
    let _ = std::fs::remove_file(&path);
    let (loaded, load_stats) = loaded.expect("load");
    assert_eq!(
        loaded.content_hash(),
        engine.block_snapshot().content_hash()
    );
    drop(loaded);
    assert_eq!(
        load_stats.bytes, SNAPSHOT_BYTES,
        "the snapshot file is not the recorded length"
    );
    assert!(
        save_bytes <= MAX_SAVE_BYTES,
        "a save allocated {save_bytes} B, over the recorded {MAX_SAVE_BYTES}"
    );
    assert!(
        load_bytes <= MAX_LOAD_BYTES,
        "a load allocated {load_bytes} B, over the recorded {MAX_LOAD_BYTES}"
    );

    // Two 8-row batches: every row at a base row's location (in place),
    // then 4 such rows and 4 in cells without data.
    let row = |at: Point, i: usize| (at, vec![i as f64 * 0.25; n_cols]);
    let in_place = UpdateBatch {
        rows: (0..8).map(|i| row(base.location(i * 997), i)).collect(),
    };
    let new_cell = UpdateBatch {
        rows: (0..8)
            .map(|i| match i % 2 {
                0 => row(base.location(i * 1_009 + 1), i),
                _ => row(empty[i / 2], i),
            })
            .collect(),
    };
    for (batch, want, ceiling) in [
        (
            &in_place,
            UpdateReport {
                in_place: 8,
                new_cells: 0,
            },
            MAX_UPDATE_IN_PLACE_BYTES,
        ),
        (
            &new_cell,
            UpdateReport {
                in_place: 4,
                new_cells: 4,
            },
            MAX_UPDATE_NEW_CELL_BYTES,
        ),
    ] {
        let (reply, bytes) = allocated(|| engine.apply_updates(batch));
        assert_eq!(reply.expect("valid batch").result, want);
        assert!(
            bytes <= ceiling,
            "an 8-row update ({want:?}) allocated {bytes} B, over the recorded {ceiling}"
        );
    }
}
