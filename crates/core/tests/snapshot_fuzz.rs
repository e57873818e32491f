//! Structure-aware mutation test of the snapshot loader — the `gb_store`
//! third of the robustness roadmap's "every decoder is fuzzed".
//!
//! Seeded and dependency-free: a fixed splitmix64 stream picks a corpus
//! file (the current writer's files of a small taxi block, of the same
//! block after an update and of an empty block), one mutation, and where
//! to apply it. Mutated sections are sealed again by the container writer
//! — so the checksum is valid and the mutation reaches the decoders
//! behind it — except for the raw mutations, which attack the container
//! itself. Every outcome must be a typed `SnapshotError` or a block that
//! passes `check_invariants`: no panic, and no single allocation larger
//! than a small multiple of the input or the fixed-size layer list (a
//! length prefix must be checked against the bytes that follow it before
//! anything is reserved for it). A file whose version field was changed
//! must never load.
//!
//! The case number in a failure message replays the case: the stream is
//! fixed, so case `k` is always the same mutation.
//!
//! This file is a test binary of its own because it installs a global
//! allocator (the only way to *observe* an allocation), and holds one
//! test so nothing else allocates while it watches.

use gb_cell::MAX_LEVEL;
use gb_data::{datasets, extract, CmpOp, Filter, Predicate, Rows};
use gb_geom::Point;
use gb_store::{SnapshotReader, SnapshotWriter};
use geoblocks::{build, GeoBlock, Layer, UpdateBatch, SNAPSHOT_VERSION};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The system allocator, remembering the largest single request.
struct Watching;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic `fetch_max` on a
// plain counter, which neither allocates nor unwinds. `realloc` and
// `alloc_zeroed` keep their default implementations, which go through
// `alloc` and so are counted too.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

const SEED: u64 = 0x6762_736e_6170_0005; // "gbsnap", then 5
const CASES: usize = 6000;
const BUDGET: Duration = Duration::from_secs(20);
/// A load may not ask for more than this many times its input in one
/// allocation (a valid load's largest is one array, smaller than the file).
const ALLOC_FACTOR: usize = 2;
/// … or than the one allocation a load makes whatever its input: the list
/// of layers the derive fills, sized from the stored level (at most
/// `MAX_LEVEL / 2 + 2` layers). An empty block's file is smaller.
const LAYER_LIST: usize = (MAX_LEVEL as usize / 2 + 2) * std::mem::size_of::<Layer>();

/// The largest single allocation a load of `input` bytes may make.
fn alloc_bound(input: usize) -> usize {
    (ALLOC_FACTOR * input.max(256)).max(LAYER_LIST)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A value in `0..n` (`n > 0`).
fn below(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n as u64) as usize
}

/// The sections of a current file, in order.
const NAMES: [&str; 4] = ["SCHM", "GRID", "HDRS", "CELL"];
/// Where `CELL` lies in [`NAMES`].
const CELL: usize = 3;

type Sections = Vec<Vec<u8>>;

fn sections_of(file: &[u8]) -> Sections {
    let mut reader =
        SnapshotReader::from_bytes(file, SNAPSHOT_VERSION).expect("corpus file is valid");
    let all = NAMES
        .map(|name| {
            let mut r = reader.next_section(name).expect("corpus file is valid");
            r.bytes(r.remaining()).unwrap().to_vec()
        })
        .into();
    reader.finish().expect("corpus file is valid");
    all
}

/// Seal `sections` in order: valid lengths, a valid checksum.
fn seal(sections: &Sections) -> Vec<u8> {
    let mut w = SnapshotWriter::new(SNAPSHOT_VERSION);
    for payload in sections {
        w.section(|p| p.bytes(payload));
    }
    w.into_bytes()
}

/// The `CELL` arrays, in order: keys, counts, singles, then the full
/// records' minima, maxima and sums.
const COUNTS: usize = 1;
const SINGLES: usize = 2;
const FULL: usize = 3;

/// Offsets in `payload` where a u64 array-length prefix plausibly sits:
/// the payload walked as a run of count-prefixed arrays of 8-byte values
/// (exactly the `CELL` layout, a prefix of the others).
fn length_prefixes(payload: &[u8]) -> Vec<usize> {
    let mut at = 0usize;
    let mut found = Vec::new();
    while let Some(word) = payload.get(at..at + 8) {
        let n = u64::from_le_bytes(word.try_into().unwrap());
        let Some(next) = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(8))
            .and_then(|bytes| bytes.checked_add(at + 8))
            .filter(|&next| next <= payload.len())
        else {
            break;
        };
        found.push(at);
        at = next;
    }
    found
}

/// One mutated file from case stream `rng`, what was done to it, and
/// whether the mutation alone must make the load fail.
fn mutate(corpus: &[Vec<u8>], rng: &mut u64) -> (Vec<u8>, String, bool) {
    let which = below(rng, corpus.len());
    let file = &corpus[which];
    let mut sections = sections_of(file);
    let s = below(rng, sections.len());
    let tag = NAMES[s];
    let (bytes, what) = match below(rng, 8) {
        // A bit flipped under a valid checksum.
        0 => {
            let payload = &mut sections[s];
            if payload.is_empty() {
                return (file.clone(), format!("file {which}: untouched"), false);
            }
            let (at, bit) = (below(rng, payload.len()), below(rng, 8));
            payload[at] ^= 1 << bit;
            let what = format!("file {which}: flip bit {bit} of byte {at} in {tag}");
            (seal(&sections), what)
        }
        // A section cut short under a valid checksum.
        1 => {
            let payload = &mut sections[s];
            let keep = below(rng, payload.len() + 1);
            payload.truncate(keep);
            let what = format!("file {which}: {tag} cut to {keep} bytes");
            (seal(&sections), what)
        }
        // A section of another file spliced in at its place, or (must
        // fail) a section dropped or repeated: the layout is the four
        // sections in order.
        2 => {
            let donor = below(rng, corpus.len());
            let what = match below(rng, 4) {
                0 => {
                    sections.remove(s);
                    format!("file {which}: {tag} dropped")
                }
                1 => {
                    sections.insert(s, sections[s].clone());
                    format!("file {which}: {tag} repeated")
                }
                _ => {
                    sections[s] = sections_of(&corpus[donor]).swap_remove(s);
                    format!("file {which}: {tag} of file {donor} spliced in")
                }
            };
            let must_fail = sections.len() != NAMES.len();
            return (seal(&sections), what, must_fail);
        }
        // A length prefix inflated: one value more than the bytes behind it
        // hold, twice as many, or absurdly many — as a u64 array count or
        // as a u32 count.
        3 => {
            let payload = &mut sections[s];
            if payload.len() < 8 {
                return (file.clone(), format!("file {which}: untouched"), false);
            }
            let known = length_prefixes(payload);
            let at = if known.is_empty() || below(rng, 4) == 0 {
                below(rng, payload.len() - 7)
            } else {
                known[below(rng, known.len())]
            };
            let old = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
            let remaining = (payload.len() - at) as u64;
            let new = match below(rng, 5) {
                0 => old.wrapping_add(1),
                1 => old.wrapping_mul(2).wrapping_add(1),
                2 => remaining / 8 + 1,
                3 => 1 << 60,
                _ => u64::MAX,
            };
            if below(rng, 4) == 0 {
                payload[at..at + 4].copy_from_slice(&(new as u32 | 0x8000_0000).to_le_bytes());
            } else {
                payload[at..at + 8].copy_from_slice(&new.to_le_bytes());
            }
            let what = format!("file {which}: length at byte {at} of {tag}: {old} -> {new}");
            (seal(&sections), what)
        }
        // Raw: the file cut at any offset, checksums as they were.
        4 => {
            let cut = below(rng, file.len());
            (file[..cut].to_vec(), format!("file {which}: cut at {cut}"))
        }
        // Raw: a bit flipped anywhere — header, frame or payload.
        5 => {
            let mut bytes = file.clone();
            let (at, bit) = (below(rng, bytes.len()), below(rng, 8));
            bytes[at] ^= 1 << bit;
            (
                bytes,
                format!("file {which}: raw flip bit {bit} of byte {at}"),
            )
        }
        // A `CELL` whose arrays disagree with its counts, under a valid
        // checksum: a count flipped from 1 to 2 or from 2 to 1, the arrays
        // unchanged, or the `singles` or a full array one value short.
        // Each is refused.
        6 => {
            let payload = &mut sections[CELL];
            let arrays = length_prefixes(payload);
            let count_of =
                |p: &[u8], at: usize| u64::from_le_bytes(p[at..at + 8].try_into().unwrap());
            let what = match below(rng, 3) {
                0 => {
                    let (from, to) = [(1u64, 2u64), (2, 1)][below(rng, 2)];
                    let first = arrays[COUNTS] + 8;
                    let n = count_of(payload, arrays[COUNTS]) as usize;
                    let flippable: Vec<usize> = (0..n)
                        .filter(|&i| count_of(payload, first + 8 * i) == from)
                        .collect();
                    if flippable.is_empty() {
                        return (file.clone(), format!("file {which}: untouched"), false);
                    }
                    let i = flippable[below(rng, flippable.len())];
                    payload[first + 8 * i..][..8].copy_from_slice(&to.to_le_bytes());
                    format!("file {which}: count {i} flipped from {from} to {to}")
                }
                attack => {
                    let array = match attack {
                        1 => SINGLES,
                        _ => FULL + below(rng, 3),
                    };
                    let at = arrays[array];
                    let n = count_of(payload, at);
                    if n == 0 {
                        return (file.clone(), format!("file {which}: untouched"), false);
                    }
                    payload[at..at + 8].copy_from_slice(&(n - 1).to_le_bytes());
                    let end = at + 8 + 8 * n as usize;
                    payload.drain(end - 8..end);
                    format!("file {which}: CELL array {array} one value short")
                }
            };
            return (seal(&sections), what, true);
        }
        // Raw: the version field set to another value — half the time a
        // nearby one (an older version or the next), otherwise any.
        _ => {
            let mut other = if below(rng, 2) == 0 {
                below(rng, usize::from(SNAPSHOT_VERSION) + 2) as u16
            } else {
                splitmix(rng) as u16
            };
            if other == SNAPSHOT_VERSION {
                other ^= 1;
            }
            let mut bytes = file.clone();
            bytes[8..10].copy_from_slice(&other.to_le_bytes());
            let what = format!("file {which}: stamped version {other}");
            return (bytes, what, true);
        }
    };
    (bytes, what, false)
}

#[test]
fn mutated_snapshots_yield_typed_errors_or_valid_blocks() {
    // Three files of one schema and grid, so a section spliced from one
    // into another is a graft, not a no-op: a small taxi block, the same
    // block after a batch that bumps a cell in place and splices a new
    // one, and a block no row passes the filter of.
    let ds = datasets::nyc_taxi(300, 7);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let (taxi, _) = build(&base, 8, &Filter::all());
    let mut updated = taxi.clone();
    let n_cols = base.schema().len();
    let mut batch = UpdateBatch::new();
    batch.push(base.location(0), vec![1.5; n_cols]);
    batch.push(
        Point::new(ds.grid.domain().max.x, ds.grid.domain().min.y),
        vec![4.0; n_cols],
    );
    let report = updated.apply_updates(&batch).expect("valid batch");
    assert_eq!((report.in_place, report.new_cells), (1, 1));
    let none = Filter::new(vec![Predicate::new(0, CmpOp::Lt, f64::NEG_INFINITY)]);
    let (empty, _) = build(&base, 8, &none);
    assert_eq!(empty.num_cells(), 0);
    let corpus = [taxi, updated, empty].map(|block| block.to_snapshot_bytes());
    for file in &corpus {
        assert_eq!(file[8..10], SNAPSHOT_VERSION.to_le_bytes());
        GeoBlock::from_snapshot_bytes(file)
            .expect("corpus file loads")
            .check_invariants();
    }
    eprintln!("corpus: {:?} bytes", corpus.each_ref().map(Vec::len));

    let started = Instant::now();
    let mut rng = SEED;
    let (mut errors, mut loads, mut worst) = (0usize, 0usize, 0.0f64);
    let mut kinds = std::collections::BTreeMap::<String, usize>::new();
    let mut case = 0usize;
    while case < CASES && started.elapsed() < BUDGET {
        let (bytes, what, must_fail) = mutate(&corpus, &mut rng);
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(|| GeoBlock::from_snapshot_bytes(&bytes));
        let largest = LARGEST.load(Ordering::Relaxed);
        let outcome = outcome.unwrap_or_else(|_| panic!("case {case} panicked ({what})"));
        assert!(
            largest <= alloc_bound(bytes.len()),
            "case {case} ({what}): one allocation of {largest} bytes for a {}-byte input",
            bytes.len()
        );
        worst = worst.max(largest as f64 / bytes.len().max(256) as f64);
        match outcome {
            Ok(block) => {
                assert!(!must_fail, "case {case} ({what}): loaded");
                loads += 1;
                let checked = std::panic::catch_unwind(|| block.check_invariants());
                assert!(
                    checked.is_ok(),
                    "case {case} ({what}): invalid block loaded"
                );
            }
            Err(e) => {
                errors += 1;
                // The variant's name: `Truncated { context: .. }` -> `Truncated`.
                let debug = format!("{e:?}");
                let kind = debug.split(|c: char| !c.is_alphanumeric()).next();
                *kinds
                    .entry(kind.unwrap_or_default().to_string())
                    .or_default() += 1;
            }
        }
        case += 1;
    }
    eprintln!(
        "{case} cases in {:.1?}: {errors} typed errors {kinds:?}, {loads} valid loads, \
         largest allocation {worst:.2}× its input",
        started.elapsed()
    );
    // The budget is a ceiling for slow hosts, not the usual way out; and a
    // run in which nothing reached a decoder would prove nothing.
    assert!(case >= 1000, "only {case} cases inside the time budget");
    assert!(kinds.get("Corrupt").copied().unwrap_or(0) > case / 10);
    assert!(kinds.get("Truncated").copied().unwrap_or(0) > case / 20);
    assert!(loads > 0, "no mutation was ever harmless");
}
