//! A versioned, checksummed binary container for GeoBlocks snapshots.
//!
//! The paper positions GeoBlocks as "built once, queried forever" (§3
//! build, §4 query cache) — which only holds across process restarts if
//! the built block can be persisted. This
//! crate provides the *container*: a magic number, a format version, one
//! checksum over everything after them, and the sections in the order
//! they were written, so a load can always fail with a typed
//! [`SnapshotError`] instead of a panic or a silently corrupt block. What
//! goes *into* the sections (the block's arrays and header) is defined by
//! the `geoblocks` crate on top of the [`ByteWriter`]/[`ByteReader`]
//! primitives here.
//!
//! ## Layout
//!
//! ```text
//! header:   magic [8]  = "GBSNAP\r\n"
//!           version u16 LE
//!           check   u64 LE (`wordsum64` of every byte after it)
//! section:  len     u64 LE (payload bytes)
//!           payload [len]
//! ```
//!
//! Sections carry no tags: the version names the layout, so a reader
//! takes them in the order the writer wrote them, and a byte after the
//! last one is refused. Any change to what is stored bumps the version
//! (see `DESIGN.md` "Persistence" for the policy).
//!
//! All integers are little-endian; all multi-byte values go through
//! explicit `to_le_bytes`/`from_le_bytes`, so snapshots are portable
//! across architectures. Floats are stored by bit pattern (NaN payloads
//! and signed zeros survive), which is what makes the round-trip gate
//! (`content_hash` equality) exact.

// Snapshot bytes come from disk: a corrupt file is a typed error.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::cast_possible_truncation))]

use std::fmt;
use std::path::Path;

/// The 8-byte magic prefix of every snapshot file. The `\r\n` tail makes
/// accidental newline translation detectable, FTP-lore style.
pub const MAGIC: [u8; 8] = *b"GBSNAP\r\n";

/// Errors of the snapshot load/save path. Loading never panics: wrong
/// magic, unsupported versions, flipped bits, and truncated files all
/// surface here.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The snapshot's format version is not the one this build reads.
    UnsupportedVersion { found: u16, expected: u16 },
    /// The bytes after the header do not match its checksum.
    ChecksumMismatch,
    /// The file ended before the advertised content did.
    Truncated { context: &'static str },
    /// The bytes parsed but describe an impossible structure (unsorted
    /// keys, out-of-range indices, mismatched lengths, …).
    Corrupt { context: String },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a GeoBlocks snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, expected } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {expected})"
            ),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::Corrupt { context } => write!(f, "snapshot corrupt: {context}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl SnapshotError {
    /// Shorthand for a [`SnapshotError::Corrupt`] with a formatted context.
    pub fn corrupt(context: impl Into<String>) -> Self {
        SnapshotError::Corrupt {
            context: context.into(),
        }
    }
}

/// FNV-1a 64-bit, a byte at a time — the stable key hash of the wire API
/// and the serve layer. Deliberately simple and self-contained: a stable,
/// documented algorithm, not a cryptographic one.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The snapshot checksum: FNV-1a's shape over 8-byte words instead of
/// bytes, so a payload is checked at the speed it is read (one multiply
/// per word; a multiply per byte was half of a load).
///
/// ```text
/// h = 0xcbf29ce484222325
/// step(w):  h = rotate_left((h ^ w) * 0x9e3779b97f4a7c15, 31)
/// step(each whole little-endian 8-byte word, in order)
/// step(the 1–7 tail bytes, zero-padded to a word)   — if there are any
/// step(the length in bytes)
/// ```
///
/// For a fixed word each step is a bijection of the state (xor, multiply
/// by an odd constant, rotate), so two inputs that differ in exactly one
/// word never collide. The rotate is what carries high bits back into low
/// ones: without it a flip of bit 63 moves the state by exactly 2⁶³ and
/// stays there — multiplying by an odd number keeps 2⁶³ — until a second
/// flip of bit 63 in any later word cancels it, which byte-wise FNV-1a
/// never allows. The length step tells a zero-padded tail from real zero
/// bytes. Deliberately simple: the goal is corruption *detection*, not
/// cryptographic integrity.
fn wordsum64(bytes: &[u8]) -> u64 {
    fn step(h: u64, word: u64) -> u64 {
        (h ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(31)
    }
    let (words, tail) = bytes.as_chunks::<8>();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &word in words {
        h = step(h, u64::from_le_bytes(word));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last.iter_mut().zip(tail).for_each(|(l, &t)| *l = t);
        h = step(h, u64::from_le_bytes(last));
    }
    step(h, bytes.len() as u64)
}

/// Bytes before the first section: magic, version, checksum.
const HEADER_BYTES: usize = MAGIC.len() + 2 + 8;
/// Where the checksum lies in the header.
const CHECK_AT: usize = MAGIC.len() + 2;

/// Builds a snapshot in one buffer: the header, then every section
/// encoded where it will stay behind its length, then the checksum
/// sealed over all of them — no per-section buffer, no second copy.
#[derive(Debug)]
pub struct SnapshotWriter {
    out: ByteWriter,
}

impl SnapshotWriter {
    /// A container of format `version`.
    pub fn new(version: u16) -> Self {
        SnapshotWriter::with_capacity(version, 0)
    }

    /// [`SnapshotWriter::new`] with room for `bytes` of file, header
    /// included, so a caller that knows its payload sizes never regrows
    /// the buffer.
    pub fn with_capacity(version: u16, bytes: usize) -> Self {
        let mut out = ByteWriter::with_capacity(bytes);
        out.bytes(&MAGIC);
        out.u16(version);
        out.u64(0); // checksum, sealed by `into_bytes`
        SnapshotWriter { out }
    }

    /// Append a section: its length, then whatever `encode` writes.
    #[expect(
        clippy::indexing_slicing,
        reason = "the length field lies inside the section this call has just written"
    )]
    pub fn section(&mut self, encode: impl FnOnce(&mut ByteWriter)) {
        let at = self.out.buf.len();
        self.out.u64(0); // length, patched below
        encode(&mut self.out);
        let len = (self.out.buf.len() - at - 8) as u64;
        self.out.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Seal the checksum over every section and hand out the finished
    /// container.
    #[expect(
        clippy::indexing_slicing,
        reason = "the header was written first: HEADER_BYTES <= buf.len()"
    )]
    pub fn into_bytes(self) -> Vec<u8> {
        let mut buf = self.out.buf;
        let check = wordsum64(&buf[HEADER_BYTES..]);
        buf[CHECK_AT..HEADER_BYTES].copy_from_slice(&check.to_le_bytes());
        buf
    }
}

/// Write `bytes` to `path` through a sibling temp file + rename, so a
/// process that dies mid-write never leaves a half-written snapshot behind
/// the final name. The snapshot writer's one way to disk.
///
/// Nothing is fsynced, so that holds for a crash of the process, not for a
/// power loss: after one, the final name may hold a file whose bytes never
/// all reached the disk, which the loader refuses as truncated or by its
/// checksum.
///
/// The temp name appends to the full file name (never replaces an
/// extension) and carries the pid plus a process-wide counter, so
/// concurrent saves — to the same path or to same-stem siblings like
/// `a.gbsnap` / `a.bak` — each write their own temp file and the rename
/// stays atomic instead of interleaving two byte streams.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            SnapshotError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("snapshot path {path:?} has no file name"),
            ))
        })?
        .to_os_string();
    let mut tmp_name = file_name;
    tmp_name.push(format!(
        ".{}-{}.tmp-gbsnap",
        std::process::id(),
        // Relaxed: a temp-name uniqueness ticket. No thread observes
        // another's ticket, only uniqueness matters.
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    Ok(())
}

/// An opened snapshot container: magic, version and checksum verified,
/// its sections handed out in order as slices of the file buffer.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    sections: ByteReader<'a>,
}

impl<'a> SnapshotReader<'a> {
    /// Open a container, validating magic, version and the checksum.
    ///
    /// `expected` is the one format version the caller decodes; a file of
    /// any other is rejected as [`SnapshotError::UnsupportedVersion`]
    /// before the checksum is verified, so an old or a future file is
    /// refused by name, never reported as corrupt.
    pub fn from_bytes(bytes: &'a [u8], expected: u16) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes, "snapshot header");
        if r.bytes(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let found = r.u16()?;
        if found != expected {
            return Err(SnapshotError::UnsupportedVersion { found, expected });
        }
        let check = r.u64()?;
        let sections = r.bytes(r.remaining())?;
        if wordsum64(sections) != check {
            return Err(SnapshotError::ChecksumMismatch);
        }
        Ok(SnapshotReader {
            sections: ByteReader::new(sections, "section length"),
        })
    }

    /// The next section, as a reader of its payload alone; `context`
    /// names it in that reader's errors.
    pub fn next_section(&mut self, context: &'static str) -> Result<ByteReader<'a>, SnapshotError> {
        let len = self.sections.len_prefix(1)?;
        Ok(ByteReader::new(self.sections.bytes(len)?, context))
    }

    /// Error unless every section was read: a byte after the last one is
    /// refused.
    pub fn finish(self) -> Result<(), SnapshotError> {
        match self.sections.remaining() {
            0 => Ok(()),
            n => Err(SnapshotError::corrupt(format!(
                "{n} trailing bytes after the last section"
            ))),
        }
    }
}

/// Checked `usize → u32` narrowing for length prefixes. Every in-memory
/// collection written with a u32 prefix (schema columns, string bytes)
/// is bounded far below `u32::MAX` by construction; a longer input means
/// a corrupted producer, and a silently truncated prefix would
/// desynchronize the whole stream — so this is the one place the encoder
/// is allowed to panic.
#[expect(
    clippy::expect_used,
    reason = "encoder precondition: u32-prefixed lengths are < 4 GiB by construction"
)]
fn len_u32_value(len: usize) -> u32 {
    u32::try_from(len).expect("length overflows the u32 snapshot prefix")
}

/// Little-endian primitive encoder for section payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Stored by bit pattern: NaNs and signed zeros round-trip exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a `usize` length as its checked u32 prefix (see
    /// `len_u32_value` for why overflow is a panic, not an `Err`).
    pub fn len_u32(&mut self, len: usize) {
        self.u32(len_u32_value(len));
    }

    /// Raw bytes, no prefix.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len_u32(s.len());
        self.bytes(s.as_bytes());
    }

    /// A u64 count, then every value as its `W` little-endian bytes. The
    /// values are converted a stack chunk at a time and appended as one
    /// slice: on a little-endian target the conversion is a plain copy the
    /// compiler vectorises, on a big-endian one it still swaps.
    #[expect(
        clippy::indexing_slicing,
        reason = "chunks(SLICE_CHUNK) yields at most SLICE_CHUNK = chunk.len() values"
    )]
    fn le_slice<T: Copy, const W: usize>(&mut self, v: &[T], to_le: impl Fn(T) -> [u8; W]) {
        self.u64(v.len() as u64);
        self.buf.reserve(v.len() * W);
        for part in v.chunks(SLICE_CHUNK) {
            let mut chunk = [[0u8; W]; SLICE_CHUNK];
            for (bytes, &x) in chunk.iter_mut().zip(part) {
                *bytes = to_le(x);
            }
            self.buf
                .extend_from_slice(chunk[..part.len()].as_flattened());
        }
    }

    /// Length-prefixed (u64 count) slice of u64s.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.le_slice(v, u64::to_le_bytes);
    }

    /// Length-prefixed (u64 count) slice of f64 bit patterns.
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.le_slice(v, |x| x.to_bits().to_le_bytes());
    }
}

/// Values converted per step of a slice write: 512 bytes of u64s on the
/// stack — large enough that the append is a bulk copy, small enough that
/// zeroing it is nothing next to a wire message's handful of values.
const SLICE_CHUNK: usize = 64;

/// Bounds-checked little-endian decoder: every read returns
/// [`SnapshotError::Truncated`] past the end instead of panicking, and
/// length prefixes are validated against the remaining bytes before any
/// allocation (a corrupt 2⁶⁰-element length cannot OOM the loader).
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Static context reported by truncation errors ("section `CELL`").
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        ByteReader {
            buf,
            pos: 0,
            context,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n);
        let Some(s) = end.and_then(|end| self.buf.get(self.pos..end)) else {
            return Err(SnapshotError::Truncated {
                context: self.context,
            });
        };
        self.pos += n;
        Ok(s)
    }

    /// Read exactly `N` bytes as an array. `bytes(N)` already guarantees
    /// the length, so the conversion cannot fail — but it is still
    /// surfaced as `Truncated` rather than a panic, keeping the whole
    /// decode path free of panicking branches.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        self.bytes(N)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated {
                context: self.context,
            })
    }

    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }

    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix for elements of `elem_bytes` each, validated
    /// against the remaining payload before returning.
    fn len_prefix(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let n = usize::try_from(n).ok().filter(|&n| {
            n.checked_mul(elem_bytes)
                .is_some_and(|total| total <= self.remaining())
        });
        n.ok_or(SnapshotError::Truncated {
            context: self.context,
        })
    }

    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.bytes(n)?.to_vec())
            .map_err(|_| SnapshotError::corrupt(format!("invalid UTF-8 in {}", self.context)))
    }

    /// A length-prefixed slice of `W`-byte little-endian values: the
    /// count is checked against the remaining payload, then the bytes are
    /// taken as one slice and converted in one pass into a vector
    /// allocated once.
    fn le_vec<T, const W: usize>(
        &mut self,
        from_le: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.len_prefix(W)?;
        let (values, _) = self.bytes(n * W)?.as_chunks::<W>();
        Ok(values.iter().map(|&bytes| from_le(bytes)).collect())
    }

    pub fn u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        self.le_vec(u64::from_le_bytes)
    }

    pub fn f64_vec(&mut self) -> Result<Vec<f64>, SnapshotError> {
        self.le_vec(|bytes| f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Error unless every payload byte was consumed — catches encoder /
    /// decoder drift within a section.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::corrupt(format!(
                "{} unread bytes at the end of {}",
                self.remaining(),
                self.context
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The version the tests write and read.
    const VERSION: u16 = 6;
    /// Where the first section's payload starts.
    const FIRST_PAYLOAD: usize = HEADER_BYTES + 8;

    fn sample(version: u16) -> Vec<u8> {
        let mut w = SnapshotWriter::new(version);
        w.section(|p| p.bytes(&[1, 2, 3, 4, 5]));
        w.section(|_| {});
        w.into_bytes()
    }

    /// Every section of `bytes`, in order.
    fn sections(bytes: &[u8]) -> Vec<&[u8]> {
        let mut r = SnapshotReader::from_bytes(bytes, VERSION).expect("opens");
        let mut all = Vec::new();
        while !r.sections.is_empty() {
            let mut s = r.next_section("test").expect("framed");
            all.push(s.bytes(s.remaining()).unwrap());
        }
        r.finish().expect("every section read");
        all
    }

    /// Deterministic test data: a splitmix64 stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn roundtrip_container() {
        let bytes = sample(VERSION);
        assert_eq!(sections(&bytes), [&[1u8, 2, 3, 4, 5][..], &[][..]]);
        // A third section is not there.
        let mut r = SnapshotReader::from_bytes(&bytes, VERSION).unwrap();
        r.next_section("a").unwrap();
        r.next_section("b").unwrap();
        assert!(matches!(
            r.next_section("c").unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
    }

    #[test]
    fn sections_are_framed_in_place() {
        // header 18; A: len 8, payload 5; B: len only.
        let bytes = sample(VERSION);
        assert_eq!(bytes.len(), 18 + 8 + 5 + 8);
        assert_eq!(bytes[8..10], VERSION.to_le_bytes());
        assert_eq!(bytes[10..18], wordsum64(&bytes[18..]).to_le_bytes());
        assert_eq!(bytes[18..26], 5u64.to_le_bytes());
        assert_eq!(bytes[26..31], [1, 2, 3, 4, 5]);
        assert_eq!(bytes[31..39], 0u64.to_le_bytes());
        // The reader's sections are slices of that buffer, not copies.
        assert!(std::ptr::eq(sections(&bytes)[0], &bytes[26..31]));
    }

    #[test]
    fn other_versions_are_rejected() {
        for v in [0, 1, VERSION - 1, VERSION + 1, u16::MAX] {
            let err = SnapshotReader::from_bytes(&sample(v), VERSION).unwrap_err();
            assert!(
                matches!(
                    &err,
                    SnapshotError::UnsupportedVersion { found, expected }
                        if *found == v && *expected == VERSION
                ),
                "v{v}: {err:?}"
            );
            assert!(err.to_string().contains("reads version 6"), "{err}");
        }
    }

    #[test]
    fn the_version_is_checked_before_any_checksum() {
        // A file of another version whose first section is also corrupt
        // is refused for its version: the reader never reaches a checksum
        // it has no business verifying.
        for v in [VERSION - 1, VERSION + 1] {
            let mut bytes = sample(v);
            bytes[FIRST_PAYLOAD] ^= 0x01;
            assert!(matches!(
                SnapshotReader::from_bytes(&bytes, VERSION).unwrap_err(),
                SnapshotError::UnsupportedVersion { found, .. } if found == v
            ));
            // The same corruption in the read version is a checksum error.
            bytes[8..10].copy_from_slice(&VERSION.to_le_bytes());
            assert!(matches!(
                SnapshotReader::from_bytes(&bytes, VERSION).unwrap_err(),
                SnapshotError::ChecksumMismatch
            ));
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample(VERSION);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapshotReader::from_bytes(&bytes, VERSION).unwrap_err(),
            SnapshotError::BadMagic
        ));
        // A totally unrelated file is also "bad magic", not a panic.
        assert!(matches!(
            SnapshotReader::from_bytes(b"hello world, not a snapshot", VERSION).unwrap_err(),
            SnapshotError::BadMagic
        ));
    }

    #[test]
    fn every_bitflip_after_the_version_is_detected() {
        // The checksum itself, the section lengths and the payload bytes.
        let bytes = sample(VERSION);
        for i in CHECK_AT..bytes.len() {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[i] ^= 1 << bit;
                assert!(
                    matches!(
                        SnapshotReader::from_bytes(&b, VERSION).unwrap_err(),
                        SnapshotError::ChecksumMismatch
                    ),
                    "flip of bit {bit} at byte {i} undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_point_errors_not_panics() {
        let bytes = sample(VERSION);
        for cut in 0..bytes.len() {
            let err = SnapshotReader::from_bytes(&bytes[..cut], VERSION)
                .expect_err("truncated snapshot must not parse");
            assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic
                        | SnapshotError::Truncated { .. }
                        | SnapshotError::ChecksumMismatch
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        // Appended to a sealed file: the checksum no longer holds.
        let mut bytes = sample(VERSION);
        bytes.push(0xAB);
        assert!(matches!(
            SnapshotReader::from_bytes(&bytes, VERSION).unwrap_err(),
            SnapshotError::ChecksumMismatch
        ));
        // Sealed with the file: they are too few for a section's length,
        // and the reader refuses them after the last section.
        let mut w = SnapshotWriter::new(VERSION);
        w.section(|p| p.u8(1));
        w.out.bytes(&[0xAB, 0xCD, 0xEF]);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::from_bytes(&bytes, VERSION).unwrap();
        assert_eq!(r.next_section("a").unwrap().u8().unwrap(), 1);
        assert!(matches!(
            r.next_section("b").unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
        let mut r = SnapshotReader::from_bytes(&bytes, VERSION).unwrap();
        r.next_section("a").unwrap();
        let err = r.finish().unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("3 trailing bytes"), "{err}");
    }

    #[test]
    fn huge_length_prefix_cannot_allocate() {
        // A payload claiming 2^60 values — or one value more than the
        // bytes that follow hold — must fail the bounds check before any
        // allocation happens: an array, a string, or a section under a
        // valid checksum.
        let truncated = |e: SnapshotError| matches!(e, SnapshotError::Truncated { .. });
        for claimed in [1u64 << 60, u64::MAX, 3] {
            let mut w = ByteWriter::new();
            w.u64(claimed);
            w.bytes(&[0u8; 2 * 8 + 7]);
            let payload = w.into_inner();
            let r = || ByteReader::new(&payload, "test");
            assert!(truncated(r().u64_vec().unwrap_err()), "u64 × {claimed}");
            assert!(truncated(r().f64_vec().unwrap_err()), "f64 × {claimed}");
        }
        for claimed in [u64::MAX, 1 << 60, 24] {
            let mut sealed = SnapshotWriter::new(VERSION);
            sealed.out.u64(claimed);
            sealed.out.bytes(&[0u8; 23]);
            let file = sealed.into_bytes();
            let mut r = SnapshotReader::from_bytes(&file, VERSION).unwrap();
            let err = r.next_section("test").unwrap_err();
            assert!(truncated(err), "section of {claimed}");
        }
        for claimed in [u32::MAX, 4] {
            let mut w = ByteWriter::new();
            w.u32(claimed);
            w.bytes(b"abc");
            let payload = w.into_inner();
            let err = ByteReader::new(&payload, "test").str().unwrap_err();
            assert!(truncated(err), "string of {claimed}");
        }
    }

    /// The per-element slice codec: one `extend_from_slice` of 8 bytes
    /// per value out, one bounds-checked read per value in — the
    /// oracle the bulk codec must match byte for byte and value for value.
    mod per_element {
        use super::*;

        pub fn write<T: Copy>(w: &mut ByteWriter, v: &[T], put: impl Fn(&mut ByteWriter, T)) {
            w.u64(v.len() as u64);
            for &x in v {
                put(w, x);
            }
        }

        pub fn read<'a, T>(
            r: &mut ByteReader<'a>,
            get: impl Fn(&mut ByteReader<'a>) -> Result<T, SnapshotError>,
        ) -> Result<Vec<T>, SnapshotError> {
            let n = r.len_prefix(8)?;
            (0..n).map(|_| get(r)).collect()
        }
    }

    #[test]
    fn bulk_slice_codec_matches_the_per_element_oracle() {
        // Every length up to past the sixteenth chunk boundary (under Miri:
        // the three lengths around each boundary only).
        let lengths = (0..=1030).filter(|n| !cfg!(miri) || (n + 1) % SLICE_CHUNK <= 2);
        assert_eq!(1030 / SLICE_CHUNK, 16);
        let mut next = stream(20);
        // Values a lossy codec would change: extremes, both zeros, NaNs
        // with payloads, and noise.
        let special = [
            0,
            u64::MAX,
            1 << 63,
            (-0.0f64).to_bits(),
            f64::NAN.to_bits(),
            f64::NAN.to_bits() | 0xdead_beef,
            f64::INFINITY.to_bits(),
            0x7ff0_0000_0000_0001, // a signalling NaN
        ];
        for n in lengths {
            let words: Vec<u64> = (0..n)
                .map(|i| match next() % 4 {
                    0 => special[i % special.len()],
                    _ => next(),
                })
                .collect();
            let floats: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();

            let mut bulk = ByteWriter::new();
            bulk.u64_slice(&words);
            bulk.f64_slice(&floats);
            bulk.u8(0x5a);
            let bulk = bulk.into_inner();
            let mut oracle = ByteWriter::new();
            per_element::write(&mut oracle, &words, ByteWriter::u64);
            per_element::write(&mut oracle, &floats, ByteWriter::f64);
            oracle.u8(0x5a);
            assert_eq!(bulk, oracle.into_inner(), "bytes at length {n}");

            let mut r = ByteReader::new(&bulk, "bulk");
            let mut o = ByteReader::new(&bulk, "oracle");
            assert_eq!(
                r.u64_vec().unwrap(),
                per_element::read(&mut o, ByteReader::u64).unwrap()
            );
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let got = bits(r.f64_vec().unwrap());
            assert_eq!(
                got,
                bits(per_element::read(&mut o, ByteReader::f64).unwrap())
            );
            assert_eq!(got, words, "f64 bit patterns at length {n}");
            assert_eq!((r.u8().unwrap(), o.u8().unwrap()), (0x5a, 0x5a));
            r.finish().unwrap();
        }
    }

    #[test]
    fn primitive_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(65_000);
        w.u32(4_000_000_000);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo");
        w.u64_slice(&[1, 2, 3]);
        w.f64_slice(&[1.5, f64::INFINITY]);
        w.bytes(&[0xAA, 0xBB]);
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.f64_vec().unwrap(), vec![1.5, f64::INFINITY]);
        assert_eq!(r.bytes(2).unwrap(), [0xAA, 0xBB]);
        r.finish().expect("fully consumed");
    }

    #[test]
    fn unread_bytes_are_flagged() {
        let mut w = ByteWriter::new();
        w.u64(1);
        w.u8(2);
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf, "test");
        r.u64().unwrap();
        assert!(matches!(
            r.finish().unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }

    #[test]
    fn file_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join("gb_store_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.gb");
        let mut w = SnapshotWriter::new(VERSION);
        w.section(|p| p.bytes(&[42; 1000]));
        write_atomic(&path, &w.into_bytes()).expect("write");
        // No temp file left behind.
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp-gbsnap")
            })
            .count();
        assert_eq!(leftovers, 0, "temp files left behind");
        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(sections(&bytes), [&[42; 1000][..]]);
        // Concurrent saves to the same path must not corrupt it: each
        // writer uses its own temp file, the last rename wins.
        std::thread::scope(|s| {
            for fill in 0u8..4 {
                let path = &path;
                s.spawn(move || {
                    let mut w = SnapshotWriter::new(VERSION);
                    w.section(|p| p.bytes(&[fill; 4096]));
                    write_atomic(path, &w.into_bytes()).expect("concurrent write");
                });
            }
        });
        let bytes = std::fs::read(&path).expect("read");
        let [payload] = sections(&bytes)[..] else {
            panic!("one section after racing saves");
        };
        assert_eq!(payload.len(), 4096);
        assert!(
            payload.windows(2).all(|w| w[0] == w[1]),
            "interleaved bytes"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_path_is_io_error() {
        let w = SnapshotWriter::new(VERSION);
        let err =
            write_atomic(Path::new("/nonexistent/geoblocks.snap"), &w.into_bytes()).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
        assert!(err.to_string().contains("i/o"));
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn wordsum_vectors() {
        // Computed independently (a dozen lines of Python from the doc
        // comment's definition): the bytes 1, 2, …, n for n = 0..=9 — no
        // word, a tail only, exactly one word, a word and a tail — and a
        // 1 KiB pattern.
        let want: [u64; 10] = [
            0xf1c2_6704_fc5d_c964,
            0x258b_b19e_ae8c_99e1,
            0x5445_d3e9_6e71_0ef6,
            0x003a_cb70_130f_44d7,
            0x1262_518d_8737_bdac,
            0xd834_3133_24eb_11ad,
            0xb462_16a8_a4d1_4024,
            0x7807_989e_164a_882b,
            0x4938_6a3f_df6e_ac0d,
            0xf813_9dd6_9f96_010c,
        ];
        let bytes: Vec<u8> = (1..=9).collect();
        for (n, &sum) in want.iter().enumerate() {
            assert_eq!(wordsum64(&bytes[..n]), sum, "{n} bytes");
        }
        let pattern: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(wordsum64(&pattern), 0x9965_4d6e_0686_94cf);
        // A zero-padded tail is not the same payload as real zeros.
        assert_ne!(wordsum64(&[7, 0, 0]), wordsum64(&[7, 0, 0, 0]));
        assert_ne!(wordsum64(&[]), wordsum64(&[0; 8]));
    }

    #[test]
    fn no_pair_of_bit63_flips_cancels() {
        // Word-wise FNV-1a without the rotate passes every single-flip
        // test and fails this one: a flip of a word's top bit moves its
        // state by 2^63 for good, and a second one moves it back.
        let unrotated = |bytes: &[u8]| {
            let (words, _) = bytes.as_chunks::<8>();
            words.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
                (h ^ u64::from_le_bytes(w)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let mut next = stream(63);
        let payload: Vec<u8> = (0..24 * 8).map(|_| next() as u8).collect();
        let sum = wordsum64(&payload);
        let mut cancelled_without_rotate = 0usize;
        for i in 0..24 {
            for j in i + 1..24 {
                let mut m = payload.clone();
                m[8 * i + 7] ^= 0x80;
                m[8 * j + 7] ^= 0x80;
                assert_ne!(wordsum64(&m), sum, "flips in words {i} and {j} cancel");
                cancelled_without_rotate += usize::from(unrotated(&m) == unrotated(&payload));
            }
        }
        assert_eq!(cancelled_without_rotate, 24 * 23 / 2);
    }
}
