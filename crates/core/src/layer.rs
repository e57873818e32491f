//! One layer of cell-aggregate records — the only spelling of the record
//! columns in this crate.
//!
//! A [`GeoBlock`](crate::GeoBlock) holds a [`Layer`] for its block level
//! and for every even level above it, down from the root (§3.4 "aggregate
//! granularity", turned from a build-time choice into a query-time
//! structure). The finest layer is the block's stored state: the records
//! every producer writes and the snapshot persists. Every coarser layer is
//! derived from it and holds one precomputed record per non-empty cell of
//! its level. The one read of a layer is `Layer::under`: the run of
//! records under an aligned cell, found by two cursor-resumed gallops. A
//! grid-aligned covering cell — block-level boundary cell or coarse
//! interior cell — is its own record in the layer of its level, where a
//! range scan pays up to 4^Δ block-level records; a cell of an odd level
//! above the block level has no layer, and is its ≤ 4 children's records
//! in the layer one level finer, always kept. A query combines the records
//! it reads as they are stored: it folds nothing.
//!
//! A coarser layer is defined as the *in-order fold* of the next finer one
//! (`Layer::fold_to` one level up, the canonical fold): each record folds
//! its at most four non-empty children in key order, so the levels form
//! one fold tree whose root record is the block's global header. That
//! cascade is the only fold of records into records.
//! [`GeoBlock::coarsen`](crate::GeoBlock::coarsen) hands out a level of
//! that tree as a block of its own, and its layers are the tree's too. A
//! stored record is bit-identical to folding the same tree from the
//! block-level records into fresh accumulators, floating-point association
//! included — what [`crate::reference`] does — and that is what lets the
//! query tests assert exact (`approx_eq` at `0.0`) agreement with it.
//!
//! Each level needs the next finer one, so `GeoBlock::refresh_derived`
//! folds them one after another on the calling thread.
//!
//! A record is stored as one of two kinds, by its count alone: a record of
//! one tuple is a *single* and keeps that tuple's one value per column,
//! every other record keeps its minima, maxima and sums. A sum starts at
//! `-0.0`, IEEE's additive identity, so one finite tuple's min, max and sum
//! are its value bit for bit and the count is the whole rule. The marks
//! and rank that find a record's slot are derived from the counts
//! (`Layer::index`) and never stored, so they cannot disagree with them.

// The record layout under every query and update.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use crate::aggregate::RecordRef;
use crate::gallop;
use gb_cell::CellId;
use gb_common::FxHasher;
use gb_store::{ByteReader, ByteWriter, SnapshotError};
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Records per word of [`Layer`]'s marks, and per entry of its rank.
const WORD: usize = 64;

/// Cell aggregates at a single level, struct-of-arrays, sorted by key: per
/// non-empty cell its id, its tuple count and per-column min/max/sum (§3.4)
/// — aggregates only, no link back to the tuples they came from.
///
/// A record comes in one of two kinds, by its count alone: a *single*
/// holds one tuple and keeps that tuple's one value per column in
/// `singles`; every other record is *full* and keeps its minima, maxima
/// and sums in `mins`, `maxs` and `sums`. One tuple's fold is its value in
/// min, max and sum alike, because a sum starts at `-0.0` (see
/// [`Record::empty`]). `marks` flags the singles and `rank` counts them
/// per 64 records, both derived from `counts` by [`Layer::index`] and never
/// stored, so a record's slot in either kind's arrays is one lookup and
/// one popcount away. Keys and counts stay one entry per record, so no
/// read of those sees the split.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// The cell level of this layer.
    pub(crate) level: u8,
    /// Attribute columns per record.
    pub(crate) n_cols: usize,
    /// Cell ids (raw) at `level`, ascending.
    pub(crate) keys: Vec<u64>,
    /// Tuples per cell.
    pub(crate) counts: Vec<u64>,
    /// Bit `i % 64` of word `i / 64` is set iff `counts[i]` is 1; the bits
    /// past the last record are clear. Derived from `counts`.
    marks: Vec<u64>,
    /// Per word `w` of `marks`: the singles among records `0..64·w`.
    /// Derived from `marks`.
    rank: Vec<u32>,
    /// The singles' values, flattened `single × column`.
    pub(crate) singles: Vec<f64>,
    /// Per-column minima of the full records, flattened `full × column`.
    pub(crate) mins: Vec<f64>,
    /// Per-column maxima of the full records, flattened `full × column`.
    pub(crate) maxs: Vec<f64>,
    /// Per-column sums of the full records, flattened `full × column`.
    pub(crate) sums: Vec<f64>,
}

impl Layer {
    /// An empty layer with room for `cells` records, `singles` of them
    /// singles.
    pub(crate) fn with_capacity(level: u8, n_cols: usize, cells: usize, singles: usize) -> Layer {
        let (words, full) = (cells.div_ceil(WORD), cells.saturating_sub(singles) * n_cols);
        Layer {
            level,
            n_cols,
            keys: Vec::with_capacity(cells),
            counts: Vec::with_capacity(cells),
            marks: Vec::with_capacity(words),
            rank: Vec::with_capacity(words),
            singles: Vec::with_capacity(singles * n_cols),
            mins: Vec::with_capacity(full),
            maxs: Vec::with_capacity(full),
            sums: Vec::with_capacity(full),
        }
    }

    /// A layer of `cells` all-zero records, `singles` of them singles, for
    /// a producer that writes every one of them in place and then calls
    /// [`Layer::index`] from 0.
    pub(crate) fn zeroed(level: u8, n_cols: usize, cells: usize, singles: usize) -> Layer {
        let (words, full) = (cells.div_ceil(WORD), (cells - singles) * n_cols);
        Layer {
            level,
            n_cols,
            keys: vec![0; cells],
            counts: vec![0; cells],
            marks: Vec::with_capacity(words),
            rank: Vec::with_capacity(words),
            singles: vec![0.0; singles * n_cols],
            mins: vec![0.0; full],
            maxs: vec![0.0; full],
            sums: vec![0.0; full],
        }
    }

    /// Derive the marks and the rank of records `from..`, whose counts are
    /// in and which no mark covers yet: the one place either is written.
    /// Wrapping, so untrusted counts cannot panic here.
    pub(crate) fn index(&mut self, from: usize) {
        debug_assert_eq!(self.marks.len(), from.div_ceil(WORD));
        let mut i = from;
        while i < self.counts.len() {
            let (w, bit) = (i / WORD, i % WORD);
            if bit == 0 {
                let before = match w.checked_sub(1) {
                    Some(last) => self.rank[last].wrapping_add(self.marks[last].count_ones()),
                    None => 0,
                };
                self.rank.push(before);
                self.marks.push(0);
            }
            let end = self.counts.len().min((w + 1) * WORD);
            let ones = (self.counts[i..end].iter().enumerate())
                .fold(0, |word, (j, &count)| word | u64::from(count == 1) << j);
            self.marks[w] |= ones << bit;
            i = end;
        }
    }

    /// Number of non-empty cells in this layer.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.keys.len()
    }

    /// Number of singles: records of one tuple, stored as one value per
    /// column.
    pub fn num_singles(&self) -> usize {
        self.singles_before(self.keys.len())
    }

    /// Bytes of one full record: key (8) + count (8) + 3 × 8 per column.
    #[inline]
    pub(crate) fn record_bytes(&self) -> usize {
        16 + 24 * self.n_cols
    }

    /// Heap bytes of the records: keys, counts, both kinds' values, the
    /// marks and their rank.
    pub(crate) fn memory_bytes(&self) -> usize {
        8 * (self.stored_words() + self.marks.len()) + 4 * self.rank.len()
    }

    /// The 8-byte words of every stored array: keys, counts and values.
    fn stored_words(&self) -> usize {
        let values = self.singles.len() + self.mins.len() + self.maxs.len() + self.sums.len();
        self.keys.len() + self.counts.len() + values
    }

    /// Is record `i` a single?
    #[inline]
    fn is_marked(&self, i: usize) -> bool {
        self.marks[i / WORD] >> (i % WORD) & 1 == 1
    }

    /// The singles among records `0..i`: the rank of `i`.
    #[inline]
    fn singles_before(&self, i: usize) -> usize {
        let (w, bit) = (i / WORD, i % WORD);
        match (self.rank.get(w), self.marks.get(w)) {
            (Some(&before), Some(&word)) => {
                before as usize + (word & ((1u64 << bit) - 1)).count_ones() as usize
            }
            // `i` starts a word no record reaches yet: every word before
            // it is whole.
            _ => w.checked_sub(1).map_or(0, |last| {
                self.rank[last] as usize + self.marks[last].count_ones() as usize
            }),
        }
    }

    /// Record `i`, of which `before` singles precede it, a single iff
    /// `single`.
    #[inline]
    fn record_at(&self, i: usize, before: usize, single: bool) -> RecordRef<'_> {
        let c = self.n_cols;
        if single {
            let one = &self.singles[before * c..(before + 1) * c];
            RecordRef {
                count: self.counts[i],
                mins: one,
                maxs: one,
                sums: one,
            }
        } else {
            let slot = i - before;
            let cols = slot * c..(slot + 1) * c;
            RecordRef {
                count: self.counts[i],
                mins: &self.mins[cols.clone()],
                maxs: &self.maxs[cols.clone()],
                sums: &self.sums[cols],
            }
        }
    }

    /// Record `i`. A single reads as its one value per column, which is
    /// its min, its max and its sum.
    #[inline]
    pub(crate) fn record(&self, i: usize) -> RecordRef<'_> {
        self.record_at(i, self.singles_before(i), self.is_marked(i))
    }

    /// Records `range`, in key order: one rank for the range's first
    /// record, then one step per record.
    #[inline]
    pub(crate) fn records(&self, range: Range<usize>) -> impl Iterator<Item = RecordRef<'_>> + '_ {
        let mut before = self.singles_before(range.start);
        range.map(move |i| {
            let single = self.is_marked(i);
            let record = self.record_at(i, before, single);
            before += usize::from(single);
            record
        })
    }

    /// The records under the aligned `cell`, which must be at or above
    /// this layer's level: gallop from `cursor` to its first leaf, then
    /// to its last (O(log gap) each, see [`crate::gallop`]), leaving the
    /// cursor at the end. A cell of the layer's level gets its own record
    /// or nothing; a coarser one, the run of its descendants. The cursor
    /// must not lie past the range's start, so the cells asked for per
    /// cursor must ascend and be disjoint; a caller without such an order
    /// passes a fresh `0` per lookup.
    #[inline]
    pub(crate) fn under(&self, cell: CellId, cursor: &mut usize) -> Range<usize> {
        debug_assert!(cell.level() <= self.level);
        let start = gallop::lower_bound_from(&self.keys, cell.range_min().raw(), *cursor);
        *cursor = gallop::upper_bound_from(&self.keys, cell.range_max().raw(), start);
        start..*cursor
    }

    /// Append record `key` with `record`'s aggregates, as a single when it
    /// holds one tuple: the one place a producer's record enters a layer.
    /// `key` must exceed every key in the layer.
    #[inline]
    pub(crate) fn push(&mut self, key: u64, record: RecordRef<'_>) {
        debug_assert!(self.keys.last() < Some(&key), "keys must ascend");
        let i = self.keys.len();
        self.keys.push(key);
        self.counts.push(record.count);
        if record.count == 1 {
            debug_assert!(
                [record.mins, record.maxs].iter().all(|part| {
                    (part.iter().zip(record.sums)).all(|(v, sum)| v.to_bits() == sum.to_bits())
                }),
                "one tuple's fold is its value"
            );
            self.singles.extend_from_slice(record.sums);
        } else {
            self.mins.extend_from_slice(record.mins);
            self.maxs.extend_from_slice(record.maxs);
            self.sums.extend_from_slice(record.sums);
        }
        self.index(i);
    }

    /// Append records `range` of `other`, whose keys must all exceed every
    /// key in this layer: each kind's values as one slice.
    pub(crate) fn extend_from(&mut self, other: &Layer, range: Range<usize>) {
        debug_assert!((self.level, self.n_cols) == (other.level, other.n_cols));
        debug_assert!(
            range.is_empty() || self.keys.last() < other.keys.get(range.start),
            "appended records must keep the keys ascending"
        );
        let c = self.n_cols;
        let (first, last) = (
            other.singles_before(range.start),
            other.singles_before(range.end),
        );
        let full = (range.start - first) * c..(range.end - last) * c;
        let from = self.keys.len();
        self.keys.extend_from_slice(&other.keys[range.clone()]);
        self.counts.extend_from_slice(&other.counts[range]);
        self.singles
            .extend_from_slice(&other.singles[first * c..last * c]);
        self.mins.extend_from_slice(&other.mins[full.clone()]);
        self.maxs.extend_from_slice(&other.maxs[full.clone()]);
        self.sums.extend_from_slice(&other.sums[full]);
        self.index(from);
    }

    /// Append the canonical record of the cell at this layer's level that
    /// holds the `n` records `records` yields next, which must all lie
    /// under it: one record is itself, otherwise the first seeds `acc` and
    /// the others fold in in key order — [`Layer::fold_to`]'s step per
    /// group, which is never empty.
    fn push_fold<'a>(
        &mut self,
        key: u64,
        records: &mut impl Iterator<Item = RecordRef<'a>>,
        n: usize,
        acc: &mut Record,
    ) {
        let Some(first) = records.next() else {
            return;
        };
        if n == 1 {
            self.push(key, first);
            return;
        }
        acc.set(first);
        for record in records.take(n - 1) {
            acc.merge(record);
        }
        self.push(key, acc.as_ref());
    }

    /// The canonical fold: the records of this layer's cells folded in key
    /// order into their ancestors at `level`, one [`Layer::push_fold`] per
    /// ancestor. One level up, this is the cascade's step. The groups are
    /// counted first, singles apart — a group is a single iff it is one
    /// record of one tuple — so the layer is allocated once at its exact
    /// size.
    pub(crate) fn fold_to(&self, level: u8) -> Layer {
        debug_assert!(level <= self.level);
        let (mut cells, mut singles) = (0, 0);
        for group in self.groups(level) {
            cells += 1;
            singles += usize::from(group.len() == 1 && self.counts[group.start] == 1);
        }
        let mut out = Layer::with_capacity(level, self.n_cols, cells, singles);
        let mut acc = Record::empty(self.n_cols);
        // One walk over the records: the groups are consecutive.
        let mut records = self.records(0..self.num_cells());
        for group in self.groups(level) {
            let key = CellId::raw_parent_at(self.keys[group.start], level);
            out.push_fold(key, &mut records, group.len(), &mut acc);
        }
        debug_assert_eq!(
            out.num_singles(),
            singles,
            "the count pass and the fold agree"
        );
        out
    }

    /// The runs of records that share an ancestor at `level`, in key order.
    fn groups(&self, level: u8) -> impl Iterator<Item = Range<usize>> + '_ {
        let keys = &self.keys;
        // Sentinel bit of `level`: `parent + (lsb − 1)` is the raw id of
        // the group's last descendant leaf (`CellId::range_max`, hoisted
        // to pure arithmetic for the hot loop).
        let lsb = 1u64 << (2 * u64::from(gb_cell::MAX_LEVEL - level));
        let mut i = 0usize;
        std::iter::from_fn(move || {
            let first = *keys.get(i)?;
            let hi = CellId::raw_parent_at(first, level) + (lsb - 1);
            let start = i;
            i += 1;
            while keys.get(i).is_some_and(|&k| k <= hi) {
                i += 1;
            }
            Some(start..i)
        })
    }

    /// A digest over the level and every logical record (floats by bit
    /// pattern, so NaN payloads and signed zeros count): the keys, the
    /// counts, then every record's minima, maxima and sums in record
    /// order, a single's one value standing for all three. Equal digests
    /// mean bit-identical records, however they are stored.
    pub fn content_hash(&self) -> u64 {
        let mut h = FxHasher::default();
        self.level.hash(&mut h);
        self.keys.hash(&mut h);
        self.counts.hash(&mut h);
        for part in 0..3 {
            for record in self.records(0..self.num_cells()) {
                for v in [record.mins, record.maxs, record.sums][part] {
                    v.to_bits().hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Check every invariant of the arrays without panicking: one count
    /// per key, the singles' values the count-1 records × columns and the
    /// full arrays the other records × columns, keys well-formed cell ids
    /// of this layer's level in strictly ascending order, and no record
    /// empty. The gate for untrusted input (snapshot loads) before any
    /// fold or query touches the layer.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let (n, c) = (self.keys.len(), self.n_cols);
        if self.counts.len() != n {
            return Err(format!("{n} keys but {} counts", self.counts.len()));
        }
        if u32::try_from(n).is_err() {
            return Err(format!("{n} records exceed the rank's u32"));
        }
        let singles = self.num_singles();
        if self.singles.len() != singles * c {
            return Err(format!(
                "singles must hold count-1 cells × columns = {} values, found {}",
                singles * c,
                self.singles.len()
            ));
        }
        let full = (n - singles) * c;
        if self.mins.len() != full || self.maxs.len() != full || self.sums.len() != full {
            return Err(format!(
                "aggregate arrays must hold the other cells × columns = {full} values"
            ));
        }
        if self.level > gb_cell::MAX_LEVEL {
            return Err(format!("level {} exceeds MAX_LEVEL", self.level));
        }
        if !self.keys.is_sorted_by(|a, b| a < b) {
            return Err("cell keys not strictly ascending".into());
        }
        for (i, (&k, &count)) in self.keys.iter().zip(&self.counts).enumerate() {
            let cell = CellId::try_from_raw(k)
                .ok_or_else(|| format!("malformed cell id {k:#x} at index {i}"))?;
            if cell.level() != self.level {
                return Err(format!(
                    "cell {i} at level {}, layer level is {}",
                    cell.level(),
                    self.level
                ));
            }
            if count == 0 {
                return Err(format!("empty cell stored at index {i}"));
            }
        }
        Ok(())
    }

    /// Serialize the arrays (the snapshot's `CELL` payload): keys, counts,
    /// singles, then the full records' minima, maxima and sums.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.u64_slice(&self.keys);
        w.u64_slice(&self.counts);
        w.f64_slice(&self.singles);
        w.f64_slice(&self.mins);
        w.f64_slice(&self.maxs);
        w.f64_slice(&self.sums);
    }

    /// Bytes [`Layer::encode`] writes: six length-prefixed arrays.
    pub(crate) fn encoded_bytes(&self) -> usize {
        8 * (6 + self.stored_words())
    }

    /// Decode what [`Layer::encode`] wrote, its marks and rank derived from
    /// the counts. The result is untrusted until [`Layer::validate`] has
    /// passed.
    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        level: u8,
        n_cols: usize,
    ) -> Result<Layer, SnapshotError> {
        let (keys, counts) = (r.u64_vec()?, r.u64_vec()?);
        let words = counts.len().div_ceil(WORD);
        let mut out = Layer {
            level,
            n_cols,
            keys,
            counts,
            marks: Vec::with_capacity(words),
            rank: Vec::with_capacity(words),
            singles: r.f64_vec()?,
            mins: r.f64_vec()?,
            maxs: r.f64_vec()?,
            sums: r.f64_vec()?,
        };
        out.index(0);
        Ok(out)
    }
}

/// One record outside a layer — count, then minima, maxima and sums, one
/// per column — folded in place before [`Layer::push`] stores it as the
/// kind it turns out to be.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Record {
    count: u64,
    /// Minima, maxima, sums, `n_cols` each.
    values: Vec<f64>,
}

impl Record {
    /// The record of a cell no tuple has reached yet: count 0 and every
    /// column at `(+∞, −∞, −0.0)`, the start of [`Record::add_tuple`]'s
    /// fold. A block never stores it. The sum starts at `-0.0`, the
    /// additive identity (`x + -0.0` is `x` bit for bit, `±0.0` included),
    /// so one finite tuple's fold holds its value in min, max and sum
    /// alike: a record of one tuple is a single by its count alone.
    pub(crate) fn empty(n_cols: usize) -> Record {
        let mut values = vec![f64::INFINITY; n_cols];
        values.resize(2 * n_cols, f64::NEG_INFINITY);
        values.resize(3 * n_cols, -0.0);
        Record { count: 0, values }
    }

    /// A copy of `record`.
    pub(crate) fn of(record: RecordRef<'_>) -> Record {
        let mut out = Record {
            count: 0,
            values: Vec::with_capacity(3 * record.sums.len()),
        };
        out.set(record);
        out
    }

    /// Become a copy of `record`, which has as many columns.
    fn set(&mut self, record: RecordRef<'_>) {
        self.count = record.count;
        self.values.clear();
        for part in [record.mins, record.maxs, record.sums] {
            self.values.extend_from_slice(part);
        }
    }

    /// Fold `record` in after what this record holds: [`Layer::fold_to`]'s
    /// step.
    fn merge(&mut self, record: RecordRef<'_>) {
        self.count += record.count;
        let c = record.sums.len();
        let (mins, rest) = self.values.split_at_mut(c);
        let (maxs, sums) = rest.split_at_mut(c);
        for col in 0..c {
            mins[col] = mins[col].min(record.mins[col]);
            maxs[col] = maxs[col].max(record.maxs[col]);
            sums[col] += record.sums[col];
        }
    }

    /// Fold one tuple, `value_of(col)` per column, in after what this
    /// record holds: the per-tuple step of every producer.
    #[inline]
    pub(crate) fn add_tuple(&mut self, value_of: impl Fn(usize) -> f64) {
        self.count += 1;
        let c = self.values.len() / 3;
        let (mins, rest) = self.values.split_at_mut(c);
        let (maxs, sums) = rest.split_at_mut(c);
        for col in 0..c {
            fold_value(
                &mut mins[col],
                &mut maxs[col],
                &mut sums[col],
                value_of(col),
            );
        }
    }

    /// This record, borrowed.
    pub(crate) fn as_ref(&self) -> RecordRef<'_> {
        let c = self.values.len() / 3;
        let (mins, rest) = self.values.split_at(c);
        let (maxs, sums) = rest.split_at(c);
        RecordRef {
            count: self.count,
            mins,
            maxs,
            sums,
        }
    }
}

/// One value into a column's `(min, max, sum)`: the records' per-tuple
/// fold, from `(+∞, −∞, −0.0)`. `v < min` and `v > max` keep the first of
/// equal values (`0.0` and `-0.0` among them), where `f64::min` / `max`
/// may pick either.
#[inline]
fn fold_value(min: &mut f64, max: &mut f64, sum: &mut f64, v: f64) {
    if v < *min {
        *min = v;
    }
    if v > *max {
        *max = v;
    }
    *sum += v;
}

/// One column of a fresh record: `values`, one per tuple in tuple order,
/// folded into `(min, max, sum)` by the steps [`Record::empty`] and one
/// [`Record::add_tuple`] per value take, so bit for bit the same.
#[inline]
pub(crate) fn fold_column(values: impl Iterator<Item = f64>) -> (f64, f64, f64) {
    let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, -0.0);
    for v in values {
        fold_value(&mut min, &mut max, &mut sum, v);
    }
    (min, max, sum)
}

/// The digest [`Layer::content_hash`] had while every record was stored
/// full, computed from that layout: the level, the keys, the counts, then
/// the flattened minima, maxima and sums of every record in turn.
#[cfg(test)]
pub(crate) fn full_layout_hash(layer: &Layer) -> u64 {
    let records: Vec<RecordRef<'_>> = (0..layer.num_cells()).map(|i| layer.record(i)).collect();
    let flat = |part: fn(&RecordRef<'_>) -> Vec<f64>| -> Vec<f64> {
        records.iter().flat_map(part).collect()
    };
    let (mins, maxs, sums) = (
        flat(|r| r.mins.to_vec()),
        flat(|r| r.maxs.to_vec()),
        flat(|r| r.sums.to_vec()),
    );
    let mut h = FxHasher::default();
    layer.level.hash(&mut h);
    layer.keys.hash(&mut h);
    layer.counts.hash(&mut h);
    for values in [&mins, &maxs, &sums] {
        for v in values {
            v.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The record of one tuple of `values`.
    fn tuple(values: &[f64]) -> Record {
        let mut r = Record::empty(values.len());
        r.add_tuple(|col| values[col]);
        r
    }

    /// Level-2 cells `children` of the level-1 cell `quadrant`, one tuple
    /// of value `10·quadrant + child` each: all singles.
    fn layer(cells: &[(u8, u8)]) -> Layer {
        let mut out = Layer::with_capacity(2, 1, cells.len(), cells.len());
        for &(quadrant, child) in cells {
            let key = CellId::ROOT.child(quadrant).child(child).raw();
            out.push(key, tuple(&[f64::from(10 * quadrant + child)]).as_ref());
        }
        out
    }

    #[test]
    fn valid_layer_passes() {
        let l = layer(&[(0, 1), (0, 3), (2, 0)]);
        assert_eq!(l.validate(), Ok(()));
        assert_eq!(l.num_singles(), 3);
        // Keys, counts and one value per single; one mark word and its rank.
        assert_eq!(l.memory_bytes(), 3 * (8 + 8 + 8) + 8 + 4);
    }

    /// `l` with its marks and rank derived again, as a load derives them
    /// from the counts it reads.
    fn reindexed(mut l: Layer) -> Layer {
        (l.marks, l.rank) = (Vec::new(), Vec::new());
        l.index(0);
        l
    }

    #[test]
    fn a_record_is_a_single_by_its_count() {
        let bits = |r: RecordRef<'_>| {
            let all = [r.mins, r.maxs, r.sums].concat();
            (r.count, all.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        // One tuple's fold is its value in min, max and sum alike, signed
        // zeros and infinities included.
        let one_tuple = [
            [1.5, -2.0],
            [0.0, 7.0],
            [1.5, -0.0],
            [-0.0, 0.0],
            [f64::INFINITY, f64::NEG_INFINITY],
        ];
        let mut l = Layer::with_capacity(2, 2, 0, 0);
        for (i, values) in one_tuple.iter().enumerate() {
            let record = tuple(values);
            let r = record.as_ref();
            for (col, want) in values.iter().enumerate() {
                let got = [r.min(col), r.max(col), r.sum(col)].map(f64::to_bits);
                assert_eq!(got, [want.to_bits(); 3], "{values:?}");
            }
            let key = CellId::ROOT.child(i as u8 / 4).child(i as u8 % 4).raw();
            l.push(key, r);
            assert!(l.is_marked(i), "case {i}");
            assert_eq!(bits(l.record(i)), bits(r), "case {i}");
        }
        let mut two = tuple(&[1.5, 2.0]);
        two.add_tuple(|_| 3.0);
        l.push(CellId::ROOT.child(3).child(0).raw(), two.as_ref());
        assert!(!l.is_marked(one_tuple.len()));
        assert_eq!(bits(l.record(one_tuple.len())), bits(two.as_ref()));
        assert_eq!((l.num_singles(), l.validate()), (one_tuple.len(), Ok(())));
        assert_eq!(reindexed(l.clone()), l);
    }

    #[test]
    fn a_negative_zero_tuple_is_a_single_that_reads_negative_zero() {
        let mut l = Layer::with_capacity(2, 1, 1, 1);
        l.push(
            CellId::ROOT.child(0).child(1).raw(),
            tuple(&[-0.0]).as_ref(),
        );
        assert_eq!((l.num_singles(), l.singles.len(), l.sums.len()), (1, 1, 0));
        let r = l.record(0);
        assert_eq!(
            [r.min(0), r.max(0), r.sum(0)].map(f64::to_bits),
            [(-0.0f64).to_bits(); 3]
        );
    }

    #[test]
    fn validate_rejects_array_lengths_that_disagree_with_the_counts() {
        let mut l = layer(&[(0, 1), (0, 3)]);
        l.counts.pop();
        assert!(l.validate().unwrap_err().contains("counts"));
        let mut l = layer(&[(0, 1), (0, 3)]);
        l.singles.pop();
        assert!(l
            .validate()
            .unwrap_err()
            .contains("count-1 cells × columns"));
        let mut l = layer(&[(0, 1), (0, 3)]);
        l.sums.push(1.0);
        assert!(l.validate().unwrap_err().contains("other cells × columns"));
        // A count flipped from 1 to 2, the arrays unchanged.
        let mut l = layer(&[(0, 1), (0, 3)]);
        l.counts[1] = 2;
        let err = reindexed(l).validate().unwrap_err();
        assert!(err.contains("count-1 cells × columns"), "{err}");
        // And from 2 to 1.
        let mut l = layer(&[(0, 1)]);
        let mut two = tuple(&[5.0]);
        two.add_tuple(|_| 6.0);
        l.push(CellId::ROOT.child(2).child(0).raw(), two.as_ref());
        l.counts[1] = 1;
        let err = reindexed(l).validate().unwrap_err();
        assert!(err.contains("count-1 cells × columns"), "{err}");
    }

    #[test]
    fn validate_rejects_keys_out_of_order_or_repeated() {
        let mut l = layer(&[(0, 1), (0, 3)]);
        l.keys.swap(0, 1);
        assert!(l.validate().unwrap_err().contains("ascending"));
        l.keys[1] = l.keys[0];
        assert!(l.validate().unwrap_err().contains("ascending"));
    }

    #[test]
    fn validate_rejects_malformed_keys_and_keys_of_another_level() {
        let mut l = layer(&[(0, 1), (0, 3)]);
        l.keys[0] = 0;
        assert!(l.validate().unwrap_err().contains("malformed"));
        let mut l = layer(&[(0, 1), (0, 3)]);
        l.keys[1] = CellId::ROOT.child(1).raw();
        assert!(l.validate().unwrap_err().contains("level 1"));
    }

    #[test]
    fn validate_rejects_a_zero_count() {
        let mut l = layer(&[(0, 1), (0, 3)]);
        l.counts[1] = 0;
        assert!(l.validate().unwrap_err().contains("empty cell"));
    }

    #[test]
    fn fold_groups_by_ancestor_in_key_order() {
        let l = layer(&[(0, 1), (0, 3), (2, 0)]);
        let up = l.fold_to(1);
        assert_eq!(up.validate(), Ok(()));
        assert_eq!(
            up.keys,
            [CellId::ROOT.child(0).raw(), CellId::ROOT.child(2).raw()]
        );
        assert_eq!(up.counts, [2, 1]);
        // Two tuples make a full record; one single stays a single.
        assert_eq!((up.mins[0], up.maxs[0], up.sums[0]), (1.0, 3.0, 4.0));
        assert_eq!((up.num_singles(), up.singles.as_slice()), (1, &[20.0][..]));
        assert_eq!(up.record(1).sum(0), 20.0);
        let root = l.fold_to(0);
        assert_eq!(
            (root.keys.as_slice(), root.counts[0]),
            (&[CellId::ROOT.raw()][..], 3)
        );
        // Folding to the layer's own level is the identity.
        assert_eq!(l.fold_to(2), l);
    }

    #[test]
    fn codec_roundtrips() {
        let mut l = layer(&[(0, 1), (0, 3)]);
        let mut two = tuple(&[5.0]);
        two.add_tuple(|_| 6.0);
        l.push(CellId::ROOT.child(2).child(0).raw(), two.as_ref());
        let mut w = ByteWriter::new();
        l.encode(&mut w);
        let bytes = w.into_inner();
        assert_eq!(bytes.len(), l.encoded_bytes());
        // Six arrays: the memory's, less the mark word and its rank.
        assert_eq!(bytes.len(), 6 * 8 + l.memory_bytes() - 8 - 4);
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(Layer::decode(&mut r, 2, 1).unwrap(), l);
        r.finish().unwrap();
    }

    /// The level-`level` cells at the distinct `positions`, ascending, one
    /// record each: a single of `value` where `kind` is 0, a single with a
    /// `-0.0` where it is 1, and a full record of two tuples otherwise.
    fn mixed(level: u8, positions: &[u64], kinds: &[u8]) -> Layer {
        let mut keys: Vec<u64> = positions
            .iter()
            .map(|&pos| CellId::from_pos_level(pos, level).raw())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut out = Layer::with_capacity(level, 2, keys.len(), 0);
        for (i, &key) in keys.iter().enumerate() {
            let value = i as f64 * 0.5 - 3.0;
            let record = match kinds.get(i).copied().unwrap_or(0) % 3 {
                0 => tuple(&[value, 1.0]),
                1 => tuple(&[value, -0.0]),
                _ => {
                    let mut r = tuple(&[value, 1.0]);
                    r.add_tuple(|col| value + col as f64);
                    r
                }
            };
            out.push(key, record.as_ref());
        }
        out
    }

    proptest! {
        /// `under` is two `partition_point`s over the keys: from the
        /// first key at or after the cell's first leaf to the first after
        /// its last, for random sorted keys of one level, aligned cells at
        /// or above it (many of them ancestors of a key) and any cursor at
        /// or before the answer, which it leaves at the range's end.
        #[test]
        fn under_is_partition_point_over_the_keys(
            level in 0u8..7,
            positions in prop::collection::vec(0u64..1 << 60, 0..60),
            probes in prop::collection::vec(
                (0usize..80, 0u64..1 << 60, 0u8..7, 0.0..=1.0f64),
                1..20,
            ),
        ) {
            let mut keys: Vec<u64> = positions
                .iter()
                .map(|&pos| CellId::from_pos_level(pos, level).raw())
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut l = Layer::with_capacity(level, 0, keys.len(), keys.len());
            for &k in &keys {
                l.push(k, tuple(&[]).as_ref());
            }
            for &(pick, pos, up, at) in &probes {
                let pos = positions.get(pick).copied().unwrap_or(pos);
                let cell = CellId::from_pos_level(pos, level.min(up));
                let (lo, hi) = (cell.range_min().raw(), cell.range_max().raw());
                let want = keys.partition_point(|&k| k < lo)..keys.partition_point(|&k| k <= hi);
                let mut cursor = (want.start as f64 * at) as usize;
                prop_assert_eq!(l.under(cell, &mut cursor), want.clone());
                prop_assert_eq!(cursor, want.end);
            }
        }

        /// Over layers that mix both kinds across several mark words: the
        /// marks are the count-1 records, a range read walks the same
        /// records `record(i)` reads one by one, `extend_from` of
        /// consecutive ranges rebuilds the layer array for array, the rank
        /// counts the marks, and the digest is the one over the records as
        /// full ones.
        #[test]
        fn both_kinds_read_and_copy_as_the_records_they_are(
            positions in prop::collection::vec(0u64..1 << 60, 0..300),
            kinds in prop::collection::vec(0u8..3, 0..300),
            cuts in prop::collection::vec(0usize..300, 0..6),
        ) {
            let l = mixed(9, &positions, &kinds);
            prop_assert_eq!(l.validate(), Ok(()));
            let n = l.num_cells();
            for i in 0..n {
                prop_assert_eq!(l.is_marked(i), l.counts[i] == 1);
            }
            let marked = (0..n).filter(|&i| l.is_marked(i)).count();
            prop_assert_eq!(l.num_singles(), marked);
            for i in 0..=n {
                prop_assert_eq!(l.singles_before(i), (0..i).filter(|&j| l.is_marked(j)).count());
            }
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(n)).chain([0, n]).collect();
            cuts.sort_unstable();
            let mut copy = Layer::with_capacity(9, 2, 0, 0);
            for range in cuts.windows(2).map(|w| w[0]..w[1]) {
                for (i, record) in range.clone().zip(l.records(range.clone())) {
                    let one = l.record(i);
                    prop_assert_eq!(record.count, one.count);
                    prop_assert_eq!(
                        [record.mins, record.maxs, record.sums].concat(),
                        [one.mins, one.maxs, one.sums].concat()
                    );
                }
                copy.extend_from(&l, range);
            }
            prop_assert_eq!(&copy, &l);

            prop_assert_eq!(l.content_hash(), full_layout_hash(&l));
        }
    }
}
