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

use crate::aggregate::RecordRef;
use crate::gallop;
use gb_cell::CellId;
use gb_common::FxHasher;
use gb_store::{ByteReader, ByteWriter, SnapshotError};
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Cell aggregates at a single level, struct-of-arrays, sorted by key: per
/// non-empty cell its id, its tuple count and per-column min/max/sum (§3.4)
/// — aggregates only, no link back to the tuples they came from.
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
    /// Per-column minima, flattened `cell × column`.
    pub(crate) mins: Vec<f64>,
    /// Per-column maxima, flattened `cell × column`.
    pub(crate) maxs: Vec<f64>,
    /// Per-column sums, flattened `cell × column`.
    pub(crate) sums: Vec<f64>,
}

impl Layer {
    /// An empty layer with room for `cells` records.
    pub(crate) fn with_capacity(level: u8, n_cols: usize, cells: usize) -> Layer {
        Layer {
            level,
            n_cols,
            keys: Vec::with_capacity(cells),
            counts: Vec::with_capacity(cells),
            mins: Vec::with_capacity(cells * n_cols),
            maxs: Vec::with_capacity(cells * n_cols),
            sums: Vec::with_capacity(cells * n_cols),
        }
    }

    /// A layer of `cells` all-zero records, for a producer that writes
    /// every one of them in place.
    pub(crate) fn zeroed(level: u8, n_cols: usize, cells: usize) -> Layer {
        Layer {
            level,
            n_cols,
            keys: vec![0; cells],
            counts: vec![0; cells],
            mins: vec![0.0; cells * n_cols],
            maxs: vec![0.0; cells * n_cols],
            sums: vec![0.0; cells * n_cols],
        }
    }

    /// Number of non-empty cells in this layer.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.keys.len()
    }

    /// Bytes of one record: key (8) + count (8) + 3 × 8 per column.
    #[inline]
    pub(crate) fn record_bytes(&self) -> usize {
        16 + 24 * self.n_cols
    }

    /// Heap bytes of the records.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.keys.len() * self.record_bytes()
    }

    /// Record `i`.
    #[inline]
    pub(crate) fn record(&self, i: usize) -> RecordRef<'_> {
        let cols = i * self.n_cols..(i + 1) * self.n_cols;
        RecordRef {
            count: self.counts[i],
            mins: &self.mins[cols.clone()],
            maxs: &self.maxs[cols.clone()],
            sums: &self.sums[cols],
        }
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

    /// Append the record of a cell no tuple has reached yet; `key` must
    /// exceed every key in the layer. Every producer follows it with
    /// [`Layer::add_tuple`]: a block never stores a zero count.
    #[inline]
    pub(crate) fn push_empty(&mut self, key: u64) {
        self.keys.push(key);
        self.counts.push(0);
        self.mins
            .extend(std::iter::repeat_n(f64::INFINITY, self.n_cols));
        self.maxs
            .extend(std::iter::repeat_n(f64::NEG_INFINITY, self.n_cols));
        self.sums.extend(std::iter::repeat_n(0.0, self.n_cols));
    }

    /// Fold one tuple, `value_of(col)` per column, into record `i`.
    #[inline]
    pub(crate) fn add_tuple(&mut self, i: usize, value_of: impl Fn(usize) -> f64) {
        self.counts[i] += 1;
        let cols = i * self.n_cols..(i + 1) * self.n_cols;
        let (mins, maxs, sums) = (
            &mut self.mins[cols.clone()],
            &mut self.maxs[cols.clone()],
            &mut self.sums[cols],
        );
        for col in 0..sums.len() {
            fold_value(
                &mut mins[col],
                &mut maxs[col],
                &mut sums[col],
                value_of(col),
            );
        }
    }

    /// Append records `range` of `other`, whose keys must all exceed every
    /// key in this layer.
    pub(crate) fn extend_from(&mut self, other: &Layer, range: Range<usize>) {
        debug_assert!((self.level, self.n_cols) == (other.level, other.n_cols));
        debug_assert!(
            range.is_empty() || self.keys.last() < other.keys.get(range.start),
            "appended records must keep the keys ascending"
        );
        let cols = range.start * self.n_cols..range.end * self.n_cols;
        self.keys.extend_from_slice(&other.keys[range.clone()]);
        self.counts.extend_from_slice(&other.counts[range]);
        self.mins.extend_from_slice(&other.mins[cols.clone()]);
        self.maxs.extend_from_slice(&other.maxs[cols.clone()]);
        self.sums.extend_from_slice(&other.sums[cols]);
    }

    /// Append the canonical record of the cell at this layer's level that
    /// holds `src`'s records `group`, which must all lie under it: the
    /// first seeds the accumulator, the others fold in in key order:
    /// [`Layer::fold_to`]'s step per group, which is never empty.
    fn push_fold(&mut self, src: &Layer, group: Range<usize>) {
        debug_assert!(src.n_cols == self.n_cols && self.level <= src.level);
        let c = self.n_cols;
        let cols = self.mins.len()..self.mins.len() + c;
        self.keys
            .push(CellId::raw_parent_at(src.keys[group.start], self.level));
        let seed = group.start * c..(group.start + 1) * c;
        self.mins.extend_from_slice(&src.mins[seed.clone()]);
        self.maxs.extend_from_slice(&src.maxs[seed.clone()]);
        self.sums.extend_from_slice(&src.sums[seed]);
        let mut count = src.counts[group.start];
        let (gmins, gmaxs, gsums) = (
            &mut self.mins[cols.clone()],
            &mut self.maxs[cols.clone()],
            &mut self.sums[cols],
        );
        for i in group.start + 1..group.end {
            count += src.counts[i];
            let base = i * c;
            for col in 0..c {
                gmins[col] = gmins[col].min(src.mins[base + col]);
                gmaxs[col] = gmaxs[col].max(src.maxs[base + col]);
                gsums[col] += src.sums[base + col];
            }
        }
        self.counts.push(count);
    }

    /// The canonical fold: the records of this layer's cells folded in key
    /// order into their ancestors at `level`, one [`Layer::push_fold`] per
    /// ancestor. One level up, this is the cascade's step. The groups are
    /// counted first, so the layer is allocated once at its exact size.
    pub(crate) fn fold_to(&self, level: u8) -> Layer {
        debug_assert!(level <= self.level);
        let mut out = Layer::with_capacity(level, self.n_cols, self.groups(level).count());
        for group in self.groups(level) {
            out.push_fold(self, group);
        }
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

    /// Feed every array to `h` (floats by bit pattern, so NaN payloads and
    /// signed zeros count): layers that hash equal are byte-identical for
    /// all practical purposes.
    pub(crate) fn hash_into(&self, h: &mut FxHasher) {
        self.level.hash(h);
        self.keys.hash(h);
        self.counts.hash(h);
        hash_bits(&self.mins, h);
        hash_bits(&self.maxs, h);
        hash_bits(&self.sums, h);
    }

    /// A digest over every array (floats by bit pattern): equal digests
    /// mean bit-identical layers.
    pub fn content_hash(&self) -> u64 {
        let mut h = FxHasher::default();
        self.hash_into(&mut h);
        h.finish()
    }

    /// Check every invariant of the arrays without panicking: lengths are
    /// cells × columns, keys are well-formed cell ids of this layer's level
    /// in strictly ascending order, and no record is empty. The gate for
    /// untrusted input (snapshot loads) before any fold or query touches
    /// the layer.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let (n, c) = (self.keys.len(), self.n_cols);
        if self.counts.len() != n {
            return Err(format!("{n} keys but {} counts", self.counts.len()));
        }
        if self.mins.len() != n * c || self.maxs.len() != n * c || self.sums.len() != n * c {
            return Err(format!(
                "aggregate arrays must hold cells × columns = {} values",
                n * c
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

    /// Serialize the arrays (the snapshot's `CELL` payload).
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.u64_slice(&self.keys);
        w.u64_slice(&self.counts);
        w.f64_slice(&self.mins);
        w.f64_slice(&self.maxs);
        w.f64_slice(&self.sums);
    }

    /// Decode what [`Layer::encode`] wrote. The result is untrusted until
    /// [`Layer::validate`] has passed.
    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        level: u8,
        n_cols: usize,
    ) -> Result<Layer, SnapshotError> {
        Ok(Layer {
            level,
            n_cols,
            keys: r.u64_vec()?,
            counts: r.u64_vec()?,
            mins: r.f64_vec()?,
            maxs: r.f64_vec()?,
            sums: r.f64_vec()?,
        })
    }
}

/// One value into a column's `(min, max, sum)`: the records' per-tuple
/// fold, from `(+∞, −∞, 0.0)`. `v < min` and `v > max` keep the first of
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
/// folded into `(min, max, sum)` by the steps [`Layer::push_empty`] and
/// one [`Layer::add_tuple`] per value take, so bit for bit the same.
#[inline]
pub(crate) fn fold_column(values: impl Iterator<Item = f64>) -> (f64, f64, f64) {
    let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
    for v in values {
        fold_value(&mut min, &mut max, &mut sum, v);
    }
    (min, max, sum)
}

/// Feed `values` to `h` by bit pattern.
pub(crate) fn hash_bits(values: &[f64], h: &mut FxHasher) {
    for v in values {
        v.to_bits().hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Level-2 cells `children` of the level-1 cell `quadrant`, one tuple
    /// of value `10·quadrant + child` each.
    fn layer(cells: &[(u8, u8)]) -> Layer {
        let mut out = Layer::with_capacity(2, 1, cells.len());
        for &(quadrant, child) in cells {
            out.push_empty(CellId::ROOT.child(quadrant).child(child).raw());
            out.add_tuple(out.num_cells() - 1, |_| f64::from(10 * quadrant + child));
        }
        out
    }

    #[test]
    fn valid_layer_passes() {
        let l = layer(&[(0, 1), (0, 3), (2, 0)]);
        assert_eq!(l.validate(), Ok(()));
        assert_eq!(l.memory_bytes(), 3 * 40);
    }

    #[test]
    fn validate_rejects_array_lengths_that_are_not_cells_times_columns() {
        let mut l = layer(&[(0, 1), (0, 3)]);
        l.counts.pop();
        assert!(l.validate().unwrap_err().contains("counts"));
        let mut l = layer(&[(0, 1), (0, 3)]);
        l.sums.pop();
        assert!(l.validate().unwrap_err().contains("cells × columns"));
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
        assert_eq!((up.mins[0], up.maxs[0], up.sums[0]), (1.0, 3.0, 4.0));
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
        let l = layer(&[(0, 1), (0, 3), (2, 0)]);
        let mut w = ByteWriter::new();
        l.encode(&mut w);
        let bytes = w.into_inner();
        assert_eq!(bytes.len(), 5 * 8 + l.memory_bytes());
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(Layer::decode(&mut r, 2, 1).unwrap(), l);
        r.finish().unwrap();
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
            let mut l = Layer::with_capacity(level, 0, keys.len());
            for &k in &keys {
                l.push_empty(k);
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
    }
}
