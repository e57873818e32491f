//! Columnar point tables: raw input and sorted base data.
//!
//! §3.3 / Figure 5: the pipeline is *extract* (clean raw data, compute
//! 1-D spatial keys, sort once per dataset) then *build* (filter +
//! aggregate per GeoBlock). [`RawTable`] is the dirty input; [`BaseTable`]
//! is the cleaned, key-sorted columnar base data every index builds from.
//! "We keep all data in a columnar layout" (§4.1): every attribute column
//! is a `Vec<f64>`, holding each value exactly as it was pushed.

// Row indices are stored as `u32`: every narrowing is checked.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::schema::Schema;
use gb_cell::Grid;
use gb_common::Pool;
use gb_geom::Point;

/// `out[i] = values[perm[i]]`.
fn permuted(values: &[f64], perm: &[u32]) -> Vec<f64> {
    perm.iter().map(|&i| values[i as usize]).collect()
}

/// Heap bytes of attribute columns.
fn columns_bytes(columns: &[Vec<f64>]) -> usize {
    columns.iter().map(|c| 8 * c.len()).sum()
}

/// Read access to rows of a columnar table — shared by filters and
/// aggregators across [`RawTable`] and [`BaseTable`].
pub trait Rows {
    /// Number of rows.
    fn num_rows(&self) -> usize;
    /// Attribute value of `row` in column `col`.
    fn value_f64(&self, row: usize, col: usize) -> f64;
    /// The schema.
    fn schema(&self) -> &Schema;
    /// The location of `row`.
    fn location(&self, row: usize) -> Point;
}

/// Unsorted, possibly dirty input data (pre-extract).
#[derive(Debug, Clone)]
pub struct RawTable {
    schema: Schema,
    xs: Vec<f64>,
    ys: Vec<f64>,
    columns: Vec<Vec<f64>>,
}

impl RawTable {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = vec![Vec::new(); schema.len()];
        RawTable {
            schema,
            xs: Vec::new(),
            ys: Vec::new(),
            columns,
        }
    }

    /// Append a row. `values` must match the schema arity.
    pub fn push_row(&mut self, location: Point, values: &[f64]) {
        assert_eq!(values.len(), self.schema.len(), "row arity mismatch");
        self.xs.push(location.x);
        self.ys.push(location.y);
        for (col, &v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
    }

    /// Reserve capacity for `n` additional rows.
    pub fn reserve(&mut self, n: usize) {
        self.xs.reserve(n);
        self.ys.reserve(n);
        for col in &mut self.columns {
            col.reserve(n);
        }
    }

    /// The attribute columns.
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.columns
    }

    /// X coordinates of all rows.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Y coordinates of all rows.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Heap bytes of the table payload.
    pub fn memory_bytes(&self) -> usize {
        16 * self.xs.len() + columns_bytes(&self.columns)
    }
}

impl Rows for RawTable {
    #[inline]
    fn num_rows(&self) -> usize {
        self.xs.len()
    }

    #[inline]
    fn value_f64(&self, row: usize, col: usize) -> f64 {
        self.columns[col][row]
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    #[inline]
    fn location(&self, row: usize) -> Point {
        Point::new(self.xs[row], self.ys[row])
    }
}

/// Cleaned base data, sorted by the 1-D spatial key (leaf cell id).
///
/// This is what the extract phase produces once per dataset and what every
/// index (GeoBlocks and baselines alike) is built from. Keys are raw
/// [`gb_cell::CellId`] leaf values, so key order == space-filling-curve
/// order and each block-level cell's rows form one contiguous run.
#[derive(Debug, Clone)]
pub struct BaseTable {
    grid: Grid,
    schema: Schema,
    keys: Vec<u64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    columns: Vec<Vec<f64>>,
}

impl BaseTable {
    /// Assemble from parts; validates sortedness and arity.
    pub(crate) fn from_parts(
        grid: Grid,
        schema: Schema,
        keys: Vec<u64>,
        xs: Vec<f64>,
        ys: Vec<f64>,
        columns: Vec<Vec<f64>>,
    ) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
        assert_eq!(keys.len(), xs.len());
        assert_eq!(keys.len(), ys.len());
        for c in &columns {
            assert_eq!(c.len(), keys.len());
        }
        assert_eq!(columns.len(), schema.len());
        BaseTable {
            grid,
            schema,
            keys,
            xs,
            ys,
            columns,
        }
    }

    /// The grid the keys were generated on.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Sorted leaf-cell keys, one per row.
    #[inline]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// X coordinates (kept for exact ground truth / rectangular indexes).
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Y coordinates.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The attribute columns.
    #[inline]
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.columns
    }

    /// First row whose key is ≥ `key` (lower bound).
    #[inline]
    pub fn lower_bound(&self, key: u64) -> usize {
        self.keys.partition_point(|&k| k < key)
    }

    /// First row whose key is > `key` (upper bound).
    #[inline]
    pub fn upper_bound(&self, key: u64) -> usize {
        self.keys.partition_point(|&k| k <= key)
    }

    /// Heap bytes of the base data (keys + coordinates + columns) — the
    /// denominator of the paper's "relative overhead" (Figure 11b).
    pub fn memory_bytes(&self) -> usize {
        8 * self.keys.len() + 16 * self.xs.len() + columns_bytes(&self.columns)
    }

    /// A prefix subset of `n` rows (scaling experiments, Figure 13).
    pub fn truncated(&self, n: usize) -> BaseTable {
        let n = n.min(self.keys.len());
        BaseTable {
            grid: self.grid,
            schema: self.schema.clone(),
            keys: self.keys[..n].to_vec(),
            xs: self.xs[..n].to_vec(),
            ys: self.ys[..n].to_vec(),
            columns: self.columns.iter().map(|c| c[..n].to_vec()).collect(),
        }
    }
}

impl Rows for BaseTable {
    #[inline]
    fn num_rows(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn value_f64(&self, row: usize, col: usize) -> f64 {
        self.columns[col][row]
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    #[inline]
    fn location(&self, row: usize) -> Point {
        Point::new(self.xs[row], self.ys[row])
    }
}

/// Merge sorted runs of `(key, row)` pairs into the sorted keys and the
/// permutation, each written once. Rows are distinct, so the order is
/// total: rows that share a key come out in row order, whichever runs
/// they lie in — and with them every float sum folded over the base data
/// in row order.
pub(crate) fn merge_runs(runs: &[Vec<(u64, u32)>]) -> (Vec<u64>, Vec<u32>) {
    let n = runs.iter().map(Vec::len).sum();
    let (mut keys, mut perm) = (Vec::with_capacity(n), Vec::with_capacity(n));
    // The unmerged rest of each run, empty ones dropped; their order does
    // not matter, as no two pairs are equal.
    let mut rest: Vec<&[(u64, u32)]> = runs
        .iter()
        .map(Vec::as_slice)
        .filter(|run| !run.is_empty())
        .collect();
    while rest.len() > 1 {
        // The run whose next pair is the smallest. There are as many runs
        // as pool threads, so a scan beats a heap.
        let mut at = 0;
        for r in 1..rest.len() {
            if rest[r][0] < rest[at][0] {
                at = r;
            }
        }
        let (key, row) = rest[at][0];
        keys.push(key);
        perm.push(row);
        rest[at] = &rest[at][1..];
        if rest[at].is_empty() {
            rest.swap_remove(at);
        }
    }
    // The last run left is already in order.
    if let Some(run) = rest.first() {
        keys.extend(run.iter().map(|&(key, _)| key));
        perm.extend(run.iter().map(|&(_, row)| row));
    }
    (keys, perm)
}

/// Apply the permutation produced by [`merge_runs`] to the rows of
/// `raw`: one gather per coordinate and per attribute column, each a task
/// of its own on `pool`.
pub(crate) fn apply_permutation(
    pool: &Pool,
    grid: Grid,
    raw: &RawTable,
    sorted_keys: Vec<u64>,
    perm: &[u32],
) -> BaseTable {
    let sources = [&raw.xs, &raw.ys].into_iter().chain(&raw.columns);
    let mut gathered = pool.run(sources, |values| permuted(values, perm));
    let columns = gathered.split_off(2);
    let (ys, xs) = (gathered.remove(1), gathered.remove(0));
    BaseTable::from_parts(grid, raw.schema.clone(), sorted_keys, xs, ys, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use gb_geom::Rect;

    fn grid() -> Grid {
        Grid::hilbert(Rect::from_bounds(0.0, 0.0, 10.0, 10.0))
    }

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("n")])
    }

    #[test]
    fn a_pushed_value_is_stored_as_given() {
        // No conversion: a fraction, a non-finite value and a huge one
        // read back bit for bit, so cleaning sees what was pushed.
        let mut t = RawTable::new(schema());
        let values = [2.5, -2.9, f64::NAN, f64::INFINITY, 1e300, f64::NEG_INFINITY];
        for pair in values.chunks(2) {
            t.push_row(Point::new(0.0, 0.0), pair);
        }
        let read: Vec<u64> = (0..3)
            .flat_map(|row| [0, 1].map(|col| t.value_f64(row, col).to_bits()))
            .collect();
        assert_eq!(read, values.map(f64::to_bits));
    }

    #[test]
    fn raw_table_push_and_read() {
        let mut t = RawTable::new(schema());
        t.push_row(Point::new(1.0, 2.0), &[3.5, 7.0]);
        t.push_row(Point::new(4.0, 5.0), &[1.25, -2.0]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value_f64(0, 0), 3.5);
        assert_eq!(t.value_f64(1, 1), -2.0);
        assert_eq!(t.location(1), Point::new(4.0, 5.0));
        assert_eq!(t.memory_bytes(), 2 * 16 + 2 * 8 * 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn raw_table_rejects_bad_arity() {
        let mut t = RawTable::new(schema());
        t.push_row(Point::new(0.0, 0.0), &[1.0]);
    }

    #[test]
    fn merge_runs_orders_keys_and_keeps_ties_in_row_order() {
        // Three sorted runs of contiguous row ranges, as extract's chunks
        // hand them over; key 1 appears in all three and key 5 in two.
        let runs = vec![
            vec![(1u64, 1u32), (5, 0), (9, 2)],
            vec![(1, 3), (1, 5), (3, 4), (5, 6)],
            vec![(0, 8), (1, 7)],
        ];
        let (sorted, perm) = merge_runs(&runs);
        assert_eq!(sorted, vec![0, 1, 1, 1, 1, 3, 5, 5, 9]);
        assert_eq!(perm, vec![8, 1, 3, 5, 7, 4, 0, 6, 2]);
        // Empty runs anywhere, one run, none.
        let sparse = vec![vec![], runs[1].clone(), vec![]];
        assert_eq!(merge_runs(&sparse), (vec![1, 1, 3, 5], vec![3, 5, 4, 6]));
        assert_eq!(merge_runs(&runs[2..]), (vec![0, 1], vec![8, 7]));
        assert_eq!(merge_runs(&[]), (vec![], vec![]));
    }

    #[test]
    fn base_table_bounds() {
        let g = grid();
        let t = BaseTable::from_parts(
            g,
            Schema::default(),
            vec![1, 3, 3, 7],
            vec![0.0; 4],
            vec![0.0; 4],
            vec![],
        );
        assert_eq!(t.lower_bound(3), 1);
        assert_eq!(t.upper_bound(3), 3);
        assert_eq!(t.lower_bound(0), 0);
        assert_eq!(t.lower_bound(8), 4);
    }

    #[test]
    fn base_table_truncates() {
        let g = grid();
        let t = BaseTable::from_parts(
            g,
            schema(),
            vec![1, 3, 5, 7],
            vec![0.1, 0.2, 0.3, 0.4],
            vec![1.0, 2.0, 3.0, 4.0],
            vec![vec![10.0, 20.0, 30.0, 40.0], vec![1.0, 2.0, 3.0, 4.0]],
        );
        let pre = t.truncated(2);
        assert_eq!(pre.keys(), &[1, 3]);
        assert_eq!(pre.num_rows(), 2);
        assert_eq!(pre.value_f64(1, 1), 2.0);
        assert_eq!(pre.location(1), Point::new(0.2, 2.0));
        // Truncation beyond the length is clamped.
        assert_eq!(t.truncated(99).num_rows(), 4);
    }
}
