//! The AggregateTrie: the query-driven aggregate cache (§3.6, Figure 7).
//!
//! A trie over cell ids where each trie level encodes exactly one cell
//! level (fanout 4). Nodes are two 32-bit offsets — a pointer to the first
//! of four contiguously-allocated children, and a pointer to the node's
//! cached aggregate record — exactly the paper's compact in-place encoding:
//! "Nodes consist of just two 32-bit integers. […] Since we store only the
//! offset to the first child, we need to always allocate space for all
//! children in a node."
//!
//! The root corresponds to the smallest cell enclosing the GeoBlock's data
//! ("typically just a small fraction of the possible earth-wide input
//! space"). Aggregate records are `count` plus per-column min/max/sum.
//!
//! **Read-side flat index.** The node encoding is write-compact but the
//! per-cell [`AggregateTrie::node_for`] walk chases one pointer per
//! level — a dependent-load chain that dominates covering-sized probe
//! loops. Because every allocated node corresponds to exactly one cell
//! id, the trie also carries a *derived* read-side layout, built once at
//! publish time ([`AggregateTrie::build_flat_index`]): every node's cell
//! raw id in one array sorted ascending (raw order *is* space-filling
//! -curve order, so a covering's probe stream sweeps it monotonically),
//! plus a "hot lane" restricted to the nodes that carry a cached
//! aggregate, storing the record offset directly. A [`FlatCursor`]
//! resolves each probe by galloping forward from the previous
//! match — cached hits (the overwhelming case after §3.6 adaptation)
//! cost ~one compare and skip the node array entirely. The index is
//! pure acceleration state: cleared by structural mutation
//! ([`AggregateTrie::insert`]), preserved by in-place aggregate updates
//! ([`AggregateTrie::update_along_path`]), excluded from
//! [`AggregateTrie::content_hash`] and the snapshot encoding, and not
//! counted by [`AggregateTrie::size_bytes`] (the Figure-18 budget
//! bounds the paper's node + record layout; the index is
//! reconstructible from it). Lookups fall back to the pointer walk
//! whenever the index is absent, so the two paths are interchangeable —
//! and a proptest holds them bit-identical.

use crate::gallop;
use gb_cell::{CellId, MAX_LEVEL};

/// Sentinel: no child block. Index 0 is always the root, so 0 is free.
const NO_CHILD: u32 = 0;
/// Sentinel: no cached aggregate.
const NO_AGG: u32 = u32::MAX;

/// One trie node: Figure 7's `(child offset, aggregate offset)` pair.
#[derive(Debug, Clone, Copy, Default)]
struct TrieNode {
    first_child: u32,
    agg: u32,
}

/// Flat, borrow-friendly view of a trie for the snapshot encoder.
pub(crate) struct TrieRawParts<'a> {
    pub root_cell: CellId,
    pub n_cols: usize,
    pub first_children: Vec<u32>,
    pub aggs: Vec<u32>,
    pub agg_counts: &'a [u64],
    pub agg_values: &'a [f64],
}

/// The trie-shaped aggregate cache.
#[derive(Debug, Clone)]
pub struct AggregateTrie {
    root_cell: CellId,
    nodes: Vec<TrieNode>,
    n_cols: usize,
    /// Cached record counts (one per cached cell).
    agg_counts: Vec<u64>,
    /// Cached record payload, stride `3 × n_cols`: mins, then maxs, then
    /// sums (column-indexed within each third).
    agg_values: Vec<f64>,
    /// Derived read-side index: every allocated node's cell raw id,
    /// sorted ascending, with `flat_nodes` aligned index-for-index
    /// (struct-of-arrays, so searches touch only the key column). Raw
    /// order is curve order with ancestors adjacent to descendants, so
    /// a covering's sorted probe stream advances through this array
    /// monotonically. Empty ⇒ lookups walk.
    flat_keys: Vec<u64>,
    flat_nodes: Vec<u32>,
    /// The hot lane: the subset of `flat_keys` whose node carries a
    /// cached aggregate, with the record offset (`TrieNode::agg`)
    /// stored directly in `hot_aggs`. After §3.6 adaptation nearly
    /// every covering probe lands here, so the cursor answers from a
    /// ~unit-stride sweep of this smaller array without touching the
    /// node array at all. Record offsets stay valid across
    /// [`AggregateTrie::update_along_path`], which edits records in
    /// place and never reassigns them.
    hot_keys: Vec<u64>,
    hot_aggs: Vec<u32>,
}

/// A stateful probe over the flat index for ascending probe streams
/// (covering cells arrive sorted by raw id): each lookup gallops forward
/// from the previous match (O(log gap)) and only falls back to a full
/// binary search when the stream jumps backward. Any probe order is
/// correct — out-of-order probes just pay the binary search — and every
/// answer is
/// bit-identical to [`AggregateTrie::node_for`].
#[derive(Debug)]
pub struct FlatCursor<'a> {
    trie: &'a AggregateTrie,
    /// Borrowed index columns — one pointer hop shorter than going
    /// through `trie` on every probe.
    keys: &'a [u64],
    nodes: &'a [u32],
    hot_keys: &'a [u64],
    hot_aggs: &'a [u32],
    /// Position of the previous match in the full / hot arrays.
    pos: usize,
    hot_pos: usize,
}

/// What a [`FlatCursor::lookup`] resolved a covering cell to — the three
/// cases the adapted SELECT (Figure 8) dispatches on.
#[derive(Debug)]
pub enum FlatHit<'a> {
    /// The cell has a cached aggregate record: answer directly.
    Agg(CachedAgg<'a>),
    /// The cell's node exists but carries no record (interior or empty
    /// slot); the caller may still use its children.
    Node(u32),
    /// No path to the cell.
    Miss,
}

/// First index `i` with `keys[i] >= raw`, assuming the probe stream is
/// usually ascending: gallop forward from the previous match (the next
/// probe is rarely more than a few slots ahead), and restart with a full
/// binary search if the stream moved backward.
#[inline]
fn lower_bound_from(keys: &[u64], pos: usize, raw: u64) -> usize {
    // Resume forward only when the stream is still ascending past the
    // previous position; a backward jump (new covering, out-of-order
    // probe) or a position past the end restarts with a binary search.
    match keys.get(pos) {
        Some(&k) if k <= raw => gallop::lower_bound_from(keys, raw, pos),
        _ => keys.partition_point(|&key| key < raw),
    }
}

impl<'a> FlatCursor<'a> {
    /// Index of the trie node for `cell`, if the path exists.
    /// Bit-identical to [`AggregateTrie::node_for_walk`] for any probe
    /// order; ascending streams resolve from the forward gallop.
    pub fn node_for(&mut self, cell: CellId) -> Option<u32> {
        if self.keys.is_empty() {
            return self.trie.node_for_walk(cell);
        }
        let raw = cell.raw();
        let i = lower_bound_from(self.keys, self.pos, raw);
        self.pos = i;
        match self.keys.get(i) {
            Some(&key) if key == raw => self.nodes.get(i).copied(),
            _ => None,
        }
    }

    /// Resolve `cell` the way the adapted SELECT consumes it: straight
    /// to the cached aggregate when one exists (the hot lane, ~one
    /// compare per probe on a sorted covering), otherwise to the node
    /// index or a miss. Equivalent to
    /// `node_for(cell)` + [`AggregateTrie::agg_of`], fused.
    pub fn lookup(&mut self, cell: CellId) -> FlatHit<'a> {
        if self.keys.is_empty() {
            // No index published: the walk is the source of truth.
            return match self.trie.node_for_walk(cell) {
                Some(node) => match self.trie.agg_of(node) {
                    Some(agg) => FlatHit::Agg(agg),
                    None => FlatHit::Node(node),
                },
                None => FlatHit::Miss,
            };
        }
        let raw = cell.raw();
        let i = lower_bound_from(self.hot_keys, self.hot_pos, raw);
        self.hot_pos = i;
        if let (Some(&key), Some(&agg)) = (self.hot_keys.get(i), self.hot_aggs.get(i)) {
            if key == raw {
                return FlatHit::Agg(self.trie.agg_view(agg));
            }
        }
        // Not a cached record: resolve interior / empty-slot / miss on
        // the full array.
        match self.node_for(cell) {
            Some(node) => FlatHit::Node(node),
            None => FlatHit::Miss,
        }
    }
}

/// A cached aggregate record view.
#[derive(Debug, Clone, Copy)]
pub struct CachedAgg<'a> {
    pub count: u64,
    mins: &'a [f64],
    maxs: &'a [f64],
    sums: &'a [f64],
}

impl CachedAgg<'_> {
    /// Fold this cached record into `result` through a compiled plan —
    /// the same single-record combine the pyramid path performs, so a
    /// trie hit and a pyramid lookup of the same cell are bit-identical.
    #[inline]
    pub fn combine_into(&self, plan: &crate::aggregate::AggPlan, result: &mut crate::AggResult) {
        result.combine_record_plan(plan, self.count, self.mins, self.maxs, self.sums);
    }

    #[inline]
    pub fn min(&self, col: usize) -> f64 {
        self.mins[col]
    }

    #[inline]
    pub fn max(&self, col: usize) -> f64 {
        self.maxs[col]
    }

    #[inline]
    pub fn sum(&self, col: usize) -> f64 {
        self.sums[col]
    }
}

impl AggregateTrie {
    /// An empty trie rooted at `root_cell` for `n_cols` columns.
    pub fn new(root_cell: CellId, n_cols: usize) -> Self {
        let mut trie = AggregateTrie {
            root_cell,
            nodes: vec![TrieNode {
                first_child: NO_CHILD,
                agg: NO_AGG,
            }],
            n_cols,
            agg_counts: Vec::new(),
            agg_values: Vec::new(),
            flat_keys: Vec::new(),
            flat_nodes: Vec::new(),
            hot_keys: Vec::new(),
            hot_aggs: Vec::new(),
        };
        trie.build_flat_index();
        trie
    }

    /// The cell the root node represents.
    #[inline]
    pub fn root_cell(&self) -> CellId {
        self.root_cell
    }

    /// Number of cached aggregates.
    #[inline]
    pub fn num_cached(&self) -> usize {
        self.agg_counts.len()
    }

    /// Number of allocated nodes (including the root and empty slots in
    /// child blocks — the paper's encoding always allocates all four).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes of one aggregate record: count + 3 × n_cols values.
    #[inline]
    pub fn record_bytes(&self) -> usize {
        8 + 24 * self.n_cols
    }

    /// Total cache footprint: 8 bytes per node + record storage — the
    /// quantity bounded by the Figure-18 aggregate threshold.
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * 8 + self.agg_counts.len() * self.record_bytes()
    }

    /// Index of the trie node for `cell`, if the path exists. Probes the
    /// flat index when one is built; otherwise (or after a structural
    /// mutation cleared it) falls back to the pointer walk. The two
    /// paths return identical results: the flat index enumerates exactly
    /// the nodes the walk can reach, keyed by their unique cell ids.
    pub fn node_for(&self, cell: CellId) -> Option<u32> {
        if self.flat_keys.is_empty() {
            return self.node_for_walk(cell);
        }
        let raw = cell.raw();
        let idx = self.flat_keys.partition_point(|&key| key < raw);
        match self.flat_keys.get(idx) {
            Some(&key) if key == raw => self.flat_nodes.get(idx).copied(),
            _ => None,
        }
    }

    /// A stateful probe for sorted probe streams — the covering loop's
    /// lookup path ([`crate::GeoBlockQC::select`] and the engine probe
    /// covering cells in ascending raw order, so consecutive lookups
    /// resolve from one forward cache-line scan instead of a full
    /// search).
    pub fn flat_cursor(&self) -> FlatCursor<'_> {
        FlatCursor {
            trie: self,
            keys: &self.flat_keys,
            nodes: &self.flat_nodes,
            hot_keys: &self.hot_keys,
            hot_aggs: &self.hot_aggs,
            pos: 0,
            hot_pos: 0,
        }
    }

    /// The original per-level pointer walk — the reference
    /// implementation [`AggregateTrie::node_for`] is benchmarked and
    /// property-tested against.
    pub fn node_for_walk(&self, cell: CellId) -> Option<u32> {
        if !self.root_cell.contains(cell) {
            return None;
        }
        let mut cur = 0u32;
        for level in (self.root_cell.level() + 1)..=cell.level() {
            let first = self.nodes[cur as usize].first_child;
            if first == NO_CHILD {
                return None;
            }
            cur = first + u32::from(cell.child_position(level));
        }
        Some(cur)
    }

    /// Whether the read-side flat index is currently built.
    #[inline]
    pub fn has_flat_index(&self) -> bool {
        !self.flat_keys.is_empty()
    }

    /// (Re)build the read-side flat index: a DFS from the root assigns
    /// every allocated node its cell id, then the pairs are sorted by
    /// raw id into the struct-of-arrays layout. Called at publish time
    /// (trie rebuild, snapshot load) so queries never pay the pointer
    /// walk.
    pub fn build_flat_index(&mut self) {
        let mut pairs = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(0u32, self.root_cell)];
        while let Some((node, cell)) = stack.pop() {
            pairs.push((cell.raw(), node));
            let first = self
                .nodes
                .get(node as usize)
                .map_or(NO_CHILD, |n| n.first_child);
            if first != NO_CHILD && cell.level() < MAX_LEVEL {
                for k in 0..4u8 {
                    stack.push((first + u32::from(k), cell.child(k)));
                }
            }
        }
        pairs.sort_unstable_by_key(|&(raw, _)| raw);
        // Aliased child pointers (possible only in adversarial snapshot
        // input) could list a cell twice; keep one so the search stays
        // a function.
        pairs.dedup_by_key(|&mut (raw, _)| raw);
        self.flat_keys = pairs.iter().map(|&(raw, _)| raw).collect();
        self.flat_nodes = pairs.iter().map(|&(_, node)| node).collect();
        // The hot lane: cells whose node carries a record, raw-sorted
        // (a subsequence of an already-sorted array), with the record
        // offset inlined.
        self.hot_keys.clear();
        self.hot_aggs.clear();
        for &(raw, node) in &pairs {
            let agg = self.nodes.get(node as usize).map_or(NO_AGG, |n| n.agg);
            if agg != NO_AGG {
                self.hot_keys.push(raw);
                self.hot_aggs.push(agg);
            }
        }
    }

    /// The cached aggregate of a node, if present.
    pub fn agg_of(&self, node: u32) -> Option<CachedAgg<'_>> {
        let idx = self.nodes[node as usize].agg;
        (idx != NO_AGG).then(|| self.agg_view(idx))
    }

    fn agg_view(&self, idx: u32) -> CachedAgg<'_> {
        let c = self.n_cols;
        let base = idx as usize * 3 * c;
        CachedAgg {
            count: self.agg_counts[idx as usize],
            mins: &self.agg_values[base..base + c],
            maxs: &self.agg_values[base + c..base + 2 * c],
            sums: &self.agg_values[base + 2 * c..base + 3 * c],
        }
    }

    /// The four children of a node, if a child block was allocated.
    pub fn children_of(&self, node: u32) -> Option<[u32; 4]> {
        let first = self.nodes[node as usize].first_child;
        (first != NO_CHILD).then(|| [first, first + 1, first + 2, first + 3])
    }

    /// How many bytes inserting `cell` would add (missing child blocks plus
    /// the aggregate record). Returns `None` for cells outside the root.
    pub fn insertion_cost(&self, cell: CellId) -> Option<usize> {
        if !self.root_cell.contains(cell) {
            return None;
        }
        let mut missing_blocks = 0usize;
        let mut cur = 0u32;
        let mut detached = false;
        for level in (self.root_cell.level() + 1)..=cell.level() {
            if detached {
                missing_blocks += 1;
                continue;
            }
            let first = self.nodes[cur as usize].first_child;
            if first == NO_CHILD {
                missing_blocks += 1;
                detached = true;
            } else {
                cur = first + u32::from(cell.child_position(level));
            }
        }
        Some(missing_blocks * 4 * 8 + self.record_bytes())
    }

    /// Insert (or overwrite) the cached aggregate for `cell`.
    ///
    /// `mins`/`maxs`/`sums` must each have `n_cols` entries.
    pub fn insert(&mut self, cell: CellId, count: u64, mins: &[f64], maxs: &[f64], sums: &[f64]) {
        assert!(self.root_cell.contains(cell), "cell outside trie root");
        assert_eq!(mins.len(), self.n_cols);
        assert_eq!(maxs.len(), self.n_cols);
        assert_eq!(sums.len(), self.n_cols);

        // Structural mutation may allocate nodes; drop the derived index
        // and let the publisher rebuild it once after the batch.
        self.flat_keys.clear();
        self.flat_nodes.clear();
        self.hot_keys.clear();
        self.hot_aggs.clear();

        let mut cur = 0u32;
        for level in (self.root_cell.level() + 1)..=cell.level() {
            let first = self.nodes[cur as usize].first_child;
            let first = if first == NO_CHILD {
                let new_first = self.nodes.len() as u32;
                self.nodes.extend(
                    [TrieNode {
                        first_child: NO_CHILD,
                        agg: NO_AGG,
                    }; 4],
                );
                self.nodes[cur as usize].first_child = new_first;
                new_first
            } else {
                first
            };
            cur = first + u32::from(cell.child_position(level));
        }

        let node = &mut self.nodes[cur as usize];
        if node.agg == NO_AGG {
            node.agg = self.agg_counts.len() as u32;
            self.agg_counts.push(count);
            self.agg_values.extend_from_slice(mins);
            self.agg_values.extend_from_slice(maxs);
            self.agg_values.extend_from_slice(sums);
        } else {
            let idx = node.agg as usize;
            self.agg_counts[idx] = count;
            let c = self.n_cols;
            let base = idx * 3 * c;
            self.agg_values[base..base + c].copy_from_slice(mins);
            self.agg_values[base + c..base + 2 * c].copy_from_slice(maxs);
            self.agg_values[base + 2 * c..base + 3 * c].copy_from_slice(sums);
        }
    }

    /// A digest over the whole trie (structure + cached records, floats
    /// by bit pattern) — the cache-side counterpart of
    /// [`crate::GeoBlock::content_hash`], used by the persistence
    /// round-trip gate to prove a loaded cache is bit-identical.
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = gb_common::FxHasher::default();
        self.root_cell.raw().hash(&mut h);
        self.n_cols.hash(&mut h);
        for n in &self.nodes {
            n.first_child.hash(&mut h);
            n.agg.hash(&mut h);
        }
        self.agg_counts.hash(&mut h);
        for v in &self.agg_values {
            v.to_bits().hash(&mut h);
        }
        h.finish()
    }

    /// Decompose into flat arrays for the snapshot encoder: per-node
    /// `first_child` and `agg` offsets, plus the aggregate storage.
    pub(crate) fn to_raw_parts(&self) -> TrieRawParts<'_> {
        TrieRawParts {
            root_cell: self.root_cell,
            n_cols: self.n_cols,
            first_children: self.nodes.iter().map(|n| n.first_child).collect(),
            aggs: self.nodes.iter().map(|n| n.agg).collect(),
            agg_counts: &self.agg_counts,
            agg_values: &self.agg_values,
        }
    }

    /// Rebuild a trie from flat arrays (the snapshot decoder), validating
    /// the structure so corrupt input yields an error instead of
    /// out-of-bounds panics at query time.
    pub(crate) fn from_raw_parts(
        root_cell: CellId,
        n_cols: usize,
        first_children: Vec<u32>,
        aggs: Vec<u32>,
        agg_counts: Vec<u64>,
        agg_values: Vec<f64>,
    ) -> Result<AggregateTrie, String> {
        let n = first_children.len();
        if aggs.len() != n {
            return Err("trie node arrays disagree in length".into());
        }
        if n == 0 || !(n - 1).is_multiple_of(4) {
            return Err(format!("trie node count {n} is not 1 + 4k"));
        }
        let n_aggs = agg_counts.len();
        if agg_values.len() != n_aggs * 3 * n_cols {
            return Err(format!(
                "trie aggregate storage must hold {} values, found {}",
                n_aggs * 3 * n_cols,
                agg_values.len()
            ));
        }
        for (i, &fc) in first_children.iter().enumerate() {
            if fc == NO_CHILD {
                continue;
            }
            let fc = fc as usize;
            // Child blocks are quartets appended after the root, so a
            // valid pointer is 1 + 4m with the whole quartet in bounds.
            if fc < 1 || !(fc - 1).is_multiple_of(4) || fc + 4 > n {
                return Err(format!("trie node {i} has invalid child pointer {fc}"));
            }
        }
        for (i, &a) in aggs.iter().enumerate() {
            if a != NO_AGG && a as usize >= n_aggs {
                return Err(format!("trie node {i} points past the aggregate storage"));
            }
        }
        let nodes = first_children
            .into_iter()
            .zip(aggs)
            .map(|(first_child, agg)| TrieNode { first_child, agg })
            .collect();
        let mut trie = AggregateTrie {
            root_cell,
            nodes,
            n_cols,
            agg_counts,
            agg_values,
            flat_keys: Vec::new(),
            flat_nodes: Vec::new(),
            hot_keys: Vec::new(),
            hot_aggs: Vec::new(),
        };
        // Snapshot loads are publish points: hand queries the flat path.
        trie.build_flat_index();
        Ok(trie)
    }

    /// Apply one new tuple to every cached ancestor of `leaf` (the §5
    /// update path: "we can do this in a single depth-first traversal").
    pub fn update_along_path(&mut self, leaf: CellId, values: &[f64]) {
        assert_eq!(values.len(), self.n_cols);
        if !self.root_cell.contains(leaf) {
            return;
        }
        let c = self.n_cols;
        let mut cur = 0u32;
        let mut level = self.root_cell.level();
        loop {
            let agg = self.nodes[cur as usize].agg;
            if agg != NO_AGG {
                let idx = agg as usize;
                self.agg_counts[idx] += 1;
                let base = idx * 3 * c;
                // `col` addresses three interleaved thirds of one record.
                #[allow(clippy::needless_range_loop)]
                for col in 0..c {
                    let v = values[col];
                    if v < self.agg_values[base + col] {
                        self.agg_values[base + col] = v;
                    }
                    if v > self.agg_values[base + c + col] {
                        self.agg_values[base + c + col] = v;
                    }
                    self.agg_values[base + 2 * c + col] += v;
                }
            }
            if level >= leaf.level() {
                break;
            }
            level += 1;
            let first = self.nodes[cur as usize].first_child;
            if first == NO_CHILD {
                break;
            }
            cur = first + u32::from(leaf.child_position(level));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> CellId {
        CellId::from_leaf_pos(0x1234 << 40).parent_at(4)
    }

    fn sample_record() -> ([f64; 2], [f64; 2], [f64; 2]) {
        ([1.0, -5.0], [10.0, 5.0], [30.0, 0.0])
    }

    #[test]
    fn empty_trie() {
        let t = AggregateTrie::new(root(), 2);
        assert_eq!(t.num_cached(), 0);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.size_bytes(), 8);
        assert!(t.node_for(root()).is_some());
        assert!(t.agg_of(t.node_for(root()).unwrap()).is_none());
        assert!(t.children_of(0).is_none());
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = AggregateTrie::new(root(), 2);
        let cell = root().child(2).child(1);
        let (mins, maxs, sums) = sample_record();
        t.insert(cell, 7, &mins, &maxs, &sums);
        let node = t.node_for(cell).expect("path exists");
        let agg = t.agg_of(node).expect("agg cached");
        assert_eq!(agg.count, 7);
        assert_eq!(agg.min(0), 1.0);
        assert_eq!(agg.max(1), 5.0);
        assert_eq!(agg.sum(0), 30.0);
        // Interior path node exists but carries no aggregate.
        let mid = t.node_for(root().child(2)).unwrap();
        assert!(t.agg_of(mid).is_none());
        // Sibling exists structurally (block allocation) but is empty.
        let sib = t.node_for(root().child(2).child(3)).unwrap();
        assert!(t.agg_of(sib).is_none());
    }

    #[test]
    fn lookup_misses() {
        let mut t = AggregateTrie::new(root(), 2);
        let (mins, maxs, sums) = sample_record();
        t.insert(root().child(0), 1, &mins, &maxs, &sums);
        // No path below child(1).
        assert!(t.node_for(root().child(1).child(0)).is_none());
        // Outside the root entirely.
        let outside = root().next();
        assert!(t.node_for(outside).is_none());
        assert!(t.insertion_cost(outside).is_none());
    }

    #[test]
    fn node_blocks_allocated_in_fours() {
        let mut t = AggregateTrie::new(root(), 2);
        let (mins, maxs, sums) = sample_record();
        t.insert(root().child(0), 1, &mins, &maxs, &sums);
        assert_eq!(t.num_nodes(), 5); // root + one block of 4
        t.insert(root().child(3), 1, &mins, &maxs, &sums);
        assert_eq!(t.num_nodes(), 5); // sibling reuses the block
        t.insert(root().child(3).child(2), 1, &mins, &maxs, &sums);
        assert_eq!(t.num_nodes(), 9);
    }

    #[test]
    fn insertion_cost_predicts_size_growth() {
        let mut t = AggregateTrie::new(root(), 2);
        let (mins, maxs, sums) = sample_record();
        let cell = root().child(1).child(1).child(1);
        let cost = t.insertion_cost(cell).unwrap();
        let before = t.size_bytes();
        t.insert(cell, 3, &mins, &maxs, &sums);
        assert_eq!(t.size_bytes(), before + cost);
        // Inserting a sibling now only costs the record.
        let sib = root().child(1).child(1).child(2);
        assert_eq!(t.insertion_cost(sib).unwrap(), t.record_bytes());
    }

    #[test]
    fn overwrite_replaces_record() {
        let mut t = AggregateTrie::new(root(), 2);
        let (mins, maxs, sums) = sample_record();
        let cell = root().child(2);
        t.insert(cell, 7, &mins, &maxs, &sums);
        t.insert(cell, 9, &[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]);
        assert_eq!(t.num_cached(), 1);
        let agg = t.agg_of(t.node_for(cell).unwrap()).unwrap();
        assert_eq!(agg.count, 9);
        assert_eq!(agg.sum(1), 2.0);
    }

    #[test]
    fn update_along_path_touches_cached_ancestors_only() {
        let mut t = AggregateTrie::new(root(), 1);
        t.insert(root(), 10, &[0.0], &[5.0], &[20.0]);
        t.insert(root().child(1), 4, &[1.0], &[4.0], &[8.0]);
        // A leaf below child(1): both cached records update.
        let leaf = root().child(1).child_begin(30);
        t.update_along_path(leaf, &[9.0]);
        let r = t.agg_of(t.node_for(root()).unwrap()).unwrap();
        assert_eq!(r.count, 11);
        assert_eq!(r.max(0), 9.0);
        assert_eq!(r.sum(0), 29.0);
        let c = t.agg_of(t.node_for(root().child(1)).unwrap()).unwrap();
        assert_eq!(c.count, 5);
        assert_eq!(c.sum(0), 17.0);
        // A leaf below child(0): only the root updates.
        let leaf0 = root().child(0).child_begin(30);
        t.update_along_path(leaf0, &[-3.0]);
        let r = t.agg_of(t.node_for(root()).unwrap()).unwrap();
        assert_eq!(r.count, 12);
        assert_eq!(r.min(0), -3.0);
        let c = t.agg_of(t.node_for(root().child(1)).unwrap()).unwrap();
        assert_eq!(c.count, 5, "sibling path untouched");
    }

    #[test]
    fn flat_index_matches_walk_and_survives_updates() {
        let mut t = AggregateTrie::new(root(), 1);
        assert!(t.has_flat_index(), "a fresh trie is indexed");
        t.insert(root().child(2).child(1), 7, &[1.0], &[2.0], &[3.0]);
        assert!(!t.has_flat_index(), "insert clears the derived index");
        t.insert(root().child(0), 1, &[0.0], &[0.0], &[0.0]);
        t.build_flat_index();
        assert!(t.has_flat_index());
        // Every allocated node, plus misses inside and outside the root,
        // agree between the two paths.
        let probes = [
            root(),
            root().child(0),
            root().child(1),
            root().child(2),
            root().child(2).child(1),
            root().child(2).child(3),
            root().child(1).child(0),          // no path
            root().child(2).child(1).child(0), // below a leaf
            root().next(),                     // outside the root
            root().parent_at(2),               // above the root
        ];
        for cell in probes {
            assert_eq!(t.node_for(cell), t.node_for_walk(cell), "{cell:?}");
        }
        // In-place aggregate updates keep the index valid.
        t.update_along_path(root().child(2).child(1).child_begin(30), &[9.0]);
        assert!(t.has_flat_index());
        let agg = t
            .agg_of(t.node_for(root().child(2).child(1)).unwrap())
            .unwrap();
        assert_eq!(agg.count, 8);
    }

    #[test]
    fn flat_index_is_invisible_to_hash_and_size() {
        let mut t = AggregateTrie::new(root(), 1);
        t.insert(root().child(1), 3, &[1.0], &[1.0], &[1.0]);
        let (h0, s0) = (t.content_hash(), t.size_bytes());
        t.build_flat_index();
        assert_eq!(t.content_hash(), h0);
        assert_eq!(t.size_bytes(), s0);
    }

    #[test]
    fn size_accounting_matches_paper_layout() {
        // 40-byte aggregates (Figure 7): count 8 B + 3 agg × 8 B... with
        // n_cols such that the record is comparable. For n_cols = 2:
        // 8 + 48 = 56 B per record, 8 B per node.
        let mut t = AggregateTrie::new(root(), 2);
        assert_eq!(t.record_bytes(), 56);
        let (mins, maxs, sums) = sample_record();
        t.insert(root().child(0), 1, &mins, &maxs, &sums);
        assert_eq!(t.size_bytes(), 5 * 8 + 56);
    }
}
