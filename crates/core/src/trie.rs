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
//! per-cell [`AggregateTrie::node_for_walk`] chases one pointer per
//! level — a dependent-load chain that dominates covering-sized probe
//! loops. Because every allocated node corresponds to exactly one cell
//! id, the trie also carries a *derived* read-side layout, built once at
//! publish time ([`AggregateTrie::build_flat_index`]): the raw id of
//! every cell that carries a cached aggregate in one array sorted
//! ascending (raw order *is* space-filling-curve order, so a covering's
//! probe stream sweeps it monotonically), with the record offset beside
//! it. A [`FlatCursor`] resolves each probe by galloping forward from
//! the previous match — ~one compare per probe on a sorted covering,
//! hit or miss, and the node array is never touched. The index is pure
//! acceleration state: cleared by structural mutation
//! ([`AggregateTrie::insert`]), preserved when an update overwrites
//! cached records in place, excluded from
//! [`AggregateTrie::content_hash`] and the snapshot encoding, and not
//! counted by [`AggregateTrie::size_bytes`] (the Figure-18 budget
//! bounds the paper's node + record layout; the index is
//! reconstructible from it). A trie between a structural mutation and
//! the next [`AggregateTrie::build_flat_index`] answers every lookup
//! with a miss — the block then answers the cell, which is still the
//! right answer — and every publish point (rebuild, snapshot load)
//! builds the index. A proptest holds the cursor identical to the
//! pointer walk.

use crate::aggregate::RecordRef;
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
    /// Derived read-side index: the raw id of every cell whose node
    /// carries a cached aggregate, sorted ascending, with the record
    /// offset (`TrieNode::agg`) aligned index-for-index in `flat_aggs`
    /// (struct-of-arrays, so searches touch only the key column). Raw
    /// order is curve order, so a covering's sorted probe stream advances
    /// through this array monotonically. Record offsets stay valid across
    /// `AggregateTrie::refresh_path`, which overwrites records in place
    /// and never reassigns them.
    flat_keys: Vec<u64>,
    flat_aggs: Vec<u32>,
}

/// A stateful probe over the flat index for ascending probe streams
/// (covering cells arrive sorted by raw id): each lookup gallops forward
/// from the previous match (O(log gap)) and only falls back to a full
/// binary search when the stream jumps backward. Any probe order is
/// correct — out-of-order probes just pay the binary search — and every
/// answer is what [`AggregateTrie::node_for_walk`] +
/// [`AggregateTrie::agg_of`] find.
#[derive(Debug)]
pub struct FlatCursor<'a> {
    trie: &'a AggregateTrie,
    /// Borrowed index columns — one pointer hop shorter than going
    /// through `trie` on every probe.
    keys: &'a [u64],
    aggs: &'a [u32],
    /// Position of the previous match in the index.
    pos: usize,
}

impl<'a> FlatCursor<'a> {
    /// The cached aggregate of `cell`, if the trie holds one.
    pub fn lookup(&mut self, cell: CellId) -> Option<RecordRef<'a>> {
        let raw = cell.raw();
        // Resume forward only when the stream is still ascending past the
        // previous position; a backward jump (new covering, out-of-order
        // probe) or a position past the end restarts with a binary search.
        let i = match self.keys.get(self.pos) {
            Some(&k) if k <= raw => gallop::lower_bound_from(self.keys, raw, self.pos),
            _ => self.keys.partition_point(|&key| key < raw),
        };
        self.pos = i;
        match (self.keys.get(i), self.aggs.get(i)) {
            (Some(&key), Some(&agg)) if key == raw => Some(self.trie.agg_view(agg)),
            _ => None,
        }
    }
}

impl AggregateTrie {
    /// An empty trie rooted at `root_cell` for `n_cols` columns.
    pub fn new(root_cell: CellId, n_cols: usize) -> Self {
        AggregateTrie {
            root_cell,
            nodes: vec![TrieNode {
                first_child: NO_CHILD,
                agg: NO_AGG,
            }],
            n_cols,
            agg_counts: Vec::new(),
            agg_values: Vec::new(),
            flat_keys: Vec::new(),
            flat_aggs: Vec::new(),
        }
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

    /// A stateful probe for sorted probe streams — the covering loop's
    /// lookup path (the adapted SELECT probes covering cells in
    /// ascending raw order, so consecutive lookups resolve from one
    /// forward cache-line scan instead of a full search).
    pub fn flat_cursor(&self) -> FlatCursor<'_> {
        FlatCursor {
            trie: self,
            keys: &self.flat_keys,
            aggs: &self.flat_aggs,
            pos: 0,
        }
    }

    /// Index of the trie node for `cell`, if the path exists, by the
    /// per-level pointer walk — the reference [`FlatCursor::lookup`] is
    /// benchmarked and property-tested against.
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

    /// (Re)build the read-side flat index: a DFS from the root assigns
    /// every allocated node its cell id, and the cells that carry a
    /// record are sorted by raw id into the struct-of-arrays layout.
    /// Called at publish time (trie rebuild, snapshot load) so queries
    /// never pay the pointer walk.
    pub fn build_flat_index(&mut self) {
        let mut pairs = Vec::with_capacity(self.agg_counts.len());
        let mut stack = vec![(0u32, self.root_cell)];
        while let Some((node, cell)) = stack.pop() {
            let Some(&TrieNode { first_child, agg }) = self.nodes.get(node as usize) else {
                continue;
            };
            if agg != NO_AGG {
                pairs.push((cell.raw(), agg));
            }
            if first_child != NO_CHILD && cell.level() < MAX_LEVEL {
                for k in 0..4u8 {
                    stack.push((first_child + u32::from(k), cell.child(k)));
                }
            }
        }
        pairs.sort_unstable_by_key(|&(raw, _)| raw);
        // Aliased child pointers (possible only in adversarial snapshot
        // input) could list a cell twice; keep one so the search stays
        // a function.
        pairs.dedup_by_key(|&mut (raw, _)| raw);
        self.flat_keys = pairs.iter().map(|&(raw, _)| raw).collect();
        self.flat_aggs = pairs.iter().map(|&(_, agg)| agg).collect();
    }

    /// The cached aggregate of a node, if present.
    pub fn agg_of(&self, node: u32) -> Option<RecordRef<'_>> {
        let idx = self.nodes[node as usize].agg;
        (idx != NO_AGG).then(|| self.agg_view(idx))
    }

    fn agg_view(&self, idx: u32) -> RecordRef<'_> {
        let c = self.n_cols;
        let base = idx as usize * 3 * c;
        RecordRef {
            count: self.agg_counts[idx as usize],
            mins: &self.agg_values[base..base + c],
            maxs: &self.agg_values[base + c..base + 2 * c],
            sums: &self.agg_values[base + 2 * c..base + 3 * c],
        }
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
        self.flat_aggs.clear();

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
            self.write_record(idx, count, mins, maxs, sums);
        }
    }

    /// Overwrite the record at offset `idx` of the aggregate storage.
    fn write_record(&mut self, idx: usize, count: u64, mins: &[f64], maxs: &[f64], sums: &[f64]) {
        let c = self.n_cols;
        self.agg_counts[idx] = count;
        let record = &mut self.agg_values[idx * 3 * c..(idx + 1) * 3 * c];
        record[..c].copy_from_slice(mins);
        record[c..2 * c].copy_from_slice(maxs);
        record[2 * c..].copy_from_slice(sums);
    }

    /// The §5 update walk ("a single depth-first traversal"): overwrite
    /// every cached record on the path from the root towards `leaf` with
    /// what `record_of` returns for its cell — the block's canonical
    /// record, so a cached aggregate stays a bit-exact copy of it. (`None`
    /// leaves the record as it is: the block has a record for every cell
    /// above a tuple down to the block level, and no covering names a
    /// finer one.) Records are rewritten in place and no node is
    /// allocated, so the flat index stays valid.
    pub(crate) fn refresh_path<'r>(
        &mut self,
        leaf: CellId,
        mut record_of: impl FnMut(CellId) -> Option<RecordRef<'r>>,
    ) {
        if !self.root_cell.contains(leaf) {
            return;
        }
        let mut cur = 0u32;
        let mut level = self.root_cell.level();
        loop {
            let agg = self.nodes[cur as usize].agg;
            if agg != NO_AGG {
                if let Some(r) = record_of(leaf.parent_at(level)) {
                    self.write_record(agg as usize, r.count, r.mins, r.maxs, r.sums);
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
            flat_aggs: Vec::new(),
        };
        // Snapshot loads are publish points: hand queries the flat path.
        trie.build_flat_index();
        Ok(trie)
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
        assert!(t.node_for_walk(root()).is_some());
        assert!(t.agg_of(t.node_for_walk(root()).unwrap()).is_none());
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = AggregateTrie::new(root(), 2);
        let cell = root().child(2).child(1);
        let (mins, maxs, sums) = sample_record();
        t.insert(cell, 7, &mins, &maxs, &sums);
        let node = t.node_for_walk(cell).expect("path exists");
        let agg = t.agg_of(node).expect("agg cached");
        assert_eq!(agg.count, 7);
        assert_eq!(agg.min(0), 1.0);
        assert_eq!(agg.max(1), 5.0);
        assert_eq!(agg.sum(0), 30.0);
        // Interior path node exists but carries no aggregate.
        let mid = t.node_for_walk(root().child(2)).unwrap();
        assert!(t.agg_of(mid).is_none());
        // Sibling exists structurally (block allocation) but is empty.
        let sib = t.node_for_walk(root().child(2).child(3)).unwrap();
        assert!(t.agg_of(sib).is_none());
    }

    #[test]
    fn lookup_misses() {
        let mut t = AggregateTrie::new(root(), 2);
        let (mins, maxs, sums) = sample_record();
        t.insert(root().child(0), 1, &mins, &maxs, &sums);
        // No path below child(1).
        assert!(t.node_for_walk(root().child(1).child(0)).is_none());
        // Outside the root entirely.
        let outside = root().next();
        assert!(t.node_for_walk(outside).is_none());
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
        let agg = t.agg_of(t.node_for_walk(cell).unwrap()).unwrap();
        assert_eq!(agg.count, 9);
        assert_eq!(agg.sum(1), 2.0);
    }

    #[test]
    fn refresh_path_overwrites_cached_ancestors_only() {
        let mut t = AggregateTrie::new(root(), 1);
        t.insert(root(), 10, &[0.0], &[5.0], &[20.0]);
        t.insert(root().child(1), 4, &[1.0], &[4.0], &[8.0]);
        t.insert(root().child(0).child(2), 1, &[2.0], &[2.0], &[2.0]);
        t.build_flat_index();
        fn count_of(t: &AggregateTrie, cell: CellId) -> RecordRef<'_> {
            t.agg_of(t.node_for_walk(cell).unwrap()).unwrap()
        }
        // The "block": the record of a cell is a function of its level.
        let (mins, maxs, sums) = ([-1.0], [9.0], [0.1 + 0.2]);
        let mut asked = Vec::new();
        // A leaf below child(1): the root and child(1) are overwritten.
        let leaf = root().child(1).child_begin(30);
        t.refresh_path(leaf, |cell| {
            asked.push(cell);
            Some(RecordRef {
                count: 100 + u64::from(cell.level()),
                mins: &mins,
                maxs: &maxs,
                sums: &sums,
            })
        });
        assert_eq!(asked, [root(), root().child(1)], "cached ancestors only");
        let r = count_of(&t, root());
        assert_eq!((r.count, r.min(0), r.max(0)), (104, -1.0, 9.0));
        assert_eq!(r.sum(0).to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(count_of(&t, root().child(1)).count, 105);
        assert_eq!(
            count_of(&t, root().child(0).child(2)).count,
            1,
            "off the path"
        );
        // No record for a cell, or a leaf outside the root: nothing changes.
        let before = t.content_hash();
        t.refresh_path(leaf, |_| None);
        t.refresh_path(root().next().child_begin(30), |_| {
            panic!("outside the root")
        });
        assert_eq!(t.content_hash(), before);
        // In-place overwrites keep the index valid.
        let via_index = t.flat_cursor().lookup(root().child(1));
        assert_eq!(via_index.map(|agg| agg.count), Some(105));
    }

    #[test]
    fn flat_index_matches_walk_and_unindexed_tries_miss() {
        let mut t = AggregateTrie::new(root(), 1);
        t.insert(root().child(2).child(1), 7, &[1.0], &[2.0], &[3.0]);
        t.insert(root().child(0), 1, &[0.0], &[0.0], &[0.0]);
        // Every allocated node, plus misses inside and outside the root.
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
        // Without its index the trie answers nothing (the block would).
        for cell in probes {
            assert!(t.flat_cursor().lookup(cell).is_none());
        }
        t.build_flat_index();
        // With it, cursor and walk agree — in this (unsorted) order too.
        let mut cursor = t.flat_cursor();
        for cell in probes {
            let walked = t.node_for_walk(cell).and_then(|n| t.agg_of(n));
            let found = cursor.lookup(cell);
            assert_eq!(found.map(|a| a.count), walked.map(|a| a.count), "{cell:?}");
        }
        assert_eq!(cursor.lookup(root().child(0)).map(|a| a.count), Some(1));
        // A structural mutation drops the derived index again.
        t.insert(root().child(3), 2, &[0.0], &[0.0], &[0.0]);
        assert!(t.flat_cursor().lookup(root().child(0)).is_none());
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
