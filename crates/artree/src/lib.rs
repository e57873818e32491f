//! A from-scratch aggregate R-tree (aR-tree) — the paper's pre-aggregating
//! baseline (§4.1, Listing 3, Figure 9).
//!
//! The aR-tree (Papadias et al., SSTD 2001) enhances the R-tree by storing,
//! for every node, the aggregate over all data entries in its subtree, so
//! queries can consume whole subtrees in O(1) when a node's MBR is fully
//! contained in the search region. Following the paper:
//!
//! * fanout 16 ("each node covers a region r and has up to 16 child nodes"),
//! * R\*-style insertion (ChooseSubtree with overlap enlargement at the leaf
//!   level, margin-driven split-axis selection) to minimise node overlap,
//! * the **Listing-3 query**: (a) if one child's region contains the search
//!   area, recurse into only that child; (b) children contained in the
//!   search area contribute their aggregate directly; (c) partially
//!   overlapping children are recursed into afterwards. As in the paper,
//!   overlapping internal nodes can be counted **multiple times** — the
//!   result is an upper bound, visiting exactly the nodes the original
//!   aR-tree visits.
//!
//! The aggregate payload is generic (the [`Aggregate`] trait), keeping this
//! crate independent of the GeoBlocks schema machinery.

use gb_geom::{Point, Rect};

/// A mergeable aggregate record (count/min/max/sum bundles, etc.).
pub trait Aggregate: Clone {
    /// Fold `other` into `self`.
    fn merge_from(&mut self, other: &Self);
}

/// Maximum entries per node (the paper's node size).
pub const MAX_ENTRIES: usize = 16;
/// Minimum fill after a split (40 % of the maximum, the R* recommendation).
pub const MIN_ENTRIES: usize = 6;

#[derive(Debug, Clone)]
struct Node<A> {
    /// 0 = leaf.
    level: u32,
    mbr: Rect,
    agg: Option<A>,
    /// Child node indices (internal nodes).
    children: Vec<u32>,
    /// Data entries (leaves).
    data: Vec<(Point, A)>,
}

impl<A: Aggregate> Node<A> {
    fn new(level: u32) -> Self {
        Node {
            level,
            mbr: Rect::empty(),
            agg: None,
            children: Vec::new(),
            data: Vec::new(),
        }
    }

    fn is_leaf(&self) -> bool {
        self.level == 0
    }

    fn num_entries(&self) -> usize {
        if self.is_leaf() {
            self.data.len()
        } else {
            self.children.len()
        }
    }

    fn merge_agg(&mut self, other: &A) {
        match &mut self.agg {
            Some(a) => a.merge_from(other),
            None => self.agg = Some(other.clone()),
        }
    }
}

/// The aggregate R-tree.
#[derive(Debug, Clone)]
pub struct ARTree<A> {
    nodes: Vec<Node<A>>,
    root: u32,
    len: usize,
}

impl<A: Aggregate> Default for ARTree<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Aggregate> ARTree<A> {
    /// An empty tree (a single empty leaf as root).
    pub fn new() -> Self {
        ARTree {
            nodes: vec![Node::new(0)],
            root: 0,
            len: 0,
        }
    }

    /// Number of data entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.nodes[self.root as usize].level as usize + 1
    }

    /// Total node count (for size accounting and tests).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate heap usage given the in-memory size of one aggregate.
    ///
    /// Figure 11b accounts the per-node aggregate records (Figure 9's "cell
    /// aggregates" referenced by offset) plus node structure.
    pub fn memory_bytes(&self, agg_bytes: usize) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                32 // MBR
                    + agg_bytes
                    + n.children.len() * 4
                    + n.data.len() * (16 + agg_bytes)
            })
            .sum()
    }

    /// Insert a point with its aggregate record.
    pub fn insert(&mut self, point: Point, agg: A) {
        self.len += 1;
        // Descend to a leaf, remembering the path.
        let mut path: Vec<u32> = Vec::with_capacity(8);
        let mut cur = self.root;
        loop {
            path.push(cur);
            let node = &self.nodes[cur as usize];
            if node.is_leaf() {
                break;
            }
            cur = self.choose_subtree(node, point);
        }

        // Update MBR + aggregates along the path.
        for &ni in &path {
            let node = &mut self.nodes[ni as usize];
            node.mbr = node.mbr.expanded(point);
            node.merge_agg(&agg);
        }

        // Insert into the leaf, split upward while overflowing.
        self.nodes[cur as usize].data.push((point, agg));
        let mut child_level = 0usize;
        while self.nodes[path[path.len() - 1 - child_level] as usize].num_entries() > MAX_ENTRIES {
            let ni = path[path.len() - 1 - child_level];
            let new_node = self.split(ni);
            if path.len() - 1 - child_level == 0 {
                // Split the root: grow the tree.
                let old_root = self.root;
                let mut root = Node::new(self.nodes[old_root as usize].level + 1);
                root.children = vec![old_root, new_node];
                self.recompute(&mut root);
                self.nodes.push(root);
                self.root = (self.nodes.len() - 1) as u32;
                break;
            }
            let parent = path[path.len() - 2 - child_level];
            self.nodes[parent as usize].children.push(new_node);
            child_level += 1;
        }
    }

    /// R* ChooseSubtree: least overlap enlargement when children are
    /// leaves, least area enlargement otherwise; ties by area.
    fn choose_subtree(&self, node: &Node<A>, point: Point) -> u32 {
        let children_are_leaves = node.level == 1;
        let mut best = node.children[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &ci in &node.children {
            let c = &self.nodes[ci as usize];
            let enlarged = c.mbr.expanded(point);
            let area_growth = enlarged.area() - c.mbr.area();
            let overlap_growth = if children_are_leaves {
                let mut delta = 0.0;
                for &oi in &node.children {
                    if oi == ci {
                        continue;
                    }
                    let other = &self.nodes[oi as usize].mbr;
                    delta += enlarged.intersection(other).area() - c.mbr.intersection(other).area();
                }
                delta
            } else {
                0.0
            };
            let key = (overlap_growth, area_growth, c.mbr.area());
            if key < best_key {
                best_key = key;
                best = ci;
            }
        }
        best
    }

    /// R*-style split of an overflowing node; returns the new node's index.
    fn split(&mut self, ni: u32) -> u32 {
        let level = self.nodes[ni as usize].level;
        let rects: Vec<Rect> = if level == 0 {
            self.nodes[ni as usize]
                .data
                .iter()
                .map(|(p, _)| Rect::new(*p, *p))
                .collect()
        } else {
            self.nodes[ni as usize]
                .children
                .iter()
                .map(|&c| self.nodes[c as usize].mbr)
                .collect()
        };

        let (split_order, split_at) = rstar_split(&rects);

        // Partition entries according to the chosen ordering.
        let mut right = Node::new(level);
        if level == 0 {
            let data = std::mem::take(&mut self.nodes[ni as usize].data);
            let mut left_data = Vec::with_capacity(split_at);
            let mut right_data = Vec::with_capacity(data.len() - split_at);
            let mut reordered: Vec<Option<(Point, A)>> = data.into_iter().map(Some).collect();
            for (i, &idx) in split_order.iter().enumerate() {
                let e = reordered[idx].take().expect("each index once");
                if i < split_at {
                    left_data.push(e);
                } else {
                    right_data.push(e);
                }
            }
            self.nodes[ni as usize].data = left_data;
            right.data = right_data;
        } else {
            let children = std::mem::take(&mut self.nodes[ni as usize].children);
            let mut left_ch = Vec::with_capacity(split_at);
            let mut right_ch = Vec::with_capacity(children.len() - split_at);
            for (i, &idx) in split_order.iter().enumerate() {
                if i < split_at {
                    left_ch.push(children[idx]);
                } else {
                    right_ch.push(children[idx]);
                }
            }
            self.nodes[ni as usize].children = left_ch;
            right.children = right_ch;
        }

        // Recompute both halves' MBR + aggregate from scratch.
        let mut left = std::mem::replace(&mut self.nodes[ni as usize], Node::new(level));
        self.recompute(&mut left);
        self.nodes[ni as usize] = left;
        self.recompute(&mut right);
        self.nodes.push(right);
        (self.nodes.len() - 1) as u32
    }

    /// Recompute a node's MBR and aggregate from its entries.
    fn recompute(&self, node: &mut Node<A>) {
        node.mbr = Rect::empty();
        node.agg = None;
        if node.is_leaf() {
            for (p, a) in &node.data {
                node.mbr = node.mbr.expanded(*p);
                match &mut node.agg {
                    Some(acc) => acc.merge_from(a),
                    None => node.agg = Some(a.clone()),
                }
            }
        } else {
            for &ci in &node.children {
                let c = &self.nodes[ci as usize];
                node.mbr = node.mbr.union(&c.mbr);
                if let Some(ca) = &c.agg {
                    match &mut node.agg {
                        Some(acc) => acc.merge_from(ca),
                        None => node.agg = Some(ca.clone()),
                    }
                }
            }
        }
    }

    /// The root aggregate (everything in the tree), if non-empty.
    pub fn root_aggregate(&self) -> Option<&A> {
        self.nodes[self.root as usize].agg.as_ref()
    }

    /// Listing-3 lookup: aggregate everything overlapping `search` into
    /// `result` via `merge`. Returns the number of nodes visited.
    ///
    /// Faithful to the paper: if a child fully contains the search area the
    /// query recurses into *only* that child; contained children contribute
    /// their pre-aggregated record; partial overlaps recurse. Overlapping
    /// siblings can therefore be double-counted (upper-bound semantics).
    pub fn query(&self, search: &Rect, result: &mut A) -> usize {
        self.query_node(self.root, search, result)
    }

    fn query_node(&self, ni: u32, search: &Rect, result: &mut A) -> usize {
        let node = &self.nodes[ni as usize];
        let mut visited = 1usize;

        if node.is_leaf() {
            for (p, a) in &node.data {
                if search.contains_point(*p) {
                    result.merge_from(a);
                }
            }
            return visited;
        }

        let mut partial: Vec<u32> = Vec::new();
        for &ci in &node.children {
            let c = &self.nodes[ci as usize];
            if c.mbr.contains_rect(search) {
                // Case (a): one child covers the whole search area.
                return visited + self.query_node(ci, search, result);
            }
            if search.contains_rect(&c.mbr) {
                // Case (b): whole subtree qualifies — use the aggregate.
                if let Some(a) = &c.agg {
                    result.merge_from(a);
                }
            } else if search.intersects(&c.mbr) {
                // Case (c): defer.
                partial.push(ci);
            }
        }
        for ci in partial {
            visited += self.query_node(ci, search, result);
        }
        visited
    }
}

/// R* split: returns (entry ordering, split position) for an overflowing
/// entry set, choosing the axis with minimal margin sum and the
/// distribution with minimal overlap (ties: minimal total area).
fn rstar_split(rects: &[Rect]) -> (Vec<usize>, usize) {
    let n = rects.len();
    debug_assert!(n > MAX_ENTRIES);
    let m = MIN_ENTRIES;

    // Candidate orderings: by lower then by upper coordinate, per axis.
    let mut orderings: Vec<(Vec<usize>, f64)> = Vec::with_capacity(4);
    for axis in 0..2 {
        for by_upper in [false, true] {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                let (va, vb) = if axis == 0 {
                    if by_upper {
                        (rects[a].max.x, rects[b].max.x)
                    } else {
                        (rects[a].min.x, rects[b].min.x)
                    }
                } else if by_upper {
                    (rects[a].max.y, rects[b].max.y)
                } else {
                    (rects[a].min.y, rects[b].min.y)
                };
                va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal)
            });
            // Margin sum over all legal distributions.
            let mut margin_sum = 0.0;
            for k in m..=(n - m) {
                let (bb1, bb2) = group_bbs(rects, &order, k);
                margin_sum += bb1.margin() + bb2.margin();
            }
            orderings.push((order, margin_sum));
        }
    }
    // Pick the ordering (axis) with the least margin sum.
    let (order, _) = orderings
        .into_iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("at least one ordering");

    // Within it, pick the distribution minimizing overlap, then area.
    let mut best_k = m;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for k in m..=(n - m) {
        let (bb1, bb2) = group_bbs(rects, &order, k);
        let key = (bb1.intersection(&bb2).area(), bb1.area() + bb2.area());
        if key < best_key {
            best_key = key;
            best_k = k;
        }
    }
    (order, best_k)
}

fn group_bbs(rects: &[Rect], order: &[usize], k: usize) -> (Rect, Rect) {
    let mut bb1 = Rect::empty();
    for &i in &order[..k] {
        bb1 = bb1.union(&rects[i]);
    }
    let mut bb2 = Rect::empty();
    for &i in &order[k..] {
        bb2 = bb2.union(&rects[i]);
    }
    (bb1, bb2)
}

/// A simple count aggregate, used in tests and as a building block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountAgg(pub u64);

impl Aggregate for CountAgg {
    fn merge_from(&mut self, other: &Self) {
        self.0 += other.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: u32) -> Vec<Point> {
        (0..n)
            .flat_map(|x| (0..n).map(move |y| Point::new(x as f64, y as f64)))
            .collect()
    }

    fn build(points: &[Point]) -> ARTree<CountAgg> {
        let mut t = ARTree::new();
        for &p in points {
            t.insert(p, CountAgg(1));
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t: ARTree<CountAgg> = ARTree::new();
        assert!(t.is_empty());
        assert!(t.root_aggregate().is_none());
        let mut acc = CountAgg(0);
        t.query(&Rect::from_bounds(0.0, 0.0, 1.0, 1.0), &mut acc);
        assert_eq!(acc.0, 0);
    }

    #[test]
    fn root_aggregate_counts_everything() {
        let t = build(&grid_points(20));
        assert_eq!(t.len(), 400);
        assert_eq!(t.root_aggregate(), Some(&CountAgg(400)));
        assert!(t.height() >= 2);
    }

    #[test]
    fn nodes_respect_fanout() {
        let t = build(&grid_points(25));
        for n in &t.nodes {
            assert!(
                n.num_entries() <= MAX_ENTRIES,
                "node has {} entries",
                n.num_entries()
            );
        }
    }

    #[test]
    fn query_whole_space_counts_all() {
        let t = build(&grid_points(20));
        let mut acc = CountAgg(0);
        t.query(&Rect::from_bounds(-1.0, -1.0, 30.0, 30.0), &mut acc);
        assert_eq!(acc.0, 400);
    }

    #[test]
    fn query_counts_are_upper_bounds_and_exact_on_separated_data() {
        // Two well-separated clusters: no node overlap, so Listing 3 is
        // exact here.
        let mut pts = grid_points(10);
        pts.extend(
            (0..100).map(|i| Point::new(1000.0 + (i % 10) as f64, 1000.0 + (i / 10) as f64)),
        );
        let t = build(&pts);
        let mut acc = CountAgg(0);
        t.query(&Rect::from_bounds(999.0, 999.0, 1010.0, 1010.0), &mut acc);
        assert_eq!(acc.0, 100);
        // And in general: never an underestimate.
        let window = Rect::from_bounds(2.5, 2.5, 6.5, 6.5);
        let exact = grid_points(10)
            .iter()
            .filter(|p| window.contains_point(**p))
            .count() as u64;
        let mut acc = CountAgg(0);
        t.query(&window, &mut acc);
        assert!(acc.0 >= exact, "acc {} < exact {exact}", acc.0);
    }

    #[test]
    fn listing3_point_queries_may_be_inexact_but_bounded() {
        // Listing 3's case (a) recurses into only the FIRST child whose
        // region contains the search area. When sibling MBRs overlap on the
        // query, the result can be wrong in either direction — exactly the
        // imprecision the paper reports for the aRTree in Figures 14/15.
        // We assert the result is sane (≤ total) and that a window clear of
        // cluster boundaries is exact.
        let t = build(&grid_points(20));
        let mut acc = CountAgg(0);
        t.query(&Rect::from_bounds(5.0, 7.0, 5.0, 7.0), &mut acc);
        assert!(acc.0 <= t.len() as u64);

        // Separated data: exact.
        let far: Vec<Point> = (0..50)
            .map(|i| Point::new(10_000.0 + i as f64, 5.0))
            .collect();
        let mut t2 = build(&grid_points(10));
        for &p in &far {
            t2.insert(p, CountAgg(1));
        }
        let mut acc2 = CountAgg(0);
        t2.query(&Rect::from_bounds(9_999.0, 0.0, 20_000.0, 10.0), &mut acc2);
        assert_eq!(acc2.0, 50);
    }

    #[test]
    fn aggregates_consistent_after_many_splits() {
        // Clustered insert order stresses choose_subtree + splits.
        let mut pts = Vec::new();
        for c in 0..5 {
            for i in 0..200 {
                pts.push(Point::new(
                    (c * 100) as f64 + (i % 14) as f64 * 0.5,
                    (c * 50) as f64 + (i / 14) as f64 * 0.7,
                ));
            }
        }
        let t = build(&pts);
        assert_eq!(t.root_aggregate(), Some(&CountAgg(1000)));
        // Every internal node's aggregate equals the sum of its children's.
        for n in &t.nodes {
            if !n.is_leaf() {
                let sum: u64 = n
                    .children
                    .iter()
                    .filter_map(|&c| t.nodes[c as usize].agg.map(|a| a.0))
                    .sum();
                assert_eq!(n.agg.map(|a| a.0), Some(sum));
            }
        }
    }

    #[test]
    fn disjoint_query_returns_zero() {
        let t = build(&grid_points(10));
        let mut acc = CountAgg(0);
        t.query(&Rect::from_bounds(100.0, 100.0, 110.0, 110.0), &mut acc);
        assert_eq!(acc.0, 0);
    }

    #[test]
    fn memory_accounting() {
        let t = build(&grid_points(20));
        let bytes = t.memory_bytes(40);
        // 400 data entries × (16 + 40) alone is 22400.
        assert!(bytes > 22_000, "bytes {bytes}");
    }

    #[test]
    fn visited_node_count_small_for_point_queries() {
        let t = build(&grid_points(32)); // 1024 points
        let mut acc = CountAgg(0);
        let visited = t.query(&Rect::from_bounds(3.0, 3.0, 3.9, 3.9), &mut acc);
        assert!(
            visited < t.node_count() / 2,
            "visited {visited} of {}",
            t.node_count()
        );
    }
}
