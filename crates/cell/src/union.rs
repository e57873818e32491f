//! Sorted, normalized sets of cells (the output of the coverer).

use crate::id::CellId;

/// A set of cells, kept sorted by raw id.
///
/// Cells are pairwise disjoint (no cell contains another) and runs of
/// four complete siblings are merged into their parent, so the union is
/// the canonical minimal representation of the covered region.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CellUnion {
    cells: Vec<CellId>,
}

impl CellUnion {
    /// An empty union.
    pub fn new() -> Self {
        CellUnion::default()
    }

    /// Build from arbitrary cells, normalizing.
    pub fn from_cells(cells: Vec<CellId>) -> Self {
        let mut u = CellUnion { cells };
        u.normalize();
        u
    }

    /// Wrap cells that are already what `normalize` leaves:
    /// disjoint, in curve order, complete quartets merged (the coverer
    /// emits them that way).
    pub(crate) fn from_normalized(cells: Vec<CellId>) -> Self {
        debug_assert!(cells
            .windows(2)
            .all(|w| w[0].range_max() < w[1].range_min()));
        CellUnion { cells }
    }

    /// The cells, sorted ascending by raw id.
    #[inline]
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterate the cells in curve order.
    pub fn iter(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells.iter().copied()
    }

    /// Sort, deduplicate, drop contained cells, and merge complete sibling
    /// quartets into parents (repeatedly).
    fn normalize(&mut self) {
        self.cells.sort_unstable();
        self.cells.dedup();

        let mut out: Vec<CellId> = Vec::with_capacity(self.cells.len());
        for &cell in &self.cells {
            // Raw-id order interleaves ancestors *within* their descendants
            // (the sentinel sits mid-range), so containment must be checked
            // in both directions against the emitted tail.
            if let Some(&last) = out.last() {
                if last.contains(cell) {
                    continue;
                }
            }
            // `cell` may swallow a suffix of what was already emitted: all
            // emitted ids are ≤ cell.raw(), so anything ≥ cell.range_min()
            // is contained — a contiguous suffix.
            while let Some(&last) = out.last() {
                if cell.contains(last) {
                    out.pop();
                } else {
                    break;
                }
            }
            out.push(cell);
            // Merge complete sibling groups bottom-up.
            while out.len() >= 4 {
                let n = out.len();
                let d = out[n - 1];
                if d.level() == 0 {
                    break;
                }
                let parent = d.parent();
                if out[n - 4] == parent.child(0)
                    && out[n - 3] == parent.child(1)
                    && out[n - 2] == parent.child(2)
                    && d == parent.child(3)
                {
                    out.truncate(n - 4);
                    out.push(parent);
                } else {
                    break;
                }
            }
        }
        self.cells = out;
    }

    /// True if `target` (any level) is covered by some cell of the union.
    ///
    /// O(log n) binary search over the disjoint, sorted cells.
    pub fn contains(&self, target: CellId) -> bool {
        // Find the first cell with id >= target; the covering cell (if any)
        // is that cell or its predecessor.
        let idx = self.cells.partition_point(|c| c.raw() < target.raw());
        if idx < self.cells.len() && self.cells[idx].contains(target) {
            return true;
        }
        idx > 0 && self.cells[idx - 1].contains(target)
    }

    /// Total number of leaf cells covered (area in leaf units).
    pub fn leaf_count(&self) -> u128 {
        self.cells
            .iter()
            .map(|c| 1u128 << (2 * (crate::id::MAX_LEVEL - c.level()) as u32))
            .sum()
    }
}

impl FromIterator<CellId> for CellUnion {
    fn from_iter<T: IntoIterator<Item = CellId>>(iter: T) -> Self {
        CellUnion::from_cells(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(pos: u64) -> CellId {
        CellId::from_leaf_pos(pos)
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let c1 = leaf(100).parent_at(10);
        let c2 = leaf(1 << 50).parent_at(10);
        let u = CellUnion::from_cells(vec![c2, c1, c2]);
        assert_eq!(u.cells(), &[c1, c2]);
    }

    #[test]
    fn normalize_drops_contained() {
        let parent = leaf(100).parent_at(8);
        let child = leaf(100).parent_at(12);
        let u = CellUnion::from_cells(vec![child, parent]);
        assert_eq!(u.cells(), &[parent]);
    }

    #[test]
    fn normalize_merges_complete_siblings() {
        let p = leaf(100).parent_at(9);
        let kids = p.children().to_vec();
        let u = CellUnion::from_cells(kids);
        assert_eq!(u.cells(), &[p]);
    }

    #[test]
    fn normalize_merges_recursively() {
        let gp = leaf(100).parent_at(5);
        // All 16 grandchildren collapse to the grandparent.
        let grandkids: Vec<CellId> = gp.children().iter().flat_map(|c| c.children()).collect();
        assert_eq!(grandkids.len(), 16);
        let u = CellUnion::from_cells(grandkids);
        assert_eq!(u.cells(), &[gp]);
    }

    #[test]
    fn incomplete_siblings_not_merged() {
        let p = leaf(100).parent_at(9);
        let three = vec![p.child(0), p.child(1), p.child(2)];
        let u = CellUnion::from_cells(three.clone());
        assert_eq!(u.cells(), three.as_slice());
    }

    #[test]
    fn contains_queries() {
        let a = leaf(0).parent_at(6);
        let b = leaf(1 << 55).parent_at(10);
        let u = CellUnion::from_cells(vec![a, b]);
        assert!(u.contains(a));
        assert!(u.contains(a.child(2)));
        assert!(u.contains(b.range_min()));
        assert!(!u.contains(b.parent())); // coarser than member ⇒ not covered
        let elsewhere = leaf(1 << 59).parent_at(10);
        assert!(!u.contains(elsewhere));
    }

    #[test]
    fn contains_on_empty() {
        let u = CellUnion::new();
        assert!(!u.contains(CellId::ROOT));
        assert!(u.is_empty());
        assert_eq!(u.len(), 0);
    }

    #[test]
    fn leaf_count_accumulates() {
        let a = leaf(0).parent_at(29); // 4 leaves
        let far = leaf(1 << 59); // 1 leaf
        let u = CellUnion::from_cells(vec![a, far]);
        assert_eq!(u.leaf_count(), 5);
    }

    #[test]
    fn from_iterator() {
        let u: CellUnion = (0..4u8).map(|k| leaf(77).parent_at(9).child(k)).collect();
        assert_eq!(u.cells(), &[leaf(77).parent_at(9)]);
    }
}
