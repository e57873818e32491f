//! 64-bit hierarchical cell identifiers (S2-style encoding).
//!
//! §3.1: each quadtree subdivision is encoded with two bits; concatenating
//! the encodings of levels 0..n uniquely identifies a cell, children share
//! their parent's prefix, and containment tests reduce to bitwise
//! operations. We use the same sentinel-bit trick as Google S2:
//!
//! ```text
//! leaf  (level 30): [60 position bits] 1
//! level ℓ cell    : [2ℓ position bits] 1 [0 … 0]
//! ```
//!
//! i.e. `id = (truncated_position << 1) | sentinel`, where the sentinel `1`
//! sits at bit `2·(30−ℓ)`. This makes `level`, `parent`, `children`,
//! `range_min`/`range_max` (first/last descendant leaf), and `contains` all
//! O(1) bit arithmetic, and — crucially for the paper's storage layout —
//! sorting cells of any level by raw id sorts them along the space-filling
//! curve with ancestors adjacent to their descendants.

/// Deepest subdivision level. 30 levels × 2 bits + sentinel = 61 bits.
pub const MAX_LEVEL: u8 = 30;

/// A cell in the hierarchical grid decomposition, at any level 0..=30.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(u64);

impl CellId {
    /// The level-0 cell covering the whole domain.
    pub const ROOT: CellId = CellId(1 << (2 * MAX_LEVEL as u64));

    /// Construct from a raw id, validating the encoding.
    #[inline]
    pub fn from_raw(raw: u64) -> CellId {
        let c = CellId(raw);
        assert!(c.is_valid(), "invalid cell id {raw:#x}");
        c
    }

    /// Construct from a raw id without panicking: `None` for malformed
    /// bit patterns. This is the entry point for untrusted input (e.g.
    /// snapshot files), where [`CellId::from_raw`]'s assert would turn
    /// corruption into a crash.
    #[inline]
    pub fn try_from_raw(raw: u64) -> Option<CellId> {
        let c = CellId(raw);
        c.is_valid().then_some(c)
    }

    /// The raw 64-bit key (what GeoBlocks sorts and stores).
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// A leaf cell from its 60-bit space-filling-curve position.
    #[inline]
    pub fn from_leaf_pos(pos: u64) -> CellId {
        debug_assert!(pos < (1u64 << 60));
        CellId((pos << 1) | 1)
    }

    /// A cell at `level` from a leaf-resolution curve position (the position
    /// is truncated to the level's granularity).
    #[inline]
    pub fn from_pos_level(pos: u64, level: u8) -> CellId {
        debug_assert!(level <= MAX_LEVEL);
        CellId::from_leaf_pos(pos).parent_at(level)
    }

    /// True if the bit pattern is a well-formed cell id.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 != 0 && self.0 < (1u64 << 61) && self.0.trailing_zeros().is_multiple_of(2)
    }

    /// Lowest set bit — the sentinel marking this cell's level.
    #[inline]
    fn lsb(self) -> u64 {
        self.0 & self.0.wrapping_neg()
    }

    /// Sentinel bit value for a given level.
    #[inline]
    fn lsb_for(level: u8) -> u64 {
        1u64 << (2 * (MAX_LEVEL - level) as u64)
    }

    /// Subdivision level of this cell (0 = root, 30 = leaf).
    #[inline]
    pub fn level(self) -> u8 {
        debug_assert!(self.is_valid());
        MAX_LEVEL - (self.0.trailing_zeros() / 2) as u8
    }

    /// True for cells at [`MAX_LEVEL`].
    #[inline]
    pub fn is_leaf(self) -> bool {
        self.0 & 1 == 1
    }

    /// The 60-bit curve position of this cell's first leaf.
    #[inline]
    fn leaf_pos(self) -> u64 {
        self.range_min().0 >> 1
    }

    /// Curve position at this cell's own level (top `2·level` bits).
    #[inline]
    pub fn pos_at_own_level(self) -> u64 {
        self.leaf_pos() >> (2 * (MAX_LEVEL - self.level()) as u64)
    }

    /// First descendant leaf (as a cell id). `range_min()..=range_max()`
    /// spans every descendant of this cell, at every level.
    #[inline]
    pub fn range_min(self) -> CellId {
        CellId(self.0 - (self.lsb() - 1))
    }

    /// Last descendant leaf (as a cell id).
    #[inline]
    pub fn range_max(self) -> CellId {
        CellId(self.0 + (self.lsb() - 1))
    }

    /// Prefix containment: true if `other` (any level) is `self` or a
    /// descendant of `self`. Constant-time — the §3.1 bitwise containment.
    #[inline]
    pub fn contains(self, other: CellId) -> bool {
        other.0 >= self.range_min().0 && other.0 <= self.range_max().0
    }

    /// True if the two cells share any area (one contains the other).
    #[inline]
    pub fn intersects(self, other: CellId) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// Ancestor at `level` (must be ≤ this cell's level).
    #[inline]
    pub fn parent_at(self, level: u8) -> CellId {
        debug_assert!(level <= self.level());
        let new_lsb = Self::lsb_for(level);
        CellId((self.0 & new_lsb.wrapping_neg()) | new_lsb)
    }

    /// Immediate parent. Panics (debug) on the root.
    #[inline]
    pub fn parent(self) -> CellId {
        debug_assert!(self.level() > 0, "root has no parent");
        self.parent_at(self.level() - 1)
    }

    /// Child `k` (0..4) at the next level.
    #[inline]
    pub fn child(self, k: u8) -> CellId {
        debug_assert!(k < 4);
        debug_assert!(!self.is_leaf());
        let new_lsb = self.lsb() >> 2;
        CellId(self.0 - self.lsb() + (2 * u64::from(k) + 1) * new_lsb)
    }

    /// All four children at the next level.
    #[inline]
    pub fn children(self) -> [CellId; 4] {
        [self.child(0), self.child(1), self.child(2), self.child(3)]
    }

    /// Which child slot (0..4) this cell's ancestor occupies at `level`
    /// (1 ≤ level ≤ self.level()).
    #[inline]
    pub fn child_position(self, level: u8) -> u8 {
        debug_assert!(level >= 1 && level <= self.level());
        ((self.0 >> (2 * (MAX_LEVEL - level) as u64 + 1)) & 3) as u8
    }

    /// Next cell at the same level along the curve (may overflow past the
    /// domain end).
    #[inline]
    pub fn next(self) -> CellId {
        CellId(self.0.wrapping_add(self.lsb() << 1))
    }

    /// Raw id of the level-`level` ancestor of a raw key, as pure bit
    /// arithmetic — the hot-loop variant of [`CellId::parent_at`] for code
    /// that groups *sorted key arrays* by ancestor (the build sweep, the
    /// aggregate-pyramid folds) without round-tripping through validated
    /// `CellId`s. `raw` must encode a cell at level ≥ `level`.
    #[inline]
    pub fn raw_parent_at(raw: u64, level: u8) -> u64 {
        let lsb = Self::lsb_for(level);
        (raw & lsb.wrapping_neg()) | lsb
    }
}

impl std::fmt::Debug for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_valid() {
            write!(f, "Cell(L{}, {:#x})", self.level(), self.0)
        } else {
            write!(f, "Cell(INVALID {:#x})", self.0)
        }
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}:{:x}", self.level(), self.pos_at_own_level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_from_raw_rejects_malformed_ids() {
        assert_eq!(CellId::try_from_raw(0), None);
        assert_eq!(CellId::try_from_raw(1u64 << 62), None);
        assert_eq!(CellId::try_from_raw(0b100), Some(CellId(0b100)));
        let leaf = CellId::from_leaf_pos(12345);
        assert_eq!(CellId::try_from_raw(leaf.raw()), Some(leaf));
        // Sentinel at an odd bit position is not a valid encoding.
        assert_eq!(CellId::try_from_raw(0b10), None);
    }

    #[test]
    fn root_properties() {
        assert!(CellId::ROOT.is_valid());
        assert_eq!(CellId::ROOT.level(), 0);
        assert!(!CellId::ROOT.is_leaf());
        assert_eq!(CellId::ROOT.range_min().0, 1);
        assert_eq!(CellId::ROOT.range_max().0, (1u64 << 61) - 1);
    }

    #[test]
    fn leaf_roundtrip() {
        for pos in [0u64, 1, 12345, (1 << 60) - 1] {
            let leaf = CellId::from_leaf_pos(pos);
            assert!(leaf.is_valid());
            assert!(leaf.is_leaf());
            assert_eq!(leaf.level(), MAX_LEVEL);
            assert_eq!(leaf.leaf_pos(), pos);
        }
    }

    #[test]
    fn validity() {
        assert!(!CellId(0).is_valid());
        assert!(!CellId(2).is_valid()); // sentinel at odd position
        assert!(!CellId(1 << 62).is_valid()); // beyond the domain
        assert!(CellId(1).is_valid());
        assert!(CellId(4).is_valid());
    }

    #[test]
    fn parent_child_inverse() {
        let leaf = CellId::from_leaf_pos(0xDEAD_BEEF_CAFE);
        for level in (1..=MAX_LEVEL).rev() {
            let cell = leaf.parent_at(level);
            let parent = cell.parent();
            assert_eq!(parent.level(), level - 1);
            assert!(parent.contains(cell));
            let k = cell.child_position(level);
            assert_eq!(parent.child(k), cell, "level {level}");
        }
    }

    #[test]
    fn children_partition_range() {
        let cell = CellId::from_leaf_pos(123 << 40).parent_at(7);
        let kids = cell.children();
        assert_eq!(kids[0].range_min(), cell.range_min());
        assert_eq!(kids[3].range_max(), cell.range_max());
        for w in kids.windows(2) {
            assert_eq!(w[0].range_max().0 + 2, w[1].range_min().0);
        }
        for k in kids {
            assert_eq!(k.level(), 8);
            assert!(cell.contains(k));
            assert!(!k.contains(cell));
        }
    }

    #[test]
    fn containment_is_prefix_based() {
        let leaf = CellId::from_leaf_pos(0xABCD_EF01_2345);
        let a = leaf.parent_at(10);
        let b = leaf.parent_at(20);
        assert!(a.contains(b));
        assert!(a.contains(leaf));
        assert!(b.contains(leaf));
        assert!(!b.contains(a));
        // A sibling subtree is not contained.
        let sibling = b.next();
        assert!(!b.contains(sibling));
        assert!(!sibling.contains(b));
    }

    #[test]
    fn next_stays_on_its_level() {
        let cell = CellId::from_leaf_pos(999).parent_at(15);
        assert_eq!(cell.next().level(), 15);
        assert!(cell.next() > cell);
    }

    #[test]
    fn raw_parent_at_matches_parent_at() {
        for pos in [0u64, 3, 12345, 0xDEAD_BEEF, (1 << 60) - 1] {
            let leaf = CellId::from_leaf_pos(pos);
            for level in 0..=MAX_LEVEL {
                assert_eq!(
                    CellId::raw_parent_at(leaf.raw(), level),
                    leaf.parent_at(level).raw(),
                    "pos {pos} level {level}"
                );
                let mid = leaf.parent_at(15.max(level));
                assert_eq!(
                    CellId::raw_parent_at(mid.raw(), level.min(15)),
                    mid.parent_at(level.min(15)).raw()
                );
            }
        }
    }

    #[test]
    fn raw_order_is_curve_order_with_ancestors_between() {
        // For cells at the same level, raw-id order == curve order.
        let base = CellId::from_leaf_pos(500 << 20).parent_at(18);
        let next = base.next();
        assert!(base.raw() < next.raw());
        // An ancestor's id lies inside its own leaf range and outside a
        // sibling's.
        let parent = base.parent();
        assert!(parent.range_min().raw() <= base.raw() && base.raw() <= parent.range_max().raw());
    }

    #[test]
    fn display_and_debug() {
        let c = CellId::from_leaf_pos(3).parent_at(29);
        assert_eq!(format!("{c}"), "L29:0");
        assert!(format!("{c:?}").contains("L29"));
    }

    #[test]
    #[should_panic(expected = "invalid cell id")]
    fn from_raw_rejects_invalid() {
        CellId::from_raw(2);
    }
}
