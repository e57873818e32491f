//! The grid: a bounded rectangular world domain mapped onto the cell
//! hierarchy by the Hilbert curve.
//!
//! This is the planar stand-in for S2's sphere decomposition (see the
//! substitution table in `DESIGN.md`). A [`Grid`] owns the world rectangle
//! and converts between world coordinates, grid coordinates, and
//! [`CellId`]s. The paper's error bound is exposed as
//! [`Grid::cell_diagonal`] per level and [`Grid::level_for_error`]
//! ("the user can specify the error bound by choosing an appropriate cell
//! level so that the cell's diagonal is not greater than her desired
//! error", §3.2).

use crate::curve;
use crate::id::{CellId, MAX_LEVEL};
use gb_geom::{Point, Rect};

/// Number of grid columns/rows at leaf resolution.
const LEAF_SIDE: u64 = 1 << MAX_LEVEL as u64;

/// A bounded 2-D domain decomposed into the hierarchical cell grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    rect: Rect,
}

impl Grid {
    /// A Hilbert-enumerated grid over `rect` (the paper's configuration).
    ///
    /// Panics if the rectangle is empty or degenerate.
    pub fn hilbert(rect: Rect) -> Self {
        assert!(!rect.is_empty(), "grid domain must be non-empty");
        assert!(
            rect.width() > 0.0 && rect.height() > 0.0,
            "grid domain must have positive extent"
        );
        assert!(rect.min.is_finite() && rect.max.is_finite());
        Grid { rect }
    }

    /// The world-coordinate domain.
    #[inline]
    pub fn domain(&self) -> Rect {
        self.rect
    }

    /// Integer grid coordinates of a world point at leaf resolution.
    ///
    /// Points outside the domain are clamped onto its border — GeoBlocks is
    /// built over a domain chosen to contain the (cleaned) data, so this
    /// only matters for query polygons that stick out of the domain, where
    /// clamping matches "nothing beyond the domain can match".
    #[inline]
    pub fn leaf_ij(&self, p: Point) -> (u32, u32) {
        let fx = ((p.x - self.rect.min.x) / self.rect.width()).clamp(0.0, 1.0);
        let fy = ((p.y - self.rect.min.y) / self.rect.height()).clamp(0.0, 1.0);
        let i = ((fx * LEAF_SIDE as f64) as u64).min(LEAF_SIDE - 1) as u32;
        let j = ((fy * LEAF_SIDE as f64) as u64).min(LEAF_SIDE - 1) as u32;
        (i, j)
    }

    /// Leaf cell containing the world point (§3.1 "point approximation").
    #[inline]
    pub fn leaf_for_point(&self, p: Point) -> CellId {
        let (i, j) = self.leaf_ij(p);
        CellId::from_leaf_pos(curve::xy_to_d(MAX_LEVEL, i, j))
    }

    /// Cell at `level` containing the world point.
    #[inline]
    pub fn cell_for_point(&self, p: Point, level: u8) -> CellId {
        self.leaf_for_point(p).parent_at(level)
    }

    /// World-coordinate rectangle covered by `cell`.
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        let level = cell.level();
        let side = 1u64 << u64::from(level);
        let pos = cell.pos_at_own_level();
        let (i, j) = if level == 0 {
            (0, 0)
        } else {
            curve::d_to_xy(level, pos)
        };
        let w = self.rect.width() / side as f64;
        let h = self.rect.height() / side as f64;
        let x0 = self.rect.min.x + f64::from(i) * w;
        let y0 = self.rect.min.y + f64::from(j) * h;
        Rect::from_bounds(x0, y0, x0 + w, y0 + h)
    }

    /// Side lengths (ε₁, ε₂) of a cell at `level`.
    #[inline]
    pub fn cell_size(&self, level: u8) -> (f64, f64) {
        let side = (1u64 << u64::from(level)) as f64;
        (self.rect.width() / side, self.rect.height() / side)
    }

    /// Cell diagonal √(ε₁² + ε₂²) at `level` — the §3.2 maximum spatial
    /// error of a covering whose boundary cells are at `level`.
    #[inline]
    pub fn cell_diagonal(&self, level: u8) -> f64 {
        let (w, h) = self.cell_size(level);
        (w * w + h * h).sqrt()
    }

    /// Smallest (coarsest) level whose cell diagonal is ≤ `max_error`,
    /// or [`MAX_LEVEL`] if even leaves are larger.
    pub fn level_for_error(&self, max_error: f64) -> u8 {
        assert!(max_error > 0.0, "error bound must be positive");
        for level in 0..=MAX_LEVEL {
            if self.cell_diagonal(level) <= max_error {
                return level;
            }
        }
        MAX_LEVEL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid() -> Grid {
        Grid::hilbert(Rect::from_bounds(0.0, 0.0, 1.0, 1.0))
    }

    #[test]
    fn point_to_leaf_roundtrip_region() {
        let g = unit_grid();
        let p = Point::new(0.3, 0.7);
        let leaf = g.leaf_for_point(p);
        let r = g.cell_rect(leaf);
        assert!(r.contains_point(p), "leaf rect {r:?} must contain {p:?}");
        // Leaf rects are tiny.
        assert!(r.width() <= 1.0 / (1u64 << 30) as f64 * 1.0001);
    }

    #[test]
    fn cell_rect_nests() {
        let g = Grid::hilbert(Rect::from_bounds(-10.0, 5.0, 30.0, 25.0));
        let p = Point::new(12.0, 17.5);
        let leaf = g.leaf_for_point(p);
        let mut prev = g.cell_rect(leaf.parent_at(0));
        for level in 1..=12u8 {
            let r = g.cell_rect(leaf.parent_at(level));
            assert!(
                prev.contains_rect(&r),
                "level {level}: {prev:?} should contain {r:?}"
            );
            assert!(r.contains_point(p));
            prev = r;
        }
    }

    #[test]
    fn children_tile_parent() {
        let g = unit_grid();
        let cell = g.cell_for_point(Point::new(0.5, 0.5), 6);
        let pr = g.cell_rect(cell);
        let total: f64 = cell.children().iter().map(|c| g.cell_rect(*c).area()).sum();
        assert!((total - pr.area()).abs() < 1e-15);
        for c in cell.children() {
            assert!(pr.contains_rect(&g.cell_rect(c)));
        }
    }

    #[test]
    fn clamping_outside_points() {
        let g = unit_grid();
        let inside_edge = g.leaf_for_point(Point::new(0.0, 0.5));
        let outside = g.leaf_for_point(Point::new(-5.0, 0.5));
        assert_eq!(inside_edge, outside);
    }

    #[test]
    fn diagonal_halves_per_level() {
        let g = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 50.0));
        for level in 0..10u8 {
            let d0 = g.cell_diagonal(level);
            let d1 = g.cell_diagonal(level + 1);
            assert!((d0 / d1 - 2.0).abs() < 1e-9, "level {level}");
        }
    }

    #[test]
    fn level_for_error_bounds() {
        let g = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 1024.0, 1024.0));
        // Root diagonal = 1024·√2 ≈ 1448.2; asking for 1500 keeps level 0.
        assert_eq!(g.level_for_error(1500.0), 0);
        let lvl = g.level_for_error(10.0);
        assert!(g.cell_diagonal(lvl) <= 10.0);
        assert!(g.cell_diagonal(lvl - 1) > 10.0);
        // Unreachably small error: clamps to MAX_LEVEL.
        assert_eq!(g.level_for_error(1e-12), MAX_LEVEL);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_domain() {
        Grid::hilbert(Rect::empty());
    }
}
