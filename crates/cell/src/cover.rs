//! Polygon → cell-covering computation (the paper's §3.1 "polygon
//! approximation", Figure 4).
//!
//! The covering maps an arbitrary query polygon to a set of cells, possibly
//! at different levels, and its error is bounded: cells *fully inside* the
//! polygon may stay coarse — they contribute no boundary error and make
//! COUNT queries cheaper (§3.5 "we benefit from having larger query
//! cells") — while cells that touch the outline are always subdivided down
//! to `max_level`, the block level, so every covering cell is within the
//! block-level cell diagonal of the polygon: the §3.2 bound.
//!
//! The covering is always a **superset** of the polygon (false positives
//! only, §4.3), which the property tests assert.
//!
//! # The rule and the descent
//!
//! A `max_level` cell belongs to the covering iff an outline edge touches
//! its closed rectangle or its centre is inside the polygon (even-odd);
//! the result is the canonical union of those cells (complete sibling
//! quartets merged). The descent spends exact geometry only where the
//! outline is complicated:
//!
//! * a cell several edges touch — or one edge that ends inside it — keeps
//!   a list of its local edges, filtered from its parent's, and classifies
//!   an untouched child with a ray cast;
//! * a cell touched by **one** edge that passes right through it (both
//!   endpoints outside — all but the few vertex-bearing cells per level)
//!   is cut by a line: its whole subtree is a half-plane rasterisation.
//!   The edge's cross product on the 3×3 corner lattice of a cell (one
//!   subtraction per corner, from per-axis terms carried down the
//!   descent) classifies each child as untouched (four corners strictly
//!   on one side), or touched and recursed with the same line. Which side is the
//!   interior is settled by **one** ray cast per such subtree, at the
//!   first untouched child — ring orientation would be cheaper still but
//!   is wrong for self-intersecting rings and overlapping holes, which the
//!   even-odd rule answers.
//!
//! Cells are emitted in curve order and a quartet is merged when the
//! descent returns from its parent, so the output needs no sort and no
//! normalisation pass. Cost: O(boundary cells + local edge tests).

// Every query runs the coverer, on a polygon from the network.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use crate::curve::CurveCursor;
use crate::grid::Grid;
use crate::id::{CellId, MAX_LEVEL};
use crate::union::CellUnion;
use gb_geom::{Point, Polygon, Rect};
use std::ops::Range;

/// A polygon edge with its bounding box, for hierarchical clipping.
struct ClipEdge {
    a: Point,
    b: Point,
    bbox: Rect,
}

/// True if the closed segment shares any point with the closed rect.
#[inline]
fn edge_touches_rect(e: &ClipEdge, rect: &Rect) -> bool {
    e.bbox.intersects(rect) && gb_geom::segment_intersects_rect(e.a, e.b, rect)
}

/// The line through the one edge that cuts a cell, for the half-plane
/// descent below that cell.
struct CutLine<'e> {
    edge: &'e ClipEdge,
    dx: f64,
    dy: f64,
    /// Whether the polygon's interior is where the cross product is
    /// positive; unknown until the subtree's first untouched cell.
    interior_is_positive: Option<bool>,
}

/// One axis of a cell under a [`CutLine`]: its bounds, and at each bound
/// that axis' term of the cross product `segment_intersects_rect` takes at
/// a rectangle corner, `dx·(y − a.y) − dy·(x − a.x)`. The terms are the
/// same operations on the same values, so the corner products — one
/// subtraction each — agree with that predicate to the last bit on which
/// cells the edge touches.
#[derive(Clone, Copy)]
struct Axis {
    lo: f64,
    hi: f64,
    term_lo: f64,
    term_hi: f64,
}

impl Axis {
    /// The axis `lo..hi` under a line with direction component `d` (the
    /// other axis' one) through `origin`.
    fn new(lo: f64, hi: f64, d: f64, origin: f64) -> Axis {
        Axis {
            lo,
            hi,
            term_lo: d * (lo - origin),
            term_hi: d * (hi - origin),
        }
    }

    /// The lower and upper half, split where [`quadrant_rect`] splits.
    fn halves(self, d: f64, origin: f64) -> [Axis; 2] {
        let mid = (self.lo + self.hi) * 0.5;
        let term_mid = d * (mid - origin);
        [
            Axis {
                hi: mid,
                term_hi: term_mid,
                ..self
            },
            Axis {
                lo: mid,
                term_lo: term_mid,
                ..self
            },
        ]
    }
}

/// Compute the cell covering of `poly` on `grid` whose boundary cells are
/// at `max_level` (the block level, when covering for a query).
///
/// Returns a normalized [`CellUnion`]; empty if the polygon lies outside
/// the grid domain. The covering is computed on the fly for every query
/// (§3.1), so it has to stay in the microsecond range: see the module
/// documentation for how the descent gets there.
pub fn cover_polygon(grid: &Grid, poly: &Polygon, max_level: u8) -> CellUnion {
    assert!(max_level <= MAX_LEVEL);

    // Start from the (up to four) cells at the bbox-matched level that
    // contain the bounding-box corners. A single common ancestor can sit
    // near the root whenever the bbox straddles a curve discontinuity —
    // the corner set stays tight regardless and jointly covers the bbox
    // (a bbox no larger than a cell spans at most a 2×2 cell window).
    let bbox = poly.bbox().intersection(&grid.domain());
    if bbox.is_empty() {
        return CellUnion::new();
    }
    let mut lvl = 0u8;
    while lvl < max_level {
        let (w, h) = grid.cell_size(lvl + 1);
        if w < bbox.width() || h < bbox.height() {
            break;
        }
        lvl += 1;
    }
    let mut starts = [CellId::ROOT; 4];
    let mut n_starts = 0;
    for corner in bbox.corners() {
        let start = grid.leaf_for_point(corner).parent_at(lvl);
        if !starts[..n_starts].contains(&start) {
            starts[n_starts] = start;
            n_starts += 1;
        }
    }
    let starts = &mut starts[..n_starts];
    starts.sort_unstable();

    let edges: Vec<ClipEdge> = poly
        .edges()
        .map(|(a, b)| ClipEdge {
            a,
            b,
            bbox: Rect::bounding(&[a, b]),
        })
        .collect();
    let mut cov = Coverer {
        poly,
        edges: &edges,
        max_level,
        out: Vec::with_capacity(256),
        stack: (0..edges.len() as u32).collect(),
    };
    for &start in starts.iter() {
        let cursor = CurveCursor::at((1..=start.level()).map(|l| start.child_position(l)));
        cov.visit(start, grid.cell_rect(start), cursor, 0..edges.len());
    }
    // The start cells are disjoint and in curve order, so the output is
    // already normalized — unless the four of them are one cell's children
    // and each came back whole.
    if let ([first, _, _, _], true) = (&*starts, lvl > 0) {
        cov.merge_quartet(first.parent(), 0);
    }
    CellUnion::from_normalized(cov.out)
}

struct Coverer<'a> {
    poly: &'a Polygon,
    edges: &'a [ClipEdge],
    /// The level the outline's cells are subdivided to.
    max_level: u8,
    /// The covering so far: disjoint cells in curve order, quartets merged.
    out: Vec<CellId>,
    /// The local-edge lists of the cells on the descent path, end to end:
    /// a cell filters its parent's list onto the end and truncates its own
    /// away when it returns, so no cell allocates.
    stack: Vec<u32>,
}

/// The rectangle of `rect`'s quadrant `(qx, qy)` (each 0 or 1), with the
/// parent's own bounds reused so siblings share their borders bit for bit.
#[inline]
fn quadrant_rect(rect: &Rect, cx: f64, cy: f64, (qx, qy): (u8, u8)) -> Rect {
    Rect::from_bounds(
        if qx == 0 { rect.min.x } else { cx },
        if qy == 0 { rect.min.y } else { cy },
        if qx == 0 { cx } else { rect.max.x },
        if qy == 0 { cy } else { rect.max.y },
    )
}

impl<'a> Coverer<'a> {
    /// Classify `cell` against the edges `stack[candidates]` (those that
    /// touch its parent) and descend where the outline touches it.
    fn visit(&mut self, cell: CellId, rect: Rect, cursor: CurveCursor, candidates: Range<usize>) {
        let base = self.stack.len();
        for i in candidates {
            let ei = self.stack[i];
            if edge_touches_rect(&self.edges[ei as usize], &rect) {
                self.stack.push(ei);
            }
        }
        let local = base..self.stack.len();

        if local.is_empty() {
            // No outline in this cell: uniformly inside or outside. The
            // center cannot lie on the outline (that would require an edge
            // inside the rect), so the fast ray cast suffices.
            if self.poly.contains_point_fast(rect.center()) {
                self.out.push(cell);
            }
        } else if cell.level() >= self.max_level {
            self.out.push(cell);
        } else {
            let edges = self.edges;
            let sole = &edges[self.stack[base] as usize];
            if local.len() == 1 && !rect.contains_point(sole.a) && !rect.contains_point(sole.b) {
                let mut line = CutLine {
                    edge: sole,
                    dx: sole.b.x - sole.a.x,
                    dy: sole.b.y - sole.a.y,
                    interior_is_positive: None,
                };
                let x = Axis::new(rect.min.x, rect.max.x, line.dy, sole.a.x);
                let y = Axis::new(rect.min.y, rect.max.y, line.dx, sole.a.y);
                self.split_by_line(cell, x, y, cursor, &mut line);
            } else {
                self.split(cell, rect, cursor, local);
            }
        }
        self.stack.truncate(base);
    }

    /// Visit the four children of a touched `cell` in curve order, each
    /// child's rect derived from the parent's via the curve cursor (no
    /// per-cell decode).
    fn split(&mut self, cell: CellId, rect: Rect, cursor: CurveCursor, local: Range<usize>) {
        let cx = (rect.min.x + rect.max.x) * 0.5;
        let cy = (rect.min.y + rect.max.y) * 0.5;
        let mark = self.out.len();
        for k in 0..4u8 {
            let (quadrant, child_cursor) = cursor.descend(k);
            let child_rect = quadrant_rect(&rect, cx, cy, quadrant);
            self.visit(cell.child(k), child_rect, child_cursor, local.clone());
        }
        self.merge_quartet(cell, mark);
    }

    /// [`Coverer::split`] for a `cell` (spanning `x` × `y`) that `line`'s
    /// edge, and no other, passes right through: inside `cell` the edge is
    /// its line and the polygon a half-plane, so the line's side decides
    /// every descendant.
    fn split_by_line(
        &mut self,
        cell: CellId,
        x: Axis,
        y: Axis,
        cursor: CurveCursor,
        line: &mut CutLine<'_>,
    ) {
        let xs = x.halves(line.dy, line.edge.a.x);
        let ys = y.halves(line.dx, line.edge.a.y);
        let mark = self.out.len();
        for k in 0..4u8 {
            let ((qx, qy), child_cursor) = cursor.descend(k);
            let (x, y) = (xs[usize::from(qx & 1)], ys[usize::from(qy & 1)]);
            // The cross product at the child's four corners.
            let c = [
                y.term_lo - x.term_lo,
                y.term_hi - x.term_lo,
                y.term_lo - x.term_hi,
                y.term_hi - x.term_hi,
            ];
            let child = cell.child(k);
            let centre = || Point::new((x.lo + x.hi) * 0.5, (y.lo + y.hi) * 0.5);
            let positive = c.iter().all(|&v| v > 0.0);
            if positive || c.iter().all(|&v| v < 0.0) {
                // Strictly on one side of the line: all of the child is
                // what the subtree's first such cell was found to be.
                let poly = self.poly;
                let interior_is_positive = *line
                    .interior_is_positive
                    .get_or_insert_with(|| poly.contains_point_fast(centre()) == positive);
                if interior_is_positive == positive {
                    self.out.push(child);
                }
            } else if !line
                .edge
                .bbox
                .intersects(&Rect::from_bounds(x.lo, y.lo, x.hi, y.hi))
            {
                // The line reaches the child but the segment does not — it
                // cannot when the arithmetic is exact; ask the polygon.
                if self.poly.contains_point_fast(centre()) {
                    self.out.push(child);
                }
            } else if child.level() >= self.max_level {
                self.out.push(child);
            } else {
                self.split_by_line(child, x, y, child_cursor, line);
            }
        }
        self.merge_quartet(cell, mark);
    }

    /// Replace the output since `mark` by `cell` if it is exactly `cell`'s
    /// four children.
    fn merge_quartet(&mut self, cell: CellId, mark: usize) {
        if self.out.len() == mark + 4
            && (0..4u8).all(|k| self.out[mark + usize::from(k)] == cell.child(k))
        {
            self.out.truncate(mark);
            self.out.push(cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_geom::{classify_rect, RectRelation};

    fn grid() -> Grid {
        Grid::hilbert(Rect::from_bounds(0.0, 0.0, 1024.0, 1024.0))
    }

    fn diamond(cx: f64, cy: f64, r: f64) -> Polygon {
        Polygon::new(vec![
            Point::new(cx, cy - r),
            Point::new(cx + r, cy),
            Point::new(cx, cy + r),
            Point::new(cx - r, cy),
        ])
    }

    #[test]
    fn covering_is_superset_of_polygon() {
        let g = grid();
        let poly = diamond(500.0, 500.0, 180.0);
        let cov = cover_polygon(&g, &poly, 8);
        assert!(!cov.is_empty());
        // Every sampled interior point is covered.
        for i in 0..40 {
            for j in 0..40 {
                let p = Point::new(330.0 + i as f64 * 8.6, 330.0 + j as f64 * 8.6);
                if poly.contains_point(p) {
                    assert!(cov.contains(g.leaf_for_point(p)), "{p:?} uncovered");
                }
            }
        }
    }

    #[test]
    fn covering_error_is_bounded_by_cell_diagonal() {
        // §3.2: any point of the covering is within √(ε₁²+ε₂²) of the
        // polygon, where ε are the block-level cell side lengths. Note the
        // *cells* of the covering may be coarser (normalization merges
        // complete sibling quartets) — the bound is on the covered REGION.
        let g = grid();
        let poly = diamond(500.0, 500.0, 180.0);
        let level = 8;
        let cov = cover_polygon(&g, &poly, level);
        let bound = g.cell_diagonal(level);
        for cell in cov.iter() {
            let r = g.cell_rect(cell);
            assert_ne!(
                classify_rect(&poly, &r),
                RectRelation::Disjoint,
                "covering contains a disjoint cell {cell:?}"
            );
            // Sample points inside the cell rect: each is either inside the
            // polygon or within the error bound of its outline.
            for i in 0..4 {
                for j in 0..4 {
                    let p = Point::new(
                        r.min.x + r.width() * (i as f64 + 0.5) / 4.0,
                        r.min.y + r.height() * (j as f64 + 0.5) / 4.0,
                    );
                    let d = gb_geom::interior::signed_distance(&poly, p);
                    assert!(
                        d >= -bound * 1.0001,
                        "point {p:?} of covering cell {cell:?} is {} outside (> bound {bound})",
                        -d
                    );
                }
            }
        }
    }

    #[test]
    fn interior_cells_may_be_coarse() {
        let g = grid();
        let poly = diamond(500.0, 500.0, 300.0);
        let cov = cover_polygon(&g, &poly, 10);
        assert!(
            cov.iter().any(|c| c.level() < 10),
            "expected coarse interior cells"
        );
        assert!(
            cov.iter().any(|c| c.level() == 10),
            "boundary must be at max level"
        );
    }

    #[test]
    fn polygon_outside_domain_is_empty() {
        let g = grid();
        let poly = diamond(5000.0, 5000.0, 10.0);
        let cov = cover_polygon(&g, &poly, 10);
        assert!(cov.is_empty());
    }

    #[test]
    fn finer_levels_reduce_covered_area() {
        let g = grid();
        let poly = diamond(500.0, 500.0, 200.0);
        let coarse = cover_polygon(&g, &poly, 6);
        let fine = cover_polygon(&g, &poly, 10);
        // Finer covering hugs the polygon: strictly fewer covered leaves.
        assert!(fine.leaf_count() < coarse.leaf_count());
    }

    #[test]
    fn rotation_preserves_the_covering_bit_for_bit() {
        // The coverer folds per-edge predicates with order-independent
        // boolean operations, and rotating a ring permutes the same
        // ordered edge set, so every rotation covers to the same cells.
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 1.0, 1.0));
        let pts = [
            (0.11, 0.07),
            (0.83, 0.12),
            (0.91, 0.64),
            (0.42, 0.88),
            (0.08, 0.51),
        ];
        let ring: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let reference = cover_polygon(&grid, &Polygon::new(ring.clone()), 9);
        for by in 1..pts.len() {
            let mut rotated = ring.clone();
            rotated.rotate_left(by);
            let covering = cover_polygon(&grid, &Polygon::new(rotated), 9);
            assert_eq!(reference.cells(), covering.cells());
        }
    }
}
