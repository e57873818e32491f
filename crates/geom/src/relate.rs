//! Rectangle-vs-polygon classification: whether a rectangle is entirely
//! outside a polygon, entirely inside it, or crosses the outline.
//!
//! Its one production use is the interior-rectangle search
//! ([`crate::interior_rect`]), which maps polygon queries onto the
//! rectangle-only baselines (§4.1). The coverer in `gb-cell` does not call
//! it: `cover_polygon` classifies cells with its own per-cell edge lists
//! and ray casts, and only its tests check it against this predicate. The
//! classification is *conservative*: whenever the floating-point
//! predicates cannot prove containment or disjointness, it answers
//! [`RectRelation::Boundary`], so a rectangle called `Inside` is inside.

use crate::polygon::Polygon;
use crate::rect::Rect;

/// How a rectangle relates to a polygon region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RectRelation {
    /// The rectangle and the polygon share no point.
    Disjoint,
    /// The rectangle lies entirely inside the polygon (no outline inside it).
    Inside,
    /// The rectangle crosses (or touches) the polygon outline.
    Boundary,
}

/// Classify `rect` against `poly`.
///
/// The decision procedure:
/// 1. Bounding boxes disjoint → [`RectRelation::Disjoint`].
/// 2. Any polygon edge intersects any rectangle edge → [`RectRelation::Boundary`].
/// 3. No edge crossings: the outline is either fully inside the rect, fully
///    outside it, or absent. A polygon vertex strictly inside the rect means
///    the outline dips into it → [`RectRelation::Boundary`].
/// 4. Otherwise the rect is entirely on one side: test the center point.
pub fn classify_rect(poly: &Polygon, rect: &Rect) -> RectRelation {
    if rect.is_empty() || !poly.bbox().intersects(rect) {
        return RectRelation::Disjoint;
    }

    let corners = rect.corners();
    for i in 0..4 {
        let (a, b) = (corners[i], corners[(i + 1) % 4]);
        if poly.edge_intersects_segment(a, b) {
            return RectRelation::Boundary;
        }
    }

    // No edge of the outline crosses the rectangle border. If any ring
    // vertex is strictly inside, some ring (exterior or hole) lives inside
    // the rectangle, so the rect is not uniformly in or out.
    if poly.vertices().any(|v| rect.contains_point_strict(v)) {
        return RectRelation::Boundary;
    }

    if poly.contains_point(rect.center()) {
        RectRelation::Inside
    } else {
        RectRelation::Disjoint
    }
}

/// True if the whole rectangle lies inside the polygon.
///
/// Convenience wrapper used by the interior-rectangle search.
pub fn rect_inside_polygon(poly: &Polygon, rect: &Rect) -> bool {
    classify_rect(poly, rect) == RectRelation::Inside
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn square(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_bounds(x0, y0, x1, y1)
    }

    fn diamond() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, -2.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 2.0),
            Point::new(-2.0, 0.0),
        ])
    }

    #[test]
    fn disjoint_far_away() {
        assert_eq!(
            classify_rect(&diamond(), &square(5.0, 5.0, 6.0, 6.0)),
            RectRelation::Disjoint
        );
    }

    #[test]
    fn disjoint_inside_bbox_but_outside_poly() {
        // The diamond's bbox corner region is outside the diamond itself.
        let r = square(1.5, 1.5, 1.9, 1.9);
        assert_eq!(classify_rect(&diamond(), &r), RectRelation::Disjoint);
    }

    #[test]
    fn inside_small_center_rect() {
        assert_eq!(
            classify_rect(&diamond(), &square(-0.5, -0.5, 0.5, 0.5)),
            RectRelation::Inside
        );
    }

    #[test]
    fn boundary_crossing() {
        assert_eq!(
            classify_rect(&diamond(), &square(1.0, -0.5, 3.0, 0.5)),
            RectRelation::Boundary
        );
    }

    #[test]
    fn polygon_inside_rect_is_boundary() {
        // The rect swallows the whole polygon: its outline is inside.
        assert_eq!(
            classify_rect(&diamond(), &square(-5.0, -5.0, 5.0, 5.0)),
            RectRelation::Boundary
        );
    }

    #[test]
    fn hole_inside_rect_is_boundary() {
        let outer = square(0.0, 0.0, 10.0, 10.0).corners().to_vec();
        let hole = square(4.0, 4.0, 6.0, 6.0).corners().to_vec();
        let donut = Polygon::with_holes(outer, vec![hole]);
        // Rect contains the hole completely: not uniformly inside.
        assert_eq!(
            classify_rect(&donut, &square(3.0, 3.0, 7.0, 7.0)),
            RectRelation::Boundary
        );
        // Rect inside the ring part, away from the hole.
        assert_eq!(
            classify_rect(&donut, &square(1.0, 1.0, 2.0, 2.0)),
            RectRelation::Inside
        );
        // Rect entirely within the hole: outside the region.
        assert_eq!(
            classify_rect(&donut, &square(4.5, 4.5, 5.5, 5.5)),
            RectRelation::Disjoint
        );
    }

    #[test]
    fn touching_edge_is_boundary() {
        // Shares exactly one edge segment with the diamond's right vertex.
        let r = square(2.0, -1.0, 3.0, 1.0);
        assert_eq!(classify_rect(&diamond(), &r), RectRelation::Boundary);
    }

    #[test]
    fn helpers_agree() {
        let d = diamond();
        assert!(rect_inside_polygon(&d, &square(-0.1, -0.1, 0.1, 0.1)));
        assert!(!rect_inside_polygon(&d, &square(1.0, -0.5, 3.0, 0.5)));
    }
}
