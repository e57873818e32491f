//! Simple polygons with optional holes.

use crate::point::Point;
use crate::predicates::{point_on_segment, segments_intersect};
use crate::rect::Rect;

/// A polygon: one exterior ring plus zero or more hole rings.
///
/// Rings are stored **without** a repeated closing vertex; edges wrap from
/// the last vertex back to the first. Point containment uses even-odd
/// semantics, so hole orientation does not matter; generators in `gb-data`
/// still emit CCW exteriors / CW holes by convention.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    exterior: Vec<Point>,
    holes: Vec<Vec<Point>>,
    bbox: Rect,
}

impl Polygon {
    /// Build a polygon from an exterior ring. Panics if fewer than 3 vertices
    /// or any non-finite coordinate.
    pub fn new(exterior: Vec<Point>) -> Self {
        Polygon::with_holes(exterior, Vec::new())
    }

    /// Build a polygon with holes. Same validation as [`Polygon::new`].
    pub fn with_holes(exterior: Vec<Point>, holes: Vec<Vec<Point>>) -> Self {
        assert!(exterior.len() >= 3, "polygon needs at least 3 vertices");
        assert!(
            exterior.iter().all(|p| p.is_finite()),
            "polygon vertices must be finite"
        );
        for h in &holes {
            assert!(h.len() >= 3, "hole needs at least 3 vertices");
            assert!(
                h.iter().all(|p| p.is_finite()),
                "hole vertices must be finite"
            );
        }
        let bbox = Rect::bounding(&exterior);
        Polygon {
            exterior,
            holes,
            bbox,
        }
    }

    /// Axis-aligned rectangle as a polygon (rectangles are "just constrained
    /// polygons" in the paper's evaluation).
    pub fn rectangle(rect: Rect) -> Self {
        Polygon::new(rect.corners().to_vec())
    }

    /// Regular `n`-gon around `center`.
    pub fn regular(n: usize, center: Point, radius: f64) -> Self {
        assert!(n >= 3);
        let ring = (0..n)
            .map(|i| {
                let a = std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(center.x + radius * a.cos(), center.y + radius * a.sin())
            })
            .collect();
        Polygon::new(ring)
    }

    /// The exterior ring.
    #[inline]
    pub fn exterior(&self) -> &[Point] {
        &self.exterior
    }

    /// Hole rings.
    #[inline]
    pub fn holes(&self) -> &[Vec<Point>] {
        &self.holes
    }

    /// Cached bounding box of the exterior ring.
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Total number of vertices over all rings.
    pub fn vertex_count(&self) -> usize {
        self.exterior.len() + self.holes.iter().map(Vec::len).sum::<usize>()
    }

    /// Iterate all edges `(a, b)` of all rings.
    pub fn edges(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        ring_edges(&self.exterior).chain(self.holes.iter().flat_map(|h| ring_edges(h)))
    }

    /// Iterate all vertices of all rings.
    pub fn vertices(&self) -> impl Iterator<Item = Point> + '_ {
        self.exterior
            .iter()
            .copied()
            .chain(self.holes.iter().flat_map(|h| h.iter().copied()))
    }

    /// Even-odd point containment; points **on** any edge count as inside.
    ///
    /// On-edge inclusiveness matters for the covering superset invariant:
    /// the paper counts every cell that touches the outline as part of the
    /// covering, so boundary points must never be classified outside.
    pub fn contains_point(&self, p: Point) -> bool {
        if !self.bbox.contains_point(p) {
            return false;
        }
        // Treat boundary points as inside, for all rings.
        for (a, b) in self.edges() {
            if point_on_segment(p, a, b) {
                return true;
            }
        }
        let mut inside = ring_contains(&self.exterior, p);
        if inside {
            for h in &self.holes {
                if ring_contains(h, p) {
                    inside = !inside; // even-odd: flip per containing hole
                }
            }
        }
        inside
    }

    /// True if any polygon edge intersects the closed segment `a`–`b`.
    pub fn edge_intersects_segment(&self, a: Point, b: Point) -> bool {
        self.edges().any(|(c, d)| segments_intersect(a, b, c, d))
    }

    /// Ray-casting containment **without** the on-edge pre-pass.
    ///
    /// Used on points known not to lie on the outline (e.g. the center of a
    /// grid cell that no polygon edge touches — the coverer's uniform-cell
    /// test). Roughly 3× cheaper than [`Polygon::contains_point`]; points
    /// exactly on an edge classify arbitrarily.
    #[inline]
    pub fn contains_point_fast(&self, p: Point) -> bool {
        if !self.bbox.contains_point(p) {
            return false;
        }
        let mut inside = ring_contains(&self.exterior, p);
        if inside {
            for h in &self.holes {
                if ring_contains(h, p) {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Absolute area of exterior minus holes.
    pub fn area(&self) -> f64 {
        let outer = shoelace(&self.exterior).abs();
        let inner: f64 = self.holes.iter().map(|h| shoelace(h).abs()).sum();
        (outer - inner).max(0.0)
    }

    /// Area centroid of the exterior ring.
    pub fn centroid(&self) -> Point {
        let a = shoelace(&self.exterior);
        if a.abs() < f64::EPSILON {
            // Degenerate (collinear) ring: fall back to the vertex mean.
            let n = self.exterior.len() as f64;
            let sum = self
                .exterior
                .iter()
                .fold(Point::default(), |acc, &p| acc + p);
            return sum * (1.0 / n);
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        for (p, q) in ring_edges(&self.exterior) {
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Point::new(cx / (6.0 * a), cy / (6.0 * a))
    }
}

fn ring_edges(ring: &[Point]) -> impl Iterator<Item = (Point, Point)> + '_ {
    (0..ring.len()).map(move |i| (ring[i], ring[(i + 1) % ring.len()]))
}

/// Ray-casting containment against a single ring (boundary excluded here;
/// the caller handles on-edge points).
fn ring_contains(ring: &[Point], p: Point) -> bool {
    let mut inside = false;
    let mut j = ring.len() - 1;
    for i in 0..ring.len() {
        let (pi, pj) = (ring[i], ring[j]);
        if (pi.y > p.y) != (pj.y > p.y) {
            let x_cross = (pj.x - pi.x) * (p.y - pi.y) / (pj.y - pi.y) + pi.x;
            if p.x < x_cross {
                inside = !inside;
            }
        }
        j = i;
    }
    inside
}

fn shoelace(ring: &[Point]) -> f64 {
    let mut acc = 0.0;
    for (p, q) in ring_edges(ring) {
        acc += p.cross(q);
    }
    acc * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn unit_square() -> Polygon {
        Polygon::rectangle(Rect::from_bounds(0.0, 0.0, 1.0, 1.0))
    }

    #[test]
    fn containment_square() {
        let sq = unit_square();
        assert!(sq.contains_point(p(0.5, 0.5)));
        assert!(!sq.contains_point(p(1.5, 0.5)));
        assert!(!sq.contains_point(p(-0.1, 0.5)));
        // Boundary and corners are inside.
        assert!(sq.contains_point(p(0.0, 0.0)));
        assert!(sq.contains_point(p(1.0, 0.5)));
        assert!(sq.contains_point(p(0.5, 1.0)));
    }

    #[test]
    fn containment_concave() {
        // L-shape: the notch at the top-right is outside.
        let l = Polygon::new(vec![
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(2.0, 1.0),
            p(1.0, 1.0),
            p(1.0, 2.0),
            p(0.0, 2.0),
        ]);
        assert!(l.contains_point(p(0.5, 1.5)));
        assert!(l.contains_point(p(1.5, 0.5)));
        assert!(!l.contains_point(p(1.5, 1.5))); // the notch
    }

    #[test]
    fn containment_with_hole() {
        let outer = Rect::from_bounds(0.0, 0.0, 4.0, 4.0).corners().to_vec();
        let hole = Rect::from_bounds(1.0, 1.0, 3.0, 3.0).corners().to_vec();
        let donut = Polygon::with_holes(outer, vec![hole]);
        assert!(donut.contains_point(p(0.5, 0.5)));
        assert!(!donut.contains_point(p(2.0, 2.0))); // inside the hole
        assert!(donut.contains_point(p(1.0, 2.0))); // on the hole boundary counts
        assert!(!donut.contains_point(p(5.0, 5.0)));
    }

    #[test]
    fn area_and_centroid() {
        let sq = unit_square();
        assert!((sq.area() - 1.0).abs() < 1e-12);
        let c = sq.centroid();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn area_with_hole() {
        let outer = Rect::from_bounds(0.0, 0.0, 4.0, 4.0).corners().to_vec();
        let hole = Rect::from_bounds(1.0, 1.0, 3.0, 3.0).corners().to_vec();
        let donut = Polygon::with_holes(outer, vec![hole]);
        assert!((donut.area() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn regular_polygon() {
        let hex = Polygon::regular(6, p(0.0, 0.0), 1.0);
        assert_eq!(hex.exterior().len(), 6);
        assert!(hex.contains_point(p(0.0, 0.0)));
        // Regular hexagon area = 3√3/2 r².
        assert!((hex.area() - 3.0 * 3f64.sqrt() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn edge_iteration_wraps() {
        let sq = unit_square();
        assert_eq!(sq.edges().count(), 4);
        let last = sq.edges().last().unwrap();
        assert_eq!(last.1, sq.exterior()[0]); // wraps to first vertex
    }

    #[test]
    fn edge_segment_intersection() {
        let sq = unit_square();
        assert!(sq.edge_intersects_segment(p(-0.5, 0.5), p(0.5, 0.5)));
        assert!(!sq.edge_intersects_segment(p(0.25, 0.25), p(0.75, 0.75))); // fully inside
        assert!(!sq.edge_intersects_segment(p(2.0, 2.0), p(3.0, 3.0))); // fully outside
    }

    #[test]
    fn vertex_count_includes_holes() {
        let outer = Rect::from_bounds(0.0, 0.0, 4.0, 4.0).corners().to_vec();
        let hole = Rect::from_bounds(1.0, 1.0, 3.0, 3.0).corners().to_vec();
        let donut = Polygon::with_holes(outer, vec![hole]);
        assert_eq!(donut.vertex_count(), 8);
        assert_eq!(donut.vertices().count(), 8);
    }

    #[test]
    #[should_panic(expected = "at least 3 vertices")]
    fn rejects_degenerate() {
        Polygon::new(vec![p(0.0, 0.0), p(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        Polygon::new(vec![p(0.0, 0.0), p(1.0, 0.0), p(f64::NAN, 1.0)]);
    }
}
