//! The coverer's rule, spelled out the slow way, and the property that
//! [`cover_polygon`] reproduces it cell for cell.
//!
//! [`reference_cover`] is the descent as it was before the half-plane
//! path: every cell filters the edges that touch its closed rectangle
//! from its parent's list, a cell no edge touches is inside iff a ray cast
//! from its centre says so, a touched cell is split down to `max_level`,
//! and the cells are handed to [`CellUnion::from_cells`] to sort and
//! merge. So a `max_level` cell is in the covering iff an outline edge
//! touches its closed rect or its centre is inside the polygon.

use crate::cover::cover_polygon;
use crate::curve::CurveCursor;
use crate::grid::Grid;
use crate::id::CellId;
use crate::union::CellUnion;
use gb_geom::{convex_hull, segment_intersects_rect, Point, Polygon, Rect};
use proptest::prelude::*;

fn reference_cover(grid: &Grid, poly: &Polygon, max_level: u8) -> CellUnion {
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
    let mut starts: Vec<CellId> = bbox
        .corners()
        .iter()
        .map(|&c| grid.leaf_for_point(c).parent_at(lvl))
        .collect();
    starts.sort_unstable();
    starts.dedup();

    let edges: Vec<(Point, Point)> = poly.edges().collect();
    let mut reference = Reference {
        poly,
        max_level,
        out: Vec::new(),
    };
    for start in starts {
        let cursor = CurveCursor::at((1..=start.level()).map(|l| start.child_position(l)));
        reference.visit(start, grid.cell_rect(start), cursor, &edges);
    }
    CellUnion::from_cells(reference.out)
}

struct Reference<'a> {
    poly: &'a Polygon,
    max_level: u8,
    out: Vec<CellId>,
}

impl Reference<'_> {
    fn visit(
        &mut self,
        cell: CellId,
        rect: Rect,
        cursor: CurveCursor,
        candidates: &[(Point, Point)],
    ) {
        let local: Vec<(Point, Point)> = candidates
            .iter()
            .copied()
            .filter(|&(a, b)| {
                Rect::bounding(&[a, b]).intersects(&rect) && segment_intersects_rect(a, b, &rect)
            })
            .collect();
        if local.is_empty() {
            if self.poly.contains_point_fast(rect.center()) {
                self.out.push(cell);
            }
            return;
        }
        if cell.level() >= self.max_level {
            self.out.push(cell);
            return;
        }
        let cx = (rect.min.x + rect.max.x) * 0.5;
        let cy = (rect.min.y + rect.max.y) * 0.5;
        for k in 0..4u8 {
            let (dx, dy) = cursor.child_quadrant(k);
            let child_rect = Rect::from_bounds(
                if dx == 0 { rect.min.x } else { cx },
                if dy == 0 { rect.min.y } else { cy },
                if dx == 0 { cx } else { rect.max.x },
                if dy == 0 { cy } else { rect.max.y },
            );
            self.visit(cell.child(k), child_rect, cursor.child(k), &local);
        }
    }
}

/// The grids the property runs on: a power-of-two domain, where cell
/// borders are exact binary fractions and snapped vertices land on them
/// bit for bit, and an offset, non-square one, where they do not.
fn grid_of(dyadic: bool) -> Grid {
    if dyadic {
        Grid::hilbert(Rect::from_bounds(0.0, 0.0, 1024.0, 1024.0))
    } else {
        Grid::hilbert(Rect::from_bounds(-10.0, 5.0, 30.0, 25.0))
    }
}

/// A ring of `radii.len()` vertices at evenly spaced angles around
/// `centre`: star-shaped, concave wherever a radius dips.
fn star(centre: Point, radius: f64, radii: &[f64], phase: f64) -> Vec<Point> {
    let n = radii.len() as f64;
    radii
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let a = phase + std::f64::consts::TAU * i as f64 / n;
            Point::new(
                centre.x + radius * r * a.cos(),
                centre.y + radius * r * a.sin(),
            )
        })
        .collect()
}

/// One polygon of class `class` (see the match arms), sized in units of
/// the `level` cell so coverings stay small at every level.
fn polygon_of(
    class: usize,
    grid: &Grid,
    level: u8,
    u: &[f64],
    flip: (bool, bool),
) -> Option<Polygon> {
    let d = grid.domain();
    let (cw, ch) = grid.cell_size(level);
    let at = |fx: f64, fy: f64| Point::new(d.min.x + fx * d.width(), d.min.y + fy * d.height());
    let centre = at(u[0], u[1]);
    let radius = (0.3 + 30.0 * u[2] * u[2]) * cw.max(ch);
    let radii: Vec<f64> = u[4..].iter().map(|r| 0.35 + 0.65 * r).collect();
    let phase = u[3] * std::f64::consts::TAU;
    let snap = |p: Point, l: u8| {
        let (w, h) = grid.cell_size(l);
        Point::new(
            d.min.x + ((p.x - d.min.x) / w).round() * w,
            d.min.y + ((p.y - d.min.y) / h).round() * h,
        )
    };
    let oriented = |mut ring: Vec<Point>, reverse: bool| {
        if reverse {
            ring.reverse();
        }
        ring
    };
    let exterior = match class {
        // Convex.
        0 => convex_hull(&star(centre, radius, &radii[..7], phase)),
        // Star-shaped / concave, 5–12 vertices.
        1 => star(centre, radius, &radii[..5 + (u[3] * 8.0) as usize], phase),
        // 40 vertices.
        2 => star(centre, radius, &radii[..40], phase),
        // Holed, either orientation of either ring.
        3 => {
            let hole = star(centre, radius * 0.3, &radii[8..14], -phase);
            let outer = star(centre, radius, &radii[..8], phase)
                .into_iter()
                .map(|p| Point::new(p.x + (p.x - centre.x), p.y + (p.y - centre.y)))
                .collect();
            return Some(Polygon::with_holes(
                oriented(outer, flip.0),
                vec![oriented(hole, flip.1)],
            ));
        }
        // Vertices on cell corners of some level ≤ `level`: edges through
        // corners, axis-aligned edges along cell borders.
        4 => {
            let l = 1 + (u[3] * f64::from(level)) as u8;
            star(centre, radius * 2.0, &radii[..6], phase)
                .into_iter()
                .map(|p| snap(p, l.min(level)))
                .collect()
        }
        // A rectangle with every side on a cell border.
        5 => {
            let a = snap(centre, level);
            let b = Point::new(
                a.x + (1.0 + (u[4] * 6.0).floor()) * cw,
                a.y + (1.0 + (u[5] * 6.0).floor()) * ch,
            );
            Rect::from_bounds(a.x, a.y, b.x, b.y).corners().to_vec()
        }
        // Sticking out of the domain (or wholly outside it).
        6 => star(
            at(u[0] * 1.4 - 0.2, u[1] * 1.4 - 0.2),
            radius * 3.0,
            &radii[..9],
            phase,
        ),
        // Smaller than one `level` cell.
        7 => star(centre, 0.4 * u[2] * cw.min(ch), &radii[..5], phase),
        // Larger than the domain: every start cell comes back whole.
        8 => star(at(0.5, 0.5), d.width() + d.height(), &[1.0; 4], phase),
        // `tests/degenerate.rs`: collinear ring (zero area) …
        9 => (0..3 + (u[4] * 4.0) as usize)
            .map(|i| {
                let t = i as f64 * 1.7 * cw;
                Point::new(centre.x + (u[5] - 0.5) * t, centre.y + (u[6] - 0.5) * t)
            })
            .collect(),
        // … doubled vertices …
        10 => {
            let mut ring = convex_hull(&star(centre, radius, &radii[..7], phase));
            for i in 0..ring.len().min(3) {
                let at = (i * 2) % ring.len();
                ring.insert(at, ring[at]);
            }
            ring
        }
        // … every vertex the same point …
        11 => vec![centre; 3],
        // … and a self-intersecting ring, which only the even-odd rule
        // (not ring orientation) answers.
        _ => {
            let r = radius;
            vec![
                Point::new(centre.x - r, centre.y - r * u[4]),
                Point::new(centre.x + r, centre.y + r * u[5]),
                Point::new(centre.x + r, centre.y - r * u[6]),
                Point::new(centre.x - r, centre.y + r * u[7]),
            ]
        }
    };
    (exterior.len() >= 3).then(|| Polygon::new(oriented(exterior, flip.0)))
}

const CLASSES: usize = 13;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1536))]

    /// `cover_polygon` ≡ the reference rule, over every polygon class and
    /// levels 1–14.
    #[test]
    fn cover_polygon_matches_the_reference_rule(
        class in 0usize..CLASSES,
        dyadic in any::<bool>(),
        level in 1u8..=14,
        u in prop::collection::vec(0.0f64..1.0, 44),
        flip in (any::<bool>(), any::<bool>()),
    ) {
        let grid = grid_of(dyadic);
        let Some(poly) = polygon_of(class, &grid, level, &u, flip) else {
            return Ok(());
        };
        let got = cover_polygon(&grid, &poly, level);
        let want = reference_cover(&grid, &poly, level);
        prop_assert_eq!(
            got.cells(), want.cells(),
            "class {} level {} {:?}", class, level, poly
        );
    }
}

#[test]
fn start_cells_that_are_leaf_siblings_merge() {
    // The bbox-matched level is `max_level` itself, and the four start
    // cells around the centre of a level-4 cell are its four children.
    let grid = grid_of(true);
    let centre = Point::new(96.0, 96.0);
    let poly = Polygon::new(star(centre, 1.0, &[1.0; 4], 0.0));
    let got = cover_polygon(&grid, &poly, 5);
    assert_eq!(got.cells(), &[grid.cell_for_point(centre, 5).parent()]);
    assert_eq!(got, reference_cover(&grid, &poly, 5));
}
