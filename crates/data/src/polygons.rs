//! Query-polygon generators (§4.1).
//!
//! "Unless otherwise specified, the queries consist of polygons representing
//! NYC neighborhoods" — we synthesize ~195 simple convex polygons
//! ("often simple quadrilaterals or pentagons", §4.2) concentrated on the
//! data hotspots. For the tweets dataset we synthesize 49 state-like
//! polygons tiling the US box and 51 random rectangles (Figure 15), and for
//! the selectivity sweep (Figure 12) a polygon sized to contain a target
//! fraction of the data.

use crate::datasets::{nyc_domain, us_domain};
use crate::table::{BaseTable, Rows};
use gb_common::rng::{derive_seed, rng_from_seed};
use gb_geom::{convex_hull, Point, Polygon, Rect};
use rand::rngs::StdRng;
use rand::Rng;

/// A jittered convex polygon with `verts` hull seeds around `center`.
fn convex_blob(
    rng: &mut StdRng,
    center: Point,
    radius: f64,
    verts: usize,
    domain: &Rect,
) -> Polygon {
    loop {
        let pts: Vec<Point> = (0..verts.max(4))
            .map(|_| {
                let a: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let r: f64 = rng.gen_range(0.35 * radius..radius);
                Point::new(
                    (center.x + r * a.cos()).clamp(domain.min.x, domain.max.x),
                    (center.y + r * a.sin()).clamp(domain.min.y, domain.max.y),
                )
            })
            .collect();
        let hull = convex_hull(&pts);
        if hull.len() >= 3 {
            let poly = Polygon::new(hull);
            if poly.area() > 1e-9 {
                return poly;
            }
        }
        // Degenerate sample (all clamped onto one border): retry.
    }
}

/// ~`count` neighborhood-like polygons over the NYC hotspots.
///
/// Polygons are smaller where the data is dense (downtown) and larger in
/// the suburbs, mimicking NYC neighborhood tabulation areas.
pub fn neighborhoods(count: usize, seed: u64) -> Vec<Polygon> {
    let mut rng = rng_from_seed(derive_seed(seed, "neighborhoods"));
    let domain = nyc_domain();
    // Reuse the data hotspot mixture for polygon placement: most polygons
    // in Manhattan/Brooklyn, few in the suburbs.
    let anchors: Vec<(Point, Point, f64, f64)> = vec![
        // (a, b, spread, weight) mirroring datasets::nyc_hotspots
        (Point::new(22.0, 28.0), Point::new(30.0, 46.0), 1.6, 0.45),
        (Point::new(30.0, 20.0), Point::new(30.0, 20.0), 3.5, 0.18),
        (Point::new(40.0, 30.0), Point::new(40.0, 30.0), 3.8, 0.10),
        (Point::new(47.0, 17.0), Point::new(47.0, 17.0), 1.2, 0.05),
        (Point::new(36.0, 37.0), Point::new(36.0, 37.0), 1.0, 0.05),
        (Point::new(27.0, 52.0), Point::new(27.0, 52.0), 2.8, 0.07),
        (Point::new(30.0, 30.0), Point::new(30.0, 30.0), 17.0, 0.10),
    ];
    let total_w: f64 = anchors.iter().map(|a| a.3).sum();

    (0..count)
        .map(|_| {
            let mut x = rng.gen_range(0.0..total_w);
            let mut pick = &anchors[anchors.len() - 1];
            for a in &anchors {
                if x < a.3 {
                    pick = a;
                    break;
                }
                x -= a.3;
            }
            let t: f64 = rng.gen();
            let base = pick.0 + (pick.1 - pick.0) * t;
            let center = Point::new(
                base.x + rng.gen_range(-pick.2..pick.2),
                base.y + rng.gen_range(-pick.2..pick.2),
            );
            // Dense areas get ~1 km polygons, suburbs up to ~5 km.
            let radius = rng.gen_range(0.6..1.6) * (1.0 + pick.2 / 4.0);
            let verts = rng.gen_range(4..=6); // quadrilaterals/pentagons
            convex_blob(&mut rng, center, radius, verts, &domain)
        })
        .collect()
}

/// 49 state-like polygons tiling the US-box (7×7 jittered grid).
pub fn us_states(seed: u64) -> Vec<Polygon> {
    let mut rng = rng_from_seed(derive_seed(seed, "us_states"));
    let domain = us_domain();
    let (nx, ny) = (7usize, 7usize);
    let cw = domain.width() / nx as f64;
    let ch = domain.height() / ny as f64;
    let mut out = Vec::with_capacity(nx * ny);
    for gx in 0..nx {
        for gy in 0..ny {
            let cx = domain.min.x + (gx as f64 + 0.5) * cw;
            let cy = domain.min.y + (gy as f64 + 0.5) * ch;
            let center = Point::new(
                cx + rng.gen_range(-0.15 * cw..0.15 * cw),
                cy + rng.gen_range(-0.15 * ch..0.15 * ch),
            );
            let radius = 0.52 * cw.min(ch);
            let verts = rng.gen_range(5..=8);
            out.push(convex_blob(&mut rng, center, radius, verts, &domain));
        }
    }
    out
}

/// Large country-like polygons tiling the Americas box (5×5 jittered
/// grid), used as the OSM dataset's query set ("query them with polygons
/// representing countries", §4.1).
pub fn countries(seed: u64) -> Vec<Polygon> {
    let mut rng = rng_from_seed(derive_seed(seed, "countries"));
    let domain = crate::datasets::americas_domain();
    let (nx, ny) = (5usize, 5usize);
    let cw = domain.width() / nx as f64;
    let ch = domain.height() / ny as f64;
    let mut out = Vec::with_capacity(nx * ny);
    for gx in 0..nx {
        for gy in 0..ny {
            let cx = domain.min.x + (gx as f64 + 0.5) * cw;
            let cy = domain.min.y + (gy as f64 + 0.5) * ch;
            let center = Point::new(
                cx + rng.gen_range(-0.1 * cw..0.1 * cw),
                cy + rng.gen_range(-0.1 * ch..0.1 * ch),
            );
            let radius = 0.55 * cw.min(ch);
            let verts = rng.gen_range(5..=9);
            out.push(convex_blob(&mut rng, center, radius, verts, &domain));
        }
    }
    out
}

/// `count` random rectangles inside `domain` (Figure 15's second workload),
/// with areas between ~0.1 % and ~4 % of the domain.
pub fn random_rects(count: usize, domain: &Rect, seed: u64) -> Vec<Rect> {
    let mut rng = rng_from_seed(derive_seed(seed, "rects"));
    (0..count)
        .map(|_| {
            let w = domain.width() * rng.gen_range(0.03..0.2);
            let h = domain.height() * rng.gen_range(0.03..0.2);
            let x0 = rng.gen_range(domain.min.x..domain.max.x - w);
            let y0 = rng.gen_range(domain.min.y..domain.max.y - h);
            Rect::from_bounds(x0, y0, x0 + w, y0 + h)
        })
        .collect()
}

/// A rectangle polygon containing approximately `target` fraction of the
/// table's rows (Figure 12's selectivity workload).
///
/// Grows a square around the weighted data center by binary search on its
/// half-width. The returned selectivity is exact for the final polygon.
pub fn selectivity_polygon(base: &BaseTable, target: f64) -> (Polygon, f64) {
    assert!((0.0..=1.0).contains(&target));
    let n = base.num_rows();
    assert!(n > 0, "empty table");
    // Median-ish center: mean is fine for our unimodal-cluster mixes.
    // These run single-threaded over a fixed row order during dataset
    // generation, so the fold is deterministic without the kernels.
    let cx = base.xs().iter().sum::<f64>() / n as f64;
    let cy = base.ys().iter().sum::<f64>() / n as f64;

    let domain = base.grid().domain();
    let max_half = domain.width().max(domain.height());
    let count_in = |half: f64| -> usize {
        let r = Rect::from_bounds(cx - half, cy - half, cx + half, cy + half);
        base.xs()
            .iter()
            .zip(base.ys())
            .filter(|(&x, &y)| r.contains_point(Point::new(x, y)))
            .count()
    };

    let mut lo = 0.0f64;
    let mut hi = max_half;
    for _ in 0..48 {
        let mid = (lo + hi) * 0.5;
        if (count_in(mid) as f64) < target * n as f64 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let half = hi;
    let rect = Rect::from_bounds(cx - half, cy - half, cx + half, cy + half).intersection(&domain);
    let achieved = count_in(half) as f64 / n as f64;
    (Polygon::rectangle(rect), achieved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::nyc_taxi;
    use crate::extract::{extract, CleaningRules};

    #[test]
    fn neighborhoods_are_simple_and_in_domain() {
        let polys = neighborhoods(100, 21);
        assert_eq!(polys.len(), 100);
        let domain = nyc_domain();
        for p in &polys {
            assert!(p.exterior().len() >= 3 && p.exterior().len() <= 8);
            assert!(
                domain.contains_rect(&p.bbox()),
                "bbox {:?} escapes",
                p.bbox()
            );
            assert!(p.area() > 0.0);
        }
    }

    #[test]
    fn neighborhoods_concentrate_on_hotspots() {
        let polys = neighborhoods(300, 5);
        let strip = Rect::from_bounds(16.0, 22.0, 36.0, 52.0);
        let frac = polys.iter().filter(|p| strip.intersects(&p.bbox())).count() as f64
            / polys.len() as f64;
        assert!(frac > 0.5, "hotspot polygon fraction {frac}");
    }

    #[test]
    fn states_tile_the_us() {
        let states = us_states(9);
        assert_eq!(states.len(), 49);
        for s in &states {
            assert!(us_domain().contains_rect(&s.bbox()));
            assert!(s.exterior().len() >= 3);
        }
        // They are big: average bbox area a few percent of the domain.
        let avg = states.iter().map(|s| s.area()).sum::<f64>() / 49.0;
        assert!(avg > us_domain().area() * 0.002, "avg area {avg}");
    }

    #[test]
    fn rects_are_inside_and_sized() {
        let rects = random_rects(51, &us_domain(), 13);
        assert_eq!(rects.len(), 51);
        for r in &rects {
            assert!(us_domain().contains_rect(r));
            let frac = r.area() / us_domain().area();
            assert!(frac > 0.0005 && frac < 0.05, "area fraction {frac}");
        }
    }

    #[test]
    fn selectivity_polygon_hits_target() {
        let ds = nyc_taxi(30_000, 3);
        let ex = extract(&ds.raw, ds.grid, &CleaningRules::none(), None);
        for target in [0.01, 0.1, 0.5, 0.9] {
            let (_poly, achieved) = selectivity_polygon(&ex.base, target);
            assert!(
                (achieved - target).abs() < 0.05,
                "target {target}, achieved {achieved}"
            );
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = neighborhoods(10, 77);
        let b = neighborhoods(10, 77);
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p.exterior(), q.exterior());
        }
        assert_ne!(
            neighborhoods(10, 77)[0].exterior(),
            neighborhoods(10, 78)[0].exterior()
        );
    }
}
