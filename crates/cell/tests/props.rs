//! Property tests for the cell-grid substrate.
//!
//! These pin down the invariants the whole GeoBlocks stack builds on:
//! exact curve inverses, hierarchical prefix structure, cell-id arithmetic,
//! and the covering superset + error-bound guarantees of §3.1–§3.2.

use gb_cell::curve::{d_to_xy, xy_to_d};
use gb_cell::{cover_polygon, CellId, CellUnion, Grid, MAX_LEVEL};
use gb_geom::{Point, Polygon, Rect};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn curve_roundtrip(x in 0u32..(1 << 30), y in 0u32..(1 << 30)) {
        let d = xy_to_d(30, x, y);
        prop_assert_eq!(d_to_xy(30, d), (x, y));
    }

    #[test]
    fn curve_hierarchical(x in 0u32..(1 << 30), y in 0u32..(1 << 30), lift in 1u8..10) {
        // Parent-cell index is the child's index shifted by 2·lift, with
        // coordinates shifted by lift — the prefix property (§3.1).
        let d = xy_to_d(30, x, y);
        let coarse = xy_to_d(30 - lift, x >> lift, y >> lift);
        prop_assert_eq!(coarse, d >> (2 * lift));
    }

    #[test]
    fn cell_id_level_parent_roundtrip(pos in 0u64..(1u64 << 60), level in 0u8..=MAX_LEVEL) {
        let cell = CellId::from_pos_level(pos, level);
        prop_assert!(cell.is_valid());
        prop_assert_eq!(cell.level(), level);
        // Ancestors contain, and contain transitively.
        let leaf = CellId::from_leaf_pos(pos);
        prop_assert!(cell.contains(leaf));
        for l in 0..level {
            prop_assert!(cell.parent_at(l).contains(cell));
        }
    }

    #[test]
    fn cell_range_covers_exactly_descendants(pos in 0u64..(1u64 << 60), level in 0u8..=MAX_LEVEL, other in 0u64..(1u64 << 60)) {
        let cell = CellId::from_pos_level(pos, level);
        let probe = CellId::from_leaf_pos(other);
        let by_range = probe.raw() >= cell.range_min().raw() && probe.raw() <= cell.range_max().raw();
        let by_prefix = probe.parent_at(level) == cell;
        prop_assert_eq!(by_range, by_prefix);
        prop_assert_eq!(cell.contains(probe), by_prefix);
    }

    #[test]
    fn children_partition_parent(pos in 0u64..(1u64 << 60), level in 0u8..MAX_LEVEL) {
        let cell = CellId::from_pos_level(pos, level);
        let kids = cell.children();
        prop_assert_eq!(kids[0].range_min(), cell.range_min());
        prop_assert_eq!(kids[3].range_max(), cell.range_max());
        for w in kids.windows(2) {
            prop_assert_eq!(w[0].range_max().raw() + 2, w[1].range_min().raw());
        }
    }

    #[test]
    fn grid_point_cell_consistency(x in 0.0f64..1000.0, y in 0.0f64..500.0,
                                   level in 0u8..=16) {
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 1000.0, 500.0));
        let p = Point::new(x, y);
        let cell = grid.cell_for_point(p, level);
        prop_assert_eq!(cell.level(), level);
        let r = grid.cell_rect(cell);
        prop_assert!(r.contains_point(p), "cell rect {:?} lost point {:?}", r, p);
        // The rect has the advertised per-level size.
        let (w, h) = grid.cell_size(level);
        prop_assert!((r.width() - w).abs() < 1e-9 * w.max(1.0));
        prop_assert!((r.height() - h).abs() < 1e-9 * h.max(1.0));
    }

    #[test]
    fn union_contains_matches_linear_scan(
        positions in prop::collection::vec((0u64..(1u64 << 60), 4u8..=14u8), 1..24),
        probe in 0u64..(1u64 << 60),
    ) {
        let cells: Vec<CellId> = positions.iter().map(|&(p, l)| CellId::from_pos_level(p, l)).collect();
        let union = CellUnion::from_cells(cells.clone());
        let leaf = CellId::from_leaf_pos(probe);
        let linear = cells.iter().any(|c| c.contains(leaf));
        prop_assert_eq!(union.contains(leaf), linear);
    }

    #[test]
    fn union_normalization_preserves_leafcount_region(
        positions in prop::collection::vec((0u64..(1u64 << 20), 2u8..=8u8), 1..16),
    ) {
        // Normalizing never changes the covered region.
        let cells: Vec<CellId> = positions.iter().map(|&(p, l)| CellId::from_pos_level(p << 40, l)).collect();
        let union = CellUnion::from_cells(cells.clone());
        // Region check on sampled leaves of every input cell: each input
        // cell's first and last leaf must be covered.
        for c in &cells {
            prop_assert!(union.contains(c.range_min()));
            prop_assert!(union.contains(c.range_max()));
        }
        // And no covered leaf outside every input cell: probe each union
        // cell's first leaf.
        for c in union.iter() {
            let leaf = c.range_min();
            prop_assert!(cells.iter().any(|i| i.contains(leaf)));
        }
    }
}

proptest! {
    // Covering tests run the full coverer; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn covering_is_superset_and_bounded(
        cx in 200.0f64..800.0, cy in 200.0f64..800.0,
        r in 30.0f64..180.0,
        n_vertices in 3usize..9,
        level in 5u8..=9,
        seed in 0u64..1000,
    ) {
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 1024.0, 1024.0));
        // An irregular star-ish polygon around (cx, cy).
        let ring: Vec<Point> = (0..n_vertices).map(|i| {
            let jitter = 0.5 + 0.5 * (((seed.wrapping_mul(2654435761).wrapping_add(i as u64 * 97)) % 1000) as f64 / 1000.0);
            let a = std::f64::consts::TAU * i as f64 / n_vertices as f64;
            Point::new(cx + r * jitter * a.cos(), cy + r * jitter * a.sin())
        }).collect();
        let poly = Polygon::new(ring);
        let cov = cover_polygon(&grid, &poly, level);

        // Superset: sampled interior points are covered.
        let bbox = poly.bbox();
        for i in 0..12 {
            for j in 0..12 {
                let p = Point::new(
                    bbox.min.x + bbox.width() * (i as f64 + 0.5) / 12.0,
                    bbox.min.y + bbox.height() * (j as f64 + 0.5) / 12.0,
                );
                if poly.contains_point(p) {
                    prop_assert!(cov.contains(grid.leaf_for_point(p)), "lost {:?}", p);
                }
            }
        }

        // Bounded error: points far outside the polygon are NOT covered.
        let bound = grid.cell_diagonal(level);
        for i in 0..12 {
            let a = std::f64::consts::TAU * i as f64 / 12.0;
            let far = Point::new(cx + (2.0 * r + 2.0 * bound) * a.cos(), cy + (2.0 * r + 2.0 * bound) * a.sin());
            if grid.domain().contains_point(far) && gb_geom::interior::signed_distance(&poly, far) < -bound * 1.5 {
                prop_assert!(!cov.contains(grid.leaf_for_point(far)), "covered far point {:?}", far);
            }
        }
    }
}
