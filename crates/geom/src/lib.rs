//! Planar geometry primitives for the GeoBlocks reproduction.
//!
//! The paper's data structure operates on geospatial points and arbitrary
//! query polygons (§2). This crate provides everything the cell grid, the
//! coverer, the baselines, and the generators need:
//!
//! * [`Point`] / [`Rect`] / [`Polygon`] value types (polygons are an exterior
//!   ring plus optional holes, even-odd semantics),
//! * robust-enough containment and intersection predicates over `f64`
//!   coordinates ([`Polygon::contains_point`], [`classify_rect`]),
//! * the **pole of inaccessibility** (polylabel) and the derived maximal
//!   axis-aligned [`interior_rect`], which the paper uses to map polygonal
//!   queries onto the rectangle-only PH-tree and aR-tree baselines (§4.1),
//! * a convex-hull routine used by the synthetic polygon generators.
//!
//! Ambiguous floating-point cases in the rect-vs-polygon classification
//! ([`classify_rect`], which the interior-rectangle search uses) are
//! resolved **conservatively towards "intersects"**, so a rectangle it
//! calls inside is inside. The coverer in `gb-cell` classifies its cells
//! with its own edge lists and ray casts, not with this predicate.

pub mod hull;
pub mod interior;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod rect;
pub mod relate;

pub use hull::convex_hull;
pub use interior::{interior_rect, pole_of_inaccessibility};
pub use point::Point;
pub use polygon::Polygon;
pub use predicates::{orient2d, segment_intersects_rect, segments_intersect, Orientation};
pub use rect::Rect;
pub use relate::{classify_rect, RectRelation};
