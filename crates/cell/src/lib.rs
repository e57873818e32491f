//! Hierarchical quadtree cell grid with S2-style 64-bit ids — the spatial
//! decomposition substrate of the GeoBlocks reproduction (§3.1–§3.2).
//!
//! The paper builds on Google S2: a recursive 4-way subdivision of space
//! whose cells are enumerated by an order-preserving space-filling curve and
//! identified by 64-bit keys supporting prefix-based containment. This crate
//! re-implements that machinery over a **planar bounded domain** (see the
//! substitution table in `DESIGN.md`):
//!
//! * [`CellId`] — sentinel-encoded 64-bit cell identifiers with O(1)
//!   `level` / `parent` / `children` / `range_min..range_max` / `contains`,
//! * [`curve`] — the Hilbert enumeration (as the paper, via S2), which is
//!   hierarchical, and the [`CurveCursor`] that descends it a table read
//!   per child,
//! * [`Grid`] — the world-rectangle ↔ cell mapping, per-level cell sizes,
//!   and the error-bound helper [`Grid::level_for_error`],
//! * [`CellUnion`] — normalized sorted cell sets,
//! * [`cover_polygon`] — the region coverer producing **error-bounded**
//!   polygon coverings (boundary cells at the block level, interior cells
//!   possibly coarse),
//! * [`polyhash`] — the polygon content key of the engine's covering memo.

pub mod cover;
#[cfg(test)]
mod cover_reference;
pub mod curve;
pub mod grid;
pub mod id;
pub mod polyhash;
pub mod union;

pub use cover::cover_polygon;
pub use curve::CurveCursor;
pub use grid::Grid;
pub use id::{CellId, MAX_LEVEL};
pub use polyhash::{cover_key_from_bits, normalized_vertex_bits};
pub use union::CellUnion;
