//! Umbrella crate for the GeoBlocks (EDBT 2021) reproduction.
//!
//! Re-exports every workspace crate under one name so the runnable
//! `examples/` and the cross-crate `tests/` have a single dependency
//! surface. See `README.md`, `DESIGN.md`, and `EXPERIMENTS.md` at the
//! repository root; library documentation lives in the individual crates:
//!
//! * [`geoblocks`] — the core data structure (blocks, aggregate pyramid, queries),
//! * [`gb_cell`] / [`gb_geom`] — spatial substrates,
//! * [`gb_data`] — columnar tables, extract phase, synthetic datasets,
//! * [`gb_store`] — versioned snapshot container (persistence),
//! * [`gb_serve`] — std-only HTTP serving front-end (wire endpoints,
//!   epoch-validated result cache, metrics, admission control),
//! * [`gb_btree`] / [`gb_phtree`] / [`gb_artree`] — baseline substrates,
//! * [`gb_baselines`] — the unified evaluation interface, with the
//!   paper's Block and BlockQC.

pub use gb_artree;
pub use gb_baselines;
pub use gb_btree;
pub use gb_cell;
pub use gb_common;
pub use gb_data;
pub use gb_geom;
pub use gb_phtree;
pub use gb_serve;
pub use gb_store;
pub use gb_trace;
pub use geoblocks;
