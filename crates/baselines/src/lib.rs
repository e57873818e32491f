//! Unified spatial-aggregation interface over GeoBlocks and all §4.1
//! baselines, plus the exact ground truth used for error metrics.
//!
//! Every approach answers the same two query forms (§2): SELECT (a set of
//! aggregates over the points in a polygon) and COUNT. To keep the
//! comparison fair, as in the paper:
//!
//! * [`BinarySearchIndex`], [`BTreeIndex`], and the GeoBlocks adapters all
//!   use the *same* error-bounded cell covering of the query polygon,
//! * [`PhTreeIndex`] and [`ARTreeIndex`] only support rectangular windows,
//!   so they query the polygon's **interior rectangle** (their results
//!   differ — §4.1: "the PHTree's query results differ from the results of
//!   the other approaches"),
//! * [`GroundTruth`] computes the exact answer with point-in-polygon tests
//!   over the raw rows, defining the relative error
//!   `|result − truth| / truth` of Figures 14–16.

pub mod blocks;
pub mod onfly;
pub mod rect_index;
pub mod truth;

pub use blocks::{BlockIndex, BlockQcIndex, CacheCounts, ScanBlockIndex};
pub use onfly::{BTreeIndex, BinarySearchIndex};
pub use rect_index::{ARTreeIndex, AggRecord, PhTreeIndex, Quantizer};
pub use truth::GroundTruth;

use gb_data::AggSpec;
use gb_geom::Polygon;
use geoblocks::AggResult;

/// A spatial aggregation approach under evaluation.
///
/// `select`/`count` take `&mut self` because the query-caching GeoBlock
/// records hit statistics while answering.
pub trait SpatialAggIndex {
    /// Short display name used in report tables ("Block", "BTree", …).
    fn name(&self) -> &'static str;

    /// SELECT: the requested aggregates over the polygon's points.
    fn select(&mut self, polygon: &Polygon, spec: &AggSpec) -> AggResult;

    /// COUNT: number of points in the polygon.
    fn count(&mut self, polygon: &Polygon) -> u64;

    /// Bytes of index structure *on top of* the base data (Figure 11b's
    /// relative-overhead numerator).
    fn index_bytes(&self) -> usize;

    /// Adapt to the queries answered so far: BlockQC rebuilds its cache
    /// from its hit statistics, every other approach has nothing to adapt.
    fn rebuild(&mut self) {}
}

/// Relative error metric of §4.2: `|result − truth| / truth`.
///
/// Zero truth with a zero result is a perfect answer (error 0); zero truth
/// with a non-zero result is reported as infinite.
pub fn relative_error(result: u64, truth: u64) -> f64 {
    if truth == 0 {
        if result == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (result as f64 - truth as f64).abs() / truth as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_cases() {
        assert_eq!(relative_error(100, 100), 0.0);
        assert_eq!(relative_error(110, 100), 0.1);
        assert_eq!(relative_error(90, 100), 0.1);
        assert_eq!(relative_error(0, 0), 0.0);
        assert_eq!(relative_error(5, 0), f64::INFINITY);
    }
}
