//! GeoBlocks adapters to the unified [`SpatialAggIndex`] interface.

use crate::SpatialAggIndex;
use gb_data::AggSpec;
use gb_geom::Polygon;
use geoblocks::{AggResult, GeoBlock, GeoBlockEngine};

/// "Block": GeoBlocks without query caching.
pub struct BlockIndex {
    block: GeoBlock,
}

impl BlockIndex {
    pub fn new(block: GeoBlock) -> Self {
        BlockIndex { block }
    }

    pub fn block(&self) -> &GeoBlock {
        &self.block
    }
}

impl SpatialAggIndex for BlockIndex {
    fn name(&self) -> &'static str {
        "Block"
    }

    fn select(&mut self, polygon: &Polygon, spec: &AggSpec) -> AggResult {
        self.block.select(polygon, spec).0
    }

    fn count(&mut self, polygon: &Polygon) -> u64 {
        self.block.count(polygon).0
    }

    fn index_bytes(&self) -> usize {
        self.block.memory_bytes()
    }
}

/// "BlockQC": GeoBlocks with the AggregateTrie query cache — a
/// [`GeoBlockEngine`] without its covering memo, so that a repeated
/// polygon still pays its covering, as in the paper.
pub struct BlockQcIndex {
    engine: GeoBlockEngine,
}

impl BlockQcIndex {
    /// Wrap `block` with a cache budget of `threshold` × its
    /// cell-aggregate bytes.
    pub fn new(block: GeoBlock, threshold: f64) -> Self {
        BlockQcIndex {
            engine: GeoBlockEngine::new(block, threshold).with_memo_capacity(0),
        }
    }

    /// The engine, for rebuilding the cache and reading its metrics.
    pub fn engine(&self) -> &GeoBlockEngine {
        &self.engine
    }
}

impl SpatialAggIndex for BlockQcIndex {
    fn name(&self) -> &'static str {
        "BlockQC"
    }

    fn select(&mut self, polygon: &Polygon, spec: &AggSpec) -> AggResult {
        self.engine.select(polygon, spec).result
    }

    fn count(&mut self, polygon: &Polygon) -> u64 {
        self.engine.count(polygon).result
    }

    fn index_bytes(&self) -> usize {
        self.engine.block_snapshot().memory_bytes() + self.engine.trie_snapshot().size_bytes()
    }
}
