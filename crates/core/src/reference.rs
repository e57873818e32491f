//! The naive oracle: SELECT and COUNT over a covering as Listings 1 & 2
//! state them, with nothing that makes them fast. A covering cell's
//! aggregate is the fold tree every layer is defined by, walked from the
//! block records: at the block level the cell's own record, found by
//! bisecting the block's keys; above it the in-order merge of its four
//! children's aggregates, each into a fresh accumulator. A bisection
//! prunes every subtree without a record before it is entered. No layers,
//! no cursors, no galloping, no compiled plan. COUNT needs no tree:
//! integer sums are exact in any order, so it adds up the counts of the
//! records in each cell's key range ([`GeoBlock::records_under`]).
//!
//! Every accelerated path ([`GeoBlock::select_covering`], the engine,
//! batches, restored snapshots) is property-tested bit-identical
//! (`approx_eq` at `0.0`) to this module, and the
//! `select_pyramid` / `select_ablation` benches time it as their
//! `range_scan` arm. It is compiled unconditionally because those tests
//! and benches are crates of their own.

use crate::aggregate::AggResult;
use crate::block::GeoBlock;
use gb_cell::{CellId, CellUnion};
use gb_data::AggSpec;

/// `cell`'s aggregate, unfinalized: empty when no block record lies under
/// it (which also holds for a cell finer than the block level), the
/// stored record at the block level, and above it the merge of its
/// non-empty children's aggregates in key order — `Layer::fold_to`'s
/// association, one level at a time.
fn fold_cell(block: &GeoBlock, cell: CellId, spec: &AggSpec) -> AggResult {
    let mut acc = AggResult::new(spec);
    let Some(r) = block.records_under(cell).next() else {
        return acc;
    };
    if cell.level() < block.level() {
        for child in cell.children() {
            let below = fold_cell(block, child, spec);
            if below.count > 0 {
                acc.merge(spec, &below);
            }
        }
    } else {
        acc.combine_record(spec, r.count, |c| r.min(c), |c| r.max(c), |c| r.sum(c));
    }
    acc
}

/// SELECT over `covering`, finalized: each covering cell's aggregate,
/// folded along the tree, merges into the result in covering order.
pub fn select_covering(block: &GeoBlock, covering: &CellUnion, spec: &AggSpec) -> AggResult {
    let mut result = AggResult::new(spec);
    for qcell in covering.iter() {
        result.merge(spec, &fold_cell(block, qcell, spec));
    }
    result.finalize(spec)
}

/// COUNT over `covering`: the tuple counts of the records under each cell.
pub fn count_covering(block: &GeoBlock, covering: &CellUnion) -> u64 {
    covering
        .iter()
        .flat_map(|qcell| block.records_under(qcell))
        .map(|r| r.count)
        .sum()
}
