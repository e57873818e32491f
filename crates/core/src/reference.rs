//! The naive oracle: SELECT and COUNT over a covering as Listings 1 & 2
//! state them, with nothing that makes them fast — per covering cell one
//! bisection of the block's keys and one in-order fold of the records in
//! the cell's key range. No cursors, no galloping, no coarser layers, no
//! trie, no compiled plan.
//!
//! Every accelerated path ([`GeoBlock::select_covering`], the engine with
//! a cold or a warm cache, batches, restored snapshots) is property-tested
//! bit-identical (`approx_eq` at `0.0`) to this module, and the
//! `select_pyramid` / `select_ablation` benches time it as their
//! `range_scan` arm. It is compiled unconditionally because those tests
//! and benches are crates of their own.

use crate::aggregate::AggResult;
use crate::block::GeoBlock;
use gb_cell::{CellId, CellUnion};
use gb_data::AggSpec;

/// The indices of the block records under `cell`, ascending: bisect to
/// the first, walk to the last.
fn records_under(block: &GeoBlock, cell: CellId) -> impl Iterator<Item = usize> + '_ {
    let (lo, hi) = (cell.range_min().raw(), cell.range_max().raw());
    let keys = &block.records().keys;
    let first = keys.partition_point(|&k| k < lo);
    (first..keys.len()).take_while(move |&i| keys[i] <= hi)
}

/// SELECT over `covering`, finalized: each covering cell's records fold in
/// key order into an accumulator of their own, which then merges into the
/// result — the association every canonical record is defined by.
pub fn select_covering(block: &GeoBlock, covering: &CellUnion, spec: &AggSpec) -> AggResult {
    let mut result = AggResult::new(spec);
    for qcell in covering.iter() {
        let mut cell = AggResult::new(spec);
        for i in records_under(block, qcell) {
            let r = block.records().record(i);
            cell.combine_record(
                spec,
                r.count,
                |col| r.min(col),
                |col| r.max(col),
                |col| r.sum(col),
            );
        }
        result.merge(spec, &cell);
    }
    result.finalize(spec)
}

/// COUNT over `covering`: the tuple counts of the records under each cell.
pub fn count_covering(block: &GeoBlock, covering: &CellUnion) -> u64 {
    covering
        .iter()
        .flat_map(|qcell| records_under(block, qcell))
        .map(|i| block.records().counts[i])
        .sum()
}
