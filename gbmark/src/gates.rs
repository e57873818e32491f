//! Correctness gates. They run on a server of their own before anything
//! is timed; a failing gate ends the command with a non-zero exit and no
//! numbers. The update gates (epochs, no row lost) run after each timed
//! round, on the server that took the updates.

use crate::load::Run;
use crate::sut::{self, Sut};
use crate::workload::{self, Stream};
use gb_baselines::GroundTruth;
use gb_serve::client::Connection;
use geoblocks::api::{self, QueryReply};

/// HTTP replies compared with direct engine calls.
const IDENTITY_REQUESTS: usize = 32;
/// Frozen ceiling on the relative COUNT error summed over the 64
/// neighborhoods at level 10 (the baseline measures 0.07–0.10). The
/// covering only over-counts, by the points in its boundary cells; for a
/// single sparse polygon that can be twice its exact count, so the
/// per-polygon maximum is reported but not gated.
pub const REL_ERR_BOUND: f64 = 0.25;

/// COUNT accuracy over the 64 neighborhoods against the full scan.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// Largest `(approximate - exact) / exact` of one polygon.
    pub rel_err_max: f64,
    /// `Σ (approximate - exact) / Σ exact`.
    pub rel_err_agg: f64,
}

/// Count, every aggregate by bit pattern, and epoch — not the execution
/// statistics, which legitimately differ between a cached and a computed
/// answer.
fn same_answer(a: &QueryReply, b: &QueryReply) -> bool {
    match (a, b) {
        (QueryReply::Select(x), QueryReply::Select(y)) => {
            x.epoch == y.epoch
                && x.result.count == y.result.count
                && x.result.values().len() == y.result.values().len()
                && x.result
                    .values()
                    .iter()
                    .zip(y.result.values())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (QueryReply::Count(x), QueryReply::Count(y)) => x.epoch == y.epoch && x.result == y.result,
        (QueryReply::Batch(x), QueryReply::Batch(y)) => {
            x.epoch == y.epoch
                && x.result.len() == y.result.len()
                && x.result
                    .iter()
                    .zip(&y.result)
                    .all(|(p, q)| same_answer(p, q))
        }
        _ => false,
    }
}

/// Gates that need no load: wire ≡ engine on the first requests of the
/// stream, accuracy against the full-scan ground truth, and the
/// whole-domain count.
pub fn before_timing(sut: &Sut, stream: &Stream, seed: u64) -> Result<Accuracy, String> {
    let engine = sut.engine();
    let mut conn = Connection::connect(sut.running.addr()).map_err(|e| format!("gate: {e}"))?;
    for i in 0..IDENTITY_REQUESTS {
        let Some(req) = stream.get(i) else { break };
        let typed =
            api::decode_request(&req.body).map_err(|e| format!("gate: request {i}: {e}"))?;
        let resp = conn
            .request("POST", req.kind.path(), &[], &req.body)
            .map_err(|e| format!("gate: request {i}: {e}"))?;
        let wire = api::decode_reply(&resp.body).map_err(|e| format!("gate: reply {i}: {e}"))?;
        let direct = engine
            .query(&typed)
            .map_err(|e| format!("gate: direct {i}: {e}"))?;
        if resp.status != 200 || !same_answer(&wire, &direct) {
            return Err(format!(
                "gate: request {i} over HTTP ({}) differs from the engine: {wire:?} vs {direct:?}",
                resp.status
            ));
        }
    }
    drop(conn);

    let truth = GroundTruth::new(&sut.base);
    let mut rel_err_max = 0.0f64;
    let (mut exact_sum, mut over_sum) = (0u64, 0u64);
    for (i, polygon) in workload::neighborhoods(seed).iter().enumerate() {
        let exact = truth.exact_count(polygon);
        let got = engine.count(polygon).result;
        if got < exact {
            return Err(format!(
                "gate: neighborhood {i} counts {got} < exact {exact}"
            ));
        }
        rel_err_max = rel_err_max.max((got - exact) as f64 / exact.max(1) as f64);
        exact_sum += exact;
        over_sum += got - exact;
    }
    let rel_err_agg = over_sum as f64 / exact_sum.max(1) as f64;
    if rel_err_agg > REL_ERR_BOUND {
        return Err(format!(
            "gate: relative COUNT error {rel_err_agg} above the frozen {REL_ERR_BOUND}"
        ));
    }

    let all = whole_domain(sut)?;
    if all != sut.block.num_rows() {
        return Err(format!(
            "gate: whole-domain count {all} != {} rows",
            sut.block.num_rows()
        ));
    }
    Ok(Accuracy {
        rel_err_max,
        rel_err_agg,
    })
}

fn whole_domain(sut: &Sut) -> Result<u64, String> {
    match sut.engine().query(&sut::whole_domain_count()) {
        Ok(QueryReply::Count(r)) => Ok(r.result),
        other => Err(format!("gate: whole-domain count failed: {other:?}")),
    }
}

/// After a round with updates: the data epoch equals the updates the
/// clients saw acknowledged, and every acknowledged row is countable.
/// (Reads at a stale epoch were already counted as failed by the client.)
pub fn after_updates(sut: &Sut, runs: &[Run]) -> Result<(), String> {
    let acked: u64 = runs.iter().map(|r| r.acked_updates).sum();
    let epoch = sut.engine().data_epoch();
    if epoch != acked {
        return Err(format!(
            "gate: data epoch {epoch} != {acked} acknowledged updates"
        ));
    }
    let want = sut.block.num_rows() + acked * workload::UPDATE_ROWS as u64;
    let got = whole_domain(sut)?;
    if got != want {
        return Err(format!(
            "gate: whole-domain count {got} != {want} (initial + acknowledged rows)"
        ));
    }
    Ok(())
}
