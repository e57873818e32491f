//! Aggregate accumulation for SELECT queries.
//!
//! §3.4: a cell aggregate maintains, per column, the minimum / maximum /
//! sum of all contained values plus the tuple count; `avg` is derived as
//! `sum / count`. A query requests an arbitrary subset of aggregates
//! ([`AggSpec`]) and the combiner only touches the requested ones — which
//! is what makes Figure 10's "number of aggregates" axis meaningful.

use gb_data::{AggFunc, AggSpec};

/// A compiled aggregation plan: an [`AggSpec`] resolved **once per query**
/// into per-function `(slot, column)` lists, so the per-record hot path is
/// three tight loops instead of a `match` on every request for every cell
/// aggregate. `Count` requests need no per-record work at all (the tuple
/// count is tracked separately and resolved in `finalize`), so they do not
/// appear in any list.
#[derive(Debug, Clone, Default)]
pub struct AggPlan {
    /// Slots accumulating column sums — both `Sum` and `Avg` requests
    /// (`Avg` slots hold running sums until `finalize`).
    sum_slots: Vec<(u32, u32)>,
    /// Slots tracking column minima.
    min_slots: Vec<(u32, u32)>,
    /// Slots tracking column maxima.
    max_slots: Vec<(u32, u32)>,
}

impl AggPlan {
    /// Resolve `spec` into slot lists.
    pub fn compile(spec: &AggSpec) -> AggPlan {
        let mut plan = AggPlan::default();
        for (slot, req) in spec.requests.iter().enumerate() {
            let entry = (slot as u32, req.column as u32);
            match req.func {
                AggFunc::Count => {}
                AggFunc::Sum | AggFunc::Avg => plan.sum_slots.push(entry),
                AggFunc::Min => plan.min_slots.push(entry),
                AggFunc::Max => plan.max_slots.push(entry),
            }
        }
        plan
    }
}

/// A borrowed cell-aggregate record — tuple count plus per-column
/// min/max/sum slices — as every [`crate::Layer`] of a block hands it
/// out; a single's three slices are its one value per column.
/// [`crate::GeoBlock`] hands out the canonical record of any aligned cell
/// in this form, and each block-level record under a cell
/// ([`crate::GeoBlock::records_under`]).
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    pub count: u64,
    pub(crate) mins: &'a [f64],
    pub(crate) maxs: &'a [f64],
    pub(crate) sums: &'a [f64],
}

impl RecordRef<'_> {
    /// Fold this record into `result` through a compiled plan.
    #[inline]
    pub fn combine_into(&self, plan: &AggPlan, result: &mut AggResult) {
        result.combine_record_plan(plan, self.count, self.mins, self.maxs, self.sums);
    }

    #[inline]
    pub fn min(&self, col: usize) -> f64 {
        self.mins[col]
    }

    #[inline]
    pub fn max(&self, col: usize) -> f64 {
        self.maxs[col]
    }

    #[inline]
    pub fn sum(&self, col: usize) -> f64 {
        self.sums[col]
    }
}

/// Accumulator / result of a spatial aggregation query.
///
/// `values[i]` corresponds to `spec.requests[i]`. While accumulating, `Avg`
/// slots hold running sums; [`AggResult::finalize`] divides by the count.
#[derive(Debug, Clone, PartialEq)]
pub struct AggResult {
    /// Number of tuples aggregated.
    pub count: u64,
    values: Vec<f64>,
    finalized: bool,
}

impl AggResult {
    /// A fresh accumulator for `spec`.
    pub fn new(spec: &AggSpec) -> Self {
        let values = spec
            .requests
            .iter()
            .map(|r| match r.func {
                AggFunc::Min => f64::INFINITY,
                AggFunc::Max => f64::NEG_INFINITY,
                AggFunc::Sum | AggFunc::Avg | AggFunc::Count => 0.0,
            })
            .collect();
        AggResult {
            count: 0,
            values,
            finalized: false,
        }
    }

    /// Fold one pre-aggregated record into the accumulator.
    ///
    /// The record is `count` tuples with per-column min/max/sum given by the
    /// accessor closures (indexed by column).
    #[inline]
    pub fn combine_record(
        &mut self,
        spec: &AggSpec,
        count: u64,
        min_of: impl Fn(usize) -> f64,
        max_of: impl Fn(usize) -> f64,
        sum_of: impl Fn(usize) -> f64,
    ) {
        debug_assert!(!self.finalized, "cannot combine after finalize");
        if count == 0 {
            return;
        }
        self.count += count;
        for (slot, req) in self.values.iter_mut().zip(&spec.requests) {
            match req.func {
                AggFunc::Count => {}
                AggFunc::Sum | AggFunc::Avg => *slot += sum_of(req.column),
                AggFunc::Min => *slot = slot.min(min_of(req.column)),
                AggFunc::Max => *slot = slot.max(max_of(req.column)),
            }
        }
    }

    /// [`AggResult::combine_record`] driven by a compiled [`AggPlan`] over
    /// column slices — the hot-loop form: no per-request dispatch, no
    /// closure indirection, accessor arithmetic hoisted to the caller.
    #[inline]
    pub fn combine_record_plan(
        &mut self,
        plan: &AggPlan,
        count: u64,
        mins: &[f64],
        maxs: &[f64],
        sums: &[f64],
    ) {
        debug_assert!(!self.finalized, "cannot combine after finalize");
        if count == 0 {
            return;
        }
        self.count += count;
        for &(slot, col) in &plan.sum_slots {
            self.values[slot as usize] += sums[col as usize];
        }
        for &(slot, col) in &plan.min_slots {
            let s = &mut self.values[slot as usize];
            *s = s.min(mins[col as usize]);
        }
        for &(slot, col) in &plan.max_slots {
            let s = &mut self.values[slot as usize];
            *s = s.max(maxs[col as usize]);
        }
    }

    /// Fold a single raw tuple through a compiled [`AggPlan`] (used by the
    /// on-the-fly baselines so that all approaches share one result type;
    /// they resolve their spec once per query too).
    #[inline]
    pub fn combine_tuple_plan(&mut self, plan: &AggPlan, value_of: impl Fn(usize) -> f64) {
        debug_assert!(!self.finalized);
        self.count += 1;
        for &(slot, col) in &plan.sum_slots {
            self.values[slot as usize] += value_of(col as usize);
        }
        for &(slot, col) in &plan.min_slots {
            let s = &mut self.values[slot as usize];
            *s = s.min(value_of(col as usize));
        }
        for &(slot, col) in &plan.max_slots {
            let s = &mut self.values[slot as usize];
            *s = s.max(value_of(col as usize));
        }
    }

    /// Merge another (non-finalized) accumulator of the same spec.
    pub fn merge(&mut self, spec: &AggSpec, other: &AggResult) {
        debug_assert!(!self.finalized && !other.finalized);
        self.count += other.count;
        for ((slot, req), &ov) in self
            .values
            .iter_mut()
            .zip(&spec.requests)
            .zip(&other.values)
        {
            match req.func {
                AggFunc::Count => {}
                AggFunc::Sum | AggFunc::Avg => *slot += ov,
                AggFunc::Min => *slot = slot.min(ov),
                AggFunc::Max => *slot = slot.max(ov),
            }
        }
    }

    /// Resolve `Avg` and `Count` slots. Idempotent accumulation ends here.
    pub fn finalize(mut self, spec: &AggSpec) -> AggResult {
        if !self.finalized {
            for (slot, req) in self.values.iter_mut().zip(&spec.requests) {
                match req.func {
                    AggFunc::Avg => {
                        *slot = if self.count > 0 {
                            *slot / self.count as f64
                        } else {
                            f64::NAN
                        }
                    }
                    AggFunc::Count => *slot = self.count as f64,
                    _ => {}
                }
            }
            self.finalized = true;
        }
        self
    }

    /// Reassemble a result from its wire parts (the `api` reply codec).
    /// The parts came from an encoded result, so no re-validation against
    /// a spec happens here — decode-side length checks live in `api`.
    pub(crate) fn from_wire(count: u64, values: Vec<f64>, finalized: bool) -> AggResult {
        AggResult {
            count,
            values,
            finalized,
        }
    }

    /// Whether [`AggResult::finalize`] has resolved the `Avg`/`Count`
    /// slots. Engine replies are always finalized; accumulators in
    /// flight are not.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Value of the `i`-th requested aggregate. `None` when no tuples
    /// matched and the aggregate is undefined (min/max/avg of nothing —
    /// left as ±∞/NaN sentinels by the accumulator).
    pub fn value(&self, i: usize) -> Option<f64> {
        let v = self.values[i];
        if v.is_nan() || v.is_infinite() {
            None
        } else {
            Some(v)
        }
    }

    /// All raw slot values (primarily for tests / reports).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Approximate equality to another result (same spec), for tests.
    pub fn approx_eq(&self, other: &AggResult, tol: f64) -> bool {
        if self.count != other.count || self.values.len() != other.values.len() {
            return false;
        }
        self.values.iter().zip(&other.values).all(|(a, b)| {
            (a.is_nan() && b.is_nan())
                || (a.is_infinite() && b.is_infinite() && a.signum() == b.signum())
                || (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_data::AggRequest;

    fn spec() -> AggSpec {
        AggSpec::new(vec![
            AggRequest::new(AggFunc::Count, 0),
            AggRequest::new(AggFunc::Sum, 0),
            AggRequest::new(AggFunc::Min, 1),
            AggRequest::new(AggFunc::Max, 1),
            AggRequest::new(AggFunc::Avg, 0),
        ])
    }

    #[test]
    fn tuple_accumulation() {
        let s = spec();
        let plan = AggPlan::compile(&s);
        let mut r = AggResult::new(&s);
        // Two tuples: col0 = 10/20, col1 = -1/5.
        r.combine_tuple_plan(&plan, |c| if c == 0 { 10.0 } else { -1.0 });
        r.combine_tuple_plan(&plan, |c| if c == 0 { 20.0 } else { 5.0 });
        let r = r.finalize(&s);
        assert_eq!(r.count, 2);
        assert_eq!(r.value(0), Some(2.0)); // count
        assert_eq!(r.value(1), Some(30.0)); // sum col0
        assert_eq!(r.value(2), Some(-1.0)); // min col1
        assert_eq!(r.value(3), Some(5.0)); // max col1
        assert_eq!(r.value(4), Some(15.0)); // avg col0
    }

    #[test]
    fn record_accumulation_matches_tuples() {
        let s = spec();
        // Record: 3 tuples, col0 (min 1, max 7, sum 12), col1 (min 0, max 2, sum 3).
        let mins = [1.0, 0.0];
        let maxs = [7.0, 2.0];
        let sums = [12.0, 3.0];
        let mut r = AggResult::new(&s);
        r.combine_record(&s, 3, |c| mins[c], |c| maxs[c], |c| sums[c]);
        let r = r.finalize(&s);
        assert_eq!(r.count, 3);
        assert_eq!(r.value(1), Some(12.0));
        assert_eq!(r.value(2), Some(0.0));
        assert_eq!(r.value(3), Some(2.0));
        assert_eq!(r.value(4), Some(4.0));
    }

    #[test]
    fn empty_record_is_ignored() {
        let s = spec();
        let mut r = AggResult::new(&s);
        r.combine_record(&s, 0, |_| 99.0, |_| 99.0, |_| 99.0);
        let r = r.finalize(&s);
        assert_eq!(r.count, 0);
        assert_eq!(r.value(0), Some(0.0)); // count of empty = 0
        assert!(r.value(2).is_none()); // min undefined
        assert!(r.value(4).is_none()); // avg undefined
    }

    #[test]
    fn merge_equals_combined_stream() {
        let s = spec();
        let plan = AggPlan::compile(&s);
        let mut a = AggResult::new(&s);
        let mut b = AggResult::new(&s);
        a.combine_tuple_plan(&plan, |c| (c + 1) as f64);
        b.combine_tuple_plan(&plan, |c| (c * 10) as f64);
        let mut merged = AggResult::new(&s);
        merged.merge(&s, &a);
        merged.merge(&s, &b);

        let mut straight = AggResult::new(&s);
        straight.combine_tuple_plan(&plan, |c| (c + 1) as f64);
        straight.combine_tuple_plan(&plan, |c| (c * 10) as f64);

        assert!(merged.finalize(&s).approx_eq(&straight.finalize(&s), 1e-12));
    }

    #[test]
    fn plan_record_combine_matches_closure_combine() {
        let s = spec();
        let plan = AggPlan::compile(&s);
        let mins = [1.0, -2.0];
        let maxs = [7.0, 9.5];
        let sums = [12.0, 3.25];
        let mut via_plan = AggResult::new(&s);
        via_plan.combine_record_plan(&plan, 3, &mins, &maxs, &sums);
        let mut via_closure = AggResult::new(&s);
        via_closure.combine_record(&s, 3, |c| mins[c], |c| maxs[c], |c| sums[c]);
        assert!(via_plan
            .finalize(&s)
            .approx_eq(&via_closure.finalize(&s), 0.0));
    }

    #[test]
    fn tuples_fold_like_the_record_of_those_tuples() {
        // A tuple is a record of count 1 whose min, max and sum are its
        // value: folding tuples one by one equals combining their records.
        let s = spec();
        let plan = AggPlan::compile(&s);
        let mut a = AggResult::new(&s);
        let mut b = AggResult::new(&s);
        for i in 0..5 {
            let value = |c: usize| (i * 2 + c) as f64 - 4.5;
            a.combine_tuple_plan(&plan, value);
            b.combine_record(&s, 1, value, value, value);
        }
        assert!(a.finalize(&s).approx_eq(&b.finalize(&s), 0.0));
    }

    #[test]
    fn folded_run_merge_equals_direct_record_combine() {
        // The bit-identity backbone of `crate::reference`: folding a run
        // of records into a fresh accumulator and merging it equals
        // combining the precomputed record of that run — exactly, not
        // approximately.
        let s = spec();
        let plan = AggPlan::compile(&s);
        let records = [
            ([0.3, -1.0], [5.0, 2.0], [9.9, 0.5], 2u64),
            ([0.1, 4.0], [0.2, 8.0], [0.30000000000000004, 12.0], 3u64),
        ];

        // Path A: fold each record into a fresh accumulator, merge it.
        let mut result_a = AggResult::new(&s);
        let mut run = AggResult::new(&s);
        for (mins, maxs, sums, count) in &records {
            run.combine_record(&s, *count, |c| mins[c], |c| maxs[c], |c| sums[c]);
        }
        result_a.merge(&s, &run);
        // An empty run merges to nothing.
        result_a.merge(&s, &AggResult::new(&s));

        // Path B: one precomputed "pyramid" record — the same fold.
        let mut result_b = AggResult::new(&s);
        let pre = RecordRef {
            count: 5,
            mins: &[0.3f64.min(0.1), (-1.0f64).min(4.0)],
            maxs: &[5.0f64.max(0.2), 2.0f64.max(8.0)],
            sums: &[9.9 + 0.30000000000000004, 0.5 + 12.0],
        };
        pre.combine_into(&plan, &mut result_b);

        assert!(result_a.finalize(&s).approx_eq(&result_b.finalize(&s), 0.0));
    }

    #[test]
    fn approx_eq_detects_differences() {
        let s = spec();
        let plan = AggPlan::compile(&s);
        let mut a = AggResult::new(&s);
        a.combine_tuple_plan(&plan, |_| 1.0);
        let mut b = AggResult::new(&s);
        b.combine_tuple_plan(&plan, |_| 2.0);
        let (a, b) = (a.finalize(&s), b.finalize(&s));
        assert!(!a.approx_eq(&b, 1e-9));
        assert!(a.approx_eq(&a.clone(), 0.0));
    }
}
