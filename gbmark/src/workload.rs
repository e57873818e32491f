//! The four request streams, generated from `--seed` alone.
//!
//! A stream is a pool of pre-encoded request bodies plus the order in
//! which they are sent, so the load generators do no encoding, hashing
//! or random draws inside a timed region. The two client threads pull
//! positions from one shared counter; the traced replay walks the same
//! positions single-threaded.

use gb_data::{polygons, AggSpec};
use gb_geom::{Point, Polygon};
use geoblocks::api::{self, QueryRequest};
use geoblocks::UpdateBatch;

/// Polygons of the dashboard pool (`dash_hot`, `mixed_update`, `rate_steps`).
pub const HOT_POLYGONS: usize = 64;
/// One update per this many stream positions: with two clients pulling
/// from the shared stream, one per 1000 requests per client.
pub const UPDATE_EVERY: usize = 500;
/// Rows per update batch.
pub const UPDATE_ROWS: usize = 8;
/// Length of the cyclic order of the dashboard streams (a multiple of
/// [`UPDATE_EVERY`], so update positions line up across cycles).
const ORDER_LEN: usize = 64_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DashHot,
    ExploreFresh,
    MixedUpdate,
    RateSteps,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DashHot,
        Workload::ExploreFresh,
        Workload::MixedUpdate,
        Workload::RateSteps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DashHot => "dash_hot",
            Workload::ExploreFresh => "explore_fresh",
            Workload::MixedUpdate => "mixed_update",
            Workload::RateSteps => "rate_steps",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn has_updates(self) -> bool {
        matches!(self, Workload::MixedUpdate | Workload::RateSteps)
    }

    pub fn open_loop(self) -> bool {
        self == Workload::RateSteps
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Select,
    Count,
    Batch,
    Update,
}

impl Kind {
    pub fn path(self) -> &'static str {
        match self {
            Kind::Select => "/v1/select",
            Kind::Count => "/v1/count",
            Kind::Batch => "/v1/batch",
            Kind::Update => "/v1/update",
        }
    }
}

/// One pre-encoded request.
#[derive(Debug, Clone)]
pub struct Req {
    pub kind: Kind,
    pub body: Vec<u8>,
}

impl Req {
    fn new(kind: Kind, req: &QueryRequest) -> Req {
        Req {
            kind,
            body: api::encode_request(req),
        }
    }
}

/// A request stream: position `i` is `pool[order[i % len]]` when the
/// stream is cyclic, `pool[i]` (ending with the pool) when it is not.
#[derive(Debug)]
pub struct Stream {
    pool: Vec<Req>,
    order: Option<Vec<u32>>,
}

impl Stream {
    pub fn get(&self, i: usize) -> Option<&Req> {
        match &self.order {
            Some(order) => self.pool.get(*order.get(i % order.len())? as usize),
            None => self.pool.get(i),
        }
    }

    /// The distinct cacheable requests of a cyclic stream (what the
    /// warm-up pass sends once each); empty for a one-shot stream.
    pub fn warm_set(&self) -> &[Req] {
        match self.order {
            Some(_) => self.pool.get(..3 * HOT_POLYGONS).unwrap_or_default(),
            None => &[],
        }
    }

    /// FNV-1a over the bodies of the first `n` positions — the identity
    /// of a stream for the same-seed / different-seed tests.
    pub fn hash(&self, n: usize) -> u64 {
        let bodies: Vec<u8> = (0..n)
            .map_while(|i| self.get(i))
            .flat_map(|r| r.body.iter().copied())
            .collect();
        gb_store::fnv1a64(&bodies)
    }
}

/// SplitMix64: the benchmark's only random source, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `component` of `seed`; components never share draws.
    pub fn new(seed: u64, component: u64) -> Rng {
        let mut rng = Rng(seed ^ component.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(1.0) over ranks `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

fn select(polygon: &Polygon, spec: &AggSpec) -> QueryRequest {
    QueryRequest::Select {
        polygon: polygon.clone(),
        spec: spec.clone(),
    }
}

fn count(polygon: &Polygon) -> QueryRequest {
    QueryRequest::Count {
        polygon: polygon.clone(),
    }
}

/// An 8-row update batch with points inside the populated part of the
/// domain (some land in existing cells, some open new ones).
pub fn update_batch(rng: &mut Rng, n_cols: usize) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..UPDATE_ROWS {
        let at = Point::new(10.0 + 40.0 * rng.unit(), 10.0 + 40.0 * rng.unit());
        batch.push(at, (0..n_cols).map(|_| 100.0 * rng.unit()).collect());
    }
    batch
}

/// The dashboard stream: Zipf(1.0) over 64 neighborhoods, 80 % select,
/// 15 % count, 5 % 4-item batch (batch `i` covers polygons `i..i+4`, so
/// a batch is a repeatable shape too); with `updates`, every
/// [`UPDATE_EVERY`]th position is an update batch instead.
fn dashboard(seed: u64, spec: &AggSpec, n_cols: usize, updates: bool) -> Stream {
    let polys = polygons::neighborhoods(HOT_POLYGONS, seed);
    let mut pool: Vec<Req> = Vec::with_capacity(3 * HOT_POLYGONS + ORDER_LEN / UPDATE_EVERY);
    pool.extend(
        polys
            .iter()
            .map(|p| Req::new(Kind::Select, &select(p, spec))),
    );
    pool.extend(polys.iter().map(|p| Req::new(Kind::Count, &count(p))));
    for i in 0..HOT_POLYGONS {
        let requests = (0..4)
            .map(|j| {
                let p = &polys[(i + j) % HOT_POLYGONS];
                if j % 2 == 0 {
                    select(p, spec)
                } else {
                    count(p)
                }
            })
            .collect();
        pool.push(Req::new(Kind::Batch, &QueryRequest::Batch { requests }));
    }

    let zipf = Zipf::new(HOT_POLYGONS);
    let mut draws = Rng::new(seed, 1);
    let mut update_rng = Rng::new(seed, 2);
    let order = (0..ORDER_LEN)
        .map(|i| {
            if updates && i % UPDATE_EVERY == UPDATE_EVERY - 1 {
                let batch = update_batch(&mut update_rng, n_cols);
                pool.push(Req::new(Kind::Update, &QueryRequest::Update { batch }));
                return (pool.len() - 1) as u32;
            }
            let mix = draws.unit();
            let base = if mix < 0.80 {
                0
            } else if mix < 0.95 {
                HOT_POLYGONS
            } else {
                2 * HOT_POLYGONS
            };
            (base + zipf.draw(&mut draws)) as u32
        })
        .collect();
    Stream {
        pool,
        order: Some(order),
    }
}

/// The exploration stream: `n` polygons no request has used before
/// (85 % select, 15 % count). They crowd the same hotspots, so they share
/// covering *cells* — what the trie caches — but never an identity.
fn exploration(seed: u64, spec: &AggSpec, n: usize) -> Stream {
    let mut draws = Rng::new(seed, 3);
    let pool = polygons::neighborhoods(n, seed ^ 0x5EED_F4E5)
        .iter()
        .map(|p| {
            if draws.unit() < 0.85 {
                Req::new(Kind::Select, &select(p, spec))
            } else {
                Req::new(Kind::Count, &count(p))
            }
        })
        .collect();
    Stream { pool, order: None }
}

/// The stream of `workload` for `seed`. `fresh` is how many positions an
/// `explore_fresh` stream holds; the other streams never end.
pub fn stream(
    workload: Workload,
    seed: u64,
    spec: &AggSpec,
    n_cols: usize,
    fresh: usize,
) -> Stream {
    match workload {
        Workload::DashHot => dashboard(seed, spec, n_cols, false),
        Workload::ExploreFresh => exploration(seed, spec, fresh),
        Workload::MixedUpdate | Workload::RateSteps => dashboard(seed, spec, n_cols, true),
    }
}

/// The 64 neighborhoods the accuracy gate measures (the dashboard pool).
pub fn neighborhoods(seed: u64) -> Vec<Polygon> {
    polygons::neighborhoods(HOT_POLYGONS, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_data::{ColumnDef, Schema};

    fn spec() -> AggSpec {
        AggSpec::k_aggregates(&Schema::new(vec![ColumnDef::f64("v")]), 7)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            let a = stream(w, 7, &spec(), 1, 300).hash(300);
            let b = stream(w, 7, &spec(), 1, 300).hash(300);
            let c = stream(w, 8, &spec(), 1, 300).hash(300);
            assert_eq!(a, b, "{}: same seed must repeat", w.name());
            assert_ne!(a, c, "{}: another seed must differ", w.name());
        }
    }

    #[test]
    fn dashboard_mix_and_update_positions() {
        let s = stream(Workload::MixedUpdate, 1, &spec(), 1, 0);
        let n = 20_000;
        let kinds: Vec<Kind> = (0..n).filter_map(|i| s.get(i).map(|r| r.kind)).collect();
        let share = |k: Kind| kinds.iter().filter(|&&x| x == k).count() as f64 / n as f64;
        assert_eq!(share(Kind::Update), 1.0 / UPDATE_EVERY as f64);
        assert!((share(Kind::Select) - 0.80).abs() < 0.02);
        assert!((share(Kind::Count) - 0.15).abs() < 0.02);
        assert!((share(Kind::Batch) - 0.05).abs() < 0.01);
        assert!(
            (0..n).all(|i| (s.get(i).map(|r| r.kind) == Some(Kind::Update))
                == (i % UPDATE_EVERY == UPDATE_EVERY - 1))
        );
        // Read-only dashboards carry no update at all.
        let ro = stream(Workload::DashHot, 1, &spec(), 1, 0);
        assert!((0..n).all(|i| ro.get(i).is_some_and(|r| r.kind != Kind::Update)));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(64);
        let mut rng = Rng::new(3, 0);
        let mut hits = [0usize; 64];
        for _ in 0..50_000 {
            hits[zipf.draw(&mut rng)] += 1;
        }
        // Rank 0 carries 1/H(64) ≈ 21 % of the draws; every rank is drawn.
        assert!((hits[0] as f64 / 50_000.0 - 0.21).abs() < 0.02);
        assert!(hits[0] > hits[1] && hits[1] > hits[7] && hits[7] > hits[63]);
        assert!(hits.iter().all(|&h| h > 0));
    }

    #[test]
    fn exploration_never_repeats_and_ends() {
        let s = stream(Workload::ExploreFresh, 5, &spec(), 1, 500);
        let mut bodies: Vec<&[u8]> = (0..500)
            .filter_map(|i| s.get(i))
            .map(|r| &r.body[..])
            .collect();
        assert_eq!(bodies.len(), 500);
        // Identity is the polygon: strip nothing, a select and a count of
        // two different polygons can never be byte-equal either.
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), 500);
        assert!(s.get(500).is_none());
        assert!(s.warm_set().is_empty());
    }
}
