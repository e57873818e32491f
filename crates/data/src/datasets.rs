//! Synthetic stand-ins for the paper's real-world datasets (§4.1).
//!
//! We do not have the NYC TLC trip records, the geotagged tweets, or the
//! OSM extract, so each generator reproduces the *statistical shape* the
//! experiments depend on (see DESIGN.md's substitution table):
//!
//! * [`nyc_taxi`] — heavy spatial skew (a dense anisotropic "Manhattan"
//!   strip, borough blobs, two airport hotspots, uniform suburb noise),
//!   dirty rows for the cleaning pass, and attribute columns calibrated so
//!   the §4.4 filter predicates hit the paper's selectivities
//!   (`distance >= 4` ≈ 16 %, `passenger_cnt == 1` ≈ 70 %,
//!   `passenger_cnt > 1` ≈ 30 %).
//! * [`us_tweets`] — city-centred clusters in a continental bounding box
//!   with random integer payload columns (as in the paper).
//! * [`osm_americas`] — an even broader clustered + uniform mix.
//!
//! All generators are deterministic in their seed.

use crate::schema::{ColumnDef, Schema};
use crate::table::RawTable;
use gb_cell::Grid;
use gb_common::rng::{derive_seed, rng_from_seed};
use gb_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::Rng;

/// A generated dataset: the raw table plus the grid domain to index it on.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub raw: RawTable,
    pub grid: Grid,
    /// Human-readable name used in reports.
    pub name: &'static str,
}

/// A weighted Gaussian (or line-segment) cluster of points.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hotspot {
    /// Segment from `a` to `b` (equal for a round blob).
    a: Point,
    b: Point,
    /// Isotropic spread around the segment.
    sigma: f64,
    /// Relative sampling weight.
    weight: f64,
}

impl Hotspot {
    fn blob(center: Point, sigma: f64, weight: f64) -> Self {
        Hotspot {
            a: center,
            b: center,
            sigma,
            weight,
        }
    }

    fn strip(a: Point, b: Point, sigma: f64, weight: f64) -> Self {
        Hotspot {
            a,
            b,
            sigma,
            weight,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> Point {
        let t: f64 = rng.gen();
        let base = self.a + (self.b - self.a) * t;
        let gauss = normal_pair(rng);
        Point::new(base.x + gauss.0 * self.sigma, base.y + gauss.1 * self.sigma)
    }
}

/// Two independent standard normal samples (Box–Muller).
fn normal_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Sample a hotspot index proportional to weight.
fn pick_hotspot(hotspots: &[Hotspot], rng: &mut StdRng) -> usize {
    let total: f64 = hotspots.iter().map(|h| h.weight).sum();
    let mut x = rng.gen_range(0.0..total);
    for (i, h) in hotspots.iter().enumerate() {
        if x < h.weight {
            return i;
        }
        x -= h.weight;
    }
    hotspots.len() - 1
}

/// NYC-taxi-shaped dataset domain: a 60 km × 60 km box.
pub fn nyc_domain() -> Rect {
    Rect::from_bounds(0.0, 0.0, 60.0, 60.0)
}

/// The "NYC hotspots" used by both the taxi generator and the neighborhood
/// polygon generator, so polygons land where the data is (§3.6 observation 3).
pub(crate) fn nyc_hotspots() -> Vec<Hotspot> {
    vec![
        // Manhattan: long, narrow, very dense diagonal strip.
        Hotspot::strip(Point::new(22.0, 28.0), Point::new(30.0, 46.0), 1.1, 0.50),
        // Brooklyn blob.
        Hotspot::blob(Point::new(30.0, 20.0), 3.2, 0.15),
        // Queens blob.
        Hotspot::blob(Point::new(40.0, 30.0), 3.6, 0.08),
        // JFK airport: tight.
        Hotspot::blob(Point::new(47.0, 17.0), 0.7, 0.07),
        // LaGuardia: tight.
        Hotspot::blob(Point::new(36.0, 37.0), 0.5, 0.05),
        // Bronx.
        Hotspot::blob(Point::new(27.0, 52.0), 2.5, 0.05),
        // Uniform suburb noise over the whole domain.
        Hotspot::blob(Point::new(30.0, 30.0), 18.0, 0.10),
    ]
}

/// Share of generated raw rows that are deliberately dirty (bad coordinates
/// or out-of-range values) so the extract phase has outliers to remove.
const DIRTY_FRACTION: f64 = 0.005;

/// GPS jitter around a pickup site, in km (≈8 m).
const GPS_JITTER: f64 = 0.008;

/// A finite set of pickup "sites" (street corners, taxi stands) with
/// Zipf-skewed popularity.
///
/// Real trip records snap to street geometry and popular locations, which
/// is why the paper's distinct-cell count *saturates* as rows grow
/// ("one million points already cover most areas in NYC", Figure 13) and
/// why a GeoBlock's size is "determined by the spatial distribution of
/// points, not their number". Sampling hotspot Gaussians continuously
/// would defeat both effects, so rows are drawn from this site set plus a
/// few metres of GPS noise.
struct SiteSet {
    sites: Vec<Point>,
    /// Cumulative sampling weights, same length as `sites`.
    cumulative: Vec<f64>,
}

impl SiteSet {
    fn generate(hotspots: &[Hotspot], sites_per_weight: f64, rng: &mut StdRng) -> SiteSet {
        let per_hotspot = |h: &Hotspot| ((h.weight * sites_per_weight) as usize).max(8);
        let n: usize = hotspots.iter().map(per_hotspot).sum();
        let mut sites = Vec::with_capacity(n);
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for h in hotspots {
            for rank in 0..per_hotspot(h) {
                sites.push(h.sample(rng));
                // Zipf-ish popularity within the hotspot, scaled by the
                // hotspot's own weight.
                acc += h.weight / (rank as f64 + 1.0).powf(0.8);
                cumulative.push(acc);
            }
        }
        SiteSet { sites, cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> Point {
        let total = *self.cumulative.last().expect("non-empty site set");
        let x = rng.gen_range(0.0..total);
        let idx = self.cumulative.partition_point(|&c| c < x);
        let site = self.sites[idx.min(self.sites.len() - 1)];
        let gauss = normal_pair(rng);
        Point::new(site.x + gauss.0 * GPS_JITTER, site.y + gauss.1 * GPS_JITTER)
    }
}

/// Generate `n` NYC-taxi-like trips.
///
/// Schema (7 columns — the paper queries "7 aggregates, requesting each
/// column at least once"): `fare_amount`, `trip_distance`, `tip_amount`,
/// `tip_rate`, `passenger_cnt`, `pickup_time`, `dropoff_time`.
pub fn nyc_taxi(n: usize, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(derive_seed(seed, "nyc_taxi"));
    let hotspots = nyc_hotspots();
    let domain = nyc_domain();
    // ~300k pickup sites (street-address granularity) regardless of n:
    // dense neighborhoods then contain thousands of occupied grid cells —
    // the workload the paper's query cache amortizes — while the finite
    // site set still saturates the distinct-cell count as rows grow
    // (Figure 13a's declining Block overhead; the paper's 12M-row dataset
    // occupies on the order of a million level-17 cells).
    let mut site_rng = rng_from_seed(derive_seed(seed, "nyc_sites"));
    let sites = SiteSet::generate(&hotspots, 300_000.0, &mut site_rng);

    let schema = Schema::new(vec![
        ColumnDef::f64("fare_amount"),
        ColumnDef::f64("trip_distance"),
        ColumnDef::f64("tip_amount"),
        ColumnDef::f64("tip_rate"),
        ColumnDef::f64("passenger_cnt"),
        ColumnDef::f64("pickup_time"),
        ColumnDef::f64("dropoff_time"),
    ]);
    let mut raw = RawTable::new(schema);
    raw.reserve(n);

    // Jan 1 – Mar 31 2015 in epoch seconds.
    const T0: f64 = 1_420_070_400.0;
    const T1: f64 = 1_427_846_400.0;

    for _ in 0..n {
        let mut loc = sites.sample(&mut rng);
        // Clamp stragglers into the domain (cleaning removes true outliers,
        // not the soft tail of legitimate clusters).
        loc.x = loc.x.clamp(domain.min.x, domain.max.x);
        loc.y = loc.y.clamp(domain.min.y, domain.max.y);

        // trip_distance ~ LogNormal(0.6, 0.8): P(d ≥ 4) ≈ 0.16 (§4.4).
        let (g, _) = normal_pair(&mut rng);
        let distance = (0.6 + 0.8 * g).exp().min(60.0);

        // passenger_cnt: P(1)=0.70, P(>1)=0.30 (§4.4 selectivities).
        let pax = {
            let r: f64 = rng.gen();
            if r < 0.70 {
                1.0
            } else if r < 0.85 {
                2.0
            } else if r < 0.91 {
                3.0
            } else if r < 0.95 {
                4.0
            } else if r < 0.98 {
                5.0
            } else {
                6.0
            }
        };

        let fare = 2.5 + 2.7 * distance + rng.gen_range(0.0..2.0);
        let tip_rate = (rng.gen_range(0.0f64..0.35)).powi(2) / 0.35; // skewed to low tips
        let tip = fare * tip_rate;
        let pickup = rng.gen_range(T0..T1).floor();
        let dropoff = pickup + (distance / 0.3) * 60.0 + rng.gen_range(60.0..300.0);

        let dirty: f64 = rng.gen();
        if dirty < DIRTY_FRACTION {
            // Dirty row: teleported coordinates or a nonsense fare.
            if rng.gen_bool(0.5) {
                raw.push_row(
                    Point::new(loc.x + 500.0, loc.y - 500.0),
                    &[fare, distance, tip, tip_rate, pax, pickup, dropoff.floor()],
                );
            } else {
                raw.push_row(
                    loc,
                    &[-fare, distance, tip, tip_rate, pax, pickup, dropoff.floor()],
                );
            }
        } else {
            raw.push_row(
                loc,
                &[fare, distance, tip, tip_rate, pax, pickup, dropoff.floor()],
            );
        }
    }

    Dataset {
        raw,
        grid: Grid::hilbert(domain),
        name: "nyc_taxi",
    }
}

/// Cleaning rules matching the taxi schema (positive fares, sane ranges).
pub fn nyc_cleaning_rules() -> crate::extract::CleaningRules {
    crate::extract::CleaningRules::none()
        .with_bound(0, 0.0, 500.0) // fare_amount
        .with_bound(1, 0.0, 100.0) // trip_distance
        .with_bound(2, 0.0, 500.0) // tip_amount
}

/// US-continental domain for the tweets dataset (rough km scale).
pub fn us_domain() -> Rect {
    Rect::from_bounds(0.0, 0.0, 4600.0, 2600.0)
}

/// Generate `n` geotagged-tweet-like points with integer payloads.
pub fn us_tweets(n: usize, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(derive_seed(seed, "us_tweets"));
    let domain = us_domain();

    // ~28 "cities" with Zipf-ish weights, deterministically placed.
    let mut place_rng = rng_from_seed(derive_seed(seed, "us_cities"));
    let mut hotspots: Vec<Hotspot> = (0..28)
        .map(|i| {
            let c = Point::new(
                place_rng.gen_range(domain.min.x + 150.0..domain.max.x - 150.0),
                place_rng.gen_range(domain.min.y + 150.0..domain.max.y - 150.0),
            );
            Hotspot::blob(c, place_rng.gen_range(18.0..70.0), 1.0 / (i as f64 + 1.0))
        })
        .collect();
    hotspots.push(Hotspot::blob(domain.center(), 1400.0, 0.55)); // rural noise

    let schema = Schema::new(vec![ColumnDef::f64("val_a"), ColumnDef::f64("val_b")]);
    let mut raw = RawTable::new(schema);
    raw.reserve(n);
    for _ in 0..n {
        let h = &hotspots[pick_hotspot(&hotspots, &mut rng)];
        let mut loc = h.sample(&mut rng);
        loc.x = loc.x.clamp(domain.min.x, domain.max.x);
        loc.y = loc.y.clamp(domain.min.y, domain.max.y);
        let a = rng.gen_range(0.0f64..10_000.0).floor();
        let b = rng.gen_range(-1_000.0f64..1_000.0).floor();
        raw.push_row(loc, &[a, b]);
    }
    Dataset {
        raw,
        grid: Grid::hilbert(domain),
        name: "us_tweets",
    }
}

/// Americas-scale domain for the OSM dataset.
pub fn americas_domain() -> Rect {
    Rect::from_bounds(0.0, 0.0, 9000.0, 14000.0)
}

/// Generate `n` OSM-like points across the Americas-scale domain.
pub fn osm_americas(n: usize, seed: u64) -> Dataset {
    let mut rng = rng_from_seed(derive_seed(seed, "osm_americas"));
    let domain = americas_domain();

    let mut place_rng = rng_from_seed(derive_seed(seed, "osm_regions"));
    let mut hotspots: Vec<Hotspot> = (0..60)
        .map(|i| {
            let c = Point::new(
                place_rng.gen_range(domain.min.x + 300.0..domain.max.x - 300.0),
                place_rng.gen_range(domain.min.y + 300.0..domain.max.y - 300.0),
            );
            Hotspot::blob(
                c,
                place_rng.gen_range(40.0..220.0),
                1.0 / (i as f64 + 2.0).sqrt(),
            )
        })
        .collect();
    hotspots.push(Hotspot::blob(domain.center(), 5000.0, 2.0));

    let schema = Schema::new(vec![ColumnDef::f64("val_a"), ColumnDef::f64("val_b")]);
    let mut raw = RawTable::new(schema);
    raw.reserve(n);
    for _ in 0..n {
        let h = &hotspots[pick_hotspot(&hotspots, &mut rng)];
        let mut loc = h.sample(&mut rng);
        loc.x = loc.x.clamp(domain.min.x, domain.max.x);
        loc.y = loc.y.clamp(domain.min.y, domain.max.y);
        let a = rng.gen_range(0.0f64..100_000.0).floor();
        let b = rng.gen_range(0.0f64..255.0).floor();
        raw.push_row(loc, &[a, b]);
    }
    Dataset {
        raw,
        grid: Grid::hilbert(domain),
        name: "osm_americas",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Rows;

    /// Empirical selectivity of a threshold on a generated column;
    /// [`crate::DataError::UnknownColumn`] for a column not in the
    /// dataset's schema.
    fn empirical_selectivity(
        ds: &Dataset,
        column: &str,
        f: impl Fn(f64) -> bool,
    ) -> Result<f64, crate::DataError> {
        let idx = ds.raw.schema().require(column)?;
        let n = ds.raw.num_rows();
        if n == 0 {
            return Ok(0.0);
        }
        let hits = (0..n).filter(|&r| f(ds.raw.value_f64(r, idx))).count();
        Ok(hits as f64 / n as f64)
    }

    #[test]
    fn taxi_is_deterministic() {
        let a = nyc_taxi(500, 42);
        let b = nyc_taxi(500, 42);
        assert_eq!(a.raw.num_rows(), b.raw.num_rows());
        for r in (0..500).step_by(37) {
            assert_eq!(a.raw.location(r), b.raw.location(r));
            assert_eq!(a.raw.value_f64(r, 0), b.raw.value_f64(r, 0));
        }
        let c = nyc_taxi(500, 43);
        assert_ne!(a.raw.location(0), c.raw.location(0));
    }

    #[test]
    fn taxi_filter_selectivities_match_paper() {
        let ds = nyc_taxi(40_000, 7);
        let s_dist = empirical_selectivity(&ds, "trip_distance", |d| d >= 4.0).unwrap();
        let s_solo = empirical_selectivity(&ds, "passenger_cnt", |p| p == 1.0).unwrap();
        let s_shared = empirical_selectivity(&ds, "passenger_cnt", |p| p > 1.0).unwrap();
        assert!((s_dist - 0.16).abs() < 0.03, "distance>=4 sel {s_dist}");
        assert!((s_solo - 0.70).abs() < 0.03, "pax==1 sel {s_solo}");
        assert!((s_shared - 0.30).abs() < 0.03, "pax>1 sel {s_shared}");
        // Unknown columns surface as typed errors, not panics.
        let err = empirical_selectivity(&ds, "no_such_column", |_| true).unwrap_err();
        assert!(err.to_string().contains("no_such_column"));
    }

    #[test]
    fn taxi_is_spatially_skewed() {
        // More than a third of all points land in the Manhattan strip's
        // bounding area, which is a small fraction of the domain.
        let ds = nyc_taxi(20_000, 11);
        let strip = Rect::from_bounds(18.0, 24.0, 34.0, 50.0);
        let frac = (0..ds.raw.num_rows())
            .filter(|&r| strip.contains_point(ds.raw.location(r)))
            .count() as f64
            / ds.raw.num_rows() as f64;
        assert!(frac > 0.45, "Manhattan fraction {frac}");
        assert!(strip.area() / nyc_domain().area() < 0.12);
    }

    #[test]
    fn taxi_contains_dirty_rows() {
        let ds = nyc_taxi(50_000, 3);
        let dirty = empirical_selectivity(&ds, "fare_amount", |f| f < 0.0).unwrap();
        let outside = (0..ds.raw.num_rows())
            .filter(|&r| !nyc_domain().contains_point(ds.raw.location(r)))
            .count();
        assert!(
            dirty > 0.0005 && dirty < 0.01,
            "negative-fare fraction {dirty}"
        );
        assert!(outside > 0, "expected teleported outliers");
    }

    #[test]
    fn tweets_and_osm_generate_in_domain_with_payload() {
        let tw = us_tweets(2_000, 5);
        assert_eq!(tw.raw.schema().len(), 2);
        for r in (0..2000).step_by(101) {
            assert!(us_domain().contains_point(tw.raw.location(r)));
        }
        let osm = osm_americas(2_000, 5);
        for r in (0..2000).step_by(101) {
            assert!(americas_domain().contains_point(osm.raw.location(r)));
        }
    }

    #[test]
    fn dropoff_after_pickup() {
        let ds = nyc_taxi(1_000, 9);
        let s = ds.raw.schema();
        let (pi, di) = (
            s.require("pickup_time").unwrap(),
            s.require("dropoff_time").unwrap(),
        );
        for r in 0..1000 {
            assert!(ds.raw.value_f64(r, di) > ds.raw.value_f64(r, pi));
        }
    }
}
