//! Reproduction harness for every table and figure of the paper's §4.
//!
//! The `repro` binary (`src/bin/repro.rs`) dispatches to one function per
//! experiment in [`experiments`]; this module provides the shared
//! machinery: scaled dataset construction, the paper-level ↔ grid-level
//! mapping, workload timing, and report tables.
//!
//! ## Level mapping
//!
//! The paper quotes S2 levels over the whole Earth (level 13 ≈ 1.5 km cell
//! diagonal … level 21 ≈ 6 m). Our grid spans only the 60 km × 60 km
//! synthetic NYC domain, so the *same physical resolutions* correspond to
//! smaller level numbers. [`paper_level`] maps a quoted paper level to the
//! grid level with the matching cell diagonal: `level_ours = level_paper −
//! 7` (60 km / 2⁶ ≈ 0.94 km ≈ S2 level 13's cell edge, etc.). All reports
//! print both.

pub mod experiments;
pub mod json;
pub mod report;

use gb_baselines::SpatialAggIndex;
use gb_data::datasets::{self, Dataset};
use gb_data::{extract, BaseTable, Workload};
use std::time::Duration;

/// Offset between the paper's S2 levels and our 60 km-domain grid levels.
pub const PAPER_LEVEL_OFFSET: u8 = 7;

/// Map a paper-quoted S2 level (e.g. 17) to the equivalent grid level.
pub fn paper_level(paper: u8) -> u8 {
    paper.saturating_sub(PAPER_LEVEL_OFFSET)
}

/// Global experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Multiplies every dataset size (1.0 ≈ laptop scale; 10.0 approaches
    /// the paper's 12 M-row primary dataset).
    pub scale: f64,
    /// Master seed for all generators.
    pub seed: u64,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            scale: 1.0,
            seed: 42,
        }
    }
}

impl Ctx {
    /// Scaled row count.
    pub fn rows(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(1000)
    }

    /// The primary (taxi) dataset size: 1.2 M rows at scale 1 (the paper
    /// uses 12 M; `--scale 10` reproduces that).
    pub fn taxi_rows(&self) -> usize {
        self.rows(1_200_000)
    }

    /// Generate + extract the primary dataset (clean, key, sort).
    pub fn taxi_base(&self, block_level: Option<u8>) -> BaseTable {
        let ds = datasets::nyc_taxi(self.taxi_rows(), self.seed);
        extract(
            &ds.raw,
            ds.grid,
            &datasets::nyc_cleaning_rules(),
            block_level,
        )
        .base
    }

    /// Generate the raw (uncleaned, unsorted) primary dataset.
    pub fn taxi_raw(&self) -> Dataset {
        datasets::nyc_taxi(self.taxi_rows(), self.seed)
    }
}

/// Latency summary of a workload run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSummary {
    pub queries: usize,
    pub total: Duration,
    pub mean: Duration,
    pub p50: Duration,
    pub p99: Duration,
}

impl RunSummary {
    fn from_latencies(mut lat: Vec<Duration>) -> RunSummary {
        if lat.is_empty() {
            return RunSummary::default();
        }
        lat.sort_unstable();
        let total: Duration = lat.iter().sum();
        let q = lat.len();
        RunSummary {
            queries: q,
            total,
            mean: total / q as u32,
            p50: lat[q / 2],
            p99: lat[(q * 99) / 100],
        }
    }
}

/// Execute a SELECT workload on an index, timing each query.
pub fn run_select_workload(index: &mut dyn SpatialAggIndex, workload: &Workload) -> RunSummary {
    let mut lat = Vec::with_capacity(workload.len());
    for q in &workload.queries {
        let t = gb_common::Timer::start();
        let res = index.select(&q.polygon, &q.spec);
        std::hint::black_box(&res);
        lat.push(t.elapsed());
    }
    RunSummary::from_latencies(lat)
}

/// Milliseconds as a compact string.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Microseconds as a compact string.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_mapping() {
        assert_eq!(paper_level(17), 10);
        assert_eq!(paper_level(13), 6);
        assert_eq!(paper_level(21), 14);
        assert_eq!(paper_level(3), 0); // saturates
    }

    #[test]
    fn ctx_scaling() {
        let ctx = Ctx {
            scale: 0.5,
            seed: 1,
        };
        assert_eq!(ctx.rows(100_000), 50_000);
        assert_eq!(ctx.rows(100), 1000); // floor
    }

    #[test]
    fn summary_percentiles() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = RunSummary::from_latencies(lat);
        assert_eq!(s.queries, 100);
        assert_eq!(s.p50, Duration::from_micros(51));
        assert_eq!(s.p99, Duration::from_micros(100));
        assert_eq!(s.total, Duration::from_micros(5050));
        assert!(RunSummary::from_latencies(vec![]).queries == 0);
    }
}
