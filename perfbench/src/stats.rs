//! Order statistics, digests and the per-campaign record every workload
//! fills in.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The `q`-quantile (0–1) of `values` by linear interpolation between
/// order statistics; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64: derives well-spread campaign seeds from the benchmark seed.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of campaign `i` of a run started with `bench_seed`.
pub fn campaign_seed(bench_seed: u64, i: u64) -> u64 {
    splitmix(splitmix(bench_seed) ^ i)
}

/// FNV-1a over a stream of 64-bit words: the history digest two runs of
/// one seed must agree on.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// 1-based trial count after which the incumbent of `values` (trial
/// order, `None` for a failed trial) is within 1 % of `known_best`, or
/// `budget` when it never gets there. Objectives are positive and
/// minimized.
pub fn evals_to_gap1(values: &[Option<f64>], known_best: f64, budget: usize) -> f64 {
    let target = known_best * 1.01;
    let mut best = f64::INFINITY;
    for (i, v) in values.iter().enumerate() {
        if let Some(y) = v {
            best = best.min(*y);
        }
        if best <= target {
            return (i + 1) as f64;
        }
    }
    budget as f64
}

/// Relative gap of `found` above `known_best`, in percent.
pub fn gap_pct(found: f64, known_best: f64) -> f64 {
    (found - known_best) / known_best * 100.0
}

/// Cuts the span from the first start to `end` at every start: one
/// `(trials, seconds)` period per `(start, trials)` entry.
pub fn periods(starts: &[(Instant, usize)], end: Instant) -> Vec<(f64, f64)> {
    starts
        .iter()
        .enumerate()
        .map(|(i, &(at, trials))| {
            let next = starts.get(i + 1).map_or(end, |s| s.0);
            (trials as f64, next.duration_since(at).as_secs_f64())
        })
        .collect()
}

/// Per position, the smallest value any of `series` reached there, over
/// the positions all of them have.
pub fn fastest_per_position<'a>(series: impl Iterator<Item = &'a [f64]> + Clone) -> Vec<f64> {
    let len = series.clone().map(<[f64]>::len).min().unwrap_or(0);
    (0..len)
        .map(|i| series.clone().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Per-layer measurements of one traced campaign.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Timing samples pooled across campaigns (percentile metrics).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// One value per campaign (counts, sizes, totals); the run reports
    /// the median over campaigns.
    pub values: BTreeMap<&'static str, f64>,
    /// Seconds of the campaign's wall time spent in each layer, for the
    /// `<layer>.share` metrics.
    pub busy_s: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Appends one timing sample.
    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// Sets a per-campaign value.
    pub fn value(&mut self, key: &'static str, v: f64) {
        self.values.insert(key, v);
    }

    /// Adds seconds of wall time to a layer.
    pub fn busy(&mut self, layer: &'static str, seconds: f64) {
        *self.busy_s.entry(layer).or_default() += seconds;
    }
}

/// What one campaign reports back to the run loop.
#[derive(Debug)]
pub struct Campaign {
    /// Campaign wall time, start to final report.
    pub wall_s: f64,
    /// Start until the first model-driven decision returns, minus
    /// evaluator time.
    pub setup_s: f64,
    /// The wall time after setup cut at each trial (or batch) start:
    /// `(trials, seconds)` per position, in campaign order.
    pub periods: Vec<(f64, f64)>,
    /// Decision latencies in campaign order, microseconds.
    pub decide_us: Vec<f64>,
    /// `(best found − known best) / known best × 100` at the budget.
    pub gap_pct: f64,
    /// Trials until the incumbent is within 1 % of the known best.
    pub evals_to_gap1: f64,
    /// Digest of the campaign's decisions and outcomes.
    pub digest: u64,
    /// The best result as the CLI would print it, and its objective.
    pub best: (String, f64),
    /// The correctness gate's verdict on this campaign.
    pub check: Result<(), String>,
    /// Per-layer measurements (traced campaigns only).
    pub layers: Option<Layers>,
}

impl Default for Campaign {
    fn default() -> Self {
        Self {
            wall_s: 0.0,
            setup_s: 0.0,
            periods: Vec::new(),
            decide_us: Vec::new(),
            gap_pct: 0.0,
            evals_to_gap1: 0.0,
            digest: 0,
            best: (String::new(), 0.0),
            check: Ok(()),
            layers: None,
        }
    }
}

impl Campaign {
    /// A campaign that errored before it could report.
    pub fn failed(reason: impl Into<String>) -> Self {
        Self {
            check: Err(reason.into()),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn fastest_per_position_takes_each_positions_minimum() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0];
        let f = fastest_per_position([&a[..], &b[..]].into_iter());
        assert_eq!(f, vec![2.0, 1.0]);
    }

    #[test]
    fn periods_cut_at_each_start() {
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(2);
        let end = t0 + Duration::from_millis(5);
        let p = periods(&[(t0, 8), (t1, 4)], end);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].0, 8.0);
        assert!((p[0].1 - 0.002).abs() < 1e-12 && (p[1].1 - 0.003).abs() < 1e-12);
    }

    #[test]
    fn evals_to_gap1_counts_trials() {
        let v = [Some(3.0), None, Some(1.005), Some(1.0)];
        assert_eq!(evals_to_gap1(&v, 1.0, 10), 3.0);
        assert_eq!(evals_to_gap1(&v[..2], 1.0, 10), 10.0);
    }
}
