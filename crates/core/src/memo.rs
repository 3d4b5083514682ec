//! Memoized metric stages keyed by moment bit patterns.
//!
//! The closed-form metrics are pure functions of `(f1, f2, f3, polarity,
//! t_r, kind)`. Inside a what-if loop most deltas leave most
//! victim–aggressor pairs untouched, so their output moments — and hence
//! their estimates — recur with *bit-identical* inputs. [`StageMemo`]
//! caches the metric stage behind keys built from the raw `f64` bit
//! patterns: a hit returns the stored value verbatim, which makes the
//! memoized pipeline trivially bit-identical to the unmemoized one.
//!
//! Keys use [`f64::to_bits`], so `-0.0 ≠ 0.0` and values one ulp apart
//! are distinct keys. That is deliberate: the cache must never smooth
//! over a difference the full recompute would see.
//!
//! # Examples
//!
//! ```
//! use xtalk_core::memo::StageMemo;
//! use xtalk_core::{MetricKind, OutputMoments};
//!
//! let f = OutputMoments::from_raw(1e-11, -2e-21, 3.5e-31, 1.0).unwrap();
//! let mut memo = StageMemo::new();
//! let (first, hit1) = memo.estimate(&f, 1e-10, MetricKind::Two);
//! let (again, hit2) = memo.estimate(&f, 1e-10, MetricKind::Two);
//! assert!(!hit1 && hit2);
//! assert_eq!(first.unwrap(), again.unwrap());
//! assert_eq!(memo.stats().hits + memo.stats().misses, 2);
//! ```

use crate::{
    MetricError, MetricKind, MetricOne, NoiseAnalyzer, NoiseBounds, NoiseEstimate, OutputMoments,
};
use std::collections::hash_map::{Entry, HashMap};

/// Hashable bit-pattern key for one estimate query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EstimateKey {
    f1: u64,
    f2: u64,
    f3: u64,
    polarity: u64,
    t_r: u64,
    kind: u8,
}

/// Hashable bit-pattern key for one bounds query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BoundsKey {
    f1: u64,
    f2: u64,
    f3: u64,
}

fn kind_tag(kind: MetricKind) -> u8 {
    match kind {
        MetricKind::One => 0,
        MetricKind::OneSymmetric => 1,
        MetricKind::Two => 2,
    }
}

/// Hit/miss accounting for one [`StageMemo`] (monotonic totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that ran the closed-form formulas (and populated the cache).
    pub misses: u64,
}

impl MemoStats {
    /// Total queries — always `hits + misses`.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Memo table over the metric stages of the noise pipeline
/// ([`NoiseAnalyzer::estimate_for`] and [`MetricOne::bounds`]).
///
/// Error outcomes are cached too: a non-physical moment combination keeps
/// failing identically on replay, and recomputing it would only repeat
/// the same rejection.
#[derive(Debug, Default)]
pub struct StageMemo {
    estimates: HashMap<EstimateKey, Result<NoiseEstimate, MetricError>>,
    bounds: HashMap<BoundsKey, Result<NoiseBounds, MetricError>>,
    stats: MemoStats,
}

impl StageMemo {
    /// An empty memo table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized [`NoiseAnalyzer::estimate_for`]. Returns the estimate and
    /// whether it was served from cache.
    pub fn estimate(
        &mut self,
        f: &OutputMoments,
        t_r: f64,
        kind: MetricKind,
    ) -> (Result<NoiseEstimate, MetricError>, bool) {
        let key = EstimateKey {
            f1: f.f1().to_bits(),
            f2: f.f2().to_bits(),
            f3: f.f3().to_bits(),
            polarity: f.polarity().to_bits(),
            t_r: t_r.to_bits(),
            kind: kind_tag(kind),
        };
        match self.estimates.entry(key) {
            Entry::Occupied(cached) => {
                self.stats.hits += 1;
                (cached.get().clone(), true)
            }
            Entry::Vacant(slot) => {
                self.stats.misses += 1;
                let value = NoiseAnalyzer::estimate_for(f, t_r, kind);
                (slot.insert(value).clone(), false)
            }
        }
    }

    /// Memoized [`MetricOne::bounds`]. Returns the bounds and whether they
    /// were served from cache.
    pub fn bounds(&mut self, f: &OutputMoments) -> (Result<NoiseBounds, MetricError>, bool) {
        let key = BoundsKey {
            f1: f.f1().to_bits(),
            f2: f.f2().to_bits(),
            f3: f.f3().to_bits(),
        };
        match self.bounds.entry(key) {
            Entry::Occupied(cached) => {
                self.stats.hits += 1;
                (cached.get().clone(), true)
            }
            Entry::Vacant(slot) => {
                self.stats.misses += 1;
                (slot.insert(MetricOne::bounds(f)).clone(), false)
            }
        }
    }

    /// Monotonic hit/miss totals (survive [`StageMemo::clear`]).
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Number of distinct cached entries across both stages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.estimates.len() + self.bounds.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.estimates.is_empty() && self.bounds.is_empty()
    }

    /// Drops all cached entries (accounting is preserved).
    pub fn clear(&mut self) {
        self.estimates.clear();
        self.bounds.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments() -> OutputMoments {
        OutputMoments::from_raw(1e-11, -2e-21, 3.5e-31, 1.0).unwrap()
    }

    #[test]
    fn hit_returns_stored_value_verbatim() {
        let f = moments();
        let mut memo = StageMemo::new();
        let (a, hit_a) = memo.estimate(&f, 1e-10, MetricKind::Two);
        let (b, hit_b) = memo.estimate(&f, 1e-10, MetricKind::Two);
        assert!(!hit_a && hit_b);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.vp.to_bits(), b.vp.to_bits());
        assert_eq!(a.wn.to_bits(), b.wn.to_bits());
        let direct = NoiseAnalyzer::estimate_for(&f, 1e-10, MetricKind::Two).unwrap();
        assert_eq!(a.vp.to_bits(), direct.vp.to_bits());
    }

    #[test]
    fn distinct_inputs_are_distinct_keys() {
        let f = moments();
        let mut memo = StageMemo::new();
        let _ = memo.estimate(&f, 1e-10, MetricKind::Two);
        let _ = memo.estimate(&f, 1e-10, MetricKind::One);
        let _ = memo.estimate(&f, 2e-10, MetricKind::Two);
        let g = OutputMoments::from_raw(1.0000000000000002e-11, -2e-21, 3.5e-31, 1.0).unwrap();
        let _ = memo.estimate(&g, 1e-10, MetricKind::Two);
        assert_eq!(memo.stats().misses, 4);
        assert_eq!(memo.stats().hits, 0);
        assert_eq!(memo.len(), 4);
    }

    #[test]
    fn bounds_are_memoized_and_exact() {
        let f = moments();
        let mut memo = StageMemo::new();
        let (a, hit_a) = memo.bounds(&f);
        let (b, hit_b) = memo.bounds(&f);
        assert!(!hit_a && hit_b);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.vp.1.to_bits(), b.vp.1.to_bits());
        let direct = MetricOne::bounds(&f).unwrap();
        assert_eq!(a.wn.0.to_bits(), direct.wn.0.to_bits());
    }

    #[test]
    fn errors_are_cached_like_values() {
        // Moments with a negative T_W² radicand are non-physical — the
        // second query must be a hit carrying the same error.
        let f = OutputMoments::from_raw(1e-11, -2e-21, 1e-33, 1.0).unwrap();
        let mut memo = StageMemo::new();
        let (e1, h1) = memo.estimate(&f, 1e-10, MetricKind::Two);
        let (e2, h2) = memo.estimate(&f, 1e-10, MetricKind::Two);
        assert!(e1.is_err(), "expected a metric error, got {e1:?}");
        assert!(!h1 && h2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn accounting_adds_up_and_clear_preserves_it() {
        let f = moments();
        let mut memo = StageMemo::new();
        for _ in 0..5 {
            let _ = memo.estimate(&f, 1e-10, MetricKind::Two);
        }
        let _ = memo.bounds(&f);
        let s = memo.stats();
        assert_eq!(s.queries(), 6);
        assert_eq!(s.hits, 4);
        assert_eq!(s.misses, 2);
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.stats().queries(), 6);
        let (_, hit) = memo.estimate(&f, 1e-10, MetricKind::Two);
        assert!(!hit, "clear drops entries");
    }
}
