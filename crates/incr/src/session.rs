//! The [`WhatIf`] session: apply/revert deltas, query memoized reports.

use crate::view::View;
use std::fmt;
use std::fmt::Write as _;
use xtalk_circuit::{signal::InputSignal, CircuitError, Delta, DeltaError, NetId, Network};
use xtalk_core::memo::{MemoStats, StageMemo};
use xtalk_core::superpose::{worst_case, TimingWindow};
use xtalk_core::{MetricKind, OutputMoments};
use xtalk_exec::{ExecError, Jobs};
use xtalk_obs::json;

/// Session parameters: the aggressor input shape and the worker count.
/// Every session ranks its nets by Metric II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfConfig {
    /// Aggressor input transition time (s) — a rising ramp at `arrival`.
    pub slew: f64,
    /// Aggressor switching time (s).
    pub arrival: f64,
    /// Worker count for the initial view construction (the per-delta
    /// path is serial — its work is a handful of views by design).
    pub jobs: Jobs,
}

impl Default for WhatIfConfig {
    fn default() -> Self {
        WhatIfConfig {
            slew: 100e-12,
            arrival: 0.0,
            jobs: Jobs::Count(1),
        }
    }
}

/// Session failures.
#[derive(Debug)]
pub enum WhatIfError {
    /// A view failed to build from the base network.
    Build(CircuitError),
    /// A delta was rejected by the base network.
    Delta(DeltaError),
    /// The parallel view-construction pool failed.
    Exec(ExecError),
}

impl fmt::Display for WhatIfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WhatIfError::Build(e) => write!(f, "failed to build analysis view: {e}"),
            WhatIfError::Delta(e) => write!(f, "delta rejected: {e}"),
            WhatIfError::Exec(e) => write!(f, "view construction pool failed: {e}"),
        }
    }
}

impl std::error::Error for WhatIfError {}

impl From<CircuitError> for WhatIfError {
    fn from(e: CircuitError) -> Self {
        WhatIfError::Build(e)
    }
}

impl From<DeltaError> for WhatIfError {
    fn from(e: DeltaError) -> Self {
        WhatIfError::Delta(e)
    }
}

/// Worst-case noise summary of one net analyzed as the victim of its
/// truncated view.
#[derive(Debug, Clone, PartialEq)]
pub struct NetNoise {
    /// Base net index.
    pub index: usize,
    /// Net name.
    pub net: String,
    /// Worst-case combined peak over all aggressors (× `Vdd`).
    pub vp: f64,
    /// Observation time of the combined worst case (s).
    pub at: f64,
    /// Aggressors aligned at full peak in the worst case.
    pub aligned: usize,
    /// Largest single-aggressor peak (× `Vdd`).
    pub worst_single: f64,
    /// Largest Metric-I upper bound on any single-aggressor peak.
    pub bound_hi: f64,
    /// Aggressors contributing noise.
    pub aggressors: usize,
    /// Aggressors whose metric evaluation failed (degraded coverage).
    pub skipped: usize,
}

/// Ranked per-net noise of the whole cluster at the session's current
/// network state.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseReport {
    /// Per-net summaries, ranked by combined `vp` descending (ties by
    /// base net index ascending).
    pub nets: Vec<NetNoise>,
}

impl NoiseReport {
    /// The noisiest net, if any net produced noise.
    #[must_use]
    pub fn worst(&self) -> Option<&NetNoise> {
        self.nets.first()
    }

    /// Deterministic JSON rendering: shortest-round-trip float formatting
    /// and fixed key order, so two byte-identical reports imply (and are
    /// implied by) bit-identical analysis results.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"xtalk-incr-report-v1\",\"nets\":[");
        for (i, n) in self.nets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"net\":");
            json::write_escaped(&mut out, &n.net);
            let _ = write!(out, ",\"index\":{},\"vp\":", n.index);
            json::write_report_number(&mut out, n.vp);
            out.push_str(",\"at\":");
            json::write_report_number(&mut out, n.at);
            let _ = write!(out, ",\"aligned\":{},\"worst_single\":", n.aligned);
            json::write_report_number(&mut out, n.worst_single);
            out.push_str(",\"bound_hi\":");
            json::write_report_number(&mut out, n.bound_hi);
            let _ = write!(
                out,
                ",\"aggressors\":{},\"skipped\":{}}}",
                n.aggressors, n.skipped
            );
        }
        out.push_str("],\"worst\":");
        match self.worst() {
            Some(w) => {
                out.push_str("{\"net\":");
                json::write_escaped(&mut out, &w.net);
                out.push_str(",\"vp\":");
                json::write_report_number(&mut out, w.vp);
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// Query/invalidation accounting for one session (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Per-net noise queries issued by [`WhatIf::report`].
    pub queries: u64,
    /// Queries answered from a clean cached view.
    pub hits: u64,
    /// Queries that recomputed the view.
    pub misses: u64,
    /// Cached view results invalidated by deltas.
    pub invalidated: u64,
    /// Deltas applied (excluding reverts).
    pub deltas: u64,
    /// Reverts applied.
    pub reverts: u64,
}

/// Incremental what-if session over a coupled cluster.
///
/// Holds the base [`Network`] plus one truncated [view](crate::view) per
/// net (the net re-roled as victim with its 1-hop coupled neighbours).
/// [`WhatIf::apply`] pushes a value-only [`Delta`] through the base and
/// into exactly the views it touches — dependency-tracked invalidation —
/// and [`WhatIf::report`] recomputes only the dirty views, each via an
/// incrementally-repaired moment engine and a bit-pattern-keyed metric
/// memo. Reports are **bit-identical** to a from-scratch session on the
/// same edited network (the `incremental` audit family enforces this).
///
/// # Examples
///
/// ```
/// use xtalk_circuit::Delta;
/// use xtalk_incr::{WhatIf, WhatIfConfig};
/// use xtalk_tech::{ClusterSpec, Technology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (network, lanes) = ClusterSpec::figure4_family(8).build(&Technology::p25())?;
/// let mut session = WhatIf::new(network, WhatIfConfig::default())?;
/// let first = session.report();
/// let (worst_lane, before) = { let w = first.worst().unwrap(); (w.index, w.vp) };
///
/// // Strengthen the noisiest net's own driver and re-query: only that
/// // net's neighbourhood recomputes, and its noise drops.
/// let report = session.apply(&Delta::ResizeDriver { net: lanes[worst_lane], ohms: 60.0 })?;
/// let after = report.nets.iter().find(|n| n.index == worst_lane).unwrap().vp;
/// assert!(after < before);
/// assert!(session.stats().hits > 0);
///
/// // Undo restores the previous report exactly.
/// let restored = session.revert()?.unwrap();
/// assert_eq!(restored.worst().unwrap().vp, before);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WhatIf {
    base: Network,
    views: Vec<View>,
    noise: Vec<Option<NetNoise>>,
    dirty: Vec<bool>,
    memo: StageMemo,
    undo: Vec<Delta>,
    input: InputSignal,
    stats: SessionStats,
}

impl WhatIf {
    /// Builds a session over `base`: one truncated view per net
    /// (constructed in parallel under `config.jobs`; results are
    /// order-preserving, so the session is identical for any job count).
    ///
    /// # Errors
    ///
    /// [`WhatIfError::Build`] when a view network fails validation.
    pub fn new(base: Network, config: WhatIfConfig) -> Result<Self, WhatIfError> {
        let _span = xtalk_obs::span!("incr.session_build");
        let targets: Vec<NetId> = base.nets().map(|(id, _)| id).collect();
        let built = xtalk_exec::par_map_indexed(&targets, config.jobs, |_, &target| {
            View::build(&base, target)
        })
        .map_err(WhatIfError::Exec)?;
        let mut views = Vec::with_capacity(built.len());
        for v in built {
            views.push(v?);
        }
        let n = views.len();
        Ok(WhatIf {
            base,
            views,
            noise: vec![None; n],
            dirty: vec![false; n],
            memo: StageMemo::new(),
            undo: Vec::new(),
            input: InputSignal::rising_ramp(config.arrival, config.slew),
            stats: SessionStats::default(),
        })
    }

    /// The session's base network at its current (edited) state.
    #[must_use]
    pub fn base(&self) -> &Network {
        &self.base
    }

    /// Number of deltas that can still be reverted.
    #[must_use]
    pub fn undo_depth(&self) -> usize {
        self.undo.len()
    }

    /// Session accounting. `queries == hits + misses` always holds.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Metric-stage memo accounting (hits across *all* views).
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Applies a value-only delta to the base network, invalidates
    /// exactly the views it touches, and returns the fresh report.
    ///
    /// # Errors
    ///
    /// [`WhatIfError::Delta`] when the base network rejects the delta
    /// (unknown target or bad value); the session is unchanged then.
    pub fn apply(&mut self, delta: &Delta) -> Result<NoiseReport, WhatIfError> {
        let inverse = self.push_delta(delta)?;
        self.undo.push(inverse);
        self.stats.deltas += 1;
        Ok(self.report())
    }

    /// Undoes the most recent [`WhatIf::apply`] and returns the fresh
    /// report, or `None` when there is nothing to revert.
    ///
    /// # Errors
    ///
    /// Never fails in practice: the inverse of an accepted delta is
    /// itself valid.
    pub fn revert(&mut self) -> Result<Option<NoiseReport>, WhatIfError> {
        let Some(inverse) = self.undo.pop() else {
            return Ok(None);
        };
        self.push_delta(&inverse)?;
        self.stats.reverts += 1;
        Ok(Some(self.report()))
    }

    /// The ranked noise report at the current network state, recomputing
    /// only dirty views.
    pub fn report(&mut self) -> NoiseReport {
        let _span = xtalk_obs::span!("incr.report");
        let mut hits = 0u64;
        let mut misses = 0u64;
        for (i, view) in self.views.iter_mut().enumerate() {
            self.stats.queries += 1;
            if self.dirty[i] || self.noise[i].is_none() {
                self.noise[i] = Some(compute_view(view, &self.input, &mut self.memo));
                self.dirty[i] = false;
                misses += 1;
            } else {
                hits += 1;
            }
        }
        self.stats.hits += hits;
        self.stats.misses += misses;
        xtalk_obs::counter!(perf: "incr.query.hit").add(hits);
        xtalk_obs::counter!(perf: "incr.query.miss").add(misses);
        let mut nets: Vec<NetNoise> = self.noise.iter().flatten().cloned().collect();
        nets.sort_by(|a, b| {
            b.vp.partial_cmp(&a.vp)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index.cmp(&b.index))
        });
        NoiseReport { nets }
    }

    /// Validates the delta on the base, then forwards it into every view
    /// it translates into. Returns the inverse delta.
    fn push_delta(&mut self, delta: &Delta) -> Result<Delta, WhatIfError> {
        let inverse = self.base.apply_delta(delta)?;
        let mut invalidated = 0u64;
        for (i, view) in self.views.iter_mut().enumerate() {
            let Some(view_delta) = view.translate(delta) else {
                continue;
            };
            view.network
                .apply_delta(&view_delta)
                .expect("a delta accepted by the base is valid in every view");
            view.engine.refresh(&view.network);
            if !self.dirty[i] {
                self.dirty[i] = true;
                if self.noise[i].is_some() {
                    invalidated += 1;
                }
            }
        }
        self.stats.invalidated += invalidated;
        xtalk_obs::counter!(perf: "incr.query.invalidated").add(invalidated);
        Ok(inverse)
    }
}

/// Noise of one view's victim: per-aggressor transfer moments through the
/// incremental engine, memoized Metric II + bounds, worst-case pinned
/// superposition. Pure function of the view state — recomputing a view
/// with unchanged inputs reproduces identical bits.
fn compute_view(view: &mut View, input: &InputSignal, memo: &mut StageMemo) -> NetNoise {
    let index = view.target.index();
    let network = &view.network;
    let engine = &mut view.engine;
    let out = network.victim_output();
    let t_r = input.effective_rise_time();
    let mut contributions = Vec::new();
    let mut worst_single = 0.0f64;
    let mut bound_hi = 0.0f64;
    let mut aggressors = 0usize;
    let mut skipped = 0usize;
    for (agg, _) in network.aggressor_nets() {
        let h = match engine.transfer_taylor(agg, out) {
            Ok(h) => h,
            Err(_) => {
                skipped += 1;
                continue;
            }
        };
        let f = match OutputMoments::from_transfer(&h, input) {
            Ok(f) => f,
            // No coupling into the observation node: not a contributor.
            Err(_) => continue,
        };
        let (estimate, _) = memo.estimate(&f, t_r, MetricKind::Two);
        match estimate {
            Ok(e) => {
                worst_single = worst_single.max(e.vp);
                contributions.push((e, TimingWindow::pinned()));
                aggressors += 1;
            }
            Err(_) => {
                skipped += 1;
                continue;
            }
        }
        if let (Ok(b), _) = memo.bounds(&f) {
            bound_hi = bound_hi.max(b.vp.1);
        }
    }
    let combined = worst_case(&contributions);
    NetNoise {
        index,
        net: network.victim_net().name().to_string(),
        vp: combined.vp,
        at: combined.at,
        aligned: combined.aligned,
        worst_single,
        bound_hi,
        aggressors,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_tech::{ClusterSpec, Technology};

    fn session(lanes: usize) -> (WhatIf, Vec<NetId>) {
        let (network, ids) = ClusterSpec::figure4_family(lanes)
            .build(&Technology::p25())
            .unwrap();
        (
            WhatIf::new(network, WhatIfConfig::default()).unwrap(),
            ids,
        )
    }

    /// From-scratch reference: a fresh session over `base`'s clone — any
    /// stale-cache bug shows up as a byte difference against this.
    fn full_recompute(base: &Network) -> NoiseReport {
        WhatIf::new(base.clone(), WhatIfConfig::default())
            .unwrap()
            .report()
    }

    #[test]
    fn first_report_ranks_interior_nets_noisiest() {
        let (mut s, _) = session(8);
        let report = s.report();
        assert_eq!(report.nets.len(), 8);
        let worst = report.worst().unwrap();
        assert!(worst.vp > 0.0);
        // Interior lanes see two full-strength neighbours; edge lanes one.
        assert!((1..7).contains(&worst.index), "worst = {}", worst.net);
        let edge = report.nets.iter().find(|n| n.index == 0).unwrap();
        assert!(edge.vp < worst.vp);
        assert_eq!(s.stats().queries, 8);
        assert_eq!(s.stats().misses, 8);
    }

    #[test]
    fn delta_invalidates_only_the_neighbourhood() {
        let (mut s, lanes) = session(8);
        s.report();
        // Resize an edge driver: touches views of lanes 0 and 1 only.
        s.apply(&Delta::ResizeDriver { net: lanes[0], ohms: 90.0 })
            .unwrap();
        let st = s.stats();
        assert_eq!(st.invalidated, 2);
        assert_eq!(st.misses, 8 + 2);
        assert_eq!(st.hits, 6);
        assert_eq!(st.queries, st.hits + st.misses);
    }

    #[test]
    fn reports_are_bit_identical_to_full_recompute() {
        let (mut s, lanes) = session(8);
        let deltas = [
            Delta::ResizeDriver { net: lanes[3], ohms: 120.0 },
            Delta::SetCouplingCap { index: 7, farads: 9e-15 },
            Delta::SetResistor { index: 11, ohms: 30.0 },
            Delta::SetGroundCap { index: 4, farads: 1e-15 },
        ];
        for d in deltas {
            let incremental = s.apply(&d).unwrap();
            let scratch = full_recompute(s.base());
            assert_eq!(
                incremental.to_json(),
                scratch.to_json(),
                "after {d}: incremental report must match from-scratch bytes"
            );
        }
        while let Some(reverted) = s.revert().unwrap() {
            assert_eq!(reverted.to_json(), full_recompute(s.base()).to_json());
        }
        assert_eq!(s.undo_depth(), 0);
        assert!(s.revert().unwrap().is_none());
    }

    #[test]
    fn rejected_delta_leaves_session_untouched() {
        let (mut s, lanes) = session(4);
        let before = s.report().to_json();
        let err = s.apply(&Delta::ResizeDriver { net: lanes[0], ohms: -5.0 });
        assert!(matches!(err, Err(WhatIfError::Delta(_))));
        assert_eq!(s.undo_depth(), 0);
        assert_eq!(s.report().to_json(), before);
    }

    #[test]
    fn job_count_does_not_change_the_session() {
        let (network, _) = ClusterSpec::figure4_family(6)
            .build(&Technology::p25())
            .unwrap();
        let mut one = WhatIf::new(
            network.clone(),
            WhatIfConfig { jobs: Jobs::Count(1), ..WhatIfConfig::default() },
        )
        .unwrap();
        let mut two = WhatIf::new(
            network,
            WhatIfConfig { jobs: Jobs::Count(2), ..WhatIfConfig::default() },
        )
        .unwrap();
        assert_eq!(one.report().to_json(), two.report().to_json());
    }

    #[test]
    fn memo_accounting_adds_up() {
        let (mut s, lanes) = session(6);
        s.report();
        s.apply(&Delta::SetCouplingCap { index: 0, farads: 6e-15 }).unwrap();
        s.apply(&Delta::ResizeDriver { net: lanes[5], ohms: 77.0 }).unwrap();
        let m = s.memo_stats();
        assert_eq!(m.queries(), m.hits + m.misses);
        assert!(m.misses > 0);
        let st = s.stats();
        assert_eq!(st.queries, st.hits + st.misses);
    }

    #[test]
    fn report_json_is_valid_and_ranked() {
        let (mut s, _) = session(4);
        let report = s.report();
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"xtalk-incr-report-v1\""));
        assert!(json.ends_with('}'));
        for w in report.nets.windows(2) {
            assert!(w[0].vp >= w[1].vp, "ranking must be descending");
        }
    }
}
