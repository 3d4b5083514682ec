//! The [`WhatIf`] session: apply/revert deltas, query memoized reports.

use crate::view::{Held, NetIndex, Routes, View};
use std::cmp::Ordering;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;
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
    /// Net name, shared with the session's view of the net.
    pub net: Arc<str>,
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
/// Holds the base [`Network`] plus one truncated view per net (the net
/// re-roled as victim with its 1-hop coupled neighbours).
/// [`WhatIf::apply`] pushes a value-only [`Delta`] through the base and,
/// along a routing table built with the views, into exactly the views it
/// touches — dependency-tracked invalidation — and [`WhatIf::report`]
/// recomputes only the dirty views, each by re-running its moment
/// engine and looking its metrics up in a bit-pattern-keyed memo, then
/// re-ranks only the recomputed nets. Reports are **bit-identical** to a from-scratch
/// session on the same edited network (the `incremental` audit family
/// enforces this).
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
    routes: Routes,
    noise: Vec<Option<NetNoise>>,
    dirty: Vec<bool>,
    /// The last report's net indices in report order, kept only when
    /// every `vp` in it was finite; empty otherwise and before the
    /// first report.
    ranked: Vec<usize>,
    memo: StageMemo,
    undo: Vec<Delta>,
    input: InputSignal,
    stats: SessionStats,
}

impl WhatIf {
    /// Builds a session over `base`: one truncated view per net
    /// (constructed in parallel under `config.jobs`; results are
    /// order-preserving, so the session is identical for any job count)
    /// and the table routing each base element to the views holding it.
    ///
    /// # Errors
    ///
    /// [`WhatIfError::Build`] when a view network fails validation.
    pub fn new(base: Network, config: WhatIfConfig) -> Result<Self, WhatIfError> {
        let _span = xtalk_obs::span!("incr.session_build");
        let targets: Vec<NetId> = base.nets().map(|(id, _)| id).collect();
        let index = NetIndex::new(&base);
        let built = xtalk_exec::par_map_indexed(&targets, config.jobs, |_, &target| {
            View::build(&base, &index, target)
        })
        .map_err(WhatIfError::Exec)?;
        let mut views = Vec::with_capacity(built.len());
        let mut held: Vec<Held> = Vec::with_capacity(built.len());
        for v in built {
            let (view, h) = v?;
            views.push(view);
            held.push(h);
        }
        let routes = Routes::new(&base, &held);
        let n = views.len();
        Ok(WhatIf {
            base,
            views,
            routes,
            noise: vec![None; n],
            dirty: vec![false; n],
            ranked: Vec::with_capacity(n),
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
        let mut fresh = Vec::new();
        for (i, view) in self.views.iter_mut().enumerate() {
            if self.dirty[i] || self.noise[i].is_none() {
                self.noise[i] = Some(compute_view(view, &self.input, &mut self.memo));
                self.dirty[i] = false;
                fresh.push(i);
            } else {
                hits += 1;
            }
        }
        let misses = fresh.len() as u64;
        self.stats.queries += hits + misses;
        self.stats.hits += hits;
        self.stats.misses += misses;
        xtalk_obs::counter!(perf: "incr.query.hit").add(hits);
        xtalk_obs::counter!(perf: "incr.query.miss").add(misses);
        let nets = self.rank(&fresh);
        NoiseReport { nets }
    }

    /// The rows ranked by combined `vp` descending, ties by net index,
    /// re-ranking only the `fresh` (recomputed) nets when it can.
    fn rank(&mut self, fresh: &[usize]) -> Vec<NetNoise> {
        let order = |a: &NetNoise, b: &NetNoise| {
            b.vp.partial_cmp(&a.vp)
                .unwrap_or(Ordering::Equal)
                .then(a.index.cmp(&b.index))
        };
        let row = |i: usize| self.noise[i].as_ref().expect("every view is computed");
        if !self.ranked.is_empty() && fresh.iter().all(|&i| row(i).vp.is_finite()) {
            // Every `vp` is finite, so the order is a strict total order
            // and removing the recomputed nets and binary-inserting them
            // back gives its one sorted sequence: the full sort's.
            self.ranked.retain(|i| !fresh.contains(i));
            for &i in fresh {
                let at = self
                    .ranked
                    .partition_point(|&j| order(row(j), row(i)) == Ordering::Less);
                self.ranked.insert(at, i);
            }
            return self.ranked.iter().map(|&i| row(i).clone()).collect();
        }
        // The first report, or a non-finite `vp` now or at the last
        // report: stable-sort every row from index order.
        let mut nets: Vec<NetNoise> = self.noise.iter().flatten().cloned().collect();
        nets.sort_by(order);
        self.ranked.clear();
        if nets.iter().all(|n| n.vp.is_finite()) {
            self.ranked.extend(nets.iter().map(|n| n.index));
        }
        nets
    }

    /// Validates the delta on the base, then forwards it along its
    /// routes into the views holding its element. Returns the inverse
    /// delta.
    fn push_delta(&mut self, delta: &Delta) -> Result<Delta, WhatIfError> {
        let _span = xtalk_obs::span!("incr.delta");
        let inverse = self.base.apply_delta(delta)?;
        let mut invalidated = 0u64;
        for (i, view_delta) in self.routes.route(delta) {
            let view = &mut self.views[i];
            view.network
                .apply_delta(&view_delta)
                .expect("a delta accepted by the base is valid in every view");
            view.engine.update(&view_delta);
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
    let net = Arc::clone(&view.name);
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
        let h = engine.transfer_taylor(agg, out);
        if !h.iter().all(|c| c.is_finite()) {
            // Overflowed moments cannot be measured: the aggressor is
            // skipped, as the main pipeline rejects such moments, not
            // dropped as uncoupled.
            skipped += 1;
            continue;
        }
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
        net,
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
    fn overflowing_moments_count_the_aggressor_as_skipped() {
        // A victim coupled to an ordinary aggressor and to one whose
        // driver and capacitances are so large that its transfer moments
        // overflow: that aggressor cannot be measured, so the view counts
        // it as skipped instead of dropping it as uncoupled.
        use xtalk_circuit::{NetRole, NetworkBuilder};
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let huge = b.add_net("huge", NetRole::Aggressor);
        let (vn, an, hn) = (
            b.add_node(v, "v0"),
            b.add_node(a, "a0"),
            b.add_node(huge, "h0"),
        );
        b.add_driver(v, vn, 100.0).unwrap();
        b.add_driver(a, an, 100.0).unwrap();
        b.add_driver(huge, hn, 1e150).unwrap();
        b.add_sink(vn, 10e-15).unwrap();
        b.add_sink(an, 10e-15).unwrap();
        b.add_sink(hn, 1e150).unwrap();
        b.add_coupling_cap(vn, an, 20e-15).unwrap();
        b.add_coupling_cap(vn, hn, 20e-15).unwrap();
        let network = b.build().unwrap();
        let mut s = WhatIf::new(network, WhatIfConfig::default()).unwrap();
        let report = s.report();
        let victim = report.nets.iter().find(|n| &*n.net == "v").unwrap();
        assert_eq!((victim.aggressors, victim.skipped), (1, 1), "{victim:?}");
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
    fn ranking_falls_back_to_a_full_sort_around_a_nan() {
        let (mut s, _) = session(6);
        s.report();
        let full_sort = |s: &WhatIf| {
            let mut nets: Vec<NetNoise> = s.noise.iter().flatten().cloned().collect();
            nets.sort_by(|a, b| {
                b.vp.partial_cmp(&a.vp)
                    .unwrap_or(Ordering::Equal)
                    .then(a.index.cmp(&b.index))
            });
            nets.iter().map(|n| n.index).collect::<Vec<_>>()
        };
        let ranked = |nets: Vec<NetNoise>| nets.iter().map(|n| n.index).collect::<Vec<_>>();
        let tie = s.noise[4].as_ref().unwrap().vp;
        // A recomputed NaN, the same net finite again (tied with lane 4),
        // then a net re-inserted into the kept ranking, each as if this
        // report had recomputed it.
        for (net, vp) in [(1, f64::NAN), (1, tie), (2, 0.0)] {
            s.noise[net].as_mut().unwrap().vp = vp;
            let expected = full_sort(&s);
            assert_eq!(ranked(s.rank(&[net])), expected, "net {net} at vp {vp}");
            assert_eq!(s.ranked.is_empty(), vp.is_nan());
        }
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
