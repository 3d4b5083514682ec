//! Analytic golden fast tier — closed-form pole-superposition waveforms.
//!
//! When the two-pole Padé extraction of the victim transfer function
//! yields stable, well-behaved real poles, the victim noise response to a
//! step, ramp or exponential aggressor is an explicit superposition of
//! exponentials (see [`TwoPoleFit::step_response`],
//! [`TwoPoleFit::ramp_response`] and [`TwoPoleFit::exp_response`]).
//! This module measures the paper's waveform parameters (`Vp`, `Tp`,
//! `T0`, `T1`, `T2`, `Wn`) directly on that closed form — no
//! time-stepping at all — using the same 10–90% extrapolated-transition
//! conventions as [`crate::measure::measure_noise`], so a fast-tier
//! result is interchangeable with a transient one wherever the model is
//! adequate.
//!
//! The tier is *gated*: a reduced-order model is only trusted when
//!
//! 1. the case is structurally representable (single aggressor; any
//!    shape but a step into a single-pole fit),
//! 2. the extracted poles are real and stable, and
//! 3. under [`FastTier::Auto`], the conditioning margins hold — pole
//!    separation below [`STIFF_POLE_RATIO`] and the model's own fourth
//!    Taylor coefficient within [`MODEL_ADEQUACY_TOL`] of the circuit's
//!    (a cheap proxy for "the truncated higher-order poles do not
//!    matter"; exact for genuinely second-order circuits).
//!
//! Every rejection returns a [`FastTierFallback`] reason so the caller
//! can fall back to the transient simulator and account for the miss.

use crate::measure::PULSE_FLOOR;
use crate::{FastTier, NoiseWaveformParams};
use xtalk_circuit::signal::{InputSignal, Waveshape, EXP_TRANSITION_FACTOR};
use xtalk_circuit::{NetId, Network, NodeId};
use xtalk_moments::{PoleKind, TreeMomentEngine, TwoPoleFit};

/// Largest `|p2/p1|` pole-separation ratio the [`FastTier::Auto`] gate
/// accepts. Beyond this the fast pole's dynamics are numerically
/// negligible in the closed form yet dominate the crossing bisections'
/// conditioning; the transient path handles such stiffness natively.
pub const STIFF_POLE_RATIO: f64 = 1e6;

/// Relative tolerance of the [`FastTier::Auto`] model-adequacy check:
/// the circuit's fourth Taylor coefficient `h4` must match the two-pole
/// model's own `h4 = a1·(2·b1·b2 − b1³)` to this fraction. Second-order
/// circuits match to rounding; the margin admits nets whose higher-order
/// poles are far enough out to not move the measured pulse.
pub const MODEL_ADEQUACY_TOL: f64 = 0.02;

/// Why the analytic fast tier declined a case and the transient
/// simulator must run instead. The taxonomy is stable (documented in
/// DESIGN.md §11) and each variant increments its own
/// `sim.fast_tier.fallback.*` performance counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastTierFallback {
    /// The tier is switched off ([`FastTier::Off`]).
    Disabled,
    /// More than one stimulus — superposed aggressors are not reduced to
    /// a single two-pole response.
    MultiAggressor,
    /// A step into a single-pole model, whose instantaneous rise has no
    /// measurable 10–90% flank.
    UnsupportedShape,
    /// Moment extraction or the Padé fit itself failed (no coupling,
    /// non-finite coefficients).
    DegenerateFit,
    /// The fit's poles are complex, unstable, or carry a non-positive
    /// gain — closed-form evaluation would be meaningless.
    IllConditionedPoles,
    /// Pole separation beyond [`STIFF_POLE_RATIO`] (auto gate only).
    Stiff,
    /// The circuit's `h4` disagrees with the model's (auto gate only):
    /// truncated higher-order poles are load-bearing.
    ModelMismatch,
    /// The closed form predicts no measurable pulse; the transient path
    /// owns that verdict.
    NoPulse,
    /// The peak/crossing search on the closed form failed to bracket.
    MeasureFailed,
}

impl FastTierFallback {
    /// Stable snake-case name (metric suffixes, logs, docs).
    pub fn as_str(self) -> &'static str {
        match self {
            FastTierFallback::Disabled => "disabled",
            FastTierFallback::MultiAggressor => "multi_aggressor",
            FastTierFallback::UnsupportedShape => "unsupported_shape",
            FastTierFallback::DegenerateFit => "degenerate_fit",
            FastTierFallback::IllConditionedPoles => "ill_conditioned_poles",
            FastTierFallback::Stiff => "stiff",
            FastTierFallback::ModelMismatch => "model_mismatch",
            FastTierFallback::NoPulse => "no_pulse",
            FastTierFallback::MeasureFailed => "measure_failed",
        }
    }

    /// Increments this reason's `sim.fast_tier.fallback.*` Perf counter.
    pub(crate) fn record(self) {
        match self {
            FastTierFallback::Disabled => {
                xtalk_obs::counter!(perf: "sim.fast_tier.fallback.disabled").add(1)
            }
            FastTierFallback::MultiAggressor => {
                xtalk_obs::counter!(perf: "sim.fast_tier.fallback.multi_aggressor").add(1)
            }
            FastTierFallback::UnsupportedShape => {
                xtalk_obs::counter!(perf: "sim.fast_tier.fallback.unsupported_shape").add(1)
            }
            FastTierFallback::DegenerateFit => {
                xtalk_obs::counter!(perf: "sim.fast_tier.fallback.degenerate_fit").add(1)
            }
            FastTierFallback::IllConditionedPoles => {
                xtalk_obs::counter!(perf: "sim.fast_tier.fallback.ill_conditioned_poles").add(1)
            }
            FastTierFallback::Stiff => {
                xtalk_obs::counter!(perf: "sim.fast_tier.fallback.stiff").add(1)
            }
            FastTierFallback::ModelMismatch => {
                xtalk_obs::counter!(perf: "sim.fast_tier.fallback.model_mismatch").add(1)
            }
            FastTierFallback::NoPulse => {
                xtalk_obs::counter!(perf: "sim.fast_tier.fallback.no_pulse").add(1)
            }
            FastTierFallback::MeasureFailed => {
                xtalk_obs::counter!(perf: "sim.fast_tier.fallback.measure_failed").add(1)
            }
        }
    }
}

/// Measures the noise pulse at `node` on the closed-form two-pole
/// response, or explains why the transient simulator must run instead.
///
/// On success the returned parameters follow exactly the conventions of
/// [`crate::measure::measure_noise`] (peak, 10–90% extrapolated
/// transitions, extrapolated width, polarity normalization, area =
/// `∫v dt`), evaluated on the continuous model instead of a sampled
/// waveform.
///
/// # Errors
///
/// A [`FastTierFallback`] describing which gate declined the case.
pub fn analytic_noise(
    network: &Network,
    stimuli: &[(NetId, InputSignal)],
    node: NodeId,
    tier: FastTier,
) -> Result<NoiseWaveformParams, FastTierFallback> {
    if tier == FastTier::Off {
        return Err(FastTierFallback::Disabled);
    }
    let (net, input) = match stimuli {
        [(net, input)] => (*net, *input),
        _ => return Err(FastTierFallback::MultiAggressor),
    };

    // Transfer-function Taylor coefficients h0..h4 at the observed node
    // (h4 feeds the model-adequacy margin).
    let h = TreeMomentEngine::new(network)
        .transfer_taylor(net, node, 5)
        .map_err(|_| FastTierFallback::DegenerateFit)?;
    let fit = TwoPoleFit::from_taylor(&h[..4]).map_err(|_| FastTierFallback::DegenerateFit)?;
    if !fit.poles().is_well_behaved() {
        return Err(FastTierFallback::IllConditionedPoles);
    }
    if !(fit.a1().is_finite() && fit.a1() > 0.0 && fit.b1().is_finite() && fit.b2().is_finite()) {
        return Err(FastTierFallback::IllConditionedPoles);
    }
    if tier == FastTier::Auto {
        if let PoleKind::RealStable { p1, p2 } = fit.poles() {
            if (p2 / p1).abs() > STIFF_POLE_RATIO {
                return Err(FastTierFallback::Stiff);
            }
        }
        let h4_model = fit.a1() * (2.0 * fit.b1() * fit.b2() - fit.b1().powi(3));
        let h4 = h[4];
        let scale = h4.abs().max(h4_model.abs());
        if scale > 0.0 && (h4 - h4_model).abs() > MODEL_ADEQUACY_TOL * scale {
            return Err(FastTierFallback::ModelMismatch);
        }
    }

    // Slowest model time constant, for bracketing the decay tail (and an
    // exponential's peak).
    let slowest = match fit.poles() {
        PoleKind::SingleReal { p } | PoleKind::RealDouble { p } => -1.0 / p,
        PoleKind::RealStable { p1, p2 } => (-1.0 / p1).max(-1.0 / p2),
        _ => return Err(FastTierFallback::IllConditionedPoles),
    };

    let tr = input.transition();
    // An exponential input's time constant, `τ = t_r / ln 9`.
    let tau = tr / EXP_TRANSITION_FACTOR;
    let shape = input.shape();
    let resp = |t: f64| match shape {
        Waveshape::Step => fit.step_response(t),
        Waveshape::RisingRamp | Waveshape::FallingRamp => fit.ramp_response(t, tr),
        Waveshape::RisingExp | Waveshape::FallingExp => fit.exp_response(t, tau),
    };
    // Peak of the (rising-equivalent) response, relative to the input
    // arrival.
    let (tp_rel, vp) = match shape {
        Waveshape::Step => match fit.poles() {
            // `y'(t*) = 0` in closed form for the two-real-pole shapes.
            PoleKind::RealStable { p1, p2 } => {
                let t_star = (p2 / p1).ln() / (p1 - p2);
                (t_star, fit.step_response(t_star))
            }
            PoleKind::RealDouble { p } => (-1.0 / p, fit.step_response(-1.0 / p)),
            // A single-pole step response jumps at t = 0: no rising
            // flank exists under the 10–90% convention.
            _ => return Err(FastTierFallback::UnsupportedShape),
        },
        Waveshape::RisingRamp | Waveshape::FallingRamp => fit
            .ramp_peak(tr)
            .ok_or(FastTierFallback::IllConditionedPoles)?,
        Waveshape::RisingExp | Waveshape::FallingExp => {
            // `y' = 0` has no closed form here: bisect the slope, which
            // changes sign once (the response is log-concave).
            let slope = |t: f64| fit.exp_slope(t, tau);
            let hi = bracket(&slope, 0.0, slowest.max(tau), 0.0)?;
            let tp = bisect(&slope, 0.0, hi, 0.0, false);
            (tp, fit.exp_response(tp, tau))
        }
    };
    if !(vp.is_finite() && vp > PULSE_FLOOR && tp_rel.is_finite() && tp_rel >= 0.0) {
        return Err(FastTierFallback::NoPulse);
    }

    // The response is unimodal: monotone rise on [0, tp], monotone decay
    // after. Level crossings come from bisection on each flank.
    let t10r = bisect(&resp, 0.0, tp_rel, 0.1 * vp, true);
    let t90r = bisect(&resp, 0.0, tp_rel, 0.9 * vp, true);
    // Bracket the tail below the 10% level by doubling out from the peak.
    let span = slowest.max(tr).max(tp_rel).max(f64::MIN_POSITIVE);
    let t_hi = bracket(&resp, tp_rel, span, 0.1 * vp)?;
    let t90f = bisect(&resp, tp_rel, t_hi, 0.9 * vp, false);
    let t10f = bisect(&resp, t90f, t_hi, 0.1 * vp, false);

    // Same parameter algebra as `measure_noise` (eq. 6 conventions).
    let t1 = (t90r - t10r) / 0.8;
    let t2 = (t10f - t90f) / 0.8;
    let t0 = t10r - 0.1 * t1;
    let wn = (t10f - t10r) + 0.1 * (t1 + t2);
    let arrival = input.arrival();
    let params = NoiseWaveformParams {
        vp,
        tp: arrival + tp_rel,
        t0: arrival + t0,
        t1,
        t2,
        wn,
        // ∫y dt over the whole pulse is exactly a1 for every shape.
        area: fit.a1(),
        polarity: input.noise_polarity(),
    };
    let finite = params.vp.is_finite()
        && params.tp.is_finite()
        && params.t0.is_finite()
        && params.t1.is_finite()
        && params.t2.is_finite()
        && params.wn.is_finite();
    if !(finite && params.t1 > 0.0 && params.t2 > 0.0 && params.wn > 0.0) {
        return Err(FastTierFallback::MeasureFailed);
    }
    Ok(params)
}

/// The first `from + span·2ᵏ` where `f` falls below `level`, for an `f`
/// that stays below it once it gets there.
///
/// # Errors
///
/// [`FastTierFallback::MeasureFailed`] when 200 doublings do not get
/// there.
fn bracket(
    f: &impl Fn(f64) -> f64,
    from: f64,
    span: f64,
    level: f64,
) -> Result<f64, FastTierFallback> {
    let mut hi = from + span;
    let mut doublings = 0;
    while f(hi) >= level {
        hi = from + (hi - from) * 2.0;
        doublings += 1;
        if doublings > 200 || !hi.is_finite() {
            return Err(FastTierFallback::MeasureFailed);
        }
    }
    Ok(hi)
}

/// Bisects for the time where monotone `f` crosses `level` inside
/// `[lo, hi]`: `rising = true` for the increasing flank (crossing from
/// below), `false` for the decreasing one.
///
/// Stops early at the float fixed point, with the result the full 128
/// halvings would give. Once `mid` equals `lo` (or `hi`), the next
/// halving either keeps `(lo, hi)` as it is, so every later iteration
/// repeats this one, or collapses the interval onto `mid`, after which
/// `0.5 * (mid + mid)` is `mid` again (the times here are far from
/// overflow). Either way the final `0.5 * (lo + hi)` is `mid`.
fn bisect(f: &impl Fn(f64) -> f64, mut lo: f64, mut hi: f64, level: f64, rising: bool) -> f64 {
    for _ in 0..128 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            return mid;
        }
        if (f(mid) < level) == rising {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::golden_noise;
    use xtalk_circuit::{NetRole, NetworkBuilder};

    /// Lumped two-node coupled pair — a genuinely second-order circuit,
    /// so the two-pole model is exact up to rounding.
    fn coupled_pair() -> (Network, NetId) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let vn = b.add_node(v, "v0");
        let an = b.add_node(a, "a0");
        b.add_driver(v, vn, 1000.0).unwrap();
        b.add_driver(a, an, 800.0).unwrap();
        b.add_sink(vn, 20e-15).unwrap();
        b.add_sink(an, 25e-15).unwrap();
        b.add_coupling_cap(vn, an, 40e-15).unwrap();
        let net = b.build().unwrap();
        let agg = net.aggressor_nets().next().unwrap().0;
        (net, agg)
    }

    #[test]
    fn matches_transient_golden_on_second_order_circuit() {
        let (net, agg) = coupled_pair();
        for input in [
            InputSignal::rising_ramp(0.0, 1e-10),
            InputSignal::rising_ramp(5e-11, 2.5e-10),
            InputSignal::falling_ramp(2e-11, 8e-11),
        ] {
            let stim = [(agg, input)];
            let fast =
                analytic_noise(&net, &stim, net.victim_output(), FastTier::Auto).unwrap();
            let slow = golden_noise(&net, agg, &input).unwrap();
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
            assert!(rel(fast.vp, slow.vp) < 5e-3, "vp {} vs {}", fast.vp, slow.vp);
            assert!(rel(fast.tp, slow.tp) < 2e-2, "tp {} vs {}", fast.tp, slow.tp);
            assert!(rel(fast.wn, slow.wn) < 2e-2, "wn {} vs {}", fast.wn, slow.wn);
            assert!(rel(fast.t1, slow.t1) < 5e-2, "t1 {} vs {}", fast.t1, slow.t1);
            assert_eq!(fast.polarity, input.noise_polarity());
        }
    }

    #[test]
    fn area_matches_first_output_moment() {
        let (net, agg) = coupled_pair();
        let stim = [(agg, InputSignal::rising_ramp(0.0, 1e-10))];
        let fast = analytic_noise(&net, &stim, net.victim_output(), FastTier::Auto).unwrap();
        let slow = golden_noise(&net, agg, &stim[0].1).unwrap();
        assert!(
            (fast.area - slow.area).abs() < 2e-2 * slow.area.abs(),
            "area {} vs {}",
            fast.area,
            slow.area
        );
    }

    /// [`coupled_pair`] with a 1 pΩ aggressor driver: the aggressor node
    /// follows its source, so the fit has a single pole.
    fn single_pole_pair() -> (Network, NetId) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let vn = b.add_node(v, "v0");
        let an = b.add_node(a, "a0");
        b.add_driver(v, vn, 1000.0).unwrap();
        b.add_driver(a, an, 1e-12).unwrap();
        b.add_sink(vn, 20e-15).unwrap();
        b.add_sink(an, 25e-15).unwrap();
        b.add_coupling_cap(vn, an, 40e-15).unwrap();
        let net = b.build().unwrap();
        let agg = net.aggressor_nets().next().unwrap().0;
        (net, agg)
    }

    #[test]
    fn off_single_pole_steps_and_stimulus_counts_decline() {
        let (net, agg) = coupled_pair();
        let out = net.victim_output();
        let ramp = [(agg, InputSignal::rising_ramp(0.0, 1e-10))];
        assert_eq!(
            analytic_noise(&net, &ramp, out, FastTier::Off),
            Err(FastTierFallback::Disabled)
        );
        let (single, single_agg) = single_pole_pair();
        let step = [(single_agg, InputSignal::step(0.0))];
        assert_eq!(
            analytic_noise(&single, &step, single.victim_output(), FastTier::Auto),
            Err(FastTierFallback::UnsupportedShape)
        );
        assert_eq!(
            analytic_noise(&net, &[], out, FastTier::Auto),
            Err(FastTierFallback::MultiAggressor)
        );
        let two = [ramp[0], (agg, InputSignal::rising_exp(0.0, 1e-10))];
        assert_eq!(
            analytic_noise(&net, &two, out, FastTier::Auto),
            Err(FastTierFallback::MultiAggressor)
        );
    }

    #[test]
    fn exponential_inputs_match_transient_golden_on_second_order_circuit() {
        let (net, agg) = coupled_pair();
        for input in [
            InputSignal::rising_exp(0.0, 1e-10),
            InputSignal::rising_exp(5e-11, 2.5e-10),
            InputSignal::falling_exp(2e-11, 8e-11),
        ] {
            let stim = [(agg, input)];
            let fast =
                analytic_noise(&net, &stim, net.victim_output(), FastTier::Auto).unwrap();
            let slow = golden_noise(&net, agg, &input).unwrap();
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
            assert!(rel(fast.vp, slow.vp) < 5e-3, "vp {} vs {}", fast.vp, slow.vp);
            assert!(rel(fast.tp, slow.tp) < 2e-2, "tp {} vs {}", fast.tp, slow.tp);
            assert!(rel(fast.wn, slow.wn) < 2e-2, "wn {} vs {}", fast.wn, slow.wn);
            assert!(rel(fast.area, slow.area) < 2e-2, "area {} vs {}", fast.area, slow.area);
            assert_eq!(fast.polarity, input.noise_polarity());
        }
    }

    #[test]
    fn exponential_into_a_single_pole_fit_is_answered() {
        // Unlike a step, an exponential input gives a single-pole fit a
        // finite rising flank.
        let (net, agg) = single_pole_pair();
        let input = InputSignal::rising_exp(0.0, 1e-10);
        let fast = analytic_noise(&net, &[(agg, input)], net.victim_output(), FastTier::Auto)
            .unwrap();
        let slow = golden_noise(&net, agg, &input).unwrap();
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
        assert!(rel(fast.vp, slow.vp) < 5e-3, "vp {} vs {}", fast.vp, slow.vp);
        assert!(rel(fast.wn, slow.wn) < 2e-2, "wn {} vs {}", fast.wn, slow.wn);
    }

    #[test]
    fn step_input_measured_in_closed_form() {
        let (net, agg) = coupled_pair();
        let input = InputSignal::step(3e-11);
        let stim = [(agg, input)];
        let fast = analytic_noise(&net, &stim, net.victim_output(), FastTier::Auto).unwrap();
        let slow = golden_noise(&net, agg, &input).unwrap();
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
        // The sampled transient rise of a step is resolution-limited, so
        // the flank tolerance is looser than the ramp case.
        assert!(rel(fast.vp, slow.vp) < 2e-2, "vp {} vs {}", fast.vp, slow.vp);
        assert!(rel(fast.wn, slow.wn) < 5e-2, "wn {} vs {}", fast.wn, slow.wn);
    }
}
