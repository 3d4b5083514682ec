use std::fmt;
use xtalk_core::baselines::{devgan, lumped_pi, vittal, yu_one_pole, yu_two_pole, BaselineEstimate};
use xtalk_core::{MetricError, MetricKind, MomentBatch, NoiseAnalyzer, OutputMoments};
use xtalk_moments::{tree, TwoPoleFit};
use xtalk_sim::{golden_noise_with, NoiseWaveformParams, SimWorkspace};
use xtalk_tech::sweep::SweepCase;

/// The analytical metrics compared in the paper's tables, column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Method {
    /// Yu's improved one-pole model (ref. 17).
    YuOnePole,
    /// Yu's two-pole matching model (ref. 17).
    YuTwoPole,
    /// Devgan's bound (ref. 7).
    Devgan,
    /// Vittal's simplified metric (ref. 13).
    Vittal,
    /// New metric I (piecewise-linear template).
    NewOne,
    /// New metric II (linear-exponential template, default λ).
    NewTwo,
}

/// All methods in paper column order.
pub const ALL_METHODS: [Method; 6] = [
    Method::YuOnePole,
    Method::YuTwoPole,
    Method::Devgan,
    Method::Vittal,
    Method::NewOne,
    Method::NewTwo,
];

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Method::YuOnePole => "Yu 1-pole [17]",
            Method::YuTwoPole => "Yu 2-pole [17]",
            Method::Devgan => "Devgan [7]",
            Method::Vittal => "Vittal [13]",
            Method::NewOne => "new I",
            Method::NewTwo => "new II",
        };
        f.write_str(name)
    }
}

/// The waveform parameters reported per table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Param {
    /// Peak amplitude.
    Vp,
    /// Pulse width.
    Wn,
    /// Peak-occurrence time.
    Tp,
    /// First transition time.
    T1,
    /// Second transition time.
    T2,
}

/// All parameters in paper row order.
pub const ALL_PARAMS: [Param; 5] = [Param::Vp, Param::Wn, Param::Tp, Param::T1, Param::T2];

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Param::Vp => "Vp",
            Param::Wn => "Wn",
            Param::Tp => "Tp",
            Param::T1 => "T1",
            Param::T2 => "T2",
        };
        f.write_str(name)
    }
}

/// Per-method estimates of one case, alongside the golden measurement.
#[derive(Debug)]
pub struct CaseOutcome {
    /// Golden (simulated) waveform parameters.
    pub golden: NoiseWaveformParams,
    /// Per-method estimates in [`ALL_METHODS`] order; `None` = the method
    /// produced no estimate for this circuit (e.g. unstable two-pole fit).
    pub estimates: [Option<BaselineEstimate>; 6],
    /// Lumped-π peak (used by the Figure 5 sweep, not the tables).
    pub lumped_vp: Option<f64>,
}

impl CaseOutcome {
    /// The value a method predicts for a parameter, if any.
    pub fn predicted(&self, method: Method, param: Param) -> Option<f64> {
        let est = self
            .estimates
            .iter()
            .zip(ALL_METHODS)
            .find(|(_, m)| *m == method)?
            .0
            .as_ref()?;
        match param {
            Param::Vp => est.vp,
            Param::Wn => est.wn,
            Param::Tp => est.tp,
            Param::T1 => est.t1,
            Param::T2 => est.t2,
        }
    }

    /// The golden value of a parameter.
    pub fn golden_value(&self, param: Param) -> f64 {
        match param {
            Param::Vp => self.golden.vp,
            Param::Wn => self.golden.wn,
            Param::Tp => self.golden.tp,
            Param::T1 => self.golden.t1,
            Param::T2 => self.golden.t2,
        }
    }
}

fn full(e: xtalk_core::NoiseEstimate) -> BaselineEstimate {
    BaselineEstimate {
        vp: Some(e.vp),
        tp: Some(e.tp),
        wn: Some(e.wn),
        t1: Some(e.t1),
        t2: Some(e.t2),
    }
}

/// Evaluates one sweep case: golden simulation plus all six analytical
/// metrics. Returns `Err(reason)` when the case cannot be scored at all
/// (no measurable pulse, or the closed-form moments degenerate) — such
/// cases are counted as skipped by the table statistics.
///
/// # Errors
///
/// Returns a human-readable skip reason (not a failure of the harness).
pub fn evaluate_case(case: &SweepCase) -> Result<CaseOutcome, String> {
    evaluate_case_with(case, &mut SimWorkspace::new())
}

/// [`evaluate_case`] reusing a caller-provided simulation workspace.
///
/// Batch evaluation keeps one [`SimWorkspace`] per worker thread so
/// consecutive cases and the horizon retries within a case recycle the
/// solver buffers. Results are bit-identical to [`evaluate_case`].
///
/// # Errors
///
/// As [`evaluate_case`].
pub fn evaluate_case_with(
    case: &SweepCase,
    workspace: &mut SimWorkspace,
) -> Result<CaseOutcome, String> {
    let prepared = prepare_case_with(case, workspace)?;
    let new_one = NoiseAnalyzer::estimate_for(&prepared.moments, prepared.t_r, MetricKind::One)
        .map(full)
        .map_err(|e| format!("new metric I: {e}"))?;
    let new_two = NoiseAnalyzer::estimate_for(&prepared.moments, prepared.t_r, MetricKind::Two)
        .map(full)
        .map_err(|e| format!("new metric II: {e}"))?;
    Ok(prepared.into_outcome(new_one, new_two))
}

/// A case with its golden simulation, moments and baseline metrics done,
/// waiting for the batched closed-form stage ([`finalize_outcomes`]).
pub(crate) struct PreparedCase {
    golden: NoiseWaveformParams,
    /// Prior-art estimates in `[yu1, yu2, devgan, vittal]` order.
    baselines: [Option<BaselineEstimate>; 4],
    lumped_vp: Option<f64>,
    moments: OutputMoments,
    t_r: f64,
}

impl PreparedCase {
    fn into_outcome(self, new_one: BaselineEstimate, new_two: BaselineEstimate) -> CaseOutcome {
        let [yu1, yu2, dev, vit] = self.baselines;
        CaseOutcome {
            golden: self.golden,
            estimates: [yu1, yu2, dev, vit, Some(new_one), Some(new_two)],
            lumped_vp: self.lumped_vp,
        }
    }
}

/// Everything in [`evaluate_case_with`] except the closed-form metric
/// formulas: golden simulation, screening, output moments and prior-art
/// baselines. The parallel sweep runs this per case, then evaluates the
/// paper's metrics over all prepared cases at once through the
/// structure-of-arrays kernel (bit-identical to the scalar path).
pub(crate) fn prepare_case_with(
    case: &SweepCase,
    workspace: &mut SimWorkspace,
) -> Result<PreparedCase, String> {
    let net = &case.network;
    let agg = case.aggressor;
    let input = &case.input;

    // Golden: transient simulation + waveform measurement; the shared
    // helper grows the horizon on slow tails.
    let golden = golden_noise_with(net, &[(agg, *input)], net.victim_output(), workspace)
        .map_err(|e| format!("golden measurement: {e}"))?;
    // Screening threshold: pulses below 0.5% of Vdd are what the standard
    // flow filters out before detailed analysis; scoring relative errors on
    // them only measures numerical noise.
    if golden.vp < 5e-3 {
        return Err(format!("negligible pulse ({:.1e} Vdd)", golden.vp));
    }

    // Shared analytical inputs.
    let analyzer = NoiseAnalyzer::new(net).map_err(|e| format!("analyzer: {e}"))?;
    let h = analyzer
        .transfer_taylor(agg)
        .map_err(|e| format!("moments: {e}"))?;
    let b1_shared = tree::open_circuit_b1(net);

    // The moment lane the closed-form metrics consume; a case whose
    // coupling vanishes at the output fails here with the same skip reason
    // the scalar metric path reports.
    let moments = OutputMoments::from_transfer(&h, input)
        .map_err(|e| format!("new metric I: {e}"))?;

    let as_opt = |r: Result<BaselineEstimate, MetricError>| r.ok();
    let yu1 = as_opt(yu_one_pole(&h, input));
    let yu2 = TwoPoleFit::from_taylor(&h)
        .ok()
        .and_then(|fit| yu_two_pole(&fit, input).ok());
    let dev = as_opt(devgan(h[1], input));
    let vit = Some(vittal(h[1], b1_shared, input));
    let lumped_vp = lumped_pi(net, agg, input).ok().and_then(|e| e.vp);

    Ok(PreparedCase {
        golden,
        baselines: [yu1, yu2, dev, vit],
        lumped_vp,
        moments,
        t_r: input.effective_rise_time(),
    })
}

/// The batched closed-form stage: evaluates Metric I and II over every
/// prepared case through [`MomentBatch`] (flat arrays, amortized counters)
/// and assembles the final outcomes in case order. Lane values are
/// bit-identical to the per-case scalar path of [`evaluate_case_with`],
/// and failed lanes reproduce its skip reasons.
pub(crate) fn finalize_outcomes(
    prepared: Vec<Result<PreparedCase, String>>,
) -> Vec<Result<CaseOutcome, String>> {
    let _span = xtalk_obs::span!("eval.metrics");
    let mut batch = MomentBatch::with_capacity(prepared.iter().filter(|p| p.is_ok()).count());
    for p in prepared.iter().flatten() {
        batch.push(&p.moments, p.t_r);
    }
    let one = batch.estimates(MetricKind::One);
    let two = batch.estimates(MetricKind::Two);
    let mut lane = 0usize;
    prepared
        .into_iter()
        .map(|p| {
            let p = p?;
            let i = lane;
            lane += 1;
            let new_one = one
                .result(i)
                .map(full)
                .map_err(|e| format!("new metric I: {e}"))?;
            let new_two = two
                .result(i)
                .map(full)
                .map_err(|e| format!("new metric II: {e}"))?;
            Ok(p.into_outcome(new_one, new_two))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_tech::sweep::{two_pin_cases, SweepConfig};
    use xtalk_tech::{CouplingDirection, Technology};

    #[test]
    fn batched_stage_matches_scalar_path() {
        // The SoA stage must reproduce the scalar per-case path exactly:
        // same outcomes (bit-identical fields) and same skip reasons.
        let tech = Technology::p25();
        let cfg = SweepConfig {
            cases: 8,
            seed: 7,
            corner_fraction: 0.2,
        };
        let cases = two_pin_cases(&tech, CouplingDirection::FarEnd, &cfg).cases;
        let mut ws = SimWorkspace::new();
        let prepared: Vec<_> = cases
            .iter()
            .map(|c| prepare_case_with(c, &mut ws))
            .collect();
        let batched = finalize_outcomes(prepared);
        assert_eq!(batched.len(), cases.len());
        for (case, b) in cases.iter().zip(&batched) {
            let scalar = evaluate_case_with(case, &mut ws);
            assert_eq!(format!("{b:?}"), format!("{scalar:?}"));
        }
    }

    #[test]
    fn outcome_exposes_predictions_per_method() {
        let tech = Technology::p25();
        let cfg = SweepConfig {
            cases: 3,
            seed: 11,
            corner_fraction: 0.0,
        };
        let cases = two_pin_cases(&tech, CouplingDirection::FarEnd, &cfg).cases;
        let outcome = evaluate_case(&cases[0]).expect("case evaluates");
        // New metrics always report everything.
        for p in ALL_PARAMS {
            assert!(outcome.predicted(Method::NewOne, p).is_some());
            assert!(outcome.predicted(Method::NewTwo, p).is_some());
        }
        // Devgan reports only Vp.
        assert!(outcome.predicted(Method::Devgan, Param::Vp).is_some());
        assert!(outcome.predicted(Method::Devgan, Param::Wn).is_none());
        // Vittal reports Vp and Wn.
        assert!(outcome.predicted(Method::Vittal, Param::Wn).is_some());
        assert!(outcome.predicted(Method::Vittal, Param::Tp).is_none());
        assert!(outcome.golden_value(Param::Vp) > 0.0);
    }
}
