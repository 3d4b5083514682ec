//! Per-case invariant checking: what the paper's closed forms promise,
//! verified against a golden transient simulation.
//!
//! Each audited case runs the full differential pipeline — generate a
//! randomized coupled network from `(family, seed)`, simulate it, evaluate
//! Metric I, Metric II and the closed-form bounds — and then checks:
//!
//! * **Finiteness** — golden and estimated waveform fields are finite.
//! * **Identities** — `Tp = T0 + T1`, `Wn = T1 + T2`, `m = T2/T1` to
//!   `1e-9` relative (they hold by construction; a violation means a
//!   metric leaked inconsistent fields).
//! * **Moment match** — the fitted template's own first three moments
//!   reproduce the circuit moments `f1..f3` (the defining property of
//!   both metrics, eqs. 30–36 and 48–53) to a cancellation-aware `1e-6`.
//! * **Bound structure** — Metric I's point estimate lies inside the
//!   closed-form parameter bounds (eqs. 37–40); Metric II's peak exceeds
//!   the PWL upper bound by at most `√72/4` (its `α → ∞` limit).
//! * **Conservatism** — Metric II's peak (the paper's conservative
//!   estimator) dominates the *simulated* peak up to the configured
//!   margin. Note the PWL parameter bound `2f1/T_W` itself is *not*
//!   conservative vs simulation: a long exponential tail inflates the
//!   second-moment width `T_W`, deflating the bound (a pure exponential
//!   has `T_W = √18·τ`, putting `2f1/T_W` at `0.47×` the true peak).
//! * **Superposition** — the worst-case combination operator is
//!   consistent with the single-pulse estimate: one pinned contribution
//!   reproduces it, two fully-flexible copies align to exactly twice it,
//!   and the combined envelope evaluated at the reported alignment time
//!   equals the reported peak.
//! * **Error envelopes** — `Vp`/`Tp`/`Wn` relative errors against the
//!   golden waveform stay inside the calibrated per-metric envelopes
//!   (see [`crate::ErrorEnvelopes`]).
//! * **Adaptive-vs-fixed agreement** — the adaptive-timestep golden
//!   march measures the same `Vp`/`Tp`/`Wn` as the fixed-step march
//!   within the LTE-controlled `adaptive` envelope.
//! * **Analytic-vs-transient envelope** — when the analytic fast tier's
//!   conditioning gate admits the case, its pole-superposition waveform
//!   agrees with the transient golden within the `analytic` envelope;
//!   a gate rejection is a decline (designed behavior), not a finding.
//! * **SoA-vs-scalar bit equivalence** — the structure-of-arrays batch
//!   kernel ([`MomentBatch`]) reproduces the scalar metric path
//!   bit-for-bit on this case's moments, for every metric kind and for
//!   the parameter bounds.

use crate::report::Finding;
use crate::{ErrorEnvelopes, MetricEnvelope};
use xtalk_core::superpose::{combined_value_at, worst_case, TimingWindow};
use xtalk_core::template::{LinExpTemplate, PwlTemplate};
use xtalk_core::{
    MetricKind, MetricOne, MomentBatch, NoiseAnalyzer, NoiseEstimate, OutputMoments,
    RobustAnalyzer, LAMBDA,
};
use xtalk_sim::{
    analytic_noise, golden_noise_tiered, FastTier, GoldenOpts, NoiseWaveformParams, SimMode,
    SimWorkspace,
};
use xtalk_circuit::{signal::InputSignal, NetId, Network};
use xtalk_tech::sweep::{single_case, CaseFamily};
use xtalk_tech::Technology;

/// Metric II's peak may exceed the piecewise-linear upper bound
/// `2·f1/T_W` by at most this factor — its `α → ∞` (pure-exponential
/// decay) limit: `Vp₂ = 2f1·√poly/((2α+1)²·T_W)` and
/// `√poly/(2α+1)² ↗ √72/4 ≈ 2.1213`.
pub const METRIC_TWO_VP_BOUND_FACTOR: f64 = 2.1213203435596424; // sqrt(72)/4

/// Relative tolerance for the construction identities.
const IDENTITY_TOL: f64 = 1e-9;

/// Relative tolerance for the template-moment residuals (against a
/// cancellation-aware scale, not the possibly-tiny raw moment).
const MOMENT_TOL: f64 = 1e-6;

/// Golden pulses below this fraction of the supply are screened out, like
/// the paper's evaluation flow: relative errors on them measure only
/// numerical noise.
pub const NEGLIGIBLE_VP: f64 = 5e-3;

/// The audit outcome of one case.
#[derive(Debug)]
pub(crate) struct CaseAudit {
    pub index: usize,
    pub seed: u64,
    pub family: CaseFamily,
    pub outcome: CaseOutcome,
}

#[derive(Debug)]
pub(crate) enum CaseOutcome {
    /// The case could not be scored (generation/simulation failure or a
    /// negligible pulse).
    Skipped(String),
    /// The case was scored.
    Checked {
        findings: Vec<Finding>,
        /// `(evaluation, reason)` for metrics that declined with a
        /// structured error — designed behavior, not a violation.
        declined: Vec<(&'static str, String)>,
        /// `(metric, param, signed relative error)` observations for the
        /// run's worst-error tracking.
        errors: Vec<(&'static str, &'static str, f64)>,
    },
}

/// Identity of the case under audit, for stamping findings.
struct CaseId<'a> {
    index: usize,
    seed: u64,
    family: &'static str,
    label: &'a str,
    rung: &'static str,
}

impl CaseId<'_> {
    fn finding(
        &self,
        metric: &'static str,
        invariant: &'static str,
        observed: f64,
        expected: f64,
        detail: String,
    ) -> Finding {
        Finding {
            case_index: self.index,
            seed: self.seed,
            family: self.family,
            label: self.label.to_string(),
            metric,
            invariant,
            observed,
            expected,
            detail,
            rung: self.rung,
        }
    }
}

/// Runs the full differential pipeline on one `(family, seed)` case.
pub(crate) fn audit_case(
    tech: &Technology,
    index: usize,
    seed: u64,
    family: CaseFamily,
    envelopes: &ErrorEnvelopes,
    workspace: &mut SimWorkspace,
) -> CaseAudit {
    let outcome = match check_case(tech, index, seed, family, envelopes, workspace) {
        Ok(outcome) => outcome,
        Err(reason) => CaseOutcome::Skipped(reason),
    };
    CaseAudit {
        index,
        seed,
        family,
        outcome,
    }
}

fn check_case(
    tech: &Technology,
    index: usize,
    seed: u64,
    family: CaseFamily,
    envelopes: &ErrorEnvelopes,
    workspace: &mut SimWorkspace,
) -> Result<CaseOutcome, String> {
    let case = single_case(tech, family, seed).map_err(|e| format!("generation: {e}"))?;
    let net = &case.network;
    let agg = case.aggressor;
    let input = &case.input;

    // The reference is the fixed march with the fast tier off, whatever
    // `--sim` / `--fast-tier` say: the adaptive and analytic families
    // measure those tiers against it.
    let (golden, _) = golden_noise_tiered(
        net,
        &[(agg, *input)],
        net.victim_output(),
        workspace,
        &GoldenOpts::default(),
    )
    .map_err(|e| format!("golden simulation: {e}"))?;
    if golden.vp < NEGLIGIBLE_VP {
        return Err(format!("negligible pulse ({:.1e} Vdd)", golden.vp));
    }

    // Provenance context: which rung the degraded-mode pipeline lands on
    // for this case (triage info on findings, not itself audited here).
    let rung = RobustAnalyzer::new(net)
        .ok()
        .and_then(|ra| {
            ra.analyze(agg, input)
                .ok()
                .map(|r| r.provenance.rung().name())
        })
        .unwrap_or("none");

    let id = CaseId {
        index,
        seed,
        family: family.name(),
        label: &case.label,
        rung,
    };

    let analyzer = NoiseAnalyzer::new(net).map_err(|e| format!("analyzer: {e}"))?;
    let moments = analyzer
        .output_moments(agg, input)
        .map_err(|e| format!("moments: {e}"))?;

    let mut findings = Vec::new();
    let mut declined = Vec::new();
    let mut errors = Vec::new();

    for (name, v) in [
        ("vp", golden.vp),
        ("tp", golden.tp),
        ("t1", golden.t1),
        ("t2", golden.t2),
        ("wn", golden.wn),
    ] {
        if !v.is_finite() {
            findings.push(id.finding(
                "golden",
                "finite",
                v,
                0.0,
                format!("golden {name} is not finite"),
            ));
        }
    }

    let m1 = analyzer.analyze(agg, input, MetricKind::One);
    let m2 = analyzer.analyze(agg, input, MetricKind::Two);
    let bounds = analyzer.bounds(agg, input);

    match &m1 {
        Ok(e) => {
            let pwl = PwlTemplate::new(e.t0, e.t1, e.m, e.vp);
            check_estimate(
                &id,
                "metric_one",
                e,
                pwl.moments(),
                &moments,
                &golden,
                &envelopes.metric_one,
                &mut findings,
                &mut errors,
            );
        }
        Err(err) => declined.push(("metric_one", err.to_string())),
    }
    match &m2 {
        Ok(e) => {
            let lin_exp = LinExpTemplate::new(e.t0, e.t1, e.m, LAMBDA, e.vp);
            check_estimate(
                &id,
                "metric_two",
                e,
                lin_exp.moments(),
                &moments,
                &golden,
                &envelopes.metric_two,
                &mut findings,
                &mut errors,
            );
        }
        Err(err) => declined.push(("metric_two", err.to_string())),
    }

    // Conservatism against the *simulated* waveform — the property
    // physical-design flows rely on when they screen with a bound instead
    // of a point estimate. The conservative estimator is Metric II's peak
    // (the paper's claim for the default λ); the PWL parameter bound
    // `2f1/T_W` is NOT conservative vs simulation, because a long
    // exponential tail inflates the second-moment width T_W (a pure
    // exponential has T_W = √18·τ, putting 2f1/T_W at 0.47× the true
    // peak). Eqs. 37–40 bound the template parameters over m, not the
    // physical waveform.
    if let Ok(e) = &m2 {
        let floor = golden.vp * (1.0 - envelopes.bound_margin);
        if e.vp < floor {
            findings.push(id.finding(
                "metric_two",
                "vp_conservatism",
                e.vp,
                golden.vp,
                format!(
                    "metric II peak falls short of the simulated peak by more than {:.1}%",
                    envelopes.bound_margin * 100.0
                ),
            ));
        }
    }

    match &bounds {
        Ok(b) => {
            // Metric I's point estimate lies inside the closed-form
            // parameter bounds (eqs. 37–40 are its own m-extremes).
            if let Ok(e) = &m1 {
                if !b.contains(e) {
                    findings.push(id.finding(
                        "bounds",
                        "metric_one_within_bounds",
                        e.vp,
                        b.vp.1,
                        format!(
                            "metric I estimate escapes its parameter bounds \
                             (vp {} ∉ [{}, {}] or a timing field out of range)",
                            e.vp, b.vp.0, b.vp.1
                        ),
                    ));
                }
            }
            // Metric II's peak vs the PWL upper bound, relaxed by its
            // α → ∞ limit factor.
            if let Ok(e) = &m2 {
                let cap = b.vp.1 * METRIC_TWO_VP_BOUND_FACTOR;
                if e.vp > cap * (1.0 + IDENTITY_TOL) {
                    findings.push(id.finding(
                        "bounds",
                        "metric_two_vp_bound",
                        e.vp,
                        cap,
                        "metric II peak exceeds the PWL upper bound by more than √72/4".into(),
                    ));
                }
            }
        }
        Err(err) => declined.push(("bounds", err.to_string())),
    }

    // Superposition consistency, on the best available estimate.
    if let Some(e) = m2.as_ref().ok().or(m1.as_ref().ok()) {
        check_superposition(&id, e, &mut findings);
    }

    // Golden-tier cross-checks: the fast paths must reproduce the
    // reference transient measurement.
    check_adaptive_agreement(
        &id,
        net,
        agg,
        input,
        &golden,
        &envelopes.adaptive,
        workspace,
        &mut findings,
        &mut declined,
        &mut errors,
    );
    check_analytic_agreement(
        &id,
        net,
        agg,
        input,
        &golden,
        &envelopes.analytic,
        &mut findings,
        &mut declined,
        &mut errors,
    );
    check_soa_batch(&id, &moments, input.effective_rise_time(), &mut findings);

    Ok(CaseOutcome::Checked {
        findings,
        declined,
        errors,
    })
}

#[allow(clippy::too_many_arguments)]
fn check_estimate(
    id: &CaseId<'_>,
    metric: &'static str,
    e: &NoiseEstimate,
    template_moments: [f64; 3],
    f: &OutputMoments,
    golden: &NoiseWaveformParams,
    envelope: &MetricEnvelope,
    findings: &mut Vec<Finding>,
    errors: &mut Vec<(&'static str, &'static str, f64)>,
) {
    for (name, v) in [
        ("vp", e.vp),
        ("t0", e.t0),
        ("t1", e.t1),
        ("t2", e.t2),
        ("tp", e.tp),
        ("wn", e.wn),
        ("m", e.m),
    ] {
        if !v.is_finite() {
            findings.push(id.finding(
                metric,
                "finite",
                v,
                0.0,
                format!("estimate field {name} is not finite"),
            ));
        }
    }

    // Construction identities.
    let tp_scale = e.tp.abs().max(e.t1.abs()).max(f64::MIN_POSITIVE);
    if (e.tp - (e.t0 + e.t1)).abs() > IDENTITY_TOL * tp_scale {
        findings.push(id.finding(
            metric,
            "identity_tp",
            e.tp,
            e.t0 + e.t1,
            "Tp = T0 + T1 violated beyond 1e-9 relative".into(),
        ));
    }
    let wn_scale = e.wn.abs().max(f64::MIN_POSITIVE);
    if (e.wn - (e.t1 + e.t2)).abs() > IDENTITY_TOL * wn_scale {
        findings.push(id.finding(
            metric,
            "identity_wn",
            e.wn,
            e.t1 + e.t2,
            "Wn = T1 + T2 violated beyond 1e-9 relative".into(),
        ));
    }
    if e.t1 > 0.0 && (e.m - e.t2 / e.t1).abs() > IDENTITY_TOL * e.m.abs().max(f64::MIN_POSITIVE) {
        findings.push(id.finding(
            metric,
            "identity_m",
            e.m,
            e.t2 / e.t1,
            "m = T2/T1 violated beyond 1e-9 relative".into(),
        ));
    }

    // Moment-match residuals. The template's moments are polynomial in
    // (t0, t1, m) and the circuit's f2/f3 can be small differences of
    // large terms, so residuals are scaled by the natural magnitude
    // f1·(|t0| + wn)^k of the k-th moment rather than the raw |f_k|.
    let extent = e.t0.abs() + e.wn.abs();
    let scales = [
        f.f1().abs(),
        f.f1().abs() * extent,
        f.f1().abs() * extent * extent,
    ];
    let circuit = [f.f1(), f.f2(), f.f3()];
    let names = ["moment_residual_f1", "moment_residual_f2", "moment_residual_f3"];
    for k in 0..3 {
        let scale = scales[k]
            .max(circuit[k].abs())
            .max(template_moments[k].abs())
            .max(f64::MIN_POSITIVE);
        if (template_moments[k] - circuit[k]).abs() > MOMENT_TOL * scale {
            findings.push(id.finding(
                metric,
                names[k],
                template_moments[k],
                circuit[k],
                format!(
                    "template does not reproduce the matched moment f{} within 1e-6",
                    k + 1
                ),
            ));
        }
    }

    // Accuracy envelopes vs the golden waveform.
    let params = [
        ("vp", "error_envelope_vp", e.vp, golden.vp, envelope.vp),
        ("tp", "error_envelope_tp", e.tp, golden.tp, envelope.tp),
        ("wn", "error_envelope_wn", e.wn, golden.wn, envelope.wn),
    ];
    for (param, invariant, est, gold, limit) in params {
        if gold.abs() < f64::MIN_POSITIVE {
            continue;
        }
        let rel = (est - gold) / gold;
        errors.push((metric, param, rel));
        if rel.abs() > limit {
            findings.push(id.finding(
                metric,
                invariant,
                rel,
                limit,
                format!(
                    "relative {param} error vs golden outside the ±{:.0}% envelope",
                    limit * 100.0
                ),
            ));
        }
    }
}

/// Compares a fast-path golden measurement against the reference
/// transient waveform, recording `(metric, param)` error observations
/// and envelope findings.
#[allow(clippy::too_many_arguments)]
fn compare_golden(
    id: &CaseId<'_>,
    metric: &'static str,
    got: &NoiseWaveformParams,
    golden: &NoiseWaveformParams,
    envelope: &MetricEnvelope,
    findings: &mut Vec<Finding>,
    errors: &mut Vec<(&'static str, &'static str, f64)>,
) {
    let params = [
        ("vp", "agreement_vp", got.vp, golden.vp, envelope.vp),
        ("tp", "agreement_tp", got.tp, golden.tp, envelope.tp),
        ("wn", "agreement_wn", got.wn, golden.wn, envelope.wn),
    ];
    for (param, invariant, got_v, gold_v, limit) in params {
        if gold_v.abs() < f64::MIN_POSITIVE {
            continue;
        }
        let rel = (got_v - gold_v) / gold_v;
        errors.push((metric, param, rel));
        if rel.abs() > limit {
            findings.push(id.finding(
                metric,
                invariant,
                rel,
                limit,
                format!(
                    "{metric} golden tier disagrees with the transient reference on \
                     {param} beyond the ±{:.1}% envelope",
                    limit * 100.0
                ),
            ));
        }
    }
}

/// Adaptive-vs-fixed agreement: re-measures the case with the
/// adaptive-timestep march and compares against the reference golden
/// (the fixed march with the fast tier off).
#[allow(clippy::too_many_arguments)]
fn check_adaptive_agreement(
    id: &CaseId<'_>,
    net: &Network,
    agg: NetId,
    input: &InputSignal,
    golden: &NoiseWaveformParams,
    envelope: &MetricEnvelope,
    workspace: &mut SimWorkspace,
    findings: &mut Vec<Finding>,
    declined: &mut Vec<(&'static str, String)>,
    errors: &mut Vec<(&'static str, &'static str, f64)>,
) {
    let gopts = GoldenOpts {
        mode: SimMode::Adaptive,
        tier: FastTier::Off,
    };
    match golden_noise_tiered(net, &[(agg, *input)], net.victim_output(), workspace, &gopts) {
        Ok((adaptive, _)) => {
            compare_golden(id, "adaptive", &adaptive, golden, envelope, findings, errors)
        }
        Err(e) => declined.push(("adaptive", e.to_string())),
    }
}

/// Analytic-vs-transient envelope: when the fast tier's conditioning
/// gate admits the case, its pole-superposition measurement must agree
/// with the transient golden; a gate rejection is a decline.
#[allow(clippy::too_many_arguments)]
fn check_analytic_agreement(
    id: &CaseId<'_>,
    net: &Network,
    agg: NetId,
    input: &InputSignal,
    golden: &NoiseWaveformParams,
    envelope: &MetricEnvelope,
    findings: &mut Vec<Finding>,
    declined: &mut Vec<(&'static str, String)>,
    errors: &mut Vec<(&'static str, &'static str, f64)>,
) {
    match analytic_noise(net, &[(agg, *input)], net.victim_output(), FastTier::Auto) {
        Ok(analytic) => {
            compare_golden(id, "analytic", &analytic, golden, envelope, findings, errors)
        }
        Err(reason) => declined.push(("analytic", format!("fast tier: {}", reason.as_str()))),
    }
}

/// SoA-vs-scalar bit equivalence: the batched metric kernel must
/// reproduce the scalar path exactly — same bits on success, same
/// structured error on decline — for every metric kind and the bounds.
fn check_soa_batch(
    id: &CaseId<'_>,
    f: &OutputMoments,
    t_r: f64,
    findings: &mut Vec<Finding>,
) {
    let mut batch = MomentBatch::new();
    batch.push(f, t_r);

    for (kind, name) in [
        (MetricKind::One, "estimate_one"),
        (MetricKind::OneSymmetric, "estimate_one_symmetric"),
        (MetricKind::Two, "estimate_two"),
    ] {
        let batched = batch.estimates(kind).result(0);
        let scalar = NoiseAnalyzer::estimate_for(f, t_r, kind);
        match (&batched, &scalar) {
            (Ok(b), Ok(s)) => {
                let fields = [
                    ("vp", b.vp, s.vp),
                    ("t0", b.t0, s.t0),
                    ("t1", b.t1, s.t1),
                    ("t2", b.t2, s.t2),
                    ("tp", b.tp, s.tp),
                    ("wn", b.wn, s.wn),
                    ("m", b.m, s.m),
                    ("polarity", b.polarity, s.polarity),
                ];
                for (field, bv, sv) in fields {
                    if bv.to_bits() != sv.to_bits() {
                        findings.push(id.finding(
                            "soa_batch",
                            "bit_identical_estimate",
                            bv,
                            sv,
                            format!("batched {name} field {field} differs from the scalar path"),
                        ));
                    }
                }
            }
            (Err(b), Err(s)) => {
                if format!("{b:?}") != format!("{s:?}") {
                    findings.push(id.finding(
                        "soa_batch",
                        "bit_identical_estimate",
                        0.0,
                        0.0,
                        format!("batched {name} declined with {b:?}, scalar with {s:?}"),
                    ));
                }
            }
            _ => findings.push(id.finding(
                "soa_batch",
                "bit_identical_estimate",
                0.0,
                0.0,
                format!("batched {name} and the scalar path disagree on success vs decline"),
            )),
        }
    }

    let batched = batch.bounds().result(0);
    let scalar = MetricOne::bounds(f);
    match (&batched, &scalar) {
        (Ok(b), Ok(s)) => {
            let fields = [
                ("vp_lo", b.vp.0, s.vp.0),
                ("vp_hi", b.vp.1, s.vp.1),
                ("t0_lo", b.t0.0, s.t0.0),
                ("t0_hi", b.t0.1, s.t0.1),
                ("tp_lo", b.tp.0, s.tp.0),
                ("tp_hi", b.tp.1, s.tp.1),
                ("wn_lo", b.wn.0, s.wn.0),
                ("wn_hi", b.wn.1, s.wn.1),
            ];
            for (field, bv, sv) in fields {
                if bv.to_bits() != sv.to_bits() {
                    findings.push(id.finding(
                        "soa_batch",
                        "bit_identical_bounds",
                        bv,
                        sv,
                        format!("batched bounds field {field} differs from the scalar path"),
                    ));
                }
            }
        }
        (Err(b), Err(s)) => {
            if format!("{b:?}") != format!("{s:?}") {
                findings.push(id.finding(
                    "soa_batch",
                    "bit_identical_bounds",
                    0.0,
                    0.0,
                    format!("batched bounds declined with {b:?}, scalar with {s:?}"),
                ));
            }
        }
        _ => findings.push(id.finding(
            "soa_batch",
            "bit_identical_bounds",
            0.0,
            0.0,
            "batched bounds and the scalar path disagree on success vs decline".into(),
        )),
    }
}

fn check_superposition(id: &CaseId<'_>, e: &NoiseEstimate, findings: &mut Vec<Finding>) {
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(f64::MIN_POSITIVE);

    // One pinned contribution is the pulse itself.
    let single = worst_case(&[(*e, TimingWindow::pinned())]);
    if rel(single.vp, e.vp) > IDENTITY_TOL {
        findings.push(id.finding(
            "superpose",
            "single_pinned_vp",
            single.vp,
            e.vp,
            "worst_case of one pinned pulse must reproduce its own peak".into(),
        ));
    }
    if (single.at - e.tp).abs() > IDENTITY_TOL * e.tp.abs().max(e.wn) {
        findings.push(id.finding(
            "superpose",
            "single_pinned_at",
            single.at,
            e.tp,
            "worst_case of one pinned pulse must peak at its own Tp".into(),
        ));
    }

    // Two copies with fully flexible windows align to exactly double.
    let wide = TimingWindow::new(0.0, 2.0 * e.wn);
    let double = worst_case(&[(*e, wide), (*e, wide)]);
    if rel(double.vp, 2.0 * e.vp) > IDENTITY_TOL {
        findings.push(id.finding(
            "superpose",
            "double_aligned_vp",
            double.vp,
            2.0 * e.vp,
            "two fully-flexible copies must align to twice the single peak".into(),
        ));
    }
    if double.aligned != 2 {
        findings.push(id.finding(
            "superpose",
            "double_aligned_count",
            double.aligned as f64,
            2.0,
            "both copies must be reported as aligned at the worst case".into(),
        ));
    }

    // The combined envelope evaluated at the reported time must equal the
    // reported peak (worst_case maximizes exactly this function).
    let value = combined_value_at(&[(*e, wide), (*e, wide)], double.at);
    if rel(value, double.vp) > IDENTITY_TOL {
        findings.push(id.finding(
            "superpose",
            "envelope_value_at_peak",
            value,
            double.vp,
            "combined envelope at the worst-case time must equal the reported peak".into(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_two_bound_factor_is_sqrt72_over_4() {
        assert!((METRIC_TWO_VP_BOUND_FACTOR - 72f64.sqrt() / 4.0).abs() < 1e-15);
    }

    #[test]
    fn healthy_case_produces_no_findings() {
        let tech = Technology::p25();
        let mut ws = SimWorkspace::new();
        let audit = audit_case(
            &tech,
            0,
            0x5eed,
            CaseFamily::TwoPinFar,
            &ErrorEnvelopes::default(),
            &mut ws,
        );
        match audit.outcome {
            CaseOutcome::Checked { ref findings, .. } => {
                assert!(findings.is_empty(), "unexpected findings: {findings:?}");
            }
            CaseOutcome::Skipped(ref reason) => {
                // A negligible pulse is a legitimate outcome for an
                // arbitrary seed; anything else is a harness bug.
                assert!(reason.contains("negligible"), "unexpected skip: {reason}");
            }
        }
    }

    #[test]
    fn corrupt_technology_is_a_skip_not_a_panic() {
        let mut tech = Technology::p25();
        tech.c_per_m = -tech.c_per_m;
        let mut ws = SimWorkspace::new();
        let audit = audit_case(
            &tech,
            3,
            7,
            CaseFamily::Tree,
            &ErrorEnvelopes::default(),
            &mut ws,
        );
        match audit.outcome {
            CaseOutcome::Skipped(reason) => assert!(reason.contains("generation")),
            other => panic!("expected skip, got {other:?}"),
        }
    }
}
