use super::BaselineEstimate;
use crate::MetricError;
use xtalk_circuit::signal::InputSignal;
use xtalk_moments::TwoPoleFit;

/// Yu & Kuh's improved one-pole model (paper ref. \[17\]).
///
/// The transfer function is reduced to a single matched pole
/// `H(s) ≈ a1·s/(1 + b_eff·s)` with `b_eff = −h2/h1` (first-order moment
/// matching), and the saturated-ramp response is evaluated analytically:
/// the peak occurs at the end of the input transition,
///
/// ```text
/// Vp = (a1/t_r)·(1 − e^{−t_r/b_eff})
/// ```
///
/// The model is *not* conservative: a second pole always spreads the pulse
/// and lowers the peak relative to reality on the rising side but the
/// single pole can also undershoot — the tables show errors of both signs.
/// Only `Vp` is reported (the tables' other rows are N/A).
///
/// # Errors
///
/// * [`MetricError::StepInputNeedsExplicitM`] — ideal step input.
/// * [`MetricError::BaselineUnstable`] — non-positive effective pole.
pub fn yu_one_pole(h: &[f64], input: &InputSignal) -> Result<BaselineEstimate, MetricError> {
    assert!(h.len() >= 3, "need transfer Taylor coefficients h0..h2");
    let tr = input.transition();
    if !(tr.is_finite() && tr > 0.0) {
        return Err(MetricError::StepInputNeedsExplicitM);
    }
    let a1 = h[1];
    if a1 == 0.0 {
        return Err(MetricError::NoNoise);
    }
    let b_eff = -h[2] / a1;
    if !(b_eff.is_finite() && b_eff > 0.0) {
        return Err(MetricError::BaselineUnstable {
            baseline: "yu-one-pole",
        });
    }
    let vp = (a1.abs() / tr) * (1.0 - (-tr / b_eff).exp());
    Ok(BaselineEstimate {
        vp: Some(vp),
        ..BaselineEstimate::default()
    })
}

/// Yu & Kuh's two-pole matching model (paper ref. \[17\]).
///
/// The fit's saturated-ramp peak is the closed-form stationary point of
/// [`TwoPoleFit::ramp_peak`], which still needs exponentials and a
/// logarithm: the paper's objection to this model class (its new metrics
/// use only `+ − × ÷ √`). Reports `Vp` and `Tp`.
///
/// # Errors
///
/// * [`MetricError::StepInputNeedsExplicitM`] — ideal step input.
/// * [`MetricError::BaselineUnstable`] — complex or positive poles: the
///   instability failure mode the paper attributes to this model class.
///
/// # Examples
///
/// ```
/// use xtalk_circuit::signal::InputSignal;
/// use xtalk_core::baselines::yu_two_pole;
/// use xtalk_moments::TwoPoleFit;
///
/// let fit = TwoPoleFit::from_coeffs(1e-11, 2.5e-10, 1e-20); // two real poles
/// let est = yu_two_pole(&fit, &InputSignal::rising_ramp(0.0, 1e-10))?;
/// assert!(est.vp.unwrap() > 0.0);
/// assert!(est.tp.unwrap() > 0.0);
/// # Ok::<(), xtalk_core::MetricError>(())
/// ```
pub fn yu_two_pole(
    fit: &TwoPoleFit,
    input: &InputSignal,
) -> Result<BaselineEstimate, MetricError> {
    let tr = input.transition();
    if !(tr.is_finite() && tr > 0.0) {
        return Err(MetricError::StepInputNeedsExplicitM);
    }
    match fit.ramp_peak(tr) {
        Some((tp, vp)) => Ok(BaselineEstimate {
            vp: Some(vp.abs()),
            tp: Some(input.arrival() + tp),
            ..BaselineEstimate::default()
        }),
        None => Err(MetricError::BaselineUnstable {
            baseline: "yu-two-pole",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pole_matches_analytic_formula() {
        let (a1, b1) = (2e-11, 1.5e-10);
        let h = [0.0, a1, -a1 * b1, 0.0];
        let tr = 1e-10;
        let est = yu_one_pole(&h, &InputSignal::rising_ramp(0.0, tr)).unwrap();
        let expect = a1 / tr * (1.0 - (-tr / b1).exp());
        assert!((est.vp.unwrap() - expect).abs() < 1e-12 * expect);
        assert!(est.tp.is_none());
    }

    #[test]
    fn one_pole_under_devgan_bound() {
        let (a1, b1) = (2e-11, 1.5e-10);
        let h = [0.0, a1, -a1 * b1, 0.0];
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let one_pole = yu_one_pole(&h, &input).unwrap().vp.unwrap();
        let devgan = crate::baselines::devgan(a1, &input).unwrap().vp.unwrap();
        assert!(one_pole < devgan);
    }

    #[test]
    fn two_pole_reports_peak_and_time() {
        let fit = TwoPoleFit::from_coeffs(1e-11, 3e-10, 1.5e-20);
        let input = InputSignal::rising_ramp(5e-11, 1e-10);
        let est = yu_two_pole(&fit, &input).unwrap();
        // Arrival shifts the reported peak time.
        assert!(est.tp.unwrap() > 5e-11);
        assert!(est.vp.unwrap() > 0.0);
        assert!(est.wn.is_none());
    }

    #[test]
    fn two_pole_unstable_fit_is_an_error() {
        // Complex poles: b1² < 4 b2.
        let fit = TwoPoleFit::from_coeffs(1e-11, 1e-10, 1e-19);
        assert!(matches!(
            yu_two_pole(&fit, &InputSignal::rising_ramp(0.0, 1e-10)),
            Err(MetricError::BaselineUnstable { .. })
        ));
    }

    #[test]
    fn steps_rejected_by_both() {
        let h = [0.0, 1e-11, -2e-21, 0.0];
        assert!(matches!(
            yu_one_pole(&h, &InputSignal::step(0.0)),
            Err(MetricError::StepInputNeedsExplicitM)
        ));
        let fit = TwoPoleFit::from_coeffs(1e-11, 3e-10, 1.5e-20);
        assert!(matches!(
            yu_two_pole(&fit, &InputSignal::step(0.0)),
            Err(MetricError::StepInputNeedsExplicitM)
        ));
    }

    #[test]
    fn one_pole_degenerate_cases() {
        assert!(matches!(
            yu_one_pole(&[0.0, 0.0, 0.0], &InputSignal::rising_ramp(0.0, 1e-10)),
            Err(MetricError::NoNoise)
        ));
        // Positive h2 → negative pole constant → unstable.
        assert!(matches!(
            yu_one_pole(&[0.0, 1e-11, 2e-21], &InputSignal::rising_ramp(0.0, 1e-10)),
            Err(MetricError::BaselineUnstable { .. })
        ));
    }
}
