//! Noise-waveform measurement — extraction of the paper's waveform
//! parameters from a simulated [`Waveform`].
//!
//! The conventions mirror the paper's Figure 2 and eq. (6):
//!
//! * `Vp` — peak value of the (polarity-normalized) noise pulse;
//! * `Tp` — time of the peak;
//! * `T1` — first (rising) transition time, measured 10%→90% and
//!   extrapolated to the full swing: `T1 = (t₉₀ − t₁₀)/0.8`;
//! * `T2` — second (falling) transition time, same convention on the
//!   decaying flank;
//! * `T0` — extrapolated arrival: `t₁₀ − 0.1·T1`;
//! * `Wn` — pulse width: the 10%-level width extrapolated to the full
//!   swing, `(t₁₀fall − t₁₀rise) + 0.1·(T1 + T2)`. For any two-flank pulse
//!   this equals `T1 + T2` exactly; for pulses with a flat top (slow input
//!   on a fast net) it correctly includes the plateau that the flank
//!   transition times alone would miss.

use crate::{SimError, Waveform};

/// Relative floor under which a pulse is considered absent (fraction of
/// full swing; normalized waveforms). Shared with the analytic fast tier
/// so both golden tiers agree on what "no pulse" means.
pub(crate) const PULSE_FLOOR: f64 = 1e-9;

/// Measured parameters of a noise pulse. All times in seconds; `vp`
/// normalized to the supply (always positive — the sign is carried by
/// `polarity`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseWaveformParams {
    /// Peak amplitude (positive).
    pub vp: f64,
    /// Peak-occurrence time.
    pub tp: f64,
    /// Extrapolated arrival time.
    pub t0: f64,
    /// First (rising) transition time, 10–90% extrapolated.
    pub t1: f64,
    /// Second (falling) transition time, 10–90% extrapolated.
    pub t2: f64,
    /// Pulse width `t1 + t2`.
    pub wn: f64,
    /// Area under the pulse, `∫v dt` (V·s) — the first moment `f1` of the
    /// output waveform, useful for cross-checks.
    pub area: f64,
    /// Sign of the raw pulse: `+1.0` (positive spike) or `−1.0`.
    pub polarity: f64,
}

/// Measures the noise pulse in `waveform`.
///
/// `polarity` is the expected sign of the pulse (`+1.0` for a rising
/// aggressor on a ground-quiet victim, `−1.0` for a falling one — see
/// [`xtalk_circuit::signal::InputSignal::noise_polarity`]); the waveform is
/// read normalized by it, without a copy.
///
/// # Errors
///
/// * [`SimError::NoPulse`] — the normalized waveform never rises above the
///   measurement floor, or has no rising flank.
/// * [`SimError::Truncated`] — the pulse has not decayed below 10% of its
///   peak by the end of the window; extend the simulation horizon.
///
/// # Examples
///
/// ```
/// use xtalk_sim::{measure_noise, Waveform};
///
/// // A triangular pulse: rise over 2 s, fall over 4 s.
/// let mut samples = vec![0.0; 200];
/// for (k, s) in samples.iter_mut().enumerate() {
///     let t = k as f64 * 0.1;
///     *s = if t < 2.0 { t / 2.0 } else { (1.0 - (t - 2.0) / 4.0).max(0.0) };
/// }
/// let params = measure_noise(&Waveform::new(0.0, 0.1, samples), 1.0)?;
/// assert!((params.vp - 1.0).abs() < 5e-3);
/// assert!((params.t1 - 2.0).abs() < 0.02);
/// assert!((params.t2 - 4.0).abs() < 0.02);
/// assert!((params.wn - 6.0).abs() < 0.04);
/// # Ok::<(), xtalk_sim::SimError>(())
/// ```
pub fn measure_noise(waveform: &Waveform, polarity: f64) -> Result<NoiseWaveformParams, SimError> {
    // The polarity folds into every comparison on the borrowed samples.
    let (w, sign) = (waveform, if polarity < 0.0 { -1.0 } else { 1.0 });
    let (tp, vp) = w.signed_max(sign);
    if !(vp.is_finite() && vp > PULSE_FLOOR) {
        return Err(SimError::NoPulse);
    }

    let t10r = w
        .signed_last_rising_before(tp, 0.1 * vp, sign)
        .ok_or(SimError::NoPulse)?;
    let t90r = w
        .signed_last_rising_before(tp, 0.9 * vp, sign)
        .ok_or(SimError::NoPulse)?;
    let t90f = w
        .signed_crossing_after(tp, 0.9 * vp, false, sign)
        .ok_or(SimError::Truncated)?;
    let t10f = w
        .signed_crossing_after(t90f, 0.1 * vp, false, sign)
        .ok_or(SimError::Truncated)?;

    let t1 = (t90r - t10r) / 0.8;
    let t2 = (t10f - t90f) / 0.8;
    let t0 = t10r - 0.1 * t1;
    // 10%-level width extrapolated to the full swing; equals t1 + t2 for
    // two-flank pulses and includes any flat top.
    let wn = (t10f - t10r) + 0.1 * (t1 + t2);
    Ok(NoiseWaveformParams {
        vp,
        tp,
        t0,
        t1,
        t2,
        wn,
        area: w.signed_integral(sign),
        polarity: sign,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples an asymmetric triangle: rise t1, fall t2, peak vp, start t0.
    fn triangle(t0: f64, t1: f64, t2: f64, vp: f64, dt: f64, t_end: f64) -> Waveform {
        let n = (t_end / dt).ceil() as usize;
        let samples = (0..=n)
            .map(|k| {
                let t = k as f64 * dt;
                if t < t0 {
                    0.0
                } else if t < t0 + t1 {
                    vp * (t - t0) / t1
                } else {
                    (vp * (1.0 - (t - t0 - t1) / t2)).max(0.0)
                }
            })
            .collect();
        Waveform::new(0.0, dt, samples)
    }

    #[test]
    fn triangle_parameters_recovered() {
        let w = triangle(1.0, 2.0, 5.0, 0.4, 0.001, 12.0);
        let p = measure_noise(&w, 1.0).unwrap();
        assert!((p.vp - 0.4).abs() < 1e-3);
        assert!((p.tp - 3.0).abs() < 0.01);
        assert!((p.t1 - 2.0).abs() < 0.01);
        assert!((p.t2 - 5.0).abs() < 0.01);
        assert!((p.t0 - 1.0).abs() < 0.01);
        assert!((p.wn - 7.0).abs() < 0.02);
        assert!((p.area - 0.5 * 0.4 * 7.0).abs() < 1e-3);
        assert_eq!(p.polarity, 1.0);
    }

    #[test]
    fn negative_pulse_measured_with_polarity() {
        let w = triangle(1.0, 2.0, 5.0, 0.4, 0.001, 12.0).scaled(-1.0);
        let p = measure_noise(&w, -1.0).unwrap();
        assert!((p.vp - 0.4).abs() < 1e-3);
        assert_eq!(p.polarity, -1.0);
        // Measuring with the wrong polarity finds no pulse.
        assert!(matches!(measure_noise(&w, 1.0), Err(SimError::NoPulse)));
    }

    #[test]
    fn flat_waveform_has_no_pulse() {
        let w = Waveform::new(0.0, 1.0, vec![0.0; 10]);
        assert!(matches!(measure_noise(&w, 1.0), Err(SimError::NoPulse)));
    }

    #[test]
    fn truncated_pulse_detected() {
        // Rise completes but the window ends before decay below 10%.
        let w = triangle(1.0, 2.0, 50.0, 0.4, 0.01, 6.0);
        assert!(matches!(measure_noise(&w, 1.0), Err(SimError::Truncated)));
    }

    #[test]
    fn exponential_tail_matches_eq6_convention() {
        // v = exp-decay after instant rise … use linear rise (short) +
        // exponential tail with time constant tau: T2 should equal
        // ln(9)·1.25 … = λ·τ? No: the 10–90 extrapolated convention gives
        // T2 = (t10 − t90)/0.8 = τ·(ln10 − ln(10/9))/0.8 = τ·ln9/0.8.
        let tau = 2.0;
        let dt = 0.0005;
        let rise = 0.05;
        let n = (40.0 / dt) as usize;
        let samples: Vec<f64> = (0..=n)
            .map(|k| {
                let t = k as f64 * dt;
                if t < rise {
                    t / rise
                } else {
                    (-(t - rise) / tau).exp()
                }
            })
            .collect();
        let w = Waveform::new(0.0, dt, samples);
        let p = measure_noise(&w, 1.0).unwrap();
        let expect_t2 = tau * (9.0f64).ln() / 0.8;
        assert!(
            (p.t2 - expect_t2).abs() < 0.01 * expect_t2,
            "t2 = {}, expected {expect_t2}",
            p.t2
        );
    }
}
