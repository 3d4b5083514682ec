use crate::MomentError;

/// How close to zero `h1` may be before a fit is considered degenerate.
const DEGENERATE_H1: f64 = 1e-300;

/// Pole structure of a two-pole fit, in the `s` plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoleKind {
    /// One effective pole (`b2 ≈ 0`); `p < 0`.
    SingleReal {
        /// The pole (1/s).
        p: f64,
    },
    /// Two distinct negative real poles — the well-behaved case.
    RealStable {
        /// Dominant (slower, smaller magnitude) pole.
        p1: f64,
        /// Faster pole.
        p2: f64,
    },
    /// Two equal negative real poles.
    RealDouble {
        /// The repeated pole.
        p: f64,
    },
    /// Complex-conjugate pair `σ ± jω` — the fit is oscillatory; the
    /// paper notes two-pole matching "suffers from instability and may not
    /// offer a solution for some circuits".
    Complex {
        /// Real part.
        re: f64,
        /// Imaginary part (positive).
        im: f64,
    },
    /// At least one pole is non-negative: the reduced model is unstable
    /// even though the underlying RC circuit is passive.
    Unstable {
        /// First pole.
        p1: f64,
        /// Second pole.
        p2: f64,
    },
}

impl PoleKind {
    /// `true` when time-domain evaluation of the fit is meaningful
    /// (strictly decaying, non-oscillatory).
    pub fn is_well_behaved(&self) -> bool {
        matches!(
            self,
            PoleKind::SingleReal { .. } | PoleKind::RealStable { .. } | PoleKind::RealDouble { .. }
        )
    }
}

/// Two-pole Padé model of a noise transfer function,
/// `H(s) = a1·s / (1 + b1·s + b2·s²)`, fit to the first three Taylor
/// coefficients.
///
/// This is the model class behind the paper's eqs. (11)–(18) and the Yu
/// baseline metrics. Besides the fit itself it provides exact time-domain
/// step, ramp and exponential-input responses (which *do* use
/// exponentials — only the paper's new metrics avoid them) and a
/// closed-form ramp peak for well-behaved fits.
///
/// # Examples
///
/// ```
/// use xtalk_moments::{PoleKind, TwoPoleFit};
///
/// // H(s) = s·1e-11 / (1 + 2e-10·s + 0.5e-20·s²) — two real poles.
/// let fit = TwoPoleFit::from_taylor(&[0.0, 1e-11, -2e-21, 3.75e-31]).unwrap();
/// assert!((fit.b1() - 2e-10).abs() < 1e-22);
/// assert!(matches!(fit.poles(), PoleKind::RealStable { .. }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPoleFit {
    a1: f64,
    b1: f64,
    b2: f64,
    poles: PoleKind,
}

impl TwoPoleFit {
    /// Fits from Taylor coefficients `h = [h0, h1, h2, h3]` (only indices
    /// 1–3 are used; `h0` must describe a DC-free transfer, i.e. noise):
    /// `a1 = h1`, `b1 = −h2/h1`, `b2 = b1² − h3/h1`.
    ///
    /// # Errors
    ///
    /// [`MomentError::ZeroOrder`] when fewer than four coefficients are
    /// supplied; [`MomentError::DegenerateFit`] when `h1 ≈ 0` (no coupling
    /// to the observed node) or any coefficient is non-finite (a NaN `h2`
    /// would otherwise poison `b1`/`b2` silently).
    pub fn from_taylor(h: &[f64]) -> Result<Self, MomentError> {
        if h.len() < 4 {
            xtalk_obs::counter!("moments.pade.rejections").add(1);
            return Err(MomentError::ZeroOrder);
        }
        let (h1, h2, h3) = (h[1], h[2], h[3]);
        if h1.abs() < DEGENERATE_H1 || !(h1.is_finite() && h2.is_finite() && h3.is_finite()) {
            xtalk_obs::counter!("moments.pade.rejections").add(1);
            return Err(MomentError::DegenerateFit);
        }
        xtalk_obs::counter!("moments.pade.fits").add(1);
        let b1 = -h2 / h1;
        let b2 = b1 * b1 - h3 / h1;
        Ok(Self::from_coeffs(h1, b1, b2))
    }

    /// Builds directly from model coefficients (e.g. closed-form `a1`,
    /// `b1`, `b2` from the tree formulas).
    pub fn from_coeffs(a1: f64, b1: f64, b2: f64) -> Self {
        let poles = classify_poles(b1, b2);
        TwoPoleFit { a1, b1, b2, poles }
    }

    /// Numerator coefficient `a1`.
    pub fn a1(&self) -> f64 {
        self.a1
    }

    /// Denominator coefficient `b1` (sum of time constants).
    pub fn b1(&self) -> f64 {
        self.b1
    }

    /// Denominator coefficient `b2`.
    pub fn b2(&self) -> f64 {
        self.b2
    }

    /// Pole structure.
    pub fn poles(&self) -> PoleKind {
        self.poles
    }

    /// Taylor coefficients `[0, h1, h2, h3]` reproduced by the model —
    /// the inverse of [`TwoPoleFit::from_taylor`] (eqs. 11–14 of the paper
    /// with `g = [1, 0, 0, 0]`).
    pub fn taylor(&self) -> [f64; 4] {
        [
            0.0,
            self.a1,
            -self.a1 * self.b1,
            self.a1 * (self.b1 * self.b1 - self.b2),
        ]
    }

    /// Unit-step response `y(t)` of the fit (response of the victim output
    /// when the aggressor input steps 0→1 at `t = 0`); `0` for `t ≤ 0`.
    ///
    /// Uses exponentials — intended for baseline metrics and validation,
    /// not for the closed-form flow.
    pub fn step_response(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        match self.poles {
            PoleKind::SingleReal { p } => self.a1 * (-p) * (p * t).exp(),
            PoleKind::RealStable { p1, p2 } | PoleKind::Unstable { p1, p2 } => {
                self.a1 / (self.b2 * (p1 - p2)) * ((p1 * t).exp() - (p2 * t).exp())
            }
            PoleKind::RealDouble { p } => self.a1 / self.b2 * t * (p * t).exp(),
            PoleKind::Complex { re, im } => {
                self.a1 / (self.b2 * im) * (re * t).exp() * (im * t).sin()
            }
        }
    }

    /// Integral of the step response, `S(t) = ∫₀ᵗ y(τ) dτ`; `0` for
    /// `t ≤ 0`. The ramp response is `(S(t) − S(t − t_r))/t_r`.
    pub fn step_integral(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        match self.poles {
            PoleKind::SingleReal { p } => self.a1 * (1.0 - (p * t).exp()),
            PoleKind::RealStable { p1, p2 } | PoleKind::Unstable { p1, p2 } => {
                self.a1 / (self.b2 * (p1 - p2))
                    * (((p1 * t).exp() - 1.0) / p1 - ((p2 * t).exp() - 1.0) / p2)
            }
            PoleKind::RealDouble { p } => {
                self.a1 / self.b2
                    * ((p * t).exp() * (t / p - 1.0 / (p * p)) + 1.0 / (p * p))
            }
            PoleKind::Complex { re, im } => {
                let denom = re * re + im * im;
                self.a1 / (self.b2 * im)
                    * (((re * t).exp() * (re * (im * t).sin() - im * (im * t).cos()) + im)
                        / denom)
            }
        }
    }

    /// Response to a saturated ramp 0→1 with transition time `tr`
    /// arriving at `t = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `tr` is not positive.
    pub fn ramp_response(&self, t: f64, tr: f64) -> f64 {
        assert!(tr > 0.0, "ramp transition time must be positive");
        (self.step_integral(t) - self.step_integral(t - tr)) / tr
    }

    /// Peak `(t_p, v_p)` of the ramp response, or `None` when the pole
    /// structure is not well-behaved (complex or unstable fit — the
    /// failure mode the paper attributes to two-pole matching).
    ///
    /// The response rises until `t_r` and falls once `y(t) < y(t − t_r)`,
    /// so `t_p` is the stationary point `y(t_p) = y(t_p − t_r)`: `t_r` for
    /// one pole, `−t_r/(e^{p·t_r} − 1)` for a double pole `p`, and
    /// `(L(−p2·t_r) − L(−p1·t_r))/(p1 − p2)` with `L(x) = ln(eˣ − 1)` for
    /// two (as `t_r → 0`, the step peak `ln(p2/p1)/(p1 − p2)`). `v_p` is
    /// the ramp response there (the trough when `a1 < 0`).
    ///
    /// # Panics
    ///
    /// Panics if `tr` is not positive.
    pub fn ramp_peak(&self, tr: f64) -> Option<(f64, f64)> {
        if !self.poles.is_well_behaved() {
            return None;
        }
        assert!(tr > 0.0, "ramp transition time must be positive");
        // `L(x)` past `x = 1` is `x + ln(1 − e^{−x})`, finite where `eˣ`
        // overflows (a 0.4 ps pole under a 300 ps ramp).
        let l = |x: f64| {
            if x > 1.0 {
                x + (-(-x).exp()).ln_1p()
            } else {
                x.exp_m1().ln()
            }
        };
        // Past `t_r` in exact arithmetic; rounding on a plateau must not
        // move it onto the rising flank.
        let tp = match self.poles {
            PoleKind::SingleReal { .. } => tr,
            PoleKind::RealDouble { p } => -tr / (p * tr).exp_m1(),
            PoleKind::RealStable { p1, p2 } => (l(-p2 * tr) - l(-p1 * tr)) / (p1 - p2),
            _ => unreachable!("filtered above"),
        }
        .max(tr);
        Some((tp, self.ramp_response(tp, tr)))
    }

    /// Response to the exponential input `1 − e^{−t/τ}` arriving at
    /// `t = 0`; `0` for `t ≤ 0`.
    ///
    /// With the step response written `g(t) = Σ g_i·e^{p_i·t}`, this is
    /// `Σ g_i·(e^{p_i·t} − e^{−t/τ})/(1 + τ·p_i)`, with the limit
    /// `g_i·t·e^{−t/τ}/τ` at `p_i = −1/τ`. A double pole `p` (step
    /// response `k·t·e^{p·t}`) gives the `p`-derivative of its term. Real
    /// poles only (single, distinct, double); `NaN` for a complex pair.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive.
    pub fn exp_response(&self, t: f64, tau: f64) -> f64 {
        self.exp_terms(t, tau).0
    }

    /// Time derivative of [`TwoPoleFit::exp_response`]: positive before
    /// the response's peak, negative after it.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive.
    pub fn exp_slope(&self, t: f64, tau: f64) -> f64 {
        self.exp_terms(t, tau).1
    }

    /// `(y, y')` of [`TwoPoleFit::exp_response`] at `t`.
    fn exp_terms(&self, t: f64, tau: f64) -> (f64, f64) {
        assert!(tau > 0.0, "exponential time constant must be positive");
        if t <= 0.0 {
            return (0.0, 0.0);
        }
        let b = -1.0 / tau;
        match self.poles {
            PoleKind::SingleReal { p } => {
                let g = -self.a1 * p / tau;
                let (f, df) = exp_pair(p, b, t);
                (g * f, g * df)
            }
            PoleKind::RealStable { p1, p2 } | PoleKind::Unstable { p1, p2 } => {
                let g = self.a1 / (self.b2 * (p1 - p2)) / tau;
                let (f1, df1) = exp_pair(p1, b, t);
                let (f2, df2) = exp_pair(p2, b, t);
                (g * (f1 - f2), g * (df1 - df2))
            }
            PoleKind::RealDouble { p } => {
                // `h = ∂f/∂p` of the pair term `f`, and `h' = f + p·h`.
                let k = self.a1 / self.b2 / tau;
                let d = p - b;
                let x = d * t;
                // `(x − 1 + e^{−x})/x²` (`d ≥ 0`, scaled by `e^{p·t}`) or
                // `(1 − (1 − x)·eˣ)/x²` (`d < 0`, by `e^{b·t}`): the larger
                // exponential factors out. Near resonance both cancel to
                // `1/2`, so a short series takes over there.
                let u = x.abs();
                let (psi, scale) = if d >= 0.0 {
                    let psi = if u < 1e-3 {
                        0.5 - u * (1.0 / 6.0 - u * (1.0 / 24.0 - u / 120.0))
                    } else {
                        (u + (-u).exp_m1()) / (u * u)
                    };
                    (psi, (p * t).exp())
                } else {
                    let psi = if u < 1e-3 {
                        0.5 - u * (1.0 / 3.0 - u * (1.0 / 8.0 - u / 30.0))
                    } else {
                        (-(-u).exp_m1() - u * (-u).exp()) / (u * u)
                    };
                    (psi, (b * t).exp())
                };
                let h = t * t * scale * psi;
                let (f, _) = exp_pair(p, b, t);
                (k * h, k * (f + p * h))
            }
            PoleKind::Complex { .. } => (f64::NAN, f64::NAN),
        }
    }
}

/// `f = (e^{p·t} − e^{b·t})/(p − b)` and `f' = p·f + e^{b·t}`, with the
/// limit `t·e^{b·t}` at `p = b`. The larger exponential factors out of
/// an `expm1`, so nearly equal rates keep their digits and neither
/// factor overflows while the other underflows.
fn exp_pair(p: f64, b: f64, t: f64) -> (f64, f64) {
    let d = p - b;
    let f = if d > 0.0 {
        -(p * t).exp() * (-d * t).exp_m1() / d
    } else if d < 0.0 {
        (b * t).exp() * (d * t).exp_m1() / d
    } else {
        t * (b * t).exp()
    };
    (f, p * f + (b * t).exp())
}

/// Classifies the roots of `b2·s² + b1·s + 1 = 0`.
fn classify_poles(b1: f64, b2: f64) -> PoleKind {
    // Relative threshold: b2 negligible vs b1² means one pole escaped to -∞.
    if b2.abs() <= 1e-12 * b1 * b1 || b2 == 0.0 {
        let p = -1.0 / b1;
        return if p < 0.0 {
            PoleKind::SingleReal { p }
        } else {
            PoleKind::Unstable { p1: p, p2: p }
        };
    }
    let disc = b1 * b1 - 4.0 * b2;
    // Rounding can push a true double root a few ulps either side of zero;
    // treat a vanishing discriminant (relative to its terms) as a double pole.
    if disc.abs() <= 1e-9 * (b1 * b1).max(4.0 * b2.abs()) {
        let p = -b1 / (2.0 * b2);
        return if p < 0.0 {
            PoleKind::RealDouble { p }
        } else {
            PoleKind::Unstable { p1: p, p2: p }
        };
    }
    if disc < 0.0 {
        PoleKind::Complex {
            re: -b1 / (2.0 * b2),
            im: (-disc).sqrt() / (2.0 * b2.abs()),
        }
    } else {
        let sq = disc.sqrt();
        let r1 = (-b1 + sq) / (2.0 * b2);
        let r2 = (-b1 - sq) / (2.0 * b2);
        // Order by magnitude: dominant (slow) pole first.
        let (p1, p2) = if r1.abs() <= r2.abs() { (r1, r2) } else { (r2, r1) };
        if p1 < 0.0 && p2 < 0.0 {
            PoleKind::RealStable { p1, p2 }
        } else {
            PoleKind::Unstable { p1, p2 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fit with poles at -1/τ1, -1/τ2: b1 = τ1+τ2, b2 = τ1·τ2.
    fn fit_from_taus(a1: f64, tau1: f64, tau2: f64) -> TwoPoleFit {
        TwoPoleFit::from_coeffs(a1, tau1 + tau2, tau1 * tau2)
    }

    /// The numerical peak search the closed form replaced: a 513-point
    /// grid over `[0, t_r + 30·τ_slow]`, then 100 ternary rounds around
    /// the best grid point. The oracle [`TwoPoleFit::ramp_peak`] must
    /// match.
    fn ramp_peak_search(fit: &TwoPoleFit, tr: f64) -> Option<(f64, f64)> {
        let slowest = match fit.poles() {
            PoleKind::SingleReal { p } | PoleKind::RealDouble { p } => -1.0 / p,
            PoleKind::RealStable { p1, p2 } => (-1.0 / p1).max(-1.0 / p2),
            _ => return None,
        };
        let t_max = tr + 30.0 * slowest;
        let coarse: usize = 512;
        let mut best_i: usize = 0;
        let mut best_v = f64::NEG_INFINITY;
        for i in 0..=coarse {
            let v = fit.ramp_response(t_max * i as f64 / coarse as f64, tr);
            if v > best_v {
                best_v = v;
                best_i = i;
            }
        }
        let mut lo = t_max * best_i.saturating_sub(1) as f64 / coarse as f64;
        let mut hi = t_max * (best_i + 1).min(coarse) as f64 / coarse as f64;
        for _ in 0..100 {
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            if fit.ramp_response(m1, tr) < fit.ramp_response(m2, tr) {
                lo = m1;
            } else {
                hi = m2;
            }
        }
        let tp = 0.5 * (lo + hi);
        Some((tp, fit.ramp_response(tp, tr)))
    }

    /// Well-behaved fits with slowest time constant `τ` and a ramp of
    /// `10^(−3..3)·τ`: single, double, near-double (`p2/p1 − 1` down to
    /// 1e-7), ordinary and stiff (`p2/p1` up to 1e12) poles.
    fn fit_and_ramp() -> impl Strategy<Value = (TwoPoleFit, f64)> {
        let draws = (
            0u8..5,          // pole structure
            1e-12..1e-9f64,  // slowest time constant τ
            0.0..1.0f64,     // place in the structure's pole-ratio range
            -3.0..3.0f64,    // log10(t_r/τ)
            1e-13..1e-10f64, // a1
        );
        draws.prop_map(|(kind, tau, u, decades, a1)| {
            let fit = match kind {
                0 => TwoPoleFit::from_coeffs(a1, tau, 0.0),
                1 => TwoPoleFit::from_coeffs(a1, 2.0 * tau, tau * tau),
                2 => fit_from_taus(a1, tau, tau / (1.0 + 10f64.powf(-7.0 + 6.0 * u))),
                3 => fit_from_taus(a1, tau, tau / 10f64.powf(3.0 * u)),
                _ => fit_from_taus(a1, tau, tau / 10f64.powf(3.0 + 9.0 * u)),
            };
            (fit, tau * 10f64.powf(decades))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn ramp_peak_is_the_stationary_point_the_search_approximates(
            (fit, tr) in fit_and_ramp(),
        ) {
            prop_assert!(fit.poles().is_well_behaved(), "{:?}", fit.poles());
            let (tp, vp) = fit.ramp_peak(tr).expect("well-behaved fit has a peak");
            let (_, vp_search) = ramp_peak_search(&fit, tr).expect("well-behaved");
            prop_assert!(
                (vp - vp_search).abs() <= 1e-6 * vp_search.abs(),
                "{:?} tr {tr}: vp {vp} vs search {vp_search}", fit.poles()
            );
            // The slope (y(t) − y(t − t_r))/t_r changes sign at t_p.
            prop_assert!(tp.is_finite() && tp >= tr, "{:?} tr {tr}: tp {tp}", fit.poles());
            let slope = |t: f64| fit.step_response(t) - fit.step_response(t - tr);
            prop_assert!(slope(tp * (1.0 - 1e-6)) >= 0.0, "{:?} tr {tr}: rising", fit.poles());
            prop_assert!(slope(tp * (1.0 + 1e-6)) <= 0.0, "{:?} tr {tr}: falling", fit.poles());
        }
    }

    #[test]
    fn saturated_plateau_peaks_at_the_end_of_the_ramp() {
        // τ ≈ 2.5 ps under a 100 ps ramp: the response is flat to rounding
        // over most of [0, t_r], where a search stops anywhere.
        let fit = fit_from_taus(1e-13, 2.5e-12, 0.6e-12);
        assert!(matches!(fit.poles(), PoleKind::RealStable { .. }));
        let tr = 100e-12;
        let (tp, vp) = fit.ramp_peak(tr).unwrap();
        assert!(tp >= tr && tp <= tr * (1.0 + 1e-9), "tp = {tp}");
        assert!((vp - fit.ramp_response(tr, tr)).abs() <= 1e-12 * vp);
    }

    #[test]
    fn stiff_fit_peak_survives_exponential_overflow() {
        // A 0.4 ps pole under a 300 ps ramp: −p2·t_r = 750, past where
        // eˣ overflows, so ln(eˣ − 1) taken literally is infinite.
        let fit = fit_from_taus(1e-11, 50e-12, 0.4e-12);
        let tr = 300e-12;
        let PoleKind::RealStable { p2, .. } = fit.poles() else {
            panic!("expected two real poles, got {:?}", fit.poles());
        };
        assert!(-p2 * tr > 710.0 && (-p2 * tr).exp_m1().ln().is_infinite());
        let (tp, vp) = fit.ramp_peak(tr).unwrap();
        assert!(tp.is_finite() && tp >= tr, "tp = {tp}");
        assert!(vp > 0.0, "vp = {vp}");
    }

    #[test]
    fn taylor_round_trip() {
        let fit = fit_from_taus(2e-11, 1e-10, 3e-11);
        let h = fit.taylor();
        let refit = TwoPoleFit::from_taylor(&h).unwrap();
        assert!((refit.a1() - fit.a1()).abs() < 1e-24);
        assert!((refit.b1() - fit.b1()).abs() < 1e-22);
        assert!((refit.b2() - fit.b2()).abs() < 1e-32);
    }

    #[test]
    fn poles_recovered_from_time_constants() {
        let fit = fit_from_taus(1e-11, 2e-10, 5e-11);
        match fit.poles() {
            PoleKind::RealStable { p1, p2 } => {
                assert!((p1 + 1.0 / 2e-10).abs() < 1e-3 / 2e-10);
                assert!((p2 + 1.0 / 5e-11).abs() < 1e-3 / 5e-11);
            }
            other => panic!("expected RealStable, got {other:?}"),
        }
    }

    #[test]
    fn complex_poles_detected() {
        // b1² < 4 b2.
        let fit = TwoPoleFit::from_coeffs(1e-11, 1e-10, 1e-19);
        assert!(matches!(fit.poles(), PoleKind::Complex { .. }));
        assert!(!fit.poles().is_well_behaved());
        assert!(fit.ramp_peak(1e-10).is_none());
    }

    #[test]
    fn negative_b2_is_unstable() {
        let fit = TwoPoleFit::from_coeffs(1e-11, 1e-10, -1e-20);
        assert!(matches!(fit.poles(), PoleKind::Unstable { .. }));
    }

    #[test]
    fn degenerate_fit_rejected() {
        assert!(matches!(
            TwoPoleFit::from_taylor(&[0.0, 0.0, 1e-21, 0.0]),
            Err(MomentError::DegenerateFit)
        ));
        assert!(matches!(
            TwoPoleFit::from_taylor(&[0.0, 1.0]),
            Err(MomentError::ZeroOrder)
        ));
    }

    #[test]
    fn non_finite_taylor_coefficients_rejected() {
        // A NaN h2 with a healthy h1 would silently poison b1 = −h2/h1.
        for bad in [
            [0.0, f64::NAN, -2e-21, 3.75e-31],
            [0.0, 1e-11, f64::NAN, 3.75e-31],
            [0.0, 1e-11, -2e-21, f64::INFINITY],
        ] {
            assert!(matches!(
                TwoPoleFit::from_taylor(&bad),
                Err(MomentError::DegenerateFit)
            ));
        }
    }

    #[test]
    fn step_response_matches_quadrature_of_integral() {
        let fit = fit_from_taus(1e-11, 2e-10, 7e-11);
        // dS/dt == y(t) via central differences.
        for &t in &[1e-11, 5e-11, 2e-10, 8e-10] {
            let h = t * 1e-6;
            let deriv = (fit.step_integral(t + h) - fit.step_integral(t - h)) / (2.0 * h);
            let y = fit.step_response(t);
            assert!(
                (deriv - y).abs() < 1e-6 * y.abs().max(1e-12),
                "t={t}: {deriv} vs {y}"
            );
        }
    }

    #[test]
    fn step_integral_saturates_at_a1() {
        // ∫0^∞ y = lim_{s→0} H(s)/s = a1.
        let fit = fit_from_taus(3e-11, 1e-10, 4e-11);
        let s_inf = fit.step_integral(1e-7);
        assert!((s_inf - 3e-11).abs() < 1e-16);
    }

    #[test]
    fn double_pole_square_endpoint() {
        let fit = TwoPoleFit::from_coeffs(1e-11, 2e-10, 1e-20); // (1 + 1e-10 s)^2
        assert!(matches!(fit.poles(), PoleKind::RealDouble { .. }));
        // y(t) = a1/b2 * t e^{-t/1e-10}; check at t = 1e-10.
        let y = fit.step_response(1e-10);
        let expect = 1e-11 / 1e-20 * 1e-10 * (-1.0f64).exp();
        assert!((y - expect).abs() < 1e-9 * expect.abs());
        // Integral saturates at a1 as well.
        assert!((fit.step_integral(1e-7) - 1e-11).abs() < 1e-16);
    }

    #[test]
    fn single_pole_ramp_peak_is_at_tr() {
        // One-pole noise: peak of the ramp response occurs exactly at t = tr.
        let tau = 1e-10;
        let fit = TwoPoleFit::from_coeffs(2e-11, tau, 0.0);
        assert!(matches!(fit.poles(), PoleKind::SingleReal { .. }));
        let tr = 2e-10;
        let (tp, vp) = fit.ramp_peak(tr).unwrap();
        assert!((tp - tr).abs() < 1e-3 * tr, "tp = {tp}");
        // Analytic peak: (a1/tr)(1 - e^{-tr/tau}).
        let expect = 2e-11 / tr * (1.0 - (-tr / tau).exp());
        assert!((vp - expect).abs() < 1e-4 * expect);
    }

    #[test]
    fn two_pole_ramp_peak_bounded_by_step_peak() {
        let fit = fit_from_taus(1e-11, 2e-10, 6e-11);
        let (tp, vp) = fit.ramp_peak(1e-10).unwrap();
        // Step-response peak (analytic argmax of k(e^{p1 t} - e^{p2 t})).
        let (p1, p2) = match fit.poles() {
            PoleKind::RealStable { p1, p2 } => (p1, p2),
            other => panic!("unexpected {other:?}"),
        };
        // Argmax of e^{p1 t} - e^{p2 t}: p1 e^{p1 t*} = p2 e^{p2 t*}.
        let t_star = (p2 / p1).ln() / (p1 - p2);
        let v_star = fit.step_response(t_star);
        assert!(vp <= v_star + 1e-15);
        assert!(vp > 0.0);
        assert!(tp > 0.0);
    }

    /// `∫₀ᵗ g(t − s)·e^{−s/τ}/τ ds` by the composite midpoint rule: the
    /// exponential response as the convolution of the step response `g`
    /// with the input's slope.
    fn exp_response_by_convolution(fit: &TwoPoleFit, t: f64, tau: f64) -> f64 {
        let n = 20_000;
        let h = t / n as f64;
        let sum: f64 = (0..n)
            .map(|i| {
                let s = (i as f64 + 0.5) * h;
                fit.step_response(t - s) * (-s / tau).exp() / tau
            })
            .sum();
        sum * h
    }

    #[test]
    fn exp_response_is_the_convolution_of_step_response_and_input_slope() {
        let tau_p = 1e-10;
        let single = TwoPoleFit::from_coeffs(2e-11, tau_p, 0.0);
        let distinct = fit_from_taus(2e-11, tau_p, 3e-11);
        let double = TwoPoleFit::from_coeffs(2e-11, 2.0 * tau_p, tau_p * tau_p);
        assert!(matches!(single.poles(), PoleKind::SingleReal { .. }));
        assert!(matches!(distinct.poles(), PoleKind::RealStable { .. }));
        assert!(matches!(double.poles(), PoleKind::RealDouble { .. }));
        // Input time constants away from, at and near a pole's `−1/p`:
        // the double pole's `1 ± 1e-3` put its two series (either side
        // of resonance) on both sides of their cut-off.
        let cases = [
            (single, 3e-11),
            (single, tau_p),
            (single, tau_p * (1.0 + 1e-9)),
            (distinct, 4e-11),
            (distinct, 3e-11 * (1.0 - 1e-9)),
            (distinct, tau_p * (1.0 + 1e-9)),
            (double, 4e-11),
            (double, tau_p),
            (double, tau_p * (1.0 + 1e-7)),
            (double, tau_p * (1.0 + 1e-3)),
            (double, tau_p * (1.0 - 1e-3)),
        ];
        for (fit, tau) in cases {
            let ts: Vec<f64> = (1..=8).map(|k| 0.75 * tau_p * k as f64).collect();
            let scale = ts
                .iter()
                .map(|&t| fit.exp_response(t, tau).abs())
                .fold(0.0, f64::max);
            for &t in &ts {
                let y = fit.exp_response(t, tau);
                let conv = exp_response_by_convolution(&fit, t, tau);
                assert!(
                    (y - conv).abs() <= 1e-7 * scale,
                    "{:?} tau {tau:e} t {t:e}: {y} vs convolution {conv}",
                    fit.poles()
                );
                // The slope is the response's derivative.
                let dt = t * 1e-5;
                let diff =
                    (fit.exp_response(t + dt, tau) - fit.exp_response(t - dt, tau)) / (2.0 * dt);
                let slope = fit.exp_slope(t, tau);
                assert!(
                    (slope - diff).abs() <= 1e-6 * scale / tau_p,
                    "{:?} tau {tau:e} t {t:e}: slope {slope} vs {diff}",
                    fit.poles()
                );
            }
            assert_eq!(fit.exp_response(0.0, tau), 0.0);
            // ∫y dt = a1, as for every input that settles at 1.
            let (n, t_end) = (200_000, 100.0 * tau_p);
            let h = t_end / n as f64;
            let area: f64 = (0..n)
                .map(|i| fit.exp_response((i as f64 + 0.5) * h, tau))
                .sum::<f64>()
                * h;
            assert!((area - fit.a1()).abs() <= 1e-6 * fit.a1(), "area {area}");
        }
    }

    #[test]
    fn double_pole_series_meets_the_closed_form_at_its_cut_off() {
        // Near resonance the double pole's term switches from its closed
        // form to a series at `|d|·t = 1e-3`, `d = p + 1/τ`; the two must
        // agree there, on either side of resonance.
        let tau_p = 1e-10;
        let double = TwoPoleFit::from_coeffs(2e-11, 2.0 * tau_p, tau_p * tau_p);
        for tau in [tau_p * (1.0 + 1e-2), tau_p * (1.0 - 1e-2)] {
            let t_cut = 1e-3 / (1.0 / tau - 1.0 / tau_p).abs();
            let below = double.exp_response(t_cut * (1.0 - 1e-12), tau);
            let above = double.exp_response(t_cut * (1.0 + 1e-12), tau);
            assert!(
                (above - below).abs() <= 1e-10 * below,
                "tau {tau:e}: {below} below the cut-off, {above} above"
            );
        }
    }

    #[test]
    fn exp_response_survives_exponential_overflow() {
        // t/τ = 5000 under a slow pole and t·|p| = 5000 under a slow input:
        // e^{−t/τ} (or e^{p·t}) underflows while the matching expm1 term
        // would overflow if taken literally.
        let slow_pole = fit_from_taus(1e-11, 1e-9, 3e-10);
        let (t, tau) = (5e-10, 1e-13);
        let y = slow_pole.exp_response(t, tau);
        let step = slow_pole.step_response(t);
        assert!((y - step).abs() <= 1e-3 * step, "{y} vs step {step}");

        let fast_pole = TwoPoleFit::from_coeffs(1e-11, 1e-13, 0.0);
        let (t, tau) = (5e-10, 1e-9);
        let y = fast_pole.exp_response(t, tau);
        // A fast net follows the input's slope: y ≈ a1·e^{−t/τ}/τ.
        let follow = 1e-11 * (-t / tau).exp() / tau;
        assert!((y - follow).abs() <= 1e-3 * follow, "{y} vs {follow}");
        assert!(fast_pole.exp_slope(t, tau).is_finite());
    }

    #[test]
    fn ramp_response_converges_to_step_as_tr_shrinks() {
        let fit = fit_from_taus(1e-11, 2e-10, 6e-11);
        let t = 1.5e-10;
        let fast = fit.ramp_response(t, 1e-14);
        let step = fit.step_response(t);
        assert!((fast - step).abs() < 1e-3 * step.abs());
    }
}
