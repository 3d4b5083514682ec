//! Aggressor input waveforms.
//!
//! The paper's FrontEnd treats the input signals — their arrival times and
//! transition times — as part of the coupling-circuit specification, so the
//! signal model lives here in the base crate where both the transient
//! simulator and the closed-form metrics can share it.
//!
//! All signals are normalized to the supply: they swing between 0 and 1
//! (`× Vdd`). A signal provides both its time-domain value (for
//! simulation) and the Taylor coefficients `g_k` of `s·V_i(s)` (paper
//! eq. 9, for the moment-domain metrics). Falling inputs are handled by
//! superposition: `V_i = 1 − V_rise`, the DC part injects no noise, so the
//! noise waveform is the rising answer with flipped [`polarity`] —
//! `taylor_g` always describes the rising-equivalent transition.
//!
//! [`polarity`]: InputSignal::noise_polarity

/// Shape of an aggressor transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waveshape {
    /// Ideal step (zero transition time).
    Step,
    /// Saturated ramp 0→1 over the transition time.
    RisingRamp,
    /// Saturated ramp 1→0 over the transition time.
    FallingRamp,
    /// `1 − e^{−t/τ}` with `τ = transition / EXP_TRANSITION_FACTOR`.
    RisingExp,
    /// `e^{−t/τ}`, falling counterpart.
    FallingExp,
}

/// The aggressor edge a front end asks for by name (`--shape` on the
/// command line, `"shape"` on the wire). Every shape switches rising: a
/// quiet-low victim sees the positive spike the paper analyzes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Shape {
    /// Saturated linear ramp (the paper's model) — the default.
    #[default]
    Ramp,
    /// Exponential settling edge.
    Exp,
    /// Ideal step (defeats metric II's seeding; exercises the fallback
    /// chain).
    Step,
}

impl Shape {
    /// Parses `ramp`, `exp` or `step`; `None` for any other name, so
    /// each front end words its own error.
    pub fn parse(name: &str) -> Option<Shape> {
        match name {
            "ramp" => Some(Shape::Ramp),
            "exp" => Some(Shape::Exp),
            "step" => Some(Shape::Step),
            _ => None,
        }
    }

    /// The rising input of this shape switching at `arrival` with 10–90 %
    /// transition time `slew` (ignored for a step).
    ///
    /// # Panics
    ///
    /// As [`InputSignal::rising_ramp`] when `slew` is not positive for a
    /// ramp or an exponential.
    pub fn input(self, arrival: f64, slew: f64) -> InputSignal {
        match self {
            Shape::Ramp => InputSignal::rising_ramp(arrival, slew),
            Shape::Exp => InputSignal::rising_exp(arrival, slew),
            Shape::Step => InputSignal::step(arrival),
        }
    }
}

/// 10%–90% transition time of `1 − e^{−t/τ}` in units of `τ`
/// (`ln 9 ≈ 2.197`): the conversion between a specified transition time
/// and the exponential's time constant.
pub const EXP_TRANSITION_FACTOR: f64 = 2.197_224_577_336_22; // ln(9)

/// An aggressor input: waveshape, arrival time `t0` and transition time
/// `t_r`, normalized to the supply.
///
/// # Examples
///
/// ```
/// use xtalk_circuit::signal::InputSignal;
///
/// let ramp = InputSignal::rising_ramp(50e-12, 100e-12);
/// assert_eq!(ramp.value(50e-12), 0.0);
/// assert!((ramp.value(100e-12) - 0.5).abs() < 1e-12);
/// assert_eq!(ramp.value(200e-12), 1.0);
/// assert_eq!(ramp.noise_polarity(), 1.0);
///
/// let g = ramp.taylor_g();
/// assert_eq!(g[0], 1.0);
/// assert!((g[1] + (50e-12 + 50e-12)).abs() < 1e-24); // −(t0 + tr/2)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputSignal {
    shape: Waveshape,
    arrival: f64,
    transition: f64,
}

impl InputSignal {
    /// Ideal step at `arrival`.
    pub fn step(arrival: f64) -> Self {
        Self::new(Waveshape::Step, arrival, 0.0)
    }

    /// Rising saturated ramp.
    ///
    /// # Panics
    ///
    /// Panics if `transition` is not positive or `arrival` is not finite.
    pub fn rising_ramp(arrival: f64, transition: f64) -> Self {
        Self::new(Waveshape::RisingRamp, arrival, transition)
    }

    /// Falling saturated ramp (1→0).
    ///
    /// # Panics
    ///
    /// Panics if `transition` is not positive or `arrival` is not finite.
    pub fn falling_ramp(arrival: f64, transition: f64) -> Self {
        Self::new(Waveshape::FallingRamp, arrival, transition)
    }

    /// Rising exponential with the given 10–90% transition time.
    ///
    /// # Panics
    ///
    /// Panics if `transition` is not positive or `arrival` is not finite.
    pub fn rising_exp(arrival: f64, transition: f64) -> Self {
        Self::new(Waveshape::RisingExp, arrival, transition)
    }

    /// Falling exponential with the given 10–90% transition time.
    ///
    /// # Panics
    ///
    /// Panics if `transition` is not positive or `arrival` is not finite.
    pub fn falling_exp(arrival: f64, transition: f64) -> Self {
        Self::new(Waveshape::FallingExp, arrival, transition)
    }

    fn new(shape: Waveshape, arrival: f64, transition: f64) -> Self {
        assert!(arrival.is_finite(), "arrival time must be finite");
        if shape == Waveshape::Step {
            assert!(
                transition == 0.0,
                "step signals have zero transition time"
            );
        } else {
            assert!(
                transition.is_finite() && transition > 0.0,
                "transition time must be positive and finite"
            );
        }
        InputSignal {
            shape,
            arrival,
            transition,
        }
    }

    /// Waveshape.
    pub fn shape(&self) -> Waveshape {
        self.shape
    }

    /// Arrival time `t0` (s).
    pub fn arrival(&self) -> f64 {
        self.arrival
    }

    /// Transition time `t_r` (s); 0 for a step.
    pub fn transition(&self) -> f64 {
        self.transition
    }

    /// Returns a copy with a different arrival time (used by the
    /// worst-case aggressor-alignment search).
    pub fn with_arrival(&self, arrival: f64) -> Self {
        Self::new(self.shape, arrival, self.transition)
    }

    /// Time constant of the exponential shapes, `τ = t_r / ln 9`.
    fn tau(&self) -> f64 {
        self.transition / EXP_TRANSITION_FACTOR
    }

    /// Effective linear rise time used to seed the shape-ratio estimate
    /// (paper eq. 54): the transition time for ramps, but the *time
    /// constant* `τ` for exponentials — the noise rise tracks the input's
    /// initial slope (`1/τ`), not its long 10–90% tail. Zero for steps.
    pub fn effective_rise_time(&self) -> f64 {
        match self.shape {
            Waveshape::Step => 0.0,
            Waveshape::RisingRamp | Waveshape::FallingRamp => self.transition,
            Waveshape::RisingExp | Waveshape::FallingExp => self.tau(),
        }
    }

    /// Time at which the signal crosses `level` of its swing (measured
    /// from the pre-transition value toward the post-transition value),
    /// e.g. `0.5` for the 50% point used as the delay reference.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < level < 1`.
    pub fn crossing_time(&self, level: f64) -> f64 {
        assert!(
            level > 0.0 && level < 1.0,
            "crossing level must be inside (0, 1)"
        );
        match self.shape {
            Waveshape::Step => self.arrival,
            Waveshape::RisingRamp | Waveshape::FallingRamp => {
                self.arrival + level * self.transition
            }
            Waveshape::RisingExp | Waveshape::FallingExp => {
                self.arrival - self.tau() * (1.0 - level).ln()
            }
        }
    }

    /// Normalized signal value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        let dt = t - self.arrival;
        match self.shape {
            Waveshape::Step => {
                if dt < 0.0 {
                    0.0
                } else {
                    1.0
                }
            }
            Waveshape::RisingRamp => (dt / self.transition).clamp(0.0, 1.0),
            Waveshape::FallingRamp => 1.0 - (dt / self.transition).clamp(0.0, 1.0),
            Waveshape::RisingExp => {
                if dt < 0.0 {
                    0.0
                } else {
                    1.0 - (-dt / self.tau()).exp()
                }
            }
            Waveshape::FallingExp => {
                if dt < 0.0 {
                    1.0
                } else {
                    (-dt / self.tau()).exp()
                }
            }
        }
    }

    /// Signal value before the transition arrives (0 for rising shapes,
    /// 1 for falling).
    pub fn initial_value(&self) -> f64 {
        match self.shape {
            Waveshape::Step | Waveshape::RisingRamp | Waveshape::RisingExp => 0.0,
            Waveshape::FallingRamp | Waveshape::FallingExp => 1.0,
        }
    }

    /// Sign of the noise this input induces on a ground-quiet victim:
    /// `+1` for rising inputs (positive spike), `−1` for falling.
    pub fn noise_polarity(&self) -> f64 {
        match self.shape {
            Waveshape::Step | Waveshape::RisingRamp | Waveshape::RisingExp => 1.0,
            Waveshape::FallingRamp | Waveshape::FallingExp => -1.0,
        }
    }

    /// Taylor coefficients `[g0, g1, g2, g3]` of `s·V_i(s)` (paper eq. 9)
    /// for the **rising-equivalent** transition; combine with
    /// [`InputSignal::noise_polarity`] for falling inputs.
    ///
    /// For a rising ramp (`t0`, `t_r`):
    /// `g = [1, −(t0 + t_r/2), t0²/2 + t0·t_r/2 + t_r²/6,
    ///       −(t0³/6 + t0²·t_r/4 + t0·t_r²/6 + t_r³/24)]`.
    ///
    /// For a rising exponential with time constant `τ`:
    /// `g = [1, −(t0 + τ), t0²/2 + t0·τ + τ²,
    ///       −(t0³/6 + t0²·τ/2 + t0·τ² + τ³)]`.
    pub fn taylor_g(&self) -> [f64; 4] {
        let t0 = self.arrival;
        match self.shape {
            Waveshape::Step => [
                1.0,
                -t0,
                t0 * t0 / 2.0,
                -t0 * t0 * t0 / 6.0,
            ],
            Waveshape::RisingRamp | Waveshape::FallingRamp => {
                let tr = self.transition;
                [
                    1.0,
                    -(t0 + tr / 2.0),
                    t0 * t0 / 2.0 + t0 * tr / 2.0 + tr * tr / 6.0,
                    -(t0 * t0 * t0 / 6.0
                        + t0 * t0 * tr / 4.0
                        + t0 * tr * tr / 6.0
                        + tr * tr * tr / 24.0),
                ]
            }
            Waveshape::RisingExp | Waveshape::FallingExp => {
                let tau = self.tau();
                [
                    1.0,
                    -(t0 + tau),
                    t0 * t0 / 2.0 + t0 * tau + tau * tau,
                    -(t0 * t0 * t0 / 6.0
                        + t0 * t0 * tau / 2.0
                        + t0 * tau * tau
                        + tau * tau * tau),
                ]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_names_parse_to_their_rising_inputs() {
        for (name, shape) in [
            ("ramp", Shape::Ramp),
            ("exp", Shape::Exp),
            ("step", Shape::Step),
        ] {
            assert_eq!(Shape::parse(name), Some(shape));
        }
        assert_eq!(Shape::parse("Ramp"), None);
        assert_eq!(Shape::default(), Shape::Ramp);
        assert_eq!(
            Shape::Ramp.input(1e-11, 5e-11),
            InputSignal::rising_ramp(1e-11, 5e-11)
        );
        assert_eq!(
            Shape::Exp.input(1e-11, 5e-11),
            InputSignal::rising_exp(1e-11, 5e-11)
        );
        assert_eq!(Shape::Step.input(1e-11, 5e-11), InputSignal::step(1e-11));
    }

    #[test]
    fn ramp_values_clamp_at_extremes() {
        let r = InputSignal::rising_ramp(1e-10, 2e-10);
        assert_eq!(r.value(0.0), 0.0);
        assert_eq!(r.value(1e-10), 0.0);
        assert!((r.value(2e-10) - 0.5).abs() < 1e-12);
        assert!((r.value(3e-10) - 1.0).abs() < 1e-12);
        assert_eq!(r.value(1.0), 1.0);
    }

    #[test]
    fn falling_ramp_mirrors_rising() {
        let r = InputSignal::rising_ramp(0.0, 1e-10);
        let f = InputSignal::falling_ramp(0.0, 1e-10);
        for &t in &[0.0, 2.5e-11, 5e-11, 1e-10, 2e-10] {
            assert!((f.value(t) - (1.0 - r.value(t))).abs() < 1e-15);
        }
        assert_eq!(f.initial_value(), 1.0);
        assert_eq!(f.noise_polarity(), -1.0);
        assert_eq!(f.taylor_g(), r.taylor_g());
    }

    #[test]
    fn exp_transition_time_is_ten_to_ninety() {
        let tr = 1e-10;
        let e = InputSignal::rising_exp(0.0, tr);
        // Find 10% and 90% crossings analytically: t = -tau ln(1-v).
        let tau = tr / EXP_TRANSITION_FACTOR;
        let t10 = -tau * (1.0f64 - 0.1).ln();
        let t90 = -tau * (1.0f64 - 0.9).ln();
        assert!((t90 - t10 - tr).abs() < 1e-22);
        assert!((e.value(t10) - 0.1).abs() < 1e-12);
        assert!((e.value(t90) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn step_is_ramp_limit_in_g_moments() {
        let t0 = 3e-11;
        let step = InputSignal::step(t0);
        let tiny_ramp = InputSignal::rising_ramp(t0, 1e-18);
        let gs = step.taylor_g();
        let gr = tiny_ramp.taylor_g();
        for k in 0..4 {
            assert!(
                (gs[k] - gr[k]).abs() <= 1e-6 * gs[k].abs().max(1e-40),
                "g[{k}]: {} vs {}",
                gs[k],
                gr[k]
            );
        }
    }

    #[test]
    fn g_moments_match_numerical_laplace_expansion() {
        // g_k are Taylor coefficients of s·Vi(s) where Vi(s) = ∫ v(t)e^{-st}.
        // Check against numerical quadrature of the defining integrals:
        // s·Vi(s) = s·∫v = ... easier: moments of dv/dt: s·Vi(s) = L[dv/dt](s)
        // (v(0)=0 for rising), so g_k = (-1)^k/k! ∫ t^k v'(t) dt.
        for sig in [
            InputSignal::rising_ramp(2e-11, 7e-11),
            InputSignal::rising_exp(1e-11, 9e-11),
        ] {
            let g = sig.taylor_g();
            // numerical ∫ t^k v'(t) dt via fine sampling of v.
            let t_end = 5e-9;
            let n = 400_000;
            let dt = t_end / n as f64;
            let mut integrals = [0.0f64; 4];
            for i in 0..n {
                let t = (i as f64 + 0.5) * dt;
                let dv = sig.value(t + 0.5 * dt) - sig.value(t - 0.5 * dt);
                for (k, acc) in integrals.iter_mut().enumerate() {
                    *acc += t.powi(k as i32) * dv;
                }
            }
            let mut fact = 1.0;
            for k in 0..4 {
                if k > 0 {
                    fact *= k as f64;
                }
                let expect = (if k % 2 == 0 { 1.0 } else { -1.0 }) / fact * integrals[k];
                assert!(
                    (g[k] - expect).abs() <= 2e-3 * expect.abs().max(1e-45),
                    "{:?} g[{k}] = {}, numeric = {expect}",
                    sig.shape(),
                    g[k]
                );
            }
        }
    }

    #[test]
    fn crossing_time_hits_the_level() {
        for sig in [
            InputSignal::rising_ramp(1e-11, 2e-10),
            InputSignal::falling_ramp(2e-11, 1e-10),
            InputSignal::rising_exp(0.0, 1.5e-10),
            InputSignal::falling_exp(5e-11, 2e-10),
        ] {
            for level in [0.1, 0.5, 0.9] {
                let t = sig.crossing_time(level);
                let v = sig.value(t);
                let expect = if sig.noise_polarity() > 0.0 {
                    level
                } else {
                    1.0 - level
                };
                assert!(
                    (v - expect).abs() < 1e-9,
                    "{:?} at level {level}: value {v}",
                    sig.shape()
                );
            }
        }
        assert_eq!(InputSignal::step(3e-11).crossing_time(0.5), 3e-11);
    }

    #[test]
    #[should_panic(expected = "crossing level must be inside")]
    fn crossing_level_validated() {
        InputSignal::rising_ramp(0.0, 1e-10).crossing_time(1.0);
    }

    #[test]
    #[should_panic(expected = "transition time must be positive")]
    fn zero_transition_ramp_panics() {
        InputSignal::rising_ramp(0.0, 0.0);
    }

    #[test]
    fn with_arrival_shifts_only_arrival() {
        let s = InputSignal::rising_ramp(0.0, 1e-10).with_arrival(5e-11);
        assert_eq!(s.arrival(), 5e-11);
        assert_eq!(s.transition(), 1e-10);
        assert_eq!(s.value(5e-11), 0.0);
    }
}
