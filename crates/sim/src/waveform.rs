/// A uniformly sampled waveform `v(t0 + k·dt)`.
///
/// Produced by the transient simulator; consumed by the measurement
/// routines and the evaluation harness. Linear interpolation is used
/// between samples.
///
/// # Examples
///
/// ```
/// use xtalk_sim::Waveform;
///
/// let w = Waveform::new(0.0, 0.5, vec![0.0, 1.0, 0.0]);
/// assert_eq!(w.value_at(0.25), 0.5);
/// assert_eq!(w.max(), (0.5, 1.0));
/// assert_eq!(w.duration(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    t0: f64,
    dt: f64,
    samples: Vec<f64>,
}

impl Waveform {
    /// Creates a waveform from its start time, step and samples.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive or `samples` is empty.
    pub fn new(t0: f64, dt: f64, samples: Vec<f64>) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive and finite");
        assert!(!samples.is_empty(), "waveform needs at least one sample");
        Waveform { t0, dt, samples }
    }

    /// Start time of the first sample.
    pub fn t_start(&self) -> f64 {
        self.t0
    }

    /// Sample period.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Sample values.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The sample values, by value.
    pub(crate) fn into_samples(self) -> Vec<f64> {
        self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `false` always (construction requires at least one sample); present
    /// for the conventional `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Time of sample `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of bounds.
    pub fn time(&self, k: usize) -> f64 {
        assert!(k < self.samples.len(), "sample index out of bounds");
        self.t0 + self.dt * k as f64
    }

    /// Time of the last sample.
    pub fn t_end(&self) -> f64 {
        self.time(self.samples.len() - 1)
    }

    /// Length of the sampled window.
    pub fn duration(&self) -> f64 {
        self.t_end() - self.t0
    }

    /// Linearly interpolated value at `t`, clamped to the end samples
    /// outside the window.
    pub fn value_at(&self, t: f64) -> f64 {
        let x = (t - self.t0) / self.dt;
        if x <= 0.0 {
            return self.samples[0];
        }
        let last = self.samples.len() - 1;
        if x >= last as f64 {
            return self.samples[last];
        }
        let k = x.floor() as usize;
        let frac = x - k as f64;
        self.samples[k] * (1.0 - frac) + self.samples[k + 1] * frac
    }

    /// `(time, value)` of the maximum sample, with parabolic refinement of
    /// the peak position when an interior maximum has usable neighbours.
    pub fn max(&self) -> (f64, f64) {
        self.signed_max(1.0)
    }

    /// [`Waveform::max`] of the waveform scaled by `sign` (`±1`), read off
    /// the borrowed samples: IEEE negation is exact, so every result is
    /// bit-equal to measuring [`Waveform::scaled`]`(sign)`.
    pub(crate) fn signed_max(&self, sign: f64) -> (f64, f64) {
        let at = |k: usize| self.samples[k] * sign;
        let (mut k_best, mut v_best) = (0usize, f64::NEG_INFINITY);
        for (k, &v) in self.samples.iter().enumerate() {
            let v = v * sign;
            if v > v_best {
                v_best = v;
                k_best = k;
            }
        }
        if k_best == 0 || k_best + 1 >= self.samples.len() {
            return (self.time(k_best), v_best);
        }
        // Parabola through the three samples around the discrete peak.
        let (ym, y0, yp) = (at(k_best - 1), at(k_best), at(k_best + 1));
        let denom = ym - 2.0 * y0 + yp;
        if denom.abs() < 1e-300 {
            return (self.time(k_best), v_best);
        }
        let delta = 0.5 * (ym - yp) / denom;
        let delta = delta.clamp(-0.5, 0.5);
        let t = self.time(k_best) + delta * self.dt;
        let v = y0 - 0.25 * (ym - yp) * delta;
        (t, v)
    }

    /// Renders the waveform as two-column CSV (`time,value`, full float
    /// precision) for external plotting tools.
    ///
    /// # Examples
    ///
    /// ```
    /// use xtalk_sim::Waveform;
    /// let w = Waveform::new(0.0, 1.0, vec![0.0, 0.5]);
    /// let csv = w.to_csv();
    /// assert!(csv.starts_with("time,value\n0,0\n"));
    /// ```
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.samples.len() * 24 + 16);
        out.push_str("time,value\n");
        for (k, v) in self.samples.iter().enumerate() {
            let _ = writeln!(out, "{},{}", self.time(k), v);
        }
        out
    }

    /// Scales all samples by `factor` (e.g. polarity normalization).
    pub fn scaled(&self, factor: f64) -> Waveform {
        Waveform {
            t0: self.t0,
            dt: self.dt,
            samples: self.samples.iter().map(|v| v * factor).collect(),
        }
    }

    /// Trapezoidal integral of the waveform over its window.
    pub fn integral(&self) -> f64 {
        self.signed_integral(1.0)
    }

    /// [`Waveform::integral`] of the waveform scaled by `sign` (`±1`);
    /// see [`Waveform::signed_max`].
    pub(crate) fn signed_integral(&self, sign: f64) -> f64 {
        let mut acc = 0.0;
        for w in self.samples.windows(2) {
            acc += 0.5 * (w[0] * sign + w[1] * sign) * self.dt;
        }
        acc
    }

    /// First time, scanning left→right from `from`, at which the waveform
    /// crosses `level` in the given direction; linear interpolation between
    /// samples. Returns `None` if no crossing exists.
    pub fn crossing_after(&self, from: f64, level: f64, rising: bool) -> Option<f64> {
        self.signed_crossing_after(from, level, rising, 1.0)
    }

    /// [`Waveform::crossing_after`] on the waveform scaled by `sign`
    /// (`±1`); see [`Waveform::signed_max`].
    pub(crate) fn signed_crossing_after(
        &self,
        from: f64,
        level: f64,
        rising: bool,
        sign: f64,
    ) -> Option<f64> {
        let start = (((from - self.t0) / self.dt).ceil().max(0.0)) as usize;
        for k in start.max(1)..self.samples.len() {
            let (a, b) = (self.samples[k - 1] * sign, self.samples[k] * sign);
            let hit = if rising {
                a < level && b >= level
            } else {
                a > level && b <= level
            };
            if hit {
                return Some(self.time(k - 1) + interpolate(a, b, level) * self.dt);
            }
        }
        None
    }

    /// Last time before `until` at which the waveform crosses `level`
    /// rising (scanning right→left). Returns `None` if no crossing exists.
    pub fn last_rising_crossing_before(&self, until: f64, level: f64) -> Option<f64> {
        self.signed_last_rising_before(until, level, 1.0)
    }

    /// [`Waveform::last_rising_crossing_before`] on the waveform scaled by
    /// `sign` (`±1`); see [`Waveform::signed_max`].
    pub(crate) fn signed_last_rising_before(
        &self,
        until: f64,
        level: f64,
        sign: f64,
    ) -> Option<f64> {
        let end = (((until - self.t0) / self.dt).floor() as isize)
            .clamp(0, self.samples.len() as isize - 1) as usize;
        for k in (1..=end).rev() {
            let (a, b) = (self.samples[k - 1] * sign, self.samples[k] * sign);
            if a < level && b >= level {
                return Some(self.time(k - 1) + interpolate(a, b, level) * self.dt);
            }
        }
        None
    }
}

/// Fraction of the way from `a` to `b` at which `level` lies (0 on a
/// flat segment).
fn interpolate(a: f64, b: f64, level: f64) -> f64 {
    if (b - a).abs() < 1e-300 {
        0.0
    } else {
        (level - a) / (b - a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Waveform {
        // 0, .25, .5, .75, 1, .75, .5, .25, 0 at dt = 1
        let up = (0..=4).map(|k| k as f64 / 4.0);
        let down = (0..4).rev().map(|k| k as f64 / 4.0);
        Waveform::new(0.0, 1.0, up.chain(down).collect())
    }

    #[test]
    fn interpolation_is_linear() {
        let w = triangle();
        assert_eq!(w.value_at(0.5), 0.125);
        assert_eq!(w.value_at(4.0), 1.0);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(100.0), 0.0);
    }

    #[test]
    fn max_finds_peak_with_refinement() {
        let (t, v) = triangle().max();
        assert!((t - 4.0).abs() < 1e-12);
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parabolic_refinement_recovers_offgrid_peak() {
        // Sample a parabola peaking at t = 2.3 and check the refinement.
        let peak_t = 2.3;
        let samples: Vec<f64> = (0..8).map(|k| 1.0 - (k as f64 - peak_t).powi(2) * 0.1).collect();
        let (t, v) = Waveform::new(0.0, 1.0, samples).max();
        assert!((t - peak_t).abs() < 1e-9, "t = {t}");
        assert!((v - 1.0).abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn integral_of_triangle_is_half_base_times_height() {
        assert!((triangle().integral() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn crossings_found_in_both_directions() {
        let w = triangle();
        let up = w.crossing_after(0.0, 0.5, true).unwrap();
        assert!((up - 2.0).abs() < 1e-12);
        let down = w.crossing_after(4.0, 0.5, false).unwrap();
        assert!((down - 6.0).abs() < 1e-12);
        let back = w.last_rising_crossing_before(4.0, 0.5).unwrap();
        assert!((back - 2.0).abs() < 1e-12);
        assert!(w.crossing_after(0.0, 2.0, true).is_none());
    }

    #[test]
    fn crossing_interpolates_between_samples() {
        let w = triangle();
        let t = w.crossing_after(0.0, 0.375, true).unwrap();
        assert!((t - 1.5).abs() < 1e-12);
    }

    #[test]
    fn csv_round_trips_numerically() {
        let w = triangle();
        let csv = w.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time,value"));
        for (k, line) in lines.enumerate() {
            let (t, v) = line.split_once(',').expect("two columns");
            assert_eq!(t.parse::<f64>().unwrap(), w.time(k));
            assert_eq!(v.parse::<f64>().unwrap(), w.samples()[k]);
        }
    }

    #[test]
    fn scaled_negates() {
        let w = triangle().scaled(-2.0);
        assert_eq!(w.max().1, 0.0); // peak of negated triangle is the flat ends
        assert_eq!(w.value_at(4.0), -2.0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        Waveform::new(0.0, 0.0, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        Waveform::new(0.0, 1.0, vec![]);
    }
}
