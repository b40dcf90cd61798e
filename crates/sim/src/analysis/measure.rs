//! Measurement helpers: Bode quantities from AC sweeps and settling/step
//! metrics from transient waveforms.

use maopt_linalg::Complex;

/// Converts a magnitude to decibels (`20·log10`).
pub fn db20(x: f64) -> f64 {
    20.0 * x.log10()
}

/// A single-input/single-output transfer function sampled on a frequency
/// grid, with phase unwrapping — the raw material for gain/phase-margin
/// measurements.
///
/// # Example
///
/// ```
/// use maopt_sim::analysis::measure::Bode;
/// use maopt_linalg::Complex;
///
/// // Ideal single-pole response: H = 1 / (1 + j f/f_p), f_p = 1 kHz.
/// let freqs: Vec<f64> = (0..60).map(|i| 10f64.powf(i as f64 / 10.0)).collect();
/// let h: Vec<Complex> = freqs
///     .iter()
///     .map(|&f| Complex::ONE / Complex::new(1.0, f / 1e3))
///     .collect();
/// let bode = Bode::new(freqs, h);
/// assert!((bode.dc_gain_db() - 0.0).abs() < 0.01);
/// let f3 = bode.bw_3db().unwrap();
/// assert!((f3 / 1e3 - 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Bode {
    freqs: Vec<f64>,
    mag_db: Vec<f64>,
    phase_deg: Vec<f64>, // unwrapped
}

impl Bode {
    /// Builds a Bode record from a sampled transfer function.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are empty or of different lengths.
    pub fn new(freqs: Vec<f64>, h: Vec<Complex>) -> Self {
        assert_eq!(freqs.len(), h.len(), "freqs and samples must align");
        assert!(!freqs.is_empty(), "Bode needs at least one point");
        let mag_db: Vec<f64> = h.iter().map(|c| db20(c.abs().max(1e-300))).collect();
        // Unwrap phase so it is continuous across the ±180° seam.
        let mut phase_deg = Vec::with_capacity(h.len());
        let mut offset = 0.0;
        let mut prev = h[0].arg_deg();
        phase_deg.push(prev);
        for c in h.iter().skip(1) {
            let mut p = c.arg_deg();
            while p + offset - prev > 180.0 {
                offset -= 360.0;
            }
            while p + offset - prev < -180.0 {
                offset += 360.0;
            }
            p += offset;
            phase_deg.push(p);
            prev = p;
        }
        Bode {
            freqs,
            mag_db,
            phase_deg,
        }
    }

    /// The frequency grid.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Magnitude in dB, aligned with [`Bode::freqs`].
    pub fn mag_db(&self) -> &[f64] {
        &self.mag_db
    }

    /// Unwrapped phase in degrees, aligned with [`Bode::freqs`].
    pub fn phase_deg(&self) -> &[f64] {
        &self.phase_deg
    }

    /// Gain at the lowest sampled frequency, dB.
    pub fn dc_gain_db(&self) -> f64 {
        self.mag_db[0]
    }

    /// Magnitude at an arbitrary frequency (log-x linear interpolation).
    pub fn mag_db_at(&self, f: f64) -> f64 {
        interp_logx(&self.freqs, &self.mag_db, f)
    }

    /// Phase at an arbitrary frequency (log-x linear interpolation).
    pub fn phase_deg_at(&self, f: f64) -> f64 {
        interp_logx(&self.freqs, &self.phase_deg, f)
    }

    /// Unity-gain (0 dB) crossover frequency, if the magnitude crosses 0 dB
    /// inside the sweep.
    pub fn unity_gain_freq(&self) -> Option<f64> {
        crossing_logx(&self.freqs, &self.mag_db, 0.0)
    }

    /// −3 dB bandwidth relative to the DC gain.
    pub fn bw_3db(&self) -> Option<f64> {
        let target = self.dc_gain_db() - 3.0103;
        crossing_logx(&self.freqs, &self.mag_db, target)
    }

    /// Phase margin: `180° + phase` at the unity-gain frequency.
    ///
    /// Returns `None` when the gain never crosses 0 dB inside the sweep.
    pub fn phase_margin_deg(&self) -> Option<f64> {
        let ugf = self.unity_gain_freq()?;
        Some(180.0 + self.phase_deg_at(ugf))
    }
}

/// Linear interpolation of `y` over `log10(x)`.
fn interp_logx(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    if x <= xs[0] {
        return ys[0];
    }
    let last = xs.len() - 1;
    if x >= xs[last] {
        return ys[last];
    }
    let idx = xs.partition_point(|&v| v <= x);
    let (x0, x1) = (xs[idx - 1].log10(), xs[idx].log10());
    let t = (x.log10() - x0) / (x1 - x0);
    ys[idx - 1] * (1.0 - t) + ys[idx] * t
}

/// First downward-or-upward crossing of `ys` through `target`, interpolated
/// on a log-x axis.
fn crossing_logx(xs: &[f64], ys: &[f64], target: f64) -> Option<f64> {
    for i in 1..ys.len() {
        let (y0, y1) = (ys[i - 1], ys[i]);
        if (y0 - target) * (y1 - target) <= 0.0 && y0 != y1 {
            let t = (target - y0) / (y1 - y0);
            let lx = xs[i - 1].log10() * (1.0 - t) + xs[i].log10() * t;
            return Some(10f64.powf(lx));
        }
    }
    None
}

/// Final value of a transient waveform (its last sample).
///
/// # Panics
///
/// Panics on an empty waveform.
pub fn final_value(v: &[f64]) -> f64 {
    *v.last().expect("waveform must not be empty")
}

/// Settling time: the time after which the waveform stays within
/// `± tol·|v_final − v_initial|` of its final value. The step is assumed to
/// start at `t_start`.
///
/// Returns `None` if the waveform never settles within the record.
///
/// # Panics
///
/// Panics if `t` and `v` differ in length or are empty.
pub fn settling_time(t: &[f64], v: &[f64], t_start: f64, tol: f64) -> Option<f64> {
    assert_eq!(t.len(), v.len(), "time and value series must align");
    assert!(!t.is_empty(), "waveform must not be empty");
    let v_final = final_value(v);
    let v_initial = v[0];
    let band = tol * (v_final - v_initial).abs();
    if band == 0.0 {
        return Some(0.0);
    }
    // Find the last excursion outside the band.
    let mut settle = t_start;
    for (&ti, &vi) in t.iter().zip(v) {
        if ti < t_start {
            continue;
        }
        if (vi - v_final).abs() > band {
            settle = ti;
        }
    }
    if (final_value(v) - v_final).abs() <= band {
        Some((settle - t_start).max(0.0))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_pole(f_pole: f64, gain: f64) -> Bode {
        let freqs: Vec<f64> = (0..=80).map(|i| 10f64.powf(i as f64 / 10.0)).collect();
        let h: Vec<Complex> = freqs
            .iter()
            .map(|&f| Complex::from_real(gain) / Complex::new(1.0, f / f_pole))
            .collect();
        Bode::new(freqs, h)
    }

    #[test]
    fn dc_gain_and_bandwidth() {
        let b = single_pole(1e3, 100.0);
        assert!((b.dc_gain_db() - 40.0).abs() < 0.01);
        let f3 = b.bw_3db().unwrap();
        assert!((f3 / 1e3 - 1.0).abs() < 0.05, "f3dB {f3}");
    }

    #[test]
    fn unity_gain_frequency_of_single_pole() {
        // |H| = 1 at f ≈ gain · f_pole for a single pole.
        let b = single_pole(1e3, 100.0);
        let ugf = b.unity_gain_freq().unwrap();
        assert!((ugf / 1e5 - 1.0).abs() < 0.05, "ugf {ugf}");
    }

    #[test]
    fn phase_margin_of_single_pole_is_about_90() {
        let b = single_pole(1e3, 100.0);
        let pm = b.phase_margin_deg().unwrap();
        assert!((pm - 90.0).abs() < 2.0, "pm {pm}");
    }

    #[test]
    fn two_pole_phase_margin_is_lower() {
        let freqs: Vec<f64> = (0..=80).map(|i| 10f64.powf(i as f64 / 10.0)).collect();
        let h: Vec<Complex> = freqs
            .iter()
            .map(|&f| {
                Complex::from_real(1000.0)
                    / (Complex::new(1.0, f / 1e2) * Complex::new(1.0, f / 1e4))
            })
            .collect();
        let b = Bode::new(freqs, h);
        let pm = b.phase_margin_deg().unwrap();
        assert!(pm < 60.0 && pm > 0.0, "pm {pm}");
    }

    #[test]
    fn phase_unwrapping_is_continuous() {
        // Three cascaded poles push phase past −180° — unwrapped phase must
        // fall monotonically with no +360 jumps.
        let freqs: Vec<f64> = (0..=80).map(|i| 10f64.powf(i as f64 / 10.0)).collect();
        let h: Vec<Complex> = freqs
            .iter()
            .map(|&f| {
                let p = Complex::new(1.0, f / 1e3);
                Complex::from_real(1e4) / (p * p * p)
            })
            .collect();
        let b = Bode::new(freqs, h);
        for w in b.phase_deg().windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "phase must not jump up: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert!(*b.phase_deg().last().unwrap() < -200.0);
    }

    #[test]
    fn no_unity_crossing_returns_none() {
        let b = single_pole(1e9, 0.5); // always below 0 dB
        assert!(b.unity_gain_freq().is_none());
        assert!(b.phase_margin_deg().is_none());
    }

    #[test]
    fn settling_time_of_exponential() {
        // v(t) = 1 − e^{−t}: settles to 1% at t = ln(100) ≈ 4.605.
        let t: Vec<f64> = (0..=1000).map(|i| i as f64 * 0.01).collect();
        let v: Vec<f64> = t.iter().map(|&ti| 1.0 - (-ti).exp()).collect();
        let ts = settling_time(&t, &v, 0.0, 0.01).unwrap();
        assert!((ts - 4.605).abs() < 0.05, "settling {ts}");
    }

    #[test]
    fn settling_time_respects_start_offset() {
        let t: Vec<f64> = (0..=1000).map(|i| i as f64 * 0.01).collect();
        let v: Vec<f64> = t
            .iter()
            .map(|&ti| {
                if ti < 2.0 {
                    0.0
                } else {
                    1.0 - (-(ti - 2.0)).exp()
                }
            })
            .collect();
        let ts = settling_time(&t, &v, 2.0, 0.01).unwrap();
        assert!((ts - 4.605).abs() < 0.1, "settling {ts}");
    }

    #[test]
    fn db20_of_ten_is_twenty() {
        assert!((db20(10.0) - 20.0).abs() < 1e-12);
        assert!((db20(1.0)).abs() < 1e-12);
    }
}
