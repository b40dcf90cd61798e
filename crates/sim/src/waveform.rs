/// Time-dependent value of an independent source during transient analysis.
///
/// DC and AC analyses use the source's dedicated `dc` / `ac_mag` fields;
/// the waveform only drives [`crate::analysis::tran`].
///
/// # Example
///
/// ```
/// use maopt_sim::Waveform;
///
/// let pulse = Waveform::pulse(0.0, 1.0, 1e-6, 1e-9, 1e-9, 5e-6, 10e-6);
/// assert_eq!(pulse.value(0.0), 0.0);
/// assert_eq!(pulse.value(2e-6), 1.0);   // inside the pulse
/// assert_eq!(pulse.value(8e-6), 0.0);   // after pulse width + fall
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// SPICE-style PULSE source.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge, seconds.
        delay: f64,
        /// Rise time, seconds.
        rise: f64,
        /// Fall time, seconds.
        fall: f64,
        /// Pulse width at `v2`, seconds.
        width: f64,
        /// Period; `f64::INFINITY` for a single pulse.
        period: f64,
    },
    /// Piece-wise linear: sorted `(time, value)` breakpoints. Values before
    /// the first point and after the last are held constant.
    Pwl(Vec<(f64, f64)>),
    /// Sinusoid `offset + amplitude·sin(2πf·(t − delay))`, zero before `delay`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in hertz.
        freq: f64,
        /// Start delay in seconds.
        delay: f64,
    },
}

impl Waveform {
    /// Convenience constructor for [`Waveform::Pulse`].
    pub fn pulse(
        v1: f64,
        v2: f64,
        delay: f64,
        rise: f64,
        fall: f64,
        width: f64,
        period: f64,
    ) -> Self {
        Waveform::Pulse {
            v1,
            v2,
            delay,
            rise,
            fall,
            width,
            period,
        }
    }

    /// Builds a PWL waveform, sorting the breakpoints by time.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn pwl(mut points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "PWL waveform needs at least one point");
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("PWL time must not be NaN"));
        Waveform::Pwl(points)
    }

    /// Value at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let mut tau = t - delay;
                if period.is_finite() && *period > 0.0 {
                    tau %= period;
                }
                // Guard against zero rise/fall by treating them as 1 ps.
                let rise = rise.max(1e-12);
                let fall = fall.max(1e-12);
                if tau < rise {
                    v1 + (v2 - v1) * tau / rise
                } else if tau < rise + width {
                    *v2
                } else if tau < rise + width + fall {
                    v2 + (v1 - v2) * (tau - rise - width) / fall
                } else {
                    *v1
                }
            }
            Waveform::Pwl(points) => {
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                // Find the surrounding segment.
                let idx = points.partition_point(|&(pt, _)| pt <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
            Waveform::Sine {
                offset,
                amplitude,
                freq,
                delay,
            } => {
                if t < *delay {
                    *offset
                } else {
                    offset + amplitude * (2.0 * std::f64::consts::PI * freq * (t - delay)).sin()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(3.3);
        assert_eq!(w.value(0.0), 3.3);
        assert_eq!(w.value(1.0), 3.3);
    }

    #[test]
    fn pulse_edges() {
        let w = Waveform::pulse(0.0, 2.0, 1.0, 0.5, 0.5, 2.0, f64::INFINITY);
        assert_eq!(w.value(0.5), 0.0); // before delay
        assert_eq!(w.value(1.25), 1.0); // mid-rise
        assert_eq!(w.value(2.0), 2.0); // plateau
        assert_eq!(w.value(3.75), 1.0); // mid-fall
        assert_eq!(w.value(5.0), 0.0); // after
    }

    #[test]
    fn pulse_periodic_repeats() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 0.1, 0.1, 0.3, 1.0);
        assert_eq!(w.value(0.2), 1.0);
        assert_eq!(w.value(1.2), 1.0); // next period
        assert_eq!(w.value(0.7), 0.0);
        assert_eq!(w.value(1.7), 0.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl(vec![(1.0, 0.0), (2.0, 10.0)]);
        assert_eq!(w.value(0.0), 0.0); // clamp left
        assert_eq!(w.value(1.5), 5.0); // interior
        assert_eq!(w.value(3.0), 10.0); // clamp right
    }

    #[test]
    fn pwl_sorts_points() {
        let w = Waveform::pwl(vec![(2.0, 10.0), (1.0, 0.0)]);
        assert_eq!(w.value(1.5), 5.0);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_pwl_panics() {
        let _ = Waveform::pwl(vec![]);
    }

    #[test]
    fn sine_starts_after_delay() {
        let w = Waveform::Sine {
            offset: 1.0,
            amplitude: 0.5,
            freq: 1.0,
            delay: 1.0,
        };
        assert_eq!(w.value(0.5), 1.0);
        assert!((w.value(1.25) - 1.5).abs() < 1e-12); // quarter period
    }
}
