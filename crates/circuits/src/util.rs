//! Shared helpers for the circuit testbenches.

use maopt_sim::analysis::tran::TranResult;
use maopt_sim::{MosInstance, MosModel, Node};

/// Settling time of a transient window: the waveform between `t_start` and
/// the record end, measured against its final value with a tolerance band
/// of `tol` × the total excursion. Returns the record span when the
/// waveform never settles (a pessimistic, finite fallback that the FoM can
/// penalize).
pub fn windowed_settling(res: &TranResult, node: Node, t_start: f64, tol: f64) -> f64 {
    let times = res.times();
    let t_end = *times.last().expect("transient stores at least one point");
    let v: Vec<f64> = times
        .iter()
        .enumerate()
        .filter(|(_, &t)| t >= t_start)
        .map(|(k, _)| res.voltage_at(k, node))
        .collect();
    let t: Vec<f64> = times.iter().copied().filter(|&ti| ti >= t_start).collect();
    if t.len() < 2 {
        return t_end;
    }
    maopt_sim::analysis::measure::settling_time(&t, &v, t_start, tol).unwrap_or(t_end - t_start)
}

/// Settling time with an **absolute** tolerance band in volts — the right
/// measure for regulation transients, where the waveform dips and recovers
/// to (nearly) its starting value so a relative-excursion band degenerates.
pub fn windowed_settling_abs(res: &TranResult, node: Node, t_start: f64, band: f64) -> f64 {
    let times = res.times();
    let t_end = *times.last().expect("transient stores at least one point");
    let v_final = res.voltage_at(res.len() - 1, node);
    if !v_final.is_finite() {
        return t_end - t_start;
    }
    let mut settle = t_start;
    for (k, &ti) in times.iter().enumerate().take(res.len()) {
        if ti < t_start {
            continue;
        }
        if (res.voltage_at(k, node) - v_final).abs() > band {
            settle = ti;
        }
    }
    (settle - t_start).max(0.0)
}

/// The `i`-th solve slot of an advisory operating-point seed, if present.
///
/// Testbenches number their Newton solves (slot 0, 1, …) and a reference
/// design's [`maopt_core::OpState`] carries one converged solution vector
/// per slot. A missing seed or missing slot simply yields `None` — the
/// solver then runs its cold continuation ladder.
pub fn slot(seed: Option<&maopt_core::OpState>, i: usize) -> Option<&[f64]> {
    seed.and_then(|s| s.slots.get(i)).map(|v| v.as_slice())
}

/// Builds a [`MosInstance`] from micron geometry.
pub fn mos(model: &MosModel, w_um: f64, l_um: f64, m: f64) -> MosInstance {
    MosInstance {
        model: model.clone(),
        w: um(w_um),
        l: um(l_um),
        m,
    }
}

/// Converts micrometres to metres.
pub fn um(x: f64) -> f64 {
    x * 1e-6
}

/// Converts kilo-ohms to ohms.
pub fn kohm(x: f64) -> f64 {
    x * 1e3
}

/// Converts femtofarads to farads.
pub fn ff(x: f64) -> f64 {
    x * 1e-15
}

#[cfg(test)]
mod tests {
    use super::*;
    use maopt_sim::analysis::tran::TranAnalysis;
    use maopt_sim::{Circuit, Waveform};

    #[test]
    fn unit_helpers() {
        assert_eq!(um(2.0), 2e-6);
        assert_eq!(kohm(10.0), 1e4);
        assert_eq!(ff(100.0), 1e-13);
    }

    #[test]
    fn windowed_settling_of_rc() {
        // RC step starting at t = 0 with tau = 1 µs; 1% settling ≈ 4.6 µs.
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        let v1 = ckt.vsource("V1", vin, Circuit::GROUND, 0.0);
        ckt.set_waveform(
            v1,
            Waveform::pulse(0.0, 1.0, 1e-6, 1e-9, 1e-9, 1.0, f64::INFINITY),
        );
        ckt.resistor("R1", vin, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-9);
        let res = TranAnalysis::new(12e-6, 20e-9).run(&ckt).unwrap();
        let ts = windowed_settling(&res, out, 1e-6, 0.01);
        assert!((ts - 4.6e-6).abs() < 0.4e-6, "settling {ts}");
    }

    #[test]
    fn unsettled_waveform_returns_window_span() {
        // A slow ramp (PWL) never settles inside the record.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v1 = ckt.vsource("V1", a, Circuit::GROUND, 0.0);
        ckt.set_waveform(v1, Waveform::pwl(vec![(0.0, 0.0), (1.0, 1.0)]));
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        let res = TranAnalysis::new(1e-3, 1e-5).run(&ckt).unwrap();
        let ts = windowed_settling(&res, a, 0.0, 0.001);
        assert!((ts - 1e-3).abs() < 1e-4, "span fallback {ts}");
    }
}
