//! Transient analysis: trapezoidal (or backward-Euler) integration with a
//! full Newton solve per timestep and automatic step halving on
//! non-convergence.

use crate::analysis::dc::{DcAnalysis, DcOp};
use crate::circuit::{Circuit, Node};
use crate::mna::{
    assemble_resistive, cap_list, ind_list, stamp_reactive, CapSpec, IndSpec, Layout, Stamp,
};
use crate::probe::Probe;
use crate::solver::{solve_newton_system, SolverKind, SolverWs, StampSeq};
use crate::SimError;

/// Integration method for the capacitor companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Trapezoidal rule — second order, the default.
    #[default]
    Trapezoidal,
    /// Backward Euler — first order, more damped; useful for oscillatory
    /// artifacts.
    BackwardEuler,
}

/// Transient analysis configuration.
#[derive(Debug, Clone)]
pub struct TranAnalysis {
    /// Simulation stop time, seconds.
    pub t_stop: f64,
    /// Nominal (maximum) timestep, seconds.
    pub dt: f64,
    /// Integration method.
    pub method: Integrator,
    /// Newton iteration budget per timestep.
    pub max_newton: usize,
    /// Maximum number of consecutive step halvings before giving up.
    pub max_halvings: usize,
    /// Linear-solver backend for the per-timestep Newton systems.
    pub solver: SolverKind,
}

/// Reusable per-run buffers shared by every Newton iteration of every
/// timestep (mirrors the DC scratch — see `DcScratch`).
struct TranScratch {
    f: Vec<f64>,
    neg_f: Vec<f64>,
    delta: Vec<f64>,
    solver: SolverWs,
}

impl TranAnalysis {
    /// Creates a transient run to `t_stop` with nominal step `dt`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt ≤ t_stop`.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        assert!(dt > 0.0 && dt <= t_stop, "need 0 < dt <= t_stop");
        TranAnalysis {
            t_stop,
            dt,
            method: Integrator::Trapezoidal,
            max_newton: 60,
            max_halvings: 14,
            solver: SolverKind::Sparse,
        }
    }

    /// Selects the integration method.
    pub fn with_method(mut self, method: Integrator) -> Self {
        self.method = method;
        self
    }

    /// Selects the linear-solver backend.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Runs the transient simulation.
    ///
    /// The initial condition is the DC operating point with transient
    /// sources evaluated at `t = 0`.
    ///
    /// # Errors
    ///
    /// Propagates DC failures; returns [`SimError::NoConvergence`] when a
    /// timestep cannot be completed even at the minimum step size.
    pub fn run(&self, ckt: &Circuit) -> Result<TranResult, SimError> {
        let op0 = DcAnalysis::new().run_at_time(ckt, Some(0.0), None)?;
        self.run_from(ckt, &op0)
    }

    /// Runs the transient simulation from a caller-provided initial
    /// operating point (e.g. a bias point computed with different source
    /// values).
    ///
    /// # Errors
    ///
    /// Same as [`TranAnalysis::run`].
    pub fn run_from(&self, ckt: &Circuit, op0: &DcOp) -> Result<TranResult, SimError> {
        ckt.validate()?;
        let layout = Layout::new(ckt);
        let caps = cap_list(ckt);
        let inds = ind_list(ckt, &layout);
        let n = layout.n_unknowns;

        let mut x = op0.unknowns().to_vec();
        if x.len() != n {
            return Err(SimError::BadRequest {
                reason: "initial operating point does not match circuit".into(),
            });
        }

        // Capacitor state: voltage across and current through at t_prev.
        // At a DC operating point every capacitor current is zero.
        let mut cap_v: Vec<f64> = caps.iter().map(|c| vdiff(&x, c)).collect();
        let mut cap_i: Vec<f64> = vec![0.0; caps.len()];
        // Inductor state: branch current and voltage across at t_prev
        // (zero volts at a DC operating point — inductors are shorts).
        let mut ind_i: Vec<f64> = inds.iter().map(|l| x[l.branch]).collect();
        let mut ind_v: Vec<f64> = vec![0.0; inds.len()];

        let mut times = vec![0.0];
        let mut sols = vec![x.clone()];

        let mut t = 0.0;
        let mut h = self.dt;
        let h_min = self.dt / 2f64.powi(self.max_halvings as i32);

        let probe = Probe::current();
        let mut ws = TranScratch {
            f: vec![0.0; n],
            neg_f: Vec::with_capacity(n),
            delta: Vec::with_capacity(n),
            solver: SolverWs::new(self.solver, StampSeq::Transient, ckt, &layout),
        };

        while t < self.t_stop - 1e-18 {
            let h_eff = h.min(self.t_stop - t);
            let t_next = t + h_eff;

            // Predictor: linear extrapolation of the Newton start from
            // the previous two accepted solutions. Recomputed on every
            // attempt because `h_eff` changes when a step is halved. The
            // corrector (the Newton solve below) still converges to the
            // same tolerance, so this only trades iterations, never
            // accuracy. The first step starts from the previous solution.
            let k = sols.len();
            let x_start: Vec<f64> = if k >= 2 && times[k - 1] > times[k - 2] {
                let r = h_eff / (times[k - 1] - times[k - 2]);
                sols[k - 1]
                    .iter()
                    .zip(&sols[k - 2])
                    .map(|(a, b)| a + r * (a - b))
                    .collect()
            } else {
                x.clone()
            };

            match self.newton_step(
                ckt, &layout, &caps, &inds, &mut ws, &probe, &x_start, &cap_v, &cap_i, &ind_i,
                &ind_v, t_next, h_eff,
            ) {
                Ok(x_next) => {
                    // Update capacitor companion state.
                    for (k, c) in caps.iter().enumerate() {
                        let v_new = vdiff(&x_next, c);
                        let i_new = match self.method {
                            Integrator::Trapezoidal => {
                                2.0 * c.farads / h_eff * (v_new - cap_v[k]) - cap_i[k]
                            }
                            Integrator::BackwardEuler => c.farads / h_eff * (v_new - cap_v[k]),
                        };
                        cap_v[k] = v_new;
                        cap_i[k] = i_new;
                    }
                    // Update inductor companion state (dual of the capacitor).
                    for (k, l) in inds.iter().enumerate() {
                        let i_new = x_next[l.branch];
                        let v_new = match self.method {
                            Integrator::Trapezoidal => {
                                2.0 * l.henries / h_eff * (i_new - ind_i[k]) - ind_v[k]
                            }
                            Integrator::BackwardEuler => l.henries / h_eff * (i_new - ind_i[k]),
                        };
                        ind_i[k] = i_new;
                        ind_v[k] = v_new;
                    }
                    x = x_next;
                    t = t_next;
                    times.push(t);
                    sols.push(x.clone());
                    // Gentle step growth back toward the nominal dt.
                    h = (h * 1.5).min(self.dt);
                }
                Err(_) if h_eff > h_min => {
                    h = h_eff / 2.0;
                }
                Err(_) => {
                    return Err(SimError::NoConvergence {
                        analysis: format!("tran @ t={t_next:.3e}"),
                        iterations: self.max_newton,
                    });
                }
            }
        }

        Ok(TranResult { times, sols })
    }

    /// One Newton solve for the state at `t_next`, started from
    /// `x_start` (the previous solution, or the predictor's
    /// extrapolation). The companion-model state is carried separately in
    /// `cap_*`/`ind_*`, so the start vector is purely an initial guess.
    #[allow(clippy::too_many_arguments)]
    fn newton_step(
        &self,
        ckt: &Circuit,
        layout: &Layout,
        caps: &[CapSpec],
        inds: &[IndSpec],
        ws: &mut TranScratch,
        probe: &Probe,
        x_start: &[f64],
        cap_v: &[f64],
        cap_i: &[f64],
        ind_i: &[f64],
        ind_v: &[f64],
        t_next: f64,
        h: f64,
    ) -> Result<Vec<f64>, SimError> {
        let mut x = x_start.to_vec();
        for _ in 0..self.max_newton {
            let TranScratch {
                f,
                neg_f,
                delta,
                solver,
            } = ws;
            let mut assemble = |f: &mut [f64], jac: &mut dyn Stamp| {
                assemble_resistive(ckt, layout, &x, 1e-12, 1.0, Some(t_next), f, jac);
                stamp_reactive(
                    caps,
                    inds,
                    self.method,
                    h,
                    &x,
                    cap_v,
                    cap_i,
                    ind_i,
                    ind_v,
                    f,
                    jac,
                );
            };
            solve_newton_system(solver, "tran", probe, f, neg_f, delta, &mut assemble)?;
            let max_step = delta.iter().fold(0.0_f64, |m, d| m.max(d.abs()));
            if !max_step.is_finite() {
                return Err(SimError::NoConvergence {
                    analysis: "tran".into(),
                    iterations: self.max_newton,
                });
            }
            let limit = 0.6;
            let alpha = if max_step > limit {
                limit / max_step
            } else {
                1.0
            };
            for (xi, di) in x.iter_mut().zip(delta.iter()) {
                *xi += alpha * di;
            }
            if alpha == 1.0 && max_step < 1e-9 {
                return Ok(x);
            }
        }
        Err(SimError::NoConvergence {
            analysis: "tran".into(),
            iterations: self.max_newton,
        })
    }
}

fn vdiff(x: &[f64], c: &CapSpec) -> f64 {
    let va = c.a.unknown().map_or(0.0, |i| x[i]);
    let vb = c.b.unknown().map_or(0.0, |i| x[i]);
    va - vb
}

/// Stored transient waveforms: one solution vector per accepted timestep.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    sols: Vec<Vec<f64>>,
}

impl TranResult {
    /// Accepted time points, seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no points were stored (cannot happen for a successful run).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage of `node` at stored point `k`.
    pub fn voltage_at(&self, k: usize, node: Node) -> f64 {
        match node.unknown() {
            Some(i) => self.sols[k][i],
            None => 0.0,
        }
    }

    /// The full voltage series of one node.
    pub fn voltage(&self, node: Node) -> Vec<f64> {
        (0..self.len()).map(|k| self.voltage_at(k, node)).collect()
    }

    /// Linearly interpolated voltage at an arbitrary time.
    ///
    /// Clamps to the first/last stored values outside the simulated span.
    pub fn voltage_at_time(&self, t: f64, node: Node) -> f64 {
        if t <= self.times[0] {
            return self.voltage_at(0, node);
        }
        let last = self.len() - 1;
        if t >= self.times[last] {
            return self.voltage_at(last, node);
        }
        let idx = self.times.partition_point(|&tt| tt <= t);
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let (v0, v1) = (self.voltage_at(idx - 1, node), self.voltage_at(idx, node));
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, Waveform};

    /// RC charging: v(t) = V·(1 − e^{−t/RC}).
    #[test]
    fn rc_step_response_matches_analytic() {
        let r = 1e3;
        let c = 1e-9;
        let tau = r * c;
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        let v1 = ckt.vsource("V1", vin, Circuit::GROUND, 0.0);
        ckt.set_waveform(
            v1,
            Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, f64::INFINITY),
        );
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor("C1", out, Circuit::GROUND, c);
        let res = TranAnalysis::new(5.0 * tau, tau / 200.0).run(&ckt).unwrap();
        for &t_probe in &[0.5 * tau, tau, 2.0 * tau, 4.0 * tau] {
            let expected = 1.0 - (-t_probe / tau).exp();
            let got = res.voltage_at_time(t_probe, out);
            assert!(
                (got - expected).abs() < 5e-3,
                "v({t_probe}) = {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn backward_euler_also_tracks_rc() {
        let tau = 1e-6;
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        let v1 = ckt.vsource("V1", vin, Circuit::GROUND, 0.0);
        ckt.set_waveform(
            v1,
            Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, f64::INFINITY),
        );
        ckt.resistor("R1", vin, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-9);
        let res = TranAnalysis::new(5.0 * tau, tau / 100.0)
            .with_method(Integrator::BackwardEuler)
            .run(&ckt)
            .unwrap();
        let got = res.voltage_at_time(tau, out);
        assert!((got - 0.632).abs() < 0.01, "BE v(tau) = {got}");
    }

    #[test]
    fn initial_condition_comes_from_dc() {
        // Source sits at 2 V from t = 0; the cap must start charged.
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GROUND, 2.0);
        ckt.resistor("R1", vin, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-9);
        let res = TranAnalysis::new(1e-6, 1e-8).run(&ckt).unwrap();
        assert!((res.voltage_at(0, out) - 2.0).abs() < 1e-6);
        assert!((res.voltage_at_time(1e-6, out) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn pwl_ramp_is_followed() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v1 = ckt.vsource("V1", a, Circuit::GROUND, 0.0);
        ckt.set_waveform(v1, Waveform::pwl(vec![(0.0, 0.0), (1e-3, 1.0)]));
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        let res = TranAnalysis::new(1e-3, 1e-5).run(&ckt).unwrap();
        let mid = res.voltage_at_time(0.5e-3, a);
        assert!((mid - 0.5).abs() < 1e-6, "ramp midpoint {mid}");
    }

    #[test]
    fn trapezoidal_preserves_lc_like_energy_better_than_be() {
        // RC discharge comparison: trap should track the analytic decay more
        // closely than BE at equal (coarse) step.
        let tau = 1e-6;
        let build = || {
            let mut ckt = Circuit::new();
            let out = ckt.node("out");
            let vin = ckt.node("vin");
            let v1 = ckt.vsource("V1", vin, Circuit::GROUND, 1.0);
            ckt.set_waveform(
                v1,
                Waveform::pulse(1.0, 0.0, 0.0, 1e-12, 1e-12, 1.0, f64::INFINITY),
            );
            ckt.resistor("R1", vin, out, 1e3);
            ckt.capacitor("C1", out, Circuit::GROUND, 1e-9);
            (ckt, out)
        };
        let (ckt, out) = build();
        let coarse = tau / 4.0;
        let trap = TranAnalysis::new(3.0 * tau, coarse).run(&ckt).unwrap();
        let be = TranAnalysis::new(3.0 * tau, coarse)
            .with_method(Integrator::BackwardEuler)
            .run(&ckt)
            .unwrap();
        let analytic = (-2.0_f64).exp();
        let err_trap = (trap.voltage_at_time(2.0 * tau, out) - analytic).abs();
        let err_be = (be.voltage_at_time(2.0 * tau, out) - analytic).abs();
        assert!(err_trap < err_be, "trap {err_trap} vs BE {err_be}");
    }

    #[test]
    fn result_accessors_are_consistent() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GROUND, 1.0);
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        ckt.capacitor("C1", a, Circuit::GROUND, 1e-12);
        let res = TranAnalysis::new(1e-9, 1e-10).run(&ckt).unwrap();
        assert_eq!(res.voltage(a).len(), res.len());
        assert!(!res.is_empty());
        assert_eq!(res.times().len(), res.len());
        assert_eq!(res.voltage_at(0, Circuit::GROUND), 0.0);
    }

    #[test]
    #[should_panic(expected = "dt <= t_stop")]
    fn zero_dt_rejected() {
        let _ = TranAnalysis::new(1.0, 0.0);
    }
}
