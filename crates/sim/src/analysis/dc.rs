//! DC operating-point analysis: Newton–Raphson over the MNA residual with
//! gmin stepping and source stepping as convergence aids.

use crate::circuit::{Circuit, Element, ElementId, Node};
use crate::mna::{assemble_resistive, mos_op_at, Layout, Stamp};
use crate::mosfet::MosOp;
use crate::probe::Probe;
use crate::solver::{solve_newton_system, SolverKind, SolverWs, StampSeq};
use crate::SimError;

/// Histogram of total Newton iterations per DC solve.
pub(crate) const METRIC_NEWTON_ITERS: &str = "sim.newton_iters";
/// Counter: seeded solves where the warm attempt converged.
const METRIC_WARM_HIT: &str = "sim.warmstart.hit";
/// Counter: seeded solves rescued by the cold continuation ladder.
const METRIC_WARM_FALLBACK: &str = "sim.warmstart.fallback";
/// Counter: solves that ran the cold path (no usable seed).
const METRIC_WARM_COLD: &str = "sim.warmstart.cold";
/// Whole-solve trace span names, one per warm-start outcome.
const SPAN_DC_WARM: &str = "sim.dc.warm";
const SPAN_DC_FALLBACK: &str = "sim.dc.fallback";
const SPAN_DC_COLD: &str = "sim.dc.cold";

/// Configuration for the DC solve.
///
/// The defaults converge for every circuit in this workspace; the knobs are
/// exposed for experimentation.
#[derive(Debug, Clone)]
pub struct DcAnalysis {
    /// Newton iteration budget per continuation stage.
    pub max_iter: usize,
    /// Convergence threshold on the Newton update ∞-norm, volts.
    pub vtol: f64,
    /// Largest Newton step applied per iteration (damping), volts.
    pub step_limit: f64,
    /// Residual gmin left in place during the final solve (0 disables).
    pub final_gmin: f64,
    /// Linear-solver backend for the Newton systems.
    pub solver: SolverKind,
    /// Newton iteration budget of the warm attempt before the cold
    /// continuation ladder takes over. Deliberately much smaller than
    /// `max_iter`: a warm start either converges in a handful of
    /// iterations or is not worth pursuing.
    pub warm_budget: usize,
}

impl Default for DcAnalysis {
    fn default() -> Self {
        DcAnalysis {
            max_iter: 150,
            vtol: 1e-9,
            step_limit: 0.6,
            final_gmin: 1e-12,
            solver: SolverKind::Sparse,
            warm_budget: 40,
        }
    }
}

/// Reusable per-solve buffers: residual, RHS, Newton step and the factor
/// workspace. Allocated once per [`DcAnalysis::run_at_time`] call and
/// reused across every Newton iteration of every continuation stage.
struct DcScratch {
    f: Vec<f64>,
    neg_f: Vec<f64>,
    delta: Vec<f64>,
    solver: SolverWs,
}

/// A converged DC operating point.
///
/// Besides node voltages and branch currents it stores the small-signal
/// parameters of every MOSFET, which the AC, transient and noise analyses
/// consume.
#[derive(Debug, Clone)]
pub struct DcOp {
    pub(crate) x: Vec<f64>,
    pub(crate) layout: Layout,
    pub(crate) mos_ops: Vec<MosOp>,
    pub(crate) newton_iters: usize,
}

impl DcOp {
    /// Voltage of a node (0 for ground).
    pub fn voltage(&self, n: Node) -> f64 {
        match n.unknown() {
            Some(i) => self.x[i],
            None => 0.0,
        }
    }

    /// Current through a voltage-defined element (voltage source or VCVS),
    /// flowing **into its positive terminal** (passive sign convention): a
    /// battery delivering power reports a negative current.
    ///
    /// Returns `None` for elements without a branch current.
    pub fn branch_current(&self, id: ElementId) -> Option<f64> {
        self.layout
            .branch_of
            .get(id.0)
            .copied()
            .flatten()
            .map(|k| self.x[k])
    }

    /// Small-signal operating point of a MOSFET element.
    ///
    /// Returns `None` if `id` is not a MOSFET.
    pub fn mos_op(&self, id: ElementId) -> Option<&MosOp> {
        self.layout
            .mos_elems
            .iter()
            .position(|&e| e == id.0)
            .map(|ord| &self.mos_ops[ord])
    }

    /// The raw solution vector (node voltages then branch currents).
    pub fn unknowns(&self) -> &[f64] {
        &self.x
    }

    /// Total Newton iterations spent across all continuation stages.
    ///
    /// Identical for the sparse and dense solver backends on the same
    /// circuit (the agreement tests assert this).
    pub fn newton_iterations(&self) -> usize {
        self.newton_iters
    }
}

impl DcAnalysis {
    /// Creates the default configuration.
    pub fn new() -> Self {
        DcAnalysis::default()
    }

    /// Solves for the DC operating point.
    ///
    /// # Errors
    ///
    /// [`SimError::BadNetlist`] for invalid circuits,
    /// [`SimError::SingularMatrix`] for structurally singular systems and
    /// [`SimError::NoConvergence`] when Newton fails even with continuation.
    pub fn run(&self, ckt: &Circuit) -> Result<DcOp, SimError> {
        self.run_at_time(ckt, None, None)
    }

    /// Solves the operating point with transient sources evaluated at
    /// `time` (used to initialize transient analysis), warm-started from
    /// `guess` when provided.
    ///
    /// # Errors
    ///
    /// Same as [`DcAnalysis::run`].
    pub fn run_at_time(
        &self,
        ckt: &Circuit,
        time: Option<f64>,
        guess: Option<&[f64]>,
    ) -> Result<DcOp, SimError> {
        ckt.validate()?;
        let layout = Layout::new(ckt);
        let n = layout.n_unknowns;
        let x0: Vec<f64> = match guess {
            Some(g) if g.len() == n => g.to_vec(),
            Some(_) => {
                return Err(SimError::BadRequest {
                    reason: "initial guess has wrong length".into(),
                })
            }
            None => vec![0.0; n],
        };

        let probe = Probe::current();
        let mut ws = self.scratch(ckt, &layout);
        let mut iters = 0usize;
        let x = self.solve_staged(ckt, &layout, &mut ws, &probe, x0, time, &mut iters)?;
        probe.observe(METRIC_NEWTON_ITERS, iters as f64);
        Ok(finish(ckt, &layout, x, iters))
    }

    /// Solves the operating point, warm-starting Newton from a *reference
    /// design's* converged solution vector when one is provided (`None`
    /// runs the cold path, exactly as [`DcAnalysis::run_at_time`]).
    ///
    /// The seed is advisory: when the warm attempt diverges, exceeds the
    /// `warm_budget`, or the seed has the wrong length for this circuit,
    /// the full cold continuation ladder reruns **from the flat-band
    /// guess** (never from the hostile seed), so a bad seed can cost
    /// iterations but never change which circuits converge or to what.
    /// Outcomes land in the ambient metrics as `sim.warmstart.hit` /
    /// `.fallback` / `.cold` counters plus the `sim.newton_iters`
    /// histogram (iterations of a rescued solve include the wasted warm
    /// attempt — honest accounting).
    ///
    /// # Errors
    ///
    /// Same as [`DcAnalysis::run`].
    pub fn run_seeded(
        &self,
        ckt: &Circuit,
        time: Option<f64>,
        seed: Option<&[f64]>,
    ) -> Result<DcOp, SimError> {
        ckt.validate()?;
        let layout = Layout::new(ckt);
        let n = layout.n_unknowns;
        let warm_seed = match seed {
            Some(s) if s.len() == n => Some(s),
            _ => None,
        };

        let probe = Probe::current();
        let mut ws = self.scratch(ckt, &layout);
        let mut iters = 0usize;
        let t0 = probe.start();

        let mut warm_failed = false;
        if let Some(s) = warm_seed {
            let budget = self.warm_budget.min(self.max_iter).max(1);
            if let Ok(x) = self.newton(
                ckt,
                &layout,
                &mut ws,
                &probe,
                s.to_vec(),
                self.final_gmin,
                1.0,
                time,
                budget,
                &mut iters,
            ) {
                probe.inc(METRIC_WARM_HIT);
                probe.observe(METRIC_NEWTON_ITERS, iters as f64);
                probe.span(SPAN_DC_WARM, t0);
                return Ok(finish(ckt, &layout, x, iters));
            }
            warm_failed = true;
        }

        let x = self.solve_staged(
            ckt,
            &layout,
            &mut ws,
            &probe,
            vec![0.0; n],
            time,
            &mut iters,
        )?;
        if warm_failed {
            probe.inc(METRIC_WARM_FALLBACK);
            probe.span(SPAN_DC_FALLBACK, t0);
        } else {
            probe.inc(METRIC_WARM_COLD);
            probe.span(SPAN_DC_COLD, t0);
        }
        probe.observe(METRIC_NEWTON_ITERS, iters as f64);
        Ok(finish(ckt, &layout, x, iters))
    }

    /// Fresh per-solve buffers for one run.
    fn scratch(&self, ckt: &Circuit, layout: &Layout) -> DcScratch {
        let n = layout.n_unknowns;
        DcScratch {
            f: vec![0.0; n],
            neg_f: Vec::with_capacity(n),
            delta: Vec::with_capacity(n),
            solver: SolverWs::new(self.solver, StampSeq::Resistive, ckt, layout),
        }
    }

    /// The three-stage cold continuation: direct Newton from `x0`, then
    /// gmin stepping, then source stepping. Byte-for-byte the solve
    /// sequence [`DcAnalysis::run_at_time`] has always run.
    #[allow(clippy::too_many_arguments)]
    fn solve_staged(
        &self,
        ckt: &Circuit,
        layout: &Layout,
        ws: &mut DcScratch,
        probe: &Probe,
        x0: Vec<f64>,
        time: Option<f64>,
        iters: &mut usize,
    ) -> Result<Vec<f64>, SimError> {
        // Stage 1: direct Newton from the guess.
        if let Ok(x) = self.newton(
            ckt,
            layout,
            ws,
            probe,
            x0.clone(),
            self.final_gmin,
            1.0,
            time,
            self.max_iter,
            iters,
        ) {
            return Ok(x);
        }

        // Stage 2: gmin stepping.
        let mut x = x0.clone();
        let mut ok = true;
        for gmin in [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, self.final_gmin.max(1e-12)] {
            match self.newton(
                ckt,
                layout,
                ws,
                probe,
                x.clone(),
                gmin,
                1.0,
                time,
                self.max_iter,
                iters,
            ) {
                Ok(next) => x = next,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            return Ok(x);
        }

        // Stage 3: source stepping at a safe gmin, then relax gmin.
        let mut x = x0;
        for k in 1..=10 {
            let scale = k as f64 / 10.0;
            x = self
                .newton(
                    ckt,
                    layout,
                    ws,
                    probe,
                    x,
                    1e-9,
                    scale,
                    time,
                    self.max_iter,
                    iters,
                )
                .map_err(|_| SimError::NoConvergence {
                    analysis: format!("dc (source stepping at scale {scale})"),
                    iterations: self.max_iter,
                })?;
        }
        self.newton(
            ckt,
            layout,
            ws,
            probe,
            x,
            self.final_gmin.max(1e-12),
            1.0,
            time,
            self.max_iter,
            iters,
        )
        .map_err(|_| SimError::NoConvergence {
            analysis: "dc".into(),
            iterations: self.max_iter,
        })
    }

    /// One Newton solve at fixed gmin / source scale, allowed at most
    /// `budget` iterations (`max_iter` on the cold path, `warm_budget`
    /// for a warm attempt).
    #[allow(clippy::too_many_arguments)]
    fn newton(
        &self,
        ckt: &Circuit,
        layout: &Layout,
        ws: &mut DcScratch,
        probe: &Probe,
        mut x: Vec<f64>,
        gmin: f64,
        source_scale: f64,
        time: Option<f64>,
        budget: usize,
        iters: &mut usize,
    ) -> Result<Vec<f64>, SimError> {
        for _ in 0..budget {
            *iters += 1;
            let DcScratch {
                f,
                neg_f,
                delta,
                solver,
            } = ws;
            let mut assemble = |f: &mut [f64], jac: &mut dyn Stamp| {
                assemble_resistive(ckt, layout, &x, gmin, source_scale, time, f, jac)
            };
            solve_newton_system(solver, "dc", probe, f, neg_f, delta, &mut assemble)?;
            let max_step = delta.iter().fold(0.0_f64, |m, d| m.max(d.abs()));
            if !max_step.is_finite() {
                return Err(SimError::NoConvergence {
                    analysis: "dc (non-finite step)".into(),
                    iterations: budget,
                });
            }
            let alpha = if max_step > self.step_limit {
                self.step_limit / max_step
            } else {
                1.0
            };
            for (xi, di) in x.iter_mut().zip(delta.iter()) {
                *xi += alpha * di;
            }
            if alpha == 1.0 && max_step < self.vtol {
                return Ok(x);
            }
        }
        Err(SimError::NoConvergence {
            analysis: "dc".into(),
            iterations: budget,
        })
    }
}

/// Harvests the MOSFET operating points at the solution (a pure function
/// of `x` — bitwise-identical to what an assembly at the solution would
/// have produced).
fn finish(ckt: &Circuit, layout: &Layout, x: Vec<f64>, iters: usize) -> DcOp {
    let mos_ops = layout
        .mos_elems
        .iter()
        .map(|&ei| match &ckt.elements()[ei] {
            Element::Mosfet {
                d, g, s, b, inst, ..
            } => mos_op_at(&x, [*d, *g, *s, *b], inst),
            _ => unreachable!("mos_elems indexes MOSFETs"),
        })
        .collect();
    DcOp {
        x,
        layout: layout.clone(),
        mos_ops,
        newton_iters: iters,
    }
}

/// Sweeps the DC value of one source, returning the operating point at each
/// step (warm-starting each solve from the previous point).
///
/// # Errors
///
/// Propagates the first failing solve.
pub fn dc_sweep(
    ckt: &mut Circuit,
    source: ElementId,
    values: &[f64],
) -> Result<Vec<DcOp>, SimError> {
    let analysis = DcAnalysis::new();
    let mut out = Vec::with_capacity(values.len());
    let mut guess: Option<Vec<f64>> = None;
    let original = match ckt.element(source) {
        Element::Vsource { dc, .. } | Element::Isource { dc, .. } => *dc,
        _ => {
            return Err(SimError::BadRequest {
                reason: "dc_sweep target must be an independent source".into(),
            })
        }
    };
    for &v in values {
        ckt.set_dc(source, v);
        let op = analysis.run_at_time(ckt, None, guess.as_deref())?;
        guess = Some(op.x.clone());
        out.push(op);
    }
    ckt.set_dc(source, original);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nmos_180nm, pmos_180nm, MosInstance};

    #[test]
    fn voltage_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GROUND, 9.0);
        ckt.resistor("R1", vin, out, 2e3);
        ckt.resistor("R2", out, Circuit::GROUND, 1e3);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        assert!((op.voltage(out) - 3.0).abs() < 1e-7);
        assert!((op.voltage(vin) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn branch_current_sign_convention() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v = ckt.vsource("V1", a, Circuit::GROUND, 10.0);
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        // The source delivers 10 mA; current into its + terminal is −10 mA.
        assert!((op.branch_current(v).unwrap() + 10e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.isource("I1", Circuit::GROUND, a, 2e-3);
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        assert!((op.voltage(a) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn vcvs_amplifies() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", inp, Circuit::GROUND, 0.5);
        ckt.vcvs("E1", out, Circuit::GROUND, inp, Circuit::GROUND, 4.0);
        ckt.resistor("RL", out, Circuit::GROUND, 1e3);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        assert!((op.voltage(out) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn vccs_injects_current() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", inp, Circuit::GROUND, 1.0);
        ckt.vccs("G1", Circuit::GROUND, out, inp, Circuit::GROUND, 1e-3);
        ckt.resistor("RL", out, Circuit::GROUND, 2e3);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        assert!((op.voltage(out) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn diode_connected_nmos_settles_near_vth_plus_vov() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        ckt.vsource("VDD", vdd, Circuit::GROUND, 1.8);
        ckt.resistor("R1", vdd, d, 10e3);
        ckt.mosfet(
            "M1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            MosInstance {
                model: nmos_180nm(),
                w: 10e-6,
                l: 1e-6,
                m: 1.0,
            },
        );
        let op = DcAnalysis::new().run(&ckt).unwrap();
        let vd = op.voltage(d);
        // Diode voltage must sit above threshold but well below VDD.
        assert!(vd > 0.45 && vd < 1.2, "diode voltage {vd}");
        // KCL: resistor current equals drain current.
        let m1 = ckt.find_element("M1").unwrap();
        let id = op.mos_op(m1).unwrap().id;
        let ir = (1.8 - vd) / 10e3;
        assert!((id - ir).abs() < 1e-9);
    }

    #[test]
    fn nmos_common_source_amplifier_bias() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.vsource("VDD", vdd, Circuit::GROUND, 1.8);
        ckt.vsource("VG", g, Circuit::GROUND, 0.6);
        ckt.resistor("RD", vdd, d, 10e3);
        ckt.mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosInstance {
                model: nmos_180nm(),
                w: 20e-6,
                l: 0.5e-6,
                m: 1.0,
            },
        );
        let op = DcAnalysis::new().run(&ckt).unwrap();
        let vd = op.voltage(d);
        assert!(
            vd > 0.1 && vd < 1.7,
            "drain should bias mid-rail-ish, got {vd}"
        );
        let m1 = ckt.find_element("M1").unwrap();
        assert!(op.mos_op(m1).unwrap().gm > 0.0);
    }

    #[test]
    fn cmos_inverter_with_input_low_outputs_high() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GROUND, 1.8);
        ckt.vsource("VIN", inp, Circuit::GROUND, 0.0);
        ckt.mosfet(
            "MP",
            out,
            inp,
            vdd,
            vdd,
            MosInstance {
                model: pmos_180nm(),
                w: 4e-6,
                l: 0.18e-6,
                m: 1.0,
            },
        );
        ckt.mosfet(
            "MN",
            out,
            inp,
            Circuit::GROUND,
            Circuit::GROUND,
            MosInstance {
                model: nmos_180nm(),
                w: 2e-6,
                l: 0.18e-6,
                m: 1.0,
            },
        );
        let op = DcAnalysis::new().run(&ckt).unwrap();
        assert!(op.voltage(out) > 1.7, "inverter output should be near VDD");

        // Flip the input high; output must go low.
        let vin = ckt.find_element("VIN").unwrap();
        ckt.set_dc(vin, 1.8);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        assert!(op.voltage(out) < 0.1, "inverter output should be near 0");
    }

    #[test]
    fn floating_node_is_held_by_gmin() {
        // A capacitor-only node has no DC path; gmin should keep the matrix
        // solvable and park the node near 0.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let fl = ckt.node("float");
        ckt.vsource("V1", a, Circuit::GROUND, 1.0);
        ckt.capacitor("C1", a, fl, 1e-12);
        ckt.capacitor("C2", fl, Circuit::GROUND, 1e-12);
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        assert!(op.voltage(fl).abs() < 1e-6);
    }

    #[test]
    fn dc_sweep_tracks_inverter_transfer() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GROUND, 1.8);
        let vin = ckt.vsource("VIN", inp, Circuit::GROUND, 0.0);
        ckt.mosfet(
            "MP",
            out,
            inp,
            vdd,
            vdd,
            MosInstance {
                model: pmos_180nm(),
                w: 4e-6,
                l: 0.18e-6,
                m: 1.0,
            },
        );
        ckt.mosfet(
            "MN",
            out,
            inp,
            Circuit::GROUND,
            Circuit::GROUND,
            MosInstance {
                model: nmos_180nm(),
                w: 2e-6,
                l: 0.18e-6,
                m: 1.0,
            },
        );
        let values: Vec<f64> = (0..=18).map(|i| i as f64 * 0.1).collect();
        let ops = dc_sweep(&mut ckt, vin, &values).unwrap();
        let vouts: Vec<f64> = ops.iter().map(|op| op.voltage(out)).collect();
        // Monotonically non-increasing transfer curve from ~VDD to ~0.
        assert!(vouts.first().unwrap() > &1.7);
        assert!(vouts.last().unwrap() < &0.1);
        for w in vouts.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "inverter VTC must fall: {vouts:?}");
        }
    }

    #[test]
    fn bad_guess_length_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GROUND, 1.0);
        ckt.resistor("R1", a, Circuit::GROUND, 1.0);
        let err = DcAnalysis::new().run_at_time(&ckt, None, Some(&[0.0]));
        assert!(matches!(err, Err(SimError::BadRequest { .. })));
    }

    #[test]
    fn sweep_requires_source_element() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GROUND, 1.0);
        let r = ckt.resistor("R1", a, Circuit::GROUND, 1.0);
        assert!(matches!(
            dc_sweep(&mut ckt, r, &[1.0]),
            Err(SimError::BadRequest { .. })
        ));
    }
}
