//! AC small-signal analysis: complex MNA solve of `(G + jωC)·x = b` around
//! a DC operating point.

use maopt_linalg::{CLu, CMat, Complex};

use crate::analysis::dc::DcOp;
use crate::circuit::{Circuit, Element, Node};
use crate::mna::{cap_list, CStamp, CapSpec, Layout};
use crate::mosfet::MosOp;
use crate::probe::Probe;
use crate::solver::{CSparseWs, SolverKind};
use crate::SimError;

/// Builds a logarithmically spaced frequency grid.
///
/// # Panics
///
/// Panics unless `0 < f_start < f_stop` and `points_per_decade ≥ 1`.
pub fn log_freqs(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(
        f_start > 0.0 && f_stop > f_start,
        "need 0 < f_start < f_stop"
    );
    assert!(points_per_decade >= 1, "need at least one point per decade");
    let decades = (f_stop / f_start).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..n)
        .map(|i| f_start * 10f64.powf(i as f64 * decades / (n - 1) as f64))
        .collect()
}

/// Result of an AC sweep: one complex solution vector per frequency.
#[derive(Debug, Clone)]
pub struct AcSweep {
    freqs: Vec<f64>,
    sols: Vec<Vec<Complex>>,
}

impl AcSweep {
    /// The frequency grid, hertz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Number of frequency points.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` when the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Phasor voltage of `node` at frequency index `k`.
    pub fn voltage(&self, k: usize, node: Node) -> Complex {
        match node.unknown() {
            Some(i) => self.sols[k][i],
            None => Complex::ZERO,
        }
    }

    /// The transfer series of one node over the whole sweep.
    pub fn transfer(&self, node: Node) -> Vec<Complex> {
        (0..self.len()).map(|k| self.voltage(k, node)).collect()
    }
}

/// Stamps the small-signal system matrix at angular frequency `omega`.
///
/// Shared by the AC and noise analyses. Independent sources contribute
/// nothing to the matrix (their excitations go in the right-hand side).
/// Like the resistive assembly, the stamp call sequence is a pure function
/// of circuit structure (`omega` and the operating point only affect
/// values), so the complex slot replay in the sparse path is sound.
pub(crate) fn assemble_ac(
    ckt: &Circuit,
    layout: &Layout,
    mos_ops: &[MosOp],
    caps: &[CapSpec],
    omega: f64,
    a: &mut dyn CStamp,
) {
    let add = |a: &mut dyn CStamp, r: Node, c: Node, v: Complex| {
        if let (Some(ri), Some(ci)) = (r.unknown(), c.unknown()) {
            a.add(ri, ci, v);
        }
    };

    let mut mos_ord = 0usize;
    for (ei, e) in ckt.elements().iter().enumerate() {
        match e {
            Element::Resistor {
                a: na, b: nb, ohms, ..
            } => {
                let g = Complex::from_real(1.0 / ohms);
                add(a, *na, *na, g);
                add(a, *na, *nb, -g);
                add(a, *nb, *na, -g);
                add(a, *nb, *nb, g);
            }
            Element::Capacitor { .. } => {} // handled via `caps` below
            Element::Inductor {
                a: na,
                b: nb,
                henries,
                ..
            } => {
                // Branch row: v_a − v_b − jωL·i = 0.
                let k = layout.branch_of[ei].expect("inductor branch");
                if let Some(ai) = na.unknown() {
                    a.add(ai, k, Complex::ONE);
                    a.add(k, ai, Complex::ONE);
                }
                if let Some(bi) = nb.unknown() {
                    a.add(bi, k, -Complex::ONE);
                    a.add(k, bi, -Complex::ONE);
                }
                a.add(k, k, -Complex::new(0.0, omega * henries));
            }
            Element::Isource { .. } => {}
            Element::Vsource { p, n: nn, .. } => {
                let k = layout.branch_of[ei].expect("vsource branch");
                if let Some(pi) = p.unknown() {
                    a.add(pi, k, Complex::ONE);
                    a.add(k, pi, Complex::ONE);
                }
                if let Some(ni) = nn.unknown() {
                    a.add(ni, k, -Complex::ONE);
                    a.add(k, ni, -Complex::ONE);
                }
            }
            Element::Vcvs {
                p,
                n: nn,
                cp,
                cn,
                gain,
                ..
            } => {
                let k = layout.branch_of[ei].expect("vcvs branch");
                if let Some(pi) = p.unknown() {
                    a.add(pi, k, Complex::ONE);
                    a.add(k, pi, Complex::ONE);
                }
                if let Some(ni) = nn.unknown() {
                    a.add(ni, k, -Complex::ONE);
                    a.add(k, ni, -Complex::ONE);
                }
                if let Some(ci) = cp.unknown() {
                    a.add(k, ci, -Complex::from_real(*gain));
                }
                if let Some(ci) = cn.unknown() {
                    a.add(k, ci, Complex::from_real(*gain));
                }
            }
            Element::Vccs {
                p,
                n: nn,
                cp,
                cn,
                gm,
                ..
            } => {
                let g = Complex::from_real(*gm);
                add(a, *p, *cp, g);
                add(a, *p, *cn, -g);
                add(a, *nn, *cp, -g);
                add(a, *nn, *cn, g);
            }
            Element::Mosfet { d, g, s, b, .. } => {
                let mop = &mos_ops[mos_ord];
                mos_ord += 1;
                // i_d = gm·v_gs + gds·v_ds + gmbs·v_bs
                let dvs = -(mop.gm + mop.gds + mop.gmbs);
                for (row, sign) in [(*d, 1.0), (*s, -1.0)] {
                    add(a, row, *d, Complex::from_real(sign * mop.gds));
                    add(a, row, *g, Complex::from_real(sign * mop.gm));
                    add(a, row, *s, Complex::from_real(sign * dvs));
                    add(a, row, *b, Complex::from_real(sign * mop.gmbs));
                }
            }
        }
    }

    // Capacitors: jωC admittance.
    for c in caps {
        let y = Complex::new(0.0, omega * c.farads);
        add(a, c.a, c.a, y);
        add(a, c.a, c.b, -y);
        add(a, c.b, c.a, -y);
        add(a, c.b, c.b, y);
    }

    // A touch of gmin keeps structurally-floating small-signal nodes solvable.
    for i in 0..layout.n_node_unknowns {
        a.add(i, i, Complex::from_real(1e-12));
    }
}

/// Dense convenience wrapper over [`assemble_ac`] (debug cross-check path
/// and the noise analysis' dense fallback).
pub(crate) fn build_ac_matrix(
    ckt: &Circuit,
    layout: &Layout,
    op: &DcOp,
    caps: &[CapSpec],
    omega: f64,
) -> CMat {
    let n = layout.n_unknowns;
    let mut a = CMat::zeros(n, n);
    assemble_ac(ckt, layout, &op.mos_ops, caps, omega, &mut a);
    a
}

/// Right-hand side from the independent sources' AC magnitudes.
pub(crate) fn ac_excitation(ckt: &Circuit, layout: &Layout) -> Vec<Complex> {
    let mut b = vec![Complex::ZERO; layout.n_unknowns];
    for (ei, e) in ckt.elements().iter().enumerate() {
        match e {
            Element::Vsource { ac_mag, .. } if *ac_mag != 0.0 => {
                let k = layout.branch_of[ei].expect("vsource branch");
                b[k] += Complex::from_real(*ac_mag);
            }
            Element::Isource { p, n, ac_mag, .. } if *ac_mag != 0.0 => {
                // Current leaves p: KCL row p gets −I on the RHS.
                if let Some(pi) = p.unknown() {
                    b[pi] -= Complex::from_real(*ac_mag);
                }
                if let Some(ni) = n.unknown() {
                    b[ni] += Complex::from_real(*ac_mag);
                }
            }
            _ => {}
        }
    }
    b
}

/// AC sweep configuration (the frequency grid).
#[derive(Debug, Clone)]
pub struct AcAnalysis {
    freqs: Vec<f64>,
    /// Linear-solver backend; one complex numeric refactor per frequency
    /// over the shared per-topology symbolic on the sparse path.
    pub solver: SolverKind,
}

impl AcAnalysis {
    /// Creates an analysis over an explicit frequency grid.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or contains non-positive frequencies.
    pub fn new(freqs: Vec<f64>) -> Self {
        assert!(
            !freqs.is_empty(),
            "AC analysis needs at least one frequency"
        );
        assert!(
            freqs.iter().all(|&f| f > 0.0),
            "AC frequencies must be positive"
        );
        AcAnalysis {
            freqs,
            solver: SolverKind::Sparse,
        }
    }

    /// Log-spaced grid from `f_start` to `f_stop`.
    pub fn log(f_start: f64, f_stop: f64, points_per_decade: usize) -> Self {
        AcAnalysis::new(log_freqs(f_start, f_stop, points_per_decade))
    }

    /// Selects the linear-solver backend.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Runs the sweep around the given operating point.
    ///
    /// # Errors
    ///
    /// [`SimError::SingularMatrix`] if the small-signal system is singular.
    pub fn run(&self, ckt: &Circuit, op: &DcOp) -> Result<AcSweep, SimError> {
        let layout = Layout::new(ckt);
        let caps = cap_list(ckt);
        let b = ac_excitation(ckt, &layout);
        let probe = Probe::current();
        let mut sparse = CSparseWs::new(self.solver, ckt, &layout);
        let mut xbuf: Vec<Complex> = Vec::new();
        let mut sols = Vec::with_capacity(self.freqs.len());
        for &f in &self.freqs {
            let omega = 2.0 * std::f64::consts::PI * f;
            if let Some(ws) = sparse.as_mut() {
                if ws.factor_at(ckt, &layout, &op.mos_ops, &caps, omega, &probe) {
                    let t = probe.start();
                    ws.lu.solve_into(&b, &mut xbuf)?;
                    probe.span(crate::probe::SPAN_SOLVE, t);
                    sols.push(xbuf.clone());
                    continue;
                }
                // The pivot-free factorization hit a tiny pivot at this
                // frequency: fall through to the dense pivoting solver.
            }
            let t = probe.start();
            let a = build_ac_matrix(ckt, &layout, op, &caps, omega);
            let lu = CLu::new(a).map_err(|_| SimError::SingularMatrix {
                analysis: format!("ac @ {f} Hz"),
            })?;
            probe.span(crate::probe::SPAN_FACTOR, t);
            let t = probe.start();
            sols.push(lu.solve(&b)?);
            probe.span(crate::probe::SPAN_SOLVE, t);
        }
        Ok(AcSweep {
            freqs: self.freqs.clone(),
            sols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dc::DcAnalysis;
    use crate::{nmos_180nm, Circuit, MosInstance};

    #[test]
    fn log_freqs_endpoints_and_spacing() {
        let f = log_freqs(1.0, 1e3, 10);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f.last().unwrap() - 1e3).abs() < 1e-9);
        assert_eq!(f.len(), 31);
        // Log-uniform ratio between consecutive points.
        let r0 = f[1] / f[0];
        let r1 = f[2] / f[1];
        assert!((r0 - r1).abs() < 1e-9);
    }

    #[test]
    fn rc_lowpass_pole() {
        // R = 1 kΩ, C = 1 µF → f_3dB = 159.15 Hz.
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.vsource_ac("V1", vin, Circuit::GROUND, 0.0, 1.0);
        ckt.resistor("R1", vin, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-6);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        let f3db = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-6);
        let ac = AcAnalysis::new(vec![f3db / 100.0, f3db, f3db * 100.0])
            .run(&ckt, &op)
            .unwrap();
        // Passband ≈ 1, pole = −3 dB at 45°, stopband rolls off.
        assert!((ac.voltage(0, out).abs() - 1.0).abs() < 1e-3);
        assert!((ac.voltage(1, out).abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((ac.voltage(1, out).arg_deg() + 45.0).abs() < 0.5);
        assert!(ac.voltage(2, out).abs() < 0.02);
    }

    #[test]
    fn common_source_gain_matches_gm_times_load() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.vsource("VDD", vdd, Circuit::GROUND, 1.8);
        ckt.vsource_ac("VG", g, Circuit::GROUND, 0.75, 1.0);
        ckt.resistor("RD", vdd, d, 10e3);
        let m1 = ckt.mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosInstance {
                model: nmos_180nm(),
                w: 20e-6,
                l: 1e-6,
                m: 1.0,
            },
        );
        let op = DcAnalysis::new().run(&ckt).unwrap();
        let mop = *op.mos_op(m1).unwrap();
        let expected = mop.gm * (1.0 / (1.0 / 10e3 + mop.gds));
        let ac = AcAnalysis::new(vec![10.0]).run(&ckt, &op).unwrap();
        let gain = ac.voltage(0, d).abs();
        let rel = (gain - expected).abs() / expected;
        assert!(rel < 1e-3, "gain {gain} vs gm·(RD∥ro) {expected}");
        // Inverting amplifier: ~180° phase.
        assert!((ac.voltage(0, d).arg_deg().abs() - 180.0).abs() < 1.0);
    }

    #[test]
    fn current_source_excitation() {
        // 1 A AC into 50 Ω must read 50 V.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.isource_ac("I1", Circuit::GROUND, a, 0.0, 1.0);
        ckt.resistor("R1", a, Circuit::GROUND, 50.0);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        let ac = AcAnalysis::new(vec![1e3]).run(&ckt, &op).unwrap();
        assert!((ac.voltage(0, a).abs() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn quiet_circuit_has_zero_response() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GROUND, 1.0); // no AC magnitude
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        let ac = AcAnalysis::new(vec![1e3]).run(&ckt, &op).unwrap();
        assert!(ac.voltage(0, a).abs() < 1e-12);
    }

    #[test]
    fn transfer_series_has_sweep_length() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource_ac("V1", a, Circuit::GROUND, 0.0, 1.0);
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        let ac = AcAnalysis::log(1.0, 1e6, 5).run(&ckt, &op).unwrap();
        assert_eq!(ac.transfer(a).len(), ac.len());
        assert!(!ac.is_empty());
    }
}
