//! Noise analysis: thermal and flicker current noise of resistors and
//! MOSFETs propagated to an output node.
//!
//! For each frequency the complex MNA matrix is factored once; each noise
//! source is then a cheap extra right-hand side (a unit current injection
//! between the device terminals). The output power spectral density is
//!
//! ```text
//! S_out(f) = Σ_k |H_k(f)|² · S_k(f)
//! ```
//!
//! where `H_k` is the transimpedance from source `k` to the output node and
//! `S_k` its current PSD (4kT/R for resistors, `4kT·(2/3)·gm` thermal plus
//! `KF·Id/(Cox·W·L·f)` flicker for MOSFETs).

use maopt_linalg::{CLu, Complex};

use crate::analysis::ac::build_ac_matrix;
use crate::analysis::dc::DcOp;
use crate::circuit::{Circuit, Element, Node};
use crate::mna::{cap_list, Layout};
use crate::probe::{Probe, SPAN_FACTOR, SPAN_SOLVE};
use crate::solver::{CSparseWs, SolverKind};
use crate::{SimError, KT};

/// One contributor to the integrated output noise.
#[derive(Debug, Clone)]
pub struct NoiseContributor {
    /// Name of the element responsible.
    pub element: String,
    /// Its share of the integrated output noise power, V².
    pub power: f64,
}

/// Output-referred noise spectrum and its integral.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    freqs: Vec<f64>,
    psd: Vec<f64>,
    contributors: Vec<NoiseContributor>,
}

impl NoiseResult {
    /// The frequency grid, hertz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Output noise PSD in V²/Hz, aligned with [`NoiseResult::freqs`].
    pub fn psd(&self) -> &[f64] {
        &self.psd
    }

    /// Total integrated output noise, volts RMS (trapezoidal integral of the
    /// PSD over the analysis band).
    pub fn output_rms(&self) -> f64 {
        integrate_trapezoid(&self.freqs, &self.psd).sqrt()
    }

    /// Per-element integrated contributions, largest first.
    pub fn contributors(&self) -> &[NoiseContributor] {
        &self.contributors
    }
}

fn integrate_trapezoid(f: &[f64], y: &[f64]) -> f64 {
    f.windows(2)
        .zip(y.windows(2))
        .map(|(fw, yw)| 0.5 * (yw[0] + yw[1]) * (fw[1] - fw[0]))
        .sum()
}

/// Noise analysis configuration.
#[derive(Debug, Clone)]
pub struct NoiseAnalysis {
    freqs: Vec<f64>,
    /// Linear-solver backend for the per-frequency factorizations.
    pub solver: SolverKind,
}

impl NoiseAnalysis {
    /// Creates an analysis over an explicit frequency grid.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or unsorted.
    pub fn new(freqs: Vec<f64>) -> Self {
        assert!(
            !freqs.is_empty(),
            "noise analysis needs at least one frequency"
        );
        assert!(
            freqs.windows(2).all(|w| w[0] < w[1]),
            "noise frequency grid must be strictly increasing"
        );
        NoiseAnalysis {
            freqs,
            solver: SolverKind::Sparse,
        }
    }

    /// Selects the linear-solver backend.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Log-spaced grid from `f_start` to `f_stop`.
    pub fn log(f_start: f64, f_stop: f64, points_per_decade: usize) -> Self {
        NoiseAnalysis::new(crate::analysis::ac::log_freqs(
            f_start,
            f_stop,
            points_per_decade,
        ))
    }

    /// Computes the output noise spectrum at `out`.
    ///
    /// # Errors
    ///
    /// [`SimError::SingularMatrix`] if the small-signal system is singular.
    pub fn run(&self, ckt: &Circuit, op: &DcOp, out: Node) -> Result<NoiseResult, SimError> {
        let layout = Layout::new(ckt);
        let caps = cap_list(ckt);
        let out_idx = match out.unknown() {
            Some(i) => i,
            None => {
                return Err(SimError::BadRequest {
                    reason: "noise output node cannot be ground".into(),
                })
            }
        };

        // Enumerate noise sources once: (element name, node a, node b, psd_fn).
        struct Source {
            name: String,
            a: Node,
            b: Node,
            /// Current PSD at frequency f, A²/Hz.
            psd: Box<dyn Fn(f64) -> f64>,
        }
        let mut sources: Vec<Source> = Vec::new();
        let mut mos_ord = 0usize;
        for e in ckt.elements() {
            match e {
                Element::Resistor {
                    name, a, b, ohms, ..
                } => {
                    let g = 1.0 / ohms;
                    sources.push(Source {
                        name: name.clone(),
                        a: *a,
                        b: *b,
                        psd: Box::new(move |_f| 4.0 * KT * g),
                    });
                }
                Element::Mosfet {
                    name, d, s, inst, ..
                } => {
                    let mop = op.mos_ops[mos_ord];
                    mos_ord += 1;
                    let model = inst.model.clone();
                    let (w, l, m) = (inst.w, inst.l, inst.m);
                    sources.push(Source {
                        name: name.clone(),
                        a: *d,
                        b: *s,
                        psd: Box::new(move |f| {
                            model.thermal_noise_psd(mop.gm)
                                + model.flicker_noise_psd(mop.id, w, l, m, f)
                        }),
                    });
                }
                _ => {}
            }
        }

        let n = layout.n_unknowns;
        let mut psd_total = vec![0.0; self.freqs.len()];
        let mut contrib_power = vec![0.0; sources.len()];
        let mut psd_per_source = vec![vec![0.0; self.freqs.len()]; sources.len()];

        let probe = Probe::current();
        let mut ws = CSparseWs::new(self.solver, ckt, &layout);
        let mut rhs = vec![Complex::ZERO; n];
        let mut xbuf: Vec<Complex> = Vec::with_capacity(n);

        for (fi, &f) in self.freqs.iter().enumerate() {
            let omega = 2.0 * std::f64::consts::PI * f;
            // Factor once per frequency; every noise source is then just an
            // extra right-hand side against the same factorization.
            let sparse_ok = ws
                .as_mut()
                .is_some_and(|w| w.factor_at(ckt, &layout, &op.mos_ops, &caps, omega, &probe));
            let dense_lu = if sparse_ok {
                None
            } else {
                let t = probe.start();
                let a = build_ac_matrix(ckt, &layout, op, &caps, omega);
                let lu = CLu::new(a).map_err(|_| SimError::SingularMatrix {
                    analysis: format!("noise @ {f} Hz"),
                })?;
                probe.span(SPAN_FACTOR, t);
                Some(lu)
            };
            for (si, src) in sources.iter().enumerate() {
                // Unit current injected from b into a (sign irrelevant: |H|²).
                let ai = src.a.unknown();
                let bi = src.b.unknown();
                if let Some(i) = ai {
                    rhs[i] += Complex::ONE;
                }
                if let Some(i) = bi {
                    rhs[i] -= Complex::ONE;
                }
                let t = probe.start();
                let h2 = match (&dense_lu, ws.as_mut()) {
                    (Some(lu), _) => lu.solve(&rhs)?[out_idx].norm_sqr(),
                    (None, Some(w)) => {
                        w.lu.solve_into(&rhs, &mut xbuf)?;
                        xbuf[out_idx].norm_sqr()
                    }
                    (None, None) => unreachable!("no factorization for this frequency"),
                };
                probe.span(SPAN_SOLVE, t);
                if let Some(i) = ai {
                    rhs[i] = Complex::ZERO;
                }
                if let Some(i) = bi {
                    rhs[i] = Complex::ZERO;
                }
                let s = (src.psd)(f);
                psd_total[fi] += h2 * s;
                psd_per_source[si][fi] = h2 * s;
            }
        }

        for (si, series) in psd_per_source.iter().enumerate() {
            contrib_power[si] = integrate_trapezoid(&self.freqs, series);
        }
        let mut contributors: Vec<NoiseContributor> = sources
            .iter()
            .zip(&contrib_power)
            .map(|(s, &p)| NoiseContributor {
                element: s.name.clone(),
                power: p,
            })
            .collect();
        contributors.sort_by(|a, b| b.power.partial_cmp(&a.power).expect("finite powers"));

        Ok(NoiseResult {
            freqs: self.freqs.clone(),
            psd: psd_total,
            contributors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dc::DcAnalysis;
    use crate::{nmos_180nm, Circuit, MosInstance};

    /// A lone resistor to ground shows its full thermal voltage noise
    /// 4kTR at the node.
    #[test]
    fn resistor_thermal_noise_psd() {
        let r = 10e3;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("R1", a, Circuit::GROUND, r);
        // A DC source elsewhere keeps the netlist non-trivial but quiet.
        let b = ckt.node("b");
        ckt.vsource("V1", b, Circuit::GROUND, 1.0);
        ckt.resistor("R2", b, Circuit::GROUND, 1e3);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        let res = NoiseAnalysis::new(vec![1e3, 1e4])
            .run(&ckt, &op, a)
            .unwrap();
        let expected = 4.0 * KT * r; // |Z|²·(4kT/R) = R²·4kT/R
        for &p in res.psd() {
            let rel = (p - expected).abs() / expected;
            assert!(rel < 1e-6, "psd {p} vs 4kTR {expected}");
        }
    }

    /// Two parallel resistors: noise of the parallel combination.
    #[test]
    fn parallel_resistors_noise_combines() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("R1", a, Circuit::GROUND, 2e3);
        ckt.resistor("R2", a, Circuit::GROUND, 2e3);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        let res = NoiseAnalysis::new(vec![1e3]).run(&ckt, &op, a).unwrap();
        let expected = 4.0 * KT * 1e3; // parallel resistance 1 kΩ
        let rel = (res.psd()[0] - expected).abs() / expected;
        assert!(rel < 1e-6);
    }

    /// RC-filtered resistor noise integrates to kT/C over an infinite band;
    /// over 4 decades past the pole we should capture most of it.
    #[test]
    fn ktc_noise_integral() {
        let r = 1e3;
        let c = 1e-9;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("R1", a, Circuit::GROUND, r);
        ckt.capacitor("C1", a, Circuit::GROUND, c);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        let f_pole = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let res = NoiseAnalysis::log(f_pole * 1e-3, f_pole * 1e3, 20)
            .run(&ckt, &op, a)
            .unwrap();
        let v2 = res.output_rms().powi(2);
        let ktc = KT / c;
        let rel = (v2 - ktc).abs() / ktc;
        assert!(
            rel < 0.05,
            "integrated noise {v2} vs kT/C {ktc} (rel {rel})"
        );
    }

    #[test]
    fn amplifier_noise_includes_mosfet() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.vsource("VDD", vdd, Circuit::GROUND, 1.8);
        ckt.vsource("VG", g, Circuit::GROUND, 0.75);
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
                l: 1e-6,
                m: 1.0,
            },
        );
        let op = DcAnalysis::new().run(&ckt).unwrap();
        let res = NoiseAnalysis::log(10.0, 1e6, 5).run(&ckt, &op, d).unwrap();
        assert!(res.output_rms() > 0.0);
        let names: Vec<&str> = res
            .contributors()
            .iter()
            .map(|c| c.element.as_str())
            .collect();
        assert!(names.contains(&"M1"));
        assert!(names.contains(&"RD"));
        // Contributions are sorted descending.
        let powers: Vec<f64> = res.contributors().iter().map(|c| c.power).collect();
        for w in powers.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn ground_output_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        let op = DcAnalysis::new().run(&ckt).unwrap();
        assert!(matches!(
            NoiseAnalysis::new(vec![1e3]).run(&ckt, &op, Circuit::GROUND),
            Err(SimError::BadRequest { .. })
        ));
    }
}
