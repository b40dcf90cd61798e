//! MNA system layout and shared residual/Jacobian assembly.
//!
//! Unknown ordering: node voltages (all nodes except ground, in creation
//! order) followed by one branch current per voltage-defined element
//! (independent voltage sources and VCVS).
//!
//! The nonlinear analyses use the *residual* formulation: `f(x)` collects
//! KCL sums (current leaving a node is positive) and branch voltage
//! equations, and Newton solves `J·Δx = −f`.

use maopt_linalg::{CMat, Complex, Mat};

use crate::analysis::tran::Integrator;
use crate::circuit::{Circuit, Element, MosInstance, Node};
use crate::mosfet::MosOp;

/// Index map of the MNA unknown vector.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Number of node-voltage unknowns (node count excluding ground).
    pub n_node_unknowns: usize,
    /// Total unknowns (nodes + branches).
    pub n_unknowns: usize,
    /// Per-element branch unknown index (voltage-defined elements only).
    pub branch_of: Vec<Option<usize>>,
    /// Element indices of MOSFETs, in element order.
    pub mos_elems: Vec<usize>,
}

impl Layout {
    pub fn new(ckt: &Circuit) -> Layout {
        let n_node_unknowns = ckt.node_count() - 1;
        let mut branch_of = vec![None; ckt.elements().len()];
        let mut mos_elems = Vec::new();
        let mut next = n_node_unknowns;
        for (i, e) in ckt.elements().iter().enumerate() {
            match e {
                Element::Vsource { .. } | Element::Vcvs { .. } | Element::Inductor { .. } => {
                    branch_of[i] = Some(next);
                    next += 1;
                }
                Element::Mosfet { .. } => mos_elems.push(i),
                _ => {}
            }
        }
        Layout {
            n_node_unknowns,
            n_unknowns: next,
            branch_of,
            mos_elems,
        }
    }
}

/// Node voltage from the unknown vector (ground → 0).
pub(crate) fn volt(x: &[f64], n: Node) -> f64 {
    match n.unknown() {
        Some(i) => x[i],
        None => 0.0,
    }
}

// ---------------------------------------------------------------------------
// Stamp targets
// ---------------------------------------------------------------------------
//
// The assembly routines write Jacobian entries through the `Stamp` trait
// (`CStamp` for the complex AC system) instead of a concrete matrix. Three
// backends exist:
//
// * `Mat` / `CMat` — the dense path (`SolverKind::Dense` and the sparse
//   path's tiny-pivot fallback);
// * `StampCollector` / `CStampCollector` — record the `(row, col)` call
//   sequence once per topology (values discarded) to build the cached
//   `SparsityPattern` and stamp-slot maps in `crate::topology`;
// * `SlotStamp` / `CSlotStamp` — replay a collected sequence as flat
//   `vals[slot] += v` writes into a CSC value array; the hot path.
//
// For the slot replay to be sound the stamp sequence must be a pure
// function of circuit *structure* (never of values, bias, time, or step
// size). This is why the gmin stamp below is unconditional and why every
// data-dependent quantity only affects stamped *values*.

/// Write target of the real-valued assembly routines.
pub(crate) trait Stamp {
    /// Adds `v` at `(r, c)` of the Jacobian.
    fn add(&mut self, r: usize, c: usize, v: f64);
}

impl Stamp for Mat {
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self[(r, c)] += v;
    }
}

/// Records the `(row, col)` stamp sequence of an assembly (values are
/// discarded). Used once per topology to build the sparsity pattern and
/// the slot maps.
#[derive(Debug, Default)]
pub(crate) struct StampCollector {
    pub entries: Vec<(usize, usize)>,
}

impl Stamp for StampCollector {
    fn add(&mut self, r: usize, c: usize, _v: f64) {
        self.entries.push((r, c));
    }
}

/// Replays a collected stamp sequence as flat writes into a CSC value
/// array: the k-th `add` call lands in `vals[slots[k]]`.
pub(crate) struct SlotStamp<'a> {
    vals: &'a mut [f64],
    slots: &'a [u32],
    cursor: usize,
}

impl<'a> SlotStamp<'a> {
    pub fn new(vals: &'a mut [f64], slots: &'a [u32]) -> SlotStamp<'a> {
        SlotStamp {
            vals,
            slots,
            cursor: 0,
        }
    }

    /// Asserts the assembly made exactly as many stamps as were collected
    /// at topology-build time — any drift means the stamp sequence is not
    /// the pure function of structure the slot replay relies on.
    pub fn finish(self) {
        assert_eq!(self.cursor, self.slots.len(), "stamp sequence drift");
    }
}

impl Stamp for SlotStamp<'_> {
    fn add(&mut self, _r: usize, _c: usize, v: f64) {
        self.vals[self.slots[self.cursor] as usize] += v;
        self.cursor += 1;
    }
}

/// Write target of the complex (AC) assembly; see [`Stamp`].
pub(crate) trait CStamp {
    /// Adds `v` at `(r, c)` of the complex system matrix.
    fn add(&mut self, r: usize, c: usize, v: Complex);
}

impl CStamp for CMat {
    fn add(&mut self, r: usize, c: usize, v: Complex) {
        self[(r, c)] += v;
    }
}

/// Complex twin of [`StampCollector`].
#[derive(Debug, Default)]
pub(crate) struct CStampCollector {
    pub entries: Vec<(usize, usize)>,
}

impl CStamp for CStampCollector {
    fn add(&mut self, r: usize, c: usize, _v: Complex) {
        self.entries.push((r, c));
    }
}

/// Complex twin of [`SlotStamp`].
pub(crate) struct CSlotStamp<'a> {
    vals: &'a mut [Complex],
    slots: &'a [u32],
    cursor: usize,
}

impl<'a> CSlotStamp<'a> {
    pub fn new(vals: &'a mut [Complex], slots: &'a [u32]) -> CSlotStamp<'a> {
        CSlotStamp {
            vals,
            slots,
            cursor: 0,
        }
    }

    /// See [`SlotStamp::finish`].
    pub fn finish(self) {
        assert_eq!(self.cursor, self.slots.len(), "stamp sequence drift");
    }
}

impl CStamp for CSlotStamp<'_> {
    fn add(&mut self, _r: usize, _c: usize, v: Complex) {
        self.vals[self.slots[self.cursor] as usize] += v;
        self.cursor += 1;
    }
}

/// A capacitance extracted from the netlist (explicit capacitors plus the
/// four intrinsic MOSFET capacitances), used by AC and transient analyses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapSpec {
    pub a: Node,
    pub b: Node,
    pub farads: f64,
}

/// An inductor extracted from the netlist, with its branch unknown.
/// (The node incidence is already stamped by the resistive assembly; the
/// transient companion only needs `L` and the branch index.)
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndSpec {
    pub henries: f64,
    /// Index of the branch-current unknown.
    pub branch: usize,
}

/// Collects every inductor in the circuit.
pub(crate) fn ind_list(ckt: &Circuit, layout: &Layout) -> Vec<IndSpec> {
    ckt.elements()
        .iter()
        .enumerate()
        .filter_map(|(ei, e)| match e {
            Element::Inductor { henries, .. } => Some(IndSpec {
                henries: *henries,
                branch: layout.branch_of[ei].expect("inductor has a branch"),
            }),
            _ => None,
        })
        .collect()
}

/// Collects every capacitance in the circuit.
pub(crate) fn cap_list(ckt: &Circuit) -> Vec<CapSpec> {
    let mut caps = Vec::new();
    for e in ckt.elements() {
        match e {
            Element::Capacitor { a, b, farads, .. } => {
                caps.push(CapSpec {
                    a: *a,
                    b: *b,
                    farads: *farads,
                });
            }
            Element::Mosfet {
                d, g, s, b, inst, ..
            } => {
                let (w, l, m) = (inst.w, inst.l, inst.m);
                caps.push(CapSpec {
                    a: *g,
                    b: *s,
                    farads: inst.model.cgs(w, l, m),
                });
                caps.push(CapSpec {
                    a: *g,
                    b: *d,
                    farads: inst.model.cgd(w, l, m),
                });
                caps.push(CapSpec {
                    a: *d,
                    b: *b,
                    farads: inst.model.cdb(w, l, m),
                });
                caps.push(CapSpec {
                    a: *s,
                    b: *b,
                    farads: inst.model.csb(w, l, m),
                });
            }
            _ => {}
        }
    }
    caps
}

/// Value of an independent source: waveform at `time` when both are present,
/// otherwise the DC value, scaled by `source_scale` (used by source
/// stepping).
fn source_value(dc: f64, waveform: &Option<crate::Waveform>, time: Option<f64>, scale: f64) -> f64 {
    let raw = match (waveform, time) {
        (Some(wf), Some(t)) => wf.value(t),
        _ => dc,
    };
    raw * scale
}

/// Assembles the resistive (memoryless) part of the system into `f`/`jac`,
/// which must be pre-zeroed with dimension `layout.n_unknowns`.
///
/// The stamp call sequence on `jac` is a pure function of the circuit
/// structure (see the `Stamp` module comment); all value dependence is in
/// the stamped numbers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_resistive(
    ckt: &Circuit,
    layout: &Layout,
    x: &[f64],
    gmin: f64,
    source_scale: f64,
    time: Option<f64>,
    f: &mut [f64],
    jac: &mut dyn Stamp,
) {
    // Convenience closures over the optional ground row/col.
    let add_f = |f: &mut [f64], n: Node, v: f64| {
        if let Some(i) = n.unknown() {
            f[i] += v;
        }
    };
    let add_j = |jac: &mut dyn Stamp, r: Node, c: Node, v: f64| {
        if let (Some(ri), Some(ci)) = (r.unknown(), c.unknown()) {
            jac.add(ri, ci, v);
        }
    };

    for (ei, e) in ckt.elements().iter().enumerate() {
        match e {
            Element::Resistor { a, b, ohms, .. } => {
                let g = 1.0 / ohms;
                let i = g * (volt(x, *a) - volt(x, *b));
                add_f(f, *a, i);
                add_f(f, *b, -i);
                add_j(jac, *a, *a, g);
                add_j(jac, *a, *b, -g);
                add_j(jac, *b, *a, -g);
                add_j(jac, *b, *b, g);
            }
            Element::Capacitor { .. } => {} // open in the resistive network
            Element::Inductor { a, b, .. } => {
                // DC: a short (v_a = v_b) carrying branch current x[k].
                // Transient analysis adds the companion terms on top.
                let k = layout.branch_of[ei].expect("inductor has a branch");
                let ib = x[k];
                add_f(f, *a, ib);
                add_f(f, *b, -ib);
                f[k] += volt(x, *a) - volt(x, *b);
                if let Some(ai) = a.unknown() {
                    jac.add(ai, k, 1.0);
                    jac.add(k, ai, 1.0);
                }
                if let Some(bi) = b.unknown() {
                    jac.add(bi, k, -1.0);
                    jac.add(k, bi, -1.0);
                }
            }
            Element::Isource {
                p, n, dc, waveform, ..
            } => {
                let i = source_value(*dc, waveform, time, source_scale);
                add_f(f, *p, i);
                add_f(f, *n, -i);
            }
            Element::Vsource {
                p, n, dc, waveform, ..
            } => {
                let k = layout.branch_of[ei].expect("vsource has a branch");
                let v = source_value(*dc, waveform, time, source_scale);
                let ib = x[k];
                add_f(f, *p, ib);
                add_f(f, *n, -ib);
                f[k] += (volt(x, *p) - volt(x, *n)) - v;
                if let Some(pi) = p.unknown() {
                    jac.add(pi, k, 1.0);
                    jac.add(k, pi, 1.0);
                }
                if let Some(ni) = n.unknown() {
                    jac.add(ni, k, -1.0);
                    jac.add(k, ni, -1.0);
                }
            }
            Element::Vcvs {
                p, n, cp, cn, gain, ..
            } => {
                let k = layout.branch_of[ei].expect("vcvs has a branch");
                let ib = x[k];
                add_f(f, *p, ib);
                add_f(f, *n, -ib);
                f[k] += (volt(x, *p) - volt(x, *n)) - gain * (volt(x, *cp) - volt(x, *cn));
                if let Some(pi) = p.unknown() {
                    jac.add(pi, k, 1.0);
                    jac.add(k, pi, 1.0);
                }
                if let Some(ni) = n.unknown() {
                    jac.add(ni, k, -1.0);
                    jac.add(k, ni, -1.0);
                }
                if let Some(ci) = cp.unknown() {
                    jac.add(k, ci, -*gain);
                }
                if let Some(ci) = cn.unknown() {
                    jac.add(k, ci, *gain);
                }
            }
            Element::Vccs {
                p, n, cp, cn, gm, ..
            } => {
                let i = gm * (volt(x, *cp) - volt(x, *cn));
                add_f(f, *p, i);
                add_f(f, *n, -i);
                add_j(jac, *p, *cp, *gm);
                add_j(jac, *p, *cn, -*gm);
                add_j(jac, *n, *cp, -*gm);
                add_j(jac, *n, *cn, *gm);
            }
            Element::Mosfet {
                d, g, s, b, inst, ..
            } => {
                let op = mos_op_at(x, [*d, *g, *s, *b], inst);
                add_f(f, *d, op.id);
                add_f(f, *s, -op.id);
                let dvs = -(op.gm + op.gds + op.gmbs);
                for (row, sign) in [(*d, 1.0), (*s, -1.0)] {
                    add_j(jac, row, *d, sign * op.gds);
                    add_j(jac, row, *g, sign * op.gm);
                    add_j(jac, row, *s, sign * dvs);
                    add_j(jac, row, *b, sign * op.gmbs);
                }
            }
        }
    }

    // gmin from every node to ground stabilises floating nodes. Stamped
    // unconditionally (adding 0.0 when gmin is 0.0) so the stamp sequence
    // does not depend on the gmin value.
    for i in 0..layout.n_node_unknowns {
        f[i] += gmin * x[i];
        jac.add(i, i, gmin);
    }
}

/// Operating point of a MOSFET with terminals `[d, g, s, b]` at the
/// unknown vector `x`.
pub(crate) fn mos_op_at(x: &[f64], [d, g, s, b]: [Node; 4], inst: &MosInstance) -> MosOp {
    inst.model.eval(
        volt(x, d),
        volt(x, g),
        volt(x, s),
        volt(x, b),
        inst.w,
        inst.l,
        inst.m,
    )
}

/// Stamps the transient companion models (capacitors and inductors) on top
/// of the resistive assembly. Shared by the transient Newton loop and the
/// topology collection pass; like [`assemble_resistive`], its stamp
/// sequence is a pure function of circuit structure.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stamp_reactive(
    caps: &[CapSpec],
    inds: &[IndSpec],
    method: Integrator,
    h: f64,
    x: &[f64],
    cap_v: &[f64],
    cap_i: &[f64],
    ind_i: &[f64],
    ind_v: &[f64],
    f: &mut [f64],
    jac: &mut dyn Stamp,
) {
    // Capacitor companion models.
    for (k, c) in caps.iter().enumerate() {
        let v = volt(x, c.a) - volt(x, c.b);
        let (geq, ieq) = match method {
            Integrator::Trapezoidal => {
                let geq = 2.0 * c.farads / h;
                (geq, -geq * cap_v[k] - cap_i[k])
            }
            Integrator::BackwardEuler => {
                let geq = c.farads / h;
                (geq, -geq * cap_v[k])
            }
        };
        let i = geq * v + ieq;
        if let Some(ai) = c.a.unknown() {
            f[ai] += i;
            jac.add(ai, ai, geq);
            if let Some(bi) = c.b.unknown() {
                jac.add(ai, bi, -geq);
            }
        }
        if let Some(bi) = c.b.unknown() {
            f[bi] -= i;
            jac.add(bi, bi, geq);
            if let Some(ai) = c.a.unknown() {
                jac.add(bi, ai, -geq);
            }
        }
    }

    // Inductor companion models, correcting the DC short stamped by the
    // resistive assembly: v − (αL/h)·i + rhs = 0 with α = 2 (trap) or
    // 1 (BE).
    for (k, l) in inds.iter().enumerate() {
        let (geq, rhs) = match method {
            Integrator::Trapezoidal => {
                let geq = 2.0 * l.henries / h;
                (geq, geq * ind_i[k] + ind_v[k])
            }
            Integrator::BackwardEuler => {
                let geq = l.henries / h;
                (geq, geq * ind_i[k])
            }
        };
        f[l.branch] += -geq * x[l.branch] + rhs;
        jac.add(l.branch, l.branch, -geq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_counts_unknowns() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GROUND, 1.0);
        ckt.resistor("R1", a, b, 1e3);
        ckt.vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, 2.0);
        let layout = Layout::new(&ckt);
        assert_eq!(layout.n_node_unknowns, 2);
        assert_eq!(layout.n_unknowns, 4); // 2 nodes + 2 branches
        assert_eq!(layout.branch_of[0], Some(2));
        assert_eq!(layout.branch_of[2], Some(3));
    }

    #[test]
    fn cap_list_includes_mosfet_parasitics() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.capacitor("C1", d, Circuit::GROUND, 1e-12);
        ckt.mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            crate::MosInstance {
                model: crate::nmos_180nm(),
                w: 1e-6,
                l: 1e-6,
                m: 1.0,
            },
        );
        let caps = cap_list(&ckt);
        assert_eq!(caps.len(), 1 + 4);
        assert!(caps.iter().all(|c| c.farads > 0.0));
    }

    #[test]
    fn resistor_stamp_balances() {
        // Single resistor from node a to ground with gmin: residual at the
        // solution of a trivial divider must be zero.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GROUND, 2.0);
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        let layout = Layout::new(&ckt);
        // x = [v_a, i_branch]; at the solution v_a = 2, i_r = 2 mA so the
        // branch current must be −2 mA (current enters the + terminal).
        let x = [2.0, -2e-3];
        let mut f = vec![0.0; 2];
        let mut jac = Mat::zeros(2, 2);
        assemble_resistive(&ckt, &layout, &x, 0.0, 1.0, None, &mut f, &mut jac);
        assert!(f.iter().all(|r| r.abs() < 1e-15), "residual {f:?}");
    }

    #[test]
    fn source_scale_scales_sources_only() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.isource("I1", Circuit::GROUND, a, 1e-3);
        ckt.resistor("R1", a, Circuit::GROUND, 1e3);
        let layout = Layout::new(&ckt);
        let x = [0.0];
        let mut f = vec![0.0; 1];
        let mut jac = Mat::zeros(1, 1);
        assemble_resistive(&ckt, &layout, &x, 0.0, 0.5, None, &mut f, &mut jac);
        // Half the current is injected into node a.
        assert!((f[0] + 0.5e-3).abs() < 1e-18);
    }

    #[test]
    fn waveform_overrides_dc_when_time_given() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v = ckt.vsource("V1", a, Circuit::GROUND, 1.0);
        ckt.set_waveform(v, crate::Waveform::Dc(5.0));
        ckt.resistor("R1", a, Circuit::GROUND, 1.0);
        let layout = Layout::new(&ckt);
        let x = [0.0, 0.0];
        let mut f = vec![0.0; 2];
        let mut jac = Mat::zeros(2, 2);
        assemble_resistive(&ckt, &layout, &x, 0.0, 1.0, Some(0.0), &mut f, &mut jac);
        // Branch equation: (0 − 0) − 5 = −5
        assert!((f[1] + 5.0).abs() < 1e-15);
    }
}
