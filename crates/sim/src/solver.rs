//! Linear-solver selection and the reusable Newton workspaces shared by
//! the DC and transient analyses.
//!
//! Two backends solve the Newton systems `J·Δx = −f`:
//!
//! * **Sparse** (default): per-topology symbolic LU (see
//!   [`crate::topology`]) with assembly replayed as flat slot writes and a
//!   pivot-free numeric refactor per iteration. Deterministic: the FP
//!   operation sequence is a pure function of topology, never of values
//!   or thread count.
//! * **Dense**: the partial-pivoting LU, kept as the reference the
//!   agreement tests and benches compare against, and as the
//!   per-iteration fallback when the pivot-free factorization hits a tiny
//!   pivot — so genuinely singular systems surface exactly the same
//!   errors on both backends.
//!
//! Neither backend allocates per iteration in steady state: the dense
//! path reuses its matrix + factor buffers ([`maopt_linalg::Lu::refactor_from`]),
//! the sparse path reuses the CSC value array and factor workspace.

use std::sync::Arc;

use maopt_linalg::{Complex, Lu, Mat, SparseLu, SparseMat};

use crate::analysis::ac::assemble_ac;
use crate::circuit::Circuit;
use crate::mna::{CSlotStamp, CapSpec, Layout, SlotStamp, Stamp};
use crate::mosfet::MosOp;
use crate::probe::{Probe, SPAN_ASSEMBLE, SPAN_FACTOR, SPAN_SOLVE};
use crate::topology::{topology_for, Topology};
use crate::SimError;

/// Which linear solver backs an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// The sparse path: per-topology symbolic factorization reuse. The
    /// default.
    #[default]
    Sparse,
    /// The dense partial-pivoting path (reference for agreement tests).
    Dense,
}

/// The real stamp sequence an analysis's Newton assembly makes, fixed
/// when its [`SolverWs`] is built.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StampSeq {
    /// `assemble_resistive` alone (DC).
    Resistive,
    /// `assemble_resistive` followed by `stamp_reactive` (transient).
    Transient,
}

/// Dense matrix + factor buffers, reused across iterations.
#[derive(Debug)]
pub(crate) struct DenseWs {
    pub jac: Mat,
    pub lu: Lu,
}

impl DenseWs {
    pub fn new(n: usize) -> DenseWs {
        DenseWs {
            jac: Mat::zeros(n, n),
            lu: Lu::empty(),
        }
    }
}

/// Per-analysis real solver workspace.
#[derive(Debug)]
pub(crate) enum SolverWs {
    Dense(DenseWs),
    Sparse {
        topo: Arc<Topology>,
        /// Length of the `topo.real_slots` prefix the assembly replays.
        n_slots: usize,
        mat: SparseMat<f64>,
        lu: SparseLu<f64>,
        /// Dense retry workspace, created lazily on the first tiny-pivot
        /// event.
        fallback: Option<DenseWs>,
    },
}

impl SolverWs {
    /// Builds the workspace for `kind` and the assembly's stamp sequence
    /// `seq`, falling back to dense when the topology admits no symbolic
    /// factorization (the dense solve then reports the structural
    /// singularity).
    pub fn new(kind: SolverKind, seq: StampSeq, ckt: &Circuit, layout: &Layout) -> SolverWs {
        if kind == SolverKind::Sparse {
            let topo = topology_for(ckt, layout);
            if let Some(sym) = topo.symbolic.clone() {
                let mat = SparseMat::zeros(Arc::clone(&topo.pattern));
                let n_slots = match seq {
                    StampSeq::Resistive => topo.n_resistive,
                    StampSeq::Transient => topo.real_slots.len(),
                };
                return SolverWs::Sparse {
                    topo,
                    n_slots,
                    mat,
                    lu: SparseLu::new(sym),
                    fallback: None,
                };
            }
        }
        SolverWs::Dense(DenseWs::new(layout.n_unknowns))
    }
}

fn singular(analysis: &str) -> SimError {
    SimError::SingularMatrix {
        analysis: analysis.into(),
    }
}

fn fill_neg(f: &[f64], neg_f: &mut Vec<f64>) {
    neg_f.clear();
    neg_f.extend(f.iter().map(|v| -v));
}

/// One Newton linear step: assemble (through the callback), factor, and
/// solve `J·Δx = −f` into `delta`.
///
/// `f` and the Jacobian are zeroed before each callback; the callback adds
/// the residual into `f` and stamps the Jacobian through the given
/// [`Stamp`] — the dense matrix, or a [`SlotStamp`] replaying the stamp
/// sequence registered in [`SolverWs::new`] (checked for drift
/// afterwards). It may be invoked twice (sparse attempt, then dense
/// fallback).
pub(crate) fn solve_newton_system(
    ws: &mut SolverWs,
    analysis: &str,
    probe: &Probe,
    f: &mut [f64],
    neg_f: &mut Vec<f64>,
    delta: &mut Vec<f64>,
    assemble: &mut dyn FnMut(&mut [f64], &mut dyn Stamp),
) -> Result<(), SimError> {
    let t = probe.start();
    let (d, t) = match ws {
        SolverWs::Dense(d) => {
            dense_assemble(d, f, assemble);
            probe.span(SPAN_ASSEMBLE, t);
            (d, probe.start())
        }
        SolverWs::Sparse {
            topo,
            n_slots,
            mat,
            lu,
            fallback,
        } => {
            mat.fill_zero();
            f.fill(0.0);
            let mut st = SlotStamp::new(mat.values_mut(), &topo.real_slots[..*n_slots]);
            assemble(f, &mut st);
            st.finish();
            probe.span(SPAN_ASSEMBLE, t);
            let t = probe.start();
            if lu.factor(mat).is_ok() {
                probe.span(SPAN_FACTOR, t);
                let t = probe.start();
                fill_neg(f, neg_f);
                lu.solve_into(neg_f, delta)?;
                probe.span(SPAN_SOLVE, t);
                return Ok(());
            }
            // The pivot-free elimination hit a tiny pivot: retry this
            // iteration on the dense pivoting solver. A genuinely
            // singular system fails there too, so errors surface
            // identically to the dense backend.
            let d = fallback.get_or_insert_with(|| DenseWs::new(topo.pattern.n()));
            dense_assemble(d, f, assemble);
            (d, t)
        }
    };
    d.lu.refactor_from(&d.jac).map_err(|_| singular(analysis))?;
    probe.span(SPAN_FACTOR, t);
    let t = probe.start();
    fill_neg(f, neg_f);
    d.lu.solve_into(neg_f, delta)?;
    probe.span(SPAN_SOLVE, t);
    Ok(())
}

fn dense_assemble(
    d: &mut DenseWs,
    f: &mut [f64],
    assemble: &mut dyn FnMut(&mut [f64], &mut dyn Stamp),
) {
    d.jac.fill_zero();
    f.fill(0.0);
    assemble(f, &mut d.jac);
}

/// Complex sparse workspace for the AC and noise analyses: value array +
/// factor buffers over the *same* per-topology symbolic as the real path.
#[derive(Debug)]
pub(crate) struct CSparseWs {
    pub topo: Arc<Topology>,
    pub mat: SparseMat<Complex>,
    pub lu: SparseLu<Complex>,
}

impl CSparseWs {
    /// `Some` when `kind` is sparse and the topology admits a
    /// symbolic factorization; `None` sends the caller down the dense
    /// path.
    pub fn new(kind: SolverKind, ckt: &Circuit, layout: &Layout) -> Option<CSparseWs> {
        if kind != SolverKind::Sparse {
            return None;
        }
        let topo = topology_for(ckt, layout);
        let sym = topo.symbolic.clone()?;
        Some(CSparseWs {
            mat: SparseMat::zeros(Arc::clone(&topo.pattern)),
            lu: SparseLu::new(sym),
            topo,
        })
    }

    /// Assembles `G + jωC` and refactors in place. Returns `false` on a
    /// tiny pivot, in which case the caller should solve this frequency
    /// densely.
    pub fn factor_at(
        &mut self,
        ckt: &Circuit,
        layout: &Layout,
        mos_ops: &[MosOp],
        caps: &[CapSpec],
        omega: f64,
        probe: &Probe,
    ) -> bool {
        let t = probe.start();
        self.mat.fill_zero();
        let mut st = CSlotStamp::new(self.mat.values_mut(), &self.topo.ac_slots);
        assemble_ac(ckt, layout, mos_ops, caps, omega, &mut st);
        st.finish();
        probe.span(SPAN_ASSEMBLE, t);
        let t = probe.start();
        let ok = self.lu.factor(&self.mat).is_ok();
        if ok {
            probe.span(SPAN_FACTOR, t);
        }
        ok
    }
}
