//! Per-topology cache of the sparse-solver data: sparsity pattern,
//! symbolic LU factorization, and the stamp-slot maps that turn assembly
//! into flat writes.
//!
//! Every design of one circuit family (same netlist structure, different
//! component values and device geometries) shares an MNA sparsity
//! pattern, because the stamp call sequences of the assembly routines in
//! [`crate::mna`] are pure functions of structure. MA-Opt evaluates
//! thousands of designs per circuit per round, so the expensive,
//! per-pattern work — pattern construction, maximum matching, fill
//! analysis — is done **once** per topology and shared process-wide:
//!
//! * The cache key is the exact [`Circuit::structure_key`] byte sequence
//!   (element tags + node incidence, no values). Keys are compared
//!   exactly, so two different topologies can never collide.
//! * The cached value holds the union pattern of the resistive, reactive
//!   (transient companion) and AC stamp sequences, one symbolic LU over
//!   that union (shared by DC/transient — real — and AC/noise — complex),
//!   and a slot map per sequence.
//!
//! Determinism: building a topology is itself deterministic (fixed
//! element order, fixed elimination order in
//! [`SymbolicLu::analyze`]), so concurrent builds of the same key
//! produce identical values and the first insert wins harmlessly.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use maopt_linalg::{SparsityPattern, SymbolicLu};

use crate::analysis::ac::assemble_ac;
use crate::analysis::tran::Integrator;
use crate::circuit::Circuit;
use crate::mna::{assemble_resistive, cap_list, ind_list, CStampCollector, Layout, StampCollector};
use crate::mosfet::{MosOp, MosRegion};

/// Cached per-topology sparse-solver data.
#[derive(Debug)]
pub(crate) struct Topology {
    /// Union sparsity pattern of all three stamp sequences.
    pub pattern: Arc<SparsityPattern>,
    /// Symbolic LU over `pattern`; `None` when the pattern is structurally
    /// singular (no perfect row matching) — callers then use the dense
    /// path, which reports the singularity with identical errors.
    pub symbolic: Option<Arc<SymbolicLu>>,
    /// Slot of each `Stamp::add` call of the resistive assembly followed
    /// by the transient companion stamping: DC replays the first
    /// `n_resistive` entries, transient the whole sequence.
    pub real_slots: Vec<u32>,
    /// Length of the resistive prefix of `real_slots`.
    pub n_resistive: usize,
    /// Slot of each `CStamp::add` call of the AC assembly.
    pub ac_slots: Vec<u32>,
}

/// Operating-point placeholder used when collecting the AC stamp
/// sequence (only the *positions* of the stamps are recorded).
const DUMMY_OP: MosOp = MosOp {
    id: 0.0,
    gm: 0.0,
    gds: 0.0,
    gmbs: 0.0,
    vth: 0.0,
    vov: 0.0,
    vdsat: 0.0,
    region: MosRegion::Subthreshold,
};

fn cache() -> &'static Mutex<HashMap<Vec<u32>, Arc<Topology>>> {
    static CACHE: OnceLock<Mutex<HashMap<Vec<u32>, Arc<Topology>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The cached topology for `ckt`, building it on first sight.
pub(crate) fn topology_for(ckt: &Circuit, layout: &Layout) -> Arc<Topology> {
    let key = ckt.structure_key();
    {
        let guard = cache().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = guard.get(&key) {
            return Arc::clone(t);
        }
    }
    // Build outside the lock: concurrent builders of the same key produce
    // identical data (deterministic build) and the first insert wins.
    let topo = Arc::new(build_topology(ckt, layout));
    let mut guard = cache().lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(guard.entry(key).or_insert(topo))
}

/// Runs each assembly once against a collector to learn its stamp
/// sequence, then builds the union pattern, slot maps and symbolic LU.
fn build_topology(ckt: &Circuit, layout: &Layout) -> Topology {
    let n = layout.n_unknowns;
    let x = vec![0.0; n];
    let mut f = vec![0.0; n];
    let caps = cap_list(ckt);
    let inds = ind_list(ckt, layout);

    let mut resistive = StampCollector::default();
    assemble_resistive(ckt, layout, &x, 1e-12, 1.0, None, &mut f, &mut resistive);

    let mut reactive = StampCollector::default();
    let cap_zero = vec![0.0; caps.len()];
    let ind_zero = vec![0.0; inds.len()];
    f.fill(0.0);
    crate::mna::stamp_reactive(
        &caps,
        &inds,
        Integrator::Trapezoidal,
        1.0,
        &x,
        &cap_zero,
        &cap_zero,
        &ind_zero,
        &ind_zero,
        &mut f,
        &mut reactive,
    );

    let mut ac = CStampCollector::default();
    let dummy_ops = vec![DUMMY_OP; layout.mos_elems.len()];
    assemble_ac(ckt, layout, &dummy_ops, &caps, 1.0, &mut ac);

    let mut entries =
        Vec::with_capacity(resistive.entries.len() + reactive.entries.len() + ac.entries.len());
    entries.extend_from_slice(&resistive.entries);
    entries.extend_from_slice(&reactive.entries);
    entries.extend_from_slice(&ac.entries);
    let pattern = Arc::new(SparsityPattern::from_entries(n, &entries));

    let to_slots = |seq: &[(usize, usize)]| -> Vec<u32> {
        seq.iter()
            .map(|&(r, c)| {
                pattern
                    .slot(r, c)
                    .expect("collected stamp entry is in the union pattern") as u32
            })
            .collect()
    };

    Topology {
        real_slots: to_slots(&entries[..resistive.entries.len() + reactive.entries.len()]),
        n_resistive: resistive.entries.len(),
        ac_slots: to_slots(&ac.entries),
        symbolic: SymbolicLu::analyze(&pattern).ok().map(Arc::new),
        pattern,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nmos_180nm, MosInstance};

    fn divider(r1: f64, r2: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GROUND, 1.0);
        ckt.resistor("R1", a, b, r1);
        ckt.resistor("R2", b, Circuit::GROUND, r2);
        ckt
    }

    #[test]
    fn same_structure_different_values_share_topology() {
        let c1 = divider(1e3, 2e3);
        let c2 = divider(47.0, 330.0);
        let t1 = topology_for(&c1, &Layout::new(&c1));
        let t2 = topology_for(&c2, &Layout::new(&c2));
        assert!(Arc::ptr_eq(&t1, &t2), "value changes must not re-key");
    }

    #[test]
    fn different_structure_gets_different_topology() {
        let c1 = divider(1e3, 2e3);
        let mut c2 = divider(1e3, 2e3);
        let b = c2.node("b");
        c2.capacitor("C1", b, Circuit::GROUND, 1e-12);
        let t1 = topology_for(&c1, &Layout::new(&c1));
        let t2 = topology_for(&c2, &Layout::new(&c2));
        assert!(!Arc::ptr_eq(&t1, &t2));
    }

    #[test]
    fn topology_has_symbolic_and_consistent_slots() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.vsource("VD", d, Circuit::GROUND, 1.8);
        ckt.vsource("VG", g, Circuit::GROUND, 0.9);
        ckt.mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosInstance {
                model: nmos_180nm(),
                w: 10e-6,
                l: 1e-6,
                m: 1.0,
            },
        );
        let layout = Layout::new(&ckt);
        let topo = topology_for(&ckt, &layout);
        assert!(topo.symbolic.is_some(), "MNA system must admit a matching");
        let nnz = topo.pattern.nnz() as u32;
        assert!(topo.n_resistive <= topo.real_slots.len());
        for slots in [&topo.real_slots, &topo.ac_slots] {
            assert!(slots.iter().all(|&s| s < nnz));
        }
        assert_eq!(topo.pattern.n(), layout.n_unknowns);
    }
}
