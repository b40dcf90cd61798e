//! A from-scratch analog circuit simulator for the MA-Opt reproduction.
//!
//! The paper sizes circuits against Synopsys HSpice and a commercial 180 nm
//! PDK — neither of which is available here — so this crate supplies the
//! simulation substrate: a modified-nodal-analysis (MNA) engine with
//!
//! * **DC operating point** ([`analysis::dc`]) — Newton–Raphson with gmin
//!   stepping and source stepping for robust convergence,
//! * **AC small-signal sweeps** ([`analysis::ac`]) — complex MNA solve of
//!   `G + jωC` around the DC operating point,
//! * **transient analysis** ([`analysis::tran`]) — trapezoidal / backward-
//!   Euler integration with a Newton solve per timestep and step-halving on
//!   non-convergence,
//! * **noise analysis** ([`analysis::noise`]) — thermal and flicker sources
//!   propagated to an output node and integrated over a band,
//! * a smooth **LEVEL-1-style MOSFET** model ([`MosModel`]) with softplus
//!   subthreshold blending, channel-length modulation and body effect,
//!   carrying representative 180 nm parameters.
//!
//! The optimizer only observes `x → f(x)`; what matters for reproducing the
//! paper is that this map has realistic analog-sizing structure, which an
//! MNA-level simulator of the same topologies provides.
//!
//! # Example: resistive divider
//!
//! ```
//! use maopt_sim::{Circuit, analysis::dc::DcAnalysis};
//!
//! # fn main() -> Result<(), maopt_sim::SimError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("vin");
//! let out = ckt.node("out");
//! ckt.vsource("V1", vin, Circuit::GROUND, 10.0);
//! ckt.resistor("R1", vin, out, 1e3);
//! ckt.resistor("R2", out, Circuit::GROUND, 3e3);
//! let op = DcAnalysis::new().run(&ckt)?;
//! assert!((op.voltage(out) - 7.5).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod circuit;
mod error;
mod mna;
mod mosfet;
mod netlist;
mod probe;
mod solver;
mod topology;
mod waveform;

pub use circuit::{Circuit, Element, ElementId, MosInstance, Node};
pub use error::SimError;
pub use mosfet::{nmos_180nm, pmos_180nm, MosModel, MosOp, MosPolarity, MosRegion};
pub use netlist::{parse_netlist, parse_value};
pub use solver::SolverKind;
pub use waveform::Waveform;

/// Boltzmann constant × 300 K, in joules (used by noise analysis).
pub const KT: f64 = 1.380649e-23 * 300.0;

/// Thermal voltage kT/q at 300 K, in volts.
pub const VT_THERMAL: f64 = 0.025851;
