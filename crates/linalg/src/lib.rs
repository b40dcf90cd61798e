//! Dense linear algebra foundation for the MA-Opt reproduction.
//!
//! This crate deliberately implements only what the rest of the workspace
//! needs — no external numerics dependencies are used anywhere in the
//! reproduction:
//!
//! * [`Mat`]: a dense, row-major, real (`f64`) matrix with the usual
//!   arithmetic, used by the neural-network stack and the Gaussian-process
//!   baseline.
//! * [`Lu`]: LU decomposition with partial pivoting, the workhorse of the
//!   modified-nodal-analysis (MNA) circuit solver.
//! * [`Cholesky`]: SPD factorization used by Gaussian-process regression.
//! * [`Complex`] / [`CMat`] / [`CLu`]: complex scalars, matrices and a
//!   complex LU solver for small-signal AC circuit analysis.
//! * [`stats`]: tiny statistics helpers (mean, standard deviation,
//!   percentiles) used when aggregating experiment runs.
//! * [`kernels`]: allocation-free `_into` variants of the dense
//!   products with a fixed reduction order — the zero-allocation hot
//!   path of the neural-network stack (see DESIGN.md §8).
//! * [`sparse`]: CSC sparse matrices and a deterministic sparse LU with a
//!   symbolic factorization computed once per sparsity pattern — the fast
//!   MNA solver path (see DESIGN.md §13).
//!
//! # Example
//!
//! ```
//! use maopt_linalg::{Mat, Lu};
//!
//! # fn main() -> Result<(), maopt_linalg::LinalgError> {
//! let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let lu = Lu::new(a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod cmat;
mod complex;
mod error;
pub mod kernels;
mod lu;
mod mat;
pub mod sparse;
pub mod stats;

pub use cholesky::Cholesky;
pub use cmat::{CLu, CMat};
pub use complex::Complex;
pub use error::LinalgError;
pub use lu::Lu;
pub use mat::Mat;
pub use sparse::{SparseLu, SparseMat, SparseScalar, SparsityPattern, SymbolicLu};
