//! Minimal feed-forward neural-network stack for the MA-Opt reproduction.
//!
//! The paper's actor and critic networks are small MLPs (two hidden layers of
//! 100 units). This crate implements exactly what they need, from scratch:
//!
//! * [`Dense`] layers with [`Activation`] functions and hand-written
//!   backpropagation (finite-difference-verified in the test suite),
//! * an [`Mlp`] container with **input-gradient** support — training an actor
//!   *through* a frozen critic requires `∂L/∂input` of the critic,
//! * one batch pass: [`Mlp::forward_ws`] and [`Mlp::backward_ws`] keep
//!   activations and gradients in a reusable [`Workspace`], so training,
//!   frozen-critic backprop and batch inference all run the same
//!   allocation-free kernels ([`Mlp::predict`] is a single-row wrapper),
//! * the [`Adam`] and [`Sgd`] optimizers,
//! * [`MinMaxScaler`] for normalizing network inputs/outputs to the unit box.
//!
//! # Example: fit a line
//!
//! ```
//! use maopt_nn::{mse_loss, mse_loss_grad_into, Activation, Adam, Mlp, Workspace};
//! use maopt_linalg::Mat;
//!
//! let mut mlp = Mlp::new(&[1, 16, 1], Activation::Tanh, 42);
//! let mut adam = Adam::new(&mlp, 1e-2);
//! let x = Mat::from_fn(32, 1, |i, _| i as f64 / 32.0);
//! let y = Mat::from_fn(32, 1, |i, _| 2.0 * (i as f64 / 32.0) - 0.5);
//! // Activations and the loss gradient live in reused buffers, so the
//! // loop allocates nothing after its first step.
//! let mut ws = Workspace::new();
//! let mut grad = Mat::default();
//! for _ in 0..500 {
//!     let pred = mlp.forward_ws(&x, &mut ws);
//!     mse_loss_grad_into(pred, &y, &mut grad);
//!     mlp.zero_grad();
//!     mlp.backward_ws(&grad, &mut ws, true);
//!     adam.step(&mut mlp);
//! }
//! assert!(mse_loss(mlp.forward_ws(&x, &mut ws), &y) < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod dense;
mod loss;
mod mlp;
mod optimizer;
mod scaler;
mod state;
mod workspace;

pub use activation::Activation;
pub use dense::Dense;
pub use loss::{mse_loss, mse_loss_grad_into};
pub use mlp::Mlp;
pub use optimizer::{Adam, Sgd};
pub use scaler::MinMaxScaler;
pub use state::{AdamState, LayerState, MlpState, ScalerState};
pub use workspace::Workspace;
