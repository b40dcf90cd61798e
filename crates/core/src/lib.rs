//! MA-Opt: an RL-inspired multi-actor analog circuit sizing optimizer.
//!
//! This crate is the paper's primary contribution, reproduced in full:
//!
//! * the constrained sizing problem abstraction ([`SizingProblem`], Eq. 1),
//! * the figure-of-merit function ([`fom`], Eq. 2),
//! * pseudo-sample generation from the total design set (Eq. 3),
//! * the critic network trained as a SPICE regression ([`Critic`], Eq. 4),
//! * actor networks trained through the frozen critic with elite-set
//!   boundary penalties ([`Actor`], Eqs. 5–6),
//! * shared vs. individual elite solution sets ([`EliteSet`], Fig. 2),
//! * the near-sampling exploitation step ([`NearSampler`], Algorithm 2),
//! * the overall optimization loop ([`MaOpt`], Algorithms 1 & 3) with the
//!   paper's ablations ([`MaOptConfig::dnn_opt`], [`MaOptConfig::ma_opt1`],
//!   [`MaOptConfig::ma_opt2`], [`MaOptConfig::ma_opt`]),
//! * a statistics-collecting experiment [`runner`] reproducing the paper's
//!   tables and figures,
//! * the classic population baselines the paper's related work cites —
//!   PSO, differential evolution and random search ([`baselines`]),
//! * deterministic fault injection for crash-recovery tests ([`chaos`]).
//!
//! # Running an optimizer
//!
//! Each way in has a convenience call and a full call. The convenience
//! calls — [`MaOpt::run`], [`runner::sample_initial_set`],
//! [`runner::make_initial_sets`] and [`runner::run_method`] — simulate on
//! [`maopt_exec::EvalEngine::serial`] without a journal or checkpoints. The
//! full calls — [`MaOpt::run_resumable`], [`runner::sample_initial_set_with`],
//! [`runner::make_initial_sets_nested`] and [`runner::run_method_resumable`]
//! — take the engine(s), the run journals and the checkpointers. Every
//! method implements [`runner::Optimizer`], whose one required method
//! takes the engine. Results are bitwise identical for any worker count,
//! with or without a journal.
//!
//! # Example: optimize a synthetic quadratic sizing problem
//!
//! ```
//! use maopt_core::{MaOpt, MaOptConfig, problems::Sphere, runner::sample_initial_set};
//!
//! let problem = Sphere::new(4);
//! let config = MaOptConfig::ma_opt(7);
//! let init = sample_initial_set(&problem, 20, 7);
//! let result = MaOpt::new(config).run(&problem, init, 30);
//! assert!(result.best_fom() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
pub mod baselines;
pub mod chaos;
mod checkpoint;
mod critic;
mod elite;
pub mod export;
mod fom;
mod maopt;
mod near_sampling;
mod opstore;
mod population;
pub mod problem;
pub mod problems;
pub mod runner;
pub mod trace;

pub use actor::Actor;
pub use checkpoint::RunCheckpointer;
pub use critic::{Critic, CriticEnsemble, PredictScratch, Surrogate};
pub use elite::EliteSet;
pub use fom::{fom, is_feasible, spec_violations, FomConfig};
pub use maopt::{MaOpt, MaOptConfig, RunResult, RunTimings};
pub use maopt_exec::OpState;
pub use near_sampling::NearSampler;
pub use opstore::OpStore;
pub use population::{pseudo_batch, pseudo_batch_into, Population};
pub use problem::{EngineProblem, ParamScale, ParamSpec, SizingProblem, Spec, SpecKind};
