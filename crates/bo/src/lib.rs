//! Bayesian-optimization baseline for the MA-Opt comparison.
//!
//! The paper compares against BO in the style of Snoek et al. (NIPS 2012):
//! a Gaussian-process surrogate of the scalar figure of merit with an
//! expected-improvement acquisition. This crate implements that from
//! scratch on top of [`maopt_linalg`]:
//!
//! * [`GaussianProcess`] — RBF-kernel GP regression with Cholesky solves and
//!   a small marginal-likelihood grid search over the length-scale,
//! * [`BoOptimizer`] — the optimization loop, implementing
//!   [`maopt_core::runner::Optimizer`] so the experiment runner can compare
//!   it head-to-head with the RL-inspired methods.
//!
//! The paper's observation about BO — `O(N³)` training cost and poor
//! feasibility within 200 simulations on high-dimensional sizing problems —
//! falls out of exactly this construction.
//!
//! # Example
//!
//! ```
//! use maopt_bo::BoOptimizer;
//! use maopt_core::problems::Sphere;
//! use maopt_core::runner::{sample_initial_set, Optimizer};
//! use maopt_exec::EvalEngine;
//!
//! let problem = Sphere::new(3);
//! let init = sample_initial_set(&problem, 15, 1);
//! let bo = BoOptimizer::new();
//! // The engine scores the EI candidates; every worker count gives the
//! // serial engine's result.
//! let result = bo.optimize(&problem, &init, 10, 1, &EvalEngine::serial());
//! assert_eq!(result.trace.num_sims(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gp;

pub use gp::GaussianProcess;

use maopt_exec::EvalEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use maopt_core::runner::Optimizer;
use maopt_core::trace::{SimKind, Trace};
use maopt_core::{EngineProblem, FomConfig, Population, RunResult, RunTimings, SizingProblem};

/// Expected-improvement Bayesian optimization over the FoM.
#[derive(Debug, Clone)]
pub struct BoOptimizer {
    /// Random candidates scored by the acquisition per iteration.
    pub n_candidates: usize,
    /// Exploration jitter ξ in the EI formula.
    pub xi: f64,
    /// FoM weights (should match the RL methods for fair comparison).
    pub fom: FomConfig,
}

impl Default for BoOptimizer {
    fn default() -> Self {
        BoOptimizer {
            n_candidates: 2000,
            xi: 0.01,
            fom: FomConfig::default(),
        }
    }
}

impl BoOptimizer {
    /// Creates the default configuration.
    pub fn new() -> Self {
        BoOptimizer::default()
    }
}

/// Standard normal PDF.
fn phi(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via `erf` series (Abramowitz–Stegun 7.1.26, |ε|<1.5e-7).
fn big_phi(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    let erf = if x >= 0.0 { y } else { -y };
    0.5 * (1.0 + erf)
}

/// Expected improvement for minimization.
fn expected_improvement(mean: f64, var: f64, best: f64, xi: f64) -> f64 {
    let sigma = var.max(1e-18).sqrt();
    let improve = best - mean - xi;
    let z = improve / sigma;
    (improve * big_phi(z) + sigma * phi(z)).max(0.0)
}

impl Optimizer for BoOptimizer {
    fn name(&self) -> String {
        "BO".into()
    }

    fn optimize(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        engine: &EvalEngine,
    ) -> RunResult {
        let run_span = engine.telemetry().span("run");
        let mut timings = RunTimings::default();
        let specs = problem.specs().to_vec();
        let d = problem.dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let sim_target = EngineProblem(problem);

        let mut pop = Population::new();
        let mut trace = Trace::new();
        for (x, metrics) in init {
            let idx = pop.push(x.clone(), metrics.clone(), &specs, self.fom);
            trace.record_init(pop.fom(idx), pop.feasible(idx), pop.metrics(idx)[0]);
        }

        for _ in 0..budget {
            // Fit the GP to (designs, FoM) — the O(N³) step the paper
            // calls out.
            let span = engine.telemetry().span("bo_fit");
            let xs: Vec<Vec<f64>> = (0..pop.len()).map(|i| pop.design(i).to_vec()).collect();
            let ys: Vec<f64> = pop.foms().to_vec();
            let gp = GaussianProcess::fit(xs, ys);
            let best = pop.foms().iter().copied().fold(f64::INFINITY, f64::min);
            timings.training += span.end();

            // Maximize EI over random candidates. All candidates come from
            // one serial RNG stream; the independent per-candidate EI
            // scores are computed on the engine's pool and reduced with a
            // first-index-wins scan, so the chosen candidate is identical
            // for any worker count.
            let span = engine.telemetry().span("bo_acquisition");
            let candidates: Vec<Vec<f64>> = (0..self.n_candidates)
                .map(|_| (0..d).map(|_| rng.random_range(0.0..1.0)).collect())
                .collect();
            let eis: Vec<f64> = engine.map((0..candidates.len()).collect(), |_, k: usize| {
                let (mean, var) = gp.predict(&candidates[k]);
                expected_improvement(mean, var, best, self.xi)
            });
            let mut best_k = 0;
            for (k, &ei) in eis.iter().enumerate() {
                if ei > eis[best_k] {
                    best_k = k;
                }
            }
            let cand = candidates
                .into_iter()
                .nth(best_k)
                .expect("candidate set is non-empty");
            timings.training += span.end();

            let span = engine.telemetry().span("simulation");
            let metrics = engine.evaluate_one(&sim_target, &cand);
            timings.simulation += span.end();

            let idx = pop.push(cand, metrics, &specs, self.fom);
            trace.record(
                SimKind::Baseline,
                pop.fom(idx),
                pop.feasible(idx),
                pop.metrics(idx)[0],
            );
        }

        timings.total = run_span.end();
        RunResult {
            label: self.name(),
            trace,
            population: pop,
            timings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maopt_core::problems::{ConstrainedToy, Sphere};
    use maopt_core::runner::sample_initial_set;

    #[test]
    fn normal_functions_sane() {
        assert!((big_phi(0.0) - 0.5).abs() < 1e-7);
        assert!(big_phi(5.0) > 0.9999);
        assert!(big_phi(-5.0) < 1e-4);
        assert!((phi(0.0) - 0.39894).abs() < 1e-4);
    }

    #[test]
    fn ei_prefers_low_mean_and_high_variance() {
        let best = 1.0;
        let low_mean = expected_improvement(0.5, 0.01, best, 0.0);
        let high_mean = expected_improvement(2.0, 0.01, best, 0.0);
        assert!(low_mean > high_mean);
        let low_var = expected_improvement(1.5, 1e-6, best, 0.0);
        let high_var = expected_improvement(1.5, 1.0, best, 0.0);
        assert!(high_var > low_var, "uncertainty should add EI");
        assert!(expected_improvement(5.0, 1e-12, best, 0.0) >= 0.0);
    }

    #[test]
    fn bo_improves_sphere_over_initial_set() {
        let problem = Sphere::new(3);
        let init = sample_initial_set(&problem, 15, 3);
        let bo = BoOptimizer {
            n_candidates: 500,
            ..BoOptimizer::new()
        };
        let result = bo.optimize(&problem, &init, 20, 3, &EvalEngine::serial());
        assert!(result.best_fom() < result.trace.init_best_fom());
        assert_eq!(result.trace.num_sims(), 20);
    }

    #[test]
    fn bo_runs_on_constrained_problem() {
        let problem = ConstrainedToy::new(3);
        let init = sample_initial_set(&problem, 20, 4);
        let bo = BoOptimizer {
            n_candidates: 300,
            ..BoOptimizer::new()
        };
        let result = bo.optimize(&problem, &init, 10, 4, &EvalEngine::serial());
        assert_eq!(result.trace.num_sims(), 10);
        assert!(result.best_fom().is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let problem = Sphere::new(2);
        let init = sample_initial_set(&problem, 10, 5);
        let bo = BoOptimizer {
            n_candidates: 200,
            ..BoOptimizer::new()
        };
        let a = bo.optimize(&problem, &init, 5, 9, &EvalEngine::serial());
        let b = bo.optimize(&problem, &init, 5, 9, &EvalEngine::serial());
        assert_eq!(a.trace.best_fom_series(5), b.trace.best_fom_series(5));
    }

    #[test]
    fn parallel_acquisition_matches_serial_bitwise() {
        let problem = Sphere::new(3);
        let init = sample_initial_set(&problem, 12, 6);
        let bo = BoOptimizer {
            n_candidates: 300,
            ..BoOptimizer::new()
        };
        let serial = bo.optimize(&problem, &init, 8, 7, &EvalEngine::serial());
        let pooled = bo.optimize(&problem, &init, 8, 7, &EvalEngine::new(4));
        assert_eq!(serial.best_fom(), pooled.best_fom());
        assert_eq!(
            serial.trace.best_fom_series(8),
            pooled.trace.best_fom_series(8)
        );
    }
}
