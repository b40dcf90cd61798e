//! A human-readable sizing report of a run's best feasible design.

use std::fmt::Write as _;

use crate::maopt::RunResult;
use crate::problem::SizingProblem;

/// Renders the best feasible design as a human-readable sizing report.
pub fn sizing_report(result: &RunResult, problem: &dyn SizingProblem) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "method: {}", result.label);
    match result.population.best_feasible() {
        None => {
            let _ = writeln!(out, "no fully feasible design found");
        }
        Some(idx) => {
            let pop = &result.population;
            let _ = writeln!(out, "best feasible design (FoM {:.4e}):", pop.fom(idx));
            let phys = problem.denormalize(pop.design(idx));
            for (p, v) in problem.params().iter().zip(phys) {
                let _ = writeln!(out, "  {:>6} = {:>12.4} {}", p.name, v, p.unit);
            }
            let _ = writeln!(out, "metrics:");
            for (name, v) in problem.metric_names().iter().zip(pop.metrics(idx)) {
                let _ = writeln!(out, "  {name:>22} = {v:.6e}");
            }
            let _ = writeln!(out, "spec check:");
            for s in problem.specs() {
                let v = pop.metrics(idx)[s.metric_index];
                let _ = writeln!(
                    out,
                    "  {:>22} : {} (value {v:.4e}, bound {:.4e})",
                    s.name,
                    if s.is_met(v) { "met" } else { "VIOLATED" },
                    s.bound
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::ConstrainedToy;
    use crate::runner::{sample_initial_set, Optimizer};
    use crate::MaOptConfig;

    fn small_result() -> (ConstrainedToy, RunResult) {
        let p = ConstrainedToy::new(3);
        let init = sample_initial_set(&p, 15, 3);
        let cfg = MaOptConfig {
            hidden: vec![16, 16],
            critic_steps: 10,
            actor_steps: 5,
            n_samples: 50,
            ..MaOptConfig::ma_opt(3)
        };
        let r = cfg.optimize(&p, &init, 9, 3, &maopt_exec::EvalEngine::serial());
        (p, r)
    }

    #[test]
    fn sizing_report_mentions_every_spec() {
        let (p, r) = small_result();
        let report = sizing_report(&r, &p);
        if r.success() {
            for s in p.specs() {
                assert!(
                    report.contains(&s.name),
                    "missing spec {} in:\n{report}",
                    s.name
                );
            }
            assert!(report.contains("best feasible design"));
        } else {
            assert!(report.contains("no fully feasible design"));
        }
    }
}
