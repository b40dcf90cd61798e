//! CSV exporters for runs, traces and populations — so results can be
//! analyzed outside Rust (pandas, gnuplot, …) without any serialization
//! dependency.

use std::fmt::Write as _;

use crate::maopt::RunResult;
use crate::problem::SizingProblem;
use crate::trace::SimKind;

fn kind_str(kind: SimKind) -> &'static str {
    match kind {
        SimKind::Init => "init",
        SimKind::Actor => "actor",
        SimKind::NearSample => "near_sample",
        SimKind::Baseline => "baseline",
    }
}

/// Renders a run's trace as CSV: one row per simulation with FoM,
/// best-so-far, feasibility, target metric and provenance.
pub fn trace_csv(result: &RunResult) -> String {
    let mut out = String::from("sim,kind,fom,best_fom,feasible,target\n");
    for e in result.trace.entries() {
        let _ = writeln!(
            out,
            "{},{},{:.9e},{:.9e},{},{:.9e}",
            e.sim,
            kind_str(e.kind),
            e.fom,
            e.best_fom,
            e.feasible,
            e.target
        );
    }
    out
}

/// Renders the full population as CSV: normalized design variables, then
/// physical values, then the metric vector.
pub fn population_csv(result: &RunResult, problem: &dyn SizingProblem) -> String {
    let pop = &result.population;
    let mut out = String::from("index,fom,feasible");
    for p in problem.params() {
        let _ = write!(out, ",{}_norm", p.name);
    }
    for p in problem.params() {
        let _ = write!(
            out,
            ",{}_{}",
            p.name,
            if p.unit.is_empty() { "phys" } else { p.unit }
        );
    }
    for m in problem.metric_names() {
        let _ = write!(out, ",{m}");
    }
    out.push('\n');
    for i in 0..pop.len() {
        let _ = write!(out, "{},{:.9e},{}", i, pop.fom(i), pop.feasible(i));
        for v in pop.design(i) {
            let _ = write!(out, ",{v:.6}");
        }
        for v in problem.denormalize(pop.design(i)) {
            let _ = write!(out, ",{v:.6e}");
        }
        for v in pop.metrics(i) {
            let _ = write!(out, ",{v:.6e}");
        }
        out.push('\n');
    }
    out
}

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
    fn trace_csv_has_one_row_per_entry() {
        let (_, r) = small_result();
        let csv = trace_csv(&r);
        assert!(csv.starts_with("sim,kind,"));
        assert_eq!(csv.lines().count(), 1 + r.trace.entries().len());
        assert!(csv.contains("init"));
        assert!(csv.contains("actor"));
    }

    #[test]
    fn population_csv_columns_are_complete() {
        let (p, r) = small_result();
        let csv = population_csv(&r, &p);
        let header = csv.lines().next().unwrap();
        // 3 fixed + d norm + d phys + metrics
        let expected = 3 + 3 + 3 + p.metric_names().len();
        assert_eq!(header.split(',').count(), expected);
        assert_eq!(csv.lines().count(), 1 + r.population.len());
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
