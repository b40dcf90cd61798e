//! A run's `RunTimings` are its own telemetry spans: every field is a sum
//! of `SpanGuard::end` readings, so on a fresh telemetry it equals the
//! matching span totals exactly — no second clock.

use std::time::Duration;

use maopt_bo::BoOptimizer;
use maopt_core::baselines::ParticleSwarm;
use maopt_core::problems::ConstrainedToy;
use maopt_core::runner::{sample_initial_set, Optimizer};
use maopt_core::{MaOptConfig, RunTimings};
use maopt_exec::EvalEngine;

fn tiny(cfg: MaOptConfig) -> MaOptConfig {
    MaOptConfig {
        hidden: vec![16, 16],
        critic_steps: 15,
        actor_steps: 8,
        n_samples: 100,
        t_ns: 2,
        ..cfg
    }
}

/// Runs `opt` once on a new engine (and so a fresh telemetry); returns
/// the run's timings and a lookup of `(total, count)` per span name.
fn run(opt: &dyn Optimizer, seed: u64) -> (RunTimings, impl Fn(&str) -> (Duration, u64)) {
    let problem = ConstrainedToy::new(3);
    let init = sample_initial_set(&problem, 25, seed);
    let engine = EvalEngine::new(2);
    let result = opt.optimize(&problem, &init, 24, seed, &engine);
    let stats = engine.telemetry().span_stats();
    let span = move |name: &str| {
        stats
            .iter()
            .find(|s| s.name == name)
            .map_or((Duration::ZERO, 0), |s| (s.total, s.count))
    };
    (result.timings, span)
}

#[test]
fn maopt_timings_are_its_span_totals() {
    for cfg in [MaOptConfig::ma_opt(32), MaOptConfig::dnn_opt(32)] {
        let label = cfg.label.clone();
        let near_sampling = cfg.near_sampling;
        let (t, span) = run(&tiny(cfg), 32);
        assert_eq!(span("run").1, 1, "{label}: one run span");
        assert_eq!(t.total, span("run").0, "{label}");
        assert_eq!(t.simulation, span("simulation").0, "{label}");
        assert_eq!(t.near_sampling, span("near_sampling").0, "{label}");
        assert_eq!(
            t.training,
            span("critic_training").0 + span("elite_upkeep").0 + span("actor_training").0,
            "{label}"
        );
        let rounds = span("actor_training").1;
        assert!(rounds > 0, "{label}: actor rounds ran");
        assert_eq!(span("critic_training").1, rounds, "{label}");
        assert_eq!(span("elite_upkeep").1, rounds, "{label}");
        assert_eq!(
            span("near_sampling").1 > 0,
            near_sampling,
            "{label}: near-sampling fires only where enabled"
        );
    }
}

#[test]
fn bo_timings_are_its_span_totals() {
    let bo = BoOptimizer {
        n_candidates: 200,
        ..BoOptimizer::new()
    };
    let (t, span) = run(&bo, 5);
    assert_eq!(t.total, span("run").0);
    assert_eq!(t.simulation, span("simulation").0);
    assert_eq!(t.training, span("bo_fit").0 + span("bo_acquisition").0);
    assert_eq!(span("bo_fit").1, 24, "one fit per simulation");
    assert_eq!(t.near_sampling, Duration::ZERO);
}

#[test]
fn pso_timings_are_its_span_totals() {
    let (t, span) = run(&ParticleSwarm::new(), 7);
    assert_eq!(t.total, span("run").0);
    assert_eq!(t.simulation, span("simulation").0);
    assert_eq!(span("simulation").1, 24, "one span per simulation");
    assert_eq!(t.training, Duration::ZERO);
}
