//! Integration tests of the evaluation engine wired through `maopt-core`:
//! parallel-vs-serial bitwise equivalence, simulation-cache transparency,
//! and fault handling exercised through a fault-injecting synthetic
//! [`SizingProblem`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use maopt_core::problems::{ConstrainedToy, Sphere};
use maopt_core::runner::{
    make_initial_sets, run_method, run_method_resumable, sample_initial_set,
    sample_initial_set_with,
};
use maopt_core::{
    EngineProblem, FomConfig, MaOptConfig, NearSampler, ParamSpec, SizingProblem, Spec,
};
use maopt_exec::{EvalEngine, FaultPolicy, SimCache, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny(cfg: MaOptConfig) -> MaOptConfig {
    MaOptConfig {
        hidden: vec![16, 16],
        critic_steps: 10,
        actor_steps: 5,
        n_samples: 64,
        ..cfg
    }
}

/// A 2-parameter problem whose evaluation faults on demand: calls 1..=`bad`
/// (per process-wide counter) either panic or return NaN metrics, later
/// calls succeed. Lets tests drive the engine's retry path through the real
/// `SizingProblem` → `EngineProblem` route.
struct FaultyProblem {
    params: Vec<ParamSpec>,
    specs: Vec<Spec>,
    calls: AtomicU64,
    faults_before_success: u64,
    panic_mode: bool,
}

impl FaultyProblem {
    fn new(faults_before_success: u64, panic_mode: bool) -> Self {
        FaultyProblem {
            params: vec![
                ParamSpec::linear("x0", "", 0.0, 1.0),
                ParamSpec::linear("x1", "", 0.0, 1.0),
            ],
            specs: vec![Spec::at_most("m", 1, 1.0)],
            calls: AtomicU64::new(0),
            faults_before_success,
            panic_mode,
        }
    }
}

impl SizingProblem for FaultyProblem {
    fn name(&self) -> &str {
        "faulty"
    }

    fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    fn metric_names(&self) -> Vec<String> {
        vec!["target".into(), "m".into()]
    }

    fn specs(&self) -> &[Spec] {
        &self.specs
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        if call < self.faults_before_success {
            assert!(!self.panic_mode, "injected simulator crash");
            return vec![f64::NAN, f64::NAN];
        }
        vec![x[0] + x[1], x[0]]
    }

    fn failure_metrics(&self) -> Vec<f64> {
        vec![1e6, 1e6]
    }
}

fn assert_stats_identical(
    a: &maopt_core::runner::MethodStats,
    b: &maopt_core::runner::MethodStats,
    budget: usize,
) {
    assert_eq!(a.successes, b.successes);
    assert_eq!(a.min_target, b.min_target);
    assert_eq!(a.avg_fom, b.avg_fom, "bitwise, not approximately");
    assert_eq!(a.fom_curve, b.fom_curve);
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.best_fom(), rb.best_fom());
        assert_eq!(
            ra.trace.best_fom_series(budget),
            rb.trace.best_fom_series(budget)
        );
    }
}

#[test]
fn run_method_parallel_matches_serial_bitwise() {
    let p = ConstrainedToy::new(2);
    let (runs, budget) = (3, 8);
    let inits = make_initial_sets(&p, runs, 12, 1);
    let cfg = tiny(MaOptConfig::ma_opt(0));

    let serial = run_method(&cfg, &p, &inits, runs, budget, 100);
    let engine = EvalEngine::new(4);
    let parallel = run_method_resumable(
        &cfg,
        &p,
        &inits,
        runs,
        budget,
        100,
        &engine,
        &engine,
        &[],
        &[],
    );

    assert_stats_identical(&serial, &parallel, budget);
    assert_eq!(
        parallel.exec.sims,
        (runs * budget) as u64,
        "one sim per budget unit per run"
    );
}

#[test]
fn run_method_cache_is_transparent() {
    let p = Sphere::new(3);
    let (runs, budget) = (2, 6);
    let inits = make_initial_sets(&p, runs, 10, 2);
    let cfg = tiny(MaOptConfig::ma_opt2(0));

    let plain = run_method(&cfg, &p, &inits, runs, budget, 50);
    let engine = EvalEngine::new(3).with_cache(Arc::new(SimCache::new()));
    let cached = run_method_resumable(
        &cfg,
        &p,
        &inits,
        runs,
        budget,
        50,
        &engine,
        &engine,
        &[],
        &[],
    );

    assert_stats_identical(&plain, &cached, budget);
    let exec = &cached.exec;
    assert_eq!(
        exec.sims + exec.cache_hits,
        (runs * budget) as u64,
        "every evaluation is either simulated or served from the cache"
    );
}

#[test]
fn sample_initial_set_parallel_matches_serial() {
    let p = Sphere::new(4);
    let serial = sample_initial_set_with(&p, 25, 9, &EvalEngine::serial());
    let parallel = sample_initial_set_with(&p, 25, 9, &EvalEngine::new(5));
    assert_eq!(serial, parallel);
    // And the engine-less wrapper agrees too.
    assert_eq!(serial, sample_initial_set(&p, 25, 9));
}

#[test]
fn near_sampling_chunked_ranking_matches_serial() {
    // Train a small critic so predictions are non-trivial, then check the
    // pooled chunked ranking proposes the bitwise-identical candidate.
    let p = Sphere::new(2);
    let init = sample_initial_set(&p, 40, 17);
    let specs = p.specs().to_vec();
    let fom_cfg = FomConfig::default();
    let mut pop = maopt_core::Population::new();
    for (x, m) in init {
        pop.push(x, m, &specs, fom_cfg);
    }
    let mut critic = maopt_core::Critic::new(2, 2, &[16, 16], 3e-3, 5);
    critic.refit_scaler(&pop);
    let mut rng = StdRng::seed_from_u64(6);
    critic.train(&pop, 100, 16, &mut rng);

    let ns = NearSampler::new(333, 0.1);
    let x_opt = [0.4, 0.6];
    let mut rng_a = StdRng::seed_from_u64(77);
    let mut rng_b = StdRng::seed_from_u64(77);
    let serial = ns.propose_scored_with(
        &critic,
        &x_opt,
        &specs,
        fom_cfg,
        &mut rng_a,
        &EvalEngine::serial(),
    );
    let pooled = ns.propose_scored_with(
        &critic,
        &x_opt,
        &specs,
        fom_cfg,
        &mut rng_b,
        &EvalEngine::new(4),
    );
    assert_eq!(serial.0, pooled.0);
    assert_eq!(serial.1.to_bits(), pooled.1.to_bits());
}

#[test]
fn transient_faults_are_retried_through_sizing_problem() {
    let p = FaultyProblem::new(2, false);
    let engine = EvalEngine::new(1).with_policy(FaultPolicy {
        max_retries: 2,
        deadline: None,
    });
    let out = engine.evaluate_one(&EngineProblem(&p), &[0.25, 0.5]);
    assert_eq!(out, vec![0.75, 0.25], "third attempt succeeds");
    let snap = engine.telemetry().snapshot();
    assert_eq!(snap.sims, 3);
    assert_eq!(snap.retries, 2);
    assert_eq!(snap.failures, 0);
}

#[test]
fn exhausted_retries_emit_the_problem_penalty_vector() {
    let p = FaultyProblem::new(u64::MAX, false);
    let engine = EvalEngine::new(1).with_policy(FaultPolicy {
        max_retries: 1,
        deadline: None,
    });
    let out = engine.evaluate_one(&EngineProblem(&p), &[0.1, 0.2]);
    assert_eq!(
        out,
        p.failure_metrics(),
        "the circuit's own penalty vector, not all-inf"
    );
    let snap = engine.telemetry().snapshot();
    assert_eq!(snap.sims, 2, "initial attempt + one retry");
    assert_eq!(snap.failures, 1);
}

#[test]
fn evaluation_timeout_is_a_counted_fault() {
    struct SlowProblem(FaultyProblem);
    impl SizingProblem for SlowProblem {
        fn name(&self) -> &str {
            "slow"
        }
        fn params(&self) -> &[ParamSpec] {
            self.0.params()
        }
        fn metric_names(&self) -> Vec<String> {
            self.0.metric_names()
        }
        fn specs(&self) -> &[Spec] {
            self.0.specs()
        }
        fn evaluate(&self, x: &[f64]) -> Vec<f64> {
            std::thread::sleep(Duration::from_millis(5));
            vec![x[0], x[1]]
        }
    }
    let p = SlowProblem(FaultyProblem::new(0, false));
    let engine = EvalEngine::new(1).with_policy(FaultPolicy {
        max_retries: 0,
        deadline: Some(Duration::from_millis(1)),
    });
    let out = engine.evaluate_one(&EngineProblem(&p), &[0.3, 0.4]);
    assert_eq!(
        out,
        vec![f64::INFINITY, f64::INFINITY],
        "default penalty when not overridden"
    );
    assert_eq!(engine.telemetry().snapshot().timeouts, 1);
}

#[test]
fn engine_problem_panic_is_isolated_and_penalized() {
    let p = FaultyProblem::new(1, true);
    let engine = EvalEngine::new(1).with_policy(FaultPolicy {
        max_retries: 0,
        deadline: None,
    });
    let out = engine.evaluate_one(&EngineProblem(&p), &[0.0, 0.0]);
    assert_eq!(out, p.failure_metrics());
    let snap = engine.telemetry().snapshot();
    assert_eq!(snap.panics, 1);
    assert_eq!(snap.failures, 1);
}

#[test]
fn telemetry_spans_cover_engine_phases() {
    let p = Sphere::new(2);
    let inits = make_initial_sets(&p, 1, 8, 3);
    let engine = EvalEngine::new(2).with_telemetry(Arc::new(Telemetry::new()));
    let cfg = tiny(MaOptConfig::ma_opt2(0));
    let _ = run_method_resumable(&cfg, &p, &inits, 1, 4, 9, &engine, &engine, &[], &[]);
    let spans = engine.telemetry().span_stats();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"actor_training"), "{names:?}");
    assert!(names.contains(&"simulation"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("method:")), "{names:?}");
}
