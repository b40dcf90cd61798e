//! Cross-crate integration tests: the full optimization stack
//! (linalg → nn → core → bo) on fast synthetic problems.

use ma_opt::bo::BoOptimizer;
use ma_opt::core::problems::{ConstrainedToy, RosenbrockDisk, Sphere};
use ma_opt::core::runner::{
    make_initial_sets, run_method, run_method_resumable, sample_initial_set, Optimizer,
};
use ma_opt::core::{MaOpt, MaOptConfig, RunResult};
use ma_opt::exec::EvalEngine;
use maopt_obs::{read_journal, Journal, Record};

/// Shrinks network/training sizes so debug-mode tests stay fast while
/// exercising identical code paths.
fn small(cfg: MaOptConfig) -> MaOptConfig {
    MaOptConfig {
        hidden: vec![32, 32],
        critic_steps: 40,
        actor_steps: 20,
        n_samples: 150,
        ..cfg
    }
}

#[test]
fn all_four_variants_improve_on_sphere() {
    let problem = Sphere::new(4);
    let init = sample_initial_set(&problem, 20, 3);
    let mut improved = 0;
    for cfg in [
        MaOptConfig::dnn_opt(3),
        MaOptConfig::ma_opt1(3),
        MaOptConfig::ma_opt2(3),
        MaOptConfig::ma_opt(3),
    ] {
        let label = cfg.label.clone();
        let result = MaOpt::new(small(cfg)).run(&problem, init.clone(), 30);
        // Never worse than the initial set (best-so-far is monotone)…
        assert!(
            result.best_fom() <= result.trace.init_best_fom(),
            "{label} regressed: {} vs {}",
            result.best_fom(),
            result.trace.init_best_fom()
        );
        if result.best_fom() < result.trace.init_best_fom() - 1e-12 {
            improved += 1;
        }
    }
    // …and at least two of the four variants must strictly beat a
    // 20-sample random init within 30 simulations (individual variants can
    // stall on a lucky init draw with test-sized networks).
    assert!(improved >= 2, "only {improved}/4 variants improved");
}

#[test]
fn maopt_reaches_feasibility_on_constrained_toy() {
    let problem = ConstrainedToy::new(4);
    let inits = make_initial_sets(&problem, 2, 25, 5);
    let stats = run_method(&small(MaOptConfig::ma_opt(5)), &problem, &inits, 2, 30, 17);
    assert_eq!(stats.successes, 2, "both runs should satisfy the toy specs");
    assert!(stats.min_target.unwrap() > 0.0);
}

#[test]
fn shared_initial_sets_make_methods_comparable() {
    // The defining property of the paper's protocol: at sim 0 every method
    // starts from the same best-init FoM.
    let problem = ConstrainedToy::new(3);
    let init = sample_initial_set(&problem, 20, 9);
    let a = small(MaOptConfig::dnn_opt(0)).optimize(&problem, &init, 6, 1, &EvalEngine::serial());
    let b = small(MaOptConfig::ma_opt2(0)).optimize(&problem, &init, 6, 1, &EvalEngine::serial());
    let bo = BoOptimizer {
        n_candidates: 100,
        ..BoOptimizer::new()
    };
    let c = bo.optimize(&problem, &init, 6, 1, &EvalEngine::serial());
    assert_eq!(a.trace.init_best_fom(), b.trace.init_best_fom());
    assert_eq!(a.trace.init_best_fom(), c.trace.init_best_fom());
}

#[test]
fn bo_and_maopt_traces_have_identical_budget_accounting() {
    let problem = Sphere::new(3);
    let init = sample_initial_set(&problem, 12, 2);
    let budget = 9;
    let bo = BoOptimizer {
        n_candidates: 100,
        ..BoOptimizer::new()
    };
    let r_bo = bo.optimize(&problem, &init, budget, 4, &EvalEngine::serial());
    let r_ma =
        small(MaOptConfig::ma_opt2(4)).optimize(&problem, &init, budget, 4, &EvalEngine::serial());
    assert_eq!(r_bo.trace.num_sims(), budget);
    assert_eq!(r_ma.trace.num_sims(), budget);
    assert_eq!(r_bo.population.len(), init.len() + budget);
    assert_eq!(r_ma.population.len(), init.len() + budget);
}

#[test]
fn best_fom_series_is_monotone_for_every_method() {
    let problem = RosenbrockDisk::new(3);
    let init = sample_initial_set(&problem, 15, 6);
    let methods: Vec<Box<dyn Optimizer>> = vec![
        Box::new(BoOptimizer {
            n_candidates: 100,
            ..BoOptimizer::new()
        }),
        Box::new(small(MaOptConfig::dnn_opt(6))),
        Box::new(small(MaOptConfig::ma_opt(6))),
    ];
    for m in methods {
        let r = m.optimize(&problem, &init, 12, 8, &EvalEngine::serial());
        let series = r.trace.best_fom_series(12);
        for w in series.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "{} series not monotone", r.label);
        }
        assert!(series[11] <= r.trace.init_best_fom());
    }
}

#[test]
fn near_sampling_stays_local_to_the_incumbent() {
    // MA-Opt's NS proposals must land within δ of the then-best design.
    let problem = ConstrainedToy::new(3);
    let init = sample_initial_set(&problem, 30, 10);
    let cfg = MaOptConfig {
        delta: 0.03,
        ..small(MaOptConfig::ma_opt(10))
    };
    let result = MaOpt::new(cfg).run(&problem, init, 30);
    // Reconstruct: every NearSample entry's design is in the population at
    // init_len + sim − 1; check it lies in the δ-box of some earlier design.
    let entries = result.trace.entries();
    let init_len = entries.iter().filter(|e| e.sim == 0).count();
    for e in entries
        .iter()
        .filter(|e| e.kind == ma_opt::core::trace::SimKind::NearSample)
    {
        let idx = init_len + e.sim - 1;
        let x = result.population.design(idx);
        let near_someone = (0..idx).any(|j| {
            result
                .population
                .design(j)
                .iter()
                .zip(x)
                .all(|(a, b)| (a - b).abs() <= 0.03 + 1e-9)
        });
        assert!(
            near_someone,
            "NS design {idx} not within delta of any predecessor"
        );
    }
}

/// Every bit of a run's trace and final population.
fn run_bits(r: &RunResult) -> (Vec<[u64; 4]>, Vec<Vec<u64>>) {
    let trace = r
        .trace
        .entries()
        .iter()
        .map(|e| {
            [
                e.sim as u64,
                e.fom.to_bits(),
                e.best_fom.to_bits(),
                e.target.to_bits(),
            ]
        })
        .collect();
    let pop = (0..r.population.len())
        .map(|i| {
            r.population
                .design(i)
                .iter()
                .chain(r.population.metrics(i))
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    (trace, pop)
}

#[test]
fn bo_writes_a_shallow_journal_through_run_method_resumable() {
    // BO has no internal instrumentation: the default
    // `Optimizer::optimize_resumable` brackets its run with a manifest and
    // a run-end record, and must not change the result.
    let problem = Sphere::new(3);
    let (init_size, budget, seed) = (12, 7, 40);
    let inits = make_initial_sets(&problem, 1, init_size, 21);
    let bo = BoOptimizer {
        n_candidates: 100,
        ..BoOptimizer::new()
    };
    let path = std::env::temp_dir().join(format!(
        "maopt-bo-shallow-journal-{}.jsonl",
        std::process::id()
    ));
    let journal = Journal::create(&path).unwrap();
    let engine = EvalEngine::serial();
    let journaled = run_method_resumable(
        &bo,
        &problem,
        &inits,
        1,
        budget,
        seed,
        &engine,
        &engine,
        std::slice::from_ref(&journal),
        &[],
    );
    drop(journal);
    let plain = run_method(&bo, &problem, &inits, 1, budget, seed);

    let records = read_journal(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let Some(Record::Manifest(m)) = records.first() else {
        panic!("first record must be the manifest, got {records:?}");
    };
    assert_eq!(m.label, "BO");
    assert_eq!(m.seed, seed);
    assert_eq!(m.budget, budget);
    assert_eq!(m.init_size, init_size);
    let Some(Record::RunEnd(end)) = records.last() else {
        panic!("last record must be the run end, got {records:?}");
    };
    assert_eq!(end.rounds, 0, "BO reports no rounds");
    assert_eq!(end.sims, budget);
    assert_eq!(
        end.engine.sims, budget as u64,
        "engine delta covers the run"
    );
    assert_eq!(records.len(), 2, "a shallow journal has no mid-run records");

    assert_eq!(
        run_bits(&journaled.results[0]),
        run_bits(&plain.results[0]),
        "journaling must not change BO's result"
    );
}
