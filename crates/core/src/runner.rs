//! Experiment runner: the paper's protocol of 10 independent runs per
//! method with a shared initial sample set per run, producing the
//! statistics reported in Tables II/IV/VI and the FoM-vs-simulations curves
//! of Fig. 5.

use std::sync::Arc;
use std::time::Duration;

use maopt_exec::{CounterSnapshot, EvalEngine, SimCache};
use maopt_obs::{Journal, Manifest, Record, RunEnd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::RunCheckpointer;
use crate::maopt::{MaOpt, MaOptConfig, RunResult};
use crate::problem::{EngineProblem, SizingProblem};

/// Anything that can run the paper's optimization protocol — MA-Opt and its
/// ablations implement this here; the BO baseline implements it in
/// `maopt-bo`.
pub trait Optimizer: Send + Sync {
    /// Display name for reports.
    fn name(&self) -> String;

    /// Runs one optimization with the given pre-simulated initial set,
    /// simulation budget and RNG seed, running every simulation and
    /// internal fan-out through the given [`EvalEngine`] (pass
    /// [`EvalEngine::serial`] for the plain serial path). Implementations
    /// must keep the result bitwise identical for any worker count, and
    /// fill [`RunResult::timings`] from spans on the engine's telemetry
    /// (see [`crate::RunTimings`]).
    fn optimize(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        engine: &EvalEngine,
    ) -> RunResult;

    /// Like [`Optimizer::optimize`], additionally streaming run internals
    /// into the given [`Journal`] and persisting crash-recovery
    /// checkpoints through the given [`RunCheckpointer`] (see
    /// [`crate::MaOpt::run_resumable`]). Implementations must keep results
    /// bitwise identical to [`Optimizer::optimize`] whether or not the
    /// journal is enabled.
    ///
    /// The default ignores the checkpointer — optimizers without
    /// checkpoint support (e.g. the BO baseline) simply run
    /// un-checkpointed — and wraps [`Optimizer::optimize`] between a
    /// [`Manifest`] and a [`RunEnd`] record, so optimizers without
    /// internal instrumentation still produce a valid, if shallow,
    /// journal.
    #[allow(clippy::too_many_arguments)]
    fn optimize_resumable(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        engine: &EvalEngine,
        journal: &Journal,
        ckpt: Option<&RunCheckpointer>,
    ) -> RunResult {
        let _ = ckpt;
        if !journal.enabled() {
            return self.optimize(problem, init, budget, seed, engine);
        }
        let (version, build) = Manifest::build_info();
        journal.write(&Record::Manifest(Manifest {
            label: self.name(),
            problem: problem.name().to_string(),
            dim: problem.dim(),
            num_metrics: problem.num_metrics(),
            seed,
            budget,
            init_size: init.len(),
            jobs: engine.jobs(),
            version,
            build,
            config: maopt_obs::json::Json::obj(vec![]),
        }));
        let before = engine.telemetry().snapshot();
        let result = self.optimize(problem, init, budget, seed, engine);
        journal.write(&Record::RunEnd(RunEnd {
            rounds: 0, // unknown for un-instrumented optimizers
            sims: result.trace.num_sims(),
            best_fom: result.best_fom(),
            success: result.success(),
            total_s: result.timings.total.as_secs_f64(),
            training_s: result.timings.training.as_secs_f64(),
            simulation_s: result.timings.simulation.as_secs_f64(),
            near_sampling_s: result.timings.near_sampling.as_secs_f64(),
            engine: engine.telemetry().snapshot().since(&before),
        }));
        journal.flush();
        result
    }
}

impl Optimizer for MaOptConfig {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn optimize(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        engine: &EvalEngine,
    ) -> RunResult {
        self.optimize_resumable(
            problem,
            init,
            budget,
            seed,
            engine,
            &Journal::disabled(),
            None,
        )
    }

    fn optimize_resumable(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        engine: &EvalEngine,
        journal: &Journal,
        ckpt: Option<&RunCheckpointer>,
    ) -> RunResult {
        let config = MaOptConfig {
            seed,
            ..self.clone()
        };
        MaOpt::new(config).run_resumable(problem, init.to_vec(), budget, engine, journal, ckpt)
    }
}

/// Samples and simulates `n` uniform random designs — the paper's `X_init`
/// — on a serial engine.
pub fn sample_initial_set(
    problem: &dyn SizingProblem,
    n: usize,
    seed: u64,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    sample_initial_set_with(problem, n, seed, &EvalEngine::serial())
}

/// [`sample_initial_set`] running its simulations on the given engine's
/// worker pool. The designs come from a serial RNG stream, so the result
/// is identical for any worker count.
pub fn sample_initial_set_with(
    problem: &dyn SizingProblem,
    n: usize,
    seed: u64,
    engine: &EvalEngine,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = problem.dim();
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(0.0..1.0)).collect())
        .collect();
    let _span = engine.telemetry().span("init_sampling");
    let metrics = engine.evaluate_batch(&EngineProblem(problem), &xs);
    xs.into_iter().zip(metrics).collect()
}

/// Aggregate statistics of one method over repeated runs — one row of the
/// paper's comparison tables.
#[derive(Debug, Clone)]
pub struct MethodStats {
    /// Method label.
    pub name: String,
    /// Runs that found a fully feasible design.
    pub successes: usize,
    /// Total runs.
    pub runs: usize,
    /// Best (minimum) target metric among feasible designs over all runs.
    pub min_target: Option<f64>,
    /// Mean of each run's final best FoM.
    pub avg_fom: f64,
    /// `log10` of the average FoM (the paper's reporting scale), or `None`
    /// when the average is non-positive and the logarithm is undefined
    /// (instead of a silent `NaN`/`-inf` poisoning downstream comparisons).
    pub log10_avg_fom: Option<f64>,
    /// Summed wall-clock runtime across runs.
    pub total_runtime: Duration,
    /// Mean best-FoM-so-far at each simulation count (Fig. 5 series).
    pub fom_curve: Vec<f64>,
    /// Evaluation-engine counters (simulations, cache hits/misses, retries,
    /// faults) accumulated while this method ran.
    pub exec: CounterSnapshot,
    /// The per-run results, for deeper inspection.
    pub results: Vec<RunResult>,
}

impl MethodStats {
    /// Success rate as a `"s/r"` string (paper notation).
    pub fn success_rate(&self) -> String {
        format!("{}/{}", self.successes, self.runs)
    }

    /// `log10(avg_fom)` with the undefined case mapped to `-inf` — the
    /// sentinel the report CSVs print (and `f64::from_str` round-trips).
    pub fn log10_avg_fom_or_neg_inf(&self) -> f64 {
        self.log10_avg_fom.unwrap_or(f64::NEG_INFINITY)
    }
}

/// Runs `runs` independent repetitions of one optimizer on a problem,
/// serially and without journals or checkpoints — [`run_method_resumable`]
/// on serial engines.
///
/// Run `r` uses the initial set `inits[r]` and seed `base_seed + r`, so that
/// different methods given the same `inits` see identical starting data —
/// the paper's protocol.
///
/// # Panics
///
/// Panics if `inits.len() < runs`.
pub fn run_method(
    optimizer: &dyn Optimizer,
    problem: &dyn SizingProblem,
    inits: &[Vec<(Vec<f64>, Vec<f64>)>],
    runs: usize,
    budget: usize,
    base_seed: u64,
) -> MethodStats {
    let engine = EvalEngine::serial();
    run_method_resumable(
        optimizer,
        problem,
        inits,
        runs,
        budget,
        base_seed,
        &engine,
        &engine,
        &[],
        &[],
    )
}

/// Runs `runs` independent repetitions of one optimizer with hierarchical
/// job budgeting, per-run journals and crash-safe checkpointing.
///
/// Repetitions fan out over `run_engine`'s pool while each repetition's
/// simulations and training lanes fan out over `engine`'s pool, so up to
/// `run_engine.jobs() * engine.jobs()` simulations are in flight at once.
/// Passing the same engine for both levels collapses to the single-pool
/// behaviour (run-level fan-out with inline per-run simulation, since a
/// pool never re-enters itself).
///
/// Run `r` streams its internals into `journals[r]` and persists its
/// state through `ckpts[r]` after every round, continuing from an
/// existing snapshot when that checkpointer has resume enabled. Runs
/// beyond `journals.len()` get the disabled no-op journal, and runs
/// beyond `ckpts.len()` are un-checkpointed; pass `&[]` for either to
/// switch it off.
///
/// Run `r` is fully determined by `inits[r]` and the per-run seed stream
/// `base_seed + r`, so per-run results — and every non-timing field of
/// the per-run journals — are bitwise identical for any worker count at
/// either level, with or without journals, and across an interrupted and
/// resumed run. To keep that true for the journals' engine counter
/// deltas, every run executes on a clone of `engine` carrying an
/// *isolated* [`maopt_exec::Telemetry`] — fresh counters and metrics,
/// but the same flight recorder when one is attached, so tracing never
/// perturbs journal bytes — and a fresh [`SimCache`] when `engine` has
/// one, at the cost of cross-run cache sharing. The per-run telemetry is
/// merged back into `engine`'s sink after each run, so aggregate
/// accounting is preserved; [`MethodStats::exec`] holds the engine
/// counters accumulated by this method.
///
/// # Panics
///
/// Panics if `inits.len() < runs`.
#[allow(clippy::too_many_arguments)]
pub fn run_method_resumable(
    optimizer: &dyn Optimizer,
    problem: &dyn SizingProblem,
    inits: &[Vec<(Vec<f64>, Vec<f64>)>],
    runs: usize,
    budget: usize,
    base_seed: u64,
    run_engine: &EvalEngine,
    engine: &EvalEngine,
    journals: &[Journal],
    ckpts: &[RunCheckpointer],
) -> MethodStats {
    assert!(inits.len() >= runs, "need one initial set per run");
    let disabled = Journal::disabled();
    let before = engine.telemetry().snapshot();
    let results: Vec<RunResult> = {
        let _span = engine
            .telemetry()
            .span(&format!("method:{}", optimizer.name()));
        run_engine.map((0..runs).collect(), |_, r| {
            let journal = journals.get(r).unwrap_or(&disabled);
            // Isolated telemetry: fresh counters per run (journal counter
            // deltas stay independent of sibling runs) while the flight
            // recorder, when attached, keeps one global timeline.
            let mut run_eng = engine
                .clone()
                .with_telemetry(Arc::new(engine.telemetry().isolated()));
            if engine.cache().is_some() {
                run_eng = run_eng.with_cache(Arc::new(SimCache::new()));
            }
            let result = optimizer.optimize_resumable(
                problem,
                &inits[r],
                budget,
                base_seed + r as u64,
                &run_eng,
                journal,
                ckpts.get(r),
            );
            engine.telemetry().merge_from(run_eng.telemetry());
            result
        })
    };
    let exec = engine.telemetry().snapshot().since(&before);
    summarize(optimizer.name(), results, budget, exec)
}

/// Builds the aggregate statistics from raw run results.
pub fn summarize(
    name: String,
    results: Vec<RunResult>,
    budget: usize,
    exec: CounterSnapshot,
) -> MethodStats {
    let runs = results.len();
    let successes = results.iter().filter(|r| r.success()).count();
    let min_target = results
        .iter()
        .filter_map(RunResult::best_feasible_target)
        .fold(None, |acc: Option<f64>, t| {
            Some(acc.map_or(t, |a| a.min(t)))
        });
    let final_foms: Vec<f64> = results.iter().map(RunResult::best_fom).collect();
    let avg_fom = maopt_linalg::stats::mean(&final_foms);
    let total_runtime = results.iter().map(|r| r.timings.total).sum();

    let mut fom_curve = vec![0.0; budget];
    for r in &results {
        let series = r.trace.best_fom_series(budget);
        for (acc, v) in fom_curve.iter_mut().zip(series) {
            *acc += v;
        }
    }
    for v in &mut fom_curve {
        *v /= runs.max(1) as f64;
    }

    MethodStats {
        name,
        successes,
        runs,
        min_target,
        avg_fom,
        // log10 of a non-positive average is NaN (or -inf at exactly zero);
        // report that case as an explicit None instead.
        log10_avg_fom: (avg_fom > 0.0).then(|| avg_fom.log10()),
        total_runtime,
        fom_curve,
        exec,
        results,
    }
}

/// Pre-simulates one initial set per run (shared across methods) on a
/// serial engine.
pub fn make_initial_sets(
    problem: &dyn SizingProblem,
    runs: usize,
    init_size: usize,
    base_seed: u64,
) -> Vec<Vec<(Vec<f64>, Vec<f64>)>> {
    make_initial_sets_with(problem, runs, init_size, base_seed, &EvalEngine::serial())
}

/// [`make_initial_sets`] running each set's simulations on the given
/// engine, one set after another.
pub fn make_initial_sets_with(
    problem: &dyn SizingProblem,
    runs: usize,
    init_size: usize,
    base_seed: u64,
    engine: &EvalEngine,
) -> Vec<Vec<(Vec<f64>, Vec<f64>)>> {
    make_initial_sets_nested(
        problem,
        runs,
        init_size,
        base_seed,
        &EvalEngine::serial(),
        engine,
    )
}

/// [`make_initial_sets_with`] fanning the per-run sets over `run_engine`'s
/// pool while each set's simulations run on `engine` — the same
/// hierarchical budgeting as [`run_method_resumable`]. Set `r` draws from
/// the serial seed stream `base_seed + 1000 * r` regardless of
/// scheduling, so the result is bitwise identical to the serial loop.
pub fn make_initial_sets_nested(
    problem: &dyn SizingProblem,
    runs: usize,
    init_size: usize,
    base_seed: u64,
    run_engine: &EvalEngine,
    engine: &EvalEngine,
) -> Vec<Vec<(Vec<f64>, Vec<f64>)>> {
    run_engine.map((0..runs).collect(), |_, r: usize| {
        sample_initial_set_with(
            problem,
            init_size,
            base_seed.wrapping_add(1000 * r as u64),
            engine,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{ConstrainedToy, Sphere};

    fn tiny(cfg: MaOptConfig) -> MaOptConfig {
        MaOptConfig {
            hidden: vec![16, 16],
            critic_steps: 15,
            actor_steps: 8,
            n_samples: 100,
            ..cfg
        }
    }

    #[test]
    fn initial_set_shapes_and_determinism() {
        let p = Sphere::new(3);
        let a = sample_initial_set(&p, 12, 5);
        let b = sample_initial_set(&p, 12, 5);
        assert_eq!(a.len(), 12);
        assert_eq!(a[0].0.len(), 3);
        assert_eq!(a[0].1.len(), 2);
        assert_eq!(a[3].0, b[3].0, "same seed, same designs");
        let c = sample_initial_set(&p, 12, 6);
        assert_ne!(a[0].0, c[0].0, "different seed, different designs");
    }

    #[test]
    fn run_method_aggregates_over_runs() {
        let p = ConstrainedToy::new(2);
        let inits = make_initial_sets(&p, 3, 15, 1);
        let stats = run_method(&tiny(MaOptConfig::ma_opt2(0)), &p, &inits, 3, 8, 100);
        assert_eq!(stats.runs, 3);
        assert_eq!(stats.results.len(), 3);
        assert_eq!(stats.fom_curve.len(), 8);
        assert!(stats.avg_fom.is_finite());
        assert!(stats.success_rate().ends_with("/3"));
        // Best-so-far curves are monotone non-increasing.
        for w in stats.fom_curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn min_target_only_counts_feasible_runs() {
        let p = ConstrainedToy::new(2);
        let inits = make_initial_sets(&p, 2, 25, 2);
        let stats = run_method(&tiny(MaOptConfig::ma_opt(1)), &p, &inits, 2, 16, 50);
        if stats.successes > 0 {
            let t = stats.min_target.unwrap();
            assert!(t.is_finite() && t > 0.0);
        } else {
            assert!(stats.min_target.is_none());
        }
    }

    #[test]
    fn optimizer_trait_respects_seed_override() {
        let p = Sphere::new(2);
        let init = sample_initial_set(&p, 10, 9);
        let cfg = tiny(MaOptConfig::ma_opt2(999));
        let engine = EvalEngine::serial();
        let overridden = cfg.optimize(&p, &init, 4, 1, &engine);
        let direct = MaOpt::new(MaOptConfig {
            seed: 1,
            ..cfg.clone()
        })
        .run(&p, init.clone(), 4);
        let own_seed = cfg.optimize(&p, &init, 4, 999, &engine);

        let bits = |r: &RunResult| {
            let entries: Vec<_> = r
                .trace
                .entries()
                .iter()
                .map(|e| (e.sim, e.kind, e.fom.to_bits(), e.best_fom.to_bits()))
                .collect();
            let pop: Vec<Vec<u64>> = (0..r.population.len())
                .map(|i| {
                    r.population
                        .design(i)
                        .iter()
                        .chain(r.population.metrics(i))
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect();
            (entries, pop)
        };
        assert_eq!(
            bits(&overridden),
            bits(&direct),
            "the seed argument must replace the config's seed"
        );
        assert_ne!(
            bits(&overridden),
            bits(&own_seed),
            "a run at the config's own seed must differ"
        );
    }
}
