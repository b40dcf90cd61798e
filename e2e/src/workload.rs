//! The four workloads, their set-up, and the unit of work each repeats.
//!
//! A *unit* is one optimization run (the `ota-*` workloads) or one sweep
//! slice (`sim-sweep`). A workload's *protocol* is its fixed list of
//! units; the measured phase runs the protocol once and then repeats it
//! while time remains, and every repeat must reproduce its first result
//! bit for bit.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use maopt_circuits::{LdoRegulator, ThreeStageTia, TwoStageOta};
use maopt_core::runner::{make_initial_sets_with, run_method_resumable};
use maopt_core::trace::SimKind;
use maopt_core::{
    fom, EngineProblem, FomConfig, MaOptConfig, OpState, Population, RunCheckpointer, SizingProblem,
};
use maopt_exec::{EvalEngine, SimCache, Telemetry, TraceRecorder};
use maopt_obs::Journal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Fnv;
use crate::timed::{Sample, Timed};

/// Pool workers: one per core of the two-core reference machine. There
/// is no run-level fan-out, so this is the process's whole worker count.
pub const JOBS: usize = 2;

/// How many sweep designs step away from each of the best cold designs.
const SWEEP_PARENTS: usize = 16;
/// Per-coordinate radius of a sweep neighbour (the paper's near-sampling δ).
const SWEEP_DELTA: f64 = 0.05;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MA-Opt on the two-stage OTA.
    OtaMaopt,
    /// DNN-Opt on the two-stage OTA.
    OtaDnnopt,
    /// Simulation only: cold random designs and warm-started neighbours.
    SimSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::OtaMaopt, Workload::OtaDnnopt, Workload::SimSweep];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OtaMaopt => "ota-maopt",
            Workload::OtaDnnopt => "ota-dnnopt",
            Workload::SimSweep => "sim-sweep",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the unit is an optimizer run (as opposed to a sweep slice).
    pub fn is_optimizer(self) -> bool {
        self != Workload::SimSweep
    }
}

/// Protocol sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protocol {
    /// Initial random designs per run (the paper's `X_init`).
    pub init: usize,
    /// Optimization simulations per run.
    pub budget: usize,
    /// Runs of `ota-maopt`.
    pub maopt_runs: usize,
    /// Runs of `ota-dnnopt`.
    pub dnnopt_runs: usize,
    /// Slices of `sim-sweep`.
    pub sweep_slices: usize,
    /// OTA designs per sweep slice; TIA gets three times as many, LDO as
    /// many. Half of each circuit's designs are cold, half warm.
    pub sweep_designs: usize,
}

impl Protocol {
    /// The benchmark protocol: the paper's 100 initial samples plus 200
    /// simulations per run, and a 30 000-simulation sweep.
    pub const PAPER: Protocol = Protocol {
        init: 100,
        budget: 200,
        maopt_runs: 4,
        dnnopt_runs: 2,
        sweep_slices: 30,
        sweep_designs: 200,
    };

    /// Number of units in `workload`'s protocol.
    pub fn units(&self, workload: Workload) -> usize {
        match workload {
            Workload::OtaMaopt => self.maopt_runs,
            Workload::OtaDnnopt => self.dnnopt_runs,
            Workload::SimSweep => self.sweep_slices,
        }
    }

    fn sweep_counts(&self) -> [usize; 3] {
        [
            self.sweep_designs,
            3 * self.sweep_designs,
            self.sweep_designs,
        ]
    }
}

/// Where one unit's wall time went, in seconds. The five parts add up to
/// the optimizer's own wall clock for the unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    /// The `actor_training` span: actor lanes and their proposals.
    pub actor: f64,
    /// Training time outside the actor span: critic training and elite
    /// upkeep (critic training has no span of its own).
    pub critic_elite: f64,
    /// Near-sampling candidate scoring.
    pub ns_score: f64,
    /// Waiting for simulations.
    pub sim_wait: f64,
    /// The rest: checkpoint and journal writes, and bookkeeping.
    pub persist: f64,
}

impl Attribution {
    /// Sum of the parts.
    pub fn total(&self) -> f64 {
        self.actor + self.critic_elite + self.ns_score + self.sim_wait + self.persist
    }

    /// Adds `other` part by part.
    pub fn add(&mut self, other: &Attribution) {
        self.actor += other.actor;
        self.critic_elite += other.critic_elite;
        self.ns_score += other.ns_score;
        self.sim_wait += other.sim_wait;
        self.persist += other.persist;
    }
}

/// The result of one unit.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Protocol index of the unit.
    pub index: usize,
    /// Wall time of the call into the optimizer or sweep.
    pub wall: Duration,
    /// FNV-1a over every simulated metric vector and each best FoM.
    pub digest: u64,
    /// Best FoM per run (optimizers) or per circuit (sweep).
    pub best_foms: Vec<f64>,
    /// Best-so-far FoM after each optimization simulation (optimizers).
    pub best_series: Vec<f64>,
    /// Simulations the unit asked for.
    pub attempted: usize,
    /// Whether the unit used exactly its budget of simulations.
    pub budget_ok: bool,
    /// Where the wall time went.
    pub attribution: Attribution,
    /// Seconds to the first simulation meeting every spec; `None` when
    /// the run never met them. Optimizers only.
    pub feasible_after: Option<f64>,
    /// Every simulation the unit ran.
    pub samples: Vec<Sample>,
    /// The designs the unit simulated, with their metrics: the run's
    /// whole population, or the sweep slice's OTA designs.
    pub population: Population,
}

/// A workload after set-up: circuits built, pool spawned, initial sets
/// simulated.
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    /// Protocol sizes.
    pub protocol: Protocol,
    /// Workload seed.
    pub seed: u64,
    /// Circuits, each behind the timing wrapper: the OTA alone for the
    /// optimizers; OTA, TIA and LDO for the sweep.
    pub problems: Vec<Timed>,
    /// The measured-phase engine: the set-up pool with fresh telemetry,
    /// plus the method's simulation cache for the optimizers.
    pub engine: EvalEngine,
    /// Pre-simulated initial set of each protocol run.
    pub inits: Vec<Vec<(Vec<f64>, Vec<f64>)>>,
    /// Directory for the durable run's journal and checkpoints.
    pub work: PathBuf,
}

impl Bench {
    /// Builds the circuits, spawns the pool and simulates the initial
    /// sets (optimizers) or one design per circuit (sweep, so every
    /// topology's lazily built solver structures exist before timing).
    /// Returns the bench and how long building the circuits took.
    pub fn setup(
        workload: Workload,
        protocol: Protocol,
        seed: u64,
        work: &Path,
    ) -> (Bench, Duration) {
        let t = Instant::now();
        let problems: Vec<Timed> = if workload.is_optimizer() {
            vec![Timed::new(0, Box::new(TwoStageOta::new()))]
        } else {
            vec![
                Timed::new(0, Box::new(TwoStageOta::new())),
                Timed::new(1, Box::new(ThreeStageTia::new())),
                Timed::new(2, Box::new(LdoRegulator::new())),
            ]
        };
        let build = t.elapsed();
        let engine = EvalEngine::new(JOBS);
        let inits = if workload.is_optimizer() {
            make_initial_sets_with(
                &problems[0],
                protocol.units(workload),
                protocol.init,
                seed,
                &engine,
            )
        } else {
            for p in &problems {
                engine.evaluate_one(&EngineProblem(p), &vec![0.5; p.dim()]);
            }
            Vec::new()
        };
        for p in &problems {
            p.take();
        }
        let mut engine = engine.with_telemetry(Arc::new(Telemetry::new()));
        if workload.is_optimizer() {
            engine = engine.with_cache(Arc::new(SimCache::new()));
        }
        let bench = Bench {
            workload,
            protocol,
            seed,
            problems,
            engine,
            inits,
            work: work.to_path_buf(),
        };
        (bench, build)
    }

    /// Runs protocol unit `index` on `engine` (the measured engine, or a
    /// traced clone of it). With a recorder, the unit's wall time is also
    /// recorded as an `e2e.run` span, the root of the self-time tree.
    pub fn run_unit(
        &self,
        index: usize,
        engine: &EvalEngine,
        tracer: Option<&TraceRecorder>,
    ) -> Unit {
        let t0_ns = tracer.map(|tr| tr.now_ns());
        let unit = if self.workload.is_optimizer() {
            self.optimizer_unit(index, engine, &[], &[])
        } else {
            self.sweep_unit(index, engine)
        };
        if let (Some(tr), Some(t0)) = (tracer, t0_ns) {
            tr.span("e2e.run", t0, unit.wall.as_nanos() as u64, None);
        }
        unit
    }

    /// The optimizer configuration of an `ota-*` workload.
    pub fn config(&self) -> MaOptConfig {
        match self.workload {
            Workload::OtaDnnopt => MaOptConfig::dnn_opt(self.seed),
            _ => MaOptConfig::ma_opt(self.seed),
        }
    }

    /// Run 0 with a run journal and a checkpoint every round, as each
    /// `maopt-serve` job runs. Its files stay in [`Bench::work`] until the
    /// next durable run. Persistence must not change the trajectory.
    ///
    /// # Errors
    ///
    /// When the journal or its directory cannot be created.
    pub fn durable_run(&self, engine: &EvalEngine) -> Result<Unit, String> {
        // A fresh directory, so every durable run writes its generations
        // from scratch.
        let _ = std::fs::remove_dir_all(&self.work);
        std::fs::create_dir_all(&self.work)
            .map_err(|e| format!("cannot create {}: {e}", self.work.display()))?;
        let journal = Journal::create(self.work.join("run.jsonl"))
            .map_err(|e| format!("cannot create journal: {e}"))?;
        let ckpt = RunCheckpointer::new(self.work.join("run.ckpt"));
        Ok(self.optimizer_unit(0, engine, &[journal], &[ckpt]))
    }

    fn optimizer_unit(
        &self,
        r: usize,
        engine: &EvalEngine,
        journals: &[Journal],
        ckpts: &[RunCheckpointer],
    ) -> Unit {
        let problem = &self.problems[0];
        let config = self.config();
        let actor_before = span_total(engine, "actor_training");
        let start = Instant::now();
        let stats = run_method_resumable(
            &config,
            problem,
            &self.inits[r..=r],
            1,
            self.protocol.budget,
            self.seed + 7 + r as u64,
            &EvalEngine::serial(),
            engine,
            journals,
            ckpts,
        );
        let wall = start.elapsed();
        let samples = problem.take();
        let run = &stats.results[0];
        let t = &run.timings;
        let actor = span_total(engine, "actor_training") - actor_before;
        let training = t.training.as_secs_f64();
        let attribution = Attribution {
            actor,
            critic_elite: training - actor,
            ns_score: t.near_sampling.as_secs_f64(),
            sim_wait: t.simulation.as_secs_f64(),
            persist: t.total.as_secs_f64()
                - training
                - t.simulation.as_secs_f64()
                - t.near_sampling.as_secs_f64(),
        };
        let init_feasible = run
            .trace
            .entries()
            .iter()
            .any(|e| e.kind == SimKind::Init && e.feasible);
        let feasible_after = if init_feasible {
            Some(0.0)
        } else {
            samples
                .iter()
                .filter(|s| s.feasible)
                .map(|s| s.end().saturating_duration_since(start).as_secs_f64())
                .reduce(f64::min)
        };
        let mut digest = Fnv::default();
        for i in 0..run.population.len() {
            digest.f64s(run.population.metrics(i));
        }
        digest.f64(run.best_fom());
        Unit {
            index: r,
            wall,
            digest: digest.finish(),
            best_foms: vec![run.best_fom()],
            best_series: run.trace.best_fom_series(self.protocol.budget),
            attempted: self.protocol.budget,
            budget_ok: run.trace.num_sims() == self.protocol.budget,
            attribution,
            feasible_after,
            samples,
            population: run.population.clone(),
        }
    }

    fn sweep_unit(&self, slice: usize, engine: &EvalEngine) -> Unit {
        let sim_before = span_total(engine, "simulation");
        let start = Instant::now();
        let results: Vec<_> = self
            .problems
            .iter()
            .zip(self.protocol.sweep_counts())
            .enumerate()
            .map(|(c, (problem, n))| {
                let seed = self.seed.wrapping_add(1000 * (3 * slice + c) as u64);
                sweep_circuit(problem, n, seed, engine)
            })
            .collect();
        let wall = start.elapsed();
        let mut digest = Fnv::default();
        let mut best_foms = Vec::with_capacity(results.len());
        let mut population = Population::new();
        let mut attempted = 0;
        for (c, (problem, (designs, metrics))) in self.problems.iter().zip(results).enumerate() {
            for m in &metrics {
                digest.f64s(m);
            }
            let specs = problem.specs();
            let best = metrics
                .iter()
                .map(|m| fom(m, specs, FomConfig::default()))
                .fold(f64::INFINITY, f64::min);
            digest.f64(best);
            best_foms.push(best);
            attempted += designs.len();
            if c == 0 {
                for (x, m) in designs.into_iter().zip(metrics) {
                    population.push(x, m, specs, FomConfig::default());
                }
            }
        }
        let samples: Vec<Sample> = self.problems.iter().flat_map(Timed::take).collect();
        let sim_wait = span_total(engine, "simulation") - sim_before;
        Unit {
            index: slice,
            wall,
            digest: digest.finish(),
            best_foms,
            best_series: Vec::new(),
            attempted,
            budget_ok: samples.len() == attempted,
            attribution: Attribution {
                sim_wait,
                persist: wall.as_secs_f64() - sim_wait,
                ..Attribution::default()
            },
            feasible_after: None,
            samples,
            population,
        }
    }
}

/// One circuit's share of a sweep slice: `n / 2` cold random designs
/// (the initial-sample traffic), then `n / 2` neighbours within
/// [`SWEEP_DELTA`] of the [`SWEEP_PARENTS`] best cold designs, each
/// warm-started from its parent's operating point (the proposal
/// traffic). Returns the designs and metrics in simulation order.
fn sweep_circuit(
    problem: &Timed,
    n: usize,
    seed: u64,
    engine: &EvalEngine,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = problem.dim();
    let half = n / 2;
    let target = EngineProblem(problem);
    let cold: Vec<Vec<f64>> = (0..half)
        .map(|_| (0..d).map(|_| rng.random_range(0.0..1.0)).collect())
        .collect();
    let cold_out = {
        let _span = engine.telemetry().span("simulation");
        engine.evaluate_batch_seeded(&target, &cold, &vec![None; half])
    };
    let foms: Vec<f64> = cold_out
        .iter()
        .map(|(m, _)| fom(m, problem.specs(), FomConfig::default()))
        .collect();
    let mut order: Vec<usize> = (0..half).collect();
    order.sort_by(|&a, &b| foms[a].total_cmp(&foms[b]).then(a.cmp(&b)));
    let parents = &order[..SWEEP_PARENTS.min(half)];
    let warm: Vec<Vec<f64>> = (0..half)
        .map(|j| {
            cold[parents[j % parents.len()]]
                .iter()
                .map(|&v| (v + rng.random_range(-SWEEP_DELTA..SWEEP_DELTA)).clamp(0.0, 1.0))
                .collect()
        })
        .collect();
    let seeds: Vec<Option<&OpState>> = (0..half)
        .map(|j| cold_out[parents[j % parents.len()]].1.as_ref())
        .collect();
    let warm_out = {
        let _span = engine.telemetry().span("simulation");
        engine.evaluate_batch_seeded(&target, &warm, &seeds)
    };
    let designs = cold.into_iter().chain(warm).collect();
    let metrics = cold_out
        .into_iter()
        .chain(warm_out)
        .map(|(m, _)| m)
        .collect();
    (designs, metrics)
}

/// Accumulated seconds of the span `name` on `engine`'s telemetry.
fn span_total(engine: &EvalEngine, name: &str) -> f64 {
    engine
        .telemetry()
        .span_stats()
        .into_iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.total.as_secs_f64())
}
