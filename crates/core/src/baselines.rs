//! Classic simulation-based baselines from the paper's related work:
//! particle swarm optimization (ref. \[7\]), differential evolution
//! (ref. \[8\]) and plain random search. All three implement
//! [`crate::runner::Optimizer`], so they slot into the experiment harness
//! next to BO and the RL-inspired methods. They simulate serially on the
//! calling thread and ignore the engine they are handed.
//!
//! The paper's §I argument against these population methods is their *low
//! convergence rate* at small simulation budgets — easily verified here by
//! adding them to a comparison (see the `compare_methods` example).

use std::time::Instant;

use maopt_exec::EvalEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fom::FomConfig;
use crate::maopt::{RunResult, RunTimings};
use crate::population::Population;
use crate::problem::SizingProblem;
use crate::runner::Optimizer;
use crate::trace::{SimKind, Trace};

/// Uniform random search over the design box — the floor any optimizer
/// must beat.
#[derive(Debug, Clone, Default)]
pub struct RandomSearch;

impl RandomSearch {
    /// Creates the baseline.
    pub fn new() -> Self {
        RandomSearch
    }
}

impl Optimizer for RandomSearch {
    fn name(&self) -> String {
        "Random".into()
    }

    fn optimize(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        _engine: &EvalEngine,
    ) -> RunResult {
        let t0 = Instant::now();
        let specs = problem.specs().to_vec();
        let fom_cfg = FomConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pop = Population::new();
        let mut trace = Trace::new();
        for (x, m) in init {
            let idx = pop.push(x.clone(), m.clone(), &specs, fom_cfg);
            trace.record_init(pop.fom(idx), pop.feasible(idx), pop.metrics(idx)[0]);
        }
        let d = problem.dim();
        let mut timings = RunTimings::default();
        for _ in 0..budget {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(0.0..1.0)).collect();
            let s0 = Instant::now();
            let m = problem.evaluate(&x);
            timings.simulation += s0.elapsed();
            let idx = pop.push(x, m, &specs, fom_cfg);
            trace.record(
                SimKind::Baseline,
                pop.fom(idx),
                pop.feasible(idx),
                pop.metrics(idx)[0],
            );
        }
        timings.total = t0.elapsed();
        RunResult {
            label: self.name(),
            trace,
            population: pop,
            timings,
        }
    }
}

/// Particle swarm optimization over the FoM (Kennedy–Eberhart velocities
/// with inertia and cognitive/social pulls, clamped to the unit box).
#[derive(Debug, Clone)]
pub struct ParticleSwarm {
    /// Swarm size (particles per generation).
    pub swarm: usize,
    /// Inertia weight `w`.
    pub inertia: f64,
    /// Cognitive coefficient `c1` (pull toward each particle's best).
    pub cognitive: f64,
    /// Social coefficient `c2` (pull toward the global best).
    pub social: f64,
}

impl Default for ParticleSwarm {
    fn default() -> Self {
        ParticleSwarm {
            swarm: 20,
            inertia: 0.72,
            cognitive: 1.49,
            social: 1.49,
        }
    }
}

impl ParticleSwarm {
    /// Creates the default configuration.
    pub fn new() -> Self {
        ParticleSwarm::default()
    }
}

impl Optimizer for ParticleSwarm {
    fn name(&self) -> String {
        "PSO".into()
    }

    fn optimize(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        _engine: &EvalEngine,
    ) -> RunResult {
        let t0 = Instant::now();
        let specs = problem.specs().to_vec();
        let fom_cfg = FomConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let d = problem.dim();

        let mut pop = Population::new();
        let mut trace = Trace::new();
        for (x, m) in init {
            let idx = pop.push(x.clone(), m.clone(), &specs, fom_cfg);
            trace.record_init(pop.fom(idx), pop.feasible(idx), pop.metrics(idx)[0]);
        }

        // Seed the swarm from the best initial designs.
        let elite = pop.elite_indices(self.swarm);
        let mut xs: Vec<Vec<f64>> = elite.iter().map(|&i| pop.design(i).to_vec()).collect();
        while xs.len() < self.swarm {
            xs.push((0..d).map(|_| rng.random_range(0.0..1.0)).collect());
        }
        let mut vel: Vec<Vec<f64>> = (0..self.swarm)
            .map(|_| (0..d).map(|_| rng.random_range(-0.1..0.1)).collect())
            .collect();
        let mut pbest = xs.clone();
        let mut pbest_fom: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(k, _)| elite.get(k).map(|&i| pop.fom(i)).unwrap_or(f64::INFINITY))
            .collect();
        let (mut gbest, mut gbest_fom) = {
            let b = pop.best().expect("non-empty init");
            (pop.design(b).to_vec(), pop.fom(b))
        };

        let mut timings = RunTimings::default();
        let mut sims = 0usize;
        'outer: loop {
            for k in 0..self.swarm {
                if sims >= budget {
                    break 'outer;
                }
                // Velocity and position update.
                for t in 0..d {
                    let r1: f64 = rng.random_range(0.0..1.0);
                    let r2: f64 = rng.random_range(0.0..1.0);
                    vel[k][t] = self.inertia * vel[k][t]
                        + self.cognitive * r1 * (pbest[k][t] - xs[k][t])
                        + self.social * r2 * (gbest[t] - xs[k][t]);
                    vel[k][t] = vel[k][t].clamp(-0.25, 0.25);
                    xs[k][t] = (xs[k][t] + vel[k][t]).clamp(0.0, 1.0);
                }
                let s0 = Instant::now();
                let m = problem.evaluate(&xs[k]);
                timings.simulation += s0.elapsed();
                let idx = pop.push(xs[k].clone(), m, &specs, fom_cfg);
                trace.record(
                    SimKind::Baseline,
                    pop.fom(idx),
                    pop.feasible(idx),
                    pop.metrics(idx)[0],
                );
                sims += 1;
                let f = pop.fom(idx);
                if f < pbest_fom[k] {
                    pbest_fom[k] = f;
                    pbest[k] = xs[k].clone();
                }
                if f < gbest_fom {
                    gbest_fom = f;
                    gbest = xs[k].clone();
                }
            }
        }
        timings.total = t0.elapsed();
        RunResult {
            label: self.name(),
            trace,
            population: pop,
            timings,
        }
    }
}

/// Differential evolution (`DE/rand/1/bin`) over the FoM.
#[derive(Debug, Clone)]
pub struct DifferentialEvolution {
    /// Population size.
    pub np: usize,
    /// Differential weight `F`.
    pub f: f64,
    /// Crossover probability `CR`.
    pub cr: f64,
}

impl Default for DifferentialEvolution {
    fn default() -> Self {
        DifferentialEvolution {
            np: 20,
            f: 0.6,
            cr: 0.9,
        }
    }
}

impl DifferentialEvolution {
    /// Creates the default configuration.
    pub fn new() -> Self {
        DifferentialEvolution::default()
    }
}

impl Optimizer for DifferentialEvolution {
    fn name(&self) -> String {
        "DE".into()
    }

    fn optimize(
        &self,
        problem: &dyn SizingProblem,
        init: &[(Vec<f64>, Vec<f64>)],
        budget: usize,
        seed: u64,
        _engine: &EvalEngine,
    ) -> RunResult {
        let t0 = Instant::now();
        let specs = problem.specs().to_vec();
        let fom_cfg = FomConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let d = problem.dim();

        let mut pop = Population::new();
        let mut trace = Trace::new();
        for (x, m) in init {
            let idx = pop.push(x.clone(), m.clone(), &specs, fom_cfg);
            trace.record_init(pop.fom(idx), pop.feasible(idx), pop.metrics(idx)[0]);
        }

        // DE population = best-of-init designs.
        let elite = pop.elite_indices(self.np);
        let mut xs: Vec<Vec<f64>> = elite.iter().map(|&i| pop.design(i).to_vec()).collect();
        let mut fs: Vec<f64> = elite.iter().map(|&i| pop.fom(i)).collect();
        while xs.len() < self.np {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(0.0..1.0)).collect();
            xs.push(x);
            fs.push(f64::INFINITY);
        }

        let mut timings = RunTimings::default();
        let mut sims = 0usize;
        'outer: loop {
            for k in 0..self.np {
                if sims >= budget {
                    break 'outer;
                }
                // Mutation: pick three distinct partners.
                let mut pick = || loop {
                    let c = rng.random_range(0..self.np);
                    if c != k {
                        return c;
                    }
                };
                let (a, b, c) = (pick(), pick(), pick());
                let j_rand = rng.random_range(0..d);
                let mut trial = xs[k].clone();
                for t in 0..d {
                    if t == j_rand || rng.random_range(0.0..1.0) < self.cr {
                        trial[t] = (xs[a][t] + self.f * (xs[b][t] - xs[c][t])).clamp(0.0, 1.0);
                    }
                }
                let s0 = Instant::now();
                let m = problem.evaluate(&trial);
                timings.simulation += s0.elapsed();
                let idx = pop.push(trial.clone(), m, &specs, fom_cfg);
                trace.record(
                    SimKind::Baseline,
                    pop.fom(idx),
                    pop.feasible(idx),
                    pop.metrics(idx)[0],
                );
                sims += 1;
                let f = pop.fom(idx);
                if f < fs[k] {
                    fs[k] = f;
                    xs[k] = trial;
                }
            }
        }
        timings.total = t0.elapsed();
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
    use crate::problems::{ConstrainedToy, Sphere};
    use crate::runner::sample_initial_set;

    fn improves(opt: &dyn Optimizer, seed: u64) -> (f64, f64) {
        let p = Sphere::new(4);
        let init = sample_initial_set(&p, 20, seed);
        let r = opt.optimize(&p, &init, 60, seed, &EvalEngine::serial());
        assert_eq!(r.trace.num_sims(), 60, "{} budget accounting", r.label);
        (r.trace.init_best_fom(), r.best_fom())
    }

    #[test]
    fn random_search_eventually_improves() {
        let (init, best) = improves(&RandomSearch::new(), 1);
        assert!(best <= init);
    }

    #[test]
    fn pso_improves_sphere() {
        let (init, best) = improves(&ParticleSwarm::new(), 2);
        assert!(best < init, "PSO should improve: {init} -> {best}");
        assert!(
            best < 0.05,
            "PSO on a smooth sphere should get close: {best}"
        );
    }

    #[test]
    fn de_improves_sphere() {
        let (init, best) = improves(&DifferentialEvolution::new(), 3);
        assert!(best < init, "DE should improve: {init} -> {best}");
        assert!(
            best < 0.05,
            "DE on a smooth sphere should get close: {best}"
        );
    }

    #[test]
    fn pso_beats_random_on_average() {
        let p = ConstrainedToy::new(6);
        let mut pso_wins = 0;
        for seed in 0..5 {
            let init = sample_initial_set(&p, 20, seed);
            let pso = ParticleSwarm::new().optimize(&p, &init, 60, seed, &EvalEngine::serial());
            let rnd = RandomSearch::new().optimize(&p, &init, 60, seed, &EvalEngine::serial());
            if pso.best_fom() <= rnd.best_fom() {
                pso_wins += 1;
            }
        }
        assert!(pso_wins >= 3, "PSO won only {pso_wins}/5 against random");
    }

    #[test]
    fn deterministic_given_seed() {
        let p = Sphere::new(3);
        let init = sample_initial_set(&p, 10, 4);
        for opt in [
            &ParticleSwarm::new() as &dyn Optimizer,
            &DifferentialEvolution::new(),
        ] {
            let a = opt.optimize(&p, &init, 20, 9, &EvalEngine::serial());
            let b = opt.optimize(&p, &init, 20, 9, &EvalEngine::serial());
            assert_eq!(a.trace.best_fom_series(20), b.trace.best_fom_series(20));
        }
    }

    #[test]
    fn traces_mark_baseline_kind() {
        let p = Sphere::new(2);
        let init = sample_initial_set(&p, 8, 5);
        let r = DifferentialEvolution::new().optimize(&p, &init, 5, 5, &EvalEngine::serial());
        assert!(r
            .trace
            .entries()
            .iter()
            .filter(|e| e.sim > 0)
            .all(|e| e.kind == SimKind::Baseline));
    }
}
