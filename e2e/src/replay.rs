//! Layer replays: each hot optimizer, NN, GEMM and checkpoint call,
//! re-run in isolation at the paper's shapes on a workload's final
//! population, so a per-layer change shows without the rest of the run
//! around it.

use std::path::Path;
use std::time::{Duration, Instant};

use maopt_circuits::TwoStageOta;
use maopt_ckpt::{load_snapshot_gen, save_snapshot_gen, snapshot_store};
use maopt_core::{
    Actor, CriticEnsemble, EliteSet, MaOpt, MaOptConfig, NearSampler, Population, RunCheckpointer,
    SizingProblem,
};
use maopt_exec::EvalEngine;
use maopt_linalg::kernels::matmul_into;
use maopt_linalg::Mat;
use maopt_nn::{mse_loss_grad_into, Activation, Adam, Mlp, Workspace};
use maopt_obs::Journal;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{median, percentile};

/// Repetitions of each millisecond-scale replay; the median is reported.
const REPS: usize = 5;
/// Elite rebuilds timed (each takes microseconds).
const ELITE_REPS: usize = 200;
/// NN steps timed per replay.
const NN_STEPS: usize = 100;
/// Snapshot saves timed, each durable (fsync) like a checkpointed round.
const SAVES: usize = 20;
/// Batch rows of a training GEMM (the paper's `N_b`).
const TRAIN_ROWS: usize = 32;
/// Rows of a near-sampling scoring GEMM (the paper's `N_samples`).
const INFER_ROWS: usize = 2000;

/// Replay timings.
#[derive(Debug, Clone, Default)]
pub struct Replays {
    /// One `CriticEnsemble::train` call (all its steps), ms.
    pub critic_train_ms: f64,
    /// One `Actor::train` call, ms.
    pub actor_train_ms: f64,
    /// One `NearSampler::propose_scored_with` call on the pool, ms.
    pub ns_score_ms: f64,
    /// One `EliteSet::rebuild` over the population, µs.
    pub elite_rebuild_us: f64,
    /// One critic training step of the bare MLP, µs.
    pub critic_step_us: f64,
    /// One actor step through a frozen critic of the bare MLPs, µs.
    pub actor_step_us: f64,
    /// `matmul_into` at a hidden layer's training shape, GFLOP/s.
    pub gemm_gflops_train: f64,
    /// `matmul_into` at a hidden layer's scoring shape, GFLOP/s.
    pub gemm_gflops_infer: f64,
    /// Size of the replayed snapshot generation file.
    pub snapshot_bytes: u64,
    /// Median durable snapshot save, ms.
    pub save_ms_p50: f64,
    /// Median snapshot load, ms.
    pub load_ms: f64,
}

/// GEMM floating-point operations of one critic training step at the
/// paper's shapes: forward, weight-gradient and input-gradient products
/// of every layer, `2·b·in·out` each.
pub fn gemm_flops_per_critic_step(problem: &dyn SizingProblem) -> u64 {
    let config = MaOptConfig::ma_opt(0);
    let widths = critic_widths(problem, &config);
    widths
        .windows(2)
        .map(|w| 3 * 2 * (config.batch_size * w[0] * w[1]) as u64)
        .sum()
}

fn critic_widths(problem: &dyn SizingProblem, config: &MaOptConfig) -> Vec<usize> {
    let mut widths = vec![2 * problem.dim()];
    widths.extend_from_slice(&config.hidden);
    widths.push(problem.num_metrics());
    widths
}

/// Runs every replay on `pop`, a population of the two-stage OTA.
/// Scoring runs on `engine`; checkpoint files go under `work`.
///
/// # Errors
///
/// When a checkpoint cannot be written or read back.
pub fn run(
    pop: &Population,
    seed: u64,
    engine: &EvalEngine,
    work: &Path,
) -> Result<Replays, String> {
    let problem = TwoStageOta::new();
    let config = MaOptConfig::ma_opt(seed);
    let specs = problem.specs();
    let (d, m1) = (problem.dim(), problem.num_metrics());
    let mut out = Replays::default();

    let mut critic = None;
    out.critic_train_ms = ms(median_of(REPS, || {
        let mut c = CriticEnsemble::new(1, d, m1, &config.hidden, config.critic_lr, seed);
        c.refit_scaler(pop);
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Instant::now();
        c.train(pop, config.critic_steps, config.batch_size, &mut rng);
        let dt = t.elapsed();
        critic = Some(c);
        dt
    }));
    let critic = critic.expect("REPS > 0");

    let mut elite = EliteSet::new(config.n_es);
    out.elite_rebuild_us = us(median_of(ELITE_REPS, || {
        let t = Instant::now();
        elite.rebuild(pop, None);
        t.elapsed()
    }));
    let (lb, ub) = elite.bounds();

    out.actor_train_ms = ms(median_of(REPS, || {
        let mut actor = Actor::new(
            d,
            &config.hidden,
            config.action_scale,
            config.actor_lr,
            seed,
        );
        let mut local = critic.member(0).clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Instant::now();
        actor.train(
            &mut local,
            pop,
            specs,
            config.fom,
            (&lb, &ub),
            config.lambda,
            config.actor_steps,
            config.batch_size,
            &mut rng,
        );
        t.elapsed()
    }));

    let best = pop.best().expect("a replay population is never empty");
    let sampler = NearSampler::new(config.n_samples, config.delta);
    out.ns_score_ms = ms(median_of(REPS, || {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Instant::now();
        sampler.propose_scored_with(
            &critic,
            pop.design(best),
            specs,
            config.fom,
            &mut rng,
            engine,
        );
        t.elapsed()
    }));

    let widths = critic_widths(&problem, &config);
    out.critic_step_us = us(critic_step(&widths, config.critic_lr, seed) / NN_STEPS as u32);
    out.actor_step_us = us(actor_step(&widths, d, &config, seed) / NN_STEPS as u32);
    let h = config.hidden[0];
    out.gemm_gflops_train = gemm_gflops(TRAIN_ROWS, h, h);
    out.gemm_gflops_infer = gemm_gflops(INFER_ROWS, h, h);

    replay_checkpoints(pop, &problem, &config, engine, work, &mut out)?;
    Ok(out)
}

/// Snapshot save/load at the real state size: one checkpointed actor
/// round on top of `pop` produces the snapshot, which is then saved
/// [`SAVES`] times into a fresh generation store and loaded back.
fn replay_checkpoints(
    pop: &Population,
    problem: &TwoStageOta,
    config: &MaOptConfig,
    engine: &EvalEngine,
    work: &Path,
    out: &mut Replays,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let init: Vec<(Vec<f64>, Vec<f64>)> = (0..pop.len())
        .map(|i| (pop.design(i).to_vec(), pop.metrics(i).to_vec()))
        .collect();
    let source = work.join("source.ckpt");
    MaOpt::new(config.clone()).run_resumable(
        problem,
        init,
        config.n_actors,
        engine,
        &Journal::disabled(),
        Some(&RunCheckpointer::new(&source)),
    );
    let load = |base: &Path| {
        let store = snapshot_store(base);
        match load_snapshot_gen(&store) {
            Ok(Some(load)) => {
                let path = store
                    .generation_path(load.generation)
                    .map_err(|e| e.to_string())?;
                let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                Ok((load.value, bytes))
            }
            Ok(None) => Err(format!("no snapshot under {}", base.display())),
            Err(e) => Err(format!("cannot load {}: {e}", base.display())),
        }
    };
    let (snapshot, bytes) = load(&source)?;
    out.snapshot_bytes = bytes;

    let target = work.join("replay.ckpt");
    let store = snapshot_store(&target);
    let mut saves = Vec::with_capacity(SAVES);
    for _ in 0..SAVES {
        let t = Instant::now();
        save_snapshot_gen(&store, &snapshot).map_err(|e| format!("snapshot save failed: {e}"))?;
        saves.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.save_ms_p50 = percentile(&saves, 0.5);
    let mut loads = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        load(&target)?;
        loads.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.load_ms = median(&loads);
    let _ = std::fs::remove_dir_all(work);
    Ok(())
}

/// [`NN_STEPS`] critic training steps of the bare MLP on one fixed batch:
/// the forward, loss, backward and Adam calls `Critic::train` makes per
/// step, without the pseudo-sample draw.
fn critic_step(widths: &[usize], lr: f64, seed: u64) -> Duration {
    let mut mlp = Mlp::new(widths, Activation::Relu, seed);
    let mut adam = Adam::new(&mlp, lr);
    let x = filled(TRAIN_ROWS, widths[0], 1);
    let target = filled(TRAIN_ROWS, widths[widths.len() - 1], 2);
    let mut ws = Workspace::new();
    let mut grad = Mat::default();
    let t = Instant::now();
    for _ in 0..NN_STEPS {
        let pred = mlp.forward_ws(&x, &mut ws);
        mse_loss_grad_into(pred, &target, &mut grad);
        mlp.zero_grad();
        mlp.backward_ws(&grad, &mut ws, true);
        adam.step(&mut mlp);
    }
    t.elapsed()
}

/// [`NN_STEPS`] actor steps of the bare MLPs: actor forward, critic
/// forward on `(x, Δx)`, critic input-gradient, actor backward and Adam —
/// the network work of `Actor::train` without its FoM and penalty terms.
fn actor_step(critic_widths: &[usize], d: usize, config: &MaOptConfig, seed: u64) -> Duration {
    let mut widths = vec![d];
    widths.extend_from_slice(&config.hidden);
    widths.push(d);
    let mut actor = Mlp::with_output_activation(&widths, Activation::Relu, Activation::Tanh, seed);
    let mut adam = Adam::new(&actor, config.actor_lr);
    let mut critic = Mlp::new(critic_widths, Activation::Relu, seed ^ 1);
    let states = filled(TRAIN_ROWS, d, 3);
    let grad_q = filled(TRAIN_ROWS, critic_widths[critic_widths.len() - 1], 4);
    let (mut actor_ws, mut critic_ws) = (Workspace::new(), Workspace::new());
    let mut critic_in = Mat::zeros(TRAIN_ROWS, 2 * d);
    let mut grad_actions = Mat::zeros(TRAIN_ROWS, d);
    let t = Instant::now();
    for _ in 0..NN_STEPS {
        let actions = actor.forward_ws(&states, &mut actor_ws);
        for r in 0..TRAIN_ROWS {
            let row = critic_in.row_mut(r);
            row[..d].copy_from_slice(states.row(r));
            for (dst, &a) in row[d..].iter_mut().zip(actions.row(r)) {
                *dst = a * config.action_scale;
            }
        }
        critic.forward_ws(&critic_in, &mut critic_ws);
        let grad_in = critic.backward_ws(&grad_q, &mut critic_ws, false);
        for r in 0..TRAIN_ROWS {
            for (dst, &g) in grad_actions.row_mut(r).iter_mut().zip(&grad_in.row(r)[d..]) {
                *dst = g * config.action_scale;
            }
        }
        actor.zero_grad();
        actor.backward_ws(&grad_actions, &mut actor_ws, true);
        adam.step(&mut actor);
    }
    t.elapsed()
}

/// Throughput of `matmul_into` for an `m×k` by `k×n` product: the median
/// over [`REPS`] timed blocks of enough products to take about a
/// millisecond each.
fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a = filled(m, k, 5);
    let b = filled(k, n, 6);
    let mut c = Mat::default();
    let flops = 2.0 * (m * k * n) as f64;
    let per_block = ((1e6 / flops).ceil() as usize).max(1);
    let block = median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..per_block {
            matmul_into(std::hint::black_box(&a), std::hint::black_box(&b), &mut c);
        }
        t.elapsed()
    });
    flops * per_block as f64 / block.as_secs_f64() / 1e9
}

/// A deterministic, zero-free `rows×cols` matrix (zeros would take the
/// kernels' skip paths and flatter the timings).
fn filled(rows: usize, cols: usize, salt: usize) -> Mat {
    Mat::from_fn(rows, cols, |i, j| {
        0.05 + ((i * 31 + j * 17 + salt * 7) % 97) as f64 / 97.0
    })
}

fn median_of(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let times: Vec<f64> = (0..reps).map(|_| f().as_secs_f64()).collect();
    Duration::from_secs_f64(median(&times))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
