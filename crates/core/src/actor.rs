//! Actor networks (Eqs. 5–6): each actor maps a design `x` to a proposed
//! change `Δx` and is trained to minimize the FoM of the critic's
//! prediction, plus a large penalty for stepping outside the elite set's
//! bounding box.

use maopt_linalg::Mat;
use maopt_nn::{Activation, Adam, Mlp, Workspace};
use rand::rngs::StdRng;
use rand::Rng;

use crate::critic::{Critic, Surrogate};
use crate::elite::boundary_violation_into;
use crate::fom::FomConfig;
use crate::population::Population;
use crate::problem::Spec;

/// One actor network `θ^{μᵢ}`.
#[derive(Debug, Clone)]
pub struct Actor {
    mlp: Mlp,
    adam: Adam,
    dim: usize,
    action_scale: f64,
}

impl Actor {
    /// Creates an actor for `dim` design variables; hidden widths as in the
    /// paper (`[100, 100]`). The tanh output is scaled by `action_scale`
    /// (in normalized design-space units).
    pub fn new(dim: usize, hidden: &[usize], action_scale: f64, lr: f64, seed: u64) -> Self {
        assert!(action_scale > 0.0, "action scale must be positive");
        let mut widths = Vec::with_capacity(hidden.len() + 2);
        widths.push(dim);
        widths.extend_from_slice(hidden);
        widths.push(dim);
        let mlp = Mlp::with_output_activation(&widths, Activation::Relu, Activation::Tanh, seed);
        let adam = Adam::new(&mlp, lr);
        Actor {
            mlp,
            adam,
            dim,
            action_scale,
        }
    }

    /// Design-space dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Captures network weights and optimizer moments for checkpointing.
    pub(crate) fn ckpt_dump(&self) -> maopt_ckpt::ActorCkpt {
        maopt_ckpt::ActorCkpt {
            mlp: self.mlp.state(),
            adam: self.adam.state(),
        }
    }

    /// Restores state captured by [`Actor::ckpt_dump`] into an actor of
    /// the same architecture.
    pub(crate) fn ckpt_restore(&mut self, state: &maopt_ckpt::ActorCkpt) {
        self.mlp.restore(&state.mlp);
        self.adam.restore(&state.adam);
    }

    /// Proposes an action `Δx` for a single state.
    pub fn act(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "state length mismatch");
        self.mlp
            .predict(x)
            .iter()
            .map(|a| a * self.action_scale)
            .collect()
    }

    /// Line 8 of Algorithm 1: among the elite designs, picks the one whose
    /// actor-proposed successor has the best critic-predicted FoM, and
    /// returns that successor (clipped to the design box) with its
    /// predicted FoM and the index of the winning parent in
    /// `elite_designs` — the parent identifies whose operating point can
    /// warm-start the proposal's simulation. Ties keep the first winner,
    /// so the parent choice is deterministic.
    ///
    /// All elites go through one batched actor forward and one batched
    /// critic prediction. Rows of a batch are independent, so each
    /// elite's action and prediction are bitwise those of [`Actor::act`]
    /// and a single-row [`Surrogate::predict_raw_with`].
    ///
    /// # Panics
    ///
    /// Panics if `elite_designs` is empty or a design is not `dim` long.
    pub fn best_elite_proposal(
        &self,
        critic: &Critic,
        elite_designs: &[Vec<f64>],
        specs: &[Spec],
        fom_cfg: FomConfig,
    ) -> (Vec<f64>, f64, usize) {
        assert!(!elite_designs.is_empty(), "elite set is non-empty");
        let (n, d) = (elite_designs.len(), self.dim);
        let mut states = Mat::zeros(n, d);
        for (i, x) in elite_designs.iter().enumerate() {
            assert_eq!(x.len(), d, "state length mismatch");
            states.row_mut(i).copy_from_slice(x);
        }
        let mut ws = Workspace::new();
        let mut actions = Mat::default();
        actions.copy_from(self.mlp.forward_ws(&states, &mut ws));
        actions.scale_mut(self.action_scale);
        let critic_in = Mat::from_fn(n, 2 * d, |i, j| {
            if j < d {
                states[(i, j)]
            } else {
                actions[(i, j - d)]
            }
        });
        let mut preds = Mat::default();
        critic.predict_batch_raw_into(&critic_in, &mut ws, &mut preds);
        let mut best: Option<(f64, usize)> = None;
        for i in 0..n {
            let g = crate::fom::fom(preds.row(i), specs, fom_cfg);
            match best {
                Some((bg, _)) if bg <= g => {}
                _ => best = Some((g, i)),
            }
        }
        let (g, parent) = best.expect("elite set is non-empty");
        let cand = elite_designs[parent]
            .iter()
            .zip(actions.row(parent))
            .map(|(xi, ai)| (xi + ai).clamp(0.0, 1.0))
            .collect();
        (cand, g, parent)
    }

    /// Trains the actor through the *frozen* critic for `steps` batches of
    /// `batch` states drawn from the population (Eq. 5), with the elite
    /// bounding-box penalty of Eq. 6 weighted by `lambda`.
    ///
    /// Returns the final batch loss.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        &mut self,
        critic: &mut Critic,
        pop: &Population,
        specs: &[Spec],
        fom_cfg: FomConfig,
        elite_bounds: (&[f64], &[f64]),
        lambda: f64,
        steps: usize,
        batch: usize,
        rng: &mut StdRng,
    ) -> f64 {
        assert_eq!(critic.dim(), self.dim, "actor/critic dimension mismatch");
        let (lb, ub) = elite_bounds;
        let m1 = critic.num_metrics();
        let d = self.dim;
        let mut last = f64::NAN;

        // All step-loop buffers are hoisted and reused: after the first
        // step warms them up, the loop body performs no heap allocations.
        let scaler = critic.scaler().clone();
        let mut actor_ws = Workspace::new();
        let mut critic_ws = Workspace::new();
        let mut states = Mat::default();
        let mut actions = Mat::default();
        let mut critic_in = Mat::default();
        let mut grad_q = Mat::default();
        let mut grad_actions = Mat::default();
        let mut q_raw = Vec::new();
        let mut y = Vec::new();
        let mut viol = Vec::new();

        for _ in 0..steps {
            // Sample a batch of states from the total design set.
            states.resize_reset(batch, d);
            for b in 0..batch {
                let i = rng.random_range(0..pop.len());
                states.row_mut(b).copy_from_slice(pop.design(i));
            }

            // Forward: actions, then critic prediction (activations cached
            // in the workspaces for the backward passes).
            let raw_actions = self.mlp.forward_ws(&states, &mut actor_ws);
            actions.copy_from(raw_actions);
            actions.scale_mut(self.action_scale);

            critic_in.resize_reset(batch, 2 * d);
            for b in 0..batch {
                critic_in.row_mut(b)[..d].copy_from_slice(states.row(b));
                critic_in.row_mut(b)[d..].copy_from_slice(actions.row(b));
            }
            let q_scaled = critic.forward_scaled_ws(&critic_in, &mut critic_ws);

            // Loss 1: mean FoM of the de-scaled predictions.
            // dL/dq_scaled[b][j] = (1/B)·dg/dq_raw[j] · d(q_raw)/d(q_scaled)
            let mut gfom = 0.0;
            grad_q.resize_reset(batch, m1);
            for b in 0..batch {
                q_raw.clear();
                q_raw.extend(
                    q_scaled
                        .row(b)
                        .iter()
                        .enumerate()
                        .map(|(j, &v)| scaler.inverse_value(v, j)),
                );
                gfom += crate::fom::fom(&q_raw, specs, fom_cfg);
                // Target metric term.
                let range0 = inv_scale(&scaler, 0);
                grad_q[(b, 0)] += fom_cfg.w0 * range0 / batch as f64;
                // Constraint penalty terms (clipped at 1).
                for s in specs {
                    let v = s.weight * s.violation(q_raw[s.metric_index]);
                    if v > 0.0 && v < 1.0 {
                        let j = s.metric_index;
                        grad_q[(b, j)] +=
                            s.weight * s.violation_grad(q_raw[j]) * inv_scale(&scaler, j)
                                / batch as f64;
                    }
                }
            }
            gfom /= batch as f64;

            // Backprop through the frozen critic; keep the action half.
            let grad_critic_in = critic.input_gradient_ws(&grad_q, &mut critic_ws);
            grad_actions.resize_reset(batch, d);
            for b in 0..batch {
                grad_actions
                    .row_mut(b)
                    .copy_from_slice(&grad_critic_in.row(b)[d..]);
            }

            // Loss 2: mean ‖λ·viol‖₂ over the batch (Eq. 6).
            let mut gbound = 0.0;
            for b in 0..batch {
                y.clear();
                y.extend(states.row(b).iter().zip(actions.row(b)).map(|(x, a)| x + a));
                boundary_violation_into(&y, lb, ub, &mut viol);
                let norm: f64 = viol
                    .iter()
                    .map(|v| (lambda * v) * (lambda * v))
                    .sum::<f64>()
                    .sqrt();
                gbound += norm;
                if norm > 1e-12 {
                    for (t, &v) in viol.iter().enumerate() {
                        if v > 0.0 {
                            let yt = y[t];
                            // dv/dy = −1 below lb, +1 above ub.
                            let sign = if yt < lb[t] { -1.0 } else { 1.0 };
                            grad_actions[(b, t)] +=
                                lambda * lambda * v * sign / (norm * batch as f64);
                        }
                    }
                }
            }
            gbound /= batch as f64;

            // Chain through the action scaling into the actor network.
            grad_actions.scale_mut(self.action_scale);
            self.mlp.zero_grad();
            self.mlp.backward_ws(&grad_actions, &mut actor_ws, true);
            self.adam.step(&mut self.mlp);
            last = gfom + gbound;
        }
        last
    }
}

/// `d(raw)/d(scaled)` for output column `j` (0 for degenerate columns).
fn inv_scale(scaler: &maopt_nn::MinMaxScaler, j: usize) -> f64 {
    let s = scaler.scale_factor(j);
    if s == 0.0 {
        0.0
    } else {
        1.0 / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elite::boundary_violation;
    use rand::SeedableRng;

    /// Analytic toy: metrics = [ (x₀+Δx₀−0.7)² + (x₁+Δx₁−0.3)², 5 ].
    /// The constraint (metric 1 ≥ 1) is always met, so the optimal action
    /// moves any state toward (0.7, 0.3).
    fn toy_setup() -> (Population, Critic, Vec<Spec>) {
        let specs = vec![Spec::at_least("m", 1, 1.0)];
        let cfg = FomConfig::default();
        let mut pop = Population::new();
        let mut seed = 99u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 1000) as f64 / 1000.0
        };
        for _ in 0..120 {
            let x = vec![next(), next()];
            let m0 = (x[0] - 0.7f64).powi(2) + (x[1] - 0.3f64).powi(2);
            pop.push(x, vec![m0, 5.0], &specs, cfg);
        }
        let mut critic = Critic::new(2, 2, &[32, 32], 3e-3, 11);
        critic.refit_scaler(&pop);
        let mut rng = StdRng::seed_from_u64(12);
        critic.train(&pop, 800, 32, &mut rng);
        (pop, critic, specs)
    }

    #[test]
    fn act_is_bounded_by_scale() {
        let actor = Actor::new(3, &[8], 0.25, 1e-3, 0);
        let a = actor.act(&[0.5, 0.5, 0.5]);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|v| v.abs() <= 0.25));
    }

    #[test]
    fn training_reduces_actor_loss_and_improves_proposals() {
        let (pop, mut critic, specs) = toy_setup();
        let mut actor = Actor::new(2, &[32, 32], 0.3, 1e-3, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let lb = vec![0.0, 0.0];
        let ub = vec![1.0, 1.0];

        // True FoM improvement of the proposal from a probe state.
        let probe = [0.2, 0.8];
        let true_fom = |x: &[f64]| (x[0] - 0.7f64).powi(2) + (x[1] - 0.3f64).powi(2);
        let before = {
            let a = actor.act(&probe);
            true_fom(&[probe[0] + a[0], probe[1] + a[1]])
        };
        actor.train(
            &mut critic,
            &pop,
            &specs,
            FomConfig::default(),
            (&lb, &ub),
            10.0,
            400,
            32,
            &mut rng,
        );
        let after = {
            let a = actor.act(&probe);
            true_fom(&[probe[0] + a[0], probe[1] + a[1]])
        };
        assert!(
            after < before,
            "trained actor should move toward the optimum: {before} -> {after}"
        );
        assert!(after < true_fom(&probe), "proposal should beat staying put");
    }

    #[test]
    fn boundary_penalty_keeps_actions_inside_tight_box() {
        let (pop, mut critic, specs) = toy_setup();
        let mut actor = Actor::new(2, &[32, 32], 0.5, 1e-3, 15);
        let mut rng = StdRng::seed_from_u64(16);
        // Tight elite box far from the unconstrained optimum.
        let lb = vec![0.0, 0.6];
        let ub = vec![0.2, 0.9];
        actor.train(
            &mut critic,
            &pop,
            &specs,
            FomConfig::default(),
            (&lb, &ub),
            50.0,
            500,
            32,
            &mut rng,
        );
        // Proposals from states inside the box must stay near the box.
        let probe = [0.1, 0.75];
        let a = actor.act(&probe);
        let y = [probe[0] + a[0], probe[1] + a[1]];
        let viol = boundary_violation(&y, &lb, &ub);
        assert!(
            viol.iter().all(|&v| v < 0.15),
            "boundary penalty should restrain actions: y = {y:?}"
        );
    }

    #[test]
    fn batched_proposal_matches_per_elite_loop() {
        let (pop, mut critic, specs) = toy_setup();
        let mut actor = Actor::new(2, &[32, 32], 0.3, 1e-3, 19);
        let mut rng = StdRng::seed_from_u64(20);
        let (lb, ub) = (vec![0.0, 0.0], vec![1.0, 1.0]);
        let cfg = FomConfig::default();
        actor.train(
            &mut critic,
            &pop,
            &specs,
            cfg,
            (&lb, &ub),
            10.0,
            50,
            16,
            &mut rng,
        );
        // One elite more than the batch split threshold, plus a duplicate
        // of the winner to exercise the first-minimum tie rule.
        let mut elites: Vec<Vec<f64>> = (0..9).map(|i| pop.design(i * 7).to_vec()).collect();
        let per_elite = |elites: &[Vec<f64>]| {
            let mut scratch = crate::critic::PredictScratch::default();
            let mut best: Option<(f64, Vec<f64>, usize)> = None;
            for (i, x) in elites.iter().enumerate() {
                let a = actor.act(x);
                let pred = critic.predict_raw_with(x, &a, &mut scratch);
                let g = crate::fom::fom(pred, &specs, cfg);
                let cand: Vec<f64> = x
                    .iter()
                    .zip(&a)
                    .map(|(xi, ai)| (xi + ai).clamp(0.0, 1.0))
                    .collect();
                match &best {
                    Some((bg, _, _)) if *bg <= g => {}
                    _ => best = Some((g, cand, i)),
                }
            }
            let (g, cand, i) = best.expect("non-empty");
            (cand, g, i)
        };
        let expected = per_elite(&elites);
        let got = actor.best_elite_proposal(&critic, &elites, &specs, cfg);
        assert_eq!(got.0, expected.0);
        assert_eq!(got.1.to_bits(), expected.1.to_bits());
        assert_eq!(got.2, expected.2);
        elites.push(elites[expected.2].clone());
        let got = actor.best_elite_proposal(&critic, &elites, &specs, cfg);
        assert_eq!(got.2, expected.2, "ties keep the first winner");
        assert_eq!(got, per_elite(&elites));
    }

    #[test]
    fn dimension_mismatch_panics() {
        let (_, mut critic, specs) = toy_setup();
        let mut actor = Actor::new(3, &[8], 0.3, 1e-3, 17);
        let mut rng = StdRng::seed_from_u64(18);
        let pop3 = {
            let mut p = Population::new();
            p.push(
                vec![0.1, 0.2, 0.3],
                vec![1.0, 5.0],
                &specs,
                FomConfig::default(),
            );
            p
        };
        let lb = vec![0.0; 3];
        let ub = vec![1.0; 3];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            actor.train(
                &mut critic,
                &pop3,
                &specs,
                FomConfig::default(),
                (&lb, &ub),
                10.0,
                1,
                4,
                &mut rng,
            );
        }));
        assert!(result.is_err());
    }
}
