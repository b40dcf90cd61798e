//! The critic network (Eq. 4): a regression surrogate of the circuit
//! simulator.
//!
//! Input is the concatenated `(x, Δx) ∈ R^{2d}`; output is the scaled metric
//! vector of the destination design `x + Δx`. Targets are min–max scaled per
//! metric column over the current population so that volts, hertz and amps
//! contribute comparably to the MSE loss; predictions are de-scaled back to
//! raw units for FoM evaluation.

use maopt_linalg::Mat;
use maopt_nn::{mse_loss_grad_into, Activation, Adam, MinMaxScaler, Mlp, Workspace};
use rand::rngs::StdRng;

use crate::population::{pseudo_batch_into, Population};

/// Reusable buffers for repeated single-row [`Surrogate::predict_raw_with`]
/// calls: the `1 × 2d` input matrix, the output row and the MLP workspace.
/// Warm after the first call; every subsequent same-shaped call allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    input: Mat,
    out: Mat,
    ws: Workspace,
}

/// Anything that predicts raw metric vectors from `(x, Δx)` inputs — the
/// single [`Critic`] and the [`CriticEnsemble`] both qualify, so the
/// near-sampling method and proposal ranking work with either.
///
/// Every prediction runs the workspace pass ([`Mlp::forward_ws`]): a batch
/// through [`Surrogate::predict_batch_raw_into`], a single `(x, Δx)` pair
/// through [`Surrogate::predict_raw_with`]. Both are allocation-free once
/// their buffers are warm.
pub trait Surrogate {
    /// Design-space dimensionality `d`.
    fn dim(&self) -> usize;
    /// Output metric count `m + 1`.
    fn num_metrics(&self) -> usize;
    /// Batch prediction: `inputs` is `[n × 2d]`; `out` receives the raw
    /// (de-scaled) metrics `[n × (m+1)]`, resized in place. The forward
    /// pass runs through `ws`.
    ///
    /// # Panics
    ///
    /// Panics if a scaler has not been fitted or `inputs` is not `2d`
    /// columns wide.
    fn predict_batch_raw_into(&self, inputs: &Mat, ws: &mut Workspace, out: &mut Mat);
    /// Prediction of the raw metric vector of `x + Δx` through
    /// caller-owned [`PredictScratch`] buffers — allocation-free once
    /// warm, for tight loops that predict one `(x, Δx)` pair at a time.
    /// The returned slice borrows the scratch and is valid until the next
    /// call.
    fn predict_raw_with<'s>(
        &self,
        x: &[f64],
        dx: &[f64],
        scratch: &'s mut PredictScratch,
    ) -> &'s [f64] {
        let d = self.dim();
        assert_eq!(x.len(), d, "state length mismatch");
        assert_eq!(dx.len(), d, "action length mismatch");
        scratch.input.resize_reset(1, 2 * d);
        scratch.input.row_mut(0)[..d].copy_from_slice(x);
        scratch.input.row_mut(0)[d..].copy_from_slice(dx);
        self.predict_batch_raw_into(&scratch.input, &mut scratch.ws, &mut scratch.out);
        scratch.out.row(0)
    }
}

/// Reusable buffers for an allocation-free [`Critic::train_traced`] loop:
/// the pseudo-sample batch, its scaled targets, the loss gradient, and the
/// MLP workspace. Owned by the critic and warmed up on the first training
/// step; every subsequent same-shaped step allocates nothing.
#[derive(Debug, Clone, Default)]
struct TrainScratch {
    inputs: Mat,
    targets_raw: Mat,
    targets: Mat,
    grad: Mat,
    ws: Workspace,
}

/// The critic: an MLP surrogate of the SPICE simulator.
#[derive(Debug, Clone)]
pub struct Critic {
    mlp: Mlp,
    adam: Adam,
    scaler: Option<MinMaxScaler>,
    dim: usize,
    num_metrics: usize,
    scratch: TrainScratch,
}

impl Critic {
    /// Creates a critic for `dim` design variables and `num_metrics`
    /// outputs, with the given hidden widths (the paper uses `[100, 100]`).
    pub fn new(dim: usize, num_metrics: usize, hidden: &[usize], lr: f64, seed: u64) -> Self {
        let mut widths = Vec::with_capacity(hidden.len() + 2);
        widths.push(2 * dim);
        widths.extend_from_slice(hidden);
        widths.push(num_metrics);
        let mlp = Mlp::new(&widths, Activation::Relu, seed);
        let adam = Adam::new(&mlp, lr);
        Critic {
            mlp,
            adam,
            scaler: None,
            dim,
            num_metrics,
            scratch: TrainScratch::default(),
        }
    }

    /// Design-space dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Output metric count `m + 1`.
    pub fn num_metrics(&self) -> usize {
        self.num_metrics
    }

    /// The fitted output scaler.
    ///
    /// # Panics
    ///
    /// Panics before the first [`Critic::refit_scaler`].
    pub fn scaler(&self) -> &MinMaxScaler {
        self.scaler.as_ref().expect("critic scaler not fitted yet")
    }

    /// Captures weights, optimizer moments and the fitted scaler for
    /// checkpointing. The scaler travels with the network because
    /// near-sampling rounds predict through the scaler fitted in the
    /// *previous* actor round — refitting on resume would diverge.
    pub(crate) fn ckpt_dump(&self) -> maopt_ckpt::CriticCkpt {
        maopt_ckpt::CriticCkpt {
            net: self.mlp.state(),
            adam: self.adam.state(),
            scaler: self.scaler.as_ref().map(MinMaxScaler::state),
        }
    }

    /// Restores state captured by [`Critic::ckpt_dump`] into a critic of
    /// the same architecture.
    pub(crate) fn ckpt_restore(&mut self, state: &maopt_ckpt::CriticCkpt) {
        self.mlp.restore(&state.net);
        self.adam.restore(&state.adam);
        self.scaler = state.scaler.as_ref().map(MinMaxScaler::from_state);
    }

    /// Refits the output scaler to the population's metric ranges. Call once
    /// per optimization iteration before training.
    pub fn refit_scaler(&mut self, pop: &Population) {
        self.scaler = Some(MinMaxScaler::fit(&pop.metric_matrix()));
    }

    /// Trains on `steps` random pseudo-sample batches of size `batch`
    /// (Eq. 3 + Eq. 4); returns the final batch MSE (in scaled units).
    ///
    /// # Panics
    ///
    /// Panics if the scaler has not been fitted or the population is empty.
    pub fn train(&mut self, pop: &Population, steps: usize, batch: usize, rng: &mut StdRng) -> f64 {
        self.train_traced(pop, steps, batch, rng, None)
    }

    /// [`Critic::train`] that additionally appends every batch loss to
    /// `trace` when one is given — the run journal's critic-loss
    /// trajectory. The training computation is identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the scaler has not been fitted or the population is empty.
    pub fn train_traced(
        &mut self,
        pop: &Population,
        steps: usize,
        batch: usize,
        rng: &mut StdRng,
        mut trace: Option<&mut Vec<f64>>,
    ) -> f64 {
        // Disaggregate so the scaler borrow coexists with the mutable
        // mlp/adam/scratch borrows — no per-call scaler clone.
        let Critic {
            mlp,
            adam,
            scaler,
            scratch,
            ..
        } = self;
        let scaler = scaler.as_ref().expect("fit the scaler before training");
        let mut last = f64::NAN;
        for _ in 0..steps {
            pseudo_batch_into(
                pop,
                batch,
                rng,
                &mut scratch.inputs,
                &mut scratch.targets_raw,
            );
            scaler.transform_into(&scratch.targets_raw, &mut scratch.targets);
            let pred = mlp.forward_ws(&scratch.inputs, &mut scratch.ws);
            let loss = mse_loss_grad_into(pred, &scratch.targets, &mut scratch.grad);
            mlp.zero_grad();
            mlp.backward_ws(&scratch.grad, &mut scratch.ws, true);
            adam.step(mlp);
            last = loss;
            if let Some(t) = trace.as_deref_mut() {
                t.push(loss);
            }
        }
        last
    }

    /// Forward pass in scaled space through a caller-owned [`Workspace`]:
    /// activations land in `ws` (the critic itself stays untouched) for a
    /// subsequent [`Critic::input_gradient_ws`] — used to train actors
    /// through the (frozen) critic. Allocation-free once the workspace is
    /// warm.
    pub fn forward_scaled_ws<'w>(&self, inputs: &Mat, ws: &'w mut Workspace) -> &'w Mat {
        self.mlp.forward_ws(inputs, ws)
    }

    /// Gradient of a scalar loss with respect to the critic *inputs*, given
    /// the loss gradient at the critic's scaled outputs, over the
    /// activations of a preceding [`Critic::forward_scaled_ws`] on the
    /// same workspace. Critic parameters are left untouched (frozen).
    pub fn input_gradient_ws<'w>(
        &mut self,
        grad_out_scaled: &Mat,
        ws: &'w mut Workspace,
    ) -> &'w Mat {
        self.mlp.backward_ws(grad_out_scaled, ws, false)
    }
}

impl Surrogate for Critic {
    fn dim(&self) -> usize {
        self.dim
    }

    fn num_metrics(&self) -> usize {
        self.num_metrics
    }

    fn predict_batch_raw_into(&self, inputs: &Mat, ws: &mut Workspace, out: &mut Mat) {
        assert_eq!(inputs.cols(), 2 * self.dim, "batch input width mismatch");
        let scaled = self.mlp.forward_ws(inputs, ws);
        out.copy_from(scaled);
        self.scaler().inverse_transform_inplace(out);
    }
}

/// An ensemble of independently initialized and independently batched
/// critics whose raw predictions are averaged.
///
/// §II of the paper remarks that "using multiple regression models for
/// circuit simulation does improve optimization, but consumes more memory
/// resources than using one critic network" — this type implements that
/// evaluated-but-not-adopted variant so the trade-off can be measured
/// (see the `ablation_multi_critic` bench). With `n = 1` it degenerates to
/// the paper's single critic at zero overhead.
#[derive(Debug, Clone)]
pub struct CriticEnsemble {
    members: Vec<Critic>,
}

impl CriticEnsemble {
    /// Creates `n` critics with distinct initializations.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(
        n: usize,
        dim: usize,
        num_metrics: usize,
        hidden: &[usize],
        lr: f64,
        seed: u64,
    ) -> Self {
        assert!(n > 0, "ensemble needs at least one critic");
        let members = (0..n)
            .map(|i| Critic::new(dim, num_metrics, hidden, lr, seed ^ ((i as u64 + 1) << 32)))
            .collect();
        CriticEnsemble { members }
    }

    /// Number of member critics.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` is impossible after construction; provided for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Immutable access to a member.
    pub fn member(&self, i: usize) -> &Critic {
        &self.members[i % self.members.len()]
    }

    /// Total trainable parameter count — the memory cost the paper cites.
    pub fn param_count(&self) -> usize {
        self.members.iter().map(|c| c.mlp.param_count()).sum()
    }

    /// Captures every member's checkpoint state, in member order.
    pub(crate) fn ckpt_dump(&self) -> Vec<maopt_ckpt::CriticCkpt> {
        self.members.iter().map(Critic::ckpt_dump).collect()
    }

    /// Restores state captured by [`CriticEnsemble::ckpt_dump`].
    ///
    /// # Panics
    ///
    /// Panics when the member count disagrees with this ensemble.
    pub(crate) fn ckpt_restore(&mut self, states: &[maopt_ckpt::CriticCkpt]) {
        assert_eq!(
            states.len(),
            self.members.len(),
            "checkpointed critic count does not match ensemble"
        );
        for (member, state) in self.members.iter_mut().zip(states) {
            member.ckpt_restore(state);
        }
    }

    /// Refits every member's output scaler.
    pub fn refit_scaler(&mut self, pop: &Population) {
        for m in &mut self.members {
            m.refit_scaler(pop);
        }
    }

    /// Trains every member for `steps` batches each; the shared RNG hands
    /// different pseudo-sample batches to each member, decorrelating them.
    /// Returns the mean of the members' final losses.
    pub fn train(&mut self, pop: &Population, steps: usize, batch: usize, rng: &mut StdRng) -> f64 {
        self.train_traced(pop, steps, batch, rng, None)
    }

    /// [`CriticEnsemble::train`] with the members' per-step losses
    /// concatenated onto `trace` when one is given (member 0's `steps`
    /// losses first, then member 1's, …).
    pub fn train_traced(
        &mut self,
        pop: &Population,
        steps: usize,
        batch: usize,
        rng: &mut StdRng,
        mut trace: Option<&mut Vec<f64>>,
    ) -> f64 {
        let mut total = 0.0;
        for m in &mut self.members {
            total += m.train_traced(pop, steps, batch, rng, trace.as_deref_mut());
        }
        total / self.members.len() as f64
    }
}

impl Surrogate for CriticEnsemble {
    fn dim(&self) -> usize {
        self.members[0].dim()
    }

    fn num_metrics(&self) -> usize {
        self.members[0].num_metrics()
    }

    /// The member mean: `out` holds member 0's prediction, every further
    /// member is added element by element straight out of the shared
    /// workspace (`out + 1.0·p`, the arithmetic of `axpy(1.0)`), then the
    /// sum is scaled by `1/n`.
    fn predict_batch_raw_into(&self, inputs: &Mat, ws: &mut Workspace, out: &mut Mat) {
        let (first, rest) = self.members.split_first().expect("ensemble is non-empty");
        first.predict_batch_raw_into(inputs, ws, out);
        for m in rest {
            let scaler = m.scaler();
            let scaled = m.mlp.forward_ws(inputs, ws);
            for i in 0..out.rows() {
                for (j, acc) in out.row_mut(i).iter_mut().enumerate() {
                    *acc += 1.0 * scaler.inverse_value(scaled[(i, j)], j);
                }
            }
        }
        out.scale_mut(1.0 / self.members.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::FomConfig;
    use crate::problem::Spec;
    use rand::SeedableRng;

    fn predict(c: &impl Surrogate, x: &[f64], dx: &[f64]) -> Vec<f64> {
        c.predict_raw_with(x, dx, &mut PredictScratch::default())
            .to_vec()
    }

    fn predict_batch(c: &impl Surrogate, inputs: &Mat) -> Mat {
        let mut out = Mat::default();
        c.predict_batch_raw_into(inputs, &mut Workspace::new(), &mut out);
        out
    }

    fn scaled_output(c: &Critic, inputs: &Mat) -> Mat {
        c.forward_scaled_ws(inputs, &mut Workspace::new()).clone()
    }

    /// A tiny analytic "simulator": metrics = [Σx², 10·x₀].
    fn make_population(n: usize) -> Population {
        let specs = vec![Spec::at_least("m", 1, 1.0)];
        let cfg = FomConfig::default();
        let mut pop = Population::new();
        let mut seed = 0x12345u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 1000.0
        };
        for _ in 0..n {
            let x = vec![next(), next()];
            let metrics = vec![x[0] * x[0] + x[1] * x[1], 10.0 * x[0]];
            pop.push(x, metrics, &specs, cfg);
        }
        pop
    }

    #[test]
    fn shapes_and_accessors() {
        let c = Critic::new(3, 4, &[16, 16], 1e-3, 0);
        assert_eq!(c.dim(), 3);
        assert_eq!(c.num_metrics(), 4);
    }

    #[test]
    fn training_reduces_loss() {
        let pop = make_population(60);
        let mut c = Critic::new(2, 2, &[32, 32], 3e-3, 1);
        c.refit_scaler(&pop);
        let mut rng = StdRng::seed_from_u64(2);
        let first = c.train(&pop, 1, 32, &mut rng);
        let last = c.train(&pop, 400, 32, &mut rng);
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert!(last < 0.01, "final loss {last}");
    }

    #[test]
    fn predictions_approximate_simulator() {
        let pop = make_population(80);
        let mut c = Critic::new(2, 2, &[32, 32], 3e-3, 3);
        c.refit_scaler(&pop);
        let mut rng = StdRng::seed_from_u64(4);
        c.train(&pop, 600, 32, &mut rng);
        // Predict the metrics of a known destination via (x, Δx).
        let x = [0.2, 0.3];
        let dst = [0.5, 0.4];
        let dx = [dst[0] - x[0], dst[1] - x[1]];
        let pred = predict(&c, &x, &dx);
        let truth = [dst[0] * dst[0] + dst[1] * dst[1], 10.0 * dst[0]];
        assert!(
            (pred[0] - truth[0]).abs() < 0.15,
            "m0 {} vs {}",
            pred[0],
            truth[0]
        );
        assert!(
            (pred[1] - truth[1]).abs() < 1.5,
            "m1 {} vs {}",
            pred[1],
            truth[1]
        );
    }

    #[test]
    fn batch_prediction_matches_single() {
        let pop = make_population(40);
        let mut c = Critic::new(2, 2, &[16], 1e-3, 5);
        c.refit_scaler(&pop);
        let mut rng = StdRng::seed_from_u64(6);
        c.train(&pop, 50, 16, &mut rng);
        let x = [0.1, 0.9];
        let dx = [0.3, -0.2];
        let single = predict(&c, &x, &dx);
        let batch = Mat::from_rows(&[&[0.1, 0.9, 0.3, -0.2]]);
        let out = predict_batch(&c, &batch);
        assert!((single[0] - out[(0, 0)]).abs() < 1e-12);
        assert!((single[1] - out[(0, 1)]).abs() < 1e-12);
    }

    #[test]
    fn scratch_prediction_matches_allocating_path() {
        let pop = make_population(40);
        let mut c = Critic::new(2, 2, &[16], 1e-3, 5);
        c.refit_scaler(&pop);
        let mut rng = StdRng::seed_from_u64(6);
        c.train(&pop, 50, 16, &mut rng);
        // The allocating single-row convenience: `Mlp::predict`, then the
        // scaler's per-value inverse.
        let alloc = |c: &Critic, x: &[f64], dx: &[f64]| -> Vec<f64> {
            let scaled = c.mlp.predict(&[x, dx].concat());
            let scaler = c.scaler();
            scaled
                .iter()
                .enumerate()
                .map(|(j, &v)| scaler.inverse_value(v, j))
                .collect()
        };
        let mut scratch = PredictScratch::default();
        for (x, dx) in [([0.1, 0.9], [0.3, -0.2]), ([0.7, 0.2], [0.0, 0.05])] {
            assert_eq!(
                alloc(&c, &x, &dx),
                c.predict_raw_with(&x, &dx, &mut scratch).to_vec()
            );
        }
        // The ensemble mean through the same scratch: member sum, then 1/n.
        let mut ens = CriticEnsemble::new(2, 2, 2, &[16], 1e-3, 7);
        ens.refit_scaler(&pop);
        ens.train(&pop, 20, 16, &mut rng);
        let (x, dx) = ([0.4, 0.5], [0.1, 0.1]);
        let mut mean = alloc(ens.member(0), &x, &dx);
        for (acc, p) in mean.iter_mut().zip(alloc(ens.member(1), &x, &dx)) {
            *acc += 1.0 * p;
            *acc *= 0.5;
        }
        assert_eq!(mean, ens.predict_raw_with(&x, &dx, &mut scratch).to_vec());
    }

    #[test]
    #[should_panic(expected = "scaler not fitted")]
    fn predict_before_fit_panics() {
        let c = Critic::new(2, 2, &[8], 1e-3, 0);
        let _ = predict(&c, &[0.0, 0.0], &[0.0, 0.0]);
    }

    #[test]
    fn ensemble_of_one_matches_single_critic() {
        let pop = make_population(40);
        let mut single = Critic::new(2, 2, &[16], 1e-3, 7 ^ (1u64 << 32));
        let mut ens = CriticEnsemble::new(1, 2, 2, &[16], 1e-3, 7);
        single.refit_scaler(&pop);
        ens.refit_scaler(&pop);
        let mut r1 = StdRng::seed_from_u64(8);
        let mut r2 = StdRng::seed_from_u64(8);
        single.train(&pop, 40, 16, &mut r1);
        ens.train(&pop, 40, 16, &mut r2);
        let x = [0.3, 0.4];
        let dx = [0.1, -0.1];
        assert_eq!(predict(&single, &x, &dx), predict(&ens, &x, &dx));
    }

    #[test]
    fn ensemble_prediction_is_member_mean() {
        let pop = make_population(40);
        let mut ens = CriticEnsemble::new(3, 2, 2, &[16], 1e-3, 9);
        ens.refit_scaler(&pop);
        let mut rng = StdRng::seed_from_u64(10);
        ens.train(&pop, 30, 16, &mut rng);
        let input = Mat::from_rows(&[&[0.2, 0.6, 0.05, 0.1]]);
        let mean = predict_batch(&ens, &input);
        let mut acc = [0.0; 2];
        for i in 0..3 {
            let p = predict_batch(ens.member(i), &input);
            acc[0] += p[(0, 0)];
            acc[1] += p[(0, 1)];
        }
        assert!((mean[(0, 0)] - acc[0] / 3.0).abs() < 1e-12);
        assert!((mean[(0, 1)] - acc[1] / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ensemble_members_are_decorrelated() {
        let ens = CriticEnsemble::new(3, 2, 2, &[16], 1e-3, 11);
        let input = Mat::from_rows(&[&[0.2, 0.6, 0.05, 0.1]]);
        let a = scaled_output(ens.member(0), &input);
        let b = scaled_output(ens.member(1), &input);
        assert_ne!(a, b, "members must be independently initialized");
        assert_eq!(ens.param_count(), 3 * ens.member(0).mlp.param_count());
    }

    #[test]
    #[should_panic(expected = "at least one critic")]
    fn empty_ensemble_rejected() {
        let _ = CriticEnsemble::new(0, 2, 2, &[8], 1e-3, 0);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let pop = make_population(30);
        let mut c = Critic::new(2, 2, &[16], 1e-3, 9);
        c.refit_scaler(&pop);
        let mut rng = StdRng::seed_from_u64(10);
        c.train(&pop, 30, 16, &mut rng);

        // Scalar loss L = sum of scaled outputs; dL/dout = 1.
        let input = Mat::from_rows(&[&[0.4, 0.6, 0.1, -0.1]]);
        let mut ws = Workspace::new();
        let out = c.forward_scaled_ws(&input, &mut ws);
        let ones = Mat::filled(out.rows(), out.cols(), 1.0);
        let gi = c.input_gradient_ws(&ones, &mut ws).clone();

        let loss = |c: &Critic, inp: &Mat| -> f64 { scaled_output(c, inp).as_slice().iter().sum() };
        let h = 1e-6;
        for j in 0..4 {
            let mut ip = input.clone();
            ip[(0, j)] += h;
            let mut im = input.clone();
            im[(0, j)] -= h;
            let fd = (loss(&c, &ip) - loss(&c, &im)) / (2.0 * h);
            assert!(
                (fd - gi[(0, j)]).abs() < 1e-5 * (1.0 + fd.abs()),
                "input grad {j}: fd {fd} vs {}",
                gi[(0, j)]
            );
        }
    }
}
