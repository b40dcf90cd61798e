//! Golden end-to-end determinism test: the critic's buffer-reusing
//! training loop must reproduce a fresh-buffer reference loop's loss
//! trace **bit-for-bit**.
//!
//! The reference below is the training loop spelled out over the public
//! `maopt-nn` API, with fresh buffers every step: `pseudo_batch` →
//! `transform_into` → `forward_ws` → `mse_loss_grad_into` → `zero_grad` →
//! `backward_ws` → `adam.step`. If any buffer-reuse path or the critic's
//! composition of these steps drifts, this test fails on the first
//! diverging bit.

use maopt_core::{pseudo_batch, Critic, FomConfig, Population, PredictScratch, Spec, Surrogate};
use maopt_linalg::Mat;
use maopt_nn::{mse_loss_grad_into, Activation, Adam, MinMaxScaler, Mlp, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tiny analytic "simulator": metrics = [Σx², 10·x₀].
fn make_population(n: usize) -> Population {
    let specs = vec![Spec::at_least("m", 1, 1.0)];
    let cfg = FomConfig::default();
    let mut pop = Population::new();
    let mut seed = 0xdead_beefu64;
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
fn optimized_critic_loss_trace_matches_seed_bitwise() {
    let pop = make_population(50);
    let (steps, batch, lr, net_seed, rng_seed) = (60, 16, 1e-3, 42u64, 7u64);

    // Optimized path: the critic's zero-allocation training loop.
    let mut critic = Critic::new(2, 2, &[16, 16], lr, net_seed);
    critic.refit_scaler(&pop);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut trace = Vec::new();
    critic.train_traced(&pop, steps, batch, &mut rng, Some(&mut trace));
    assert_eq!(trace.len(), steps);

    // Reference: the same construction, fresh buffers every step.
    let mut mlp = Mlp::new(&[4, 16, 16, 2], Activation::Relu, net_seed);
    let mut adam = Adam::new(&mlp, lr);
    let scaler = MinMaxScaler::fit(&pop.metric_matrix());
    let mut rng_ref = StdRng::seed_from_u64(rng_seed);
    let mut ref_trace = Vec::new();
    for _ in 0..steps {
        let (inputs, targets_raw) = pseudo_batch(&pop, batch, &mut rng_ref);
        let mut targets = Mat::default();
        scaler.transform_into(&targets_raw, &mut targets);
        let mut ws = Workspace::new();
        let mut grad = Mat::default();
        let loss = mse_loss_grad_into(mlp.forward_ws(&inputs, &mut ws), &targets, &mut grad);
        mlp.zero_grad();
        mlp.backward_ws(&grad, &mut ws, true);
        adam.step(&mut mlp);
        ref_trace.push(loss);
    }

    for (k, (opt, reference)) in trace.iter().zip(&ref_trace).enumerate() {
        assert_eq!(
            opt.to_bits(),
            reference.to_bits(),
            "loss trace diverges at step {k}: {opt} vs {reference}"
        );
    }

    // The trained networks themselves must agree: compare a prediction.
    let x = [0.2, 0.7];
    let dx = [0.3, -0.4];
    let mut scratch = PredictScratch::default();
    let opt_pred = critic.predict_raw_with(&x, &dx, &mut scratch);
    let ref_pred: Vec<f64> = mlp
        .predict(&[x[0], x[1], dx[0], dx[1]])
        .iter()
        .enumerate()
        .map(|(j, &v)| scaler.inverse_value(v, j))
        .collect();
    for (a, b) in opt_pred.iter().zip(&ref_pred) {
        assert_eq!(a.to_bits(), b.to_bits(), "trained predictions diverge");
    }
}
