//! Property-based tests for the neural-network stack.

use maopt_linalg::Mat;
use maopt_nn::{mse_loss, mse_loss_grad_into, Activation, Dense, Mlp, Sgd, Workspace};
use proptest::prelude::*;

fn small_batch(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |data| Mat::from_vec(rows, cols, data))
}

/// Bit patterns of every entry, for exact (bitwise) equality checks that
/// distinguish 0.0 from -0.0 and compare NaNs by representation.
fn mat_bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn slice_bits(s: &[f64]) -> Vec<u64> {
    s.iter().map(|v| v.to_bits()).collect()
}

/// `forward_ws` into a fresh workspace, copied out.
fn forward_fresh(mlp: &Mlp, x: &Mat) -> Mat {
    mlp.forward_ws(x, &mut Workspace::new()).clone()
}

const ACTIVATIONS: [Activation; 4] = [
    Activation::Identity,
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
];

/// Naive reference forward pass, independent of the library kernels:
/// every dot product starts at `-0.0` (the identity `Iterator::sum`
/// folds from), reduces over `k` in ascending order, then adds the bias.
/// Returns every layer's activated output, input first.
fn naive_forward(mlp: &Mlp, x: &Mat) -> Vec<Mat> {
    let mut acts = vec![x.clone()];
    for layer in mlp.layers() {
        let input = acts.last().unwrap();
        let (w, b) = (layer.weights(), layer.bias());
        let out = Mat::from_fn(input.rows(), layer.outputs(), |s, o| {
            let mut z = -0.0;
            for k in 0..layer.inputs() {
                z += w[(o, k)] * input[(s, k)];
            }
            layer.activation().apply(z + b[o])
        });
        acts.push(out);
    }
    acts
}

/// Naive reference backward pass over `naive_forward`'s activations:
/// returns `∂L/∂input` and, per layer, the parameters after one SGD step
/// with learning rate 1 on the gradients of this pass alone (the
/// parameter gradients themselves are private to the library). A unit
/// whose `dz` is exactly zero is skipped, as the library does.
fn naive_backward(mlp: &Mlp, acts: &[Mat], grad_out: &Mat) -> (Mat, Vec<(Mat, Vec<f64>)>) {
    let mut g = grad_out.clone();
    let mut stepped = Vec::new();
    for (l, layer) in mlp.layers().iter().enumerate().rev() {
        let (x, y) = (&acts[l], &acts[l + 1]);
        let w = layer.weights();
        let mut gw = Mat::zeros(layer.outputs(), layer.inputs());
        let mut gb = vec![0.0; layer.outputs()];
        let mut gin = Mat::zeros(x.rows(), layer.inputs());
        for s in 0..x.rows() {
            for o in 0..layer.outputs() {
                let dz = g[(s, o)] * layer.activation().derivative_from_output(y[(s, o)]);
                if dz == 0.0 {
                    continue;
                }
                gb[o] += dz;
                for k in 0..layer.inputs() {
                    gw[(o, k)] += dz * x[(s, k)];
                    gin[(s, k)] += dz * w[(o, k)];
                }
            }
        }
        let w_next = Mat::from_fn(w.rows(), w.cols(), |o, k| w[(o, k)] - gw[(o, k)]);
        let b_next = layer.bias().iter().zip(&gb).map(|(b, g)| b - g).collect();
        stepped.push((w_next, b_next));
        g = gin;
    }
    stepped.reverse();
    (g, stepped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full-network parameter-free gradient check: ∂L/∂x from backward must
    /// match central differences for random inputs and targets.
    #[test]
    fn input_gradients_match_finite_difference(
        x in small_batch(2, 3),
        y in small_batch(2, 2),
        seed in 0u64..1000,
    ) {
        let mut mlp = Mlp::new(&[3, 8, 2], Activation::Tanh, seed);
        let mut ws = Workspace::new();
        let mut grad = Mat::default();
        mse_loss_grad_into(mlp.forward_ws(&x, &mut ws), &y, &mut grad);
        mlp.zero_grad();
        let gi = mlp.backward_ws(&grad, &mut ws, true).clone();

        let loss_of = |m: &Mlp, xx: &Mat| mse_loss(&forward_fresh(m, xx), &y);
        let h = 1e-6;
        for s in 0..2 {
            for j in 0..3 {
                let mut xp = x.clone();
                xp[(s, j)] += h;
                let mut xm = x.clone();
                xm[(s, j)] -= h;
                let fd = (loss_of(&mlp, &xp) - loss_of(&mlp, &xm)) / (2.0 * h);
                prop_assert!(
                    (fd - gi[(s, j)]).abs() < 1e-4 * (1.0 + fd.abs()),
                    "dX[{s}][{j}]: fd {fd} vs {}", gi[(s, j)]
                );
            }
        }
    }

    /// A batch pass and row-by-row `predict` calls agree exactly: each
    /// input row is computed independently, which is what lets
    /// near-sampling split its ranking batch across workers.
    #[test]
    fn forward_modes_agree(x in small_batch(3, 4), seed in 0u64..1000) {
        let mlp = Mlp::new(&[4, 6, 2], Activation::Relu, seed);
        let batch = forward_fresh(&mlp, &x);
        for s in 0..x.rows() {
            prop_assert_eq!(slice_bits(&mlp.predict(x.row(s))), slice_bits(batch.row(s)));
        }
    }

    /// A tanh-output network is bounded regardless of input magnitude.
    #[test]
    fn tanh_output_is_bounded(
        raw in prop::collection::vec(-1e6f64..1e6, 3),
        seed in 0u64..1000,
    ) {
        let mlp = Mlp::with_output_activation(&[3, 8, 3], Activation::Relu, Activation::Tanh, seed);
        let y = mlp.predict(&raw);
        prop_assert!(y.iter().all(|v| v.abs() <= 1.0), "{y:?}");
    }

    /// MSE is non-negative, zero exactly on identical matrices, and
    /// symmetric in its arguments.
    #[test]
    fn mse_axioms(a in small_batch(2, 3), b in small_batch(2, 3)) {
        let l = mse_loss(&a, &b);
        prop_assert!(l >= 0.0);
        prop_assert!((mse_loss(&b, &a) - l).abs() < 1e-15);
        prop_assert_eq!(mse_loss(&a, &a), 0.0);
    }

    /// Scaler: transform then inverse transform is the identity on the
    /// data it was fitted to.
    #[test]
    fn scaler_roundtrip(data in small_batch(5, 3)) {
        let scaler = maopt_nn::MinMaxScaler::fit(&data);
        let mut there = Mat::default();
        scaler.transform_into(&data, &mut there);
        // Fitted data lands in the unit box.
        prop_assert!(there.as_slice().iter().all(|&v| (-1e-12..=1.0 + 1e-12).contains(&v)));
        scaler.inverse_transform_inplace(&mut there);
        for (orig, round) in data.as_slice().iter().zip(there.as_slice()) {
            prop_assert!((orig - round).abs() < 1e-10);
        }
    }

    /// Gradient accumulation: two backward passes accumulate exactly twice
    /// the gradient of one. SGD with lr 1 moves every parameter by exactly
    /// minus its accumulated gradient, so the parameter displacement after
    /// the doubled accumulation must be 2× the single-pass displacement —
    /// checked on the parameters themselves, where the invariant is linear
    /// (a prediction at a probe point is not: the network nonlinearity can
    /// shrink a larger parameter step into a smaller output change).
    #[test]
    fn gradients_accumulate_linearly(x in small_batch(2, 2), seed in 0u64..1000) {
        let orig = Mlp::new(&[2, 4, 1], Activation::Tanh, seed);
        let mut a = orig.clone();
        let mut b = orig.clone();
        let mut ws = Workspace::new();
        let grad_out = Mat::filled(2, 1, 0.3);
        let sgd = Sgd::new(1.0);

        a.forward_ws(&x, &mut ws);
        a.zero_grad();
        a.backward_ws(&grad_out, &mut ws, true);
        sgd.step(&mut a);

        b.forward_ws(&x, &mut ws);
        b.zero_grad();
        b.backward_ws(&grad_out, &mut ws, true);
        // No step in between, so the second pass adds the same gradient.
        b.forward_ws(&x, &mut ws);
        b.backward_ws(&grad_out, &mut ws, true);
        sgd.step(&mut b);

        for ((lo, la), lb) in orig.layers().iter().zip(a.layers()).zip(b.layers()) {
            let params = |l: &Dense| {
                l.weights().as_slice().to_vec().into_iter().chain(l.bias().to_vec())
            };
            for ((po, pa), pb) in params(lo).zip(params(la)).zip(params(lb)) {
                let d1 = po - pa;
                let d2 = po - pb;
                prop_assert!(
                    (d2 - 2.0 * d1).abs() <= 1e-12 * (1.0 + d1.abs()),
                    "doubled accumulation must double the step: {d1} vs {d2}"
                );
            }
        }
    }

    /// The workspace pass is bitwise identical to the naive reference
    /// (itself an allocating pass): outputs, input gradients and (via an
    /// SGD step with lr 1, since gradients are private) parameter
    /// gradients. Two rounds over one workspace cover the buffer-reuse
    /// path. ReLU networks exercise the `dz == 0` skip, and the 2- and
    /// 3-layer networks both directions of the ping-pong gradient buffers.
    #[test]
    fn workspace_paths_match_allocating_paths_bitwise(
        x in small_batch(3, 4),
        grad_out in small_batch(3, 2),
        seed in 0u64..1000,
        act in 0usize..4,
        deep in 0usize..2,
    ) {
        let widths: &[usize] = if deep == 1 { &[4, 6, 5, 2] } else { &[4, 6, 2] };
        let mut net = Mlp::new(widths, ACTIVATIONS[act], seed);
        let mut ws = Workspace::new();
        let sgd = Sgd::new(1.0);

        for round in 0..2 {
            let acts = naive_forward(&net, &x);
            let out = net.forward_ws(&x, &mut ws);
            prop_assert_eq!(mat_bits(out), mat_bits(&acts[acts.len() - 1]), "forward, round {}", round);

            let (gin, stepped) = naive_backward(&net, &acts, &grad_out);
            net.zero_grad();
            let gi = net.backward_ws(&grad_out, &mut ws, true);
            prop_assert_eq!(mat_bits(gi), mat_bits(&gin), "input grad, round {}", round);
            sgd.step(&mut net);
            for (layer, (w, b)) in net.layers().iter().zip(&stepped) {
                prop_assert_eq!(mat_bits(layer.weights()), mat_bits(w), "weights, round {}", round);
                prop_assert_eq!(slice_bits(layer.bias()), slice_bits(b), "bias, round {}", round);
            }
        }
    }

    /// Frozen-network mode: `backward_ws(…, false)` yields the naive
    /// reference's input gradient bit for bit and accumulates no parameter
    /// gradient, so a following SGD step leaves the parameters untouched.
    /// It runs after an accumulating pass over the same workspace, so the
    /// frozen pass also reuses dirty buffers.
    #[test]
    fn workspace_frozen_backward_matches_input_only(
        x in small_batch(3, 4),
        grad_out in small_batch(3, 2),
        seed in 0u64..1000,
        act in 0usize..4,
        deep in 0usize..2,
    ) {
        let widths: &[usize] = if deep == 1 { &[4, 6, 5, 2] } else { &[4, 6, 2] };
        let mut net = Mlp::new(widths, ACTIVATIONS[act], seed);
        let mut ws = Workspace::new();
        let sgd = Sgd::new(1.0);

        for round in 0..2 {
            // Accumulating pass and step, to dirty the buffers and move
            // the parameters between rounds.
            net.forward_ws(&x, &mut ws);
            net.zero_grad();
            net.backward_ws(&grad_out, &mut ws, true);
            sgd.step(&mut net);

            let frozen = net.clone();
            let acts = naive_forward(&net, &x);
            net.forward_ws(&x, &mut ws);
            let (gin, _) = naive_backward(&net, &acts, &grad_out);
            net.zero_grad();
            let gi = net.backward_ws(&grad_out, &mut ws, false);
            prop_assert_eq!(mat_bits(gi), mat_bits(&gin), "frozen input grad, round {}", round);
            sgd.step(&mut net);
            for (layer, orig) in net.layers().iter().zip(frozen.layers()) {
                prop_assert_eq!(mat_bits(layer.weights()), mat_bits(orig.weights()));
                prop_assert_eq!(slice_bits(layer.bias()), slice_bits(orig.bias()));
            }
        }
    }

    /// The `_into` loss and scaler variants write the same bits into a
    /// dirty, wrongly-shaped reused buffer as into a freshly allocated
    /// one, and agree with the scalar helpers they are built from.
    #[test]
    fn into_variants_match_allocating_bitwise(
        pred in small_batch(3, 2),
        target in small_batch(3, 2),
    ) {
        let mut grad = Mat::default();
        let loss = mse_loss_grad_into(&pred, &target, &mut grad);
        let mut grad_buf = Mat::from_rows(&[&[9.9; 5]]); // dirty, wrong shape
        let loss_into = mse_loss_grad_into(&pred, &target, &mut grad_buf);
        prop_assert_eq!(loss.to_bits(), mse_loss(&pred, &target).to_bits());
        prop_assert_eq!(loss.to_bits(), loss_into.to_bits());
        prop_assert_eq!(mat_bits(&grad), mat_bits(&grad_buf));

        let scaler = maopt_nn::MinMaxScaler::fit(&pred);
        let scaled = Mat::from_fn(pred.rows(), pred.cols(), |i, j| {
            scaler.transform_value(pred[(i, j)], j)
        });
        let mut scaled_buf = Mat::from_rows(&[&[-7.0; 4]]);
        scaler.transform_into(&pred, &mut scaled_buf);
        prop_assert_eq!(mat_bits(&scaled), mat_bits(&scaled_buf));

        let back = Mat::from_fn(pred.rows(), pred.cols(), |i, j| {
            scaler.inverse_value(scaled[(i, j)], j)
        });
        scaler.inverse_transform_inplace(&mut scaled_buf);
        prop_assert_eq!(mat_bits(&back), mat_bits(&scaled_buf));
    }
}
