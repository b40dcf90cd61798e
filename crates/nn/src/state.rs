//! Plain-data snapshots of network, optimizer and scaler state.
//!
//! Checkpointing (crate `maopt-ckpt`) serializes optimizer runs without
//! this crate knowing anything about on-disk formats: each stateful type
//! exports a `*State` struct of plain vectors that the checkpoint codec
//! can encode however it likes, and restores from one onto a freshly
//! constructed value of the same architecture. Transients (gradient
//! accumulators, forward caches, workspaces) are deliberately excluded —
//! every training step begins by overwriting them.

use crate::{Dense, Mlp};

/// One dense layer's trainable parameters.
///
/// `weights` is row-major with rows = outputs, exactly the order of
/// `Dense::weights().as_slice()` and of the optimizer's parameter walk.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerState {
    /// Input feature count.
    pub inputs: usize,
    /// Output unit count.
    pub outputs: usize,
    /// Flattened weight matrix (`outputs × inputs`, row-major).
    pub weights: Vec<f64>,
    /// Bias vector (`outputs` entries).
    pub bias: Vec<f64>,
}

/// A whole MLP's trainable parameters, layer by layer.
///
/// Activations are architecture, not state: restoring requires an MLP
/// constructed with the same widths and activations.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpState {
    /// Per-layer parameters, input side first.
    pub layers: Vec<LayerState>,
}

/// Adam's mutable state: step counter and per-parameter moments,
/// flattened in layer visit order (weights row-major, then bias).
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Bias-correction step counter.
    pub t: u64,
    /// First-moment estimates.
    pub m: Vec<f64>,
    /// Second-moment estimates.
    pub v: Vec<f64>,
}

/// A fitted [`crate::MinMaxScaler`]'s parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalerState {
    /// Per-column minima.
    pub mins: Vec<f64>,
    /// Per-column ranges (`0.0` marks a degenerate column).
    pub ranges: Vec<f64>,
}

impl Mlp {
    /// Captures every layer's trainable parameters for checkpointing.
    pub fn state(&self) -> MlpState {
        MlpState {
            layers: self
                .layers()
                .iter()
                .map(|layer: &Dense| LayerState {
                    inputs: layer.inputs(),
                    outputs: layer.outputs(),
                    weights: layer.weights().as_slice().to_vec(),
                    bias: layer.bias().to_vec(),
                })
                .collect(),
        }
    }

    /// Restores parameters captured by [`Mlp::state`] into a network of
    /// the same architecture.
    ///
    /// # Panics
    ///
    /// Panics when the layer count or any layer shape disagrees with
    /// this network.
    pub fn restore(&mut self, state: &MlpState) {
        assert_eq!(
            state.layers.len(),
            self.layers().len(),
            "checkpointed layer count does not match network"
        );
        for (layer, s) in self.layers_mut().iter_mut().zip(&state.layers) {
            assert_eq!(
                (layer.inputs(), layer.outputs()),
                (s.inputs, s.outputs),
                "checkpointed layer shape does not match network"
            );
            layer.load_params(&s.weights, &s.bias);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::mse_backward;
    use crate::{Activation, Adam, MinMaxScaler, Workspace};
    use maopt_linalg::Mat;

    fn trained_pair() -> (Mlp, Adam, Mat, Mat) {
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, 5);
        let mut adam = Adam::new(&mlp, 1e-2);
        let x = Mat::from_fn(8, 2, |i, j| (i + j) as f64 / 8.0);
        let y = Mat::from_fn(8, 1, |i, _| (i as f64 / 8.0).sin());
        let (mut ws, mut grad) = (Workspace::new(), Mat::default());
        for _ in 0..20 {
            mse_backward(&mut mlp, &x, &y, &mut ws, &mut grad);
            adam.step(&mut mlp);
        }
        (mlp, adam, x, y)
    }

    #[test]
    fn mlp_state_roundtrip_is_exact() {
        let (mlp, _, x, _) = trained_pair();
        let state = mlp.state();
        let mut fresh = Mlp::new(&[2, 8, 1], Activation::Tanh, 999);
        assert_ne!(fresh.predict(&[0.3, 0.4]), mlp.predict(&[0.3, 0.4]));
        fresh.restore(&state);
        assert_eq!(fresh.predict(&[0.3, 0.4]), mlp.predict(&[0.3, 0.4]));
        let (mut wa, mut wb) = (Workspace::new(), Workspace::new());
        assert_eq!(fresh.forward_ws(&x, &mut wa), mlp.forward_ws(&x, &mut wb));
    }

    #[test]
    fn adam_restore_continues_training_bitwise() {
        // Train 20 steps, snapshot, train 10 more; a fresh net+optimizer
        // restored from the snapshot must reproduce those 10 steps exactly.
        let (mut mlp, mut adam, x, y) = trained_pair();
        let net_state = mlp.state();
        let opt_state = adam.state();

        let mut mlp2 = Mlp::new(&[2, 8, 1], Activation::Tanh, 123);
        let mut adam2 = Adam::new(&mlp2, 1e-2);
        mlp2.restore(&net_state);
        adam2.restore(&opt_state);

        let (mut ws, mut grad) = (Workspace::new(), Mat::default());
        for _ in 0..10 {
            for (net, opt) in [(&mut mlp, &mut adam), (&mut mlp2, &mut adam2)] {
                mse_backward(net, &x, &y, &mut ws, &mut grad);
                opt.step(net);
            }
        }
        assert_eq!(mlp.state(), mlp2.state());
        assert_eq!(adam.state(), adam2.state());
    }

    #[test]
    fn scaler_state_roundtrip_is_exact() {
        let data = Mat::from_rows(&[&[1.0, 7.0, -2.0], &[3.0, 7.0, 5.0]]);
        let s = MinMaxScaler::fit(&data);
        let back = MinMaxScaler::from_state(&s.state());
        assert_eq!(back, s);
        let (mut a, mut b) = (Mat::default(), Mat::default());
        back.transform_into(&data, &mut a);
        s.transform_into(&data, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn restore_rejects_mismatched_architecture() {
        let small = Mlp::new(&[2, 4, 1], Activation::Tanh, 0);
        let mut big = Mlp::new(&[2, 8, 1], Activation::Tanh, 0);
        big.restore(&small.state());
    }
}
