//! The layer and optimizer splits under a two-thread team are bitwise
//! equal to the same calls without one.
//!
//! `Dense` splits its forward and input-gradient products by batch rows,
//! its parameter gradients by weight rows, and `Adam::step` splits each
//! large layer by parameter range, all under `maopt_exec::join`. Each
//! output element is still computed by one thread in the serial order,
//! so every result bit must match the unsplit run. Each case first makes
//! sure the team's helper is taking jobs, so the split really runs on
//! two threads (a job the caller takes back is also a valid outcome).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use maopt_exec::{join, EvalEngine};
use maopt_linalg::Mat;
use maopt_nn::{Activation, Adam, Mlp, Workspace};
use proptest::prelude::*;

/// Batch sizes around the split threshold, ragged and tile-aligned.
const BATCHES: [usize; 7] = [1, 3, 7, 8, 9, 13, 32];

/// Networks whose widths are mostly not multiples of the 4-wide tile;
/// the 41×30 layer is large enough for `Adam::step` to split.
const WIDTHS: [&[usize]; 3] = [&[5, 7, 3], &[6, 41, 30, 3], &[3, 33, 17, 9]];

const ACTIVATIONS: [Activation; 4] = [
    Activation::Identity,
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
];

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn params_bits(net: &Mlp) -> Vec<u64> {
    net.layers()
        .iter()
        .flat_map(|l| l.weights().as_slice().iter().chain(l.bias()))
        .map(|v| v.to_bits())
        .collect()
}

/// A matrix from generated values, with the entries `zero_rows` selects
/// (bit `s` set: row `s`) replaced by zeros.
fn mat(rows: usize, cols: usize, values: &[f64], zero_rows: u64) -> Mat {
    Mat::from_fn(rows, cols, |s, j| {
        if zero_rows >> (s % 64) & 1 == 1 {
            0.0
        } else {
            values[(s * cols + j) % values.len()]
        }
    })
}

/// Runs `body` as a team on `engine` once its helper is taking jobs.
fn in_team<R>(engine: &EvalEngine, body: impl FnOnce() -> R) -> R {
    let pool = engine.pool().expect("a two-worker engine has a pool");
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.idle_workers() < 2 {
        assert!(Instant::now() < deadline, "pool workers never went idle");
        std::thread::yield_now();
    }
    engine.team(|| {
        let caller = std::thread::current().id();
        loop {
            let started = AtomicBool::new(false);
            let (_, b_thread) = join(
                || {
                    let t0 = Instant::now();
                    while !started.load(Ordering::Acquire)
                        && t0.elapsed() < Duration::from_millis(5)
                    {
                        std::thread::yield_now();
                    }
                },
                || {
                    started.store(true, Ordering::Release);
                    std::thread::current().id()
                },
            );
            if b_thread != caller {
                break;
            }
            assert!(Instant::now() < deadline, "no team formed");
        }
        body()
    })
}

/// One forward and backward pass over a fresh workspace: output, input
/// gradient, and the parameters after an Adam step on the gradients.
fn pass(net: &Mlp, x: &Mat, grad_out: &Mat, accumulate: bool) -> (Mat, Mat, Vec<u64>) {
    let mut net = net.clone();
    let mut adam = Adam::new(&net, 1e-2);
    let mut ws = Workspace::new();
    let out = net.forward_ws(x, &mut ws).clone();
    net.zero_grad();
    let gi = net.backward_ws(grad_out, &mut ws, accumulate).clone();
    adam.step(&mut net);
    (out, gi, params_bits(&net))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forward, accumulating and frozen backward, and the Adam step after
    /// each, with rows of `∂L/∂y` that are entirely zero (the `dz == 0`
    /// skip).
    #[test]
    fn training_pass_under_a_team_is_bitwise_serial(
        batch in 0usize..BATCHES.len(),
        shape in 0usize..WIDTHS.len(),
        act in 0usize..ACTIVATIONS.len(),
        values in prop::collection::vec(-2.0f64..2.0, 97),
        zero_rows in 0u64..(1 << 12),
        seed in 0u64..1000,
    ) {
        thread_local! {
            static ENGINE: EvalEngine = EvalEngine::new(2);
        }
        let (rows, widths) = (BATCHES[batch], WIDTHS[shape]);
        let net = Mlp::new(widths, ACTIVATIONS[act], seed);
        let x = mat(rows, widths[0], &values, 0);
        let grad_out = mat(rows, widths[widths.len() - 1], &values[7..], zero_rows);
        for accumulate in [true, false] {
            let serial = pass(&net, &x, &grad_out, accumulate);
            let team = ENGINE.with(|e| in_team(e, || pass(&net, &x, &grad_out, accumulate)));
            prop_assert_eq!(bits(&team.0), bits(&serial.0), "forward, batch {}", rows);
            prop_assert_eq!(bits(&team.1), bits(&serial.1), "input grad, batch {}", rows);
            prop_assert_eq!(&team.2, &serial.2, "Adam step, accumulate {}", accumulate);
        }
    }

    /// Signed zeros and NaNs in the input reach the forward output the
    /// same way with and without a team.
    #[test]
    fn forward_propagates_signed_zero_and_nan_under_a_team(
        batch in 0usize..BATCHES.len(),
        shape in 0usize..WIDTHS.len(),
        values in prop::collection::vec(-2.0f64..2.0, 31),
        specials in prop::collection::vec(0usize..64, 1..6),
        seed in 0u64..1000,
    ) {
        thread_local! {
            static ENGINE: EvalEngine = EvalEngine::new(2);
        }
        let (rows, widths) = (BATCHES[batch], WIDTHS[shape]);
        let net = Mlp::new(widths, Activation::Relu, seed);
        let mut x = mat(rows, widths[0], &values, 0);
        let n = x.as_slice().len();
        for (i, &at) in specials.iter().enumerate() {
            x.as_mut_slice()[at % n] = if i % 2 == 0 { -0.0 } else { f64::NAN };
        }
        let forward = || net.forward_ws(&x, &mut Workspace::new()).clone();
        let serial = forward();
        let team = ENGINE.with(|e| in_team(e, forward));
        prop_assert_eq!(bits(&team), bits(&serial));
    }
}
