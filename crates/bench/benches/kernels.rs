//! Hot-path kernel benches: the allocation-free building blocks a critic
//! training step is made of, plus the full step itself.
//!
//! These are the numbers `BENCH_kernels.json` is built from (run with
//! `CRITERION_JSON=BENCH_kernels.json cargo bench --bench kernels`); the
//! CI perf-smoke job diffs them against the committed baseline with
//! `maopt-report bench-diff`. Set `MAOPT_BENCH_QUICK=1` to trade sample
//! count for speed, as CI does.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use maopt_core::{Critic, FomConfig, Population, Spec, Surrogate};
use maopt_exec::EvalEngine;
use maopt_linalg::{kernels, Mat};
use maopt_nn::{mse_loss_grad_into, Activation, Mlp, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_size() -> usize {
    if std::env::var_os("MAOPT_BENCH_QUICK").is_some() {
        10
    } else {
        40
    }
}

fn seq_mat(rows: usize, cols: usize, scale: f64) -> Mat {
    Mat::from_fn(rows, cols, |i, j| {
        ((i * cols + j) as f64 * 0.37 - 1.3).sin() * scale
    })
}

/// A population shaped like the paper's critic workload: d = 2 design
/// variables, m + 1 = 2 metrics.
fn make_population(n: usize) -> Population {
    let specs = vec![Spec::at_least("m", 1, 1.0)];
    let cfg = FomConfig::default();
    let mut pop = Population::new();
    let mut seed = 0xbe9cu64;
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

/// Raw linalg kernels at the sizes the paper's `[100, 100]` nets hit.
fn bench_linalg_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(sample_size());

    let a = seq_mat(32, 100, 0.9);
    let b = seq_mat(100, 100, -1.1);
    let mut out = Mat::default();
    group.bench_function("matmul_into/32x100x100", |b_| {
        b_.iter(|| kernels::matmul_into(black_box(&a), black_box(&b), &mut out))
    });

    // `x · Wᵀ` at the paper's critic layer shapes: batch 32 through a
    // 100→100 hidden layer, and through a 100-input layer of 32 units.
    // This is the product every `Dense` forward runs.
    for (rows, outs) in [(32, 100), (32, 32)] {
        let x = seq_mat(rows, 100, 0.9);
        let w = seq_mat(outs, 100, -1.1);
        group.bench_function(format!("matmul_nt_into/{rows}x{outs}x100"), |b_| {
            b_.iter(|| kernels::matmul_nt_into(black_box(&x), black_box(&w), &mut out))
        });
    }
    group.finish();
}

/// MLP passes through the workspace, at the paper's critic shape.
fn bench_mlp_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlp");
    group.sample_size(sample_size());

    let mut mlp = Mlp::new(&[4, 100, 100, 2], Activation::Relu, 42);
    let x = seq_mat(32, 4, 1.0);
    let target = seq_mat(32, 2, 0.5);
    let mut ws = Workspace::new();
    let mut grad = Mat::default();

    group.bench_function("forward_ws/32x4", |b| {
        b.iter(|| {
            black_box(mlp.forward_ws(black_box(&x), &mut ws));
        })
    });

    mlp.forward_ws(&x, &mut ws);
    group.bench_function("backward_ws/32x4", |b| {
        b.iter(|| {
            let pred = ws.output().expect("forward ran").clone();
            mse_loss_grad_into(&pred, &target, &mut grad);
            mlp.zero_grad();
            black_box(mlp.backward_ws(&grad, &mut ws, true));
        })
    });
    group.finish();
}

/// The full critic step and batched prediction — the two hot loops of an
/// optimization round.
fn bench_critic(c: &mut Criterion) {
    let mut group = c.benchmark_group("critic");
    group.sample_size(sample_size());

    let pop = make_population(60);
    let mut critic = Critic::new(2, 2, &[100, 100], 1e-3, 7);
    critic.refit_scaler(&pop);
    let mut rng = StdRng::seed_from_u64(8);
    critic.train(&pop, 2, 32, &mut rng); // warm up the scratch buffers

    group.bench_function("train_step/batch32", |b| {
        b.iter(|| black_box(critic.train(&pop, 1, 32, &mut rng)))
    });

    let inputs = seq_mat(256, 4, 0.4);
    let mut ws = Workspace::new();
    let mut out = Mat::default();
    group.bench_function("predict_batch/256", |b| {
        b.iter(|| {
            critic.predict_batch_raw_into(black_box(&inputs), &mut ws, &mut out);
            black_box(out.as_slice().len())
        })
    });
    group.finish();
}

/// The register-tiled GEMM at 96×96 — exactly 24 row blocks by
/// 12 column blocks, so steady-state tile throughput dominates; ragged
/// edges are exercised by the 100-column `kernels` group above.
fn bench_gemm_tiled(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_tiled");
    group.sample_size(sample_size());

    let a = seq_mat(96, 96, 0.8);
    let b = seq_mat(96, 96, -0.9);
    let mut out = Mat::default();
    group.bench_function("matmul_into/96x96x96", |b_| {
        b_.iter(|| kernels::matmul_into(black_box(&a), black_box(&b), &mut out))
    });
    group.finish();
}

/// Persistent-pool dispatch: a `map` over trivial items on an engine
/// created once outside the timing loop — this is the per-call overhead
/// that used to include spawning (and joining) a thread per worker.
fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    group.sample_size(sample_size());

    let engine = EvalEngine::new(2);
    group.bench_function("map_reuse/64", |b| {
        b.iter(|| {
            let out = engine.map(black_box((0..64u64).collect::<Vec<u64>>()), |_, v| {
                v.wrapping_mul(0x9e37_79b9)
            });
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(
    kernel_benches,
    bench_linalg_kernels,
    bench_mlp_passes,
    bench_critic,
    bench_gemm_tiled,
    bench_pool
);
criterion_main!(kernel_benches);
