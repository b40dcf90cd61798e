//! Simulator hot-path benches: DC/AC solves on sparse vs dense backends
//! and MOSFET model evaluation.
//!
//! These feed `results/BENCH_sim_baseline.json`; the CI perf-smoke job
//! diffs a fresh run against that baseline with `maopt-report bench-diff`
//! so the sparse-solver speedup cannot silently regress. Set
//! `MAOPT_BENCH_QUICK=1` to trade sample count for speed, as CI does.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use maopt_sim::analysis::ac::AcAnalysis;
use maopt_sim::analysis::dc::DcAnalysis;
use maopt_sim::{nmos_180nm, pmos_180nm, Circuit, MosInstance, MosModel, SolverKind};

fn sample_size() -> usize {
    if std::env::var_os("MAOPT_BENCH_QUICK").is_some() {
        10
    } else {
        40
    }
}

fn mos(model: &MosModel, w_um: f64, l_um: f64, m: f64) -> MosInstance {
    MosInstance {
        model: model.clone(),
        w: w_um * 1e-6,
        l: l_um * 1e-6,
        m,
    }
}

/// A two-stage OTA-shaped circuit: differential pair + mirror load + tail,
/// common-source second stage, Miller compensation. Nine MOSFETs, ~20 MNA
/// unknowns — the workload one paper evaluation solves hundreds of times.
fn ota_like() -> Circuit {
    let nmos = nmos_180nm();
    let pmos = pmos_180nm();
    let mut ckt = Circuit::new();
    let gnd = Circuit::GROUND;
    let vdd = ckt.node("vdd");
    let inp = ckt.node("inp");
    let inn = ckt.node("inn");
    let tail = ckt.node("tail");
    let d1 = ckt.node("d1");
    let d2 = ckt.node("d2");
    let out = ckt.node("out");
    let bias = ckt.node("bias");
    let zn = ckt.node("zn");

    ckt.vsource_ac("VDD", vdd, gnd, 1.8, 0.0);
    ckt.vsource_ac("VINP", inp, gnd, 0.9, 1.0);
    ckt.vsource("VINN", inn, gnd, 0.9);
    ckt.isource("IB", vdd, bias, 10e-6);
    ckt.mosfet("MB", bias, bias, gnd, gnd, mos(&nmos, 2.0, 1.0, 1.0));
    ckt.mosfet("M5", tail, bias, gnd, gnd, mos(&nmos, 4.0, 1.0, 1.0));
    ckt.mosfet("M1", d1, inn, tail, gnd, mos(&nmos, 20.0, 0.5, 2.0));
    ckt.mosfet("M2", d2, inp, tail, gnd, mos(&nmos, 20.0, 0.5, 2.0));
    ckt.mosfet("M3", d1, d1, vdd, vdd, mos(&pmos, 10.0, 0.5, 2.0));
    ckt.mosfet("M4", d2, d1, vdd, vdd, mos(&pmos, 10.0, 0.5, 2.0));
    ckt.mosfet("M6", out, d2, vdd, vdd, mos(&pmos, 60.0, 0.5, 4.0));
    ckt.mosfet("M7", out, bias, gnd, gnd, mos(&nmos, 12.0, 1.0, 2.0));
    ckt.resistor("RZ", d2, zn, 2e3);
    ckt.capacitor("CC", zn, out, 1e-12);
    ckt.capacitor("CL", out, gnd, 20e-12);
    ckt
}

/// A driven RC ladder with `stages` sections (≈ `stages` + 1 unknowns):
/// the larger, mostly-linear end of the MNA size range.
fn rc_ladder(stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let gnd = Circuit::GROUND;
    let mut prev = ckt.node("n0");
    ckt.vsource("V1", prev, gnd, 1.0);
    for k in 1..=stages {
        let node = ckt.node(&format!("n{k}"));
        ckt.resistor(&format!("R{k}"), prev, node, 1e3 + k as f64);
        ckt.capacitor(&format!("C{k}"), node, gnd, 1e-12);
        prev = node;
    }
    ckt.resistor("Rend", prev, gnd, 1e3);
    ckt
}

fn dc(kind: SolverKind) -> DcAnalysis {
    let mut a = DcAnalysis::new();
    a.solver = kind;
    a
}

/// DC operating-point solves, both backends on both workloads. The
/// sparse runs land after the per-topology symbolic factorization is
/// cached, so they measure the steady-state reuse path.
fn bench_dc(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(sample_size());

    let ota = ota_like();
    let ladder = rc_ladder(120);
    // Warm the topology cache outside the timing loops.
    dc(SolverKind::Sparse).run(&ota).unwrap();
    dc(SolverKind::Sparse).run(&ladder).unwrap();

    group.bench_function("dc_ota/sparse", |b| {
        b.iter(|| black_box(dc(SolverKind::Sparse).run(black_box(&ota)).unwrap()))
    });
    group.bench_function("dc_ota/dense", |b| {
        b.iter(|| black_box(dc(SolverKind::Dense).run(black_box(&ota)).unwrap()))
    });
    group.bench_function("dc_ladder120/sparse", |b| {
        b.iter(|| black_box(dc(SolverKind::Sparse).run(black_box(&ladder)).unwrap()))
    });
    group.bench_function("dc_ladder120/dense", |b| {
        b.iter(|| black_box(dc(SolverKind::Dense).run(black_box(&ladder)).unwrap()))
    });
    group.finish();
}

/// AC sweeps: one complex factorization per frequency point, shared
/// symbolic on the sparse path.
fn bench_ac(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(sample_size());

    let ota = ota_like();
    let op = dc(SolverKind::Sparse).run(&ota).unwrap();
    let freqs = maopt_sim::analysis::ac::log_freqs(10.0, 1e9, 4);

    group.bench_function("ac_ota32/sparse", |b| {
        b.iter(|| {
            let ac = AcAnalysis::new(freqs.clone()).with_solver(SolverKind::Sparse);
            black_box(ac.run(black_box(&ota), black_box(&op)).unwrap())
        })
    });
    group.bench_function("ac_ota32/dense", |b| {
        b.iter(|| {
            let ac = AcAnalysis::new(freqs.clone()).with_solver(SolverKind::Dense);
            black_box(ac.run(black_box(&ota), black_box(&op)).unwrap())
        })
    });
    group.finish();
}

/// MOSFET evaluation over 256 design points spanning the bias and sizing
/// range: the device kernel every Newton iteration runs per transistor.
fn bench_mosfet_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(sample_size());

    let model = nmos_180nm();
    // (vd, vg, vs, vb, w, l, m) per point.
    let points: Vec<[f64; 7]> = (0..256)
        .map(|i| {
            let t = i as f64 / 256.0;
            [
                0.2 + 1.4 * t,
                0.4 + 1.2 * (1.0 - t),
                0.05 * t,
                0.0,
                (5.0 + 95.0 * t) * 1e-6,
                (0.18 + 1.0 * t) * 1e-6,
                1.0 + (i % 4) as f64,
            ]
        })
        .collect();

    let mut out = Vec::with_capacity(points.len());
    group.bench_function("mosfet_eval256/scalar", |b| {
        b.iter(|| {
            out.clear();
            for &[vd, vg, vs, vb, w, l, m] in black_box(&points) {
                out.push(model.eval(vd, vg, vs, vb, w, l, m));
            }
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(sim_benches, bench_dc, bench_ac, bench_mosfet_eval);
criterion_main!(sim_benches);
