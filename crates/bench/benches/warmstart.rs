//! Cross-design Newton warm-starting benches: DC operating-point solves
//! seeded with a nearby design's converged OP versus the cold
//! continuation ladder.
//!
//! These feed `results/BENCH_warmstart_baseline.json`; the CI perf-smoke
//! job diffs a fresh run against that baseline with
//! `maopt-report bench-diff` so the warm-start speedup cannot silently
//! regress. The committed baseline documents the headline claim: warm
//! DC evaluation throughput is at least 1.5× the cold path. Set
//! `MAOPT_BENCH_QUICK=1` to trade sample count for speed, as CI does.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use maopt_sim::analysis::dc::DcAnalysis;
use maopt_sim::{nmos_180nm, pmos_180nm, Circuit, MosInstance, MosModel};

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

/// The two-stage OTA workload from the `sim` bench group, parameterized
/// by a sizing scale so a "reference design" can sit near — but not on —
/// the benched design, exactly like an elite parent during optimization.
fn ota_like(scale: f64) -> Circuit {
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

    ckt.vsource("VDD", vdd, gnd, 1.8);
    ckt.vsource("VINP", inp, gnd, 0.9);
    ckt.vsource("VINN", inn, gnd, 0.9);
    ckt.isource("IB", vdd, bias, 10e-6);
    ckt.mosfet("MB", bias, bias, gnd, gnd, mos(&nmos, 2.0, 1.0, 1.0));
    ckt.mosfet(
        "M5",
        tail,
        bias,
        gnd,
        gnd,
        mos(&nmos, 4.0 * scale, 1.0, 1.0),
    );
    ckt.mosfet("M1", d1, inn, tail, gnd, mos(&nmos, 20.0 * scale, 0.5, 2.0));
    ckt.mosfet("M2", d2, inp, tail, gnd, mos(&nmos, 20.0 * scale, 0.5, 2.0));
    ckt.mosfet("M3", d1, d1, vdd, vdd, mos(&pmos, 10.0 * scale, 0.5, 2.0));
    ckt.mosfet("M4", d2, d1, vdd, vdd, mos(&pmos, 10.0 * scale, 0.5, 2.0));
    ckt.mosfet("M6", out, d2, vdd, vdd, mos(&pmos, 60.0 * scale, 0.5, 4.0));
    ckt.mosfet(
        "M7",
        out,
        bias,
        gnd,
        gnd,
        mos(&nmos, 12.0 * scale, 1.0, 2.0),
    );
    ckt.resistor("RZ", d2, zn, 2e3);
    ckt.capacitor("CC", zn, out, 1e-12);
    ckt.capacitor("CL", out, gnd, 20e-12);
    ckt
}

/// DC operating-point throughput, warm vs cold. `cold` is the full
/// continuation ladder (no seed), `warm` seeds Newton with a
/// 10%-perturbed reference design's converged OP, and `fallback` feeds a
/// hostile seed so the rescue path's full cost (wasted warm attempt plus
/// the ladder) stays on the books.
fn bench_warmstart(c: &mut Criterion) {
    let mut group = c.benchmark_group("warmstart");
    group.sample_size(sample_size());

    let ota = ota_like(1.0);
    let reference = ota_like(1.1);
    // Warm the per-topology symbolic cache outside the timing loops and
    // capture the reference design's converged operating point.
    let dc = DcAnalysis::new();
    let seed = dc.run(&reference).unwrap().unknowns().to_vec();
    let hostile: Vec<f64> = seed.iter().map(|_| 40.0).collect();

    group.bench_function("dc_ota/cold", |b| {
        b.iter(|| black_box(dc.run(black_box(&ota)).unwrap()))
    });
    group.bench_function("dc_ota/warm", |b| {
        b.iter(|| {
            black_box(
                dc.run_seeded(black_box(&ota), None, Some(black_box(&seed)))
                    .unwrap(),
            )
        })
    });
    group.bench_function("dc_ota/fallback", |b| {
        b.iter(|| {
            black_box(
                dc.run_seeded(black_box(&ota), None, Some(black_box(&hostile)))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(warmstart_benches, bench_warmstart);
criterion_main!(warmstart_benches);
