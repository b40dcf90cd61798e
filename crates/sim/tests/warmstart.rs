//! Warm-started DC solves must be *transparent*: same converged solution
//! (to solver tolerance), same error surface, and an exact cold path when
//! the seed is unusable — for any seed, including hostile ones.

use std::sync::Arc;

use maopt_exec::{set_ambient_metrics, MetricSnapshot, MetricsRegistry};
use maopt_sim::analysis::dc::DcAnalysis;
use maopt_sim::{nmos_180nm, pmos_180nm, Circuit, MosInstance, SimError};
use proptest::prelude::*;

fn mi(model: &maopt_sim::MosModel, w_um: f64, l_um: f64) -> MosInstance {
    MosInstance {
        model: model.clone(),
        w: w_um * 1e-6,
        l: l_um * 1e-6,
        m: 1.0,
    }
}

/// A five-transistor OTA plus bias chain — nonlinear enough that the cold
/// path exercises the continuation ladder, smooth enough that nearby
/// sizings have nearby operating points.
fn five_t_ota(w1: f64, w2: f64, wt: f64) -> Circuit {
    let nmos = nmos_180nm();
    let pmos = pmos_180nm();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("inp");
    let inn = ckt.node("inn");
    let tail = ckt.node("tail");
    let d1 = ckt.node("d1");
    let out = ckt.node("out");
    let bias = ckt.node("bias");
    let gnd = Circuit::GROUND;
    ckt.vsource("VDD", vdd, gnd, 1.8);
    ckt.vsource("VINP", inp, gnd, 0.9);
    ckt.vsource("VINN", inn, gnd, 0.9);
    ckt.isource("IB", vdd, bias, 10e-6);
    ckt.mosfet("MB", bias, bias, gnd, gnd, mi(&nmos, 2.0, 1.0));
    ckt.mosfet("MT", tail, bias, gnd, gnd, mi(&nmos, wt, 1.0));
    ckt.mosfet("M1", d1, inp, tail, gnd, mi(&nmos, w1, 0.5));
    ckt.mosfet("M2", out, inn, tail, gnd, mi(&nmos, w1, 0.5));
    ckt.mosfet("M3", d1, d1, vdd, vdd, mi(&pmos, w2, 0.5));
    ckt.mosfet("M4", out, d1, vdd, vdd, mi(&pmos, w2, 0.5));
    ckt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A warm start from a *nearby* design's operating point converges to
    /// the same solution as the cold ladder, to solver tolerance.
    #[test]
    fn warm_and_cold_converge_to_the_same_op(
        w1 in 4.0f64..80.0,
        w2 in 4.0f64..80.0,
        wt in 4.0f64..40.0,
        dw in -0.25f64..0.25,
    ) {
        let ckt = five_t_ota(w1, w2, wt);
        let reference = five_t_ota(w1 * (1.0 + dw), w2 * (1.0 - 0.5 * dw), wt);
        let seed = DcAnalysis::new().run(&reference).unwrap().unknowns().to_vec();

        let plain = DcAnalysis::new().run(&ckt).unwrap();
        let warm_op = DcAnalysis::new().run_seeded(&ckt, None, Some(&seed)).unwrap();
        for (a, b) in warm_op.unknowns().iter().zip(plain.unknowns()) {
            prop_assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "warm {a} vs cold {b}"
            );
        }
    }

    /// A deliberately hostile seed (rail-to-rail garbage) never changes
    /// the answer: the fallback reruns the ladder from the flat-band guess
    /// and lands on the cold solution.
    #[test]
    fn hostile_seed_is_rescued_by_the_cold_ladder(
        w1 in 4.0f64..80.0,
        w2 in 4.0f64..80.0,
        wt in 4.0f64..40.0,
        mag in 20.0f64..200.0,
    ) {
        let ckt = five_t_ota(w1, w2, wt);
        let plain = DcAnalysis::new().run(&ckt).unwrap();
        let hostile: Vec<f64> = (0..plain.unknowns().len())
            .map(|i| if i % 2 == 0 { mag } else { -mag })
            .collect();
        let rescued = DcAnalysis::new().run_seeded(&ckt, None, Some(&hostile)).unwrap();
        for (a, b) in rescued.unknowns().iter().zip(plain.unknowns()) {
            prop_assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "rescued {a} vs cold {b}"
            );
        }
        // The rescue bills the wasted warm attempt: at least as many
        // iterations as the plain cold solve.
        prop_assert!(rescued.newton_iterations() >= plain.newton_iterations());
    }
}

#[test]
fn wrong_length_seed_runs_cold_not_bad_request() {
    let ckt = five_t_ota(20.0, 20.0, 10.0);
    let plain = DcAnalysis::new().run(&ckt).unwrap();
    let short = vec![0.5; 3];
    let op = DcAnalysis::new()
        .run_seeded(&ckt, None, Some(&short))
        .unwrap();
    // An unusable seed gives exactly the cold solve, iteration count
    // included.
    assert_eq!(plain.unknowns(), op.unknowns());
    assert_eq!(plain.newton_iterations(), op.newton_iterations());
}

#[test]
fn seeded_and_cold_fail_with_identical_error_variants() {
    // An iteration budget of 1 defeats every continuation stage on this
    // nonlinear circuit, whatever the starting point.
    let ckt = five_t_ota(20.0, 20.0, 10.0);
    let strangled = DcAnalysis {
        max_iter: 1,
        ..DcAnalysis::new()
    };
    let hostile = vec![40.0; DcAnalysis::new().run(&ckt).unwrap().unknowns().len()];
    let a = strangled.run(&ckt).unwrap_err();
    let b = strangled
        .run_seeded(&ckt, None, Some(&hostile))
        .unwrap_err();
    match (&a, &b) {
        (
            SimError::NoConvergence { analysis: aa, .. },
            SimError::NoConvergence { analysis: ab, .. },
        ) => assert_eq!(aa, ab),
        other => panic!("expected matching NoConvergence variants, got {other:?}"),
    }
}

#[test]
fn warmstart_outcomes_land_in_the_ambient_metrics() {
    let reg = Arc::new(MetricsRegistry::new());
    let _guard = set_ambient_metrics(Some(Arc::clone(&reg)));

    let ckt = five_t_ota(20.0, 20.0, 10.0);
    let seed = DcAnalysis::new().run(&ckt).unwrap().unknowns().to_vec();
    // Hit: seeded with its own converged OP.
    DcAnalysis::new()
        .run_seeded(&ckt, None, Some(&seed))
        .unwrap();
    // Cold: no seed provided.
    DcAnalysis::new().run_seeded(&ckt, None, None).unwrap();
    // Fallback: hostile seed.
    let hostile = vec![50.0; seed.len()];
    DcAnalysis::new()
        .run_seeded(&ckt, None, Some(&hostile))
        .unwrap();

    let snap = reg.snapshot();
    let counter = |name: &str| -> u64 {
        snap.iter()
            .find_map(|m| match m {
                MetricSnapshot::Counter { name: n, value } if n == name => Some(*value),
                _ => None,
            })
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(counter("sim.warmstart.hit"), 1);
    assert_eq!(counter("sim.warmstart.cold"), 1);
    assert_eq!(counter("sim.warmstart.fallback"), 1);
    let hist = snap
        .iter()
        .find_map(|m| match m {
            MetricSnapshot::Histogram(h) if h.name == "sim.newton_iters" => Some(h),
            _ => None,
        })
        .expect("newton_iters histogram missing");
    assert_eq!(hist.count, 4, "one observation per solve, setup included");
    assert!(hist.mean() >= 1.0);
}
