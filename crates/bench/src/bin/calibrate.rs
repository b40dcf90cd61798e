use maopt_bo::BoOptimizer;
use maopt_core::runner::{make_initial_sets_with, run_method, Optimizer};
use maopt_core::{MaOptConfig, SizingProblem};
use maopt_exec::EvalEngine;
use std::time::Instant;

fn check(p: &dyn SizingProblem, runs: usize, budget: usize) {
    let inits = make_initial_sets_with(p, runs, 100, 11, &EvalEngine::default());
    let methods: Vec<Box<dyn Optimizer>> = vec![
        Box::new(BoOptimizer::new()),
        Box::new(MaOptConfig::dnn_opt(0)),
        Box::new(MaOptConfig::ma_opt2(0)),
        Box::new(MaOptConfig::ma_opt(0)),
    ];
    for m in methods {
        let t0 = Instant::now();
        let s = run_method(m.as_ref(), p, &inits, runs, budget, 5);
        println!(
            "  {:8} success {}  minT {:?}  log10(aFoM) {:+.2}  ({:?})",
            s.name,
            s.success_rate(),
            s.min_target.map(|t| (t * 1e4).round() / 10.0),
            s.log10_avg_fom_or_neg_inf(),
            t0.elapsed()
        );
    }
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "ota".into());
    let runs: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let budget: usize = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    match which.as_str() {
        "ota" => {
            println!("OTA:");
            check(&maopt_circuits::TwoStageOta::new(), runs, budget);
        }
        "tia" => {
            println!("TIA:");
            check(&maopt_circuits::ThreeStageTia::new(), runs, budget);
        }
        "ldo" => {
            println!("LDO:");
            check(&maopt_circuits::LdoRegulator::new(), runs, budget);
        }
        _ => eprintln!("unknown circuit"),
    }
}
