//! Quickstart: size the paper's two-stage OTA with MA-Opt.
//!
//! This runs a reduced version of the paper's protocol (one run, small
//! budget) so it finishes in well under a minute:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ma_opt::circuits::TwoStageOta;
use ma_opt::core::runner::{sample_initial_set, Optimizer};
use ma_opt::core::{MaOptConfig, SizingProblem};
use ma_opt::exec::EvalEngine;

fn main() {
    // 1. The sizing problem: 16 parameters, Eq. 7 specs, minimize power.
    let problem = TwoStageOta::new();
    println!(
        "problem: {} ({} parameters, {} constraints)",
        problem.name(),
        problem.dim(),
        problem.specs().len()
    );

    // 2. Simulate a random initial sample set (the paper uses 100).
    let init = sample_initial_set(&problem, 40, 7);
    println!("simulated {} initial designs", init.len());

    // 3. Run MA-Opt: 3 actors, shared elite set, near-sampling. Actor
    //    training and simulations fan out over one worker per core
    //    (`MAOPT_JOBS` overrides the count); any count gives the same result.
    let engine = EvalEngine::default();
    let result = MaOptConfig::ma_opt(7).optimize(&problem, &init, 60, 7, &engine);

    // 4. Report.
    println!(
        "\nbest FoM {:.4e} after {} simulations ({} by near-sampling)",
        result.best_fom(),
        result.trace.num_sims(),
        result.trace.near_sample_count(),
    );
    match result.best_feasible_design() {
        Some(x) => {
            let power = result.best_feasible_target().expect("feasible target");
            println!("all specs met; minimum power = {:.3} mW", power * 1e3);
            println!("\nsized parameters:");
            let phys = problem.denormalize(x);
            for (p, v) in problem.params().iter().zip(phys) {
                println!("  {:>4} = {:9.3} {}", p.name, v, p.unit);
            }
        }
        None => println!("no fully feasible design found — try a larger budget"),
    }
}
