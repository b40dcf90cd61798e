//! Bring your own sizing problem: implement [`SizingProblem`] for an
//! analytic RC-filter design task and optimize it with every method from
//! the paper.
//!
//! ```text
//! cargo run --release --example custom_problem
//! ```

use ma_opt::bo::BoOptimizer;
use ma_opt::core::runner::{sample_initial_set, Optimizer};
use ma_opt::core::{MaOptConfig, ParamSpec, SizingProblem, Spec};
use ma_opt::exec::EvalEngine;

/// Design a second-order RC low-pass: choose R1, C1, R2, C2 to hit a
/// −3 dB corner near 10 kHz while minimizing total capacitor area
/// (C1 + C2, our stand-in "cost"), keeping the input resistance above
/// 1 kΩ.
struct RcFilterDesign {
    params: Vec<ParamSpec>,
    specs: Vec<Spec>,
}

impl RcFilterDesign {
    fn new() -> Self {
        let params = vec![
            ParamSpec::log("R1", "ohm", 100.0, 1e6),
            ParamSpec::log("C1", "F", 1e-12, 1e-6),
            ParamSpec::log("R2", "ohm", 100.0, 1e6),
            ParamSpec::log("C2", "F", 1e-12, 1e-6),
        ];
        let specs = vec![
            Spec::at_least("corner low", 1, 8e3),
            Spec::at_most("corner high", 1, 12e3),
            Spec::at_least("input R", 2, 1e3),
        ];
        RcFilterDesign { params, specs }
    }
}

impl SizingProblem for RcFilterDesign {
    fn name(&self) -> &str {
        "rc_filter"
    }

    fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    fn metric_names(&self) -> Vec<String> {
        vec!["cap_area".into(), "corner_hz".into(), "rin_ohm".into()]
    }

    fn specs(&self) -> &[Spec] {
        &self.specs
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        let p = self.denormalize(x);
        let (r1, c1, r2, c2) = (p[0], p[1], p[2], p[3]);
        // Dominant-pole estimate of the cascade corner.
        let tau = r1 * c1 + (r1 + r2) * c2;
        let corner = 1.0 / (2.0 * std::f64::consts::PI * tau);
        vec![c1 + c2, corner, r1]
    }
}

fn main() {
    let problem = RcFilterDesign::new();
    let init = sample_initial_set(&problem, 30, 11);
    let budget = 60;
    let engine = EvalEngine::default();

    let methods: Vec<Box<dyn Optimizer>> = vec![
        Box::new(BoOptimizer::new()),
        Box::new(MaOptConfig::dnn_opt(11)),
        Box::new(MaOptConfig::ma_opt(11)),
    ];

    println!(
        "{:>8} | {:>8} | {:>12} | {:>12}",
        "method", "success", "best FoM", "cap area (pF)"
    );
    println!("{}", "-".repeat(52));
    for method in methods {
        let result = method.optimize(&problem, &init, budget, 11, &engine);
        let area = result
            .best_feasible_target()
            .map(|a| format!("{:.2}", a * 1e12))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>8} | {:>8} | {:>12.3e} | {:>12}",
            result.label,
            if result.success() { "yes" } else { "no" },
            result.best_fom(),
            area
        );
    }
}
