//! The testbed runtime model (§III-C reproduction).
//!
//! The paper measures wall-clock hours on HSpice + Xeon Gold 6132, where a
//! single circuit simulation costs ~10 s and dominates everything else. Our
//! simulator evaluates the same testbenches in milliseconds, which *inverts*
//! the training/simulation cost ratio — measured wall-clock would make the
//! multi-actor variants look faster than DNN-Opt, the opposite of the paper.
//!
//! To reproduce the paper's runtime *shape* we therefore also report a
//! modeled runtime: each simulation is assigned the paper's per-simulation
//! cost, network training its measured share, and each extra parallel actor
//! lane the multiprocessing overhead the paper observed. The three constants
//! are calibrated once against the paper's **OTA** column (Table II); the
//! model is then applied unchanged to the TIA and LDO, so those tables are
//! genuine predictions to compare with Tables IV and VI.

use maopt_core::trace::SimKind;
use maopt_core::RunResult;

/// Calibrated cost constants (seconds).
#[derive(Debug, Clone, Copy)]
pub struct RuntimeModel {
    /// One circuit simulation plus one single-lane training round — set by
    /// DNN-Opt's Table II runtime: `0.69 h / 200 sims = 12.4 s`.
    pub round_single: f64,
    /// Overhead of each *additional* parallel actor lane per round
    /// (process spawn, model reload, context switching). Calibrated from
    /// MA-Opt²'s Table II runtime: 1.15 h over ~67 three-actor rounds
    /// gives ≈ 62 s per round, i.e. ≈ 24 s per extra lane beyond the
    /// single-lane cost.
    pub lane_overhead: f64,
    /// A near-sampling round: one simulation, no training — the paper notes
    /// these rounds are cheaper than actor-critic rounds.
    pub round_near_sampling: f64,
    /// BO per-iteration base cost plus the `O(N³)` GP fit, expressed as
    /// `bo_base + bo_cubic·(N/100)³` seconds; calibrated from BO's 1.54 h.
    pub bo_base: f64,
    /// Cubic GP coefficient (seconds at N = 100).
    pub bo_cubic: f64,
}

impl Default for RuntimeModel {
    fn default() -> Self {
        RuntimeModel {
            round_single: 12.4,
            lane_overhead: 24.0,
            round_near_sampling: 4.0,
            bo_base: 12.4,
            bo_cubic: 1.5,
        }
    }
}

impl RuntimeModel {
    /// Modeled runtime in hours for one optimization run, derived from its
    /// trace (which records how each simulation was produced).
    pub fn run_hours(&self, result: &RunResult, n_actors: usize) -> f64 {
        let mut seconds = 0.0;
        let mut pop_n = result
            .trace
            .entries()
            .iter()
            .filter(|e| e.kind == SimKind::Init)
            .count();
        let mut actor_sims_in_round = 0usize;
        for e in result.trace.entries() {
            match e.kind {
                SimKind::Init => {}
                SimKind::NearSample => {
                    // One simulation at SPICE cost (≈80 % of a single-lane
                    // round) plus the cheap batched critic ranking.
                    seconds += self.round_near_sampling + self.round_single * 0.8;
                    pop_n += 1;
                }
                SimKind::Actor => {
                    actor_sims_in_round += 1;
                    pop_n += 1;
                    if actor_sims_in_round == n_actors {
                        // One multi-actor round: single-lane cost plus the
                        // overhead of the extra lanes.
                        seconds += self.round_single + self.lane_overhead * (n_actors as f64 - 1.0);
                        actor_sims_in_round = 0;
                    }
                }
                SimKind::Baseline => {
                    let n = pop_n as f64 / 100.0;
                    seconds += self.bo_base + self.bo_cubic * n * n * n;
                    pop_n += 1;
                }
            }
        }
        // A trailing partial actor round still costs a full round.
        if actor_sims_in_round > 0 {
            seconds += self.round_single + self.lane_overhead * (n_actors as f64 - 1.0);
        }
        seconds / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maopt_core::problems::Sphere;
    use maopt_core::runner::{sample_initial_set, Optimizer};
    use maopt_core::MaOptConfig;
    use maopt_exec::EvalEngine;

    fn tiny(cfg: MaOptConfig) -> MaOptConfig {
        MaOptConfig {
            hidden: vec![8],
            critic_steps: 2,
            actor_steps: 2,
            n_samples: 10,
            ..cfg
        }
    }

    #[test]
    fn dnn_opt_round_costs_match_calibration() {
        let p = Sphere::new(2);
        let init = sample_initial_set(&p, 5, 1);
        let r = tiny(MaOptConfig::dnn_opt(1)).optimize(&p, &init, 10, 1, &EvalEngine::serial());
        let model = RuntimeModel::default();
        let hours = model.run_hours(&r, 1);
        // 10 single-actor rounds × 12.4 s.
        assert!((hours * 3600.0 - 124.0).abs() < 1.0, "hours {hours}");
    }

    #[test]
    fn multi_actor_rounds_cost_more_than_single() {
        let p = Sphere::new(2);
        let init = sample_initial_set(&p, 5, 2);
        let model = RuntimeModel::default();
        let r1 = tiny(MaOptConfig::dnn_opt(2)).optimize(&p, &init, 30, 2, &EvalEngine::serial());
        let r3 = tiny(MaOptConfig::ma_opt2(2)).optimize(&p, &init, 30, 2, &EvalEngine::serial());
        let h1 = model.run_hours(&r1, 1);
        let h3 = model.run_hours(&r3, 3);
        assert!(h3 > h1, "multi-actor must model slower: {h1} vs {h3}");
        // But less than 3× slower (parallelism helps).
        assert!(h3 < 3.0 * h1, "and cheaper than serial: {h1} vs {h3}");
    }

    #[test]
    fn bo_cost_grows_with_population() {
        // Two synthetic traces: BO iterations early vs late in a run.
        use maopt_bo::BoOptimizer;
        let p = Sphere::new(2);
        let small_init = sample_initial_set(&p, 5, 3);
        let large_init = sample_initial_set(&p, 150, 3);
        let bo = BoOptimizer {
            n_candidates: 10,
            ..BoOptimizer::new()
        };
        let model = RuntimeModel::default();
        let r_small = bo.optimize(&p, &small_init, 5, 3, &EvalEngine::serial());
        let r_large = bo.optimize(&p, &large_init, 5, 3, &EvalEngine::serial());
        assert!(model.run_hours(&r_large, 1) > model.run_hours(&r_small, 1));
    }
}
