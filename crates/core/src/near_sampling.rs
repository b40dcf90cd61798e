//! The near-sampling method (Algorithm 2): dense sampling around the
//! incumbent best design, ranked by the critic, one simulation spent on the
//! predicted winner.

use std::cell::RefCell;

use maopt_exec::EvalEngine;
use maopt_linalg::Mat;
use maopt_nn::Workspace;
use rand::rngs::StdRng;
use rand::Rng;

use crate::critic::Surrogate;
use crate::fom::{fom, FomConfig};
use crate::problem::Spec;

/// Most candidate rows one surrogate call scores. Rows are independent,
/// so the block size changes no result; it bounds the activations each
/// worker's scratch keeps resident between proposals.
const SCORE_BLOCK: usize = 128;

thread_local! {
    /// Per-worker scoring scratch: the chunk's input slice, the surrogate
    /// forward workspace, and the prediction buffer. Thread-local so every
    /// engine worker reuses its own buffers across chunks and across
    /// proposals instead of allocating per chunk.
    static SCORE_SCRATCH: RefCell<(Mat, Workspace, Mat)> = RefCell::new(Default::default());
}

/// Near-sampling configuration and proposal logic.
#[derive(Debug, Clone)]
pub struct NearSampler {
    /// Number of candidates drawn around `x_opt` (paper: 2000).
    pub n_samples: usize,
    /// Per-coordinate sampling radius `δ` in normalized design-space units.
    pub delta: f64,
}

impl NearSampler {
    /// Creates a sampler.
    ///
    /// # Panics
    ///
    /// Panics unless `n_samples > 0` and `delta > 0`.
    pub fn new(n_samples: usize, delta: f64) -> Self {
        assert!(n_samples > 0, "need at least one sample");
        assert!(delta > 0.0, "sampling radius must be positive");
        NearSampler { n_samples, delta }
    }

    /// Proposes the candidate with the best critic-predicted FoM among
    /// `n_samples` uniform draws from `[x_opt − δ, x_opt + δ] ∩ [0,1]^d`
    /// (Algorithm 2, lines 2–7), and returns it with its predicted FoM —
    /// the prediction side of the run journal's predicted-vs-simulated
    /// fidelity signal.
    ///
    /// The returned design still needs a real simulation; the caller accepts
    /// it only if the simulated FoM beats the incumbent (lines 8–11).
    ///
    /// The candidate ranking is split into blocks of at most
    /// `SCORE_BLOCK` rows spread over `engine`'s workers (pass
    /// [`EvalEngine::serial`] to rank on the calling thread).
    /// Candidates come from a serial RNG stream and the critic's MLP
    /// computes each input row independently, so a chunked prediction is
    /// bitwise identical to the full batch: the proposal does not depend on
    /// the worker count.
    pub fn propose_scored_with<S: Surrogate + Sync>(
        &self,
        critic: &S,
        x_opt: &[f64],
        specs: &[Spec],
        fom_cfg: FomConfig,
        rng: &mut StdRng,
        engine: &EvalEngine,
    ) -> (Vec<f64>, f64) {
        let d = x_opt.len();
        // Draw the candidates from the serial RNG stream. The critic input
        // rows (x_opt, x_ns − x_opt) are NOT materialized here: each worker
        // builds its chunk's rows directly into its thread-local scratch
        // below, skipping the full n_samples × 2d intermediate matrix and
        // the per-chunk row copies out of it.
        let mut candidates = Vec::with_capacity(self.n_samples);
        for _ in 0..self.n_samples {
            let mut x_ns = Vec::with_capacity(d);
            for &xo in x_opt {
                let lo = (xo - self.delta).max(0.0);
                let hi = (xo + self.delta).min(1.0);
                x_ns.push(if hi > lo {
                    rng.random_range(lo..hi)
                } else {
                    lo
                });
            }
            candidates.push(x_ns);
        }

        let n = self.n_samples;
        let chunk = n.div_ceil(engine.jobs()).clamp(1, SCORE_BLOCK);
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(n)))
            .collect();
        let cands_ref = &candidates;
        let scored: Vec<Vec<f64>> = engine.map(ranges, |_, (start, end)| {
            SCORE_SCRATCH.with(|cell| {
                let (sub, ws, predictions) = &mut *cell.borrow_mut();
                sub.resize_reset(end - start, 2 * d);
                for r in 0..end - start {
                    let row = sub.row_mut(r);
                    row[..d].copy_from_slice(x_opt);
                    for t in 0..d {
                        row[d + t] = cands_ref[start + r][t] - x_opt[t];
                    }
                }
                critic.predict_batch_raw_into(sub, ws, predictions);
                (0..end - start)
                    .map(|k| fom(predictions.row(k), specs, fom_cfg))
                    .collect()
            })
        });

        // First-index-wins argmin over the concatenated scores.
        let mut best_k = 0;
        let mut best_fom = f64::INFINITY;
        for (k, g) in scored.into_iter().flatten().enumerate() {
            if g < best_fom {
                best_fom = g;
                best_k = k;
            }
        }
        (candidates.swap_remove(best_k), best_fom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::FomConfig;
    use crate::population::Population;
    use crate::problem::Spec;
    use rand::SeedableRng;

    fn propose_serial(
        ns: &NearSampler,
        critic: &crate::Critic,
        x_opt: &[f64],
        specs: &[Spec],
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let engine = EvalEngine::serial();
        ns.propose_scored_with(critic, x_opt, specs, FomConfig::default(), rng, &engine)
            .0
    }

    /// Critic trained on metrics = [(x₀+Δx₀−0.5)², 5] so the predicted-best
    /// near sample should move toward x₀ = 0.5.
    fn trained_critic() -> (crate::Critic, Vec<Spec>) {
        let specs = vec![Spec::at_least("m", 1, 1.0)];
        let cfg = FomConfig::default();
        let mut pop = Population::new();
        let mut s = 7u64;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) % 1000) as f64 / 1000.0
        };
        for _ in 0..100 {
            let x = vec![next()];
            pop.push(x.clone(), vec![(x[0] - 0.5f64).powi(2), 5.0], &specs, cfg);
        }
        let mut critic = crate::Critic::new(1, 2, &[32, 32], 3e-3, 21);
        critic.refit_scaler(&pop);
        let mut rng = StdRng::seed_from_u64(22);
        critic.train(&pop, 600, 32, &mut rng);
        (critic, specs)
    }

    #[test]
    fn proposal_stays_within_radius_and_box() {
        let (critic, specs) = trained_critic();
        let ns = NearSampler::new(500, 0.1);
        let mut rng = StdRng::seed_from_u64(23);
        let x_opt = [0.95];
        let prop = propose_serial(&ns, &critic, &x_opt, &specs, &mut rng);
        assert!(prop[0] <= 1.0, "clipped to the design box");
        assert!((prop[0] - x_opt[0]).abs() <= 0.1 + 1e-12, "within δ");
    }

    #[test]
    fn proposal_moves_toward_predicted_optimum() {
        let (critic, specs) = trained_critic();
        let ns = NearSampler::new(2000, 0.1);
        let mut rng = StdRng::seed_from_u64(24);
        let x_opt = [0.7];
        let prop = propose_serial(&ns, &critic, &x_opt, &specs, &mut rng);
        // True optimum is at 0.5; the best sample in [0.6, 0.8] should sit
        // near the lower edge.
        assert!(
            prop[0] < x_opt[0] - 0.05,
            "near-sampling should exploit downhill: {prop:?}"
        );
    }

    #[test]
    fn single_sample_is_returned_verbatim_shape() {
        let (critic, specs) = trained_critic();
        let ns = NearSampler::new(1, 0.05);
        let mut rng = StdRng::seed_from_u64(25);
        let prop = propose_serial(&ns, &critic, &[0.5], &specs, &mut rng);
        assert_eq!(prop.len(), 1);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_delta_rejected() {
        let _ = NearSampler::new(10, 0.0);
    }
}
