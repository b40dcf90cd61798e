//! Deterministic fault injection for crash/recovery testing.
//!
//! [`ChaoticProblem`] wraps any [`SizingProblem`] and injects the three
//! fault classes the evaluation engine handles — panics, non-finite metric
//! vectors and deadline stalls — on a schedule that is a pure function of
//! the chaos seed and the (quantized) design being evaluated. Two
//! properties make the schedule reproducible enough to assert counters
//! exactly:
//!
//! * **Scheduling independence.** Whether a design faults, and how, is
//!   decided by hashing `(seed, quantize(x))` — never by call order,
//!   thread interleaving or wall clock. Any worker count sees the same
//!   schedule.
//! * **Resume safety.** A design faults on its first
//!   `faults_per_design` evaluation attempts, then succeeds. A reference
//!   run, an interrupted run and its resumed continuation — each with its
//!   own fresh [`ChaoticProblem`] — all inject identical faults: the
//!   resumed run re-executes its crashed round from attempt zero, and
//!   designs from completed rounds are answered by the restored
//!   [`maopt_exec::SimCache`] and never reach the injector. Only the
//!   per-design attempt counts are in-memory, so pair the wrapper with an
//!   engine cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use maopt_exec::{quantize, OpState};

use crate::problem::{ParamSpec, SizingProblem, Spec};

/// What the injector does to a scheduled design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectedFault {
    Panic,
    NonFinite,
    Stall,
}

/// Configuration of a [`ChaoticProblem`] schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the fault schedule; the same seed reproduces the same
    /// per-design fault decisions.
    pub seed: u64,
    /// Fraction of designs whose first attempts panic.
    pub panic_rate: f64,
    /// Fraction of designs whose first attempts return an all-NaN
    /// metric vector.
    pub non_finite_rate: f64,
    /// Fraction of designs whose first attempts stall past the engine
    /// deadline before answering.
    pub stall_rate: f64,
    /// How long a stalled attempt sleeps. Must exceed the engine's
    /// `FaultPolicy::deadline` for the stall to register as a timeout.
    pub stall: Duration,
    /// Faulting attempts per scheduled design before it succeeds. Keep
    /// this at or below the engine's retry budget if runs must complete
    /// without penalty vectors.
    pub faults_per_design: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            panic_rate: 0.05,
            non_finite_rate: 0.05,
            stall_rate: 0.02,
            stall: Duration::from_millis(30),
            faults_per_design: 1,
        }
    }
}

/// Injected-fault counts, for asserting engine telemetry against the
/// schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Panics raised.
    pub panics: u64,
    /// Non-finite metric vectors returned.
    pub non_finite: u64,
    /// Stalled attempts.
    pub stalls: u64,
}

impl ChaosStats {
    /// All injected faults.
    pub fn total(&self) -> u64 {
        self.panics + self.non_finite + self.stalls
    }
}

/// A [`SizingProblem`] with seeded fault injection on every evaluation.
///
/// All problem metadata (name, parameters, specs, failure handling)
/// passes straight through to the wrapped problem; only evaluations —
/// seeded or not — go through the injector, which may panic, return
/// all-NaN metrics, or sleep past the engine's deadline for the first
/// [`ChaosConfig::faults_per_design`] attempts of each scheduled design.
/// An attempt the injector lets through reaches the wrapped problem
/// unchanged, operating-point seed included. Run it on an engine whose
/// [`maopt_exec::FaultPolicy::max_retries`] covers that budget (and whose
/// deadline is shorter than [`ChaosConfig::stall`]) and every run
/// completes with exact, reproducible fault counters.
#[derive(Debug)]
pub struct ChaoticProblem<P> {
    inner: P,
    config: ChaosConfig,
    attempts: Mutex<HashMap<Vec<i64>, u32>>,
    panics: AtomicU64,
    non_finite: AtomicU64,
    stalls: AtomicU64,
}

impl<P: SizingProblem> ChaoticProblem<P> {
    /// Wraps `inner` with the given fault schedule.
    ///
    /// # Panics
    ///
    /// Panics when a rate is outside `[0, 1]` or the rates sum past 1.
    pub fn new(inner: P, config: ChaosConfig) -> Self {
        let rates = [config.panic_rate, config.non_finite_rate, config.stall_rate];
        assert!(
            rates.iter().all(|r| (0.0..=1.0).contains(r)),
            "chaos rates must be in [0, 1]"
        );
        assert!(
            rates.iter().sum::<f64>() <= 1.0,
            "chaos rates must sum to at most 1"
        );
        ChaoticProblem {
            inner,
            config,
            attempts: Mutex::new(HashMap::new()),
            panics: AtomicU64::new(0),
            non_finite: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
        }
    }

    /// The schedule in effect.
    pub fn config(&self) -> ChaosConfig {
        self.config
    }

    /// The wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Counts of faults injected so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            panics: self.panics.load(Ordering::Relaxed),
            non_finite: self.non_finite.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
        }
    }

    /// The fault class scheduled for a design, independent of attempt
    /// count. `None` for the (typically large) unscheduled majority.
    fn scheduled_fault(&self, key: &[i64]) -> Option<InjectedFault> {
        let u = unit_hash(self.config.seed, key);
        let c = &self.config;
        if u < c.panic_rate {
            Some(InjectedFault::Panic)
        } else if u < c.panic_rate + c.non_finite_rate {
            Some(InjectedFault::NonFinite)
        } else if u < c.panic_rate + c.non_finite_rate + c.stall_rate {
            Some(InjectedFault::Stall)
        } else {
            None
        }
    }

    /// The fault gate every evaluation passes first: panics, stalls, or
    /// returns the all-NaN vector when this attempt at `x` is scheduled to
    /// fault, and returns `None` when the wrapped problem should answer.
    fn inject(&self, x: &[f64]) -> Option<Vec<f64>> {
        let key = quantize(x);
        let fault = self.scheduled_fault(&key)?;
        let attempt = {
            let mut map = self.attempts.lock().expect("chaos attempt map poisoned");
            let counter = map.entry(key).or_insert(0);
            let seen = *counter;
            *counter = counter.saturating_add(1);
            seen
        };
        if attempt >= self.config.faults_per_design {
            return None;
        }
        match fault {
            InjectedFault::Panic => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                panic!("chaos: injected panic (attempt {attempt})");
            }
            InjectedFault::NonFinite => {
                self.non_finite.fetch_add(1, Ordering::Relaxed);
                Some(vec![f64::NAN; self.inner.num_metrics()])
            }
            InjectedFault::Stall => {
                self.stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.config.stall);
                None
            }
        }
    }
}

impl<P: SizingProblem> SizingProblem for ChaoticProblem<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn params(&self) -> &[ParamSpec] {
        self.inner.params()
    }

    fn metric_names(&self) -> Vec<String> {
        self.inner.metric_names()
    }

    fn specs(&self) -> &[Spec] {
        self.inner.specs()
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.inject(x).unwrap_or_else(|| self.inner.evaluate(x))
    }

    fn evaluate_seeded(&self, x: &[f64], seed: Option<&OpState>) -> (Vec<f64>, Option<OpState>) {
        match self.inject(x) {
            Some(metrics) => (metrics, None),
            None => self.inner.evaluate_seeded(x, seed),
        }
    }

    fn failure_metrics(&self) -> Vec<f64> {
        self.inner.failure_metrics()
    }

    fn is_failure(&self, metrics: &[f64]) -> bool {
        self.inner.is_failure(metrics)
    }
}

/// FNV-1a hash of `(seed, key)` folded into `[0, 1)`.
fn unit_hash(seed: u64, key: &[i64]) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(seed);
    for &q in key {
        mix(q as u64);
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use maopt_exec::{EvalEngine, FaultPolicy, SimCache};

    use super::*;
    use crate::problems::Sphere;
    use crate::EngineProblem;

    /// `Σ x²` as the single metric, over any design length.
    struct Quadratic;

    impl SizingProblem for Quadratic {
        fn name(&self) -> &str {
            "quadratic"
        }

        fn params(&self) -> &[ParamSpec] {
            &[]
        }

        fn metric_names(&self) -> Vec<String> {
            vec!["sum_sq".into()]
        }

        fn specs(&self) -> &[Spec] {
            &[]
        }

        fn evaluate(&self, x: &[f64]) -> Vec<f64> {
            vec![x.iter().map(|v| v * v).sum()]
        }
    }

    fn designs(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / n as f64, 0.25]).collect()
    }

    fn mixed_config(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_rate: 0.2,
            non_finite_rate: 0.2,
            stall_rate: 0.1,
            stall: Duration::from_millis(40),
            faults_per_design: 1,
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_design() {
        let a = ChaoticProblem::new(Quadratic, mixed_config(11));
        let b = ChaoticProblem::new(Quadratic, mixed_config(11));
        let c = ChaoticProblem::new(Quadratic, mixed_config(12));
        let mut any_fault = false;
        let mut differs = false;
        for x in designs(64) {
            let key = quantize(&x);
            assert_eq!(a.scheduled_fault(&key), b.scheduled_fault(&key));
            any_fault |= a.scheduled_fault(&key).is_some();
            differs |= a.scheduled_fault(&key) != c.scheduled_fault(&key);
        }
        assert!(any_fault, "a 50% total rate must schedule some faults");
        assert!(differs, "different seeds must schedule differently");
    }

    #[test]
    fn engine_counters_match_the_injected_schedule_exactly() {
        // The acceptance-criteria chaos property at engine level: a seeded
        // panic + NaN + stall mix, a retry budget covering it, and the
        // engine completes the full batch with real metrics while its
        // fault counters equal the injected counts.
        let chaos = ChaoticProblem::new(Quadratic, mixed_config(5));
        let engine = EvalEngine::new(2)
            .with_cache(Arc::new(SimCache::new()))
            .with_policy(FaultPolicy {
                max_retries: 2,
                deadline: Some(Duration::from_millis(15)),
            });
        let xs = designs(40);
        let out = engine.evaluate_batch(&EngineProblem(&chaos), &xs);

        for (x, m) in xs.iter().zip(&out) {
            let expected: f64 = x.iter().map(|v| v * v).sum();
            assert_eq!(m, &vec![expected], "no penalty vectors under budget");
        }
        let stats = chaos.stats();
        assert!(stats.total() > 0, "schedule must have fired");
        let snap = engine.telemetry().snapshot();
        assert_eq!(snap.panics, stats.panics);
        assert_eq!(snap.non_finite, stats.non_finite);
        assert_eq!(snap.timeouts, stats.stalls);
        assert_eq!(snap.retries, stats.total());
        assert_eq!(snap.failures, 0);
        assert_eq!(snap.faults(), stats.total());
    }

    #[test]
    fn scheduled_design_faults_then_succeeds_per_attempt_budget() {
        let config = ChaosConfig {
            seed: 0,
            panic_rate: 0.0,
            non_finite_rate: 1.0,
            stall_rate: 0.0,
            stall: Duration::ZERO,
            faults_per_design: 2,
        };
        let chaos = ChaoticProblem::new(Quadratic, config);
        let x = [0.5];
        assert!(chaos.evaluate(&x)[0].is_nan());
        assert!(chaos.evaluate(&x)[0].is_nan());
        assert_eq!(chaos.evaluate(&x), vec![0.25], "third attempt succeeds");
        assert_eq!(chaos.stats().non_finite, 2);
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn overcommitted_rates_are_rejected() {
        let _ = ChaoticProblem::new(
            Quadratic,
            ChaosConfig {
                panic_rate: 0.6,
                non_finite_rate: 0.6,
                ..ChaosConfig::default()
            },
        );
    }

    #[test]
    fn metadata_passes_through_and_faults_are_injected() {
        let chaotic = ChaoticProblem::new(
            Sphere::new(3),
            ChaosConfig {
                seed: 4,
                panic_rate: 0.5,
                non_finite_rate: 0.3,
                stall_rate: 0.0,
                stall: Duration::ZERO,
                faults_per_design: 1,
            },
        );
        assert_eq!(chaotic.name(), Sphere::new(3).name());
        assert_eq!(chaotic.dim(), 3);
        assert_eq!(chaotic.num_metrics(), Sphere::new(3).num_metrics());

        let engine = EvalEngine::serial().with_policy(FaultPolicy {
            max_retries: 1,
            ..FaultPolicy::default()
        });
        let target = EngineProblem(&chaotic);
        let clean = Sphere::new(3);
        for i in 0..40 {
            let x = vec![i as f64 / 40.0; 3];
            assert_eq!(
                engine.evaluate_one(&target, &x),
                clean.evaluate(&x),
                "retries must recover the clean metrics"
            );
        }
        let stats = chaotic.stats();
        assert!(stats.total() > 0, "rates 0.8 over 40 designs must fire");
        let snap = engine.telemetry().snapshot();
        assert_eq!(snap.panics, stats.panics);
        assert_eq!(snap.non_finite, stats.non_finite);
        assert_eq!(snap.failures, 0);
    }

    /// Records the operating-point seed it is handed and answers with a
    /// state of its own.
    struct SeedProbe {
        inner: Sphere,
        seen: Mutex<Vec<Option<OpState>>>,
    }

    impl SeedProbe {
        fn state() -> OpState {
            OpState {
                slots: vec![vec![1.5, -2.5]],
            }
        }
    }

    impl SizingProblem for SeedProbe {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn params(&self) -> &[ParamSpec] {
            self.inner.params()
        }

        fn metric_names(&self) -> Vec<String> {
            self.inner.metric_names()
        }

        fn specs(&self) -> &[Spec] {
            self.inner.specs()
        }

        fn evaluate(&self, x: &[f64]) -> Vec<f64> {
            self.inner.evaluate(x)
        }

        fn evaluate_seeded(
            &self,
            x: &[f64],
            seed: Option<&OpState>,
        ) -> (Vec<f64>, Option<OpState>) {
            self.seen.lock().unwrap().push(seed.cloned());
            (self.inner.evaluate(x), Some(SeedProbe::state()))
        }
    }

    #[test]
    fn seeded_evaluations_reach_the_wrapped_problem() {
        let chaotic = ChaoticProblem::new(
            SeedProbe {
                inner: Sphere::new(2),
                seen: Mutex::new(Vec::new()),
            },
            ChaosConfig {
                panic_rate: 0.0,
                non_finite_rate: 0.0,
                stall_rate: 0.0,
                ..ChaosConfig::default()
            },
        );
        let seed = OpState {
            slots: vec![vec![0.25; 3]],
        };
        let x = [0.3, 0.7];
        let (metrics, state) = chaotic.evaluate_seeded(&x, Some(&seed));
        assert_eq!(metrics, Sphere::new(2).evaluate(&x));
        assert_eq!(
            state,
            Some(SeedProbe::state()),
            "the probe's state comes back"
        );
        assert_eq!(
            *chaotic.inner().seen.lock().unwrap(),
            vec![Some(seed)],
            "the probe is handed the seed"
        );
    }
}
