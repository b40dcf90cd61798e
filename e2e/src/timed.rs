//! A [`SizingProblem`] wrapper that timestamps every simulation.
//!
//! Every workload simulates through this wrapper, so per-simulation
//! latency, cold/warm split, failure vectors and time-to-feasible come
//! from the same records whether the engine runs the call on a pool
//! worker or inline.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use maopt_core::{is_feasible, OpState, ParamSpec, SizingProblem, Spec};

/// One simulation as the wrapper saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index of the circuit in the workload's problem list.
    pub circuit: usize,
    /// When the simulation started.
    pub start: Instant,
    /// How long it ran.
    pub dur: Duration,
    /// Whether the caller passed an operating-point seed.
    pub warm: bool,
    /// Whether the simulator returned the circuit's failure vector.
    pub failed: bool,
    /// Whether the result meets every spec.
    pub feasible: bool,
}

impl Sample {
    /// When the simulation finished.
    pub fn end(&self) -> Instant {
        self.start + self.dur
    }
}

/// Delegates to the wrapped problem and records a [`Sample`] per call.
pub struct Timed {
    circuit: usize,
    inner: Box<dyn SizingProblem>,
    failure: Vec<f64>,
    samples: Mutex<Vec<Sample>>,
}

impl Timed {
    /// Wraps `inner`, the workload's circuit number `circuit`.
    pub fn new(circuit: usize, inner: Box<dyn SizingProblem>) -> Self {
        let failure = inner.failure_metrics();
        Timed {
            circuit,
            inner,
            failure,
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Removes and returns every sample recorded so far, in completion
    /// order.
    pub fn take(&self) -> Vec<Sample> {
        std::mem::take(&mut *self.samples.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl SizingProblem for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn params(&self) -> &[ParamSpec] {
        self.inner.params()
    }

    fn metric_names(&self) -> Vec<String> {
        self.inner.metric_names()
    }

    fn num_metrics(&self) -> usize {
        self.inner.num_metrics()
    }

    fn specs(&self) -> &[Spec] {
        self.inner.specs()
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.evaluate_seeded(x, None).0
    }

    fn evaluate_seeded(&self, x: &[f64], seed: Option<&OpState>) -> (Vec<f64>, Option<OpState>) {
        let start = Instant::now();
        let out = self.inner.evaluate_seeded(x, seed);
        let sample = Sample {
            circuit: self.circuit,
            start,
            dur: start.elapsed(),
            warm: seed.is_some(),
            failed: out.0 == self.failure,
            feasible: is_feasible(&out.0, self.inner.specs()),
        };
        // A sample list stays valid if a sibling evaluation panicked.
        self.samples
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(sample);
        out
    }

    fn failure_metrics(&self) -> Vec<f64> {
        self.failure.clone()
    }

    fn is_failure(&self, metrics: &[f64]) -> bool {
        self.inner.is_failure(metrics)
    }
}
