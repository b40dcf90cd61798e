//! `maopt-exec`: the shared parallel evaluation engine for MA-Opt.
//!
//! Every optimizer in the workspace used to hand-roll its own
//! `thread::scope` fan-out (initial sampling, actor lanes, proposal
//! sims, BO candidates). This crate centralizes that into one
//! [`EvalEngine`] providing:
//!
//! * a fixed-size worker pool fed by a bounded queue ([`queue`]),
//! * a memoizing simulation cache over quantized design vectors
//!   ([`cache`]),
//! * fault handling — per-evaluation panic isolation, a configurable
//!   deadline, and bounded retry before a penalty vector is emitted,
//! * telemetry — counters, per-phase wall-time spans and named metrics
//!   ([`telemetry`]), plus an optional flight recorder ([`trace`]).
//!
//! The engine is deliberately deterministic: [`EvalEngine::map`]
//! returns results in input order no matter how workers interleave, so
//! for a deterministic evaluator the parallel result is bitwise
//! identical to the serial one.
//!
//! Dependency direction: `maopt-core` depends on this crate, so the
//! engine defines its own minimal [`Evaluate`] trait instead of
//! consuming `SizingProblem`; core provides the adapter.

pub mod cache;
pub mod metrics;
pub mod pool;
pub mod prom;
pub mod queue;
pub mod telemetry;
pub mod trace;

pub use cache::{design_hash, quantize, SimCache};
pub use metrics::{
    ambient_metrics, set_ambient_metrics, AmbientMetricsGuard, HistogramSnapshot, MetricSnapshot,
    MetricsRegistry,
};
pub use pool::WorkerPool;
pub use queue::BoundedQueue;
pub use telemetry::{CounterSnapshot, SpanStat, Telemetry};
pub use trace::{TraceRecorder, TraceSnapshot};

use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Converged simulator state captured from one evaluation, reusable as
/// the Newton starting point when a *neighbouring* design of the same
/// topology is evaluated next.
///
/// The engine treats the contents as opaque: `slots` is one solution
/// vector per independent solve inside the evaluator (an OTA evaluation
/// runs three DC solves on three circuit variants, so it has three
/// slots), in evaluation order. Seeds travel *inside* the evaluation
/// request — chosen by the optimizer on its deterministic main thread,
/// never read from a shared cache on a worker — so results stay
/// byte-identical at any worker count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpState {
    /// One converged solution vector (node voltages + branch currents)
    /// per solve inside the evaluator, in evaluation order.
    pub slots: Vec<Vec<f64>>,
}

/// Anything the engine can run: a deterministic map from a normalized
/// design vector to a metric vector.
pub trait Evaluate: Sync {
    /// Simulates one design point.
    fn evaluate(&self, x: &[f64]) -> Vec<f64>;

    /// Simulates one design point, optionally warm-started from the
    /// converged [`OpState`] of a reference design, and returns this
    /// evaluation's own converged state for downstream reuse.
    ///
    /// The seed is advisory: evaluators must produce the same *converged*
    /// result with or without it (warm-starting saves Newton iterations,
    /// not correctness), falling back to their cold path when the seed
    /// does not help. The default ignores the seed and captures nothing,
    /// so existing evaluators stay correct unchanged.
    fn evaluate_seeded(&self, x: &[f64], seed: Option<&OpState>) -> (Vec<f64>, Option<OpState>) {
        let _ = seed;
        (self.evaluate(x), None)
    }

    /// Length of the metric vector [`Evaluate::evaluate`] returns.
    fn num_metrics(&self) -> usize;

    /// Penalty vector emitted when an evaluation keeps faulting. The
    /// default is all-infinite, which downstream FoM/spec code already
    /// treats as maximally infeasible.
    fn failure_metrics(&self) -> Vec<f64> {
        vec![f64::INFINITY; self.num_metrics()]
    }

    /// Whether a metric vector should be treated as a failed simulation
    /// (and hence retried). The default flags any non-finite entry.
    fn is_failure(&self, metrics: &[f64]) -> bool {
        metrics.iter().any(|m| !m.is_finite())
    }
}

/// What went wrong with one evaluation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The evaluator panicked; the payload was caught and isolated.
    Panic,
    /// The evaluation finished after the configured deadline; its result
    /// is discarded. (Evaluations run on pool threads and cannot be
    /// interrupted mid-flight, so the deadline is enforced by discarding
    /// late results, not by preemption.)
    Timeout,
    /// The evaluator returned a metric vector with a NaN or ±inf entry —
    /// a simulator convergence failure, distinct from an otherwise-valid
    /// result that [`Evaluate::is_failure`] rejects.
    NonFinite,
    /// The evaluator returned finite metrics its [`Evaluate::is_failure`]
    /// rejects.
    Failed,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Timeout => "timeout",
            FaultKind::NonFinite => "non_finite",
            FaultKind::Failed => "failed",
        }
    }
}

/// Retry/deadline policy for one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Re-attempts after a faulted evaluation before the penalty vector
    /// is emitted (so an evaluation runs at most `1 + max_retries`
    /// times).
    pub max_retries: u32,
    /// Optional per-evaluation deadline.
    pub deadline: Option<Duration>,
    /// Base delay of the exponential retry backoff: retry `k` sleeps
    /// roughly `backoff_base · 2^k`, jittered and capped. The default
    /// `Duration::ZERO` disables sleeping, preserving the immediate
    /// back-to-back retry behaviour.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep (applied before jitter).
    pub backoff_cap: Duration,
    /// Seed of the deterministic backoff jitter. The jitter is a pure
    /// function of `(seed, design, attempt)`, so identical runs sleep
    /// identically and no optimizer RNG stream is consumed.
    pub backoff_seed: u64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: 1,
            deadline: None,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::from_millis(100),
            backoff_seed: 0,
        }
    }
}

impl FaultPolicy {
    /// The backoff sleep before retry number `attempt` (0-based) of an
    /// evaluation of `x`: `min(base · 2^attempt, cap)`, scaled by a
    /// deterministic jitter factor in `[0.5, 1.0)` derived from the
    /// policy seed, the quantized design and the attempt index.
    /// `Duration::ZERO` when backoff is disabled.
    #[must_use]
    pub fn backoff_delay(&self, x: &[f64], attempt: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        let raw = self.backoff_base.saturating_mul(factor);
        let capped = raw.min(self.backoff_cap);
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.backoff_seed;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for q in quantize(x) {
            mix(q as u64);
        }
        mix(u64::from(attempt));
        // Map the hash into [0.5, 1.0): half the nominal delay of jitter
        // keeps the exponential shape while decorrelating retry storms.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        capped.mul_f64(0.5 + 0.5 * unit)
    }
}

/// Parallel evaluation engine: persistent worker pool + cache + fault
/// policy + telemetry. Cheap to clone (shared state is behind `Arc`s);
/// clones share the same pool, cache and telemetry.
#[derive(Debug, Clone)]
pub struct EvalEngine {
    jobs: usize,
    pool: Option<Arc<WorkerPool>>,
    cache: Option<Arc<SimCache>>,
    policy: FaultPolicy,
    telemetry: Arc<Telemetry>,
}

impl Default for EvalEngine {
    /// An engine sized by, in order of precedence:
    ///
    /// 1. the `MAOPT_JOBS` environment variable, when set (clamped to at
    ///    least 1),
    /// 2. [`std::thread::available_parallelism`],
    /// 3. a single worker, when neither source is available.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when `MAOPT_JOBS` is set but
    /// malformed (see [`jobs_from_env`]). A typo'd override silently
    /// falling back to the core count is a misconfiguration that would
    /// otherwise go unnoticed until a determinism diff fails.
    fn default() -> Self {
        let jobs = match jobs_from_env() {
            Ok(Some(jobs)) => jobs,
            Ok(None) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            Err(msg) => panic!("{msg}"),
        };
        EvalEngine::new(jobs)
    }
}

/// Parses the `MAOPT_JOBS` worker-count override from the environment.
///
/// Returns `Ok(None)` when the variable is unset or blank, and
/// `Ok(Some(jobs))` (clamped to at least 1) when it parses as an
/// unsigned integer.
///
/// # Errors
///
/// Returns a descriptive message — naming the variable and the
/// offending value — when the variable is set but not a valid integer,
/// instead of silently falling back to auto-detection.
pub fn jobs_from_env() -> Result<Option<usize>, String> {
    let Ok(raw) = std::env::var("MAOPT_JOBS") else {
        return Ok(None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(v) => Ok(Some(v.max(1))),
        Err(e) => Err(format!(
            "invalid MAOPT_JOBS value {raw:?}: {e} (expected a non-negative integer, e.g. MAOPT_JOBS=4)"
        )),
    }
}

impl EvalEngine {
    /// An engine with `jobs` workers (clamped to at least 1), no cache,
    /// and the default fault policy. With more than one worker this
    /// spawns the persistent pool here, once; `map`/`scope` calls then
    /// only enqueue tasks instead of spawning threads.
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        EvalEngine {
            jobs,
            pool: (jobs > 1).then(|| WorkerPool::new(jobs)),
            cache: None,
            policy: FaultPolicy::default(),
            telemetry: Arc::new(Telemetry::new()),
        }
    }

    /// A single-worker engine — the serial reference behaviour.
    pub fn serial() -> Self {
        EvalEngine::new(1)
    }

    /// Attaches a (shared) simulation cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SimCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Replaces the fault policy.
    #[must_use]
    pub fn with_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the telemetry sink.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The engine's fault policy.
    pub fn policy(&self) -> FaultPolicy {
        self.policy
    }

    /// The shared telemetry sink.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<SimCache>> {
        self.cache.as_ref()
    }

    /// The persistent worker pool, when the engine has more than one
    /// worker. Long-lived callers (the serve daemon's scheduler) use
    /// this to run their own fan-out on the same threads that evaluate
    /// simulations, instead of spawning a second pool.
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Runs `f` over `items` on the persistent worker pool and returns
    /// the results in input order.
    ///
    /// Work is distributed through the pool's bounded queue (capacity
    /// `2 * jobs`) so a huge batch never buffers unboundedly: this call
    /// blocks enqueueing once the queue is full. With one worker, one
    /// item, or when called from one of this engine's own pool workers
    /// (a nested `map`), it degenerates to a plain serial loop on the
    /// calling thread — which is also what makes same-engine nesting
    /// deadlock-free. Each executed task bumps a per-worker task counter
    /// (`exec.pool.worker<k>.tasks`) and the enqueue loop samples an
    /// `exec.pool.queue_depth` gauge into [`Telemetry::metrics`] (and,
    /// when a flight recorder is attached, a trace counter of the same
    /// name); after the batch the pool's lifetime high-watermark lands
    /// in the `exec.pool.queue_depth_peak` gauge.
    ///
    /// # Panics
    ///
    /// A panic in `f` is re-raised here on the calling thread after all
    /// in-flight tasks finished (remaining queued tasks are skipped),
    /// with the engine's `panics` counter incremented. Evaluator panics
    /// never reach this: [`EvalEngine::evaluate_one`] converts them into
    /// retries / penalty vectors first.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let pool = match &self.pool {
            Some(pool) if n > 1 && !pool.is_current() => pool,
            _ => {
                return items
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| f(i, t))
                    .collect()
            }
        };

        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let f = &f;
        let metrics = &self.telemetry.metrics;
        let tracer = self.telemetry.tracer();
        let scope_result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                for (i, item) in items.into_iter().enumerate() {
                    let tx = tx.clone();
                    scope.spawn(move |w| {
                        metrics.inc(pool.worker_metric_name(w), 1);
                        let _ = tx.send((i, f(i, item)));
                    });
                    let depth = pool.queue_len() as f64;
                    metrics.set_gauge("exec.pool.queue_depth", depth);
                    if let Some(tr) = tracer {
                        tr.counter("exec.pool.queue_depth", depth);
                    }
                }
            })
        }));
        drop(tx);
        if let Err(payload) = scope_result {
            self.telemetry.bump(&self.telemetry.counters.panics);
            std::panic::resume_unwind(payload);
        }
        metrics.set_gauge("exec.pool.queue_depth_peak", pool.queue_depth_peak() as f64);

        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("worker pool lost a result without panicking"))
            .collect()
    }

    /// Runs `f(0), f(1), …, f(n - 1)` on the pool and returns the
    /// results in index order — `map` for pure index-driven fan-out
    /// (training lanes, scoring chunks) with no item vector to move in.
    pub fn compute<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map((0..n).collect(), |i, _: usize| f(i))
    }

    /// Structured fan-out for non-`Problem` work: runs `body` with a
    /// scope on which closures borrowing the caller's stack can be
    /// spawned onto the pool; returns only after every spawned closure
    /// finished. On a serial engine — or re-entered from one of this
    /// engine's own pool workers — spawns run inline on the calling
    /// thread, so callers never need a serial special case.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from a spawned closure (or from `body`)
    /// after all spawned work finished.
    pub fn scope<'env, F, R>(&self, body: F) -> R
    where
        F: FnOnce(&ExecScope<'_, 'env>) -> R,
    {
        match &self.pool {
            Some(pool) if !pool.is_current() => {
                pool.scope(|inner| body(&ExecScope { inner: Some(inner) }))
            }
            _ => body(&ExecScope { inner: None }),
        }
    }

    /// Evaluates one design through the cache and fault policy.
    ///
    /// Order of business: cache lookup; then up to `1 + max_retries`
    /// attempts, each with panic isolation and the deadline check; then
    /// either the (cached) real metrics or the problem's penalty vector.
    /// Faulted attempts are never cached.
    pub fn evaluate_one<P: Evaluate + ?Sized>(&self, problem: &P, x: &[f64]) -> Vec<f64> {
        self.evaluate_one_seeded(problem, x, None).0
    }

    /// [`EvalEngine::evaluate_one`] with an optional operating-point seed
    /// travelling inside the request; additionally returns the
    /// evaluation's converged [`OpState`] when the evaluator captured
    /// one. A cache hit, a faulted attempt chain, or an evaluator without
    /// a seeded override all return `None` state.
    pub fn evaluate_one_seeded<P: Evaluate + ?Sized>(
        &self,
        problem: &P,
        x: &[f64],
        seed: Option<&OpState>,
    ) -> (Vec<f64>, Option<OpState>) {
        let t = &self.telemetry;
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.get(x) {
                t.bump(&t.counters.cache_hits);
                return (hit, None);
            }
            t.bump(&t.counters.cache_misses);
        }

        // Trace provenance: each attempt's span/fault event carries the
        // design hash, so the tail of the latency distribution can be
        // matched back to designs. Computed once, only when tracing.
        let tracer = t.tracer();
        let hash = tracer.map(|_| cache::design_hash(x));

        let mut attempt: u32 = 0;
        loop {
            t.bump(&t.counters.sims);
            let start = Instant::now();
            let trace_t0 = tracer.map(|tr| tr.now_ns());
            let outcome = {
                // Expose the recorder and metrics registry to the layers
                // below (the simulator emits sim.assemble/factor/solve
                // sub-phase spans and warm-start counters through them);
                // the guards restore the previous values even when the
                // evaluation panics.
                let _ambient = trace::set_ambient(tracer.cloned());
                let _ambient_metrics = metrics::set_ambient_metrics(Some(Arc::clone(&t.metrics)));
                std::panic::catch_unwind(AssertUnwindSafe(|| problem.evaluate_seeded(x, seed)))
            };
            let fault = match outcome {
                Err(_) => {
                    t.bump(&t.counters.panics);
                    Some(FaultKind::Panic)
                }
                Ok((metrics, state)) => {
                    let late = self
                        .policy
                        .deadline
                        .is_some_and(|limit| start.elapsed() > limit);
                    if late {
                        t.bump(&t.counters.timeouts);
                        Some(FaultKind::Timeout)
                    } else if problem.is_failure(&metrics) {
                        if metrics.iter().any(|m| !m.is_finite()) {
                            t.bump(&t.counters.non_finite);
                            Some(FaultKind::NonFinite)
                        } else {
                            Some(FaultKind::Failed)
                        }
                    } else {
                        if let Some(cache) = &self.cache {
                            cache.insert(x, metrics.clone());
                        }
                        let elapsed = start.elapsed();
                        if let Some(tr) = tracer {
                            tr.span(
                                "sim",
                                trace_t0.unwrap_or(0),
                                elapsed.as_nanos() as u64,
                                hash,
                            );
                        }
                        t.metrics.observe("exec.sim_seconds", elapsed.as_secs_f64());
                        return (metrics, state);
                    }
                }
            };

            let kind = fault.expect("non-faulting attempts return above");
            if let Some(tr) = tracer {
                tr.instant(&format!("fault:{}", kind.label()), hash);
            }
            if attempt < self.policy.max_retries {
                let delay = self.policy.backoff_delay(x, attempt);
                attempt += 1;
                t.bump(&t.counters.retries);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            } else {
                t.bump(&t.counters.failures);
                return (problem.failure_metrics(), None);
            }
        }
    }

    /// Evaluates a batch of designs on the pool, preserving input order.
    pub fn evaluate_batch<P: Evaluate + ?Sized>(
        &self,
        problem: &P,
        xs: &[Vec<f64>],
    ) -> Vec<Vec<f64>> {
        self.map((0..xs.len()).collect(), |_, i: usize| {
            self.evaluate_one(problem, &xs[i])
        })
    }

    /// Evaluates a batch with one pre-chosen operating-point seed per
    /// design (`seeds[i]` warms `xs[i]`), preserving input order. Seeds
    /// must be selected by the caller *before* the fan-out — that is what
    /// keeps results independent of worker count.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is not the same length as `xs`.
    pub fn evaluate_batch_seeded<P: Evaluate + ?Sized>(
        &self,
        problem: &P,
        xs: &[Vec<f64>],
        seeds: &[Option<&OpState>],
    ) -> Vec<(Vec<f64>, Option<OpState>)> {
        assert_eq!(
            xs.len(),
            seeds.len(),
            "evaluate_batch_seeded needs one seed slot per design"
        );
        self.map((0..xs.len()).collect(), |_, i: usize| {
            self.evaluate_one_seeded(problem, &xs[i], seeds[i])
        })
    }
}

/// Spawn handle passed to the closure of [`EvalEngine::scope`]: either a
/// real pool scope or the inline (serial / nested) degenerate case.
pub struct ExecScope<'scope, 'env> {
    inner: Option<&'scope pool::Scope<'scope, 'env>>,
}

impl<'env> ExecScope<'_, 'env> {
    /// Spawns `f` onto the engine's pool (blocking while the bounded
    /// queue is full); on a serial or re-entered engine, runs `f`
    /// immediately on the calling thread. `f` receives the executing
    /// worker's index (0 when inline).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(usize) + Send + 'env,
    {
        match self.inner {
            Some(scope) => scope.spawn(f),
            None => f(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Deterministic toy evaluator: metrics = [sum(x), attempts seen].
    struct Quadratic;

    impl Evaluate for Quadratic {
        fn evaluate(&self, x: &[f64]) -> Vec<f64> {
            vec![x.iter().map(|v| v * v).sum()]
        }
        fn num_metrics(&self) -> usize {
            1
        }
    }

    /// Faults (panic or NaN) on the first `faults_per_point` attempts of
    /// every design, then succeeds.
    struct Flaky {
        calls: AtomicU64,
        faults_before_success: u64,
        panic_mode: bool,
    }

    impl Flaky {
        fn new(faults_before_success: u64, panic_mode: bool) -> Self {
            Flaky {
                calls: AtomicU64::new(0),
                faults_before_success,
                panic_mode,
            }
        }
    }

    impl Evaluate for Flaky {
        fn evaluate(&self, x: &[f64]) -> Vec<f64> {
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            if call < self.faults_before_success {
                if self.panic_mode {
                    panic!("injected fault");
                }
                return vec![f64::NAN];
            }
            vec![x[0] + 1.0]
        }
        fn num_metrics(&self) -> usize {
            1
        }
        fn failure_metrics(&self) -> Vec<f64> {
            vec![1e9]
        }
    }

    #[test]
    fn map_preserves_input_order_across_workers() {
        let engine = EvalEngine::new(4);
        let out = engine.map((0..64).collect::<Vec<i32>>(), |i, v| {
            assert_eq!(i as i32, v);
            v * 2
        });
        assert_eq!(out, (0..64).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_serial_and_parallel_agree() {
        let items: Vec<f64> = (0..33).map(|i| f64::from(i) * 0.37).collect();
        let serial = EvalEngine::serial().map(items.clone(), |_, v| v.sin());
        let parallel = EvalEngine::new(3).map(items, |_, v| v.sin());
        assert_eq!(serial, parallel, "bitwise identical, not approximately");
    }

    #[test]
    fn map_bounds_concurrency_to_jobs() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let engine = EvalEngine::new(2);
        engine.map((0..32).collect::<Vec<i32>>(), |_, _| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn map_propagates_a_pool_function_panic() {
        let engine = EvalEngine::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.map((0..16).collect::<Vec<i32>>(), |_, v| {
                assert!(v != 7, "boom");
                v
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn evaluate_one_retries_past_transient_nan() {
        let engine = EvalEngine::new(1).with_policy(FaultPolicy {
            max_retries: 2,
            ..FaultPolicy::default()
        });
        let flaky = Flaky::new(2, false);
        assert_eq!(engine.evaluate_one(&flaky, &[0.5]), vec![1.5]);
        let snap = engine.telemetry().snapshot();
        assert_eq!(snap.sims, 3);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.failures, 0);
        assert_eq!(snap.non_finite, 2, "each NaN attempt is counted");
    }

    #[test]
    fn evaluate_one_isolates_panics_and_emits_penalty() {
        let engine = EvalEngine::new(1).with_policy(FaultPolicy {
            max_retries: 1,
            ..FaultPolicy::default()
        });
        let flaky = Flaky::new(u64::MAX, true);
        assert_eq!(engine.evaluate_one(&flaky, &[0.0]), vec![1e9]);
        let snap = engine.telemetry().snapshot();
        assert_eq!(snap.panics, 2, "initial attempt + one retry");
        assert_eq!(snap.failures, 1);
    }

    #[test]
    fn evaluate_one_discards_late_results() {
        struct Slow;
        impl Evaluate for Slow {
            fn evaluate(&self, _x: &[f64]) -> Vec<f64> {
                std::thread::sleep(Duration::from_millis(5));
                vec![42.0]
            }
            fn num_metrics(&self) -> usize {
                1
            }
        }
        let engine = EvalEngine::new(1).with_policy(FaultPolicy {
            max_retries: 0,
            deadline: Some(Duration::from_millis(1)),
            ..FaultPolicy::default()
        });
        let out = engine.evaluate_one(&Slow, &[0.0]);
        assert_eq!(out, vec![f64::INFINITY]);
        assert_eq!(engine.telemetry().snapshot().timeouts, 1);
    }

    #[test]
    fn backoff_delay_is_deterministic_bounded_and_growing() {
        let policy = FaultPolicy {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            backoff_seed: 7,
            ..FaultPolicy::default()
        };
        let x = [0.25, 0.5];
        // Pure function of (seed, design, attempt).
        assert_eq!(policy.backoff_delay(&x, 0), policy.backoff_delay(&x, 0));
        // Jittered into [base/2, base), so attempt k+2 always exceeds
        // attempt k until the cap kicks in.
        let d0 = policy.backoff_delay(&x, 0);
        let d2 = policy.backoff_delay(&x, 2);
        assert!(d0 >= Duration::from_millis(1) && d0 < Duration::from_millis(2));
        assert!(d2 > d0, "exponential growth: {d0:?} vs {d2:?}");
        // Cap bounds even absurd attempt counts (and the shift saturates).
        assert!(policy.backoff_delay(&x, 40) <= Duration::from_millis(20));
        // Different seeds and designs jitter differently.
        let other = FaultPolicy {
            backoff_seed: 8,
            ..policy
        };
        assert_ne!(policy.backoff_delay(&x, 0), other.backoff_delay(&x, 0));
        assert_ne!(
            policy.backoff_delay(&x, 0),
            policy.backoff_delay(&[0.75], 0)
        );
        // Disabled by default: zero base means zero sleep.
        assert_eq!(FaultPolicy::default().backoff_delay(&x, 3), Duration::ZERO);
    }

    #[test]
    fn retries_sleep_per_the_backoff_schedule() {
        let policy = FaultPolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(4),
            backoff_cap: Duration::from_millis(50),
            backoff_seed: 3,
            ..FaultPolicy::default()
        };
        let x = [0.5];
        let expected = policy.backoff_delay(&x, 0) + policy.backoff_delay(&x, 1);
        let engine = EvalEngine::new(1).with_policy(policy);
        let flaky = Flaky::new(2, false);
        let start = Instant::now();
        assert_eq!(engine.evaluate_one(&flaky, &x), vec![1.5]);
        assert!(
            start.elapsed() >= expected,
            "two retries must sleep at least {expected:?}, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn cache_deduplicates_repeat_evaluations() {
        let cache = Arc::new(SimCache::new());
        let engine = EvalEngine::new(1).with_cache(Arc::clone(&cache));
        let xs: Vec<Vec<f64>> = vec![vec![0.1], vec![0.2], vec![0.1], vec![0.2], vec![0.1]];
        let out = engine.evaluate_batch(&Quadratic, &xs);
        assert!((out[0][0] - 0.01).abs() < 1e-15);
        assert_eq!(out[0], out[2]);
        let snap = engine.telemetry().snapshot();
        assert_eq!(snap.sims, 2, "only two distinct designs simulate");
        assert_eq!(snap.cache_hits, 3);
        assert_eq!(snap.cache_misses, 2);
    }

    #[test]
    fn faulted_attempts_are_not_cached() {
        let cache = Arc::new(SimCache::new());
        let engine = EvalEngine::new(1)
            .with_cache(Arc::clone(&cache))
            .with_policy(FaultPolicy {
                max_retries: 0,
                ..FaultPolicy::default()
            });
        let flaky = Flaky::new(1, false);
        assert_eq!(
            engine.evaluate_one(&flaky, &[0.0]),
            vec![1e9],
            "penalty emitted"
        );
        assert_eq!(
            engine.evaluate_one(&flaky, &[0.0]),
            vec![1.0],
            "second call re-simulates"
        );
        assert_eq!(
            engine.evaluate_one(&flaky, &[0.0]),
            vec![1.0],
            "third call hits the cache"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn telemetry_is_consistent_under_parallel_map() {
        let engine = EvalEngine::new(4).with_cache(Arc::new(SimCache::new()));
        let n = 48;
        // Half the designs are duplicates, so cache traffic happens from
        // several workers at once.
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % (n / 2)) as f64]).collect();
        let out = engine.map((0..xs.len()).collect(), |_, i: usize| {
            let t = engine.telemetry();
            let _span = t.span("work");
            t.metrics.inc("items", 1);
            t.metrics.observe("value", xs[i][0] + 1.0);
            std::thread::sleep(Duration::from_millis(1));
            engine.evaluate_one(&Quadratic, &xs[i])
        });
        assert_eq!(out.len(), n);

        let snap = engine.telemetry().snapshot();
        assert_eq!(
            snap.cache_hits + snap.sims,
            n as u64,
            "every evaluation either simulated or hit the cache"
        );
        assert_eq!(snap.sims, (n / 2) as u64, "one sim per distinct design");
        assert_eq!(snap.cache_misses, (n / 2) as u64);
        assert_eq!(snap.faults(), 0);

        let spans = engine.telemetry().spans();
        let work = spans
            .iter()
            .find(|(name, _)| name == "work")
            .expect("work span recorded");
        assert!(
            work.1 >= Duration::from_millis(n as u64),
            "span totals accumulate across workers: {:?}",
            work.1
        );

        let metrics = engine.telemetry().metrics.snapshot();
        let items = metrics.iter().find(|m| m.name() == "items").unwrap();
        assert_eq!(
            *items,
            MetricSnapshot::Counter {
                name: "items".into(),
                value: n as u64
            }
        );
        let MetricSnapshot::Histogram(h) = metrics.iter().find(|m| m.name() == "value").unwrap()
        else {
            panic!("value should be a histogram");
        };
        assert_eq!(h.count, n as u64, "no observation lost to a race");
    }

    #[test]
    fn map_reuses_persistent_worker_threads() {
        let engine = EvalEngine::new(2);
        let ids = || {
            let seen = Mutex::new(std::collections::BTreeSet::new());
            engine.map((0..24).collect::<Vec<i32>>(), |_, _| {
                seen.lock()
                    .unwrap()
                    .insert(format!("{:?}", std::thread::current().id()));
                std::thread::sleep(Duration::from_micros(200));
            });
            seen.into_inner().unwrap()
        };
        let first = ids();
        let second = ids();
        assert!(!first.is_empty() && first.len() <= 2);
        assert_eq!(first, second, "no per-map thread spawning");
    }

    #[test]
    fn nested_map_on_same_engine_is_inline_and_identical_to_serial() {
        let items: Vec<f64> = (0..20).map(|i| f64::from(i) * 0.31).collect();
        let nested = |engine: &EvalEngine, items: Vec<f64>| {
            engine.map(items, |_, v| {
                engine
                    .map(vec![v, v + 1.0, v + 2.0], |_, w| w.sin())
                    .iter()
                    .sum::<f64>()
            })
        };
        let serial = nested(&EvalEngine::serial(), items.clone());
        let parallel = nested(&EvalEngine::new(3), items);
        assert_eq!(serial, parallel, "bitwise identical, not approximately");
    }

    #[test]
    fn default_engine_honors_maopt_jobs_env() {
        // Process-global env: this is the only test in this binary that
        // touches MAOPT_JOBS, and it restores the variable before exit.
        std::env::set_var("MAOPT_JOBS", "3");
        assert_eq!(EvalEngine::default().jobs(), 3);
        std::env::set_var("MAOPT_JOBS", "0");
        assert_eq!(EvalEngine::default().jobs(), 1, "clamped to >= 1");
        std::env::set_var("MAOPT_JOBS", "  ");
        assert!(EvalEngine::default().jobs() >= 1, "blank value = unset");
        std::env::set_var("MAOPT_JOBS", "not-a-number");
        let err = jobs_from_env().expect_err("malformed value must be rejected");
        assert!(
            err.contains("MAOPT_JOBS") && err.contains("not-a-number"),
            "error names the variable and offending value: {err}"
        );
        let panicked = std::panic::catch_unwind(EvalEngine::default);
        assert!(
            panicked.is_err(),
            "default engine refuses malformed MAOPT_JOBS"
        );
        std::env::remove_var("MAOPT_JOBS");
        assert_eq!(jobs_from_env(), Ok(None));
        assert!(EvalEngine::default().jobs() >= 1);
    }

    #[test]
    fn worker_panic_still_records_span_and_fault_counter() {
        // Satellite regression test: a panic on a pool worker must not
        // lose the enclosing span (the guard drops during unwinding and
        // must tolerate a poisoned span mutex) and must increment the
        // engine's existing fault counters.
        let engine = EvalEngine::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.map((0..8).collect::<Vec<i32>>(), |_, v| {
                let _span = engine.telemetry().span("doomed_phase");
                std::thread::sleep(Duration::from_micros(100));
                assert!(v != 5, "boom");
            })
        }));
        assert!(result.is_err());
        assert!(
            engine.telemetry().snapshot().panics >= 1,
            "pool-function panic is a counted fault"
        );
        let spans = engine.telemetry().spans();
        let doomed = spans.iter().find(|(name, _)| name == "doomed_phase");
        assert!(
            doomed.is_some_and(|(_, d)| *d > Duration::ZERO),
            "span end recorded despite the panic: {spans:?}"
        );
        // The telemetry (and the pool) stay fully usable afterwards.
        let out = engine.map(vec![1, 2, 3], |_, v| v * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn scope_spawns_borrowed_work_and_compute_preserves_order() {
        let engine = EvalEngine::new(3);
        let mut doubled = vec![0usize; 32];
        engine.scope(|scope| {
            for (i, slot) in doubled.iter_mut().enumerate() {
                scope.spawn(move |_w| *slot = i * 2);
            }
        });
        assert_eq!(doubled, (0..32).map(|i| i * 2).collect::<Vec<_>>());

        let computed = engine.compute(32, |i| i * 2);
        assert_eq!(computed, (0..32).map(|i| i * 2).collect::<Vec<_>>());

        // Serial engines run scope spawns inline, same results.
        let mut serial = vec![0usize; 32];
        EvalEngine::serial().scope(|scope| {
            for (i, slot) in serial.iter_mut().enumerate() {
                scope.spawn(move |_w| *slot = i * 2);
            }
        });
        assert_eq!(serial, doubled);
    }

    #[test]
    fn map_tags_metrics_with_worker_ids_and_queue_depth() {
        let engine = EvalEngine::new(2);
        let n = 40;
        engine.map((0..n).collect::<Vec<i32>>(), |_, _| {
            std::thread::sleep(Duration::from_micros(100));
        });
        let metrics = engine.telemetry().metrics.snapshot();
        let worker_tasks: u64 = metrics
            .iter()
            .filter_map(|m| match m {
                MetricSnapshot::Counter { name, value }
                    if name.starts_with("exec.pool.worker") && name.ends_with(".tasks") =>
                {
                    Some(*value)
                }
                _ => None,
            })
            .sum();
        assert_eq!(worker_tasks, n as u64, "every task attributed to a worker");
        assert!(
            metrics
                .iter()
                .any(|m| matches!(m, MetricSnapshot::Gauge { name, .. } if name == "exec.pool.queue_depth")),
            "queue-depth gauge sampled: {metrics:?}"
        );
    }

    #[test]
    fn parallel_batch_matches_serial_batch_bitwise() {
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![f64::from(i) * 0.013, (f64::from(i) * 0.77).fract()])
            .collect();
        let serial = EvalEngine::serial().evaluate_batch(&Quadratic, &xs);
        let parallel = EvalEngine::new(4).evaluate_batch(&Quadratic, &xs);
        assert_eq!(serial, parallel);
    }

    /// Metrics shifted by the seed's first slot entry (deterministically),
    /// state = the design itself — a stand-in for a warm-startable sim.
    struct SeedAware;

    impl Evaluate for SeedAware {
        fn evaluate(&self, x: &[f64]) -> Vec<f64> {
            vec![x.iter().sum()]
        }
        fn evaluate_seeded(
            &self,
            x: &[f64],
            seed: Option<&OpState>,
        ) -> (Vec<f64>, Option<OpState>) {
            let bias = seed.map_or(0.0, |s| s.slots[0][0] * 1e-3);
            (
                vec![x.iter().sum::<f64>() + bias],
                Some(OpState {
                    slots: vec![x.to_vec()],
                }),
            )
        }
        fn num_metrics(&self) -> usize {
            1
        }
    }

    #[test]
    fn seeded_evaluation_threads_state_and_respects_cache() {
        let cache = Arc::new(SimCache::new());
        let engine = EvalEngine::new(1).with_cache(Arc::clone(&cache));
        let seed = OpState {
            slots: vec![vec![2.0]],
        };
        let (m, state) = engine.evaluate_one_seeded(&SeedAware, &[0.5], Some(&seed));
        assert_eq!(m, vec![0.5 + 2e-3], "seed reached the evaluator");
        assert_eq!(state.unwrap().slots, vec![vec![0.5]], "state captured");
        // Cache hit: metrics come back, state does not (nothing ran).
        let (m2, state2) = engine.evaluate_one_seeded(&SeedAware, &[0.5], Some(&seed));
        assert_eq!(m2, m);
        assert!(state2.is_none());
        // Unseeded entry point goes through the same path with no seed.
        assert_eq!(engine.evaluate_one(&SeedAware, &[0.25]), vec![0.25]);
    }

    #[test]
    fn seeded_batch_is_order_preserving_and_jobs_invariant() {
        let xs: Vec<Vec<f64>> = (0..24).map(|i| vec![f64::from(i) * 0.017]).collect();
        let seed = OpState {
            slots: vec![vec![1.0]],
        };
        let seeds: Vec<Option<&OpState>> = (0..24)
            .map(|i| if i % 3 == 0 { Some(&seed) } else { None })
            .collect();
        let serial = EvalEngine::serial().evaluate_batch_seeded(&SeedAware, &xs, &seeds);
        let parallel = EvalEngine::new(4).evaluate_batch_seeded(&SeedAware, &xs, &seeds);
        assert_eq!(serial, parallel, "bitwise identical, not approximately");
        for (i, (m, _)) in serial.iter().enumerate() {
            let bias = if i % 3 == 0 { 1e-3 } else { 0.0 };
            assert_eq!(m, &vec![xs[i][0] + bias]);
        }
    }
}
