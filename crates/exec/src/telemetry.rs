//! Telemetry for the evaluation engine: monotonic counters, per-phase
//! wall-time spans, named metrics and an optional flight recorder.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Monotonic event counters. All increments are relaxed atomics — the
/// counters are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Counters {
    /// Simulator invocations actually executed (cache hits excluded,
    /// retries included).
    pub sims: AtomicU64,
    /// Evaluations answered from the simulation cache.
    pub cache_hits: AtomicU64,
    /// Evaluations that had to run because the cache had no entry.
    pub cache_misses: AtomicU64,
    /// Re-attempts after a failed or panicked evaluation.
    pub retries: AtomicU64,
    /// Evaluations that panicked (caught and isolated).
    pub panics: AtomicU64,
    /// Evaluations that exceeded the configured deadline.
    pub timeouts: AtomicU64,
    /// Evaluations that returned a non-finite (NaN/±inf) metric vector.
    pub non_finite: AtomicU64,
    /// Evaluations that exhausted retries and emitted the penalty vector.
    pub failures: AtomicU64,
}

/// A plain-data copy of [`Counters`] at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// See [`Counters::sims`].
    pub sims: u64,
    /// See [`Counters::cache_hits`].
    pub cache_hits: u64,
    /// See [`Counters::cache_misses`].
    pub cache_misses: u64,
    /// See [`Counters::retries`].
    pub retries: u64,
    /// See [`Counters::panics`].
    pub panics: u64,
    /// See [`Counters::timeouts`].
    pub timeouts: u64,
    /// See [`Counters::non_finite`].
    pub non_finite: u64,
    /// See [`Counters::failures`].
    pub failures: u64,
}

impl CounterSnapshot {
    /// Counter-wise difference (`self - earlier`), for scoping telemetry
    /// to one phase of a larger computation. Saturating: a mismatched
    /// snapshot pair (e.g. taken from two different engines) degrades to
    /// zeros instead of panicking in debug / wrapping in release.
    #[must_use]
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            sims: self.sims.saturating_sub(earlier.sims),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            retries: self.retries.saturating_sub(earlier.retries),
            panics: self.panics.saturating_sub(earlier.panics),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            non_finite: self.non_finite.saturating_sub(earlier.non_finite),
            failures: self.failures.saturating_sub(earlier.failures),
        }
    }

    /// Counter-wise sum (`self + earlier`), the inverse of
    /// [`CounterSnapshot::since`]. A resumed run adds the counters
    /// accumulated before the crash (stored in its checkpoint) to the
    /// post-resume deltas so its run-end record matches an uninterrupted
    /// run's.
    #[must_use]
    pub fn plus(&self, other: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            sims: self.sims + other.sims,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            retries: self.retries + other.retries,
            panics: self.panics + other.panics,
            timeouts: self.timeouts + other.timeouts,
            non_finite: self.non_finite + other.non_finite,
            failures: self.failures + other.failures,
        }
    }

    /// Total faulted attempts of any kind (each panicked, timed-out or
    /// non-finite attempt plus each exhausted retry budget).
    pub fn faults(&self) -> u64 {
        self.panics + self.timeouts + self.non_finite + self.failures
    }
}

impl fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sims {} cache {}/{} retries {} faults {}",
            self.sims,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.retries,
            self.faults()
        )
    }
}

/// Accumulated wall time and call count of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpanTotal {
    total: Duration,
    count: u64,
}

/// A point-in-time copy of one phase's span statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Phase name.
    pub name: String,
    /// Accumulated wall time across all spans of this phase (a work
    /// measure: overlapping spans from concurrent workers add up).
    pub total: Duration,
    /// How many spans of this phase completed.
    pub count: u64,
}

/// Telemetry sink shared by everything an [`crate::EvalEngine`] runs.
pub struct Telemetry {
    /// Event counters.
    pub counters: Counters,
    /// Named metrics (counters / gauges / log-bucket histograms) shared by
    /// the engine and anything running on it, so exec-level and
    /// optimizer-level metrics land in one sink. Behind an `Arc` so the
    /// engine can install it as the thread-ambient registry
    /// ([`crate::metrics::set_ambient_metrics`]) around each evaluation.
    pub metrics: Arc<crate::metrics::MetricsRegistry>,
    spans: Mutex<BTreeMap<String, SpanTotal>>,
    tracer: Option<Arc<crate::trace::TraceRecorder>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("counters", &self.counters)
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            counters: Counters::default(),
            metrics: Arc::new(crate::metrics::MetricsRegistry::new()),
            spans: Mutex::new(BTreeMap::new()),
            tracer: None,
        }
    }
}

impl Telemetry {
    /// Telemetry with no flight recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a flight recorder: every span this telemetry records
    /// (and every trace site on engines using it) also lands in the
    /// recorder's per-thread ring buffers. See [`crate::trace`] for the
    /// determinism boundary — traces never enter run journals.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<crate::trace::TraceRecorder>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached flight recorder, if any.
    pub fn tracer(&self) -> Option<&Arc<crate::trace::TraceRecorder>> {
        self.tracer.as_ref()
    }

    /// A fresh telemetry sharing this one's flight recorder but nothing
    /// else. This is what per-run telemetry isolation must use instead
    /// of [`Telemetry::new`]: counters, spans and metrics stay
    /// per-run (so journal contents cannot depend on concurrent runs),
    /// while the timeline — which is timing-only and outside the
    /// journal contract — stays global to the traced process.
    #[must_use]
    pub fn isolated(&self) -> Telemetry {
        let mut fresh = Telemetry::new();
        fresh.tracer = self.tracer.clone();
        fresh
    }

    /// Starts a wall-time span for `phase`; the elapsed time accumulates
    /// into the phase's total when the guard drops or is
    /// [ended](SpanGuard::end). Overlapping spans from
    /// concurrent workers all add up, so a phase total can exceed
    /// wall-clock — it is a work measure, like CPU time.
    pub fn span(&self, phase: &str) -> SpanGuard<'_> {
        SpanGuard {
            telemetry: self,
            phase: phase.to_string(),
            start: Instant::now(),
            trace_t0: self.tracer.as_ref().map(|tr| tr.now_ns()),
        }
    }

    /// Poison-tolerant: [`SpanGuard`]s drop during panic unwinding on
    /// pool workers, and a lost span (or a double panic aborting the
    /// process) would be strictly worse than reading through the poison
    /// — the map of accumulated durations is valid at every point.
    ///
    /// Each span end also observes the phase's latency into the
    /// `exec.phase_seconds.<phase>` histogram, so per-phase percentiles
    /// come for free wherever the metrics registry is dumped. (Metrics
    /// never enter run journals — only counter snapshots do — so this
    /// stays outside the byte-identity contract.)
    fn end_span(&self, phase: String, elapsed: Duration) {
        self.metrics.observe(
            &format!("exec.phase_seconds.{phase}"),
            elapsed.as_secs_f64(),
        );
        self.add_span(phase, elapsed, 1);
    }

    /// Adds to a phase's running total without the per-call histogram
    /// observation — the merge path, where `other`'s histograms arrive
    /// through the metrics merge instead.
    fn add_span(&self, phase: String, elapsed: Duration, count: u64) {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = spans.entry(phase).or_default();
        entry.total += elapsed;
        entry.count += count;
    }

    /// Accumulated per-phase wall time and call counts, sorted by phase
    /// name. Poison-tolerant for the same reason as span recording.
    pub fn span_stats(&self) -> Vec<SpanStat> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans
            .iter()
            .map(|(name, t)| SpanStat {
                name: name.clone(),
                total: t.total,
                count: t.count,
            })
            .collect()
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        let c = &self.counters;
        CounterSnapshot {
            sims: c.sims.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            non_finite: c.non_finite.load(Ordering::Relaxed),
            failures: c.failures.load(Ordering::Relaxed),
        }
    }

    /// Bumps one counter by one.
    pub(crate) fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Absorbs `other`'s counters, span totals and metrics into `self`.
    ///
    /// This is how per-run telemetry isolation composes with aggregate
    /// reporting: a run executing on the pool records into its own fresh
    /// `Telemetry` (so its journal counters cannot depend on how
    /// concurrent runs interleave) and the caller merges the totals back
    /// into the shared sink afterwards. Counters and span durations add;
    /// metrics merge per [`crate::MetricsRegistry::merge_from`].
    /// Concurrent merges into the same target are safe; merging two
    /// telemetries into each other concurrently is not supported.
    pub fn merge_from(&self, other: &Telemetry) {
        let snap = other.snapshot();
        let c = &self.counters;
        for (counter, value) in [
            (&c.sims, snap.sims),
            (&c.cache_hits, snap.cache_hits),
            (&c.cache_misses, snap.cache_misses),
            (&c.retries, snap.retries),
            (&c.panics, snap.panics),
            (&c.timeouts, snap.timeouts),
            (&c.non_finite, snap.non_finite),
            (&c.failures, snap.failures),
        ] {
            counter.fetch_add(value, Ordering::Relaxed);
        }
        for stat in other.span_stats() {
            self.add_span(stat.name, stat.total, stat.count);
        }
        self.metrics.merge_from(&other.metrics);
    }
}

/// Minimal JSON string escaping, for the trace writer's names and labels.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` as a valid JSON value. Rust's `{}` formatting of a
/// non-finite float (`NaN`, `inf`) is not JSON, so those map to `null`
/// (not-a-number) and the strings `"inf"` / `"-inf"`; finite values
/// round-trip through `f64::from_str`.
pub fn json_f64(v: f64) -> String {
    if v.is_nan() {
        "null".to_string()
    } else if v == f64::INFINITY {
        "\"inf\"".to_string()
    } else if v == f64::NEG_INFINITY {
        "\"-inf\"".to_string()
    } else {
        format!("{v}")
    }
}

/// RAII guard returned by [`Telemetry::span`]. The span ends when the
/// guard drops, or explicitly through [`SpanGuard::end`], which also
/// returns the recorded duration.
pub struct SpanGuard<'a> {
    telemetry: &'a Telemetry,
    phase: String,
    start: Instant,
    /// Recorder-relative start timestamp, captured iff tracing.
    trace_t0: Option<u64>,
}

impl SpanGuard<'_> {
    /// Wall time since the span opened; the span stays open.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Ends the span now and returns its duration: the one reading that
    /// goes into the phase total, the `exec.phase_seconds.<phase>`
    /// histogram and the trace event. Callers that keep their own
    /// per-phase sums (a run's `RunTimings`) add this value, so those
    /// sums equal the span totals exactly.
    pub fn end(mut self) -> Duration {
        let elapsed = self.record();
        // Recorded above; `phase` is now an empty `String`, so skipping
        // the destructor leaks nothing.
        std::mem::forget(self);
        elapsed
    }

    fn record(&mut self) -> Duration {
        let elapsed = self.start.elapsed();
        if let (Some(tracer), Some(t0)) = (&self.telemetry.tracer, self.trace_t0) {
            tracer.span(&self.phase, t0, elapsed.as_nanos() as u64, None);
        }
        self.telemetry
            .end_span(std::mem::take(&mut self.phase), elapsed);
        elapsed
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_per_phase() {
        let t = Telemetry::new();
        {
            let _a = t.span("train");
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let _b = t.span("train");
        }
        {
            let _c = t.span("sim");
        }
        let spans = t.span_stats();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "sim");
        assert_eq!(spans[1].name, "train");
        assert!(spans[1].total >= Duration::from_millis(2));
    }

    #[test]
    fn snapshot_diff_isolates_a_window() {
        let t = Telemetry::new();
        t.bump(&t.counters.sims);
        let before = t.snapshot();
        t.bump(&t.counters.sims);
        t.bump(&t.counters.cache_hits);
        let delta = t.snapshot().since(&before);
        assert_eq!(delta.sims, 1);
        assert_eq!(delta.cache_hits, 1);
        assert_eq!(format!("{delta}"), "sims 1 cache 1/1 retries 0 faults 0");
    }

    #[test]
    fn json_string_escapes_control_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_f64_maps_non_finite_values() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(-0.25), "-0.25");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "\"inf\"");
        assert_eq!(json_f64(f64::NEG_INFINITY), "\"-inf\"");
    }

    #[test]
    fn since_saturates_on_mismatched_snapshots() {
        let small = CounterSnapshot {
            sims: 1,
            ..CounterSnapshot::default()
        };
        let big = CounterSnapshot {
            sims: 5,
            cache_hits: 2,
            ..CounterSnapshot::default()
        };
        // Wrong order (or snapshots from different engines): zeros, not a
        // debug panic / release wrap.
        let d = small.since(&big);
        assert_eq!(d, CounterSnapshot::default());
    }

    #[test]
    fn non_finite_counts_as_a_fault_and_plus_inverts_since() {
        let t = Telemetry::new();
        t.bump(&t.counters.non_finite);
        let snap = t.snapshot();
        assert_eq!(snap.non_finite, 1);
        assert_eq!(snap.faults(), 1, "a non-finite attempt is a fault");

        let base = CounterSnapshot {
            sims: 7,
            non_finite: 2,
            ..CounterSnapshot::default()
        };
        let total = base.plus(&snap);
        assert_eq!(total.non_finite, 3);
        assert_eq!(total.since(&base), snap, "plus is the inverse of since");
    }

    #[test]
    fn span_stats_count_calls_and_merge_adds_counts() {
        let t = Telemetry::new();
        for _ in 0..3 {
            let _s = t.span("train");
        }
        {
            let _s = t.span("sim");
        }
        let stats = t.span_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!((stats[0].name.as_str(), stats[0].count), ("sim", 1));
        assert_eq!((stats[1].name.as_str(), stats[1].count), ("train", 3));

        let target = Telemetry::new();
        {
            let _s = target.span("train");
        }
        target.merge_from(&t);
        let merged = target.span_stats();
        let train = merged.iter().find(|s| s.name == "train").unwrap();
        assert_eq!(train.count, 4, "merge adds call counts");
        // Phase latency histograms record one observation per *real*
        // span end; the merge path must not double-observe.
        let metrics = target.metrics.snapshot();
        let hist = metrics
            .iter()
            .find_map(|m| match m {
                crate::MetricSnapshot::Histogram(h) if h.name == "exec.phase_seconds.train" => {
                    Some(h)
                }
                _ => None,
            })
            .expect("per-phase latency histogram");
        assert_eq!(hist.count + hist.invalid, 4, "{hist:?}");
    }

    #[test]
    fn isolated_shares_only_the_tracer() {
        let tracer = crate::trace::TraceRecorder::new();
        let parent = Telemetry::new().with_tracer(Arc::clone(&tracer));
        let child = parent.isolated();
        child.bump(&child.counters.sims);
        {
            let _s = child.span("round");
        }
        assert_eq!(parent.snapshot().sims, 0, "counters are isolated");
        assert!(parent.span_stats().is_empty(), "spans are isolated");
        let snap = tracer.snapshot();
        assert_eq!(snap.len(), 1, "the trace timeline is shared");
        let ev = &snap.threads[0].events[0];
        assert_eq!(ev.name, "round");
        assert!(matches!(ev.kind, crate::trace::TraceEventKind::Span { .. }));
    }

    #[test]
    fn end_returns_the_duration_every_sink_records() {
        let tracer = crate::trace::TraceRecorder::new();
        let t = Telemetry::new().with_tracer(Arc::clone(&tracer));
        let span = t.span("phase");
        std::thread::sleep(Duration::from_millis(1));
        let mid = span.elapsed();
        let d = span.end();
        assert!(d >= mid && mid >= Duration::from_millis(1));
        let stats = t.span_stats();
        assert_eq!((stats[0].total, stats[0].count), (d, 1), "ended once");
        let hist = t
            .metrics
            .snapshot()
            .into_iter()
            .find_map(|m| match m {
                crate::MetricSnapshot::Histogram(h) if h.name == "exec.phase_seconds.phase" => {
                    Some(h)
                }
                _ => None,
            })
            .expect("per-phase latency histogram");
        assert_eq!(hist.count, 1);
        let snap = tracer.snapshot();
        let ev = &snap.threads[0].events[0];
        assert_eq!(
            ev.kind,
            crate::trace::TraceEventKind::Span {
                dur_ns: d.as_nanos() as u64
            }
        );
    }

    #[test]
    fn untraced_telemetry_records_no_trace_events() {
        let t = Telemetry::new();
        assert!(t.tracer().is_none());
        {
            let _s = t.span("phase");
        }
        assert_eq!(t.span_stats()[0].count, 1);
    }
}
