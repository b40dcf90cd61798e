//! Renders a flight-recorder trace ([`maopt_obs::TraceData`]) into the
//! Chrome/Perfetto `trace_event` JSON format plus a human-readable
//! utilization report.
//!
//! The Perfetto export is the [JSON trace event format]: one `"X"`
//! (complete) event per span, `"i"` per instant marker, `"C"` per
//! counter sample, and `"M"` metadata events naming each thread.
//! Timestamps and durations are microseconds (the format's native
//! unit), derived from the recorder's nanosecond clock.
//!
//! The utilization report answers the questions a timeline makes you
//! scroll for: per-worker busy fraction and longest idle gap, per-phase
//! total time and exact latency percentiles (p50/p95/p99 over every
//! recorded span), and the top-K slowest simulations with their design
//! provenance hashes.
//!
//! [JSON trace event format]:
//! https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;
use std::fmt::Write as _;

use maopt_linalg::stats::percentile;
use maopt_obs::json::Json;
use maopt_obs::{TraceData, TraceEvent, TraceEventKind};

/// Renders the trace as Chrome/Perfetto `trace_event` JSON (the
/// `{"traceEvents": [...]}` object form).
#[must_use]
pub fn render_perfetto(data: &TraceData) -> String {
    let mut events = Vec::new();
    for thread in &data.threads {
        events.push(Json::obj(vec![
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::num_u(1)),
            ("tid", Json::num_u(u64::from(thread.tid))),
            (
                "args",
                Json::obj(vec![("name", Json::Str(thread.label.clone()))]),
            ),
        ]));
    }
    for event in &data.events {
        let ts_us = event.t_ns as f64 / 1000.0;
        let mut pairs = vec![
            ("name", Json::Str(event.name.clone())),
            ("pid", Json::num_u(1)),
            ("tid", Json::num_u(u64::from(event.tid))),
            ("ts", Json::Num(ts_us)),
        ];
        match &event.kind {
            TraceEventKind::Span { dur_ns } => {
                pairs.push(("ph", Json::Str("X".into())));
                pairs.push(("dur", Json::Num(*dur_ns as f64 / 1000.0)));
                if let Some(arg) = event.arg {
                    pairs.push((
                        "args",
                        Json::obj(vec![("design", Json::Str(format!("{arg:016x}")))]),
                    ));
                }
            }
            TraceEventKind::Instant => {
                pairs.push(("ph", Json::Str("i".into())));
                pairs.push(("s", Json::Str("t".into())));
                if let Some(arg) = event.arg {
                    pairs.push((
                        "args",
                        Json::obj(vec![("design", Json::Str(format!("{arg:016x}")))]),
                    ));
                }
            }
            TraceEventKind::Counter { value } => {
                pairs.push(("ph", Json::Str("C".into())));
                pairs.push(("args", Json::obj(vec![("value", Json::Num(*value))])));
            }
        }
        events.push(Json::obj(pairs));
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
    .to_string()
}

/// Busy union and longest idle gap of one thread's spans inside
/// `window`: overlapping spans are merged before summing, so nested or
/// concurrent spans on one thread never count twice.
fn busy_and_idle(mut spans: Vec<(u64, u64)>, window: (u64, u64)) -> (u64, u64) {
    spans.sort_unstable();
    let mut busy = 0u64;
    let mut longest_idle = 0u64;
    let mut cursor = window.0;
    for (start, end) in spans {
        let start = start.max(window.0);
        let end = end.min(window.1);
        if end <= cursor {
            continue;
        }
        if start > cursor {
            longest_idle = longest_idle.max(start - cursor);
        }
        busy += end - start.max(cursor);
        cursor = cursor.max(end);
    }
    if window.1 > cursor {
        longest_idle = longest_idle.max(window.1 - cursor);
    }
    (busy, longest_idle)
}

fn fmt_dur_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Renders the utilization report: per-thread busy fractions, per-phase
/// totals and latency percentiles, and the `top_k` slowest `sim` spans with their
/// design hashes. Returns a fixed note for a trace with no events.
#[must_use]
pub fn render_utilization(data: &TraceData, top_k: usize) -> String {
    let Some(window) = data.window_ns() else {
        return "trace contains no events\n".to_string();
    };
    let span_total = (window.1 - window.0).max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace window: {} ({} events, {} threads)\n",
        fmt_dur_ns(window.1 - window.0),
        data.events.len(),
        data.threads.len()
    );

    // ---- per-thread utilization ------------------------------------
    let mut by_tid: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for event in &data.events {
        if let TraceEventKind::Span { .. } = event.kind {
            by_tid
                .entry(event.tid)
                .or_default()
                .push((event.t_ns, event.end_ns()));
        }
    }
    out.push_str("| thread | spans | busy | longest idle | dropped |\n");
    out.push_str("|---|---:|---:|---:|---:|\n");
    for thread in &data.threads {
        let spans = by_tid.remove(&thread.tid).unwrap_or_default();
        let n = spans.len();
        let (busy, idle) = busy_and_idle(spans, window);
        let _ = writeln!(
            out,
            "| {} | {} | {:.1}% | {} | {} |",
            data.thread_label(thread.tid),
            n,
            100.0 * busy as f64 / span_total as f64,
            fmt_dur_ns(idle),
            thread.dropped
        );
    }

    // ---- per-phase totals and latency percentiles -------------------
    let mut phases: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for event in &data.events {
        if let TraceEventKind::Span { dur_ns } = event.kind {
            phases
                .entry(event.name.as_str())
                .or_default()
                .push(dur_ns as f64);
        }
    }
    out.push_str("\n| phase | calls | total | p50 | p95 | p99 |\n");
    out.push_str("|---|---:|---:|---:|---:|---:|\n");
    for (name, durs) in &phases {
        let total: f64 = durs.iter().sum();
        let q = |p| fmt_dur_ns(percentile(durs, p) as u64);
        let _ = writeln!(
            out,
            "| {name} | {} | {} | {} | {} | {} |",
            durs.len(),
            fmt_dur_ns(total as u64),
            q(50.0),
            q(95.0),
            q(99.0),
        );
    }
    let dropped: u64 = data.threads.iter().map(|t| t.dropped).sum();
    if dropped > 0 {
        let _ = writeln!(
            out,
            "\n{dropped} events were dropped by the flight recorder, so the calls and totals above undercount."
        );
    }

    // ---- warm vs cold DC solves ------------------------------------
    // The simulator wraps each DC solve in a `sim.dc.{warm,fallback,cold}`
    // span keyed by the warm-start outcome, so a trace shows directly how
    // much Newton time operating-point reuse saved — and how much the
    // rescue path cost when a seed went hostile.
    let mut dc_outcomes: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for event in &data.events {
        if let TraceEventKind::Span { dur_ns } = event.kind {
            if let Some(outcome) = event.name.strip_prefix("sim.dc.") {
                let slot = dc_outcomes.entry(outcome).or_default();
                slot.0 += 1;
                slot.1 += dur_ns;
            }
        }
    }
    if !dc_outcomes.is_empty() {
        out.push_str("\nDC solves by warm-start outcome:\n\n");
        out.push_str("| outcome | solves | total | mean |\n");
        out.push_str("|---|---:|---:|---:|\n");
        for (outcome, (n, total)) in &dc_outcomes {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                outcome,
                n,
                fmt_dur_ns(*total),
                fmt_dur_ns(total / n.max(&1))
            );
        }
    }

    // ---- slowest simulations ---------------------------------------
    let mut sims: Vec<&TraceEvent> = data
        .events
        .iter()
        .filter(|e| e.name == "sim" && matches!(e.kind, TraceEventKind::Span { .. }))
        .collect();
    sims.sort_by_key(|e| {
        std::cmp::Reverse(match e.kind {
            TraceEventKind::Span { dur_ns } => dur_ns,
            _ => 0,
        })
    });
    if !sims.is_empty() {
        let k = top_k.max(1).min(sims.len());
        let _ = writeln!(out, "\ntop {k} slowest simulations:");
        out.push_str("\n| rank | duration | thread | design |\n");
        out.push_str("|---:|---:|---|---|\n");
        for (rank, event) in sims[..k].iter().enumerate() {
            let TraceEventKind::Span { dur_ns } = event.kind else {
                continue;
            };
            let design = event
                .arg
                .map_or_else(|| "-".to_string(), |h| format!("{h:016x}"));
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                rank + 1,
                fmt_dur_ns(dur_ns),
                data.thread_label(event.tid),
                design
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use maopt_obs::parse_trace;

    fn sample() -> TraceData {
        parse_trace(concat!(
            "{\"trace\":\"maopt\",\"version\":1}\n",
            "{\"kind\":\"thread\",\"tid\":0,\"label\":\"main\",\"dropped\":0}\n",
            "{\"kind\":\"thread\",\"tid\":1,\"label\":\"maopt-pool1-w0\",\"dropped\":3}\n",
            "{\"kind\":\"span\",\"tid\":0,\"name\":\"simulation\",\"t_ns\":0,\"dur_ns\":1000}\n",
            "{\"kind\":\"span\",\"tid\":1,\"name\":\"sim\",\"t_ns\":100,\"dur_ns\":400,\"arg\":255}\n",
            "{\"kind\":\"span\",\"tid\":1,\"name\":\"sim\",\"t_ns\":600,\"dur_ns\":100,\"arg\":16}\n",
            "{\"kind\":\"instant\",\"tid\":1,\"name\":\"fault:panic\",\"t_ns\":550}\n",
            "{\"kind\":\"counter\",\"tid\":0,\"name\":\"exec.pool.queue_depth\",\"t_ns\":50,\"value\":2}\n",
        ))
        .expect("sample parses")
    }

    #[test]
    fn perfetto_export_is_valid_json_with_all_phases() {
        let text = render_perfetto(&sample());
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 2 thread_name metadata + 3 spans + 1 instant + 1 counter.
        assert_eq!(events.len(), 7);
        let phs: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert_eq!(phs.iter().filter(|p| **p == "M").count(), 2);
        assert_eq!(phs.iter().filter(|p| **p == "X").count(), 3);
        assert_eq!(phs.iter().filter(|p| **p == "i").count(), 1);
        assert_eq!(phs.iter().filter(|p| **p == "C").count(), 1);
        // Spans carry microsecond timestamps and the design hash.
        let sim = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("sim"))
            .unwrap();
        assert_eq!(sim.get("ts").and_then(Json::as_f64), Some(0.1));
        assert_eq!(sim.get("dur").and_then(Json::as_f64), Some(0.4));
        assert_eq!(
            sim.get("args")
                .and_then(|a| a.get("design"))
                .and_then(Json::as_str),
            Some("00000000000000ff")
        );
    }

    #[test]
    fn busy_union_merges_overlaps_and_finds_idle_gaps() {
        // Overlapping spans [0,10) and [5,15) are 15 busy, not 20; the
        // gap to 30 is the longest idle.
        let (busy, idle) = busy_and_idle(vec![(0, 10), (5, 15)], (0, 30));
        assert_eq!(busy, 15);
        assert_eq!(idle, 15);
        let (busy, idle) = busy_and_idle(vec![], (0, 100));
        assert_eq!(busy, 0);
        assert_eq!(idle, 100);
    }

    #[test]
    fn utilization_report_names_workers_phases_and_slow_sims() {
        let report = render_utilization(&sample(), 1);
        assert!(report.contains("| maopt-pool1-w0 | 2 | 50.0%"), "{report}");
        assert!(report.contains("| 3 |"), "dropped count shown: {report}");
        assert!(
            report.contains("| sim | 2 | 0.5us |"),
            "per-phase calls and total: {report}"
        );
        assert!(
            report.contains("3 events were dropped"),
            "dropped events flagged: {report}"
        );
        assert!(report.contains("top 1 slowest simulations"), "{report}");
        assert!(
            report.contains("00000000000000ff"),
            "slowest sim keeps its design hash: {report}"
        );
        assert!(
            !report.contains("0000000000000010"),
            "top-1 excludes the faster sim: {report}"
        );
    }

    #[test]
    fn utilization_report_breaks_out_warm_vs_cold_dc_solves() {
        let data = parse_trace(concat!(
            "{\"trace\":\"maopt\",\"version\":1}\n",
            "{\"kind\":\"thread\",\"tid\":0,\"label\":\"main\",\"dropped\":0}\n",
            "{\"kind\":\"span\",\"tid\":0,\"name\":\"sim.dc.warm\",\"t_ns\":0,\"dur_ns\":1000}\n",
            "{\"kind\":\"span\",\"tid\":0,\"name\":\"sim.dc.warm\",\"t_ns\":2000,\"dur_ns\":3000}\n",
            "{\"kind\":\"span\",\"tid\":0,\"name\":\"sim.dc.cold\",\"t_ns\":6000,\"dur_ns\":8000}\n",
            "{\"kind\":\"span\",\"tid\":0,\"name\":\"sim.dc.fallback\",\"t_ns\":15000,\"dur_ns\":500}\n",
        ))
        .unwrap();
        let report = render_utilization(&data, 1);
        assert!(
            report.contains("DC solves by warm-start outcome"),
            "{report}"
        );
        assert!(report.contains("| warm | 2 |"), "{report}");
        assert!(report.contains("| cold | 1 |"), "{report}");
        assert!(report.contains("| fallback | 1 |"), "{report}");
        // A trace without DC spans omits the section entirely.
        let plain = render_utilization(&sample(), 1);
        assert!(!plain.contains("warm-start outcome"), "{plain}");
    }

    #[test]
    fn phase_percentiles_and_totals_are_exact() {
        // 100 spans of 1, 2, …, 100 ms: the interpolated median is
        // 50.5 ms, and the spans sum to 5.05 s.
        let mut text = String::from(concat!(
            "{\"trace\":\"maopt\",\"version\":1}\n",
            "{\"kind\":\"thread\",\"tid\":0,\"label\":\"main\",\"dropped\":0}\n",
        ));
        let mut t_ns = 0u64;
        for ms in 1..=100u64 {
            let dur_ns = ms * 1_000_000;
            text.push_str(&format!(
                "{{\"kind\":\"span\",\"tid\":0,\"name\":\"critic_training\",\"t_ns\":{t_ns},\"dur_ns\":{dur_ns}}}\n"
            ));
            t_ns += dur_ns;
        }
        let report = render_utilization(&parse_trace(&text).unwrap(), 1);
        assert!(
            report.contains("| critic_training | 100 | 5.050s | 50.500ms | 95.050ms | 99.010ms |"),
            "{report}"
        );
        assert!(!report.contains("dropped by"), "{report}");
    }

    #[test]
    fn empty_trace_renders_a_note_not_a_panic() {
        let data = parse_trace("{\"trace\":\"maopt\",\"version\":1}\n").unwrap();
        assert_eq!(render_utilization(&data, 5), "trace contains no events\n");
        let doc = Json::parse(&render_perfetto(&data)).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
    }
}
