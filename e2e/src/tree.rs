//! Self times from a flight-recorder snapshot, and the run's self-time
//! tree.
//!
//! Spans nest by time on each thread: a span's self time is its
//! duration minus the durations of the spans directly inside it. Worker
//! threads run the `sim` spans that the main thread's `simulation` span
//! waits for, so the tree joins them by name.

use std::collections::BTreeMap;

use maopt_exec::trace::TraceEventKind;
use maopt_exec::TraceSnapshot;

/// Slack allowed when deciding containment: span ends are computed from
/// a separate clock read and may overshoot their parent by a few ns.
const NEST_SLACK_NS: u64 = 1_000;

/// Per-name totals over every thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTimes {
    /// Summed span durations, seconds.
    pub total: f64,
    /// Summed self times, seconds.
    pub self_time: f64,
    /// Number of spans.
    pub count: u64,
}

/// Self times of a trace, by span name.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Totals per span name.
    pub by_name: BTreeMap<String, NameTimes>,
    /// Events still in the rings.
    pub events: usize,
    /// Events the rings overwrote.
    pub dropped: u64,
}

impl SelfTimes {
    /// Computes self times from `snap`.
    pub fn from_snapshot(snap: &TraceSnapshot) -> SelfTimes {
        let mut out = SelfTimes {
            events: snap.len(),
            dropped: snap.threads.iter().map(|t| t.dropped).sum(),
            ..SelfTimes::default()
        };
        for thread in &snap.threads {
            let mut spans: Vec<(&str, u64, u64)> = thread
                .events
                .iter()
                .filter_map(|ev| match ev.kind {
                    TraceEventKind::Span { dur_ns } => Some((ev.name.as_str(), ev.t_ns, dur_ns)),
                    _ => None,
                })
                .collect();
            // Parents sort before the children they contain.
            spans.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)));
            let mut child_ns = vec![0u64; spans.len()];
            let mut open: Vec<usize> = Vec::new();
            for (i, &(_, t0, dur)) in spans.iter().enumerate() {
                while let Some(&p) = open.last() {
                    let (_, p0, pdur) = spans[p];
                    if t0 < p0 + pdur && t0 + dur <= p0 + pdur + NEST_SLACK_NS {
                        break;
                    }
                    open.pop();
                }
                if let Some(&p) = open.last() {
                    child_ns[p] += dur;
                }
                open.push(i);
            }
            for (&(name, _, dur), &children) in spans.iter().zip(&child_ns) {
                let entry = out.by_name.entry(name.to_string()).or_default();
                entry.total += dur as f64 * 1e-9;
                entry.self_time += dur.saturating_sub(children) as f64 * 1e-9;
                entry.count += 1;
            }
        }
        out
    }

    /// Summed duration of spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.total)
    }

    /// Summed self time of spans whose name starts with `prefix`.
    pub fn self_time(&self, prefix: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.self_time)
            .sum()
    }

    /// The self-time tree of one traced unit, one line per node:
    /// `e2e.run` → {`actor_training`, `near_sampling`, `simulation` →
    /// `sim` → solver phases, unspanned residual}.
    pub fn render(&self) -> String {
        let run = self.total("e2e.run");
        let pct = |s: f64| if run > 0.0 { 100.0 * s / run } else { 0.0 };
        let line = |depth: usize, name: &str, s: f64, note: &str| {
            format!(
                "{:indent$}{name:<width$} {s:>10.4} s {:>6.1}%  {note}\n",
                "",
                pct(s),
                indent = 2 * depth,
                width = 30 - 2 * depth
            )
        };
        let phases = ["actor_training", "near_sampling", "simulation"];
        let spanned: f64 = phases.iter().map(|p| self.total(p)).sum();
        let mut out = line(0, "e2e.run", run, "wall time of the traced unit");
        for phase in &phases[..2] {
            out += &line(1, phase, self.total(phase), "");
        }
        out += &line(
            1,
            "simulation",
            self.total("simulation"),
            "wall time waiting",
        );
        out += &line(
            2,
            "sim",
            self.total("sim"),
            "work summed over workers; self time below",
        );
        out += &line(
            3,
            "sim (self)",
            self.by_name.get("sim").map_or(0.0, |t| t.self_time),
            "netlist set-up, analyses and measurements outside the solver phases",
        );
        for (name, t) in &self.by_name {
            if name.starts_with("sim.") {
                out += &line(3, name, t.self_time, &format!("self, {} spans", t.count));
            }
        }
        out += &line(
            1,
            "unspanned",
            run - spanned,
            "critic training, elite upkeep, persistence, bookkeeping",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maopt_exec::trace::{ThreadTrace, TraceEvent};

    fn span(name: &str, t_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            t_ns,
            arg: None,
            kind: TraceEventKind::Span { dur_ns },
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let snap = TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: 0,
                label: "main".into(),
                dropped: 0,
                events: vec![
                    span("sim.assemble", 110, 20),
                    span("sim", 100, 100),
                    span("sim.dc.cold", 105, 50),
                    span("sim.solve", 160, 10),
                ],
            }],
        };
        let t = SelfTimes::from_snapshot(&snap);
        let s = |name: &str| (t.by_name[name].self_time * 1e9).round();
        assert_eq!(s("sim"), 40.0); // 100 - 50 (dc) - 10 (solve)
        assert_eq!(s("sim.dc.cold"), 30.0); // 50 - 20 (assemble)
        assert_eq!(s("sim.assemble"), 20.0);
        assert_eq!(t.events, 4);
        assert_eq!(t.dropped, 0);
    }
}
