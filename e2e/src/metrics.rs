//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names,
//! units and directions, plus each end-to-end bound; a unit test keeps
//! the two in step.

use std::collections::BTreeMap;

use maopt_obs::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of a reproduction run sees, measured with tracing off.
pub const END_TO_END: [Def; 4] = [
    lower("setup_s", "s"),
    lower("run_s", "s"),
    higher("sims_per_s", "1/s"),
    lower("peak_rss_mib", "MiB"),
];

/// Single-layer metrics, reported by the traced run.
pub const PER_LAYER: [Def; 47] = [
    lower("core.actor_train_frac", "frac"),
    lower("core.critic_elite_frac", "frac"),
    lower("core.ns_score_frac", "frac"),
    lower("core.sim_wait_frac", "frac"),
    lower("core.persist_frac", "frac"),
    higher("core.lane_efficiency", "frac"),
    lower("core.rounds_actor", "count"),
    lower("core.rounds_ns", "count"),
    lower("core.critic_steps", "count"),
    lower("core.actor_steps", "count"),
    lower("core.critic_train_ms", "ms"),
    lower("core.actor_train_ms", "ms"),
    lower("core.ns_score_ms", "ms"),
    lower("core.elite_rebuild_us", "us"),
    lower("nn.critic_step_us", "us"),
    lower("nn.actor_step_us", "us"),
    higher("linalg.gemm_gflops_train", "GFLOP/s"),
    higher("linalg.gemm_gflops_infer", "GFLOP/s"),
    lower("linalg.gemm_flops_per_critic_step", "count"),
    lower("sim.us_p50", "us"),
    lower("sim.us_p90", "us"),
    lower("sim.cold_us_p50", "us"),
    lower("sim.warm_us_p50", "us"),
    lower("sim.calls", "count"),
    lower("sim.fail_frac", "frac"),
    lower("sim.newton_iters_per_sim", "iter/sim"),
    higher("sim.warmstart_hit", "count"),
    lower("sim.warmstart_fallback", "count"),
    lower("sim.busy_s", "s"),
    lower("sim.dc_s", "s"),
    lower("sim.assemble_s", "s"),
    lower("sim.factor_s", "s"),
    lower("sim.solve_s", "s"),
    lower("circuits.build_us", "us"),
    higher("exec.pool_util", "frac"),
    lower("exec.dispatch_us", "us"),
    higher("exec.cache_hit_frac", "frac"),
    lower("exec.retries", "count"),
    lower("exec.failures", "count"),
    lower("ckpt.snapshot_bytes", "bytes"),
    lower("ckpt.saves", "count"),
    lower("ckpt.save_ms_p50", "ms"),
    lower("ckpt.load_ms", "ms"),
    lower("obs.journal_bytes", "bytes"),
    lower("trace.dropped", "count"),
    lower("trace.events", "count"),
    lower("trace.overhead_pct", "%"),
];

/// The declaration of `name`.
pub fn def(name: &str) -> Option<Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .copied()
}

/// `BENCHMARK.json`, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end bounds from `BENCHMARK.json`: metric name → the share of
/// the base median by which it may worsen.
pub fn bounds() -> BTreeMap<String, f64> {
    let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// The final line of a run: `correct`, `attempted`, `failed` and every
/// metric with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(Def, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(d, v)| {
            (
                d.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(*v)),
                    ("unit", Json::Str(d.unit.into())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num_u(attempted)),
        ("failed", Json::num_u(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let spec = Json::parse(BENCHMARK_JSON).expect("valid JSON");
        spec.get(section)
            .and_then(Json::as_arr)
            .expect("section present")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(ours(&END_TO_END), declared("end_to_end"));
        assert_eq!(ours(&PER_LAYER), declared("per_layer"));
        let b = bounds();
        assert_eq!(b.len(), END_TO_END.len());
        assert!(b.values().all(|&v| v > 0.0 && v <= 0.25));
    }

    #[test]
    fn names_and_units_are_well_formed() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let all: Vec<Def> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for d in &all {
            assert!(name_ok(d.name), "bad metric name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} of {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[(END_TO_END[1], 1.25)]);
        let v = Json::parse(&line).expect("valid JSON");
        let Json::Obj(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let run_s = v
            .get("metrics")
            .and_then(|m| m.get("run_s"))
            .expect("metric");
        assert_eq!(run_s.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(run_s.get("unit").and_then(Json::as_str), Some("s"));
    }
}
