//! One workload end to end: repeated set-up, the measured phase, the
//! output checks and, when traced, the per-layer breakdown.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use maopt_exec::{CounterSnapshot, EvalEngine, MetricSnapshot, Telemetry, TraceRecorder};

use crate::metrics::{def, Def};
use crate::replay;
use crate::stats::{median, peak_rss_mib, percentile, Fnv};
use crate::timed::Sample;
use crate::tree::SelfTimes;
use crate::workload::{Attribution, Bench, Protocol, Unit, Workload, JOBS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Per-thread flight-recorder capacity. Rings grow on demand, so this
/// only has to exceed the busiest thread's event count; a traced unit
/// records a few million events at most.
const TRACE_CAPACITY: usize = 1 << 26;
/// How far the attributed parts of the optimizer runs may stray from
/// their measured wall time.
const ATTRIBUTION_TOLERANCE: f64 = 0.02;
/// Expected digests of the protocol units: `seed workload unit digest`.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Measured-phase length: the protocol runs once, then repeats while
    /// another unit still fits.
    pub seconds: f64,
    /// Whether to add the traced unit and the layer replays.
    pub trace: bool,
    /// Protocol sizes.
    pub protocol: Protocol,
    /// Scratch directory for the durable journal and checkpoint replays;
    /// removed afterwards.
    pub work: PathBuf,
}

/// Everything a run measured and checked.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which workload.
    pub workload: Workload,
    /// End-to-end metrics.
    pub e2e: Vec<(Def, f64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(Def, f64)>,
    /// Further lines for the reader: optimization quality, per-circuit
    /// latency, unit digests, the self-time tree.
    pub notes: Vec<String>,
    /// Simulations the measured phase asked for.
    pub attempted: u64,
    /// Evaluations that exhausted the engine's retries or panicked.
    pub failed: u64,
    /// Failed output checks; empty when the run is correct.
    pub errors: Vec<String>,
}

impl Report {
    fn new(workload: Workload) -> Report {
        Report {
            workload,
            e2e: Vec::new(),
            layers: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

fn put(into: &mut Vec<(Def, f64)>, name: &str, value: f64) {
    into.push((def(name).expect("metric is in the catalogue"), value));
}

/// Engine counters and metrics at one instant.
struct Snap {
    counters: CounterSnapshot,
    metrics: Vec<MetricSnapshot>,
}

impl Snap {
    fn take(engine: &EvalEngine) -> Snap {
        Snap {
            counters: engine.telemetry().snapshot(),
            metrics: engine.telemetry().metrics.snapshot(),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .find_map(|m| match m {
                MetricSnapshot::Counter { name: n, value } if n == name => Some(*value),
                _ => None,
            })
            .unwrap_or(0)
    }

    fn hist_sum(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find_map(|m| match m {
                MetricSnapshot::Histogram(h) if h.name == name => Some(h.sum),
                _ => None,
            })
            .unwrap_or(0.0)
    }
}

/// Runs `workload`; problems that stop it early land in
/// [`Report::errors`].
pub fn run(workload: Workload, opts: &Options) -> Report {
    let mut report = Report::new(workload);
    let work = opts.work.join(workload.name());
    if let Err(e) = measure(workload, opts, &work, &mut report) {
        report.errors.push(e);
    }
    let _ = std::fs::remove_dir_all(&work);
    report
}

fn measure(
    workload: Workload,
    opts: &Options,
    work: &std::path::Path,
    report: &mut Report,
) -> Result<(), String> {
    // Set-up, several times; every repeat must simulate the same
    // initial sets. The previous repeat's pool is joined before the next
    // starts, so repeats never overlap.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut builds = Vec::with_capacity(SETUP_REPS);
    let mut bench: Option<Bench> = None;
    let mut init_digest = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let t = Instant::now();
        let (b, build) = Bench::setup(workload, opts.protocol, opts.seed, work);
        setups.push(t.elapsed().as_secs_f64());
        builds.push(build.as_secs_f64() * 1e6);
        let mut h = Fnv::default();
        for (x, m) in b.inits.iter().flatten() {
            h.f64s(x);
            h.f64s(m);
        }
        if *init_digest.get_or_insert(h.finish()) != h.finish() {
            report
                .errors
                .push("a set-up repeat simulated different initial sets".into());
        }
        bench = Some(b);
    }
    let bench = bench.expect("SETUP_REPS > 0");
    let engine = &bench.engine;

    // Measured phase: the protocol once, then repeats while the next unit
    // is expected to fit in the time left.
    let n = opts.protocol.units(workload);
    let mut units: Vec<Unit> = Vec::new();
    let mut protocol_end = None;
    let t0 = Instant::now();
    loop {
        units.push(bench.run_unit(units.len() % n, engine, None));
        if units.len() == n {
            protocol_end = Some(Snap::take(engine));
        }
        let last = units.last().map_or(0.0, |u| u.wall.as_secs_f64());
        if units.len() >= n && t0.elapsed().as_secs_f64() + last > opts.seconds {
            break;
        }
    }
    let measured_end = Snap::take(engine);
    let protocol_end = protocol_end.expect("the protocol ran");
    let peak_rss = peak_rss_mib()?;
    let protocol = &units[..n];

    // Output checks.
    for u in &units {
        if !u.budget_ok {
            report.errors.push(format!(
                "unit {} did not use exactly its {} simulations",
                u.index, u.attempted
            ));
        }
    }
    for (i, u) in units.iter().enumerate().skip(n) {
        if u.digest != units[i % n].digest {
            report
                .errors
                .push(format!("repeat of unit {} changed its results", u.index));
        }
    }
    let committed = (opts.protocol == Protocol::PAPER)
        .then(|| expected_digests(workload, opts.seed))
        .flatten();
    if let Some(expected) = committed {
        let got: Vec<u64> = protocol.iter().map(|u| u.digest).collect();
        if got != expected {
            report.errors.push(format!(
                "digests {} differ from the committed {}",
                hex_list(&got),
                hex_list(&expected)
            ));
        }
    }
    // End-to-end metrics.
    let walls: Vec<f64> = units.iter().map(|u| u.wall.as_secs_f64()).collect();
    let wall_sum: f64 = walls.iter().sum();
    let samples: Vec<&Sample> = units.iter().flat_map(|u| &u.samples).collect();
    put(&mut report.e2e, "setup_s", median(&setups));
    put(&mut report.e2e, "run_s", median(&walls));
    let rates: Vec<f64> = units
        .iter()
        .map(|u| u.samples.len() as f64 / u.wall.as_secs_f64())
        .collect();
    put(&mut report.e2e, "sims_per_s", median(&rates));
    put(&mut report.e2e, "peak_rss_mib", peak_rss);
    report.attempted = units.iter().map(|u| u.attempted as u64).sum();
    report.failed = measured_end.counters.failures + measured_end.counters.panics;

    quality_notes(workload, protocol, &protocol_end, report);
    report.notes.push(format!(
        "measured {} units ({} per protocol) in {:.3} s; protocol digests {}",
        units.len(),
        n,
        wall_sum,
        hex_list(&protocol.iter().map(|u| u.digest).collect::<Vec<_>>())
    ));
    if !opts.trace {
        return Ok(());
    }

    // Per-layer: where the measured phase's wall time went.
    let mut attr = Attribution::default();
    for u in &units {
        attr.add(&u.attribution);
    }
    if workload.is_optimizer() && (attr.total() / wall_sum - 1.0).abs() > ATTRIBUTION_TOLERANCE {
        report.errors.push(format!(
            "attributed parts sum to {:.4} s of {:.4} s measured",
            attr.total(),
            wall_sum
        ));
    }
    let layers = &mut report.layers;
    put(layers, "core.actor_train_frac", attr.actor / wall_sum);
    put(
        layers,
        "core.critic_elite_frac",
        attr.critic_elite / wall_sum,
    );
    put(layers, "core.ns_score_frac", attr.ns_score / wall_sum);
    put(layers, "core.sim_wait_frac", attr.sim_wait / wall_sum);
    put(layers, "core.persist_frac", attr.persist / wall_sum);

    // The traced unit: unit 0 again, with every span recorded.
    let recorder = TraceRecorder::with_capacity(TRACE_CAPACITY);
    let traced_engine = engine.clone().with_telemetry(Arc::new(
        Telemetry::new().with_tracer(Arc::clone(&recorder)),
    ));
    let traced = bench.run_unit(0, &traced_engine, Some(&recorder));
    let times = SelfTimes::from_snapshot(&recorder.snapshot());
    // Free the rings (tens of MB) before the durable run and replays.
    drop((traced_engine, recorder));
    if traced.digest != units[0].digest {
        report
            .errors
            .push("tracing changed the results of unit 0".into());
    }
    if times.dropped > 0 {
        report.errors.push(format!(
            "the flight recorder dropped {} of {} events",
            times.dropped,
            times.dropped + times.events as u64
        ));
    }

    // The durable path: run 0 again with a journal and a checkpoint
    // every round, as each serve job runs. Host fsync latency dominates
    // its wall time and varies too much run to run to gate on, so it is
    // a check and a source of persistence counts, not a workload.
    let (saves, journal_bytes) = if workload == Workload::OtaMaopt {
        let durable = bench.durable_run(engine)?;
        if durable.best_series != units[0].best_series {
            report
                .errors
                .push("the durable run's best-FoM series differs from run 0".into());
        }
        let journal_bytes = std::fs::metadata(bench.work.join("run.jsonl"))
            .map_err(|e| format!("durable journal missing: {e}"))?
            .len();
        let d = &durable.attribution;
        report.notes.push(format!(
            "durable run 0 (journal + checkpoint every round): {:.4} s, {:.1}% persisting",
            durable.wall.as_secs_f64(),
            100.0 * d.persist / d.total()
        ));
        let after = Snap::take(engine);
        let rounds = |s: &Snap| s.counter("opt.rounds") + s.counter("opt.ns_rounds");
        (rounds(&after) - rounds(&measured_end), journal_bytes)
    } else {
        (0, 0)
    };

    // Replays on unit 0's final population.
    let replay_engine = engine.clone().with_telemetry(Arc::new(Telemetry::new()));
    let r = replay::run(
        &units[0].population,
        opts.seed,
        &replay_engine,
        &work.join("replay"),
    )?;

    let layers = &mut report.layers;
    let rounds = protocol_end.counter("opt.rounds");
    let ns_rounds = protocol_end.counter("opt.ns_rounds");
    let (lane_efficiency, critic_steps, actor_steps) = if workload.is_optimizer() {
        let c = bench.config();
        let lane_work =
            measured_end.counter("opt.rounds") as f64 * c.n_actors as f64 * r.actor_train_ms / 1e3;
        (
            lane_work / (attr.actor * JOBS as f64),
            rounds * (c.critic_steps * c.n_critics) as u64,
            rounds * (c.actor_steps * c.n_actors) as u64,
        )
    } else {
        (0.0, 0, 0)
    };
    put(layers, "core.lane_efficiency", lane_efficiency);
    put(layers, "core.rounds_actor", rounds as f64);
    put(layers, "core.rounds_ns", ns_rounds as f64);
    put(layers, "core.critic_steps", critic_steps as f64);
    put(layers, "core.actor_steps", actor_steps as f64);
    put(layers, "core.critic_train_ms", r.critic_train_ms);
    put(layers, "core.actor_train_ms", r.actor_train_ms);
    put(layers, "core.ns_score_ms", r.ns_score_ms);
    put(layers, "core.elite_rebuild_us", r.elite_rebuild_us);
    put(layers, "nn.critic_step_us", r.critic_step_us);
    put(layers, "nn.actor_step_us", r.actor_step_us);
    put(layers, "linalg.gemm_gflops_train", r.gemm_gflops_train);
    put(layers, "linalg.gemm_gflops_infer", r.gemm_gflops_infer);
    put(
        layers,
        "linalg.gemm_flops_per_critic_step",
        replay::gemm_flops_per_critic_step(&bench.problems[0]) as f64,
    );

    let us = |s: &&Sample| s.dur.as_secs_f64() * 1e6;
    let lat: Vec<f64> = samples.iter().map(us).collect();
    let cold: Vec<f64> = samples.iter().filter(|s| !s.warm).map(us).collect();
    let warm: Vec<f64> = samples.iter().filter(|s| s.warm).map(us).collect();
    let p50_or_zero = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            percentile(xs, 0.5)
        }
    };
    let busy: f64 = lat.iter().sum::<f64>() / 1e6;
    let calls: usize = protocol.iter().map(|u| u.samples.len()).sum();
    let failed_vectors = protocol
        .iter()
        .flat_map(|u| &u.samples)
        .filter(|s| s.failed)
        .count();
    put(layers, "sim.us_p50", percentile(&lat, 0.5));
    put(layers, "sim.us_p90", percentile(&lat, 0.9));
    put(layers, "sim.cold_us_p50", p50_or_zero(&cold));
    put(layers, "sim.warm_us_p50", p50_or_zero(&warm));
    put(layers, "sim.calls", calls as f64);
    put(
        layers,
        "sim.fail_frac",
        failed_vectors as f64 / calls as f64,
    );
    put(
        layers,
        "sim.newton_iters_per_sim",
        protocol_end.hist_sum("sim.newton_iters") / calls as f64,
    );
    put(
        layers,
        "sim.warmstart_hit",
        protocol_end.counter("sim.warmstart.hit") as f64,
    );
    put(
        layers,
        "sim.warmstart_fallback",
        protocol_end.counter("sim.warmstart.fallback") as f64,
    );
    put(layers, "sim.busy_s", busy / units.len() as f64);
    put(layers, "sim.dc_s", times.self_time("sim.dc."));
    put(layers, "sim.assemble_s", times.self_time("sim.assemble"));
    put(layers, "sim.factor_s", times.self_time("sim.factor"));
    put(layers, "sim.solve_s", times.self_time("sim.solve"));
    put(layers, "circuits.build_us", median(&builds));

    let capacity = attr.sim_wait * JOBS as f64;
    let c = &protocol_end.counters;
    let lookups = c.cache_hits + c.cache_misses;
    put(layers, "exec.pool_util", busy / capacity);
    put(
        layers,
        "exec.dispatch_us",
        (capacity - busy) / samples.len() as f64 * 1e6,
    );
    put(
        layers,
        "exec.cache_hit_frac",
        if lookups == 0 {
            0.0
        } else {
            c.cache_hits as f64 / lookups as f64
        },
    );
    put(layers, "exec.retries", c.retries as f64);
    put(layers, "exec.failures", c.failures as f64);

    put(layers, "ckpt.snapshot_bytes", r.snapshot_bytes as f64);
    put(layers, "ckpt.saves", saves as f64);
    put(layers, "ckpt.save_ms_p50", r.save_ms_p50);
    put(layers, "ckpt.load_ms", r.load_ms);
    put(layers, "obs.journal_bytes", journal_bytes as f64);
    put(layers, "trace.dropped", times.dropped as f64);
    put(layers, "trace.events", times.events as f64);
    put(
        layers,
        "trace.overhead_pct",
        100.0 * (traced.wall.as_secs_f64() / units[0].wall.as_secs_f64() - 1.0),
    );

    report.notes.push(format!(
        "self-time tree of traced unit 0 ({} events, {} dropped):\n{}",
        times.events,
        times.dropped,
        times.render().trim_end()
    ));
    Ok(())
}

/// Optimization outcome and per-circuit latency: printed for the reader,
/// not part of the result line, because they vary with the seed far more
/// than any bound a regression gate could use.
fn quality_notes(workload: Workload, protocol: &[Unit], end: &Snap, report: &mut Report) {
    let calls: usize = protocol.iter().map(|u| u.samples.len()).sum();
    let failed = protocol
        .iter()
        .flat_map(|u| &u.samples)
        .filter(|s| s.failed)
        .count() as u64
        + end.counters.failures;
    report.notes.push(format!(
        "sim_fail_frac = {:.6} frac ({} of {} simulations returned the failure vector or failed)",
        failed as f64 / calls as f64,
        failed,
        calls
    ));
    if workload.is_optimizer() {
        let ttf: Vec<f64> = protocol
            .iter()
            .map(|u| u.feasible_after.unwrap_or(u.wall.as_secs_f64()))
            .collect();
        let censored = protocol
            .iter()
            .filter(|u| u.feasible_after.is_none())
            .count();
        report.notes.push(format!(
            "time_to_feasible_s = {:.4} s (median of {} runs; {censored} never feasible, counted at full wall time)",
            median(&ttf),
            ttf.len()
        ));
        let logs: Vec<f64> = protocol.iter().map(|u| u.best_foms[0].log10()).collect();
        report.notes.push(format!(
            "log10_best_fom = {:.6} (mean over runs: {})",
            logs.iter().sum::<f64>() / logs.len() as f64,
            logs.iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    } else {
        let circuits = ["ota", "tia", "ldo"];
        let best: Vec<f64> = (0..circuits.len())
            .map(|c| {
                protocol
                    .iter()
                    .map(|u| u.best_foms[c])
                    .fold(f64::INFINITY, f64::min)
                    .log10()
            })
            .collect();
        report.notes.push(format!(
            "log10_best_fom = {:.6} (mean over circuits)",
            best.iter().sum::<f64>() / best.len() as f64
        ));
        for (c, name) in circuits.iter().enumerate() {
            let lat: Vec<f64> = protocol
                .iter()
                .flat_map(|u| &u.samples)
                .filter(|s| s.circuit == c)
                .map(|s| s.dur.as_secs_f64() * 1e6)
                .collect();
            report.notes.push(format!(
                "sim.{name}_us_p50 = {:.2} us, sim.{name}_us_p99 = {:.2} us ({} simulations)",
                percentile(&lat, 0.5),
                percentile(&lat, 0.99),
                lat.len()
            ));
        }
    }
}

/// The committed digests of `workload`'s protocol units at `seed`, if
/// any were committed for that seed.
fn expected_digests(workload: Workload, seed: u64) -> Option<Vec<u64>> {
    let mut found: Vec<(usize, u64)> = EXPECTED_DIGESTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [s, w, u, d] = f[..] else { return None };
            (s.parse() == Ok(seed) && w == workload.name()).then_some((
                u.parse().ok()?,
                u64::from_str_radix(d.trim_start_matches("0x"), 16).ok()?,
            ))
        })
        .collect();
    found.sort_unstable();
    (!found.is_empty()).then(|| found.into_iter().map(|(_, d)| d).collect())
}

fn hex_list(ds: &[u64]) -> String {
    ds.iter()
        .map(|d| format!("{d:#018x}"))
        .collect::<Vec<_>>()
        .join(" ")
}
