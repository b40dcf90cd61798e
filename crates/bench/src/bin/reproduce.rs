//! Regenerates every table and figure of the MA-Opt paper's evaluation.
//!
//! ```text
//! reproduce [--circuit ota|tia|ldo|all] [--quick] [--runs N] [--budget N]
//!           [--init N] [--seed N] [--jobs N] [--run-jobs N] [--tables-only]
//!           [--out DIR] [--journal-dir DIR]
//! ```
//!
//! * Tables I / III / V: printed from the problem definitions.
//! * Tables II / IV / VI: five methods × {success rate, min target,
//!   log10 average FoM, measured and modeled runtime}.
//! * Fig. 5 (a–c): per-method average best-FoM curves, written to
//!   `results/fig5_<circuit>.csv` and rendered as ASCII.
//! * With `--journal-dir DIR`: one structured run journal per run at
//!   `DIR/<circuit>/<method>/run<r>.jsonl` plus a per-method engine
//!   aggregate at `DIR/<circuit>/<method>/engine.jsonl`, for
//!   `maopt-report`. Journaling never changes results: runs are bitwise
//!   identical with the flag on or off.
//! * `--jobs N` parallelizes the simulations inside one run; `--run-jobs M`
//!   additionally fans the independent repetitions over a second pool, so
//!   up to `M x N` simulations are in flight. Both default to 1; results
//!   and journals (timing fields aside) are identical for any setting.
//! * `--checkpoint-dir DIR`: each run atomically persists its full
//!   optimizer state to `DIR/<circuit>/<method>/run<r>.ckpt` after every
//!   round; with `--resume`, runs continue from an existing snapshot, so
//!   a killed invocation rerun with the same arguments produces journals
//!   byte-identical (non-timing fields) to an uninterrupted one.
//!   With a checkpoint directory set, SIGTERM / SIGINT drain gracefully:
//!   every in-flight run stops at its next round boundary with its
//!   journal flushed and its checkpoint durable, and the process exits 0
//!   — rerunning with `--resume` continues where the signal landed.
//! * `--chaos-seed N`: deterministic fault injection — a seeded fraction
//!   of simulations panic, return NaN metrics, or stall past the engine
//!   deadline before succeeding on retry. Results stay identical to the
//!   fault-free run; only the engine fault counters change.
//! * `--fail-on-faults`: exit nonzero when any evaluation exhausted its
//!   retry budget (engine `failures` counter), for CI gating.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use maopt_bench::report::{
    ascii_fom_chart, comparison_table, param_table, write_fom_curves_csv, TableRow,
};
use maopt_bench::runtime_model::RuntimeModel;
use maopt_bench::{paper_methods, Protocol};
use maopt_circuits::{LdoRegulator, ThreeStageTia, TwoStageOta};
use maopt_core::chaos::{ChaosConfig, ChaoticProblem};
use maopt_core::runner::{make_initial_sets_nested, run_method_resumable, MethodStats};
use maopt_core::{RunCheckpointer, SizingProblem};
use maopt_exec::{
    EvalEngine, FaultPolicy, MetricSnapshot, SimCache, SpanStat, Telemetry, TraceRecorder,
};
use maopt_obs::{EngineRecord, Journal, Record};
use maopt_serve::{install_signal_flag, signal_flag};

struct Args {
    circuit: String,
    protocol: Protocol,
    jobs: usize,
    run_jobs: usize,
    tables_only: bool,
    out: PathBuf,
    journal_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    chaos_seed: Option<u64>,
    fail_on_faults: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        circuit: "all".into(),
        protocol: Protocol::paper(),
        jobs: 1,
        run_jobs: 1,
        tables_only: false,
        out: PathBuf::from("results"),
        journal_dir: None,
        trace_dir: None,
        checkpoint_dir: None,
        resume: false,
        chaos_seed: None,
        fail_on_faults: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--circuit" => args.circuit = it.next().expect("--circuit needs a value"),
            "--quick" => args.protocol = Protocol::quick(),
            "--runs" => {
                args.protocol.runs = it
                    .next()
                    .expect("--runs needs a value")
                    .parse()
                    .expect("runs")
            }
            "--budget" => {
                args.protocol.budget = it
                    .next()
                    .expect("--budget needs a value")
                    .parse()
                    .expect("budget")
            }
            "--init" => {
                args.protocol.init_size = it
                    .next()
                    .expect("--init needs a value")
                    .parse()
                    .expect("init")
            }
            "--seed" => {
                args.protocol.seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed")
            }
            "--jobs" => {
                args.jobs = it
                    .next()
                    .expect("--jobs needs a value")
                    .parse()
                    .expect("jobs")
            }
            "--run-jobs" => {
                args.run_jobs = it
                    .next()
                    .expect("--run-jobs needs a value")
                    .parse()
                    .expect("run-jobs")
            }
            "--tables-only" => args.tables_only = true,
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a value")),
            "--journal-dir" => {
                args.journal_dir = Some(PathBuf::from(
                    it.next().expect("--journal-dir needs a value"),
                ))
            }
            "--trace-dir" => {
                args.trace_dir = Some(PathBuf::from(it.next().expect("--trace-dir needs a value")))
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(PathBuf::from(
                    it.next().expect("--checkpoint-dir needs a value"),
                ))
            }
            "--resume" => args.resume = true,
            "--chaos-seed" => {
                args.chaos_seed = Some(
                    it.next()
                        .expect("--chaos-seed needs a value")
                        .parse()
                        .expect("chaos-seed"),
                )
            }
            "--fail-on-faults" => args.fail_on_faults = true,
            "--help" | "-h" => {
                println!(
                    "usage: reproduce [--circuit ota|tia|ldo|all] [--quick] [--runs N] \
                     [--budget N] [--init N] [--seed N] [--jobs N] [--run-jobs N] \
                     [--tables-only] [--out DIR] [--journal-dir DIR] [--trace-dir DIR] \
                     [--checkpoint-dir DIR] [--resume] [--chaos-seed N] [--fail-on-faults]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Target-metric display scaling per circuit (paper reports mW / mA).
fn target_scale(circuit: &str) -> (f64, &'static str) {
    match circuit {
        "ldo" => (1e3, "min Q.C. (mA)"),
        _ => (1e3, "min power (mW)"),
    }
}

/// Engine fault policy for chaos runs: enough retries to outlast the
/// injector's per-design fault budget, and a deadline comfortably above a
/// real (debug-build) circuit simulation yet below [`CHAOS_STALL`] so only
/// injected stalls register as timeouts.
fn chaos_policy() -> FaultPolicy {
    FaultPolicy {
        max_retries: 2,
        deadline: Some(Duration::from_millis(250)),
    }
}

/// How long an injected stall sleeps; must exceed the [`chaos_policy`]
/// deadline.
const CHAOS_STALL: Duration = Duration::from_millis(500);

/// Runs one circuit's full comparison; returns the number of evaluations
/// that exhausted their retry budget (for `--fail-on-faults`).
fn run_circuit(
    key: &str,
    table_no: &str,
    fig_panel: &str,
    problem: &dyn SizingProblem,
    args: &Args,
) -> u64 {
    let p = &args.protocol;
    println!(
        "\n==== {} — Table {} / Fig. 5{} ====",
        problem.name(),
        table_no,
        fig_panel
    );
    println!("{}", param_table(problem));
    if args.tables_only {
        return 0;
    }

    println!(
        "protocol: {} runs x ({} init + {} optimization sims), seed {}, {} run-jobs x {} jobs",
        p.runs, p.init_size, p.budget, p.seed, args.run_jobs, args.jobs
    );
    // One engine per circuit carries the worker pool and the telemetry
    // sink whose counter deltas land in each method's stats. Each method
    // gets its own simulation cache below: deterministic methods replay
    // identical design points, so a circuit-wide cache would let later
    // methods ride on earlier ones and skew the measured-runtime column.
    // A second, separate pool fans the independent repetitions out when
    // --run-jobs asks for it (two distinct pools nest without deadlock).
    // With --trace-dir, a flight recorder rides on the circuit engine's
    // telemetry: every worker records span/counter events into its own
    // ring buffer, drained to DIR/<circuit>.trace.jsonl after the
    // comparison. Journal bytes are unaffected — timing lives only here.
    let tracer = args.trace_dir.as_ref().map(|_| TraceRecorder::new());
    let mut telemetry = Telemetry::new();
    if let Some(tr) = &tracer {
        telemetry = telemetry.with_tracer(Arc::clone(tr));
    }
    let mut engine = EvalEngine::new(args.jobs).with_telemetry(Arc::new(telemetry));
    if args.chaos_seed.is_some() {
        engine = engine.with_policy(chaos_policy());
    }
    let engine = engine;
    let run_engine = EvalEngine::new(args.run_jobs);
    let t0 = Instant::now();
    let inits =
        make_initial_sets_nested(problem, p.runs, p.init_size, p.seed, &run_engine, &engine);
    println!("initial sets simulated in {:?}", t0.elapsed());

    let model = RuntimeModel::default();
    let (scale, target_label) = target_scale(key);
    let mut rows = Vec::new();
    let mut all_stats: Vec<MethodStats> = Vec::new();
    for method in paper_methods(p.seed) {
        let method_engine = engine.clone().with_cache(Arc::new(SimCache::new()));
        // With --journal-dir, every run streams its optimizer internals to
        // DIR/<circuit>/<method>/run<r>.jsonl; otherwise the disabled
        // journal makes this exactly the un-observed path.
        let method_dir = args
            .journal_dir
            .as_ref()
            .map(|dir| dir.join(key).join(method.name()));
        let journals: Vec<Journal> = match &method_dir {
            Some(dir) => (0..p.runs)
                .map(|r| {
                    Journal::create(dir.join(format!("run{r}.jsonl"))).unwrap_or_else(|e| {
                        eprintln!("could not create journal in {}: {e}", dir.display());
                        Journal::disabled()
                    })
                })
                .collect(),
            None => Vec::new(),
        };
        // With --checkpoint-dir, run r persists its state after every round
        // to DIR/<circuit>/<method>/run<r>.ckpt; --resume continues each run
        // from an existing snapshot instead of restarting it.
        // With a checkpoint directory, each checkpointer also carries the
        // process signal flag: SIGTERM/SIGINT stop every run at its next
        // round boundary, exactly as a kill between rounds would.
        let stop = signal_flag();
        let ckpts: Vec<RunCheckpointer> = match &args.checkpoint_dir {
            Some(dir) => {
                let method_dir = dir.join(key).join(method.name());
                (0..p.runs)
                    .map(|r| {
                        let c = RunCheckpointer::new(method_dir.join(format!("run{r}.ckpt")))
                            .with_resume(args.resume);
                        match &stop {
                            Some(flag) => c.with_stop_flag(Arc::clone(flag)),
                            None => c,
                        }
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        let spans_before = engine.telemetry().span_stats();
        let newton_before = newton_iters_totals(&engine);
        let t0 = Instant::now();
        let stats = run_method_resumable(
            method.as_ref(),
            problem,
            &inits,
            p.runs,
            p.budget,
            p.seed + 7,
            &run_engine,
            &method_engine,
            &journals,
            &ckpts,
        );
        let elapsed = t0.elapsed();
        // Graceful drain: the signal handler raised the flag, every run
        // stopped at a round boundary with journal flushed + checkpoint
        // durable. Close the journal writers and exit 0 — the partial
        // stats above are not reported.
        if stop.as_ref().is_some_and(|f| f.load(Ordering::SeqCst)) {
            drop(journals);
            let where_ = args
                .checkpoint_dir
                .as_deref()
                .unwrap_or_else(|| Path::new("."));
            println!(
                "\nsignal received: runs checkpointed under {}; rerun with --resume to continue",
                where_.display()
            );
            std::process::exit(0);
        }
        if let Some(dir) = &method_dir {
            write_engine_record(dir, &method.name(), &engine, &spans_before, &stats);
        }
        // Mean Newton iterations per DC solve attributable to this method:
        // the circuit engine's `sim.newton_iters` histogram delta. This is
        // the headline warm-starting metric — OP reuse shows up here long
        // before it moves wall-clock on a debug build.
        let newton_after = newton_iters_totals(&engine);
        let d_solves = newton_after.0 - newton_before.0;
        let newton_mean =
            (d_solves > 0).then(|| (newton_after.1 - newton_before.1) / d_solves as f64);
        let n_actors = match method.name().as_str() {
            "BO" | "DNN-Opt" => 1,
            _ => 3,
        };
        let modeled: f64 = stats
            .results
            .iter()
            .map(|r| model.run_hours(r, n_actors))
            .sum::<f64>()
            / stats.runs.max(1) as f64;
        println!(
            "  {:>8}: success {}  log10(aFoM) {:+.2}  wall {:?}  newton/sim {}  [{}]",
            stats.name,
            stats.success_rate(),
            stats.log10_avg_fom_or_neg_inf(),
            elapsed,
            newton_mean
                .map(|n| format!("{n:.1}"))
                .unwrap_or_else(|| "-".into()),
            stats.exec
        );
        rows.push(TableRow {
            method: stats.name.clone(),
            success: stats.success_rate(),
            min_target: stats.min_target.map(|t| t * scale),
            log10_avg_fom: stats.log10_avg_fom_or_neg_inf(),
            measured_s: elapsed.as_secs_f64(),
            modeled_h: modeled,
            sims: stats.exec.sims,
            cache_hits: stats.exec.cache_hits,
            retries: stats.exec.retries,
            newton_iters: newton_mean,
        });
        all_stats.push(stats);
    }

    println!();
    println!(
        "{}",
        comparison_table(
            &format!("Table {table_no} — {}", problem.name()),
            target_label,
            &rows
        )
    );

    let csv_path = args.out.join(format!("fig5_{key}.csv"));
    match write_fom_curves_csv(&csv_path, &all_stats, p.budget) {
        Ok(()) => println!("Fig. 5{fig_panel} series written to {}", csv_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", csv_path.display()),
    }

    // Machine-readable table for `check_claims` (which indexes the first
    // seven columns; the engine-telemetry columns are appended after).
    let mut table_csv = String::from(
        "method,successes,runs,min_target,log10_avg_fom,measured_s,modeled_h,\
         sims,cache_hits,cache_misses,retries,faults,newton_iters_per_sim\n",
    );
    for (row, stats) in rows.iter().zip(&all_stats) {
        table_csv.push_str(&format!(
            "{},{},{},{},{:.4},{:.2},{:.3},{},{},{},{},{},{}\n",
            row.method,
            stats.successes,
            stats.runs,
            row.min_target
                .map(|t| format!("{t:.5}"))
                .unwrap_or_default(),
            row.log10_avg_fom,
            row.measured_s,
            row.modeled_h,
            stats.exec.sims,
            stats.exec.cache_hits,
            stats.exec.cache_misses,
            stats.exec.retries,
            stats.exec.faults(),
            row.newton_iters
                .map(|n| format!("{n:.2}"))
                .unwrap_or_default()
        ));
    }
    let table_path = args.out.join(format!("table_{key}.csv"));
    if let Err(e) = std::fs::write(&table_path, table_csv) {
        eprintln!("could not write {}: {e}", table_path.display());
    }
    println!("{}", ascii_fom_chart(&all_stats, p.budget, 72, 16));

    println!(
        "engine phase times ({} jobs, summed across workers):",
        engine.jobs()
    );
    for stat in engine.telemetry().span_stats() {
        println!(
            "  {:>24}: {:?} over {} calls",
            stat.name, stat.total, stat.count
        );
    }
    let snap = engine.telemetry().snapshot();
    println!(
        "simulation cache (per-method caches, circuit total): {} hits / {} lookups",
        snap.cache_hits,
        snap.cache_hits + snap.cache_misses
    );
    if args.chaos_seed.is_some() {
        println!(
            "chaos: {} panics, {} non-finite, {} timeouts absorbed; {} evaluations failed",
            snap.panics, snap.non_finite, snap.timeouts, snap.failures
        );
    }
    if let (Some(dir), Some(tr)) = (&args.trace_dir, &tracer) {
        let path = dir.join(format!("{key}.trace.jsonl"));
        let write = std::fs::create_dir_all(dir)
            .map_err(|e| e.to_string())
            .and_then(|()| tr.write_jsonl(&path).map_err(|e| e.to_string()));
        match write {
            Ok(()) => println!(
                "flight-recorder trace written to {} (render with `maopt-report trace`)",
                path.display()
            ),
            Err(e) => eprintln!("could not write trace {}: {e}", path.display()),
        }
    }
    all_stats.iter().map(|s| s.exec.failures).sum()
}

/// The engine's cumulative `sim.newton_iters` histogram as `(count, sum)`
/// — per-method means come from before/after deltas.
fn newton_iters_totals(engine: &EvalEngine) -> (u64, f64) {
    engine
        .telemetry()
        .metrics
        .snapshot()
        .iter()
        .find_map(|m| match m {
            MetricSnapshot::Histogram(h) if h.name == "sim.newton_iters" => Some((h.count, h.sum)),
            _ => None,
        })
        .unwrap_or((0, 0.0))
}

/// Writes the per-method engine aggregate — span deltas attributable to
/// this method, its engine counters and the metrics-registry dump — to
/// `dir/engine.jsonl` for `maopt-report`.
fn write_engine_record(
    dir: &Path,
    method: &str,
    engine: &EvalEngine,
    spans_before: &[SpanStat],
    stats: &MethodStats,
) {
    let before: std::collections::BTreeMap<&str, Duration> = spans_before
        .iter()
        .map(|s| (s.name.as_str(), s.total))
        .collect();
    let spans: Vec<(String, f64)> = engine
        .telemetry()
        .span_stats()
        .into_iter()
        .filter_map(|s| {
            let delta = s
                .total
                .saturating_sub(before.get(s.name.as_str()).copied().unwrap_or_default());
            (delta > Duration::ZERO).then_some((s.name, delta.as_secs_f64()))
        })
        .collect();
    match Journal::create(dir.join("engine.jsonl")) {
        Ok(journal) => journal.write(&Record::Engine(EngineRecord {
            label: method.to_string(),
            spans,
            counters: stats.exec,
            metrics: engine.telemetry().metrics.snapshot(),
        })),
        Err(e) => eprintln!("could not write engine journal in {}: {e}", dir.display()),
    }
}

/// Runs one circuit, wrapped in the fault injector when `--chaos-seed` is
/// set; returns the circuit's retry-budget-exhausted evaluation count.
fn dispatch<P: SizingProblem>(
    key: &str,
    table_no: &str,
    fig_panel: &str,
    problem: P,
    args: &Args,
) -> u64 {
    match args.chaos_seed {
        Some(seed) => {
            let chaotic = ChaoticProblem::new(
                problem,
                ChaosConfig {
                    seed,
                    stall: CHAOS_STALL,
                    ..ChaosConfig::default()
                },
            );
            let failures = run_circuit(key, table_no, fig_panel, &chaotic, args);
            let stats = chaotic.stats();
            println!(
                "chaos schedule (seed {seed}): {} panics, {} non-finite, {} stalls injected",
                stats.panics, stats.non_finite, stats.stalls
            );
            failures
        }
        None => run_circuit(key, table_no, fig_panel, &problem, args),
    }
}

fn main() {
    let args = parse_args();
    // Checkpointing runs can afford a graceful drain: SIGTERM/SIGINT
    // become "stop at the next round boundary, flush, exit 0" instead of
    // the default mid-write kill.
    if args.checkpoint_dir.is_some() {
        let _ = install_signal_flag();
    }
    let t0 = Instant::now();
    let mut failures = 0u64;
    if matches!(args.circuit.as_str(), "ota" | "all") {
        failures += dispatch("ota", "II", "(a)", TwoStageOta::new(), &args);
    }
    if matches!(args.circuit.as_str(), "tia" | "all") {
        failures += dispatch("tia", "IV", "(b)", ThreeStageTia::new(), &args);
    }
    if matches!(args.circuit.as_str(), "ldo" | "all") {
        failures += dispatch("ldo", "VI", "(c)", LdoRegulator::new(), &args);
    }
    println!("\ntotal reproduction time: {:?}", t0.elapsed());
    if args.fail_on_faults && failures > 0 {
        eprintln!("{failures} evaluations exhausted their retry budget (--fail-on-faults)");
        std::process::exit(1);
    }
}
