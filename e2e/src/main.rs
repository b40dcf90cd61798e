//! End-to-end benchmark of the MA-Opt reproduction.
//!
//! ```text
//! e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! e2e compare --base BIN --head BIN [--pairs N] [--workload NAME|all] [--seed N] [--seconds S]
//! ```
//!
//! A run sets its workload up five times (the median is `setup_s`),
//! runs the workload's protocol once and repeats it while the next unit
//! fits in `--seconds`, checks the outputs, and prints every metric by
//! name with its unit. The last line is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`, which adds a
//! traced repeat of unit 0 and the layer replays. The exit code is 1
//! when an output check fails. See `README.md` beside this crate.

mod bench;
mod compare;
mod metrics;
mod replay;
mod stats;
mod timed;
mod tree;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use maopt_obs::json::Json;

use crate::bench::{Options, Report};
use crate::workload::{Protocol, Workload};

const USAGE: &str =
    "usage: e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       \
e2e compare --base BIN --head BIN [--pairs N] [--workload NAME|all] [--seed N] [--seconds S]\n\
workloads: ota-maopt, ota-dnnopt, sim-sweep";

/// Scratch space for the durable run and checkpoint replays, inside
/// the directory the benchmark runs from.
const WORK_DIR: &str = ".e2e_work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_main(&args[1..]),
        _ => run_main(&args),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("e2e: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Command-line flags shared by both modes.
struct Flags {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    base: Option<PathBuf>,
    head: Option<PathBuf>,
    pairs: usize,
}

fn parse(args: &[String], compare: bool) -> Result<Flags, String> {
    let mut f = Flags {
        workloads: Workload::ALL.to_vec(),
        seed: 42,
        seconds: default_seconds(),
        trace: false,
        out: None,
        base: None,
        head: None,
        pairs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match (flag.as_str(), compare) {
            ("--workload", _) => {
                let v = value()?;
                f.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name).ok_or(format!("unknown workload {name}"))?],
                };
            }
            ("--seed", _) => f.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            ("--seconds", _) => {
                f.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(f.seconds >= 0.0 && f.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            ("--trace", false) => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            ("--out", false) => f.out = Some(PathBuf::from(value()?)),
            ("--base", true) => f.base = Some(PathBuf::from(value()?)),
            ("--head", true) => f.head = Some(PathBuf::from(value()?)),
            ("--pairs", true) => {
                f.pairs = value()?.parse().map_err(|e| format!("--pairs: {e}"))?;
                if f.pairs == 0 {
                    return Err("--pairs must be at least 1".into());
                }
            }
            ("--help" | "-h", _) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            (other, _) => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(f)
}

/// `run_seconds` from `BENCHMARK.json`.
fn default_seconds() -> f64 {
    Json::parse(metrics::BENCHMARK_JSON)
        .ok()
        .and_then(|j| j.get("run_seconds").and_then(Json::as_f64))
        .expect("BENCHMARK.json declares run_seconds")
}

fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse(args, false)?;
    let work = PathBuf::from(WORK_DIR).join(std::process::id().to_string());
    let opts = Options {
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        protocol: Protocol::PAPER,
        work: work.clone(),
    };
    let mut lines = Vec::new();
    let mut all_correct = true;
    for &w in &flags.workloads {
        let report = bench::run(w, &opts);
        let line = print(&report, flags.trace);
        all_correct &= report.correct();
        lines.push(line);
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    if let Some(out) = &flags.out {
        std::fs::write(out, lines.join("\n") + "\n")
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Prints a report (the JSON result line last) and returns that line.
fn print(report: &Report, trace: bool) -> String {
    println!("== {} ==", report.workload.name());
    for (d, v) in report.e2e.iter().chain(&report.layers) {
        println!("{:<36} {v:>16.6} {}", d.name, d.unit);
    }
    for note in &report.notes {
        println!("{note}");
    }
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    let metrics = if trace { &report.layers } else { &report.e2e };
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    if !finite {
        println!("CHECK FAILED: a metric is not a finite number");
    }
    let line = metrics::result_line(
        report.correct() && finite,
        report.attempted.max(1),
        report.failed,
        metrics,
    );
    println!("{line}");
    line
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse(args, true)?;
    let cmp = compare::Args {
        base: flags.base.ok_or("compare needs --base BIN")?,
        head: flags.head.ok_or("compare needs --head BIN")?,
        pairs: flags.pairs,
        workloads: flags.workloads,
        seed: flags.seed,
        seconds: flags.seconds,
    };
    Ok(if compare::run(&cmp)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// A tiny protocol through the same code path as the benchmark.
    const SMOKE: Protocol = Protocol {
        init: 10,
        budget: 6,
        maopt_runs: 2,
        dnnopt_runs: 1,
        sweep_slices: 2,
        sweep_designs: 8,
    };

    fn smoke(w: Workload) {
        let opts = Options {
            seed: 7,
            seconds: 0.0,
            trace: true,
            protocol: SMOKE,
            work: PathBuf::from(WORK_DIR).join(format!("test-{}-{}", w.name(), std::process::id())),
        };
        let report = bench::run(w, &opts);
        assert!(report.correct(), "{}: {:?}", w.name(), report.errors);
        let names = |defs: &[metrics::Def]| defs.iter().map(|d| d.name).collect::<Vec<_>>();
        let e2e: Vec<_> = report.e2e.iter().map(|(d, _)| d.name).collect();
        let layers: Vec<_> = report.layers.iter().map(|(d, _)| d.name).collect();
        let sorted = |mut v: Vec<&'static str>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(e2e), sorted(names(&END_TO_END)));
        assert_eq!(sorted(layers), sorted(names(&PER_LAYER)));
        assert!(report.e2e.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
        assert!(report.layers.iter().all(|(_, v)| v.is_finite()));
        assert!(
            !opts.work.join(w.name()).exists(),
            "scratch directory left behind"
        );
        // Only succeeds once empty; sibling tests may still be using it.
        let _ = std::fs::remove_dir(&opts.work);
        let _ = std::fs::remove_dir(WORK_DIR);
    }

    #[test]
    fn smoke_ota_maopt() {
        smoke(Workload::OtaMaopt);
    }

    #[test]
    fn smoke_ota_dnnopt() {
        smoke(Workload::OtaDnnopt);
    }

    #[test]
    fn smoke_sim_sweep() {
        smoke(Workload::SimSweep);
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let f = parse(
            &args("--workload sim-sweep --seed 3 --seconds 1.5 --trace 1"),
            false,
        )
        .expect("valid flags");
        assert_eq!(f.workloads, vec![Workload::SimSweep]);
        assert_eq!((f.seed, f.seconds, f.trace), (3, 1.5, true));
        assert!(parse(&args("--workload nope"), false).is_err());
        assert!(parse(&args("--trace 2"), false).is_err());
        assert!(parse(&args("--base x"), false).is_err());
        assert!(parse(&args("--out x"), true).is_err());
    }
}
