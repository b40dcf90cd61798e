//! Team invariance: a run driven from a thread that is not a pool worker
//! trains its critic (and, for DNN-Opt, its single actor lane) as a
//! two-thread team with one idle worker of its engine, splitting every
//! layer product and Adam update in two. The split leaves every element's
//! reduction on one thread in the serial order, so the journal must match
//! the serial engine's bit for bit on every record but `run_end` (wall
//! times) and the manifest's worker count.
//!
//! `jobs_invariance.rs` runs its repetitions on run-pool workers, where no
//! team forms; here the repetitions run inline on the test thread, so the
//! team does.

use maopt_core::problems::ConstrainedToy;
use maopt_core::runner::{make_initial_sets_with, run_method_resumable};
use maopt_core::MaOptConfig;
use maopt_exec::EvalEngine;
use maopt_obs::{read_journal, Journal, Record};

const RUNS: usize = 2;
const BUDGET: usize = 10;
const INIT_SIZE: usize = 20;
const SEED: u64 = 91;

/// Small but split-sized: batches of 32 rows and a 40×40 hidden layer,
/// large enough for `Adam::step` to split too.
fn small(cfg: MaOptConfig) -> MaOptConfig {
    MaOptConfig {
        hidden: vec![40, 40],
        critic_steps: 12,
        actor_steps: 6,
        n_samples: 100,
        t_ns: 3,
        ..cfg
    }
}

/// Journal lines of every run of `config` on `engine`, with the
/// scheduling-dependent fields dropped.
fn journal_lines(config: &MaOptConfig, engine: &EvalEngine, tag: &str) -> Vec<Vec<String>> {
    let problem = ConstrainedToy::new(2);
    let inits = make_initial_sets_with(&problem, RUNS, INIT_SIZE, SEED, &EvalEngine::serial());
    if let Some(pool) = engine.pool() {
        // Let the workers park, so the first training call finds one idle.
        while pool.idle_workers() < pool.workers() {
            std::thread::yield_now();
        }
    }
    let dir = std::env::temp_dir().join(format!(
        "maopt-team-{}-{}-{tag}",
        std::process::id(),
        config.label
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let journals: Vec<Journal> = (0..RUNS)
        .map(|r| Journal::create(dir.join(format!("run{r}.jsonl"))).unwrap())
        .collect();
    run_method_resumable(
        config,
        &problem,
        &inits,
        RUNS,
        BUDGET,
        SEED + 7,
        &EvalEngine::serial(),
        engine,
        &journals,
        &[],
    );
    drop(journals);
    let lines = (0..RUNS)
        .map(|r| {
            read_journal(dir.join(format!("run{r}.jsonl")))
                .unwrap()
                .into_iter()
                .filter_map(|mut rec| match &mut rec {
                    Record::RunEnd(_) => None,
                    Record::Manifest(m) => {
                        m.jobs = 0;
                        Some(rec.to_json_line())
                    }
                    _ => Some(rec.to_json_line()),
                })
                .collect()
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    lines
}

#[test]
fn team_trained_journals_match_serial_bitwise() {
    for config in [
        small(MaOptConfig::ma_opt(SEED)),
        small(MaOptConfig::dnn_opt(SEED)),
    ] {
        let serial = journal_lines(&config, &EvalEngine::serial(), "serial");
        let team = journal_lines(&config, &EvalEngine::new(2), "team");
        for (r, (s, t)) in serial.iter().zip(&team).enumerate() {
            assert!(s.len() > 3, "{} run {r}: journal has rounds", config.label);
            assert_eq!(
                s, t,
                "{} run {r}: team-trained journal diverges from serial",
                config.label
            );
        }
    }
}
