//! Crash/resume integration: a run interrupted after round `K` and resumed
//! from its checkpoint must produce a journal byte-identical (non-timing
//! fields) to an uninterrupted run — with and without fault injection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use maopt_core::chaos::{ChaosConfig, ChaoticProblem};
use maopt_core::problems::{ConstrainedToy, Sphere};
use maopt_core::runner::sample_initial_set;
use maopt_core::{MaOpt, MaOptConfig, RunCheckpointer, RunResult, SizingProblem};
use maopt_exec::{EvalEngine, FaultPolicy, SimCache};
use maopt_obs::{Journal, Record};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "maopt-crash-resume-{}-{}-{}",
        tag,
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small(cfg: MaOptConfig) -> MaOptConfig {
    MaOptConfig {
        hidden: vec![24, 24],
        critic_steps: 20,
        actor_steps: 10,
        n_samples: 100,
        ..cfg
    }
}

/// Journal lines with run-end timing fields (the only fields outside the
/// byte-identity contract) zeroed through a parse → normalize → re-serialize
/// round trip. Every other line is kept verbatim.
fn normalized_lines(path: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|line| match Record::parse(line) {
            Ok(Record::RunEnd(mut end)) => {
                end.total_s = 0.0;
                end.training_s = 0.0;
                end.simulation_s = 0.0;
                end.near_sampling_s = 0.0;
                Record::RunEnd(end).to_json_line()
            }
            _ => line.to_string(),
        })
        .collect()
}

fn run_end(path: &std::path::Path) -> maopt_obs::RunEnd {
    let records = maopt_obs::read_journal(path).unwrap();
    match records.last() {
        Some(Record::RunEnd(end)) => end.clone(),
        other => panic!("journal must end with a run_end record, got {other:?}"),
    }
}

/// Reference run, interrupted run (in-process halt right after the round-`k`
/// checkpoint — the state a SIGKILL between rounds leaves behind), and the
/// resumed continuation, all on fresh engines built by `mk_engine`.
fn reference_and_resumed(
    dir: &std::path::Path,
    cfg: &MaOptConfig,
    problems: [&dyn SizingProblem; 3],
    init: Vec<(Vec<f64>, Vec<f64>)>,
    budget: usize,
    k: usize,
    mk_engine: &dyn Fn() -> EvalEngine,
) -> (RunResult, RunResult) {
    let ref_path = dir.join("reference.jsonl");
    let res_path = dir.join("resumed.jsonl");
    let ckpt_path = dir.join("run.ckpt");

    let journal = Journal::create(&ref_path).unwrap();
    let reference = MaOpt::new(cfg.clone()).run_resumable(
        problems[0],
        init.clone(),
        budget,
        &mk_engine(),
        &journal,
        None,
    );
    drop(journal);

    let ckpt = RunCheckpointer::new(&ckpt_path).with_halt_after_round(k);
    let journal = Journal::create(&res_path).unwrap();
    let halted = MaOpt::new(cfg.clone()).run_resumable(
        problems[1],
        init.clone(),
        budget,
        &mk_engine(),
        &journal,
        Some(&ckpt),
    );
    drop(journal);
    assert!(
        halted.trace.num_sims() < budget,
        "halt at round {k} must interrupt the run mid-flight"
    );
    let store = maopt_ckpt::snapshot_store(&ckpt_path);
    assert!(
        !store.generations().unwrap().is_empty(),
        "halted run must leave a checkpoint generation"
    );

    // "Restart the process": fresh journal (truncating the torn one), fresh
    // engine, fresh problem instance, resume from the snapshot.
    let ckpt = RunCheckpointer::new(&ckpt_path).with_resume(true);
    let journal = Journal::create(&res_path).unwrap();
    let resumed = MaOpt::new(cfg.clone()).run_resumable(
        problems[2],
        init,
        budget,
        &mk_engine(),
        &journal,
        Some(&ckpt),
    );
    drop(journal);

    assert_eq!(
        normalized_lines(&ref_path),
        normalized_lines(&res_path),
        "resumed journal must be byte-identical to the uninterrupted run on non-timing fields"
    );
    (reference, resumed)
}

#[test]
fn resumed_run_is_byte_identical_to_uninterrupted() {
    let dir = tmp_dir("clean");
    let problem = ConstrainedToy::new(3);
    let cfg = small(MaOptConfig::ma_opt(9));
    let init = sample_initial_set(&problem, 30, 9);
    let (reference, resumed) = reference_and_resumed(
        &dir,
        &cfg,
        [&problem, &problem, &problem],
        init,
        40,
        4,
        &EvalEngine::serial,
    );
    assert_eq!(reference.best_fom(), resumed.best_fom());
    assert_eq!(
        reference.trace.best_fom_series(40),
        resumed.trace.best_fom_series(40)
    );
    assert_eq!(reference.population.len(), resumed.population.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_newest_generation_rolls_back_and_stays_byte_identical() {
    // Corrupt the newest snapshot generation after a mid-run kill: resume
    // must fall back to the previous good generation (one round earlier),
    // count the rollback, and still converge on a journal byte-identical
    // to the uninterrupted run — an earlier round is just an earlier
    // point on the same deterministic trajectory.
    let dir = tmp_dir("torn");
    let problem = ConstrainedToy::new(3);
    let cfg = small(MaOptConfig::ma_opt(9));
    let init = sample_initial_set(&problem, 30, 9);
    let budget = 40;
    let ckpt_path = dir.join("run.ckpt");

    let ref_path = dir.join("reference.jsonl");
    let journal = Journal::create(&ref_path).unwrap();
    let reference = MaOpt::new(cfg.clone()).run_resumable(
        &problem,
        init.clone(),
        budget,
        &EvalEngine::serial(),
        &journal,
        None,
    );
    drop(journal);

    let res_path = dir.join("resumed.jsonl");
    let ckpt = RunCheckpointer::new(&ckpt_path).with_halt_after_round(4);
    let journal = Journal::create(&res_path).unwrap();
    MaOpt::new(cfg.clone()).run_resumable(
        &problem,
        init.clone(),
        budget,
        &EvalEngine::serial(),
        &journal,
        Some(&ckpt),
    );
    drop(journal);

    // Tear the newest generation mid-payload, as an interrupted write on
    // less well-behaved storage would.
    let store = maopt_ckpt::snapshot_store(&ckpt_path);
    let gens = store.generations().unwrap();
    assert!(gens.len() >= 2, "need an older generation to roll back to");
    let (_, newest) = gens.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

    let ckpt = RunCheckpointer::new(&ckpt_path).with_resume(true);
    let journal = Journal::create(&res_path).unwrap();
    let resumed = MaOpt::new(cfg).run_resumable(
        &problem,
        init,
        budget,
        &EvalEngine::serial(),
        &journal,
        Some(&ckpt),
    );
    drop(journal);

    assert_eq!(ckpt.rollbacks(), 1, "the torn generation must be counted");
    assert_eq!(
        normalized_lines(&ref_path),
        normalized_lines(&res_path),
        "rollback resume must stay byte-identical on non-timing fields"
    );
    assert_eq!(reference.best_fom(), resumed.best_fom());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_completion_rewrites_an_identical_run_end() {
    // The final checkpoint is written before the run-end record, so
    // resuming a run that actually finished must skip the loop and emit a
    // run-end identical (non-timing fields) to the original.
    let dir = tmp_dir("done");
    let problem = Sphere::new(3);
    let cfg = small(MaOptConfig::ma_opt2(5));
    let init = sample_initial_set(&problem, 10, 5);
    let budget = 9;

    let ref_path = dir.join("reference.jsonl");
    let journal = Journal::create(&ref_path).unwrap();
    let ckpt = RunCheckpointer::new(dir.join("run.ckpt"));
    MaOpt::new(cfg.clone()).run_resumable(
        &problem,
        init.clone(),
        budget,
        &EvalEngine::serial(),
        &journal,
        Some(&ckpt),
    );
    drop(journal);

    let res_path = dir.join("resumed.jsonl");
    let ckpt = RunCheckpointer::new(dir.join("run.ckpt")).with_resume(true);
    let journal = Journal::create(&res_path).unwrap();
    MaOpt::new(cfg).run_resumable(
        &problem,
        init,
        budget,
        &EvalEngine::serial(),
        &journal,
        Some(&ckpt),
    );
    drop(journal);

    assert_eq!(normalized_lines(&ref_path), normalized_lines(&res_path));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_run_is_byte_identical_under_fault_injection() {
    let dir = tmp_dir("chaos");
    let chaos_cfg = ChaosConfig {
        seed: 77,
        panic_rate: 0.15,
        non_finite_rate: 0.15,
        stall_rate: 0.1,
        stall: Duration::from_millis(20),
        faults_per_design: 1,
    };
    // Each run gets its own problem instance: the resumed one starts with
    // empty attempt state, like a restarted process. The restored SimCache
    // keeps already-simulated designs from re-entering the injector, which
    // is what makes the fault counters line up.
    let p_ref = ChaoticProblem::new(Sphere::new(3), chaos_cfg);
    let p_halt = ChaoticProblem::new(Sphere::new(3), chaos_cfg);
    let p_res = ChaoticProblem::new(Sphere::new(3), chaos_cfg);
    let cfg = small(MaOptConfig::ma_opt2(21));
    let init = sample_initial_set(p_ref.inner(), 12, 21);
    let mk_engine = || {
        EvalEngine::new(2)
            .with_cache(Arc::new(SimCache::new()))
            .with_policy(FaultPolicy {
                max_retries: 2,
                deadline: Some(Duration::from_millis(10)),
            })
    };
    let (reference, resumed) = reference_and_resumed(
        &dir,
        &cfg,
        [&p_ref, &p_halt, &p_res],
        init,
        18,
        3,
        &mk_engine,
    );
    assert_eq!(reference.best_fom(), resumed.best_fom());

    // The journals agree on the engine counters; sanity-check that chaos
    // actually injected something and nothing exhausted its retry budget.
    let end = run_end(&dir.join("reference.jsonl"));
    let ref_stats = p_ref.stats();
    assert!(ref_stats.total() > 0, "chaos must have injected faults");
    assert_eq!(end.engine.panics, ref_stats.panics);
    assert_eq!(end.engine.non_finite, ref_stats.non_finite);
    assert_eq!(end.engine.timeouts, ref_stats.stalls);
    assert_eq!(end.engine.retries, ref_stats.total());
    assert_eq!(end.engine.failures, 0, "faults_per_design is within budget");

    // The split runs inject the same schedule between them.
    let split = p_halt.stats().total() + p_res.stats().total();
    assert_eq!(split, ref_stats.total());
    std::fs::remove_dir_all(&dir).ok();
}
