//! End-to-end observability tests: a real (tiny) optimization run must
//! produce a schema-valid journal, and journaling must not perturb the
//! optimization itself.

use std::sync::Arc;

use maopt_core::problems::ConstrainedToy;
use maopt_core::runner::{make_initial_sets, run_method, run_method_resumable, sample_initial_set};
use maopt_core::{MaOpt, MaOptConfig};
use maopt_exec::{EvalEngine, Telemetry, TraceRecorder};
use maopt_obs::{read_journal, Journal, Record};

fn tiny(cfg: MaOptConfig) -> MaOptConfig {
    MaOptConfig {
        hidden: vec![16, 16],
        critic_steps: 15,
        actor_steps: 8,
        n_samples: 100,
        t_ns: 2,
        ..cfg
    }
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("maopt-journal-{}-{name}", std::process::id()))
}

#[test]
fn journaled_run_is_bitwise_identical_to_plain_run() {
    let problem = ConstrainedToy::new(3);
    let init = sample_initial_set(&problem, 25, 31);
    let opt = MaOpt::new(tiny(MaOptConfig::ma_opt(31)));
    let engine = EvalEngine::serial();

    let path = tmp_dir("identity.jsonl");
    let journal = Journal::create(&path).unwrap();
    let observed = opt.run_resumable(&problem, init.clone(), 20, &engine, &journal, None);
    drop(journal);
    let plain = opt.run_resumable(&problem, init, 20, &engine, &Journal::disabled(), None);

    assert_eq!(
        observed.trace.best_fom_series(20),
        plain.trace.best_fom_series(20),
        "journaling must not change the optimization trajectory"
    );
    assert_eq!(observed.best_fom(), plain.best_fom());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_from_real_run_is_schema_valid_and_complete() {
    let problem = ConstrainedToy::new(3);
    let init = sample_initial_set(&problem, 25, 32);
    let opt = MaOpt::new(tiny(MaOptConfig::ma_opt(32)));
    let engine = EvalEngine::serial();

    let path = tmp_dir("complete.jsonl");
    let journal = Journal::create(&path).unwrap();
    let result = opt.run_resumable(&problem, init, 24, &engine, &journal, None);
    drop(journal);

    let records = read_journal(&path).unwrap();
    let Record::Manifest(m) = &records[0] else {
        panic!("first record must be the manifest");
    };
    assert_eq!(m.label, "MA-Opt");
    assert_eq!(m.dim, 3);
    assert_eq!(m.seed, 32);
    assert_eq!(m.budget, 24);
    assert_eq!(m.init_size, 25);
    assert!(m.config.get("n_actors").is_some(), "config in manifest");

    let Record::RunEnd(end) = records.last().unwrap() else {
        panic!("last record must be the run end");
    };
    assert_eq!(end.sims, 24);
    assert_eq!(end.best_fom, result.best_fom());
    assert_eq!(end.success, result.success());
    assert_eq!(end.engine.sims as usize, 24, "engine delta covers the run");

    let mut sims_seen = 0;
    let mut rounds = 0;
    let mut ns_rounds = 0;
    for r in &records[1..records.len() - 1] {
        match r {
            Record::Round(r) => {
                rounds += 1;
                sims_seen = r.sims_used;
                assert!(!r.critic_loss.is_empty(), "critic loss trajectory");
                assert!(!r.actors.is_empty());
                assert!(r.elite.size > 0);
                assert!(r.elite.diameter >= 0.0);
            }
            Record::NearSampling(r) => {
                ns_rounds += 1;
                sims_seen = r.sims_used;
                assert_eq!(r.trigger, "period");
                assert_eq!(r.n_candidates, 100);
                assert_eq!(r.accepted, r.simulated_fom < r.incumbent_fom);
                assert!(r.fidelity_n >= 2);
            }
            other => panic!("unexpected mid-run record {:?}", other.kind()),
        }
    }
    assert_eq!(sims_seen, 24, "round records account for the whole budget");
    assert_eq!(rounds + ns_rounds, end.rounds);
    assert!(
        ns_rounds > 0,
        "the toy problem reaches feasibility, so near-sampling rounds must appear"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_method_writes_one_journal_per_run_and_matches_plain() {
    let problem = ConstrainedToy::new(2);
    let inits = make_initial_sets(&problem, 2, 15, 41);
    let opt = tiny(MaOptConfig::ma_opt2(41));
    let engine = EvalEngine::serial();

    let dir = tmp_dir("per-run");
    let journals: Vec<Journal> = (0..2)
        .map(|r| Journal::create(dir.join(format!("run{r}.jsonl"))).unwrap())
        .collect();
    let observed = run_method_resumable(
        &opt,
        &problem,
        &inits,
        2,
        8,
        500,
        &engine,
        &engine,
        &journals,
        &[],
    );
    drop(journals);
    let plain = run_method(&opt, &problem, &inits, 2, 8, 500);

    assert_eq!(observed.fom_curve, plain.fom_curve);
    for r in 0..2 {
        let records = read_journal(dir.join(format!("run{r}.jsonl"))).unwrap();
        assert!(matches!(records[0], Record::Manifest(_)));
        assert!(matches!(records.last(), Some(Record::RunEnd(_))));
        let Record::Manifest(m) = &records[0] else {
            unreachable!()
        };
        assert_eq!(m.seed, 500 + r as u64, "run r gets seed base + r");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journal lines with the `run_end` timing fields (explicitly outside the
/// byte-identity contract) zeroed; every other line is kept verbatim.
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

#[test]
fn traced_run_journals_are_byte_identical_to_untraced() {
    // The flight recorder must stay entirely outside the journal
    // contract: attaching a tracer to the engine changes not a single
    // non-timing journal byte, even with pool workers recording spans.
    let problem = ConstrainedToy::new(2);
    let inits = make_initial_sets(&problem, 2, 15, 77);
    let opt = tiny(MaOptConfig::ma_opt2(77));

    let run = |tracer: Option<Arc<TraceRecorder>>, tag: &str| -> Vec<Vec<String>> {
        let mut telemetry = Telemetry::new();
        if let Some(tr) = tracer {
            telemetry = telemetry.with_tracer(tr);
        }
        let engine = EvalEngine::new(2).with_telemetry(Arc::new(telemetry));
        let run_engine = EvalEngine::serial();
        let dir = tmp_dir(&format!("traced-{tag}"));
        let journals: Vec<Journal> = (0..2)
            .map(|r| Journal::create(dir.join(format!("run{r}.jsonl"))).unwrap())
            .collect();
        run_method_resumable(
            &opt,
            &problem,
            &inits,
            2,
            8,
            600,
            &run_engine,
            &engine,
            &journals,
            &[],
        );
        drop(journals);
        let lines = (0..2)
            .map(|r| normalized_lines(&dir.join(format!("run{r}.jsonl"))))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        lines
    };

    let tracer = TraceRecorder::new();
    let traced = run(Some(Arc::clone(&tracer)), "on");
    let untraced = run(None, "off");
    assert_eq!(
        traced, untraced,
        "tracing must not perturb journal bytes (non-timing fields)"
    );

    // And the recorder did actually see the run: spans from the method
    // phases and per-simulation spans from the workers.
    let snapshot = tracer.snapshot();
    let names: Vec<&str> = snapshot
        .threads
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.name.as_str()))
        .collect();
    assert!(
        names.contains(&"sim"),
        "worker simulation spans recorded: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("method:")),
        "method phase span recorded: {names:?}"
    );
}
