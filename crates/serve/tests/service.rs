//! In-process integration tests for the daemon: submit/status/list,
//! admission control, per-tenant quotas, cancel, live journal
//! streaming, and graceful drain + restart over one state directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use maopt_exec::EvalEngine;
use maopt_obs::json::Json;
use maopt_serve::{Client, ClientError, JobSpec, QueueLimits, ServeConfig, Server};

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("maopt-serve-it-{}-{name}", std::process::id()))
}

fn spec(tenant: &str, seed: u64, budget: usize) -> JobSpec {
    JobSpec {
        tenant: tenant.into(),
        problem: "sphere:2".into(),
        method: "ma-opt2".into(),
        budget,
        init_size: 6,
        seed,
        quick: true,
    }
}

struct Daemon {
    addr: String,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(state_dir: &Path, slots: usize, limits: QueueLimits) -> Daemon {
    start_on(state_dir, slots, limits, EvalEngine::new(2))
}

fn start_on(state_dir: &Path, slots: usize, limits: QueueLimits, engine: EvalEngine) -> Daemon {
    let stop = Arc::new(AtomicBool::new(false));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.to_path_buf(),
        slots,
        limits,
        poll_ms: 5,
        stall_budget_ms: None,
    };
    let server = Server::bind(cfg, engine, Arc::clone(&stop)).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, stop, handle }
}

fn wait_status(client: &mut Client, id: &str, want: &str, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let job = client.status(id).expect("status");
        let status = job.get("status").and_then(Json::as_str).unwrap_or("?");
        if status == want {
            return job;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {status:?}, wanted {want:?}: {job}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn submit_run_status_list_and_drain() {
    let dir = tmp_dir("basic");
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = start(&dir, 2, QueueLimits::default());
    let mut client = Client::connect(&daemon.addr).expect("connect");

    let a = client.submit(&spec("alice", 7, 8)).expect("submit a");
    let b = client.submit(&spec("bob", 8, 8)).expect("submit b");
    assert_eq!(a, "job-1");
    assert_eq!(b, "job-2");

    let done_a = wait_status(&mut client, &a, "done", Duration::from_secs(60));
    let done_b = wait_status(&mut client, &b, "done", Duration::from_secs(60));
    for (name, job) in [(&a, &done_a), (&b, &done_b)] {
        assert!(
            job.get("best_fom").and_then(Json::as_f64).is_some(),
            "{name} reports a result: {job}"
        );
        assert_eq!(
            job.get("sims").and_then(Json::as_u64),
            Some(8),
            "{name} consumed its budget: {job}"
        );
    }

    let jobs = client.list().expect("list");
    assert_eq!(jobs.len(), 2);

    // Unknown ids and commands are typed refusals, not hangs.
    match client.status("job-99") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, 404),
        other => panic!("expected 404, got {other:?}"),
    }
    match client.request(&Json::obj(vec![("cmd", Json::Str("warp".into()))])) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, 400),
        other => panic!("expected 400, got {other:?}"),
    }
    // A submit that cannot resolve is refused at admission.
    match client.submit(&spec("alice", 1, 8).clone_with_problem("warp:9")) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, 400),
        other => panic!("expected 400, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    daemon
        .handle
        .join()
        .expect("join")
        .expect("drained cleanly");

    // Restart over the same state dir: terminal states survive.
    let daemon2 = start(&dir, 2, QueueLimits::default());
    let mut client2 = Client::connect(&daemon2.addr).expect("reconnect");
    let job = client2.status(&a).expect("status after restart");
    assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
    daemon2
        .stop
        .store(true, std::sync::atomic::Ordering::SeqCst);
    daemon2.handle.join().expect("join").expect("clean");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job journal without its `run_end` line (wall-clock timings) and
/// with the manifest's engine width masked, as CI's journal-smoke diffs.
fn comparable_journal(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("journal file");
    text.lines()
        .filter(|l| !l.contains("\"record\":\"run_end\""))
        .map(|l| {
            let Some(at) = l.find("\"jobs\":") else {
                return l.to_string();
            };
            let value = at + "\"jobs\":".len();
            let digits = l[value..].bytes().take_while(u8::is_ascii_digit).count();
            format!("{}N{}", &l[..value], &l[value + digits..])
        })
        .collect()
}

/// A serial engine (`maopt-serve --jobs 1`) runs each job inline on the
/// scheduler thread: both jobs still finish, and their journals match a
/// pooled daemon's line for line.
#[test]
fn serial_engine_runs_jobs_inline_with_pooled_journals() {
    let mut journals = Vec::new();
    for (name, engine) in [
        ("serial", EvalEngine::serial()),
        ("pooled", EvalEngine::new(2)),
    ] {
        let dir = tmp_dir(&format!("engine-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = start_on(&dir, 2, QueueLimits::default(), engine);
        let mut client = Client::connect(&daemon.addr).expect("connect");
        let ids = [
            client.submit(&spec("alice", 7, 8)).expect("submit a"),
            client.submit(&spec("bob", 8, 8)).expect("submit b"),
        ];
        for id in &ids {
            wait_status(&mut client, id, "done", Duration::from_secs(60));
        }
        client.shutdown().expect("shutdown");
        daemon
            .handle
            .join()
            .expect("join")
            .expect("drained cleanly");
        let lines: Vec<Vec<String>> = ids
            .iter()
            .map(|id| comparable_journal(&dir.join("jobs").join(id).join("journal.jsonl")))
            .collect();
        assert!(
            lines.iter().all(|j| !j.is_empty()),
            "{name} journals written"
        );
        journals.push(lines);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(journals[0], journals[1], "serial == pooled journals");
}

trait SpecExt {
    fn clone_with_problem(&self, problem: &str) -> JobSpec;
}

impl SpecExt for JobSpec {
    fn clone_with_problem(&self, problem: &str) -> JobSpec {
        JobSpec {
            problem: problem.into(),
            ..self.clone()
        }
    }
}

#[test]
fn admission_control_rejects_with_429() {
    let dir = tmp_dir("admission");
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = start(
        &dir,
        1,
        QueueLimits {
            max_pending: 1,
            tenant_quota: 1,
            ..QueueLimits::default()
        },
    );
    let mut client = Client::connect(&daemon.addr).expect("connect");

    // A long job occupies the single slot...
    let running = client.submit(&spec("alice", 1, 400)).expect("submit");
    wait_status(&mut client, &running, "running", Duration::from_secs(30));
    // ...one job may wait...
    let waiting = client.submit(&spec("bob", 2, 8)).expect("pending fits");
    // ...and the next is bounced with the wire equivalent of a 429.
    match client.submit(&spec("carol", 3, 8)) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, 429);
            assert!(e.message.contains("queue full"), "{}", e.message);
        }
        other => panic!("expected 429, got {other:?}"),
    }

    // Cancel the hog; it checkpoints at the next round boundary, the
    // pending job takes the slot, and admission reopens once the queue
    // drains.
    client.cancel(&running).expect("cancel");
    wait_status(&mut client, &running, "canceled", Duration::from_secs(60));
    wait_status(&mut client, &waiting, "done", Duration::from_secs(60));
    client
        .submit(&spec("carol", 3, 8))
        .expect("admission reopens");

    daemon.stop.store(true, std::sync::atomic::Ordering::SeqCst);
    daemon.handle.join().expect("join").expect("clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_quota_caps_concurrency() {
    let dir = tmp_dir("quota");
    let _ = std::fs::remove_dir_all(&dir);
    // Two slots, but each tenant may only occupy one.
    let daemon = start(
        &dir,
        2,
        QueueLimits {
            max_pending: 16,
            tenant_quota: 1,
            ..QueueLimits::default()
        },
    );
    let mut client = Client::connect(&daemon.addr).expect("connect");

    let ids: Vec<String> = (0..3)
        .map(|i| client.submit(&spec("alice", 10 + i, 8)).expect("submit"))
        .collect();
    let bob = client.submit(&spec("bob", 20, 8)).expect("submit");

    for id in ids.iter().chain([&bob]) {
        wait_status(&mut client, id, "done", Duration::from_secs(120));
    }

    let stats = client.stats().expect("stats");
    let tenants = stats
        .get("tenants")
        .and_then(Json::as_arr)
        .expect("tenants");
    let peak = |name: &str| -> u64 {
        tenants
            .iter()
            .find(|t| t.get("tenant").and_then(Json::as_str) == Some(name))
            .and_then(|t| t.get("peak_running").and_then(Json::as_u64))
            .unwrap_or_else(|| panic!("no stats for tenant {name}: {stats}"))
    };
    assert_eq!(peak("alice"), 1, "quota of 1 never exceeded: {stats}");
    assert!(peak("bob") >= 1);
    assert!(
        stats
            .get("peak_running")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            <= 2,
        "slot cap respected: {stats}"
    );

    daemon.stop.store(true, std::sync::atomic::Ordering::SeqCst);
    daemon.handle.join().expect("join").expect("clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subscribe_streams_the_journal_live() {
    let dir = tmp_dir("subscribe");
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = start(&dir, 1, QueueLimits::default());
    let mut client = Client::connect(&daemon.addr).expect("connect");

    let id = client.submit(&spec("alice", 5, 12)).expect("submit");
    // Subscribe immediately, while the job runs: lines arrive live.
    let mut sub = Client::connect(&daemon.addr).expect("subscriber connect");
    let mut streamed = Vec::new();
    let end = sub
        .subscribe(&id, |line| streamed.push(line.to_string()))
        .expect("subscribe");
    assert_eq!(end, "done");

    // The stream must be exactly the journal file, in order.
    let journal = std::fs::read_to_string(dir.join("jobs").join(&id).join("journal.jsonl"))
        .expect("journal file");
    let on_disk: Vec<&str> = journal.lines().collect();
    assert_eq!(streamed, on_disk, "stream == journal");
    assert!(
        streamed.iter().all(|l| Json::parse(l).is_ok()),
        "every streamed line is valid JSON"
    );
    assert!(streamed.len() >= 2, "manifest + run end at minimum");

    // Subscribing to a finished job replays the full journal too.
    let mut replayed = Vec::new();
    let mut sub2 = Client::connect(&daemon.addr).expect("late subscriber");
    let end2 = sub2
        .subscribe(&id, |line| replayed.push(line.to_string()))
        .expect("replay subscribe");
    assert_eq!(end2, "done");
    assert_eq!(replayed, on_disk);

    daemon.stop.store(true, std::sync::atomic::Ordering::SeqCst);
    daemon.handle.join().expect("join").expect("clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_exposition_lints_and_carries_tenant_latency() {
    let dir = tmp_dir("metrics");
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = start(&dir, 2, QueueLimits::default());
    let mut client = Client::connect(&daemon.addr).expect("connect");

    // A scrape of an idle daemon is already well-formed.
    let idle = client.metrics().expect("idle scrape");
    maopt_exec::prom::lint(&idle).expect("idle exposition lints clean");
    assert!(idle.contains("maopt_serve_slots 2"), "{idle}");
    assert!(idle.contains("maopt_serve_jobs{status=\"pending\"} 0"));

    let id = client.submit(&spec("alice", 11, 8)).expect("submit");
    wait_status(&mut client, &id, "done", Duration::from_secs(60));

    let text = client.metrics().expect("scrape");
    maopt_exec::prom::lint(&text).expect("exposition lints clean");
    assert!(
        text.contains("maopt_serve_jobs{status=\"done\"} 1"),
        "done gauge reflects the finished job:\n{text}"
    );
    assert!(
        text.contains("# TYPE maopt_serve_tenant_job_seconds summary"),
        "per-tenant latency summary present:\n{text}"
    );
    assert!(
        text.contains("maopt_serve_tenant_job_seconds_count{tenant=\"alice\"} 1"),
        "alice's one job observed:\n{text}"
    );
    assert!(
        text.contains("maopt_serve_job_seconds_count 1"),
        "daemon-wide latency observed:\n{text}"
    );
    // Engine counters merged back from the job engine.
    let sims_line = text
        .lines()
        .find(|l| l.starts_with("maopt_exec_sims_total"))
        .expect("sims counter exported");
    let sims: f64 = sims_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        sims >= 8.0,
        "at least the job's budget of sims: {sims_line}"
    );
    // Phase latency summaries arrive with the phase as a label.
    assert!(
        text.contains("maopt_exec_phase_seconds{phase=\"simulation\",quantile=\"0.5\"}")
            || text.contains("maopt_exec_phase_seconds{phase=\"near_sampling\",quantile=\"0.5\"}"),
        "phase summary present:\n{text}"
    );

    daemon.stop.store(true, std::sync::atomic::Ordering::SeqCst);
    daemon.handle.join().expect("join").expect("clean");
    let _ = std::fs::remove_dir_all(&dir);
}
