//! The daemon: accept loop, fair scheduler, and job execution.
//!
//! ## Threading model
//!
//! * The **accept loop** ([`Server::run`]) owns the nonblocking
//!   `TcpListener`, spawning one detached OS thread per connection —
//!   connections are control-plane work and must not occupy compute
//!   workers.
//! * The **scheduler** runs on its own thread. With a multi-worker
//!   engine it opens one long-lived [`maopt_exec::WorkerPool::scope`]
//!   and dispatches each job as a `spawn` onto the run-level pool —
//!   the PR-4 fan-out — never dispatching more than `slots` jobs so the
//!   bounded queue cannot block the scheduling tick. With a serial
//!   engine it degenerates to running one job at a time inline.
//! * Every queue mutation persists the manifest through the
//!   `maopt-ckpt` generation-rotated atomic path before it is
//!   acknowledged to clients, so a SIGKILL at any point restarts with
//!   a consistent queue (a corrupt newest generation rolls back to the
//!   previous one); jobs that were running are requeued below their
//!   attempt budget — each dispatch charges the attempt *before* the
//!   runner starts — and quarantined at it, so a daemon-killing job
//!   cannot crash-loop the service. An optional watchdog
//!   ([`ServeConfig::stall_budget_ms`]) cancels and then demotes jobs
//!   whose checkpoint round counter stops advancing.
//!
//! ## Durability + determinism
//!
//! Each job runs on a clone of the base engine with an isolated
//! [`maopt_exec::Telemetry`] (fresh counters; the shared flight
//! recorder, when attached) and a fresh [`SimCache`], so its journal's
//! counter deltas are independent of co-scheduled jobs; given the same
//! spec, a job's journal is byte-identical (non-timing fields) whether
//! the daemon ran uninterrupted, was SIGKILLed and restarted, or was
//! gracefully drained and restarted.
//!
//! ## Metrics
//!
//! The `metrics` command renders the daemon's live state — queue
//! gauges, engine counters, and per-phase / per-tenant latency
//! summaries — as Prometheus text exposition (format 0.0.4) built by
//! [`maopt_exec::prom::Exposition`]. Scrapes read shared state under
//! the same lock as every other command; they never touch job journals.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use maopt_core::runner::{sample_initial_set_with, Optimizer};
use maopt_core::{RunCheckpointer, RunResult};
use maopt_exec::{EvalEngine, SimCache};
use maopt_obs::json::Json;
use maopt_obs::{Journal, JournalTail};

use crate::job::{JobRecord, JobSpec, JobStatus};
use crate::protocol::{read_frame, write_frame};
use crate::queue::{AdmissionError, JobQueue, QueueLimits};
use crate::registry::{build_method, build_problem};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `"127.0.0.1:0"` (port 0 = ephemeral; the
    /// bound address is written to `<state_dir>/addr`).
    pub addr: String,
    /// Durable state root: `queue.maopt` manifest plus one
    /// `jobs/job-<id>/` directory (journal + checkpoint) per job.
    pub state_dir: PathBuf,
    /// Maximum concurrently running jobs.
    pub slots: usize,
    /// Admission + per-tenant limits.
    pub limits: QueueLimits,
    /// Scheduler tick and subscribe poll interval.
    pub poll_ms: u64,
    /// Watchdog stall budget: a running job whose checkpoint round
    /// counter has not advanced for this long is cancelled, and after a
    /// second budget without progress is demoted off its slot (its
    /// already-charged attempt standing — enough demotions quarantine
    /// it). `None` disables the watchdog.
    pub stall_budget_ms: Option<u64>,
}

impl ServeConfig {
    /// A config listening on an ephemeral localhost port with `state_dir`
    /// as the durable root.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: state_dir.into(),
            slots: 2,
            limits: QueueLimits::default(),
            poll_ms: 20,
            stall_budget_ms: None,
        }
    }
}

/// Parses the `MAOPT_SERVE_ADDR` listen-address override.
///
/// Returns `Ok(None)` when unset or blank.
///
/// # Errors
///
/// A descriptive message — naming the variable and offending value —
/// when set but not a valid `host:port` socket address, instead of
/// silently falling back to the default address.
pub fn addr_from_env() -> Result<Option<String>, String> {
    let Ok(raw) = std::env::var("MAOPT_SERVE_ADDR") else {
        return Ok(None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    trimmed
        .parse::<SocketAddr>()
        .map(|a| Some(a.to_string()))
        .map_err(|e| {
            format!(
                "invalid MAOPT_SERVE_ADDR value {raw:?}: {e} (expected host:port, e.g. 127.0.0.1:7171)"
            )
        })
}

/// Scheduler-side bookkeeping for one dispatched job.
struct RunningJob {
    /// Stop flag (raised by cancel, shutdown, and the watchdog).
    flag: Arc<AtomicBool>,
    /// The job's checkpoint-round liveness beacon
    /// ([`RunCheckpointer::with_progress`]).
    progress: Arc<AtomicU64>,
    /// Last beacon value observed by the watchdog.
    last_progress: u64,
    /// When the beacon last advanced (dispatch time initially).
    last_advance: Instant,
    /// When the watchdog raised the stop flag, if it has — stage one of
    /// the cancel → demote escalation.
    canceled_at: Option<Instant>,
}

/// Mutable server state, shared by connections and the scheduler.
struct State {
    queue: JobQueue,
    /// Scheduler bookkeeping per dispatched job (slot accounting, stop
    /// flags, watchdog progress).
    running: BTreeMap<u64, RunningJob>,
    /// Watchdog-demoted jobs whose runner thread has not returned yet:
    /// their working directories are still owned by a hung thread, so
    /// the scheduler must not re-dispatch them until it exits.
    zombies: BTreeSet<u64>,
    /// High-water mark of concurrently running jobs.
    peak_running: usize,
    /// High-water mark of concurrently running jobs per tenant — the
    /// observable the quota tests assert on.
    peak_tenant_running: BTreeMap<String, usize>,
}

struct Shared {
    cfg: ServeConfig,
    engine: EvalEngine,
    state: Mutex<State>,
    stop: Arc<AtomicBool>,
}

impl Shared {
    fn queue_path(&self) -> PathBuf {
        self.cfg.state_dir.join("queue.maopt")
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.cfg.state_dir.join("jobs").join(format!("job-{id}"))
    }

    /// Persists the queue manifest and refreshes the per-tenant
    /// queue-depth gauges. Call with the state lock held.
    fn commit(&self, st: &State) {
        if let Err(e) = st.queue.save(&self.queue_path()) {
            // A queue that cannot persist must not keep acknowledging
            // work; surface loudly. (Job execution panics are caught
            // per-job; this panic fails the calling request/scheduler.)
            panic!(
                "cannot persist job queue to {}: {e}",
                self.queue_path().display()
            );
        }
        let mut tenants: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for job in st.queue.jobs() {
            let entry = tenants.entry(job.spec.tenant.as_str()).or_insert((0, 0));
            match job.status {
                JobStatus::Pending => entry.0 += 1,
                JobStatus::Running => entry.1 += 1,
                _ => {}
            }
        }
        let metrics = &self.engine.telemetry().metrics;
        for (tenant, (pending, running)) in &tenants {
            metrics.set_gauge(&format!("serve.tenant.{tenant}.pending"), *pending as f64);
            metrics.set_gauge(&format!("serve.tenant.{tenant}.running"), *running as f64);
        }
        metrics.set_gauge(
            "serve.queue.pending",
            st.queue.count_status(JobStatus::Pending) as f64,
        );
        metrics.set_gauge(
            "serve.queue.running",
            st.queue.count_status(JobStatus::Running) as f64,
        );
        metrics.set_gauge(
            "serve.quarantined",
            st.queue.count_status(JobStatus::Quarantined) as f64,
        );
    }
}

/// A bound, not-yet-running daemon; [`Server::run`] blocks until the
/// stop flag is raised and all running jobs have drained.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Loads (or initializes) the durable queue under `cfg.state_dir` —
    /// rolling back past corrupt manifest generations, requeueing
    /// previously running jobs within their attempt budget and
    /// quarantining the rest — binds the listener, and writes the bound
    /// address to `<state_dir>/addr`.
    ///
    /// # Errors
    ///
    /// Propagates bind/IO failures; a queue manifest with *no* good
    /// generation is an `InvalidData` error (refusing to silently drop
    /// jobs).
    pub fn bind(cfg: ServeConfig, engine: EvalEngine, stop: Arc<AtomicBool>) -> io::Result<Server> {
        let mut cfg = cfg;
        // The pool's bounded queue holds 2×workers tasks; more slots
        // than that could block the scheduling tick on spawn.
        cfg.slots = cfg.slots.clamp(1, engine.jobs().max(1) * 2);
        std::fs::create_dir_all(&cfg.state_dir)?;
        let (mut queue, manifest_rollbacks) =
            JobQueue::load_or_default(&cfg.state_dir.join("queue.maopt"))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if manifest_rollbacks > 0 {
            engine
                .telemetry()
                .metrics
                .inc("serve.manifest.rollback", manifest_rollbacks);
            eprintln!(
                "maopt-serve: rolled back {manifest_rollbacks} corrupt queue manifest generation(s)"
            );
        }
        let (requeued, quarantined) = queue.recover(cfg.limits.max_attempts);
        if requeued + quarantined > 0 {
            eprintln!(
                "maopt-serve: recovered {requeued} interrupted job(s), quarantined {quarantined} at the attempt budget"
            );
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        std::fs::write(
            cfg.state_dir.join("addr"),
            listener.local_addr()?.to_string(),
        )?;
        let shared = Arc::new(Shared {
            cfg,
            engine,
            state: Mutex::new(State {
                queue,
                running: BTreeMap::new(),
                zombies: BTreeSet::new(),
                peak_running: 0,
                peak_tenant_running: BTreeMap::new(),
            }),
            stop,
        });
        {
            let st = shared.state.lock().expect("state lock");
            shared.commit(&st);
        }
        Ok(Server { listener, shared })
    }

    /// The bound listen address.
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the daemon: scheduler + accept loop. Returns once the stop
    /// flag is raised, every running job has checkpointed and drained,
    /// and the final queue manifest is durable.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures other than `WouldBlock`.
    pub fn run(self) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let sched = std::thread::Builder::new()
            .name("serve-scheduler".into())
            .spawn(move || scheduler(&shared))
            .expect("spawn scheduler");

        let poll = Duration::from_millis(self.shared.cfg.poll_ms.max(1));
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name("serve-conn".into())
                        .spawn(move || handle_connection(&shared, stream))
                        .expect("spawn connection handler");
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(poll),
                Err(e) => return Err(e),
            }
        }

        // Drain: the scheduler raises every running job's flag, each job
        // checkpoints at its next round boundary and returns, and the
        // scheduler exits once nothing is running.
        sched.join().expect("scheduler thread");
        let st = self.shared.state.lock().expect("state lock");
        self.shared.commit(&st);
        Ok(())
    }
}

/// The scheduling loop: jobs are spawned inside one long-lived
/// [`EvalEngine::scope`], which puts them on the run-level worker pool
/// or, on a serial engine, runs them inline one at a time.
fn scheduler(shared: &Arc<Shared>) {
    let poll = Duration::from_millis(shared.cfg.poll_ms.max(1));
    shared.engine.scope(|scope| loop {
        if tick(shared, |id, flag, progress| {
            let shared = Arc::clone(shared);
            scope.spawn(move |_w| run_job(&shared, id, &flag, &progress));
        }) {
            break;
        }
        std::thread::sleep(poll);
    });
}

/// Watchdog pass over running jobs, escalating per stall budget: a job
/// whose checkpoint-round beacon has not advanced for one budget gets
/// its stop flag raised (a cooperative cancel a live-but-slow run honors
/// at its next round boundary); one more budget without progress and it
/// is demoted off its slot — requeued within its attempt budget,
/// quarantined beyond it — and parked in `zombies` until its hung
/// thread actually returns. Returns whether the queue changed.
fn watchdog(shared: &Shared, st: &mut State, budget: Duration) -> bool {
    let metrics = &shared.engine.telemetry().metrics;
    let now = Instant::now();
    let mut demoted = Vec::new();
    for (id, rj) in &mut st.running {
        let beacon = rj.progress.load(Ordering::SeqCst);
        if beacon > rj.last_progress {
            rj.last_progress = beacon;
            rj.last_advance = now;
            continue;
        }
        if now.duration_since(rj.last_advance) < budget {
            continue;
        }
        match rj.canceled_at {
            None => {
                rj.flag.store(true, Ordering::SeqCst);
                rj.canceled_at = Some(now);
                metrics.inc("serve.watchdog.cancel", 1);
            }
            Some(at) if now.duration_since(at) >= budget => demoted.push(*id),
            Some(_) => {}
        }
    }
    let changed = !demoted.is_empty();
    for id in demoted {
        st.running.remove(&id);
        st.zombies.insert(id);
        metrics.inc("serve.watchdog.demote", 1);
        let max_attempts = shared.cfg.limits.max_attempts;
        if let Some(job) = st.queue.get_mut(id) {
            if job.status == JobStatus::Running {
                if max_attempts > 0 && job.attempts >= max_attempts as u64 {
                    job.status = JobStatus::Quarantined;
                    job.error = Some(format!(
                        "quarantined after {} attempt(s): stalled past the watchdog budget",
                        job.attempts
                    ));
                } else {
                    job.status = JobStatus::Pending;
                    job.error = Some("watchdog: stalled past budget; requeued".into());
                }
            }
        }
    }
    changed
}

/// One scheduling tick: run the watchdog, dispatch runnable jobs into
/// free slots via `dispatch`, propagate a shutdown to running jobs, and
/// report whether the scheduler should exit (stopped and fully drained).
fn tick(
    shared: &Arc<Shared>,
    mut dispatch: impl FnMut(u64, Arc<AtomicBool>, Arc<AtomicU64>),
) -> bool {
    let stopping = shared.stop.load(Ordering::SeqCst);
    let mut to_run = Vec::new();
    {
        let mut st = shared.state.lock().expect("state lock");
        let st = &mut *st;
        if stopping {
            for rj in st.running.values() {
                rj.flag.store(true, Ordering::SeqCst);
            }
            return st.running.is_empty();
        }
        let mut changed = match shared.cfg.stall_budget_ms {
            Some(ms) => watchdog(shared, st, Duration::from_millis(ms.max(1))),
            None => false,
        };
        let slots = shared.cfg.slots.max(1);
        while st.running.len() < slots {
            let Some(id) = st.queue.next_runnable(&shared.cfg.limits, &st.zombies) else {
                break;
            };
            let flag = Arc::new(AtomicBool::new(false));
            let progress = Arc::new(AtomicU64::new(0));
            st.running.insert(
                id,
                RunningJob {
                    flag: Arc::clone(&flag),
                    progress: Arc::clone(&progress),
                    last_progress: 0,
                    last_advance: Instant::now(),
                    canceled_at: None,
                },
            );
            let tenant = st
                .queue
                .get(id)
                .expect("just scheduled")
                .spec
                .tenant
                .clone();
            let running_now = st.queue.count_status(JobStatus::Running);
            st.peak_running = st.peak_running.max(running_now);
            let tenant_now = st.queue.tenant_count(&tenant, JobStatus::Running);
            let peak = st.peak_tenant_running.entry(tenant).or_insert(0);
            *peak = (*peak).max(tenant_now);
            to_run.push((id, flag, progress));
            changed = true;
        }
        if changed {
            shared.commit(st);
        }
    }
    for (id, flag, progress) in to_run {
        dispatch(id, flag, progress);
    }
    false
}

/// Executes one job end-to-end and records its terminal (or demoted)
/// state. Never panics: build errors and run panics are charged against
/// the job's attempt budget — requeued below it, quarantined at it.
fn run_job(shared: &Arc<Shared>, id: u64, flag: &Arc<AtomicBool>, progress: &Arc<AtomicU64>) {
    let spec = {
        let st = shared.state.lock().expect("state lock");
        match st.queue.get(id) {
            Some(j) => j.spec.clone(),
            None => return,
        }
    };
    let ckpt = RunCheckpointer::new(shared.job_dir(id).join("run.ckpt"))
        .with_resume(true)
        .with_stop_flag(Arc::clone(flag))
        .with_progress(Arc::clone(progress));
    let t0 = std::time::Instant::now();
    let outcome = execute(shared, id, &spec, &ckpt);
    // Wall-clock job latency, per daemon and per tenant. These land in
    // the daemon engine's registry (scraped by `metrics`), never in job
    // journals — journals embed counter deltas only, so timing stays
    // outside the bitwise contract.
    let elapsed = t0.elapsed().as_secs_f64();
    let metrics = &shared.engine.telemetry().metrics;
    metrics.observe("serve.job_seconds", elapsed);
    metrics.observe(
        &format!("serve.tenant.{}.job_seconds", spec.tenant),
        elapsed,
    );
    // Storage-fault health, surfaced per job and in the daemon registry.
    let rollbacks = ckpt.rollbacks();
    if rollbacks > 0 {
        metrics.inc("ckpt.rollback", rollbacks);
    }
    if ckpt.write_failures() > 0 {
        metrics.inc("ckpt.write_failure", ckpt.write_failures());
    }

    let mut st = shared.state.lock().expect("state lock");
    st.running.remove(&id);
    // A watchdog-demoted job whose hung thread finally returned: its
    // working directory is free again, so it may be re-dispatched.
    st.zombies.remove(&id);
    let Some(job) = st.queue.get_mut(id) else {
        return;
    };
    job.rollbacks += rollbacks;
    match outcome {
        Ok(result) => {
            job.sims = result.trace.num_sims() as u64;
            // A non-Running status here means a client cancel or a
            // watchdog demotion raced the thread's return: keep the
            // state already recorded (a checkpoint stays on disk for
            // any future re-dispatch).
            if job.status == JobStatus::Running {
                if result.trace.num_sims() >= spec.budget {
                    job.status = JobStatus::Done;
                    job.best_fom = Some(result.best_fom());
                    job.success = Some(result.success());
                    job.error = None;
                } else {
                    // Graceful shutdown: checkpointed mid-run,
                    // resumable on the next boot.
                    job.status = JobStatus::Pending;
                }
            }
        }
        Err(msg) => {
            if job.status == JobStatus::Running {
                let max_attempts = shared.cfg.limits.max_attempts;
                if max_attempts > 0 && job.attempts >= max_attempts as u64 {
                    job.status = JobStatus::Quarantined;
                    job.error = Some(format!(
                        "quarantined after {} attempt(s): {msg}",
                        job.attempts
                    ));
                } else {
                    // Within the attempt budget: requeue. A transient
                    // fault (injected or real) retries from the last
                    // good checkpoint; a deterministic crasher burns
                    // its remaining attempts and quarantines.
                    job.status = JobStatus::Pending;
                    job.error = Some(msg);
                }
            }
        }
    }
    shared.commit(&st);
}

/// Builds and runs one job's optimization, resuming from its newest
/// good checkpoint generation when one exists.
fn execute(
    shared: &Arc<Shared>,
    id: u64,
    spec: &JobSpec,
    ckpt: &RunCheckpointer,
) -> Result<RunResult, String> {
    let problem = build_problem(&spec.problem)?;
    let method = build_method(&spec.method, spec.seed, spec.quick)?;
    let dir = shared.job_dir(id);

    // Isolated telemetry + fresh cache per job: counter deltas in this
    // job's journal are then independent of co-scheduled jobs, which is
    // what makes journals byte-identical across daemon restarts. The
    // flight recorder, when one is attached to the daemon engine, is
    // shared so all jobs land on one timeline.
    let engine = shared
        .engine
        .clone()
        .with_telemetry(Arc::new(shared.engine.telemetry().isolated()))
        .with_cache(Arc::new(SimCache::new()));
    let init = sample_initial_set_with(problem.as_ref(), spec.init_size, spec.seed, &engine);
    let journal = Journal::create(dir.join("journal.jsonl"))
        .map_err(|e| format!("cannot create journal: {e}"))?;

    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        method.optimize_resumable(
            problem.as_ref(),
            &init,
            spec.budget,
            spec.seed,
            &engine,
            &journal,
            Some(ckpt),
        )
    }))
    .map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "run panicked".into());
        format!("run panicked: {msg}")
    })?;
    journal.flush();
    shared.engine.telemetry().merge_from(engine.telemetry());
    Ok(result)
}

// ------------------------------------------------------------ protocol

fn ok(mut extra: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.append(&mut extra);
    Json::obj(pairs)
}

fn err(code: u64, msg: impl Into<String>) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("code", Json::num_u(code)),
        ("error", Json::Str(msg.into())),
    ])
}

/// Serves one connection: a loop of request → response frames. The
/// `subscribe` command switches the connection into streaming mode and
/// finishes it.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let request = match read_frame(&mut reader) {
            Ok(Some(msg)) => msg,
            Ok(None) => return, // clean hang-up between frames
            Err(e) => {
                // Oversize / malformed / truncated input: answer with a
                // clean protocol error when the socket still works.
                let _ = write_frame(&mut writer, &err(400, e.to_string()));
                return;
            }
        };
        let cmd = request.get("cmd").and_then(Json::as_str).unwrap_or("");
        let response = match cmd {
            "submit" => handle_submit(shared, &request),
            "status" => handle_status(shared, &request),
            "cancel" => handle_cancel(shared, &request),
            "list" => handle_list(shared),
            "stats" => handle_stats(shared),
            "metrics" => handle_metrics(shared),
            "shutdown" => {
                shared.stop.store(true, Ordering::SeqCst);
                ok(vec![])
            }
            "subscribe" => {
                handle_subscribe(shared, &request, &mut writer);
                return;
            }
            other => err(400, format!("unknown command {other:?}")),
        };
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
    }
}

fn handle_submit(shared: &Arc<Shared>, request: &Json) -> Json {
    let spec = match JobSpec::from_json(request) {
        Ok(s) => s,
        Err(msg) => return err(400, msg),
    };
    // Reject unresolvable specs at admission instead of burning a slot
    // on a job that can only fail.
    if let Err(msg) = build_problem(&spec.problem) {
        return err(400, msg);
    }
    if let Err(msg) = build_method(&spec.method, spec.seed, spec.quick) {
        return err(400, msg);
    }
    let mut st = shared.state.lock().expect("state lock");
    match st.queue.submit(spec, &shared.cfg.limits) {
        Ok(id) => {
            shared.commit(&st);
            ok(vec![("id", Json::Str(format!("job-{id}")))])
        }
        Err(e @ AdmissionError::QueueFull { .. }) => err(429, e.to_string()),
    }
}

fn parse_id(request: &Json) -> Result<u64, Json> {
    request
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| err(400, "missing field \"id\""))
        .and_then(|name| JobRecord::parse_name(name).map_err(|m| err(400, m)))
}

fn handle_status(shared: &Arc<Shared>, request: &Json) -> Json {
    let id = match parse_id(request) {
        Ok(id) => id,
        Err(e) => return e,
    };
    let st = shared.state.lock().expect("state lock");
    match st.queue.get(id) {
        Some(job) => ok(vec![("job", job.to_json())]),
        None => err(404, format!("no such job job-{id}")),
    }
}

fn handle_cancel(shared: &Arc<Shared>, request: &Json) -> Json {
    let id = match parse_id(request) {
        Ok(id) => id,
        Err(e) => return e,
    };
    let mut st = shared.state.lock().expect("state lock");
    match st.queue.cancel(id) {
        Ok(was) => {
            if let Some(rj) = st.running.get(&id) {
                rj.flag.store(true, Ordering::SeqCst);
            }
            shared.commit(&st);
            ok(vec![("was", Json::Str(was.to_string()))])
        }
        Err(msg) => err(409, msg),
    }
}

fn handle_list(shared: &Arc<Shared>) -> Json {
    let st = shared.state.lock().expect("state lock");
    ok(vec![(
        "jobs",
        Json::Arr(st.queue.jobs().map(JobRecord::to_json).collect()),
    )])
}

fn handle_stats(shared: &Arc<Shared>) -> Json {
    let st = shared.state.lock().expect("state lock");
    let tenants: Vec<Json> = st
        .peak_tenant_running
        .iter()
        .map(|(tenant, peak)| {
            Json::obj(vec![
                ("tenant", Json::Str(tenant.clone())),
                (
                    "pending",
                    Json::num_u(st.queue.tenant_count(tenant, JobStatus::Pending) as u64),
                ),
                (
                    "running",
                    Json::num_u(st.queue.tenant_count(tenant, JobStatus::Running) as u64),
                ),
                (
                    "quarantined",
                    Json::num_u(st.queue.tenant_count(tenant, JobStatus::Quarantined) as u64),
                ),
                ("peak_running", Json::num_u(*peak as u64)),
            ])
        })
        .collect();
    ok(vec![
        ("slots", Json::num_u(shared.cfg.slots as u64)),
        (
            "pending",
            Json::num_u(st.queue.count_status(JobStatus::Pending) as u64),
        ),
        (
            "running",
            Json::num_u(st.queue.count_status(JobStatus::Running) as u64),
        ),
        (
            "quarantined",
            Json::num_u(st.queue.count_status(JobStatus::Quarantined) as u64),
        ),
        ("peak_running", Json::num_u(st.peak_running as u64)),
        ("tenants", Json::Arr(tenants)),
    ])
}

/// Renders the daemon's live state as one Prometheus text exposition
/// (format 0.0.4) inside the usual framed-JSON response; the CLI
/// unwraps the `"metrics"` string and prints it verbatim.
fn handle_metrics(shared: &Arc<Shared>) -> Json {
    ok(vec![("metrics", Json::Str(render_metrics(shared)))])
}

/// Builds the exposition: queue/scheduler gauges, engine counters, and
/// per-phase / per-tenant latency summaries from the shared registry.
fn render_metrics(shared: &Arc<Shared>) -> String {
    use maopt_exec::prom::Exposition;
    use maopt_exec::MetricSnapshot;

    let mut e = Exposition::new();
    {
        let st = shared.state.lock().expect("state lock");
        e.gauge("maopt_serve_slots", &[], shared.cfg.slots as f64);
        e.gauge("maopt_serve_peak_running", &[], st.peak_running as f64);
        for status in [
            JobStatus::Pending,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
            JobStatus::Canceled,
            JobStatus::Quarantined,
        ] {
            e.gauge(
                "maopt_serve_jobs",
                &[("status", status.as_str())],
                st.queue.count_status(status) as f64,
            );
        }
        for (tenant, peak) in &st.peak_tenant_running {
            e.gauge(
                "maopt_serve_tenant_peak_running",
                &[("tenant", tenant)],
                *peak as f64,
            );
        }
    }

    let telemetry = shared.engine.telemetry();
    let c = telemetry.snapshot();
    for (name, v) in [
        ("sims", c.sims),
        ("cache_hits", c.cache_hits),
        ("cache_misses", c.cache_misses),
        ("retries", c.retries),
        ("panics", c.panics),
        ("timeouts", c.timeouts),
        ("non_finite", c.non_finite),
        ("failures", c.failures),
    ] {
        e.counter(&format!("maopt_exec_{name}_total"), &[], v as f64);
    }

    for metric in telemetry.metrics.snapshot() {
        // Internal dotted names carry their dimension in the name; the
        // exposition moves it into a label so one family aggregates
        // across tenants / phases / workers.
        let raw = metric.name().to_string();
        let (name, label): (String, Option<(&str, String)>) =
            if let Some(rest) = raw.strip_prefix("serve.tenant.") {
                match rest.rsplit_once('.') {
                    Some((tenant, leaf)) => (
                        format!("maopt_serve_tenant_{leaf}"),
                        Some(("tenant", tenant.to_string())),
                    ),
                    None => (format!("maopt_serve_tenant_{rest}"), None),
                }
            } else if let Some(rest) = raw.strip_prefix("exec.phase_seconds.") {
                (
                    "maopt_exec_phase_seconds".to_string(),
                    Some(("phase", rest.to_string())),
                )
            } else if let Some(worker) = raw
                .strip_prefix("exec.pool.worker")
                .and_then(|r| r.strip_suffix(".tasks"))
            {
                (
                    "maopt_exec_pool_worker_tasks".to_string(),
                    Some(("worker", worker.to_string())),
                )
            } else {
                (format!("maopt_{raw}"), None)
            };
        let labels: Vec<(&str, &str)> = label
            .as_ref()
            .map(|(k, v)| vec![(*k, v.as_str())])
            .unwrap_or_default();
        match metric {
            MetricSnapshot::Counter { value, .. } => {
                e.counter(&format!("{name}_total"), &labels, value as f64);
            }
            MetricSnapshot::Gauge { value, .. } => e.gauge(&name, &labels, value),
            MetricSnapshot::Histogram(h) => e.summary(&name, &labels, &h),
        }
    }
    e.render()
}

/// Streams a job's journal lines as `{"event":"line","line":...}`
/// frames, then one `{"event":"end","status":...}` frame once the job
/// reaches a terminal state (or the daemon stops) and the tail is
/// drained.
fn handle_subscribe(shared: &Arc<Shared>, request: &Json, writer: &mut TcpStream) {
    let id = match parse_id(request) {
        Ok(id) => id,
        Err(e) => {
            let _ = write_frame(writer, &e);
            return;
        }
    };
    {
        let st = shared.state.lock().expect("state lock");
        if st.queue.get(id).is_none() {
            let _ = write_frame(writer, &err(404, format!("no such job job-{id}")));
            return;
        }
    }
    let mut tail = JournalTail::new(shared.job_dir(id).join("journal.jsonl"));
    let poll = Duration::from_millis(shared.cfg.poll_ms.max(1));
    loop {
        let lines = match tail.poll() {
            Ok(lines) => lines,
            Err(e) => {
                let _ = write_frame(writer, &err(500, format!("journal tail: {e}")));
                return;
            }
        };
        for line in lines {
            let frame = Json::obj(vec![
                ("event", Json::Str("line".into())),
                ("line", Json::Str(line)),
            ]);
            if write_frame(writer, &frame).is_err() {
                return; // subscriber hung up
            }
        }
        let status = {
            let st = shared.state.lock().expect("state lock");
            st.queue.get(id).map(|j| j.status)
        };
        let stopping = shared.stop.load(Ordering::SeqCst);
        match status {
            Some(s) if s.is_terminal() || stopping => {
                // One final drain so a line flushed between poll and the
                // status read is not lost.
                if let Ok(lines) = tail.poll() {
                    for line in lines {
                        let frame = Json::obj(vec![
                            ("event", Json::Str("line".into())),
                            ("line", Json::Str(line)),
                        ]);
                        if write_frame(writer, &frame).is_err() {
                            return;
                        }
                    }
                }
                let _ = write_frame(
                    writer,
                    &Json::obj(vec![
                        ("event", Json::Str("end".into())),
                        ("status", Json::Str(s.to_string())),
                    ]),
                );
                return;
            }
            Some(_) => std::thread::sleep(poll),
            None => {
                let _ = write_frame(writer, &err(404, format!("job-{id} disappeared")));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_addr_env_parses_or_rejects_descriptively() {
        // Process-global env: the only test in this binary touching
        // MAOPT_SERVE_ADDR; restored before exit.
        std::env::set_var("MAOPT_SERVE_ADDR", "127.0.0.1:7171");
        assert_eq!(addr_from_env(), Ok(Some("127.0.0.1:7171".into())));
        std::env::set_var("MAOPT_SERVE_ADDR", "  ");
        assert_eq!(addr_from_env(), Ok(None), "blank = unset");
        std::env::set_var("MAOPT_SERVE_ADDR", "not-an-addr");
        let e = addr_from_env().unwrap_err();
        assert!(
            e.contains("MAOPT_SERVE_ADDR") && e.contains("not-an-addr"),
            "error names the variable and value: {e}"
        );
        std::env::set_var("MAOPT_SERVE_ADDR", "localhost:99999");
        assert!(addr_from_env().is_err(), "out-of-range port rejected");
        std::env::remove_var("MAOPT_SERVE_ADDR");
        assert_eq!(addr_from_env(), Ok(None));
    }
}
