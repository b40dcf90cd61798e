//! The durable job queue: admission control, per-tenant quotas, fair
//! round-robin scheduling, and crash-safe persistence through the
//! `maopt-ckpt` atomic-write path.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use maopt_ckpt::{CkptError, GenStore};
use maopt_obs::json::Json;

use crate::job::{JobRecord, JobSpec, JobStatus};

/// Queue manifest file tag (shares the container format with run
/// snapshots but is mutually unreadable with them).
pub const QUEUE_MAGIC: &[u8; 8] = b"MAOPTJBQ";
/// Queue manifest format version.
pub const QUEUE_VERSION: u32 = 1;

/// Manifest generations retained: the manifest is committed on every
/// queue mutation, so a deeper window than run snapshots costs little
/// and widens the rollback horizon a torn commit can survive.
const MANIFEST_KEEP: usize = 4;

/// Admission and fairness limits.
#[derive(Debug, Clone, Copy)]
pub struct QueueLimits {
    /// Maximum jobs waiting in [`JobStatus::Pending`]; a submit beyond
    /// this is rejected with a 429-style error instead of buffering
    /// unboundedly.
    pub max_pending: usize,
    /// Maximum jobs one tenant may have running concurrently.
    pub tenant_quota: usize,
    /// Dispatch attempts before a job is quarantined instead of retried
    /// — the bound that turns a daemon-killing job from an infinite
    /// crash loop into a parked [`JobStatus::Quarantined`] record.
    /// `0` means unlimited retries.
    pub max_attempts: usize,
}

impl Default for QueueLimits {
    fn default() -> Self {
        QueueLimits {
            max_pending: 64,
            tenant_quota: 2,
            max_attempts: 3,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The pending queue is at capacity; retry later. Maps to wire code
    /// 429.
    QueueFull {
        /// The configured capacity that was hit.
        max_pending: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { max_pending } => {
                write!(f, "pending queue full ({max_pending} jobs); retry later")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// In-memory queue state; persisted as a JSON manifest via
/// [`JobQueue::save`] after every mutation the server makes.
#[derive(Debug, Default)]
pub struct JobQueue {
    jobs: BTreeMap<u64, JobRecord>,
    next_id: u64,
    /// The tenant scheduled most recently; round-robin resumes after it.
    last_tenant: Option<String>,
}

impl JobQueue {
    /// An empty queue; ids start at 1.
    pub fn new() -> Self {
        JobQueue {
            jobs: BTreeMap::new(),
            next_id: 1,
            last_tenant: None,
        }
    }

    /// Admits `spec`, assigning the next id.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] when [`QueueLimits::max_pending`]
    /// pending jobs already wait.
    pub fn submit(&mut self, spec: JobSpec, limits: &QueueLimits) -> Result<u64, AdmissionError> {
        if self.count_status(JobStatus::Pending) >= limits.max_pending {
            return Err(AdmissionError::QueueFull {
                max_pending: limits.max_pending,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            JobRecord {
                id,
                spec,
                status: JobStatus::Pending,
                best_fom: None,
                success: None,
                sims: 0,
                attempts: 0,
                rollbacks: 0,
                error: None,
            },
        );
        Ok(id)
    }

    /// Looks up one job.
    pub fn get(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    /// Mutable lookup, for the server's lifecycle transitions.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut JobRecord> {
        self.jobs.get_mut(&id)
    }

    /// Every job, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.values()
    }

    /// Jobs in `status`.
    pub fn count_status(&self, status: JobStatus) -> usize {
        self.jobs.values().filter(|j| j.status == status).count()
    }

    /// `tenant`'s jobs in `status`.
    pub fn tenant_count(&self, tenant: &str, status: JobStatus) -> usize {
        self.jobs
            .values()
            .filter(|j| j.status == status && j.spec.tenant == tenant)
            .count()
    }

    /// Marks a pending or running job canceled. A running job's stop
    /// flag is the server's concern; the queue only records intent.
    ///
    /// # Errors
    ///
    /// On an unknown id or a job already in a terminal state.
    pub fn cancel(&mut self, id: u64) -> Result<JobStatus, String> {
        let job = self
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("no such job job-{id}"))?;
        if job.status.is_terminal() {
            return Err(format!("job-{id} is already {}", job.status));
        }
        let was = job.status;
        job.status = JobStatus::Canceled;
        Ok(was)
    }

    /// Picks the next job to dispatch, fairly: tenants with pending work
    /// are cycled round-robin starting after the most recently scheduled
    /// one, skipping tenants at their running quota; within a tenant,
    /// lowest id first. Jobs in `blocked` (e.g. a watchdog-demoted job
    /// whose hung runner thread still holds its working directory) are
    /// passed over. Returns `None` when nothing is dispatchable.
    ///
    /// The chosen job is transitioned to [`JobStatus::Running`] and
    /// charged one attempt *here*, before any runner code executes —
    /// so a job that takes the daemon down with it is still charged on
    /// restart. The round-robin cursor advances.
    pub fn next_runnable(&mut self, limits: &QueueLimits, blocked: &BTreeSet<u64>) -> Option<u64> {
        let mut tenants: Vec<&str> = self
            .jobs
            .values()
            .filter(|j| j.status == JobStatus::Pending && !blocked.contains(&j.id))
            .map(|j| j.spec.tenant.as_str())
            .collect();
        tenants.sort_unstable();
        tenants.dedup();
        if tenants.is_empty() {
            return None;
        }
        // Rotate so the scan starts strictly after `last_tenant`.
        let start = match &self.last_tenant {
            Some(last) => match tenants.binary_search(&last.as_str()) {
                Ok(i) => i + 1,
                Err(i) => i,
            },
            None => 0,
        };
        let n = tenants.len();
        for k in 0..n {
            let tenant = tenants[(start + k) % n];
            if self.tenant_count(tenant, JobStatus::Running) >= limits.tenant_quota {
                continue;
            }
            let id = self
                .jobs
                .values()
                .find(|j| {
                    j.status == JobStatus::Pending
                        && j.spec.tenant == tenant
                        && !blocked.contains(&j.id)
                })
                .map(|j| j.id)?;
            let tenant = tenant.to_string();
            let job = self.jobs.get_mut(&id).expect("just found");
            job.status = JobStatus::Running;
            job.attempts += 1;
            self.last_tenant = Some(tenant);
            return Some(id);
        }
        None
    }

    /// Crash recovery at daemon start: jobs recorded as running — the
    /// previous process was killed mid-run — are requeued, unless their
    /// pre-charged attempt count already reached `max_attempts`
    /// (0 = unlimited), in which case they are quarantined: their past
    /// behaviour is indistinguishable from a job that kills the daemon
    /// every time, and requeueing would resume the crash loop.
    ///
    /// Returns `(requeued, quarantined)` job counts.
    pub fn recover(&mut self, max_attempts: usize) -> (u64, u64) {
        let (mut requeued, mut quarantined) = (0, 0);
        for job in self.jobs.values_mut() {
            if job.status != JobStatus::Running {
                continue;
            }
            if max_attempts > 0 && job.attempts >= max_attempts as u64 {
                job.status = JobStatus::Quarantined;
                job.error = Some(format!(
                    "quarantined after {} attempt(s): daemon did not survive the last run",
                    job.attempts
                ));
                quarantined += 1;
            } else {
                job.status = JobStatus::Pending;
                requeued += 1;
            }
        }
        (requeued, quarantined)
    }

    /// Serializes the full queue state as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("next_id", Json::num_u(self.next_id)),
            (
                "last_tenant",
                match &self.last_tenant {
                    Some(t) => Json::Str(t.clone()),
                    None => Json::Null,
                },
            ),
            (
                "jobs",
                Json::Arr(self.jobs.values().map(JobRecord::to_json).collect()),
            ),
        ])
    }

    /// Inverse of [`JobQueue::to_json`].
    ///
    /// # Errors
    ///
    /// Names the first missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<JobQueue, String> {
        let next_id = v
            .get("next_id")
            .and_then(Json::as_u64)
            .ok_or("missing field \"next_id\"")?;
        let last_tenant = v
            .get("last_tenant")
            .and_then(Json::as_str)
            .map(String::from);
        let mut jobs = BTreeMap::new();
        for item in v
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or("missing field \"jobs\"")?
        {
            let job = JobRecord::from_json(item)?;
            jobs.insert(job.id, job);
        }
        Ok(JobQueue {
            jobs,
            next_id,
            last_tenant,
        })
    }

    /// The generation store rotating manifest commits beside `path`
    /// (`queue.bin.0001.bin`, …, newest `MANIFEST_KEEP` = 4 retained).
    pub fn manifest_store(path: &Path) -> GenStore {
        GenStore::new(path, QUEUE_MAGIC, QUEUE_VERSION).with_keep(MANIFEST_KEEP)
    }

    /// Durably persists the queue manifest as the next generation,
    /// through the same atomic temp+fsync+rename+dir-fsync path run
    /// snapshots use.
    ///
    /// # Errors
    ///
    /// Propagates [`CkptError`] from the write path.
    pub fn save(&self, path: &Path) -> Result<(), CkptError> {
        Self::manifest_store(path)
            .save_next(self.to_json().to_string().as_bytes())
            .map(|_| ())
    }

    /// Loads the newest good manifest generation; an empty store is an
    /// empty queue (first boot). Corrupt newer generations — a commit
    /// torn by a crash or a full disk — are rolled past and counted in
    /// the returned `u64`, each rollback forgetting at most the last few
    /// queue mutations (a requeued-but-done job re-runs
    /// deterministically; a forgotten submit is the client's retry).
    ///
    /// Recovery of jobs recorded as running is *not* performed here:
    /// call [`JobQueue::recover`] with the configured attempt budget.
    ///
    /// # Errors
    ///
    /// Propagates [`CkptError`]; a store whose every generation is
    /// corrupt is [`CkptError::Corrupt`].
    pub fn load_or_default(path: &Path) -> Result<(JobQueue, u64), CkptError> {
        let load = Self::manifest_store(path).load_latest_good_with(|bytes| {
            let text = std::str::from_utf8(bytes)
                .map_err(|e| CkptError::Corrupt(format!("manifest not UTF-8: {e}")))?;
            let json = Json::parse(text)
                .map_err(|e| CkptError::Corrupt(format!("manifest not JSON: {e}")))?;
            JobQueue::from_json(&json).map_err(|e| CkptError::Corrupt(format!("manifest: {e}")))
        })?;
        Ok(match load {
            Some(l) => (l.value, l.rolled_back),
            None => (JobQueue::new(), 0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tenant: &str, seed: u64) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            problem: "sphere:2".into(),
            method: "ma-opt2".into(),
            budget: 8,
            init_size: 6,
            seed,
            quick: true,
        }
    }

    fn none() -> BTreeSet<u64> {
        BTreeSet::new()
    }

    #[test]
    fn admission_rejects_beyond_max_pending() {
        let limits = QueueLimits {
            max_pending: 2,
            tenant_quota: 1,
            ..QueueLimits::default()
        };
        let mut q = JobQueue::new();
        q.submit(spec("a", 1), &limits).unwrap();
        q.submit(spec("a", 2), &limits).unwrap();
        assert_eq!(
            q.submit(spec("b", 3), &limits),
            Err(AdmissionError::QueueFull { max_pending: 2 })
        );
        // Draining one pending job reopens admission.
        assert!(q.next_runnable(&limits, &none()).is_some());
        q.submit(spec("b", 3), &limits).unwrap();
    }

    #[test]
    fn round_robin_alternates_tenants() {
        let limits = QueueLimits {
            max_pending: 16,
            tenant_quota: 16,
            ..QueueLimits::default()
        };
        let mut q = JobQueue::new();
        let a1 = q.submit(spec("a", 1), &limits).unwrap();
        let a2 = q.submit(spec("a", 2), &limits).unwrap();
        let b1 = q.submit(spec("b", 3), &limits).unwrap();
        let b2 = q.submit(spec("b", 4), &limits).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.next_runnable(&limits, &none())).collect();
        assert_eq!(order, vec![a1, b1, a2, b2], "a/b alternate fairly");
        assert!(
            q.jobs().all(|j| j.attempts == 1),
            "each dispatch charges one attempt"
        );
    }

    #[test]
    fn quota_caps_one_tenants_concurrency() {
        let limits = QueueLimits {
            max_pending: 16,
            tenant_quota: 1,
            ..QueueLimits::default()
        };
        let mut q = JobQueue::new();
        let a1 = q.submit(spec("a", 1), &limits).unwrap();
        q.submit(spec("a", 2), &limits).unwrap();
        let b1 = q.submit(spec("b", 3), &limits).unwrap();
        assert_eq!(q.next_runnable(&limits, &none()), Some(a1));
        // Tenant a is at quota; b runs next, then nothing until a frees.
        assert_eq!(q.next_runnable(&limits, &none()), Some(b1));
        assert_eq!(q.next_runnable(&limits, &none()), None);
        q.get_mut(a1).unwrap().status = JobStatus::Done;
        assert!(q.next_runnable(&limits, &none()).is_some());
    }

    #[test]
    fn blocked_jobs_are_passed_over() {
        let limits = QueueLimits::default();
        let mut q = JobQueue::new();
        let a1 = q.submit(spec("a", 1), &limits).unwrap();
        let a2 = q.submit(spec("a", 2), &limits).unwrap();
        let blocked: BTreeSet<u64> = [a1].into();
        assert_eq!(q.next_runnable(&limits, &blocked), Some(a2));
        assert_eq!(q.next_runnable(&limits, &blocked), None);
        assert_eq!(
            q.get(a1).unwrap().attempts,
            0,
            "a blocked job is neither run nor charged"
        );
        assert_eq!(q.next_runnable(&limits, &none()), Some(a1));
    }

    #[test]
    fn cancel_transitions_and_rejects_terminal() {
        let limits = QueueLimits::default();
        let mut q = JobQueue::new();
        let id = q.submit(spec("a", 1), &limits).unwrap();
        assert_eq!(q.cancel(id), Ok(JobStatus::Pending));
        assert!(q.cancel(id).unwrap_err().contains("already canceled"));
        assert!(q.cancel(999).unwrap_err().contains("no such job"));
    }

    fn manifest_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("maopt-serve-queue-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_roundtrip_and_recover_requeues_running() {
        let limits = QueueLimits::default();
        let mut q = JobQueue::new();
        let a = q.submit(spec("a", 1), &limits).unwrap();
        let b = q.submit(spec("b", 2), &limits).unwrap();
        assert_eq!(q.next_runnable(&limits, &BTreeSet::new()), Some(a));
        q.get_mut(b).unwrap().status = JobStatus::Done;
        q.get_mut(b).unwrap().best_fom = Some(0.25);

        let dir = manifest_dir("roundtrip");
        let path = dir.join("queue.bin");
        q.save(&path).unwrap();
        let (mut restored, rollbacks) = JobQueue::load_or_default(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(rollbacks, 0);
        assert_eq!(
            restored.get(a).unwrap().status,
            JobStatus::Running,
            "load does not recover by itself"
        );
        assert_eq!(restored.recover(limits.max_attempts), (1, 0));
        assert_eq!(
            restored.get(a).unwrap().status,
            JobStatus::Pending,
            "killed mid-run below the attempt budget => resumed"
        );
        assert_eq!(restored.get(a).unwrap().attempts, 1, "the attempt sticks");
        assert_eq!(restored.get(b).unwrap().status, JobStatus::Done);
        assert_eq!(restored.get(b).unwrap().best_fom, Some(0.25));
        assert_eq!(restored.get(a).unwrap().spec, spec("a", 1));
        // Ids continue where they left off.
        let c = restored.submit(spec("c", 3), &limits).unwrap();
        assert_eq!(c, 3);
    }

    #[test]
    fn recover_quarantines_at_the_attempt_budget() {
        let limits = QueueLimits {
            max_attempts: 2,
            ..QueueLimits::default()
        };
        let mut q = JobQueue::new();
        let a = q.submit(spec("a", 1), &limits).unwrap();
        // Two simulated daemon deaths mid-run: dispatch, "crash" (the
        // Running status persists), recover.
        assert_eq!(q.next_runnable(&limits, &BTreeSet::new()), Some(a));
        assert_eq!(
            q.recover(limits.max_attempts),
            (1, 0),
            "first crash requeues"
        );
        assert_eq!(q.next_runnable(&limits, &BTreeSet::new()), Some(a));
        assert_eq!(
            q.recover(limits.max_attempts),
            (0, 1),
            "second crash hits max_attempts=2"
        );
        let job = q.get(a).unwrap();
        assert_eq!(job.status, JobStatus::Quarantined);
        assert_eq!(job.attempts, 2);
        assert!(job
            .error
            .as_deref()
            .unwrap()
            .contains("quarantined after 2"));
        assert!(job.status.is_terminal(), "quarantine blocks re-dispatch");
        assert_eq!(q.next_runnable(&limits, &BTreeSet::new()), None);

        // max_attempts = 0 disables quarantine entirely.
        let mut q = JobQueue::new();
        let a = q.submit(spec("a", 1), &limits).unwrap();
        for _ in 0..5 {
            assert_eq!(q.next_runnable(&limits, &BTreeSet::new()), Some(a));
            assert_eq!(q.recover(0), (1, 0));
        }
        assert_eq!(q.get(a).unwrap().attempts, 5);
    }

    #[test]
    fn corrupt_newest_manifest_generation_rolls_back() {
        let limits = QueueLimits::default();
        let dir = manifest_dir("rollback");
        let path = dir.join("queue.bin");
        let mut q = JobQueue::new();
        q.submit(spec("a", 1), &limits).unwrap();
        q.save(&path).unwrap();
        q.submit(spec("b", 2), &limits).unwrap();
        q.save(&path).unwrap();

        // Tear the newest manifest commit.
        let store = JobQueue::manifest_store(&path);
        let (_, newest) = store.generations().unwrap().pop().unwrap();
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() - 3]).unwrap();

        let (restored, rollbacks) = JobQueue::load_or_default(&path).unwrap();
        assert_eq!(rollbacks, 1, "the torn commit is counted");
        assert_eq!(
            restored.jobs().count(),
            1,
            "the rollback forgets the last mutation, not the queue"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_empty_queue() {
        let q = JobQueue::load_or_default(Path::new("/nonexistent/queue.bin"));
        let (q, rollbacks) = q.unwrap();
        assert_eq!(q.jobs().count(), 0);
        assert_eq!(rollbacks, 0);
    }
}
