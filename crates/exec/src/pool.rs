//! A persistent scoped worker pool.
//!
//! [`crate::EvalEngine`] used to spawn and join `std::thread::scope`
//! workers inside every `map` call; at paper scale (hundreds of short
//! batches per run) the spawn/join overhead dominates small batches.
//! [`WorkerPool`] spawns its threads once, at engine construction, and
//! feeds them through the same [`BoundedQueue`] the per-call pool used,
//! keeping the backpressure semantics: at most `2 * workers` tasks are
//! in flight, and producers block (never buffer unboundedly) once the
//! queue is full.
//!
//! The submission API is *scoped*: [`WorkerPool::scope`] lets callers
//! spawn closures that borrow the caller's stack (`'env` data), and
//! guarantees — even when a task or the scope body panics — that every
//! spawned task has finished before the scope returns. That guarantee is
//! what makes the single `unsafe` block below (erasing the `'env`
//! lifetime so tasks can sit in the queue of a `'static` pool) sound.
//!
//! Nested use is deadlock-free by construction: a task running *on* a
//! pool that re-enters [`WorkerPool::scope`] of the *same* pool runs its
//! spawns inline on the current worker instead of enqueueing them (a
//! queued subtask could otherwise wait forever for the worker blocked on
//! it). Scopes on a *different* pool proceed in parallel — that is how
//! run-level and simulation-level parallelism nest (the wait graph
//! between two distinct pools is acyclic).

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::queue::BoundedQueue;

/// A queued unit of work; the argument is the executing worker's index.
type Task = Box<dyn FnOnce(usize) + Send + 'static>;

/// Process-wide pool id source (ids start at 1; 0 means "not a worker").
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Pool id + worker index of the current thread, when it is a pool
    /// worker. Used to detect same-pool re-entry and degrade to inline
    /// execution instead of deadlocking.
    static CURRENT_WORKER: std::cell::Cell<(u64, usize)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// Completion/panic state of one [`WorkerPool::scope`].
struct ScopeState {
    pending: Mutex<usize>,
    all_done: Condvar,
    /// First captured task panic; re-raised on the scope's caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set on the first panic so later tasks of the same scope are
    /// skipped (their closures are dropped without running).
    cancelled: AtomicBool,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: Mutex::new(0),
            all_done: Condvar::new(),
            panic: Mutex::new(None),
            cancelled: AtomicBool::new(false),
        }
    }

    fn add_one(&self) {
        *self.pending.lock().unwrap_or_else(PoisonError::into_inner) += 1;
    }

    fn finish_one(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        *pending -= 1;
        if *pending == 0 {
            drop(pending);
            self.all_done.notify_all();
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.cancelled.store(true, Ordering::Release);
        self.panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(payload);
    }

    /// Blocks until every spawned task has completed.
    fn wait(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        while *pending > 0 {
            pending = self
                .all_done
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// Fixed set of worker threads spawned once and fed through a bounded
/// queue. Dropping the (last `Arc` to the) pool closes the queue and
/// joins every worker.
pub struct WorkerPool {
    id: u64,
    workers: usize,
    queue: Arc<BoundedQueue<Task>>,
    handles: Vec<JoinHandle<()>>,
    /// Precomputed metric names (`exec.pool.worker<k>.tasks`), so hot
    /// paths can tag metrics with worker ids without per-task formatting.
    worker_metric_names: Vec<String>,
    /// Exact count of tasks enqueued but not yet started (incremented at
    /// spawn, decremented by the worker when it picks the task up; the
    /// `Arc` lets queued tasks carry the decrement).
    depth: Arc<AtomicUsize>,
    /// Lifetime high-watermark of `depth` — the `queue_depth_peak`
    /// companion to the instantaneous [`WorkerPool::queue_len`] gauge,
    /// answering "did producers ever actually back up?" after the fact.
    peak_depth: AtomicUsize,
    /// Workers currently waiting in the queue for a task.
    idle: Arc<AtomicUsize>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("id", &self.id)
            .field("workers", &self.workers)
            .field("queue_len", &self.queue.len())
            .field("queue_depth_peak", &self.queue_depth_peak())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (at least 1) behind a bounded
    /// queue of capacity `2 * workers`.
    pub fn new(workers: usize) -> Arc<WorkerPool> {
        let workers = workers.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let queue: Arc<BoundedQueue<Task>> = Arc::new(BoundedQueue::new(2 * workers));
        let idle = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let idle = Arc::clone(&idle);
                std::thread::Builder::new()
                    .name(format!("maopt-pool{id}-w{w}"))
                    .spawn(move || {
                        CURRENT_WORKER.with(|c| c.set((id, w)));
                        loop {
                            idle.fetch_add(1, Ordering::Relaxed);
                            let task = queue.pop();
                            idle.fetch_sub(1, Ordering::Relaxed);
                            let Some(task) = task else { break };
                            // Tasks are built by `Scope::spawn` or are
                            // team helpers, and both catch panics
                            // themselves; a panic here would mean a bug
                            // in this module, and taking the worker down
                            // with it is the loud option.
                            task(w);
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool {
            id,
            workers,
            queue,
            handles,
            worker_metric_names: (0..workers)
                .map(|w| format!("exec.pool.worker{w}.tasks"))
                .collect(),
            depth: Arc::new(AtomicUsize::new(0)),
            peak_depth: AtomicUsize::new(0),
            idle,
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Tasks currently queued (not yet picked up by a worker).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Highest number of tasks that have ever been queued at once over
    /// the pool's lifetime. The instantaneous [`WorkerPool::queue_len`]
    /// gauge only shows backlog if it is sampled at the right moment;
    /// this watermark answers "did producers ever back up, and how far"
    /// after the fact.
    pub fn queue_depth_peak(&self) -> usize {
        self.peak_depth.load(Ordering::Relaxed)
    }

    /// Whether the calling thread is one of this pool's workers. Used by
    /// [`crate::EvalEngine`] to run same-pool re-entrant work inline.
    pub fn is_current(&self) -> bool {
        CURRENT_WORKER.with(|c| c.get().0) == self.id
    }

    /// Whether the calling thread is a worker of any pool.
    pub(crate) fn on_worker_thread() -> bool {
        CURRENT_WORKER.with(|c| c.get().0) != 0
    }

    /// Workers currently waiting for a task (a racy sample, like
    /// [`WorkerPool::queue_len`]).
    pub fn idle_workers(&self) -> usize {
        self.idle.load(Ordering::Relaxed)
    }

    /// The exact count of spawned tasks not yet picked up by a worker.
    pub(crate) fn queued_counter(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.depth)
    }

    /// Hands `task` to an idle worker when one is waiting and no spawned
    /// task is queued; returns whether it did. Never blocks and never
    /// queues `task` behind other work (a push racing another producer
    /// can still land behind its task, so `task` must cope with running
    /// late). Not a scoped spawn: `task` owns everything it touches.
    pub(crate) fn try_recruit(&self, task: Task) -> bool {
        self.idle.load(Ordering::Relaxed) > 0
            && self.depth.load(Ordering::Relaxed) == 0
            && self.queue.try_push(task)
    }

    /// The telemetry metric name for worker `w`'s task counter.
    pub fn worker_metric_name(&self, w: usize) -> &str {
        &self.worker_metric_names[w.min(self.worker_metric_names.len() - 1)]
    }

    /// Runs `body` with a [`Scope`] on which tasks borrowing `'env` data
    /// can be spawned; returns `body`'s result once **every** spawned
    /// task has finished.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from a spawned task (after all tasks
    /// finished), or a panic from `body` itself. Either way the
    /// every-task-finished guarantee holds before unwinding continues,
    /// so `'env` borrows never outlive the scope.
    pub fn scope<'env, F, R>(&self, body: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState::new()),
            _env: std::marker::PhantomData,
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| body(&scope)));
        // The soundness linchpin: block until every task has run (or been
        // skipped) regardless of how `body` exited. Only then may the
        // stack frame owning the `'env` borrows unwind.
        scope.state.wait();
        match result {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = scope.state.take_panic() {
                    std::panic::resume_unwind(payload);
                }
                value
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.close();
        for handle in std::mem::take(&mut self.handles) {
            let _ = handle.join();
        }
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, mirroring `std::thread::Scope`.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Enqueues `f` on the pool (blocking while the bounded queue is
    /// full — the backpressure that keeps huge batches from buffering
    /// unboundedly). `f` receives the executing worker's index.
    ///
    /// Called from one of this pool's own workers, `f` runs inline on
    /// the calling thread instead: a queued subtask could deadlock
    /// against the very worker waiting on it.
    ///
    /// A panic in `f` is captured and re-raised by [`WorkerPool::scope`]
    /// after all tasks finish; once one task panics, tasks of the same
    /// scope that have not started yet are skipped.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(usize) + Send + 'env,
    {
        if self.pool.is_current() {
            let w = CURRENT_WORKER.with(|c| c.get().1);
            f(w);
            return;
        }

        self.state.add_one();
        let state = Arc::clone(&self.state);
        let depth = Arc::clone(&self.pool.depth);
        // Count the task as queued from just before the (possibly
        // blocking) push until a worker picks it up; the watermark is
        // exact, not a sampled approximation.
        let queued = depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.pool.peak_depth.fetch_max(queued, Ordering::Relaxed);
        let task: Box<dyn FnOnce(usize) + Send + 'env> = Box::new(move |w: usize| {
            depth.fetch_sub(1, Ordering::Relaxed);
            if state.cancelled.load(Ordering::Acquire) {
                // Consume `f` *before* signalling completion: its drop
                // may touch `'env` data, which is only guaranteed alive
                // until `finish_one` wakes the scope's caller.
                drop(f);
            } else if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(move || f(w))) {
                state.record_panic(payload);
            }
            state.finish_one();
        });
        // SAFETY: the queue requires `'static` tasks, but `task` may
        // borrow `'env` data (through `f`). `WorkerPool::scope` blocks —
        // on success *and* during unwinding — until this task has either
        // run to completion or been dropped (both before `finish_one`),
        // so no `'env` borrow is ever dereferenced after the scope
        // returns. The transmute only erases the lifetime parameter; the
        // vtable and layout of the boxed closure are unchanged. Panic
        // payloads are `Box<dyn Any + Send>` and hence `'static`, so no
        // borrow escapes through the panic path either.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce(usize) + Send + 'env>, Task>(task) };
        if !self.pool.queue.push(task) {
            // The queue only closes when the pool is dropped, which
            // cannot race a live scope holding an `Arc` to it; treat a
            // rejected push as a bug rather than silently losing work.
            self.pool.depth.fetch_sub(1, Ordering::Relaxed);
            self.state.finish_one();
            panic!("worker pool queue closed while a scope was active");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_borrowed_tasks_to_completion() {
        let pool = WorkerPool::new(3);
        let mut results = vec![0usize; 64];
        {
            let slots: Vec<(usize, &mut usize)> = results.iter_mut().enumerate().collect();
            pool.scope(|scope| {
                for (i, slot) in slots {
                    scope.spawn(move |_w| {
                        *slot = i * 2;
                    });
                }
            });
        }
        assert_eq!(results, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scope_reuses_the_same_threads_across_calls() {
        let pool = WorkerPool::new(2);
        let collect_ids = || {
            let ids = Mutex::new(std::collections::BTreeSet::new());
            pool.scope(|scope| {
                for _ in 0..16 {
                    scope.spawn(|_w| {
                        ids.lock()
                            .unwrap()
                            .insert(format!("{:?}", std::thread::current().id()));
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    });
                }
            });
            ids.into_inner().unwrap()
        };
        let first = collect_ids();
        let second = collect_ids();
        assert!(!first.is_empty() && first.len() <= 2);
        assert_eq!(
            first, second,
            "persistent pool: same worker threads serve every scope"
        );
    }

    #[test]
    fn same_pool_reentry_runs_inline_without_deadlock() {
        let pool = WorkerPool::new(2);
        let outer = Arc::new(AtomicUsize::new(0));
        let inner = Arc::new(AtomicUsize::new(0));
        pool.scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let outer = Arc::clone(&outer);
                let inner = Arc::clone(&inner);
                scope.spawn(move |_w| {
                    outer.fetch_add(1, Ordering::SeqCst);
                    assert!(pool.is_current());
                    // Re-entering the same pool from a worker must not
                    // queue (the queue is served by blocked workers).
                    pool.scope(|nested| {
                        for _ in 0..3 {
                            let inner = Arc::clone(&inner);
                            nested.spawn(move |_w| {
                                inner.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(outer.load(Ordering::SeqCst), 4);
        assert_eq!(inner.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn task_panic_is_reraised_after_all_tasks_finish() {
        let pool = WorkerPool::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let completed_ref = Arc::clone(&completed);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                for i in 0..16 {
                    let completed = Arc::clone(&completed_ref);
                    scope.spawn(move |_w| {
                        assert!(i != 3, "boom");
                        completed.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    });
                }
            });
        }));
        assert!(result.is_err(), "task panic reaches the scope caller");
        // The pool survives the panic and keeps serving new scopes.
        let after = Arc::new(AtomicUsize::new(0));
        let after_ref = Arc::clone(&after);
        pool.scope(|scope| {
            for _ in 0..8 {
                let after = Arc::clone(&after_ref);
                scope.spawn(move |_w| {
                    after.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(after.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn queue_depth_peak_tracks_the_high_watermark() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.queue_depth_peak(), 0, "fresh pool has no backlog");
        // Park both workers so every further spawn must queue; the
        // producer then provably backs up to a known depth.
        let gate = Arc::new(AtomicBool::new(false));
        pool.scope(|scope| {
            for _ in 0..2 {
                let gate = Arc::clone(&gate);
                scope.spawn(move |_w| {
                    while !gate.load(Ordering::Acquire) {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                });
            }
            for _ in 0..3 {
                scope.spawn(|_w| {});
            }
            gate.store(true, Ordering::Release);
        });
        // At least the three no-op tasks were queued at once (the two
        // parked-worker tasks may still have been in the FIFO too).
        let peak = pool.queue_depth_peak();
        assert!(
            (3..=5).contains(&peak),
            "three tasks were queued behind parked workers: peak {peak}"
        );
        // The watermark is a lifetime maximum: an idle pool keeps it.
        pool.scope(|scope| scope.spawn(|_w| {}));
        assert!(pool.queue_depth_peak() >= peak);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(4);
        pool.scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|_w| {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                });
            }
        });
        drop(pool); // must not hang
    }
}
