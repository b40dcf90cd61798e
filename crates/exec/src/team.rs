//! A two-thread team for intra-op fork-join.
//!
//! Training a network is a chain of small products (a critic step is
//! roughly nine of them in a few hundred microseconds) that run on the
//! thread driving the optimization while the pool's workers sleep.
//! [`crate::EvalEngine::team`] lends that thread one idle pool worker for
//! the duration of a call, and [`join`] splits work between the two.
//!
//! * **When a team forms.** Only when the caller is not a worker of any
//!   pool, is not already in a team, and the engine's pool has an idle
//!   worker and an empty queue at that moment. The helper is recruited
//!   with a non-blocking push, so a team never queues behind
//!   simulations. Otherwise the body runs without a team.
//! * **How a `join` hands off.** The caller posts `b` into a one-job
//!   slot with an atomic store, runs `a`, and then either takes `b` back
//!   (when the helper has not started it) and runs it itself, or spins
//!   until the helper finishes it. A handoff is an atomic round trip of
//!   well under a microsecond; a pool task, by contrast, goes through a
//!   mutex and a condition variable and costs tens of microseconds. A
//!   `join` allocates nothing: the job lives on the caller's stack.
//! * **Without a team** (a serial engine, a pool worker, no idle
//!   worker, or a `join` nested inside another) `join` runs `a`, then
//!   `b`, inline — the same closures over the same data, so the serial
//!   path is the same code.
//! * **The helper** spins on the slot only while the team is open, with
//!   a bounded spin followed by a yield. It leaves early when work is
//!   queued on its pool (the caller has fanned out a `map`), so a team
//!   never holds a worker that simulations are waiting for.
//!
//! A panic in either half is caught, the other half still runs to
//! completion, and the panic is re-raised on the caller.

use std::cell::{Cell, UnsafeCell};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::pool::WorkerPool;

/// Spins between two yields while a thread waits on the slot.
const SPINS_PER_YIELD: u32 = 256;

/// Slot states. Only the caller moves `EMPTY → POSTED`, `POSTED → EMPTY`
/// (take-back) and `DONE → EMPTY`; only the helper moves
/// `POSTED → TAKEN → DONE`.
const EMPTY: u8 = 0;
const POSTED: u8 = 1;
const TAKEN: u8 = 2;
const DONE: u8 = 3;

/// A type-erased pointer to a [`StackJob`] on the caller's stack.
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    execute: unsafe fn(*const ()),
}

/// State shared by the caller and its helper for one team.
struct TeamShared {
    /// Cleared when the team body returns; the helper then leaves.
    open: AtomicBool,
    state: AtomicU8,
    /// The posted job; valid to read for whoever moved `state` out of
    /// `POSTED`.
    job: UnsafeCell<Option<JobRef>>,
}

// SAFETY: `job` is the only non-`Sync` field. It is written by the
// caller only while `state` is `EMPTY` (no job outstanding) and read by
// the helper only after its `POSTED → TAKEN` compare-exchange, which
// acquires the caller's release store of `POSTED`. The caller does not
// write it again until it has observed `DONE` (acquire) or taken the job
// back itself, so no access to the cell ever races. The `JobRef` inside
// points at a `StackJob` whose closure and result are `Send` (enforced
// by `join`'s bounds).
unsafe impl Sync for TeamShared {}
// SAFETY: see `Sync` above; the raw pointer in `job` is only dereferenced
// under that protocol.
unsafe impl Send for TeamShared {}

thread_local! {
    /// The team the current thread leads, if any. `join` takes it out
    /// for its duration, so a `join` nested inside either half runs
    /// inline.
    static TEAM: Cell<Option<Arc<TeamShared>>> = const { Cell::new(None) };
}

/// The second half of a `join`, kept on the caller's stack.
struct StackJob<F, R> {
    f: Cell<Option<F>>,
    result: Cell<Option<std::thread::Result<R>>>,
}

impl<F: FnOnce() -> R, R> StackJob<F, R> {
    fn new(f: F) -> Self {
        StackJob {
            f: Cell::new(Some(f)),
            result: Cell::new(None),
        }
    }

    fn run(&self) {
        if let Some(f) = self.f.take() {
            self.result
                .set(Some(std::panic::catch_unwind(AssertUnwindSafe(f))));
        }
    }

    /// # Safety
    ///
    /// `data` must point to a live `StackJob<F, R>` that no other thread
    /// accesses for the duration of the call.
    unsafe fn execute(data: *const ()) {
        (*data.cast::<Self>()).run();
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: (self as *const Self).cast(),
            execute: Self::execute,
        }
    }

    fn into_result(self) -> std::thread::Result<R> {
        self.result.into_inner().expect("joined job ran")
    }
}

/// Spin-waits one step: a pause hint, with a yield every
/// [`SPINS_PER_YIELD`] steps.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < SPINS_PER_YIELD {
        std::hint::spin_loop();
    } else {
        *spins = 0;
        std::thread::yield_now();
    }
}

/// Runs `a` and `b`, on two threads when the calling thread leads a team
/// ([`crate::EvalEngine::team`]), and returns both results.
///
/// `a` runs on the caller. `b` is offered to the team's helper; if the
/// helper has not started it by the time `a` returns, the caller runs it
/// itself. Without a team, and for a `join` nested inside either half,
/// `a` runs and then `b`, inline. Splitting work so that each output
/// element is computed by exactly one half keeps results bitwise
/// independent of whether a team formed.
///
/// # Panics
///
/// A panic in either half is re-raised after both halves finished (on
/// the inline path, a panic in `a` propagates before `b` runs).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let Some(team) = TEAM.with(Cell::take) else {
        return (a(), b());
    };
    let job = StackJob::new(b);
    // SAFETY: the slot is `EMPTY` (every earlier `join` of this team
    // returned only after taking its job back or seeing `DONE`), so the
    // helper does not read the cell while it is written here.
    unsafe { *team.job.get() = Some(job.as_job_ref()) };
    team.state.store(POSTED, Ordering::Release);
    let ra = std::panic::catch_unwind(AssertUnwindSafe(a));
    if team
        .state
        .compare_exchange(POSTED, EMPTY, Ordering::Acquire, Ordering::Relaxed)
        .is_ok()
    {
        job.run();
    } else {
        let mut spins = 0;
        while team.state.load(Ordering::Acquire) != DONE {
            backoff(&mut spins);
        }
        team.state.store(EMPTY, Ordering::Relaxed);
    }
    TEAM.with(|t| t.set(Some(team)));
    match (ra, job.into_result()) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) | (_, Err(payload)) => std::panic::resume_unwind(payload),
    }
}

/// Runs `body` with a team of the calling thread and one idle worker of
/// `pool` when one can form (see the module docs), inline otherwise.
pub(crate) fn run<R>(pool: &WorkerPool, body: impl FnOnce() -> R) -> R {
    if leading() || WorkerPool::on_worker_thread() {
        return body();
    }
    let shared = Arc::new(TeamShared {
        open: AtomicBool::new(true),
        state: AtomicU8::new(EMPTY),
        job: UnsafeCell::new(None),
    });
    let helper = Arc::clone(&shared);
    let queued = pool.queued_counter();
    if !pool.try_recruit(Box::new(move |_w| serve(&helper, &queued))) {
        return body();
    }
    lead(shared, body)
}

/// Runs `body` as the leader of `shared`: joins inside it hand their
/// second half to the team's slot. Closes the team on return or panic.
fn lead<R>(shared: Arc<TeamShared>, body: impl FnOnce() -> R) -> R {
    TEAM.with(|t| t.set(Some(Arc::clone(&shared))));
    let result = std::panic::catch_unwind(AssertUnwindSafe(body));
    TEAM.with(Cell::take);
    shared.open.store(false, Ordering::Release);
    match result {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// The helper's loop: runs posted jobs until the team closes or work is
/// queued on the pool.
fn serve(team: &TeamShared, queued: &AtomicUsize) {
    let mut spins = 0;
    while team.open.load(Ordering::Acquire) {
        if team.state.load(Ordering::Relaxed) == POSTED
            && team
                .state
                .compare_exchange(POSTED, TAKEN, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            // SAFETY: the successful `POSTED → TAKEN` exchange acquired
            // the caller's release store of `POSTED`, made after it wrote
            // the slot, and the caller does not touch the slot again
            // until it sees `DONE`. The `StackJob` the slot points to
            // lives on the caller's stack inside `join`, which does not
            // return before it observes `DONE` below, so the pointer is
            // live and exclusively ours for the call; `StackJob::run`
            // catches the job's panic, so nothing unwinds through here.
            unsafe {
                let job = (*team.job.get()).expect("posted slot holds a job");
                (job.execute)(job.data);
            }
            team.state.store(DONE, Ordering::Release);
            spins = 0;
        } else if queued.load(Ordering::Relaxed) > 0 {
            return;
        } else {
            backoff(&mut spins);
        }
    }
}

/// Whether the calling thread leads a team.
fn leading() -> bool {
    TEAM.with(|t| {
        let team = t.take();
        let present = team.is_some();
        t.set(team);
        present
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalEngine;
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;

    /// Waits until both workers of `engine` are parked in the queue, so
    /// the next `team` call recruits one.
    fn wait_idle(engine: &EvalEngine) {
        let pool = engine.pool().expect("two workers spawn a pool");
        while pool.idle_workers() < 2 {
            std::thread::yield_now();
        }
    }

    fn idle_engine() -> EvalEngine {
        let engine = EvalEngine::new(2);
        wait_idle(&engine);
        engine
    }

    fn me() -> ThreadId {
        std::thread::current().id()
    }

    /// Joins until `b` lands on a thread other than the caller: each
    /// `a` waits a while for the helper to pick `b` up, which it may be
    /// slow to do while it wakes up or when the machine is busy.
    fn helper_thread() -> ThreadId {
        loop {
            let started = AtomicBool::new(false);
            let (_, tb) = join(
                || {
                    let t0 = std::time::Instant::now();
                    while !started.load(Ordering::Acquire)
                        && t0.elapsed() < std::time::Duration::from_millis(5)
                    {
                        std::thread::yield_now();
                    }
                },
                || {
                    started.store(true, Ordering::Release);
                    me()
                },
            );
            if tb != me() {
                return tb;
            }
        }
    }

    #[test]
    fn both_halves_run_and_the_helper_takes_b() {
        let engine = idle_engine();
        let ((x, y), helper) = engine.team(|| {
            assert!(leading());
            let helper = helper_thread();
            (join(|| 2 + 3, || "b"), helper)
        });
        assert_eq!((x, y), (5, "b"));
        assert_ne!(helper, me());
        assert!(!leading(), "the team closes with its body");
    }

    #[test]
    fn without_a_team_join_runs_inline_in_order() {
        let order = std::sync::Mutex::new(Vec::new());
        let (ta, tb) = join(
            || {
                order.lock().unwrap().push('a');
                me()
            },
            || {
                order.lock().unwrap().push('b');
                me()
            },
        );
        assert_eq!((ta, tb), (me(), me()));
        assert_eq!(*order.lock().unwrap(), ['a', 'b']);
    }

    #[test]
    fn serial_engine_runs_the_team_inline() {
        let engine = EvalEngine::serial();
        engine.team(|| {
            assert!(!leading());
            assert_eq!(join(me, me), (me(), me()));
        });
    }

    #[test]
    fn team_from_a_pool_worker_runs_inline() {
        let engine = idle_engine();
        let inner = engine.clone();
        let seen = engine.map(vec![(); 2], |_, ()| {
            inner.team(|| {
                let (ta, tb) = join(me, me);
                (leading(), ta == tb && ta == me())
            })
        });
        assert_eq!(seen, vec![(false, true); 2]);
    }

    #[test]
    fn nested_join_runs_inline() {
        let engine = idle_engine();
        engine.team(|| {
            helper_thread();
            let ((a1, a2), (b1, b2)) = join(|| join(me, me), || join(me, me));
            assert_eq!(a1, a2, "a nested join inside `a` stays on the caller");
            assert_eq!(b1, b2, "a nested join inside `b` stays on its thread");
            // A nested team is the same team.
            engine.team(|| assert!(leading()));
        });
    }

    #[test]
    fn caller_takes_back_an_unstarted_half() {
        // A team whose helper never shows up: every posted half is still
        // in the slot when `a` returns, so the caller runs it.
        let shared = Arc::new(TeamShared {
            open: AtomicBool::new(true),
            state: AtomicU8::new(EMPTY),
            job: UnsafeCell::new(None),
        });
        let runs = AtomicUsize::new(0);
        let (ra, rb) = lead(Arc::clone(&shared), || {
            join(
                || 7,
                || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    me()
                },
            )
        });
        assert_eq!((ra, rb), (7, me()));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(shared.state.load(Ordering::SeqCst), EMPTY);
        assert!(!shared.open.load(Ordering::SeqCst));
    }

    #[test]
    fn panic_in_either_half_reaches_the_caller_after_both_finish() {
        let engine = idle_engine();
        for panicking_half in ['a', 'b'] {
            wait_idle(&engine);
            let finished = AtomicUsize::new(0);
            let slow = || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished.fetch_add(1, Ordering::SeqCst);
            };
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                engine.team(|| {
                    helper_thread();
                    if panicking_half == 'a' {
                        join(|| panic!("boom in a"), slow);
                    } else {
                        join(slow, || panic!("boom in b"));
                    }
                })
            }));
            assert!(
                result.is_err(),
                "{panicking_half}: panic reaches the caller"
            );
            assert_eq!(
                finished.load(Ordering::SeqCst),
                1,
                "{panicking_half}: the other half finished first"
            );
            assert!(!leading());
        }
        // The pool survives and still forms teams.
        wait_idle(&engine);
        engine.team(|| assert_ne!(helper_thread(), me()));
    }

    #[test]
    fn helper_leaves_when_the_pool_gets_work() {
        let engine = idle_engine();
        let threads = engine.team(|| {
            helper_thread();
            // A fan-out from inside the team needs both workers; the
            // helper must give its worker back instead of spinning.
            engine.map(vec![(); 8], |_, ()| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                me()
            })
        });
        let distinct: std::collections::BTreeSet<_> =
            threads.iter().map(|t| format!("{t:?}")).collect();
        assert_eq!(distinct.len(), 2, "both workers served the fan-out");
    }
}
