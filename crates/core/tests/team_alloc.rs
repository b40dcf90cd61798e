//! Allocation gate for critic training under a two-thread team: after a
//! warm-up, further critic steps split over the calling thread and the
//! team's helper perform zero heap allocations on either thread (a
//! `join` keeps its job on the caller's stack).
//!
//! The counting allocator counts every thread of the process, since half
//! of each split runs on a pool worker. That is why this gate lives in
//! an integration-test crate of its own with a single test: no sibling
//! test runs alongside it to be billed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use maopt_core::{Critic, FomConfig, Population, Spec};
use maopt_exec::EvalEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn critic_steps_under_a_team_are_allocation_free_after_warmup() {
    let specs = vec![Spec::at_least("m", 1, 1.0)];
    let mut pop = Population::new();
    for i in 0..40 {
        let x = vec![(i % 7) as f64 / 7.0, (i % 11) as f64 / 11.0];
        let metrics = vec![x[0] * x[0] + x[1], 10.0 * x[0]];
        pop.push(x, metrics, &specs, FomConfig::default());
    }
    // Batch 32 and a 40×40 hidden layer: every product and the hidden
    // layer's Adam update are split.
    let mut critic = Critic::new(2, 2, &[40, 40], 1e-3, 3);
    critic.refit_scaler(&pop);
    let mut rng = StdRng::seed_from_u64(4);
    let engine = EvalEngine::new(2);
    let pool = engine.pool().expect("two workers spawn a pool");
    while pool.idle_workers() < 2 {
        std::thread::yield_now();
    }

    let allocations = engine.team(|| {
        critic.train(&pop, 3, 32, &mut rng);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        critic.train(&pop, 25, 32, &mut rng);
        ALLOCATIONS.load(Ordering::SeqCst) - before
    });
    assert_eq!(
        allocations, 0,
        "critic steps under a team must not allocate after warm-up"
    );
}
