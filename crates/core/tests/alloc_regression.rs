//! Allocation-count regression gate for the critic training hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up call sizes every reused buffer, further same-shaped critic
//! training steps must perform **zero** heap allocations. This is the
//! enforcement side of the workspace/kernel layer — if someone
//! reintroduces a per-step `clone` or a temporary `Mat`, this test
//! fails with the allocation count instead of a silent slowdown.
//!
//! The counting allocator lives in this integration-test crate (the
//! library crates themselves stay `#![forbid(unsafe_code)]`). It counts
//! per thread: the test harness runs tests in parallel, and a global
//! count would bill one test for its siblings' allocations. Critic
//! training runs on the calling thread, so the per-thread count covers
//! all of its work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use maopt_core::{Critic, FomConfig, Population, Spec};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    // `const`-initialised and drop-free, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn make_population(n: usize) -> Population {
    let specs = vec![Spec::at_least("m", 1, 1.0)];
    let cfg = FomConfig::default();
    let mut pop = Population::new();
    let mut seed = 0x5eed_cafeu64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % 1000) as f64 / 1000.0
    };
    for _ in 0..n {
        let x = vec![next(), next()];
        let metrics = vec![x[0] * x[0] + x[1] * x[1], 10.0 * x[0]];
        pop.push(x, metrics, &specs, cfg);
    }
    pop
}

#[test]
fn critic_training_step_is_allocation_free_after_warmup() {
    let pop = make_population(40);
    let mut critic = Critic::new(2, 2, &[32, 32], 1e-3, 3);
    critic.refit_scaler(&pop);
    let mut rng = StdRng::seed_from_u64(4);

    // Warm-up: sizes the pseudo-batch buffers, the MLP workspace, and the
    // gradient buffer for this (batch, widths) shape.
    critic.train(&pop, 2, 16, &mut rng);

    let before = allocation_count();
    critic.train(&pop, 25, 16, &mut rng);
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "critic training steps must not allocate after warm-up \
         ({} allocations in 25 steps)",
        after - before
    );
}

#[test]
fn warmup_resizes_only_on_shape_change() {
    let pop = make_population(40);
    let mut critic = Critic::new(2, 2, &[16], 1e-3, 5);
    critic.refit_scaler(&pop);
    let mut rng = StdRng::seed_from_u64(6);

    critic.train(&pop, 2, 8, &mut rng);
    // A larger batch re-warms the buffers once…
    critic.train(&pop, 2, 24, &mut rng);
    // …after which steps are allocation-free again.
    let before = allocation_count();
    critic.train(&pop, 10, 24, &mut rng);
    assert_eq!(allocation_count() - before, 0);
}
