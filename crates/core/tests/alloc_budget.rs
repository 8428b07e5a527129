//! An allocation budget for the dispatch loop.
//!
//! A decode step runs once per token of every batch, so applying one is
//! the simulator's hottest path; it reuses its turn's member buffer, and
//! the fabric writes completions into its port's buffer instead of
//! returning fresh vectors. Each request's token vector is allocated once,
//! at its first token, with room for every token it will produce, so it
//! never grows. This test guards that: it counts the heap allocations one
//! fixed closed session makes while it dispatches, and bounds them per
//! produced token. Per event would not do: a turn's steps are not events,
//! so the same allocations spread over fewer of them.
//!
//! The counting allocator counts only the allocations of the thread that
//! runs the test, so the harness's other threads do not perturb it. The
//! session is seeded and single-threaded, so the count is the same on
//! every host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aegaeon::{AegaeonConfig, ServingSession};
use aegaeon_model::{ModelSpec, Zoo};
use aegaeon_sim::{SimRng, SimTime};
use aegaeon_workload::{LengthDist, TraceBuilder};

/// Heap allocations (fresh blocks and reallocations) per produced token
/// the session may make. It makes 0.253; the rest is headroom for a
/// toolchain whose collections grow differently, the same share of the
/// count as when this bounded 0.387 allocations per event by 0.45.
const ALLOCS_PER_TOKEN: f64 = 0.29;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns its result, so `System` upholds the `GlobalAlloc` contract; the
// counter is a const-initialised `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn dispatch_stays_within_its_allocation_budget() {
    let zoo = Zoo::standard();
    let models: Vec<ModelSpec> = Zoo::replicate(&zoo.market_band(), 8);
    let mut rng = SimRng::seed_from_u64(7);
    let trace = TraceBuilder::new(SimTime::from_secs_f64(60.0), LengthDist::sharegpt())
        .uniform_models(&mut rng, models.len() as u32, 0.5)
        .build(&mut rng);
    let mut session = ServingSession::closed(&AegaeonConfig::paper_testbed(), &models, &trace);

    let before = allocs();
    let events = session.step_until(SimTime::MAX);
    let made = allocs() - before;

    let (result, _) = session.finish();
    assert_eq!(result.completed, trace.len(), "the session drains");
    let tokens: usize = result.outcomes.iter().map(|o| o.token_times.len()).sum();
    let per_token = made as f64 / tokens as f64;
    println!("{made} allocations over {tokens} tokens ({events} events): {per_token:.3} per token");
    assert!(
        per_token <= ALLOCS_PER_TOKEN,
        "{made} allocations over {tokens} produced tokens is {per_token:.3} per token, \
         over the budget of {ALLOCS_PER_TOKEN}"
    );
}
