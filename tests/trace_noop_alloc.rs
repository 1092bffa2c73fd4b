//! The no-op sink compiles the tracing seam out: an engine `run` with a
//! [`NoopSink`] and no token performs exactly the same heap allocations
//! every time, while a collecting sink allocates strictly more; and at the
//! request level a cancel token alone adds no allocation to a run on a
//! borrowed pool (no pool monitor, trace scope or header is built for it).
//! The check runs alone in this binary so a counting global allocator sees
//! only its own traffic: the engine is driven on a single-thread pool with
//! a grain large enough that every pass executes inline on the calling
//! thread, making the allocation count exact and repeatable.

use branch_avoiding_graphs::parallel::request::run_sssp_weighted;
use branch_avoiding_graphs::parallel::BranchAvoidingRelax;
use branch_avoiding_graphs::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator with a global allocation counter. `dealloc` is not
/// counted — the contract under test is about performing extra work, and
/// frees mirror the allocations anyway.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

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
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn noop_sink_adds_no_allocations_to_an_engine_run() {
    let wg = uniform_weights(
        &generators::grid_2d(32, 32, generators::MeshStencil::VonNeumann),
        8,
        7,
    );
    let pool = WorkerPool::new(1);
    // A grain far above the total edge weight keeps every pass inline.
    let bucket_loop = BucketLoop::new(&wg, &pool, 1_000_000_000, 4);
    let mut state = TraversalState::new(wg.num_vertices());

    // Warm up once so lazy one-time initialisation is off the books.
    bucket_loop.run(
        &state,
        0,
        &BranchAvoidingRelax::<false>,
        &NoopSink,
        None,
        false,
    );

    let run = |state: &TraversalState| {
        allocations_during(|| {
            bucket_loop.run(
                state,
                0,
                &BranchAvoidingRelax::<false>,
                &NoopSink,
                None,
                false,
            );
        })
    };
    state.reset();
    let untraced = run(&state);
    state.reset();
    assert_eq!(run(&state), untraced, "plain runs are not repeatable");

    state.reset();
    let noop_traced = allocations_during(|| {
        bucket_loop.run(
            &state,
            0,
            &BranchAvoidingRelax::<false>,
            &NoopSink,
            None,
            false,
        );
    });
    assert_eq!(
        noop_traced, untraced,
        "a no-op-sink traced run allocated differently from the untraced run"
    );

    // A collecting sink pays for what it records — strictly more
    // allocations than the compiled-out seam.
    let sink = MemorySink::new();
    state.reset();
    let collected = allocations_during(|| {
        bucket_loop.run(&state, 0, &BranchAvoidingRelax::<false>, &sink, None, false);
    });
    assert!(!sink.take().is_empty(), "the collecting sink saw no events");
    assert!(
        collected > noop_traced,
        "collecting sink ({collected} allocations) should exceed the no-op sink ({noop_traced})"
    );

    // A cancel-only request on a borrowed pool takes the same path as the
    // untraced one: the token is checked at phase boundaries and nothing
    // else is built for it.
    let config = RunConfig::new().on(&pool).grain(1_000_000_000);
    let token = CancelToken::new();
    let request = |config: &RunConfig<'_>| {
        allocations_during(|| {
            let (run, outcome) = run_sssp_weighted(&wg, 0, 4, Variant::BranchAvoiding, config);
            assert!(outcome.is_completed());
            drop(run);
        })
    };
    request(&config);
    let untraced_request = request(&config);
    let cancel_only = request(&config.cancel(&token));
    assert_eq!(
        cancel_only, untraced_request,
        "a cancel token added allocations to a borrowed-pool request"
    );
}
