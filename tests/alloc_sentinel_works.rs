//! Meta-test for the allocation sentinel itself: proves the counting
//! allocator is actually wired up and that `assert_no_alloc` both passes
//! clean scopes and fails allocating ones, naming the thread, and does not
//! count a thread outside its scope and the pool — and that
//! `assert_thread_no_alloc` counts its own thread alone. Lives in its own binary
//! because the counters are process-global and sentinel binaries keep one
//! `#[test]`.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};

use rayon::prelude::*;
use splitbeam_analysis::alloc_sentinel::{
    assert_counting, assert_no_alloc, assert_thread_no_alloc, stats, CountingAlloc,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn sentinel_counts_and_catches_allocations() {
    assert_counting();

    // A clean scope passes and returns its value; frees alone are allowed.
    let preallocated: Vec<u64> = Vec::with_capacity(16);
    let sum = assert_no_alloc("arithmetic only", || {
        let mut acc = 0u64;
        for i in 0..black_box(1000u64) {
            acc = acc.wrapping_add(i * i);
        }
        drop(preallocated);
        acc
    });
    assert_eq!(sum, (0..1000u64).map(|i| i * i).fold(0, u64::wrapping_add));

    // An allocating scope must panic with the labeled diagnostic.
    let result = catch_unwind(AssertUnwindSafe(|| {
        assert_no_alloc("deliberately allocating", || {
            black_box(vec![0u8; 4096]);
        })
    }));
    let payload = result.expect_err("an allocating scope must fail the sentinel");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap()
        });
    assert!(
        message.contains("deliberately allocating") && message.contains("on the scope's thread"),
        "diagnostic should carry the scope label and the allocating thread: {message}"
    );

    // Another thread's allocation inside the window is not the scope's: it
    // reaches the process-wide counters only.
    let handoff = Arc::new(Barrier::new(2));
    let other = {
        let handoff = Arc::clone(&handoff);
        std::thread::spawn(move || {
            handoff.wait();
            black_box(vec![0u8; 900]);
            handoff.wait();
        })
    };
    let before = stats();
    assert_no_alloc("another thread allocating", || {
        handoff.wait();
        handoff.wait();
    });
    assert!(
        stats().allocs > before.allocs,
        "the other thread did allocate"
    );
    other.join().unwrap();

    // Reallocation (a growing Vec) is also a violation, not just fresh allocs.
    let mut grower: Vec<u8> = Vec::with_capacity(1);
    grower.push(1);
    let result = catch_unwind(AssertUnwindSafe(|| {
        assert_no_alloc("deliberately reallocating", || {
            for i in 0..64u8 {
                grower.push(i);
            }
        })
    }));
    assert!(
        result.is_err(),
        "a reallocating scope must fail the sentinel"
    );

    // The thread-only scope: a clean scope passes, an allocating one fails
    // with its label, and a pool worker's request inside the window — which
    // `assert_no_alloc` would count — is not the scope thread's.
    assert_eq!(
        assert_thread_no_alloc("arithmetic only", || black_box(6) * 7),
        42
    );
    let result = catch_unwind(AssertUnwindSafe(|| {
        assert_thread_no_alloc("deliberately allocating", || black_box(vec![0u8; 64]).len())
    }));
    let payload = result.expect_err("an allocating thread scope must fail");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(message.contains("deliberately allocating"), "{message}");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let both = Barrier::new(2);
    let worker_allocated = std::sync::atomic::AtomicBool::new(false);
    assert_thread_no_alloc("a pool worker allocating", || {
        pool.install(|| {
            (0..2usize).into_par_iter().for_each(|_| {
                both.wait();
                if rayon::current_thread_index().is_some() {
                    black_box(vec![0u8; 900]);
                    worker_allocated.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            })
        })
    });
    assert!(worker_allocated.into_inner(), "one part ran on the worker");

    // Counters are monotone and visible through `stats`.
    let before = stats();
    black_box(Box::new(7u32));
    let after = stats();
    assert!(after.allocs > before.allocs && after.bytes > before.bytes);
}
