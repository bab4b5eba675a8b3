//! Counting global allocator and `assert_no_alloc` scopes.
//!
//! The serving stack claims zero steady-state heap traffic on its hot paths
//! (barrier ingest→decode→reconstruct, streaming micro-batch close, the
//! fused tail, int8 serving). Each sentinel test binary registers
//! [`CountingAlloc`] as its `#[global_allocator]`:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: splitbeam_analysis::alloc_sentinel::CountingAlloc =
//!     splitbeam_analysis::alloc_sentinel::CountingAlloc;
//! ```
//!
//! and wraps the hot path in [`assert_no_alloc`] after a warm-up round has
//! populated every pool. The counters are process-global, so a sentinel
//! binary must keep exactly one `#[test]` (the libtest harness itself runs
//! tests on freshly spawned threads whose stacks and channels allocate) and
//! start the `rayon` pool's workers before its first scope (starting them
//! allocates; handing work to them afterwards does not, which is part of what
//! the scopes prove).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Pass-through to the system allocator that counts every call. Counting
/// must never allocate or panic — the counters are plain atomics.
pub struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the added atomic increments have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `layout` is the caller's valid layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `layout` is the caller's valid layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr`/`layout` come from a prior
        // `alloc` with the same layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; caller guarantees `ptr`/`layout`
        // describe a live allocation and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Snapshot of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    pub allocs: u64,
    pub reallocs: u64,
    pub deallocs: u64,
    pub bytes: u64,
}

pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::SeqCst),
        reallocs: REALLOCS.load(Ordering::SeqCst),
        deallocs: DEALLOCS.load(Ordering::SeqCst),
        bytes: BYTES.load(Ordering::SeqCst),
    }
}

/// Run `f` and panic if it allocated. New allocations and reallocations
/// both count (a growing `Vec` on a "zero-alloc" path is exactly the
/// regression this guards against); frees alone are permitted.
///
/// Meaningful only in a binary whose `#[global_allocator]` is
/// [`CountingAlloc`]; under any other allocator the counters never move and
/// the scope passes vacuously — `assert_counting` guards sentinel tests
/// against that misconfiguration.
pub fn assert_no_alloc<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let before = stats();
    let result = f();
    let after = stats();
    let allocs = after.allocs - before.allocs;
    let reallocs = after.reallocs - before.reallocs;
    assert!(
        allocs == 0 && reallocs == 0,
        "hot path `{label}` allocated: {allocs} allocation(s), {reallocs} reallocation(s), \
         {} byte(s) — the zero-steady-state-allocation invariant is broken",
        after.bytes - before.bytes,
    );
    result
}

/// Assert that [`CountingAlloc`] really is this binary's global allocator.
/// Call once at the start of every sentinel test so a missing
/// `#[global_allocator]` line fails loudly instead of passing vacuously.
pub fn assert_counting() {
    let before = stats();
    // `black_box`: an optimized build elides an allocation it can see freed
    // unused, and the probe would report a registered allocator missing.
    drop(std::hint::black_box(Vec::<u8>::with_capacity(4096)));
    let after = stats();
    assert!(
        after.allocs > before.allocs,
        "CountingAlloc is not registered as #[global_allocator] in this binary; \
         the sentinel would pass vacuously"
    );
}
