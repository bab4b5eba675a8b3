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
//!
//! A scope counts its own thread and the pool's workers only. The harness's
//! main thread files the test it has just started — a map entry, a timeout
//! entry, its channel's waker, four requests of about 900 bytes — after the
//! test thread is already running; when the host deschedules it, those
//! requests can land inside the test's first scope (about one run in 300
//! before scopes stopped counting other threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Requests to the allocator, one set for the whole process ([`stats`]) and
/// one for the threads a scope answers for.
struct Counters {
    allocs: AtomicU64,
    reallocs: AtomicU64,
    bytes: AtomicU64,
}

impl Counters {
    const fn new() -> Self {
        Self {
            allocs: AtomicU64::new(0),
            reallocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> AllocStats {
        AllocStats {
            allocs: self.allocs.load(Ordering::SeqCst),
            reallocs: self.reallocs.load(Ordering::SeqCst),
            deallocs: DEALLOCS.load(Ordering::SeqCst),
            bytes: self.bytes.load(Ordering::SeqCst),
        }
    }
}

/// Every thread's frees.
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

/// Every thread's calls.
static ALL: Counters = Counters::new();
/// The calls of threads inside an [`assert_no_alloc`] scope and of the
/// `rayon` pool's workers.
static SCOPED: Counters = Counters::new();
/// The last request counted in [`SCOPED`], as `who << 48 | bytes`: `who` is
/// 0 for a scope's own thread and `i + 1` for pool worker `i`.
static LAST: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread is inside an [`assert_no_alloc`] scope. A `const`
    /// cell with no destructor: reading it never allocates.
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
    /// The requests this thread made inside scopes, for
    /// [`assert_thread_no_alloc`]; `const` like [`IN_SCOPE`].
    static OWN: Cell<u64> = const { Cell::new(0) };
}

/// `counter` of [`ALL`], and of [`SCOPED`] on a thread a scope answers for.
fn count(counter: fn(&Counters) -> &AtomicU64, bytes: usize) {
    let bytes = bytes as u64;
    let add = |counters: &Counters| {
        counter(counters).fetch_add(1, Ordering::Relaxed);
        counters.bytes.fetch_add(bytes, Ordering::Relaxed);
    };
    add(&ALL);
    let who = match rayon::current_thread_index() {
        Some(worker) => worker as u64 + 1,
        None if IN_SCOPE.get() => {
            OWN.set(OWN.get() + 1);
            0
        }
        None => return,
    };
    add(&SCOPED);
    LAST.store(who << 48 | bytes.min((1 << 48) - 1), Ordering::Relaxed);
}

/// Pass-through to the system allocator that counts every call. Counting
/// must never allocate or panic — the counters are plain atomics, and which
/// thread is calling is read from `const` thread-locals.
pub struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the added counting has no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(|c| &c.allocs, layout.size());
        // SAFETY: forwarded unchanged; `layout` is the caller's valid layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(|c| &c.allocs, layout.size());
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
        count(|c| &c.reallocs, new_size);
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

/// The process-wide counters: every thread's calls.
pub fn stats() -> AllocStats {
    ALL.snapshot()
}

/// Run `f` and panic if it allocated. New allocations and reallocations
/// both count (a growing `Vec` on a "zero-alloc" path is exactly the
/// regression this guards against); frees alone are permitted.
///
/// A scope answers for the thread that runs `f` and for the `rayon` pool's
/// workers, which run `f`'s parallel parts; any other thread of the process
/// (the test harness's main thread, which may still be filing the test it
/// just started) is not counted. The panic names the thread that made the
/// last counted request and its size.
///
/// Meaningful only in a binary whose `#[global_allocator]` is
/// [`CountingAlloc`]; under any other allocator the counters never move and
/// the scope passes vacuously — `assert_counting` guards sentinel tests
/// against that misconfiguration.
pub fn assert_no_alloc<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let before = SCOPED.snapshot();
    let result = in_scope(f);
    let after = SCOPED.snapshot();
    let allocs = after.allocs - before.allocs;
    let reallocs = after.reallocs - before.reallocs;
    if allocs + reallocs > 0 {
        let last = LAST.load(Ordering::Relaxed);
        let who = match last >> 48 {
            0 => "the scope's thread".to_string(),
            worker => format!("pool worker {}", worker - 1),
        };
        panic!(
            "hot path `{label}` allocated: {allocs} allocation(s), {reallocs} reallocation(s), \
             {} byte(s), the last {} byte(s) on {who} — the zero-steady-state-allocation \
             invariant is broken",
            after.bytes - before.bytes,
            last & ((1 << 48) - 1),
        );
    }
    result
}

/// [`assert_no_alloc`] answering for the calling thread alone: for a test
/// binary whose other tests run beside the scope, where their pool workers'
/// requests would land in [`assert_no_alloc`]'s. What the pool's workers
/// request for `f` is not counted either, so `f`'s own thread is all this
/// holds to zero.
pub fn assert_thread_no_alloc<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let before = OWN.get();
    let result = in_scope(f);
    let requests = OWN.get() - before;
    assert!(
        requests == 0,
        "hot path `{label}` made {requests} allocation request(s) on its own thread — the \
         zero-steady-state-allocation invariant is broken"
    );
    result
}

/// Runs `f` inside a scope on this thread.
fn in_scope<R>(f: impl FnOnce() -> R) -> R {
    /// Leaves the scope, also when `f` unwinds.
    struct Leave(bool);
    impl Drop for Leave {
        fn drop(&mut self) {
            IN_SCOPE.set(self.0);
        }
    }
    let _leave = Leave(IN_SCOPE.replace(true));
    f()
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
