//! The persistent pool and its one primitive: a call publishes `parts`
//! indices behind one atomic counter and every participant — the caller, and
//! any worker that is idle at that moment — claims its next index with a
//! `fetch_add` until none is left. The caller claims upwards from index 0,
//! workers downwards from the last: when one call after another hands out
//! the same items (the panels of a bound weight matrix), a thread meets
//! about the same ones each time, and they are still in its cache.
//!
//! Work is **claimed, never assigned**. A worker that is busy, parked or
//! descheduled costs a call nothing: the caller claims those indices itself,
//! and it returns when the done-count reaches `parts`, which can only wait on
//! parts a participant is actually running. A call made where no worker is
//! idle (a nested call on a fully occupied pool, a second caller while a
//! first one holds every worker) publishes nothing and runs on the caller
//! alone.
//!
//! Idle workers spin briefly on the publish epoch, then park on a condition
//! variable; a publish wakes at most as many as it has indices to spare.
//! After the workers have started, a call neither spawns nor allocates.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker spins on the publish epoch before it parks, and a
/// caller on its done-count before it starts yielding. Waking a parked
/// worker is a system call on the publishing thread (11 us on the build
/// host, against 0.6 us to hand work to a spinning one), so the spin outlasts
/// the gap between two round closes of one burst — a round's ingest, ~30 us
/// at 64 stations, or the bookkeeping between two tiles of a wide close,
/// ~150 us — and stays well short of the gap between two bursts.
const SPIN: Duration = Duration::from_micros(200);

/// Spins until `ready` or for [`SPIN`], whichever is first; says which.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        // The clock is read once in 32 polls: a poll is a cache hit.
        for _ in 0..32 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN {
            return false;
        }
    }
}

/// What every participant of a call runs: it drains the [`Claims`] it is
/// handed, doing the call's work for each index.
type Body<'a> = dyn Fn(&mut Claims<'_>) + Sync + 'a;

/// One parallel call. It lives on its caller's stack; workers reach it
/// through the registry while it is published.
struct Job {
    /// The call's body, its borrow lifetime erased (see [`run_job`]).
    body: *const Body<'static>,
    parts: usize,
    /// The claim counter: how many indices have been claimed from the front
    /// (low half) and from the back (high half). One `fetch_add` reads both,
    /// and a claim is good while their sum is short of `parts` (each half
    /// overshoots by one for every participant that found nothing left).
    claimed: AtomicU64,
    /// Indices whose part has finished, whichever way.
    done: AtomicUsize,
    /// The first panic a part raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Which end of a job's indices a participant claims from.
#[derive(Clone, Copy)]
enum End {
    /// Upwards from 0: the caller.
    Front,
    /// Downwards from `parts - 1`: a worker.
    Back,
}

/// A participant's view of a job: an iterator that claims the job's next
/// index each time it is advanced.
pub(crate) struct Claims<'j> {
    job: &'j Job,
    end: End,
    /// An index claimed on this participant's behalf before it started (a
    /// worker's first, taken under the registry lock).
    first: Option<usize>,
    /// Whether the index handed out last is still to be counted as done.
    held: bool,
    exhausted: bool,
}

impl Iterator for Claims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.exhausted {
            return None;
        }
        // Claim first, count the finished part second: a participant's last
        // touch of the job is then always a done-count (`release`), never a
        // claim that could land on a job whose caller has already returned.
        let index = self.first.take().or_else(|| self.job.claim(self.end));
        match index {
            Some(_) => {
                self.release();
                self.held = true;
            }
            None => self.exhausted = true,
        }
        index
    }
}

impl Job {
    /// The claim counter's two halves: claims from the front, from the back.
    fn ends(claimed: u64) -> (usize, usize) {
        const HALF: u32 = u64::BITS / 2;
        (
            (claimed & (u64::MAX >> HALF)) as usize,
            (claimed >> HALF) as usize,
        )
    }

    /// Claims the next index from `end`, if one is left. `Relaxed`: a claim
    /// publishes nothing — a part's writes are published by the done-count.
    fn claim(&self, end: End) -> Option<usize> {
        let step = match end {
            End::Front => 1,
            End::Back => 1 << (u64::BITS / 2),
        };
        let (front, back) = Self::ends(self.claimed.fetch_add(step, Ordering::Relaxed));
        (front + back < self.parts).then(|| match end {
            End::Front => front,
            End::Back => self.parts - 1 - back,
        })
    }

    /// Whether an index is left to claim (a hint that spares an exhausted
    /// job the overshoot of another failed claim).
    fn has_unclaimed(&self) -> bool {
        let (front, back) = Self::ends(self.claimed.load(Ordering::Relaxed));
        front + back < self.parts
    }
}

impl Claims<'_> {
    /// Counts the part handed out last as done. `Release` pairs with the
    /// caller's `Acquire` load of the done-count: whoever sees the count sees
    /// what the part wrote.
    fn release(&mut self) {
        if std::mem::take(&mut self.held) {
            self.job.done.fetch_add(1, Ordering::Release);
        }
    }
}

/// Runs the job's body on this thread until no index is left, catching a
/// panicking part so that the claims go on and every claimed index is
/// counted done.
fn participate(job: &Job, end: End, first: Option<usize>) {
    let mut claims = Claims {
        job,
        end,
        first,
        held: false,
        exhausted: false,
    };
    while !claims.exhausted {
        // SAFETY: `run_job` keeps the closure behind `body` borrowed until
        // the done-count reaches `parts`, and this participant still holds an
        // uncounted index or (the caller) owns the job.
        let body = unsafe { &*job.body };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&mut claims))) {
            job.panic
                .lock()
                .expect("nothing panics while holding the panic slot")
                .get_or_insert(payload);
        }
    }
    // The last touch: until it, the done-count is short of `parts` and the
    // job is alive.
    claims.release();
}

/// A published job, as the registry holds it.
struct JobRef(*const Job);

// SAFETY: a `Job` is shared state by construction — atomics, a mutex, and a
// `Sync` body behind the raw pointer — and the registry protocol (publish
// under the lock, retire under the lock before the caller returns) keeps the
// pointee alive for as long as any thread can find the reference.
unsafe impl Send for JobRef {}

struct Registry {
    jobs: Vec<JobRef>,
    /// Workers parked on [`Shared::wake`].
    sleeping: usize,
    shutdown: bool,
}

impl Registry {
    /// Claims the first index of a published job that has one left.
    fn claim(&self) -> Option<(*const Job, usize)> {
        self.jobs.iter().find_map(|&JobRef(job)| {
            // SAFETY: a job is retired from `jobs` under the lock this
            // registry was reached through, before its caller returns.
            let job_ref = unsafe { &*job };
            job_ref
                .has_unclaimed()
                .then(|| job_ref.claim(End::Back))
                .flatten()
                .map(|index| (job, index))
        })
    }
}

struct Shared {
    /// The pool's width: its workers and the caller.
    threads: usize,
    registry: Mutex<Registry>,
    wake: Condvar,
    /// Bumped, under the registry lock, by every publish and by shutdown:
    /// what a spinning worker watches without taking the lock.
    epoch: AtomicUsize,
    /// Workers not running a part right now. A statistic: it decides whether
    /// a call is worth publishing, never whether it is correct.
    idle: AtomicUsize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry
            .lock()
            .expect("no part runs under the registry lock")
    }

    fn publish(&self, job: &Job) {
        let wake = {
            let mut registry = self.lock();
            registry.jobs.push(JobRef(job));
            self.epoch.fetch_add(1, Ordering::Relaxed);
            registry.sleeping.min(job.parts - 1)
        };
        for _ in 0..wake {
            self.wake.notify_one();
        }
    }

    fn retire(&self, job: &Job) {
        let mut registry = self.lock();
        let at = registry
            .jobs
            .iter()
            .position(|published| std::ptr::eq(published.0, job))
            .expect("a published job stays registered until its caller retires it");
        registry.jobs.swap_remove(at);
    }

    fn work(&self) {
        let mut registry = self.lock();
        while !registry.shutdown {
            if let Some((job, first)) = registry.claim() {
                self.idle.fetch_sub(1, Ordering::Relaxed);
                drop(registry);
                // SAFETY: index `first` of this job is claimed and not yet
                // counted done, so its caller is still waiting on it.
                participate(unsafe { &*job }, End::Back, Some(first));
                self.idle.fetch_add(1, Ordering::Relaxed);
                registry = self.lock();
                continue;
            }
            // Exact: the epoch only moves under the lock held here.
            let seen = self.epoch.load(Ordering::Relaxed);
            drop(registry);
            spin_until(|| self.epoch.load(Ordering::Relaxed) != seen);
            registry = self.lock();
            if self.epoch.load(Ordering::Relaxed) == seen {
                registry.sleeping += 1;
                registry = self
                    .wake
                    .wait(registry)
                    .expect("no part runs under the registry lock");
                registry.sleeping -= 1;
            }
        }
    }
}

/// Runs `body` over the indices `0..parts`: on the calling thread, and — when
/// `shared` has an idle worker and there is more than one index — on
/// whichever workers claim one. Returns when every part has finished; a
/// panic in any part is re-raised here, after that.
fn run_job(shared: Option<&Shared>, parts: usize, body: &Body<'_>) {
    if parts == 0 {
        return;
    }
    // Each half of the claim counter holds the claims of one end and their
    // overshoot (one per participant).
    assert!(parts < 1 << 31, "a parallel call of {parts} parts");
    let job = Job {
        // SAFETY: only the lifetime changes. The pointer is dereferenced by
        // participants alone, each while it holds an uncounted index of this
        // job, and this function does not return (so `body` stays borrowed)
        // before the done-count has reached `parts`.
        body: unsafe { std::mem::transmute::<*const Body<'_>, *const Body<'static>>(body) },
        parts,
        claimed: AtomicU64::new(0),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    let published = shared.filter(|s| parts > 1 && s.idle.load(Ordering::Relaxed) > 0);
    if let Some(shared) = published {
        shared.publish(&job);
    }
    // Catches every panic of a part it runs, so the wait below is reached.
    participate(&job, End::Front, None);
    if let Some(shared) = published {
        // Every index is claimed: no worker needs to find the job any more,
        // and none may once this function has returned.
        shared.retire(&job);
        let all_done = || job.done.load(Ordering::Acquire) >= parts;
        if !spin_until(all_done) {
            while !all_done() {
                std::thread::yield_now();
            }
        }
    }
    let panic = job
        .panic
        .into_inner()
        .expect("nothing panics while holding the panic slot");
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

thread_local! {
    /// The pool this thread's parallel calls run on when it is not the
    /// process-wide one: set on a pool's workers for their lifetime, and on a
    /// caller for the length of a [`Pool::install`].
    static CURRENT: Cell<*const Shared> = const { Cell::new(std::ptr::null()) };

    /// This thread's index among its pool's workers, `usize::MAX` on a
    /// thread that is not one.
    static WORKER: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's index among its pool's workers, if it is one. A plain
/// thread-local read: it never allocates.
pub(crate) fn worker_index() -> Option<usize> {
    let index = WORKER.get();
    (index != usize::MAX).then_some(index)
}

/// `threads - 1` workers plus whoever makes a parallel call.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// A pool `threads` wide, the caller of a parallel call included: it
    /// starts `threads - 1` workers (fewer if the system refuses a thread —
    /// claiming makes any number correct).
    pub(crate) fn with_threads(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            threads,
            registry: Mutex::new(Registry {
                // Room for every job a deep nest of calls can have published
                // at once, so that publishing does not allocate.
                jobs: Vec::with_capacity(64),
                sleeping: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            epoch: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
        });
        let workers: Vec<_> = (1..threads)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || {
                        // A part's nested calls stay on the pool running it.
                        CURRENT.set(Arc::as_ptr(&shared));
                        WORKER.set(i - 1);
                        shared.work();
                    })
                    .ok()
            })
            .collect();
        shared.idle.store(workers.len(), Ordering::Relaxed);
        Self { shared, workers }
    }

    /// Runs `op` on the calling thread with this pool as the one its parallel
    /// calls use.
    pub(crate) fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        /// Puts the caller's previous pool back, also when `op` unwinds.
        struct Restore(*const Shared);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.set(self.0);
            }
        }
        let _restore = Restore(CURRENT.replace(Arc::as_ptr(&self.shared)));
        op()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            // A poisoned lock still holds a valid registry (every update is
            // one assignment), and `drop` must not panic.
            let mut registry = match self.shared.registry.lock() {
                Ok(registry) => registry,
                Err(poisoned) => poisoned.into_inner(),
            };
            registry.shutdown = true;
            self.shared.epoch.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            // A worker catches every panic of a part; one that died anyway
            // has nothing left to report here.
            let _ = worker.join();
        }
    }
}

/// The process-wide width: `RAYON_NUM_THREADS` when it parses to at least 1,
/// else `available_parallelism`. Read once per process.
fn default_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The pool installed on this thread, if one is.
fn installed() -> Option<&'static Shared> {
    let current = CURRENT.get();
    // SAFETY: a non-null `CURRENT` points into an `Arc` that outlives every
    // read of it on this thread: a worker holds its own for its whole life,
    // and `install` resets the pointer before its borrow of the pool ends.
    // The `'static` does not leave this module's call stack.
    (!current.is_null()).then(|| unsafe { &*current })
}

/// Threads a parallel call made here may use, the caller included.
pub(crate) fn width() -> usize {
    installed().map_or_else(default_width, |shared| shared.threads)
}

/// Runs `body` over `0..parts` ([`run_job`]) on the installed pool, else on
/// the process-wide one, whose workers start at the first call that has more
/// than one part to hand out — never, at width 1.
pub(crate) fn run(parts: usize, body: &Body<'_>) {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    let shared = installed().or_else(|| {
        (parts > 1 && default_width() > 1).then(|| {
            &*GLOBAL
                .get_or_init(|| Pool::with_threads(default_width()))
                .shared
        })
    });
    run_job(shared, parts, body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// Runs `op` on every index of `0..parts` through `pool`.
    fn for_each(pool: &Pool, parts: usize, op: impl Fn(usize) + Sync) {
        pool.install(|| run(parts, &|claims| claims.for_each(&op)));
    }

    /// Waits until every worker is back from its last part. A worker counts
    /// itself idle only after its part has counted done, so a call made at
    /// once may find none idle and run every part on the caller — correct,
    /// but a test whose parts wait for one another would then wait for ever.
    fn settle(pool: &Pool) {
        while pool.shared.idle.load(Ordering::Relaxed) < pool.workers.len() {
            std::thread::yield_now();
        }
    }

    fn zeros(len: usize) -> Vec<AtomicUsize> {
        (0..len).map(|_| AtomicUsize::new(0)).collect()
    }

    fn loads(counts: &[AtomicUsize]) -> Vec<usize> {
        counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn every_index_is_claimed_exactly_once_at_every_width() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::with_threads(threads);
            assert_eq!(pool.workers.len(), threads - 1);
            for parts in 0..=67 {
                let hits = zeros(parts);
                for_each(&pool, parts, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(
                    loads(&hits),
                    vec![1; parts],
                    "{threads} threads, {parts} parts"
                );
            }
        }
    }

    /// The caller (claiming upwards) and the worker (downwards) each wait at
    /// their first index until the other has one too, so every call here is
    /// claimed from both ends — which must meet without skipping an index or
    /// handing one out twice.
    #[test]
    fn the_two_ends_meet_without_a_gap_or_an_overlap() {
        let pool = Pool::with_threads(2);
        let caller = std::thread::current().id();
        for parts in 2..=67 {
            let both_claimed = Barrier::new(2);
            let arrived = [AtomicUsize::new(0), AtomicUsize::new(0)];
            let hits = zeros(parts);
            settle(&pool);
            for_each(&pool, parts, |i| {
                let end = usize::from(std::thread::current().id() != caller);
                if arrived[end].fetch_add(1, Ordering::Relaxed) == 0 {
                    both_claimed.wait();
                }
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(loads(&hits), vec![1; parts], "{parts} parts");
            assert!(arrived.iter().all(|a| a.load(Ordering::Relaxed) > 0));
        }
    }

    /// Each part waits for all the others to have started, so the call
    /// returns only if `threads` distinct threads each claimed one.
    #[test]
    fn idle_workers_take_part() {
        for threads in [2, 3] {
            let pool = Pool::with_threads(threads);
            let all_started = Barrier::new(threads);
            for _ in 0..3 {
                settle(&pool);
                for_each(&pool, threads, |_| {
                    all_started.wait();
                });
            }
        }
    }

    /// Three parts that wait for each other run on three distinct threads:
    /// the caller, which is no worker (inside `install` too), and the two
    /// workers, indexed 0 and 1.
    #[test]
    fn only_a_pools_workers_have_an_index() {
        let pool = Pool::with_threads(3);
        let all_started = Barrier::new(3);
        let indices = Mutex::new(Vec::new());
        for_each(&pool, 3, |_| {
            all_started.wait();
            indices.lock().unwrap().push(worker_index());
        });
        let mut indices = indices.into_inner().unwrap();
        indices.sort();
        assert_eq!(indices, [None, Some(0), Some(1)]);
        assert_eq!(worker_index(), None);
    }

    /// The caller's own part is over at once; the other, which a worker must
    /// take for the barrier to open, is not — and must be when the call
    /// returns.
    #[test]
    fn a_call_returns_only_when_its_last_part_has_finished() {
        let pool = Pool::with_threads(2);
        let caller = std::thread::current().id();
        for _ in 0..50 {
            let both_started = Barrier::new(2);
            let finished = AtomicUsize::new(0);
            settle(&pool);
            for_each(&pool, 2, |_| {
                both_started.wait();
                if std::thread::current().id() != caller {
                    for _ in 0..200 {
                        std::thread::yield_now();
                    }
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(finished.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn a_nested_call_completes_and_equals_the_serial_result() {
        let pool = Pool::with_threads(3);
        let (outer, inner) = (5usize, 9usize);
        let cells = zeros(outer * inner);
        for_each(&pool, outer, |i| {
            for_each(&pool, inner, |j| {
                cells[i * inner + j].fetch_add(i * 100 + j + 1, Ordering::Relaxed);
            });
        });
        let serial: Vec<usize> = (0..outer * inner)
            .map(|c| c / inner * 100 + c % inner + 1)
            .collect();
        assert_eq!(loads(&cells), serial);
    }

    #[test]
    fn a_panicking_part_re_raises_on_the_caller_and_the_pool_stays_usable() {
        let pool = Pool::with_threads(3);
        let hits = zeros(8);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for_each(&pool, 8, |i| {
                assert_ne!(i, 3, "part three gives up");
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = caught.expect_err("the part's panic must reach the caller");
        let message = payload.downcast_ref::<String>().expect("an assert message");
        assert!(message.contains("part three gives up"), "{message}");
        // The other parts ran all the same, each once.
        assert_eq!(loads(&hits), [1, 1, 1, 0, 1, 1, 1, 1]);
        let hits = zeros(20);
        for_each(&pool, 20, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(loads(&hits), vec![1; 20]);
    }

    /// With the first caller and both workers each blocked inside a part, a
    /// second caller's call runs on that caller alone and returns while they
    /// are still blocked.
    #[test]
    fn a_second_caller_completes_alone_while_every_worker_is_held() {
        let pool = Pool::with_threads(3);
        let (all_started, release) = (Barrier::new(4), Barrier::new(4));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for_each(&pool, 3, |_| {
                    all_started.wait();
                    release.wait();
                });
            });
            all_started.wait();
            let ran_on: Vec<Mutex<Option<ThreadId>>> = (0..10).map(|_| Mutex::new(None)).collect();
            for_each(&pool, 10, |i| {
                let previous = ran_on[i]
                    .lock()
                    .unwrap()
                    .replace(std::thread::current().id());
                assert_eq!(previous, None, "index {i} ran twice");
            });
            for slot in &ran_on {
                assert_eq!(*slot.lock().unwrap(), Some(std::thread::current().id()));
            }
            release.wait();
        });
    }
}
