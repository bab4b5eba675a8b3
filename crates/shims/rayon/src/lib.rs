//! Offline stand-in for `rayon`.
//!
//! Provides the small parallel-iterator surface the workspace uses —
//! `slice.par_iter().map(f).collect::<Vec<_>>()`,
//! `slice.par_iter_mut().for_each(f)` and
//! `(0..n).into_par_iter().for_each(f)` / `.for_each_init(init, f)` — on a
//! **persistent pool**: `current_num_threads() - 1` workers, started at the
//! first call that has more than one item to hand out, that claim items one
//! `fetch_add` at a time next to the caller (the `pool` module has the
//! protocol). An item is run exactly once by whichever thread claimed it,
//! and a map's results land in input order, so a parallel call is
//! *order-identical* (and therefore bit-identical) to its serial counterpart;
//! at width 1 no thread is ever started and every call is a plain loop on
//! the caller. A panic in an item is re-raised on the caller once the call's
//! other items have finished, and leaves the pool usable.

#![deny(unsafe_op_in_unsafe_fn)]

mod pool;

use std::ops::Range;

/// Number of threads a parallel operation made here may use, the caller
/// included: the width of the [`ThreadPool`] installed on this thread, else
/// the process-wide one.
///
/// That one honors `RAYON_NUM_THREADS` (like real rayon's default pool) — the
/// only way to pin the width of a process — and is otherwise
/// `available_parallelism`; it is read once per process. Asking starts no
/// thread.
pub fn current_num_threads() -> usize {
    pool::width()
}

/// The calling thread's index among the workers of its pool, or `None` on a
/// thread that is no pool's worker — the caller of a parallel call and of
/// [`ThreadPool::install`] included — mirroring `rayon::current_thread_index`.
/// It reads a thread-local and never allocates, so a global allocator may
/// call it.
pub fn current_thread_index() -> Option<usize> {
    pool::worker_index()
}

/// Builds a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Why a [`ThreadPool`] could not be built, mirroring
/// `rayon::ThreadPoolBuildError`. This pool never fails to build: claiming
/// makes it correct with however many workers the system lets it start.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl ThreadPoolBuilder {
    /// A builder for a pool of the process-wide width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's width; `0` (the default) means the process-wide one.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Starts the pool's workers: one fewer than its width, because the
    /// thread that [`ThreadPool::install`]s it is the last.
    ///
    /// # Errors
    /// Never; the signature is published rayon's.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => current_num_threads(),
            n => n,
        };
        Ok(ThreadPool(pool::Pool::with_threads(threads)))
    }
}

/// A pool of its own, mirroring `rayon::ThreadPool`: the parity tests run a
/// product at several widths through it. Dropping it stops its workers.
pub struct ThreadPool(pool::Pool);

impl ThreadPool {
    /// Runs `op` with this pool as the one its parallel calls hand work out
    /// on. Unlike published rayon, `op` itself runs on the calling thread,
    /// which is one of the pool's `num_threads` for as long.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        self.0.install(op)
    }
}

/// A pointer several claimants write through, each at indices no other
/// touches.
struct Shared<T>(*mut T);

// SAFETY: the pointer is only ever offset to an index its user claimed from
// the pool, which hands every index out once; what is moved in or lent out
// at that index is a `T`, so `T: Send` is what crossing threads needs.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    /// # Safety
    /// `i` must be inside the allocation the pointer came from.
    unsafe fn at(&self, i: usize) -> *mut T {
        // SAFETY: the caller's contract.
        unsafe { self.0.add(i) }
    }
}

/// Borrowing conversion into a parallel iterator, mirroring
/// `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    /// Item type yielded by reference.
    type Item: Sync + 'a;

    /// Returns a parallel iterator over `&self`'s elements.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

/// A parallel iterator over a slice.
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every element through `f`, preserving input order.
    pub fn map<U, F>(self, f: F) -> ParMap<'a, T, F>
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
    {
        ParMap {
            slice: self.slice,
            f,
        }
    }
}

/// The result of [`ParIter::map`], awaiting a `collect`.
pub struct ParMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync> ParMap<'a, T, F> {
    /// Executes the map and collects results in input order.
    pub fn collect<C: FromParallelVec<U>>(self) -> C {
        C::from_ordered_vec(self.run())
    }

    fn run(self) -> Vec<U> {
        let (slice, f) = (self.slice, &self.f);
        let mut out: Vec<U> = Vec::with_capacity(slice.len());
        let slots = Shared(out.as_mut_ptr());
        pool::run(slice.len(), &|claims| {
            for i in claims {
                // SAFETY: `i < slice.len()`, the capacity of `out`, and slot
                // `i` is written by the one claimant of index `i`.
                unsafe { slots.at(i).write(f(&slice[i])) };
            }
        });
        // SAFETY: `run` returned instead of unwinding, so the part of every
        // index in `0..len` ran to its end: each slot holds a `U`. (After a
        // panic the vector is dropped empty and the written slots leak.)
        unsafe { out.set_len(slice.len()) };
        out
    }
}

/// Collection targets for [`ParMap::collect`].
pub trait FromParallelVec<U> {
    /// Builds the collection from results already in input order.
    fn from_ordered_vec(v: Vec<U>) -> Self;
}

impl<U> FromParallelVec<U> for Vec<U> {
    fn from_ordered_vec(v: Vec<U>) -> Self {
        v
    }
}

/// Mutably-borrowing conversion into a parallel iterator, mirroring
/// `rayon::iter::IntoParallelRefMutIterator`.
pub trait IntoParallelRefMutIterator<'a> {
    /// Item type yielded by mutable reference.
    type Item: Send + 'a;

    /// Returns a parallel iterator over `&mut self`'s elements.
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;

    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

/// A parallel iterator over mutable slice elements.
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Runs `f` on every element. Allocates nothing once the pool's workers
    /// have started.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        let items = Shared(self.slice.as_mut_ptr());
        pool::run(self.slice.len(), &|claims| {
            for i in claims {
                // SAFETY: `i < slice.len()`, and index `i` has one claimant:
                // this is the only reference to element `i` while the
                // exclusive borrow of the slice is held by `self`.
                f(unsafe { &mut *items.at(i) });
            }
        });
    }
}

/// Owning conversion into a parallel iterator, mirroring
/// `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// The parallel iterator produced.
    type Iter;
    /// The item it yields.
    type Item: Send;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = range::Iter<usize>;
    type Item = usize;

    fn into_par_iter(self) -> Self::Iter {
        range::Iter { range: self }
    }
}

/// Parallel iterators over ranges, mirroring `rayon::range`.
pub mod range {
    use std::ops::Range;

    /// A parallel iterator over a range of indices.
    pub struct Iter<T> {
        pub(crate) range: Range<T>,
    }

    impl Iter<usize> {
        /// Runs `op` on every index of the range.
        pub fn for_each<OP>(self, op: OP)
        where
            OP: Fn(usize) + Sync + Send,
        {
            self.for_each_init(|| (), |(), i| op(i));
        }

        /// Runs `op` on every index of the range, lending it a value `init`
        /// made on the thread that runs it: every thread that claims an
        /// index makes one, uses it for all the indices it claims and drops
        /// it there (published rayon may make more of them; code written
        /// against either cannot tell).
        pub fn for_each_init<OP, INIT, T>(self, init: INIT, op: OP)
        where
            OP: Fn(&mut T, usize) + Sync + Send,
            INIT: Fn() -> T + Sync + Send,
        {
            let start = self.range.start;
            crate::pool::run(self.range.len(), &|claims| {
                let mut state = None;
                for i in claims {
                    op(state.get_or_insert_with(&init), start + i);
                }
            });
        }
    }
}

/// Common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelIterator;
    pub use crate::IntoParallelRefIterator;
    pub use crate::IntoParallelRefMutIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_collects_owned_values_in_order() {
        let input: Vec<usize> = (0..67).collect();
        let out: Vec<String> = input.par_iter().map(|x| format!("item {x}")).collect();
        let serial: Vec<String> = input.iter().map(|x| format!("item {x}")).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn empty_slice_maps_to_empty_vec() {
        let input: Vec<u32> = Vec::new();
        let out: Vec<u32> = input.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn mut_for_each_visits_every_element() {
        let mut input: Vec<u64> = (0..300).collect();
        input.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(input, (1..=300).collect::<Vec<_>>());
    }

    #[test]
    fn an_installed_pool_sets_the_width_and_runs_the_calls_made_under_it() {
        let outside = super::current_num_threads();
        for threads in [1usize, 2, 3] {
            let pool = super::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let doubled: Vec<usize> = pool.install(|| {
                assert_eq!(super::current_num_threads(), threads);
                let input: Vec<usize> = (0..67).collect();
                input.par_iter().map(|&x| 2 * x).collect()
            });
            assert_eq!(doubled, (0..67).map(|x| 2 * x).collect::<Vec<_>>());
            assert_eq!(super::current_num_threads(), outside);
        }
    }

    #[test]
    fn range_for_each_visits_every_index_of_an_offset_range() {
        let hits: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        (7..40).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(
                hit.load(Ordering::Relaxed),
                usize::from(i >= 7),
                "index {i}"
            );
        }
    }

    /// A claimant's state is made on its own thread, lazily, and serves every
    /// index that thread claims: never more states than indices or threads,
    /// none for an empty range.
    #[test]
    fn range_for_each_init_makes_one_state_per_claimant() {
        for len in [0usize, 1, 2, 50] {
            let (made, sum) = (AtomicUsize::new(0), AtomicUsize::new(0));
            (0..len).into_par_iter().for_each_init(
                || {
                    made.fetch_add(1, Ordering::Relaxed);
                    std::thread::current().id()
                },
                |maker, i| {
                    assert_eq!(*maker, std::thread::current().id());
                    sum.fetch_add(i + 1, Ordering::Relaxed);
                },
            );
            assert_eq!(sum.load(Ordering::Relaxed), len * (len + 1) / 2);
            let made = made.load(Ordering::Relaxed);
            assert!(
                made <= len.min(super::current_num_threads()),
                "{made} states for {len}"
            );
            assert_eq!(made == 0, len == 0);
        }
    }
}
