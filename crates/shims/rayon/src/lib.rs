//! Offline stand-in for `rayon`.
//!
//! Provides the small parallel-iterator surface the workspace uses —
//! `slice.par_iter().map(f).collect::<Vec<_>>()` and
//! `slice.par_iter_mut().for_each(f)` — implemented with `std::thread::scope`
//! over contiguous chunks. Results are concatenated in input order, so a
//! parallel map is *order-identical* (and therefore bit-identical) to its
//! serial counterpart; with one available core the work degenerates to a
//! plain serial loop with no thread spawns.

use std::num::NonZeroUsize;

/// Number of worker threads a parallel operation will use.
///
/// Honors `RAYON_NUM_THREADS` (like real rayon's default pool) so tests that
/// must stay single-threaded — e.g. allocation-sentinel scopes, where a
/// `thread::scope` spawn would itself allocate — can pin the shim serial.
/// The value is read once per process.
pub fn current_num_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
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
        let n = self.slice.len();
        let threads = current_num_threads().min(n.max(1));
        if threads <= 1 {
            return self.slice.iter().map(&self.f).collect();
        }
        let chunk = n.div_ceil(threads);
        let f = &self.f;
        let mut pieces: Vec<Vec<U>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .slice
                .chunks(chunk)
                .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<U>>()))
                .collect();
            for handle in handles {
                pieces.push(handle.join().expect("rayon-shim map worker panicked"));
            }
        });
        let mut out = Vec::with_capacity(n);
        for piece in pieces {
            out.extend(piece);
        }
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
    /// Runs `f` on every element. Allocates nothing when the work runs
    /// serially (one thread or one element).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        let n = self.slice.len();
        let threads = current_num_threads().min(n.max(1));
        if threads <= 1 {
            return self.slice.iter_mut().for_each(f);
        }
        let f = &f;
        std::thread::scope(|scope| {
            for part in self.slice.chunks_mut(n.div_ceil(threads)) {
                scope.spawn(move || part.iter_mut().for_each(f));
            }
        });
    }
}

/// Common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
    pub use crate::IntoParallelRefMutIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
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
}
