//! Bounded FIFO for the streaming lane's frame hand-off.
//!
//! The per-shard ingest queue behind streaming micro-batch serving: ingest
//! pushes decoded frames as they arrive, the shard's watermark close pops
//! them in FIFO order, each exactly once. A lane is only ever touched through
//! its shard's `&mut self` (the parallel round close hands each shard to one
//! task), so the queue is a plain [`VecDeque`] with a bound and nothing to
//! synchronize.

use std::cell::RefCell;
use std::collections::VecDeque;

/// Bounded single-threaded FIFO. `push` never blocks: a full ring hands the
/// value back as `Err`, which the serving layer surfaces as
/// [`crate::ServeError::Backpressure`] instead of silently dropping.
///
/// Capacity is rounded up to the next power of two (minimum 2) and
/// [`Ring::with_capacity`] sizes the buffer for it up front; a clone is
/// sized to its contents and grows on demand, up to the same bound.
///
/// The methods take `&self` and the queue sits in a [`RefCell`] because the
/// benchmark package (frozen to product PRs) drives `push`/`pop` through a
/// shared binding; they become `&mut self` in a PR that owns `benchmark/`.
/// No method hands out a borrow, and the only caller code that runs under
/// one is [`Ring::pop_if`]'s predicate, which is given the head element and
/// not the ring — so the run-time borrow check cannot fail.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    queue: RefCell<VecDeque<T>>,
    capacity: usize,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` elements (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        Self {
            queue: RefCell::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// Most elements the ring holds at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.queue.borrow().len()
    }

    /// Whether the ring currently holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue `value`; returns it back when the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut queue = self.queue.borrow_mut();
        if queue.len() == self.capacity {
            return Err(value);
        }
        queue.push_back(value);
        Ok(())
    }

    /// Attempts to dequeue the oldest element.
    pub fn pop(&self) -> Option<T> {
        self.pop_if(|_| true)
    }

    /// Dequeues the oldest element iff `due` accepts it — the head gate of a
    /// FIFO drain: nothing behind a refused head is looked at.
    pub fn pop_if(&self, due: impl FnOnce(&T) -> bool) -> Option<T> {
        let mut queue = self.queue.borrow_mut();
        if due(queue.front()?) {
            queue.pop_front()
        } else {
            None
        }
    }

    /// Drops every queued element `keep` refuses; the rest keep their order.
    pub(crate) fn retain_mut(&mut self, keep: impl FnMut(&mut T) -> bool) {
        self.queue.get_mut().retain_mut(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::VecDeque;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Ring::<u32>::with_capacity(0).capacity(), 2);
        assert_eq!(Ring::<u32>::with_capacity(1).capacity(), 2);
        assert_eq!(Ring::<u32>::with_capacity(5).capacity(), 8);
        assert_eq!(Ring::<u32>::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn push_pop_fifo_and_full_empty_edges() {
        let ring = Ring::with_capacity(4);
        assert!(ring.is_empty());
        assert_eq!(ring.pop(), None);
        for i in 0..4 {
            ring.push(i).expect("room");
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.push(99), Err(99));
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
        // Wrap around a few laps.
        for lap in 0..10 {
            ring.push(lap).expect("room after drain");
            assert_eq!(ring.pop(), Some(lap));
        }
    }

    #[test]
    fn pop_if_gates_on_the_head_and_a_clone_keeps_the_bound() {
        let mut ring = Ring::with_capacity(4);
        assert_eq!(ring.pop_if(|_| true), None);
        for v in [5, 1, 2, 6] {
            ring.push(v).expect("room");
        }
        // 1 and 2 would pass, but they queue behind a refused head.
        assert_eq!(ring.pop_if(|&v| v < 3), None);
        assert_eq!(ring.pop_if(|&v| v == 5), Some(5));
        assert_eq!(ring.pop_if(|&v| v < 3), Some(1));
        let copy = ring.clone();
        ring.retain_mut(|v| *v != 2);
        assert_eq!((ring.pop(), ring.pop(), ring.pop()), (Some(6), None, None));
        assert_eq!((copy.len(), copy.capacity()), (2, 4));
        copy.push(7).expect("room");
        copy.push(8).expect("room");
        assert_eq!(copy.push(9), Err(9));
        assert_eq!(copy.pop(), Some(2));
    }

    /// Seeded single-threaded model check: the ring must agree with a
    /// `VecDeque` under an arbitrary interleaving of pushes and pops,
    /// including full/empty boundary behaviour.
    #[test]
    fn seeded_model_check_against_vecdeque() {
        for seed in 0..4u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_0000 + seed);
            let ring = Ring::with_capacity(8);
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut next = 0u64;
            for _ in 0..4000 {
                if rng.gen_bool(0.55) {
                    match ring.push(next) {
                        Ok(()) => {
                            model.push_back(next);
                            assert!(model.len() <= ring.capacity());
                        }
                        Err(v) => {
                            assert_eq!(v, next);
                            assert_eq!(
                                model.len(),
                                ring.capacity(),
                                "push failed but model not full"
                            );
                        }
                    }
                    next += 1;
                } else {
                    assert_eq!(ring.pop(), model.pop_front());
                }
                assert_eq!(ring.len(), model.len());
            }
        }
    }

    #[test]
    fn drop_runs_destructors_of_queued_values() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let ring = Ring::with_capacity(8);
            for _ in 0..5 {
                ring.push(Counted).ok().expect("room");
            }
            drop(ring.pop());
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }
}
