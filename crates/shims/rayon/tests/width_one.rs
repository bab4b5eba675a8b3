//! `RAYON_NUM_THREADS=1`: every parallel call is a loop on its caller and no
//! thread is ever started. One `#[test]` only — the width is read once per
//! process, and the thread count below is the process's.

use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Threads of this process, where the system can say.
fn threads_alive() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(Iterator::count)
}

#[test]
fn width_one_spawns_no_thread() {
    // Before the first parallel call, which is when the shim reads it.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    assert_eq!(rayon::current_num_threads(), 1);
    let before = threads_alive();
    let caller = std::thread::current().id();

    let mut items: Vec<u64> = (0..300).collect();
    items.par_iter_mut().for_each(|x| {
        assert_eq!(std::thread::current().id(), caller);
        *x += 1;
    });
    assert_eq!(items, (1..=300).collect::<Vec<_>>());

    let doubled: Vec<u64> = items
        .par_iter()
        .map(|&x| {
            assert_eq!(std::thread::current().id(), caller);
            2 * x
        })
        .collect();
    assert_eq!(doubled, (1..=300).map(|x| 2 * x).collect::<Vec<_>>());

    let sum = AtomicUsize::new(0);
    (0..100).into_par_iter().for_each(|i| {
        assert_eq!(std::thread::current().id(), caller);
        sum.fetch_add(i, Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 4950);

    assert_eq!(threads_alive(), before, "a parallel call started a thread");
}
