//! Allocation sentinel over the event engine's steady state.
//!
//! The timer-wheel scheduler claims zero steady-state heap traffic once its
//! slot vectors and ready heap are warm, under both shapes its users give
//! it: a sliding window of schedules and pops (the event driver's pattern:
//! a constant population, one node freed and reused at a time) must recycle
//! slot capacity across wheel laps instead of growing it, and a burst that
//! is scheduled and then drained to empty (an event-driver round, which
//! drains its queue every round) must find the room of the burst before it
//! — a drained wheel forgets its nodes, not their capacity. This binary registers the counting allocator, warms the
//! queue over the exact patterns the assertions replay, then re-runs them
//! under [`assert_no_alloc`].
//!
//! One `#[test]` only: the counters are process-global and the libtest
//! harness spawns an allocating thread per test.

use splitbeam_analysis::alloc_sentinel::{assert_counting, assert_no_alloc, CountingAlloc};
use splitbeam_hwsim::EventQueue;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Pending events held in the window; sized so the wheel spans several
/// levels (delays up to WINDOW * STRIDE_NS cover multiple slot widths).
const WINDOW: usize = 512;
/// Virtual time between successive schedules; coarse enough to spread the
/// window across wheel levels rather than one slot.
const STRIDE_NS: u64 = 40_000;
const WARM_STEPS: usize = 6 * WINDOW;
const HOT_STEPS: usize = 2 * WINDOW;

/// One deterministic sliding-window pass: keep `WINDOW` events pending,
/// popping the earliest as each new event lands — the event driver's steady
/// stream. Delays are a deterministic spread over [STRIDE_NS,
/// WINDOW*STRIDE_NS], so every wheel level the warmup touched is revisited
/// by the asserted run.
fn slide(queue: &mut EventQueue<u64>, start_step: usize, steps: usize) -> u64 {
    let mut acc = 0u64;
    for step in start_step..start_step + steps {
        let now = step as u64 * STRIDE_NS;
        let spread = (step * 131) % WINDOW + 1;
        let fire = now + spread as u64 * STRIDE_NS;
        queue.schedule(fire, (step % 7) as u64, step as u64);
        if queue.len() > WINDOW {
            let (key, payload) = queue.pop().expect("window is non-empty");
            acc = acc.wrapping_add(key.time_ns ^ payload);
        }
    }
    acc
}

/// Drains the queue without asserting, returning the fold (keeps the
/// optimizer honest between phases).
fn drain(queue: &mut EventQueue<u64>) -> u64 {
    let mut acc = 0u64;
    while let Some((key, payload)) = queue.pop() {
        acc = acc.wrapping_add(key.time_ns ^ payload);
    }
    acc
}

/// One round of offers: `WINDOW` scheduled at jittered instants of round
/// `round`, then drained to empty.
fn fill_then_drain(queue: &mut EventQueue<u64>, round: u64) -> u64 {
    let now = round * WINDOW as u64 * STRIDE_NS;
    for offer in 0..WINDOW as u64 {
        let jitter = (offer * 131 + round) % WINDOW as u64 * STRIDE_NS / 8;
        queue.schedule(now + jitter, offer, offer);
    }
    drain(queue)
}

#[test]
fn event_queue_steady_state_is_allocation_free() {
    assert_counting();

    let mut queue = EventQueue::<u64>::with_capacity(WINDOW + 1);
    // Warm: several laps of the sliding window so every slot vector and the
    // ready heap reach their steady capacity.
    let mut sink = slide(&mut queue, 0, WARM_STEPS);
    // Hot: the identical pattern, continued, must not touch the heap.
    sink = sink.wrapping_add(assert_no_alloc("steady-state schedule/pop", || {
        slide(&mut queue, WARM_STEPS, HOT_STEPS)
    }));
    sink = sink.wrapping_add(drain(&mut queue));

    // A round drained to empty, on a queue of its own: two rounds warm the
    // slab and the ready heap, the third finds both where the second left
    // them.
    let mut queue = EventQueue::<u64>::with_capacity(WINDOW);
    for round in 0..2 {
        sink = sink.wrapping_add(fill_then_drain(&mut queue, round));
    }
    sink = sink.wrapping_add(assert_no_alloc("warm fill-then-drain round", || {
        fill_then_drain(&mut queue, 2)
    }));
    assert!(queue.is_empty());
    assert_ne!(sink, 0, "the folds must observe real pops");
}
