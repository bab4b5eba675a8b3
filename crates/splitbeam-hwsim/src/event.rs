//! Discrete-event virtual-time core: clock, scheduler, jitter, shared medium.
//!
//! The serving stack used to be round-lockstep — every station's feedback
//! landed "simultaneously" and the delay model was consulted only after the
//! fact. This module makes time a first-class simulation dimension:
//!
//! * a **virtual clock** counted in integer nanoseconds ([`VirtualNs`]) — no
//!   wall clock anywhere, so runs are bit-reproducible,
//! * an **event scheduler** ([`EventQueue`]): a priority queue with
//!   deterministic tie-breaking by `(time, station_id, seq)` — two events
//!   at the same instant pop in station order, two events of one station pop
//!   in schedule order. It is a hierarchical **timer wheel** (`crate::wheel`,
//!   O(1) amortized, built for fleet-scale event counts). The original
//!   **binary heap**, which defines that order, survives as the test oracle
//!   `HeapEventQueue` under `cfg(test)`,
//! * **seeded jitter** ([`SeededJitter`]): per-event timing noise drawn from a
//!   deterministic stream,
//! * a **shared medium** ([`SharedMedium`]): feedback frames serialize on the
//!   air one at a time, each occupying exactly
//!   [`wifi_phy::sounding::feedback_frame_airtime_s`] — the same per-frame
//!   primitive the round-level airtime math sums — so concurrent stations
//!   contend for airtime instead of arriving for free.

use crate::wheel::TimerWheel;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wifi_phy::sounding::feedback_frame_airtime_s;

/// Virtual time in integer nanoseconds since simulation start.
pub type VirtualNs = u64;

/// Converts seconds to virtual nanoseconds (saturating, rounded to nearest).
pub fn s_to_ns(seconds: f64) -> VirtualNs {
    if seconds <= 0.0 {
        return 0;
    }
    let ns = (seconds * 1e9).round();
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    }
}

/// Converts virtual nanoseconds to seconds.
pub fn ns_to_s(ns: VirtualNs) -> f64 {
    ns as f64 / 1e9
}

/// Total order of scheduled events: time first, then station id, then the
/// scheduler-assigned sequence number. The triple is unique per event, so the
/// pop order is fully deterministic regardless of heap internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Virtual firing time.
    pub time_ns: VirtualNs,
    /// Station the event belongs to (tie-break one).
    pub station: u64,
    /// Monotonic schedule counter (tie-break two; unique per queue).
    pub seq: u64,
}

/// A deterministic discrete-event scheduler over [`EventKey`]: a hierarchical
/// timer wheel — `O(1)` amortized schedule/pop, allocation-free in steady
/// state once warm (pinned by the `alloc_event_queue` sentinel). Payloads need
/// no ordering of their own.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    wheel: TimerWheel<T>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            wheel: TimerWheel::new(),
            next_seq: 0,
        }
    }

    /// An empty queue pre-sized for `events` pending events, so bursts up to
    /// that size never regrow the backing storage.
    pub fn with_capacity(events: usize) -> Self {
        let mut queue = Self::new();
        queue.reserve(events);
        queue
    }

    /// Reserves room for at least `additional` more pending events, so bursts
    /// up to the reserved size never regrow the backing storage.
    pub fn reserve(&mut self, additional: usize) {
        self.wheel.reserve(additional);
    }

    /// Name of the scheduler implementation, for reports.
    pub fn backend_name(&self) -> &'static str {
        "wheel"
    }

    /// Schedules `payload` for `station` at `time_ns`, returning the assigned
    /// key (the sequence number makes it unique).
    pub fn schedule(&mut self, time_ns: VirtualNs, station: u64, payload: T) -> EventKey {
        let key = EventKey {
            time_ns,
            station,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.wheel.schedule(key, payload);
        key
    }

    /// Removes and returns the earliest event (ties broken by station, then
    /// schedule order).
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        self.wheel.pop()
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<VirtualNs> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
pub use oracle::HeapEventQueue;

/// The binary min-heap scheduler the timer wheel replaced, kept as the test
/// oracle that defines [`EventQueue`]'s pop order.
#[cfg(test)]
mod oracle {
    use super::{EventKey, VirtualNs};
    use std::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;

    /// `O(log n)` binary-heap scheduler with [`EventQueue`](super::EventQueue)'s
    /// schedule/pop surface; the wheel must match its pop stream bit for bit.
    #[derive(Debug, Clone)]
    pub struct HeapEventQueue<T> {
        heap: BinaryHeap<Reverse<Entry<T>>>,
        next_seq: u64,
    }

    #[derive(Debug, Clone)]
    struct Entry<T> {
        key: EventKey,
        payload: T,
    }

    impl<T> PartialEq for Entry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl<T> Eq for Entry<T> {}
    impl<T> PartialOrd for Entry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T> Ord for Entry<T> {
        fn cmp(&self, other: &Self) -> Ordering {
            self.key.cmp(&other.key)
        }
    }

    impl<T> Default for HeapEventQueue<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> HeapEventQueue<T> {
        /// An empty queue.
        pub fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        /// Reserves room for at least `additional` more pending events.
        pub fn reserve(&mut self, additional: usize) {
            self.heap.reserve(additional);
        }

        /// Schedules `payload` for `station` at `time_ns`, returning the
        /// assigned key.
        pub fn schedule(&mut self, time_ns: VirtualNs, station: u64, payload: T) -> EventKey {
            let key = EventKey {
                time_ns,
                station,
                seq: self.next_seq,
            };
            self.next_seq += 1;
            self.heap.push(Reverse(Entry { key, payload }));
            key
        }

        /// Removes and returns the earliest event.
        pub fn pop(&mut self) -> Option<(EventKey, T)> {
            self.heap.pop().map(|Reverse(e)| (e.key, e.payload))
        }

        /// Firing time of the earliest pending event.
        pub fn peek_time(&self) -> Option<VirtualNs> {
            self.heap.peek().map(|Reverse(e)| e.key.time_ns)
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Whether no events are pending.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }
}

/// Deterministic per-event timing noise: uniform draws in `[0, max_ns]` from a
/// seeded stream. `max_ns == 0` disables jitter (and draws nothing from the
/// stream, so enabling jitter never perturbs other seeded decisions).
#[derive(Debug, Clone)]
pub struct SeededJitter {
    max_ns: VirtualNs,
    rng: ChaCha8Rng,
}

impl SeededJitter {
    /// Jitter with amplitude `max_ns`, seeded with `seed`.
    pub fn new(max_ns: VirtualNs, seed: u64) -> Self {
        Self {
            max_ns,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// No jitter: every draw is zero.
    pub fn none() -> Self {
        Self::new(0, 0)
    }

    /// The configured amplitude.
    pub fn max_ns(&self) -> VirtualNs {
        self.max_ns
    }

    /// Draws the next jitter value in `[0, max_ns]`.
    pub fn draw(&mut self) -> VirtualNs {
        if self.max_ns == 0 {
            return 0;
        }
        self.rng.gen_range(0..=self.max_ns)
    }
}

/// Deterministic periodic watermark generator for streaming micro-batch
/// serving: a virtual-time tick every `step_ns`, starting at `next_ns`.
///
/// The streaming server closes a shard's micro-batch when a watermark passes
/// the Eq. 7d service deadline of the shard's oldest pending frame. Watermarks
/// are pure virtual-time arithmetic — no wall clock, no jitter — so the same
/// event trace always produces the same watermark sequence, which is what
/// keeps streaming runs bit-reproducible and lets the single-watermark
/// degenerate case collapse back to lockstep round closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatermarkClock {
    next_ns: VirtualNs,
    step_ns: VirtualNs,
}

impl WatermarkClock {
    /// A clock whose first watermark fires at `start_ns` and every `step_ns`
    /// after (step clamped to at least 1 ns so the clock always advances).
    pub fn new(start_ns: VirtualNs, step_ns: VirtualNs) -> Self {
        Self {
            next_ns: start_ns,
            step_ns: step_ns.max(1),
        }
    }

    /// The next watermark instant that has not fired yet.
    #[cfg(test)]
    pub fn next_ns(&self) -> VirtualNs {
        self.next_ns
    }

    /// The configured step.
    pub fn step_ns(&self) -> VirtualNs {
        self.step_ns
    }

    /// Fires the next watermark if it is due at `now_ns` (inclusive),
    /// advancing the clock by one step. Call in a loop to drain every due
    /// watermark one at a time — each fired watermark is returned exactly
    /// once, in order, even when `now_ns` jumps several steps ahead. A clock
    /// that has saturated at `VirtualNs::MAX` ("never") stops firing, so a
    /// drain loop against a saturated deadline terminates.
    pub fn pop_due(&mut self, now_ns: VirtualNs) -> Option<VirtualNs> {
        if self.next_ns > now_ns || self.next_ns == VirtualNs::MAX {
            return None;
        }
        let fired = self.next_ns;
        self.next_ns = self.next_ns.saturating_add(self.step_ns);
        Some(fired)
    }
}

/// What one frame's trip across the shared medium cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediumGrant {
    /// When the frame started transmitting (>= its ready time).
    pub start_ns: VirtualNs,
    /// When the last bit left the air (arrival at the AP).
    pub end_ns: VirtualNs,
    /// Time spent queueing behind earlier frames (`start - ready`).
    pub wait_ns: VirtualNs,
    /// On-air duration of the frame itself.
    pub air_ns: VirtualNs,
}

/// A single shared wireless medium: frames serialize, one at a time, in the
/// order they are offered. Each frame occupies the air for exactly
/// [`feedback_frame_airtime_s`] of its payload size — the same per-frame
/// primitive `wifi_phy::sounding::sounding_round_airtime` sums — so the
/// *per-bit* cost of medium contention and of the round-level airtime model
/// can never drift apart. Callers choose what bit count to charge: the
/// event-driven serving driver feeds the **actual encoded wire frame** size
/// (header and trailer included, byte-rounded — `splitbeam::wire::encoded_len`),
/// whereas the analytic Fig. 7 accounting feeds the paper's
/// headerless `model_feedback_bits` convention.
///
/// Offer frames in nondecreasing ready-time order (pop them from an
/// [`EventQueue`]) for physical FIFO semantics; the model itself only
/// guarantees that transmissions never overlap.
#[derive(Debug, Clone)]
pub struct SharedMedium {
    /// Feedback data rate in Mbit/s; `None` models an ideal (zero-airtime)
    /// medium — the lockstep degenerate case.
    rate_mbps: Option<f64>,
    busy_until_ns: VirtualNs,
    frames_carried: u64,
    total_air_ns: VirtualNs,
    total_wait_ns: VirtualNs,
}

impl SharedMedium {
    /// A medium transmitting feedback at `rate_mbps`.
    pub fn new(rate_mbps: f64) -> Self {
        assert!(rate_mbps > 0.0, "medium rate must be positive");
        Self {
            rate_mbps: Some(rate_mbps),
            busy_until_ns: 0,
            frames_carried: 0,
            total_air_ns: 0,
            total_wait_ns: 0,
        }
    }

    /// An ideal medium: frames take zero airtime and never queue. This is the
    /// degenerate case that recovers lockstep serving bit-exactly.
    pub fn ideal() -> Self {
        Self {
            rate_mbps: None,
            busy_until_ns: 0,
            frames_carried: 0,
            total_air_ns: 0,
            total_wait_ns: 0,
        }
    }

    /// On-air duration of one `payload_bits` frame on this medium.
    pub fn frame_airtime_ns(&self, payload_bits: usize) -> VirtualNs {
        match self.rate_mbps {
            Some(rate) => s_to_ns(feedback_frame_airtime_s(payload_bits, rate)),
            None => 0,
        }
    }

    /// Serializes one frame that becomes ready at `ready_ns`: it starts once
    /// the air is free, occupies it for the frame's airtime, and arrives when
    /// the last bit lands.
    pub fn transmit(&mut self, ready_ns: VirtualNs, payload_bits: usize) -> MediumGrant {
        let air_ns = self.frame_airtime_ns(payload_bits);
        let start_ns = ready_ns.max(self.busy_until_ns);
        let end_ns = start_ns.saturating_add(air_ns);
        self.busy_until_ns = end_ns;
        self.frames_carried += 1;
        self.total_air_ns += air_ns;
        self.total_wait_ns += start_ns - ready_ns;
        MediumGrant {
            start_ns,
            end_ns,
            wait_ns: start_ns - ready_ns,
            air_ns,
        }
    }

    /// When the medium next becomes idle.
    pub fn busy_until_ns(&self) -> VirtualNs {
        self.busy_until_ns
    }

    /// Frames carried so far.
    pub fn frames_carried(&self) -> u64 {
        self.frames_carried
    }

    /// Cumulative on-air time of all carried frames.
    pub fn total_air_ns(&self) -> VirtualNs {
        self.total_air_ns
    }

    /// Cumulative queueing (medium-wait) time across all carried frames.
    pub fn total_wait_ns(&self) -> VirtualNs {
        self.total_wait_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbeam::airtime::model_feedback_bits;
    use splitbeam::config::{CompressionLevel, SplitBeamConfig};
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};
    use wifi_phy::sounding::SoundingConfig;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(s_to_ns(0.0), 0);
        assert_eq!(s_to_ns(-1.0), 0);
        assert_eq!(s_to_ns(1e-9), 1);
        assert_eq!(s_to_ns(0.01), 10_000_000);
        assert!((ns_to_s(10_000_000) - 0.01).abs() < 1e-15);
        assert_eq!(s_to_ns(f64::MAX), u64::MAX);
    }

    #[test]
    fn queue_pops_in_time_station_seq_order() {
        // One body for the wheel and its oracle: they share no trait, only
        // the same method names.
        macro_rules! check {
            ($queue:expr, $name:literal) => {{
                let mut q = $queue;
                q.schedule(50, 9, "late");
                q.schedule(10, 7, "tie-station-7-first-scheduled");
                q.schedule(10, 7, "tie-station-7-second-scheduled");
                q.schedule(10, 3, "tie-station-3");
                q.schedule(5, 11, "earliest");
                assert_eq!(q.len(), 5);
                assert_eq!(q.peek_time(), Some(5), $name);
                let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
                assert_eq!(
                    order,
                    vec![
                        "earliest",
                        "tie-station-3",
                        "tie-station-7-first-scheduled",
                        "tie-station-7-second-scheduled",
                        "late",
                    ],
                    $name
                );
                assert!(q.is_empty());
            }};
        }
        check!(HeapEventQueue::new(), "heap");
        check!(EventQueue::new(), "wheel");
    }

    /// The wheel is the heap oracle's bit-for-bit twin: under a seeded
    /// random interleaving of schedules and pops — deliberate (time,
    /// station) ties, spreads crossing every wheel level, and schedules
    /// landing before an already-advanced horizon — both return identical
    /// `(key, payload)` streams. The interleaving schedules more than it
    /// pops, so every thousandth step drains both to empty: the wheel
    /// forgets its nodes there, and what follows runs on a slab started over
    /// behind a horizon that did not.
    #[test]
    fn wheel_and_heap_pop_identically_under_random_interleaving() {
        for seed in 0..4u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(0xEEE + seed);
            let mut heap = HeapEventQueue::new();
            let mut wheel = EventQueue::new();
            let mut popped = 0u64;
            let mut refills = 0u64;
            for step in 0..4_000u64 {
                if step % 1_000 == 999 {
                    while let Some(expect) = heap.pop() {
                        assert_eq!(wheel.pop(), Some(expect), "seed {seed} step {step}");
                        popped += 1;
                    }
                    assert!(wheel.is_empty() && wheel.pop().is_none());
                    refills += 1;
                }
                if rng.gen_bool(0.55) || heap.is_empty() {
                    // Mix fine offsets (same-tick ties) with jumps across
                    // wheel levels.
                    let horizon: u64 = 1u64 << rng.gen_range(0..44u32);
                    // One schedule in sixteen lands at the top of the
                    // 54-bit tick space: the last instants, or either side
                    // of a top-level slot boundary (a slot there is 2^58 ns).
                    let time = match rng.gen_range(0..64u32) {
                        0 => VirtualNs::MAX,
                        1 => VirtualNs::MAX - 1,
                        2 => rng.gen_range(1..64u64) << 58,
                        3 => (rng.gen_range(1..64u64) << 58) - 1,
                        _ => rng.gen_range(0..=horizon),
                    };
                    let station = rng.gen_range(0..7);
                    let a = heap.schedule(time, station, step);
                    let b = wheel.schedule(time, station, step);
                    assert_eq!(a, b);
                } else {
                    assert_eq!(heap.pop(), wheel.pop(), "seed {seed} step {step}");
                    popped += 1;
                }
                assert_eq!(heap.len(), wheel.len());
                assert_eq!(heap.peek_time(), wheel.peek_time());
            }
            while let Some(expect) = heap.pop() {
                assert_eq!(wheel.pop(), Some(expect), "seed {seed} drain");
                popped += 1;
            }
            assert!(wheel.is_empty());
            assert!(popped > 1_000, "interleaving degenerated: {popped} pops");
            assert!(
                refills >= 3,
                "seed {seed}: drained and refilled {refills} times"
            );
        }
    }

    /// The top of the tick space, fixed: the last two instants, both sides
    /// of the first and the last top-level slot boundary, ties among them
    /// and an early event — scheduled out of order, popped by `(time,
    /// station, seq)`, then scheduled again behind the advanced horizon.
    #[test]
    fn the_top_of_the_tick_space_pops_in_order() {
        let top = |slot: u64| slot << 58;
        let times = [
            VirtualNs::MAX,
            top(1),
            VirtualNs::MAX - 1,
            top(63),
            top(63) - 1,
            0,
            VirtualNs::MAX,
            top(1) - 1,
            top(63),
        ];
        let mut heap = HeapEventQueue::new();
        let mut wheel = EventQueue::new();
        for round in 0..2u64 {
            for (i, &time) in times.iter().enumerate() {
                let station = i as u64 % 3;
                let payload = round * 100 + i as u64;
                let key = heap.schedule(time, station, payload);
                assert_eq!(wheel.schedule(time, station, payload), key);
            }
            assert_eq!(wheel.peek_time(), Some(0));
            let mut last = None;
            while let Some((key, payload)) = heap.pop() {
                assert_eq!(wheel.pop(), Some((key, payload)), "round {round}");
                assert!(last < Some(key), "round {round}: {last:?} then {key:?}");
                last = Some(key);
            }
            assert_eq!(last.map(|key| key.time_ns), Some(VirtualNs::MAX));
            assert!(wheel.is_empty());
        }
    }

    #[test]
    fn capacity_presizes_and_the_backend_is_the_wheel() {
        assert_eq!(EventQueue::<()>::new().backend_name(), "wheel");
        let mut sized: EventQueue<u8> = EventQueue::with_capacity(1024);
        sized.reserve(128);
        sized.schedule(3, 0, 1);
        assert_eq!(sized.pop().map(|(_, p)| p), Some(1));
    }

    #[test]
    fn queue_keys_are_unique_and_monotonic_in_seq() {
        let mut q = EventQueue::new();
        let a = q.schedule(1, 1, ());
        let b = q.schedule(1, 1, ());
        assert!(a.seq < b.seq);
        assert_ne!(a, b);
    }

    #[test]
    fn jitter_is_seeded_bounded_and_deterministic() {
        let mut a = SeededJitter::new(1000, 42);
        let mut b = SeededJitter::new(1000, 42);
        let draws: Vec<u64> = (0..64).map(|_| a.draw()).collect();
        assert!(draws.iter().all(|&d| d <= 1000));
        assert!(draws.iter().any(|&d| d > 0), "jitter must actually jitter");
        assert_eq!(draws, (0..64).map(|_| b.draw()).collect::<Vec<_>>());
        let mut none = SeededJitter::none();
        assert_eq!((0..8).map(|_| none.draw()).max(), Some(0));
        assert_eq!(none.max_ns(), 0);
    }

    #[test]
    fn watermark_clock_fires_each_tick_exactly_once_in_order() {
        let mut clock = WatermarkClock::new(100, 50);
        assert_eq!(clock.next_ns(), 100);
        assert_eq!(clock.pop_due(99), None);
        // Due boundary is inclusive.
        assert_eq!(clock.pop_due(100), Some(100));
        assert_eq!(clock.pop_due(100), None);
        // A jump several steps ahead drains one watermark per call, in order.
        let fired: Vec<VirtualNs> = std::iter::from_fn(|| clock.pop_due(260)).collect();
        assert_eq!(fired, vec![150, 200, 250]);
        assert_eq!(clock.next_ns(), 300);
        // Zero step is clamped so the clock still advances.
        let mut degenerate = WatermarkClock::new(0, 0);
        assert_eq!(degenerate.step_ns(), 1);
        assert_eq!(degenerate.pop_due(0), Some(0));
        assert_eq!(degenerate.pop_due(0), None);
        // The end of time is "never": a saturated clock does not fire.
        let mut last = WatermarkClock::new(VirtualNs::MAX - 1, 50);
        assert_eq!(last.pop_due(VirtualNs::MAX), Some(VirtualNs::MAX - 1));
        assert_eq!(last.pop_due(VirtualNs::MAX), None);
    }

    #[test]
    fn medium_serializes_overlapping_frames() {
        let mut medium = SharedMedium::new(240.0);
        let bits = 24_000; // 0.1 ms payload at 240 Mbit/s + 60 us overhead
        let air = medium.frame_airtime_ns(bits);
        assert_eq!(air, 160_000); // 60 us + 100 us
                                  // Two frames ready at the same instant: the second queues.
        let g1 = medium.transmit(1_000, bits);
        let g2 = medium.transmit(1_000, bits);
        assert_eq!((g1.start_ns, g1.end_ns, g1.wait_ns), (1_000, 161_000, 0));
        assert_eq!((g2.start_ns, g2.end_ns), (161_000, 321_000));
        assert_eq!(g2.wait_ns, 160_000);
        // A frame ready after the air clears sails through.
        let g3 = medium.transmit(400_000, bits);
        assert_eq!((g3.start_ns, g3.wait_ns), (400_000, 0));
        assert_eq!(medium.frames_carried(), 3);
        assert_eq!(medium.total_air_ns(), 3 * air);
        assert_eq!(medium.total_wait_ns(), 160_000);
        assert_eq!(medium.busy_until_ns(), 560_000);
    }

    #[test]
    fn ideal_medium_is_free_and_instant() {
        let mut medium = SharedMedium::ideal();
        for ready in [0u64, 5, 5, 1000] {
            let g = medium.transmit(ready, 1_000_000);
            assert_eq!(
                (g.start_ns, g.end_ns, g.wait_ns, g.air_ns),
                (ready, ready, 0, 0)
            );
        }
        assert_eq!(medium.total_air_ns(), 0);
        assert_eq!(medium.total_wait_ns(), 0);
    }

    /// The medium against queueing theory: Poisson arrivals at load ρ into a
    /// deterministic server (one frame's airtime `D`) are an M/D/1 queue, whose
    /// mean wait is `ρ·D / (2(1−ρ))` (Pollaczek–Khinchine). A medium that
    /// charged a wait twice, or let a frame start before the air cleared,
    /// cannot land inside 3 % of it at three loads. Seeds are fixed: at ρ = 0.8
    /// the waits are correlated over ~25 services, so the sample mean of 400k
    /// frames still wanders about 1 % from seed to seed.
    #[test]
    fn mean_wait_matches_the_m_d_1_closed_form() {
        const BITS: usize = 1_792;
        const FRAMES: u64 = 400_000;
        for (rho, seed) in [(0.3, 31u64), (0.6, 32), (0.8, 33)] {
            let mut medium = SharedMedium::new(24.0);
            let service_ns = medium.frame_airtime_ns(BITS) as f64;
            let mean_gap_ns = service_ns / rho;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut ready_ns = 0.0f64;
            for _ in 0..FRAMES {
                let u: f64 = rng.gen();
                ready_ns -= (1.0 - u).ln() * mean_gap_ns;
                let grant = medium.transmit(ready_ns as VirtualNs, BITS);
                assert_eq!(grant.air_ns as f64, service_ns);
            }
            let measured = medium.total_wait_ns() as f64 / FRAMES as f64;
            let closed_form = rho * service_ns / (2.0 * (1.0 - rho));
            let error = (measured - closed_form).abs() / closed_form;
            assert!(
                error < 0.03,
                "rho {rho}: mean wait {measured:.0} ns vs M/D/1 {closed_form:.0} ns ({:.2} % off)",
                error * 100.0
            );
            let utilisation = medium.total_air_ns() as f64 / medium.busy_until_ns() as f64;
            assert!((utilisation - rho).abs() < 0.01, "rho {rho}: {utilisation}");
        }
    }

    /// Satellite consistency test: the medium's per-frame airtime is the same
    /// shared primitive the round-level airtime model sums, across bandwidths
    /// × MIMO orders × quantizer widths — the two can never drift.
    #[test]
    fn medium_airtime_matches_round_airtime_math_across_grid() {
        let bandwidths = [
            Bandwidth::Mhz20,
            Bandwidth::Mhz40,
            Bandwidth::Mhz80,
            Bandwidth::Mhz160,
        ];
        for &n in &[2usize, 3, 4] {
            for &bw in &bandwidths {
                for bits in [1u8, 4, 8, 16] {
                    let config = SplitBeamConfig::new(
                        MimoConfig::symmetric(n, bw),
                        CompressionLevel::OneEighth,
                    );
                    let sounding = SoundingConfig::new(bw, n);
                    let medium = SharedMedium::new(sounding.feedback_rate_mbps);
                    let payload_bits = model_feedback_bits(&config, bits);
                    let via_medium = medium.frame_airtime_ns(payload_bits);
                    let via_airtime = s_to_ns(feedback_frame_airtime_s(
                        payload_bits,
                        sounding.feedback_rate_mbps,
                    ));
                    assert_eq!(
                        via_medium, via_airtime,
                        "{n}x{n} @ {bw:?}, {bits} bits/value"
                    );
                }
            }
        }
    }
}
