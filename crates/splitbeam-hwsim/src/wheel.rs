//! Hierarchical timer wheel over [`VirtualNs`] — the event scheduler behind
//! [`EventQueue`](crate::event::EventQueue).
//!
//! A binary heap pays `O(log n)` per operation with `n` pointer-chasing
//! comparisons. The classic alternative for interleaved schedule/pop — the
//! event driver's retries, scheduled while the round drains — is a hashed
//! hierarchical timing wheel (Varghese & Lauck): virtual time is split into
//! power-of-two ticks, each wheel level covers 64 slots of exponentially
//! wider span, and schedule/advance are `O(1)` amortized. (A burst that is
//! only filled and then drained, with nothing scheduled in between, needs no
//! scheduler: the fleet sorts its round's offers once.)
//!
//! # Determinism contract
//!
//! The wheel preserves the documented `(time_ns, station, seq)` pop order of
//! the binary-heap oracle (`HeapEventQueue`) **bit-for-bit**:
//!
//! * Every event whose tick is at or before the wheel's current horizon sits
//!   in a small `ready` min-heap ordered by the full [`EventKey`] — same-tick
//!   ties therefore break exactly like the binary heap.
//! * Every event still in the wheel proper has a tick *strictly after* the
//!   horizon, and one tick is wider than any intra-tick time offset, so the
//!   `ready` minimum is always globally minimal. Cascading a slot only moves
//!   events downward (towards `ready`), never reorders them relative to the
//!   key order.
//!
//! # Storage
//!
//! Events live in a free-listed node slab; each slot is an intrusive singly
//! linked chain through the slab (a head index per slot, `next` links in the
//! nodes). Scheduling, cascading and popping therefore move *indices*, never
//! buffers: once the slab and the `ready` heap have reached their peak
//! shape, steady-state schedule→pop cycles allocate nothing, no matter which
//! slots absolute time happens to touch (pinned by the `alloc_event_queue`
//! sentinel in `splitbeam-analysis`). A wheel that pops its last event
//! forgets its nodes and keeps their capacity, so a user that drains to
//! empty (an event-driver round) is handed nodes in index order by every
//! burst instead of in the order the previous one fired.

use crate::event::{EventKey, VirtualNs};
use crate::prefetch::prefetch_read;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the tick width: one tick is 1024 ns (~1 µs). Finer than any
/// scheduling quantum the serving stack uses; all sub-tick ordering is
/// resolved by the `ready` heap on the full key.
const TICK_BITS: u32 = 10;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed to cover the full 54-bit tick space: ceil((64-10)/6).
const LEVELS: usize = 9;
/// Null index for slot chains and the free list.
const NIL: u32 = u32::MAX;

/// The per-node fields read only at the `ready` boundary (once per event):
/// the key's tie-break fields and the payload.
#[derive(Debug, Clone)]
struct ColdNode<T> {
    station: u64,
    seq: u64,
    payload: Option<T>,
}

/// Hierarchical timer wheel with a full-key `ready` heap for due events.
///
/// The node slab is struct-of-arrays, split by access pattern. A cascade is
/// a chain walk, and its serial dependency runs *only* through `next` — so
/// `next` lives alone in a `Vec<u32>` (400 KB at 100k nodes, L2-resident),
/// keeping every hop of the pointer chase a cheap cache hit. The firing
/// times it re-files are then independent loads into `time_ns` that the
/// out-of-order core overlaps, instead of one serial miss per hop over a
/// single fat-node slab.
#[derive(Debug, Clone)]
pub(crate) struct TimerWheel<T> {
    /// Intrusive chain link per node: slot chain while pending, free list
    /// once popped. The only array on the serial path of a cascade.
    next: Vec<u32>,
    /// Firing time per node, index-aligned with `next`.
    time_ns: Vec<VirtualNs>,
    /// Cold halves (tie-break fields, payload), index-aligned with `next`.
    cold: Vec<ColdNode<T>>,
    /// Head of the free list through `nodes`.
    free_head: u32,
    /// Chain heads: `slots[level][slot]` is the newest node in the slot.
    slots: [[u32; SLOTS]; LEVELS],
    /// One bit per slot so the next occupied slot is a `trailing_zeros`.
    occupied: [u64; LEVELS],
    /// Events at or before the horizon, ordered by the full key.
    ready: BinaryHeap<Reverse<(EventKey, u32)>>,
    /// Horizon tick: every event in the wheel has `tick > current_tick`.
    current_tick: u64,
    len: usize,
}

fn tick_of(time_ns: VirtualNs) -> u64 {
    time_ns >> TICK_BITS
}

/// Level whose slot field is the highest one where `tick` differs from the
/// horizon. Caller guarantees `tick != current`.
fn level_for(current: u64, tick: u64) -> usize {
    let top_bit = 63 - (current ^ tick).leading_zeros();
    (top_bit / SLOT_BITS) as usize
}

fn slot_for(tick: u64, level: usize) -> usize {
    ((tick >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
}

impl<T> TimerWheel<T> {
    pub(crate) fn new() -> Self {
        Self {
            next: Vec::new(),
            time_ns: Vec::new(),
            cold: Vec::new(),
            free_head: NIL,
            slots: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            ready: BinaryHeap::new(),
            current_tick: 0,
            len: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn with_capacity(events: usize) -> Self {
        let mut wheel = Self::new();
        wheel.reserve(events);
        wheel
    }

    /// Pre-sizes the node slab and the `ready` heap for `additional` more
    /// events — a cascade can in the worst case funnel every pending event
    /// through `ready`, so both buffers are sized to the full event count.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.next.reserve(additional);
        self.time_ns.reserve(additional);
        self.cold.reserve(additional);
        self.ready.reserve(additional);
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn alloc_node(&mut self, key: EventKey, payload: T) -> u32 {
        if self.free_head == NIL {
            let index = self.next.len() as u32;
            self.next.push(NIL);
            self.time_ns.push(key.time_ns);
            self.cold.push(ColdNode {
                station: key.station,
                seq: key.seq,
                payload: Some(payload),
            });
            return index;
        }
        let index = self.free_head;
        self.free_head = self.next[index as usize];
        self.next[index as usize] = NIL;
        self.time_ns[index as usize] = key.time_ns;
        let cold = &mut self.cold[index as usize];
        cold.station = key.station;
        cold.seq = key.seq;
        cold.payload = Some(payload);
        index
    }

    /// Files node `index` by its key: into `ready` when due, else into its
    /// slot chain. Only the `ready` branch reads the cold half.
    fn place(&mut self, index: u32) {
        let time_ns = self.time_ns[index as usize];
        let tick = tick_of(time_ns);
        if tick <= self.current_tick {
            let cold = &self.cold[index as usize];
            let key = EventKey {
                time_ns,
                station: cold.station,
                seq: cold.seq,
            };
            self.ready.push(Reverse((key, index)));
            return;
        }
        let level = level_for(self.current_tick, tick);
        let slot = slot_for(tick, level);
        self.next[index as usize] = self.slots[level][slot];
        self.slots[level][slot] = index;
        self.occupied[level] |= 1 << slot;
    }

    pub(crate) fn schedule(&mut self, key: EventKey, payload: T) {
        let index = self.alloc_node(key, payload);
        self.place(index);
        self.len += 1;
    }

    /// Advances the horizon until at least one event is due (in `ready`).
    /// Returns `false` when the wheel holds no events at all.
    fn fill_ready(&mut self) -> bool {
        while self.ready.is_empty() {
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                return false;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            // The slot's base tick: the horizon's bits above this level's
            // field, the slot index in the field, zeros below. All entries in
            // the slot are at or after it, and everything in lower levels or
            // lower slots would already have fired, so jumping the horizon
            // there skips only empty time.
            let field = SLOT_BITS as u64 * level as u64;
            let above = !((1u64 << (field + SLOT_BITS as u64)) - 1);
            let base = (self.current_tick & above) | ((slot as u64) << field);
            debug_assert!(base > self.current_tick);
            self.current_tick = base;
            self.occupied[level] &= !(1 << slot);
            // Cascade: walk the chain, re-filing every node relative to the
            // new horizon (strictly lower level, or `ready`). Chain order is
            // irrelevant — `ready` orders on the full key.
            let mut index = std::mem::replace(&mut self.slots[level][slot], NIL);
            while index != NIL {
                let next = self.next[index as usize];
                if next != NIL {
                    // The chase itself stays in the L2-resident `next` array;
                    // start the next hop's time and tie-break loads now so
                    // they overlap this hop's re-file instead of serializing
                    // behind it (the cold line is what a due event's `ready`
                    // push reads).
                    prefetch_read(&self.time_ns[next as usize]);
                    prefetch_read(&self.cold[next as usize]);
                }
                self.place(index);
                index = next;
            }
        }
        true
    }

    pub(crate) fn pop(&mut self) -> Option<(EventKey, T)> {
        if !self.fill_ready() {
            return None;
        }
        let Reverse((key, index)) = self.ready.pop()?;
        let payload = self.cold[index as usize].payload.take()?;
        self.next[index as usize] = self.free_head;
        self.free_head = index;
        self.len -= 1;
        if self.len == 0 {
            // The free list is the order this round's events fired in; the
            // next round's, filed through it, would write the slab at random.
            // An empty wheel forgets its nodes (capacity stays) so the next
            // round gets them in index order — indices never reach an output.
            self.next.clear();
            self.time_ns.clear();
            self.cold.clear();
            self.free_head = NIL;
        }
        Some((key, payload))
    }

    /// Firing time of the earliest pending event, without advancing the
    /// horizon. `ready` is globally minimal when non-empty; otherwise the
    /// earliest event sits in the lowest occupied slot of the lowest occupied
    /// level (all entries of a level share the horizon's bits above the
    /// level's field, so lower slot ⇒ earlier tick, and any entry of a lower
    /// level precedes every entry of a higher one).
    pub(crate) fn peek_time(&self) -> Option<VirtualNs> {
        if let Some(Reverse((key, _))) = self.ready.peek() {
            return Some(key.time_ns);
        }
        let level = (0..LEVELS).find(|&l| self.occupied[l] != 0)?;
        let slot = self.occupied[level].trailing_zeros() as usize;
        let mut index = self.slots[level][slot];
        let mut earliest = None;
        while index != NIL {
            let time = self.time_ns[index as usize];
            earliest = Some(match earliest {
                None => time,
                Some(t) => time.min(t),
            });
            index = self.next[index as usize];
        }
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(time_ns: u64, station: u64, seq: u64) -> EventKey {
        EventKey {
            time_ns,
            station,
            seq,
        }
    }

    #[test]
    fn level_and_slot_math() {
        // Adjacent ticks differ in the level-0 field.
        assert_eq!(level_for(0, 1), 0);
        assert_eq!(level_for(63, 64), 1);
        assert_eq!(level_for(0, 64), 1);
        assert_eq!(level_for(0, 1 << 53), 8);
        assert_eq!(slot_for(0b101_010, 0), 0b101_010);
        assert_eq!(slot_for(7 << 6, 1), 7);
        // The top level's field covers the highest tick bits (tick < 2^54).
        assert_eq!(slot_for(u64::MAX >> TICK_BITS, 8), SLOTS - 1);
    }

    #[test]
    fn drains_in_key_order_across_levels() {
        let mut wheel = TimerWheel::new();
        // Spread events across every level span, schedule out of order.
        let times: Vec<u64> = (0..54)
            .map(|b| (1u64 << b).wrapping_add(b * 17))
            .chain([0, 1, 1023, 1024, 1 << 20, (1 << 20) + 1])
            .collect();
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule(key(t, i as u64 % 5, i as u64), i);
        }
        assert_eq!(wheel.len(), times.len());
        let mut sorted: Vec<EventKey> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| key(t, i as u64 % 5, i as u64))
            .collect();
        sorted.sort();
        let popped: Vec<EventKey> = std::iter::from_fn(|| wheel.pop()).map(|(k, _)| k).collect();
        assert_eq!(popped, sorted);
        assert_eq!(wheel.len(), 0);
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn late_schedules_land_in_ready_and_still_order() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(key(1 << 30, 0, 0), "far");
        assert_eq!(wheel.pop().map(|(_, p)| p), Some("far"));
        // Horizon has advanced; an earlier time is still accepted and pops
        // before anything later, ordered by the full key.
        wheel.schedule(key(5, 2, 1), "past-b");
        wheel.schedule(key(5, 1, 2), "past-a");
        wheel.schedule(key((1 << 30) + 1, 0, 3), "next");
        assert_eq!(wheel.peek_time(), Some(5));
        let order: Vec<&str> = std::iter::from_fn(|| wheel.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["past-a", "past-b", "next"]);
    }

    #[test]
    fn peek_does_not_advance_and_sees_wheel_minimum() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(key(70_000, 0, 0), ());
        wheel.schedule(key(9_000, 0, 1), ());
        assert_eq!(wheel.peek_time(), Some(9_000));
        assert_eq!(wheel.peek_time(), Some(9_000));
        assert_eq!(wheel.pop().map(|(k, _)| k.time_ns), Some(9_000));
        assert_eq!(wheel.peek_time(), Some(70_000));
        assert_eq!(wheel.len(), 1);
    }

    #[test]
    fn node_slab_is_recycled_across_laps() {
        let mut wheel = TimerWheel::with_capacity(64);
        let mut capacity = None;
        for lap in 0..4u64 {
            let base = lap * (1 << TICK_BITS) * 64;
            for i in 0..32u64 {
                wheel.schedule(key(base + i * 1024, i, lap * 32 + i), ());
            }
            // Half a lap out, half a lap back in: the freed nodes are
            // reused, so within a lap the slab never outgrows its burst.
            for i in 0..16u64 {
                wheel.pop().unwrap();
                wheel.schedule(key(base + (32 + i) * 1024, i, 1000 + lap * 16 + i), ());
                assert_eq!(wheel.next.len(), 32);
            }
            while wheel.pop().is_some() {}
            // Drained: the nodes are forgotten, their room is not.
            assert_eq!(wheel.len(), 0);
            assert_eq!(
                (wheel.next.len(), wheel.time_ns.len(), wheel.cold.len()),
                (0, 0, 0)
            );
            assert_eq!(wheel.free_head, NIL);
            let first = *capacity.get_or_insert(wheel.next.capacity());
            assert_eq!(wheel.next.capacity(), first, "lap {lap} regrew the slab");
        }
    }

    /// A burst filed through the free list of the burst before it writes the
    /// slab in the order that one fired. A drained wheel starts over: node
    /// `i` of the next burst is index `i`, whatever order the last one popped
    /// in.
    #[test]
    fn a_drained_wheel_restarts_its_slab_in_schedule_order() {
        let mut wheel = TimerWheel::new();
        for burst in 0..2u64 {
            for i in 0..64u64 {
                // 37 is coprime to 64: a shuffle of the firing order.
                let time = (i * 37 % 64) << (TICK_BITS + 2);
                wheel.schedule(key(time, i, burst * 64 + i), i);
            }
            assert_eq!(wheel.next.len(), 64, "burst {burst} grew the slab");
            for index in 0..64u64 {
                assert_eq!(wheel.cold[index as usize].station, index, "burst {burst}");
            }
            let mut fired = Vec::new();
            while let Some((key, payload)) = wheel.pop() {
                assert_eq!(key.station, payload);
                fired.push(payload);
            }
            assert_ne!(fired, (0..64).collect::<Vec<_>>(), "the shuffle did not");
            assert_eq!(fired.len(), 64);
        }
    }
}
