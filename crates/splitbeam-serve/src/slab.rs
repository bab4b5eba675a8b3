//! Slab session store: a dense id index, contiguous slots and an intrusive
//! idle-LRU list.
//!
//! At fleet scale (100k+ concurrent sessions) the round close is a walk over
//! sessions, so what it costs is which cache lines each step touches:
//!
//! * a **dense slot vector**: sessions live contiguously in registration
//!   order; freed slots go on a free list and are reused;
//! * a **dense id index** (`IdIndex`): ids below `DENSE_ID_BOUND` resolve
//!   through a flat `Vec<u32>` (one load, no tree descent), larger ids through
//!   an ordered map. Every deterministic-order path — batch id collection,
//!   fresh-station listing, the public `sessions()` iterator — walks
//!   [`SessionSlab::values`] in ascending station-id order: the table walk
//!   followed by the map walk, which is globally ascending because every
//!   sparse id exceeds every dense one;
//! * an **intrusive idle-LRU list** threaded through the slots, ordered by
//!   each session's last-activity round. Serving a station moves it to the
//!   hot end ([`SessionSlab::touch`]); [`SessionSlab::evict_idle`] walks
//!   from the cold end and stops at the first survivor, so eviction costs
//!   `O(evicted)`, not `O(sessions)`.
//!
//! Order-independent per-session passes (health bookkeeping, pending-expiry,
//! min/count folds) use [`SessionSlab::values_unordered_mut`], which walks
//! slots densely for cache locality; every path whose iteration order can
//! reach an output uses the id-ordered view (pinned repo-wide by the
//! `serve-unordered-map` lint rule).

use crate::session::{StationId, StationSession};
use std::collections::BTreeMap;

/// Sentinel link value for "no slot" (and "no entry" in the id table).
const NIL: u32 = u32::MAX;

/// Ids below this bound resolve through the flat table of [`IdIndex`]. The
/// table holds one `u32` per id up to the largest dense id inserted, so the
/// bound caps an index at 4 MiB however ids are chosen; 2^20 is ten times
/// the 100k-session fleet, the largest population any driver registers.
pub(crate) const DENSE_ID_BOUND: StationId = 1 << 20;

/// Station id → `u32` (a slot, or a fleet's AP index). Lookups of ids below
/// [`DENSE_ID_BOUND`] are one table load; larger ids fall back to an ordered
/// map. Iteration is ascending by id: every sparse id exceeds every dense
/// one, so the table walk followed by the map walk is globally ordered.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdIndex {
    /// `dense[id]`, [`NIL`] where absent; as long as the largest dense id
    /// ever inserted requires.
    dense: Vec<u32>,
    sparse: BTreeMap<StationId, u32>,
    len: usize,
}

impl IdIndex {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, id: StationId) -> Option<u32> {
        if id < DENSE_ID_BOUND {
            let value = *self.dense.get(id as usize)?;
            (value != NIL).then_some(value)
        } else {
            self.sparse.get(&id).copied()
        }
    }

    /// Maps `id` to `value`, returning the value it replaces.
    pub(crate) fn insert(&mut self, id: StationId, value: u32) -> Option<u32> {
        assert_ne!(value, NIL, "u32::MAX is the index's vacancy mark");
        let previous = if id < DENSE_ID_BOUND {
            let at = id as usize;
            if at >= self.dense.len() {
                self.dense.resize(at + 1, NIL);
            }
            let previous = std::mem::replace(&mut self.dense[at], value);
            (previous != NIL).then_some(previous)
        } else {
            self.sparse.insert(id, value)
        };
        self.len += usize::from(previous.is_none());
        previous
    }

    pub(crate) fn remove(&mut self, id: StationId) -> Option<u32> {
        let removed = if id < DENSE_ID_BOUND {
            let entry = self.dense.get_mut(id as usize)?;
            let previous = std::mem::replace(entry, NIL);
            (previous != NIL).then_some(previous)
        } else {
            self.sparse.remove(&id)
        };
        self.len -= usize::from(removed.is_some());
        removed
    }

    /// Entries with an id of at least `start`, ascending by id.
    pub(crate) fn iter_from(
        &self,
        start: StationId,
    ) -> impl Iterator<Item = (StationId, u32)> + '_ {
        let first = start.min(self.dense.len() as StationId) as usize;
        let dense = self.dense[first..]
            .iter()
            .enumerate()
            .filter(|&(_, &value)| value != NIL)
            .map(move |(offset, &value)| ((first + offset) as StationId, value));
        dense.chain(self.sparse.range(start..).map(|(&id, &value)| (id, value)))
    }
}

#[derive(Debug, Clone)]
struct Slot {
    /// LRU neighbours when occupied (`prev` = colder); free-list link via
    /// `next` when free.
    prev: u32,
    next: u32,
    session: Option<StationSession>,
}

/// Dense session store. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct SessionSlab {
    slots: Vec<Slot>,
    by_id: IdIndex,
    free_head: u32,
    /// Coldest (least recently active) end of the LRU list.
    lru_head: u32,
    /// Hottest end of the LRU list.
    lru_tail: u32,
}

impl Default for SessionSlab {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionSlab {
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            by_id: IdIndex::default(),
            free_head: NIL,
            lru_head: NIL,
            lru_tail: NIL,
        }
    }

    /// A slab whose slot vector is pre-sized for `sessions` stations.
    pub fn with_capacity(sessions: usize) -> Self {
        let mut slab = Self::new();
        slab.slots.reserve(sessions);
        slab
    }

    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn contains(&self, id: StationId) -> bool {
        self.by_id.get(id).is_some()
    }

    /// The round the LRU list orders by: the station's last served round,
    /// or its join round while it has never been served — exactly the
    /// quantity [`StationSession::idle_rounds`] measures from.
    fn activity_round(session: &StationSession) -> u64 {
        session
            .last_round()
            .unwrap_or_else(|| session.joined_round())
    }

    fn session_at(&self, index: u32) -> Option<&StationSession> {
        self.slots[index as usize].session.as_ref()
    }

    /// Inserts `session` under its own station id, placing it in the LRU
    /// list by its activity round. Returns `Err` with the session when the
    /// id is already present (the caller validates first, so this is a
    /// defensive contract rather than an expected path).
    // The fat Err is the point: the rejected session must ride back to the
    // caller for restore, and boxing a cold failure path buys nothing.
    #[allow(clippy::result_large_err)]
    pub fn insert(&mut self, session: StationSession) -> Result<(), StationSession> {
        let id = session.id();
        if self.contains(id) {
            return Err(session);
        }
        let index = if self.free_head != NIL {
            let index = self.free_head;
            self.free_head = self.slots[index as usize].next;
            self.slots[index as usize].session = Some(session);
            index
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot {
                prev: NIL,
                next: NIL,
                session: Some(session),
            });
            index
        };
        self.by_id.insert(id, index);
        self.lru_insert_sorted(index);
        Ok(())
    }

    /// Removes and returns the session for `id`, freeing its slot.
    pub fn remove(&mut self, id: StationId) -> Option<StationSession> {
        let index = self.by_id.remove(id)?;
        self.lru_unlink(index);
        let slot = &mut self.slots[index as usize];
        let session = slot.session.take();
        slot.prev = NIL;
        slot.next = self.free_head;
        self.free_head = index;
        session
    }

    pub fn get(&self, id: StationId) -> Option<&StationSession> {
        self.session_at(self.by_id.get(id)?)
    }

    pub fn get_mut(&mut self, id: StationId) -> Option<&mut StationSession> {
        let index = self.by_id.get(id)?;
        self.slots[index as usize].session.as_mut()
    }

    /// Sessions in ascending station-id order — the deterministic view every
    /// order-sensitive path iterates.
    pub fn values(&self) -> impl Iterator<Item = &StationSession> {
        self.values_from(0)
    }

    /// The tail of [`Self::values`] that starts at the first id `>= start`.
    pub(crate) fn values_from(&self, start: StationId) -> impl Iterator<Item = &StationSession> {
        self.by_id
            .iter_from(start)
            .filter_map(move |(_, i)| self.session_at(i))
    }

    /// `(id, session)` pairs in ascending station-id order.
    pub fn iter(&self) -> impl Iterator<Item = (StationId, &StationSession)> {
        self.by_id
            .iter_from(0)
            .filter_map(move |(id, i)| self.session_at(i).map(|s| (id, s)))
    }

    /// Mutable walk in dense slot order — **not** station-id order. Only for
    /// per-session passes whose effect is independent of visit order
    /// (commutative counter folds, min/count reductions); every path whose
    /// iteration order can reach an output must use [`Self::values`].
    pub fn values_unordered_mut(&mut self) -> impl Iterator<Item = &mut StationSession> {
        self.slots.iter_mut().filter_map(|s| s.session.as_mut())
    }

    /// Immutable dense walk; same order caveat as
    /// [`Self::values_unordered_mut`].
    pub fn values_unordered(&self) -> impl Iterator<Item = &StationSession> {
        self.slots.iter().filter_map(|s| s.session.as_ref())
    }

    /// Moves `id` to the hot end of the LRU list. Call after serving a
    /// station (its activity round just became the current round, which is
    /// maximal, so a plain tail append keeps the list sorted).
    pub fn touch(&mut self, id: StationId) {
        if let Some(index) = self.by_id.get(id) {
            self.lru_unlink(index);
            self.lru_push_tail(index);
        }
    }

    /// Evicts every session idle for more than `max_idle_rounds` as of
    /// `closed_round`, returning how many were evicted. The LRU list is
    /// sorted by activity round, so the evictable sessions form a prefix at
    /// the cold end and the walk stops at the first survivor: `O(evicted)`,
    /// independent of the session count.
    pub fn evict_idle(&mut self, closed_round: u64, max_idle_rounds: u64) -> usize {
        let mut evicted = 0;
        while self.lru_head != NIL {
            let index = self.lru_head;
            let Some(session) = self.session_at(index) else {
                break;
            };
            if session.idle_rounds(closed_round) <= max_idle_rounds {
                break;
            }
            let id = session.id();
            self.remove(id);
            evicted += 1;
        }
        evicted
    }

    fn lru_unlink(&mut self, index: u32) {
        let (prev, next) = {
            let slot = &self.slots[index as usize];
            (slot.prev, slot.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if self.lru_head == index {
            self.lru_head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else if self.lru_tail == index {
            self.lru_tail = prev;
        }
        let slot = &mut self.slots[index as usize];
        slot.prev = NIL;
        slot.next = NIL;
    }

    fn lru_push_tail(&mut self, index: u32) {
        let tail = self.lru_tail;
        self.slots[index as usize].prev = tail;
        self.slots[index as usize].next = NIL;
        if tail != NIL {
            self.slots[tail as usize].next = index;
        } else {
            self.lru_head = index;
        }
        self.lru_tail = index;
    }

    /// Inserts `index` into the LRU list keeping it sorted by activity
    /// round. Fresh registrations join at the current round (maximal key) so
    /// the walk from the tail is `O(1)`; only an adopted roaming session
    /// with older activity walks further.
    fn lru_insert_sorted(&mut self, index: u32) {
        let key = match self.session_at(index) {
            Some(session) => Self::activity_round(session),
            None => return,
        };
        let mut after = self.lru_tail;
        while after != NIL {
            let after_key = match self.session_at(after) {
                Some(session) => Self::activity_round(session),
                None => break,
            };
            if after_key <= key {
                break;
            }
            after = self.slots[after as usize].prev;
        }
        if after == NIL {
            // Coldest: push at the head.
            let head = self.lru_head;
            self.slots[index as usize].prev = NIL;
            self.slots[index as usize].next = head;
            if head != NIL {
                self.slots[head as usize].prev = index;
            } else {
                self.lru_tail = index;
            }
            self.lru_head = index;
        } else if after == self.lru_tail {
            self.lru_push_tail(index);
        } else {
            let next = self.slots[after as usize].next;
            self.slots[index as usize].prev = after;
            self.slots[index as usize].next = next;
            self.slots[after as usize].next = index;
            self.slots[next as usize].prev = index;
        }
    }
}

impl std::ops::Index<&StationId> for SessionSlab {
    type Output = StationSession;

    /// Panics when `id` is not registered — the same contract map indexing
    /// had. Round-close paths only index ids they just collected from the
    /// slab itself.
    fn index(&self, id: &StationId) -> &StationSession {
        match self.get(*id) {
            Some(session) => session,
            None => panic!("station {id} is not registered in the session slab"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn session(id: StationId, joined_round: u64) -> StationSession {
        StationSession::synthetic(id, 0, 4, joined_round)
    }

    fn ids(slab: &SessionSlab) -> Vec<StationId> {
        slab.values().map(|s| s.id()).collect()
    }

    #[test]
    fn insert_get_remove_and_duplicate_rejection() {
        let mut slab = SessionSlab::with_capacity(4);
        assert!(slab.is_empty());
        slab.insert(session(7, 0)).unwrap();
        assert!(slab.insert(session(7, 1)).is_err(), "duplicate id");
        assert_eq!(slab.len(), 1);
        assert!(slab.contains(7));
        assert_eq!(slab.get(7).map(|s| s.id()), Some(7));
        assert_eq!(slab[&7].id(), 7);
        let removed = slab.remove(7).unwrap();
        assert_eq!(removed.id(), 7);
        assert_eq!(slab.remove(7).map(|s| s.id()), None);
        assert!(slab.get(7).is_none());
        // The freed slot is reused; the old id stays gone.
        slab.insert(session(9, 0)).unwrap();
        assert!(slab.get(7).is_none());
        assert_eq!(slab.get(9).map(|s| s.id()), Some(9));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn values_iterate_in_ascending_id_order_despite_slot_churn() {
        // One id beyond the dense table: it must sort after every dense id.
        const SPARSE: StationId = u64::MAX / 2;
        let mut slab = SessionSlab::new();
        for id in [42, SPARSE, 3, 17, 99, 8] {
            slab.insert(session(id, 0)).unwrap();
        }
        assert_eq!(ids(&slab), vec![3, 8, 17, 42, 99, SPARSE]);
        // Free slot 0 (id 42) and reuse it for a small id: id order holds.
        slab.remove(42);
        slab.insert(session(1, 0)).unwrap();
        assert_eq!(ids(&slab), vec![1, 3, 8, 17, 99, SPARSE]);
        assert_eq!(
            slab.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![1, 3, 8, 17, 99, SPARSE]
        );
        assert_eq!(
            slab.values_from(17).map(|s| s.id()).collect::<Vec<_>>(),
            vec![17, 99, SPARSE]
        );
        // The dense walk visits everyone exactly once, order unspecified.
        let mut dense: Vec<StationId> = slab.values_unordered().map(|s| s.id()).collect();
        dense.sort_unstable();
        assert_eq!(dense, vec![1, 3, 8, 17, 99, SPARSE]);
    }

    #[test]
    fn eviction_walks_only_the_cold_prefix() {
        let mut slab = SessionSlab::new();
        for id in 0..6u64 {
            slab.insert(session(id, 0)).unwrap();
        }
        // Serve 4 and 1 at round 5: they move to the hot end.
        for id in [4u64, 1] {
            slab.get_mut(id).unwrap().store_feedback(&[0.0], 5);
            slab.touch(id);
        }
        // As of round 8 with a 5-round budget, only the never-served four
        // (idle 8 > 5) go; 4 and 1 (idle 3) stay.
        assert_eq!(slab.evict_idle(8, 5), 4);
        assert_eq!(ids(&slab), vec![1, 4]);
        // Nothing left to evict; the walk stops at the first survivor.
        assert_eq!(slab.evict_idle(8, 5), 0);
        // Re-registration after eviction works and lands hot.
        slab.insert(session(0, 8)).unwrap();
        assert_eq!(slab.evict_idle(8, 5), 0);
        assert_eq!(ids(&slab), vec![0, 1, 4]);
    }

    #[test]
    fn sorted_insert_places_stale_adoptions_by_activity() {
        let mut slab = SessionSlab::new();
        let mut fresh = session(10, 6);
        fresh.store_feedback(&[0.0], 6);
        slab.insert(fresh).unwrap();
        // An adopted session whose last activity is far older must sort
        // colder than the resident, so eviction sees it first.
        let stale = session(20, 1);
        slab.insert(stale).unwrap();
        assert_eq!(slab.evict_idle(7, 3), 1, "stale adoptee evicts");
        assert_eq!(ids(&slab), vec![10]);
    }

    /// The ids the model check draws from: a dense run, both sides of the
    /// dense/sparse boundary, and the largest id there is.
    const POOL: [StationId; 12] = [
        0,
        1,
        2,
        3,
        5,
        8,
        500,
        DENSE_ID_BOUND - 1,
        DENSE_ID_BOUND,
        DENSE_ID_BOUND + 1,
        u64::MAX - 1,
        u64::MAX,
    ];

    proptest! {
        // Few, short cases: once `DENSE_ID_BOUND - 1` is in, every walk from
        // a small id crosses a million table entries.
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// `IdIndex` against an ordered-map model over random insert /
        /// remove / get / re-insert sequences: `len`, membership and the
        /// ascending iteration order agree after every step.
        #[test]
        fn prop_id_index_matches_an_ordered_map(
            steps in proptest::collection::vec(0u64..u64::MAX, 1..64),
        ) {
            let mut index = IdIndex::default();
            let mut model: BTreeMap<StationId, u32> = BTreeMap::new();
            for word in steps {
                let id = POOL[(word >> 8) as usize % POOL.len()];
                let value = (word >> 32) as u32 % NIL;
                match word % 3 {
                    // Insert doubles as re-insert: the id may be present,
                    // absent, or absent again after a removal.
                    0 => prop_assert_eq!(index.insert(id, value), model.insert(id, value)),
                    1 => prop_assert_eq!(index.remove(id), model.remove(&id)),
                    _ => prop_assert_eq!(index.get(id), model.get(&id).copied()),
                }
                prop_assert_eq!(index.len(), model.len());
                for probe in POOL {
                    prop_assert_eq!(index.get(probe), model.get(&probe).copied());
                }
                let start = POOL[(word >> 16) as usize % POOL.len()];
                for from in [0, start] {
                    prop_assert_eq!(
                        index.iter_from(from).collect::<Vec<_>>(),
                        model.range(from..).map(|(&id, &v)| (id, v)).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
