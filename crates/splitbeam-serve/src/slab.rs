//! Slot-indexed serving stores: the session slab (a dense slot vector and a
//! dense id index) and the code arena that holds each slot's pending
//! payload.
//!
//! At fleet scale (100k+ concurrent sessions) the round close is a walk over
//! sessions, so what it costs is which cache lines each step touches:
//!
//! * a **dense slot vector**: sessions live contiguously in registration
//!   order; freed slots go on a free list and are reused;
//! * a **dense id index** (`IdIndex`): ids below `DENSE_ID_BOUND` resolve
//!   through a flat `Vec<u32>` (one load, no tree descent), larger ids through
//!   an ordered map. Every deterministic-order path — the serve step's
//!   worklist, fresh-station listing, the public `sessions()` iterator — walks
//!   in ascending station-id order: the table walk followed by the map walk,
//!   which is globally ascending because every sparse id exceeds every dense
//!   one. The serve step's walk (`SessionSlab::for_each_in_id_order`) hands
//!   out slots, so a listed session is reached again without an id lookup;
//! * a **code arena** (`CodeArena`): one line-aligned row a slot, as wide as
//!   the widest registered bottleneck in whole 64-byte lines, holding the
//!   pending payload's width, range, code count and codes. Ingest unpacks a
//!   frame's codes straight into the row of its session's slot; the close's
//!   tile gather reads rows by slot — in registration order a sequential
//!   stream the hardware prefetcher follows — and never reads a session to
//!   find them. Registration allocates no payload buffer: seating a
//!   station gives its slot a row, the arena doubling when it is full.
//!
//! Serving maintains no eviction order: [`SessionSlab::evict_idle`] answers
//! from a cached bound while nothing can be due and sweeps the slots when
//! something may be — the order of work the health pass spends at every
//! close anyway.
//!
//! Order-independent per-session passes (health bookkeeping, min/count
//! folds) use [`SessionSlab::values_unordered_mut`], which walks slots
//! densely for cache locality; every path whose iteration order can reach an
//! output uses the id-ordered view (pinned repo-wide by the
//! `serve-unordered-map` lint rule).

use crate::session::{StationId, StationSession};
use splitbeam::quantization::PayloadView;
use splitbeam::wire::{self, FrameHeader};
use splitbeam_hwsim::prefetch_read;
use std::collections::BTreeMap;

/// "No entry" in the id table.
const NIL: u32 = u32::MAX;

/// Ids below this bound resolve through the flat table of [`IdIndex`]. The
/// table holds one `u32` per id up to the largest dense id inserted, so the
/// bound caps an index at 4 MiB however ids are chosen; 2^20 is ten times
/// the 100k-session fleet, the largest population any driver registers.
pub(crate) const DENSE_ID_BOUND: StationId = 1 << 20;

/// How far ahead of the session it works on a walk over sessions in an
/// order the hardware prefetcher cannot guess requests their lines, in
/// sessions a stage: a fleet channel's drain asks for each link of an
/// ingest's chain of dependent loads (index → slot → arena row) one stage
/// before the next link needs it, and the close's tile gather asks for the
/// arena row it will dequantize. 4, 8 and 16 read within 6 % of one
/// another on `fleet_dense_100k`, none ahead by the pairs rule (CHANGES.md).
pub(crate) const LOOKAHEAD: usize = 8;

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

    /// Look-ahead: requests the table entry a later [`Self::get`] of `id`
    /// loads. Sparse ids have no one line to ask for.
    pub(crate) fn prefetch(&self, id: StationId) {
        if let Some(entry) = usize::try_from(id).ok().and_then(|at| self.dense.get(at)) {
            prefetch_read(entry);
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

    /// Every entry, ascending by id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (StationId, u32)> + '_ {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter(|&(_, &value)| value != NIL)
            .map(|(id, &value)| (id as StationId, value));
        dense.chain(self.sparse.iter().map(|(&id, &value)| (id, value)))
    }
}

/// Dense session store. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct SessionSlab {
    slots: Vec<Option<StationSession>>,
    by_id: IdIndex,
    /// Vacant slots, reused last-freed-first.
    free: Vec<u32>,
    /// A lower bound on every resident's activity round (the round
    /// [`StationSession::idle_rounds`] measures from), `u64::MAX` while the
    /// slab has never held a session. [`Self::insert`] lowers it and an
    /// eviction sweep makes it exact; serving maintains nothing, because
    /// activity only grows and a grown activity leaves the bound valid.
    coldest_round: u64,
}

impl Default for SessionSlab {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionSlab {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A slab whose slot vector is pre-sized for `sessions` stations.
    pub fn with_capacity(sessions: usize) -> Self {
        Self {
            slots: Vec::with_capacity(sessions),
            by_id: IdIndex::default(),
            free: Vec::new(),
            coldest_round: u64::MAX,
        }
    }

    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Makes room for `sessions` more sessions in the slot vector.
    pub(crate) fn reserve(&mut self, sessions: usize) {
        self.slots.reserve(sessions);
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn contains(&self, id: StationId) -> bool {
        self.by_id.get(id).is_some()
    }

    /// Inserts `session` under its own station id. Returns `Err` with the
    /// session when the id is already present (the caller validates first,
    /// so this is a defensive contract rather than an expected path).
    // The fat Err is the point: the rejected session must ride back to the
    // caller for restore, and boxing a cold failure path buys nothing.
    #[allow(clippy::result_large_err)]
    pub fn insert(&mut self, session: StationSession) -> Result<(), StationSession> {
        self.seat(session).map(|_| ())
    }

    /// [`Self::insert`], returning the slot the session took.
    #[allow(clippy::result_large_err)]
    pub(crate) fn seat(&mut self, session: StationSession) -> Result<u32, StationSession> {
        let id = session.id();
        if self.contains(id) {
            return Err(session);
        }
        // An adopted roaming session can be colder than every resident.
        self.coldest_round = self.coldest_round.min(session.activity_round());
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(session);
                slot
            }
            None => {
                self.slots.push(Some(session));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_id.insert(id, slot);
        Ok(slot)
    }

    /// Removes and returns the session for `id`, freeing its slot.
    pub fn remove(&mut self, id: StationId) -> Option<StationSession> {
        let slot = self.by_id.remove(id)?;
        self.free.push(slot);
        self.slots[slot as usize].take()
    }

    pub fn get(&self, id: StationId) -> Option<&StationSession> {
        self.at(self.by_id.get(id)?)
    }

    /// The slot of `id`'s session: its row in the shard's [`CodeArena`].
    pub(crate) fn slot_of(&self, id: StationId) -> Option<u32> {
        self.by_id.get(id)
    }

    pub fn get_mut(&mut self, id: StationId) -> Option<&mut StationSession> {
        self.at_mut(self.by_id.get(id)?)
    }

    /// [`Self::get_mut`], with the session's slot.
    pub(crate) fn entry_mut(&mut self, id: StationId) -> Option<(u32, &mut StationSession)> {
        let slot = self.by_id.get(id)?;
        Some((slot, self.at_mut(slot)?))
    }

    /// The session in `slot`, as [`Self::for_each_in_id_order`] handed it out.
    pub(crate) fn at(&self, slot: u32) -> Option<&StationSession> {
        self.slots.get(slot as usize)?.as_ref()
    }

    pub(crate) fn at_mut(&mut self, slot: u32) -> Option<&mut StationSession> {
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    /// Look-ahead, first of three steps for a walk that knows which ids it
    /// is about to [`Self::get_mut`] and write a payload for — the lookup is
    /// a chain of dependent loads, and each step requests one link once the
    /// step before has had time to land: `id`'s index entry.
    pub(crate) fn prefetch_index(&self, id: StationId) {
        self.by_id.prefetch(id);
    }

    /// Second step: the slot that entry names, every line of it (ingest
    /// reads and writes a session end to end). The third is the slot's
    /// [`CodeArena`] row, found from the entry alone.
    pub(crate) fn prefetch_session(&self, id: StationId) {
        if let Some(slot) = self.by_id.get(id) {
            self.prefetch_slot(slot);
        }
    }

    /// Requests every line of the session in `slot`.
    pub(crate) fn prefetch_slot(&self, slot: u32) {
        if let Some(session) = self.slots.get(slot as usize) {
            prefetch_read(session);
        }
    }

    /// Sessions in ascending station-id order — the deterministic view every
    /// order-sensitive path iterates.
    pub fn values(&self) -> impl Iterator<Item = &StationSession> {
        self.iter().map(|(_, session)| session)
    }

    /// `(id, session)` pairs in ascending station-id order.
    pub fn iter(&self) -> impl Iterator<Item = (StationId, &StationSession)> {
        self.by_id
            .iter()
            .filter_map(move |(id, slot)| self.at(slot).map(|s| (id, s)))
    }

    /// Calls `visit(slot, session)` on every session in ascending station-id
    /// order; `slot` stays valid for [`Self::at`] / [`Self::at_mut`] until
    /// the session is removed.
    pub(crate) fn for_each_in_id_order(&mut self, mut visit: impl FnMut(u32, &mut StationSession)) {
        let Self { slots, by_id, .. } = self;
        for (_, slot) in by_id.iter() {
            if let Some(session) = &mut slots[slot as usize] {
                visit(slot, session);
            }
        }
    }

    /// Mutable walk in dense slot order — **not** station-id order. Only for
    /// per-session passes whose effect is independent of visit order
    /// (commutative counter folds, min/count reductions); every path whose
    /// iteration order can reach an output must use [`Self::values`].
    pub fn values_unordered_mut(&mut self) -> impl Iterator<Item = &mut StationSession> {
        self.slots.iter_mut().flatten()
    }

    /// Immutable dense walk; same order caveat as
    /// [`Self::values_unordered_mut`].
    pub fn values_unordered(&self) -> impl Iterator<Item = &StationSession> {
        self.slots.iter().flatten()
    }

    /// Evicts every session idle for more than `max_idle_rounds` as of
    /// `closed_round`, returning how many were evicted. While the cached
    /// bound on the coldest activity round says no session can be past the
    /// budget this is `O(1)`; otherwise one dense sweep evicts what is due
    /// and makes the bound exact again.
    pub fn evict_idle(&mut self, closed_round: u64, max_idle_rounds: u64) -> usize {
        if closed_round.saturating_sub(self.coldest_round) <= max_idle_rounds {
            return 0;
        }
        let mut evicted = 0;
        let mut coldest = u64::MAX;
        for slot in 0..self.slots.len() {
            let Some(session) = &self.slots[slot] else {
                continue;
            };
            if session.idle_rounds(closed_round) > max_idle_rounds {
                let id = session.id();
                self.remove(id);
                evicted += 1;
            } else {
                coldest = coldest.min(session.activity_round());
            }
        }
        self.coldest_round = coldest;
        evicted
    }
}

/// `u16` lanes of one 64-byte line: a [`CodeArena`] row is a whole number
/// of them.
const LINE_LANES: usize = 32;

/// Rows a code arena's first vector holds: a shard's first sixteen
/// stations are seated in one allocation, not five doublings.
const FIRST_ROWS: usize = 16;

/// Lanes of a row's header: the width (lane 0), the code count (lanes 2–3),
/// `min` and `max` (lanes 4–5 and 6–7, their f32 bits low half first); the
/// codes start at the 16th byte of the row.
const HEAD_LANES: usize = 8;

/// The pending payloads of one shard, one row a session slot — see the
/// module docs. A row is whole 64-byte lines (two for a 56-code bottleneck:
/// 16 bytes of header, 112 of codes), so a gather or a look-ahead reads
/// only the lines of its own row, and a row is meaningful only while its
/// session has a payload pending: a freed slot's row is left as it was
/// and the next session seated there starts with nothing pending.
///
/// The rows are one zero-allocated vector, started at its first line
/// boundary, that seating doubles: a larger one is allocated zeroed and the
/// rows ever stored to are copied over, so seating touches no row and a
/// row's memory is first written by the ingest that stores a payload in it.
#[derive(Debug, Default)]
pub(crate) struct CodeArena {
    /// Row `slot` is `lanes[skew + slot * stride..][..stride]`; a line of
    /// slack past the rows leaves room to start them on a line boundary.
    lanes: Vec<u16>,
    /// Lanes before the first line boundary of `lanes`.
    skew: usize,
    /// Lanes a row: the header and the widest registered bottleneck,
    /// rounded up to whole lines (0 before any model is registered).
    stride: usize,
    /// Rows the vector holds.
    rows: usize,
    /// One past the highest slot ever stored to: the rows a move copies.
    stored: usize,
}

impl Clone for CodeArena {
    fn clone(&self) -> Self {
        let mut clone = Self {
            stride: self.stride,
            ..Self::default()
        };
        clone.relay(self.rows, self);
        clone
    }
}

impl CodeArena {
    /// Makes every row wide enough for `codes` codes. A wider row re-lays
    /// the arena, every row's payload kept; a narrower one changes nothing.
    pub(crate) fn widen(&mut self, codes: usize) {
        let stride = (HEAD_LANES + codes).next_multiple_of(LINE_LANES);
        if stride > self.stride {
            let old = std::mem::take(self);
            self.stride = stride;
            self.relay(old.rows, &old);
        }
    }

    /// Holds rows for the first `rows` slots, in one allocation.
    pub(crate) fn reserve(&mut self, rows: usize) {
        if rows > self.rows {
            let old = std::mem::take(self);
            self.stride = old.stride;
            self.relay(rows, &old);
        }
    }

    /// Holds a row for `slot`, doubling the vector when it is full.
    pub(crate) fn seat(&mut self, slot: u32) {
        let rows = slot as usize + 1;
        if rows > self.rows {
            let old = std::mem::take(self);
            self.stride = old.stride;
            self.relay(rows.max(2 * old.rows).max(FIRST_ROWS), &old);
        }
    }

    /// Becomes `rows` zeroed rows on a line boundary, holding the rows of
    /// `old` that were ever stored to.
    fn relay(&mut self, rows: usize, old: &CodeArena) {
        self.lanes = vec![0; LINE_LANES + rows * self.stride];
        self.skew = (64 - self.lanes.as_ptr() as usize % 64) % 64 / 2;
        self.rows = rows;
        self.stored = old.stored;
        for slot in 0..old.stored as u32 {
            self.lanes_mut(slot)[..old.stride].copy_from_slice(old.lanes(slot));
        }
    }

    /// The lanes of the row of `slot`.
    fn lanes(&self, slot: u32) -> &[u16] {
        &self.lanes[self.skew + slot as usize * self.stride..][..self.stride]
    }

    fn lanes_mut(&mut self, slot: u32) -> &mut [u16] {
        &mut self.lanes[self.skew + slot as usize * self.stride..][..self.stride]
    }

    /// Copies `payload` into the row of `slot`. The caller validated its
    /// code count against the session's model, so it fits the row.
    pub(crate) fn store(&mut self, slot: u32, payload: PayloadView<'_>) {
        let (bits, min, max) = (payload.bits_per_value, payload.min, payload.max);
        self.head(slot, bits, min, max, payload.codes.len())
            .copy_from_slice(payload.codes);
    }

    /// Writes the payload of a frame [`wire::check_frame`] accepted into
    /// the row of `slot`, the codes unpacked straight there. The caller
    /// matched the header's code count against the session's model, so the
    /// codes fit the row.
    pub(crate) fn store_frame(&mut self, slot: u32, header: &FrameHeader, frame: &[u8]) {
        let (bits, min, max) = (header.bits_per_value, header.min, header.max);
        let codes = self.head(slot, bits, min, max, header.count);
        wire::unpack_codes(frame, header, codes);
    }

    /// Writes a payload's width, range and code count into the row of
    /// `slot`; returns the room for its `count` codes.
    fn head(&mut self, slot: u32, bits: u8, min: f32, max: f32, count: usize) -> &mut [u16] {
        self.stored = self.stored.max(slot as usize + 1);
        let row = self.lanes_mut(slot);
        let halves = |word: u32| [word as u16, (word >> 16) as u16];
        row[0] = bits.into();
        row[2..4].copy_from_slice(&halves(count as u32));
        row[4..6].copy_from_slice(&halves(min.to_bits()));
        row[6..8].copy_from_slice(&halves(max.to_bits()));
        &mut row[HEAD_LANES..][..count]
    }

    /// The payload in the row of `slot`, as its last store left it.
    pub(crate) fn row(&self, slot: u32) -> PayloadView<'_> {
        let row = self.lanes(slot);
        let word = |at: usize| u32::from(row[at]) | u32::from(row[at + 1]) << 16;
        PayloadView {
            bits_per_value: row[0] as u8,
            min: f32::from_bits(word(4)),
            max: f32::from_bits(word(6)),
            codes: &row[HEAD_LANES..][..word(2) as usize],
        }
    }

    /// Look-ahead: requests every line of the row of `slot`, if it has one.
    pub(crate) fn prefetch(&self, slot: u32) {
        if (slot as usize) < self.rows {
            prefetch_read(self.lanes(slot));
        }
    }

    /// Cuts the payload in the row of `slot` to at most `codes` codes — the
    /// failed-batch fixture of the oracle tests.
    #[cfg(any(test, feature = "reference"))]
    pub(crate) fn truncate(&mut self, slot: u32, codes: usize) {
        let count = self.row(slot).codes.len().min(codes) as u32;
        self.lanes_mut(slot)[2..4].copy_from_slice(&[count as u16, (count >> 16) as u16]);
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
        // The visitor walks the same order, and the slots it hands out lead
        // back to the sessions it showed.
        let mut visited = Vec::new();
        slab.for_each_in_id_order(|slot, session| visited.push((slot, session.id())));
        assert_eq!(visited[0], (0, 1), "id 1 took the freed slot 0");
        for (&(slot, id), want) in visited.iter().zip(ids(&slab)) {
            assert_eq!(id, want);
            assert_eq!(slab.at(slot).map(|s| s.id()), Some(id));
            assert_eq!(slab.at_mut(slot).map(|s| s.id()), Some(id));
        }
        assert!(visited.len() == 6 && slab.at(6).is_none());
        // The dense walk visits everyone exactly once, order unspecified.
        let mut dense: Vec<StationId> = slab.values_unordered().map(|s| s.id()).collect();
        dense.sort_unstable();
        assert_eq!(dense, vec![1, 3, 8, 17, 99, SPARSE]);
    }

    #[test]
    fn eviction_takes_exactly_the_sessions_past_their_idle_budget() {
        let mut slab = SessionSlab::new();
        for id in 0..6u64 {
            slab.insert(session(id, 0)).unwrap();
        }
        // Serve 4 and 1 at round 5; the slab is told nothing about it.
        for id in [4u64, 1] {
            slab.get_mut(id).unwrap().store_feedback(&[0.0], 5);
        }
        // Within everybody's budget nothing goes.
        assert_eq!(slab.evict_idle(5, 5), 0);
        assert_eq!(slab.len(), 6);
        // As of round 8 with a 5-round budget, only the never-served four
        // (idle 8 > 5) go; 4 and 1 (idle 3) stay.
        assert_eq!(slab.evict_idle(8, 5), 4);
        assert_eq!(ids(&slab), vec![1, 4]);
        assert_eq!(slab.evict_idle(8, 5), 0);
        // Re-registration after eviction works and is not due.
        slab.insert(session(0, 8)).unwrap();
        assert_eq!(slab.evict_idle(8, 5), 0);
        assert_eq!(ids(&slab), vec![0, 1, 4]);
        // The survivors go when their own budget runs out, the newcomer not.
        assert_eq!(slab.evict_idle(11, 5), 2);
        assert_eq!(ids(&slab), vec![0]);
    }

    #[test]
    fn a_stale_adoption_among_fresh_residents_is_still_found() {
        let mut slab = SessionSlab::new();
        let mut fresh = session(10, 6);
        fresh.store_feedback(&[0.0], 6);
        slab.insert(fresh).unwrap();
        // An adopted session whose last activity is far older than every
        // resident's must lower the coldest-round bound, or round 7's close
        // would not look.
        slab.insert(session(20, 1)).unwrap();
        assert_eq!(slab.evict_idle(7, 3), 1, "stale adoptee evicts");
        assert_eq!(ids(&slab), vec![10]);
    }

    /// A code row holds what was last stored in it, through the growth
    /// that seats thousands of rows (the vector moves several times), a
    /// clone, a wider model and a narrower one — and every row starts on a
    /// line boundary.
    #[test]
    fn code_rows_keep_their_payloads_on_line_boundaries() {
        use splitbeam::quantization::QuantizedFeedback;
        let payload = |slot: u32, codes: u16| QuantizedFeedback {
            bits_per_value: 1 + (slot % 16) as u8,
            min: -(slot as f32),
            max: slot as f32 * 0.5,
            codes: (0..codes)
                .map(|i| (slot as u16).wrapping_mul(31) ^ i)
                .collect(),
        };
        let check = |arena: &CodeArena, what: &str| {
            for slot in 0..3000u32 {
                let want = payload(slot, 56 - (slot % 3) as u16);
                assert_eq!(
                    arena.row(slot),
                    PayloadView::from(&want),
                    "{what}: slot {slot}"
                );
                let at = arena.lanes(slot).as_ptr() as usize;
                assert_eq!(at % 64, 0, "{what}: slot {slot} off a line");
            }
        };
        let mut arena = CodeArena::default();
        arena.widen(56);
        for slot in 0..3000u32 {
            arena.seat(slot);
            arena.store(slot, (&payload(slot, 56 - (slot % 3) as u16)).into());
        }
        check(&arena, "seated");
        check(&arena.clone(), "cloned");
        arena.widen(545);
        check(&arena, "widened");
        arena.widen(10);
        check(&arena, "narrower model");
        arena.truncate(7, 3);
        assert_eq!(arena.row(7).codes, &payload(7, 56 - 1).codes[..3]);
    }

    /// The ids the model checks draw from: a dense run, both sides of the
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
        // Few, short cases: once `DENSE_ID_BOUND - 1` is in, every walk
        // crosses a million table entries.
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
                prop_assert_eq!(
                    index.iter().collect::<Vec<_>>(),
                    model.iter().map(|(&id, &v)| (id, v)).collect::<Vec<_>>()
                );
            }
        }

        /// `SessionSlab` against an ordered map of activity rounds over
        /// random insert / remove / serve-at-round / `evict_idle` /
        /// re-insert sequences, rounds only moving forward: the same evicted
        /// *set*, `len`, membership and ascending `values()` after every
        /// step — whatever the cached coldest-round bound believed.
        #[test]
        fn prop_session_slab_matches_an_ordered_map(
            steps in proptest::collection::vec(0u64..u64::MAX, 1..64),
        ) {
            let mut slab = SessionSlab::new();
            // id → activity round.
            let mut model: BTreeMap<StationId, u64> = BTreeMap::new();
            let mut round = 0u64;
            for word in steps {
                let id = POOL[(word >> 8) as usize % POOL.len()];
                round += (word >> 16) % 3;
                match word % 5 {
                    // A fresh registration, or (half the time) an adoption
                    // whose activity lies up to seven rounds back.
                    0 => {
                        let joined = round.saturating_sub((word >> 24) % 2 * ((word >> 32) % 8));
                        let inserted = slab.insert(session(id, joined)).is_ok();
                        prop_assert_eq!(inserted, !model.contains_key(&id));
                        model.entry(id).or_insert(joined);
                    }
                    1 => prop_assert_eq!(
                        slab.remove(id).map(|s| s.activity_round()),
                        model.remove(&id)
                    ),
                    2 => {
                        if let Some(session) = slab.get_mut(id) {
                            session.store_feedback(&[0.0], round);
                        }
                        if let Some(activity) = model.get_mut(&id) {
                            *activity = round;
                        }
                    }
                    // The residents agreed before the step and are compared
                    // after it, so an equal count is an equal evicted set.
                    _ => {
                        let (budget, before) = ((word >> 40) % 6, model.len());
                        model.retain(|_, activity| round - *activity <= budget);
                        prop_assert_eq!(slab.evict_idle(round, budget), before - model.len());
                    }
                }
                prop_assert_eq!(slab.len(), model.len());
                for probe in POOL {
                    let resident = slab.get(probe).map(|s| s.activity_round());
                    prop_assert_eq!(resident, model.get(&probe).copied());
                }
                prop_assert_eq!(ids(&slab), model.keys().copied().collect::<Vec<_>>());
            }
        }
    }
}
