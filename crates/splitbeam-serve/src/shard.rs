//! One shard of serving state and the single round close.
//!
//! An [`ApServer`](crate::server::ApServer) owns `N` [`ShardCore`]s (station
//! `id` lives on shard `id % N`). Each shard holds its own session slab, the
//! code arena of its sessions' pending payloads (one line-aligned row a
//! slot), its round arena and its streaming lane, so shards share nothing
//! mutable and close in parallel. Every serving step lives here exactly
//! once:
//!
//! * **ingest** ([`ShardCore::ingest_wire`]): session lookup → quarantine
//!   gate → frame check (CRC, then the header at its fixed offsets) →
//!   duplicate suppression by the header's sequence number → width and code
//!   count against the session's model → unpack, the codes written straight
//!   into the code-arena row of the session's slot (lockstep) or into a
//!   recycled buffer that queues on the shard's bounded ring until a
//!   watermark commits it there (streaming); no row is written before every
//!   refusal has had its chance;
//! * **watermark** ([`ShardCore::advance_watermark`]): commits due frames and
//!   micro-closes the pending batch when its oldest frame's Eq. 7d service
//!   deadline would otherwise pass;
//! * **close** ([`ShardCore::close`]): flush the lane → serve what is pending
//!   → run the once-per-round health pass. A barrier close is the same close
//!   on an empty lane; "no deadline" is `policy == None`. The serve step
//!   lists pending slots in station-id order, then gathers each tile's
//!   payloads as a run of slot → arena-row reads, touching no session until
//!   the tile's reconstructions are committed.
//!
//! A released session (a fleet handoff) carries its pending codes out of
//! the arena and an adopting shard writes them into the row of the slot it
//! seats the session in, so a pending payload survives roaming bit for bit.
//!
//! Each step counts what it did where it happens, into one running
//! [`ShardRoundStats`] for the round being collected (corrupt frames, batches,
//! served, expired and discarded reports, micro-closes); the server takes it
//! after the close and merges the shards' summaries.
//!
//! Because the fused batched tail's per-element accumulation is independent
//! of batch shape (see [`splitbeam::fused`]), splitting a model's stations
//! across shards, micro-batches or the serve step's [`TILE_ROWS`]-station
//! tiles changes batch boundaries but not one output bit: every shard count
//! and every watermark cadence is bit-exact with the station-at-a-time oracle
//! (`close_serial`, behind the `reference` feature).

use crate::ring::Ring;
use crate::server::{HealthPolicy, RoundSummary, ShardRoundStats};
use crate::session::{StationId, StationSession};
use crate::slab::{CodeArena, SessionSlab, LOOKAHEAD};
use crate::timing::{DeadlinePolicy, FrameClass, FrameStamp};
use crate::ServeError;
use mimo_math::kernel::packed::AlignedRow;
use mimo_math::kernel::Kernel;
use mimo_math::Int8Kernel;
use splitbeam::fused::{QuantizedTail, TailScratch, TailWeights};
use splitbeam::model::SplitBeamModel;
use splitbeam::quantization::QuantizedFeedback;
use splitbeam::wire;
use splitbeam::{Refusal, SplitBeamError};
use std::sync::Arc;

/// A payload buffer with no codes yet; streaming ingest fills it.
fn empty_payload() -> QuantizedFeedback {
    QuantizedFeedback {
        bits_per_value: 1,
        min: 0.0,
        max: 0.0,
        codes: Vec::new(),
    }
}

/// Reusable per-round scratch owned by one shard: the serve step's
/// worklist and the tail's buffers. Ingest needs none of it — a frame's
/// codes are unpacked straight into the code-arena row of its session's
/// slot (lockstep) or into a recycled lane buffer (streaming).
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundArena {
    /// The serve step's worklist, one [`Batch`] per registered model.
    work: Vec<Batch>,
    /// Buffers of the fused batched tail reconstruction, one tile's worth.
    tail: TailScratch,
}

/// One model's share of a serve step, as [`ShardCore::list_pending`] found it.
#[derive(Debug, Clone, Default)]
struct Batch {
    /// Slots of the stations holding a pending payload, in station-id order.
    slots: Vec<u32>,
    /// The failure of the first listed payload whose code count is not the
    /// model's bottleneck width: the batch fails whole, before any of it is
    /// served. Ingest validated every payload once; this guards the
    /// invariant the all-or-nothing batch semantics rest on.
    invalid: Option<ServeError>,
}

/// Rows the serve step pushes through the tail at once. A model's pending
/// batch is served tile by tile, so a shard's tail scratch (dequantized
/// strip, layer outputs, one row buffer a tile row) is sized by this
/// constant and not by the shard's session count — only the worklist, a
/// `u32` a station, is. A tile's reconstructions change hands with the
/// sessions' previous ones, so the buffers in circulation are one a station
/// plus at most this many (2x2/20 MHz, a 224-wide output: 128 x 224 f32 =
/// 112 KiB). 128 runs each of the GEMM's weight panels through eleven
/// 12 x 32 register tiles (zmm; twenty-two 6 x 16 on ymm), which amortizes
/// its loads, and is at least the per-shard batch of every AP-scale
/// workload, which therefore still runs one GEMM per model per close.
pub const TILE_ROWS: usize = 128;

/// Default capacity of a shard's streaming ingest ring.
const DEFAULT_STREAM_CAPACITY: usize = 256;

/// One decoded frame queued in a shard's streaming ring, awaiting its
/// watermark commit.
#[derive(Debug, Clone)]
struct StreamFrame {
    id: StationId,
    payload: QuantizedFeedback,
    stamp: FrameStamp,
    seq: u16,
}

/// One shard's streaming state: the bounded ingest ring and a freelist of
/// recycled payload buffers (steady-state streaming ingest allocates
/// nothing).
#[derive(Debug, Clone)]
pub(crate) struct StreamLane {
    ring: Ring<StreamFrame>,
    free: Vec<QuantizedFeedback>,
}

impl StreamLane {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: Ring::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Drops every queued frame of station `id`, recycling its buffer.
    fn purge(&mut self, id: StationId) {
        let Self { ring, free } = self;
        ring.retain_mut(|frame| {
            let keep = frame.id != id;
            if !keep {
                free.push(std::mem::replace(&mut frame.payload, empty_payload()));
            }
            keep
        });
    }
}

impl Default for StreamLane {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_STREAM_CAPACITY)
    }
}

/// Everything a round close needs to run the tail: the f32 master models, the
/// int8 tails bound from them at registration, which weight format serves this
/// round, and the resolved kernel of each precision tier. Built once per close
/// and shared (it is `Copy`) by every shard, so micro-closes, round closes and
/// the serial oracle all dispatch identically.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TailEngine<'a> {
    models: &'a [Arc<SplitBeamModel>],
    tails: &'a [Arc<QuantizedTail>],
    mode: TailWeights,
    kern: Kernel,
    ik: Int8Kernel,
}

impl<'a> TailEngine<'a> {
    /// Bundles the registries with the kernels currently selected for the f32
    /// and int8 tiers (`SPLITBEAM_KERNEL` / [`mimo_math::kernel::set_kernel`]).
    pub(crate) fn new(
        models: &'a [Arc<SplitBeamModel>],
        tails: &'a [Arc<QuantizedTail>],
        mode: TailWeights,
    ) -> Self {
        Self {
            models,
            tails,
            mode,
            kern: mimo_math::kernel::selected(),
            ik: mimo_math::kernel::int8::selected_int8(),
        }
    }
}

/// One shard's worth of serving state: a session partition, its private
/// round arena and its streaming lane.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardCore {
    pub(crate) sessions: SessionSlab,
    /// The pending payloads' codes, one row a slot of `sessions`.
    pub(crate) codes: CodeArena,
    arena: RoundArena,
    /// Health thresholds applied to every session of this shard.
    pub(crate) health: HealthPolicy,
    pub(crate) lane: StreamLane,
    /// Artificial close lag injected into this shard's serving path (bench
    /// stall model). Barrier closes pay the *maximum* stall across shards —
    /// the whole round waits on the slowest shard — while streaming closes
    /// pay only the shard's own stall.
    pub(crate) stall_ns: u64,
    /// The books of the round being collected, and its first serve failure:
    /// the close stamps them, and the server takes both after the fan-out.
    pub(crate) tally: ShardRoundStats,
    pub(crate) error: Option<ServeError>,
    /// Stations the server evicted from this shard after the last close.
    pub(crate) evicted: usize,
}

impl ShardCore {
    /// Wire ingest. The fault-tolerant order: session lookup, quarantine
    /// gate, the frame checked whole ([`wire::check_frame`]: a
    /// [`ServeError::Corrupt`] rejection feeds the session's corrupt streak
    /// and can trigger quarantine), duplicate-sequence suppression by the
    /// header's `seq`, the header's width and code count against the
    /// session's model — and only then are the codes unpacked, straight
    /// into where they are used. Lockstep unpacks them into the code-arena
    /// row of the session's slot (last wins). With `streaming` they go into
    /// a recycled lane buffer that queues on the shard's bounded ring and
    /// only becomes pending when a watermark commits it; a full ring rejects
    /// it with [`ServeError::Backpressure`]. A failed ingest of any kind
    /// leaves session state and a previously pending payload untouched.
    ///
    /// A sequence number is suppressed while the station still has that
    /// frame in flight (queued on the ring) or pending (committed, not yet
    /// served).
    pub(crate) fn ingest_wire(
        &mut self,
        models: &[Arc<SplitBeamModel>],
        id: StationId,
        frame: &[u8],
        stamp: FrameStamp,
        round: u64,
        streaming: bool,
    ) -> Result<usize, ServeError> {
        let Self {
            sessions,
            codes,
            health,
            lane,
            tally,
            ..
        } = self;
        let (slot, session) = sessions
            .entry_mut(id)
            .ok_or(ServeError::UnknownStation(id))?;
        if session.is_quarantined(round) {
            return Err(ServeError::Quarantined(id));
        }
        let header = wire::check_frame(frame).map_err(|e| match e {
            SplitBeamError::CorruptFrame(crc) => {
                tally.summary.corrupt += 1;
                session.note_corrupt(round, health);
                ServeError::Corrupt(id, crc)
            }
            other => ServeError::Codec(other),
        })?;
        let seq = header.seq;
        if seq != 0
            && session.pending_seq() == seq
            && (session.stream_inflight() > 0 || session.has_pending())
        {
            return Err(ServeError::DuplicateFrame(id, seq));
        }
        let (bits, got) = (header.bits_per_value, header.count);
        let want = models[session.model_key()].bottleneck_dim();
        if bits != session.bits_per_value() {
            return Err(ServeError::Codec(Refusal::BitWidth(bits).into()));
        } else if got != want {
            return Err(ServeError::Codec(Refusal::CodeCount { got, want }.into()));
        }
        if streaming {
            // A recycled buffer keeps streaming ingest allocation-free in
            // steady state.
            let mut payload = lane.free.pop().unwrap_or_else(empty_payload);
            (payload.bits_per_value, payload.min, payload.max) = (bits, header.min, header.max);
            payload.codes.resize(got, 0);
            wire::unpack_codes(frame, &header, &mut payload.codes);
            let queued = StreamFrame {
                id,
                payload,
                stamp,
                seq,
            };
            if let Err(rejected) = lane.ring.push(queued) {
                lane.free.push(rejected.payload);
                return Err(ServeError::Backpressure(id, lane.ring.capacity()));
            }
            session.inc_stream_inflight();
            session.set_pending_seq(seq);
        } else {
            codes.store_frame(slot, &header, frame);
            session.mark_pending(stamp, seq);
        }
        session.note_clean_ingest();
        session.record_ingest(frame.len());
        Ok(frame.len())
    }

    /// Removes station `id`'s session, and with it the frames the station
    /// still has queued on the lane: they belong to the association that is
    /// ending, so a later registration of the same id must not inherit them
    /// and a released session must not leave counting frames nobody holds.
    pub(crate) fn remove_session(&mut self, id: StationId) -> Option<StationSession> {
        let mut session = self.sessions.remove(id)?;
        if session.stream_inflight() > 0 {
            self.lane.purge(id);
            session.clear_stream_inflight();
        }
        Some(session)
    }

    /// [`Self::remove_session`] for a handoff: a pending payload leaves the
    /// arena with the session, which carries it to the adopting shard.
    pub(crate) fn release_session(&mut self, id: StationId) -> Option<StationSession> {
        let slot = self.sessions.slot_of(id)?;
        let mut session = self.remove_session(id)?;
        if session.has_pending() {
            session.carry(self.codes.row(slot).into());
        }
        Some(session)
    }

    /// Seats `session` in a slot and gives the slot its arena row, writing
    /// there the pending payload the session carries from a handoff. A
    /// session whose id is already seated comes back, still carrying it.
    // The fat Err is the point: the rejected session rides back to the
    // caller for restore.
    #[allow(clippy::result_large_err)]
    pub(crate) fn insert_session(
        &mut self,
        mut session: StationSession,
    ) -> Result<(), StationSession> {
        let carried = session.unload();
        match self.sessions.seat(session) {
            Ok(slot) => {
                self.codes.seat(slot);
                if let Some(payload) = &carried {
                    self.codes.store(slot, payload.into());
                }
                Ok(())
            }
            Err(mut rejected) => {
                if let Some(payload) = carried {
                    rejected.carry(payload);
                }
                Err(rejected)
            }
        }
    }

    /// Look-ahead, the third step of the drain's chain (index → slot → arena
    /// row): requests the arena row of `id`'s slot, whose index entry the
    /// first step requested.
    pub(crate) fn prefetch_payload(&self, id: StationId) {
        if let Some(slot) = self.sessions.slot_of(id) {
            self.codes.prefetch(slot);
        }
    }

    /// Cuts station `id`'s pending payload to `codes` codes, so its model's
    /// batch fails at the close (the oracle tests' fixture).
    #[cfg(any(test, feature = "reference"))]
    pub(crate) fn truncate_pending(&mut self, id: StationId, codes: usize) {
        if let Some(slot) = self.sessions.slot_of(id) {
            self.codes.truncate(slot, codes);
        }
    }

    /// The row buffers of the shard's tail scratch: the feedback buffers in
    /// circulation besides the sessions' own.
    #[cfg(test)]
    pub(crate) fn tail_rows(&self) -> &[AlignedRow] {
        self.arena.tail.rows()
    }

    pub(crate) fn pending_count(&self) -> usize {
        // Order-free count: the dense slot walk, not the id-ordered view.
        self.sessions
            .values_unordered()
            .filter(|s| s.has_pending())
            .count()
    }

    /// Post-round health pass. Splits unserved stations into `stale`
    /// (feedback aged this round) vs `awaiting_first_report` (never reported);
    /// stations served this round count as neither. Of the stale stations,
    /// those whose feedback age is still within the policy's staleness cap are
    /// counted `stale_served` — the AP keeps representing them with
    /// last-known-good feedback; past the cap they drop out of MU-MIMO
    /// grouping. Every session's health state machine advances here.
    fn health_pass(&mut self, round: u64) {
        let (policy, books) = (self.health, &mut self.tally.summary);
        // Per-session counting: visit order cannot reach the output, so the
        // dense unordered walk is safe (and cache-friendly at fleet session
        // counts).
        for session in self.sessions.values_unordered_mut() {
            let mut reported = false;
            match session.last_round() {
                Some(r) if r == round => reported = true,
                Some(r) => {
                    books.stale += 1;
                    if round.saturating_sub(r) <= policy.stale_serve_cap {
                        books.stale_served += 1;
                    }
                }
                None => books.awaiting_first_report += 1,
            }
            session.close_health(round, &policy, reported);
        }
    }

    /// The one walk of a serve step, in station-id order. A pending report
    /// whose end-to-end delay (per its ingest stamp, plus `lag_ns` of close
    /// lag when a shard is stalled) falls past the policy's budget *and*
    /// grace window is consumed, never reconstructed — Eq. 7d is enforced at
    /// close, not measured post-hoc; with no policy nothing expires. Every
    /// other pending report is listed, by slot, in its model's [`Batch`] and
    /// its code count checked. Expired reports count into the round's books.
    fn list_pending(
        &mut self,
        engine: &TailEngine<'_>,
        policy: Option<DeadlinePolicy>,
        lag_ns: u64,
    ) {
        let (sessions, codes) = (&mut self.sessions, &self.codes);
        let (work, books) = (&mut self.arena.work, &mut self.tally.summary);
        work.resize_with(engine.models.len(), Batch::default);
        for batch in work.iter_mut() {
            batch.slots.clear();
            batch.invalid = None;
        }
        let stations = sessions.len();
        sessions.for_each_in_id_order(|slot, session| {
            if !session.has_pending() {
                return;
            }
            let delay_ns = session.pending_stamp().total_ns().saturating_add(lag_ns);
            if policy.is_some_and(|p| p.classify(delay_ns) == FrameClass::Expired) {
                session.consume_pending();
                books.expired += 1;
                return;
            }
            let key = session.model_key();
            let batch = &mut work[key];
            let got = codes.row(slot).codes.len();
            let want = engine.models[key].bottleneck_dim();
            if got != want && batch.invalid.is_none() {
                let mismatch = Refusal::CodeCount { got, want };
                batch.invalid = Some(ServeError::Model(mismatch.into()));
            }
            // Requested once, from the session count: growing by doubling
            // inside a 100k-station first close costs peak RSS.
            if batch.slots.len() == batch.slots.capacity() {
                batch.slots.reserve_exact(stations - batch.slots.len());
            }
            batch.slots.push(slot);
        });
    }

    /// Hands one reconstruction to its session — `row` and the session's
    /// feedback buffer swap ([`StationSession::swap_feedback`]) — and closes
    /// the station's report out: classifies it against the policy, counts it
    /// into the round's books and records the class on the session. `lag_ns`
    /// is the close lag of a stalled shard: it counts as additional queueing,
    /// so a report held past its budget by a slow close is classified (and
    /// recorded) late — identity at `lag_ns == 0`.
    fn commit_served(
        session: &mut StationSession,
        row: &mut AlignedRow,
        round: u64,
        policy: Option<DeadlinePolicy>,
        lag_ns: u64,
        books: &mut RoundSummary,
    ) {
        let stamp = session.pending_stamp().with_extra_queue(lag_ns);
        let is_late = policy.is_some_and(|p| p.classify(stamp.total_ns()) == FrameClass::Late);
        if is_late {
            books.late += 1;
        } else {
            books.on_time += 1;
        }
        books.served += 1;
        books.delay.record(&stamp);
        session.swap_feedback(row, round);
        session.record_service_class(policy.map(|_| stamp), is_late);
        session.consume_pending();
    }

    /// The serve step shared by the round close and watermark micro-closes:
    /// one walk ([`Self::list_pending`]) expires over-budget reports and
    /// lists the rest, then each model's list is reconstructed through the
    /// fused dequantize→tail inference in runs of [`TILE_ROWS`] slots
    /// (reconstruct → store → account per tile), each tile's payloads
    /// gathered from the code arena by slot — each row requested
    /// [`LOOKAHEAD`] slots early, no session read — and reconstructions
    /// stored through the slot. Tiling changes batch boundaries only, so it cannot
    /// move an output bit (see the module docs); `batches` counts one per
    /// model with pending traffic, however many tiles it took. With a
    /// [`DeadlinePolicy`], late-but-usable reports are served but flagged.
    /// Everything counts into the round's books; the health/staleness
    /// counts are the close's alone.
    ///
    /// **Partial-round semantics on failure:** the walk validated the batch
    /// whole before its first tile, so a failed batch stores nothing and
    /// consumes only *its own* pending payloads (they are what failed, and
    /// count as discarded); every other model's batch still runs and stores
    /// its reconstructions, and the round keeps its first error. Stations of
    /// healthy models are never penalized for an unrelated model's failure.
    fn serve_pending(
        &mut self,
        engine: &TailEngine<'_>,
        round: u64,
        policy: Option<DeadlinePolicy>,
        lag_ns: u64,
    ) {
        self.list_pending(engine, policy, lag_ns);
        let (sessions, codes) = (&mut self.sessions, &self.codes);
        let RoundArena { work, tail, .. } = &mut self.arena;
        let (books, error) = (&mut self.tally.summary, &mut self.error);
        for ((key, model), batch) in engine.models.iter().enumerate().zip(work.iter_mut()) {
            if batch.slots.is_empty() {
                continue;
            }
            books.batches += 1;
            let mut failure = batch.invalid.take();
            let mut unserved = batch.slots.as_slice();
            while failure.is_none() && !unserved.is_empty() {
                let (tile, rest) = unserved.split_at(unserved.len().min(TILE_ROWS));
                // Rows are read once, in slot order: a stream where slots
                // follow ids, a scatter after churn. Ask for the row
                // `LOOKAHEAD` slots on, the next tile's included, and for
                // the session the commit writes, which lands under the tile's
                // product.
                let payloads = tile.iter().enumerate().map(|(at, &slot)| {
                    if let Some(&ahead) = unserved.get(at + LOOKAHEAD) {
                        codes.prefetch(ahead);
                    }
                    sessions.prefetch_slot(slot);
                    codes.row(slot)
                });
                let result = match engine.mode {
                    TailWeights::F32 => model.reconstruct_quantized_batch_into_rows(
                        payloads,
                        tile.len(),
                        tail,
                        engine.kern,
                    ),
                    TailWeights::Int8 => engine.tails[key].reconstruct_quantized_batch_into_rows(
                        payloads,
                        tile.len(),
                        tail,
                        engine.ik,
                    ),
                };
                match result {
                    Ok(rows) => {
                        for (&slot, row) in tile.iter().zip(rows) {
                            let Some(session) = sessions.at_mut(slot) else {
                                continue;
                            };
                            Self::commit_served(session, row, round, policy, lag_ns, books);
                        }
                        unserved = rest;
                    }
                    // The walk checked every payload, so this is the tail
                    // itself failing.
                    Err(e) => failure = Some(ServeError::Model(e)),
                }
            }
            if let Some(failure) = failure {
                Self::discard(sessions, unserved, books);
                error.get_or_insert(failure);
            }
        }
    }

    /// Consumes the pending payloads a failed batch leaves unserved, each
    /// counted discarded.
    fn discard(sessions: &mut SessionSlab, unserved: &[u32], books: &mut RoundSummary) {
        for &slot in unserved {
            if let Some(session) = sessions.at_mut(slot) {
                session.consume_pending();
                books.discarded += 1;
            }
        }
    }

    /// Test oracle for [`ShardCore::serve_pending`]: the same walk, then one
    /// unfused reconstruction per station, with the same partial-round
    /// semantics — each model's payloads are reconstructed first and
    /// committed only when the *whole* model succeeded, so a failing payload
    /// consumes (discards) the failed model's pending payloads without
    /// storing any of them.
    #[cfg(any(test, feature = "reference"))]
    fn serve_pending_serial(
        &mut self,
        engine: &TailEngine<'_>,
        round: u64,
        policy: Option<DeadlinePolicy>,
        lag_ns: u64,
    ) {
        self.list_pending(engine, policy, lag_ns);
        let (sessions, codes) = (&mut self.sessions, &self.codes);
        let work = &mut self.arena.work;
        let (books, error) = (&mut self.tally.summary, &mut self.error);
        for ((key, model), batch) in engine.models.iter().enumerate().zip(work) {
            if batch.slots.is_empty() {
                continue;
            }
            books.batches += 1;
            let flats: Result<Vec<Vec<f32>>, ServeError> = match batch.invalid.take() {
                Some(error) => Err(error),
                None => batch
                    .slots
                    .iter()
                    .map(|&slot| match engine.mode {
                        TailWeights::F32 => model.reconstruct_quantized(codes.row(slot)),
                        TailWeights::Int8 => {
                            engine.tails[key].reconstruct_quantized(codes.row(slot), engine.ik)
                        }
                    })
                    .collect::<Result<_, SplitBeamError>>()
                    .map_err(ServeError::Model),
            };
            match flats {
                Ok(flats) => {
                    for (&slot, flat) in batch.slots.iter().zip(&flats) {
                        if let Some(session) = sessions.at_mut(slot) {
                            let row = &mut AlignedRow::from(&flat[..]);
                            Self::commit_served(session, row, round, policy, lag_ns, books);
                        }
                    }
                }
                Err(failure) => {
                    Self::discard(sessions, &batch.slots, books);
                    error.get_or_insert(failure);
                }
            }
        }
    }

    /// Commits every queued frame whose arrival stamp is at or before
    /// `watermark_ns` into its session, in ingest (FIFO) order — so a station
    /// reporting twice keeps last-wins semantics identical to lockstep
    /// ingest. Stops at the first frame still ahead of the watermark (head-
    /// gated: later frames wait even if individually due, preserving order).
    fn commit_due(&mut self, watermark_ns: u64) {
        let Self {
            lane,
            sessions,
            codes,
            ..
        } = self;
        while let Some(frame) = lane.ring.pop_if(|f| f.stamp.arrival_ns <= watermark_ns) {
            // Removing a session purges its queued frames, so the lookup
            // finds the association that sent this one.
            if let Some((slot, session)) = sessions.entry_mut(frame.id) {
                codes.store(slot, (&frame.payload).into());
                session.mark_pending(frame.stamp, frame.seq);
                session.dec_stream_inflight();
            }
            lane.free.push(frame.payload);
        }
    }

    /// One watermark tick: commits due frames, then micro-closes this shard's
    /// pending batch iff the oldest pending frame's Eq. 7d service deadline
    /// falls before the *next* watermark — i.e. this is the last watermark at
    /// which that frame can still be served within budget. Each shard decides
    /// independently and pays only its own stall; no cross-shard barrier.
    pub(crate) fn advance_watermark(
        &mut self,
        engine: &TailEngine<'_>,
        round: u64,
        watermark_ns: u64,
        step_ns: u64,
        policy: Option<DeadlinePolicy>,
    ) {
        self.commit_due(watermark_ns);
        let trigger = policy.unwrap_or_else(DeadlinePolicy::eq7d);
        let oldest_deadline = self
            .sessions
            .values_unordered()
            .filter(|s| s.has_pending())
            .map(|s| trigger.service_deadline_ns(s.pending_stamp()))
            .min();
        if oldest_deadline.is_some_and(|d| d <= watermark_ns.saturating_add(step_ns)) {
            self.serve_pending(engine, round, policy, self.stall_ns);
            self.tally.micro_closes += 1;
        }
    }

    /// The round close: commits everything still queued on the lane, serves
    /// whatever is pending as one batch per model, and runs the
    /// once-per-round health pass. The round's books — micro-closes
    /// included, they counted themselves as they ran — are then complete in
    /// [`ShardCore::tally`].
    ///
    /// `lag_ns` is the close lag every report of this shard pays: the caller
    /// passes the maximum stall across shards for a barrier close (the round
    /// waits for the slowest shard) and the shard's own stall for a streaming
    /// close.
    pub(crate) fn close(
        &mut self,
        engine: &TailEngine<'_>,
        round: u64,
        policy: Option<DeadlinePolicy>,
        lag_ns: u64,
    ) {
        let queued = !self.lane.ring.is_empty();
        self.commit_due(u64::MAX);
        self.serve_pending(engine, round, policy, lag_ns);
        self.finish_round(round, queued);
    }

    /// Test oracle for [`ShardCore::close`] on a lockstep shard: the same
    /// close with the station-at-a-time serve step.
    #[cfg(any(test, feature = "reference"))]
    pub(crate) fn close_serial(
        &mut self,
        engine: &TailEngine<'_>,
        round: u64,
        policy: Option<DeadlinePolicy>,
        lag_ns: u64,
    ) {
        self.serve_pending_serial(engine, round, policy, lag_ns);
        self.finish_round(round, false);
    }

    /// The once-per-round tail of a close: the health/staleness pass into
    /// the books, which are then stamped with the round and its traffic.
    fn finish_round(&mut self, round: u64, queued: bool) {
        self.health_pass(round);
        let books = &mut self.tally;
        books.summary.round = round;
        // Every pending report ends a close expired or in a batch.
        books.had_traffic = queued || books.summary.batches > 0 || books.summary.expired > 0;
    }
}
