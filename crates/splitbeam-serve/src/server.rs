//! The sessionized AP feedback server.

use crate::session::{SessionHealth, StationId, StationSession};
use crate::shard::{ShardCore, StreamLane, TailEngine};
use crate::timing::{DeadlinePolicy, FrameStamp, RoundDelayStats};
use crate::ServeError;
use rayon::prelude::*;
use splitbeam::fused::{QuantizedTail, TailWeights};
use splitbeam::model::SplitBeamModel;
use splitbeam::Refusal;
use std::sync::Arc;
use wifi_phy::precoding::BeamformingFeedback;

/// What one round close did, merged across shards (deterministically, in
/// shard order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundSummary {
    /// Index of the round that was just closed.
    pub round: u64,
    /// Stations whose payload was reconstructed this round (on-time plus
    /// late-but-usable).
    pub served: usize,
    /// Registered stations that have reported in some earlier round but
    /// delivered nothing this round — their feedback aged.
    pub stale: usize,
    /// Registered stations that have never produced feedback: they delivered
    /// nothing this round *and* have nothing to go stale. Kept apart from
    /// [`RoundSummary::stale`] so "aged feedback" and "no feedback yet" stay
    /// distinguishable in serving reports.
    pub awaiting_first_report: usize,
    /// Batched tail invocations performed: one per model with pending
    /// traffic per shard (and per micro-close), so a sharded or streaming
    /// round runs more, smaller batches than a one-shard barrier round.
    pub batches: usize,
    /// Served reports whose end-to-end delay fit the Eq. 7d budget
    /// (inclusive). Untimed lockstep closes count every served report here.
    pub on_time: usize,
    /// Served reports past the budget but within the deadline policy's grace
    /// window — reconstructed, but flagged, never silently fresh.
    pub late: usize,
    /// Reports past budget *and* grace: consumed without reconstruction.
    pub expired: usize,
    /// Reports consumed unreconstructed because their batch failed. Every
    /// report pending at a close ends served, expired or discarded.
    pub discarded: usize,
    /// Virtual-delay breakdown (head/queue/air/tail) summed over served
    /// reports. All-zero under untimed lockstep serving.
    pub delay: RoundDelayStats,
    /// Frames the fault-injected medium dropped this round (event-driven
    /// serving only; always `0` for the server itself).
    pub lost: usize,
    /// Frames rejected by the CRC-32 integrity check this round.
    pub corrupt: usize,
    /// Station retransmissions that were attempted this round (event-driven
    /// serving only; always `0` for the server itself).
    pub retransmitted: usize,
    /// Stale stations still served from last-known-good feedback this round —
    /// their age is within the health policy's staleness cap. A subset of
    /// [`RoundSummary::stale`]; stations past the cap drop out of MU-MIMO
    /// grouping entirely.
    pub stale_served: usize,
}

impl RoundSummary {
    /// Adds every count of `other` into this summary (not `round`): shards
    /// into an AP, APs into a fleet round, rounds into a lifetime.
    pub(crate) fn merge(&mut self, other: &RoundSummary) {
        self.served += other.served;
        self.stale += other.stale;
        self.awaiting_first_report += other.awaiting_first_report;
        self.batches += other.batches;
        self.on_time += other.on_time;
        self.late += other.late;
        self.expired += other.expired;
        self.discarded += other.discarded;
        self.delay.merge(&other.delay);
        self.lost += other.lost;
        self.corrupt += other.corrupt;
        self.retransmitted += other.retransmitted;
        self.stale_served += other.stale_served;
    }
}

/// Thresholds of the per-session health state machine (graceful degradation
/// under a lossy or hostile medium).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive silent rounds before a session is marked
    /// [`SessionHealth::Degraded`]; `0` disables degradation tracking.
    pub degrade_after_misses: u32,
    /// Consecutive corrupt frames before a session is quarantined; `0`
    /// disables quarantining.
    pub quarantine_after_corrupt: u32,
    /// How many rounds a quarantine lasts once triggered.
    pub quarantine_rounds: u64,
    /// Maximum feedback age (in rounds) a silent station may be served from
    /// last-known-good feedback before it drops out of MU-MIMO grouping.
    pub stale_serve_cap: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            degrade_after_misses: 2,
            quarantine_after_corrupt: 3,
            quarantine_rounds: 8,
            stale_serve_cap: 3,
        }
    }
}

/// One shard's books of a round close, recorded in shard order. The AP's
/// [`RoundSummary`] is the merge of these summaries, field by field. This is
/// how stall-isolation is observed: a deliberately slow shard shows up here
/// with depressed `on_time` while every other shard's numbers are untouched
/// under streaming closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardRoundStats {
    /// What this shard counted over the round: micro-closes, the close, its
    /// health pass and the corrupt frames since the previous close.
    pub summary: RoundSummary,
    /// Watermark-triggered micro-batch closes (0 for barrier rounds).
    /// Observability only: deliberately not part of [`RoundSummary`], so a
    /// streaming round with no watermark fired stays bit-identical to the
    /// barrier close.
    pub micro_closes: usize,
    /// Whether the shard saw any traffic this round (served, failed, expired
    /// or still queued at the close).
    pub had_traffic: bool,
}

/// The AP-side serving state: model registry, station sessions partitioned
/// across `N` shards (station `id` lives on shard `id % N`, each shard with
/// its own round arena and streaming lane), and session lifecycle.
///
/// Ingest and reconstruction are decoupled: [`ApServer::ingest_wire`] decodes
/// and validates frames as they arrive, and the round close
/// ([`ApServer::process_round`] / [`ApServer::close`]) coalesces everything
/// pending into one **fused dequantize→tail** batched inference per model per
/// shard, all shards **in parallel** — bit-exact, for every shard count and
/// kernel backend, with the station-at-a-time oracle `close_serial` (behind
/// the `reference` feature). See the `shard` module for the exactness argument.
///
/// All per-round storage (wire decode buffers, serve-step worklists, fused
/// tail scratch, each shard's code arena of pending payloads, per-station
/// feedback buffers, per-shard books) is recycled, so a full steady-state ingest→close round performs no
/// heap allocation once every buffer has reached its high-water capacity.
///
/// **Session lifecycle:** [`ApServer::set_capacity`] bounds the fleet
/// (registrations beyond it fail with [`ServeError::CapacityExceeded`]),
/// [`ApServer::set_max_idle_rounds`] evicts stations that produced no
/// feedback for more than the configured number of rounds (never-reporting
/// stations are measured from association), and a deregistered or evicted id
/// can associate again with a blank session.
#[derive(Debug, Clone)]
pub struct ApServer {
    models: Vec<Arc<SplitBeamModel>>,
    /// Int8 tails bound from the registered models (same indices as
    /// `models`); consulted only when `tail_weights` is
    /// [`TailWeights::Int8`].
    tails: Vec<Arc<QuantizedTail>>,
    /// Which weight format round closes reconstruct with. The f32 default is
    /// bit-exact with the pre-quantization serving path.
    tail_weights: TailWeights,
    shards: Vec<ShardCore>,
    round: u64,
    max_idle_rounds: Option<u64>,
    capacity: Option<usize>,
    /// When set, wire ingest queues on each shard's bounded ring, frames
    /// commit on watermarks ([`ApServer::advance_watermark`]), and the close
    /// charges each shard its own stall instead of the slowest shard's.
    streaming: bool,
    /// Per-shard stats of the last round close, in shard order.
    last_shard_stats: Vec<ShardRoundStats>,
}

/// The name the multi-shard server had while it was a separate type.
pub type ShardedApServer = ApServer;

impl Default for ApServer {
    fn default() -> Self {
        Self::new()
    }
}

impl ApServer {
    /// Creates an empty one-shard server serving the f32 tail;
    /// [`ApServer::set_tail_weights`] opts into the int8 tier.
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// Creates an empty server with `num_shards` session shards (clamped to
    /// at least one).
    pub fn with_shards(num_shards: usize) -> Self {
        Self {
            models: Vec::new(),
            tails: Vec::new(),
            tail_weights: TailWeights::F32,
            // Built one by one: a cloned lane's ring is not sized up front.
            shards: std::iter::repeat_with(ShardCore::default)
                .take(num_shards.max(1))
                .collect(),
            round: 0,
            max_idle_rounds: None,
            capacity: None,
            streaming: false,
            last_shard_stats: Vec::new(),
        }
    }

    /// The deterministic shard a station id maps to (`id % num_shards`).
    pub fn shard_of(&self, id: StationId) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    /// The shard of `id`, for a caller's look-ahead (its slab's
    /// `prefetch_*` and `ShardCore::prefetch_payload`) over ids it is
    /// about to ingest.
    pub(crate) fn shard_for(&self, id: StationId) -> &ShardCore {
        &self.shards[self.shard_of(id)]
    }

    fn shard_mut(&mut self, id: StationId) -> &mut ShardCore {
        let shard = self.shard_of(id);
        &mut self.shards[shard]
    }

    /// Caps the number of simultaneously registered stations; `None` lifts
    /// the cap. Registrations beyond the cap fail with
    /// [`ServeError::CapacityExceeded`]; already-registered stations are
    /// never dropped by lowering the cap.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// Enables idle eviction: after each round close, stations idle for more
    /// than `max_idle_rounds` sounding rounds are removed. `None` (the
    /// default) disables eviction.
    pub fn set_max_idle_rounds(&mut self, max_idle_rounds: Option<u64>) {
        self.max_idle_rounds = max_idle_rounds;
    }

    /// Registers a tail model and returns its key. Stations referencing the
    /// same key share the model (and one batched inference per shard per
    /// close). The model's int8 tail is quantized and packed here, once, so
    /// round closes under [`TailWeights::Int8`] pay no bind cost. A model
    /// with a wider bottleneck than any before widens every shard's code
    /// arena, pending payloads kept.
    pub fn register_model(&mut self, model: SplitBeamModel) -> usize {
        for shard in &mut self.shards {
            shard.codes.widen(model.bottleneck_dim());
        }
        self.tails.push(Arc::new(QuantizedTail::bind(&model)));
        self.models.push(Arc::new(model));
        self.models.len() - 1
    }

    /// Makes room for `stations` stations spread evenly over the shards —
    /// each shard's slot vector and code arena are allocated once, so
    /// registering them regrows neither. For a builder that knows its
    /// population.
    pub(crate) fn reserve_stations(&mut self, stations: usize) {
        let share = stations.div_ceil(self.shards.len());
        for shard in &mut self.shards {
            shard.sessions.reserve(share);
            shard.codes.reserve(share);
        }
    }

    /// The weight format round closes currently reconstruct with.
    pub fn tail_weights(&self) -> TailWeights {
        self.tail_weights
    }

    /// Switches the tail weight format for subsequent round closes. Safe at
    /// any round boundary — the int8 tails were bound at registration.
    pub fn set_tail_weights(&mut self, mode: TailWeights) {
        self.tail_weights = mode;
    }

    /// The model behind `key`.
    pub fn model(&self, key: usize) -> Option<&SplitBeamModel> {
        self.models.get(key).map(Arc::as_ref)
    }

    /// The admission gate shared by cold registration and warm adoption, in
    /// reporting order: model key, bit width, duplicate id, then the
    /// capacity cap (so a duplicate id reports as duplicate, not capacity).
    fn check_admission(
        &self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        if model_key >= self.models.len() {
            return Err(ServeError::UnknownModel(model_key));
        }
        if !(1..=16).contains(&bits_per_value) {
            return Err(ServeError::Codec(Refusal::BitWidth(bits_per_value).into()));
        }
        if self.session(id).is_some() {
            return Err(ServeError::DuplicateStation(id));
        }
        match self.capacity {
            Some(cap) if self.num_stations() >= cap => Err(ServeError::CapacityExceeded(id, cap)),
            _ => Ok(()),
        }
    }

    /// Associates a station with a registered model and quantizer width,
    /// placing its session on shard [`ApServer::shard_of`]`(id)`.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] for an unregistered key,
    /// [`ServeError::Codec`] for a bit width outside `1..=16`,
    /// [`ServeError::DuplicateStation`] when the id is already associated,
    /// and [`ServeError::CapacityExceeded`] when the request is otherwise
    /// valid but the server is at the configured cap.
    pub fn register_station(
        &mut self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        self.check_admission(id, model_key, bits_per_value)?;
        let session = StationSession::new(id, model_key, bits_per_value, self.round);
        self.shard_mut(id)
            .insert_session(session)
            .map_err(|rejected| ServeError::DuplicateStation(rejected.id()))
    }

    /// Removes a station's session (disassociation), along with any frames
    /// it still has queued on a streaming lane. The id can be registered
    /// again afterwards with a completely fresh session.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] when the id is not registered.
    pub fn deregister_station(&mut self, id: StationId) -> Result<(), ServeError> {
        self.release_station(id).map(|_| ())
    }

    /// Releases station `id` for a fleet handoff, returning its full session
    /// state (pending payload, feedback history, health and staleness
    /// clocks) for the target AP to adopt. Unlike deregistration, nothing is
    /// reset: a pending payload's codes leave the shard's code arena with
    /// the session, the one place a pending payload is allocated. Frames still queued on a streaming lane do not travel: they
    /// are dropped here and the session leaves with none in flight, so the
    /// station's retransmission is accepted at the target.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] when the id is not registered.
    pub fn release_station(&mut self, id: StationId) -> Result<StationSession, ServeError> {
        self.shard_mut(id)
            .release_session(id)
            .ok_or(ServeError::UnknownStation(id))
    }

    /// Adopts a roaming station's released session, rebound to this server's
    /// `model_key` — the warm half of a fleet handoff; no cold re-register,
    /// so the station keeps its feedback, pending payload (written into the
    /// code arena of the shard that seats it) and health state.
    ///
    /// # Errors
    /// The same admission checks as [`ApServer::register_station`], then
    /// [`ServeError::Codec`] when a pending payload's code count does not
    /// match `model_key`'s bottleneck (it would fail the adopting shard's
    /// whole batch at the close). The rejected session rides back in the
    /// error so the caller can restore it at the source AP instead of
    /// dropping the station.
    // The fat Err is the point: the rejected session must ride back to the
    // caller for restore, and boxing a cold failure path buys nothing.
    #[allow(clippy::result_large_err)]
    pub fn adopt_station(
        &mut self,
        mut session: StationSession,
        model_key: usize,
    ) -> Result<(), (StationSession, ServeError)> {
        let id = session.id();
        if let Err(e) = self.check_admission(id, model_key, session.bits_per_value()) {
            return Err((session, e));
        }
        let want = self.models[model_key].bottleneck_dim();
        let got = session
            .in_transit()
            .map_or(0, |payload| payload.codes.len());
        if session.has_pending() && got != want {
            let e = ServeError::Codec(Refusal::CodeCount { got, want }.into());
            return Err((session, e));
        }
        session.rebind_model(model_key);
        self.shard_mut(id)
            .insert_session(session)
            .map_err(|rejected| (rejected, ServeError::DuplicateStation(id)))
    }

    /// Number of registered stations across all shards.
    pub fn num_stations(&self) -> usize {
        self.shards.iter().map(|s| s.sessions.len()).sum()
    }

    /// The session of station `id`.
    pub fn session(&self, id: StationId) -> Option<&StationSession> {
        self.shards[self.shard_of(id)].sessions.get(id)
    }

    /// Iterates over all sessions, shard by shard (station-id order within a
    /// shard — so plain station-id order on a one-shard server).
    pub fn sessions(&self) -> impl Iterator<Item = &StationSession> {
        self.shards.iter().flat_map(|s| s.sessions.values())
    }

    /// Index of the sounding round currently being collected.
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Number of payloads waiting for the next round close.
    pub fn pending_count(&self) -> usize {
        self.shards.iter().map(ShardCore::pending_count).sum()
    }

    /// Ingests one bit-packed wire frame from station `id` for the current
    /// round, returning the frame size in bytes. A station reporting twice in
    /// one round replaces its pending payload (last wins).
    ///
    /// The frame decodes into its shard's recycled decode buffer and the
    /// validated codes are copied into the row of the station's slot in the
    /// shard's code arena — steady-state ingest allocates nothing. In streaming mode
    /// ([`ApServer::set_streaming`]) the frame queues on the shard's bounded
    /// ring instead and becomes pending when a watermark commits it.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] for an unassociated id,
    /// [`ServeError::Quarantined`] while the station is quarantined,
    /// [`ServeError::Corrupt`] when the frame fails its CRC-32 check,
    /// [`ServeError::DuplicateFrame`] when a sequenced frame re-delivers the
    /// pending sequence number, [`ServeError::Codec`] when the frame fails
    /// to decode, its bit width disagrees with the session, or the code count
    /// does not match the station's model bottleneck, and
    /// [`ServeError::Backpressure`] when a streaming shard's ring is full. A
    /// failed ingest leaves any previously pending payload of the station
    /// untouched.
    pub fn ingest_wire(&mut self, id: StationId, frame: &[u8]) -> Result<usize, ServeError> {
        self.ingest_wire_at(id, frame, FrameStamp::default())
    }

    /// Timestamped wire ingest: like [`ApServer::ingest_wire`], but records
    /// the frame's virtual-time [`FrameStamp`] (arrival plus per-leg delay
    /// breakdown), so a close under a [`DeadlinePolicy`] can classify the
    /// report against the Eq. 7d budget.
    ///
    /// # Errors
    /// Same contract as [`ApServer::ingest_wire`].
    pub fn ingest_wire_at(
        &mut self,
        id: StationId,
        frame: &[u8],
        stamp: FrameStamp,
    ) -> Result<usize, ServeError> {
        let shard = self.shard_of(id);
        self.shards[shard].ingest_wire(&self.models, id, frame, stamp, self.round, self.streaming)
    }

    /// Replaces the health thresholds on every shard (takes effect from the
    /// next ingest).
    pub fn set_health_policy(&mut self, policy: HealthPolicy) {
        for shard in &mut self.shards {
            shard.health = policy;
        }
    }

    /// Closes the current round with no deadline policy: every pending
    /// report is served and counted on time. Shorthand for
    /// [`ApServer::close`]`(None)`.
    ///
    /// # Errors
    /// Same contract as [`ApServer::close`].
    pub fn process_round(&mut self) -> Result<RoundSummary, ServeError> {
        self.close(None)
    }

    /// Closes the current round. Every shard, in parallel (claimed from the
    /// rayon pool): commits whatever its streaming lane still holds, coalesces all
    /// pending payloads into **one fused dequantize→tail batched inference per
    /// model** ([`SplitBeamModel::reconstruct_quantized_batch_into_rows`],
    /// [`crate::TILE_ROWS`] stations at a time), hands every reconstruction
    /// to its session — the row buffer and the session's previous feedback
    /// swap, nothing is copied — and runs the once-per-round health pass.
    /// Then idle stations are evicted when an idle budget is set, the
    /// shards' books (the micro-closes watermarks already ran this round
    /// counted in) merge deterministically in shard order, and the round
    /// counter advances.
    ///
    /// With a `policy`, every pending report is classified by its ingest
    /// stamp's end-to-end delay — on-time (within the Eq. 7d budget,
    /// inclusive) and late-but-usable reports are reconstructed in the same
    /// batch, expired reports are consumed **without** reconstruction.
    /// Untimed frames carry an all-zero stamp and always classify on-time.
    ///
    /// A lockstep server closes under the round barrier: the round waits for
    /// the slowest shard, so every report pays the maximum shard stall (the
    /// close lag the tests' stalled-shard model sets). A streaming server's
    /// shards each pay only their own.
    ///
    /// # Errors
    /// [`ServeError::Model`] when a tail reconstruction fails. The round is
    /// **partial, not voided**: the failed batch's payloads are discarded,
    /// but every other batch on every shard still ran and stored its
    /// reconstructions, and the round counter advanced — the error is the
    /// first failure in shard, then model-key, order.
    pub fn close(&mut self, policy: Option<DeadlinePolicy>) -> Result<RoundSummary, ServeError> {
        let barrier_lag = (!self.streaming).then(|| self.barrier_lag_ns());
        self.close_shards(|shard, engine, round| {
            shard.close(engine, round, policy, barrier_lag.unwrap_or(shard.stall_ns));
        })
    }

    /// Test oracle for [`ApServer::close`] on a lockstep server: every shard
    /// reconstructs **one station at a time** through the unfused
    /// dequantize-then-tail path. Produces bit-identical session state and
    /// summaries.
    ///
    /// # Errors
    /// Same contract as [`ApServer::close`].
    #[cfg(any(test, feature = "reference"))]
    pub fn close_serial(
        &mut self,
        policy: Option<DeadlinePolicy>,
    ) -> Result<RoundSummary, ServeError> {
        let lag = self.barrier_lag_ns();
        self.close_shards(|shard, engine, round| shard.close_serial(engine, round, policy, lag))
    }

    /// Truncates station `id`'s already-validated pending payload so its
    /// model's batch fails at the close — the failed-batch fixture of the
    /// oracle tests. No effect on an unregistered id.
    #[cfg(any(test, feature = "reference"))]
    #[doc(hidden)]
    pub fn truncate_pending_payload(&mut self, id: StationId) {
        self.shard_mut(id).truncate_pending(id, 3);
    }

    /// The close lag every shard pays under the round barrier: the maximum
    /// stall across all shards (the barrier waits for the slowest).
    fn barrier_lag_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.stall_ns).max().unwrap_or(0)
    }

    /// Runs `close_shard` over every shard in parallel, evicts idle
    /// stations, and takes and merges the shards' books in shard order.
    fn close_shards(
        &mut self,
        close_shard: impl Fn(&mut ShardCore, &TailEngine<'_>, u64) + Sync,
    ) -> Result<RoundSummary, ServeError> {
        let round = self.round;
        self.round += 1;
        let engine = TailEngine::new(&self.models, &self.tails, self.tail_weights);
        let max_idle = self.max_idle_rounds;
        self.shards.par_iter_mut().for_each(|shard| {
            close_shard(shard, &engine, round);
            shard.evicted = max_idle.map_or(0, |budget| shard.sessions.evict_idle(round, budget));
        });
        let mut summary = RoundSummary {
            round,
            ..RoundSummary::default()
        };
        let mut first_error = None;
        self.last_shard_stats.clear();
        for shard in &mut self.shards {
            let closed = std::mem::take(&mut shard.tally);
            self.last_shard_stats.push(closed);
            summary.merge(&closed.summary);
            // Taken from every shard: a later round must not report it.
            let error = shard.error.take();
            first_error = first_error.or(error);
        }
        first_error.map_or(Ok(summary), Err)
    }

    /// Stations evicted by the most recent round close (`0` before the first
    /// close, or when eviction is disabled).
    pub fn evicted_in_last_round(&self) -> usize {
        self.shards.iter().map(|s| s.evicted).sum()
    }

    /// Per-shard stats of the most recent round close, in shard order (empty
    /// before the first close).
    pub fn shard_round_stats(&self) -> &[ShardRoundStats] {
        &self.last_shard_stats
    }

    /// Switches between lockstep and streaming ingest across all shards. In
    /// streaming mode wire ingest queues frames on the shards' bounded rings,
    /// commits happen on watermarks ([`ApServer::advance_watermark`]) or at
    /// the close, and the close charges each shard only its own stall. Only
    /// toggle while quiescent (no frames queued or pending).
    pub fn set_streaming(&mut self, on: bool) {
        self.streaming = on;
    }

    /// Sets shard `shard`'s artificial close lag (stalled-shard model): its
    /// reports pay `ns` of additional queueing delay when classified.
    /// Identity at 0. Under barrier closes **every** shard's reports pay the
    /// maximum stall (the barrier waits for the slowest shard); under
    /// streaming closes each shard pays only its own.
    ///
    /// # Panics
    /// When `shard` is out of range.
    #[cfg(any(test, feature = "reference"))]
    pub fn set_shard_stall_ns(&mut self, shard: usize, ns: u64) {
        self.shards[shard].stall_ns = ns;
    }

    /// Replaces every shard's streaming ingest ring with one of `capacity`
    /// slots (rounded up to a power of two, minimum 2). Only call while
    /// quiescent: any queued frames are dropped.
    pub fn set_stream_capacity(&mut self, capacity: usize) {
        for shard in &mut self.shards {
            shard.lane = StreamLane::with_capacity(capacity);
        }
    }

    /// One watermark tick at virtual time `watermark_ns` with tick period
    /// `step_ns`: every shard commits the queued frames that have arrived by
    /// the watermark, then micro-closes its pending batch iff its own oldest
    /// pending frame's Eq. 7d service deadline (per `policy`, default
    /// [`DeadlinePolicy::eq7d`]) falls before the next watermark —
    /// **independently of every other shard** (no barrier). Shards advance
    /// serially in shard order, which keeps the tick deterministic.
    /// Micro-batch accounting accumulates into the summary of the round's
    /// [`ApServer::close`].
    pub fn advance_watermark(
        &mut self,
        watermark_ns: u64,
        step_ns: u64,
        policy: Option<DeadlinePolicy>,
    ) {
        let round = self.round;
        let engine = TailEngine::new(&self.models, &self.tails, self.tail_weights);
        for shard in &mut self.shards {
            shard.advance_watermark(&engine, round, watermark_ns, step_ns, policy);
        }
    }

    /// The latest reconstructed feedback of station `id`, in the tail's flat
    /// real-interleaved layout.
    pub fn feedback_of(&self, id: StationId) -> Option<&[f32]> {
        self.session(id).and_then(StationSession::feedback)
    }

    /// The latest feedback of station `id` materialized as per-subcarrier
    /// `Nt x Nss` beamforming matrices.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] / [`ServeError::NoFeedback`] when the
    /// station is missing or was never served.
    pub fn feedback_matrices_of(
        &self,
        id: StationId,
    ) -> Result<Vec<mimo_math::CMatrix>, ServeError> {
        let session = self.session(id).ok_or(ServeError::UnknownStation(id))?;
        let flat = session.feedback().ok_or(ServeError::NoFeedback(id))?;
        self.models[session.model_key()]
            .feedback_to_matrices(flat)
            .map_err(ServeError::Model)
    }

    /// Stacks the latest feedback of `ids` (in the given order) into the
    /// per-user layout [`wifi_phy::precoding::ZfPrecoder`] consumes. Matrix
    /// materialization happens here, per precoding group — deliberately off
    /// the per-round serving path.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] / [`ServeError::NoFeedback`] when a
    /// station is missing or was never served.
    pub fn group_feedback(&self, ids: &[StationId]) -> Result<BeamformingFeedback, ServeError> {
        ids.iter()
            .map(|&id| self.feedback_matrices_of(id))
            .collect()
    }

    /// Stations (ascending id order, merged across shards) whose feedback is
    /// at most `max_age` rounds old, relative to the last closed round.
    /// Quarantined stations are excluded — their link is not trusted, so they
    /// never enter a precoding group.
    pub fn fresh_station_ids(&self, max_age: u64) -> Vec<StationId> {
        let now = self.round.saturating_sub(1);
        let mut ids: Vec<StationId> = self
            .sessions()
            .filter(|s| s.is_fresh(now, max_age) && s.health() != SessionHealth::Quarantined)
            .map(StationSession::id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Partitions fresh stations into MU-MIMO groups the zero-forcing precoder
    /// can serve simultaneously: stations sharing a model, chunked so each
    /// group's total stream count stays within the AP's `Nt` antennas.
    pub fn mu_mimo_groups(&self, max_age: u64) -> Vec<Vec<StationId>> {
        let fresh = self.fresh_station_ids(max_age);
        let mut groups = Vec::new();
        for (key, model) in self.models.iter().enumerate() {
            let config = model.config();
            let per_group = (config.mimo.nt / config.mimo.nss.max(1)).max(1);
            let members: Vec<StationId> = fresh
                .iter()
                .copied()
                .filter(|&id| self.session(id).is_some_and(|s| s.model_key() == key))
                .collect();
            groups.extend(members.chunks(per_group).map(<[StationId]>::to_vec));
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{model, model_at, station_frame};
    use splitbeam::config::CompressionLevel;

    #[test]
    fn registration_is_validated() {
        let mut server = ApServer::new();
        assert_eq!(
            server.register_station(1, 0, 8),
            Err(ServeError::UnknownModel(0))
        );
        let key = server.register_model(model(1));
        assert!(server.register_station(1, key, 8).is_ok());
        assert_eq!(
            server.register_station(1, key, 8),
            Err(ServeError::DuplicateStation(1))
        );
        assert!(matches!(
            server.register_station(2, key, 0),
            Err(ServeError::Codec(_))
        ));
        assert_eq!(server.num_stations(), 1);
        assert!(server.model(key).is_some());
    }

    #[test]
    fn deregistration_enables_clean_reregistration() {
        let m = model(9);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        server.register_station(5, key, 8).unwrap();
        server.ingest_wire(5, &station_frame(&m, 40, 8)).unwrap();
        server.process_round().unwrap();
        assert!(server.feedback_of(5).is_some());
        assert_eq!(
            server.deregister_station(77),
            Err(ServeError::UnknownStation(77))
        );
        server.deregister_station(5).unwrap();
        assert_eq!(server.num_stations(), 0);
        assert_eq!(
            server.ingest_wire(5, &station_frame(&m, 41, 8)),
            Err(ServeError::UnknownStation(5))
        );
        // Re-registration starts from a blank session.
        server.register_station(5, key, 8).unwrap();
        let session = server.session(5).unwrap();
        assert!(session.feedback().is_none());
        assert_eq!(session.payloads_ingested(), 0);
        assert_eq!(session.joined_round(), 1);
    }

    #[test]
    fn ingest_validates_width_and_dimension() {
        let m = model(2);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        server.register_station(7, key, 8).unwrap();

        let frame = station_frame(&m, 3, 8);
        assert!(matches!(
            server.ingest_wire(99, &frame),
            Err(ServeError::UnknownStation(99))
        ));
        // Wrong announced width.
        let narrow = station_frame(&m, 3, 4);
        assert!(matches!(
            server.ingest_wire(7, &narrow),
            Err(ServeError::Codec(_))
        ));
        // Wrong bottleneck width: a frame from a model of another
        // compression level.
        let other = model_at(2, CompressionLevel::OneQuarter);
        assert!(matches!(
            server.ingest_wire(7, &station_frame(&other, 3, 8)),
            Err(ServeError::Codec(_))
        ));
        // Valid frame; a second one in the same round replaces the first.
        assert_eq!(server.ingest_wire(7, &frame).unwrap(), frame.len());
        server.ingest_wire(7, &frame).unwrap();
        assert_eq!(server.pending_count(), 1);
        assert_eq!(server.session(7).unwrap().payloads_ingested(), 2);
    }

    #[test]
    fn corrupt_frames_feed_health_and_quarantine() {
        let m = model(11);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        server.register_station(0, key, 8).unwrap();
        let good = station_frame(&m, 90, 8);
        let mut bad = good.clone();
        bad[20] ^= 0x10; // damage a payload byte; the CRC must catch it
        let policy = HealthPolicy::default();
        assert_eq!(policy.quarantine_after_corrupt, 3);

        // Two corrupt frames: rejected and counted, station still accepted.
        for _ in 0..2 {
            assert!(matches!(
                server.ingest_wire(0, &bad),
                Err(ServeError::Corrupt(0, _))
            ));
        }
        assert_eq!(server.session(0).unwrap().corrupt_streak(), 2);
        // The third crosses the threshold: quarantined for 8 rounds.
        assert!(matches!(
            server.ingest_wire(0, &bad),
            Err(ServeError::Corrupt(0, _))
        ));
        let session = server.session(0).unwrap();
        assert_eq!(session.health(), SessionHealth::Quarantined);
        assert_eq!(session.quarantined_until(), Some(policy.quarantine_rounds));
        // Even a pristine frame is rejected while quarantined.
        assert_eq!(
            server.ingest_wire(0, &good),
            Err(ServeError::Quarantined(0))
        );
        // The close reports the corrupt frames and keeps the station out of
        // MU-MIMO grouping.
        let summary = server.process_round().unwrap();
        assert_eq!(summary.corrupt, 3);
        assert_eq!(summary.served, 0);
        assert!(server.fresh_station_ids(u64::MAX).is_empty());
        // Quarantine expires after `quarantine_rounds` closes; the station
        // then reports normally again.
        for _ in 1..policy.quarantine_rounds {
            assert_eq!(
                server.ingest_wire(0, &good),
                Err(ServeError::Quarantined(0))
            );
            server.process_round().unwrap();
        }
        assert_eq!(server.current_round(), policy.quarantine_rounds);
        server.ingest_wire(0, &good).unwrap();
        let summary = server.process_round().unwrap();
        assert_eq!((summary.served, summary.corrupt), (1, 0));
        assert_eq!(server.session(0).unwrap().health(), SessionHealth::Healthy);
        assert_eq!(server.fresh_station_ids(0), vec![0]);
    }

    /// A quarantine of `u64::MAX` rounds is forever, from any round: the
    /// expiry round saturates instead of wrapping into the past (which in a
    /// release build left the station never refused).
    #[test]
    fn a_quarantine_of_u64_max_rounds_is_forever() {
        let m = model(12);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        server.register_station(0, key, 8).unwrap();
        server.set_health_policy(HealthPolicy {
            quarantine_rounds: u64::MAX,
            ..HealthPolicy::default()
        });
        let good = station_frame(&m, 93, 8);
        let mut bad = good.clone();
        bad[20] ^= 0x10;
        server.process_round().unwrap();
        // Three corrupt frames at round 1, then refused at every round.
        for _ in 0..3 {
            assert!(server.ingest_wire(0, &bad).is_err());
        }
        for _ in 0..3 {
            assert_eq!(
                server.ingest_wire(0, &good),
                Err(ServeError::Quarantined(0))
            );
            server.process_round().unwrap();
            let session = server.session(0).unwrap();
            assert_eq!(session.health(), SessionHealth::Quarantined);
            assert_eq!(session.quarantined_until(), Some(u64::MAX));
        }
    }

    #[test]
    fn duplicate_sequenced_frames_are_suppressed() {
        let m = model(13);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        server.register_station(4, key, 8).unwrap();
        let frame = station_frame(&m, 91, 8);
        let payload = {
            let mut buf = splitbeam::quantization::quantize_bottleneck(&[0.0; 1], 8);
            splitbeam::wire::decode_feedback_into(&frame, &mut buf).unwrap();
            buf
        };
        let seq5 = splitbeam::wire::encode_feedback_with_seq(&payload, 5).unwrap();
        let seq6 = splitbeam::wire::encode_feedback_with_seq(&payload, 6).unwrap();

        server.ingest_wire(4, &seq5).unwrap();
        // Re-delivery of the pending sequence number is suppressed.
        assert_eq!(
            server.ingest_wire(4, &seq5),
            Err(ServeError::DuplicateFrame(4, 5))
        );
        assert_eq!(server.session(4).unwrap().payloads_ingested(), 1);
        // A different sequence number replaces the pending payload.
        server.ingest_wire(4, &seq6).unwrap();
        assert_eq!(server.session(4).unwrap().payloads_ingested(), 2);
        // Unsequenced (seq 0) frames keep last-wins semantics.
        server.ingest_wire(4, &frame).unwrap();
        server.ingest_wire(4, &frame).unwrap();
        assert_eq!(server.session(4).unwrap().payloads_ingested(), 4);
        assert_eq!(server.pending_count(), 1);
    }

    #[test]
    fn silent_stations_are_stale_served_up_to_the_cap() {
        let m = model(17);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        server.register_station(0, key, 8).unwrap();
        server.ingest_wire(0, &station_frame(&m, 92, 8)).unwrap();
        let summary = server.process_round().unwrap();
        assert_eq!((summary.served, summary.stale_served), (1, 0));
        let cap = HealthPolicy::default().stale_serve_cap;
        // While within the staleness cap the silent station is still carried
        // by last-known-good feedback...
        for age in 1..=cap {
            let summary = server.process_round().unwrap();
            assert_eq!(
                (summary.stale, summary.stale_served),
                (1, 1),
                "age {age} within cap {cap}"
            );
        }
        // ...then it falls out.
        let summary = server.process_round().unwrap();
        assert_eq!((summary.stale, summary.stale_served), (1, 0));
        // Two consecutive misses degraded the session long ago.
        assert_eq!(server.session(0).unwrap().health(), SessionHealth::Degraded);
    }

    #[test]
    fn batched_round_matches_serial_round_exactly() {
        let m = model(4);
        let stations = 5u64;
        let mut batched = ApServer::new();
        let mut serial = ApServer::new();
        let bkey = batched.register_model(m.clone());
        let skey = serial.register_model(m.clone());
        for id in 0..stations {
            batched.register_station(id, bkey, 6).unwrap();
            serial.register_station(id, skey, 6).unwrap();
        }
        for round in 0..3u64 {
            for id in 0..stations {
                // Station `stations - 1` skips round 1 to exercise staleness.
                if round == 1 && id == stations - 1 {
                    continue;
                }
                let frame = station_frame(&m, 100 + round * stations + id, 6);
                batched.ingest_wire(id, &frame).unwrap();
                serial.ingest_wire(id, &frame).unwrap();
            }
            let b = batched.process_round().unwrap();
            let s = serial.close_serial(None).unwrap();
            assert_eq!(b, s, "round summaries must agree");
            if round == 1 {
                assert_eq!(b.served, stations as usize - 1);
                assert_eq!(b.stale, 1);
                assert_eq!(b.awaiting_first_report, 0);
            }
            for id in 0..stations {
                assert_eq!(
                    batched.feedback_of(id),
                    serial.feedback_of(id),
                    "round {round}, station {id}: batched and serial must be bit-exact"
                );
            }
        }
        // The skipping station's feedback aged but was refreshed in round 2.
        assert_eq!(batched.session(stations - 1).unwrap().last_round(), Some(2));
    }

    #[test]
    fn staleness_and_grouping() {
        let m = model(5);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        for id in 0..5u64 {
            server.register_station(id, key, 8).unwrap();
        }
        // Round 0: stations 0..3 report; 3 and 4 stay silent (and have never
        // reported, so they await a first report rather than going stale).
        for id in 0..3u64 {
            let frame = station_frame(&m, 50 + id, 8);
            server.ingest_wire(id, &frame).unwrap();
        }
        let summary = server.process_round().unwrap();
        assert_eq!(
            (
                summary.served,
                summary.stale,
                summary.awaiting_first_report,
                summary.batches
            ),
            (3, 0, 2, 1)
        );
        assert_eq!(server.fresh_station_ids(0), vec![0, 1, 2]);
        // Nt = 2, Nss = 1 -> groups of at most two stations.
        let groups = server.mu_mimo_groups(0);
        assert_eq!(groups, vec![vec![0, 1], vec![2]]);
        let feedback = server.group_feedback(&groups[0]).unwrap();
        assert_eq!(feedback.len(), 2);
        assert_eq!(feedback[0].len(), 56);
        assert_eq!(server.group_feedback(&[4]), Err(ServeError::NoFeedback(4)));
        assert_eq!(
            server.group_feedback(&[77]),
            Err(ServeError::UnknownStation(77))
        );
        // One idle round: the previously-served stations' feedback goes stale,
        // the never-reporting pair still awaits its first report.
        let summary = server.process_round().unwrap();
        assert_eq!(
            (summary.served, summary.stale, summary.awaiting_first_report),
            (0, 3, 2)
        );
        assert!(server.fresh_station_ids(0).is_empty());
        assert_eq!(server.fresh_station_ids(1), vec![0, 1, 2]);
    }

    /// A served reconstruction changes hands: the tail writes each row into
    /// a buffer of the shard's scratch, which then swaps with the session's
    /// previous feedback. After two warm rounds (a first report copies its
    /// row into a buffer of the session's own; the scratch grows one buffer
    /// a tile row) the buffers in circulation are one fixed set — one a
    /// station plus [`crate::TILE_ROWS`] — every station's feedback sits in
    /// another of them each round, and a round allocates nothing on its
    /// thread. A station removed between ingest and close takes its buffer
    /// with it, out of circulation, and a failed batch swaps nothing.
    #[test]
    fn steady_state_round_recycles_feedback_buffers() {
        use splitbeam_analysis::alloc_sentinel::{assert_counting, assert_thread_no_alloc};
        use std::collections::BTreeSet;
        assert_counting();
        let m = model(8);
        let stations = crate::TILE_ROWS as u64 + 2;
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        for id in 0..stations {
            server.register_station(id, key, 6).unwrap();
        }
        let frames: Vec<Vec<u8>> = (0..stations)
            .map(|id| station_frame(&m, 70 + id, 6))
            .collect();
        let ingest = |server: &mut ApServer| {
            for (id, frame) in frames.iter().enumerate() {
                match server.ingest_wire(id as StationId, frame) {
                    Ok(_) | Err(ServeError::UnknownStation(_)) => {}
                    Err(e) => panic!("station {id}: {e}"),
                }
            }
        };
        let held = |server: &ApServer| -> Vec<(StationId, usize)> {
            server
                .sessions()
                .map(|s| {
                    (
                        s.id(),
                        server.feedback_of(s.id()).unwrap().as_ptr() as usize,
                    )
                })
                .collect()
        };
        let circulation = |server: &ApServer| -> BTreeSet<usize> {
            let scratch = server.shards[0]
                .tail_rows()
                .iter()
                .map(|row| row.as_ptr() as usize);
            held(server)
                .into_iter()
                .map(|(_, at)| at)
                .chain(scratch)
                .collect()
        };
        for _ in 0..2 {
            ingest(&mut server);
            server.process_round().unwrap();
        }
        let warm = circulation(&server);
        assert_eq!(warm.len(), stations as usize + crate::TILE_ROWS);
        for _ in 0..2 {
            let before = held(&server);
            let summary = assert_thread_no_alloc("a steady-state round", || {
                ingest(&mut server);
                server.process_round().unwrap()
            });
            assert_eq!(summary.served, stations as usize);
            assert_eq!(circulation(&server), warm, "one fixed set of buffers");
            for ((id, was), (_, is)) in before.into_iter().zip(held(&server)) {
                assert_ne!(was, is, "station {id}'s feedback changed hands");
            }
        }

        // Removed between ingest and close: its buffer leaves circulation
        // with its session, and no other changes hands with it.
        ingest(&mut server);
        let gone = server.feedback_of(5).unwrap().as_ptr() as usize;
        server.deregister_station(5).unwrap();
        assert_thread_no_alloc("a round without station 5", || {
            server.process_round().unwrap()
        });
        let mut without = warm.clone();
        without.remove(&gone);
        assert_eq!(circulation(&server), without);

        // A failed batch swaps nothing: every station keeps its buffer and
        // its feedback, the scratch its buffers.
        ingest(&mut server);
        server.truncate_pending_payload(7);
        let (before, feedback) = (held(&server), server.feedback_of(9).unwrap().to_vec());
        assert!(matches!(server.process_round(), Err(ServeError::Model(_))));
        assert_eq!(held(&server), before);
        assert_eq!(server.feedback_of(9).unwrap(), &feedback[..]);
        assert_eq!(circulation(&server), without);
        assert_eq!(server.pending_count(), 0);
    }

    #[test]
    fn multiple_models_batch_independently() {
        let m_a = model(6);
        let m_b = model_at(7, CompressionLevel::OneQuarter);
        let mut server = ApServer::new();
        let key_a = server.register_model(m_a.clone());
        let key_b = server.register_model(m_b.clone());
        server.register_station(0, key_a, 8).unwrap();
        server.register_station(1, key_b, 8).unwrap();
        server.ingest_wire(0, &station_frame(&m_a, 60, 8)).unwrap();
        server.ingest_wire(1, &station_frame(&m_b, 61, 8)).unwrap();
        let summary = server.process_round().unwrap();
        assert_eq!((summary.served, summary.batches), (2, 2));
    }

    /// Regression test for the historical error-path bug: a failed batch for
    /// one model used to consume the pending payloads of *every* station,
    /// including stations bound to other models whose batch never ran. The
    /// fixed semantics: the failure is scoped to the failing model's batch,
    /// every other model's batch still runs and stores its reconstructions —
    /// and the batched and serial paths agree on the failure path too (the
    /// failing model's batch is all-or-nothing in both, even for stations of
    /// that model whose own payload was fine).
    #[test]
    fn failed_batch_consumes_only_its_own_model() {
        let m_a = model(21);
        let m_b = model_at(22, CompressionLevel::OneQuarter);
        let m_c = model_at(23, CompressionLevel::OneSixteenth);
        for serial in [false, true] {
            let mut server = ApServer::new();
            let key_a = server.register_model(m_a.clone());
            let key_b = server.register_model(m_b.clone());
            let key_c = server.register_model(m_c.clone());
            server.register_station(0, key_a, 8).unwrap();
            // Model B serves two stations: 1 (valid payload) and 3 (payload
            // corrupted below). Station 1's id sorts before 3, so a
            // station-at-a-time pass would reconstruct it before hitting the
            // failure — the all-or-nothing commit must prevent that.
            server.register_station(1, key_b, 8).unwrap();
            server.register_station(2, key_c, 8).unwrap();
            server.register_station(3, key_b, 8).unwrap();
            server.ingest_wire(0, &station_frame(&m_a, 60, 8)).unwrap();
            server.ingest_wire(1, &station_frame(&m_b, 61, 8)).unwrap();
            server.ingest_wire(2, &station_frame(&m_c, 62, 8)).unwrap();
            server.ingest_wire(3, &station_frame(&m_b, 63, 8)).unwrap();
            // Corrupt station 3's validated payload so model B's batch fails
            // at reconstruction time (validation already passed at ingest).
            server.truncate_pending_payload(3);
            let pending = server.pending_count();
            let result = if serial {
                server.close_serial(None)
            } else {
                server.process_round()
            };
            assert!(
                matches!(result, Err(ServeError::Model(_))),
                "serial={serial}: round must report the failed batch"
            );
            // The round advanced and the healthy models were still served.
            assert_eq!(server.current_round(), 1, "serial={serial}");
            assert!(server.feedback_of(0).is_some(), "serial={serial}");
            assert!(server.feedback_of(2).is_some(), "serial={serial}");
            // The failed model's payloads were all consumed without
            // reconstruction — including station 1's perfectly valid one.
            assert!(server.feedback_of(1).is_none(), "serial={serial}");
            assert!(server.feedback_of(3).is_none(), "serial={serial}");
            assert_eq!(server.pending_count(), 0, "serial={serial}");
            // The Err carries no summary; the shard's books balance.
            let books = server.shard_round_stats()[0].summary;
            let settled = books.served + books.expired + books.discarded;
            let counts = (books.served, books.discarded, settled);
            assert_eq!(counts, (2, 2, pending), "serial={serial}");
        }
    }

    /// A roaming session's pending payload must fit the adopting model: a
    /// 1/8 payload adopted under a 1/4 model would fail the adopting shard's
    /// whole batch at the close, its own stations included. The adoption is
    /// refused and the session handed back intact.
    #[test]
    fn adoption_refuses_a_pending_payload_the_model_cannot_take() {
        let m_eighth = model(24);
        let m_quarter = model_at(25, CompressionLevel::OneQuarter);
        let mut source = ApServer::new();
        let key = source.register_model(m_eighth.clone());
        source.register_station(9, key, 8).unwrap();
        source
            .ingest_wire(9, &station_frame(&m_eighth, 70, 8))
            .unwrap();
        let session = source.release_station(9).unwrap();

        let mut target = ApServer::new();
        let key = target.register_model(m_quarter.clone());
        target.register_station(0, key, 8).unwrap();
        target
            .ingest_wire(0, &station_frame(&m_quarter, 71, 8))
            .unwrap();
        let (session, e) = target.adopt_station(session, key).unwrap_err();
        assert!(matches!(e, ServeError::Codec(_)), "{e:?}");
        assert!(session.has_pending());
        let codes = session.in_transit().map(|payload| payload.codes.len());
        assert_eq!(codes, Some(m_eighth.bottleneck_dim()));
        assert!(target.session(9).is_none());
        let summary = target.process_round().unwrap();
        assert_eq!((summary.served, summary.discarded), (1, 0));
    }

    /// Feedback bits of `ids` on `server`, for bit-exact comparisons.
    fn feedback_bits(server: &ApServer, ids: impl Iterator<Item = StationId>) -> Vec<Vec<u32>> {
        ids.map(|id| {
            let served = server.feedback_of(id).unwrap_or_default();
            served.iter().map(|v| v.to_bits()).collect()
        })
        .collect()
    }

    /// A code-arena row outlives its session: an id registered into a freed
    /// slot — a new station, or the same id again — starts with nothing
    /// pending, though the row still holds the departed station's codes,
    /// and the close serves exactly the stations that reported.
    #[test]
    fn an_id_reregistered_into_a_freed_slot_has_no_pending_payload() {
        let m = model(27);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        for id in 0..4 {
            server.register_station(id, key, 8).unwrap();
            server
                .ingest_wire(id, &station_frame(&m, 80 + id, 8))
                .unwrap();
        }
        let slot_of = |server: &ApServer, id| server.shards[0].sessions.slot_of(id);
        let (freed_1, freed_2) = (slot_of(&server, 1), slot_of(&server, 2));
        server.deregister_station(2).unwrap();
        server.deregister_station(1).unwrap();
        server.register_station(9, key, 8).unwrap();
        server.register_station(2, key, 8).unwrap();
        assert_eq!(slot_of(&server, 9), freed_1, "9 takes the last freed slot");
        assert_eq!(slot_of(&server, 2), freed_2, "2 takes its own old slot");
        for id in [9, 2] {
            assert!(!server.session(id).unwrap().has_pending(), "station {id}");
        }
        assert_eq!(server.pending_count(), 2);
        let summary = server.process_round().unwrap();
        assert_eq!((summary.served, summary.awaiting_first_report), (2, 2));
        assert!(server.feedback_of(9).is_none() && server.feedback_of(2).is_none());
        assert!(server.feedback_of(0).is_some() && server.feedback_of(3).is_some());
    }

    /// Registering a model with a wider bottleneck re-lays every shard's
    /// code arena: each payload pending at that moment is served bit for
    /// bit as a server that never widened serves it, and the new model's
    /// stations are served beside them.
    #[test]
    fn a_wider_model_keeps_every_pending_payload() {
        let (narrow, wide) = (model(28), model_at(29, CompressionLevel::OneQuarter));
        let lines = |codes: usize| (8 + codes).div_ceil(32);
        assert!(lines(wide.bottleneck_dim()) > lines(narrow.bottleneck_dim()));
        for shards in [1, 3] {
            let [mut server, mut control] = [(); 2].map(|()| ApServer::with_shards(shards));
            for server in [&mut server, &mut control] {
                let key = server.register_model(narrow.clone());
                for id in 0..12 {
                    server.register_station(id, key, 6).unwrap();
                    server
                        .ingest_wire(id, &station_frame(&narrow, 90 + id, 6))
                        .unwrap();
                }
            }
            let wide_key = server.register_model(wide.clone());
            server.register_station(40, wide_key, 6).unwrap();
            server
                .ingest_wire(40, &station_frame(&wide, 99, 6))
                .unwrap();
            assert_eq!(server.pending_count(), 13, "{shards} shards");
            assert_eq!(
                server.process_round().unwrap().served,
                13,
                "{shards} shards"
            );
            assert_eq!(
                control.process_round().unwrap().served,
                12,
                "{shards} shards"
            );
            assert_eq!(
                feedback_bits(&server, 0..12),
                feedback_bits(&control, 0..12),
                "{shards} shards"
            );
            assert!(server.feedback_of(40).is_some());
        }
    }

    /// A truncated payload fails its model's batch whole, whichever tile it
    /// sits in: nothing of the batch is stored and every payload is
    /// discarded. The truncation lives in the arena row only, so the next
    /// report overwrites it and the next round serves as a server that
    /// never failed.
    #[test]
    fn a_truncated_payload_fails_its_batch_whole_until_the_next_report() {
        let m = model(30);
        let stations = (crate::TILE_ROWS + 3) as u64;
        let [mut server, mut control] = [(); 2].map(|()| {
            let mut server = ApServer::new();
            let key = server.register_model(m.clone());
            for id in 0..stations {
                server.register_station(id, key, 4).unwrap();
            }
            server
        });
        let report = |server: &mut ApServer, round: u64| {
            for id in 0..stations {
                let frame = station_frame(&m, 1000 * round + id, 4);
                server.ingest_wire(id, &frame).unwrap();
            }
        };
        report(&mut server, 0);
        server.truncate_pending_payload(stations - 1);
        assert!(matches!(server.process_round(), Err(ServeError::Model(_))));
        let books = server.shard_round_stats()[0].summary;
        assert_eq!((books.served, books.discarded), (0, stations as usize));
        assert!((0..stations).all(|id| server.feedback_of(id).is_none()));
        control.process_round().unwrap();
        for server in [&mut server, &mut control] {
            report(server, 1);
            assert_eq!(server.process_round().unwrap().served, stations as usize);
        }
        assert_eq!(
            feedback_bits(&server, 0..stations),
            feedback_bits(&control, 0..stations)
        );
    }

    #[test]
    fn ids_map_to_shards_deterministically() {
        let server = ApServer::with_shards(4);
        assert_eq!(server.shards.len(), 4);
        for id in 0..32u64 {
            assert_eq!(server.shard_of(id), (id % 4) as usize);
        }
        // Shard count clamps to at least one.
        assert_eq!(ApServer::with_shards(0).shards.len(), 1);
        assert_eq!(ApServer::new().shards.len(), 1);
    }

    #[test]
    fn capacity_cap_rejects_and_reopens() {
        let m = model(33);
        let mut server = ApServer::with_shards(3);
        let key = server.register_model(m);
        server.set_capacity(Some(2));
        server.register_station(0, key, 8).unwrap();
        server.register_station(1, key, 8).unwrap();
        assert_eq!(
            server.register_station(2, key, 8),
            Err(ServeError::CapacityExceeded(2, 2))
        );
        // A duplicate id reports as duplicate, not capacity.
        assert_eq!(
            server.register_station(1, key, 8),
            Err(ServeError::DuplicateStation(1))
        );
        // Departures free capacity.
        server.deregister_station(0).unwrap();
        server.register_station(2, key, 8).unwrap();
        assert_eq!(server.num_stations(), 2);
        let ids: Vec<StationId> = server.sessions().map(StationSession::id).collect();
        assert_eq!(ids, vec![1, 2]);
        // Lifting the cap reopens registration.
        server.set_capacity(None);
        server.register_station(0, key, 8).unwrap();
        assert_eq!(server.num_stations(), 3);
    }

    #[test]
    fn idle_stations_are_evicted_and_can_reregister() {
        let m = model(35);
        let mut server = ApServer::with_shards(2);
        let key = server.register_model(m.clone());
        server.set_max_idle_rounds(Some(1));
        for id in 0..4u64 {
            server.register_station(id, key, 8).unwrap();
        }
        // Rounds 0..3: stations 0 and 1 keep reporting, 2 and 3 stay silent.
        let mut evicted_total = 0;
        for round in 0..3u64 {
            for id in 0..2u64 {
                let frame = station_frame(&m, 700 + round * 2 + id, 8);
                server.ingest_wire(id, &frame).unwrap();
            }
            server.process_round().unwrap();
            evicted_total += server.evicted_in_last_round();
        }
        // Stations 2 and 3 never reported; idle exceeded the 1-round budget
        // after round 2 closed.
        assert_eq!(evicted_total, 2);
        assert_eq!(server.num_stations(), 2);
        assert!(server.session(2).is_none());
        assert!(server.session(3).is_none());
        assert_eq!(
            server.ingest_wire(2, &station_frame(&m, 800, 8)),
            Err(ServeError::UnknownStation(2))
        );
        // Clean re-registration: fresh session, joins at the current round.
        server.register_station(2, key, 8).unwrap();
        let session = server.session(2).unwrap();
        assert!(session.feedback().is_none());
        assert_eq!(session.joined_round(), 3);
        // An active reporter is never evicted.
        assert!(server.session(0).is_some());
        assert!(server.feedback_of(0).is_some());
    }
}
