//! The virtual-time, event-driven serving driver.
//!
//! [`EventDriver`] drives an [`ApServer`] through its own methods and
//! replaces the lockstep "all feedback lands simultaneously" fiction with a
//! discrete-event simulation on a virtual clock (integer nanoseconds, no wall
//! clock):
//!
//! 1. each station sounds on its own cadence and phase within the round,
//! 2. its head compute time (drawn from the
//!    [`AcceleratorModel`])
//!    plus seeded jitter delays the report,
//! 3. the report is offered to the **shared medium** through the timer-wheel
//!    event queue — its bytes in the driver's frame arena, the queue holding
//!    an 8-byte span of it — with deterministic `(offer time, station, seq)`
//!    tie-breaking — frames serialize one at a time in physical ready order,
//!    each charged through the same per-frame airtime primitive the
//!    round-level airtime model sums, on its **actual encoded wire size**
//!    (header included) — so a crowded round *queues*,
//! 4. each granted frame is ingested into the server **timestamped** with
//!    its full head/queue/air/tail breakdown,
//! 5. the round close enforces the Eq. 7d deadline: the server's close
//!    classifies every report on-time / late-but-usable / past-budget from
//!    its stamp.
//!
//! A retransmission re-sequences its offer's bytes in place and a refusal is
//! a value ([`splitbeam::Refusal`]), so a warm faulty round allocates nothing.
//!
//! With [`EventConfig::streaming`] the server ingests onto its shards' rings
//! and the drain interleaves deadline watermarks into the event order, so
//! shards micro-close mid-round; the round close is the same call either
//! way.
//!
//! Lockstep serving is recovered as the degenerate case: with zero jitter,
//! zero compute latency, an ideal medium and zero phase stagger
//! ([`EventConfig::lockstep`]), every stamp is all-zero, every report is
//! on-time, and the driver is **bit-exact** with bare [`ApServer`] serving —
//! the correctness anchor.

use crate::driver::{RoundServing, ServeMode};
use crate::fleet::Span;
use crate::server::{ApServer, RoundSummary};
use crate::session::StationId;
use crate::timing::{DeadlinePolicy, FrameStamp};
use crate::ServeError;
use splitbeam::model::SplitBeamModel;
use splitbeam::wire;
use splitbeam_hwsim::accelerator::AcceleratorModel;
use splitbeam_hwsim::delay::DelayBudget;
use splitbeam_hwsim::event::{
    s_to_ns, EventQueue, SeededJitter, SharedMedium, VirtualNs, WatermarkClock,
};
use splitbeam_hwsim::fault::{FaultConfig, FaultInjector, FrameFate};
use std::collections::BTreeMap;

/// Shape of one event-driven serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventConfig {
    /// Base sounding interval (round cadence), in seconds. 10 ms per the
    /// MU-MIMO sounding reference the paper cites.
    pub interval_s: f64,
    /// The Eq. 7d end-to-end delay budget enforced at round close.
    pub budget: DelayBudget,
    /// Grace window past the budget in which a report is still
    /// late-but-usable (reconstructed, but flagged). Beyond it the report is
    /// past-budget and dropped.
    pub grace_s: f64,
    /// Maximum per-report timing jitter, in virtual ns (seeded, uniform in
    /// `[0, max]`). Zero disables jitter.
    pub jitter_max_ns: VirtualNs,
    /// Seed of the jitter stream — two runs with the same seed and traffic
    /// are identical, event for event.
    pub seed: u64,
    /// Per-station sounding phase stagger within a round: station `id` sounds
    /// at `round_start + id * phase_step_ns`. Zero means all stations sound
    /// together (the lockstep assumption). A station whose offset puts its
    /// offer past the round's budget, one further interval and the grace
    /// window never reports in its round: the close counts it expired.
    pub phase_step_ns: VirtualNs,
    /// Feedback data rate of the shared medium in Mbit/s; `None` models an
    /// ideal zero-airtime medium (the lockstep degenerate case).
    pub feedback_rate_mbps: Option<f64>,
    /// Fault model of the medium (loss, corruption, duplication, extra
    /// delay). [`FaultConfig::none`] — the default — draws nothing from the
    /// fault RNG, keeping zero-fault runs bit-exact with the PR 5 drivers.
    pub faults: FaultConfig,
    /// Maximum station retransmissions per report after a loss or corruption
    /// (`0` disables retransmission).
    pub max_retries: u32,
    /// Base retransmission backoff in virtual ns; attempt `n` backs off
    /// `backoff << (n - 1)` after the failed transmission ends. A retry that
    /// cannot land within the Eq. 7d budget plus grace is not attempted.
    pub retry_backoff_ns: VirtualNs,
    /// Serve through streaming micro-batch closes instead of the round
    /// barrier: arrivals enqueue on the inner server's per-shard rings, the
    /// drain fires deadline watermarks, and the round close only flushes what
    /// the watermarks have not already served.
    pub streaming: bool,
    /// Watermark cadence in virtual ns for streaming closes; `0` means one
    /// watermark per sounding interval (the coarsest — and degenerate —
    /// cadence).
    pub watermark_ns: VirtualNs,
}

impl EventConfig {
    /// The degenerate lockstep configuration: zero jitter, zero phase
    /// stagger, ideal medium. Paired with zero compute latency
    /// (`accel = None` in [`build_event_driver`]), the event driver
    /// reproduces the legacy lockstep drivers bit-exactly.
    pub fn lockstep() -> Self {
        Self {
            interval_s: 0.01,
            budget: DelayBudget::default(),
            grace_s: 0.01,
            jitter_max_ns: 0,
            seed: 0,
            phase_step_ns: 0,
            feedback_rate_mbps: None,
            faults: FaultConfig::none(),
            max_retries: 0,
            retry_backoff_ns: 0,
            streaming: false,
            watermark_ns: 0,
        }
    }

    /// A physically-modeled run: medium rate `rate_mbps`, jitter amplitude
    /// `jitter_ns`, seeded with `seed`; up to two retransmissions at a
    /// 100 µs base backoff, no injected faults, barrier close.
    pub fn realistic(rate_mbps: f64, jitter_ns: VirtualNs, seed: u64) -> Self {
        Self {
            jitter_max_ns: jitter_ns,
            seed,
            feedback_rate_mbps: Some(rate_mbps),
            max_retries: 2,
            retry_backoff_ns: 100_000,
            ..Self::lockstep()
        }
    }

    /// The deadline policy this configuration enforces at round close.
    pub fn policy(&self) -> DeadlinePolicy {
        DeadlinePolicy::new(&self.budget, self.grace_s)
    }

    fn interval_ns(&self) -> VirtualNs {
        s_to_ns(self.interval_s)
    }

    /// Effective watermark cadence: the configured `watermark_ns`, or one
    /// watermark per sounding interval when unset.
    fn watermark_step_ns(&self) -> VirtualNs {
        if self.watermark_ns > 0 {
            self.watermark_ns
        } else {
            self.interval_ns()
        }
    }

    fn medium(&self) -> SharedMedium {
        match self.feedback_rate_mbps {
            Some(rate) => SharedMedium::new(rate),
            None => SharedMedium::ideal(),
        }
    }
}

impl Default for EventConfig {
    fn default() -> Self {
        Self::lockstep()
    }
}

/// Head/tail compute latency of one model on the simulated accelerator, in
/// virtual ns.
#[derive(Debug, Clone, Copy, Default)]
struct ModelLatencyNs {
    head_ns: u64,
    tail_ns: u64,
}

/// A report waiting in the event queue for its medium grant: its wire frame
/// in the driver's arena plus the timing legs known at schedule time. The
/// queue is keyed by the report's *offer* time (when it is ready and
/// polled), so frames contend for the medium in physical ready order
/// regardless of ingest order.
#[derive(Debug, Clone)]
struct PendingOffer {
    frame: Span,
    /// When the report left head compute (offer minus any poll wait).
    ready_ns: VirtualNs,
    head_ns: u64,
    tail_ns: u64,
    /// Transmission attempt: `0` for the first transmission, `n` for the
    /// `n`-th retransmission after a loss or corruption.
    attempt: u32,
}

/// Discrete-event virtual-clock driver of an [`ApServer`]. Implements
/// [`RoundServing`], so [`crate::driver::serve_traffic`] can replay identical
/// traffic through it and cross-compare against the lockstep drivers.
///
/// `S` only ever is [`ApServer`]; the parameter survives, defaulted, for
/// callers that spell the type `EventDriver<ShardedApServer>`.
#[derive(Debug, Clone)]
pub struct EventDriver<S = ApServer> {
    inner: S,
    cfg: EventConfig,
    medium: SharedMedium,
    jitter: SeededJitter,
    queue: EventQueue<PendingOffer>,
    /// The bytes of every frame the queue holds, emptied when the drain
    /// empties the queue.
    frames: Vec<u8>,
    latencies: Vec<ModelLatencyNs>,
    /// Sounding cadence of every station [`EventDriver::set_cadence`]
    /// slowed: it sounds every `cadence`-th round, so its round-`r` report
    /// carries CSI sounded at the most recent multiple of `cadence`. Every
    /// other station sounds every round.
    cadence: BTreeMap<StationId, u64>,
    round: u64,
    now_ns: VirtualNs,
    /// Watermark ticks fired into the server across the run.
    watermarks_fired: u64,
    /// Deterministic medium fault injector (seeded off [`EventConfig::seed`]
    /// on an independent stream from the jitter). A zero-fault config draws
    /// nothing, so fault-free runs replay PR 5 behaviour bit-exactly.
    injector: FaultInjector,
    /// The driver's own books of the round, merged into the inner close's
    /// summary: `lost`, `retransmitted`, and as `expired` the reports whose
    /// offer instant lies past [`EventDriver::last_useful_offer_ns`].
    books: RoundSummary,
    /// Stamps of every report delivered by the most recent round close —
    /// including reports the deadline closer then expired — for
    /// delay-distribution observers (percentiles must not censor the tail).
    last_round_stamps: Vec<(StationId, FrameStamp)>,
    /// Scratch for the bytes a corrupted transmission delivers; the offer's
    /// own frame stays intact for the retransmission.
    damaged: Vec<u8>,
}

impl EventDriver {
    /// Wraps `inner` in a virtual-time event simulation. With
    /// [`EventConfig::streaming`] set, the server is switched to streaming
    /// ingest immediately.
    pub fn over(mut inner: ApServer, cfg: EventConfig) -> Self {
        if cfg.streaming {
            inner.set_streaming(true);
        }
        Self {
            inner,
            medium: cfg.medium(),
            jitter: SeededJitter::new(cfg.jitter_max_ns, cfg.seed),
            queue: EventQueue::new(),
            frames: Vec::new(),
            latencies: Vec::new(),
            cadence: BTreeMap::new(),
            round: 0,
            now_ns: 0,
            watermarks_fired: 0,
            injector: FaultInjector::new(cfg.faults, cfg.seed ^ 0xfa17_1e55_0b5e_55ed),
            books: RoundSummary::default(),
            last_round_stamps: Vec::new(),
            damaged: Vec::new(),
            cfg,
        }
    }

    /// Binds the head/tail compute latency of model `key` (drawn from an
    /// [`AcceleratorModel`] by the builders). Unbound models run with zero
    /// compute latency.
    pub fn bind_model_latency(&mut self, key: usize, head_s: f64, tail_s: f64) {
        if self.latencies.len() <= key {
            self.latencies.resize(key + 1, ModelLatencyNs::default());
        }
        self.latencies[key] = ModelLatencyNs {
            head_ns: s_to_ns(head_s),
            tail_ns: s_to_ns(tail_s),
        };
    }

    /// Sets station `id`'s sounding cadence: it sounds every `every_rounds`-th
    /// round (clamped to at least 1), so its round-`r` report is *timed* from
    /// the most recent cadence boundary and ages toward the deadline
    /// accordingly.
    ///
    /// This is a **timing** model: the payload bytes still come from the
    /// traffic's round-`r` frame (the driver replays pre-generated traffic
    /// verbatim), so the reconstructed feedback content is not itself aged —
    /// only its deadline classification and delay accounting are. Content
    /// aging would have to happen in the traffic generator.
    ///
    /// An id without a session is ignored. The cadence outlives an idle
    /// eviction and the re-association after it; deregistration drops it.
    pub fn set_cadence(&mut self, id: StationId, every_rounds: u64) {
        if self.inner.session(id).is_some() {
            match every_rounds {
                0 | 1 => self.cadence.remove(&id),
                slow => self.cadence.insert(id, slow),
            };
        }
    }

    /// The wrapped server.
    pub fn inner(&self) -> &ApServer {
        &self.inner
    }

    /// Mutable access to the wrapped server.
    pub fn inner_mut(&mut self) -> &mut ApServer {
        &mut self.inner
    }

    /// The driver configuration.
    pub fn config(&self) -> &EventConfig {
        &self.cfg
    }

    /// The shared-medium model (airtime, queueing and utilization counters).
    pub fn medium(&self) -> &SharedMedium {
        &self.medium
    }

    /// Current virtual time.
    pub fn virtual_now_ns(&self) -> VirtualNs {
        self.now_ns
    }

    /// Index of the round currently being collected.
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Cumulative fault-injection accounting (offered, lost, corrupted,
    /// duplicated, delayed frames) across the run.
    #[cfg(any(test, feature = "reference"))]
    pub fn fault_stats(&self) -> splitbeam_hwsim::fault::FaultStats {
        self.injector.stats()
    }

    /// Watermark ticks fired into the server across the run (none unless
    /// [`EventConfig::streaming`]).
    #[cfg(any(test, feature = "reference"))]
    pub fn watermarks_fired(&self) -> u64 {
        self.watermarks_fired
    }

    /// Stamps of every report the most recent round close delivered, in
    /// delivery order — **including** reports the deadline closer then
    /// consumed as past-budget. This is the uncensored delay distribution:
    /// percentile observers that only look at served sessions would miss the
    /// expired tail.
    pub fn last_round_stamps(&self) -> &[(StationId, FrameStamp)] {
        &self.last_round_stamps
    }

    /// Virtual sounding instant of station `id` for the current round: the
    /// most recent cadence boundary, plus the station's phase offset.
    fn sound_ns(&self, id: StationId) -> VirtualNs {
        let cadence = self.cadence.get(&id).copied().unwrap_or(1);
        self.poll_ns(self.round - self.round % cadence, id)
    }

    /// When round `round` polls station `id`: the round's nominal start plus
    /// the station's phase offset. Station ids are arbitrary caller-chosen
    /// `u64`s, so the arithmetic saturates: a sparse id lands on
    /// `VirtualNs::MAX`, which [`EventDriver::ingest_wire`] treats as "never".
    fn poll_ns(&self, round: u64, id: StationId) -> VirtualNs {
        self.round_start_ns(round)
            .saturating_add(id.saturating_mul(self.cfg.phase_step_ns))
    }

    /// Nominal start of round `round`, saturating like every other instant.
    fn round_start_ns(&self, round: u64) -> VirtualNs {
        round.saturating_mul(self.cfg.interval_ns())
    }

    /// Deadline of the round being collected: its nominal start plus the
    /// Eq. 7d budget (the closer's grace window extends past it).
    fn round_deadline_ns(&self) -> VirtualNs {
        self.round_start_ns(self.round)
            .saturating_add(s_to_ns(self.cfg.budget.max_delay_s))
    }

    /// The latest instant at which a report of the round being collected is
    /// worth offering: past the round's deadline plus one more interval and
    /// the grace window it could only ever be served expired — the cut
    /// [`EventDriver::schedule_retry`] applies to retransmissions.
    fn last_useful_offer_ns(&self) -> VirtualNs {
        self.round_deadline_ns()
            .saturating_add(self.cfg.interval_ns())
            .saturating_add(s_to_ns(self.cfg.grace_s))
    }

    /// Drains every scheduled report — in deterministic `(offer time,
    /// station, seq)` order — through the shared medium and into the inner
    /// server as a timestamped ingest, advancing the virtual clock past the
    /// last arrival and the round deadline. Popping by offer time is what
    /// gives the medium physical FIFO semantics: an early-ready frame is
    /// never charged phantom queueing behind a late-ready one that merely
    /// ingested first.
    ///
    /// A failing ingest (deferred frame validation, a station deregistered
    /// after scheduling) drops that frame and is reported as the first error
    /// **after** the drain completes — the queue never carries stale frames
    /// into the next round. Fault-related rejections — CRC failures,
    /// suppressed duplicates, quarantined stations — are *expected* under an
    /// active fault model: they are absorbed into the round accounting and
    /// the session health machinery rather than surfaced as errors.
    ///
    /// Each popped frame passes through the fault injector. A lost or
    /// corrupted transmission still occupies the medium (its airtime is
    /// spent); the station then retransmits with exponential backoff — but
    /// only while the retry's projected end-to-end delay still fits the
    /// Eq. 7d budget plus grace, because a retry that can only arrive expired
    /// is wasted airtime.
    /// With a watermark `clock`, the drain interleaves deadline watermarks
    /// into the event order: before each popped event, every watermark at or
    /// before that event's offer time fires into the server
    /// ([`ApServer::advance_watermark`]) so shards micro-close mid-round;
    /// after the drain, the remaining watermarks up to the round deadline
    /// fire. Watermark times are derived purely from the virtual clock, so
    /// streaming drains are exactly as deterministic and replayable as
    /// barrier drains.
    fn deliver_arrivals(
        &mut self,
        mut clock: Option<WatermarkClock>,
        policy: DeadlinePolicy,
    ) -> Option<ServeError> {
        let mut first_error = None;
        self.last_round_stamps.clear();
        while let Some((key, offer)) = self.queue.pop() {
            self.fire_watermarks(&mut clock, key.time_ns, policy);
            let fate = self.injector.frame_fate();
            let sent = offer.frame.bytes(&self.frames);
            let grant = self.medium.transmit(key.time_ns, sent.len() * 8);
            self.now_ns = self.now_ns.max(grant.end_ns);
            let FrameFate::Deliver {
                corrupt,
                duplicate,
                extra_delay_ns,
            } = fate
            else {
                self.books.lost += 1;
                self.schedule_retry(key.station, grant.end_ns, offer);
                continue;
            };
            let arrival_ns = grant.end_ns.saturating_add(extra_delay_ns);
            self.now_ns = self.now_ns.max(arrival_ns);
            let stamp = FrameStamp {
                arrival_ns,
                head_ns: offer.head_ns,
                queue_ns: (key.time_ns - offer.ready_ns)
                    .saturating_add(grant.wait_ns)
                    .saturating_add(extra_delay_ns),
                air_ns: grant.air_ns,
                tail_ns: offer.tail_ns,
            };
            // A corrupted transmission delivers damaged bytes, once; the
            // offer's own frame stays intact for the retransmission.
            let frame: &[u8] = if corrupt {
                self.damaged.clear();
                self.damaged.extend_from_slice(sent);
                self.injector.corrupt_frame(&mut self.damaged);
                &self.damaged
            } else {
                sent
            };
            let mut retry = false;
            for _ in 0..1 + u8::from(duplicate && !corrupt) {
                match self.inner.ingest_wire_at(key.station, frame, stamp) {
                    // Bit flips can cancel each other out and leave damaged
                    // bytes intact: a normal delivery.
                    Ok(_) => self.last_round_stamps.push((key.station, stamp)),
                    // The AP rejected the damaged bytes — CRC mismatch, an
                    // unrecognizable header (damage to the unprotected
                    // dispatch byte), or a quarantined station. The frame is
                    // gone either way; retransmit if the budget allows.
                    Err(
                        ServeError::Corrupt(..) | ServeError::Codec(_) | ServeError::Quarantined(_),
                    ) if corrupt => retry = true,
                    // The AP suppressed a re-delivered sequence number, or
                    // the station is quarantined — counted, not fatal.
                    Err(
                        ServeError::DuplicateFrame(..)
                        | ServeError::Quarantined(_)
                        | ServeError::Corrupt(..),
                    ) => {}
                    Err(e) => first_error = first_error.or(Some(e)),
                }
            }
            if retry {
                self.schedule_retry(key.station, arrival_ns, offer);
            }
        }
        self.frames.clear();
        let deadline_ns = self.round_deadline_ns();
        self.fire_watermarks(&mut clock, deadline_ns, policy);
        self.now_ns = self.now_ns.max(deadline_ns);
        first_error
    }

    /// Fires every watermark of `clock` due by `until_ns` into the server.
    fn fire_watermarks(
        &mut self,
        clock: &mut Option<WatermarkClock>,
        until_ns: VirtualNs,
        policy: DeadlinePolicy,
    ) {
        let Some(clock) = clock else { return };
        let step = clock.step_ns();
        while let Some(mark) = clock.pop_due(until_ns) {
            self.inner.advance_watermark(mark, step, Some(policy));
            self.watermarks_fired += 1;
        }
    }

    /// Schedules a retransmission of `offer` after a failed transmission that
    /// ended at `failed_end_ns`, with exponential backoff per attempt —
    /// unless the retry budget is exhausted or the retry's projected
    /// end-to-end delay (head, queueing so far, backoff, one more airtime,
    /// tail) can no longer fit the Eq. 7d budget plus grace, in which case
    /// the report is given up for this round. Takes the popped offer by
    /// value: the retry is that offer, its bytes re-sequenced in place.
    fn schedule_retry(
        &mut self,
        station: StationId,
        failed_end_ns: VirtualNs,
        mut offer: PendingOffer,
    ) {
        if offer.attempt >= self.cfg.max_retries {
            return;
        }
        let attempt = offer.attempt + 1;
        let backoff_ns = self
            .cfg
            .retry_backoff_ns
            .saturating_mul(1u64 << (attempt - 1).min(31));
        // Saturating: a backoff of `VirtualNs::MAX` means "never retry", and
        // a retry instant pinned at the end of time is given up like any
        // other that cannot fit the budget.
        let retry_ns = failed_end_ns.saturating_add(backoff_ns);
        let bits = offer.frame.bytes(&self.frames).len() * 8;
        let air_estimate_ns = self.medium.frame_airtime_ns(bits);
        let projected_ns = offer
            .head_ns
            .saturating_add(retry_ns.saturating_sub(offer.ready_ns))
            .saturating_add(air_estimate_ns)
            .saturating_add(offer.tail_ns);
        let allowance_ns =
            s_to_ns(self.cfg.budget.max_delay_s).saturating_add(s_to_ns(self.cfg.grace_s));
        if retry_ns == VirtualNs::MAX || projected_ns > allowance_ns {
            return;
        }
        offer.attempt = attempt;
        // Sequenced retries get a fresh number so duplicate suppression never
        // mistakes a retransmission for a replayed frame.
        wire::set_frame_seq(offer.frame.bytes_mut(&mut self.frames), retry_seq(attempt));
        self.queue.schedule(retry_ns, station, offer);
        self.books.retransmitted += 1;
    }
}

impl RoundServing for EventDriver {
    fn register_station(
        &mut self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        self.inner.register_station(id, model_key, bits_per_value)
    }

    fn deregister_station(&mut self, id: StationId) -> Result<(), ServeError> {
        self.inner.deregister_station(id)?;
        self.cadence.remove(&id);
        Ok(())
    }

    /// Schedules the frame through virtual time instead of ingesting it
    /// directly: sounding instant → head compute + jitter → offer to the
    /// shared medium, the frame's bytes appended to the driver's arena. An
    /// offer that cannot be served unexpired, or placed in the arena, is
    /// counted expired and kept off the medium. Medium contention resolves
    /// at round close, in offer order; the frame reaches the server
    /// timestamped. Frame validation therefore also surfaces at close.
    fn ingest_wire(&mut self, id: StationId, frame: &[u8]) -> Result<usize, ServeError> {
        let session = self.inner.session(id);
        let model_key = session.ok_or(ServeError::UnknownStation(id))?.model_key();
        let latency = self.latencies.get(model_key).copied().unwrap_or_default();
        let sound_ns = self.sound_ns(id);
        let head_ns = latency.head_ns.saturating_add(self.jitter.draw());
        // The report is ready `head` after its sounding instant, but cannot
        // transmit before this round polls the station; a slow-cadence
        // station's report therefore queues for whole intervals, and that age
        // counts against the Eq. 7d budget like any other queueing.
        let ready_ns = sound_ns.saturating_add(head_ns);
        let offered_ns = ready_ns.max(self.poll_ns(self.round, id));
        let placed = (offered_ns < VirtualNs::MAX && offered_ns <= self.last_useful_offer_ns())
            .then(|| Span::place(&mut self.frames, frame));
        let Some(span) = placed.flatten() else {
            // The offer instant saturated (a sparse id times the phase step)
            // or lies rounds in the future, or the frame would pass the end
            // the arena can address: the report cannot be served unexpired.
            // It stays off the medium (whose clock it would pin at that
            // instant for every later frame, and up to which a streaming
            // drain would fire every watermark) and is consumed at the close
            // as expired.
            self.books.expired += 1;
            return Ok(frame.len());
        };
        // Under an active fault model every transmission is sequenced (first
        // attempt = 1), so the AP can suppress injected duplicates and tell
        // retransmissions apart. Fault-free frames stay byte-verbatim — the
        // zero-fault path must remain bit-exact with the lockstep drivers.
        if self.injector.is_active() {
            wire::set_frame_seq(span.bytes_mut(&mut self.frames), retry_seq(0));
        }
        self.queue.schedule(
            offered_ns,
            id,
            PendingOffer {
                frame: span,
                ready_ns,
                head_ns,
                tail_ns: latency.tail_ns,
                attempt: 0,
            },
        );
        Ok(frame.len())
    }

    /// Closes the round **at its Eq. 7d deadline**: delivers every scheduled
    /// arrival to the server timestamped, then runs the server's
    /// deadline-aware close, which classifies each report on-time /
    /// late-but-usable / past-budget from its stamp.
    fn close_round(&mut self, mode: ServeMode) -> Result<RoundSummary, ServeError> {
        // The drain never short-circuits: the round always advances and the
        // server's close always runs, so one bad frame cannot leave stale
        // arrivals queued for the next round. The first ingest error (it
        // happened before the close) takes precedence in the result.
        let policy = self.cfg.policy();
        let clock = self.cfg.streaming.then(|| {
            let step = self.cfg.watermark_step_ns();
            let start = self.round_start_ns(self.round);
            WatermarkClock::new(start.saturating_add(step), step)
        });
        let ingest_error = self.deliver_arrivals(clock, policy);
        self.round += 1;
        let closed = self.inner.close_in_mode(mode, Some(policy));
        let books = std::mem::take(&mut self.books);
        ingest_error.map_or(closed, Err).map(|mut summary| {
            summary.merge(&books);
            summary
        })
    }

    fn evicted_in_last_round(&self) -> usize {
        self.inner.evicted_in_last_round()
    }

    fn feedback_of(&self, id: StationId) -> Option<&[f32]> {
        self.inner.feedback_of(id)
    }
}

/// The sequence number of transmission `attempt` (`0` the first) of a report
/// under an active fault model: `1..=u16::MAX` in turn, never `0`, which
/// marks an unsequenced frame.
fn retry_seq(attempt: u32) -> u16 {
    (attempt % u32::from(u16::MAX)) as u16 + 1
}

/// Builds an event driver over a one-shard [`ApServer`] with `model`
/// registered, room reserved for and stations `0..stations` associated at
/// `bits_per_value` bits, and the model's compute latency drawn from
/// `accel` (zero when `None`).
///
/// # Panics
/// Panics on invalid `bits_per_value` (registration is infallible otherwise).
pub fn build_event_driver(
    model: SplitBeamModel,
    stations: usize,
    bits_per_value: u8,
    cfg: EventConfig,
    accel: Option<&AcceleratorModel>,
) -> EventDriver {
    build_sharded_event_driver(model, stations, bits_per_value, 1, cfg, accel)
}

/// Builds an event driver over an [`ApServer`] with `num_shards` shards —
/// the event clock is global, the round close fans out per shard.
///
/// # Panics
/// Panics on invalid `bits_per_value` (registration is infallible otherwise).
pub fn build_sharded_event_driver(
    model: SplitBeamModel,
    stations: usize,
    bits_per_value: u8,
    num_shards: usize,
    cfg: EventConfig,
    accel: Option<&AcceleratorModel>,
) -> EventDriver {
    let mut server = ApServer::with_shards(num_shards);
    let key = server.register_model(model.clone());
    server.reserve_stations(stations);
    let mut driver = EventDriver::over(server, cfg);
    // No accelerator binds zero compute latency (the lockstep degenerate case).
    if let Some(accel) = accel {
        let latency = accel.split_latency_from_config(model.config());
        driver.bind_model_latency(key, latency.head_s, latency.tail_s);
    }
    for id in 0..stations as StationId {
        driver
            .register_station(id, key, bits_per_value)
            .expect("fresh server accepts fleet registration");
    }
    driver
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{generate_traffic, serve_traffic, SimConfig};
    use crate::test_support::model;
    use crate::timing::FrameClass;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn medium_contention_produces_queueing_delay() {
        let m = model(3);
        let cfg = SimConfig {
            stations: 6,
            rounds: 2,
            bits_per_value: 8,
            drop_every: 0,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        // Real medium, no jitter, no compute latency: all six stations offer
        // their frames at the round start and must serialize.
        let mut event = build_event_driver(
            m,
            cfg.stations,
            cfg.bits_per_value,
            EventConfig {
                feedback_rate_mbps: Some(24.0),
                ..EventConfig::lockstep()
            },
            None,
        );
        let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
        assert!(event.medium().total_wait_ns() > 0, "stations must contend");
        assert!(event.medium().total_air_ns() > 0);
        let round0 = &outcome.summaries[0];
        assert!(
            round0.delay.queue_ns > 0,
            "queueing must surface in summary"
        );
        assert!(round0.delay.air_ns > 0);
        assert_eq!(round0.delay.head_ns, 0, "no compute latency configured");
        // The last of six serialized frames waited ~5 frame times.
        assert!(round0.delay.worst_e2e_ns > 5 * event.medium().frame_airtime_ns(0));
    }

    #[test]
    fn lossy_medium_retransmits_and_recovers() {
        let m = model(9);
        let cfg = SimConfig {
            stations: 4,
            rounds: 6,
            bits_per_value: 6,
            drop_every: 0,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        let event_cfg = EventConfig {
            feedback_rate_mbps: Some(24.0),
            seed: 77,
            faults: FaultConfig {
                loss: 0.3,
                ..FaultConfig::none()
            },
            max_retries: 2,
            retry_backoff_ns: 50_000,
            ..EventConfig::lockstep()
        };
        let mut event = build_event_driver(m, cfg.stations, cfg.bits_per_value, event_cfg, None);
        let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();

        let stats = event.fault_stats();
        assert!(stats.lost > 0, "a 30% lossy plan must actually drop frames");
        let lost: usize = outcome.summaries.iter().map(|s| s.lost).sum();
        let retx: usize = outcome.summaries.iter().map(|s| s.retransmitted).sum();
        // Loss and retry bookkeeping both happen at medium-grant time, so the
        // per-round summaries must agree with the injector's own tally.
        assert_eq!(lost, stats.lost as usize);
        assert!(retx > 0, "losses within budget must trigger retransmission");
        assert!(retx <= lost, "every retry is provoked by a failed delivery");
        // Retries are re-offered to the injector, so the offered count exceeds
        // the original traffic volume by exactly the retransmissions drained.
        assert_eq!(stats.offered as usize, traffic.total_frames() + retx);
        // Bounded retransmission recovers most of the lost frames: far more
        // reports land than the no-retry expectation of ~70%.
        let expected_no_retry = traffic.total_frames() as f64 * (1.0 - 0.3);
        assert!(
            outcome.total_served() as f64 > expected_no_retry,
            "served {} vs no-retry expectation {expected_no_retry:.1}",
            outcome.total_served()
        );
        // Same seed, same fault plan: the run replays bit-exactly.
        let mut replay =
            build_event_driver(model(9), cfg.stations, cfg.bits_per_value, event_cfg, None);
        let again = serve_traffic(&mut replay, &traffic, ServeMode::Batched).unwrap();
        assert_eq!(again, outcome, "fault plans must be replayable");
        assert_eq!(replay.fault_stats(), stats);
    }

    #[test]
    fn hopeless_retries_are_abandoned_within_the_deadline_budget() {
        let m = model(11);
        let cfg = SimConfig {
            stations: 2,
            rounds: 3,
            bits_per_value: 4,
            drop_every: 0,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        // Certain loss with a backoff far beyond the 10 ms round budget: every
        // frame is lost and no retry can possibly land in time, so the driver
        // must give up instead of scheduling doomed transmissions. The
        // `u64::MAX` backoff ("never retry") must saturate, not wrap the retry
        // instant into the past.
        for retry_backoff_ns in [s_to_ns(0.05), u64::MAX] {
            let event_cfg = EventConfig {
                feedback_rate_mbps: Some(24.0),
                seed: 13,
                faults: FaultConfig {
                    loss: 1.0,
                    ..FaultConfig::none()
                },
                max_retries: 8,
                retry_backoff_ns,
                ..EventConfig::lockstep()
            };
            let mut event =
                build_event_driver(m.clone(), cfg.stations, cfg.bits_per_value, event_cfg, None);
            let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
            assert_eq!(
                outcome.total_served(),
                0,
                "nothing can survive certain loss"
            );
            let retx: usize = outcome.summaries.iter().map(|s| s.retransmitted).sum();
            assert_eq!(retx, 0, "retries that cannot meet Eq. 7d must not launch");
            assert_eq!(
                event.fault_stats().offered as usize,
                traffic.total_frames(),
                "only the original transmissions touch the medium"
            );
        }
    }

    /// A report's transmissions draw sequence numbers `1..=u16::MAX` in
    /// turn: past the 65,535th the count starts again at 1 — no overflow,
    /// and never the `0` that would switch duplicate suppression off. With
    /// certain loss, zero backoff and an ideal medium, a report retries in
    /// place until its 70,000 retries run out.
    #[test]
    fn retry_sequence_numbers_cycle_past_u16_max() {
        let attempts = [0, 1, 65_533, 65_534, 65_535, 65_536, u32::MAX];
        assert_eq!(attempts.map(retry_seq), [1, 2, 65_534, 65_535, 1, 2, 1]);
        let m = model(13);
        let frame = crate::test_support::station_frame(&m, 14, 4);
        let cfg = EventConfig {
            faults: FaultConfig {
                loss: 1.0,
                ..FaultConfig::none()
            },
            max_retries: 70_000,
            ..EventConfig::lockstep()
        };
        let mut event = build_event_driver(m, 1, 4, cfg, None);
        event.ingest_wire(0, &frame).unwrap();
        let summary = event.close_round(ServeMode::Batched).unwrap();
        assert_eq!((summary.lost, summary.retransmitted), (70_001, 70_000));
        assert_eq!((summary.served, event.queue.len()), (0, 0));
    }

    /// `StationId` is an arbitrary caller-chosen `u64`. A sparse id times a
    /// non-zero phase step either saturates (`u64::MAX / 2`) — which must not
    /// panic (debug) or wrap into a garbage small instant (release) — or
    /// lands days into the future (`1 << 40` x 1 µs = 1.1e15 ns). Either
    /// way the report can never be offered in its round: it is expired off
    /// the medium, the drain fires only the round's own watermarks, and
    /// neither the virtual clock nor the other stations' next rounds notice.
    /// A sparse offer left in the queue is the only way a drain could spin
    /// toward its instant, so each close first checks that only the two
    /// dense ids are queued.
    #[test]
    fn sparse_station_ids_expire_off_the_medium_in_bounded_work() {
        let m = model(15);
        let cfg = SimConfig {
            stations: 2,
            rounds: 3,
            bits_per_value: 4,
            drop_every: 0,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        for (sparse, streaming) in [(u64::MAX / 2, false), (1 << 40, false), (1 << 40, true)] {
            let mut server = ApServer::new();
            server.register_model(m.clone());
            let mut event = EventDriver::over(
                server,
                EventConfig {
                    phase_step_ns: 1_000,
                    feedback_rate_mbps: Some(24.0),
                    streaming,
                    watermark_ns: 2_500_000,
                    ..EventConfig::lockstep()
                },
            );
            for id in [0, 1, sparse] {
                event.register_station(id, 0, cfg.bits_per_value).unwrap();
            }
            let mut last_now = 0;
            for round in &traffic.rounds {
                for (id, frame) in &round.frames {
                    let frame = frame.as_ref().unwrap();
                    event.ingest_wire(*id, frame).unwrap();
                    if *id == 0 {
                        event.ingest_wire(sparse, frame).unwrap();
                    }
                }
                assert_eq!(event.queue.len(), 2, "id {sparse}");
                let summary = event.close_round(ServeMode::Batched).unwrap();
                assert_eq!((summary.served, summary.on_time), (2, 2), "id {sparse}");
                assert_eq!((summary.late, summary.expired), (0, 1), "id {sparse}");
                let now = event.virtual_now_ns();
                assert!(
                    last_now < now && now < s_to_ns(1.0),
                    "clock must stay monotone and finite: {last_now} -> {now}"
                );
                last_now = now;
            }
            assert!(event.feedback_of(sparse).is_none());
            assert_eq!(event.queue.len(), 0);
            assert_eq!(event.medium().frames_carried(), 6, "id {sparse}");
            // Four 2.5 ms watermarks per 10 ms round, none beyond.
            let ticks = event.watermarks_fired();
            assert_eq!(ticks, if streaming { 12 } else { 0 }, "id {sparse}");
        }
    }

    /// Head compute and jitter are caller-chosen `u64`s as well. A jitter
    /// amplitude of `u64::MAX` draws from the full width, and an unbounded
    /// head latency plus any jitter saturates: the report is ready at the end
    /// of time, so it is expired off the medium like every other unreachable
    /// instant — no panic (debug), no wrap into a small instant (release).
    #[test]
    fn head_plus_jitter_saturates_to_an_unreachable_offer() {
        let m = model(17);
        let frame = crate::test_support::station_frame(&m, 18, 4);
        for (jitter_max_ns, head_s) in [(u64::MAX, 0.0), (1_000, f64::INFINITY), (u64::MAX, 1.0)] {
            let mut server = ApServer::new();
            server.register_model(m.clone());
            let mut event = EventDriver::over(
                server,
                EventConfig {
                    jitter_max_ns,
                    feedback_rate_mbps: Some(24.0),
                    ..EventConfig::lockstep()
                },
            );
            event.bind_model_latency(0, head_s, 0.0);
            event.register_station(0, 0, 4).unwrap();
            for _ in 0..3 {
                event.ingest_wire(0, &frame).unwrap();
                let summary = event.close_round(ServeMode::Batched).unwrap();
                let case = format!("jitter {jitter_max_ns}, head {head_s} s");
                assert_eq!((summary.served, summary.expired), (0, 1), "{case}");
            }
            assert_eq!(event.medium().frames_carried(), 0);
            assert_eq!(event.queue.len(), 0);
        }
    }

    #[test]
    fn slow_cadence_station_report_ages_into_lateness() {
        let m = model(7);
        let cfg = SimConfig {
            stations: 2,
            rounds: 4,
            bits_per_value: 4,
            drop_every: 0,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        let mut event = build_event_driver(
            m,
            cfg.stations,
            cfg.bits_per_value,
            EventConfig::lockstep(),
            None,
        );
        // Station 1 sounds every 4th round: its round-1/2/3 reports carry
        // round-0 CSI aged by one, two and three full 10 ms intervals.
        event.set_cadence(1, 4);
        let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
        // Round 1: the report is exactly one interval old — dead on the
        // 10 ms Eq. 7d budget, and the boundary is inclusive -> on time.
        assert_eq!(outcome.summaries[1].on_time, 2);
        assert_eq!(outcome.summaries[1].delay.worst_e2e_ns, s_to_ns(0.01));
        // Round 2: two intervals old -> past budget, on the grace edge
        // (inclusive) -> late-but-usable, served but never counted fresh.
        assert_eq!(outcome.summaries[2].late, 1);
        assert_eq!(outcome.summaries[2].on_time, 1);
        assert_eq!(outcome.summaries[2].served, 2);
        // Round 3: three intervals old -> past budget and grace -> expired,
        // consumed without reconstruction.
        assert_eq!(outcome.summaries[3].expired, 1);
        assert_eq!(outcome.summaries[3].served, 1);
        assert_eq!(outcome.summaries[3].on_time, 1);
        let policy = event.config().policy();
        assert_eq!(policy.classify(s_to_ns(0.01)), FrameClass::OnTime);
    }
}
