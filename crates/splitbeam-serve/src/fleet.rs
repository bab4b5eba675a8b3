//! Multi-AP fleet serving: N access points on one virtual clock.
//!
//! Fleet scale — many [`ApServer`]s serving 100k+ concurrent sessions — needs
//! an orchestration layer above the single server:
//!
//! * **offers are seated when offered**: [`Fleet::offer_frame`] already
//!   looks the station's home AP up, so it appends the offer straight to
//!   the list of that AP's channel, member index filled in; the round's
//!   only serial part is the offer itself;
//! * **one arena for the round's frames**: the offer's bytes go to the end
//!   of a buffer the fleet owns and its list entry holds 16 bytes —
//!   `(offset, len, head delay)` — so a sort moves no buffers, the drain
//!   slices the arena, the close empties both, and the allocator is not in
//!   the round: the caller's `Vec` is freed where it was allocated, not a
//!   round later in air order on whichever thread drains the channel;
//! * **overlapping-BSS contention**: each AP is bound to one of `channels`
//!   wireless channels, every channel is one [`SharedMedium`], so co-channel
//!   APs serialize on the *same* air and charge each other airtime. The wait
//!   a frame accrues while a *foreign* BSS holds the channel is accounted as
//!   cross-BSS airtime loss per AP;
//! * **a channel owns what only its traffic touches**: its medium, the mark
//!   of the BSS that held it last, the APs bound to it (AP `i` is member
//!   `i / channels` of channel `i % channels`), its list of the round's
//!   offers and its share of the drain. Within a round a frame's fate
//!   depends on nothing else, so [`Fleet::close_round`] hands the channels
//!   out over the `rayon` pool once: each sorts its own list into air order
//!   on the unique key `(time, station, offer order)` — the offer order is
//!   round-wide, so a channel's run is the fleet-wide air order cut to that
//!   channel — transmits and ingests it, and closes its APs. Every AP sees
//!   the same frames in the same order with the same stamps whatever the
//!   pool's width: at width 1 the hand-out is a plain loop. Air order is
//!   random in memory, so a channel's drain prefetches the sessions of the
//!   frames ahead of the one it ingests;
//! * **station roaming**: [`Fleet::handoff`] moves a station between APs by
//!   releasing its full [`crate::StationSession`] state at the source and
//!   adopting it (rebound to the target's model key) at the target — no cold
//!   re-register, so pending payloads, feedback history, health state and
//!   staleness clocks travel. With identical model weights behind the source
//!   and target bindings, a roamed station's served feedback is bit-exact
//!   with a never-roamed control (pinned by the `fleet_roaming` tests).
//!
//! Determinism: virtual time only, seeded jitter, sorts on a unique key,
//! per-channel media updated in air order — the same seed and call
//! sequence reproduces every summary bit-for-bit, on any number of cores.

use crate::server::{ApServer, RoundSummary};
use crate::session::StationId;
use crate::slab::{IdIndex, LOOKAHEAD};
use crate::timing::{DeadlinePolicy, FrameStamp};
use crate::ServeError;
use rayon::prelude::*;
use splitbeam::model::SplitBeamModel;
use splitbeam_hwsim::{prefetch_read, SeededJitter, SharedMedium, VirtualNs};
use std::collections::BTreeMap;

/// Fleet shape and physics knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of access points.
    pub aps: usize,
    /// Number of wireless channels; AP `i` is bound to channel `i % channels`,
    /// so `channels < aps` produces overlapping BSSs that contend for air.
    pub channels: usize,
    /// Feedback data rate per channel in Mbit/s; `None` models ideal
    /// (zero-airtime) media.
    pub rate_mbps: Option<f64>,
    /// Sounding round interval in virtual ns.
    pub round_ns: VirtualNs,
    /// Per-frame readiness jitter amplitude in ns (station-side compute +
    /// backoff spread), drawn from a stream seeded with `seed`.
    pub jitter_ns: VirtualNs,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Deadline policy applied at every AP's round close; `None` disables
    /// classification (everything on time).
    pub policy: Option<DeadlinePolicy>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            aps: 4,
            channels: 2,
            rate_mbps: Some(240.0),
            round_ns: 20_000_000,
            jitter_ns: 0,
            seed: 7,
            policy: Some(DeadlinePolicy::eq7d()),
        }
    }
}

/// One round's aggregate over the whole fleet, plus the per-AP summaries it
/// was merged from.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRoundSummary {
    pub round: u64,
    pub served: usize,
    pub on_time: usize,
    pub late: usize,
    pub expired: usize,
    /// Frames rejected since the previous close: refused at ingest
    /// (quarantine, corruption, codec), homeless at the close, or offered
    /// for an instant past the end of virtual time.
    pub rejected: usize,
    /// Handoffs whose station was served for the first time post-handoff
    /// during this round.
    pub handoffs_settled: usize,
    pub per_ap: Vec<RoundSummary>,
}

/// Fleet-lifetime aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetStats {
    pub rounds: u64,
    pub served: u64,
    pub on_time: u64,
    pub late: u64,
    pub expired: u64,
    pub rejected: u64,
    /// Fraction of classified reports served within budget.
    pub deadline_hit_rate: f64,
    /// Completed handoffs.
    pub handoffs: u64,
    /// Handoffs already settled (station served at its new AP).
    pub handoffs_settled: u64,
    /// Mean virtual ns from handoff to the station's first post-handoff
    /// serve at the target AP.
    pub mean_handoff_latency_ns: f64,
    /// Total airtime carried across all channels.
    pub air_ns: u64,
    /// Total medium queueing across all channels.
    pub wait_ns: u64,
    /// The slice of that queueing charged while a *foreign* BSS held the
    /// channel — the overlapping-BSS airtime loss.
    pub cross_bss_wait_ns: u64,
}

/// Where one offered frame's bytes lie in a round's arena, one `Vec<u8>`
/// that [`Span::place`] appends every frame to: a list of offers moves 8
/// bytes an offer, never a buffer, and clearing the arena keeps its room for
/// the next round. The [`Fleet`] and the [`crate::EventDriver`] keep their
/// offers in one each.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    offset: u32,
    len: u32,
}

impl Span {
    /// Appends `frame` to `arena`, or leaves the arena as it is and returns
    /// `None` where the frame's end would pass what a `u32` offset addresses
    /// (4 GiB of frames in a round).
    pub(crate) fn place(arena: &mut Vec<u8>, frame: &[u8]) -> Option<Self> {
        let span = Self::at(arena.len(), frame.len())?;
        arena.extend_from_slice(frame);
        Some(span)
    }

    /// The span of `len` bytes at the end of an arena that holds `used`.
    fn at(used: usize, len: usize) -> Option<Self> {
        let offset = u32::try_from(used).ok()?;
        let len = u32::try_from(len).ok()?;
        offset.checked_add(len)?;
        Some(Self { offset, len })
    }

    /// This span's frame in `arena`, the arena it was placed in.
    pub(crate) fn bytes(self, arena: &[u8]) -> &[u8] {
        &arena[self.offset as usize..][..self.len as usize]
    }

    /// [`Span::bytes`], to rewrite in place.
    pub(crate) fn bytes_mut(self, arena: &mut [u8]) -> &mut [u8] {
        &mut arena[self.offset as usize..][..self.len as usize]
    }
}

/// One offer of the round, on the list of its home AP's channel.
#[derive(Clone, Copy)]
struct Pending {
    /// The home AP's member index on that channel.
    member: u32,
    ready_ns: VirtualNs,
    id: StationId,
    /// Offer order within the whole round: the last tie-break.
    index: usize,
    frame: Span,
    /// Station-side delay from the sounding instant until the frame was
    /// ready to transmit (folded into the stamp's head leg).
    head_ns: VirtualNs,
}

/// One AP as its channel holds it.
struct Member {
    server: ApServer,
    /// Wait this AP's frames accrued while a foreign BSS held the channel.
    cross_bss_wait_ns: u64,
    /// The error of the last round close, until the fleet reads it back.
    closed: Option<ServeError>,
}

/// One wireless channel and everything only its traffic touches. Aligned to
/// a pair of cache lines: two threads draining adjacent channels write their
/// media and owner marks once a frame, and 120-byte neighbours in one `Vec`
/// shared lines (+5.6 % frames on `fleet_dense_100k`, 5/5 pairs, aligned).
#[repr(align(128))]
struct Channel {
    medium: SharedMedium,
    /// Last member to transmit, for cross-BSS attribution.
    owner: Option<usize>,
    members: Vec<Member>,
    /// The round's offers to this channel's members, in offer order until
    /// the close sorts them into air order.
    offers: Vec<Pending>,
    /// Frames a member refused at ingest, until the fleet folds them in.
    rejected: u64,
}

impl Channel {
    /// Serves this channel's round: sorts its offers into air order on the
    /// unique key `(ready, station, offer order)`, drains them, empties the
    /// list (keeping its room) and closes every member's round.
    fn serve(&mut self, frames: &[u8], policy: Option<DeadlinePolicy>) {
        self.offers
            .sort_unstable_by_key(|p| (p.ready_ns, p.id, p.index));
        self.drain(frames);
        self.offers.clear();
        self.close(policy);
    }

    /// Transmits this channel's offers, in air order — their bytes are
    /// `frames`, the fleet's arena — on its medium, attributing any wait
    /// accrued while a foreign BSS held the channel as cross-BSS loss, and
    /// ingests each at its AP with its virtual-time stamp. Air order is
    /// random in memory and an ingest is a chain of dependent loads (index
    /// → slot → arena row), so the walk requests each link of the frames
    /// ahead of it as soon as the link before has had time to arrive: the
    /// id-index entry and the frame's arena bytes `3 * LOOKAHEAD` frames
    /// early, the session in the slot that entry names `2 * LOOKAHEAD`
    /// early and the slot's row of the shard's code arena, which ingest
    /// overwrites, [`LOOKAHEAD`] early — straight from the slot, no session
    /// read. Hints only, whatever they miss is loaded on demand.
    fn drain(&mut self, frames: &[u8]) {
        let Self {
            medium,
            owner,
            members,
            offers: run,
            rejected,
        } = self;
        for (at, pending) in run.iter().enumerate() {
            let ahead_by = |distance: usize| {
                let ahead = run.get(at + distance)?;
                let member = &members[ahead.member as usize];
                Some((member.server.shard_for(ahead.id), ahead))
            };
            if let Some((shard, ahead)) = ahead_by(3 * LOOKAHEAD) {
                shard.sessions.prefetch_index(ahead.id);
                prefetch_read(ahead.frame.bytes(frames));
            }
            if let Some((shard, ahead)) = ahead_by(2 * LOOKAHEAD) {
                shard.sessions.prefetch_session(ahead.id);
            }
            if let Some((shard, ahead)) = ahead_by(LOOKAHEAD) {
                shard.prefetch_payload(ahead.id);
            }
            let (member, ready_ns) = (pending.member as usize, pending.ready_ns);
            let frame = pending.frame.bytes(frames);
            let ap = &mut members[member];
            let busy_until = medium.busy_until_ns();
            if ready_ns < busy_until && owner.is_some_and(|owner| owner != member) {
                ap.cross_bss_wait_ns += busy_until - ready_ns;
            }
            let grant = medium.transmit(ready_ns, frame.len() * 8);
            *owner = Some(member);
            let stamp = FrameStamp {
                arrival_ns: grant.end_ns,
                head_ns: pending.head_ns,
                queue_ns: grant.wait_ns,
                air_ns: grant.air_ns,
                tail_ns: 0,
            };
            if ap.server.ingest_wire_at(pending.id, frame, stamp).is_err() {
                *rejected += 1;
            }
        }
    }

    /// Closes every member's round. A hand-out of its own: a plain loop
    /// while other channels keep the pool busy, the idle cores' work when
    /// there are fewer channels than cores.
    fn close(&mut self, policy: Option<DeadlinePolicy>) {
        self.members
            .par_iter_mut()
            .for_each(|ap| ap.closed = ap.server.close(policy).err());
    }
}

/// N access points on one virtual clock. See the module docs.
pub struct Fleet {
    cfg: FleetConfig,
    channels: Vec<Channel>,
    /// Offers listed this round, the next offer's order.
    offered: usize,
    /// Whether a handoff may have moved a listed offer's station since it
    /// was seated: the close then re-seats every offer first.
    reseat: bool,
    /// The bytes of every offered frame, in offer order. Emptied by the
    /// close, with the channels' lists.
    frames: Vec<u8>,
    jitter: SeededJitter,
    /// Station → home AP index.
    home: IdIndex,
    round: u64,
    now_ns: VirtualNs,
    handoffs: u64,
    /// Stations handed off and not yet served at their new AP, with the
    /// virtual handoff instant.
    pending_handoff: BTreeMap<StationId, VirtualNs>,
    handoff_latency_sum_ns: u64,
    handoffs_settled: u64,
    /// Every AP summary of every closed round, merged.
    lifetime: RoundSummary,
    rejected: u64,
    /// `rejected` as of the previous close; the round's share is the rest.
    rejected_at_last_close: u64,
}

impl Fleet {
    /// Builds a fleet per `cfg`. Panics when `aps == 0` or `channels == 0`
    /// (a fleet needs at least one of each).
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.aps > 0, "fleet needs at least one AP");
        assert!(cfg.channels > 0, "fleet needs at least one channel");
        let channels = (0..cfg.channels)
            .map(|first_ap| Channel {
                medium: match cfg.rate_mbps {
                    Some(rate) => SharedMedium::new(rate),
                    None => SharedMedium::ideal(),
                },
                owner: None,
                members: (first_ap..cfg.aps)
                    .step_by(cfg.channels)
                    .map(|_| Member {
                        server: ApServer::new(),
                        cross_bss_wait_ns: 0,
                        closed: None,
                    })
                    .collect(),
                offers: Vec::new(),
                rejected: 0,
            })
            .collect();
        Self {
            channels,
            offered: 0,
            reseat: false,
            frames: Vec::new(),
            jitter: SeededJitter::new(cfg.jitter_ns, cfg.seed),
            home: IdIndex::default(),
            round: 0,
            now_ns: 0,
            handoffs: 0,
            pending_handoff: BTreeMap::new(),
            handoff_latency_sum_ns: 0,
            handoffs_settled: 0,
            lifetime: RoundSummary::default(),
            rejected: 0,
            rejected_at_last_close: 0,
            cfg,
        }
    }

    /// Registers `model` on every AP under one fleet-wide key, so a roaming
    /// session's binding stays valid (and bit-identical) at any AP.
    pub fn register_model(&mut self, model: &SplitBeamModel) -> usize {
        let mut key = 0;
        for ap in self
            .channels
            .iter_mut()
            .flat_map(|channel| &mut channel.members)
        {
            key = ap.server.register_model(model.clone());
        }
        key
    }

    /// AP `ap`'s seat: member `ap / channels` of channel `ap % channels`.
    fn member(&self, ap: usize) -> &Member {
        &self.channels[ap % self.cfg.channels].members[ap / self.cfg.channels]
    }

    fn member_mut(&mut self, ap: usize) -> &mut Member {
        &mut self.channels[ap % self.cfg.channels].members[ap / self.cfg.channels]
    }

    /// Associates station `id` with AP `ap`. Panics when `ap` is not one of
    /// the fleet's APs, as [`Fleet::handoff`] does for its target.
    ///
    /// # Errors
    /// [`ServeError::DuplicateStation`] when `id` already has a home at any
    /// AP of the fleet (roaming is [`Fleet::handoff`]'s job), before any AP
    /// is touched; otherwise whatever the AP's own registration reports.
    pub fn register_station(
        &mut self,
        id: StationId,
        ap: usize,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        assert!(ap < self.cfg.aps, "registration AP out of range");
        if self.home.get(id).is_some() {
            return Err(ServeError::DuplicateStation(id));
        }
        self.member_mut(ap)
            .server
            .register_station(id, model_key, bits_per_value)?;
        self.home.insert(id, ap as u32);
        Ok(())
    }

    /// The AP currently serving `id`.
    pub fn home_ap(&self, id: StationId) -> Option<usize> {
        self.home.get(id).map(|ap| ap as usize)
    }

    pub fn ap(&self, index: usize) -> &ApServer {
        &self.member(index).server
    }

    #[cfg(any(test, feature = "reference"))]
    pub fn num_aps(&self) -> usize {
        self.cfg.aps
    }

    pub fn num_stations(&self) -> usize {
        self.home.len()
    }

    pub fn current_round(&self) -> u64 {
        self.round
    }

    pub fn now_ns(&self) -> VirtualNs {
        self.now_ns
    }

    /// The latest reconstructed feedback of `id`, wherever it is homed.
    pub fn feedback_of(&self, id: StationId) -> Option<&[f32]> {
        self.ap(self.home_ap(id)?).feedback_of(id)
    }

    /// Pre-sizes the channels' offer lists for `events` offers per round,
    /// each list an even share of them: a list that gets more than its
    /// share grows by doubling in the first round and keeps that room. The
    /// frame arena is not sized here — a count of offers says nothing about
    /// their bytes: it grows by doubling while the first round is offered
    /// and keeps that room.
    pub fn reserve_events(&mut self, events: usize) {
        let share = events.div_ceil(self.channels.len());
        for channel in &mut self.channels {
            channel.offers.reserve(share);
        }
    }

    /// Offers a station's encoded wire frame for the current round. The
    /// frame becomes ready `jitter` ns into the round (the station-side
    /// compute/backoff spread) and is transmitted on the home AP's channel
    /// when the fleet closes the round. The offer is seated at once: it is
    /// appended to the list of its home AP's channel, that AP's member
    /// index filled in, its bytes to the end of the fleet's arena, and the
    /// caller's buffer is freed here, where it was allocated — not a round
    /// later, in air order, on whichever thread drains the channel. An offer
    /// whose ready instant saturates [`VirtualNs`] never becomes ready, and
    /// one that would grow the arena past what a `u32` offset addresses (4
    /// GiB of frames in a round) has no place: either is counted rejected
    /// and stays off the lists and the media.
    pub fn offer_frame(&mut self, id: StationId, frame: Vec<u8>) -> Result<(), ServeError> {
        let Some(ap) = self.home.get(id) else {
            return Err(ServeError::UnknownStation(id));
        };
        let head_ns = self.jitter.draw();
        let ready_ns = self.now_ns.saturating_add(head_ns);
        let placed = (ready_ns < VirtualNs::MAX).then(|| Span::place(&mut self.frames, &frame));
        let Some(frame) = placed.flatten() else {
            self.rejected += 1;
            return Ok(());
        };
        let channels = self.cfg.channels as u32;
        self.channels[(ap % channels) as usize]
            .offers
            .push(Pending {
                member: ap / channels,
                ready_ns,
                id,
                index: self.offered,
                frame,
                head_ns,
            });
        self.offered += 1;
        Ok(())
    }

    /// Hands `id` off from its current AP to `to_ap`, moving its full
    /// session state without a cold re-register. A handoff to the current
    /// home is a no-op. On an adoption failure the session is restored at
    /// the source, so a failed handoff never drops the station.
    pub fn handoff(&mut self, id: StationId, to_ap: usize) -> Result<(), ServeError> {
        let from = self.home_ap(id).ok_or(ServeError::UnknownStation(id))?;
        assert!(to_ap < self.cfg.aps, "handoff target AP out of range");
        if from == to_ap {
            return Ok(());
        }
        let session = self.member_mut(from).server.release_station(id)?;
        let key = session.model_key();
        if let Err((session, e)) = self.member_mut(to_ap).server.adopt_station(session, key) {
            // Restore at the source: the slot was just vacated and the
            // binding is unchanged, so re-adoption cannot fail.
            self.member_mut(from)
                .server
                .adopt_station(session, key)
                .map_err(|(_, restore_err)| restore_err)?;
            return Err(e);
        }
        self.home.insert(id, to_ap as u32);
        self.reseat = true;
        self.pending_handoff.insert(id, self.now_ns);
        self.handoffs += 1;
        Ok(())
    }

    /// Re-seats every listed offer by its station's home as of now, so an
    /// offer in flight across a handoff transmits on the new AP's channel,
    /// in its air order there; an offer whose station has no home left is
    /// rejected.
    fn reseat_offers(&mut self) {
        let (home, channels) = (&self.home, self.cfg.channels as u32);
        let (mut moved, mut homeless) = (Vec::new(), 0);
        for (at, channel) in self.channels.iter_mut().enumerate() {
            channel.offers.retain_mut(|p| {
                let Some(ap) = home.get(p.id) else {
                    homeless += 1;
                    return false;
                };
                p.member = ap / channels;
                let seat = (ap % channels) as usize;
                if seat != at {
                    moved.push((seat, *p));
                }
                seat == at
            });
        }
        for (seat, p) in moved {
            self.channels[seat].offers.push(p);
        }
        self.rejected += homeless;
    }

    /// Closes the fleet round. The channels are handed out over the pool
    /// once: each sorts its offers into air order, serializes them on its
    /// medium, ingests them with their virtual-time stamps and closes its
    /// APs' rounds under the deadline policy; then handoff latencies
    /// settle. A round with a handoff since the last close first re-seats
    /// every offer by its home as of now (a homeless one is rejected).
    ///
    /// # Errors
    /// The first AP round-close error (in AP order). The fleet round is
    /// **partial, not voided**: every AP still closed, the fleet round and
    /// clock advanced, and `per_ap` and the fleet-lifetime counters include
    /// what every AP's healthy batches did, the failing AP's included. Ingest
    /// rejections (quarantine, corruption) are counted, not raised.
    pub fn close_round(&mut self) -> Result<FleetRoundSummary, ServeError> {
        if std::mem::take(&mut self.reseat) {
            self.reseat_offers();
        }
        let (frames, policy) = (&self.frames, self.cfg.policy);
        self.channels
            .par_iter_mut()
            .for_each(|channel| channel.serve(frames, policy));
        self.frames.clear();
        self.offered = 0;
        for channel in &mut self.channels {
            self.rejected += std::mem::take(&mut channel.rejected);
        }
        let closed_round = self.round;
        let mut per_ap = Vec::with_capacity(self.cfg.aps);
        let mut tally = RoundSummary::default();
        let mut first_error = None;
        for ap in 0..self.cfg.aps {
            let member = self.member_mut(ap);
            first_error = first_error.or(member.closed.take());
            // An AP's books are its shards' books, so a failed close, which
            // is partial, still counts what its healthy batches did.
            let mut books = RoundSummary {
                round: closed_round,
                ..RoundSummary::default()
            };
            for shard in member.server.shard_round_stats() {
                books.merge(&shard.summary);
            }
            per_ap.push(books);
        }
        per_ap.iter().for_each(|summary| tally.merge(summary));
        self.round += 1;
        self.now_ns = self.now_ns.saturating_add(self.cfg.round_ns);

        // Settle handoffs: a station served at its new home for the first
        // time since the handoff completes the roam; latency is measured in
        // virtual time to the end of the serving round.
        let settled: Vec<(StationId, VirtualNs)> = self
            .pending_handoff
            .iter()
            .filter(|(&id, _)| {
                let Some(ap) = self.home_ap(id) else {
                    return true;
                };
                self.ap(ap)
                    .session(id)
                    .and_then(|s| s.last_round())
                    .is_some_and(|r| r >= closed_round)
            })
            .map(|(&id, &at_ns)| (id, at_ns))
            .collect();
        for &(id, at_ns) in &settled {
            self.pending_handoff.remove(&id);
            self.handoff_latency_sum_ns += self.now_ns.saturating_sub(at_ns);
        }
        self.handoffs_settled += settled.len() as u64;

        let summary = FleetRoundSummary {
            round: closed_round,
            served: tally.served,
            on_time: tally.on_time,
            late: tally.late,
            expired: tally.expired,
            rejected: (self.rejected - self.rejected_at_last_close) as usize,
            handoffs_settled: settled.len(),
            per_ap,
        };
        self.lifetime.merge(&tally);
        self.rejected_at_last_close = self.rejected;
        first_error.map_or(Ok(summary), Err)
    }

    /// Fleet-lifetime aggregates.
    pub fn stats(&self) -> FleetStats {
        let books = &self.lifetime;
        let classified = books.on_time + books.late + books.expired;
        let media = || self.channels.iter().map(|channel| &channel.medium);
        FleetStats {
            rounds: self.round,
            served: books.served as u64,
            on_time: books.on_time as u64,
            late: books.late as u64,
            expired: books.expired as u64,
            rejected: self.rejected,
            deadline_hit_rate: if classified == 0 {
                1.0
            } else {
                books.on_time as f64 / classified as f64
            },
            handoffs: self.handoffs,
            handoffs_settled: self.handoffs_settled,
            mean_handoff_latency_ns: if self.handoffs_settled == 0 {
                0.0
            } else {
                self.handoff_latency_sum_ns as f64 / self.handoffs_settled as f64
            },
            air_ns: media().map(SharedMedium::total_air_ns).sum(),
            wait_ns: media().map(SharedMedium::total_wait_ns).sum(),
            cross_bss_wait_ns: (0..self.cfg.aps).map(|ap| self.cross_bss_wait_of(ap)).sum(),
        }
    }

    /// Cross-BSS wait charged to one AP.
    pub fn cross_bss_wait_of(&self, ap: usize) -> u64 {
        self.member(ap).cross_bss_wait_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{model, station_frame};

    /// Runs `scenario` on pools 1, 2 and 3 threads wide: what it asserts
    /// holds at every width, the plain-loop one included.
    fn at_pool_widths(scenario: impl Fn() + Send + Sync) {
        for width in 1..=3 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            pool.install(&scenario);
        }
    }

    #[test]
    fn co_channel_aps_charge_each_other_airtime() {
        let m = model(3);
        // Two APs, ONE channel: both BSSs contend for the same air.
        let mut fleet = Fleet::new(FleetConfig {
            aps: 2,
            channels: 1,
            rate_mbps: Some(24.0),
            jitter_ns: 0,
            policy: None,
            ..FleetConfig::default()
        });
        let key = fleet.register_model(&m);
        fleet.register_station(0, 0, key, 4).unwrap();
        fleet.register_station(1, 1, key, 4).unwrap();
        fleet.offer_frame(0, station_frame(&m, 10, 4)).unwrap();
        fleet.offer_frame(1, station_frame(&m, 11, 4)).unwrap();
        let summary = fleet.close_round().unwrap();
        assert_eq!(summary.served, 2);
        // Both frames were ready at t=0; station 0 drains first, so AP 1's
        // frame waited out a foreign BSS's airtime.
        assert_eq!(fleet.cross_bss_wait_of(0), 0);
        assert!(fleet.cross_bss_wait_of(1) > 0);
        let stats = fleet.stats();
        assert_eq!(stats.cross_bss_wait_ns, fleet.cross_bss_wait_of(1));
        assert!(stats.air_ns > 0);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn separate_channels_do_not_contend() {
        let m = model(3);
        let mut fleet = Fleet::new(FleetConfig {
            aps: 2,
            channels: 2,
            rate_mbps: Some(24.0),
            jitter_ns: 0,
            policy: None,
            ..FleetConfig::default()
        });
        let key = fleet.register_model(&m);
        fleet.register_station(0, 0, key, 4).unwrap();
        fleet.register_station(1, 1, key, 4).unwrap();
        fleet.offer_frame(0, station_frame(&m, 10, 4)).unwrap();
        fleet.offer_frame(1, station_frame(&m, 11, 4)).unwrap();
        let summary = fleet.close_round().unwrap();
        assert_eq!(summary.served, 2);
        assert_eq!(fleet.stats().cross_bss_wait_ns, 0);
    }

    #[test]
    fn handoff_rebinds_without_cold_reregister_and_settles() {
        let m = model(5);
        let mut fleet = Fleet::new(FleetConfig {
            aps: 2,
            channels: 2,
            jitter_ns: 0,
            ..FleetConfig::default()
        });
        let key = fleet.register_model(&m);
        fleet.register_station(7, 0, key, 4).unwrap();
        fleet.offer_frame(7, station_frame(&m, 20, 4)).unwrap();
        fleet.close_round().unwrap();
        let before = fleet.feedback_of(7).unwrap().to_vec();

        fleet.handoff(7, 1).unwrap();
        assert_eq!(fleet.home_ap(7), Some(1));
        // The warm session (and its reconstructed feedback) traveled.
        assert_eq!(fleet.feedback_of(7).unwrap(), before.as_slice());
        assert_eq!(fleet.stats().handoffs, 1);
        assert_eq!(fleet.stats().handoffs_settled, 0);

        // Handoff to the current home is a no-op.
        fleet.handoff(7, 1).unwrap();
        assert_eq!(fleet.stats().handoffs, 1);

        fleet.offer_frame(7, station_frame(&m, 21, 4)).unwrap();
        let summary = fleet.close_round().unwrap();
        assert_eq!(summary.handoffs_settled, 1);
        let stats = fleet.stats();
        assert_eq!(stats.handoffs_settled, 1);
        // Settled at the end of the round that first served it post-handoff.
        assert!(stats.mean_handoff_latency_ns > 0.0);
    }

    /// One AP's failed batch must not stall the fleet: every AP still closes,
    /// the fleet round and clock advance, the first error (in AP order) is
    /// what the close returns, and what the failing AP's healthy batch
    /// served still reaches the fleet's books.
    #[test]
    fn failed_ap_close_still_closes_every_ap_and_advances_the_fleet() {
        at_pool_widths(failed_ap_close);
    }

    fn failed_ap_close() {
        let m = model(13);
        let mut fleet = Fleet::new(FleetConfig {
            aps: 3,
            channels: 3,
            jitter_ns: 0,
            ..FleetConfig::default()
        });
        let key = fleet.register_model(&m);
        for id in 0..3u64 {
            fleet.register_station(id, id as usize, key, 4).unwrap();
        }
        // AP 1 also serves station 3 on a second model, whose batch is fine.
        let m2 = model(14);
        let key2 = fleet.register_model(&m2);
        fleet.register_station(3, 1, key2, 4).unwrap();
        fleet.offer_frame(0, station_frame(&m, 30, 4)).unwrap();
        fleet.offer_frame(2, station_frame(&m, 32, 4)).unwrap();
        fleet.offer_frame(3, station_frame(&m2, 33, 4)).unwrap();
        // AP 1's station ingests directly, then its validated payload is
        // damaged so AP 1's batch fails at reconstruction time.
        let failing = &mut fleet.member_mut(1).server;
        failing.ingest_wire(1, &station_frame(&m, 31, 4)).unwrap();
        failing.truncate_pending_payload(1);

        assert!(matches!(fleet.close_round(), Err(ServeError::Model(_))));
        // The fleet advanced in step with every AP, including those after
        // the failing one, and nobody holds a stale pending frame.
        assert_eq!(fleet.current_round(), 1);
        assert_eq!(fleet.now_ns(), fleet.cfg.round_ns);
        for ap in 0..3 {
            assert_eq!(fleet.ap(ap).current_round(), 1);
            assert_eq!(fleet.ap(ap).pending_count(), 0);
        }
        assert!(fleet.feedback_of(0).is_some());
        assert!(fleet.feedback_of(1).is_none());
        assert!(fleet.feedback_of(2).is_some());
        assert!(fleet.feedback_of(3).is_some());
        assert_eq!(fleet.stats().served, 3);

        // The next round is a normal one for all three APs.
        for id in 0..3u64 {
            fleet
                .offer_frame(id, station_frame(&m, 40 + id, 4))
                .unwrap();
        }
        let summary = fleet.close_round().unwrap();
        assert_eq!((summary.round, summary.served), (1, 3));
    }

    #[test]
    fn unknown_station_offers_and_handoffs_are_rejected() {
        at_pool_widths(unknown_station_offers_and_handoffs);
    }

    fn unknown_station_offers_and_handoffs() {
        let m = model(5);
        let mut fleet = Fleet::new(FleetConfig::default());
        let key = fleet.register_model(&m);
        assert_eq!(
            fleet.offer_frame(9, vec![0u8; 4]),
            Err(ServeError::UnknownStation(9))
        );
        assert_eq!(fleet.handoff(9, 1), Err(ServeError::UnknownStation(9)));
        // Refused before the list: not part of any round's books. A frame
        // the AP refuses at ingest, and one whose station has no home left
        // when the round drains, are this round's rejections and no other's.
        for id in 0..3u64 {
            fleet.register_station(id, 0, key, 4).unwrap();
            fleet.offer_frame(id, station_frame(&m, id, 4)).unwrap();
        }
        fleet.offer_frame(0, vec![0u8; 4]).unwrap();
        // A home changes only by a move, and a move marks the round.
        fleet.home.remove(2);
        fleet.reseat = true;
        let (offered, listed) = (fleet.frames.len(), fleet.channels[0].offers.len());
        let summary = fleet.close_round().unwrap();
        assert_eq!((summary.served, summary.rejected), (2, 2));
        assert_eq!(fleet.stats().rejected, 2);
        // The close emptied the arena and the lists, and kept their room.
        assert!(fleet.frames.is_empty() && fleet.frames.capacity() >= offered);
        assert!(fleet.channels.iter().all(|c| c.offers.is_empty()));
        assert!(fleet.channels[0].offers.capacity() >= listed);
        let summary = fleet.close_round().unwrap();
        assert_eq!((summary.rejected, fleet.stats().rejected), (0, 2));
    }

    /// Each channel's list is reserved a share of the offers, not all of
    /// them: 100,001 offers on four channels are 25,001 a list.
    #[test]
    fn reserving_events_gives_each_channel_its_share() {
        let mut fleet = Fleet::new(FleetConfig {
            aps: 8,
            channels: 4,
            ..FleetConfig::default()
        });
        fleet.reserve_events(100_001);
        for channel in &fleet.channels {
            assert!((25_001..50_000).contains(&channel.offers.capacity()));
        }
    }

    /// A station has one home: registering an id that already has one —
    /// at the same AP or another — is refused before any AP is touched, so
    /// no second session is left behind to await its first report for ever.
    #[test]
    fn registering_a_station_twice_is_refused_fleet_wide() {
        let m = model(5);
        let mut fleet = Fleet::new(FleetConfig::default());
        let key = fleet.register_model(&m);
        fleet.register_station(7, 0, key, 4).unwrap();
        for ap in [1, 0] {
            assert_eq!(
                fleet.register_station(7, ap, key, 4),
                Err(ServeError::DuplicateStation(7))
            );
        }
        assert_eq!(fleet.home_ap(7), Some(0));
        let sessions: usize = (0..fleet.num_aps())
            .map(|ap| fleet.ap(ap).num_stations())
            .sum();
        assert_eq!((sessions, fleet.num_stations()), (1, 1));
    }

    /// AP 3 of 3 on two channels would be member 1 of channel 1, which has
    /// one: refused by name before any lookup, as a handoff's target is.
    #[test]
    #[should_panic(expected = "out of range")]
    fn registering_at_an_ap_the_fleet_does_not_have_panics_by_name() {
        let m = model(5);
        let mut fleet = Fleet::new(FleetConfig {
            aps: 3,
            channels: 2,
            ..FleetConfig::default()
        });
        let key = fleet.register_model(&m);
        let _ = fleet.register_station(7, 3, key, 4);
    }

    /// The arena is addressed by `u32`s: a frame is placed while the
    /// arena's end stays addressable and refused — rejected by `offer_frame`,
    /// expired by the event driver — from the first byte past that, checked
    /// on the arithmetic alone.
    #[test]
    fn offers_are_placed_up_to_the_end_of_a_u32_arena() {
        const END: usize = u32::MAX as usize;
        let placed = |used, len| Span::at(used, len).map(|s| (s.offset, s.len));
        assert_eq!(placed(0, 0), Some((0, 0)));
        assert_eq!(placed(46, 46), Some((46, 46)));
        assert_eq!(placed(END - 46, 46), Some((u32::MAX - 46, 46)));
        assert_eq!(placed(END, 0), Some((u32::MAX, 0)));
        for (used, len) in [(END - 46, 47), (END, 1), (0, END + 1), (END + 1, 0)] {
            assert_eq!(placed(used, len), None, "{used} + {len}");
        }
        assert_eq!(placed(usize::MAX, 1), None);
        let mut arena = vec![];
        let [Some(first), Some(second), Some(empty)] =
            [&[1, 2][..], &[3, 4, 5], &[]].map(|frame| Span::place(&mut arena, frame))
        else {
            unreachable!("a small arena places every frame")
        };
        first.bytes_mut(&mut arena)[1] = 9;
        assert_eq!(arena, [1, 9, 3, 4, 5]);
        assert_eq!(second.bytes(&arena), &[3, 4, 5]);
        assert!(empty.bytes(&arena).is_empty());
    }

    #[test]
    fn same_seed_fleets_are_bit_identical() {
        let m = model(11);
        let run = || {
            let mut fleet = Fleet::new(FleetConfig {
                aps: 3,
                channels: 2,
                jitter_ns: 50_000,
                ..FleetConfig::default()
            });
            let key = fleet.register_model(&m);
            for id in 0..9u64 {
                fleet
                    .register_station(id, (id % 3) as usize, key, 4)
                    .unwrap();
            }
            let mut summaries = Vec::new();
            for round in 0..3u64 {
                for id in 0..9u64 {
                    fleet
                        .offer_frame(id, station_frame(&m, 100 + id * 7 + round, 4))
                        .unwrap();
                }
                if round == 1 {
                    fleet.handoff(4, 0).unwrap();
                }
                summaries.push(fleet.close_round().unwrap());
            }
            let feedback: Vec<Vec<f32>> = (0..9u64)
                .map(|id| fleet.feedback_of(id).unwrap().to_vec())
                .collect();
            (summaries, feedback, fleet.stats())
        };
        let (s1, f1, st1) = run();
        let (s2, f2, st2) = run();
        assert_eq!(s1, s2);
        assert_eq!(f1, f2);
        assert_eq!(st1, st2);
        // The views agree with the books: a round's totals are the sum over
        // its APs, the lifetime's the sum over the rounds.
        let counts = |s: &RoundSummary| [s.served, s.on_time, s.late, s.expired];
        let mut lifetime = RoundSummary::default();
        for s in &s1 {
            let mut sum = RoundSummary::default();
            s.per_ap.iter().for_each(|ap| sum.merge(ap));
            let totals = [s.served, s.on_time, s.late, s.expired];
            assert_eq!(totals, counts(&sum), "round {}", s.round);
            lifetime.merge(&sum);
        }
        let stats = [st1.served, st1.on_time, st1.late, st1.expired];
        assert_eq!(stats.map(|n| n as usize), counts(&lifetime));
        let rejected: usize = s1.iter().map(|s| s.rejected).sum();
        let settled: usize = s1.iter().map(|s| s.handoffs_settled).sum();
        let rest = (st1.rounds, st1.rejected, st1.handoffs_settled);
        assert_eq!(rest, (s1.len() as u64, rejected as u64, settled as u64));
        assert!(lifetime.served > 0, "the rounds served");
    }

    /// `round_ns` and `jitter_ns` are caller-chosen `u64`s: the fleet clock
    /// and the offer instants saturate at the end of virtual time instead of
    /// panicking (debug) or wrapping into the past (release), and an offer
    /// pinned there is rejected, never listed.
    #[test]
    fn fleet_clock_and_offers_saturate_at_the_end_of_time() {
        let m = model(17);
        let mut fleet = Fleet::new(FleetConfig {
            aps: 2,
            channels: 1,
            round_ns: u64::MAX,
            jitter_ns: u64::MAX,
            ..FleetConfig::default()
        });
        let key = fleet.register_model(&m);
        for id in 0..2u64 {
            fleet.register_station(id, id as usize, key, 4).unwrap();
        }
        // Round 0 starts at 0, so its offers land at their (huge) jitter
        // draws: transmitted, hopelessly past the budget, expired.
        for id in 0..2u64 {
            fleet
                .offer_frame(id, station_frame(&m, 50 + id, 4))
                .unwrap();
        }
        let summary = fleet.close_round().unwrap();
        assert_eq!((summary.served, summary.expired), (0, 2));
        assert_eq!(fleet.now_ns(), VirtualNs::MAX);
        // From the end of time on, no offer can become ready.
        for round in 1..3u64 {
            for id in 0..2u64 {
                fleet
                    .offer_frame(id, station_frame(&m, 60 + id, 4))
                    .unwrap();
            }
            let listed = fleet.channels.iter().any(|c| !c.offers.is_empty());
            assert!(!listed, "a pinned offer was listed");
            assert!(fleet.frames.is_empty(), "a pinned offer left its bytes");
            let summary = fleet.close_round().unwrap();
            assert_eq!(
                (summary.round, summary.served, summary.expired),
                (round, 0, 0)
            );
            assert_eq!(fleet.now_ns(), VirtualNs::MAX);
            assert_eq!(
                (summary.rejected, fleet.stats().rejected),
                (2, 2 * round),
                "a round's rejections are the lifetime count's growth over it"
            );
        }
    }
}
