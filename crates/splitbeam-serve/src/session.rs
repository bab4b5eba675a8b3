//! Per-station serving state.
//!
//! A [`StationSession`] holds what the AP knows of one station: its model
//! binding and quantizer width, the header of its pending report (whether
//! one is pending, its stamp and sequence number), its last reconstructed
//! feedback, and its health and staleness clocks. The pending report's
//! codes are not here: they live in the shard's code arena, in the row of
//! the session's slot (`crate::slab::CodeArena`), so registration
//! allocates no payload buffer and the round close's gather reads the
//! arena without touching a session. Only a session released for a
//! handoff carries its pending codes with it, in transit to the adopting
//! AP's arena.

use crate::server::HealthPolicy;
use crate::timing::FrameStamp;
use mimo_math::kernel::packed::AlignedRow;
use splitbeam::quantization::QuantizedFeedback;

/// Over-the-air station identifier (association id in a real AP).
pub type StationId = u64;

/// Per-session link-health state, driven by ingest outcomes and round closes.
///
/// The AP degrades gracefully instead of failing hard: a station whose reports
/// keep missing their round is **Degraded** (served from last-known-good
/// feedback up to the staleness cap), and a station whose frames keep arriving
/// corrupt is **Quarantined** (its traffic rejected for a fixed number of
/// rounds, and it is excluded from MU-MIMO grouping until it recovers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionHealth {
    /// Reports are arriving and decoding normally.
    #[default]
    Healthy,
    /// Recent rounds closed without a usable report from this station; the AP
    /// serves last-known-good feedback while the staleness cap allows.
    Degraded,
    /// Repeated corrupt frames: traffic is rejected until the quarantine
    /// expires, and the station does not join precoding groups.
    Quarantined,
}

/// The AP's per-station serving state: which model reconstructs this station's
/// payloads, how wide its quantizer is, and the freshest reconstructed `V̂`.
///
/// The feedback is kept in the tail's flat real-interleaved layout; per-round
/// serving never materializes `CMatrix` objects — that happens lazily, only
/// for stations entering a precoding group
/// (see [`crate::server::ApServer::group_feedback`]).
#[derive(Debug, Clone)]
pub struct StationSession {
    id: StationId,
    model_key: usize,
    bits_per_value: u8,
    /// Round the station (re-)associated in — the baseline for idle-eviction
    /// of stations that never report.
    joined_round: u64,
    /// Whether the shard's code arena holds a payload of this station for
    /// the round being collected, in the row of the session's slot.
    has_pending: bool,
    /// The pending payload, while a released session travels between APs
    /// (`None` at rest: the codes are in the arena).
    in_transit: Option<QuantizedFeedback>,
    /// Virtual-time stamp of the pending payload (all-zero for untimed
    /// lockstep ingest).
    pending_stamp: FrameStamp,
    last_feedback: Option<AlignedRow>,
    last_round: Option<u64>,
    /// Stamp of the report behind `last_feedback`, if it came through the
    /// timestamped ingest path.
    last_stamp: Option<FrameStamp>,
    /// Whether the stored feedback was classified late-but-usable (past the
    /// Eq. 7d budget but within the grace window) at its round close.
    last_served_late: bool,
    payloads_ingested: u64,
    wire_bytes_ingested: u64,
    /// Sequence number of the pending payload (`0` = unsequenced/last-wins).
    pending_seq: u16,
    /// Frames from this station accepted by streaming ingest but still queued
    /// in the shard's ring (not yet committed to the payload slot). Keeps the
    /// duplicate-suppression window identical between barrier and streaming
    /// ingest while frames are in flight.
    stream_inflight: u32,
    /// Consecutive closed rounds without a usable report from this station.
    miss_streak: u32,
    /// Consecutive corrupt frames received from this station.
    corrupt_streak: u32,
    /// While `Some(r)`, traffic is rejected for every round `< r`.
    quarantined_until_round: Option<u64>,
    health: SessionHealth,
}

impl StationSession {
    /// A fresh session: nothing pending, no feedback, healthy.
    pub(crate) fn new(
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
        joined_round: u64,
    ) -> Self {
        Self {
            id,
            model_key,
            bits_per_value,
            joined_round,
            has_pending: false,
            in_transit: None,
            pending_stamp: FrameStamp::default(),
            last_feedback: None,
            last_round: None,
            last_stamp: None,
            last_served_late: false,
            payloads_ingested: 0,
            wire_bytes_ingested: 0,
            pending_seq: 0,
            stream_inflight: 0,
            miss_streak: 0,
            corrupt_streak: 0,
            quarantined_until_round: None,
            health: SessionHealth::Healthy,
        }
    }

    /// A synthetic fresh session, public for store-level benchmarks and
    /// tests; production sessions are created by server registration.
    #[doc(hidden)]
    pub fn synthetic(
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
        joined_round: u64,
    ) -> Self {
        Self::new(id, model_key, bits_per_value, joined_round)
    }

    /// Rebinds the session to `model_key` on the adopting server during a
    /// fleet handoff. Only the binding key changes: payloads, feedback,
    /// health state and staleness clocks all travel untouched, which is what
    /// makes a roamed station bit-exact with a never-roamed control when the
    /// model weights behind the two keys are identical.
    pub(crate) fn rebind_model(&mut self, model_key: usize) {
        self.model_key = model_key;
    }

    /// Whether this station delivered a payload for the round being collected.
    pub fn has_pending(&self) -> bool {
        self.has_pending
    }

    /// Marks a payload pending under `stamp` / `seq`; its codes were just
    /// stored in the arena row of the session's slot.
    pub(crate) fn mark_pending(&mut self, stamp: FrameStamp, seq: u16) {
        self.has_pending = true;
        self.pending_stamp = stamp;
        self.pending_seq = seq;
    }

    /// Gives a released session its pending payload to carry to the AP
    /// that adopts it.
    pub(crate) fn carry(&mut self, payload: QuantizedFeedback) {
        self.in_transit = Some(payload);
    }

    /// The pending payload a released session carries (`None` at rest).
    pub(crate) fn in_transit(&self) -> Option<&QuantizedFeedback> {
        self.in_transit.as_ref()
    }

    /// Hands the carried payload over to the adopting shard's arena.
    pub(crate) fn unload(&mut self) -> Option<QuantizedFeedback> {
        self.in_transit.take()
    }

    /// Closes the pending report out — served, expired or discarded with a
    /// failed batch: nothing is pending and the stamp is blank again.
    pub(crate) fn consume_pending(&mut self) {
        self.has_pending = false;
        self.pending_stamp = FrameStamp::default();
    }

    /// The virtual-time stamp of the pending payload (all-zero when the
    /// payload came through the untimed lockstep ingest path).
    pub fn pending_stamp(&self) -> &FrameStamp {
        &self.pending_stamp
    }

    /// The station id.
    pub fn id(&self) -> StationId {
        self.id
    }

    /// Key of the model serving this station.
    pub fn model_key(&self) -> usize {
        self.model_key
    }

    /// Quantizer width this station announced at association.
    pub fn bits_per_value(&self) -> u8 {
        self.bits_per_value
    }

    /// Round the station (re-)associated in.
    pub fn joined_round(&self) -> u64 {
        self.joined_round
    }

    /// Sounding rounds since the station last produced feedback, measured at
    /// the just-closed round `closed_round`; stations that never reported are
    /// measured from their association round instead. `0` means the station
    /// was served this very round (or associated during it).
    pub fn idle_rounds(&self, closed_round: u64) -> u64 {
        closed_round.saturating_sub(self.activity_round())
    }

    /// The round idleness is measured from: the last served round, or the
    /// association round while the station has never been served.
    pub(crate) fn activity_round(&self) -> u64 {
        self.last_round.unwrap_or(self.joined_round)
    }

    /// The most recently reconstructed feedback in the tail's flat
    /// real-interleaved layout (length `2 * Nt * Nss * S`).
    pub fn feedback(&self) -> Option<&[f32]> {
        self.last_feedback.as_deref()
    }

    /// Round the feedback was reconstructed in, if any.
    pub fn last_round(&self) -> Option<u64> {
        self.last_round
    }

    /// Feedback age in sounding rounds at `current_round` (0 = reconstructed
    /// this very round). `None` when the station never reported.
    pub fn age(&self, current_round: u64) -> Option<u64> {
        self.last_round.map(|r| current_round.saturating_sub(r))
    }

    /// Whether the feedback is at most `max_age` rounds old at `current_round`.
    pub fn is_fresh(&self, current_round: u64, max_age: u64) -> bool {
        self.age(current_round).is_some_and(|a| a <= max_age)
    }

    /// Number of payloads this station has delivered.
    pub fn payloads_ingested(&self) -> u64 {
        self.payloads_ingested
    }

    /// Total wire bytes this station has delivered.
    #[cfg(test)]
    pub fn wire_bytes_ingested(&self) -> u64 {
        self.wire_bytes_ingested
    }

    pub(crate) fn record_ingest(&mut self, wire_bytes: usize) {
        self.payloads_ingested += 1;
        self.wire_bytes_ingested += wire_bytes as u64;
    }

    /// Virtual-time stamp of the stored feedback (`None` when the station has
    /// no feedback or it came through the untimed lockstep path).
    pub fn last_stamp(&self) -> Option<&FrameStamp> {
        self.last_stamp.as_ref()
    }

    /// Whether the stored feedback was classified late-but-usable at its
    /// round close (past the Eq. 7d budget but within the grace window).
    /// Always `false` for on-time reports and for untimed lockstep serving.
    pub fn served_late(&self) -> bool {
        self.last_served_late
    }

    /// Takes a reconstruction by changing hands: `row` and the session's
    /// feedback buffer swap, so `row` leaves holding the previous round's
    /// feedback, for the tail to write its next batch into. A session's
    /// first report copies `row` into a buffer of its own instead, which
    /// from then on circulates; in steady state serving allocates nothing
    /// and copies no feedback. Every buffer is line-aligned, the copy
    /// included ([`AlignedRow`]), so the tail stores whole lines into
    /// whichever it is handed back.
    pub(crate) fn swap_feedback(&mut self, row: &mut AlignedRow, round: u64) {
        match &mut self.last_feedback {
            Some(buf) => std::mem::swap(buf, row),
            None => self.last_feedback = Some(row.clone()),
        }
        self.last_round = Some(round);
    }

    /// Stores a reconstruction given by value (the unit tests' fixture).
    #[cfg(test)]
    pub(crate) fn store_feedback(&mut self, flat: &[f32], round: u64) {
        self.swap_feedback(&mut AlignedRow::from(flat), round);
    }

    /// Records how the deadline-aware closer classified the report that was
    /// just stored: its stamp (when timestamped) and whether it was late.
    pub(crate) fn record_service_class(&mut self, stamp: Option<FrameStamp>, late: bool) {
        self.last_stamp = stamp;
        self.last_served_late = late;
    }

    /// Sequence number of the pending payload (`0` = unsequenced: a later
    /// frame simply replaces the pending one, the pre-sequencing behaviour).
    pub fn pending_seq(&self) -> u16 {
        self.pending_seq
    }

    pub(crate) fn set_pending_seq(&mut self, seq: u16) {
        self.pending_seq = seq;
    }

    /// Frames accepted by streaming ingest but still queued in the shard's
    /// ring, awaiting their watermark commit.
    pub fn stream_inflight(&self) -> u32 {
        self.stream_inflight
    }

    pub(crate) fn inc_stream_inflight(&mut self) {
        self.stream_inflight = self.stream_inflight.saturating_add(1);
    }

    pub(crate) fn dec_stream_inflight(&mut self) {
        self.stream_inflight = self.stream_inflight.saturating_sub(1);
    }

    /// The session is leaving its shard and its queued frames were purged.
    pub(crate) fn clear_stream_inflight(&mut self) {
        self.stream_inflight = 0;
    }

    /// Current link-health state of this session.
    pub fn health(&self) -> SessionHealth {
        self.health
    }

    /// Round the quarantine expires at (`None` when not quarantined).
    #[cfg(test)]
    pub fn quarantined_until(&self) -> Option<u64> {
        self.quarantined_until_round
    }

    /// Whether ingest must be rejected for `round`.
    pub(crate) fn is_quarantined(&self, round: u64) -> bool {
        self.quarantined_until_round
            .is_some_and(|until| round < until)
    }

    /// Consecutive closed rounds without a usable report.
    #[cfg(any(test, feature = "reference"))]
    pub fn miss_streak(&self) -> u32 {
        self.miss_streak
    }

    /// Consecutive corrupt frames received.
    #[cfg(test)]
    pub fn corrupt_streak(&self) -> u32 {
        self.corrupt_streak
    }

    /// Records one corrupt frame at ingest time. Returns `true` when the
    /// corrupt streak just crossed the policy's quarantine threshold and the
    /// station entered quarantine (until `round + quarantine_rounds`).
    pub(crate) fn note_corrupt(&mut self, round: u64, policy: &HealthPolicy) -> bool {
        self.corrupt_streak += 1;
        if policy.quarantine_after_corrupt != 0
            && self.corrupt_streak >= policy.quarantine_after_corrupt
            && self.quarantined_until_round.is_none()
        {
            // Saturating: `quarantine_rounds = u64::MAX` means forever.
            self.quarantined_until_round =
                Some(round.saturating_add(policy.quarantine_rounds.max(1)));
            self.health = SessionHealth::Quarantined;
            self.corrupt_streak = 0;
            return true;
        }
        false
    }

    /// Records one cleanly decoded frame: the corrupt streak resets.
    pub(crate) fn note_clean_ingest(&mut self) {
        self.corrupt_streak = 0;
    }

    /// Advances the health state machine at the close of `closed_round`.
    /// `reported` is whether the station contributed a usable report this
    /// round (served fresh, not stale/expired).
    pub(crate) fn close_health(
        &mut self,
        closed_round: u64,
        policy: &HealthPolicy,
        reported: bool,
    ) {
        if reported {
            self.miss_streak = 0;
        } else {
            self.miss_streak = self.miss_streak.saturating_add(1);
        }
        if let Some(until) = self.quarantined_until_round {
            if closed_round.saturating_add(1) < until {
                // Still serving the quarantine through the next round.
                self.health = SessionHealth::Quarantined;
                return;
            }
            self.quarantined_until_round = None;
        }
        self.health = if policy.degrade_after_misses != 0
            && self.miss_streak >= policy.degrade_after_misses
        {
            SessionHealth::Degraded
        } else {
            SessionHealth::Healthy
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn age_and_freshness() {
        let mut s = StationSession::new(9, 0, 8, 0);
        assert_eq!(s.age(5), None);
        assert!(!s.is_fresh(5, 100));
        s.store_feedback(&[], 3);
        assert_eq!(s.age(3), Some(0));
        assert_eq!(s.age(7), Some(4));
        assert!(s.is_fresh(4, 1));
        assert!(!s.is_fresh(7, 3));
        assert_eq!(s.last_round(), Some(3));
    }

    #[test]
    fn ingest_accounting() {
        let mut s = StationSession::new(1, 2, 4, 0);
        assert_eq!((s.id(), s.model_key(), s.bits_per_value()), (1, 2, 4));
        s.record_ingest(68);
        s.record_ingest(68);
        assert_eq!(s.payloads_ingested(), 2);
        assert_eq!(s.wire_bytes_ingested(), 136);
        assert!(s.feedback().is_none());
    }

    #[test]
    fn health_machine_degrades_and_quarantines() {
        let policy = HealthPolicy::default();
        let mut s = StationSession::new(7, 0, 4, 0);
        assert_eq!(s.health(), SessionHealth::Healthy);
        // One silent round is tolerated, two degrade.
        s.close_health(0, &policy, false);
        assert_eq!(s.health(), SessionHealth::Healthy);
        s.close_health(1, &policy, false);
        assert_eq!(s.health(), SessionHealth::Degraded);
        assert_eq!(s.miss_streak(), 2);
        // A good round recovers immediately.
        s.close_health(2, &policy, true);
        assert_eq!(s.health(), SessionHealth::Healthy);
        // Corrupt frames quarantine once the streak crosses the threshold.
        assert!(!s.note_corrupt(3, &policy));
        assert!(!s.note_corrupt(3, &policy));
        assert!(s.note_corrupt(3, &policy));
        assert_eq!(s.health(), SessionHealth::Quarantined);
        assert_eq!(s.quarantined_until(), Some(3 + policy.quarantine_rounds));
        assert!(s.is_quarantined(3));
        assert!(s.is_quarantined(3 + policy.quarantine_rounds - 1));
        assert!(!s.is_quarantined(3 + policy.quarantine_rounds));
        // Health stays quarantined through closes until the expiry round...
        s.close_health(3, &policy, false);
        assert_eq!(s.health(), SessionHealth::Quarantined);
        // ...then falls back to degraded (the misses kept accumulating).
        s.close_health(3 + policy.quarantine_rounds - 1, &policy, false);
        assert_eq!(s.health(), SessionHealth::Degraded);
        // A clean ingest resets the corrupt streak.
        assert!(!s.note_corrupt(20, &policy));
        s.note_clean_ingest();
        assert_eq!(s.corrupt_streak(), 0);
    }

    /// `quarantine_rounds` and the round counter are `u64`s a caller can push
    /// to the edge: `u64::MAX` rounds is the natural "forever". The expiry
    /// round saturates — unsaturated it panics (debug) or wraps into the
    /// past, so the station is never refused (release) — and is the plain
    /// sum below the edge.
    #[test]
    fn quarantine_expiry_saturates_at_the_last_round() {
        for (round, quarantine_rounds, until) in [
            (3, 8, 11),
            (0, u64::MAX, u64::MAX),
            (1, u64::MAX, u64::MAX),
            (u64::MAX - 2, 8, u64::MAX),
        ] {
            let policy = HealthPolicy {
                quarantine_rounds,
                ..HealthPolicy::default()
            };
            let mut s = StationSession::new(7, 0, 4, 0);
            for _ in 0..policy.quarantine_after_corrupt {
                s.note_corrupt(round, &policy);
            }
            assert_eq!(s.quarantined_until(), Some(until), "round {round}");
            assert!(s.is_quarantined(round) && s.is_quarantined(until - 1));
            s.close_health(round, &policy, false);
            assert_eq!(s.health(), SessionHealth::Quarantined, "round {round}");
            // Closing the last round there is lifts it, without overflow.
            s.close_health(u64::MAX, &policy, false);
            assert_eq!(s.quarantined_until(), None);
        }
    }

    #[test]
    fn idle_rounds_measured_from_join_then_last_report() {
        let mut s = StationSession::new(3, 0, 8, 5);
        assert_eq!(s.joined_round(), 5);
        // Never reported: idle counts from the association round.
        assert_eq!(s.idle_rounds(5), 0);
        assert_eq!(s.idle_rounds(8), 3);
        // After a report, idle counts from the last served round.
        s.store_feedback(&[], 9);
        assert_eq!(s.idle_rounds(9), 0);
        assert_eq!(s.idle_rounds(12), 3);
    }
}
