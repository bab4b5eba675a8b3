//! Simulated multi-station sounding-round traffic for the serving layer.
//!
//! The driver splits the world exactly along the air interface: station-side
//! work (channel estimation → head compression → quantization → wire encoding)
//! happens in [`generate_traffic`] ahead of time, and the AP-side serving path
//! ([`serve_traffic`]) consumes only wire frames — so benchmarks can time the
//! server in isolation and compare shard counts, lockstep against streaming
//! closes, and the station-at-a-time oracle on identical traffic.
//!
//! Traffic can include **session churn**: stations joining mid-run, stations
//! leaving, and bursty rounds where half the fleet drops its report at once
//! ([`ChurnConfig`]). Churn is pre-scheduled deterministically into the
//! traffic ([`ChurnEvent`]), so every server type replays the identical
//! workload.

use crate::server::{ApServer, RoundSummary};
use crate::session::StationId;
use crate::timing::DeadlinePolicy;
use crate::ServeError;
use rand::Rng;
use splitbeam::model::SplitBeamModel;
use splitbeam::wire;
use std::collections::BTreeSet;
use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
use wifi_phy::ofdm::Bandwidth;

/// Session-churn shape of a simulated workload. All schedules are
/// deterministic in the round index; `0` disables the respective mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnConfig {
    /// Every `join_every`-th round (after round 0) one brand-new station id
    /// joins the fleet.
    pub join_every: usize,
    /// Every `leave_every`-th round (after round 0) the longest-standing
    /// active station leaves.
    pub leave_every: usize,
    /// Every `burst_every`-th round, every other active station drops its
    /// report — a bursty loss event on top of `drop_every`.
    pub burst_every: usize,
}

impl ChurnConfig {
    /// No churn: the fleet is static and only `drop_every` losses apply.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any churn mechanism is enabled.
    pub fn is_active(&self) -> bool {
        self.join_every != 0 || self.leave_every != 0 || self.burst_every != 0
    }
}

/// Shape of one simulated serving workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of stations associated with the AP at round 0.
    pub stations: usize,
    /// Number of sounding rounds.
    pub rounds: usize,
    /// Bottleneck quantizer width every station announces.
    pub bits_per_value: u8,
    /// Every `drop_every`-th (station, round) pair skips its report, leaving
    /// that station stale for the round; `0` disables drops.
    pub drop_every: usize,
    /// Per-stream SNR of the MU-MIMO link check in dB.
    pub snr_db: f64,
    /// Session churn: joins, departures and bursty drops.
    pub churn: ChurnConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            stations: 8,
            rounds: 4,
            bits_per_value: 4,
            drop_every: 11,
            snr_db: 25.0,
            churn: ChurnConfig::none(),
        }
    }
}

/// One pre-scheduled session-lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new station associates (before the round's frames are ingested).
    Join(StationId),
    /// A station disassociates.
    Leave(StationId),
}

/// One round of pre-generated traffic: lifecycle events applied before
/// ingest, then the frames of every active station in ascending id order.
#[derive(Debug, Clone, Default)]
pub struct SimRound {
    /// Joins/leaves applied before this round's frames.
    pub events: Vec<ChurnEvent>,
    /// `(station, frame)` pairs; `None` marks a dropped report.
    pub frames: Vec<(StationId, Option<Vec<u8>>)>,
}

/// Pre-generated station-side traffic: per-round churn events and wire
/// frames, plus the final-round true channels for the link check. Traffic is
/// always generated against **model key 0** of the consuming server.
#[derive(Debug, Clone)]
pub struct SimTraffic {
    /// The rounds, in order.
    pub rounds: Vec<SimRound>,
    /// `final_csi[id]` is station `id`'s true per-subcarrier channel in the
    /// last round it reported (empty when it never reported).
    pub final_csi: Vec<Vec<mimo_math::CMatrix>>,
    /// Channel bandwidth (for rebuilding snapshots).
    pub bandwidth: Bandwidth,
    /// Spatial streams per station.
    pub nss: usize,
    /// Quantizer width the stations announce (used when churn re-registers).
    pub bits_per_value: u8,
    /// Number of stations registered before round 0.
    pub initial_stations: usize,
    /// One past the highest station id that ever appears in the traffic.
    pub max_station_id: StationId,
}

/// The traffic's totals, which the tests hold a run's books to.
#[cfg(any(test, feature = "reference"))]
impl SimTraffic {
    /// Number of frames actually transmitted (non-dropped reports).
    pub fn total_frames(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.frames.iter().filter(|(_, f)| f.is_some()).count())
            .sum()
    }

    /// Number of scheduled reports that were dropped (including bursts).
    pub fn total_drops(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.frames.iter().filter(|(_, f)| f.is_none()).count())
            .sum()
    }

    /// Scheduled joins across the run.
    pub fn total_joins(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| r.events.iter())
            .filter(|e| matches!(e, ChurnEvent::Join(_)))
            .count()
    }

    /// Scheduled departures across the run.
    pub fn total_leaves(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| r.events.iter())
            .filter(|e| matches!(e, ChurnEvent::Leave(_)))
            .count()
    }
}

/// Runs the station side of `cfg.rounds` sounding rounds: every active
/// station estimates an independent channel, compresses it through the model
/// head, quantizes at `cfg.bits_per_value` bits and wire-encodes the payload.
/// Churn (joins, leaves, bursty drops) is scheduled deterministically from
/// `cfg.churn`.
///
/// # Panics
/// Panics if `cfg.stations` or `cfg.rounds` is zero, or the model rejects the
/// generated CSI (impossible for a model matching its own `MimoConfig`).
pub fn generate_traffic(cfg: &SimConfig, model: &SplitBeamModel, rng: &mut impl Rng) -> SimTraffic {
    assert!(cfg.stations > 0 && cfg.rounds > 0, "empty workload");
    let mimo = &model.config().mimo;
    let channel = ChannelModel::with_rx_antennas(
        EnvironmentProfile::e1(),
        mimo.bandwidth,
        mimo.nt,
        mimo.nr,
        1,
        mimo.nss,
    );
    let mut rounds = Vec::with_capacity(cfg.rounds);
    let mut final_csi: Vec<Vec<mimo_math::CMatrix>> = vec![Vec::new(); cfg.stations];
    let mut active: BTreeSet<StationId> = (0..cfg.stations as StationId).collect();
    let mut next_id = cfg.stations as StationId;
    let mut event = 0usize;
    for r in 0..cfg.rounds {
        let mut round = SimRound::default();
        if r > 0 {
            if cfg.churn.join_every != 0 && r.is_multiple_of(cfg.churn.join_every) {
                round.events.push(ChurnEvent::Join(next_id));
                active.insert(next_id);
                final_csi.push(Vec::new());
                next_id += 1;
            }
            if cfg.churn.leave_every != 0 && r.is_multiple_of(cfg.churn.leave_every) {
                if let Some(&oldest) = active.iter().next() {
                    if active.len() > 1 {
                        active.remove(&oldest);
                        round.events.push(ChurnEvent::Leave(oldest));
                    }
                }
            }
        }
        let burst = cfg.churn.burst_every != 0 && (r + 1).is_multiple_of(cfg.churn.burst_every);
        for (i, &id) in active.iter().enumerate() {
            event += 1;
            let dropped = (cfg.drop_every != 0 && event.is_multiple_of(cfg.drop_every))
                || (burst && i % 2 == 0);
            if dropped {
                round.frames.push((id, None));
                continue;
            }
            let snapshot = channel.sample(rng);
            let csi: Vec<f32> = snapshot
                .csi_real_vector(0)
                .into_iter()
                .map(|v| v as f32)
                .collect();
            let payload = model
                .compress_quantized(&csi, cfg.bits_per_value)
                .expect("model accepts its own configuration's CSI");
            let frame = wire::encode_feedback(&payload).expect("freshly quantized payload encodes");
            final_csi[id as usize] = snapshot.csi(0).to_vec();
            round.frames.push((id, Some(frame)));
        }
        rounds.push(round);
    }
    SimTraffic {
        rounds,
        final_csi,
        bandwidth: mimo.bandwidth,
        nss: mimo.nss,
        bits_per_value: cfg.bits_per_value,
        initial_stations: cfg.stations,
        max_station_id: next_id,
    }
}

/// How [`serve_traffic`] closes each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Coalesced: one fused batched tail inference per model per shard,
    /// shards in parallel. Whether the round closes under the barrier or
    /// through streaming micro-batches is a state of the server
    /// ([`ApServer::set_streaming`]), not of the close call.
    Batched,
    /// Test oracle: one unfused tail inference per station.
    #[cfg(any(test, feature = "reference"))]
    Serial,
}

/// Anything that can replay driver traffic: the [`ApServer`] itself and the
/// [`crate::event::EventDriver`] that drives one. The trait is the seam that
/// lets one `serve_traffic` implementation drive (and cross-compare)
/// lockstep and event-driven serving on identical workloads; its six methods
/// are what `serve_traffic` and the benchmark call.
pub trait RoundServing {
    /// Associates a station (see [`ApServer::register_station`]).
    ///
    /// # Errors
    /// Registration validation/capacity errors.
    fn register_station(
        &mut self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError>;

    /// Removes a station's session.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] when the id is not registered.
    fn deregister_station(&mut self, id: StationId) -> Result<(), ServeError>;

    /// Ingests one wire frame for the current round.
    ///
    /// # Errors
    /// Same contract as [`ApServer::ingest_wire`].
    fn ingest_wire(&mut self, id: StationId, frame: &[u8]) -> Result<usize, ServeError>;

    /// Closes the current round in the requested mode.
    ///
    /// # Errors
    /// [`ServeError::Model`] on reconstruction failure.
    fn close_round(&mut self, mode: ServeMode) -> Result<RoundSummary, ServeError>;

    /// Stations evicted by the most recent round close.
    fn evicted_in_last_round(&self) -> usize;

    /// The latest reconstructed feedback of station `id`.
    fn feedback_of(&self, id: StationId) -> Option<&[f32]>;
}

impl ApServer {
    /// Closes the round through the close `mode` names, under `policy`.
    pub(crate) fn close_in_mode(
        &mut self,
        mode: ServeMode,
        policy: Option<DeadlinePolicy>,
    ) -> Result<RoundSummary, ServeError> {
        match mode {
            ServeMode::Batched => self.close(policy),
            #[cfg(any(test, feature = "reference"))]
            ServeMode::Serial => self.close_serial(policy),
        }
    }
}

impl RoundServing for ApServer {
    fn register_station(
        &mut self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        ApServer::register_station(self, id, model_key, bits_per_value)
    }

    fn deregister_station(&mut self, id: StationId) -> Result<(), ServeError> {
        ApServer::deregister_station(self, id)
    }

    fn ingest_wire(&mut self, id: StationId, frame: &[u8]) -> Result<usize, ServeError> {
        ApServer::ingest_wire(self, id, frame)
    }

    fn close_round(&mut self, mode: ServeMode) -> Result<RoundSummary, ServeError> {
        self.close_in_mode(mode, None)
    }

    fn evicted_in_last_round(&self) -> usize {
        ApServer::evicted_in_last_round(self)
    }

    fn feedback_of(&self, id: StationId) -> Option<&[f32]> {
        ApServer::feedback_of(self, id)
    }
}

/// Builds a server with `num_shards` shards, `model` registered and stations
/// `0..stations` associated at `bits_per_value` bits.
///
/// # Panics
/// Panics on invalid `bits_per_value` (registration is infallible otherwise).
#[cfg(any(test, feature = "reference"))]
pub fn build_sharded_server(
    model: SplitBeamModel,
    stations: usize,
    bits_per_value: u8,
    num_shards: usize,
) -> ApServer {
    let mut server = ApServer::with_shards(num_shards);
    let key = server.register_model(model);
    for id in 0..stations as StationId {
        server
            .register_station(id, key, bits_per_value)
            .expect("fresh server accepts fleet registration");
    }
    server
}

/// What one full [`serve_traffic`] pass did, beyond the per-round summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOutcome {
    /// One summary per closed round.
    pub summaries: Vec<RoundSummary>,
    /// Stations that joined mid-run (scheduled churn).
    pub joins: usize,
    /// Stations that left mid-run (scheduled churn).
    pub leaves: usize,
    /// Frames from unknown stations that triggered a clean re-association
    /// (the station was evicted, then transmitted again).
    pub reassociations: usize,
    /// Stations evicted across all rounds (`0` unless the server has an idle
    /// budget).
    pub evictions: usize,
}

#[cfg(test)]
impl ServeOutcome {
    /// Total stations served across all rounds.
    pub fn total_served(&self) -> usize {
        self.summaries.iter().map(|s| s.served).sum()
    }
}

/// Feeds pre-generated traffic through any server, closing one round per
/// traffic round and applying the scheduled churn events. A frame from an
/// unknown station (evicted mid-run) triggers a clean re-association against
/// model key 0 before the frame is retried — exactly what a real AP does when
/// a dropped station transmits again.
///
/// # Errors
/// Propagates ingest/reconstruction failures (impossible for traffic
/// generated against the registered model).
pub fn serve_traffic<S: RoundServing>(
    server: &mut S,
    traffic: &SimTraffic,
    mode: ServeMode,
) -> Result<ServeOutcome, ServeError> {
    let mut outcome = ServeOutcome {
        summaries: Vec::with_capacity(traffic.rounds.len()),
        joins: 0,
        leaves: 0,
        reassociations: 0,
        evictions: 0,
    };
    for round in &traffic.rounds {
        for event in &round.events {
            match *event {
                ChurnEvent::Join(id) => {
                    server.register_station(id, 0, traffic.bits_per_value)?;
                    outcome.joins += 1;
                }
                ChurnEvent::Leave(id) => match server.deregister_station(id) {
                    // Already evicted by the idle policy — nothing to remove.
                    Ok(()) | Err(ServeError::UnknownStation(_)) => outcome.leaves += 1,
                    Err(e) => return Err(e),
                },
            }
        }
        for (id, frame) in &round.frames {
            let Some(frame) = frame else { continue };
            match server.ingest_wire(*id, frame) {
                Ok(_) => {}
                Err(ServeError::UnknownStation(_)) => {
                    server.register_station(*id, 0, traffic.bits_per_value)?;
                    server.ingest_wire(*id, frame)?;
                    outcome.reassociations += 1;
                }
                Err(e) => return Err(e),
            }
        }
        outcome.summaries.push(server.close_round(mode)?);
        outcome.evictions += server.evicted_in_last_round();
    }
    Ok(outcome)
}

/// Runs the end-to-end MU-MIMO link check over the served feedback: fresh
/// stations are partitioned into `Nt`-sized zero-forcing groups, each group's
/// reconstructed `V̂` drives the precoder, and the payload propagates through
/// the stations' *true* final-round channels.
///
/// `max_age` bounds how stale a station's feedback may be (in rounds) to join
/// a group. Returns the merged report across groups; groups of a single
/// station are skipped (no inter-user interference to measure).
///
/// # Errors
/// [`ServeError::Link`] when the precoder or link simulation rejects a group.
#[cfg(any(test, feature = "reference"))]
pub fn link_check(
    server: &ApServer,
    traffic: &SimTraffic,
    max_age: u64,
    snr_db: f64,
    rng: &mut impl Rng,
) -> Result<wifi_phy::link::LinkReport, ServeError> {
    use wifi_phy::channel::ChannelSnapshot;
    use wifi_phy::link::{simulate_mu_mimo_ber, LinkConfig, LinkReport};
    let link_cfg = LinkConfig {
        snr_db,
        ..LinkConfig::default()
    };
    let mut merged = LinkReport::empty();
    for group in server.mu_mimo_groups(max_age) {
        if group.len() < 2 {
            continue;
        }
        // Feedback can outlive the station's final reported channel only for
        // stations that reported at least once, so the CSI lookup is total.
        let feedback = server.group_feedback(&group)?;
        let per_user: Vec<Vec<mimo_math::CMatrix>> = group
            .iter()
            .map(|&id| traffic.final_csi[id as usize].clone())
            .collect();
        let snapshot = ChannelSnapshot::from_matrices(traffic.bandwidth, traffic.nss, per_user);
        let report =
            simulate_mu_mimo_ber(&snapshot, &feedback, &link_cfg, rng).map_err(ServeError::Link)?;
        merged.merge(&report);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::model;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn traffic_has_expected_shape() {
        let model = model(1);
        let cfg = SimConfig {
            stations: 3,
            rounds: 2,
            bits_per_value: 4,
            drop_every: 5,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let traffic = generate_traffic(&cfg, &model, &mut rng);
        assert_eq!(traffic.rounds.len(), 2);
        assert_eq!(traffic.rounds[0].frames.len(), 3);
        assert!(traffic.rounds.iter().all(|r| r.events.is_empty()));
        // Event 5 (round 1, station 1) dropped out of 6.
        assert_eq!(traffic.total_frames(), 5);
        assert_eq!(traffic.total_drops(), 1);
        assert!(traffic.rounds[1].frames[1].1.is_none());
        let expected_frame_len = wire::encoded_len(model.bottleneck_dim(), 4);
        for round in &traffic.rounds {
            for (_, frame) in round.frames.iter() {
                if let Some(frame) = frame {
                    assert_eq!(frame.len(), expected_frame_len);
                }
            }
        }
        assert_eq!(traffic.final_csi.len(), 3);
        assert_eq!(traffic.final_csi[0].len(), 56);
        assert_eq!(traffic.max_station_id, 3);
    }

    #[test]
    fn churn_schedules_joins_leaves_and_bursts() {
        let model = model(2);
        let cfg = SimConfig {
            stations: 4,
            rounds: 6,
            bits_per_value: 4,
            drop_every: 0,
            churn: ChurnConfig {
                join_every: 2,
                leave_every: 3,
                burst_every: 3,
            },
            ..SimConfig::default()
        };
        assert!(cfg.churn.is_active());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let traffic = generate_traffic(&cfg, &model, &mut rng);
        // Joins at rounds 2 and 4; leaves at rounds 3 and 6 (round 6 does not
        // exist, so only round 3).
        assert_eq!(traffic.total_joins(), 2);
        assert_eq!(traffic.total_leaves(), 1);
        assert_eq!(traffic.rounds[2].events, vec![ChurnEvent::Join(4)]);
        assert_eq!(traffic.rounds[3].events, vec![ChurnEvent::Leave(0)]);
        assert_eq!(traffic.rounds[4].events, vec![ChurnEvent::Join(5)]);
        // Bursty rounds (2 and 5) drop every other active station.
        assert!(traffic.total_drops() > 0);
        let burst_drops = traffic.rounds[2]
            .frames
            .iter()
            .filter(|(_, f)| f.is_none())
            .count();
        assert!(burst_drops >= 2, "burst round must drop several stations");
        // The joined station eventually transmits.
        assert!(traffic
            .rounds
            .iter()
            .any(|r| r.frames.iter().any(|(id, f)| *id == 4 && f.is_some())));
        assert_eq!(traffic.max_station_id, 6);
        assert_eq!(traffic.final_csi.len(), 6);
    }

    #[test]
    fn evicted_stations_reassociate_on_their_next_frame() {
        let model = model(9);
        let cfg = SimConfig {
            stations: 4,
            rounds: 6,
            bits_per_value: 4,
            drop_every: 3, // frequent drops so some station goes idle
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let traffic = generate_traffic(&cfg, &model, &mut rng);
        let mut server = build_sharded_server(model, cfg.stations, cfg.bits_per_value, 2);
        server.set_max_idle_rounds(Some(0)); // evict after any silent round
        let outcome = serve_traffic(&mut server, &traffic, ServeMode::Batched).unwrap();
        assert!(
            outcome.evictions > 0,
            "aggressive idle budget must evict somebody"
        );
        assert!(
            outcome.reassociations > 0,
            "aggressive eviction must force re-associations"
        );
        // Every station that transmitted in the final round is back in.
        for (id, frame) in traffic.rounds.last().unwrap().frames.iter() {
            if frame.is_some() {
                assert!(server.session(*id).is_some(), "station {id} reassociated");
            }
        }
    }

    #[test]
    fn link_check_runs_on_fresh_groups() {
        let model = model(5);
        let cfg = SimConfig {
            stations: 4,
            rounds: 2,
            bits_per_value: 8,
            drop_every: 0,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let traffic = generate_traffic(&cfg, &model, &mut rng);
        let mut server = build_sharded_server(model, cfg.stations, cfg.bits_per_value, 1);
        serve_traffic(&mut server, &traffic, ServeMode::Batched).unwrap();
        let report = link_check(&server, &traffic, 0, cfg.snr_db, &mut rng).unwrap();
        // Two groups of two stations, every station carries payload bits.
        assert_eq!(report.per_user_bits.len(), 2);
        assert!(report.per_user_bits.iter().all(|&b| b > 0));
        assert!(report.ber().is_finite());
    }
}
