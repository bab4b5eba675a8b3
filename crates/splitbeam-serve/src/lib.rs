//! AP-side SplitBeam feedback **serving layer**.
//!
//! The paper's airtime and compute wins (Section IV) only materialize at the
//! access point, which aggregates head outputs from *many* stations across
//! sounding rounds and runs the tail reconstruction for all of them. This
//! crate turns the batched kernels of `splitbeam`/`neural` into that service:
//!
//! * [`session`] — per-station state: model binding, quantizer width, the last
//!   reconstructed `V̂` and its age in sounding rounds, health and pending
//!   payload; [`slab`] — the store that holds the sessions,
//! * [`server`] — the one server type, [`ApServer`]: station sessions
//!   partitioned over `N` shards (`id % N`; `ApServer::new()` is one shard,
//!   `ApServer::with_shards(n)` is `n`), wire ingest ([`splitbeam::wire`]),
//!   session lifecycle (capacity cap, idle eviction, clean re-registration,
//!   warm handoff) and MU-MIMO grouping of fresh stations for the
//!   zero-forcing precoder. Each shard owns a session slab, a round arena and
//!   a streaming lane ([`ring`]) and carries the **single round close**:
//!   flush the lane → one fused batched tail inference per model over what
//!   is pending → once-per-round health pass, every step counting into one
//!   [`RoundSummary`] (merged shard into AP into fleet by its one `merge`).
//!   `ApServer::close(policy)` runs it on every shard in
//!   parallel; "no deadline" is `None`, and a barrier round is a close on an
//!   empty lane. Streaming (ring ingest, watermark micro-closes, per-shard
//!   stall accounting) is a server state, `ApServer::set_streaming`,
//! * [`timing`] — virtual-time frame stamps ([`FrameStamp`]) and the Eq. 7d
//!   [`DeadlinePolicy`] the close enforces: every report is classified
//!   on-time / late-but-usable / past-budget **at round close**, from its
//!   ingest timestamp,
//! * [`driver`] — a simulated multi-station sounding-round driver:
//!   station-side compress → quantize → wire-encode traffic generation
//!   (including session churn: joins, departures, bursty drops) and
//!   [`driver::RoundServing`], the six-method seam through which
//!   `serve_traffic` replays that traffic into an [`ApServer`] or an
//!   [`EventDriver`],
//! * [`event`] — the [`EventDriver`]: discrete-event virtual-clock serving
//!   that calls an [`ApServer`]'s own methods — per-station sounding
//!   cadences, head/tail compute latencies from the accelerator model,
//!   seeded jitter, shared-medium contention, fault injection with
//!   retransmission, and deadline watermarks for streaming closes — with
//!   lockstep serving recoverable bit-exactly as the zero-delay degenerate
//!   case,
//! * [`fleet`] — the [`Fleet`]: `N` one-shard servers on one virtual clock,
//!   each round's offers sorted once into air order, with per-channel media
//!   (overlapping-BSS contention) and warm station roaming.
//!
//! The `reference` feature (on under `cfg(test)`) exposes the test oracle:
//! `ApServer::close_serial` / `driver::ServeMode::Serial`, which reconstruct
//! one station at a time through the unfused path. Every shard count and
//! watermark cadence is bit-exact with it (the root `close_matrix` test).
//! It also holds the helpers the root tests read a run's books with: the
//! traffic totals, `EventDriver::{fault_stats, watermarks_fired}`,
//! `Fleet::num_aps`, the stalled-shard knob `ApServer::set_shard_stall_ns`,
//! `StationSession::miss_streak`, the builder `driver::build_sharded_server`
//! and `driver::link_check`, the end-to-end `simulate_mu_mimo_ber` check over
//! the served feedback.
//!
//! # Example: serve two stations for one round
//!
//! ```
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use splitbeam::config::{CompressionLevel, SplitBeamConfig};
//! use splitbeam::model::SplitBeamModel;
//! use splitbeam_serve::server::ApServer;
//! use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
//! use wifi_phy::ofdm::{Bandwidth, MimoConfig};
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let config = SplitBeamConfig::new(
//!     MimoConfig::symmetric(2, Bandwidth::Mhz20),
//!     CompressionLevel::OneEighth,
//! );
//! let model = SplitBeamModel::new(config, &mut rng);
//! let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
//!
//! let mut server = ApServer::new();
//! let key = server.register_model(model.clone());
//! for id in 0..2u64 {
//!     server.register_station(id, key, 4).unwrap();
//!     let csi: Vec<f32> = channel
//!         .sample(&mut rng)
//!         .csi_real_vector(0)
//!         .into_iter()
//!         .map(|v| v as f32)
//!         .collect();
//!     let payload = model.compress_quantized(&csi, 4).unwrap();
//!     let frame = splitbeam::wire::encode_feedback(&payload).unwrap();
//!     server.ingest_wire(id, &frame).unwrap();
//! }
//! let summary = server.process_round().unwrap();
//! assert_eq!(summary.served, 2);
//! // Flat real-interleaved V̂ per station; matrices materialize per group.
//! assert_eq!(server.feedback_of(0).unwrap().len(), 224);
//! assert_eq!(server.feedback_matrices_of(0).unwrap().len(), 56);
//! ```

#![forbid(unsafe_code)]

pub mod driver;
pub mod event;
pub mod fleet;
pub mod ring;
pub mod server;
pub mod session;
mod shard;
pub mod slab;
pub mod timing;

/// The unit tests count allocations: a steady-state round is held to none
/// on the calling thread (`assert_thread_no_alloc`, which other tests
/// running beside it cannot trip).
#[cfg(test)]
#[global_allocator]
static ALLOC: splitbeam_analysis::alloc_sentinel::CountingAlloc =
    splitbeam_analysis::alloc_sentinel::CountingAlloc;

/// Builders shared by this crate's unit tests. Private on purpose: the test
/// kit (`splitbeam-testkit`) depends on this crate, so a `mod tests` in here
/// cannot use the kit's.
#[cfg(test)]
pub(crate) mod test_support {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use splitbeam::config::{CompressionLevel, SplitBeamConfig};
    use splitbeam::model::SplitBeamModel;
    use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};

    pub(crate) fn model(seed: u64) -> SplitBeamModel {
        model_at(seed, CompressionLevel::OneEighth)
    }

    /// A 2x2 / 20 MHz model at compression `level`.
    pub(crate) fn model_at(seed: u64, level: CompressionLevel) -> SplitBeamModel {
        let mimo = MimoConfig::symmetric(2, Bandwidth::Mhz20);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        SplitBeamModel::new(SplitBeamConfig::new(mimo, level), &mut rng)
    }

    pub(crate) fn station_frame(model: &SplitBeamModel, seed: u64, bits: u8) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
        let csi: Vec<f32> = channel
            .sample(&mut rng)
            .csi_real_vector(0)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let payload = model.compress_quantized(&csi, bits).unwrap();
        splitbeam::wire::encode_feedback(&payload).unwrap()
    }
}

pub use event::{build_event_driver, EventConfig, EventDriver};
pub use fleet::{Fleet, FleetConfig, FleetRoundSummary, FleetStats};
pub use ring::Ring;
pub use server::{ApServer, HealthPolicy, RoundSummary, ShardRoundStats, ShardedApServer};
pub use session::{SessionHealth, StationId, StationSession};
pub use shard::TILE_ROWS;
pub use slab::SessionSlab;
pub use timing::{DeadlinePolicy, FrameClass, FrameStamp, RoundDelayStats};

use splitbeam::{Refusal, SplitBeamError};

/// Errors produced by the serving layer: a value, the refusal it wraps too,
/// that is formatted only when printed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The station id is not registered.
    UnknownStation(StationId),
    /// The model key does not name a registered model.
    UnknownModel(usize),
    /// The station id is already registered.
    DuplicateStation(StationId),
    /// Registration rejected: the server is at its station capacity
    /// (station id, configured capacity).
    CapacityExceeded(StationId, usize),
    /// A wire frame failed to decode or does not fit the station's session,
    /// or a registration announced a width the wire format does not have.
    Codec(SplitBeamError),
    /// A wire frame from this station failed its CRC-32 integrity check
    /// ([`Refusal::Crc`]): the bytes were damaged on the air. The frame is
    /// dropped and counted against the station's health, never decoded into
    /// plausible garbage.
    Corrupt(StationId, Refusal),
    /// A sequenced frame re-delivered a sequence number already pending for
    /// this round (station id, sequence number); the duplicate is suppressed.
    DuplicateFrame(StationId, u16),
    /// The station is quarantined after repeated corrupt frames; its traffic
    /// is rejected until the quarantine expires.
    Quarantined(StationId),
    /// Streaming ingest rejected a frame because the shard's bounded ring is
    /// full (station id, ring capacity). The frame is dropped at the ingest
    /// edge instead of silently overwriting queued feedback.
    Backpressure(StationId, usize),
    /// Tail reconstruction failed.
    Model(SplitBeamError),
    /// A station has no reconstructed feedback yet.
    NoFeedback(StationId),
    /// The MU-MIMO link check failed.
    Link(wifi_phy::PhyError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownStation(id) => write!(f, "unknown station {id}"),
            ServeError::UnknownModel(key) => write!(f, "unknown model key {key}"),
            ServeError::DuplicateStation(id) => write!(f, "station {id} already registered"),
            ServeError::CapacityExceeded(id, cap) => {
                write!(f, "station {id} rejected: server is at capacity {cap}")
            }
            ServeError::Codec(e) => write!(f, "wire codec error: {e}"),
            ServeError::Corrupt(id, why) => {
                write!(f, "corrupt frame from station {id}: {why}")
            }
            ServeError::DuplicateFrame(id, seq) => {
                write!(f, "duplicate frame seq {seq} from station {id}")
            }
            ServeError::Quarantined(id) => write!(f, "station {id} is quarantined"),
            ServeError::Backpressure(id, cap) => {
                write!(f, "station {id} stream ring is full (capacity {cap})")
            }
            ServeError::Model(e) => write!(f, "tail reconstruction error: {e}"),
            ServeError::NoFeedback(id) => write!(f, "station {id} has no feedback yet"),
            ServeError::Link(e) => write!(f, "link check error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}
