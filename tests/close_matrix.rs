//! The serving-parity matrix: identical wire bytes, stamped identically, go
//! through every cell of
//!
//! `{1, 2, 4 shards} × {barrier, streaming @ 2.5 ms watermarks} ×
//!  {no deadline, Eq. 7d} × {f32 tail packed for ymm, for zmm; int8 tail}`
//!
//! and every cell is compared, round by round, against the test oracle — a
//! one-shard lockstep server closed station-at-a-time with `close_serial`
//! (which reconstructs through the row-major kernels, never the packed
//! GEMM). The first divergent `(round, station, field)` is what a failure
//! prints. What the oracle served — every summary, every feedback bit — is
//! folded into one digest per scenario and held to the value the parent of
//! the packed-tail commit produced, per kernel backend; the frames carry
//! integer-derived codes so that value is the same on every host.
//!
//! The churn scenario has everything the per-PR parity tests it replaces
//! had: dropped reports, a bursty round, stations joining and leaving
//! mid-run, a CRC-rejected frame — plus stamps that put some reports past
//! the budget (late) and past the grace window (expired), and arrivals spread
//! over the round so the watermarks really do micro-close mid-round. The wide
//! scenario has more stations than two serve tiles hold, so a close runs
//! full, ragged, one-station and empty last tiles; the failure cell breaks a
//! payload of the last tile.
//!
//! `batches` is the one summary field that legitimately depends on the cell
//! (more shards and micro-closes mean more, smaller batches); it is compared
//! only where it must match, on the one-shard barrier cells.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_repro::mimo_math::kernel::packed::PackedWidth;
use splitbeam_repro::mimo_math::kernel::{selected, Kernel};
use splitbeam_repro::prelude::*;
use splitbeam_repro::serve::driver::{ChurnEvent, SimTraffic};
use splitbeam_repro::serve::{RoundSummary, ServeError, StationId, StationSession, TILE_ROWS};
use splitbeam_repro::splitbeam::fused::TailWeights;
use splitbeam_repro::splitbeam::quantization::QuantizedFeedback;
use splitbeam_repro::splitbeam::wire;

const BITS: u8 = 5;
const ROUND_NS: u64 = 10_000_000;
const WATERMARK_NS: u64 = 2_500_000;

fn small_model(seed: u64) -> SplitBeamModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    SplitBeamModel::new(
        SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneEighth,
        ),
        &mut rng,
    )
}

/// The stamp of station `id`'s round-`round` report: arrivals spread over
/// 1..=9 ms of the round; most reports are fast, every fifth `(id + round)`
/// has queued past the 10 ms budget, every seventh past budget and grace.
fn stamp_of(round: u64, id: StationId) -> FrameStamp {
    let queue_ns = match id + round {
        n if n % 7 == 0 => 25_000_000,
        n if n % 5 == 0 => 10_500_000,
        _ => 300_000,
    };
    FrameStamp {
        arrival_ns: round * ROUND_NS + ((id * 7 + round * 3) % 9 + 1) * 1_000_000,
        head_ns: 200_000,
        queue_ns,
        air_ns: 100_000,
        tail_ns: 100_000,
    }
}

/// Replaces every frame's payload with codes derived from `(round, station)`
/// by integer arithmetic alone: which frames exist (drops, bursts, churn) is
/// the generator's, what they carry no longer depends on the channel model
/// or the head's kernel, so the pinned digests hold on any host.
fn pin_payloads(traffic: &mut SimTraffic, model: &SplitBeamModel) {
    for (round, sim_round) in traffic.rounds.iter_mut().enumerate() {
        for (id, frame) in &mut sim_round.frames {
            let Some(frame) = frame else { continue };
            let salt = *id * 131 + round as u64 * 17;
            let payload = QuantizedFeedback {
                bits_per_value: BITS,
                min: -0.75 - (salt % 16) as f32 / 64.0,
                max: 0.5 + (salt % 8) as f32 / 32.0,
                codes: (0..model.bottleneck_dim() as u64)
                    .map(|j| ((salt + j * 29 + 7) % (1 << BITS)) as u16)
                    .collect(),
            };
            *frame = wire::encode_feedback(&payload).unwrap();
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Cell {
    shards: usize,
    streaming: bool,
    policy: Option<DeadlinePolicy>,
    weights: TailWeights,
    /// The vector width the f32 tail is packed for.
    packing: PackedWidth,
}

fn fresh_server(model: &SplitBeamModel, traffic: &SimTraffic, cell: Cell) -> ApServer {
    let mut server = ApServer::with_shards(cell.shards);
    server.set_tail_weights(cell.weights);
    server.set_streaming(cell.streaming);
    // Room for a whole round of the wide scenario on one shard's ring.
    server.set_stream_capacity(4 * TILE_ROWS);
    let key = server.register_model(model.clone().with_tail_packing(cell.packing));
    for id in 0..traffic.initial_stations as StationId {
        server.register_station(id, key, BITS).unwrap();
    }
    server
}

/// Applies round `index`'s churn and ingests its frames, identically for
/// every server; station 1's round-2 frame is damaged on the way.
fn ingest_round(server: &mut ApServer, traffic: &SimTraffic, index: usize) {
    let round = &traffic.rounds[index];
    for event in &round.events {
        match *event {
            ChurnEvent::Join(id) => server.register_station(id, 0, BITS).unwrap(),
            ChurnEvent::Leave(id) => server.deregister_station(id).unwrap(),
        }
    }
    for (id, frame) in &round.frames {
        let Some(frame) = frame else { continue };
        let stamp = stamp_of(index as u64, *id);
        if index == 2 && *id == 1 {
            let mut damaged = frame.clone();
            let last = damaged.len() - 1;
            damaged[last] ^= 0x40;
            assert!(matches!(
                server.ingest_wire_at(*id, &damaged, stamp),
                Err(ServeError::Corrupt(1, _))
            ));
            continue;
        }
        server.ingest_wire_at(*id, frame, stamp).unwrap();
    }
}

/// Closes round `index` the way the cell says: a streaming cell first fires
/// the round's watermarks, then both kinds close through the same call.
fn close_round(server: &mut ApServer, index: usize, cell: Cell) -> RoundSummary {
    if cell.streaming {
        let start = index as u64 * ROUND_NS;
        for tick in 1..=ROUND_NS / WATERMARK_NS {
            server.advance_watermark(start + tick * WATERMARK_NS, WATERMARK_NS, cell.policy);
        }
    }
    server.close(cell.policy).unwrap()
}

/// The first field on which `got` diverges from `want` after a round, as
/// `(station, field)`; station `None` is the round summary.
fn first_divergence(
    got: (&ApServer, &RoundSummary),
    want: (&ApServer, &RoundSummary),
    max_station: StationId,
    compare_batches: bool,
) -> Option<(Option<StationId>, String)> {
    macro_rules! summary_field {
        ($($field:ident),*) => {$(
            if got.1.$field != want.1.$field {
                return Some((None, format!(
                    "summary.{}: got {:?}, want {:?}",
                    stringify!($field), got.1.$field, want.1.$field
                )));
            }
        )*};
    }
    summary_field!(
        round,
        served,
        stale,
        awaiting_first_report,
        on_time,
        late,
        expired,
        delay,
        lost,
        corrupt,
        retransmitted,
        stale_served
    );
    if compare_batches {
        summary_field!(batches);
    }
    session_divergence(got.0, want.0, max_station).map(|(id, field)| (Some(id), field))
}

/// The first `(station, field)` on which the two servers' sessions differ.
fn session_divergence(
    got: &ApServer,
    want: &ApServer,
    max_station: StationId,
) -> Option<(StationId, String)> {
    for id in 0..max_station {
        let (g, w) = match (got.session(id), want.session(id)) {
            (None, None) => continue,
            (Some(g), Some(w)) => (g, w),
            (g, w) => {
                return Some((
                    id,
                    format!("registered: got {}, want {}", g.is_some(), w.is_some()),
                ))
            }
        };
        macro_rules! session_field {
            ($($getter:ident),*) => {$(
                if g.$getter() != w.$getter() {
                    return Some((id, format!(
                        "{}: got {:?}, want {:?}",
                        stringify!($getter), g.$getter(), w.$getter()
                    )));
                }
            )*};
        }
        session_field!(
            last_round,
            served_late,
            last_stamp,
            health,
            has_pending,
            payloads_ingested
        );
        // Bit patterns, not float equality: parity means the same bits.
        let bits = |s: &StationSession| {
            s.feedback()
                .map(|f| f.iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
        };
        let (gb, wb) = (bits(g), bits(w));
        if gb != wb {
            let at = match (&gb, &wb) {
                (Some(a), Some(b)) => a.iter().zip(b).position(|(x, y)| x != y),
                _ => None,
            };
            return Some((id, format!("feedback (first differing value: {at:?})")));
        }
    }
    None
}

/// What a matrix run saw, so each scenario can assert it exercised what its
/// cells claim to compare.
struct MatrixStats {
    cells_run: usize,
    /// Most reports the oracle served in one round without a deadline.
    max_served: usize,
    /// FNV-1a over every round summary and every served feedback bit of the
    /// oracle — which every cell was just shown to equal.
    digest: u64,
}

impl MatrixStats {
    fn digest_round(&mut self, oracle: &ApServer, summary: &RoundSummary, max_station: StationId) {
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(format!("{summary:?}").as_bytes());
        for id in 0..max_station {
            for v in oracle.feedback_of(id).unwrap_or_default() {
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }

    /// Holds the digest to the value pinned for the backend this process
    /// serves with (`SPLITBEAM_KERNEL` may force scalar).
    fn assert_digest(&self, pinned_scalar: u64, pinned_fma: u64) {
        let pinned = match selected() {
            Kernel::Scalar => pinned_scalar,
            Kernel::Avx2Fma => pinned_fma,
        };
        assert_eq!(
            self.digest,
            pinned,
            "served bits moved under {:?}",
            selected()
        );
    }
}

/// Runs `traffic` through every cell of `shard_counts` × {barrier,
/// streaming} × {None, eq7d} × {f32 packed ymm, f32 packed zmm, int8}
/// against the serial oracle.
fn run_matrix(model: &SplitBeamModel, traffic: &SimTraffic, shard_counts: &[usize]) -> MatrixStats {
    let mut stats = MatrixStats {
        cells_run: 0,
        max_served: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    for weights in [TailWeights::F32, TailWeights::Int8] {
        // The int8 tail never touches the packed f32 weights.
        let packings: &[PackedWidth] = match weights {
            TailWeights::F32 => &[PackedWidth::Ymm, PackedWidth::Zmm],
            TailWeights::Int8 => &[PackedWidth::Zmm],
        };
        for policy in [None, Some(DeadlinePolicy::eq7d())] {
            // The oracle: one lockstep shard, closed station at a time.
            let oracle_cell = Cell {
                shards: 1,
                streaming: false,
                policy,
                weights,
                packing: packings[0],
            };
            let mut oracle = fresh_server(model, traffic, oracle_cell);
            let mut cells: Vec<(Cell, ApServer)> = Vec::new();
            for &shards in shard_counts {
                for streaming in [false, true] {
                    for &packing in packings {
                        let cell = Cell {
                            shards,
                            streaming,
                            packing,
                            ..oracle_cell
                        };
                        cells.push((cell, fresh_server(model, traffic, cell)));
                    }
                }
            }
            let mut micro_closes = 0;
            let (mut late, mut expired) = (0, 0);
            for index in 0..traffic.rounds.len() {
                ingest_round(&mut oracle, traffic, index);
                let want = oracle.close_serial(policy).unwrap();
                late += want.late;
                expired += want.expired;
                if policy.is_none() {
                    stats.max_served = stats.max_served.max(want.served);
                }
                stats.digest_round(&oracle, &want, traffic.max_station_id);
                for (cell, server) in &mut cells {
                    ingest_round(server, traffic, index);
                    let got = close_round(server, index, *cell);
                    let one_barrier_shard = cell.shards == 1 && !cell.streaming;
                    if let Some((station, field)) = first_divergence(
                        (server, &got),
                        (&oracle, &want),
                        traffic.max_station_id,
                        one_barrier_shard,
                    ) {
                        panic!(
                            "{cell:?} diverges from close_serial at round {index}, \
                             station {station:?}, {field}"
                        );
                    }
                    micro_closes += server
                        .shard_round_stats()
                        .iter()
                        .map(|s| s.micro_closes)
                        .sum::<usize>();
                }
            }
            stats.cells_run += cells.len();
            // The scenario must exercise what the cells claim to compare.
            assert!(micro_closes > 0, "watermarks never micro-closed");
            match policy {
                Some(_) => assert!(late > 0 && expired > 0, "no late/expired reports"),
                None => assert_eq!((late, expired), (0, 0)),
            }
        }
    }
    stats
}

#[test]
fn every_cell_matches_the_serial_close_round_by_round() {
    let model = small_model(41);
    let sim = SimConfig {
        stations: 10,
        rounds: 6,
        bits_per_value: BITS,
        drop_every: 6,
        churn: ChurnConfig {
            join_every: 2,
            leave_every: 3,
            burst_every: 4,
        },
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut traffic = generate_traffic(&sim, &model, &mut rng);
    pin_payloads(&mut traffic, &model);
    assert!(traffic.total_joins() > 0 && traffic.total_leaves() > 0);
    assert!(traffic.total_drops() > 0);
    let stats = run_matrix(&model, &traffic, &[1, 2, 4]);
    assert_eq!(stats.cells_run, 36);
    stats.assert_digest(13_502_285_184_484_860_663, 10_406_555_228_409_769_731);
}

/// More stations than two tiles hold. One report in a hundred is dropped, so
/// a one-shard barrier close without a deadline serves `2 * TILE_ROWS` or
/// `2 * TILE_ROWS + 1` stations (two full tiles, then an empty or a
/// one-station third); deadlines, micro-closes and the second shard make the
/// last tile ragged everywhere else.
#[test]
fn wide_rounds_match_the_serial_close_across_tile_boundaries() {
    let model = small_model(43);
    let sim = SimConfig {
        stations: 2 * TILE_ROWS + 3,
        rounds: 3,
        bits_per_value: BITS,
        drop_every: 100,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(44);
    let mut traffic = generate_traffic(&sim, &model, &mut rng);
    pin_payloads(&mut traffic, &model);
    assert!(traffic.total_drops() > 0);
    let stats = run_matrix(&model, &traffic, &[1, 2]);
    assert_eq!(stats.cells_run, 24);
    stats.assert_digest(2_618_362_079_264_026_890, 10_261_680_760_930_113_952);
    assert!(
        stats.max_served > 2 * TILE_ROWS,
        "no close needed a third tile (most served: {})",
        stats.max_served
    );
}

/// A payload that breaks after ingest validated it, on the station with the
/// highest id of the wide model — the last tile of its batch. The batch is
/// validated whole before its first tile, so none of the model's stations is
/// served (not even the two full tiles ahead of the broken one), none stays
/// pending, the other model is served, and error and sessions equal the
/// oracle's.
#[test]
fn a_broken_payload_in_the_last_tile_fails_the_whole_batch_like_the_oracle() {
    let wide = small_model(45);
    let mut rng = ChaCha8Rng::seed_from_u64(46);
    let other = SplitBeamModel::new(
        SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneQuarter,
        ),
        &mut rng,
    );
    let wide_stations = (2 * TILE_ROWS + 3) as StationId;
    let stations = wide_stations + 2;
    let sim = |stations| SimConfig {
        stations,
        rounds: 1,
        bits_per_value: BITS,
        drop_every: 0,
        ..SimConfig::default()
    };
    let wide_traffic = generate_traffic(&sim(wide_stations as usize), &wide, &mut rng);
    let other_traffic = generate_traffic(&sim(2), &other, &mut rng);
    let frames = wide_traffic.rounds[0]
        .frames
        .iter()
        .chain(&other_traffic.rounds[0].frames)
        .map(|(_, frame)| frame.as_ref().unwrap());

    for weights in [TailWeights::F32, TailWeights::Int8] {
        let mut servers = [ApServer::new(), ApServer::new()];
        for server in &mut servers {
            server.set_tail_weights(weights);
            let wide_key = server.register_model(wide.clone());
            let other_key = server.register_model(other.clone());
            for (id, frame) in frames.clone().enumerate() {
                let id = id as StationId;
                let key = if id < wide_stations {
                    wide_key
                } else {
                    other_key
                };
                server.register_station(id, key, BITS).unwrap();
                server.ingest_wire(id, frame).unwrap();
            }
            server.truncate_pending_payload(wide_stations - 1);
        }
        let [tiled, oracle] = &mut servers;
        let got = tiled.close(None).unwrap_err();
        let want = oracle.close_serial(None).unwrap_err();
        assert!(matches!(got, ServeError::Model(_)), "{weights:?}: {got}");
        assert_eq!(got, want, "{weights:?}");
        if let Some((station, field)) = session_divergence(tiled, oracle, stations) {
            panic!("{weights:?}: station {station} diverges from close_serial, {field}");
        }
        assert_eq!(tiled.pending_count(), 0, "{weights:?}");
        for id in 0..stations {
            assert_eq!(
                tiled.feedback_of(id).is_some(),
                id >= wide_stations,
                "{weights:?}: station {id}"
            );
        }
    }
}
