//! The serving-parity matrix: identical wire bytes, stamped identically, go
//! through every cell of
//!
//! `{1, 2, 4 shards} × {barrier, streaming @ 2.5 ms watermarks} ×
//!  {no deadline, Eq. 7d} × {f32, int8 tail}`
//!
//! and every cell is compared, round by round, against the test oracle — a
//! one-shard lockstep server closed station-at-a-time with `close_serial`.
//! The first divergent `(round, station, field)` is what a failure prints.
//!
//! The scenario has everything the per-PR parity tests it replaces had:
//! dropped reports, a bursty round, stations joining and leaving mid-run, a
//! CRC-rejected frame — plus stamps that put some reports past the budget
//! (late) and past the grace window (expired), and arrivals spread over the
//! round so the watermarks really do micro-close mid-round.
//!
//! `batches` is the one summary field that legitimately depends on the cell
//! (more shards and micro-closes mean more, smaller batches); it is compared
//! only where it must match, on the one-shard barrier cells.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_repro::prelude::*;
use splitbeam_repro::serve::driver::{ChurnEvent, SimTraffic};
use splitbeam_repro::serve::{RoundSummary, ServeError, StationId, StationSession};
use splitbeam_repro::splitbeam::fused::TailWeights;

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

#[derive(Clone, Copy, Debug)]
struct Cell {
    shards: usize,
    streaming: bool,
    policy: Option<DeadlinePolicy>,
    weights: TailWeights,
}

fn fresh_server(model: &SplitBeamModel, traffic: &SimTraffic, cell: Cell) -> ApServer {
    let mut server = ApServer::with_shards(cell.shards);
    server.set_tail_weights(cell.weights);
    server.set_streaming(cell.streaming);
    let key = server.register_model(model.clone());
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
    for id in 0..max_station {
        let (g, w) = match (got.0.session(id), want.0.session(id)) {
            (None, None) => continue,
            (Some(g), Some(w)) => (g, w),
            (g, w) => {
                return Some((
                    Some(id),
                    format!("registered: got {}, want {}", g.is_some(), w.is_some()),
                ))
            }
        };
        macro_rules! session_field {
            ($($getter:ident),*) => {$(
                if g.$getter() != w.$getter() {
                    return Some((Some(id), format!(
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
            return Some((
                Some(id),
                format!("feedback (first differing value: {at:?})"),
            ));
        }
    }
    None
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
    let traffic = generate_traffic(&sim, &model, &mut rng);
    assert!(traffic.total_joins() > 0 && traffic.total_leaves() > 0);
    assert!(traffic.total_drops() > 0);

    let mut cells_run = 0;
    for weights in [TailWeights::F32, TailWeights::Int8] {
        for policy in [None, Some(DeadlinePolicy::eq7d())] {
            // The oracle: one lockstep shard, closed station at a time.
            let oracle_cell = Cell {
                shards: 1,
                streaming: false,
                policy,
                weights,
            };
            let mut oracle = fresh_server(&model, &traffic, oracle_cell);
            let mut cells: Vec<(Cell, ApServer)> = Vec::new();
            for shards in [1usize, 2, 4] {
                for streaming in [false, true] {
                    let cell = Cell {
                        shards,
                        streaming,
                        ..oracle_cell
                    };
                    cells.push((cell, fresh_server(&model, &traffic, cell)));
                }
            }
            let mut micro_closes = 0;
            let (mut late, mut expired) = (0, 0);
            for index in 0..traffic.rounds.len() {
                ingest_round(&mut oracle, &traffic, index);
                let want = oracle.close_serial(policy).unwrap();
                late += want.late;
                expired += want.expired;
                for (cell, server) in &mut cells {
                    ingest_round(server, &traffic, index);
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
            cells_run += cells.len();
            // The scenario must exercise what the cells claim to compare.
            assert!(micro_closes > 0, "watermarks never micro-closed");
            match policy {
                Some(_) => assert!(late > 0 && expired > 0, "no late/expired reports"),
                None => assert_eq!((late, expired), (0, 0)),
            }
        }
    }
    assert_eq!(cells_run, 24);
}
