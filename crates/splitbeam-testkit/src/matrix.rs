//! The serving-parity matrix: identical wire bytes, stamped identically, go
//! through every cell of
//!
//! `{shard counts} × {barrier, streaming @ 2.5 ms watermarks} ×
//!  {no deadline, Eq. 7d} × {f32 tail packed for ymm, for zmm; int8 tail} ×
//!  {scalar kernels, auto dispatch}`
//!
//! (plus, per shard count, the sharded flavour of the oracle's own serial
//! close) and every cell is compared, round by round, against the test oracle — a
//! one-shard lockstep server closed station-at-a-time with `close_serial`
//! (which reconstructs through the row-major kernels, never the packed
//! GEMM). The first divergent `(round, station, field)` is what a failure
//! prints. Under the int8 tail the oracle itself is held to the scalar int8
//! reconstruction of each served frame, so "int8 serving is one answer" is a
//! property of every cell. What the oracle served — every summary, every
//! feedback bit — is folded into one digest per kernel class and tail, so a
//! change to one tail's numerics re-pins that tail's values and leaves the
//! other's standing; the frames carry integer-derived codes so the values
//! are the same on every host.
//!
//! A [`Scenario`] and the oracle's close are all a test supplies: fixed
//! scenarios pin their digests, a proptest draws them. The oracle is passed in
//! (`ApServer::close_serial`) because it exists only under `splitbeam-serve`'s
//! `reference` feature, which the test package turns on and this crate — a
//! workspace member that `cargo build --release --workspace` builds — does not.

use crate::{first_divergence, int8_reference, kernel_choices, pin_payloads, with_kernel, Fnv1a};
use mimo_math::kernel::packed::PackedWidth;
use mimo_math::kernel::{selected, Kernel};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::model::SplitBeamModel;
use splitbeam::{QuantizedTail, TailWeights};
use splitbeam_serve::driver::{generate_traffic, ChurnEvent, SimConfig, SimTraffic};
use splitbeam_serve::{
    ApServer, DeadlinePolicy, FrameStamp, RoundSummary, ServeError, StationId, TILE_ROWS,
};

/// The oracle's round close: `ApServer::close_serial`.
pub type OracleClose =
    fn(&mut ApServer, Option<DeadlinePolicy>) -> Result<RoundSummary, ServeError>;

const ROUND_NS: u64 = 10_000_000;
const WATERMARK_NS: u64 = 2_500_000;

/// One workload for the matrix: a seeded model, seeded traffic of the given
/// shape (payloads pinned to integer formulas), and the shard counts to cut
/// it across.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub model_seed: u64,
    pub traffic_seed: u64,
    pub sim: SimConfig,
    pub shard_counts: Vec<usize>,
}

impl Scenario {
    /// The scenario's model and its pinned traffic.
    pub fn build(&self) -> (SplitBeamModel, SimTraffic) {
        let model = crate::small_model(self.model_seed);
        let mut rng = ChaCha8Rng::seed_from_u64(self.traffic_seed);
        let mut traffic = generate_traffic(&self.sim, &model, &mut rng);
        pin_payloads(&mut traffic, &model);
        (model, traffic)
    }
}

/// The stamp of station `id`'s round-`round` report: arrivals spread over
/// 1..=9 ms of the round (so watermarks really do micro-close mid-round);
/// most reports are fast, every fifth `(id + round)` has queued past the
/// 10 ms budget (late), every seventh past budget and grace (expired).
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

#[derive(Clone, Copy, Debug, PartialEq)]
enum Close {
    Barrier,
    /// Watermarks every 2.5 ms, then the same close call.
    Streaming,
    /// `close_serial`, the oracle's close, on a sharded server.
    Serial,
}

#[derive(Clone, Copy, Debug)]
struct Cell {
    shards: usize,
    close: Close,
    policy: Option<DeadlinePolicy>,
    weights: TailWeights,
    /// The vector width the f32 tail is packed for.
    packing: PackedWidth,
}

fn fresh_server(model: &SplitBeamModel, traffic: &SimTraffic, cell: Cell) -> ApServer {
    let mut server = ApServer::with_shards(cell.shards);
    server.set_tail_weights(cell.weights);
    server.set_streaming(cell.close == Close::Streaming);
    // Room for a whole round of a three-tile scenario on one shard's ring.
    server.set_stream_capacity(4 * TILE_ROWS);
    let key = server.register_model(model.clone().with_tail_packing(cell.packing));
    for id in 0..traffic.initial_stations as StationId {
        server
            .register_station(id, key, traffic.bits_per_value)
            .unwrap();
    }
    server
}

/// Whether the matrix damages this frame on the way: station 1's round-2
/// report, so every scenario that has one carries a CRC rejection.
fn is_damaged(round: usize, id: StationId) -> bool {
    round == 2 && id == 1
}

/// Applies round `index`'s churn and ingests its frames, identically for
/// every server.
fn ingest_round(server: &mut ApServer, traffic: &SimTraffic, index: usize) {
    let round = &traffic.rounds[index];
    for event in &round.events {
        match *event {
            ChurnEvent::Join(id) => server
                .register_station(id, 0, traffic.bits_per_value)
                .unwrap(),
            ChurnEvent::Leave(id) => server.deregister_station(id).unwrap(),
        }
    }
    for (id, frame) in &round.frames {
        let Some(frame) = frame else { continue };
        let stamp = stamp_of(index as u64, *id);
        if is_damaged(index, *id) {
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
/// the round's watermarks, then closes through the barrier's call.
fn close_round(
    server: &mut ApServer,
    index: usize,
    cell: Cell,
    oracle_close: OracleClose,
) -> RoundSummary {
    if cell.close == Close::Streaming {
        let start = index as u64 * ROUND_NS;
        for tick in 1..=ROUND_NS / WATERMARK_NS {
            server.advance_watermark(start + tick * WATERMARK_NS, WATERMARK_NS, cell.policy);
        }
    }
    match cell.close {
        Close::Serial => oracle_close(server, cell.policy),
        Close::Barrier | Close::Streaming => server.close(cell.policy),
    }
    .unwrap()
}

/// What a matrix run saw, so a scenario can assert it exercised what its
/// cells claim to compare.
#[derive(Debug, Default)]
pub struct MatrixStats {
    /// Cells compared, summed over the kernel classes.
    pub cells_run: usize,
    /// Most reports the oracle served in one round without a deadline.
    pub max_served: usize,
    /// Watermark-triggered closes over all streaming cells.
    pub micro_closes: usize,
    /// Reports the Eq. 7d oracles classified late / expired.
    pub late: usize,
    pub expired: usize,
    /// Per kernel class and tail: FNV-1a over every round summary and every
    /// served feedback bit of the oracle — which every cell was just shown
    /// to equal.
    pub digests: Vec<(Kernel, TailWeights, u64)>,
}

/// The pinned digests of one scenario. The int8 tail serves one answer on
/// every tier, scalar or vector, so it has one pin.
#[derive(Debug, Clone, Copy)]
pub struct Pins {
    pub f32_scalar: u64,
    pub f32_fma: u64,
    pub int8: u64,
}

impl MatrixStats {
    /// Holds each digest to its pinned value.
    pub fn assert_digests(&self, pins: Pins) {
        for &(kernel, weights, digest) in &self.digests {
            let pinned = match (weights, kernel) {
                (TailWeights::F32, Kernel::Scalar) => pins.f32_scalar,
                (TailWeights::F32, Kernel::Avx2Fma) => pins.f32_fma,
                (TailWeights::Int8, _) => pins.int8,
            };
            assert_eq!(
                digest, pinned,
                "served bits moved under {kernel:?}, {weights:?} tail"
            );
        }
    }
}

/// Runs `scenario` through every cell, under every kernel class this host
/// has, against a one-shard server closed with `oracle_close`. Panics at the
/// first divergence.
pub fn run_matrix(scenario: &Scenario, oracle_close: OracleClose) -> MatrixStats {
    let (model, traffic) = scenario.build();
    let int8_tail = QuantizedTail::bind(&model);
    let mut stats = MatrixStats::default();
    for choice in kernel_choices() {
        with_kernel(choice, || {
            run_cells(
                scenario,
                oracle_close,
                &model,
                &traffic,
                &int8_tail,
                &mut stats,
            );
        });
    }
    stats
}

fn run_cells(
    scenario: &Scenario,
    oracle_close: OracleClose,
    model: &SplitBeamModel,
    traffic: &SimTraffic,
    int8_tail: &QuantizedTail,
    stats: &mut MatrixStats,
) {
    let kernel = selected();
    for weights in [TailWeights::F32, TailWeights::Int8] {
        let mut digest = Fnv1a::default();
        // The int8 tail never touches the packed f32 weights.
        let packings: &[PackedWidth] = match weights {
            TailWeights::F32 => &[PackedWidth::Ymm, PackedWidth::Zmm],
            TailWeights::Int8 => &[PackedWidth::Zmm],
        };
        for policy in [None, Some(DeadlinePolicy::eq7d())] {
            // The oracle: one lockstep shard, closed station at a time.
            let oracle_cell = Cell {
                shards: 1,
                close: Close::Serial,
                policy,
                weights,
                packing: packings[0],
            };
            let mut oracle = fresh_server(model, traffic, oracle_cell);
            let mut cells: Vec<(Cell, ApServer)> = Vec::new();
            for &shards in &scenario.shard_counts {
                let mut push = |cell: Cell| cells.push((cell, fresh_server(model, traffic, cell)));
                push(Cell {
                    shards,
                    ..oracle_cell
                });
                for close in [Close::Barrier, Close::Streaming] {
                    for &packing in packings {
                        push(Cell {
                            shards,
                            close,
                            packing,
                            ..oracle_cell
                        });
                    }
                }
            }
            for index in 0..traffic.rounds.len() {
                ingest_round(&mut oracle, traffic, index);
                let want = oracle_close(&mut oracle, policy).unwrap();
                if policy.is_none() {
                    stats.max_served = stats.max_served.max(want.served);
                    assert_eq!((want.late, want.expired), (0, 0));
                }
                stats.late += want.late;
                stats.expired += want.expired;
                digest.eat_round(&oracle, &want, traffic.max_station_id);
                if weights == TailWeights::Int8 {
                    assert_int8_oracle_is_the_scalar_reference(&oracle, traffic, index, int8_tail);
                }
                for (cell, server) in &mut cells {
                    ingest_round(server, traffic, index);
                    let got = close_round(server, index, *cell, oracle_close);
                    let one_barrier_shard = cell.shards == 1 && cell.close != Close::Streaming;
                    if let Some((station, field)) = first_divergence(
                        (server, &got),
                        (&oracle, &want),
                        traffic.max_station_id,
                        one_barrier_shard,
                    ) {
                        panic!(
                            "{cell:?} under {kernel:?} diverges from close_serial at round \
                             {index}, station {station:?}, {field}\n{scenario:?}"
                        );
                    }
                    stats.micro_closes += server
                        .shard_round_stats()
                        .iter()
                        .map(|s| s.micro_closes)
                        .sum::<usize>();
                }
            }
            stats.cells_run += cells.len();
        }
        stats.digests.push((kernel, weights, digest.0));
    }
}

/// Every report the int8 oracle served in round `index` equals the scalar
/// int8 reconstruction of its frame, whichever SIMD tier the oracle ran.
fn assert_int8_oracle_is_the_scalar_reference(
    oracle: &ApServer,
    traffic: &SimTraffic,
    index: usize,
    int8_tail: &QuantizedTail,
) {
    for (id, frame) in &traffic.rounds[index].frames {
        let Some(frame) = frame else { continue };
        let served_now = oracle
            .session(*id)
            .is_some_and(|s| s.last_round() == Some(index as u64));
        if served_now && !is_damaged(index, *id) {
            assert_eq!(
                oracle.feedback_of(*id),
                Some(int8_reference(int8_tail, frame).as_slice()),
                "round {index}, station {id}: int8 serving under {:?} left the scalar int8 \
                 reference",
                selected()
            );
        }
    }
}
