//! The serving-parity matrix (`splitbeam_testkit::matrix`) over fixed
//! scenarios with pinned digests and over random ones: every cell of
//! `{shards} × {barrier, streaming} × {no deadline, Eq. 7d} × {f32 ymm, f32
//! zmm, int8} × {scalar, auto}` (and the sharded serial close) equals the
//! one-shard `close_serial` oracle round by round, and the int8 oracle equals
//! the scalar int8 reference.
//!
//! The pins are one per kernel class for the f32 tail and one for the int8
//! tail, which serves the same bits on every tier; a change to one tail's
//! numerics re-pins that tail alone. (The int8 pins date from the change
//! that made wire codes of up to 7 bits — these scenarios send 5 — the u7
//! activations themselves; the f32 pins were computed on the commit before
//! it and held.)
//!
//! The churn scenario has dropped reports, a bursty round, stations joining
//! and leaving mid-run, a CRC-rejected frame, late and expired stamps and
//! mid-round micro-closes. The wide scenario has more stations than two serve
//! tiles hold, so a close runs full, ragged, one-station and empty last
//! tiles; the failure cell breaks a payload of the last tile.

use proptest::prelude::*;
use splitbeam_repro::prelude::*;
use splitbeam_repro::serve::{ServeError, StationId, TILE_ROWS};
use splitbeam_repro::splitbeam::fused::TailWeights;
use splitbeam_testkit::matrix::{run_matrix, Pins, Scenario};
use splitbeam_testkit::{
    kernel_choices, model_with, session_divergence, small_model, synthetic_frame,
    with_ambient_kernel,
};

const BITS: u8 = 5;

#[test]
fn every_cell_matches_the_serial_close_round_by_round() {
    let scenario = Scenario {
        model_seed: 41,
        traffic_seed: 42,
        sim: SimConfig {
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
        },
        shard_counts: vec![1, 2, 4, 7],
    };
    let (_, traffic) = scenario.build();
    assert!(traffic.total_joins() > 0 && traffic.total_leaves() > 0);
    assert!(traffic.total_drops() > 0);
    let stats = run_matrix(&scenario, ApServer::close_serial);
    assert_eq!(stats.cells_run, 64 * kernel_choices().len());
    assert!(stats.micro_closes > 0, "watermarks never micro-closed");
    assert!(
        stats.late > 0 && stats.expired > 0,
        "no late/expired reports"
    );
    stats.assert_digests(Pins {
        f32_scalar: 591_466_671_016_430_366,
        f32_fma: 746_305_262_081_403_586,
        int8: 2_102_310_507_412_595_916,
    });
}

/// More stations than two tiles hold. One report in a hundred is dropped, so
/// a one-shard barrier close without a deadline serves `2 * TILE_ROWS` or
/// `2 * TILE_ROWS + 1` stations (two full tiles, then an empty or a
/// one-station third); deadlines, micro-closes and the second shard make the
/// last tile ragged everywhere else.
#[test]
fn wide_rounds_match_the_serial_close_across_tile_boundaries() {
    let scenario = Scenario {
        model_seed: 43,
        traffic_seed: 44,
        sim: SimConfig {
            stations: 2 * TILE_ROWS + 3,
            rounds: 3,
            bits_per_value: BITS,
            drop_every: 100,
            ..SimConfig::default()
        },
        shard_counts: vec![1, 2],
    };
    assert!(scenario.build().1.total_drops() > 0);
    let stats = run_matrix(&scenario, ApServer::close_serial);
    assert_eq!(stats.cells_run, 32 * kernel_choices().len());
    assert!(stats.micro_closes > 0 && stats.late > 0 && stats.expired > 0);
    stats.assert_digests(Pins {
        f32_scalar: 17_108_439_718_498_248_363,
        f32_fma: 11_229_481_979_927_286_689,
        int8: 6_927_862_504_399_003_566,
    });
    assert!(
        stats.max_served > 2 * TILE_ROWS,
        "no close needed a third tile (most served: {})",
        stats.max_served
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any seed, quantizer width, drop rate and churn pattern: the same
    /// matrix, the same oracle. (Which cells see late, expired or damaged
    /// frames is the draw's; the fixed scenarios above guarantee each.)
    #[test]
    fn prop_random_scenarios_match_the_serial_close(
        seed in 0u64..1000,
        bits in 2u8..=12,
        drop_every in 0usize..6,
        join_every in 0usize..4,
        leave_every in 0usize..4,
        burst_every in 0usize..4,
    ) {
        let scenario = Scenario {
            model_seed: seed.wrapping_add(101),
            traffic_seed: seed,
            sim: SimConfig {
                stations: 5,
                rounds: 3,
                bits_per_value: bits,
                drop_every,
                churn: ChurnConfig { join_every, leave_every, burst_every },
                ..SimConfig::default()
            },
            shard_counts: vec![1, 2, 4, 7],
        };
        let stats = run_matrix(&scenario, ApServer::close_serial);
        prop_assert_eq!(stats.cells_run, 64 * kernel_choices().len());
    }
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
    let other = model_with(Bandwidth::Mhz20, CompressionLevel::OneQuarter, 46);
    let wide_stations = (2 * TILE_ROWS + 3) as StationId;
    let stations = wide_stations + 2;
    let frame_of = |id: StationId| {
        let model = if id < wide_stations { &wide } else { &other };
        synthetic_frame(model, BITS, id * 131, (id % 16, id % 8))
    };

    for weights in [TailWeights::F32, TailWeights::Int8] {
        let mut servers = [ApServer::new(), ApServer::new()];
        for server in &mut servers {
            server.set_tail_weights(weights);
            let wide_key = server.register_model(wide.clone());
            let other_key = server.register_model(other.clone());
            for id in 0..stations {
                let key = if id < wide_stations {
                    wide_key
                } else {
                    other_key
                };
                server.register_station(id, key, BITS).unwrap();
                server.ingest_wire(id, &frame_of(id)).unwrap();
            }
            server.truncate_pending_payload(wide_stations - 1);
        }
        let [tiled, oracle] = &mut servers;
        // The matrix tests of this binary pin kernels on other threads; both
        // closes must run under one.
        let (got, want) = with_ambient_kernel(|| {
            (
                tiled.close(None).unwrap_err(),
                oracle.close_serial(None).unwrap_err(),
            )
        });
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
