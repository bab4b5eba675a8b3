//! Cross-crate integration test of the sharded AP serving layer: bit-exact
//! parity with the single-shard server through the façade at fixed shard
//! counts, and session lifecycle under churn.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_repro::prelude::*;
use splitbeam_repro::serve::ServeError;

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

#[test]
fn sharded_sweep_matches_batched_and_serial_references() {
    let model = small_model(3);
    let sim = SimConfig {
        stations: 7,
        rounds: 4,
        bits_per_value: 6,
        drop_every: 6,
        churn: ChurnConfig {
            join_every: 2,
            leave_every: 2,
            burst_every: 3,
        },
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let traffic = generate_traffic(&sim, &model, &mut rng);
    let mut batched = build_server(model.clone(), sim.stations, sim.bits_per_value);
    let mut serial = build_server(model.clone(), sim.stations, sim.bits_per_value);
    let b = serve_traffic(&mut batched, &traffic, ServeMode::Batched).unwrap();
    let s = serve_traffic(&mut serial, &traffic, ServeMode::Serial).unwrap();
    assert_eq!(b, s, "single-shard batched vs serial");
    for shards in [1usize, 2, 4, 7] {
        let mut sharded =
            build_sharded_server(model.clone(), sim.stations, sim.bits_per_value, shards);
        let o = serve_traffic(&mut sharded, &traffic, ServeMode::Batched).unwrap();
        assert_eq!(o.total_served(), b.total_served(), "{shards} shards");
        for id in 0..traffic.max_station_id {
            assert_eq!(
                sharded.feedback_of(id),
                batched.feedback_of(id),
                "{shards} shards, station {id}"
            );
            assert_eq!(
                sharded.feedback_of(id),
                serial.feedback_of(id),
                "{shards} shards vs serial, station {id}"
            );
        }
    }
}

#[test]
fn lifecycle_capacity_eviction_and_reregistration() {
    let model = small_model(5);
    let mut server = ApServer::with_shards(3);
    let key = server.register_model(model.clone());
    server.set_capacity(Some(3));
    for id in 0..3u64 {
        server.register_station(id, key, 4).unwrap();
    }
    assert_eq!(
        server.register_station(3, key, 4),
        Err(ServeError::CapacityExceeded(3, 3))
    );
    // A departure frees a slot; the new station lands on its deterministic shard.
    server.deregister_station(1).unwrap();
    server.register_station(3, key, 4).unwrap();
    assert_eq!(server.station_ids(), vec![0, 2, 3]);
    assert_eq!(server.shard_of(3), 0);

    // Stations that stop reporting are evicted once the idle budget passes,
    // and can re-register cleanly.
    server.set_max_idle_rounds(Some(0));
    let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let frame_for = |rng: &mut ChaCha8Rng| {
        let csi: Vec<f32> = channel
            .sample(rng)
            .csi_real_vector(0)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let payload = model.compress_quantized(&csi, 4).unwrap();
        splitbeam_repro::splitbeam::wire::encode_feedback(&payload).unwrap()
    };
    // Round 0: everyone reports. Round 1: only station 0 reports.
    for id in [0u64, 2, 3] {
        let f = frame_for(&mut rng);
        server.ingest_wire(id, &f).unwrap();
    }
    let r0 = server.process_round().unwrap();
    assert_eq!((r0.served, server.evicted_in_last_round()), (3, 0));
    let f = frame_for(&mut rng);
    server.ingest_wire(0, &f).unwrap();
    let r1 = server.process_round().unwrap();
    assert_eq!(r1.served, 1);
    assert_eq!(
        server.evicted_in_last_round(),
        2,
        "stations 2 and 3 exceeded the idle budget"
    );
    assert_eq!(server.station_ids(), vec![0]);
    // Clean re-registration after eviction.
    server.register_station(2, key, 4).unwrap();
    assert!(server.session(2).unwrap().feedback().is_none());
    assert_eq!(server.session(2).unwrap().joined_round(), 2);
}
