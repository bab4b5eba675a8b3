//! Session lifecycle on the sharded AP server through the façade: capacity,
//! idle eviction and clean re-registration, at fixed shard counts. (That
//! sharding never changes what is served is `close_matrix.rs`.)

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_repro::prelude::*;
use splitbeam_repro::serve::driver::build_sharded_server;
use splitbeam_repro::serve::{ServeError, StationId, StationSession};
use splitbeam_testkit::{small_model, station_frame};

/// The registered station ids in ascending order (merged across shards).
fn station_ids(server: &ApServer) -> Vec<StationId> {
    let mut ids: Vec<StationId> = server.sessions().map(StationSession::id).collect();
    ids.sort_unstable();
    ids
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
    assert_eq!(station_ids(&server), vec![0, 2, 3]);
    assert_eq!(server.shard_of(3), 0);

    // Stations that stop reporting are evicted once the idle budget passes,
    // and can re-register cleanly.
    server.set_max_idle_rounds(Some(0));
    // Round 0: everyone reports. Round 1: only station 0 reports.
    for id in [0u64, 2, 3] {
        server
            .ingest_wire(id, &station_frame(&model, 60 + id, 4))
            .unwrap();
    }
    let r0 = server.process_round().unwrap();
    assert_eq!((r0.served, server.evicted_in_last_round()), (3, 0));
    server
        .ingest_wire(0, &station_frame(&model, 70, 4))
        .unwrap();
    let r1 = server.process_round().unwrap();
    assert_eq!(r1.served, 1);
    assert_eq!(
        server.evicted_in_last_round(),
        2,
        "stations 2 and 3 exceeded the idle budget"
    );
    assert_eq!(station_ids(&server), vec![0]);
    // Clean re-registration after eviction.
    server.register_station(2, key, 4).unwrap();
    assert!(server.session(2).unwrap().feedback().is_none());
    assert_eq!(server.session(2).unwrap().joined_round(), 2);
}

/// Eviction/re-registration state transitions hold at every shard count.
#[test]
fn eviction_and_reregistration_transitions_across_shard_counts() {
    let m = small_model(77);
    for shards in [1usize, 2, 4, 7] {
        let mut server = build_sharded_server(m.clone(), 6, 4, shards);
        server.set_max_idle_rounds(Some(0));
        let cfg = SimConfig {
            stations: 6,
            rounds: 4,
            bits_per_value: 4,
            drop_every: 4,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        let outcome = serve_traffic(&mut server, &traffic, ServeMode::Batched).unwrap();
        // With a zero idle budget, every dropped report leads to an eviction
        // and the station's next frame re-associates it.
        assert!(
            outcome.reassociations > 0,
            "{shards} shards: drops must force re-association"
        );
        // Re-registered sessions are fresh: anyone present now either
        // reported this round or just re-joined.
        for session in server.sessions() {
            assert!(
                session.idle_rounds(server.current_round().saturating_sub(1)) == 0,
                "{shards} shards: survivor must be fresh"
            );
        }
    }
}
