//! Cross-crate integration test of the AP serving layer through the façade:
//! station-side wire traffic against the direct reconstruction, the tail
//! weight switch, and wire sizes against the airtime accounting. (Parity
//! between serving paths is `close_matrix.rs`.)

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_repro::prelude::*;
use splitbeam_repro::splitbeam::fused::{QuantizedTail, TailWeights};
use splitbeam_repro::splitbeam::wire;
use splitbeam_testkit::{small_model, station_payload};

#[test]
fn served_feedback_round_trips_through_the_wire() {
    let model = small_model(1);
    // Station side: compress, quantize, wire-encode.
    let payload = station_payload(&model, 2, 4);
    let frame = wire::encode_feedback(&payload).unwrap();
    assert_eq!(
        frame.len(),
        wire::encoded_len(payload.codes.len(), payload.bits_per_value)
    );

    // AP side: ingest over the wire, serve the round, compare with the direct
    // (never-encoded) reconstruction — must be bit-exact. A fresh server
    // serves the f32 tail whatever the environment says.
    let mut server = ApServer::new();
    assert_eq!(server.tail_weights(), TailWeights::F32);
    let key = server.register_model(model.clone());
    server.register_station(0, key, 4).unwrap();
    server.ingest_wire(0, &frame).unwrap();
    let summary = server.process_round().unwrap();
    assert_eq!((summary.served, summary.stale), (1, 0));
    let direct = model.reconstruct_quantized(&payload).unwrap();
    assert_eq!(server.feedback_of(0).unwrap(), direct.as_slice());
}

/// The tail weight format is a per-server setting that can change at any
/// round boundary: the same payload is served from the f32 master weights,
/// then from the int8 tail bound at registration.
#[test]
fn tail_weights_can_be_switched_at_round_boundaries() {
    let model = small_model(57);
    let payload = station_payload(&model, 500, 8);
    let frame = wire::encode_feedback(&payload).unwrap();
    let mut server = ApServer::new();
    let key = server.register_model(model.clone());
    server.register_station(0, key, 8).unwrap();
    server.ingest_wire(0, &frame).unwrap();
    server.process_round().unwrap();
    assert_eq!(
        server.feedback_of(0).unwrap(),
        model.reconstruct_quantized(&payload).unwrap()
    );
    server.set_tail_weights(TailWeights::Int8);
    server.ingest_wire(0, &frame).unwrap();
    server.process_round().unwrap();
    let tail = QuantizedTail::bind(&model);
    let ik = splitbeam_repro::mimo_math::kernel::int8::selected_int8();
    assert_eq!(
        server.feedback_of(0).unwrap(),
        tail.reconstruct_quantized(&payload, ik).unwrap()
    );
}

/// Every served feedback buffer starts on a 64-byte line, the first
/// serve's included, whatever the allocator did before: the tail stores
/// whole lines into them. A decoy puts the next row-sized block off a line
/// before the first close, so a buffer aligned only by luck would show.
/// Over the rounds each buffer is the tail's row, then a station's, then
/// the tail's again.
#[test]
fn served_feedback_buffers_are_line_aligned() {
    let model = small_model(3);
    let width = model.config().output_dim();
    let mut server = ApServer::new();
    server.set_tail_weights(TailWeights::Int8);
    let key = server.register_model(model.clone());
    let stations = 6u64;
    for id in 0..stations {
        server.register_station(id, key, 8).unwrap();
    }
    let mut decoys = Vec::new();
    loop {
        let block = Vec::<f32>::with_capacity(width);
        if !(block.as_ptr() as usize).is_multiple_of(64) {
            // Freed last, so the next block of this size is most likely it.
            drop(block);
            break;
        }
        decoys.push(block);
    }
    for round in 0..4u64 {
        for id in 0..stations {
            let payload = station_payload(&model, 20 * round + id, 8);
            server
                .ingest_wire(id, &wire::encode_feedback(&payload).unwrap())
                .unwrap();
        }
        assert_eq!(server.process_round().unwrap().served, stations as usize);
        for id in 0..stations {
            let feedback = server.feedback_of(id).unwrap();
            assert_eq!(feedback.len(), width);
            let offset = feedback.as_ptr() as usize % 64;
            assert_eq!(
                offset, 0,
                "station {id} after round {round}: feedback at {offset} mod 64"
            );
        }
    }
    drop(decoys);
}

#[test]
fn wire_frames_match_airtime_accounting() {
    let model = small_model(5);
    let sim = SimConfig {
        stations: 2,
        rounds: 1,
        bits_per_value: 4,
        drop_every: 0,
        snr_db: 25.0,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let traffic = generate_traffic(&sim, &model, &mut rng);
    // The airtime model charges header, codes and CRC trailer.
    let predicted_bits = wire::WIRE_HEADER_BITS
        + model.bottleneck_dim() * sim.bits_per_value as usize
        + wire::WIRE_TRAILER_BITS;
    for round in &traffic.rounds {
        for (_, frame) in round.frames.iter() {
            let frame = frame.as_ref().expect("drop-free traffic");
            assert_eq!(frame.len(), predicted_bits.div_ceil(8));
        }
    }
    // 4-bit codes on the wire are under half the u16-per-code representation,
    // even with the versioned header and CRC-32 trailer on a 56-code frame.
    let unpacked = 2 * model.bottleneck_dim();
    let actual = wire::encoded_len(model.bottleneck_dim(), sim.bits_per_value);
    assert!(
        2 * actual < unpacked,
        "{actual} B on the wire vs {unpacked} B of u16 codes"
    );
}
