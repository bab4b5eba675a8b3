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

/// At every width whose codes split whole bytes (each its own vector arm
/// of the unpack), and at one that does not.
#[test]
fn served_feedback_round_trips_through_the_wire() {
    let model = small_model(1);
    for bits in [1, 2, 4, 5, 8] {
        // Station side: compress, quantize, wire-encode.
        let payload = station_payload(&model, 2, bits);
        let frame = wire::encode_feedback(&payload).unwrap();
        assert_eq!(
            frame.len(),
            wire::encoded_len(payload.codes.len(), payload.bits_per_value)
        );

        // AP side: ingest over the wire, serve the round, compare with the
        // direct (never-encoded) reconstruction — must be bit-exact. A fresh
        // server serves the f32 tail whatever the environment says.
        let mut server = ApServer::new();
        assert_eq!(server.tail_weights(), TailWeights::F32);
        let key = server.register_model(model.clone());
        server.register_station(0, key, bits).unwrap();
        server.ingest_wire(0, &frame).unwrap();
        let summary = server.process_round().unwrap();
        assert_eq!((summary.served, summary.stale), (1, 0));
        let direct = model.reconstruct_quantized(&payload).unwrap();
        assert_eq!(
            server.feedback_of(0).unwrap(),
            direct.as_slice(),
            "{bits} bits"
        );
    }
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

/// A frame refused at ingest never touches the pending row: after a good,
/// sequenced frame, every hostile frame is refused with its own error — a
/// CRC-corrupt frame, a truncated one, a wrong version, a width other than
/// the session's, a code count other than the model's, a resealed
/// non-finite range, a re-delivery of the pending sequence number and, once
/// three corrupt frames have quarantined the station, a good frame of other
/// codes — and the close serves feedback bit-equal to a control server that
/// saw the good frame alone, on a lockstep server and on a streaming one.
/// Each hostile frame carries codes other than the good frame's, so a row
/// written before its refusal would move the served bits.
#[test]
fn refused_frames_never_touch_the_pending_row() {
    use splitbeam_repro::serve::ServeError;
    use splitbeam_repro::splitbeam::{Refusal, SplitBeamError};

    let model = small_model(21);
    let bits = 4;
    let good = wire::encode_feedback_with_seq(&station_payload(&model, 22, bits), 5).unwrap();
    let other = station_payload(&model, 23, bits);
    let sealed = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut frame = wire::encode_feedback_with_seq(&other, 6).unwrap();
        edit(&mut frame);
        wire::refresh_crc(&mut frame);
        frame
    };
    let mut corrupt = wire::encode_feedback_with_seq(&other, 6).unwrap();
    corrupt[20] ^= 0x10;
    let mut short = other.clone();
    short.codes.pop();
    let (want, got) = (other.codes.len(), short.codes.len());
    let codec = |why| Err(ServeError::Codec(SplitBeamError::DimensionMismatch(why)));
    let floor = wire::WIRE_HEADER_BYTES + wire::WIRE_TRAILER_BYTES;

    let serve = |streaming: bool, hostile: bool| {
        let mut server = ApServer::new();
        server.set_streaming(streaming);
        let key = server.register_model(model.clone());
        server.register_station(0, key, bits).unwrap();
        server.ingest_wire(0, &good).unwrap();
        if hostile {
            let mut refused = |frame: &[u8]| server.ingest_wire(0, frame);
            assert!(matches!(
                refused(&corrupt),
                Err(ServeError::Corrupt(0, Refusal::Crc { .. }))
            ));
            let len = floor - 1;
            let truncated = codec(Refusal::Truncated { len, floor });
            assert_eq!(refused(&good[..len]), truncated);
            assert_eq!(
                refused(&sealed(&|f| f[0] = 0x42)),
                codec(Refusal::Version(0x42))
            );
            let six = wire::encode_feedback(&station_payload(&model, 23, 6)).unwrap();
            assert_eq!(refused(&six), codec(Refusal::BitWidth(6)));
            let miscounted = wire::encode_feedback(&short).unwrap();
            assert_eq!(
                refused(&miscounted),
                Err(ServeError::Codec(SplitBeamError::DimensionMismatch(
                    Refusal::CodeCount { got, want }
                )))
            );
            let nan = f32::NAN.to_bits().to_be_bytes();
            assert!(matches!(
                refused(&sealed(&|f| f[6..10].copy_from_slice(&nan))),
                Err(ServeError::Codec(SplitBeamError::DimensionMismatch(
                    Refusal::Range { min, .. }
                ))) if min.is_nan()
            ));
            let redelivered = wire::encode_feedback_with_seq(&other, 5).unwrap();
            assert_eq!(refused(&redelivered), Err(ServeError::DuplicateFrame(0, 5)));
            for _ in 0..2 {
                assert!(matches!(refused(&corrupt), Err(ServeError::Corrupt(0, _))));
            }
            let clean = wire::encode_feedback(&other).unwrap();
            assert_eq!(refused(&clean), Err(ServeError::Quarantined(0)));
        }
        let summary = server.process_round().unwrap();
        assert_eq!(
            (summary.served, summary.corrupt),
            (1, if hostile { 3 } else { 0 })
        );
        server.feedback_of(0).unwrap().to_vec()
    };
    for streaming in [false, true] {
        let (control, attacked) = (serve(streaming, false), serve(streaming, true));
        let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits_of(&attacked),
            bits_of(&control),
            "streaming: {streaming}"
        );
    }
}
