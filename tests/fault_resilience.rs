//! Robustness suite for the fault-injection layer: a deterministic fuzz
//! harness (seeded shims RNG, no cargo-fuzz) over the wire codec and the
//! ingest of one-shard, four-shard and streaming servers, asserting the
//! refusal each mutation yields, fault-plan determinism across close modes,
//! shard counts and both `SPLITBEAM_KERNEL` backends under a bursty
//! (Gilbert–Elliott) plan, and graceful degradation as the fault level rises.
//! (An armed injector over a fault-free plan being inert is the lockstep rows
//! of `event_serving.rs`.)

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use splitbeam::wire;
use splitbeam::{Refusal, SplitBeamError};
use splitbeam_hwsim::fault::FaultConfig;
use splitbeam_serve::driver::{
    build_sharded_server, generate_traffic, serve_traffic, RoundServing, ServeMode, SimConfig,
};
use splitbeam_serve::event::{build_event_driver, build_sharded_event_driver, EventConfig};
use splitbeam_serve::ServeError;
use splitbeam_testkit::{
    fault_profile, kernel_choices, small_model as model, station_frame, with_kernel,
};

/// Fuzz iteration budget: ≥ 100k frames by default, tunable for quick local
/// runs or CI via `SPLITBEAM_FUZZ_FRAMES`.
fn fuzz_budget() -> usize {
    std::env::var("SPLITBEAM_FUZZ_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

/// What `decode_feedback` makes of a frame: it decodes, or the kind of its
/// refusal.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Decodes,
    Truncated,
    Version,
    BitWidth,
    Range,
    Length,
    Crc,
    /// A refusal no frame may yield.
    Other,
}

fn kind_of(e: &SplitBeamError) -> Kind {
    match e {
        SplitBeamError::DimensionMismatch(why) | SplitBeamError::CorruptFrame(why) => match why {
            Refusal::Truncated { .. } => Kind::Truncated,
            Refusal::Version(_) => Kind::Version,
            Refusal::BitWidth(_) => Kind::BitWidth,
            Refusal::Range { .. } => Kind::Range,
            Refusal::Length { .. } => Kind::Length,
            Refusal::Crc { .. } => Kind::Crc,
            _ => Kind::Other,
        },
        SplitBeamError::ConstraintsUnsatisfiable(_) => Kind::Other,
    }
}

/// What decoding a frame that was changed without resealing must yield,
/// given `base`, the valid frame it was made from: an unchanged frame
/// decodes, an empty one or a v2 frame cut below the header+trailer floor is
/// truncated, any other opening octet is an unknown version, and past that
/// the CRC — checked before any field is read — catches every change.
fn unsealed(frame: &[u8], base: &[u8]) -> Kind {
    let floor = wire::WIRE_HEADER_BYTES + wire::WIRE_TRAILER_BYTES;
    match frame.first() {
        _ if frame == base => Kind::Decodes,
        None => Kind::Truncated,
        Some(&octet) if octet != wire::WIRE_VERSION => Kind::Version,
        Some(_) if frame.len() < floor => Kind::Truncated,
        Some(_) => Kind::Crc,
    }
}

/// One fuzzed frame and what decoding it must yield: arbitrary bytes, or a
/// valid v2 frame put through truncation, bit flips, header rewrites, or one
/// header field rewritten to a value no frame carries and resealed.
fn mutate_frame(rng: &mut ChaCha8Rng, valid: &[Vec<u8>]) -> (Vec<u8>, Kind) {
    let base = &valid[rng.gen_range(0..valid.len())];
    let mut frame = base.clone();
    match rng.gen_range(0u32..5) {
        // Arbitrary bytes, length 0..192.
        0 => {
            frame.resize(rng.gen_range(0usize..192), 0);
            rng.fill_bytes(&mut frame);
        }
        // Truncation (possibly to zero) of a valid frame.
        1 => frame.truncate(rng.gen_range(0..base.len())),
        // 1..=8 random bit flips anywhere in a valid frame.
        2 => {
            for _ in 0..rng.gen_range(1usize..=8) {
                let bit = rng.gen_range(0..frame.len() * 8);
                frame[bit / 8] ^= 1 << (bit % 8);
            }
        }
        // Header-targeted mutation: rewrite 1..=4 of the first 14 bytes.
        3 => {
            for _ in 0..rng.gen_range(1usize..=4) {
                let idx = rng.gen_range(0..frame.len().min(14));
                frame[idx] = rng.gen_range(0u32..256) as u8;
            }
        }
        // One field rewritten and resealed: the CRC passes, the field does not.
        _ => {
            let kind = match rng.gen_range(0u32..3) {
                0 => {
                    frame[1] = [0, rng.gen_range(17u32..256) as u8][rng.gen_range(0usize..2)];
                    Kind::BitWidth
                }
                1 => {
                    let ends = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
                    let at = [6, 10][rng.gen_range(0usize..2)];
                    let end = ends[rng.gen_range(0..ends.len())];
                    frame[at..at + 4].copy_from_slice(&end.to_bits().to_be_bytes());
                    Kind::Range
                }
                _ => {
                    let bits = frame[1];
                    let count = loop {
                        let count = rng.gen_range(0u32..=u32::from(u16::MAX)) as u16;
                        if wire::encoded_len(usize::from(count), bits) != frame.len() {
                            break count;
                        }
                    };
                    frame[4..6].copy_from_slice(&count.to_be_bytes());
                    Kind::Length
                }
            };
            assert!(wire::refresh_crc(&mut frame));
            return (frame, kind);
        }
    }
    let kind = unsealed(&frame, base);
    (frame, kind)
}

/// ≥ 100k deterministic mutated/arbitrary frames through `decode_feedback`
/// and `ingest_wire` on a one-shard, a four-shard and a streaming server: no
/// panics, nothing but a pristine frame decodes (there is no CRC-less layout
/// to fall into), each mutation yields the refusal its class must, a
/// server refuses a frame for the reason the decoder does — or, for a frame
/// that decodes, because it does not fit the station's session — and a
/// hostile frame after a pristine one leaves the pristine payload's served
/// feedback unchanged.
#[test]
fn fuzz_decode_and_ingest_survive_hostile_frames() {
    let m = model(606);
    let mut rng = ChaCha8Rng::seed_from_u64(0x0f5a_2e11);
    // A pool of valid frames (varied widths) for mutation to start from.
    let valid: Vec<Vec<u8>> = [(1u64, 4u8), (2, 6), (3, 8), (4, 12)]
        .into_iter()
        .map(|(seed, bits)| station_frame(&m, seed, bits))
        .collect();

    // One shard, four, and a one-shard server ingesting onto its lane's ring
    // (a full ring refuses with `Backpressure`; only that server may).
    let mut flat = build_sharded_server(m.clone(), 2, 8, 1);
    let mut sharded4 = build_sharded_server(m.clone(), 2, 8, 4);
    let mut streaming = build_sharded_server(m.clone(), 2, 8, 1);
    streaming.set_streaming(true);

    // What a station's pristine 8-bit frame serves: every periodic close
    // first ingests it, then the iteration's frame, which — refused or
    // pristine itself — must leave these bits served.
    let pristine = &valid[2];
    let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let served_pristine = bits_of(
        &m.reconstruct_quantized(&wire::decode_feedback(pristine).unwrap())
            .unwrap(),
    );

    let budget = fuzz_budget();
    let mut rejected_corrupt = 0usize;
    let mut decoded_ok = 0usize;
    // What the CRC-less pre-versioned layout accepted — one 8-bit code behind
    // `[bpv][count][min][max]` — goes first: chance needs millions of frames.
    let pre_versioned = vec![8, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xAB];
    for i in 0..budget {
        let (frame, want) = match i {
            0 => (pre_versioned.clone(), Kind::Version),
            _ => mutate_frame(&mut rng, &valid),
        };
        let is_pristine = valid.iter().any(|v| v == &frame);

        // Decode taxonomy: a frame that decodes is pristine, and a refused
        // one is refused for its mutation class's reason.
        let decoded = wire::decode_feedback(&frame);
        let got = decoded.as_ref().err().map_or(Kind::Decodes, kind_of);
        assert_eq!(got, want, "iteration {i}: {decoded:?} for {frame:?}");
        match &decoded {
            Ok(_) => {
                decoded_ok += 1;
                assert!(
                    is_pristine,
                    "a damaged or arbitrary frame decoded at iteration {i}: {frame:?}"
                );
            }
            Err(SplitBeamError::CorruptFrame(why)) => {
                rejected_corrupt += 1;
                assert!(matches!(why, Refusal::Crc { .. }), "{why:?}");
            }
            Err(_) => assert!(!matches!(got, Kind::Crc | Kind::Other), "{decoded:?}"),
        }

        // Ingest on every server: must not panic, must refuse for the
        // decoder's reason, and must keep the session machinery alive.
        // Before a periodic close the station's pristine frame goes first.
        let id = (i % 2) as u64;
        let closing = i % 257 == 0;
        let primed = [&mut flat, &mut sharded4, &mut streaming]
            .map(|server| closing && RoundServing::ingest_wire(server, id, pristine).is_ok());
        for (result, lane) in [
            (flat.ingest_wire(id, &frame), false),
            (RoundServing::ingest_wire(&mut sharded4, id, &frame), false),
            (RoundServing::ingest_wire(&mut streaming, id, &frame), true),
        ] {
            match result {
                Ok(_) => assert!(decoded.is_ok(), "iteration {i}: ingested {decoded:?}"),
                Err(ServeError::Corrupt(_, why)) => {
                    assert_eq!(
                        decoded,
                        Err(SplitBeamError::CorruptFrame(why)),
                        "iteration {i}"
                    );
                }
                // A frame that decodes is refused for not fitting the
                // session: a width other than the one announced.
                Err(ServeError::Codec(e)) => match &decoded {
                    Ok(_) => assert!(
                        matches!(e, SplitBeamError::DimensionMismatch(Refusal::BitWidth(_))),
                        "iteration {i}: {e:?}"
                    ),
                    Err(_) => assert_eq!(kind_of(&e), got, "iteration {i}: {e:?}"),
                },
                Err(ServeError::Quarantined(_) | ServeError::DuplicateFrame(_, _)) => {}
                Err(ServeError::Backpressure(..)) if lane => {}
                Err(other) => panic!("unexpected ingest error at iteration {i}: {other}"),
            }
        }
        // Close rounds periodically so quarantine windows open *and* expire
        // under fire; a primed station serves its pristine payload whatever
        // the hostile frame after it was.
        if closing {
            flat.process_round().unwrap();
            RoundServing::close_round(&mut sharded4, ServeMode::Batched).unwrap();
            RoundServing::close_round(&mut streaming, ServeMode::Batched).unwrap();
            for (server, primed) in [&flat, &sharded4, &streaming].into_iter().zip(primed) {
                if primed {
                    let served = bits_of(server.feedback_of(id).unwrap());
                    assert_eq!(served, served_pristine, "iteration {i}: {frame:?}");
                }
            }
        }
    }
    assert!(
        rejected_corrupt > budget / 20,
        "the mutation mix must exercise CRC rejection ({rejected_corrupt}/{budget})"
    );
    assert!(decoded_ok > 0, "pristine frames in the mix must decode");

    // The servers are still serviceable after the bombardment: after a close
    // (which empties the ring), a clean frame is either accepted or
    // (legitimately) refused because the fuzz run quarantined the station.
    for server in [&mut flat, &mut sharded4, &mut streaming] {
        RoundServing::close_round(server, ServeMode::Batched).unwrap();
        let result = RoundServing::ingest_wire(server, 0, &valid[2]);
        assert!(
            matches!(result, Ok(_) | Err(ServeError::Quarantined(_))),
            "server no longer serviceable after fuzzing: {result:?}"
        );
    }
}

/// Same seed + same fault plan → identical `RoundSummary` streams across
/// batched/serial/sharded {1, 4} and both kernel backends.
#[test]
fn fault_plan_is_deterministic_across_flavors_and_kernels() {
    let m = model(707);
    let cfg = SimConfig {
        stations: 6,
        rounds: 5,
        bits_per_value: 6,
        drop_every: 0,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(708);
    let traffic = generate_traffic(&cfg, &m, &mut rng);
    let event_cfg = EventConfig {
        feedback_rate_mbps: Some(24.0),
        seed: 909,
        faults: FaultConfig {
            loss: 0.2,
            corrupt: 0.1,
            duplicate: 0.05,
            burst: Some(splitbeam_hwsim::fault::GilbertElliott {
                p_enter_bad: 0.1,
                p_exit_bad: 0.4,
                loss_good: 0.01,
                loss_bad: 0.6,
            }),
            ..FaultConfig::none()
        },
        max_retries: 2,
        retry_backoff_ns: 50_000,
        ..EventConfig::lockstep()
    };

    let mut reference: Option<Vec<_>> = None;
    for choice in kernel_choices() {
        with_kernel(choice, || {
            let mut batched =
                build_event_driver(m.clone(), cfg.stations, cfg.bits_per_value, event_cfg, None);
            let got_batched = serve_traffic(&mut batched, &traffic, ServeMode::Batched).unwrap();
            let mut serial =
                build_event_driver(m.clone(), cfg.stations, cfg.bits_per_value, event_cfg, None);
            let got_serial = serve_traffic(&mut serial, &traffic, ServeMode::Serial).unwrap();
            // Batched and serial closes are fully bit-exact under faults.
            assert_eq!(got_batched, got_serial, "batched vs serial, {choice:?}");
            assert_eq!(batched.fault_stats(), serial.fault_stats());

            let profile = fault_profile(&got_batched.summaries);
            for shards in [1usize, 4] {
                let mut sharded = build_sharded_event_driver(
                    m.clone(),
                    cfg.stations,
                    cfg.bits_per_value,
                    shards,
                    event_cfg,
                    None,
                );
                let got = serve_traffic(&mut sharded, &traffic, ServeMode::Batched).unwrap();
                assert_eq!(
                    fault_profile(&got.summaries),
                    profile,
                    "{shards} shards vs single-shard, {choice:?}"
                );
                assert_eq!(
                    sharded.fault_stats(),
                    batched.fault_stats(),
                    "{shards} shards fault stats, {choice:?}"
                );
            }
            // And across kernels the whole stream is identical.
            match &reference {
                Some(want) => assert_eq!(&profile, want, "kernel {choice:?} diverged"),
                None => reference = Some(profile),
            }
        });
    }
    let profile = reference.expect("at least the scalar kernel ran");
    let injected: usize = profile.iter().map(|row| row[0] + row[1]).sum();
    assert!(injected > 0, "the fault plan must actually disrupt the run");
}

/// Graceful degradation: one traffic set served at rising `(loss, corrupt)`
/// levels on a contended medium. The deadline-hit rate never recovers by more
/// than 0.02 from one level to the next (no cliff at low rates, no spurious
/// recovery at high ones), and the zero row injects nothing.
#[test]
fn deadline_hit_rate_degrades_monotonically_with_the_fault_level() {
    let m = model(1201);
    let cfg = SimConfig {
        stations: 16,
        rounds: 6,
        bits_per_value: 6,
        drop_every: 0,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(1202);
    let traffic = generate_traffic(&cfg, &m, &mut rng);
    let levels = [
        (0.0, 0.0),
        (0.05, 0.02),
        (0.10, 0.05),
        (0.20, 0.10),
        (0.35, 0.15),
        (0.50, 0.25),
    ];
    let mut hit_rates = Vec::new();
    for (loss, corrupt) in levels {
        let event_cfg = EventConfig {
            faults: FaultConfig {
                loss,
                corrupt,
                ..FaultConfig::none()
            },
            ..EventConfig::realistic(6.0, 0, 42)
        };
        let mut driver =
            build_event_driver(m.clone(), cfg.stations, cfg.bits_per_value, event_cfg, None);
        let outcome = serve_traffic(&mut driver, &traffic, ServeMode::Batched).unwrap();
        let on_time: usize = outcome.summaries.iter().map(|s| s.on_time).sum();
        if loss == 0.0 {
            let stats = driver.fault_stats();
            assert_eq!((stats.lost, stats.corrupted), (0, 0), "zero row injects");
            assert_eq!(
                on_time,
                traffic.total_frames(),
                "zero row misses a deadline"
            );
            assert!(driver.medium().total_wait_ns() > 0, "stations must contend");
        }
        hit_rates.push(on_time as f64 / traffic.total_frames() as f64);
    }
    assert!(
        hit_rates.windows(2).all(|pair| pair[1] <= pair[0] + 0.02),
        "deadline-hit rate recovered as faults rose: {hit_rates:?}"
    );
    assert!(
        hit_rates[levels.len() - 1] < 1.0,
        "top level never degrades"
    );
}
