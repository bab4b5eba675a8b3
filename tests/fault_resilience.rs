//! Robustness suite for the fault-injection layer: a deterministic fuzz
//! harness (seeded shims RNG, no cargo-fuzz) over the wire codec and every
//! server flavor's ingest path, fault-plan determinism across close modes,
//! shard counts and both `SPLITBEAM_KERNEL` backends under a bursty
//! (Gilbert–Elliott) plan, and graceful degradation as the fault level rises.
//! (An armed injector over a fault-free plan being inert is the lockstep rows
//! of `event_serving.rs`.)

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use splitbeam::wire;
use splitbeam::SplitBeamError;
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

/// One fuzzed frame: arbitrary bytes, or a valid v2 frame put through
/// truncation, bit flips, or header mutation.
fn mutate_frame(rng: &mut ChaCha8Rng, valid: &[Vec<u8>]) -> Vec<u8> {
    match rng.gen_range(0u32..4) {
        // Arbitrary bytes, length 0..192.
        0 => {
            let len = rng.gen_range(0usize..192);
            let mut frame = vec![0u8; len];
            rng.fill_bytes(&mut frame);
            frame
        }
        // Truncation (possibly to zero) of a valid frame.
        1 => {
            let base = &valid[rng.gen_range(0..valid.len())];
            let len = rng.gen_range(0..base.len());
            base[..len].to_vec()
        }
        // 1..=8 random bit flips anywhere in a valid frame.
        2 => {
            let mut frame = valid[rng.gen_range(0..valid.len())].clone();
            for _ in 0..rng.gen_range(1usize..=8) {
                let bit = rng.gen_range(0..frame.len() * 8);
                frame[bit / 8] ^= 1 << (bit % 8);
            }
            frame
        }
        // Header-targeted mutation: rewrite 1..=4 of the first 14 bytes.
        _ => {
            let mut frame = valid[rng.gen_range(0..valid.len())].clone();
            for _ in 0..rng.gen_range(1usize..=4) {
                let idx = rng.gen_range(0..frame.len().min(14));
                frame[idx] = rng.gen_range(0u32..256) as u8;
            }
            frame
        }
    }
}

/// ≥ 100k deterministic mutated/arbitrary frames through `decode_feedback`
/// and `ingest_wire` on every server flavor: no panics, nothing but a
/// pristine frame decodes (there is no CRC-less layout to fall into), and the
/// error taxonomy stays within the documented `SplitBeamError`/`ServeError`
/// variants.
#[test]
fn fuzz_decode_and_ingest_survive_hostile_frames() {
    let m = model(606);
    let mut rng = ChaCha8Rng::seed_from_u64(0x0f5a_2e11);
    // A pool of valid frames (varied widths) for mutation to start from.
    let valid: Vec<Vec<u8>> = [(1u64, 4u8), (2, 6), (3, 8), (4, 12)]
        .into_iter()
        .map(|(seed, bits)| station_frame(&m, seed, bits))
        .collect();

    // Every server flavor the repo ships: single-shard batched/serial share
    // one ingest path, plus sharded at 1 and 4.
    let mut flat = build_sharded_server(m.clone(), 2, 8, 1);
    let mut sharded1 = build_sharded_server(m.clone(), 2, 8, 1);
    let mut sharded4 = build_sharded_server(m.clone(), 2, 8, 4);

    let budget = fuzz_budget();
    let mut rejected_corrupt = 0usize;
    let mut decoded_ok = 0usize;
    // What the CRC-less pre-versioned layout accepted — one 8-bit code behind
    // `[bpv][count][min][max]` — goes first: chance needs millions of frames.
    let pre_versioned = vec![8, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xAB];
    for i in 0..budget {
        let frame = match i {
            0 => pre_versioned.clone(),
            _ => mutate_frame(&mut rng, &valid),
        };
        let is_pristine = valid.iter().any(|v| v == &frame);

        // Decode taxonomy: a frame that decodes is pristine.
        match wire::decode_feedback(&frame) {
            Ok(_) => {
                decoded_ok += 1;
                assert!(
                    is_pristine,
                    "a damaged or arbitrary frame decoded at iteration {i}: {frame:?}"
                );
            }
            Err(SplitBeamError::CorruptFrame(_)) => {
                rejected_corrupt += 1;
                assert_eq!(
                    frame.first(),
                    Some(&0xB5),
                    "CorruptFrame is reserved for CRC-bearing v2 frames"
                );
            }
            Err(SplitBeamError::DimensionMismatch(_)) => {}
            Err(other) => panic!("unexpected decode error class at iteration {i}: {other}"),
        }

        // Ingest on every flavor: must not panic, must stay within the serve
        // error taxonomy, and must keep the session machinery alive.
        let id = (i % 2) as u64;
        for result in [
            flat.ingest_wire(id, &frame),
            RoundServing::ingest_wire(&mut sharded1, id, &frame),
            RoundServing::ingest_wire(&mut sharded4, id, &frame),
        ] {
            match result {
                Ok(_) => {}
                Err(
                    ServeError::Corrupt(_, _)
                    | ServeError::Codec(_)
                    | ServeError::Quarantined(_)
                    | ServeError::DuplicateFrame(_, _),
                ) => {}
                Err(other) => panic!("unexpected ingest error at iteration {i}: {other}"),
            }
        }
        // Close rounds periodically so quarantine windows open *and* expire
        // under fire.
        if i % 257 == 0 {
            flat.process_round().unwrap();
            RoundServing::close_round(&mut sharded1, ServeMode::Batched).unwrap();
            RoundServing::close_round(&mut sharded4, ServeMode::Batched).unwrap();
        }
    }
    assert!(
        rejected_corrupt > budget / 20,
        "the mutation mix must exercise CRC rejection ({rejected_corrupt}/{budget})"
    );
    assert!(decoded_ok > 0, "pristine frames in the mix must decode");

    // The servers are still serviceable after the bombardment: a clean frame
    // is either accepted or (legitimately) refused because the fuzz run
    // quarantined the station.
    for result in [
        flat.ingest_wire(0, &valid[0]),
        RoundServing::ingest_wire(&mut sharded1, 0, &valid[0]),
        RoundServing::ingest_wire(&mut sharded4, 0, &valid[0]),
    ] {
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
