//! Property tests of the event-driven driver's correctness anchor: with zero
//! jitter, zero compute latency and an ideal medium, virtual-time serving is
//! **bit-exact** with the legacy lockstep drivers (single-shard batched,
//! station-at-a-time serial, and sharded at 1 and 4 shards), under both
//! `SPLITBEAM_KERNEL` backends — plus the deadline regression: a report past
//! the Eq. 7d budget is counted late (or expired), never silently served as
//! fresh.
//!
//! The kernel override is process-global, so every kernel-pinning test here
//! serializes on one mutex and restores the default before returning (the
//! same pattern as the `shard_parity` suite).

use mimo_math::kernel::{avx2_fma_available, set_kernel, KernelChoice};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam_serve::driver::{
    build_server, build_sharded_server, generate_traffic, serve_traffic, ChurnConfig, RoundServing,
    ServeMode, SimConfig,
};
use splitbeam_serve::event::{build_event_driver, build_sharded_event_driver, EventConfig};
use splitbeam_serve::timing::FrameStamp;
use splitbeam_serve::StationId;
use std::sync::Mutex;
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

static KERNEL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the kernel pinned to `choice`, restoring default dispatch
/// afterwards (also on panic, via a drop guard).
fn with_kernel<T>(choice: KernelChoice, f: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_kernel(None);
        }
    }
    let _guard = KERNEL_LOCK.lock().unwrap();
    let _restore = Restore;
    set_kernel(Some(choice));
    f()
}

fn kernel_choices() -> Vec<KernelChoice> {
    let mut choices = vec![KernelChoice::Scalar];
    if avx2_fma_available() {
        choices.push(KernelChoice::Auto);
    }
    choices
}

fn model(seed: u64) -> SplitBeamModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    SplitBeamModel::new(
        SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneEighth,
        ),
        &mut rng,
    )
}

/// The shard counts the acceptance criteria pin for the event driver.
const SHARD_COUNTS: [usize; 2] = [1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For every sampled workload (drops, churn, widths) and both kernel
    /// backends: the zero-delay event driver == legacy batched == legacy
    /// serial == sharded event driver at {1, 4} shards, bit for bit —
    /// summaries (including the new deadline/delay fields) and per-station
    /// feedback bytes.
    #[test]
    fn prop_lockstep_event_driver_is_bit_exact_with_legacy(
        seed in 0u64..1000,
        bits in 2u8..=12,
        drop_every in 0usize..6,
        join_every in 0usize..4,
        leave_every in 0usize..4,
    ) {
        let m = model(seed.wrapping_add(577));
        let cfg = SimConfig {
            stations: 5,
            rounds: 3,
            bits_per_value: bits,
            drop_every,
            churn: ChurnConfig {
                join_every,
                leave_every,
                burst_every: 0,
            },
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        for choice in kernel_choices() {
            with_kernel(choice, || {
                let mut batched = build_server(m.clone(), cfg.stations, bits);
                let want = serve_traffic(&mut batched, &traffic, ServeMode::Batched).unwrap();
                let mut serial = build_server(m.clone(), cfg.stations, bits);
                let want_serial = serve_traffic(&mut serial, &traffic, ServeMode::Serial).unwrap();
                prop_assert_eq!(&want, &want_serial);

                let mut event = build_event_driver(
                    m.clone(), cfg.stations, bits, EventConfig::lockstep(), None);
                let got = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
                prop_assert_eq!(&got, &want, "event (single shard) vs legacy, {:?}", choice);
                for id in 0..traffic.max_station_id {
                    prop_assert_eq!(
                        event.feedback_of(id),
                        batched.feedback_of(id),
                        "station {} feedback, {:?}", id, choice
                    );
                }

                for shards in SHARD_COUNTS {
                    let mut legacy_sharded =
                        build_sharded_server(m.clone(), cfg.stations, bits, shards);
                    let legacy = serve_traffic(&mut legacy_sharded, &traffic, ServeMode::Batched)
                        .unwrap();
                    let mut sharded_event = build_sharded_event_driver(
                        m.clone(), cfg.stations, bits, shards, EventConfig::lockstep(), None);
                    let got = serve_traffic(&mut sharded_event, &traffic, ServeMode::Batched)
                        .unwrap();
                    prop_assert_eq!(&got, &legacy,
                        "event vs legacy sharded, {} shards, {:?}", shards, choice);
                    prop_assert_eq!(got.total_served(), want.total_served());
                    for (g, w) in got.summaries.iter().zip(want.summaries.iter()) {
                        prop_assert_eq!(
                            (g.round, g.served, g.stale, g.awaiting_first_report,
                             g.on_time, g.late, g.expired, g.delay),
                            (w.round, w.served, w.stale, w.awaiting_first_report,
                             w.on_time, w.late, w.expired, w.delay),
                            "{} shards, {:?}", shards, choice
                        );
                    }
                    for id in 0..traffic.max_station_id {
                        prop_assert_eq!(
                            sharded_event.feedback_of(id),
                            batched.feedback_of(id),
                            "{} shards, station {}, {:?}", shards, id, choice
                        );
                    }
                }
            });
        }
    }
}

/// Regression test: a feedback frame whose virtual end-to-end delay lands
/// past the Eq. 7d budget is counted late (within grace) or expired (beyond
/// it) — in no case does the round report it as an on-time, fresh serve.
#[test]
fn past_budget_frame_is_never_silently_served_as_fresh() {
    let m = model(42);
    let cfg = SimConfig {
        stations: 3,
        rounds: 1,
        bits_per_value: 4,
        drop_every: 0,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let traffic = generate_traffic(&cfg, &m, &mut rng);

    // Jitter amplitude far past budget + grace: with the seeded uniform
    // stream some frames land late or expired, and the lockstep invariant
    // on_time == served must break exactly by the flagged count.
    let mut event = build_event_driver(
        m.clone(),
        cfg.stations,
        cfg.bits_per_value,
        EventConfig {
            jitter_max_ns: 60_000_000, // up to 60 ms on a 10 ms budget
            seed: 7,
            ..EventConfig::lockstep()
        },
        None,
    );
    let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
    let summary = &outcome.summaries[0];
    assert_eq!(summary.on_time + summary.late, summary.served);
    assert!(
        summary.late + summary.expired > 0,
        "60 ms jitter on a 10 ms budget must push someone past it"
    );
    // Expired stations were consumed without reconstruction: no feedback.
    let mut unreconstructed = 0;
    for id in 0..cfg.stations as StationId {
        if event.feedback_of(id).is_none() {
            unreconstructed += 1;
        } else {
            let session = event.inner().session(id).unwrap();
            // Any stored report past the budget is explicitly flagged late.
            if session.served_late() {
                let stamp = session.last_stamp().expect("timed serving stamps sessions");
                assert!(stamp.total_ns() > event.config().policy().budget_ns);
            }
        }
    }
    assert_eq!(unreconstructed, summary.expired);
}

/// The deadline closer enforces the budget on *stamps*, so a hand-stamped
/// frame past budget+grace is dropped even on the plain servers, without the
/// event driver in the loop.
#[test]
fn hand_stamped_expired_frame_is_dropped_by_the_deadline_close() {
    let m = model(44);
    let mut server = build_server(m.clone(), 2, 8);
    let frame = {
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        let channel = wifi_phy::channel::ChannelModel::new(
            wifi_phy::channel::EnvironmentProfile::e1(),
            Bandwidth::Mhz20,
            2,
            1,
            1,
        );
        let csi: Vec<f32> = channel
            .sample(&mut rng)
            .csi_real_vector(0)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let payload = m.compress_quantized(&csi, 8).unwrap();
        splitbeam::wire::encode_feedback(&payload).unwrap()
    };
    // Station 0 on time, station 1 stamped 25 ms end-to-end (10 budget + 10
    // grace < 25 -> expired).
    server
        .ingest_wire_at(0, &frame, FrameStamp::default())
        .unwrap();
    server
        .ingest_wire_at(
            1,
            &frame,
            FrameStamp {
                arrival_ns: 25_000_000,
                head_ns: 5_000_000,
                queue_ns: 15_000_000,
                air_ns: 5_000_000,
                tail_ns: 0,
            },
        )
        .unwrap();
    let policy = splitbeam_serve::DeadlinePolicy::eq7d();
    let summary = server.close(Some(policy)).unwrap();
    assert_eq!(
        (
            summary.served,
            summary.on_time,
            summary.late,
            summary.expired
        ),
        (1, 1, 0, 1)
    );
    assert!(server.feedback_of(0).is_some());
    assert!(
        server.feedback_of(1).is_none(),
        "expired report must never be reconstructed"
    );
    // The station's feedback aged/never arrived: it shows up in staleness
    // accounting, not in served.
    assert_eq!(summary.awaiting_first_report, 1);
}
