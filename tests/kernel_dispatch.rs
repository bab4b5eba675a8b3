//! Kernel-dispatch integration tests.
//!
//! Verifies the `SPLITBEAM_KERNEL` contract end to end: the environment knob
//! and the programmatic override steer dispatch, `scalar` reproduces the
//! pre-SIMD pipeline bit-for-bit (serving layer batched == serial, fused ==
//! unfused, wire roundtrip), and the SIMD backend stays within documented
//! tolerance of scalar on the full model inference path. The last test pins
//! what a round serves, per backend, to digests taken before the tail GEMM
//! was panel-packed: the row-major FMA kernel, the packed 256-bit arm and
//! the packed 512-bit arm must all still produce those bits. Another pins
//! what a station sends: the wire bytes of the batch-1 head at 3x3 / 80 MHz,
//! per backend and pool width.
//!
//! The kernel override is process-global; every test here pins it through
//! the test kit's one lock.

use mimo_math::kernel::int8::{selected_int8, Int8Kernel};
use mimo_math::kernel::packed::PackedWidth;
use mimo_math::kernel::{dispatch_report, selected, Backend, Kernel, KernelChoice};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::fused::TailScratch;
use splitbeam::model::SplitBeamModel;
use splitbeam::quantization::QuantizedFeedback;
use splitbeam::wire;
use splitbeam_serve::ApServer;
use splitbeam_testkit::{
    small_model as model, station_frame, synthetic_frame, with_env_kernel, with_kernel, Fnv1a,
};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

fn station_frames(model: &SplitBeamModel, count: u64, bits: u8) -> Vec<Vec<u8>> {
    (0..count)
        .map(|seed| station_frame(model, 1000 + seed, bits))
        .collect()
}

#[test]
fn programmatic_override_steers_dispatch() {
    with_kernel(KernelChoice::Scalar, || {
        assert_eq!(selected(), Kernel::Scalar);
        let report = dispatch_report();
        assert_eq!(report.requested, "scalar");
        assert_eq!(report.selected, "scalar");
    });
    with_kernel(KernelChoice::Auto, || {
        assert_eq!(selected(), Backend::host().kernel());
        assert_eq!(selected_int8(), Backend::host().int8());
        assert_eq!(dispatch_report().host, Backend::host().name());
    });
}

#[test]
fn environment_variable_steers_dispatch() {
    with_env_kernel("scalar", || {
        assert_eq!(selected(), Kernel::Scalar);
        assert_eq!(
            selected_int8(),
            Int8Kernel::Scalar,
            "scalar pins both tiers"
        );
    });
    with_env_kernel("auto", || {
        assert_eq!(
            selected() == Kernel::Avx2Fma,
            Backend::host() >= Backend::Avx2,
            "auto must pick AVX2 exactly when the host supports it"
        );
    });
}

/// A request is resolved once, for both tiers: changing the variable after
/// the f32 tier resolved must move neither tier, and the report must name the
/// request that produced what it reports as selected.
#[test]
fn one_resolved_request_drives_both_tiers_and_the_report() {
    with_env_kernel("auto", || {
        let f32_tier = selected();
        std::env::set_var("SPLITBEAM_KERNEL", "scalar");
        assert_eq!(selected(), f32_tier);
        assert_eq!(
            selected_int8() == Int8Kernel::Scalar,
            selected() == Kernel::Scalar,
            "scalar pins both tiers or neither"
        );
        let report = dispatch_report();
        let produced = match report.requested {
            "scalar" => Kernel::Scalar,
            _ => Backend::host().kernel(),
        };
        assert_eq!(
            report.selected,
            produced.name(),
            "requested {} but selected {}",
            report.requested,
            report.selected
        );
    });
}

/// The PR 2 bit-exactness suite, pinned to the scalar backend: batched
/// serving, station-at-a-time serving and the fused path must all reproduce
/// one another bit-for-bit, and the wire codec must round-trip exactly.
#[test]
fn scalar_kernel_reproduces_reference_serving_outputs() {
    let m = model(5);
    let frames = station_frames(&m, 4, 6);
    let (batched_feedback, serial_feedback, fused_feedback) =
        with_kernel(KernelChoice::Scalar, || {
            let mut batched = ApServer::new();
            let mut serial = ApServer::new();
            let bkey = batched.register_model(m.clone());
            let skey = serial.register_model(m.clone());
            for (id, frame) in frames.iter().enumerate() {
                batched.register_station(id as u64, bkey, 6).unwrap();
                serial.register_station(id as u64, skey, 6).unwrap();
                batched.ingest_wire(id as u64, frame).unwrap();
                serial.ingest_wire(id as u64, frame).unwrap();
            }
            assert_eq!(
                batched.process_round().unwrap(),
                serial.close_serial(None).unwrap()
            );
            let batched_feedback: Vec<Vec<f32>> = (0..frames.len() as u64)
                .map(|id| batched.feedback_of(id).unwrap().to_vec())
                .collect();
            let serial_feedback: Vec<Vec<f32>> = (0..frames.len() as u64)
                .map(|id| serial.feedback_of(id).unwrap().to_vec())
                .collect();

            // Fused reconstruction straight from the decoded payloads.
            let payloads: Vec<QuantizedFeedback> = frames
                .iter()
                .map(|f| wire::decode_feedback(f).unwrap())
                .collect();
            let refs: Vec<&QuantizedFeedback> = payloads.iter().collect();
            let mut scratch = TailScratch::new();
            let out = m
                .reconstruct_quantized_batch_into(&refs, &mut scratch)
                .unwrap();
            let fused_feedback: Vec<Vec<f32>> = out
                .as_slice()
                .chunks_exact(out.cols())
                .map(<[f32]>::to_vec)
                .collect();
            (batched_feedback, serial_feedback, fused_feedback)
        });
    assert_eq!(
        batched_feedback, serial_feedback,
        "batched must equal serial"
    );
    assert_eq!(batched_feedback, fused_feedback, "fused must equal batched");

    // Wire roundtrip stays exact regardless of kernel.
    for frame in &frames {
        let payload = wire::decode_feedback(frame).unwrap();
        assert_eq!(&wire::encode_feedback(&payload).unwrap(), frame);
    }
}

/// Scalar and dispatched (possibly SIMD) kernels agree within the documented
/// tolerance on the full station→AP inference path, and the serving layer
/// stays batched==serial bit-exact under the SIMD backend too.
#[test]
fn simd_backend_stays_within_tolerance_and_serves_bit_exactly() {
    let m = model(7);
    let input: Vec<f32> = (0..448).map(|i| (i as f32 * 0.37).sin() * 0.1).collect();
    let scalar_out = with_kernel(KernelChoice::Scalar, || m.infer(&input).unwrap());
    let auto_out = with_kernel(KernelChoice::Auto, || m.infer(&input).unwrap());
    for (s, a) in scalar_out.iter().zip(auto_out.iter()) {
        assert!(
            (s - a).abs() <= 1e-4,
            "scalar {s} vs dispatched {a} exceeds tolerance"
        );
    }

    let frames = station_frames(&m, 3, 8);
    with_kernel(KernelChoice::Auto, || {
        let mut batched = ApServer::new();
        let mut serial = ApServer::new();
        let bkey = batched.register_model(m.clone());
        let skey = serial.register_model(m.clone());
        for (id, frame) in frames.iter().enumerate() {
            batched.register_station(id as u64, bkey, 8).unwrap();
            serial.register_station(id as u64, skey, 8).unwrap();
            batched.ingest_wire(id as u64, frame).unwrap();
            serial.ingest_wire(id as u64, frame).unwrap();
        }
        batched.process_round().unwrap();
        serial.close_serial(None).unwrap();
        for id in 0..frames.len() as u64 {
            assert_eq!(
                batched.feedback_of(id),
                serial.feedback_of(id),
                "station {id}: batched and serial must be bit-exact under SIMD dispatch"
            );
        }
    });
}

/// What 29 stations (two full 12-row tiles and a ragged third; four 6-row
/// tiles and a ragged fifth) are served under each backend, as digested at
/// the commit before the tail was packed. The FMA digest must come out of
/// the station-at-a-time oracle (row-major GEMM) and out of the batched close
/// over a tail packed at either width; the scalar digest pins that the scalar
/// backend's bytes did not move at all.
#[test]
fn served_bits_are_pinned_across_the_row_major_and_both_packed_paths() {
    const PINNED_SCALAR: u64 = 9_135_276_834_846_598_409;
    const PINNED_FMA: u64 = 4_481_357_862_424_506_489;
    const STATIONS: u64 = 29;
    const BITS: u8 = 6;
    let m = model(9);
    // Integer-derived frames, so the digests are the same on every host.
    let frames: Vec<Vec<u8>> = (0..STATIONS)
        .map(|id| synthetic_frame(&m, BITS, id * 131, (id, id)))
        .collect();
    let serve = |model: SplitBeamModel, serial: bool| {
        let mut server = ApServer::new();
        let key = server.register_model(model);
        for (id, frame) in frames.iter().enumerate() {
            server.register_station(id as u64, key, BITS).unwrap();
            server.ingest_wire(id as u64, frame).unwrap();
        }
        let summary = if serial {
            server.close_serial(None).unwrap()
        } else {
            server.process_round().unwrap()
        };
        assert_eq!(summary.served as u64, STATIONS);
        let mut digest = Fnv1a::default();
        digest.eat_round(&server, &summary, STATIONS);
        digest.0
    };
    let runs = [
        (KernelChoice::Scalar, PINNED_SCALAR, true),
        (
            KernelChoice::Auto,
            PINNED_FMA,
            Backend::host() >= Backend::Avx2,
        ),
    ];
    for (choice, pinned, available) in runs {
        if !available {
            continue;
        }
        with_kernel(choice, || {
            assert_eq!(
                serve(m.clone(), true),
                pinned,
                "{choice:?}: the station-at-a-time (row-major) path moved"
            );
            for width in [PackedWidth::Ymm, PackedWidth::Zmm] {
                assert_eq!(
                    serve(m.clone().with_tail_packing(width), false),
                    pinned,
                    "{choice:?}: the batched close over a {width:?}-packed tail moved"
                );
            }
        });
    }
}

/// What a station sends, per backend, at pool widths 1, 2 and 3: the wire
/// bytes of `compress_quantized` over the 4356 x 545 head of an untrained
/// 3x3 / 80 MHz model — 2.4 M multiply-adds, so the head's columns are
/// handed out, and 35 zmm wide, so one thread runs them in `k`-blocks. The
/// CSI rows come from integer formulas (no channel model, no libm) and the
/// head is linear, so the digests are the same on every host that runs the
/// backend. Taken before the batch-1 head had a register tile of its own.
#[test]
fn station_bytes_are_pinned_per_backend_at_every_pool_width() {
    const PINNED_SCALAR: u64 = 6_128_671_951_666_606_395;
    const PINNED_FMA: u64 = 2_370_043_168_305_335_443;
    let config = SplitBeamConfig::new(
        MimoConfig::symmetric(3, Bandwidth::Mhz80),
        CompressionLevel::OneEighth,
    );
    let m = SplitBeamModel::new(config, &mut ChaCha8Rng::seed_from_u64(32));
    assert_eq!((m.head().input_dim(), m.bottleneck_dim()), (4356, 545));
    let reports: Vec<(u8, Vec<f32>)> = [4u8, 6, 8]
        .into_iter()
        .zip(0u32..)
        .map(|(bits, r)| {
            let csi = (0..4356u32).map(|i| ((i * 37 + r * 101) % 251) as f32 / 128.0 - 0.98);
            (bits, csi.collect())
        })
        .collect();
    let digest = || {
        let mut digest = Fnv1a::default();
        for (bits, csi) in &reports {
            let payload = m.compress_quantized(csi, *bits).unwrap();
            digest.eat(&wire::encode_feedback(&payload).unwrap());
        }
        digest.0
    };
    let pools: Vec<_> = [1usize, 2, 3]
        .map(|threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
            (threads, pool.build().expect("the shim's build cannot fail"))
        })
        .into();
    let runs = [
        (KernelChoice::Scalar, PINNED_SCALAR, true),
        (
            KernelChoice::Auto,
            PINNED_FMA,
            Backend::host() >= Backend::Avx2,
        ),
    ];
    for (choice, pinned, available) in runs {
        if !available {
            continue;
        }
        with_kernel(choice, || {
            for (threads, pool) in &pools {
                let got = pool.install(digest);
                assert_eq!(
                    got, pinned,
                    "{choice:?} on {threads} threads: a station's bytes moved"
                );
            }
        });
    }
}
