//! Cross-crate integration tests: the full SplitBeam pipeline from channel
//! generation through training to the BER link simulation, compared against
//! the 802.11 and ideal baselines.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_bench::{dataset, measure_ber, train_splitbeam, FeedbackScheme, Workload};
use splitbeam_repro::datasets::generator::GeneratedDataset;
use splitbeam_repro::prelude::*;
use splitbeam_repro::serve::driver::{build_sharded_server, link_check};

/// 60 snapshots a dataset, 6 epochs, 4 test snapshots at 20 dB.
const QUICK: Workload = Workload {
    samples: 60,
    epochs: 6,
    test_snapshots: 4,
    snr_db: 20.0,
};

fn quick_dataset(env: &str, seed: u64) -> GeneratedDataset {
    let spec = dataset_for(2, Bandwidth::Mhz20, env).unwrap();
    dataset(&spec, &QUICK, seed)
}

#[test]
fn trained_splitbeam_beats_untrained_and_tracks_dot11() {
    let data = quick_dataset("E1", 1);
    let config = SplitBeamConfig::new(
        MimoConfig::symmetric(2, Bandwidth::Mhz20),
        CompressionLevel::OneQuarter,
    );
    let (trained, _) = train_splitbeam(&config, &data, &QUICK.training(), 2);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let untrained = SplitBeamModel::new(config, &mut rng);
    let (_, _, test) = data.split_train_val_test();

    let ber = |scheme| measure_ber(&scheme, test, &QUICK, None, 4);
    let ber_trained = ber(FeedbackScheme::SplitBeam(&trained, 16));
    let ber_untrained = ber(FeedbackScheme::SplitBeam(&untrained, 16));
    let ber_ideal = ber(FeedbackScheme::Ideal);

    assert!(
        ber_trained < ber_untrained,
        "training must reduce BER: trained {ber_trained} vs untrained {ber_untrained}"
    );
    assert!(
        ber_ideal <= ber_trained + 0.05,
        "ideal feedback should be at least as good"
    );
}

#[test]
fn dot11_pipeline_integrates_with_link_simulation() {
    let data = quick_dataset("E2", 5);
    let (_, _, test) = data.split_train_val_test();
    let ber = |scheme| measure_ber(&scheme, test, &QUICK, None, 6);
    let ber_dot11 = ber(FeedbackScheme::Dot11(AngleResolution::High));
    let ber_ideal = ber(FeedbackScheme::Ideal);
    // High-resolution quantization should track the ideal feedback closely.
    assert!(ber_dot11 < 0.2, "802.11 BER {ber_dot11} unexpectedly high");
    assert!(ber_dot11 + 1e-9 >= ber_ideal - 0.05);
}

#[test]
fn splitbeam_feedback_is_much_smaller_and_cheaper_than_dot11() {
    let config = SplitBeamConfig::new(
        MimoConfig::symmetric(3, Bandwidth::Mhz80),
        CompressionLevel::OneEighth,
    );
    let sb_bits = splitbeam_repro::splitbeam::airtime::model_feedback_bits(&config, 16);
    let dot11_bits = dot11_bfi::feedback::paper_report_bits(3, 242);
    assert!(
        (sb_bits as f64) < 0.35 * dot11_bits as f64,
        "SplitBeam feedback ({sb_bits} bits) should be far below 802.11 ({dot11_bits} bits)"
    );
    // The computational advantage is evaluated at 20 MHz; at 80 MHz the dense
    // head's quadratic subcarrier scaling erodes it (Fig. 6).
    let narrow = SplitBeamConfig::new(
        MimoConfig::symmetric(3, Bandwidth::Mhz20),
        CompressionLevel::OneEighth,
    );
    let sb_macs = splitbeam_repro::splitbeam::complexity::splitbeam_head_macs(&narrow);
    let dot11_flops = dot11_bfi::complexity::dot11_sta_flops(3, 3, 56);
    assert!((sb_macs as f64) < 0.8 * dot11_flops as f64);
}

#[test]
fn end_to_end_delay_meets_the_10ms_budget() {
    use splitbeam_repro::hwsim::accelerator::AcceleratorModel;
    use splitbeam_repro::hwsim::delay::{end_to_end_delay_from_config_s, DelayBudget};
    use wifi_phy::sounding::SoundingConfig;

    for order in [2usize, 3, 4] {
        for bw in [Bandwidth::Mhz20, Bandwidth::Mhz80, Bandwidth::Mhz160] {
            let config = SplitBeamConfig::new(
                MimoConfig::symmetric(order, bw),
                CompressionLevel::OneQuarter,
            );
            let accel = AcceleratorModel::zynq_200mhz(order, order);
            let sounding = SoundingConfig::new(bw, order);
            let delay = end_to_end_delay_from_config_s(&config, &accel, &sounding, 16);
            assert!(
                delay.total_s() <= DelayBudget::default().max_delay_s,
                "{order}x{order} @ {bw}: delay {} s exceeds 10 ms",
                delay.total_s()
            );
        }
    }
}

/// The int8 tail's accuracy guardrail: the same quick-trained model, serving
/// the same wire frames with int8 tail weights, keeps the MU-MIMO link BER
/// inside the f32 envelope. Int8 weight rounding may move the BER a little at
/// a finite test size; a real accuracy regression blows well past the margin.
#[test]
fn int8_served_link_ber_stays_within_the_f32_envelope() {
    use splitbeam_repro::splitbeam::TailWeights;
    let data = quick_dataset("E1", 21);
    let config = SplitBeamConfig::new(
        MimoConfig::symmetric(2, Bandwidth::Mhz20),
        CompressionLevel::OneQuarter,
    );
    let (trained, _) = train_splitbeam(&config, &data, &QUICK.training(), 22);
    let sim = SimConfig {
        rounds: 2,
        bits_per_value: 8,
        drop_every: 0,
        ..SimConfig::default()
    };
    let traffic = generate_traffic(&sim, &trained, &mut ChaCha8Rng::seed_from_u64(23));
    let served_ber = |weights: TailWeights| {
        let mut server = build_sharded_server(trained.clone(), sim.stations, sim.bits_per_value, 1);
        server.set_tail_weights(weights);
        serve_traffic(&mut server, &traffic, ServeMode::Batched).unwrap();
        // Same link-noise seed for both precisions.
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let report = link_check(&server, &traffic, 0, sim.snr_db, &mut rng).unwrap();
        assert!(!report.per_user_bits.is_empty(), "link check ran no group");
        report.ber()
    };
    let f32_ber = served_ber(TailWeights::F32);
    let int8_ber = served_ber(TailWeights::Int8);
    assert!(
        int8_ber.is_finite() && f32_ber.is_finite() && int8_ber <= f32_ber * 1.15 + 0.01,
        "int8-served BER {int8_ber} outside the f32 envelope (f32 {f32_ber})"
    );
}
