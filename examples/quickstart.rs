//! Quickstart: train a small SplitBeam model for a 2x2 / 20 MHz network,
//! run the station->AP feedback round trip and compare its BER against the
//! standard 802.11 feedback.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_repro::prelude::*;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    // 1. Network configuration: a 2-antenna AP serving two single-stream stations at 20 MHz.
    let mimo = MimoConfig::symmetric(2, Bandwidth::Mhz20);
    let config = SplitBeamConfig::new(mimo, CompressionLevel::OneEighth);
    println!(
        "SplitBeam architecture: {} (K = 1/8)",
        config.architecture_label()
    );

    // 2. Generate a small training set from the environment-E1 channel model.
    let channel = ChannelModel::from_config(EnvironmentProfile::e1(), &mimo);
    let mut data = TrainingData::new(config.clone());
    for _ in 0..80 {
        data.push_snapshot(&channel.sample(&mut rng));
    }
    let (train, val) = data.split(0.85);

    // 3. Train (shortened schedule for the example).
    let options = TrainingOptions {
        epochs: 10,
        ..TrainingOptions::default()
    };
    let (model, history) = train_model(&config, &train, &val, &options, &mut rng);
    println!(
        "trained {} epochs: loss {:.4} -> {:.4}",
        options.epochs,
        history.initial_train_loss(),
        history.final_train_loss()
    );
    println!(
        "station cost: {} complex MACs (vs {} FLOPs for the 802.11 SVD+Givens pipeline)",
        splitbeam::complexity::splitbeam_head_macs(&config),
        dot11_bfi::complexity::dot11_sta_flops(2, 2, 56),
    );

    // 4. Online use on a fresh channel: SplitBeam vs 802.11 vs ideal feedback.
    let snapshot = channel.sample(&mut rng);
    let link = LinkConfig {
        snr_db: 20.0,
        ..LinkConfig::default()
    };

    let splitbeam_feedback: Vec<_> = (0..snapshot.num_users())
        .map(|u| model.feedback_for_user_quantized(&snapshot, u, 16).unwrap())
        .collect();
    let dot11_feedback: Vec<_> = (0..snapshot.num_users())
        .map(|u| {
            dot11_bfi::pipeline::dot11_feedback_roundtrip(snapshot.csi(u), 1, AngleResolution::High)
                .unwrap()
        })
        .collect();
    let ideal = snapshot.ideal_beamforming();

    for (name, feedback) in [
        ("ideal", &ideal),
        ("802.11", &dot11_feedback),
        ("SplitBeam", &splitbeam_feedback),
    ] {
        let report = simulate_mu_mimo_ber(&snapshot, feedback, &link, &mut rng).unwrap();
        println!("{name:10} BER = {:.4}", report.ber());
    }
}
