//! Integration tests of the dataset substrate: the two simulated environments
//! must be statistically distinct, and the generated datasets must plug
//! directly into SplitBeam training.

use splitbeam_repro::prelude::*;

#[test]
fn environments_are_statistically_distinct() {
    let e1 = EnvironmentProfile::e1();
    let e2 = EnvironmentProfile::e2();
    assert!(e2.taps.len() > e1.taps.len());
    assert!(e2.doppler_hz > e1.doppler_hz);
}

#[test]
fn catalog_covers_every_paper_configuration() {
    let catalog = dataset_catalog();
    assert_eq!(catalog.len(), 15);
    for order in [2usize, 3] {
        for bw in [Bandwidth::Mhz20, Bandwidth::Mhz40, Bandwidth::Mhz80] {
            for env in ["E1", "E2"] {
                assert!(
                    dataset_for(order, bw, env).is_ok(),
                    "{order}x{order} {bw} {env} missing"
                );
            }
        }
    }
    for order in [2usize, 3, 4] {
        assert!(dataset_for(order, Bandwidth::Mhz160, "Model-B").is_ok());
    }
}

#[test]
fn generated_dataset_feeds_training_data() {
    let spec = dataset_for(2, Bandwidth::Mhz40, "E2").unwrap();
    let generated = generate_dataset(&spec, &GeneratorOptions::quick(25, 9)).unwrap();
    let config = SplitBeamConfig::new(spec.mimo, CompressionLevel::OneSixteenth);
    let mut data = TrainingData::new(config.clone());
    for snap in &generated.snapshots {
        data.push_snapshot(snap);
    }
    assert!(data.len() >= generated.len()); // one example per station per snapshot
    let (input, target) = &data.examples()[0];
    assert_eq!(input.len(), config.input_dim());
    assert_eq!(target.len(), config.output_dim());
}

#[test]
fn dot11_and_splitbeam_agree_on_dimensions() {
    // The reconstructed 802.11 matrices and the SplitBeam feedback matrices must
    // have identical shapes so they are interchangeable in the precoder.
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let mimo = MimoConfig::symmetric(3, Bandwidth::Mhz20);
    let channel = ChannelModel::from_config(EnvironmentProfile::e1(), &mimo);
    let snap = channel.sample(&mut rng);

    let dot11 =
        dot11_bfi::pipeline::dot11_feedback_roundtrip(snap.csi(0), 1, AngleResolution::High)
            .unwrap();
    let config = SplitBeamConfig::new(mimo, CompressionLevel::OneEighth);
    let model = SplitBeamModel::new(config, &mut rng);
    let sb = model.feedback_for_user(&snap, 0).unwrap();
    assert_eq!(dot11.len(), sb.len());
    assert_eq!(dot11[0].shape(), sb[0].shape());
}
