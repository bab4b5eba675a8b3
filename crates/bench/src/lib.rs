//! Shared harness used by the figure/table binaries of the SplitBeam evaluation.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper. The
//! heavy lifting — generating a dataset, training a SplitBeam model (and the
//! LB-SciFi baseline), and measuring BER over the held-out test split — lives
//! here so the binaries stay small and consistent.
//!
//! The default workload sizes are deliberately modest so every figure can be
//! regenerated on a laptop in minutes; set the environment variables
//! `SPLITBEAM_SAMPLES` (CSI snapshots per dataset), `SPLITBEAM_EPOCHS`
//! (training epochs) and `SPLITBEAM_TEST_SNAPSHOTS` to approach the paper's
//! full-scale runs.

use dot11_bfi::quantize::AngleResolution;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam::training::{train_model, TrainingData, TrainingOptions};
use splitbeam_baselines::dot11::dot11_feedback_for_snapshot;
use splitbeam_baselines::lbscifi::{angle_vector_for_user, LbSciFiConfig, LbSciFiModel};
use splitbeam_datasets::catalog::DatasetSpec;
use splitbeam_datasets::generator::{generate_dataset, GeneratedDataset, GeneratorOptions};
use wifi_phy::channel::ChannelSnapshot;
use wifi_phy::coding::CodeRate;
use wifi_phy::link::{simulate_mu_mimo_ber, LinkConfig, LinkReport};
use wifi_phy::precoding::BeamformingFeedback;

/// Workload-size knobs, resolved from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// CSI snapshots generated per dataset.
    pub samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Test snapshots evaluated with the link simulator.
    pub test_snapshots: usize,
    /// Link-simulation SNR in dB.
    pub snr_db: f64,
}

impl Default for Workload {
    fn default() -> Self {
        Self {
            samples: 120,
            epochs: 10,
            test_snapshots: 8,
            snr_db: 18.0,
        }
    }
}

impl Workload {
    /// Reads the workload from `SPLITBEAM_SAMPLES`, `SPLITBEAM_EPOCHS`,
    /// `SPLITBEAM_TEST_SNAPSHOTS` and `SPLITBEAM_SNR_DB`, falling back to the
    /// quick defaults.
    pub fn from_env() -> Self {
        use mimo_math::env::parse_or;
        let default = Self::default();
        Self {
            samples: parse_or("SPLITBEAM_SAMPLES", default.samples),
            epochs: parse_or("SPLITBEAM_EPOCHS", default.epochs),
            test_snapshots: parse_or("SPLITBEAM_TEST_SNAPSHOTS", default.test_snapshots),
            snr_db: parse_or("SPLITBEAM_SNR_DB", default.snr_db),
        }
    }
}

/// Generates (or regenerates) the dataset of one Table I entry at the workload size.
pub fn dataset(spec: &DatasetSpec, workload: &Workload, seed: u64) -> GeneratedDataset {
    let mut options = GeneratorOptions::quick(workload.samples, seed);
    // The moving median over hundreds of subcarriers is the slowest part of the
    // capture pipeline; keep it for the measured-equivalent bandwidths and skip
    // it for the very wide synthetic configurations.
    if spec.mimo.subcarriers() > 242 {
        options.capture.median_window = 1;
    }
    generate_dataset(spec, &options).expect("dataset generation cannot fail for catalog specs")
}

/// Builds SplitBeam training data from generated snapshots.
pub fn training_data(config: &SplitBeamConfig, snapshots: &[ChannelSnapshot]) -> TrainingData {
    let mut data = TrainingData::new(config.clone());
    for snap in snapshots {
        data.push_snapshot(snap);
    }
    data
}

/// Trains one SplitBeam model on a generated dataset.
pub fn train_splitbeam(
    config: &SplitBeamConfig,
    generated: &GeneratedDataset,
    workload: &Workload,
    seed: u64,
) -> SplitBeamModel {
    let (train_snaps, val_snaps, _) = generated.split_train_val_test();
    let train = training_data(config, train_snaps);
    let val = training_data(config, val_snaps);
    let options = TrainingOptions {
        epochs: workload.epochs,
        ..TrainingOptions::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (model, _history) =
        train_model(config, train.examples(), val.examples(), &options, &mut rng);
    model
}

/// Trains an LB-SciFi autoencoder on the same snapshots.
pub fn train_lbscifi(
    config: &LbSciFiConfig,
    generated: &GeneratedDataset,
    workload: &Workload,
    seed: u64,
) -> LbSciFiModel {
    let (train_snaps, _, _) = generated.split_train_val_test();
    let mut vectors = Vec::new();
    for snap in train_snaps {
        for user in 0..snap.num_users() {
            if let Ok(v) = angle_vector_for_user(snap, user) {
                vectors.push(v);
            }
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = LbSciFiModel::new(config.clone(), &mut rng);
    model.train(&vectors, workload.epochs, &mut rng);
    model
}

/// Which feedback scheme produces the beamforming matrices handed to the AP.
pub enum FeedbackScheme<'a> {
    /// Ideal (unquantized SVD) feedback — the upper bound.
    Ideal,
    /// The standard 802.11 quantized Givens feedback.
    Dot11(AngleResolution),
    /// A trained SplitBeam model (quantized bottleneck, 16 bits/value).
    SplitBeam(&'a SplitBeamModel),
    /// A trained LB-SciFi autoencoder.
    LbSciFi(&'a LbSciFiModel),
}

/// Produces the per-user feedback for one snapshot under a scheme.
pub fn feedback_for(
    scheme: &FeedbackScheme<'_>,
    snapshot: &ChannelSnapshot,
) -> Option<BeamformingFeedback> {
    match scheme {
        FeedbackScheme::Ideal => Some(snapshot.ideal_beamforming()),
        FeedbackScheme::Dot11(resolution) => {
            dot11_feedback_for_snapshot(snapshot, *resolution).ok()
        }
        FeedbackScheme::SplitBeam(model) => {
            let mut out = Vec::with_capacity(snapshot.num_users());
            for user in 0..snapshot.num_users() {
                out.push(model.feedback_for_user_quantized(snapshot, user, 16).ok()?);
            }
            Some(out)
        }
        FeedbackScheme::LbSciFi(model) => {
            let mut out = Vec::with_capacity(snapshot.num_users());
            for user in 0..snapshot.num_users() {
                out.push(model.feedback_for_user(snapshot, user).ok()?);
            }
            Some(out)
        }
    }
}

/// Measures the BER of a feedback scheme over the test split of a dataset.
pub fn measure_ber(
    scheme: &FeedbackScheme<'_>,
    test_snapshots: &[ChannelSnapshot],
    workload: &Workload,
    coding: Option<CodeRate>,
    seed: u64,
) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let link = LinkConfig {
        snr_db: workload.snr_db,
        symbols_per_subcarrier: 1,
        coding,
        ..LinkConfig::default()
    };
    let mut report = LinkReport::empty();
    for snap in test_snapshots.iter().take(workload.test_snapshots) {
        if let Some(feedback) = feedback_for(scheme, snap) {
            if let Ok(r) = simulate_mu_mimo_ber(snap, &feedback, &link, &mut rng) {
                report.merge(&r);
            }
        }
    }
    report.ber()
}

/// The standard compression levels swept by most figures.
pub fn standard_levels() -> Vec<CompressionLevel> {
    CompressionLevel::STANDARD.to_vec()
}

/// Prints a table header followed by aligned rows (simple fixed-width output
/// matching the series the paper plots).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbeam_datasets::catalog::dataset_for;
    use wifi_phy::ofdm::Bandwidth;

    fn tiny_workload() -> Workload {
        Workload {
            samples: 30,
            epochs: 2,
            test_snapshots: 2,
            snr_db: 18.0,
        }
    }

    #[test]
    fn end_to_end_pipeline_produces_finite_ber() {
        let workload = tiny_workload();
        let spec = dataset_for(2, Bandwidth::Mhz20, "E1").unwrap();
        let generated = dataset(&spec, &workload, 1);
        let config = SplitBeamConfig::new(spec.mimo, CompressionLevel::OneQuarter);
        let model = train_splitbeam(&config, &generated, &workload, 2);
        let (_, _, test) = generated.split_train_val_test();
        let ber_sb = measure_ber(&FeedbackScheme::SplitBeam(&model), test, &workload, None, 3);
        let ber_ideal = measure_ber(&FeedbackScheme::Ideal, test, &workload, None, 3);
        assert!(ber_sb.is_finite() && (0.0..=0.5).contains(&ber_sb));
        assert!(ber_ideal <= ber_sb + 0.5);
    }

    #[test]
    fn workload_from_env_defaults() {
        let w = Workload::from_env();
        assert!(w.samples > 0 && w.epochs > 0 && w.test_snapshots > 0);
    }

    #[test]
    fn dot11_scheme_produces_feedback() {
        let workload = tiny_workload();
        let spec = dataset_for(2, Bandwidth::Mhz20, "E2").unwrap();
        let generated = dataset(&spec, &workload, 4);
        let snap = &generated.snapshots[0];
        let feedback = feedback_for(&FeedbackScheme::Dot11(AngleResolution::High), snap).unwrap();
        assert_eq!(feedback.len(), 2);
    }
}
