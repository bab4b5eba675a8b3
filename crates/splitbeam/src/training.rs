//! Supervised training of SplitBeam models (Section IV-D).
//!
//! Training examples pair a station's flattened CSI tensor `H` with the
//! corresponding ideal beamforming feedback `V` (obtained by SVD and
//! phase-canonicalized so the regression target is well defined — the SVD's
//! per-column phase is arbitrary, and the standard itself discards it).
//! Real and imaginary parts are decoupled into a double-length real vector,
//! exactly as described in the paper.

use crate::config::SplitBeamConfig;
use crate::model::SplitBeamModel;
use dot11_bfi::givens::canonicalize_column_phases;
use neural::loss::Loss;
use neural::network::Network;
use neural::optimizer::OptimizerKind;
use neural::trainer::{Example, TrainConfig, TrainHistory, Trainer};
use rand::Rng;
use wifi_phy::channel::ChannelSnapshot;

/// A labelled dataset of (CSI, beamforming feedback) pairs for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingData {
    config: SplitBeamConfig,
    examples: Vec<Example>,
}

impl TrainingData {
    /// Creates an empty dataset for the given configuration.
    pub fn new(config: SplitBeamConfig) -> Self {
        Self {
            config,
            examples: Vec::new(),
        }
    }

    /// The configuration the examples belong to.
    pub fn config(&self) -> &SplitBeamConfig {
        &self.config
    }

    /// Number of examples collected so far.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Read-only view of the examples.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// Adds one example per station of a channel snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot's dimensions do not match the configuration.
    pub fn push_snapshot(&mut self, snapshot: &ChannelSnapshot) {
        assert_eq!(snapshot.nt(), self.config.mimo.nt, "Nt mismatch");
        assert_eq!(snapshot.nr(), self.config.mimo.nr, "Nr mismatch");
        assert_eq!(snapshot.nss(), self.config.mimo.nss, "Nss mismatch");
        assert_eq!(
            snapshot.subcarriers(),
            self.config.mimo.subcarriers(),
            "subcarrier mismatch"
        );
        let ideal = snapshot.ideal_beamforming();
        for (user, ideal_user) in ideal.iter().enumerate().take(snapshot.num_users()) {
            let input: Vec<f32> = snapshot
                .csi_real_vector(user)
                .into_iter()
                .map(|v| v as f32)
                .collect();
            let mut target = Vec::with_capacity(self.config.output_dim());
            for v in ideal_user {
                let canonical = canonicalize_column_phases(v);
                target.extend(canonical.to_real_vec().into_iter().map(|v| v as f32));
            }
            self.examples.push((input, target));
        }
    }

    /// Splits the dataset into two contiguous parts; `fraction` goes to the first.
    ///
    /// Whenever the dataset holds at least two examples the cut is clamped so
    /// *both* sides are non-empty: rounding must not silently hand
    /// `train_model` an empty validation (or training) split — e.g. `len = 3`
    /// with `fraction = 0.9` used to round the cut to 3 and train with no
    /// validation loss at all.
    pub fn split(&self, fraction: f64) -> (Vec<Example>, Vec<Example>) {
        let len = self.examples.len();
        let cut = ((len as f64) * fraction).round() as usize;
        let cut = if len >= 2 {
            cut.clamp(1, len - 1)
        } else {
            cut.min(len)
        };
        (self.examples[..cut].to_vec(), self.examples[cut..].to_vec())
    }

    /// Splits into train/validation/test with the paper's 8:1:1 ratio.
    pub fn split_train_val_test(&self) -> (Vec<Example>, Vec<Example>, Vec<Example>) {
        let n = self.examples.len();
        let train_end = n * 8 / 10;
        let val_end = n * 9 / 10;
        (
            self.examples[..train_end].to_vec(),
            self.examples[train_end..val_end].to_vec(),
            self.examples[val_end..].to_vec(),
        )
    }
}

/// Hyper-parameters of a SplitBeam training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingOptions {
    /// Number of epochs (the paper uses 40).
    pub epochs: usize,
    /// Mini-batch size (the paper uses 16).
    pub batch_size: usize,
    /// Initial learning rate (the paper uses 1e-3).
    pub learning_rate: f32,
    /// Training objective (the paper's Eq. 8 normalized L1 by default).
    pub loss: Loss,
    /// Use Adam (`true`, used for measured datasets) or plain SGD (`false`,
    /// used for the synthetic datasets).
    pub use_adam: bool,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        Self {
            epochs: 40,
            batch_size: 16,
            learning_rate: 1e-3,
            loss: Loss::NormalizedL1,
            use_adam: true,
        }
    }
}

impl TrainingOptions {
    /// A drastically shortened configuration for unit tests and quick demos.
    pub fn quick() -> Self {
        Self {
            epochs: 4,
            ..Self::default()
        }
    }

    fn optimizer(&self) -> OptimizerKind {
        if self.use_adam {
            OptimizerKind::Adam {
                learning_rate: self.learning_rate,
            }
        } else {
            OptimizerKind::Sgd {
                learning_rate: self.learning_rate,
                momentum: 0.9,
            }
        }
    }
}

/// Trains a SplitBeam model for `config` on the given train/validation splits.
///
/// Returns the trained (best-validation) model and the training history.
pub fn train_model(
    config: &SplitBeamConfig,
    train: &[Example],
    validation: &[Example],
    options: &TrainingOptions,
    rng: &mut impl Rng,
) -> (SplitBeamModel, TrainHistory) {
    let mut network = Network::new(&config.layer_specs(), rng);
    let trainer = Trainer::new(
        TrainConfig {
            epochs: options.epochs,
            batch_size: options.batch_size,
            ..TrainConfig::default()
        },
        options.loss,
        options.optimizer(),
    );
    let history = trainer.fit(&mut network, train, validation, rng);
    (
        SplitBeamModel::from_full_network(config.clone(), network),
        history,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressionLevel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};

    fn config() -> SplitBeamConfig {
        SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneQuarter,
        )
    }

    fn build_dataset(seed: u64, snapshots: usize) -> TrainingData {
        let cfg = config();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let channel = ChannelModel::from_config(EnvironmentProfile::e1(), &cfg.mimo);
        let mut data = TrainingData::new(cfg);
        for _ in 0..snapshots {
            let snap = channel.sample(&mut rng);
            data.push_snapshot(&snap);
        }
        data
    }

    /// A snapshot whose station has another receive-antenna count than the
    /// configuration is refused by name, in every build profile.
    #[test]
    #[should_panic(expected = "Nr mismatch")]
    fn a_snapshot_with_other_receive_antennas_is_refused() {
        let cfg = config();
        let (nt, nr) = (cfg.mimo.nt, cfg.mimo.nr + 1);
        let channel = ChannelModel::with_rx_antennas(
            EnvironmentProfile::e1(),
            Bandwidth::Mhz20,
            nt,
            nr,
            1,
            1,
        );
        let snap = channel.sample(&mut ChaCha8Rng::seed_from_u64(9));
        TrainingData::new(cfg).push_snapshot(&snap);
    }

    #[test]
    fn dataset_dimensions() {
        let data = build_dataset(1, 5);
        // 2 stations per snapshot.
        assert_eq!(data.len(), 10);
        let (input, target) = &data.examples()[0];
        assert_eq!(input.len(), 448);
        assert_eq!(target.len(), 224);
    }

    #[test]
    fn split_ratios() {
        let data = build_dataset(2, 10);
        let (a, b) = data.split(0.8);
        assert_eq!(a.len(), 16);
        assert_eq!(b.len(), 4);
        let (train, val, test) = data.split_train_val_test();
        assert_eq!(train.len(), 16);
        assert_eq!(val.len(), 2);
        assert_eq!(test.len(), 2);
    }

    #[test]
    fn split_never_returns_an_empty_side_for_two_plus_examples() {
        // Regression: len = 3, fraction = 0.9 rounded the cut to 3, leaving an
        // empty validation split.
        let cfg = config();
        let mut data = TrainingData::new(cfg.clone());
        for _ in 0..3 {
            data.examples
                .push((vec![0.0; cfg.input_dim()], vec![0.0; cfg.output_dim()]));
        }
        let (train, val) = data.split(0.9);
        assert_eq!((train.len(), val.len()), (2, 1));
        let (train, val) = data.split(0.05);
        assert_eq!((train.len(), val.len()), (1, 2));
        // Degenerate sizes keep their old behavior.
        let mut tiny = TrainingData::new(cfg.clone());
        assert_eq!(tiny.split(0.9).0.len(), 0);
        tiny.examples
            .push((vec![0.0; cfg.input_dim()], vec![0.0; cfg.output_dim()]));
        let (a, b) = tiny.split(0.9);
        assert_eq!((a.len(), b.len()), (1, 0));
    }

    /// Mean squared reconstruction error of a model over `examples`.
    fn reconstruction_mse(model: &SplitBeamModel, examples: &[Example]) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for (input, target) in examples {
            let pred = model.infer(input).unwrap();
            for (p, t) in pred.iter().zip(target) {
                total += f64::from(p - t).powi(2);
            }
            count += target.len();
        }
        total / count as f64
    }

    #[test]
    fn training_improves_over_untrained_model() {
        let data = build_dataset(3, 30);
        let (train, val) = data.split(0.8);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let untrained = SplitBeamModel::new(data.config().clone(), &mut rng);
        let untrained_mse = reconstruction_mse(&untrained, &val);

        let options = TrainingOptions {
            epochs: 8,
            ..TrainingOptions::default()
        };
        let mut rng2 = ChaCha8Rng::seed_from_u64(5);
        let (model, history) = train_model(data.config(), &train, &val, &options, &mut rng2);
        let trained_mse = reconstruction_mse(&model, &val);
        assert!(
            trained_mse < untrained_mse,
            "training should reduce reconstruction error ({trained_mse} vs {untrained_mse})"
        );
        assert_eq!(history.train_loss.len(), 8);
        assert!(history.final_train_loss() < history.initial_train_loss());
    }

    #[test]
    fn targets_are_unit_norm_per_subcarrier() {
        let data = build_dataset(6, 2);
        let (_, target) = &data.examples()[0];
        // Each subcarrier contributes 4 reals (2 complex) with unit total norm.
        for chunk in target.chunks(4) {
            let norm: f32 = chunk.iter().map(|v| v * v).sum();
            assert!((norm - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn quick_options_are_shorter() {
        assert!(TrainingOptions::quick().epochs < TrainingOptions::default().epochs);
        assert_eq!(TrainingOptions::default().epochs, 40);
        assert_eq!(TrainingOptions::default().batch_size, 16);
    }
}
