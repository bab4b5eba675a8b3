//! Mini-batch training loop with validation-best checkpointing.
//!
//! Mirrors the training procedure of Section IV-D: mini-batches of 16, 40
//! epochs, the step learning-rate schedule, and keeping the parameters that
//! achieve the best validation metric (the paper validates on BER; callers can
//! supply any scalar metric through [`Trainer::fit_with_metric`], defaulting to
//! the validation loss).

use crate::loss::Loss;
use crate::network::{Network, TrainScratch};
use crate::optimizer::{Optimizer, OptimizerKind, StepSchedule};
use crate::tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// One supervised example: an input vector and its target vector.
pub type Example = (Vec<f32>, Vec<f32>);

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: StepSchedule,
    /// Whether to shuffle the training split every epoch.
    pub shuffle: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 40,
            batch_size: 16,
            schedule: StepSchedule::paper_default(),
            shuffle: true,
        }
    }
}

/// Loss trajectory of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainHistory {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Validation metric per epoch (validation loss unless a custom metric is supplied).
    pub validation_metric: Vec<f32>,
    /// Epoch index whose parameters were kept (best validation metric).
    pub best_epoch: usize,
}

impl TrainHistory {
    /// Training loss of the first epoch.
    pub fn initial_train_loss(&self) -> f32 {
        self.train_loss.first().copied().unwrap_or(f32::NAN)
    }

    /// Training loss of the last epoch.
    pub fn final_train_loss(&self) -> f32 {
        self.train_loss.last().copied().unwrap_or(f32::NAN)
    }
}

/// A reusable training harness.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    loss: Loss,
    optimizer_kind: OptimizerKind,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig, loss: Loss, optimizer_kind: OptimizerKind) -> Self {
        Self {
            config,
            loss,
            optimizer_kind,
        }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `network` on `train` while tracking the validation loss on
    /// `validation`; the network is left with the parameters of the best epoch.
    pub fn fit(
        &self,
        network: &mut Network,
        train: &[Example],
        validation: &[Example],
        rng: &mut impl Rng,
    ) -> TrainHistory {
        let loss = self.loss;
        self.fit_with_metric(network, train, validation, rng, |net, val| {
            if val.is_empty() {
                f32::INFINITY
            } else {
                let (x, t) = batch_matrices(val);
                match net.forward(&x) {
                    Ok(pred) => loss.evaluate(&pred, &t),
                    Err(_) => f32::INFINITY,
                }
            }
        })
    }

    /// Trains `network`, using `metric` (lower is better) evaluated on the
    /// validation split after every epoch to select the parameters to keep —
    /// the paper evaluates the achieved BER here.
    ///
    /// The loop holds one `TrainScratch` for the whole run: batch matrices,
    /// per-layer activations, gradient buffers and optimizer state are all
    /// reused across batches and epochs, so after the first batch a training
    /// step performs no heap allocation; the best-epoch checkpoint is one
    /// more such buffer. An improving epoch only marks the network as the
    /// best so far; the checkpoint is copied before the next epoch's first
    /// step moves the weights (allocated at the first such copy, overwritten
    /// at every later one), so an improvement in the last epoch, where the
    /// network itself is returned, copies nothing. The arithmetic is
    /// element-for-element identical to the original allocating loop (kept
    /// as `fit_with_metric_reference` for the equivalence test), so loss
    /// curves do not drift.
    pub fn fit_with_metric<M>(
        &self,
        network: &mut Network,
        train: &[Example],
        validation: &[Example],
        rng: &mut impl Rng,
        mut metric: M,
    ) -> TrainHistory
    where
        M: FnMut(&Network, &[Example]) -> f32,
    {
        assert!(!train.is_empty(), "training split must not be empty");
        let mut optimizer = Optimizer::new(self.optimizer_kind, network.layers().len());
        let mut indices: Vec<usize> = (0..train.len()).collect();

        let mut history = TrainHistory {
            train_loss: Vec::with_capacity(self.config.epochs),
            validation_metric: Vec::with_capacity(self.config.epochs),
            best_epoch: 0,
        };
        let mut best_metric = f32::INFINITY;
        let mut best_params: Option<Network> = None;
        // The network holds the best epoch's parameters, not yet copied.
        let mut network_is_best = false;

        let mut scratch = TrainScratch::new();
        let mut x = Matrix::zeros(1, 1);
        let mut t = Matrix::zeros(1, 1);
        let mut grad = Matrix::zeros(1, 1);

        for epoch in 0..self.config.epochs {
            if std::mem::take(&mut network_is_best) {
                match &mut best_params {
                    Some(best) => best.copy_from(network),
                    None => best_params = Some(network.clone()),
                }
            }
            if self.config.shuffle {
                indices.shuffle(rng);
            }
            let lr_factor = self.config.schedule.factor_at(epoch);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in indices.chunks(self.config.batch_size.max(1)) {
                fill_batch(train, chunk, &mut x, &mut t);
                network.forward_training_into(&x, &mut scratch);
                epoch_loss += self.loss.evaluate(scratch.prediction(), &t);
                batches += 1;
                self.loss.gradient_into(scratch.prediction(), &t, &mut grad);
                network.backward_into(&x, &grad, &mut scratch, (&mut optimizer, lr_factor));
            }
            history.train_loss.push(epoch_loss / batches.max(1) as f32);

            let val_metric = metric(network, validation);
            history.validation_metric.push(val_metric);
            if val_metric < best_metric {
                best_metric = val_metric;
                history.best_epoch = epoch;
                network_is_best = true;
            }
        }

        match best_params {
            // The last epoch improved: the network is the best epoch's.
            _ if network_is_best => {}
            Some(best) => *network = best,
            // No epoch beat +inf (an empty validation split, a NaN metric):
            // the network keeps the last epoch's parameters, so that is the
            // epoch the history names.
            None => history.best_epoch = self.config.epochs.saturating_sub(1),
        }
        history
    }

    /// The original allocating training loop, kept verbatim as the behavioral
    /// reference for the buffer-reusing [`Trainer::fit_with_metric`].
    #[cfg(test)]
    pub fn fit_with_metric_reference<M>(
        &self,
        network: &mut Network,
        train: &[Example],
        validation: &[Example],
        rng: &mut impl Rng,
        mut metric: M,
    ) -> TrainHistory
    where
        M: FnMut(&Network, &[Example]) -> f32,
    {
        assert!(!train.is_empty(), "training split must not be empty");
        let mut optimizer = Optimizer::new(self.optimizer_kind, network.layers().len());
        let mut indices: Vec<usize> = (0..train.len()).collect();

        let mut history = TrainHistory {
            train_loss: Vec::with_capacity(self.config.epochs),
            validation_metric: Vec::with_capacity(self.config.epochs),
            best_epoch: 0,
        };
        let mut best_metric = f32::INFINITY;
        let mut best_params: Option<Network> = None;

        for epoch in 0..self.config.epochs {
            if self.config.shuffle {
                indices.shuffle(rng);
            }
            let lr_factor = self.config.schedule.factor_at(epoch);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in indices.chunks(self.config.batch_size.max(1)) {
                let examples: Vec<&Example> = chunk.iter().map(|&i| &train[i]).collect();
                let (x, t) = batch_matrices_ref(&examples);
                let (pred, caches) = network.forward_training(&x);
                epoch_loss += self.loss.evaluate(&pred, &t);
                batches += 1;
                let grad = self.loss.gradient(&pred, &t);
                let grads = network.backward(&caches, &grad);
                optimizer.step(network, &grads, lr_factor);
            }
            history.train_loss.push(epoch_loss / batches.max(1) as f32);

            let val_metric = metric(network, validation);
            history.validation_metric.push(val_metric);
            if val_metric < best_metric {
                best_metric = val_metric;
                history.best_epoch = epoch;
                best_params = Some(network.clone());
            }
        }

        if let Some(best) = best_params {
            *network = best;
        }
        history
    }
}

/// Fills the reusable batch matrices from the selected training examples.
fn fill_batch(train: &[Example], chunk: &[usize], x: &mut Matrix, t: &mut Matrix) {
    let batch = chunk.len();
    let in_dim = train[chunk[0]].0.len();
    let out_dim = train[chunk[0]].1.len();
    x.reshape_zeroed(batch, in_dim);
    t.reshape_zeroed(batch, out_dim);
    for (row, &idx) in chunk.iter().enumerate() {
        let (input, target) = &train[idx];
        x.as_mut_slice()[row * in_dim..(row + 1) * in_dim].copy_from_slice(input);
        t.as_mut_slice()[row * out_dim..(row + 1) * out_dim].copy_from_slice(target);
    }
}

/// Stacks examples into `(inputs, targets)` batch matrices.
fn batch_matrices(examples: &[Example]) -> (Matrix, Matrix) {
    let refs: Vec<&Example> = examples.iter().collect();
    batch_matrices_ref(&refs)
}

fn batch_matrices_ref(examples: &[&Example]) -> (Matrix, Matrix) {
    let batch = examples.len();
    let in_dim = examples[0].0.len();
    let out_dim = examples[0].1.len();
    let mut x = Matrix::zeros(batch, in_dim);
    let mut t = Matrix::zeros(batch, out_dim);
    for (row, (input, target)) in examples.iter().enumerate() {
        x.as_mut_slice()[row * in_dim..(row + 1) * in_dim].copy_from_slice(input);
        t.as_mut_slice()[row * out_dim..(row + 1) * out_dim].copy_from_slice(target);
    }
    (x, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::network::LayerSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn linear_dataset(n: usize) -> Vec<Example> {
        (0..n)
            .map(|i| {
                let x: Vec<f32> = (0..3)
                    .map(|j| (((i * 7 + j * 13) % 11) as f32 - 5.0) / 5.0)
                    .collect();
                let y = vec![x[0] + 0.5 * x[1] - x[2], -x[0] + x[2]];
                (x, y)
            })
            .collect()
    }

    fn default_network(seed: u64) -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Network::new(
            &[
                LayerSpec::new(3, 16, Activation::Tanh),
                LayerSpec::new(16, 2, Activation::Identity),
            ],
            &mut rng,
        )
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let data = linear_dataset(128);
        let (train, val) = data.split_at(100);
        let mut net = default_network(2);
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 30,
                batch_size: 16,
                ..TrainConfig::default()
            },
            Loss::Mse,
            OptimizerKind::Adam {
                learning_rate: 0.01,
            },
        );
        let history = trainer.fit(&mut net, train, val, &mut rng);
        assert_eq!(history.train_loss.len(), 30);
        assert!(history.final_train_loss() < history.initial_train_loss() * 0.2);
        assert!(history.validation_metric[history.best_epoch] < 0.1);
    }

    #[test]
    fn best_epoch_parameters_are_kept() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let data = linear_dataset(64);
        let (train, val) = data.split_at(48);
        let mut net = default_network(4);
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 10,
                batch_size: 8,
                ..TrainConfig::default()
            },
            Loss::Mse,
            OptimizerKind::Adam {
                learning_rate: 0.01,
            },
        );
        let history = trainer.fit(&mut net, train, val, &mut rng);
        // Validation loss of the returned network equals the recorded best metric.
        let (x, t) = super::batch_matrices(val);
        let actual = Loss::Mse.evaluate(&net.forward(&x).unwrap(), &t);
        assert!((actual - history.validation_metric[history.best_epoch]).abs() < 1e-5);
        assert!(history.best_epoch < 10);
    }

    #[test]
    fn custom_metric_drives_selection() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let data = linear_dataset(32);
        let mut net = default_network(6);
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 5,
                batch_size: 8,
                ..TrainConfig::default()
            },
            Loss::Mse,
            OptimizerKind::Sgd {
                learning_rate: 0.05,
                momentum: 0.9,
            },
        );
        // A metric that prefers later epochs (monotonically decreasing).
        let mut calls = 0;
        let history = trainer.fit_with_metric(&mut net, &data, &data, &mut rng, |_, _| {
            calls += 1;
            10.0 - calls as f32
        });
        assert_eq!(history.best_epoch, 4);
    }

    #[test]
    fn without_an_improving_epoch_the_last_one_is_named() {
        // `fit` scores an empty validation split +inf every epoch, so no
        // checkpoint is taken and the last epoch's parameters are returned;
        // the history must say so, and report that epoch's metric.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let data = linear_dataset(24);
        let mut net = default_network(10);
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 3,
                batch_size: 8,
                ..TrainConfig::default()
            },
            Loss::Mse,
            OptimizerKind::Adam {
                learning_rate: 0.01,
            },
        );
        let history = trainer.fit(&mut net, &data, &[], &mut rng);
        assert_eq!(history.best_epoch, 2);
        assert_eq!(history.validation_metric[history.best_epoch], f32::INFINITY);
        // A diverged run's NaN metric never improves either.
        let history = trainer.fit_with_metric(&mut net, &data, &data, &mut rng, |_, _| f32::NAN);
        assert_eq!(history.best_epoch, 2);
    }

    /// Whichever epoch is best — the first, one in the middle, the last, or
    /// none — the network returned holds exactly the parameters it had when
    /// that epoch was scored (the last epoch's when none improved), though
    /// the checkpoint is copied only before a later epoch's first step.
    #[test]
    fn the_best_epoch_is_returned_wherever_it_falls() {
        let data = linear_dataset(32);
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 5,
                batch_size: 8,
                ..TrainConfig::default()
            },
            Loss::Mse,
            OptimizerKind::Adam {
                learning_rate: 0.01,
            },
        );
        let nan = f32::NAN;
        for (metrics, best) in [
            ([1.0, 2.0, 3.0, 4.0, 5.0], 0),
            ([5.0, 4.0, 1.0, 3.0, 2.0], 2),
            ([5.0, 3.0, 4.0, 2.0, 1.0], 4),
            ([nan; 5], 4),
        ] {
            let mut net = default_network(12);
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            let mut scored = Vec::new();
            let history = trainer.fit_with_metric(&mut net, &data, &data, &mut rng, |net, _| {
                scored.push(net.clone());
                metrics[scored.len() - 1]
            });
            assert_eq!(history.best_epoch, best, "{metrics:?}");
            assert_eq!(net, scored[best], "{metrics:?}");
            assert_ne!(scored[best], scored[(best + 1) % 5], "the epochs differ");
        }
    }

    #[test]
    #[should_panic]
    fn empty_training_split_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut net = default_network(8);
        let trainer = Trainer::new(
            TrainConfig::default(),
            Loss::Mse,
            OptimizerKind::Adam {
                learning_rate: 0.01,
            },
        );
        let _ = trainer.fit(&mut net, &[], &[], &mut rng);
    }

    #[test]
    fn buffer_reusing_loop_matches_reference_loss_curve() {
        // The before/after drift check: the buffer-reusing trainer must produce
        // the *same* loss trajectory and final parameters as the original
        // allocating loop, for both optimizers.
        let data = linear_dataset(96);
        let (train, val) = data.split_at(72);
        for kind in [
            OptimizerKind::Adam {
                learning_rate: 0.01,
            },
            OptimizerKind::Sgd {
                learning_rate: 0.05,
                momentum: 0.9,
            },
        ] {
            let trainer = Trainer::new(
                TrainConfig {
                    epochs: 12,
                    batch_size: 16,
                    ..TrainConfig::default()
                },
                Loss::NormalizedL1,
                kind,
            );
            let mut net_fast = default_network(40);
            let mut net_ref = net_fast.clone();
            let mut rng_fast = ChaCha8Rng::seed_from_u64(41);
            let mut rng_ref = ChaCha8Rng::seed_from_u64(41);
            let hist_fast = trainer.fit(&mut net_fast, train, val, &mut rng_fast);
            let hist_ref = trainer.fit_with_metric_reference(
                &mut net_ref,
                train,
                val,
                &mut rng_ref,
                |net, val| {
                    let (x, t) = batch_matrices(val);
                    match net.forward(&x) {
                        Ok(pred) => Loss::NormalizedL1.evaluate(&pred, &t),
                        Err(_) => f32::INFINITY,
                    }
                },
            );
            assert_eq!(
                hist_fast.train_loss, hist_ref.train_loss,
                "{kind:?} loss curve drifted"
            );
            assert_eq!(
                hist_fast.validation_metric, hist_ref.validation_metric,
                "{kind:?} validation curve drifted"
            );
            assert_eq!(hist_fast.best_epoch, hist_ref.best_epoch);
            assert_eq!(net_fast, net_ref, "{kind:?} final parameters drifted");
        }
    }

    #[test]
    fn paper_default_config() {
        let cfg = TrainConfig::default();
        assert_eq!(cfg.epochs, 40);
        assert_eq!(cfg.batch_size, 16);
        assert_eq!(cfg.schedule.milestones, vec![20, 30]);
    }
}
