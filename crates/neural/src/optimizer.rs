//! Optimizers and learning-rate schedules.
//!
//! The paper trains with SGD on the synthetic datasets and Adam on the measured
//! ones, with an initial learning rate of `1e-3` divided by 10 after the 20th
//! and 30th of 40 epochs. Both optimizers and the step schedule are implemented
//! here.

use crate::layer::DenseGradients;
use crate::network::Network;
use crate::tensor::Matrix;
use mimo_math::kernel;
use serde::{Deserialize, Serialize};

/// Optimizer selection plus hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Stochastic gradient descent with optional momentum.
    Sgd {
        /// Learning rate.
        learning_rate: f32,
        /// Momentum coefficient (0 disables momentum).
        momentum: f32,
    },
    /// Adam with the standard `beta1 = 0.9`, `beta2 = 0.999`.
    Adam {
        /// Learning rate.
        learning_rate: f32,
    },
}

impl OptimizerKind {
    /// The configured base learning rate.
    pub fn learning_rate(&self) -> f32 {
        match self {
            OptimizerKind::Sgd { learning_rate, .. } => *learning_rate,
            OptimizerKind::Adam { learning_rate } => *learning_rate,
        }
    }
}

/// Step learning-rate schedule: the learning rate is multiplied by `gamma`
/// whenever the epoch index reaches one of the milestones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepSchedule {
    /// Epoch indices (0-based) at which the learning rate is decayed.
    pub milestones: Vec<usize>,
    /// Multiplicative decay factor.
    pub gamma: f32,
}

impl StepSchedule {
    /// The paper's schedule: decay by 10x after the 20th and 30th epoch.
    pub fn paper_default() -> Self {
        Self {
            milestones: vec![20, 30],
            gamma: 0.1,
        }
    }

    /// No decay at all.
    pub fn constant() -> Self {
        Self {
            milestones: Vec::new(),
            gamma: 1.0,
        }
    }

    /// Learning-rate multiplier in effect at `epoch`.
    pub fn factor_at(&self, epoch: usize) -> f32 {
        let hits = self.milestones.iter().filter(|&&m| epoch >= m).count() as i32;
        self.gamma.powi(hits)
    }
}

/// Per-parameter optimizer state for one layer.
#[derive(Debug, Clone, Default)]
struct LayerState {
    momentum_w: Option<Matrix>,
    momentum_b: Option<Matrix>,
    adam_m_w: Option<Matrix>,
    adam_v_w: Option<Matrix>,
    adam_m_b: Option<Matrix>,
    adam_v_b: Option<Matrix>,
}

/// A stateful optimizer bound to a particular network architecture.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimizerKind,
    state: Vec<LayerState>,
    step_count: u64,
}

impl Optimizer {
    /// Creates an optimizer for a network with `num_layers` layers.
    pub fn new(kind: OptimizerKind, num_layers: usize) -> Self {
        Self {
            kind,
            state: (0..num_layers).map(|_| LayerState::default()).collect(),
            step_count: 0,
        }
    }

    /// The optimizer kind and hyper-parameters.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Applies one gradient step to `network`, scaling the base learning rate by
    /// `lr_factor` (from the schedule).
    ///
    /// All optimizer state is updated in place by the kernels of
    /// [`mimo_math::kernel`] ([`kernel::adam_step`],
    /// [`kernel::momentum_step`], [`kernel::sgd_step`]): one fused sweep a
    /// parameter matrix, handed out to the pool in chunks from 2^16
    /// parameters and compiled for the widest vector unit, so a step performs
    /// no heap allocation after the state matrices exist. The element-wise
    /// arithmetic matches the original allocating formulation, keeping
    /// training trajectories bit-identical at every pool width.
    ///
    /// # Panics
    /// Panics if `grads.len()` differs from the number of network layers.
    pub fn step(&mut self, network: &mut Network, grads: &[DenseGradients], lr_factor: f32) {
        assert_eq!(
            grads.len(),
            network.layers().len(),
            "gradient count must match layer count"
        );
        self.step_count += 1;
        let kern = kernel::selected();
        let lr = self.kind.learning_rate() * lr_factor;
        let layers = network.layers_mut().iter_mut().zip(grads);
        match self.kind {
            OptimizerKind::Sgd { momentum, .. } => {
                for ((layer, grad), state) in layers.zip(self.state.iter_mut()) {
                    let params = [
                        (&mut layer.weights, &grad.weights, &mut state.momentum_w),
                        (&mut layer.bias, &grad.bias, &mut state.momentum_b),
                    ];
                    for (param, grad, velocity) in params {
                        let (g, p) = (grad.as_slice(), param.as_mut_slice());
                        if momentum > 0.0 {
                            // v <- v * momentum + g; p <- p - v * lr.
                            let v = velocity.get_or_insert_with(|| zeros_like(grad));
                            kernel::momentum_step(kern, (momentum, lr), g, v.as_mut_slice(), p);
                        } else {
                            kernel::sgd_step(kern, lr, g, p);
                        }
                    }
                }
            }
            OptimizerKind::Adam { .. } => {
                const BETA1: f32 = 0.9;
                const BETA2: f32 = 0.999;
                let t = self.step_count as i32;
                let adam = kernel::Adam {
                    beta1: BETA1,
                    beta2: BETA2,
                    eps: 1e-8,
                    bias_correction1: 1.0 - BETA1.powi(t),
                    bias_correction2: 1.0 - BETA2.powi(t),
                    lr,
                };
                for ((layer, grad), state) in layers.zip(self.state.iter_mut()) {
                    let params = [
                        (
                            &mut layer.weights,
                            &grad.weights,
                            &mut state.adam_m_w,
                            &mut state.adam_v_w,
                        ),
                        (
                            &mut layer.bias,
                            &grad.bias,
                            &mut state.adam_m_b,
                            &mut state.adam_v_b,
                        ),
                    ];
                    // m <- m*B1 + g*(1-B1); v <- v*B2 + g^2*(1-B2);
                    // p <- p - (m/bc1) / (sqrt(v/bc2) + eps) * lr, all in place.
                    for (param, grad, m, v) in params {
                        let m = m.get_or_insert_with(|| zeros_like(grad)).as_mut_slice();
                        let v = v.get_or_insert_with(|| zeros_like(grad)).as_mut_slice();
                        let (g, p) = (grad.as_slice(), param.as_mut_slice());
                        kernel::adam_step(kern, &adam, g, m, v, p);
                    }
                }
            }
        }
    }
}

fn zeros_like(m: &Matrix) -> Matrix {
    Matrix::zeros(m.rows(), m.cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::loss::Loss;
    use crate::network::{LayerSpec, Network};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_problem() -> (Vec<f32>, Vec<f32>) {
        let x: Vec<f32> = (0..4).map(|i| i as f32 / 4.0).collect();
        let y = vec![x.iter().sum::<f32>(), x[0] - x[3]];
        (x, y)
    }

    fn train_loss(kind: OptimizerKind, steps: usize) -> (f32, f32) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = Network::new(
            &[
                LayerSpec::new(4, 8, Activation::Tanh),
                LayerSpec::new(8, 2, Activation::Identity),
            ],
            &mut rng,
        );
        let (x, y) = toy_problem();
        let input = Matrix::row_vector(&x);
        let target = Matrix::row_vector(&y);
        let mut opt = Optimizer::new(kind, net.layers().len());
        let initial = Loss::Mse.evaluate(&net.forward(&input).unwrap(), &target);
        for _ in 0..steps {
            let (out, caches) = net.forward_training(&input);
            let grad = Loss::Mse.gradient(&out, &target);
            let grads = net.backward(&caches, &grad);
            opt.step(&mut net, &grads, 1.0);
        }
        let final_loss = Loss::Mse.evaluate(&net.forward(&input).unwrap(), &target);
        (initial, final_loss)
    }

    #[test]
    fn sgd_reduces_loss() {
        let (initial, final_loss) = train_loss(
            OptimizerKind::Sgd {
                learning_rate: 0.1,
                momentum: 0.0,
            },
            200,
        );
        assert!(final_loss < initial * 0.1, "SGD: {initial} -> {final_loss}");
    }

    #[test]
    fn sgd_with_momentum_reduces_loss() {
        let (initial, final_loss) = train_loss(
            OptimizerKind::Sgd {
                learning_rate: 0.05,
                momentum: 0.9,
            },
            200,
        );
        assert!(
            final_loss < initial * 0.1,
            "SGD+m: {initial} -> {final_loss}"
        );
    }

    #[test]
    fn adam_reduces_loss() {
        let (initial, final_loss) = train_loss(
            OptimizerKind::Adam {
                learning_rate: 0.01,
            },
            200,
        );
        assert!(
            final_loss < initial * 0.1,
            "Adam: {initial} -> {final_loss}"
        );
    }

    #[test]
    fn step_schedule_factors() {
        let schedule = StepSchedule::paper_default();
        assert!((schedule.factor_at(0) - 1.0).abs() < 1e-9);
        assert!((schedule.factor_at(19) - 1.0).abs() < 1e-9);
        assert!((schedule.factor_at(20) - 0.1).abs() < 1e-7);
        assert!((schedule.factor_at(30) - 0.01).abs() < 1e-8);
        assert!((StepSchedule::constant().factor_at(100) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn learning_rate_accessor() {
        assert!(
            (OptimizerKind::Adam {
                learning_rate: 0.001
            }
            .learning_rate()
                - 0.001)
                .abs()
                < 1e-9
        );
        assert!(
            (OptimizerKind::Sgd {
                learning_rate: 0.5,
                momentum: 0.9
            }
            .learning_rate()
                - 0.5)
                .abs()
                < 1e-9
        );
    }

    #[test]
    #[should_panic]
    fn mismatched_gradient_count_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut net = Network::new(&[LayerSpec::new(2, 2, Activation::Identity)], &mut rng);
        let mut opt = Optimizer::new(
            OptimizerKind::Adam {
                learning_rate: 0.01,
            },
            1,
        );
        opt.step(&mut net, &[], 1.0);
    }
}
