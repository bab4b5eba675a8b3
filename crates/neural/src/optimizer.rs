//! Optimizers and learning-rate schedules.
//!
//! The paper trains with SGD on the synthetic datasets and Adam on the measured
//! ones, with an initial learning rate of `1e-3` divided by 10 after the 20th
//! and 30th of 40 epochs. Both optimizers and the step schedule are implemented
//! here.

use crate::layer::Dense;
#[cfg(test)]
use crate::layer::DenseGradients;
#[cfg(test)]
use crate::network::Network;
use crate::tensor::Matrix;
use mimo_math::kernel::{self, GradScratch, Kernel, Rule};

/// Optimizer selection plus hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

    /// Learning-rate multiplier in effect at `epoch`.
    pub fn factor_at(&self, epoch: usize) -> f32 {
        let hits = self.milestones.iter().filter(|&&m| epoch >= m).count() as i32;
        self.gamma.powi(hits)
    }
}

/// What an optimizer keeps for one parameter matrix: its rule's moments
/// (SGD's velocity, or Adam's first and second moments), each the
/// parameter's length and allocated at the first step; the ones the rule
/// does not keep stay empty.
#[derive(Debug, Clone, Default)]
struct Moments([Vec<f32>; 2]);

impl Moments {
    /// The moments `rule` keeps for a parameter of `param`'s shape, zeroed
    /// at the first step: the one place they are allocated.
    fn of(&mut self, rule: &Rule, param: &Matrix) -> [&mut [f32]; 2] {
        let len = param.rows() * param.cols();
        for moment in &mut self.0[..rule.moments()] {
            if moment.len() != len {
                *moment = vec![0.0; len];
            }
        }
        self.0.each_mut().map(Vec::as_mut_slice)
    }
}

/// The moments of one layer's weights and bias.
#[derive(Debug, Clone, Default)]
struct LayerState {
    weights: Moments,
    bias: Moments,
}

/// One step of an [`Optimizer`], begun by [`Optimizer::begin_step`]: the
/// kernel backend and the rule every layer moves by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    kern: Kernel,
    rule: Rule,
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

    /// Begins one gradient step, scaling the base learning rate by
    /// `lr_factor` (from the schedule); [`Optimizer::update_layer`] then
    /// moves each layer by it.
    pub(crate) fn begin_step(&mut self, lr_factor: f32) -> Step {
        self.step_count += 1;
        let lr = self.kind.learning_rate() * lr_factor;
        let rule = match self.kind {
            OptimizerKind::Sgd { momentum, .. } if momentum > 0.0 => {
                Rule::Momentum { momentum, lr }
            }
            OptimizerKind::Sgd { .. } => Rule::Sgd { lr },
            OptimizerKind::Adam { .. } => {
                const BETA1: f32 = 0.9;
                const BETA2: f32 = 0.999;
                let t = self.step_count as i32;
                Rule::Adam(kernel::Adam {
                    beta1: BETA1,
                    beta2: BETA2,
                    eps: 1e-8,
                    bias_correction1: 1.0 - BETA1.powi(t),
                    bias_correction2: 1.0 - BETA2.powi(t),
                    lr,
                })
            }
        };
        Step {
            kern: kernel::selected(),
            rule,
        }
    }

    /// Moves layer `index` by `step`: its weights by the weight gradient
    /// `inputᵀ * grad_pre`, its bias by `bias_grad`.
    ///
    /// The weight gradient never reaches memory: each register tile of
    /// [`kernel::gemm_at_b_update_f32`] hands its block of it to the rule's
    /// sweep while it is in L1, with that block's weights and moments. The
    /// bias takes the same sweep once, on the caller ([`kernel::update_f32`]).
    /// Each element's arithmetic is the original allocating formulation's,
    /// so training trajectories stay bit-identical at every pool width, and
    /// once the moments exist a step requests no memory.
    pub(crate) fn update_layer(
        &mut self,
        step: &Step,
        index: usize,
        layer: &mut Dense,
        (input, grad_pre): (&Matrix, &Matrix),
        (bias_grad, scratch): (&Matrix, &mut GradScratch),
    ) {
        let LayerState { weights, bias } = &mut self.state[index];
        let (rule, kern) = (&step.rule, step.kern);
        let ops = (input.as_slice(), grad_pre.as_slice());
        let dims = (input.cols(), grad_pre.cols());
        let (moments, w) = (weights.of(rule, &layer.weights), &mut layer.weights);
        kernel::gemm_at_b_update_f32(kern, ops, dims, rule, moments, w.as_mut_slice(), scratch);
        let (moments, b) = (bias.of(rule, &layer.bias), &mut layer.bias);
        kernel::update_f32(kern, rule, bias_grad.as_slice(), moments, b.as_mut_slice());
    }

    /// The original step from gradients in memory, kept as the oracle of
    /// the fused one: every layer's weights and bias swept by the step's
    /// rule.
    ///
    /// # Panics
    /// Panics if `grads.len()` differs from the number of network layers.
    #[cfg(test)]
    pub fn step(&mut self, network: &mut Network, grads: &[DenseGradients], lr_factor: f32) {
        assert_eq!(
            grads.len(),
            network.layers().len(),
            "gradient count must match layer count"
        );
        let step = self.begin_step(lr_factor);
        let layers = network.layers_mut().iter_mut().zip(grads);
        for ((layer, grad), state) in layers.zip(self.state.iter_mut()) {
            let params = [
                (&mut state.weights, &mut layer.weights, &grad.weights),
                (&mut state.bias, &mut layer.bias, &grad.bias),
            ];
            for (moments, param, grad) in params {
                let moments = moments.of(&step.rule, param);
                let (grad, param) = (grad.as_slice(), param.as_mut_slice());
                kernel::update_f32(step.kern, &step.rule, grad, moments, param);
            }
        }
    }
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
