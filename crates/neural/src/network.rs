//! Sequential dense networks.

use crate::layer::{Activation, Dense};
#[cfg(test)]
use crate::layer::{DenseCache, DenseGradients};
use crate::optimizer::Optimizer;
use crate::tensor::Matrix;
use crate::NeuralError;
use mimo_math::kernel::GradScratch;
use rand::Rng;

/// Specification of one dense layer used when building a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerSpec {
    /// Input width of the layer.
    pub input_dim: usize,
    /// Output width of the layer.
    pub output_dim: usize,
    /// Activation applied by the layer.
    pub activation: Activation,
}

impl LayerSpec {
    /// Creates a layer specification.
    pub fn new(input_dim: usize, output_dim: usize, activation: Activation) -> Self {
        Self {
            input_dim,
            output_dim,
            activation,
        }
    }
}

/// A sequential stack of dense layers.
///
/// The SplitBeam head and tail models are both plain [`Network`]s; splitting a
/// trained model is done with [`Network::split_at`].
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    layers: Vec<Dense>,
}

impl Network {
    /// Builds a network from layer specifications with freshly initialized weights.
    ///
    /// # Panics
    /// Panics if `specs` is empty or consecutive layer dimensions do not chain.
    pub fn new(specs: &[LayerSpec], rng: &mut impl Rng) -> Self {
        assert!(!specs.is_empty(), "a network needs at least one layer");
        for pair in specs.windows(2) {
            assert_eq!(
                pair[0].output_dim, pair[1].input_dim,
                "layer dimensions must chain: {} -> {}",
                pair[0].output_dim, pair[1].input_dim
            );
        }
        let layers = specs
            .iter()
            .map(|s| Dense::new(s.input_dim, s.output_dim, s.activation, rng))
            .collect();
        Self { layers }
    }

    /// Builds a network directly from already-initialized layers.
    ///
    /// # Panics
    /// Panics if `layers` is empty or the dimensions do not chain.
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "a network needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].output_dim(),
                pair[1].input_dim(),
                "layer dimensions must chain"
            );
        }
        Self { layers }
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers (used by the tests' optimizer step).
    #[cfg(test)]
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Overwrites this network's parameters with `src`'s, reusing every
    /// weight and bias buffer (the trainer's best-epoch checkpoint).
    ///
    /// # Panics
    /// Panics if the two networks differ in depth.
    pub(crate) fn copy_from(&mut self, src: &Network) {
        assert_eq!(
            self.layers.len(),
            src.layers.len(),
            "network depth mismatch"
        );
        for (dst, src) in self.layers.iter_mut().zip(&src.layers) {
            dst.weights.copy_from(&src.weights);
            dst.bias.copy_from(&src.bias);
            dst.activation = src.activation;
        }
    }

    /// Input dimension of the network.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map(Dense::input_dim).unwrap_or(0)
    }

    /// Output dimension of the network.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map(Dense::output_dim).unwrap_or(0)
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(Dense::num_parameters).sum()
    }

    /// Total multiply-accumulate operations for one input vector.
    pub fn macs(&self) -> u64 {
        self.layers.iter().map(Dense::macs).sum()
    }

    /// Runs inference on a batch (`batch x input_dim`).
    ///
    /// The whole batch flows through each layer as one matmul; no copy of the
    /// input is taken (the first layer reads it directly).
    ///
    /// # Errors
    /// Returns [`NeuralError::DimensionMismatch`] if the input width is wrong.
    pub fn forward(&self, input: &Matrix) -> Result<Matrix, NeuralError> {
        if input.cols() != self.input_dim() {
            return Err(NeuralError::DimensionMismatch(format!(
                "input width {} does not match network input {}",
                input.cols(),
                self.input_dim()
            )));
        }
        let (first, rest) = self
            .layers
            .split_first()
            .expect("networks always have at least one layer");
        let mut x = first.infer(input);
        for layer in rest {
            x = layer.infer(&x);
        }
        Ok(x)
    }

    /// Convenience single-vector inference.
    ///
    /// # Errors
    /// Returns [`NeuralError::DimensionMismatch`] if the input width is wrong.
    pub fn predict(&self, input: &[f32]) -> Result<Vec<f32>, NeuralError> {
        let out = self.forward(&Matrix::row_vector(input))?;
        Ok(out.as_slice().to_vec())
    }

    /// Forward pass keeping the per-layer caches needed by backpropagation.
    ///
    /// Allocating convenience used by tests and the reference training loop;
    /// the trainer itself uses [`Network::forward_training_into`].
    #[cfg(test)]
    pub(crate) fn forward_training(&self, input: &Matrix) -> (Matrix, Vec<DenseCache>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut x = input.clone();
        for layer in &self.layers {
            let (out, cache) = layer.forward(&x);
            caches.push(cache);
            x = out;
        }
        (x, caches)
    }

    /// Backward pass: returns per-layer parameter gradients.
    ///
    /// Allocating convenience used by tests and the reference training loop;
    /// the trainer itself uses [`Network::backward_into`].
    #[cfg(test)]
    pub(crate) fn backward(
        &self,
        caches: &[DenseCache],
        grad_output: &Matrix,
    ) -> Vec<DenseGradients> {
        let mut grads = Vec::with_capacity(self.layers.len());
        let mut grad = grad_output.clone();
        for (layer, cache) in self.layers.iter().zip(caches.iter()).rev() {
            let (layer_grads, grad_input) = layer.backward(cache, &grad);
            grads.push(layer_grads);
            grad = grad_input;
        }
        grads.reverse();
        grads
    }

    /// Forward pass for training into the reusable buffers of `scratch`.
    ///
    /// After the call `scratch.activations[i]` holds the output of layer `i`
    /// and `scratch.pre_activations[i]` its pre-activation; the final
    /// prediction is `scratch.prediction()`. No per-layer clone of the input
    /// is taken — layer `i` reads `scratch.activations[i - 1]` directly.
    pub(crate) fn forward_training_into(&self, input: &Matrix, scratch: &mut TrainScratch) {
        scratch.ensure_layers(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            // Split the buffers so layer i can read activation i-1 while
            // writing activation i.
            let (done, rest) = scratch.activations.split_at_mut(i);
            let x = if i == 0 { input } else { &done[i - 1] };
            layer.forward_into(x, &mut scratch.pre_activations[i], &mut rest[0]);
        }
    }

    /// Backward pass and optimizer step from the buffers filled by
    /// [`Network::forward_training_into`]. Layer by layer, last to first:
    /// the gradient at the pre-activation, from it the gradient at the
    /// layer's input — which reads the weights, so it runs before they move —
    /// and the bias gradient ([`Dense::backward_into`]), then the layer's
    /// update by `optimizer` at `lr_factor`, with the weight gradient fused
    /// into it. Gradient propagation ping-pongs between two reusable
    /// buffers; the input-gradient product is skipped for the first layer.
    pub(crate) fn backward_into(
        &mut self,
        input: &Matrix,
        grad_output: &Matrix,
        scratch: &mut TrainScratch,
        (optimizer, lr_factor): (&mut Optimizer, f32),
    ) {
        let TrainScratch {
            pre_activations,
            activations,
            grad_ping,
            grad_pong,
            grad_pre,
            bias_grad,
            gradient,
        } = scratch;
        debug_assert_eq!(
            activations.len(),
            self.layers.len(),
            "forward_training_into must run first"
        );
        let step = optimizer.begin_step(lr_factor);
        // `incoming` holds the gradient flowing into the current layer,
        // `outgoing` receives the gradient for the next (earlier) layer; the
        // two buffers swap roles every step.
        let mut incoming: &mut Matrix = grad_ping;
        let mut outgoing: &mut Matrix = grad_pong;
        for (rev_idx, (i, layer)) in self.layers.iter_mut().enumerate().rev().enumerate() {
            let layer_input = if i == 0 { input } else { &activations[i - 1] };
            let grad_out: &Matrix = if rev_idx == 0 { grad_output } else { incoming };
            let grad_in = if i == 0 { None } else { Some(&mut *outgoing) };
            let pre = &pre_activations[i];
            layer.backward_into(pre, grad_out, (&mut *grad_pre, &mut *bias_grad), grad_in);
            let grads = (&*bias_grad, &mut *gradient);
            optimizer.update_layer(&step, i, layer, (layer_input, grad_pre), grads);
            std::mem::swap(&mut incoming, &mut outgoing);
        }
    }

    /// Splits the network into a head (layers `0..at`) and a tail (layers `at..`).
    ///
    /// This is the "split computing" operation of the paper: the head runs on
    /// the station, the tail on the access point, and the head's output is the
    /// compressed feedback transmitted over the air.
    ///
    /// The layers move: both halves keep the weight buffers the network
    /// held, and nothing is copied.
    ///
    /// # Panics
    /// Panics if `at` is zero or not strictly inside the layer stack.
    pub fn split_at(mut self, at: usize) -> (Network, Network) {
        assert!(
            at > 0 && at < self.layers.len(),
            "split point must be strictly inside the network"
        );
        let tail = self.layers.split_off(at);
        (self, Network { layers: tail })
    }
}

/// Reusable buffers for one training loop: per-layer activations and
/// pre-activations, gradient ping-pong buffers, one layer's bias gradient,
/// and the weight-gradient product's transposed input and packed gradient.
/// There is no weight-gradient buffer: the optimizer consumes that gradient
/// a register tile at a time.
///
/// Holding one `TrainScratch` across batches and epochs eliminates the
/// per-batch clone/allocation churn of the original loop — after the first
/// batch of the largest batch size, a training step performs no heap
/// allocation. Every buffer is batch-sized or one layer's width.
#[derive(Debug)]
pub(crate) struct TrainScratch {
    pub(crate) pre_activations: Vec<Matrix>,
    pub(crate) activations: Vec<Matrix>,
    pub(crate) grad_ping: Matrix,
    pub(crate) grad_pong: Matrix,
    pub(crate) grad_pre: Matrix,
    pub(crate) bias_grad: Matrix,
    pub(crate) gradient: GradScratch,
}

impl TrainScratch {
    pub(crate) fn new() -> Self {
        Self {
            pre_activations: Vec::new(),
            activations: Vec::new(),
            grad_ping: Matrix::zeros(1, 1),
            grad_pong: Matrix::zeros(1, 1),
            grad_pre: Matrix::zeros(1, 1),
            bias_grad: Matrix::zeros(1, 1),
            gradient: GradScratch::default(),
        }
    }

    fn ensure_layers(&mut self, n: usize) {
        while self.pre_activations.len() < n {
            self.pre_activations.push(Matrix::zeros(1, 1));
            self.activations.push(Matrix::zeros(1, 1));
        }
        self.pre_activations.truncate(n);
        self.activations.truncate(n);
    }

    /// The network output of the last [`Network::forward_training_into`] call.
    pub(crate) fn prediction(&self) -> &Matrix {
        self.activations
            .last()
            .expect("forward_training_into must run before reading the prediction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_network(seed: u64) -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Network::new(
            &[
                LayerSpec::new(8, 4, Activation::Tanh),
                LayerSpec::new(4, 6, Activation::Relu),
                LayerSpec::new(6, 3, Activation::Identity),
            ],
            &mut rng,
        )
    }

    #[test]
    fn dimensions_and_counts() {
        let net = sample_network(1);
        assert_eq!(net.input_dim(), 8);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(
            net.num_parameters(),
            (8 * 4 + 4) + (4 * 6 + 6) + (6 * 3 + 3)
        );
        assert_eq!(net.macs(), 8 * 4 + 4 * 6 + 6 * 3);
    }

    #[test]
    fn forward_and_predict_agree() {
        let net = sample_network(2);
        let input: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let via_forward = net.forward(&Matrix::row_vector(&input)).unwrap();
        let via_predict = net.predict(&input).unwrap();
        assert_eq!(via_forward.as_slice(), &via_predict[..]);
    }

    #[test]
    fn wrong_input_width_is_rejected() {
        let net = sample_network(3);
        assert!(matches!(
            net.predict(&[1.0, 2.0]),
            Err(NeuralError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn split_composes_to_original() {
        let net = sample_network(4);
        let (head, tail) = net.clone().split_at(1);
        assert_eq!(head.output_dim(), tail.input_dim());
        let input: Vec<f32> = (0..8).map(|i| (i as f32 - 4.0) * 0.2).collect();
        let full = net.predict(&input).unwrap();
        let bottleneck = head.predict(&input).unwrap();
        let composed = tail.predict(&bottleneck).unwrap();
        for (a, b) in full.iter().zip(composed.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn split_moves_the_layer_buffers() {
        let net = sample_network(9);
        let buffers = |layers: &[Dense]| -> Vec<*const f32> {
            layers
                .iter()
                .map(|l| l.weights.as_slice().as_ptr())
                .collect()
        };
        let before = buffers(net.layers());
        let (head, tail) = net.split_at(2);
        assert_eq!(
            [buffers(head.layers()), buffers(tail.layers())].concat(),
            before,
            "a split copied a weight buffer"
        );
    }

    #[test]
    #[should_panic]
    fn split_at_zero_panics() {
        let _ = sample_network(5).split_at(0);
    }

    #[test]
    #[should_panic]
    fn mismatched_chain_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let _ = Network::new(
            &[
                LayerSpec::new(4, 5, Activation::Tanh),
                LayerSpec::new(6, 2, Activation::Identity),
            ],
            &mut rng,
        );
    }
}
