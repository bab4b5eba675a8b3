//! Fully-connected layers and activations.

use crate::tensor::Matrix;
use mimo_math::kernel::packed::{gemm_f32_packed, AlignedRow, PackedRhs, PackedWidth, Rows};
use rand::Rng;

/// Activation function applied after a dense layer's affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// No nonlinearity (used on output and bottleneck layers).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent — the default hidden activation of the SplitBeam models,
    /// chosen because CSI/beamforming values are zero-centered.
    Tanh,
    /// Leaky ReLU with slope 0.01 for negative inputs.
    LeakyRelu,
}

impl Activation {
    /// Evaluates the activation for one scalar (the fused-epilogue kernel form).
    #[inline]
    pub fn eval(self, v: f32) -> f32 {
        match self {
            Activation::Identity => v,
            Activation::Relu => v.max(0.0),
            Activation::Tanh => v.tanh(),
            Activation::LeakyRelu => {
                if v >= 0.0 {
                    v
                } else {
                    0.01 * v
                }
            }
        }
    }

    /// Evaluates the activation derivative for one *pre-activation* scalar.
    #[inline]
    pub fn derivative_eval(self, v: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if v > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = v.tanh();
                1.0 - t * t
            }
            Activation::LeakyRelu => {
                if v >= 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
        }
    }

    /// Applies the activation element-wise.
    pub fn apply(self, x: &Matrix) -> Matrix {
        match self {
            Activation::Identity => x.clone(),
            _ => x.map(|v| self.eval(v)),
        }
    }
}

/// A dense (fully-connected) layer `y = activation(x W + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Weight matrix of shape `input_dim x output_dim`.
    pub weights: Matrix,
    /// Bias row vector of shape `1 x output_dim`.
    pub bias: Matrix,
    /// Activation applied after the affine transform.
    pub activation: Activation,
}

/// Cached values from a forward pass needed by the backward pass.
#[derive(Debug, Clone)]
pub struct DenseCache {
    /// The layer input (batch x input_dim).
    pub input: Matrix,
    /// The pre-activation output (batch x output_dim).
    pub pre_activation: Matrix,
}

/// Gradients of a dense layer's parameters, in memory: what the allocating
/// [`Dense::backward`] returns to the tests' reference training loop.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGradients {
    /// Gradient with respect to the weights.
    pub weights: Matrix,
    /// Gradient with respect to the bias.
    pub bias: Matrix,
}

impl Dense {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            input_dim > 0 && output_dim > 0,
            "layer dimensions must be non-zero"
        );
        Self {
            weights: Matrix::xavier_uniform(input_dim, output_dim, rng),
            bias: Matrix::zeros(1, output_dim),
            activation,
        }
    }

    /// Input dimension of the layer.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension of the layer.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.cols()
    }

    /// Number of multiply-accumulate operations for a single input vector.
    pub fn macs(&self) -> u64 {
        (self.weights.rows() * self.weights.cols()) as u64
    }

    /// Forward pass, returning the activated output and the cache for backprop.
    pub fn forward(&self, input: &Matrix) -> (Matrix, DenseCache) {
        let pre_activation = input.matmul(&self.weights).add_row_broadcast(&self.bias);
        let output = self.activation.apply(&pre_activation);
        (
            output,
            DenseCache {
                input: input.clone(),
                pre_activation,
            },
        )
    }

    /// Forward pass writing the pre-activation and the activated output into
    /// caller-owned buffers (the training hot path; no cloning of the input —
    /// the caller already holds the activation chain).
    pub fn forward_into(&self, input: &Matrix, pre_activation: &mut Matrix, output: &mut Matrix) {
        input.matmul_into(&self.weights, pre_activation);
        let width = self.bias.cols();
        for row in pre_activation.as_mut_slice().chunks_exact_mut(width) {
            for (o, &b) in row.iter_mut().zip(self.bias.as_slice().iter()) {
                *o += b;
            }
        }
        output.copy_from(pre_activation);
        for v in output.as_mut_slice() {
            *v = self.activation.eval(*v);
        }
    }

    /// Inference-only forward pass (no cache), using the fused
    /// matmul + bias + activation epilogue.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(input.rows(), self.weights.cols());
        input.matmul_bias_act_into(&self.weights, &self.bias, self.activation, &mut out);
        out
    }

    /// Inference-only forward pass into a caller-owned buffer.
    pub fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        input.matmul_bias_act_into(&self.weights, &self.bias, self.activation, out);
    }

    /// Inference-only forward pass into a caller-owned buffer with an explicit
    /// kernel backend (the fused dequantize→tail path pins one backend for a
    /// whole batched reconstruction).
    pub fn infer_into_with(&self, input: &Matrix, out: &mut Matrix, kern: mimo_math::Kernel) {
        input.matmul_bias_act_into_with(&self.weights, &self.bias, self.activation, out, kern);
    }

    /// The original unfused forward chain (matmul, then bias broadcast, then
    /// activation — two intermediate allocations), kept as the behavioral
    /// reference for the fused epilogue.
    #[cfg(test)]
    pub fn infer_reference(&self, input: &Matrix) -> Matrix {
        self.activation
            .apply(&input.matmul(&self.weights).add_row_broadcast(&self.bias))
    }

    /// Backward pass: given the gradient of the loss with respect to this
    /// layer's output, returns the parameter gradients and the gradient with
    /// respect to the layer input — the allocating form the tests' reference
    /// training loop runs.
    #[cfg(test)]
    pub fn backward(&self, cache: &DenseCache, grad_output: &Matrix) -> (DenseGradients, Matrix) {
        let mut grad_pre = Matrix::zeros(1, 1);
        let mut bias = Matrix::zeros(1, 1);
        let mut grad_input = Matrix::zeros(1, 1);
        self.backward_into(
            &cache.pre_activation,
            grad_output,
            (&mut grad_pre, &mut bias),
            Some(&mut grad_input),
        );
        let mut weights = Matrix::zeros(1, 1);
        cache.input.matmul_at_b_into(&grad_pre, &mut weights);
        (DenseGradients { weights, bias }, grad_input)
    }

    /// Backward pass into caller-owned buffers, up to the weight gradient;
    /// the engine of the training loop, which fuses that gradient into the
    /// optimizer's update ([`crate::optimizer::Optimizer`]).
    ///
    /// Computes `grad_pre = grad_output ⊙ act'(pre_activation)`, from it
    /// (unless this is the first layer, `grad_input == None`) the gradient
    /// with respect to the layer input with the transpose-free
    /// [`Matrix::matmul_a_bt_into`] — it reads the weights, so it runs before
    /// they move — and the bias gradient. Results are bit-identical to the
    /// allocating formulation.
    pub fn backward_into(
        &self,
        pre_activation: &Matrix,
        grad_output: &Matrix,
        (grad_pre, bias_grad): (&mut Matrix, &mut Matrix),
        grad_input: Option<&mut Matrix>,
    ) {
        grad_pre.copy_from(grad_output);
        for (g, &p) in grad_pre
            .as_mut_slice()
            .iter_mut()
            .zip(pre_activation.as_slice().iter())
        {
            *g *= self.activation.derivative_eval(p);
        }
        if let Some(grad_input) = grad_input {
            grad_pre.matmul_a_bt_into(&self.weights, grad_input);
        }
        bias_grad.sum_rows_into(grad_pre);
    }
}

/// Where a bound layer ([`PackedDense`], [`crate::QuantizedDense`]) writes
/// its `rows x n` output: a [`Matrix`] it reshapes, or one line-aligned
/// buffer a row ([`AlignedRow`]) — each made exactly `n` long, in the
/// allocation it has when it is that long already — which the caller hands
/// on without copying it (a served reconstruction changes hands this way).
/// Both are the same product, bit for bit.
#[derive(Debug)]
pub enum LayerOut<'a> {
    /// A matrix, reshaped to `rows x n`.
    Matrix(&'a mut Matrix),
    /// Exactly `rows` buffers, one a row.
    Rows(&'a mut [AlignedRow]),
}

impl<'a> From<&'a mut Matrix> for LayerOut<'a> {
    fn from(matrix: &'a mut Matrix) -> Self {
        LayerOut::Matrix(matrix)
    }
}

impl<'a> From<&'a mut [AlignedRow]> for LayerOut<'a> {
    fn from(rows: &'a mut [AlignedRow]) -> Self {
        LayerOut::Rows(rows)
    }
}

impl<'a> LayerOut<'a> {
    /// Shapes the output for `rows x n` and lends it to a product, which
    /// writes every element.
    ///
    /// # Panics
    /// Panics when a row-buffer output holds other than `rows` buffers.
    pub(crate) fn shape(self, rows: usize, n: usize) -> Rows<'a> {
        match self {
            LayerOut::Matrix(matrix) => {
                matrix.reshape_for_overwrite(rows, n);
                Rows::Matrix(matrix.as_mut_slice())
            }
            LayerOut::Rows(buffers) => {
                assert_eq!(buffers.len(), rows, "one output buffer a row");
                for row in buffers.iter_mut().filter(|row| row.len() != n) {
                    row.resize(n);
                }
                Rows::Buffers(buffers)
            }
        }
    }
}

/// A dense layer bound for inference under the FMA backend: the weights
/// panel-packed **once** ([`PackedRhs`]) beside a copy of bias and
/// activation, so a forward pass is one [`gemm_f32_packed`] call that writes
/// every output exactly once. The f32 master [`Dense`] is read, never
/// modified; a layer whose weights keep changing (training) has nothing to
/// bind and stays on [`Dense::infer_into_with`].
///
/// Outputs are bit-identical to `Dense::infer_into_with(.., Kernel::Avx2Fma)`
/// for every batch shape and packing width.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedDense {
    weights: PackedRhs,
    bias: Vec<f32>,
    activation: Activation,
}

impl PackedDense {
    /// Packs `layer` for `width` ([`PackedWidth::detect`] in production; the
    /// parity tests pass each width in turn).
    pub fn pack(layer: &Dense, width: PackedWidth) -> Self {
        let (k, n) = (layer.input_dim(), layer.output_dim());
        Self {
            weights: PackedRhs::pack(layer.weights.as_slice(), k, n, width),
            bias: layer.bias.as_slice().to_vec(),
            activation: layer.activation,
        }
    }

    /// Input dimension of the layer.
    pub fn input_dim(&self) -> usize {
        self.weights.inner_dim()
    }

    /// Output dimension of the layer.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Inference-only forward pass `out = activation(input * W + bias)` into
    /// a caller-owned matrix or row buffers ([`LayerOut`]: shaped, storage
    /// reused, not zero-filled).
    ///
    /// # Panics
    /// Panics if `input.cols()` differs from the layer's input dimension.
    pub fn infer_into<'o>(&self, input: &Matrix, out: impl Into<LayerOut<'o>>) {
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "packed layer input width mismatch"
        );
        let o = out.into().shape(input.rows(), self.output_dim());
        let a = input.as_slice();
        // Identity gets its own instance so its (empty) activation pass
        // compiles away instead of branching per element.
        match self.activation {
            Activation::Identity => gemm_f32_packed(a, &self.weights, &self.bias, |v| v, o),
            act => gemm_f32_packed(a, &self.weights, &self.bias, |v| act.eval(v), o),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn activation_values() {
        let x = Matrix::from_rows(1, 4, &[-2.0, -0.5, 0.0, 1.5]);
        assert_eq!(Activation::Relu.apply(&x).as_slice(), &[0.0, 0.0, 0.0, 1.5]);
        assert_eq!(Activation::Identity.apply(&x).as_slice(), x.as_slice());
        let leaky = Activation::LeakyRelu.apply(&x);
        assert!((leaky.get(0, 0) + 0.02).abs() < 1e-6);
        let tanh = Activation::Tanh.apply(&x);
        assert!(tanh.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn forward_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let layer = Dense::new(4, 3, Activation::Tanh, &mut rng);
        let x = Matrix::zeros(5, 4);
        let (y, cache) = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
        assert_eq!(
            (cache.pre_activation.rows(), cache.pre_activation.cols()),
            (5, 3)
        );
        assert_eq!(layer.num_parameters(), 4 * 3 + 3);
        assert_eq!(layer.macs(), 12);
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let layer = Dense::new(3, 2, Activation::Relu, &mut rng);
        let x = Matrix::from_rows(2, 3, &[0.1, -0.2, 0.3, 0.5, 0.4, -0.1]);
        let (y, _) = layer.forward(&x);
        assert_eq!(layer.infer(&x), y);
    }

    #[test]
    fn fused_infer_matches_reference_bit_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for activation in [
            Activation::Identity,
            Activation::Relu,
            Activation::Tanh,
            Activation::LeakyRelu,
        ] {
            let mut layer = Dense::new(5, 4, activation, &mut rng);
            // Non-zero bias to exercise the epilogue's add.
            for (i, b) in layer.bias.as_mut_slice().iter_mut().enumerate() {
                *b = (i as f32 - 1.5) * 0.3;
            }
            let x = Matrix::xavier_uniform(3, 5, &mut rng);
            assert_eq!(layer.infer(&x), layer.infer_reference(&x), "{activation:?}");
        }
    }

    #[test]
    fn packed_layer_matches_the_row_major_fma_layer_bit_exactly() {
        if mimo_math::Backend::host() < mimo_math::Backend::Avx2 {
            return;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for activation in [
            Activation::Identity,
            Activation::Relu,
            Activation::Tanh,
            Activation::LeakyRelu,
        ] {
            // 37 columns: one full and one partial panel at either width.
            let mut layer = Dense::new(9, 37, activation, &mut rng);
            for (i, b) in layer.bias.as_mut_slice().iter_mut().enumerate() {
                *b = (i as f32 - 18.0) * 0.05;
            }
            let x = Matrix::xavier_uniform(14, 9, &mut rng);
            let mut want = Matrix::zeros(1, 1);
            layer.infer_into_with(&x, &mut want, mimo_math::Kernel::Avx2Fma);
            for width in [PackedWidth::Ymm, PackedWidth::Zmm] {
                let packed = PackedDense::pack(&layer, width);
                assert_eq!((packed.input_dim(), packed.output_dim()), (9, 37));
                // A stale, differently shaped buffer must be fully rewritten.
                let mut got = Matrix::from_rows(2, 2, &[f32::NAN; 4]);
                packed.infer_into(&x, &mut got);
                assert_eq!(got, want, "{activation:?} {width:?}");
            }
        }
    }

    #[test]
    fn backward_into_matches_backward() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let layer = Dense::new(4, 3, Activation::Tanh, &mut rng);
        let x = Matrix::xavier_uniform(5, 4, &mut rng);
        let (y, cache) = layer.forward(&x);
        let (grads, grad_input) = layer.backward(&cache, &y);

        let mut grad_pre = Matrix::zeros(1, 1);
        let mut bias = Matrix::zeros(1, 1);
        let mut grad_input2 = Matrix::zeros(1, 1);
        layer.backward_into(
            &cache.pre_activation,
            &y,
            (&mut grad_pre, &mut bias),
            Some(&mut grad_input2),
        );
        assert_eq!(grads.bias, bias);
        assert_eq!(grad_input, grad_input2);
    }

    /// Finite-difference check of the dense layer's backward pass.
    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(2, 3, &[0.2, -0.4, 0.6, -0.1, 0.3, 0.5]);
        let target = Matrix::from_rows(2, 2, &[0.5, -0.5, 0.25, 0.75]);

        // Loss = 0.5 * sum((y - target)^2); dL/dy = y - target.
        let loss = |layer: &Dense| -> f32 {
            let y = layer.infer(&x);
            y.sub(&target)
                .as_slice()
                .iter()
                .map(|v| 0.5 * v * v)
                .sum::<f32>()
        };

        let (y, cache) = layer.forward(&x);
        let grad_out = y.sub(&target);
        let (grads, _) = layer.backward(&cache, &grad_out);

        let eps = 1e-3f32;
        for idx in [0usize, 2, 5] {
            let orig = layer.weights.as_slice()[idx];
            layer.weights.as_mut_slice()[idx] = orig + eps;
            let plus = loss(&layer);
            layer.weights.as_mut_slice()[idx] = orig - eps;
            let minus = loss(&layer);
            layer.weights.as_mut_slice()[idx] = orig;
            let numerical = (plus - minus) / (2.0 * eps);
            let analytic = grads.weights.as_slice()[idx];
            assert!(
                (numerical - analytic).abs() < 1e-2,
                "weight {idx}: numerical {numerical} vs analytic {analytic}"
            );
        }
        // Bias gradient check.
        let orig = layer.bias.as_slice()[1];
        layer.bias.as_mut_slice()[1] = orig + eps;
        let plus = loss(&layer);
        layer.bias.as_mut_slice()[1] = orig - eps;
        let minus = loss(&layer);
        layer.bias.as_mut_slice()[1] = orig;
        let numerical = (plus - minus) / (2.0 * eps);
        assert!((numerical - grads.bias.as_slice()[1]).abs() < 1e-2);
    }

    #[test]
    fn grad_input_propagates_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let layer = Dense::new(6, 4, Activation::Relu, &mut rng);
        let x = Matrix::xavier_uniform(3, 6, &mut rng);
        let (y, cache) = layer.forward(&x);
        let (_, grad_input) = layer.backward(&cache, &y);
        assert_eq!((grad_input.rows(), grad_input.cols()), (3, 6));
    }
}
