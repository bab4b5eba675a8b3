//! Int8 quantized weight store for low-precision inference.
//!
//! The serving hot path streams each dense layer's f32 weight matrix from
//! DRAM for every batch; [`QuantizedDense`] shrinks that stream 4x by holding
//! the weights as **per-output-channel symmetric int8** (one f32 scale per
//! output column, codes in `-127..=127`), packed into the panel-major K4
//! layout of [`mimo_math::kernel::int8`]. Quantization happens **once, at
//! model-bind time** — the f32 master weights stay untouched in the owning
//! [`Dense`] layer, so the f32 path is never perturbed and a store can always
//! be re-bound from the master.
//!
//! # Inference math
//!
//! Activations are quantized dynamically per input row to **u7** asymmetric
//! codes (`a ≈ a_min + aq * a_scale`, `aq ∈ 0..=127` — the bound that keeps
//! the AVX2 `maddubs` arm saturation-free). With `wq ∈ -127..=127` and
//! `w ≈ wq * ws_j` per output column `j`:
//!
//! ```text
//! sum_k a[k] w[k][j]  ≈  ws_j * (a_scale * acc[j]  +  a_min * col_sum[j])
//! acc[j]     = sum_k aq[k] * wq[k][j]      (exact i32, the GEMM kernel)
//! col_sum[j] = sum_k wq[k][j]              (exact i32, precomputed at bind)
//! ```
//!
//! The integer accumulation is **exact** in every backend, and the epilogue
//! (scales, `col_sum` correction, bias, activation) is the one f32 expression
//! `acc * ws_j * a_scale + (a_min * corr_j + bias_j)`, evaluated in that order
//! by the kernel's store while the sums are still in registers — so quantized
//! outputs are bit-identical across scalar / AVX2 / VNNI backends and across
//! batch shapes, the same property the f32 kernels guarantee.

use crate::layer::{Activation, Dense, LayerOut};
use crate::tensor::Matrix;
use mimo_math::kernel::int8::{self, Dequant, Int8Kernel, Lhs, PackedInt8};
use mimo_math::kernel::packed::PackedWidth;

/// A dense layer's weights, quantized once to per-output-channel symmetric
/// int8 and packed for the integer GEMM tier. Immutable after binding.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedDense {
    /// Panel-packed quantized weights — the layer's only copy of its codes.
    packed: PackedInt8,
    /// Per-output-channel symmetric scale: `w ≈ wq * col_scale[j]`.
    col_scale: Vec<f32>,
    /// The layer bias, copied so inference needs no master-layer access.
    bias: Vec<f32>,
    /// The zero-point correction `col_sum * col_scale` (`col_sum` the
    /// per-output-channel sum of quantized weights), computed in f64 at bind
    /// time and narrowed once — the epilogue runs in f32 (its rounding,
    /// ~1e-7 relative, sits two orders of magnitude below the int8/u7
    /// quantization error it dequantizes).
    corr: Vec<f32>,
    activation: Activation,
}

impl QuantizedDense {
    /// Quantizes `layer`'s weights (per-output-channel symmetric, round to
    /// nearest, codes clamped to `-127..=127`) straight into the packed
    /// layout of the integer GEMM. The layer's f32 master weights are read,
    /// never modified.
    pub fn quantize(layer: &Dense) -> Self {
        let n = layer.weights.cols();
        let w = layer.weights.as_slice();
        let mut amax = vec![0.0f32; n];
        for row in w.chunks_exact(n) {
            for (m, &v) in amax.iter_mut().zip(row) {
                *m = m.max(v.abs());
            }
        }
        // All-zero (or non-finite-free degenerate) columns quantize to
        // all-zero codes under a scale of 1.
        let col_scale: Vec<f32> = amax
            .iter()
            .map(|&m| if m > 0.0 { m / 127.0 } else { 1.0 })
            .collect();
        let mut col_sum = vec![0i32; n];
        let packed = PackedInt8::pack(layer.weights.rows(), n, PackedWidth::detect(), |r, j| {
            let q = (w[r * n + j] / col_scale[j]).round().clamp(-127.0, 127.0) as i32;
            col_sum[j] += q;
            q as i8
        });
        let corr: Vec<f32> = col_sum
            .iter()
            .zip(&col_scale)
            .map(|(&s, &w)| (f64::from(s) * f64::from(w)) as f32)
            .collect();
        Self {
            packed,
            col_scale,
            bias: layer.bias.as_slice().to_vec(),
            corr,
            activation: layer.activation,
        }
    }

    /// Input dimension (the master layer's weight rows).
    pub fn input_dim(&self) -> usize {
        self.packed.inner_dim()
    }

    /// Output dimension (the master layer's weight columns).
    pub fn output_dim(&self) -> usize {
        self.packed.cols()
    }

    /// The layer activation applied by the epilogue.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Bytes of quantized weight data streamed per batch — the quantity the
    /// int8 tier exists to shrink (4x smaller than the f32 master weights,
    /// modulo the zero padding of the last group and the last panel).
    pub fn weight_bytes(&self) -> usize {
        self.packed.bytes()
    }

    /// Worst-case absolute weight reconstruction error, `max_j col_scale[j]/2`
    /// — the symmetric-quantization bound the tests hold a layer to.
    #[cfg(test)]
    pub fn max_weight_error(&self) -> f32 {
        self.col_scale.iter().fold(0.0f32, |m, &s| m.max(s)) * 0.5
    }

    /// Fused quantized `out = activation(input * W + bias)` — the int8
    /// counterpart of [`Matrix::matmul_bias_act_into_with`].
    ///
    /// Quantizes each input row to u7 codes in `scratch` and runs the integer
    /// GEMM on `kernel`, whose store dequantizes, adds the bias and applies
    /// the activation. `out`, a matrix or one buffer a row ([`LayerOut`]),
    /// is shaped to `input.rows() x output_dim`. Results are bit-identical
    /// across backends, batch shapes and output forms.
    ///
    /// # Panics
    /// Panics when `input.cols() != input_dim()`.
    pub fn matmul_bias_act_into<'o>(
        &self,
        input: &Matrix,
        scratch: &mut QuantScratch,
        out: impl Into<LayerOut<'o>>,
        kernel: Int8Kernel,
    ) {
        let k = self.input_dim();
        assert_eq!(input.cols(), k, "quantized layer input dimension mismatch");
        scratch.prepare(input.rows(), k);
        // Per-row dynamic u7 activation quantization.
        for (r, row) in input.as_slice().chunks_exact(k).enumerate() {
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let scale = (hi - lo) / 127.0;
            let dst = scratch.aq.row_mut(r);
            if scale > 0.0 {
                let inv = 1.0 / scale;
                // `round_ties_even` (one `roundps`), not `round`: half-away
                // rounding has no x86 instruction and keeps this hot loop
                // scalar. The codes differ only on exact-half fractions, and
                // identically for every backend.
                for (d, &v) in dst.iter_mut().zip(row.iter()) {
                    *d = ((v - lo) * inv).round_ties_even().clamp(0.0, 127.0) as u8;
                }
            } else {
                // Constant row: every element is exactly `lo`.
                dst.fill(0);
            }
            scratch.row_scale[r] = if scale > 0.0 { scale } else { 0.0 };
            scratch.row_min[r] = lo;
        }
        self.finish(scratch, out.into(), kernel);
    }

    /// Fused quantized forward over rows the **caller** quantizes: `fill` is
    /// invoked once per row with the row's `input_dim`-long u7 code buffer
    /// (pre-zeroed, so writing a prefix leaves padding clean) and returns the
    /// row's `(scale, min)` dequantization parameters: `value = min + code *
    /// scale` with codes in `0..=127`. The internal quantizer produces
    /// `scale >= 0.0` (`0.0` for a constant row of exactly `min`); the store
    /// evaluates the one expression whatever the sign, so a caller's scale
    /// may be any f32.
    ///
    /// This is the seam for callers whose inputs already *are* quantization
    /// codes (decoded wire payloads): a code of at most 7 bits is the u7
    /// activation as it stands, with the wire quantizer's step and minimum
    /// as the row's parameters — no dequantize-to-f32 round trip, no second
    /// rounding — and the row still shares the exact GEMM + epilogue of
    /// [`Self::matmul_bias_act_into`], preserving bit-identical results
    /// across backends and batch shapes.
    ///
    /// `fill` may reject a row, in which case the error is returned before
    /// the GEMM runs and `out` is left untouched. This lets streaming callers
    /// validate payloads row-by-row while filling — no intermediate
    /// collection of the batch, so the hot path stays allocation-free.
    ///
    /// # Panics
    /// Panics when `rows == 0`.
    pub fn try_matmul_bias_act_from_rows<'o, F, E>(
        &self,
        rows: usize,
        mut fill: F,
        scratch: &mut QuantScratch,
        out: impl Into<LayerOut<'o>>,
        kernel: Int8Kernel,
    ) -> Result<(), E>
    where
        F: FnMut(usize, &mut [u8]) -> Result<(f32, f32), E>,
    {
        assert!(rows > 0, "quantized forward needs at least one row");
        scratch.prepare(rows, self.input_dim());
        for r in 0..rows {
            let (scale, min) = fill(r, scratch.aq.row_mut(r))?;
            scratch.row_scale[r] = scale;
            scratch.row_min[r] = min;
        }
        self.finish(scratch, out.into(), kernel);
        Ok(())
    }

    /// The shared back half of both forward entries: the integer GEMM with
    /// the dequantize+bias+activation epilogue in its store. Expects
    /// `scratch` prepared and its `aq`/`row_scale`/`row_min` filled.
    ///
    /// The epilogue runs in f32: `acc` fits 27 bits so the i32→f32 narrowing
    /// loses at most ~6e-8 relative, and every further rounding sits far
    /// below the int8/u7 quantization error the formula dequantizes. The
    /// activation dispatch happens here, once per call, so the common
    /// Identity/Relu cases stay branch-free per element.
    fn finish(&self, scratch: &QuantScratch, out: LayerOut<'_>, kernel: Int8Kernel) {
        let o = out.shape(scratch.row_scale.len(), self.output_dim());
        let deq = Dequant {
            row_scale: &scratch.row_scale,
            row_min: &scratch.row_min,
            col_scale: &self.col_scale,
            corr: &self.corr,
            bias: &self.bias,
        };
        let (a, b) = (&scratch.aq, &self.packed);
        match self.activation {
            Activation::Identity => int8::gemm_u8i8_dequant(kernel, a, b, deq, |v| v, o),
            Activation::Relu => int8::gemm_u8i8_dequant(kernel, a, b, deq, |v| v.max(0.0), o),
            Activation::Tanh => int8::gemm_u8i8_dequant(kernel, a, b, deq, tanh_fast, o),
            Activation::LeakyRelu => {
                let leaky = |v| if v >= 0.0 { v } else { 0.01 * v };
                int8::gemm_u8i8_dequant(kernel, a, b, deq, leaky, o)
            }
        }
    }
}

/// Rational tanh used by the int8 epilogue: the 7th-order Lambert continued
/// fraction, clamped at the saturation point (absolute error < 3e-5 — two
/// orders of magnitude below the u7/int8 quantization error of the inputs it
/// activates). Keeps the hot epilogue free of libm calls; the f32 master
/// path still evaluates `f32::tanh` untouched. Deterministic plain f32
/// arithmetic, so the cross-backend bit-exactness of the quantized path is
/// unaffected.
#[inline(always)]
fn tanh_fast(v: f32) -> f32 {
    let x = v.clamp(-4.97, 4.97);
    let x2 = x * x;
    let p = x * (135135.0 + x2 * (17325.0 + x2 * (378.0 + x2)));
    let q = 135135.0 + x2 * (62370.0 + x2 * (3150.0 + 28.0 * x2));
    (p / q).clamp(-1.0, 1.0)
}

/// Reusable buffers for [`QuantizedDense::matmul_bias_act_into`]: quantized
/// activation rows (in the integer GEMM's layout, [`Lhs`]) and the per-row
/// quantization parameters. A call reshapes them without clearing: every
/// row's `k` codes and both parameters are written before the product
/// reads them, and whatever an earlier, deeper call left past `k` meets
/// zero weights.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    aq: Lhs,
    row_scale: Vec<f32>,
    row_min: Vec<f32>,
}

impl QuantScratch {
    /// Empty scratch; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, rows: usize, k: usize) {
        self.aq.reset(rows, k);
        self.row_scale.clear();
        self.row_scale.resize(rows, 0.0);
        self.row_min.clear();
        self.row_min.resize(rows, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_math::Kernel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn layer(k: usize, n: usize, activation: Activation, seed: u64) -> Dense {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut l = Dense::new(k, n, activation, &mut rng);
        let w = l.weights.as_mut_slice();
        for (i, v) in w.iter_mut().enumerate() {
            *v = ((((i as u64).wrapping_mul(97) + seed) % 200) as f32 - 100.0) * 0.013;
        }
        let b = l.bias.as_mut_slice();
        for (i, v) in b.iter_mut().enumerate() {
            *v = ((i as f32) - 1.5) * 0.05;
        }
        l
    }

    fn input(rows: usize, k: usize, seed: u64) -> Matrix {
        let mut m = Matrix::zeros(rows, k);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = ((((i as u64).wrapping_mul(41) + seed) % 97) as f32 - 48.0) * 0.02;
        }
        m
    }

    fn backends() -> Vec<Int8Kernel> {
        mimo_math::Backend::arms(mimo_math::Backend::int8)
    }

    #[test]
    fn quantized_forward_tracks_the_f32_layer() {
        for activation in [Activation::Identity, Activation::Relu, Activation::Tanh] {
            let l = layer(37, 23, activation, 5);
            let q = QuantizedDense::quantize(&l);
            assert_eq!(q.input_dim(), 37);
            assert_eq!(q.output_dim(), 23);
            assert!(q.weight_bytes() >= 37 * 23);
            let x = input(6, 37, 11);
            let mut want = Matrix::zeros(1, 1);
            l.infer_into_with(&x, &mut want, Kernel::Scalar);
            let mut got = Matrix::zeros(1, 1);
            let mut scratch = QuantScratch::new();
            q.matmul_bias_act_into(&x, &mut scratch, &mut got, Int8Kernel::Scalar);
            // int8 weights + u7 activations: ~1% relative error budget on
            // these O(1) magnitudes.
            for (g, w) in got.as_slice().iter().zip(want.as_slice().iter()) {
                assert!(
                    (g - w).abs() < 0.05,
                    "{activation:?}: quantized {g} vs f32 {w}"
                );
            }
        }
    }

    /// Every backend == the scalar one, whole batch and row at a time, on
    /// one scratch reused across batch sizes (7 rows, 1, 7 again) and —
    /// through a second layer of another depth run between the calls —
    /// across depths that grow and shrink, so the activation rows hold
    /// another shape's codes past `k`: bit-equal to a fresh scratch.
    #[test]
    fn backends_and_batch_shapes_agree_bitwise() {
        let l = layer(45, 31, Activation::LeakyRelu, 9);
        let q = QuantizedDense::quantize(&l);
        let x = input(7, 45, 3);
        let deep = QuantizedDense::quantize(&layer(150, 12, Activation::Tanh, 4));
        let x_deep = input(9, 150, 8);
        let mut scratch = QuantScratch::new();
        let mut want = Matrix::zeros(1, 1);
        q.matmul_bias_act_into(&x, &mut QuantScratch::new(), &mut want, Int8Kernel::Scalar);
        let mut want_deep = Matrix::zeros(1, 1);
        deep.matmul_bias_act_into(
            &x_deep,
            &mut QuantScratch::new(),
            &mut want_deep,
            Int8Kernel::Scalar,
        );
        let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        for backend in backends() {
            // The deeper layer first and between the rows below: `k` grows
            // from 45 to 150 and shrinks back on the same scratch.
            let mut got_deep = Matrix::zeros(1, 1);
            deep.matmul_bias_act_into(&x_deep, &mut scratch, &mut got_deep, backend);
            assert_eq!(bits(&got_deep), bits(&want_deep), "{backend:?} deep layer");
            // Whole batch.
            let mut got = Matrix::zeros(1, 1);
            q.matmul_bias_act_into(&x, &mut scratch, &mut got, backend);
            let want_bits: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "{backend:?} batched");
            // Row at a time must match the batched call exactly.
            for r in 0..x.rows() {
                let mut row_in = Matrix::zeros(1, x.cols());
                row_in
                    .as_mut_slice()
                    .copy_from_slice(&x.as_slice()[r * x.cols()..(r + 1) * x.cols()]);
                let mut row_out = Matrix::zeros(1, 1);
                q.matmul_bias_act_into(&row_in, &mut scratch, &mut row_out, backend);
                deep.matmul_bias_act_into(&x_deep, &mut scratch, &mut got_deep, backend);
                assert_eq!(
                    bits(&got_deep),
                    bits(&want_deep),
                    "{backend:?} deep after row {r}"
                );
                let row_bits: Vec<u32> = row_out.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    row_bits,
                    want_bits[r * 31..(r + 1) * 31].to_vec(),
                    "{backend:?} row {r}"
                );
            }
        }
    }

    #[test]
    fn constant_and_zero_inputs_are_exact() {
        let l = layer(8, 5, Activation::Identity, 21);
        let q = QuantizedDense::quantize(&l);
        // A constant row carries no quantization error at all: the whole row
        // is the zero point, so the reconstruction is exact up to f32/f64
        // rounding of the correction term.
        let mut x = Matrix::zeros(2, 8);
        for v in x.as_mut_slice()[8..].iter_mut() {
            *v = 0.75;
        }
        let mut want = Matrix::zeros(1, 1);
        l.infer_into_with(&x, &mut want, Kernel::Scalar);
        let mut got = Matrix::zeros(1, 1);
        let mut scratch = QuantScratch::new();
        q.matmul_bias_act_into(&x, &mut scratch, &mut got, Int8Kernel::Scalar);
        for (g, w) in got.as_slice().iter().zip(want.as_slice().iter()) {
            // Only weight-quantization error remains (< col_scale/2 per term).
            assert!(
                (g - w).abs() < 8.0 * q.max_weight_error() + 1e-6,
                "{g} vs {w}"
            );
        }
    }

    #[test]
    fn all_zero_weight_columns_bind_cleanly() {
        let mut l = layer(6, 4, Activation::Identity, 2);
        let n = l.weights.cols();
        for r in 0..l.weights.rows() {
            l.weights.as_mut_slice()[r * n + 2] = 0.0;
        }
        let q = QuantizedDense::quantize(&l);
        let x = input(3, 6, 17);
        let mut out = Matrix::zeros(1, 1);
        let mut scratch = QuantScratch::new();
        q.matmul_bias_act_into(&x, &mut scratch, &mut out, Int8Kernel::Scalar);
        for r in 0..3 {
            let got = out.as_slice()[r * 4 + 2];
            let bias = l.bias.as_slice()[2];
            assert_eq!(got, bias, "zero column must produce exactly the bias");
        }
    }
}
