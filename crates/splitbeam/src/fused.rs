//! Fused dequantize→tail-inference kernel.
//!
//! The AP's per-round hot path used to be: dequantize every payload into a
//! fresh `Vec<f32>`, stack the vectors into a freshly allocated batch matrix,
//! then run the tail network layer by layer with intermediate matrices. This
//! module fuses the chain: payload codes are dequantized straight into one
//! arena-owned strip (a `batch x bottleneck` block that is reused round after
//! round — no per-payload heap `Vec`), and the tail layers run over it as
//! one batched product each, ping-ponging between two reusable matrices:
//! the panel-packed GEMM over the weights the model packed at construction
//! ([`neural::PackedDense`], bias + activation fused into the single store)
//! under the FMA backend, the row-major kernels under the scalar backend.
//! The last layer writes either one matrix (the `…_iter_into` entries) or
//! one buffer a row (`reconstruct_quantized_batch_into_rows`): a serving
//! layer swaps those buffers with its sessions' previous feedback, so a
//! served reconstruction changes hands instead of being copied. Payloads
//! arrive as [`PayloadView`]s — a `&QuantizedFeedback` converts into one,
//! and so does a serving shard's row of pending codes — so one fill serves
//! both.
//!
//! **Exactness.** The dequantized strip is computed by
//! [`dequantize_bottleneck_into`](crate::quantization::dequantize_bottleneck_into)'s
//! arms (bit-identical to the allocating dequantizer, vectorised or not).
//! Under the scalar backend every layer runs through the very
//! [`neural::Matrix::matmul_bias_act_into_with`] kernel the unfused
//! per-payload path uses; under the FMA backend the packed GEMM computes
//! each element as the same single FMA chain over ascending `k` as the
//! row-major FMA kernel, whatever the batch shape or vector width — so a
//! fused batched reconstruction is bit-identical to
//! dequantize-then-reconstruct, payload by payload, for both backends. The
//! batched-equals-serial property of the serving layer therefore survives
//! kernel dispatch unchanged.

use crate::model::SplitBeamModel;
use crate::quantization::{dequantize_on, PayloadView};
use crate::{Refusal, SplitBeamError};
use mimo_math::kernel::int8::Int8Kernel;
use mimo_math::kernel::packed::AlignedRow;
use mimo_math::kernel::{self, Kernel};
use neural::quant::{QuantScratch, QuantizedDense};
use neural::{LayerOut, Matrix};

/// Which tail-weight representation the serving layer runs. The default is
/// the f32 master weights, bit-exact with the pre-quantization serving
/// output under both kernel backends; `ApServer::set_tail_weights` opts a
/// server into the int8 tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TailWeights {
    /// The f32 master weights (the historical, bit-exact default).
    #[default]
    F32,
    /// Per-output-channel symmetric int8 weights via [`QuantizedTail`].
    Int8,
}

impl TailWeights {
    /// Stable lower-snake name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            TailWeights::F32 => "f32",
            TailWeights::Int8 => "int8",
        }
    }
}

/// Reusable buffers for one fused batched tail reconstruction: the
/// one-payload dequantization strip, the two layer-output ping-pong
/// matrices, the int8 activation-code scratch, and the row buffers a
/// reconstruction into rows writes. Hold one per serving loop; after the
/// first round at the largest batch size a reconstruction performs no heap
/// allocation.
#[derive(Debug, Clone)]
pub struct TailScratch {
    /// Dequantized bottleneck strip for the whole batch (`batch x bottleneck`).
    strip: Matrix,
    /// Layer `i`'s output for even `i`; `pong` for odd.
    ping: Matrix,
    pong: Matrix,
    /// u7 activation codes and row parameters for the quantized path.
    quant: QuantScratch,
    /// One line-aligned buffer a reconstructed row, kept at the largest
    /// batch so far.
    rows: Vec<AlignedRow>,
}

impl TailScratch {
    /// Creates an empty scratch; buffers grow to their high-water marks on use.
    pub fn new() -> Self {
        Self {
            strip: Matrix::zeros(1, 1),
            ping: Matrix::zeros(1, 1),
            pong: Matrix::zeros(1, 1),
            quant: QuantScratch::new(),
            rows: Vec::new(),
        }
    }

    /// The row buffers, as many as the largest batch reconstructed into
    /// rows so far: each holds the row it was last written, or a buffer a
    /// caller swapped in for it.
    pub fn rows(&self) -> &[AlignedRow] {
        &self.rows
    }

    /// The matrix a tail of `layers` layers writes its last into.
    fn output(&self, layers: usize) -> &Matrix {
        if layers % 2 == 1 {
            &self.ping
        } else {
            &self.pong
        }
    }
}

/// The input and the output matrix of tail layer `i`: the strip feeds layer
/// 0, and layer `i` writes `ping` for even `i`, `pong` for odd, reading the
/// other.
fn layer_io<'s>(
    i: usize,
    strip: &'s Matrix,
    ping: &'s mut Matrix,
    pong: &'s mut Matrix,
) -> (&'s Matrix, &'s mut Matrix) {
    match (i, i % 2) {
        (0, _) => (strip, ping),
        (_, 0) => (pong, ping),
        _ => (ping, pong),
    }
}

/// The first `batch` row buffers, the missing ones made (empty: the layer
/// sizes them).
fn rows_for(rows: &mut Vec<AlignedRow>, batch: usize) -> &mut [AlignedRow] {
    if rows.len() < batch {
        rows.resize_with(batch, AlignedRow::default);
    }
    &mut rows[..batch]
}

impl Default for TailScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SplitBeamModel {
    /// **AP side, batched + fused**: reconstructs the `batch` quantized
    /// payloads `payloads` yields from one dequantized strip on kernel
    /// backend `kern` (the packed tail under `avx2_fma`;
    /// [`mimo_math::kernel::selected`] is the runtime's choice) — the allocation-free
    /// seam the serving layer drives, with no payload-reference slice to
    /// materialize. Returns the `batch x output_dim` matrix held by `scratch`
    /// (row `i` is payload `i`'s reconstruction).
    ///
    /// Results are bit-identical to
    /// [`SplitBeamModel::reconstruct_quantized`] applied per payload.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when the batch is empty,
    /// the iterator yields fewer or more than `batch` payloads, a payload's
    /// code count differs from the bottleneck width, its `bits_per_value`
    /// lies outside `1..=16` or one of its codes does not fit that width;
    /// nothing is reconstructed from a batch that fails.
    pub fn reconstruct_quantized_batch_iter_into<'a, 'p, I>(
        &self,
        payloads: I,
        batch: usize,
        scratch: &'a mut TailScratch,
        kern: Kernel,
    ) -> Result<&'a Matrix, SplitBeamError>
    where
        I: Iterator,
        I::Item: Into<PayloadView<'p>>,
    {
        self.tail_into(payloads, batch, scratch, kern, false)?;
        Ok(scratch.output(self.tail().layers().len()))
    }

    /// [`SplitBeamModel::reconstruct_quantized_batch_iter_into`] with the
    /// last layer writing each row into a buffer of its own: returns the
    /// scratch's first `batch` row buffers (row `i` is payload `i`'s
    /// reconstruction). The caller may swap them for buffers of its own —
    /// the served reconstruction changes hands instead of being copied — and
    /// the next batch writes into whatever buffers it finds there. The same
    /// bits as the matrix form, and under the same errors nothing is
    /// reconstructed.
    ///
    /// # Errors
    /// As [`SplitBeamModel::reconstruct_quantized_batch_iter_into`].
    pub fn reconstruct_quantized_batch_into_rows<'a, 'p, I>(
        &self,
        payloads: I,
        batch: usize,
        scratch: &'a mut TailScratch,
        kern: Kernel,
    ) -> Result<&'a mut [AlignedRow], SplitBeamError>
    where
        I: Iterator,
        I::Item: Into<PayloadView<'p>>,
    {
        self.tail_into(payloads, batch, scratch, kern, true)?;
        Ok(&mut scratch.rows[..batch])
    }

    /// The fused tail over `payloads`, its last layer into the scratch's
    /// matrix or, with `into_rows`, its row buffers.
    fn tail_into<'p, I>(
        &self,
        payloads: I,
        batch: usize,
        scratch: &mut TailScratch,
        kern: Kernel,
        into_rows: bool,
    ) -> Result<(), SplitBeamError>
    where
        I: Iterator,
        I::Item: Into<PayloadView<'p>>,
    {
        let layers = self.tail().layers();
        let packed = self.packed_tail();
        let TailScratch {
            strip,
            ping,
            pong,
            rows,
            ..
        } = scratch;
        fill_strip(strip, payloads, batch, self.tail().input_dim())?;
        for (i, layer) in layers.iter().enumerate() {
            let (input, out) = layer_io(i, strip, ping, pong);
            let rows = (into_rows && i + 1 == layers.len()).then(|| rows_for(rows, batch));
            // The scalar backend runs the row-major kernels the unfused
            // per-payload path runs; the FMA backend runs the packed GEMM,
            // whose every element is the same FMA chain — so fused ==
            // unfused bit for bit under either.
            match (kern, rows) {
                (Kernel::Avx2Fma, Some(rows)) => packed[i].infer_into(input, rows),
                (Kernel::Avx2Fma, None) => packed[i].infer_into(input, out),
                (Kernel::Scalar, rows) => {
                    layer.infer_into_with(input, out, kern);
                    for (row, from) in rows
                        .into_iter()
                        .flatten()
                        .zip(out.as_slice().chunks(out.cols()))
                    {
                        if row.len() != from.len() {
                            row.resize(from.len());
                        }
                        row.copy_from_slice(from);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Dequantizes every payload straight into the arena strip (row `r` is
/// payload `r`'s bottleneck) — the only materialization of the batch, in
/// storage that is reused round after round and overwritten whole, so never
/// cleared. The f32 reconstruction path; the int8 path maps codes directly
/// via [`codes_to_u7`] under the same batch- and payload-validation rules.
fn fill_strip<'p, I>(
    strip: &mut Matrix,
    payloads: I,
    batch: usize,
    dim: usize,
) -> Result<(), SplitBeamError>
where
    I: Iterator,
    I::Item: Into<PayloadView<'p>>,
{
    if batch == 0 {
        return Err(Refusal::Shape { got: 0, want: 1 }.into());
    }
    let level = kernel::selected_backend();
    let mut payloads = payloads.map(Into::into);
    strip.reshape_for_overwrite(batch, dim);
    let mut rows = 0usize;
    // Chunks drive the zip so it never consumes a payload beyond `batch`
    // (zip pulls from its first iterator before checking the second).
    for (strip_row, payload) in strip
        .as_mut_slice()
        .chunks_exact_mut(dim)
        .zip(&mut payloads)
    {
        check_shape(payload, dim)?;
        check_codes_fit(payload, payload.codes.iter().fold(0, |seen, &c| seen | c))?;
        dequantize_on(level, payload, strip_row);
        rows += 1;
    }
    // A short iterator is spent; a long one yields one more.
    let got = rows + usize::from(payloads.next().is_some());
    if got != batch {
        return Err(Refusal::Shape { got, want: batch }.into());
    }
    Ok(())
}

/// A payload reaches a tail as a value anyone can build, not only through
/// the wire decoder: its code count must be the bottleneck width and its
/// quantizer width one the wire format has.
fn check_shape(payload: PayloadView<'_>, dim: usize) -> Result<(), SplitBeamError> {
    let (got, want) = (payload.codes.len(), dim);
    if got != want {
        return Err(Refusal::CodeCount { got, want }.into());
    }
    if !(1..=16).contains(&payload.bits_per_value) {
        return Err(Refusal::BitWidth(payload.bits_per_value).into());
    }
    Ok(())
}

/// Rejects a payload with a code past its quantizer width, given the OR (or
/// the maximum) of its codes: a bit above the width is set in that iff it is
/// set in some code. Such a code is not a quantizer level; dequantizing it
/// would extrapolate past `max`.
fn check_codes_fit(payload: PayloadView<'_>, seen: u16) -> Result<(), SplitBeamError> {
    let bits = payload.bits_per_value;
    if u32::from(seen) >> bits == 0 {
        return Ok(());
    }
    let code = payload.codes.iter().find(|&&c| u32::from(c) >> bits != 0);
    let code = code.copied().unwrap_or(seen);
    Err(Refusal::Code { code, bits }.into())
}

/// Maps one payload's wire codes straight to the first int8 layer's u7
/// activation codes, skipping the dequantize-to-f32 round trip, and returns
/// the row's `(scale, min)` for
/// [`QuantizedDense::try_matmul_bias_act_from_rows`]; `dst` holds exactly
/// `payload.codes.len()` bytes.
///
/// The dequantized value of wire code `c` is `min + c * step` — the
/// [`crate::quantization::dequantize_bottleneck_into`] formula — which is
/// the very shape of a u7 activation row, `min + code * scale`. So at wire widths **up to 7 bits**
/// the code *is* the activation: it is narrowed to a byte as it stands, the
/// row's scale is `step` and its zero point `min`, and nothing is rounded a
/// second time. The same pass ORs the codes together, which is all it takes
/// to refuse one past its width.
///
/// A wider code does not fit u7 and is re-quantized: `v(c) = (min + c *
/// step) as f32` per element through the [`neural::quant::QuantizedDense`]
/// row formula (`round_ties_even`, clamp to `0..=127`). `v` is affine in
/// `c`, so the row's value range is attained at the integer code extremes
/// and one integer min/max scan replaces the f32 scan.
fn codes_to_u7(payload: PayloadView<'_>, dst: &mut [u8]) -> Result<(f32, f32), SplitBeamError> {
    let levels = f64::from((1u32 << payload.bits_per_value) - 1);
    let step = (f64::from(payload.max) - f64::from(payload.min)) / levels;
    if payload.bits_per_value <= 7 {
        let mut seen = 0u16;
        for (d, &c) in dst.iter_mut().zip(payload.codes) {
            *d = c as u8;
            seen |= c;
        }
        check_codes_fit(payload, seen)?;
        return Ok((step as f32, payload.min));
    }
    let base = f64::from(payload.min);
    let value = |c: u16| (base + f64::from(c) * step) as f32;
    let (mut cmin, mut cmax) = (u16::MAX, u16::MIN);
    for &c in payload.codes {
        cmin = cmin.min(c);
        cmax = cmax.max(c);
    }
    check_codes_fit(payload, cmax)?;
    // `v` is affine in `c`, so the extreme values sit at the extreme codes
    // whichever sign `step` has (a hand-built payload may carry max < min).
    let va = value(cmin);
    let vb = value(cmax);
    let lo = va.min(vb);
    let hi = va.max(vb);
    let scale = (hi - lo) / 127.0;
    // `scale > 0.0` is false for a constant payload (scale == 0), a
    // degenerate/non-finite range, or NaN — every element is the zero point
    // `lo`, codes all zero. Deliberately not `scale <= 0.0`: that would let
    // NaN through.
    let positive = scale > 0.0;
    if !positive {
        dst.fill(0);
        return Ok((0.0, lo));
    }
    let inv = 1.0 / scale;
    for (d, &c) in dst.iter_mut().zip(payload.codes) {
        *d = ((value(c) - lo) * inv).round_ties_even().clamp(0.0, 127.0) as u8;
    }
    Ok((scale, lo))
}

/// A model's tail network with every layer's weights quantized to
/// per-output-channel symmetric int8 ([`neural::quant::QuantizedDense`]),
/// bound **once** from the f32 master model. The master model is never
/// modified — servers hold a `QuantizedTail` *next to* each registered
/// [`SplitBeamModel`] and pick a path per round via [`TailWeights`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTail {
    layers: Vec<QuantizedDense>,
    bottleneck: usize,
    output_dim: usize,
}

impl QuantizedTail {
    /// Quantizes and packs every tail layer of `model` (the one-time
    /// bind-time cost; the serving hot path only streams the packed bytes).
    pub fn bind(model: &SplitBeamModel) -> Self {
        let layers: Vec<QuantizedDense> = model
            .tail()
            .layers()
            .iter()
            .map(QuantizedDense::quantize)
            .collect();
        let output_dim = layers.last().map(QuantizedDense::output_dim).unwrap_or(0);
        Self {
            layers,
            bottleneck: model.bottleneck_dim(),
            output_dim,
        }
    }

    /// The bottleneck width payloads must carry.
    pub fn bottleneck_dim(&self) -> usize {
        self.bottleneck
    }

    /// The reconstruction width (rows of the output matrix).
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Total quantized weight bytes streamed per batch across all layers —
    /// ~4x smaller than the f32 master tail.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(QuantizedDense::weight_bytes).sum()
    }

    /// **AP side, batched + fused, int8**: the quantized counterpart of
    /// [`SplitBeamModel::reconstruct_quantized_batch_iter_into`] — same batch
    /// validation, but the wire codes are mapped **directly** to the first
    /// layer's u7 activation codes (at widths up to 7 bits they *are* those
    /// codes, see `codes_to_u7`) with no dequantize-to-f32 strip in between,
    /// and every layer runs the packed integer GEMM on `kernel`,
    /// dequantizing in its store.
    ///
    /// Outputs are bit-identical across integer backends and batch shapes
    /// (exact i32 accumulation), so batched, serial, sharded and streaming
    /// serving agree under the int8 path exactly as they do under f32.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] under the same
    /// conditions as the f32 path.
    pub fn reconstruct_quantized_batch_iter_into<'a, 'p, I>(
        &self,
        payloads: I,
        batch: usize,
        scratch: &'a mut TailScratch,
        kernel: Int8Kernel,
    ) -> Result<&'a Matrix, SplitBeamError>
    where
        I: Iterator,
        I::Item: Into<PayloadView<'p>>,
    {
        self.tail_into(payloads, batch, scratch, kernel, false)?;
        Ok(scratch.output(self.layers.len()))
    }

    /// The int8 counterpart of
    /// [`SplitBeamModel::reconstruct_quantized_batch_into_rows`]: the last
    /// layer writes each row into a buffer of its own, and the scratch's
    /// first `batch` row buffers are returned for the caller to swap.
    ///
    /// # Errors
    /// As [`QuantizedTail::reconstruct_quantized_batch_iter_into`].
    pub fn reconstruct_quantized_batch_into_rows<'a, 'p, I>(
        &self,
        payloads: I,
        batch: usize,
        scratch: &'a mut TailScratch,
        kernel: Int8Kernel,
    ) -> Result<&'a mut [AlignedRow], SplitBeamError>
    where
        I: Iterator,
        I::Item: Into<PayloadView<'p>>,
    {
        self.tail_into(payloads, batch, scratch, kernel, true)?;
        Ok(&mut scratch.rows[..batch])
    }

    /// The fused int8 tail over `payloads`, its last layer into the
    /// scratch's matrix or, with `into_rows`, its row buffers.
    fn tail_into<'p, I>(
        &self,
        payloads: I,
        batch: usize,
        scratch: &mut TailScratch,
        kernel: Int8Kernel,
        into_rows: bool,
    ) -> Result<(), SplitBeamError>
    where
        I: Iterator,
        I::Item: Into<PayloadView<'p>>,
    {
        if batch == 0 {
            return Err(Refusal::Shape { got: 0, want: 1 }.into());
        }
        let TailScratch {
            strip,
            ping,
            pong,
            quant,
            rows,
        } = scratch;
        let mut payloads = payloads.map(Into::into);
        for (i, layer) in self.layers.iter().enumerate() {
            let (input, out) = layer_io(i, strip, ping, pong);
            let out: LayerOut<'_> = if into_rows && i + 1 == self.layers.len() {
                rows_for(rows, batch).into()
            } else {
                out.into()
            };
            if i > 0 {
                layer.matmul_bias_act_into(input, quant, out, kernel);
                continue;
            }
            // The row filler consumes the iterator directly — payloads are
            // validated and code-mapped row by row with no intermediate
            // collection, keeping the serving hot path allocation-free.
            layer.try_matmul_bias_act_from_rows(
                batch,
                |got, dst| {
                    let payload = payloads.next().ok_or(Refusal::Shape { got, want: batch })?;
                    check_shape(payload, self.bottleneck)?;
                    codes_to_u7(payload, dst)
                },
                quant,
                out,
                kernel,
            )?;
            if payloads.next().is_some() {
                let got = batch + 1;
                return Err(Refusal::Shape { got, want: batch }.into());
            }
        }
        Ok(())
    }

    /// Serial reference: reconstructs one payload through the quantized tail
    /// (allocating its own scratch — the station-at-a-time verification path,
    /// not the hot path). Bit-identical to a batch-of-one fused call.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when the payload is
    /// malformed as for the f32 path.
    pub fn reconstruct_quantized<'p>(
        &self,
        payload: impl Into<PayloadView<'p>>,
        kernel: Int8Kernel,
    ) -> Result<Vec<f32>, SplitBeamError> {
        let mut scratch = TailScratch::new();
        let out = self.reconstruct_quantized_batch_iter_into(
            std::iter::once(payload),
            1,
            &mut scratch,
            kernel,
        )?;
        Ok(out.as_slice().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompressionLevel, SplitBeamConfig};
    use crate::quantization::{dequantize_bottleneck, quantize_bottleneck, QuantizedFeedback};
    use mimo_math::kernel::{self, packed::PackedWidth};
    use mimo_math::Backend;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};

    fn model(seed: u64, deeper: bool) -> SplitBeamModel {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut config = SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneEighth,
        );
        if deeper {
            config = config.with_extra_tail_layer();
        }
        SplitBeamModel::new(config, &mut rng)
    }

    fn payloads_for(model: &SplitBeamModel, count: usize, bits: u8) -> Vec<QuantizedFeedback> {
        let dim = model.bottleneck_dim();
        (0..count)
            .map(|i| {
                let values: Vec<f32> = (0..dim)
                    .map(|j| ((i * dim + j) as f32 * 0.173).sin() * 0.4)
                    .collect();
                quantize_bottleneck(&values, bits)
            })
            .collect()
    }

    fn kernels() -> Vec<Kernel> {
        Backend::arms(Backend::kernel)
    }

    /// Reference: dequantize then run the tail per payload with the same
    /// explicit kernel.
    fn unfused(model: &SplitBeamModel, payload: &QuantizedFeedback, kern: Kernel) -> Vec<f32> {
        let bottleneck = dequantize_bottleneck(payload);
        let mut x = Matrix::row_vector(&bottleneck);
        let mut out = Matrix::zeros(1, 1);
        for layer in model.tail().layers() {
            layer.infer_into_with(&x, &mut out, kern);
            std::mem::swap(&mut x, &mut out);
        }
        x.as_slice().to_vec()
    }

    #[test]
    fn fused_matches_dequantize_then_matmul_bitwise_per_kernel() {
        for deeper in [false, true] {
            let m = model(11, deeper);
            let payloads = payloads_for(&m, 5, 6);
            let refs: Vec<&QuantizedFeedback> = payloads.iter().collect();
            for kern in kernels() {
                let mut scratch = TailScratch::new();
                let out = m
                    .reconstruct_quantized_batch_iter_into(
                        refs.iter().copied(),
                        refs.len(),
                        &mut scratch,
                        kern,
                    )
                    .unwrap();
                assert_eq!(out.rows(), 5);
                for (i, payload) in payloads.iter().enumerate() {
                    let want = unfused(&m, payload, kern);
                    let got = &out.as_slice()[i * out.cols()..(i + 1) * out.cols()];
                    assert_eq!(got, &want[..], "kern {kern:?} deeper={deeper} row {i}");
                }
            }
        }
    }

    #[test]
    fn fused_dispatch_matches_public_reconstruct_quantized() {
        // The dispatched entry point — the packed tail under the FMA backend,
        // at either packing width — must agree bit-for-bit with the
        // single-payload public path (row-major, same backend), for the one-
        // and the two-layer tail, at a batch no register tile divides.
        for deeper in [false, true] {
            for width in [PackedWidth::Ymm, PackedWidth::Zmm] {
                let m = model(13, deeper).with_tail_packing(width);
                let payloads = payloads_for(&m, 13, 12);
                let mut scratch = TailScratch::new();
                let out = m
                    .reconstruct_quantized_batch_iter_into(
                        payloads.iter(),
                        payloads.len(),
                        &mut scratch,
                        kernel::selected(),
                    )
                    .unwrap();
                for (i, payload) in payloads.iter().enumerate() {
                    let want = m.reconstruct_quantized(payload).unwrap();
                    let got = &out.as_slice()[i * out.cols()..(i + 1) * out.cols()];
                    assert_eq!(got, &want[..], "deeper={deeper} {width:?} row {i}");
                }
            }
        }
    }

    #[test]
    fn fused_batch_validation() {
        let m = model(17, false);
        let mut scratch = TailScratch::new();
        assert!(matches!(
            m.reconstruct_quantized_batch_iter_into(
                std::iter::empty::<&QuantizedFeedback>(),
                0,
                &mut scratch,
                kernel::selected()
            ),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
        let short = quantize_bottleneck(&[0.5; 3], 8);
        assert!(matches!(
            m.reconstruct_quantized_batch_iter_into(
                [&short].into_iter(),
                1,
                &mut scratch,
                kernel::selected()
            ),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
        // A declared batch smaller or larger than the iterator is an error,
        // never a silent truncation.
        let payloads = payloads_for(&m, 3, 8);
        for (declared, got) in [(2usize, 3), (5, 3)] {
            assert_eq!(
                m.reconstruct_quantized_batch_iter_into(
                    payloads.iter(),
                    declared,
                    &mut scratch,
                    Kernel::Scalar,
                )
                .err(),
                Some(SplitBeamError::DimensionMismatch(Refusal::Shape {
                    got,
                    want: declared
                })),
                "declared {declared} vs 3 yielded must error"
            );
        }
    }

    #[test]
    fn scratch_is_reused_across_rounds() {
        let m = model(19, false);
        let payloads = payloads_for(&m, 4, 8);
        let mut scratch = TailScratch::new();
        let kern = kernel::selected();
        m.reconstruct_quantized_batch_iter_into(payloads.iter(), 4, &mut scratch, kern)
            .unwrap();
        let strip_ptr = scratch.strip.as_slice().as_ptr();
        let ping_ptr = scratch.ping.as_slice().as_ptr();
        m.reconstruct_quantized_batch_iter_into(payloads.iter(), 4, &mut scratch, kern)
            .unwrap();
        assert_eq!(
            scratch.strip.as_slice().as_ptr(),
            strip_ptr,
            "strip must be reused"
        );
        assert_eq!(
            scratch.ping.as_slice().as_ptr(),
            ping_ptr,
            "layer buffer must be reused"
        );
    }

    fn int8_backends() -> Vec<Int8Kernel> {
        Backend::arms(Backend::int8)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Both tails into rows == into the matrix, bit for bit, on every arm
    /// and at both depths. The row buffers are the scratch's own batch after
    /// batch; a buffer a caller swapped in — of another length, or empty —
    /// is written like any other, and a batch that fails writes none.
    #[test]
    fn rows_form_equals_the_matrix_form_and_takes_swapped_buffers() {
        for deeper in [false, true] {
            let m = model(23, deeper);
            let tail = QuantizedTail::bind(&m);
            let payloads = payloads_for(&m, 5, 6);
            let mut scratch = TailScratch::new();
            let check = |label: String, want: &[u32], scratch: &mut TailScratch| {
                let rows: Vec<f32> = scratch.rows.iter().flat_map(|row| row.to_vec()).collect();
                assert_eq!(bits(&rows), want, "{label}");
                // The caller's buffers, of another length or none at all.
                scratch.rows[0] = AlignedRow::from(&[7.0f32; 3][..]);
                scratch.rows[1] = AlignedRow::default();
            };
            for kern in kernels() {
                let run = |scratch: &mut TailScratch| {
                    m.reconstruct_quantized_batch_into_rows(payloads.iter(), 5, scratch, kern)
                        .map(|rows| rows.len())
                };
                let want = m
                    .reconstruct_quantized_batch_iter_into(payloads.iter(), 5, &mut scratch, kern)
                    .map(|out| bits(out.as_slice()))
                    .unwrap();
                for round in 0..2 {
                    assert_eq!(run(&mut scratch), Ok(5));
                    check(
                        format!("f32 {kern:?} deeper={deeper} {round}"),
                        &want,
                        &mut scratch,
                    );
                }
            }
            for kernel in int8_backends() {
                let want = tail
                    .reconstruct_quantized_batch_iter_into(payloads.iter(), 5, &mut scratch, kernel)
                    .map(|out| bits(out.as_slice()))
                    .unwrap();
                for round in 0..2 {
                    let rows = tail
                        .reconstruct_quantized_batch_into_rows(
                            payloads.iter(),
                            5,
                            &mut scratch,
                            kernel,
                        )
                        .unwrap();
                    assert_eq!(rows.len(), 5);
                    check(
                        format!("int8 {kernel:?} deeper={deeper} {round}"),
                        &want,
                        &mut scratch,
                    );
                }
            }
            // Warm buffers stay where they are, and a failed batch writes
            // none of them.
            m.reconstruct_quantized_batch_into_rows(payloads.iter(), 5, &mut scratch, kernels()[0])
                .unwrap();
            let before = scratch.rows.clone();
            let addrs: Vec<_> = scratch.rows.iter().map(|row| row.as_ptr()).collect();
            m.reconstruct_quantized_batch_into_rows(payloads.iter(), 5, &mut scratch, kernels()[0])
                .unwrap();
            let again: Vec<_> = scratch.rows.iter().map(|row| row.as_ptr()).collect();
            assert_eq!(addrs, again, "warm row buffers are reused");
            let short = quantize_bottleneck(&[0.5; 3], 8);
            for refs in [vec![&payloads[0], &short], vec![&short]] {
                assert!(m
                    .reconstruct_quantized_batch_into_rows(
                        refs.iter().copied(),
                        refs.len(),
                        &mut scratch,
                        kernels()[0]
                    )
                    .is_err());
                assert!(tail
                    .reconstruct_quantized_batch_into_rows(
                        refs.iter().copied(),
                        refs.len(),
                        &mut scratch,
                        Int8Kernel::Scalar
                    )
                    .is_err());
                assert_eq!(scratch.rows, before, "a failed batch writes no row");
            }
        }
    }

    #[test]
    fn quantized_tail_tracks_the_f32_tail() {
        // Accuracy sanity at one point: int8-weight reconstruction stays
        // close to the f32 reconstruction of the same payload.
        let m = model(41, true);
        let tail = QuantizedTail::bind(&m);
        assert_eq!(tail.bottleneck_dim(), m.bottleneck_dim());
        assert!(tail.weight_bytes() > 0);
        let payloads = payloads_for(&m, 4, 10);
        let mut scratch = TailScratch::new();
        let out = tail
            .reconstruct_quantized_batch_iter_into(
                payloads.iter(),
                payloads.len(),
                &mut scratch,
                Int8Kernel::Scalar,
            )
            .unwrap();
        assert_eq!(out.cols(), tail.output_dim());
        for (i, payload) in payloads.iter().enumerate() {
            let want = m.reconstruct_quantized(payload).unwrap();
            let got = &out.as_slice()[i * out.cols()..(i + 1) * out.cols()];
            let err: f32 = got
                .iter()
                .zip(want.iter())
                .map(|(g, w)| (g - w).abs())
                .fold(0.0, f32::max);
            assert!(err < 0.05, "payload {i}: max abs int8-vs-f32 error {err}");
        }
    }

    #[test]
    fn quantized_batch_validation_matches_f32_path() {
        let m = model(43, false);
        let tail = QuantizedTail::bind(&m);
        let mut scratch = TailScratch::new();
        assert!(matches!(
            tail.reconstruct_quantized_batch_iter_into(
                std::iter::empty::<&QuantizedFeedback>(),
                0,
                &mut scratch,
                Int8Kernel::Scalar
            ),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
        let short = quantize_bottleneck(&[0.5; 3], 8);
        assert!(matches!(
            tail.reconstruct_quantized(&short, Int8Kernel::Scalar),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
    }

    /// Up to 7 bits the wire code is the activation, with the wire
    /// quantizer's own step and minimum; from 8 bits on it is re-quantized
    /// to u7 over the range its codes span.
    #[test]
    fn narrow_wire_codes_are_the_activations_wider_ones_are_requantized() {
        let values: Vec<f32> = (0..40).map(|j| (j as f32 * 0.37).sin() * 0.6).collect();
        for bits in 1u8..=16 {
            let payload = quantize_bottleneck(&values, bits);
            let mut u7 = vec![0xFFu8; values.len()];
            let (scale, min) = codes_to_u7((&payload).into(), &mut u7).unwrap();
            let step =
                (f64::from(payload.max) - f64::from(payload.min)) / f64::from((1u32 << bits) - 1);
            if bits <= 7 {
                assert!(u7
                    .iter()
                    .zip(&payload.codes)
                    .all(|(&a, &c)| u16::from(a) == c));
                assert_eq!((scale, min), (step as f32, payload.min), "{bits} bits");
            } else {
                assert_eq!((u7.iter().min(), u7.iter().max()), (Some(&0), Some(&127)));
                let exact = dequantize_bottleneck(&payload);
                for (&a, v) in u7.iter().zip(exact) {
                    let back = min + f32::from(a) * scale;
                    assert!(
                        (back - v).abs() <= scale * 0.5001,
                        "{bits} bits: {back} vs {v}"
                    );
                }
            }
        }
    }

    /// Payloads no wire frame decodes to — a [`QuantizedFeedback`] is a
    /// public value — through both tails: a code past its width (which
    /// would dequantize past `max`) or a width the format does not have
    /// (`1u32 << 32` overflows) is an error, also from the second row of a
    /// batch; an inverted or an overflowing range is served, finite or not,
    /// and by every int8 backend alike.
    #[test]
    fn hostile_payloads_are_refused_or_served_never_a_panic() {
        let m = model(47, false);
        let tail = QuantizedTail::bind(&m);
        let dim = m.bottleneck_dim();
        let payload = |bits: u8, min: f32, max: f32, last: u16| QuantizedFeedback {
            bits_per_value: bits,
            min,
            max,
            codes: (0..dim as u16)
                .map(|j| if j as usize == dim - 1 { last } else { j % 2 })
                .collect(),
        };
        let good = payload(4, -0.5, 0.5, 15);
        let code = |code, bits| Refusal::Code { code, bits };
        let width = |bits| Refusal::BitWidth(bits);
        let refused = [
            (payload(4, -0.5, 0.5, 16), code(16, 4)),
            (payload(7, -0.5, 0.5, 128), code(128, 7)),
            (payload(8, -0.5, 0.5, 256), code(256, 8)),
            (payload(12, -0.5, 0.5, 4096), code(4096, 12)),
            (payload(0, -0.5, 0.5, 0), width(0)),
            (payload(17, -0.5, 0.5, 1), width(17)),
            (payload(32, -0.5, 0.5, 1), width(32)),
        ];
        let mut scratch = TailScratch::new();
        for (bad, why) in &refused {
            let want = SplitBeamError::DimensionMismatch(*why);
            for batch in [vec![bad], vec![&good, bad]] {
                let rows = batch.len();
                for kern in kernels() {
                    let got = m.reconstruct_quantized_batch_iter_into(
                        batch.iter().copied(),
                        rows,
                        &mut scratch,
                        kern,
                    );
                    assert_eq!(got.err(), Some(want.clone()), "f32 {kern:?}");
                }
                for backend in int8_backends() {
                    let got = tail.reconstruct_quantized_batch_iter_into(
                        batch.iter().copied(),
                        rows,
                        &mut scratch,
                        backend,
                    );
                    assert_eq!(got.err(), Some(want.clone()), "int8 {backend:?}");
                }
            }
        }
        let served = [
            ("5-bit max < min", payload(5, 0.5, -0.75, 31), true),
            ("9-bit max < min", payload(9, 0.5, -0.75, 511), true),
            // The step, 2 * f32::MAX, is an f64 the f32 row scale cannot hold.
            (
                "1-bit full range",
                payload(1, -f32::MAX, f32::MAX, 1),
                false,
            ),
        ];
        for (label, odd, finite) in &served {
            for kern in kernels() {
                let out = m
                    .reconstruct_quantized_batch_iter_into([odd].into_iter(), 1, &mut scratch, kern)
                    .unwrap_or_else(|e| panic!("{label}: f32 {kern:?}: {e}"));
                if *finite {
                    assert!(out.as_slice().iter().all(|v| v.is_finite()), "{label}");
                }
            }
            let want = tail.reconstruct_quantized(odd, Int8Kernel::Scalar).unwrap();
            assert_eq!(want.iter().all(|v| v.is_finite()), *finite, "{label}");
            for backend in int8_backends() {
                let got = tail.reconstruct_quantized(odd, backend).unwrap();
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "{label}: {backend:?} left the scalar int8 arm"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Fused == dequantize-then-matmul across quantizer widths 1..=16 and
        /// batch sizes, for every available kernel backend.
        #[test]
        fn prop_fused_parity_across_widths(bits in 1u8..=16, batch in 1usize..6, seed in 0u64..100) {
            let m = model(seed.wrapping_add(29), seed % 2 == 0);
            let payloads = payloads_for(&m, batch, bits);
            let refs: Vec<&QuantizedFeedback> = payloads.iter().collect();
            for kern in kernels() {
                let mut scratch = TailScratch::new();
                let out = m.reconstruct_quantized_batch_iter_into(
                    refs.iter().copied(), batch, &mut scratch, kern,
                ).unwrap();
                for (i, payload) in payloads.iter().enumerate() {
                    let want = unfused(&m, payload, kern);
                    let got = &out.as_slice()[i * out.cols()..(i + 1) * out.cols()];
                    prop_assert_eq!(got, &want[..]);
                }
            }
        }

        /// Int8-weight reconstruction matches the scalar int8 reference
        /// bit-exactly across every available integer backend, quantizer
        /// widths 1..=16, batch sizes and tail depths — and is independent of
        /// batch shape (batch-of-N equals N batches-of-one).
        #[test]
        fn prop_int8_reconstruction_bit_exact_across_backends(
            bits in 1u8..=16, batch in 1usize..6, seed in 0u64..100,
        ) {
            let m = model(seed.wrapping_add(57), seed % 2 == 1);
            let tail = QuantizedTail::bind(&m);
            let payloads = payloads_for(&m, batch, bits);
            let mut scratch = TailScratch::new();
            let want: Vec<u32> = tail
                .reconstruct_quantized_batch_iter_into(
                    payloads.iter(), batch, &mut scratch, Int8Kernel::Scalar,
                )
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            for backend in int8_backends() {
                let got: Vec<u32> = tail
                    .reconstruct_quantized_batch_iter_into(
                        payloads.iter(), batch, &mut scratch, backend,
                    )
                    .unwrap()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                prop_assert_eq!(&got, &want, "backend {:?}", backend);
                // Serial (batch-of-one) reference agrees bitwise too.
                let n = want.len() / batch;
                for (i, payload) in payloads.iter().enumerate() {
                    let row: Vec<u32> = tail
                        .reconstruct_quantized(payload, backend)
                        .unwrap()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    prop_assert_eq!(&row[..], &want[i * n..(i + 1) * n], "row {}", i);
                }
            }
        }
    }
}
