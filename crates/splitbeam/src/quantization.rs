//! Quantization of the bottleneck activations for over-the-air transport.
//!
//! The head's output `V'` must be carried in a Wi-Fi management frame, so it is
//! quantized to a fixed number of bits per value. A per-payload uniform
//! quantizer with an explicit `[min, max]` range is used: the two range floats
//! are part of the payload, which is how the AP dequantizes without any shared
//! state. The paper's feedback-size analysis (Section IV-E2) counts 16 bits per
//! bottleneck value; the default here matches that, and the ablation benches
//! sweep the width.

use mimo_math::kernel::{self, Backend};

/// Default number of bits per bottleneck value (matches the paper's accounting
/// of 16 bits per feedback value).
pub const DEFAULT_BITS_PER_VALUE: u8 = 16;

/// A quantized bottleneck payload.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedFeedback {
    /// Number of bits used for each value (1..=16).
    pub bits_per_value: u8,
    /// Minimum of the quantization range.
    pub min: f32,
    /// Maximum of the quantization range.
    pub max: f32,
    /// The quantized codes (one per bottleneck value).
    pub codes: Vec<u16>,
}

impl QuantizedFeedback {
    /// Size of the payload in bits as carried by the wire codec: the codes at
    /// their true bit width plus the v2 frame header (version, bits-per-value,
    /// sequence number, code count, and the two 32-bit range floats —
    /// [`crate::wire::WIRE_HEADER_BITS`]) and the CRC-32 trailer
    /// ([`crate::wire::WIRE_TRAILER_BITS`]).
    pub fn size_bits(&self) -> usize {
        self.codes.len() * self.bits_per_value as usize
            + crate::wire::WIRE_HEADER_BITS
            + crate::wire::WIRE_TRAILER_BITS
    }
}

/// A quantized payload by reference: what the dequantizer and the fused
/// tails read. A [`QuantizedFeedback`] converts into one, and so does a
/// serving shard's row of pending codes, so both reach the same fill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayloadView<'a> {
    /// Number of bits used for each value.
    pub bits_per_value: u8,
    /// Minimum of the quantization range.
    pub min: f32,
    /// Maximum of the quantization range.
    pub max: f32,
    /// The quantized codes (one per bottleneck value).
    pub codes: &'a [u16],
}

impl<'a> From<&'a QuantizedFeedback> for PayloadView<'a> {
    fn from(payload: &'a QuantizedFeedback) -> Self {
        Self {
            bits_per_value: payload.bits_per_value,
            min: payload.min,
            max: payload.max,
            codes: &payload.codes,
        }
    }
}

impl From<PayloadView<'_>> for QuantizedFeedback {
    fn from(view: PayloadView<'_>) -> Self {
        Self {
            bits_per_value: view.bits_per_value,
            min: view.min,
            max: view.max,
            codes: view.codes.to_vec(),
        }
    }
}

/// Quantizes a bottleneck activation vector with `bits_per_value` bits per value.
///
/// The quantization range is computed over the *finite* values only, so a
/// stray NaN or infinity (e.g. from an overflowed activation) cannot poison
/// the scale for the whole payload. Non-finite inputs are clamped to the
/// nearest edge code: `+inf` to the top code, `-inf` to code 0, and NaN —
/// which has no nearest edge — deterministically to code 0.
///
/// # Panics
/// Panics if `bits_per_value` is zero or greater than 16.
pub fn quantize_bottleneck(values: &[f32], bits_per_value: u8) -> QuantizedFeedback {
    assert!(
        (1..=16).contains(&bits_per_value),
        "bits per value must be in 1..=16"
    );
    let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in values {
        if v.is_finite() {
            min = min.min(v);
            max = max.max(v);
        }
    }
    if !min.is_finite() || !max.is_finite() {
        // Empty payload, or no finite value at all: pin the range.
        min = 0.0;
        max = 0.0;
    }
    if max <= min {
        // Constant (or empty) payload: widen the range artificially so the
        // dequantizer reproduces the constant exactly.
        max = min + 1.0;
    }
    // The span and scale are computed in f64: a finite-but-extreme range
    // (e.g. min = -2e38, max = 2e38) overflows `max - min` in f32, which
    // would zero the scale and NaN-poison the dequantized values.
    let levels = f64::from((1u32 << bits_per_value) - 1);
    let scale = levels / (f64::from(max) - f64::from(min));
    let codes = values
        .iter()
        .map(|&v| {
            if v.is_nan() {
                0
            } else {
                // +inf/-inf flow through the arithmetic and clamp to an edge.
                (((f64::from(v) - f64::from(min)) * scale)
                    .round()
                    .clamp(0.0, levels)) as u16
            }
        })
        .collect();
    QuantizedFeedback {
        bits_per_value,
        min,
        max,
        codes,
    }
}

/// Dequantizes a payload back into bottleneck activations.
///
/// Allocating convenience form of [`dequantize_bottleneck_into`]; hot paths
/// (the single-payload reconstruction and the fused serve path) reuse a
/// caller-owned buffer instead.
pub fn dequantize_bottleneck<'a>(payload: impl Into<PayloadView<'a>>) -> Vec<f32> {
    let payload = payload.into();
    let mut out = vec![0.0f32; payload.codes.len()];
    dequantize_bottleneck_into(payload, &mut out);
    out
}

/// Dequantizes a payload into a caller-owned buffer (bit-identical to
/// [`dequantize_bottleneck`], no allocation).
///
/// Like the quantizer, the step is computed in f64 so a finite-but-extreme
/// `[min, max]` range cannot overflow to infinity and turn every value NaN.
/// Each value is one f64 convert, multiply, add and narrowing to f32, in
/// that order and never contracted into a fused multiply-add: from
/// [`Backend::Avx512`] up ([`kernel::selected_backend`]) the loop runs
/// eight lanes to a vector, otherwise (and under `SPLITBEAM_KERNEL=scalar`)
/// one value at a time, with the same bits either way.
///
/// # Panics
/// Panics if `out.len() != payload.codes.len()`.
pub fn dequantize_bottleneck_into<'a>(payload: impl Into<PayloadView<'a>>, out: &mut [f32]) {
    dequantize_on(kernel::selected_backend(), payload.into(), out);
}

/// [`dequantize_bottleneck_into`] on the arm `level` selects (the fused
/// fill reads the level once a batch; the tests walk every level).
pub(crate) fn dequantize_on(level: Backend, payload: PayloadView<'_>, out: &mut [f32]) {
    assert_eq!(
        out.len(),
        payload.codes.len(),
        "dequantize output buffer length mismatch"
    );
    let levels = f64::from((1u32 << payload.bits_per_value) - 1);
    let step = (f64::from(payload.max) - f64::from(payload.min)) / levels;
    let min = f64::from(payload.min);
    #[cfg(target_arch = "x86_64")]
    if level.min(Backend::host()) >= Backend::Avx512 {
        // SAFETY: the host runs `avx512f` from this level up.
        unsafe { dequantize_zmm(min, step, payload.codes, out) };
        return;
    }
    dequantize_codes(min, step, payload.codes, out);
}

/// `min + code * step` an element, narrowed to f32: the one loop every arm
/// compiles.
#[inline(always)]
fn dequantize_codes(min: f64, step: f64, codes: &[u16], out: &mut [f32]) {
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = (min + f64::from(c) * step) as f32;
    }
}

/// [`dequantize_codes`] compiled for `avx512f`: inlined here and
/// vectorised eight f64 lanes wide, the multiply and the add kept apart.
///
/// # Safety
/// Requires `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dequantize_zmm(min: f64, step: f64, codes: &[u16], out: &mut [f32]) {
    dequantize_codes(min, step, codes, out);
}

/// Worst-case quantization error for a payload spanning `[min, max]` with the
/// given bit width (half a step): the bound the tests hold a round trip to.
#[cfg(test)]
pub fn max_quantization_error(min: f32, max: f32, bits_per_value: u8) -> f32 {
    let levels = f64::from((1u32 << bits_per_value) - 1);
    ((f64::from(max) - f64::from(min)) / levels / 2.0) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_error_bounded() {
        let values: Vec<f32> = (0..100).map(|i| ((i as f32) * 0.173).sin()).collect();
        for bits in [4u8, 8, 12, 16] {
            let payload = quantize_bottleneck(&values, bits);
            let rebuilt = dequantize_bottleneck(&payload);
            let bound = max_quantization_error(payload.min, payload.max, bits);
            for (a, b) in values.iter().zip(rebuilt.iter()) {
                assert!(
                    (a - b).abs() <= bound + 1e-6,
                    "bits={bits}: error {} exceeds bound {bound}",
                    (a - b).abs()
                );
            }
        }
    }

    #[test]
    fn more_bits_means_less_error() {
        let values: Vec<f32> = (0..64).map(|i| (i as f32 * 0.31).cos()).collect();
        let err = |bits: u8| -> f32 {
            let rebuilt = dequantize_bottleneck(&quantize_bottleneck(&values, bits));
            values
                .iter()
                .zip(rebuilt.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max)
        };
        assert!(err(12) < err(6));
        assert!(err(6) < err(3));
    }

    #[test]
    fn dequantize_into_matches_allocating_form_and_reuses_buffer() {
        let values: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        for bits in [1u8, 4, 9, 16] {
            let payload = quantize_bottleneck(&values, bits);
            let expect = dequantize_bottleneck(&payload);
            let mut buf = vec![0.0f32; payload.codes.len()];
            dequantize_bottleneck_into(&payload, &mut buf);
            assert_eq!(buf, expect, "bits={bits}: _into must be bit-identical");
        }
    }

    /// Every arm of the dequantizer (`dequantize_codes`, `dequantize_zmm`
    /// on a host with `avx512f`, and `dequantize_on` at every level the
    /// host has) against the formula written out — `min + code * step` in
    /// f64, the multiply and the add apart, narrowed to f32 — bit for bit:
    /// every width, every length up to 67 (every vector tail) and ranges
    /// that are extreme, degenerate (`min == max`) and subnormal. `[-1, 2]`
    /// puts the exact value of code `top / 3` at zero at every even width,
    /// where a fused multiply-add leaves the step's rounding error and the
    /// two roundings leave none: an arm contracted into an FMA fails here.
    #[test]
    fn every_dequantize_arm_is_the_scalar_formula_bit_for_bit() {
        let tiny = f32::from_bits(1);
        let ranges = [
            (-1.0f32, 2.0f32),
            (-f32::MAX, f32::MAX),
            (f32::MAX, -f32::MAX),
            (0.25, 0.25),
            (-3.5e30, -3.5e30),
            (-tiny, 2.0 * tiny),
            (f32::MIN_POSITIVE / 3.0, f32::MIN_POSITIVE / 2.0),
            (-f32::MIN_POSITIVE, 1.0),
        ];
        let levels = Backend::arms(|level| level.min(Backend::Avx512));
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for bits in 1..=16u8 {
            let top = (1u32 << bits) - 1;
            for len in 0..=67usize {
                let codes: Vec<u16> = (0..len)
                    .map(|i| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let code = match i % 5 {
                            0 => 0,
                            1 => top,
                            2 => top / 3,
                            _ => state as u32 % (top + 1),
                        };
                        code as u16
                    })
                    .collect();
                for &(min, max) in &ranges {
                    let step = (f64::from(max) - f64::from(min)) / f64::from(top);
                    let want: Vec<u32> = codes
                        .iter()
                        .map(|&c| {
                            let scaled = f64::from(c) * step;
                            ((f64::from(min) + scaled) as f32).to_bits()
                        })
                        .collect();
                    let payload = PayloadView {
                        bits_per_value: bits,
                        min,
                        max,
                        codes: &codes,
                    };
                    let bits_of = |out: &[f32]| out.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let case = format!("bits={bits} len={len} range=[{min:e}, {max:e}]");
                    let mut out = vec![f32::NAN; len];
                    dequantize_codes(f64::from(min), step, &codes, &mut out);
                    assert_eq!(bits_of(&out), want, "scalar loop, {case}");
                    #[cfg(target_arch = "x86_64")]
                    if Backend::host() >= Backend::Avx512 {
                        out.fill(f32::NAN);
                        // SAFETY: the host runs `avx512f`.
                        unsafe { dequantize_zmm(f64::from(min), step, &codes, &mut out) };
                        assert_eq!(bits_of(&out), want, "avx512f arm, {case}");
                    }
                    for &level in &levels {
                        out.fill(f32::NAN);
                        dequantize_on(level, payload, &mut out);
                        assert_eq!(bits_of(&out), want, "{level:?}, {case}");
                    }
                }
            }
        }
        eprintln!("dequantize parity ran on {levels:?}");
    }

    #[test]
    #[should_panic]
    fn dequantize_into_rejects_wrong_buffer_length() {
        let payload = quantize_bottleneck(&[1.0, 2.0], 8);
        let mut buf = [0.0f32; 3];
        dequantize_bottleneck_into(&payload, &mut buf);
    }

    #[test]
    fn constant_payload_is_exact() {
        let values = vec![0.25f32; 10];
        let rebuilt = dequantize_bottleneck(&quantize_bottleneck(&values, 8));
        for v in rebuilt {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let payload = quantize_bottleneck(&[], 8);
        assert!(dequantize_bottleneck(&payload).is_empty());
        assert_eq!(
            payload.size_bits(),
            crate::wire::WIRE_HEADER_BITS + crate::wire::WIRE_TRAILER_BITS
        );
        assert_eq!(
            crate::wire::encoded_len(payload.codes.len(), payload.bits_per_value),
            crate::wire::WIRE_HEADER_BYTES + crate::wire::WIRE_TRAILER_BYTES
        );
    }

    #[test]
    fn size_accounting() {
        let values = vec![0.0f32; 56];
        let payload = quantize_bottleneck(&values, 16);
        assert_eq!(
            payload.size_bits(),
            56 * 16 + crate::wire::WIRE_HEADER_BITS + crate::wire::WIRE_TRAILER_BITS
        );
        // A 4-bit payload's codes really occupy 4 bits each on the wire.
        let narrow = quantize_bottleneck(&values, 4);
        assert_eq!(
            crate::wire::encoded_len(narrow.codes.len(), narrow.bits_per_value),
            crate::wire::WIRE_HEADER_BYTES
                + (56 * 4usize).div_ceil(8)
                + crate::wire::WIRE_TRAILER_BYTES
        );
    }

    #[test]
    fn non_finite_inputs_do_not_poison_the_range() {
        // Regression: a single NaN/Inf used to drive min/max (and therefore
        // the scale) to NaN/Inf, collapsing every code to 0.
        let values = [1.0f32, f32::NAN, 3.0, f32::INFINITY, f32::NEG_INFINITY, 2.0];
        let payload = quantize_bottleneck(&values, 8);
        assert_eq!(payload.min, 1.0);
        assert_eq!(payload.max, 3.0);
        assert_eq!(payload.codes[1], 0, "NaN clamps to code 0");
        assert_eq!(payload.codes[3], 255, "+inf clamps to the top code");
        assert_eq!(payload.codes[4], 0, "-inf clamps to code 0");
        let rebuilt = dequantize_bottleneck(&payload);
        assert!(rebuilt.iter().all(|v| v.is_finite()));
        let bound = max_quantization_error(payload.min, payload.max, 8) + 1e-6;
        for &i in &[0usize, 2, 5] {
            assert!(
                (values[i] - rebuilt[i]).abs() <= bound,
                "finite value {i} must still round-trip within the bound"
            );
        }
    }

    #[test]
    fn extreme_finite_range_does_not_overflow() {
        // Regression: min = -2e38, max = 2e38 are each finite but their span
        // overflows f32 to infinity — the scale collapsed to 0 (every code 0)
        // and dequantization returned NaN for all values.
        let values = [-2.0e38f32, 0.0, 2.0e38];
        let payload = quantize_bottleneck(&values, 8);
        assert_eq!(payload.codes[0], 0);
        assert_eq!(payload.codes[2], 255);
        assert!(payload.codes[1] == 127 || payload.codes[1] == 128);
        let rebuilt = dequantize_bottleneck(&payload);
        assert!(
            rebuilt.iter().all(|v| v.is_finite()),
            "rebuilt: {rebuilt:?}"
        );
        assert!((rebuilt[0] - -2.0e38).abs() < 2.0e36);
        assert!((rebuilt[2] - 2.0e38).abs() < 2.0e36);
        assert!(max_quantization_error(payload.min, payload.max, 8).is_finite());
    }

    #[test]
    fn all_non_finite_inputs_fall_back_to_pinned_range() {
        let values = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let payload = quantize_bottleneck(&values, 8);
        assert_eq!((payload.min, payload.max), (0.0, 1.0));
        assert_eq!(payload.codes, vec![0, 255, 0]);
        assert!(dequantize_bottleneck(&payload)
            .iter()
            .all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic]
    fn zero_bits_panics() {
        let _ = quantize_bottleneck(&[1.0], 0);
    }

    #[test]
    #[should_panic]
    fn too_many_bits_panics() {
        let _ = quantize_bottleneck(&[1.0], 17);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_bounded(values in proptest::collection::vec(-10.0f32..10.0, 1..64), bits in 2u8..16) {
            let payload = quantize_bottleneck(&values, bits);
            let rebuilt = dequantize_bottleneck(&payload);
            let bound = max_quantization_error(payload.min, payload.max, bits) + 1e-4;
            for (a, b) in values.iter().zip(rebuilt.iter()) {
                prop_assert!((a - b).abs() <= bound);
            }
        }

        #[test]
        fn prop_codes_fit_bit_width(values in proptest::collection::vec(-5.0f32..5.0, 1..32), bits in 1u8..16) {
            let payload = quantize_bottleneck(&values, bits);
            let max_code = (1u32 << bits) - 1;
            prop_assert!(payload.codes.iter().all(|&c| (c as u32) <= max_code));
        }
    }
}
