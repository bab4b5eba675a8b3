//! Feedback-size models and the 802.11 comparison ratios (Fig. 7).
//!
//! SplitBeam's feedback is the quantized bottleneck: `|B| * bits_per_value`
//! bits, where `|B| = K * Nt * Nr * S` (complex convention). Its compression
//! rate is therefore the constant `K`, independent of how the 802.11 feedback
//! grows with antennas and bandwidth — the paper's key airtime argument.

use crate::config::SplitBeamConfig;
use crate::quantization::DEFAULT_BITS_PER_VALUE;
use dot11_bfi::feedback::paper_report_bits;

/// SplitBeam feedback size in bits for an `nt x nr` configuration with `s`
/// subcarriers at compression `k`, counting `bits_per_value` bits per
/// (complex) bottleneck value.
///
/// The complex value count is derived exactly the way a configured model
/// derives it: round the *real-interleaved* bottleneck width
/// `2 * nt * nr * s * k` first, then halve — not the other way around. The
/// two orders disagree whenever the rounded real width is odd (e.g.
/// `3x3 x 242` at `K = 1/32` rounds to 136 real values = 68 complex, while
/// rounding the complex count directly gives 68.0625 → 68 only by luck; at
/// other operating points they differ by one value), and Fig. 7 must report
/// the sizes the wire actually carries ([`model_feedback_bits`]).
pub fn splitbeam_feedback_bits(
    nt: usize,
    nr: usize,
    s: usize,
    k: f64,
    bits_per_value: u8,
) -> usize {
    let real_dim = (((2 * nt * nr * s) as f64 * k).round() as usize).max(1);
    complex_feedback_bits(real_dim, bits_per_value)
}

/// Feedback size of a configured model (uses the model's actual bottleneck width).
pub fn model_feedback_bits(config: &SplitBeamConfig, bits_per_value: u8) -> usize {
    complex_feedback_bits(config.bottleneck_dim(), bits_per_value)
}

/// Shared complex-convention accounting: `bottleneck_dim` real-interleaved
/// values make `bottleneck_dim / 2` complex values (at least one), each
/// carrying `bits_per_value` bits.
fn complex_feedback_bits(bottleneck_dim: usize, bits_per_value: u8) -> usize {
    (bottleneck_dim / 2).max(1) * bits_per_value as usize
}

/// The Fig. 7 quantity: SplitBeam feedback size as a percentage of the 802.11
/// compressed beamforming report size (paper accounting convention).
pub fn bf_size_ratio_percent(nt: usize, nr: usize, s: usize, k: f64) -> f64 {
    100.0 * splitbeam_feedback_bits(nt, nr, s, k, DEFAULT_BITS_PER_VALUE) as f64
        / paper_report_bits(nt, s) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressionLevel;
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};
    use wifi_phy::sounding::{feedback_frame_airtime_s, sounding_round_airtime, SoundingConfig};

    #[test]
    fn feedback_bits_scale_with_k() {
        let small = splitbeam_feedback_bits(3, 3, 242, 1.0 / 32.0, 16);
        let large = splitbeam_feedback_bits(3, 3, 242, 1.0 / 4.0, 16);
        assert!(large > small);
        let ratio = large as f64 / small as f64;
        assert!(
            (ratio - 8.0).abs() < 0.1,
            "ratio {ratio} should be ~8 (up to rounding)"
        );
    }

    #[test]
    fn on_air_bits_match_wire_codec() {
        use crate::quantization::quantize_bottleneck;
        let values: Vec<f32> = (0..114).map(|i| (i as f32 * 0.11).sin()).collect();
        for bits in [1u8, 4, 7, 16] {
            let payload = quantize_bottleneck(&values, bits);
            let frame = crate::wire::encode_feedback(&payload).unwrap();
            assert_eq!(frame.len(), payload.size_bits().div_ceil(8), "bits={bits}");
        }
    }

    #[test]
    fn model_feedback_matches_formula() {
        let config = SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneEighth,
        );
        // bottleneck 56 reals = 28 complex values -> 28 * 16 bits.
        assert_eq!(model_feedback_bits(&config, 16), 28 * 16);
        assert_eq!(splitbeam_feedback_bits(2, 2, 56, 0.125, 16), 28 * 16);
    }

    /// Regression test: the analytic Fig. 7 form used to round the complex
    /// count directly while the model rounds the real-interleaved width and
    /// halves, so the figure disagreed with actual wire sizes whenever the
    /// rounded real width was odd. The two paths must now agree for every
    /// standard compression level, bandwidth and MIMO order (and for odd
    /// custom ratios that force an odd rounded width).
    #[test]
    fn analytic_bits_match_model_bits_across_grid() {
        let bandwidths = [
            Bandwidth::Mhz20,
            Bandwidth::Mhz40,
            Bandwidth::Mhz80,
            Bandwidth::Mhz160,
        ];
        let mut levels = CompressionLevel::STANDARD.to_vec();
        // Ratios engineered to produce odd rounded real widths.
        levels.push(CompressionLevel::Custom(0.123));
        levels.push(CompressionLevel::Custom(1.0 / 3.0));
        for &n in &[2usize, 3, 4, 8] {
            for &bw in &bandwidths {
                for &level in &levels {
                    let config = SplitBeamConfig::new(MimoConfig::symmetric(n, bw), level);
                    let s = config.mimo.subcarriers();
                    for bits in [8u8, 16] {
                        assert_eq!(
                            splitbeam_feedback_bits(n, n, s, level.ratio(), bits),
                            model_feedback_bits(&config, bits),
                            "{n}x{n}, {s} subcarriers, {level}, {bits} bits/value"
                        );
                    }
                }
            }
        }
        // An odd rounded real width exercises the halve-after-round order
        // (448 * 0.123 rounds to 55; the old complex-first rounding gave 28
        // complex values where the model actually carries 27).
        let odd = SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::Custom(0.123),
        );
        assert_eq!(odd.bottleneck_dim() % 2, 1, "test must cover an odd width");
        assert_eq!(splitbeam_feedback_bits(2, 2, 56, 0.123, 16), 27 * 16);
    }

    #[test]
    fn ratio_well_below_100_for_high_order_mimo() {
        // Fig. 7: "SplitBeam reduces the size of the feedback overhead by 91%
        // and 93% in 4x4 and 8x8 configurations with 80 MHz channel" (K = 1/8).
        let r4 = bf_size_ratio_percent(4, 4, 242, 0.125);
        let r8 = bf_size_ratio_percent(8, 8, 242, 0.125);
        assert!(r4 < 20.0, "4x4 ratio {r4}% should be far below 100%");
        assert!(r8 < r4, "8x8 ratio {r8}% should be below 4x4 {r4}%");
    }

    /// Satellite consistency test: the per-frame airtime primitive and the
    /// round-level sounding airtime must agree — `num_stations` copies of the
    /// frame primitive is exactly the round's feedback component — across
    /// bandwidths × MIMO orders × quantizer widths. The shared-medium model of
    /// the event-driven simulator charges the frame primitive per transmission,
    /// so this pins the two against drifting apart.
    #[test]
    fn frame_airtime_matches_round_airtime_across_grid() {
        let bandwidths = [
            Bandwidth::Mhz20,
            Bandwidth::Mhz40,
            Bandwidth::Mhz80,
            Bandwidth::Mhz160,
        ];
        for &n in &[2usize, 3, 4] {
            for &bw in &bandwidths {
                for bits in [1u8, 4, 8, 16] {
                    let config = SplitBeamConfig::new(
                        MimoConfig::symmetric(n, bw),
                        CompressionLevel::OneEighth,
                    );
                    let sounding = wifi_phy::sounding::SoundingConfig::new(bw, n);
                    let payload_bits = model_feedback_bits(&config, bits);
                    let frame = feedback_frame_airtime_s(payload_bits, sounding.feedback_rate_mbps);
                    let round = sounding_round_airtime(&sounding, payload_bits);
                    assert!(
                        (round.feedback_s - n as f64 * frame).abs() < 1e-15,
                        "{n}x{n} @ {bw:?}, {bits} bits/value"
                    );
                    assert!(
                        (round.total_s() - (round.protocol_s + n as f64 * frame)).abs() < 1e-15,
                        "{n}x{n} @ {bw:?}, {bits} bits/value: round total must decompose"
                    );
                }
            }
        }
    }

    #[test]
    fn sounding_airtime_reasonable() {
        let config = SplitBeamConfig::new(
            MimoConfig::symmetric(3, Bandwidth::Mhz80),
            CompressionLevel::OneEighth,
        );
        let sounding = SoundingConfig::new(Bandwidth::Mhz80, 3);
        let t = sounding_round_airtime(&sounding, model_feedback_bits(&config, 16)).total_s();
        assert!(
            t > 0.0 && t < 0.01,
            "sounding airtime {t}s should be below 10 ms"
        );
    }
}
