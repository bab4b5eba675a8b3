//! Computational-complexity models and the 802.11 comparison ratios (Fig. 6).
//!
//! The paper states the complexity class of SplitBeam as `O(K Nt² Nr² S²)`:
//! the head model is a single dense layer from the CSI tensor (`Nt·Nr·S`
//! complex values) to the bottleneck (`K` times smaller), so its
//! multiply-accumulate count is `K · (Nt·Nr·S)²` — consistent with the MAC
//! numbers reported in Table II. The station-side cost of the 802.11 baseline
//! is the SVD plus Givens decomposition cost from `dot11_bfi::complexity`.

use crate::config::SplitBeamConfig;
use dot11_bfi::complexity::dot11_sta_flops;

/// Analytical station-side multiply-accumulate count of the 3-layer SplitBeam
/// head: `K * (Nt * Nr * S)^2`, in complex-value convention (matching Table II).
pub fn splitbeam_head_macs_analytical(nt: usize, nr: usize, subcarriers: usize, k: f64) -> f64 {
    let input = (nt * nr * subcarriers) as f64;
    k * input * input
}

/// Station-side MACs of an actual configured model (identical to
/// [`splitbeam_head_macs_analytical`] for the default 3-layer architecture, but
/// also correct for the deeper Table II variants).
pub fn splitbeam_head_macs(config: &SplitBeamConfig) -> u64 {
    // The model's real-interleaved widths double both factors; divide by 4 to
    // express the count in the paper's complex-value convention.
    ((config.input_dim() as u64) * (config.bottleneck_dim() as u64)) / 4
}

/// The Fig. 6 quantity: SplitBeam station FLOPs as a percentage of the 802.11
/// station FLOPs for the same configuration.
pub fn comp_load_ratio_percent(nt: usize, nr: usize, subcarriers: usize, k: f64) -> f64 {
    100.0 * splitbeam_head_macs_analytical(nt, nr, subcarriers, k)
        / dot11_sta_flops(nt, nr, subcarriers) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompressionLevel, SplitBeamConfig};
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};

    #[test]
    fn analytical_matches_actual_three_layer_model() {
        let config = SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneEighth,
        );
        let analytical = splitbeam_head_macs_analytical(2, 2, 56, 0.125);
        let actual = splitbeam_head_macs(&config) as f64;
        // 224 * 28 = 6272 complex MACs.
        assert!((analytical - 6272.0).abs() < 1.0);
        assert!((actual - 6272.0).abs() < 1.0);
    }

    #[test]
    fn ratio_decreases_with_compression() {
        let loose = comp_load_ratio_percent(3, 3, 114, 0.25);
        let tight = comp_load_ratio_percent(3, 3, 114, 1.0 / 32.0);
        assert!(tight < loose);
    }

    #[test]
    fn savings_grow_with_mimo_order_at_20mhz() {
        // More antennas -> Givens cost explodes -> SplitBeam relative cost drops.
        let r4 = comp_load_ratio_percent(4, 4, 56, 0.125);
        let r8 = comp_load_ratio_percent(8, 8, 56, 0.125);
        assert!(r8 < r4, "8x8 ratio {r8} should be below 4x4 ratio {r4}");
    }
}
