//! SplitBeam model configuration: compression levels and architecture derivation.

use neural::layer::Activation;
use neural::network::LayerSpec;
use wifi_phy::ofdm::MimoConfig;

/// The bottleneck compression level `K = |V'| / |H|` — the ratio between the
/// bottleneck width and the CSI input width. The paper evaluates the four
/// discrete levels below; [`CompressionLevel::Custom`] supports ablations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionLevel {
    /// `K = 1/32` — the most aggressive compression evaluated.
    OneThirtySecond,
    /// `K = 1/16`.
    OneSixteenth,
    /// `K = 1/8` — the operating point the paper highlights (BER within ~1e-3
    /// of 802.11 while shrinking the feedback 4–5x).
    OneEighth,
    /// `K = 1/4` — the least aggressive standard level (lowest BER).
    OneQuarter,
    /// An arbitrary ratio in `(0, 1)`.
    Custom(f64),
}

impl CompressionLevel {
    /// The four standard levels evaluated in the paper, most compressed first
    /// (the order the BOP heuristic explores them in).
    pub const STANDARD: [CompressionLevel; 4] = [
        CompressionLevel::OneThirtySecond,
        CompressionLevel::OneSixteenth,
        CompressionLevel::OneEighth,
        CompressionLevel::OneQuarter,
    ];

    /// The numeric ratio `K`.
    pub fn ratio(self) -> f64 {
        match self {
            CompressionLevel::OneThirtySecond => 1.0 / 32.0,
            CompressionLevel::OneSixteenth => 1.0 / 16.0,
            CompressionLevel::OneEighth => 1.0 / 8.0,
            CompressionLevel::OneQuarter => 1.0 / 4.0,
            CompressionLevel::Custom(k) => k,
        }
    }

    /// A short label such as `"1/8"` used in reports and figures.
    pub fn label(self) -> String {
        match self {
            CompressionLevel::OneThirtySecond => "1/32".to_string(),
            CompressionLevel::OneSixteenth => "1/16".to_string(),
            CompressionLevel::OneEighth => "1/8".to_string(),
            CompressionLevel::OneQuarter => "1/4".to_string(),
            CompressionLevel::Custom(k) => format!("{k:.4}"),
        }
    }
}

impl std::fmt::Display for CompressionLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "K={}", self.label())
    }
}

/// Complete configuration of one SplitBeam model.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitBeamConfig {
    /// The MU-MIMO network configuration the model is trained for.
    pub mimo: MimoConfig,
    /// Bottleneck compression level.
    pub compression: CompressionLevel,
    /// Widths of extra hidden layers inserted *after* the bottleneck (tail
    /// side). Empty for the heuristic's default 3-layer model; the BOP solver
    /// grows this list when the BER constraint cannot be met at the minimum
    /// compression level.
    pub extra_tail_layers: Vec<usize>,
    /// Hidden activation used by the model.
    pub hidden_activation: Activation,
}

impl SplitBeamConfig {
    /// Creates the default 3-layer (input – bottleneck – output) configuration
    /// produced by the heuristic of Section IV-C.
    pub fn new(mimo: MimoConfig, compression: CompressionLevel) -> Self {
        Self {
            mimo,
            compression,
            extra_tail_layers: Vec::new(),
            hidden_activation: Activation::Tanh,
        }
    }

    /// DNN input width: the real-interleaved CSI tensor, `2 * Nr * Nt * S`.
    pub fn input_dim(&self) -> usize {
        self.mimo.csi_real_dim()
    }

    /// DNN output width: the real-interleaved beamforming feedback,
    /// `2 * Nt * Nss * S`.
    pub fn output_dim(&self) -> usize {
        self.mimo.bf_real_dim()
    }

    /// Bottleneck width `|B| = max(1, round(K * input_dim))`.
    pub fn bottleneck_dim(&self) -> usize {
        ((self.input_dim() as f64 * self.compression.ratio()).round() as usize).max(1)
    }

    /// Layer specifications of the full (unsplit) DNN.
    pub fn layer_specs(&self) -> Vec<LayerSpec> {
        let mut dims = vec![self.input_dim(), self.bottleneck_dim()];
        dims.extend(self.extra_tail_layers.iter().copied());
        dims.push(self.output_dim());
        dims.windows(2)
            .enumerate()
            .map(|(i, pair)| {
                // The bottleneck output itself is linear (it is quantized and
                // transmitted); hidden tail layers use the configured activation;
                // the output layer is linear.
                let is_last = i == dims.len() - 2;
                let activation = if i == 0 || is_last {
                    Activation::Identity
                } else {
                    self.hidden_activation
                };
                LayerSpec::new(pair[0], pair[1], activation)
            })
            .collect()
    }

    /// Index of the layer *after* which the network is split: the head is the
    /// single input→bottleneck layer (the heuristic places the bottleneck
    /// immediately after the input, `e = 1`).
    pub fn split_index(&self) -> usize {
        1
    }

    /// Architecture summary string such as `"448-56-224"`.
    pub fn architecture_label(&self) -> String {
        let mut dims = vec![self.input_dim(), self.bottleneck_dim()];
        dims.extend(self.extra_tail_layers.iter().copied());
        dims.push(self.output_dim());
        dims.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("-")
    }

    /// Returns a copy with one more tail hidden layer (used by the BOP
    /// heuristic when the minimum compression level still violates the BER
    /// constraint). The new layer width matches the output dimension.
    pub fn with_extra_tail_layer(&self) -> Self {
        let mut next = self.clone();
        next.extra_tail_layers.push(self.output_dim());
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifi_phy::ofdm::Bandwidth;

    fn cfg(n: usize, bw: Bandwidth, k: CompressionLevel) -> SplitBeamConfig {
        SplitBeamConfig::new(MimoConfig::symmetric(n, bw), k)
    }

    #[test]
    fn ratios_and_labels() {
        assert!((CompressionLevel::OneEighth.ratio() - 0.125).abs() < 1e-12);
        assert_eq!(CompressionLevel::OneEighth.label(), "1/8");
        assert_eq!(CompressionLevel::STANDARD.len(), 4);
        assert!(CompressionLevel::STANDARD[0].ratio() < CompressionLevel::STANDARD[3].ratio());
        assert!((CompressionLevel::Custom(0.3).ratio() - 0.3).abs() < 1e-12);
        assert!(format!("{}", CompressionLevel::OneQuarter).contains("1/4"));
    }

    #[test]
    fn dimensions_for_2x2_20mhz() {
        let c = cfg(2, Bandwidth::Mhz20, CompressionLevel::OneEighth);
        assert_eq!(c.input_dim(), 448);
        assert_eq!(c.output_dim(), 224);
        assert_eq!(c.bottleneck_dim(), 56);
        assert_eq!(c.architecture_label(), "448-56-224");
    }

    #[test]
    fn layer_specs_chain() {
        let c = cfg(3, Bandwidth::Mhz40, CompressionLevel::OneQuarter);
        let specs = c.layer_specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].input_dim, c.input_dim());
        assert_eq!(specs[0].output_dim, c.bottleneck_dim());
        assert_eq!(specs[1].output_dim, c.output_dim());
        for pair in specs.windows(2) {
            assert_eq!(pair[0].output_dim, pair[1].input_dim);
        }
    }

    #[test]
    fn extra_tail_layers_extend_architecture() {
        let c = cfg(2, Bandwidth::Mhz20, CompressionLevel::OneThirtySecond);
        let deeper = c.with_extra_tail_layer();
        assert_eq!(deeper.layer_specs().len(), 3);
        assert_eq!(deeper.extra_tail_layers, vec![c.output_dim()]);
        assert!(deeper.architecture_label().split('-').count() == 4);
    }

    #[test]
    fn bottleneck_never_zero() {
        let c = SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::Custom(1e-6),
        );
        assert_eq!(c.bottleneck_dim(), 1);
    }

    #[test]
    fn split_index_is_one() {
        let c = cfg(2, Bandwidth::Mhz80, CompressionLevel::OneEighth);
        assert_eq!(c.split_index(), 1);
    }

    #[test]
    fn bottleneck_scales_with_bandwidth() {
        let narrow = cfg(2, Bandwidth::Mhz20, CompressionLevel::OneEighth).bottleneck_dim();
        let wide = cfg(2, Bandwidth::Mhz80, CompressionLevel::OneEighth).bottleneck_dim();
        assert!(wide > narrow);
    }
}
