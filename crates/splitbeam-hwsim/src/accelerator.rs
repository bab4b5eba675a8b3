//! Analytical MAC-array accelerator model (the FPGA substitute for Table III).
//!
//! The model assumes the HLS implementation instantiates one *complex* MAC lane
//! per transmit/receive antenna pair — the natural partitioning of the dense
//! CSI-to-bottleneck layer into antenna-pair blocks; each complex MAC consumes
//! four DSP multipliers, well within the Zynq UltraScale+ budget — running at
//! the AD9361-compatible 200 MHz clock, plus a fixed pipeline overhead per
//! layer and a streaming I/O cost per activation value. Latency is therefore
//! proportional to `real MACs / (4 * Nr * Nt)`, which reproduces Table III both
//! in magnitude (tens of microseconds at 2x2/20 MHz, a few milliseconds at
//! 4x4/160 MHz) and in scaling (~4x per bandwidth doubling, ~4x from 2x2 to 4x4).

use splitbeam::config::SplitBeamConfig;

/// Analytical model of the FPGA MAC-array accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorModel {
    /// Clock frequency in Hz (200 MHz in the paper, matching the AD9361).
    pub clock_hz: f64,
    /// Number of parallel (real) MAC lanes.
    pub parallel_macs: usize,
    /// Fixed pipeline overhead per network layer, in cycles.
    pub layer_overhead_cycles: u64,
    /// Streaming I/O cost per activation value moved on or off the array, in cycles.
    pub io_cycles_per_value: f64,
}

impl AcceleratorModel {
    /// The paper's synthesis target: 200 MHz clock with one complex MAC lane
    /// (four real multipliers) per antenna pair of an `nt x nr` configuration.
    pub fn zynq_200mhz(nt: usize, nr: usize) -> Self {
        Self {
            clock_hz: 200e6,
            parallel_macs: (4 * nt * nr).max(1),
            layer_overhead_cycles: 256,
            io_cycles_per_value: 0.25,
        }
    }

    /// Latency of executing `macs` multiply-accumulates spread over
    /// `num_layers` layers while streaming `io_values` activation values.
    pub fn latency_s(&self, macs: u64, num_layers: usize, io_values: u64) -> f64 {
        let compute_cycles = (macs as f64 / self.parallel_macs as f64).ceil();
        let overhead_cycles = (self.layer_overhead_cycles * num_layers as u64) as f64;
        let io_cycles = io_values as f64 * self.io_cycles_per_value;
        (compute_cycles + overhead_cycles + io_cycles) / self.clock_hz
    }

    /// Latency of a dense layer stack described only by its dimensions
    /// (`dims[0]` inputs, `dims.last()` outputs). Useful when the actual weight
    /// matrices are irrelevant (latency depends only on the architecture).
    ///
    /// # Panics
    /// Panics if fewer than two dimensions are given.
    pub fn dense_stack_latency_s(&self, dims: &[usize]) -> f64 {
        assert!(
            dims.len() >= 2,
            "a layer stack needs at least input and output dims"
        );
        let macs: u64 = dims.windows(2).map(|w| (w[0] * w[1]) as u64).sum();
        let io = (dims[0] + dims[dims.len() - 1]) as u64;
        self.latency_s(macs, dims.len() - 1, io)
    }

    /// Latency of running a dense network on the accelerator.
    #[cfg(test)]
    pub fn network_latency_s(&self, network: &neural::network::Network) -> f64 {
        let io_values = (network.input_dim() + network.output_dim()) as u64;
        self.latency_s(network.macs(), network.layers().len(), io_values)
    }

    /// Latency breakdown for a head + tail model pair: the tests' oracle for
    /// [`AcceleratorModel::split_latency_from_config`].
    #[cfg(test)]
    pub fn split_latency(
        &self,
        head: &neural::network::Network,
        tail: &neural::network::Network,
    ) -> LatencyBreakdown {
        LatencyBreakdown {
            head_s: self.network_latency_s(head),
            tail_s: self.network_latency_s(tail),
        }
    }

    /// Latency breakdown computed directly from a SplitBeam configuration
    /// (equivalent to timing the head and tail networks of an instantiated
    /// model, but without allocating any weights — convenient for the large
    /// 160 MHz architectures).
    pub fn split_latency_from_config(&self, config: &SplitBeamConfig) -> LatencyBreakdown {
        let mut tail_dims = vec![config.bottleneck_dim()];
        tail_dims.extend(config.extra_tail_layers.iter().copied());
        tail_dims.push(config.output_dim());
        LatencyBreakdown {
            head_s: self.dense_stack_latency_s(&[config.input_dim(), config.bottleneck_dim()]),
            tail_s: self.dense_stack_latency_s(&tail_dims),
        }
    }
}

/// Head (station) and tail (AP) execution latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Station-side (head model) execution time in seconds.
    pub head_s: f64,
    /// AP-side (tail model) execution time in seconds.
    pub tail_s: f64,
}

impl LatencyBreakdown {
    /// Total compute latency (excluding the over-the-air feedback time).
    pub fn total_s(&self) -> f64 {
        self.head_s + self.tail_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::layer::Activation;
    use neural::network::{LayerSpec, Network};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use splitbeam::config::{CompressionLevel, SplitBeamConfig};
    use splitbeam::model::SplitBeamModel;
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};

    fn full_latency(n: usize, bw: Bandwidth) -> f64 {
        let config =
            SplitBeamConfig::new(MimoConfig::symmetric(n, bw), CompressionLevel::OneQuarter);
        let accel = AcceleratorModel::zynq_200mhz(n, n);
        accel.split_latency_from_config(&config).total_s()
    }

    #[test]
    fn latency_in_table3_ballpark() {
        // Table III: 2x2 @ 20 MHz = 0.0202 ms, 4x4 @ 160 MHz = 5.883 ms (K = 1/4).
        let small = full_latency(2, Bandwidth::Mhz20);
        let large = full_latency(4, Bandwidth::Mhz160);
        assert!(
            small > 5e-6 && small < 1e-4,
            "2x2 @ 20 MHz latency {small} s should be tens of microseconds"
        );
        assert!(
            large > 1e-3 && large < 1e-2,
            "4x4 @ 160 MHz latency {large} s should be a few milliseconds"
        );
    }

    #[test]
    fn bandwidth_doubling_scales_roughly_4x() {
        let at_40 = full_latency(2, Bandwidth::Mhz40);
        let at_80 = full_latency(2, Bandwidth::Mhz80);
        let ratio = at_80 / at_40;
        assert!(
            ratio > 2.5 && ratio < 6.0,
            "doubling bandwidth should scale latency ~4x, got {ratio}"
        );
    }

    #[test]
    fn mimo_order_scales_roughly_4x() {
        let two = full_latency(2, Bandwidth::Mhz80);
        let four = full_latency(4, Bandwidth::Mhz80);
        let ratio = four / two;
        assert!(
            ratio > 2.5 && ratio < 6.5,
            "2x2 -> 4x4 should scale latency ~4x, got {ratio}"
        );
    }

    #[test]
    fn config_latency_matches_instantiated_model() {
        let config = SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneEighth,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = SplitBeamModel::new(config.clone(), &mut rng);
        let accel = AcceleratorModel::zynq_200mhz(2, 2);
        let via_model = accel.split_latency(model.head(), model.tail());
        let via_config = accel.split_latency_from_config(&config);
        assert!((via_model.head_s - via_config.head_s).abs() < 1e-12);
        assert!((via_model.tail_s - via_config.tail_s).abs() < 1e-12);
    }

    #[test]
    fn more_parallel_lanes_reduce_latency() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = Network::new(&[LayerSpec::new(100, 50, Activation::Tanh)], &mut rng);
        let slow = AcceleratorModel {
            clock_hz: 200e6,
            parallel_macs: 1,
            layer_overhead_cycles: 0,
            io_cycles_per_value: 0.0,
        };
        let fast = AcceleratorModel {
            parallel_macs: 10,
            ..slow
        };
        assert!(fast.network_latency_s(&net) < slow.network_latency_s(&net));
    }

    #[test]
    fn breakdown_sums() {
        let config = SplitBeamConfig::new(
            MimoConfig::symmetric(3, Bandwidth::Mhz40),
            CompressionLevel::OneEighth,
        );
        let accel = AcceleratorModel::zynq_200mhz(3, 3);
        let b = accel.split_latency_from_config(&config);
        assert!((b.total_s() - (b.head_s + b.tail_s)).abs() < 1e-15);
        assert!(b.head_s > 0.0 && b.tail_s > 0.0);
    }

    #[test]
    #[should_panic]
    fn dense_stack_needs_two_dims() {
        let accel = AcceleratorModel::zynq_200mhz(2, 2);
        let _ = accel.dense_stack_latency_s(&[10]);
    }
}
