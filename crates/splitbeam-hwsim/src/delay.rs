//! End-to-end beamforming-report delay (the Eq. 7d budget).
//!
//! The delay experienced by the access point between sounding and having the
//! reconstructed beamforming matrix is the sum of the station's head-model
//! execution time, the over-the-air feedback time (compressed payload plus the
//! sounding protocol frames), and the AP's tail-model execution time. MU-MIMO
//! channel sounding should complete within 10 ms.

use crate::accelerator::AcceleratorModel;
use splitbeam::airtime::model_feedback_bits;
use wifi_phy::sounding::{sounding_round_airtime, SoundingConfig};

/// The delay budget of Eq. 7d (10 ms for MU-MIMO sounding).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBudget {
    /// Maximum tolerable end-to-end delay in seconds. The budget is
    /// inclusive: a round landing exactly on the deadline completes within
    /// it (`total_s() <= max_delay_s`).
    pub max_delay_s: f64,
}

impl Default for DelayBudget {
    fn default() -> Self {
        Self { max_delay_s: 0.01 }
    }
}

/// Breakdown of the end-to-end beamforming report delay:
/// head compute → medium queueing → over-the-air time → tail compute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndDelay {
    /// Station-side head execution time, in seconds.
    pub head_s: f64,
    /// Time the compressed report spent queueing for the shared medium
    /// (waiting behind other stations' frames), in seconds. Zero in the
    /// analytical round-level model, which assumes perfectly scheduled polls;
    /// the event-driven simulator fills it in from the [`crate::event::SharedMedium`].
    pub queue_s: f64,
    /// Over-the-air time (sounding protocol + compressed feedback), in seconds.
    pub airtime_s: f64,
    /// AP-side tail execution time, in seconds.
    pub tail_s: f64,
}

impl EndToEndDelay {
    /// Total end-to-end delay.
    pub fn total_s(&self) -> f64 {
        self.head_s + self.queue_s + self.airtime_s + self.tail_s
    }
}

/// Computes the end-to-end delay of one SplitBeam feedback round for a
/// configuration, an accelerator and a sounding configuration, without
/// instantiating model weights (the latency and airtime depend only on the
/// architecture). This is what the BOP heuristic uses as its delay estimator.
pub fn end_to_end_delay_from_config_s(
    config: &splitbeam::config::SplitBeamConfig,
    accelerator: &AcceleratorModel,
    sounding: &SoundingConfig,
    bits_per_value: u8,
) -> EndToEndDelay {
    let compute = accelerator.split_latency_from_config(config);
    let feedback_bits = model_feedback_bits(config, bits_per_value);
    let airtime = sounding_round_airtime(sounding, feedback_bits).total_s();
    EndToEndDelay {
        head_s: compute.head_s,
        queue_s: 0.0,
        airtime_s: airtime,
        tail_s: compute.tail_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbeam::config::{CompressionLevel, SplitBeamConfig};
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};

    fn delay_for(n: usize, bw: Bandwidth, k: CompressionLevel) -> EndToEndDelay {
        let config = SplitBeamConfig::new(MimoConfig::symmetric(n, bw), k);
        let accel = AcceleratorModel::zynq_200mhz(n, n);
        let sounding = SoundingConfig::new(bw, n);
        end_to_end_delay_from_config_s(&config, &accel, &sounding, 16)
    }

    #[test]
    fn worst_case_stays_under_10ms() {
        // The paper's headline claim: even 4x4 at 160 MHz stays below 10 ms.
        let worst = delay_for(4, Bandwidth::Mhz160, CompressionLevel::OneQuarter);
        assert!(
            worst.total_s() <= DelayBudget::default().max_delay_s,
            "worst-case delay {} s exceeds 10 ms",
            worst.total_s()
        );
    }

    #[test]
    fn delay_components_all_positive_and_sum() {
        let d = delay_for(3, Bandwidth::Mhz80, CompressionLevel::OneEighth);
        assert!(d.head_s > 0.0 && d.airtime_s > 0.0 && d.tail_s > 0.0);
        assert_eq!(d.queue_s, 0.0, "analytical model has no medium queueing");
        assert!((d.total_s() - (d.head_s + d.queue_s + d.airtime_s + d.tail_s)).abs() < 1e-15);
    }

    #[test]
    fn wider_bandwidth_increases_delay() {
        let narrow = delay_for(2, Bandwidth::Mhz20, CompressionLevel::OneQuarter);
        let wide = delay_for(2, Bandwidth::Mhz160, CompressionLevel::OneQuarter);
        assert!(wide.total_s() > narrow.total_s());
    }
}
