//! The plain IEEE 802.11 quantized-feedback baseline, packaged for the benches.

use crate::BaselineError;
use dot11_bfi::pipeline::dot11_feedback_roundtrip;
use dot11_bfi::quantize::AngleResolution;
use mimo_math::CMatrix;
use wifi_phy::channel::ChannelSnapshot;
use wifi_phy::precoding::BeamformingFeedback;

/// Produces the beamforming feedback the AP would reconstruct if every station
/// used the standard 802.11 compressed feedback at the given angle resolution.
///
/// # Errors
/// Returns [`BaselineError::Pipeline`] when the Givens pipeline fails (which
/// only happens for degenerate channel matrices).
pub fn dot11_feedback_for_snapshot(
    snapshot: &ChannelSnapshot,
    resolution: AngleResolution,
) -> Result<BeamformingFeedback, BaselineError> {
    let mut feedback = Vec::with_capacity(snapshot.num_users());
    for user in 0..snapshot.num_users() {
        let rebuilt: Vec<CMatrix> =
            dot11_feedback_roundtrip(snapshot.csi(user), snapshot.nss(), resolution)
                .map_err(|e| BaselineError::Pipeline(e.to_string()))?;
        feedback.push(rebuilt);
    }
    Ok(feedback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
    use wifi_phy::link::{simulate_mu_mimo_ber, LinkConfig};
    use wifi_phy::ofdm::Bandwidth;

    #[test]
    fn produces_feedback_for_every_user_and_subcarrier() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 2, 1);
        let snap = model.sample(&mut rng);
        let feedback = dot11_feedback_for_snapshot(&snap, AngleResolution::High).unwrap();
        assert_eq!(feedback.len(), 2);
        assert_eq!(feedback[0].len(), 56);
        assert_eq!(feedback[0][0].shape(), (2, 1));
    }

    #[test]
    fn quantized_feedback_yields_low_ber_at_high_snr() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 2, 1);
        let snap = model.sample(&mut rng);
        let feedback = dot11_feedback_for_snapshot(&snap, AngleResolution::High).unwrap();
        let cfg = LinkConfig {
            snr_db: 25.0,
            ..LinkConfig::default()
        };
        let report = simulate_mu_mimo_ber(&snap, &feedback, &cfg, &mut rng).unwrap();
        assert!(
            report.ber() < 0.05,
            "802.11 high-resolution feedback BER {} should be small",
            report.ber()
        );
    }
}
