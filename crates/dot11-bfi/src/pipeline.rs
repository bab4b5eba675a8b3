//! The complete 802.11 beamformee / beamformer round trip.
//!
//! * The **beamformee** (station) side takes the estimated CSI of every
//!   subcarrier and produces a
//!   [`CompressedBeamformingReport`](crate::CompressedBeamformingReport):
//!   SVD → take the first `Nss` right singular vectors → Givens decomposition →
//!   angle quantization → bit packing. This is exactly the computation whose
//!   cost SplitBeam removes from the station.
//! * The **beamformer** (AP) side unpacks the report, dequantizes the angles
//!   and reconstructs the per-subcarrier beamforming matrices `Ṽ`, which feed
//!   the zero-forcing precoder.

use crate::engine::FeedbackEngine;
use crate::givens::GivensAngles;
use crate::quantize::AngleResolution;
use crate::BfiError;
use mimo_math::CMatrix;

/// Runs the full 802.11 feedback round trip — the station's
/// [`FeedbackEngine`] packs a report, the AP unpacks it — and returns the
/// beamforming matrices the AP would use.
///
/// # Errors
/// Propagates any [`BfiError`] from the two pipeline halves.
///
/// # Panics
/// Panics if `nss == 0`.
pub fn dot11_feedback_roundtrip(
    csi: &[CMatrix],
    nss: usize,
    resolution: AngleResolution,
) -> Result<Vec<CMatrix>, BfiError> {
    let report = FeedbackEngine::new(nss, resolution).compute_feedback(csi)?;
    Ok(report
        .unpack()?
        .iter()
        .map(GivensAngles::reconstruct)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::givens::canonicalize_column_phases;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
    use wifi_phy::ofdm::Bandwidth;

    fn sample_csi(seed: u64, n: usize) -> Vec<CMatrix> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let model = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, n, n, 1);
        model.sample(&mut rng).csi(0).to_vec()
    }

    #[test]
    fn roundtrip_produces_orthonormal_matrices() {
        let csi = sample_csi(1, 3);
        let rebuilt = dot11_feedback_roundtrip(&csi, 1, AngleResolution::High).unwrap();
        assert_eq!(rebuilt.len(), csi.len());
        for v in &rebuilt {
            assert_eq!(v.shape(), (3, 1));
            assert!(v.is_unitary_columns(1e-9));
        }
    }

    #[test]
    fn roundtrip_close_to_ideal_beamforming() {
        let csi = sample_csi(2, 2);
        let ideal = FeedbackEngine::new(1, AngleResolution::High).beamforming_matrices(&csi);
        let rebuilt = dot11_feedback_roundtrip(&csi, 1, AngleResolution::High).unwrap();
        for (v, v_hat) in ideal.iter().zip(rebuilt.iter()) {
            let canonical = canonicalize_column_phases(v);
            let err = canonical.sub(v_hat).max_abs();
            assert!(
                err < 0.05,
                "high-resolution roundtrip error {err} too large"
            );
        }
    }

    #[test]
    fn coarse_quantization_is_worse_than_high() {
        let csi = sample_csi(3, 3);
        let ideal = FeedbackEngine::new(1, AngleResolution::High).beamforming_matrices(&csi);
        let high = dot11_feedback_roundtrip(&csi, 1, AngleResolution::High).unwrap();
        let coarse = dot11_feedback_roundtrip(&csi, 1, AngleResolution::Coarse).unwrap();
        let err = |rebuilt: &[CMatrix]| -> f64 {
            ideal
                .iter()
                .zip(rebuilt.iter())
                .map(|(v, v_hat)| canonicalize_column_phases(v).sub(v_hat).frobenius_norm())
                .sum::<f64>()
        };
        assert!(err(&coarse) > err(&high));
    }

    #[test]
    fn report_size_smaller_than_raw_csi() {
        let csi = sample_csi(4, 3);
        let engine = FeedbackEngine::new(1, AngleResolution::High);
        let report = engine.compute_feedback(&csi).unwrap();
        let raw = crate::feedback::raw_csi_bits(3, 3, csi.len());
        assert!(report.size_bits() < raw);
    }
}
