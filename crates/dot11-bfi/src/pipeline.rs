//! The complete 802.11 beamformee / beamformer pipeline.
//!
//! * The **beamformee** (station) side takes the estimated CSI of every
//!   subcarrier and produces a [`CompressedBeamformingReport`]:
//!   SVD → take the first `Nss` right singular vectors → Givens decomposition →
//!   angle quantization → bit packing. This is exactly the computation whose
//!   cost SplitBeam removes from the station.
//! * The **beamformer** (AP) side unpacks the report, dequantizes the angles
//!   and reconstructs the per-subcarrier beamforming matrices `Ṽ`, which feed
//!   the zero-forcing precoder.

use crate::engine::FeedbackEngine;
use crate::feedback::CompressedBeamformingReport;
use crate::givens::GivensAngles;
use crate::quantize::AngleResolution;
use crate::BfiError;
use mimo_math::CMatrix;

/// The station side of the 802.11 feedback pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dot11Beamformee {
    /// Number of spatial streams the station feeds back.
    pub nss: usize,
    /// Angle quantization resolution.
    pub resolution: AngleResolution,
}

impl Dot11Beamformee {
    /// Creates a beamformee reporting `nss` streams at the given resolution.
    ///
    /// # Panics
    /// Panics if `nss == 0`.
    pub fn new(nss: usize, resolution: AngleResolution) -> Self {
        assert!(nss > 0, "at least one spatial stream required");
        Self { nss, resolution }
    }

    /// The [`FeedbackEngine`] carrying this beamformee's configuration.
    pub fn engine(&self) -> FeedbackEngine {
        FeedbackEngine::new(self.nss, self.resolution)
    }

    /// Computes the ideal (unquantized) beamforming matrices from per-subcarrier CSI.
    ///
    /// Delegates to the workspace-reusing [`FeedbackEngine`], which fans the
    /// subcarrier axis out across cores; results are bit-exact with the
    /// serial path.
    pub fn beamforming_matrices(&self, csi: &[CMatrix]) -> Vec<CMatrix> {
        self.engine().beamforming_matrices(csi)
    }

    /// Runs the full station-side pipeline: SVD, Givens decomposition,
    /// quantization and packing, via the workspace-reusing [`FeedbackEngine`].
    ///
    /// # Errors
    /// Returns [`BfiError::InvalidShape`] when the CSI is empty or the derived
    /// beamforming matrices cannot be decomposed.
    pub fn compute_feedback(
        &self,
        csi: &[CMatrix],
    ) -> Result<CompressedBeamformingReport, BfiError> {
        self.engine().compute_feedback(csi)
    }
}

/// The access-point side of the 802.11 feedback pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dot11Beamformer;

impl Dot11Beamformer {
    /// Creates a beamformer.
    pub fn new() -> Self {
        Self
    }

    /// Reconstructs the per-subcarrier beamforming matrices from a compressed report.
    ///
    /// # Errors
    /// Returns [`BfiError::MalformedReport`] when the report payload is inconsistent.
    pub fn reconstruct(
        &self,
        report: &CompressedBeamformingReport,
    ) -> Result<Vec<CMatrix>, BfiError> {
        Ok(report
            .unpack()?
            .iter()
            .map(GivensAngles::reconstruct)
            .collect())
    }
}

/// Convenience function: runs the full 802.11 feedback round trip (station and
/// AP side) and returns the beamforming matrices the AP would use.
///
/// # Errors
/// Propagates any [`BfiError`] from the two pipeline halves.
pub fn dot11_feedback_roundtrip(
    csi: &[CMatrix],
    nss: usize,
    resolution: AngleResolution,
) -> Result<Vec<CMatrix>, BfiError> {
    let sta = Dot11Beamformee::new(nss, resolution);
    let report = sta.compute_feedback(csi)?;
    Dot11Beamformer::new().reconstruct(&report)
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
        let sta = Dot11Beamformee::new(1, AngleResolution::High);
        let ideal = sta.beamforming_matrices(&csi);
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
        let sta = Dot11Beamformee::new(1, AngleResolution::High);
        let ideal = sta.beamforming_matrices(&csi);
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
        let sta = Dot11Beamformee::new(1, AngleResolution::High);
        let report = sta.compute_feedback(&csi).unwrap();
        let raw = crate::feedback::raw_csi_bits(3, 3, csi.len());
        assert!(report.size_bits() < raw);
    }

    #[test]
    fn empty_csi_rejected() {
        let sta = Dot11Beamformee::new(1, AngleResolution::High);
        assert!(matches!(
            sta.compute_feedback(&[]),
            Err(BfiError::InvalidShape(_))
        ));
    }

    #[test]
    #[should_panic]
    fn zero_streams_panics() {
        let _ = Dot11Beamformee::new(0, AngleResolution::High);
    }
}
