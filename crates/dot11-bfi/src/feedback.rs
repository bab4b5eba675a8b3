//! Compressed beamforming report sizes and bit packing.
//!
//! The paper's airtime analysis (Section IV-E2) uses the standard's compressed
//! beamforming report size `BMR = 8 * Nt + Na * S * (bφ + bψ) / 2` bits and the
//! compression ratio `CR = BMR / (S * Nt * Nr * b)` with `b = 16` bits per raw
//! complex channel entry (Eq. 9). This module provides those formulas plus an
//! actual bit-level packing of the quantized angles, so the feedback payload can
//! be handed to the airtime model byte-for-byte.

use crate::bits::{BitReader, BitWriter};
use crate::givens::{total_angles, GivensAngles};
use crate::quantize::{
    dequantize_phi, dequantize_psi, quantize_phi, quantize_psi, AngleResolution,
};
use crate::BfiError;

/// Bits used to represent one raw complex channel entry (8 bits per real and
/// imaginary component), the `b` of Eq. 9.
pub const RAW_BITS_PER_COMPLEX: usize = 16;

/// Per-antenna SNR field carried in the report header (8 bits per antenna).
pub const SNR_FIELD_BITS_PER_ANTENNA: usize = 8;

/// Size in bits of the compressed beamforming report for one station:
/// `8 * Nt + Na * S * (bφ + bψ) / 2`: the formula the tests hold a packed
/// report to.
#[cfg(test)]
pub fn compressed_report_bits(
    nt: usize,
    nss: usize,
    subcarriers: usize,
    resolution: AngleResolution,
) -> usize {
    let na = total_angles(nt, nss);
    SNR_FIELD_BITS_PER_ANTENNA * nt + (na * subcarriers) * resolution.bits_per_angle_avg() as usize
}

/// Size in bits of the uncompressed CSI (`S * Nt * Nr * 16`), the denominator of Eq. 9.
#[cfg(test)]
pub fn raw_csi_bits(nt: usize, nr: usize, subcarriers: usize) -> usize {
    subcarriers * nt * nr * RAW_BITS_PER_COMPLEX
}

/// Report size in bits under the *paper's* accounting convention: the station
/// feeds back the full-rank beamforming matrix (`Nss = Nt`) and every angle is
/// counted at the maximum 16-bit resolution, matching the introduction's
/// "56 angles x 16 bits/angle" example and the `K ~ 1/2` (2x2) / `K ~ 2/3`
/// (3x3) ratios quoted in Fig. 9.
pub fn paper_report_bits(nt: usize, subcarriers: usize) -> usize {
    SNR_FIELD_BITS_PER_ANTENNA * nt + total_angles(nt, nt) * subcarriers * 16
}

/// A packed compressed beamforming report: the quantized Givens angles of every
/// subcarrier plus the metadata needed to unpack them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedBeamformingReport {
    /// Number of transmit antennas.
    pub nt: usize,
    /// Number of spatial streams (columns).
    pub nss: usize,
    /// Number of subcarriers covered.
    pub subcarriers: usize,
    /// Angle quantization resolution.
    pub resolution: AngleResolution,
    /// The packed angle field (φ/ψ indices bit-packed per subcarrier).
    pub payload: Vec<u8>,
}

impl CompressedBeamformingReport {
    /// Packs per-subcarrier Givens angles into a report.
    ///
    /// # Errors
    /// Returns [`BfiError::InvalidShape`] if `angles` is empty or the entries
    /// disagree in shape.
    pub fn pack(angles: &[GivensAngles], resolution: AngleResolution) -> Result<Self, BfiError> {
        let first = angles
            .first()
            .ok_or_else(|| BfiError::InvalidShape("no subcarriers".into()))?;
        let (nt, nss) = (first.nt, first.nss);
        let pairs = crate::givens::angle_pairs(nt, nss);
        let mut writer = BitWriter::with_capacity_bits(
            angles.len() * pairs * (resolution.phi_bits() + resolution.psi_bits()) as usize,
        );
        for (s, a) in angles.iter().enumerate() {
            if a.nt != nt || a.nss != nss {
                return Err(BfiError::InvalidShape(format!(
                    "subcarrier {s} has shape {}x{}, expected {nt}x{nss}",
                    a.nt, a.nss
                )));
            }
            for &phi in &a.phi {
                writer.push(quantize_phi(phi, resolution) as u32, resolution.phi_bits());
            }
            for &psi in &a.psi {
                writer.push(quantize_psi(psi, resolution) as u32, resolution.psi_bits());
            }
        }
        Ok(Self {
            nt,
            nss,
            subcarriers: angles.len(),
            resolution,
            payload: writer.finish(),
        })
    }

    /// Builds a report from already-quantized angle codes: `2 * pairs` codes
    /// per subcarrier, all φ codes first, then all ψ codes (the same order
    /// [`CompressedBeamformingReport::pack`] writes).
    ///
    /// This is the feedback engine's fast path — quantization happens inside
    /// the (possibly parallel) per-subcarrier workers and only the bit packing
    /// stays serial. The payload is byte-identical to packing the
    /// corresponding [`GivensAngles`].
    pub(crate) fn from_codes(
        nt: usize,
        nss: usize,
        subcarriers: usize,
        resolution: AngleResolution,
        codes: &[u16],
    ) -> Self {
        let pairs = crate::givens::angle_pairs(nt, nss);
        let payload = if pairs == 0 {
            Vec::new()
        } else {
            debug_assert_eq!(codes.len(), subcarriers * 2 * pairs);
            let mut writer = BitWriter::with_capacity_bits(
                subcarriers * pairs * (resolution.phi_bits() + resolution.psi_bits()) as usize,
            );
            for per_sc in codes.chunks_exact(2 * pairs) {
                for &code in &per_sc[..pairs] {
                    writer.push(u32::from(code), resolution.phi_bits());
                }
                for &code in &per_sc[pairs..] {
                    writer.push(u32::from(code), resolution.psi_bits());
                }
            }
            writer.finish()
        };
        Self {
            nt,
            nss,
            subcarriers,
            resolution,
            payload,
        }
    }

    /// Unpacks the report back into (dequantized) per-subcarrier Givens angles.
    ///
    /// # Errors
    /// Returns [`BfiError::MalformedReport`] if the payload is too short for the
    /// declared dimensions.
    pub fn unpack(&self) -> Result<Vec<GivensAngles>, BfiError> {
        let pairs = crate::givens::angle_pairs(self.nt, self.nss);
        let mut reader = BitReader::new(&self.payload);
        let mut out = Vec::with_capacity(self.subcarriers);
        for s in 0..self.subcarriers {
            let mut phi = Vec::with_capacity(pairs);
            let mut psi = Vec::with_capacity(pairs);
            for _ in 0..pairs {
                let idx = reader.pull(self.resolution.phi_bits()).ok_or_else(|| {
                    BfiError::MalformedReport(format!("payload exhausted at subcarrier {s}"))
                })?;
                phi.push(dequantize_phi(idx as u16, self.resolution));
            }
            for _ in 0..pairs {
                let idx = reader.pull(self.resolution.psi_bits()).ok_or_else(|| {
                    BfiError::MalformedReport(format!("payload exhausted at subcarrier {s}"))
                })?;
                psi.push(dequantize_psi(idx as u16, self.resolution));
            }
            out.push(GivensAngles {
                nt: self.nt,
                nss: self.nss,
                phi,
                psi,
            });
        }
        Ok(out)
    }

    /// Size of the report in bits, including the per-antenna SNR header
    /// (the module's `BMR` formula).
    pub fn size_bits(&self) -> usize {
        SNR_FIELD_BITS_PER_ANTENNA * self.nt + self.payload.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::givens::canonicalize_column_phases;
    use mimo_math::qr::random_unitary;
    use mimo_math::Complex64;
    use rand::Rng as _;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn report_size_formula_matches_paper_example() {
        // Intro example: 8x8 at 160 MHz, 486 subcarriers, 56 angles, 16 bits
        // per angle pair average at maximum resolution -> about 54.43 kB.
        // With our formula (using the angle average of (9 + 7)/2 = 8 bits):
        let bits = compressed_report_bits(8, 8, 486, AngleResolution::High);
        // 8*8 + 56 * 486 * 8 = 217,792 bits. The paper quotes 16 bits/angle
        // (counting the φ/ψ *pair*), i.e. twice the per-angle average; both
        // conventions agree on the angle payload: 56 * 486 * 8 * 2 bits when
        // counting pairs as one "angle".
        assert_eq!(bits, 64 + 56 * 486 * 8);
    }

    #[test]
    fn compression_ratio_close_to_half_for_2x2() {
        // The paper notes K ~ 1/2 for 2x2 and ~2/3 for 3x3 under 802.11
        // (its accounting: full-rank feedback, 16 bits per angle).
        let ratio = |bits: usize, nt: usize| bits as f64 / raw_csi_bits(nt, nt, 56) as f64;
        let cr_2x2 = ratio(paper_report_bits(2, 56), 2);
        assert!(
            (cr_2x2 - 0.5).abs() < 0.05,
            "2x2 compression ratio {cr_2x2} should be near 1/2"
        );
        let cr_3x3 = ratio(paper_report_bits(3, 56), 3);
        assert!(
            (cr_3x3 - 2.0 / 3.0).abs() < 0.05,
            "3x3 compression ratio {cr_3x3} should be near 2/3"
        );
        // The standard-accurate single-stream accounting compresses harder.
        let cr_single = ratio(compressed_report_bits(2, 1, 56, AngleResolution::High), 2);
        assert!(cr_single < cr_2x2);
    }

    fn random_angles(seed: u64, nt: usize, nss: usize, count: usize) -> Vec<GivensAngles> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let u = random_unitary(nt, || {
                    Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
                });
                GivensAngles::decompose(&u.first_columns(nss)).unwrap()
            })
            .collect()
    }

    #[test]
    fn pack_unpack_preserves_angles_within_quantization_error() {
        let angles = random_angles(7, 3, 1, 20);
        let report = CompressedBeamformingReport::pack(&angles, AngleResolution::High).unwrap();
        let unpacked = report.unpack().unwrap();
        assert_eq!(unpacked.len(), 20);
        for (orig, rec) in angles.iter().zip(unpacked.iter()) {
            for (&a, &b) in orig.phi.iter().zip(rec.phi.iter()) {
                let diff = (a - b).abs();
                let wrapped = diff.min(2.0 * std::f64::consts::PI - diff);
                assert!(wrapped <= crate::quantize::phi_max_error(AngleResolution::High) + 1e-9);
            }
            for (&a, &b) in orig.psi.iter().zip(rec.psi.iter()) {
                assert!(
                    (a - b).abs() <= crate::quantize::psi_max_error(AngleResolution::High) + 1e-9
                );
            }
        }
    }

    #[test]
    fn quantized_reconstruction_is_close_to_original() {
        let angles = random_angles(9, 4, 2, 5);
        let report = CompressedBeamformingReport::pack(&angles, AngleResolution::High).unwrap();
        let unpacked = report.unpack().unwrap();
        for (orig, rec) in angles.iter().zip(unpacked.iter()) {
            let v_orig = canonicalize_column_phases(&orig.reconstruct());
            let v_rec = rec.reconstruct();
            assert!(
                v_orig.sub(&v_rec).max_abs() < 0.05,
                "quantized reconstruction deviates too much"
            );
        }
    }

    #[test]
    fn report_size_matches_formula() {
        let angles = random_angles(11, 3, 1, 56);
        let report = CompressedBeamformingReport::pack(&angles, AngleResolution::Standard).unwrap();
        let formula = compressed_report_bits(3, 1, 56, AngleResolution::Standard);
        // The packed payload is byte-padded, so allow up to 7 bits of slack plus
        // the SNR header accounted in both.
        assert!(report.size_bits() >= formula);
        assert!(report.size_bits() < formula + 16);
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let mut angles = random_angles(13, 3, 1, 3);
        angles.push(random_angles(14, 2, 1, 1).pop().unwrap());
        assert!(matches!(
            CompressedBeamformingReport::pack(&angles, AngleResolution::High),
            Err(BfiError::InvalidShape(_))
        ));
        assert!(matches!(
            CompressedBeamformingReport::pack(&[], AngleResolution::High),
            Err(BfiError::InvalidShape(_))
        ));
    }

    #[test]
    fn truncated_payload_rejected() {
        let angles = random_angles(15, 3, 1, 4);
        let mut report = CompressedBeamformingReport::pack(&angles, AngleResolution::High).unwrap();
        report.payload.truncate(report.payload.len() / 2);
        assert!(matches!(report.unpack(), Err(BfiError::MalformedReport(_))));
    }
}
