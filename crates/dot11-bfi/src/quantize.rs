//! Quantization of the Givens angles.
//!
//! The standard quantizes φ with `bφ` bits over `[0, 2π)` and ψ with
//! `bψ = bφ − 2` bits over `[0, π/2]`, using the mid-rise grids
//! `φ = kπ/2^(bφ−1) + π/2^bφ` and `ψ = kπ/2^(bψ+1) + π/2^(bψ+2)`.
//! The paper uses `bφ ∈ {7, 9}` for MU-MIMO feedback (plus the coarser SU
//! setting `bφ = 5`), and 16 bits per complex channel entry as the uncompressed
//! reference.

/// Angle quantization resolution (the `(bψ, bφ)` pairs allowed by the standard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AngleResolution {
    /// `bφ = 5`, `bψ = 3` — coarse single-user feedback.
    Coarse,
    /// `bφ = 7`, `bψ = 5` — the default MU-MIMO resolution.
    Standard,
    /// `bφ = 9`, `bψ = 7` — the maximum-resolution MU-MIMO feedback used in
    /// the paper's overhead example.
    High,
}

impl AngleResolution {
    /// Number of bits used for each φ angle.
    pub fn phi_bits(self) -> u32 {
        match self {
            AngleResolution::Coarse => 5,
            AngleResolution::Standard => 7,
            AngleResolution::High => 9,
        }
    }

    /// Number of bits used for each ψ angle (`bφ − 2`).
    pub fn psi_bits(self) -> u32 {
        self.phi_bits() - 2
    }

    /// Average number of bits per angle (the `(bφ + bψ)/2` of the airtime formula).
    #[cfg(test)]
    pub fn bits_per_angle_avg(self) -> f64 {
        (self.phi_bits() + self.psi_bits()) as f64 / 2.0
    }
}

/// Quantizes a φ angle (radians, any value) to its code index.
pub fn quantize_phi(angle: f64, resolution: AngleResolution) -> u16 {
    let bits = resolution.phi_bits();
    let levels = 1u32 << bits;
    let wrapped = angle.rem_euclid(2.0 * std::f64::consts::PI);
    let step = std::f64::consts::PI / (1u64 << (bits - 1)) as f64;
    let offset = std::f64::consts::PI / (1u64 << bits) as f64;
    let idx = ((wrapped - offset) / step).round();
    (idx.rem_euclid(levels as f64)) as u16
}

/// Reconstructs the φ angle from its code index.
pub fn dequantize_phi(index: u16, resolution: AngleResolution) -> f64 {
    let bits = resolution.phi_bits();
    let step = std::f64::consts::PI / (1u64 << (bits - 1)) as f64;
    let offset = std::f64::consts::PI / (1u64 << bits) as f64;
    index as f64 * step + offset
}

/// Quantizes a ψ angle (radians, in `[0, π/2]`) to its code index.
pub fn quantize_psi(angle: f64, resolution: AngleResolution) -> u16 {
    let bits = resolution.psi_bits();
    let levels = 1u32 << bits;
    let step = std::f64::consts::PI / (1u64 << (bits + 1)) as f64;
    let offset = std::f64::consts::PI / (1u64 << (bits + 2)) as f64;
    let clamped = angle.clamp(0.0, std::f64::consts::FRAC_PI_2);
    let idx = ((clamped - offset) / step).round();
    idx.clamp(0.0, (levels - 1) as f64) as u16
}

/// Reconstructs the ψ angle from its code index.
pub fn dequantize_psi(index: u16, resolution: AngleResolution) -> f64 {
    let bits = resolution.psi_bits();
    let step = std::f64::consts::PI / (1u64 << (bits + 1)) as f64;
    let offset = std::f64::consts::PI / (1u64 << (bits + 2)) as f64;
    index as f64 * step + offset
}

/// Maximum quantization error of the φ grid (half a step).
#[cfg(test)]
pub fn phi_max_error(resolution: AngleResolution) -> f64 {
    std::f64::consts::PI / (1u64 << resolution.phi_bits()) as f64
}

/// Maximum quantization error of the ψ grid (half a step).
#[cfg(test)]
pub fn psi_max_error(resolution: AngleResolution) -> f64 {
    std::f64::consts::PI / (1u64 << (resolution.psi_bits() + 2)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL: [AngleResolution; 3] = [
        AngleResolution::Coarse,
        AngleResolution::Standard,
        AngleResolution::High,
    ];

    #[test]
    fn bit_widths_match_standard() {
        assert_eq!(AngleResolution::Coarse.phi_bits(), 5);
        assert_eq!(AngleResolution::Standard.phi_bits(), 7);
        assert_eq!(AngleResolution::High.phi_bits(), 9);
        for r in ALL {
            assert_eq!(r.psi_bits(), r.phi_bits() - 2);
        }
        assert!((AngleResolution::High.bits_per_angle_avg() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn phi_roundtrip_error_bounded() {
        for r in ALL {
            let max_err = phi_max_error(r);
            for k in 0..200 {
                let angle = k as f64 * 2.0 * std::f64::consts::PI / 200.0;
                let rebuilt = dequantize_phi(quantize_phi(angle, r), r);
                let diff = (angle - rebuilt).abs();
                let wrapped = diff.min(2.0 * std::f64::consts::PI - diff);
                assert!(
                    wrapped <= max_err + 1e-12,
                    "{r:?}: angle {angle} error {wrapped} > {max_err}"
                );
            }
        }
    }

    #[test]
    fn psi_roundtrip_error_bounded() {
        for r in ALL {
            let max_err = psi_max_error(r);
            for k in 0..200 {
                let angle = k as f64 * std::f64::consts::FRAC_PI_2 / 200.0;
                let rebuilt = dequantize_psi(quantize_psi(angle, r), r);
                assert!(
                    (angle - rebuilt).abs() <= max_err + 1e-12,
                    "{r:?}: angle {angle} error {} > {max_err}",
                    (angle - rebuilt).abs()
                );
            }
        }
    }

    #[test]
    fn higher_resolution_is_more_accurate() {
        assert!(phi_max_error(AngleResolution::High) < phi_max_error(AngleResolution::Standard));
        assert!(phi_max_error(AngleResolution::Standard) < phi_max_error(AngleResolution::Coarse));
        assert!(psi_max_error(AngleResolution::High) < psi_max_error(AngleResolution::Coarse));
    }

    #[test]
    fn indices_fit_in_bit_width() {
        for r in ALL {
            for k in 0..500 {
                let angle = k as f64 * 0.02;
                assert!((quantize_phi(angle, r) as u32) < (1 << r.phi_bits()));
                assert!((quantize_psi(angle, r) as u32) < (1 << r.psi_bits()));
            }
        }
    }

    #[test]
    fn negative_phi_wraps() {
        let r = AngleResolution::Standard;
        let idx = quantize_phi(-0.3, r);
        let rebuilt = dequantize_phi(idx, r);
        let expected = (-0.3f64).rem_euclid(2.0 * std::f64::consts::PI);
        let diff = (rebuilt - expected).abs();
        let wrapped = diff.min(2.0 * std::f64::consts::PI - diff);
        assert!(wrapped <= phi_max_error(r) + 1e-12);
    }

    proptest! {
        #[test]
        fn prop_phi_quantization_bounded(angle in 0.0f64..(2.0 * std::f64::consts::PI)) {
            for r in ALL {
                let rebuilt = dequantize_phi(quantize_phi(angle, r), r);
                let diff = (angle - rebuilt).abs();
                let wrapped = diff.min(2.0 * std::f64::consts::PI - diff);
                prop_assert!(wrapped <= phi_max_error(r) + 1e-9);
            }
        }

        #[test]
        fn prop_psi_quantization_bounded(angle in 0.0f64..std::f64::consts::FRAC_PI_2) {
            for r in ALL {
                let rebuilt = dequantize_psi(quantize_psi(angle, r), r);
                prop_assert!((angle - rebuilt).abs() <= psi_max_error(r) + 1e-9);
            }
        }
    }
}
