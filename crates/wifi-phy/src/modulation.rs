//! Gray-coded QAM modulation and hard-decision demapping.
//!
//! The paper's BER procedure modulates random payload bits with 16-QAM
//! (Section 5.2.1, step 1). BPSK, QPSK and 64-QAM are also provided so the
//! link simulator can sweep modulation orders in ablation experiments.

use crate::PhyError;
use mimo_math::Complex64;

/// Modulation scheme of the payload symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 1 bit/symbol.
    Bpsk,
    /// 2 bits/symbol.
    Qpsk,
    /// 4 bits/symbol — the scheme used in the paper's BER measurements.
    Qam16,
    /// 6 bits/symbol.
    Qam64,
}

impl Modulation {
    /// Number of bits carried by one symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Normalization factor so the average symbol energy is 1.
    fn scale(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        }
    }

    /// Gray-maps `bits_per_symbol / 2` bits to one PAM amplitude.
    fn pam_level(bits: &[bool]) -> f64 {
        // Gray mapping for 1, 2 or 3 bits per I/Q rail.
        match bits.len() {
            0 => 0.0,
            1 => {
                if bits[0] {
                    1.0
                } else {
                    -1.0
                }
            }
            2 => {
                // Gray order: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
                match (bits[0], bits[1]) {
                    (false, false) => -3.0,
                    (false, true) => -1.0,
                    (true, true) => 1.0,
                    (true, false) => 3.0,
                }
            }
            3 => {
                // Gray order over 8 levels.
                let idx = (bits[0] as usize) << 2 | (bits[1] as usize) << 1 | bits[2] as usize;
                const GRAY_TO_LEVEL: [f64; 8] = [-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0];
                GRAY_TO_LEVEL[idx]
            }
            _ => unreachable!("unsupported PAM width"),
        }
    }

    /// Hard-slices one PAM amplitude back to bits.
    fn pam_bits(level: f64, width: usize) -> Vec<bool> {
        match width {
            0 => vec![],
            1 => vec![level >= 0.0],
            2 => {
                // Decision boundaries at -2, 0, +2 on the unnormalized grid.
                if level < -2.0 {
                    vec![false, false]
                } else if level < 0.0 {
                    vec![false, true]
                } else if level < 2.0 {
                    vec![true, true]
                } else {
                    vec![true, false]
                }
            }
            3 => {
                let candidates = [-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0];
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (i, &c) in candidates.iter().enumerate() {
                    let d = (level - c).abs();
                    if d < best_d {
                        best_d = d;
                        best = i;
                    }
                }
                // Invert the Gray map of `pam_level`.
                const LEVEL_TO_GRAY: [u8; 8] =
                    [0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100];
                let g = LEVEL_TO_GRAY[best];
                vec![(g >> 2) & 1 == 1, (g >> 1) & 1 == 1, g & 1 == 1]
            }
            _ => unreachable!("unsupported PAM width"),
        }
    }

    /// Maps a bit slice to one constellation symbol.
    ///
    /// # Errors
    /// Returns [`PhyError::DimensionMismatch`] when `bits.len()` differs from
    /// [`Modulation::bits_per_symbol`].
    pub fn modulate_symbol(self, bits: &[bool]) -> Result<Complex64, PhyError> {
        if bits.len() != self.bits_per_symbol() {
            return Err(PhyError::DimensionMismatch(format!(
                "expected {} bits per symbol, got {}",
                self.bits_per_symbol(),
                bits.len()
            )));
        }
        let symbol = match self {
            Modulation::Bpsk => Complex64::new(Self::pam_level(&bits[0..1]), 0.0),
            Modulation::Qpsk => {
                Complex64::new(Self::pam_level(&bits[0..1]), Self::pam_level(&bits[1..2]))
            }
            Modulation::Qam16 => {
                Complex64::new(Self::pam_level(&bits[0..2]), Self::pam_level(&bits[2..4]))
            }
            Modulation::Qam64 => {
                Complex64::new(Self::pam_level(&bits[0..3]), Self::pam_level(&bits[3..6]))
            }
        };
        Ok(symbol.scale(self.scale()))
    }

    /// Hard-demaps one received symbol to bits.
    pub fn demodulate_symbol(self, symbol: Complex64) -> Vec<bool> {
        let unscaled = symbol / self.scale();
        match self {
            Modulation::Bpsk => Self::pam_bits(unscaled.re, 1),
            Modulation::Qpsk => {
                let mut bits = Self::pam_bits(unscaled.re, 1);
                bits.extend(Self::pam_bits(unscaled.im, 1));
                bits
            }
            Modulation::Qam16 => {
                let mut bits = Self::pam_bits(unscaled.re, 2);
                bits.extend(Self::pam_bits(unscaled.im, 2));
                bits
            }
            Modulation::Qam64 => {
                let mut bits = Self::pam_bits(unscaled.re, 3);
                bits.extend(Self::pam_bits(unscaled.im, 3));
                bits
            }
        }
    }

    /// Maps a full bit stream to symbols; the tail is zero-padded to a whole symbol.
    pub fn modulate(self, bits: &[bool]) -> Vec<Complex64> {
        let bps = self.bits_per_symbol();
        bits.chunks(bps)
            .map(|chunk| {
                let mut padded = chunk.to_vec();
                padded.resize(bps, false);
                self.modulate_symbol(&padded)
                    .expect("padded chunk always has the right width")
            })
            .collect()
    }

    /// Demaps a symbol stream back to a bit stream.
    pub fn demodulate(self, symbols: &[Complex64]) -> Vec<bool> {
        symbols
            .iter()
            .flat_map(|&s| self.demodulate_symbol(s))
            .collect()
    }
}

/// Counts the number of differing bits between two equally long bit slices.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn count_bit_errors(sent: &[bool], received: &[bool]) -> usize {
    assert_eq!(sent.len(), received.len(), "bit streams must align");
    sent.iter()
        .zip(received.iter())
        .filter(|(a, b)| a != b)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng as _;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    #[test]
    fn bits_per_symbol_values() {
        assert_eq!(Modulation::Bpsk.bits_per_symbol(), 1);
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2);
        assert_eq!(Modulation::Qam16.bits_per_symbol(), 4);
        assert_eq!(Modulation::Qam64.bits_per_symbol(), 6);
    }

    #[test]
    fn noiseless_roundtrip_all_schemes() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for m in ALL {
            let bits: Vec<bool> = (0..m.bits_per_symbol() * 64).map(|_| rng.gen()).collect();
            let symbols = m.modulate(&bits);
            let decoded = m.demodulate(&symbols);
            assert_eq!(bits, decoded, "{m:?} roundtrip failed");
        }
    }

    #[test]
    fn unit_average_energy() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for m in ALL {
            let bits: Vec<bool> = (0..m.bits_per_symbol() * 4096).map(|_| rng.gen()).collect();
            let symbols = m.modulate(&bits);
            let energy: f64 =
                symbols.iter().map(|s| s.norm_sqr()).sum::<f64>() / symbols.len() as f64;
            assert!(
                (energy - 1.0).abs() < 0.05,
                "{m:?} average energy {energy} not ~1"
            );
        }
    }

    #[test]
    fn wrong_bit_width_is_rejected() {
        let err = Modulation::Qam16
            .modulate_symbol(&[true, false])
            .unwrap_err();
        assert!(matches!(err, PhyError::DimensionMismatch(_)));
    }

    #[test]
    fn qam16_constellation_has_16_points() {
        let mut points = Vec::new();
        for idx in 0..16u8 {
            let bits: Vec<bool> = (0..4).map(|b| (idx >> (3 - b)) & 1 == 1).collect();
            let sym = Modulation::Qam16.modulate_symbol(&bits).unwrap();
            points.push(sym);
        }
        for i in 0..16 {
            for j in (i + 1)..16 {
                assert!(
                    (points[i] - points[j]).abs() > 1e-6,
                    "constellation points collide"
                );
            }
        }
    }

    #[test]
    fn gray_mapping_neighbor_property_qam16() {
        // Adjacent PAM levels must differ in exactly one bit (Gray property).
        let levels = [-3.0, -1.0, 1.0, 3.0];
        for w in levels.windows(2) {
            let a = Modulation::pam_bits(w[0], 2);
            let b = Modulation::pam_bits(w[1], 2);
            let diff = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn count_bit_errors_counts() {
        let a = vec![true, false, true, true];
        let b = vec![true, true, true, false];
        assert_eq!(count_bit_errors(&a, &b), 2);
        assert_eq!(count_bit_errors(&a, &a), 0);
    }

    #[test]
    fn padding_of_partial_symbol() {
        let bits = vec![true, false, true]; // 3 bits for a 4-bit symbol
        let symbols = Modulation::Qam16.modulate(&bits);
        assert_eq!(symbols.len(), 1);
        let decoded = Modulation::Qam16.demodulate(&symbols);
        assert_eq!(&decoded[..3], &bits[..]);
        assert!(!decoded[3]); // the pad bit is zero
    }

    proptest! {
        #[test]
        fn prop_roundtrip_random_bits(seed in 0u64..500, n_sym in 1usize..64) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for m in ALL {
                let bits: Vec<bool> = (0..m.bits_per_symbol() * n_sym).map(|_| rng.gen()).collect();
                let decoded = m.demodulate(&m.modulate(&bits));
                prop_assert_eq!(bits, decoded);
            }
        }

        #[test]
        fn prop_small_noise_does_not_flip_bits(seed in 0u64..200) {
            // Noise well inside half the minimum constellation distance must be harmless.
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let m = Modulation::Qam16;
            let bits: Vec<bool> = (0..4 * 32).map(|_| rng.gen()).collect();
            let symbols = m.modulate(&bits);
            let noisy: Vec<Complex64> = symbols
                .iter()
                .map(|&s| s + Complex64::new(rng.gen_range(-0.05..0.05), rng.gen_range(-0.05..0.05)))
                .collect();
            prop_assert_eq!(count_bit_errors(&bits, &m.demodulate(&noisy)), 0);
        }
    }
}
