//! Binary convolutional coding (BCC) and hard-decision Viterbi decoding.
//!
//! 802.11 uses the industry-standard rate-1/2, constraint-length-7
//! convolutional code with generator polynomials (133, 171) octal, punctured to
//! obtain rates 2/3 and 3/4. Figure 10 of the paper applies the rate-1/2 code
//! to the 160 MHz experiments; this module provides the encoder, the puncturer
//! and a hard-decision Viterbi decoder.

use crate::PhyError;

/// Generator polynomials of the 802.11 convolutional code (octal 133 and 171),
/// constraint length 7.
const G0: u8 = 0o133;
const G1: u8 = 0o171;
const CONSTRAINT: usize = 7;
const NUM_STATES: usize = 1 << (CONSTRAINT - 1);

/// Code rate of the binary convolutional code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 (no puncturing) — used in the paper's Fig. 10.
    Half,
    /// Rate 2/3 (802.11 puncturing pattern).
    TwoThirds,
    /// Rate 3/4 (802.11 puncturing pattern).
    ThreeQuarters,
}

impl CodeRate {
    /// Numerator / denominator of the rate as a float.
    pub fn as_f64(self) -> f64 {
        match self {
            CodeRate::Half => 0.5,
            CodeRate::TwoThirds => 2.0 / 3.0,
            CodeRate::ThreeQuarters => 0.75,
        }
    }

    /// Puncturing pattern applied to the rate-1/2 mother code output.
    /// `true` entries are transmitted; the pattern repeats.
    fn puncture_pattern(self) -> &'static [bool] {
        match self {
            CodeRate::Half => &[true, true],
            // 802.11 rate 2/3: keep A1 B1 A2, drop B2 (pattern over 2 input bits).
            CodeRate::TwoThirds => &[true, true, true, false],
            // 802.11 rate 3/4: keep A1 B1 A2 drop B2 drop A3 keep B3.
            CodeRate::ThreeQuarters => &[true, true, true, false, false, true],
        }
    }
}

/// The 802.11 binary convolutional codec at a given rate.
///
/// ```
/// use wifi_phy::coding::{Bcc, CodeRate};
/// let codec = Bcc::new(CodeRate::Half);
/// let bits = vec![true, false, true, true, false, false, true, false];
/// let coded = codec.encode(&bits);
/// let decoded = codec.decode(&coded, bits.len()).unwrap();
/// assert_eq!(decoded, bits);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bcc {
    rate: CodeRate,
}

impl Bcc {
    /// Creates a codec with the given rate.
    pub fn new(rate: CodeRate) -> Self {
        Self { rate }
    }

    /// The configured code rate.
    pub fn rate(&self) -> CodeRate {
        self.rate
    }

    /// Number of coded bits produced for `info_bits` information bits
    /// (including the 6 tail bits that flush the encoder).
    pub fn coded_len(&self, info_bits: usize) -> usize {
        let mother = 2 * (info_bits + CONSTRAINT - 1);
        let pattern = self.rate.puncture_pattern();
        let kept_per_period = pattern.iter().filter(|&&b| b).count();
        // Ceiling of mother * kept / pattern_len, accounting for partial periods.
        let full = mother / pattern.len();
        let rem = mother % pattern.len();
        full * kept_per_period + pattern[..rem].iter().filter(|&&b| b).count()
    }

    /// Convolutionally encodes `bits` (appending 6 zero tail bits) and applies
    /// the puncturing pattern of the configured rate.
    pub fn encode(&self, bits: &[bool]) -> Vec<bool> {
        let mut state: u8 = 0;
        let mut mother = Vec::with_capacity(2 * (bits.len() + CONSTRAINT - 1));
        let padded = bits
            .iter()
            .copied()
            .chain(std::iter::repeat_n(false, CONSTRAINT - 1));
        for bit in padded {
            let reg = ((bit as u8) << (CONSTRAINT - 1)) | state;
            mother.push(parity(reg & G0));
            mother.push(parity(reg & G1));
            state = reg >> 1;
        }
        // Puncture.
        let pattern = self.rate.puncture_pattern();
        mother
            .iter()
            .enumerate()
            .filter(|(i, _)| pattern[i % pattern.len()])
            .map(|(_, &b)| b)
            .collect()
    }

    /// Hard-decision Viterbi decoding of `coded` back to `info_bits` information
    /// bits. Punctured positions are treated as erasures (zero branch cost).
    ///
    /// # Errors
    /// Returns [`PhyError::DimensionMismatch`] if `coded` is shorter than the
    /// expected coded length for `info_bits`.
    pub fn decode(&self, coded: &[bool], info_bits: usize) -> Result<Vec<bool>, PhyError> {
        let expected = self.coded_len(info_bits);
        if coded.len() < expected {
            return Err(PhyError::DimensionMismatch(format!(
                "expected at least {expected} coded bits, got {}",
                coded.len()
            )));
        }

        // Re-expand the punctured stream into (bit, known) pairs for the mother code.
        let pattern = self.rate.puncture_pattern();
        let total_steps = info_bits + CONSTRAINT - 1;
        let mother_len = 2 * total_steps;
        let mut received: Vec<Option<bool>> = Vec::with_capacity(mother_len);
        let mut coded_iter = coded.iter();
        for i in 0..mother_len {
            if pattern[i % pattern.len()] {
                received.push(coded_iter.next().copied());
            } else {
                received.push(None);
            }
        }

        // Viterbi over the 64-state trellis.
        const INF: u32 = u32::MAX / 4;
        let mut metrics = vec![INF; NUM_STATES];
        metrics[0] = 0;
        // survivors[t][state] = (previous state, input bit)
        let mut survivors: Vec<Vec<(u16, bool)>> = Vec::with_capacity(total_steps);

        for t in 0..total_steps {
            let r0 = received[2 * t];
            let r1 = received[2 * t + 1];
            let mut next = vec![INF; NUM_STATES];
            let mut surv = vec![(0u16, false); NUM_STATES];
            for (state, &metric) in metrics.iter().enumerate() {
                if metric >= INF {
                    continue;
                }
                for input in [false, true] {
                    let reg = ((input as u8) << (CONSTRAINT - 1)) | state as u8;
                    let out0 = parity(reg & G0);
                    let out1 = parity(reg & G1);
                    let mut cost = 0u32;
                    if let Some(r) = r0 {
                        cost += (r != out0) as u32;
                    }
                    if let Some(r) = r1 {
                        cost += (r != out1) as u32;
                    }
                    let next_state = (reg >> 1) as usize;
                    let cand = metric + cost;
                    if cand < next[next_state] {
                        next[next_state] = cand;
                        surv[next_state] = (state as u16, input);
                    }
                }
            }
            metrics = next;
            survivors.push(surv);
        }

        // Trace back from state 0 (the tail bits force the encoder back to zero).
        let mut state = 0usize;
        let mut decoded = vec![false; total_steps];
        for t in (0..total_steps).rev() {
            let (prev, input) = survivors[t][state];
            decoded[t] = input;
            state = prev as usize;
        }
        decoded.truncate(info_bits);
        Ok(decoded)
    }
}

/// Parity (XOR of all bits) of a byte.
fn parity(x: u8) -> bool {
    x.count_ones() % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng as _;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn parity_works() {
        assert!(!parity(0b0000));
        assert!(parity(0b0001));
        assert!(!parity(0b0011));
        assert!(parity(0b0111));
    }

    #[test]
    fn rate_half_noiseless_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let codec = Bcc::new(CodeRate::Half);
        let bits: Vec<bool> = (0..200).map(|_| rng.gen()).collect();
        let coded = codec.encode(&bits);
        assert_eq!(coded.len(), codec.coded_len(bits.len()));
        let decoded = codec.decode(&coded, bits.len()).unwrap();
        assert_eq!(decoded, bits);
    }

    #[test]
    fn punctured_rates_noiseless_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for rate in [CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let codec = Bcc::new(rate);
            let bits: Vec<bool> = (0..120).map(|_| rng.gen()).collect();
            let coded = codec.encode(&bits);
            assert_eq!(coded.len(), codec.coded_len(bits.len()));
            let decoded = codec.decode(&coded, bits.len()).unwrap();
            assert_eq!(decoded, bits, "rate {rate:?}");
        }
    }

    #[test]
    fn corrects_scattered_errors_at_rate_half() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let codec = Bcc::new(CodeRate::Half);
        let bits: Vec<bool> = (0..300).map(|_| rng.gen()).collect();
        let mut coded = codec.encode(&bits);
        // Flip ~2% of coded bits, spread out.
        let n_err = coded.len() / 50;
        for k in 0..n_err {
            let idx = (k * coded.len() / n_err + 3) % coded.len();
            coded[idx] = !coded[idx];
        }
        let decoded = codec.decode(&coded, bits.len()).unwrap();
        let errors = decoded
            .iter()
            .zip(bits.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(errors, 0, "rate-1/2 BCC should correct scattered 2% errors");
    }

    #[test]
    fn coding_gain_over_uncoded() {
        // With 5% random coded-bit errors, the decoded info BER must be far below 5%.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let codec = Bcc::new(CodeRate::Half);
        let bits: Vec<bool> = (0..2000).map(|_| rng.gen()).collect();
        let mut coded = codec.encode(&bits);
        let mut flipped = 0usize;
        for b in coded.iter_mut() {
            if rng.gen_bool(0.05) {
                *b = !*b;
                flipped += 1;
            }
        }
        assert!(flipped > 0);
        let decoded = codec.decode(&coded, bits.len()).unwrap();
        let errors = decoded
            .iter()
            .zip(bits.iter())
            .filter(|(a, b)| a != b)
            .count();
        let info_ber = errors as f64 / bits.len() as f64;
        assert!(
            info_ber < 0.02,
            "info BER {info_ber} should be well below 5%"
        );
    }

    #[test]
    fn short_input_is_rejected() {
        let codec = Bcc::new(CodeRate::Half);
        let err = codec.decode(&[true; 4], 100).unwrap_err();
        assert!(matches!(err, PhyError::DimensionMismatch(_)));
    }

    #[test]
    fn rate_values() {
        assert!((CodeRate::Half.as_f64() - 0.5).abs() < 1e-12);
        assert!((CodeRate::TwoThirds.as_f64() - 2.0 / 3.0).abs() < 1e-12);
        assert!((CodeRate::ThreeQuarters.as_f64() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn coded_len_tracks_rate() {
        let info = 600usize;
        let half = Bcc::new(CodeRate::Half).coded_len(info);
        let two_thirds = Bcc::new(CodeRate::TwoThirds).coded_len(info);
        let three_quarters = Bcc::new(CodeRate::ThreeQuarters).coded_len(info);
        assert!(half > two_thirds);
        assert!(two_thirds > three_quarters);
        // Approximate rate check (tail bits make it slightly lower than nominal).
        assert!((info as f64 / half as f64 - 0.5).abs() < 0.02);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_noiseless_roundtrip(len in 1usize..200, seed in 0u64..500) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
            for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
                let codec = Bcc::new(rate);
                let decoded = codec.decode(&codec.encode(&bits), bits.len()).unwrap();
                prop_assert_eq!(&decoded, &bits);
            }
        }

        #[test]
        fn prop_single_error_corrected(len in 8usize..100, pos_frac in 0.0f64..1.0, seed in 0u64..200) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let codec = Bcc::new(CodeRate::Half);
            let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
            let mut coded = codec.encode(&bits);
            let pos = ((coded.len() - 1) as f64 * pos_frac) as usize;
            coded[pos] = !coded[pos];
            let decoded = codec.decode(&coded, bits.len()).unwrap();
            prop_assert_eq!(decoded, bits);
        }
    }
}
