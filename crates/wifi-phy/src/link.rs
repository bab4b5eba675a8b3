//! End-to-end MU-MIMO downlink BER measurement.
//!
//! This reproduces the BER computation procedure of Section 5.2.1 of the paper:
//!
//! 1. random payload bits are generated for every station and modulated with
//!    16-QAM (optionally after rate-1/2 BCC encoding),
//! 2. the per-station beamforming feedback (ideal, 802.11-quantized, SplitBeam
//!    reconstructed, ...) is stacked into the equivalent channel and a
//!    zero-forcing precoder is computed,
//! 3. the symbols are sent through the *true* channel matrices with AWGN,
//! 4. each station performs maximum-ratio combining on its own stream, hard
//!    demaps the symbols (and Viterbi-decodes when coding is enabled), and
//! 5. the recovered bits are compared with the transmitted ones.
//!
//! Because the precoder is derived from the *reported* feedback while the
//! signal propagates through the *true* channel, any feedback compression error
//! shows up as residual inter-user interference and therefore as BER — exactly
//! the mechanism the paper measures.

use crate::channel::ChannelSnapshot;
use crate::coding::{Bcc, CodeRate};
use crate::modulation::{count_bit_errors, Modulation};
use crate::precoding::{BeamformingFeedback, ZfPrecoder};
use crate::PhyError;
use mimo_math::Complex64;
use rand::Rng;

/// Configuration of the BER link simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Payload modulation (16-QAM in the paper).
    pub modulation: Modulation,
    /// Per-stream signal-to-noise ratio in dB.
    pub snr_db: f64,
    /// Number of payload symbols transmitted per subcarrier and station.
    pub symbols_per_subcarrier: usize,
    /// Optional binary convolutional code (Fig. 10 uses rate 1/2; `None`
    /// reproduces the uncoded setting of Fig. 9).
    pub coding: Option<CodeRate>,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            modulation: Modulation::Qam16,
            snr_db: 20.0,
            symbols_per_subcarrier: 2,
            coding: None,
        }
    }
}

/// Outcome of one link simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkReport {
    /// Bit errors per station.
    pub per_user_errors: Vec<usize>,
    /// Payload bits per station.
    pub per_user_bits: Vec<usize>,
}

impl LinkReport {
    /// Aggregate bit error rate across all stations.
    pub fn ber(&self) -> f64 {
        let errors: usize = self.per_user_errors.iter().sum();
        let bits: usize = self.per_user_bits.iter().sum();
        if bits == 0 {
            0.0
        } else {
            errors as f64 / bits as f64
        }
    }

    /// Merges another report into this one (used to accumulate over many CSI samples).
    pub fn merge(&mut self, other: &LinkReport) {
        if self.per_user_errors.len() < other.per_user_errors.len() {
            self.per_user_errors.resize(other.per_user_errors.len(), 0);
            self.per_user_bits.resize(other.per_user_bits.len(), 0);
        }
        for (i, (&e, &b)) in other
            .per_user_errors
            .iter()
            .zip(other.per_user_bits.iter())
            .enumerate()
        {
            self.per_user_errors[i] += e;
            self.per_user_bits[i] += b;
        }
    }

    /// An empty report, convenient as a fold seed.
    pub fn empty() -> Self {
        Self {
            per_user_errors: Vec::new(),
            per_user_bits: Vec::new(),
        }
    }
}

/// Draws a complex Gaussian noise sample with the given per-complex-dimension variance.
fn noise_sample(rng: &mut impl Rng, variance: f64) -> Complex64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let mag = (variance * -u1.ln()).sqrt();
    Complex64::from_polar(mag, 2.0 * std::f64::consts::PI * u2)
}

/// Estimates one stream from the received vector `y` through row `index` of an
/// MMSE filter matrix (`streams x Nr`; row `i` recovers stream `i`).
///
/// Only the requested row is applied — a single dot product per symbol instead
/// of the full `streams x Nr` product (whose other rows would be discarded).
/// Returns zero when the filter is unavailable (singular effective channel) or
/// the stream index is out of range.
fn estimate_stream(
    filter: Option<&mimo_math::CMatrix>,
    y: &[Complex64],
    index: usize,
) -> Complex64 {
    match filter {
        Some(f) if index < f.rows() => (0..f.cols())
            .map(|c| f[(index, c)] * y[c])
            .sum::<Complex64>(),
        _ => Complex64::ZERO,
    }
}

/// Spreads consecutive coded bits across subcarriers (802.11-style block
/// interleaving).
///
/// Hard-decision Viterbi copes well with scattered errors but collapses on the
/// bursts a deeply faded subcarrier produces, so — like the standard — the
/// coded path never sends adjacent coded bits on the same subcarrier. Writing
/// the stream row-major into a `bits_per_subcarrier x subcarriers` block and
/// reading it column-major gives transmit position
/// `p = (j % subcarriers) * bits_per_subcarrier + j / subcarriers` for coded
/// bit `j`, a bijection on the full channel-bit capacity.
fn interleave_bits(coded: &[bool], bits_per_subcarrier: usize) -> Vec<bool> {
    debug_assert_eq!(coded.len() % bits_per_subcarrier, 0);
    let subcarriers = coded.len() / bits_per_subcarrier;
    let mut out = vec![false; coded.len()];
    for (j, &bit) in coded.iter().enumerate() {
        out[(j % subcarriers) * bits_per_subcarrier + j / subcarriers] = bit;
    }
    out
}

/// Inverse of [`interleave_bits`], applied to the demodulated stream.
fn deinterleave_bits(received: &[bool], bits_per_subcarrier: usize) -> Vec<bool> {
    debug_assert_eq!(received.len() % bits_per_subcarrier, 0);
    let subcarriers = received.len() / bits_per_subcarrier;
    let mut out = vec![false; received.len()];
    for (j, slot) in out.iter_mut().enumerate() {
        *slot = received[(j % subcarriers) * bits_per_subcarrier + j / subcarriers];
    }
    out
}

/// Finds the largest number of information bits whose coded length fits in `capacity`.
fn fit_info_bits(codec: &Bcc, capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let mut guess = ((capacity as f64) * codec.rate().as_f64()) as usize;
    while guess > 0 && codec.coded_len(guess) > capacity {
        guess -= 1;
    }
    guess
}

/// Runs the full BER measurement of Section 5.2.1 for one CSI snapshot and one
/// set of beamforming feedback.
///
/// `feedback[u][s]` must be an `Nt x Nss` matrix for every station `u` and
/// subcarrier `s` of the snapshot.
///
/// # Errors
/// * [`PhyError::DimensionMismatch`] when the feedback does not match the
///   snapshot's stations/subcarriers.
/// * [`PhyError::SingularChannel`] when the stacked feedback is rank deficient.
pub fn simulate_mu_mimo_ber(
    snapshot: &ChannelSnapshot,
    feedback: &BeamformingFeedback,
    config: &LinkConfig,
    rng: &mut impl Rng,
) -> Result<LinkReport, PhyError> {
    let num_users = snapshot.num_users();
    let subcarriers = snapshot.subcarriers();
    if feedback.len() != num_users {
        return Err(PhyError::DimensionMismatch(format!(
            "feedback for {} users, snapshot has {num_users}",
            feedback.len()
        )));
    }
    if feedback[0].len() != subcarriers {
        return Err(PhyError::DimensionMismatch(format!(
            "feedback for {} subcarriers, snapshot has {subcarriers}",
            feedback[0].len()
        )));
    }

    let precoder = ZfPrecoder::from_feedback(feedback)?;
    let bps = config.modulation.bits_per_symbol();
    let symbols_per_user = subcarriers * config.symbols_per_subcarrier;
    let channel_bit_capacity = symbols_per_user * bps;

    // Generate (and optionally encode) the payload of every station.
    let mut info_bits: Vec<Vec<bool>> = Vec::with_capacity(num_users);
    let mut tx_bits: Vec<Vec<bool>> = Vec::with_capacity(num_users);
    for _ in 0..num_users {
        match config.coding {
            None => {
                let bits: Vec<bool> = (0..channel_bit_capacity).map(|_| rng.gen()).collect();
                info_bits.push(bits.clone());
                tx_bits.push(bits);
            }
            Some(rate) => {
                let codec = Bcc::new(rate);
                let info_len = fit_info_bits(&codec, channel_bit_capacity);
                let bits: Vec<bool> = (0..info_len).map(|_| rng.gen()).collect();
                let mut coded = codec.encode(&bits);
                coded.resize(channel_bit_capacity, false);
                info_bits.push(bits);
                tx_bits.push(interleave_bits(&coded, config.symbols_per_subcarrier * bps));
            }
        }
    }

    // Modulate every station's channel bits.
    let tx_symbols: Vec<Vec<Complex64>> = tx_bits
        .iter()
        .map(|bits| config.modulation.modulate(bits))
        .collect();

    let noise_variance = 10f64.powf(-config.snr_db / 10.0);
    let mut rx_symbols: Vec<Vec<Complex64>> = vec![Vec::with_capacity(symbols_per_user); num_users];

    // Reusable buffers for the per-symbol hot loop: one persistent filter
    // matrix per user (refilled in place every subcarrier) plus the usual
    // vector scratch.
    let mut ws = mimo_math::Workspace::new();
    let mut g = mimo_math::CMatrix::zeros(1, 1);
    let mut filters: Vec<mimo_math::CMatrix> = (0..num_users)
        .map(|_| mimo_math::CMatrix::zeros(1, 1))
        .collect();
    let mut filter_ok = vec![false; num_users];
    let mut x: Vec<Complex64> = Vec::with_capacity(num_users);
    let mut tx: Vec<Complex64> = Vec::new();
    let mut y: Vec<Complex64> = Vec::new();

    for s in 0..subcarriers {
        let w = precoder.precoder(s);
        // Per-user MMSE receive filters. Each station estimates the effective
        // channel of every stream from the beamformed preamble, G_u = H_u(s) W(s),
        // and applies an MMSE equalizer; its own stream estimate is the u-th
        // entry. When the feedback is accurate the precoder keeps the desired
        // stream strong and the equalizer operates at high post-combining SNR;
        // compression error misaligns the precoder, the desired-stream gain
        // drops and interference leaks, which raises the BER — the mechanism
        // the paper measures.
        for u in 0..num_users {
            snapshot.csi(u)[s].matmul_into(w, &mut g);
            filter_ok[u] =
                mimo_math::solve::mmse_filter_into(&g, noise_variance, &mut ws, &mut filters[u])
                    .is_ok();
        }
        for k in 0..config.symbols_per_subcarrier {
            let t = s * config.symbols_per_subcarrier + k;
            // Stacked transmit vector across streams.
            x.clear();
            x.extend((0..num_users).map(|u| tx_symbols[u][t]));
            // Precoded transmit signal at the AP antennas.
            w.matvec_into(&x, &mut tx);
            for u in 0..num_users {
                let h = &snapshot.csi(u)[s];
                h.matvec_into(&tx, &mut y);
                for value in y.iter_mut() {
                    *value += noise_sample(rng, noise_variance);
                }
                let filter = filter_ok[u].then_some(&filters[u]);
                rx_symbols[u].push(estimate_stream(filter, &y, u * snapshot.nss()));
            }
        }
    }

    // Demodulate, decode, count errors.
    let mut per_user_errors = Vec::with_capacity(num_users);
    let mut per_user_bits = Vec::with_capacity(num_users);
    for u in 0..num_users {
        let rx_bits = config.modulation.demodulate(&rx_symbols[u]);
        match config.coding {
            None => {
                let errors = count_bit_errors(&info_bits[u], &rx_bits[..info_bits[u].len()]);
                per_user_errors.push(errors);
                per_user_bits.push(info_bits[u].len());
            }
            Some(rate) => {
                let codec = Bcc::new(rate);
                let coded_len = codec.coded_len(info_bits[u].len());
                let deinterleaved =
                    deinterleave_bits(&rx_bits, bps * config.symbols_per_subcarrier);
                let decoded = codec.decode(
                    &deinterleaved[..coded_len.min(deinterleaved.len())],
                    info_bits[u].len(),
                )?;
                let errors = count_bit_errors(&info_bits[u], &decoded);
                per_user_errors.push(errors);
                per_user_bits.push(info_bits[u].len());
            }
        }
    }

    Ok(LinkReport {
        per_user_errors,
        per_user_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelModel, EnvironmentProfile};
    use crate::ofdm::Bandwidth;
    use mimo_math::CMatrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn snapshot(seed: u64, n: usize, bw: Bandwidth) -> ChannelSnapshot {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        ChannelModel::new(EnvironmentProfile::e1(), bw, n, n, 1).sample(&mut rng)
    }

    #[test]
    fn ideal_feedback_high_snr_is_nearly_error_free() {
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        let snap = snapshot(1, 2, Bandwidth::Mhz20);
        let feedback = snap.ideal_beamforming();
        let cfg = LinkConfig {
            snr_db: 30.0,
            ..LinkConfig::default()
        };
        let report = simulate_mu_mimo_ber(&snap, &feedback, &cfg, &mut rng).unwrap();
        assert!(
            report.ber() < 0.02,
            "ideal feedback at 30 dB should be nearly error free, got {}",
            report.ber()
        );
    }

    #[test]
    fn corrupted_feedback_increases_ber() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let snap = snapshot(2, 3, Bandwidth::Mhz20);
        let ideal = snap.ideal_beamforming();
        let cfg = LinkConfig::default();
        let report_ideal = simulate_mu_mimo_ber(&snap, &ideal, &cfg, &mut rng).unwrap();

        // Heavily corrupt the feedback (user-dependent pseudo-random unit vectors).
        let corrupted: BeamformingFeedback = ideal
            .iter()
            .enumerate()
            .map(|(u, per_sc)| {
                per_sc
                    .iter()
                    .enumerate()
                    .map(|(s, v)| {
                        CMatrix::from_fn(v.rows(), v.cols(), |r, _| {
                            Complex64::from_polar(
                                1.0 / (v.rows() as f64).sqrt(),
                                (s as f64 * 0.911 + r as f64 * 2.3 + u as f64 * 1.7).sin() * 3.0
                                    + u as f64,
                            )
                        })
                    })
                    .collect()
            })
            .collect();
        let report_bad = simulate_mu_mimo_ber(&snap, &corrupted, &cfg, &mut rng).unwrap();
        assert!(
            report_bad.ber() > report_ideal.ber(),
            "corrupted feedback must increase BER ({} vs {})",
            report_bad.ber(),
            report_ideal.ber()
        );
    }

    #[test]
    fn low_snr_increases_ber() {
        let snap = snapshot(3, 2, Bandwidth::Mhz20);
        let feedback = snap.ideal_beamforming();
        let mut rng_hi = ChaCha8Rng::seed_from_u64(7);
        let mut rng_lo = ChaCha8Rng::seed_from_u64(7);
        let hi = simulate_mu_mimo_ber(
            &snap,
            &feedback,
            &LinkConfig {
                snr_db: 30.0,
                ..LinkConfig::default()
            },
            &mut rng_hi,
        )
        .unwrap();
        let lo = simulate_mu_mimo_ber(
            &snap,
            &feedback,
            &LinkConfig {
                snr_db: 0.0,
                ..LinkConfig::default()
            },
            &mut rng_lo,
        )
        .unwrap();
        assert!(lo.ber() > hi.ber());
    }

    #[test]
    fn coding_reduces_ber_at_moderate_snr() {
        let snap = snapshot(4, 2, Bandwidth::Mhz20);
        let feedback = snap.ideal_beamforming();
        let mut rng_a = ChaCha8Rng::seed_from_u64(9);
        let mut rng_b = ChaCha8Rng::seed_from_u64(9);
        let uncoded = simulate_mu_mimo_ber(
            &snap,
            &feedback,
            &LinkConfig {
                snr_db: 16.0,
                symbols_per_subcarrier: 4,
                ..LinkConfig::default()
            },
            &mut rng_a,
        )
        .unwrap();
        let coded = simulate_mu_mimo_ber(
            &snap,
            &feedback,
            &LinkConfig {
                snr_db: 16.0,
                symbols_per_subcarrier: 4,
                coding: Some(CodeRate::Half),
                ..LinkConfig::default()
            },
            &mut rng_b,
        )
        .unwrap();
        assert!(
            coded.ber() <= uncoded.ber(),
            "rate-1/2 coding should not increase BER ({} vs {})",
            coded.ber(),
            uncoded.ber()
        );
    }

    #[test]
    fn interleaver_roundtrips_for_all_geometries() {
        // deinterleave(interleave(x)) == x across subcarrier counts and
        // per-subcarrier bit widths, including the degenerate 1-subcarrier and
        // 1-bit-per-subcarrier shapes.
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for (subcarriers, bits_per_sc) in [(1usize, 8usize), (56, 1), (56, 16), (234, 12), (7, 5)] {
            let bits: Vec<bool> = (0..subcarriers * bits_per_sc).map(|_| rng.gen()).collect();
            let interleaved = interleave_bits(&bits, bits_per_sc);
            assert_eq!(
                deinterleave_bits(&interleaved, bits_per_sc),
                bits,
                "{subcarriers}x{bits_per_sc}"
            );
            // The permutation must actually spread adjacent coded bits onto
            // distinct subcarriers when more than one subcarrier exists.
            if subcarriers > 1 {
                let pos = |j: usize| (j % subcarriers) * bits_per_sc + j / subcarriers;
                assert_ne!(pos(0) / bits_per_sc, pos(1) / bits_per_sc);
            }
        }
    }

    #[test]
    fn report_merge_accumulates() {
        let a = LinkReport {
            per_user_errors: vec![1, 2],
            per_user_bits: vec![100, 100],
        };
        let b = LinkReport {
            per_user_errors: vec![3, 0],
            per_user_bits: vec![100, 100],
        };
        let mut merged = LinkReport::empty();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.per_user_errors, vec![4, 2]);
        assert!((merged.ber() - 6.0 / 400.0).abs() < 1e-12);
        assert_eq!(merged.per_user_bits, vec![200, 200]);
    }

    #[test]
    fn mismatched_feedback_is_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let snap = snapshot(6, 2, Bandwidth::Mhz20);
        let mut feedback = snap.ideal_beamforming();
        feedback.pop();
        let err =
            simulate_mu_mimo_ber(&snap, &feedback, &LinkConfig::default(), &mut rng).unwrap_err();
        assert!(matches!(err, PhyError::DimensionMismatch(_)));
    }

    #[test]
    fn empty_report_ber_is_zero() {
        assert_eq!(LinkReport::empty().ber(), 0.0);
    }

    #[test]
    fn fit_info_bits_respects_capacity() {
        let codec = Bcc::new(CodeRate::Half);
        for capacity in [0usize, 10, 100, 1000] {
            let info = fit_info_bits(&codec, capacity);
            if info > 0 {
                assert!(codec.coded_len(info) <= capacity);
                assert!(codec.coded_len(info + 1) > capacity);
            }
        }
    }
}
