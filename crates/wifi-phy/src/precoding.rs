//! Zero-forcing MU-MIMO precoding from beamforming feedback.
//!
//! The paper's BER procedure (Section 5.2.1, steps 3–4) stacks the per-user
//! beamforming matrices into an equivalent channel `H_EQ = [V_1 ... V_Ns]` and
//! computes the zero-forcing precoder `W = H_EQ (H_EQ^H H_EQ)^{-1}`. The AP then
//! transmits one stream per user through the corresponding column of `W`.

use crate::PhyError;
use mimo_math::solve::zf_pseudo_inverse_into;
use mimo_math::{CMatrix, Workspace};

/// Per-user, per-subcarrier beamforming feedback: `feedback[u][s]` is the
/// `Nt x Nss` beamforming matrix reported by station `u` for subcarrier `s`.
pub type BeamformingFeedback = Vec<Vec<CMatrix>>;

/// The zero-forcing precoders for every subcarrier: `precoders[s]` is the
/// `Nt x (Ns * Nss)` transmit matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ZfPrecoder {
    precoders: Vec<CMatrix>,
    streams_per_user: usize,
    num_users: usize,
}

impl ZfPrecoder {
    /// Computes the per-subcarrier zero-forcing precoders from the beamforming
    /// feedback of all stations.
    ///
    /// Each column of the resulting precoder is normalized to unit power so
    /// every stream is transmitted with the same energy regardless of how well
    /// conditioned the equivalent channel is (total power then equals the
    /// number of streams, matching the `sqrt(rho / Nt)` scaling of Eq. (1)).
    ///
    /// # Errors
    /// * [`PhyError::DimensionMismatch`] when users disagree on the number of
    ///   subcarriers or matrix shapes.
    /// * [`PhyError::SingularChannel`] when the stacked feedback is rank
    ///   deficient (e.g. two stations reporting identical vectors).
    pub fn from_feedback(feedback: &BeamformingFeedback) -> Result<Self, PhyError> {
        if feedback.is_empty() || feedback[0].is_empty() {
            return Err(PhyError::DimensionMismatch(
                "feedback must contain at least one user and one subcarrier".into(),
            ));
        }
        let num_users = feedback.len();
        let subcarriers = feedback[0].len();
        let (nt, nss) = feedback[0][0].shape();
        for (u, per_sc) in feedback.iter().enumerate() {
            if per_sc.len() != subcarriers {
                return Err(PhyError::DimensionMismatch(format!(
                    "user {u} reports {} subcarriers, expected {subcarriers}",
                    per_sc.len()
                )));
            }
            for v in per_sc {
                if v.shape() != (nt, nss) {
                    return Err(PhyError::DimensionMismatch(format!(
                        "user {u} beamforming matrix is {:?}, expected ({nt}, {nss})",
                        v.shape()
                    )));
                }
            }
        }

        // One workspace and one stacked-channel buffer serve every subcarrier;
        // only the precoder matrices themselves are allocated per subcarrier.
        let mut ws = Workspace::new();
        let mut h_eq = CMatrix::zeros(1, 1);
        let mut precoders = Vec::with_capacity(subcarriers);
        for s in 0..subcarriers {
            // H_EQ = [V_1 ... V_Ns], Nt x (Ns * Nss)
            h_eq.reshape_zeroed(nt, num_users * nss);
            for (u, user) in feedback.iter().enumerate() {
                let v = &user[s];
                for r in 0..nt {
                    for c in 0..nss {
                        h_eq[(r, u * nss + c)] = v[(r, c)];
                    }
                }
            }
            let mut w = CMatrix::zeros(1, 1);
            zf_pseudo_inverse_into(&h_eq, &mut ws, &mut w)
                .map_err(|_| PhyError::SingularChannel)?;
            // Normalize each column (stream) to unit power, in place.
            for c in 0..w.cols() {
                let norm: f64 = (0..w.rows())
                    .map(|r| w[(r, c)].norm_sqr())
                    .sum::<f64>()
                    .sqrt();
                if norm < 1e-12 {
                    return Err(PhyError::SingularChannel);
                }
                for r in 0..w.rows() {
                    w[(r, c)] = w[(r, c)] / norm;
                }
            }
            precoders.push(w);
        }

        Ok(Self {
            precoders,
            streams_per_user: nss,
            num_users,
        })
    }

    /// The precoder matrix of subcarrier `s`.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn precoder(&self, s: usize) -> &CMatrix {
        &self.precoders[s]
    }

    /// Number of subcarriers covered by this precoder.
    pub fn subcarriers(&self) -> usize {
        self.precoders.len()
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Columns of the precoder belonging to user `u` on subcarrier `s`
    /// (an `Nt x Nss` matrix).
    #[cfg(test)]
    pub fn user_precoder(&self, s: usize, u: usize) -> CMatrix {
        let w = &self.precoders[s];
        let start = u * self.streams_per_user;
        CMatrix::from_fn(w.rows(), self.streams_per_user, |r, c| w[(r, start + c)])
    }
}

/// Residual inter-user interference power of a precoder against the *true*
/// per-user channels: `sum_{i != j} || H_i W_j ||_F^2 / count`.
///
/// With ideal feedback and well-separated users this is small; feedback
/// compression error increases it, which is the mechanism by which SplitBeam's
/// reconstruction error translates into BER. The tests hold precoders to it.
#[cfg(test)]
pub fn residual_interference(
    true_channels: &[Vec<CMatrix>],
    precoder: &ZfPrecoder,
) -> Result<f64, PhyError> {
    if true_channels.len() != precoder.num_users() {
        return Err(PhyError::DimensionMismatch(format!(
            "{} channels vs {} users in precoder",
            true_channels.len(),
            precoder.num_users()
        )));
    }
    let subcarriers = precoder.subcarriers();
    let mut total = 0.0;
    let mut count = 0usize;
    for s in 0..subcarriers {
        for (i, h_user) in true_channels.iter().enumerate() {
            let h = &h_user[s];
            for j in 0..precoder.num_users() {
                if i == j {
                    continue;
                }
                let leak = h.matmul(&precoder.user_precoder(s, j));
                total += leak.frobenius_norm().powi(2);
                count += 1;
            }
        }
    }
    Ok(if count == 0 {
        0.0
    } else {
        total / count as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelModel, EnvironmentProfile};
    use crate::ofdm::Bandwidth;
    use mimo_math::Complex64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn snapshot(seed: u64, n: usize) -> crate::channel::ChannelSnapshot {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let model = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, n, n, 1);
        model.sample(&mut rng)
    }

    #[test]
    fn precoder_dimensions() {
        let snap = snapshot(1, 2);
        let feedback = snap.ideal_beamforming();
        let zf = ZfPrecoder::from_feedback(&feedback).unwrap();
        assert_eq!(zf.subcarriers(), 56);
        assert_eq!(zf.num_users(), 2);
        assert_eq!(zf.precoder(0).shape(), (2, 2));
        assert_eq!(zf.user_precoder(0, 1).shape(), (2, 1));
    }

    #[test]
    fn columns_are_unit_power() {
        let snap = snapshot(2, 3);
        let zf = ZfPrecoder::from_feedback(&snap.ideal_beamforming()).unwrap();
        for s in [0, 10, 55] {
            let w = zf.precoder(s);
            for c in 0..w.cols() {
                let p: f64 = w.column(c).iter().map(|z| z.norm_sqr()).sum();
                assert!((p - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zf_property_against_reported_vectors() {
        // V_i^H w_j must be ~0 for i != j (ZF against the *reported* directions).
        let snap = snapshot(3, 3);
        let feedback = snap.ideal_beamforming();
        let zf = ZfPrecoder::from_feedback(&feedback).unwrap();
        for s in [0, 25] {
            for (i, feedback_i) in feedback.iter().enumerate() {
                for j in 0..3 {
                    if i == j {
                        continue;
                    }
                    let vi = &feedback_i[s];
                    let wj = zf.user_precoder(s, j);
                    let leak = vi.hermitian().matmul(&wj).frobenius_norm();
                    assert!(leak < 1e-9, "leak {leak} at s={s}, i={i}, j={j}");
                }
            }
        }
    }

    #[test]
    fn ideal_feedback_has_lower_interference_than_corrupted() {
        let snap = snapshot(4, 3);
        let ideal = snap.ideal_beamforming();
        let channels: Vec<Vec<CMatrix>> = (0..3).map(|u| snap.csi(u).to_vec()).collect();
        let zf_ideal = ZfPrecoder::from_feedback(&ideal).unwrap();
        let i_ideal = residual_interference(&channels, &zf_ideal).unwrap();

        // Corrupt the feedback with a strong perturbation.
        let corrupted: BeamformingFeedback = ideal
            .iter()
            .enumerate()
            .map(|(u, per_sc)| {
                per_sc
                    .iter()
                    .enumerate()
                    .map(|(s, v)| {
                        let noise = CMatrix::from_fn(v.rows(), v.cols(), |r, c| {
                            Complex64::new(
                                ((u + r + s) as f64 * 0.37).sin() * 0.5,
                                ((c + s) as f64 * 0.73).cos() * 0.5,
                            )
                        });
                        v.add(&noise)
                    })
                    .collect()
            })
            .collect();
        let zf_bad = ZfPrecoder::from_feedback(&corrupted).unwrap();
        let i_bad = residual_interference(&channels, &zf_bad).unwrap();
        assert!(
            i_bad > i_ideal,
            "corrupted feedback should leak more interference ({i_bad} vs {i_ideal})"
        );
    }

    #[test]
    fn singular_feedback_is_rejected() {
        // Two stations reporting the same vector -> rank-deficient H_EQ.
        let v = CMatrix::from_fn(2, 1, |r, _| Complex64::new(1.0 / (r as f64 + 1.0), 0.0));
        let feedback: BeamformingFeedback = vec![vec![v.clone()], vec![v]];
        assert_eq!(
            ZfPrecoder::from_feedback(&feedback).unwrap_err(),
            PhyError::SingularChannel
        );
    }

    #[test]
    fn empty_feedback_is_rejected() {
        let err = ZfPrecoder::from_feedback(&vec![]).unwrap_err();
        assert!(matches!(err, PhyError::DimensionMismatch(_)));
    }

    #[test]
    fn mismatched_subcarrier_counts_rejected() {
        let v = CMatrix::identity(2).first_columns(1);
        let feedback: BeamformingFeedback = vec![vec![v.clone(), v.clone()], vec![v]];
        let err = ZfPrecoder::from_feedback(&feedback).unwrap_err();
        assert!(matches!(err, PhyError::DimensionMismatch(_)));
    }
}
