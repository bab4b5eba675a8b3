//! Givens-rotation decomposition of the beamforming matrix (Algorithm 1).
//!
//! The 802.11 standard feeds back the beamforming matrix `V` (`Nt x Nss`,
//! orthonormal columns) as a set of angles: the column phases are first removed
//! (the `D̃` matrix, which does not need to be fed back because beamforming
//! performance is invariant to it), then a sequence of `D_t` phase matrices and
//! real Givens rotations `G_{l,t}` reduces the matrix to the generalized
//! identity. The station transmits only the φ (phase) and ψ (rotation) angles;
//! the access point rebuilds `Ṽ` by applying the rotations in reverse.

use crate::BfiError;
use mimo_math::{CMatrix, Complex64};

/// The Givens-angle representation of one subcarrier's beamforming matrix.
///
/// Angles are stored in the order mandated by the standard (and produced by
/// Algorithm 1): for every column `t`, first the φ angles of rows `t..Nt-1`,
/// then the ψ angles of rows `t+1..Nt`.
#[derive(Debug, Clone, PartialEq)]
pub struct GivensAngles {
    /// Number of transmit antennas (rows of `V`).
    pub nt: usize,
    /// Number of spatial streams (columns of `V`).
    pub nss: usize,
    /// φ angles in `[0, 2π)`, ordered per column.
    pub phi: Vec<f64>,
    /// ψ angles in `[0, π/2]`, ordered per column.
    pub psi: Vec<f64>,
}

/// Number of φ (equivalently ψ) angle *pairs* per subcarrier for an
/// `nt x nss` beamforming matrix: `sum_{t=1}^{min(nss, nt-1)} (nt - t)` each.
pub fn angle_pairs(nt: usize, nss: usize) -> usize {
    let t_max = nss.min(nt.saturating_sub(1));
    (1..=t_max).map(|t| nt - t).sum()
}

/// Total number of angles (φ + ψ) per subcarrier — the `A` of the paper's
/// airtime formula.
pub fn total_angles(nt: usize, nss: usize) -> usize {
    2 * angle_pairs(nt, nss)
}

impl GivensAngles {
    /// Decomposes an orthonormal `nt x nss` beamforming matrix into Givens
    /// angles (Algorithm 1 of the paper).
    ///
    /// Allocates the working copy and the output internally; the per-subcarrier
    /// hot loop should reuse buffers through [`GivensAngles::decompose_into`].
    ///
    /// # Errors
    /// Returns [`BfiError::InvalidShape`] if `v` has more columns than rows or
    /// is degenerate (a single antenna cannot be decomposed).
    pub fn decompose(v: &CMatrix) -> Result<Self, BfiError> {
        let mut out = GivensAngles {
            nt: 0,
            nss: 0,
            phi: Vec::new(),
            psi: Vec::new(),
        };
        let mut omega = CMatrix::zeros(1, 1);
        Self::decompose_into(v, &mut omega, &mut out)?;
        Ok(out)
    }

    /// Decomposes `v` into `out`, reusing `omega` as the working copy and the
    /// angle vectors already held by `out`.
    ///
    /// After warm-up the call performs no heap allocation; the produced angles
    /// are bit-identical to [`GivensAngles::decompose`]. The phase angles of a
    /// column are applied row by row as they are extracted — each row rotation
    /// only touches its own row, so the interleaving leaves every extracted
    /// angle exactly as in the two-pass formulation.
    ///
    /// # Errors
    /// Returns [`BfiError::InvalidShape`] if `v` has more columns than rows or
    /// is degenerate (a single antenna cannot be decomposed).
    pub fn decompose_into(
        v: &CMatrix,
        omega: &mut CMatrix,
        out: &mut GivensAngles,
    ) -> Result<(), BfiError> {
        let (nt, nss) = v.shape();
        if nss > nt {
            return Err(BfiError::InvalidShape(format!(
                "V must be tall or square, got {nt}x{nss}"
            )));
        }
        if nt == 0 || nss == 0 {
            return Err(BfiError::InvalidShape("empty matrix".into()));
        }

        // Step 1: remove the per-column phase of the last row so that row Nt is
        // non-negative real: Omega = V * D̃^H with
        // D̃ = diag(exp(j * angle(V[Nt-1, k]))).
        omega.reshape_zeroed(nt, nss);
        for c in 0..nss {
            let phase_conj = Complex64::cis(v[(nt - 1, c)].arg()).conj();
            for r in 0..nt {
                omega[(r, c)] = v[(r, c)] * phase_conj;
            }
        }

        let t_max = nss.min(nt - 1);
        out.nt = nt;
        out.nss = nss;
        out.phi.clear();
        out.psi.clear();

        for t in 0..t_max {
            // Phase angles of column t, rows t..nt-2 (the last row is already
            // real); apply D_t^H to each row as its angle is extracted.
            for l in t..(nt - 1) {
                let angle = omega[(l, t)].arg().rem_euclid(2.0 * std::f64::consts::PI);
                out.phi.push(angle);
                let rotator = Complex64::cis(-angle);
                for c in 0..nss {
                    omega[(l, c)] *= rotator;
                }
            }

            // Givens rotations zeroing rows t+1..nt-1 of column t.
            for l in (t + 1)..nt {
                let a = omega[(t, t)].re;
                let b = omega[(l, t)].re;
                let denom = (a * a + b * b).sqrt();
                let angle = if denom < 1e-300 {
                    0.0
                } else {
                    (a / denom).clamp(-1.0, 1.0).acos()
                };
                out.psi.push(angle);
                let (cos_psi, sin_psi) = (angle.cos(), angle.sin());
                // Apply G_{l,t} (a real rotation acting on rows t and l).
                for c in 0..nss {
                    let top = omega[(t, c)];
                    let bottom = omega[(l, c)];
                    omega[(t, c)] = top.scale(cos_psi) + bottom.scale(sin_psi);
                    omega[(l, c)] = bottom.scale(cos_psi) - top.scale(sin_psi);
                }
            }
        }

        Ok(())
    }

    /// Rebuilds the beamforming matrix `Ṽ` from the angles (the inverse of
    /// [`GivensAngles::decompose`], Eq. 5 of the paper).
    ///
    /// The reconstruction equals the original `V` up to the per-column phase
    /// `D̃` that the standard deliberately does not feed back; beamforming
    /// performance is identical for `V` and `Ṽ`.
    pub fn reconstruct(&self) -> CMatrix {
        let nt = self.nt;
        let nss = self.nss;
        let t_max = nss.min(nt - 1);

        let mut result = CMatrix::generalized_identity(nt, nss);
        // Build the product right-to-left: for t = t_max..1, prepend
        // (G^T_{nt,t} ... G^T_{t+1,t}) then D_t.
        let mut phi_cursor = self.phi.len();
        let mut psi_cursor = self.psi.len();
        for t in (0..t_max).rev() {
            let n_phi = nt - 1 - t;
            let n_psi = nt - 1 - t;
            let phis = &self.phi[phi_cursor - n_phi..phi_cursor];
            let psis = &self.psi[psi_cursor - n_psi..psi_cursor];
            phi_cursor -= n_phi;
            psi_cursor -= n_psi;

            // Apply the transposed Givens rotations in reverse order of the
            // decomposition: result <- G^T_{l,t} * result for l = nt..t+2, then
            // finally the phases.
            for (idx, &angle) in psis.iter().enumerate().rev() {
                let l = t + 1 + idx;
                let (cos_psi, sin_psi) = (angle.cos(), angle.sin());
                // G^T swaps the sign of the sin terms relative to G.
                for c in 0..nss {
                    let top = result[(t, c)];
                    let bottom = result[(l, c)];
                    result[(t, c)] = top.scale(cos_psi) - bottom.scale(sin_psi);
                    result[(l, c)] = top.scale(sin_psi) + bottom.scale(cos_psi);
                }
            }
            for (offset, &angle) in phis.iter().enumerate() {
                let row = t + offset;
                let rotator = Complex64::cis(angle);
                for c in 0..nss {
                    result[(row, c)] *= rotator;
                }
            }
        }
        result
    }
}

/// Removes the feedback-irrelevant per-column phase from `v` so it can be
/// compared entry-wise with a reconstruction produced by
/// [`GivensAngles::reconstruct`]: each column is rotated so its last entry is
/// non-negative real.
pub fn canonicalize_column_phases(v: &CMatrix) -> CMatrix {
    let (nt, nss) = v.shape();
    CMatrix::from_fn(nt, nss, |r, c| {
        let phase = Complex64::cis(v[(nt - 1, c)].arg());
        v[(r, c)] * phase.conj()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_math::qr::random_unitary;
    use mimo_math::svd::Svd;
    use proptest::prelude::*;
    use rand::Rng as _;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_bf_matrix(rng: &mut impl rand::Rng, nt: usize, nss: usize) -> CMatrix {
        let unitary = random_unitary(nt, || {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        unitary.first_columns(nss)
    }

    #[test]
    fn angle_counts_match_standard_table() {
        // Known angle counts from the 802.11 standard (Nt x Nc -> number of angles):
        assert_eq!(total_angles(2, 1), 2);
        assert_eq!(total_angles(2, 2), 2);
        assert_eq!(total_angles(3, 1), 4);
        assert_eq!(total_angles(3, 2), 6);
        assert_eq!(total_angles(3, 3), 6);
        assert_eq!(total_angles(4, 1), 6);
        assert_eq!(total_angles(4, 2), 10);
        assert_eq!(total_angles(4, 4), 12);
        assert_eq!(total_angles(8, 8), 56);
    }

    #[test]
    fn decompose_reconstruct_roundtrip_square() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for nt in 2..=4 {
            let v = random_bf_matrix(&mut rng, nt, nt);
            let angles = GivensAngles::decompose(&v).unwrap();
            let rebuilt = angles.reconstruct();
            let canonical = canonicalize_column_phases(&v);
            let err = canonical.sub(&rebuilt).max_abs();
            assert!(err < 1e-9, "nt={nt} reconstruction error {err}");
        }
    }

    #[test]
    fn decompose_reconstruct_roundtrip_tall() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for (nt, nss) in [
            (2usize, 1usize),
            (3, 1),
            (3, 2),
            (4, 1),
            (4, 2),
            (4, 3),
            (8, 4),
        ] {
            let v = random_bf_matrix(&mut rng, nt, nss);
            let angles = GivensAngles::decompose(&v).unwrap();
            assert_eq!(angles.phi.len(), angle_pairs(nt, nss));
            assert_eq!(angles.psi.len(), angle_pairs(nt, nss));
            let rebuilt = angles.reconstruct();
            let canonical = canonicalize_column_phases(&v);
            let err = canonical.sub(&rebuilt).max_abs();
            assert!(err < 1e-9, "{nt}x{nss} reconstruction error {err}");
        }
    }

    #[test]
    fn reconstruction_preserves_orthonormality() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let v = random_bf_matrix(&mut rng, 4, 2);
        let rebuilt = GivensAngles::decompose(&v).unwrap().reconstruct();
        assert!(rebuilt.is_unitary_columns(1e-9));
    }

    #[test]
    fn works_on_svd_beamforming_matrices() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let h = CMatrix::from_fn(3, 3, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let v = Svd::compute(&h).beamforming_matrix(1);
        let angles = GivensAngles::decompose(&v).unwrap();
        let rebuilt = angles.reconstruct();
        let canonical = canonicalize_column_phases(&v);
        assert!(canonical.sub(&rebuilt).max_abs() < 1e-9);
    }

    #[test]
    fn beamforming_equivalence_of_reconstruction() {
        // |h^H v| must equal |h^H ṽ| for any channel row h: the per-column phase
        // removed by the decomposition does not affect beamforming gain.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let h = CMatrix::from_fn(2, 3, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let v = Svd::compute(&h).beamforming_matrix(1);
        let rebuilt = GivensAngles::decompose(&v).unwrap().reconstruct();
        let gain_v = h.matmul(&v).frobenius_norm();
        let gain_rebuilt = h.matmul(&rebuilt).frobenius_norm();
        assert!((gain_v - gain_rebuilt).abs() < 1e-9);
    }

    #[test]
    fn psi_angles_in_first_quadrant() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let v = random_bf_matrix(&mut rng, 4, 2);
        let angles = GivensAngles::decompose(&v).unwrap();
        for &psi in &angles.psi {
            assert!((0.0..=std::f64::consts::FRAC_PI_2 + 1e-12).contains(&psi));
        }
        for &phi in &angles.phi {
            assert!((0.0..2.0 * std::f64::consts::PI + 1e-12).contains(&phi));
        }
    }

    #[test]
    fn wide_matrix_is_rejected() {
        let v = CMatrix::zeros(1, 2);
        assert!(matches!(
            GivensAngles::decompose(&v),
            Err(BfiError::InvalidShape(_))
        ));
    }

    #[test]
    fn single_antenna_identity() {
        // Nt = 1, Nss = 1: no angles at all, reconstruction is the 1x1 identity.
        let v = CMatrix::from_fn(1, 1, |_, _| Complex64::cis(0.7));
        let angles = GivensAngles::decompose(&v).unwrap();
        assert_eq!(angles.phi.len() + angles.psi.len(), 0);
        let rebuilt = angles.reconstruct();
        assert!((rebuilt[(0, 0)] - Complex64::ONE).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_roundtrip_random_unitaries(nt in 2usize..5, seed in 0u64..500) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let nss = 1 + (seed as usize % nt);
            let v = random_bf_matrix(&mut rng, nt, nss);
            let angles = GivensAngles::decompose(&v).unwrap();
            let rebuilt = angles.reconstruct();
            let canonical = canonicalize_column_phases(&v);
            prop_assert!(canonical.sub(&rebuilt).max_abs() < 1e-8);
        }

        #[test]
        fn prop_angle_count_formula(nt in 2usize..9, nss_seed in 1usize..9) {
            let nss = nss_seed.min(nt);
            let mut rng = ChaCha8Rng::seed_from_u64((nt * 13 + nss) as u64);
            let v = random_bf_matrix(&mut rng, nt, nss);
            let angles = GivensAngles::decompose(&v).unwrap();
            prop_assert_eq!(angles.phi.len() + angles.psi.len(), total_angles(nt, nss));
        }
    }
}
