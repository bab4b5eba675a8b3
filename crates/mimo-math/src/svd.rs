//! Singular value decomposition of complex matrices.
//!
//! The decomposition is computed with the one-sided (Hestenes) Jacobi method:
//! columns of `A` are repeatedly rotated in pairs by unitary plane rotations
//! until they are mutually orthogonal. The accumulated rotations form the right
//! singular vectors `V`, the column norms are the singular values and the
//! normalized columns form `U`, so that `A = U * diag(S) * V^H`.
//!
//! One-sided Jacobi is a natural fit here: channel matrices in the SplitBeam
//! workload are tiny (at most 8 x 8 per subcarrier), the method is simple,
//! numerically robust and gives the right singular vectors — which is exactly
//! what the IEEE 802.11 beamforming feedback needs — without forming `A^H A`.
//!
//! # Performance
//!
//! The kernel operates on a *transposed* working copy held in a
//! [`Workspace`]: each column of `A` becomes a contiguous row, so the Jacobi
//! rotations sweep cache lines linearly and update both columns in place. With
//! a caller-provided workspace ([`Svd::compute_with`],
//! [`Svd::right_vectors_into`]) the per-subcarrier decomposition performs no
//! heap allocation after warm-up — the dominant cost of the original
//! column-extracting implementation (kept as
//! `crate::reference::svd_naive` for equivalence tests). The
//! floating-point operation order is identical to the reference, so results
//! are bit-exact.

use crate::complex::Complex64;
use crate::matrix::CMatrix;
use crate::workspace::Workspace;

/// Maximum number of Jacobi sweeps before giving up on further improvement.
pub(crate) const MAX_SWEEPS: usize = 64;

/// Relative off-diagonal tolerance at which a column pair is considered orthogonal.
pub(crate) const ORTHO_TOL: f64 = 1e-13;

/// Result of a singular value decomposition `A = U * diag(S) * V^H`.
///
/// Singular values are sorted in non-increasing order; `U` is `m x k` and `V`
/// is `n x k` with `k = min(m, n)` (thin SVD).
///
/// ```
/// use mimo_math::{CMatrix, Complex64, svd::Svd};
/// let a = CMatrix::from_fn(3, 2, |r, c| Complex64::new(r as f64 + 1.0, c as f64));
/// let svd = Svd::compute(&a);
/// assert_eq!(svd.u.shape(), (3, 2));
/// assert_eq!(svd.v.shape(), (2, 2));
/// assert!(svd.singular_values[0] >= svd.singular_values[1]);
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m x k`, orthonormal columns.
    pub u: CMatrix,
    /// Singular values in non-increasing order, length `k`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors, `n x k`, orthonormal columns.
    pub v: CMatrix,
}

/// Loads the Jacobi working copy into `ws`: row `i` of `ws.at` holds column `i`
/// of the (tall orientation of the) input, and `ws.vt` starts as the identity.
///
/// With `conj_rows == false` the input `a` itself is decomposed (requires
/// `m >= n`); with `conj_rows == true` the working copy holds the columns of
/// `A^H`, i.e. the conjugated rows of `a` (used for wide inputs). Returns
/// `(k, len)`: the number of columns being orthogonalized and their length.
fn load_transposed(ws: &mut Workspace, a: &CMatrix, conj_rows: bool) -> (usize, usize) {
    let (m, n) = a.shape();
    let (k, len) = if conj_rows { (m, n) } else { (n, m) };
    let at = Workspace::grab(&mut ws.at, k * len);
    if conj_rows {
        for (j, row) in at.chunks_exact_mut(len).enumerate() {
            for (i, slot) in row.iter_mut().enumerate() {
                *slot = a[(j, i)].conj();
            }
        }
    } else {
        for (i, row) in at.chunks_exact_mut(len).enumerate() {
            for (r, slot) in row.iter_mut().enumerate() {
                *slot = a[(r, i)];
            }
        }
    }
    let vt = Workspace::grab(&mut ws.vt, k * k);
    for i in 0..k {
        vt[i * k + i] = Complex64::ONE;
    }
    (k, len)
}

/// One-sided Jacobi sweeps over the transposed working copy in `ws`.
///
/// On return `ws.at` holds the rotated columns (rows of the buffer), `ws.vt`
/// the accumulated right singular vectors, `ws.norms` the column norms and
/// `ws.order` the non-increasing sort permutation. Scalar operations are
/// sequenced exactly like the reference implementation, so every intermediate
/// value is bit-identical.
fn jacobi_sweeps(ws: &mut Workspace, k: usize, len: usize) {
    let at = &mut ws.at[..k * len];
    let vt = &mut ws.vt[..k * k];

    for _sweep in 0..MAX_SWEEPS {
        let mut converged = true;
        for p in 0..k {
            for q in (p + 1)..k {
                let row_p = &at[p * len..(p + 1) * len];
                let row_q = &at[q * len..(q + 1) * len];
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = Complex64::ZERO;
                for (ap, aq) in row_p.iter().zip(row_q.iter()) {
                    alpha += ap.norm_sqr();
                    beta += aq.norm_sqr();
                    gamma += ap.conj() * *aq;
                }
                let gamma_abs = gamma.abs();
                if gamma_abs <= ORTHO_TOL * (alpha * beta).sqrt() || gamma_abs == 0.0 {
                    continue;
                }
                converged = false;

                // Remove the phase of gamma so the 2x2 problem becomes real,
                // then apply the classical Jacobi rotation.
                let phase = gamma / Complex64::from_real(gamma_abs);
                let zeta = (beta - alpha) / (2.0 * gamma_abs);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                let phase_conj = phase.conj();

                // Column update, in place on the two contiguous rows:
                //   new_p = c * a_p - s * conj(phase) * a_q
                //   new_q = s * phase * a_p + c * a_q
                let (head, tail) = at.split_at_mut(q * len);
                let row_p = &mut head[p * len..(p + 1) * len];
                let row_q = &mut tail[..len];
                for (ap, aq) in row_p.iter_mut().zip(row_q.iter_mut()) {
                    let (old_p, old_q) = (*ap, *aq);
                    *ap = old_p.scale(c) - (phase_conj * old_q).scale(s);
                    *aq = (phase * old_p).scale(s) + old_q.scale(c);
                }

                // Apply the same rotation to the accumulated V.
                let (head, tail) = vt.split_at_mut(q * k);
                let row_p = &mut head[p * k..(p + 1) * k];
                let row_q = &mut tail[..k];
                for (vp, vq) in row_p.iter_mut().zip(row_q.iter_mut()) {
                    let (old_p, old_q) = (*vp, *vq);
                    *vp = old_p.scale(c) - (phase_conj * old_q).scale(s);
                    *vq = (phase * old_p).scale(s) + old_q.scale(c);
                }
            }
        }
        if converged {
            break;
        }
    }

    // Column norms are the singular values; sort in non-increasing order.
    ws.norms.clear();
    ws.norms.extend(
        at.chunks_exact(len)
            .map(|row| row.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()),
    );
    ws.order.clear();
    ws.order.extend(0..k);
    let norms = &ws.norms;
    ws.order
        .sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());
}

/// Writes the sorted, normalized columns held in `ws.at` into `u` and the
/// sorted accumulated rotations in `ws.vt` into `v`.
fn assemble_factors(ws: &Workspace, k: usize, len: usize) -> (CMatrix, Vec<f64>, CMatrix) {
    let mut u = CMatrix::zeros(len, k);
    let mut v = CMatrix::zeros(k, k);
    let mut singular_values = Vec::with_capacity(k);
    for (new_idx, &old_idx) in ws.order[..k].iter().enumerate() {
        let sigma = ws.norms[old_idx];
        singular_values.push(sigma);
        let col = &ws.at[old_idx * len..(old_idx + 1) * len];
        if sigma > 1e-300 {
            for (r, &z) in col.iter().enumerate() {
                u[(r, new_idx)] = z / sigma;
            }
        } else {
            // Rank-deficient direction: leave a unit vector not colliding with
            // previous columns; exactness is irrelevant because sigma == 0.
            u[(new_idx.min(len - 1), new_idx)] = Complex64::ONE;
        }
        let vrow = &ws.vt[old_idx * k..(old_idx + 1) * k];
        for (r, &z) in vrow.iter().enumerate() {
            v[(r, new_idx)] = z;
        }
    }
    (u, singular_values, v)
}

impl Svd {
    /// Computes the thin SVD of `a` using one-sided Jacobi rotations.
    ///
    /// The routine always returns; for rank-deficient inputs the trailing
    /// singular values are (numerically) zero and the corresponding columns of
    /// `U` are completed to an arbitrary orthonormal set.
    ///
    /// Allocates a fresh [`Workspace`] internally; hot loops should hold one
    /// workspace and call [`Svd::compute_with`] instead.
    pub fn compute(a: &CMatrix) -> Svd {
        Svd::compute_with(a, &mut Workspace::new())
    }

    /// Computes the thin SVD reusing the scratch buffers in `ws`.
    ///
    /// Only the returned factors are allocated; all intermediate storage comes
    /// from the workspace. Results are bit-identical to [`Svd::compute`] (and
    /// to the naive reference implementation).
    pub fn compute_with(a: &CMatrix, ws: &mut Workspace) -> Svd {
        let (m, n) = a.shape();
        // Work on the tall orientation so every column lives in the larger space;
        // if the input is wide we decompose A^H = U' S V'^H and swap the factors.
        let wide = m < n;
        let (k, len) = load_transposed(ws, a, wide);
        jacobi_sweeps(ws, k, len);
        let (u, singular_values, v) = assemble_factors(ws, k, len);
        if wide {
            Svd {
                u: v,
                singular_values,
                v: u,
            }
        } else {
            Svd {
                u,
                singular_values,
                v,
            }
        }
    }

    /// Writes the first `nss` right singular vectors of `a` into `out`,
    /// reusing `ws` for every intermediate.
    ///
    /// This is the feedback hot path: the 802.11 beamformee only needs `V`'s
    /// leading columns, so forming and normalizing `U` is skipped entirely.
    /// Entries are bit-identical to
    /// `Svd::compute(a).beamforming_matrix(nss)`.
    ///
    /// # Panics
    /// Panics if `nss` is zero or exceeds `min(a.rows(), a.cols())`.
    pub fn right_vectors_into(a: &CMatrix, nss: usize, out: &mut CMatrix, ws: &mut Workspace) {
        let (m, n) = a.shape();
        let wide = m < n;
        let (k, len) = load_transposed(ws, a, wide);
        assert!(
            nss > 0 && nss <= k,
            "invalid number of right singular vectors"
        );
        jacobi_sweeps(ws, k, len);
        // V of the input is: the accumulated rotations for tall inputs, the
        // normalized rotated columns for wide inputs (factor swap).
        out.reshape_zeroed(n, nss);
        if wide {
            for (new_idx, &old_idx) in ws.order[..nss].iter().enumerate() {
                let sigma = ws.norms[old_idx];
                let col = &ws.at[old_idx * len..(old_idx + 1) * len];
                if sigma > 1e-300 {
                    for (r, &z) in col.iter().enumerate() {
                        out[(r, new_idx)] = z / sigma;
                    }
                } else {
                    out[(new_idx.min(len - 1), new_idx)] = Complex64::ONE;
                }
            }
        } else {
            for (new_idx, &old_idx) in ws.order[..nss].iter().enumerate() {
                let vrow = &ws.vt[old_idx * k..(old_idx + 1) * k];
                for (r, &z) in vrow.iter().enumerate() {
                    out[(r, new_idx)] = z;
                }
            }
        }
    }

    /// Reconstructs `U * diag(S) * V^H`, useful for validating the factorization.
    pub fn reconstruct(&self) -> CMatrix {
        let k = self.singular_values.len();
        let s = CMatrix::diag(
            &self
                .singular_values
                .iter()
                .map(|&x| Complex64::from_real(x))
                .collect::<Vec<_>>(),
        );
        debug_assert_eq!(self.u.cols(), k);
        self.u.matmul(&s).matmul(&self.v.hermitian())
    }

    /// Returns the beamforming matrix: the first `nss` right singular vectors.
    ///
    /// This mirrors the 802.11 definition where `V` is built from the first
    /// `Nss` columns of the right-singular-vector matrix `Z` of the channel.
    ///
    /// # Panics
    /// Panics if `nss` is zero or exceeds the number of singular vectors.
    pub fn beamforming_matrix(&self, nss: usize) -> CMatrix {
        self.v.first_columns(nss)
    }

    /// Effective numerical rank: the number of singular values above
    /// `tol * max_singular_value`.
    #[cfg(test)]
    pub fn rank(&self, tol: f64) -> usize {
        let max = self.singular_values.first().copied().unwrap_or(0.0);
        if max == 0.0 {
            return 0;
        }
        self.singular_values
            .iter()
            .filter(|&&s| s > tol * max)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::svd_naive;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_matrix(rng: &mut impl rand::Rng, m: usize, n: usize) -> CMatrix {
        CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    #[test]
    fn reconstruction_square() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in 1..=6 {
            let a = random_matrix(&mut rng, n, n);
            let svd = Svd::compute(&a);
            let err = a.sub(&svd.reconstruct()).frobenius_norm();
            assert!(err < 1e-9, "n={n}, err={err}");
        }
    }

    #[test]
    fn reconstruction_tall_and_wide() {
        let mut rng = StdRng::seed_from_u64(9);
        let tall = random_matrix(&mut rng, 6, 3);
        let svd = Svd::compute(&tall);
        assert!(tall.sub(&svd.reconstruct()).frobenius_norm() < 1e-9);
        assert_eq!(svd.u.shape(), (6, 3));
        assert_eq!(svd.v.shape(), (3, 3));

        let wide = random_matrix(&mut rng, 2, 5);
        let svd = Svd::compute(&wide);
        assert!(wide.sub(&svd.reconstruct()).frobenius_norm() < 1e-9);
        assert_eq!(svd.u.shape(), (2, 2));
        assert_eq!(svd.v.shape(), (5, 2));
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(&mut rng, 5, 5);
        let svd = Svd::compute(&a);
        for w in svd.singular_values.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.singular_values.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn factors_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_matrix(&mut rng, 4, 4);
        let svd = Svd::compute(&a);
        assert!(svd.u.is_unitary_columns(1e-9));
        assert!(svd.v.is_unitary_columns(1e-9));
    }

    #[test]
    fn rank_deficient_matrix() {
        // Two identical columns -> rank 1.
        let col = [
            Complex64::new(1.0, 0.5),
            Complex64::new(-0.3, 0.2),
            Complex64::new(0.9, -1.0),
        ];
        let a = CMatrix::from_fn(3, 2, |r, _| col[r]);
        let svd = Svd::compute(&a);
        assert_eq!(svd.rank(1e-9), 1);
        assert!(a.sub(&svd.reconstruct()).frobenius_norm() < 1e-9);
    }

    #[test]
    fn diagonal_matrix_singular_values() {
        let a = CMatrix::diag(&[
            Complex64::from_real(3.0),
            Complex64::from_real(1.0),
            Complex64::from_real(2.0),
        ]);
        let svd = Svd::compute(&a);
        let sv = &svd.singular_values;
        assert!((sv[0] - 3.0).abs() < 1e-10);
        assert!((sv[1] - 2.0).abs() < 1e-10);
        assert!((sv[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn beamforming_matrix_takes_first_columns() {
        let mut rng = StdRng::seed_from_u64(5);
        let h = random_matrix(&mut rng, 2, 3);
        let svd = Svd::compute(&h);
        let v1 = svd.beamforming_matrix(1);
        assert_eq!(v1.shape(), (3, 1));
        // The first right singular vector should have unit norm.
        let norm: f64 = v1.column(0).iter().map(|z| z.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_matrix_has_zero_rank() {
        let a = CMatrix::zeros(3, 3);
        let svd = Svd::compute(&a);
        assert_eq!(svd.rank(1e-9), 0);
        assert!(svd.singular_values.iter().all(|&s| s.abs() < 1e-12));
    }

    #[test]
    fn workspace_version_matches_naive_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut ws = Workspace::new();
        for (m, n) in [
            (1, 1),
            (2, 2),
            (4, 4),
            (8, 8),
            (6, 3),
            (1, 4),
            (4, 1),
            (2, 5),
        ] {
            let a = random_matrix(&mut rng, m, n);
            let fast = Svd::compute_with(&a, &mut ws);
            let naive = svd_naive(&a);
            assert_eq!(fast.u, naive.u, "{m}x{n} U differs");
            assert_eq!(fast.v, naive.v, "{m}x{n} V differs");
            assert_eq!(
                fast.singular_values, naive.singular_values,
                "{m}x{n} S differs"
            );
        }
    }

    #[test]
    fn right_vectors_into_matches_beamforming_matrix() {
        let mut rng = StdRng::seed_from_u64(101);
        let mut ws = Workspace::new();
        let mut out = CMatrix::zeros(1, 1);
        for (m, n, nss) in [
            (2, 2, 1),
            (3, 3, 2),
            (4, 4, 4),
            (6, 3, 2),
            (2, 5, 1),
            (1, 3, 1),
        ] {
            let a = random_matrix(&mut rng, m, n);
            Svd::right_vectors_into(&a, nss, &mut out, &mut ws);
            let expect = svd_naive(&a).beamforming_matrix(nss);
            assert_eq!(out, expect, "{m}x{n} nss={nss}");
        }
    }

    #[test]
    fn repeated_workspace_use_is_consistent() {
        // Reusing one workspace across shapes must not leak state between calls.
        let mut rng = StdRng::seed_from_u64(103);
        let mut ws = Workspace::new();
        let big = random_matrix(&mut rng, 8, 8);
        let small = random_matrix(&mut rng, 2, 2);
        let _ = Svd::compute_with(&big, &mut ws);
        let after_big = Svd::compute_with(&small, &mut ws);
        let fresh = Svd::compute(&small);
        assert_eq!(after_big.u, fresh.u);
        assert_eq!(after_big.v, fresh.v);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_svd_reconstructs(m in 1usize..5, n in 1usize..5, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, n);
            let svd = Svd::compute(&a);
            prop_assert!(a.sub(&svd.reconstruct()).frobenius_norm() < 1e-8);
        }

        #[test]
        fn prop_singular_values_match_frobenius(m in 1usize..5, n in 1usize..5, seed in 0u64..1000) {
            // sum(sigma_i^2) == ||A||_F^2
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, n);
            let svd = Svd::compute(&a);
            let sum_sq: f64 = svd.singular_values.iter().map(|s| s * s).sum();
            let fro = a.frobenius_norm();
            prop_assert!((sum_sq - fro * fro).abs() < 1e-8 * (1.0 + fro * fro));
        }

        #[test]
        fn prop_right_vectors_orthonormal(n in 1usize..5, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, n + 1, n);
            let svd = Svd::compute(&a);
            prop_assert!(svd.v.is_unitary_columns(1e-8));
        }

        #[test]
        fn prop_workspace_svd_equals_naive(m in 1usize..6, n in 1usize..6, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, n);
            let mut ws = Workspace::new();
            let fast = Svd::compute_with(&a, &mut ws);
            let naive = svd_naive(&a);
            prop_assert_eq!(fast.u, naive.u);
            prop_assert_eq!(fast.v, naive.v);
            prop_assert_eq!(fast.singular_values, naive.singular_values);
        }
    }
}
