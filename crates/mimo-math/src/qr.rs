//! QR decomposition of complex matrices via modified Gram–Schmidt.
//!
//! The reproduction uses QR mostly as a verification tool (orthonormality of
//! reconstructed beamforming matrices, conditioning checks in tests) and to
//! build random unitary matrices for synthetic channels.

use crate::complex::Complex64;
use crate::matrix::CMatrix;
use crate::workspace::Workspace;

/// Thin QR decomposition `A = Q * R` with `Q` having orthonormal columns and
/// `R` upper triangular.
///
/// ```
/// use mimo_math::{CMatrix, Complex64, qr::Qr};
/// let a = CMatrix::from_fn(3, 2, |r, c| Complex64::new((r + 1) as f64, c as f64));
/// let qr = Qr::compute(&a);
/// let err = a.sub(&qr.q.matmul(&qr.r));
/// assert!(err.as_slice().iter().all(|z| z.abs() < 1e-10));
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// `m x k` matrix with orthonormal columns, `k = min(m, n)`.
    pub q: CMatrix,
    /// `k x n` upper-triangular factor.
    pub r: CMatrix,
}

impl Qr {
    /// Computes the thin QR factorization using modified Gram–Schmidt with a
    /// single re-orthogonalization pass (sufficient for the small, well-scaled
    /// matrices used in this workspace).
    ///
    /// Allocates a fresh [`Workspace`] internally; hot loops should hold one
    /// workspace and call [`Qr::compute_with`] instead.
    pub fn compute(a: &CMatrix) -> Qr {
        Qr::compute_with(a, &mut Workspace::new())
    }

    /// Computes the thin QR factorization reusing the scratch buffers in `ws`.
    ///
    /// The working columns and the growing orthonormal basis live in the
    /// workspace as contiguous rows of a transposed copy, so the
    /// orthogonalization sweeps allocate nothing; only the returned `Q`/`R`
    /// factors are fresh allocations.
    pub fn compute_with(a: &CMatrix, ws: &mut Workspace) -> Qr {
        let (m, n) = a.shape();
        let k = m.min(n);
        let mut q = CMatrix::zeros(m, k);
        let mut r = CMatrix::zeros(k, n);

        // Transposed working copy: row j of `at` is column j of `a`; row i of
        // `qt` becomes column i of Q.
        let at = Workspace::grab(&mut ws.at, n * m);
        for (j, row) in at.chunks_exact_mut(m).enumerate() {
            for (t, slot) in row.iter_mut().enumerate() {
                *slot = a[(t, j)];
            }
        }
        let qt = Workspace::grab(&mut ws.vt, k * m);

        for j in 0..n {
            if j < k {
                // Orthogonalize column j against all previous q columns (twice for stability).
                for _pass in 0..2 {
                    for i in 0..j.min(k) {
                        let qi = &qt[i * m..(i + 1) * m];
                        let col_j = &at[j * m..(j + 1) * m];
                        let proj: Complex64 = qi
                            .iter()
                            .zip(col_j.iter())
                            .map(|(qv, av)| qv.conj() * *av)
                            .sum();
                        r[(i, j)] += proj;
                        let col_j = &mut at[j * m..(j + 1) * m];
                        for (slot, &qv) in col_j.iter_mut().zip(qi.iter()) {
                            let sub = qv * proj;
                            *slot -= sub;
                        }
                    }
                }
                let col_j = &at[j * m..(j + 1) * m];
                let norm: f64 = col_j.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
                r[(j, j)] = Complex64::from_real(norm);
                let q_row = &mut qt[j * m..(j + 1) * m];
                if norm > 1e-300 {
                    for (slot, &z) in q_row.iter_mut().zip(col_j.iter()) {
                        *slot = z / norm;
                    }
                } else {
                    // Deficient column: use a canonical basis vector orthogonal "enough";
                    // the corresponding R entry is zero so the product is unaffected.
                    q_row.fill(Complex64::ZERO);
                    q_row[j.min(m - 1)] = Complex64::ONE;
                }
            } else {
                // Extra columns of a wide matrix only contribute to R.
                for i in 0..k {
                    let qi = &qt[i * m..(i + 1) * m];
                    let col_j = &at[j * m..(j + 1) * m];
                    let proj: Complex64 = qi
                        .iter()
                        .zip(col_j.iter())
                        .map(|(qv, av)| qv.conj() * *av)
                        .sum();
                    r[(i, j)] = proj;
                }
            }
        }

        for i in 0..k {
            for t in 0..m {
                q[(t, i)] = qt[i * m + t];
            }
        }
        Qr { q, r }
    }

    /// Reconstructs `Q * R`.
    pub fn reconstruct(&self) -> CMatrix {
        self.q.matmul(&self.r)
    }
}

/// Builds a random `n x n` unitary matrix by orthonormalizing a matrix with
/// entries drawn from `sampler`. A test helper.
///
/// The caller provides the scalar sampler so the crate stays agnostic of any
/// particular RNG; a Gaussian sampler yields Haar-like unitary matrices.
#[cfg(any(test, feature = "reference"))]
pub fn random_unitary<F: FnMut() -> Complex64>(n: usize, mut sampler: F) -> CMatrix {
    let a = CMatrix::from_fn(n, n, |_, _| sampler());
    let qr = Qr::compute(&a);
    qr.q
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_matrix(rng: &mut impl rand::Rng, m: usize, n: usize) -> CMatrix {
        CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    #[test]
    fn qr_reconstructs_square() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 4, 4);
        let qr = Qr::compute(&a);
        assert!(a.sub(&qr.reconstruct()).frobenius_norm() < 1e-10);
        assert!(qr.q.is_unitary_columns(1e-10));
    }

    #[test]
    fn qr_reconstructs_tall() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_matrix(&mut rng, 6, 3);
        let qr = Qr::compute(&a);
        assert_eq!(qr.q.shape(), (6, 3));
        assert_eq!(qr.r.shape(), (3, 3));
        assert!(a.sub(&qr.reconstruct()).frobenius_norm() < 1e-10);
    }

    #[test]
    fn qr_reconstructs_wide() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_matrix(&mut rng, 2, 5);
        let qr = Qr::compute(&a);
        assert_eq!(qr.q.shape(), (2, 2));
        assert_eq!(qr.r.shape(), (2, 5));
        assert!(a.sub(&qr.reconstruct()).frobenius_norm() < 1e-10);
    }

    #[test]
    fn r_is_upper_triangular() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random_matrix(&mut rng, 5, 5);
        let qr = Qr::compute(&a);
        for r in 0..5 {
            for c in 0..r {
                assert!(qr.r[(r, c)].abs() < 1e-10, "below-diagonal entry not zero");
            }
        }
    }

    #[test]
    fn random_unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(42);
        let u = random_unitary(4, || {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        assert!(u.is_unitary_columns(1e-10));
        // Also check rows: U U^H = I for square unitary.
        let prod = u.matmul(&u.hermitian());
        assert!(prod.sub(&CMatrix::identity(4)).max_abs() < 1e-10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_qr_reconstructs(m in 1usize..6, n in 1usize..6, seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, n);
            let qr = Qr::compute(&a);
            prop_assert!(a.sub(&qr.reconstruct()).frobenius_norm() < 1e-9);
        }

        #[test]
        fn prop_q_orthonormal(m in 2usize..6, seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, m);
            let qr = Qr::compute(&a);
            prop_assert!(qr.q.is_unitary_columns(1e-8));
        }
    }
}
