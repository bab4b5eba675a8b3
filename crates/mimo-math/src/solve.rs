//! Linear solves, inverses and pseudo-inverses for small complex systems.
//!
//! The zero-forcing precoder of the BER link simulation needs
//! `W = H_eq (H_eq^H H_eq)^{-1}` (Section 5.2.1 of the paper); the Gram matrix
//! there is at most `Ns x Ns` with `Ns <= 8`, so partial-pivoting LU is exact
//! enough and trivially fast.

use crate::complex::Complex64;
use crate::kernel;
use crate::matrix::CMatrix;
use crate::workspace::Workspace;

/// Error produced by linear solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix is singular (or numerically so) and cannot be inverted.
    Singular,
    /// The operands have incompatible shapes.
    ShapeMismatch,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Singular => write!(f, "matrix is singular to working precision"),
            SolveError::ShapeMismatch => write!(f, "operand shapes are incompatible"),
        }
    }
}

impl std::error::Error for SolveError {}

/// The LU elimination and back-substitution core shared by the allocating and
/// workspace entry points.
///
/// `lu` must hold a row-major copy of the `n x n` system matrix and `rhs` a
/// row-major copy of the `n x m` right-hand side; both are destroyed. The
/// solution is written into `out` (reshaped, storage reused). The elimination
/// row updates dispatch through [`kernel::caxpy_sub`]; under the scalar
/// backend the sweep is the original partial-pivoting arithmetic, so results
/// are bit-identical to the historical allocating implementation.
fn lu_solve_core(
    lu: &mut [Complex64],
    rhs: &mut [Complex64],
    n: usize,
    m: usize,
    out: &mut CMatrix,
) -> Result<(), SolveError> {
    let kern = kernel::selected();
    for k in 0..n {
        // Pivot selection.
        let mut pivot_row = k;
        let mut pivot_mag = lu[k * n + k].abs();
        for r in (k + 1)..n {
            let mag = lu[r * n + k].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if pivot_mag < 1e-300 {
            return Err(SolveError::Singular);
        }
        if pivot_row != k {
            for c in 0..n {
                lu.swap(k * n + c, pivot_row * n + c);
            }
            for c in 0..m {
                rhs.swap(k * m + c, pivot_row * m + c);
            }
        }
        let pivot = lu[k * n + k];
        for r in (k + 1)..n {
            let factor = lu[r * n + k] / pivot;
            if factor.norm_sqr() == 0.0 {
                continue;
            }
            // Row r lies strictly after row k, so splitting at r's start
            // yields disjoint views of the pivot row and the updated row.
            let (lu_head, lu_tail) = lu.split_at_mut(r * n);
            kernel::caxpy_sub(
                kern,
                factor,
                &lu_head[k * n + k..(k + 1) * n],
                &mut lu_tail[k..n],
            );
            let (rhs_head, rhs_tail) = rhs.split_at_mut(r * m);
            kernel::caxpy_sub(
                kern,
                factor,
                &rhs_head[k * m..(k + 1) * m],
                &mut rhs_tail[..m],
            );
        }
    }

    // Back substitution.
    out.reshape_zeroed(n, m);
    for c in 0..m {
        for r in (0..n).rev() {
            let mut acc = rhs[r * m + c];
            for k in (r + 1)..n {
                acc -= lu[r * n + k] * out[(k, c)];
            }
            out[(r, c)] = acc / lu[r * n + r];
        }
    }
    Ok(())
}

/// Solves `A X = B` for a square `A` using LU decomposition with partial pivoting.
///
/// Allocates scratch and result internally; hot loops should hold a
/// [`Workspace`] and call [`solve_into`] instead.
///
/// # Errors
/// Returns [`SolveError::ShapeMismatch`] if `A` is not square or the row counts
/// differ, and [`SolveError::Singular`] when a pivot underflows.
pub fn solve(a: &CMatrix, b: &CMatrix) -> Result<CMatrix, SolveError> {
    let mut ws = Workspace::new();
    let mut out = CMatrix::zeros(1, 1);
    solve_into(a, b, &mut ws, &mut out)?;
    Ok(out)
}

/// Solves `A X = B` into `out`, drawing all scratch from `ws`.
///
/// After warm-up the call performs no heap allocation. Results are
/// bit-identical to [`solve`].
///
/// # Errors
/// Same contract as [`solve`].
pub fn solve_into(
    a: &CMatrix,
    b: &CMatrix,
    ws: &mut Workspace,
    out: &mut CMatrix,
) -> Result<(), SolveError> {
    let n = a.rows();
    if a.cols() != n || b.rows() != n {
        return Err(SolveError::ShapeMismatch);
    }
    let m = b.cols();
    let lu = Workspace::grab(&mut ws.lu, n * n);
    lu.copy_from_slice(a.as_slice());
    let rhs = Workspace::grab(&mut ws.rhs, n * m);
    rhs.copy_from_slice(b.as_slice());
    lu_solve_core(lu, rhs, n, m, out)
}

/// Inverts the square matrix `src` into `out` using the given LU scratch
/// buffers: copy into `lu`, identity right-hand side in `rhs`, one
/// [`lu_solve_core`] pass. Shared by every `_into` entry point that needs an
/// inverse so the scratch-setup sequence exists exactly once.
fn invert_core(
    src: &CMatrix,
    lu: &mut Vec<Complex64>,
    rhs: &mut Vec<Complex64>,
    out: &mut CMatrix,
) -> Result<(), SolveError> {
    let n = src.rows();
    let lu_buf = Workspace::grab(lu, n * n);
    lu_buf.copy_from_slice(src.as_slice());
    let rhs_buf = Workspace::grab(rhs, n * n);
    for i in 0..n {
        rhs_buf[i * n + i] = Complex64::ONE;
    }
    lu_solve_core(lu_buf, rhs_buf, n, n, out)
}

/// [`inverse_into`] with a fresh workspace: the tests' form.
#[cfg(test)]
pub fn inverse(a: &CMatrix) -> Result<CMatrix, SolveError> {
    let mut ws = Workspace::new();
    let mut out = CMatrix::zeros(1, 1);
    inverse_into(a, &mut ws, &mut out)?;
    Ok(out)
}

/// Inverse of a square complex matrix into `out`, drawing scratch from `ws`:
/// the tests' oracle (the product path inverts through
/// [`zf_pseudo_inverse_into`] and [`mmse_filter_into`]).
///
/// The identity right-hand side is materialized directly in the workspace, so
/// the call performs no heap allocation after warm-up.
///
/// # Errors
/// Returns [`SolveError::Singular`] for singular inputs and
/// [`SolveError::ShapeMismatch`] for non-square inputs.
#[cfg(test)]
pub fn inverse_into(a: &CMatrix, ws: &mut Workspace, out: &mut CMatrix) -> Result<(), SolveError> {
    if a.cols() != a.rows() {
        return Err(SolveError::ShapeMismatch);
    }
    invert_core(a, &mut ws.lu, &mut ws.rhs, out)
}

/// [`zf_pseudo_inverse_into`] with a fresh workspace: the tests' form.
#[cfg(test)]
pub fn zf_pseudo_inverse(a: &CMatrix) -> Result<CMatrix, SolveError> {
    let mut ws = Workspace::new();
    let mut out = CMatrix::zeros(1, 1);
    zf_pseudo_inverse_into(a, &mut ws, &mut out)?;
    Ok(out)
}

/// Right Moore–Penrose style pseudo-inverse used by the zero-forcing precoder:
/// `pinv(A) = A (A^H A)^{-1}` for a tall full-column-rank `A` — note this is the
/// *paper's* ZF expression `W = H_eq (H_eq^H H_eq)^{-1}` applied verbatim —
/// into `out`, drawing every intermediate (Gram matrix, its inverse, LU
/// scratch) from `ws`.
///
/// This is the per-subcarrier precoder hot path: with a long-lived workspace
/// the whole computation allocates nothing after warm-up.
///
/// # Errors
/// Returns [`SolveError::Singular`] when `A^H A` is singular (rank-deficient `A`).
pub fn zf_pseudo_inverse_into(
    a: &CMatrix,
    ws: &mut Workspace,
    out: &mut CMatrix,
) -> Result<(), SolveError> {
    let Workspace {
        ma, mb, lu, rhs, ..
    } = ws;
    a.hermitian_matmul_into(a, ma);
    invert_core(ma, lu, rhs, mb)?;
    a.matmul_into(mb, out);
    Ok(())
}

/// Linear MMSE receive filter `(G^H G + sigma^2 I)^{-1} G^H` into `out`,
/// drawing every intermediate from `ws`.
///
/// `g` is the effective channel (`rx x streams`); the regularizer is
/// `max(noise_variance, 1e-9)` to keep the Gram matrix invertible at very high
/// SNR. This is the per-subcarrier equalizer hot path of the link simulator.
///
/// # Errors
/// Returns [`SolveError::Singular`] when the regularized Gram matrix is
/// numerically singular.
pub fn mmse_filter_into(
    g: &CMatrix,
    noise_variance: f64,
    ws: &mut Workspace,
    out: &mut CMatrix,
) -> Result<(), SolveError> {
    let Workspace {
        ma, mb, lu, rhs, ..
    } = ws;
    g.hermitian_matmul_into(g, ma);
    let n = ma.rows();
    for i in 0..n {
        ma[(i, i)] += Complex64::from_real(noise_variance.max(1e-9));
    }
    invert_core(ma, lu, rhs, mb)?;
    // out = inv * G^H, computed without materializing G^H:
    // out[r, c] = sum_k inv[r, k] * conj(g[c, k]) — a conjugated dot product
    // of two contiguous rows, dispatched through the kernel backend.
    let kern = kernel::selected();
    out.reshape_zeroed(n, g.rows());
    for r in 0..n {
        let inv_row = &mb.as_slice()[r * n..(r + 1) * n];
        for c in 0..g.rows() {
            let g_row = &g.as_slice()[c * n..(c + 1) * n];
            out[(r, c)] = kernel::cdotc(kern, inv_row, g_row);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_matrix(rng: &mut impl rand::Rng, m: usize, n: usize) -> CMatrix {
        CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = random_matrix(&mut rng, 4, 4);
        let x_true = random_matrix(&mut rng, 4, 2);
        let b = a.matmul(&x_true);
        let x = solve(&a, &b).expect("solvable");
        assert!(x.sub(&x_true).max_abs() < 1e-9);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let mut rng = StdRng::seed_from_u64(19);
        for n in 1..=5 {
            let a = random_matrix(&mut rng, n, n);
            let inv = inverse(&a).expect("invertible with overwhelming probability");
            let prod = a.matmul(&inv);
            assert!(prod.sub(&CMatrix::identity(n)).max_abs() < 1e-8, "n={n}");
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = CMatrix::from_fn(2, 2, |_, _| Complex64::ONE);
        assert_eq!(inverse(&a).unwrap_err(), SolveError::Singular);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = CMatrix::zeros(2, 3);
        assert_eq!(inverse(&a).unwrap_err(), SolveError::ShapeMismatch);
        let b = CMatrix::zeros(3, 1);
        let sq = CMatrix::identity(2);
        assert_eq!(solve(&sq, &b).unwrap_err(), SolveError::ShapeMismatch);
    }

    #[test]
    fn zf_pinv_inverts_square_matrices() {
        // For an invertible square A, A (A^H A)^{-1} = A^{-H}; check A^H * pinv = I.
        let mut rng = StdRng::seed_from_u64(23);
        let a = random_matrix(&mut rng, 3, 3);
        let w = zf_pseudo_inverse(&a).expect("full rank");
        let prod = a.hermitian().matmul(&w);
        assert!(prod.sub(&CMatrix::identity(3)).max_abs() < 1e-8);
    }

    #[test]
    fn zf_pinv_zero_forces_tall_matrix() {
        // For tall full-rank A (m x n, m > n), A^H * (A (A^H A)^{-1}) = I_n.
        let mut rng = StdRng::seed_from_u64(29);
        let a = random_matrix(&mut rng, 5, 3);
        let w = zf_pseudo_inverse(&a).expect("full column rank");
        let prod = a.hermitian().matmul(&w);
        assert!(prod.sub(&CMatrix::identity(3)).max_abs() < 1e-8);
    }

    #[test]
    fn workspace_variants_match_allocating_versions() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut ws = Workspace::new();
        let mut out = CMatrix::zeros(1, 1);
        for n in 1..=5 {
            let a = random_matrix(&mut rng, n, n);
            let b = random_matrix(&mut rng, n, 2);
            solve_into(&a, &b, &mut ws, &mut out).unwrap();
            assert_eq!(out, solve(&a, &b).unwrap(), "solve n={n}");
            inverse_into(&a, &mut ws, &mut out).unwrap();
            assert_eq!(out, inverse(&a).unwrap(), "inverse n={n}");
            let tall = random_matrix(&mut rng, n + 2, n);
            zf_pseudo_inverse_into(&tall, &mut ws, &mut out).unwrap();
            assert_eq!(out, zf_pseudo_inverse(&tall).unwrap(), "zf n={n}");
        }
    }

    #[test]
    fn mmse_filter_matches_composed_expression() {
        let mut rng = StdRng::seed_from_u64(37);
        let g = random_matrix(&mut rng, 4, 2);
        let mut ws = Workspace::new();
        let mut out = CMatrix::zeros(1, 1);
        mmse_filter_into(&g, 0.01, &mut ws, &mut out).unwrap();
        let gram = g.hermitian().matmul(&g);
        let regularized = gram.add(&CMatrix::identity(2).scale_real(0.01));
        let expect = inverse(&regularized).unwrap().matmul(&g.hermitian());
        assert!(out.sub(&expect).max_abs() < 1e-10);
        assert_eq!(out.shape(), (2, 4));
    }

    #[test]
    fn error_display_strings() {
        assert!(format!("{}", SolveError::Singular).contains("singular"));
        assert!(format!("{}", SolveError::ShapeMismatch).contains("shape"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_solve_consistency(n in 1usize..5, seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, n, n);
            let b = random_matrix(&mut rng, n, 1);
            if let Ok(x) = solve(&a, &b) {
                let residual = a.matmul(&x).sub(&b).max_abs();
                prop_assert!(residual < 1e-7);
            }
        }

        #[test]
        fn prop_inverse_involution(n in 1usize..5, seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, n, n);
            if let Ok(inv) = inverse(&a) {
                if let Ok(back) = inverse(&inv) {
                    prop_assert!(back.sub(&a).max_abs() < 1e-6);
                }
            }
        }
    }
}
