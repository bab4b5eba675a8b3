//! Reusable scratch buffers for the decomposition kernels.
//!
//! Every hot loop in the SplitBeam pipeline runs the same small decompositions
//! (SVD, QR, LU solve) once per subcarrier, thousands of times per feedback
//! frame. The original kernels allocated fresh `Vec`s for every column they
//! touched; a [`Workspace`] owns all of that scratch so a caller that keeps one
//! workspace alive performs **zero heap allocations after warm-up** — each
//! buffer grows to its high-water mark on first use and is reused afterwards.
//!
//! The workspace is deliberately dumb: plain buffers, no lifetimes tied to the
//! matrices being decomposed. One workspace per thread is the intended usage
//! (see `dot11_bfi::engine::FeedbackEngine`).

use crate::complex::Complex64;

/// Scratch buffers shared by [`crate::svd::Svd`], [`crate::qr::Qr`] and
/// [`crate::solve`].
///
/// ```
/// use mimo_math::{CMatrix, Complex64, svd::Svd, workspace::Workspace};
/// let mut ws = Workspace::new();
/// let h = CMatrix::from_fn(3, 3, |r, c| Complex64::new((r + c) as f64, r as f64 - c as f64));
/// // Repeated decompositions reuse the same scratch.
/// for _ in 0..4 {
///     let svd = Svd::compute_with(&h, &mut ws);
///     let err = h.sub(&svd.reconstruct());
///     assert!(err.as_slice().iter().all(|z| z.abs() < 1e-9));
/// }
/// ```
#[derive(Debug)]
pub struct Workspace {
    /// Transposed working copy for Jacobi SVD / Gram–Schmidt QR: row `i` holds
    /// column `i` of the matrix being decomposed, contiguously.
    pub(crate) at: Vec<Complex64>,
    /// Transposed accumulation of the right singular vectors (SVD) or of the
    /// orthonormal basis (QR).
    pub(crate) vt: Vec<Complex64>,
    /// Column norms (singular values before sorting).
    pub(crate) norms: Vec<f64>,
    /// Sort permutation of the singular values.
    pub(crate) order: Vec<usize>,
    /// LU factor scratch for the linear solvers.
    pub(crate) lu: Vec<Complex64>,
    /// Right-hand-side scratch for the linear solvers.
    pub(crate) rhs: Vec<Complex64>,
    /// General matrix scratch (Gram matrices, intermediate products).
    pub(crate) ma: crate::matrix::CMatrix,
    /// Second general matrix scratch.
    pub(crate) mb: crate::matrix::CMatrix,
}

impl Default for Workspace {
    fn default() -> Self {
        Self {
            at: Vec::new(),
            vt: Vec::new(),
            norms: Vec::new(),
            order: Vec::new(),
            lu: Vec::new(),
            rhs: Vec::new(),
            ma: crate::matrix::CMatrix::zeros(1, 1),
            mb: crate::matrix::CMatrix::zeros(1, 1),
        }
    }
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace that already holds what an SVD of a `rows x cols` matrix
    /// needs ([`crate::svd::Svd::right_vectors_into`]): a decomposition of
    /// that shape, or a smaller one, requests no memory — so a thread handed
    /// one allocates nothing.
    pub fn for_svd(rows: usize, cols: usize) -> Self {
        let (k, len) = (rows.min(cols), rows.max(cols));
        let mut ws = Self::new();
        ws.at.reserve_exact(k * len);
        ws.vt.reserve_exact(k * k);
        ws.norms.reserve_exact(k);
        ws.order.reserve_exact(k);
        ws
    }

    /// Resizes `buf` to `len` entries without releasing capacity.
    pub(crate) fn grab(buf: &mut Vec<Complex64>, len: usize) -> &mut [Complex64] {
        buf.clear();
        buf.resize(len, Complex64::ZERO);
        &mut buf[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grab_reuses_capacity() {
        let mut ws = Workspace::new();
        Workspace::grab(&mut ws.at, 64);
        let cap = ws.at.capacity();
        Workspace::grab(&mut ws.at, 32);
        assert_eq!(ws.at.len(), 32);
        assert_eq!(ws.at.capacity(), cap, "shrinking must not reallocate");
        Workspace::grab(&mut ws.at, 64);
        assert_eq!(
            ws.at.capacity(),
            cap,
            "regrowing within capacity must not reallocate"
        );
    }
}
