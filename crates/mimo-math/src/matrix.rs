//! Dense complex matrices.
//!
//! [`CMatrix`] stores a row-major `Vec<Complex64>`. Products come in two
//! flavors: the allocating convenience methods ([`CMatrix::matmul`],
//! [`CMatrix::hermitian`] + multiply) and the write-into kernels
//! ([`CMatrix::matmul_into`], [`CMatrix::hermitian_matmul_into`],
//! [`CMatrix::matvec_into`]) that reuse a caller-owned output buffer and run a
//! cache-blocked inner loop over the row-major storage — the building blocks of
//! the allocation-free per-subcarrier pipeline. The inner loops dispatch
//! through [`crate::kernel`]: under the scalar backend the blocked kernels
//! accumulate in exactly the same floating-point order as the naive reference
//! (`crate::reference::matmul_naive`), so results are bit-identical; the AVX2
//! backend agrees within FMA rounding.

use crate::complex::Complex64;
use crate::kernel::{self, Kernel};
use std::fmt;

/// A dense, row-major complex matrix.
///
/// ```
/// use mimo_math::{CMatrix, Complex64};
/// let eye = CMatrix::identity(3);
/// let a = CMatrix::from_fn(3, 3, |r, c| Complex64::new((r * 3 + c) as f64, 0.0));
/// assert_eq!(a.matmul(&eye), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Creates a `rows x cols` generalized identity (ones on the main diagonal).
    ///
    /// This corresponds to the `I_{c x d}` notation of the paper (Section III-A).
    pub fn generalized_identity(rows: usize, cols: usize) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows.min(cols) {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex64>(
        rows: usize,
        cols: usize,
        mut f: F,
    ) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix from a row-major slice of entries.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[Complex64]) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds a square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[Complex64]) -> Self {
        let n = entries.len();
        let mut m = Self::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Read-only access to the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Returns the entry at `(r, c)` or `None` when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<Complex64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Extracts column `c` as a vector of length `rows`.
    ///
    /// # Panics
    /// Panics if `c >= cols`.
    pub fn column(&self, c: usize) -> Vec<Complex64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Extracts row `r` as a vector of length `cols`.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> Vec<Complex64> {
        assert!(r < self.rows, "row index out of bounds");
        self.data[r * self.cols..(r + 1) * self.cols].to_vec()
    }

    /// Overwrites column `c` with `values`.
    ///
    /// # Panics
    /// Panics if `c >= cols` or `values.len() != rows`.
    pub fn set_column(&mut self, c: usize, values: &[Complex64]) {
        assert!(c < self.cols, "column index out of bounds");
        assert_eq!(values.len(), self.rows, "column length mismatch");
        for (r, &v) in values.iter().enumerate() {
            self[(r, c)] = v;
        }
    }

    /// Returns the sub-matrix formed by the first `n` columns.
    ///
    /// This is how the 802.11 beamforming matrix `V` is obtained from the full
    /// right-singular-vector matrix `Z` (the first `Nss` columns).
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > cols`.
    pub fn first_columns(&self, n: usize) -> CMatrix {
        assert!(n > 0 && n <= self.cols, "invalid number of columns");
        CMatrix::from_fn(self.rows, n, |r, c| self[(r, c)])
    }

    /// Hermitian (conjugate) transpose.
    pub fn hermitian(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Reshapes this matrix to `rows x cols` with all entries zero, reusing the
    /// existing storage when it is large enough.
    ///
    /// This is the buffer-recycling primitive behind the `_into` kernels: a
    /// long-lived output matrix reaches its high-water capacity once and is
    /// never reallocated afterwards.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, Complex64::ZERO);
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self * rhs` written into `out` (reshaped as needed, its
    /// storage reused), using the runtime-selected kernel backend
    /// ([`crate::kernel::selected`]).
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    pub fn matmul_into(&self, rhs: &CMatrix, out: &mut CMatrix) {
        self.matmul_into_with(rhs, out, kernel::selected());
    }

    /// [`CMatrix::matmul_into`] with an explicit kernel backend — the seam the
    /// dispatch-parity tests and per-kernel benchmarks use.
    ///
    /// The inner loop is blocked over the output columns so wide right-hand
    /// sides stream through cache line by line; for each output entry the
    /// `k`-accumulation order matches the naive triple loop exactly. Under
    /// [`Kernel::Scalar`] results are bit-identical to
    /// `reference::matmul_naive`; the AVX2 backend fuses the complex
    /// multiply-add and agrees within normal FMA rounding.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    pub fn matmul_into_with(&self, rhs: &CMatrix, out: &mut CMatrix, k: Kernel) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        const COL_BLOCK: usize = 128;
        let p = rhs.cols;
        out.reshape_zeroed(self.rows, p);
        for r in 0..self.rows {
            let a_row = &self.data[r * self.cols..(r + 1) * self.cols];
            let out_row = &mut out.data[r * p..(r + 1) * p];
            let mut cb = 0;
            while cb < p {
                let ce = (cb + COL_BLOCK).min(p);
                for (ki, &a) in a_row.iter().enumerate() {
                    if a.norm_sqr() == 0.0 {
                        continue;
                    }
                    let rhs_row = &rhs.data[ki * p + cb..ki * p + ce];
                    kernel::caxpy(k, a, rhs_row, &mut out_row[cb..ce]);
                }
                cb = ce;
            }
        }
    }

    /// Hermitian product `self^H * rhs` written into `out`, without
    /// materializing the conjugate transpose, using the runtime-selected
    /// kernel backend.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn hermitian_matmul_into(&self, rhs: &CMatrix, out: &mut CMatrix) {
        self.hermitian_matmul_into_with(rhs, out, kernel::selected());
    }

    /// [`CMatrix::hermitian_matmul_into`] with an explicit kernel backend.
    ///
    /// Equivalent to `self.hermitian().matmul(rhs)` — bit-identical under
    /// [`Kernel::Scalar`], since the accumulation order is preserved — but
    /// allocation-free and with a single pass over `self`'s storage.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn hermitian_matmul_into_with(&self, rhs: &CMatrix, out: &mut CMatrix, k: Kernel) {
        assert_eq!(
            self.rows, rhs.rows,
            "hermitian matmul dimension mismatch: ({}x{})^H * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        const COL_BLOCK: usize = 128;
        let p = rhs.cols;
        out.reshape_zeroed(self.cols, p);
        for r in 0..self.cols {
            let out_row = &mut out.data[r * p..(r + 1) * p];
            let mut cb = 0;
            while cb < p {
                let ce = (cb + COL_BLOCK).min(p);
                for ki in 0..self.rows {
                    let a = self.data[ki * self.cols + r].conj();
                    if a.norm_sqr() == 0.0 {
                        continue;
                    }
                    let rhs_row = &rhs.data[ki * p + cb..ki * p + ce];
                    kernel::caxpy(k, a, rhs_row, &mut out_row[cb..ce]);
                }
                cb = ce;
            }
        }
    }

    /// Hermitian product `self^H * rhs` (allocating convenience form of
    /// [`CMatrix::hermitian_matmul_into`]). A test helper.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    #[cfg(any(test, feature = "reference"))]
    pub fn hermitian_matmul(&self, rhs: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, rhs.cols);
        self.hermitian_matmul_into(rhs, &mut out);
        out
    }

    /// Matrix–vector product `self * v` written into `out` (cleared and
    /// refilled, its storage reused).
    ///
    /// # Panics
    /// Panics if `v.len() != cols`.
    pub fn matvec_into(&self, v: &[Complex64], out: &mut Vec<Complex64>) {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        out.clear();
        out.extend((0..self.rows).map(|r| {
            (0..self.cols)
                .map(|c| self[(r, c)] * v[c])
                .sum::<Complex64>()
        }));
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn sub(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Scales every entry by a real factor.
    pub fn scale_real(&self, k: f64) -> CMatrix {
        self.scale(Complex64::from_real(k))
    }

    /// Frobenius norm `sqrt(sum |a_ij|^2)`. A test helper.
    #[cfg(any(test, feature = "reference"))]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entry modulus, an infinity-like norm for the tests.
    #[cfg(any(test, feature = "reference"))]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Returns `true` when `self^H * self` is the identity within `tol`
    /// (i.e. the columns are orthonormal). A test helper.
    #[cfg(any(test, feature = "reference"))]
    pub fn is_unitary_columns(&self, tol: f64) -> bool {
        let gram = self.hermitian_matmul(self);
        let eye = CMatrix::identity(self.cols);
        gram.sub(&eye).max_abs() <= tol
    }

    /// Flattens the matrix to interleaved real components, real part first:
    /// `[re(a_00), im(a_00), re(a_01), ...]`.
    ///
    /// This is the "decouple real and complex components and treat them as a
    /// double-sized real matrix" step of Section IV-D, used to feed complex CSI
    /// into the real-valued DNNs.
    pub fn to_real_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.data.len() * 2);
        for z in &self.data {
            out.push(z.re);
            out.push(z.im);
        }
        out
    }

    /// Inverse of [`CMatrix::to_real_vec`]: rebuilds a `rows x cols` complex matrix
    /// from interleaved real components.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols * 2`.
    pub fn from_real_vec(rows: usize, cols: usize, data: &[f64]) -> CMatrix {
        assert_eq!(
            data.len(),
            rows * cols * 2,
            "interleaved data length mismatch"
        );
        let mut m = CMatrix::zeros(rows, cols);
        for i in 0..rows * cols {
            m.data[i] = Complex64::new(data[2 * i], data[2 * i + 1]);
        }
        m
    }
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix(rows: usize, cols: usize, seed: f64) -> CMatrix {
        CMatrix::from_fn(rows, cols, |r, c| {
            Complex64::new(
                (r as f64 + 1.0) * seed + c as f64,
                (c as f64 - r as f64) * 0.5,
            )
        })
    }

    #[test]
    fn identity_is_neutral() {
        let a = small_matrix(3, 3, 1.3);
        let eye = CMatrix::identity(3);
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    fn generalized_identity_shape() {
        let g = CMatrix::generalized_identity(4, 2);
        assert_eq!(g.shape(), (4, 2));
        assert_eq!(g[(0, 0)], Complex64::ONE);
        assert_eq!(g[(1, 1)], Complex64::ONE);
        assert_eq!(g[(2, 0)], Complex64::ZERO);
    }

    #[test]
    fn hermitian_is_conjugate_transpose() {
        let a = small_matrix(2, 3, 0.7);
        let h = a.hermitian();
        assert_eq!(h.shape(), (3, 2));
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(h[(c, r)], a[(r, c)].conj());
            }
        }
    }

    #[test]
    fn matmul_matches_manual_computation() {
        let a = CMatrix::from_rows(
            2,
            2,
            &[
                Complex64::new(1.0, 0.0),
                Complex64::new(0.0, 1.0),
                Complex64::new(2.0, 0.0),
                Complex64::new(1.0, 1.0),
            ],
        );
        let b = CMatrix::from_rows(
            2,
            2,
            &[
                Complex64::new(0.0, 1.0),
                Complex64::new(1.0, 0.0),
                Complex64::new(1.0, 0.0),
                Complex64::new(0.0, 0.0),
            ],
        );
        let c = a.matmul(&b);
        // c[0,0] = 1*(i) + i*1 = 2i
        assert_eq!(c[(0, 0)], Complex64::new(0.0, 2.0));
        // c[0,1] = 1*1 + i*0 = 1
        assert_eq!(c[(0, 1)], Complex64::new(1.0, 0.0));
    }

    #[test]
    fn matvec_agrees_with_matmul() {
        let a = small_matrix(3, 2, 0.9);
        let v = vec![Complex64::new(1.0, 1.0), Complex64::new(-2.0, 0.5)];
        let as_matrix = CMatrix::from_fn(2, 1, |r, _| v[r]);
        let mut mv = Vec::new();
        a.matvec_into(&v, &mut mv);
        let mm = a.matmul(&as_matrix);
        for r in 0..3 {
            assert!((mv[r] - mm[(r, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn real_vec_roundtrip() {
        let a = small_matrix(2, 3, 1.1);
        let flat = a.to_real_vec();
        assert_eq!(flat.len(), 12);
        let back = CMatrix::from_real_vec(2, 3, &flat);
        assert_eq!(a, back);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        let eye = CMatrix::identity(4);
        assert!((eye.frobenius_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn first_columns_extracts_prefix() {
        let a = small_matrix(3, 3, 1.0);
        let v = a.first_columns(2);
        assert_eq!(v.shape(), (3, 2));
        for r in 0..3 {
            for c in 0..2 {
                assert_eq!(v[(r, c)], a[(r, c)]);
            }
        }
    }

    #[test]
    #[should_panic]
    fn matmul_dimension_mismatch_panics() {
        let a = small_matrix(2, 3, 1.0);
        let b = small_matrix(2, 3, 1.0);
        let _ = a.matmul(&b);
    }

    #[test]
    fn identity_is_unitary() {
        assert!(CMatrix::identity(5).is_unitary_columns(1e-12));
        let not_unitary = small_matrix(3, 3, 2.0);
        assert!(!not_unitary.is_unitary_columns(1e-6));
    }

    #[test]
    fn into_kernels_match_naive_on_edge_shapes() {
        use crate::kernel::Kernel;
        use crate::reference::{hermitian_matmul_naive, matmul_naive};
        // Includes non-square and 1xN / Nx1 shapes. The scalar backend is the
        // bit-exactness reference; the comparison pins it explicitly so the
        // test holds regardless of what SPLITBEAM_KERNEL dispatched.
        for (m, k, n) in [
            (1, 1, 1),
            (1, 4, 1),
            (4, 1, 4),
            (1, 3, 5),
            (5, 3, 1),
            (3, 8, 2),
        ] {
            let a = small_matrix(m, k, 1.7);
            let b = small_matrix(k, n, 0.6);
            let mut out = CMatrix::zeros(1, 1);
            a.matmul_into_with(&b, &mut out, Kernel::Scalar);
            assert_eq!(out, matmul_naive(&a, &b), "matmul {m}x{k}*{k}x{n}");

            let ah = small_matrix(k, m, 0.9);
            let mut hout = CMatrix::zeros(1, 1);
            ah.hermitian_matmul_into_with(&b, &mut hout, Kernel::Scalar);
            assert_eq!(
                hout,
                hermitian_matmul_naive(&ah, &b),
                "hermitian {k}x{m}^H*{k}x{n}"
            );
        }
    }

    #[test]
    fn simd_backend_matches_scalar_within_tolerance() {
        use crate::kernel::{Backend, Kernel};
        if Backend::host() < Backend::Avx2 {
            // Graceful fallback hosts: the dispatched path IS the scalar path.
            return;
        }
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (4, 4, 4), (3, 8, 9), (8, 8, 130)] {
            let a = small_matrix(m, k, 1.3);
            let b = small_matrix(k, n, 0.8);
            let mut scalar = CMatrix::zeros(1, 1);
            let mut simd = CMatrix::zeros(1, 1);
            a.matmul_into_with(&b, &mut scalar, Kernel::Scalar);
            a.matmul_into_with(&b, &mut simd, Kernel::Avx2Fma);
            assert!(
                scalar.sub(&simd).max_abs() <= 1e-10 * scalar.max_abs().max(1.0),
                "matmul simd drift {m}x{k}x{n}"
            );

            let ah = small_matrix(k, m, 0.9);
            ah.hermitian_matmul_into_with(&b, &mut scalar, Kernel::Scalar);
            ah.hermitian_matmul_into_with(&b, &mut simd, Kernel::Avx2Fma);
            assert!(
                scalar.sub(&simd).max_abs() <= 1e-10 * scalar.max_abs().max(1.0),
                "hermitian simd drift {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn reshape_zeroed_reuses_storage() {
        let mut m = CMatrix::zeros(8, 8);
        let ptr = m.as_slice().as_ptr();
        m.reshape_zeroed(4, 4);
        assert_eq!(m.shape(), (4, 4));
        assert_eq!(
            m.as_slice().as_ptr(),
            ptr,
            "shrinking reshape must reuse the allocation"
        );
        assert!(m.as_slice().iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn matvec_into_reuses_buffer() {
        let a = small_matrix(3, 2, 1.1);
        let v = vec![Complex64::new(0.3, -0.2), Complex64::new(1.5, 0.4)];
        let mut out = Vec::new();
        a.matvec_into(&v, &mut out);
        let (first, cap) = (out.clone(), out.capacity());
        a.matvec_into(&v, &mut out);
        assert_eq!(out.capacity(), cap);
        assert_eq!(out, first);
    }

    proptest! {
        #[test]
        fn prop_matmul_into_matches_naive(m in 1usize..6, k in 1usize..6, n in 1usize..6,
                                          seed in 0.1f64..10.0) {
            let a = small_matrix(m, k, seed);
            let b = small_matrix(k, n, seed + 0.41);
            let mut out = CMatrix::zeros(1, 1);
            a.matmul_into_with(&b, &mut out, crate::kernel::Kernel::Scalar);
            prop_assert_eq!(out, crate::reference::matmul_naive(&a, &b));
        }

        #[test]
        fn prop_hermitian_matmul_into_matches_naive(m in 1usize..6, k in 1usize..6, n in 1usize..6,
                                                    seed in 0.1f64..10.0) {
            let a = small_matrix(m, k, seed);
            let b = small_matrix(m, n, seed + 0.17);
            let mut out = CMatrix::zeros(1, 1);
            a.hermitian_matmul_into_with(&b, &mut out, crate::kernel::Kernel::Scalar);
            prop_assert_eq!(out, crate::reference::hermitian_matmul_naive(&a, &b));
        }

        #[test]
        fn prop_simd_matmul_parity(m in 1usize..6, k in 1usize..9, n in 1usize..9,
                                   seed in 0.1f64..10.0) {
            use crate::kernel::{Backend, Kernel};
            if Backend::host() >= Backend::Avx2 {
                let a = small_matrix(m, k, seed);
                let b = small_matrix(k, n, seed + 0.29);
                let mut scalar = CMatrix::zeros(1, 1);
                let mut simd = CMatrix::zeros(1, 1);
                a.matmul_into_with(&b, &mut scalar, Kernel::Scalar);
                a.matmul_into_with(&b, &mut simd, Kernel::Avx2Fma);
                prop_assert!(scalar.sub(&simd).max_abs() <= 1e-9 * scalar.max_abs().max(1.0));
            }
        }

        #[test]
        fn prop_hermitian_of_product(n in 1usize..4, seed in 0.1f64..5.0) {
            // (AB)^H == B^H A^H
            let a = small_matrix(n, n, seed);
            let b = small_matrix(n, n, seed + 0.3);
            let lhs = a.matmul(&b).hermitian();
            let rhs = b.hermitian().matmul(&a.hermitian());
            prop_assert!(lhs.sub(&rhs).max_abs() < 1e-9);
        }

        #[test]
        fn prop_add_commutes(n in 1usize..5, seed in 0.1f64..5.0) {
            let a = small_matrix(n, n, seed);
            let b = small_matrix(n, n, seed * 2.0);
            prop_assert_eq!(a.add(&b), b.add(&a));
        }

        #[test]
        fn prop_frobenius_triangle_inequality(n in 1usize..5, s1 in 0.1f64..5.0, s2 in 0.1f64..5.0) {
            let a = small_matrix(n, n, s1);
            let b = small_matrix(n, n, s2);
            prop_assert!(a.add(&b).frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-9);
        }
    }
}
