//! Dense `f32` matrices for the neural-network engine.
//!
//! [`Matrix`] is row-major. Alongside the allocating convenience methods it
//! provides the write-into kernels the training/inference hot paths are built
//! on: [`Matrix::matmul_into`], the fused affine-plus-activation epilogue
//! [`Matrix::matmul_bias_act_into`], and the transpose-free product
//! [`Matrix::matmul_a_bt_into`] that replaces a full-matrix `transpose()`
//! allocation of the backward pass (the weight gradient never reaches a
//! matrix: the optimizer consumes it inside its kernel). All of them
//! dispatch through [`mimo_math::kernel`]: under the scalar backend they
//! accumulate in the same element order as the naive kernels, so results are
//! bit-identical; the AVX2+FMA backend uses 8-wide fused-multiply-add
//! microkernels and agrees within FMA rounding.

use crate::layer::Activation;
#[cfg(test)]
use mimo_math::kernel::GradScratch;
use mimo_math::kernel::{self, Kernel};
use rand::Rng;

/// A dense, row-major `f32` matrix.
///
/// ```
/// use neural::Matrix;
/// let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// let b = Matrix::from_rows(3, 1, &[1.0, 0.0, -1.0]);
/// let c = a.matmul(&b);
/// assert_eq!(c.as_slice(), &[-2.0, -2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Creates a single-row matrix from a vector (used for network inputs).
    pub fn row_vector(data: &[f32]) -> Self {
        Self::from_rows(1, data.len(), data)
    }

    /// Xavier/Glorot-uniform initialization, the standard choice for tanh MLPs.
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.gen_range(-limit..limit);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read-only view of the row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes this matrix to `rows x cols` with all entries zero, reusing the
    /// existing storage when it is large enough.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows x cols` for a caller that overwrites every element:
    /// existing storage is kept as-is (stale values and all) and only growth
    /// beyond the current length is zero-filled, skipping the full memset of
    /// [`Self::reshape_zeroed`]. The elements read stale until written:
    /// every caller must write all `rows * cols` entries before reading
    /// (the products here, and the fused tail's dequantized strip).
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `src` into this matrix, reshaping as needed and reusing storage.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self * rhs` written into `out` (reshaped, storage
    /// reused), using the runtime-selected kernel backend
    /// ([`mimo_math::kernel::selected`]).
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_into_with(rhs, out, kernel::selected());
    }

    /// [`Matrix::matmul_into`] with an explicit kernel backend — the seam the
    /// dispatch-parity tests and per-kernel benchmarks use. One
    /// [`kernel::gemm_f32`]: every output element accumulates its `k` terms
    /// in ascending order (**scalar**: rounded multiply-adds that skip
    /// exact-zero `self` terms, as the plain triple loop; **AVX2+FMA**: one
    /// fused-multiply-add chain), so single-row and batched calls stay
    /// bit-identical to each other, which the fused dequantize→tail path
    /// depends on. Products from 2^19 multiply-adds hand their column panels
    /// out to the pool; the result does not depend on who runs them.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into_with(&self, rhs: &Matrix, out: &mut Matrix, kern: Kernel) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape_for_overwrite(self.rows, rhs.cols);
        kernel::gemm_f32(
            kern,
            &self.data,
            &rhs.data,
            &mut out.data,
            self.cols,
            rhs.cols,
        );
    }

    /// Fused dense-layer forward kernel: `out = act(self * w + bias)`.
    ///
    /// The bias add and activation run as an epilogue over the accumulated
    /// product, eliminating the two intermediate matrices (and two full memory
    /// passes) of the naive `matmul` → `add_row_broadcast` → `apply` chain.
    /// The arithmetic per element is unchanged, so the result is bit-identical
    /// to that chain.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree or `bias` is not a `1 x w.cols()`
    /// row vector.
    pub fn matmul_bias_act_into(
        &self,
        w: &Matrix,
        bias: &Matrix,
        activation: Activation,
        out: &mut Matrix,
    ) {
        self.matmul_bias_act_into_with(w, bias, activation, out, kernel::selected());
    }

    /// [`Matrix::matmul_bias_act_into`] with an explicit kernel backend.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree or `bias` is not a `1 x w.cols()`
    /// row vector.
    pub fn matmul_bias_act_into_with(
        &self,
        w: &Matrix,
        bias: &Matrix,
        activation: Activation,
        out: &mut Matrix,
        kern: Kernel,
    ) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, w.cols, "bias width mismatch");
        self.matmul_into_with(w, out, kern);
        for row in out.data.chunks_exact_mut(w.cols) {
            for (o, &b) in row.iter_mut().zip(bias.data.iter()) {
                *o = activation.eval(*o + b);
            }
        }
    }

    /// Transpose-free product `self^T * rhs` written into `out`, using the
    /// runtime-selected kernel backend and a scratch of its own: the weight
    /// gradient in memory, for the tests' reference backward pass.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    #[cfg(test)]
    pub fn matmul_at_b_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_at_b_into_with(rhs, out, kernel::selected(), &mut GradScratch::default());
    }

    /// [`Matrix::matmul_at_b_into`] with an explicit kernel backend and
    /// caller-owned scratch.
    ///
    /// Replaces `self.transpose().matmul(rhs)` (the weight-gradient step of
    /// backpropagation) with [`kernel::gemm_at_b_f32`]: per output element
    /// one chain over the rows of `self` in ascending order that skips
    /// exact-zero `self` terms — bit-identical to the allocating chain under
    /// the scalar backend. The AVX2 backend transposes a row tile of `self`
    /// and packs `rhs` into `scratch` and runs the packed tail's register
    /// tile over them, writing each element once; from 2^19 multiply-adds
    /// the row tiles are handed out to the pool.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    #[cfg(test)]
    pub fn matmul_at_b_into_with(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        kern: Kernel,
        scratch: &mut GradScratch,
    ) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_at_b dimension mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape_for_overwrite(self.cols, rhs.cols);
        let dims = (self.cols, rhs.cols);
        kernel::gemm_at_b_f32(kern, &self.data, &rhs.data, &mut out.data, dims, scratch);
    }

    /// Transpose-free product `self * rhs^T` written into `out`, using the
    /// runtime-selected kernel backend.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_a_bt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_a_bt_into_with(rhs, out, kernel::selected());
    }

    /// [`Matrix::matmul_a_bt_into`] with an explicit kernel backend.
    ///
    /// Replaces `self.matmul(&rhs.transpose())` (the input-gradient step of
    /// backpropagation) with [`kernel::gemm_a_bt_f32`]: both operands are
    /// traversed along contiguous rows, a [`kernel::sdot`] per output entry —
    /// the same `k` accumulation order as the naive chain under the scalar
    /// backend, so results are bit-identical there; the AVX2 backend reduces
    /// with four independent vector accumulators. From 2^19 multiply-adds
    /// blocks of 16 output columns are handed out to the pool, each reading
    /// its rows of `rhs` once.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_a_bt_into_with(&self, rhs: &Matrix, out: &mut Matrix, kern: Kernel) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_a_bt dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape_for_overwrite(self.rows, rhs.rows);
        kernel::gemm_a_bt_f32(kern, &self.data, &rhs.data, &mut out.data, self.cols);
    }

    /// Sums the rows of `src` into `self` as a `1 x cols` row vector (reshaped).
    pub fn sum_rows_into(&mut self, src: &Matrix) {
        self.reshape_zeroed(1, src.cols);
        for r in 0..src.rows {
            for c in 0..src.cols {
                self.data[c] += src.data[r * src.cols + c];
            }
        }
    }

    /// Transpose: the tests' oracle for the fused transposed products.
    #[cfg(test)]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise difference.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds a row vector to every row of the matrix (bias broadcast).
    ///
    /// # Panics
    /// Panics if `bias.cols() != self.cols()` or `bias.rows() != 1`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Sums the rows into a single row vector: the tests' oracle for
    /// [`Matrix::sum_rows_into`].
    #[cfg(test)]
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Multiplies every entry by a scalar.
    pub fn scale(&self, k: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * k).collect(),
        }
    }

    /// Applies a function to every entry.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Entry accessor.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        assert_eq!(a.matmul(&b).as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn broadcast_and_sum_rows_are_inverse_shapes() {
        let x = Matrix::from_rows(3, 2, &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let bias = Matrix::from_rows(1, 2, &[10.0, -10.0]);
        let shifted = x.add_row_broadcast(&bias);
        assert_eq!(shifted.get(2, 0), 13.0);
        assert_eq!(shifted.get(2, 1), -7.0);
        let sums = x.sum_rows();
        assert_eq!(sums.as_slice(), &[6.0, 6.0]);
    }

    #[test]
    fn xavier_initialization_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let w = Matrix::xavier_uniform(100, 50, &mut rng);
        let limit = (6.0f32 / 150.0).sqrt();
        assert!(w.as_slice().iter().all(|&v| v.abs() <= limit));
        // Not all zero.
        assert!(w.as_slice().iter().any(|&v| v.abs() > 1e-6));
    }

    #[test]
    fn map_and_scale() {
        let a = Matrix::from_rows(1, 3, &[1.0, -2.0, 3.0]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Plain triple loop, ascending `k`, one rounded add per term — the
    /// arithmetic the scalar backend must reproduce bit-for-bit.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(r, k) * b.get(k, c);
                }
                out.as_mut_slice()[r * b.cols() + c] = acc;
            }
        }
        out
    }

    #[test]
    fn into_kernels_match_naive_on_edge_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        // Non-square and 1xN / Nx1 shapes. The scalar backend is the
        // bit-exactness reference, so the comparison pins it explicitly and
        // holds regardless of what SPLITBEAM_KERNEL dispatched.
        for (m, k, n) in [
            (1, 1, 1),
            (1, 5, 1),
            (5, 1, 5),
            (1, 3, 4),
            (4, 3, 1),
            (2, 7, 3),
        ] {
            let a = Matrix::xavier_uniform(m, k, &mut rng);
            let b = Matrix::xavier_uniform(k, n, &mut rng);
            let mut out = Matrix::zeros(1, 1);
            let mut reference = Matrix::zeros(1, 1);
            a.matmul_into_with(&b, &mut out, Kernel::Scalar);
            assert_eq!(out, naive_matmul(&a, &b), "matmul {m}x{k}*{k}x{n}");

            let at = Matrix::xavier_uniform(k, m, &mut rng);
            at.matmul_at_b_into_with(&b, &mut out, Kernel::Scalar, &mut GradScratch::default());
            at.transpose()
                .matmul_into_with(&b, &mut reference, Kernel::Scalar);
            assert_eq!(out, reference, "at_b {k}x{m}^T*{k}x{n}");

            let bt = Matrix::xavier_uniform(n, k, &mut rng);
            a.matmul_a_bt_into_with(&bt, &mut out, Kernel::Scalar);
            a.matmul_into_with(&bt.transpose(), &mut reference, Kernel::Scalar);
            assert_eq!(out, reference, "a_bt {m}x{k}*({n}x{k})^T");
        }
    }

    #[test]
    fn simd_backend_matches_scalar_within_tolerance() {
        use mimo_math::Backend;
        if Backend::host() < Backend::Avx2 {
            // Graceful fallback hosts: the dispatched path IS the scalar path.
            return;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        // The shapes the 2x2 / 3x3 / 4x4 configurations drive through the
        // dense layers (batch x in x out), plus edge cases.
        for (m, k, n) in [
            (1, 448, 56),
            (16, 448, 56),
            (12, 545, 4356),
            (1, 896, 112),
            (5, 1, 5),
            (3, 7, 33),
        ] {
            let a = Matrix::xavier_uniform(m, k, &mut rng);
            let b = Matrix::xavier_uniform(k, n, &mut rng);
            let mut scalar = Matrix::zeros(1, 1);
            let mut simd = Matrix::zeros(1, 1);
            a.matmul_into_with(&b, &mut scalar, Kernel::Scalar);
            a.matmul_into_with(&b, &mut simd, Kernel::Avx2Fma);
            let tol = 1e-5 * (k as f32).sqrt();
            for (s, v) in scalar.as_slice().iter().zip(simd.as_slice()) {
                assert!((s - v).abs() <= tol, "matmul drift {m}x{k}x{n}: {s} vs {v}");
            }

            let bt = Matrix::xavier_uniform(n, k, &mut rng);
            a.matmul_a_bt_into_with(&bt, &mut scalar, Kernel::Scalar);
            a.matmul_a_bt_into_with(&bt, &mut simd, Kernel::Avx2Fma);
            for (s, v) in scalar.as_slice().iter().zip(simd.as_slice()) {
                assert!((s - v).abs() <= tol, "a_bt drift {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn sum_rows_into_matches_sum_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let a = Matrix::xavier_uniform(4, 3, &mut rng);
        let mut out = Matrix::zeros(1, 1);
        out.sum_rows_into(&a);
        assert_eq!(out, a.sum_rows());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_into_kernels_match_naive(m in 1usize..6, k in 1usize..6, n in 1usize..6,
                                         seed in 0u64..300) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = Matrix::xavier_uniform(m, k, &mut rng);
            let b = Matrix::xavier_uniform(k, n, &mut rng);
            let mut out = Matrix::zeros(1, 1);
            a.matmul_into_with(&b, &mut out, Kernel::Scalar);
            prop_assert_eq!(&out, &naive_matmul(&a, &b));

            let at = Matrix::xavier_uniform(k, m, &mut rng);
            at.matmul_at_b_into_with(&b, &mut out, Kernel::Scalar, &mut GradScratch::default());
            prop_assert_eq!(&out, &naive_matmul(&at.transpose(), &b));

            let bt = Matrix::xavier_uniform(n, k, &mut rng);
            a.matmul_a_bt_into_with(&bt, &mut out, Kernel::Scalar);
            prop_assert_eq!(&out, &naive_matmul(&a, &bt.transpose()));
        }

        #[test]
        fn prop_simd_gemm_parity(m in 1usize..5, k in 1usize..40, n in 1usize..40,
                                 seed in 0u64..200) {
            use mimo_math::Backend;
            if Backend::host() >= Backend::Avx2 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let a = Matrix::xavier_uniform(m, k, &mut rng);
                let b = Matrix::xavier_uniform(k, n, &mut rng);
                let mut scalar = Matrix::zeros(1, 1);
                let mut simd = Matrix::zeros(1, 1);
                a.matmul_into_with(&b, &mut scalar, Kernel::Scalar);
                a.matmul_into_with(&b, &mut simd, Kernel::Avx2Fma);
                let tol = 1e-5 * (k as f32).sqrt();
                for (s, v) in scalar.as_slice().iter().zip(simd.as_slice()) {
                    prop_assert!((s - v).abs() <= tol);
                }
            }
        }

        #[test]
        fn prop_matmul_distributes_over_add(n in 1usize..5, seed in 0u64..200) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = Matrix::xavier_uniform(n, n, &mut rng);
            let b = Matrix::xavier_uniform(n, n, &mut rng);
            let c = Matrix::xavier_uniform(n, n, &mut rng);
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn prop_transpose_of_product(n in 1usize..5, seed in 0u64..200) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = Matrix::xavier_uniform(n, n, &mut rng);
            let b = Matrix::xavier_uniform(n, n, &mut rng);
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
