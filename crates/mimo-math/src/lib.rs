//! Complex linear-algebra substrate for the SplitBeam reproduction.
//!
//! This crate provides the small, dependency-free numerical kernel every other
//! crate in the workspace builds on:
//!
//! * [`Complex64`] — a complex scalar with the usual arithmetic,
//! * [`CMatrix`] — a dense complex matrix with products, Hermitian transpose,
//!   norms and slicing,
//! * [`svd`] — a one-sided Jacobi singular value decomposition used to compute
//!   the IEEE 802.11 beamforming matrix `V` from a channel estimate `H`,
//! * [`qr`] — modified Gram–Schmidt QR used in tests and for orthonormality
//!   checks,
//! * [`solve`] — LU-based linear solves and inverses used by the zero-forcing
//!   precoder,
//! * [`kernel`] — the runtime-dispatched SIMD backend (`SPLITBEAM_KERNEL`)
//!   behind the matmul/solve inner loops here and the dense f32 kernels of the
//!   `neural` crate.
//!
//! # Example
//!
//! ```
//! use mimo_math::{CMatrix, Complex64, svd::Svd};
//!
//! // A 2x3 "channel" matrix.
//! let h = CMatrix::from_fn(2, 3, |r, c| Complex64::new((r + c) as f64, r as f64 - c as f64));
//! let svd = Svd::compute(&h);
//! let reconstructed = svd.reconstruct();
//! assert!(h.sub(&reconstructed).as_slice().iter().all(|z| z.abs() < 1e-9));
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod complex;
pub mod env;
pub mod kernel;
pub mod matrix;
pub mod qr;
#[cfg(any(test, feature = "reference"))]
pub mod reference;
pub mod solve;
pub mod svd;
pub mod workspace;

pub use complex::Complex64;
pub use kernel::int8::Int8Kernel;
pub use kernel::{Backend, Kernel, KernelChoice};
pub use matrix::CMatrix;
pub use workspace::Workspace;

/// Numerical tolerance used across the crate for "is approximately zero" checks.
pub const EPS: f64 = 1e-12;
