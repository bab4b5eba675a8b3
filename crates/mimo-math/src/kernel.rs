//! Runtime-dispatched SIMD kernel backend.
//!
//! Every hot inner loop of the workspace (complex matmul/axpy, the LU
//! elimination and MMSE filter of [`crate::solve`], the dense f32 GEMM of the
//! `neural` crate, and the fused dequantize→tail kernel of `splitbeam`) funnels
//! through the primitives in this module. Each primitive exists in two
//! implementations:
//!
//! * **scalar** — byte-for-byte the historical loops. Selecting
//!   [`Kernel::Scalar`] reproduces the pre-dispatch outputs bit-identically.
//! * **AVX2+FMA** — `core::arch::x86_64` vector code, selected at runtime only
//!   when the CPU reports both `avx2` and `fma`. FMA contracts the
//!   multiply-add, so results differ from scalar by normal rounding (the
//!   parity tests document max-abs tolerances); per output element the
//!   accumulation order is still ascending `k` with a single accumulator
//!   chain, which keeps *different call shapes* of the same kernel (one row at
//!   a time vs a whole batch, fused vs unfused) bit-identical to each other.
//!
//! # Selection
//!
//! The active kernel is resolved once and cached:
//!
//! 1. a programmatic override set via [`set_kernel`] wins,
//! 2. otherwise the `SPLITBEAM_KERNEL` environment variable is consulted
//!    (`scalar` forces the fallback, `auto` — or anything else, or unset —
//!    picks the best available),
//! 3. `auto` resolves to [`Kernel::Avx2Fma`] only when the host CPU supports
//!    AVX2 and FMA; on every other host it degrades to [`Kernel::Scalar`].
//!
//! Hot paths call [`selected`] once per kernel invocation (an atomic load) and
//! pass the result down; benchmarks and parity tests bypass the global state
//! entirely by passing an explicit [`Kernel`] to the primitives.
//!
//! The f32 tier has a second entry point for a right-hand side that is bound
//! once and reused — a tail layer's weights: [`packed`] panel-packs it at
//! bind time and multiplies with an `MR x NR` register-tile microkernel
//! (12x32 on AVX-512F, 6x16 on AVX2+FMA, picked by CPU detection) that fuses
//! bias and activation into its single store. It is the same numerics class
//! as [`Kernel::Avx2Fma`] — bit-identical to [`gemm_f32`] at every shape and
//! width — so it needs no selector of its own; [`gemm_f32`] keeps the
//! products without a bound right-hand side (training, the batch-1 head).
//! It and the rest of a training step — the weight and input gradients and
//! the optimizer updates — live in [`dense`], each handed out to the pool.
//!
//! A third tier lives in [`int8`]: integer `u8 x i8 -> i32` GEMM arms for
//! quantized tail weights (AMX `tdpbusd` → AVX-512 VNNI → AVX2 `maddubs` →
//! scalar reference, all bit-exact with each other), resolved by [`int8::selected_int8`] behind
//! the same override/environment seam, and packed at bind like the f32 tail.
//! [`tune`] holds the k-block of the row-major f32 arm, the only blocking
//! parameter left.

use crate::complex::Complex64;
use std::sync::atomic::{AtomicU8, Ordering};

/// Dispatches a run-time row count to the const-generic register tile of a
/// packed microkernel ([`packed`], [`int8`]); `tile::<_, FLAG>(..)` passes
/// one more const argument through.
#[cfg(target_arch = "x86_64")]
macro_rules! tile_by_rows {
    ($tile:ident::<_, $flag:literal> $args:tt, $mr:expr, [$($rows:literal)*]) => {
        match $mr {
            $($rows => $tile::<$rows, $flag> $args,)*
            _ => unreachable!("row tile taller than the register tile"),
        }
    };
    ($tile:ident $args:tt, $mr:expr, [$($rows:literal)*]) => {
        match $mr {
            $($rows => $tile::<$rows> $args,)*
            _ => unreachable!("row tile taller than the register tile"),
        }
    };
}

pub mod dense;
pub mod int8;
pub mod packed;
pub mod tune;

pub use dense::{
    adam_step, gemm_a_bt_f32, gemm_at_b_f32, gemm_f32, momentum_step, sgd_step, Adam, GradScratch,
};

/// What the caller asked for (environment variable or [`set_kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Pick the fastest backend the CPU supports.
    Auto,
    /// Force the scalar reference kernels (bit-identical to the pre-SIMD code).
    Scalar,
}

/// A concrete kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Plain scalar loops — always available, the bit-exactness reference.
    Scalar,
    /// AVX2 + FMA vector kernels (x86_64 only, runtime-detected).
    Avx2Fma,
}

impl Kernel {
    /// Stable lower-snake name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2Fma => "avx2_fma",
        }
    }
}

/// Cached resolution of [`selected`]: 0 = unresolved, 1 = scalar, 2 = AVX2+FMA.
static RESOLVED: AtomicU8 = AtomicU8::new(0);
/// Programmatic override: 0 = none (use the environment), 1 = auto, 2 = scalar.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Returns `true` when the host CPU supports both AVX2 and FMA.
///
/// Detection is delegated to `std::is_x86_feature_detected!`, which caches its
/// own answer; on non-x86_64 targets this is constant `false`.
pub fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Parses a `SPLITBEAM_KERNEL` value. Only `scalar` forces the fallback;
/// `auto`, the empty string, and unknown values all mean "best available", so
/// a typo can never silently disable correctness (scalar and SIMD agree within
/// tolerance) — it merely fails to pin the kernel.
fn parse_choice(value: &str) -> KernelChoice {
    if value.trim().eq_ignore_ascii_case("scalar") {
        KernelChoice::Scalar
    } else {
        KernelChoice::Auto
    }
}

/// The kernel choice currently in force: the programmatic override if one was
/// set, otherwise the `SPLITBEAM_KERNEL` environment variable (default `auto`).
pub fn requested() -> KernelChoice {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => KernelChoice::Auto,
        2 => KernelChoice::Scalar,
        _ => crate::env::raw("SPLITBEAM_KERNEL")
            .map(|v| parse_choice(&v))
            .unwrap_or(KernelChoice::Auto),
    }
}

/// Resolves a choice against the host CPU.
fn resolve(choice: KernelChoice) -> Kernel {
    match choice {
        KernelChoice::Scalar => Kernel::Scalar,
        KernelChoice::Auto => {
            if avx2_fma_available() {
                Kernel::Avx2Fma
            } else {
                Kernel::Scalar
            }
        }
    }
}

/// The kernel backend all dispatched hot paths use right now.
///
/// Resolved once (override → environment → CPU detection) and cached; a single
/// relaxed atomic load afterwards.
pub fn selected() -> Kernel {
    match RESOLVED.load(Ordering::Relaxed) {
        1 => Kernel::Scalar,
        2 => Kernel::Avx2Fma,
        _ => {
            let kernel = resolve(requested());
            RESOLVED.store(
                match kernel {
                    Kernel::Scalar => 1,
                    Kernel::Avx2Fma => 2,
                },
                Ordering::Relaxed,
            );
            kernel
        }
    }
}

/// Installs (or with `None` removes) a programmatic kernel override, replacing
/// whatever `SPLITBEAM_KERNEL` requested. Takes effect for all subsequent
/// dispatched calls in the process.
///
/// This is the programmatic form of the environment knob — benchmark drivers
/// use it to measure both backends in one process, and the bit-exactness suite
/// uses it to pin `scalar`. Note the override is process-global: concurrent
/// tests that flip it must serialize among themselves.
pub fn set_kernel(choice: Option<KernelChoice>) {
    OVERRIDE.store(
        match choice {
            None => 0,
            Some(KernelChoice::Auto) => 1,
            Some(KernelChoice::Scalar) => 2,
        },
        Ordering::Relaxed,
    );
    RESOLVED.store(0, Ordering::Relaxed);
    int8::reset_selected();
}

/// A report of how kernel dispatch resolved, for benchmark JSON and logs.
///
/// Besides the selected backends this records every CPU feature the dispatch
/// chain *inspects* — including detected-but-unselected ones — so a bench
/// JSON always explains why a tier was not taken on its host (e.g. AVX-512F
/// present but VNNI absent pins the int8 tier to `avx2_maddubs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchReport {
    /// What was requested (`auto` or `scalar`).
    pub requested: &'static str,
    /// The f32/complex backend actually in use.
    pub selected: &'static str,
    /// The arm the packed f32 GEMM ([`packed::gemm_f32_packed`], the served
    /// tail under `avx2_fma`) runs on: `avx512f_12x32` or `avx2_fma_6x16` by
    /// CPU detection, `scalar` when the scalar backend is selected and the
    /// tail stays on the row-major kernels.
    pub selected_packed: &'static str,
    /// The integer (quantized-weight) backend actually in use.
    pub selected_int8: &'static str,
    /// Whether the host CPU supports AVX2+FMA at all.
    pub avx2_fma_available: bool,
    /// Whether the host CPU reports AVX-512F (foundation).
    pub avx512f_available: bool,
    /// Whether the host CPU reports AVX-512BW.
    pub avx512bw_available: bool,
    /// Whether the full VNNI arm requirement (F+BW+VL+VNNI) is met.
    pub avx512_vnni_available: bool,
    /// Whether the AMX arm can run: `amx-tile` + `amx-int8` next to the VNNI
    /// requirement, and the operating system granted tile data.
    pub amx_int8_available: bool,
    /// Threads the packed GEMMs may hand their panels out to, the caller
    /// included: `available_parallelism` capped by `RAYON_NUM_THREADS`.
    /// Outputs do not depend on it.
    pub pool_threads: usize,
}

/// Snapshot of the current dispatch state.
pub fn dispatch_report() -> DispatchReport {
    DispatchReport {
        requested: match requested() {
            KernelChoice::Auto => "auto",
            KernelChoice::Scalar => "scalar",
        },
        selected: selected().name(),
        selected_packed: match selected() {
            Kernel::Scalar => Kernel::Scalar.name(),
            Kernel::Avx2Fma => packed::PackedWidth::detect().name(),
        },
        selected_int8: int8::selected_int8().name(),
        avx2_fma_available: avx2_fma_available(),
        avx512f_available: int8::avx512f_available(),
        avx512bw_available: int8::avx512bw_available(),
        avx512_vnni_available: int8::avx512_vnni_available(),
        amx_int8_available: int8::amx_int8_available(),
        pool_threads: rayon::current_num_threads(),
    }
}

// ---------------------------------------------------------------------------
// Complex f64 primitives (CMatrix products, LU elimination, MMSE filter).
// ---------------------------------------------------------------------------

/// `y += a * x` over complex slices.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn caxpy(kernel: Kernel, a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "caxpy length mismatch");
    match kernel {
        Kernel::Scalar => {
            for (o, &b) in y.iter_mut().zip(x.iter()) {
                *o += a * b;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proves AVX2+FMA are present, and the lengths
        // were asserted equal above — the target-feature fn's only contract.
        Kernel::Avx2Fma if avx2_fma_available() => unsafe { caxpy_avx2(a, x, y) },
        #[allow(unreachable_patterns)]
        _ => caxpy(Kernel::Scalar, a, x, y),
    }
}

/// `y -= a * x` over complex slices (the LU elimination update).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn caxpy_sub(kernel: Kernel, a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "caxpy_sub length mismatch");
    match kernel {
        Kernel::Scalar => {
            for (o, &b) in y.iter_mut().zip(x.iter()) {
                let sub = a * b;
                *o -= sub;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proves AVX2+FMA are present, and the lengths
        // were asserted equal above — the target-feature fn's only contract.
        Kernel::Avx2Fma if avx2_fma_available() => unsafe { caxpy_sub_avx2(a, x, y) },
        #[allow(unreachable_patterns)]
        _ => caxpy_sub(Kernel::Scalar, a, x, y),
    }
}

/// Conjugated dot product `sum_k x[k] * conj(y[k])` (the MMSE filter row).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn cdotc(kernel: Kernel, x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "cdotc length mismatch");
    match kernel {
        Kernel::Scalar => {
            let mut acc = Complex64::ZERO;
            for (&a, &b) in x.iter().zip(y.iter()) {
                acc += a * b.conj();
            }
            acc
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proves AVX2+FMA are present, and the lengths
        // were asserted equal above — the target-feature fn's only contract.
        Kernel::Avx2Fma if avx2_fma_available() => unsafe { cdotc_avx2(x, y) },
        #[allow(unreachable_patterns)]
        _ => cdotc(Kernel::Scalar, x, y),
    }
}

// ---------------------------------------------------------------------------
// Dense f32 primitives (the row-major products and optimizer updates live in
// `dense`).
// ---------------------------------------------------------------------------

/// Dot product `sum_k x[k] * y[k]` over f32 slices.
///
/// The scalar arm is the historical sequential accumulation; the AVX2 arm uses
/// four independent vector accumulators and a horizontal reduction (different
/// association, tolerance-tested).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn sdot(kernel: Kernel, x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "sdot length mismatch");
    match kernel {
        Kernel::Scalar => {
            let mut acc = 0.0f32;
            for (&a, &b) in x.iter().zip(y.iter()) {
                acc += a * b;
            }
            acc
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proves AVX2+FMA are present, and the lengths
        // were asserted equal above — the target-feature fn's only contract.
        Kernel::Avx2Fma if avx2_fma_available() => unsafe { sdot_avx2(x, y) },
        #[allow(unreachable_patterns)]
        _ => sdot(Kernel::Scalar, x, y),
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA implementations.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Complex64;
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_fmadd_pd, _mm256_fmadd_ps, _mm256_fmaddsub_pd,
        _mm256_loadu_pd, _mm256_loadu_ps, _mm256_mul_pd, _mm256_permute_pd, _mm256_set1_pd,
        _mm256_set1_ps, _mm256_set_pd, _mm256_setzero_pd, _mm256_setzero_ps, _mm256_storeu_pd,
        _mm256_storeu_ps, _mm256_sub_pd,
    };

    /// Complexes per 256-bit vector (2 × f64 re/im pairs).
    const CPV: usize = 2;

    /// Sums the four f64 lanes of a vector.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum_pd(v: __m256d) -> f64 {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), v);
            (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
        }
    }

    /// Computes the per-lane complex product `a * x` for one vector of two
    /// interleaved complexes: even lanes `ar*xr - ai*xi`, odd lanes
    /// `ar*xi + ai*xr` (the first product FMA-fused by `fmaddsub`).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn cmul_lanes(ar: __m256d, ai: __m256d, xv: __m256d) -> __m256d {
        let xswap = _mm256_permute_pd(xv, 0b0101);
        _mm256_fmaddsub_pd(ar, xv, _mm256_mul_pd(ai, xswap))
    }

    /// `y += a * x` (complex, interleaved f64). `Complex64` is `repr(C)`, so a
    /// complex slice is safely viewed as interleaved `re, im` f64 memory.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn caxpy_avx2(a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let ar = _mm256_set1_pd(a.re);
            let ai = _mm256_set1_pd(a.im);
            let pairs = x.len() / CPV * CPV;
            let xp = x.as_ptr().cast::<f64>();
            let yp = y.as_mut_ptr().cast::<f64>();
            let mut i = 0;
            while i < pairs {
                let xv = _mm256_loadu_pd(xp.add(2 * i));
                let yv = _mm256_loadu_pd(yp.add(2 * i));
                _mm256_storeu_pd(yp.add(2 * i), _mm256_add_pd(yv, cmul_lanes(ar, ai, xv)));
                i += CPV;
            }
            for k in pairs..x.len() {
                y[k] += a * x[k];
            }
        }
    }

    /// `y -= a * x` (complex, interleaved f64).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn caxpy_sub_avx2(a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let ar = _mm256_set1_pd(a.re);
            let ai = _mm256_set1_pd(a.im);
            let pairs = x.len() / CPV * CPV;
            let xp = x.as_ptr().cast::<f64>();
            let yp = y.as_mut_ptr().cast::<f64>();
            let mut i = 0;
            while i < pairs {
                let xv = _mm256_loadu_pd(xp.add(2 * i));
                let yv = _mm256_loadu_pd(yp.add(2 * i));
                _mm256_storeu_pd(yp.add(2 * i), _mm256_sub_pd(yv, cmul_lanes(ar, ai, xv)));
                i += CPV;
            }
            for k in pairs..x.len() {
                let sub = a * x[k];
                y[k] -= sub;
            }
        }
    }

    /// `sum_k x[k] * conj(y[k])` (complex, interleaved f64).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn cdotc_avx2(x: &[Complex64], y: &[Complex64]) -> Complex64 {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            // acc_direct lanes hold xr*yr / xi*yi products; their full sum is the
            // real part. acc_cross lanes hold xi*yr / xr*yi; the real part of the
            // cross term enters with +, the imaginary with -, giving xi*yr - xr*yi.
            let mut acc_direct = _mm256_setzero_pd();
            let mut acc_cross = _mm256_setzero_pd();
            let pairs = x.len() / CPV * CPV;
            let xp = x.as_ptr().cast::<f64>();
            let yp = y.as_ptr().cast::<f64>();
            let mut i = 0;
            while i < pairs {
                let xv = _mm256_loadu_pd(xp.add(2 * i));
                let yv = _mm256_loadu_pd(yp.add(2 * i));
                acc_direct = _mm256_fmadd_pd(xv, yv, acc_direct);
                let xswap = _mm256_permute_pd(xv, 0b0101);
                acc_cross = _mm256_fmadd_pd(xswap, yv, acc_cross);
                i += CPV;
            }
            let re = hsum_pd(acc_direct);
            let sign = _mm256_set_pd(-1.0, 1.0, -1.0, 1.0);
            let im = hsum_pd(_mm256_mul_pd(acc_cross, sign));
            let mut acc = Complex64::new(re, im);
            for k in pairs..x.len() {
                acc += x[k] * y[k].conj();
            }
            acc
        }
    }

    /// The contiguous walk of the row-major f32 GEMM over output columns
    /// `j0..j1`: `out[.., j0..j1] += a * b[.., j0..j1]` (`a`: rows x m, `b`:
    /// m x n, `out`: rows x n at `out`, all row-major) — the 8-wide FMA
    /// microkernel [`super::dense::gemm_f32`] runs where no register tile
    /// pays (one row, the columns past the last whole panel).
    ///
    /// The outer loop walks `k_block`-deep `k` blocks (so the corresponding
    /// `b` rows are streamed *sequentially* and reused across the whole
    /// batch from cache; the block depth comes from [`super::tune`], default
    /// 16), the middle loop walks 4-row panels of `a`/`out` (one loaded `b`
    /// vector feeds four FMA accumulators), and the inner loop runs 8 floats
    /// per instruction over the columns.
    ///
    /// Every output element accumulates as a single FMA chain over ascending
    /// `k`: the accumulator round-trips memory only between `k` blocks, and
    /// an f32 store/load is value-preserving, so results are independent of
    /// the blocking and of the column range — and equal to the register
    /// tile's, which holds the same chain in a register.
    ///
    /// # Safety
    /// Requires `avx2` and `fma`; `out` must be valid for columns `j0..j1`
    /// of `rows` rows `n` apart, written by no other thread during the call,
    /// with `j0 <= j1 <= n`, `a.len() >= rows * m` and `b.len() >= m * n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn gemm_f32_avx2(
        a: &[f32],
        b: &[f32],
        out: *mut f32,
        (rows, m, n): (usize, usize, usize),
        (j0, j1): (usize, usize),
        k_block: usize,
    ) {
        let w = j1 - j0;
        // SAFETY: the caller's contract; every panel below reads `a` rows
        // `< rows`, `b` rows `< m` at columns `j0..j1` and writes `out` at
        // the same columns of rows `< rows`.
        unsafe {
            let bp = b.as_ptr().add(j0);
            for k0 in (0..m).step_by(k_block.max(1)) {
                let k1 = (k0 + k_block.max(1)).min(m);
                let mut r = 0;
                while r + 4 <= rows {
                    let op = out.add(r * n + j0);
                    gemm_panel4_avx2(&a[r * m..(r + 4) * m], bp, op, (m, n, w), k0, k1);
                    r += 4;
                }
                while r < rows {
                    let op = out.add(r * n + j0);
                    gemm_panel1_avx2(&a[r * m..(r + 1) * m], bp, op, (n, w), k0, k1);
                    r += 1;
                }
            }
        }
    }

    /// Four output rows over `k0..k1`: each loaded `b` vector feeds four
    /// accumulator chains (16 live accumulators at the 32-float unroll).
    /// `bp`/`op` point at the first column of `b`'s row 0 / `out`'s row 0.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_panel4_avx2(
        a: &[f32],
        bp: *const f32,
        op: *mut f32,
        (m, n, w): (usize, usize, usize),
        k0: usize,
        k1: usize,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let (a0, rest) = a.split_at(m);
            let (a1, rest) = rest.split_at(m);
            let (a2, a3) = rest.split_at(m);
            let mut j = 0;
            while j + 8 <= w {
                let mut acc0 = _mm256_loadu_ps(op.add(j));
                let mut acc1 = _mm256_loadu_ps(op.add(n + j));
                let mut acc2 = _mm256_loadu_ps(op.add(2 * n + j));
                let mut acc3 = _mm256_loadu_ps(op.add(3 * n + j));
                for k in k0..k1 {
                    let bv = _mm256_loadu_ps(bp.add(k * n + j));
                    acc0 = _mm256_fmadd_ps(_mm256_set1_ps(*a0.get_unchecked(k)), bv, acc0);
                    acc1 = _mm256_fmadd_ps(_mm256_set1_ps(*a1.get_unchecked(k)), bv, acc1);
                    acc2 = _mm256_fmadd_ps(_mm256_set1_ps(*a2.get_unchecked(k)), bv, acc2);
                    acc3 = _mm256_fmadd_ps(_mm256_set1_ps(*a3.get_unchecked(k)), bv, acc3);
                }
                _mm256_storeu_ps(op.add(j), acc0);
                _mm256_storeu_ps(op.add(n + j), acc1);
                _mm256_storeu_ps(op.add(2 * n + j), acc2);
                _mm256_storeu_ps(op.add(3 * n + j), acc3);
                j += 8;
            }
            while j < w {
                for (row, ar) in [a0, a1, a2, a3].into_iter().enumerate() {
                    let slot = op.add(row * n + j);
                    let mut acc = *slot;
                    for k in k0..k1 {
                        acc = ar.get_unchecked(k).mul_add(*bp.add(k * n + j), acc);
                    }
                    *slot = acc;
                }
                j += 1;
            }
        }
    }

    /// One output row over `k0..k1`, 16 floats (two accumulators) per step.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_panel1_avx2(
        a: &[f32],
        bp: *const f32,
        op: *mut f32,
        (n, w): (usize, usize),
        k0: usize,
        k1: usize,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let mut j = 0;
            while j + 16 <= w {
                let mut acc0 = _mm256_loadu_ps(op.add(j));
                let mut acc1 = _mm256_loadu_ps(op.add(j + 8));
                for k in k0..k1 {
                    let av = _mm256_set1_ps(*a.get_unchecked(k));
                    let bk = bp.add(k * n + j);
                    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk), acc0);
                    acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk.add(8)), acc1);
                }
                _mm256_storeu_ps(op.add(j), acc0);
                _mm256_storeu_ps(op.add(j + 8), acc1);
                j += 16;
            }
            while j + 8 <= w {
                let mut acc = _mm256_loadu_ps(op.add(j));
                for k in k0..k1 {
                    acc = _mm256_fmadd_ps(
                        _mm256_set1_ps(*a.get_unchecked(k)),
                        _mm256_loadu_ps(bp.add(k * n + j)),
                        acc,
                    );
                }
                _mm256_storeu_ps(op.add(j), acc);
                j += 8;
            }
            while j < w {
                let mut acc = *op.add(j);
                for k in k0..k1 {
                    acc = a.get_unchecked(k).mul_add(*bp.add(k * n + j), acc);
                }
                *op.add(j) = acc;
                j += 1;
            }
        }
    }

    /// f32 dot product with four independent accumulators.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn sdot_avx2(x: &[f32], y: &[f32]) -> f32 {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            let n32 = x.len() / 32 * 32;
            let xp = x.as_ptr();
            let yp = y.as_ptr();
            let mut i = 0;
            while i < n32 {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), acc0);
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(i + 8)),
                    _mm256_loadu_ps(yp.add(i + 8)),
                    acc1,
                );
                acc2 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(i + 16)),
                    _mm256_loadu_ps(yp.add(i + 16)),
                    acc2,
                );
                acc3 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(i + 24)),
                    _mm256_loadu_ps(yp.add(i + 24)),
                    acc3,
                );
                i += 32;
            }
            let mut n8 = n32;
            while n8 + 8 <= x.len() {
                acc0 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(n8)),
                    _mm256_loadu_ps(yp.add(n8)),
                    acc0,
                );
                n8 += 8;
            }
            let folded = {
                let mut lanes = [0.0f32; 8];
                let sum01 = {
                    let mut l0 = [0.0f32; 8];
                    let mut l1 = [0.0f32; 8];
                    _mm256_storeu_ps(l0.as_mut_ptr(), acc0);
                    _mm256_storeu_ps(l1.as_mut_ptr(), acc1);
                    for (a, b) in l0.iter_mut().zip(l1.iter()) {
                        *a += b;
                    }
                    l0
                };
                let mut l2 = [0.0f32; 8];
                let mut l3 = [0.0f32; 8];
                _mm256_storeu_ps(l2.as_mut_ptr(), acc2);
                _mm256_storeu_ps(l3.as_mut_ptr(), acc3);
                for i in 0..8 {
                    lanes[i] = sum01[i] + (l2[i] + l3[i]);
                }
                lanes
            };
            let mut acc = folded.iter().sum::<f32>();
            for k in n8..x.len() {
                acc = x[k].mul_add(y[k], acc);
            }
            acc
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::gemm_f32_avx2;
#[cfg(target_arch = "x86_64")]
use avx2::{caxpy_avx2, caxpy_sub_avx2, cdotc_avx2, sdot_avx2};

#[cfg(test)]
mod tests {
    use super::*;

    fn complex_series(n: usize, seed: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::new(
                    ((i as f64) * 0.37 + seed).sin(),
                    ((i as f64) * 0.21 - seed).cos(),
                )
            })
            .collect()
    }

    fn f32_series(n: usize, seed: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.173 + seed).sin() * 0.5)
            .collect()
    }

    /// Both kernels, but AVX2 only on hosts that have it.
    fn kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Scalar];
        if avx2_fma_available() {
            ks.push(Kernel::Avx2Fma);
        }
        ks
    }

    #[test]
    fn resolve_is_pure_and_total() {
        assert_eq!(resolve(KernelChoice::Scalar), Kernel::Scalar);
        let auto = resolve(KernelChoice::Auto);
        if avx2_fma_available() {
            assert_eq!(auto, Kernel::Avx2Fma);
        } else {
            assert_eq!(auto, Kernel::Scalar);
        }
    }

    #[test]
    fn parse_choice_only_scalar_forces_fallback() {
        assert_eq!(parse_choice("scalar"), KernelChoice::Scalar);
        assert_eq!(parse_choice(" SCALAR "), KernelChoice::Scalar);
        assert_eq!(parse_choice("auto"), KernelChoice::Auto);
        assert_eq!(parse_choice(""), KernelChoice::Auto);
        assert_eq!(parse_choice("sse9000"), KernelChoice::Auto);
    }

    #[test]
    fn dispatch_report_is_consistent() {
        let report = dispatch_report();
        // CI runs this test alone with `--nocapture` ahead of the suites.
        eprintln!("{report:?}");
        assert!(["auto", "scalar"].contains(&report.requested));
        assert!(report.pool_threads >= 1);
        assert!(["scalar", "avx2_fma"].contains(&report.selected));
        assert_eq!(
            report.selected_packed == "scalar",
            report.selected == "scalar"
        );
        assert_eq!(
            report.selected_packed == "avx512f_12x32",
            report.selected == "avx2_fma" && report.avx512f_available
        );
        assert!(
            ["scalar", "avx2_maddubs", "avx512_vnni", "amx_int8"].contains(&report.selected_int8)
        );
        if !report.avx2_fma_available {
            assert_eq!(report.selected, "scalar");
        }
        // Detected-but-unselected features must still be reported: the report
        // explains *why* a tier was not taken, so the availability bits are
        // filled regardless of what got selected.
        if !report.avx512_vnni_available {
            assert_ne!(report.selected_int8, "avx512_vnni");
            assert!(!report.amx_int8_available);
        }
        // The honest name: the AMX arm is reported exactly when it is the
        // one that runs.
        assert_eq!(
            report.selected_int8 == "amx_int8",
            report.amx_int8_available && report.requested == "auto"
        );
        if report.requested == "scalar" {
            assert_eq!(
                (report.selected, report.selected_int8),
                ("scalar", "scalar")
            );
        }
        assert_eq!(Kernel::Scalar.name(), "scalar");
        assert_eq!(Kernel::Avx2Fma.name(), "avx2_fma");
    }

    #[test]
    fn caxpy_parity_across_kernels_and_lengths() {
        // AVX2 arms under test: `caxpy_avx2` and `caxpy_sub_avx2` (both via
        // `cmul_lanes`), including their odd-length scalar tails.
        for n in [0usize, 1, 2, 3, 5, 8, 17] {
            let a = Complex64::new(0.7, -0.3);
            let x = complex_series(n, 1.0);
            let base = complex_series(n, 2.0);
            let mut expect = base.clone();
            for (o, &b) in expect.iter_mut().zip(x.iter()) {
                *o += a * b;
            }
            for k in kernels() {
                let mut y = base.clone();
                caxpy(k, a, &x, &mut y);
                for (got, want) in y.iter().zip(expect.iter()) {
                    assert!(
                        (got.re - want.re).abs() < 1e-12 && (got.im - want.im).abs() < 1e-12,
                        "caxpy {k:?} n={n}"
                    );
                }
                let mut y2 = base.clone();
                caxpy_sub(k, a, &x, &mut y2);
                let mut expect_sub = base.clone();
                for (o, &b) in expect_sub.iter_mut().zip(x.iter()) {
                    *o -= a * b;
                }
                for (got, want) in y2.iter().zip(expect_sub.iter()) {
                    assert!(
                        (got.re - want.re).abs() < 1e-12 && (got.im - want.im).abs() < 1e-12,
                        "caxpy_sub {k:?} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn cdotc_parity_across_kernels() {
        // AVX2 arm under test: `cdotc_avx2` and its `hsum_pd` reduction.
        for n in [0usize, 1, 2, 5, 9, 33] {
            let x = complex_series(n, 0.4);
            let y = complex_series(n, 1.7);
            let want = cdotc(Kernel::Scalar, &x, &y);
            for k in kernels() {
                let got = cdotc(k, &x, &y);
                assert!(
                    (got.re - want.re).abs() < 1e-10 && (got.im - want.im).abs() < 1e-10,
                    "cdotc {k:?} n={n}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn sdot_parity_across_kernels() {
        // AVX2 arm under test: `sdot_avx2`, across its 32-, 8- and 1-element
        // steps.
        for n in [0usize, 1, 7, 8, 31, 64, 100] {
            let x = f32_series(n, 0.5);
            let y = f32_series(n, 2.5);
            let want = sdot(Kernel::Scalar, &x, &y);
            for k in kernels() {
                let got = sdot(k, &x, &y);
                assert!((got - want).abs() < 1e-4, "sdot {k:?} n={n}");
            }
        }
    }
}
