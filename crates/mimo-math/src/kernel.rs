//! Runtime-dispatched SIMD kernel backend.
//!
//! Every hot inner loop of the workspace (complex matmul/axpy, the LU
//! elimination and MMSE filter of [`crate::solve`], the dense f32 GEMMs of the
//! `neural` crate, and the fused dequantize→tail kernels of `splitbeam`)
//! funnels through this module and its children.
//!
//! # Selection
//!
//! Which arms may run is one [`Backend`] value, `Scalar < Avx2 < Avx512 <
//! Vnni < Amx`, each level implying the ones below it. [`Backend::host`]
//! detects the host's level once; the backend in force is the lower of it
//! and the request — [`set_kernel`]'s override, else `SPLITBEAM_KERNEL`
//! (`scalar` caps the ladder at `Scalar`; `auto`, anything else or unset
//! leaves it at the host's level). Request and resolution are cached
//! together, so every tier reads one answer through its view:
//!
//! | [`Backend`] | [`selected`] | [`packed::PackedWidth::detect`] | [`int8::selected_int8`] |
//! |---|---|---|---|
//! | `Scalar` | `Scalar` | `Ymm` | `Scalar` |
//! | `Avx2`: `avx2` + `fma` + `pclmulqdq` | `Avx2Fma` | `Ymm` | `Avx2Maddubs` |
//! | `Avx512`: + `avx512f` | `Avx2Fma` | `Zmm` | `Avx2Maddubs` |
//! | `Vnni`: + `avx512bw/vl/vnni` | `Avx2Fma` | `Zmm` | `Avx512Vnni` |
//! | `Amx`: + `amx-tile/int8`, tile data granted | `Avx2Fma` | `Zmm` | `Amx` |
//!
//! A tier with no view reads [`selected_backend`]: `splitbeam`'s wire CRC
//! folds with `pclmulqdq` from `Avx2` up and runs its slicing-by-8 loop at
//! `Scalar`, the same checksum either way.
//!
//! The packing width follows the host, not the request: every arm computes
//! the same bits from either layout. Hot paths read [`selected`] once per
//! call and pass it down; parity tests pass explicit arms. Each vector arm
//! is guarded by a comparison with [`Backend::host`], and an explicit arm
//! the host lacks runs the best one at or below it.
//!
//! Of the numerics classes, [`Kernel::Scalar`] is the historical loops, the
//! bit-exactness reference; [`Kernel::Avx2Fma`] differs from it by FMA
//! rounding but is one accumulator chain over ascending `k` an element, so
//! every call shape of it (a row or a batch, fused or not, row-major
//! [`gemm_f32`] or the [`packed`] tail) is bit-identical; and every [`int8`]
//! arm is bit-identical to every other. The two bound-weight products
//! ([`packed`], [`int8`]) share one panel walk; a training step lives in
//! [`dense`]; [`tune`] holds the k-block of the scalar row-major walk.

use crate::complex::Complex64;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Dispatches a run-time count — a packed tile's rows ([`packed`], [`int8`])
/// or a one-row block's vectors ([`dense`]) — to its const-generic register
/// tile; `tile::<_, SKIP, CARRY>(..)` passes two more const arguments
/// through.
#[cfg(target_arch = "x86_64")]
macro_rules! tile_by_rows {
    ($tile:ident::<_, $f1:literal, $f2:literal> $args:tt, $mr:expr, [$($rows:literal)*]) => {
        match $mr {
            $($rows => $tile::<$rows, $f1, $f2> $args,)*
            _ => unreachable!("tile larger than the register tile"),
        }
    };
    ($tile:ident $args:tt, $mr:expr, [$($rows:literal)*]) => {
        match $mr {
            $($rows => $tile::<$rows> $args,)*
            _ => unreachable!("tile larger than the register tile"),
        }
    };
}

pub mod dense;
pub mod int8;
pub mod packed;
pub mod tune;

#[cfg(any(test, feature = "reference"))]
pub use dense::gemm_at_b_f32;
pub use dense::{
    gemm_a_bt_f32, gemm_at_b_update_f32, gemm_f32, update_f32, Adam, GradScratch, Rule,
};

use int8::Int8Kernel;
use packed::PackedWidth;

/// Which kernel arms may run, as one ladder: each level implies the ones
/// below it (the module docs list what each selects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// The portable loops.
    Scalar,
    /// `avx2` + `fma` + `pclmulqdq` (the wire CRC's carry-less multiply).
    Avx2,
    /// `Avx2` + `avx512f`.
    Avx512,
    /// `Avx512` + `avx512bw`, `avx512vl` and `avx512vnni`.
    Vnni,
    /// `Vnni` + `amx-tile` and `amx-int8`, with tile data granted.
    Amx,
}

impl Backend {
    const ALL: [Self; 5] = [
        Self::Scalar,
        Self::Avx2,
        Self::Avx512,
        Self::Vnni,
        Self::Amx,
    ];

    /// The host's level, detected on first use: the one place the CPU and
    /// the operating system are asked. `amx-tile` and `amx-int8` are
    /// CPUID.(7,0).EDX bits 24 and 25 (their detection names are unstable),
    /// and Linux must grant the process tile data —
    /// `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)` returning 0 —
    /// or the first tile instruction raises SIGILL; a refusal reads `Vnni`.
    pub fn host() -> Backend {
        static HOST: OnceLock<Backend> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                if !(has!("avx2") && has!("fma") && has!("pclmulqdq")) {
                    return Backend::Scalar;
                }
                if !has!("avx512f") {
                    return Backend::Avx2;
                }
                if !(has!("avx512bw") && has!("avx512vl") && has!("avx512vnni")) {
                    return Backend::Avx512;
                }
                #[cfg(target_os = "linux")]
                if (core::arch::x86_64::__cpuid_count(7, 0).edx >> 24) & 0b11 == 0b11 {
                    const SYS_ARCH_PRCTL: i64 = 158;
                    const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
                    const XFEATURE_XTILEDATA: u64 = 18;
                    let granted: i64;
                    // SAFETY: this `arch_prctl` takes two integers, touches
                    // no user memory and only widens the state saved for the
                    // process; `syscall` clobbers `rcx` and `r11`, declared.
                    unsafe {
                        core::arch::asm!(
                            "syscall",
                            inlateout("rax") SYS_ARCH_PRCTL => granted,
                            in("rdi") ARCH_REQ_XCOMP_PERM,
                            in("rsi") XFEATURE_XTILEDATA,
                            lateout("rcx") _,
                            lateout("r11") _,
                            options(nostack),
                        );
                    }
                    if granted == 0 {
                        return Backend::Amx;
                    }
                }
                Backend::Vnni
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Scalar
        })
    }

    /// The distinct values `view` takes from `Scalar` up to the host's
    /// level, lowest first: the arms a parity test walks, each once (a view
    /// changes only upwards, so equal arms are adjacent).
    pub fn arms<T: PartialEq>(view: impl Fn(Backend) -> T) -> Vec<T> {
        let mut arms: Vec<T> = Self::ALL[..=Self::host() as usize]
            .iter()
            .map(|&b| view(b))
            .collect();
        arms.dedup();
        arms
    }

    /// The level `arm` runs at here: the lowest level whose `view` it is,
    /// capped at the host's — an arm the host lacks runs the best one at or
    /// below it. Every arm is some level's view.
    fn lowest<T: PartialEq>(arm: T, view: impl Fn(Backend) -> T) -> Backend {
        let level = Self::ALL.into_iter().find(|&level| view(level) == arm);
        level.expect("an arm is a level's view").min(Self::host())
    }

    /// Stable lower-snake name used in reports and logs.
    pub fn name(self) -> &'static str {
        ["scalar", "avx2_fma", "avx512f", "avx512_vnni", "amx_int8"][self as usize]
    }

    /// The f32 / complex numerics class at this level.
    pub fn kernel(self) -> Kernel {
        use Kernel::*;
        [Scalar, Avx2Fma, Avx2Fma, Avx2Fma, Avx2Fma][self as usize]
    }

    /// The width a right-hand side is packed for at this level.
    pub fn packed_width(self) -> PackedWidth {
        use PackedWidth::*;
        [Ymm, Ymm, Zmm, Zmm, Zmm][self as usize]
    }

    /// The int8 arm at this level.
    pub fn int8(self) -> Int8Kernel {
        use Int8Kernel::*;
        [Scalar, Avx2Maddubs, Avx2Maddubs, Avx512Vnni, Amx][self as usize]
    }
}

/// What the caller asked for (environment variable or [`set_kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Pick the fastest backend the CPU supports.
    Auto,
    /// Force the scalar reference kernels (bit-identical to the pre-SIMD code).
    Scalar,
}

/// The f32 / complex numerics class a primitive runs: the [`Backend::kernel`]
/// view of a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Plain scalar loops — always available, the bit-exactness reference.
    Scalar,
    /// AVX2 + FMA vector kernels (x86_64 only, from [`Backend::Avx2`] up).
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

    /// The level this class runs at here: the host's for the FMA class
    /// (its vector arms need [`Backend::Avx2`]), else `Scalar`.
    fn runs(self) -> Backend {
        match self {
            Kernel::Scalar => Backend::Scalar,
            Kernel::Avx2Fma => Backend::host(),
        }
    }
}

/// The request in force and the backend it resolved to, in one word: 0
/// until resolved, else `2 * (backend + 1) + (request == scalar)`.
static IN_FORCE: AtomicU8 = AtomicU8::new(0);

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

/// The request in force and its backend: cached, or — the first time and
/// after `set_kernel(None)` — `SPLITBEAM_KERNEL`'s (default `auto`),
/// resolved and cached.
fn in_force() -> (KernelChoice, Backend) {
    let mut word = IN_FORCE.load(Ordering::Relaxed);
    if word == 0 {
        let env = crate::env::raw("SPLITBEAM_KERNEL");
        word = pin(env.map_or(KernelChoice::Auto, |v| parse_choice(&v)));
    }
    let choice = [KernelChoice::Auto, KernelChoice::Scalar][usize::from(word & 1)];
    (choice, Backend::ALL[usize::from(word / 2) - 1])
}

/// Resolves `choice` — to the lower of the host and the request — and
/// caches the two in one store; returns the word.
fn pin(choice: KernelChoice) -> u8 {
    let (backend, scalar) = match choice {
        KernelChoice::Auto => (Backend::host(), 0),
        KernelChoice::Scalar => (Backend::Scalar, 1),
    };
    let word = 2 * (backend as u8 + 1) + scalar;
    IN_FORCE.store(word, Ordering::Relaxed);
    word
}

/// The f32 / complex backend all dispatched hot paths use right now (one
/// relaxed atomic load once resolved).
pub fn selected() -> Kernel {
    in_force().1.kernel()
}

/// The backend in force, for a tier with no view of its own: the wire
/// CRC folds from [`Backend::Avx2`] up (one relaxed atomic load once
/// resolved).
pub fn selected_backend() -> Backend {
    in_force().1
}

/// Installs (or with `None` removes) a programmatic kernel override, replacing
/// whatever `SPLITBEAM_KERNEL` requested — every tier at once, in one store.
/// It is process-global: concurrent tests that flip it must serialize among
/// themselves (the test kit's `with_kernel`).
pub fn set_kernel(choice: Option<KernelChoice>) {
    match choice {
        Some(choice) => _ = pin(choice),
        None => IN_FORCE.store(0, Ordering::Relaxed),
    }
}

/// A report of how kernel dispatch resolved, for benchmark JSON and logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchReport {
    /// What was requested (`auto` or `scalar`).
    pub requested: &'static str,
    /// The f32/complex backend actually in use.
    pub selected: &'static str,
    /// The arm the served f32 tail ([`packed::gemm_f32_packed`]) runs on:
    /// `avx512f_12x32` or `avx2_fma_6x16`, or `scalar` (the row-major loops).
    pub selected_packed: &'static str,
    /// The integer (quantized-weight) backend actually in use.
    pub selected_int8: &'static str,
    /// [`Backend::host`]'s name whatever was requested: why a tier was not
    /// taken (`avx512f` runs the int8 tier on `avx2_maddubs`).
    pub host: &'static str,
    /// Threads the pool hands its parts out to (tail panels, training,
    /// shard and channel closes, channel snapshots), the caller included:
    /// `available_parallelism` capped by `RAYON_NUM_THREADS`. Outputs do
    /// not depend on it.
    pub pool_threads: usize,
}

/// Snapshot of the current dispatch state.
pub fn dispatch_report() -> DispatchReport {
    let (choice, backend) = in_force();
    DispatchReport {
        requested: match choice {
            KernelChoice::Auto => "auto",
            KernelChoice::Scalar => "scalar",
        },
        selected: backend.kernel().name(),
        selected_packed: match backend {
            Backend::Scalar => Kernel::Scalar.name(),
            _ => backend.packed_width().name(),
        },
        selected_int8: backend.int8().name(),
        host: Backend::host().name(),
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
    if kernel.runs() >= Backend::Avx2 {
        // SAFETY: the host runs AVX2+FMA, and the lengths were asserted
        // equal above — the target-feature fn's only contract.
        #[cfg(target_arch = "x86_64")]
        return unsafe { caxpy_avx2::<false>(a, x, y) };
    }
    for (o, &b) in y.iter_mut().zip(x.iter()) {
        *o += a * b;
    }
}

/// `y -= a * x` over complex slices (the LU elimination update).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn caxpy_sub(kernel: Kernel, a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "caxpy_sub length mismatch");
    if kernel.runs() >= Backend::Avx2 {
        // SAFETY: as `caxpy`.
        #[cfg(target_arch = "x86_64")]
        return unsafe { caxpy_avx2::<true>(a, x, y) };
    }
    for (o, &b) in y.iter_mut().zip(x.iter()) {
        let sub = a * b;
        *o -= sub;
    }
}

/// Conjugated dot product `sum_k x[k] * conj(y[k])` (the MMSE filter row).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn cdotc(kernel: Kernel, x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "cdotc length mismatch");
    if kernel.runs() >= Backend::Avx2 {
        // SAFETY: as `caxpy`.
        #[cfg(target_arch = "x86_64")]
        return unsafe { cdotc_avx2(x, y) };
    }
    let mut acc = Complex64::ZERO;
    for (&a, &b) in x.iter().zip(y.iter()) {
        acc += a * b.conj();
    }
    acc
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
    if kernel.runs() >= Backend::Avx2 {
        // SAFETY: as `caxpy`.
        #[cfg(target_arch = "x86_64")]
        return unsafe { sdot_avx2(x, y) };
    }
    let mut acc = 0.0f32;
    for (&a, &b) in x.iter().zip(y.iter()) {
        acc += a * b;
    }
    acc
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
        _mm256_set_pd, _mm256_setzero_pd, _mm256_setzero_ps, _mm256_storeu_pd, _mm256_storeu_ps,
        _mm256_sub_pd,
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

    /// `y += a * x`, or with `SUB` `y -= a * x` (complex, interleaved f64).
    /// `Complex64` is `repr(C)`, so a complex slice is safely viewed as
    /// interleaved `re, im` f64 memory.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn caxpy_avx2<const SUB: bool>(
        a: Complex64,
        x: &[Complex64],
        y: &mut [Complex64],
    ) {
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
                let ax = cmul_lanes(ar, ai, xv);
                let sum = if SUB {
                    _mm256_sub_pd(yv, ax)
                } else {
                    _mm256_add_pd(yv, ax)
                };
                _mm256_storeu_pd(yp.add(2 * i), sum);
                i += CPV;
            }
            for k in pairs..x.len() {
                let ax = a * x[k];
                if SUB {
                    y[k] -= ax;
                } else {
                    y[k] += ax;
                }
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
use avx2::{caxpy_avx2, cdotc_avx2, sdot_avx2};

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
        Backend::arms(Backend::kernel)
    }

    #[test]
    fn parse_choice_only_scalar_forces_fallback() {
        assert_eq!(parse_choice("scalar"), KernelChoice::Scalar);
        assert_eq!(parse_choice(" SCALAR "), KernelChoice::Scalar);
        assert_eq!(parse_choice("auto"), KernelChoice::Auto);
        assert_eq!(parse_choice(""), KernelChoice::Auto);
        assert_eq!(parse_choice("sse9000"), KernelChoice::Auto);
    }

    /// The views of every level, as the three dispatch types resolved
    /// before they were views; the host's level is detected once, the same
    /// from every thread; and the arms a parity test walks are the distinct
    /// views up to it.
    #[test]
    fn every_level_views_as_the_three_dispatch_types_did() {
        let views = Backend::ALL.map(|b| {
            (
                b.name(),
                b.kernel().name(),
                b.packed_width().name(),
                b.int8().name(),
            )
        });
        assert_eq!(
            views,
            [
                ("scalar", "scalar", "avx2_fma_6x16", "scalar"),
                ("avx2_fma", "avx2_fma", "avx2_fma_6x16", "avx2_maddubs"),
                ("avx512f", "avx2_fma", "avx512f_12x32", "avx2_maddubs"),
                ("avx512_vnni", "avx2_fma", "avx512f_12x32", "avx512_vnni"),
                ("amx_int8", "avx2_fma", "avx512f_12x32", "amx_int8"),
            ]
        );
        let host = Backend::host();
        assert_eq!(std::thread::spawn(Backend::host).join().unwrap(), host);
        assert_eq!(packed::PackedWidth::detect(), host.packed_width());
        assert_eq!(Backend::arms(|b| b), Backend::ALL[..=host as usize]);
        let kernels = Backend::arms(Backend::kernel);
        assert_eq!(kernels.len(), 1 + usize::from(host >= Backend::Avx2));
    }

    #[test]
    fn dispatch_report_is_consistent() {
        let report = dispatch_report();
        // CI runs this test alone with `--nocapture` ahead of the suites.
        eprintln!("{report:?}");
        assert!(report.pool_threads >= 1);
        assert_eq!(report.host, Backend::host().name());
        let backend = match report.requested {
            "scalar" => Backend::Scalar,
            "auto" => Backend::host(),
            other => panic!("requested {other}"),
        };
        let packed = match backend {
            Backend::Scalar => "scalar",
            _ => backend.packed_width().name(),
        };
        assert_eq!(
            (
                report.selected,
                report.selected_packed,
                report.selected_int8
            ),
            (backend.kernel().name(), packed, backend.int8().name())
        );
    }

    #[test]
    fn caxpy_parity_across_kernels_and_lengths() {
        // AVX2 arm under test: `caxpy_avx2`, adding and subtracting (via
        // `cmul_lanes`), including its odd-length scalar tails.
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
