//! Third kernel tier: integer (u8 x i8 -> i32) GEMM for quantized tail
//! weights.
//!
//! The f32 tail GEMM is memory-bound — BENCH_PR3 measured only 1.51x from
//! AVX2+FMA on the 545x4356 tail layer because the weight matrix streams from
//! DRAM every batch. Quantizing weights to int8 shrinks that stream 4x, and
//! this module provides the matching integer microkernels behind the same
//! `SPLITBEAM_KERNEL` seam as the f32 tier:
//!
//! * **scalar** — a verbatim reference loop. Every wider arm must match it
//!   **bit-exactly**: all arms accumulate the same `u8 x i8` products into
//!   `i32`, and integer addition is associative, so equality is exact by
//!   construction (and pinned by tests), not by tolerance.
//! * **AVX2 `maddubs`** — `_mm256_maddubs_epi16` + `_mm256_madd_epi16`
//!   per 4-deep group, 8 columns per vector.
//! * **AVX-512 VNNI** — `_mm512_dpbusd_epi32`, 16 columns per vector, one
//!   instruction per 4-deep group (runtime-detected `avx512f/bw/vl/vnni`).
//!
//! # Data layout
//!
//! All arms consume the same **K4-packed** weight layout, the native shape of
//! the VNNI dot instruction: quantized weights `wq` (row-major `k x n`,
//! row = input channel, column = output channel) are regrouped so the 4
//! consecutive input channels of one output column are adjacent:
//!
//! ```text
//! packed[(g * n + j) * 4 + q] = wq[(4g + q) * n + j]   (zero-padded past k)
//! ```
//!
//! Activations are quantized to **u7** (`0..=127`) per row: with both
//! operands bounded by 127, a `maddubs` pair sum is at most `2*127*127 =
//! 32258 < i16::MAX`, so the AVX2 arm can never saturate and stays exact.
//! Activation rows are zero-padded to [`padded_k`] bytes; the padded products
//! are exact zeros in every arm.
//!
//! # Overflow
//!
//! A full `i32` accumulator over `k` groups is bounded by `127 * 127 * k`;
//! the largest tail layer in the workspace has `k = 4356`, giving `~7.0e7`,
//! five orders of magnitude inside `i32` range.

use super::KernelChoice;
use std::sync::atomic::{AtomicU8, Ordering};

/// A concrete integer-GEMM backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Int8Kernel {
    /// Verbatim scalar reference — always available, the bit-exactness anchor.
    Scalar,
    /// AVX2 `maddubs`-style kernel (x86_64, runtime-detected `avx2`).
    Avx2Maddubs,
    /// AVX-512 VNNI `dpbusd` kernel (x86_64, runtime-detected
    /// `avx512f/bw/vl/vnni`).
    Avx512Vnni,
}

impl Int8Kernel {
    /// Stable lower-snake name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            Int8Kernel::Scalar => "scalar",
            Int8Kernel::Avx2Maddubs => "avx2_maddubs",
            Int8Kernel::Avx512Vnni => "avx512_vnni",
        }
    }
}

/// Cached resolution of [`selected_int8`]: 0 = unresolved, 1 = scalar,
/// 2 = AVX2 maddubs, 3 = AVX-512 VNNI.
static RESOLVED_INT8: AtomicU8 = AtomicU8::new(0);

/// Invalidated by [`super::set_kernel`] so an override re-resolves this tier
/// too.
pub(super) fn reset_selected() {
    RESOLVED_INT8.store(0, Ordering::Relaxed);
}

/// `true` when the host CPU supports AVX2 (the `maddubs` arm needs no FMA).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` when the host CPU reports AVX-512F (foundation).
pub fn avx512f_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` when the host CPU reports AVX-512BW (byte/word ops).
pub fn avx512bw_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512bw")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` when the VNNI arm can run: AVX-512 F + BW + VL + VNNI.
pub fn avx512_vnni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves a [`KernelChoice`] to the best integer backend the host supports.
fn resolve_int8(choice: KernelChoice) -> Int8Kernel {
    match choice {
        KernelChoice::Scalar => Int8Kernel::Scalar,
        KernelChoice::Auto => {
            if avx512_vnni_available() {
                Int8Kernel::Avx512Vnni
            } else if avx2_available() {
                Int8Kernel::Avx2Maddubs
            } else {
                Int8Kernel::Scalar
            }
        }
    }
}

/// The integer backend the dispatched quantized paths use right now. Honors
/// the same override / `SPLITBEAM_KERNEL` / CPU-detection chain as
/// [`super::selected`] (so `SPLITBEAM_KERNEL=scalar` pins *both* tiers) and
/// caches the answer behind one relaxed atomic load.
pub fn selected_int8() -> Int8Kernel {
    match RESOLVED_INT8.load(Ordering::Relaxed) {
        1 => Int8Kernel::Scalar,
        2 => Int8Kernel::Avx2Maddubs,
        3 => Int8Kernel::Avx512Vnni,
        _ => {
            let kernel = resolve_int8(super::requested());
            RESOLVED_INT8.store(
                match kernel {
                    Int8Kernel::Scalar => 1,
                    Int8Kernel::Avx2Maddubs => 2,
                    Int8Kernel::Avx512Vnni => 3,
                },
                Ordering::Relaxed,
            );
            kernel
        }
    }
}

/// The activation-row / packed-weight depth for a logical depth `k`: rounded
/// up to a whole number of 4-deep groups.
pub fn padded_k(k: usize) -> usize {
    k.div_ceil(4) * 4
}

/// Packs row-major quantized weights (`k x n`, row = input channel) into the
/// K4 layout shared by every arm: `packed[(g*n + j)*4 + q] = wq[(4g+q)*n + j]`,
/// zero-padded past `k`. The returned buffer has `padded_k(k) * n` bytes.
pub fn pack_weights_k4(wq: &[i8], k: usize, n: usize) -> Vec<i8> {
    assert_eq!(wq.len(), k * n, "pack_weights_k4 shape mismatch");
    let k_pad = padded_k(k);
    let mut packed = vec![0i8; k_pad * n];
    for g in 0..k_pad / 4 {
        for j in 0..n {
            for q in 0..4 {
                let row = 4 * g + q;
                if row < k {
                    packed[(g * n + j) * 4 + q] = wq[row * n + j];
                }
            }
        }
    }
    packed
}

/// The 4-deep group dot product every arm computes: activation quad `g` of
/// row `a` against the packed weight quad at `wbase`.
#[inline]
fn dot4(a: &[u8], g: usize, b: &[i8], wbase: usize) -> i32 {
    i32::from(a[4 * g]) * i32::from(b[wbase])
        + i32::from(a[4 * g + 1]) * i32::from(b[wbase + 1])
        + i32::from(a[4 * g + 2]) * i32::from(b[wbase + 2])
        + i32::from(a[4 * g + 3]) * i32::from(b[wbase + 3])
}

/// Integer GEMM `out = a * b` (overwrite — `out` need not be zeroed): `a` is
/// `rows x k_pad` unsigned u7 activations (row-major, zero-padded), `b` is
/// K4-packed i8 weights for depth `k_pad` over `n` output columns
/// ([`pack_weights_k4`]), `out` is `rows x n` i32.
///
/// The SIMD arms block the inner dimension; the first k-block **stores** its
/// in-register sums and later blocks fold on top, so callers skip a full
/// `out` memset per call without any change in results (integer adds are
/// exact however the accumulation is split).
///
/// Every arm computes identical `i32` sums, so outputs are **bit-identical
/// across backends, batch shapes and blocking** — the property the fused
/// quantized tail path and the sharded server rely on.
///
/// # Panics
/// Panics when `k_pad` is not a multiple of 4 or any slice length disagrees
/// with the dimensions.
pub fn gemm_u8i8_i32(
    kernel: Int8Kernel,
    a: &[u8],
    b: &[i8],
    out: &mut [i32],
    rows: usize,
    k_pad: usize,
    n: usize,
) {
    assert_eq!(k_pad % 4, 0, "gemm_u8i8_i32 depth must be 4-padded");
    assert_eq!(a.len(), rows * k_pad, "gemm_u8i8_i32 lhs length mismatch");
    assert_eq!(b.len(), k_pad * n, "gemm_u8i8_i32 rhs length mismatch");
    assert_eq!(out.len(), rows * n, "gemm_u8i8_i32 out length mismatch");
    match kernel {
        Int8Kernel::Scalar => {
            // The verbatim reference: per output element, ascending groups.
            let groups = k_pad / 4;
            for (a_row, out_row) in a.chunks_exact(k_pad).zip(out.chunks_exact_mut(n)) {
                for (j, o) in out_row.iter_mut().enumerate() {
                    let mut acc = 0i32;
                    for g in 0..groups {
                        acc += dot4(a_row, g, b, (g * n + j) * 4);
                    }
                    *o = acc;
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        Int8Kernel::Avx2Maddubs if avx2_available() => {
            let p = super::tune::params();
            // SAFETY: the guard proves AVX2 is present; `rows`/`k_pad`/`n`
            // describe `a`/`b`/`out` exactly per the asserts above.
            unsafe { x86::gemm_avx2(a, b, out, rows, k_pad, n, p.int8_group_block, p.int8_panel4) }
        }
        #[cfg(target_arch = "x86_64")]
        Int8Kernel::Avx512Vnni if avx512_vnni_available() => {
            let p = super::tune::params();
            // SAFETY: the guard proves AVX-512 VNNI is present; the shape
            // arguments describe `a`/`b`/`out` exactly per the asserts above.
            unsafe { x86::gemm_vnni(a, b, out, rows, k_pad, n, p.int8_group_block, p.int8_panel4) }
        }
        #[allow(unreachable_patterns)]
        _ => gemm_u8i8_i32(Int8Kernel::Scalar, a, b, out, rows, k_pad, n),
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) mod x86 {
    use core::arch::x86_64::{
        __m256i, __m512i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_maddubs_epi16, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_setzero_si256,
        _mm256_storeu_si256, _mm512_add_epi32, _mm512_dpbusd_epi32, _mm512_loadu_si512,
        _mm512_set1_epi32, _mm512_setzero_si512, _mm512_storeu_si512,
    };

    /// Seeds an accumulator tile: the prior blocks' partial sums when
    /// folding, zero when this is the overwriting first k-block.
    ///
    /// # Safety
    /// Caller must guarantee 8 readable i32 slots at `slot` and AVX2 support.
    #[target_feature(enable = "avx2")]
    unsafe fn seed_avx2(slot: *const i32, fold: bool) -> __m256i {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            if fold {
                _mm256_loadu_si256(slot.cast())
            } else {
                _mm256_setzero_si256()
            }
        }
    }

    /// [`seed_avx2`], 16 i32 lanes wide.
    ///
    /// # Safety
    /// Caller must guarantee 16 readable i32 slots at `slot` and AVX-512F
    /// support.
    #[target_feature(enable = "avx512f")]
    unsafe fn seed_avx512(slot: *const i32, fold: bool) -> __m512i {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            if fold {
                _mm512_loadu_si512(slot.cast())
            } else {
                _mm512_setzero_si512()
            }
        }
    }

    /// Seeds a scalar accumulator under the same fold/overwrite rule.
    ///
    /// # Safety
    /// `slot` must be readable.
    #[inline(always)]
    unsafe fn seed_scalar(slot: *const i32, fold: bool) -> i32 {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            if fold {
                *slot
            } else {
                0
            }
        }
    }

    /// The 4 activation bytes of group `g` as one broadcastable i32 lane —
    /// a raw unaligned load so the hot loops carry no per-byte bounds checks.
    ///
    /// # Safety
    /// Caller must guarantee `4 * g + 3` is in bounds of the row `a` points
    /// into (every caller iterates `g < k_pad / 4` over a `k_pad`-byte row).
    #[inline(always)]
    unsafe fn quad(a: *const u8, g: usize) -> i32 {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe { a.add(4 * g).cast::<i32>().read_unaligned() }
    }

    /// AVX2 `maddubs` arm: outer loop over `group_block`-deep k-group blocks
    /// (the corresponding packed-weight rows stream sequentially and are
    /// reused across the whole batch from cache), middle loop over 4-row
    /// panels when `panel4` (one loaded weight vector feeds four
    /// accumulators), inner loop 8 columns per vector.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and the slice lengths match
    /// `rows x k_pad` / `k_pad x n` / `rows x n` with `k_pad % 4 == 0` (the
    /// public dispatcher asserts both).
    // Every argument is a distinct matrix dimension or blocking parameter;
    // bundling them into a struct would only obscure the GEMM signature.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gemm_avx2(
        a: &[u8],
        b: &[i8],
        out: &mut [i32],
        rows: usize,
        k_pad: usize,
        n: usize,
        group_block: usize,
        panel4: bool,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let groups = k_pad / 4;
            let block = group_block.max(1);
            for g0 in (0..groups).step_by(block) {
                let g1 = (g0 + block).min(groups);
                let mut r = 0;
                if panel4 {
                    while r + 4 <= rows {
                        panel4_avx2(
                            &a[r * k_pad..(r + 4) * k_pad],
                            b,
                            &mut out[r * n..(r + 4) * n],
                            k_pad,
                            n,
                            g0,
                            g1,
                        );
                        r += 4;
                    }
                }
                while r < rows {
                    panel1_avx2(
                        &a[r * k_pad..(r + 1) * k_pad],
                        b,
                        &mut out[r * n..(r + 1) * n],
                        n,
                        g0,
                        g1,
                    );
                    r += 1;
                }
            }
        }
    }

    /// Four output rows over groups `g0..g1`: each loaded weight vector feeds
    /// four `maddubs`+`madd` accumulator updates.
    #[target_feature(enable = "avx2")]
    unsafe fn panel4_avx2(
        a: &[u8],
        b: &[i8],
        o: &mut [i32],
        k_pad: usize,
        n: usize,
        g0: usize,
        g1: usize,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            // The first k-block (g0 == 0) overwrites `out`, later blocks fold on
            // top — so the caller never has to pre-zero the output.
            let fold = g0 != 0;
            let (a0, rest) = a.split_at(k_pad);
            let (a1, rest) = rest.split_at(k_pad);
            let (a2, a3) = rest.split_at(k_pad);
            let (p0, p1, p2, p3) = (a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr());
            let ones = _mm256_set1_epi16(1);
            let bp = b.as_ptr();
            let op = o.as_mut_ptr();
            let mut j = 0;
            // Two 8-column tiles per pass: each broadcast activation quad feeds
            // two weight vectors, halving the broadcast overhead per madd.
            while j + 16 <= n {
                let mut acc00 = seed_avx2(op.add(j), fold);
                let mut acc01 = seed_avx2(op.add(j + 8), fold);
                let mut acc10 = seed_avx2(op.add(n + j), fold);
                let mut acc11 = seed_avx2(op.add(n + j + 8), fold);
                let mut acc20 = seed_avx2(op.add(2 * n + j), fold);
                let mut acc21 = seed_avx2(op.add(2 * n + j + 8), fold);
                let mut acc30 = seed_avx2(op.add(3 * n + j), fold);
                let mut acc31 = seed_avx2(op.add(3 * n + j + 8), fold);
                for g in g0..g1 {
                    let w0: __m256i = _mm256_loadu_si256(bp.add((g * n + j) * 4).cast());
                    let w1: __m256i = _mm256_loadu_si256(bp.add((g * n + j + 8) * 4).cast());
                    let q0 = _mm256_set1_epi32(quad(p0, g));
                    let q1 = _mm256_set1_epi32(quad(p1, g));
                    let q2 = _mm256_set1_epi32(quad(p2, g));
                    let q3 = _mm256_set1_epi32(quad(p3, g));
                    acc00 = _mm256_add_epi32(
                        acc00,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q0, w0), ones),
                    );
                    acc01 = _mm256_add_epi32(
                        acc01,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q0, w1), ones),
                    );
                    acc10 = _mm256_add_epi32(
                        acc10,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q1, w0), ones),
                    );
                    acc11 = _mm256_add_epi32(
                        acc11,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q1, w1), ones),
                    );
                    acc20 = _mm256_add_epi32(
                        acc20,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q2, w0), ones),
                    );
                    acc21 = _mm256_add_epi32(
                        acc21,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q2, w1), ones),
                    );
                    acc30 = _mm256_add_epi32(
                        acc30,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q3, w0), ones),
                    );
                    acc31 = _mm256_add_epi32(
                        acc31,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q3, w1), ones),
                    );
                }
                _mm256_storeu_si256(op.add(j).cast(), acc00);
                _mm256_storeu_si256(op.add(j + 8).cast(), acc01);
                _mm256_storeu_si256(op.add(n + j).cast(), acc10);
                _mm256_storeu_si256(op.add(n + j + 8).cast(), acc11);
                _mm256_storeu_si256(op.add(2 * n + j).cast(), acc20);
                _mm256_storeu_si256(op.add(2 * n + j + 8).cast(), acc21);
                _mm256_storeu_si256(op.add(3 * n + j).cast(), acc30);
                _mm256_storeu_si256(op.add(3 * n + j + 8).cast(), acc31);
                j += 16;
            }
            while j + 8 <= n {
                let mut acc0 = seed_avx2(op.add(j), fold);
                let mut acc1 = seed_avx2(op.add(n + j), fold);
                let mut acc2 = seed_avx2(op.add(2 * n + j), fold);
                let mut acc3 = seed_avx2(op.add(3 * n + j), fold);
                for g in g0..g1 {
                    let w: __m256i = _mm256_loadu_si256(bp.add((g * n + j) * 4).cast());
                    let q0 = _mm256_set1_epi32(quad(p0, g));
                    let q1 = _mm256_set1_epi32(quad(p1, g));
                    let q2 = _mm256_set1_epi32(quad(p2, g));
                    let q3 = _mm256_set1_epi32(quad(p3, g));
                    acc0 = _mm256_add_epi32(
                        acc0,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q0, w), ones),
                    );
                    acc1 = _mm256_add_epi32(
                        acc1,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q1, w), ones),
                    );
                    acc2 = _mm256_add_epi32(
                        acc2,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q2, w), ones),
                    );
                    acc3 = _mm256_add_epi32(
                        acc3,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q3, w), ones),
                    );
                }
                _mm256_storeu_si256(op.add(j).cast(), acc0);
                _mm256_storeu_si256(op.add(n + j).cast(), acc1);
                _mm256_storeu_si256(op.add(2 * n + j).cast(), acc2);
                _mm256_storeu_si256(op.add(3 * n + j).cast(), acc3);
                j += 8;
            }
            while j < n {
                for (row, ar) in [a0, a1, a2, a3].into_iter().enumerate() {
                    let slot = op.add(row * n + j);
                    let mut acc = seed_scalar(slot, fold);
                    for g in g0..g1 {
                        acc += super::dot4(ar, g, b, (g * n + j) * 4);
                    }
                    *slot = acc;
                }
                j += 1;
            }
        }
    }

    /// One output row over groups `g0..g1`, 8 columns per vector.
    #[target_feature(enable = "avx2")]
    unsafe fn panel1_avx2(a: &[u8], b: &[i8], o: &mut [i32], n: usize, g0: usize, g1: usize) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let fold = g0 != 0;
            let ones = _mm256_set1_epi16(1);
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let op = o.as_mut_ptr();
            let mut j = 0;
            while j + 8 <= n {
                let mut acc = seed_avx2(op.add(j), fold);
                for g in g0..g1 {
                    let w: __m256i = _mm256_loadu_si256(bp.add((g * n + j) * 4).cast());
                    acc = _mm256_add_epi32(
                        acc,
                        _mm256_madd_epi16(
                            _mm256_maddubs_epi16(_mm256_set1_epi32(quad(ap, g)), w),
                            ones,
                        ),
                    );
                }
                _mm256_storeu_si256(op.add(j).cast(), acc);
                j += 8;
            }
            while j < n {
                let slot = op.add(j);
                let mut acc = seed_scalar(slot, fold);
                for g in g0..g1 {
                    acc += super::dot4(a, g, b, (g * n + j) * 4);
                }
                *slot = acc;
                j += 1;
            }
        }
    }

    /// AVX-512 VNNI arm: identical blocking to [`gemm_avx2`], but one
    /// `dpbusd` per 4-deep group over 16 columns.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX-512 F/BW/VL/VNNI and the
    /// slice lengths match (the public dispatcher asserts both).
    // Same GEMM signature rationale as `gemm_avx2`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    pub(crate) unsafe fn gemm_vnni(
        a: &[u8],
        b: &[i8],
        out: &mut [i32],
        rows: usize,
        k_pad: usize,
        n: usize,
        group_block: usize,
        panel4: bool,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let groups = k_pad / 4;
            let block = group_block.max(1);
            for g0 in (0..groups).step_by(block) {
                let g1 = (g0 + block).min(groups);
                let mut r = 0;
                if panel4 {
                    while r + 4 <= rows {
                        panel4_vnni(
                            &a[r * k_pad..(r + 4) * k_pad],
                            b,
                            &mut out[r * n..(r + 4) * n],
                            k_pad,
                            n,
                            g0,
                            g1,
                        );
                        r += 4;
                    }
                }
                while r < rows {
                    panel1_vnni(
                        &a[r * k_pad..(r + 1) * k_pad],
                        b,
                        &mut out[r * n..(r + 1) * n],
                        n,
                        g0,
                        g1,
                    );
                    r += 1;
                }
            }
        }
    }

    /// Four output rows over groups `g0..g1`, 16 columns per `dpbusd`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    unsafe fn panel4_vnni(
        a: &[u8],
        b: &[i8],
        o: &mut [i32],
        k_pad: usize,
        n: usize,
        g0: usize,
        g1: usize,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            // The first k-block (g0 == 0) overwrites `out`, later blocks fold on
            // top — so the caller never has to pre-zero the output.
            let fold = g0 != 0;
            let (a0, rest) = a.split_at(k_pad);
            let (a1, rest) = rest.split_at(k_pad);
            let (a2, a3) = rest.split_at(k_pad);
            let (p0, p1, p2, p3) = (a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr());
            let bp = b.as_ptr();
            let op = o.as_mut_ptr();
            let mut j = 0;
            // Two 16-column tiles per pass (eight in-register accumulators): each
            // broadcast activation quad feeds two weight vectors, so the loop
            // retires ~one dpbusd per issue slot instead of stalling on
            // broadcast setup. dpbusd accumulates in-register; fold into the
            // output once per k-block (integer adds — exact regardless of the
            // split).
            while j + 32 <= n {
                let mut acc00 = _mm512_setzero_si512();
                let mut acc01 = _mm512_setzero_si512();
                let mut acc10 = _mm512_setzero_si512();
                let mut acc11 = _mm512_setzero_si512();
                let mut acc20 = _mm512_setzero_si512();
                let mut acc21 = _mm512_setzero_si512();
                let mut acc30 = _mm512_setzero_si512();
                let mut acc31 = _mm512_setzero_si512();
                for g in g0..g1 {
                    let w0 = _mm512_loadu_si512(bp.add((g * n + j) * 4).cast());
                    let w1 = _mm512_loadu_si512(bp.add((g * n + j + 16) * 4).cast());
                    let q0 = _mm512_set1_epi32(quad(p0, g));
                    let q1 = _mm512_set1_epi32(quad(p1, g));
                    let q2 = _mm512_set1_epi32(quad(p2, g));
                    let q3 = _mm512_set1_epi32(quad(p3, g));
                    acc00 = _mm512_dpbusd_epi32(acc00, q0, w0);
                    acc01 = _mm512_dpbusd_epi32(acc01, q0, w1);
                    acc10 = _mm512_dpbusd_epi32(acc10, q1, w0);
                    acc11 = _mm512_dpbusd_epi32(acc11, q1, w1);
                    acc20 = _mm512_dpbusd_epi32(acc20, q2, w0);
                    acc21 = _mm512_dpbusd_epi32(acc21, q2, w1);
                    acc30 = _mm512_dpbusd_epi32(acc30, q3, w0);
                    acc31 = _mm512_dpbusd_epi32(acc31, q3, w1);
                }
                for (row, (lo, hi)) in [
                    (acc00, acc01),
                    (acc10, acc11),
                    (acc20, acc21),
                    (acc30, acc31),
                ]
                .into_iter()
                .enumerate()
                {
                    let s0 = op.add(row * n + j);
                    let s1 = op.add(row * n + j + 16);
                    _mm512_storeu_si512(s0.cast(), _mm512_add_epi32(seed_avx512(s0, fold), lo));
                    _mm512_storeu_si512(s1.cast(), _mm512_add_epi32(seed_avx512(s1, fold), hi));
                }
                j += 32;
            }
            while j + 16 <= n {
                let mut acc0 = _mm512_setzero_si512();
                let mut acc1 = _mm512_setzero_si512();
                let mut acc2 = _mm512_setzero_si512();
                let mut acc3 = _mm512_setzero_si512();
                for g in g0..g1 {
                    let w = _mm512_loadu_si512(bp.add((g * n + j) * 4).cast());
                    acc0 = _mm512_dpbusd_epi32(acc0, _mm512_set1_epi32(quad(p0, g)), w);
                    acc1 = _mm512_dpbusd_epi32(acc1, _mm512_set1_epi32(quad(p1, g)), w);
                    acc2 = _mm512_dpbusd_epi32(acc2, _mm512_set1_epi32(quad(p2, g)), w);
                    acc3 = _mm512_dpbusd_epi32(acc3, _mm512_set1_epi32(quad(p3, g)), w);
                }
                let s0 = op.add(j);
                let s1 = op.add(n + j);
                let s2 = op.add(2 * n + j);
                let s3 = op.add(3 * n + j);
                _mm512_storeu_si512(s0.cast(), _mm512_add_epi32(seed_avx512(s0, fold), acc0));
                _mm512_storeu_si512(s1.cast(), _mm512_add_epi32(seed_avx512(s1, fold), acc1));
                _mm512_storeu_si512(s2.cast(), _mm512_add_epi32(seed_avx512(s2, fold), acc2));
                _mm512_storeu_si512(s3.cast(), _mm512_add_epi32(seed_avx512(s3, fold), acc3));
                j += 16;
            }
            while j < n {
                for (row, ar) in [a0, a1, a2, a3].into_iter().enumerate() {
                    let slot = op.add(row * n + j);
                    let mut acc = seed_scalar(slot, fold);
                    for g in g0..g1 {
                        acc += super::dot4(ar, g, b, (g * n + j) * 4);
                    }
                    *slot = acc;
                }
                j += 1;
            }
        }
    }

    /// One output row over groups `g0..g1`, 16 columns per `dpbusd`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    unsafe fn panel1_vnni(a: &[u8], b: &[i8], o: &mut [i32], n: usize, g0: usize, g1: usize) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let fold = g0 != 0;
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let op = o.as_mut_ptr();
            let mut j = 0;
            while j + 16 <= n {
                let mut acc = _mm512_setzero_si512();
                for g in g0..g1 {
                    let w = _mm512_loadu_si512(bp.add((g * n + j) * 4).cast());
                    acc = _mm512_dpbusd_epi32(acc, _mm512_set1_epi32(quad(ap, g)), w);
                }
                _mm512_storeu_si512(
                    op.add(j).cast(),
                    _mm512_add_epi32(seed_avx512(op.add(j), fold), acc),
                );
                j += 16;
            }
            while j < n {
                let slot = op.add(j);
                let mut acc = seed_scalar(slot, fold);
                for g in g0..g1 {
                    acc += super::dot4(a, g, b, (g * n + j) * 4);
                }
                *slot = acc;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic u7 activations.
    fn activations(rows: usize, k_pad: usize, k: usize, seed: u64) -> Vec<u8> {
        let mut a = vec![0u8; rows * k_pad];
        for r in 0..rows {
            for c in 0..k {
                a[r * k_pad + c] = (((r as u64 + 3) * 37 + c as u64 * 11 + seed) % 128) as u8;
            }
        }
        a
    }

    /// Deterministic signed weights spanning the full i8 quantized range.
    fn weights(k: usize, n: usize, seed: u64) -> Vec<i8> {
        (0..k * n)
            .map(|i| ((((i as u64).wrapping_mul(2654435761) >> 7) + seed) % 255) as i64 - 127)
            .map(|v| v as i8)
            .collect()
    }

    /// All backends the host can run.
    fn backends() -> Vec<Int8Kernel> {
        let mut ks = vec![Int8Kernel::Scalar];
        if avx2_available() {
            ks.push(Int8Kernel::Avx2Maddubs);
        }
        if avx512_vnni_available() {
            ks.push(Int8Kernel::Avx512Vnni);
        }
        ks
    }

    /// Plain unpacked triple loop — independent of the packed layout, so it
    /// cross-checks `pack_weights_k4` and every arm at once.
    fn reference(a: &[u8], wq: &[i8], rows: usize, k_pad: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; rows * n];
        for r in 0..rows {
            for j in 0..n {
                let mut acc = 0i32;
                for c in 0..k {
                    acc += i32::from(a[r * k_pad + c]) * i32::from(wq[c * n + j]);
                }
                out[r * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn pack_weights_k4_layout_and_padding() {
        let (k, n) = (6, 3);
        let wq = weights(k, n, 1);
        let packed = pack_weights_k4(&wq, k, n);
        assert_eq!(packed.len(), padded_k(k) * n);
        for g in 0..padded_k(k) / 4 {
            for j in 0..n {
                for q in 0..4 {
                    let row = 4 * g + q;
                    let want = if row < k { wq[row * n + j] } else { 0 };
                    assert_eq!(packed[(g * n + j) * 4 + q], want, "g={g} j={j} q={q}");
                }
            }
        }
        assert_eq!(padded_k(0), 0);
        assert_eq!(padded_k(1), 4);
        assert_eq!(padded_k(4), 4);
        assert_eq!(padded_k(5), 8);
    }

    #[test]
    fn all_backends_match_the_reference_bit_exactly() {
        // Shapes hit the 4-row panel, the 1-row remainder, and the 8- and
        // 16-column vector remainders of both SIMD arms.
        for (rows, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (6, 37, 41),
            (5, 64, 23),
            (2, 12, 100),
            (9, 31, 33),
        ] {
            let k_pad = padded_k(k);
            let a = activations(rows, k_pad, k, 7);
            let wq = weights(k, n, 3);
            let packed = pack_weights_k4(&wq, k, n);
            let want = reference(&a, &wq, rows, k_pad, k, n);
            for backend in backends() {
                let mut out = vec![0i32; rows * n];
                gemm_u8i8_i32(backend, &a, &packed, &mut out, rows, k_pad, n);
                assert_eq!(out, want, "{backend:?} rows={rows} k={k} n={n}");
            }
        }
    }

    #[test]
    fn overwrite_semantics_and_saturation_extremes() {
        // A dirty (non-zero) out must be fully overwritten, with the extreme
        // u7 x i8 operands that would saturate maddubs if activations were
        // full u8.
        let (rows, k, n) = (4usize, 8usize, 9usize);
        let k_pad = padded_k(k);
        let a = vec![127u8; rows * k_pad];
        let wq = vec![-127i8; k * n];
        let packed = pack_weights_k4(&wq, k, n);
        let want = -127 * 127 * k as i32;
        for backend in backends() {
            let mut out = vec![5i32; rows * n];
            gemm_u8i8_i32(backend, &a, &packed, &mut out, rows, k_pad, n);
            assert!(out.iter().all(|&v| v == want), "{backend:?}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn blocking_and_panel_shape_do_not_change_results() {
        // Seven rows with `panel4` on and off reach `panel4_avx2` /
        // `panel4_vnni` and the one-row `panel1_avx2` / `panel1_vnni`; every
        // group block short of the whole depth makes `seed_avx2` /
        // `seed_avx512` both store (first block) and fold (later blocks).
        if !avx2_available() {
            return;
        }
        let (rows, k, n) = (7usize, 45usize, 29usize);
        let k_pad = padded_k(k);
        let a = activations(rows, k_pad, k, 13);
        let packed = pack_weights_k4(&weights(k, n, 5), k, n);
        let mut want = vec![0i32; rows * n];
        gemm_u8i8_i32(Int8Kernel::Scalar, &a, &packed, &mut want, rows, k_pad, n);
        for group_block in [1usize, 2, 3, 8, 64] {
            for panel4 in [false, true] {
                let mut out = vec![0i32; rows * n];
                unsafe {
                    x86::gemm_avx2(&a, &packed, &mut out, rows, k_pad, n, group_block, panel4)
                };
                assert_eq!(out, want, "avx2 block={group_block} panel4={panel4}");
                if avx512_vnni_available() {
                    let mut out = vec![0i32; rows * n];
                    unsafe {
                        x86::gemm_vnni(&a, &packed, &mut out, rows, k_pad, n, group_block, panel4)
                    };
                    assert_eq!(out, want, "vnni block={group_block} panel4={panel4}");
                }
            }
        }
    }

    #[test]
    fn selection_tracks_host_features() {
        assert_eq!(resolve_int8(KernelChoice::Scalar), Int8Kernel::Scalar);
        let auto = resolve_int8(KernelChoice::Auto);
        if avx512_vnni_available() {
            assert_eq!(auto, Int8Kernel::Avx512Vnni);
        } else if avx2_available() {
            assert_eq!(auto, Int8Kernel::Avx2Maddubs);
        } else {
            assert_eq!(auto, Int8Kernel::Scalar);
        }
        assert!(["scalar", "avx2_maddubs", "avx512_vnni"].contains(&selected_int8().name()));
        // VNNI implies the narrower feature reports agree.
        if avx512_vnni_available() {
            assert!(avx512f_available() && avx512bw_available());
        }
    }
}
