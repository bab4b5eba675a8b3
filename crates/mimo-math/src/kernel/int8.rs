//! Third kernel tier: integer (u8 x i8 -> i32) GEMM for quantized tail
//! weights.
//!
//! Quantizing a tail layer's weights to int8 shrinks the stream the GEMM
//! reads 4x and lets one `vpdpbusd` retire 64 multiply-adds, and this module
//! provides the matching integer microkernels behind the same
//! `SPLITBEAM_KERNEL` seam as the f32 tier. They have the shape of
//! [`super::packed`]: the weights are packed **once, at bind**, into
//! panel-major form ([`PackedInt8`]), and an `MR x NR` tile of `i32`
//! accumulators stays in registers over the **whole** depth, so each output
//! is written exactly once — dequantized, biased and activated on the way
//! out ([`gemm_u8i8_dequant`]) — with no `i32` matrix in between.
//!
//! | [`Int8Kernel`] | `MR x NR` | registers | group step |
//! |---|---|---|---|
//! | `Avx512Vnni` | 12 x 32 | 24 zmm accumulators + 2 weights + 1 broadcast | one `vpdpbusd` |
//! | `Avx2Maddubs` | 4 x 16 | 8 ymm accumulators + 2 weights + `ones` + broadcast + temporary | `maddubs` + `madd` + `add` |
//! | `Scalar` | any | — | the portable tile, the bit-exactness anchor |
//!
//! # Data layout
//!
//! The unit of every arm is the **K4 group**, the native shape of the VNNI
//! dot instruction: the 4 consecutive input channels of one output column,
//! adjacent in memory. A panel holds `NR` output columns; its groups follow
//! one another `4 * NR` bytes apart:
//!
//! ```text
//! packed[((p * groups + g) * NR + c) * 4 + q] = wq[4g + q][p * NR + c]   (zero past k and n)
//! ```
//!
//! [`gemm_u8i8_i32`] takes the older K4-row operand of [`pack_weights_k4`]
//! instead — one "panel" as wide as the matrix — and drives the *same* tiles
//! over it: the only difference is the distance between two groups of a
//! column (`4 * n` bytes, not `4 * NR`), which a tile takes as a parameter.
//!
//! Activations are quantized to **u7** (`0..=127`) per row: with both
//! operands bounded by 127, a `maddubs` pair sum is at most `2*127*127 =
//! 32258 < i16::MAX`, so the AVX2 arm can never saturate and stays exact.
//! Activation rows are zero-padded to [`padded_k`] bytes; the padded products
//! are exact zeros in every arm.
//!
//! # Exactness
//!
//! Every arm accumulates the same `u8 x i8` products into `i32`, and integer
//! addition is associative, so the sums are equal by construction. The
//! dequantizing store then evaluates, per element, the one f32 expression
//! `acc as f32 * ws[j] * a_scale + (a_min * corr[j] + bias[j])` — the same
//! operations in the same order in every arm, individually rounded (no FMA
//! contraction) — so outputs are **bit-identical across backends, layouts
//! and batch shapes**, pinned by the tests below, not by tolerance.
//!
//! # Overflow
//!
//! A full `i32` accumulator over `k` groups is bounded by `127 * 127 * k`;
//! the largest tail layer in the workspace has `k = 4356`, giving `~7.0e7`,
//! five orders of magnitude inside `i32` range.

use super::packed::{PackedWidth, Panels};
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
/// K4-row operand of [`gemm_u8i8_i32`]:
/// `packed[(g*n + j)*4 + q] = wq[(4g+q)*n + j]`, zero-padded past `k`. The
/// returned buffer has `padded_k(k) * n` bytes.
pub fn pack_weights_k4(wq: &[i8], k: usize, n: usize) -> Vec<i8> {
    assert_eq!(wq.len(), k * n, "pack_weights_k4 shape mismatch");
    let mut packed = vec![0i8; padded_k(k) * n];
    for (row, codes) in wq.chunks_exact(n.max(1)).enumerate() {
        for (j, &code) in codes.iter().enumerate() {
            packed[(row / 4 * n + j) * 4 + row % 4] = code;
        }
    }
    packed
}

/// Quantized weights (`k x n`, row = input channel) packed panel-major in K4
/// groups for [`gemm_u8i8_dequant`] (layout in the module docs). Immutable
/// after packing, and the only copy of the codes a bound layer keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedInt8 {
    k: usize,
    n: usize,
    width: PackedWidth,
    /// `n.div_ceil(NR)` panels of `padded_k(k) * NR` bytes.
    data: Panels<i8, 64>,
}

impl PackedInt8 {
    /// Packs the codes `code(row, col)` yields — asked once per element of
    /// the `k x n` matrix, panel by panel — straight into place, so binding
    /// a layer needs no row-major copy of its codes. `width` is
    /// [`PackedWidth::detect`] in production; every arm multiplies either
    /// width correctly.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn pack(
        k: usize,
        n: usize,
        width: PackedWidth,
        mut code: impl FnMut(usize, usize) -> i8,
    ) -> Self {
        assert!(k > 0 && n > 0, "packed int8 dimensions must be non-zero");
        let nr = width.nr();
        let panel_bytes = padded_k(k) * nr;
        let mut data = Panels::zeroed(n.div_ceil(nr) * panel_bytes);
        for (p, panel) in data.chunks_exact_mut(panel_bytes).enumerate() {
            let j0 = p * nr;
            for row in 0..k {
                let group = &mut panel[row / 4 * nr * 4..][..nr * 4];
                for c in 0..nr.min(n - j0) {
                    group[c * 4 + row % 4] = code(row, j0 + c);
                }
            }
        }
        Self { k, n, width, data }
    }

    /// Inner dimension (rows of the unpacked matrix).
    pub fn inner_dim(&self) -> usize {
        self.k
    }

    /// Output width (columns of the unpacked matrix).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Bytes a product streams: the codes plus the zero padding of the last
    /// group and the last panel.
    pub fn bytes(&self) -> usize {
        self.data.len()
    }
}

/// The right-hand side as the tiles see it: `groups` K4 groups of `n`
/// columns, laid out in panels of `panel_cols` columns (`NR` for
/// [`PackedInt8`], `n` for the K4-row operand).
#[derive(Clone, Copy)]
struct Rhs<'a> {
    data: &'a [i8],
    groups: usize,
    n: usize,
    panel_cols: usize,
}

/// The operands of one register tile: `mr` rows of activation codes against
/// `cols` columns of one panel, over the whole depth.
///
/// A tile function's caller vouches that `a` is valid for `mr` rows of
/// `4 * groups` bytes, `b` for `4 * cols` bytes at each of `groups` offsets
/// `stride` apart, and the [`Sink`] for `cols` lanes in each of `mr` rows
/// (per-row and per-column operands alike), with `1 <= mr <= MR` and
/// `cols <= NR` for the arm's `MR x NR`.
#[derive(Clone, Copy)]
struct Tile {
    a: *const u8,
    mr: usize,
    groups: usize,
    b: *const i8,
    /// Bytes from one K4 group of these columns to the next.
    stride: usize,
    cols: usize,
    /// Row stride of the sink's output.
    n: usize,
}

/// Where a tile's finished sums go.
#[derive(Clone, Copy)]
enum Sink {
    /// Stored as they are ([`gemm_u8i8_i32`]).
    Sums(*mut i32),
    /// Dequantized on the way out ([`gemm_u8i8_dequant`]):
    /// `out = acc as f32 * col_scale * row_scale + (row_min * corr + bias)`.
    Dequant {
        out: *mut f32,
        row_scale: *const f32,
        row_min: *const f32,
        col_scale: *const f32,
        corr: *const f32,
        bias: *const f32,
    },
}

type TileFn = unsafe fn(tile: Tile, sink: Sink);

/// One register tile's worth of a product, ready but for its [`Sink`]:
/// rows `r..r + tile.mr`, columns `j0..j0 + tile.cols`.
struct Pending {
    run: TileFn,
    tile: Tile,
    r: usize,
    j0: usize,
}

impl Pending {
    /// # Safety
    /// `sink` must satisfy [`Tile`]'s contract for this tile's rows and
    /// columns.
    unsafe fn store(&self, sink: Sink) {
        // SAFETY: `for_each_tile` built `tile` from in-bounds slices and
        // feature-checked `run`; the caller vouches for `sink`.
        unsafe { (self.run)(self.tile, sink) }
    }
}

/// The loop nest every product shares — panel-outer, so a panel stays
/// cache-resident while every row tile of the batch runs against it — handing
/// each tile to `emit`. An arm narrower than a panel walks it in `NR`-column
/// blocks; a wider one runs with its upper lanes masked off.
fn for_each_tile(
    kernel: Int8Kernel,
    a: &[u8],
    rows: usize,
    rhs: Rhs<'_>,
    mut emit: impl FnMut(Pending),
) {
    let (run, mr_max, nr): (TileFn, usize, usize) = match kernel {
        #[cfg(target_arch = "x86_64")]
        Int8Kernel::Avx512Vnni if avx512_vnni_available() => (x86::rows_vnni, 12, 32),
        #[cfg(target_arch = "x86_64")]
        Int8Kernel::Avx2Maddubs if avx2_available() => (x86::rows_avx2, 4, 16),
        // The portable tile takes any shape; this one is as good as any.
        _ => (tile_portable, 12, 32),
    };
    let Rhs { groups, n, .. } = rhs;
    let stride = 4 * rhs.panel_cols;
    for (p, panel) in rhs.data.chunks_exact(groups * stride).enumerate() {
        let p0 = p * rhs.panel_cols;
        let panel_cols = rhs.panel_cols.min(n - p0);
        for c0 in (0..panel_cols).step_by(nr) {
            let cols = nr.min(panel_cols - c0);
            for r in (0..rows).step_by(mr_max) {
                let mr = mr_max.min(rows - r);
                let tile = Tile {
                    a: a[4 * groups * r..4 * groups * (r + mr)].as_ptr(),
                    mr,
                    groups,
                    b: panel[4 * c0..(groups - 1) * stride + 4 * (c0 + cols)].as_ptr(),
                    stride,
                    cols,
                    n,
                };
                let j0 = p0 + c0;
                emit(Pending { run, tile, r, j0 });
            }
        }
    }
}

/// Integer GEMM `out = a * b` (overwrite — `out` need not be zeroed): `a` is
/// `rows x k_pad` unsigned u7 activations (row-major, zero-padded), `b` is
/// K4-row-packed i8 weights for depth `k_pad` over `n` output columns
/// ([`pack_weights_k4`]), `out` is `rows x n` i32.
///
/// Runs the register tiles of [`gemm_u8i8_dequant`] with their sums stored
/// raw; every arm computes identical `i32` sums, so outputs are
/// **bit-identical across backends and batch shapes**.
///
/// # Panics
/// Panics when `k_pad` is zero or not a multiple of 4, `n` is zero, or any
/// slice length disagrees with the dimensions.
pub fn gemm_u8i8_i32(
    kernel: Int8Kernel,
    a: &[u8],
    b: &[i8],
    out: &mut [i32],
    rows: usize,
    k_pad: usize,
    n: usize,
) {
    assert!(
        k_pad > 0 && k_pad.is_multiple_of(4) && n > 0,
        "gemm_u8i8_i32 needs a non-zero 4-padded depth and a non-zero width"
    );
    assert_eq!(a.len(), rows * k_pad, "gemm_u8i8_i32 lhs length mismatch");
    assert_eq!(b.len(), k_pad * n, "gemm_u8i8_i32 rhs length mismatch");
    assert_eq!(out.len(), rows * n, "gemm_u8i8_i32 out length mismatch");
    let rhs = Rhs {
        data: b,
        groups: k_pad / 4,
        n,
        panel_cols: n,
    };
    for_each_tile(kernel, a, rows, rhs, |t| {
        let first = t.r * n + t.j0;
        let sums = out[first..first + (t.tile.mr - 1) * n + t.tile.cols].as_mut_ptr();
        // SAFETY: `sums` spans the tile's `cols` lanes in each of its `mr`
        // rows, `n` apart.
        unsafe { t.store(Sink::Sums(sums)) };
    });
}

/// The per-row and per-column terms of the dequantizing store, in the
/// notation of `neural::quant`: activation row `r` is
/// `row_min[r] + code * row_scale[r]`, weight column `j` is
/// `code * col_scale[j]`, and `corr[j]` is the column's code sum times its
/// scale (the activation zero-point correction).
#[derive(Debug, Clone, Copy)]
pub struct Dequant<'a> {
    pub row_scale: &'a [f32],
    pub row_min: &'a [f32],
    pub col_scale: &'a [f32],
    pub corr: &'a [f32],
    pub bias: &'a [f32],
}

/// Fused quantized dense product
/// `out = act(acc as f32 * col_scale[j] * row_scale[r] + (row_min[r] * corr[j] + bias[j]))`
/// with `acc = a * b` in exact `i32`: `a` is `rows x padded_k(k)` u7 codes
/// (row-major, zero-padded), `b` the packed `k x n` weights, `out` is
/// `rows x n` row-major. `out` is **overwritten** (it need not be zeroed) and
/// each element is written once, `act` applied while its tile is still in L1.
///
/// Bit-identical for every `kernel`, packing width and batch shape (see the
/// module docs).
///
/// # Panics
/// Panics if a slice length disagrees with `b`'s dimensions.
pub fn gemm_u8i8_dequant<F: Fn(f32) -> f32>(
    kernel: Int8Kernel,
    a: &[u8],
    b: &PackedInt8,
    deq: Dequant<'_>,
    act: F,
    out: &mut [f32],
) {
    let (k_pad, n) = (padded_k(b.k), b.n);
    assert_eq!(a.len() % k_pad, 0, "gemm_u8i8_dequant lhs length mismatch");
    let rows = a.len() / k_pad;
    assert_eq!(out.len(), rows * n, "gemm_u8i8_dequant out length mismatch");
    assert!(
        deq.row_scale.len() == rows && deq.row_min.len() == rows,
        "gemm_u8i8_dequant row term length mismatch"
    );
    assert!(
        deq.col_scale.len() == n && deq.corr.len() == n && deq.bias.len() == n,
        "gemm_u8i8_dequant column term length mismatch"
    );
    let rhs = Rhs {
        data: &b.data,
        groups: k_pad / 4,
        n,
        panel_cols: b.width.nr(),
    };
    for_each_tile(kernel, a, rows, rhs, |t| {
        let (r, j0, mr, cols) = (t.r, t.j0, t.tile.mr, t.tile.cols);
        let sink = Sink::Dequant {
            out: out[r * n + j0..(r + mr - 1) * n + j0 + cols].as_mut_ptr(),
            row_scale: deq.row_scale[r..r + mr].as_ptr(),
            row_min: deq.row_min[r..r + mr].as_ptr(),
            col_scale: deq.col_scale[j0..j0 + cols].as_ptr(),
            corr: deq.corr[j0..j0 + cols].as_ptr(),
            bias: deq.bias[j0..j0 + cols].as_ptr(),
        };
        // SAFETY: the slices just taken are exactly the `mr` row terms, the
        // `cols` column terms and the output lanes the tile stores to.
        unsafe { t.store(sink) };
        for row in out[r * n..(r + mr) * n].chunks_exact_mut(n) {
            for o in &mut row[j0..j0 + cols] {
                *o = act(*o);
            }
        }
    });
}

/// The scalar backend, and the arm every vector tile must equal bit for bit:
/// per element, ascending groups, then the dequantizing expression as
/// written.
///
/// # Safety
/// `t` and `sink` must satisfy [`Tile`]'s contract (any `mr`, any `cols`).
unsafe fn tile_portable(t: Tile, sink: Sink) {
    for r in 0..t.mr {
        for c in 0..t.cols {
            let mut acc = 0i32;
            for g in 0..t.groups {
                for q in 0..4 {
                    // SAFETY: `r < mr`, `g < groups`, `c < cols`, `q < 4`:
                    // inside the ranges the caller vouches for.
                    acc += unsafe {
                        i32::from(*t.a.add((r * t.groups + g) * 4 + q))
                            * i32::from(*t.b.add(g * t.stride + c * 4 + q))
                    };
                }
            }
            // SAFETY: as above; output rows are `n` apart.
            unsafe {
                match sink {
                    Sink::Sums(out) => *out.add(r * t.n + c) = acc,
                    Sink::Dequant {
                        out,
                        row_scale,
                        row_min,
                        col_scale,
                        corr,
                        bias,
                    } => {
                        *out.add(r * t.n + c) = acc as f32 * *col_scale.add(c) * *row_scale.add(r)
                            + (*row_min.add(r) * *corr.add(c) + *bias.add(c));
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Sink, Tile};
    use core::arch::x86_64::{
        __m256i, __m512i, _mm256_add_epi32, _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_cvtepi32_ps,
        _mm256_madd_epi16, _mm256_maddubs_epi16, _mm256_maskload_epi32, _mm256_maskload_ps,
        _mm256_maskstore_epi32, _mm256_maskstore_ps, _mm256_mul_ps, _mm256_set1_epi16,
        _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_si256, _mm512_add_ps,
        _mm512_cvtepi32_ps, _mm512_dpbusd_epi32, _mm512_mask_storeu_epi32, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_epi32, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_epi32,
        _mm512_set1_ps, _mm512_setzero_si512,
    };

    /// The 4 activation codes of group `g` of row `r` as one broadcastable
    /// i32 lane.
    ///
    /// # Safety
    /// `r` and `g` must lie inside the rows and groups [`Tile`] vouches for.
    #[inline(always)]
    unsafe fn quad(t: &Tile, r: usize, g: usize) -> i32 {
        // SAFETY: group `g` of row `r` is 4 readable bytes per the caller.
        unsafe {
            t.a.add((r * t.groups + g) * 4)
                .cast::<i32>()
                .read_unaligned()
        }
    }

    /// `mr <= 12` rows against `cols <= 32` columns.
    ///
    /// # Safety
    /// Requires `avx512f/bw/vl/vnni`; `t` and `sink` must satisfy [`Tile`]'s
    /// contract at `12 x 32`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    pub(super) unsafe fn rows_vnni(t: Tile, sink: Sink) {
        // SAFETY: the caller's contract is `tile_vnni::<mr>`'s.
        unsafe { tile_by_rows!(tile_vnni(t, sink), t.mr, [1 2 3 4 5 6 7 8 9 10 11 12]) }
    }

    /// The VNNI microkernel: an `MR x 32` tile of `i32` sums (two zmm per
    /// row) held in registers over the whole depth; each group loads its 32
    /// columns once and feeds `2 * MR` `vpdpbusd` from `MR` broadcasts.
    /// Columns past `cols` are masked out of every load and store.
    ///
    /// # Safety
    /// As [`rows_vnni`], with `t.mr == MR`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    unsafe fn tile_vnni<const MR: usize>(t: Tile, sink: Sink) {
        let mask = ((1u64 << t.cols) - 1) as u32;
        let masks = [mask as u16, (mask >> 16) as u16];
        let mut acc: [[__m512i; 2]; MR] = [[_mm512_setzero_si512(); 2]; MR];
        // `wrapping_add` below: with `cols <= 16` the upper half is fully
        // masked off and its address may lie past the buffers.
        //
        // SAFETY: activation reads are at `r < MR`, `g < groups`; weight
        // loads and every sink access are masked to `cols` lanes — all
        // inside the ranges the caller vouches for.
        unsafe {
            for g in 0..t.groups {
                let w = t.b.add(g * t.stride);
                let w0 = _mm512_maskz_loadu_epi32(masks[0], w.cast());
                let w1 = _mm512_maskz_loadu_epi32(masks[1], w.wrapping_add(64).cast());
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let q = _mm512_set1_epi32(quad(&t, r, g));
                    acc_row[0] = _mm512_dpbusd_epi32(acc_row[0], q, w0);
                    acc_row[1] = _mm512_dpbusd_epi32(acc_row[1], q, w1);
                }
            }
            match sink {
                Sink::Sums(out) => {
                    for (r, acc_row) in acc.iter().enumerate() {
                        let o = out.add(r * t.n);
                        _mm512_mask_storeu_epi32(o, masks[0], acc_row[0]);
                        _mm512_mask_storeu_epi32(o.wrapping_add(16), masks[1], acc_row[1]);
                    }
                }
                Sink::Dequant {
                    out,
                    row_scale,
                    row_min,
                    col_scale,
                    corr,
                    bias,
                } => {
                    for (half, &mask) in masks.iter().enumerate() {
                        let lane = 16 * half;
                        let ws = _mm512_maskz_loadu_ps(mask, col_scale.wrapping_add(lane));
                        let corr = _mm512_maskz_loadu_ps(mask, corr.wrapping_add(lane));
                        let bias = _mm512_maskz_loadu_ps(mask, bias.wrapping_add(lane));
                        for (r, acc_row) in acc.iter().enumerate() {
                            let a_scale = _mm512_set1_ps(*row_scale.add(r));
                            let a_min = _mm512_set1_ps(*row_min.add(r));
                            // Separate multiplies and adds, in the portable
                            // tile's order: an FMA would round differently.
                            let scaled = _mm512_mul_ps(
                                _mm512_mul_ps(_mm512_cvtepi32_ps(acc_row[half]), ws),
                                a_scale,
                            );
                            let offset = _mm512_add_ps(_mm512_mul_ps(a_min, corr), bias);
                            let o = out.add(r * t.n).wrapping_add(lane);
                            _mm512_mask_storeu_ps(o, mask, _mm512_add_ps(scaled, offset));
                        }
                    }
                }
            }
        }
    }

    /// `mr <= 4` rows against `cols <= 16` columns.
    ///
    /// # Safety
    /// Requires `avx2`; `t` and `sink` must satisfy [`Tile`]'s contract at
    /// `4 x 16`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rows_avx2(t: Tile, sink: Sink) {
        // SAFETY: the caller's contract is `tile_avx2::<mr>`'s.
        unsafe { tile_by_rows!(tile_avx2(t, sink), t.mr, [1 2 3 4]) }
    }

    /// The AVX2 microkernel: [`tile_vnni`] at `MR x 16` on ymm registers,
    /// `maddubs` + `madd` + `add` per group in place of `vpdpbusd` (exact on
    /// u7 x i8, see the module docs).
    ///
    /// # Safety
    /// As [`rows_avx2`], with `t.mr == MR`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tile_avx2<const MR: usize>(t: Tile, sink: Sink) {
        let limit = _mm256_set1_epi32(t.cols as i32);
        let masks = [
            _mm256_cmpgt_epi32(limit, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
            _mm256_cmpgt_epi32(limit, _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15)),
        ];
        let ones = _mm256_set1_epi16(1);
        let mut acc: [[__m256i; 2]; MR] = [[_mm256_setzero_si256(); 2]; MR];
        // SAFETY: as `tile_vnni` (`maskload`/`maskstore` do not touch
        // masked-off memory).
        unsafe {
            for g in 0..t.groups {
                let w = t.b.add(g * t.stride);
                let w0 = _mm256_maskload_epi32(w.cast(), masks[0]);
                let w1 = _mm256_maskload_epi32(w.wrapping_add(32).cast(), masks[1]);
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let q = _mm256_set1_epi32(quad(&t, r, g));
                    let s0 = _mm256_madd_epi16(_mm256_maddubs_epi16(q, w0), ones);
                    let s1 = _mm256_madd_epi16(_mm256_maddubs_epi16(q, w1), ones);
                    acc_row[0] = _mm256_add_epi32(acc_row[0], s0);
                    acc_row[1] = _mm256_add_epi32(acc_row[1], s1);
                }
            }
            match sink {
                Sink::Sums(out) => {
                    for (r, acc_row) in acc.iter().enumerate() {
                        let o = out.add(r * t.n);
                        _mm256_maskstore_epi32(o, masks[0], acc_row[0]);
                        _mm256_maskstore_epi32(o.wrapping_add(8), masks[1], acc_row[1]);
                    }
                }
                Sink::Dequant {
                    out,
                    row_scale,
                    row_min,
                    col_scale,
                    corr,
                    bias,
                } => {
                    for (half, &mask) in masks.iter().enumerate() {
                        let lane = 8 * half;
                        let ws = _mm256_maskload_ps(col_scale.wrapping_add(lane), mask);
                        let corr = _mm256_maskload_ps(corr.wrapping_add(lane), mask);
                        let bias = _mm256_maskload_ps(bias.wrapping_add(lane), mask);
                        for (r, acc_row) in acc.iter().enumerate() {
                            let a_scale = _mm256_set1_ps(*row_scale.add(r));
                            let a_min = _mm256_set1_ps(*row_min.add(r));
                            let scaled = _mm256_mul_ps(
                                _mm256_mul_ps(_mm256_cvtepi32_ps(acc_row[half]), ws),
                                a_scale,
                            );
                            let offset = _mm256_add_ps(_mm256_mul_ps(a_min, corr), bias);
                            let o = out.add(r * t.n).wrapping_add(lane);
                            _mm256_maskstore_ps(o, mask, _mm256_add_ps(scaled, offset));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const WIDTHS: [PackedWidth; 2] = [PackedWidth::Ymm, PackedWidth::Zmm];

    /// Every backend: one the host lacks falls back to the portable tile,
    /// which must pass all the same.
    const KERNELS: [Int8Kernel; 3] = [
        Int8Kernel::Scalar,
        Int8Kernel::Avx2Maddubs,
        Int8Kernel::Avx512Vnni,
    ];

    type Activation = fn(f32) -> f32;

    /// The epilogues the `neural` layer fuses, as plain functions.
    const ACTIVATIONS: [(&str, Activation); 4] = [
        ("identity", |v| v),
        ("relu", |v| v.max(0.0)),
        ("tanh", f32::tanh),
        ("leaky_relu", |v| if v >= 0.0 { v } else { 0.01 * v }),
    ];

    /// SplitMix64.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Values in `(-1, 1)`.
    fn floats(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| (mix(&mut state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
            .collect()
    }

    /// One quantized dense product: u7 activation rows (zero-padded to the
    /// K4 depth), row-major i8 codes over the full `-127..=127`, and the
    /// dequantization terms.
    struct Case {
        rows: usize,
        k: usize,
        n: usize,
        a: Vec<u8>,
        wq: Vec<i8>,
        row_scale: Vec<f32>,
        row_min: Vec<f32>,
        col_scale: Vec<f32>,
        corr: Vec<f32>,
        bias: Vec<f32>,
    }

    impl Case {
        /// With `specials`, every fourth row or so is a constant row
        /// (`scale == 0`) or has a NaN / infinite minimum.
        fn new(rows: usize, k: usize, n: usize, seed: u64, specials: bool) -> Self {
            const SPECIAL: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            let mut state = seed;
            let k_pad = padded_k(k);
            let mut a = vec![0u8; rows * k_pad];
            for row in a.chunks_exact_mut(k_pad) {
                for code in &mut row[..k] {
                    *code = (mix(&mut state) % 128) as u8;
                }
            }
            let wq = (0..k * n)
                .map(|_| ((mix(&mut state) % 255) as i64 - 127) as i8)
                .collect();
            let mut row_scale: Vec<f32> = floats(rows, seed ^ 1).iter().map(|v| v.abs()).collect();
            let mut row_min = floats(rows, seed ^ 2);
            if specials {
                for r in 0..rows {
                    match mix(&mut state) % 8 {
                        0 => row_scale[r] = 0.0,
                        1 => row_min[r] = SPECIAL[(mix(&mut state) % 3) as usize],
                        _ => {}
                    }
                }
            }
            Self {
                rows,
                k,
                n,
                a,
                wq,
                row_scale,
                row_min,
                col_scale: floats(n, seed ^ 3),
                corr: floats(n, seed ^ 4),
                bias: floats(n, seed ^ 5),
            }
        }

        /// The plain unpacked triple loop — independent of every packed
        /// layout, so it cross-checks the packers and every arm at once.
        fn sums(&self) -> Vec<i32> {
            let (k_pad, n) = (padded_k(self.k), self.n);
            let mut out = vec![0i32; self.rows * n];
            for r in 0..self.rows {
                for j in 0..n {
                    out[r * n + j] = (0..self.k)
                        .map(|c| i32::from(self.a[r * k_pad + c]) * i32::from(self.wq[c * n + j]))
                        .sum();
                }
            }
            out
        }

        /// What the served int8 tail computed before the tile dequantized in
        /// its store: the integer GEMM into an `i32` matrix, then the
        /// epilogue sweep — kept here, expression for expression, as the
        /// oracle every arm must equal bit for bit.
        fn oracle(&self, act: Activation) -> Vec<u32> {
            let n = self.n;
            let acc = self.sums();
            let mut out = vec![0u32; acc.len()];
            for r in 0..self.rows {
                let a_scale = self.row_scale[r];
                let a_min = self.row_min[r];
                for j in 0..n {
                    let real = acc[r * n + j] as f32 * self.col_scale[j] * a_scale
                        + (a_min * self.corr[j] + self.bias[j]);
                    out[r * n + j] = act(real).to_bits();
                }
            }
            out
        }

        fn pack(&self, width: PackedWidth) -> PackedInt8 {
            PackedInt8::pack(self.k, self.n, width, |r, j| self.wq[r * self.n + j])
        }

        fn dequant(&self, kernel: Int8Kernel, width: PackedWidth, act: Activation) -> Vec<u32> {
            let deq = Dequant {
                row_scale: &self.row_scale,
                row_min: &self.row_min,
                col_scale: &self.col_scale,
                corr: &self.corr,
                bias: &self.bias,
            };
            // A dirty `out` proves every element is overwritten.
            let mut out = vec![f32::NAN; self.rows * self.n];
            gemm_u8i8_dequant(kernel, &self.a, &self.pack(width), deq, act, &mut out);
            out.iter().map(|v| v.to_bits()).collect()
        }

        fn assert_every_arm_equals_the_oracle(&self, name: &str, act: Activation) {
            let want = self.oracle(act);
            let (rows, k, n) = (self.rows, self.k, self.n);
            for kernel in KERNELS {
                for width in WIDTHS {
                    let got = self.dequant(kernel, width, act);
                    assert_eq!(got, want, "{kernel:?} {width:?} {name} {rows}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn pack_weights_k4_layout_and_padding() {
        let (k, n) = (6, 3);
        let wq = Case::new(0, k, n, 1, false).wq;
        let packed = pack_weights_k4(&wq, k, n);
        assert_eq!(packed.len(), padded_k(k) * n);
        for (i, &v) in packed.iter().enumerate() {
            let (g, j, q) = (i / (4 * n), i / 4 % n, i % 4);
            let want = if 4 * g + q < k {
                wq[(4 * g + q) * n + j]
            } else {
                0
            };
            assert_eq!(v, want, "g={g} j={j} q={q}");
        }
        assert_eq!(padded_k(0), 0);
        assert_eq!(padded_k(1), 4);
        assert_eq!(padded_k(4), 4);
        assert_eq!(padded_k(5), 8);
    }

    #[test]
    fn packing_is_panel_major_k4_zero_padded_and_cache_line_aligned() {
        let (k, n) = (6usize, 37usize);
        let case = Case::new(0, k, n, 2, false);
        for width in WIDTHS {
            let nr = width.nr();
            let packed = case.pack(width);
            assert_eq!((packed.inner_dim(), packed.cols()), (k, n));
            assert_eq!(packed.bytes(), n.div_ceil(nr) * padded_k(k) * nr);
            for (i, &v) in packed.data.iter().enumerate() {
                let groups = padded_k(k) / 4;
                let (p, g, c, q) = (
                    i / (4 * groups * nr),
                    i / (4 * nr) % groups,
                    i / 4 % nr,
                    i % 4,
                );
                let (row, j) = (4 * g + q, p * nr + c);
                let want = if row < k && j < n {
                    case.wq[row * n + j]
                } else {
                    0
                };
                assert_eq!(v, want, "{width:?} panel {p} group {g} lane {c} byte {q}");
            }
            // The allocator is asked for the alignment, so a clone — every
            // served model holds one — keeps it.
            assert_eq!(packed.data.as_ptr() as usize % 64, 0, "{width:?}");
            assert_eq!(
                packed.clone().data.as_ptr() as usize % 64,
                0,
                "{width:?} clone"
            );
        }
    }

    /// Every const-generic instance of both microkernels (`rows_vnni` →
    /// `tile_vnni::<1..=12>`, `rows_avx2` → `tile_avx2::<1..=4>`) at every
    /// partial width, at the panel-major and the K4-row group stride, into
    /// both sinks, against the portable tile — and the lanes past `cols`,
    /// like the rows past `mr`, must keep what they held.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_register_tile_matches_the_portable_tile_and_stays_inside_its_mask() {
        const GUARD: u32 = 0x40e8_0000;
        let groups = 5usize;
        let arms: [(TileFn, usize, usize, bool); 2] = [
            (x86::rows_vnni, 12, 32, avx512_vnni_available()),
            (x86::rows_avx2, 4, 16, avx2_available()),
        ];
        for (vector, mr_max, nr, available) in arms {
            if !available {
                continue;
            }
            // One spare row and `nr` spare columns of guard around the tile.
            let n = 2 * nr;
            let case = Case::new(mr_max, 4 * groups, n, 11, true);
            for stride in [4 * nr, 4 * n] {
                let b = &case.wq[..groups * stride];
                for mr in 1..=mr_max {
                    for cols in 1..=nr {
                        let tile = Tile {
                            a: case.a.as_ptr(),
                            mr,
                            groups,
                            b: b.as_ptr(),
                            stride,
                            cols,
                            n,
                        };
                        let run = |arm: TileFn, dequant: bool| {
                            let mut out = vec![GUARD; (mr_max + 1) * n];
                            let sink = if dequant {
                                Sink::Dequant {
                                    out: out.as_mut_ptr().cast(),
                                    row_scale: case.row_scale.as_ptr(),
                                    row_min: case.row_min.as_ptr(),
                                    col_scale: case.col_scale[..cols].as_ptr(),
                                    corr: case.corr[..cols].as_ptr(),
                                    bias: case.bias[..cols].as_ptr(),
                                }
                            } else {
                                Sink::Sums(out.as_mut_ptr().cast())
                            };
                            // SAFETY: `vector` runs only when its features
                            // were detected above; `a` holds `mr_max >= mr`
                            // rows of `groups` quads, `b` `groups` strides
                            // of at least `4 * nr` bytes, the row terms
                            // `mr_max` and the column terms `cols` entries,
                            // and `out` `mr_max + 1` rows of `n >= cols`
                            // 4-byte lanes.
                            unsafe { arm(tile, sink) };
                            out
                        };
                        for dequant in [false, true] {
                            let got = run(vector, dequant);
                            let label = format!("{nr}-wide stride={stride} mr={mr} cols={cols}");
                            assert_eq!(got, run(tile_portable, dequant), "{label}");
                            for (i, &v) in got.iter().enumerate() {
                                if i / n >= mr || i % n >= cols {
                                    assert_eq!(v, GUARD, "{label} dequant={dequant} @{i}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_row_count_matches_the_parent_formula_bitwise() {
        let (name, identity) = ACTIVATIONS[0];
        for (k, n) in [(1usize, 1usize), (7, 33), (56, 224)] {
            for rows in 0..=27usize {
                Case::new(rows, k, n, 5 + rows as u64, true)
                    .assert_every_arm_equals_the_oracle(name, identity);
            }
        }
    }

    #[test]
    fn saturating_codes_over_the_deepest_layer_stay_exact() {
        // 127 x ±127 over the workspace's largest depth: the extreme that
        // would saturate `maddubs` if activations were full u8, and the
        // largest sums the i32 -> f32 narrowing of the store ever sees.
        let (rows, k, n) = (5usize, 4356usize, 35usize);
        let mut case = Case::new(rows, k, n, 9, true);
        case.a.fill(127);
        for (i, w) in case.wq.iter_mut().enumerate() {
            *w = if i % n % 2 == 0 { 127 } else { -127 };
        }
        assert!(case.sums().iter().all(|&s| s.abs() == 127 * 127 * k as i32));
        for (name, act) in ACTIVATIONS {
            case.assert_every_arm_equals_the_oracle(name, act);
        }
    }

    #[test]
    fn raw_sums_match_the_reference_and_overwrite_a_dirty_out() {
        // Shapes hit whole and ragged row tiles and the partial last block
        // of both vector arms, over the K4-row operand's `4 * n` stride.
        for (rows, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (6, 37, 41),
            (13, 64, 23),
            (2, 12, 100),
            (27, 31, 33),
        ] {
            let case = Case::new(rows, k, n, 7, false);
            let packed = pack_weights_k4(&case.wq, k, n);
            let want = case.sums();
            for kernel in KERNELS {
                let mut out = vec![5i32; rows * n];
                gemm_u8i8_i32(kernel, &case.a, &packed, &mut out, rows, padded_k(k), n);
                assert_eq!(out, want, "{kernel:?} rows={rows} k={k} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "column term length mismatch")]
    fn a_short_bias_is_rejected() {
        let mut case = Case::new(1, 2, 3, 1, false);
        case.bias.pop();
        case.dequant(Int8Kernel::Scalar, PackedWidth::detect(), |v| v);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every arm == the parent's GEMM-then-epilogue, bit for bit, at the
        /// tail's shapes and the panel-boundary widths around them, for
        /// depths that need K4 padding, every row-tile remainder, both
        /// packing widths, every fused activation, and constant rows and
        /// NaN / ±Inf row minima.
        #[test]
        fn prop_every_arm_equals_the_parent_formula_bitwise(
            rows in 0usize..=27,
            ki in 0usize..4,
            ni in 0usize..10,
            ai in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let k = [1usize, 7, 56, 545][ki];
            let n = [1usize, 15, 16, 17, 31, 32, 33, 224, 545, 1452][ni];
            let (name, act) = ACTIVATIONS[ai];
            let case = Case::new(rows, k, n, seed, seed % 2 == 0);
            let want = case.oracle(act);
            for kernel in KERNELS {
                for width in WIDTHS {
                    let got = case.dequant(kernel, width, act);
                    prop_assert_eq!(
                        &got, &want, "{:?} {:?} {} {}x{}x{}", kernel, width, name, rows, k, n
                    );
                }
            }
        }
    }
}
