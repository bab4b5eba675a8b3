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
//! | `Amx` | 32 x 32 | 2 x 2 `tmm` sums + 2 activation + 2 weight tiles | four `tdpbusd` a 16 groups (one 64-byte step) |
//! | `Avx512Vnni` | 12 x 32 | 24 zmm accumulators + 2 weights + 1 broadcast | one `vpdpbusd` |
//! | `Avx2Maddubs` | 4 x 16 | 8 ymm accumulators + 2 weights + `ones` + broadcast + temporary | `maddubs` + `madd` + `add` |
//! | `Scalar` | any | — | the portable tile, the bit-exactness anchor |
//!
//! # Data layout
//!
//! The unit of every arm is the **K4 group**, the native shape of the VNNI
//! dot instruction: the 4 consecutive input channels of one output column,
//! adjacent in memory. A panel holds `NR` output columns; its groups follow
//! one another `4 * NR` bytes apart, and it holds whole **steps** of 16
//! groups — the 64 bytes of depth one AMX tile row takes — so that every
//! step the AMX arm loads lies inside its panel and past `k` is zero:
//!
//! ```text
//! packed[((p * 16 * steps + g) * NR + c) * 4 + q] = wq[4g + q][p * NR + c]   (zero past k and n)
//! ```
//!
//! with `steps = k.div_ceil(64)`. The other arms read the `padded_k(k) / 4`
//! groups the depth has and step over the rest.
//!
//! [`gemm_u8i8_i32`] takes the older K4-row operand
//! (`packed[(g*n + j)*4 + q] = wq[(4g+q)*n + j]`) instead — one "panel" as
//! wide as the matrix — and drives the *same* tiles
//! over it: the only difference is the distance between two groups of a
//! column (`4 * n` bytes, not `4 * NR`), which a tile takes as a parameter.
//!
//! Activations are quantized to **u7** (`0..=127`) per row: with both
//! operands bounded by 127, a `maddubs` pair sum is at most `2*127*127 =
//! 32258 < i16::MAX`, so the AVX2 arm can never saturate and stays exact.
//! Activation rows ([`Lhs`]) start on a 64-byte boundary and span a whole
//! number of steps — what an AMX tile row is loaded from. What a row holds
//! past `k` meets zero weights in every arm, so those products are exact
//! zeros whatever it is.
//!
//! # Exactness
//!
//! Every arm accumulates the same `u8 x i8` products into `i32` (`tdpbusd`
//! is `vpdpbusd`'s sum, 16 x 16 outputs at a time), and integer addition is
//! associative, so the sums are equal by construction. The
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

use super::packed::{hand_out, unit, walk_panels, PackedWidth, Panels, RowBase, Rows, TileRows};
use super::Backend;
use std::ops::Range;

/// A concrete integer-GEMM backend: the [`Backend::int8`] view of a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Int8Kernel {
    /// Verbatim scalar reference — always available, the bit-exactness anchor.
    Scalar,
    /// AVX2 `maddubs`-style kernel (from [`Backend::Avx2`]).
    Avx2Maddubs,
    /// AVX-512 VNNI `dpbusd` kernel (from [`Backend::Vnni`]).
    Avx512Vnni,
    /// AMX `tdpbusd` tile kernel ([`Backend::Amx`]).
    Amx,
}

impl Int8Kernel {
    /// Stable lower-snake name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            Int8Kernel::Scalar => "scalar",
            Int8Kernel::Avx2Maddubs => "avx2_maddubs",
            Int8Kernel::Avx512Vnni => "avx512_vnni",
            Int8Kernel::Amx => "amx_int8",
        }
    }

    /// The level this arm runs at here: the lowest level whose
    /// [`Backend::int8`] it is, capped at [`Backend::host`].
    fn runs(self) -> Backend {
        Backend::lowest(self, Backend::int8)
    }
}

/// The integer backend the dispatched quantized paths use right now: the
/// [`Int8Kernel`] view of the backend in force, which [`super::selected`]
/// reads too (so `SPLITBEAM_KERNEL=scalar` pins *both* tiers).
pub fn selected_int8() -> Int8Kernel {
    super::in_force().1.int8()
}

/// The activation-row / packed-weight depth for a logical depth `k`: rounded
/// up to a whole number of 4-deep groups.
pub fn padded_k(k: usize) -> usize {
    k.div_ceil(4) * 4
}

/// K4 groups of one AMX depth step: the 64 bytes of a tile row.
const STEP_GROUPS: usize = 16;

/// The groups a panel of depth `k` holds: whole steps.
fn panel_groups(k: usize) -> usize {
    (padded_k(k) / 4).next_multiple_of(STEP_GROUPS)
}

/// The first group of the last step over `groups` groups.
fn last_step(groups: usize) -> usize {
    STEP_GROUPS * (groups.div_ceil(STEP_GROUPS) - 1)
}

/// Packs row-major quantized weights (`k x n`, row = input channel) into the
/// K4-row operand of [`gemm_u8i8_i32`]:
/// `packed[(g*n + j)*4 + q] = wq[(4g+q)*n + j]`, zero-padded past `k`. The
/// returned buffer has `padded_k(k) * n` bytes. The tests' packer: a caller
/// of [`gemm_u8i8_i32`] packs its own operand.
#[cfg(test)]
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
    /// `n.div_ceil(NR)` panels of `4 * panel_groups(k) * NR` bytes.
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
        let panel_bytes = 4 * panel_groups(k) * nr;
        let mut data = Panels::default();
        data.reset(n.div_ceil(nr) * panel_bytes);
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

    /// Bytes the packed codes take: the codes plus the zero padding of the
    /// last step and the last panel.
    pub fn bytes(&self) -> usize {
        self.data.len()
    }
}

/// The left-hand side of [`gemm_u8i8_dequant`]: `rows x k` u7 activation
/// codes, each row a whole number of 64-byte depth steps long and starting
/// on a 64-byte boundary — what the AMX arm loads a tile row from (a row
/// that straddles two cache lines halves its load rate). Reusable: a
/// [`Lhs::reset`] keeps the allocation; `Lhs::default()` is empty.
#[derive(Debug, Clone, Default)]
pub struct Lhs {
    rows: usize,
    k: usize,
    /// At least `rows` rows; what a reset kept past them is unused.
    data: Panels<u8, 64>,
}

impl Lhs {
    /// Reshapes to `rows x k` in the allocation it has, growing it — with
    /// zeros — only past the largest shape so far. The codes are left as
    /// they were: the caller writes the `k` codes of every row
    /// ([`Lhs::row_mut`]), and what a row holds past `k` — zeros, or
    /// another shape's codes — multiplies weights that are zero past `k` in
    /// every layout, so it adds exact zeros. Nothing is cleared, so a served
    /// close does not re-own the lines another core's tiles last read.
    pub fn reset(&mut self, rows: usize, k: usize) {
        (self.rows, self.k) = (rows, k);
        self.data.grow(rows * self.stride());
    }

    /// The `k` codes of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [u8] {
        let stride = self.stride();
        &mut self.data[r * stride..][..self.k]
    }

    /// Bytes from one row to the next.
    fn stride(&self) -> usize {
        self.k.next_multiple_of(64)
    }

    /// The `rows` rows, `stride` bytes apart.
    fn codes(&self) -> &[u8] {
        &self.data[..self.rows * self.stride()]
    }
}

/// The right-hand side as the tiles see it: `groups` K4 groups of `n`
/// columns, laid out in panels of `panel_cols` columns (`NR` for
/// [`PackedInt8`], `n` for the K4-row operand) that hold `panel_groups`
/// groups each. The AMX arm reads whole steps: a [`PackedInt8`] panel holds
/// them; the K4-row operand's last step is `last`, a zero-padded copy.
#[derive(Clone, Copy)]
struct Rhs<'a> {
    data: &'a [i8],
    groups: usize,
    panel_groups: usize,
    n: usize,
    panel_cols: usize,
    last: Option<&'a [i8]>,
}

/// The operands of one register tile: `mr` rows of activation codes against
/// `cols` columns of one panel, over the whole depth.
///
/// A tile function's caller vouches that `a` is valid for `mr` rows of
/// `a_stride >= 4 * groups` bytes, `b` for `4 * cols` bytes at each of
/// `groups` offsets `stride` apart, and the [`Sink`] for `cols` lanes at
/// each of its first `mr` row addresses (per-row and per-column operands
/// alike), with `1 <= mr <= MR` and `cols <= NR` for the arm's `MR x NR`.
/// The AMX arm reads whole steps: `a_stride` is a multiple of 64, and of the
/// `groups.div_ceil(16)` steps it reads the last from `last` — 16 groups
/// `stride` apart, zero past `groups` — and the others from `b`.
#[derive(Clone, Copy)]
struct Tile {
    a: *const u8,
    a_stride: usize,
    mr: usize,
    groups: usize,
    b: *const i8,
    /// Bytes from one K4 group of these columns to the next.
    stride: usize,
    cols: usize,
    /// The last step's groups of these columns (the AMX arm's).
    last: *const i8,
}

/// Where a tile's finished sums go.
#[derive(Clone, Copy)]
enum Sink {
    /// Stored as they are ([`gemm_u8i8_i32`]).
    Sums(TileRows<i32>),
    /// Dequantized on the way out ([`gemm_u8i8_dequant`]).
    Dequant(Terms),
}

/// The dequantizing store of a tile,
/// `out = acc as f32 * col_scale * row_scale + (row_min * corr + bias)`:
/// row terms from the tile's first row, column terms from its first column.
#[derive(Clone, Copy)]
struct Terms {
    out: TileRows<f32>,
    row_scale: *const f32,
    row_min: *const f32,
    col_scale: *const f32,
    corr: *const f32,
    bias: *const f32,
}

type TileFn = unsafe fn(tile: Tile, sink: Sink);

/// A tile's output lanes: its rows and its columns of the product.
type Patch = (Range<usize>, Range<usize>);

/// The product size, in multiply-adds, from which [`gemm_u8i8_dequant`] hands
/// its panels out through the pool (see the README's kernel section for the
/// measured fork-join cost behind it).
const PAR_MIN_MACS: usize = 3 << 20;

/// The operands of a product as its tiles take them: activation rows
/// `a_stride` bytes apart against the panels of `rhs`.
#[derive(Clone, Copy)]
struct Operands<'a> {
    a: &'a [u8],
    a_stride: usize,
    rhs: Rhs<'a>,
}

impl Operands<'_> {
    /// Bytes from one K4 group of a panel's columns to the next.
    fn stride(&self) -> usize {
        4 * self.rhs.panel_cols
    }

    /// The tile of rows `r` against output columns `j` of panel `p`.
    fn tile(&self, p: usize, r: &Range<usize>, j: &Range<usize>) -> Tile {
        let Rhs {
            data,
            groups,
            panel_groups,
            panel_cols,
            last,
            ..
        } = self.rhs;
        let stride = self.stride();
        let panel = &data[p * panel_groups * stride..(p + 1) * panel_groups * stride];
        let c0 = j.start % panel_cols;
        Tile {
            a: self.a[self.a_stride * r.start..self.a_stride * r.end].as_ptr(),
            a_stride: self.a_stride,
            mr: r.len(),
            groups,
            b: panel[4 * c0..(groups - 1) * stride + 4 * (c0 + j.len())].as_ptr(),
            stride,
            cols: j.len(),
            // An address only: the arms below AMX never read it, and where
            // AMX runs `for_each_tile` checked that the step is whole.
            last: match last {
                Some(last) => last.as_ptr(),
                None => panel[last_step(groups) * stride..].as_ptr(),
            }
            .wrapping_add(4 * c0),
        }
    }
}

/// A claimant of a product's panels on the AMX arm: its tile state, and
/// `done`, which runs on each patch whose store has completed. Tile
/// configuration is per-thread state, so each claimant has its own, on its
/// stack (boxing the 4 KB of it would put an allocation into every
/// product). Dropping it — after the claimant's last part — completes the
/// store its last tile still holds and runs `done` on it, so every patch
/// is done before the hand-out returns; the state's own drop then releases
/// the tiles.
#[cfg(target_arch = "x86_64")]
struct Claimant<'d, D: Fn(Patch)> {
    product: x86::AmxProduct,
    done: &'d D,
}

#[cfg(target_arch = "x86_64")]
impl<D: Fn(Patch)> Drop for Claimant<'_, D> {
    fn drop(&mut self) {
        if let Some(patch) = self.product.flush() {
            (self.done)(patch);
        }
    }
}

/// Every tile of `a * rhs` on `kernel`'s arm, stored into `sink(patch)` —
/// the tile's rows and output columns — by the panel walk the f32 tail
/// shares ([`walk_panels`]), or, on the AMX arm, a claimant's panel in one
/// call ([`x86::amx_panel`]); `done(patch)` runs on each tile once
/// its store has completed, on the thread that ran it. `a` is activation
/// rows `a_stride >= 4 * rhs.groups` bytes apart. An arm narrower than a
/// panel walks it in `NR`-column blocks; a wider one runs with its upper
/// lanes masked off.
///
/// The AMX arm loads whole 64-byte steps of each row: where it runs, `a`
/// must be an [`Lhs`]'s rows.
///
/// # Safety
/// `sink(patch)` must satisfy [`Tile`]'s contract for the patch's rows and
/// columns, each patch's lanes written by its tile alone, until `done` has
/// run on it.
unsafe fn for_each_tile<D: Fn(Patch) + Sync>(
    kernel: Int8Kernel,
    ops: Operands<'_>,
    pooled: bool,
    sink: impl Fn(&Patch) -> Sink + Sync + Send,
    done: D,
) {
    let Rhs {
        groups,
        panel_groups,
        n,
        panel_cols,
        last,
        ..
    } = ops.rhs;
    let rows = ops.a.len() / ops.a_stride;
    let (run, shape): (TileFn, _) = match kernel.runs().int8() {
        #[cfg(target_arch = "x86_64")]
        Int8Kernel::Amx => {
            // Every panel's last step is whole: inside the panel or in
            // `last`, which holds the one panel's.
            let first = last_step(groups);
            let held = last.map_or(panel_groups, |last| first + last.len() / ops.stride());
            assert!(held >= first + STEP_GROUPS, "the AMX arm reads whole steps");
            let init = || Claimant {
                product: x86::AmxProduct::new(),
                done: &done,
            };
            hand_out(n.div_ceil(panel_cols), pooled, init, |claimant, p| {
                // SAFETY: the arm runs here, the tiles come from in-bounds
                // slices of whole steps, and the sink is the caller's.
                unsafe {
                    x86::amx_panel(&mut claimant.product, &ops, p, rows, &sink, claimant.done)
                };
            });
            return;
        }
        #[cfg(target_arch = "x86_64")]
        Int8Kernel::Avx512Vnni => (x86::rows_vnni, (12, 32)),
        #[cfg(target_arch = "x86_64")]
        Int8Kernel::Avx2Maddubs => (x86::rows_avx2, (4, 16)),
        // The portable tile takes any shape; this one is as good as any.
        _ => (tile_portable, (12, 32)),
    };
    walk_panels(rows, n, panel_cols, shape, pooled, unit, |_, p, r, j| {
        let tile = ops.tile(p, &r, &j);
        let patch = (r, j);
        // SAFETY: the tile was just built from in-bounds slices on a
        // feature-checked arm, and the sink is the caller's.
        unsafe { run(tile, sink(&patch)) };
        done(patch);
    });
}

/// Integer GEMM `out = a * b` (overwrite — `out` need not be zeroed): `a` is
/// `rows x k_pad` unsigned u7 activations (row-major, zero-padded), `b` is
/// K4-row-packed i8 weights for depth `k_pad` over `n` output columns
/// (see the module docs), `out` is `rows x n` i32.
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
    let groups = k_pad / 4;
    // The AMX arm loads whole 64-byte steps, so where it runs it reads the
    // activations, padding bytes and all, copied into an [`Lhs`], and the
    // weights' last step copied with zero groups past the depth; every
    // other arm reads both operands in place.
    let (mut lhs, mut last) = (Lhs::default(), Vec::new());
    let (a, a_stride) = if kernel.runs() == Backend::Amx {
        lhs.reset(rows, k_pad);
        for (r, row) in a.chunks_exact(k_pad).enumerate() {
            lhs.row_mut(r).copy_from_slice(row);
        }
        last.resize(4 * STEP_GROUPS * n, 0);
        let from = 4 * last_step(groups) * n;
        last[..b.len() - from].copy_from_slice(&b[from..]);
        (lhs.codes(), lhs.stride())
    } else {
        (a, k_pad)
    };
    let rhs = Rhs {
        data: b,
        groups,
        panel_groups: groups,
        n,
        panel_cols: n,
        last: (!last.is_empty()).then_some(&last[..]),
    };
    let out = RowBase::Strided(out.as_mut_ptr(), n);
    let sink = |(r, j): &Patch| Sink::Sums(out.tile(r.clone(), j.start));
    let ops = Operands { a, a_stride, rhs };
    // SAFETY: a patch's rows and columns address lanes of the `rows x n`
    // matrix `out` borrows for the whole call, each patch's its own. One
    // panel as wide as the matrix: nothing to hand out.
    unsafe { for_each_tile(kernel, ops, false, sink, |_| {}) };
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
/// with `acc = a * b` in exact `i32`: `a` is `rows x k` u7 codes, `b` the
/// packed `k x n` weights, `out` is `rows x n` — a row-major matrix or one
/// buffer a row ([`Rows`]). `out` is **overwritten** (it need not be
/// zeroed) and each element is written once, `act` applied while its tile
/// is still in L1.
///
/// Bit-identical for every `kernel`, packing width, batch shape and output
/// form (see the module docs).
///
/// # Panics
/// Panics if `a`'s depth or a slice length disagrees with `b`'s dimensions.
pub fn gemm_u8i8_dequant<'o, F: Fn(f32) -> f32 + Sync>(
    kernel: Int8Kernel,
    a: &Lhs,
    b: &PackedInt8,
    deq: Dequant<'_>,
    act: F,
    out: impl Into<Rows<'o>>,
) {
    dequant_product(kernel, a, b, deq, act, out.into(), PAR_MIN_MACS);
}

/// [`gemm_u8i8_dequant`] with the size from which the panels are handed out
/// as a parameter (the parity tests run every shape on both sides of it).
fn dequant_product<F: Fn(f32) -> f32 + Sync>(
    kernel: Int8Kernel,
    a: &Lhs,
    b: &PackedInt8,
    deq: Dequant<'_>,
    act: F,
    out: Rows<'_>,
    par_min_macs: usize,
) {
    let (rows, n) = (a.rows, b.n);
    assert_eq!(a.k, b.k, "gemm_u8i8_dequant lhs depth mismatch");
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
        groups: padded_k(b.k) / 4,
        panel_groups: panel_groups(b.k),
        n,
        panel_cols: b.width.nr(),
        last: None,
    };
    let a_stride = a.stride();
    out.runs((rows, n), |run, out| {
        let pooled = run.len() * 4 * rhs.groups * n >= par_min_macs;
        let (row_scale, row_min) = (&deq.row_scale[run.clone()], &deq.row_min[run.clone()]);
        let sink = |(r, j): &Patch| {
            Sink::Dequant(Terms {
                out: out.tile(r.clone(), j.start),
                row_scale: row_scale[r.clone()].as_ptr(),
                row_min: row_min[r.clone()].as_ptr(),
                col_scale: deq.col_scale[j.clone()].as_ptr(),
                corr: deq.corr[j.clone()].as_ptr(),
                bias: deq.bias[j.clone()].as_ptr(),
            })
        };
        // SAFETY: the lanes of a patch whose store has completed, which
        // only the thread that ran its tile touches.
        let done = |(r, j): Patch| unsafe { out.act(r, j, &act) };
        let a = &a.codes()[run.start * a_stride..run.end * a_stride];
        let ops = Operands { a, a_stride, rhs };
        // SAFETY: a patch's row and column terms are the slices the sink
        // takes, and its lanes — columns `j` of rows `r` of this run of the
        // output, which `out` borrows for the whole call — are its tile's
        // alone: a panel's, which one thread runs.
        unsafe { for_each_tile(kernel, ops, pooled, sink, done) };
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
                        i32::from(*t.a.add(r * t.a_stride + g * 4 + q))
                            * i32::from(*t.b.add(g * t.stride + c * 4 + q))
                    };
                }
            }
            // SAFETY: as above; row `r`'s address is good for `cols` lanes.
            unsafe {
                match sink {
                    Sink::Sums(out) => *out.row(r).add(c) = acc,
                    Sink::Dequant(d) => {
                        *d.out.row(r).add(c) =
                            acc as f32 * *d.col_scale.add(c) * *d.row_scale.add(r)
                                + (*d.row_min.add(r) * *d.corr.add(c) + *d.bias.add(c));
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::packed::TileRows;
    #[cfg(doc)]
    use super::Backend;
    use super::{Operands, Patch, Sink, Terms, Tile};
    use core::arch::asm;
    use core::arch::x86_64::{
        __m256i, __m512, __m512i, _mm256_add_epi32, _mm256_add_ps, _mm256_cmpgt_epi32,
        _mm256_cvtepi32_ps, _mm256_madd_epi16, _mm256_maddubs_epi16, _mm256_maskload_epi32,
        _mm256_maskload_ps, _mm256_maskstore_epi32, _mm256_maskstore_ps, _mm256_mul_ps,
        _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
        _mm256_setzero_si256, _mm512_add_ps, _mm512_cvtepi32_ps, _mm512_dpbusd_epi32,
        _mm512_mask_storeu_epi32, _mm512_mask_storeu_ps, _mm512_maskz_loadu_epi32,
        _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_epi32, _mm512_set1_ps,
        _mm512_setzero_si512,
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
            t.a.add(r * t.a_stride + g * 4)
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

    /// The two lane masks of a tile `cols <= 32` columns wide: columns
    /// `0..16` and `16..32`.
    fn lane_masks(cols: usize) -> [u16; 2] {
        let mask = ((1u64 << cols) - 1) as u32;
        [mask as u16, (mask >> 16) as u16]
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
        let masks = lane_masks(t.cols);
        let mut acc: [[__m512i; 2]; MR] = [[_mm512_setzero_si512(); 2]; MR];
        // `wrapping_add` below: with `cols <= 16` the upper half is fully
        // masked off and its address may lie past the buffers.
        //
        // SAFETY: activation reads are at `r < MR`, `g < groups`; weight
        // loads are masked to `cols` lanes — all inside the ranges the
        // caller vouches for, as is the sink for `store_zmm`.
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
            store_zmm(&acc, masks, sink);
        }
    }

    /// The store of both AVX-512 arms: `acc.len()` rows of two zmm of
    /// finished `i32` sums, lanes masked by `masks`, row by row.
    ///
    /// # Safety
    /// Requires `avx512f`; `sink` must be valid for `acc.len()` rows of the
    /// lanes set in `masks` (per-row and per-column operands alike).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_zmm(acc: &[[__m512i; 2]], masks: [u16; 2], sink: Sink) {
        // SAFETY: the caller's contract is the row stores'.
        unsafe {
            match sink {
                Sink::Sums(out) => store_rows(acc, &SumRows { out, masks }),
                Sink::Dequant(terms) => store_rows(acc, &DequantRows::new(terms, masks)),
            }
        }
    }

    /// Row `r` of `acc` through `rows`, for every row.
    ///
    /// # Safety
    /// As [`RowStore::row`], for every row of `acc`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_rows(acc: &[[__m512i; 2]], rows: &impl RowStore) {
        for (r, acc_row) in acc.iter().enumerate() {
            // SAFETY: the caller's contract.
            unsafe { rows.row(acc_row, r) };
        }
    }

    /// How a tile's finished sums leave, row by row, on both AVX-512 arms:
    /// made once a tile from its [`Sink`] — the column terms loaded then —
    /// so that the row loop matches nothing.
    pub(super) trait RowStore {
        /// Stores row `r` of a tile's sums, `acc`: as they are, or
        /// dequantized with the row's terms and the tile's column terms.
        ///
        /// # Safety
        /// Requires `avx512f`; `r` must be a row of the tile, whose sink is
        /// valid for row `r` at the lanes set in the store's masks.
        unsafe fn row(&self, acc: &[__m512i; 2], r: usize);
    }

    /// The sums as they are ([`Sink::Sums`]).
    pub(super) struct SumRows {
        out: TileRows<i32>,
        masks: [u16; 2],
    }

    impl RowStore for SumRows {
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn row(&self, acc: &[__m512i; 2], r: usize) {
            // `wrapping_add`: a fully masked-off upper half may lie past the
            // buffers.
            //
            // SAFETY: masked to the lanes, in the row, the caller vouches for.
            unsafe {
                let o = self.out.row(r);
                _mm512_mask_storeu_epi32(o, self.masks[0], acc[0]);
                _mm512_mask_storeu_epi32(o.wrapping_add(16), self.masks[1], acc[1]);
            }
        }
    }

    /// The dequantizing store ([`Sink::Dequant`]) with the column terms of
    /// its tile: scale, zero-point correction and bias of each 16-lane half,
    /// masked to the tile's columns.
    pub(super) struct DequantRows {
        terms: Terms,
        masks: [u16; 2],
        columns: [[__m512; 3]; 2],
    }

    impl DequantRows {
        /// Loads the column terms.
        ///
        /// # Safety
        /// Requires `avx512f`; the column terms must be valid for the lanes
        /// set in `masks`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn new(terms: Terms, masks: [u16; 2]) -> Self {
            // `wrapping_add`: a fully masked-off upper half may lie past the
            // buffers.
            //
            // SAFETY: masked to the lanes the caller vouches for.
            let half = |mask: u16, lane: usize| unsafe {
                [
                    _mm512_maskz_loadu_ps(mask, terms.col_scale.wrapping_add(lane)),
                    _mm512_maskz_loadu_ps(mask, terms.corr.wrapping_add(lane)),
                    _mm512_maskz_loadu_ps(mask, terms.bias.wrapping_add(lane)),
                ]
            };
            let columns = [half(masks[0], 0), half(masks[1], 16)];
            Self {
                terms,
                masks,
                columns,
            }
        }
    }

    impl RowStore for DequantRows {
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn row(&self, acc: &[__m512i; 2], r: usize) {
            // SAFETY: every access is masked to the lanes, and made in the
            // row, the caller vouches for (`wrapping_add` as in `new`).
            unsafe {
                let d = &self.terms;
                let a_scale = _mm512_set1_ps(*d.row_scale.add(r));
                let a_min = _mm512_set1_ps(*d.row_min.add(r));
                let o = d.out.row(r);
                for (half, &[ws, corr, bias]) in self.columns.iter().enumerate() {
                    // Separate multiplies and adds, in the portable tile's
                    // order: an FMA would round differently.
                    let scaled =
                        _mm512_mul_ps(_mm512_mul_ps(_mm512_cvtepi32_ps(acc[half]), ws), a_scale);
                    let offset = _mm512_add_ps(_mm512_mul_ps(a_min, corr), bias);
                    _mm512_mask_storeu_ps(
                        o.wrapping_add(16 * half),
                        self.masks[half],
                        _mm512_add_ps(scaled, offset),
                    );
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
                        let o = out.row(r);
                        _mm256_maskstore_epi32(o, masks[0], acc_row[0]);
                        _mm256_maskstore_epi32(o.wrapping_add(8), masks[1], acc_row[1]);
                    }
                }
                Sink::Dequant(d) => {
                    for (half, &mask) in masks.iter().enumerate() {
                        let lane = 8 * half;
                        let ws = _mm256_maskload_ps(d.col_scale.wrapping_add(lane), mask);
                        let corr = _mm256_maskload_ps(d.corr.wrapping_add(lane), mask);
                        let bias = _mm256_maskload_ps(d.bias.wrapping_add(lane), mask);
                        for (r, acc_row) in acc.iter().enumerate() {
                            let a_scale = _mm256_set1_ps(*d.row_scale.add(r));
                            let a_min = _mm256_set1_ps(*d.row_min.add(r));
                            let scaled = _mm256_mul_ps(
                                _mm256_mul_ps(_mm256_cvtepi32_ps(acc_row[half]), ws),
                                a_scale,
                            );
                            let offset = _mm256_add_ps(_mm256_mul_ps(a_min, corr), bias);
                            let o = d.out.row(r).wrapping_add(lane);
                            _mm256_maskstore_ps(o, mask, _mm256_add_ps(scaled, offset));
                        }
                    }
                }
            }
        }
    }

    /// Rows and K4 groups of one `tmm` register: 16 rows of 64 bytes.
    const TMM: usize = super::STEP_GROUPS;

    /// The `ldtilecfg` operand (palette 1): the byte width and the row count
    /// of each of the eight `tmm` registers; a register left at zero is
    /// unconfigured and must not be named by an instruction.
    #[repr(C, align(64))]
    struct TileConfig {
        palette: u8,
        start_row: u8,
        reserved: [u8; 14],
        colsb: [u16; 16],
        rows: [u8; 16],
    }

    /// `ldtilecfg`: configures the tiles as `config` says and zeroes them.
    ///
    /// # Safety
    /// [`Backend::host`] must be [`Backend::Amx`]. Tile state stays live until
    /// [`tile_release`].
    #[inline(always)]
    unsafe fn tile_loadconfig(config: &TileConfig) {
        // SAFETY: reads the 64 bytes of `config`; AMX per the caller.
        unsafe {
            asm!("ldtilecfg [{}]", in(reg) config, options(nostack, preserves_flags, readonly));
        }
    }

    /// `tilerelease`: returns every tile to its unconfigured initial state.
    ///
    /// # Safety
    /// [`Backend::host`] must be [`Backend::Amx`].
    #[inline(always)]
    unsafe fn tile_release() {
        // SAFETY: no operands; AMX per the caller.
        unsafe { asm!("tilerelease", options(nostack, preserves_flags)) };
    }

    /// `tilezero tmm<T>`.
    ///
    /// # Safety
    /// Tile `T` must be configured ([`tile_loadconfig`]).
    #[inline(always)]
    unsafe fn tile_zero<const T: usize>() {
        // SAFETY: touches one configured tile register only.
        unsafe { asm!("tilezero tmm{t}", t = const T, options(nostack, nomem, preserves_flags)) };
    }

    /// `tileloadd tmm<T>, [base + stride]`: row `i` of the tile is the
    /// configured byte width read at `base + i * stride`. It writes no
    /// memory, which lets the compiler keep what it holds in registers
    /// across it.
    ///
    /// # Safety
    /// Tile `T` must be configured and its configured rows, `stride` bytes
    /// apart from `base`, readable.
    #[inline(always)]
    unsafe fn tile_loadd<const T: usize>(base: *const u8, stride: usize) {
        // SAFETY: reads exactly the rows the caller vouches for.
        unsafe {
            asm!(
                "tileloadd tmm{t}, [{base} + {stride}*1]",
                t = const T,
                base = in(reg) base,
                stride = in(reg) stride,
                options(nostack, preserves_flags, readonly),
            );
        }
    }

    /// `tilestored [base + stride], tmm<T>`: the inverse of [`tile_loadd`].
    ///
    /// # Safety
    /// Tile `T` must be configured and its configured rows, `stride` bytes
    /// apart from `base`, writable.
    #[inline(always)]
    unsafe fn tile_stored<const T: usize>(base: *mut i32, stride: usize) {
        // SAFETY: writes exactly the rows the caller vouches for.
        unsafe {
            asm!(
                "tilestored [{base} + {stride}*1], tmm{t}",
                t = const T,
                base = in(reg) base,
                stride = in(reg) stride,
                options(nostack, preserves_flags),
            );
        }
    }

    /// `tdpbusd tmm<C>, tmm<A>, tmm<B>`: `C[i][j] += sum over g, q of
    /// u8(A[i][4g + q]) * i8(B[g][4j + q])` in exact, non-saturating `i32` —
    /// the sum `vpdpbusd` forms, a tile at a time.
    ///
    /// # Safety
    /// The three tiles must be configured with matching shapes.
    #[inline(always)]
    unsafe fn tile_dpbusd<const C: usize, const A: usize, const B: usize>() {
        // SAFETY: touches tile registers only, configured per the caller.
        unsafe {
            asm!(
                "tdpbusd tmm{c}, tmm{a}, tmm{b}",
                c = const C,
                a = const A,
                b = const B,
                options(nostack, nomem, preserves_flags),
            );
        }
    }

    /// 32 rows of 32 `i32` sums, 128 bytes a row: what a tile stores.
    pub(super) type Sums = [[__m512i; 2]; 2 * TMM];

    /// A tile whose sums wait in [`Sums`] for their store: its first row
    /// and column, its size and its sink. Small and `Copy`, like a tile's
    /// operands, because it changes hands every tile.
    #[derive(Clone, Copy)]
    pub(super) struct Pending {
        r0: usize,
        j0: usize,
        mr: usize,
        cols: usize,
        sink: Sink,
    }

    impl Pending {
        /// The tile's output lanes.
        fn patch(&self) -> Patch {
            (self.r0..self.r0 + self.mr, self.j0..self.j0 + self.cols)
        }
    }

    /// What the AMX arm carries from one panel of a claimant to the next:
    /// the tile configuration (reloaded only when a ragged edge changes the
    /// shape — `ldtilecfg` drains the tile pipeline) and the last tile's
    /// sums with what their store needs — the store runs under the next
    /// tile's depth loop. Dropping it completes that store and releases the
    /// tiles, whichever way the product ends.
    pub(super) struct AmxProduct {
        /// `(mr, cols)` the tiles are configured for; `(0, 0)` before the
        /// first tile.
        pub(super) shape: (usize, usize),
        /// The last tile's sums.
        pub(super) sums: Sums,
        /// The last tile, while its store is pending.
        pub(super) pending: Option<Pending>,
    }

    impl AmxProduct {
        pub(super) fn new() -> Self {
            // SAFETY: `__m512i` is plain data; all-zero bytes are a value.
            let zero: __m512i = unsafe { std::mem::zeroed() };
            Self {
                shape: (0, 0),
                sums: [[zero; 2]; 2 * TMM],
                pending: None,
            }
        }

        /// Completes the pending store, if any, and returns its patch.
        pub(super) fn flush(&mut self) -> Option<Patch> {
            let pending = self.pending.take()?;
            // SAFETY: a store is pending only after `tile_amx`, whose caller
            // vouched for AMX (which implies `avx512f`) and for the sink
            // until this store.
            unsafe {
                store_zmm(
                    &self.sums[..pending.mr],
                    lane_masks(pending.cols),
                    pending.sink,
                )
            };
            Some(pending.patch())
        }
    }

    impl Drop for AmxProduct {
        fn drop(&mut self) {
            self.flush();
            if self.shape != (0, 0) {
                // SAFETY: a shape is set only by `tile_amx`, whose caller
                // vouched for AMX.
                unsafe { tile_release() };
            }
        }
    }

    /// Readies the sums for an `mr x cols` tile: zeroes them where the tiles
    /// have that `shape`, else configures the tiles for it, which zeroes
    /// every tile. Only configured tiles are named: `tmm5`, `tmm2` and
    /// `tmm3` for more than 16 rows, `tmm7`, `tmm1` and `tmm3` for more than
    /// 16 columns.
    ///
    /// # Safety
    /// Requires [`Backend::Amx`]; `1 <= mr <= 32`, `1 <= cols <= 32`.
    #[inline(always)]
    unsafe fn configure(shape: &mut (usize, usize), mr: usize, cols: usize) {
        let (tall, wide) = (mr > TMM, cols > TMM);
        // SAFETY: AMX per the caller; every tile named is configured.
        unsafe {
            if *shape == (mr, cols) {
                tile_zero::<0>();
                if wide {
                    tile_zero::<1>();
                }
                if tall {
                    tile_zero::<2>();
                    if wide {
                        tile_zero::<3>();
                    }
                }
                return;
            }
            let mut config = TileConfig {
                palette: 1,
                start_row: 0,
                reserved: [0; 14],
                colsb: [0; 16],
                rows: [0; 16],
            };
            let rows = [mr.min(TMM), mr.saturating_sub(TMM)];
            let cols = [cols.min(TMM), cols.saturating_sub(TMM)];
            let mut set = |tile: usize, rows: usize, bytes: usize| {
                if rows > 0 && bytes > 0 {
                    (config.rows[tile], config.colsb[tile]) = (rows as u8, bytes as u16);
                }
            };
            for (i, &mr) in rows.iter().enumerate() {
                set(4 + i, mr, 64);
                for (j, &nr) in cols.iter().enumerate() {
                    set(2 * i + j, mr, 4 * nr);
                }
            }
            for (j, &nr) in cols.iter().enumerate() {
                set(6 + j, TMM, 4 * nr);
            }
            tile_loadconfig(&config);
        }
        *shape = (mr, cols);
    }

    /// The AMX arm over panel `p` for one claimant: each 32-column block of
    /// the panel against each 32-row tile of the `rows`, through
    /// [`tile_amx`]. One call a panel, so what passes from tile to tile —
    /// the configured shape and the pending tile, small and `Copy` — lives
    /// in registers, and in `product` only between panels. `done` runs on
    /// each patch whose store has completed.
    ///
    /// # Safety
    /// Requires [`Backend::Amx`]; `ops` must hold whole steps for every
    /// panel, `rows` rows of `ops.a`, and `sink` satisfy [`Tile`]'s contract
    /// for each patch of the panel until `done` has run on it.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(super) unsafe fn amx_panel(
        product: &mut AmxProduct,
        ops: &Operands<'_>,
        p: usize,
        rows: usize,
        sink: &impl Fn(&Patch) -> Sink,
        done: &impl Fn(Patch),
    ) {
        let (n, panel_cols) = (ops.rhs.n, ops.rhs.panel_cols);
        let end = n.min((p + 1) * panel_cols);
        let (mut shape, mut pending) = (product.shape, product.pending);
        for j0 in (p * panel_cols..end).step_by(2 * TMM) {
            for r0 in (0..rows).step_by(2 * TMM) {
                let patch = (r0..rows.min(r0 + 2 * TMM), j0..end.min(j0 + 2 * TMM));
                let tile = ops.tile(p, &patch.0, &patch.1);
                let next = Pending {
                    r0,
                    j0,
                    mr: tile.mr,
                    cols: tile.cols,
                    sink: sink(&patch),
                };
                // SAFETY: the caller's contract is `tile_amx`'s.
                unsafe { tile_amx(&mut shape, pending, &mut product.sums, tile) };
                if let Some(finished) = pending {
                    done(finished.patch());
                }
                pending = Some(next);
            }
        }
        (product.shape, product.pending) = (shape, pending);
    }

    /// The AMX microkernel: `mr <= 32` rows against `cols <= 32` columns as
    /// a 2x2 block of `tmm` sums (`tmm0..=3`) over depth steps of 64 bytes —
    /// 16 K4 groups: `tmm4`/`tmm5` take the activation rows `0..16` /
    /// `16..32`, `tmm6`/`tmm7` the weight columns `0..16` / `16..32` from
    /// the layout every other arm reads, a weight tile's rows being groups
    /// `stride` bytes apart. A ragged edge is a narrower tile *shape* (fewer
    /// configured rows, fewer bytes a row), so no load reaches past `mr`
    /// rows or `cols` columns. The depth is whole steps — the last one from
    /// `t.last`, zero past the depth — so no step is special, and what the
    /// activation rows hold past the depth meets zero weights. The sums are
    /// stored to `sums` and leave through the VNNI arm's row stores (the
    /// same exact `i32`, the same f32 expression) under the **next** tile's
    /// depth loop: a few rows after each of its steps, which the core runs
    /// while the tile unit multiplies — this call completes `pending`'s
    /// store and leaves its own sums in `sums`, for the caller to make
    /// pending. A claimant's last tile leaves at [`AmxProduct::flush`] (or
    /// its drop). The sums are in memory before the next tile configures,
    /// so a ragged edge's `ldtilecfg`, which zeroes the tiles, cannot touch
    /// them.
    ///
    /// # Safety
    /// Requires [`Backend::Amx`]; `shape` must be the tiles' configuration
    /// and `sums` hold `pending`'s sums; `t` must satisfy [`Tile`]'s
    /// contract at `32 x 32`, and `pending`'s sink its own.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(super) unsafe fn tile_amx(
        shape: &mut (usize, usize),
        pending: Option<Pending>,
        sums: &mut Sums,
        t: Tile,
    ) {
        // SAFETY: AMX per the caller. Every tile instruction names a
        // configured tile; every load stays inside `Tile`'s ranges and every
        // store inside `sums` or the pending tile's sink, which its caller
        // vouched for until this store.
        unsafe {
            configure(shape, t.mr, t.cols);
            let held = &raw const *sums;
            match pending {
                None => depth::<SumRows>(&t, held, None),
                Some(Pending { mr, cols, sink, .. }) => {
                    let masks = lane_masks(cols);
                    match sink {
                        Sink::Sums(out) => depth(&t, held, Some((mr, &SumRows { out, masks }))),
                        Sink::Dequant(terms) => {
                            depth(&t, held, Some((mr, &DequantRows::new(terms, masks))));
                        }
                    }
                }
            }
            let (tall, wide) = (t.mr > TMM, t.cols > TMM);
            let c: *mut i32 = sums.as_mut_ptr().cast();
            tile_stored::<0>(c, 128);
            if wide {
                tile_stored::<1>(c.add(TMM), 128);
            }
            if tall {
                tile_stored::<2>(c.add(TMM * 2 * TMM), 128);
                if wide {
                    tile_stored::<3>(c.add(TMM * 2 * TMM + TMM), 128);
                }
            }
        }
    }

    /// The depth loop of [`tile_amx`]: every step of `t` into the
    /// configured sums, and after each step its share of `pending` — the
    /// previous tile's row count and store — read from `sums`. Generic in
    /// the store, so each instance runs one store with nothing to match.
    ///
    /// # Safety
    /// As [`tile_amx`], the tiles configured for `t`; `sums` holds the
    /// previous tile's sums, which `pending`'s store may store.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    unsafe fn depth<R: RowStore>(t: &Tile, sums: *const Sums, pending: Option<(usize, &R)>) {
        let (tall, wide) = (t.mr > TMM, t.cols > TMM);
        let steps = t.groups.div_ceil(TMM);
        let rows = match pending {
            Some((mr, _)) => mr,
            None => 0,
        };
        let per_step = rows.div_ceil(steps);
        // SAFETY: the caller's contract: a whole step reads 64 bytes of
        // each of `mr` activation rows — inside the row, whose stride
        // covers every step — and `4 * cols` bytes of each of 16 groups,
        // inside `Tile`'s ranges or `t.last`'s.
        unsafe {
            for s in 0..steps {
                let a = t.a.add(64 * s);
                let b = if s + 1 < steps {
                    t.b.add(TMM * s * t.stride)
                } else {
                    t.last
                };
                tile_loadd::<4>(a, t.a_stride);
                tile_loadd::<6>(b.cast(), t.stride);
                tile_dpbusd::<0, 4, 6>();
                if wide {
                    tile_loadd::<7>(b.add(64).cast(), t.stride);
                    tile_dpbusd::<1, 4, 7>();
                }
                if tall {
                    tile_loadd::<5>(a.add(TMM * t.a_stride), t.a_stride);
                    tile_dpbusd::<2, 5, 6>();
                    if wide {
                        tile_dpbusd::<3, 5, 7>();
                    }
                }
                // The previous tile's share of rows for this step, stored
                // while the tile unit runs the step just issued.
                if let Some((_, store)) = pending {
                    for r in s * per_step..rows.min((s + 1) * per_step) {
                        store.row(&(*sums)[r], r);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::packed::tests::{matrix_at, pools, OFFSETS};
    use super::super::packed::AlignedRow;
    use super::*;
    use proptest::prelude::*;

    const WIDTHS: [PackedWidth; 2] = [PackedWidth::Ymm, PackedWidth::Zmm];

    /// Every arm this host runs.
    fn kernels() -> Vec<Int8Kernel> {
        Backend::arms(Backend::int8)
    }

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

        /// The activation rows in [`gemm_u8i8_dequant`]'s layout.
        fn lhs(&self) -> Lhs {
            let mut lhs = Lhs::default();
            lhs.reset(self.rows, self.k);
            for (r, row) in self.a.chunks_exact(padded_k(self.k)).enumerate() {
                lhs.row_mut(r).copy_from_slice(&row[..self.k]);
            }
            lhs
        }

        fn dequant(&self, kernel: Int8Kernel, width: PackedWidth, act: Activation) -> Vec<u32> {
            self.dequant_from(kernel, width, act, PAR_MIN_MACS)
        }

        /// The product with its panels handed out from `par_min_macs` on.
        fn dequant_from(
            &self,
            kernel: Int8Kernel,
            width: PackedWidth,
            act: Activation,
            par_min_macs: usize,
        ) -> Vec<u32> {
            self.dequant_at(kernel, width, act, par_min_macs, 0)
        }

        /// [`Case::dequant_from`] into a matrix whose first row starts
        /// `offset` bytes past a line.
        fn dequant_at(
            &self,
            kernel: Int8Kernel,
            width: PackedWidth,
            act: Activation,
            par_min_macs: usize,
            offset: usize,
        ) -> Vec<u32> {
            // A dirty `out` proves every element is overwritten.
            let mut store = AlignedRow::default();
            let out = matrix_at(&mut store, self.rows, self.n, offset);
            self.product(kernel, width, act, Rows::Matrix(&mut *out), par_min_macs);
            out.iter().map(|v| v.to_bits()).collect()
        }

        /// [`Case::dequant_from`] into one buffer a row, concatenated.
        fn dequant_rows_from(
            &self,
            kernel: Int8Kernel,
            width: PackedWidth,
            act: Activation,
            par_min_macs: usize,
        ) -> Vec<u32> {
            let nans = vec![f32::NAN; self.n];
            let mut rows: Vec<AlignedRow> = (0..self.rows)
                .map(|_| AlignedRow::from(&nans[..]))
                .collect();
            self.product(kernel, width, act, Rows::Buffers(&mut rows), par_min_macs);
            rows.iter()
                .flat_map(|row| row.iter().map(|v| v.to_bits()))
                .collect()
        }

        fn product(
            &self,
            kernel: Int8Kernel,
            width: PackedWidth,
            act: Activation,
            out: Rows<'_>,
            par_min_macs: usize,
        ) {
            let deq = Dequant {
                row_scale: &self.row_scale,
                row_min: &self.row_min,
                col_scale: &self.col_scale,
                corr: &self.corr,
                bias: &self.bias,
            };
            let (lhs, rhs) = (self.lhs(), self.pack(width));
            dequant_product(kernel, &lhs, &rhs, deq, act, out, par_min_macs);
        }

        fn assert_every_arm_equals_the_oracle(&self, name: &str, act: Activation) {
            let want = self.oracle(act);
            let (rows, k, n) = (self.rows, self.k, self.n);
            for kernel in kernels() {
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
            // Whole 16-group steps a panel.
            assert_eq!(packed.bytes(), n.div_ceil(nr) * 64 * nr);
            for (i, &v) in packed.data.iter().enumerate() {
                let groups = panel_groups(k);
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

    /// `t` into `sink` on the AMX arm, through a claimant's path
    /// (`amx_panel` over a panel of the tile's columns), on `product`:
    /// stored under the product's next tile, or when it drops.
    ///
    /// # Safety
    /// As `tile_amx`; `t.b` holds whole steps, zero past `t.groups`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn amx(product: &mut x86::AmxProduct, t: Tile, sink: Sink) {
        let panel_groups = t.groups.next_multiple_of(STEP_GROUPS);
        // SAFETY: the caller's contract.
        let (a, data) = unsafe {
            (
                std::slice::from_raw_parts(t.a, t.mr * t.a_stride),
                std::slice::from_raw_parts(t.b, panel_groups * t.stride),
            )
        };
        let rhs = Rhs {
            data,
            groups: t.groups,
            panel_groups,
            n: t.cols,
            panel_cols: t.stride / 4,
            last: None,
        };
        let ops = Operands {
            a,
            a_stride: t.a_stride,
            rhs,
        };
        // SAFETY: the caller's contract.
        unsafe { x86::amx_panel(product, &ops, 0, t.mr, &|_: &Patch| sink, &|_| {}) };
    }

    /// Every const-generic instance of both vector microkernels
    /// (`rows_vnni` → `tile_vnni::<1..=12>`, `rows_avx2` →
    /// `tile_avx2::<1..=4>`, the former leaving through `store_zmm`,
    /// `store_rows` and both `RowStore`s) and every shape of the AMX one
    /// (`amx_panel` → `tile_amx` → `depth`: `configure`, `tile_loadconfig`, `tile_zero`,
    /// `tile_loadd`, `tile_dpbusd`, `tile_stored`, and `tile_release` when
    /// its product drops; over depths with and without a partial last step)
    /// at every partial width, at the panel-major and the K4-row group
    /// stride, into both sinks, against the portable tile — and the lanes
    /// past `cols`, like the rows past `mr`, must keep what they held. The
    /// AMX arm stores a tile under the next one: each shape runs alone on a
    /// product of its own (stored when the product drops, as a claimant's
    /// last tile is), and again followed by a whole tile on one product,
    /// whose configuration changes while the shape's store is pending
    /// whenever the shape is ragged.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_register_tile_matches_the_portable_tile_and_stays_inside_its_mask() {
        const GUARD: u32 = 0x40e8_0000;
        /// One tile of a product of its own: configured, stored and
        /// released each time.
        unsafe fn amx_once(t: Tile, sink: Sink) {
            // SAFETY: the caller's contract is `amx`'s.
            unsafe { amx(&mut x86::AmxProduct::new(), t, sink) }
        }
        for kernel in kernels() {
            let (vector, mr_max, nr, depths): (TileFn, usize, usize, &[usize]) = match kernel {
                Int8Kernel::Scalar => continue,
                Int8Kernel::Avx2Maddubs => (x86::rows_avx2, 4, 16, &[5]),
                Int8Kernel::Avx512Vnni => (x86::rows_vnni, 12, 32, &[5]),
                Int8Kernel::Amx => (amx_once, 32, 32, &[5, 16, 35]),
            };
            // One spare row and `nr` spare columns of guard around the tile.
            let n = 2 * nr;
            for (&groups, stride) in depths.iter().flat_map(|g| [(g, 4 * nr), (g, 4 * n)]) {
                let case = Case::new(mr_max, 4 * groups, n, 11, true);
                // A tile may read a row up to its stride, never count on
                // what lies past the depth: an [`Lhs`] may hold another
                // shape's codes there, and this holds 0xA5s, which only the
                // weights' zeros past the depth cancel.
                let mut lhs = case.lhs();
                let row_bytes = lhs.stride();
                for row in lhs.data.chunks_exact_mut(row_bytes) {
                    row[4 * groups..].fill(0xA5);
                }
                // The groups of whole steps a panel holds, zero past the
                // depth.
                let mut b = case.wq[..groups * stride].to_vec();
                b.resize(groups.next_multiple_of(STEP_GROUPS) * stride, 0);
                let tile = |mr: usize, cols: usize| Tile {
                    a: lhs.data.as_ptr(),
                    a_stride: lhs.stride(),
                    mr,
                    groups,
                    b: b.as_ptr(),
                    stride,
                    cols,
                    last: b[last_step(groups) * stride..].as_ptr(),
                };
                let sink = |out: &mut [u32], cols: usize, dequant: bool| {
                    if dequant {
                        Sink::Dequant(Terms {
                            out: RowBase::Strided(out.as_mut_ptr().cast(), n).tile(0..mr_max, 0),
                            row_scale: case.row_scale.as_ptr(),
                            row_min: case.row_min.as_ptr(),
                            col_scale: case.col_scale[..cols].as_ptr(),
                            corr: case.corr[..cols].as_ptr(),
                            bias: case.bias[..cols].as_ptr(),
                        })
                    } else {
                        Sink::Sums(RowBase::Strided(out.as_mut_ptr().cast(), n).tile(0..mr_max, 0))
                    }
                };
                let guarded = || vec![GUARD; (mr_max + 1) * n];
                // SAFETY (every tile run below): the arm is one of
                // `kernels()`, which the host runs; `a` holds
                // `mr_max >= mr` rows of `groups` quads in `Lhs`'s layout,
                // `b` `groups` strides of at least `4 * nr` bytes, the row
                // terms `mr_max` and the column terms `cols` entries, and the
                // sink addresses `mr_max` rows of `n >= cols` 4-byte lanes
                // of a buffer that outlives the product.
                let run = |arm: TileFn, (mr, cols): (usize, usize), dequant: bool| {
                    let mut out = guarded();
                    unsafe { arm(tile(mr, cols), sink(&mut out, cols, dequant)) };
                    out
                };
                let whole = (mr_max, nr);
                for (mr, cols) in (1..=mr_max).flat_map(|mr| (1..=nr).map(move |c| (mr, c))) {
                    for dequant in [false, true] {
                        let got = run(vector, (mr, cols), dequant);
                        let label = format!(
                            "{mr_max}x{nr} groups={groups} stride={stride} mr={mr} cols={cols} \
                             dequant={dequant}"
                        );
                        let want = run(tile_portable, (mr, cols), dequant);
                        assert_eq!(got, want, "{label}");
                        for (i, &v) in got.iter().enumerate() {
                            if i / n >= mr || i % n >= cols {
                                assert_eq!(v, GUARD, "{label} @{i}");
                            }
                        }
                        if kernel == Int8Kernel::Amx {
                            let (mut first, mut then) = (guarded(), guarded());
                            let mut product = x86::AmxProduct::new();
                            let (to_first, to_then) = (
                                sink(&mut first, cols, dequant),
                                sink(&mut then, nr, dequant),
                            );
                            // SAFETY: as above; both buffers outlive the
                            // product, whose drop stores the second tile.
                            unsafe {
                                amx(&mut product, tile(mr, cols), to_first);
                                amx(&mut product, tile(mr_max, nr), to_then);
                            }
                            drop(product);
                            assert_eq!(first, want, "{label}, then a whole tile");
                            let want = run(tile_portable, whole, dequant);
                            assert_eq!(then, want, "a whole tile after {label}");
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

    /// Claimed panels == one-thread panels, bit for bit: every shape with
    /// its panels handed out (threshold 0; `(1, 1)` is one panel and stays a
    /// plain loop, `(7, 33)` is two 32-column panels) on pools of every
    /// width, against the plain loop (threshold `usize::MAX`) — for every
    /// row count up to two whole AMX tiles and a ragged third, every arm,
    /// both packing widths, a fused activation, and constant rows and
    /// NaN / ±Inf row minima.
    #[test]
    fn claimed_panels_equal_one_thread_panels_bitwise() {
        eprintln!(
            "int8 hand-out parity: the amx_int8 arm ran on {}",
            if Backend::host() == Backend::Amx {
                "the AMX tile, one product a claimant"
            } else {
                "a lower arm: no AMX here"
            }
        );
        let pools = pools();
        let (_, relu) = ACTIVATIONS[1];
        for (k, n) in [(1usize, 1usize), (7, 33), (56, 224)] {
            for rows in 0..=70usize {
                let case = Case::new(rows, k, n, 5 + rows as u64, true);
                for kernel in kernels() {
                    for width in WIDTHS {
                        let one_thread = case.dequant_from(kernel, width, relu, usize::MAX);
                        for (threads, pool) in &pools {
                            let claimed =
                                pool.install(|| case.dequant_from(kernel, width, relu, 0));
                            assert_eq!(
                                claimed, one_thread,
                                "{kernel:?} {width:?} rows={rows} {k}x{n} on {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    /// One buffer a row == the matrix, bit for bit, on every arm — the AMX
    /// arm's stores, pending under the next tile, land at each row's own
    /// address too — past one table of row addresses (133 rows: a run of
    /// 128 buffers and a ragged one), with the panels handed out or not, on
    /// pools of every width; and so does a matrix whose rows start at each
    /// 16-byte offset from a line, where the row buffers start on one.
    #[test]
    fn row_buffers_hold_the_matrix_rows_bitwise() {
        let pools = pools();
        let (_, tanh) = ACTIVATIONS[2];
        for (k, n) in [(7usize, 33usize), (56, 224)] {
            for rows in [1usize, 33, 133] {
                let case = Case::new(rows, k, n, 3 + rows as u64, true);
                for kernel in kernels() {
                    for width in WIDTHS {
                        let matrix = case.dequant_from(kernel, width, tanh, usize::MAX);
                        for (threads, pool) in &pools {
                            for par_min_macs in [0, usize::MAX] {
                                let label = format!(
                                    "{kernel:?} {width:?} rows={rows} {k}x{n} on {threads} threads"
                                );
                                let rows_out = pool.install(|| {
                                    case.dequant_rows_from(kernel, width, tanh, par_min_macs)
                                });
                                assert_eq!(rows_out, matrix, "{label}");
                                for offset in OFFSETS {
                                    let at = pool.install(|| {
                                        case.dequant_at(kernel, width, tanh, par_min_macs, offset)
                                    });
                                    assert_eq!(at, matrix, "{label} at {offset} mod 64");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The same through the public entry, one row either side of
    /// [`PAR_MIN_MACS`] at the tail's output width.
    #[test]
    fn the_product_is_the_same_on_both_sides_of_the_threshold() {
        let (k, n) = (64usize, 1452usize);
        let below = (PAR_MIN_MACS - 1) / (k * n);
        assert!(below >= 1 && (below + 1) * k * n >= PAR_MIN_MACS);
        let (_, tanh) = ACTIVATIONS[2];
        let pools = pools();
        for rows in [below, below + 1] {
            let case = Case::new(rows, k, n, 8, false);
            for kernel in kernels() {
                for width in WIDTHS {
                    let one_thread = case.dequant_from(kernel, width, tanh, usize::MAX);
                    for (threads, pool) in &pools {
                        let served = pool.install(|| case.dequant(kernel, width, tanh));
                        assert_eq!(
                            served, one_thread,
                            "{kernel:?} {width:?} rows={rows} on {threads} threads"
                        );
                    }
                }
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
            for kernel in kernels() {
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

    /// Each arm runs at its own level where the host has it and at the best
    /// level below it where it does not, and is the view of that level.
    #[test]
    fn selection_tracks_host_features() {
        let all = [
            Int8Kernel::Scalar,
            Int8Kernel::Avx2Maddubs,
            Int8Kernel::Avx512Vnni,
            Int8Kernel::Amx,
        ];
        for kernel in all {
            let runs = kernel.runs();
            assert!(runs <= Backend::host(), "{kernel:?}");
            assert_eq!(
                runs.int8() == kernel,
                kernels().contains(&kernel),
                "{kernel:?}"
            );
        }
        assert!(kernels().contains(&selected_int8()));
    }

    /// The host's level is asked once: a second answer, from any thread, is
    /// the first, and an `Amx` level means a tile instruction really runs
    /// here (the smallest product there is, through `tile_amx`).
    #[test]
    fn the_amx_grant_is_stable_and_real() {
        let first = Backend::host();
        let again = std::thread::spawn(Backend::host).join().unwrap();
        assert_eq!(first, again);
        eprintln!("int8 arms on this host: {:?}", kernels());
        let mut out = [0i32; 1];
        gemm_u8i8_i32(
            Int8Kernel::Amx,
            &[3, 0, 0, 200],
            &[-2, 9, 9, 1],
            &mut out,
            1,
            4,
            1,
        );
        assert_eq!(out, [194]);
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
            for kernel in kernels() {
                for width in WIDTHS {
                    let got = case.dequant(kernel, width, act);
                    prop_assert_eq!(
                        &got, &want, "{:?} {:?} {} {}x{}x{}", kernel, width, name, rows, k, n
                    );
                }
            }
        }

        /// The AMX arm == the scalar arm, bit for bit, into both sinks: up
        /// to three row tiles with a ragged last one (tiles of one shape
        /// after another start from `tile_zero`, not a fresh configuration;
        /// the ragged one configures anew while the tile before it waits
        /// for its store), depths with any number of whole 64-byte steps
        /// and a whole or partial last one (the K4-row operand's copied,
        /// a panel's inside it), widths that
        /// end inside either 16-column tile, both packing widths, the
        /// panels on one claimant and handed out to every thread of the
        /// pool (each claimant's last tile is stored as it finishes) — and, for
        /// the raw sums, operands of arbitrary bytes whose `padded_k`
        /// padding is **not** zero (`gemm_u8i8_i32` multiplies whole
        /// groups, as `benchmark/` drives it). On a host without AMX the
        /// arm is the best one below it, and the line printed says which;
        /// below [`Backend::Vnni`] that is `maddubs`, exact on u7 only (see
        /// the module docs), so there the activations are drawn from u7.
        #[test]
        fn prop_the_amx_arm_equals_the_scalar_arm_into_both_sinks(
            rows in 1usize..=70,
            k in 1usize..=300,
            n in 1usize..=100,
            ai in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            if seed % 64 == 0 {
                eprintln!("amx parity ran on {}", if Backend::host() == Backend::Amx {
                    "the AMX tile"
                } else {
                    "a lower arm: no AMX here"
                });
            }
            let (name, act) = ACTIVATIONS[ai];
            let case = Case::new(rows, k, n, seed, seed % 2 == 0);
            for width in WIDTHS {
                let want = case.dequant(Int8Kernel::Scalar, width, act);
                for par_min_macs in [usize::MAX, 0] {
                    prop_assert_eq!(
                        &case.dequant_from(Int8Kernel::Amx, width, act, par_min_macs),
                        &want,
                        "{:?} {} {}x{}x{} from {}", width, name, rows, k, n, par_min_macs
                    );
                }
            }
            let k_pad = padded_k(k);
            let mut state = seed;
            // Full bytes wherever the arm that runs is a `dpbusd` tile; u7
            // where it is `maddubs`, whose contract that is.
            let top = if Backend::host() >= Backend::Vnni { 256 } else { 128 };
            let a: Vec<u8> = (0..rows * k_pad).map(|_| (mix(&mut state) % top) as u8).collect();
            let b: Vec<i8> = (0..k_pad * n).map(|_| mix(&mut state) as i8).collect();
            let sums = |kernel| {
                let mut out = vec![5i32; rows * n];
                gemm_u8i8_i32(kernel, &a, &b, &mut out, rows, k_pad, n);
                out
            };
            prop_assert_eq!(sums(Int8Kernel::Amx), sums(Int8Kernel::Scalar), "{}x{}x{}", rows, k, n);
        }
    }
}
