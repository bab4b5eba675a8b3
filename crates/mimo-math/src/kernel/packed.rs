//! Panel-packed f32 GEMM with the bias + activation epilogue in the store.
//!
//! The row-major [`super::gemm_f32`] serves products whose right-hand side
//! changes between calls (training) or is used once per call (the batch-1
//! head). A *bound* right-hand side — a tail layer's weights, fixed for the
//! life of the model — is instead packed **once** into panel-major form and
//! multiplied by [`gemm_f32_packed`]:
//!
//! ```text
//! packed[(p * m + k) * NR + c] = b[k * n + p * NR + c]     (zero past n)
//! ```
//!
//! One panel (`m x NR` floats, contiguous) is streamed sequentially by a
//! microkernel that keeps an `MR x NR` accumulator tile in registers over the
//! **whole** `k` range, so the output is written exactly once — `bias` added
//! and the activation applied on the way out — instead of being zero-filled,
//! re-loaded and re-stored every k-block and swept again by an epilogue. The
//! loop nest is panel-outer: a panel stays cache-resident while every row
//! tile of the batch runs against it.
//!
//! | [`PackedWidth`] | `MR x NR` | registers | arm |
//! |---|---|---|---|
//! | `Zmm` | 12 x 32 | 24 zmm accumulators + 2 `b` + 1 broadcast | `avx512f` |
//! | `Ymm` | 6 x 16 | 12 ymm accumulators + 2 `b` + 1 broadcast | `avx2` + `fma` |
//!
//! # Exactness
//!
//! Every output element is one fused-multiply-add chain over ascending `k`
//! starting from `+0.0`, then `act(acc + bias)` — operation for operation
//! what the AVX2 arm of [`super::gemm_f32`] computes on a zeroed `out`
//! followed by the row-major epilogue. The tile shape only decides *which*
//! elements share a register, never the order within an element, so both
//! widths, every batch shape, the 256-bit tile over 16-column blocks of a
//! 512-bit layout (hosts without AVX-512F) and the portable `mul_add` tile
//! (hosts without AVX2) agree **bit for bit** with each other and with
//! `gemm_f32(Kernel::Avx2Fma, ..)`. The width is therefore a view of the
//! host's [`Backend`], exactly as VNNI-vs-`maddubs` is for [`super::int8`];
//! there is nothing to tune.

use super::{Backend, Kernel};
use rayon::prelude::*;
use std::ops::{Deref, DerefMut, Range};

/// One cache line of `N` lanes of `T` — the allocation unit of [`Panels`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
struct Line<T, const N: usize>([T; N]);

/// Packed-panel storage that starts on a 64-byte boundary wherever the
/// allocator puts it: a `Vec` of whole cache lines, viewed as the flat
/// `[T]` it is. The vector arms read a panel row with full-width loads, and
/// a row that straddles two lines costs the f32 tail a quarter of its speed
/// (12.8 vs 16.3 us a frame, by `addr % 64` alone) — so the alignment is a
/// property of the type, kept by `clone()`, not a matter of allocation
/// history. Panel sizes are whole lines already; the storage adds no byte.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Panels<T, const N: usize>(Vec<Line<T, N>>);

impl<T, const N: usize> Default for Panels<T, N> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T: Copy + Default, const N: usize> Panels<T, N> {
    /// Becomes `len` zeroed lanes, in the allocation it has if that is
    /// large enough.
    ///
    /// # Panics
    /// Panics unless `len` is a whole number of lines.
    pub(super) fn reset(&mut self, len: usize) {
        self.0.clear();
        self.grow(len);
    }

    /// Holds at least `len` lanes: the lanes it has keep their values, the
    /// ones it gains are zero. It never shrinks, so a buffer reshaped back
    /// and forth is written only where it first grows.
    ///
    /// # Panics
    /// Panics unless `len` is a whole number of lines.
    pub(super) fn grow(&mut self, len: usize) {
        const { assert!(std::mem::size_of::<Line<T, N>>() == N * std::mem::size_of::<T>()) };
        assert_eq!(len % N, 0, "packed panels are whole cache lines");
        if self.0.len() < len / N {
            self.0.resize(len / N, Line([T::default(); N]));
        }
    }
}

impl Panels<f32, 16> {
    /// Becomes the row-major `m x n` matrix `b` packed panel-major in panels
    /// of `nr` columns (the layout in the module docs), zero past `n`.
    pub(super) fn pack(&mut self, b: &[f32], (m, n): (usize, usize), nr: usize) {
        self.reset(n.div_ceil(nr) * m * nr);
        for (p, panel) in self.chunks_exact_mut((m * nr).max(1)).enumerate() {
            let (j0, cols) = (p * nr, nr.min(n - p * nr));
            for (dst, src) in panel.chunks_exact_mut(nr).zip(b.chunks_exact(n)) {
                dst[..cols].copy_from_slice(&src[j0..j0 + cols]);
            }
        }
    }
}

impl<T, const N: usize> Deref for Panels<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `Line<T, N>` is `repr(C)` around `[T; N]` and exactly as
        // large (asserted in `reset`, the only maker of lines), so the `Vec`'s
        // lines are `len * N` contiguous, initialized `T`s.
        unsafe { std::slice::from_raw_parts(self.0.as_ptr().cast(), self.0.len() * N) }
    }
}

impl<T, const N: usize> DerefMut for Panels<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as `deref`, through the unique borrow of the `Vec`.
        unsafe { std::slice::from_raw_parts_mut(self.0.as_mut_ptr().cast(), self.0.len() * N) }
    }
}

/// A row of `f32`s that starts on a 64-byte boundary wherever the allocator
/// puts it, clones included (`Panels` of whole lines): the row buffer a
/// bound-weight product writes ([`Rows::Buffers`]) and a server hands on.
/// Its tiles store whole lines into it: into rows at `addr % 64` of 16, 32
/// or 48 — what `malloc` returns for a plain `Vec` — the int8 tail's
/// dequantizing store of a 64 x 1452 output ran 23–26 us against 11–14 on
/// one core. It reads as the `[f32]` it holds; the lanes up to the next
/// whole line are zero.
#[derive(Debug, Clone, Default)]
pub struct AlignedRow {
    lines: Panels<f32, 16>,
    len: usize,
}

impl AlignedRow {
    /// `len` zeros.
    pub fn zeros(len: usize) -> Self {
        let mut row = Self::default();
        row.resize(len);
        row
    }

    /// Becomes `len` zeros, in the allocation it has if that is large
    /// enough.
    pub fn resize(&mut self, len: usize) {
        self.lines.reset(len.next_multiple_of(16));
        self.len = len;
    }
}

impl From<&[f32]> for AlignedRow {
    fn from(values: &[f32]) -> Self {
        let mut row = Self::zeros(values.len());
        row.copy_from_slice(values);
        row
    }
}

impl PartialEq for AlignedRow {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Deref for AlignedRow {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.lines[..self.len]
    }
}

impl DerefMut for AlignedRow {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.lines[..self.len]
    }
}

/// The vector width a right-hand side is packed for: it fixes the panel
/// width `NR` of the layout and the register tile that consumes it (the
/// [`Backend::packed_width`] view of a level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedWidth {
    /// 256-bit vectors: 16-float panels, 6 x 16 tile (AVX2 + FMA).
    Ymm,
    /// 512-bit vectors: 32-float panels, 12 x 32 tile (AVX-512F).
    Zmm,
}

impl PackedWidth {
    /// The host's width, [`Backend::packed_width`] of [`Backend::host`]
    /// (`Ymm` also on hosts without AVX2, where the portable tile consumes
    /// the 16-float layout).
    pub fn detect() -> Self {
        Backend::host().packed_width()
    }

    /// The level this layout's tile runs at here: the lowest level whose
    /// vector views — the FMA class and this width, what [`register_tile`]
    /// dispatches on — it is, capped at [`Backend::host`].
    pub(super) fn runs(self) -> Backend {
        let view = |level: Backend| (level.kernel(), level.packed_width());
        Backend::lowest((Kernel::Avx2Fma, self), view)
    }

    /// Floats per panel row (`NR`).
    pub fn nr(self) -> usize {
        match self {
            PackedWidth::Ymm => 16,
            PackedWidth::Zmm => 32,
        }
    }

    /// Stable lower-snake name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            PackedWidth::Ymm => "avx2_fma_6x16",
            PackedWidth::Zmm => "avx512f_12x32",
        }
    }
}

/// A GEMM right-hand side (`m x n`, e.g. a dense layer's weights) packed
/// panel-major for [`gemm_f32_packed`]. Immutable after packing.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedRhs {
    m: usize,
    n: usize,
    width: PackedWidth,
    /// `n.div_ceil(NR)` panels of `m * NR` floats; the last panel's columns
    /// past `n` are zero.
    data: Panels<f32, 16>,
}

impl PackedRhs {
    /// Packs row-major `b` (`m x n`) for `width` — [`PackedWidth::detect`] in
    /// production; the parity tests pass each width in turn, which is how the
    /// 256-bit arm runs on an AVX-512 host. A layout whose arm the host lacks
    /// still multiplies correctly, on the best arm below it.
    ///
    /// # Panics
    /// Panics if either dimension is zero or `b.len() != m * n`.
    pub fn pack(b: &[f32], m: usize, n: usize, width: PackedWidth) -> Self {
        assert!(m > 0 && n > 0, "packed rhs dimensions must be non-zero");
        assert_eq!(b.len(), m * n, "packed rhs length mismatch");
        let mut data = Panels::default();
        data.pack(b, (m, n), width.nr());
        Self { m, n, width, data }
    }

    /// Inner dimension (rows of the unpacked matrix).
    pub fn inner_dim(&self) -> usize {
        self.m
    }

    /// Output width (columns of the unpacked matrix).
    pub fn cols(&self) -> usize {
        self.n
    }
}

/// Where a register tile stores its output: row `i` of the tile at an
/// address of its own (at the tile's first column), so that the same tiles
/// write one row-major matrix — the case `base + i * n` — and rows that
/// live in separate buffers. Small and `Copy`, because a tile's operands
/// carry it: an array of 32 addresses in its place was copied with 64-byte
/// moves and read back 8 bytes at a time, each read missing store
/// forwarding, and the AMX product ran 1.7x slower for it.
#[derive(Clone, Copy)]
pub(super) enum TileRows<T> {
    /// Row `i` at `base + i * n`.
    Strided(*mut T, usize),
    /// Row `i` at `table[i] + j0`, `table` a run's [`RowBase::Table`] from
    /// the tile's first row on.
    Table(*const *mut T, usize),
}

impl<T> TileRows<T> {
    /// The address of tile row `i`.
    ///
    /// # Safety
    /// `i` must be a row of the tile, and a table the tile reads must be
    /// alive.
    #[inline(always)]
    pub(super) unsafe fn row(self, i: usize) -> *mut T {
        match self {
            TileRows::Strided(base, n) => base.wrapping_add(i * n),
            // SAFETY: the caller's contract.
            TileRows::Table(table, j0) => unsafe { *table.add(i) }.wrapping_add(j0),
        }
    }
}

/// The operands of one register tile: `mr` rows of `a` against one panel,
/// producing `acc + bias` in the first `cols` columns of its `mr` output
/// rows.
///
/// The panel is `depth` rows of `NR` floats, `stride` floats apart, of which
/// the arms read the first `cols`: a packed panel (`stride == NR`), columns
/// of a row-major right-hand side (`stride == n`, [`super::dense`]'s forward
/// product, one `k`-block of it at a time) or a packed gradient
/// (`dense::gemm_at_b_f32`). A caller with no bias passes [`NO_BIAS`]:
/// `x + -0.0` is `x` for every `x`, signed zeros and NaNs included, so the
/// store is the chain's own bits.
///
/// A tile function's caller vouches that `a` is valid for `mr` rows of
/// `depth` floats `m` apart, `panel` for `depth` rows of `cols` floats
/// `stride` apart, `bias` for `cols` and each of the first `mr` addresses of
/// `out` for `cols` floats, with `1 <= mr <= MR` and `cols <= NR` for the
/// arm's `MR x NR`.
#[derive(Clone, Copy)]
pub(super) struct Tile {
    pub(super) a: *const f32,
    /// Row stride of `a`.
    pub(super) m: usize,
    /// Terms of each chain: columns of `a` read, rows of the panel.
    pub(super) depth: usize,
    pub(super) panel: *const f32,
    /// Floats from one panel row to the next.
    pub(super) stride: usize,
    /// Floats from a panel row to the line the tile prefetches while it
    /// runs that row (a hint: it may point past every buffer).
    pub(super) ahead: usize,
    pub(super) bias: *const f32,
    pub(super) out: TileRows<f32>,
    pub(super) cols: usize,
    /// Skip the terms whose `a` is an exact zero, as the row-major scalar
    /// arm and the historical weight gradient do: `0 * inf` and `-0 + 0`
    /// would otherwise reach the chain.
    pub(super) skip: bool,
    /// Start each chain from what `out` holds (with [`NO_BIAS`]: the chain
    /// a tile over the earlier terms stored there) instead of from `+0.0`.
    /// An f32 store and load change no bit, so a depth walked in blocks is
    /// one chain over ascending `k`.
    pub(super) carry: bool,
}

/// A bias of `-0.0`s, one full panel wide: the identity epilogue.
pub(super) static NO_BIAS: [f32; 32] = [-0.0; 32];

pub(super) type TileFn = unsafe fn(mr: usize, tile: Tile);

/// The output matrix of a product whose panels are handed out: every thread
/// that runs a panel writes through the one pointer, each to its panel's
/// columns only.
pub(super) struct Lanes<T>(pub(super) *mut T);

// SAFETY: a product offsets the pointer to lanes of the panel (or, for
// per-row operands, the row tile) it is running, and a panel is run by
// exactly one thread — the pool hands every index out once — so no lane is
// reached from two threads. The lanes are plain numbers (`T: Send`).
unsafe impl<T: Send> Sync for Lanes<T> {}

impl<T> Lanes<T> {
    /// # Safety
    /// `i` must be inside the matrix the pointer came from (or one past it).
    pub(super) unsafe fn at(&self, i: usize) -> *mut T {
        // SAFETY: the caller's contract.
        unsafe { self.0.add(i) }
    }
}

/// Row buffers one table of addresses holds: a product over more of them
/// runs them this many at a time.
const TABLE_ROWS: usize = 128;

/// The `rows x n` output of a bound-weight product ([`gemm_f32_packed`],
/// [`super::int8::gemm_u8i8_dequant`]). Its register tiles store each row
/// at an address of its own, so both forms are one path.
#[derive(Debug)]
pub enum Rows<'a> {
    /// One row-major matrix: row `r` at `r * n`.
    Matrix(&'a mut [f32]),
    /// One buffer a row, each exactly `n` long: rows a caller hands on — a
    /// served reconstruction changes hands this way — without a copy.
    Buffers(&'a mut [AlignedRow]),
}

impl<'a> From<&'a mut [f32]> for Rows<'a> {
    fn from(matrix: &'a mut [f32]) -> Self {
        Rows::Matrix(matrix)
    }
}

impl<'a> From<&'a mut [AlignedRow]> for Rows<'a> {
    fn from(buffers: &'a mut [AlignedRow]) -> Self {
        Rows::Buffers(buffers)
    }
}

impl Rows<'_> {
    /// Runs `product(rows, base)` over the output: a matrix in one run,
    /// buffers [`TABLE_ROWS`] at a time, their addresses in a table on this
    /// thread's stack — the thread that borrows the buffers, so that no
    /// claimant of the product's panels borrows one. A product's rows are
    /// independent, so the split moves no bit.
    ///
    /// # Panics
    /// Panics unless the output is `rows` rows of `n`.
    pub(super) fn runs(
        self,
        (rows, n): (usize, usize),
        mut product: impl FnMut(Range<usize>, &RowBase<'_, f32>),
    ) {
        match self {
            Rows::Matrix(out) => {
                assert_eq!(out.len(), rows * n, "product out length mismatch");
                product(0..rows, &RowBase::Strided(out.as_mut_ptr(), n));
            }
            Rows::Buffers(buffers) => {
                assert_eq!(buffers.len(), rows, "product out row count mismatch");
                for (i, run) in buffers.chunks_mut(TABLE_ROWS).enumerate() {
                    let mut table = [std::ptr::null_mut(); TABLE_ROWS];
                    for (row, buffer) in table.iter_mut().zip(run.iter_mut()) {
                        assert_eq!(buffer.len(), n, "product out row length mismatch");
                        *row = buffer.as_mut_ptr();
                    }
                    let rows = i * TABLE_ROWS..i * TABLE_ROWS + run.len();
                    product(rows, &RowBase::Table(&table[..run.len()]));
                }
            }
        }
    }
}

/// Where the rows of a product's output (one run of it) start, as every
/// claimant of its panels reads them.
pub(super) enum RowBase<'t, T> {
    /// Row `r` at `base + r * n`.
    Strided(*mut T, usize),
    /// Row `r` at `table[r]`.
    Table(&'t [*mut T]),
}

// SAFETY: as `Lanes`: a claimant reaches, through the addresses, only the
// lanes of the panel it runs (or the rows of the tile it runs), and no
// other thread runs that panel. The lanes are plain numbers (`T: Send`).
unsafe impl<T: Send> Sync for RowBase<'_, T> {}

impl<T> RowBase<'_, T> {
    /// Row `r` at column `j0`. Computing the address is safe; a store
    /// through it is as sound as `r` and `j0` are inside the output.
    fn at(&self, r: usize, j0: usize) -> *mut T {
        match self {
            RowBase::Strided(base, n) => base.wrapping_add(r * n + j0),
            RowBase::Table(table) => table[r].wrapping_add(j0),
        }
    }

    /// The rows `r` of a tile, each at column `j0`. A [`TileRows::Table`]
    /// reads this base's table: the tile must run while the table lives.
    pub(super) fn tile(&self, r: Range<usize>, j0: usize) -> TileRows<T> {
        match self {
            RowBase::Strided(_, n) => TileRows::Strided(self.at(r.start, j0), *n),
            RowBase::Table(table) => TileRows::Table(table[r.start..].as_ptr(), j0),
        }
    }
}

impl RowBase<'_, f32> {
    /// The epilogue of a bound-weight product: `o = f(o)` over columns `j`
    /// of rows `r`, while the tile that just wrote them is still in L1.
    ///
    /// # Safety
    /// Those lanes must be inside the output and the caller's alone.
    pub(super) unsafe fn act(&self, r: Range<usize>, j: Range<usize>, f: impl Fn(f32) -> f32) {
        for row in r {
            // SAFETY: the caller's contract.
            let lanes = unsafe { std::slice::from_raw_parts_mut(self.at(row, j.start), j.len()) };
            for o in lanes {
                *o = f(*o);
            }
        }
    }
}

/// Runs `part(state, p)` for every `p < parts`: on the pool when `pooled`
/// and there is more than one part and more than one thread to run them,
/// else as a plain loop on the caller. Each thread that runs parts makes its
/// own `state` with `init`, uses it for all the parts it claims and drops it
/// there. One thread walks its parts without claiming them: a claim is an
/// atomic read-modify-write and buys nothing there (the int8 tail's AMX
/// product at 64 x 545 x 1452 read ≈ 2 us of 40 faster without).
pub(super) fn hand_out<S>(
    parts: usize,
    pooled: bool,
    init: impl Fn() -> S + Sync + Send,
    part: impl Fn(&mut S, usize) + Sync + Send,
) {
    if pooled && parts > 1 && rayon::current_num_threads() > 1 {
        (0..parts).into_par_iter().for_each_init(init, part);
    } else {
        let mut state = init();
        (0..parts).for_each(|p| part(&mut state, p));
    }
}

/// The `init` of a [`hand_out`] whose parts carry no state.
pub(super) fn unit() {}

/// The loop nest of both bound-weight products ([`gemm_f32_packed`],
/// [`super::int8::gemm_u8i8_dequant`]) over `rows x n` outputs in panels of
/// `panel_cols` columns, for an arm of `mr x nr` register tiles: panel-outer,
/// so a panel stays cache-resident while every row tile of the batch runs
/// against it, in `nr`-column blocks of a wider panel. `tile(state, p, rows,
/// cols)` runs one tile: rows `rows` against output columns `cols` of panel
/// `p`. The panels are handed out when `pooled`, each claimant with its own
/// `init()` — the AMX arm's tile state — and every tile runs once.
pub(super) fn walk_panels<S>(
    rows: usize,
    n: usize,
    panel_cols: usize,
    (mr, nr): (usize, usize),
    pooled: bool,
    init: impl Fn() -> S + Sync + Send,
    tile: impl Fn(&mut S, usize, Range<usize>, Range<usize>) + Sync + Send,
) {
    hand_out(n.div_ceil(panel_cols), pooled, init, |state, p| {
        let end = n.min((p + 1) * panel_cols);
        for j0 in (p * panel_cols..end).step_by(nr) {
            for r in (0..rows).step_by(mr) {
                tile(state, p, r..rows.min(r + mr), j0..end.min(j0 + nr));
            }
        }
    });
}

/// The product size, in multiply-adds, from which [`gemm_f32_packed`] hands
/// its panels out through the pool (see the README's kernel section for the
/// measured fork-join cost behind it); the row-major products of
/// [`super::dense`] share it.
pub(super) const PAR_MIN_MACS: usize = 1 << 19;

/// The register tile that runs a `width` layout here, as `(tile, (MR, NR))`,
/// by the views of the level the layout runs at: the arm the layout was
/// packed for where the host has it, the 256-bit one over 16-column blocks
/// of a 512-bit panel on a host without AVX-512F, the portable tile on a
/// host without AVX2.
pub(super) fn register_tile(width: PackedWidth) -> (TileFn, (usize, usize)) {
    let level = width.runs();
    match (level.kernel(), level.packed_width()) {
        #[cfg(target_arch = "x86_64")]
        (Kernel::Avx2Fma, PackedWidth::Zmm) => (x86::rows_zmm, (12, 32)),
        #[cfg(target_arch = "x86_64")]
        (Kernel::Avx2Fma, PackedWidth::Ymm) => (x86::rows_ymm, (6, 16)),
        _ => (tile_portable, (12, width.nr())),
    }
}

/// Fused dense product `out = act(a * b + bias)`: `a` is `rows x m`
/// row-major, `b` the packed `m x n` right-hand side, `bias` has `n` entries
/// and `out` is `rows x n` — a row-major matrix or one buffer a row
/// ([`Rows`]). `out` is **overwritten** (it need not be zeroed) and each
/// element is written once, `act` applied while its tile is still in L1.
///
/// Bit-identical to `gemm_f32(Kernel::Avx2Fma, ..)` into a zeroed `out`
/// followed by `o = act(o + bias)`, for every batch shape, both widths and
/// both output forms (see the module docs).
///
/// # Panics
/// Panics if the slice lengths disagree with `b`'s dimensions.
pub fn gemm_f32_packed<'o, F: Fn(f32) -> f32 + Sync>(
    a: &[f32],
    b: &PackedRhs,
    bias: &[f32],
    act: F,
    out: impl Into<Rows<'o>>,
) {
    product(a, b, bias, act, out.into(), PAR_MIN_MACS);
}

/// [`gemm_f32_packed`] with the size from which the panels are handed out as
/// a parameter (the parity tests run every shape on both sides of it).
fn product<F: Fn(f32) -> f32 + Sync>(
    a: &[f32],
    b: &PackedRhs,
    bias: &[f32],
    act: F,
    out: Rows<'_>,
    par_min_macs: usize,
) {
    let (m, n) = (b.m, b.n);
    assert_eq!(a.len() % m, 0, "gemm_f32_packed lhs length mismatch");
    assert_eq!(bias.len(), n, "gemm_f32_packed bias length mismatch");
    let (arm, shape) = register_tile(b.width);
    let panel_cols = b.width.nr();
    out.runs((a.len() / m, n), |run, out| {
        let (a, rows) = (&a[run.start * m..run.end * m], run.len());
        let pooled = rows * m * n >= par_min_macs;
        walk_panels(rows, n, panel_cols, shape, pooled, unit, |_, p, r, j| {
            let panel = &b.data[p * m * panel_cols..(p + 1) * m * panel_cols];
            let tile = Tile {
                a: a[r.start * m..r.end * m].as_ptr(),
                m,
                depth: m,
                panel: panel[j.start % panel_cols..].as_ptr(),
                stride: panel_cols,
                // The same row of the next panel: a batch of one tile meets
                // every panel cold.
                ahead: m * panel_cols,
                bias: bias[j.clone()].as_ptr(),
                out: out.tile(r.clone(), j.start),
                cols: j.len(),
                skip: false,
                carry: false,
            };
            // The tile's lanes are columns `j` of rows `r`: columns of panel
            // `p`, which no other thread runs.
            // SAFETY: `register_tile` feature-checked the arm; `a`, `panel`
            // and `bias` are the slices just taken, `out` addresses rows `r`
            // of the output at column `j.start` and no arm writes past `j`.
            unsafe { arm(r.len(), tile) };
            // SAFETY: the lanes the tile just wrote, as above.
            unsafe { out.act(r, j, &act) };
        });
    });
}

/// The arm for hosts without AVX2: `f32::mul_add` is the same
/// correctly-rounded fused operation the vector FMA performs, so this is
/// slow but bit-identical. It takes any tile shape.
///
/// # Safety
/// `t` must satisfy [`Tile`]'s contract for `mr` rows.
unsafe fn tile_portable(mr: usize, t: Tile) {
    for r in 0..mr {
        for c in 0..t.cols {
            // SAFETY: row `r` of `out` is good for `cols` floats.
            let mut acc = if t.carry {
                unsafe { *t.out.row(r).add(c) }
            } else {
                0.0f32
            };
            for k in 0..t.depth {
                // SAFETY: `r < mr`, `k < depth`, `c < cols`: inside the
                // ranges the caller vouches for.
                let (av, bv) = unsafe { (*t.a.add(r * t.m + k), *t.panel.add(k * t.stride + c)) };
                if !(t.skip && av == 0.0) {
                    acc = av.mul_add(bv, acc);
                }
            }
            // SAFETY: as above; row `r` of `out` is good for `cols`.
            unsafe { *t.out.row(r).add(c) = acc + *t.bias.add(c) };
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) mod x86 {
    use super::Tile;
    use core::arch::x86_64::{
        __m256, __m512, _mm256_add_ps, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_cmpgt_epi32,
        _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_maskload_ps, _mm256_maskstore_ps,
        _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps, _mm512_add_ps,
        _mm512_cmp_ps_mask, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask3_fmadd_ps,
        _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm_prefetch, _CMP_NEQ_UQ, _MM_HINT_ET0, _MM_HINT_T1,
    };

    /// Asks for the tile's `MR` output rows for writing, for the `k` loop
    /// to hide: a served tail's last layer writes row buffers that the
    /// commit then swaps with the sessions' feedback, so they are cold
    /// (100k x 896 bytes a round on the 100k-station fleet). One hint goes
    /// to each of a row's `offsets` — floats from its first to its last, at
    /// most 16 apart, so every line the row's `cols` floats touch gets one;
    /// a hint never faults. Without the `prfchw` target feature, unstable on
    /// rustc 1.95, LLVM emits `prefetcht0` for `_MM_HINT_ET0`.
    ///
    /// # Safety
    /// `t` must satisfy [`Tile`]'s contract for `MR` rows.
    #[inline(always)]
    unsafe fn write_hint<const MR: usize, const N: usize>(t: Tile, offsets: [usize; N]) {
        for r in 0..MR {
            // SAFETY: `r < MR` is a row of the tile; `_mm_prefetch` is a
            // hint that never dereferences, and SSE is x86_64's baseline.
            unsafe {
                let row = t.out.row(r);
                for at in offsets {
                    _mm_prefetch::<_MM_HINT_ET0>(row.wrapping_add(at).cast());
                }
            }
        }
    }

    /// `mr <= 12` rows against one 32-float panel.
    ///
    /// # Safety
    /// Requires `avx512f`; `t` must satisfy [`Tile`]'s contract for `mr` rows
    /// at `12 x 32`.
    #[target_feature(enable = "avx512f")]
    pub(in crate::kernel) unsafe fn rows_zmm(mr: usize, t: Tile) {
        // SAFETY: the caller's contract is `tile_zmm::<mr, _, _>`'s.
        unsafe {
            match (t.skip, t.carry) {
                (false, false) => {
                    tile_by_rows!(tile_zmm::<_, false, false>(t), mr, [1 2 3 4 5 6 7 8 9 10 11 12])
                }
                (false, true) => {
                    tile_by_rows!(tile_zmm::<_, false, true>(t), mr, [1 2 3 4 5 6 7 8 9 10 11 12])
                }
                (true, false) => {
                    tile_by_rows!(tile_zmm::<_, true, false>(t), mr, [1 2 3 4 5 6 7 8 9 10 11 12])
                }
                (true, true) => {
                    tile_by_rows!(tile_zmm::<_, true, true>(t), mr, [1 2 3 4 5 6 7 8 9 10 11 12])
                }
            }
        }
    }

    /// The 512-bit microkernel: an `MR x 32` accumulator tile (two zmm per
    /// row) held in registers over the tile's `depth`; each `k` loads the
    /// panel row once and feeds `2 * MR` FMA chains from `MR` broadcasts.
    /// With `SKIP`, a row's two FMAs are masked off where its `a` is zero;
    /// with `CARRY`, the chains start from `out`. Columns past `cols` are
    /// masked out of every load and the store.
    ///
    /// # Safety
    /// As [`rows_zmm`], with `mr == MR`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_zmm<const MR: usize, const SKIP: bool, const CARRY: bool>(t: Tile) {
        let Tile {
            a,
            m,
            depth,
            panel,
            stride,
            ahead,
            ..
        } = t;
        let mask = ((1u64 << t.cols) - 1) as u32;
        let masks = [mask as u16, (mask >> 16) as u16];
        // Masked loads cost the packed tail ≈ 10 %: only a partial panel of a
        // row-major `b` takes them (LLVM unswitches the loop on `whole`).
        let whole = t.cols == 32;
        let mut acc: [[__m512; 2]; MR] = [[_mm512_setzero_ps(); 2]; MR];
        // SAFETY: every `a` read is at `r < MR` and `k < depth`; panel loads
        // read `cols` lanes (all 32 when `whole`), bias and `out` accesses
        // are masked to them — inside the ranges the caller vouches for.
        unsafe {
            if CARRY {
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let o = t.out.row(r);
                    acc_row[0] = _mm512_maskz_loadu_ps(masks[0], o);
                    acc_row[1] = _mm512_maskz_loadu_ps(masks[1], o.wrapping_add(16));
                }
            }
            let last = t.cols.saturating_sub(1);
            write_hint::<MR, 3>(t, [0, last.min(16), last]);
            for k in 0..depth {
                let row = panel.add(k * stride);
                let (b0, b1) = if whole {
                    (_mm512_loadu_ps(row), _mm512_loadu_ps(row.add(16)))
                } else {
                    let upper = _mm512_maskz_loadu_ps(masks[1], row.wrapping_add(16));
                    (_mm512_maskz_loadu_ps(masks[0], row), upper)
                };
                // A hint never faults past the end.
                _mm_prefetch::<_MM_HINT_T1>(row.wrapping_add(ahead).cast());
                _mm_prefetch::<_MM_HINT_T1>(row.wrapping_add(ahead + 16).cast());
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*a.add(r * m + k));
                    if SKIP {
                        let live = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(av, _mm512_setzero_ps());
                        acc_row[0] = _mm512_mask3_fmadd_ps(av, b0, acc_row[0], live);
                        acc_row[1] = _mm512_mask3_fmadd_ps(av, b1, acc_row[1], live);
                    } else {
                        acc_row[0] = _mm512_fmadd_ps(av, b0, acc_row[0]);
                        acc_row[1] = _mm512_fmadd_ps(av, b1, acc_row[1]);
                    }
                }
            }
            let bias0 = _mm512_maskz_loadu_ps(masks[0], t.bias);
            // `wrapping_add`: with `cols <= 16` the upper half is fully
            // masked off and its address may lie past the buffers.
            let bias1 = _mm512_maskz_loadu_ps(masks[1], t.bias.wrapping_add(16));
            for (r, acc_row) in acc.iter().enumerate() {
                let o = t.out.row(r);
                _mm512_mask_storeu_ps(o, masks[0], _mm512_add_ps(acc_row[0], bias0));
                let upper = _mm512_add_ps(acc_row[1], bias1);
                _mm512_mask_storeu_ps(o.wrapping_add(16), masks[1], upper);
            }
        }
    }

    /// `mr <= 6` rows against one 16-float panel.
    ///
    /// # Safety
    /// Requires `avx2` and `fma`; `t` must satisfy [`Tile`]'s contract for
    /// `mr` rows at `6 x 16`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(in crate::kernel) unsafe fn rows_ymm(mr: usize, t: Tile) {
        // SAFETY: the caller's contract is `tile_ymm::<mr, _, _>`'s.
        unsafe {
            match (t.skip, t.carry) {
                (false, false) => tile_by_rows!(tile_ymm::<_, false, false>(t), mr, [1 2 3 4 5 6]),
                (false, true) => tile_by_rows!(tile_ymm::<_, false, true>(t), mr, [1 2 3 4 5 6]),
                (true, false) => tile_by_rows!(tile_ymm::<_, true, false>(t), mr, [1 2 3 4 5 6]),
                (true, true) => tile_by_rows!(tile_ymm::<_, true, true>(t), mr, [1 2 3 4 5 6]),
            }
        }
    }

    /// The 256-bit microkernel: [`tile_zmm`] at `MR x 16` on ymm registers
    /// (with `SKIP`, the FMA is blended away where `a` is zero).
    ///
    /// # Safety
    /// As [`rows_ymm`], with `mr == MR`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile_ymm<const MR: usize, const SKIP: bool, const CARRY: bool>(t: Tile) {
        let Tile {
            a,
            m,
            depth,
            panel,
            stride,
            ahead,
            ..
        } = t;
        let limit = _mm256_set1_epi32(t.cols as i32);
        let masks = [
            _mm256_cmpgt_epi32(limit, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
            _mm256_cmpgt_epi32(limit, _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15)),
        ];
        let whole = t.cols == 16;
        let mut acc: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        // SAFETY: `a` is read at `r < MR`, `k < depth`; panel loads read
        // `cols` lanes (all 16 when `whole`), bias and `out` accesses are
        // masked to them (`maskload` / `maskstore` touch nothing masked off):
        // inside the ranges the caller vouches for.
        unsafe {
            if CARRY {
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let o = t.out.row(r);
                    acc_row[0] = _mm256_maskload_ps(o, masks[0]);
                    acc_row[1] = _mm256_maskload_ps(o.wrapping_add(8), masks[1]);
                }
            }
            write_hint::<MR, 2>(t, [0, t.cols.saturating_sub(1)]);
            for k in 0..depth {
                let row = panel.add(k * stride);
                let (b0, b1) = if whole {
                    (_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8)))
                } else {
                    let upper = _mm256_maskload_ps(row.wrapping_add(8), masks[1]);
                    (_mm256_maskload_ps(row, masks[0]), upper)
                };
                _mm_prefetch::<_MM_HINT_T1>(row.wrapping_add(ahead).cast());
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*a.add(r * m + k));
                    let fma0 = _mm256_fmadd_ps(av, b0, acc_row[0]);
                    let fma1 = _mm256_fmadd_ps(av, b1, acc_row[1]);
                    if SKIP {
                        let live = _mm256_cmp_ps::<_CMP_NEQ_UQ>(av, _mm256_setzero_ps());
                        acc_row[0] = _mm256_blendv_ps(acc_row[0], fma0, live);
                        acc_row[1] = _mm256_blendv_ps(acc_row[1], fma1, live);
                    } else {
                        acc_row[0] = fma0;
                        acc_row[1] = fma1;
                    }
                }
            }
            let bias0 = _mm256_maskload_ps(t.bias, masks[0]);
            // `wrapping_add`: with `cols <= 8` the upper half is fully
            // masked off and its address may lie past the buffers.
            let bias1 = _mm256_maskload_ps(t.bias.wrapping_add(8), masks[1]);
            for (r, acc_row) in acc.iter().enumerate() {
                let o = t.out.row(r);
                _mm256_maskstore_ps(o, masks[0], _mm256_add_ps(acc_row[0], bias0));
                let upper = _mm256_add_ps(acc_row[1], bias1);
                _mm256_maskstore_ps(o.wrapping_add(8), masks[1], upper);
            }
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::{gemm_f32, Kernel};
    use super::*;
    use proptest::prelude::*;

    const WIDTHS: [PackedWidth; 2] = [PackedWidth::Ymm, PackedWidth::Zmm];

    type Activation = fn(f32) -> f32;

    /// The epilogues the `neural` layer fuses, as plain functions.
    const ACTIVATIONS: [(&str, Activation); 4] = [
        ("identity", |v| v),
        ("relu", |v| v.max(0.0)),
        ("tanh", f32::tanh),
        ("leaky_relu", |v| if v >= 0.0 { v } else { 0.01 * v }),
    ];

    /// SplitMix64-driven values in `(-1, 1)`; with `specials`, about one in
    /// sixteen is NaN, an infinity or a signed zero.
    pub(in crate::kernel) fn values(len: usize, seed: u64, specials: bool) -> Vec<f32> {
        const SPECIAL: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                if specials && z.is_multiple_of(16) {
                    SPECIAL[(z >> 8) as usize % SPECIAL.len()]
                } else {
                    (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
                }
            })
            .collect()
    }

    pub(in crate::kernel) fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// What the served tail computed before packing: the row-major FMA GEMM
    /// into a zeroed `out`, then the epilogue sweep.
    fn row_major(
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        (m, n): (usize, usize),
        act: Activation,
    ) -> Vec<u32> {
        let mut out = vec![0.0f32; a.len() / m * n];
        gemm_f32(Kernel::Avx2Fma, a, b, &mut out, m, n);
        for row in out.chunks_exact_mut(n) {
            for (o, &bv) in row.iter_mut().zip(bias) {
                *o = act(*o + bv);
            }
        }
        bits(&out)
    }

    fn packed(
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        (m, n): (usize, usize),
        act: Activation,
        width: PackedWidth,
    ) -> Vec<u32> {
        // A dirty `out` proves every element is overwritten.
        let mut out = vec![f32::NAN; a.len() / m * n];
        gemm_f32_packed(a, &PackedRhs::pack(b, m, n, width), bias, act, &mut out[..]);
        bits(&out)
    }

    #[test]
    fn packing_is_panel_major_zero_padded_and_cache_line_aligned() {
        let (m, n) = (3usize, 37usize);
        let b: Vec<f32> = (0..m * n).map(|i| i as f32 + 1.0).collect();
        for width in WIDTHS {
            let nr = width.nr();
            let packed = PackedRhs::pack(&b, m, n, width);
            assert_eq!((packed.inner_dim(), packed.cols()), (m, n));
            assert_eq!(packed.data.len(), n.div_ceil(nr) * m * nr);
            for (i, &v) in packed.data.iter().enumerate() {
                let (p, k, c) = (i / (m * nr), i / nr % m, i % nr);
                let j = p * nr + c;
                let want = if j < n { b[k * n + j] } else { 0.0 };
                assert_eq!(v, want, "{width:?} panel {p} k {k} lane {c}");
            }
            // The allocator is asked for the alignment, so a clone keeps it.
            assert_eq!(packed.data.as_ptr() as usize % 64, 0, "{width:?}");
            assert_eq!(
                packed.clone().data.as_ptr() as usize % 64,
                0,
                "{width:?} clone"
            );
        }
        assert_eq!(PackedWidth::Ymm.name(), "avx2_fma_6x16");
        assert_eq!(PackedWidth::Zmm.name(), "avx512f_12x32");
        assert_eq!(
            PackedWidth::detect() == PackedWidth::Zmm,
            Backend::host() >= Backend::Avx512
        );
    }

    /// The layouts whose own vector tile this host runs.
    pub(in crate::kernel) fn vector_widths() -> Vec<PackedWidth> {
        let vector = |level: Backend| (level >= Backend::Avx2).then(|| level.packed_width());
        Backend::arms(vector).into_iter().flatten().collect()
    }

    /// Every const-generic instance of both microkernels (`rows_zmm` →
    /// `tile_zmm::<1..=12, _, _>`, `rows_ymm` → `tile_ymm::<1..=6, _, _>`)
    /// at every partial-panel width, with and without the zero skip, from
    /// `+0.0` and carried from `out`, on a panel whose rows lie `stride > NR`
    /// apart, against the portable tile — and the lanes past `cols`, like the
    /// rows past `mr`, must keep what they held.
    #[test]
    fn every_register_tile_matches_the_portable_tile_and_stays_inside_its_mask() {
        const GUARD: f32 = 7.25;
        let m = 19usize;
        for width in vector_widths() {
            let (vector, (mr_max, nr)) = register_tile(width);
            assert_eq!(nr, width.nr());
            // One spare row and `nr` spare columns of guard around the tile.
            let n = 2 * nr;
            let a = values(mr_max * m, 11, true);
            let stride = nr + 3;
            let panel = values(m * stride, 12, true);
            let bias = values(nr, 13, false);
            let flags = [(false, false), (true, false), (false, true), (true, true)];
            for (mr, cols, (skip, carry)) in (1..=mr_max)
                .flat_map(|mr| (1..=nr).flat_map(move |cols| flags.map(|f| (mr, cols, f))))
            {
                let run = |arm: TileFn| {
                    let mut out = vec![GUARD; (mr_max + 1) * n];
                    let tile = Tile {
                        a: a.as_ptr(),
                        m,
                        depth: m,
                        panel: panel.as_ptr(),
                        stride,
                        ahead: m * stride,
                        bias: bias[..cols].as_ptr(),
                        out: RowBase::Strided(out.as_mut_ptr(), n).tile(0..mr_max, 0),
                        cols,
                        skip,
                        carry,
                    };
                    // SAFETY: `register_tile` feature-checked `vector`; `a` holds `mr_max >= mr` rows of `m`,
                    // `panel` `m` rows of `stride >= nr`, `bias` `nr >= cols`,
                    // and `out` addresses `mr_max` rows of `n >= cols` lanes.
                    unsafe { arm(mr, tile) };
                    bits(&out)
                };
                let got = run(vector);
                let case = format!("{width:?} mr={mr} cols={cols} skip={skip} carry={carry}");
                assert_eq!(got, run(tile_portable), "{case}");
                for (i, &v) in got.iter().enumerate() {
                    if i / n >= mr || i % n >= cols {
                        assert_eq!(v, GUARD.to_bits(), "{case} @{i}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_row_count_matches_the_row_major_kernel_bitwise() {
        if Backend::host() < Backend::Avx2 {
            return;
        }
        let (_, identity) = ACTIVATIONS[0];
        for (m, n) in [(1usize, 1usize), (7, 33), (56, 224)] {
            let b = values(m * n, 3, false);
            let bias = values(n, 4, false);
            for rows in 0..=27usize {
                let a = values(rows * m, 5 + rows as u64, false);
                let want = row_major(&a, &b, &bias, (m, n), identity);
                for width in WIDTHS {
                    let got = packed(&a, &b, &bias, (m, n), identity, width);
                    assert_eq!(got, want, "{width:?} rows={rows} {m}x{n}");
                }
            }
        }
    }

    /// Pools 1, 2 and 3 threads wide, the installing thread included.
    pub(in crate::kernel) fn pools() -> Vec<(usize, rayon::ThreadPool)> {
        [1usize, 2, 3]
            .map(|threads| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
                (threads, pool.build().expect("the shim's build cannot fail"))
            })
            .into()
    }

    /// Claimed panels == one-thread panels, bit for bit: every shape with
    /// its panels handed out (threshold 0; `(1, 1)` is one panel and stays a
    /// plain loop, `(7, 33)` is two zmm panels) on pools of every width,
    /// against the plain loop (threshold `usize::MAX`) — for every row count
    /// up to six whole zmm tiles, both layouts on whichever arm the host
    /// runs them, a fused activation, and NaN / ±Inf / −0.0 data.
    #[test]
    fn claimed_panels_equal_one_thread_panels_bitwise() {
        eprintln!(
            "packed hand-out parity ran on the tiles of: {:?}",
            vector_widths()
        );
        let pools = pools();
        let (_, relu) = ACTIVATIONS[1];
        for (m, n) in [(1usize, 1usize), (7, 33), (56, 224)] {
            let b = values(m * n, 3, true);
            let bias = values(n, 4, false);
            for width in WIDTHS {
                let rhs = PackedRhs::pack(&b, m, n, width);
                for rows in 0..=70usize {
                    let a = values(rows * m, 5 + rows as u64, true);
                    let run = |par_min_macs: usize| {
                        let mut out = vec![f32::NAN; rows * n];
                        product(&a, &rhs, &bias, relu, Rows::Matrix(&mut out), par_min_macs);
                        bits(&out)
                    };
                    let one_thread = run(usize::MAX);
                    for (threads, pool) in &pools {
                        let claimed = pool.install(|| run(0));
                        assert_eq!(
                            claimed, one_thread,
                            "{width:?} rows={rows} {m}x{n} on {threads} threads"
                        );
                    }
                }
            }
        }
    }

    /// A `rows x n` matrix of NaNs whose first row starts `offset` bytes
    /// past a 64-byte boundary, in `store`: at `n = 224` every row does.
    pub(crate) fn matrix_at(
        store: &mut AlignedRow,
        rows: usize,
        n: usize,
        offset: usize,
    ) -> &mut [f32] {
        *store = AlignedRow::zeros(rows * n + 16);
        let matrix = &mut store[offset / 4..][..rows * n];
        matrix.fill(f32::NAN);
        matrix
    }

    /// The output row offsets the buffer tests take, in bytes mod 64.
    pub(crate) const OFFSETS: [usize; 4] = [0, 16, 32, 48];

    /// One buffer a row == the matrix, bit for bit: every arm writes each
    /// row at its own address, also past one table of row addresses (a run
    /// of [`TABLE_ROWS`] buffers and a ragged one), with the panels handed
    /// out or not, on pools of every width — and so does a matrix whose
    /// rows start at each 16-byte offset from a line, where the row buffers
    /// start on one.
    #[test]
    fn row_buffers_hold_the_matrix_rows_bitwise() {
        let pools = pools();
        let (_, tanh) = ACTIVATIONS[2];
        let mut store = AlignedRow::default();
        for (m, n) in [(7usize, 33usize), (56, 224)] {
            let b = values(m * n, 3, true);
            let bias = values(n, 4, false);
            for width in WIDTHS {
                let rhs = PackedRhs::pack(&b, m, n, width);
                for rows in [1usize, 13, TABLE_ROWS + 3] {
                    let a = values(rows * m, 5 + rows as u64, true);
                    let mut matrix = vec![f32::NAN; rows * n];
                    product(&a, &rhs, &bias, tanh, Rows::Matrix(&mut matrix), usize::MAX);
                    for (threads, pool) in &pools {
                        for par_min_macs in [0, usize::MAX] {
                            let label =
                                format!("{width:?} rows={rows} {m}x{n} on {threads} threads");
                            let nans = vec![f32::NAN; n];
                            let mut buffers: Vec<AlignedRow> =
                                (0..rows).map(|_| AlignedRow::from(&nans[..])).collect();
                            let out = Rows::Buffers(&mut buffers);
                            pool.install(|| product(&a, &rhs, &bias, tanh, out, par_min_macs));
                            let rows_out: Vec<f32> =
                                buffers.iter().flat_map(|r| r.to_vec()).collect();
                            assert_eq!(bits(&rows_out), bits(&matrix), "{label}");
                            for offset in OFFSETS {
                                let at = matrix_at(&mut store, rows, n, offset);
                                assert_eq!(at.as_ptr() as usize % 64, offset);
                                pool.install(|| {
                                    product(
                                        &a,
                                        &rhs,
                                        &bias,
                                        tanh,
                                        Rows::Matrix(&mut *at),
                                        par_min_macs,
                                    )
                                });
                                assert_eq!(bits(at), bits(&matrix), "{label} at {offset} mod 64");
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
        let (m, n) = (64usize, 1452usize);
        let below = (PAR_MIN_MACS - 1) / (m * n);
        assert!(below >= 1 && (below + 1) * m * n >= PAR_MIN_MACS);
        let b = values(m * n, 6, false);
        let bias = values(n, 7, false);
        let (_, tanh) = ACTIVATIONS[2];
        let pools = pools();
        for width in WIDTHS {
            let rhs = PackedRhs::pack(&b, m, n, width);
            for rows in [below, below + 1] {
                let a = values(rows * m, 8, false);
                let mut one_thread = vec![f32::NAN; rows * n];
                product(
                    &a,
                    &rhs,
                    &bias,
                    tanh,
                    Rows::Matrix(&mut one_thread),
                    usize::MAX,
                );
                for (threads, pool) in &pools {
                    let mut served = vec![f32::NAN; rows * n];
                    pool.install(|| gemm_f32_packed(&a, &rhs, &bias, tanh, &mut served[..]));
                    assert_eq!(
                        bits(&served),
                        bits(&one_thread),
                        "{width:?} rows={rows} on {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn a_short_bias_is_rejected() {
        let packed = PackedRhs::pack(&[1.0; 6], 2, 3, PackedWidth::detect());
        gemm_f32_packed(&[1.0; 2], &packed, &[0.0; 2], |v| v, &mut [0.0; 3][..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Packed == row-major FMA, bit for bit, at the tail's shapes and the
        /// panel-boundary widths around them, for every row-tile remainder,
        /// both vector widths (the ymm arm runs on an AVX-512 host too, via
        /// an explicit `PackedWidth`), every fused activation, and NaN / ±Inf / −0.0 data.
        #[test]
        fn prop_packed_gemm_equals_row_major_fma_bitwise(
            rows in 0usize..=27,
            mi in 0usize..4,
            ni in 0usize..10,
            ai in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            // The row-major oracle is the FMA arm only where the host has it.
            prop_assume!(Backend::host() >= Backend::Avx2);
            let m = [1usize, 7, 56, 545][mi];
            let n = [1usize, 15, 16, 17, 31, 32, 33, 224, 545, 1452][ni];
            let (name, act) = ACTIVATIONS[ai];
            let specials = seed % 2 == 0;
            let a = values(rows * m, seed, specials);
            let b = values(m * n, seed ^ 0xb, specials);
            let bias = values(n, seed ^ 0xb1a5, false);
            let want = row_major(&a, &b, &bias, (m, n), act);
            for width in WIDTHS {
                let got = packed(&a, &b, &bias, (m, n), act, width);
                prop_assert_eq!(&got, &want, "{:?} {} rows={} {}x{}", width, name, rows, m, n);
            }
        }
    }
}
