//! The row-major f32 products of a dense layer and the optimizer update of
//! a training step.
//!
//! | entry | computes | a part | arm under `avx2_fma` |
//! |---|---|---|---|
//! | [`gemm_f32`] | `out = a · b`: the forward pass, the batch-1 head, the per-payload oracle | one `NR`-column panel from two rows on, else a thread's share of the columns | the packed tail's register tile over the whole depth from two rows on, the last panel masked; for one row, the one-row tile over whole-row segments of `b` |
//! | [`gemm_at_b_update_f32`] | `w` moved by a [`Rule`] of `aᵀ · g`: a training step's weights, with no gradient buffer | one row tile of `w` | the same tile over the transposed input and the packed gradient, storing into a stack block that the rule's sweep consumes with the tile's rows of `w` and its moments |
//! | `gemm_at_b_f32` | `out = aᵀ · g`: the weight gradient in memory (the tests' oracle, behind `reference`) | one row tile of `out` | as above, with a copy in place of the rule |
//! | [`gemm_a_bt_f32`] | `out = a · bᵀ`: the input gradient | 16 columns of `out` | one [`sdot`] an element |
//! | [`update_f32`] | a [`Rule`]'s update from a gradient in memory: the biases | none: one sweep on the caller | the rule's scalar loop, compiled for `avx512f` (else `avx2`) |
//!
//! A product hands its parts out from 2^19 multiply-adds (the packed tail's
//! `PAR_MIN_MACS`); smaller ones run as a plain loop on the caller, as every
//! one does at pool width 1. The 448 x 56 x 224 model of the 2x2 / 20 MHz
//! workload trains below it. A bias update is never handed out: the widest
//! bias a model trains, `2·Nt·Nss·S` = 3,872 at 4x4 / 160 MHz, takes a few
//! microseconds of Adam.
//!
//! The update in [`gemm_at_b_update_f32`] is worth fusing for its bytes, not
//! its arithmetic: Adam runs ≈ 1 ns a parameter a core (its divisions and
//! square root), in L1 and from DRAM alike, and the fused step saves the
//! gradient's store and re-read — ≈ 0.4 ms of the 2.2 ms weight gradient +
//! Adam of a 4356 x 545 layer at batch 16 on two AVX-512 cores — and a
//! gradient buffer the layer's size.
//!
//! # Exactness
//!
//! Parts write disjoint outputs, and a part runs the same operations on an
//! element whoever claims it, so every result is bit-identical at every pool
//! width. Per element and backend the arithmetic is the historical one:
//!
//! * the forward and weight-gradient products are one chain over ascending
//!   `k` from `+0.0` — fused multiply-adds under `avx2_fma`, a rounded
//!   multiply and add under `scalar` — that skips exact-zero `a` terms
//!   except in the forward vector arm, which never did. The tiles hold the
//!   chain in a register where the scalar walk and a `k`-blocked one-row
//!   share round-trip it through `out`, which no f32 store changes; the
//!   panel tile ends with `acc + -0.0`, which is `acc`;
//! * an input-gradient element is one [`sdot`] call;
//! * an optimizer update is the element-wise expression it always was, in
//!   IEEE single precision: division and square root are correctly rounded
//!   in every vector width, and Rust never contracts a multiply and an add
//!   into an FMA, so the vector bodies are bit-identical to the scalar one —
//!   over a gradient in memory, or over the runs of one register tile in
//!   the fused step.

use super::packed::{hand_out, register_tile, unit, Lanes, PackedWidth, Panels, RowBase, Tile};
use super::packed::{NO_BIAS, PAR_MIN_MACS};
use super::{sdot, tune, Backend, Kernel};
use std::ops::Range;

/// Rows from which [`gemm_f32`]'s vector arm runs the panel register tile.
/// One row runs its own ([`RowBlock`]), which streams whole-row segments of
/// `b` where a panel reads `n` floats apart — the batch-1 head's bound.
const TILE_MIN_ROWS: usize = 2;

/// Rows of `b` below the one it multiplies that the row-major tile
/// prefetches: a panel's column of `b` is `n` floats a row apart, too far
/// for the hardware's stride prefetcher.
const AHEAD_ROWS: usize = 16;

/// Rows of `b` each block of a one-row share wider than one block streams
/// in turn: the rows stay in L2 while every block of the share reads them.
const ROW_K_BLOCK: usize = 64;

/// Rows of `out` in one part of the scalar `gemm_at_b_f32`.
const AT_B_ROWS: usize = 16;

/// Output columns of one part of [`gemm_a_bt_f32`]: each row of `b` is read
/// once and dotted with every row of `a` while it is in L1.
const BT_COLS: usize = 16;

/// Dense f32 GEMM: `out = a * b` where `a` is `rows x m`, `b` is `m x n` and
/// `out` is `rows x n`, all row-major. `out` is **overwritten**.
///
/// The scalar arm accumulates each output element over ascending `k` with
/// individually rounded adds and skips exact-zero `a` terms, in the
/// `k`-blocked walk. The vector arm runs one FMA chain per output element,
/// also over ascending `k`: from two rows on, an `MR x NR` register tile
/// holds it over the whole depth for each panel of `NR` columns, the last
/// one masked; one row takes a one-row register tile of its own. Any
/// call shape — whole batch, single row, either path, any part split —
/// produces bit-identical elements for identical inputs, and so does the
/// packed tail ([`super::packed::gemm_f32_packed`]) with a zero bias.
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm_f32(kernel: Kernel, a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize) {
    let tile = (kernel.runs() >= Backend::Avx2).then(PackedWidth::detect);
    forward(tile, a, b, out, (m, n), PAR_MIN_MACS);
}

/// [`gemm_f32`] with its register tiles' width (`None`: the scalar walk)
/// and its hand-out threshold as parameters, so that the parity tests run
/// both widths on one host and both sides of the threshold.
fn forward(
    tile: Option<PackedWidth>,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, n): (usize, usize),
    par_min_macs: usize,
) {
    assert_eq!(b.len(), m * n, "gemm_f32 rhs length mismatch");
    assert_eq!(a.len() % m.max(1), 0, "gemm_f32 lhs length mismatch");
    let rows = a.len().checked_div(m).unwrap_or(0);
    assert_eq!(out.len(), rows * n, "gemm_f32 out length mismatch");
    if rows == 0 {
        return;
    }
    let pooled = rows * m * n >= par_min_macs;
    let out = Lanes(out.as_mut_ptr());
    // `tile`'s one-row tile: (block, (lanes of a vector, most vectors a block)).
    let row: Option<(RowFn, _)> = match tile.map(PackedWidth::runs) {
        #[cfg(target_arch = "x86_64")]
        Some(level) if level >= Backend::Avx512 => Some((x86::row_zmm, (16, 24))),
        #[cfg(target_arch = "x86_64")]
        Some(Backend::Avx2) => Some((x86::row_ymm, (8, 12))),
        _ => None,
    };
    let row = row.filter(|_| rows < TILE_MIN_ROWS);
    let Some(width) = tile.filter(|_| row.is_none()) else {
        // The scalar walk and the one-row tile stream rows of `b`: each
        // thread takes one contiguous share of whole 16-float lines (the
        // split moves no bits, so it may follow the pool's width).
        let threads = pooled.then(rayon::current_num_threads).unwrap_or(1);
        let share = n.div_ceil(threads).next_multiple_of(16).max(16);
        let k_block = tune::params().f32_k_block.max(1);
        hand_out(n.div_ceil(share), pooled, unit, |_, p| {
            let cols = p * share..((p + 1) * share).min(n);
            match row {
                Some(row) => one_row(row, (a, b), &out, n, cols),
                None => walk(a, b, &out, (rows, m, n), cols, k_block),
            }
        });
        return;
    };
    let (arm, (mr, nr)) = register_tile(width);
    // Row tiles of even height: 16 rows are two 8-row zmm tiles.
    let tall = rows.div_ceil(rows.div_ceil(mr));
    let out = RowBase::Strided(out.0, n);
    hand_out(n.div_ceil(nr), pooled, unit, |_, p| {
        let j0 = p * nr;
        for r in (0..rows).step_by(tall) {
            let tile = Tile {
                a: a[r * m..].as_ptr(),
                m,
                panel: b[j0..].as_ptr(),
                stride: n,
                ahead: AHEAD_ROWS * n,
                bias: NO_BIAS.as_ptr(),
                out: out.tile(r..(r + tall).min(rows), j0),
                cols: nr.min(n - j0),
                skip: false,
            };
            // SAFETY: `register_tile` feature-checked the arm; `a` holds
            // `tall.min(rows - r)` rows of `m` from row `r`, `b` `m` rows of
            // `n >= j0 + cols`, and the tile writes columns `j0..j0 + cols`
            // of those rows of `out`: panel `p`'s, which no other thread runs.
            unsafe { arm(tall.min(rows - r), tile) };
        }
    });
}

/// The operands of one block of a one-row product: `out[c] = acc` for the
/// first `cols` columns, `acc` the chain of `a[k] * b[k][c]` over `k0..k1`
/// from `+0.0` or, past `k0 == 0`, from what `out` holds: the chain after
/// `0..k0`. A block function's caller vouches that `a` is valid for `k1`
/// floats, `b` for `k1` rows of `cols` floats `n` apart and `out` for `cols`
/// floats no other thread writes, `cols` filling the block's `vectors`
/// accumulators with `1..=` one vector's lanes in the last.
#[derive(Clone, Copy)]
struct RowBlock {
    a: *const f32,
    b: *const f32,
    n: usize,
    k0: usize,
    k1: usize,
    out: *mut f32,
    cols: usize,
}

type RowFn = unsafe fn(vectors: usize, block: RowBlock);

/// Columns `cols` of a one-row [`gemm_f32`], in blocks of at most `vectors`
/// accumulators streaming whole-row segments of `b`: over the whole depth if
/// one block holds them, else each block in turn over [`ROW_K_BLOCK`] rows,
/// the accumulators round-tripping through `out` in between.
fn one_row(
    (block, (lanes, vectors)): (RowFn, (usize, usize)),
    (a, b): (&[f32], &[f32]),
    out: &Lanes<f32>,
    n: usize,
    cols: Range<usize>,
) {
    // Blocks of even width, in whole vectors.
    let held = cols.len().div_ceil(lanes);
    let wide = held.div_ceil(held.div_ceil(vectors)) * lanes;
    let m = a.len();
    let k_block = if cols.len() <= wide { m } else { ROW_K_BLOCK };
    for k0 in (0..m).step_by(k_block) {
        for j0 in cols.clone().step_by(wide) {
            let width = wide.min(cols.end - j0);
            let t = RowBlock {
                a: a.as_ptr(),
                b: b[j0..].as_ptr(),
                n,
                k0,
                k1: (k0 + k_block).min(m),
                // SAFETY: column `j0 < n` of the one-row `out`.
                out: unsafe { out.at(j0) },
                cols: width,
            };
            // SAFETY: the arm runs on this host (`forward`); `a` holds `m`
            // floats, `b` `m` rows of `n >= j0 + width`, and columns `j0..j0
            // + width` of `out`, this part's alone, fill `..=vectors` vectors.
            unsafe { block(width.div_ceil(lanes), t) };
        }
    }
}

/// Columns `cols` of the scalar [`gemm_f32`]: zeroed, then the walk over
/// `k_block`-deep blocks of `k`.
fn walk(
    a: &[f32],
    b: &[f32],
    out: &Lanes<f32>,
    (rows, m, n): (usize, usize, usize),
    cols: Range<usize>,
    k_block: usize,
) {
    // SAFETY: columns `cols` (inside `0..n`) of row `r < rows`: lanes of
    // this part, which no other thread touches; no two live slices overlap.
    let row = |r: usize| unsafe {
        std::slice::from_raw_parts_mut(out.at(r * n + cols.start), cols.len())
    };
    for r in 0..rows {
        row(r).fill(0.0);
    }
    let b_row = |k: usize| &b[k * n + cols.start..k * n + cols.end];
    for k0 in (0..m).step_by(k_block) {
        let ks = k0..(k0 + k_block).min(m);
        let mut r = 0;
        while r + 4 <= rows {
            let a_rows = [0, 1, 2, 3].map(|i| &a[(r + i) * m..(r + i + 1) * m]);
            scalar_block::<4, 8>(a_rows, b_row, [0, 1, 2, 3].map(|i| row(r + i)), ks.clone());
            r += 4;
        }
        for r in r..rows {
            scalar_block::<1, 4>([&a[r * m..(r + 1) * m]], b_row, [row(r)], ks.clone());
        }
    }
}

/// The scalar walk over `ks` for `R` rows: `o[r] += a[r][k] * b_row(k)` for
/// each `k`, ascending, skipping exact-zero `a` terms. Where `T` consecutive
/// terms of every row are non-zero, each accumulator takes all `T` between
/// one load and one store — the same rounded adds in the same order.
fn scalar_block<'b, const R: usize, const T: usize>(
    a: [&[f32]; R],
    b_row: impl Fn(usize) -> &'b [f32],
    o: [&mut [f32]; R],
    ks: Range<usize>,
) {
    // Every row exactly `w` long, so the column loop needs no bounds check.
    let w = o[0].len();
    let mut o = o.map(|o| &mut o[..w]);
    let mut k = ks.start;
    while k + T <= ks.end {
        let av: [[f32; T]; R] = a.map(|a| std::array::from_fn(|j| a[k + j]));
        if av.iter().flatten().all(|&v| v != 0.0) {
            let bs: [&[f32]; T] = std::array::from_fn(|j| &b_row(k + j)[..w]);
            for i in 0..w {
                let bv: [f32; T] = std::array::from_fn(|j| bs[j][i]);
                for (o, av) in o.iter_mut().zip(&av) {
                    let mut t = o[i];
                    for (&a, &b) in av.iter().zip(&bv) {
                        t += a * b;
                    }
                    o[i] = t;
                }
            }
        } else {
            for (o, av) in o.iter_mut().zip(&av) {
                for (j, &a) in av.iter().enumerate() {
                    axpy_skip(a, b_row(k + j), o);
                }
            }
        }
        k += T;
    }
    for k in k..ks.end {
        for (o, a) in o.iter_mut().zip(&a) {
            axpy_skip(a[k], b_row(k), o);
        }
    }
}

/// `o += a * b`, nothing for an exact-zero `a`.
fn axpy_skip(a: f32, b: &[f32], o: &mut [f32]) {
    if a != 0.0 {
        for (o, &b) in o.iter_mut().zip(b) {
            *o += a * b;
        }
    }
}

/// The buffers of `gemm_at_b_f32`'s vector arm: the transposed input and
/// the packed gradient, both `depth`-sized — no buffer of the layer's size.
/// Kept by the caller so that a warm training step requests no memory.
#[derive(Debug, Default)]
pub struct GradScratch {
    transposed: Vec<f32>,
    panels: Panels<f32, 16>,
}

/// Floats in the block a weight-gradient part stores its gradient in before
/// its epilogue consumes it: one register tile (`MR x NR` is at most
/// 12 x 32), or a run of one row under the scalar arm.
const BLOCK: usize = 12 * 32;

/// The gradient of one register tile (or one run of a row), on the stack of
/// the thread that computes it and consumes it.
#[repr(C, align(64))]
struct Block([f32; BLOCK]);

/// The weight gradient `out = aᵀ * g`: `a` is `depth x m` (a layer's input
/// batch), `g` is `depth x n` (the gradient at its output) and `out` is
/// `m x n`, all row-major. `out` is **overwritten**, each element once.
///
/// Per element one chain over ascending `k < depth` from `+0.0` that skips
/// the terms whose `a` is an exact zero — the historical per-`(r, k)` axpy's
/// element, fused under `avx2_fma`, rounded twice under `scalar`. The vector
/// arm packs `g` into panels, transposes a row tile of `aᵀ` at a time into
/// `scratch` and runs the register tile over them; a tile that holds a zero
/// `a` masks those terms' FMAs off. This is [`gemm_at_b_update_f32`] with a
/// copy in place of its rule.
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
#[cfg(any(test, feature = "reference"))]
pub fn gemm_at_b_f32(
    kernel: Kernel,
    a: &[f32],
    g: &[f32],
    out: &mut [f32],
    (m, n): (usize, usize),
    scratch: &mut GradScratch,
) {
    let tile = (kernel.runs() >= Backend::Avx2).then(PackedWidth::detect);
    let (copy, targets) = ((kernel.runs(), None), ([&mut [][..], &mut []], out));
    weight_gradient(tile, (a, g), (m, n), copy, targets, scratch, PAR_MIN_MACS);
}

/// One optimizer step of a dense layer's weights with no gradient buffer:
/// `param` (`m x n`) moves by `rule` of the weight gradient `aᵀ * g`
/// (`gemm_at_b_f32`'s operands, parts and element chain), `moments` by
/// the rule's own. Each register tile of that product stores its gradient
/// into a block on its thread's stack, and the rule's sweep consumes the
/// block at once, with the tile's rows of the moments and of `param`. The
/// sweep is [`update_f32`]'s, so parameters and moments are bit-identical
/// to `gemm_at_b_f32` followed by [`update_f32`], at every pool width.
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions, or a moment
/// the rule keeps ([`Rule::moments`]) with the parameters' length.
pub fn gemm_at_b_update_f32(
    kernel: Kernel,
    (a, g): (&[f32], &[f32]),
    (m, n): (usize, usize),
    rule: &Rule,
    moments: [&mut [f32]; 2],
    param: &mut [f32],
    scratch: &mut GradScratch,
) {
    let tile = (kernel.runs() >= Backend::Avx2).then(PackedWidth::detect);
    let (step, targets) = ((kernel.runs(), Some(rule)), (moments, param));
    weight_gradient(tile, (a, g), (m, n), step, targets, scratch, PAR_MIN_MACS);
}

/// The weight-gradient product with `rule`'s sweep run at `level` on each
/// block of it (`None`: `gemm_at_b_f32`'s copy). Its register tile
/// (`None`: the scalar arm) and its hand-out threshold are parameters, so
/// that the parity tests run both widths on one host and both sides of the
/// threshold.
fn weight_gradient(
    tile: Option<PackedWidth>,
    (a, g): (&[f32], &[f32]),
    (m, n): (usize, usize),
    (level, rule): (Backend, Option<&Rule>),
    (moments, param): ([&mut [f32]; 2], &mut [f32]),
    scratch: &mut GradScratch,
    par_min_macs: usize,
) {
    assert_eq!(a.len() % m.max(1), 0, "gemm_at_b_f32 lhs length mismatch");
    let depth = a.len().checked_div(m).unwrap_or(0);
    assert_eq!(g.len(), depth * n, "gemm_at_b_f32 gradient length mismatch");
    assert_eq!(param.len(), m * n, "gemm_at_b_f32 out length mismatch");
    let targets = Targets::new(rule, moments, param);
    let pooled = depth * m * n >= par_min_macs;
    let Some((arm, (mr, nr))) = tile.map(register_tile) else {
        hand_out(m.div_ceil(AT_B_ROWS), pooled, unit, |_, p| {
            let mut block = Block([0.0; BLOCK]);
            for r in p * AT_B_ROWS..(p * AT_B_ROWS + AT_B_ROWS).min(m) {
                for j0 in (0..n).step_by(BLOCK) {
                    let o = &mut block.0[..BLOCK.min(n - j0)];
                    o.fill(0.0);
                    for (k, g_row) in g.chunks_exact(n).enumerate() {
                        let av = a[k * m + r];
                        if av == 0.0 {
                            continue;
                        }
                        for (o, &gv) in o.iter_mut().zip(&g_row[j0..]) {
                            *o += av * gv;
                        }
                    }
                    // SAFETY: the block holds the run's gradient; the run is
                    // columns `j0..j0 + o.len()` of row `r < m` of the
                    // targets, and the part's rows are its alone.
                    let runs = unsafe { targets.runs(o.as_ptr(), 0, r * n + j0, 0, (1, o.len())) };
                    // SAFETY: as above.
                    unsafe { sweep(level, rule, runs) };
                }
            }
        });
        return;
    };
    assert!(mr * nr <= BLOCK, "a register tile fits its block");
    let panel_len = depth * nr;
    scratch.panels.pack(g, (depth, n), nr);
    // Every element is written by the part that transposes its row before
    // that part reads it.
    scratch.transposed.resize(m * depth, 0.0);
    let transposed = Lanes(scratch.transposed.as_mut_ptr());
    let panels = &scratch.panels[..];
    hand_out(m.div_ceil(mr), pooled, unit, |_, t| {
        let (r0, rows) = (t * mr, mr.min(m - t * mr));
        // SAFETY: rows `r0..r0 + rows` of the `m x depth` transpose, this
        // part's alone.
        let at = unsafe { std::slice::from_raw_parts_mut(transposed.at(r0 * depth), rows * depth) };
        for (i, row) in at.chunks_exact_mut(depth.max(1)).enumerate() {
            for (v, a_row) in row.iter_mut().zip(a.chunks_exact(m)) {
                *v = a_row[r0 + i];
            }
        }
        let skip = at.contains(&0.0);
        let mut block = Block([0.0; BLOCK]);
        for (p, panel) in panels.chunks_exact(panel_len.max(1)).enumerate() {
            let (j0, cols) = (p * nr, nr.min(n - p * nr));
            let tile = Tile {
                a: at.as_ptr(),
                m: depth,
                panel: panel.as_ptr(),
                stride: nr,
                ahead: panel_len,
                bias: NO_BIAS.as_ptr(),
                out: RowBase::Strided(block.0.as_mut_ptr(), nr).tile(0..rows, 0),
                cols,
                skip,
            };
            // SAFETY: `register_tile` feature-checked the arm; `at` holds
            // `rows <= MR` rows of `depth`, `panel` `depth` rows of `NR`, and
            // the tile writes `cols <= NR` columns of `rows` rows `NR` apart:
            // inside the block (asserted above).
            unsafe { arm(rows, tile) };
            // SAFETY: the block holds the `rows x cols` gradient the tile
            // just stored, `nr` apart; the runs are columns `j0..j0 + cols`
            // of rows `r0..r0 + rows` of the targets, this part's alone.
            let runs = unsafe { targets.runs(block.0.as_ptr(), nr, r0 * n + j0, n, (rows, cols)) };
            // SAFETY: as above.
            unsafe { sweep(level, rule, runs) };
        }
    });
}

/// The input gradient `out = a * bᵀ`: `a` is `rows x k` (the gradient at a
/// layer's output), `b` is `cols x k` (its weights) and `out` is
/// `rows x cols`, all row-major. `out` is **overwritten**; each element is
/// one [`sdot`] of a row of `a` with a row of `b` — its association under
/// each backend is the dot product's own.
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm_a_bt_f32(kernel: Kernel, a: &[f32], b: &[f32], out: &mut [f32], k: usize) {
    input_gradient(kernel, a, b, out, k, PAR_MIN_MACS);
}

/// [`gemm_a_bt_f32`] with its hand-out threshold as a parameter.
fn input_gradient(
    kernel: Kernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    par_min_macs: usize,
) {
    assert_eq!(a.len() % k.max(1), 0, "gemm_a_bt_f32 lhs length mismatch");
    assert_eq!(b.len() % k.max(1), 0, "gemm_a_bt_f32 rhs length mismatch");
    let rows = a.len().checked_div(k).unwrap_or(0);
    let cols = b.len().checked_div(k).unwrap_or(0);
    assert_eq!(out.len(), rows * cols, "gemm_a_bt_f32 out length mismatch");
    let out = Lanes(out.as_mut_ptr());
    let pooled = rows * cols * k >= par_min_macs;
    hand_out(cols.div_ceil(BT_COLS), pooled, unit, |_, p| {
        for j in p * BT_COLS..(p * BT_COLS + BT_COLS).min(cols) {
            let b_row = &b[j * k..(j + 1) * k];
            for (r, a_row) in a.chunks_exact(k).enumerate() {
                // SAFETY: element `(r, j)` of the `rows x cols` matrix `out`;
                // column `j` is this part's alone.
                unsafe { *out.at(r * cols + j) = sdot(kernel, a_row, b_row) };
            }
        }
    });
}

/// An optimizer's element update: the rule one training step moves every
/// parameter by. It is matched in one place, the sweep that runs once per
/// register tile of [`gemm_at_b_update_f32`] and once per [`update_f32`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Plain SGD: `p -= g * lr`.
    Sgd {
        /// The step's learning rate.
        lr: f32,
    },
    /// SGD with momentum: `v = v * momentum + g`, `p -= v * lr`.
    Momentum {
        /// The velocity's decay.
        momentum: f32,
        /// The step's learning rate.
        lr: f32,
    },
    /// Adam at one step's bias corrections.
    Adam(Adam),
}

impl Rule {
    /// How many moments the rule keeps a parameter, each slice the
    /// parameters' length: none for SGD, the velocity for momentum, the
    /// first and second moments for Adam. An update reads the first this
    /// many of its `moments` and ignores the rest.
    pub fn moments(&self) -> usize {
        match self {
            Rule::Sgd { .. } => 0,
            Rule::Momentum { .. } => 1,
            Rule::Adam(_) => 2,
        }
    }
}

/// The constants of one Adam step (Kingma & Ba): moments decay by `beta1`
/// and `beta2`, are divided by their bias corrections `1 - beta^t`, and the
/// parameter moves by `lr` times the corrected ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adam {
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Added to the root of the second moment.
    pub eps: f32,
    /// `1 - beta1^t` at step `t`.
    pub bias_correction1: f32,
    /// `1 - beta2^t` at step `t`.
    pub bias_correction2: f32,
    /// The step's learning rate.
    pub lr: f32,
}

/// One `rule` update from a gradient in memory, in place: `param` and the
/// rule's `moments` move by `grad`, in one sweep on the caller.
///
/// # Panics
/// Panics unless `grad`, `param` and each moment the rule keeps
/// ([`Rule::moments`]) have one length.
pub fn update_f32(
    kernel: Kernel,
    rule: &Rule,
    grad: &[f32],
    moments: [&mut [f32]; 2],
    param: &mut [f32],
) {
    assert_eq!(grad.len(), param.len(), "optimizer length mismatch");
    let targets = Targets::new(Some(rule), moments, param);
    // SAFETY: one run of the whole gradient and the whole targets, which
    // the caller lent us alone.
    let runs = unsafe { targets.runs(grad.as_ptr(), 0, 0, 0, (1, grad.len())) };
    // SAFETY: as above.
    unsafe { sweep(kernel.runs(), Some(rule), runs) };
}

#[inline(always)]
fn adam_chunk(h: &Adam, g: &[f32], m: &mut [f32], v: &mut [f32], p: &mut [f32]) {
    let zipped = m.iter_mut().zip(v.iter_mut()).zip(g.iter().zip(p));
    for ((m, v), (&g, p)) in zipped {
        *m = *m * h.beta1 + g * (1.0 - h.beta1);
        *v = *v * h.beta2 + (g * g) * (1.0 - h.beta2);
        let m_hat = *m / h.bias_correction1;
        let v_hat = *v / h.bias_correction2;
        *p -= m_hat / (v_hat.sqrt() + h.eps) * h.lr;
    }
}

#[inline(always)]
fn momentum_chunk((momentum, lr): (f32, f32), g: &[f32], v: &mut [f32], p: &mut [f32]) {
    for ((v, &g), p) in v.iter_mut().zip(g).zip(p) {
        *v = *v * momentum + g;
        *p -= *v * lr;
    }
}

#[inline(always)]
fn sgd_chunk(lr: f32, g: &[f32], p: &mut [f32]) {
    for (&g, p) in g.iter().zip(p) {
        *p -= g * lr;
    }
}

/// What an update writes — its parameters and the moments its rule keeps —
/// as lanes its parts write through, each part to elements of its own.
struct Targets {
    moments: [Option<Lanes<f32>>; 2],
    param: Lanes<f32>,
}

impl Targets {
    /// The lanes of `param` and of the moments `rule` keeps (none for
    /// `None`, `gemm_at_b_f32`'s copy).
    ///
    /// # Panics
    /// Panics unless each moment kept has the parameters' length.
    fn new(rule: Option<&Rule>, moments: [&mut [f32]; 2], param: &mut [f32]) -> Self {
        let (kept, len) = (rule.map_or(0, Rule::moments), param.len());
        let lanes = |s: &mut [f32]| {
            assert_eq!(s.len(), len, "optimizer state length mismatch");
            Lanes(s.as_mut_ptr())
        };
        let [first, second] = moments;
        Self {
            moments: [
                (kept > 0).then(|| lanes(first)),
                (kept > 1).then(|| lanes(second)),
            ],
            param: Lanes(param.as_mut_ptr()),
        }
    }

    /// `rows x cols` targets from element `at` on, rows `stride` apart, for
    /// the gradient at `g`, rows `g_stride` apart.
    ///
    /// # Safety
    /// Every run must lie inside the targets and `g`'s buffer.
    unsafe fn runs(
        &self,
        g: *const f32,
        g_stride: usize,
        at: usize,
        stride: usize,
        (rows, cols): (usize, usize),
    ) -> Runs {
        Runs {
            g,
            g_stride,
            // SAFETY: the caller's contract.
            moments: self
                .moments
                .each_ref()
                .map(|s| s.as_ref().map(|s| unsafe { s.at(at) })),
            // SAFETY: as above.
            param: unsafe { self.param.at(at) },
            stride,
            rows,
            cols,
        }
    }
}

/// `rows` runs of `cols` elements for an update: the gradient's `g_stride`
/// floats apart, the parameters' and each kept moment's (`None`: not kept)
/// `stride` apart.
#[derive(Clone, Copy)]
struct Runs {
    g: *const f32,
    g_stride: usize,
    moments: [Option<*mut f32>; 2],
    param: *mut f32,
    stride: usize,
    rows: usize,
    cols: usize,
}

impl Runs {
    /// `body` over each run in turn: the gradient, the moments (empty where
    /// not kept) and the parameters.
    ///
    /// # Safety
    /// Every run must lie inside its buffer, and the runs of the parameters
    /// and the moments must be the caller's alone.
    #[inline(always)]
    unsafe fn each(self, mut body: impl FnMut(&[f32], [&mut [f32]; 2], &mut [f32])) {
        for r in 0..self.rows {
            let at = r * self.stride;
            // SAFETY: the caller's contract.
            let run = |s: *mut f32| unsafe { std::slice::from_raw_parts_mut(s.add(at), self.cols) };
            let moments = self.moments.map(|s| s.map_or(&mut [][..], run));
            // SAFETY: the caller's contract.
            let g = unsafe { std::slice::from_raw_parts(self.g.add(r * self.g_stride), self.cols) };
            body(g, moments, run(self.param));
        }
    }

    /// `rule`'s element loop over each run (`None`: the gradient copied
    /// out): the one match of a [`Rule`].
    ///
    /// # Safety
    /// As [`Runs::each`].
    #[inline(always)]
    unsafe fn apply(self, rule: Option<&Rule>) {
        // SAFETY: the caller's contract.
        unsafe {
            match rule.copied() {
                None => self.each(|g, _, p| p.copy_from_slice(g)),
                Some(Rule::Sgd { lr }) => self.each(|g, _, p| sgd_chunk(lr, g, p)),
                Some(Rule::Momentum { momentum, lr }) => {
                    self.each(|g, [v, _], p| momentum_chunk((momentum, lr), g, v, p))
                }
                Some(Rule::Adam(h)) => self.each(|g, [m, v], p| adam_chunk(&h, g, m, v, p)),
            }
        }
    }
}

/// `rule`'s update over `runs` on the widest vector unit `level` allows.
///
/// # Safety
/// As [`Runs::each`].
unsafe fn sweep(level: Backend, rule: Option<&Rule>, runs: Runs) {
    match level {
        // SAFETY: the host runs `avx512f` from this level up; the rest is
        // the caller's contract.
        #[cfg(target_arch = "x86_64")]
        level if level >= Backend::Avx512 => unsafe { sweep_zmm(rule, runs) },
        // SAFETY: the host runs `avx2` at this level.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { sweep_ymm(rule, runs) },
        // SAFETY: the caller's contract.
        _ => unsafe { runs.apply(rule) },
    }
}

/// An update compiled for `avx512f`: the rule's `#[inline(always)]` loop,
/// inlined here and vectorised 16 lanes wide.
///
/// # Safety
/// Requires `avx512f`; as [`Runs::each`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sweep_zmm(rule: Option<&Rule>, runs: Runs) {
    // SAFETY: the caller's contract.
    unsafe { runs.apply(rule) }
}

/// [`sweep_zmm`] for `avx2`, 8 lanes wide.
///
/// # Safety
/// Requires `avx2`; as [`Runs::each`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_ymm(rule: Option<&Rule>, runs: Runs) {
    // SAFETY: the caller's contract.
    unsafe { runs.apply(rule) }
}

/// The one-row register tile ([`RowBlock`]) on 512-bit and 256-bit vectors.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::RowBlock;
    use core::arch::x86_64::{
        _mm256_cmpgt_epi32, _mm256_fmadd_ps, _mm256_maskload_ps, _mm256_maskstore_ps,
        _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps, _mm512_fmadd_ps,
        _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };

    /// A block of `vectors <= 24` zmm accumulators.
    ///
    /// # Safety
    /// Requires `avx512f` and [`RowBlock`]'s contract at 16 lanes.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn row_zmm(vectors: usize, t: RowBlock) {
        // SAFETY: the caller's contract is `row_block_zmm::<vectors>`'s.
        unsafe {
            tile_by_rows!(row_block_zmm(t), vectors,
                [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24])
        }
    }

    /// `V` accumulators over `k0..k1`: each `k` broadcasts `a[k]` once and
    /// feeds `V` FMA chains from one contiguous segment of `b`'s row `k`.
    /// Every vector is whole but the last, masked to the block's `cols`.
    ///
    /// # Safety
    /// As [`row_zmm`], with `vectors == V`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn row_block_zmm<const V: usize>(t: RowBlock) {
        let last = (u32::MAX >> (32 - (t.cols - (V - 1) * 16))) as u16;
        let mask = |i: usize| if i + 1 < V { u16::MAX } else { last };
        let mut acc = [_mm512_setzero_ps(); V];
        // SAFETY: `a` is read at `k < k1`, `b` and `out` masked to the
        // block's `cols` lanes: inside the ranges the caller vouches for.
        unsafe {
            if t.k0 > 0 {
                for (i, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm512_maskz_loadu_ps(mask(i), t.out.add(16 * i));
                }
            }
            for k in t.k0..t.k1 {
                let (av, row) = (_mm512_set1_ps(*t.a.add(k)), t.b.add(k * t.n));
                for (i, acc) in acc.iter_mut().enumerate() {
                    let bv = _mm512_maskz_loadu_ps(mask(i), row.add(16 * i));
                    *acc = _mm512_fmadd_ps(av, bv, *acc);
                }
            }
            for (i, acc) in acc.iter().enumerate() {
                _mm512_mask_storeu_ps(t.out.add(16 * i), mask(i), *acc);
            }
        }
    }

    /// A block of `vectors <= 12` ymm accumulators.
    ///
    /// # Safety
    /// Requires `avx2`, `fma` and [`RowBlock`]'s contract at 8 lanes.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn row_ymm(vectors: usize, t: RowBlock) {
        // SAFETY: the caller's contract is `row_block_ymm::<vectors>`'s.
        unsafe { tile_by_rows!(row_block_ymm(t), vectors, [1 2 3 4 5 6 7 8 9 10 11 12]) }
    }

    /// [`row_block_zmm`] on `V` ymm accumulators (`maskload` and `maskstore`
    /// do not touch masked-off memory).
    ///
    /// # Safety
    /// As [`row_ymm`], with `vectors == V`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn row_block_ymm<const V: usize>(t: RowBlock) {
        let limit = _mm256_set1_epi32((t.cols - (V - 1) * 8) as i32);
        let last = _mm256_cmpgt_epi32(limit, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        let whole = _mm256_set1_epi32(-1);
        let mask = |i: usize| if i + 1 < V { whole } else { last };
        let mut acc = [_mm256_setzero_ps(); V];
        // SAFETY: as `row_block_zmm`, 8 lanes a vector.
        unsafe {
            if t.k0 > 0 {
                for (i, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm256_maskload_ps(t.out.add(8 * i), mask(i));
                }
            }
            for k in t.k0..t.k1 {
                let (av, row) = (_mm256_set1_ps(*t.a.add(k)), t.b.add(k * t.n));
                for (i, acc) in acc.iter_mut().enumerate() {
                    let bv = _mm256_maskload_ps(row.add(8 * i), mask(i));
                    *acc = _mm256_fmadd_ps(av, bv, *acc);
                }
            }
            for (i, acc) in acc.iter().enumerate() {
                _mm256_maskstore_ps(t.out.add(8 * i), mask(i), *acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::packed::tests::{pools, values, vector_widths};
    use super::*;

    /// The bits of `values`, every NaN as one: which NaN an operation
    /// returns when more than one operand is NaN is unspecified (RFC 3514),
    /// and LLVM commutes the scalar arm's adds one way in a debug build and
    /// the other in a release build, so one oracle chain read +NaN where the
    /// chain under test read −NaN. Every other bit is compared exactly.
    fn bits(values: &[f32]) -> Vec<u32> {
        let class = |v: &f32| if v.is_nan() { f32::NAN } else { *v };
        values.iter().map(|v| class(v).to_bits()).collect()
    }

    /// Both kernels, but AVX2 only on hosts that have it.
    fn kernels() -> Vec<Kernel> {
        Backend::arms(Backend::kernel)
    }

    /// The forward arms this host runs: the scalar walk (`None`) and each
    /// vector width's tiles.
    fn forward_arms() -> Vec<Option<PackedWidth>> {
        let mut arms = vec![None];
        arms.extend(vector_widths().into_iter().map(Some));
        arms
    }

    fn run_forward(
        tile: Option<PackedWidth>,
        a: &[f32],
        b: &[f32],
        (m, n): (usize, usize),
        par_min_macs: usize,
    ) -> Vec<u32> {
        // A dirty `out` proves every element is overwritten.
        let mut out = vec![f32::NAN; a.len() / m * n];
        forward(tile, a, b, &mut out, (m, n), par_min_macs);
        bits(&out)
    }

    /// The forward product's elements written out, one chain each from
    /// `+0.0` over ascending `k`: `f32::mul_add` for the vector arms, and
    /// for the scalar one a rounded multiply and add that skips exact-zero
    /// `a` terms.
    fn chain(fused: bool, a: &[f32], b: &[f32], (m, n): (usize, usize)) -> Vec<u32> {
        let mut out = Vec::with_capacity(a.len() / m * n);
        for a_row in a.chunks_exact(m) {
            for j in 0..n {
                let mut acc = 0.0f32;
                for (k, &av) in a_row.iter().enumerate() {
                    let bv = b[k * n + j];
                    if fused {
                        acc = av.mul_add(bv, acc);
                    } else if av != 0.0 {
                        acc += av * bv;
                    }
                }
                out.push(acc);
            }
        }
        bits(&out)
    }

    /// [`weight_gradient`] with `gemm_at_b_f32`'s copy, into a dirty `out`.
    fn run_at_b(
        tile: Option<PackedWidth>,
        (a, g): (&[f32], &[f32]),
        (m, n): (usize, usize),
        scratch: &mut GradScratch,
        par_min_macs: usize,
    ) -> Vec<u32> {
        let mut out = vec![f32::NAN; m * n];
        let (copy, targets) = (
            (Backend::Scalar, None),
            ([&mut [][..], &mut []], &mut out[..]),
        );
        weight_gradient(tile, (a, g), (m, n), copy, targets, scratch, par_min_macs);
        bits(&out)
    }

    /// Why the scalar walk's k-block is free to choose: it gives
    /// bit-identical results at any k-block and over any column range (one
    /// rounded chain per element, lossless accumulator round-trips between
    /// blocks), exact zeros and NaN / ±Inf data included.
    #[test]
    fn the_walk_is_independent_of_the_k_block_and_the_column_range() {
        let (rows, m, n) = (6usize, 50usize, 33usize);
        let a = values(rows * m, 1, true);
        let b = values(m * n, 2, true);
        let walked = |k_block: usize, ranges: &[(usize, usize)]| {
            let mut out = vec![f32::NAN; rows * n];
            let lanes = Lanes(out.as_mut_ptr());
            for &(j0, j1) in ranges {
                walk(&a, &b, &lanes, (rows, m, n), j0..j1, k_block);
            }
            bits(&out)
        };
        let want = walked(16, &[(0, n)]);
        assert_eq!(want, chain(false, &a, &b, (m, n)));
        for k_block in [1usize, 8, 17, 32, 64, 1000] {
            assert_eq!(walked(k_block, &[(0, n)]), want, "k_block={k_block}");
            let ranges = [(0, 9), (9, 24), (24, n)];
            assert_eq!(walked(k_block, &ranges), want, "k_block={k_block}");
        }
    }

    #[test]
    fn forward_backends_agree_within_fma_rounding() {
        for (m, n) in [(1, 1), (3, 7), (8, 8), (5, 33), (16, 40), (7, 70)] {
            let a = values(2 * m, 3, false);
            let b = values(m * n, 4, false);
            let mut want = vec![f32::NAN; 2 * n];
            gemm_f32(Kernel::Scalar, &a, &b, &mut want, m, n);
            for k in kernels() {
                let mut out = vec![f32::NAN; 2 * n];
                gemm_f32(k, &a, &b, &mut out, m, n);
                for (got, w) in out.iter().zip(want.iter()) {
                    assert!((got - w).abs() < 1e-4, "gemm {k:?} {m}x{n}: {got} vs {w}");
                }
            }
        }
    }

    /// The forward product is its element [`chain`] whatever runs it, with
    /// NaN / ±Inf / −0.0 data:
    /// - the panel tiles (`rows_zmm`, `rows_ymm` over panels of a row-major
    ///   `b`, the last one masked) at every row count from two on;
    /// - the one-row tiles (`row_zmm` → `row_block_zmm::<1..=24>`, `row_ymm`
    ///   → `row_block_ymm::<1..=12>`) at every block width from one lane to
    ///   past one zmm block, and at the widths around the vector, block and
    ///   head boundaries with the depth below and above one [`ROW_K_BLOCK`],
    ///   on pools 1 and 2 wide;
    /// - the scalar walk, batched and one row at a time.
    #[test]
    fn every_row_count_and_path_computes_one_chain_an_element() {
        let check = |a: &[f32], b: &[f32], (m, n): (usize, usize)| {
            for tile in forward_arms() {
                let got = run_forward(tile, a, b, (m, n), usize::MAX);
                let want = chain(tile.is_some(), a, b, (m, n));
                assert_eq!(got, want, "{tile:?} rows={} {m}x{n}", a.len() / m);
            }
        };
        for (m, n) in [(1usize, 1usize), (7, 33), (37, 65), (56, 224)] {
            let b = values(m * n, 5, true);
            for rows in 0..=27usize {
                check(&values(rows * m, 6 + rows as u64, true), &b, (m, n));
            }
        }
        for n in 1..=400usize {
            check(&values(3, n as u64, true), &values(3 * n, 7, true), (3, n));
        }
        // One row handed out on pools 1 and 2 wide: one share (in `k`-blocks
        // where it is wider than one block), or two.
        let pools = pools();
        for n in [1usize, 15, 16, 17, 383, 384, 385, 545, 1452] {
            for m in [37, ROW_K_BLOCK + 86] {
                let (a, b) = (values(m, n as u64, true), values(m * n, 8, true));
                for tile in forward_arms() {
                    let want = chain(tile.is_some(), &a, &b, (m, n));
                    for (threads, pool) in &pools[..2] {
                        let got = pool.install(|| run_forward(tile, &a, &b, (m, n), 0));
                        assert_eq!(got, want, "{tile:?} 1x{m}x{n} on {threads} threads");
                    }
                }
            }
        }
    }

    #[test]
    fn the_scalar_forward_skips_exact_zero_terms() {
        // A zero `a` term meets an infinite `b` without making a NaN, as the
        // historical `axpy1_skip` did.
        let a = [0.0f32, 1.0];
        let b = [f32::INFINITY, f32::NEG_INFINITY, 2.0, -0.0];
        let mut out = [f32::NAN; 2];
        gemm_f32(Kernel::Scalar, &a, &b, &mut out, 2, 2);
        assert_eq!(bits(&out), bits(&[2.0, 0.0]));
    }

    /// Claimed parts == one-thread parts, bit for bit, for every product of
    /// this module: each shape with its parts handed out (threshold 0) on
    /// pools 1, 2 and 3 wide, against the plain loop (threshold
    /// `usize::MAX`), on the scalar arm and every register tile. The
    /// 1 x 150 x 545 forward is 35 zmm wide and deeper than one
    /// [`ROW_K_BLOCK`]: one share in `k`-blocks on one thread, a share that
    /// fits one block over the whole depth on two and three.
    #[test]
    fn claimed_product_parts_equal_one_thread_parts_bitwise() {
        let pools = pools();
        let mut scratch = GradScratch::default();
        for (rows, m, n) in [
            (1usize, 37usize, 300usize),
            (1, 150, 545),
            (16, 70, 65),
            (9, 128, 33),
        ] {
            let a = values(rows * m, 7, true);
            let b = values(m * n, 8, true);
            let g = values(rows * n, 9, true);
            for tile in forward_arms() {
                let kernel = [Kernel::Scalar, Kernel::Avx2Fma][usize::from(tile.is_some())];
                let products = |par_min_macs: usize, scratch: &mut GradScratch| {
                    let forward = run_forward(tile, &a, &b, (m, n), par_min_macs);
                    let at_b = run_at_b(tile, (&a, &g), (m, n), scratch, par_min_macs);
                    let mut a_bt = vec![f32::NAN; rows * m];
                    input_gradient(kernel, &g, &b, &mut a_bt, n, par_min_macs);
                    [forward, at_b, bits(&a_bt)]
                };
                let one_thread = products(usize::MAX, &mut scratch);
                for (threads, pool) in &pools {
                    let claimed = pool.install(|| products(0, &mut scratch));
                    let case = format!("{tile:?} {rows}x{m}x{n} on {threads} threads");
                    assert_eq!(claimed, one_thread, "{case}");
                }
            }
        }
    }

    /// The historical weight gradient of one element: a chain over the
    /// batch that skips zero `a` terms — `mul_add` for the FMA backend (what
    /// the per-`(r, k)` AVX2 axpy computed), a rounded multiply and add for
    /// the scalar one.
    fn per_term_chain(fused: bool, a: &[f32], g: &[f32], (m, n): (usize, usize)) -> Vec<u32> {
        let depth = a.len() / m;
        let mut out = vec![0.0f32; m * n];
        for (r, o_row) in out.chunks_exact_mut(n).enumerate() {
            for k in 0..depth {
                let av = a[k * m + r];
                if av == 0.0 {
                    continue;
                }
                for (o, &gv) in o_row.iter_mut().zip(&g[k * n..(k + 1) * n]) {
                    *o = if fused {
                        av.mul_add(gv, *o)
                    } else {
                        *o + av * gv
                    };
                }
            }
        }
        bits(&out)
    }

    /// The weight gradient on every tile (`rows_zmm` / `rows_ymm` with
    /// `skip` set where a row tile holds a zero) and the scalar arm equals
    /// the per-term chain, NaN / ±Inf / ±0.0 included — and a zero term
    /// neither turns an infinite gradient into NaN nor a −0.0 sum into +0.0.
    #[test]
    fn the_weight_gradient_is_the_historical_per_term_chain() {
        let mut scratch = GradScratch::default();
        let mut arms: Vec<_> = vector_widths().into_iter().map(Some).collect();
        arms.push(None);
        // Column 0: 1e-30 * -1e-30 underflows to -0.0 in a fused chain, and
        // the skipped zero below it must leave the sign. Column 1: 0 * inf.
        let edge_a = [1e-30f32, 1.0, 0.0, 0.0];
        let edge_g = [-1e-30f32, 1.0, f32::INFINITY, f32::INFINITY];
        for tile in arms {
            let fused = tile.is_some();
            let out = run_at_b(tile, (&edge_a, &edge_g), (2, 2), &mut scratch, 0);
            let want = per_term_chain(fused, &edge_a, &edge_g, (2, 2));
            assert_eq!(out, want, "{tile:?}");
            assert!(
                out.iter().all(|&v| !f32::from_bits(v).is_nan()),
                "{tile:?}: {out:?}"
            );
            for (depth, m, n) in [
                (1usize, 1usize, 1usize),
                (16, 37, 65),
                (8, 13, 33),
                (5, 24, 17),
            ] {
                for specials in [false, true] {
                    let a = values(depth * m, 11 + depth as u64, specials);
                    let g = values(depth * n, 12 + n as u64, specials);
                    let got = run_at_b(tile, (&a, &g), (m, n), &mut scratch, usize::MAX);
                    let want = per_term_chain(fused, &a, &g, (m, n));
                    assert_eq!(got, want, "{tile:?} {depth}x{m}x{n} specials={specials}");
                }
            }
        }
    }

    #[test]
    fn the_input_gradient_is_one_sdot_an_element() {
        let (rows, k, cols) = (5usize, 45usize, 37usize);
        let a = values(rows * k, 13, true);
        let b = values(cols * k, 14, true);
        for kernel in kernels() {
            let want: Vec<f32> = a
                .chunks_exact(k)
                .flat_map(|a_row| b.chunks_exact(k).map(|b_row| sdot(kernel, a_row, b_row)))
                .collect();
            let mut out = vec![f32::NAN; rows * cols];
            gemm_a_bt_f32(kernel, &a, &b, &mut out, k);
            assert_eq!(bits(&out), bits(&want), "{kernel:?}");
        }
    }

    /// The public entries one part either side of [`PAR_MIN_MACS`] (and the
    /// forward one row either side of [`TILE_MIN_ROWS`] at the 545 x 1452
    /// tail's shape, where one row is past the threshold) on pools of every
    /// width, against the one-thread loop.
    #[test]
    fn the_products_are_the_same_on_both_sides_of_the_threshold() {
        let pools = pools();
        let mut scratch = GradScratch::default();
        let (m, n) = (64usize, 1452usize);
        let below = (PAR_MIN_MACS - 1) / (m * n);
        assert!(below >= TILE_MIN_ROWS && (below + 1) * m * n >= PAR_MIN_MACS);
        let cases = [
            (below, m, n),
            (below + 1, m, n),
            (1, 545, 1452),
            (2, 545, 1452),
        ];
        for kernel in kernels() {
            for (rows, m, n) in cases {
                let a = values(rows * m, 15, false);
                let b = values(m * n, 16, false);
                let g = values(rows * n, 17, false);
                let one_thread = {
                    let tile = (kernel.runs() >= Backend::Avx2).then(PackedWidth::detect);
                    let forward = run_forward(tile, &a, &b, (m, n), usize::MAX);
                    let at_b = run_at_b(tile, (&a, &g), (m, n), &mut scratch, usize::MAX);
                    let mut a_bt = vec![f32::NAN; rows * m];
                    input_gradient(kernel, &g, &b, &mut a_bt, n, usize::MAX);
                    [forward, at_b, bits(&a_bt)]
                };
                for (threads, pool) in &pools {
                    let served = pool.install(|| {
                        let mut forward = vec![f32::NAN; rows * n];
                        gemm_f32(kernel, &a, &b, &mut forward, m, n);
                        let mut at_b = vec![f32::NAN; m * n];
                        gemm_at_b_f32(kernel, &a, &g, &mut at_b, (m, n), &mut scratch);
                        let mut a_bt = vec![f32::NAN; rows * m];
                        gemm_a_bt_f32(kernel, &g, &b, &mut a_bt, n);
                        [bits(&forward), bits(&at_b), bits(&a_bt)]
                    });
                    let case = format!("{kernel:?} {rows}x{m}x{n} on {threads} threads");
                    assert_eq!(served, one_thread, "{case}");
                }
            }
        }
    }

    /// The Adam constants at step `t` (`t == 1`: the first step, whose
    /// moments start from zero).
    fn adam_at(t: i32) -> Adam {
        Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bias_correction1: 1.0 - 0.9f32.powi(t),
            bias_correction2: 1.0 - 0.999f32.powi(t),
            lr: 1e-3,
        }
    }

    /// The rules the update tests run, by name: Adam's first step (from
    /// zero moments) and a later one, momentum, momentum 0 from a velocity
    /// of −0.0 — which leaves the velocity equal to the gradient
    /// (`-0.0 * 0.0 + g` is `g` for every `g`), so that case compares the
    /// gradient itself — and plain SGD.
    fn rules() -> [(&'static str, Rule); 5] {
        let momentum = |momentum| Rule::Momentum { momentum, lr: 0.01 };
        [
            ("adam, first step", Rule::Adam(adam_at(1))),
            ("adam", Rule::Adam(adam_at(3))),
            ("momentum", momentum(0.9)),
            ("gradient", momentum(0.0)),
            ("sgd", Rule::Sgd { lr: 0.01 }),
        ]
    }

    /// [first moment, second moment, parameters] before an update by the
    /// rule named `name` (see [`rules`]).
    fn start(name: &str, len: usize) -> [Vec<f32>; 3] {
        let second = values(len, 21, false).iter().map(|v| v.abs()).collect();
        match name {
            "adam, first step" => [vec![0.0; len], vec![0.0; len], values(len, 22, false)],
            "gradient" => [vec![-0.0; len], vec![], values(len, 22, false)],
            _ => [values(len, 20, false), second, values(len, 22, false)],
        }
    }

    /// `state`'s moments and parameters, as an update takes them.
    fn split(state: &mut [Vec<f32>; 3]) -> ([&mut [f32]; 2], &mut [f32]) {
        let [first, second, param] = state;
        ([first.as_mut_slice(), second.as_mut_slice()], param)
    }

    fn bits3(state: &[Vec<f32>; 3]) -> [Vec<u32>; 3] {
        state.each_ref().map(|v| bits(v))
    }

    /// `rule`'s element expression written out, one parameter at a time.
    fn element_loop(rule: &Rule, g: &[f32], [s0, s1]: [&mut [f32]; 2], p: &mut [f32]) {
        for (i, g) in g.iter().enumerate() {
            match *rule {
                Rule::Sgd { lr } => p[i] -= g * lr,
                Rule::Momentum { momentum, lr } => {
                    s0[i] = s0[i] * momentum + g;
                    p[i] -= s0[i] * lr;
                }
                Rule::Adam(h) => {
                    s0[i] = s0[i] * h.beta1 + g * (1.0 - h.beta1);
                    s1[i] = s1[i] * h.beta2 + (g * g) * (1.0 - h.beta2);
                    let (m_hat, v_hat) = (s0[i] / h.bias_correction1, s1[i] / h.bias_correction2);
                    p[i] -= m_hat / (v_hat.sqrt() + h.eps) * h.lr;
                }
            }
        }
    }

    /// Every rule's sweep equals its element loop written out, bit for bit,
    /// on every level the host has (`runs.apply`, `sweep_ymm`, `sweep_zmm`)
    /// and through [`update_f32`] on every kernel, at lengths 0, 1, 17 and
    /// 2^16 + 5.
    #[test]
    fn every_rule_on_every_level_equals_its_element_loop() {
        for len in [0usize, 1, 17, (1 << 16) + 5] {
            let g = values(len, 18, false);
            for (name, rule) in rules() {
                let mut want = start(name, len);
                let (moments, p) = split(&mut want);
                element_loop(&rule, &g, moments, p);
                for level in Backend::arms(|level| level.min(Backend::Avx512)) {
                    let mut got = start(name, len);
                    let (moments, p) = split(&mut got);
                    let targets = Targets::new(Some(&rule), moments, p);
                    // SAFETY: one run of the whole gradient and targets.
                    let runs = unsafe { targets.runs(g.as_ptr(), 0, 0, 0, (1, len)) };
                    // SAFETY: as above.
                    unsafe { sweep(level, Some(&rule), runs) };
                    assert_eq!(bits3(&got), bits3(&want), "{name} {level:?} len={len}");
                }
                for kernel in kernels() {
                    let mut got = start(name, len);
                    let (moments, p) = split(&mut got);
                    update_f32(kernel, &rule, &g, moments, p);
                    assert_eq!(bits3(&got), bits3(&want), "{name} {kernel:?} len={len}");
                }
            }
        }
    }

    /// The fused update equals the weight gradient followed by the sweep it
    /// replaces, bit for bit, on the parameters and the moments: on every arm
    /// the host has (the scalar loop; each register tile, its update compiled
    /// for its vector unit) with the parts handed out (threshold 0) on pools
    /// 1, 2 and 3 wide, and through the public entry one part either side of
    /// [`PAR_MIN_MACS`], for every one of [`rules`]. Every shape leaves a
    /// ragged last panel and row tile; the first six input columns hold exact
    /// zeros in every third row, so the first row tile runs the skip mask and
    /// the others do not.
    #[test]
    fn the_fused_update_equals_the_weight_gradient_then_the_sweep() {
        let pools = pools();
        let mut scratch = GradScratch::default();
        let operands = |depth: usize, m: usize, n: usize| {
            let mut a = values(depth * m, 23, false);
            for k in (0..depth).step_by(3) {
                a[k * m..k * m + m.min(6)].fill(0.0);
            }
            (a, values(depth * n, 24, false))
        };
        for (depth, m, n) in [
            (16usize, 37usize, 65usize),
            (8, 13, 33),
            (5, 24, 17),
            (1, 1, 1),
        ] {
            let (a, g) = operands(depth, m, n);
            let arms = Backend::arms(|level| level.min(Backend::Avx512));
            for (level, (name, rule)) in arms
                .into_iter()
                .flat_map(|l| rules().into_iter().map(move |r| (l, r)))
            {
                let tile = (level >= Backend::Avx2).then(|| level.packed_width());
                let grad = run_at_b(tile, (&a, &g), (m, n), &mut scratch, usize::MAX);
                let grad: Vec<f32> = grad.into_iter().map(f32::from_bits).collect();
                let mut want = start(name, m * n);
                let (moments, p) = split(&mut want);
                update_f32(level.kernel(), &rule, &grad, moments, p);
                for (threads, pool) in &pools {
                    let mut got = start(name, m * n);
                    let targets = split(&mut got);
                    let (ops, update) = ((&a[..], &g[..]), (level, Some(&rule)));
                    pool.install(|| {
                        weight_gradient(tile, ops, (m, n), update, targets, &mut scratch, 0)
                    });
                    let case = format!("{name} {level:?} {depth}x{m}x{n} on {threads} threads");
                    assert_eq!(bits3(&got), bits3(&want), "{case}");
                }
            }
        }
        let (m, n) = (64usize, 97usize);
        let below = (PAR_MIN_MACS - 1) / (m * n);
        assert!(below * m * n < PAR_MIN_MACS && (below + 1) * m * n >= PAR_MIN_MACS);
        for depth in [below, below + 1] {
            let (a, g) = operands(depth, m, n);
            for (kernel, (name, rule)) in kernels()
                .into_iter()
                .flat_map(|k| rules().into_iter().map(move |r| (k, r)))
            {
                let mut grad = vec![f32::NAN; m * n];
                gemm_at_b_f32(kernel, &a, &g, &mut grad, (m, n), &mut scratch);
                let mut want = start(name, m * n);
                let (moments, p) = split(&mut want);
                update_f32(kernel, &rule, &grad, moments, p);
                for (threads, pool) in &pools {
                    let mut got = start(name, m * n);
                    let (moments, p) = split(&mut got);
                    let ops = (&a[..], &g[..]);
                    pool.install(|| {
                        gemm_at_b_update_f32(kernel, ops, (m, n), &rule, moments, p, &mut scratch)
                    });
                    let case = format!("{name} {kernel:?} {depth}x{m}x{n} on {threads} threads");
                    assert_eq!(bits3(&got), bits3(&want), "{case}");
                }
            }
        }
    }
}
