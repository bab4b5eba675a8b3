//! Blocking parameters of the row-major f32 GEMM.
//!
//! The walk of the row-major f32 arm ([`super::gemm_f32`] at one row — the
//! batch-1 head — and past its last whole panel) blocks its inner-dimension
//! loop so the streamed weight rows stay cache-resident across the batch.
//! The block depth is a shipped constant, not a startup measurement: its
//! reader is a bandwidth-bound batch-1 product, and everything else reads
//! nothing from here — the served tails and the training products hold their
//! tile in registers over the whole depth ([`super::packed`],
//! [`super::int8`], [`super::dense`]).
//!
//! The block depth can never change *results*, only speed: the f32 AVX2 arm
//! keeps one FMA chain per output element whose accumulator round-trips
//! memory losslessly between blocks, so every depth produces bit-identical
//! output. The kernel test suite pins that property.

/// Blocking parameters of the dispatched GEMM arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneParams {
    /// Inner-dimension rows per block of the f32 AVX2 GEMM.
    pub f32_k_block: usize,
    /// Always [`DEFAULT`]'s value: the int8 arms no longer block over `k`.
    /// Kept, with `int8_panel4` and `probed`, only because the frozen
    /// `benchmark/src/host.rs` prints all four fields — remove with the PR
    /// that owns `benchmark/`.
    pub int8_group_block: usize,
    /// Always [`DEFAULT`]'s value; see `int8_group_block`.
    pub int8_panel4: bool,
    /// Always `false`: nothing is probed; see `int8_group_block`.
    pub probed: bool,
}

/// The shipped constants.
pub const DEFAULT: TuneParams = TuneParams {
    f32_k_block: 16,
    int8_group_block: 8,
    int8_panel4: true,
    probed: false,
};

/// The process-wide blocking parameters: [`DEFAULT`].
pub fn params() -> &'static TuneParams {
    &DEFAULT
}
