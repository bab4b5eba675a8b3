//! Blocking parameters of the row-major f32 GEMM.
//!
//! The k-block's only reader is the scalar walk of [`super::gemm_f32`]: a
//! shipped constant that keeps the streamed weight rows cache-resident
//! across the batch. The depth never changes results, only speed — the
//! walk's accumulators round-trip memory losslessly between blocks, and the
//! kernel test suite pins that.

/// Blocking parameters of the dispatched GEMM arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneParams {
    /// Inner-dimension rows per block of the scalar f32 walk.
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
