//! One-shot startup autotuning of the row-major f32 GEMM's k-block.
//!
//! The row-major f32 arm ([`super::gemm_f32`]: training, the batch-1 head)
//! blocks its inner-dimension loop so the streamed weight rows stay
//! cache-resident across the batch. The best block size depends on the
//! host's cache hierarchy, so instead of hard-coding it this module times a
//! handful of candidates on a representative GEMM **once per process**
//! (lazily, at the first dispatched GEMM) and pins the winner. The served
//! tails read nothing from here: both the f32 and the int8 tier are packed
//! at bind and hold their tile in registers over the whole depth
//! ([`super::packed`], [`super::int8`]).
//!
//! The shipped [`DEFAULT`] is itself a candidate and the incumbent: a
//! challenger is pinned only when its best time beats the default's by at
//! least [`MIN_GAIN_PCT`] percent ([`pick`]), so candidates within noise of
//! each other cannot trade places from one process to the next: a host gets
//! the same blocking every run unless another is clearly faster.
//!
//! Autotuning can never change *results*, only speed: the f32 AVX2 arm keeps
//! one FMA chain per output element whose accumulator round-trips memory
//! losslessly between blocks, so every candidate produces bit-identical
//! output. The kernel test suite pins that property.

use std::sync::OnceLock;

/// Blocking parameters of the dispatched GEMM arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneParams {
    /// Inner-dimension rows per block of the f32 AVX2 GEMM.
    pub f32_k_block: usize,
    /// Always [`DEFAULT`]'s value: the int8 arms no longer block over `k`.
    /// Kept, with `int8_panel4`, only because the frozen
    /// `benchmark/src/host.rs` prints all four fields — remove with the PR
    /// that owns `benchmark/`.
    pub int8_group_block: usize,
    /// Always [`DEFAULT`]'s value; see `int8_group_block`.
    pub int8_panel4: bool,
    /// `true` when `f32_k_block` came from the startup probe, `false` when
    /// pinned to the shipped constant (non-SIMD hosts).
    pub probed: bool,
}

/// The shipped constants.
pub const DEFAULT: TuneParams = TuneParams {
    f32_k_block: 16,
    int8_group_block: 8,
    int8_panel4: true,
    probed: false,
};

/// The process-wide blocking parameters: resolved by the one-shot probe on
/// first use, then a cheap shared read forever after.
pub fn params() -> &'static TuneParams {
    static PARAMS: OnceLock<TuneParams> = OnceLock::new();
    PARAMS.get_or_init(compute)
}

/// Resolves the parameters: [`DEFAULT`] on hosts without the SIMD arms (the
/// scalar loops take no blocking), otherwise the probe winner.
fn compute() -> TuneParams {
    #[cfg(target_arch = "x86_64")]
    {
        if super::avx2_fma_available() {
            return probe();
        }
    }
    DEFAULT
}

/// How much faster than the shipped default, in percent of the default's best
/// time, a candidate must run before the probe pins it.
const MIN_GAIN_PCT: u128 = 5;

/// The candidate the probe pins, given each candidate's best-of-reps time:
/// the fastest one if it beats the incumbent at `default_idx` by at least
/// [`MIN_GAIN_PCT`] percent, the incumbent otherwise.
fn pick(best_ns: &[u128], default_idx: usize) -> usize {
    let (fastest, &ns) = best_ns
        .iter()
        .enumerate()
        .min_by_key(|&(_, &ns)| ns)
        .expect("the probe times at least the default");
    if ns.saturating_mul(100) <= best_ns[default_idx].saturating_mul(100 - MIN_GAIN_PCT) {
        fastest
    } else {
        default_idx
    }
}

/// Times each candidate on a tail-shaped workload (best of nine runs after a
/// warm-up) and returns the blocking [`pick`] chooses.
#[cfg(target_arch = "x86_64")]
fn probe() -> TuneParams {
    use std::time::Instant;

    // Representative of the tail layers: a modest batch against a weight
    // panel much larger than L1 but smaller than L2, so blocking choices
    // actually move the needle without making the probe slow (a few ms
    // total).
    const ROWS: usize = 8;
    const K: usize = 384;
    const N: usize = 512;
    // Best-of-(REPS-1) per candidate (the first rep only warms caches): on a
    // busy single-core host a scheduler hiccup in a small sample can hand a
    // slow blocking a lucky minimum and pin it for the whole process, so
    // spend a few extra reps to make the winner stable.
    const REPS: usize = 10;

    const K_BLOCKS: [usize; 4] = [8, 16, 32, 64];
    let a: Vec<f32> = (0..ROWS * K)
        .map(|i| ((i % 251) as f32) * 0.01 - 1.2)
        .collect();
    let b: Vec<f32> = (0..K * N)
        .map(|i| ((i % 509) as f32) * 0.004 - 1.0)
        .collect();
    let mut out = vec![0.0f32; ROWS * N];
    let mut candidate_ns = [u128::MAX; K_BLOCKS.len()];
    // Reps are interleaved round-robin across candidates (not candidate by
    // candidate), so frequency scaling or a background burst drifts over
    // every candidate equally instead of handing whichever candidate ran
    // during the quiet window a spuriously fast minimum.
    for rep in 0..REPS {
        for (slot, &k_block) in candidate_ns.iter_mut().zip(&K_BLOCKS) {
            out.fill(0.0);
            let t = Instant::now();
            // SAFETY: `compute` runs this probe only after
            // `avx2_fma_available()`; the buffers were sized ROWS*K, K*N and
            // ROWS*N above.
            unsafe { super::avx2::gemm_f32_avx2(&a, &b, &mut out, ROWS, K, N, k_block) };
            let ns = t.elapsed().as_nanos();
            if rep > 0 {
                *slot = (*slot).min(ns);
            }
        }
    }
    let default_idx = K_BLOCKS
        .iter()
        .position(|&k_block| k_block == DEFAULT.f32_k_block)
        .expect("the shipped k-block is a candidate");
    TuneParams {
        f32_k_block: K_BLOCKS[pick(&candidate_ns, default_idx)],
        probed: true,
        ..DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_picks_from_the_candidate_set() {
        let p = compute();
        if super::super::avx2_fma_available() {
            assert!(p.probed);
            assert!([8, 16, 32, 64].contains(&p.f32_k_block));
        }
        // The probe is skipped on non-SIMD hosts, and nothing else is probed.
        assert_eq!(
            TuneParams {
                f32_k_block: DEFAULT.f32_k_block,
                probed: false,
                ..p
            },
            DEFAULT
        );
    }

    #[test]
    fn a_challenger_must_beat_the_default_by_five_percent() {
        // Candidate 1 is the incumbent at 1000 ns.
        let table = |challengers: [u128; 3]| [challengers[0], 1000, challengers[1], challengers[2]];
        // Faster, but inside the noise band: the default stays.
        assert_eq!(pick(&table([990, 960, 951]), 1), 1);
        // Exactly 5 % faster is enough; of two that qualify the fastest wins.
        assert_eq!(pick(&table([2000, 950, 1200]), 1), 2);
        assert_eq!(pick(&table([940, 950, 700]), 1), 3);
        // The default being fastest, alone or tied, pins the default.
        assert_eq!(pick(&table([1500, 1000, 1001]), 1), 1);
        // A candidate that was never timed (a sentinel) cannot win, and an
        // untimed default loses to any timed challenger.
        assert_eq!(pick(&[u128::MAX, 1000], 1), 1);
        assert_eq!(pick(&[1000, u128::MAX], 1), 0);
    }

    #[test]
    fn params_is_cached_and_stable() {
        let a = *params();
        let b = *params();
        assert_eq!(a, b);
        assert!(a.f32_k_block >= 8);
    }
}
