//! One-shot startup autotuning of GEMM blocking parameters.
//!
//! The f32 and int8 GEMM arms block their inner-dimension loop so the
//! streamed weight panel stays cache-resident across the batch, and the int8
//! arms optionally walk 4-row panels so one loaded weight vector feeds four
//! accumulators. The best block sizes depend on the host's cache hierarchy,
//! so instead of hard-coding them this module times a handful of candidates
//! on a representative tail-shaped GEMM **once per process** (lazily, at the
//! first dispatched GEMM) and pins the winner.
//!
//! The shipped [`DEFAULT`] is itself a candidate and the incumbent: a
//! challenger is pinned only when its best time beats the default's by at
//! least [`MIN_GAIN_PCT`] percent ([`pick`]), so candidates within noise of
//! each other cannot trade places from one process to the next: a host gets
//! the same blocking every run unless another is clearly faster.
//!
//! Autotuning can never change *results*, only speed: the int8 arms
//! accumulate exact `i32` sums (associative), and the f32 AVX2 arm keeps one
//! FMA chain per output element whose accumulator round-trips memory
//! losslessly between blocks, so every candidate produces bit-identical
//! output. The kernel test suite pins both properties.

use std::sync::OnceLock;

/// Blocking parameters shared by the dispatched GEMM arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneParams {
    /// Inner-dimension rows per block of the f32 AVX2 GEMM.
    pub f32_k_block: usize,
    /// 4-deep k-groups per block of the int8 arms (a block spans
    /// `4 * int8_group_block` inner-dimension rows).
    pub int8_group_block: usize,
    /// Whether the int8 arms use the 4-row output panel (one weight load
    /// feeding four accumulators) or plain row-at-a-time panels.
    pub int8_panel4: bool,
    /// `true` when these values came from the startup probe, `false` when
    /// pinned to the shipped constants (non-SIMD hosts).
    pub probed: bool,
}

/// The shipped constants: the blocking the kernels used before autotuning.
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
        if super::avx2_fma_available() || super::int8::avx2_available() {
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
/// warm-up) and returns, per arm, the blocking [`pick`] chooses.
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

    let mut best = DEFAULT;
    best.probed = true;

    // Reps are interleaved round-robin across candidates (not candidate by
    // candidate), so frequency scaling or a background burst drifts over
    // every candidate equally instead of handing whichever candidate ran
    // during the quiet window a spuriously fast minimum.
    if super::avx2_fma_available() {
        const K_BLOCKS: [usize; 4] = [8, 16, 32, 64];
        let a: Vec<f32> = (0..ROWS * K)
            .map(|i| ((i % 251) as f32) * 0.01 - 1.2)
            .collect();
        let b: Vec<f32> = (0..K * N)
            .map(|i| ((i % 509) as f32) * 0.004 - 1.0)
            .collect();
        let mut out = vec![0.0f32; ROWS * N];
        let mut candidate_ns = [u128::MAX; K_BLOCKS.len()];
        for rep in 0..REPS {
            for (slot, &k_block) in candidate_ns.iter_mut().zip(&K_BLOCKS) {
                out.fill(0.0);
                let t = Instant::now();
                // SAFETY: this probe only runs after `avx2_fma_available()`
                // (checked by the caller); the buffers were sized ROWS*K,
                // K*N and ROWS*N above.
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
        best.f32_k_block = K_BLOCKS[pick(&candidate_ns, default_idx)];
    }

    if super::int8::avx2_available() {
        // `usize::MAX / 4` effectively disables k-blocking: one in-register
        // accumulation sweep per column tile, output folded exactly once.
        const GROUP_BLOCKS: [usize; 5] = [4, 8, 16, 64, usize::MAX / 4];
        // (group block, 4-row panel) pairs, flattened.
        let candidates: Vec<(usize, bool)> = GROUP_BLOCKS
            .iter()
            .flat_map(|&group_block| [(group_block, true), (group_block, false)])
            .collect();
        let k_pad = super::int8::padded_k(K);
        let a: Vec<u8> = (0..ROWS * k_pad).map(|i| (i % 128) as u8).collect();
        let b: Vec<i8> = (0..k_pad * N)
            .map(|i| ((i % 255) as i64 - 127) as i8)
            .collect();
        let mut out = vec![0i32; ROWS * N];
        let vnni = super::int8::avx512_vnni_available();
        let mut candidate_ns = vec![u128::MAX; candidates.len()];
        for rep in 0..REPS {
            for (slot, &(group_block, panel4)) in candidate_ns.iter_mut().zip(&candidates) {
                out.fill(0);
                let t = Instant::now();
                // SAFETY: the caller checked `avx2_available()` and `vnni`
                // selects the VNNI body only when `avx512_vnni_available()`;
                // buffer shapes match the ROWS/k_pad/N sizing above.
                unsafe {
                    if vnni {
                        super::int8::x86::gemm_vnni(
                            &a,
                            &b,
                            &mut out,
                            ROWS,
                            k_pad,
                            N,
                            group_block,
                            panel4,
                        );
                    } else {
                        super::int8::x86::gemm_avx2(
                            &a,
                            &b,
                            &mut out,
                            ROWS,
                            k_pad,
                            N,
                            group_block,
                            panel4,
                        );
                    }
                }
                let ns = t.elapsed().as_nanos();
                if rep > 0 {
                    *slot = (*slot).min(ns);
                }
            }
        }
        let default_idx = candidates
            .iter()
            .position(|&c| c == (DEFAULT.int8_group_block, DEFAULT.int8_panel4))
            .expect("the shipped int8 blocking is a candidate");
        (best.int8_group_block, best.int8_panel4) = candidates[pick(&candidate_ns, default_idx)];
    }

    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_picks_from_the_candidate_sets() {
        let p = compute();
        #[cfg(target_arch = "x86_64")]
        if super::super::int8::avx2_available() {
            assert!(p.probed);
            assert!([8, 16, 32, 64].contains(&p.f32_k_block));
            assert!([4, 8, 16, 64, usize::MAX / 4].contains(&p.int8_group_block));
        }
        // On non-SIMD hosts the probe is skipped entirely.
        if !super::super::avx2_fma_available() && !super::super::int8::avx2_available() {
            assert_eq!(p, DEFAULT);
        }
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
        assert!(a.f32_k_block >= 8 && a.int8_group_block >= 1);
    }
}
