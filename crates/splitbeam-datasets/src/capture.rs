//! Capture-pipeline simulation: packet drops, sequence alignment, normalization
//! and moving-median smoothing (Section 5.2.1 of the paper).

use mimo_math::{CMatrix, Complex64};
use rand::Rng;
use rayon::prelude::*;
use wifi_phy::channel::ChannelSnapshot;

/// Parameters of the simulated capture pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureOptions {
    /// Probability that a given station misses a given packet (Nexmon drops).
    pub drop_probability: f64,
    /// Window length of the moving-median amplitude smoother (paper: n = 10).
    pub median_window: usize,
    /// Whether to normalize each CSI matrix by its mean amplitude over subcarriers.
    pub normalize: bool,
}

impl Default for CaptureOptions {
    fn default() -> Self {
        Self {
            drop_probability: 0.02,
            median_window: 10,
            normalize: true,
        }
    }
}

/// Simulates per-station packet reception: returns, for each station, the set
/// of packet sequence numbers it actually captured.
pub fn simulate_receptions(
    num_stations: usize,
    num_packets: usize,
    drop_probability: f64,
    rng: &mut impl Rng,
) -> Vec<Vec<usize>> {
    (0..num_stations)
        .map(|_| {
            (0..num_packets)
                .filter(|_| !rng.gen_bool(drop_probability.clamp(0.0, 1.0)))
                .collect()
        })
        .collect()
}

/// Aligns per-station capture sets by sequence number: only packets captured by
/// *every* station are retained, so each remaining index refers to the same
/// time/frequency channel observation on all stations (Section 5.2.1).
pub fn align_sequences(receptions: &[Vec<usize>]) -> Vec<usize> {
    if receptions.is_empty() {
        return Vec::new();
    }
    let mut common: Vec<usize> = receptions[0].clone();
    for r in &receptions[1..] {
        let set: std::collections::HashSet<usize> = r.iter().copied().collect();
        common.retain(|seq| set.contains(seq));
    }
    common
}

/// Normalizes a CSI matrix, in place, by the mean amplitude of its entries
/// (removing per-packet AGC/amplification differences, as the paper does).
/// A matrix whose mean amplitude is below `1e-12` is left as it is.
pub fn normalize_by_mean_amplitude(h: &mut CMatrix) {
    let mean: f64 = h.as_slice().iter().map(|z| z.abs()).sum::<f64>() / h.as_slice().len() as f64;
    if mean < 1e-12 {
        return;
    }
    let k = Complex64::from_real(1.0 / mean);
    for z in h.as_mut_slice() {
        *z *= k;
    }
}

/// Applies an `n`-point moving median to a scalar time series (used on the
/// per-subcarrier amplitude traces to suppress impulsive estimation noise).
///
/// NaN samples (a corrupted CSI estimate) are ordered by `f64::total_cmp`, so
/// they sort after every finite amplitude instead of panicking the capture
/// pipeline; a NaN therefore only surfaces in a window's output when it
/// reaches the median position itself. The tests' entry to
/// [`medians_into`], which [`smooth_csi_series`] runs.
#[cfg(test)]
fn moving_median(values: &[f64], window: usize) -> Vec<f64> {
    if window <= 1 || values.is_empty() {
        return values.to_vec();
    }
    let half = window / 2;
    let mut medians = vec![0.0; values.len()];
    medians_into(values, half, &mut vec![0.0; 2 * half + 1], &mut medians);
    medians
}

/// `out[i]` becomes the median of sample `i`'s window of `values` —
/// `values[i - half..=i + half]`, clipped to the series — in `f64::total_cmp`
/// order: the middle sample, the upper one of an even count. The window is
/// kept sorted in `sorted` (at least `2 * half + 1` long) as it slides, one
/// sample in and one out a step, so no window allocates or sorts. Samples
/// equal under `total_cmp` have the same bits, so the median is the sample
/// a sort of each window puts there.
fn medians_into(values: &[f64], half: usize, sorted: &mut [f64], out: &mut [f64]) {
    let mut held = 0;
    let insert = |sorted: &mut [f64], held: &mut usize, v: f64| {
        let at = sorted[..*held].partition_point(|s| s.total_cmp(&v).is_lt());
        sorted.copy_within(at..*held, at + 1);
        sorted[at] = v;
        *held += 1;
    };
    for &v in &values[..half.min(values.len())] {
        insert(sorted, &mut held, v);
    }
    for (i, out) in out.iter_mut().enumerate() {
        if let Some(gone) = i.checked_sub(half + 1).map(|j| values[j]) {
            let at = sorted[..held].partition_point(|s| s.total_cmp(&gone).is_lt());
            sorted.copy_within(at + 1..held, at);
            held -= 1;
        }
        if let Some(&v) = values.get(i + half) {
            insert(sorted, &mut held, v);
        }
        *out = sorted[held / 2];
    }
}

/// Applies the moving-median smoother along time to the amplitude of every
/// CSI entry of `snapshots`, keeping the original phases: one series per
/// (user, subcarrier, entry), over the snapshots in order.
///
/// The (user, subcarrier) series are handed out to the pool. A part reads
/// the snapshots and writes its own run of one output buffer, which — like
/// each part's scratch — is allocated here, on the caller; the snapshots
/// take the outputs back once every part is done. A part computes what the
/// one-thread loop does, element for element, so the result is the same
/// at every pool width.
///
/// # Panics
/// Panics if the snapshots disagree in users, subcarriers or matrix shape.
pub fn smooth_csi_series(snapshots: &mut [ChannelSnapshot], window: usize) {
    let Some(first) = snapshots.first() else {
        return;
    };
    if window <= 1 {
        return;
    }
    let (users, subcarriers) = (first.num_users(), first.subcarriers());
    let (entries, len, half) = (first.nr() * first.nt(), snapshots.len(), window / 2);
    let mut smoothed = vec![Complex64::ZERO; users * subcarriers * len * entries];
    // A part's amplitude series, its medians, then one sorted window.
    let scratch_len = 2 * len + 2 * half + 1;
    let mut scratch = vec![0.0; users * subcarriers * scratch_len];
    let mut parts: Vec<_> = smoothed
        .chunks_exact_mut(len * entries)
        .zip(scratch.chunks_exact_mut(scratch_len))
        .enumerate()
        .collect();
    let series = &*snapshots;
    parts.par_iter_mut().for_each(|(part, (out, scratch))| {
        let (user, s) = (*part / subcarriers, *part % subcarriers);
        let entry = |t: usize, e: usize| series[t].csi(user)[s].as_slice()[e];
        let (amplitudes, scratch) = scratch.split_at_mut(len);
        let (medians, sorted) = scratch.split_at_mut(len);
        for e in 0..entries {
            for (t, amplitude) in amplitudes.iter_mut().enumerate() {
                *amplitude = entry(t, e).abs();
            }
            medians_into(amplitudes, half, sorted, medians);
            for (t, &median) in medians.iter().enumerate() {
                out[t * entries + e] = Complex64::from_polar(median, entry(t, e).arg());
            }
        }
    });
    for (t, snapshot) in snapshots.iter_mut().enumerate() {
        for user in 0..users {
            for (s, h) in snapshot.csi_mut(user).iter_mut().enumerate() {
                let at = ((user * subcarriers + s) * len + t) * entries;
                h.as_mut_slice()
                    .copy_from_slice(&smoothed[at..at + entries]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wifi_phy::ofdm::Bandwidth;

    #[test]
    fn receptions_respect_drop_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let receptions = simulate_receptions(3, 1000, 0.1, &mut rng);
        assert_eq!(receptions.len(), 3);
        for r in &receptions {
            assert!(
                r.len() > 800 && r.len() < 1000,
                "drop rate ~10% expected, kept {}",
                r.len()
            );
        }
        let no_drops = simulate_receptions(2, 100, 0.0, &mut rng);
        assert!(no_drops.iter().all(|r| r.len() == 100));
    }

    #[test]
    fn alignment_keeps_only_common_sequences() {
        let receptions = vec![vec![0, 1, 2, 4, 5], vec![1, 2, 3, 5], vec![0, 1, 2, 5, 6]];
        assert_eq!(align_sequences(&receptions), vec![1, 2, 5]);
        assert!(align_sequences(&[]).is_empty());
    }

    fn mean_amplitude(h: &CMatrix) -> f64 {
        h.as_slice().iter().map(|z| z.abs()).sum::<f64>() / h.as_slice().len() as f64
    }

    #[test]
    fn normalization_gives_unit_mean_amplitude() {
        let h = CMatrix::from_fn(2, 2, |r, c| Complex64::new((r + c) as f64 + 1.0, 0.5));
        let mut normalized = h.clone();
        normalize_by_mean_amplitude(&mut normalized);
        let mean: f64 = normalized.as_slice().iter().map(|z| z.abs()).sum::<f64>() / 4.0;
        assert!((mean - 1.0).abs() < 1e-12);
        // The entries are scaled as `CMatrix::scale_real` scales them.
        assert_eq!(normalized, h.scale_real(1.0 / (mean_amplitude(&h))));
        // Zero matrices pass through unchanged.
        let mut zero = CMatrix::zeros(2, 2);
        normalize_by_mean_amplitude(&mut zero);
        assert_eq!(zero, CMatrix::zeros(2, 2));
    }

    #[test]
    fn moving_median_removes_impulse() {
        let mut series = vec![1.0; 21];
        series[10] = 100.0; // impulsive outlier
        let smoothed = moving_median(&series, 10);
        assert!((smoothed[10] - 1.0).abs() < 1e-12);
        // Window of 1 is a no-op.
        assert_eq!(moving_median(&series, 1), series);
    }

    /// The sliding window's median is the middle sample of each window
    /// sorted by `total_cmp`, bit for bit, at every window length from no-op
    /// to past the series, with repeated samples, signed zeros and NaNs.
    #[test]
    fn moving_median_is_each_windows_sorted_middle() {
        const SPECIAL: [f64; 4] = [f64::NAN, -0.0, 0.0, 1.0];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for len in 0..=30usize {
            let values: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0..8u8) {
                    0 => SPECIAL[rng.gen_range(0..4usize)],
                    _ => f64::from(rng.gen_range(0..6u8)) / 4.0,
                })
                .collect();
            for window in 0..=12usize {
                let half = window / 2;
                let want: Vec<u64> = (0..len)
                    .map(|i| {
                        if window <= 1 {
                            return values[i].to_bits();
                        }
                        let mut w =
                            values[i.saturating_sub(half)..(i + half + 1).min(len)].to_vec();
                        w.sort_by(f64::total_cmp);
                        w[w.len() / 2].to_bits()
                    })
                    .collect();
                let got: Vec<u64> = moving_median(&values, window)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "len {len} window {window}: {values:?}");
            }
        }
    }

    #[test]
    fn moving_median_survives_nan_samples() {
        // Regression: the comparator used `partial_cmp(..).unwrap()`, so a
        // single NaN amplitude (a corrupted capture) panicked the whole
        // pipeline. With total_cmp, NaN sorts above every finite value and
        // the surrounding windows still produce finite medians.
        let mut series = vec![1.0; 21];
        series[10] = f64::NAN;
        let smoothed = moving_median(&series, 10);
        assert_eq!(smoothed.len(), series.len());
        // Windows where the NaN does not reach the median position stay finite.
        assert!((smoothed[0] - 1.0).abs() < 1e-12);
        assert!((smoothed[20] - 1.0).abs() < 1e-12);
        // Majority-finite windows around the corrupt sample are repaired.
        assert!((smoothed[10] - 1.0).abs() < 1e-12);
        // An all-NaN series must not panic either.
        let all_nan = vec![f64::NAN; 5];
        let out = moving_median(&all_nan, 3);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn csi_series_smoothing_preserves_phase_and_shape() {
        let mut series: Vec<ChannelSnapshot> = (0..20)
            .map(|t| {
                let h = CMatrix::from_fn(2, 2, |r, c| {
                    let amp = if t == 7 { 50.0 } else { 1.0 };
                    Complex64::from_polar(amp, 0.3 * (r + c) as f64)
                });
                ChannelSnapshot::from_matrices(Bandwidth::Mhz20, 1, vec![vec![h]])
            })
            .collect();
        smooth_csi_series(&mut series, 10);
        assert_eq!(series.len(), 20);
        // The outlier amplitude is suppressed but the phase is untouched.
        let smoothed = &series[7].csi(0)[0];
        assert!(smoothed[(0, 0)].abs() < 2.0);
        assert!((smoothed[(0, 1)].arg() - 0.3).abs() < 1e-9);
        // Degenerate cases.
        smooth_csi_series(&mut [], 10);
    }

    /// Every series of a multi-user, multi-subcarrier set is the moving
    /// median of its amplitudes with its phases kept, at every pool width.
    #[test]
    fn every_series_is_its_own_moving_median_at_every_pool_width() {
        let (users, subcarriers, len, window) = (2usize, 3usize, 13usize, 4usize);
        let value = |t: usize, u: usize, s: usize, e: usize| {
            let x = (t * 31 + u * 17 + s * 7 + e * 3) % 23;
            Complex64::from_polar(x as f64 / 7.0 + 0.1, x as f64 * 0.4 - 2.0)
        };
        let snapshots: Vec<ChannelSnapshot> = (0..len)
            .map(|t| {
                let per_user = (0..users)
                    .map(|u| {
                        (0..subcarriers)
                            .map(|s| CMatrix::from_fn(2, 3, |r, c| value(t, u, s, r * 3 + c)))
                            .collect()
                    })
                    .collect();
                ChannelSnapshot::from_matrices(Bandwidth::Mhz20, 1, per_user)
            })
            .collect();
        for threads in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
            let pool = pool.build().expect("the shim's build cannot fail");
            let mut smoothed = snapshots.clone();
            pool.install(|| smooth_csi_series(&mut smoothed, window));
            for (u, s, e) in (0..users)
                .flat_map(|u| (0..subcarriers).flat_map(move |s| (0..6).map(move |e| (u, s, e))))
            {
                let raw: Vec<Complex64> = (0..len).map(|t| value(t, u, s, e)).collect();
                let amplitudes: Vec<f64> = raw.iter().map(|z| z.abs()).collect();
                let medians = moving_median(&amplitudes, window);
                for t in 0..len {
                    let want = Complex64::from_polar(medians[t], raw[t].arg());
                    let got = smoothed[t].csi(u)[s].as_slice()[e];
                    assert_eq!(
                        (got.re.to_bits(), got.im.to_bits()),
                        (want.re.to_bits(), want.im.to_bits()),
                        "{threads} threads: user {u} subcarrier {s} entry {e} t {t}"
                    );
                }
            }
        }
    }
}
