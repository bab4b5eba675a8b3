//! Capture-pipeline simulation: packet drops, sequence alignment, normalization
//! and moving-median smoothing (Section 5.2.1 of the paper).

use mimo_math::CMatrix;
use rand::Rng;

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

/// Normalizes a CSI matrix by the mean amplitude of its entries (removing
/// per-packet AGC/amplification differences, as the paper does).
pub fn normalize_by_mean_amplitude(h: &CMatrix) -> CMatrix {
    let mean: f64 = h.as_slice().iter().map(|z| z.abs()).sum::<f64>() / h.as_slice().len() as f64;
    if mean < 1e-12 {
        h.clone()
    } else {
        h.scale_real(1.0 / mean)
    }
}

/// Applies an `n`-point moving median to a scalar time series (used on the
/// per-subcarrier amplitude traces to suppress impulsive estimation noise).
///
/// NaN samples (a corrupted CSI estimate) are ordered by `f64::total_cmp`, so
/// they sort after every finite amplitude instead of panicking the capture
/// pipeline; a NaN therefore only surfaces in a window's output when it
/// reaches the median position itself.
pub fn moving_median(values: &[f64], window: usize) -> Vec<f64> {
    if window <= 1 || values.is_empty() {
        return values.to_vec();
    }
    let half = window / 2;
    (0..values.len())
        .map(|i| {
            let start = i.saturating_sub(half);
            let end = (i + half + 1).min(values.len());
            let mut slice: Vec<f64> = values[start..end].to_vec();
            slice.sort_by(f64::total_cmp);
            slice[slice.len() / 2]
        })
        .collect()
}

/// Applies the moving-median smoother to the amplitude of every entry of a CSI
/// time series (a sequence of `Nr x Nt` matrices for one subcarrier), keeping
/// the original phases.
pub fn smooth_csi_series(series: &[CMatrix], window: usize) -> Vec<CMatrix> {
    if series.is_empty() || window <= 1 {
        return series.to_vec();
    }
    let (rows, cols) = series[0].shape();
    let mut out = series.to_vec();
    for r in 0..rows {
        for c in 0..cols {
            let amplitudes: Vec<f64> = series.iter().map(|h| h[(r, c)].abs()).collect();
            let smoothed = moving_median(&amplitudes, window);
            for (t, h) in out.iter_mut().enumerate() {
                let phase = series[t][(r, c)].arg();
                h[(r, c)] = mimo_math::Complex64::from_polar(smoothed[t], phase);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_math::Complex64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

    #[test]
    fn normalization_gives_unit_mean_amplitude() {
        let h = CMatrix::from_fn(2, 2, |r, c| Complex64::new((r + c) as f64 + 1.0, 0.5));
        let normalized = normalize_by_mean_amplitude(&h);
        let mean: f64 = normalized.as_slice().iter().map(|z| z.abs()).sum::<f64>() / 4.0;
        assert!((mean - 1.0).abs() < 1e-12);
        // Zero matrices pass through unchanged.
        let zero = CMatrix::zeros(2, 2);
        assert_eq!(normalize_by_mean_amplitude(&zero), zero);
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
        let series: Vec<CMatrix> = (0..20)
            .map(|t| {
                CMatrix::from_fn(2, 2, |r, c| {
                    let amp = if t == 7 { 50.0 } else { 1.0 };
                    Complex64::from_polar(amp, 0.3 * (r + c) as f64)
                })
            })
            .collect();
        let smoothed = smooth_csi_series(&series, 10);
        assert_eq!(smoothed.len(), 20);
        // The outlier amplitude is suppressed but the phase is untouched.
        assert!(smoothed[7][(0, 0)].abs() < 2.0);
        assert!((smoothed[7][(0, 1)].arg() - 0.3).abs() < 1e-9);
        // Degenerate cases.
        assert!(smooth_csi_series(&[], 10).is_empty());
    }
}
