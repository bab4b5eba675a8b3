//! Order statistics for slice values and delay samples. No minima: a timing
//! is reported as a median with its quartiles and sample count, and a tail
//! only as far out as the sample supports.

/// Median, quartiles and sample count of one metric's slice values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
        n: s.len(),
    }
}

/// The percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [0.50, 0.90, 0.99, 0.999, 0.9999];

/// The highest rung of [`TAIL_LADDER`] with at least ten samples beyond it,
/// or `None` when even the median has fewer than ten samples above it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| percentile_supported(n, p))
}

/// Whether percentile `p` of a sample of `n` has at least ten samples beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    // `1.0 - 0.9` is a hair under a tenth; the slack keeps n = 100 supported.
    (n as f64) * (1.0 - p) >= 10.0 - 1e-6
}
