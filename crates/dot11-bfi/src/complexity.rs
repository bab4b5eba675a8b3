//! Computational-complexity models of the 802.11 feedback pipeline.
//!
//! The paper (Section IV-E1) quotes the station-side cost of the standard
//! feedback as the sum of
//!
//! * the SVD of the channel on every subcarrier, `O((4 Nt Nr² + 22 Nt³) S)`
//!   floating point operations (Golub & Van Loan), and
//! * the Givens-rotation decomposition, `O(Nt³ Nr³ S)`.
//!
//! These closed-form FLOP counts are what Figures 6, 10, 11 and 12 plot for the
//! 802.11 and LB-SciFi baselines; SplitBeam's counterpart lives in the
//! `splitbeam` crate.

/// FLOPs of the per-subcarrier SVD used to obtain the beamforming matrix,
/// multiplied by the number of subcarriers: `(4 Nt Nr² + 22 Nt³) * S`.
pub fn svd_flops(nt: usize, nr: usize, subcarriers: usize) -> u64 {
    let nt = nt as u64;
    let nr = nr as u64;
    (4 * nt * nr * nr + 22 * nt * nt * nt) * subcarriers as u64
}

/// FLOPs of the Givens-rotation angle decomposition: `Nt³ Nr³ * S`.
pub fn givens_flops(nt: usize, nr: usize, subcarriers: usize) -> u64 {
    let nt = nt as u64;
    let nr = nr as u64;
    nt * nt * nt * nr * nr * nr * subcarriers as u64
}

/// Total station-side FLOPs of the standard 802.11 feedback computation.
pub fn dot11_sta_flops(nt: usize, nr: usize, subcarriers: usize) -> u64 {
    svd_flops(nt, nr, subcarriers) + givens_flops(nt, nr, subcarriers)
}

/// Breakdown of the station-side computation for reporting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dot11Complexity {
    /// FLOPs spent in the SVD.
    pub svd_flops: u64,
    /// FLOPs spent in the Givens decomposition.
    pub givens_flops: u64,
}

impl Dot11Complexity {
    /// Computes the breakdown for a given configuration.
    pub fn compute(nt: usize, nr: usize, subcarriers: usize) -> Self {
        Self {
            svd_flops: svd_flops(nt, nr, subcarriers),
            givens_flops: givens_flops(nt, nr, subcarriers),
        }
    }

    /// Total FLOPs.
    pub fn total(&self) -> u64 {
        self.svd_flops + self.givens_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_match_paper_expressions() {
        // 3x3, 242 subcarriers
        assert_eq!(svd_flops(3, 3, 242), (4 * 3 * 9 + 22 * 27) * 242);
        assert_eq!(givens_flops(3, 3, 242), 27 * 27 * 242);
    }

    #[test]
    fn complexity_grows_with_dimensions() {
        assert!(dot11_sta_flops(4, 4, 242) > dot11_sta_flops(2, 2, 242));
        assert!(dot11_sta_flops(2, 2, 484) > dot11_sta_flops(2, 2, 56));
    }

    #[test]
    fn breakdown_totals() {
        let c = Dot11Complexity::compute(4, 4, 114);
        assert_eq!(c.total(), c.svd_flops + c.givens_flops);
        assert_eq!(c.total(), dot11_sta_flops(4, 4, 114));
    }

    #[test]
    fn givens_dominates_for_large_arrays() {
        // For 8x8 the Nt^3 Nr^3 term dwarfs the SVD term.
        let c = Dot11Complexity::compute(8, 8, 484);
        assert!(c.givens_flops > c.svd_flops);
    }

    #[test]
    fn linear_in_subcarriers() {
        assert_eq!(dot11_sta_flops(3, 3, 200), 2 * dot11_sta_flops(3, 3, 100));
    }
}
