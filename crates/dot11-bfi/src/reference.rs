//! Naive reference implementation of the station-side feedback pipeline.
//!
//! This is the original per-subcarrier loop — naive SVD, two-pass Givens
//! decomposition with per-column scratch `Vec`s, no workspace reuse, strictly
//! serial — kept as the ground truth for equivalence tests.
//!
//! Compiled only under `cfg(test)`.

use crate::feedback::CompressedBeamformingReport;
use crate::givens::{angle_pairs, GivensAngles};
use crate::quantize::AngleResolution;
use crate::BfiError;
use mimo_math::complex::Complex64;
use mimo_math::reference::svd_naive;
use mimo_math::CMatrix;

/// The original two-pass Givens decomposition (fresh `Vec`s per column).
pub fn decompose_naive(v: &CMatrix) -> Result<GivensAngles, BfiError> {
    let (nt, nss) = v.shape();
    if nss > nt {
        return Err(BfiError::InvalidShape(format!(
            "V must be tall or square, got {nt}x{nss}"
        )));
    }
    if nt == 0 || nss == 0 {
        return Err(BfiError::InvalidShape("empty matrix".into()));
    }

    // Step 1: remove the per-column phase of the last row so that row Nt is
    // non-negative real. D̃ = diag(exp(j * angle(V[Nt-1, k]))).
    let dtilde: Vec<Complex64> = (0..nss)
        .map(|k| Complex64::cis(v[(nt - 1, k)].arg()))
        .collect();
    // Omega = V * D̃^H  (right-multiplying by the conjugate removes the phases).
    let mut omega = CMatrix::from_fn(nt, nss, |r, c| v[(r, c)] * dtilde[c].conj());

    let t_max = nss.min(nt - 1);
    let mut phi = Vec::with_capacity(angle_pairs(nt, nss));
    let mut psi = Vec::with_capacity(angle_pairs(nt, nss));

    for t in 0..t_max {
        // Phase angles of column t, rows t..nt-2 (the last row is already real).
        let mut column_phis = Vec::with_capacity(nt - 1 - t);
        for l in t..(nt - 1) {
            let angle = omega[(l, t)].arg().rem_euclid(2.0 * std::f64::consts::PI);
            column_phis.push(angle);
        }
        phi.extend(column_phis.iter().copied());

        // Apply D_t^H: multiply rows t..nt-2 by exp(-j phi).
        for (offset, &angle) in column_phis.iter().enumerate() {
            let row = t + offset;
            let rotator = Complex64::cis(-angle);
            for c in 0..nss {
                omega[(row, c)] *= rotator;
            }
        }

        // Givens rotations zeroing rows t+1..nt-1 of column t.
        for l in (t + 1)..nt {
            let a = omega[(t, t)].re;
            let b = omega[(l, t)].re;
            let denom = (a * a + b * b).sqrt();
            let angle = if denom < 1e-300 {
                0.0
            } else {
                (a / denom).clamp(-1.0, 1.0).acos()
            };
            psi.push(angle);
            let (cos_psi, sin_psi) = (angle.cos(), angle.sin());
            // Apply G_{l,t} (a real rotation acting on rows t and l).
            for c in 0..nss {
                let top = omega[(t, c)];
                let bottom = omega[(l, c)];
                omega[(t, c)] = top.scale(cos_psi) + bottom.scale(sin_psi);
                omega[(l, c)] = bottom.scale(cos_psi) - top.scale(sin_psi);
            }
        }
    }

    Ok(GivensAngles { nt, nss, phi, psi })
}

/// The original per-subcarrier beamforming-matrix computation: one naive SVD
/// (allocating throughout its sweeps) per subcarrier.
pub fn beamforming_matrices_naive(csi: &[CMatrix], nss: usize) -> Vec<CMatrix> {
    csi.iter()
        .map(|h| svd_naive(h).beamforming_matrix(nss))
        .collect()
}

/// The original station-side pipeline: serial SVD → Givens → quantize → pack
/// with no buffer reuse anywhere.
///
/// # Errors
/// Returns [`BfiError::InvalidShape`] when the CSI is empty or a beamforming
/// matrix cannot be decomposed.
pub fn compute_feedback_naive(
    csi: &[CMatrix],
    nss: usize,
    resolution: AngleResolution,
) -> Result<CompressedBeamformingReport, BfiError> {
    if csi.is_empty() {
        return Err(BfiError::InvalidShape("no subcarriers in CSI".into()));
    }
    let angles: Result<Vec<GivensAngles>, BfiError> = csi
        .iter()
        .map(|h| {
            let v = svd_naive(h).beamforming_matrix(nss);
            decompose_naive(&v)
        })
        .collect();
    CompressedBeamformingReport::pack(&angles?, resolution)
}
