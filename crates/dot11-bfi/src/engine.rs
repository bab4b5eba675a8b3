//! The workspace-reusing, parallel station-side feedback engine.
//!
//! [`FeedbackEngine`] runs the per-subcarrier SVD → Givens → quantize → pack
//! pipeline with two structural optimizations over the naive loop
//! (`crate::reference::compute_feedback_naive`):
//!
//! 1. **Workspace reuse** — each worker owns one
//!    [`mimo_math::Workspace`], one beamforming-matrix buffer and one Givens
//!    working copy; after the first subcarrier of a chunk, the
//!    SVD-and-decompose step performs no heap allocation beyond the angle
//!    vectors that form the result.
//! 2. **Subcarrier fan-out** — the subcarrier axis is split into one contiguous chunk per available core
//!    and the chunks are claimed by the threads of the `rayon` pool. Chunks are
//!    concatenated in input order
//!    and every scalar operation is identical to the serial path, so the
//!    parallel result is **bit-exact** with the serial one (asserted by the
//!    crate's tests). On a single-core host the fan-out degenerates to the
//!    serial loop and no thread is started.
//!
//! The packing stage stays serial: it is a byte-append loop measured in
//! microseconds, and packing in subcarrier order is what makes the payload
//! independent of the degree of parallelism.

use crate::feedback::CompressedBeamformingReport;
use crate::givens::{angle_pairs, GivensAngles};
use crate::quantize::{quantize_phi, quantize_psi, AngleResolution};
use crate::BfiError;
use mimo_math::svd::Svd;
use mimo_math::{CMatrix, Workspace};
use rayon::prelude::*;

/// Minimum number of subcarriers per parallel chunk; below this the
/// per-thread workspace warm-up outweighs the fan-out.
const MIN_CHUNK: usize = 16;

/// Reusable station-side feedback engine.
///
/// ```
/// use dot11_bfi::engine::FeedbackEngine;
/// use dot11_bfi::quantize::AngleResolution;
/// use mimo_math::{CMatrix, Complex64};
///
/// let csi: Vec<CMatrix> = (0..32)
///     .map(|s| {
///         CMatrix::from_fn(2, 2, |r, c| {
///             Complex64::new((s + r) as f64 * 0.3 + 0.1, (s * c) as f64 * 0.2 - 0.4)
///         })
///     })
///     .collect();
/// let engine = FeedbackEngine::new(1, AngleResolution::High);
/// let report = engine.compute_feedback(&csi).unwrap();
/// assert_eq!(report.subcarriers, 32);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FeedbackEngine {
    nss: usize,
    resolution: AngleResolution,
}

/// Per-worker scratch: everything a chunk needs to process subcarriers without
/// allocating (beyond the per-subcarrier results themselves).
struct WorkerScratch {
    ws: Workspace,
    v: CMatrix,
    omega: CMatrix,
    angles: GivensAngles,
}

impl WorkerScratch {
    fn new() -> Self {
        Self {
            ws: Workspace::new(),
            v: CMatrix::zeros(1, 1),
            omega: CMatrix::zeros(1, 1),
            angles: GivensAngles {
                nt: 0,
                nss: 0,
                phi: Vec::new(),
                psi: Vec::new(),
            },
        }
    }
}

impl FeedbackEngine {
    /// Creates an engine reporting `nss` spatial streams at `resolution`.
    ///
    /// # Panics
    /// Panics if `nss == 0`.
    pub fn new(nss: usize, resolution: AngleResolution) -> Self {
        assert!(nss > 0, "at least one spatial stream required");
        Self { nss, resolution }
    }

    /// Number of spatial streams this engine reports.
    pub fn nss(&self) -> usize {
        self.nss
    }

    /// Angle quantization resolution of the packed reports.
    pub fn resolution(&self) -> AngleResolution {
        self.resolution
    }

    /// Computes the ideal (unquantized) beamforming matrices of every
    /// subcarrier, fanning chunks out across cores: what the tests hold the
    /// quantized reports against.
    #[cfg(test)]
    pub fn beamforming_matrices(&self, csi: &[CMatrix]) -> Vec<CMatrix> {
        let pieces = self.run_chunks(csi, |_start, chunk| {
            let mut ws = Workspace::new();
            let right_vectors = |h| {
                let mut v = CMatrix::zeros(1, 1);
                Svd::right_vectors_into(h, self.nss, &mut v, &mut ws);
                v
            };
            chunk.iter().map(right_vectors).collect::<Vec<_>>()
        });
        pieces.into_iter().flatten().collect()
    }

    /// Runs the full station-side pipeline: SVD, Givens decomposition,
    /// quantization and packing.
    ///
    /// The per-subcarrier stage (SVD → Givens → quantize) runs in the chunked
    /// workers and produces flat angle codes — no per-subcarrier allocation at
    /// all; only the byte-level bit packing stays serial. The payload is
    /// byte-identical to packing the corresponding [`GivensAngles`] the slow
    /// way.
    ///
    /// # Errors
    /// Returns [`BfiError::InvalidShape`] when the CSI is empty, a derived
    /// beamforming matrix cannot be decomposed, or subcarriers disagree on
    /// their shape.
    pub fn compute_feedback(
        &self,
        csi: &[CMatrix],
    ) -> Result<CompressedBeamformingReport, BfiError> {
        if csi.is_empty() {
            return Err(BfiError::InvalidShape("no subcarriers in CSI".into()));
        }
        let nt = csi[0].cols();
        let per_chunk: Vec<Result<Vec<u16>, BfiError>> =
            self.run_chunks(csi, |start, chunk| self.codes_for_chunk(nt, start, chunk));
        let mut codes = Vec::with_capacity(csi.len() * 2 * angle_pairs(nt, self.nss));
        for piece in per_chunk {
            codes.extend(piece?);
        }
        Ok(CompressedBeamformingReport::from_codes(
            nt,
            self.nss,
            csi.len(),
            self.resolution,
            &codes,
        ))
    }

    /// The strictly serial pipeline, one workspace for all subcarriers.
    ///
    /// Used by the bit-exactness tests as the comparison point for the
    /// parallel fan-out, and by callers that must not spawn threads.
    ///
    /// # Errors
    /// Same contract as [`FeedbackEngine::compute_feedback`].
    pub fn compute_feedback_serial(
        &self,
        csi: &[CMatrix],
    ) -> Result<CompressedBeamformingReport, BfiError> {
        if csi.is_empty() {
            return Err(BfiError::InvalidShape("no subcarriers in CSI".into()));
        }
        let nt = csi[0].cols();
        let codes = self.codes_for_chunk(nt, 0, csi)?;
        Ok(CompressedBeamformingReport::from_codes(
            nt,
            self.nss,
            csi.len(),
            self.resolution,
            &codes,
        ))
    }

    /// One worker's share of the feedback pipeline: SVD right vectors, Givens
    /// decomposition and quantization for a contiguous run of subcarriers,
    /// emitting `2 * pairs` codes per subcarrier (φ codes then ψ codes).
    fn codes_for_chunk(
        &self,
        nt: usize,
        start: usize,
        chunk: &[CMatrix],
    ) -> Result<Vec<u16>, BfiError> {
        let mut scratch = WorkerScratch::new();
        let mut codes = Vec::with_capacity(chunk.len() * 2 * angle_pairs(nt, self.nss));
        for (offset, h) in chunk.iter().enumerate() {
            Svd::right_vectors_into(h, self.nss, &mut scratch.v, &mut scratch.ws);
            GivensAngles::decompose_into(&scratch.v, &mut scratch.omega, &mut scratch.angles)?;
            let angles = &scratch.angles;
            if angles.nt != nt || angles.nss != self.nss {
                return Err(BfiError::InvalidShape(format!(
                    "subcarrier {} has shape {}x{}, expected {nt}x{}",
                    start + offset,
                    angles.nt,
                    angles.nss,
                    self.nss
                )));
            }
            codes.extend(angles.phi.iter().map(|&a| quantize_phi(a, self.resolution)));
            codes.extend(angles.psi.iter().map(|&a| quantize_psi(a, self.resolution)));
        }
        Ok(codes)
    }

    /// Maps `f` over contiguous subcarrier chunks, fanning out across cores
    /// and preserving chunk order. `f` receives the chunk's starting
    /// subcarrier index.
    fn run_chunks<T, F>(&self, csi: &[CMatrix], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &[CMatrix]) -> T + Sync,
    {
        let chunk_len = chunk_len(csi.len()).max(1);
        // A single chunk (small input or single core) needs no fan-out at all.
        if csi.len() <= chunk_len {
            return vec![f(0, csi)];
        }
        let chunks: Vec<(usize, &[CMatrix])> = csi
            .chunks(chunk_len)
            .enumerate()
            .map(|(i, chunk)| (i * chunk_len, chunk))
            .collect();
        chunks
            .par_iter()
            .map(|&(start, chunk)| f(start, chunk))
            .collect()
    }
}

/// Chunk length balancing fan-out against per-chunk workspace warm-up.
fn chunk_len(total: usize) -> usize {
    total
        .div_ceil(rayon::current_num_threads().max(1))
        .max(MIN_CHUNK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use mimo_math::Complex64;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_csi(seed: u64, n: usize, subcarriers: usize) -> Vec<CMatrix> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..subcarriers)
            .map(|_| {
                CMatrix::from_fn(n, n, |_, _| {
                    Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
                })
            })
            .collect()
    }

    #[test]
    fn parallel_feedback_is_bit_exact_with_serial() {
        for (seed, n, subcarriers) in [(1, 2, 56), (2, 3, 114), (3, 4, 61)] {
            let csi = random_csi(seed, n, subcarriers);
            let engine = FeedbackEngine::new(1, AngleResolution::High);
            let parallel = engine.compute_feedback(&csi).unwrap();
            let serial = engine.compute_feedback_serial(&csi).unwrap();
            assert_eq!(parallel, serial, "n={n} subcarriers={subcarriers}");
        }
    }

    #[test]
    fn engine_feedback_matches_naive_reference_bit_exactly() {
        for (seed, n, nss) in [(5, 2, 1), (6, 3, 2), (7, 4, 4)] {
            let csi = random_csi(seed, n, 40);
            let engine = FeedbackEngine::new(nss, AngleResolution::Standard);
            let fast = engine.compute_feedback(&csi).unwrap();
            let naive =
                reference::compute_feedback_naive(&csi, nss, AngleResolution::Standard).unwrap();
            assert_eq!(fast, naive, "n={n} nss={nss}");
        }
    }

    #[test]
    fn engine_beamforming_matrices_match_naive() {
        let csi = random_csi(11, 3, 30);
        let engine = FeedbackEngine::new(2, AngleResolution::High);
        let fast = engine.beamforming_matrices(&csi);
        let naive = reference::beamforming_matrices_naive(&csi, 2);
        assert_eq!(fast, naive);
    }

    #[test]
    fn empty_csi_rejected() {
        let engine = FeedbackEngine::new(1, AngleResolution::High);
        assert!(matches!(
            engine.compute_feedback(&[]),
            Err(BfiError::InvalidShape(_))
        ));
        assert!(matches!(
            engine.compute_feedback_serial(&[]),
            Err(BfiError::InvalidShape(_))
        ));
    }

    #[test]
    fn single_subcarrier_works() {
        let csi = random_csi(17, 2, 1);
        let engine = FeedbackEngine::new(1, AngleResolution::Coarse);
        let report = engine.compute_feedback(&csi).unwrap();
        assert_eq!(report.subcarriers, 1);
    }

    #[test]
    #[should_panic]
    fn zero_streams_panics() {
        let _ = FeedbackEngine::new(0, AngleResolution::High);
    }
}
