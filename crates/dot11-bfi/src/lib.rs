//! The IEEE 802.11 beamforming-feedback baseline.
//!
//! This crate implements the standard compressed beamforming feedback pipeline
//! that SplitBeam is compared against (Section III of the paper):
//!
//! * [`givens`] — Algorithm 1: decomposition of the beamforming matrix `V`
//!   into Givens-rotation angles (ψ, φ) and the inverse reconstruction,
//! * [`quantize`] — standard angle quantization with `bφ ∈ {5, 7, 9}` bits and
//!   `bψ = bφ − 2` bits,
//! * [`bits`] — the shared MSB-first bit writer/reader primitives behind every
//!   wire format in the workspace,
//! * [`feedback`] — compressed-beamforming-frame bit packing, feedback sizes
//!   and the compression-ratio formula (Eq. 9),
//! * [`engine`] — the workspace-reusing [`FeedbackEngine`], the beamformee
//!   (STA) side: SVD → Givens → quantize → pack, with per-thread scratch
//!   buffers and a bit-exact fan-out of the subcarrier axis across cores,
//! * [`pipeline`] — the whole round trip: the engine's report, then unpack →
//!   dequantize → reconstruct at the access point (the beamformer),
//! * [`complexity`] — the FLOP models quoted by the paper for SVD
//!   (`O((4 Nt Nr² + 22 Nt³) S)`) and Givens decomposition (`O(Nt³ Nr³ S)`).
//!
//! # Example: full 802.11 feedback round trip
//!
//! ```
//! use dot11_bfi::engine::FeedbackEngine;
//! use dot11_bfi::givens::GivensAngles;
//! use dot11_bfi::quantize::AngleResolution;
//! use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
//! use wifi_phy::ofdm::Bandwidth;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let model = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 2, 1);
//! let snapshot = model.sample(&mut rng);
//!
//! let sta = FeedbackEngine::new(1, AngleResolution::High);
//! let report = sta.compute_feedback(snapshot.csi(0)).unwrap();
//! let angles = report.unpack().unwrap();
//! let reconstructed: Vec<_> = angles.iter().map(GivensAngles::reconstruct).collect();
//! assert_eq!(reconstructed.len(), 56);
//! assert_eq!(reconstructed[0].shape(), (2, 1));
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod bits;
pub mod complexity;
pub mod engine;
pub mod feedback;
pub mod givens;
pub mod pipeline;
pub mod quantize;
#[cfg(test)]
pub mod reference;

pub use engine::FeedbackEngine;
pub use feedback::CompressedBeamformingReport;
pub use givens::GivensAngles;
pub use quantize::AngleResolution;

/// Errors produced by the 802.11 feedback pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BfiError {
    /// The beamforming matrix has an unsupported shape (e.g. more columns than rows).
    InvalidShape(String),
    /// A compressed report could not be parsed back into angles.
    MalformedReport(String),
}

impl std::fmt::Display for BfiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BfiError::InvalidShape(msg) => write!(f, "invalid beamforming matrix shape: {msg}"),
            BfiError::MalformedReport(msg) => write!(f, "malformed compressed report: {msg}"),
        }
    }
}

impl std::error::Error for BfiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(format!("{}", BfiError::InvalidShape("1x4".into())).contains("1x4"));
        assert!(format!("{}", BfiError::MalformedReport("truncated".into())).contains("truncated"));
    }
}
