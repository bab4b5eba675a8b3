//! SplitBeam: split-computing beamforming feedback for Wi-Fi MU-MIMO.
//!
//! This crate is the reproduction of the paper's primary contribution. A single
//! task-specific DNN maps the station's estimated CSI tensor `H` directly to
//! the beamforming feedback `V`. A deliberately narrow **bottleneck** layer
//! splits the DNN into a **head** (run by the station) and a **tail** (run by
//! the access point): the head's output is the compressed feedback transmitted
//! over the air, `K < 1` times smaller than the CSI, and the tail reconstructs
//! `V̂` at the AP.
//!
//! Modules:
//!
//! * [`config`] — compression levels and model architecture derivation,
//! * [`model`] — the split head/tail model, inference and feedback round trip,
//! * [`quantization`] — fixed-point quantization of the bottleneck activations
//!   for over-the-air transport,
//! * [`fused`] — the fused dequantize→tail kernel and its reusable
//!   [`TailScratch`] buffers (the AP serving layer's batched hot path),
//! * [`wire`] — the bit-packed wire format carrying a quantized payload at its
//!   true per-code width (shares `dot11-bfi`'s packing primitives),
//! * [`training`] — the supervised H → V training procedure of Section IV-D,
//! * [`bop`] — the Bottleneck Optimization Problem (Eq. 7) and the heuristic
//!   solver of Section IV-C,
//! * [`complexity`] — FLOP models and the 802.11 comparison ratios (Fig. 6),
//! * [`airtime`] — feedback-size models and ratios (Fig. 7).
//!
//! # Example: train a tiny SplitBeam model and run the feedback round trip
//!
//! ```
//! use splitbeam::config::{CompressionLevel, SplitBeamConfig};
//! use splitbeam::model::SplitBeamModel;
//! use splitbeam::training::{TrainingData, train_model, TrainingOptions};
//! use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
//! use wifi_phy::ofdm::{Bandwidth, MimoConfig};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let mimo = MimoConfig::symmetric(2, Bandwidth::Mhz20);
//! let config = SplitBeamConfig::new(mimo, CompressionLevel::OneEighth);
//!
//! // Build a very small training set straight from the channel simulator.
//! let model_channel = ChannelModel::from_config(EnvironmentProfile::e1(), &mimo);
//! let mut data = TrainingData::new(config.clone());
//! for _ in 0..24 {
//!     let snap = model_channel.sample(&mut rng);
//!     data.push_snapshot(&snap);
//! }
//! let (train, val) = data.split(0.75);
//! let options = TrainingOptions { epochs: 3, ..TrainingOptions::default() };
//! let (model, _history) = train_model(&config, &train, &val, &options, &mut rng);
//!
//! // Online use: station compresses, AP reconstructs.
//! let snap = model_channel.sample(&mut rng);
//! let feedback = model.feedback_for_user(&snap, 0).unwrap();
//! assert_eq!(feedback.len(), 56);
//! assert_eq!(feedback[0].shape(), (2, 1));
//! # let _ = model;
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod airtime;
pub mod bop;
pub mod complexity;
pub mod config;
pub mod fused;
pub mod model;
pub mod quantization;
pub mod training;
pub mod wire;

pub use config::{CompressionLevel, SplitBeamConfig};
pub use fused::{QuantizedTail, TailScratch, TailWeights};
pub use model::SplitBeamModel;

/// Errors produced by the SplitBeam pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitBeamError {
    /// Input dimensions do not match the model's configuration.
    DimensionMismatch(String),
    /// The heuristic BOP search exhausted every candidate without satisfying
    /// the constraints.
    ConstraintsUnsatisfiable(String),
    /// A wire frame failed its CRC-32 integrity check: the bytes were damaged
    /// in flight and must not be decoded into plausible garbage.
    CorruptFrame(String),
}

impl std::fmt::Display for SplitBeamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitBeamError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            SplitBeamError::ConstraintsUnsatisfiable(msg) => {
                write!(
                    f,
                    "bottleneck optimization constraints unsatisfiable: {msg}"
                )
            }
            SplitBeamError::CorruptFrame(msg) => write!(f, "corrupt wire frame: {msg}"),
        }
    }
}

impl std::error::Error for SplitBeamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(
            format!("{}", SplitBeamError::DimensionMismatch("448 vs 224".into())).contains("448")
        );
        assert!(
            format!("{}", SplitBeamError::ConstraintsUnsatisfiable("BER".into())).contains("BER")
        );
        assert!(format!("{}", SplitBeamError::CorruptFrame("CRC".into())).contains("corrupt"));
    }
}
