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
    /// Input dimensions, a frame's header or a payload do not match the
    /// model's configuration or the wire format: why, as a [`Refusal`].
    DimensionMismatch(Refusal),
    /// The heuristic BOP search exhausted every candidate without satisfying
    /// the constraints.
    ConstraintsUnsatisfiable(String),
    /// A wire frame failed its CRC-32 integrity check: the bytes were damaged
    /// in flight and must not be decoded into plausible garbage. Carries the
    /// [`Refusal::Crc`] pair.
    CorruptFrame(Refusal),
}

impl From<Refusal> for SplitBeamError {
    fn from(why: Refusal) -> Self {
        SplitBeamError::DimensionMismatch(why)
    }
}

impl std::fmt::Display for SplitBeamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitBeamError::DimensionMismatch(why) => write!(f, "dimension mismatch: {why}"),
            SplitBeamError::ConstraintsUnsatisfiable(msg) => {
                write!(
                    f,
                    "bottleneck optimization constraints unsatisfiable: {msg}"
                )
            }
            SplitBeamError::CorruptFrame(why) => write!(f, "corrupt wire frame: {why}"),
        }
    }
}

impl std::error::Error for SplitBeamError {}

/// Why a frame, a payload or an input was refused: a value, built where the
/// check fails and formatted only when someone prints it, so refusing
/// hostile traffic allocates nothing. `BitWidth`, `Range` and `Length` name
/// a header field and the value it held.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Refusal {
    /// The frame is shorter than the v2 header plus trailer.
    Truncated { len: usize, floor: usize },
    /// The frame opens with an octet that is not [`wire::WIRE_VERSION`].
    Version(u8),
    /// A quantizer width outside `1..=16`, or not the station's.
    BitWidth(u8),
    /// A quantization range with a non-finite end.
    Range { min: f32, max: f32 },
    /// A frame length other than its declared code count and width make.
    Length { len: usize, count: usize, bits: u8 },
    /// A code past its quantizer width.
    Code { code: u16, bits: u8 },
    /// A payload's code count against the model's bottleneck width.
    CodeCount { got: usize, want: usize },
    /// The CRC-32 trailer disagrees with the frame's contents.
    Crc { stored: u32, computed: u32 },
    /// An input, output or batch of the wrong size. An empty batch reads
    /// `got: 0, want: 1`; one whose iterator runs long, `got: want + 1`.
    Shape { got: usize, want: usize },
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Refusal::Truncated { len, floor } => write!(
                f,
                "wire frame of {len} bytes is shorter than the {floor}-byte v2 header+trailer"
            ),
            Refusal::Version(octet) => write!(f, "unknown wire frame version octet {octet:#04x}"),
            Refusal::BitWidth(bits) => write!(f, "invalid bits_per_value {bits}"),
            Refusal::Range { min, max } => write!(f, "non-finite quantization range {min}..{max}"),
            Refusal::Length { len, count, bits } => write!(
                f,
                "wire frame is {len} bytes, header declares {count} codes x {bits} bits = {} bytes",
                wire::encoded_len(count, bits)
            ),
            Refusal::Code { code, bits } => write!(f, "code {code} does not fit {bits} bits"),
            Refusal::CodeCount { got, want } => {
                write!(f, "payload carries {got} codes, bottleneck width is {want}")
            }
            Refusal::Crc { stored, computed } => write!(
                f,
                "CRC-32 mismatch: trailer {stored:#010x}, contents {computed:#010x}"
            ),
            Refusal::Shape { got, want } => write!(f, "got {got} values, want {want}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let shape = SplitBeamError::DimensionMismatch(Refusal::Shape {
            got: 448,
            want: 224,
        });
        assert!(format!("{shape}").contains("448"));
        assert!(
            format!("{}", SplitBeamError::ConstraintsUnsatisfiable("BER".into())).contains("BER")
        );
        let crc = Refusal::Crc {
            stored: 1,
            computed: 2,
        };
        assert!(format!("{}", SplitBeamError::CorruptFrame(crc)).contains("corrupt"));
    }
}
