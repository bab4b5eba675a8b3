//! A minimal dense neural-network engine for the SplitBeam reproduction.
//!
//! The paper's models are small fully-connected networks (Table II lists
//! architectures such as `448-56-448` in our real-interleaved convention), so a
//! purpose-built engine is both sufficient and keeps the whole reproduction in
//! safe Rust with no external ML runtime:
//!
//! * [`tensor`] — a dense `f32` matrix with the handful of BLAS-like kernels
//!   needed for forward/backward passes,
//! * [`layer`] — fully-connected layers with ReLU/Tanh/identity activations,
//! * [`network`] — a sequential container with forward, backward and
//!   MAC/FLOP accounting,
//! * [`loss`] — the paper's normalized-L1 objective (Eq. 8) plus MSE/L1,
//! * [`optimizer`] — SGD (with momentum) and Adam, plus the step learning-rate
//!   schedule of Section IV-D,
//! * [`trainer`] — a mini-batch training loop with validation-best
//!   checkpointing, mirroring the paper's training procedure.
//!
//! # Example: fit a tiny network on a toy mapping
//!
//! ```
//! use neural::network::{Network, LayerSpec};
//! use neural::layer::Activation;
//! use neural::loss::Loss;
//! use neural::optimizer::{Optimizer, OptimizerKind};
//! use neural::trainer::{TrainConfig, Trainer};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let mut net = Network::new(&[
//!     LayerSpec::new(4, 8, Activation::Tanh),
//!     LayerSpec::new(8, 2, Activation::Identity),
//! ], &mut rng);
//! // Learn y = (sum(x), -sum(x)).
//! let data: Vec<(Vec<f32>, Vec<f32>)> = (0..64).map(|i| {
//!     let x: Vec<f32> = (0..4).map(|j| ((i * 7 + j * 3) % 5) as f32 / 5.0).collect();
//!     let s: f32 = x.iter().sum();
//!     (x, vec![s, -s])
//! }).collect();
//! let config = TrainConfig { epochs: 40, batch_size: 8, ..TrainConfig::default() };
//! let trainer = Trainer::new(config, Loss::Mse, OptimizerKind::Adam { learning_rate: 0.01 });
//! let history = trainer.fit(&mut net, &data, &data, &mut rng);
//! assert!(history.final_train_loss() < history.initial_train_loss());
//! ```

pub mod layer;
pub mod loss;
pub mod network;
pub mod optimizer;
pub mod quant;
pub mod tensor;
pub mod trainer;

pub use layer::{Activation, Dense, LayerOut, PackedDense};
pub use loss::Loss;
pub use network::{LayerSpec, Network};
pub use optimizer::{Optimizer, OptimizerKind};
pub use quant::{QuantScratch, QuantizedDense};
pub use tensor::Matrix;
pub use trainer::{TrainConfig, TrainHistory, Trainer};

/// Errors produced by the neural-network engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NeuralError {
    /// Input/output dimensions do not match the network architecture.
    DimensionMismatch(String),
    /// The training set was empty or otherwise unusable.
    EmptyDataset,
}

impl std::fmt::Display for NeuralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NeuralError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            NeuralError::EmptyDataset => write!(f, "dataset is empty"),
        }
    }
}

impl std::error::Error for NeuralError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(format!("{}", NeuralError::DimensionMismatch("4 vs 8".into())).contains("4 vs 8"));
        assert!(format!("{}", NeuralError::EmptyDataset).contains("empty"));
    }
}
