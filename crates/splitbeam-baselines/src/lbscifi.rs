//! LB-SciFi: the autoencoder-based feedback-compression baseline.
//!
//! LB-SciFi (Sangdeh et al., ICNP 2020) compresses the *Givens angles* produced
//! by the standard 802.11 pipeline with an autoencoder trained in an
//! unsupervised manner. The station therefore still computes the SVD and the
//! Givens decomposition before running the encoder — which is exactly the extra
//! computational load SplitBeam eliminates, and the property the paper's
//! comparison plots (Figs. 10 and 12) exercise. The original implementation is
//! not public, so this module reproduces the published description: a dense
//! encoder/decoder pair over the normalized angle vector with a latent layer
//! sized to match SplitBeam's compression level `K`.

use crate::BaselineError;
use dot11_bfi::complexity::dot11_sta_flops;
use dot11_bfi::givens::{total_angles, GivensAngles};
use mimo_math::svd::Svd;
use mimo_math::CMatrix;
use neural::layer::Activation;
use neural::loss::Loss;
use neural::network::{LayerSpec, Network};
use neural::optimizer::OptimizerKind;
use neural::trainer::{Example, TrainConfig, Trainer};
use rand::Rng;
use wifi_phy::channel::ChannelSnapshot;
use wifi_phy::ofdm::MimoConfig;

/// Configuration of an LB-SciFi autoencoder.
#[derive(Debug, Clone, PartialEq)]
pub struct LbSciFiConfig {
    /// The MU-MIMO configuration the autoencoder is trained for.
    pub mimo: MimoConfig,
    /// Latent compression ratio (matched to SplitBeam's `K` in the comparisons).
    pub compression: f64,
}

impl LbSciFiConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if `compression` is not in `(0, 1]`.
    pub fn new(mimo: MimoConfig, compression: f64) -> Self {
        assert!(
            compression > 0.0 && compression <= 1.0,
            "compression must be in (0, 1]"
        );
        Self { mimo, compression }
    }

    /// Width of the angle vector fed to the encoder: all Givens angles of all
    /// subcarriers.
    pub fn angle_dim(&self) -> usize {
        total_angles(self.mimo.nt, self.mimo.nss) * self.mimo.subcarriers()
    }

    /// Latent (code) width.
    pub fn latent_dim(&self) -> usize {
        ((self.angle_dim() as f64 * self.compression).round() as usize).max(1)
    }

    /// Station-side FLOPs: the full 802.11 pipeline (SVD + Givens) **plus** the
    /// one-layer encoder, `angle_dim x latent_dim` MACs — LB-SciFi's defining
    /// computational drawback.
    pub fn sta_flops(&self) -> u64 {
        dot11_sta_flops(self.mimo.nt, self.mimo.nr, self.mimo.subcarriers())
            + (self.angle_dim() * self.latent_dim()) as u64
    }
}

/// A trained LB-SciFi autoencoder: encoder at the station, decoder at the AP.
#[derive(Debug, Clone, PartialEq)]
pub struct LbSciFiModel {
    config: LbSciFiConfig,
    encoder: Network,
    decoder: Network,
}

/// Normalizes a Givens angle vector to roughly `[-1, 1]` for the autoencoder.
fn normalize_angles(angles: &[GivensAngles]) -> Vec<f32> {
    let mut out = Vec::new();
    for a in angles {
        for &phi in &a.phi {
            out.push((phi / std::f64::consts::PI - 1.0) as f32);
        }
        for &psi in &a.psi {
            out.push((psi / std::f64::consts::FRAC_PI_2 * 2.0 - 1.0) as f32);
        }
    }
    out
}

/// Inverse of [`normalize_angles`] for one configuration.
fn denormalize_angles(
    flat: &[f32],
    nt: usize,
    nss: usize,
    subcarriers: usize,
) -> Vec<GivensAngles> {
    let pairs = dot11_bfi::givens::angle_pairs(nt, nss);
    let per_sc = 2 * pairs;
    let mut out = Vec::with_capacity(subcarriers);
    for s in 0..subcarriers {
        let chunk = &flat[s * per_sc..(s + 1) * per_sc];
        let phi = chunk[..pairs]
            .iter()
            .map(|&v| {
                ((v as f64 + 1.0) * std::f64::consts::PI).rem_euclid(2.0 * std::f64::consts::PI)
            })
            .collect();
        let psi = chunk[pairs..]
            .iter()
            .map(|&v| {
                (((v as f64 + 1.0) / 2.0) * std::f64::consts::FRAC_PI_2)
                    .clamp(0.0, std::f64::consts::FRAC_PI_2)
            })
            .collect();
        out.push(GivensAngles { nt, nss, phi, psi });
    }
    out
}

/// Computes the normalized angle vector of one station's CSI (the autoencoder's
/// input): SVD → beamforming matrix → Givens decomposition → normalization.
///
/// # Errors
/// Returns [`BaselineError::Pipeline`] if the Givens decomposition fails.
pub fn angle_vector_for_user(
    snapshot: &ChannelSnapshot,
    user: usize,
) -> Result<Vec<f32>, BaselineError> {
    let mut angles = Vec::with_capacity(snapshot.subcarriers());
    for h in snapshot.csi(user) {
        let v = Svd::compute(h).beamforming_matrix(snapshot.nss());
        angles
            .push(GivensAngles::decompose(&v).map_err(|e| BaselineError::Pipeline(e.to_string()))?);
    }
    Ok(normalize_angles(&angles))
}

impl LbSciFiModel {
    /// Creates an untrained autoencoder.
    pub fn new(config: LbSciFiConfig, rng: &mut impl Rng) -> Self {
        let encoder = Network::new(
            &[LayerSpec::new(
                config.angle_dim(),
                config.latent_dim(),
                Activation::Tanh,
            )],
            rng,
        );
        let decoder = Network::new(
            &[LayerSpec::new(
                config.latent_dim(),
                config.angle_dim(),
                Activation::Identity,
            )],
            rng,
        );
        Self {
            config,
            encoder,
            decoder,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LbSciFiConfig {
        &self.config
    }

    /// Trains the autoencoder (unsupervised: targets are the inputs) on angle
    /// vectors; `epochs` is exposed so tests and benches can stay fast.
    pub fn train(&mut self, angle_vectors: &[Vec<f32>], epochs: usize, rng: &mut impl Rng) {
        let examples: Vec<Example> = angle_vectors
            .iter()
            .map(|v| (v.clone(), v.clone()))
            .collect();
        if examples.is_empty() {
            return;
        }
        // Join encoder and decoder for end-to-end training, then split back.
        let mut layers = self.encoder.layers().to_vec();
        layers.extend(self.decoder.layers().iter().cloned());
        let mut full = Network::from_layers(layers);
        let trainer = Trainer::new(
            TrainConfig {
                epochs,
                batch_size: 16,
                ..TrainConfig::default()
            },
            Loss::Mse,
            OptimizerKind::Adam {
                learning_rate: 1e-3,
            },
        );
        let split = examples.len() * 9 / 10;
        let (train, val) = examples.split_at(split.max(1).min(examples.len()));
        let val = if val.is_empty() { train } else { val };
        trainer.fit(&mut full, train, val, rng);
        let (encoder, decoder) = full.split_at(self.encoder.layers().len());
        self.encoder = encoder;
        self.decoder = decoder;
    }

    /// Feedback size in bits: the latent code at 16 bits per value.
    pub fn feedback_bits(&self) -> usize {
        self.config.latent_dim() * 16
    }

    /// Runs the full LB-SciFi round trip for one station of a snapshot and
    /// returns the beamforming matrices the AP would reconstruct.
    ///
    /// # Errors
    /// Returns [`BaselineError`] if the 802.11 pipeline or the autoencoder
    /// dimensions fail.
    pub fn feedback_for_user(
        &self,
        snapshot: &ChannelSnapshot,
        user: usize,
    ) -> Result<Vec<CMatrix>, BaselineError> {
        let angle_vector = angle_vector_for_user(snapshot, user)?;
        if angle_vector.len() != self.config.angle_dim() {
            return Err(BaselineError::DimensionMismatch(format!(
                "angle vector length {} does not match configuration {}",
                angle_vector.len(),
                self.config.angle_dim()
            )));
        }
        let code = self
            .encoder
            .predict(&angle_vector)
            .map_err(|e| BaselineError::DimensionMismatch(e.to_string()))?;
        let decoded = self
            .decoder
            .predict(&code)
            .map_err(|e| BaselineError::DimensionMismatch(e.to_string()))?;
        let angles = denormalize_angles(
            &decoded,
            self.config.mimo.nt,
            self.config.mimo.nss,
            self.config.mimo.subcarriers(),
        );
        Ok(angles.iter().map(GivensAngles::reconstruct).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
    use wifi_phy::ofdm::Bandwidth;

    fn config() -> LbSciFiConfig {
        LbSciFiConfig::new(MimoConfig::symmetric(2, Bandwidth::Mhz20), 0.125)
    }

    #[test]
    fn dimensions() {
        let c = config();
        // 2x2, Nss = 1: 2 angles per subcarrier x 56 subcarriers = 112.
        assert_eq!(c.angle_dim(), 112);
        assert_eq!(c.latent_dim(), 14);
    }

    #[test]
    fn angle_normalization_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 2, 1);
        let snap = channel.sample(&mut rng);
        let vec = angle_vector_for_user(&snap, 0).unwrap();
        assert_eq!(vec.len(), 112);
        assert!(vec.iter().all(|v| v.abs() <= 1.0 + 1e-5));
        let angles = denormalize_angles(&vec, 2, 1, 56);
        assert_eq!(angles.len(), 56);
        // Reconstructed matrices must stay unit norm.
        for a in &angles {
            assert!(a.reconstruct().is_unitary_columns(1e-6));
        }
    }

    #[test]
    fn sta_cost_exceeds_dot11_alone() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = LbSciFiModel::new(config(), &mut rng);
        let dot11_only = dot11_sta_flops(2, 2, 56);
        assert_eq!(config().sta_flops(), dot11_only + model.encoder.macs());
        assert_eq!(model.feedback_bits(), 14 * 16);
    }

    #[test]
    fn training_improves_reconstruction() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 2, 1);
        let vectors: Vec<Vec<f32>> = (0..40)
            .map(|_| {
                let snap = channel.sample(&mut rng);
                angle_vector_for_user(&snap, 0).unwrap()
            })
            .collect();
        let mut model = LbSciFiModel::new(config(), &mut rng);
        let mse = |m: &LbSciFiModel| -> f32 {
            vectors
                .iter()
                .map(|v| {
                    let code = m.encoder.predict(v).unwrap();
                    let out = m.decoder.predict(&code).unwrap();
                    v.iter()
                        .zip(out.iter())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f32>()
                        / v.len() as f32
                })
                .sum::<f32>()
                / vectors.len() as f32
        };
        let before = mse(&model);
        model.train(&vectors, 6, &mut rng);
        let after = mse(&model);
        assert!(
            after < before,
            "training should reduce AE error ({after} vs {before})"
        );
    }

    #[test]
    fn feedback_round_trip_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 2, 1);
        let snap = channel.sample(&mut rng);
        let model = LbSciFiModel::new(config(), &mut rng);
        let feedback = model.feedback_for_user(&snap, 1).unwrap();
        assert_eq!(feedback.len(), 56);
        assert_eq!(feedback[0].shape(), (2, 1));
        for v in &feedback {
            assert!(v.is_unitary_columns(1e-6));
        }
    }

    #[test]
    #[should_panic]
    fn invalid_compression_panics() {
        let _ = LbSciFiConfig::new(MimoConfig::symmetric(2, Bandwidth::Mhz20), 0.0);
    }
}
