//! The split head/tail SplitBeam model.

use crate::config::SplitBeamConfig;
use crate::quantization::{
    dequantize_bottleneck, quantize_bottleneck, PayloadView, QuantizedFeedback,
};
use crate::{Refusal, SplitBeamError};
use mimo_math::kernel::packed::PackedWidth;
use mimo_math::CMatrix;
use neural::network::Network;
use neural::PackedDense;
use rand::Rng;
use std::sync::Arc;
use wifi_phy::channel::ChannelSnapshot;

/// A trained (or freshly initialized) SplitBeam model: the head network run by
/// the station and the tail network run by the access point.
///
/// A model's weights never change after construction, so every clone shares
/// all of them — both networks and the packed tail sit behind `Arc`s, and
/// `clone()` is three reference-count bumps. A server registering a model, a
/// driver holding it next to its server and a fleet handing it to eight APs
/// all read the one 12.7 MB copy (9.5 MB of it a head the AP never runs).
#[derive(Debug, Clone)]
pub struct SplitBeamModel {
    config: SplitBeamConfig,
    /// Shared between clones.
    head: Arc<Network>,
    /// Shared between clones.
    tail: Arc<Network>,
    /// The tail's layers panel-packed for the fused batched reconstruction
    /// ([`SplitBeamModel::reconstruct_quantized_batch_iter_into`]), built
    /// once at construction. Shared between clones. The head is not packed:
    /// its batch-1 product is bandwidth-bound and a second 9.5 MB copy would
    /// buy nothing.
    packed_tail: Arc<[PackedDense]>,
}

/// Models are equal when their configuration and weights are — compared by
/// value, so a retrained copy equals its original exactly when the numbers
/// do, whatever is shared; how the tail happens to be packed is derived
/// state and does not take part.
impl PartialEq for SplitBeamModel {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.head == other.head && self.tail == other.tail
    }
}

fn pack_tail(tail: &Network, width: PackedWidth) -> Arc<[PackedDense]> {
    tail.layers()
        .iter()
        .map(|layer| PackedDense::pack(layer, width))
        .collect()
}

impl SplitBeamModel {
    /// Creates a model with freshly initialized weights from a configuration.
    pub fn new(config: SplitBeamConfig, rng: &mut impl Rng) -> Self {
        let full = Network::new(&config.layer_specs(), rng);
        Self::from_full_network(config, full)
    }

    /// Splits an already-trained full network into head and tail according to
    /// the configuration's split point.
    ///
    /// # Panics
    /// Panics if the network architecture does not match the configuration.
    pub fn from_full_network(config: SplitBeamConfig, full: Network) -> Self {
        assert_eq!(full.input_dim(), config.input_dim(), "input width mismatch");
        assert_eq!(
            full.output_dim(),
            config.output_dim(),
            "output width mismatch"
        );
        let (head, tail) = full.split_at(config.split_index());
        let packed_tail = pack_tail(&tail, PackedWidth::detect());
        Self {
            config,
            head: Arc::new(head),
            tail: Arc::new(tail),
            packed_tail,
        }
    }

    /// This model with its tail re-packed for an explicit vector width — the
    /// seam the parity tests use to serve through the 256-bit arm on an
    /// AVX-512 host. Outputs do not depend on the width.
    pub fn with_tail_packing(mut self, width: PackedWidth) -> Self {
        self.packed_tail = pack_tail(&self.tail, width);
        self
    }

    /// The model configuration.
    pub fn config(&self) -> &SplitBeamConfig {
        &self.config
    }

    /// The head network (runs on the station).
    pub fn head(&self) -> &Network {
        &self.head
    }

    /// The tail network (runs on the access point).
    pub fn tail(&self) -> &Network {
        &self.tail
    }

    /// The tail's layers as packed at construction.
    pub(crate) fn packed_tail(&self) -> &[PackedDense] {
        &self.packed_tail
    }

    /// Width of the compressed representation transmitted over the air.
    pub fn bottleneck_dim(&self) -> usize {
        self.head.output_dim()
    }

    /// AP-side multiply-accumulate count per CSI tensor (the tail model).
    pub fn tail_macs(&self) -> u64 {
        self.tail.macs()
    }

    /// **Station side**: compresses a flattened CSI vector into the bottleneck
    /// representation `V'`.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when the input width is wrong.
    pub fn compress(&self, csi_real: &[f32]) -> Result<Vec<f32>, SplitBeamError> {
        predict(&self.head, csi_real)
    }

    /// **Station side**: compresses and quantizes the CSI into the over-the-air
    /// feedback payload.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when the input width is
    /// wrong or `bits_per_value` lies outside `1..=16` — the width is checked
    /// before the head runs.
    pub fn compress_quantized(
        &self,
        csi_real: &[f32],
        bits_per_value: u8,
    ) -> Result<QuantizedFeedback, SplitBeamError> {
        if !(1..=16).contains(&bits_per_value) {
            return Err(Refusal::BitWidth(bits_per_value).into());
        }
        let bottleneck = self.compress(csi_real)?;
        Ok(quantize_bottleneck(&bottleneck, bits_per_value))
    }

    /// **AP side**: reconstructs the flattened beamforming feedback from the
    /// bottleneck representation.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when the bottleneck width is wrong.
    pub fn reconstruct(&self, bottleneck: &[f32]) -> Result<Vec<f32>, SplitBeamError> {
        predict(&self.tail, bottleneck)
    }

    /// **AP side**: dequantizes a received payload and reconstructs the feedback.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when the payload width is wrong.
    pub fn reconstruct_quantized<'p>(
        &self,
        payload: impl Into<PayloadView<'p>>,
    ) -> Result<Vec<f32>, SplitBeamError> {
        self.reconstruct(&dequantize_bottleneck(payload))
    }

    /// Full station→AP inference: CSI vector in, flattened `V̂` out (no
    /// quantization; used during training and for upper-bound evaluations).
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when the input width is wrong.
    pub fn infer(&self, csi_real: &[f32]) -> Result<Vec<f32>, SplitBeamError> {
        let bottleneck = self.compress(csi_real)?;
        self.reconstruct(&bottleneck)
    }

    /// Converts a flattened (real-interleaved) feedback vector back into
    /// per-subcarrier `Nt x Nss` beamforming matrices, re-normalizing every
    /// column to unit norm (the beamforming matrix is unitary by construction,
    /// and the precoder expects unit-norm reported directions).
    pub fn feedback_to_matrices(&self, flat: &[f32]) -> Result<Vec<CMatrix>, SplitBeamError> {
        let nt = self.config.mimo.nt;
        let nss = self.config.mimo.nss;
        let subcarriers = self.config.mimo.subcarriers();
        let per_sc = 2 * nt * nss;
        if flat.len() != per_sc * subcarriers {
            let (got, want) = (flat.len(), per_sc * subcarriers);
            return Err(Refusal::Shape { got, want }.into());
        }
        let mut out = Vec::with_capacity(subcarriers);
        for s in 0..subcarriers {
            let chunk: Vec<f64> = flat[s * per_sc..(s + 1) * per_sc]
                .iter()
                .map(|&v| v as f64)
                .collect();
            let mut v = CMatrix::from_real_vec(nt, nss, &chunk);
            // Re-normalize columns; a zero column falls back to a canonical direction.
            for c in 0..nss {
                let norm: f64 = v.column(c).iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
                if norm > 1e-9 {
                    let normalized: Vec<_> = v.column(c).iter().map(|z| *z / norm).collect();
                    v.set_column(c, &normalized);
                } else {
                    let mut e = vec![mimo_math::Complex64::ZERO; nt];
                    e[c.min(nt - 1)] = mimo_math::Complex64::ONE;
                    v.set_column(c, &e);
                }
            }
            out.push(v);
        }
        Ok(out)
    }

    /// End-to-end convenience: computes the reconstructed per-subcarrier
    /// beamforming matrices for station `user` of a channel snapshot, i.e. what
    /// the AP would use after receiving this station's SplitBeam feedback.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when the snapshot's
    /// dimensions do not match the model configuration.
    pub fn feedback_for_user(
        &self,
        snapshot: &ChannelSnapshot,
        user: usize,
    ) -> Result<Vec<CMatrix>, SplitBeamError> {
        let csi: Vec<f32> = snapshot
            .csi_real_vector(user)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let flat = self.infer(&csi)?;
        self.feedback_to_matrices(&flat)
    }

    /// Like [`SplitBeamModel::feedback_for_user`] but through the quantized
    /// over-the-air path with `bits_per_value` bits per bottleneck value.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when dimensions do not match.
    pub fn feedback_for_user_quantized(
        &self,
        snapshot: &ChannelSnapshot,
        user: usize,
        bits_per_value: u8,
    ) -> Result<Vec<CMatrix>, SplitBeamError> {
        let csi: Vec<f32> = snapshot
            .csi_real_vector(user)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let payload = self.compress_quantized(&csi, bits_per_value)?;
        let flat = self.reconstruct_quantized(&payload)?;
        self.feedback_to_matrices(&flat)
    }
}

/// `net` on one input row; the one way it fails is a width other than its
/// input's.
fn predict(net: &Network, input: &[f32]) -> Result<Vec<f32>, SplitBeamError> {
    let (got, want) = (input.len(), net.input_dim());
    net.predict(input)
        .map_err(|_| Refusal::Shape { got, want }.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressionLevel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};

    fn small_config() -> SplitBeamConfig {
        SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneEighth,
        )
    }

    #[test]
    fn dimensions_follow_config() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = SplitBeamModel::new(small_config(), &mut rng);
        assert_eq!(model.head().input_dim(), 448);
        assert_eq!(model.bottleneck_dim(), 56);
        assert_eq!(model.tail().output_dim(), 224);
        assert_eq!(model.tail_macs(), 56 * 224);
    }

    #[test]
    fn wrong_input_width_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = SplitBeamModel::new(small_config(), &mut rng);
        assert!(matches!(
            model.compress(&[0.0; 10]),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
        assert!(matches!(
            model.reconstruct(&[0.0; 10]),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn feedback_matrices_are_unit_norm() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = SplitBeamModel::new(small_config(), &mut rng);
        let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 2, 1);
        let snap = channel.sample(&mut rng);
        let feedback = model.feedback_for_user(&snap, 0).unwrap();
        assert_eq!(feedback.len(), 56);
        for v in &feedback {
            assert_eq!(v.shape(), (2, 1));
            let norm: f64 = v.column(0).iter().map(|z| z.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn quantized_path_close_to_unquantized() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let model = SplitBeamModel::new(small_config(), &mut rng);
        let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 2, 1);
        let snap = channel.sample(&mut rng);
        let exact = model.feedback_for_user(&snap, 0).unwrap();
        let quantized = model.feedback_for_user_quantized(&snap, 0, 12).unwrap();
        let mut max_err: f64 = 0.0;
        for (a, b) in exact.iter().zip(quantized.iter()) {
            max_err = max_err.max(a.sub(b).max_abs());
        }
        assert!(
            max_err < 0.05,
            "12-bit quantization error {max_err} too large"
        );
    }

    #[test]
    fn feedback_length_mismatch_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let model = SplitBeamModel::new(small_config(), &mut rng);
        assert!(matches!(
            model.feedback_to_matrices(&[0.0; 7]),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn zero_feedback_falls_back_to_canonical_directions() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let model = SplitBeamModel::new(small_config(), &mut rng);
        let flat = vec![0.0f32; 224];
        let matrices = model.feedback_to_matrices(&flat).unwrap();
        for v in matrices {
            let norm: f64 = v.column(0).iter().map(|z| z.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    /// A width the wire cannot carry is refused as the encoder refuses it,
    /// not by a panic in the quantiser after the head has run.
    #[test]
    fn compress_quantized_refuses_an_unencodable_width() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let model = SplitBeamModel::new(small_config(), &mut rng);
        let csi = vec![0.25f32; 448];
        for bits in [0u8, 17] {
            assert!(
                matches!(
                    model.compress_quantized(&csi, bits),
                    Err(SplitBeamError::DimensionMismatch(_))
                ),
                "bits_per_value {bits}"
            );
        }
        assert!(model.compress_quantized(&csi, 16).is_ok());
    }

    #[test]
    fn deeper_config_has_more_tail_layers() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let deeper = small_config().with_extra_tail_layer();
        let model = SplitBeamModel::new(deeper, &mut rng);
        assert_eq!(model.head().layers().len(), 1);
        assert_eq!(model.tail().layers().len(), 2);
    }
}
