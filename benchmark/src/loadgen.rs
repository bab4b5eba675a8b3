//! The load generator: everything a workload builds in set-up, before any
//! timing. The product code receives only what is generated here.
//!
//! Traffic (channels, and through them wire frames) comes from the `--seed`
//! of the run. The model does not: it is part of the configuration under
//! test, so it is trained from fixed seeds and two runs with different
//! traffic seeds serve the same weights.

use mimo_math::CMatrix;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam::training::{train_model, TrainingData, TrainingOptions};
use splitbeam_datasets::catalog::dataset_for;
use splitbeam_datasets::generator::{generate_dataset, GeneratorOptions};
use splitbeam_hwsim::{AcceleratorModel, DelayBudget, SharedMedium};
use wifi_phy::channel::{ChannelModel, ChannelSnapshot, EnvironmentProfile};
use wifi_phy::link::{simulate_mu_mimo_ber, LinkConfig, LinkReport};
use wifi_phy::ofdm::Bandwidth;
use wifi_phy::sounding::SoundingConfig;

/// Quantizer width every workload's stations announce.
pub const BITS_PER_VALUE: u8 = 4;

/// SNR of the link check behind `link_ber`.
pub const LINK_SNR_DB: f64 = 18.0;

const DATASET_SEED: u64 = 100;
const TRAINING_SEED: u64 = 7;

/// Trains the `n x n` model at `bandwidth` and 1/8 compression on the E1
/// catalogue entry, from fixed seeds.
pub fn train(n: usize, bandwidth: Bandwidth, samples: usize, epochs: usize) -> SplitBeamModel {
    let spec = dataset_for(n, bandwidth, "E1").expect("E1 is in the catalogue for every shape");
    let mut options = GeneratorOptions::quick(samples, DATASET_SEED + u64::from(spec.id.0));
    // As the figure binaries do: skip the moving median on wide channels,
    // where it dominates generation time.
    if spec.mimo.subcarriers() > 242 {
        options.capture.median_window = 1;
    }
    let generated =
        generate_dataset(&spec, &options).expect("catalogue specs always generate a dataset");
    let config = SplitBeamConfig::new(spec.mimo, CompressionLevel::OneEighth);
    let (train_snaps, val_snaps, _) = generated.split_train_val_test();
    let collect = |snaps: &[ChannelSnapshot]| {
        let mut data = TrainingData::new(config.clone());
        for snap in snaps {
            data.push_snapshot(snap);
        }
        data
    };
    let (train, val) = (collect(train_snaps), collect(val_snaps));
    let options = TrainingOptions {
        epochs,
        ..TrainingOptions::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(TRAINING_SEED);
    train_model(
        &config,
        train.examples(),
        val.examples(),
        &options,
        &mut rng,
    )
    .0
}

/// One station's report for one round: the wire bytes the AP receives and the
/// true channel they were computed from (kept for the link check).
pub struct Frame {
    pub wire: Vec<u8>,
    pub csi: Vec<CMatrix>,
}

/// The single-user channel a station of `model`'s shape estimates.
pub fn station_channel(model: &SplitBeamModel) -> ChannelModel {
    let mimo = &model.config().mimo;
    ChannelModel::with_rx_antennas(
        EnvironmentProfile::e1(),
        mimo.bandwidth,
        mimo.nt,
        mimo.nr,
        1,
        mimo.nss,
    )
}

pub fn csi_vector(snapshot: &ChannelSnapshot, user: usize) -> Vec<f32> {
    snapshot
        .csi_real_vector(user)
        .into_iter()
        .map(|v| v as f32)
        .collect()
}

/// Station side of one report: estimate → head → quantize → wire-encode.
pub fn station_frame(model: &SplitBeamModel, channel: &ChannelModel, rng: &mut impl Rng) -> Frame {
    let snapshot = channel.sample(rng);
    let payload = model
        .compress_quantized(&csi_vector(&snapshot, 0), BITS_PER_VALUE)
        .expect("the model accepts CSI of its own shape");
    Frame {
        wire: splitbeam::wire::encode_feedback(&payload).expect("a fresh payload encodes"),
        csi: snapshot.csi(0).to_vec(),
    }
}

/// `rounds` sounding rounds of `stations` independent reports each.
pub fn generate_rounds(
    model: &SplitBeamModel,
    stations: usize,
    rounds: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<Frame>> {
    let channel = station_channel(model);
    (0..rounds)
        .map(|_| {
            (0..stations)
                .map(|_| station_frame(model, &channel, rng))
                .collect()
        })
        .collect()
}

/// Accumulates the MU-MIMO link check over served feedback: stations are
/// grouped `Nt` at a time, each group's reconstructed `V̂` drives the
/// zero-forcing precoder, and the payload crosses the stations' true channels.
pub struct LinkCheck<'m> {
    model: &'m SplitBeamModel,
    rng: ChaCha8Rng,
    report: LinkReport,
}

impl<'m> LinkCheck<'m> {
    pub fn new(model: &'m SplitBeamModel, seed: u64) -> Self {
        Self {
            model,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x11c4_b3e2),
            report: LinkReport::empty(),
        }
    }

    /// Adds `stations` — `(flat V̂ as served, true CSI)` pairs — in groups of
    /// `Nt / Nss`; a trailing group of one station is skipped (no inter-user
    /// interference to measure).
    pub fn add(&mut self, stations: &[(&[f32], &[CMatrix])]) -> Result<(), String> {
        let mimo = &self.model.config().mimo;
        let per_group = (mimo.nt / mimo.nss.max(1)).max(1);
        let link = LinkConfig {
            snr_db: LINK_SNR_DB,
            ..LinkConfig::default()
        };
        for group in stations.chunks(per_group).filter(|g| g.len() >= 2) {
            let feedback = group
                .iter()
                .map(|(flat, _)| self.model.feedback_to_matrices(flat))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("served feedback has the wrong shape: {e}"))?;
            let per_user = group.iter().map(|(_, csi)| csi.to_vec()).collect();
            let snapshot = ChannelSnapshot::from_matrices(mimo.bandwidth, mimo.nss, per_user);
            let report = simulate_mu_mimo_ber(&snapshot, &feedback, &link, &mut self.rng)
                .map_err(|e| format!("link simulation rejected a group: {e}"))?;
            self.report.merge(&report);
        }
        Ok(())
    }

    pub fn ber(&self) -> f64 {
        self.report.ber()
    }
}

/// Bits of the 802.11 compressed beamforming report (full `Nt x Nt` V, high
/// angle resolution) for one station's CSI — the size SplitBeam's frame is
/// compared against.
pub fn dot11_report_bits(csi: &[CMatrix]) -> Result<usize, String> {
    let nt = csi.first().map_or(0, CMatrix::cols);
    dot11_bfi::engine::FeedbackEngine::new(nt, dot11_bfi::quantize::AngleResolution::High)
        .compute_feedback_serial(csi)
        .map(|report| report.size_bits())
        .map_err(|e| format!("802.11 report failed: {e}"))
}

/// Feedback rate of the shared medium for `bandwidth`, in Mbit/s (96 at
/// 80 MHz): the rate the sounding model assumes for feedback frames.
pub fn medium_rate_mbps(bandwidth: Bandwidth) -> f64 {
    SoundingConfig::new(bandwidth, 1).feedback_rate_mbps
}

/// Share of the Eq. 7d budget one uncontended report of `config` uses: head
/// and tail latency on the accelerator model plus the airtime of a
/// `frame_bytes` frame, with no queueing. Workloads that run no virtual clock
/// report this for both delay percentiles.
pub fn uncontended_budget_share(config: &SplitBeamConfig, frame_bytes: usize) -> f64 {
    let compute = AcceleratorModel::zynq_200mhz(config.mimo.nt, config.mimo.nr)
        .split_latency_from_config(config);
    let air_ns = SharedMedium::new(medium_rate_mbps(config.mimo.bandwidth))
        .frame_airtime_ns(frame_bytes * 8);
    (compute.head_s + compute.tail_s + air_ns as f64 * 1e-9) / DelayBudget::default().max_delay_s
}
