//! `station_report`: the station side alone, per CSI snapshot at 3x3/80 MHz —
//! SplitBeam's head + quantizer + wire encoder. It bypasses `splitbeam-serve`
//! and `splitbeam-hwsim` entirely, so every serving change predicts no
//! movement here.
//!
//! The traced slice also computes the 802.11 report (SVD, Givens, quantize,
//! pack) for the same snapshots, alternating with SplitBeam's: the paper's
//! headline station-compute comparison, reported per layer.

use super::{
    close, open, timed, training_size, Counters, LayerInputs, Ops, Quality, SetupTimes, Workload,
};
use crate::host::RefShape;
use crate::loadgen::{self, LinkCheck, BITS_PER_VALUE};
use crate::spans::Recorder;
use dot11_bfi::engine::FeedbackEngine;
use dot11_bfi::quantize::AngleResolution;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::model::SplitBeamModel;
use splitbeam::wire::{decode_feedback, encode_feedback};
use std::hint::black_box;
use wifi_phy::channel::{ChannelModel, ChannelSnapshot, EnvironmentProfile};
use wifi_phy::ofdm::Bandwidth;

/// Snapshots the link check precodes over (three reports each).
const LINK_SNAPSHOTS: usize = 24;

pub struct StationReport {
    model: SplitBeamModel,
    /// Pre-sampled channels; each holds one CSI matrix set per user.
    snapshots: Vec<ChannelSnapshot>,
    /// One head input per (snapshot, user), in snapshot order.
    inputs: Vec<Vec<f32>>,
    /// The wire frames of the first inputs, for the isolated layer replays.
    sample_frames: Vec<Vec<u8>>,
    dot11: FeedbackEngine,
    reports_per_slice: usize,
    cursor: usize,
    reports: u64,
    seed: u64,
    setup: SetupTimes,
    total: Ops,
}

impl StationReport {
    pub fn build(seed: u64, smoke: bool) -> Result<Self, String> {
        let (snapshot_count, reports_per_slice) = if smoke { (8, 12) } else { (170, 500) };
        let (samples, epochs) = training_size(smoke);
        let (model, train_s) = timed(|| loadgen::train(3, Bandwidth::Mhz80, samples, epochs));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ((snapshots, inputs), traffic_gen_s) = timed(|| {
            let channel = ChannelModel::from_config(EnvironmentProfile::e1(), &model.config().mimo);
            let snapshots: Vec<ChannelSnapshot> = (0..snapshot_count)
                .map(|_| channel.sample(&mut rng))
                .collect();
            let inputs = snapshots
                .iter()
                .flat_map(|snap| (0..snap.num_users()).map(|user| loadgen::csi_vector(snap, user)))
                .collect::<Vec<_>>();
            (snapshots, inputs)
        });
        let mut workload = Self {
            dot11: FeedbackEngine::new(model.config().mimo.nt, AngleResolution::High),
            model,
            snapshots,
            inputs,
            sample_frames: Vec::new(),
            reports_per_slice,
            cursor: 0,
            reports: 0,
            seed,
            setup: SetupTimes {
                train_s,
                traffic_gen_s,
                register_s: 0.0,
                tail_bind_s: 0.0,
            },
            total: Ops::default(),
        };
        // First reports belong to set-up; their frames feed the layer replays.
        for index in 0..workload.inputs.len().min(64) {
            let frame = workload.report(index, &mut None)?;
            workload.sample_frames.push(frame);
        }
        Ok(workload)
    }

    /// One SplitBeam report for input `index`: head → quantize → wire-encode.
    fn report(&mut self, index: usize, rec: &mut Option<&mut Recorder>) -> Result<Vec<u8>, String> {
        let id = self.reports;
        self.reports += 1;
        let span = open(rec, "report", id);
        let head = open(rec, "head_quantize", id);
        let payload = self
            .model
            .compress_quantized(black_box(&self.inputs[index]), BITS_PER_VALUE);
        close(rec, head);
        let encoding = open(rec, "wire_encode", id);
        let frame = payload
            .as_ref()
            .map_err(|e| format!("head rejected its own CSI shape: {e}"))
            .and_then(|p| encode_feedback(p).map_err(|e| format!("frame does not encode: {e}")));
        close(rec, encoding);
        close(rec, span);
        frame
    }

    /// The CSI matrices of input `index` (snapshot-major, user-minor).
    fn csi_of(&self, index: usize) -> &[mimo_math::CMatrix] {
        let users = self.snapshots[0].num_users();
        self.snapshots[index / users].csi(index % users)
    }
}

impl Workload for StationReport {
    fn slice(&mut self, mut rec: Option<&mut Recorder>) -> Ops {
        let mut ops = Ops::default();
        for _ in 0..self.reports_per_slice {
            self.cursor = (self.cursor + 1) % self.inputs.len();
            ops.attempted += 1;
            match self.report(self.cursor, &mut rec) {
                Ok(frame) => {
                    black_box(frame);
                }
                Err(_) => ops.failed += 1,
            }
            if rec.is_some() {
                let id = self.reports;
                let span = open(&mut rec, "dot11_report", id);
                let report = self.dot11.compute_feedback_serial(self.csi_of(self.cursor));
                close(&mut rec, span);
                black_box(report.is_ok());
            }
        }
        self.total.add(ops);
        ops
    }

    fn check(&mut self) -> Result<Quality, String> {
        if self.total.failed != 0 {
            return Err(format!(
                "{} reports failed while measuring",
                self.total.failed
            ));
        }
        // Every frame decodes back to the payload it was encoded from, and
        // every 802.11 report unpacks to one angle set per subcarrier.
        let mut dot11_bits = 0;
        for index in 0..self.inputs.len() {
            let payload = self
                .model
                .compress_quantized(&self.inputs[index], BITS_PER_VALUE)
                .map_err(|e| format!("input {index}: {e}"))?;
            let frame = encode_feedback(&payload).map_err(|e| format!("input {index}: {e}"))?;
            if decode_feedback(&frame).as_ref() != Ok(&payload) {
                return Err(format!(
                    "input {index}: frame does not decode to its payload"
                ));
            }
            let csi = self.csi_of(index);
            let report = self
                .dot11
                .compute_feedback_serial(csi)
                .map_err(|e| format!("input {index}: 802.11 report failed: {e}"))?;
            let angles = report
                .unpack()
                .map_err(|e| format!("input {index}: 802.11 report does not unpack: {e}"))?;
            if angles.len() != csi.len() {
                return Err(format!("input {index}: 802.11 report lost subcarriers"));
            }
            dot11_bits = report.size_bits();
        }
        // Link check: the three users of a snapshot form one MU-MIMO group.
        let mut link = LinkCheck::new(&self.model, self.seed);
        let users = self.snapshots[0].num_users();
        for (s, snapshot) in self.snapshots.iter().take(LINK_SNAPSHOTS).enumerate() {
            let flat: Vec<Vec<f32>> = (0..users)
                .map(|user| {
                    let payload = self
                        .model
                        .compress_quantized(&self.inputs[s * users + user], BITS_PER_VALUE)?;
                    self.model.reconstruct_quantized(&payload)
                })
                .collect::<Result<_, _>>()
                .map_err(|e| format!("snapshot {s}: {e}"))?;
            let group: Vec<_> = (0..users)
                .map(|user| (flat[user].as_slice(), snapshot.csi(user)))
                .collect();
            link.add(&group)?;
        }
        let frame_bytes = self.sample_frames[0].len();
        let share = loadgen::uncontended_budget_share(self.model.config(), frame_bytes);
        Ok(Quality {
            deadline_hit_rate: self.total.served() as f64 / self.total.attempted.max(1) as f64,
            eq7d_p50_share: share,
            eq7d_p99_share: share,
            link_ber: link.ber(),
            feedback_bits: (frame_bytes * 8) as f64,
            dot11_feedback_bits: dot11_bits as f64,
        })
    }

    fn setup_times(&self) -> SetupTimes {
        self.setup
    }

    fn counters(&self) -> Counters {
        Counters::default()
    }

    fn layer_inputs(&self) -> LayerInputs<'_> {
        LayerInputs {
            model: &self.model,
            frames: self.sample_frames.iter().map(Vec::as_slice).collect(),
            csi: (0..self.sample_frames.len())
                .map(|i| self.csi_of(i))
                .collect(),
        }
    }

    fn stages(&self) -> &'static [&'static str] {
        &[
            "splitbeam.head_quantize_ns_per_report",
            "splitbeam.wire_encode_ns_per_report",
        ]
    }

    fn reference_shape(&self) -> RefShape {
        RefShape::largest(self.model.head(), 1)
    }
}
