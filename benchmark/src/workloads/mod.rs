//! The five workloads. Each builds its inputs in [`build`] (timed as
//! `setup_s` by the harness), runs fixed-size slices, and checks its own
//! outputs. Why each exists is recorded in `BENCHMARK.json` and the README.

mod ap_barrier;
mod event_stream;
mod fleet_dense;
mod station_report;

use crate::host::RefShape;
use crate::loadgen::Frame;
use crate::spans::{Recorder, SpanId};
use mimo_math::CMatrix;
use splitbeam::model::SplitBeamModel;
use splitbeam_serve::RoundSummary;

pub const NAMES: [&str; 5] = [
    "ap_barrier_f32",
    "ap_barrier_int8",
    "event_stream_faulty",
    "fleet_dense_100k",
    "station_report",
];

/// Operations of one slice. A frame offered but not served on time or late —
/// lost after retries, expired, rejected, errored — is a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// `attempted` operations, none of them served.
    pub fn all_failed(attempted: u64) -> Self {
        Self {
            attempted,
            failed: attempted,
        }
    }

    pub fn served(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The end-to-end figures that are not host time. They come out of the
/// output checks, over a fixed number of operations from a fixed state, so
/// they repeat exactly for one seed however many slices the run fits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Reports served within the Eq. 7d budget over reports attempted.
    /// Workloads without a virtual clock count every served report on time.
    pub deadline_hit_rate: f64,
    /// Median virtual end-to-end delay over the 10 ms Eq. 7d budget.
    pub eq7d_p50_share: f64,
    /// 99th-percentile virtual end-to-end delay over the budget.
    pub eq7d_p99_share: f64,
    /// BER of the MU-MIMO link precoded with the feedback the workload produced.
    pub link_ber: f64,
    /// Bits on the wire per SplitBeam report.
    pub feedback_bits: f64,
    /// Bits of the 802.11 report for the same channel.
    pub dot11_feedback_bits: f64,
}

/// Wall time of the named set-up stages (per-layer `setup.*` metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub train_s: f64,
    pub traffic_gen_s: f64,
    pub register_s: f64,
    pub tail_bind_s: f64,
}

/// Counts a workload keeps at its layer boundaries. They are simulation
/// outcomes, not timings: a pure performance change must leave them alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub rounds: u64,
    pub micro_closes: u64,
    pub retransmitted: u64,
    pub lost: u64,
    pub corrupt: u64,
    pub late: u64,
    pub expired: u64,
    /// FNV-1a over every [`RoundSummary`] of the counted window.
    pub summary_digest: u64,
    pub medium_air_ns: u64,
    pub medium_wait_ns: u64,
}

impl Counters {
    fn new() -> Self {
        Self {
            summary_digest: FNV_OFFSET,
            ..Self::default()
        }
    }

    /// Counts one closed round. `rounds` counts every round of the run; the
    /// outcome counts and the digest stop after the first `window` rounds,
    /// because how many rounds a run fits depends on the host and they must
    /// not.
    fn record(&mut self, summary: &RoundSummary, micro_closes: usize, window: u64) {
        if self.rounds < window {
            self.micro_closes += micro_closes as u64;
            self.retransmitted += summary.retransmitted as u64;
            self.lost += summary.lost as u64;
            self.corrupt += summary.corrupt as u64;
            self.late += summary.late as u64;
            self.expired += summary.expired as u64;
            self.summary_digest = digest_summary(self.summary_digest, summary);
        }
        self.rounds += 1;
    }
}

/// What the isolated layer replays run on: the workload's own model, wire
/// frames and channels, so every per-layer number is at the workload's shape.
pub struct LayerInputs<'a> {
    pub model: &'a SplitBeamModel,
    pub frames: Vec<&'a [u8]>,
    pub csi: Vec<&'a [CMatrix]>,
}

impl<'a> LayerInputs<'a> {
    fn from_frames(model: &'a SplitBeamModel, frames: &'a [Frame]) -> Self {
        Self {
            model,
            frames: frames.iter().map(|f| f.wire.as_slice()).collect(),
            csi: frames.iter().map(|f| f.csi.as_slice()).collect(),
        }
    }
}

pub trait Workload {
    /// Runs one slice: a fixed number of operations. With a recorder, the
    /// same operations with a span around each call into a layer; without
    /// one, no clock is read.
    fn slice(&mut self, rec: Option<&mut Recorder>) -> Ops;

    /// Checks the outputs and returns the figures that come with them.
    fn check(&mut self) -> Result<Quality, String>;

    fn setup_times(&self) -> SetupTimes;

    fn counters(&self) -> Counters;

    fn layer_inputs(&self) -> LayerInputs<'_>;

    /// The isolated stages (per-layer metrics, each once per operation) that
    /// make up one operation. What their sum leaves of the measured operation
    /// is the unexplained residual, `recon.residual_frac`.
    fn stages(&self) -> &'static [&'static str];

    /// The shape of the reference kernel that calibrates this workload's
    /// throughput: the largest dense layer its timed path runs, or, where
    /// no layer dominates, a product that leans on the same level of the
    /// memory hierarchy.
    fn reference_shape(&self) -> RefShape;
}

/// Rows of the reference kernel for the serving workloads. Their tail runs
/// up to 64 rows at once; eight already stream each weight row once for
/// several accumulators, and keep a reference call near a millisecond.
const SERVING_REF_BATCH: usize = 8;

/// Builds workload `name` from `seed`; `smoke` scales every count down ~50x.
pub fn build(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    match name {
        "ap_barrier_f32" => Ok(Box::new(ap_barrier::ApBarrier::build(
            splitbeam::TailWeights::F32,
            seed,
            smoke,
        )?)),
        "ap_barrier_int8" => Ok(Box::new(ap_barrier::ApBarrier::build(
            splitbeam::TailWeights::Int8,
            seed,
            smoke,
        )?)),
        "event_stream_faulty" => Ok(Box::new(event_stream::EventStream::build(seed, smoke)?)),
        "fleet_dense_100k" => Ok(Box::new(fleet_dense::FleetDense::build(seed, smoke)?)),
        "station_report" => Ok(Box::new(station_report::StationReport::build(seed, smoke)?)),
        other => Err(format!(
            "unknown workload `{other}`; the workloads are {}",
            NAMES.join(", ")
        )),
    }
}

fn open(rec: &mut Option<&mut Recorder>, name: &'static str, id: u64) -> Option<SpanId> {
    rec.as_mut().and_then(|r| r.open(name, id))
}

fn close(rec: &mut Option<&mut Recorder>, id: Option<SpanId>) {
    if let Some(r) = rec.as_mut() {
        r.close(id);
    }
}

/// FNV-1a over the fields of a round summary, chained from `state`.
fn digest_summary(state: u64, s: &RoundSummary) -> u64 {
    let fields = [
        s.round,
        s.served as u64,
        s.stale as u64,
        s.awaiting_first_report as u64,
        s.batches as u64,
        s.on_time as u64,
        s.late as u64,
        s.expired as u64,
        s.delay.head_ns,
        s.delay.queue_ns,
        s.delay.air_ns,
        s.delay.tail_ns,
        s.delay.worst_e2e_ns,
        s.lost as u64,
        s.corrupt as u64,
        s.retransmitted as u64,
        s.stale_served as u64,
    ];
    fields.iter().fold(state, |mut h, field| {
        for byte in field.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Model-training size: the full E1 set-up, or a token one for `--smoke`.
fn training_size(smoke: bool) -> (usize, usize) {
    if smoke {
        (12, 1)
    } else {
        (40, 8)
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
