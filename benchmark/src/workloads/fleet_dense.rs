//! `fleet_dense_100k`: a `Fleet` of 8 APs on 4 channels holding 100 000
//! sessions of a tiny 2x2/20 MHz model (46-byte frames). The tail GEMM does
//! almost nothing here; the event schedule/pop, the session store and the
//! close bookkeeping do the work — the mirror image of `ap_barrier_f32`.
//!
//! Media are ideal and jitter is 200 us, so in virtual time every report is
//! on time; the host-time loop is closed (offer every session, then close).

use super::{
    close, open, timed, training_size, Counters, LayerInputs, Ops, Quality, SetupTimes, Workload,
};
use crate::host::RefShape;
use crate::loadgen::{self, Frame, LinkCheck, BITS_PER_VALUE};
use crate::spans::Recorder;
use crate::stats;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::model::SplitBeamModel;
use splitbeam::wire::decode_feedback;
use splitbeam_hwsim::DelayBudget;
use splitbeam_serve::{DeadlinePolicy, Fleet, FleetConfig, StationId};
use wifi_phy::ofdm::Bandwidth;

const APS: usize = 8;
/// Distinct frames, rotated over stations and rounds. The link check draws
/// its channels from this pool: at 56 subcarriers and two stations a group,
/// it takes this many for `link_ber` to settle within a few percent.
const DISTINCT_FRAMES: usize = 1024;
/// Stations whose served feedback the check compares with the reference.
const SAMPLED_STATIONS: usize = 1024;

pub struct FleetDense {
    model: SplitBeamModel,
    frames: Vec<Frame>,
    fleet: Fleet,
    sessions: usize,
    /// Rounds closed so far; selects each station's frame for the round.
    round: usize,
    seed: u64,
    setup: SetupTimes,
    counters: Counters,
    total: Ops,
    /// Virtual delays of every session's report in the first measured round.
    first_round_delays_ns: Vec<f64>,
    /// Offers staged by the traced slice, so the clone is timed apart from
    /// the offer it feeds.
    staged: Vec<Vec<u8>>,
}

impl FleetDense {
    pub fn build(seed: u64, smoke: bool) -> Result<Self, String> {
        let sessions = if smoke { 2_000 } else { 100_000 };
        let (samples, epochs) = training_size(smoke);
        let (model, train_s) = timed(|| loadgen::train(2, Bandwidth::Mhz20, samples, epochs));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (frames, traffic_gen_s) = timed(|| {
            loadgen::generate_rounds(&model, DISTINCT_FRAMES, 1, &mut rng)
                .pop()
                .expect("one round was asked for")
        });
        let (fleet, register_s) = timed(|| -> Result<Fleet, String> {
            let mut fleet = Fleet::new(FleetConfig {
                aps: APS,
                channels: APS / 2,
                rate_mbps: None,
                round_ns: 20_000_000,
                jitter_ns: 200_000,
                seed,
                policy: Some(DeadlinePolicy::eq7d()),
            });
            let key = fleet.register_model(&model);
            fleet.reserve_events(sessions + 1);
            for id in 0..sessions as StationId {
                fleet
                    .register_station(id, id as usize % APS, key, BITS_PER_VALUE)
                    .map_err(|e| format!("registration failed: {e}"))?;
            }
            Ok(fleet)
        });
        let mut workload = Self {
            model,
            frames,
            fleet: fleet?,
            sessions,
            round: 0,
            seed,
            setup: SetupTimes {
                train_s,
                traffic_gen_s,
                register_s,
                tail_bind_s: 0.0,
            },
            counters: Counters::new(),
            total: Ops::default(),
            first_round_delays_ns: Vec::new(),
            staged: Vec::new(),
        };
        // The first round allocates every session's payload slot and sizes
        // the event engine; it belongs to set-up.
        workload.serve_round(&mut None)?;
        Ok(workload)
    }

    /// Which of the distinct frames station `id` sends in `round`.
    fn frame_index(&self, id: usize, round: usize) -> usize {
        (id + round) % self.frames.len()
    }

    fn serve_round(&mut self, rec: &mut Option<&mut Recorder>) -> Result<Ops, String> {
        let round_id = self.round as u64;
        let span = open(rec, "round", round_id);
        if rec.is_some() {
            // `offer_frame` takes the frame by value, so the generator must
            // clone one per offer. Traced, the clones are staged first so the
            // two costs separate.
            let cloning = open(rec, "loadgen.clone", round_id);
            let mut staged = std::mem::take(&mut self.staged);
            staged.clear();
            staged.extend(
                (0..self.sessions)
                    .map(|id| self.frames[self.frame_index(id, self.round)].wire.clone()),
            );
            close(rec, cloning);
            let ingest = open(rec, "ingest", round_id);
            for (id, wire) in staged.drain(..).enumerate() {
                // A refused offer is never served, which the close counts.
                let _ = self.fleet.offer_frame(id as StationId, wire);
            }
            close(rec, ingest);
            self.staged = staged;
        } else {
            for id in 0..self.sessions {
                let wire = self.frames[self.frame_index(id, self.round)].wire.clone();
                let _ = self.fleet.offer_frame(id as StationId, wire);
            }
        }
        let closing = open(rec, "close", round_id);
        let summary = self.fleet.close_round();
        close(rec, closing);
        close(rec, span);
        let summary = summary.map_err(|e| format!("fleet round close failed: {e}"))?;
        self.round += 1;

        // Counted window: set-up's round, the warm-up round and one round.
        for per_ap in &summary.per_ap {
            self.counters.record(per_ap, 0, (3 * APS) as u64);
        }
        let offered = self.sessions as u64;
        Ok(Ops {
            attempted: offered,
            failed: offered.saturating_sub((summary.on_time + summary.late) as u64),
        })
    }

    fn record_first_round_delays(&mut self) {
        self.first_round_delays_ns = (0..APS)
            .flat_map(|ap| self.fleet.ap(ap).sessions())
            .filter_map(|s| s.last_stamp())
            .map(|stamp| stamp.total_ns() as f64)
            .collect();
    }
}

impl Workload for FleetDense {
    fn slice(&mut self, mut rec: Option<&mut Recorder>) -> Ops {
        let ops = self
            .serve_round(&mut rec)
            .unwrap_or(Ops::all_failed(self.sessions as u64));
        // Round 0 is set-up's, round 1 the warm-up's; this is the first
        // measured round. Read after the slice, outside the offer/close path.
        if self.round == 3 {
            self.record_first_round_delays();
        }
        self.total.add(ops);
        ops
    }

    fn check(&mut self) -> Result<Quality, String> {
        if self.total.failed != 0 {
            return Err(format!(
                "{} of {} offers were not served",
                self.total.failed, self.total.attempted
            ));
        }
        let stats = self.fleet.stats();
        if stats.deadline_hit_rate != 1.0 || stats.rejected != 0 {
            return Err(format!(
                "ideal media must serve every report on time: hit rate {}, rejected {}",
                stats.deadline_hit_rate, stats.rejected
            ));
        }
        // Sampled stations against the direct reference, spread over the id
        // range so every AP and every distinct frame is covered.
        let last_round = self.round - 1;
        let stride = (self.sessions / SAMPLED_STATIONS).max(1) | 1;
        let mut sampled = Vec::with_capacity(SAMPLED_STATIONS);
        for id in (0..self.sessions).step_by(stride).take(SAMPLED_STATIONS) {
            let index = self.frame_index(id, last_round);
            let frame = &self.frames[index];
            let payload =
                decode_feedback(&frame.wire).map_err(|e| format!("frame does not decode: {e}"))?;
            let want = self
                .model
                .reconstruct_quantized(&payload)
                .map_err(|e| format!("reference reconstruction failed: {e}"))?;
            let got = self
                .fleet
                .feedback_of(id as StationId)
                .ok_or_else(|| format!("station {id} has no feedback"))?;
            if got != want.as_slice() {
                return Err(format!(
                    "station {id}: served feedback differs from the reference"
                ));
            }
            sampled.push((index, got, frame.csi.as_slice()));
        }
        // Which frame a station sent last depends on how many rounds the run
        // fitted; grouping by frame keeps `link_ber` independent of that.
        sampled.sort_by_key(|&(index, _, _)| index);
        let served: Vec<_> = sampled.iter().map(|&(_, got, csi)| (got, csi)).collect();
        let mut link = LinkCheck::new(&self.model, self.seed);
        link.add(&served)?;

        let mut delays = std::mem::take(&mut self.first_round_delays_ns);
        delays.sort_by(f64::total_cmp);
        if !stats::percentile_supported(delays.len(), 0.99) {
            return Err(format!(
                "{} delay samples do not support a 99th percentile",
                delays.len()
            ));
        }
        let budget_ns = DelayBudget::default().max_delay_s * 1e9;
        let first = &self.frames[0];
        Ok(Quality {
            deadline_hit_rate: stats.deadline_hit_rate,
            eq7d_p50_share: stats::quantile_sorted(&delays, 0.50) / budget_ns,
            eq7d_p99_share: stats::quantile_sorted(&delays, 0.99) / budget_ns,
            link_ber: link.ber(),
            feedback_bits: (first.wire.len() * 8) as f64,
            dot11_feedback_bits: loadgen::dot11_report_bits(&first.csi)? as f64,
        })
    }

    fn setup_times(&self) -> SetupTimes {
        self.setup
    }

    fn counters(&self) -> Counters {
        Counters {
            // `record` counts per-AP summaries; report whole fleet rounds.
            rounds: self.round as u64,
            ..self.counters
        }
    }

    fn layer_inputs(&self) -> LayerInputs<'_> {
        LayerInputs::from_frames(&self.model, &self.frames)
    }

    fn stages(&self) -> &'static [&'static str] {
        &[
            "loadgen.frame_clone_ns",
            "hwsim.jitter_draw_ns",
            "hwsim.sched_pop_ns_at_100k",
            "serve.slab_lookup_ns",
            "splitbeam.wire_decode_ns_per_frame",
            "splitbeam.tail_f32_ns_per_frame",
        ]
    }

    fn reference_shape(&self) -> RefShape {
        // The tail layer here is 50 KB and the GEMM is not what the round
        // waits for: it waits for memory, walking 100k sessions (~260 MB).
        // So the reference is a matrix-vector product over 9 MiB, which
        // leans on the memory system beyond L2 as the workload does.
        RefShape {
            batch: 1,
            k: 2304,
            n: 1024,
        }
    }
}
