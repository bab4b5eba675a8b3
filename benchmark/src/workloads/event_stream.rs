//! `event_stream_faulty`: `EventDriver<ShardedApServer>` (2 shards) on the
//! virtual clock — streaming closes on 2.5 ms watermarks, a 96 Mbit/s shared
//! medium, 200 us jitter, accelerator-model head/tail latency, and a lossy
//! medium with retransmission. 96 stations is the knee: the virtual p99 sits
//! just under the 10 ms budget.
//!
//! Host time is closed loop (one round closes before the next is offered).
//! Virtual time is open loop: every station sounds every interval whatever
//! the server does, and delay is counted from the report's birth.

use super::{
    close, open, timed, training_size, Counters, LayerInputs, Ops, Quality, SetupTimes, Workload,
    SERVING_REF_BATCH,
};
use crate::host::RefShape;
use crate::loadgen::{self, Frame, LinkCheck, BITS_PER_VALUE};
use crate::spans::Recorder;
use crate::stats;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::model::SplitBeamModel;
use splitbeam_hwsim::{AcceleratorModel, DelayBudget, FaultConfig};
use splitbeam_serve::driver::{RoundServing, ServeMode};
use splitbeam_serve::event::build_sharded_event_driver;
use splitbeam_serve::{EventConfig, EventDriver, HealthPolicy, ShardedApServer, StationId};
use wifi_phy::ofdm::Bandwidth;

const SHARDS: usize = 2;
/// Rounds whose running digest is kept for the same-seed rerun.
const RERUN_ROUNDS: usize = 16;

pub struct EventStream {
    model: SplitBeamModel,
    rounds: Vec<Vec<Frame>>,
    engine: Engine,
    rounds_per_slice: usize,
    cursor: usize,
    seed: u64,
    setup: SetupTimes,
    total: Ops,
}

/// The driver and what is counted at its boundary. Kept apart from the
/// traffic so the same-seed rerun can replay the same frames through a
/// second engine.
struct Engine {
    driver: EventDriver<ShardedApServer>,
    counters: Counters,
    /// The counted window: set-up's round, the warm-up slice and the first
    /// two measured slices. Virtual-time figures cover exactly these rounds,
    /// so they do not depend on how many slices the host fits into a run.
    window: u64,
    /// Virtual end-to-end delay of every report delivered in the window —
    /// including those the closer then expired.
    window_delays_ns: Vec<f64>,
    window_offered: u64,
    window_on_time: u64,
    /// Reports delivered to the AP / classified by it, over the whole run.
    delivered: u64,
    classified: u64,
    /// Running summary digest after each of the first [`RERUN_ROUNDS`] rounds.
    digest_trail: Vec<u64>,
}

/// Every knob is set here, explicitly: `EventConfig::realistic` reads the
/// environment.
///
/// Retries (6) and the quarantine threshold (6 corrupt frames in a row) are
/// above the shipped defaults (2 and 3) so that no report goes unserved: at
/// the defaults about one report in 3000 is lost after its retries and a
/// station is quarantined for 8 rounds about once per 150k frames, and the
/// benchmark's workloads are meant to have no failing operation. Neither
/// moves the virtual-time figures: a third retry happens once in 3000 frames.
fn event_config(seed: u64) -> EventConfig {
    EventConfig {
        interval_s: 0.01,
        budget: DelayBudget::default(),
        grace_s: 0.01,
        jitter_max_ns: 200_000,
        seed,
        phase_step_ns: 0,
        feedback_rate_mbps: Some(loadgen::medium_rate_mbps(Bandwidth::Mhz80)),
        faults: FaultConfig {
            loss: 0.05,
            corrupt: 0.02,
            duplicate: 0.01,
            max_extra_delay_ns: 0,
            burst: None,
            corrupt_bits: 3,
        },
        max_retries: 6,
        retry_backoff_ns: 100_000,
        streaming: true,
        watermark_ns: 2_500_000,
    }
}

impl Engine {
    fn new(model: &SplitBeamModel, stations: usize, seed: u64, rounds_per_slice: usize) -> Self {
        let window = 1 + 3 * rounds_per_slice as u64;
        let mut driver = build_sharded_event_driver(
            model.clone(),
            stations,
            BITS_PER_VALUE,
            SHARDS,
            event_config(seed),
            Some(&AcceleratorModel::zynq_200mhz(3, 3)),
        );
        driver.inner_mut().set_health_policy(HealthPolicy {
            quarantine_after_corrupt: 6,
            ..HealthPolicy::default()
        });
        Self {
            driver,
            counters: Counters::new(),
            window,
            window_delays_ns: Vec::with_capacity(stations * window as usize),
            window_offered: 0,
            window_on_time: 0,
            delivered: 0,
            classified: 0,
            digest_trail: Vec::with_capacity(RERUN_ROUNDS),
        }
    }

    fn serve_round(
        &mut self,
        frames: &[Frame],
        rec: &mut Option<&mut Recorder>,
    ) -> Result<Ops, String> {
        let round_id = self.driver.current_round();
        let round = open(rec, "round", round_id);
        let ingest = open(rec, "ingest", round_id);
        for (id, frame) in frames.iter().enumerate() {
            // Scheduling cannot fail for a registered station; if it did, the
            // frame would count as never served.
            let _ = self.driver.ingest_wire(id as StationId, &frame.wire);
        }
        close(rec, ingest);
        let closing = open(rec, "close", round_id);
        let summary = self.driver.close_round(ServeMode::Batched);
        close(rec, closing);
        close(rec, round);
        let summary = summary.map_err(|e| format!("event round close failed: {e}"))?;

        let offered = frames.len() as u64;
        let stamps = self.driver.last_round_stamps();
        self.delivered += stamps.len() as u64;
        self.classified += (summary.on_time + summary.late + summary.expired) as u64;
        if self.counters.rounds < self.window {
            self.window_offered += offered;
            self.window_on_time += summary.on_time as u64;
            self.window_delays_ns
                .extend(stamps.iter().map(|(_, stamp)| stamp.total_ns() as f64));
        }
        let micro_closes = self
            .driver
            .inner()
            .shard_round_stats()
            .iter()
            .map(|s| s.micro_closes)
            .sum();
        self.counters.record(&summary, micro_closes, self.window);
        if self.counters.rounds == self.window {
            self.counters.medium_air_ns = self.driver.medium().total_air_ns();
            self.counters.medium_wait_ns = self.driver.medium().total_wait_ns();
        }
        if self.digest_trail.len() < RERUN_ROUNDS {
            self.digest_trail.push(self.counters.summary_digest);
        }
        Ok(Ops {
            attempted: offered,
            failed: offered.saturating_sub((summary.on_time + summary.late) as u64),
        })
    }
}

impl EventStream {
    pub fn build(seed: u64, smoke: bool) -> Result<Self, String> {
        let (stations, traffic_rounds, rounds_per_slice) =
            if smoke { (12, 2, 30) } else { (96, 8, 64) };
        let (samples, epochs) = training_size(smoke);
        let (model, train_s) = timed(|| loadgen::train(3, Bandwidth::Mhz80, samples, epochs));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (rounds, traffic_gen_s) =
            timed(|| loadgen::generate_rounds(&model, stations, traffic_rounds, &mut rng));
        let (mut engine, register_s) =
            timed(|| Engine::new(&model, stations, seed, rounds_per_slice));
        engine.serve_round(&rounds[0], &mut None)?;
        Ok(Self {
            model,
            rounds,
            engine,
            rounds_per_slice,
            cursor: 0,
            seed,
            setup: SetupTimes {
                train_s,
                traffic_gen_s,
                register_s,
                tail_bind_s: 0.0,
            },
            total: Ops::default(),
        })
    }

    /// The index of the traffic round served after `cursor`.
    fn next(&self, cursor: usize) -> usize {
        (cursor + 1) % self.rounds.len()
    }

    /// A fresh engine on the same seed must reproduce the first rounds' summaries exactly.
    fn rerun_matches(&self) -> Result<(), String> {
        let mut again = Engine::new(
            &self.model,
            self.rounds[0].len(),
            self.seed,
            self.rounds_per_slice,
        );
        let mut cursor = 0;
        again.serve_round(&self.rounds[cursor], &mut None)?;
        while again.digest_trail.len() < self.engine.digest_trail.len() {
            cursor = self.next(cursor);
            again.serve_round(&self.rounds[cursor], &mut None)?;
        }
        if again.digest_trail != self.engine.digest_trail {
            return Err("a same-seed rerun did not reproduce the round summaries".into());
        }
        Ok(())
    }
}

impl Workload for EventStream {
    fn slice(&mut self, mut rec: Option<&mut Recorder>) -> Ops {
        let mut ops = Ops::default();
        for _ in 0..self.rounds_per_slice {
            self.cursor = self.next(self.cursor);
            let frames = &self.rounds[self.cursor];
            ops.add(
                self.engine
                    .serve_round(frames, &mut rec)
                    .unwrap_or(Ops::all_failed(frames.len() as u64)),
            );
        }
        self.total.add(ops);
        ops
    }

    fn check(&mut self) -> Result<Quality, String> {
        if self.engine.counters.rounds < self.engine.window {
            return Err("the run ended inside the counted window".into());
        }
        // Every delivered report is classified exactly once; what was offered
        // and never delivered is the unrecovered loss.
        if self.engine.classified != self.engine.delivered {
            return Err(format!(
                "on_time + late + expired = {} but {} reports were delivered",
                self.engine.classified, self.engine.delivered
            ));
        }
        self.rerun_matches()?;

        // Link check over one more pass of the traffic: the stations served
        // in each round, against the channels those frames were computed from.
        let model = self.model.clone();
        let mut link = LinkCheck::new(&model, self.seed);
        for index in 0..self.rounds.len() {
            let closed = self.engine.driver.current_round();
            self.engine.serve_round(&self.rounds[index], &mut None)?;
            let inner = self.engine.driver.inner();
            let served: Vec<_> = self.rounds[index]
                .iter()
                .enumerate()
                .filter_map(|(id, frame)| {
                    let session = inner.session(id as StationId)?;
                    (session.last_round() == Some(closed))
                        .then(|| Some((session.feedback()?, frame.csi.as_slice())))?
                })
                .collect();
            link.add(&served)?;
        }

        let mut delays = std::mem::take(&mut self.engine.window_delays_ns);
        delays.sort_by(f64::total_cmp);
        if !stats::percentile_supported(delays.len(), 0.99) {
            return Err(format!(
                "{} delay samples do not support a 99th percentile",
                delays.len()
            ));
        }
        let budget_ns = DelayBudget::default().max_delay_s * 1e9;
        let first = &self.rounds[0][0];
        Ok(Quality {
            deadline_hit_rate: self.engine.window_on_time as f64
                / self.engine.window_offered as f64,
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
        self.engine.counters
    }

    fn layer_inputs(&self) -> LayerInputs<'_> {
        LayerInputs::from_frames(&self.model, &self.rounds[0])
    }

    fn stages(&self) -> &'static [&'static str] {
        &[
            "hwsim.jitter_draw_ns",
            "hwsim.sched_pop_ns_at_1k",
            "hwsim.fault_fate_ns",
            "hwsim.medium_grant_ns",
            "serve.ring_push_pop_ns",
            "splitbeam.wire_decode_ns_per_frame",
            "splitbeam.tail_f32_ns_per_frame",
        ]
    }

    fn reference_shape(&self) -> RefShape {
        RefShape::largest(self.model.tail(), SERVING_REF_BATCH)
    }
}
