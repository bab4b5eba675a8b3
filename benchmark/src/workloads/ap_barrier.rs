//! `ap_barrier_f32` / `ap_barrier_int8`: one `ApServer`, 64 stations at
//! 3x3/80 MHz, closed loop — every station's frame is ingested, then the
//! round closes before the next begins. Both variants serve identical wire
//! bytes and differ only in the tail weight format.

use super::{
    close, open, timed, training_size, Counters, LayerInputs, Ops, Quality, SetupTimes, Workload,
    SERVING_REF_BATCH,
};
use crate::host::RefShape;
use crate::loadgen::{self, Frame, LinkCheck, BITS_PER_VALUE};
use crate::spans::Recorder;
use mimo_math::Int8Kernel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::model::SplitBeamModel;
use splitbeam::wire::decode_feedback;
use splitbeam::{QuantizedTail, TailWeights};
use splitbeam_serve::{ApServer, StationId};
use wifi_phy::ofdm::Bandwidth;

pub struct ApBarrier {
    mode: TailWeights,
    model: SplitBeamModel,
    rounds: Vec<Vec<Frame>>,
    server: ApServer,
    rounds_per_slice: usize,
    cursor: usize,
    seed: u64,
    setup: SetupTimes,
    counters: Counters,
    total: Ops,
}

impl ApBarrier {
    pub fn build(mode: TailWeights, seed: u64, smoke: bool) -> Result<Self, String> {
        let (stations, traffic_rounds) = if smoke { (8, 2) } else { (64, 8) };
        // Sized so a slice takes roughly 0.3 s: the int8 tail is ~3x cheaper.
        let rounds_per_slice = match (mode, smoke) {
            (_, true) => 4,
            (TailWeights::F32, false) => 100,
            (TailWeights::Int8, false) => 300,
        };
        let (samples, epochs) = training_size(smoke);
        let (model, train_s) = timed(|| loadgen::train(3, Bandwidth::Mhz80, samples, epochs));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (rounds, traffic_gen_s) =
            timed(|| loadgen::generate_rounds(&model, stations, traffic_rounds, &mut rng));
        // The server binds its own int8 tail at registration; this times the
        // bind alone, for the per-layer `setup.tail_bind_s`.
        let (_, tail_bind_s) = timed(|| QuantizedTail::bind(&model));
        let (server, register_s) = timed(|| -> Result<ApServer, String> {
            let mut server = ApServer::new();
            server.set_tail_weights(mode);
            let key = server.register_model(model.clone());
            for id in 0..stations as StationId {
                server
                    .register_station(id, key, BITS_PER_VALUE)
                    .map_err(|e| format!("registration failed: {e}"))?;
            }
            Ok(server)
        });
        let mut workload = Self {
            mode,
            model,
            rounds,
            server: server?,
            rounds_per_slice,
            cursor: 0,
            seed,
            setup: SetupTimes {
                train_s,
                traffic_gen_s,
                register_s,
                tail_bind_s,
            },
            counters: Counters::new(),
            total: Ops::default(),
        };
        // The first round sizes every pool; it belongs to set-up.
        workload.serve_round(0, &mut None)?;
        Ok(workload)
    }

    /// Ingests round `index` of the traffic and closes it.
    fn serve_round(
        &mut self,
        index: usize,
        rec: &mut Option<&mut Recorder>,
    ) -> Result<Ops, String> {
        let frames = &self.rounds[index];
        let round_id = self.server.current_round();
        let mut ops = Ops {
            attempted: frames.len() as u64,
            failed: 0,
        };
        let round = open(rec, "round", round_id);
        let ingest = open(rec, "ingest", round_id);
        let mut accepted = 0u64;
        for (id, frame) in frames.iter().enumerate() {
            if self
                .server
                .ingest_wire(id as StationId, &frame.wire)
                .is_ok()
            {
                accepted += 1;
            }
        }
        close(rec, ingest);
        let closing = open(rec, "close", round_id);
        let summary = self.server.process_round();
        close(rec, closing);
        close(rec, round);
        let summary = summary.map_err(|e| format!("round close failed: {e}"))?;
        ops.failed = ops.attempted - (summary.served as u64).min(accepted);
        // Counted window: set-up's round, the warm-up slice and one slice.
        let window = 1 + 2 * self.rounds_per_slice as u64;
        self.counters.record(&summary, 0, window);
        Ok(ops)
    }

    /// The reference reconstruction of one frame, outside the serving path.
    fn reference(&self, tail: &QuantizedTail, wire: &[u8]) -> Result<Vec<f32>, String> {
        let payload = decode_feedback(wire).map_err(|e| format!("frame does not decode: {e}"))?;
        match self.mode {
            TailWeights::F32 => self.model.reconstruct_quantized(&payload),
            TailWeights::Int8 => tail.reconstruct_quantized(&payload, Int8Kernel::Scalar),
        }
        .map_err(|e| format!("reference reconstruction failed: {e}"))
    }
}

impl Workload for ApBarrier {
    fn slice(&mut self, mut rec: Option<&mut Recorder>) -> Ops {
        let mut ops = Ops::default();
        for _ in 0..self.rounds_per_slice {
            self.cursor = (self.cursor + 1) % self.rounds.len();
            match self.serve_round(self.cursor, &mut rec) {
                Ok(round) => ops.add(round),
                Err(_) => ops.add(Ops::all_failed(self.rounds[self.cursor].len() as u64)),
            }
        }
        self.total.add(ops);
        ops
    }

    fn check(&mut self) -> Result<Quality, String> {
        // A final in-order pass: every station's served feedback must be
        // bit-equal to the reference, and drives the link check.
        let model = self.model.clone();
        let tail = QuantizedTail::bind(&model);
        let mut link = LinkCheck::new(&model, self.seed);
        for index in 0..self.rounds.len() {
            let ops = self.serve_round(index, &mut None)?;
            if ops.failed != 0 {
                return Err(format!("round {index}: {} frames not served", ops.failed));
            }
            let mut served = Vec::with_capacity(self.rounds[index].len());
            for (id, frame) in self.rounds[index].iter().enumerate() {
                let got = self
                    .server
                    .feedback_of(id as StationId)
                    .ok_or_else(|| format!("station {id} has no feedback"))?;
                if got != self.reference(&tail, &frame.wire)?.as_slice() {
                    return Err(format!(
                        "round {index} station {id}: served feedback differs from the {} reference",
                        self.mode.name()
                    ));
                }
                served.push((got, frame.csi.as_slice()));
            }
            link.add(&served)?;
        }
        if self.total.failed != 0 {
            return Err(format!(
                "{} frames failed while measuring",
                self.total.failed
            ));
        }
        let first = &self.rounds[0][0];
        let share = loadgen::uncontended_budget_share(self.model.config(), first.wire.len());
        Ok(Quality {
            deadline_hit_rate: self.total.served() as f64 / self.total.attempted.max(1) as f64,
            eq7d_p50_share: share,
            eq7d_p99_share: share,
            link_ber: link.ber(),
            feedback_bits: (first.wire.len() * 8) as f64,
            dot11_feedback_bits: loadgen::dot11_report_bits(&first.csi)? as f64,
        })
    }

    fn setup_times(&self) -> SetupTimes {
        self.setup
    }

    fn counters(&self) -> Counters {
        self.counters
    }

    fn layer_inputs(&self) -> LayerInputs<'_> {
        LayerInputs::from_frames(&self.model, &self.rounds[0])
    }

    fn stages(&self) -> &'static [&'static str] {
        match self.mode {
            TailWeights::F32 => &[
                "splitbeam.wire_decode_ns_per_frame",
                "splitbeam.tail_f32_ns_per_frame",
            ],
            TailWeights::Int8 => &[
                "splitbeam.wire_decode_ns_per_frame",
                "splitbeam.tail_int8_ns_per_frame",
            ],
        }
    }

    fn reference_shape(&self) -> RefShape {
        RefShape::largest(self.model.tail(), SERVING_REF_BATCH)
    }
}
