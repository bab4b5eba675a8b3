//! The event-serving table: the one place event-level equalities live.
//!
//! Every cell of jitter {0, 5 ms, 25 ms} × faults {none, loss/corrupt/dup} ×
//! close {barrier, streaming @ interval, streaming @ 2.5 ms} × shards {1, 4}
//! × tail {f32, int8} serves the same traffic through a real medium and
//! accelerator latencies under the same deadline-accounting invariants, and
//! the cells are held to each other: barrier == streaming @ interval, armed
//! retries on a fault-free medium == none configured, 4 shards see the fault
//! plan 1 shard saw, int8 summaries == f32 summaries and int8 feedback == the
//! scalar int8 reference, and every cell == its same-seed rerun. The lockstep
//! rows (zero jitter, ideal medium, no compute latency), over drawn workloads,
//! equal the plain servers bit for bit under both kernel classes.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_repro::hwsim::fault::FaultConfig;
use splitbeam_repro::mimo_math::KernelChoice;
use splitbeam_repro::prelude::*;
use splitbeam_repro::serve::driver::{build_sharded_server, ServeOutcome, SimTraffic};
use splitbeam_repro::serve::event::build_sharded_event_driver;
use splitbeam_repro::serve::{EventDriver, RoundSummary, StationId};
use splitbeam_repro::splitbeam::fused::{QuantizedTail, TailWeights};
use splitbeam_testkit::{
    fault_profile, int8_reference, kernel_choices, small_model, station_frame, summary_divergence,
    with_ambient_kernel, with_kernel,
};

/// One served cell: the traffic replayed through an event driver over a
/// `shards`-shard server reconstructing with `weights`.
fn serve_cell(
    model: &SplitBeamModel,
    traffic: &SimTraffic,
    cfg: EventConfig,
    accel: Option<&AcceleratorModel>,
    shards: usize,
    weights: TailWeights,
) -> (ServeOutcome, EventDriver<ApServer>) {
    let mut event = build_sharded_event_driver(
        model.clone(),
        traffic.initial_stations,
        traffic.bits_per_value,
        shards,
        cfg,
        accel,
    );
    event.inner_mut().set_tail_weights(weights);
    let outcome = serve_traffic(&mut event, traffic, ServeMode::Batched).unwrap();
    (outcome, event)
}

/// `got` served what `want` served: every summary field — `batches` on
/// request only, a late arrival after the last watermark is a batch of its
/// own — and every feedback bit.
fn assert_same_service(
    got: (&ServeOutcome, &ApServer),
    want: (&ServeOutcome, &ApServer),
    compare_batches: bool,
    traffic: &SimTraffic,
    cell: &str,
) {
    assert_eq!(got.0.summaries.len(), want.0.summaries.len(), "{cell}");
    for (g, w) in got.0.summaries.iter().zip(&want.0.summaries) {
        if let Some(field) = summary_divergence(g, w, compare_batches) {
            panic!("{cell}: {field}");
        }
    }
    assert_same_feedback(got.1, want.1, traffic, cell);
}

fn assert_same_feedback(got: &ApServer, want: &ApServer, traffic: &SimTraffic, cell: &str) {
    for id in 0..traffic.max_station_id {
        assert_eq!(got.feedback_of(id), want.feedback_of(id), "{id}, {cell}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The lockstep rows, over drawn workloads (drops, churn, widths): the
    /// zero-delay event driver == the plain server at {1, 4} shards, barrier
    /// and streaming, f32 and int8, under both kernel classes — summaries,
    /// delay fields and feedback bits — and the fault machinery armed
    /// (retries configured, injector built) over a fault-free plan is as
    /// inert as none.
    #[test]
    fn lockstep_event_serving_matches_legacy_end_to_end(
        seed in 0u64..1000,
        bits in 2u8..=12,
        drop_every in 0usize..6,
        join_every in 0usize..4,
        leave_every in 0usize..4,
    ) {
        let model = small_model(seed.wrapping_add(577));
        let sim = SimConfig {
            stations: 5,
            rounds: 3,
            bits_per_value: bits,
            drop_every,
            churn: ChurnConfig { join_every, leave_every, burst_every: 0 },
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let traffic = generate_traffic(&sim, &model, &mut rng);
        for choice in kernel_choices() {
            for weights in [TailWeights::F32, TailWeights::Int8] {
                for shards in [1usize, 4] {
                    with_kernel(choice, || {
                        assert_lockstep_rows(&model, &sim, &traffic, shards, weights, choice)
                    });
                }
            }
        }
    }
}

fn assert_lockstep_rows(
    model: &SplitBeamModel,
    sim: &SimConfig,
    traffic: &SimTraffic,
    shards: usize,
    weights: TailWeights,
    choice: KernelChoice,
) {
    let mut legacy = build_sharded_server(model.clone(), sim.stations, sim.bits_per_value, shards);
    legacy.set_tail_weights(weights);
    let want = serve_traffic(&mut legacy, traffic, ServeMode::Batched).unwrap();
    for (streaming, max_retries) in [(false, 0), (false, 3), (true, 0), (true, 3)] {
        let cell = format!(
            "{choice:?}, {weights:?}, {shards} shards, streaming {streaming}, {max_retries} \
             retries, {sim:?}"
        );
        let cfg = EventConfig {
            streaming,
            max_retries,
            retry_backoff_ns: 100_000,
            ..EventConfig::lockstep()
        };
        let (got, event) = serve_cell(model, traffic, cfg, None, shards, weights);
        assert_eq!(got, want, "{cell}");
        assert_same_feedback(event.inner(), &legacy, traffic, &cell);
        for summary in &got.summaries {
            assert_eq!((summary.late, summary.expired), (0, 0), "{cell}");
            assert_eq!(summary.on_time, summary.served, "{cell}");
            assert_eq!(summary.delay.total_ns(), 0, "{cell}");
        }
        let stats = event.fault_stats();
        assert_eq!(
            (stats.lost, stats.corrupted, stats.duplicated, stats.delayed),
            (0, 0, 0, 0),
            "{cell}"
        );
    }
}

#[test]
fn timed_serving_invariants_hold_under_any_jitter() {
    let model = small_model(3);
    let sim = SimConfig {
        stations: 8,
        rounds: 4,
        bits_per_value: 6,
        drop_every: 7,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let table = TimedTable {
        traffic: generate_traffic(&sim, &model, &mut rng),
        int8_tail: QuantizedTail::bind(&model),
        accel: AcceleratorModel::zynq_200mhz(2, 2),
        model,
    };
    let disruptive = FaultConfig {
        loss: 0.25,
        corrupt: 0.10,
        duplicate: 0.05,
        ..FaultConfig::none()
    };
    // (streaming, watermark_ns); 0 = one watermark per sounding interval.
    let closes = [(false, 0), (true, 0), (true, 2_500_000)];
    // The lockstep test of this binary pins kernels on another thread; the
    // cells compared with each other here must all close under one.
    with_ambient_kernel(|| {
        for jitter_ns in [0, 5_000_000, 25_000_000] {
            for faults in [FaultConfig::none(), disruptive] {
                for (streaming, watermark_ns) in closes {
                    let cfg = EventConfig {
                        faults,
                        streaming,
                        watermark_ns,
                        phase_step_ns: 10_000,
                        ..EventConfig::realistic(24.0, jitter_ns, 11)
                    };
                    // What the medium did to the frames is decided before
                    // any shard sees them.
                    let one_shard = table.check_cell(cfg, 1);
                    let four_shards = table.check_cell(cfg, 4);
                    assert_eq!(
                        fault_profile(&four_shards),
                        fault_profile(&one_shard),
                        "{}",
                        cell_name(&cfg, 4)
                    );
                }
            }
        }
    });
}

fn cell_name(cfg: &EventConfig, shards: usize) -> String {
    format!(
        "jitter {} ns, loss {}, streaming {} @ {} ns, {shards} shards",
        cfg.jitter_max_ns, cfg.faults.loss, cfg.streaming, cfg.watermark_ns
    )
}

/// What every cell of the timed table serves, and with what.
struct TimedTable {
    model: SplitBeamModel,
    traffic: SimTraffic,
    int8_tail: QuantizedTail,
    accel: AcceleratorModel,
}

impl TimedTable {
    fn serve(
        &self,
        cfg: EventConfig,
        shards: usize,
        weights: TailWeights,
    ) -> (ServeOutcome, EventDriver<ApServer>) {
        let accel = Some(&self.accel);
        serve_cell(&self.model, &self.traffic, cfg, accel, shards, weights)
    }

    /// Serves one `(cfg, shards)` cell with the f32 tail, holds it to the
    /// invariants and to the cells it must equal, and returns its summaries.
    fn check_cell(&self, cfg: EventConfig, shards: usize) -> Vec<RoundSummary> {
        let cell = cell_name(&cfg, shards);
        let (outcome, event) = self.serve(cfg, shards, TailWeights::F32);
        assert_timed_invariants(&outcome, &event, &self.traffic, &cell);

        // Same seed, same traffic: the same run, summary for summary and
        // shard for shard.
        let (rerun, rerun_event) = self.serve(cfg, shards, TailWeights::F32);
        assert_eq!(outcome, rerun, "{cell}");
        assert_eq!(event.virtual_now_ns(), rerun_event.virtual_now_ns());
        assert_eq!(
            event.inner().shard_round_stats(),
            rerun_event.inner().shard_round_stats(),
            "{cell}"
        );

        // One watermark per interval is the barrier.
        if cfg.streaming && cfg.watermark_ns == 0 {
            let barrier = EventConfig {
                streaming: false,
                ..cfg
            };
            let (want, want_event) = self.serve(barrier, shards, TailWeights::F32);
            assert_same_service(
                (&outcome, event.inner()),
                (&want, want_event.inner()),
                cfg.jitter_max_ns == 0,
                &self.traffic,
                &cell,
            );
        }

        // With nothing to react to, armed retries change nothing.
        if cfg.faults == FaultConfig::none() {
            let disarmed = EventConfig {
                max_retries: 0,
                ..cfg
            };
            let (want, _) = self.serve(disarmed, shards, TailWeights::F32);
            assert_eq!(outcome, want, "armed vs disarmed, {cell}");
        }

        // The int8 tail changes what is reconstructed, not what is served or
        // when.
        let (int8_outcome, int8_event) = self.serve(cfg, shards, TailWeights::Int8);
        for (got, want) in int8_outcome.summaries.iter().zip(&outcome.summaries) {
            if let Some(field) = summary_divergence(got, want, false) {
                panic!("int8 vs f32, {cell}: {field}");
            }
        }
        assert_int8_feedback_is_the_scalar_reference(
            int8_event.inner(),
            &self.traffic,
            &self.int8_tail,
            &cell,
        );
        outcome.summaries
    }
}

/// Each station's feedback is the scalar int8 reconstruction of the frame it
/// sent in the round it was last served — through loss, retransmission,
/// duplication and whichever SIMD tier ran.
fn assert_int8_feedback_is_the_scalar_reference(
    server: &ApServer,
    traffic: &SimTraffic,
    tail: &QuantizedTail,
    cell: &str,
) {
    let mut checked = 0;
    for id in 0..traffic.max_station_id {
        let Some(round) = server.session(id).and_then(|s| s.last_round()) else {
            continue;
        };
        let (_, frame) = traffic.rounds[round as usize]
            .frames
            .iter()
            .find(|(sender, _)| *sender == id)
            .expect("a served station sent a frame that round");
        let frame = frame.as_ref().expect("a served report was not dropped");
        assert_eq!(
            server.feedback_of(id),
            Some(int8_reference(tail, frame).as_slice()),
            "station {id}, {cell}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no station was ever served ({cell})");
}

/// Deadline-accounting invariants that hold for *any* jitter amplitude,
/// fault plan, close discipline and shard count.
fn assert_timed_invariants(
    outcome: &ServeOutcome,
    event: &EventDriver<ApServer>,
    traffic: &SimTraffic,
    cell: &str,
) {
    let total =
        |field: fn(&RoundSummary) -> usize| -> usize { outcome.summaries.iter().map(field).sum() };
    let (served, expired) = (total(|s| s.served), total(|s| s.expired));
    let (lost, corrupt) = (total(|s| s.lost), total(|s| s.corrupt));
    assert_eq!(
        event.fault_stats().lost as usize,
        lost,
        "summaries must match the injector ({cell})"
    );
    if lost == 0 && corrupt == 0 {
        assert_eq!(
            served + expired,
            traffic.total_frames(),
            "on a reliable medium every transmitted frame is served or expired ({cell})"
        );
    } else {
        assert!(served + expired <= traffic.total_frames(), "{cell}");
        assert!(
            served + expired + lost + corrupt >= traffic.total_frames(),
            "every missing frame must be accounted to a lost or corrupt delivery ({cell})"
        );
    }
    for summary in &outcome.summaries {
        assert_eq!(
            summary.on_time + summary.late,
            summary.served,
            "served splits exactly into on-time + late ({cell})"
        );
        if summary.served > 0 {
            // A real medium and accelerator make every leg observable.
            assert!(summary.delay.air_ns > 0, "airtime must be charged");
            assert!(summary.delay.head_ns > 0, "head compute must be charged");
            assert!(summary.delay.tail_ns > 0, "tail compute must be charged");
            assert!(summary.delay.worst_e2e_ns > 0);
        }
    }
    // The medium actually serialized the fleet's frames — every transmission
    // is charged airtime, including lost/corrupt ones and every retry.
    assert_eq!(
        event.medium().frames_carried(),
        (traffic.total_frames() + total(|s| s.retransmitted)) as u64,
        "{cell}"
    );
    assert!(event.medium().total_air_ns() > 0);
}

fn drop_free_traffic(
    model: &SplitBeamModel,
    stations: usize,
    rounds: usize,
    seed: u64,
) -> (SimConfig, SimTraffic) {
    let sim = SimConfig {
        stations,
        rounds,
        bits_per_value: 4,
        drop_every: 0,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (sim, generate_traffic(&sim, model, &mut rng))
}

/// The deadline close never mistakes deadline classes for session staleness:
/// an expired report leaves its station stale/awaiting, which the next
/// on-time report repairs.
#[test]
fn expired_reports_interact_correctly_with_staleness() {
    let model = small_model(5);
    let (sim, traffic) = drop_free_traffic(&model, 2, 3, 6);
    // Cadence 3 on station 1: round-1 report is one interval old (on-time
    // edge), round-2 report two intervals (late edge); both rounds still
    // serve station 0 fresh.
    let mut event = build_event_driver(
        model,
        sim.stations,
        sim.bits_per_value,
        EventConfig::lockstep(),
        None,
    );
    event.set_cadence(1, 3);
    let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
    assert_eq!(outcome.summaries[0].on_time, 2);
    assert_eq!(outcome.summaries[1].on_time, 2, "budget edge is inclusive");
    assert_eq!(outcome.summaries[2].late, 1);
    assert_eq!(outcome.summaries[2].on_time, 1);
    let session = event.inner().session(1).unwrap();
    assert!(
        session.served_late(),
        "late class must be visible on session"
    );
    assert!(session.last_stamp().is_some());
}

/// A feedback frame whose virtual end-to-end delay lands past the Eq. 7d
/// budget is counted late (within grace) or expired (beyond it) — in no case
/// does the round report it as an on-time, fresh serve.
#[test]
fn past_budget_frame_is_never_silently_served_as_fresh() {
    let model = small_model(42);
    let (sim, traffic) = drop_free_traffic(&model, 3, 1, 43);
    // Jitter amplitude far past budget + grace: with the seeded uniform
    // stream some frames land late or expired, and the lockstep invariant
    // on_time == served must break exactly by the flagged count.
    let mut event = build_event_driver(
        model,
        sim.stations,
        sim.bits_per_value,
        EventConfig {
            jitter_max_ns: 60_000_000, // up to 60 ms on a 10 ms budget
            seed: 7,
            ..EventConfig::lockstep()
        },
        None,
    );
    let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
    let summary = &outcome.summaries[0];
    assert_eq!(summary.on_time + summary.late, summary.served);
    assert!(
        summary.late + summary.expired > 0,
        "60 ms jitter on a 10 ms budget must push someone past it"
    );
    // Expired stations were consumed without reconstruction: no feedback.
    let mut unreconstructed = 0;
    for id in 0..sim.stations as StationId {
        if event.feedback_of(id).is_none() {
            unreconstructed += 1;
        } else {
            let session = event.inner().session(id).unwrap();
            // Any stored report past the budget is explicitly flagged late.
            if session.served_late() {
                let stamp = session.last_stamp().expect("timed serving stamps sessions");
                assert!(stamp.total_ns() > event.config().policy().budget_ns);
            }
        }
    }
    assert_eq!(unreconstructed, summary.expired);
}

/// The deadline closer enforces the budget on *stamps*, so a hand-stamped
/// frame past budget+grace is dropped even on the plain servers, without the
/// event driver in the loop.
#[test]
fn hand_stamped_expired_frame_is_dropped_by_the_deadline_close() {
    let model = small_model(44);
    let mut server = build_sharded_server(model.clone(), 2, 8, 1);
    let frame = station_frame(&model, 45, 8);
    // Station 0 on time, station 1 stamped 25 ms end-to-end (10 budget + 10
    // grace < 25 -> expired).
    server
        .ingest_wire_at(0, &frame, FrameStamp::default())
        .unwrap();
    let expired = FrameStamp {
        arrival_ns: 25_000_000,
        head_ns: 5_000_000,
        queue_ns: 15_000_000,
        air_ns: 5_000_000,
        tail_ns: 0,
    };
    server.ingest_wire_at(1, &frame, expired).unwrap();
    let summary = server.close(Some(DeadlinePolicy::eq7d())).unwrap();
    assert_eq!(
        (
            summary.served,
            summary.on_time,
            summary.late,
            summary.expired
        ),
        (1, 1, 0, 1)
    );
    assert!(server.feedback_of(0).is_some());
    assert!(
        server.feedback_of(1).is_none(),
        "expired report must never be reconstructed"
    );
    // The station's feedback aged/never arrived: it shows up in staleness
    // accounting, not in served.
    assert_eq!(summary.awaiting_first_report, 1);
}
