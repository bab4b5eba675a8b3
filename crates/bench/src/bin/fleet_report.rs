//! Fleet-scale event-engine benchmark: timer wheel and multi-AP serving.
//!
//! Writes `BENCH_PR10.json` with:
//!
//! * steady-state scheduler throughput (one pop + one schedule per op) for
//!   the timer-wheel `EventQueue` against its binary-heap oracle at 1k / 10k
//!   / 100k pending events, plus the wheel's speedup,
//! * a fleet sessions ramp to 100k+ concurrent sessions across 8 APs on one
//!   event queue (ideal media, so the wall clock measures the engine, not
//!   simulated airtime), with offers/s and aggregate deadline-hit rate,
//! * an overlapping-BSS contention + roaming run (4 APs on 2 channels at
//!   240 Mbit/s) reporting cross-BSS airtime loss per AP and mean handoff
//!   settle latency,
//! * verdicts: wheel/heap pop-order parity on an identical interleaving,
//!   same-seed fleet determinism, and handoff feedback bit-exactness against
//!   a never-roamed control.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin fleet_report       # writes BENCH_PR10.json
//! SPLITBEAM_FLEET_SESSIONS=1000 SPLITBEAM_SCHED_EVENTS=10000 \
//!     cargo run --release -p bench --bin fleet_report   # CI-scale smoke
//! ```
//!
//! The binary exits non-zero when any verdict fails. The wheel-vs-heap
//! speedup gate (>= 3x) applies at the full 100k-event scale; reduced-scale
//! smoke runs only require the wheel not to regress. The session store is
//! measured by the repo benchmark (`serve.slab_lookup_ns`,
//! `serve.slab_churn_ns`, `serve.slab_idle_sweep_ns`), not here.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam_bench::env_usize;
use splitbeam_bench::report::{kernel_dispatch_value, object, JsonReport, JsonValue};
use splitbeam_bench::timing::{measure_pair, num_threads};
use splitbeam_hwsim::event::HeapEventQueue;
use splitbeam_hwsim::{EventKey, EventQueue};
use splitbeam_serve::{DeadlinePolicy, Fleet, FleetConfig, StationId};
use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

/// The PR index this report seeds.
const PR_INDEX: u32 = 10;

/// Splitmix-style step for deterministic delay spreads.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Builds size ladders like [1k, 10k, `max`], dropping rungs above `max` and
/// always ending exactly at `max` (so reduced-scale CI runs stay cheap).
fn ladder(max: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = [1_000, 10_000, 100_000]
        .into_iter()
        .filter(|&s| s < max)
        .collect();
    sizes.push(max);
    sizes
}

// ---------------------------------------------------------------------------
// Scheduler: wheel vs heap at a steady pending-event population.
// ---------------------------------------------------------------------------

/// The schedule/pop surface the timer wheel and its binary-heap oracle share
/// (they are separate types with the same method names).
trait Scheduler {
    fn reserve(&mut self, additional: usize);
    fn schedule(&mut self, time_ns: u64, station: u64, payload: u64) -> EventKey;
    fn pop(&mut self) -> Option<(EventKey, u64)>;
}

macro_rules! impl_scheduler {
    ($($queue:ty),*) => {$(
        impl Scheduler for $queue {
            fn reserve(&mut self, additional: usize) {
                <$queue>::reserve(self, additional);
            }
            fn schedule(&mut self, time_ns: u64, station: u64, payload: u64) -> EventKey {
                <$queue>::schedule(self, time_ns, station, payload)
            }
            fn pop(&mut self) -> Option<(EventKey, u64)> {
                <$queue>::pop(self)
            }
        }
    )*};
}
impl_scheduler!(EventQueue<u64>, HeapEventQueue<u64>);

/// Prefills `queue` with `pending` events over a deterministic delay spread.
fn prefill(queue: &mut impl Scheduler, pending: usize, seed: &mut u64) {
    queue.reserve(pending);
    for i in 0..pending {
        let delay = lcg(seed) % 40_000_000 + 1;
        queue.schedule(delay, (i % 101) as u64, i as u64);
    }
}

/// One steady-state op: pop the earliest event, reschedule one relative to
/// its fire time. The pending population stays constant and virtual time
/// advances, which is exactly the fleet's per-round drain/refill shape.
fn sched_step(queue: &mut impl Scheduler, seed: &mut u64) {
    let (key, payload) = queue.pop().expect("steady-state queue is non-empty");
    let delay = lcg(seed) % 40_000_000 + 1;
    queue.schedule(key.time_ns + delay, key.station, payload);
}

struct SchedRow {
    pending: usize,
    wheel_ns: f64,
    heap_ns: f64,
}

fn bench_scheduler(pending: usize) -> SchedRow {
    let mut wheel = EventQueue::<u64>::new();
    let mut heap = HeapEventQueue::<u64>::new();
    let (mut wseed, mut hseed) = (0x5eed_0001, 0x5eed_0001);
    prefill(&mut wheel, pending, &mut wseed);
    prefill(&mut heap, pending, &mut hseed);
    let (wheel_ns, heap_ns) = measure_pair(
        || sched_step(&mut wheel, &mut wseed),
        || sched_step(&mut heap, &mut hseed),
    );
    SchedRow {
        pending,
        wheel_ns,
        heap_ns,
    }
}

/// Parity: an identical schedule/pop interleaving must pop identically
/// (key *and* payload, bit for bit) from the wheel and the heap oracle.
fn scheduler_parity(events: usize) -> bool {
    let mut wheel = EventQueue::<u64>::new();
    let mut heap = HeapEventQueue::<u64>::new();
    let mut seed = 0xdead_beef;
    let mut popped = Vec::new();
    for i in 0..events {
        let time = lcg(&mut seed) % 40_000_000;
        let station = lcg(&mut seed) % 37;
        wheel.schedule(time, station, i as u64);
        heap.schedule(time, station, i as u64);
        // Interleave pops so both queues are exercised mid-stream, not
        // just as a terminal drain.
        if i % 3 == 2 {
            if wheel.pop() != heap.pop() {
                return false;
            }
            popped.push(());
        }
    }
    while let Some(w) = wheel.pop() {
        if heap.pop() != Some(w) {
            return false;
        }
        popped.push(());
    }
    heap.pop().is_none() && popped.len() == events
}

// ---------------------------------------------------------------------------
// Fleet runs.
// ---------------------------------------------------------------------------

fn model(seed: u64) -> SplitBeamModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    SplitBeamModel::new(
        SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneEighth,
        ),
        &mut rng,
    )
}

fn station_frame(model: &SplitBeamModel, seed: u64, bits: u8) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
    let csi: Vec<f32> = channel
        .sample(&mut rng)
        .csi_real_vector(0)
        .into_iter()
        .map(|v| v as f32)
        .collect();
    let payload = model.compress_quantized(&csi, bits).expect("compress");
    splitbeam::wire::encode_feedback(&payload).expect("encode")
}

struct RampRow {
    sessions: usize,
    rounds: usize,
    offers_per_s: f64,
    wall_s_per_round: f64,
    served: u64,
    deadline_hit_rate: f64,
}

/// Sessions ramp: `sessions` stations across 8 APs, one shared event queue,
/// ideal media. Wall time covers offer + drain + ingest + round close — the
/// whole engine, end to end.
fn bench_ramp(m: &SplitBeamModel, frame: &[u8], sessions: usize, rounds: usize) -> RampRow {
    let aps = 8.min(sessions);
    let mut fleet = Fleet::new(FleetConfig {
        aps,
        channels: aps.div_ceil(2),
        rate_mbps: None,
        jitter_ns: 200_000,
        seed: 11,
        policy: Some(DeadlinePolicy::eq7d()),
        ..FleetConfig::default()
    });
    let key = fleet.register_model(m);
    fleet.reserve_events(sessions + 1);
    for id in 0..sessions as StationId {
        fleet
            .register_station(id, id as usize % aps, key, 4)
            .expect("unique ids");
    }
    let start = Instant::now();
    for _ in 0..rounds {
        for id in 0..sessions as StationId {
            fleet.offer_frame(id, frame.to_vec()).expect("registered");
        }
        fleet.close_round().expect("round close");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = fleet.stats();
    RampRow {
        sessions,
        rounds,
        offers_per_s: (sessions * rounds) as f64 / elapsed,
        wall_s_per_round: elapsed / rounds as f64,
        served: stats.served,
        deadline_hit_rate: stats.deadline_hit_rate,
    }
}

struct ContentionRun {
    stations: usize,
    rounds: usize,
    summaries: Vec<splitbeam_serve::FleetRoundSummary>,
    stats: splitbeam_serve::FleetStats,
    cross_bss_per_ap: Vec<u64>,
}

/// Overlapping-BSS contention + roaming: 4 APs on 2 channels at 240 Mbit/s.
/// Every round a co-channel cohort of stations roams between the two APs
/// sharing its channel (AP 0 <-> AP 2 on channel 0, AP 1 <-> AP 3 on
/// channel 1), so handoffs never change the contention domain.
fn run_contention(
    m: &SplitBeamModel,
    frame: &[u8],
    stations: usize,
    rounds: usize,
) -> ContentionRun {
    let mut fleet = Fleet::new(FleetConfig {
        aps: 4,
        channels: 2,
        rate_mbps: Some(240.0),
        jitter_ns: 50_000,
        seed: 13,
        policy: Some(DeadlinePolicy::eq7d()),
        ..FleetConfig::default()
    });
    let key = fleet.register_model(m);
    fleet.reserve_events(stations + 1);
    for id in 0..stations as StationId {
        fleet
            .register_station(id, id as usize % 4, key, 4)
            .expect("unique ids");
    }
    let mut summaries = Vec::with_capacity(rounds);
    for round in 0..rounds as u64 {
        if round > 0 {
            for id in 0..stations as StationId {
                if id % 16 == round % 16 {
                    let home = fleet.home_ap(id).expect("registered");
                    fleet.handoff(id, (home + 2) % 4).expect("valid target");
                }
            }
        }
        for id in 0..stations as StationId {
            fleet.offer_frame(id, frame.to_vec()).expect("registered");
        }
        summaries.push(fleet.close_round().expect("round close"));
    }
    let stats = fleet.stats();
    let cross_bss_per_ap = (0..fleet.num_aps())
        .map(|ap| fleet.cross_bss_wait_of(ap))
        .collect();
    ContentionRun {
        stations,
        rounds,
        summaries,
        stats,
        cross_bss_per_ap,
    }
}

/// Handoff bit-exactness: a station roamed A -> B and back, served every
/// round, must end with feedback bit-identical to the same station in a
/// fleet that never roamed it.
fn handoff_bit_exact(m: &SplitBeamModel) -> bool {
    let cfg = FleetConfig {
        aps: 2,
        channels: 2,
        jitter_ns: 0,
        ..FleetConfig::default()
    };
    let mut roamed = Fleet::new(cfg.clone());
    let mut control = Fleet::new(cfg);
    for fleet in [&mut roamed, &mut control] {
        let key = fleet.register_model(m);
        fleet.register_station(0, 0, key, 4).expect("register");
        fleet.register_station(1, 1, key, 4).expect("register");
    }
    for round in 0..4u64 {
        match round {
            1 => roamed.handoff(0, 1).expect("handoff out"),
            2 => roamed.handoff(0, 0).expect("handoff back"),
            _ => {}
        }
        for fleet in [&mut roamed, &mut control] {
            for id in 0..2u64 {
                let frame = station_frame(m, 100 + round * 10 + id, 4);
                fleet.offer_frame(id, frame).expect("offer");
            }
            fleet.close_round().expect("round close");
        }
    }
    let feedback_matches = match (roamed.feedback_of(0), control.feedback_of(0)) {
        (Some(a), Some(b)) => a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
        _ => false,
    };
    feedback_matches && roamed.home_ap(0) == Some(0) && roamed.stats().handoffs == 2
}

fn main() {
    let sched_max = env_usize("SPLITBEAM_SCHED_EVENTS", 100_000);
    let fleet_max = env_usize("SPLITBEAM_FLEET_SESSIONS", 100_000);
    let fleet_rounds = env_usize("SPLITBEAM_FLEET_ROUNDS", 3);
    let full_scale = sched_max >= 100_000;

    println!(
        "SplitBeam fleet report (PR {PR_INDEX}) — scheduler to {sched_max} pending, \
         fleet to {fleet_max} sessions x {fleet_rounds} rounds\n"
    );

    // Scheduler ladder.
    let mut sched_rows = Vec::new();
    for pending in ladder(sched_max) {
        let row = bench_scheduler(pending);
        println!(
            "sched    {:>7} pending   wheel {:>8.1} ns/op   heap {:>8.1} ns/op   {:>5.2}x",
            row.pending,
            row.wheel_ns,
            row.heap_ns,
            row.heap_ns / row.wheel_ns
        );
        sched_rows.push(row);
    }
    let top = sched_rows.last().expect("ladder is non-empty");
    let top_speedup = top.heap_ns / top.wheel_ns;
    // The >= 3x gate is a claim about the 100k-event regime; reduced-scale
    // smoke runs only assert the wheel is not slower than the heap.
    let wheel_speedup_ok = if full_scale {
        top_speedup >= 3.0
    } else {
        top_speedup >= 0.8
    };

    let parity_events = sched_max.min(50_000);
    let scheduler_parity_ok = scheduler_parity(parity_events);
    println!("sched    parity over {parity_events} interleaved events: {scheduler_parity_ok}");

    // Fleet ramp.
    let m = model(42);
    let frame = station_frame(&m, 9, 4);
    let mut ramp_rows = Vec::new();
    for sessions in ladder(fleet_max) {
        let row = bench_ramp(&m, &frame, sessions, fleet_rounds);
        println!(
            "fleet    {:>7} sessions  {:>10.0} offers/s   {:>7.3} s/round   hit rate {:.4}",
            row.sessions, row.offers_per_s, row.wall_s_per_round, row.deadline_hit_rate
        );
        ramp_rows.push(row);
    }
    let top_ramp = ramp_rows.last().expect("ladder is non-empty");
    let ramp_completed = top_ramp.served == (top_ramp.sessions * top_ramp.rounds) as u64;

    // Contention + roaming.
    let contention_stations = fleet_max.min(512);
    let contention_rounds = fleet_rounds.max(6);
    let contention = run_contention(&m, &frame, contention_stations, contention_rounds);
    println!(
        "roam     {:>7} stations  hit rate {:.4}   handoffs {} ({} settled, mean {:.0} ns)   \
         cross-BSS {} ns",
        contention.stations,
        contention.stats.deadline_hit_rate,
        contention.stats.handoffs,
        contention.stats.handoffs_settled,
        contention.stats.mean_handoff_latency_ns,
        contention.stats.cross_bss_wait_ns
    );

    // Determinism: the same seed and call sequence must reproduce every
    // summary and aggregate bit-for-bit.
    let rerun = run_contention(&m, &frame, contention_stations, contention_rounds);
    let determinism_ok = rerun.summaries == contention.summaries && rerun.stats == contention.stats;
    println!("roam     same-seed determinism: {determinism_ok}");

    let handoff_ok = handoff_bit_exact(&m);
    println!("roam     handoff bit-exact vs never-roamed control: {handoff_ok}");

    let report = JsonReport::new()
        .field("pr", PR_INDEX)
        .field("threads", num_threads())
        .field("kernel", kernel_dispatch_value())
        .field(
            "default_event_queue",
            EventQueue::<u64>::new().backend_name(),
        )
        .field(
            "scheduler",
            JsonValue::Array(
                sched_rows
                    .iter()
                    .map(|r| {
                        object(vec![
                            ("pending_events", r.pending.into()),
                            ("wheel_ns_per_op", r.wheel_ns.into()),
                            ("heap_ns_per_op", r.heap_ns.into()),
                            ("wheel_events_per_s", (1e9 / r.wheel_ns).into()),
                            ("heap_events_per_s", (1e9 / r.heap_ns).into()),
                            ("wheel_speedup", (r.heap_ns / r.wheel_ns).into()),
                        ])
                    })
                    .collect(),
            ),
        )
        .field("wheel_speedup_at_top", top_speedup)
        .field("wheel_speedup_gate", if full_scale { 3.0 } else { 0.8 })
        .field(
            "fleet_ramp",
            JsonValue::Array(
                ramp_rows
                    .iter()
                    .map(|r| {
                        object(vec![
                            ("sessions", r.sessions.into()),
                            ("rounds", r.rounds.into()),
                            ("offers_per_s", r.offers_per_s.into()),
                            ("wall_s_per_round", r.wall_s_per_round.into()),
                            ("served", (r.served as i64).into()),
                            ("deadline_hit_rate", r.deadline_hit_rate.into()),
                        ])
                    })
                    .collect(),
            ),
        )
        .field(
            "contention",
            object(vec![
                ("stations", contention.stations.into()),
                ("rounds", contention.rounds.into()),
                ("aps", 4usize.into()),
                ("channels", 2usize.into()),
                ("rate_mbps", 240.0.into()),
                (
                    "deadline_hit_rate",
                    contention.stats.deadline_hit_rate.into(),
                ),
                ("handoffs", (contention.stats.handoffs as i64).into()),
                (
                    "handoffs_settled",
                    (contention.stats.handoffs_settled as i64).into(),
                ),
                (
                    "mean_handoff_latency_ns",
                    contention.stats.mean_handoff_latency_ns.into(),
                ),
                ("air_ns", (contention.stats.air_ns as i64).into()),
                ("wait_ns", (contention.stats.wait_ns as i64).into()),
                (
                    "cross_bss_wait_ns",
                    (contention.stats.cross_bss_wait_ns as i64).into(),
                ),
                (
                    "cross_bss_wait_ns_per_ap",
                    JsonValue::Array(
                        contention
                            .cross_bss_per_ap
                            .iter()
                            .map(|&ns| (ns as i64).into())
                            .collect(),
                    ),
                ),
            ]),
        )
        .field("wheel_speedup_ok", wheel_speedup_ok)
        .field("scheduler_parity_ok", scheduler_parity_ok)
        .field("ramp_completed", ramp_completed)
        .field("determinism_ok", determinism_ok)
        .field("handoff_bit_exact_ok", handoff_ok);
    let out_path = report.write(&format!("BENCH_PR{PR_INDEX}.json"));
    println!("\nwrote {out_path}");

    let mut failed = false;
    for (name, ok) in [
        ("wheel_speedup_ok", wheel_speedup_ok),
        ("scheduler_parity_ok", scheduler_parity_ok),
        ("ramp_completed", ramp_completed),
        ("determinism_ok", determinism_ok),
        ("handoff_bit_exact_ok", handoff_ok),
    ] {
        if !ok {
            eprintln!("FAIL: {name}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
