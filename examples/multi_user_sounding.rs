//! Multi-user channel sounding walkthrough: how much airtime and station
//! computation one sounding round costs under 802.11 versus SplitBeam, for a
//! 3x3 network at 80 MHz (the configuration the paper's generalization study
//! focuses on) — then the same fleet served through the **event-driven
//! virtual-time driver**: every station's report pays its head compute time,
//! contends for the shared medium, and is classified against the 10 ms
//! Eq. 7d budget at round close.
//!
//! Run with: `cargo run --release --example multi_user_sounding`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_repro::prelude::*;
use wifi_phy::sounding::{sounding_round_airtime, SoundingConfig};

fn main() {
    let mimo = MimoConfig::symmetric(3, Bandwidth::Mhz80);
    let sounding = SoundingConfig::new(Bandwidth::Mhz80, 3);

    // 802.11: the station computes SVD + Givens and sends the quantized angles.
    let dot11_bits = dot11_bfi::feedback::paper_report_bits(3, 242);
    let dot11_flops = dot11_bfi::complexity::dot11_sta_flops(3, 3, 242);
    let dot11_airtime = sounding_round_airtime(&sounding, dot11_bits);

    println!("== IEEE 802.11 compressed beamforming feedback ==");
    println!("per-station report: {} bits", dot11_bits);
    println!("per-station compute: {} FLOPs (SVD + Givens)", dot11_flops);
    println!(
        "sounding round airtime: {:.3} ms ({:.1}% of a 10 ms sounding interval)",
        dot11_airtime.total_s() * 1e3,
        dot11_airtime.total_s() / 0.01 * 100.0
    );

    for level in CompressionLevel::STANDARD {
        let config = SplitBeamConfig::new(mimo, level);
        let bits = splitbeam::airtime::model_feedback_bits(&config, 16);
        let macs = splitbeam::complexity::splitbeam_head_macs(&config);
        let airtime = sounding_round_airtime(&sounding, bits);
        let accel = AcceleratorModel::zynq_200mhz(3, 3);
        let latency = accel.split_latency_from_config(&config);
        println!("\n== SplitBeam, {} ==", level);
        println!(
            "per-station feedback: {} bits ({:.0}% of 802.11)",
            bits,
            100.0 * bits as f64 / dot11_bits as f64
        );
        println!(
            "per-station compute: {} MACs ({:.0}% of 802.11)",
            macs,
            100.0 * macs as f64 / dot11_flops as f64
        );
        println!(
            "sounding round airtime: {:.3} ms, head+tail compute latency: {:.3} ms",
            airtime.total_s() * 1e3,
            latency.total_s() * 1e3
        );
    }

    // ---- Event-driven virtual-time serving ------------------------------
    //
    // Eight stations on a smaller 2x2/20 MHz model (so the example runs fast),
    // served through the discrete-event driver via the same `RoundServing`
    // trait the legacy drivers implement: head compute from the accelerator
    // model, seeded jitter, shared-medium contention, Eq. 7d enforced at
    // every round close. Station 7 sounds only every third round, so its
    // reports age toward the deadline.
    let mimo_small = MimoConfig::symmetric(2, Bandwidth::Mhz20);
    let config = SplitBeamConfig::new(mimo_small, CompressionLevel::OneEighth);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let model = SplitBeamModel::new(config, &mut rng);
    let sim = SimConfig {
        stations: 8,
        rounds: 4,
        bits_per_value: 4,
        drop_every: 9,
        ..SimConfig::default()
    };
    let traffic = generate_traffic(&sim, &model, &mut rng);
    let accel = AcceleratorModel::zynq_200mhz(2, 2);
    let event_cfg = EventConfig::realistic(24.0, 500_000, 42); // 0.5 ms jitter
    let mut driver = build_event_driver(
        model,
        sim.stations,
        sim.bits_per_value,
        event_cfg,
        Some(&accel),
    );
    driver.set_cadence(7, 3);

    println!("\n== Event-driven virtual-time serving (8 stations, 2x2 @ 20 MHz) ==");
    println!(
        "medium rate {} Mbit/s, jitter <= {} ns, Eq. 7d budget {} ms (+{} ms grace)",
        24.0,
        driver.config().jitter_max_ns,
        driver.config().budget.max_delay_s * 1e3,
        driver.config().grace_s * 1e3,
    );
    let outcome = serve_traffic(&mut driver, &traffic, ServeMode::Batched)
        .expect("event-driven serving of generated traffic");
    for summary in &outcome.summaries {
        println!(
            "round {}: served {} (on-time {}, late {}), expired {}, stale {}, \
             worst e2e {:.3} ms, mean e2e {:.3} ms (queue share {:.3} ms)",
            summary.round,
            summary.served,
            summary.on_time,
            summary.late,
            summary.expired,
            summary.stale,
            summary.delay.worst_e2e_ns as f64 / 1e6,
            summary.delay.mean_e2e_s(summary.served) * 1e3,
            summary.delay.queue_ns as f64 / 1e6 / summary.served.max(1) as f64,
        );
    }
    println!(
        "medium: {} frames carried, {:.3} ms on air, {:.3} ms queueing; \
         virtual clock ended at {:.1} ms",
        driver.medium().frames_carried(),
        driver.medium().total_air_ns() as f64 / 1e6,
        driver.medium().total_wait_ns() as f64 / 1e6,
        driver.virtual_now_ns() as f64 / 1e6,
    );
}
