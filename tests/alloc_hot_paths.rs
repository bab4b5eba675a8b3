//! Allocation sentinel over the serving hot paths.
//!
//! The serving stack claims zero steady-state heap traffic once its pools
//! are warm: barrier ingest→round close, streaming ingest→micro-batch
//! close→round close (each on one shard and on the 4-shard fan-out), the
//! fused batched tail (at a shape the packed GEMM's register tiles do not
//! divide), and the int8 tail. An event-driven round on a lossy medium is
//! held to one allocation per offered frame, however many transmissions are
//! lost, damaged and retried, a fleet round's offers to none at all (the arena
//! and the channels' offer lists are warm) and its close — each channel's
//! offers sorted in place, drained and closed on the pool's threads — to the one `Vec` of
//! summaries it returns. This
//! binary registers the counting allocator, warms each path until every
//! arena/scratch/cache has reached its steady shape, then re-runs the same
//! operations under [`assert_no_alloc`].
//!
//! Two ownership rules of the serving core are pinned here as well: a
//! station's pending payload lives in its shard's code arena, whose row
//! registration seats — so registering allocates nothing a station and a
//! first ingest nothing at all — and the close serves in tiles, so what a
//! first close allocates beyond the sessions' feedback storage is the same
//! for two tiles of stations as for sixteen.
//!
//! A **byte ledger** prices set-up the same way, because peak RSS is set
//! there, not in serving: cloning a model requests next to nothing and shares
//! its weights, binding the int8 tail requests its packed codes once (no
//! second layout, no layer-sized temporary), registering a model costs that
//! one bind, and a whole training fit — also one whose products and
//! optimizer updates are handed out to the pool — requests its Adam moments
//! and best-epoch checkpoint once, no weight gradient at all, and only its
//! bias gradient and batch-sized buffers besides, and a channel snapshot whose parts are handed out requests its
//! own matrices and next to nothing else. A set-up change that breaks one of
//! these fails here, in tier-1, not as a `peak_rss_mib` regression in the
//! benchmark pipeline.
//!
//! One `#[test]` only: the counters are process-global and the libtest
//! harness spawns an allocating thread per test. The pool runs at whatever
//! width the host gives it: its workers are started before the first scope,
//! so the scopes hold the **parallel** closes — shards claimed by the pool's
//! threads, panels of a tail product likewise — to the same zero.

use neural::layer::Activation;
use neural::loss::Loss;
use neural::network::{LayerSpec, Network};
use neural::optimizer::OptimizerKind;
use neural::trainer::{Example, TrainConfig, Trainer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use splitbeam::config::CompressionLevel;
use splitbeam::fused::{QuantizedTail, TailScratch, TailWeights};
use splitbeam::model::SplitBeamModel;
use splitbeam_analysis::alloc_sentinel::{assert_counting, assert_no_alloc, stats, CountingAlloc};
use splitbeam_hwsim::fault::FaultConfig;
use splitbeam_serve::driver::{RoundServing, ServeMode};
use splitbeam_serve::event::{build_event_driver, EventConfig};
use splitbeam_serve::server::ApServer;
use splitbeam_serve::timing::FrameStamp;
use splitbeam_serve::{Fleet, FleetConfig, TILE_ROWS};
use splitbeam_testkit::{model_with, small_model, station_frame, station_payload};
use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
use wifi_phy::ofdm::Bandwidth;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARM_ROUNDS: u64 = 3;
const BITS: u8 = 4;

fn server_with(
    model: &SplitBeamModel,
    weights: TailWeights,
    shards: usize,
    stations: u64,
) -> ApServer {
    let mut server = ApServer::with_shards(shards);
    server.set_tail_weights(weights);
    let key = server.register_model(model.clone());
    for id in 0..stations {
        server.register_station(id, key, BITS).unwrap();
    }
    server
}

/// Barrier serving: after warm-up rounds have sized the decode buffers, the
/// round arenas, the tail scratch and the per-shard outcome slots, a full
/// ingest + round close must not touch the heap — on one shard, on shards
/// claimed by the pool's threads, and when the tail product is large enough
/// to hand its panels out.
fn barrier_path(
    model: &SplitBeamModel,
    weights: TailWeights,
    shards: usize,
    stations: u64,
    label_prefix: &str,
) {
    let frames: Vec<Vec<u8>> = (0..stations)
        .map(|s| station_frame(model, 100 + s, BITS))
        .collect();
    let mut server = server_with(model, weights, shards, stations);
    for _ in 0..WARM_ROUNDS {
        for (id, frame) in frames.iter().enumerate() {
            server.ingest_wire(id as u64, frame).unwrap();
        }
        server.process_round().unwrap();
    }
    assert_no_alloc(&format!("{label_prefix}: wire ingest"), || {
        for (id, frame) in frames.iter().enumerate() {
            server.ingest_wire(id as u64, frame).unwrap();
        }
    });
    let summary = assert_no_alloc(&format!("{label_prefix}: round close"), || {
        server.process_round().unwrap()
    });
    assert_eq!(summary.served, frames.len());
}

/// Streaming serving: ingest with a stamp, force a watermark micro-close on
/// every shard, then close the round — all allocation-free once warm.
fn streaming_path(model: &SplitBeamModel, shards: usize) {
    let frame = station_frame(model, 200, BITS);
    let stations = shards as u64;
    let mut server = server_with(model, TailWeights::F32, shards, stations);
    server.set_streaming(true);
    // The default deadline policy (eq. 7d) gives each frame a 10 ms service
    // budget from its sounding birth; 20 ms rounds keep virtual time
    // monotone across the watermark advances.
    let round_ns: u64 = 20_000_000;
    let budget_ns: u64 = 10_000_000;
    let run = |server: &mut ApServer, round: u64| {
        let base = round * round_ns;
        let stamp = FrameStamp {
            arrival_ns: base,
            ..FrameStamp::default()
        };
        for id in 0..stations {
            server.ingest_wire_at(id, &frame, stamp).unwrap();
        }
        // A watermark the frames' deadline can no longer outrun forces the
        // micro-batch closes here rather than at the round close.
        server.advance_watermark(base + budget_ns, budget_ns / 10, None);
        let summary = server.close(None).unwrap();
        assert_eq!(summary.served, stations as usize);
        for stats in server.shard_round_stats() {
            assert_eq!(stats.micro_closes, 1, "watermark did not micro-close");
        }
    };
    for round in 0..WARM_ROUNDS {
        run(&mut server, round);
    }
    assert_no_alloc(
        &format!("streaming x{shards}: ingest + watermark close + round close"),
        || run(&mut server, WARM_ROUNDS),
    );
}

/// The fused batched tail driven directly: a reused [`TailScratch`] absorbs
/// every intermediate, so repeat reconstructions are allocation-free — also
/// when the batch leaves a ragged last row tile and the output width a
/// partial last panel (the packed GEMM masks its stores; it never stages
/// them in a heap buffer).
fn fused_tail_path(model: &SplitBeamModel, batch: usize) {
    let payloads: Vec<_> = (0..batch as u64)
        .map(|i| station_payload(model, 300 + i, BITS))
        .collect();
    let mut scratch = TailScratch::new();
    let kern = mimo_math::kernel::selected();
    for _ in 0..WARM_ROUNDS {
        model
            .reconstruct_quantized_batch_iter_into(payloads.iter(), batch, &mut scratch, kern)
            .unwrap();
    }
    let label = format!(
        "fused tail: {batch} payloads x {} outputs into warm scratch",
        model.config().output_dim()
    );
    assert_no_alloc(&label, || {
        let out = model
            .reconstruct_quantized_batch_iter_into(payloads.iter(), batch, &mut scratch, kern)
            .unwrap();
        assert_eq!(out.rows(), payloads.len());
    });
}

/// Event-driven rounds over a faulty medium. Once warm, scheduling allocates
/// nothing: each offered frame is appended to the driver's arena, which the
/// drain empties and the next round refills. The drain copies no frame
/// either: a retransmission is the popped offer itself, its bytes
/// re-sequenced in place, and a damaged delivery is built in a driver-owned
/// scratch. The AP refuses a damaged frame with a value, not a message, so
/// a corrupting drain allocates nothing, as a lossy one does.
fn faulty_event_path(model: &SplitBeamModel) {
    const STATIONS: usize = 32;
    let frame = station_frame(model, 500, BITS);
    let measure = |faults: FaultConfig| {
        let cfg = EventConfig {
            faults,
            max_retries: 6,
            ..EventConfig::realistic(96.0, 0, 5)
        };
        let mut driver = build_event_driver(model.clone(), STATIONS, BITS, cfg, None);
        // No quarantine: every damaged frame is rejected on its CRC.
        driver
            .inner_mut()
            .set_health_policy(splitbeam_serve::HealthPolicy {
                quarantine_after_corrupt: 0,
                ..splitbeam_serve::HealthPolicy::default()
            });
        // Warm until a round schedules no more retries than one before it
        // did (the event queue, frame arena and stamp list have reached their capacity).
        let mut most_retries = 0;
        loop {
            let offered = stats();
            for id in 0..STATIONS as u64 {
                driver.ingest_wire(id, &frame).unwrap();
            }
            let scheduled = stats();
            let summary = driver.close_round(ServeMode::Batched).unwrap();
            let drained = stats();
            if driver.current_round() > 2 * WARM_ROUNDS && summary.retransmitted < most_retries {
                assert_eq!(
                    (
                        scheduled.allocs - offered.allocs,
                        scheduled.reallocs - offered.reallocs
                    ),
                    (0, 0),
                    "scheduling a warm round allocated"
                );
                let drain_allocs = drained.allocs - scheduled.allocs;
                let drain_reallocs = drained.reallocs - scheduled.reallocs;
                return (drain_allocs, drain_reallocs, summary);
            }
            most_retries = most_retries.max(summary.retransmitted);
        }
    };

    let (allocs, reallocs, summary) = measure(FaultConfig {
        loss: 0.2,
        ..FaultConfig::none()
    });
    assert!(summary.lost > 0 && summary.retransmitted > 0, "{summary:?}");
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "draining a lossy round allocated ({} lost, {} retransmitted)",
        summary.lost,
        summary.retransmitted
    );

    let (allocs, reallocs, summary) = measure(FaultConfig {
        corrupt: 0.2,
        ..FaultConfig::none()
    });
    assert!(
        summary.corrupt > 0 && summary.retransmitted > 0,
        "{summary:?}"
    );
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "draining a corrupting round allocated ({} rejected, {} retransmitted)",
        summary.corrupt,
        summary.retransmitted
    );
}

/// A fleet round on 8 APs / 4 channels. An offer hands the fleet a frame the
/// caller allocated: the fleet copies it to the end of its arena and appends
/// one entry to its home channel's offer list, so once both are warm the
/// offers request nothing — the only heap traffic is the caller's `Vec`
/// being freed, which is why the round's frames are built before the scope.
/// The close — the one hand-out of the channels, each sorting its list in
/// place, draining it and closing its APs, then reading the APs' results
/// back — allocates the `per_ap` vector of the summary it returns and
/// nothing else: the offer lists, the arena, the hand-out and result slots
/// are the fleet's own and warm after the first round.
fn fleet_path(model: &SplitBeamModel) {
    const STATIONS: u64 = 64;
    let frame = station_frame(model, 600, BITS);
    let mut fleet = Fleet::new(FleetConfig {
        aps: 8,
        channels: 4,
        jitter_ns: 200_000,
        ..FleetConfig::default()
    });
    let key = fleet.register_model(model);
    for id in 0..STATIONS {
        fleet
            .register_station(id, id as usize % 8, key, BITS)
            .unwrap();
    }
    let round = |fleet: &mut Fleet, warm: bool| {
        let frames = vec![frame.clone(); STATIONS as usize];
        let offer = |fleet: &mut Fleet| {
            for (id, frame) in frames.into_iter().enumerate() {
                fleet.offer_frame(id as u64, frame).unwrap();
            }
        };
        if warm {
            assert_no_alloc("warm fleet offers", || offer(fleet));
        } else {
            offer(fleet);
        }
        let before = stats();
        let summary = fleet.close_round().unwrap();
        let after = stats();
        assert_eq!(summary.served as u64, STATIONS);
        (
            after.allocs - before.allocs,
            after.reallocs - before.reallocs,
        )
    };
    for _ in 0..2 {
        round(&mut fleet, false);
    }
    assert_eq!(
        round(&mut fleet, true),
        (1, 0),
        "a warm fleet round close must allocate its summary's `per_ap` and nothing else"
    );
}

/// Registration seats a station in its shard's slab and gives the slot a
/// row of the shard's code arena; a station owns no payload buffer. So
/// seating sixteen tiles of stations costs the growth of three vectors —
/// the slab's slots, its id index and the arena, each doubling (the arena
/// in a fresh zeroed block, the other two by `realloc`) — at most one
/// request a vector and doubling, and not one allocation a station.
fn registration_ledger(model: &SplitBeamModel) {
    let stations = 16 * TILE_ROWS as u64;
    let mut server = ApServer::new();
    let key = server.register_model(model.clone());
    let before = stats();
    for id in 0..stations {
        server.register_station(id, key, BITS).unwrap();
    }
    let after = stats();
    let requests = (after.allocs - before.allocs) + (after.reallocs - before.reallocs);
    let doublings = u64::from(stations.ilog2()) + 1;
    assert!(
        requests <= 3 * doublings,
        "seating {stations} stations made {requests} allocator requests, more than three \
         vectors doubling {doublings} times each: a station allocates on its own"
    );
}

/// The tiled close at batches many tiles wide. A first close allocates each
/// served session's feedback storage, the worklist (a `u32` a station,
/// requested once) and one tile of scratch (dequantized strip, layer
/// outputs) — so net of the feedback storage, `16 * TILE_ROWS` stations cost
/// exactly fourteen tiles of worklist more than `2 * TILE_ROWS` do.
/// Before it, a first ingest allocates nothing at all, the very first of
/// the server included: registration seated every station's code-arena row,
/// and an ingest unpacks a frame's codes straight into it.
fn tiled_close_path(model: &SplitBeamModel) {
    let frame = station_frame(model, 400, BITS);
    let feedback_bytes = (model.config().output_dim() * std::mem::size_of::<f32>()) as u64;
    let first_close = |stations: u64| {
        let mut server = server_with(model, TailWeights::F32, 1, stations);
        assert_no_alloc("first lockstep ingest of registered stations", || {
            for id in 0..stations {
                server.ingest_wire(id, &frame).unwrap();
            }
        });
        let (allocated, summary) = bytes_requested(|| server.process_round().unwrap());
        assert_eq!(summary.served as u64, stations);
        (allocated - stations * feedback_bytes, server)
    };
    let (narrow, _) = first_close(2 * TILE_ROWS as u64);
    let stations = 16 * TILE_ROWS as u64;
    let (wide, mut server) = first_close(stations);
    assert_eq!(
        narrow + (14 * TILE_ROWS * std::mem::size_of::<u32>()) as u64,
        wide,
        "beyond its worklist a first close's scratch must not scale with the batch: {narrow} \
         bytes at two tiles of stations, {wide} at sixteen"
    );
    assert_no_alloc("16 tiles: wire ingest", || {
        for id in 0..stations {
            server.ingest_wire(id, &frame).unwrap();
        }
    });
    let summary = assert_no_alloc("16 tiles: round close", || server.process_round().unwrap());
    assert_eq!(summary.served as u64, stations);
}

/// Bytes `f` requests from the allocator (frees are not netted off: a
/// temporary counts, which is the point).
fn bytes_requested<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = stats().bytes;
    let result = f();
    (stats().bytes - before, result)
}

/// The set-up ledger, on a model large enough (2x2/80 MHz: 234k tail
/// weights, 1.9 MB of head) for a stray copy to dwarf the slack.
fn setup_byte_ledger() {
    const KIB: u64 = 1024;
    let model = model_with(Bandwidth::Mhz80, CompressionLevel::OneEighth, 3);

    let (bytes, clone) = bytes_requested(|| model.clone());
    assert!(bytes < KIB, "cloning a model requested {bytes} bytes");
    assert!(
        std::ptr::eq(
            clone.tail().layers()[0].weights.as_slice(),
            model.tail().layers()[0].weights.as_slice()
        ) && std::ptr::eq(
            clone.head().layers()[0].weights.as_slice(),
            model.head().layers()[0].weights.as_slice()
        ),
        "a cloned model must share its weights"
    );

    let (bind_bytes, tail) = bytes_requested(|| QuantizedTail::bind(&model));
    let budget = tail.weight_bytes() as u64 * 11 / 10 + 64 * KIB;
    assert!(
        bind_bytes <= budget,
        "binding {} bytes of int8 weights requested {bind_bytes} bytes (budget {budget}): a second \
         layout or a layer-sized temporary",
        tail.weight_bytes()
    );

    let mut server = ApServer::new();
    let (bytes, _) = bytes_requested(|| server.register_model(clone));
    assert!(
        bytes <= bind_bytes + KIB,
        "registering a model requested {bytes} bytes, one bind is {bind_bytes}"
    );

    // A trainer whose validation metric improves every epoch: the first
    // improvement allocates the checkpoint, later ones overwrite it, and a
    // warm training step allocates nothing — so from the second metric call
    // to the return, nothing is requested at all. On a small shape every
    // product and update runs on the caller; on 512 -> 512 -> 512 at batch 2
    // each is past its hand-out threshold, so the warm steps are pooled, and
    // their transposed inputs and packed gradients are the trainer's own
    // batch-sized scratch. The weight gradient never reaches memory: each
    // register tile of it is consumed by the Adam update on its thread's
    // stack. So the whole fit requests its network's worth three times — two
    // Adam moments, the checkpoint — plus one bias gradient a layer at most
    // and 64 KiB of batch-sized buffers; a weight-gradient buffer of the
    // network's size would not fit.
    for (widths, batch) in [([24usize, 48, 12], 8usize), ([512, 512, 512], 2)] {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut network = Network::new(
            &[
                LayerSpec::new(widths[0], widths[1], Activation::Tanh),
                LayerSpec::new(widths[1], widths[2], Activation::Identity),
            ],
            &mut rng,
        );
        let examples: Vec<Example> = (0..4 * batch)
            .map(|i| {
                let x: Vec<f32> = (0..widths[0])
                    .map(|j| ((i * 7 + j) % 11) as f32 / 11.0)
                    .collect();
                let y = (0..widths[2]).map(|j| 0.5 - x[j % widths[0]]).collect();
                (x, y)
            })
            .collect();
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 3,
                batch_size: batch,
                ..TrainConfig::default()
            },
            Loss::Mse,
            OptimizerKind::Adam {
                learning_rate: 0.01,
            },
        );
        let f32_bytes = std::mem::size_of::<f32>() as u64;
        let network_bytes = network.num_parameters() as u64 * f32_bytes;
        let bias_bytes = (widths[1] + widths[2]) as u64 * f32_bytes;
        let mut at_metric_call = Vec::with_capacity(3);
        let before_fit = stats().bytes;
        let history =
            trainer.fit_with_metric(&mut network, &examples, &examples, &mut rng, |_, _| {
                at_metric_call.push(stats().bytes);
                -(at_metric_call.len() as f32)
            });
        let after_fit = stats().bytes;
        assert_eq!(history.best_epoch, 2, "every epoch must improve");
        assert_eq!(
            after_fit - at_metric_call[1],
            0,
            "{widths:?}: training requested bytes after its first epoch: a warm step allocated \
             or a checkpoint was re-allocated"
        );
        let budget = 3 * network_bytes + bias_bytes + 64 * KIB;
        assert!(
            after_fit - before_fit <= budget,
            "{widths:?} at batch {batch}: the fit requested {} bytes, more than moments and \
             checkpoint of a {network_bytes}-byte network, its {bias_bytes} bytes of bias \
             gradients and 64 KiB ({budget}): a weight-gradient buffer or a layer-sized scratch",
            after_fit - before_fit
        );
    }
}

/// A warm 3x3 / 80 MHz three-station channel sample (24 parts, claimed by
/// the pool's threads). The
/// draw fills the very matrices the snapshot returns, the hoisted per-tap
/// terms and the parts list are a few hundred bytes each, and a part
/// allocates nothing — so the snapshot requests its own storage plus at most
/// 4 KiB, and the whole `sample`, the process it starts included, one
/// allocation a subcarrier matrix plus at most 64. (The loop this replaced
/// made ≈ 27 a subcarrier.)
fn channel_sample_ledger() {
    use mimo_math::{CMatrix, Complex64};
    use std::mem::size_of;
    const KIB: u64 = 1024;
    let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz80, 3, 3, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(26);
    channel.sample(&mut rng);

    let before = stats();
    let snapshot = channel.sample(&mut rng);
    let allocs = stats().allocs - before.allocs;
    let matrices = (snapshot.num_users() * snapshot.subcarriers()) as u64;
    assert!(
        allocs <= matrices + 64,
        "a channel sample made {allocs} allocations for {matrices} subcarrier matrices: more \
         than one a matrix plus 64"
    );

    let process = channel.process(&mut rng);
    let (bytes, snapshot) = bytes_requested(|| process.snapshot(&mut rng));
    let entry_bytes = snapshot.nr() * snapshot.nt() * size_of::<Complex64>();
    let own = snapshot.num_users() * size_of::<Vec<CMatrix>>()
        + matrices as usize * (size_of::<CMatrix>() + entry_bytes);
    let budget = own as u64 + 4 * KIB;
    assert!(
        bytes <= budget,
        "a channel snapshot requested {bytes} bytes, its own storage is {own} (budget {budget}): \
         a draw buffer, a per-subcarrier temporary or an allocating part"
    );
}

#[test]
fn hot_paths_do_not_allocate_after_warmup() {
    assert_counting();
    // Starting the pool's workers allocates (thread stacks, names); handing
    // work to them afterwards must not.
    (0..2).into_par_iter().for_each(|_| {});
    let model = small_model(1);
    // Force kernel selection before any sentinel scope opens.
    fused_tail_path(&model, 3);
    // 456 outputs (14.25 zmm panels, 28.5 ymm panels) x 7 rows (no whole
    // 6- or 12-row tile): every masked edge of the packed GEMM.
    fused_tail_path(
        &model_with(Bandwidth::Mhz40, CompressionLevel::OneEighth, 2),
        7,
    );
    barrier_path(&model, TailWeights::F32, 1, 2, "barrier f32");
    barrier_path(&model, TailWeights::Int8, 1, 2, "barrier int8");
    barrier_path(&model, TailWeights::F32, 4, 8, "barrier f32 x4 shards");
    // 16 rows of 2x2/80 MHz (234k tail weights): past both kernels' hand-out
    // thresholds, so the panels of these closes are claimed by the pool.
    let wide = model_with(Bandwidth::Mhz80, CompressionLevel::OneEighth, 3);
    barrier_path(
        &wide,
        TailWeights::F32,
        1,
        16,
        "barrier f32, panels handed out",
    );
    barrier_path(
        &wide,
        TailWeights::Int8,
        1,
        16,
        "barrier int8, panels handed out",
    );
    streaming_path(&model, 1);
    streaming_path(&model, 4);
    registration_ledger(&model);
    tiled_close_path(&model);
    faulty_event_path(&model);
    fleet_path(&model);
    setup_byte_ledger();
    channel_sample_ledger();
}
