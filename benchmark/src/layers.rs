//! Isolated replays of the lower layers, for the traced run.
//!
//! `process_round` cannot be seen into from outside, so the stages under it
//! are replayed one at a time on the workload's own model, frames and
//! channels: every number here is at the workload's shape. Each is a median
//! over timed batches. Bytes and operation counts are computed from tensor
//! sizes, not measured. The hwsim and session-store replays take no workload
//! input and read the same on every workload.

use crate::stats;
use crate::workloads::LayerInputs;
use dot11_bfi::bits::{BitReader, BitWriter};
use dot11_bfi::feedback::CompressedBeamformingReport;
use dot11_bfi::givens::GivensAngles;
use dot11_bfi::quantize::AngleResolution;
use mimo_math::kernel::int8::{gemm_u8i8_i32, padded_k, selected_int8};
use mimo_math::svd::Svd;
use mimo_math::{CMatrix, Workspace};
use neural::quant::{QuantScratch, QuantizedDense};
use neural::Matrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::quantization::{dequantize_bottleneck_into, QuantizedFeedback};
use splitbeam::wire::{
    crc32, decode_feedback, decode_feedback_into, encode_feedback, WIRE_HEADER_BYTES,
    WIRE_TRAILER_BYTES,
};
use splitbeam::{QuantizedTail, TailScratch};
use splitbeam_hwsim::{EventQueue, FaultConfig, FaultInjector, SeededJitter, SharedMedium};
use splitbeam_serve::{Ring, SessionSlab, StationId, StationSession};
use std::hint::black_box;
use std::time::Instant;
use wifi_phy::channel::ChannelSnapshot;

/// Batches timed per replay (after one untimed batch).
const BATCHES: usize = 7;
/// Target length of one batch.
const BATCH_NS: f64 = 4e6;
/// Tail batch size: the serving workloads close 64 stations per round.
const TAIL_BATCH: usize = 64;

/// Median nanoseconds per call of `op`, over [`BATCHES`] batches sized to
/// about [`BATCH_NS`] each.
pub fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    op();
    let once = (start.elapsed().as_nanos() as f64).max(1.0);
    let per_batch = ((BATCH_NS / once) as usize).clamp(1, 1 << 20);
    let mut samples = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let start = Instant::now();
        for _ in 0..per_batch {
            op();
        }
        let ns = start.elapsed().as_nanos() as f64 / per_batch as f64;
        if batch > 0 {
            samples.push(ns);
        }
    }
    stats::median(&samples)
}

/// `amount` per nanosecond, which is giga-`amount` per second.
fn rate_per_ns(amount: f64, ns: f64) -> f64 {
    amount / ns
}

/// Runs every replay; returns `(metric name, value)` pairs.
pub fn replay(inputs: &LayerInputs<'_>, seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let payloads = inputs
        .frames
        .iter()
        .map(|f| decode_feedback(f).map_err(|e| format!("replay frame does not decode: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    wire_and_bits(inputs, &payloads, &mut out);
    tails(inputs, &payloads, &mut out);
    station_side(inputs, &mut out)?;
    gemms(inputs, &mut out);
    hwsim(&mut out);
    session_store(&mut out);
    phy(inputs, &payloads, seed, &mut out)?;
    Ok(out)
}

fn wire_and_bits(
    inputs: &LayerInputs<'_>,
    payloads: &[QuantizedFeedback],
    out: &mut Vec<(&'static str, f64)>,
) {
    let frames = &inputs.frames;
    let n = frames.len();
    let mut i = 0;
    let mut next = move || {
        i = (i + 1) % n;
        i
    };

    let mut slot = payloads[0].clone();
    let decode_ns = ns_per_op(|| {
        decode_feedback_into(black_box(frames[next()]), &mut slot).expect("frame decodes");
    });
    out.push(("splitbeam.wire_decode_ns_per_frame", decode_ns));

    let frame_bytes = frames[0].len();
    let crc_ns = ns_per_op(|| {
        black_box(crc32(black_box(frames[next()])));
    });
    out.push((
        "splitbeam.crc32_gb_per_s",
        rate_per_ns(frame_bytes as f64, crc_ns),
    ));

    let bits = u32::from(payloads[0].bits_per_value);
    let count = payloads[0].codes.len();
    let mut codes = Vec::with_capacity(count);
    let unpack_ns = ns_per_op(|| {
        let frame = frames[next()];
        let body = &frame[WIRE_HEADER_BYTES..frame.len() - WIRE_TRAILER_BYTES];
        codes.clear();
        BitReader::new(black_box(body))
            .pull_u16s_into(bits, count, &mut codes)
            .expect("body holds every code");
    });
    let body_bytes = frame_bytes - WIRE_HEADER_BYTES - WIRE_TRAILER_BYTES;
    out.push(("dot11.unpack_ns_per_frame", unpack_ns));
    out.push((
        "dot11.unpack_gb_per_s",
        rate_per_ns(body_bytes as f64, unpack_ns),
    ));

    let pack_ns = ns_per_op(|| {
        let payload = &payloads[next()];
        let mut writer = BitWriter::with_capacity_bits(count * bits as usize);
        for &code in &payload.codes {
            writer.push(u32::from(code), bits);
        }
        black_box(writer.finish());
    });
    out.push(("dot11.pack_ns_per_report", pack_ns));

    let mut strip = vec![0f32; count];
    let dequant_ns = ns_per_op(|| {
        dequantize_bottleneck_into(black_box(&payloads[next()]), &mut strip);
    });
    out.push(("splitbeam.dequant_ns_per_frame", dequant_ns));

    let encode_ns = ns_per_op(|| {
        black_box(encode_feedback(black_box(&payloads[next()])).expect("payload encodes"));
    });
    out.push(("splitbeam.wire_encode_ns_per_report", encode_ns));
}

fn tails(
    inputs: &LayerInputs<'_>,
    payloads: &[QuantizedFeedback],
    out: &mut Vec<(&'static str, f64)>,
) {
    let batch = payloads.len().min(TAIL_BATCH);
    let payloads = &payloads[..batch];
    let model = inputs.model;
    let macs = model.tail_macs() as f64;
    let mut scratch = TailScratch::new();

    let kernel = mimo_math::kernel::selected();
    let f32_ns = ns_per_op(|| {
        black_box(
            model
                .reconstruct_quantized_batch_iter_into(payloads.iter(), batch, &mut scratch, kernel)
                .expect("f32 tail reconstructs"),
        );
    });
    out.push(("splitbeam.tail_f32_ns_per_frame", f32_ns / batch as f64));
    out.push((
        "splitbeam.tail_f32_gflop_per_s",
        rate_per_ns(2.0 * macs * batch as f64, f32_ns),
    ));
    // One batch streams every f32 weight once: 4 bytes per MAC.
    out.push((
        "splitbeam.tail_f32_weight_gb_per_s",
        rate_per_ns(4.0 * macs, f32_ns),
    ));

    let tail = QuantizedTail::bind(model);
    let int8_kernel = selected_int8();
    let int8_ns = ns_per_op(|| {
        black_box(
            tail.reconstruct_quantized_batch_iter_into(
                payloads.iter(),
                batch,
                &mut scratch,
                int8_kernel,
            )
            .expect("int8 tail reconstructs"),
        );
    });
    out.push(("splitbeam.tail_int8_ns_per_frame", int8_ns / batch as f64));
    out.push((
        "splitbeam.tail_int8_gop_per_s",
        rate_per_ns(2.0 * macs * batch as f64, int8_ns),
    ));
    out.push((
        "splitbeam.tail_int8_weight_gb_per_s",
        rate_per_ns(tail.weight_bytes() as f64, int8_ns),
    ));
}

/// Real-interleaved head input of one station's CSI.
fn head_input(inputs: &LayerInputs<'_>, index: usize) -> Vec<f32> {
    let mimo = &inputs.model.config().mimo;
    let snapshot =
        ChannelSnapshot::from_matrices(mimo.bandwidth, mimo.nss, vec![inputs.csi[index].to_vec()]);
    crate::loadgen::csi_vector(&snapshot, 0)
}

fn station_side(
    inputs: &LayerInputs<'_>,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let model = inputs.model;
    let vectors: Vec<Vec<f32>> = (0..inputs.csi.len().min(16))
        .map(|i| head_input(inputs, i))
        .collect();
    let n = vectors.len();
    let mut i = 0;
    let mut next = move || {
        i = (i + 1) % n;
        i
    };

    let head_quantize_ns = ns_per_op(|| {
        black_box(
            model
                .compress_quantized(black_box(&vectors[next()]), crate::loadgen::BITS_PER_VALUE)
                .expect("head accepts its own shape"),
        );
    });
    out.push(("splitbeam.head_quantize_ns_per_report", head_quantize_ns));

    let head_ns = ns_per_op(|| {
        black_box(
            model
                .head()
                .predict(black_box(&vectors[next()]))
                .expect("head accepts its own shape"),
        );
    });
    out.push(("neural.head_forward_ns", head_ns));

    // 802.11 station side, serial: per subcarrier SVD right vectors + Givens
    // decomposition, then quantize + pack of the whole report.
    let nt = inputs.csi[0][0].cols();
    let mut ws = Workspace::new();
    let mut v = CMatrix::zeros(1, 1);
    let mut omega = CMatrix::zeros(1, 1);
    let blank = || GivensAngles {
        nt: 0,
        nss: 0,
        phi: Vec::new(),
        psi: Vec::new(),
    };
    let mut angles: Vec<GivensAngles> = inputs.csi[0].iter().map(|_| blank()).collect();
    let mut failed = false;
    let svd_givens_ns = ns_per_op(|| {
        for (h, slot) in inputs.csi[next()].iter().zip(angles.iter_mut()) {
            Svd::right_vectors_into(black_box(h), nt, &mut v, &mut ws);
            failed |= GivensAngles::decompose_into(&v, &mut omega, slot).is_err();
        }
    });
    if failed {
        return Err("802.11 Givens decomposition rejected a replay channel".into());
    }
    out.push(("dot11.svd_givens_ns_per_report", svd_givens_ns));

    let quantize_pack_ns = ns_per_op(|| {
        black_box(
            CompressedBeamformingReport::pack(black_box(&angles), AngleResolution::High)
                .expect("angles pack"),
        );
    });
    out.push(("dot11.quantize_pack_ns_per_report", quantize_pack_ns));

    let h = &inputs.csi[0][0];
    let svd_ns = ns_per_op(|| {
        black_box(Svd::compute_with(black_box(h), &mut ws));
    });
    out.push(("mimo.svd_ns_per_matrix", svd_ns));
    Ok(())
}

/// The first tail layer's GEMM alone, at the serving batch size.
fn gemms(inputs: &LayerInputs<'_>, out: &mut Vec<(&'static str, f64)>) {
    let layer = &inputs.model.tail().layers()[0];
    let (k, n) = (layer.input_dim(), layer.output_dim());
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let a = Matrix::xavier_uniform(TAIL_BATCH, k, &mut rng);
    let mut c = Matrix::zeros(TAIL_BATCH, n);
    let ops = (2 * TAIL_BATCH * k * n) as f64;

    let kernel = mimo_math::kernel::selected();
    let f32_ns = ns_per_op(|| {
        black_box(&a).matmul_into_with(&layer.weights, &mut c, kernel);
    });
    out.push(("mimo.gemm_f32_gflop_per_s", rate_per_ns(ops, f32_ns)));

    let k_pad = padded_k(k);
    let lhs: Vec<u8> = (0..TAIL_BATCH * k_pad).map(|i| (i % 127) as u8).collect();
    let rhs: Vec<i8> = (0..k_pad * n).map(|i| (i % 251) as i8).collect();
    let mut acc = vec![0i32; TAIL_BATCH * n];
    let int8_kernel = selected_int8();
    let int8_ns = ns_per_op(|| {
        gemm_u8i8_i32(
            int8_kernel,
            black_box(&lhs),
            &rhs,
            &mut acc,
            TAIL_BATCH,
            k_pad,
            n,
        );
    });
    out.push(("mimo.gemm_int8_gop_per_s", rate_per_ns(ops, int8_ns)));

    let qdense = QuantizedDense::quantize(layer);
    let mut scratch = QuantScratch::new();
    let qdense_ns = ns_per_op(|| {
        qdense.matmul_bias_act_into(black_box(&a), &mut scratch, &mut c, int8_kernel);
    });
    out.push(("neural.qdense_ns_per_row", qdense_ns / TAIL_BATCH as f64));
}

/// Steady-state scheduler step at `pending` events: pop the earliest, and
/// schedule one relative to its fire time.
fn sched_pop_ns(pending: usize) -> f64 {
    let mut state = 0x5eed_0001u64;
    let mut delay = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % 40_000_000 + 1
    };
    let mut queue = EventQueue::<u64>::new();
    queue.reserve(pending);
    for i in 0..pending {
        queue.schedule(delay(), (i % 101) as u64, i as u64);
    }
    ns_per_op(|| {
        let (key, payload) = queue.pop().expect("the population is constant");
        queue.schedule(key.time_ns + delay(), key.station, payload);
    })
}

fn hwsim(out: &mut Vec<(&'static str, f64)>) {
    out.push(("hwsim.sched_pop_ns_at_1k", sched_pop_ns(1_000)));
    out.push(("hwsim.sched_pop_ns_at_100k", sched_pop_ns(100_000)));

    let mut medium = SharedMedium::new(96.0);
    let mut ready = 0u64;
    let grant_ns = ns_per_op(|| {
        ready += 50_000;
        black_box(medium.transmit(black_box(ready), 2328));
    });
    out.push(("hwsim.medium_grant_ns", grant_ns));

    let mut injector = FaultInjector::new(
        FaultConfig {
            loss: 0.05,
            corrupt: 0.02,
            duplicate: 0.01,
            ..FaultConfig::none()
        },
        7,
    );
    let fate_ns = ns_per_op(|| {
        black_box(injector.frame_fate());
    });
    out.push(("hwsim.fault_fate_ns", fate_ns));

    let mut jitter = SeededJitter::new(200_000, 7);
    let jitter_ns = ns_per_op(|| {
        black_box(jitter.draw());
    });
    out.push(("hwsim.jitter_draw_ns", jitter_ns));
}

fn session_store(out: &mut Vec<(&'static str, f64)>) {
    const SESSIONS: u64 = 100_000;
    let closed_round = 64;
    let mut slab = SessionSlab::with_capacity(SESSIONS as usize);
    for id in 0..SESSIONS as StationId {
        slab.insert(StationSession::synthetic(id, 0, 4, closed_round))
            .expect("ids are unique");
    }
    let mut id: StationId = 0;
    let lookup_ns = ns_per_op(|| {
        id = (id + 7) % SESSIONS;
        black_box(slab.get(black_box(id)).expect("resident").bits_per_value());
    });
    out.push(("serve.slab_lookup_ns", lookup_ns));

    let churn_ns = ns_per_op(|| {
        id = (id + 1) % SESSIONS;
        let session = slab.remove(id).expect("resident");
        slab.insert(session).expect("just removed");
    });
    out.push(("serve.slab_churn_ns", churn_ns));

    // Nothing is evictable: the sweep must stop at the first survivor.
    let sweep_ns = ns_per_op(|| {
        black_box(slab.evict_idle(closed_round, 128));
    });
    out.push(("serve.slab_idle_sweep_ns", sweep_ns));

    let ring = Ring::<u64>::with_capacity(1024);
    let ring_ns = ns_per_op(|| {
        ring.push(black_box(7)).expect("ring has room");
        black_box(ring.pop());
    });
    out.push(("serve.ring_push_pop_ns", ring_ns));
}

fn phy(
    inputs: &LayerInputs<'_>,
    payloads: &[QuantizedFeedback],
    seed: u64,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let model = inputs.model;
    let channel = crate::loadgen::station_channel(model);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sample_ns = ns_per_op(|| {
        black_box(channel.sample(&mut rng));
    });
    out.push(("wifi.channel_sample_ns", sample_ns));

    // One precoding group through the link simulation.
    let mimo = &model.config().mimo;
    let group = (mimo.nt / mimo.nss.max(1)).max(2).min(inputs.frames.len());
    let flat: Vec<Vec<f32>> = payloads[..group]
        .iter()
        .map(|p| model.reconstruct_quantized(p))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("replay reconstruction failed: {e}"))?;
    let stations: Vec<_> = flat
        .iter()
        .zip(&inputs.csi)
        .map(|(f, csi)| (f.as_slice(), *csi))
        .collect();
    let mut failed = false;
    let link_ns = ns_per_op(|| {
        let mut check = crate::loadgen::LinkCheck::new(model, seed);
        failed |= check.add(&stations).is_err();
        black_box(check.ber());
    });
    if failed {
        return Err("link simulation rejected the replay group".into());
    }
    out.push(("wifi.link_check_ns", link_ns));
    Ok(())
}
