//! The workspace's test kit — a dev-dependency only, never linked into a
//! product binary. It owns the pieces every parity suite used to copy:
//!
//! * the **one** process-wide kernel lock ([`with_kernel`] and friends): the
//!   kernel override is process-global, so two locks in one test binary are a
//!   race — the `one-kernel-lock` lint keeps `set_kernel(` in here;
//! * the seeded 2x2 model and the wire-frame builders, channel-derived
//!   ([`station_frame`]) and integer-derived ([`synthetic_frame`], whose
//!   bytes — and therefore the digests pinned over them — are the same on
//!   every host);
//! * [`Fnv1a`], the digest those pins are taken with;
//! * [`first_divergence`] / [`session_divergence`], which name the first
//!   `(station, field)` two servers disagree on;
//! * [`matrix`]: one scenario description and the serving-parity matrix.

pub mod matrix;

use mimo_math::kernel::{set_kernel, KernelChoice};
use mimo_math::Backend;
use mimo_math::Int8Kernel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam::quantization::QuantizedFeedback;
use splitbeam::{wire, QuantizedTail};
use splitbeam_serve::driver::SimTraffic;
use splitbeam_serve::{ApServer, RoundSummary, StationId, StationSession};
use std::sync::{Mutex, MutexGuard, PoisonError};
use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

static KERNEL_LOCK: Mutex<()> = Mutex::new(());

/// Holds the kernel lock and restores default dispatch when dropped — also
/// on panic, so one failing test cannot leak its pin into the next. A
/// poisoned lock guards no data and is simply taken.
struct KernelPin {
    _lock: MutexGuard<'static, ()>,
}

impl KernelPin {
    fn take() -> Self {
        Self {
            _lock: KERNEL_LOCK.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl Drop for KernelPin {
    fn drop(&mut self) {
        set_kernel(None);
    }
}

/// Runs `f` with the kernel pinned to `choice`.
pub fn with_kernel<T>(choice: KernelChoice, f: impl FnOnce() -> T) -> T {
    let _pin = KernelPin::take();
    set_kernel(Some(choice));
    f()
}

/// Runs `f` under whatever kernel the process dispatches to, with no other
/// test of the binary able to re-pin it meanwhile: for tests that compare
/// two servers without caring which kernel both use.
pub fn with_ambient_kernel<T>(f: impl FnOnce() -> T) -> T {
    let _pin = KernelPin::take();
    f()
}

/// Runs `f` with `SPLITBEAM_KERNEL` set to `value` and the cached resolution
/// dropped, then restores the variable, so a run that forces
/// `SPLITBEAM_KERNEL=scalar` keeps its setting for every later test.
pub fn with_env_kernel<T>(value: &str, f: impl FnOnce() -> T) -> T {
    struct RestoreEnv(Option<String>);
    impl Drop for RestoreEnv {
        fn drop(&mut self) {
            match self.0.take() {
                Some(value) => std::env::set_var("SPLITBEAM_KERNEL", value),
                None => std::env::remove_var("SPLITBEAM_KERNEL"),
            }
        }
    }
    // Declared first, dropped last: the pin's `set_kernel(None)` then
    // re-resolves from the restored variable.
    let _pin = KernelPin::take();
    let _restore = RestoreEnv(mimo_math::env::raw("SPLITBEAM_KERNEL"));
    std::env::set_var("SPLITBEAM_KERNEL", value);
    set_kernel(None);
    f()
}

/// The kernel classes this host can run: scalar always, auto when it
/// dispatches to something else.
pub fn kernel_choices() -> Vec<KernelChoice> {
    Backend::arms(|level| match level {
        Backend::Scalar => KernelChoice::Scalar,
        _ => KernelChoice::Auto,
    })
}

/// A seeded, untrained 2x2 model.
pub fn model_with(bandwidth: Bandwidth, level: CompressionLevel, seed: u64) -> SplitBeamModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    SplitBeamModel::new(
        SplitBeamConfig::new(MimoConfig::symmetric(2, bandwidth), level),
        &mut rng,
    )
}

/// The model nearly every serving test uses: 2x2, 20 MHz, 1/8 compression.
pub fn small_model(seed: u64) -> SplitBeamModel {
    model_with(Bandwidth::Mhz20, CompressionLevel::OneEighth, seed)
}

/// One station's report of a seeded E1 channel draw, as the head compresses
/// and quantizes it. The head runs the dispatched f32 kernel, so the bytes
/// depend on the backend: build once, replay under every kernel pin.
pub fn station_payload(model: &SplitBeamModel, seed: u64, bits: u8) -> QuantizedFeedback {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let bandwidth = model.config().mimo.bandwidth;
    let channel = ChannelModel::new(EnvironmentProfile::e1(), bandwidth, 2, 1, 1);
    let csi: Vec<f32> = channel
        .sample(&mut rng)
        .csi_real_vector(0)
        .into_iter()
        .map(|v| v as f32)
        .collect();
    model.compress_quantized(&csi, bits).unwrap()
}

/// [`station_payload`] on the wire.
pub fn station_frame(model: &SplitBeamModel, seed: u64, bits: u8) -> Vec<u8> {
    wire::encode_feedback(&station_payload(model, seed, bits)).unwrap()
}

/// A wire frame whose bytes come from integer arithmetic alone (no channel
/// model, no head inference): code `j` is `(salt + 29 j + 7) mod 2^bits`,
/// the range is `[-0.75 - range_steps.0 / 64, 0.5 + range_steps.1 / 32]`.
pub fn synthetic_frame(
    model: &SplitBeamModel,
    bits: u8,
    salt: u64,
    range_steps: (u64, u64),
) -> Vec<u8> {
    let payload = QuantizedFeedback {
        bits_per_value: bits,
        min: -0.75 - range_steps.0 as f32 / 64.0,
        max: 0.5 + range_steps.1 as f32 / 32.0,
        codes: (0..model.bottleneck_dim() as u64)
            .map(|j| ((salt + j * 29 + 7) % (1 << bits)) as u16)
            .collect(),
    };
    wire::encode_feedback(&payload).unwrap()
}

/// Replaces every frame's payload with a [`synthetic_frame`] of `(round,
/// station)`: which frames exist (drops, bursts, churn) stays the
/// generator's, what they carry no longer depends on the host.
pub fn pin_payloads(traffic: &mut SimTraffic, model: &SplitBeamModel) {
    let bits = traffic.bits_per_value;
    for (round, sim_round) in traffic.rounds.iter_mut().enumerate() {
        for (id, frame) in &mut sim_round.frames {
            if let Some(frame) = frame {
                let salt = *id * 131 + round as u64 * 17;
                *frame = synthetic_frame(model, bits, salt, (salt % 16, salt % 8));
            }
        }
    }
}

/// What the scalar int8 tail reconstructs from `frame` — the one answer
/// every int8 serving path must give on every SIMD tier.
pub fn int8_reference(tail: &QuantizedTail, frame: &[u8]) -> Vec<f32> {
    let payload = wire::decode_feedback(frame).unwrap();
    tail.reconstruct_quantized(&payload, Int8Kernel::Scalar)
        .unwrap()
}

/// FNV-1a, the digest the pinned serving values are taken with.
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in one closed round: its summary, then the feedback bits the
    /// server holds for stations `0..stations`. The summary goes in as the
    /// text of a named field list, written as its `Debug` form was when the
    /// pins were taken; `discarded`, which came later, only when non-zero.
    /// A field added to [`RoundSummary`] moves no pin until it is listed.
    pub fn eat_round(&mut self, server: &ApServer, summary: &RoundSummary, stations: StationId) {
        let (s, d) = (summary, &summary.delay);
        let delay = format!(
            "RoundDelayStats {{ head_ns: {}, queue_ns: {}, air_ns: {}, tail_ns: {}, \
             worst_e2e_ns: {} }}",
            d.head_ns, d.queue_ns, d.air_ns, d.tail_ns, d.worst_e2e_ns
        );
        let fields = [
            ("round", Some(s.round.to_string())),
            ("served", Some(s.served.to_string())),
            ("stale", Some(s.stale.to_string())),
            (
                "awaiting_first_report",
                Some(s.awaiting_first_report.to_string()),
            ),
            ("batches", Some(s.batches.to_string())),
            ("on_time", Some(s.on_time.to_string())),
            ("late", Some(s.late.to_string())),
            ("expired", Some(s.expired.to_string())),
            (
                "discarded",
                (s.discarded != 0).then(|| s.discarded.to_string()),
            ),
            ("delay", Some(delay)),
            ("lost", Some(s.lost.to_string())),
            ("corrupt", Some(s.corrupt.to_string())),
            ("retransmitted", Some(s.retransmitted.to_string())),
            ("stale_served", Some(s.stale_served.to_string())),
        ];
        let fields: Vec<String> = fields
            .iter()
            .filter_map(|(name, value)| Some(format!("{name}: {}", value.as_ref()?)))
            .collect();
        let text = format!("RoundSummary {{ {} }}", fields.join(", "));
        self.eat(text.as_bytes());
        for id in 0..stations {
            for v in server.feedback_of(id).unwrap_or_default() {
                self.eat(&v.to_bits().to_le_bytes());
            }
        }
    }
}

/// What the medium did to each round and what came out the other end,
/// whichever close mode, shard count or kernel served it: `[lost, corrupt,
/// retransmitted, served, on_time + late + expired, stale, stale_served]`.
pub fn fault_profile(summaries: &[RoundSummary]) -> Vec<[usize; 7]> {
    summaries
        .iter()
        .map(|s| {
            [
                s.lost,
                s.corrupt,
                s.retransmitted,
                s.served,
                s.on_time + s.late + s.expired,
                s.stale,
                s.stale_served,
            ]
        })
        .collect()
}

/// The first field on which `got` diverges from `want` after a round, as
/// `(station, field)`; station `None` is the round summary. `batches`
/// legitimately depends on shard count and micro-closes, so it is compared
/// only on request.
pub fn first_divergence(
    got: (&ApServer, &RoundSummary),
    want: (&ApServer, &RoundSummary),
    max_station: StationId,
    compare_batches: bool,
) -> Option<(Option<StationId>, String)> {
    summary_divergence(got.1, want.1, compare_batches)
        .map(|field| (None, field))
        .or_else(|| {
            session_divergence(got.0, want.0, max_station).map(|(id, field)| (Some(id), field))
        })
}

/// The first field on which two round summaries differ.
pub fn summary_divergence(
    got: &RoundSummary,
    want: &RoundSummary,
    compare_batches: bool,
) -> Option<String> {
    macro_rules! summary_field {
        ($($field:ident),*) => {$(
            if got.$field != want.$field {
                return Some(format!(
                    "summary.{}: got {:?}, want {:?}",
                    stringify!($field), got.$field, want.$field
                ));
            }
        )*};
    }
    summary_field!(
        round,
        served,
        stale,
        awaiting_first_report,
        on_time,
        late,
        expired,
        delay,
        lost,
        corrupt,
        retransmitted,
        stale_served
    );
    if compare_batches {
        summary_field!(batches);
    }
    None
}

/// The first `(station, field)` on which the two servers' sessions differ.
pub fn session_divergence(
    got: &ApServer,
    want: &ApServer,
    max_station: StationId,
) -> Option<(StationId, String)> {
    for id in 0..max_station {
        let (g, w) = match (got.session(id), want.session(id)) {
            (None, None) => continue,
            (Some(g), Some(w)) => (g, w),
            (g, w) => {
                return Some((
                    id,
                    format!("registered: got {}, want {}", g.is_some(), w.is_some()),
                ))
            }
        };
        macro_rules! session_field {
            ($($getter:ident),*) => {$(
                if g.$getter() != w.$getter() {
                    return Some((id, format!(
                        "{}: got {:?}, want {:?}",
                        stringify!($getter), g.$getter(), w.$getter()
                    )));
                }
            )*};
        }
        session_field!(
            last_round,
            served_late,
            last_stamp,
            health,
            has_pending,
            payloads_ingested
        );
        // Bit patterns, not float equality: parity means the same bits.
        let bits = |s: &StationSession| {
            s.feedback()
                .map(|f| f.iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
        };
        let (gb, wb) = (bits(g), bits(w));
        if gb != wb {
            let at = match (&gb, &wb) {
                (Some(a), Some(b)) => a.iter().zip(b).position(|(x, y)| x != y),
                _ => None,
            };
            return Some((id, format!("feedback (first differing value: {at:?})")));
        }
    }
    None
}
