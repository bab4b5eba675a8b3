//! Channel-synthesis parity: what `wifi_phy::channel` draws is pinned at
//! every pool width.
//!
//! `ChannelProcess::snapshot` — behind `ChannelModel::sample` and
//! `ChannelProcess::advance` — draws its estimation-noise uniforms on the
//! caller and then hands (user, subcarrier-block) parts to the pool, each of
//! which runs the per-element operations of the one-thread loop in the same
//! order. The digests below were taken before the snapshot was pooled or its
//! per-tap work hoisted, so neither may move a bit — at width 1, 2 or 3, with
//! many parts a station and with few (2x2 / 20 MHz is two), with and without
//! estimation noise (Model-B has none, so it draws nothing), with blocked
//! taps, on a matrix wider than one accumulator chunk (9x9), and through
//! `generate_dataset`. After every call the RNG's next `u64` is folded in
//! too: it moves if a snapshot draws one value more or fewer.
//!
//! The values pass through the C library's `ln`, `sin` and `cos` (glibc's on
//! Linux), which are not correctly rounded: the pins hold for the toolchain
//! and libm they were taken with, not on every platform.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use splitbeam_datasets::catalog::dataset_for;
use splitbeam_datasets::generator::{generate_dataset, GeneratorOptions};
use splitbeam_testkit::Fnv1a;
use wifi_phy::channel::{ChannelModel, ChannelSnapshot, EnvironmentProfile};
use wifi_phy::ofdm::Bandwidth;

fn eat_snapshot(digest: &mut Fnv1a, snapshot: &ChannelSnapshot) {
    for user in 0..snapshot.num_users() {
        for h in snapshot.csi(user) {
            for z in h.as_slice() {
                digest.eat(&z.re.to_bits().to_le_bytes());
                digest.eat(&z.im.to_bits().to_le_bytes());
            }
        }
    }
}

/// Three independent snapshots of `model`, each followed by the RNG's next
/// draw.
fn sample_digest(model: &ChannelModel, seed: u64) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut digest = Fnv1a::default();
    for _ in 0..3 {
        eat_snapshot(&mut digest, &model.sample(&mut rng));
        digest.eat(&rng.next_u64().to_le_bytes());
    }
    digest.0
}

/// A process started from `seed` and advanced four packets.
fn advance_digest(model: &ChannelModel, seed: u64) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut process = model.process(&mut rng);
    let mut digest = Fnv1a::default();
    for _ in 0..4 {
        eat_snapshot(&mut digest, &process.advance(1e-3, &mut rng));
        digest.eat(&rng.next_u64().to_le_bytes());
    }
    digest.0
}

/// A short 3x3 / 80 MHz dataset, capture artifacts included.
fn dataset_digest() -> u64 {
    let spec = dataset_for(3, Bandwidth::Mhz80, "E1").expect("E1 has a 3x3 / 80 MHz entry");
    let mut options = GeneratorOptions::quick(6, 26);
    options.capture.median_window = 3;
    let data = generate_dataset(&spec, &options).expect("a catalogue spec generates");
    let mut digest = Fnv1a::default();
    digest.eat(&data.len().to_le_bytes());
    for snapshot in &data.snapshots {
        eat_snapshot(&mut digest, snapshot);
    }
    digest.0
}

/// What a case is called, how its digest is taken, and the digest the
/// one-matrix-at-a-time loop gave.
type Case = (&'static str, fn() -> u64, u64);

#[test]
fn channel_snapshots_are_pinned_at_every_pool_width() {
    use EnvironmentProfile as Env;
    let cases: [Case; 7] = [
        (
            "E1 3x3/80, 1 user, sample",
            || sample_digest(&ChannelModel::new(Env::e1(), Bandwidth::Mhz80, 3, 1, 1), 1),
            7_116_147_833_415_827_203,
        ),
        (
            "E1 3x3/80, 3 users, sample",
            || sample_digest(&ChannelModel::new(Env::e1(), Bandwidth::Mhz80, 3, 3, 1), 2),
            11_156_404_512_325_065_585,
        ),
        (
            "E2 3x3/80, 2 users, blockage, advance",
            || {
                let blocking = Env {
                    blockage_probability: 0.5,
                    ..Env::e2()
                };
                advance_digest(&ChannelModel::new(blocking, Bandwidth::Mhz80, 3, 2, 1), 3)
            },
            4_422_994_065_712_528_331,
        ),
        (
            "Model-B 2x2/160, 2 users, no estimation noise, sample",
            || {
                sample_digest(
                    &ChannelModel::new(Env::model_b(), Bandwidth::Mhz160, 2, 2, 1),
                    4,
                )
            },
            7_026_404_692_383_465_876,
        ),
        (
            "E1 2x2/20, 2 users, two parts a user, sample",
            || sample_digest(&ChannelModel::new(Env::e1(), Bandwidth::Mhz20, 2, 2, 1), 5),
            14_504_005_668_916_203_123,
        ),
        (
            "E1 9x9/20, 1 user, wider than one accumulator chunk, sample",
            || sample_digest(&ChannelModel::new(Env::e1(), Bandwidth::Mhz20, 9, 1, 1), 6),
            10_217_567_611_903_076_217,
        ),
        (
            "generate_dataset, E1 3x3/80",
            dataset_digest,
            8_332_280_585_556_513_052,
        ),
    ];
    let pools: Vec<_> = [1usize, 2, 3]
        .map(|threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
            (threads, pool.build().expect("the shim's build cannot fail"))
        })
        .into();
    for (name, digest, pinned) in &cases {
        for (threads, pool) in &pools {
            let got = pool.install(*digest);
            assert_eq!(
                got, *pinned,
                "{name} on {threads} threads: the channel's bits or its draw count moved"
            );
        }
    }
}
