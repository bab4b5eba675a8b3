//! Set-up parity: what a workload's set-up feeds `Trainer::fit` is pinned at
//! every pool width.
//!
//! `generate_dataset` smooths every (user, subcarrier) amplitude series with
//! the capture pipeline's moving median, and `TrainingData::push_snapshot`
//! labels every example with the SVD beamforming matrices of
//! `ChannelSnapshot::ideal_beamforming`. Both hand their (user, subcarrier)
//! work out to the pool; a part runs the per-element operations of the
//! one-thread loop, and a median is a selection, so no bit may move. The
//! digests below were taken while both ran serially on the caller, on the
//! set-up the 3x3 / 80 MHz benchmark workloads build: the E1 catalogue
//! entry at the paper's median window of 10, its train and validation
//! snapshots labelled at 1/8 compression.
//!
//! The values pass through the C library's `ln`, `sin`, `cos`, `atan2` and
//! `hypot` (glibc's on Linux), which are not correctly rounded: the pins
//! hold for the toolchain and libm they were taken with, not on every
//! platform.

use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::training::TrainingData;
use splitbeam_datasets::catalog::dataset_for;
use splitbeam_datasets::generator::{generate_dataset, GeneratedDataset, GeneratorOptions};
use splitbeam_testkit::Fnv1a;
use wifi_phy::ofdm::Bandwidth;

/// Packets the dataset draws: enough that most windows of ten are whole.
const SAMPLES: usize = 24;

fn dataset() -> GeneratedDataset {
    let spec = dataset_for(3, Bandwidth::Mhz80, "E1").expect("E1 has a 3x3 / 80 MHz entry");
    let mut options = GeneratorOptions::quick(SAMPLES, 100 + u64::from(spec.id.0));
    options.capture.median_window = 10;
    generate_dataset(&spec, &options).expect("a catalogue spec generates")
}

/// Every CSI entry of the smoothed snapshots, with their count.
fn dataset_digest() -> u64 {
    let data = dataset();
    let mut digest = Fnv1a::default();
    digest.eat(&data.len().to_le_bytes());
    for snapshot in &data.snapshots {
        for user in 0..snapshot.num_users() {
            for h in snapshot.csi(user) {
                for z in h.as_slice() {
                    digest.eat(&z.re.to_bits().to_le_bytes());
                    digest.eat(&z.im.to_bits().to_le_bytes());
                }
            }
        }
    }
    digest.0
}

/// Every input and label of the train and validation examples, in order.
fn labels_digest() -> u64 {
    let data = dataset();
    let config = SplitBeamConfig::new(data.spec.mimo, CompressionLevel::OneEighth);
    let (train, validation, _) = data.split_train_val_test();
    let mut digest = Fnv1a::default();
    for snapshots in [train, validation] {
        let mut examples = TrainingData::new(config.clone());
        for snapshot in snapshots {
            examples.push_snapshot(snapshot);
        }
        digest.eat(&examples.len().to_le_bytes());
        for (input, label) in examples.examples() {
            for v in input.iter().chain(label) {
                digest.eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    digest.0
}

/// What a case is called, how its digest is taken, and the digest the
/// one-thread set-up gave.
type Case = (&'static str, fn() -> u64, u64);

#[test]
fn the_set_up_is_pinned_at_every_pool_width() {
    let cases: [Case; 2] = [
        (
            "generate_dataset, E1 3x3/80, window 10",
            dataset_digest,
            3_519_897_379_773_218_035,
        ),
        (
            "TrainingData inputs and labels, E1 3x3/80",
            labels_digest,
            9_470_201_541_661_414_983,
        ),
    ];
    for threads in [1usize, 2, 3] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
        let pool = pool.build().expect("the shim's build cannot fail");
        for (name, digest, pinned) in &cases {
            let got = pool.install(*digest);
            assert_eq!(
                got, *pinned,
                "{name} on {threads} threads: the set-up's bits moved"
            );
        }
    }
}
