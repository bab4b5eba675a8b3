//! Training parity: what `Trainer::fit` produces is pinned, per kernel
//! backend, at every pool width.
//!
//! A mid-size network (1024 -> 128 -> 512, batches of 16 and a ragged 8)
//! puts every product of a training step above its hand-out threshold: the
//! forward GEMMs, the weight gradient `Xᵀ·G` with the optimizer update of
//! the weights in its epilogue, and the input gradient are each claimed by
//! the pool's threads in parts. The digests of the final weights and of the
//! loss curves were taken at the commit before any of them was pooled, when
//! all of them ran on one thread; a claimed part runs the same per-element
//! operations as the one-thread loop, so the bits may not move — under
//! `scalar` or `auto`, at width 1, 2 or 3, for Adam, SGD with momentum and
//! plain SGD (whose digests were taken at the commit before the optimizer's
//! rule became one kernel value). Inputs are integer formulas and one in 29
//! is an exact zero (the scalar forward and every weight gradient skip those
//! terms), so the digests hold on any host.

use mimo_math::kernel::KernelChoice;
use mimo_math::Backend;
use neural::layer::Activation;
use neural::loss::Loss;
use neural::network::{LayerSpec, Network};
use neural::optimizer::OptimizerKind;
use neural::trainer::{Example, TrainConfig, Trainer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_testkit::{with_kernel, Fnv1a};

const INPUT: usize = 1024;
const HIDDEN: usize = 128;
const OUTPUT: usize = 512;

fn examples(count: usize, salt: usize) -> Vec<Example> {
    (0..count)
        .map(|i| {
            let i = i + salt;
            let x: Vec<f32> = (0..INPUT)
                .map(|j| ((i * 7 + j * 13) % 29) as f32 / 29.0 - 14.0 / 29.0)
                .collect();
            let y: Vec<f32> = (0..OUTPUT)
                .map(|j| ((i * 5 + j * 3) % 17) as f32 / 17.0 - 0.5)
                .collect();
            (x, y)
        })
        .collect()
}

/// Trains a fresh network and digests its final parameters and its
/// history (training loss and validation metric per epoch, best epoch).
fn train_digest(kind: OptimizerKind) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(25);
    let mut network = Network::new(
        &[
            LayerSpec::new(INPUT, HIDDEN, Activation::Tanh),
            LayerSpec::new(HIDDEN, OUTPUT, Activation::Identity),
        ],
        &mut rng,
    );
    let trainer = Trainer::new(
        TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..TrainConfig::default()
        },
        Loss::NormalizedL1,
        kind,
    );
    let history = trainer.fit(&mut network, &examples(40, 0), &examples(8, 40), &mut rng);
    let mut digest = Fnv1a::default();
    for layer in network.layers() {
        for v in layer.weights.as_slice().iter().chain(layer.bias.as_slice()) {
            digest.eat(&v.to_bits().to_le_bytes());
        }
    }
    for v in history.train_loss.iter().chain(&history.validation_metric) {
        digest.eat(&v.to_bits().to_le_bytes());
    }
    digest.eat(&history.best_epoch.to_le_bytes());
    digest.0
}

#[test]
fn trained_weights_and_loss_curves_are_pinned_at_every_pool_width() {
    const ADAM: OptimizerKind = OptimizerKind::Adam {
        learning_rate: 1e-3,
    };
    const SGD: OptimizerKind = OptimizerKind::Sgd {
        learning_rate: 1e-4,
        momentum: 0.9,
    };
    const PLAIN: OptimizerKind = OptimizerKind::Sgd {
        learning_rate: 1e-3,
        momentum: 0.0,
    };
    // (kernel, optimizer, digest at the parent, runs on this host)
    let pinned = [
        (KernelChoice::Scalar, ADAM, 2_639_009_751_714_530_763, true),
        (KernelChoice::Scalar, SGD, 37_369_139_849_213_993, true),
        (KernelChoice::Scalar, PLAIN, 1_441_196_902_916_637_657, true),
        (
            KernelChoice::Auto,
            ADAM,
            11_346_264_855_076_536_149,
            Backend::host() >= Backend::Avx2,
        ),
        (
            KernelChoice::Auto,
            SGD,
            17_401_149_950_852_416_774,
            Backend::host() >= Backend::Avx2,
        ),
        (
            KernelChoice::Auto,
            PLAIN,
            14_767_089_461_933_339_997,
            Backend::host() >= Backend::Avx2,
        ),
    ];
    let pools: Vec<_> = [1usize, 2, 3]
        .map(|threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
            (threads, pool.build().expect("the shim's build cannot fail"))
        })
        .into();
    for (choice, kind, digest, available) in pinned {
        if !available {
            continue;
        }
        with_kernel(choice, || {
            for (threads, pool) in &pools {
                let got = pool.install(|| train_digest(kind));
                assert_eq!(
                    got, digest,
                    "{choice:?} {kind:?} on {threads} threads: the trained bits moved"
                );
            }
        });
    }
}
