//! Dataset generation: temporally-correlated CSI traces with capture artifacts.

use crate::capture::{
    align_sequences, normalize_by_mean_amplitude, simulate_receptions, smooth_csi_series,
    CaptureOptions,
};
use crate::catalog::DatasetSpec;
use crate::DatasetError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use wifi_phy::channel::{ChannelModel, ChannelSnapshot};

/// Options controlling dataset generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorOptions {
    /// Number of packets (CSI samples before drops) to simulate.
    pub samples: usize,
    /// Packet interval in seconds (the paper transmits 1000 packets/s). Must
    /// be zero or positive; `f64::INFINITY` makes consecutive packets
    /// independent (the fading process keeps no memory across them).
    pub packet_interval_s: f64,
    /// Capture-pipeline parameters.
    pub capture: CaptureOptions,
    /// RNG seed, so datasets are reproducible.
    pub seed: u64,
}

impl Default for GeneratorOptions {
    fn default() -> Self {
        Self {
            samples: 1000,
            packet_interval_s: 1e-3,
            capture: CaptureOptions::default(),
            seed: 0x5B17,
        }
    }
}

impl GeneratorOptions {
    /// A small configuration for unit tests and quick demos.
    pub fn quick(samples: usize, seed: u64) -> Self {
        Self {
            samples,
            seed,
            ..Self::default()
        }
    }
}

/// A generated dataset: the retained (aligned, cleaned) CSI snapshots of one
/// Table I entry.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedDataset {
    /// The dataset specification this data realizes.
    pub spec: DatasetSpec,
    /// The cleaned CSI snapshots, in time order.
    pub snapshots: Vec<ChannelSnapshot>,
}

impl GeneratedDataset {
    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Splits the snapshots 8:1:1 into train/validation/test, as in the paper.
    pub fn split_train_val_test(
        &self,
    ) -> (&[ChannelSnapshot], &[ChannelSnapshot], &[ChannelSnapshot]) {
        let n = self.snapshots.len();
        let train_end = n * 8 / 10;
        let val_end = n * 9 / 10;
        (
            &self.snapshots[..train_end],
            &self.snapshots[train_end..val_end],
            &self.snapshots[val_end..],
        )
    }
}

/// Generates one dataset according to its specification and the options.
///
/// # Errors
/// Returns [`DatasetError::InvalidParameters`] when `samples` is zero or
/// `packet_interval_s` is NaN (it would make every CSI entry NaN) or
/// negative.
pub fn generate_dataset(
    spec: &DatasetSpec,
    options: &GeneratorOptions,
) -> Result<GeneratedDataset, DatasetError> {
    if options.samples == 0 {
        return Err(DatasetError::InvalidParameters(
            "samples must be positive".into(),
        ));
    }
    if options.packet_interval_s.is_nan() || options.packet_interval_s < 0.0 {
        return Err(DatasetError::InvalidParameters(format!(
            "packet interval must be zero or positive, got {} s",
            options.packet_interval_s
        )));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(options.seed ^ (spec.id.0 as u64) << 32);
    let model = ChannelModel::from_config(spec.profile(), &spec.mimo);
    let mut process = model.process(&mut rng);

    // 1. Temporally correlated raw captures at the packet rate.
    let mut raw: Vec<ChannelSnapshot> = Vec::with_capacity(options.samples);
    for _ in 0..options.samples {
        raw.push(process.advance(options.packet_interval_s, &mut rng));
    }

    // 2. Per-station packet drops and sequence alignment.
    let receptions = simulate_receptions(
        spec.mimo.num_stations,
        options.samples,
        options.capture.drop_probability,
        &mut rng,
    );
    // The kept sequence numbers ascend, as the raw captures do.
    let mut kept = align_sequences(&receptions).into_iter().peekable();
    let mut aligned: Vec<ChannelSnapshot> = raw
        .into_iter()
        .enumerate()
        .filter_map(|(i, snap)| kept.next_if_eq(&i).map(|_| snap))
        .collect();

    // 3. Amplitude normalization per snapshot, in place, by the pool.
    if options.capture.normalize {
        aligned.par_iter_mut().for_each(|snap| {
            for user in 0..snap.num_users() {
                snap.csi_mut(user)
                    .iter_mut()
                    .for_each(normalize_by_mean_amplitude);
            }
        });
    }

    // 4. Moving-median smoothing along time, per user and subcarrier.
    smooth_csi_series(&mut aligned, options.capture.median_window);

    Ok(GeneratedDataset {
        spec: spec.clone(),
        snapshots: aligned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{dataset_by_id, dataset_for};
    use wifi_phy::ofdm::Bandwidth;

    #[test]
    fn generates_expected_shapes() {
        let spec = dataset_for(2, Bandwidth::Mhz20, "E1").unwrap();
        let data = generate_dataset(&spec, &GeneratorOptions::quick(50, 1)).unwrap();
        assert!(!data.is_empty());
        assert!(data.len() <= 50);
        let snap = &data.snapshots[0];
        assert_eq!(snap.num_users(), 2);
        assert_eq!(snap.subcarriers(), 56);
    }

    #[test]
    fn packet_drops_reduce_sample_count() {
        let spec = dataset_for(3, Bandwidth::Mhz20, "E2").unwrap();
        let mut opts = GeneratorOptions::quick(100, 2);
        opts.capture.drop_probability = 0.2;
        let data = generate_dataset(&spec, &opts).unwrap();
        assert!(
            data.len() < 100,
            "with 3 stations at 20% drop, alignment must discard packets"
        );
        assert!(data.len() > 20);
    }

    /// Average per-entry channel power across users and subcarriers.
    fn average_power(snap: &wifi_phy::channel::ChannelSnapshot) -> f64 {
        let reals: Vec<f64> = (0..snap.num_users())
            .flat_map(|u| snap.csi_real_vector(u))
            .collect();
        reals.iter().map(|v| v * v).sum::<f64>() / (reals.len() / 2) as f64
    }

    #[test]
    fn normalization_bounds_amplitude() {
        let spec = dataset_for(2, Bandwidth::Mhz20, "E2").unwrap();
        let data = generate_dataset(&spec, &GeneratorOptions::quick(30, 3)).unwrap();
        for snap in &data.snapshots {
            let power = average_power(snap);
            assert!(
                power > 0.1 && power < 10.0,
                "normalized power {power} out of range"
            );
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = dataset_by_id(1).unwrap();
        let a = generate_dataset(&spec, &GeneratorOptions::quick(20, 7)).unwrap();
        let b = generate_dataset(&spec, &GeneratorOptions::quick(20, 7)).unwrap();
        assert_eq!(a, b);
        let c = generate_dataset(&spec, &GeneratorOptions::quick(20, 8)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn split_ratios_are_8_1_1() {
        let spec = dataset_by_id(2).unwrap();
        let mut opts = GeneratorOptions::quick(40, 4);
        opts.capture.drop_probability = 0.0;
        let data = generate_dataset(&spec, &opts).unwrap();
        assert_eq!(data.len(), 40);
        let (train, val, test) = data.split_train_val_test();
        assert_eq!(train.len(), 32);
        assert_eq!(val.len(), 4);
        assert_eq!(test.len(), 4);
    }

    #[test]
    fn zero_samples_rejected() {
        let spec = dataset_by_id(1).unwrap();
        assert!(matches!(
            generate_dataset(&spec, &GeneratorOptions::quick(0, 1)),
            Err(DatasetError::InvalidParameters(_))
        ));
    }

    #[test]
    fn nan_or_negative_packet_interval_rejected_and_infinite_is_independent() {
        let spec = dataset_by_id(1).unwrap();
        let with_interval = |packet_interval_s| GeneratorOptions {
            packet_interval_s,
            ..GeneratorOptions::quick(5, 1)
        };
        for bad in [f64::NAN, -1e-3, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    generate_dataset(&spec, &with_interval(bad)),
                    Err(DatasetError::InvalidParameters(_))
                ),
                "interval {bad} accepted"
            );
        }
        let data = generate_dataset(&spec, &with_interval(f64::INFINITY)).unwrap();
        for snap in &data.snapshots {
            assert!(average_power(snap).is_finite());
        }
    }

    #[test]
    fn synthetic_160mhz_dataset_generates() {
        let spec = dataset_by_id(13).unwrap();
        let mut opts = GeneratorOptions::quick(5, 5);
        opts.capture.median_window = 1; // keep the test fast at 484 subcarriers
        let data = generate_dataset(&spec, &opts).unwrap();
        assert_eq!(data.snapshots[0].subcarriers(), 484);
    }
}
