//! The dataset catalog of Table I (D1–D15).

use crate::DatasetError;
use wifi_phy::channel::EnvironmentProfile;
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

/// Identifier of one dataset of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(pub u8);

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Whether a dataset corresponds to measured (Nexmon) or synthetic (MATLAB) data
/// in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Stands in for CSI measured with off-the-shelf routers.
    Measured,
    /// Stands in for the MATLAB WLAN-toolbox synthetic channels.
    Synthetic,
}

/// Specification of one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Table I identifier.
    pub id: DatasetId,
    /// Measured-equivalent or synthetic.
    pub kind: DatasetKind,
    /// MU-MIMO configuration.
    pub mimo: MimoConfig,
    /// Environment name ("E1", "E2" or "Model-B").
    pub environment: String,
    /// Number of CSI samples the paper collected for this dataset.
    pub samples: usize,
}

impl DatasetSpec {
    /// The environment profile used to generate this dataset.
    pub fn profile(&self) -> EnvironmentProfile {
        match self.environment.as_str() {
            "E1" => EnvironmentProfile::e1(),
            "E2" => EnvironmentProfile::e2(),
            _ => EnvironmentProfile::model_b(),
        }
    }

    /// A human-readable label such as `"D9: 2x2 @ 80 MHz in E1"`.
    pub fn label(&self) -> String {
        format!("{}: {} in {}", self.id, self.mimo.label(), self.environment)
    }
}

/// Builds the full Table I catalog: D1–D12 measured-equivalent (20/40/80 MHz ×
/// E1/E2 × 2x2/3x3) plus D13–D15 synthetic Model-B at 160 MHz (2x2/3x3/4x4),
/// 10 000 samples each.
pub fn dataset_catalog() -> Vec<DatasetSpec> {
    let mut out = Vec::with_capacity(15);
    let mut id = 1u8;
    for bandwidth in [Bandwidth::Mhz20, Bandwidth::Mhz40, Bandwidth::Mhz80] {
        for environment in ["E1", "E2"] {
            for order in [2usize, 3] {
                out.push(DatasetSpec {
                    id: DatasetId(id),
                    kind: DatasetKind::Measured,
                    mimo: MimoConfig::symmetric(order, bandwidth),
                    environment: environment.to_string(),
                    samples: 10_000,
                });
                id += 1;
            }
        }
    }
    for order in [2usize, 3, 4] {
        out.push(DatasetSpec {
            id: DatasetId(id),
            kind: DatasetKind::Synthetic,
            mimo: MimoConfig::symmetric(order, Bandwidth::Mhz160),
            environment: "Model-B".to_string(),
            samples: 10_000,
        });
        id += 1;
    }
    out
}

/// Looks up a dataset by its Table I identifier (1–15).
///
/// # Errors
/// Returns [`DatasetError::UnknownDataset`] for identifiers outside 1–15.
#[cfg(test)]
pub fn dataset_by_id(id: u8) -> Result<DatasetSpec, DatasetError> {
    dataset_catalog()
        .into_iter()
        .find(|d| d.id.0 == id)
        .ok_or_else(|| DatasetError::UnknownDataset(format!("D{id}")))
}

/// Finds the dataset matching a configuration and environment (the lookup used
/// by the cross-environment experiments: same configuration, other environment).
pub fn dataset_for(
    order: usize,
    bandwidth: Bandwidth,
    environment: &str,
) -> Result<DatasetSpec, DatasetError> {
    dataset_catalog()
        .into_iter()
        .find(|d| {
            d.mimo.nt == order && d.mimo.bandwidth == bandwidth && d.environment == environment
        })
        .ok_or_else(|| {
            DatasetError::UnknownDataset(format!("{order}x{order} @ {bandwidth} in {environment}"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_fifteen_entries() {
        let catalog = dataset_catalog();
        assert_eq!(catalog.len(), 15);
        assert_eq!(
            catalog
                .iter()
                .filter(|d| d.kind == DatasetKind::Measured)
                .count(),
            12
        );
        assert_eq!(
            catalog
                .iter()
                .filter(|d| d.kind == DatasetKind::Synthetic)
                .count(),
            3
        );
        // Total sample budget matches the paper's 120,000 measured + 30,000 synthetic.
        let measured: usize = catalog
            .iter()
            .filter(|d| d.kind == DatasetKind::Measured)
            .map(|d| d.samples)
            .sum();
        assert_eq!(measured, 120_000);
    }

    #[test]
    fn ids_are_unique_and_sequential() {
        let catalog = dataset_catalog();
        for (i, d) in catalog.iter().enumerate() {
            assert_eq!(d.id.0 as usize, i + 1);
        }
    }

    #[test]
    fn lookup_by_id_and_config() {
        let d9ish = dataset_for(2, Bandwidth::Mhz80, "E1").unwrap();
        assert_eq!(d9ish.mimo.bandwidth, Bandwidth::Mhz80);
        assert_eq!(d9ish.environment, "E1");
        assert!(dataset_by_id(1).is_ok());
        assert!(dataset_by_id(15).is_ok());
        assert!(dataset_by_id(16).is_err());
        assert!(dataset_for(5, Bandwidth::Mhz20, "E1").is_err());
    }

    #[test]
    fn synthetic_datasets_are_160mhz() {
        for d in dataset_catalog()
            .iter()
            .filter(|d| d.kind == DatasetKind::Synthetic)
        {
            assert_eq!(d.mimo.bandwidth, Bandwidth::Mhz160);
            assert_eq!(d.environment, "Model-B");
            assert_eq!(d.profile().name, "Model-B");
        }
    }

    #[test]
    fn labels_and_profiles() {
        let d = dataset_by_id(1).unwrap();
        assert!(d.label().starts_with("D1:"));
        assert_eq!(d.profile().name, d.environment);
    }
}
