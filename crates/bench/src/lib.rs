//! The SplitBeam evaluation: every figure and table of the paper as a
//! function that returns [`Table`]s.
//!
//! The pipeline is written once — generate a dataset, train a SplitBeam model
//! (and the LB-SciFi baseline), measure BER over the held-out test split — and
//! each figure is one `pub fn(&Workload) -> Vec<Table>` over it. The `paper`
//! binary prints them; `tests/paper_claims.rs` checks the closed-form rows.
//!
//! The default workload sizes are deliberately modest so every figure can be
//! regenerated on a laptop in minutes; set the environment variables
//! `SPLITBEAM_SAMPLES` (CSI snapshots per dataset), `SPLITBEAM_EPOCHS`
//! (training epochs) and `SPLITBEAM_TEST_SNAPSHOTS` to approach the paper's
//! full-scale runs.

use std::fmt;

use dot11_bfi::complexity::dot11_sta_flops;
use dot11_bfi::feedback::paper_report_bits;
use dot11_bfi::quantize::AngleResolution;
use neural::loss::Loss;
use neural::trainer::TrainHistory;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::airtime::{bf_size_ratio_percent, splitbeam_feedback_bits};
use splitbeam::complexity::{
    comp_load_ratio_percent, splitbeam_head_macs, splitbeam_head_macs_analytical,
};
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam::quantization::DEFAULT_BITS_PER_VALUE;
use splitbeam::training::{train_model, TrainingData, TrainingOptions};
use splitbeam_baselines::dot11::dot11_feedback_for_snapshot;
use splitbeam_baselines::lbscifi::{angle_vector_for_user, LbSciFiConfig, LbSciFiModel};
use splitbeam_datasets::catalog::{dataset_catalog, dataset_for, DatasetKind, DatasetSpec};
use splitbeam_datasets::generator::{generate_dataset, GeneratedDataset, GeneratorOptions};
use splitbeam_hwsim::accelerator::AcceleratorModel;
use wifi_phy::channel::ChannelSnapshot;
use wifi_phy::coding::CodeRate;
use wifi_phy::link::{simulate_mu_mimo_ber, LinkConfig, LinkReport};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};
use wifi_phy::precoding::BeamformingFeedback;

/// Workload-size knobs, resolved from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// CSI snapshots generated per dataset.
    pub samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Test snapshots evaluated with the link simulator.
    pub test_snapshots: usize,
    /// Link-simulation SNR in dB.
    pub snr_db: f64,
}

impl Default for Workload {
    fn default() -> Self {
        Self {
            samples: 120,
            epochs: 10,
            test_snapshots: 8,
            snr_db: 18.0,
        }
    }
}

impl Workload {
    /// Reads the workload from `SPLITBEAM_SAMPLES`, `SPLITBEAM_EPOCHS`,
    /// `SPLITBEAM_TEST_SNAPSHOTS` and `SPLITBEAM_SNR_DB`, falling back to the
    /// quick defaults.
    pub fn from_env() -> Self {
        use mimo_math::env::parse_or;
        let default = Self::default();
        Self {
            samples: parse_or("SPLITBEAM_SAMPLES", default.samples),
            epochs: parse_or("SPLITBEAM_EPOCHS", default.epochs),
            test_snapshots: parse_or("SPLITBEAM_TEST_SNAPSHOTS", default.test_snapshots),
            snr_db: parse_or("SPLITBEAM_SNR_DB", default.snr_db),
        }
    }

    /// The paper's training schedule at this workload's epoch count.
    pub fn training(&self) -> TrainingOptions {
        TrainingOptions {
            epochs: self.epochs,
            ..TrainingOptions::default()
        }
    }
}

/// One printed table: each row is its label columns, then its `f64` values.
#[derive(Debug)]
pub struct Table {
    /// Printed above the table.
    pub title: &'static str,
    /// Column names: the label columns first, then one per value.
    pub header: Vec<&'static str>,
    /// Decimal places of each value column.
    pub precision: Vec<usize>,
    /// The rows, in print order.
    pub rows: Vec<Row>,
}

/// One row of a [`Table`].
#[derive(Debug)]
pub struct Row {
    /// Label cells (configuration, scheme, ...).
    pub labels: Vec<String>,
    /// Value cells, one per entry of [`Table::precision`].
    pub values: Vec<f64>,
}

impl Table {
    fn new(title: &'static str, header: &[&'static str], precision: &[usize]) -> Self {
        Self {
            title,
            header: header.to_vec(),
            precision: precision.to_vec(),
            rows: Vec::new(),
        }
    }

    fn push(&mut self, labels: Vec<String>, values: Vec<f64>) {
        assert_eq!(
            labels.len() + values.len(),
            self.header.len(),
            "{}",
            self.title
        );
        self.rows.push(Row { labels, values });
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n=== {} ===", self.title)?;
        writeln!(f, "{}", self.header.join("\t"))?;
        for row in &self.rows {
            let values = row.values.iter().zip(&self.precision);
            let cells: Vec<String> = (row.labels.iter().cloned())
                .chain(values.map(|(v, &digits)| format!("{v:.digits$}")))
                .collect();
            writeln!(f, "{}", cells.join("\t"))?;
        }
        Ok(())
    }
}

/// Generates (or regenerates) the dataset of one Table I entry at the workload size.
pub fn dataset(spec: &DatasetSpec, workload: &Workload, seed: u64) -> GeneratedDataset {
    let mut options = GeneratorOptions::quick(workload.samples, seed);
    // The moving median over hundreds of subcarriers is the slowest part of the
    // capture pipeline; keep it for the measured-equivalent bandwidths and skip
    // it for the very wide synthetic configurations.
    if spec.mimo.subcarriers() > 242 {
        options.capture.median_window = 1;
    }
    generate_dataset(spec, &options).expect("dataset generation cannot fail for catalog specs")
}

/// Trains one SplitBeam model on the train/validation split of a dataset.
pub fn train_splitbeam(
    config: &SplitBeamConfig,
    generated: &GeneratedDataset,
    options: &TrainingOptions,
    seed: u64,
) -> (SplitBeamModel, TrainHistory) {
    let (train_snaps, val_snaps, _) = generated.split_train_val_test();
    let examples = |snaps: &[ChannelSnapshot]| {
        let mut data = TrainingData::new(config.clone());
        snaps.iter().for_each(|snap| data.push_snapshot(snap));
        data
    };
    let (train, val) = (examples(train_snaps), examples(val_snaps));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    train_model(config, train.examples(), val.examples(), options, &mut rng)
}

/// Trains an LB-SciFi autoencoder on the same snapshots.
pub fn train_lbscifi(
    config: &LbSciFiConfig,
    generated: &GeneratedDataset,
    workload: &Workload,
    seed: u64,
) -> LbSciFiModel {
    let (train_snaps, _, _) = generated.split_train_val_test();
    let mut vectors = Vec::new();
    for snap in train_snaps {
        for user in 0..snap.num_users() {
            if let Ok(v) = angle_vector_for_user(snap, user) {
                vectors.push(v);
            }
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = LbSciFiModel::new(config.clone(), &mut rng);
    model.train(&vectors, workload.epochs, &mut rng);
    model
}

/// Which feedback scheme produces the beamforming matrices handed to the AP.
pub enum FeedbackScheme<'a> {
    /// Ideal (unquantized SVD) feedback — the upper bound.
    Ideal,
    /// The standard 802.11 quantized Givens feedback.
    Dot11(AngleResolution),
    /// A trained SplitBeam model, its bottleneck quantized to this many bits
    /// per value.
    SplitBeam(&'a SplitBeamModel, u8),
    /// A trained LB-SciFi autoencoder.
    LbSciFi(&'a LbSciFiModel),
}

impl FeedbackScheme<'_> {
    fn name(&self) -> &'static str {
        match self {
            FeedbackScheme::Ideal => "ideal",
            FeedbackScheme::Dot11(_) => "802.11",
            FeedbackScheme::SplitBeam(..) => "SplitBeam",
            FeedbackScheme::LbSciFi(_) => "LB-SciFi",
        }
    }

    /// The per-user feedback for one snapshot.
    fn feedback(&self, snapshot: &ChannelSnapshot) -> Result<BeamformingFeedback, String> {
        let users = 0..snapshot.num_users();
        match self {
            FeedbackScheme::Ideal => Ok(snapshot.ideal_beamforming()),
            FeedbackScheme::Dot11(resolution) => {
                dot11_feedback_for_snapshot(snapshot, *resolution).map_err(|e| e.to_string())
            }
            FeedbackScheme::SplitBeam(model, bits) => users
                .map(|u| model.feedback_for_user_quantized(snapshot, u, *bits))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string()),
            FeedbackScheme::LbSciFi(model) => users
                .map(|u| model.feedback_for_user(snapshot, u))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string()),
        }
    }
}

/// Measures the BER of a feedback scheme over the first
/// `workload.test_snapshots` snapshots of a test split.
///
/// # Panics
/// Panics, naming the scheme and the snapshot index, when the scheme's
/// feedback or the link simulation fails on a snapshot: a skipped snapshot
/// would leave a scheme that fails everywhere with the best possible BER.
pub fn measure_ber(
    scheme: &FeedbackScheme<'_>,
    test_snapshots: &[ChannelSnapshot],
    workload: &Workload,
    coding: Option<CodeRate>,
    seed: u64,
) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let link = LinkConfig {
        snr_db: workload.snr_db,
        symbols_per_subcarrier: 1,
        coding,
        ..LinkConfig::default()
    };
    let mut report = LinkReport::empty();
    for (index, snap) in test_snapshots
        .iter()
        .take(workload.test_snapshots)
        .enumerate()
    {
        let run = scheme.feedback(snap).and_then(|feedback| {
            simulate_mu_mimo_ber(snap, &feedback, &link, &mut rng).map_err(|e| e.to_string())
        });
        match run {
            Ok(r) => report.merge(&r),
            Err(e) => panic!("{} failed on test snapshot {index}: {e}", scheme.name()),
        }
    }
    report.ber()
}

fn mimo_label(order: usize) -> String {
    format!("{order}x{order}")
}

fn catalog_entry(order: usize, bw: Bandwidth, env: &str) -> DatasetSpec {
    dataset_for(order, bw, env).expect("catalog entry")
}

const MEASURED_BANDWIDTHS: [Bandwidth; 3] = [Bandwidth::Mhz20, Bandwidth::Mhz40, Bandwidth::Mhz80];

/// Table I: the dataset catalog (D1-D15) and the generated sample counts.
pub fn tab01_datasets(workload: &Workload) -> Vec<Table> {
    let mut table = Table::new(
        "Table I: datasets (paper sample budget vs generated-at-workload)",
        &["id", "kind", "config", "env", "paper samples", "generated"],
        &[0, 0],
    );
    for spec in &dataset_catalog() {
        let generated = dataset(spec, workload, spec.id.0 as u64);
        table.push(
            vec![
                spec.id.to_string(),
                format!("{:?}", spec.kind),
                spec.mimo.label(),
                spec.environment.clone(),
            ],
            vec![spec.samples as f64, generated.len() as f64],
        );
    }
    vec![table]
}

/// Table II: impact of the bottleneck placement and size on BER for 2x2 MIMO
/// at 20/40/80 MHz — the 3-layer SplitBeam model (K = 1/8) against a deeper
/// variant with an extra tail layer (the paper's "more complex DNN"). Head
/// MACs are complex MACs ([`splitbeam_head_macs`]); the extra layer sits in
/// the tail, so both variants carry the same station load. The paper keeps
/// the 3-layer model; at the default workload the deeper variant reads the
/// lower BER at all three bandwidths (0.0000 / 0.0111 / 0.0026 against
/// 0.0639 / 0.0413 / 0.0073).
pub fn tab02_bottleneck_study(workload: &Workload) -> Vec<Table> {
    let mut table = Table::new(
        "Table II: bottleneck architecture vs |B| vs BER (2x2)",
        &[
            "bandwidth",
            "architecture (real dims)",
            "|B| (complex)",
            "head MACs",
            "BER",
        ],
        &[0, 0, 4],
    );
    for bw in MEASURED_BANDWIDTHS {
        let spec = catalog_entry(2, bw, "E1");
        let generated = dataset(&spec, workload, 11 + bw.mhz() as u64);
        let (_, _, test) = generated.split_train_val_test();
        let base = SplitBeamConfig::new(spec.mimo, CompressionLevel::OneEighth);
        for config in [base.clone(), base.with_extra_tail_layer()] {
            let (model, _) = train_splitbeam(&config, &generated, &workload.training(), 21);
            let ber = measure_ber(
                &FeedbackScheme::SplitBeam(&model, 16),
                test,
                workload,
                None,
                31,
            );
            table.push(
                vec![bw.to_string(), config.architecture_label()],
                vec![
                    (config.bottleneck_dim() / 2) as f64,
                    splitbeam_head_macs(&config) as f64,
                    ber,
                ],
            );
        }
    }
    vec![table]
}

/// Table III: SplitBeam compute latency against the paper's values (K = 1/4,
/// 200 MHz MAC-array accelerator). Every cell must stay below the 10 ms
/// MU-MIMO sounding deadline.
pub fn tab03_latency(_: &Workload) -> Vec<Table> {
    let paper_ms = [
        (2, [0.0202, 0.0824, 0.3686, 1.477]),
        (3, [0.0459, 0.1867, 0.8337, 3.314]),
        (4, [0.0808, 0.3298, 1.4782, 5.883]),
    ];
    let mut table = Table::new(
        "Table III: SplitBeam compute latency (ms), K = 1/4, 200 MHz clock",
        &["MIMO", "bandwidth", "measured (model) ms", "paper ms"],
        &[4, 4],
    );
    for (order, paper) in paper_ms {
        for (bw, paper) in Bandwidth::ALL.into_iter().zip(paper) {
            let config = SplitBeamConfig::new(
                MimoConfig::symmetric(order, bw),
                CompressionLevel::OneQuarter,
            );
            let latency = AcceleratorModel::zynq_200mhz(order, order)
                .split_latency_from_config(&config)
                .total_s();
            table.push(
                vec![mimo_label(order), bw.to_string()],
                vec![latency * 1e3, paper],
            );
        }
    }
    vec![table]
}

/// The grid Figs. 6 and 7 share — 4x4 and 8x8 at 56/114/242 subcarriers, K
/// from 1/32 to 1/4 — and its average saving against 802.11. `point` gives
/// SplitBeam's count, 802.11's and SplitBeam's share of it in percent; the
/// average caps each share at 100 %.
fn ratio_grid(
    titles: [&'static str; 2],
    counts: [&'static str; 2],
    paper_percent: [f64; 2],
    point: impl Fn(usize, usize, f64) -> [f64; 3],
) -> Vec<Table> {
    let header = ["MIMO", "subcarriers", "K", counts[0], counts[1], "ratio %"];
    let mut grid = Table::new(titles[0], &header, &[0, 0, 2]);
    for order in [4, 8] {
        for s in [56, 114, 242] {
            for level in CompressionLevel::STANDARD {
                let labels = vec![mimo_label(order), s.to_string(), level.label()];
                grid.push(labels, point(order, s, level.ratio()).to_vec());
            }
        }
    }
    let mean_ratio = grid
        .rows
        .iter()
        .map(|r| r.values[2].min(100.0))
        .sum::<f64>()
        / grid.rows.len() as f64;
    let mut average = Table::new(
        titles[1],
        &["grid average %", "paper average %", "paper headline %"],
        &[1, 0, 0],
    );
    average.push(
        vec![],
        vec![100.0 - mean_ratio, paper_percent[0], paper_percent[1]],
    );
    vec![grid, average]
}

/// Figure 6: ratio of the STA computational load (SplitBeam / 802.11). The
/// paper reports a 73 % average saving; this model's grid averages 61.9 %,
/// because the dense head's load grows with the square of the subcarriers and
/// passes 802.11's at 4x4 with 114 subcarriers at K = 1/4, and with 242 from
/// K = 1/8.
pub fn fig06_comp_load_ratio(_: &Workload) -> Vec<Table> {
    ratio_grid(
        [
            "Figure 6: computational load ratio SplitBeam / 802.11 (%)",
            "Figure 6: average computational saving over the grid (%)",
        ],
        ["SplitBeam MACs", "802.11 FLOPs"],
        [73.0, 92.0],
        |n, s, k| {
            [
                splitbeam_head_macs_analytical(n, n, s, k),
                dot11_sta_flops(n, n, s) as f64,
                comp_load_ratio_percent(n, n, s, k),
            ]
        },
    )
}

/// Figure 7: ratio of the beamforming feedback size (SplitBeam / 802.11). At
/// each order and K the ratio is flat across bandwidths; the grid averages
/// an 85.5 % saving against the paper's 75 %.
pub fn fig07_bf_size_ratio(_: &Workload) -> Vec<Table> {
    ratio_grid(
        [
            "Figure 7: beamforming feedback size ratio SplitBeam / 802.11 (%)",
            "Figure 7: average airtime saving over the grid (%)",
        ],
        ["SplitBeam bits", "802.11 bits"],
        [75.0, 91.0],
        |n, s, k| {
            [
                splitbeam_feedback_bits(n, n, s, k, DEFAULT_BITS_PER_VALUE) as f64,
                paper_report_bits(n, s) as f64,
                bf_size_ratio_percent(n, n, s, k),
            ]
        },
    )
}

/// Figure 9: BER as a function of the compression rate K (SplitBeam 1/32 ...
/// 1/4 vs 802.11) for 2x2 and 3x3 in E1 and E2 at 20/40/80 MHz. The paper's
/// BER falls as K grows. At the default workload K = 1/4 reads a lower BER
/// than K = 1/32 in 11 of the 12 configurations, but the BER is not monotone
/// across all four levels, so no ordering is asserted.
pub fn fig09_ber_vs_compression(workload: &Workload) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 9: BER vs compression rate (SplitBeam vs 802.11)",
        &["config", "env", "bandwidth", "scheme", "BER"],
        &[4],
    );
    for order in [2usize, 3] {
        for env in ["E1", "E2"] {
            for bw in MEASURED_BANDWIDTHS {
                let spec = catalog_entry(order, bw, env);
                let generated = dataset(&spec, workload, 100 + spec.id.0 as u64);
                let (_, _, test) = generated.split_train_val_test();
                let labels =
                    |scheme: String| vec![mimo_label(order), env.into(), bw.to_string(), scheme];
                for level in CompressionLevel::STANDARD {
                    let config = SplitBeamConfig::new(spec.mimo, level);
                    let seed = 7 + spec.id.0 as u64;
                    let (model, _) =
                        train_splitbeam(&config, &generated, &workload.training(), seed);
                    let scheme = FeedbackScheme::SplitBeam(&model, 16);
                    let ber = measure_ber(&scheme, test, workload, None, 13);
                    table.push(labels(format!("SB {}", level.label())), vec![ber]);
                }
                let dot11 = FeedbackScheme::Dot11(AngleResolution::High);
                let ber = measure_ber(&dot11, test, workload, None, 13);
                table.push(labels("802.11".into()), vec![ber]);
            }
        }
    }
    vec![table]
}

fn synthetic_specs() -> Vec<DatasetSpec> {
    let mut catalog = dataset_catalog();
    catalog.retain(|d| d.kind == DatasetKind::Synthetic);
    catalog
}

/// Figure 10: BER at 160 MHz (synthetic Model-B datasets D13-D15), K = 1/8,
/// rate-1/2 BCC; SplitBeam vs LB-SciFi vs 802.11. The paper puts SplitBeam's
/// BER close to the other two at a lower station load; at the default
/// workload SplitBeam reads the highest BER of the three on all three
/// configurations (0.02–0.05 against at most 0.006). The station loads are
/// [`fig10_load`].
pub fn fig10_160mhz_comparison(workload: &Workload) -> Vec<Table> {
    let mut workload = *workload;
    // 160 MHz models are large; keep the default run small but representative.
    workload.samples = workload.samples.min(60);
    workload.test_snapshots = workload.test_snapshots.min(4);
    let mut table = Table::new(
        "Figure 10: BER at 160 MHz (K = 1/8, rate-1/2 BCC)",
        &["config", "scheme", "BER"],
        &[5],
    );
    for spec in synthetic_specs() {
        let generated = dataset(&spec, &workload, 200 + spec.id.0 as u64);
        let (_, _, test) = generated.split_train_val_test();
        let config = SplitBeamConfig::new(spec.mimo, CompressionLevel::OneEighth);
        let (model, _) = train_splitbeam(&config, &generated, &workload.training(), 17);
        let lbs_config = LbSciFiConfig::new(spec.mimo, 0.125);
        let lbs = train_lbscifi(&lbs_config, &generated, &workload, 18);
        for scheme in [
            FeedbackScheme::SplitBeam(&model, 16),
            FeedbackScheme::LbSciFi(&lbs),
            FeedbackScheme::Dot11(AngleResolution::High),
        ] {
            let ber = measure_ber(&scheme, test, &workload, Some(CodeRate::Half), 19);
            table.push(vec![spec.mimo.label(), scheme.name().into()], vec![ber]);
        }
    }
    vec![table, fig10_load()]
}

/// Figure 10's station loads at 160 MHz, K = 1/8, from the configurations:
/// SplitBeam's head in complex MACs, LB-SciFi's 802.11 pipeline plus its
/// encoder, and 802.11's SVD + Givens FLOPs. LB-SciFi is above 802.11 by
/// construction; unlike in the paper, SplitBeam's dense head is above both
/// at every order.
pub fn fig10_load() -> Table {
    let mut table = Table::new(
        "Figure 10: STA load at 160 MHz (K = 1/8)",
        &["config", "scheme", "STA FLOPs"],
        &[0],
    );
    for spec in synthetic_specs() {
        let m = spec.mimo;
        let config = SplitBeamConfig::new(m, CompressionLevel::OneEighth);
        for (scheme, load) in [
            ("SplitBeam", splitbeam_head_macs(&config)),
            ("LB-SciFi", LbSciFiConfig::new(m, 0.125).sta_flops()),
            ("802.11", dot11_sta_flops(m.nt, m.nr, m.subcarriers())),
        ] {
            table.push(vec![m.label(), scheme.into()], vec![load as f64]);
        }
    }
    table
}

const FIG11_CONFIGS: [(usize, Bandwidth); 4] = [
    (2, Bandwidth::Mhz40),
    (2, Bandwidth::Mhz80),
    (3, Bandwidth::Mhz40),
    (3, Bandwidth::Mhz80),
];

/// Figure 11: BER against the STA computational load — the SplitBeam
/// compression sweep against the single 802.11 operating point, for 2x2 and
/// 3x3 at 40 and 80 MHz, in E1. In the paper a SplitBeam point lies below
/// 802.11's load at comparable BER. At the default workload that holds at
/// 3x3 / 40 MHz only, where K = 1/16 and 1/8 read 0.0584 and 0.0687 against
/// 802.11's 0.0688 at a lower load; on the other three configurations every
/// SplitBeam point reads a higher BER than 802.11. The loads are
/// [`fig11_load`].
pub fn fig11_ber_vs_flops(workload: &Workload) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 11: BER vs STA computational load (BER)",
        &["config", "bandwidth", "scheme", "BER"],
        &[4],
    );
    for (order, bw) in FIG11_CONFIGS {
        let spec = catalog_entry(order, bw, "E1");
        let generated = dataset(&spec, workload, 300 + spec.id.0 as u64);
        let (_, _, test) = generated.split_train_val_test();
        let labels = |scheme: String| vec![mimo_label(order), bw.to_string(), scheme];
        for level in CompressionLevel::STANDARD {
            let config = SplitBeamConfig::new(spec.mimo, level);
            let (model, _) = train_splitbeam(&config, &generated, &workload.training(), 23);
            let ber = measure_ber(
                &FeedbackScheme::SplitBeam(&model, 16),
                test,
                workload,
                None,
                29,
            );
            table.push(labels(format!("SplitBeam {}", level.label())), vec![ber]);
        }
        let dot11 = FeedbackScheme::Dot11(AngleResolution::High);
        let ber = measure_ber(&dot11, test, workload, None, 29);
        table.push(labels("802.11".into()), vec![ber]);
    }
    vec![table, fig11_load()]
}

/// Figure 11's station loads, from the configurations: SplitBeam's head in
/// complex MACs per K, and 802.11's SVD + Givens FLOPs. At all four
/// configurations K = 1/32 and 1/16 are below 802.11.
pub fn fig11_load() -> Table {
    let mut table = Table::new(
        "Figure 11: BER vs STA computational load (load)",
        &["config", "bandwidth", "scheme", "STA FLOPs/MACs"],
        &[0],
    );
    for (order, bw) in FIG11_CONFIGS {
        let mimo = MimoConfig::symmetric(order, bw);
        let labels = |scheme: String| vec![mimo_label(order), bw.to_string(), scheme];
        for level in CompressionLevel::STANDARD {
            let macs = splitbeam_head_macs(&SplitBeamConfig::new(mimo, level));
            table.push(
                labels(format!("SplitBeam {}", level.label())),
                vec![macs as f64],
            );
        }
        let flops = dot11_sta_flops(order, order, bw.subcarriers());
        table.push(labels("802.11".into()), vec![flops as f64]);
    }
    table
}

/// Figure 12 (top): BER at K = 1/8, SplitBeam vs LB-SciFi, single-environment
/// (E1, E2) and cross-environment (trained in X, tested in Y), for 3x3
/// MU-MIMO at 80 MHz. The paper's SplitBeam generalizes to the unseen
/// environment. At the default workload the cross-environment BER is above
/// the single-environment one for both schemes in both directions, and
/// SplitBeam's is below LB-SciFi's on E1/E2 (0.0668 against 0.0864) and level
/// with it on E2/E1 (0.1142 against 0.1149). The bottom half is
/// [`fig12_load`].
pub fn fig12_generalization(workload: &Workload) -> Vec<Table> {
    let spec_e1 = catalog_entry(3, Bandwidth::Mhz80, "E1");
    let spec_e2 = catalog_entry(3, Bandwidth::Mhz80, "E2");
    let data_e1 = dataset(&spec_e1, workload, 401);
    let data_e2 = dataset(&spec_e2, workload, 402);

    let config = SplitBeamConfig::new(spec_e1.mimo, CompressionLevel::OneEighth);
    let lbs_config = LbSciFiConfig::new(spec_e1.mimo, 0.125);
    let (sb_e1, _) = train_splitbeam(&config, &data_e1, &workload.training(), 41);
    let (sb_e2, _) = train_splitbeam(&config, &data_e2, &workload.training(), 42);
    let lbs_e1 = train_lbscifi(&lbs_config, &data_e1, workload, 43);
    let lbs_e2 = train_lbscifi(&lbs_config, &data_e2, workload, 44);
    let (_, _, test_e1) = data_e1.split_train_val_test();
    let (_, _, test_e2) = data_e2.split_train_val_test();

    let mut table = Table::new(
        "Figure 12 (top): BER, single- and cross-environment, 3x3 @ 80 MHz, K = 1/8",
        &["scheme / environments", "BER"],
        &[4],
    );
    let cases = [
        (
            FeedbackScheme::SplitBeam(&sb_e1, 16),
            FeedbackScheme::SplitBeam(&sb_e2, 16),
        ),
        (
            FeedbackScheme::LbSciFi(&lbs_e1),
            FeedbackScheme::LbSciFi(&lbs_e2),
        ),
    ];
    for (e1, e2) in &cases {
        for (scheme, envs, test) in [
            (e1, "E1", test_e1),
            (e2, "E2", test_e2),
            (e1, "E1/E2", test_e2),
            (e2, "E2/E1", test_e1),
        ] {
            let ber = measure_ber(scheme, test, workload, None, 45);
            table.push(vec![format!("{} {envs}", scheme.name())], vec![ber]);
        }
    }
    vec![table, fig12_load()]
}

/// Figure 12 (bottom): the STA load per compression level at 3x3 / 80 MHz,
/// SplitBeam's head in complex MACs against LB-SciFi's 802.11 pipeline plus
/// encoder. SplitBeam is below LB-SciFi only at K <= 1/16.
pub fn fig12_load() -> Table {
    let mimo = MimoConfig::symmetric(3, Bandwidth::Mhz80);
    let mut table = Table::new(
        "Figure 12 (bottom): STA load per compression level, 3x3 @ 80 MHz",
        &["K", "SplitBeam MACs", "LB-SciFi FLOPs", "saving %"],
        &[0, 0, 1],
    );
    for level in CompressionLevel::STANDARD {
        let sb = splitbeam_head_macs(&SplitBeamConfig::new(mimo, level)) as f64;
        let lbs = LbSciFiConfig::new(mimo, level.ratio()).sta_flops() as f64;
        table.push(vec![level.label()], vec![sb, lbs, 100.0 * (1.0 - sb / lbs)]);
    }
    table
}

/// Figure 13: cross-environment BER vs bandwidth for 2x2 and 3x3 MU-MIMO at
/// K = 1/8, against the 802.11 baseline and the single-environment result.
/// The paper's cross-environment BER is above the single-environment one; at
/// the default workload it is in 11 of the 12 rows, so no ordering is
/// asserted.
pub fn fig13_cross_env(workload: &Workload) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 13: cross-environment BER (K = 1/8)",
        &[
            "config",
            "train/test env",
            "bandwidth",
            "802.11",
            "single-env",
            "cross-env",
        ],
        &[4, 4, 4],
    );
    for order in [2usize, 3] {
        for (train_env, test_env) in [("E1", "E2"), ("E2", "E1")] {
            for bw in MEASURED_BANDWIDTHS {
                let train_spec = catalog_entry(order, bw, train_env);
                let test_spec = catalog_entry(order, bw, test_env);
                let train_data = dataset(&train_spec, workload, 500 + train_spec.id.0 as u64);
                let test_data = dataset(&test_spec, workload, 500 + test_spec.id.0 as u64);
                let config = SplitBeamConfig::new(train_spec.mimo, CompressionLevel::OneEighth);
                let (model, _) = train_splitbeam(&config, &train_data, &workload.training(), 51);
                let (_, _, same_env_test) = train_data.split_train_val_test();
                let (_, _, cross_env_test) = test_data.split_train_val_test();
                let splitbeam = FeedbackScheme::SplitBeam(&model, 16);
                let dot11 = FeedbackScheme::Dot11(AngleResolution::High);
                table.push(
                    vec![
                        mimo_label(order),
                        format!("{train_env}/{test_env}"),
                        bw.to_string(),
                    ],
                    vec![
                        measure_ber(&dot11, cross_env_test, workload, None, 53),
                        measure_ber(&splitbeam, same_env_test, workload, None, 53),
                        measure_ber(&splitbeam, cross_env_test, workload, None, 53),
                    ],
                );
            }
        }
    }
    vec![table]
}

/// Ablation: the bottleneck quantization width against BER (the paper fixes
/// 16 bits per value). At the default workload the BER is flat from 6 to 16
/// bits (0.0140–0.0142) and 0.0134 at 4 bits.
pub fn ablation_quantization(workload: &Workload) -> Vec<Table> {
    let spec = catalog_entry(2, Bandwidth::Mhz20, "E1");
    let generated = dataset(&spec, workload, 601);
    let (_, _, test) = generated.split_train_val_test();
    let config = SplitBeamConfig::new(spec.mimo, CompressionLevel::OneEighth);
    let (model, _) = train_splitbeam(&config, &generated, &workload.training(), 61);
    let mut table = Table::new(
        "Ablation: bottleneck quantization width vs BER (2x2 @ 20 MHz, K = 1/8)",
        &["bits per value", "BER"],
        &[4],
    );
    for bits in [4u8, 6, 8, 12, 16] {
        let ber = measure_ber(
            &FeedbackScheme::SplitBeam(&model, bits),
            test,
            workload,
            None,
            62,
        );
        table.push(vec![bits.to_string()], vec![ber]);
    }
    vec![table]
}

/// Ablation: the training objective — the paper's normalized L1 (Eq. 8)
/// against MSE and MAE. At the default workload MSE and MAE read the lower
/// BER (0.0003 and 0.0000 against 0.0036).
pub fn ablation_loss(workload: &Workload) -> Vec<Table> {
    let spec = catalog_entry(2, Bandwidth::Mhz20, "E2");
    let generated = dataset(&spec, workload, 701);
    let (_, _, test) = generated.split_train_val_test();
    let config = SplitBeamConfig::new(spec.mimo, CompressionLevel::OneEighth);
    let mut table = Table::new(
        "Ablation: training objective vs BER (2x2 @ 20 MHz, K = 1/8)",
        &["loss", "final train loss", "BER"],
        &[5, 4],
    );
    for (name, loss) in [
        ("normalized L1 (Eq. 8)", Loss::NormalizedL1),
        ("MSE", Loss::Mse),
        ("MAE", Loss::Mae),
    ] {
        let options = TrainingOptions {
            loss,
            ..workload.training()
        };
        let (model, history) = train_splitbeam(&config, &generated, &options, 71);
        let ber = measure_ber(
            &FeedbackScheme::SplitBeam(&model, 16),
            test,
            workload,
            None,
            72,
        );
        table.push(
            vec![name.into()],
            vec![history.final_train_loss() as f64, ber],
        );
    }
    vec![table]
}
