//! The paper's closed-form claims, checked on the rows the `paper` binary
//! prints (`crates/bench`): Table III against the 10 ms deadline, the Fig. 6
//! and Fig. 7 grids, and the station loads of Figs. 10-12. Trained BER
//! orderings are not asserted; each trained figure's doc comment states the
//! paper's ordering and what the default workload measured.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_bench::*;
use splitbeam_repro::dot11_bfi::complexity::dot11_sta_flops;
use splitbeam_repro::prelude::*;

const LEVELS: [&str; 4] = ["1/32", "1/16", "1/8", "1/4"];

/// The value in column `name` of the row whose labels are `labels`.
fn cell(table: &Table, labels: &[&str], name: &str) -> f64 {
    let first_value = table.header.len() - table.precision.len();
    let column = table.header.iter().position(|h| *h == name);
    let column = column.unwrap_or_else(|| panic!("{}: no column {name}", table.title));
    let row = table.rows.iter().find(|r| r.labels == labels);
    let row = row.unwrap_or_else(|| panic!("{}: no row {labels:?}", table.title));
    row.values[column - first_value]
}

#[test]
fn tab03_every_cell_meets_the_deadline_near_the_paper() {
    let table = &tab03_latency(&Workload::default())[0];
    assert_eq!(table.rows.len(), 12);
    for row in &table.rows {
        let (model_ms, paper_ms) = (row.values[0], row.values[1]);
        assert!(model_ms < 10.0, "{:?}: {model_ms} ms", row.labels);
        let ratio = model_ms / paper_ms;
        assert!(
            (1.0..=1.4).contains(&ratio),
            "{:?}: model/paper {ratio}",
            row.labels
        );
    }
}

#[test]
fn fig06_compute_ratio_rises_with_k_and_falls_with_order() {
    let tables = fig06_comp_load_ratio(&Workload::default());
    let grid = &tables[0];
    assert_eq!(grid.rows.len(), 24);
    let ratio = |order, s, k| cell(grid, &[order, s, k], "ratio %");
    for s in ["56", "114", "242"] {
        for order in ["4x4", "8x8"] {
            for k in LEVELS.windows(2) {
                assert!(
                    ratio(order, s, k[0]) < ratio(order, s, k[1]),
                    "{order} {s} {k:?}"
                );
            }
        }
        for k in LEVELS {
            assert!(ratio("8x8", s, k) < ratio("4x4", s, k), "{s} {k}");
        }
    }
    // The paper reports 73 % on average; see `fig06_comp_load_ratio`.
    let average = cell(&tables[1], &[], "grid average %");
    assert!((average - 61.9).abs() <= 0.1, "average saving {average} %");
}

#[test]
fn fig07_size_ratio_is_flat_in_bandwidth_and_falls_with_order() {
    let tables = fig07_bf_size_ratio(&Workload::default());
    let grid = &tables[0];
    assert_eq!(grid.rows.len(), 24);
    let ratio = |order, s, k| cell(grid, &[order, s, k], "ratio %");
    for k in LEVELS {
        for order in ["4x4", "8x8"] {
            let across_s = ["56", "114", "242"].map(|s| ratio(order, s, k));
            let spread = across_s.iter().fold(f64::MIN, |a, &b| a.max(b))
                - across_s.iter().fold(f64::MAX, |a, &b| a.min(b));
            assert!(spread < 0.1, "{order} {k}: {across_s:?}");
        }
        for s in ["56", "114", "242"] {
            assert!(ratio("8x8", s, k) < ratio("4x4", s, k), "{s} {k}");
        }
    }
    let average = cell(&tables[1], &[], "grid average %");
    assert!((average - 85.5).abs() <= 0.1, "average saving {average} %");
}

/// Both sides of the station-load comparison count complex MACs: at 2x2 /
/// 80 MHz, K = 1/32, the head is 29,524 complex MACs, below 802.11's 65,824
/// FLOPs (its real-interleaved count, 118,096, is not).
#[test]
fn fig11_low_k_heads_are_below_dot11() {
    let table = fig11_load();
    for (config, bw) in [
        ("2x2", "40 MHz"),
        ("2x2", "80 MHz"),
        ("3x3", "40 MHz"),
        ("3x3", "80 MHz"),
    ] {
        let load = |scheme: &str| cell(&table, &[config, bw, scheme], "STA FLOPs/MACs");
        let dot11 = load("802.11");
        for k in ["1/32", "1/16"] {
            let splitbeam = load(&format!("SplitBeam {k}"));
            assert!(
                splitbeam < dot11,
                "{config} {bw} K = {k}: {splitbeam} vs {dot11}"
            );
        }
    }
}

#[test]
fn lbscifi_load_is_at_least_dot11s() {
    let fig10 = fig10_load();
    for config in ["2x2 @ 160 MHz", "3x3 @ 160 MHz", "4x4 @ 160 MHz"] {
        let load = |scheme| cell(&fig10, &[config, scheme], "STA FLOPs");
        assert!(load("LB-SciFi") >= load("802.11"), "{config}");
    }
    let fig12 = fig12_load();
    let dot11 = dot11_sta_flops(3, 3, 242) as f64;
    for k in LEVELS {
        assert!(cell(&fig12, &[k], "LB-SciFi FLOPs") >= dot11, "K = {k}");
    }
}

/// A 2x2 model cannot compress 3x3 CSI. Its BER must be refused, not
/// reported as the 0.0 of a link that carried no bits.
#[test]
#[should_panic(expected = "SplitBeam failed on test snapshot 0")]
fn a_scheme_that_fails_on_a_snapshot_is_refused() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let config = SplitBeamConfig::new(
        MimoConfig::symmetric(2, Bandwidth::Mhz20),
        CompressionLevel::OneEighth,
    );
    let model = SplitBeamModel::new(config, &mut rng);
    let mimo = MimoConfig::symmetric(3, Bandwidth::Mhz20);
    let snapshot = ChannelModel::from_config(EnvironmentProfile::e1(), &mimo).sample(&mut rng);
    let scheme = FeedbackScheme::SplitBeam(&model, 16);
    measure_ber(&scheme, &[snapshot], &Workload::default(), None, 2);
}
