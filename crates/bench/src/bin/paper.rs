//! Prints the paper's figures and tables: `paper [NAME ...]`, every one when
//! no name is given. The workload comes from the `SPLITBEAM_*` knobs.

use splitbeam_bench::*;

type Figure = fn(&Workload) -> Vec<Table>;

const FIGURES: [(&str, Figure); 12] = [
    ("tab01", tab01_datasets),
    ("tab02", tab02_bottleneck_study),
    ("tab03", tab03_latency),
    ("fig06", fig06_comp_load_ratio),
    ("fig07", fig07_bf_size_ratio),
    ("fig09", fig09_ber_vs_compression),
    ("fig10", fig10_160mhz_comparison),
    ("fig11", fig11_ber_vs_flops),
    ("fig12", fig12_generalization),
    ("fig13", fig13_cross_env),
    ("ablation_quantization", ablation_quantization),
    ("ablation_loss", ablation_loss),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<Figure> = if names.is_empty() {
        FIGURES.iter().map(|&(_, figure)| figure).collect()
    } else {
        let lookup = |name: &String| FIGURES.iter().find(|(n, _)| n == name).map(|&(_, f)| f);
        match names.iter().map(lookup).collect() {
            Some(figures) => figures,
            None => {
                let known: Vec<&str> = FIGURES.iter().map(|&(n, _)| n).collect();
                eprintln!("unknown figure in {names:?}; known: {}", known.join(" "));
                std::process::exit(2);
            }
        }
    };
    let workload = Workload::from_env();
    for figure in selected {
        for table in figure(&workload) {
            print!("{table}");
        }
    }
}
