//! The repo's benchmark suite. See `README.md` for the workload and metric
//! catalogue; `BENCHMARK.json` at the repository root declares them.

pub mod catalogue;
pub mod compare;
pub mod harness;
pub mod host;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod spans;
pub mod stats;
pub mod workloads;
