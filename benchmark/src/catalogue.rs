//! The declarations in `BENCHMARK.json`: workloads, metrics, units, bounds.
//!
//! `BENCHMARK.json` is the single source of names and bounds. The harness
//! reads it at start, emits exactly the metrics it declares (anything
//! missing or extra is an error), and `compare` applies its bounds.

use crate::json::Json;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen; end-to-end only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Catalogue {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
    pub run_seconds: f64,
}

/// End-to-end metrics measured in host time or host memory. Every other
/// end-to-end metric is a simulated or counted figure that repeats exactly
/// for one seed.
pub const HOST_METRICS: [&str; 3] = ["setup_s", "frames_per_ref_call", "peak_rss_mib"];

/// The package root, fixed at build time: the benchmark is built and run in
/// the same checkout.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where result and trace files go (`benchmark/out/`, git-ignored).
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

fn metric(value: &Json, with_bound: bool) -> Result<MetricDecl, String> {
    let field = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("metric without a `{key}` string: {value}"))
    };
    let better = match field("better")?.as_str() {
        "lower" => Better::Lower,
        "higher" => Better::Higher,
        other => return Err(format!("`better` must be lower or higher, got `{other}`")),
    };
    let bound = value.get("bound").and_then(Json::as_f64);
    if with_bound && bound.is_none() {
        return Err(format!("end-to-end metric without a bound: {value}"));
    }
    Ok(MetricDecl {
        name: field("name")?,
        unit: field("unit")?,
        better,
        bound,
    })
}

impl Catalogue {
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` array"))
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("workload without a name: {w}"))
                })
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| metric(m, true))
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| metric(m, false))
                .collect::<Result<_, _>>()?,
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json has no `run_seconds`")?,
        })
    }

    /// Reads `BENCHMARK.json` from the repository root.
    pub fn load() -> Result<Self, String> {
        let path = package_dir().join("..").join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    pub fn end_to_end_decl(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}
