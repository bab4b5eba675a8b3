//! `compare`: applies the bounds of `BENCHMARK.json` to two sets of result
//! files of the `run` subcommand.
//!
//! Each side may be several files (runs of one build); their per-metric
//! median is compared. A simulated or counted metric must be identical when
//! both sides ran the same seed. A host-time metric that worsened beyond its
//! bound is *regressed* — unless the benchmark-owned host probes moved by
//! more than that bound between the two sides, in which case the host
//! changed under the runs and the metric is *unresolved*.

use crate::catalogue::{Better, Catalogue, HOST_METRICS};
use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Unresolved,
    ExactMismatch,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::ExactMismatch => "EXACT MISMATCH",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::ExactMismatch)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Share of the base by which the metric got worse (negative: better).
    pub worse_frac: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// One side of the comparison: the parsed result files of one build.
pub struct Side {
    files: Vec<Json>,
}

impl Side {
    pub fn parse(texts: &[String]) -> Result<Self, String> {
        if texts.is_empty() {
            return Err("a side of the comparison has no files".into());
        }
        let files = texts
            .iter()
            .map(|t| Json::parse(t))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { files })
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        let first = self.files[0]
            .get(key)
            .ok_or_else(|| format!("result file has no `{key}`"))?;
        if self.files.iter().any(|f| f.get(key) != Some(first)) {
            return Err(format!("the files of one side disagree on `{key}`"));
        }
        Ok(first)
    }

    /// Median over the side's files of the number `pick` finds in each.
    fn median_of<'a>(
        &'a self,
        what: &str,
        pick: impl Fn(&'a Json) -> Option<&'a Json>,
    ) -> Result<f64, String> {
        let values = self
            .files
            .iter()
            .map(|f| {
                pick(f)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("a result file lacks {what}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(stats::median(&values))
    }

    fn metric(&self, workload: &str, metric: &str) -> Result<f64, String> {
        self.median_of(&format!("`{metric}` of `{workload}`"), |f| {
            f.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")
        })
    }

    fn probe(&self, name: &str) -> Result<f64, String> {
        self.median_of(&format!("host probe `{name}`"), |f| {
            f.get("host")?.get(name)
        })
    }
}

/// Compares `new` against `base`. Refuses files of different host
/// fingerprints unless `force` is set.
pub fn compare(
    catalogue: &Catalogue,
    base: &Side,
    new: &Side,
    force: bool,
) -> Result<Vec<Row>, String> {
    let (base_print, new_print) = (base.field("fingerprint")?, new.field("fingerprint")?);
    if base_print != new_print && !force {
        return Err(format!(
            "the two sides ran on different hosts or backends ({base_print} vs {new_print}); \
             pass --force to compare them anyway"
        ));
    }
    let same_seed = base.field("seed")? == new.field("seed")?;
    // How far the host itself moved between the two sides.
    let mut host_shift = 0f64;
    for probe in ["ref_stream_ns", "ref_alu_ns"] {
        let (b, n) = (base.probe(probe)?, new.probe(probe)?);
        host_shift = host_shift.max((n / b - 1.0).abs());
    }

    let mut rows = Vec::new();
    for workload in &catalogue.workloads {
        for decl in &catalogue.end_to_end {
            let bound = decl.bound.unwrap_or(0.0);
            let (b, n) = (
                base.metric(workload, &decl.name)?,
                new.metric(workload, &decl.name)?,
            );
            let worse_frac = match decl.better {
                Better::Lower => (n - b) / b,
                Better::Higher => (b - n) / b,
            };
            let host_time = HOST_METRICS.contains(&decl.name.as_str());
            let verdict = if !host_time && same_seed {
                if b == n {
                    Verdict::Within
                } else {
                    Verdict::ExactMismatch
                }
            } else if worse_frac <= bound {
                Verdict::Within
            } else if host_time && host_shift > bound {
                Verdict::Unresolved
            } else {
                Verdict::Regressed
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: decl.name.clone(),
                base: b,
                new: n,
                worse_frac,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn to_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("workload", Json::from(r.workload.as_str())),
                    ("metric", Json::from(r.metric.as_str())),
                    ("base", Json::from(r.base)),
                    ("new", Json::from(r.new)),
                    ("worse_frac", Json::from(r.worse_frac)),
                    ("bound", Json::from(r.bound)),
                    ("verdict", Json::from(r.verdict.label())),
                ])
            })
            .collect(),
    )
}
