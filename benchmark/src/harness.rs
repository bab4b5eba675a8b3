//! Runs one workload once: set-up, warm-up, measured slices, output checks.
//!
//! The untraced run reads the clock only at slice boundaries — around the
//! slice, and around the reference-kernel call that sits between two slices
//! (see [`RefKernel`]) — and reports the end-to-end metrics. The traced run alternates traced and untraced slices
//! (so the tracing overhead is measured against the same stretch of host
//! time), replays the lower layers in isolation and reports the per-layer
//! metrics. Host-time values are medians over slices.

use crate::catalogue::{self, Catalogue, MetricDecl};
use crate::host::{self, Fingerprint, RefKernel, RefProbes};
use crate::json::{self, Json};
use crate::layers;
use crate::spans::{self, Recorder};
use crate::stats::{self, Summary};
use crate::workloads::{self, Ops, Quality, Workload};
use splitbeam_analysis::alloc_sentinel;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up is run this many times; `setup_s` is the median.
const SETUPS: usize = 3;
/// Fewest measured slices of a run, however short `--seconds` is. The
/// workloads' counted windows end inside the second measured slice.
const MIN_SLICES: usize = 3;
/// Spans the recorder holds; a traced run of the default length records
/// about a tenth of this.
const SPAN_CAPACITY: usize = 1 << 18;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Slice statistics behind a host-time median, when there are any.
    pub slices: Option<Summary>,
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result line the driver reads.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::from(true)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj(vec![
                                    ("value", Json::from(m.value)),
                                    ("unit", Json::from(m.unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Builds the workload [`SETUPS`] times, dropping each instance before the
/// next is built so the peak resident set is one instance's.
fn set_up(args: &RunArgs) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(workloads::build(&args.workload, args.seed, args.smoke)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((workload.expect("SETUPS is at least one"), times))
}

/// Pairs produced values with the declarations: every declared metric must
/// be produced, and nothing undeclared may be.
fn declared(decls: &[MetricDecl], mut values: Values) -> Result<Vec<Metric>, String> {
    let metrics = decls
        .iter()
        .map(|decl| {
            let (value, slices) = values.remove(decl.name.as_str()).ok_or_else(|| {
                format!(
                    "BENCHMARK.json declares `{}` but the run did not produce it",
                    decl.name
                )
            })?;
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite", decl.name));
            }
            Ok(Metric {
                name: decl.name.clone(),
                value,
                unit: decl.unit.clone(),
                slices,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if let Some(extra) = values.keys().next() {
        return Err(format!(
            "the run produced `{extra}`, which BENCHMARK.json does not declare"
        ));
    }
    Ok(metrics)
}

fn quality_values(q: &Quality, values: &mut Values) {
    for (name, value) in [
        ("deadline_hit_rate", q.deadline_hit_rate),
        ("eq7d_p50_share", q.eq7d_p50_share),
        ("eq7d_p99_share", q.eq7d_p99_share),
        ("link_ber", q.link_ber),
        ("feedback_bits", q.feedback_bits),
        ("dot11_feedback_bits", q.dot11_feedback_bits),
    ] {
        values.insert(name, (value, None));
    }
}

/// Runs slices until `seconds` have passed and at least [`MIN_SLICES`] ran.
fn measure(seconds: f64, mut slice: impl FnMut() -> Ops) -> Ops {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut total = Ops::default();
    let mut slices = 0;
    while slices < MIN_SLICES || Instant::now() < deadline {
        total.add(slice());
        slices += 1;
    }
    total
}

fn timed_slice(workload: &mut dyn Workload, rec: Option<&mut Recorder>) -> (Ops, Duration) {
    let start = Instant::now();
    let ops = workload.slice(rec);
    (ops, start.elapsed())
}

pub fn run(args: &RunArgs, catalogue: &Catalogue) -> Result<RunResult, String> {
    if !catalogue.workloads.contains(&args.workload) {
        return Err(format!(
            "`{}` is not a workload of BENCHMARK.json ({})",
            args.workload,
            catalogue.workloads.join(", ")
        ));
    }
    let fingerprint = Fingerprint::take();
    fingerprint.guard()?;
    println!("host: {}", fingerprint.identity());
    println!("tune: {}", fingerprint.tune);

    let (mut workload, setup_times) = set_up(args)?;
    let mut reference = RefKernel::new(workload.reference_shape());
    workload.slice(None);
    let (total, metrics) = if args.trace {
        traced(args, catalogue, workload.as_mut(), &mut reference)?
    } else {
        untraced(
            args,
            catalogue,
            workload.as_mut(),
            &mut reference,
            &setup_times,
        )?
    };
    Ok(RunResult {
        attempted: total.attempted,
        failed: total.failed,
        metrics,
    })
}

fn untraced(
    args: &RunArgs,
    catalogue: &Catalogue,
    workload: &mut dyn Workload,
    reference: &mut RefKernel,
    setup_times: &[f64],
) -> Result<(Ops, Vec<Metric>), String> {
    // Frames served per reference call: each slice's wall time is counted in
    // units of the reference calls on either side of it.
    let mut rates = Vec::new();
    let mut before_ns = reference.call_ns();
    let total = measure(args.seconds, || {
        let (ops, wall) = timed_slice(workload, None);
        let after_ns = reference.call_ns();
        let reference_ns = (before_ns + after_ns) / 2.0;
        rates.push(ops.served() as f64 * reference_ns / wall.as_nanos() as f64);
        before_ns = after_ns;
        ops
    });
    let quality = workload.check()?;

    let mut values = Values::new();
    values.insert(
        "setup_s",
        (
            stats::median(setup_times),
            Some(stats::summarize(setup_times)),
        ),
    );
    values.insert(
        "frames_per_ref_call",
        (stats::median(&rates), Some(stats::summarize(&rates))),
    );
    quality_values(&quality, &mut values);
    values.insert("peak_rss_mib", (host::peak_rss_mib()?, None));
    Ok((total, declared(&catalogue.end_to_end, values)?))
}

type Values = BTreeMap<&'static str, (f64, Option<Summary>)>;

fn put(values: &mut Values, name: &'static str, value: f64) {
    values.insert(name, (value, None));
}

fn traced(
    args: &RunArgs,
    catalogue: &Catalogue,
    workload: &mut dyn Workload,
    reference: &mut RefKernel,
) -> Result<(Ops, Vec<Metric>), String> {
    let mut rec = Recorder::with_capacity(SPAN_CAPACITY);
    let probes = RefProbes::new();
    let (mut stream_ns, mut alu_ns, mut reference_ns) = (Vec::new(), Vec::new(), Vec::new());
    // Of the untraced slices: nanoseconds per attempted operation, and
    // operations served per second of wall time.
    let (mut plain_ns, mut plain_rates) = (Vec::new(), Vec::new());
    let mut traced_ops = Ops::default();
    let mut allocs = 0u64;
    // A traced and an untraced slice alternate, so both kinds sample the
    // same stretch of host time.
    let total = measure(args.seconds, || {
        stream_ns.push(probes.stream_ns());
        alu_ns.push(probes.alu_ns());
        reference_ns.push(reference.call_ns());
        let before = alloc_sentinel::stats();
        let ops = workload.slice(Some(&mut rec));
        let after = alloc_sentinel::stats();
        allocs += (after.allocs - before.allocs) + (after.reallocs - before.reallocs);
        traced_ops.add(ops);
        let (plain, plain_wall) = timed_slice(workload, None);
        plain_ns.push(plain_wall.as_nanos() as f64 / plain.attempted.max(1) as f64);
        plain_rates.push(plain.served() as f64 / plain_wall.as_secs_f64());
        let mut both = ops;
        both.add(plain);
        both
    });
    workload.check()?;

    let recorded = rec.spans();
    // The unit of work: a sounding round, or one station report.
    let unit = if recorded.iter().any(|s| s.name == "report") {
        "report"
    } else {
        "round"
    };
    let mut unit_ns = spans::durations_ns(recorded, unit);
    unit_ns.sort_by(f64::total_cmp);
    let frames = traced_ops.attempted.max(1) as f64;
    let per_frame = |name: &str| spans::total_ns(recorded, name) as f64 / frames;
    let unit_total = spans::total_ns(recorded, unit).max(1) as f64;

    let mut values = Values::new();
    let v = &mut values;
    // (A) Spans around the harness's own calls into each layer; a name the
    // workload records no span under reads 0.
    put(v, "serve.ingest_ns_per_frame", per_frame("ingest"));
    put(v, "serve.close_ns_per_frame", per_frame("close"));
    put(
        v,
        "serve.ingest_share",
        spans::total_ns(recorded, "ingest") as f64 / unit_total,
    );
    put(
        v,
        "unit.wall_p50_us",
        stats::quantile_sorted(&unit_ns, 0.5) / 1e3,
    );
    // Diagnostic only: the highest percentile the sample supports, up to p99.
    let tail = stats::highest_supported_percentile(unit_ns.len())
        .unwrap_or(0.5)
        .min(0.99);
    put(
        v,
        "unit.wall_tail_us",
        stats::quantile_sorted(&unit_ns, tail) / 1e3,
    );
    put(v, "unit.wall_tail_pct", tail * 100.0);
    put(v, "unit.allocs", allocs as f64 / unit_ns.len() as f64);
    put(v, "loadgen.frame_clone_ns", per_frame("loadgen.clone"));
    put(
        v,
        "station.head_quantize_ns_per_report",
        per_frame("head_quantize"),
    );
    put(
        v,
        "station.wire_encode_ns_per_report",
        per_frame("wire_encode"),
    );
    put(v, "station.dot11_report_ns", per_frame("dot11_report"));
    put(
        v,
        "trace.unit_self_share",
        spans::total_self_ns(recorded, unit) as f64 / unit_total,
    );

    // Counts at the same boundaries, over the workload's counted window.
    let counters = workload.counters();
    put(v, "serve.rounds", counters.rounds as f64);
    put(v, "serve.micro_closes", counters.micro_closes as f64);
    put(v, "serve.retransmitted", counters.retransmitted as f64);
    put(v, "serve.lost", counters.lost as f64);
    put(v, "serve.corrupt", counters.corrupt as f64);
    put(v, "serve.late", counters.late as f64);
    put(v, "serve.expired", counters.expired as f64);
    // 52 bits of the digest: what an f64 carries exactly.
    put(
        v,
        "serve.summary_digest",
        (counters.summary_digest & ((1 << 52) - 1)) as f64,
    );
    put(
        v,
        "hwsim.medium_air_ns_total",
        counters.medium_air_ns as f64,
    );
    put(
        v,
        "hwsim.medium_wait_ns_total",
        counters.medium_wait_ns as f64,
    );

    // Set-up stages of the instance that ran.
    let setup = workload.setup_times();
    put(v, "setup.train_s", setup.train_s);
    put(v, "setup.traffic_gen_s", setup.traffic_gen_s);
    put(v, "setup.register_s", setup.register_s);
    put(v, "setup.tail_bind_s", setup.tail_bind_s);

    // (B) Isolated replays of the lower layers.
    for (name, value) in layers::replay(&workload.layer_inputs(), args.seed)? {
        put(v, name, value);
    }

    // Reconciliation: what the isolated stages leave of one operation.
    let explained: f64 = workload
        .stages()
        .iter()
        .map(|name| v.get(name).map_or(0.0, |(value, _)| *value))
        .sum();
    let op_ns = stats::median(&plain_ns);
    put(v, "recon.residual_frac", (op_ns - explained) / op_ns);

    // The harness itself.
    // Traced cost per operation is taken from the unit spans, so work only
    // the traced slice does (the station's 802.11 reports) stays out of it.
    put(
        v,
        "trace.overhead_frac",
        (unit_total / frames - op_ns) / op_ns,
    );
    put(v, "trace.spans_dropped", rec.dropped() as f64);
    put(v, "host.raw_frames_per_s", stats::median(&plain_rates));
    put(v, "host.ref_kernel_ns", stats::median(&reference_ns));
    put(v, "host.ref_stream_ns", stats::median(&stream_ns));
    put(v, "host.ref_alu_ns", stats::median(&alu_ns));

    let metrics = declared(&catalogue.per_layer, values)?;
    write_trace(args, &rec, &metrics)?;
    Ok((total, metrics))
}

/// Writes `benchmark/out/trace.<workload>.json`: the spans and the per-layer
/// metrics derived from them.
fn write_trace(args: &RunArgs, rec: &Recorder, metrics: &[Metric]) -> Result<(), String> {
    let path = catalogue::out_dir().join(format!("trace.{}.json", args.workload));
    let doc = Json::obj(vec![
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        (
            "per_layer",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), Json::from(m.value)))
                    .collect(),
            ),
        ),
        ("spans", spans::to_json(rec.spans(), rec.dropped())),
    ]);
    json::write_file(&path, &doc)?;
    println!("trace: {}", path.display());
    Ok(())
}
