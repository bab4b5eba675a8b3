//! Command line of the benchmark suite.
//!
//! ```text
//! splitbeam-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! splitbeam-benchmark run|trace [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
//! splitbeam-benchmark compare <base.json[,...]> <new.json[,...]> [--force] [--out <file>]
//! ```
//!
//! The first form runs one workload and ends its standard output with one
//! JSON result line. `run` and `trace` run that form once per workload, each
//! in a process of its own (peak RSS and the tuning probe are per process),
//! and write one result file. `compare` applies the bounds of
//! `BENCHMARK.json` to two sets of `run` files.

use splitbeam_analysis::alloc_sentinel::CountingAlloc;
use splitbeam_benchmark::catalogue::{self, Catalogue};
use splitbeam_benchmark::compare::{self, Side};
use splitbeam_benchmark::harness::{self, RunArgs};
use splitbeam_benchmark::host::{Fingerprint, RefProbes};
use splitbeam_benchmark::json::{self, Json};
use splitbeam_benchmark::stats;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Counts allocations for the traced run's `serve.allocs_per_round`; a
/// relaxed counter increment per allocation, in both modes alike.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DEFAULT_SEED: u64 = 42;

struct Flags {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    force: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        force: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "`--seed` takes a whole number".to_string())?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "`--seconds` takes a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("`--seconds` must lie in (0, 60]".into());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".into()),
                };
            }
            "--smoke" => flags.smoke = true,
            "--force" => flags.force = true,
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn print_metrics(result: &harness::RunResult) {
    for m in &result.metrics {
        match m.slices {
            Some(s) => println!(
                "{:<40} {:>16.6} {:<8} median of {} (quartiles {:.6} .. {:.6})",
                m.name, m.value, m.unit, s.n, s.q1, s.q3
            ),
            None => println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        result.attempted, result.failed
    );
}

/// One workload, once; the last line of standard output is the result.
fn one(flags: &Flags, catalogue: &Catalogue) -> Result<(), String> {
    let args = RunArgs {
        workload: flags.workload.clone().expect("checked by the caller"),
        seed: flags.seed,
        seconds: flags.seconds.unwrap_or(catalogue.run_seconds),
        trace: flags.trace,
        smoke: flags.smoke,
    };
    let result = harness::run(&args, catalogue)?;
    print_metrics(&result);
    println!("{}", result.to_json());
    Ok(())
}

/// Every workload, each in a child process; writes one result file.
fn all(mode: &str, flags: &Flags, catalogue: &Catalogue) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let seconds = flags.seconds.unwrap_or(catalogue.run_seconds);
    let fingerprint = Fingerprint::take();
    fingerprint.guard()?;
    let probes = RefProbes::new();
    let (mut stream_ns, mut alu_ns) = (Vec::new(), Vec::new());
    let mut workloads = Vec::new();
    for workload in &catalogue.workloads {
        stream_ns.push(probes.stream_ns());
        alu_ns.push(probes.alu_ns());
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.as_str()])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if mode == "trace" { "1" } else { "0" }]);
        if flags.smoke {
            child.arg("--smoke");
        }
        let output = child
            .output()
            .map_err(|e| format!("cannot start the `{workload}` run: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        println!("== {workload} ==");
        print!("{stdout}");
        if !output.status.success() {
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            return Err(format!("the `{workload}` run failed ({})", output.status));
        }
        let line = stdout.lines().last().unwrap_or_default();
        let result =
            Json::parse(line).map_err(|e| format!("`{workload}` printed no result line: {e}"))?;
        workloads.push((workload.clone(), result));
    }
    let doc = Json::obj(vec![
        ("mode", Json::from(mode)),
        ("seed", Json::from(flags.seed)),
        ("seconds", Json::from(seconds)),
        ("smoke", Json::from(flags.smoke)),
        ("fingerprint", Json::from(fingerprint.identity())),
        (
            "host",
            Json::obj(vec![
                ("ref_stream_ns", Json::from(stats::median(&stream_ns))),
                ("ref_alu_ns", Json::from(stats::median(&alu_ns))),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = flags
        .out
        .clone()
        .unwrap_or_else(|| catalogue::out_dir().join(format!("{mode}.json")));
    json::write_file(&path, &doc)?;
    println!("wrote {}", path.display());
    Ok(())
}

fn read_side(list: &str) -> Result<Side, String> {
    let texts = list
        .split(',')
        .map(|path| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Side::parse(&texts)
}

/// Returns whether every metric stayed within its bound.
fn compare_files(flags: &Flags, catalogue: &Catalogue) -> Result<bool, String> {
    let [_, base, new] = flags.positional.as_slice() else {
        return Err("usage: compare <base.json[,...]> <new.json[,...]> [--force]".into());
    };
    let rows = compare::compare(catalogue, &read_side(base)?, &read_side(new)?, flags.force)?;
    for r in &rows {
        println!(
            "{:<20} {:<20} base {:>16.6}  new {:>16.6}  worse by {:>8.3}% (bound {:>5.1}%)  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_frac * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    if let Some(path) = &flags.out {
        json::write_file(path, &compare::to_json(&rows))?;
    }
    Ok(!rows.iter().any(|r| r.verdict.fails()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_flags(&args).and_then(|flags| {
        let catalogue = Catalogue::load()?;
        match (
            flags.positional.first().map(String::as_str),
            &flags.workload,
        ) {
            (None, Some(_)) => one(&flags, &catalogue).map(|()| true),
            (Some(mode @ ("run" | "trace")), None) => all(mode, &flags, &catalogue).map(|()| true),
            (Some("compare"), None) => compare_files(&flags, &catalogue),
            _ => Err(
                "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                      | run | trace | compare <base> <new>"
                    .into(),
            ),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("splitbeam-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
