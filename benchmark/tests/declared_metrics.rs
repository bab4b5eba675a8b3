//! `BENCHMARK.json` and the program agree: every declared workload runs at
//! `--smoke` scale, untraced and traced, and prints exactly the declared
//! metrics, each once, with its declared unit.

use splitbeam_benchmark::catalogue::{Catalogue, MetricDecl, HOST_METRICS};
use splitbeam_benchmark::json::Json;
use splitbeam_benchmark::workloads;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_splitbeam-benchmark");

fn bench(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn the_declarations_are_well_formed() {
    let catalogue = Catalogue::load().expect("BENCHMARK.json loads");
    assert_eq!(catalogue.workloads, workloads::NAMES);

    let mut seen = BTreeSet::new();
    let metrics = catalogue.end_to_end.iter().chain(&catalogue.per_layer);
    for name in catalogue.workloads.iter().chain(metrics.map(|m| &m.name)) {
        assert!(valid_name(name), "`{name}` is not a valid name");
        assert!(seen.insert(name.clone()), "`{name}` is declared twice");
    }
    for decl in &catalogue.end_to_end {
        let bound = decl.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", decl.name);
    }
    let setup = catalogue
        .end_to_end_decl("setup_s")
        .expect("setup_s is declared");
    assert_eq!(setup.unit, "s");
    for host in HOST_METRICS {
        assert!(catalogue.end_to_end_decl(host).is_some(), "{host}");
    }
    assert!(catalogue.per_layer.iter().all(|m| m.bound.is_none()));
}

/// Runs one workload at smoke scale and checks the result line and the
/// metric listing above it against `decls`.
fn check_run(workload: &str, trace: &str, decls: &[MetricDecl], never_zero: bool) {
    let args = ["--workload", workload, "--seed", "3", "--seconds", "0.2"];
    let out = bench(&[&args[..], &["--trace", trace, "--smoke"]].concat());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout
        .lines()
        .next()
        .is_some_and(|l| l.starts_with("host: ")));

    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    let count = |key: &str| result.get(key).and_then(Json::as_f64).expect("a count");
    assert!(count("attempted") >= 1.0 && count("attempted").fract() == 0.0);
    assert_eq!(
        count("failed"),
        0.0,
        "the workloads are chosen so nothing fails"
    );

    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let printed: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    let declared: Vec<&str> = decls.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(printed, declared, "{workload} --trace {trace}");
    for (decl, (name, metric)) in decls.iter().zip(metrics) {
        let unit = metric.get("unit").and_then(Json::as_str);
        assert_eq!(unit, Some(decl.unit.as_str()), "{name}");
        let value = metric.get("value").and_then(Json::as_f64).expect("a value");
        assert!(value.is_finite(), "{name}");
        assert!(!never_zero || value != 0.0, "{workload}: {name} reads 0");
        // The listing names each metric on exactly one line, with its unit.
        let lines: Vec<&str> = stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(name.as_str()))
            .collect();
        assert_eq!(lines.len(), 1, "{name} listed {} times", lines.len());
        assert_eq!(lines[0].split_whitespace().nth(2), Some(decl.unit.as_str()));
    }
}

#[test]
fn every_workload_prints_exactly_the_end_to_end_metrics() {
    let catalogue = Catalogue::load().expect("BENCHMARK.json loads");
    for workload in &catalogue.workloads {
        check_run(workload, "0", &catalogue.end_to_end, true);
    }
}

#[test]
fn every_workload_prints_exactly_the_per_layer_metrics_when_traced() {
    let catalogue = Catalogue::load().expect("BENCHMARK.json loads");
    for workload in &catalogue.workloads {
        check_run(workload, "1", &catalogue.per_layer, false);
        let trace =
            splitbeam_benchmark::catalogue::out_dir().join(format!("trace.{workload}.json"));
        let text = std::fs::read_to_string(&trace).expect("the traced run wrote its spans");
        let doc = Json::parse(&text).expect("the trace file is JSON");
        let spans = doc.get("spans").expect("spans");
        let names = spans
            .get("name")
            .and_then(Json::as_arr)
            .expect("span names");
        assert!(!names.is_empty());
        for field in ["start_ns", "end_ns", "parent", "round_id"] {
            let column = spans.get(field).and_then(Json::as_arr).expect(field);
            assert_eq!(column.len(), names.len(), "{field}");
        }
    }
}

/// The result line of an untraced smoke run of `workload` lasting `seconds`.
fn smoke_result(workload: &str, seconds: &str) -> Json {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        seconds,
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(out.status.success(), "{workload} failed");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    Json::parse(stdout.lines().last().expect("a result line")).expect("JSON")
}

#[test]
fn simulated_metrics_do_not_depend_on_how_long_the_run_is() {
    let catalogue = Catalogue::load().expect("BENCHMARK.json loads");
    for workload in &catalogue.workloads {
        let (short, long) = (
            smoke_result(workload, "0.05"),
            smoke_result(workload, "0.5"),
        );
        let attempted = |r: &Json| r.get("attempted").and_then(Json::as_f64);
        assert!(attempted(&long) > attempted(&short), "{workload}");
        for decl in &catalogue.end_to_end {
            if HOST_METRICS.contains(&decl.name.as_str()) {
                continue;
            }
            let value = |r: &Json| {
                let metric = r.get("metrics").and_then(|m| m.get(&decl.name));
                metric.and_then(|m| m.get("value")).and_then(Json::as_f64)
            };
            assert_eq!(value(&short), value(&long), "{workload}: {}", decl.name);
        }
    }
}

#[test]
fn a_bad_invocation_fails_without_a_result_line() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "station_report", "--trace", "2"],
        &["--workload", "station_report", "--seconds", "0"],
        &["frobnicate"],
        &[],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("\"metrics\""), "{args:?} printed a result");
    }
}

#[test]
fn run_writes_a_file_compare_accepts() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = dir.join("smoke_run.json");
    let file = file.to_str().expect("UTF-8 path");
    let out = bench(&["run", "--smoke", "--seconds", "0.2", "--out", file]);
    assert!(
        out.status.success(),
        "run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(file).expect("result file")).expect("JSON");
    assert!(doc.get("fingerprint").and_then(Json::as_str).is_some());
    let catalogue = Catalogue::load().expect("BENCHMARK.json loads");
    let ran = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads");
    assert_eq!(
        ran.iter().map(|(name, _)| name).collect::<Vec<_>>(),
        catalogue.workloads.iter().collect::<Vec<_>>()
    );

    // A file compared with itself is within every bound.
    let verdicts = dir.join("smoke_compare.json");
    let out = bench(&["compare", file, file, "--out", verdicts.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "compare failed:\n{stdout}");
    let rows = catalogue.workloads.len() * catalogue.end_to_end.len();
    assert_eq!(stdout.matches("within bound").count(), rows);
    let written = Json::parse(&std::fs::read_to_string(verdicts).unwrap()).expect("JSON");
    assert_eq!(written.as_arr().map(<[Json]>::len), Some(rows));
}
