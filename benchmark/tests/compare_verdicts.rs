//! `compare` verdicts on hand-built result files.

use splitbeam_benchmark::catalogue::Catalogue;
use splitbeam_benchmark::compare::{compare, Side, Verdict};

const CATALOGUE: &str = r#"{
  "run_seconds": 1,
  "workloads": [{"name": "w", "why": "fixture"}],
  "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "frames_per_ref_call", "unit": "1/ref", "better": "higher", "bound": 0.1},
    {"name": "deadline_hit_rate", "unit": "ratio", "better": "higher", "bound": 0.02}
  ],
  "per_layer": [{"name": "serve.lost", "unit": "count", "better": "lower"}]
}"#;

#[derive(Clone, Copy)]
struct File {
    seed: u64,
    fingerprint: &'static str,
    probe_ns: f64,
    setup_s: f64,
    frames_per_ref_call: f64,
    hit_rate: f64,
}

const BASE: File = File {
    seed: 42,
    fingerprint: "nproc=2 kernel=auto queue=wheel",
    probe_ns: 1000.0,
    setup_s: 2.0,
    frames_per_ref_call: 1000.0,
    hit_rate: 0.99,
};

impl File {
    fn text(&self) -> String {
        format!(
            r#"{{"mode": "run", "seed": {}, "fingerprint": "{}",
                "host": {{"ref_stream_ns": {}, "ref_alu_ns": {}}},
                "workloads": {{"w": {{"correct": true, "attempted": 10, "failed": 0, "metrics": {{
                    "setup_s": {{"value": {}, "unit": "s"}},
                    "frames_per_ref_call": {{"value": {}, "unit": "1/ref"}},
                    "deadline_hit_rate": {{"value": {}, "unit": "ratio"}}}}}}}}}}"#,
            self.seed,
            self.fingerprint,
            self.probe_ns,
            self.probe_ns,
            self.setup_s,
            self.frames_per_ref_call,
            self.hit_rate
        )
    }
}

fn side(files: &[File]) -> Side {
    Side::parse(&files.iter().map(File::text).collect::<Vec<_>>()).expect("fixture parses")
}

/// The verdict on `metric` when `new` is compared against [`BASE`].
fn verdict(new: File, metric: &str) -> Verdict {
    let catalogue = Catalogue::parse(CATALOGUE).expect("fixture catalogue parses");
    let rows = compare(&catalogue, &side(&[BASE]), &side(&[new]), false).expect("comparable");
    assert_eq!(rows.len(), 3, "one row per end-to-end metric and workload");
    rows.iter()
        .find(|r| r.metric == metric)
        .expect("every declared metric has a row")
        .verdict
}

#[test]
fn a_change_inside_the_bound_passes() {
    let new = File {
        frames_per_ref_call: 950.0,
        setup_s: 2.4,
        ..BASE
    };
    assert_eq!(verdict(new, "frames_per_ref_call"), Verdict::Within);
    assert_eq!(verdict(new, "setup_s"), Verdict::Within);
    // An improvement of any size is within bound.
    let faster = File {
        frames_per_ref_call: 5000.0,
        ..BASE
    };
    assert_eq!(verdict(faster, "frames_per_ref_call"), Verdict::Within);
}

#[test]
fn a_host_time_metric_beyond_its_bound_regressed() {
    let new = File {
        frames_per_ref_call: 800.0,
        ..BASE
    };
    let v = verdict(new, "frames_per_ref_call");
    assert_eq!(v, Verdict::Regressed);
    assert!(v.fails());
}

#[test]
fn a_moved_host_makes_a_slowdown_unresolved() {
    // The benchmark-owned probes ran 30% slower too: the host moved.
    let new = File {
        frames_per_ref_call: 800.0,
        probe_ns: 1300.0,
        ..BASE
    };
    let v = verdict(new, "frames_per_ref_call");
    assert_eq!(v, Verdict::Unresolved);
    assert!(!v.fails());
}

#[test]
fn a_simulated_metric_must_repeat_exactly_on_one_seed() {
    let new = File {
        hit_rate: 0.9899,
        ..BASE
    };
    let v = verdict(new, "deadline_hit_rate");
    assert_eq!(v, Verdict::ExactMismatch);
    assert!(v.fails());
    // A moved host does not excuse it.
    let new = File {
        hit_rate: 0.9899,
        probe_ns: 2000.0,
        ..BASE
    };
    assert_eq!(verdict(new, "deadline_hit_rate"), Verdict::ExactMismatch);
}

#[test]
fn across_seeds_a_simulated_metric_gets_its_bound() {
    let close = File {
        seed: 43,
        hit_rate: 0.985,
        ..BASE
    };
    assert_eq!(verdict(close, "deadline_hit_rate"), Verdict::Within);
    let far = File {
        seed: 43,
        hit_rate: 0.9,
        ..BASE
    };
    assert_eq!(verdict(far, "deadline_hit_rate"), Verdict::Regressed);
}

#[test]
fn sides_of_several_files_compare_their_medians() {
    let catalogue = Catalogue::parse(CATALOGUE).expect("fixture catalogue parses");
    let rates = |values: [f64; 3]| {
        side(&values.map(|frames_per_ref_call| File {
            frames_per_ref_call,
            ..BASE
        }))
    };
    // One slow outlier run does not move the median past the bound.
    let rows = compare(
        &catalogue,
        &rates([1000.0, 1010.0, 990.0]),
        &rates([600.0, 1005.0, 960.0]),
        false,
    )
    .expect("comparable");
    let row = rows
        .iter()
        .find(|r| r.metric == "frames_per_ref_call")
        .unwrap();
    assert_eq!((row.base, row.new), (1000.0, 960.0));
    assert_eq!(row.verdict, Verdict::Within);
}

#[test]
fn different_fingerprints_are_refused_without_force() {
    let catalogue = Catalogue::parse(CATALOGUE).expect("fixture catalogue parses");
    let other = || {
        side(&[File {
            fingerprint: "nproc=8 kernel=auto queue=wheel",
            ..BASE
        }])
    };
    let refused = compare(&catalogue, &side(&[BASE]), &other(), false);
    assert!(refused.unwrap_err().contains("--force"));
    assert!(compare(&catalogue, &side(&[BASE]), &other(), true).is_ok());
}

#[test]
fn a_file_without_a_declared_metric_is_an_error() {
    let catalogue = Catalogue::parse(CATALOGUE).expect("fixture catalogue parses");
    let stripped = BASE.text().replace("frames_per_ref_call", "something_else");
    let new = Side::parse(&[stripped]).expect("still JSON");
    assert!(compare(&catalogue, &side(&[BASE]), &new, false).is_err());
}
