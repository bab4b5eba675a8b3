//! Order statistics and span arithmetic behind every reported number.

use splitbeam_benchmark::spans::{self, Recorder, Span, NO_PARENT};
use splitbeam_benchmark::stats;

#[test]
fn quantiles_interpolate_between_order_statistics() {
    let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert_eq!(stats::quantile_sorted(&sorted, 0.0), 1.0);
    assert_eq!(stats::quantile_sorted(&sorted, 0.5), 3.0);
    assert_eq!(stats::quantile_sorted(&sorted, 1.0), 5.0);
    assert_eq!(stats::quantile_sorted(&sorted, 0.125), 1.5);
    // Out-of-range requests clamp instead of indexing past the sample.
    assert_eq!(stats::quantile_sorted(&sorted, 7.0), 5.0);
    assert_eq!(stats::quantile_sorted(&[9.0], 0.99), 9.0);
}

#[test]
fn median_and_summary_do_not_need_sorted_input() {
    assert_eq!(stats::median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    let summary = stats::summarize(&[8.0, 2.0, 4.0, 6.0, 10.0]);
    assert_eq!(
        (summary.q1, summary.median, summary.q3, summary.n),
        (4.0, 6.0, 8.0, 5)
    );
}

#[test]
fn a_tail_is_reported_only_with_ten_samples_beyond_it() {
    // Fewer than ten samples above the median: no percentile at all.
    assert_eq!(stats::highest_supported_percentile(19), None);
    assert_eq!(stats::highest_supported_percentile(20), Some(0.50));
    assert_eq!(stats::highest_supported_percentile(99), Some(0.50));
    assert_eq!(stats::highest_supported_percentile(100), Some(0.90));
    assert_eq!(stats::highest_supported_percentile(999), Some(0.90));
    assert_eq!(stats::highest_supported_percentile(1_000), Some(0.99));
    assert_eq!(stats::highest_supported_percentile(10_000), Some(0.999));
    assert_eq!(stats::highest_supported_percentile(100_000), Some(0.9999));
    assert_eq!(
        stats::highest_supported_percentile(10_000_000),
        Some(0.9999)
    );
    assert!(!stats::percentile_supported(999, 0.99));
    assert!(stats::percentile_supported(1_000, 0.99));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        round_id: 0,
    }
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    // round [0, 100) > ingest [10, 30), close [30, 90) > tail [40, 80)
    let recorded = [
        span("round", 0, 100, NO_PARENT),
        span("ingest", 10, 30, 0),
        span("close", 30, 90, 0),
        span("tail", 40, 80, 2),
    ];
    // The grandchild is charged to `close` only, not to `round` again.
    assert_eq!(spans::self_times_ns(&recorded), vec![20, 20, 20, 40]);
    assert_eq!(spans::total_ns(&recorded, "close"), 60);
    assert_eq!(spans::total_self_ns(&recorded, "round"), 20);
    assert_eq!(spans::durations_ns(&recorded, "ingest"), vec![20.0]);
    assert_eq!(spans::total_ns(&recorded, "absent"), 0);
}

#[test]
fn recorder_nests_spans_and_never_grows_its_buffer() {
    let mut rec = Recorder::with_capacity(3);
    let round = rec.open("round", 7);
    let inner = rec.span("ingest", 7, || 1);
    assert_eq!(inner, 1);
    rec.span("close", 7, || ());
    // The buffer is full: the span is dropped and counted, not reallocated.
    assert!(rec.open("extra", 7).is_none());
    rec.close(None);
    rec.close(round);
    assert_eq!(rec.dropped(), 1);

    let recorded = rec.spans();
    assert_eq!(recorded.len(), 3);
    assert_eq!(recorded[0].parent, NO_PARENT);
    assert_eq!((recorded[1].name, recorded[1].parent), ("ingest", 0));
    assert_eq!((recorded[2].name, recorded[2].parent), ("close", 0));
    assert!(recorded.iter().all(|s| s.round_id == 7));
    assert!(recorded[0].start_ns <= recorded[1].start_ns);
    assert!(recorded[2].end_ns <= recorded[0].end_ns);
    let own = spans::self_times_ns(recorded);
    assert_eq!(
        own[0],
        recorded[0].duration_ns() - recorded[1].duration_ns() - recorded[2].duration_ns()
    );
}
