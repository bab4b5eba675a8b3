//! Spans the harness records around its own calls into each layer.
//!
//! The recorder lives in this package, outside the product code: a span is
//! opened before a call into a crate and closed after it. Spans sit in a
//! pre-sized buffer (no allocation while a traced slice runs) and are written
//! out when the benchmark ends. A span's self time is its duration minus the
//! durations of its direct children.

use crate::json::Json;
use std::time::Instant;

/// Marks a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The sounding round (or report) the span belongs to; spans of one round
    /// share it.
    pub round_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Spans not recorded because the buffer was full.
    dropped: u64,
}

impl Recorder {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span. Returns `None` (and counts
    /// a drop) once the buffer is full, so recording never allocates.
    pub fn open(&mut self, name: &'static str, round_id: u64) -> Option<SpanId> {
        if self.spans.len() == self.spans.capacity() || self.open.len() == self.open.capacity() {
            self.dropped += 1;
            return None;
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            round_id,
        });
        self.open.push(index);
        Some(SpanId(index))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: Option<SpanId>) {
        let Some(SpanId(index)) = id else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(index),
            "spans must close innermost first"
        );
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Records `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, round_id: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, round_id);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Durations of every span called `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Summed duration of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Summed self time of every span called `name`.
pub fn total_self_ns(spans: &[Span], name: &str) -> u64 {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .sum()
}

/// The trace file: one array per field, so a run of some ten thousand spans
/// stays a few hundred kilobytes.
pub fn to_json(spans: &[Span], dropped: u64) -> Json {
    let col = |f: &dyn Fn(&Span) -> Json| Json::Arr(spans.iter().map(f).collect());
    Json::obj(vec![
        ("dropped", Json::from(dropped)),
        ("name", col(&|s| Json::from(s.name))),
        ("start_ns", col(&|s| Json::from(s.start_ns))),
        ("end_ns", col(&|s| Json::from(s.end_ns))),
        (
            "parent",
            col(&|s| {
                if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::from(u64::from(s.parent))
                }
            }),
        ),
        ("round_id", col(&|s| Json::from(s.round_id))),
    ])
}
