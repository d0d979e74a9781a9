//! In-memory spans for the traced run.
//!
//! Spans are taken in the benchmark's own code around calls into each
//! crate's public functions; nothing inside the program is instrumented.
//! A span keeps its name, start, end and parent; the list is written out
//! once the run ends. The traced run executes serially, so the spans of
//! one run nest into a single tree per top-level step.

use crate::sys::{now, since};
use std::cell::RefCell;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.point` or `scenarios.render`.
    pub name: String,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// A single-threaded span recorder.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name: name.to_string(),
                start: since(self.origin),
                end: f64::NAN,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = since(self.origin);
        out
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Total duration of the spans called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::dur).sum()
}

/// Summed self-time of every span. Self-times telescope, so this is the
/// summed duration of the top-level spans.
pub fn self_time_sum(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum()
}

/// NDJSON rendering of the spans, one record per line.
pub fn to_ndjson(workload: &str, spans: &[Span]) -> String {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            format!(
                "{{\"record\":\"span\",\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\
                 \"start_s\":{:.6},\"end_s\":{:.6},\"parent\":{parent}}}\n",
                s.name, s.start, s.end
            )
        })
        .collect()
}
