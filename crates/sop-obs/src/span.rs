//! Wall-clock phase timing.
//!
//! `repro` and the `sop` campaigns wrap each chapter, figure or sweep in
//! a span so the run report records where the time went. Spans nest
//! (LIFO), and the completed records carry their depth so the report can
//! reconstruct the tree.

use std::time::Instant;

use crate::json::Json;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. `"ch4"` or `"fig4.7"`.
    pub name: String,
    /// Microseconds from the log's origin to the span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub duration_us: u64,
    /// Nesting depth at the time the span ran (0 = top level).
    pub depth: usize,
}

/// Collects nested wall-clock spans relative to a single origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    open: Vec<(String, Instant)>,
    closed: Vec<SpanRecord>,
}

impl SpanLog {
    /// A log whose origin is "now".
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            open: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn start(&mut self, name: &str) {
        self.open.push((name.to_owned(), Instant::now()));
    }

    /// Closes the most recently opened span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn end(&mut self) {
        let (name, started) = self.open.pop().expect("SpanLog::end with no open span");
        self.closed.push(SpanRecord {
            name,
            start_us: started.duration_since(self.origin).as_micros() as u64,
            duration_us: started.elapsed().as_micros() as u64,
            depth: self.open.len(),
        });
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        self.start(name);
        let out = f(self);
        self.end();
        out
    }

    /// Completed spans in completion order (children before parents).
    pub fn records(&self) -> &[SpanRecord] {
        &self.closed
    }

    /// Number of spans still open.
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }

    /// Completed spans as a JSON array sorted by start time, each
    /// `{name, start_us, duration_us, depth}`.
    pub fn to_json(&self) -> Json {
        let mut sorted: Vec<&SpanRecord> = self.closed.iter().collect();
        sorted.sort_by_key(|r| (r.start_us, r.depth));
        Json::Arr(
            sorted
                .into_iter()
                .map(|r| {
                    Json::object()
                        .with("name", r.name.as_str())
                        .with("start_us", r.start_us)
                        .with("duration_us", r.duration_us)
                        .with("depth", r.depth)
                })
                .collect(),
        )
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_depth_and_order() {
        let mut log = SpanLog::new();
        log.time("outer", |log| {
            log.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let recs = log.records();
        assert_eq!(recs.len(), 2);
        // Children complete first.
        assert_eq!(recs[0].name, "inner");
        assert_eq!(recs[0].depth, 1);
        assert_eq!(recs[1].name, "outer");
        assert_eq!(recs[1].depth, 0);
        // The parent covers the child.
        assert!(recs[1].duration_us >= recs[0].duration_us);
        assert!(recs[0].start_us >= recs[1].start_us);
        assert_eq!(log.open_depth(), 0);
    }

    #[test]
    fn time_passes_through_the_result() {
        let mut log = SpanLog::new();
        let v = log.time("compute", |_| 42);
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "no open span")]
    fn end_without_start_panics() {
        SpanLog::new().end();
    }

    #[test]
    fn json_sorts_by_start_and_is_wellformed() {
        let mut log = SpanLog::new();
        log.time("a", |_| ());
        log.time("b", |log| log.time("b.child", |_| ()));
        let j = log.to_json();
        let arr = j.as_arr().expect("array");
        assert_eq!(arr[0].get("name").and_then(Json::as_str), Some("a"));
        assert_eq!(arr[1].get("name").and_then(Json::as_str), Some("b"));
        crate::json::parse(&j.to_compact_string()).expect("valid JSON");
    }
}
