//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, the layer it times, a request id (the spec or job
//! it serves), its parent span, and start and end times. Spans are kept
//! in memory and written out when the traced run ends. A layer's self
//! time is its spans' durations minus the parts their child spans cover;
//! a span may also hand part of its self time to another layer when the
//! program itself measured that part (the simulator's `prof.*` counters
//! inside a timed window).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use sop_obs::Json;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`build`, `window`, `simulate`, ...).
    pub name: String,
    /// The layer the call went into.
    pub layer: String,
    /// The request the call served: a job, spec or workload name.
    pub req: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds from the tracer's origin to the start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the end.
    pub end_ns: u64,
    /// Parts of this span's self time the program attributed to other
    /// layers, in nanoseconds.
    pub attributed: Vec<(String, u64)>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// `{name, layer, req, parent, start_ns, end_ns, attributed}`.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("name", self.name.as_str())
            .with("layer", self.layer.as_str())
            .with("req", self.req.as_str())
            .with("parent", self.parent.map_or(Json::Null, Json::from))
            .with("start_ns", self.start_ns)
            .with("end_ns", self.end_ns)
            .with(
                "attributed",
                Json::Obj(
                    self.attributed
                        .iter()
                        .map(|(layer, ns)| (layer.clone(), Json::UInt(*ns)))
                        .collect(),
                ),
            )
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub fn from_json(doc: &Json) -> Option<Span> {
        let text = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_owned);
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).map(|v| v as u64);
        let attributed = match doc.get("attributed")? {
            Json::Obj(members) => members
                .iter()
                .map(|(layer, ns)| Some((layer.clone(), ns.as_f64()? as u64)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(Span {
            name: text("name")?,
            layer: text("layer")?,
            req: text("req")?,
            parent: num("parent").map(|p| p as usize),
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
            attributed,
        })
    }
}

/// Records spans from any thread against one origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose origin is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result; `f` receives the
    /// span's id so it can open children or attribute time.
    pub fn span<T>(
        &self,
        name: &str,
        layer: &str,
        req: &str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span list lock");
            spans.push(Span {
                name: name.to_owned(),
                layer: layer.to_owned(),
                req: req.to_owned(),
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
                attributed: Vec::new(),
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span list lock")[id].end_ns = end;
        out
    }

    /// Hands `ns` of span `id`'s self time to `layer`.
    pub fn attribute(&self, id: usize, layer: &str, ns: u64) {
        self.spans.lock().expect("span list lock")[id]
            .attributed
            .push((layer.to_owned(), ns));
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Total seconds of every closed span called `name`, and how many
    /// there were.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let spans = self.spans.lock().expect("span list lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(s, n), span| {
                (s + span.duration_ns() as f64 * 1e-9, n + 1)
            })
    }
}

/// Each span's self time: its duration minus its children's durations
/// and minus what it attributed to other layers.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| {
            let attributed: u64 = s.attributed.iter().map(|(_, ns)| ns).sum();
            s.duration_ns().saturating_sub(c + attributed)
        })
        .collect()
}

/// Self time per layer in nanoseconds, including attributed parts.
pub fn layer_self_times_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut layers = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *layers.entry(s.layer.clone()).or_insert(0) += own;
        for (layer, ns) in &s.attributed {
            *layers.entry(layer.clone()).or_insert(0) += ns;
        }
    }
    layers
}

/// Summed duration of the top-level spans: what tiles the traced wall.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto) with
/// `other` under `otherData`.
pub fn chrome_trace(spans: &[Span], other: Json) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::object()
                .with("name", s.name.as_str())
                .with("cat", s.layer.as_str())
                .with("ph", "X")
                .with("ts", s.start_ns as f64 / 1e3)
                .with("dur", s.duration_ns() as f64 / 1e3)
                .with("pid", 1u64)
                .with("tid", 1u64)
                .with(
                    "args",
                    Json::object()
                        .with("id", id)
                        .with("req", s.req.as_str())
                        .with("parent", s.parent.map_or(Json::Null, Json::from)),
                )
        })
        .collect();
    Json::object()
        .with("traceEvents", Json::Arr(events))
        .with("displayTimeUnit", "ms")
        .with("otherData", other)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, layer: &str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: name.into(),
            layer: layer.into(),
            req: "r".into(),
            parent,
            start_ns: start,
            end_ns: end,
            attributed: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_attributed_parts() {
        let mut spans = vec![
            span("replay", "sop-exec", None, 0, 100),
            span("job", "sop-bench", Some(0), 10, 60),
            span("window", "sop-sim", Some(1), 20, 55),
            span("job", "sop-bench", Some(0), 60, 90),
        ];
        spans[2].attributed.push(("sop-noc".into(), 20));
        assert_eq!(self_times_ns(&spans), vec![20, 15, 15, 30]);
        let layers = layer_self_times_ns(&spans);
        assert_eq!(layers["sop-exec"], 20);
        assert_eq!(layers["sop-bench"], 45);
        assert_eq!(layers["sop-sim"], 15);
        assert_eq!(layers["sop-noc"], 20);
        // Self times, attributed parts included, add up to the root.
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn top_level_spans_tile_the_wall() {
        let spans = vec![
            span("setup", "bench", None, 0, 40),
            span("build", "sop-sim.build", Some(0), 5, 35),
            span("measure", "bench", None, 40, 95),
        ];
        assert_eq!(top_level_ns(&spans), 95);
    }

    #[test]
    fn spans_round_trip_through_json() {
        let tracer = Tracer::new();
        tracer.span("outer", "bench", "w", None, |outer| {
            tracer.span("inner", "sop-sim", "job-1", Some(outer), |inner| {
                tracer.attribute(inner, "sop-noc", 3);
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        for s in &spans {
            assert_eq!(Span::from_json(&s.to_json()).as_ref(), Some(s));
        }
        assert_eq!(tracer.total("inner").1, 1);
        let chrome = chrome_trace(&spans, Json::object());
        assert_eq!(
            chrome
                .get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}
