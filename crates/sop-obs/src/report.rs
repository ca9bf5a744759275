//! Schema-versioned machine-readable run reports.
//!
//! Every binary that accepts `--json <path>` writes one of these. The
//! document layout is pinned by `SCHEMA_VERSION` and the golden test in
//! `sop-bench`; bump the version whenever a field is renamed, removed, or
//! changes meaning (adding fields is backward-compatible and does not
//! require a bump).

use crate::json::Json;
use crate::registry::Registry;
use crate::span::SpanLog;

/// Identifies the report document layout. History:
/// * `sop-report/v1` — initial: `schema`, `tool`, `title`, `spans`,
///   `metrics`, `sections`.
pub const SCHEMA_VERSION: &str = "sop-report/v1";

/// A run report: tool identity, free-form sections, plus the standard
/// `spans` and `metrics` blocks.
#[derive(Debug)]
pub struct Report {
    tool: String,
    title: String,
    sections: Vec<(String, Json)>,
}

impl Report {
    /// A report for tool `tool` (e.g. `"repro"`) describing `title`.
    pub fn new(tool: &str, title: &str) -> Self {
        Report {
            tool: tool.to_owned(),
            title: title.to_owned(),
            sections: Vec::new(),
        }
    }

    /// Adds (or replaces) a named section.
    pub fn set(&mut self, name: &str, value: Json) {
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.sections.push((name.to_owned(), value));
        }
    }

    /// Assembles the full document: schema header, spans, metrics, then
    /// the free-form sections in insertion order.
    pub fn to_json(&self, spans: &SpanLog, metrics: &Registry) -> Json {
        let mut doc = Json::object()
            .with("schema", SCHEMA_VERSION)
            .with("tool", self.tool.as_str())
            .with("title", self.title.as_str())
            .with("spans", spans.to_json())
            .with("metrics", metrics.to_json());
        let mut sections = Json::object();
        for (name, value) in &self.sections {
            sections.insert(name, value.clone());
        }
        doc.insert("sections", sections);
        doc
    }
}

/// A copy of a report document with everything wall-clock- or
/// schedule-dependent stripped, so two runs of the same campaign compare
/// byte-for-byte regardless of worker count or cache warmth:
///
/// * every span's `start_us`/`duration_us` is zeroed (names, order and
///   depth — the deterministic structure — survive);
/// * metrics in the `exec.` namespace (worker/steal/cache counters) are
///   dropped;
/// * the `exec` section (the campaign summary, which records per-job
///   timings and computed-vs-cached provenance) is dropped.
///
/// Everything else — the science — is left untouched.
pub fn stabilized(doc: &Json) -> Json {
    let Json::Obj(members) = doc else {
        return doc.clone();
    };
    let mut out = Json::object();
    for (key, value) in members {
        match key.as_str() {
            "spans" => {
                let zeroed = value
                    .as_arr()
                    .map(|spans| {
                        Json::Arr(
                            spans
                                .iter()
                                .map(|span| match span {
                                    Json::Obj(fields) => Json::Obj(
                                        fields
                                            .iter()
                                            .map(|(k, v)| match k.as_str() {
                                                "start_us" | "duration_us" => {
                                                    (k.clone(), Json::UInt(0))
                                                }
                                                _ => (k.clone(), v.clone()),
                                            })
                                            .collect(),
                                    ),
                                    other => other.clone(),
                                })
                                .collect(),
                        )
                    })
                    .unwrap_or_else(|| value.clone());
                out.insert(key, zeroed);
            }
            "metrics" => {
                let mut kept = Json::object();
                if let Json::Obj(metrics) = value {
                    for (name, metric) in metrics {
                        if !name.starts_with("exec.") {
                            kept.insert(name, metric.clone());
                        }
                    }
                }
                out.insert(key, kept);
            }
            "sections" => {
                let mut kept = Json::object();
                if let Json::Obj(sections) = value {
                    for (name, section) in sections {
                        if name != "exec" {
                            kept.insert(name, section.clone());
                        }
                    }
                }
                out.insert(key, kept);
            }
            _ => out.insert(key, value.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_carries_schema_spans_metrics_and_sections() {
        let mut spans = SpanLog::new();
        spans.time("phase", |_| ());
        let mut metrics = Registry::new();
        metrics.counter_add("sim.llc.misses", 9);
        let mut report = Report::new("repro", "all figures");
        report.set("figures", Json::Arr(vec![Json::Str("fig2.1".into())]));
        report.set("figures", Json::Arr(vec![Json::Str("fig4.7".into())])); // replaces
        let doc = report.to_json(&spans, &metrics);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(doc.get("tool").and_then(Json::as_str), Some("repro"));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("sim.llc.misses"))
                .and_then(Json::as_f64),
            Some(9.0)
        );
        let figs = doc
            .get("sections")
            .and_then(|s| s.get("figures"))
            .and_then(Json::as_arr)
            .expect("figures");
        assert_eq!(figs, &[Json::Str("fig4.7".into())]);
        crate::json::parse(&doc.to_pretty_string()).expect("valid JSON");
    }

    #[test]
    fn stabilized_strips_timing_and_exec_state() {
        let mut spans = SpanLog::new();
        spans.time("ch4", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let mut metrics = Registry::new();
        metrics.counter_add("sim.llc.misses", 9);
        metrics.counter_add("exec.cache.hits", 3);
        let mut report = Report::new("repro", "all");
        report.set("figures", Json::Arr(vec![]));
        report.set("exec", Json::object().with("computed", 5u64));
        let doc = report.to_json(&spans, &metrics);
        let stable = stabilized(&doc);
        let span0 = &stable.get("spans").and_then(Json::as_arr).expect("spans")[0];
        assert_eq!(span0.get("duration_us"), Some(&Json::UInt(0)));
        assert_eq!(span0.get("start_us"), Some(&Json::UInt(0)));
        assert_eq!(span0.get("name").and_then(Json::as_str), Some("ch4"));
        let metrics = stable.get("metrics").expect("metrics");
        assert!(metrics.get("exec.cache.hits").is_none());
        assert!(metrics.get("sim.llc.misses").is_some());
        let sections = stable.get("sections").expect("sections");
        assert!(sections.get("exec").is_none());
        assert!(sections.get("figures").is_some());
        // Stabilizing twice is a fixed point.
        assert_eq!(stabilized(&stable), stable);
    }
}
