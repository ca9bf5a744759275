//! The benchmark's definition: workload names and the end-to-end and
//! per-layer metrics with their units, directions and regression bounds.
//!
//! The single source is `BENCHMARK.json` at the root of the repository.
//! It is compiled in, so the harness, `compare` and the file other tools
//! read can never disagree about a metric's bound or direction.

use std::sync::OnceLock;

use sop_obs::{json, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name, as printed and as the results files key it.
    pub name: String,
    /// Unit label (`s`, `MB`, `M/s`, `count`, ...).
    pub unit: String,
    /// Whether a larger value is the better one.
    pub higher_is_better: bool,
    /// Largest worsening of the median, as a share of the baseline
    /// median, before a change counts as a regression. End-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

impl MetricDef {
    /// Whether `x` reads strictly better than `y`.
    pub fn beats(&self, x: f64, y: f64) -> bool {
        if self.higher_is_better {
            x > y
        } else {
            x < y
        }
    }

    /// How much worse `value` is than `baseline`, as a share of the
    /// baseline; negative when it is better.
    pub fn worsening(&self, baseline: f64, value: f64) -> f64 {
        let delta = if self.higher_is_better {
            baseline - value
        } else {
            value - baseline
        };
        delta / baseline.abs()
    }
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in the file's order.
    pub workloads: Vec<String>,
    /// Metrics measured with tracing off.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of single layers, from the traced run.
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// The end-to-end metric called `name`.
    pub fn end_to_end(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

/// The compiled-in benchmark definition.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse(BENCHMARK_JSON).expect("BENCHMARK.json is a valid benchmark definition")
    })
}

/// Parses a benchmark definition.
pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be an array"))
    };
    let text_of = |entry: &Json, key: &str| -> Result<String, String> {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("BENCHMARK.json: entry without a `{key}` string: {entry:?}"))
    };
    let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricDef>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let higher_is_better = match text_of(m, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: `better` is {other:?}")),
                };
                let bound = if bounded {
                    let b = m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("BENCHMARK.json: metric without a bound: {m:?}"))?;
                    Some(b)
                } else {
                    None
                };
                Ok(MetricDef {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    higher_is_better,
                    bound,
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn every_workload_in_the_file_has_an_implementation_and_back() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec().workloads, names);
    }

    #[test]
    fn setup_s_has_the_largest_bound_and_every_bound_is_a_share() {
        let spec = spec();
        let setup = spec.end_to_end("setup_s").expect("setup_s is defined");
        assert!(!setup.higher_is_better && setup.unit == "s");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
            assert!(bound <= setup.bound.expect("bounded"), "{}", m.name);
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let spec = spec();
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = MetricDef {
            name: "wall_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.1),
        };
        assert!((lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(lower.beats(9.0, 10.0));
        let higher = MetricDef {
            higher_is_better: true,
            ..lower
        };
        assert!((higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(higher.beats(11.0, 10.0));
    }

    #[test]
    fn malformed_definitions_are_refused() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"workloads": [], "end_to_end": [{"name": "x", "unit": "s", "better": "up", "bound": 0.1}], "per_layer": []}"#).is_err());
        assert!(parse(r#"{"workloads": [], "end_to_end": [{"name": "x", "unit": "s", "better": "lower"}], "per_layer": []}"#).is_err());
    }
}
