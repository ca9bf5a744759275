//! The parent process: one fresh child per sample, round-robin across
//! workloads, one child at a time; then the set-up repetitions and the
//! traced runs; then the summaries and the results file.
//!
//! A fresh process per sample keeps every process-wide memo (functional
//! warm-up states, trace FIFOs, the result cache's memory layer) cold and
//! lets each sample report its own peak memory. The parent times each
//! child from spawn to exit (`wall_s`); set-up-only children time the
//! set-up (`setup_s`).

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use sop_obs::{json, Json};

use crate::host::{host_stamp, tree_stamp};
use crate::spec::spec;
use crate::stats::{fmt_value, Summary};
use crate::trace::{layer_self_times_ns, top_level_ns, Span};
use crate::workload::Workload;

/// Results file layout version.
pub const SCHEMA: &str = "sop-benchmark/v1";

/// Set-up-only children per workload after each of its samples;
/// `setup_s` is the median of their readings (each itself a median, see
/// [`crate::workload::setup_seconds`]). Spreading them over the run
/// keeps one burst of host load from setting a run's reading.
pub const SETUP_REPS_PER_ROUND: usize = 2;

/// The share of the traced wall the top-level spans must cover.
pub const TILING_TOLERANCE: f64 = 0.05;

/// How many samples a run takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many rounds.
    Samples(usize),
    /// As many rounds as fit in this many seconds (at least one): a
    /// round starts only if the previous round's length still fits.
    Seconds(f64),
}

/// One untraced sample of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Child spawn to exit.
    pub wall_s: f64,
    /// The child's `VmHWM` at exit.
    pub peak_rss_mb: f64,
    /// Work units (timed cycles or server-ticks) per second of the
    /// measured phase, in millions.
    pub throughput: f64,
    /// Output digest.
    pub digest: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Workload-specific counts.
    pub extra: Json,
}

impl Sample {
    /// The value of an end-to-end metric; `setup_s` is measured by the
    /// set-up-only children instead.
    pub fn metric(&self, name: &str) -> Option<f64> {
        match name {
            "wall_s" => Some(self.wall_s),
            "peak_rss_mb" => Some(self.peak_rss_mb),
            "throughput" => Some(self.throughput),
            _ => None,
        }
    }

    fn to_json(&self) -> Json {
        let mut doc = Json::object();
        for m in &spec().end_to_end {
            if let Some(v) = self.metric(&m.name) {
                doc.insert(&m.name, v);
            }
        }
        doc.with("digest", self.digest.as_str())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "problems",
                Json::Arr(
                    self.problems
                        .iter()
                        .map(|p| Json::from(p.as_str()))
                        .collect(),
                ),
            )
            .with("extra", self.extra.clone())
    }
}

/// The traced run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRun {
    /// Child spawn to exit.
    pub wall_s: f64,
    /// The spans the child recorded.
    pub spans: Vec<Span>,
    /// Every per-layer metric; 0 where the workload does not reach the
    /// layer.
    pub layers: BTreeMap<String, f64>,
    /// Each check the traced run must pass, and whether it did.
    pub checks: Vec<(String, bool)>,
}

impl TraceRun {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Self seconds per layer, largest first.
    pub fn self_times_s(&self) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = layer_self_times_ns(&self.spans)
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 * 1e-9))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// `{wall_s, layers, self_times_s, checks}`.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("wall_s", self.wall_s)
            .with(
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            )
            .with(
                "self_times_s",
                Json::Obj(
                    self.self_times_s()
                        .into_iter()
                        .map(|(k, v)| (k, Json::Num(v)))
                        .collect(),
                ),
            )
            .with(
                "checks",
                Json::Obj(
                    self.checks
                        .iter()
                        .map(|(k, ok)| (k.clone(), Json::Bool(*ok)))
                        .collect(),
                ),
            )
    }
}

/// Everything one run measured on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// Untraced samples, in the order they ran.
    pub samples: Vec<Sample>,
    /// `setup_s` of the set-up-only children.
    pub setup_reps: Vec<f64>,
    /// The traced run, when one was asked for.
    pub trace: Option<TraceRun>,
}

impl WorkloadRun {
    /// Every reading of an end-to-end metric: one per sample, or one per
    /// set-up-only child for `setup_s`.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        if metric == "setup_s" {
            return self.setup_reps.clone();
        }
        self.samples
            .iter()
            .filter_map(|s| s.metric(metric))
            .collect()
    }

    /// The digest most samples agree on.
    pub fn digest(&self) -> &str {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.samples {
            *counts.entry(s.digest.as_str()).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(_, n)| n)
            .map_or("", |(d, _)| d)
    }

    /// Operations attempted across the samples.
    pub fn attempted(&self) -> u64 {
        self.samples.iter().map(|s| s.attempted).sum()
    }

    /// Failed operations, plus samples whose digest differs from the
    /// rest of the set.
    pub fn failed(&self) -> u64 {
        let digest = self.digest();
        let mismatched = self.samples.iter().filter(|s| s.digest != digest).count();
        self.samples.iter().map(|s| s.failed).sum::<u64>() + mismatched as u64
    }

    /// Whether every operation succeeded, every output check held and
    /// the traced run (if any) passed its checks.
    pub fn correct(&self) -> bool {
        self.failed() == 0
            && self.samples.iter().all(|s| s.problems.is_empty())
            && self.trace.as_ref().is_none_or(TraceRun::passed)
    }

    /// The results-file entry of this workload.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::object();
        for m in &spec().end_to_end {
            if let Some(s) = Summary::of(&self.values(&m.name)) {
                metrics.insert(&m.name, s.to_json(&m.unit));
            }
        }
        let mut doc = Json::object()
            .with(
                "samples",
                Json::Arr(self.samples.iter().map(Sample::to_json).collect()),
            )
            .with(
                "setup_reps",
                Json::Arr(self.setup_reps.iter().copied().map(Json::Num).collect()),
            )
            .with("metrics", metrics)
            .with("digest", self.digest())
            .with("attempted", self.attempted())
            .with("failed", self.failed())
            .with(
                "ops_failed_frac",
                self.failed() as f64 / self.attempted().max(1) as f64,
            );
        if let Some(t) = &self.trace {
            doc.insert("trace", t.to_json());
        }
        doc
    }
}

/// Runs the benchmark: untraced samples round-robin across `workloads`
/// within `budget`, each followed by set-up-only children (see
/// [`SETUP_REPS_PER_ROUND`]), and with `trace` one traced child per
/// workload. Progress goes to standard error.
pub fn run(
    workloads: &[Workload],
    seed: u64,
    budget: Budget,
    trace: bool,
) -> Result<Vec<WorkloadRun>, String> {
    let mut runs: Vec<WorkloadRun> = workloads
        .iter()
        .map(|&workload| WorkloadRun {
            workload,
            samples: Vec::new(),
            setup_reps: Vec::new(),
            trace: None,
        })
        .collect();
    let started = Instant::now();
    for round in 1.. {
        let round_started = Instant::now();
        for run in &mut runs {
            let sample = sample(run.workload, seed)?;
            eprintln!(
                "{} sample {round}: wall {:.3} s",
                run.workload.name(),
                sample.wall_s
            );
            run.samples.push(sample);
            for _ in 0..SETUP_REPS_PER_ROUND {
                let child = spawn_child(run.workload, seed, "setup")?;
                run.setup_reps.push(num(&child.report, "setup_s")?);
            }
        }
        let done = match budget {
            Budget::Samples(n) => round >= n,
            Budget::Seconds(s) => {
                started.elapsed() + round_started.elapsed() > Duration::from_secs_f64(s)
            }
        };
        if done {
            break;
        }
    }
    if trace {
        for run in &mut runs {
            eprintln!("{} traced run", run.workload.name());
            run.trace = Some(trace_run(run, seed)?);
        }
    }
    Ok(runs)
}

/// A child's result line, and its wall time from spawn to exit.
struct ChildRun {
    wall_s: f64,
    report: Json,
}

/// Runs `sop-benchmark child` to completion and parses the result line
/// it prints.
fn spawn_child(w: Workload, seed: u64, mode: &str) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let started = Instant::now();
    let out = Command::new(exe)
        .args(["child", "--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--mode", mode])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the {} child: {e}", w.name()))?;
    let wall_s = started.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "the {} child ({mode}) exited with {}",
            w.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {} child printed no result", w.name()))?;
    let report = json::parse(line)
        .map_err(|e| format!("the {} child's result is not JSON: {e}", w.name()))?;
    Ok(ChildRun { wall_s, report })
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("child result without a numeric `{key}`"))
}

fn strings(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|p| p.as_str().map(str::to_owned))
        .collect()
}

fn sample(w: Workload, seed: u64) -> Result<Sample, String> {
    let child = spawn_child(w, seed, "full")?;
    let r = &child.report;
    let timed_s = num(r, "timed_s")?;
    Ok(Sample {
        wall_s: child.wall_s,
        peak_rss_mb: num(r, "peak_rss_kb")? / 1024.0,
        throughput: num(r, "work")? / timed_s / 1e6,
        digest: r
            .get("digest")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned(),
        attempted: num(r, "attempted")? as u64,
        failed: num(r, "failed")? as u64,
        problems: strings(r, "problems"),
        extra: r.get("extra").cloned().unwrap_or_else(Json::object),
    })
}

/// Spawns the traced child and checks it against the untraced samples.
fn trace_run(untraced: &WorkloadRun, seed: u64) -> Result<TraceRun, String> {
    let w = untraced.workload;
    let child = spawn_child(w, seed, "traced")?;
    let r = &child.report;
    let spans = r
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|s| Span::from_json(s).ok_or_else(|| format!("malformed span {s:?}")))
        .collect::<Result<Vec<Span>, String>>()?;
    let mut layers: BTreeMap<String, f64> = spec()
        .per_layer
        .iter()
        .map(|m| (m.name.clone(), 0.0))
        .collect();
    if let Some(Json::Obj(measured)) = r.get("layers") {
        for (name, value) in measured {
            let slot = layers.get_mut(name).ok_or_else(|| {
                format!("the traced child reported {name}, which BENCHMARK.json does not define")
            })?;
            *slot = value.as_f64().unwrap_or(f64::NAN);
        }
    }
    let coverage = top_level_ns(&spans) as f64 * 1e-9 / child.wall_s;
    let untraced_wall = Summary::of(&untraced.values("wall_s")).map_or(f64::NAN, |s| s.median);
    layers.insert("trace.coverage".into(), coverage);
    layers.insert(
        "trace.overhead_frac".into(),
        child.wall_s / untraced_wall - 1.0,
    );

    let digest = r.get("digest").and_then(Json::as_str).unwrap_or_default();
    let mut checks = vec![
        (
            "the traced run's output digest equals the untraced run's".to_owned(),
            digest == untraced.digest(),
        ),
        (
            format!(
                "top-level spans tile the traced wall within {:.0}%",
                TILING_TOLERANCE * 100.0
            ),
            (coverage - 1.0).abs() <= TILING_TOLERANCE,
        ),
        (
            "the traced run's operations and output checks pass".to_owned(),
            num(r, "failed")? == 0.0 && strings(r, "problems").is_empty(),
        ),
    ];
    if w == Workload::SweepCold {
        let untraced_computed = untraced
            .samples
            .first()
            .and_then(|s| s.extra.get("jobs_computed"))
            .and_then(Json::as_f64);
        checks.push((
            "replayed points equal the untraced run's exec.jobs_computed".to_owned(),
            untraced_computed == Some(layers["exec.jobs_computed"]),
        ));
        checks.push((
            "the warm rerun finds every job in the cache".to_owned(),
            layers["exec.cache.warm_hit_frac"] == 1.0,
        ));
    }
    Ok(TraceRun {
        wall_s: child.wall_s,
        spans,
        layers,
        checks,
    })
}

/// The results file of a run: host and tree stamps, the seed, and each
/// workload's samples, summaries, digest and traced run.
pub fn results_json(runs: &[WorkloadRun], seed: u64) -> Json {
    Json::object()
        .with("schema", SCHEMA)
        .with("host", host_stamp())
        .with("tree", tree_stamp())
        .with("seed", seed)
        .with(
            "workloads",
            Json::Obj(
                runs.iter()
                    .map(|r| (r.workload.name().to_owned(), r.to_json()))
                    .collect(),
            ),
        )
}

/// The human-readable report: every end-to-end metric by name and unit
/// as median/min/max/n, the failed-operation share and digest, and for
/// traced runs the per-layer metrics, layer self-times and checks.
pub fn render(runs: &[WorkloadRun]) -> String {
    let mut out = String::new();
    for r in runs {
        out += &format!("{}\n", r.workload.name());
        out += &format!(
            "  {:<28} {:<9} {:>14} {:>14} {:>14} {:>4}\n",
            "metric", "unit", "median", "min", "max", "n"
        );
        for m in &spec().end_to_end {
            if let Some(s) = Summary::of(&r.values(&m.name)) {
                out += &format!(
                    "  {:<28} {:<9} {:>14} {:>14} {:>14} {:>4}\n",
                    m.name,
                    m.unit,
                    fmt_value(s.median),
                    fmt_value(s.min),
                    fmt_value(s.max),
                    s.n
                );
            }
        }
        out += &format!(
            "  {:<28} {:<9} {:>14} ({} of {} operations)\n",
            "ops_failed_frac",
            "fraction",
            r.failed() as f64 / r.attempted().max(1) as f64,
            r.failed(),
            r.attempted()
        );
        for p in r.samples.iter().flat_map(|s| &s.problems) {
            out += &format!("  problem: {p}\n");
        }
        out += &format!("  digest {}\n", r.digest());
        if let Some(t) = &r.trace {
            out += &format!("  traced run: {:.3} s\n", t.wall_s);
            let reached: Vec<_> = spec()
                .per_layer
                .iter()
                .filter(|m| t.layers[&m.name] != 0.0)
                .collect();
            for m in &reached {
                out += &format!(
                    "    {:<30} {:<9} {:>16.6}\n",
                    m.name, m.unit, t.layers[&m.name]
                );
            }
            out += &format!(
                "    ({} per-layer metrics of layers this workload does not reach read 0)\n",
                spec().per_layer.len() - reached.len()
            );
            out += "    layer self-times:\n";
            for (layer, s) in t.self_times_s() {
                out += &format!(
                    "      {layer:<24} {s:>10.4} s {:>6.1}%\n",
                    100.0 * s / t.wall_s
                );
            }
            for (check, ok) in &t.checks {
                out += &format!("    [{}] {check}\n", if *ok { "ok" } else { "FAIL" });
            }
        }
    }
    out
}

/// The last line the benchmark prints for one workload: `correct`,
/// `attempted`, `failed` and either every end-to-end metric (median) or,
/// for a traced run, every per-layer metric.
pub fn summary_line(run: &WorkloadRun) -> Json {
    let mut metrics = Json::object();
    match &run.trace {
        Some(t) => {
            for m in &spec().per_layer {
                metrics.insert(
                    &m.name,
                    Json::object()
                        .with("value", t.layers[&m.name])
                        .with("unit", m.unit.as_str()),
                );
            }
        }
        None => {
            for m in &spec().end_to_end {
                let median = Summary::of(&run.values(&m.name)).map_or(f64::NAN, |s| s.median);
                metrics.insert(
                    &m.name,
                    Json::object()
                        .with("value", median)
                        .with("unit", m.unit.as_str()),
                );
            }
        }
    }
    Json::object()
        .with("correct", run.correct())
        .with("attempted", run.attempted())
        .with("failed", run.failed())
        .with("metrics", metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(wall_s: f64, digest: &str) -> Sample {
        Sample {
            wall_s,
            peak_rss_mb: 100.0,
            throughput: 1.0,
            digest: digest.into(),
            attempted: 9,
            failed: 0,
            problems: Vec::new(),
            extra: Json::object(),
        }
    }

    #[test]
    fn every_end_to_end_metric_but_setup_is_measured_per_sample() {
        let s = sample(1.0, "d");
        for m in &spec().end_to_end {
            assert_eq!(
                s.metric(&m.name).is_some(),
                m.name != "setup_s",
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn a_sample_with_another_digest_counts_as_failed() {
        let run = WorkloadRun {
            workload: Workload::PodLong,
            samples: vec![sample(1.0, "a"), sample(1.1, "b"), sample(1.2, "a")],
            setup_reps: vec![0.02, 0.03],
            trace: None,
        };
        assert_eq!(run.digest(), "a");
        assert_eq!((run.attempted(), run.failed()), (27, 1));
        assert!(!run.correct());
        assert_eq!(run.values("setup_s"), vec![0.02, 0.03]);
        assert_eq!(run.values("wall_s"), vec![1.0, 1.1, 1.2]);
        let line = summary_line(&run);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        let metrics = line.get("metrics").expect("metrics");
        for m in &spec().end_to_end {
            assert!(metrics.get(&m.name).and_then(|v| v.get("value")).is_some());
        }
    }
}
