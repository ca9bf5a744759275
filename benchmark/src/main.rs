//! `sop-benchmark` — how fast and how repeatably this repository
//! regenerates its design points, end to end and layer by layer.
//!
//! ```text
//! sop-benchmark run     --workload W[,W...]|all [--seed S] [--samples N | --seconds T]
//!                       [--trace 0|1] [--out FILE]
//!                           untraced samples, each a fresh child process, round-robin
//!                           across the workloads; every end-to-end metric as
//!                           median/min/max/n; --trace 1 adds one traced run per workload
//!                           and prints the per-layer metrics instead; --out writes the
//!                           results file (stamped with host and tree)
//! sop-benchmark trace   --workload W[,W...]|all [--seed S] [--out DIR]
//!                           one untraced sample and one traced run per workload;
//!                           --out writes DIR/trace-W.json Chrome traces
//! sop-benchmark compare A B [--claim METRIC@WORKLOAD]
//!                           B against the baseline A (results files, or directories of
//!                           them): regression verdicts, digest equality, and a claim
//! ```
//!
//! With one workload, the last line printed is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exit status: 0 when
//! every output is correct (or the comparison passes), 1 when not, 2 on
//! a usage error or results from different hosts.

mod compare;
mod harness;
mod host;
mod spec;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use sop_obs::{write_atomic, Json};

use crate::harness::Budget;
use crate::trace::{chrome_trace, Span, Tracer};
use crate::workload::Workload;

const USAGE: &str = "usage: sop-benchmark run --workload W[,W...]|all [--seed S] \
[--samples N | --seconds T] [--trace 0|1] [--out FILE]
       sop-benchmark trace --workload W[,W...]|all [--seed S] [--out DIR]
       sop-benchmark compare A B [--claim METRIC@WORKLOAD]";

/// Seed used when none is given; 7 is held out for checking claims.
const DEFAULT_SEED: u64 = 42;
/// Untraced rounds `run` takes by default.
const DEFAULT_SAMPLES: usize = 5;

enum Failure {
    /// Bad arguments or incomparable inputs: exit 2.
    Usage(String),
    /// The benchmark itself could not run: exit 1.
    Run(String),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest, false),
        Some("trace") => cmd_run(rest, true),
        Some("compare") => cmd_compare(rest),
        Some("child") => cmd_child(rest),
        Some(other) => Err(Failure::Usage(format!(
            "unknown subcommand {other:?}; one of: run trace compare"
        ))),
        None => Err(Failure::Usage("missing subcommand".into())),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(Failure::Usage(msg)) => {
            eprintln!("sop-benchmark: {msg}\n{USAGE}");
            std::process::exit(2);
        }
        Err(Failure::Run(msg)) => {
            eprintln!("sop-benchmark: {msg}");
            std::process::exit(1);
        }
    }
}

/// `--flag value` pairs and positional arguments, checked against the
/// flags a subcommand accepts.
struct Flags {
    positional: Vec<String>,
    values: BTreeMap<String, String>,
}

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, Failure> {
        let mut flags = Flags {
            positional: Vec::new(),
            values: BTreeMap::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                flags.positional.push(arg.clone());
                continue;
            };
            if !allowed.contains(&name) {
                return Err(Failure::Usage(format!(
                    "unknown flag --{name}; this subcommand takes --{}",
                    allowed.join(" --")
                )));
            }
            let value = args
                .next()
                .ok_or_else(|| Failure::Usage(format!("--{name} needs a value")))?;
            if flags
                .values
                .insert(name.to_owned(), value.clone())
                .is_some()
            {
                return Err(Failure::Usage(format!("--{name} given twice")));
            }
        }
        Ok(flags)
    }

    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, Failure> {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| Failure::Usage(format!("--{name}: cannot parse {v:?}")))
            })
            .transpose()
    }
}

fn parse_workloads(list: &str) -> Result<Vec<Workload>, Failure> {
    if list == "all" {
        return Ok(Workload::ALL.to_vec());
    }
    let mut workloads = Vec::new();
    for name in list.split(',') {
        let w = Workload::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            Failure::Usage(format!(
                "unknown workload {name:?}; one of: {} all",
                known.join(" ")
            ))
        })?;
        if workloads.contains(&w) {
            return Err(Failure::Usage(format!("workload {name:?} listed twice")));
        }
        workloads.push(w);
    }
    Ok(workloads)
}

fn cmd_run(args: &[String], trace_cmd: bool) -> Result<i32, Failure> {
    let allowed: &[&str] = if trace_cmd {
        &["workload", "seed", "out"]
    } else {
        &["workload", "seed", "samples", "seconds", "trace", "out"]
    };
    let flags = Flags::parse(args, allowed)?;
    if let Some(extra) = flags.positional.first() {
        return Err(Failure::Usage(format!("unexpected argument {extra:?}")));
    }
    let workloads = parse_workloads(
        flags
            .values
            .get("workload")
            .ok_or_else(|| Failure::Usage("--workload is required".into()))?,
    )?;
    let seed = flags.get("seed")?.unwrap_or(DEFAULT_SEED);
    let trace = trace_cmd
        || match flags.values.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(Failure::Usage(format!("--trace: {other:?} is not 0 or 1"))),
        };
    let budget = match (flags.get::<usize>("samples")?, flags.get::<f64>("seconds")?) {
        (Some(_), Some(_)) => {
            return Err(Failure::Usage(
                "give --samples or --seconds, not both".into(),
            ))
        }
        (Some(0), None) => return Err(Failure::Usage("--samples must be at least 1".into())),
        (Some(n), None) => Budget::Samples(n),
        (None, Some(s)) if s > 0.0 && s.is_finite() => Budget::Seconds(s),
        (None, Some(s)) => return Err(Failure::Usage(format!("--seconds: {s} is not positive"))),
        (None, None) if trace_cmd => Budget::Samples(1),
        (None, None) => Budget::Samples(DEFAULT_SAMPLES),
    };
    let out = flags.values.get("out");

    let runs = harness::run(&workloads, seed, budget, trace).map_err(Failure::Run)?;
    print!("{}", harness::render(&runs));
    if let Some(out) = out {
        if trace_cmd {
            write_traces(Path::new(out), &runs, seed)?;
        } else {
            let doc = harness::results_json(&runs, seed);
            write_atomic(out, &(doc.to_pretty_string() + "\n"))
                .map_err(|e| Failure::Run(format!("cannot write {out}: {e}")))?;
        }
        eprintln!("wrote {out}");
    }
    if let [run] = runs.as_slice() {
        println!("{}", harness::summary_line(run).to_compact_string());
    }
    Ok(if runs.iter().all(harness::WorkloadRun::correct) {
        0
    } else {
        1
    })
}

/// Writes `DIR/trace-W.json` per workload: the spans as a Chrome trace,
/// with the host and tree stamps, the per-layer metrics, the layer
/// self-times, the checks and the untraced sample under `otherData`.
fn write_traces(dir: &Path, runs: &[harness::WorkloadRun], seed: u64) -> Result<(), Failure> {
    std::fs::create_dir_all(dir)
        .map_err(|e| Failure::Run(format!("cannot create {}: {e}", dir.display())))?;
    for run in runs {
        let t = run.trace.as_ref().expect("trace runs a traced child");
        let other = Json::object()
            .with("schema", harness::SCHEMA)
            .with("host", host::host_stamp())
            .with("tree", host::tree_stamp())
            .with("seed", seed)
            .with("workload", run.workload.name())
            .with("untraced", run.to_json())
            .with("trace", t.to_json());
        let path = dir.join(format!("trace-{}.json", run.workload.name()));
        write_atomic(
            &path,
            &(chrome_trace(&t.spans, other).to_pretty_string() + "\n"),
        )
        .map_err(|e| Failure::Run(format!("cannot write {}: {e}", path.display())))?;
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<i32, Failure> {
    let flags = Flags::parse(args, &["claim"])?;
    let [a, b] = flags.positional.as_slice() else {
        return Err(Failure::Usage("compare takes two results paths".into()));
    };
    let claim = match flags.values.get("claim") {
        None => None,
        Some(c) => Some(
            c.split_once('@')
                .ok_or_else(|| Failure::Usage(format!("--claim {c:?} is not METRIC@WORKLOAD")))?,
        ),
    };
    let side = |p: &String| compare::Side::load(Path::new(p)).map_err(Failure::Usage);
    let result = compare::compare(&side(a)?, &side(b)?, claim).map_err(Failure::Usage)?;
    print!("{}", result.text);
    Ok(if result.passed { 0 } else { 1 })
}

/// One sample in a fresh process: prints one JSON line with the outcome
/// and the peak RSS. `--mode setup` times the set-up alone (see
/// [`workload::setup_seconds`]); `--mode traced` runs the traced variant
/// and adds the spans and per-layer metrics.
fn cmd_child(args: &[String]) -> Result<i32, Failure> {
    let flags = Flags::parse(args, &["workload", "seed", "mode"])?;
    let name = flags.values.get("workload").map_or("", String::as_str);
    let w = Workload::from_name(name)
        .ok_or_else(|| Failure::Usage(format!("child: unknown workload {name:?}")))?;
    let seed = flags.get("seed")?.unwrap_or(DEFAULT_SEED);
    let report = match flags.values.get("mode").map(String::as_str) {
        Some("full") => workload::prepare(w, seed).run().to_json(),
        Some("setup") => Json::object().with("setup_s", workload::setup_seconds(w, seed)),
        Some("traced") => {
            let tr = Arc::new(Tracer::new());
            let traced = workload::traced(w, seed, &tr);
            traced
                .outcome
                .to_json()
                .with(
                    "layers",
                    Json::Obj(
                        traced
                            .layers
                            .iter()
                            .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
                            .collect(),
                    ),
                )
                .with(
                    "spans",
                    Json::Arr(tr.spans().iter().map(Span::to_json).collect()),
                )
        }
        other => {
            return Err(Failure::Usage(format!(
                "child: --mode {other:?} is not full, setup or traced"
            )))
        }
    };
    let report = report.with("peak_rss_kb", host::peak_rss_kb().unwrap_or(0));
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", report.to_compact_string())
        .and_then(|()| out.flush())
        .map_err(|e| Failure::Run(format!("cannot write the result: {e}")))?;
    Ok(0)
}
