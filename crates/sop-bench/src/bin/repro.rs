//! Regenerates the thesis' tables and figures.
//!
//! ```text
//! usage: repro <id>... [--quick] [--quiet] [--stable] [--json FILE]
//!            [--fault routers:N@CYCLE[:seed=S]] [--jobs N] [--timeout-secs N]
//!            [--no-cache] [--no-heartbeat]
//! ```
//!
//! `<id>` is one or more ids of `sop_bench::figures::FIGURES` (`fig2.1`,
//! `tab3.2`, `sec4.5`, ... and `degradation`, `ablation`; an unknown id's
//! error lists them all), or `all`: the entries of every chapter, without
//! `degradation` and `ablation` (simulation-backed figures take minutes;
//! `--quick` shortens their windows). A run
//! evaluates the simulation points of every requested figure as one
//! engine campaign named `repro` (none if every figure is analytic), so
//! duplicates are computed once and `sop top` follows the whole run, then
//! prints each figure from its slice of the results, in the order asked.
//!
//! Flags:
//!
//! * `--json FILE` — also write a schema-versioned run report
//!   (`sop-report/v1`): timing spans (the campaign, then each chapter's
//!   figures as they render), the golden check results, named metrics
//!   (`sim.llc.*`, `sim.l1.*`, `noc.*`, `mem.*`) from a sample pod
//!   simulation, and the execution engine's `exec.*` counters.
//! * `--quiet` — print only the report path (requires `--json`). On a
//!   failed golden check or job, stderr says where the report is and the
//!   exit code is 1, as without `--quiet`.
//! * `--jobs N` — run simulation points on N worker threads (0 or
//!   omitted = one per core). Output is byte-identical for any N.
//! * `--no-cache` — neither read nor write `target/sop-cache/`: every
//!   distinct simulation point is computed. Without it, rerunning a
//!   killed or partly failed run recomputes only the points it did not
//!   finish.
//! * `--timeout-secs N`, `--no-heartbeat` — the execution engine's
//!   watchdog and progress stream (see DESIGN.md).
//! * `--stable` — strip wall-clock spans and `exec.*` state from the
//!   `--json` report so reports from different worker counts and cache
//!   states compare byte-for-byte.
//! * `--fault routers:N@CYCLE[:seed=S]` — run every simulation point
//!   that has no fault schedule of its own under N seeded router deaths
//!   at CYCLE (graceful-degradation exercise). Faulted specs hash
//!   differently, so the fault-free cache is never contaminated; goldens
//!   are measured on the healthy machine and may legitimately fail under
//!   damage.
//!
//! Anything else — an unknown flag or id, a missing or unparsable value,
//! a repeated flag — is rejected with exit 2 before anything runs.
//!
//! The `degradation` experiment id prints the seeded router-death sweep
//! (pod throughput vs fraction of failed routers), and `ablation` the
//! design-choice ablations (pod granularity, NOC-Out LLC-row width, link
//! width, instruction replication). Neither is part of `all`, which stays
//! the canonical fault-free reproduction of the thesis.
//!
//! After the requested figures, every run re-verifies the pinned golden
//! values (see `tests/golden.rs` and EXPERIMENTS.md) and exits non-zero
//! if any reproduced value deviates beyond tolerance.

use sop_bench::figures::{self, Figure, FIGURES};
use sop_bench::points::SpecFaults;
use sop_bench::report::{checks_json, golden_checks, pod_sample_metrics};
use sop_exec::{Exec, ExecConfig, Spec};
use sop_obs::{stabilized, write_atomic, Json, Registry, Report, SpanLog};

fn main() {
    let ids = FIGURES
        .iter()
        .flat_map(|f| std::iter::once(f.id).chain(f.aliases.iter().copied()));
    let spec = Spec::new("repro")
        .arg("<id>")
        .one_of(ids.chain(["all"]))
        .repeats()
        .switches(["--quick", "--quiet", "--stable"])
        .values([("--json", "FILE"), ("--fault", "routers:N@CYCLE[:seed=S]")])
        .engine();
    let args = spec.parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let quick = args.has("--quick");
    let quiet = args.has("--quiet");
    let stable = args.has("--stable");
    let json_path = args.value("--json");
    let fault = args
        .value("--fault")
        .map(|v| parse_fault(v).unwrap_or_else(|e| args.fail(&format!("bad --fault value: {e}"))));
    if quiet && json_path.is_none() {
        args.fail("--quiet requires --json FILE (nothing would be printed)");
    }
    let exec = Exec::new(ExecConfig::from_args(&args));
    let say = |text: &str| {
        if !quiet {
            print!("{text}");
        }
    };

    let run: Vec<&str> = if args.values("<id>").any(|i| i == "all") {
        FIGURES
            .iter()
            .filter(|f| figures::ALL.contains(&f.group))
            .map(|f| f.id)
            .collect()
    } else {
        args.values("<id>").collect()
    };
    let entries: Vec<&Figure> = run
        .iter()
        .map(|id| figures::find(id).expect("the spec validated every id"))
        .collect();

    // Every simulation point of the run is one campaign; each figure
    // then renders from its slice, timed under a span per chapter.
    let mut spans = SpanLog::new();
    let points = spans.time("campaign", |_| {
        figures::run(&exec, "repro", &entries, quick, fault)
    });
    let rendered: Vec<_> = run.iter().zip(&entries).zip(&points).collect();
    for chapter in rendered.chunk_by(|((_, a), _), ((_, b), _)| a.group == b.group) {
        let ((_, first), _) = chapter[0];
        spans.start(first.group);
        for ((id, f), points) in chapter {
            let text = spans.time(id, |_| (f.text)(points, quick));
            say(&format!("{text}\n"));
        }
        spans.end();
    }

    // Re-verify the pinned golden values; any deviation fails the run.
    let checks = spans.time("golden", |_| golden_checks());
    let failed = checks.iter().filter(|c| !c.ok()).count();
    say(&format!(
        "Golden checks: {}/{} ok\n",
        checks.len() - failed,
        checks.len()
    ));
    for c in checks.iter().filter(|c| !c.ok()) {
        say(&format!(
            "  FAIL {:32} {:.4} vs golden {:.4} (tol {:.0}%)\n",
            c.name,
            c.value,
            c.golden,
            c.tol * 100.0
        ));
    }
    // Harness-level job failures: report them (and exit non-zero), but
    // only after everything that succeeded has been printed and written.
    // The header and list appear only when there is something to say, so
    // a clean run's stderr stays empty.
    let failures = exec.failures();
    if !failures.is_empty() {
        eprintln!("repro: {} job failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {} ({})", f.name, f.error);
        }
    }

    if let Some(path) = json_path {
        // A sample pod window gives the report real simulation metrics;
        // the engine contributes its exec.* counters on top. The window
        // runs with transaction tracing armed, so the report also gets a
        // `txn` section: the per-stage causal latency breakdown.
        let mut metrics: Registry = spans.time("pod_sample", |_| pod_sample_metrics(quick));
        let txn = sop_obs::TxnBreakdown::from_registry(&metrics).map(|b| b.to_json());
        metrics.merge(&exec.metrics_snapshot());
        let mut report = Report::new("repro", "Scale-Out Processors: reproduced figures");
        report.set(
            "experiments",
            Json::Arr(run.iter().map(|id| Json::from(*id)).collect()),
        );
        report.set("quick", Json::from(quick));
        report.set("golden", checks_json(&checks));
        report.set("exec", exec_summary(&exec));
        if let Some(t) = txn {
            report.set("txn", t);
        }
        if let Some(f) = fault {
            report.set("fault", f.to_json());
        }
        if !failures.is_empty() {
            report.set(
                "failures",
                Json::Arr(failures.iter().map(sop_exec::JobFailure::to_json).collect()),
            );
        }
        let doc = report.to_json(&spans, &metrics);
        let doc = if stable { stabilized(&doc) } else { doc };
        if let Err(e) = write_atomic(path, &(doc.to_pretty_string() + "\n")) {
            eprintln!("repro: cannot write {path}: {e}");
            std::process::exit(1);
        }
        say(&format!("wrote {path}\n"));
    }

    let ok = failed == 0 && failures.is_empty();
    if let (true, Some(path)) = (quiet, json_path) {
        if ok {
            println!("{path}");
        } else {
            // The report (with its failing golden rows) was still
            // written; point at it.
            eprintln!("repro: golden checks failed; see {path}");
        }
    }
    if !ok {
        std::process::exit(1);
    }
}

/// Parses `routers:<count>@<cycle>[:seed=<seed>]` into a [`SpecFaults`].
fn parse_fault(v: &str) -> Result<SpecFaults, String> {
    let rest = v
        .strip_prefix("routers:")
        .ok_or_else(|| format!("{v:?} does not start with \"routers:\""))?;
    let (count_cycle, seed) = match rest.split_once(":seed=") {
        Some((cc, s)) => (
            cc,
            s.parse::<u64>().map_err(|e| format!("seed {s:?}: {e}"))?,
        ),
        None => (rest, sop_bench::degradation::SWEEP_SEED),
    };
    let (count, cycle) = count_cycle
        .split_once('@')
        .ok_or_else(|| format!("{count_cycle:?} has no @<cycle>"))?;
    Ok(SpecFaults {
        seed,
        dead: count
            .parse::<u32>()
            .map_err(|e| format!("count {count:?}: {e}"))?,
        cycle: cycle
            .parse::<u64>()
            .map_err(|e| format!("cycle {cycle:?}: {e}"))?,
    })
}

/// The `exec` report section: how the engine ran this time. Everything
/// here is schedule- or cache-warmth-dependent, which is why `--stable`
/// drops the whole section.
fn exec_summary(exec: &Exec) -> Json {
    let m = exec.metrics_snapshot();
    Json::object()
        .with("workers", exec.workers())
        .with("jobs_completed", m.counter("exec.jobs.completed"))
        .with("jobs_computed", m.counter("exec.jobs.computed"))
        .with("jobs_cached", m.counter("exec.jobs.cached"))
        .with("cache_hits", m.counter("exec.cache.hits"))
        .with("cache_misses", m.counter("exec.cache.misses"))
        .with("cache_invalid", m.counter("exec.cache.invalid"))
}
