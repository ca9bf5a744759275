//! Regenerates the thesis' tables and figures.
//!
//! ```text
//! usage: repro <id>... [--quick] [--quiet] [--stable] [--json FILE]
//!            [--fault routers:N@CYCLE[:seed=S]] [--jobs N] [--timeout-secs N]
//!            [--retries N] [--no-cache] [--no-heartbeat]
//! ```
//!
//! `<id>` is one or more of fig2.1 fig2.2 fig2.3 tab2.1 tab2.2 tab2.3 tab2.4
//! fig3.1 fig3.3 fig3.4 fig3.5 fig3.6 tab3.2 sec3.4.5 fig4.3 tab4.1 fig4.6
//! fig4.7 fig4.8 fig4.9 sec4.5 tab5.1 tab5.2 fig5.1 fig5.2 fig5.3 fig5.4
//! fig5.5 fig6.4 fig6.5 fig6.6 fig6.7 tab6.1 tab6.2 degradation, or `all`:
//! everything but `degradation` (simulation-backed figures take minutes;
//! `--quick` shortens their windows).
//!
//! Flags:
//!
//! * `--json FILE` — also write a schema-versioned run report
//!   (`sop-report/v1`): per-chapter/per-figure timing spans, the golden
//!   check results, named metrics (`sim.llc.*`, `sim.l1.*`, `noc.*`,
//!   `mem.*`) from a sample pod simulation, and the execution engine's
//!   `exec.*` counters.
//! * `--quiet` — suppress the figure text; print only the report path
//!   (requires `--json`).
//! * `--jobs N` — run simulation points on N worker threads (0 or
//!   omitted = one per core). Output is byte-identical for any N.
//! * `--no-cache` — recompute every simulation point, ignoring
//!   `target/sop-cache/`. Without it, rerunning a killed or partly
//!   failed run recomputes only the points it did not finish.
//! * `--timeout-secs N`, `--retries N`, `--no-heartbeat` — the execution
//!   engine's watchdog, retry budget and progress stream (see DESIGN.md).
//! * `--stable` — strip wall-clock spans and `exec.*` state from the
//!   `--json` report so reports from different worker counts and cache
//!   states compare byte-for-byte.
//! * `--fault routers:N@CYCLE[:seed=S]` — run every simulation point
//!   under N seeded router deaths at CYCLE (graceful-degradation
//!   exercise). Faulted specs hash differently, so the fault-free cache
//!   is never contaminated; goldens are measured on the healthy machine
//!   and may legitimately fail under damage.
//!
//! Anything else — an unknown flag or id, a missing or unparsable value,
//! a repeated flag — is rejected with exit 2 before anything runs.
//!
//! The `degradation` experiment id prints the seeded router-death sweep
//! (pod throughput vs fraction of failed routers); it is not part of
//! `all`, which stays the canonical fault-free reproduction.
//!
//! After the requested figures, every run re-verifies the pinned golden
//! values (see `tests/golden.rs` and EXPERIMENTS.md) and exits non-zero
//! if any reproduced value deviates beyond tolerance.

use sop_bench::points::{set_global_faults, SpecFaults};
use sop_bench::report::{checks_json, golden_checks, pod_sample_metrics};
use sop_bench::{ch2, ch3, ch4, ch5, ch6, degradation};
use sop_exec::{Exec, ExecConfig, Spec};
use sop_obs::{stabilized, write_atomic, Json, Registry, Report, SpanLog};
use sop_tech::{CoreKind, TechnologyNode};

/// The experiments `all` runs, in order.
const ALL: [&str; 31] = [
    "fig2.1", "fig2.2", "fig2.3", "tab2.1", "tab2.3", "tab2.4", "fig3.1", "fig3.3", "fig3.4",
    "fig3.5", "fig3.6", "tab3.2", "sec3.4.5", "fig4.3", "tab4.1", "fig4.6", "fig4.7", "fig4.8",
    "fig4.9", "sec4.5", "tab5.1", "tab5.2", "fig5.1", "fig5.2", "fig5.3", "fig5.5", "fig6.4",
    "fig6.5", "fig6.6", "fig6.7", "tab6.2",
];

/// The other ids `repro` takes: figures printed together with one in
/// [`ALL`], the fault sweep `all` leaves out, and `all` itself.
const MORE: [&str; 5] = ["tab2.2", "fig5.4", "tab6.1", "degradation", "all"];

fn main() {
    let spec = Spec::new("repro")
        .arg("<id>")
        .one_of(ALL.into_iter().chain(MORE))
        .repeats()
        .switches(["--quick", "--quiet", "--stable"])
        .values([("--json", "FILE"), ("--fault", "routers:N@CYCLE[:seed=S]")])
        .engine();
    let args = spec.parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let quick = args.has("--quick");
    let quiet = args.has("--quiet");
    let stable = args.has("--stable");
    let json_path = args.value("--json");
    let fault = args.value("--fault").map(|v| {
        let f = parse_fault(v).unwrap_or_else(|e| args.fail(&format!("bad --fault value: {e}")));
        set_global_faults(f);
        f
    });
    let exec = Exec::new(ExecConfig::from_args(&args));
    if quiet {
        let Some(path) = json_path else {
            args.fail("--quiet requires --json FILE (nothing would be printed)");
        };
        rerun_quietly(path);
    }

    let run: Vec<&str> = if args.values("<id>").any(|i| i == "all") {
        ALL.to_vec()
    } else {
        args.values("<id>").collect()
    };

    // Time every figure, grouped under a span per chapter.
    let mut spans = SpanLog::new();
    let mut i = 0;
    while i < run.len() {
        let chapter = chapter_of(run[i]);
        spans.start(&chapter);
        while i < run.len() && chapter_of(run[i]) == chapter {
            let id = run[i];
            spans.time(id, |_| {
                dispatch(id, quick, &exec);
                println!();
            });
            i += 1;
        }
        spans.end();
    }

    // Re-verify the pinned golden values; any deviation fails the run.
    let checks = spans.time("golden", |_| golden_checks());
    let failed = checks.iter().filter(|c| !c.ok()).count();
    println!(
        "Golden checks: {}/{} ok",
        checks.len() - failed,
        checks.len()
    );
    for c in checks.iter().filter(|c| !c.ok()) {
        println!(
            "  FAIL {:32} {:.4} vs golden {:.4} (tol {:.0}%)",
            c.name,
            c.value,
            c.golden,
            c.tol * 100.0
        );
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
        println!("wrote {path}");
    }

    if failed > 0 || !failures.is_empty() {
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
        None => (rest, degradation::SWEEP_SEED),
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

/// `"fig4.6"` -> `"ch4"`; chapter spans group the per-figure spans.
fn chapter_of(id: &str) -> String {
    match id.chars().find(char::is_ascii_digit) {
        Some(d) => format!("ch{d}"),
        None => "misc".to_owned(),
    }
}

/// Re-runs this binary with the same arguments minus `--quiet`, stdout
/// discarded, then prints only the report path. `println!` writes to
/// stdout unconditionally, so silencing the figure text from inside the
/// process would mean threading a writer through every chapter module;
/// a child process with a null stdout gets the same effect for free.
fn rerun_quietly(json_path: &str) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("repro: cannot locate own executable: {e}");
        std::process::exit(1);
    });
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quiet")
        .collect();
    match std::process::Command::new(exe)
        .args(&args)
        .stdout(std::process::Stdio::null())
        .status()
    {
        Ok(status) => {
            if status.success() {
                println!("{json_path}");
            } else {
                // The report (with its failing golden rows) was still
                // written; point at it before propagating the failure.
                eprintln!("repro: golden checks failed; see {json_path}");
            }
            std::process::exit(status.code().unwrap_or(1));
        }
        Err(e) => {
            eprintln!("repro: cannot re-exec for --quiet: {e}");
            std::process::exit(1);
        }
    }
}

fn dispatch(id: &str, quick: bool, exec: &Exec) {
    match id {
        "fig2.1" => ch2::print_fig2_1(),
        "fig2.2" => ch2::print_fig2_2(),
        "fig2.3" => ch2::print_fig2_3(),
        "tab2.1" | "tab2.2" => ch2::print_tab2_1(),
        "tab2.3" => ch2::print_tab2_3(TechnologyNode::N40),
        "tab2.4" => ch2::print_tab2_3(TechnologyNode::N20),
        "fig3.1" => ch3::print_fig3_1(),
        "fig3.3" => ch3::print_fig3_3_on(exec, quick),
        "fig3.4" => ch3::print_pd_sweep(CoreKind::OutOfOrder),
        "fig3.5" => ch3::print_fig3_5(),
        "fig3.6" => ch3::print_pd_sweep(CoreKind::InOrder),
        "tab3.2" => ch3::print_tab3_2(),
        "sec3.4.5" => ch3::print_sec3_4_5(),
        "fig4.3" => ch4::print_fig4_3_on(exec, quick),
        "tab4.1" => ch4::print_tab4_1(),
        "fig4.6" => ch4::print_fig4_6_on(exec, quick),
        "fig4.7" => ch4::print_fig4_7(),
        "fig4.8" => ch4::print_fig4_8_on(exec, quick),
        "fig4.9" => ch4::print_fig4_9_power_on(exec, quick),
        "sec4.5" => ch4::print_sec4_5(),
        "tab5.1" => ch5::print_tab5_1(),
        "tab5.2" => ch5::print_tab5_2(),
        "fig5.1" => ch5::print_fig5_1(),
        "fig5.2" => ch5::print_fig5_2(),
        "fig5.3" | "fig5.4" => ch5::print_fig5_3_and_5_4(),
        "fig5.5" => ch5::print_fig5_5(),
        "fig6.4" => ch6::print_pd3d_sweep(CoreKind::OutOfOrder),
        "fig6.5" => ch6::print_strategy_comparison(CoreKind::OutOfOrder),
        "fig6.6" => ch6::print_pd3d_sweep(CoreKind::InOrder),
        "fig6.7" => ch6::print_strategy_comparison(CoreKind::InOrder),
        "tab6.1" => ch2::print_tab2_1(),
        "tab6.2" => ch6::print_tab6_2(),
        "degradation" => degradation::print_sweep_on(exec, quick),
        other => unreachable!("{other} is not in the spec's id list"),
    }
}
