//! `sop` — interactive design-space explorer.
//!
//! ```text
//! sop pod    <ooo|io> [--node 40|32|20]       derive the PD-optimal pod
//! sop chip   <design> [--node 40|32|20]       compose a reference chip
//! sop dc     <design> [--mem GB]              size a 20MW datacenter
//! sop stack  <ooo|io> <dies> [--fixed-distance]   evaluate a 3D pod
//! sop trace  <workload> [--topo mesh|fbfly|nocout] [--out FILE] [--quick]
//!            [--analyze] [--sample N] [--cores N]
//!                                             capture a Chrome trace of a pod run;
//!                                             --analyze prints the per-stage latency
//!                                             breakdown (NOC, bank, directory, memory)
//! sop diff   <a.json> <b.json> [--tol PCT] [--tol-path PREFIX=PCT]
//!                                             structurally compare two sop-report/v1
//!                                             documents; exit 1 on any divergence
//! sop sweep  <ch2|ch3|ch4|ch5|ch6|degradation|all> [--jobs N] [--no-cache]
//!            [--resume] [--json FILE] [--quick] [--stable] [--no-heartbeat]
//!            [--timeout-secs N] [--retries N] run a named experiment campaign
//! sop fleet  [--servers N] [--policy drain|derate] [--org NAME] [--seed S] [--quick]
//!            [--jobs N] [--no-cache] [--resume] [--json FILE] [--stable] [--no-heartbeat]
//!            [--series]                       simulate a fleet of SOP servers behind a
//!                                             load balancer: cost per sustained QPS and
//!                                             tail latency vs utilization per chip
//!                                             organization; --series exports per-window
//!                                             telemetry as a `series` report section
//! sop fleet  --resilience [--topology flat|rack|wide] [--retry none|naive|backoff|hedge]
//!            [--shed on|off] [--storm] [--slo] [...]
//!                                             the resilience layer: correlated failure
//!                                             domains, retry/hedge/timeout clients,
//!                                             health-checked balancing, adaptive
//!                                             overload shedding; --storm runs the
//!                                             committed PDU-outage scenario (its rows
//!                                             always arm the SLO monitoring plane);
//!                                             --slo arms it on the ambient sweep too
//! sop slo    <report.json> [--target PCT] [--latency-ms N] [--latency-target PCT]
//!            [--ascii-sparkline]              replay the multi-window burn-rate
//!                                             analysis over a report's `series`
//!                                             section: burn table, incident timeline
//!                                             with cause tags, TTD vs TTR
//! sop prof   [<workload>] [--topo T] [--quick] [--cores N] [--json FILE]
//!                                             run a self-profiled pod window and
//!                                             print the host-side component
//!                                             self-time table
//! sop prof   --analyze <a.json> [b.json] [--tol PCT] [--tol-path PREFIX=PCT]
//!                                             re-render the table from a report's
//!                                             prof metrics; with two files, diff
//!                                             the prof sections under tolerance
//! sop top    [--file PATH] [--once] [--interval-ms N]
//!                                             live terminal monitor over a
//!                                             campaign's progress.ndjson heartbeat
//! sop metrics <report.json> [--text]          dump a report's metrics object;
//!                                             --text emits Prometheus exposition
//!                                             (plus `series` last-value samples
//!                                             when the report carries telemetry)
//! sop cache  [--dir DIR]                      audit the result cache for debris
//! sop list                                    list design names
//! ```
//!
//! Every subcommand rejects any flag outside its usage line with exit 2
//! before doing any work.

use scale_out_processors::bench::campaign::{run_campaign, CAMPAIGNS};
use scale_out_processors::bench::check_flags;
use scale_out_processors::core::designs::{reference_chip, DesignKind};
use scale_out_processors::core::pod::{optimal_pod, preferred_pod, PodSearchSpace};
use scale_out_processors::exec::audit_dir;
use scale_out_processors::exec::heartbeat::{read_events, snapshot, PROGRESS_FILE};
use scale_out_processors::exec::{parse_flag, Exec, ExecConfig};
use scale_out_processors::noc::TopologyKind;
use scale_out_processors::obs::prom::{exposition_from_json, metric_name};
use scale_out_processors::obs::{
    diff_reports, stabilized, write_atomic, DiffConfig, Json, ProfBreakdown, Registry, Report,
    SpanLog, TxnBreakdown,
};
use scale_out_processors::sim::{Machine, SimConfig};
use scale_out_processors::tco::{Datacenter, TcoParams};
use scale_out_processors::tech::{CoreKind, TechnologyNode};
use scale_out_processors::threed::{
    compose_3d, CoolingTechnology, Pod3d, StackStrategy, ThermalModel,
};
use scale_out_processors::workloads::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "pod" => pod(&args),
        "chip" => chip(&args),
        "dc" => dc(&args),
        "stack" => stack(&args),
        "trace" => trace(&args),
        "diff" => diff(&args),
        "sweep" => sweep(&args),
        "fleet" => fleet(&args),
        "slo" => slo_cmd(&args),
        "prof" => prof(&args),
        "top" => top(&args),
        "metrics" => metrics_cmd(&args),
        "cache" => cache(&args),
        "list" => list(&args),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!(
                "unknown subcommand {other:?}; one of: pod chip dc stack trace diff sweep \
                 fleet slo prof top metrics cache list"
            );
            usage();
        }
    }
}

/// Exits 2 naming the first flag `sop <cmd>` does not accept (see
/// [`check_flags`]), before the command does any work.
fn accept_flags(args: &[String], switches: &[&str], valued: &[&str]) {
    if let Err(e) = check_flags(&args[1..], switches, valued) {
        eprintln!("sop {}: {e}; see `sop help`", args[0]);
        std::process::exit(2);
    }
}

/// The value of `flag` in `sop <cmd>`'s arguments, parsed; exits 2
/// naming the flag when the value is missing or does not parse (see
/// [`parse_flag`]), so a typo never runs at the default.
fn numeric_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    parse_flag(args, flag).unwrap_or_else(|e| {
        eprintln!("sop {}: {e}", args[0]);
        std::process::exit(2);
    })
}

/// The value of `flag` in `sop <cmd>`'s arguments; exits 2 naming the
/// flag when it has none, so a flag never silently reads as absent.
fn value_flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(i + 1) else {
        eprintln!("sop {}: {flag} needs a value", args[0]);
        std::process::exit(2);
    };
    Some(value)
}

/// The value of `flag`, which must be one of `known`; exits 2 naming
/// the flag, the value and the choices otherwise (see [`value_flag`]).
fn choice_flag<'a>(args: &'a [String], flag: &str, known: &[&str]) -> Option<&'a str> {
    let value = value_flag(args, flag)?;
    if !known.contains(&value) {
        eprintln!(
            "sop {}: invalid value for {flag}: {value}; one of: {}",
            args[0],
            known.join(" ")
        );
        std::process::exit(2);
    }
    Some(value)
}

/// The engine flags of `sop <cmd>`; exits 2 on a bad value like
/// [`numeric_flag`].
fn exec_config(args: &[String]) -> ExecConfig {
    ExecConfig::from_args(args).unwrap_or_else(|e| {
        eprintln!("sop {}: {e}", args[0]);
        std::process::exit(2);
    })
}

/// Reads `--tol PCT` (default `default_pct`) and every `--tol-path
/// PREFIX=PCT` rule into a [`DiffConfig`]: the one tolerance parser
/// behind `sop diff` and `sop prof --analyze`. A missing or unparsable
/// percentage exits 2, so a gate can never quietly run at the default
/// tolerance.
fn diff_config(args: &[String], default_pct: f64) -> DiffConfig {
    let value = |i: usize| -> &str {
        args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("{} needs a value", args[i]);
            std::process::exit(2);
        })
    };
    let fraction = |flag: &str, pct: &str| -> f64 {
        match pct.parse::<f64>() {
            Ok(p) if p.is_finite() && p >= 0.0 => p / 100.0,
            _ => {
                eprintln!("{flag}: {pct:?} is not a non-negative number");
                std::process::exit(2);
            }
        }
    };
    let mut cfg = DiffConfig::with_tol(default_pct / 100.0);
    for (i, a) in args.iter().enumerate() {
        match a.as_str() {
            "--tol" => cfg.tol = fraction(a, value(i)),
            "--tol-path" => {
                let rule = value(i);
                let Some((prefix, pct)) = rule.split_once('=') else {
                    eprintln!("--tol-path needs PREFIX=PCT, got {rule:?}");
                    std::process::exit(2);
                };
                cfg.rules.push((prefix.to_owned(), fraction(a, pct)));
            }
            _ => {}
        }
    }
    cfg
}

fn usage() {
    eprintln!("usage: sop pod <ooo|io> [--node 40|32|20]");
    eprintln!("       sop chip <design> [--node 40|32|20]");
    eprintln!("       sop dc <design> [--mem GB]");
    eprintln!("       sop stack <ooo|io> <dies> [--fixed-distance]");
    eprintln!(
        "       sop trace <workload> [--topo mesh|fbfly|nocout] [--out FILE] [--quick] \
         [--analyze] [--sample N] [--cores N]"
    );
    eprintln!("       sop diff <a.json> <b.json> [--tol PCT] [--tol-path PREFIX=PCT]");
    eprintln!(
        "       sop sweep <ch2|ch3|ch4|ch5|ch6|degradation|all> [--jobs N] [--no-cache] \
         [--resume] [--json FILE] [--quick] [--stable] [--no-heartbeat] [--timeout-secs N] \
         [--retries N]"
    );
    eprintln!(
        "       sop fleet [--servers N] [--policy drain|derate] [--org NAME] [--seed S] \
         [--quick] [--jobs N] [--no-cache] [--resume] [--json FILE] [--stable] [--no-heartbeat] \
         [--series]"
    );
    eprintln!(
        "       sop fleet --resilience [--topology flat|rack|wide] \
         [--retry none|naive|backoff|hedge] [--shed on|off] [--storm] [--slo] [...]"
    );
    eprintln!(
        "       sop slo <report.json> [--target PCT] [--latency-ms N] [--latency-target PCT] \
         [--ascii-sparkline]"
    );
    eprintln!(
        "       sop prof [<workload>] [--topo mesh|fbfly|nocout] [--quick] [--cores N] \
         [--json FILE]"
    );
    eprintln!("       sop prof --analyze <a.json> [b.json] [--tol PCT] [--tol-path PREFIX=PCT]");
    eprintln!("       sop top [--file PATH] [--once] [--interval-ms N]");
    eprintln!("       sop metrics <report.json> [--text]");
    eprintln!("       sop cache [--dir DIR]");
    eprintln!("       sop list");
    std::process::exit(2);
}

/// Runs a named experiment campaign on the execution engine and writes
/// its data as a `sop-report/v1` document.
fn sweep(args: &[String]) {
    accept_flags(
        args,
        &[&["--quick", "--stable"], &ExecConfig::SWITCHES[..]].concat(),
        &[&["--json"], &ExecConfig::VALUED[..]].concat(),
    );
    let name = args.get(1).map(String::as_str).unwrap_or("");
    if !CAMPAIGNS.contains(&name) {
        eprintln!("unknown campaign {name:?}; one of: {}", CAMPAIGNS.join(" "));
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let stable = args.iter().any(|a| a == "--stable");
    let out =
        value_flag(args, "--json").map_or_else(|| format!("sweep-{name}.json"), str::to_owned);
    let exec = Exec::new(exec_config(args));

    let mut spans = SpanLog::new();
    let data = spans.time(name, |_| {
        run_campaign(name, quick, &exec).expect("campaign name was validated")
    });
    let mut metrics = Registry::new();
    metrics.merge(&exec.metrics_snapshot());
    let mut report = Report::new("sweep", "Scale-Out Processors: experiment campaign");
    report.set("campaign", Json::from(name));
    report.set("quick", Json::from(quick));
    report.set("data", data);
    let doc = report.to_json(&spans, &metrics);
    write_report(&out, &if stable { stabilized(&doc) } else { doc });
    let m = exec.metrics_snapshot();
    println!(
        "campaign {name}: {} points on {} worker(s)",
        m.counter("exec.jobs.completed") + m.counter("exec.map.items"),
        exec.workers()
    );
    println!("wrote {out}");
    exit_on_failures(&exec, "sweep");
}

/// Writes a report document to `out` atomically; exits 1 when it
/// cannot.
fn write_report(out: &str, doc: &Json) {
    if let Err(e) = write_atomic(out, &(doc.to_pretty_string() + "\n")) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
}

/// Exits 1 naming each job the engine failed, if any. The report is
/// already written, with a `failed` marker row standing in for each.
fn exit_on_failures(exec: &Exec, cmd: &str) {
    let failures = exec.failures();
    if failures.is_empty() {
        return;
    }
    for f in &failures {
        eprintln!("{cmd}: job failed: {} ({})", f.name, f.error);
    }
    std::process::exit(1);
}

/// Simulates a fleet of SOP servers behind a load balancer through the
/// execution engine and writes the result as a `sop-report/v1` document.
/// The plain sweep reports one row per chip organization × repair
/// policy with cost per sustained QPS and the tail-latency-vs-utilization
/// curve. With `--resilience` it adds correlated failure domains,
/// retrying/hedging clients, health-checked balancing, and the adaptive
/// overload shedder: without `--storm` it sweeps topology × retry
/// policy × shedder arming (narrowed by the flags); with `--storm` it
/// runs the committed PDU-outage pair — naive retries with the shedder
/// off (retry-storm collapse) and on (bounded brownout). Every run is a
/// pure, cacheable engine job; the report is byte-identical across
/// worker counts.
fn fleet(args: &[String]) {
    use scale_out_processors::fleet::{
        add_slo_metrics, fleet_points, grid, resilience_grid, resilience_points, storm_pair,
        DomainTopology, Policy, RetryPolicy, ORGS,
    };
    accept_flags(
        args,
        &[
            &[
                "--quick",
                "--stable",
                "--resilience",
                "--storm",
                "--series",
                "--slo",
            ],
            &ExecConfig::SWITCHES[..],
        ]
        .concat(),
        &[
            &[
                "--servers",
                "--seed",
                "--org",
                "--policy",
                "--topology",
                "--retry",
                "--shed",
                "--json",
            ],
            &ExecConfig::VALUED[..],
        ]
        .concat(),
    );
    let quick = args.iter().any(|a| a == "--quick");
    let stable = args.iter().any(|a| a == "--stable");
    let resilience = args.iter().any(|a| a == "--resilience");
    let storm = args.iter().any(|a| a == "--storm");
    let series = args.iter().any(|a| a == "--series");
    let slo = args.iter().any(|a| a == "--slo");
    let servers: u32 = numeric_flag(args, "--servers").unwrap_or(if quick { 64 } else { 256 });
    if servers == 0 {
        eprintln!("--servers must be at least 1");
        std::process::exit(2);
    }
    let seed: u64 = numeric_flag(args, "--seed").unwrap_or(42);
    let orgs: Vec<&str> = ORGS.iter().map(|o| o.name).collect();
    let org = choice_flag(args, "--org", &orgs);
    let policies: Vec<&str> = Policy::ALL.iter().map(|p| p.label()).collect();
    let policy = choice_flag(args, "--policy", &policies).and_then(Policy::from_label);
    let topology = choice_flag(args, "--topology", &DomainTopology::labels());
    let retry = choice_flag(args, "--retry", &RetryPolicy::labels());
    let shed = choice_flag(args, "--shed", &["on", "off"]).map(|v| v == "on");
    if !resilience && (storm || slo || topology.is_some() || retry.is_some() || shed.is_some()) {
        eprintln!("--storm/--topology/--retry/--shed/--slo require --resilience");
        std::process::exit(2);
    }
    if resilience && series {
        eprintln!("--series applies to the plain fleet sweep; use --slo with --resilience");
        std::process::exit(2);
    }
    if storm && (topology.is_some() || retry.is_some()) {
        eprintln!("the storm scenario pins --topology rack --retry naive");
        std::process::exit(2);
    }
    let section = if resilience { "resilience" } else { "fleet" };
    let out = value_flag(args, "--json").map_or_else(|| format!("{section}.json"), str::to_owned);
    // Heartbeat job_finish events carry the fleet tick counter so
    // `sop top` can report simulated-hours per second, and the SLO
    // alert counters so it can render live alert state when a run arms
    // a spec (the fields stay absent otherwise).
    scale_out_processors::exec::heartbeat::set_cycle_source(
        scale_out_processors::bench::campaign::simulated_work_counter,
    );
    scale_out_processors::exec::heartbeat::set_slo_source(
        scale_out_processors::fleet::slo_alert_state,
    );
    let exec = Exec::new(exec_config(args));

    // Deterministic aggregates are summed from the rows, so cached and
    // fresh evaluations export identical values; the engine's own
    // counters join them below. CI greps `fleet.resilience.shed`.
    let mut spans = SpanLog::new();
    let mut metrics = Registry::new();
    let sum_totals = |metrics: &mut Registry, rows: &[Json], prefix: &str, keys: &[&str]| {
        for row in rows {
            for key in keys {
                let total = row
                    .get("totals")
                    .and_then(|t| t.get(key))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0) as u64;
                metrics.counter_add(&format!("{prefix}{key}"), total);
            }
        }
    };
    let (mut report, mut rows, names) = if resilience {
        let mut specs = if storm {
            let mut pair = storm_pair(org.unwrap_or("scaleout-ooo"), servers, seed, quick);
            if let Some(want) = shed {
                pair.retain(|s| s.shed == want);
            }
            pair
        } else {
            resilience_grid(servers, seed, quick, org, topology, retry, shed)
        };
        // `--slo` arms the monitoring plane on the ambient sweep; the
        // storm pair arms it unconditionally (it is the committed
        // detection benchmark). Arming is part of the spec identity, so
        // names and cache keys are computed after it.
        if slo {
            for spec in &mut specs {
                spec.slo = true;
            }
        }
        let names: Vec<String> = specs.iter().map(|s| s.name()).collect();
        let rows = spans.time(section, |_| resilience_points(&exec, section, &specs));
        let keys = ["offered", "issued", "retries", "hedges", "goodput", "shed"];
        sum_totals(&mut metrics, &rows, "fleet.resilience.", &keys);
        metrics.gauge_set("fleet.resilience.points", rows.len() as f64);
        // Burn-rate detection metrics (`metrics.slo.*`) — exact replays
        // of the rows' embedded analyses. No-op when no row armed a spec.
        add_slo_metrics(&rows, &mut metrics);
        let mut report = Report::new("fleet", "Scale-Out Processors: fleet resilience simulation");
        report.set("campaign", Json::from(section));
        report.set("quick", Json::from(quick));
        report.set(
            "config",
            Json::object()
                .with("servers", servers)
                .with("seed", seed)
                .with("org", org.map_or(Json::Null, Json::from))
                .with("topology", topology.map_or(Json::Null, Json::from))
                .with("retry", retry.map_or(Json::Null, Json::from))
                .with("shed", shed.map_or(Json::Null, Json::Bool))
                .with("storm", storm),
        );
        (report, rows, names)
    } else {
        let mut specs = grid(servers, seed, quick, org, policy);
        for spec in &mut specs {
            spec.series = series;
        }
        let names: Vec<String> = specs.iter().map(|s| s.name()).collect();
        let rows = spans.time(section, |_| fleet_points(&exec, section, &specs));
        sum_totals(
            &mut metrics,
            &rows,
            "fleet.requests.",
            &["offered", "served", "dropped"],
        );
        metrics.gauge_set("fleet.points", rows.len() as f64);
        let mut report = Report::new("fleet", "Scale-Out Processors: fleet simulation");
        report.set("campaign", Json::from(section));
        report.set("quick", Json::from(quick));
        report.set(
            "config",
            Json::object()
                .with("servers", servers)
                .with("seed", seed)
                .with("org", org.map_or(Json::Null, Json::from))
                .with(
                    "policy",
                    policy.map_or(Json::Null, |p| Json::from(p.label())),
                ),
        );
        (report, rows, names)
    };
    metrics.gauge_set("fleet.servers", f64::from(servers));
    metrics.merge(&exec.metrics_snapshot());
    let telemetry = lift_series(&mut rows, &names);
    report.set(section, Json::Arr(rows.clone()));
    if let Some(telemetry) = telemetry {
        report.set("series", telemetry);
    }
    let doc = report.to_json(&spans, &metrics);
    write_report(&out, &if stable { stabilized(&doc) } else { doc });

    if resilience {
        print_resilience_rows(&rows);
    } else {
        print_fleet_rows(&rows);
    }
    println!(
        "{section}: {} point(s), {} server(s), seed {seed} on {} worker(s)",
        rows.len(),
        servers,
        exec.workers()
    );
    println!("wrote {out}");
    exit_on_failures(&exec, "fleet");
}

/// The plain fleet table: one line per organization × policy.
fn print_fleet_rows(rows: &[Json]) {
    println!(
        "{:<14} {:<7} {:>9} {:>7} {:>7} {:>7} {:>12}",
        "org", "policy", "sust.qps", "p50ms", "p99ms", "drop%", "$/k-qps/mo"
    );
    for row in rows {
        let s = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("?").to_owned();
        if row.get("failed").is_some() {
            println!("{:<14} {:<7} FAILED", s("org"), s("policy"));
            continue;
        }
        let n = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let cost = match row
            .get("cost_per_sustained_kqps_usd")
            .and_then(Json::as_f64)
        {
            Some(c) => format!("{c:.2}"),
            None => "-".to_owned(),
        };
        println!(
            "{:<14} {:<7} {:>9.0} {:>7.0} {:>7.0} {:>6.2}% {:>12}",
            s("org"),
            s("policy"),
            n("sustained_qps"),
            n("p50_ms"),
            n("p99_ms"),
            n("drop_pct"),
            cost
        );
    }
}

/// The resilience table, one line per cell, then one detection line
/// per row that armed the SLO plane.
fn print_resilience_rows(rows: &[Json]) {
    println!(
        "{:<14} {:<5} {:<7} {:<5} {:<5} {:>7} {:>6} {:>11} {:>12}",
        "org", "topo", "retry", "shed", "storm", "avail%", "amp", "goodput", "$/k-qps/mo"
    );
    for row in rows {
        let s = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("?").to_owned();
        if row.get("failed").is_some() {
            println!(
                "{:<14} {:<5} {:<7} FAILED",
                s("org"),
                s("topology"),
                s("retry")
            );
            continue;
        }
        let n = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let b = |k: &str| match row.get(k) {
            Some(Json::Bool(true)) => "on",
            _ => "off",
        };
        let cost = match row
            .get("cost_per_delivered_kqps_usd")
            .and_then(Json::as_f64)
        {
            Some(c) => format!("{c:.2}"),
            None => "-".to_owned(),
        };
        println!(
            "{:<14} {:<5} {:<7} {:<5} {:<5} {:>6.2}% {:>6.2} {:>11.0} {:>12}",
            s("org"),
            s("topology"),
            s("retry"),
            b("shed"),
            b("storm"),
            100.0 * n("availability"),
            n("retry_amplification"),
            n("goodput_qps"),
            cost
        );
    }
    for row in rows {
        let Some(analysis) = row
            .get("slo")
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
        else {
            continue;
        };
        let shed = matches!(row.get("shed"), Some(Json::Bool(true)));
        let tick = |v: Option<&Json>| match v.and_then(Json::as_f64) {
            Some(t) => format!("{t:.0}"),
            None => "-".to_owned(),
        };
        println!(
            "slo shed={}: detection @{} (ttd {}s, ttr {}s), {} incident(s)",
            if shed { "on" } else { "off" },
            tick(analysis.get("detection_tick")),
            tick(analysis.get("ttd_ticks")),
            tick(row.get("ttr_ticks")),
            analysis
                .get("rules")
                .and_then(Json::as_arr)
                .map_or(0, |rules| {
                    rules
                        .iter()
                        .filter_map(|r| r.get("incidents").and_then(Json::as_arr))
                        .map(<[Json]>::len)
                        .sum()
                }),
        );
    }
}

/// Lifts each row's embedded `series` object — present only when the
/// run armed telemetry — out of the row and into a self-contained
/// top-level `series` section entry: the series set plus the scripted
/// cause and repair timing `sop slo` needs to replay the burn-rate
/// analysis offline. Returns `None` (no section, zero new report keys)
/// when no row carried telemetry.
fn lift_series(rows: &mut [Json], names: &[String]) -> Option<Json> {
    let mut entries = Vec::new();
    for (row, name) in rows.iter_mut().zip(names) {
        let Json::Obj(members) = row else { continue };
        let Some(pos) = members.iter().position(|(key, _)| key == "series") else {
            continue;
        };
        let (_, set) = members.remove(pos);
        let mut entry = Json::object().with("name", name.as_str());
        if let Some(st) = row.get("storm_stats") {
            entry = entry.with(
                "cause",
                Json::object()
                    .with("label", "storm")
                    .with(
                        "start_tick",
                        st.get("start_tick").cloned().unwrap_or(Json::Null),
                    )
                    .with(
                        "repair_tick",
                        st.get("end_tick").cloned().unwrap_or(Json::Null),
                    ),
            );
        }
        if let Some(ttr) = row.get("ttr_ticks") {
            entry = entry.with("ttr_ticks", ttr.clone());
        }
        entries.push(entry.with("series", set));
    }
    if entries.is_empty() {
        None
    } else {
        Some(Json::Arr(entries))
    }
}

/// The `sop slo` subcommand: replays the multi-window, multi-burn-rate
/// SLO analysis over a report's `series` section — no simulation runs,
/// the exact-integer series are reloaded and the burn engine re-derives
/// the incident timeline, detection tick, and TTD. `--target` sets the
/// availability objective (default 99.9%); `--latency-ms N` adds a
/// latency objective at `--latency-target` (default 99%);
/// `--ascii-sparkline` renders the per-window goodness ratio.
fn slo_cmd(args: &[String]) {
    use scale_out_processors::obs::slo::evaluate;
    use scale_out_processors::obs::{BurnRule, ScriptedCause, SeriesSet, SloSpec};

    accept_flags(
        args,
        &["--ascii-sparkline"],
        &["--target", "--latency-ms", "--latency-target"],
    );
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!(
            "usage: sop slo <report.json> [--target PCT] [--latency-ms N] \
             [--latency-target PCT] [--ascii-sparkline]"
        );
        std::process::exit(2);
    };
    let pct = |flag: &str, default: f64| -> f64 {
        let v: f64 = numeric_flag(args, flag).unwrap_or(default);
        if v <= 0.0 || v >= 100.0 {
            eprintln!("{flag} must be a percentage in (0, 100)");
            std::process::exit(2);
        }
        v / 100.0
    };
    let target = pct("--target", 99.9);
    let latency_ms: Option<u64> = numeric_flag(args, "--latency-ms");
    let latency_target = pct("--latency-target", 99.0);
    let sparkline = args.iter().any(|a| a == "--ascii-sparkline");

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = scale_out_processors::obs::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not valid JSON: {e:?}");
        std::process::exit(2);
    });
    let Some(entries) = doc
        .get("sections")
        .and_then(|s| s.get("series"))
        .and_then(Json::as_arr)
    else {
        eprintln!(
            "{path}: no series section — produce one with `sop fleet --resilience --storm`, \
             `sop fleet --resilience --slo`, or `sop fleet --series`"
        );
        std::process::exit(1);
    };

    let rules = BurnRule::standard();
    for entry in entries {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(set) = entry.get("series").and_then(SeriesSet::from_json) else {
            eprintln!("{name}: malformed series set, skipping");
            continue;
        };
        let cause = entry.get("cause").map(|c| ScriptedCause {
            label: c
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("cause")
                .to_owned(),
            start_tick: c.get("start_tick").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            repair_tick: c.get("repair_tick").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        });
        // Resilience runs measure goodput/offered; plain fleet runs
        // measure served/offered. Both are exact-integer counters.
        let (good, total) = if set.get("goodput").is_some() {
            ("goodput", "offered")
        } else {
            ("served", "offered")
        };
        let mut specs = vec![SloSpec::availability_over(target, good, total)];
        if let Some(ms) = latency_ms {
            specs.push(SloSpec::latency(ms, latency_target));
        }
        println!("{name}");
        let ttr = entry.get("ttr_ticks").and_then(Json::as_f64);
        for spec in &specs {
            let analysis = evaluate(&set, spec, &rules, cause.as_ref());
            print_slo_analysis(&analysis, ttr);
        }
        if sparkline {
            let points = set.ratio(good, total);
            if !points.is_empty() {
                const LEVELS: &[u8] = b" .:-=+*#";
                let line: String = points
                    .iter()
                    .map(|(_, r)| {
                        let idx = (r.clamp(0.0, 1.0) * (LEVELS.len() - 1) as f64).round() as usize;
                        LEVELS[idx] as char
                    })
                    .collect();
                let (low_tick, low) =
                    points.iter().fold(
                        (0u64, f64::INFINITY),
                        |acc, &(t, r)| {
                            if r < acc.1 {
                                (t, r)
                            } else {
                                acc
                            }
                        },
                    );
                println!("  {good}/{total} [{line}] min {low:.3} @ tick {low_tick}");
            }
        }
        println!();
    }
}

/// Renders one replayed SLO analysis: the per-rule burn table, every
/// incident with its tick stamps and cause tag, and the headline
/// detection-vs-repair summary.
fn print_slo_analysis(a: &scale_out_processors::obs::SloAnalysis, ttr: Option<f64>) {
    println!("  objective {} (target {:.3}%)", a.name, 100.0 * a.target);
    println!(
        "  {:<6} {:>7} {:>7} {:>6} {:>10} {:>10}  incidents",
        "rule", "short", "long", "thr", "max-short", "max-long"
    );
    for r in &a.rules {
        let incidents: Vec<String> = r
            .incidents
            .iter()
            .map(|i| {
                let cause = i
                    .cause
                    .as_deref()
                    .map(|c| format!(" [{c}]"))
                    .unwrap_or_default();
                match i.cleared_tick {
                    Some(c) => format!("fired@{}{cause} cleared@{c}", i.fired_tick),
                    None => format!("fired@{}{cause} ACTIVE", i.fired_tick),
                }
            })
            .collect();
        println!(
            "  {:<6} {:>6}s {:>6}s {:>6.1} {:>10.2} {:>10.2}  {}",
            r.rule.label,
            r.rule.short_ticks,
            r.rule.long_ticks,
            r.rule.threshold,
            r.max_short_burn,
            r.max_long_burn,
            if incidents.is_empty() {
                "-".to_owned()
            } else {
                incidents.join(", ")
            }
        );
    }
    match (a.detection_tick, a.ttd_ticks) {
        (Some(det), Some(ttd)) => {
            let ttr_s = ttr.map(|r| format!(", ttr {r:.0}s")).unwrap_or_default();
            let lead = ttr
                .map(|r| format!(", lead {:.0}s", r - ttd as f64))
                .unwrap_or_default();
            println!("  detection @{det} (ttd {ttd}s{ttr_s}{lead})");
        }
        (Some(det), None) => println!("  detection @{det}"),
        _ => println!("  no detection (SLO healthy)"),
    }
}

/// Audits the on-disk result cache: every entry re-validated against its
/// content hash, stray `*.tmp.*` debris and foreign files called out.
/// Exits non-zero if anything but valid entries is found.
fn cache(args: &[String]) {
    accept_flags(args, &[], &["--dir"]);
    let dir = value_flag(args, "--dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(scale_out_processors::exec::default_cache_dir);
    let audit = match audit_dir(&dir) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot audit {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    println!("cache {}", dir.display());
    println!("  valid entries: {}", audit.valid);
    println!("  invalid entries: {}", audit.invalid.len());
    for name in &audit.invalid {
        println!("    {name}");
    }
    println!("  stray tmp files: {}", audit.stray_tmp.len());
    for name in &audit.stray_tmp {
        println!("    {name}");
    }
    println!("  other files: {}", audit.other.len());
    for name in &audit.other {
        println!("    {name}");
    }
    if !audit.is_clean() {
        std::process::exit(1);
    }
}

fn core_kind(args: &[String]) -> CoreKind {
    match args.get(1).map(String::as_str) {
        Some("ooo") => CoreKind::OutOfOrder,
        Some("io") => CoreKind::InOrder,
        Some("conv") => CoreKind::Conventional,
        _ => {
            eprintln!("expected a core type: ooo | io | conv");
            std::process::exit(2);
        }
    }
}

fn node(args: &[String]) -> TechnologyNode {
    match choice_flag(args, "--node", &["40", "32", "20"]) {
        Some("20") => TechnologyNode::N20,
        Some("32") => TechnologyNode::N32,
        _ => TechnologyNode::N40,
    }
}

fn design(args: &[String]) -> DesignKind {
    let name = args.get(1).map(String::as_str).unwrap_or("");
    let all = roster();
    all.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| *d)
        .unwrap_or_else(|| {
            eprintln!("unknown design {name:?}; try `sop list`");
            std::process::exit(2);
        })
}

fn roster() -> Vec<(&'static str, DesignKind)> {
    vec![
        ("conventional", DesignKind::Conventional),
        ("tiled-ooo", DesignKind::Tiled(CoreKind::OutOfOrder)),
        ("tiled-io", DesignKind::Tiled(CoreKind::InOrder)),
        (
            "llcopt-ooo",
            DesignKind::LlcOptimalTiled(CoreKind::OutOfOrder),
        ),
        ("llcopt-io", DesignKind::LlcOptimalTiled(CoreKind::InOrder)),
        (
            "ir-ooo",
            DesignKind::LlcOptimalTiledIr(CoreKind::OutOfOrder),
        ),
        ("ir-io", DesignKind::LlcOptimalTiledIr(CoreKind::InOrder)),
        ("ideal-ooo", DesignKind::Ideal(CoreKind::OutOfOrder)),
        ("ideal-io", DesignKind::Ideal(CoreKind::InOrder)),
        ("1pod-ooo", DesignKind::OnePod(CoreKind::OutOfOrder)),
        ("1pod-io", DesignKind::OnePod(CoreKind::InOrder)),
        ("scaleout-ooo", DesignKind::ScaleOut(CoreKind::OutOfOrder)),
        ("scaleout-io", DesignKind::ScaleOut(CoreKind::InOrder)),
    ]
}

fn list(args: &[String]) {
    accept_flags(args, &[], &[]);
    for (name, _) in roster() {
        println!("{name}");
    }
}

fn pod(args: &[String]) {
    accept_flags(args, &[], &["--node"]);
    let kind = core_kind(args);
    let node = node(args);
    let space = PodSearchSpace::thesis_chapter3(kind, node);
    let peak = optimal_pod(&space);
    let pick = preferred_pod(&space, 0.05);
    println!("PD-optimal {kind:?} pod at {node}:");
    println!(
        "  peak:     {} cores + {}MB  (PD {:.4})",
        peak.config.cores, peak.config.llc_mb, peak.performance_density
    );
    println!(
        "  adopted:  {} cores + {}MB  ({:.1}mm2, {:.1}W, {:.1}GB/s)",
        pick.config.cores, pick.config.llc_mb, pick.area_mm2, pick.power_w, pick.bandwidth_gbps
    );
}

fn chip(args: &[String]) {
    accept_flags(args, &[], &["--node"]);
    let d = design(args);
    let node = node(args);
    let c = reference_chip(d, node);
    println!("{} at {node}:", c.label);
    println!("  cores             {}", c.cores);
    println!("  LLC               {:.1} MB", c.llc_mb);
    println!("  memory channels   {}", c.memory_channels);
    println!("  die               {:.1} mm2 ({})", c.die_mm2, c.binding);
    println!("  power             {:.1} W", c.power_w);
    println!("  perf density      {:.4} IPC/mm2", c.performance_density);
    println!("  perf/W            {:.3}", c.perf_per_watt);
}

fn dc(args: &[String]) {
    accept_flags(args, &[], &["--mem"]);
    let d = design(args);
    let mem: u32 = numeric_flag(args, "--mem").unwrap_or(64);
    let params = TcoParams::thesis();
    let dc = Datacenter::for_design(d, &params, mem);
    println!(
        "20MW datacenter of {} servers ({}GB each):",
        dc.chip.label, mem
    );
    println!("  sockets per 1U    {}", dc.sockets_per_server);
    println!("  total chips       {}", dc.total_chips());
    println!("  chip price        ${:.0}", dc.chip_price_usd);
    println!(
        "  TCO               ${:.2}M/month",
        dc.tco.total_usd() / 1e6
    );
    println!("  perf/TCO          {:.3}", dc.perf_per_tco());
    println!("  perf/W            {:.4}", dc.perf_per_watt());
}

/// Runs a 64-core pod with transaction tracing on and writes the event
/// log in Chrome trace format (load it at `chrome://tracing` or in
/// Perfetto). One simulated cycle maps to one microsecond. Sampled
/// transactions appear as per-component `txn.hop` lanes; `--analyze`
/// additionally prints the per-stage latency breakdown table. `--cores N`
/// runs the chapter-3 validation point instead of the full 64-core pod.
fn trace(args: &[String]) {
    accept_flags(
        args,
        &["--quick", "--analyze"],
        &["--topo", "--out", "--sample", "--cores"],
    );
    let name = args.get(1).map(String::as_str).unwrap_or("websearch");
    let workload = workload_by_name(name);
    let topo = topology_arg(args);
    let out = value_flag(args, "--out").unwrap_or("trace.json");
    let (warm, measure) = if args.iter().any(|a| a == "--quick") {
        (1_000, 2_000)
    } else {
        (4_000, 8_000)
    };
    let sample: u64 = numeric_flag(args, "--sample").unwrap_or(1);
    if sample == 0 {
        eprintln!("--sample must be at least 1");
        std::process::exit(2);
    }
    let cores: Option<u32> = numeric_flag(args, "--cores");
    let (cfg, point) = match cores {
        Some(n) => (
            SimConfig::validation(workload, n, topo),
            format!("validation_{n}"),
        ),
        None => (SimConfig::pod_64(workload, topo), "pod_64".to_owned()),
    };

    let mut machine = Machine::new(cfg);
    machine.enable_tracing(1 << 16);
    machine.enable_txn_tracing(sample);
    let result = machine.run_window(warm, measure);
    let log = machine.event_log().expect("tracing was enabled");
    let process = format!("{point} {workload:?} {topo:?}");
    let trace = log.to_chrome_trace(&process);
    if let Err(e) = write_atomic(out, &(trace.to_compact_string() + "\n")) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "{} events ({} dropped), aggregate IPC {:.2}",
        log.events().count(),
        log.dropped(),
        result.aggregate_ipc()
    );
    println!("wrote {out}");
    if args.iter().any(|a| a == "--analyze") {
        let breakdown = TxnBreakdown::from_registry(&result.metrics)
            .expect("transaction tracing was armed, sim.txn.total is exported");
        println!();
        print!("{}", breakdown.render());
        if !breakdown.consistent() {
            std::process::exit(1);
        }
    }
}

/// Resolves a workload by its debug name or label (case- and
/// punctuation-insensitive), exiting with usage help when unknown.
fn workload_by_name(name: &str) -> Workload {
    Workload::ALL
        .iter()
        .copied()
        .find(|w| {
            let debug = format!("{w:?}").to_lowercase();
            let label = w.label().to_lowercase().replace([' ', '-'], "");
            let wanted = name.to_lowercase().replace([' ', '-'], "");
            debug == wanted || label == wanted
        })
        .unwrap_or_else(|| {
            eprintln!("unknown workload {name:?}; one of:");
            for w in Workload::ALL {
                eprintln!("  {:?}", w);
            }
            std::process::exit(2);
        })
}

/// Parses `--topo mesh|fbfly|nocout` (default NOC-Out).
fn topology_arg(args: &[String]) -> TopologyKind {
    match choice_flag(args, "--topo", &["mesh", "fbfly", "nocout"]) {
        Some("mesh") => TopologyKind::Mesh,
        Some("fbfly") => TopologyKind::FlattenedButterfly,
        _ => TopologyKind::NocOut,
    }
}

/// Runs a self-profiled pod window and prints the host-side component
/// self-time table: where the simulator's own wall clock goes (NOC
/// routing, directory, LLC banks, memory channels, core stepping,
/// next-event calculation) per simulated cycle. The full report —
/// `prof` section plus raw `prof.*` counters in `metrics` — is written
/// as a `sop-report/v1` document. Exits 1 if the attributed self-times
/// exceed the measured advance wall (a profiler bug, not a model bug).
///
/// With `--analyze FILE [FILE2]` no simulation runs: the table is
/// re-rendered from the report's metrics, and a second file is diffed
/// against the first under `sop diff` tolerance rules.
fn prof(args: &[String]) {
    if args.iter().any(|a| a == "--analyze") {
        accept_flags(args, &["--analyze"], &["--tol", "--tol-path"]);
        prof_analyze(args);
        return;
    }
    accept_flags(args, &["--quick"], &["--topo", "--cores", "--json"]);
    let name = args
        .get(1)
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or("websearch");
    let workload = workload_by_name(name);
    let topo = topology_arg(args);
    let (warm, measure) = if args.iter().any(|a| a == "--quick") {
        (1_000, 2_000)
    } else {
        (4_000, 8_000)
    };
    let cores: Option<u32> = numeric_flag(args, "--cores");
    let out = value_flag(args, "--json").unwrap_or("prof.json");
    let (cfg, point) = match cores {
        Some(n) => (
            SimConfig::validation(workload, n, topo),
            format!("validation_{n}"),
        ),
        None => (SimConfig::pod_64(workload, topo), "pod_64".to_owned()),
    };

    let mut machine = Machine::new(cfg);
    machine.enable_profiling();
    let mut spans = SpanLog::new();
    let result = spans.time("prof", |_| machine.run_window(warm, measure));
    let breakdown = ProfBreakdown::from_registry(&result.metrics)
        .expect("profiling was armed, prof.advance is exported");
    let mut report = Report::new("prof", "Scale-Out Processors: host self-profile");
    report.set(
        "point",
        Json::object()
            .with("point", point.as_str())
            .with("workload", workload.label())
            .with("topology", format!("{topo:?}").as_str())
            .with("warm", warm)
            .with("measure", measure),
    );
    report.set("prof", breakdown.to_json());
    write_report(out, &report.to_json(&spans, &result.metrics));
    print!("{}", breakdown.render());
    println!("wrote {out}");
    if !breakdown.consistent() {
        std::process::exit(1);
    }
}

/// The `--analyze` arm of [`prof`]: re-renders the component table from
/// one or two report documents' `prof.*` metrics; with two, diffs the
/// `prof` sections under `--tol`/`--tol-path` (default 25% — host
/// timings are noisy).
fn prof_analyze(args: &[String]) {
    let at = args
        .iter()
        .position(|a| a == "--analyze")
        .expect("checked by caller");
    let files: Vec<&String> = args[at + 1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .collect();
    if files.is_empty() || files.len() > 2 {
        eprintln!("usage: sop prof --analyze <a.json> [b.json] [--tol PCT] [--tol-path P=PCT]");
        std::process::exit(2);
    }
    let cfg = diff_config(args, 25.0);
    let load = |path: &str| -> Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        scale_out_processors::obs::json::parse(&text).unwrap_or_else(|e| {
            eprintln!("{path} is not valid JSON: {e:?}");
            std::process::exit(2);
        })
    };
    let breakdown_of = |doc: &Json, path: &str| -> ProfBreakdown {
        doc.get("metrics")
            .and_then(ProfBreakdown::from_metrics_json)
            .unwrap_or_else(|| {
                eprintln!("{path}: no prof.* metrics (was the run profiled?)");
                std::process::exit(1);
            })
    };
    let doc_a = load(files[0]);
    let a = breakdown_of(&doc_a, files[0]);
    println!("{}:", files[0]);
    print!("{}", a.render());
    let mut failed = !a.consistent();
    if let Some(path_b) = files.get(1) {
        let doc_b = load(path_b);
        let b = breakdown_of(&doc_b, path_b);
        println!();
        println!("{path_b}:");
        print!("{}", b.render());
        failed |= !b.consistent();
        let result = diff_reports(&a.to_json(), &b.to_json(), &cfg);
        println!();
        if result.ok() {
            println!(
                "prof sections match ({} values compared, tol {}%)",
                result.compared,
                cfg.tol * 100.0
            );
        } else {
            for v in &result.violations {
                eprintln!("DIFF {v}");
            }
            eprintln!(
                "prof sections diverge: {} violation(s) across {} compared values",
                result.violations.len(),
                result.compared
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Live terminal monitor over a campaign's heartbeat stream
/// (`progress.ndjson` in the result cache, or `--file PATH`). Redraws
/// every `--interval-ms` (default 500) until the campaign ends;
/// `--once` renders a single snapshot and exits (1 when the stream
/// holds no campaign yet).
fn top(args: &[String]) {
    accept_flags(args, &["--once"], &["--file", "--interval-ms"]);
    let file = value_flag(args, "--file")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| scale_out_processors::exec::default_cache_dir().join(PROGRESS_FILE));
    let once = args.iter().any(|a| a == "--once");
    let interval: u64 = numeric_flag(args, "--interval-ms").unwrap_or(500);
    loop {
        let snap = snapshot(&read_events(&file));
        if once {
            match snap {
                Some(s) => print!("{}", s.render()),
                None => {
                    eprintln!("no campaign activity in {}", file.display());
                    std::process::exit(1);
                }
            }
            return;
        }
        // Clear the screen and repaint the panel in place.
        print!("\x1b[2J\x1b[H");
        match snap {
            Some(s) => {
                print!("{}", s.render());
                if s.done {
                    return;
                }
            }
            None => println!("sop top: waiting for events in {}", file.display()),
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval));
    }
}

/// Dumps a report's top-level `metrics` object — pretty JSON by
/// default, Prometheus text exposition with `--text` (counters, gauges,
/// and histograms re-expanded into cumulative `_bucket` samples).
fn metrics_cmd(args: &[String]) {
    accept_flags(args, &["--text"], &[]);
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: sop metrics <report.json> [--text]");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = scale_out_processors::obs::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not valid JSON: {e:?}");
        std::process::exit(2);
    });
    let metrics = doc.get("metrics").cloned().unwrap_or(Json::Null);
    if args.iter().any(|a| a == "--text") {
        print!("{}", exposition_from_json(&metrics));
        // Telemetry last-values: one sample per series in the report's
        // `series` section (when the run armed telemetry), so scrapes
        // see where each windowed counter/digest ended up.
        use scale_out_processors::obs::SeriesSet;
        for entry in doc
            .get("sections")
            .and_then(|s| s.get("series"))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let entry_name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
            let Some(set) = entry.get("series").and_then(SeriesSet::from_json) else {
                continue;
            };
            for (sname, ts) in set.iter() {
                if let Some(v) = ts.last_value() {
                    println!(
                        "{} {v}",
                        metric_name(&format!("series.{entry_name}.{sname}.last"))
                    );
                }
            }
        }
    } else {
        println!("{}", metrics.to_pretty_string());
    }
}

/// Structurally compares two `sop-report/v1` documents. Numeric leaves
/// are held to `--tol` percent (default exact); `--tol-path PREFIX=PCT`
/// loosens individual subtrees (longest prefix wins). Wall-clock
/// subtrees (`spans`, exec timings) are ignored. Exits 1 when any value
/// moved beyond tolerance or a key appeared/vanished, 2 on usage or IO
/// errors.
fn diff(args: &[String]) {
    accept_flags(args, &[], &["--tol", "--tol-path"]);
    let (Some(path_a), Some(path_b)) = (args.get(1), args.get(2)) else {
        eprintln!("usage: sop diff <a.json> <b.json> [--tol PCT] [--tol-path PREFIX=PCT]");
        std::process::exit(2);
    };
    let cfg = diff_config(args, 0.0);
    let load = |path: &str| -> Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        scale_out_processors::obs::json::parse(&text).unwrap_or_else(|e| {
            eprintln!("{path} is not valid JSON: {e:?}");
            std::process::exit(2);
        })
    };
    let a = load(path_a);
    let b = load(path_b);
    let result = diff_reports(&a, &b, &cfg);
    if result.ok() {
        println!(
            "{path_a} and {path_b} match ({} values compared, tol {}%)",
            result.compared,
            cfg.tol * 100.0
        );
    } else {
        for v in &result.violations {
            eprintln!("DIFF {v}");
        }
        eprintln!(
            "{path_a} and {path_b} diverge: {} violation(s) across {} compared values",
            result.violations.len(),
            result.compared
        );
        std::process::exit(1);
    }
}

fn stack(args: &[String]) {
    accept_flags(args, &["--fixed-distance"], &[]);
    let kind = core_kind(args);
    let dies = match args.get(2).map(|v| (v, v.parse::<u32>())) {
        Some((_, Ok(dies))) if dies > 0 => dies,
        Some((v, _)) => {
            eprintln!("sop stack: invalid value for <dies>: {v} (a die count of at least 1)");
            std::process::exit(2);
        }
        None => {
            eprintln!("sop stack: <dies> needs a value");
            std::process::exit(2);
        }
    };
    let strategy = if args.iter().any(|a| a == "--fixed-distance") {
        StackStrategy::FixedDistance
    } else {
        StackStrategy::FixedPod
    };
    let (cores, mb) = match kind {
        CoreKind::InOrder => (64, 2.0),
        _ => (32, 2.0),
    };
    let pod = Pod3d::new(kind, cores, mb, dies, strategy);
    let chip = compose_3d(&pod);
    let thermal = ThermalModel::datacenter(CoolingTechnology::LiquidCooled);
    println!("{kind:?} 3D pod, {dies} die(s), {strategy:?}:");
    println!(
        "  pod               {} cores + {:.0}MB",
        pod.total_cores(),
        pod.total_llc_mb()
    );
    println!("  footprint         {:.1} mm2/die", pod.footprint_mm2());
    println!(
        "  chip              {} pods, {} channels",
        chip.pods, chip.memory_channels
    );
    println!("  PD (per volume)   {:.4}", chip.performance_density_3d);
    println!(
        "  junction temp     {:.0}C (limit {:.0}C, liquid cooled)",
        thermal.junction_c(chip.power_w, dies),
        thermal.t_max_c
    );
    if !thermal.admits(chip.power_w, dies) {
        println!("  WARNING: thermally infeasible at this power");
    }
}
