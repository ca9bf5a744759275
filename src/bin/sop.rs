//! `sop` — interactive design-space explorer.
//!
//! ```text
//! usage: sop pod <ooo|io|conv> [--node 40|32|20]
//!        sop chip <design> [--node 40|32|20]
//!        sop dc <design> [--mem GB]
//!        sop stack <ooo|io|conv> <dies> [--fixed-distance]
//!        sop trace [<workload>] [--topo mesh|fbfly|nocout] [--out FILE]
//!            [--sample N] [--cores N] [--quick] [--analyze]
//!        sop diff <a.json> <b.json> [--tol PCT] [--tol-path PREFIX=PCT]...
//!        sop sweep <ch2|ch3|ch4|ch5|ch6|degradation|ablation|fleet|resilience|all>
//!            [--quick] [--stable] [--json FILE] [--jobs N] [--timeout-secs N]
//!            [--no-cache] [--no-heartbeat]
//!        sop fleet [--servers N] [--seed S]
//!            [--org scaleout-ooo|scaleout-io|smallpod-ooo|bigpod-ooo] [--quick]
//!            [--stable] [--json FILE] [--policy drain|derate] [--series]
//!            [--jobs N] [--timeout-secs N] [--no-cache] [--no-heartbeat]
//!        sop fleet --resilience [--servers N] [--seed S]
//!            [--org scaleout-ooo|scaleout-io|smallpod-ooo|bigpod-ooo] [--quick]
//!            [--stable] [--json FILE] [--topology flat|rack|wide]
//!            [--retry none|naive|backoff|hedge] [--shed on|off] [--storm] [--slo]
//!            [--jobs N] [--timeout-secs N] [--no-cache] [--no-heartbeat]
//!        sop slo <report.json> [--target PCT] [--latency-ms N]
//!            [--latency-target PCT] [--ascii-sparkline]
//!        sop prof [<workload>] [--topo mesh|fbfly|nocout] [--cores N]
//!            [--json FILE] [--quick]
//!        sop prof --analyze <a.json> [<b.json>] [--tol PCT]
//!            [--tol-path PREFIX=PCT]...
//!        sop top [--file PATH] [--interval-ms N] [--once]
//!        sop metrics <report.json> [--text]
//!        sop cache [--dir DIR]
//!        sop list
//! ```
//!
//! The text above is generated from [`specs`], the grammar the parser
//! checks argv against before any work (see `sop_exec::args`). Each
//! subcommand's function documents what it does.

use scale_out_processors::bench::campaign::{run_campaign, CAMPAIGNS};
use scale_out_processors::core::designs::{reference_chip, DesignKind};
use scale_out_processors::core::pod::{optimal_pod, preferred_pod, PodSearchSpace};
use scale_out_processors::exec::audit_dir;
use scale_out_processors::exec::heartbeat::{read_events, snapshot, PROGRESS_FILE};
use scale_out_processors::exec::{Args, Exec, ExecConfig, Spec};
use scale_out_processors::fleet::{DomainTopology, Policy, RetryPolicy, ORGS};
use scale_out_processors::noc::TopologyKind;
use scale_out_processors::obs::prom::{exposition_from_json, metric_name};
use scale_out_processors::obs::{
    diff_reports, json, stabilized, write_atomic, DiffConfig, Json, ProfBreakdown, Registry,
    Report, SpanLog, TxnBreakdown,
};
use scale_out_processors::sim::{Machine, SimConfig};
use scale_out_processors::tco::{Datacenter, TcoParams};
use scale_out_processors::tech::{CoreKind, TechnologyNode};
use scale_out_processors::threed::{
    compose_3d, CoolingTechnology, Pod3d, StackStrategy, ThermalModel,
};
use scale_out_processors::workloads::Workload;

/// Every subcommand's grammar, in `sop help` order. A subcommand with
/// two modes declares one spec per mode, the plain one first.
fn specs() -> Vec<Spec> {
    let cores = ["ooo", "io", "conv"];
    let nodes = ["40", "32", "20"];
    let topos = ["mesh", "fbfly", "nocout"];
    let designs: Vec<&str> = roster().into_iter().map(|(name, _)| name).collect();
    let tol = [("--tol", "PCT"), ("--tol-path", "PREFIX=PCT")];
    let fleet = || {
        let spec = Spec::new("sop fleet").values([("--servers", "N"), ("--seed", "S")]);
        let spec = spec.choice("--org", ORGS.iter().map(|o| o.name));
        spec.switches(["--quick", "--stable"])
            .values([("--json", "FILE")])
    };
    vec![
        Spec::new("sop pod")
            .arg("<core>")
            .one_of(cores)
            .choice("--node", nodes),
        Spec::new("sop chip")
            .arg("<design>")
            .one_of(designs.clone())
            .choice("--node", nodes),
        Spec::new("sop dc")
            .arg("<design>")
            .one_of(designs)
            .values([("--mem", "GB")]),
        Spec::new("sop stack")
            .arg("<core>")
            .one_of(cores)
            .arg("<dies>")
            .switches(["--fixed-distance"]),
        Spec::new("sop trace")
            .optional("<workload>")
            .choice("--topo", topos)
            .values([("--out", "FILE"), ("--sample", "N"), ("--cores", "N")])
            .switches(["--quick", "--analyze"]),
        Spec::new("sop diff")
            .arg("<a.json>")
            .arg("<b.json>")
            .values(tol)
            .repeats(),
        Spec::new("sop sweep")
            .arg("<campaign>")
            .one_of(CAMPAIGNS)
            .switches(["--quick", "--stable"])
            .values([("--json", "FILE")])
            .engine(),
        fleet()
            .choice("--policy", Policy::ALL.iter().map(|p| p.label()))
            .switches(["--series"])
            .engine(),
        fleet()
            .with_mode("--resilience")
            .choice("--topology", DomainTopology::labels())
            .choice("--retry", RetryPolicy::labels())
            .choice("--shed", ["on", "off"])
            .switches(["--storm", "--slo"])
            .engine(),
        Spec::new("sop slo")
            .arg("<report.json>")
            .values([("--target", "PCT"), ("--latency-ms", "N")])
            .values([("--latency-target", "PCT")])
            .switches(["--ascii-sparkline"]),
        Spec::new("sop prof")
            .optional("<workload>")
            .choice("--topo", topos)
            .values([("--cores", "N"), ("--json", "FILE")])
            .switches(["--quick"]),
        Spec::new("sop prof")
            .with_mode("--analyze")
            .arg("<a.json>")
            .optional("<b.json>")
            .values(tol)
            .repeats(),
        Spec::new("sop top")
            .values([("--file", "PATH"), ("--interval-ms", "N")])
            .switches(["--once"]),
        Spec::new("sop metrics")
            .arg("<report.json>")
            .switches(["--text"]),
        Spec::new("sop cache").values([("--dir", "DIR")]),
        Spec::new("sop list"),
    ]
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let specs = specs();
    let cmd = argv.first().map_or("help", String::as_str);
    let rest = argv.get(1..).unwrap_or_default();
    // The spec of the mode whose switch is given, else the plain one.
    let named = || (specs.iter()).filter(|s| s.command().strip_prefix("sop ") == Some(cmd));
    let Some(spec) = named()
        .find(|s| s.mode().is_some_and(|m| rest.iter().any(|a| a == m)))
        .or_else(|| named().find(|s| s.mode().is_none()))
    else {
        let lines: Vec<String> = specs.iter().map(Spec::usage).collect();
        let usage = format!("usage: {}", lines.join("\n       "));
        if matches!(cmd, "help" | "--help" | "-h") {
            println!("{usage}");
            return;
        }
        eprintln!("unknown subcommand {cmd:?}\n{usage}");
        std::process::exit(2);
    };
    let args = spec.parse(rest);
    match cmd {
        "pod" => pod(&args),
        "chip" => chip(&args),
        "dc" => dc(&args),
        "stack" => stack(&args),
        "trace" => trace(&args),
        "diff" => diff(&args),
        "sweep" => sweep(&args),
        "fleet" => fleet(&args, spec.mode().is_some()),
        "slo" => slo_cmd(&args),
        "prof" if spec.mode().is_some() => prof_analyze(&args),
        "prof" => prof(&args),
        "top" => top(&args),
        "metrics" => metrics_cmd(&args),
        "cache" => cache(&args),
        _ => list(),
    }
}

/// Reads `--tol PCT` (default `default_pct`) and every `--tol-path
/// PREFIX=PCT` rule into a [`DiffConfig`]: the one tolerance reader
/// behind `sop diff` and `sop prof --analyze`. An unparsable percentage
/// exits 2, so a gate can never quietly run at the default tolerance.
fn diff_config(args: &Args, default_pct: f64) -> DiffConfig {
    let fraction = |flag: &str, pct: f64| match pct {
        p if p.is_finite() && p >= 0.0 => p / 100.0,
        _ => args.fail(&format!("{flag} must be a non-negative percentage")),
    };
    let mut cfg =
        DiffConfig::with_tol(fraction("--tol", args.read("--tol").unwrap_or(default_pct)));
    for rule in args.values("--tol-path") {
        let split = rule
            .split_once('=')
            .map(|(prefix, pct)| (prefix, pct.parse()));
        let Some((prefix, Ok(pct))) = split else {
            args.fail(&format!(
                "invalid value for --tol-path: {rule} (PREFIX=PCT)"
            ));
        };
        cfg.rules
            .push((prefix.to_owned(), fraction("--tol-path", pct)));
    }
    cfg
}

/// Reads and parses the JSON document at `path`; exits 2 when it cannot.
fn load_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let parse = |t: String| json::parse(&t).map_err(|e| format!("{path} is not valid JSON: {e}"));
    text.and_then(parse).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Runs a named experiment campaign on the execution engine and writes
/// its data as a `sop-report/v1` document.
fn sweep(args: &Args) {
    let name = args.arg("<campaign>");
    let quick = args.has("--quick");
    let stable = args.has("--stable");
    let out = args
        .value("--json")
        .map_or_else(|| format!("sweep-{name}.json"), str::to_owned);
    let exec = Exec::new(ExecConfig::from_args(args));

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
        "campaign {name}: {} jobs on {} worker(s)",
        m.counter("exec.jobs.completed"),
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
fn fleet(args: &Args, resilience: bool) {
    use scale_out_processors::fleet::{
        add_slo_metrics, fleet_points, grid, resilience_grid, resilience_points, storm_pair,
    };
    let quick = args.has("--quick");
    let stable = args.has("--stable");
    let servers: u32 = args
        .read("--servers")
        .unwrap_or(if quick { 64 } else { 256 });
    if servers == 0 {
        args.fail("--servers must be at least 1");
    }
    let seed: u64 = args.read("--seed").unwrap_or(42);
    let org = args.value("--org");
    // Each mode's own flags: the other mode's spec does not declare them.
    let own = |flag, mode| if mode { args.value(flag) } else { None };
    let policy = own("--policy", !resilience).and_then(Policy::from_label);
    let series = own("--series", !resilience).is_some();
    let (storm, slo) = (own("--storm", resilience), own("--slo", resilience));
    let (storm, slo) = (storm.is_some(), slo.is_some());
    let (topology, retry) = (own("--topology", resilience), own("--retry", resilience));
    let shed = own("--shed", resilience).map(|v| v == "on");
    if storm && (topology.is_some() || retry.is_some()) {
        args.fail("the storm scenario pins --topology rack --retry naive");
    }
    let section = if resilience { "resilience" } else { "fleet" };
    let out = args
        .value("--json")
        .map_or_else(|| format!("{section}.json"), str::to_owned);
    let exec = Exec::new(ExecConfig::from_args(args));

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
fn slo_cmd(args: &Args) {
    use scale_out_processors::obs::slo::evaluate;
    use scale_out_processors::obs::{BurnRule, ScriptedCause, SeriesSet, SloSpec};

    let path = args.arg("<report.json>");
    let pct = |flag: &str, default: f64| -> f64 {
        let v: f64 = args.read(flag).unwrap_or(default);
        if v <= 0.0 || v >= 100.0 {
            args.fail(&format!("{flag} must be a percentage in (0, 100)"));
        }
        v / 100.0
    };
    let target = pct("--target", 99.9);
    let latency_ms: Option<u64> = args.read("--latency-ms");
    let latency_target = pct("--latency-target", 99.0);
    let sparkline = args.has("--ascii-sparkline");

    let doc = load_json(path);
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
/// Exits non-zero if anything but valid entries is found. A `--dir` that
/// does not exist exits 2: a mistyped path is not an empty cache. The
/// default directory, missing until a first run, audits clean.
fn cache(args: &Args) {
    let dir = match args.value("--dir") {
        Some(dir) if !std::path::Path::new(dir).exists() => {
            args.fail(&format!("cache directory {dir} does not exist"))
        }
        Some(dir) => std::path::PathBuf::from(dir),
        None => cache_dir(args),
    };
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

fn core_kind(args: &Args) -> CoreKind {
    match args.value("<core>") {
        Some("ooo") => CoreKind::OutOfOrder,
        Some("io") => CoreKind::InOrder,
        _ => CoreKind::Conventional,
    }
}

fn node(args: &Args) -> TechnologyNode {
    match args.value("--node") {
        Some("20") => TechnologyNode::N20,
        Some("32") => TechnologyNode::N32,
        _ => TechnologyNode::N40,
    }
}

fn design(args: &Args) -> DesignKind {
    let name = args.arg("<design>");
    let mut roster = roster().into_iter();
    roster
        .find(|(n, _)| *n == name)
        .expect("the spec takes only roster names")
        .1
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

fn list() {
    for (name, _) in roster() {
        println!("{name}");
    }
}

fn pod(args: &Args) {
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

fn chip(args: &Args) {
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

fn dc(args: &Args) {
    let d = design(args);
    let mem: u32 = args.read("--mem").unwrap_or(64);
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
fn trace(args: &Args) {
    let (cfg, point, workload, topo, (warm, measure)) = pod_window(args);
    let out = args.value("--out").unwrap_or("trace.json");
    let sample: u64 = args.read("--sample").unwrap_or(1);
    if sample == 0 {
        args.fail("--sample must be at least 1");
    }

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
    if args.has("--analyze") {
        let breakdown = TxnBreakdown::from_registry(&result.metrics)
            .expect("transaction tracing was armed, sim.txn.total is exported");
        println!();
        print!("{}", breakdown.render());
        if !breakdown.consistent() {
            std::process::exit(1);
        }
    }
}

/// Resolves the `<workload>` argument (default Web Search) by its debug
/// name or label (case- and punctuation-insensitive), exiting 2 with the
/// list of workloads when unknown.
fn workload_by_name(args: &Args) -> Workload {
    let name = args.value("<workload>").unwrap_or("websearch");
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
            let names: Vec<String> = Workload::ALL.iter().map(|w| format!("{w:?}")).collect();
            args.fail(&format!(
                "unknown workload {name:?}; one of: {}",
                names.join(" ")
            ))
        })
}

/// Reads `--topo mesh|fbfly|nocout` (default NOC-Out).
fn topology_arg(args: &Args) -> TopologyKind {
    match args.value("--topo") {
        Some("mesh") => TopologyKind::Mesh,
        Some("fbfly") => TopologyKind::FlattenedButterfly,
        _ => TopologyKind::NocOut,
    }
}

/// The pod window `trace` and `prof` run: `<workload>` on `--topo`, the
/// chapter-3 validation point with `--cores N` or else the 64-core pod,
/// shortened by `--quick`. Returns its config, point name, workload,
/// fabric and (warm-up, measured) cycles.
fn pod_window(args: &Args) -> (SimConfig, String, Workload, TopologyKind, (u64, u64)) {
    let (workload, topo) = (workload_by_name(args), topology_arg(args));
    let (cfg, point) = match args.read("--cores") {
        Some(n) => (
            SimConfig::validation(workload, n, topo),
            format!("validation_{n}"),
        ),
        None => (SimConfig::pod_64(workload, topo), "pod_64".to_owned()),
    };
    let window = if args.has("--quick") {
        (1_000, 2_000)
    } else {
        (4_000, 8_000)
    };
    (cfg, point, workload, topo, window)
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
fn prof(args: &Args) {
    let (cfg, point, workload, topo, (warm, measure)) = pod_window(args);
    let out = args.value("--json").unwrap_or("prof.json");

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
fn prof_analyze(args: &Args) {
    let path_a = args.arg("<a.json>");
    let cfg = diff_config(args, 25.0);
    let breakdown_of = |doc: &Json, path: &str| -> ProfBreakdown {
        doc.get("metrics")
            .and_then(ProfBreakdown::from_metrics_json)
            .unwrap_or_else(|| {
                eprintln!("{path}: no prof.* metrics (was the run profiled?)");
                std::process::exit(1);
            })
    };
    let doc_a = load_json(path_a);
    let a = breakdown_of(&doc_a, path_a);
    println!("{path_a}:");
    print!("{}", a.render());
    let mut failed = !a.consistent();
    if let Some(path_b) = args.value("<b.json>") {
        let doc_b = load_json(path_b);
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

/// The result cache directory (`SOP_CACHE_DIR` or the default); an
/// empty `SOP_CACHE_DIR` exits 2.
fn cache_dir(args: &Args) -> std::path::PathBuf {
    scale_out_processors::exec::default_cache_dir().unwrap_or_else(|e| args.fail(&e))
}

/// Live terminal monitor over a campaign's heartbeat stream
/// (`progress.ndjson` in the result cache, or `--file PATH`). Redraws
/// every `--interval-ms` (default 500) until the campaign ends;
/// `--once` renders a single snapshot and exits (1 when the stream
/// holds no campaign yet).
fn top(args: &Args) {
    let file = args
        .value("--file")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| cache_dir(args).join(PROGRESS_FILE));
    let once = args.has("--once");
    let interval: u64 = args.read("--interval-ms").unwrap_or(500);
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
fn metrics_cmd(args: &Args) {
    let doc = load_json(args.arg("<report.json>"));
    let metrics = doc.get("metrics").cloned().unwrap_or(Json::Null);
    if args.has("--text") {
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
fn diff(args: &Args) {
    let path_a = args.arg("<a.json>");
    let path_b = args.arg("<b.json>");
    let cfg = diff_config(args, 0.0);
    let a = load_json(path_a);
    let b = load_json(path_b);
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

fn stack(args: &Args) {
    let kind = core_kind(args);
    let dies: u32 = args.read("<dies>").expect("a required positional");
    if dies == 0 {
        args.fail("invalid value for <dies>: 0 (a die count of at least 1)");
    }
    let strategy = if args.has("--fixed-distance") {
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
