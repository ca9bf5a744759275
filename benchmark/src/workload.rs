//! The four workloads, as one child process runs them.
//!
//! Each workload is a closed loop of one batch job. Its inputs come from
//! the seed alone, set-up ends right before the first call into the
//! workload's first layer, and the measured phase calls the same public
//! library entry points `sop sweep` and `sop fleet` call. Work counts come
//! from the inputs (window lengths, fleet sizes), never from the
//! process-global progress counters.
//!
//! The traced variants call each layer's public function inside a span
//! (see [`crate::trace`]); they produce the per-layer metrics and the
//! same output digest as the untraced run.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sop_bench::campaign::run_campaign;
use sop_bench::points::{SimPoint, SimPointSpec};
use sop_bench::report::{checks_json, golden_checks, GoldenCheck};
use sop_bench::{ch3, ch4};
use sop_exec::{hash_hex, spec_hash, Exec, ExecConfig, Job, JobSource, ResultCache};
use sop_fleet::{FleetPointSpec, ResiliencePointSpec};
use sop_noc::TopologyKind;
use sop_obs::{stabilized, write_atomic, Json, ProfBreakdown, Report, SpanLog};
use sop_sim::{Machine, SimConfig, SimResult};
use sop_workloads::Workload as App;

use crate::stats::{nearest_rank, Summary};
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `sop sweep all --quick` from a cold process and an empty cache.
    SweepCold,
    /// Nine 64-core pods timed for 102k cycles each.
    PodLong,
    /// The plain fleet grid over one full day.
    FleetDay,
    /// The retry-storm pair with the SLO plane armed.
    Storm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepCold,
        Workload::PodLong,
        Workload::FleetDay,
        Workload::Storm,
    ];

    /// The workload's name on the command line and in results files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep-cold",
            Workload::PodLong => "pod-long",
            Workload::FleetDay => "fleet-day",
            Workload::Storm => "storm",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run of a workload's measured phase produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Work the measured phase performed, counted from its inputs:
    /// timed cycles (sweep-cold, pod-long) or server-ticks (fleet-day,
    /// storm).
    pub work: f64,
    /// Host seconds the measured phase took.
    pub timed_s: f64,
    /// `hash_hex` of the canonical output: the stabilized report, the
    /// machines' `sim.*`/`noc.*`/`mem.*` registries, or the fleet rows.
    pub digest: String,
    /// Operations attempted: jobs, golden checks, machine windows.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Workload-specific counts (`jobs_computed`, `goldens_ok`, ...).
    pub extra: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The child's result line.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("work", self.work)
            .with("timed_s", self.timed_s)
            .with("digest", self.digest.as_str())
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
            .with(
                "extra",
                Json::Obj(
                    self.extra
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
                        .collect(),
                ),
            )
    }
}

/// A workload whose set-up is done and whose measured phase is next.
pub enum Prepared {
    /// See [`Workload::SweepCold`].
    SweepCold {
        /// Scratch directory holding the fresh cache and the report.
        dir: PathBuf,
        /// One worker, fresh disk cache, heartbeat on.
        exec: Exec,
        /// The campaign's distinct simulation points: what the engine
        /// must compute, and the work it does.
        points: Vec<SimPointSpec>,
    },
    /// See [`Workload::PodLong`].
    PodLong {
        /// Built and functionally warmed machines.
        machines: Vec<Machine>,
    },
    /// See [`Workload::FleetDay`].
    FleetDay {
        /// The grid's specs.
        specs: Vec<FleetPointSpec>,
        /// Their server-ticks.
        work: f64,
        /// One worker, in-memory cache.
        exec: Exec,
    },
    /// See [`Workload::Storm`].
    Storm {
        /// The storm pair's specs.
        specs: Vec<ResiliencePointSpec>,
        /// Their server-ticks.
        work: f64,
        /// One worker, in-memory cache.
        exec: Exec,
    },
}

/// The median seconds of a workload's set-up, repeated in this process:
/// once, then again while the repetitions have taken under 0.2 s, up to
/// 1,000 times. On three workloads set-up takes microseconds, and its
/// first run in a process also pays one-time costs (page faults, symbol
/// binding) whose size swings by tens of percent with the host's load;
/// the median of the repetitions is the set-up work itself.
pub fn setup_seconds(w: Workload, seed: u64) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || (times.len() < 1_000 && started.elapsed().as_secs_f64() < 0.2) {
        let t = Instant::now();
        let prepared = prepare(w, seed);
        times.push(t.elapsed().as_secs_f64());
        prepared.discard();
    }
    Summary::of(&times).expect("at least one set-up ran").median
}

/// Runs a workload's set-up.
pub fn prepare(w: Workload, seed: u64) -> Prepared {
    match w {
        Workload::SweepCold => {
            let dir = scratch_dir(w);
            Prepared::SweepCold {
                exec: sweep_exec(&dir),
                dir,
                points: distinct(&sweep_specs()),
            }
        }
        Workload::PodLong => Prepared::PodLong {
            machines: pod_configs(seed)
                .into_iter()
                .map(|(_, cfg)| {
                    let mut m = Machine::new(cfg);
                    m.run_window(0, 0);
                    m
                })
                .collect(),
        },
        Workload::FleetDay => {
            let specs = fleet_specs(seed);
            Prepared::FleetDay {
                work: specs
                    .iter()
                    .map(|s| {
                        let p = s.params();
                        server_ticks(p.servers, p.duration_ticks)
                    })
                    .sum(),
                specs,
                exec: Exec::sequential(),
            }
        }
        Workload::Storm => {
            let specs = storm_specs(seed);
            Prepared::Storm {
                work: specs
                    .iter()
                    .map(|s| {
                        let p = s.params();
                        server_ticks(p.base.servers, p.base.duration_ticks)
                    })
                    .sum(),
                specs,
                exec: Exec::sequential(),
            }
        }
    }
}

impl Prepared {
    /// Drops the workload without running it, with its scratch files.
    pub fn discard(self) {
        if let Prepared::SweepCold { dir, .. } = self {
            remove_scratch(&dir);
        }
    }

    /// Runs the measured phase and checks its output.
    pub fn run(self) -> Outcome {
        let started = Instant::now();
        match self {
            Prepared::SweepCold { dir, exec, points } => {
                let mut spans = SpanLog::new();
                let data = spans.time("all", |_| {
                    run_campaign("all", true, &exec).expect("`all` is a campaign")
                });
                let goldens = golden_checks();
                let doc = sweep_report(data, &spans, &exec, &goldens);
                write_report(&dir, &doc);
                let timed_s = started.elapsed().as_secs_f64();
                let m = exec.metrics_snapshot();
                let computed = m.counter("exec.jobs.computed");
                let goldens_ok = goldens.iter().filter(|g| g.ok()).count() as u64;
                let mut problems = failure_problems(&exec);
                problems.extend(golden_problems(&goldens));
                if computed != points.len() as u64 {
                    problems.push(format!(
                        "{computed} jobs computed, but the campaign has {} distinct points",
                        points.len()
                    ));
                }
                remove_scratch(&dir);
                Outcome {
                    work: points.iter().map(|s| timed_cycles(s) as f64).sum(),
                    timed_s,
                    digest: digest(&stabilized(&doc)),
                    attempted: m.counter("exec.jobs.completed") + goldens.len() as u64,
                    failed: m.counter("exec.jobs.failed") + goldens.len() as u64 - goldens_ok,
                    problems,
                    extra: vec![
                        ("jobs_computed", computed as f64),
                        ("jobs_deduped", m.counter("exec.jobs.cached") as f64),
                        ("goldens_ok", goldens_ok as f64),
                        ("goldens_total", goldens.len() as f64),
                    ],
                }
            }
            Prepared::PodLong { mut machines } => {
                let results: Vec<SimResult> = machines
                    .iter_mut()
                    .map(|m| m.run_window(POD_WARM, POD_MEASURE))
                    .collect();
                pod_outcome(&machines, &results, started.elapsed().as_secs_f64())
            }
            Prepared::FleetDay { specs, work, exec } => {
                let rows = sop_fleet::fleet_points(&exec, "fleet-day", &specs);
                let timed_s = started.elapsed().as_secs_f64();
                fleet_outcome(
                    work,
                    timed_s,
                    rows,
                    failure_problems(&exec),
                    fleet_row_problems,
                )
            }
            Prepared::Storm { specs, work, exec } => {
                let rows = sop_fleet::resilience_points(&exec, "storm", &specs);
                let timed_s = started.elapsed().as_secs_f64();
                fleet_outcome(
                    work,
                    timed_s,
                    rows,
                    failure_problems(&exec),
                    storm_row_problems,
                )
            }
        }
    }
}

/// The traced run's result: the outcome plus the per-layer metrics the
/// workload exercises (every other per-layer metric reads 0).
pub struct Traced {
    /// Same digest as the untraced run when the traced calls compute the
    /// same thing.
    pub outcome: Outcome,
    /// Per-layer metric values by name.
    pub layers: Vec<(&'static str, f64)>,
}

/// Runs a workload with every layer call inside a span of `tr`.
pub fn traced(w: Workload, seed: u64, tr: &Arc<Tracer>) -> Traced {
    match w {
        Workload::SweepCold => sweep_traced(tr),
        Workload::PodLong => pod_traced(tr, seed),
        Workload::FleetDay => fleet_traced(tr, seed),
        Workload::Storm => storm_traced(tr, seed),
    }
}

// ---------------------------------------------------------------------
// sweep-cold

/// Every simulation point `run_campaign("all", quick)` submits, in
/// submission order and with its duplicates: the fig3.3 validation
/// machines, the fig4.3 and fig4.6 pods, and the fig4.9 power pods.
fn sweep_specs() -> Vec<SimPointSpec> {
    let mut specs = Vec::new();
    for topology in [
        TopologyKind::Ideal,
        TopologyKind::Crossbar,
        TopologyKind::Mesh,
    ] {
        for app in App::ALL {
            specs.extend(ch3::fig3_3_specs(app, topology, true));
        }
    }
    for app in App::ALL {
        specs.push(ch4::pod_spec(app, TopologyKind::Mesh, 128, true));
    }
    for app in App::ALL {
        for fabric in ch4::FABRICS {
            specs.push(ch4::pod_spec(app, fabric, 128, true));
        }
    }
    // `ch4::fig4_9_power_on` builds these inline with its quick window.
    for fabric in ch4::FABRICS {
        for app in App::ALL {
            specs.push(SimPointSpec::Pod64 {
                workload: app,
                topology: fabric,
                link_bits: 128,
                llc_tiles: None,
                warm: 1_000,
                measure: 3_000,
                faults: None,
            });
        }
    }
    specs
}

/// `specs` without repeated cache identities, first occurrence kept.
fn distinct(specs: &[SimPointSpec]) -> Vec<SimPointSpec> {
    let mut seen = std::collections::HashSet::new();
    specs
        .iter()
        .copied()
        .filter(|s| seen.insert(spec_hash(&s.to_json())))
        .collect()
}

fn timed_cycles(spec: &SimPointSpec) -> u64 {
    match *spec {
        SimPointSpec::Validation { warm, measure, .. }
        | SimPointSpec::Pod64 { warm, measure, .. } => warm + measure,
    }
}

/// The machine a spec simulates and its window, as
/// `SimPointSpec::evaluate` builds them.
fn point_config(spec: &SimPointSpec) -> (SimConfig, u64, u64) {
    assert!(spec.faults().is_none(), "the sweep's points are fault-free");
    match *spec {
        SimPointSpec::Validation {
            workload,
            cores,
            topology,
            warm,
            measure,
            ..
        } => (
            SimConfig::validation(workload, cores, topology),
            warm,
            measure,
        ),
        SimPointSpec::Pod64 {
            workload,
            topology,
            link_bits,
            llc_tiles,
            warm,
            measure,
            ..
        } => {
            let mut cfg = SimConfig::pod_64(workload, topology);
            cfg.noc = cfg.noc.with_link_bits(link_bits);
            if let Some(tiles) = llc_tiles {
                cfg.noc.llc_tiles = tiles;
            }
            (cfg, warm, measure)
        }
    }
}

fn sweep_exec(dir: &Path) -> Exec {
    Exec::new(ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.join("cache")),
        ..ExecConfig::default()
    })
}

/// The `sop-report/v1` document `sop sweep all --quick` writes, plus the
/// golden checks `repro` records.
fn sweep_report(data: Json, spans: &SpanLog, exec: &Exec, goldens: &[GoldenCheck]) -> Json {
    let mut report = Report::new("sweep", "Scale-Out Processors: experiment campaign");
    report.set("campaign", Json::from("all"));
    report.set("quick", Json::from(true));
    report.set("data", data);
    report.set("golden_checks", checks_json(goldens));
    report.to_json(spans, &exec.metrics_snapshot())
}

/// Writes the report as `sop sweep` does; returns the bytes written.
fn write_report(dir: &Path, doc: &Json) -> usize {
    let text = doc.to_pretty_string() + "\n";
    write_atomic(dir.join("sweep-all.json"), &text).expect("the scratch directory is writable");
    text.len()
}

fn golden_problems(goldens: &[GoldenCheck]) -> Vec<String> {
    goldens
        .iter()
        .filter(|g| !g.ok())
        .map(|g| {
            format!(
                "golden {} = {} (want {} ± {})",
                g.name, g.value, g.golden, g.tol
            )
        })
        .collect()
}

fn failure_problems(exec: &Exec) -> Vec<String> {
    exec.failures()
        .iter()
        .map(|f| format!("job {} failed: {}", f.name, f.error))
        .collect()
}

/// The traced sweep: the campaign's distinct points resubmitted as jobs
/// with the same identities through a real engine with a fresh disk
/// cache, each job split into build, warm-up and a profiled window; then
/// the analytic chapters, a warm rerun of the campaign against the
/// filled cache, the golden checks and the report write.
fn sweep_traced(tr: &Arc<Tracer>) -> Traced {
    const REQ: &str = "sweep-cold";
    let (dir, exec, submitted, specs) = tr.span("setup", "bench", REQ, None, |_| {
        let dir = scratch_dir(Workload::SweepCold);
        let submitted = sweep_specs();
        let specs = distinct(&submitted);
        (dir.clone(), sweep_exec(&dir), submitted.len(), specs)
    });
    let engine = Arc::new(Mutex::new(EngineStats::default()));
    let (run, replay_id) = tr.span("replay", "sop-exec", REQ, None, |replay| {
        let jobs = specs
            .iter()
            .map(|&spec| {
                let tr = Arc::clone(tr);
                let engine = Arc::clone(&engine);
                let name = spec.name();
                Job::new(name.clone(), spec.to_json(), move |_| {
                    tr.span("job", "sop-bench", &name, Some(replay), |job| {
                        traced_point(&tr, job, &name, &spec, &engine).to_json()
                    })
                })
            })
            .collect();
        (exec.run_campaign("replay", jobs), replay)
    });
    let mut problems: Vec<String> = run
        .failures
        .iter()
        .map(|f| format!("replayed job {} failed: {}", f.name, f.error))
        .collect();

    // The cost of the cache's disk writes, measured by putting the same
    // entries into a second fresh cache.
    let entries: Vec<(u64, Json, &Json)> = specs
        .iter()
        .zip(&run.results)
        .map(|(s, r)| {
            let spec = s.to_json();
            (spec_hash(&spec), spec, r)
        })
        .collect();
    let (put_s, _) = timed(tr, "cache.put", "sop-exec.cache", REQ, |_| {
        let probe = ResultCache::on_disk(dir.join("put-probe"));
        for (hash, spec, result) in &entries {
            probe.put(*hash, spec, result);
        }
    });
    let bytes_written = entry_bytes(&dir.join("cache"));

    let (analytic_s, _) = timed(tr, "analytic", "sop-model", REQ, |_| {
        for chapter in ["ch2", "ch5", "ch6"] {
            run_campaign(chapter, true, &exec).expect("analytic chapters are campaigns");
        }
    });
    let (warm_s, (warm_exec, data, spans)) = timed(tr, "warm-rerun", "sop-exec.cache", REQ, |_| {
        let warm_exec = sweep_exec(&dir);
        let mut spans = SpanLog::new();
        let data = spans.time("all", |_| {
            run_campaign("all", true, &warm_exec).expect("`all` is a campaign")
        });
        (warm_exec, data, spans)
    });
    let wm = warm_exec.metrics_snapshot();
    let lookups = wm.counter("exec.cache.hits") + wm.counter("exec.cache.misses");
    let warm_hit_frac = wm.counter("exec.cache.hits") as f64 / lookups.max(1) as f64;
    problems.extend(failure_problems(&warm_exec));
    let (_, goldens) = timed(tr, "goldens", "sop-model", REQ, |_| golden_checks());
    problems.extend(golden_problems(&goldens));
    let (report_s, (doc, report_bytes)) = timed(tr, "report", "sop-obs", REQ, |_| {
        let doc = sweep_report(data, &spans, &warm_exec, &goldens);
        let bytes = write_report(&dir, &doc);
        (doc, bytes)
    });
    tr.span("cleanup", "bench", REQ, None, |_| remove_scratch(&dir));

    let job_s: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "job")
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect();
    let replay_s = tr.spans()[replay_id].duration_ns() as f64 * 1e-9;
    let goldens_ok = goldens.iter().filter(|g| g.ok()).count();
    let computed = run.count(JobSource::Computed);
    let mut layers = engine.lock().expect("engine stats lock").layers(tr);
    layers.extend([
        ("exec.jobs_computed", computed as f64),
        ("exec.jobs_deduped", (submitted - specs.len()) as f64),
        ("exec.job_p50_s", nearest_rank(&job_s, 0.5)),
        ("exec.job_p90_s", nearest_rank(&job_s, 0.9)),
        ("exec.job_max_s", nearest_rank(&job_s, 1.0)),
        ("exec.self_s", replay_s - job_s.iter().sum::<f64>()),
        ("exec.cache.put_s", put_s),
        ("exec.cache.bytes_written", bytes_written as f64),
        ("exec.cache.warm_rerun_s", warm_s),
        ("exec.cache.warm_hit_frac", warm_hit_frac),
        ("model.analytic_s", analytic_s),
        ("model.golden_pass", goldens_ok as f64),
        ("obs.report_s", report_s),
        ("obs.report_bytes", report_bytes as f64),
    ]);
    Traced {
        outcome: Outcome {
            work: specs.iter().map(|s| timed_cycles(s) as f64).sum(),
            timed_s: replay_s,
            digest: digest(&stabilized(&doc)),
            attempted: (specs.len() + goldens.len()) as u64,
            failed: (run.failures.len() + goldens.len() - goldens_ok) as u64,
            problems,
            extra: vec![("jobs_computed", computed as f64)],
        },
        layers,
    }
}

/// One replayed point: build, functional warm-up, then a profiled
/// timed window. Profiling reads host clocks only, so the point is
/// bit-identical to `SimPointSpec::evaluate`'s.
fn traced_point(
    tr: &Tracer,
    job: usize,
    req: &str,
    spec: &SimPointSpec,
    engine: &Mutex<EngineStats>,
) -> SimPoint {
    let (cfg, warm, measure) = point_config(spec);
    let mut m = tr.span("build", "sop-sim.build", req, Some(job), |_| {
        Machine::new(cfg)
    });
    tr.span("warmup", "sop-sim.warmup", req, Some(job), |_| {
        m.run_window(0, 0)
    });
    m.enable_profiling();
    let r = profiled_window(tr, job, req, &mut m, warm, measure, engine);
    SimPoint {
        aggregate_ipc: r.aggregate_ipc(),
        per_core_ipc: r.per_core_ipc(),
        snoop_fraction: r.snoop_fraction(),
        mean_packet_latency: r.mean_packet_latency,
        noc_flit_hops: r.noc_flit_hops,
        noc_flit_mm: r.noc_flit_mm,
        halted: r.halted,
    }
}

/// A timed window of a profiled machine inside a `window` span whose
/// NOC route/eject time is handed to the `sop-noc` layer.
fn profiled_window(
    tr: &Tracer,
    parent: usize,
    req: &str,
    m: &mut Machine,
    warm: u64,
    measure: u64,
    engine: &Mutex<EngineStats>,
) -> SimResult {
    tr.span("window", "sop-sim", req, Some(parent), |id| {
        let r = m.run_window(warm, measure);
        let noc_ns = engine.lock().expect("engine stats lock").add(&r);
        tr.attribute(id, "sop-noc", noc_ns);
        r
    })
}

/// The simulator's own `prof.*` attribution, summed over every profiled
/// window, plus the work counts those windows report.
#[derive(Debug, Default)]
struct EngineStats {
    advance_ns: u64,
    noc_ns: u64,
    core_ns: u64,
    llc_bank_ns: u64,
    directory_ns: u64,
    mem_ns: u64,
    next_event_ns: u64,
    cycles: u64,
    ticks: u64,
    flit_hops: u64,
    llc_accesses: u64,
    mem_lines: u64,
}

impl EngineStats {
    /// Adds a profiled window; returns its NOC route/eject nanoseconds.
    fn add(&mut self, r: &SimResult) -> u64 {
        let prof = ProfBreakdown::from_registry(&r.metrics).expect("the window was profiled");
        let ns = |key: &str| {
            prof.rows
                .iter()
                .find(|row| row.key == key)
                .map_or(0, |row| row.ns)
        };
        let noc = ns("prof.noc");
        self.advance_ns += prof.advance_ns;
        self.noc_ns += noc;
        self.core_ns += ns("prof.core");
        self.llc_bank_ns += ns("prof.llc.bank");
        self.directory_ns += ns("prof.directory");
        self.mem_ns += ns("prof.mem.chan");
        self.next_event_ns += ns("prof.next_event");
        self.cycles += prof.cycles;
        self.ticks += prof.ticks;
        self.flit_hops += r.noc_flit_hops;
        self.llc_accesses += r.llc_accesses;
        self.mem_lines += r.memory_lines;
        noc
    }

    /// The `noc.*` and `sim.*` per-layer metrics. Route/eject time
    /// covers the timed warm-up and measured cycles of each window;
    /// flit-hops, LLC accesses and memory lines cover the measured
    /// cycles only, as `SimResult` reports them.
    fn layers(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let s = |ns: u64| ns as f64 * 1e-9;
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let components = self.noc_ns
            + self.core_ns
            + self.llc_bank_ns
            + self.directory_ns
            + self.mem_ns
            + self.next_event_ns;
        let (window_s, _) = tr.total("window");
        let (build_s, _) = tr.total("build");
        let (warmup_s, warmups) = tr.total("warmup");
        vec![
            ("noc.route_eject_s", s(self.noc_ns)),
            (
                "noc.ns_per_flit_hop",
                per(self.noc_ns as f64, self.flit_hops),
            ),
            ("noc.flit_hops", self.flit_hops as f64),
            ("sim.window_s", window_s),
            ("sim.ns_per_cycle", per(self.advance_ns as f64, self.cycles)),
            ("sim.ticks_per_cycle", per(self.ticks as f64, self.cycles)),
            ("sim.core_s", s(self.core_ns)),
            ("sim.llc_bank_s", s(self.llc_bank_ns)),
            ("sim.directory_s", s(self.directory_ns)),
            ("sim.mem_s", s(self.mem_ns)),
            ("sim.next_event_s", s(self.next_event_ns)),
            ("sim.prof_coverage", per(components as f64, self.advance_ns)),
            ("sim.cycles", self.cycles as f64),
            ("sim.llc_accesses", self.llc_accesses as f64),
            ("sim.mem_lines", self.mem_lines as f64),
            ("sim.build_s", build_s),
            ("sim.warmup_s", warmup_s),
            ("sim.warmups", warmups as f64),
        ]
    }
}

// ---------------------------------------------------------------------
// pod-long

/// The timed warm-up and measured window of every pod-long machine.
const POD_WARM: u64 = 2_000;
const POD_MEASURE: u64 = 100_000;

/// Three workloads with different NOC pressure on each chapter-4
/// fabric, seeded from the benchmark seed.
fn pod_configs(seed: u64) -> Vec<(String, SimConfig)> {
    [App::DataServing, App::WebSearch, App::MapReduceC]
        .into_iter()
        .flat_map(|app| {
            ch4::FABRICS.into_iter().map(move |fabric| {
                let mut cfg = SimConfig::pod_64(app, fabric);
                cfg.seed = seed;
                (format!("pod/{}/{fabric:?}", app.label()), cfg)
            })
        })
        .collect()
}

/// Digest of the machines' simulated metrics (host-time `prof.*` keys
/// excluded, so profiled and unprofiled runs compare).
fn pod_digest(machines: &[Machine]) -> String {
    let registries = machines
        .iter()
        .map(|m| match m.metrics().to_json() {
            Json::Obj(members) => Json::Obj(
                members
                    .into_iter()
                    .filter(|(k, _)| ["sim.", "noc.", "mem."].iter().any(|p| k.starts_with(p)))
                    .collect(),
            ),
            other => other,
        })
        .collect();
    digest(&Json::Arr(registries))
}

fn pod_traced(tr: &Arc<Tracer>, seed: u64) -> Traced {
    const REQ: &str = "pod-long";
    let mut machines: Vec<(String, Machine)> = tr.span("setup", "bench", REQ, None, |setup| {
        pod_configs(seed)
            .into_iter()
            .map(|(name, cfg)| {
                let mut m = tr.span("build", "sop-sim.build", &name, Some(setup), |_| {
                    Machine::new(cfg)
                });
                tr.span("warmup", "sop-sim.warmup", &name, Some(setup), |_| {
                    m.run_window(0, 0)
                });
                (name, m)
            })
            .collect()
    });
    let engine = Mutex::new(EngineStats::default());
    let started = Instant::now();
    let results: Vec<SimResult> = tr.span("measure", "bench", REQ, None, |measure| {
        machines
            .iter_mut()
            .map(|(name, m)| {
                m.enable_profiling();
                profiled_window(tr, measure, name, m, POD_WARM, POD_MEASURE, &engine)
            })
            .collect()
    });
    let timed_s = started.elapsed().as_secs_f64();
    let machines: Vec<Machine> = machines.into_iter().map(|(_, m)| m).collect();
    Traced {
        outcome: pod_outcome(&machines, &results, timed_s),
        layers: engine.into_inner().expect("engine stats lock").layers(tr),
    }
}

/// Every window must measure its full length without halting.
fn pod_outcome(machines: &[Machine], results: &[SimResult], timed_s: f64) -> Outcome {
    let halted = results.iter().filter(|r| r.halted.is_some()).count() as u64;
    Outcome {
        work: (machines.len() as u64 * (POD_WARM + POD_MEASURE)) as f64,
        timed_s,
        digest: pod_digest(machines),
        attempted: machines.len() as u64,
        failed: halted,
        problems: results
            .iter()
            .filter(|r| r.cycles != POD_MEASURE || r.halted.is_some())
            .map(|r| format!("window measured {} cycles, halted {:?}", r.cycles, r.halted))
            .collect(),
        extra: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// fleet-day and storm

const FLEET_SERVERS: u32 = 128;
const STORM_SERVERS: u32 = 512;
const STORM_ORG: &str = "scaleout-ooo";

fn fleet_specs(seed: u64) -> Vec<FleetPointSpec> {
    sop_fleet::grid(FLEET_SERVERS, seed, false, None, None)
}

fn storm_specs(seed: u64) -> Vec<ResiliencePointSpec> {
    sop_fleet::storm_pair(STORM_ORG, STORM_SERVERS, seed, false)
}

fn server_ticks(servers: u32, ticks: u64) -> f64 {
    (u64::from(servers) * ticks) as f64
}

fn total(row: &Json, key: &str) -> u64 {
    row.get("totals")
        .and_then(|t| t.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN) as u64
}

/// Plain fleet rows must account for every offered request.
fn fleet_row_problems(row: &Json) -> Option<String> {
    let (offered, served, dropped, inflight) = (
        total(row, "offered"),
        total(row, "served"),
        total(row, "dropped"),
        total(row, "inflight_end"),
    );
    (offered == 0 || offered != served + dropped + inflight).then(|| {
        format!("fleet row: offered {offered} != served {served} + dropped {dropped} + inflight {inflight}")
    })
}

/// Every request a storm row issued is an offered one, a retry or a
/// hedge copy.
fn storm_row_problems(row: &Json) -> Option<String> {
    let (issued, offered, retries, hedges) = (
        total(row, "issued"),
        total(row, "offered"),
        total(row, "retries"),
        total(row, "hedges"),
    );
    (offered == 0 || issued != offered + retries + hedges).then(|| {
        format!(
            "storm row: issued {issued} != offered {offered} + retries {retries} + hedges {hedges}"
        )
    })
}

/// A fleet workload's outcome; `failures` are the engine's failed jobs.
fn fleet_outcome(
    work: f64,
    timed_s: f64,
    rows: Vec<Json>,
    failures: Vec<String>,
    row_problems: fn(&Json) -> Option<String>,
) -> Outcome {
    let failed = failures.len() as u64;
    let mut problems = failures;
    problems.extend(rows.iter().filter_map(row_problems));
    Outcome {
        work,
        timed_s,
        attempted: rows.len() as u64,
        digest: digest(&Json::Arr(rows)),
        failed,
        problems,
        extra: Vec::new(),
    }
}

/// The traced fleet grid: each spec's parameters in set-up, then per
/// spec `simulate` on its own and `evaluate` (which simulates again and
/// reduces the outcome to the report row), so `fleet.post_s` is the
/// row-building time.
fn fleet_traced(tr: &Arc<Tracer>, seed: u64) -> Traced {
    const REQ: &str = "fleet-day";
    let specs = fleet_specs(seed);
    let params: Vec<sop_fleet::SimParams> = tr.span("setup", "bench", REQ, None, |setup| {
        specs
            .iter()
            .map(|s| {
                tr.span("params", "sop-fleet.params", &s.name(), Some(setup), |_| {
                    s.params()
                })
            })
            .collect()
    });
    let work = params
        .iter()
        .map(|p| server_ticks(p.servers, p.duration_ticks))
        .sum();
    let mut issued = 0u64;
    let started = Instant::now();
    let rows: Vec<Json> = tr.span("points", "bench", REQ, None, |points| {
        specs
            .iter()
            .zip(&params)
            .map(|(spec, p)| {
                let name = spec.name();
                let outcome = tr.span("simulate", "sop-fleet", &name, Some(points), |_| {
                    sop_fleet::simulate(p)
                });
                issued += outcome.offered();
                tr.span(
                    "evaluate",
                    "sop-fleet.evaluate",
                    &name,
                    Some(points),
                    |_| spec.evaluate(),
                )
            })
            .collect()
    });
    let timed_s = started.elapsed().as_secs_f64();
    Traced {
        outcome: fleet_outcome(work, timed_s, rows, Vec::new(), fleet_row_problems),
        layers: fleet_layers(tr, work, issued),
    }
}

/// The traced storm pair: as [`fleet_traced`], plus the series build and
/// the burn-rate evaluation the armed rows carry.
fn storm_traced(tr: &Arc<Tracer>, seed: u64) -> Traced {
    const REQ: &str = "storm";
    let specs = storm_specs(seed);
    let params: Vec<sop_fleet::ResilienceParams> = tr.span("setup", "bench", REQ, None, |setup| {
        specs
            .iter()
            .map(|s| {
                tr.span("params", "sop-fleet.params", &s.name(), Some(setup), |_| {
                    s.params()
                })
            })
            .collect()
    });
    let work = params
        .iter()
        .map(|p| server_ticks(p.base.servers, p.base.duration_ticks))
        .sum();
    let (mut offered, mut issued, mut goodput) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    let rows: Vec<Json> = tr.span("points", "bench", REQ, None, |points| {
        specs
            .iter()
            .zip(&params)
            .map(|(spec, p)| {
                assert!(spec.slo, "the storm pair arms the SLO plane");
                let name = spec.name();
                let outcome = tr.span("simulate", "sop-fleet", &name, Some(points), |_| {
                    sop_fleet::simulate_resilience(p)
                });
                offered += outcome.totals.offered;
                issued += outcome.totals.issued;
                goodput += outcome.totals.goodput;
                let series = tr.span("series", "sop-obs.slo", &name, Some(points), |_| {
                    outcome.series()
                });
                tr.span("slo", "sop-obs.slo", &name, Some(points), |_| {
                    sop_obs::slo::evaluate(
                        &series,
                        &sop_obs::SloSpec::availability(sop_fleet::SLO_AVAILABILITY_TARGET),
                        &sop_obs::BurnRule::standard(),
                        outcome.scripted_cause().as_ref(),
                    )
                });
                tr.span(
                    "evaluate",
                    "sop-fleet.evaluate",
                    &name,
                    Some(points),
                    |_| spec.evaluate(),
                )
            })
            .collect()
    });
    let timed_s = started.elapsed().as_secs_f64();
    let mut layers = fleet_layers(tr, work, issued);
    layers.extend([
        (
            "resilience.useful_frac",
            goodput as f64 / issued.max(1) as f64,
        ),
        (
            "resilience.retry_amp",
            issued as f64 / offered.max(1) as f64,
        ),
        ("slo.series_s", tr.total("series").0),
        ("slo.evaluate_s", tr.total("slo").0),
    ]);
    Traced {
        outcome: fleet_outcome(work, timed_s, rows, Vec::new(), storm_row_problems),
        layers,
    }
}

fn fleet_layers(tr: &Tracer, server_ticks: f64, issued: u64) -> Vec<(&'static str, f64)> {
    let (simulate_s, _) = tr.total("simulate");
    vec![
        ("fleet.params_s", tr.total("params").0),
        ("fleet.simulate_s", simulate_s),
        ("fleet.ns_per_server_tick", simulate_s * 1e9 / server_ticks),
        ("fleet.requests_issued", issued as f64),
        ("fleet.post_s", tr.total("evaluate").0 - simulate_s),
    ]
}

// ---------------------------------------------------------------------
// shared

/// `hash_hex` of the canonical form of `doc`.
pub fn digest(doc: &Json) -> String {
    hash_hex(spec_hash(doc))
}

/// A fresh scratch directory under `.bench_work/` in the working
/// directory, private to this process.
fn scratch_dir(w: Workload) -> PathBuf {
    let dir = Path::new(".bench_work").join(format!("{}-{}", w.name(), std::process::id()));
    remove_scratch(&dir);
    std::fs::create_dir_all(&dir).expect("the working directory is writable");
    dir
}

fn remove_scratch(dir: &Path) {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("cannot remove {}: {e}", dir.display()),
    }
}

/// Bytes held by the cache entries (`*.json` files) directly under `dir`.
fn entry_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs `f` in a top-level span and returns its seconds with its result.
fn timed<T>(
    tr: &Tracer,
    name: &str,
    layer: &str,
    req: &str,
    f: impl FnOnce(usize) -> T,
) -> (f64, T) {
    let started = Instant::now();
    let out = tr.span(name, layer, req, None, f);
    (started.elapsed().as_secs_f64(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("all"), None);
    }

    #[test]
    fn the_sweep_submits_178_points_of_which_171_are_distinct() {
        let specs = sweep_specs();
        assert_eq!(specs.len(), 178);
        assert_eq!(distinct(&specs).len(), 171);
    }

    #[test]
    fn pod_long_covers_three_workloads_on_each_fabric() {
        let configs = pod_configs(7);
        assert_eq!(configs.len(), 9);
        assert!(configs.iter().all(|(_, cfg)| cfg.seed == 7));
    }
}
