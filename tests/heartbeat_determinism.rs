//! The heartbeat's job-event set is worker-count invariant, and each
//! `job_finish` carries exactly the work its job did.
//!
//! Timing fields (`t_us`, `wall_us`, `worker`, `queue`, `eta_us`) vary
//! run to run, but the identity of what happened — which events fired
//! for which jobs from which source, with which work — must be the same
//! multiset whether a campaign ran on one worker or several. That is
//! what makes the progress stream trustworthy as a record and diffable
//! across runs.

use std::collections::BTreeMap;

use scale_out_processors::bench::points::{sim_points, SimPointSpec};
use scale_out_processors::exec::heartbeat::{read_events, PROGRESS_FILE};
use scale_out_processors::exec::{Exec, ExecConfig, Job};
use scale_out_processors::fleet::{
    fleet_points, resilience_points, storm_pair, FleetPointSpec, Policy,
};
use scale_out_processors::noc::TopologyKind;
use scale_out_processors::obs::{Json, Registry};
use scale_out_processors::workloads::Workload;

/// The fields the engine writes on heartbeat events; every other field
/// of a `job_finish` is the job's own work.
const ENGINE_FIELDS: [&str; 9] = [
    "ev", "t_us", "campaign", "job", "source", "worker", "wall_us", "queue", "eta_us",
];

/// A `job_finish` event's work fields, in key order (none for any
/// other event).
fn work_of(e: &Json) -> BTreeMap<String, u64> {
    let Json::Obj(members) = e else {
        return BTreeMap::new();
    };
    if str_field(e, "ev") != "job_finish" {
        return BTreeMap::new();
    }
    members
        .iter()
        .filter(|(k, _)| !ENGINE_FIELDS.contains(&k.as_str()))
        .map(|(k, v)| (k.clone(), v.as_f64().expect("numeric work") as u64))
        .collect()
}

fn str_field(e: &Json, k: &str) -> String {
    e.get(k)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_owned()
}

/// An engine on `workers` threads with its disk cache (and so its
/// heartbeat) in `dir`.
fn exec_in(dir: &std::path::Path, workers: usize) -> Exec {
    Exec::new(ExecConfig {
        jobs: workers,
        cache_dir: Some(dir.to_path_buf()),
        ..ExecConfig::default()
    })
}

/// Runs a small deterministic campaign on `workers` threads against a
/// cold cache in `dir` and returns the heartbeat stream's events.
fn toy_campaign(workers: usize, dir: &std::path::Path) -> Vec<Json> {
    let jobs: Vec<Job<'static>> = (0..6u64)
        .map(|i| {
            Job::with_work(
                format!("point/{i}"),
                Json::object().with("i", i).with("suite", "hb-determinism"),
                |spec| {
                    let i = spec.get("i").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    let mut work = Registry::new();
                    work.counter_add("cycles", 1_000 * i);
                    (Json::object().with("square", i * i), work)
                },
            )
        })
        .collect();
    let run = exec_in(dir, workers).run_campaign("hb-determinism", jobs);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    read_events(&dir.join(PROGRESS_FILE))
}

/// The sorted (ev, job, source, work) identities of a stream's events.
fn identities(events: &[Json]) -> Vec<(String, String, String, String)> {
    let mut ids: Vec<_> = events
        .iter()
        .map(|e| {
            (
                str_field(e, "ev"),
                str_field(e, "job"),
                str_field(e, "source"),
                format!("{:?}", work_of(e)),
            )
        })
        .collect();
    ids.sort();
    ids
}

/// The distinct worker ids a stream's events name.
fn workers_named(events: &[Json]) -> Vec<u64> {
    let mut ids: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("worker").and_then(Json::as_f64))
        .map(|w| w as u64)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// A scratch directory that cleans up after itself.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sop-hb-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The recorded fleet campaign stream (a real `sop fleet --quick
/// --servers 16 --seed 7 --jobs 2` run) snapshots into simulated-hours
/// per second: fleet jobs report their work in simulated seconds
/// (`ticks`), and `sop top` must render that as sim-hours/s, never
/// Mcycles/s.
#[test]
fn recorded_fleet_stream_reports_sim_hours_per_sec() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/progress_fleet.ndjson");
    let events = read_events(&fixture);
    assert!(
        !events.is_empty(),
        "fixture {} is readable",
        fixture.display()
    );
    let snap =
        scale_out_processors::exec::heartbeat::snapshot(&events).expect("fixture holds a campaign");
    assert_eq!(snap.campaign, "fleet");
    assert!(snap.done, "the recorded campaign ran to completion");
    assert_eq!((snap.total, snap.computed, snap.failed), (8, 8, 0));
    assert_eq!(
        snap.mcycles_per_sec, None,
        "fleet jobs report simulated seconds, not cycles"
    );
    let hours = snap.sim_hours_per_sec.expect("fleet rate is present");
    assert!(hours > 0.0, "{hours}");
    let panel = snap.render();
    assert!(panel.contains("sim-hours/s"), "{panel}");
    assert!(!panel.contains("Mcycles"), "{panel}");
}

#[test]
fn job_event_set_is_identical_across_worker_counts() {
    let one = Scratch::new("w1");
    let two = Scratch::new("w2");
    let serial_events = toy_campaign(1, &one.0);
    let parallel_events = toy_campaign(2, &two.0);
    let serial = identities(&serial_events);
    assert_eq!(
        serial,
        identities(&parallel_events),
        "heartbeat event identities and work must not depend on worker count"
    );
    // The stream carries exactly the expected shape: one start and one
    // end, and a start/finish pair per job, all computed on a cold cache.
    let count = |ev: &str| serial.iter().filter(|(e, ..)| e == ev).count();
    assert_eq!(count("campaign_start"), 1);
    assert_eq!(count("campaign_end"), 1);
    assert_eq!(count("job_start"), 6);
    assert_eq!(count("job_finish"), 6);
    assert!(
        serial
            .iter()
            .filter(|(e, ..)| e == "job_finish")
            .all(|(_, _, s, _)| s == "computed"),
        "cold-cache runs compute every job"
    );
    // Events name the worker thread that ran the job, not the job's
    // position in its wave.
    assert_eq!(workers_named(&serial_events), [0]);
    let parallel_workers = workers_named(&parallel_events);
    assert!(
        !parallel_workers.is_empty() && parallel_workers.iter().all(|&w| w < 2),
        "a 2-worker campaign named workers {parallel_workers:?}"
    );
}

/// Two workers emitting at once still write the stream in `t_us`
/// order: the clock is read under the stream's lock.
#[test]
fn two_worker_streams_never_go_back_in_time() {
    let dir = Scratch::new("order");
    let jobs: Vec<Job<'static>> = (0..128u64)
        .map(|i| {
            Job::new(
                format!("tick/{i}"),
                Json::object().with("i", i).with("suite", "hb-order"),
                Json::clone,
            )
        })
        .collect();
    let run = exec_in(&dir.0, 2).run_campaign("hb-order", jobs);
    assert!(run.is_fully_green(), "{:?}", run.failures);
    let events = read_events(&dir.0.join(PROGRESS_FILE));
    assert_eq!(
        events.len(),
        2 + 2 * 128,
        "start, end, start+finish per job"
    );
    let t: Vec<f64> = events
        .iter()
        .map(|e| e.get("t_us").and_then(Json::as_f64).expect("t_us"))
        .collect();
    let back = t.windows(2).position(|w| w[1] < w[0]);
    assert!(back.is_none(), "t_us decreases after event {back:?}");
}

/// Runs `campaign` cold and then warm in one cache directory on
/// `workers` threads. Checks that every cold `job_finish` carries
/// exactly the work `expected` names for its job (once per job, on a
/// worker that exists) and that the warm rerun emits only cache hits
/// without work fields.
fn check_job_work(
    tag: &str,
    workers: usize,
    campaign: impl Fn(&Exec),
    expected: &BTreeMap<String, BTreeMap<String, u64>>,
) {
    let dir = Scratch::new(&format!("{tag}-w{workers}"));
    campaign(&exec_in(&dir.0, workers));
    let cold = read_events(&dir.0.join(PROGRESS_FILE));
    let finished: BTreeMap<String, BTreeMap<String, u64>> = cold
        .iter()
        .filter(|e| str_field(e, "ev") == "job_finish")
        .map(|e| (str_field(e, "job"), work_of(e)))
        .collect();
    let finishes = cold
        .iter()
        .filter(|e| str_field(e, "ev") == "job_finish")
        .count();
    assert_eq!(finishes, expected.len(), "{tag}: one job_finish per job");
    assert_eq!(&finished, expected, "{tag} at {workers} workers");
    let named = workers_named(&cold);
    assert!(
        named.iter().all(|&w| (w as usize) < workers),
        "{tag}: {workers} workers, events name {named:?}"
    );

    campaign(&exec_in(&dir.0, workers));
    let warm = &read_events(&dir.0.join(PROGRESS_FILE))[cold.len()..];
    let kinds: Vec<String> = warm.iter().map(|e| str_field(e, "ev")).collect();
    let hits = kinds.iter().filter(|k| *k == "cache_hit").count();
    assert_eq!(hits, expected.len(), "{tag}: warm kinds {kinds:?}");
    assert_eq!(
        kinds.len(),
        expected.len() + 2,
        "{tag}: warm kinds {kinds:?}"
    );
    for e in warm {
        for key in ["cycles", "ticks", "slo_fired", "slo_active"] {
            assert!(
                e.get(key).is_none(),
                "{tag}: warm event carries {key}: {e:?}"
            );
        }
    }
}

fn work(fields: &[(&str, u64)]) -> BTreeMap<String, u64> {
    fields.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
}

#[test]
fn sim_point_jobs_report_their_timed_cycles() {
    let specs: Vec<SimPointSpec> = [1, 2]
        .map(|cores| SimPointSpec::Validation {
            workload: Workload::WebSearch,
            cores,
            topology: TopologyKind::Mesh,
            warm: 200,
            measure: 600,
            faults: None,
        })
        .to_vec();
    let expected = specs
        .iter()
        .map(|s| (s.name(), work(&[("cycles", 800)])))
        .collect();
    for workers in [1, 2] {
        check_job_work(
            "sim",
            workers,
            |exec| {
                sim_points(exec, "hb-sim", &specs);
            },
            &expected,
        );
    }
}

#[test]
fn fleet_jobs_report_their_simulated_ticks() {
    let specs: Vec<FleetPointSpec> = Policy::ALL
        .into_iter()
        .map(|p| FleetPointSpec::new("scaleout-ooo", p, 4, 7, true))
        .collect();
    let expected = specs
        .iter()
        .map(|s| (s.name(), work(&[("ticks", s.params().duration_ticks)])))
        .collect();
    for workers in [1, 2] {
        check_job_work(
            "fleet",
            workers,
            |exec| {
                fleet_points(exec, "fleet", &specs);
            },
            &expected,
        );
    }
}

/// Armed storm runs also report the SLO incidents their own analysis
/// found: fired in total, and still active at the end of the run.
#[test]
fn armed_resilience_jobs_report_their_slo_incidents() {
    let specs = storm_pair("scaleout-ooo", 16, 42, true);
    let rows = resilience_points(&Exec::sequential(), "storm", &specs);
    let expected: BTreeMap<String, BTreeMap<String, u64>> = specs
        .iter()
        .zip(&rows)
        .map(|(spec, row)| {
            let incidents: Vec<&Json> = row
                .get("slo")
                .and_then(Json::as_arr)
                .into_iter()
                .flatten()
                .filter_map(|a| a.get("rules").and_then(Json::as_arr))
                .flatten()
                .filter_map(|r| r.get("incidents").and_then(Json::as_arr))
                .flatten()
                .collect();
            let active = incidents
                .iter()
                .filter(|i| i.get("cleared_tick") == Some(&Json::Null))
                .count() as u64;
            let fields = [
                ("ticks", spec.params().base.duration_ticks),
                ("slo_fired", incidents.len() as u64),
                ("slo_active", active),
            ];
            (spec.name(), work(&fields))
        })
        .collect();
    let fired: u64 = expected.values().map(|w| w["slo_fired"]).sum();
    assert!(fired > 0, "the storm fires alerts: {expected:?}");
    for workers in [1, 2] {
        check_job_work(
            "storm",
            workers,
            |exec| {
                resilience_points(exec, "storm", &specs);
            },
            &expected,
        );
    }
}
