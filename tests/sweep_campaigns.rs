//! Each `sop sweep` is one engine campaign named after the sweep: it
//! collects every figure's simulation specs first and runs them
//! together, so the heartbeat stream announces the sweep's whole job
//! count once and `sop top` follows the sweep to completion. The
//! streams' `t_us` never decreases, whatever the two workers'
//! interleaving. A cold sweep looks each distinct spec up in the cache
//! once, however many of its jobs share it. `all` writes the groups of
//! `figures::ALL` and nothing else.

use std::path::{Path, PathBuf};
use std::process::Command;

use scale_out_processors::bench::figures::{self, FIGURES};
use scale_out_processors::exec::heartbeat::{read_events, PROGRESS_FILE};
use scale_out_processors::obs::Json;

/// A fresh scratch directory holding the sweep's cache and report.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sop-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `sop args` with its cache in `dir/cache`, returning stdout.
fn sop(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sop"))
        .args(args)
        .current_dir(dir)
        .env("SOP_CACHE_DIR", dir.join("cache"))
        .output()
        .expect("sop runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sop {args:?}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs `sop sweep <name> --quick --jobs 2` and returns the events it
/// appended to the progress stream in `dir`.
fn sweep(dir: &Path, name: &str) -> Vec<Json> {
    let before = read_events(&dir.join("cache").join(PROGRESS_FILE)).len();
    let stdout = sop(dir, &["sweep", name, "--quick", "--jobs", "2"]);
    assert!(
        stdout.contains(&format!("campaign {name}: ")),
        "{name}: {stdout}"
    );
    read_events(&dir.join("cache").join(PROGRESS_FILE)).split_off(before)
}

/// The report `sop sweep name` wrote in `dir`.
fn report(dir: &Path, name: &str) -> Json {
    let path = dir.join(format!("sweep-{name}.json"));
    let text = std::fs::read_to_string(&path).expect("sweep report");
    scale_out_processors::obs::json::parse(&text).expect("report is JSON")
}

/// Counter `key` of the report `sop sweep name` wrote in `dir`.
fn report_counter(dir: &Path, name: &str, key: &str) -> u64 {
    let doc = report(dir, name);
    let value = doc.get("metrics").and_then(|m| m.get(key));
    value
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{key} in the {name} report")) as u64
}

/// The member names of object `doc`.
fn members(doc: &Json) -> Vec<&str> {
    match doc {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {doc:?}"),
    }
}

/// The `(campaign, jobs)` of each `campaign_start` in `events`.
fn starts(events: &[Json]) -> Vec<(String, u64)> {
    events
        .iter()
        .filter(|e| e.get("ev").and_then(Json::as_str) == Some("campaign_start"))
        .map(|e| {
            let name = e.get("campaign").and_then(Json::as_str).expect("campaign");
            let jobs = e.get("jobs").and_then(Json::as_f64).expect("jobs");
            (name.to_owned(), jobs as u64)
        })
        .collect()
}

/// `t_us` never decreases along the stream.
fn assert_in_time_order(events: &[Json]) {
    let t: Vec<f64> = events
        .iter()
        .map(|e| e.get("t_us").and_then(Json::as_f64).expect("t_us"))
        .collect();
    let back = t.windows(2).position(|w| w[1] < w[0]);
    assert!(back.is_none(), "t_us decreases after event {back:?}");
}

#[test]
fn a_fresh_ch3_sweep_is_one_campaign_that_top_follows_to_the_end() {
    let dir = scratch("ch3");
    let events = sweep(&dir, "ch3");
    assert_eq!(starts(&events), [("ch3".to_owned(), 129)]);
    assert_in_time_order(&events);
    let stream = dir.join("cache").join(PROGRESS_FILE);
    let top = sop(
        &dir,
        &["top", "--once", "--file", stream.to_str().expect("utf-8")],
    );
    assert!(top.contains("campaign ch3"), "{top}");
    assert!(top.contains("129/129 jobs (100%)"), "{top}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn ch4_and_all_sweeps_are_one_campaign_each() {
    let dir = scratch("all");
    let all = sweep(&dir, "all");
    assert_eq!(starts(&all), [("all".to_owned(), 178)]);
    assert_in_time_order(&all);
    // Cold, every distinct spec is computed once and missed once: the
    // jobs sharing a spec are collapsed before the lookup.
    let computed = report_counter(&dir, "all", "exec.jobs.computed");
    assert!(computed < 178, "some of the sweep's jobs share a spec");
    assert_eq!(
        report_counter(&dir, "all", "exec.cache.misses"),
        computed,
        "one cache miss per distinct spec"
    );
    // A section per group of `figures::ALL`, each holding the member of
    // every entry of that group that carries data.
    let doc = report(&dir, "all");
    let data = doc
        .get("sections")
        .and_then(|s| s.get("data"))
        .expect("data");
    assert_eq!(members(data), figures::ALL);
    for group in figures::ALL {
        let expected: Vec<&str> = FIGURES
            .iter()
            .filter(|f| f.group == group)
            .filter_map(|f| f.data.map(|(member, _)| member))
            .collect();
        assert_eq!(members(data.get(group).expect("group")), expected);
    }
    // Warm from `all`'s cache, `ch4` still announces its 49 jobs once.
    let ch4 = sweep(&dir, "ch4");
    assert_eq!(starts(&ch4), [("ch4".to_owned(), 49)]);
    // The analytic chapters run no campaign at all.
    assert_eq!(starts(&sweep(&dir, "ch2")), []);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
