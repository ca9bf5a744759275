//! The simulator benchmark suite behind `sop bench` and `BENCH_sim.json`.
//!
//! Two tiers, both deterministic in *what* they run (only the clock
//! varies):
//!
//! * **micro** — single [`Machine::run_window`] calls over the chapter-3
//!   validation machines and the chapter-4 pod, reporting simulated
//!   cycles per second of wall time. These isolate the engine itself
//!   from the execution layer.
//! * **campaign** — the chapter campaigns run cold (in-memory
//!   memoization only, nothing served from disk), reporting wall time
//!   and cycles/sec per chapter. Chapters run in order inside one
//!   process, exactly like a cold `repro all --quick`, so the per-chapter
//!   walls line up with that command's spans.
//!
//! The suite exists to pin the event-driven engine's speedup in-repo:
//! `BENCH_sim.json` commits the numbers, and [`check_regression`] lets
//! CI fail a PR whose cold wall time regresses past a tolerance.

use crate::campaign::run_campaign;
use sop_exec::Exec;
use sop_noc::TopologyKind;
use sop_obs::{Json, Registry};
use sop_sim::{cycles_simulated, Machine, SimConfig};
use sop_workloads::Workload;
use std::time::Instant;

/// Campaigns the campaign tier times, in run order: the chapters, then
/// the quick fleet and resilience simulations (`fleet-quick` and
/// `resilience-quick` always run the quick configuration regardless of
/// the suite's `--quick` flag, so their history rows stay comparable
/// run to run).
pub const BENCH_CAMPAIGNS: [&str; 7] = [
    "ch2",
    "ch3",
    "ch4",
    "ch5",
    "ch6",
    "fleet-quick",
    "resilience-quick",
];

/// Bench history entries retained in `BENCH_sim.json` (about a year of
/// weekly runs); the oldest are dropped first.
pub const HISTORY_CAP: usize = 52;

/// Cold `repro all --quick` wall time of the per-cycle engine on the
/// 1-core reference container: median of three alternating runs at the
/// commit preceding the event-driven overhaul, re-measured under the
/// same conditions as the current numbers in `BENCH_sim.json`.
pub const BASELINE_ALL_QUICK_MS: u64 = 39_226;

/// The micro-bench roster: a label and the machine it times.
fn micro_specs() -> Vec<(&'static str, SimConfig)> {
    vec![
        (
            "val/websearch/mesh/16c",
            SimConfig::validation(Workload::WebSearch, 16, TopologyKind::Mesh),
        ),
        (
            "val/dataserving/crossbar/16c",
            SimConfig::validation(Workload::DataServing, 16, TopologyKind::Crossbar),
        ),
        (
            "pod/websearch/nocout",
            SimConfig::pod_64(Workload::WebSearch, TopologyKind::NocOut),
        ),
        (
            "pod/mapreducec/mesh",
            SimConfig::pod_64(Workload::MapReduceC, TopologyKind::Mesh),
        ),
        (
            "pod/mediastreaming/fbfly",
            SimConfig::pod_64(Workload::MediaStreaming, TopologyKind::FlattenedButterfly),
        ),
    ]
}

/// Times one `run_window` per roster entry and returns the `micro`
/// rows. Cycles/sec counts timed cycles only; the (memoized) functional
/// warm-up is inside the wall, as it is for any cold simulation.
pub fn micro_benches(quick: bool) -> Json {
    micro_benches_collect(quick, &mut Registry::new())
}

/// [`micro_benches`], additionally merging each timed machine's named
/// metrics (`sim.*`, `noc.*`, `mem.*`) into `metrics` so bench reports
/// are diffable with `sop diff`.
pub fn micro_benches_collect(quick: bool, metrics: &mut Registry) -> Json {
    let (warm, measure) = if quick {
        (1_000, 2_000)
    } else {
        (4_000, 8_000)
    };
    let rows = micro_specs()
        .into_iter()
        .map(|(name, cfg)| {
            let mut machine = Machine::new(cfg);
            let start = Instant::now();
            let result = machine.run_window(warm, measure);
            let wall_us = start.elapsed().as_micros() as u64;
            metrics.merge(&result.metrics);
            Json::object()
                .with("name", name)
                .with("cycles", warm + measure)
                .with("wall_us", wall_us)
                .with("mcycles_per_sec", mcycles_per_sec(warm + measure, wall_us))
                .with("aggregate_ipc", result.aggregate_ipc())
        })
        .collect();
    Json::Arr(rows)
}

/// Runs each named campaign cold on `jobs` workers (0 = one per core)
/// and returns the `campaigns` rows. Analytic chapters simulate no
/// cycles and report a null rate.
pub fn campaign_benches(names: &[&str], quick: bool, jobs: usize) -> Json {
    campaign_benches_on(&Exec::with_workers(jobs), names, quick)
}

/// [`campaign_benches`] on a caller-owned engine, so the caller can
/// harvest the engine's `exec.*` metrics afterwards.
pub fn campaign_benches_on(exec: &Exec, names: &[&str], quick: bool) -> Json {
    let rows = names
        .iter()
        .map(|name| {
            // `fleet-quick` and `resilience-quick` pin their campaigns
            // to the quick configuration; their throughput rows use
            // server-step events rather than simulated cycles.
            let (campaign, quick_run) = match *name {
                "fleet-quick" => ("fleet", true),
                "resilience-quick" => ("resilience", true),
                other => (other, quick),
            };
            let is_fleet = campaign == "fleet" || campaign == "resilience";
            let cycles_before = cycles_simulated();
            let events_before = sop_fleet::events_processed();
            let ticks_before = sop_fleet::ticks_simulated();
            let start = Instant::now();
            run_campaign(campaign, quick_run, exec).expect("bench campaign name");
            let wall_us = start.elapsed().as_micros() as u64;
            let cycles = cycles_simulated() - cycles_before;
            let mut row = Json::object()
                .with("campaign", *name)
                .with("wall_ms", wall_us / 1_000)
                .with("cycles", cycles)
                .with("mcycles_per_sec", mcycles_per_sec(cycles, wall_us));
            if is_fleet {
                let events = sop_fleet::events_processed() - events_before;
                let ticks = sop_fleet::ticks_simulated() - ticks_before;
                row.insert("events", Json::UInt(events));
                row.insert("sim_ticks", Json::UInt(ticks));
                row.insert(
                    "events_per_sec",
                    if events == 0 || wall_us == 0 {
                        Json::Null
                    } else {
                        Json::Num(events as f64 * 1e6 / wall_us as f64)
                    },
                );
            }
            row
        })
        .collect();
    Json::Arr(rows)
}

fn mcycles_per_sec(cycles: u64, wall_us: u64) -> Json {
    if cycles == 0 || wall_us == 0 {
        return Json::Null;
    }
    Json::Num(cycles as f64 / wall_us as f64)
}

/// Runs the full suite and assembles the `bench` report section: the
/// campaigns in `only` (or all of [`BENCH_CAMPAIGNS`]) first, while the
/// process is genuinely cold, then the micro and par-scaling tiers
/// (which benefit from the warm-up memoization the campaigns populated
/// — they measure engine throughput, not cold cost). In quick mode the
/// campaign total is comparable to the committed per-cycle baseline, so
/// the section also carries the speedup.
pub fn run_suite(quick: bool, jobs: usize, only: Option<&[&str]>) -> Json {
    run_suite_with_metrics(quick, jobs, only).0
}

/// [`run_suite`], also returning the engine registry the run populated
/// (`exec.*` from the campaign engine, `sim.*`/`noc.*`/`mem.*` from the
/// micro tier) for the report's top-level `metrics` object.
pub fn run_suite_with_metrics(quick: bool, jobs: usize, only: Option<&[&str]>) -> (Json, Registry) {
    let names = only.unwrap_or(&BENCH_CAMPAIGNS);
    let exec = Exec::with_workers(jobs);
    let mut metrics = Registry::new();
    let campaigns = campaign_benches_on(&exec, names, quick);
    let micro = micro_benches_collect(quick, &mut metrics);
    metrics.merge(&exec.metrics_snapshot());
    let wall_sum = |rows: &[Json], chapters_only: bool| -> u64 {
        rows.iter()
            .filter(|row| {
                !chapters_only
                    || row
                        .get("campaign")
                        .and_then(Json::as_str)
                        .is_some_and(|n| !n.starts_with("fleet"))
            })
            .filter_map(|row| row.get("wall_ms").and_then(Json::as_f64))
            .sum::<f64>() as u64
    };
    let rows = campaigns.as_arr().expect("campaign rows");
    let total_wall_ms = wall_sum(rows, false);
    // The committed baseline predates the fleet tier; the speedup claim
    // compares chapter campaigns only.
    let chapter_wall_ms = wall_sum(rows, true);
    let mut section = Json::object()
        .with("quick", quick)
        .with("micro", micro)
        .with("campaigns", campaigns)
        .with("total_wall_ms", total_wall_ms);
    let full_roster = names == BENCH_CAMPAIGNS;
    if quick && full_roster && chapter_wall_ms > 0 {
        section.insert("baseline_all_quick_ms", Json::UInt(BASELINE_ALL_QUICK_MS));
        section.insert(
            "speedup_vs_baseline",
            Json::Num(BASELINE_ALL_QUICK_MS as f64 / chapter_wall_ms as f64),
        );
    }
    (section, metrics)
}

/// Builds one bench-history entry from a freshly-run section: commit,
/// date, and the per-tier Mcycles/s + wall numbers the trajectory is
/// judged on.
pub fn history_entry(section: &Json, commit: &str, date: &str) -> Json {
    let tier = |rows: Option<&[Json]>, name_key: &str, keep: &[&str]| -> Json {
        Json::Arr(
            rows.unwrap_or_default()
                .iter()
                .map(|row| {
                    let mut out = Json::object();
                    if let Some(name) = row.get(name_key) {
                        out.insert(name_key, name.clone());
                    }
                    for &k in keep {
                        if let Some(v) = row.get(k) {
                            out.insert(k, v.clone());
                        }
                    }
                    out
                })
                .collect(),
        )
    };
    let mut entry = Json::object()
        .with("commit", commit)
        .with("date", date)
        .with("quick", section.get("quick").cloned().unwrap_or(Json::Null))
        .with(
            "micro",
            tier(
                section.get("micro").and_then(Json::as_arr),
                "name",
                &["mcycles_per_sec"],
            ),
        )
        .with(
            "campaigns",
            tier(
                section.get("campaigns").and_then(Json::as_arr),
                "campaign",
                &["wall_ms", "mcycles_per_sec", "events_per_sec"],
            ),
        );
    if let Some(total) = section.get("total_wall_ms") {
        entry.insert("total_wall_ms", total.clone());
    }
    entry
}

/// Appends `entry` to the history carried forward from the previously
/// committed document (if any), capped at [`HISTORY_CAP`] entries, and
/// stores the result in `section` — so `sop bench` grows a trajectory
/// instead of overwriting a single snapshot.
pub fn append_history(section: &mut Json, previous: Option<&Json>, entry: Json) {
    let mut history: Vec<Json> = previous
        .map(bench_section)
        .and_then(|s| s.get("history"))
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();
    history.push(entry);
    if history.len() > HISTORY_CAP {
        history.drain(..history.len() - HISTORY_CAP);
    }
    // `Json::insert` appends members; drop any stale `history` first so
    // the section never carries duplicate keys.
    if let Json::Obj(members) = section {
        members.retain(|(k, _)| k != "history");
    }
    section.insert("history", Json::Arr(history));
}

/// The current commit's short hash, or `"unknown"` outside a git
/// checkout.
pub fn commit_hash() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (no external
/// time crate; civil-from-days per Howard Hinnant's algorithm).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Extracts the `bench` section from either a bare section or a full
/// `sop-report/v1` document (as committed in `BENCH_sim.json`).
fn bench_section(doc: &Json) -> &Json {
    doc.get("sections")
        .and_then(|s| s.get("bench"))
        .unwrap_or(doc)
}

/// Compares per-campaign wall times against a baseline document: any
/// campaign present in both that is slower by more than `tol_pct`
/// percent is a regression. Returns the violations (empty = pass).
/// Campaigns missing from either side are ignored, so a smoke run over
/// one chapter can be judged against the full committed suite. A
/// baseline with a `history` array is judged by its **latest** entry;
/// documents from before history tracking fall back to the flat
/// `campaigns` rows.
pub fn check_regression(current: &Json, baseline: &Json, tol_pct: f64) -> Vec<String> {
    let walls = |doc: &Json| -> Vec<(String, f64)> {
        let section = bench_section(doc);
        let rows = section
            .get("history")
            .and_then(Json::as_arr)
            .and_then(<[Json]>::last)
            .and_then(|latest| latest.get("campaigns"))
            .and_then(Json::as_arr)
            .or_else(|| section.get("campaigns").and_then(Json::as_arr));
        rows.map(|rows| {
            rows.iter()
                .filter_map(|row| {
                    let name = row.get("campaign")?.as_str()?.to_owned();
                    let wall = row.get("wall_ms")?.as_f64()?;
                    Some((name, wall))
                })
                .collect()
        })
        .unwrap_or_default()
    };
    let base = walls(baseline);
    let mut violations = Vec::new();
    for (name, cur_ms) in walls(current) {
        let Some((_, base_ms)) = base.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let limit = base_ms * (1.0 + tol_pct / 100.0);
        if cur_ms > limit {
            violations.push(format!(
                "{name}: {cur_ms:.0}ms exceeds baseline {base_ms:.0}ms + {tol_pct:.0}% \
                 (limit {limit:.0}ms)"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(rows: &[(&str, u64)]) -> Json {
        let campaigns = rows
            .iter()
            .map(|(name, ms)| Json::object().with("campaign", *name).with("wall_ms", *ms))
            .collect();
        Json::object().with("campaigns", Json::Arr(campaigns))
    }

    #[test]
    fn regression_check_flags_only_slowdowns_past_tolerance() {
        let base = section(&[("ch3", 1_000), ("ch4", 2_000)]);
        let ok = section(&[("ch3", 1_200), ("ch4", 1_900)]);
        assert!(check_regression(&ok, &base, 25.0).is_empty());
        let slow = section(&[("ch3", 1_300)]);
        let v = check_regression(&slow, &base, 25.0);
        assert_eq!(v.len(), 1);
        assert!(v[0].starts_with("ch3:"), "{v:?}");
    }

    #[test]
    fn regression_check_reads_full_reports_and_skips_unknown_campaigns() {
        let base = Json::object().with(
            "sections",
            Json::object().with("bench", section(&[("ch3", 1_000)])),
        );
        let current = section(&[("ch3", 900), ("ch6", 99_999)]);
        assert!(check_regression(&current, &base, 25.0).is_empty());
    }

    #[test]
    fn micro_tier_reports_a_rate_for_every_roster_entry() {
        let rows = micro_benches(true);
        let rows = rows.as_arr().expect("micro rows");
        assert_eq!(rows.len(), micro_specs().len());
        for row in rows {
            assert!(row.get("name").and_then(Json::as_str).is_some());
            assert!(
                row.get("mcycles_per_sec")
                    .and_then(Json::as_f64)
                    .is_some_and(|r| r > 0.0),
                "{row:?}"
            );
        }
    }

    #[test]
    fn regression_check_prefers_the_latest_history_entry() {
        // Flat rows say 1000ms, but the history's latest entry says
        // 2000ms: a 1900ms current run passes only if the gate reads the
        // history entry.
        let mut base = section(&[("ch3", 1_000)]);
        let older = Json::object().with(
            "campaigns",
            section(&[("ch3", 500)])
                .get("campaigns")
                .cloned()
                .expect("rows"),
        );
        let latest = Json::object().with(
            "campaigns",
            section(&[("ch3", 2_000)])
                .get("campaigns")
                .cloned()
                .expect("rows"),
        );
        base.insert("history", Json::Arr(vec![older, latest]));
        let current = section(&[("ch3", 1_900)]);
        assert!(check_regression(&current, &base, 25.0).is_empty());
        let slow = section(&[("ch3", 2_600)]);
        assert_eq!(check_regression(&slow, &base, 25.0).len(), 1);
    }

    #[test]
    fn history_appends_carry_forward_and_cap() {
        let fresh = section(&[("ch3", 700)])
            .with("quick", true)
            .with("total_wall_ms", 700u64);
        let entry = history_entry(&fresh, "abc1234", "2026-08-09");
        assert_eq!(entry.get("commit").and_then(Json::as_str), Some("abc1234"));
        let campaigns = entry.get("campaigns").and_then(Json::as_arr).expect("rows");
        assert_eq!(
            campaigns[0].get("campaign").and_then(Json::as_str),
            Some("ch3")
        );
        assert_eq!(
            campaigns[0].get("wall_ms").and_then(Json::as_f64),
            Some(700.0)
        );

        // First run: no previous document, history holds one entry.
        let mut section1 = fresh.clone();
        append_history(&mut section1, None, entry.clone());
        let h1 = section1
            .get("history")
            .and_then(Json::as_arr)
            .expect("history");
        assert_eq!(h1.len(), 1);

        // Second run carries the first entry forward inside a full report.
        let previous =
            Json::object().with("sections", Json::object().with("bench", section1.clone()));
        let mut section2 = section(&[("ch3", 650)]);
        let entry2 = history_entry(&section2, "def5678", "2026-08-10");
        append_history(&mut section2, Some(&previous), entry2);
        let h2 = section2
            .get("history")
            .and_then(Json::as_arr)
            .expect("history");
        assert_eq!(h2.len(), 2);
        assert_eq!(h2[1].get("commit").and_then(Json::as_str), Some("def5678"));

        // The cap drops the oldest entries.
        let mut crowded = fresh.clone();
        let mut prev = None;
        for i in 0..(HISTORY_CAP + 10) {
            let doc = prev.take().unwrap_or_else(Json::object);
            let mut s = crowded.clone();
            append_history(
                &mut s,
                Some(&doc),
                history_entry(&fresh, &format!("c{i}"), "2026-01-01"),
            );
            prev = Some(Json::object().with("sections", Json::object().with("bench", s.clone())));
            crowded = s;
        }
        let h = crowded
            .get("history")
            .and_then(Json::as_arr)
            .expect("history");
        assert_eq!(h.len(), HISTORY_CAP);
        assert_eq!(
            h.last()
                .and_then(|e| e.get("commit"))
                .and_then(Json::as_str),
            Some(format!("c{}", HISTORY_CAP + 9).as_str())
        );
    }

    #[test]
    fn date_and_commit_helpers_are_wellformed() {
        let date = today_utc();
        assert_eq!(date.len(), 10, "{date}");
        assert!(date.chars().filter(|&c| c == '-').count() == 2, "{date}");
        assert!(!commit_hash().is_empty());
    }

    #[test]
    fn suite_metrics_cover_engine_and_simulator() {
        let (section, metrics) = run_suite_with_metrics(true, 1, Some(&["ch2"]));
        assert!(section.get("campaigns").is_some());
        assert!(metrics.counter("sim.cycles") > 0, "micro tier sim metrics");
        assert!(
            metrics.gauge("exec.workers").is_some(),
            "campaign engine exec metrics"
        );
    }

    #[test]
    fn fleet_quick_tier_reports_event_throughput() {
        let rows = campaign_benches(&["fleet-quick"], false, 1);
        let row = &rows.as_arr().expect("rows")[0];
        assert_eq!(
            row.get("campaign").and_then(Json::as_str),
            Some("fleet-quick")
        );
        assert!(
            row.get("events")
                .and_then(Json::as_f64)
                .is_some_and(|e| e > 0.0),
            "fleet runs must process server-step events: {row:?}"
        );
        assert!(
            row.get("events_per_sec")
                .and_then(Json::as_f64)
                .is_some_and(|r| r > 0.0),
            "{row:?}"
        );
        assert!(
            row.get("sim_ticks")
                .and_then(Json::as_f64)
                .is_some_and(|t| t > 0.0),
            "{row:?}"
        );
        // The history entry keeps the throughput number.
        let section = Json::object().with("campaigns", rows);
        let entry = history_entry(&section, "abc", "2026-08-09");
        let kept = entry.get("campaigns").and_then(Json::as_arr).expect("rows");
        assert!(kept[0].get("events_per_sec").is_some());
    }

    #[test]
    fn resilience_quick_tier_reports_event_throughput() {
        let rows = campaign_benches(&["resilience-quick"], false, 1);
        let row = &rows.as_arr().expect("rows")[0];
        assert_eq!(
            row.get("campaign").and_then(Json::as_str),
            Some("resilience-quick")
        );
        assert!(
            row.get("events")
                .and_then(Json::as_f64)
                .is_some_and(|e| e > 0.0),
            "resilience runs must process server-step events: {row:?}"
        );
        assert!(
            row.get("events_per_sec")
                .and_then(Json::as_f64)
                .is_some_and(|r| r > 0.0),
            "{row:?}"
        );
    }

    #[test]
    fn campaign_tier_counts_simulated_cycles_for_sim_backed_chapters() {
        let rows = campaign_benches(&["ch3"], true, 1);
        let row = &rows.as_arr().expect("rows")[0];
        assert_eq!(row.get("campaign").and_then(Json::as_str), Some("ch3"));
        assert!(
            row.get("cycles")
                .and_then(Json::as_f64)
                .is_some_and(|c| c > 0.0),
            "ch3 is simulation-backed; cycles must be counted: {row:?}"
        );
    }
}
