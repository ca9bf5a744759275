//! Live campaign heartbeat: an append-only NDJSON progress stream.
//!
//! While a campaign runs, the engine appends one JSON object per line
//! to `<cache-dir>/progress.ndjson` — job started / finished / cache-hit
//! / failed events carrying queue depth, per-job wall µs,
//! and an ETA extrapolated from completed-job statistics. Each line is
//! written with a single `O_APPEND` write, so concurrent workers never
//! interleave bytes and an external reader (`sop top`) can tail the
//! stream mid-run; a reader must still tolerate a torn final line.
//!
//! Event identity (`ev`, `job`, `source`) and each `job_finish`'s work
//! fields are deterministic for a given campaign regardless of worker
//! count; timing fields (`t_us`, `wall_us`, `worker`, `queue`,
//! `eta_us`) are not — the heartbeat determinism test compares the
//! deterministic subset only.
//!
//! A job reports its own work: the counters of the [`Registry`] its
//! closure returns (`cycles` for a simulation point, `ticks` for a
//! fleet run, `slo_fired`/`slo_active` for an armed one) become fields
//! of its `job_finish` event, and `sop top` sums them over the
//! campaign.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sop_obs::{Json, Metric, Registry};

/// File name of the progress stream inside the cache directory.
pub const PROGRESS_FILE: &str = "progress.ndjson";

/// Streams larger than this are truncated when the next heartbeat
/// opens, bounding unattended disk growth.
const ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// A handle to the progress stream plus the running statistics that
/// queue-depth and ETA fields are derived from. Shared across worker
/// threads via `Arc`; all counters are atomics and the file writes one
/// whole line at a time.
#[derive(Debug)]
pub struct Heartbeat {
    path: PathBuf,
    file: Mutex<File>,
    t0: Instant,
    total: AtomicU64,
    finished: AtomicU64,
    computed_n: AtomicU64,
    computed_us: AtomicU64,
    workers: AtomicU64,
}

impl Heartbeat {
    /// Opens (appending) the progress stream inside a cache directory,
    /// rotating it first when it has outgrown the size bound.
    pub fn open(dir: &Path) -> std::io::Result<Heartbeat> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(PROGRESS_FILE);
        let oversized = std::fs::metadata(&path).map(|m| m.len() > ROTATE_BYTES);
        if oversized.unwrap_or(false) {
            std::fs::remove_file(&path)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Heartbeat {
            path,
            file: Mutex::new(file),
            t0: Instant::now(),
            total: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            computed_n: AtomicU64::new(0),
            computed_us: AtomicU64::new(0),
            workers: AtomicU64::new(1),
        })
    }

    /// Where the stream lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn emit(&self, ev: &str, campaign: &str, fields: Json) {
        // The clock is read under the file lock, so the stream's `t_us`
        // never decreases whatever the workers' interleaving. A poisoned
        // lock drops the line — telemetry must never fail a campaign.
        let Ok(mut f) = self.file.lock() else { return };
        let mut line = Json::object()
            .with("ev", ev)
            .with("t_us", self.t0.elapsed().as_micros() as u64)
            .with("campaign", campaign);
        // The first occurrence of a key wins, so a job's work counters
        // never overwrite the fields the engine wrote before them.
        if let Json::Obj(members) = fields {
            for (k, v) in members {
                if line.get(&k).is_none() {
                    line.insert(&k, v);
                }
            }
        }
        let mut text = line.to_compact_string();
        text.push('\n');
        // One write per line: O_APPEND keeps concurrent appenders from
        // interleaving. A failed append is dropped.
        let _ = f.write_all(text.as_bytes());
    }

    /// Jobs not yet resolved in the current campaign.
    fn queue_depth(&self) -> u64 {
        self.total
            .load(Ordering::Relaxed)
            .saturating_sub(self.finished.load(Ordering::Relaxed))
    }

    /// Remaining wall µs extrapolated from mean computed-job wall time
    /// and the worker count; `None` until a computed job completes.
    fn eta_us(&self) -> Option<u64> {
        let n = self.computed_n.load(Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        let mean = self.computed_us.load(Ordering::Relaxed) / n;
        let workers = self.workers.load(Ordering::Relaxed).max(1);
        Some(self.queue_depth() * mean / workers)
    }

    /// A campaign is starting: resets the queue statistics.
    pub fn campaign_start(&self, campaign: &str, jobs: u64, workers: u64) {
        self.total.store(jobs, Ordering::Relaxed);
        self.finished.store(0, Ordering::Relaxed);
        self.computed_n.store(0, Ordering::Relaxed);
        self.computed_us.store(0, Ordering::Relaxed);
        self.workers.store(workers, Ordering::Relaxed);
        self.emit(
            "campaign_start",
            campaign,
            Json::object().with("jobs", jobs).with("workers", workers),
        );
    }

    /// A job was satisfied from the cache or by a same-spec job of its
    /// campaign. The event keeps its `"source":"cached"` field for readers
    /// of older streams.
    pub fn cache_hit(&self, campaign: &str, job: &str) {
        self.finished.fetch_add(1, Ordering::Relaxed);
        self.emit(
            "cache_hit",
            campaign,
            Json::object()
                .with("job", job)
                .with("source", "cached")
                .with("queue", self.queue_depth()),
        );
    }

    /// A worker picked up a job.
    pub fn job_start(&self, campaign: &str, job: &str, worker: u64) {
        self.emit(
            "job_start",
            campaign,
            Json::object().with("job", job).with("worker", worker),
        );
    }

    /// A worker finished computing a job that did `work`; its counters
    /// follow the engine's fields.
    pub fn job_finish(
        &self,
        campaign: &str,
        job: &str,
        worker: u64,
        wall_us: u64,
        work: &Registry,
    ) {
        self.finished.fetch_add(1, Ordering::Relaxed);
        self.computed_n.fetch_add(1, Ordering::Relaxed);
        self.computed_us.fetch_add(wall_us, Ordering::Relaxed);
        let mut fields = Json::object()
            .with("job", job)
            .with("source", "computed")
            .with("worker", worker)
            .with("wall_us", wall_us)
            .with("queue", self.queue_depth());
        if let Some(eta) = self.eta_us() {
            fields.insert("eta_us", Json::UInt(eta));
        }
        for (key, metric) in work.iter() {
            if let Metric::Counter(v) = metric {
                fields.insert(key, *v);
            }
        }
        self.emit("job_finish", campaign, fields);
    }

    /// A job failed: it panicked, the watchdog timed it out, or it shares
    /// its spec with a job that did.
    pub fn job_fail(&self, campaign: &str, job: &str, error: &str) {
        self.finished.fetch_add(1, Ordering::Relaxed);
        // Errors can quote arbitrary panic payloads; cap the field so a
        // pathological message cannot bloat the stream.
        let short: String = error.chars().take(200).collect();
        self.emit(
            "job_fail",
            campaign,
            Json::object()
                .with("job", job)
                .with("source", "failed")
                .with("error", short)
                .with("queue", self.queue_depth()),
        );
    }

    /// The campaign resolved every job.
    pub fn campaign_end(&self, campaign: &str, computed: u64, cached: u64, failed: u64) {
        self.emit(
            "campaign_end",
            campaign,
            Json::object()
                .with("computed", computed)
                .with("cached", cached)
                .with("failed", failed),
        );
    }
}

/// Parses a progress stream into event objects, skipping malformed
/// lines (a reader can race the writer's final line, which may end
/// inside a multi-byte character).
pub fn read_events(path: &Path) -> Vec<Json> {
    let Ok(bytes) = std::fs::read(path) else {
        return Vec::new();
    };
    String::from_utf8_lossy(&bytes)
        .lines()
        .filter_map(|l| sop_obs::json::parse(l).ok())
        .collect()
}

/// Last-known activity of one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerActivity {
    /// Worker index within the pool.
    pub worker: u64,
    /// Job name it last touched.
    pub job: String,
    /// Whether that job is still running (a `job_start` without a
    /// matching `job_finish` yet).
    pub running: bool,
}

/// An aggregated view over the most recent campaign in a progress
/// stream — everything `sop top` displays.
#[derive(Debug, Clone, PartialEq)]
pub struct TopSnapshot {
    /// Campaign name from the latest `campaign_start`.
    pub campaign: String,
    /// Total jobs in the campaign.
    pub total: u64,
    /// Jobs resolved so far (computed + cache hits + failures).
    pub finished: u64,
    /// Jobs computed by workers.
    pub computed: u64,
    /// Jobs satisfied from the cache.
    pub cache_hits: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Worker count announced at campaign start.
    pub workers: u64,
    /// Per-worker last activity, sorted by worker index.
    pub per_worker: Vec<WorkerActivity>,
    /// Resolved jobs per second of stream time.
    pub jobs_per_sec: f64,
    /// Simulated megacycles per second: the `cycles` the campaign's
    /// jobs reported over the stream span (`None` when none did).
    pub mcycles_per_sec: Option<f64>,
    /// Simulated fleet hours per second: the `ticks` (simulated
    /// seconds) the campaign's jobs reported over the stream span.
    pub sim_hours_per_sec: Option<f64>,
    /// Latest ETA estimate in µs, if any job has completed.
    pub eta_us: Option<u64>,
    /// SLO alert incidents fired by the campaign's armed runs (`None`
    /// when no run armed an SLO spec).
    pub slo_fired: Option<u64>,
    /// Of those, incidents still active (uncleared) at each run's end.
    pub slo_active: Option<u64>,
    /// Whether the campaign has ended.
    pub done: bool,
}

impl TopSnapshot {
    /// Cache hits as a fraction of resolved jobs.
    pub fn hit_rate(&self) -> f64 {
        if self.finished == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.finished as f64
        }
    }

    /// Renders the monitor panel as fixed-width text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let pct = if self.total == 0 {
            100.0
        } else {
            100.0 * self.finished as f64 / self.total as f64
        };
        out.push_str(&format!(
            "campaign {:<12} {:>4}/{} jobs ({pct:.0}%){}\n",
            self.campaign,
            self.finished,
            self.total,
            if self.done { " · done" } else { "" }
        ));
        out.push_str(&format!(
            "  computed {} · cache hits {} ({:.0}%) · failed {}\n",
            self.computed,
            self.cache_hits,
            100.0 * self.hit_rate(),
            self.failed
        ));
        let mut rates = String::new();
        if let Some(m) = self.mcycles_per_sec {
            rates.push_str(&format!(" · {m:.1} Mcycles/s"));
        }
        if let Some(h) = self.sim_hours_per_sec {
            rates.push_str(&format!(" · {h:.2} sim-hours/s"));
        }
        let eta = match (self.done, self.eta_us) {
            (false, Some(us)) => format!(" · eta {:.1}s", us as f64 / 1e6),
            _ => String::new(),
        };
        out.push_str(&format!("  {:.2} jobs/s{rates}{eta}\n", self.jobs_per_sec));
        if let Some(fired) = self.slo_fired {
            let active = self.slo_active.unwrap_or(0);
            let state = if active > 0 { "FIRING" } else { "clear" };
            out.push_str(&format!(
                "  slo alerts {state}: {fired} fired · {active} active\n"
            ));
        }
        for w in &self.per_worker {
            let state = if w.running { "running" } else { "idle" };
            out.push_str(&format!(
                "  worker {:<3} {:<8} {}\n",
                w.worker, state, w.job
            ));
        }
        out
    }
}

/// The work fields of `job_finish` events that [`snapshot`] sums.
const WORK_FIELDS: [&str; 4] = ["cycles", "ticks", "slo_fired", "slo_active"];

/// Aggregates the most recent campaign's events into a [`TopSnapshot`],
/// or `None` when the stream holds no `campaign_start` yet.
pub fn snapshot(events: &[Json]) -> Option<TopSnapshot> {
    let str_of = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).map(str::to_owned);
    let num_of = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64);
    let start = events
        .iter()
        .rposition(|e| str_of(e, "ev").as_deref() == Some("campaign_start"))?;
    let events = &events[start..];
    let head = &events[0];
    let campaign = str_of(head, "campaign").unwrap_or_default();
    let total = num_of(head, "jobs").unwrap_or(0.0) as u64;
    let workers = num_of(head, "workers").unwrap_or(1.0) as u64;

    let mut computed = 0u64;
    let mut cache_hits = 0u64;
    let mut failed = 0u64;
    let mut done = false;
    let mut eta_us = None;
    let mut t_last = 0.0f64;
    let t_first = num_of(head, "t_us").unwrap_or(0.0);
    // Work fields summed over the campaign's job_finish events: cycles,
    // ticks, slo_fired, slo_active. A field no event carried stays None.
    let mut work: [Option<u64>; 4] = [None; 4];
    let mut activity: Vec<WorkerActivity> = Vec::new();
    for e in events {
        let Some(ev) = str_of(e, "ev") else { continue };
        if let Some(t) = num_of(e, "t_us") {
            t_last = t_last.max(t);
        }
        match ev.as_str() {
            "cache_hit" => cache_hits += 1,
            "job_finish" => {
                computed += 1;
                if let Some(us) = num_of(e, "eta_us") {
                    eta_us = Some(us as u64);
                }
                for (sum, key) in work.iter_mut().zip(WORK_FIELDS) {
                    if let Some(v) = num_of(e, key) {
                        // `as` saturates: a negative or huge value
                        // cannot make the sum panic.
                        *sum = Some(sum.unwrap_or(0).saturating_add(v as u64));
                    }
                }
            }
            "job_fail" => failed += 1,
            "campaign_end" => done = true,
            _ => {}
        }
        // Track the last touch per worker for start/finish events.
        if let (Some(w), Some(job)) = (num_of(e, "worker"), str_of(e, "job")) {
            let running = ev == "job_start";
            let w = w as u64;
            match activity.iter_mut().find(|a| a.worker == w) {
                Some(a) => {
                    a.job = job;
                    a.running = running;
                }
                None => activity.push(WorkerActivity {
                    worker: w,
                    job,
                    running,
                }),
            }
        }
    }
    activity.sort_by_key(|a| a.worker);
    let finished = computed + cache_hits + failed;
    let span_s = (t_last - t_first).max(1.0) / 1e6;
    let [cycles, ticks, slo_fired, slo_active] = work;
    let rate = |sum: Option<u64>, unit: f64| sum.map(|v| v as f64 / unit / span_s);
    Some(TopSnapshot {
        campaign,
        total,
        finished,
        computed,
        cache_hits,
        failed,
        workers,
        per_worker: activity,
        jobs_per_sec: finished as f64 / span_s,
        mcycles_per_sec: rate(cycles, 1e6),
        sim_hours_per_sec: rate(ticks, 3600.0),
        eta_us,
        slo_fired,
        slo_active,
        done,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sop-heartbeat-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn events_append_one_json_object_per_line() {
        let dir = temp_dir("lines");
        let hb = Heartbeat::open(&dir).expect("open");
        hb.campaign_start("ch3", 2, 1);
        hb.job_start("ch3", "a", 0);
        hb.job_finish("ch3", "a", 0, 1500, &Registry::new());
        hb.cache_hit("ch3", "b");
        hb.campaign_end("ch3", 1, 1, 0);
        let events = read_events(hb.path());
        assert_eq!(events.len(), 5);
        let kinds: Vec<_> = events
            .iter()
            .map(|e| e.get("ev").and_then(Json::as_str).expect("ev").to_owned())
            .collect();
        assert_eq!(
            kinds,
            [
                "campaign_start",
                "job_start",
                "job_finish",
                "cache_hit",
                "campaign_end"
            ]
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn snapshot_aggregates_the_latest_campaign() {
        let dir = temp_dir("snapshot");
        let hb = Heartbeat::open(&dir).expect("open");
        // An earlier campaign that must not leak into the snapshot.
        hb.campaign_start("old", 1, 1);
        hb.cache_hit("old", "x");
        hb.campaign_end("old", 0, 1, 0);
        hb.campaign_start("ch3", 3, 2);
        hb.job_start("ch3", "a", 0);
        hb.job_finish("ch3", "a", 0, 2000, &Registry::new());
        hb.cache_hit("ch3", "b");
        let s = snapshot(&read_events(hb.path())).expect("campaign present");
        assert_eq!(s.campaign, "ch3");
        assert_eq!(
            (s.total, s.finished, s.computed, s.cache_hits),
            (3, 2, 1, 1)
        );
        assert!(!s.done);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(s.eta_us, Some(2000), "2 queued × 2000µs mean / 2 workers");
        assert_eq!(s.per_worker.len(), 1);
        assert!(!s.per_worker[0].running);
        let panel = s.render();
        assert!(panel.contains("campaign ch3"), "{panel}");
        assert!(panel.contains("cache hits 1 (50%)"), "{panel}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn snapshot_of_an_empty_stream_is_none() {
        assert!(snapshot(&[]).is_none());
    }

    /// Parses hand-built NDJSON lines into events.
    fn parse_lines(lines: &[&str]) -> Vec<Json> {
        lines
            .iter()
            .map(|l| sop_obs::json::parse(l).expect("event"))
            .collect()
    }

    #[test]
    fn job_work_becomes_event_fields_without_overwriting_the_engines() {
        let dir = temp_dir("work");
        let hb = Heartbeat::open(&dir).expect("open");
        let mut work = Registry::new();
        work.counter_add("ticks", 7200);
        work.counter_add("worker", 99);
        work.counter_add("campaign", 1);
        work.gauge_set("not_a_counter", 1.0);
        hb.job_finish("fleet", "a", 1, 10, &work);
        let events = read_events(hb.path());
        let e = &events[0];
        assert_eq!(e.get("ticks").and_then(Json::as_f64), Some(7200.0));
        assert_eq!(e.get("worker").and_then(Json::as_f64), Some(1.0));
        assert_eq!(e.get("campaign").and_then(Json::as_str), Some("fleet"));
        assert!(e.get("not_a_counter").is_none(), "{e:?}");
        let text = std::fs::read_to_string(hb.path()).expect("stream");
        assert_eq!(text.matches("\"worker\"").count(), 1, "{text}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn fleet_campaigns_report_sim_hours_instead_of_mcycles() {
        // Two fleet jobs of 7200 simulated seconds each (2 sim-hours
        // apiece) over a 4-second stream span.
        let events = parse_lines(&[
            r#"{"ev":"campaign_start","t_us":0,"campaign":"fleet","jobs":2,"workers":1}"#,
            r#"{"ev":"job_finish","t_us":2000000,"campaign":"fleet","job":"a","source":"computed","worker":0,"wall_us":2000000,"queue":1,"ticks":7200}"#,
            r#"{"ev":"job_finish","t_us":4000000,"campaign":"fleet","job":"b","source":"computed","worker":0,"wall_us":2000000,"queue":0,"ticks":7200}"#,
        ]);
        let s = snapshot(&events).expect("campaign present");
        assert_eq!(s.mcycles_per_sec, None, "no job reported cycles");
        let hours = s.sim_hours_per_sec.expect("sim-hours rate");
        // 14400 simulated seconds over 4 wall seconds = 1.0 sim-hours/s.
        assert!((hours - 1.0).abs() < 1e-9, "{hours}");
        let panel = s.render();
        assert!(panel.contains("1.00 sim-hours/s"), "{panel}");
        assert!(!panel.contains("Mcycles"), "{panel}");
    }

    #[test]
    fn the_unit_follows_the_work_field_not_the_campaign_name() {
        let events = parse_lines(&[
            r#"{"ev":"campaign_start","t_us":0,"campaign":"resilience","jobs":1,"workers":1}"#,
            r#"{"ev":"job_finish","t_us":1000000,"campaign":"resilience","job":"a","source":"computed","worker":0,"wall_us":1000000,"queue":0,"ticks":3600}"#,
        ]);
        let s = snapshot(&events).expect("campaign present");
        assert_eq!(s.mcycles_per_sec, None);
        let panel = s.render();
        assert!(panel.contains("1.00 sim-hours/s"), "{panel}");
        assert!(!panel.contains("Mcycles"), "{panel}");
        // And a campaign named like a fleet one that reports cycles
        // renders cycles.
        let events = parse_lines(&[
            r#"{"ev":"campaign_start","t_us":0,"campaign":"fleet-like","jobs":1,"workers":1}"#,
            r#"{"ev":"job_finish","t_us":1000000,"campaign":"fleet-like","job":"a","source":"computed","worker":0,"wall_us":1000000,"queue":0,"cycles":3000000}"#,
        ]);
        let panel = snapshot(&events).expect("campaign present").render();
        assert!(panel.contains("3.0 Mcycles/s"), "{panel}");
        assert!(!panel.contains("sim-hours"), "{panel}");
    }

    #[test]
    fn armed_campaigns_surface_live_alert_state() {
        let events = parse_lines(&[
            r#"{"ev":"campaign_start","t_us":0,"campaign":"resilience","jobs":2,"workers":1}"#,
            r#"{"ev":"job_finish","t_us":1000000,"campaign":"resilience","job":"a","source":"computed","worker":0,"wall_us":1000000,"queue":1,"slo_fired":2,"slo_active":1}"#,
            r#"{"ev":"job_finish","t_us":2000000,"campaign":"resilience","job":"b","source":"computed","worker":0,"wall_us":1000000,"queue":0,"slo_fired":3,"slo_active":0}"#,
        ]);
        // Each job reports its own incidents; the campaign sums them.
        let s = snapshot(&events).expect("campaign present");
        assert_eq!((s.slo_fired, s.slo_active), (Some(5), Some(1)));
        let panel = s.render();
        assert!(
            panel.contains("slo alerts FIRING: 5 fired · 1 active"),
            "{panel}"
        );
        // Disarmed campaigns carry no alert fields and render none.
        let s = snapshot(&events[..1]).expect("campaign present");
        assert_eq!((s.slo_fired, s.slo_active), (None, None));
        assert!(!s.render().contains("slo alerts"), "{}", s.render());
    }

    #[test]
    fn torn_final_lines_are_skipped() {
        let dir = temp_dir("torn");
        let hb = Heartbeat::open(&dir).expect("open");
        hb.campaign_start("ch3", 1, 1);
        let mut f = OpenOptions::new()
            .append(true)
            .open(hb.path())
            .expect("reopen");
        f.write_all(b"{\"ev\":\"job_fin").expect("torn tail");
        drop(f);
        assert_eq!(read_events(hb.path()).len(), 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
