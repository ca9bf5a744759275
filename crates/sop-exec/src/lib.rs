//! # sop-exec — the experiment-execution engine
//!
//! Every result in this repo comes from evaluating a model or simulator
//! at a point: *(figure, workload, topology, core count, …) → numbers*.
//! This crate turns those evaluations into first-class, schedulable,
//! cacheable **jobs** so a full reproduction campaign runs as fast as
//! the hardware allows without changing a byte of output:
//!
//! * [`pool`] — a shared-queue pool of `std::thread` workers (no rayon;
//!   the build stays hermetic) whose results always come back in input
//!   order, so parallel runs print exactly what sequential runs print.
//! * [`hash`] — stable content addressing: FNV-1a over the canonical
//!   (key-sorted, compact) rendering of a job's JSON spec.
//! * [`cache`] — a disk result store keyed by spec hash, with
//!   self-validating entries that detect truncation and tampering instead
//!   of trusting them. Only successes are stored, so a rerun of an
//!   interrupted or partly failed campaign recomputes exactly what is
//!   missing.
//! * [`campaign`] — [`Job`]s, one-pass campaigns of independent jobs,
//!   and the [`Exec`] handle binaries thread through their figure code.
//! * [`heartbeat`] — the live campaign telemetry stream: workers append
//!   NDJSON progress events to `<cache-dir>/progress.ndjson`, which
//!   `sop top` tails and aggregates into a [`TopSnapshot`].
//! * [`args`] — the one argv parser: a [`Spec`] per command gives both the
//!   checks and the usage text; [`Spec::engine`] adds the engine flags.
//!
//! The engine never makes anything *less* deterministic: a campaign run
//! with one worker, eight workers, a cold cache, or a warm cache yields
//! identical results in identical order. Only wall-clock metrics (the
//! `exec.*` namespace, span timings) vary — and reports can strip those
//! via `sop_obs::report::stabilized` for byte-for-byte comparison.

pub mod args;
pub mod cache;
pub mod campaign;
pub mod hash;
pub mod heartbeat;
pub mod pool;

pub use args::{Args, Spec};
pub use cache::{audit_dir, default_cache_dir, CacheAudit, ResultCache};
pub use campaign::{CampaignRun, Exec, ExecConfig, Job, JobFailure, JobSource};
pub use hash::{canonicalize, hash_hex, parse_hash_hex, spec_hash};
pub use heartbeat::{Heartbeat, TopSnapshot, WorkerActivity};
pub use pool::{detect_workers, run_ordered_resilient, JobError};

#[cfg(test)]
mod tests {
    use super::*;
    use sop_obs::Json;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sop-exec-lib-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn square_spec(x: u64) -> Json {
        Json::object().with("kind", "square").with("x", x)
    }

    fn square_job(name: &str, x: u64) -> Job<'static> {
        Job::new(name.to_owned(), square_spec(x), |spec| {
            let x = spec.get("x").and_then(Json::as_f64).expect("x") as u64;
            Json::UInt(x * x)
        })
    }

    #[test]
    fn campaign_results_are_in_job_order_for_any_worker_count() {
        let expected: Vec<Json> = (0..20).map(|x| Json::UInt(x * x)).collect();
        for workers in [1, 2, 8] {
            let exec = Exec::with_workers(workers);
            // Even jobs share one of three interleaved affinity keys; odd
            // jobs have none.
            let ran = Arc::new(Mutex::new(Vec::new()));
            let jobs = (0..20)
                .map(|x| {
                    let log = Arc::clone(&ran);
                    let mut job = Job::new(format!("sq{x}"), square_spec(x), move |_| {
                        log.lock()
                            .expect("log")
                            .push((x, std::thread::current().id()));
                        Json::UInt(x * x)
                    });
                    job.affinity = (x % 2 == 0).then_some(x % 3);
                    job
                })
                .collect();
            let run = exec.run_campaign("squares", jobs);
            assert_eq!(run.results, expected, "workers={workers}");
            assert_eq!(run.count(JobSource::Computed), 20);
            // At one worker the run order shows the keys reach the pool:
            // each key's jobs run back to back, in job order, from the
            // key's first job on. (How several workers share a group is
            // the pool's to test.)
            if workers == 1 {
                let ran: Vec<u64> = ran.lock().expect("log").iter().map(|&(x, _)| x).collect();
                let grouped = [
                    0, 6, 12, 18, 1, 2, 8, 14, 3, 4, 10, 16, 5, 7, 9, 11, 13, 15, 17, 19,
                ];
                assert_eq!(ran, grouped);
            }
        }
    }

    #[test]
    fn duplicate_specs_within_a_campaign_compute_once() {
        let calls = Arc::new(AtomicU64::new(0));
        let exec = Exec::sequential();
        let spec = Json::object().with("kind", "dup");
        let jobs = (0..4)
            .map(|i| {
                let calls = Arc::clone(&calls);
                Job::new(format!("dup{i}"), spec.clone(), move |_| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    Json::UInt(9)
                })
            })
            .collect();
        let run = exec.run_campaign("dups", jobs);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(run.results.iter().all(|r| *r == Json::UInt(9)));
        assert_eq!(run.count(JobSource::Cached), 3);
    }

    #[test]
    fn rerun_replays_completed_jobs_from_the_cache() {
        let dir = scratch_dir("rerun");
        let mk_exec = || {
            Exec::new(ExecConfig {
                jobs: 1,
                cache_dir: Some(dir.clone()),
                ..ExecConfig::default()
            })
        };
        let calls = Arc::new(AtomicU64::new(0));
        fn mk_jobs(calls: &Arc<AtomicU64>) -> Vec<Job<'static>> {
            (0..5u64)
                .map(|x| {
                    let calls = Arc::clone(calls);
                    Job::new(
                        format!("r{x}"),
                        Json::object().with("kind", "rerun").with("x", x),
                        move |spec| {
                            calls.fetch_add(1, Ordering::Relaxed);
                            let x = spec.get("x").and_then(Json::as_f64).expect("x") as u64;
                            Json::UInt(x + 100)
                        },
                    )
                })
                .collect()
        }

        let first = mk_exec().run_campaign("rerun-test", mk_jobs(&calls));
        assert_eq!(calls.load(Ordering::Relaxed), 5);
        assert_eq!(first.count(JobSource::Computed), 5);

        // A rerun on a fresh engine must not invoke a single closure.
        let second = mk_exec().run_campaign("rerun-test", mk_jobs(&calls));
        assert_eq!(calls.load(Ordering::Relaxed), 5, "no recompute on rerun");
        assert_eq!(second.count(JobSource::Cached), 5);
        assert_eq!(second.results, first.results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_cache_write_fails_no_job() {
        let dir = scratch_dir("put-error");
        let job = square_job("sq", 4);
        // A directory under the entry's name makes the rename fail.
        let entry = dir.join(format!("{}.json", hash_hex(spec_hash(&job.spec))));
        std::fs::create_dir_all(&entry).expect("mkdir");
        let exec = Exec::new(ExecConfig {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..ExecConfig::default()
        });
        let run = exec.run_campaign("put-error", vec![job]);
        assert!(run.is_fully_green(), "{:?}", run.failures);
        assert_eq!(run.results, vec![Json::UInt(16)]);
        let m = exec.metrics_snapshot();
        assert_eq!(m.counter("exec.cache.put_errors"), 1);
        let audit = audit_dir(&dir).expect("audit");
        assert!(audit.stray_tmp.is_empty(), "{audit:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_jobs_yield_partial_results() {
        let exec = Exec::with_workers(2);
        let jobs: Vec<Job<'static>> = (0..6u64)
            .map(|x| {
                Job::new(
                    format!("f{x}"),
                    Json::object().with("kind", "fail-some").with("x", x),
                    move |_| {
                        if x == 2 {
                            panic!("simulated fault in job 2");
                        }
                        Json::UInt(x)
                    },
                )
            })
            .collect();
        let run = exec.run_campaign("partial", jobs);
        assert_eq!(run.results.len(), 6);
        assert_eq!(run.failures.len(), 1, "{:?}", run.failures);
        assert_eq!(run.results[2], Json::Null);
        assert_eq!(run.results[5], Json::UInt(5));
        assert_eq!(run.failures[0].index, 2);
        assert_eq!(run.failures[0].error, "panicked: simulated fault in job 2");
        assert_eq!(run.count(JobSource::Failed), 1);
        assert!(!run.is_fully_green());
        assert_eq!(exec.failures().len(), 1);
        let m = exec.metrics_snapshot();
        assert_eq!(m.counter("exec.jobs.failed"), 1);
    }

    #[test]
    fn a_panicking_job_streams_its_error_at_any_worker_count() {
        for workers in [1, 2] {
            let dir = scratch_dir(&format!("job-fail-{workers}"));
            let exec = Exec::new(ExecConfig {
                jobs: workers,
                cache_dir: Some(dir.clone()),
                ..ExecConfig::default()
            });
            let jobs = vec![
                square_job("ok", 3),
                Job::new("boom", Json::object().with("kind", "boom"), |_| {
                    panic!("simulated fault in job 1")
                }),
            ];
            exec.run_campaign("stream", jobs);
            let events = heartbeat::read_events(&dir.join(heartbeat::PROGRESS_FILE));
            let fails: Vec<&Json> = events
                .iter()
                .filter(|e| e.get("ev").and_then(Json::as_str) == Some("job_fail"))
                .collect();
            assert_eq!(fails.len(), 1, "workers={workers}: {events:?}");
            assert_eq!(fails[0].get("job").and_then(Json::as_str), Some("boom"));
            assert_eq!(
                fails[0].get("error").and_then(Json::as_str),
                Some("panicked: simulated fault in job 1"),
                "workers={workers}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_failing_job_runs_once() {
        let attempts = Arc::new(AtomicU64::new(0));
        let exec = Exec::sequential();
        let job = {
            let attempts = Arc::clone(&attempts);
            Job::new("det", Json::object().with("kind", "det"), move |_| {
                attempts.fetch_add(1, Ordering::Relaxed);
                panic!("deterministic failure");
            })
        };
        let run = exec.run_campaign("det", vec![job]);
        assert_eq!(run.failures.len(), 1);
        assert_eq!(attempts.load(Ordering::Relaxed), 1, "no second attempt");
    }

    #[test]
    fn rerun_recomputes_only_the_failed_subset() {
        let dir = scratch_dir("rerun-failed");
        let mk_exec = || {
            Exec::new(ExecConfig {
                jobs: 1,
                cache_dir: Some(dir.clone()),
                ..ExecConfig::default()
            })
        };
        // First run: jobs 1 and 3 fail; the other three succeed.
        let calls = Arc::new(AtomicU64::new(0));
        let mk_jobs = |fail: &'static [u64], calls: &Arc<AtomicU64>| -> Vec<Job<'static>> {
            (0..5u64)
                .map(|x| {
                    let calls = Arc::clone(calls);
                    Job::new(
                        format!("rf{x}"),
                        Json::object().with("kind", "rerun-failed").with("x", x),
                        move |spec| {
                            calls.fetch_add(1, Ordering::Relaxed);
                            if fail.contains(&x) {
                                panic!("injected fault in job {x}");
                            }
                            let x = spec.get("x").and_then(Json::as_f64).expect("x") as u64;
                            Json::UInt(x * 10)
                        },
                    )
                })
                .collect()
        };
        let first = mk_exec().run_campaign("rerun-failed", mk_jobs(&[1, 3], &calls));
        assert_eq!(first.failures.len(), 2);
        assert_eq!(calls.load(Ordering::Relaxed), 5);

        // Rerun with the fault cleared: the three successes replay from
        // the cache, which never stored a failure; only jobs 1 and 3
        // recompute.
        let calls2 = Arc::new(AtomicU64::new(0));
        let second = mk_exec().run_campaign("rerun-failed", mk_jobs(&[], &calls2));
        assert!(second.is_fully_green(), "{:?}", second.failures);
        assert_eq!(
            calls2.load(Ordering::Relaxed),
            2,
            "a rerun must recompute exactly the failed subset"
        );
        assert_eq!(second.count(JobSource::Cached), 3);
        assert_eq!(second.count(JobSource::Computed), 2);
        let expected: Vec<Json> = (0..5u64).map(|x| Json::UInt(x * 10)).collect();
        assert_eq!(second.results, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_summarize_the_run() {
        let dir = scratch_dir("metrics");
        let exec = Exec::new(ExecConfig {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..ExecConfig::default()
        });
        let jobs = (0..6).map(|x| square_job(&format!("m{x}"), x)).collect();
        exec.run_campaign("metrics", jobs);
        let m = exec.metrics_snapshot();
        assert_eq!(m.counter("exec.jobs.completed"), 6);
        assert_eq!(m.counter("exec.jobs.computed"), 6);
        assert_eq!(m.counter("exec.worker.0.jobs"), 6);
        assert_eq!(m.gauge("exec.workers"), Some(1.0));
        // 6 distinct specs: each missed once before computing.
        assert_eq!(m.counter("exec.cache.misses"), 6);
        assert_eq!(m.counter("exec.cache.put_errors"), 0);
        // An engine without a cache makes no lookup to count.
        let exec = Exec::sequential();
        exec.run_campaign("metrics", vec![square_job("m", 1)]);
        assert!(exec.metrics_snapshot().get("exec.cache.misses").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exec_config_reads_the_engine_fragment() {
        let spec = Spec::new("prog").switches(["--quick"]).engine();
        // `--no-cache` throughout: without it, reading the flags creates
        // the cache directory.
        let parse = |list: &[&str]| {
            let argv: Vec<String> = list.iter().map(|s| (*s).to_owned()).collect();
            ExecConfig::from_args(&spec.try_parse(&argv).expect("flags parse"))
        };
        let cfg = parse(&["--quick", "--jobs", "4", "--no-cache"]);
        assert_eq!(cfg.jobs, 4);
        assert!(cfg.cache_dir.is_none() && cfg.heartbeat);
        let cfg = parse(&["--timeout-secs", "9", "--no-heartbeat", "--no-cache"]);
        assert_eq!(cfg.timeout_secs, Some(9));
        assert!(!cfg.heartbeat);
        assert_eq!(parse(&["--no-cache"]), ExecConfig::default());
    }
}
