//! Chaos test: a campaign with injected harness faults (~20% of jobs
//! panicking or timing out) must complete with partial results, report
//! the failures in a structured way, leave the on-disk cache free of
//! debris, and come back fully green when simply run again: the cache
//! holds only successes, so the rerun recomputes exactly the failed
//! subset.

use scale_out_processors::exec::{audit_dir, Exec, ExecConfig, Job, JobSource};
use scale_out_processors::obs::Json;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sop-chaos-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const JOBS: u64 = 25;

/// Jobs 3, 8, 13, 18, 23 panic and job 21 hangs past the watchdog while
/// `chaos` is armed — 6 of 25 jobs, the ~20% injection rate. `calls`
/// counts actual evaluations (not cache replays).
fn chaos_jobs(chaos: &Arc<AtomicBool>, calls: &Arc<AtomicU64>) -> Vec<Job<'static>> {
    (0..JOBS)
        .map(|x| {
            let chaos = Arc::clone(chaos);
            let calls = Arc::clone(calls);
            Job::new(
                format!("chaos{x}"),
                Json::object().with("kind", "chaos").with("x", x),
                move |spec| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    let x = spec.get("x").and_then(Json::as_f64).expect("x") as u64;
                    if chaos.load(Ordering::Relaxed) {
                        if x % 5 == 3 {
                            panic!("injected chaos at {x}");
                        }
                        if x == 21 {
                            std::thread::sleep(std::time::Duration::from_secs(5));
                        }
                    }
                    Json::UInt(x * x)
                },
            )
        })
        .collect()
}

#[test]
fn chaotic_campaign_survives_and_resumes_to_green() {
    let dir = scratch_dir("rerun");
    let chaos = Arc::new(AtomicBool::new(true));
    let calls = Arc::new(AtomicU64::new(0));
    let mk_exec = || {
        Exec::new(ExecConfig {
            jobs: 4,
            cache_dir: Some(dir.clone()),
            timeout_secs: Some(1),
            ..ExecConfig::default()
        })
    };
    let expected: Vec<Json> = (0..JOBS).map(|x| Json::UInt(x * x)).collect();

    // First pass: six jobs die (five panics, one watchdog timeout).
    let exec = mk_exec();
    let run = exec.run_campaign("chaos", chaos_jobs(&chaos, &calls));
    assert!(!run.is_fully_green());
    assert_eq!(run.failures.len(), 6, "{:?}", run.failures);
    assert_eq!(run.count(JobSource::Failed), 6);
    assert!(run
        .failures
        .iter()
        .any(|f| f.error.contains("injected chaos")));
    assert!(run.failures.iter().any(|f| f.error.contains("timed out")));
    // Every surviving slot matches the fault-free value; every failed
    // slot is an explicit hole, not a fabrication.
    for (i, (got, want)) in run.results.iter().zip(&expected).enumerate() {
        if run.failures.iter().any(|f| f.index == i) {
            assert_eq!(*got, Json::Null, "failed slot {i} must stay empty");
        } else {
            assert_eq!(got, want, "surviving slot {i}");
        }
    }
    // The engine-level failure log matches the run's.
    assert_eq!(exec.failures().len(), 6);
    // No truncated or half-written cache entries: every file on disk is
    // a valid, hash-verified entry.
    let audit = audit_dir(&dir).expect("audit");
    assert!(audit.is_clean(), "{audit:?}");
    assert_eq!(audit.valid, JOBS as usize - 6);

    // Rerun with the fault cleared: only the failed subset recomputes,
    // the rest replays from the cache.
    chaos.store(false, Ordering::Relaxed);
    let before = calls.load(Ordering::Relaxed);
    let exec2 = mk_exec();
    let run2 = exec2.run_campaign("chaos", chaos_jobs(&chaos, &calls));
    assert!(run2.is_fully_green());
    assert_eq!(run2.results, expected);
    assert_eq!(
        calls.load(Ordering::Relaxed) - before,
        6,
        "a rerun must recompute exactly the failed subset"
    );
    assert_eq!(run2.count(JobSource::Computed), 6);
    assert_eq!(run2.count(JobSource::Cached), JOBS as usize - 6);
    assert_eq!(run2.count(JobSource::Failed), 0);
    let audit = audit_dir(&dir).expect("audit");
    assert!(audit.is_clean(), "{audit:?}");
    assert_eq!(audit.valid, JOBS as usize);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_free_subset_is_unaffected_by_the_chaos() {
    // The same campaign without injected faults: byte-identical values
    // in every slot the chaotic run also produced.
    let dir = scratch_dir("subset");
    let chaos_on = Arc::new(AtomicBool::new(true));
    let calls = Arc::new(AtomicU64::new(0));
    let chaotic = Exec::new(ExecConfig {
        jobs: 4,
        cache_dir: Some(dir.clone()),
        timeout_secs: Some(1),
        ..ExecConfig::default()
    })
    .run_campaign("subset", chaos_jobs(&chaos_on, &calls));

    let chaos_off = Arc::new(AtomicBool::new(false));
    let healthy = Exec::with_workers(2).run_campaign("subset", chaos_jobs(&chaos_off, &calls));
    assert!(healthy.is_fully_green());
    for (i, (c, h)) in chaotic.results.iter().zip(&healthy.results).enumerate() {
        if chaotic.failures.iter().all(|f| f.index != i) {
            assert_eq!(c, h, "slot {i} must match the fault-free run");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
