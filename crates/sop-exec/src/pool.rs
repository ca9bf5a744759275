//! A shared-queue pool of `std::thread` workers.
//!
//! The hermetic build has no rayon, so this module hand-rolls the small
//! slice of it the campaign runner needs: run `n` independent closures on
//! `w` workers pulling from one mutex-guarded queue, isolate each job's
//! panic or hang to its own slot, and return the results **in input
//! order** so downstream output is byte-identical regardless of how the
//! schedule played out. At experiment granularity (each job simulates
//! thousands of cycles) lock traffic on the queue is noise.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Detects the number of workers for "all cores", and whether detection
/// failed. On failure the pool degrades to one worker; callers should
/// surface the second component (see `exec.workers.fallback`) so degraded
/// parallelism is observable rather than silent.
pub fn detect_workers() -> (usize, bool) {
    match std::thread::available_parallelism() {
        Ok(n) => (n.get(), false),
        Err(_) => (1, true),
    }
}

/// Why a job run under [`run_ordered_resilient`] produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's closure panicked; the payload's message is preserved.
    Panicked(String),
    /// The job exceeded the per-job timeout. The worker thread running it
    /// is abandoned (it cannot be interrupted), but the pool keeps
    /// processing the remaining jobs on the other workers.
    TimedOut(Duration),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "panicked: {msg}"),
            JobError::TimedOut(t) => write!(f, "timed out after {:.1}s", t.as_secs_f64()),
        }
    }
}

impl std::error::Error for JobError {}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f` over every item on `workers` threads and returns the results
/// in input order, plus the number of jobs each worker executed. Every
/// job runs under `catch_unwind`, so one panicking job yields
/// `Err(JobError::Panicked)` in its own slot instead of poisoning the
/// pool and discarding everyone else's results. With `timeout` set, a
/// watchdog marks jobs that run too long as `Err(JobError::TimedOut)`
/// and spawns a replacement worker so throughput is preserved; the hung
/// thread itself is abandoned (detached) and its eventual result, if
/// any, is discarded.
///
/// The workers are detached threads (abandoning a hung job is impossible
/// with scoped threads, whose join blocks on it), hence the `'static`
/// bounds. `f` receives the id of the worker running it (0 on the
/// sequential path; a watchdog replacement worker gets a fresh id)
/// alongside the item.
pub fn run_ordered_resilient<T, R, F>(
    workers: usize,
    items: Vec<T>,
    timeout: Option<Duration>,
    f: F,
) -> (Vec<Result<R, JobError>>, Vec<u64>)
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T) -> R + Send + Sync + 'static,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 && timeout.is_none() {
        // Sequential fast path: no threads, but the same panic isolation.
        let results = items
            .into_iter()
            .map(|t| {
                catch_unwind(AssertUnwindSafe(|| f(0, t)))
                    .map_err(|p| JobError::Panicked(panic_message(p)))
            })
            .collect();
        return (results, vec![n as u64]);
    }

    let queue: Arc<Mutex<VecDeque<(usize, T)>>> =
        Arc::new(Mutex::new(items.into_iter().enumerate().collect()));
    let started: Arc<Mutex<Vec<Option<Instant>>>> =
        Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let stats: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(vec![0; workers]));
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, JobError>)>();

    let spawn_worker = |id: usize| {
        let queue = Arc::clone(&queue);
        let started = Arc::clone(&started);
        let stats = Arc::clone(&stats);
        let f = Arc::clone(&f);
        let tx = tx.clone();
        std::thread::spawn(move || loop {
            let Some((idx, item)) = queue.lock().expect("queue lock").pop_front() else {
                break;
            };
            started.lock().expect("started lock")[idx] = Some(Instant::now());
            let result = catch_unwind(AssertUnwindSafe(|| f(id, item)))
                .map_err(|p| JobError::Panicked(panic_message(p)));
            {
                let mut s = stats.lock().expect("stats lock");
                if s.len() <= id {
                    s.resize(id + 1, 0);
                }
                s[id] += 1;
            }
            // A send can only fail if the collector is gone (all live
            // slots already resolved); the late result is then discarded.
            if tx.send((idx, result)).is_err() {
                break;
            }
        });
    };
    for w in 0..workers {
        spawn_worker(w);
    }

    let mut slots: Vec<Option<Result<R, JobError>>> = (0..n).map(|_| None).collect();
    let mut remaining = n;
    let mut next_worker_id = workers;
    // The watchdog tick bounds how stale a timeout decision can be; the
    // tick itself costs nothing when jobs finish promptly.
    let tick = timeout.map_or(Duration::from_millis(200), |t| {
        t.min(Duration::from_millis(50))
    });
    while remaining > 0 {
        match rx.recv_timeout(tick) {
            Ok((idx, result)) => {
                // `None` guards against a late result racing the watchdog:
                // first writer wins, duplicates are discarded.
                if slots[idx].is_none() {
                    slots[idx] = Some(result);
                    remaining -= 1;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let Some(limit) = timeout else { continue };
                let overdue: Vec<usize> = {
                    let started = started.lock().expect("started lock");
                    (0..n)
                        .filter(|&i| {
                            slots[i].is_none() && started[i].is_some_and(|at| at.elapsed() > limit)
                        })
                        .collect()
                };
                for idx in overdue {
                    slots[idx] = Some(Err(JobError::TimedOut(limit)));
                    remaining -= 1;
                    // The thread stuck on this job is abandoned; spawn a
                    // replacement so parallelism does not decay.
                    spawn_worker(next_worker_id);
                    next_worker_id += 1;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Unreachable in practice: the collector itself holds a
                // sender, so the channel cannot disconnect. Kept as a
                // defensive exit so a future refactor cannot hang here.
                for slot in slots.iter_mut().filter(|s| s.is_none()) {
                    *slot = Some(Err(JobError::Panicked("worker thread died".into())));
                    remaining -= 1;
                }
            }
        }
    }

    let results = slots
        .into_iter()
        .map(|s| s.expect("every slot resolved"))
        .collect();
    let stats = stats.lock().expect("stats lock").clone();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        for workers in [1, 2, 4, 8] {
            let (out, stats) =
                run_ordered_resilient(workers, (0..100u64).collect(), None, |_, x| x * 3);
            let out: Vec<u64> = out.into_iter().map(|r| r.expect("success")).collect();
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<u64>>());
            assert_eq!(stats.iter().sum::<u64>(), 100);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = Arc::new(AtomicU64::new(0));
        let calls = Arc::clone(&counter);
        run_ordered_resilient(4, (0..257).collect::<Vec<u32>>(), None, move |_, _| {
            calls.fetch_add(1, Ordering::Relaxed)
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, stats) = run_ordered_resilient(8, Vec::<u8>::new(), None, |_, x| x);
        assert!(out.is_empty());
        assert_eq!(stats.iter().sum::<u64>(), 0);
    }

    #[test]
    fn more_workers_than_items_clamps() {
        let (out, stats) = run_ordered_resilient(16, vec![1, 2, 3], None, |_, x| x * 2);
        let out: Vec<i32> = out.into_iter().map(|r| r.expect("success")).collect();
        assert_eq!(out, vec![2, 4, 6]);
        assert!(stats.len() <= 3);
    }

    #[test]
    fn resilient_isolates_panics_to_their_own_slot() {
        for workers in [1, 4] {
            let (out, stats) = run_ordered_resilient(
                workers,
                (0..20u64).collect::<Vec<_>>(),
                None,
                move |w, x| {
                    assert!(w < workers, "worker id {w} of {workers}");
                    if x % 5 == 3 {
                        panic!("job {x} exploded");
                    }
                    x * 2
                },
            );
            assert_eq!(out.len(), 20);
            for (i, r) in out.iter().enumerate() {
                if i % 5 == 3 {
                    match r {
                        Err(JobError::Panicked(msg)) => {
                            assert!(msg.contains("exploded"), "got {msg:?}")
                        }
                        other => panic!("expected a panic error, got {other:?}"),
                    }
                } else {
                    assert_eq!(r.as_ref().expect("success"), &((i as u64) * 2));
                }
            }
            assert_eq!(stats.iter().sum::<u64>(), 20);
        }
    }

    #[test]
    fn resilient_watchdog_times_out_hung_jobs_and_finishes_the_rest() {
        let started = Instant::now();
        let (out, _) = run_ordered_resilient(
            2,
            (0..8u64).collect::<Vec<_>>(),
            Some(Duration::from_millis(100)),
            |_, x| {
                if x == 2 {
                    // Far longer than the timeout: the watchdog must fire
                    // long before this job would complete on its own.
                    std::thread::sleep(Duration::from_secs(30));
                }
                x + 1
            },
        );
        assert!(
            matches!(out[2], Err(JobError::TimedOut(_))),
            "got {:?}",
            out[2]
        );
        for (i, r) in out.iter().enumerate() {
            if i != 2 {
                assert_eq!(r.as_ref().expect("success"), &((i as u64) + 1));
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "the pool must not wait out the hung job"
        );
    }

    #[test]
    fn job_error_displays_cleanly() {
        assert_eq!(
            JobError::Panicked("boom".into()).to_string(),
            "panicked: boom"
        );
        assert_eq!(
            JobError::TimedOut(Duration::from_secs(3)).to_string(),
            "timed out after 3.0s"
        );
    }
}
