//! A shared-queue pool of `std::thread` workers.
//!
//! The hermetic build has no rayon, so this module hand-rolls the small
//! slice of it the campaign runner needs: run `n` independent closures on
//! `w` workers pulling groups from one mutex-guarded queue, run each
//! group's items back to back on one worker while other groups wait,
//! isolate each job's panic or hang to its own slot, and return the
//! results **in input order** so downstream output is byte-identical
//! regardless of how the schedule played out. At experiment granularity
//! (each job simulates thousands of cycles) lock traffic on the queue is
//! noise.

use std::collections::{BTreeMap, HashMap, VecDeque};
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

/// The work not yet started: groups no worker has claimed, and the rest
/// of the group each worker is running, by worker id. Items carry their
/// input position.
struct Queue<T> {
    open: VecDeque<VecDeque<(usize, T)>>,
    claimed: BTreeMap<usize, VecDeque<(usize, T)>>,
}

impl<T> Queue<T> {
    /// Groups the items by affinity key, in order of first appearance; an
    /// item without a key is a group of its own.
    fn new(items: Vec<(Option<u64>, T)>) -> Self {
        let mut group_of = HashMap::new();
        let mut open: VecDeque<VecDeque<(usize, T)>> = VecDeque::new();
        for (idx, (key, item)) in items.into_iter().enumerate() {
            let group = key.map_or(open.len(), |k| *group_of.entry(k).or_insert(open.len()));
            if group == open.len() {
                open.push_back(VecDeque::new());
            }
            open[group].push_back((idx, item));
        }
        Queue {
            open,
            claimed: BTreeMap::new(),
        }
    }

    /// The next item for `worker`: the rest of its group first, then the
    /// first open group, then the back half (rounded up) of the largest
    /// group another worker holds, since one more warm-up costs less than
    /// an idle core.
    fn next(&mut self, worker: usize) -> Option<(usize, T)> {
        let mut mine = self.claimed.remove(&worker).unwrap_or_default();
        if mine.is_empty() {
            mine = self.open.pop_front().or_else(|| {
                let largest = self.claimed.values_mut().max_by_key(|g| g.len())?;
                Some(largest.split_off(largest.len() / 2))
            })?;
        }
        let item = mine.pop_front();
        self.claimed.insert(worker, mine);
        item
    }

    /// Reopens the rest of an abandoned worker's group, first in line, so
    /// a hung job does not strand its group-mates.
    fn release(&mut self, worker: usize) {
        if let Some(rest) = self.claimed.remove(&worker).filter(|r| !r.is_empty()) {
            self.open.push_front(rest);
        }
    }
}

/// Runs `f` over every item on `workers` threads and returns the results
/// in input order, plus the number of jobs each worker executed. Items
/// that share an affinity key (the pair's first half) run back to back
/// on one worker, in input order, while other groups wait, so they can
/// share per-thread state.
/// Every job runs under `catch_unwind`, so one panicking job yields
/// `Err(JobError::Panicked)` in its own slot instead of poisoning the
/// pool and discarding everyone else's results. With `timeout` set, a
/// watchdog marks jobs that run too long as `Err(JobError::TimedOut)`
/// and spawns a replacement worker so throughput is preserved; the hung
/// thread itself is abandoned (detached) and its eventual result, if
/// any, is discarded. The rest of the hung job's group moves on to the
/// next free worker.
///
/// The workers are detached threads (abandoning a hung job is impossible
/// with scoped threads, whose join blocks on it), hence the `'static`
/// bounds. `f` receives the id of the worker running it (0 on the
/// sequential path; a watchdog replacement worker gets a fresh id)
/// alongside the item.
pub fn run_ordered_resilient<T, R, F>(
    workers: usize,
    items: Vec<(Option<u64>, T)>,
    timeout: Option<Duration>,
    f: F,
) -> (Vec<Result<R, JobError>>, Vec<u64>)
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T) -> R + Send + Sync + 'static,
{
    let n = items.len();
    let queue = Queue::new(items);
    let workers = workers.max(1).min(n.max(1));
    let queue = Arc::new(Mutex::new(queue));
    // When each job started, and on which worker.
    let started = Arc::new(Mutex::new(vec![None::<(Instant, usize)>; n]));
    let stats: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(vec![0; workers]));
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, JobError>)>();

    // Worker `id`'s loop, to run on a thread of its own or on this one.
    let worker = |id: usize| {
        let queue = Arc::clone(&queue);
        let started = Arc::clone(&started);
        let stats = Arc::clone(&stats);
        let f = Arc::clone(&f);
        let tx = tx.clone();
        move || loop {
            let Some((idx, item)) = queue.lock().expect("queue lock").next(id) else {
                break;
            };
            started.lock().expect("started lock")[idx] = Some((Instant::now(), id));
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
        }
    };
    let spawn_worker = |id: usize| drop(std::thread::spawn(worker(id)));
    if workers == 1 && timeout.is_none() {
        // Sequential fast path: no thread to spawn or watch; the results
        // wait in the channel.
        worker(0)();
    } else {
        for w in 0..workers {
            spawn_worker(w);
        }
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
                            slots[i].is_none()
                                && started[i].is_some_and(|(at, _)| at.elapsed() > limit)
                        })
                        .collect()
                };
                for idx in overdue {
                    slots[idx] = Some(Err(JobError::TimedOut(limit)));
                    remaining -= 1;
                    // The thread stuck on this job is abandoned: the rest
                    // of its group goes back in line, and a replacement
                    // keeps parallelism from decaying.
                    let (_, worker) = started.lock().expect("started lock")[idx].expect("started");
                    queue.lock().expect("queue lock").release(worker);
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

    /// Items without an affinity key.
    fn free<T>(items: impl IntoIterator<Item = T>) -> Vec<(Option<u64>, T)> {
        items.into_iter().map(|t| (None, t)).collect()
    }

    #[test]
    fn results_come_back_in_input_order() {
        for workers in [1, 2, 4, 8] {
            let (out, stats) = run_ordered_resilient(workers, free(0..100u64), None, |_, x| x * 3);
            let out: Vec<u64> = out.into_iter().map(|r| r.expect("success")).collect();
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<u64>>());
            assert_eq!(stats.iter().sum::<u64>(), 100);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = Arc::new(AtomicU64::new(0));
        let calls = Arc::clone(&counter);
        run_ordered_resilient(4, free(0..257u32), None, move |_, _| {
            calls.fetch_add(1, Ordering::Relaxed)
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, stats) = run_ordered_resilient(8, free(Vec::<u8>::new()), None, |_, x| x);
        assert!(out.is_empty());
        assert_eq!(stats.iter().sum::<u64>(), 0);
    }

    #[test]
    fn more_workers_than_items_clamps() {
        let (out, stats) = run_ordered_resilient(16, free([1, 2, 3]), None, |_, x| x * 2);
        let out: Vec<i32> = out.into_iter().map(|r| r.expect("success")).collect();
        assert_eq!(out, vec![2, 4, 6]);
        assert!(stats.len() <= 3);
    }

    #[test]
    fn resilient_isolates_panics_to_their_own_slot() {
        for workers in [1, 4] {
            let (out, stats) = run_ordered_resilient(workers, free(0..20u64), None, move |w, x| {
                assert!(w < workers, "worker id {w} of {workers}");
                if x % 5 == 3 {
                    panic!("job {x} exploded");
                }
                x * 2
            });
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
        // Item x has affinity key x % 3, except item 6, which has none;
        // item 4 hangs in the middle of key 1's group (1, 4, 7).
        let items: Vec<(Option<u64>, u64)> =
            (0..10).map(|x| ((x != 6).then_some(x % 3), x)).collect();
        let ran = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&ran);
        let started = Instant::now();
        let (out, _) =
            run_ordered_resilient(2, items, Some(Duration::from_millis(100)), move |_, x| {
                log.lock().expect("log lock").push(x);
                if x == 4 {
                    // Far longer than the timeout: the watchdog must fire
                    // long before this job would complete on its own.
                    std::thread::sleep(Duration::from_secs(30));
                }
                x + 1
            });
        assert!(
            matches!(out[4], Err(JobError::TimedOut(_))),
            "got {:?}",
            out[4]
        );
        // The hung job fails alone: every other job, its group-mate 7
        // included, completes, and results stay in input order.
        for (i, r) in out.iter().enumerate() {
            if i != 4 {
                assert_eq!(r.as_ref().expect("success"), &((i as u64) + 1));
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "the pool must not wait out the hung job"
        );
        // Every other job ran once. Which worker ran which job depends
        // on timing here; the queue test below pins the placement.
        let mut ran: Vec<u64> = ran.lock().expect("log lock").clone();
        ran.retain(|&x| x != 4);
        ran.sort_unstable();
        assert_eq!(ran, [0, 1, 2, 3, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn queue_keeps_groups_whole_until_the_line_empties() {
        // Groups in line: A = [0, 2, 4, 6, 7], B = [1, 3], and [5].
        let keys = [0, 1, 0, 1, 0, 9, 0, 0];
        let items = (0..8).map(|x| ((x != 5).then_some(keys[x]), x)).collect();
        let mut queue = Queue::new(items);
        let mut next = |w: usize| queue.next(w).map(|(idx, _)| (w, idx));
        let order: Vec<_> = [0, 1, 1, 1, 1, 0, 0, 0, 1, 0]
            .into_iter()
            .map(&mut next)
            .collect();
        let ran = |w, idx| Some((w, idx));
        assert_eq!(
            order,
            [
                // Worker 0 claims A and worker 1 claims B; worker 1 then
                // takes the next open group.
                ran(0, 0),
                ran(1, 1),
                ran(1, 3),
                ran(1, 5),
                // With nothing open, idle workers split the largest group
                // left: the back half of A's remaining [2, 4, 6, 7], then
                // what worker 1 still holds of it.
                ran(1, 6),
                ran(0, 2),
                ran(0, 4),
                ran(0, 7),
                None,
                None,
            ]
        );

        // An abandoned worker's rest goes back first in line: worker 0
        // hangs on group [0, 1, 2]'s first job, and worker 1 takes the
        // rest of that group before the open group [4].
        let items = [0, 0, 0, 1, 9].into_iter().enumerate();
        let mut queue = Queue::new(items.map(|(x, k)| ((k != 9).then_some(k), x)).collect());
        let mut next = |w: usize| queue.next(w).map(|(idx, _)| idx);
        assert_eq!((next(0), next(1)), (Some(0), Some(3)));
        queue.release(0);
        let order: Vec<_> = (0..4).map(|_| queue.next(1).map(|(idx, _)| idx)).collect();
        assert_eq!(order, [Some(1), Some(2), Some(4), None]);
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
