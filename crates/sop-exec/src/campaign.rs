//! Campaigns: independent cacheable jobs run on the shared-queue pool.
//!
//! A [`Job`] pairs a serializable spec (a [`Json`] value — the job's
//! *identity*) with a pure closure that evaluates it. The [`Exec`] handle
//! runs a campaign's jobs in one pass: jobs that share a spec collapse
//! into one, the cache answers what it can, the rest run concurrently on
//! the pool, and results always come back **in job order**, so output
//! derived from them is byte-identical whatever the schedule did.
//!
//! Completed jobs are memoized in the content-addressed
//! [`ResultCache`](crate::cache::ResultCache) keyed by
//! [`spec_hash`](crate::hash::spec_hash). Failures are never stored, so
//! a killed or partly failed campaign, simply run again, replays its
//! completed jobs from the cache and computes only the missing ones.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sop_obs::{Json, Registry};

use crate::args::{Args, Spec};
use crate::cache::ResultCache;
use crate::hash::{hash_hex, spec_hash};
use crate::heartbeat::Heartbeat;
use crate::pool;

/// One unit of work: a serializable spec plus the pure function that
/// evaluates it. The closure must derive its answer from the spec alone —
/// that is what makes the content-addressed cache sound. Besides its
/// result it returns the work it did (simulated `cycles`, fleet `ticks`,
/// …) as a [`Registry`], whose counters its `job_finish` heartbeat
/// carries.
pub struct Job<'a> {
    /// Human-readable label (shows up in job summaries and heartbeats).
    pub name: String,
    /// The job's identity; hashed (order-insensitively) for caching.
    pub spec: Json,
    /// Jobs sharing this key run back to back, in job order, on one
    /// worker while other jobs wait, so they find its per-thread state (a
    /// warmed simulator). It never changes a result or their order.
    pub affinity: Option<u64>,
    run: Box<RunFn<'a>>,
}

/// A job's closure: the spec in, the result and the job's work out.
type RunFn<'a> = dyn Fn(&Json) -> (Json, Registry) + Send + Sync + 'a;

impl<'a> Job<'a> {
    /// A job that reports no work.
    pub fn new(
        name: impl Into<String>,
        spec: Json,
        run: impl Fn(&Json) -> Json + Send + Sync + 'a,
    ) -> Self {
        Job::with_work(name, spec, move |spec| (run(spec), Registry::new()))
    }

    /// A job whose closure also returns its work.
    pub fn with_work(
        name: impl Into<String>,
        spec: Json,
        run: impl Fn(&Json) -> (Json, Registry) + Send + Sync + 'a,
    ) -> Self {
        Job {
            name: name.into(),
            spec,
            affinity: None,
            run: Box::new(run),
        }
    }
}

impl std::fmt::Debug for Job<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

/// How a job's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSource {
    /// Evaluated by a worker this run.
    Computed,
    /// Served by the content-addressed cache, or by another job of the
    /// same campaign with the same spec.
    Cached,
    /// Produced no result: the job panicked or timed out. Its slot in
    /// `results` is `Json::Null` and the details live in
    /// [`CampaignRun::failures`].
    Failed,
}

/// Details of one failed job in a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the job in the campaign's job list.
    pub index: usize,
    /// The job's label.
    pub name: String,
    /// The job's content hash (hex).
    pub hash: String,
    /// Human-readable cause ("panicked: ..." or "timed out after ...").
    pub error: String,
}

impl JobFailure {
    /// Report-embeddable form (`failures` array entries).
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("name", self.name.as_str())
            .with("hash", self.hash.as_str())
            .with("error", self.error.as_str())
    }
}

/// Results and bookkeeping of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// One result per job, in job order. A failed job's slot holds
    /// `Json::Null`; everything that succeeded is real data (campaigns
    /// complete with partial results rather than discarding them).
    pub results: Vec<Json>,
    /// The jobs that produced no result, with their causes.
    pub failures: Vec<JobFailure>,
    /// Where each job's result came from, in job order.
    sources: Vec<JobSource>,
}

impl CampaignRun {
    /// Number of jobs whose result came from `source`.
    pub fn count(&self, source: JobSource) -> usize {
        self.sources.iter().filter(|&&s| s == source).count()
    }

    /// True when every job produced a result.
    pub fn is_fully_green(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Execution settings, usually parsed straight from a binary's argv.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads; 0 means one per available core.
    pub jobs: usize,
    /// The result cache's directory. `None` (the default, and
    /// `--no-cache`) reads and writes no file: every distinct spec of a
    /// campaign is computed. [`ExecConfig::from_args`] sets it from
    /// [`default_cache_dir`](crate::cache::default_cache_dir).
    pub cache_dir: Option<PathBuf>,
    /// Per-job watchdog timeout in seconds (`--timeout-secs N`); `None`
    /// lets jobs run unbounded.
    pub timeout_secs: Option<u64>,
    /// Append live progress events to `<cache-dir>/progress.ndjson`
    /// (see [`crate::heartbeat`]). On by default; a no-op without a
    /// disk cache directory. `--no-heartbeat` disables it.
    pub heartbeat: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            jobs: 0,
            cache_dir: None,
            timeout_secs: None,
            heartbeat: true,
        }
    }
}

impl ExecConfig {
    /// The engine settings from the flags [`Spec::engine`] declares, with
    /// the disk cache in [`default_cache_dir`](crate::cache::default_cache_dir),
    /// created here unless `--no-cache` is given. A value that does not
    /// parse, an empty `SOP_CACHE_DIR` or a cache directory that cannot
    /// be created exits 2 (see [`Args::fail`]) before any work.
    pub fn from_args(args: &Args) -> Self {
        // Every flag is read (and a bad value rejected) before the
        // directory is created.
        let (jobs, timeout_secs) = (args.read("--jobs"), args.read("--timeout-secs"));
        let dir = crate::cache::default_cache_dir().unwrap_or_else(|e| args.fail(&e));
        let cache_dir = (!args.has("--no-cache")).then_some(dir);
        if let Some(dir) = &cache_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                let shown = dir.display();
                args.fail(&format!("cannot create cache directory {shown}: {e}"));
            }
        }
        ExecConfig {
            jobs: jobs.unwrap_or(0),
            cache_dir,
            timeout_secs,
            heartbeat: !args.has("--no-heartbeat"),
        }
    }
}

impl Spec {
    /// Adds the engine flags [`ExecConfig::from_args`] reads: the one
    /// fragment every engine-driven command shares.
    pub fn engine(self) -> Spec {
        let values = [("--jobs", "N"), ("--timeout-secs", "N")];
        (self.values(values)).switches(["--no-cache", "--no-heartbeat"])
    }
}

/// The execution engine handle: a worker-count choice, an optional disk
/// cache, and the metrics the run accumulates. Cheap to create; share one
/// per run so cache statistics aggregate.
#[derive(Debug)]
pub struct Exec {
    workers: usize,
    cache: Option<ResultCache>,
    timeout: Option<Duration>,
    metrics: Mutex<Registry>,
    failures: Mutex<Vec<JobFailure>>,
    heartbeat: Option<Arc<Heartbeat>>,
}

impl Exec {
    /// One worker, no result cache. The default for tests and library
    /// callers that did not opt into parallelism.
    pub fn sequential() -> Self {
        Exec::with_workers(1)
    }

    /// `n` workers (0 = one per core), no result cache.
    pub fn with_workers(n: usize) -> Self {
        Exec::new(ExecConfig {
            jobs: n,
            ..ExecConfig::default()
        })
    }

    /// An engine configured from [`ExecConfig`].
    pub fn new(cfg: ExecConfig) -> Self {
        let mut metrics = Registry::new();
        let workers = if cfg.jobs == 0 {
            let (detected, fallback) = pool::detect_workers();
            if fallback {
                // Not silent: degraded parallelism is a real operational
                // condition (cgroup limits, exotic platforms) worth seeing.
                eprintln!(
                    "sop-exec: available_parallelism() failed; \
                     falling back to 1 worker (pass --jobs N to override)"
                );
                metrics.counter_add("exec.workers.fallback", 1);
            }
            detected
        } else {
            cfg.jobs
        };
        let cache = cfg.cache_dir.map(ResultCache::on_disk);
        metrics.gauge_set("exec.workers", workers as f64);
        // The heartbeat lives next to the cache; engines without one
        // (tests, library callers, `--no-cache`) have nowhere durable to
        // stream to.
        let heartbeat = match &cache {
            Some(cache) if cfg.heartbeat => Heartbeat::open(cache.dir()).ok().map(Arc::new),
            _ => None,
        };
        Exec {
            workers,
            cache,
            timeout: cfg.timeout_secs.map(Duration::from_secs),
            metrics: Mutex::new(metrics),
            failures: Mutex::new(Vec::new()),
            heartbeat,
        }
    }

    /// Every job failure recorded by campaigns run on this engine, in
    /// the order they were observed. Binaries embed these in their report
    /// and exit non-zero when the list is non-empty — after writing
    /// everything that succeeded.
    pub fn failures(&self) -> Vec<JobFailure> {
        self.failures.lock().expect("failures lock").clone()
    }

    /// The number of worker threads this engine uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a named campaign of independent jobs in one pass: hashes
    /// every job, collapses jobs that share a spec, satisfies what it can
    /// from the cache, evaluates the rest on the fault-isolating pool,
    /// fans each result out to its duplicates, and persists new results.
    ///
    /// Failure is per-job, not per-campaign: a panicking or hung job (and
    /// any job sharing its spec) gets a [`JobFailure`] entry while every
    /// other job completes normally. Failed jobs are never cached, so a
    /// rerun replays the successes from the cache and recomputes only the
    /// failed subset.
    pub fn run_campaign(&self, name: &str, jobs: Vec<Job<'static>>) -> CampaignRun {
        let n = jobs.len();
        // Shared (not borrowed) because the resilient pool's workers are
        // detached threads: a hung job may outlive this call, so it must
        // keep its Job alive on its own.
        let jobs = Arc::new(jobs);
        let hashes: Vec<u64> = jobs.iter().map(|j| spec_hash(&j.spec)).collect();
        if let Some(hb) = &self.heartbeat {
            hb.campaign_start(name, n as u64, self.workers as u64);
        }

        // Two jobs can share a spec (e.g. one simulation point feeding two
        // figures), so each distinct hash is looked up, and if need be
        // evaluated, by its first job and the result fanned out.
        let mut first_of: HashMap<u64, usize> = HashMap::new();
        let first: Vec<usize> = (0..n)
            .map(|i| *first_of.entry(hashes[i]).or_insert(i))
            .collect();

        let mut results = vec![Json::Null; n];
        let mut sources = vec![JobSource::Failed; n];
        let mut failures: Vec<JobFailure> = Vec::new();
        let fail = |failures: &mut Vec<JobFailure>, i: usize, error: String| {
            if let Some(hb) = &self.heartbeat {
                hb.job_fail(name, &jobs[i].name, &error);
            }
            failures.push(JobFailure {
                index: i,
                name: jobs[i].name.clone(),
                hash: hash_hex(hashes[i]),
                error,
            });
        };

        // Satisfy what the cache already knows.
        let mut to_compute = Vec::new();
        for i in (0..n).filter(|&i| first[i] == i) {
            match self.cache.as_ref().and_then(|c| c.get(hashes[i])) {
                Some(result) => {
                    results[i] = result;
                    sources[i] = JobSource::Cached;
                    if let Some(hb) = &self.heartbeat {
                        hb.cache_hit(name, &jobs[i].name);
                    }
                }
                None => to_compute.push(i),
            }
        }

        // Evaluate the rest concurrently under the pool's panic isolation
        // and per-job watchdog; results return in order.
        let (computed, stats) = {
            let jobs = Arc::clone(&jobs);
            let heartbeat = self.heartbeat.clone();
            let campaign = name.to_owned();
            let items = to_compute.iter().map(|&i| (jobs[i].affinity, i)).collect();
            pool::run_ordered_resilient(self.workers, items, self.timeout, move |worker, i| {
                let job = &jobs[i];
                if let Some(hb) = &heartbeat {
                    hb.job_start(&campaign, &job.name, worker as u64);
                }
                let started = Instant::now();
                let (result, work) = (job.run)(&job.spec);
                let us = started.elapsed().as_micros() as u64;
                if let Some(hb) = &heartbeat {
                    hb.job_finish(&campaign, &job.name, worker as u64, us, &work);
                }
                (result, us)
            })
        };
        {
            let mut m = self.metrics.lock().expect("metrics lock");
            for (w, executed) in stats.iter().enumerate() {
                m.counter_add(&format!("exec.worker.{w}.jobs"), *executed);
            }
        }
        for (&i, evaluated) in to_compute.iter().zip(computed) {
            match evaluated {
                Ok((result, us)) => {
                    if let Some(cache) = &self.cache {
                        cache.put(hashes[i], &jobs[i].spec, &result);
                    }
                    // exec.* keys are engine-owned, so a kind collision
                    // is unreachable; skip rather than abort the campaign
                    // if one ever appears.
                    let mut m = self.metrics.lock().expect("metrics lock");
                    let recorded = m.histogram_record("exec.job.us", us);
                    debug_assert!(recorded.is_ok(), "{recorded:?}");
                    results[i] = result;
                    sources[i] = JobSource::Computed;
                }
                Err(e) => fail(&mut failures, i, e.to_string()),
            }
        }

        // Fan each result out to the jobs that share its spec; the
        // duplicates of a failed job fail with its error.
        for (i, &u) in first.iter().enumerate().filter(|&(i, &u)| u != i) {
            if sources[u] == JobSource::Failed {
                let failed = failures.iter().find(|f| f.index == u);
                let error = failed.expect("a failed job has a failure").error.clone();
                fail(&mut failures, i, error);
            } else {
                results[i] = results[u].clone();
                sources[i] = JobSource::Cached;
                if let Some(hb) = &self.heartbeat {
                    hb.cache_hit(name, &jobs[i].name);
                }
            }
        }

        let run = CampaignRun {
            results,
            failures,
            sources,
        };
        {
            let mut m = self.metrics.lock().expect("metrics lock");
            m.counter_add("exec.jobs.completed", n as u64);
            m.counter_add("exec.jobs.computed", run.count(JobSource::Computed) as u64);
            m.counter_add("exec.jobs.cached", run.count(JobSource::Cached) as u64);
            m.counter_add("exec.jobs.failed", run.failures.len() as u64);
        }
        self.failures
            .lock()
            .expect("failures lock")
            .extend(run.failures.iter().cloned());
        if let Some(hb) = &self.heartbeat {
            hb.campaign_end(
                name,
                run.count(JobSource::Computed) as u64,
                run.count(JobSource::Cached) as u64,
                run.failures.len() as u64,
            );
        }
        run
    }

    /// A snapshot of the engine's metrics (`exec.workers`,
    /// `exec.worker.<i>.jobs`, `exec.cache.*` when it has a cache,
    /// `exec.jobs.*`, `exec.job.us`), with cache counters read at
    /// snapshot time.
    pub fn metrics_snapshot(&self) -> Registry {
        let mut m = self.metrics.lock().expect("metrics lock").clone();
        if let Some(cache) = &self.cache {
            m.counter_add("exec.cache.hits", cache.hits());
            m.counter_add("exec.cache.misses", cache.misses());
            m.counter_add("exec.cache.invalid", cache.invalid());
            m.counter_add("exec.cache.put_errors", cache.put_errors());
        }
        m
    }
}
