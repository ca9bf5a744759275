//! Campaigns: DAGs of cacheable jobs run on the shared-queue pool.
//!
//! A [`Job`] pairs a serializable spec (a [`Json`] value — the job's
//! *identity*) with a pure closure that evaluates it. The [`Exec`] handle
//! runs a campaign's jobs in dependency wavefronts: every job whose
//! dependencies are satisfied is eligible, eligible jobs run concurrently
//! on the pool, and results always come back **in job order**, so output
//! derived from them is byte-identical whatever the schedule did.
//!
//! Completed jobs are memoized in the content-addressed
//! [`ResultCache`](crate::cache::ResultCache) keyed by
//! [`spec_hash`](crate::hash::spec_hash). Failures are never stored, so
//! a killed or partly failed campaign, simply run again, replays its
//! completed jobs from the cache and computes only the missing ones.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Indices of jobs in the same campaign that must complete first.
    pub deps: Vec<usize>,
    /// Whether a failure is worth retrying (see [`Job::transient`]).
    pub retryable: bool,
    run: Box<RunFn<'a>>,
}

/// A job's closure: the spec in, the result and the job's work out.
type RunFn<'a> = dyn Fn(&Json) -> (Json, Registry) + Send + Sync + 'a;

impl<'a> Job<'a> {
    /// A dependency-free job that reports no work.
    pub fn new(
        name: impl Into<String>,
        spec: Json,
        run: impl Fn(&Json) -> Json + Send + Sync + 'a,
    ) -> Self {
        Job::with_work(name, spec, move |spec| (run(spec), Registry::new()))
    }

    /// A dependency-free job whose closure also returns its work.
    pub fn with_work(
        name: impl Into<String>,
        spec: Json,
        run: impl Fn(&Json) -> (Json, Registry) + Send + Sync + 'a,
    ) -> Self {
        Job {
            name: name.into(),
            spec,
            deps: Vec::new(),
            retryable: false,
            run: Box::new(run),
        }
    }

    /// Adds dependencies (by index into the campaign's job list).
    #[must_use]
    pub fn after(mut self, deps: &[usize]) -> Self {
        self.deps.extend_from_slice(deps);
        self
    }

    /// Flags the job's failures as transient: the campaign runner retries
    /// it (bounded, with exponential backoff) before declaring it failed.
    /// Only appropriate when the failure mode really is transient —
    /// flaky I/O, resource exhaustion — never for deterministic panics.
    #[must_use]
    pub fn transient(mut self) -> Self {
        self.retryable = true;
        self
    }
}

impl std::fmt::Debug for Job<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("spec", &self.spec)
            .field("deps", &self.deps)
            .finish_non_exhaustive()
    }
}

/// How a job's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSource {
    /// Evaluated by a worker this run.
    Computed,
    /// Served by the content-addressed cache, or by another job of the
    /// same wave with the same spec.
    Cached,
    /// Produced no result: the job panicked, timed out, or depended on a
    /// failed job. Its slot in `results` is `Json::Null` and the details
    /// live in [`CampaignRun::failures`].
    Failed,
}

impl JobSource {
    fn name(self) -> &'static str {
        match self {
            JobSource::Computed => "computed",
            JobSource::Cached => "cached",
            JobSource::Failed => "failed",
        }
    }
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
    /// Human-readable cause ("panicked: ...", "timed out after ...",
    /// "dependency failed: ...").
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

/// Per-job record of a campaign run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's label.
    pub name: String,
    /// The job's content hash (hex).
    pub hash: String,
    /// Wall-clock microseconds spent evaluating (0 for cache hits).
    pub duration_us: u64,
    /// Where the result came from.
    pub source: JobSource,
}

/// Results and bookkeeping of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// One result per job, in job order. A failed job's slot holds
    /// `Json::Null`; everything that succeeded is real data (campaigns
    /// complete with partial results rather than discarding them).
    pub results: Vec<Json>,
    /// One outcome per job, in job order.
    pub outcomes: Vec<JobOutcome>,
    /// The jobs that produced no result, with their causes.
    pub failures: Vec<JobFailure>,
}

impl CampaignRun {
    /// Number of jobs whose result came from `source`.
    pub fn count(&self, source: JobSource) -> usize {
        self.outcomes.iter().filter(|o| o.source == source).count()
    }

    /// True when every job produced a result.
    pub fn is_fully_green(&self) -> bool {
        self.failures.is_empty()
    }

    /// The campaign summary block reports embed:
    /// `{total, computed, cached, failed, jobs: [{name, hash, us,
    /// source}], failures: [{name, hash, error}]}`.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("total", self.outcomes.len())
            .with("computed", self.count(JobSource::Computed))
            .with("cached", self.count(JobSource::Cached))
            .with("failed", self.failures.len())
            .with(
                "jobs",
                Json::Arr(
                    self.outcomes
                        .iter()
                        .map(|o| {
                            Json::object()
                                .with("name", o.name.as_str())
                                .with("hash", o.hash.as_str())
                                .with("duration_us", o.duration_us)
                                .with("source", o.source.name())
                        })
                        .collect(),
                ),
            )
            .with(
                "failures",
                Json::Arr(self.failures.iter().map(JobFailure::to_json).collect()),
            )
    }
}

/// Execution settings, usually parsed straight from a binary's argv.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads; 0 means one per available core.
    pub jobs: usize,
    /// Persist results under this directory. `None` disables the disk
    /// layer (the in-memory layer still deduplicates within a process).
    pub cache_dir: Option<PathBuf>,
    /// Disable all caching (`--no-cache`): every job recomputes.
    pub no_cache: bool,
    /// Per-job watchdog timeout in seconds (`--timeout-secs N`); `None`
    /// lets jobs run unbounded.
    pub timeout_secs: Option<u64>,
    /// Retry budget for jobs flagged [`transient`](Job::transient)
    /// (`--retries N`).
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub backoff_ms: u64,
    /// Append live progress events to `<cache-dir>/progress.ndjson`
    /// (see [`crate::heartbeat`]). On by default; a no-op without a
    /// disk cache directory. `--no-heartbeat` disables it.
    pub heartbeat: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            jobs: 0,
            cache_dir: Some(crate::cache::default_cache_dir()),
            no_cache: false,
            timeout_secs: None,
            retries: 2,
            backoff_ms: 25,
            heartbeat: true,
        }
    }
}

impl ExecConfig {
    /// The engine settings from the flags [`Spec::engine`] declares; a
    /// value that does not parse exits 2 (see [`Args::read`]).
    pub fn from_args(args: &Args) -> Self {
        let defaults = ExecConfig::default();
        ExecConfig {
            jobs: args.read("--jobs").unwrap_or(0),
            no_cache: args.has("--no-cache"),
            timeout_secs: args.read("--timeout-secs"),
            retries: args.read("--retries").unwrap_or(defaults.retries),
            heartbeat: !args.has("--no-heartbeat"),
            ..defaults
        }
    }
}

impl Spec {
    /// Adds the engine flags [`ExecConfig::from_args`] reads: the one
    /// fragment every engine-driven command shares.
    pub fn engine(self) -> Spec {
        let values = [("--jobs", "N"), ("--timeout-secs", "N"), ("--retries", "N")];
        (self.values(values)).switches(["--no-cache", "--no-heartbeat"])
    }
}

/// The execution engine handle: a worker-count choice, a result cache,
/// and the metrics the run accumulates. Cheap to create; share one per
/// run so cache statistics aggregate.
#[derive(Debug)]
pub struct Exec {
    workers: usize,
    cache: Option<ResultCache>,
    timeout: Option<Duration>,
    retries: u32,
    backoff_ms: u64,
    metrics: Mutex<Registry>,
    failures: Mutex<Vec<JobFailure>>,
    heartbeat: Option<Arc<Heartbeat>>,
}

impl Exec {
    /// One worker, in-memory memoization only. The default for tests and
    /// library callers that did not opt into parallelism.
    pub fn sequential() -> Self {
        Exec::new(ExecConfig {
            jobs: 1,
            cache_dir: None,
            ..ExecConfig::default()
        })
    }

    /// `n` workers (0 = one per core), in-memory memoization only.
    pub fn with_workers(n: usize) -> Self {
        Exec::new(ExecConfig {
            jobs: n,
            cache_dir: None,
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
        let cache = if cfg.no_cache {
            None
        } else {
            Some(match cfg.cache_dir {
                Some(dir) => ResultCache::on_disk(dir),
                None => ResultCache::in_memory(),
            })
        };
        metrics.gauge_set("exec.workers", workers as f64);
        // The heartbeat lives next to the disk cache; in-memory engines
        // (tests, library callers) have nowhere durable to stream to.
        let heartbeat = if cfg.heartbeat {
            cache
                .as_ref()
                .and_then(ResultCache::dir)
                .and_then(|dir| Heartbeat::open(dir).ok())
                .map(Arc::new)
        } else {
            None
        };
        Exec {
            workers,
            cache,
            timeout: cfg.timeout_secs.map(Duration::from_secs),
            retries: cfg.retries,
            backoff_ms: cfg.backoff_ms,
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

    /// The result cache, if caching is enabled.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// The live progress stream, if one is attached (disk cache present
    /// and the heartbeat not disabled).
    pub fn heartbeat(&self) -> Option<&Heartbeat> {
        self.heartbeat.as_deref()
    }

    /// Runs a named campaign: hashes every job, satisfies what it can
    /// from the cache, evaluates the rest in dependency wavefronts on the
    /// fault-isolating pool, and persists new results as it goes.
    ///
    /// Failure is per-job, not per-campaign: a panicking or hung job gets
    /// a [`JobFailure`] entry (and fails its dependents with a
    /// dependency-failed cause) while every other job completes normally.
    /// Failed jobs are never cached, so a rerun replays the successes
    /// from the cache and recomputes only the failed subset. Jobs flagged
    /// [`transient`](Job::transient) are retried with exponential backoff
    /// before being declared failed.
    ///
    /// # Panics
    ///
    /// Panics if a dependency index is out of range or the dependency
    /// graph has a cycle — both are campaign-construction bugs.
    pub fn run_campaign(&self, name: &str, jobs: Vec<Job<'static>>) -> CampaignRun {
        let n = jobs.len();
        for (i, job) in jobs.iter().enumerate() {
            for &d in &job.deps {
                assert!(d < n, "job {i} ({}) depends on missing job {d}", job.name);
            }
        }
        // Shared (not borrowed) because the resilient pool's workers are
        // detached threads: a hung job may outlive this call, so it must
        // keep its Job alive on its own.
        let jobs = Arc::new(jobs);
        let hashes: Vec<u64> = jobs.iter().map(|j| spec_hash(&j.spec)).collect();
        if let Some(hb) = &self.heartbeat {
            hb.campaign_start(name, n as u64, self.workers as u64);
        }

        let mut results: Vec<Option<Json>> = (0..n).map(|_| None).collect();
        let mut outcomes: Vec<Option<JobOutcome>> = (0..n).map(|_| None).collect();
        let mut failures: Vec<JobFailure> = Vec::new();
        let mut remaining: Vec<usize> = (0..n).collect();
        while !remaining.is_empty() {
            let (ready, blocked): (Vec<usize>, Vec<usize>) = remaining
                .into_iter()
                .partition(|&i| jobs[i].deps.iter().all(|&d| outcomes[d].is_some()));
            assert!(!ready.is_empty(), "dependency cycle among jobs {blocked:?}");
            remaining = blocked;

            // Fail dependents of failed jobs without running them, and
            // collapse the rest by spec: two jobs in the same wave can
            // share one (e.g. one simulation point feeding two figures),
            // so each distinct hash is looked up, and if need be
            // evaluated, once and its result fanned out. `--no-cache`
            // disables this memoization along with the rest.
            let mut unique: Vec<usize> = Vec::new();
            let mut dup_of: Vec<(usize, usize)> = Vec::new();
            let mut seen: HashMap<u64, usize> = HashMap::new();
            for &i in &ready {
                let failed_dep = jobs[i].deps.iter().copied().find(|&d| {
                    outcomes[d]
                        .as_ref()
                        .is_some_and(|o| o.source == JobSource::Failed)
                });
                if let Some(d) = failed_dep {
                    let error = pool::JobError::DepFailed(jobs[d].name.clone()).to_string();
                    mark_failed(
                        i,
                        error,
                        &jobs,
                        &hashes,
                        &mut outcomes,
                        &mut failures,
                        self.heartbeat.as_deref(),
                        name,
                    );
                    continue;
                }
                match seen.get(&hashes[i]) {
                    Some(&pos) if self.cache.is_some() => dup_of.push((i, pos)),
                    _ => {
                        seen.insert(hashes[i], unique.len());
                        unique.push(i);
                    }
                }
            }

            // Satisfy what the cache already knows.
            let mut to_compute = Vec::new();
            for &i in &unique {
                let cached = self.cache.as_ref().and_then(|c| c.get(hashes[i]));
                match cached {
                    Some(result) => {
                        outcomes[i] = Some(JobOutcome {
                            name: jobs[i].name.clone(),
                            hash: hash_hex(hashes[i]),
                            duration_us: 0,
                            source: JobSource::Cached,
                        });
                        results[i] = Some(result);
                        if let Some(hb) = &self.heartbeat {
                            hb.cache_hit(name, &jobs[i].name);
                        }
                    }
                    None => to_compute.push(i),
                }
            }

            // Evaluate the rest concurrently with panic isolation, the
            // per-job watchdog, and bounded exponential-backoff retry for
            // transient jobs; results return in order.
            type Evaluated = Result<(Json, u64, u32), (String, u32)>;
            let computed: Vec<Result<Evaluated, pool::JobError>> = {
                let jobs = Arc::clone(&jobs);
                let retries = self.retries;
                let backoff_ms = self.backoff_ms;
                let heartbeat = self.heartbeat.clone();
                let campaign = name.to_owned();
                let (done, stats) = pool::run_ordered_resilient(
                    self.workers,
                    to_compute.clone(),
                    self.timeout,
                    move |worker, i| {
                        let job = &jobs[i];
                        let budget = if job.retryable { retries } else { 0 };
                        if let Some(hb) = &heartbeat {
                            hb.job_start(&campaign, &job.name, worker as u64);
                        }
                        let started = Instant::now();
                        let mut attempt = 0u32;
                        loop {
                            match catch_unwind(AssertUnwindSafe(|| (job.run)(&job.spec))) {
                                Ok((result, work)) => {
                                    let us = started.elapsed().as_micros() as u64;
                                    if let Some(hb) = &heartbeat {
                                        hb.job_finish(
                                            &campaign,
                                            &job.name,
                                            worker as u64,
                                            us,
                                            &work,
                                        );
                                    }
                                    return Ok((result, us, attempt));
                                }
                                Err(payload) => {
                                    if attempt >= budget {
                                        return Err((pool::panic_message(payload), attempt));
                                    }
                                    if let Some(hb) = &heartbeat {
                                        hb.job_retry(&campaign, &job.name, u64::from(attempt) + 1);
                                    }
                                    std::thread::sleep(Duration::from_millis(
                                        backoff_ms << attempt,
                                    ));
                                    attempt += 1;
                                }
                            }
                        }
                    },
                );
                let mut m = self.metrics.lock().expect("metrics lock");
                for (w, executed) in stats.iter().enumerate() {
                    m.counter_add(&format!("exec.worker.{w}.jobs"), *executed);
                }
                done
            };
            for (&i, evaluated) in to_compute.iter().zip(computed) {
                let (error, retried) = match evaluated {
                    Ok(Ok((result, us, retried))) => {
                        if let Some(cache) = &self.cache {
                            cache.put(hashes[i], &jobs[i].spec, &result);
                        }
                        {
                            let mut m = self.metrics.lock().expect("metrics lock");
                            // exec.* keys are engine-owned, so a kind
                            // collision is unreachable; skip rather than
                            // abort the campaign if one ever appears.
                            let recorded = m.histogram_record("exec.job.us", us);
                            debug_assert!(recorded.is_ok(), "{recorded:?}");
                            m.counter_add("exec.job.retries", u64::from(retried));
                        }
                        outcomes[i] = Some(JobOutcome {
                            name: jobs[i].name.clone(),
                            hash: hash_hex(hashes[i]),
                            duration_us: us,
                            source: JobSource::Computed,
                        });
                        results[i] = Some(result);
                        continue;
                    }
                    Ok(Err((panic_msg, retried))) => {
                        (pool::JobError::Panicked(panic_msg).to_string(), retried)
                    }
                    // Pool-level failure: the watchdog timed the job out.
                    Err(e) => (e.to_string(), 0),
                };
                {
                    let mut m = self.metrics.lock().expect("metrics lock");
                    m.counter_add("exec.job.retries", u64::from(retried));
                }
                mark_failed(
                    i,
                    error,
                    &jobs,
                    &hashes,
                    &mut outcomes,
                    &mut failures,
                    self.heartbeat.as_deref(),
                    name,
                );
            }
            for (i, pos) in dup_of {
                let u = unique[pos];
                match &results[u] {
                    Some(result) => {
                        results[i] = Some(result.clone());
                        outcomes[i] = Some(JobOutcome {
                            name: jobs[i].name.clone(),
                            hash: hash_hex(hashes[i]),
                            duration_us: 0,
                            source: JobSource::Cached,
                        });
                        if let Some(hb) = &self.heartbeat {
                            hb.cache_hit(name, &jobs[i].name);
                        }
                    }
                    // The job that evaluated this spec failed; its
                    // duplicates fail with it.
                    None => {
                        let error = failures
                            .iter()
                            .find(|f| f.index == u)
                            .map(|f| f.error.clone())
                            .unwrap_or_else(|| "duplicate of a failed job".to_owned());
                        mark_failed(
                            i,
                            error,
                            &jobs,
                            &hashes,
                            &mut outcomes,
                            &mut failures,
                            self.heartbeat.as_deref(),
                            name,
                        );
                    }
                }
            }
        }

        let run = CampaignRun {
            results: results
                .into_iter()
                .map(|r| r.unwrap_or(Json::Null))
                .collect(),
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("all jobs resolved"))
                .collect(),
            failures,
        };
        {
            let mut m = self.metrics.lock().expect("metrics lock");
            m.counter_add("exec.jobs.completed", run.outcomes.len() as u64);
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
    /// `exec.worker.<i>.jobs`, `exec.cache.*`, `exec.jobs.*`,
    /// `exec.job.us`), with cache counters read at snapshot time.
    pub fn metrics_snapshot(&self) -> Registry {
        let mut m = self.metrics.lock().expect("metrics lock").clone();
        if let Some(cache) = &self.cache {
            m.counter_add("exec.cache.hits", cache.hits());
            m.counter_add("exec.cache.misses", cache.misses());
            m.counter_add("exec.cache.invalid", cache.invalid());
        }
        m
    }
}

/// Records one job's failure everywhere it must be visible: the outcome
/// slot (so dependents see it), the failures list (so reports carry it)
/// and the heartbeat.
#[allow(clippy::too_many_arguments)]
fn mark_failed(
    i: usize,
    error: String,
    jobs: &[Job<'static>],
    hashes: &[u64],
    outcomes: &mut [Option<JobOutcome>],
    failures: &mut Vec<JobFailure>,
    heartbeat: Option<&Heartbeat>,
    campaign: &str,
) {
    outcomes[i] = Some(JobOutcome {
        name: jobs[i].name.clone(),
        hash: hash_hex(hashes[i]),
        duration_us: 0,
        source: JobSource::Failed,
    });
    if let Some(hb) = heartbeat {
        hb.job_fail(campaign, &jobs[i].name, &error);
    }
    failures.push(JobFailure {
        index: i,
        name: jobs[i].name.clone(),
        hash: hash_hex(hashes[i]),
        error,
    });
}
