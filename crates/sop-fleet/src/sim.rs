//! The fleet simulator: integer fluid queues behind an exact-split
//! load balancer, driven by a deterministic event schedule.
//!
//! # Event model
//!
//! Time advances in ticks of one simulated second. One tick loop
//! ([`crate::resilience`]) runs every fleet, plain or resilient. Each
//! tick it:
//!
//! 1. applies the fault and repair events due — chip faults from the
//!    seeded [`FleetFaultPlan`](crate::FleetFaultPlan) derate a server
//!    through the `sop-tco` degradation curve and apply the operator
//!    [`Policy`], domain faults derate or kill whole server ranges;
//!    repairs apply before strikes, then by server index;
//! 2. probes server health, when the balancer relies on probes;
//! 3. dispatches the tick's arrivals — fresh demand from the seeded
//!    [`TrafficModel`](crate::TrafficModel), then due client retries —
//!    across the routable servers by balancer weight with exact integer
//!    largest-prefix arithmetic (allocations always sum to the batch);
//! 4. serves: each server is an integer fluid queue that admits
//!    arrivals up to a deadline-derived backlog bound (the excess is
//!    rejected), records each admitted request's latency (service time
//!    plus FIFO queueing delay at the current capacity) into the window
//!    histogram, then serves up to its capacity.
//!
//! [`simulate`] runs that loop in its *plain* configuration: flat
//! topology (no domain faults), retry `none` (open-loop demand, no
//! client gives up or retries, so queued work is a bare backlog count),
//! shedder off, no storm, and an oracle balancer that weights servers
//! by effective capacity and knows their health exactly, so it runs no
//! probes. The balancer is chosen at compile time and every other
//! feature is disarmed by the parameters, so none of them costs the
//! plain fleet anything. Accounting is exact by construction: per
//! window, `offered = dropped + served + (inflight_end -
//! inflight_start)`.
//!
//! # Policy hooks
//!
//! [`Policy::Derate`] keeps a struck server in rotation at derated
//! capacity — latency rises fleet-wide but capacity is not abandoned.
//! [`Policy::Drain`] removes it from rotation (arrival weight zero)
//! while it drains its backlog at the derated rate, shifting load onto
//! the healthy fleet until repair. These mirror the degrade-vs-drain
//! repair postures of `sop_tco::derated_performance`.

use std::iter;

use sop_obs::{Histogram, SeriesSet, TimeSeries};
use sop_tco::DegradationCurve;

use crate::resilience::{max_pos_within, run, ResilienceParams, StormStats, Totals};

/// What a damaged server does until repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Leave rotation and drain the backlog at derated capacity.
    Drain,
    /// Stay in rotation at derated capacity.
    Derate,
}

impl Policy {
    /// Both policies, in report row order.
    pub const ALL: [Policy; 2] = [Policy::Drain, Policy::Derate];

    /// Stable lowercase label used in specs, reports, and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Drain => "drain",
            Policy::Derate => "derate",
        }
    }

    /// Parses a label produced by [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<Policy> {
        Policy::ALL.into_iter().find(|p| p.label() == s)
    }
}

/// Everything that determines a fleet run. Two equal `SimParams` yield
/// bit-identical [`FleetOutcome`]s on any host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Fleet size.
    pub servers: u32,
    /// Healthy per-server capacity in requests per tick (= QPS).
    pub per_server_qps: u64,
    /// Damaged-server posture.
    pub policy: Policy,
    /// Run seed; all RNG streams derive from it.
    pub seed: u64,
    /// Run length in ticks (1 tick = 1 simulated second); also the
    /// diurnal period, so every run sweeps one full day-shape.
    pub duration_ticks: u64,
    /// Statistics window length in ticks.
    pub window_ticks: u64,
    /// Diurnal-crest offered load as a fraction of nominal capacity.
    pub peak_util: f64,
    /// Per-server mean ticks between faults.
    pub mtbf_ticks: u64,
    /// Mean ticks to repair a fault.
    pub mttr_ticks: u64,
    /// Admission deadline: requests that would wait longer are dropped.
    pub deadline_ms: u64,
    /// Base service latency of an unqueued request.
    pub service_ms: u64,
}

impl SimParams {
    /// A full simulated day at ten-minute windows.
    pub fn standard(servers: u32, per_server_qps: u64, policy: Policy, seed: u64) -> SimParams {
        SimParams {
            servers,
            per_server_qps,
            policy,
            seed,
            duration_ticks: 86_400,
            window_ticks: 600,
            peak_util: 0.9,
            mtbf_ticks: 14_400,
            mttr_ticks: 900,
            deadline_ms: 4_000,
            service_ms: 20,
        }
    }

    /// A compressed two-hour day for CI and smoke runs: same shape,
    /// five-minute windows, proportionally faster failure process.
    pub fn quick(servers: u32, per_server_qps: u64, policy: Policy, seed: u64) -> SimParams {
        SimParams {
            duration_ticks: 7_200,
            window_ticks: 300,
            mtbf_ticks: 3_600,
            mttr_ticks: 600,
            ..SimParams::standard(servers, per_server_qps, policy, seed)
        }
    }

    /// Nominal (fault-free) fleet capacity in requests per tick.
    pub fn nominal_capacity(&self) -> u64 {
        u64::from(self.servers) * self.per_server_qps
    }
}

/// How a fault severity translates to remaining serving capacity: the
/// default degradation curve for a pod-organized chip. Losing a pod's
/// worth of resources (~1/16..1/8) costs roughly its share of
/// throughput; past half the chip, performance collapses faster than
/// linearly (interconnect and channel sharing break down).
pub fn severity_curve() -> DegradationCurve {
    DegradationCurve::new(vec![
        (0.0, 1.0),
        (0.0625, 0.93),
        (0.125, 0.86),
        (0.25, 0.70),
        (0.5, 0.40),
    ])
}

/// Per-window accounting: the growth of the run's request ledger
/// ([`Totals`]) over the window, plus the window's backlog and
/// latencies. The tiling invariant holds exactly: `issued == accepted +
/// dropped`, and in the plain configuration, where every issued request
/// is offered and nothing fails in flight, `offered == dropped + served
/// + (inflight_end - inflight_start)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// First tick of the window.
    pub start_tick: u64,
    /// Window length in ticks (the last window may be short).
    pub ticks: u64,
    /// Fresh demand the traffic process offered.
    pub offered: u64,
    /// Requests dispatched (fresh + retries + hedges).
    pub issued: u64,
    /// Requests admitted to some server queue.
    pub accepted: u64,
    /// Requests rejected at dispatch: shed, overflowing the admission
    /// bound, black-holed, unreachable, or dropped hedge copies.
    pub dropped: u64,
    /// Requests completed (useful + waste).
    pub served: u64,
    /// Useful requests completed.
    pub goodput: u64,
    /// Requests the shedder rejected.
    pub shed: u64,
    /// Fleet-wide backlog when the window opened.
    pub inflight_start: u64,
    /// Fleet-wide backlog when the window closed.
    pub inflight_end: u64,
    /// Latencies (ms) of useful requests admitted in this window.
    pub hist: Histogram,
}

impl WindowStats {
    /// Offered load as a fraction of nominal capacity over the window.
    pub fn utilization(&self, nominal_capacity: u64) -> f64 {
        if nominal_capacity == 0 || self.ticks == 0 {
            return 0.0;
        }
        self.offered as f64 / (nominal_capacity as f64 * self.ticks as f64)
    }
}

/// Everything a fleet run produces, plain or resilient.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The parameters that produced this outcome; a plain run carries
    /// [`ResilienceParams::plain`] of its [`SimParams`].
    pub params: ResilienceParams,
    /// Whether the run was the plain configuration ([`simulate`]).
    pub plain: bool,
    /// Per-window accounting, in time order.
    pub windows: Vec<WindowStats>,
    /// Run-total flow counters.
    pub totals: Totals,
    /// Useful-admission latencies (ms) across the run.
    pub latency: Histogram,
    /// Chip-level faults that struck during the run.
    pub faults_struck: u64,
    /// Chip-level repairs that completed during the run.
    pub faults_repaired: u64,
    /// Domain faults struck / repaired.
    pub domain_faults: (u64, u64),
    /// Storm-interval stats (storm mode only).
    pub storm: Option<StormStats>,
    /// Whether the fleet fully recovered after the first domain fault
    /// (no active outage, empty retry ring, no waste left queued).
    pub recovered: bool,
    /// Ticks from first domain strike to recovery; censored at the
    /// remaining run length if recovery never happened, 0 if no domain
    /// fault ever struck.
    pub ttr_ticks: u64,
}

impl FleetOutcome {
    /// Run-total fresh demand.
    pub fn offered(&self) -> u64 {
        self.totals.offered
    }

    /// Run-total served requests.
    pub fn served(&self) -> u64 {
        self.totals.served
    }

    /// Run-total requests rejected at dispatch.
    pub fn dropped(&self) -> u64 {
        self.totals.issued - self.totals.admitted
    }

    /// Fraction of fresh demand that was eventually served usefully.
    pub fn availability(&self) -> f64 {
        if self.totals.offered == 0 {
            return 1.0;
        }
        self.totals.goodput as f64 / self.totals.offered as f64
    }

    /// Issued-to-offered ratio: 1.0 means no client amplification.
    pub fn retry_amplification(&self) -> f64 {
        if self.totals.offered == 0 {
            return 1.0;
        }
        self.totals.issued as f64 / self.totals.offered as f64
    }

    /// Fraction of issued requests the shedder rejected.
    pub fn shed_fraction(&self) -> f64 {
        if self.totals.issued == 0 {
            return 0.0;
        }
        self.totals.shed as f64 / self.totals.issued as f64
    }

    /// Useful requests served per tick: the denominator of cost per
    /// sustained (plain) or delivered (resilience) QPS.
    pub fn goodput_qps(&self) -> f64 {
        if self.params.base.duration_ticks == 0 {
            return 0.0;
        }
        self.totals.goodput as f64 / self.params.base.duration_ticks as f64
    }

    /// The run's per-window time series, built post-hoc from the
    /// window accounting the simulator already collects — the tick
    /// loop pays nothing when no one asks (disarmed discipline). A
    /// plain run exports `offered`, `accepted`, `dropped` and `served`;
    /// a resilience run exports `offered`, `issued`, `goodput` and
    /// `shed`, from which availability and retry amplification are
    /// derived at render time so merging stays associative. Counters
    /// are exact integers; `latency_ms` is a digest series.
    pub fn series(&self) -> SeriesSet {
        type Column = (&'static str, fn(&WindowStats) -> u64);
        let columns: [Column; 4] = if self.plain {
            [
                ("offered", |w| w.offered),
                ("accepted", |w| w.accepted),
                ("dropped", |w| w.dropped),
                ("served", |w| w.served),
            ]
        } else {
            [
                ("offered", |w| w.offered),
                ("issued", |w| w.issued),
                ("goodput", |w| w.goodput),
                ("shed", |w| w.shed),
            ]
        };
        let interval = self.params.base.window_ticks.max(1);
        let mut set = SeriesSet::new();
        for (name, column) in columns {
            let mut series = TimeSeries::counter(interval);
            for w in &self.windows {
                series.record_count(w.start_tick, column(w));
            }
            set.insert(name, series);
        }
        let mut latency = TimeSeries::digest(interval);
        for w in &self.windows {
            latency.record_digest(w.start_tick, &w.hist);
        }
        set.insert("latency_ms", latency);
        set
    }

    /// The scripted storm as an [`sop_obs::slo`] cause, when this run
    /// was a storm scenario.
    pub fn scripted_cause(&self) -> Option<sop_obs::ScriptedCause> {
        self.storm.map(|s| sop_obs::ScriptedCause {
            label: "storm".to_owned(),
            start_tick: s.start_tick,
            repair_tick: s.end_tick,
        })
    }
}

/// Where runs of FIFO latencies change histogram bucket on one server:
/// a table over the buckets that its admitted requests can reach,
/// valid for one per-tick capacity.
///
/// Queue position `m` waits `m * 1000 / cap` ms, so a request there
/// has latency `lat(m) = service_ms + m * 1000 / cap`. That is
/// non-decreasing in `m`, so the positions whose latencies share a
/// bucket form one run. For each bucket the table holds the run's last
/// position, its latency, the next position's latency, the number of
/// positions in the run, and a prefix sum of the runs' recorded totals.
/// The entries depend only on the capacity and the service time, and a
/// server's capacity changes only at fault and repair events, so the
/// tick loop rebuilds a server's table there ([`rebuild`](Self::rebuild))
/// and [`record_latencies`] reads it on every admitting tick.
///
/// Every admitted position is below `cap * limit_ms / 1000`, where
/// `limit_ms` is the largest admission bound, so every recorded
/// latency is at most `service_ms + limit_ms - 1`. The table covers
/// the buckets from `service_ms`'s up to, not including, that
/// latency's: a run can end early only in those. Building no further
/// keeps `(headroom + 1) * cap` within the values a divide-per-run
/// loop over the same requests would compute, and the prefix within a
/// `u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LatencyRuns {
    /// Per-tick capacity the entries hold for.
    cap: u64,
    /// Base service latency of an unqueued request.
    service_ms: u64,
    /// The largest admission bound.
    limit_ms: u64,
    /// Bucket index of `service_ms`, the first the table covers.
    first: usize,
    /// One entry per covered bucket, from `first` up.
    ends: Vec<RunEnd>,
}

/// One bucket's run of positions: where it ends, the latencies either
/// side of the bucket boundary, its length and the running total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RunEnd {
    /// Last queue position whose latency fits the bucket.
    pos: u64,
    /// That position's latency.
    lat: u64,
    /// The next position's latency: the next run's first.
    next_lat: u64,
    /// Positions whose latency lands in the bucket: 0 for a bucket that
    /// consecutive positions skip.
    count: u64,
    /// Recorded total of the runs from position 0 through this one,
    /// each `first * (count - 1) + last`: the sum the divide-per-run
    /// loop attributed to them.
    prefix: u64,
}

impl LatencyRuns {
    /// The table for capacity `cap`, service time `service_ms` and the
    /// largest admission bound `limit_ms`.
    pub(crate) fn new(cap: u64, service_ms: u64, limit_ms: u64) -> LatencyRuns {
        let first = Histogram::bucket_index(service_ms);
        let top = Histogram::bucket_index(service_ms + limit_ms.saturating_sub(1));
        let mut runs = LatencyRuns {
            cap: 0,
            service_ms,
            limit_ms,
            first,
            ends: vec![RunEnd::default(); top - first],
        };
        runs.rebuild(cap);
        runs
    }

    /// The capacity the table is built for.
    pub(crate) fn cap(&self) -> u64 {
        self.cap
    }

    /// Rebuilds the table in place for capacity `cap`.
    pub(crate) fn rebuild(&mut self, cap: u64) {
        debug_assert!(cap > 0);
        self.cap = cap;
        let service_ms = self.service_ms;
        let lat = |pos: u64| service_ms + pos * 1000 / cap;
        // Where the next run starts, at what latency, and the total so far.
        let (mut start, mut start_lat, mut prefix) = (0, service_ms, 0u64);
        for (i, end) in self.ends.iter_mut().enumerate() {
            let upper = Histogram::index_upper(self.first + i);
            let pos = max_pos_within(upper - service_ms, cap);
            let (count, last_lat) = (pos + 1 - start, lat(pos));
            if count > 0 {
                prefix = start_lat
                    .checked_mul(count - 1)
                    .and_then(|t| t.checked_add(last_lat))
                    .and_then(|t| t.checked_add(prefix))
                    .expect("latency total of the admissible positions overflows u64");
            }
            *end = RunEnd {
                pos,
                lat: last_lat,
                next_lat: lat(pos + 1),
                count,
                prefix,
            };
            (start, start_lat) = (pos + 1, end.next_lat);
        }
    }
}

/// The recorded total of a run of `n >= 1` latencies from `first` to
/// `last`: `n - 1` copies of the first, then the last, exactly.
#[inline(always)]
fn run_total(first: u64, n: u64, last: u64) -> u128 {
    u128::from(first) * u128::from(n - 1) + u128::from(last)
}

/// Records the latencies of `accepted` FIFO requests admitted behind a
/// backlog of `backlog` on a server whose latency-run table is `runs`:
/// request `j` waits `(backlog + j) * 1000 / cap` ms behind the queue,
/// plus the base service time. Latencies are non-decreasing in `j`, so
/// the requests sharing a power-of-two bucket form one run, recorded
/// as copies of its first latency and one of its last.
///
/// Only the first and last requests' latencies are divided out. The
/// head run ends where the table says its bucket does, and the tail run
/// starts after the entry before its bucket. The full runs between are
/// the table's: their counts go to their buckets as independent adds,
/// and their total is one difference of the table's prefix. The whole
/// admission then updates count, sum and maximum once
/// ([`Histogram::record_batch`]), so a call does the same dependent
/// work however many buckets it crosses. Bucket counts, quantile
/// estimates, and the recorded maximum are exactly those of recording
/// each latency individually; only the internal sum (hence `mean`) is a
/// lower-bound approximation, since a run is attributed to its first
/// latency (its last is counted individually to keep `max` exact).
///
/// Always inlined: the tick loop calls it once per admitting server per
/// tick, and left to the compiler it stayed out of line and cost the
/// plain fleet 3-5% of its wall in a same-host comparison.
#[inline(always)]
pub(crate) fn record_latencies(
    hist: &mut Histogram,
    runs: &LatencyRuns,
    backlog: u64,
    accepted: u64,
) {
    if accepted == 0 {
        return;
    }
    let (cap, service_ms) = (runs.cap, runs.service_ms);
    let last = backlog + accepted - 1;
    debug_assert!(
        last < cap * runs.limit_ms / 1000,
        "position {last} is past the admission bound"
    );
    let lat = service_ms + backlog * 1000 / cap;
    let last_lat = service_ms + last * 1000 / cap;
    let head = Histogram::bucket_index(lat);
    let tail = Histogram::bucket_index(last_lat);
    if head == tail {
        let total = run_total(lat, accepted, last_lat);
        hist.record_batch(head, [accepted], total, last_lat);
        return;
    }
    // Table entries of the head's bucket and of the one before the tail's.
    let (h, t) = (head - runs.first, tail - 1 - runs.first);
    let (head_end, tail_start) = (runs.ends[h], runs.ends[t]);
    let head_n = head_end.pos - backlog + 1;
    let tail_n = last - tail_start.pos;
    let total = run_total(lat, head_n, head_end.lat)
        + u128::from(tail_start.prefix - head_end.prefix)
        + run_total(tail_start.next_lat, tail_n, last_lat);
    let middle = runs.ends[h + 1..=t].iter().map(|end| end.count);
    let counts = iter::once(head_n).chain(middle).chain(iter::once(tail_n));
    hist.record_batch(head, counts, total, last_lat);
}

/// Runs one fleet simulation to completion in the plain
/// configuration (see the module docs). Pure and deterministic: equal
/// `params` give bit-identical outcomes.
pub fn simulate(params: &SimParams) -> FleetOutcome {
    run::<true>(&ResilienceParams::plain(*params))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: Policy, seed: u64) -> SimParams {
        SimParams {
            duration_ticks: 1_800,
            window_ticks: 150,
            mtbf_ticks: 600,
            mttr_ticks: 120,
            ..SimParams::standard(8, 5_000, policy, seed)
        }
    }

    #[test]
    fn windows_tile_offered_load_exactly() {
        for policy in Policy::ALL {
            let out = simulate(&tiny(policy, 42));
            for w in &out.windows {
                assert_eq!(
                    w.offered,
                    w.dropped + w.served + w.inflight_end - w.inflight_start,
                    "window at {} violates tiling under {:?}",
                    w.start_tick,
                    policy
                );
                assert_eq!(w.offered, w.accepted + w.dropped);
                assert_eq!(w.hist.count(), w.accepted, "one latency per admission");
            }
            assert_eq!(
                out.offered(),
                out.dropped() + out.served() + out.totals.inflight_end
            );
        }
    }

    #[test]
    fn same_seed_bitwise_identical_different_seed_not() {
        let a = simulate(&tiny(Policy::Derate, 7));
        let b = simulate(&tiny(Policy::Derate, 7));
        let c = simulate(&tiny(Policy::Derate, 8));
        assert_eq!(a, b);
        assert_ne!(a.offered(), c.offered());
    }

    #[test]
    fn policies_change_behavior_under_faults() {
        let drain = simulate(&tiny(Policy::Drain, 42));
        let derate = simulate(&tiny(Policy::Derate, 42));
        assert!(drain.faults_struck > 0, "test params must produce faults");
        assert_eq!(drain.faults_struck, derate.faults_struck);
        // The same faults strike, but the fleets handle them differently.
        assert_ne!(
            drain.windows, derate.windows,
            "drain and derate should diverge once a fault strikes"
        );
    }

    #[test]
    fn latencies_respect_service_floor_and_deadline_ceiling() {
        let p = tiny(Policy::Derate, 3);
        let out = simulate(&p);
        assert!(out.latency.count() > 0);
        // Admission bounds the queue so no admitted request waits past
        // the deadline; max is exact (see record_latencies).
        assert!(
            out.latency.max() <= p.deadline_ms + p.service_ms,
            "max {}",
            out.latency.max()
        );
        // Quantile upper estimates can't be below the service floor.
        assert!(out.latency.p50().expect("non-empty") >= p.service_ms);
    }

    #[test]
    fn unfaulted_underloaded_fleet_serves_everything_quickly() {
        // MTBF far beyond the horizon: no faults, modest load.
        let p = SimParams {
            duration_ticks: 600,
            window_ticks: 100,
            mtbf_ticks: 1_000_000,
            mttr_ticks: 600,
            peak_util: 0.5,
            ..SimParams::standard(4, 10_000, Policy::Drain, 5)
        };
        let out = simulate(&p);
        assert_eq!(out.faults_struck, 0);
        assert_eq!(out.dropped(), 0, "0.5 peak util must not drop");
        // Per-server per-tick arrivals stay below capacity, so nothing
        // queues across ticks and waits stay under one tick.
        assert!(out.latency.max() < p.service_ms + 1000);
    }

    #[test]
    fn drain_sheds_rotation_but_still_drains_backlog() {
        let p = SimParams {
            peak_util: 0.95,
            ..tiny(Policy::Drain, 42)
        };
        let out = simulate(&p);
        // Served totals must stay consistent with tiling even as servers
        // leave and re-enter rotation.
        assert_eq!(
            out.offered(),
            out.dropped() + out.served() + out.totals.inflight_end
        );
        assert!(out.faults_repaired <= out.faults_struck);
    }

    #[test]
    fn utilization_stays_in_range() {
        let p = tiny(Policy::Derate, 9);
        let out = simulate(&p);
        for w in &out.windows {
            let u = w.utilization(p.nominal_capacity());
            assert!((0.0..2.0).contains(&u), "utilization {u}");
        }
    }

    /// The divide-per-run loop the latency-run table replaced: one
    /// divide for each run's first latency, one for its last. The table
    /// must reproduce its histograms bit for bit, sum included.
    fn record_by_division(
        hist: &mut Histogram,
        backlog: u64,
        accepted: u64,
        cap: u64,
        service_ms: u64,
    ) {
        let mut j = 0u64;
        while j < accepted {
            let lat = service_ms + (backlog + j) * 1000 / cap;
            let upper = Histogram::bucket_upper(lat);
            let end = if upper == u64::MAX {
                accepted
            } else {
                let m_max = max_pos_within(upper - service_ms, cap);
                (m_max - backlog + 1).min(accepted)
            };
            hist.record_n(lat, end - j - 1);
            hist.record(service_ms + (backlog + end - 1) * 1000 / cap);
            j = end;
        }
    }

    /// A capacity in 1..=100_000 from a draw: uniform, a power of two,
    /// below 1000, where consecutive positions wait more than a
    /// millisecond apart, or below 64, where they wait over 15 ms apart
    /// and short latencies skip buckets.
    fn capacity(kind: u64, raw: u64) -> u64 {
        match kind {
            0 => 1 + raw % 100_000,
            1 => 1 << (raw % 17),
            2 => 1 + raw % 999,
            _ => 1 + raw % 63,
        }
    }

    /// Exclusive upper ends for backlog, admission and service-time
    /// draws: short queues and service times, where low capacities skip
    /// buckets, as often as long ones.
    const SCALES: [u64; 5] = [2, 16, 256, 4_096, 100_001];

    /// The smallest admission bound (ms) under which positions up to
    /// `last` are admitted at capacity `cap`, plus `slack`.
    fn limit_admitting(last: u64, cap: u64, slack: u64) -> u64 {
        ((last + 1) * 1000).div_ceil(cap) + slack
    }

    /// Records per request, and through the table, and checks the two.
    fn check_against_naive(runs: &LatencyRuns, backlog: u64, accepted: u64) {
        let (cap, service) = (runs.cap(), runs.service_ms);
        let tag = format!("b={backlog} a={accepted} c={cap} s={service}");
        let mut fast = Histogram::new();
        record_latencies(&mut fast, runs, backlog, accepted);
        let mut divided = Histogram::new();
        record_by_division(&mut divided, backlog, accepted, cap, service);
        // Bit-identical to the divide-per-run loop: the same runs,
        // so the same run-attributed sum.
        assert_eq!(fast, divided, "{tag}");
        let mut naive = Histogram::new();
        for j in 0..accepted {
            naive.record(service + (backlog + j) * 1000 / cap);
        }
        // Everything the reports read — bucket counts, quantiles,
        // count, max — is exact; only the internal sum approximates
        // (each bucket run attributed to its first latency).
        assert_eq!(fast.count(), naive.count(), "{tag}");
        assert_eq!(fast.max(), naive.max(), "{tag}");
        assert_eq!(
            fast.buckets().collect::<Vec<_>>(),
            naive.buckets().collect::<Vec<_>>(),
            "{tag}"
        );
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(
                fast.try_quantile_upper(q),
                naive.try_quantile_upper(q),
                "{tag} q={q}"
            );
        }
        assert!(fast.sum() <= naive.sum(), "{tag}");
    }

    /// Records a sequence of admissions into one histogram that starts
    /// as `start`, through the table and by division, and checks the two
    /// after each: the table's buckets, count, max and saturating sum
    /// must add onto whatever the histogram already holds.
    fn check_sequence(runs: &LatencyRuns, start: &Histogram, admissions: &[(u64, u64)]) {
        let (cap, service) = (runs.cap(), runs.service_ms);
        let mut fast = start.clone();
        let mut divided = start.clone();
        for (k, &(backlog, accepted)) in admissions.iter().enumerate() {
            record_latencies(&mut fast, runs, backlog, accepted);
            record_by_division(&mut divided, backlog, accepted, cap, service);
            assert_eq!(
                fast, divided,
                "admission {k}: b={backlog} a={accepted} c={cap} s={service}"
            );
        }
    }

    /// Checks a table against division: each bucket's run holds exactly
    /// the positions whose latencies land in the bucket (none for a
    /// skipped bucket), the counts sum to the positions the table covers,
    /// and each prefix entry is the running total of the runs' recorded
    /// sums, `first * (count - 1) + last`.
    fn check_table(runs: &LatencyRuns) {
        let (cap, service) = (runs.cap(), runs.service_ms);
        let lat = |pos: u64| service + pos * 1000 / cap;
        let (mut start, mut prefix) = (0u64, 0u64);
        for (i, end) in runs.ends.iter().enumerate() {
            let (bucket, tag) = (runs.first + i, format!("c={cap} s={service} bucket {i}"));
            assert_eq!(start + end.count, end.pos + 1, "{tag}");
            if end.count > 0 {
                assert_eq!(Histogram::bucket_index(lat(start)), bucket, "{tag}");
                assert_eq!(Histogram::bucket_index(lat(end.pos)), bucket, "{tag}");
                prefix += lat(start) * (end.count - 1) + lat(end.pos);
            }
            assert!(Histogram::bucket_index(lat(end.pos + 1)) > bucket, "{tag}");
            assert_eq!(
                (end.lat, end.next_lat),
                (lat(end.pos), lat(end.pos + 1)),
                "{tag}"
            );
            assert_eq!(end.prefix, prefix, "{tag}");
            start = end.pos + 1;
        }
        let counted: u64 = runs.ends.iter().map(|end| end.count).sum();
        assert_eq!(
            counted, start,
            "c={cap} s={service}: counts cover every position"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        #[test]
        fn record_latencies_matches_naive_recording(
            cap_kind in 0u64..4,
            cap_raw in 0u64..u64::MAX,
            backlog_scale in proptest::prop::sample::select(SCALES.to_vec()),
            backlog_raw in 0u64..u64::MAX,
            accepted_scale in proptest::prop::sample::select(SCALES.to_vec()),
            accepted_raw in 0u64..u64::MAX,
            service_scale in proptest::prop::sample::select(SCALES[..3].to_vec()),
            service_raw in 0u64..u64::MAX,
            slack in proptest::prop::sample::select(vec![0u64, 1, 999, 5_000]),
        ) {
            let cap = capacity(cap_kind, cap_raw);
            let backlog = backlog_raw % backlog_scale;
            let service = service_raw % service_scale;
            let accepted = 1 + accepted_raw % (accepted_scale - 1);
            let limit = limit_admitting(backlog + accepted - 1, cap, slack);
            check_against_naive(&LatencyRuns::new(cap, service, limit), backlog, accepted);
        }

        #[test]
        fn a_rebuilt_table_matches_a_fresh_build(
            from_kind in 0u64..4,
            from_raw in 0u64..u64::MAX,
            to_kind in 0u64..4,
            to_raw in 0u64..u64::MAX,
            service in 0u64..300,
            limit in proptest::prop::sample::select(vec![1u64, 1_000, 4_000, 8_000]),
            backlog_raw in 0u64..u64::MAX,
            accepted_raw in 0u64..u64::MAX,
        ) {
            let (from, to) = (capacity(from_kind, from_raw), capacity(to_kind, to_raw));
            let mut runs = LatencyRuns::new(from, service, limit);
            runs.rebuild(to);
            let fresh = LatencyRuns::new(to, service, limit);
            proptest::prop_assert_eq!(&runs, &fresh);
            // Record up to the bound the table was built for.
            let admissible = to * limit / 1000;
            proptest::prop_assume!(admissible > 0);
            let backlog = backlog_raw % admissible;
            let accepted = 1 + accepted_raw % (admissible - backlog).min(100_000);
            check_against_naive(&runs, backlog, accepted);
        }

        #[test]
        fn a_sequence_of_admissions_matches_division(
            cap_kind in 0u64..4,
            cap_raw in 0u64..u64::MAX,
            service in 0u64..300,
            backlog_scale in proptest::prop::sample::select(SCALES.to_vec()),
            accepted_scale in proptest::prop::sample::select(SCALES.to_vec()),
            draws in proptest::prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 1..8),
            slack in proptest::prop::sample::select(vec![0u64, 1, 999, 5_000]),
        ) {
            let cap = capacity(cap_kind, cap_raw);
            let admissions: Vec<(u64, u64)> = draws
                .iter()
                .map(|&(b, a)| (b % backlog_scale, 1 + a % (accepted_scale - 1)))
                .collect();
            let last = admissions.iter().map(|&(b, a)| b + a - 1).max().unwrap();
            let runs = LatencyRuns::new(cap, service, limit_admitting(last, cap, slack));
            // A histogram that already holds samples, in buckets the
            // admissions reach and past them.
            let mut held = Histogram::new();
            for sample in [service, service + 37, 5_000, 70_000] {
                held.record(sample);
            }
            check_sequence(&runs, &held, &admissions);
            // A sum a few latencies short of u64::MAX, which most
            // sequences saturate part-way through.
            let mut full = Histogram::new();
            full.record(u64::MAX - 3 * service - 1_000);
            check_sequence(&runs, &full, &admissions);
        }

        #[test]
        fn a_table_counts_and_sums_its_runs(
            cap_kind in 0u64..4,
            cap_raw in 0u64..u64::MAX,
            service in 0u64..300,
            limit in proptest::prop::sample::select(vec![1u64, 1_000, 4_000, 8_000, 100_000]),
        ) {
            check_table(&LatencyRuns::new(capacity(cap_kind, cap_raw), service, limit));
        }
    }

    #[test]
    fn low_capacities_skip_buckets_with_a_count_of_zero() {
        // 50 ms per position from 20 ms: 20, 70, 120, ... jumps from
        // the 16..31 bucket straight to the 64..127 one.
        let runs = LatencyRuns::new(20, 20, 4_000);
        check_table(&runs);
        let counts: Vec<u64> = runs.ends.iter().map(|end| end.count).collect();
        assert_eq!(counts[..3], [1, 0, 2], "buckets 16.., 32.., 64..");
        // One position a second from 0 ms: position 0 fills bucket 0
        // and position 1 the 512..1023 bucket, so the eight between
        // hold none.
        let runs = LatencyRuns::new(1, 0, 2_048_000);
        check_table(&runs);
        let counts: Vec<u64> = runs.ends.iter().map(|end| end.count).collect();
        assert_eq!(counts[..10], [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        for cap in 1..64 {
            for service in [0, 1, 20, 255] {
                check_table(&LatencyRuns::new(cap, service, 4_000));
            }
        }
    }

    #[test]
    fn record_latencies_covers_the_edges() {
        let mut hist = Histogram::new();
        record_latencies(&mut hist, &LatencyRuns::new(7, 20, 4_000), 5, 0);
        assert_eq!(hist, Histogram::new(), "nothing admitted, nothing recorded");
        for (backlog, accepted, cap, service) in [
            (0u64, 100u64, 7u64, 20u64),
            (53, 997, 13, 5),
            (0, 1, 1, 0),
            (1000, 500, 3, 20),
            // 50 ms per position: from the 16..31 bucket straight to
            // the 64..127 one.
            (0, 80, 20, 20),
        ] {
            let limit = limit_admitting(backlog + accepted - 1, cap, 0);
            check_against_naive(&LatencyRuns::new(cap, service, limit), backlog, accepted);
        }
        // A healthy fleet-day server, filled to the last position the
        // 4 s deadline admits.
        check_against_naive(&LatencyRuns::new(5_000, 20, 4_000), 0, 20_000);
        // Service time alone fills the top of the table's range.
        check_against_naive(&LatencyRuns::new(1_000, 4_000, 1_000), 0, 1_000);
    }

    #[test]
    fn severity_curve_is_monotone_and_anchored() {
        let c = severity_curve();
        assert_eq!(c.relative_performance(0.0), 1.0);
        assert!(c.relative_performance(0.5) < c.relative_performance(0.0625));
    }

    #[test]
    fn series_totals_match_run_totals() {
        let outcome = simulate(&SimParams::quick(16, 2_000, Policy::Derate, 7));
        let set = outcome.series();
        assert_eq!(set.get("offered").unwrap().total(), outcome.offered());
        assert_eq!(set.get("served").unwrap().total(), outcome.served());
        assert_eq!(set.get("dropped").unwrap().total(), outcome.dropped());
        assert_eq!(
            set.get("latency_ms").unwrap().total(),
            outcome.latency.count()
        );
        assert_eq!(
            set.get("offered").unwrap().len(),
            outcome.windows.len(),
            "one bucket per window"
        );
    }
}
