//! The resilience layer: correlated failure domains, retrying/hedging
//! clients, health-checked load balancing, and adaptive overload
//! shedding — deterministically, on integer ticks — and the one tick
//! loop every fleet run goes through.
//!
//! The plain fleet ([`crate::sim::simulate`]) is this loop's degenerate
//! configuration: flat topology, retry `none`, shedder off, no storm,
//! and an oracle balancer. It models open-loop demand against
//! independent per-server faults: optimistic in exactly the regimes
//! that matter, because real clients *retry*. A timeout turns one
//! failed request into several, a correlated domain outage removes
//! half the fleet at once, and the combination is the classic
//! metastable retry storm: queues pin at the admission bound, every
//! admitted request waits past its client's timeout, capacity is spent
//! serving work nobody is waiting for, and goodput collapses far below
//! the surviving capacity. This module reproduces that failure mode —
//! and the controls that bound it — as a pure deterministic function
//! of its parameters.
//!
//! # The pieces
//!
//! * **Domains** ([`crate::domains`]): a seeded rack/PDU/agg schedule
//!   (or, in storm mode, one scripted PDU outage) derates or kills
//!   whole server ranges; severities compose with chip-level damage
//!   through `DegradationCurve::compound_performance`, and a severity
//!   ≥ 1.0 zeroes capacity and fails the server's queued work.
//! * **Clients** ([`RetryPolicy`]): each admitted request has an
//!   implicit client that gives up after `timeout_ms` and retries with
//!   capped exponential backoff, up to `max_attempts`; fast rejections
//!   (shed/overflow/unreachable) retry after backoff alone, timeouts
//!   only after burning the full timeout first — the asymmetry that
//!   makes fast rejection cheaper than slow failure. A hedge policy
//!   duplicates slow requests (`wait > hedge_ms`) to the least-loaded
//!   server and takes the faster of the two.
//! * **Health checks**: every server is probed every
//!   [`PROBE_INTERVAL_TICKS`] (staggered by index); two consecutive
//!   failed probes eject it from the balancer, two consecutive good
//!   probes readmit it. Between death and ejection the balancer keeps
//!   routing to the corpse — arrivals black-hole and their clients
//!   time out, which is precisely the window health checking exists to
//!   shrink. Balancer weights are *nominal*, not effective: the layer
//!   has no oracle knowledge of true capacity.
//! * **Shedder**: per-server CoDel-shaped admission control. When the
//!   post-admission queue delay has exceeded [`SHED_TARGET_MS`] for
//!   [`SHED_INTERVAL_TICKS`] consecutive ticks, the admission bound
//!   drops from the deadline to the target, so everything admitted is
//!   served well inside the client timeout — all capacity goes to
//!   useful work, and the excess fails fast instead of slow. The state
//!   is sticky: it clears only once the delay falls below half the
//!   target, so sustained overload cannot flap the bound open for a
//!   deadline-deep gulp of doomed admissions.
//!
//! # Accounting
//!
//! All flows are integer counters with exact conservation:
//! `issued = offered + retries + hedges` (every dispatched request is
//! a fresh arrival, a retry, or a hedge copy), and every issued
//! request lands in exactly one of admitted / shed / overflow /
//! black-holed / unreachable / hedge-dropped. Admitted requests are
//! classified at admission by their exact FIFO wait: *useful* (served
//! before the client's timeout; its latency is recorded) or *waste*
//! (the client will have given up; the server still serves the corpse,
//! burning capacity). A domain outage fails a queue in place: useful
//! requests become in-flight failures (their clients retry), waste is
//! simply lost. The latency histogram records the admission-time wait
//! of useful requests — an outage may later fail some of them, which
//! the counters (not the histogram) track.

use std::collections::VecDeque;

use sop_obs::Histogram;

use crate::domains::{DomainFault, DomainFaultPlan, DomainLevel, DomainTopology, TOPOLOGIES};
use crate::failure::FleetFaultPlan;
use crate::sim::{
    record_latencies, severity_curve, FleetOutcome, LatencyRuns, Policy, SimParams, WindowStats,
};
use crate::traffic::TrafficModel;

/// Ticks between health probes of a given server (probes are staggered
/// by server index so the prober's load is flat).
pub const PROBE_INTERVAL_TICKS: u64 = 5;
/// Consecutive failed probes before a server is ejected.
pub const PROBE_FAIL_THRESHOLD: u32 = 2;
/// Consecutive good probes before an ejected server is readmitted.
pub const PROBE_OK_THRESHOLD: u32 = 2;
/// Queue-delay target: when shedding, admission is bounded here.
pub const SHED_TARGET_MS: u64 = 1_000;
/// Consecutive ticks above target before shedding engages.
pub const SHED_INTERVAL_TICKS: u64 = 2;
/// Admission deadline for resilience runs: deliberately *above* the
/// client timeout, so an unshedded overloaded queue admits work whose
/// client will give up before service — the metastable mechanism.
pub const RESILIENT_DEADLINE_MS: u64 = 8_000;

/// How a client reacts to slowness and failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Stable label used in specs, reports, and the CLI (`--retry`).
    pub label: &'static str,
    /// Client gives up on an attempt after this long; 0 means the
    /// client waits forever (open-loop, no retries at all).
    pub timeout_ms: u64,
    /// Total attempts (first try included) before permanent failure.
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt. 0 = retry immediately.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Hedge threshold: duplicate a request whose expected wait
    /// exceeds this to a second server and take the faster reply.
    pub hedge_ms: Option<u64>,
}

/// The client behaviors the resilience campaign sweeps: no client
/// logic at all, naive immediate retries (the storm fuel), capped
/// exponential backoff, and backoff plus hedging.
pub const RETRY_POLICIES: [RetryPolicy; 4] = [
    RetryPolicy {
        label: "none",
        timeout_ms: 0,
        max_attempts: 1,
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
        hedge_ms: None,
    },
    RetryPolicy {
        label: "naive",
        timeout_ms: 4_000,
        max_attempts: 6,
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
        hedge_ms: None,
    },
    RetryPolicy {
        label: "backoff",
        timeout_ms: 4_000,
        max_attempts: 6,
        backoff_base_ms: 1_000,
        backoff_cap_ms: 8_000,
        hedge_ms: None,
    },
    RetryPolicy {
        label: "hedge",
        timeout_ms: 4_000,
        max_attempts: 6,
        backoff_base_ms: 1_000,
        backoff_cap_ms: 8_000,
        hedge_ms: Some(2_000),
    },
];

impl RetryPolicy {
    /// Looks up a policy by its stable label.
    pub fn from_label(s: &str) -> Option<RetryPolicy> {
        RETRY_POLICIES.into_iter().find(|p| p.label == s)
    }

    /// All labels, for CLI error listings.
    pub fn labels() -> Vec<&'static str> {
        RETRY_POLICIES.iter().map(|p| p.label).collect()
    }

    /// Whether clients ever retry.
    pub fn retries(&self) -> bool {
        self.timeout_ms > 0 && self.max_attempts > 1
    }

    /// Backoff in ms before the retry that follows a failed `attempt`
    /// (1-based): `base * 2^(attempt-1)`, capped.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        if self.backoff_base_ms == 0 {
            return 0;
        }
        self.backoff_base_ms
            .saturating_mul(1u64 << (attempt - 1).min(32))
            .min(self.backoff_cap_ms)
    }
}

/// Everything that determines a resilience run. Two equal params give
/// bit-identical [`FleetOutcome`]s on any host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceParams {
    /// The underlying fleet (sizes, chip-fault process, traffic). Its
    /// `deadline_ms` is the admission bound when *not* shedding.
    pub base: SimParams,
    /// Shared-infrastructure arrangement (`flat` = no correlated
    /// domains, only independent chip faults).
    pub topology: DomainTopology,
    /// Client behavior.
    pub retry: RetryPolicy,
    /// Whether the overload shedder is armed.
    pub shed: bool,
    /// Storm mode: replace both seeded fault processes with one
    /// scripted PDU-0 total outage at `duration/4` lasting
    /// `duration/8` — the committed correlated-failure experiment.
    pub storm: bool,
}

impl ResilienceParams {
    /// The plain configuration of `base`: flat topology, retry `none`,
    /// shedder off, no storm. [`crate::simulate`] runs it behind the
    /// oracle balancer.
    pub fn plain(base: SimParams) -> ResilienceParams {
        ResilienceParams {
            base,
            topology: TOPOLOGIES[0],
            retry: RETRY_POLICIES[0],
            shed: false,
            storm: false,
        }
    }

    /// A full simulated day.
    pub fn standard(
        servers: u32,
        per_server_qps: u64,
        policy: Policy,
        seed: u64,
        topology: DomainTopology,
        retry: RetryPolicy,
        shed: bool,
    ) -> ResilienceParams {
        ResilienceParams {
            base: SimParams {
                deadline_ms: RESILIENT_DEADLINE_MS,
                ..SimParams::standard(servers, per_server_qps, policy, seed)
            },
            topology,
            retry,
            shed,
            storm: false,
        }
    }

    /// The compressed two-hour day for CI and smoke runs.
    pub fn quick(
        servers: u32,
        per_server_qps: u64,
        policy: Policy,
        seed: u64,
        topology: DomainTopology,
        retry: RetryPolicy,
        shed: bool,
    ) -> ResilienceParams {
        ResilienceParams {
            base: SimParams {
                deadline_ms: RESILIENT_DEADLINE_MS,
                ..SimParams::quick(servers, per_server_qps, policy, seed)
            },
            topology,
            retry,
            shed,
            storm: false,
        }
    }

    /// Switches the run into storm mode (requires a non-flat topology
    /// — a storm needs a domain to strike).
    pub fn storm(mut self) -> ResilienceParams {
        assert!(
            !self.topology.is_flat(),
            "storm mode needs a correlated topology"
        );
        self.storm = true;
        self
    }

    /// The tick the scripted storm strikes.
    pub fn storm_tick(&self) -> u64 {
        self.base.duration_ticks / 4
    }

    /// The tick the scripted storm is repaired.
    pub fn storm_repair_tick(&self) -> u64 {
        self.storm_tick() + self.base.duration_ticks / 8
    }
}

/// Run-total flow counters. Every issued request lands in exactly one
/// admission outcome; every admitted request is eventually served,
/// failed in flight by an outage, or left in a queue at end of run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Fresh demand from the traffic process.
    pub offered: u64,
    /// Requests dispatched to the balancer (fresh + retries + hedges).
    pub issued: u64,
    /// Retry attempts dispatched.
    pub retries: u64,
    /// Hedge copies dispatched.
    pub hedges: u64,
    /// Requests admitted to some server queue.
    pub admitted: u64,
    /// Admitted requests whose wait beats the client timeout.
    pub admitted_useful: u64,
    /// Fast-rejected by the shedder.
    pub shed: u64,
    /// Fast-rejected by the deadline admission bound (shedder off or
    /// not engaged).
    pub overflow: u64,
    /// Routed to a dead-but-not-yet-ejected server; the client times
    /// out discovering this.
    pub blackholed: u64,
    /// Dispatched while no server was routable at all.
    pub unreachable: u64,
    /// Hedge copies rejected at their target (hedges never retry).
    pub hedge_dropped: u64,
    /// Requests whose clients exhausted every attempt.
    pub perm_failed: u64,
    /// Requests served (useful + waste).
    pub served: u64,
    /// Useful requests served: the goodput numerator.
    pub goodput: u64,
    /// Waste served: capacity burned on abandoned or duplicate work.
    pub waste_served: u64,
    /// Useful queued work failed in place by a domain outage.
    pub failed_inflight: u64,
    /// Waste queued work lost to a domain outage.
    pub lost_waste: u64,
    /// Fleet-wide backlog at end of run.
    pub inflight_end: u64,
    /// Health probes performed.
    pub probes: u64,
    /// Servers ejected by the health checker.
    pub ejections: u64,
    /// Ejected servers readmitted after probation.
    pub readmissions: u64,
    /// Server-ticks spent with the shedder engaged.
    pub shed_server_ticks: u64,
    /// Retry attempts still pending in the ring at end of run.
    pub pending_retries_end: u64,
}

/// What the scripted storm interval measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormStats {
    /// Tick the outage struck.
    pub start_tick: u64,
    /// Tick the outage was repaired.
    pub end_tick: u64,
    /// Fresh demand offered during the outage.
    pub offered: u64,
    /// Requests dispatched during the outage (fresh + retries +
    /// hedges): `issued / offered` is the storm's retry amplification.
    pub issued: u64,
    /// Useful requests served during the outage.
    pub goodput: u64,
    /// Sum over outage ticks of surviving effective capacity
    /// (requests): the post-failure capacity the shedder is judged
    /// against.
    pub capacity: u64,
}

// Merged chip + domain fault events. Repairs apply before strikes due
// the same tick; the variant rank is the within-tick order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum REventKind {
    DomRepair {
        level: usize,
        index: u32,
    },
    ChipRepair {
        server: u32,
    },
    DomStrike {
        level: usize,
        index: u32,
        severity: f64,
    },
    ChipStrike {
        server: u32,
        frac: f64,
    },
}

impl REventKind {
    fn order(&self) -> (u8, u32, u32) {
        match *self {
            REventKind::DomRepair { level, index } => (0, level as u32, index),
            REventKind::ChipRepair { server } => (1, 0, server),
            REventKind::DomStrike { level, index, .. } => (2, level as u32, index),
            REventKind::ChipStrike { server, .. } => (3, 0, server),
        }
    }
}

struct Server {
    eff_cap: u64,
    // Where admitted latencies change histogram bucket at `eff_cap`;
    // rebuilt wherever `eff_cap` changes to a live capacity.
    runs: LatencyRuns,
    backlog: u64,
    in_rotation: bool,
    ejected: bool,
    shedding: bool,
    probe_fails: u32,
    probe_oks: u32,
    over_ticks: u64,
    chip_frac: f64,
    // FIFO queue as run-length segments of (useful, count): useful
    // requests' clients are still waiting; waste is doomed/duplicate.
    // Kept only when the run is `segmented`; otherwise every queued
    // request is useful and `backlog` alone is the queue.
    queue: VecDeque<(bool, u64)>,
}

impl Server {
    fn enqueue(&mut self, segmented: bool, useful: bool, count: u64) {
        self.backlog += count;
        if !segmented || count == 0 {
            return;
        }
        match self.queue.back_mut() {
            Some((u, c)) if *u == useful => *c += count,
            _ => self.queue.push_back((useful, count)),
        }
    }

    /// Serves up to one tick's capacity; returns (useful, waste) served.
    fn serve(&mut self, segmented: bool) -> (u64, u64) {
        let mut left = self.backlog.min(self.eff_cap);
        if !segmented {
            self.backlog -= left;
            return (left, 0);
        }
        let (mut good, mut waste) = (0u64, 0u64);
        while left > 0 {
            let (useful, count) = *self.queue.front().expect("backlog implies segments");
            let take = count.min(left);
            if useful {
                good += take;
            } else {
                waste += take;
            }
            left -= take;
            self.backlog -= take;
            if take == count {
                self.queue.pop_front();
            } else {
                self.queue.front_mut().expect("still there").1 -= take;
            }
        }
        (good, waste)
    }

    /// Fails the whole queue in place (domain outage): useful work
    /// becomes in-flight failures, waste is lost. Returns (useful,
    /// waste) counts.
    fn fail_queue(&mut self, segmented: bool) -> (u64, u64) {
        if !segmented {
            return (std::mem::take(&mut self.backlog), 0);
        }
        let (mut useful, mut waste) = (0u64, 0u64);
        for (u, c) in self.queue.drain(..) {
            if u {
                useful += c;
            } else {
                waste += c;
            }
        }
        self.backlog = 0;
        (useful, waste)
    }
}

// Retry attempts scheduled for future ticks, bucketed by the attempt
// number they will run as. Max delay = timeout (8 ticks worst case) +
// backoff cap (8 ticks) + 1, comfortably inside the ring.
const RETRY_RING: usize = 32;
const MAX_ATTEMPT_SLOTS: usize = 16;

struct RetryRing {
    slots: Vec<[u64; MAX_ATTEMPT_SLOTS]>,
    pending: u64,
}

impl RetryRing {
    fn new() -> RetryRing {
        RetryRing {
            slots: vec![[0; MAX_ATTEMPT_SLOTS]; RETRY_RING],
            pending: 0,
        }
    }

    /// Schedules `count` requests whose `attempt` just failed to retry
    /// after `delay_ticks`. Returns the permanently-failed count (the
    /// budget was already exhausted, or the policy never retries).
    fn schedule(
        &mut self,
        policy: &RetryPolicy,
        attempt: u32,
        count: u64,
        delay_ticks: u64,
        now: u64,
    ) -> u64 {
        if count == 0 {
            return 0;
        }
        if !policy.retries() || attempt >= policy.max_attempts {
            return count;
        }
        let next = (attempt + 1).min(MAX_ATTEMPT_SLOTS as u32 - 1);
        let at = now + delay_ticks.clamp(1, RETRY_RING as u64 - 1);
        self.slots[(at % RETRY_RING as u64) as usize][next as usize] += count;
        self.pending += count;
        0
    }

    /// Drains attempts due at `tick` into (attempt, count) pairs.
    fn drain(&mut self, tick: u64, out: &mut Vec<(u32, u64)>) {
        out.clear();
        let slot = &mut self.slots[(tick % RETRY_RING as u64) as usize];
        for (attempt, count) in slot.iter_mut().enumerate() {
            if *count > 0 {
                out.push((attempt as u32, *count));
                self.pending -= *count;
                *count = 0;
            }
        }
    }
}

/// One tick's batch of requests on one attempt, with the state of its
/// split across the servers walked so far.
struct Batch {
    attempt: u32,
    count: u64,
    // Capacity weights (the plain balancer): whether
    // `count * routable_weight` overflows u64, so shares take u128, and
    // the batch's cumulative allocation up to the last server walked.
    wide: bool,
    prev: u64,
    // Nominal weights: every share is `base = count / n`, plus one
    // whenever the running remainder `carry`, stepped by
    // `rem = count % n`, wraps past n.
    base: u64,
    rem: u64,
    carry: u64,
}

impl Batch {
    fn new(attempt: u32, count: u64, total_weight: u64) -> Batch {
        Batch {
            attempt,
            count,
            wide: count.checked_mul(total_weight).is_none(),
            prev: 0,
            base: count / total_weight,
            rem: count % total_weight,
            carry: 0,
        }
    }

    /// The next server's share, `count * cum / total - count * prev_cum
    /// / total`, where `cum` is its cumulative weight out of
    /// `total_weight`. Servers must be walked in order. Under nominal
    /// weights (`!PLAIN`) every weight is 1, so `cum` is the server's
    /// rank and the share is `base`, plus one when `rem * cum` passes a
    /// multiple of the total: no divide per server.
    #[inline(always)]
    fn next_share<const PLAIN: bool>(&mut self, cum: u64, total_weight: u64) -> u64 {
        if PLAIN {
            let upto = if self.wide {
                (u128::from(self.count) * u128::from(cum) / u128::from(total_weight)) as u64
            } else {
                self.count * cum / total_weight
            };
            let share = upto - self.prev;
            self.prev = upto;
            share
        } else {
            self.carry += self.rem;
            if self.carry >= total_weight {
                self.carry -= total_weight;
                self.base + 1
            } else {
                self.base
            }
        }
    }
}

/// Largest queue position whose FIFO wait at per-tick capacity `cap`
/// does not exceed `limit_ms`: `floor(pos*1000/cap) <= limit`.
pub(crate) fn max_pos_within(limit_ms: u64, cap: u64) -> u64 {
    ((limit_ms + 1) * cap - 1) / 1000
}

/// Runs one resilience simulation to completion. Pure and
/// deterministic: equal `params` give bit-identical outcomes.
pub fn simulate_resilience(params: &ResilienceParams) -> FleetOutcome {
    run::<false>(params)
}

/// The one fleet tick loop. `PLAIN` selects the balancer at compile
/// time: the plain configuration's oracle weights servers by effective
/// capacity and routes only to live ones, so it runs no health probes;
/// otherwise weights are nominal and health is learned from probes.
/// Every other feature is armed by `params` and costs nothing disarmed:
/// the hedge-target scan runs only under a hedge policy, the shedder's
/// delay bookkeeping only when it is armed, retries drain only when
/// clients retry, and queues keep useful/waste segments only when some
/// client can give up.
pub(crate) fn run<const PLAIN: bool>(params: &ResilienceParams) -> FleetOutcome {
    // The plain configuration's topology, retry policy, shedder and
    // storm are constants, so the checks on them fold away.
    let params = &if PLAIN {
        ResilienceParams::plain(params.base)
    } else {
        *params
    };
    let p = &params.base;
    assert!(p.servers > 0, "cannot simulate an empty fleet");
    assert!(p.per_server_qps > 0, "servers need capacity");
    assert!(p.duration_ticks > 0, "cannot simulate zero ticks");
    assert!(p.window_ticks > 0, "windows need at least one tick");
    let (retry, shed) = (params.retry, params.shed);
    if retry.timeout_ms > 0 {
        assert!(
            retry.timeout_ms < p.deadline_ms,
            "client timeout must undercut the admission deadline"
        );
        assert!(retry.timeout_ms >= 1000, "sub-tick timeouts unsupported");
    }
    if params.storm {
        assert!(!params.topology.is_flat(), "storm needs a domain to strike");
    }
    // With no timeout and no hedge every admitted request is useful, so
    // queued work is a bare backlog count.
    let segmented = retry.timeout_ms > 0 || retry.hedge_ms.is_some();

    let curve = severity_curve();
    let topo = params.topology;

    // Fault schedules: ambient mode draws both seeded processes; storm
    // mode replaces them with one scripted PDU-0 total outage so the
    // collapse/recovery measurement is a controlled experiment.
    let (chip_plan, dom_plan) = if params.storm {
        let scripted = DomainFaultPlan::default().with_fault(DomainFault {
            level: DomainLevel::Pdu,
            index: 0,
            tick: params.storm_tick(),
            severity: 1.0,
            repair_ticks: params.storm_repair_tick() - params.storm_tick(),
        });
        (FleetFaultPlan::default(), scripted)
    } else {
        (
            FleetFaultPlan::seeded(
                p.seed,
                p.servers,
                p.duration_ticks,
                p.mtbf_ticks,
                p.mttr_ticks,
            ),
            DomainFaultPlan::seeded(
                p.seed,
                &topo,
                p.servers,
                p.duration_ticks,
                p.mtbf_ticks,
                p.mttr_ticks,
            ),
        )
    };

    let mut events: Vec<(u64, REventKind)> = Vec::new();
    for f in chip_plan.faults() {
        events.push((
            f.tick,
            REventKind::ChipStrike {
                server: f.server,
                frac: f.failed_fraction,
            },
        ));
        let repair = f.tick + f.repair_ticks;
        if repair < p.duration_ticks {
            events.push((repair, REventKind::ChipRepair { server: f.server }));
        }
    }
    let level_idx = |l: DomainLevel| {
        DomainLevel::ALL
            .iter()
            .position(|&x| x == l)
            .expect("known")
    };
    for f in dom_plan.faults() {
        let li = level_idx(f.level);
        events.push((
            f.tick,
            REventKind::DomStrike {
                level: li,
                index: f.index,
                severity: f.severity,
            },
        ));
        let repair = f.tick + f.repair_ticks;
        if repair < p.duration_ticks {
            events.push((
                repair,
                REventKind::DomRepair {
                    level: li,
                    index: f.index,
                },
            ));
        }
    }
    events.sort_by_key(|e| (e.0, e.1.order()));

    let mut traffic = TrafficModel::new(
        p.seed,
        p.nominal_capacity() as f64 * p.peak_util,
        p.duration_ticks,
    );

    // Every admission bound a server can apply: the deadline, and the
    // shed target when the shedder is armed.
    let admit_limit_ms = if shed {
        p.deadline_ms.max(SHED_TARGET_MS)
    } else {
        p.deadline_ms
    };
    let healthy_runs = LatencyRuns::new(p.per_server_qps, p.service_ms, admit_limit_ms);
    let n = p.servers as usize;
    let mut servers: Vec<Server> = (0..n)
        .map(|_| Server {
            eff_cap: p.per_server_qps,
            runs: healthy_runs.clone(),
            backlog: 0,
            in_rotation: true,
            ejected: false,
            shedding: false,
            probe_fails: 0,
            probe_oks: 0,
            over_ticks: 0,
            chip_frac: 0.0,
            queue: VecDeque::new(),
        })
        .collect();
    // Active severity per (level, domain index); 0.0 = healthy.
    let mut dom_sev: Vec<Vec<f64>> = DomainLevel::ALL
        .iter()
        .map(|&l| vec![0.0; topo.domains_at(l, p.servers) as usize])
        .collect();
    let dom_span = |li: usize| -> u32 {
        match DomainLevel::ALL[li] {
            DomainLevel::Rack => topo.rack_size,
            DomainLevel::Pdu => topo.rack_size * topo.racks_per_pdu,
            DomainLevel::Agg => topo.rack_size * topo.racks_per_pdu * topo.pdus_per_agg,
        }
    };
    let recompute_eff = |s: u32, servers: &mut [Server], dom_sev: &[Vec<f64>]| {
        let sv = &mut servers[s as usize];
        let mut fractions = [0.0; 4];
        let mut k = 0;
        if sv.chip_frac > 0.0 {
            fractions[k] = sv.chip_frac;
            k += 1;
        }
        if !topo.is_flat() {
            for (li, sevs) in dom_sev.iter().enumerate() {
                let sev = sevs[(s / dom_span(li)) as usize];
                if sev > 0.0 {
                    fractions[k] = sev;
                    k += 1;
                }
            }
        }
        let rel = curve.compound_performance(fractions[..k].iter().copied());
        sv.eff_cap = if rel == 0.0 {
            0
        } else {
            ((p.per_server_qps as f64 * rel).round() as u64).max(1)
        };
        if sv.eff_cap > 0 && sv.eff_cap != sv.runs.cap() {
            sv.runs.rebuild(sv.eff_cap);
        }
    };

    let mut ring = RetryRing::new();
    let mut due: Vec<(u32, u64)> = Vec::with_capacity(MAX_ATTEMPT_SLOTS);
    let mut batches: Vec<Batch> = Vec::with_capacity(MAX_ATTEMPT_SLOTS + 1);
    let mut totals = Totals::default();
    let mut latency = Histogram::new();
    let mut windows: Vec<WindowStats> =
        Vec::with_capacity(p.duration_ticks.div_ceil(p.window_ticks) as usize);
    // The open window: its first tick, the ledger and backlog when it
    // opened, and its admission latencies. Its counters are the
    // ledger's growth since it opened.
    let mut win_start = 0u64;
    let mut win_open = totals;
    let mut win_inflight = 0u64;
    let mut win_hist = Histogram::new();
    let mut chip_struck = 0u64;
    let mut chip_repaired = 0u64;
    let mut dom_struck = 0u64;
    let mut dom_repaired = 0u64;
    let mut active_domains = 0u64;
    let mut waste_queued = 0u64;
    let mut first_dom_strike: Option<u64> = None;
    let mut recovered_at: Option<u64> = None;
    let mut storm_stats = params.storm.then(|| StormStats {
        start_tick: params.storm_tick(),
        end_tick: params.storm_repair_tick(),
        offered: 0,
        issued: 0,
        goodput: 0,
        capacity: 0,
    });
    // Routable servers with their cumulative balancer weights, the
    // total weight, and the fleet's effective capacity; rebuilt only
    // when an event, ejection or readmission changes them.
    let mut routable: Vec<(u32, u64)> = Vec::with_capacity(n);
    let mut routable_weight = 0u64;
    let mut fleet_capacity = 0u64;
    let mut stale = true;
    let mut ev_i = 0usize;

    for tick in 0..p.duration_ticks {
        // 1. Fault/repair events due now (repairs before strikes). A
        // total outage fails the victims' queues: the useful portion
        // becomes in-flight failures whose clients time out and retry.
        while ev_i < events.len() && events[ev_i].0 == tick {
            let (_, kind) = events[ev_i];
            ev_i += 1;
            stale = true;
            match kind {
                REventKind::ChipStrike { server, frac } => {
                    chip_struck += 1;
                    servers[server as usize].chip_frac = frac;
                    servers[server as usize].in_rotation = p.policy == Policy::Derate;
                    recompute_eff(server, &mut servers, &dom_sev);
                }
                REventKind::ChipRepair { server } => {
                    chip_repaired += 1;
                    servers[server as usize].chip_frac = 0.0;
                    servers[server as usize].in_rotation = true;
                    recompute_eff(server, &mut servers, &dom_sev);
                }
                REventKind::DomStrike {
                    level,
                    index,
                    severity,
                } => {
                    dom_struck += 1;
                    active_domains += 1;
                    first_dom_strike.get_or_insert(tick);
                    dom_sev[level][index as usize] = severity;
                    let range = topo.members(DomainLevel::ALL[level], index, p.servers);
                    for s in range {
                        recompute_eff(s, &mut servers, &dom_sev);
                        if servers[s as usize].eff_cap == 0 {
                            let (useful, waste) = servers[s as usize].fail_queue(segmented);
                            totals.failed_inflight += useful;
                            totals.lost_waste += waste;
                            waste_queued -= waste;
                            // The waiting clients discover the failure
                            // at their timeout, then back off. All were
                            // admitted on some attempt; model them at
                            // the first attempt.
                            totals.perm_failed += ring.schedule(
                                &retry,
                                1,
                                useful,
                                (retry.timeout_ms + retry.backoff_ms(1)) / 1000,
                                tick,
                            );
                        }
                    }
                }
                REventKind::DomRepair { level, index } => {
                    dom_repaired += 1;
                    active_domains -= 1;
                    dom_sev[level][index as usize] = 0.0;
                    let range = topo.members(DomainLevel::ALL[level], index, p.servers);
                    for s in range {
                        recompute_eff(s, &mut servers, &dom_sev);
                    }
                }
            }
        }

        // 2. Health probes, staggered by server index. A probe checks
        // reachability (effective capacity > 0). The oracle needs none.
        if !PLAIN {
            let first = (tick % PROBE_INTERVAL_TICKS) as usize;
            for s in servers
                .iter_mut()
                .skip(first)
                .step_by(PROBE_INTERVAL_TICKS as usize)
            {
                totals.probes += 1;
                if s.eff_cap > 0 {
                    s.probe_oks += 1;
                    s.probe_fails = 0;
                    if s.ejected && s.probe_oks >= PROBE_OK_THRESHOLD {
                        s.ejected = false;
                        totals.readmissions += 1;
                        stale = true;
                    }
                } else {
                    s.probe_fails += 1;
                    s.probe_oks = 0;
                    if !s.ejected && s.probe_fails >= PROBE_FAIL_THRESHOLD {
                        s.ejected = true;
                        totals.ejections += 1;
                        stale = true;
                    }
                }
            }
        }

        // 3. The hedge target's expected wait: the emptiest reachable
        // server as observed at tick start. (Shedding state was set at
        // the previous tick's close — see step 7.)
        let mut hedge_wait: Option<(u64, u32)> = None; // (delay_ms, server)
        if retry.hedge_ms.is_some() {
            for (i, s) in servers.iter().enumerate() {
                if s.eff_cap > 0 && s.in_rotation && !s.ejected {
                    let delay = s.backlog * 1000 / s.eff_cap;
                    if hedge_wait.is_none_or(|(d, _)| delay < d) {
                        hedge_wait = Some((delay, i as u32));
                    }
                }
            }
        }

        // 4. Routable set: in rotation (operator policy) and believed
        // alive. The oracle knows which servers are dead and weights
        // the rest by effective capacity; otherwise the health checker's
        // ejections decide and weights are nominal, so undetected
        // corpses still draw traffic.
        if stale {
            stale = false;
            routable.clear();
            routable_weight = 0;
            fleet_capacity = 0;
            for (i, s) in servers.iter().enumerate() {
                fleet_capacity += s.eff_cap;
                let (routes, weight) = if PLAIN {
                    (s.in_rotation && s.eff_cap > 0, s.eff_cap)
                } else {
                    (s.in_rotation && !s.ejected, 1)
                };
                if routes {
                    routable_weight += weight;
                    routable.push((i as u32, routable_weight));
                }
            }
        }

        // 5. Dispatch fresh demand (attempt 1) then due retries, in
        // attempt order. Each batch splits across routable servers by
        // weight with exact largest-prefix arithmetic (allocations sum
        // to the batch) and admits immediately, so later batches see
        // earlier batches' backlog. A server's admissions depend only on
        // its own queue and its share of each batch, and what they add
        // to the ledger, the retry ring and the latency histogram does
        // not depend on order (sums and a maximum), so the walk goes
        // server by server, each taking its share of every batch in
        // attempt order: one pass over the fleet per tick however many
        // retry attempts are due, with each server's state loaded once.
        let fresh = traffic.rate_at(tick);
        let tick_open = (totals.issued, totals.goodput);
        totals.offered += fresh;
        if retry.retries() {
            ring.drain(tick, &mut due);
        }
        let mut hedges_wanted = 0u64;
        // Hedged requests' recorded latency is clamped at the hedge
        // path: hedge threshold + the hedge target's expected wait.
        let hedge_clamp = retry
            .hedge_ms
            .and_then(|h| hedge_wait.map(|(d, _)| h + d + p.service_ms));
        batches.clear();
        for (attempt, count) in std::iter::once((1, fresh)).chain(due.iter().copied()) {
            if count == 0 {
                continue;
            }
            totals.issued += count;
            if attempt > 1 {
                totals.retries += count;
            }
            if routable.is_empty() {
                totals.unreachable += count;
                totals.perm_failed += ring.schedule(
                    &retry,
                    attempt,
                    count,
                    retry.backoff_ms(attempt).max(1000) / 1000,
                    tick,
                );
                continue;
            }
            batches.push(Batch::new(attempt, count, routable_weight));
        }
        for &(si, cum) in &routable {
            let s = &mut servers[si as usize];
            for b in batches.iter_mut() {
                let attempt = b.attempt;
                let alloc = b.next_share::<PLAIN>(cum, routable_weight);
                if alloc == 0 {
                    continue;
                }
                if s.eff_cap == 0 {
                    // Dead but not yet ejected: the requests vanish and
                    // their clients burn the full timeout finding out.
                    totals.blackholed += alloc;
                    totals.perm_failed += ring.schedule(
                        &retry,
                        attempt,
                        alloc,
                        (retry.timeout_ms + retry.backoff_ms(attempt)) / 1000,
                        tick,
                    );
                    continue;
                }
                let cap = s.eff_cap;
                // Only an armed shedder ever engages; saying so lets the
                // disarmed check fold away.
                let shedding = shed && s.shedding;
                let bound = if shedding {
                    SHED_TARGET_MS
                } else {
                    p.deadline_ms
                };
                let max_backlog = cap * bound / 1000;
                let accept = alloc.min(max_backlog.saturating_sub(s.backlog));
                let rejected = alloc - accept;
                if rejected > 0 {
                    if shedding {
                        totals.shed += rejected;
                    } else {
                        totals.overflow += rejected;
                    }
                    // Fast rejection: the client learns immediately and
                    // retries after backoff alone.
                    totals.perm_failed += ring.schedule(
                        &retry,
                        attempt,
                        rejected,
                        retry.backoff_ms(attempt).max(1000) / 1000,
                        tick,
                    );
                }
                if accept == 0 {
                    continue;
                }
                totals.admitted += accept;
                // Classify by exact FIFO wait: positions whose wait
                // beats the client timeout are useful; the rest are
                // admitted corpses (their clients give up first).
                let useful = if retry.timeout_ms == 0 {
                    accept
                } else {
                    (max_pos_within(retry.timeout_ms, cap) + 1)
                        .saturating_sub(s.backlog)
                        .min(accept)
                };
                let doomed = accept - useful;
                totals.admitted_useful += useful;
                // Within useful, requests slower than the hedge
                // threshold get a duplicate; their recorded latency is
                // the faster of the two paths.
                let plain = match retry.hedge_ms {
                    Some(h) => (max_pos_within(h, cap) + 1)
                        .saturating_sub(s.backlog)
                        .min(useful),
                    None => useful,
                };
                let hedged = useful - plain;
                debug_assert_eq!(s.runs.cap(), cap);
                record_latencies(&mut win_hist, &s.runs, s.backlog, plain);
                if hedged > 0 {
                    hedges_wanted += hedged;
                    match hedge_clamp {
                        Some(clamp) => {
                            let clamp_wait = clamp - p.service_ms;
                            let unclamped = (max_pos_within(clamp_wait, cap) + 1)
                                .saturating_sub(s.backlog + plain)
                                .min(hedged);
                            record_latencies(&mut win_hist, &s.runs, s.backlog + plain, unclamped);
                            win_hist.record_n(clamp, hedged - unclamped);
                        }
                        None => record_latencies(&mut win_hist, &s.runs, s.backlog + plain, hedged),
                    }
                }
                // The doomed clients give up at their timeout, then
                // back off; the corpses stay queued as waste.
                totals.perm_failed += ring.schedule(
                    &retry,
                    attempt,
                    doomed,
                    (retry.timeout_ms + retry.backoff_ms(attempt)) / 1000,
                    tick,
                );
                s.enqueue(segmented, true, useful);
                s.enqueue(segmented, false, doomed);
                waste_queued += doomed;
            }
        }

        // 6. Fire hedges at the tick's emptiest reachable server, as
        // waste (the original copy carries the goodput credit).
        if hedges_wanted > 0 {
            totals.issued += hedges_wanted;
            totals.hedges += hedges_wanted;
            match hedge_wait {
                Some((_, si)) => {
                    let s = &mut servers[si as usize];
                    let bound = if s.shedding {
                        SHED_TARGET_MS
                    } else {
                        p.deadline_ms
                    };
                    let max_backlog = s.eff_cap * bound / 1000;
                    let accept = hedges_wanted.min(max_backlog.saturating_sub(s.backlog));
                    totals.admitted += accept;
                    totals.hedge_dropped += hedges_wanted - accept;
                    s.enqueue(segmented, false, accept);
                    waste_queued += accept;
                }
                None => totals.hedge_dropped += hedges_wanted,
            }
        }

        // 7. Shedder state from the *post-admission* queue delay —
        // CoDel-shaped and sticky. Engage after the delay has exceeded
        // the target for SHED_INTERVAL_TICKS consecutive ticks;
        // disengage only once it falls below half the target, which a
        // shed bound being filled to exactly the target can never do,
        // so overload cannot flap the shedder open for an
        // 8-second-deep gulp of doomed admissions. Then serve.
        for s in servers.iter_mut() {
            if s.eff_cap == 0 {
                s.over_ticks = 0;
                s.shedding = false;
                continue;
            }
            if shed {
                if s.shedding {
                    totals.shed_server_ticks += 1;
                }
                let delay = s.backlog * 1000 / s.eff_cap;
                if !s.shedding {
                    if delay > SHED_TARGET_MS {
                        s.over_ticks += 1;
                    } else {
                        s.over_ticks = 0;
                    }
                    s.shedding = s.over_ticks >= SHED_INTERVAL_TICKS;
                } else if delay < SHED_TARGET_MS / 2 {
                    s.shedding = false;
                    s.over_ticks = 0;
                }
            }
            if s.backlog == 0 {
                continue;
            }
            let (good, waste) = s.serve(segmented);
            totals.goodput += good;
            totals.waste_served += waste;
            totals.served += good + waste;
            waste_queued -= waste;
        }
        if let Some(st) = storm_stats.as_mut() {
            if (st.start_tick..st.end_tick).contains(&tick) {
                st.offered += fresh;
                st.issued += totals.issued - tick_open.0;
                st.goodput += totals.goodput - tick_open.1;
                st.capacity += fleet_capacity;
            }
        }

        // 8. Recovery: after the first domain fault, the fleet has
        // recovered once no outage is active, no retries are pending,
        // and no waste is left queued anywhere.
        if recovered_at.is_none()
            && first_dom_strike.is_some()
            && active_domains == 0
            && ring.pending == 0
            && waste_queued == 0
        {
            recovered_at = Some(tick);
        }

        // 9. Window close.
        if tick + 1 - win_start == p.window_ticks || tick + 1 == p.duration_ticks {
            let inflight_end = servers.iter().map(|s| s.backlog).sum();
            latency.merge(&win_hist);
            let issued = totals.issued - win_open.issued;
            let admitted = totals.admitted - win_open.admitted;
            windows.push(WindowStats {
                start_tick: win_start,
                ticks: tick + 1 - win_start,
                offered: totals.offered - win_open.offered,
                issued,
                accepted: admitted,
                dropped: issued - admitted,
                served: totals.served - win_open.served,
                goodput: totals.goodput - win_open.goodput,
                shed: totals.shed - win_open.shed,
                inflight_start: win_inflight,
                inflight_end,
                hist: std::mem::take(&mut win_hist),
            });
            win_start = tick + 1;
            win_open = totals;
            win_inflight = inflight_end;
        }
    }

    totals.inflight_end = win_inflight;
    totals.pending_retries_end = ring.pending;
    check_ledger(&totals);
    let (recovered, ttr_ticks) = match (first_dom_strike, recovered_at) {
        (None, _) => (true, 0),
        (Some(t0), Some(t1)) => (true, t1 - t0),
        (Some(t0), None) => (false, p.duration_ticks - t0),
    };
    FleetOutcome {
        params: *params,
        plain: PLAIN,
        windows,
        totals,
        latency,
        faults_struck: chip_struck,
        faults_repaired: chip_repaired,
        domain_faults: (dom_struck, dom_repaired),
        storm: storm_stats,
        recovered,
        ttr_ticks,
    }
}

/// The request ledger's conservation identities, checked at the end of
/// every run: each issued request is fresh, a retry or a hedge copy;
/// each lands in exactly one admission outcome; each admitted request
/// is served, failed in flight, lost as waste, or still queued. O(1);
/// a violation panics, which fails the run's engine job.
fn check_ledger(t: &Totals) {
    assert_eq!(
        t.issued,
        t.offered + t.retries + t.hedges,
        "request ledger: issued != offered + retries + hedges"
    );
    assert_eq!(
        t.issued,
        t.admitted + t.shed + t.overflow + t.blackholed + t.unreachable + t.hedge_dropped,
        "request ledger: issued != admitted + every rejection"
    );
    assert_eq!(
        t.admitted,
        t.served + t.failed_inflight + t.lost_waste + t.inflight_end,
        "request ledger: admitted != served + failed + lost + in flight"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(label: &str) -> DomainTopology {
        DomainTopology::from_label(label).expect("known topology")
    }

    fn retry(label: &str) -> RetryPolicy {
        RetryPolicy::from_label(label).expect("known policy")
    }

    fn small(topology: &str, policy: &str, shed: bool) -> ResilienceParams {
        ResilienceParams {
            base: SimParams {
                duration_ticks: 1_800,
                window_ticks: 300,
                mtbf_ticks: 600,
                mttr_ticks: 120,
                deadline_ms: RESILIENT_DEADLINE_MS,
                ..SimParams::standard(16, 5_000, Policy::Derate, 42)
            },
            topology: topo(topology),
            retry: retry(policy),
            shed,
            storm: false,
        }
    }

    fn storm64(policy: &str, shed: bool) -> ResilienceParams {
        ResilienceParams::quick(
            64,
            5_000,
            Policy::Derate,
            42,
            topo("rack"),
            retry(policy),
            shed,
        )
        .storm()
    }

    #[test]
    fn retry_policy_labels_round_trip_and_backoff_caps() {
        for p in &RETRY_POLICIES {
            assert_eq!(
                RetryPolicy::from_label(p.label).map(|q| q.label),
                Some(p.label)
            );
        }
        assert!(RetryPolicy::from_label("yolo").is_none());
        assert_eq!(
            RetryPolicy::labels(),
            vec!["none", "naive", "backoff", "hedge"]
        );
        let b = retry("backoff");
        assert_eq!(b.backoff_ms(1), 1_000);
        assert_eq!(b.backoff_ms(3), 4_000);
        assert_eq!(b.backoff_ms(6), 8_000, "capped");
        assert_eq!(retry("naive").backoff_ms(5), 0);
        assert!(!retry("none").retries());
    }

    #[test]
    fn conservation_identities_hold_everywhere() {
        // Every run checks the request ledger itself (`check_ledger`);
        // this adds the identities it does not cover.
        for topology in TOPOLOGIES.iter().map(|t| t.label) {
            for policy in RetryPolicy::labels() {
                for shed in [false, true] {
                    let out = simulate_resilience(&small(topology, policy, shed));
                    let t = &out.totals;
                    let tag = format!("{topology}/{policy}/shed={shed}");
                    assert_eq!(t.served, t.goodput + t.waste_served, "{tag}");
                    assert_eq!(out.latency.count(), t.admitted_useful, "{tag}");
                    let win_sum: u64 = out.windows.iter().map(|w| w.offered).sum();
                    assert_eq!(win_sum, t.offered, "{tag}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "request ledger")]
    fn a_request_lost_from_the_ledger_fails_the_run() {
        let t = Totals {
            offered: 10,
            issued: 10,
            admitted: 10,
            served: 9,
            ..Totals::default()
        };
        check_ledger(&t);
    }

    #[test]
    fn same_params_bitwise_identical_different_seed_not() {
        let a = simulate_resilience(&small("rack", "backoff", true));
        let b = simulate_resilience(&small("rack", "backoff", true));
        let mut p = small("rack", "backoff", true);
        p.base.seed = 43;
        let c = simulate_resilience(&p);
        assert_eq!(a, b);
        assert_ne!(a.totals.offered, c.totals.offered);
    }

    #[test]
    fn none_policy_never_amplifies() {
        let out = simulate_resilience(&small("rack", "none", false));
        assert_eq!(out.totals.retries, 0);
        assert_eq!(out.totals.hedges, 0);
        assert_eq!(out.totals.issued, out.totals.offered);
        assert!((out.retry_amplification() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hedge_policy_fires_hedges_under_load() {
        let mut p = small("rack", "hedge", false);
        p.base.peak_util = 1.1;
        let out = simulate_resilience(&p);
        assert!(out.totals.hedges > 0, "overload must trigger hedging");
        assert!(out.totals.issued > out.totals.offered);
    }

    #[test]
    fn storm_without_shedding_is_a_retry_storm_collapse() {
        let out = simulate_resilience(&storm64("naive", false));
        let st = out.storm.expect("storm mode records the interval");
        assert_eq!(st.start_tick, 1_800);
        assert_eq!(st.end_tick, 2_700);
        assert_eq!(out.domain_faults, (1, 1));
        // The PDU takes out half the fleet...
        assert!(st.capacity <= 32 * 5_000 * 900, "capacity {}", st.capacity);
        // ...and goodput collapses far below offered demand: the
        // surviving queues pin at the 8s admission bound, past the 4s
        // client timeout, so capacity is burned on abandoned work.
        assert!(
            (st.goodput as f64) < 0.5 * st.offered as f64,
            "no collapse: goodput {} vs offered {}",
            st.goodput,
            st.offered
        );
        // Clients amplify the pain: >2 issued per offered request.
        assert!(
            st.issued as f64 > 2.0 * st.offered as f64,
            "no amplification: issued {} vs offered {}",
            st.issued,
            st.offered
        );
        assert!(out.totals.waste_served > 0, "corpses were served");
    }

    #[test]
    fn storm_with_shedding_is_a_bounded_brownout() {
        let out = simulate_resilience(&storm64("naive", true));
        let st = out.storm.expect("storm mode records the interval");
        // Goodput tracks the surviving capacity: everything admitted
        // is served inside the client timeout.
        assert!(
            st.goodput as f64 >= 0.9 * st.capacity.min(st.offered + st.capacity / 10) as f64,
            "brownout not bounded: goodput {} vs capacity {}",
            st.goodput,
            st.capacity
        );
        assert!(out.totals.shed > 0, "the shedder must engage");
        // And the fleet actually recovers, promptly after repair.
        assert!(out.recovered, "fleet never recovered");
        assert!(
            out.ttr_ticks <= 900 + 300,
            "recovery too slow: {} ticks",
            out.ttr_ticks
        );
        // Shedding beats not shedding where it counts.
        let collapsed = simulate_resilience(&storm64("naive", false));
        assert!(st.goodput > collapsed.storm.expect("storm").goodput);
    }

    #[test]
    fn storm_series_feed_the_slo_engine_and_detection_precedes_repair() {
        let out = simulate_resilience(&storm64("naive", true));
        let set = out.series();
        assert_eq!(set.get("offered").unwrap().total(), out.totals.offered);
        assert_eq!(set.get("goodput").unwrap().total(), out.totals.goodput);
        assert_eq!(
            set.get("latency_ms").unwrap().total(),
            out.totals.admitted_useful
        );
        let cause = out.scripted_cause().expect("storm scripts a cause");
        assert_eq!(cause.start_tick, 1_800);
        assert_eq!(cause.repair_tick, 2_700);
        let analysis = sop_obs::slo::evaluate(
            &set,
            &sop_obs::SloSpec::availability(0.999),
            &sop_obs::BurnRule::standard(),
            Some(&cause),
        );
        // The strike lands on a window boundary, so the first window
        // close after it — one full window later — detects the burn.
        assert_eq!(analysis.detection_tick, Some(2_100));
        assert_eq!(analysis.ttd_ticks, Some(300));
        assert!(analysis.detection_tick.unwrap() < cause.repair_tick);
        // The fast-burn incident clears after recovery, within the run.
        let fast = &analysis.rules[0];
        let cleared = fast.incidents[0].cleared_tick.expect("alert must clear");
        assert!(cleared > cause.repair_tick, "cleared at {cleared}");
        assert_eq!(fast.incidents[0].cause.as_deref(), Some("storm"));
    }

    #[test]
    fn health_checker_ejects_the_dead_and_readmits_the_repaired() {
        let out = simulate_resilience(&storm64("backoff", true));
        // PDU 0 covers exactly half the 64-server fleet.
        assert_eq!(out.totals.ejections, 32);
        assert_eq!(out.totals.readmissions, 32);
        assert!(
            out.totals.blackholed > 0,
            "pre-ejection traffic black-holes"
        );
        assert!(out.totals.probes > 0);
    }

    #[test]
    fn flat_topology_without_chip_faults_stays_clean() {
        let mut p = small("flat", "backoff", true);
        p.base.mtbf_ticks = 10_000_000;
        p.base.peak_util = 0.5;
        let out = simulate_resilience(&p);
        assert_eq!((out.faults_struck, out.faults_repaired), (0, 0));
        assert_eq!(out.domain_faults, (0, 0));
        assert_eq!(out.totals.goodput, out.totals.served);
        assert_eq!(out.totals.retries, 0);
        assert!(out.recovered);
        assert_eq!(out.ttr_ticks, 0);
        assert!(
            (out.availability() - 1.0).abs() < 0.01,
            "{}",
            out.availability()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Both ways of walking a batch across the servers give every
        /// server `count * cum / total - count * prev_cum / total`, so
        /// the shares sum to the batch, u64 overflow included.
        #[test]
        fn batch_shares_are_prefix_differences(
            count_scale in proptest::prop::sample::select(vec![10u64, 1_000, 1 << 40, u64::MAX]),
            count_raw in 0u64..u64::MAX,
            n in 1u64..700,
            weight_raw in 0u64..u64::MAX,
        ) {
            let count = if count_scale == u64::MAX { count_raw } else { count_raw % count_scale };
            let split = |cum: u64, total: u64| {
                (u128::from(count) * u128::from(cum) / u128::from(total)) as u64
            };
            // Nominal weights: every server weighs 1.
            let mut nominal = Batch::new(1, count, n);
            let mut sum = 0u64;
            for cum in 1..=n {
                let share = nominal.next_share::<false>(cum, n);
                proptest::prop_assert_eq!(share, split(cum, n) - split(cum - 1, n));
                sum += share;
            }
            proptest::prop_assert_eq!(sum, count);
            // Capacity weights, drawn from one seed.
            let weights: Vec<u64> = (0..n).map(|i| 1 + (weight_raw >> (i % 48)) % 30_000).collect();
            let total: u64 = weights.iter().sum();
            let mut plain = Batch::new(1, count, total);
            let (mut cum, mut sum) = (0u64, 0u64);
            for w in weights {
                let share = plain.next_share::<true>(cum + w, total);
                proptest::prop_assert_eq!(share, split(cum + w, total) - split(cum, total));
                cum += w;
                sum += share;
            }
            proptest::prop_assert_eq!(sum, count);
        }
    }
}
