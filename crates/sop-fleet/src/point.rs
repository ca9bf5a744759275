//! Cacheable fleet points: one fleet run as a pure `sop-exec` job.
//!
//! Follows the `sop-bench` `SimPointSpec` idiom: a [`FleetPointSpec`]
//! names one run completely — organization, policy, fleet size, seed,
//! and every resolved simulation parameter — so its canonical JSON
//! form is a sound content-address for the result. Evaluation is a
//! pure function of the spec ([`crate::simulate`] is deterministic),
//! so the engine may cache and parallelize fleet campaigns freely
//! without changing a single byte of the report.
//!
//! The result row carries what the fleet report consumes: the costed
//! server ([`ServerSpec`]), run totals, overall p50/p95/p99, cost per
//! sustained QPS, and the tail-latency-vs-utilization curve (windows
//! bucketed by utilization decile with merged histograms).

use sop_exec::{Exec, Job};
use sop_obs::{Histogram, Json, Registry};

use crate::domains::DomainTopology;
use crate::org::{org_by_name, ServerSpec, ORGS};
use crate::resilience::{simulate_resilience, ResilienceParams, RetryPolicy};
use crate::resilience::{SHED_INTERVAL_TICKS, SHED_TARGET_MS};
use crate::sim::{simulate, FleetOutcome, Policy, SimParams};

/// One fully-specified fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPointSpec {
    /// Organization name (must resolve via [`org_by_name`]).
    pub org: String,
    /// Damaged-server posture.
    pub policy: Policy,
    /// Fleet size.
    pub servers: u32,
    /// Run seed.
    pub seed: u64,
    /// Compressed two-hour day instead of a full one.
    pub quick: bool,
    /// Arm per-window time-series export (`--series`): the row gains a
    /// `series` member built post-hoc from the window accounting.
    /// Disarmed runs emit zero new keys and pay zero overhead.
    pub series: bool,
}

impl FleetPointSpec {
    /// Builds the spec for one org × policy cell (series disarmed).
    pub fn new(org: &str, policy: Policy, servers: u32, seed: u64, quick: bool) -> FleetPointSpec {
        FleetPointSpec {
            org: org.to_owned(),
            policy,
            servers,
            seed,
            quick,
            series: false,
        }
    }

    /// Resolves the costed server this spec's fleet is built from.
    ///
    /// # Panics
    ///
    /// Panics on an unknown organization name; the CLI and campaign
    /// validate names before building specs.
    pub fn server(&self) -> ServerSpec {
        server_of(&self.org)
    }

    /// The resolved simulation parameters.
    pub fn params(&self) -> SimParams {
        let per_server_qps = self.server().capacity_qps;
        if self.quick {
            SimParams::quick(self.servers, per_server_qps, self.policy, self.seed)
        } else {
            SimParams::standard(self.servers, per_server_qps, self.policy, self.seed)
        }
    }

    /// Unique human-readable job name.
    pub fn name(&self) -> String {
        format!(
            "fleet/{}/{}/{}s/s{}{}{}",
            self.org,
            self.policy.label(),
            self.servers,
            self.seed,
            if self.quick { "/quick" } else { "" },
            if self.series { "/series" } else { "" }
        )
    }

    /// The spec's cache identity: every resolved parameter that
    /// influences the simulation, so a change to the quick/standard
    /// presets or to an organization's composed capacity re-keys the
    /// entry instead of serving a stale result.
    pub fn to_json(&self) -> Json {
        let p = self.params();
        Json::object()
            .with("kind", "fleet.point")
            .with("org", self.org.as_str())
            .with("policy", self.policy.label())
            .with("servers", self.servers)
            .with("seed", self.seed)
            .with("per_server_qps", p.per_server_qps)
            .with("duration_ticks", p.duration_ticks)
            .with("window_ticks", p.window_ticks)
            .with("peak_util", p.peak_util)
            .with("mtbf_ticks", p.mtbf_ticks)
            .with("mttr_ticks", p.mttr_ticks)
            .with("deadline_ms", p.deadline_ms)
            .with("service_ms", p.service_ms)
            .with("series", self.series)
    }

    /// Runs the fleet and reduces it to a report row. With `series`
    /// armed the row additionally carries the per-window series.
    pub fn evaluate(&self) -> Json {
        self.evaluate_with_work().0
    }

    /// The row plus the run's work, as its job reports it.
    fn evaluate_with_work(&self) -> (Json, Registry) {
        let server = self.server();
        let params = self.params();
        let outcome = simulate(&params);
        let mut doc = row(self, &server, &outcome);
        if self.series {
            doc.insert("series", outcome.series().to_json());
        }
        (doc, ticks_work(&outcome))
    }
}

/// A run's work: the `ticks` (simulated seconds) it advanced.
fn ticks_work(outcome: &FleetOutcome) -> Registry {
    let mut work = Registry::new();
    work.counter_add("ticks", outcome.params.base.duration_ticks);
    work
}

/// The costed server an organization's fleet is built from.
fn server_of(org: &str) -> ServerSpec {
    let org = org_by_name(org).unwrap_or_else(|| panic!("unknown chip organization {org:?}"));
    ServerSpec::for_org(org)
}

fn quantiles(hist: &Histogram) -> [(&'static str, Option<u64>); 3] {
    [
        ("p50_ms", hist.p50()),
        ("p95_ms", hist.p95()),
        ("p99_ms", hist.p99()),
    ]
}

fn with_quantiles(mut doc: Json, hist: &Histogram) -> Json {
    for (key, q) in quantiles(hist) {
        doc.insert(key, q.map_or(Json::Null, Json::UInt));
    }
    doc
}

/// Windows bucketed by offered-utilization decile (`util_pct` is the
/// decile floor in percent; everything at or past 110% pools in the
/// last bin), with merged latency histograms per bin.
fn curve(outcome: &FleetOutcome) -> Json {
    let nominal = outcome.params.base.nominal_capacity();
    const BINS: usize = 12;
    let mut hists: Vec<Histogram> = vec![Histogram::new(); BINS];
    let mut windows = [0u64; BINS];
    let mut offered = [0u64; BINS];
    let mut dropped = [0u64; BINS];
    for w in &outcome.windows {
        let bin = ((w.utilization(nominal) * 10.0) as usize).min(BINS - 1);
        hists[bin].merge(&w.hist);
        windows[bin] += 1;
        offered[bin] += w.offered;
        dropped[bin] += w.dropped;
    }
    Json::Arr(
        (0..BINS)
            .filter(|&b| windows[b] > 0)
            .map(|b| {
                let doc = Json::object()
                    .with("util_pct", (b as u64) * 10)
                    .with("windows", windows[b])
                    .with(
                        "drop_pct",
                        if offered[b] == 0 {
                            0.0
                        } else {
                            100.0 * dropped[b] as f64 / offered[b] as f64
                        },
                    );
                with_quantiles(doc, &hists[b])
            })
            .collect(),
    )
}

fn row(spec: &FleetPointSpec, server: &ServerSpec, outcome: &FleetOutcome) -> Json {
    let fleet_monthly = server.monthly_cost_usd * f64::from(spec.servers);
    let sustained = outcome.goodput_qps();
    let offered_total = outcome.offered();
    let doc = Json::object()
        .with("org", spec.org.as_str())
        .with("policy", spec.policy.label())
        .with("servers", spec.servers)
        .with("seed", spec.seed)
        .with("pods_per_chip", server.pods_per_chip)
        .with("sockets", server.sockets)
        .with("per_server_qps", server.capacity_qps)
        .with("capacity_qps", outcome.params.base.nominal_capacity())
        .with("chip_price_usd", server.chip_price_usd)
        .with("server_monthly_usd", server.monthly_cost_usd)
        .with("fleet_monthly_usd", fleet_monthly)
        .with(
            "offered_qps",
            offered_total as f64 / outcome.params.base.duration_ticks as f64,
        )
        .with("sustained_qps", sustained)
        .with(
            "drop_pct",
            if offered_total == 0 {
                0.0
            } else {
                100.0 * outcome.dropped() as f64 / offered_total as f64
            },
        )
        .with(
            "cost_per_sustained_kqps_usd",
            if sustained > 0.0 {
                Json::Num(fleet_monthly / (sustained / 1000.0))
            } else {
                Json::Null
            },
        );
    with_quantiles(doc, &outcome.latency)
        .with(
            "faults",
            Json::object()
                .with("struck", outcome.faults_struck)
                .with("repaired", outcome.faults_repaired),
        )
        .with(
            "totals",
            Json::object()
                .with("offered", offered_total)
                .with("served", outcome.served())
                .with("dropped", outcome.dropped())
                .with("inflight_end", outcome.totals.inflight_end),
        )
        .with("curve", curve(outcome))
}

/// The default campaign grid: every organization × both policies.
/// `org` / `policy` narrow it to one organization or posture.
pub fn grid(
    servers: u32,
    seed: u64,
    quick: bool,
    org: Option<&str>,
    policy: Option<Policy>,
) -> Vec<FleetPointSpec> {
    ORGS.iter()
        .filter(|o| org.is_none_or(|name| o.name == name))
        .flat_map(|o| {
            Policy::ALL
                .into_iter()
                .filter(|p| policy.is_none_or(|want| want == *p))
                .map(|p| FleetPointSpec::new(o.name, p, servers, seed, quick))
        })
        .collect()
}

/// Evaluates `specs` as one campaign on `exec` (see [`fleet_points`]);
/// a failed job's row is `failed_row` of its spec.
fn points<S: Clone>(
    exec: &Exec,
    campaign: &str,
    specs: &[S],
    job: fn(S) -> Job<'static>,
    failed_row: fn(&S) -> Json,
) -> Vec<Json> {
    let jobs = specs.iter().cloned().map(job).collect();
    exec.run_campaign(campaign, jobs)
        .results
        .iter()
        .zip(specs)
        .map(|(r, spec)| match r {
            Json::Null => failed_row(spec),
            doc => doc.clone(),
        })
        .collect()
}

/// Evaluates `specs` as one campaign on `exec`: duplicates collapse,
/// cached points come from disk, fresh points run on the worker pool,
/// and rows come back in spec order. A failed job's row carries a
/// `failed` marker instead of data so report arrays keep their shape.
pub fn fleet_points(exec: &Exec, campaign: &str, specs: &[FleetPointSpec]) -> Vec<Json> {
    points(
        exec,
        campaign,
        specs,
        |spec| {
            Job::with_work(spec.name(), spec.to_json(), move |_| {
                spec.evaluate_with_work()
            })
        },
        |spec| {
            Json::object()
                .with("org", spec.org.as_str())
                .with("policy", spec.policy.label())
                .with("failed", true)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> FleetPointSpec {
        FleetPointSpec::new("scaleout-ooo", Policy::Derate, 4, 11, true)
    }

    #[test]
    fn identity_covers_the_resolved_parameters() {
        let spec = tiny_spec();
        let id = spec.to_json();
        assert_eq!(id.get("kind").and_then(Json::as_str), Some("fleet.point"));
        for key in [
            "org",
            "policy",
            "servers",
            "seed",
            "per_server_qps",
            "duration_ticks",
            "window_ticks",
            "peak_util",
            "mtbf_ticks",
            "mttr_ticks",
            "deadline_ms",
            "service_ms",
        ] {
            assert!(id.get(key).is_some(), "identity missing {key}");
        }
        // Quick and standard presets must not collide in the cache.
        let slow = FleetPointSpec {
            quick: false,
            ..spec.clone()
        };
        assert_ne!(
            id.to_compact_string(),
            slow.to_json().to_compact_string(),
            "quick flag must re-key the cache entry"
        );
        assert_ne!(spec.name(), slow.name());
    }

    #[test]
    fn grid_covers_orgs_times_policies_and_filters_narrow_it() {
        let all = grid(64, 42, true, None, None);
        assert_eq!(all.len(), ORGS.len() * Policy::ALL.len());
        let one_org = grid(64, 42, true, Some("scaleout-io"), None);
        assert_eq!(one_org.len(), Policy::ALL.len());
        let one_cell = grid(64, 42, true, Some("scaleout-io"), Some(Policy::Drain));
        assert_eq!(one_cell.len(), 1);
        assert!(grid(64, 42, true, Some("nonesuch"), None).is_empty());
    }

    #[test]
    fn row_has_the_headline_metrics_and_exact_totals() {
        let spec = FleetPointSpec {
            servers: 4,
            ..tiny_spec()
        };
        let row = spec.evaluate();
        assert!(row.get("cost_per_sustained_kqps_usd").is_some());
        assert!(row.get("p99_ms").is_some());
        let totals = row.get("totals").expect("totals");
        let n = |k: &str| totals.get(k).and_then(Json::as_f64).expect(k) as u64;
        assert_eq!(
            n("offered"),
            n("served") + n("dropped") + n("inflight_end"),
            "row totals must tile"
        );
        let curve = row.get("curve").expect("curve");
        let Json::Arr(bins) = curve else {
            panic!("curve is an array")
        };
        assert!(bins.len() >= 3, "a full diurnal sweep spans deciles");
    }

    #[test]
    fn engine_evaluation_matches_direct_evaluation() {
        let spec = FleetPointSpec {
            servers: 2,
            ..tiny_spec()
        };
        let direct = spec.evaluate();
        let rows = fleet_points(
            &Exec::with_workers(2),
            "fleet-points-test",
            &[spec.clone(), spec],
        );
        assert_eq!(rows[0].to_compact_string(), direct.to_compact_string());
        assert_eq!(rows[0].to_compact_string(), rows[1].to_compact_string());
    }
}

// ---------------------------------------------------------------------
// Resilience points: one resilience run as a pure `sop-exec` job.

/// One fully-specified resilience run: a fleet point plus domain
/// topology, client behavior, shedder arming, and storm mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePointSpec {
    /// Organization name (must resolve via [`org_by_name`]).
    pub org: String,
    /// Damaged-server posture for chip-level faults.
    pub policy: Policy,
    /// Domain topology label (must resolve via
    /// [`DomainTopology::from_label`]).
    pub topology: String,
    /// Retry policy label (must resolve via [`RetryPolicy::from_label`]).
    pub retry: String,
    /// Whether the overload shedder is armed.
    pub shed: bool,
    /// Scripted-storm mode instead of the seeded ambient processes.
    pub storm: bool,
    /// Fleet size.
    pub servers: u32,
    /// Run seed.
    pub seed: u64,
    /// Compressed two-hour day instead of a full one.
    pub quick: bool,
    /// Arm the SLO monitoring plane: the row gains `series` (per-window
    /// time series) and `slo` (burn-rate analysis with the incident
    /// timeline) members. Disarmed runs emit zero new keys and pay
    /// zero overhead — the series are built post-hoc from window
    /// accounting the simulator collects anyway.
    pub slo: bool,
}

/// The availability target armed rows are judged against: 99.9% of
/// fresh demand eventually served usefully.
pub const SLO_AVAILABILITY_TARGET: f64 = 0.999;

impl ResiliencePointSpec {
    /// Resolves the costed server this spec's fleet is built from.
    ///
    /// # Panics
    ///
    /// Panics on an unknown organization name; the CLI and campaign
    /// validate names before building specs.
    pub fn server(&self) -> ServerSpec {
        server_of(&self.org)
    }

    /// The resolved simulation parameters.
    ///
    /// # Panics
    ///
    /// Panics on an unknown topology or retry label.
    pub fn params(&self) -> ResilienceParams {
        let topology = DomainTopology::from_label(&self.topology)
            .unwrap_or_else(|| panic!("unknown domain topology {:?}", self.topology));
        let retry = RetryPolicy::from_label(&self.retry)
            .unwrap_or_else(|| panic!("unknown retry policy {:?}", self.retry));
        let qps = self.server().capacity_qps;
        let p = if self.quick {
            ResilienceParams::quick(
                self.servers,
                qps,
                self.policy,
                self.seed,
                topology,
                retry,
                self.shed,
            )
        } else {
            ResilienceParams::standard(
                self.servers,
                qps,
                self.policy,
                self.seed,
                topology,
                retry,
                self.shed,
            )
        };
        if self.storm {
            p.storm()
        } else {
            p
        }
    }

    /// Unique human-readable job name.
    pub fn name(&self) -> String {
        format!(
            "resilience/{}/{}/{}/{}{}/{}s/s{}{}{}",
            self.org,
            self.topology,
            self.retry,
            if self.shed { "shed" } else { "noshed" },
            if self.storm { "/storm" } else { "" },
            self.servers,
            self.seed,
            if self.quick { "/quick" } else { "" },
            if self.slo { "/slo" } else { "" }
        )
    }

    /// The spec's cache identity: every resolved parameter that
    /// influences the simulation, including the retry-policy and
    /// shedder constants, so tuning any of them re-keys the cache.
    pub fn to_json(&self) -> Json {
        let p = self.params();
        let b = &p.base;
        Json::object()
            .with("kind", "fleet.resilience.point")
            .with("org", self.org.as_str())
            .with("policy", self.policy.label())
            .with("topology", self.topology.as_str())
            .with("retry", self.retry.as_str())
            .with("shed", self.shed)
            .with("storm", self.storm)
            .with("servers", self.servers)
            .with("seed", self.seed)
            .with("per_server_qps", b.per_server_qps)
            .with("duration_ticks", b.duration_ticks)
            .with("window_ticks", b.window_ticks)
            .with("peak_util", b.peak_util)
            .with("mtbf_ticks", b.mtbf_ticks)
            .with("mttr_ticks", b.mttr_ticks)
            .with("deadline_ms", b.deadline_ms)
            .with("service_ms", b.service_ms)
            .with("timeout_ms", p.retry.timeout_ms)
            .with("max_attempts", u64::from(p.retry.max_attempts))
            .with("backoff_base_ms", p.retry.backoff_base_ms)
            .with("backoff_cap_ms", p.retry.backoff_cap_ms)
            .with("hedge_ms", p.retry.hedge_ms.map_or(Json::Null, Json::UInt))
            .with("rack_size", p.topology.rack_size)
            .with("racks_per_pdu", p.topology.racks_per_pdu)
            .with("pdus_per_agg", p.topology.pdus_per_agg)
            .with("shed_target_ms", SHED_TARGET_MS)
            .with("shed_interval_ticks", SHED_INTERVAL_TICKS)
            .with("slo", self.slo)
            .with("slo_target", SLO_AVAILABILITY_TARGET)
    }

    /// Runs the resilience simulation and reduces it to a report row.
    /// With `slo` armed, the row additionally carries the per-window
    /// `series` and the burn-rate `slo` analysis (availability
    /// objective, standard fast+slow rules, scripted storm cause when
    /// the scenario has one).
    pub fn evaluate(&self) -> Json {
        self.evaluate_with_work().0
    }

    /// The row plus the run's work: its `ticks` and, when armed, the
    /// `slo_fired` and `slo_active` incident counts.
    fn evaluate_with_work(&self) -> (Json, Registry) {
        let server = self.server();
        let outcome = simulate_resilience(&self.params());
        let mut doc = resilience_row(self, &server, &outcome);
        let mut work = ticks_work(&outcome);
        if self.slo {
            let series = outcome.series();
            let cause = outcome.scripted_cause();
            let analysis = sop_obs::slo::evaluate(
                &series,
                &sop_obs::SloSpec::availability(SLO_AVAILABILITY_TARGET),
                &sop_obs::BurnRule::standard(),
                cause.as_ref(),
            );
            work.counter_add("slo_fired", analysis.incidents_total());
            work.counter_add("slo_active", analysis.incidents_active());
            doc.insert("slo", Json::Arr(vec![analysis.to_json()]));
            doc.insert("series", series.to_json());
        }
        (doc, work)
    }
}

/// Per-window goodput-vs-offered curve: the brownout/collapse shape a
/// reader plots directly from the report. Each window also exports its
/// admission-latency deciles (d10..d100, upper bucket bounds in ms) so
/// `sop slo` and external tools see the same tail the shedder saw,
/// instead of only the run-total aggregate.
fn goodput_curve(outcome: &FleetOutcome) -> Json {
    Json::Arr(
        outcome
            .windows
            .iter()
            .map(|w| {
                let deciles: Vec<Json> = (1..=10)
                    .map(|d| {
                        w.hist
                            .try_quantile_upper(d as f64 / 10.0)
                            .map_or(Json::Null, Json::UInt)
                    })
                    .collect();
                Json::object()
                    .with("start_tick", w.start_tick)
                    .with("offered", w.offered)
                    .with("issued", w.issued)
                    .with("goodput", w.goodput)
                    .with("shed", w.shed)
                    .with("lat_decile_ms", Json::Arr(deciles))
            })
            .collect(),
    )
}

fn resilience_row(spec: &ResiliencePointSpec, server: &ServerSpec, out: &FleetOutcome) -> Json {
    let fleet_monthly = server.monthly_cost_usd * f64::from(spec.servers);
    let t = &out.totals;
    let doc = Json::object()
        .with("org", spec.org.as_str())
        .with("policy", spec.policy.label())
        .with("topology", spec.topology.as_str())
        .with("retry", spec.retry.as_str())
        .with("shed", spec.shed)
        .with("storm", spec.storm)
        .with("servers", spec.servers)
        .with("seed", spec.seed)
        .with("per_server_qps", server.capacity_qps)
        .with("capacity_qps", out.params.base.nominal_capacity())
        .with("fleet_monthly_usd", fleet_monthly)
        .with("availability", out.availability())
        .with("retry_amplification", out.retry_amplification())
        .with("shed_fraction", out.shed_fraction())
        .with(
            "offered_qps",
            t.offered as f64 / out.params.base.duration_ticks as f64,
        )
        .with("goodput_qps", out.goodput_qps())
        .with(
            "cost_per_delivered_kqps_usd",
            sop_tco::cost_per_delivered_kqps(fleet_monthly, out.goodput_qps())
                .map_or(Json::Null, Json::Num),
        )
        .with("recovered", out.recovered)
        .with("ttr_ticks", out.ttr_ticks);
    let doc = with_quantiles(doc, &out.latency)
        .with(
            "totals",
            Json::object()
                .with("offered", t.offered)
                .with("issued", t.issued)
                .with("retries", t.retries)
                .with("hedges", t.hedges)
                .with("admitted", t.admitted)
                .with("admitted_useful", t.admitted_useful)
                .with("shed", t.shed)
                .with("overflow", t.overflow)
                .with("blackholed", t.blackholed)
                .with("unreachable", t.unreachable)
                .with("hedge_dropped", t.hedge_dropped)
                .with("perm_failed", t.perm_failed)
                .with("goodput", t.goodput)
                .with("waste_served", t.waste_served)
                .with("failed_inflight", t.failed_inflight)
                .with("lost_waste", t.lost_waste)
                .with("inflight_end", t.inflight_end)
                .with("ejections", t.ejections)
                .with("readmissions", t.readmissions),
        )
        .with(
            "faults",
            Json::object()
                .with("chip_struck", out.faults_struck)
                .with("chip_repaired", out.faults_repaired)
                .with("domain_struck", out.domain_faults.0)
                .with("domain_repaired", out.domain_faults.1),
        )
        .with("curve", goodput_curve(out));
    match out.storm {
        Some(st) => doc.with(
            "storm_stats",
            Json::object()
                .with("start_tick", st.start_tick)
                .with("end_tick", st.end_tick)
                .with("offered", st.offered)
                .with("issued", st.issued)
                .with("goodput", st.goodput)
                .with("capacity", st.capacity)
                .with(
                    "goodput_vs_offered_pct",
                    if st.offered == 0 {
                        0.0
                    } else {
                        100.0 * st.goodput as f64 / st.offered as f64
                    },
                )
                .with(
                    "goodput_vs_capacity_pct",
                    if st.capacity == 0 {
                        0.0
                    } else {
                        100.0 * st.goodput as f64 / st.capacity as f64
                    },
                )
                .with(
                    "amplification",
                    if st.offered == 0 {
                        1.0
                    } else {
                        st.issued as f64 / st.offered as f64
                    },
                ),
        ),
        None => doc,
    }
}

/// The ambient resilience grid for one or all organizations: every
/// topology × retry policy × shedder arming, narrowed by the filters.
pub fn resilience_grid(
    servers: u32,
    seed: u64,
    quick: bool,
    org: Option<&str>,
    topology: Option<&str>,
    retry: Option<&str>,
    shed: Option<bool>,
) -> Vec<ResiliencePointSpec> {
    use crate::domains::TOPOLOGIES;
    use crate::resilience::RETRY_POLICIES;
    let mut specs = Vec::new();
    for o in ORGS.iter().filter(|o| org.is_none_or(|n| o.name == n)) {
        for t in TOPOLOGIES
            .iter()
            .filter(|t| topology.is_none_or(|n| t.label == n))
        {
            for r in RETRY_POLICIES
                .iter()
                .filter(|r| retry.is_none_or(|n| r.label == n))
            {
                for s in [false, true] {
                    if shed.is_none_or(|want| want == s) {
                        specs.push(ResiliencePointSpec {
                            org: o.name.to_owned(),
                            policy: Policy::Derate,
                            topology: t.label.to_owned(),
                            retry: r.label.to_owned(),
                            shed: s,
                            storm: false,
                            servers,
                            seed,
                            quick,
                            slo: false,
                        });
                    }
                }
            }
        }
    }
    specs
}

/// The committed storm experiment: one scripted PDU outage under naive
/// retries, shedder off (the collapse) and on (the brownout). The SLO
/// monitoring plane is armed on both legs — the storm scenario is the
/// committed detection benchmark, so its rows carry the series and the
/// burn-rate incident timeline.
pub fn storm_pair(org: &str, servers: u32, seed: u64, quick: bool) -> Vec<ResiliencePointSpec> {
    [false, true]
        .into_iter()
        .map(|shed| ResiliencePointSpec {
            org: org.to_owned(),
            policy: Policy::Derate,
            topology: "rack".to_owned(),
            retry: "naive".to_owned(),
            shed,
            storm: true,
            servers,
            seed,
            quick,
            slo: true,
        })
        .collect()
}

/// Evaluates resilience `specs` as one campaign on `exec`, as
/// [`fleet_points`] does plain ones.
pub fn resilience_points(exec: &Exec, campaign: &str, specs: &[ResiliencePointSpec]) -> Vec<Json> {
    points(
        exec,
        campaign,
        specs,
        |spec| {
            Job::with_work(spec.name(), spec.to_json(), move |_| {
                spec.evaluate_with_work()
            })
        },
        |spec| {
            Json::object()
                .with("org", spec.org.as_str())
                .with("topology", spec.topology.as_str())
                .with("retry", spec.retry.as_str())
                .with("shed", spec.shed)
                .with("failed", true)
        },
    )
}

/// Folds the `slo` analyses of evaluated rows into `metrics.slo.*`.
/// Counters sum across armed rows; the headline gauges (detection
/// tick, TTD, TTR, detection lead, worst burns) come from the last
/// armed storm row in spec order — the shed-on leg of the committed
/// pair. No-op (zero new metric keys) when no row armed an SLO spec.
pub fn add_slo_metrics(rows: &[Json], reg: &mut Registry) {
    let mut armed = false;
    let mut incidents = 0u64;
    let mut last_storm: Option<&Json> = None;
    for row in rows {
        let Some(analyses) = row.get("slo").and_then(Json::as_arr) else {
            continue;
        };
        armed = true;
        for a in analyses {
            for rule in a.get("rules").and_then(Json::as_arr).unwrap_or(&[]) {
                incidents += rule
                    .get("incidents")
                    .and_then(Json::as_arr)
                    .map_or(0, |i| i.len() as u64);
            }
        }
        if matches!(row.get("storm"), Some(Json::Bool(true))) {
            last_storm = Some(row);
        }
    }
    if !armed {
        return;
    }
    reg.counter_add("slo.incidents", incidents);
    if let Some(row) = last_storm {
        let analysis = row
            .get("slo")
            .and_then(Json::as_arr)
            .and_then(<[Json]>::first);
        let gauge = |reg: &mut Registry, key: &str, v: Option<f64>| {
            if let Some(v) = v {
                reg.gauge_set(key, v);
            }
        };
        let ttd = analysis
            .and_then(|a| a.get("ttd_ticks"))
            .and_then(Json::as_f64);
        let ttr = row.get("ttr_ticks").and_then(Json::as_f64);
        gauge(
            reg,
            "slo.detection_tick",
            analysis
                .and_then(|a| a.get("detection_tick"))
                .and_then(Json::as_f64),
        );
        gauge(reg, "slo.ttd_ticks", ttd);
        gauge(reg, "slo.ttr_ticks", ttr);
        gauge(
            reg,
            "slo.detection_lead_ticks",
            match (ttd, ttr) {
                (Some(d), Some(r)) => Some(r - d),
                _ => None,
            },
        );
        for (label, key) in [("fast", "slo.max_burn_fast"), ("slow", "slo.max_burn_slow")] {
            let burn = analysis
                .and_then(|a| a.get("rules"))
                .and_then(Json::as_arr)
                .and_then(|rules| {
                    rules
                        .iter()
                        .find(|r| r.get("label").and_then(Json::as_str) == Some(label))
                })
                .and_then(|r| r.get("max_short_burn"))
                .and_then(Json::as_f64);
            gauge(reg, key, burn);
        }
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use sop_exec::Exec;

    fn tiny() -> ResiliencePointSpec {
        ResiliencePointSpec {
            org: "scaleout-ooo".to_owned(),
            policy: Policy::Derate,
            topology: "rack".to_owned(),
            retry: "backoff".to_owned(),
            shed: true,
            storm: false,
            servers: 8,
            seed: 11,
            quick: true,
            slo: false,
        }
    }

    #[test]
    fn identity_covers_resolved_client_and_topology_parameters() {
        let id = tiny().to_json();
        assert_eq!(
            id.get("kind").and_then(Json::as_str),
            Some("fleet.resilience.point")
        );
        for key in [
            "topology",
            "retry",
            "shed",
            "storm",
            "timeout_ms",
            "max_attempts",
            "backoff_base_ms",
            "backoff_cap_ms",
            "hedge_ms",
            "rack_size",
            "shed_target_ms",
            "deadline_ms",
        ] {
            assert!(id.get(key).is_some(), "identity missing {key}");
        }
        let mut other = tiny();
        other.shed = false;
        assert_ne!(
            id.to_compact_string(),
            other.to_json().to_compact_string(),
            "shed arming must re-key the cache entry"
        );
        assert_ne!(tiny().name(), other.name());
    }

    #[test]
    fn storm_row_carries_the_collapse_evidence() {
        let spec = &storm_pair("scaleout-ooo", 16, 42, true)[0];
        assert!(!spec.shed && spec.storm);
        let row = spec.evaluate();
        let st = row.get("storm_stats").expect("storm stats present");
        assert!(st.get("goodput_vs_offered_pct").is_some());
        assert!(st.get("amplification").is_some());
        assert!(row.get("cost_per_delivered_kqps_usd").is_some());
        let Some(Json::Arr(curve)) = row.get("curve") else {
            panic!("curve is an array")
        };
        assert_eq!(curve.len(), 24, "quick preset has 24 windows");
        // Every window exports its admission-latency deciles.
        for bin in curve {
            let deciles = bin
                .get("lat_decile_ms")
                .and_then(Json::as_arr)
                .expect("deciles");
            assert_eq!(deciles.len(), 10);
        }
    }

    #[test]
    fn disarmed_rows_carry_no_series_or_slo_keys() {
        let row = tiny().evaluate();
        assert!(row.get("series").is_none(), "disarmed row leaked series");
        assert!(row.get("slo").is_none(), "disarmed row leaked slo");
        let mut reg = Registry::new();
        add_slo_metrics(&[row], &mut reg);
        assert!(reg.iter().next().is_none(), "disarmed rows emit no metrics");
    }

    #[test]
    fn armed_storm_row_detects_the_outage_before_repair() {
        let spec = &storm_pair("scaleout-ooo", 16, 42, true)[1];
        assert!(spec.slo && spec.shed);
        assert!(spec.name().ends_with("/slo"));
        assert!(matches!(spec.to_json().get("slo"), Some(Json::Bool(true))));
        let row = spec.evaluate();
        assert!(row.get("series").is_some(), "armed row exports series");
        let analyses = row.get("slo").and_then(Json::as_arr).expect("slo analyses");
        let detection = analyses[0]
            .get("detection_tick")
            .and_then(Json::as_f64)
            .expect("storm must be detected") as u64;
        let repair = row
            .get("storm_stats")
            .and_then(|s| s.get("end_tick"))
            .and_then(Json::as_f64)
            .expect("storm stats") as u64;
        assert!(
            detection < repair,
            "detection {detection} vs repair {repair}"
        );
        let mut reg = Registry::new();
        add_slo_metrics(&[row], &mut reg);
        let m = reg.to_json();
        assert_eq!(m.get("slo.ttd_ticks").and_then(Json::as_f64), Some(300.0));
        assert!(m.get("slo.detection_tick").is_some());
        assert!(m.get("slo.max_burn_fast").and_then(Json::as_f64).unwrap() > 14.4);
        assert!(m.get("slo.incidents").and_then(Json::as_f64).unwrap() >= 1.0);
    }

    #[test]
    fn grid_filters_narrow_the_sweep() {
        let all = resilience_grid(8, 42, true, Some("scaleout-ooo"), None, None, None);
        assert_eq!(all.len(), 3 * 4 * 2, "topologies x retries x shed");
        let one = resilience_grid(
            8,
            42,
            true,
            Some("scaleout-ooo"),
            Some("flat"),
            Some("naive"),
            Some(false),
        );
        assert_eq!(one.len(), 1);
        assert!(resilience_grid(8, 42, true, Some("nonesuch"), None, None, None).is_empty());
    }

    #[test]
    fn engine_evaluation_matches_direct_evaluation() {
        let mut spec = tiny();
        spec.servers = 4;
        let direct = spec.evaluate();
        let rows = resilience_points(
            &Exec::with_workers(2),
            "resilience-points-test",
            &[spec.clone(), spec],
        );
        assert_eq!(rows[0].to_compact_string(), direct.to_compact_string());
        assert_eq!(rows[0].to_compact_string(), rows[1].to_compact_string());
    }
}
