//! Cacheable simulation points: the unit of work the execution engine
//! schedules and memoizes.
//!
//! A [`SimPointSpec`] names one cycle-level simulation completely — the
//! preset, workload, fabric, overrides, and window lengths — so its
//! canonical JSON form is a sound content-address for the result. The
//! corresponding [`SimPoint`] carries only the scalars the figures
//! consume, keeping cache entries small and the figures honest about
//! what they depend on.
//!
//! The simulator is deterministic for a given config (fixed seed), so
//! evaluating a spec is a pure function and the cache never changes a
//! figure, only how fast it appears.

use sop_exec::{Exec, Job};
use sop_fault::FaultPlan;
use sop_noc::TopologyKind;
use sop_obs::{Json, Registry};
use sop_sim::{HaltReason, Machine, SimConfig};
use sop_workloads::Workload;

/// A seeded router-death schedule attached to a spec: `dead` distinct
/// routers (chosen by `seed` over the machine's fabric) die at `cycle`.
/// Kept `Copy`-small so specs stay plain values; the concrete
/// [`FaultPlan`] is expanded at evaluation time once the router universe
/// is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecFaults {
    /// Victim-selection seed.
    pub seed: u64,
    /// Number of routers killed.
    pub dead: u32,
    /// Cycle at which they all die.
    pub cycle: u64,
}

impl SpecFaults {
    /// Cache-identity form.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("seed", self.seed)
            .with("dead_routers", self.dead)
            .with("cycle", self.cycle)
    }
}

/// One fully-specified cycle-level simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPointSpec {
    /// The chapter 3 model-validation machine (`SimConfig::validation`).
    Validation {
        /// Workload simulated.
        workload: Workload,
        /// Core count.
        cores: u32,
        /// Fabric.
        topology: TopologyKind,
        /// Warm-up cycles.
        warm: u64,
        /// Measured cycles.
        measure: u64,
        /// Injected faults (`None` for the healthy machine; absent from
        /// the cache identity when `None` so pre-fault entries stay
        /// valid).
        faults: Option<SpecFaults>,
    },
    /// The chapter 4 64-core pod (`SimConfig::pod_64`), with the
    /// ablations' knobs exposed.
    Pod64 {
        /// Workload simulated.
        workload: Workload,
        /// Fabric.
        topology: TopologyKind,
        /// NOC link width in bits.
        link_bits: u32,
        /// LLC tile count override (`None` keeps the preset's value).
        llc_tiles: Option<u32>,
        /// Warm-up cycles.
        warm: u64,
        /// Measured cycles.
        measure: u64,
        /// Injected faults (`None` for the healthy machine; absent from
        /// the cache identity when `None` so pre-fault entries stay
        /// valid).
        faults: Option<SpecFaults>,
    },
}

impl SimPointSpec {
    /// The spec's cache identity. Every field that influences the
    /// simulation appears here; the seed is fixed by the presets.
    pub fn to_json(&self) -> Json {
        let (doc, faults) = match *self {
            SimPointSpec::Validation {
                workload,
                cores,
                topology,
                warm,
                measure,
                faults,
            } => (
                Json::object()
                    .with("kind", "sim.validation")
                    .with("workload", workload.label())
                    .with("cores", cores)
                    .with("topology", format!("{topology:?}").as_str())
                    .with("warm", warm)
                    .with("measure", measure),
                faults,
            ),
            SimPointSpec::Pod64 {
                workload,
                topology,
                link_bits,
                llc_tiles,
                warm,
                measure,
                faults,
            } => (
                Json::object()
                    .with("kind", "sim.pod64")
                    .with("workload", workload.label())
                    .with("topology", format!("{topology:?}").as_str())
                    .with("link_bits", link_bits)
                    .with(
                        "llc_tiles",
                        llc_tiles.map_or(Json::Null, |t| Json::UInt(u64::from(t))),
                    )
                    .with("warm", warm)
                    .with("measure", measure),
                faults,
            ),
        };
        // Only faulted specs carry the key: healthy specs hash exactly as
        // they did before fault injection existed, preserving caches.
        match faults {
            Some(f) => doc.with("faults", f.to_json()),
            None => doc,
        }
    }

    /// A short label for job summaries and progress output.
    pub fn name(&self) -> String {
        let base = match *self {
            SimPointSpec::Validation {
                workload,
                cores,
                topology,
                ..
            } => format!("val/{}/{topology:?}/{cores}c", workload.label()),
            SimPointSpec::Pod64 {
                workload,
                topology,
                link_bits,
                llc_tiles,
                ..
            } => match llc_tiles {
                Some(t) => format!("pod/{}/{topology:?}/{link_bits}b/{t}t", workload.label()),
                None => format!("pod/{}/{topology:?}/{link_bits}b", workload.label()),
            },
        };
        match self.faults() {
            Some(f) => format!("{base}/kill{}r@{}s{}", f.dead, f.cycle, f.seed),
            None => base,
        }
    }

    /// The timed cycles a run of this spec simulates: warm-up plus
    /// measurement.
    fn cycles(&self) -> u64 {
        let (_, warm, measure) = self.config();
        warm + measure
    }

    /// The spec's fault schedule, if any.
    pub fn faults(&self) -> Option<SpecFaults> {
        match *self {
            SimPointSpec::Validation { faults, .. } | SimPointSpec::Pod64 { faults, .. } => faults,
        }
    }

    /// The same spec with `faults` attached (sweep construction).
    pub fn with_faults(mut self, f: Option<SpecFaults>) -> Self {
        match &mut self {
            SimPointSpec::Validation { faults, .. } | SimPointSpec::Pod64 { faults, .. } => {
                *faults = f;
            }
        }
        self
    }

    /// The machine this spec simulates, with its timed warm-up and
    /// measured cycles.
    fn config(&self) -> (SimConfig, u64, u64) {
        match *self {
            SimPointSpec::Validation {
                workload,
                cores,
                topology,
                warm,
                measure,
                ..
            } => (
                SimConfig::validation(workload, cores, topology),
                warm,
                measure,
            ),
            SimPointSpec::Pod64 {
                workload,
                topology,
                link_bits,
                llc_tiles,
                warm,
                measure,
                ..
            } => {
                let mut cfg = SimConfig::pod_64(workload, topology);
                cfg.noc = cfg.noc.with_link_bits(link_bits);
                if let Some(tiles) = llc_tiles {
                    cfg.noc.llc_tiles = tiles;
                }
                (cfg, warm, measure)
            }
        }
    }

    /// Runs the simulation this spec describes.
    pub fn evaluate(&self) -> SimPoint {
        let (cfg, warm, measure) = self.config();
        let mut m = Machine::new(cfg);
        if let Some(f) = self.faults() {
            let plan = FaultPlan::seeded_router_deaths(f.seed, f.dead, m.router_count(), f.cycle);
            m.set_fault_plan(&plan);
        }
        let r = m.run(warm, measure);
        SimPoint {
            aggregate_ipc: r.aggregate_ipc(),
            per_core_ipc: r.per_core_ipc(),
            snoop_fraction: r.snoop_fraction(),
            mean_packet_latency: r.mean_packet_latency,
            noc_flit_hops: r.noc_flit_hops,
            noc_flit_mm: r.noc_flit_mm,
            halted: r.halted,
        }
    }
}

/// The scalars a simulation point yields — everything the figures read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPoint {
    /// Aggregate application IPC.
    pub aggregate_ipc: f64,
    /// Per-core application IPC.
    pub per_core_ipc: f64,
    /// Fraction of LLC accesses that triggered a snoop.
    pub snoop_fraction: f64,
    /// Mean NOC packet latency in cycles.
    pub mean_packet_latency: f64,
    /// Flit-hops through routers during the window.
    pub noc_flit_hops: u64,
    /// Flit-millimetres of wire traversed during the window.
    pub noc_flit_mm: f64,
    /// Structured early-stop outcome (`None` for a healthy run; only
    /// faulted machines ever halt).
    pub halted: Option<HaltReason>,
}

impl SimPoint {
    /// Serializes for the result cache.
    pub fn to_json(&self) -> Json {
        let doc = Json::object()
            .with("aggregate_ipc", self.aggregate_ipc)
            .with("per_core_ipc", self.per_core_ipc)
            .with("snoop_fraction", self.snoop_fraction)
            .with("mean_packet_latency", self.mean_packet_latency)
            .with("noc_flit_hops", self.noc_flit_hops)
            .with("noc_flit_mm", self.noc_flit_mm);
        // Written only when set: healthy results stay byte-identical to
        // their pre-fault form.
        match self.halted {
            Some(h) => doc.with("halted", h.key()),
            None => doc,
        }
    }

    /// The placeholder for a job that failed: every scalar is NaN so a
    /// poisoned value can never silently pass a golden check.
    pub fn failed() -> Self {
        SimPoint {
            aggregate_ipc: f64::NAN,
            per_core_ipc: f64::NAN,
            snoop_fraction: f64::NAN,
            mean_packet_latency: f64::NAN,
            noc_flit_hops: 0,
            noc_flit_mm: f64::NAN,
            halted: None,
        }
    }

    /// Deserializes a cached result.
    ///
    /// # Panics
    ///
    /// Panics if a field is missing — the cache validates entries by
    /// content hash, so a well-formed entry always round-trips.
    pub fn from_json(doc: &Json) -> Self {
        let f = |k: &str| doc.get(k).and_then(Json::as_f64).expect("sim point field");
        SimPoint {
            aggregate_ipc: f("aggregate_ipc"),
            per_core_ipc: f("per_core_ipc"),
            snoop_fraction: f("snoop_fraction"),
            mean_packet_latency: f("mean_packet_latency"),
            noc_flit_hops: f("noc_flit_hops") as u64,
            noc_flit_mm: f("noc_flit_mm"),
            halted: doc
                .get("halted")
                .and_then(Json::as_str)
                .and_then(HaltReason::from_key),
        }
    }
}

/// Evaluates `specs` as one campaign on `exec`: duplicates collapse,
/// cached points are served from disk, fresh points run on the worker
/// pool, and the results come back in spec order. Jobs go in
/// [`WarmKey`](sop_sim::warmup::WarmKey) order, trace-sharing points under
/// one affinity key, so a worker's warm-up slot serves the next point.
pub fn sim_points(exec: &Exec, campaign: &str, specs: &[SimPointSpec]) -> Vec<SimPoint> {
    let keys: Vec<_> = specs.iter().map(|s| s.config().0.warm_key()).collect();
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| &keys[i]);
    let mut trace = 0;
    let jobs: Vec<Job<'_>> = order
        .iter()
        .enumerate()
        .map(|(n, &i)| {
            if n > 0 && !keys[order[n - 1]].shares_trace(&keys[i]) {
                trace = n as u64;
            }
            let spec = specs[i];
            let mut job = Job::with_work(spec.name(), spec.to_json(), move |_| {
                let mut work = Registry::new();
                work.counter_add("cycles", spec.cycles());
                (spec.evaluate().to_json(), work)
            });
            job.affinity = Some(trace);
            job
        })
        .collect();
    let results = exec.run_campaign(campaign, jobs).results;
    let mut points = vec![SimPoint::failed(); specs.len()];
    for (&i, r) in order.iter().zip(&results) {
        // A failed job's `Json::Null` slot stays a poisoned point; the
        // caller's report carries the failure details.
        if *r != Json::Null {
            points[i] = SimPoint::from_json(r);
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> SimPointSpec {
        SimPointSpec::Pod64 {
            workload: Workload::WebSearch,
            topology: TopologyKind::NocOut,
            link_bits: 128,
            llc_tiles: None,
            warm: 500,
            measure: 1_000,
            faults: None,
        }
    }

    #[test]
    fn point_round_trips_through_json() {
        let p = SimPoint {
            aggregate_ipc: 21.5,
            per_core_ipc: 0.34,
            snoop_fraction: 0.027,
            mean_packet_latency: 14.2,
            noc_flit_hops: 123_456,
            noc_flit_mm: 789.25,
            halted: Some(HaltReason::Partition),
        };
        assert_eq!(SimPoint::from_json(&p.to_json()), p);
    }

    #[test]
    fn evaluating_through_the_engine_matches_direct_evaluation() {
        let a = sample_spec();
        // A different warm key: sorting moves it ahead of `a`.
        let b = SimPointSpec::Validation {
            workload: Workload::DataServing,
            cores: 4,
            topology: TopologyKind::Mesh,
            warm: 500,
            measure: 1_000,
            faults: None,
        };
        assert_ne!(a.config().0.warm_key(), b.config().0.warm_key());
        for specs in [vec![a, a], vec![a, b, a]] {
            let direct: Vec<SimPoint> = specs.iter().map(SimPointSpec::evaluate).collect();
            let via_engine = sim_points(&Exec::with_workers(2), "points-test", &specs);
            assert_eq!(via_engine, direct);
        }
    }

    #[test]
    fn llc_tile_override_changes_the_identity_and_the_result() {
        let base = sample_spec();
        let SimPointSpec::Pod64 {
            workload,
            topology,
            link_bits,
            warm,
            measure,
            ..
        } = base
        else {
            unreachable!()
        };
        let overridden = SimPointSpec::Pod64 {
            workload,
            topology,
            link_bits,
            llc_tiles: Some(4),
            warm,
            measure,
            faults: None,
        };
        assert_ne!(
            sop_exec::spec_hash(&base.to_json()),
            sop_exec::spec_hash(&overridden.to_json())
        );
    }
}
