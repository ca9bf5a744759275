//! Graceful-degradation sweep: pod performance vs fraction of failed
//! routers.
//!
//! The thesis sizes pods for peak performance density; this sweep asks
//! the robustness question the other direction — how much of a pod's
//! throughput survives k dead routers? Victims are picked by a seeded
//! draw over the fabric ([`sop_fault::FaultPlan::seeded_router_deaths`])
//! so damage levels nest: the k=4 victim set contains the k=2 set, and
//! the curve is monotone by construction rather than by luck. A dead
//! router takes its co-located cores and LLC slice with it; the
//! surviving machine reroutes, remaps banks, and keeps serving.
//!
//! The resulting curve (relative performance vs failed fraction) is the
//! input to [`sop_tco`]'s availability-derated capacity model: a
//! datacenter that keeps running degraded pods instead of draining them
//! retains the integral under this curve.

use crate::points::{sim_points, SimPoint, SimPointSpec, SpecFaults};
use sop_exec::Exec;
use sop_noc::TopologyKind;
use sop_obs::Json;
use sop_sim::{HaltReason, Machine, SimConfig};
use sop_workloads::Workload;

/// Victim-selection seed for the canonical sweep. Chosen so the deepest
/// damage level leaves the mesh connected (a partitioned pod is a valid
/// outcome, but the canonical curve should show *degradation*, not
/// death).
pub const SWEEP_SEED: u64 = 4;

/// Dead-router counts swept, shallow to deep. Capped at 4 of the 16
/// routers: the canonical seed keeps the mesh connected through k=4 and
/// partitions at k=5, and the canonical curve should end degraded, not
/// dead.
pub const DAMAGE_LEVELS: [u32; 5] = [0, 1, 2, 3, 4];

/// One damage level of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationRow {
    /// Routers killed at cycle 0.
    pub dead_routers: u32,
    /// Fraction of the fabric's routers that are dead.
    pub failed_fraction: f64,
    /// Aggregate IPC of the surviving machine.
    pub aggregate_ipc: f64,
    /// Throughput relative to the healthy machine (1.0 at zero damage;
    /// 0.0 if the machine halted structurally).
    pub relative_performance: f64,
    /// Structured halt, if the damage severed the machine.
    pub halted: Option<HaltReason>,
}

impl DegradationRow {
    /// Report form.
    pub fn to_json(&self) -> Json {
        let doc = Json::object()
            .with("dead_routers", self.dead_routers)
            .with("failed_fraction", self.failed_fraction)
            .with("aggregate_ipc", self.aggregate_ipc)
            .with("relative_performance", self.relative_performance);
        match self.halted {
            Some(h) => doc.with("halted", h.key()),
            None => doc,
        }
    }
}

/// The sweep's simulation specs, one per damage level: the chapter 3
/// validation mesh (16 threads on a 4x4 fabric, where a single router is
/// a meaningful 1/16th of the machine) with `k` routers killed at cycle
/// 0.
pub fn sweep_specs(quick: bool) -> Vec<SimPointSpec> {
    let (warm, measure) = if quick {
        (1_000, 3_000)
    } else {
        (4_000, 10_000)
    };
    DAMAGE_LEVELS
        .iter()
        .map(|&dead| SimPointSpec::Validation {
            workload: Workload::WebSearch,
            cores: 16,
            topology: TopologyKind::Mesh,
            warm,
            measure,
            faults: (dead > 0).then_some(SpecFaults {
                seed: SWEEP_SEED,
                dead,
                cycle: 0,
            }),
        })
        .collect()
}

/// Routers in the sweep machine's fabric (the denominator of
/// `failed_fraction`).
fn router_universe() -> u32 {
    Machine::new(SimConfig::validation(
        Workload::WebSearch,
        16,
        TopologyKind::Mesh,
    ))
    .router_count()
}

/// The sweep's rows from the points of [`sweep_specs`].
pub fn sweep_rows(points: &[SimPoint]) -> Vec<DegradationRow> {
    let routers = router_universe();
    let healthy = points[0].aggregate_ipc;
    DAMAGE_LEVELS
        .iter()
        .zip(points)
        .map(|(&k, p)| DegradationRow {
            dead_routers: k,
            failed_fraction: f64::from(k) / f64::from(routers),
            aggregate_ipc: p.aggregate_ipc,
            relative_performance: if p.halted.is_some() {
                0.0
            } else {
                p.aggregate_ipc / healthy
            },
            halted: p.halted,
        })
        .collect()
}

/// Runs the sweep as one `degradation` campaign on a sequential engine.
pub fn sweep(quick: bool) -> Vec<DegradationRow> {
    sweep_rows(&sim_points(
        &Exec::sequential(),
        "degradation",
        &sweep_specs(quick),
    ))
}

/// The sweep as text, from the points of [`sweep_specs`].
pub fn sweep_text(points: &[SimPoint]) -> String {
    let mut out = String::from("Degradation sweep: WebSearch on the 4x4 validation mesh\n");
    out += "  dead  failed%  agg IPC  relative\n";
    for r in sweep_rows(points) {
        let tail = match r.halted {
            Some(h) => format!("  [{}]", h.key()),
            None => String::new(),
        };
        out += &format!(
            "  {:>4}  {:>6.1}%  {:>7.3}  {:>7.4}{tail}\n",
            r.dead_routers,
            r.failed_fraction * 100.0,
            r.aggregate_ipc,
            r.relative_performance,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_monotone_and_normalised() {
        let rows = sweep(true);
        assert_eq!(rows.len(), DAMAGE_LEVELS.len());
        assert_eq!(rows[0].relative_performance, 1.0);
        assert_eq!(rows[0].halted, None);
        for pair in rows.windows(2) {
            assert!(
                pair[1].relative_performance <= pair[0].relative_performance,
                "more damage must not add throughput: {pair:?}"
            );
            assert!(pair[1].failed_fraction > pair[0].failed_fraction);
        }
        // The canonical seed degrades without severing the fabric.
        assert!(rows.iter().all(|r| r.halted.is_none()), "{rows:?}");
        assert!(rows.last().expect("rows").relative_performance > 0.0);
    }

    #[test]
    fn rows_serialize_halts_only_when_present() {
        let healthy = DegradationRow {
            dead_routers: 0,
            failed_fraction: 0.0,
            aggregate_ipc: 6.0,
            relative_performance: 1.0,
            halted: None,
        };
        assert!(healthy.to_json().get("halted").is_none());
        let severed = DegradationRow {
            halted: Some(HaltReason::Partition),
            ..healthy
        };
        assert_eq!(
            severed.to_json().get("halted").and_then(Json::as_str),
            Some("partition")
        );
    }
}
