//! Design-space sweep helpers for the chapter 2/3 figures.

use crate::interconnect::Interconnect;
use crate::perf::DesignPoint;
use sop_tech::CoreKind;
use sop_workloads::{Workload, WorkloadProfile};

/// One evaluated point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Core count at this point.
    pub cores: u32,
    /// LLC capacity in MB at this point.
    pub llc_mb: f64,
    /// Per-core application IPC (averaged across workloads unless the
    /// sweep was per-workload).
    pub per_core_ipc: f64,
}

impl SweepPoint {
    /// Aggregate IPC of the whole design at this point.
    pub fn aggregate_ipc(&self) -> f64 {
        self.per_core_ipc * f64::from(self.cores)
    }
}

/// Sweeps LLC capacity for a fixed core count (the Fig 2.2 experiment),
/// returning one point per capacity for the given workload.
pub fn capacity_sweep(
    kind: CoreKind,
    cores: u32,
    capacities_mb: &[f64],
    interconnect: Interconnect,
    workload: Workload,
) -> Vec<SweepPoint> {
    capacities_mb
        .iter()
        .map(|&mb| SweepPoint {
            cores,
            llc_mb: mb,
            per_core_ipc: DesignPoint::new(kind, cores, mb, interconnect)
                .evaluate(workload)
                .per_core_ipc,
        })
        .collect()
}

/// Sweeps core count for a fixed LLC capacity (the Fig 2.3 / Fig 3.4
/// experiments), averaging across all workloads.
pub fn core_count_sweep(
    kind: CoreKind,
    core_counts: &[u32],
    llc_mb: f64,
    interconnect: Interconnect,
) -> Vec<SweepPoint> {
    core_counts
        .iter()
        .map(|&n| SweepPoint {
            cores: n,
            llc_mb,
            per_core_ipc: DesignPoint::new(kind, n, llc_mb, interconnect).mean_per_core_ipc(),
        })
        .collect()
}

/// Per-core IPC of a design averaged over an explicit workload subset
/// (used when a workload does not scale to the design's core count).
pub fn average_per_core_ipc(design: &DesignPoint, workloads: &[Workload]) -> f64 {
    assert!(!workloads.is_empty(), "need at least one workload");
    workloads
        .iter()
        .map(|&w| {
            design
                .evaluate_profile(&WorkloadProfile::of(w))
                .per_core_ipc
        })
        .sum::<f64>()
        / workloads.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_sweep_covers_requested_points() {
        let pts = capacity_sweep(
            CoreKind::OutOfOrder,
            4,
            &[1.0, 2.0, 4.0],
            Interconnect::Crossbar,
            Workload::WebSearch,
        );
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].llc_mb, 1.0);
        assert_eq!(pts[2].llc_mb, 4.0);
    }

    #[test]
    fn core_sweep_aggregate_grows_with_cores() {
        let pts = core_count_sweep(
            CoreKind::OutOfOrder,
            &[1, 4, 16, 64],
            4.0,
            Interconnect::Ideal,
        );
        for pair in pts.windows(2) {
            assert!(pair[1].aggregate_ipc() > pair[0].aggregate_ipc());
        }
    }

    #[test]
    fn per_core_ipc_falls_with_cores_on_mesh() {
        let pts = core_count_sweep(CoreKind::OutOfOrder, &[4, 16, 64], 4.0, Interconnect::Mesh);
        for pair in pts.windows(2) {
            assert!(pair[1].per_core_ipc < pair[0].per_core_ipc);
        }
    }

    #[test]
    fn subset_average_matches_single_workload() {
        let d = DesignPoint::new(CoreKind::InOrder, 8, 2.0, Interconnect::Crossbar);
        let one = average_per_core_ipc(&d, &[Workload::SatSolver]);
        assert!((one - d.evaluate(Workload::SatSolver).per_core_ipc).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_subset_panics() {
        let d = DesignPoint::new(CoreKind::InOrder, 8, 2.0, Interconnect::Crossbar);
        average_per_core_ipc(&d, &[]);
    }
}
