//! Chapter 3: the scale-out design methodology (Figs 3.1, 3.3–3.6,
//! Table 3.2).

use crate::points::{SimPoint, SimPointSpec};
use sop_core::designs::{reference_chip, DesignKind};
use sop_core::pod::{optimal_pod, preferred_pod, PodSearchSpace};
use sop_core::PodConfig;
use sop_model::{DesignPoint, Interconnect};
use sop_noc::TopologyKind;
use sop_tech::{CoreKind, TechnologyNode};
use sop_workloads::Workload;

/// Fig 3.1: per-core perf, chip perf, and PD for a hypothetical workload
/// as core count grows (fixed 4MB LLC, crossbar). Returns rows of
/// (cores, per-core, per-chip, pd).
pub fn fig3_1() -> Vec<(u32, f64, f64, f64)> {
    [1u32, 2, 4, 8, 16, 32, 64, 128, 256]
        .iter()
        .map(|&n| {
            let m = PodConfig::new(CoreKind::OutOfOrder, n, 4.0, Interconnect::Crossbar).metrics();
            (n, m.per_core_ipc, m.aggregate_ipc, m.performance_density)
        })
        .collect()
}

/// Fig 3.1 as text.
pub fn fig3_1_text() -> String {
    let mut out =
        String::from("Fig 3.1 — perf/core, perf/chip, perf/mm2 vs core count (4MB, crossbar)\n");
    out += &format!(
        "  {:>6} {:>10} {:>10} {:>10}\n",
        "cores", "per-core", "per-chip", "PD"
    );
    for (n, u, agg, pd) in fig3_1() {
        out += &format!("  {n:>6} {u:>10.3} {agg:>10.2} {pd:>10.4}\n");
    }
    out
}

/// The core counts Fig 3.3 simulates per workload (Table 3.1 CMP sizes).
pub fn fig3_3_core_counts(w: Workload) -> Vec<u32> {
    match w {
        Workload::MediaStreaming => vec![4, 8, 16],
        Workload::WebFrontend | Workload::WebSearch => vec![1, 2, 4, 8, 16, 32],
        _ => vec![1, 2, 4, 8, 16, 32, 64],
    }
}

/// One Fig 3.3 comparison point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationPoint {
    /// Workload simulated.
    pub workload: Workload,
    /// Interconnect.
    pub topology: TopologyKind,
    /// Cores.
    pub cores: u32,
    /// Cycle-level simulation per-core IPC.
    pub simulated_ipc: f64,
    /// Analytic-model per-core IPC.
    pub modeled_ipc: f64,
}

impl ValidationPoint {
    /// Relative model error versus simulation.
    pub fn error(&self) -> f64 {
        (self.modeled_ipc - self.simulated_ipc).abs() / self.simulated_ipc
    }
}

fn model_interconnect(topology: TopologyKind) -> Interconnect {
    match topology {
        TopologyKind::Mesh => Interconnect::Mesh,
        TopologyKind::Crossbar => Interconnect::Crossbar,
        TopologyKind::Ideal => Interconnect::Ideal,
        TopologyKind::FlattenedButterfly => Interconnect::FlattenedButterfly,
        TopologyKind::NocOut => Interconnect::NocOut,
    }
}

/// The simulation specs behind one Fig 3.3 workload/fabric pair.
pub fn fig3_3_specs(workload: Workload, topology: TopologyKind, quick: bool) -> Vec<SimPointSpec> {
    let (warm, measure) = if quick {
        (1_500, 3_000)
    } else {
        (6_000, 12_000)
    };
    fig3_3_core_counts(workload)
        .into_iter()
        .map(|cores| SimPointSpec::Validation {
            workload,
            cores,
            topology,
            warm,
            measure,
            faults: None,
        })
        .collect()
}

/// The simulation specs behind the whole of Fig 3.3, in figure order:
/// every workload under the ideal, crossbar and mesh fabrics.
pub fn fig3_3_all_specs(quick: bool) -> Vec<SimPointSpec> {
    [
        TopologyKind::Ideal,
        TopologyKind::Crossbar,
        TopologyKind::Mesh,
    ]
    .into_iter()
    .flat_map(|t| {
        Workload::ALL
            .into_iter()
            .map(move |w| fig3_3_specs(w, t, quick))
    })
    .flatten()
    .collect()
}

/// Combines evaluated simulation points with the analytic model into
/// Fig 3.3's comparison rows. `specs` and `points` must correspond.
pub fn fig3_3_rows(specs: &[SimPointSpec], points: &[SimPoint]) -> Vec<ValidationPoint> {
    specs
        .iter()
        .zip(points)
        .map(|(spec, sim)| {
            let SimPointSpec::Validation {
                workload,
                cores,
                topology,
                ..
            } = *spec
            else {
                panic!("fig3.3 uses validation specs only")
            };
            let model = DesignPoint::new(
                CoreKind::OutOfOrder,
                cores,
                4.0,
                model_interconnect(topology),
            )
            .at_node(TechnologyNode::N40)
            .evaluate(workload);
            ValidationPoint {
                workload,
                topology,
                cores,
                simulated_ipc: sim.per_core_ipc,
                modeled_ipc: model.per_core_ipc,
            }
        })
        .collect()
}

/// Fig 3.3 for every workload and fabric as text, with error
/// statistics, from the points of [`fig3_3_all_specs`].
pub fn fig3_3_text(points: &[SimPoint], quick: bool) -> String {
    let rows = fig3_3_rows(&fig3_3_all_specs(quick), points);
    let mut out = String::from(
        "Fig 3.3 — analytic model (lines) vs cycle-level simulation (markers)\n          \
         per-core application IPC, 4MB LLC, OoO cores\n",
    );
    let mut small = sop_model::ErrorStats::new();
    let mut large = sop_model::ErrorStats::new();
    let mut current_topology = None;
    for pts in rows.chunk_by(|a, b| (a.topology, a.workload) == (b.topology, b.workload)) {
        let (topology, w) = (pts[0].topology, pts[0].workload);
        if current_topology != Some(topology) {
            current_topology = Some(topology);
            out += &format!("  == {topology:?} ==\n");
        }
        for p in pts {
            // A degraded, halted, or failed point (fault injection, job
            // failure) has no meaningful model error; keep it out of the
            // statistics instead of panicking on a non-positive IPC.
            if p.simulated_ipc.is_nan() || p.simulated_ipc <= 0.0 {
                continue;
            }
            if p.cores <= 16 {
                small.record(p.modeled_ipc, p.simulated_ipc);
            } else {
                large.record(p.modeled_ipc, p.simulated_ipc);
            }
        }
        let sim: Vec<String> = pts
            .iter()
            .map(|p| format!("{}c:{:.2}", p.cores, p.simulated_ipc))
            .collect();
        let model: Vec<String> = pts
            .iter()
            .map(|p| format!("{:.2}", p.modeled_ipc))
            .collect();
        out += &format!("    {:16} sim   {}\n", w.label(), sim.join(" "));
        out += &format!("    {:16} model {}\n", "", model.join("    "));
    }
    if small.is_empty() || large.is_empty() {
        out += "  model error statistics skipped (degraded or failed points)\n";
        return out;
    }
    out += &format!(
        "  model error <=16 cores: mean {:.0}%, bias {:+.0}%, correlation {:.2}\n",
        small.mean_abs_error() * 100.0,
        small.bias() * 100.0,
        small.correlation()
    );
    out += &format!(
        "  model error  >16 cores: mean {:.0}%, bias {:+.0}% (software scalability\n",
        large.mean_abs_error() * 100.0,
        large.bias() * 100.0
    );
    out += "  pushes measured performance below the model, as in §3.4.1)\n";
    out
}

/// Fig 3.4/3.6: PD across core counts for each LLC size and fabric.
pub fn pd_sweep(kind: CoreKind, llc_mb: f64, interconnect: Interconnect) -> Vec<(u32, f64)> {
    [1u32, 2, 4, 8, 16, 32, 64, 128, 256]
        .iter()
        .map(|&n| {
            let m = PodConfig::new(kind, n, llc_mb, interconnect).metrics();
            (n, m.performance_density)
        })
        .collect()
}

/// Fig 3.4 (OoO) or Fig 3.6 (in-order) as text.
pub fn pd_sweep_text(kind: CoreKind) -> String {
    let fig = if kind == CoreKind::OutOfOrder {
        "3.4"
    } else {
        "3.6"
    };
    let mut out = format!("Fig {fig} — performance density, {kind:?} cores, 40nm\n");
    for ic in Interconnect::POD_CANDIDATES {
        out += &format!("  == {ic} ==\n");
        for mb in [1.0, 2.0, 4.0, 8.0] {
            let row: Vec<String> = pd_sweep(kind, mb, ic)
                .iter()
                .map(|(n, pd)| format!("{n}c:{pd:.4}"))
                .collect();
            out += &format!("    {mb}MB  {}\n", row.join(" "));
        }
    }
    out
}

/// Fig 3.5 (crossbar pods across LLC sizes and the selected pod) as
/// text.
pub fn fig3_5_text() -> String {
    let mut out =
        String::from("Fig 3.5 — PD of crossbar pods (OoO) and the selected 16c/4MB pod\n");
    for mb in [1.0, 2.0, 4.0, 8.0] {
        let row: Vec<String> = pd_sweep(CoreKind::OutOfOrder, mb, Interconnect::Crossbar)
            .iter()
            .map(|(n, pd)| format!("{n}c:{pd:.4}"))
            .collect();
        out += &format!("  {mb}MB  {}\n", row.join(" "));
    }
    let space = PodSearchSpace::thesis_chapter3(CoreKind::OutOfOrder, TechnologyNode::N40);
    let opt = optimal_pod(&space);
    let pick = preferred_pod(&space, 0.05);
    out += &format!(
        "  optimum: {}c/{}MB (PD {:.4}); selected pod: {}c/{}MB (PD {:.4}, {:.1}mm2, {:.1}W, {:.1}GB/s)\n",
        opt.config.cores,
        opt.config.llc_mb,
        opt.performance_density,
        pick.config.cores,
        pick.config.llc_mb,
        pick.performance_density,
        pick.area_mm2,
        pick.power_w,
        pick.bandwidth_gbps
    );
    out
}

/// The §3.4.5 energy decomposition as text: where each chip's
/// picojoules per instruction go.
pub fn sec3_4_5_text() -> String {
    use sop_core::EnergyPerInstruction;
    let mut out = String::from("§3.4.5 — energy per instruction (pJ) at 40nm\n");
    out += &format!(
        "  {:34} {:>7} {:>7} {:>6} {:>6} {:>7}\n",
        "design", "cores", "LLC", "NOC", "I/O", "total"
    );
    let node = TechnologyNode::N40;
    for d in DesignKind::table_3_2() {
        let chip = reference_chip(d, node);
        let e = EnergyPerInstruction::of(&chip, node);
        out += &format!(
            "  {:34} {:>7.0} {:>7.1} {:>6.1} {:>6.1} {:>7.0}\n",
            chip.label,
            e.core_pj,
            e.llc_pj,
            e.noc_pj,
            e.io_pj,
            e.total_pj()
        );
    }
    out += "  -> Scale-Out chips shrink the memory-hierarchy share (LLC+NOC):\n";
    out += "     smaller caches leak less and distances are shorter (§3.4.5).\n";
    out
}

/// Table 3.2 at both nodes as text.
pub fn tab3_2_text() -> String {
    [TechnologyNode::N40, TechnologyNode::N20]
        .map(|node| {
            let title = format!("Table 3.2 — designs at {node}");
            crate::ch2::design_table(&title, &DesignKind::table_3_2(), node)
        })
        .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::sim_points;
    use sop_exec::Exec;

    /// Fig 3.3's rows for one workload/fabric pair.
    fn fig3_3(workload: Workload, topology: TopologyKind) -> Vec<ValidationPoint> {
        let specs = fig3_3_specs(workload, topology, true);
        fig3_3_rows(&specs, &sim_points(&Exec::sequential(), "fig3.3", &specs))
    }

    #[test]
    fn fig3_1_pd_peaks_in_the_interior() {
        let rows = fig3_1();
        let peak = rows
            .iter()
            .max_by(|a, b| a.3.total_cmp(&b.3))
            .expect("non-empty");
        assert!(peak.0 > rows[0].0 && peak.0 < rows.last().expect("non-empty").0);
    }

    #[test]
    fn fig3_3_model_tracks_simulation_at_small_scale() {
        // §3.4.1: the model is most accurate at small scale. Our model
        // and simulator are calibrated independently (unlike the thesis',
        // whose model was parameterised from its own simulations), so we
        // check a generous band at <=8 cores; EXPERIMENTS.md records the
        // full comparison.
        for p in fig3_3(Workload::MapReduceW, TopologyKind::Crossbar) {
            if p.cores <= 8 {
                assert!(p.error() < 0.40, "{}c error {:.2}", p.cores, p.error());
            }
        }
    }

    #[test]
    fn fig3_3_simulation_shows_software_scalability_gap() {
        // §3.4.1: at 32-64 cores the *measured* perf of knee-limited
        // workloads falls below the model (which ignores software).
        let pts = fig3_3(Workload::DataServing, TopologyKind::Crossbar);
        let p64 = pts.iter().find(|p| p.cores == 64).expect("64-core point");
        assert!(
            p64.simulated_ipc < p64.modeled_ipc,
            "sim {} vs model {}",
            p64.simulated_ipc,
            p64.modeled_ipc
        );
    }

    #[test]
    fn media_streaming_only_simulates_to_16() {
        assert_eq!(
            fig3_3_core_counts(Workload::MediaStreaming).last(),
            Some(&16)
        );
    }
}
