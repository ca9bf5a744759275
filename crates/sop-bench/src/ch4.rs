//! Chapter 4: the NOC-Out pod microarchitecture (Figs 4.3, 4.6–4.8,
//! Table 4.1, §4.4.4 power).

use crate::geomean;
use crate::points::{SimPoint, SimPointSpec};
use sop_noc::{NocAreaBreakdown, NocConfig, NocPowerEstimate, TopologyKind};
use sop_workloads::Workload;

/// The fabrics compared in chapter 4.
pub const FABRICS: [TopologyKind; 3] = [
    TopologyKind::Mesh,
    TopologyKind::FlattenedButterfly,
    TopologyKind::NocOut,
];

/// The 64-core pod for one workload/fabric (Fig 4.6 machinery), as a
/// spec for scheduling through the execution engine.
pub fn pod_spec(
    workload: Workload,
    topology: TopologyKind,
    link_bits: u32,
    quick: bool,
) -> SimPointSpec {
    let (warm, measure) = if quick {
        (2_000, 4_000)
    } else {
        (8_000, 16_000)
    };
    SimPointSpec::Pod64 {
        workload,
        topology,
        link_bits,
        llc_tiles: None,
        warm,
        measure,
        faults: None,
    }
}

/// The simulation specs behind Fig 4.3: one mesh pod per workload.
pub fn fig4_3_specs(quick: bool) -> Vec<SimPointSpec> {
    Workload::ALL
        .iter()
        .map(|&w| pod_spec(w, TopologyKind::Mesh, 128, quick))
        .collect()
}

/// Fig 4.3: fraction of LLC accesses that trigger a snoop, per workload,
/// from the points of [`fig4_3_specs`].
pub fn fig4_3_rows(points: &[SimPoint]) -> Vec<(Workload, f64)> {
    Workload::ALL
        .iter()
        .zip(points)
        .map(|(&w, p)| (w, p.snoop_fraction))
        .collect()
}

/// Fig 4.3 as text, from the points of [`fig4_3_specs`].
pub fn fig4_3_text(points: &[SimPoint]) -> String {
    let mut out = String::from("Fig 4.3 — % of LLC accesses triggering a snoop (64-core pod)\n");
    let rows = fig4_3_rows(points);
    for (w, f) in &rows {
        out += &format!("  {:16} {:.1}%\n", w.label(), f * 100.0);
    }
    let mean = rows.iter().map(|(_, f)| f).sum::<f64>() / rows.len() as f64;
    out += &format!(
        "  {:16} {:.1}%  (thesis mean: 2.7%)\n",
        "Mean",
        mean * 100.0
    );
    out
}

/// The simulation specs behind Fig 4.6 (or 4.8 with squeezed links):
/// each workload's pod on every fabric, `link_bits` wide.
pub fn noc_performance_specs(link_bits: [u32; 3], quick: bool) -> Vec<SimPointSpec> {
    Workload::ALL
        .iter()
        .flat_map(|&w| (0..3).map(move |i| pod_spec(w, FABRICS[i], link_bits[i], quick)))
        .collect()
}

/// Fig 4.6 (or 4.8): per-workload pod performance of each fabric,
/// normalised to the mesh, from the points of [`noc_performance_specs`].
pub fn noc_performance_rows(points: &[SimPoint]) -> Vec<(Workload, [f64; 3])> {
    Workload::ALL
        .iter()
        .zip(points.chunks_exact(3))
        .map(|(&w, fabric)| {
            let mesh = fabric[0].aggregate_ipc;
            let fb = fabric[1].aggregate_ipc;
            let no = fabric[2].aggregate_ipc;
            (w, [1.0, fb / mesh, no / mesh])
        })
        .collect()
}

/// Fig 4.6 (full-width links) as text, from the points of
/// `noc_performance_specs([128; 3], quick)`.
pub fn fig4_6_text(points: &[SimPoint]) -> String {
    noc_text(
        "Fig 4.6 — pod performance normalised to mesh (128-bit links)\n",
        points,
    )
}

/// Link widths at which each fabric matches NOC-Out's area (Fig 4.8).
pub fn equal_area_widths() -> [u32; 3] {
    let target = NocAreaBreakdown::of(
        &NocConfig::pod_64(TopologyKind::NocOut).build_topology(),
        128,
    )
    .total_mm2();
    let squeeze = |kind: TopologyKind| {
        let topo = NocConfig::pod_64(kind).build_topology();
        (8..=128)
            .rev()
            .find(|&bits| NocAreaBreakdown::of(&topo, bits).total_mm2() <= target)
            .unwrap_or(8)
    };
    [
        squeeze(TopologyKind::Mesh),
        squeeze(TopologyKind::FlattenedButterfly),
        128,
    ]
}

/// Fig 4.8 (equal-area links) as text, from the points of
/// `noc_performance_specs(equal_area_widths(), quick)`.
pub fn fig4_8_text(points: &[SimPoint]) -> String {
    let [mesh, fbfly, nocout] = equal_area_widths();
    noc_text(
        &format!(
            "Fig 4.8 — pod performance normalised to mesh under NOC-Out's area budget\n  \
             equal-area link widths: mesh {mesh}b, fbfly {fbfly}b, NOC-Out {nocout}b\n"
        ),
        points,
    )
}

/// Fig 4.6 or 4.8 as text: `head`, then each workload's pod performance
/// per fabric and their geometric means.
fn noc_text(head: &str, points: &[SimPoint]) -> String {
    let rows = noc_performance_rows(points);
    let mut out = head.to_owned();
    out += &format!(
        "  {:16} {:>7} {:>7} {:>7}\n",
        "workload", "mesh", "fbfly", "nocout"
    );
    for (w, r) in &rows {
        out += &format!(
            "  {:16} {:>7.3} {:>7.3} {:>7.3}\n",
            w.label(),
            r[0],
            r[1],
            r[2]
        );
    }
    // A halted or failed pod (fault injection, job failure) leaves a
    // ratio of zero or NaN, which has no geometric mean.
    if !rows.iter().all(|(_, r)| r.iter().all(|&v| v > 0.0)) {
        out += &format!("  {:16} skipped (degraded or failed points)\n", "GMean");
        return out;
    }
    let gm = |i: usize| geomean(&rows.iter().map(|(_, r)| r[i]).collect::<Vec<_>>());
    out += &format!(
        "  {:16} {:>7.3} {:>7.3} {:>7.3}\n",
        "GMean",
        gm(0),
        gm(1),
        gm(2)
    );
    out
}

/// Fig 4.7 (the NOC area breakdown per fabric) as text.
pub fn fig4_7_text() -> String {
    let mut out = String::from("Fig 4.7 — NOC area breakdown at 32nm (mm2)\n");
    out += &format!(
        "  {:22} {:>7} {:>8} {:>9} {:>7}\n",
        "fabric", "links", "buffers", "crossbars", "total"
    );
    for kind in FABRICS {
        let cfg = NocConfig::pod_64(kind);
        let a = NocAreaBreakdown::of(&cfg.build_topology(), cfg.link_bits);
        out += &format!(
            "  {:22} {:>7.2} {:>8.2} {:>9.2} {:>7.2}\n",
            format!("{kind:?}"),
            a.links_mm2,
            a.buffers_mm2,
            a.crossbars_mm2,
            a.total_mm2()
        );
    }
    out
}

/// The §4.4.4 power analysis' warm-up and measured windows.
fn fig4_9_window(quick: bool) -> (u64, u64) {
    if quick {
        (1_000, 3_000)
    } else {
        (4_000, 12_000)
    }
}

/// The simulation specs behind §4.4.4: every fabric's pod for each
/// workload.
pub fn fig4_9_specs(quick: bool) -> Vec<SimPointSpec> {
    let (warm, measure) = fig4_9_window(quick);
    FABRICS
        .iter()
        .flat_map(|&kind| {
            Workload::ALL.iter().map(move |&w| SimPointSpec::Pod64 {
                workload: w,
                topology: kind,
                link_bits: 128,
                llc_tiles: None,
                warm,
                measure,
                faults: None,
            })
        })
        .collect()
}

/// §4.4.4: mean NOC power per fabric, averaged across workloads, from
/// the points of [`fig4_9_specs`].
pub fn fig4_9_rows(points: &[SimPoint], quick: bool) -> Vec<(TopologyKind, f64)> {
    let (_, measure) = fig4_9_window(quick);
    FABRICS
        .iter()
        .zip(points.chunks_exact(Workload::ALL.len()))
        .map(|(&kind, fabric)| {
            let topo = NocConfig::pod_64(kind).with_link_bits(128).build_topology();
            let total: f64 = fabric
                .iter()
                .map(|r| {
                    let counters = sop_noc::sim::TrafficCounters {
                        flit_hops: r.noc_flit_hops,
                        flit_mm: r.noc_flit_mm,
                        ..Default::default()
                    };
                    NocPowerEstimate::of(&topo, &counters, measure, 2.0, 128).total_w()
                })
                .sum();
            (kind, total / Workload::ALL.len() as f64)
        })
        .collect()
}

/// The §4.4.4 power analysis as text, from the points of
/// [`fig4_9_specs`].
pub fn fig4_9_text(points: &[SimPoint], quick: bool) -> String {
    let mut out = String::from("§4.4.4 — NOC power (W) averaged across workloads\n");
    for (kind, mean) in fig4_9_rows(points, quick) {
        out += &format!("  {:22} {:.2} W\n", format!("{kind:?}"), mean);
    }
    out
}

/// The §4.5.1 scalability discussion as text: NOC-Out grown to 128 and
/// 256 cores via concentration, express links, and a 2-D LLC butterfly.
pub fn sec4_5_text() -> String {
    use sop_noc::{NocAreaBreakdown, ScaledNocOut, Topology};
    let mut out = String::from("§4.5.1 — scaling NOC-Out past 64 cores\n");
    out += &format!(
        "  {:28} {:>7} {:>10} {:>9}\n",
        "organization", "cores", "mean lat", "NOC mm2"
    );
    let base = Topology::noc_out(64, 8, 1.82);
    let mut sum = 0u64;
    let mut count = 0u64;
    for &c in &base.core_nodes {
        for &l in &base.llc_nodes {
            sum += u64::from(base.zero_load_latency(c, l));
            count += 1;
        }
    }
    out += &format!(
        "  {:28} {:>7} {:>10.1} {:>9.2}\n",
        "baseline (ch. 4)",
        64,
        sum as f64 / count as f64,
        NocAreaBreakdown::of(&base, 128).total_mm2()
    );
    for (label, cfg) in [
        ("concentration x2", ScaledNocOut::concentrated_128()),
        ("conc. + express + 2D LLC", ScaledNocOut::express_256()),
    ] {
        let topo = cfg.build();
        out += &format!(
            "  {:28} {:>7} {:>10.1} {:>9.2}\n",
            label,
            cfg.cores,
            cfg.mean_core_to_llc_latency(),
            NocAreaBreakdown::of(&topo, 128).total_mm2()
        );
    }
    out += "  -> 4x the cores at sub-2x latency and a fraction of the cost\n";
    out += "     of widening a mesh or butterfly to 256 tiles.\n";
    out
}

/// Table 4.1's headline parameters as text.
pub fn tab4_1_text() -> String {
    let mut out = String::from("Table 4.1 — 64-core pod evaluation parameters (32nm, 2GHz)\n");
    out += "  64 OoO cores (A15-like, 2.9mm2), 8MB NUCA LLC (3.2mm2/MB),\n";
    out += "  4 DDR3-1667 channels, 64B lines\n";
    for kind in FABRICS {
        let cfg = NocConfig::pod_64(kind);
        out += &format!(
            "  {:22} {} LLC tiles, {}-bit links, {} flits/VC\n",
            format!("{kind:?}"),
            cfg.llc_tiles,
            cfg.link_bits,
            cfg.vc_depth
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::sim_points;
    use sop_exec::Exec;

    #[test]
    fn equal_area_widths_squeeze_the_butterfly_hardest() {
        let [mesh, fb, no] = equal_area_widths();
        assert_eq!(no, 128);
        assert!(fb < mesh, "fbfly {fb} vs mesh {mesh}");
        assert!(fb <= 24, "fbfly should lose ~7x width, got {fb}");
    }

    #[test]
    fn fig4_6_nocout_beats_mesh_on_average() {
        let points = sim_points(
            &Exec::sequential(),
            "fig4.6",
            &noc_performance_specs([128; 3], true),
        );
        let rows = noc_performance_rows(&points);
        let gm: f64 = geomean(&rows.iter().map(|(_, r)| r[2]).collect::<Vec<_>>());
        assert!(gm > 1.02, "NOC-Out gmean vs mesh {gm}");
    }

    #[test]
    fn rows_with_a_halted_pod_skip_the_geometric_mean() {
        let healthy = SimPoint {
            aggregate_ipc: 2.0,
            ..SimPoint::failed()
        };
        let halted = SimPoint {
            aggregate_ipc: 0.0,
            ..healthy
        };
        let points: Vec<SimPoint> = Workload::ALL
            .iter()
            .flat_map(|_| [healthy, healthy, halted])
            .collect();
        let text = fig4_6_text(&points);
        assert!(text.ends_with("  GMean            skipped (degraded or failed points)\n"));
    }

    #[test]
    fn fig4_3_snoops_stay_rare() {
        let specs = fig4_3_specs(true);
        let rows = fig4_3_rows(&sim_points(&Exec::sequential(), "fig4.3", &specs));
        let mean = rows.iter().map(|(_, f)| f).sum::<f64>() / rows.len() as f64;
        assert!(mean < 0.10, "mean snoop fraction {mean}");
    }
}
