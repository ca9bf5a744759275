//! Chapter 4: the NOC-Out pod microarchitecture (Figs 4.3, 4.6–4.8,
//! Table 4.1, §4.4.4 power).

use crate::geomean;
use crate::points::{sim_points, SimPoint, SimPointSpec};
use sop_exec::Exec;
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

/// Prints Fig 4.3, its simulations on `exec`.
pub fn print_fig4_3_on(exec: &Exec, quick: bool) {
    println!("Fig 4.3 — % of LLC accesses triggering a snoop (64-core pod)");
    let rows = fig4_3_rows(&sim_points(exec, "fig4.3", &fig4_3_specs(quick)));
    for (w, f) in &rows {
        println!("  {:16} {:.1}%", w.label(), f * 100.0);
    }
    let mean = rows.iter().map(|(_, f)| f).sum::<f64>() / rows.len() as f64;
    println!("  {:16} {:.1}%  (thesis mean: 2.7%)", "Mean", mean * 100.0);
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

/// [`noc_performance_rows`] with its 21 pod simulations batched on
/// `exec`.
pub fn noc_performance_on(
    exec: &Exec,
    link_bits: [u32; 3],
    quick: bool,
) -> Vec<(Workload, [f64; 3])> {
    let specs = noc_performance_specs(link_bits, quick);
    noc_performance_rows(&sim_points(exec, "fig4.6", &specs))
}

/// Prints Fig 4.6 (full-width links), its simulations on `exec`.
pub fn print_fig4_6_on(exec: &Exec, quick: bool) {
    println!("Fig 4.6 — pod performance normalised to mesh (128-bit links)");
    print_noc_rows(&noc_performance_on(exec, [128, 128, 128], quick));
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

/// Prints Fig 4.8 (equal-area links), its simulations on `exec`.
pub fn print_fig4_8_on(exec: &Exec, quick: bool) {
    let widths = equal_area_widths();
    println!("Fig 4.8 — pod performance normalised to mesh under NOC-Out's area budget");
    println!(
        "  equal-area link widths: mesh {}b, fbfly {}b, NOC-Out {}b",
        widths[0], widths[1], widths[2]
    );
    print_noc_rows(&noc_performance_on(exec, widths, quick));
}

fn print_noc_rows(rows: &[(Workload, [f64; 3])]) {
    println!(
        "  {:16} {:>7} {:>7} {:>7}",
        "workload", "mesh", "fbfly", "nocout"
    );
    for (w, r) in rows {
        println!(
            "  {:16} {:>7.3} {:>7.3} {:>7.3}",
            w.label(),
            r[0],
            r[1],
            r[2]
        );
    }
    let gm = |i: usize| geomean(&rows.iter().map(|(_, r)| r[i]).collect::<Vec<_>>());
    println!(
        "  {:16} {:>7.3} {:>7.3} {:>7.3}",
        "GMean",
        gm(0),
        gm(1),
        gm(2)
    );
}

/// Prints Fig 4.7: the NOC area breakdown per fabric.
pub fn print_fig4_7() {
    println!("Fig 4.7 — NOC area breakdown at 32nm (mm2)");
    println!(
        "  {:22} {:>7} {:>8} {:>9} {:>7}",
        "fabric", "links", "buffers", "crossbars", "total"
    );
    for kind in FABRICS {
        let cfg = NocConfig::pod_64(kind);
        let a = NocAreaBreakdown::of(&cfg.build_topology(), cfg.link_bits);
        println!(
            "  {:22} {:>7.2} {:>8.2} {:>9.2} {:>7.2}",
            format!("{kind:?}"),
            a.links_mm2,
            a.buffers_mm2,
            a.crossbars_mm2,
            a.total_mm2()
        );
    }
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

/// Prints the §4.4.4 power analysis, its simulations on `exec`.
pub fn print_fig4_9_power_on(exec: &Exec, quick: bool) {
    println!("§4.4.4 — NOC power (W) averaged across workloads");
    let points = sim_points(exec, "fig4.9", &fig4_9_specs(quick));
    for (kind, mean) in fig4_9_rows(&points, quick) {
        println!("  {:22} {:.2} W", format!("{kind:?}"), mean);
    }
}

/// Prints the §4.5.1 scalability discussion: NOC-Out grown to 128 and
/// 256 cores via concentration, express links, and a 2-D LLC butterfly.
pub fn print_sec4_5() {
    use sop_noc::{NocAreaBreakdown, ScaledNocOut, Topology};
    println!("§4.5.1 — scaling NOC-Out past 64 cores");
    println!(
        "  {:28} {:>7} {:>10} {:>9}",
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
    println!(
        "  {:28} {:>7} {:>10.1} {:>9.2}",
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
        println!(
            "  {:28} {:>7} {:>10.1} {:>9.2}",
            label,
            cfg.cores,
            cfg.mean_core_to_llc_latency(),
            NocAreaBreakdown::of(&topo, 128).total_mm2()
        );
    }
    println!("  -> 4x the cores at sub-2x latency and a fraction of the cost");
    println!("     of widening a mesh or butterfly to 256 tiles.");
}

/// Prints Table 4.1's headline parameters.
pub fn print_tab4_1() {
    println!("Table 4.1 — 64-core pod evaluation parameters (32nm, 2GHz)");
    println!("  64 OoO cores (A15-like, 2.9mm2), 8MB NUCA LLC (3.2mm2/MB),");
    println!("  4 DDR3-1667 channels, 64B lines");
    for kind in FABRICS {
        let cfg = NocConfig::pod_64(kind);
        println!(
            "  {:22} {} LLC tiles, {}-bit links, {} flits/VC",
            format!("{kind:?}"),
            cfg.llc_tiles,
            cfg.link_bits,
            cfg.vc_depth
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_area_widths_squeeze_the_butterfly_hardest() {
        let [mesh, fb, no] = equal_area_widths();
        assert_eq!(no, 128);
        assert!(fb < mesh, "fbfly {fb} vs mesh {mesh}");
        assert!(fb <= 24, "fbfly should lose ~7x width, got {fb}");
    }

    #[test]
    fn fig4_6_nocout_beats_mesh_on_average() {
        let rows = noc_performance_on(&Exec::sequential(), [128, 128, 128], true);
        let gm: f64 = geomean(&rows.iter().map(|(_, r)| r[2]).collect::<Vec<_>>());
        assert!(gm > 1.02, "NOC-Out gmean vs mesh {gm}");
    }

    #[test]
    fn fig4_3_snoops_stay_rare() {
        let specs = fig4_3_specs(true);
        let rows = fig4_3_rows(&sim_points(&Exec::sequential(), "fig4.3", &specs));
        let mean = rows.iter().map(|(_, f)| f).sum::<f64>() / rows.len() as f64;
        assert!(mean < 0.10, "mean snoop fraction {mean}");
    }
}
