//! Chapter 2: the case for Scale-Out Processors (Figs 2.1–2.3, Tables
//! 2.1–2.4).

use crate::fmt_series;
use sop_core::designs::{reference_chip, DesignKind};
use sop_model::{DesignPoint, Interconnect};
use sop_tech::{CoreKind, LlcParams, MemoryInterface, SocParams, TechnologyNode};
use sop_workloads::Workload;

/// The LLC capacities swept in Fig 2.2.
pub const FIG2_2_CAPACITIES: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Fig 2.1: application IPC of the aggressive 4-wide core per workload.
pub fn fig2_1() -> Vec<(Workload, f64)> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let ipc = DesignPoint::new(CoreKind::Conventional, 4, 8.0, Interconnect::Ideal)
                .evaluate(w)
                .per_core_ipc;
            (w, ipc)
        })
        .collect()
}

/// Fig 2.1 as text.
pub fn fig2_1_text() -> String {
    let mut out = String::from("Fig 2.1 — application IPC, aggressive OoO core (max 4)\n");
    for (w, ipc) in fig2_1() {
        out += &format!("  {:16} {ipc:.2}\n", w.label());
    }
    out
}

/// Fig 2.2: per-workload performance vs. LLC capacity, normalised to 1MB.
pub fn fig2_2() -> Vec<(Workload, Vec<f64>)> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let at = |mb: f64| {
                DesignPoint::new(CoreKind::Conventional, 4, mb, Interconnect::Crossbar)
                    .evaluate(w)
                    .per_core_ipc
            };
            let base = at(1.0);
            (w, FIG2_2_CAPACITIES.iter().map(|&c| at(c) / base).collect())
        })
        .collect()
}

/// Fig 2.2 as text.
pub fn fig2_2_text() -> String {
    let mut out = String::from("Fig 2.2 — 4-core performance vs LLC size (normalised to 1MB)\n");
    out += &format!(
        "{:24} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
        "workload", 1, 2, 4, 8, 16, 32
    );
    for (w, series) in fig2_2() {
        out += &format!("  {}\n", fmt_series(w.label(), &series));
    }
    out
}

/// Fig 2.3: per-core and aggregate performance vs. core count at 4MB,
/// under the ideal and mesh fabrics. Returns (cores, ideal, mesh) rows of
/// per-core IPC normalised to one core.
pub fn fig2_3() -> Vec<(u32, f64, f64)> {
    let per_core = |n: u32, fabric: Interconnect| {
        DesignPoint::new(CoreKind::OutOfOrder, n, 4.0, fabric).mean_per_core_ipc()
    };
    let base_ideal = per_core(1, Interconnect::Ideal);
    let base_mesh = per_core(1, Interconnect::Mesh);
    [1u32, 2, 4, 8, 16, 32, 64, 128, 256]
        .iter()
        .map(|&n| {
            let ideal = per_core(n, Interconnect::Ideal) / base_ideal;
            (n, ideal, per_core(n, Interconnect::Mesh) / base_mesh)
        })
        .collect()
}

/// Fig 2.3 (both panels) as text.
pub fn fig2_3_text() -> String {
    let mut out =
        String::from("Fig 2.3 — per-core perf (a) and aggregate perf (b) vs cores, 4MB LLC\n");
    out += &format!(
        "  {:>6} {:>12} {:>12} {:>12} {:>12}\n",
        "cores", "ideal/core", "mesh/core", "ideal agg", "mesh agg"
    );
    for (n, i, m) in fig2_3() {
        out += &format!(
            "  {n:>6} {i:>12.3} {m:>12.3} {:>12.1} {:>12.1}\n",
            i * f64::from(n),
            m * f64::from(n)
        );
    }
    out
}

/// Tables 2.1/2.2 (component areas, power, and system parameters) as
/// text.
pub fn tab2_1_text() -> String {
    let node = TechnologyNode::N40;
    let mut out = format!("Table 2.1 — component area and power at {node}\n");
    for kind in CoreKind::ALL {
        out += &format!(
            "  {:14} {:6.1} mm2 {:6.2} W\n",
            kind.label(),
            kind.area_mm2(node),
            kind.power_w(node)
        );
    }
    let llc = LlcParams::at(node);
    out += &format!(
        "  {:14} {:6.1} mm2/MB {:4.2} W/MB\n",
        "LLC (16-way)", llc.area_mm2_per_mb, llc.power_w_per_mb
    );
    let mem = MemoryInterface::at(node);
    out += &format!(
        "  {:14} {:6.1} mm2 {:6.2} W ({} @ {:.1}GB/s useful)\n",
        "DDR interface",
        mem.area_mm2,
        mem.power_w,
        mem.gen,
        mem.useful_gbps()
    );
    let soc = SocParams::at(node);
    out += &format!(
        "  {:14} {:6.1} mm2 {:6.2} W\n",
        "SoC components", soc.area_mm2, soc.power_w
    );
    out
}

/// The designs of Tables 2.3/2.4, in row order.
pub fn table_2_designs() -> Vec<DesignKind> {
    let mut v = vec![DesignKind::Conventional];
    for k in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        v.extend([
            DesignKind::Tiled(k),
            DesignKind::LlcOptimalTiled(k),
            DesignKind::LlcOptimalTiledIr(k),
            DesignKind::Ideal(k),
        ]);
    }
    v
}

/// Table 2.3 (40nm) or Table 2.4 (20nm) as text.
pub fn tab2_3_text(node: TechnologyNode) -> String {
    let which = if node == TechnologyNode::N40 {
        "2.3"
    } else {
        "2.4"
    };
    let title = format!("Table {which} — processor designs at {node}");
    design_table(&title, &table_2_designs(), node)
}

/// The reference chip of each of `designs` at `node`, as a table under
/// `title`.
pub fn design_table(title: &str, designs: &[DesignKind], node: TechnologyNode) -> String {
    let mut out = format!("{title}\n");
    out += &format!(
        "  {:34} {:>6} {:>5} {:>6} {:>3} {:>7} {:>6} {:>6}\n",
        "design", "PD", "cores", "LLC", "MC", "die", "power", "P/W"
    );
    for &d in designs {
        let c = reference_chip(d, node);
        out += &format!(
            "  {:34} {:>6.3} {:>5} {:>6.1} {:>3} {:>7.1} {:>6.1} {:>6.2}\n",
            c.label,
            c.performance_density,
            c.cores,
            c.llc_mb,
            c.memory_channels,
            c.die_mm2,
            c.power_w,
            c.perf_per_watt
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_1_only_media_streaming_is_below_one() {
        let rows = fig2_1();
        let below: Vec<_> = rows.iter().filter(|(_, ipc)| *ipc < 1.0).collect();
        assert!(below.len() <= 2, "too many sub-1 workloads: {below:?}");
        let min = rows
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        assert_eq!(min.0, Workload::MediaStreaming);
        assert!(min.1 < 1.0);
        // None reach half the 4-wide peak.
        assert!(rows.iter().all(|(_, ipc)| *ipc < 2.0));
    }

    #[test]
    fn fig2_2_mapreduce_c_gains_12_to_24_percent_at_16mb() {
        let rows = fig2_2();
        let (_, mrc) = rows
            .iter()
            .find(|(w, _)| *w == Workload::MapReduceC)
            .expect("present");
        let g16 = mrc[4];
        assert!((1.10..1.26).contains(&g16), "got {g16}");
        // 32MB is no better than 16MB, for every workload.
        for (w, series) in &rows {
            assert!(series[5] <= series[4] + 1e-9, "{w:?}: {series:?}");
        }
    }

    #[test]
    fn fig2_3_mesh_degrades_much_faster_than_ideal() {
        let rows = fig2_3();
        let (_, i256, m256) = rows.last().copied().expect("non-empty");
        assert!(i256 > 0.8, "ideal fell to {i256}");
        assert!(m256 < 0.6, "mesh only fell to {m256}");
        // The thesis: the ideal fabric loses about 16% per core from 2
        // to 256 cores.
        let (_, i2, _) = rows[1];
        let loss = 1.0 - i256 / i2;
        assert!((0.14..0.18).contains(&loss), "ideal lost {loss}");
    }

    #[test]
    fn table_rosters_are_complete() {
        assert_eq!(table_2_designs().len(), 9);
    }
}
