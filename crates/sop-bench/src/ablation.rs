//! Ablations over the design choices the thesis motivates but does not
//! sweep explicitly:
//!
//! * pod granularity — what happens to chip-level PD if pods are half or
//!   double the chosen size (the cost of deviating from PD-optimality);
//! * NOC-Out LLC-row width — fewer/more LLC tiles trade bank contention
//!   against spine cost (§4.2.2's "four cores per bank" observation);
//! * link width — the area/performance frontier behind Fig 4.8;
//! * instruction replication — what IR buys a mesh at each LLC size.
//!
//! The LLC-row and link-width sections are simulated: [`specs`] lists
//! their points, whose windows are the same with or without `--quick`.
//! The other two are analytic.

use crate::points::{SimPoint, SimPointSpec};
use sop_core::chip::try_compose_pods;
use sop_core::PodConfig;
use sop_model::{DesignPoint, Interconnect};
use sop_noc::{NocAreaBreakdown, NocConfig, TopologyKind};
use sop_obs::Json;
use sop_tech::{ChipBudget, CoreKind, TechnologyNode};
use sop_workloads::Workload;

/// Pod sizes composed into a chip, as (cores, LLC MB).
const PODS: [(u32, f64); 5] = [(8, 2.0), (16, 4.0), (32, 4.0), (32, 8.0), (64, 8.0)];

/// LLC tile counts of the NOC-Out row.
const TILES: [u32; 3] = [4, 8, 16];

/// Mesh link widths in bits.
const BITS: [u32; 4] = [128, 64, 32, 16];

/// LLC capacities (MB) of the instruction-replication section.
const IR_LLC_MB: [f64; 4] = [4.0, 8.0, 16.0, 32.0];

/// The simulation points: one NOC-Out pod per LLC tile count, then one
/// mesh pod per link width.
pub fn specs() -> Vec<SimPointSpec> {
    let llc_row = TILES.iter().map(|&tiles| SimPointSpec::Pod64 {
        workload: Workload::WebSearch,
        topology: TopologyKind::NocOut,
        link_bits: 128,
        llc_tiles: Some(tiles),
        warm: 4_000,
        measure: 10_000,
        faults: None,
    });
    let links = BITS.iter().map(|&bits| SimPointSpec::Pod64 {
        workload: Workload::MapReduceW,
        topology: TopologyKind::Mesh,
        link_bits: bits,
        llc_tiles: None,
        warm: 3_000,
        measure: 8_000,
        faults: None,
    });
    llc_row.chain(links).collect()
}

/// A chip composed of one pod size, if it fits the die.
#[derive(Debug, Clone, Copy)]
struct PodChip {
    /// Pods on the chip.
    pods: u32,
    /// Cores on the chip.
    chip_cores: u32,
    /// Die area in mm².
    die_mm2: f64,
    /// Chip performance density.
    chip_pd: f64,
}

/// Pod granularity: (pod cores, pod LLC MB, the chip, if it fits).
fn pod_rows() -> Vec<(u32, f64, Option<PodChip>)> {
    let node = TechnologyNode::N40;
    let budget = ChipBudget::server_2d(node);
    PODS.iter()
        .map(|&(cores, mb)| {
            let pod =
                PodConfig::new(CoreKind::OutOfOrder, cores, mb, Interconnect::Crossbar).metrics();
            let chip = try_compose_pods("ablation", &pod, node, &budget).map(|chip| PodChip {
                pods: chip.cores / cores,
                chip_cores: chip.cores,
                die_mm2: chip.die_mm2,
                chip_pd: chip.performance_density,
            });
            (cores, mb, chip)
        })
        .collect()
}

/// LLC-row width: (tiles, aggregate IPC, packet latency, NOC mm²), from
/// the first [`TILES`]`.len()` points of [`specs`].
fn llc_row_rows(points: &[SimPoint]) -> Vec<(u32, f64, f64, f64)> {
    TILES
        .iter()
        .zip(points)
        .map(|(&tiles, p)| {
            let mut noc = NocConfig::pod_64(TopologyKind::NocOut);
            noc.llc_tiles = tiles;
            let area = NocAreaBreakdown::of(&noc.build_topology(), noc.link_bits);
            (
                tiles,
                p.aggregate_ipc,
                p.mean_packet_latency,
                area.total_mm2(),
            )
        })
        .collect()
}

/// Link width: (bits, NOC mm², aggregate IPC), from the points of
/// [`specs`] after the LLC-row ones.
fn links_rows(points: &[SimPoint]) -> Vec<(u32, f64, f64)> {
    BITS.iter()
        .zip(points)
        .map(|(&bits, p)| {
            let noc = NocConfig::pod_64(TopologyKind::Mesh).with_link_bits(bits);
            let area = NocAreaBreakdown::of(&noc.build_topology(), bits);
            (bits, area.total_mm2(), p.aggregate_ipc)
        })
        .collect()
}

/// Instruction replication: (LLC MB, base IPC, IPC with IR).
fn ir_rows() -> Vec<(f64, f64, f64)> {
    IR_LLC_MB
        .iter()
        .map(|&mb| {
            let mesh = DesignPoint::new(CoreKind::OutOfOrder, 32, mb, Interconnect::Mesh);
            let base = mesh.mean_aggregate_ipc();
            let ir = mesh.with_instruction_replication().mean_aggregate_ipc();
            (mb, base, ir)
        })
        .collect()
}

/// The simulated points of [`specs`], split into the LLC-row and the
/// link-width sections.
fn split(points: &[SimPoint]) -> (&[SimPoint], &[SimPoint]) {
    points.split_at(TILES.len())
}

/// The four sections as text, from the points of [`specs`].
pub fn text(points: &[SimPoint]) -> String {
    let (llc_row, links) = split(points);
    let mut out = String::from("== Ablation: pod granularity (OoO, 40nm chip composition) ==\n");
    out += &format!(
        "  {:>6} {:>6} {:>6} {:>6} {:>9} {:>8}\n",
        "cores", "LLC", "pods", "chip-c", "die mm2", "chip PD"
    );
    for (cores, mb, chip) in pod_rows() {
        out += &match chip {
            Some(c) => format!(
                "  {:>6} {:>6.1} {:>6} {:>6} {:>9.1} {:>8.4}\n",
                cores, mb, c.pods, c.chip_cores, c.die_mm2, c.chip_pd
            ),
            None => format!("  {cores:>6} {mb:>6.1}   does not fit the die\n"),
        };
    }
    out += "  -> the 16c/4MB pod maximizes chip PD; bigger pods lose to\n";
    out += "     distance, smaller ones to cache fragmentation.\n";

    out += "== Ablation: NOC-Out LLC-row width (64-core pod, Web Search) ==\n";
    out += &format!(
        "  {:>9} {:>8} {:>9} {:>9}\n",
        "LLC tiles", "agg IPC", "pkt lat", "NOC mm2"
    );
    for (tiles, ipc, latency, mm2) in llc_row_rows(llc_row) {
        out += &format!("  {tiles:>9} {ipc:>8.2} {latency:>9.1} {mm2:>9.2}\n");
    }
    out += "  -> 8 tiles (2 banks each) balance bank contention against\n";
    out += "     spine area, as §4.3.1 chooses.\n";

    out += "== Ablation: link width (mesh pod, MapReduce-W) ==\n";
    out += &format!("  {:>6} {:>9} {:>8}\n", "bits", "NOC mm2", "agg IPC");
    for (bits, mm2, ipc) in links_rows(links) {
        out += &format!("  {bits:>6} {mm2:>9.2} {ipc:>8.2}\n");
    }
    out += "  -> serialization latency eats narrow-linked fabrics, which is\n";
    out += "     why the equal-area butterfly of Fig 4.8 collapses.\n";

    out += "== Ablation: instruction replication on the 32-core mesh ==\n";
    out += &format!(
        "  {:>6} {:>10} {:>10} {:>7}\n",
        "LLC MB", "base IPC", "+IR IPC", "gain"
    );
    for (mb, base, ir) in ir_rows() {
        let gain = (ir / base - 1.0) * 100.0;
        out += &format!("  {mb:>6.0} {base:>10.2} {ir:>10.2} {gain:>6.1}%\n");
    }
    out += "  -> replication helps more as capacity grows (§2.2.3: in small\n";
    out += "     LLCs the replicas' capacity pressure eats the latency win).\n";
    out
}

/// The four sections as JSON rows, one member each, from the points of
/// [`specs`].
pub fn data(points: &[SimPoint]) -> Json {
    let (llc_row, links) = split(points);
    let pods = pod_rows().into_iter().map(|(cores, mb, chip)| {
        let row = Json::object().with("pod_cores", cores).with("llc_mb", mb);
        match chip {
            Some(c) => row
                .with("fits", true)
                .with("pods", c.pods)
                .with("chip_cores", c.chip_cores)
                .with("die_mm2", c.die_mm2)
                .with("chip_pd", c.chip_pd),
            None => row.with("fits", false),
        }
    });
    let llc_row = llc_row_rows(llc_row)
        .into_iter()
        .map(|(tiles, ipc, latency, mm2)| {
            Json::object()
                .with("llc_tiles", tiles)
                .with("aggregate_ipc", ipc)
                .with("packet_latency", latency)
                .with("noc_mm2", mm2)
        });
    let links = links_rows(links).into_iter().map(|(bits, mm2, ipc)| {
        Json::object()
            .with("link_bits", bits)
            .with("noc_mm2", mm2)
            .with("aggregate_ipc", ipc)
    });
    let ir = ir_rows().into_iter().map(|(mb, base, ir)| {
        Json::object()
            .with("llc_mb", mb)
            .with("base_ipc", base)
            .with("ir_ipc", ir)
            .with("gain", ir / base - 1.0)
    });
    Json::object()
        .with("pods", Json::Arr(pods.collect()))
        .with("llcrow", Json::Arr(llc_row.collect()))
        .with("links", Json::Arr(links.collect()))
        .with("ir", Json::Arr(ir.collect()))
}
