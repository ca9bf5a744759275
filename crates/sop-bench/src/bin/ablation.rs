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
//! ```text
//! usage: ablation [<pods|llcrow|links|ir|all>] [--json FILE] [--jobs N]
//!            [--timeout-secs N] [--no-cache] [--no-heartbeat]
//! ```
//!
//! `<section>` runs one ablation; without one, `all` runs every section.
//!
//! The simulation-backed sections (`llcrow`, `links`) run through the
//! execution engine: their points are cached under `target/sop-cache/`
//! and spread over `--jobs` workers.
//!
//! With `--json FILE` the run also writes a schema-versioned report:
//! one section of rows per ablation, a span per section, and
//! `ablation.*` gauges for the simulation-backed sweeps.

use sop_bench::points::{sim_points, SimPointSpec};
use sop_core::chip::try_compose_pods;
use sop_core::PodConfig;
use sop_exec::{Exec, ExecConfig, Spec};
use sop_model::{DesignPoint, Interconnect};
use sop_noc::{NocAreaBreakdown, NocConfig, TopologyKind};
use sop_obs::{Json, Registry, Report, SpanLog};
use sop_tech::{ChipBudget, CoreKind, TechnologyNode};
use sop_workloads::Workload;

fn main() {
    let spec = Spec::new("ablation")
        .optional("<section>")
        .one_of(["pods", "llcrow", "links", "ir", "all"])
        .values([("--json", "FILE")])
        .engine();
    let args = spec.parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let json_path = args.value("--json");
    let exec = Exec::new(ExecConfig::from_args(&args));
    let which = args.value("<section>").unwrap_or("all");

    let mut spans = SpanLog::new();
    let mut metrics = Registry::new();
    let mut report = Report::new("ablation", "Design-choice ablations");
    if matches!(which, "pods" | "all") {
        let rows = spans.time("pods", |_| pods());
        report.set("pods", rows);
    }
    if matches!(which, "llcrow" | "all") {
        let rows = spans.time("llcrow", |_| llc_row(&exec, &mut metrics));
        report.set("llcrow", rows);
    }
    if matches!(which, "links" | "all") {
        let rows = spans.time("links", |_| links(&exec, &mut metrics));
        report.set("links", rows);
    }
    if matches!(which, "ir" | "all") {
        let rows = spans.time("ir", |_| instruction_replication());
        report.set("ir", rows);
    }
    if let Some(path) = json_path {
        metrics.merge(&exec.metrics_snapshot());
        if let Err(e) = report.write_to(path, &spans, &metrics) {
            eprintln!("ablation: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

/// Chip-level PD when the pod deviates from the chosen 16-core/4MB point.
fn pods() -> Json {
    println!("== Ablation: pod granularity (OoO, 40nm chip composition) ==");
    println!(
        "  {:>6} {:>6} {:>6} {:>6} {:>9} {:>8}",
        "cores", "LLC", "pods", "chip-c", "die mm2", "chip PD"
    );
    let node = TechnologyNode::N40;
    let budget = ChipBudget::server_2d(node);
    let mut rows = Vec::new();
    for (cores, mb) in [(8u32, 2.0), (16, 4.0), (32, 4.0), (32, 8.0), (64, 8.0)] {
        let pod = PodConfig::new(CoreKind::OutOfOrder, cores, mb, Interconnect::Crossbar).metrics();
        let row = Json::object().with("pod_cores", cores).with("llc_mb", mb);
        match try_compose_pods("ablation", &pod, node, &budget) {
            Some(chip) => {
                println!(
                    "  {:>6} {:>6.1} {:>6} {:>6} {:>9.1} {:>8.4}",
                    cores,
                    mb,
                    chip.cores / cores,
                    chip.cores,
                    chip.die_mm2,
                    chip.performance_density
                );
                rows.push(
                    row.with("fits", true)
                        .with("pods", chip.cores / cores)
                        .with("chip_cores", chip.cores)
                        .with("die_mm2", chip.die_mm2)
                        .with("chip_pd", chip.performance_density),
                );
            }
            None => {
                println!("  {cores:>6} {mb:>6.1}   does not fit the die");
                rows.push(row.with("fits", false));
            }
        }
    }
    println!("  -> the 16c/4MB pod maximizes chip PD; bigger pods lose to");
    println!("     distance, smaller ones to cache fragmentation.");
    Json::Arr(rows)
}

/// NOC-Out with a narrower or wider LLC row.
fn llc_row(exec: &Exec, metrics: &mut Registry) -> Json {
    println!("== Ablation: NOC-Out LLC-row width (64-core pod, Web Search) ==");
    println!(
        "  {:>9} {:>8} {:>9} {:>9}",
        "LLC tiles", "agg IPC", "pkt lat", "NOC mm2"
    );
    const TILES: [u32; 3] = [4, 8, 16];
    let specs: Vec<SimPointSpec> = TILES
        .iter()
        .map(|&tiles| SimPointSpec::Pod64 {
            workload: Workload::WebSearch,
            topology: TopologyKind::NocOut,
            link_bits: 128,
            llc_tiles: Some(tiles),
            warm: 4_000,
            measure: 10_000,
            faults: None,
        })
        .collect();
    let points = sim_points(exec, "ablation.llcrow", &specs);
    let mut rows = Vec::new();
    for (&tiles, p) in TILES.iter().zip(&points) {
        let mut noc = NocConfig::pod_64(TopologyKind::NocOut);
        noc.llc_tiles = tiles;
        let area = NocAreaBreakdown::of(&noc.build_topology(), noc.link_bits);
        println!(
            "  {:>9} {:>8.2} {:>9.1} {:>9.2}",
            tiles,
            p.aggregate_ipc,
            p.mean_packet_latency,
            area.total_mm2()
        );
        metrics.gauge_set(
            &format!("ablation.llcrow.tiles{tiles}.ipc"),
            p.aggregate_ipc,
        );
        metrics.gauge_set(
            &format!("ablation.llcrow.tiles{tiles}.packet_latency"),
            p.mean_packet_latency,
        );
        metrics.gauge_set(
            &format!("ablation.llcrow.tiles{tiles}.noc_mm2"),
            area.total_mm2(),
        );
        rows.push(
            Json::object()
                .with("llc_tiles", tiles)
                .with("aggregate_ipc", p.aggregate_ipc)
                .with("packet_latency", p.mean_packet_latency)
                .with("noc_mm2", area.total_mm2()),
        );
    }
    println!("  -> 8 tiles (2 banks each) balance bank contention against");
    println!("     spine area, as §4.3.1 chooses.");
    Json::Arr(rows)
}

/// The latency/area frontier as links narrow (Fig 4.8's mechanism).
fn links(exec: &Exec, metrics: &mut Registry) -> Json {
    println!("== Ablation: link width (mesh pod, MapReduce-W) ==");
    println!("  {:>6} {:>9} {:>8}", "bits", "NOC mm2", "agg IPC");
    const BITS: [u32; 4] = [128, 64, 32, 16];
    let specs: Vec<SimPointSpec> = BITS
        .iter()
        .map(|&bits| SimPointSpec::Pod64 {
            workload: Workload::MapReduceW,
            topology: TopologyKind::Mesh,
            link_bits: bits,
            llc_tiles: None,
            warm: 3_000,
            measure: 8_000,
            faults: None,
        })
        .collect();
    let points = sim_points(exec, "ablation.links", &specs);
    let mut rows = Vec::new();
    for (&bits, p) in BITS.iter().zip(&points) {
        let noc = NocConfig::pod_64(TopologyKind::Mesh).with_link_bits(bits);
        let area = NocAreaBreakdown::of(&noc.build_topology(), bits);
        println!(
            "  {:>6} {:>9.2} {:>8.2}",
            bits,
            area.total_mm2(),
            p.aggregate_ipc
        );
        metrics.gauge_set(&format!("ablation.links.bits{bits}.ipc"), p.aggregate_ipc);
        metrics.gauge_set(
            &format!("ablation.links.bits{bits}.noc_mm2"),
            area.total_mm2(),
        );
        rows.push(
            Json::object()
                .with("link_bits", bits)
                .with("noc_mm2", area.total_mm2())
                .with("aggregate_ipc", p.aggregate_ipc),
        );
    }
    println!("  -> serialization latency eats narrow-linked fabrics, which is");
    println!("     why the equal-area butterfly of Fig 4.8 collapses.");
    Json::Arr(rows)
}

/// What R-NUCA-style instruction replication buys a mesh per LLC size.
fn instruction_replication() -> Json {
    println!("== Ablation: instruction replication on the 32-core mesh ==");
    println!(
        "  {:>6} {:>10} {:>10} {:>7}",
        "LLC MB", "base IPC", "+IR IPC", "gain"
    );
    let mut rows = Vec::new();
    for mb in [4.0, 8.0, 16.0, 32.0] {
        let base =
            DesignPoint::new(CoreKind::OutOfOrder, 32, mb, Interconnect::Mesh).mean_aggregate_ipc();
        let ir = DesignPoint::new(CoreKind::OutOfOrder, 32, mb, Interconnect::Mesh)
            .with_instruction_replication()
            .mean_aggregate_ipc();
        println!(
            "  {:>6.0} {:>10.2} {:>10.2} {:>6.1}%",
            mb,
            base,
            ir,
            (ir / base - 1.0) * 100.0
        );
        rows.push(
            Json::object()
                .with("llc_mb", mb)
                .with("base_ipc", base)
                .with("ir_ipc", ir)
                .with("gain", ir / base - 1.0),
        );
    }
    println!("  -> replication helps more as capacity grows (§2.2.3: in small");
    println!("     LLCs the replicas' capacity pressure eats the latency win).");
    Json::Arr(rows)
}
