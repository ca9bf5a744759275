//! Calibration dashboard: prints the model's values for every headline
//! target so profile constants can be tuned against the thesis.
//!
//! ```text
//! usage: calibrate [--json FILE]
//! ```
//!
//! The sections are analytic and print in a fixed order.
//!
//! With `--json FILE` the dashboard is also written as a
//! schema-versioned report: one section per calibration surface.

use sop_core::designs::{reference_chip, DesignKind};
use sop_core::pod::{optimal_pod, preferred_pod, PodSearchSpace};
use sop_core::PodConfig;
use sop_exec::Spec;
use sop_model::{DesignPoint, Interconnect};
use sop_obs::{Json, Registry, Report, SpanLog};
use sop_tech::{CoreKind, TechnologyNode};
use sop_workloads::Workload;

fn main() {
    let spec = Spec::new("calibrate").values([("--json", "FILE")]);
    let args = spec.parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let json_path = args.value("--json");

    let mut spans = SpanLog::new();
    let mut report = Report::new("calibrate", "Calibration dashboard");
    spans.time("sections", |_| {
        report.set("fig2.1", fig2_1());
        report.set("fig2.2", fig2_2());
        report.set("fig2.3", fig2_3());
        report.set("pd_surfaces", pod_surfaces());
        report.set("pods", pods());
        report.set("chips_40nm", chips(TechnologyNode::N40));
        report.set("chips_20nm", chips(TechnologyNode::N20));
    });
    if let Some(path) = json_path {
        if let Err(e) = report.write_to(path, &spans, &Registry::new()) {
            eprintln!("calibrate: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

fn fig2_1() -> Json {
    println!("== Fig 2.1: app IPC, aggressive OoO core (targets: MS<1, DS/MRC~1, rest 1-2) ==");
    let mut out = Json::object();
    for w in Workload::ALL {
        let ipc = DesignPoint::new(CoreKind::Conventional, 4, 8.0, Interconnect::Ideal)
            .evaluate(w)
            .per_core_ipc;
        println!("  {:16} {:.2}", w.label(), ipc);
        out.insert(w.label(), Json::from(ipc));
    }
    out
}

fn fig2_2() -> Json {
    println!("== Fig 2.2: perf vs LLC (4 cores), normalized to 1MB ==");
    println!("  target: knee 2-8MB, MRC/SAT +12-24% at 16MB, 32MB <= 16MB");
    let caps = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
    let mut out = Json::object();
    for w in Workload::ALL {
        let base = DesignPoint::new(CoreKind::Conventional, 4, 1.0, Interconnect::Crossbar)
            .evaluate(w)
            .per_core_ipc;
        let ratios: Vec<f64> = caps
            .iter()
            .map(|&c| {
                DesignPoint::new(CoreKind::Conventional, 4, c, Interconnect::Crossbar)
                    .evaluate(w)
                    .per_core_ipc
                    / base
            })
            .collect();
        let row: Vec<String> = ratios.iter().map(|r| format!("{r:.3}")).collect();
        println!("  {:16} {}", w.label(), row.join(" "));
        out.insert(
            w.label(),
            Json::Arr(ratios.into_iter().map(Json::from).collect()),
        );
    }
    out
}

fn fig2_3() -> Json {
    println!("== Fig 2.3: per-core perf vs cores, 4MB LLC (norm to 1 core) ==");
    println!("  target: ideal 256c ~ -16% vs 2c; mesh 256c ~ -28% vs ideal 256c agg");
    let mut out = Json::object();
    for ic in [Interconnect::Ideal, Interconnect::Mesh] {
        let u1 = DesignPoint::new(CoreKind::OutOfOrder, 1, 4.0, ic).mean_per_core_ipc();
        let mut curve = Json::object();
        let row: Vec<String> = [2u32, 16, 64, 128, 256]
            .iter()
            .map(|&n| {
                let u = DesignPoint::new(CoreKind::OutOfOrder, n, 4.0, ic).mean_per_core_ipc();
                curve.insert(&n.to_string(), Json::from(u / u1));
                format!("{}:{:.3}", n, u / u1)
            })
            .collect();
        println!("  {:6} {}", ic.label(), row.join(" "));
        out.insert(ic.label(), curve);
    }
    let i =
        DesignPoint::new(CoreKind::OutOfOrder, 256, 4.0, Interconnect::Ideal).mean_aggregate_ipc();
    let m =
        DesignPoint::new(CoreKind::OutOfOrder, 256, 4.0, Interconnect::Mesh).mean_aggregate_ipc();
    println!(
        "  mesh-vs-ideal aggregate at 256 cores: {:.3} (target ~0.72)",
        m / i
    );
    out.insert("mesh_vs_ideal_256c", Json::from(m / i));
    out
}

fn pod_surfaces() -> Json {
    let mut out = Json::object();
    for kind in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        println!("== PD surface ({kind:?}, crossbar, 40nm) ==");
        let mut surface = Json::object();
        for &mb in &[1.0, 2.0, 4.0, 8.0] {
            let mut by_cores = Json::object();
            let row: Vec<String> = [4u32, 8, 16, 32, 64, 128]
                .iter()
                .map(|&n| {
                    let m = PodConfig::new(kind, n, mb, Interconnect::Crossbar).metrics();
                    by_cores.insert(&format!("{n}c"), Json::from(m.performance_density));
                    format!("{}c:{:.4}", n, m.performance_density)
                })
                .collect();
            println!("  {mb}MB  {}", row.join(" "));
            surface.insert(&format!("{mb}MB"), by_cores);
        }
        out.insert(&format!("{kind:?}"), surface);
    }
    out
}

fn pods() -> Json {
    println!("== Pods (targets: OoO peak 32c/4MB, pick 16c/4MB 92mm2 20W 9.4GB/s;");
    println!("          IO pick 32c/2MB 52mm2 17W 15GB/s) ==");
    let mut out = Json::object();
    for kind in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        let space = PodSearchSpace::thesis_chapter3(kind, TechnologyNode::N40);
        let opt = optimal_pod(&space);
        let pick = preferred_pod(&space, 0.05);
        println!("  {kind:?}: peak {}c/{}MB pd {:.4}; pick {}c/{}MB pd {:.4} area {:.1} power {:.1} bw {:.1}",
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
        out.insert(
            &format!("{kind:?}"),
            Json::object()
                .with(
                    "peak",
                    Json::object()
                        .with("cores", opt.config.cores)
                        .with("llc_mb", opt.config.llc_mb)
                        .with("pd", opt.performance_density),
                )
                .with(
                    "pick",
                    Json::object()
                        .with("cores", pick.config.cores)
                        .with("llc_mb", pick.config.llc_mb)
                        .with("pd", pick.performance_density)
                        .with("area_mm2", pick.area_mm2)
                        .with("power_w", pick.power_w)
                        .with("bandwidth_gbps", pick.bandwidth_gbps),
                ),
        );
    }
    out
}

fn chips(node: TechnologyNode) -> Json {
    println!("== Reference chips at {node} ==");
    println!(
        "  {:34} {:>6} {:>5} {:>5} {:>3} {:>6} {:>6} {:>6} {:>7}",
        "design", "PD", "cores", "LLC", "MC", "die", "power", "P/W", "bw"
    );
    let mut designs = vec![DesignKind::Conventional];
    for k in [CoreKind::OutOfOrder, CoreKind::InOrder] {
        designs.extend([
            DesignKind::Tiled(k),
            DesignKind::LlcOptimalTiled(k),
            DesignKind::LlcOptimalTiledIr(k),
            DesignKind::Ideal(k),
            DesignKind::OnePod(k),
            DesignKind::ScaleOut(k),
        ]);
    }
    let mut rows = Vec::new();
    for d in designs {
        let c = reference_chip(d, node);
        println!(
            "  {:34} {:>6.3} {:>5} {:>5.1} {:>3} {:>6.1} {:>6.1} {:>6.2} {:>7.1}",
            c.label,
            c.performance_density,
            c.cores,
            c.llc_mb,
            c.memory_channels,
            c.die_mm2,
            c.power_w,
            c.perf_per_watt,
            c.bandwidth_gbps
        );
        rows.push(
            Json::object()
                .with("design", c.label.as_str())
                .with("pd", c.performance_density)
                .with("cores", c.cores)
                .with("llc_mb", c.llc_mb)
                .with("memory_channels", c.memory_channels)
                .with("die_mm2", c.die_mm2)
                .with("power_w", c.power_w)
                .with("perf_per_watt", c.perf_per_watt)
                .with("bandwidth_gbps", c.bandwidth_gbps),
        );
    }
    Json::Arr(rows)
}
