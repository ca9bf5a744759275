//! Named experiment campaigns for `sop sweep`.
//!
//! Each campaign regenerates one chapter's machine-readable data through
//! the execution engine: simulation-backed chapters batch their points
//! into engine jobs (cached, parallel, resumable), analytic chapters fan
//! out over the worker pool. `all` runs every chapter into one merged
//! document.

use crate::{ch2, ch3, ch4, ch5, ch6, degradation};
use sop_exec::Exec;
use sop_noc::TopologyKind;
use sop_obs::Json;
use sop_workloads::Workload;

/// The campaigns `sop sweep` accepts. `all` merges the chapters only:
/// `degradation` injects faults, `fleet` simulates dynamic traffic,
/// `resilience` adds correlated failures and client behavior on top,
/// and the canonical fault-free reproduction must stay byte-identical
/// whether or not those sweeps ever ran.
pub const CAMPAIGNS: [&str; 9] = [
    "ch2",
    "ch3",
    "ch4",
    "ch5",
    "ch6",
    "degradation",
    "fleet",
    "resilience",
    "all",
];

/// Runs the named campaign and returns its data as a JSON section:
/// one member per figure, rows in figure order. `None` for an unknown
/// name.
pub fn run_campaign(name: &str, quick: bool, exec: &Exec) -> Option<Json> {
    match name {
        "ch2" => Some(ch2_data(exec)),
        "ch3" => Some(ch3_data(quick, exec)),
        "ch4" => Some(ch4_data(quick, exec)),
        "ch5" => Some(ch5_data(exec)),
        "ch6" => Some(ch6_data(exec)),
        "degradation" => Some(degradation_data(quick, exec)),
        "fleet" => Some(fleet_data(quick, exec)),
        "resilience" => Some(resilience_data(quick, exec)),
        "all" => Some(
            Json::object()
                .with("ch2", ch2_data(exec))
                .with("ch3", ch3_data(quick, exec))
                .with("ch4", ch4_data(quick, exec))
                .with("ch5", ch5_data(exec))
                .with("ch6", ch6_data(exec)),
        ),
        _ => None,
    }
}

fn ch2_data(exec: &Exec) -> Json {
    let fig2_1 = Json::Arr(
        ch2::fig2_1()
            .into_iter()
            .map(|(w, ipc)| Json::object().with("workload", w.label()).with("ipc", ipc))
            .collect(),
    );
    let fig2_2 = Json::Arr(
        ch2::fig2_2_on(exec)
            .into_iter()
            .map(|(w, series)| {
                Json::object().with("workload", w.label()).with(
                    "normalised",
                    Json::Arr(series.into_iter().map(Json::Num).collect()),
                )
            })
            .collect(),
    );
    let fig2_3 = Json::Arr(
        ch2::fig2_3_on(exec)
            .into_iter()
            .map(|(n, ideal, mesh)| {
                Json::object()
                    .with("cores", n)
                    .with("ideal", ideal)
                    .with("mesh", mesh)
            })
            .collect(),
    );
    Json::object()
        .with("fig2.1", fig2_1)
        .with("fig2.2", fig2_2)
        .with("fig2.3", fig2_3)
}

fn ch3_data(quick: bool, exec: &Exec) -> Json {
    let fig3_1 = Json::Arr(
        ch3::fig3_1()
            .into_iter()
            .map(|(n, per_core, per_chip, pd)| {
                Json::object()
                    .with("cores", n)
                    .with("per_core_ipc", per_core)
                    .with("aggregate_ipc", per_chip)
                    .with("pd", pd)
            })
            .collect(),
    );
    let mut fig3_3 = Vec::new();
    for topology in [
        TopologyKind::Ideal,
        TopologyKind::Crossbar,
        TopologyKind::Mesh,
    ] {
        for w in Workload::ALL {
            for p in ch3::fig3_3_on(exec, w, topology, quick) {
                fig3_3.push(
                    Json::object()
                        .with("workload", p.workload.label())
                        .with("topology", format!("{:?}", p.topology).as_str())
                        .with("cores", p.cores)
                        .with("simulated_ipc", p.simulated_ipc)
                        .with("modeled_ipc", p.modeled_ipc),
                );
            }
        }
    }
    Json::object()
        .with("fig3.1", fig3_1)
        .with("fig3.3", Json::Arr(fig3_3))
}

fn ch4_data(quick: bool, exec: &Exec) -> Json {
    let fig4_3 = Json::Arr(
        ch4::fig4_3_on(exec, quick)
            .into_iter()
            .map(|(w, f)| {
                Json::object()
                    .with("workload", w.label())
                    .with("snoop_fraction", f)
            })
            .collect(),
    );
    let fig4_6 = Json::Arr(
        ch4::noc_performance_on(exec, [128, 128, 128], quick)
            .into_iter()
            .map(|(w, r)| {
                Json::object()
                    .with("workload", w.label())
                    .with("mesh", r[0])
                    .with("fbfly", r[1])
                    .with("nocout", r[2])
            })
            .collect(),
    );
    let fig4_9 = Json::Arr(
        ch4::fig4_9_power_on(exec, quick)
            .into_iter()
            .map(|(kind, w)| {
                Json::object()
                    .with("fabric", format!("{kind:?}").as_str())
                    .with("mean_power_w", w)
            })
            .collect(),
    );
    Json::object()
        .with("fig4.3", fig4_3)
        .with("fig4.6", fig4_6)
        .with("fig4.9", fig4_9)
}

/// The fleet campaign: every chip organization × both repair policies,
/// 64 servers quick / 256 full, at the fixed campaign seed 42.
fn fleet_data(quick: bool, exec: &Exec) -> Json {
    let servers = if quick { 64 } else { 256 };
    let specs = sop_fleet::grid(servers, 42, quick, None, None);
    Json::object().with(
        "fleet",
        Json::Arr(sop_fleet::fleet_points(exec, "fleet", &specs)),
    )
}

/// The resilience campaign: for the thesis' flagship organization,
/// every domain topology × retry policy × shedder arming (the ambient
/// sweep), plus the committed storm pair — one scripted PDU outage
/// under naive retries, shedder off (retry-storm collapse) and on
/// (bounded brownout). 64 servers quick / 256 full, seed 42.
fn resilience_data(quick: bool, exec: &Exec) -> Json {
    let servers = if quick { 64 } else { 256 };
    let mut specs =
        sop_fleet::resilience_grid(servers, 42, quick, Some("scaleout-ooo"), None, None, None);
    specs.extend(sop_fleet::storm_pair("scaleout-ooo", servers, 42, quick));
    Json::object().with(
        "resilience",
        Json::Arr(sop_fleet::resilience_points(exec, "resilience", &specs)),
    )
}

fn degradation_data(quick: bool, exec: &Exec) -> Json {
    Json::object().with(
        "degradation",
        Json::Arr(
            degradation::sweep_on(exec, quick)
                .iter()
                .map(degradation::DegradationRow::to_json)
                .collect(),
        ),
    )
}

fn ch5_data(exec: &Exec) -> Json {
    let dcs = ch5::datacenters_on(exec, 64);
    let base_perf = dcs[0].performance;
    let base_tco = dcs[0].tco.total_usd();
    Json::object().with(
        "fig5.1_5.2",
        Json::Arr(
            dcs.iter()
                .map(|dc| {
                    Json::object()
                        .with("chip", dc.chip.label.as_str())
                        .with("performance_x", dc.performance / base_perf)
                        .with("tco_x", dc.tco.total_usd() / base_tco)
                        .with("perf_per_tco", dc.perf_per_tco())
                })
                .collect(),
        ),
    )
}

fn ch6_data(exec: &Exec) -> Json {
    use sop_3d::{Pod3d, StackStrategy};
    use sop_tech::CoreKind;
    let combos: Vec<(CoreKind, u32, StackStrategy)> = [CoreKind::OutOfOrder, CoreKind::InOrder]
        .iter()
        .flat_map(|&kind| {
            let max_dies: &[u32] = if kind == CoreKind::InOrder {
                &[1, 2, 3]
            } else {
                &[1, 2, 4]
            };
            max_dies.iter().flat_map(move |&dies| {
                [StackStrategy::FixedPod, StackStrategy::FixedDistance]
                    .iter()
                    .filter(move |&&s| !(dies == 1 && s == StackStrategy::FixedDistance))
                    .map(move |&s| (kind, dies, s))
            })
        })
        .collect();
    let rows = exec.map(combos, |(kind, dies, strategy)| {
        let (cores, mb) = ch6::base_pod(kind);
        let pod = Pod3d::new(kind, cores, mb, dies, strategy);
        let m = pod.metrics();
        Json::object()
            .with("core", kind.label())
            .with("dies", dies)
            .with("strategy", format!("{strategy:?}").as_str())
            .with("total_cores", pod.total_cores())
            .with("total_llc_mb", pod.total_llc_mb())
            .with("pd3d", m.performance_density_3d)
    });
    Json::object().with("tab6.2", Json::Arr(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_campaign_is_none() {
        assert!(run_campaign("ch99", true, &Exec::sequential()).is_none());
    }

    #[test]
    fn fleet_campaign_covers_every_org_and_policy() {
        let rows_per_grid = sop_fleet::ORGS.len() * sop_fleet::Policy::ALL.len();
        let fleet = run_campaign("fleet", true, &Exec::sequential()).expect("fleet");
        let rows = fleet.get("fleet").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), rows_per_grid);
        for row in rows {
            assert!(row.get("failed").is_none(), "{row:?}");
            assert!(row.get("cost_per_sustained_kqps_usd").is_some());
            assert!(row.get("curve").and_then(Json::as_arr).is_some());
        }
    }

    #[test]
    fn resilience_campaign_covers_the_sweep_and_the_storm_pair() {
        let resilience = run_campaign("resilience", true, &Exec::sequential()).expect("resilience");
        let rows = resilience
            .get("resilience")
            .and_then(Json::as_arr)
            .expect("rows");
        // topologies x retries x shed for one org, plus the storm pair.
        assert_eq!(rows.len(), 3 * 4 * 2 + 2);
        let storm: Vec<&Json> = rows
            .iter()
            .filter(|r| matches!(r.get("storm"), Some(Json::Bool(true))))
            .collect();
        assert_eq!(storm.len(), 2);
        for row in rows {
            assert!(row.get("failed").is_none(), "{row:?}");
            assert!(row.get("availability").is_some());
            assert!(row.get("retry_amplification").is_some());
        }
        // The committed scenario: collapse without the shedder, a
        // bounded brownout with it.
        let pct = |r: &Json| {
            r.get("storm_stats")
                .and_then(|s| s.get("goodput_vs_capacity_pct"))
                .and_then(Json::as_f64)
                .expect("storm pct")
        };
        let (off, on) = (
            storm
                .iter()
                .find(|r| matches!(r.get("shed"), Some(Json::Bool(false))))
                .expect("shed-off row"),
            storm
                .iter()
                .find(|r| matches!(r.get("shed"), Some(Json::Bool(true))))
                .expect("shed-on row"),
        );
        assert!(pct(off) < 50.0, "collapse missing: {}", pct(off));
        assert!(pct(on) >= 90.0, "brownout unbounded: {}", pct(on));
        // The storm pair arms the SLO monitoring plane: both legs carry
        // series + burn-rate analyses, and detection precedes repair.
        for row in &storm {
            assert!(row.get("series").is_some(), "storm row missing series");
            let analyses = row.get("slo").and_then(Json::as_arr).expect("slo");
            let detection = analyses[0]
                .get("detection_tick")
                .and_then(Json::as_f64)
                .expect("detected");
            let repair = row
                .get("storm_stats")
                .and_then(|s| s.get("end_tick"))
                .and_then(Json::as_f64)
                .expect("repair tick");
            assert!(detection < repair, "{detection} vs {repair}");
        }
        // Ambient grid rows stay disarmed: zero new report keys.
        for row in rows.iter().filter(|r| !storm.contains(r)) {
            assert!(row.get("series").is_none() && row.get("slo").is_none());
        }
    }

    #[test]
    fn analytic_campaigns_have_their_figures() {
        let exec = Exec::sequential();
        let ch2 = run_campaign("ch2", true, &exec).expect("ch2");
        assert_eq!(
            ch2.get("fig2.1").and_then(Json::as_arr).map(<[Json]>::len),
            Some(Workload::ALL.len())
        );
        let ch5 = run_campaign("ch5", true, &exec).expect("ch5");
        assert_eq!(
            ch5.get("fig5.1_5.2")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(7)
        );
        let ch6 = run_campaign("ch6", true, &exec).expect("ch6");
        assert!(
            ch6.get("tab6.2")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len)
                >= 8
        );
    }
}
