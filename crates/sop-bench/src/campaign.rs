//! Named experiment campaigns for `sop sweep`.
//!
//! Each campaign regenerates chapters' machine-readable data. A sweep
//! first collects the simulation specs of every figure it covers, runs
//! them as one engine campaign named after the sweep (cached, parallel,
//! duplicates computed once), then builds each figure from its slice of
//! the results. Analytic figures are computed in place. `all` runs every
//! chapter into one merged document.

use crate::points::{sim_points, SimPoint, SimPointSpec};
use crate::{ch2, ch3, ch4, ch5, ch6, degradation};
use sop_exec::Exec;
use sop_obs::Json;

/// The chapters `all` merges, in document order.
const CHAPTERS: [&str; 5] = ["ch2", "ch3", "ch4", "ch5", "ch6"];

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
        "degradation" => Some(degradation_data(quick, exec)),
        "fleet" => Some(fleet_data(quick, exec)),
        "resilience" => Some(resilience_data(quick, exec)),
        "all" => {
            let data = chapters_data(&CHAPTERS, name, quick, exec);
            Some(
                CHAPTERS
                    .into_iter()
                    .zip(data)
                    .fold(Json::object(), |doc, (ch, d)| doc.with(ch, d)),
            )
        }
        ch if CHAPTERS.contains(&ch) => chapters_data(&[ch], name, quick, exec).pop(),
        _ => None,
    }
}

/// The data of each of `chapters`, their simulations run as one engine
/// campaign named `campaign` (none when no chapter simulates).
fn chapters_data(chapters: &[&str], campaign: &str, quick: bool, exec: &Exec) -> Vec<Json> {
    let specs: Vec<Vec<SimPointSpec>> = chapters.iter().map(|&ch| sim_specs(ch, quick)).collect();
    let all: Vec<SimPointSpec> = specs.concat();
    let points = if all.is_empty() {
        Vec::new()
    } else {
        sim_points(exec, campaign, &all)
    };
    let mut rest = points.as_slice();
    chapters
        .iter()
        .zip(&specs)
        .map(|(&ch, specs)| {
            let (mine, next) = rest.split_at(specs.len());
            rest = next;
            match ch {
                "ch2" => ch2_data(),
                "ch3" => ch3_data(specs, mine),
                "ch4" => ch4_data(quick, mine),
                "ch5" => ch5_data(),
                _ => ch6_data(),
            }
        })
        .collect()
}

/// The simulation specs a chapter's figures need, in figure order.
fn sim_specs(chapter: &str, quick: bool) -> Vec<SimPointSpec> {
    match chapter {
        "ch3" => ch3::fig3_3_all_specs(quick),
        "ch4" => [
            ch4::fig4_3_specs(quick),
            ch4::noc_performance_specs([128, 128, 128], quick),
            ch4::fig4_9_specs(quick),
        ]
        .concat(),
        _ => Vec::new(),
    }
}

fn ch2_data() -> Json {
    let fig2_1 = Json::Arr(
        ch2::fig2_1()
            .into_iter()
            .map(|(w, ipc)| Json::object().with("workload", w.label()).with("ipc", ipc))
            .collect(),
    );
    let fig2_2 = Json::Arr(
        ch2::fig2_2()
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
        ch2::fig2_3()
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

/// Chapter 3's data; `specs` are [`ch3::fig3_3_all_specs`] and `points`
/// their results.
fn ch3_data(specs: &[SimPointSpec], points: &[SimPoint]) -> Json {
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
    let fig3_3 = Json::Arr(
        ch3::fig3_3_rows(specs, points)
            .into_iter()
            .map(|p| {
                Json::object()
                    .with("workload", p.workload.label())
                    .with("topology", format!("{:?}", p.topology).as_str())
                    .with("cores", p.cores)
                    .with("simulated_ipc", p.simulated_ipc)
                    .with("modeled_ipc", p.modeled_ipc)
            })
            .collect(),
    );
    Json::object().with("fig3.1", fig3_1).with("fig3.3", fig3_3)
}

/// Chapter 4's data from the points of its [`sim_specs`]: figs 4.3, 4.6
/// and 4.9 in that order.
fn ch4_data(quick: bool, points: &[SimPoint]) -> Json {
    let (fig4_3, rest) = points.split_at(ch4::fig4_3_specs(quick).len());
    let (fig4_6, fig4_9) = rest.split_at(ch4::noc_performance_specs([128; 3], quick).len());
    let fig4_3 = Json::Arr(
        ch4::fig4_3_rows(fig4_3)
            .into_iter()
            .map(|(w, f)| {
                Json::object()
                    .with("workload", w.label())
                    .with("snoop_fraction", f)
            })
            .collect(),
    );
    let fig4_6 = Json::Arr(
        ch4::noc_performance_rows(fig4_6)
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
        ch4::fig4_9_rows(fig4_9, quick)
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

fn ch5_data() -> Json {
    let dcs = ch5::datacenters(64);
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

fn ch6_data() -> Json {
    use sop_3d::{Pod3d, StackStrategy};
    use sop_tech::CoreKind;
    let rows = [CoreKind::OutOfOrder, CoreKind::InOrder]
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
        .map(|(kind, dies, strategy)| {
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
        })
        .collect();
    Json::object().with("tab6.2", Json::Arr(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sop_workloads::Workload;

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
