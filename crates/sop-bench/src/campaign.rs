//! Named experiment campaigns for `sop sweep`.
//!
//! A group campaign (`ch2`…`ch6`, `degradation`, `ablation`) covers the
//! entries of [`FIGURES`] in that group that carry data. It runs their
//! simulation points as one engine campaign named after the sweep
//! (cached, parallel, duplicates computed once), then writes each
//! entry's member from its slice of the results. `all` does the same
//! over the groups in [`figures::ALL`], into one document with a section
//! per group. `fleet` and `resilience` run the fleet simulator's grids.

use crate::figures::{self, Figure, FIGURES};
use sop_exec::Exec;
use sop_obs::Json;

/// The campaigns `sop sweep` accepts. `all` merges the chapters only:
/// `degradation` injects faults, `ablation` departs from the thesis'
/// design choices, `fleet` simulates dynamic traffic, `resilience` adds
/// correlated failures and client behavior on top, and the canonical
/// fault-free reproduction must stay byte-identical whether or not those
/// sweeps ever ran.
pub const CAMPAIGNS: [&str; 10] = [
    "ch2",
    "ch3",
    "ch4",
    "ch5",
    "ch6",
    "degradation",
    "ablation",
    "fleet",
    "resilience",
    "all",
];

/// Runs the named campaign and returns its data as a JSON section:
/// one member per figure, rows in figure order. `None` for an unknown
/// name.
pub fn run_campaign(name: &str, quick: bool, exec: &Exec) -> Option<Json> {
    let groups: &[&str] = match name {
        "fleet" => return Some(fleet_data(quick, exec)),
        "resilience" => return Some(resilience_data(quick, exec)),
        "all" => &figures::ALL,
        _ if CAMPAIGNS.contains(&name) => std::slice::from_ref(&name),
        _ => return None,
    };
    let entries: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| f.data.is_some() && groups.contains(&f.group))
        .collect();
    let points = figures::run(exec, name, &entries, quick, None);
    let group_data = |group: &str| {
        entries
            .iter()
            .zip(&points)
            .filter(|(f, _)| f.group == group)
            .fold(Json::object(), |doc, (f, points)| {
                let (member, data) = f.data.expect("entries carry data");
                doc.with(member, data(points, quick))
            })
    };
    Some(match groups {
        [group] => group_data(group),
        _ => groups
            .iter()
            .fold(Json::object(), |doc, &g| doc.with(g, group_data(g))),
    })
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
