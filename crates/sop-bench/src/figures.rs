//! The figure table: the one definition of every experiment.
//!
//! Each [`Figure`] entry names one table or figure of the thesis (the id
//! `repro` takes, plus the ids of tables it prints identically), the
//! group it belongs to, the simulation points it reads, and how it
//! renders them: as text for `repro` and, for the figures `sop sweep`
//! serialises, as a JSON member. [`run`] evaluates the points of any set
//! of entries as one engine campaign, so both commands batch every
//! independent point of a run together and compute each distinct one
//! once.
//!
//! Adding a figure is adding one entry. Its typed rows and its text
//! live in its chapter module; the entry builds its JSON member from the
//! same rows.

use crate::points::{sim_points, SimPoint, SimPointSpec, SpecFaults};
use crate::{ablation, ch2, ch3, ch4, ch5, ch6, degradation};
use sop_exec::Exec;
use sop_obs::Json;
use sop_tech::CoreKind::{InOrder, OutOfOrder};
use sop_tech::TechnologyNode::{N20, N40};

/// Renders an entry from its points (in the order of its specs) and the
/// `--quick` flag.
pub type Render<T> = fn(&[SimPoint], bool) -> T;

/// One table or figure.
#[derive(Debug)]
pub struct Figure {
    /// The id `repro` takes, e.g. `"fig4.6"`.
    pub id: &'static str,
    /// Other ids that print the same text (`tab2.2` is `tab2.1`).
    pub aliases: &'static [&'static str],
    /// `ch2`…`ch6`, `degradation` for the fault sweep or `ablation` for
    /// the design-choice ablations. `all` runs the groups in [`ALL`].
    pub group: &'static str,
    /// The simulation points the entry reads; none for an analytic one.
    pub specs: fn(bool) -> Vec<SimPointSpec>,
    /// The entry as `repro` prints it, each line newline-terminated.
    pub text: Render<String>,
    /// The member `sop sweep` writes for this entry, and its value.
    pub data: Option<(&'static str, Render<Json>)>,
}

impl Figure {
    const fn new(id: &'static str, group: &'static str, text: Render<String>) -> Self {
        Figure {
            id,
            aliases: &[],
            group,
            specs: |_| Vec::new(),
            text,
            data: None,
        }
    }

    const fn aliases(self, aliases: &'static [&'static str]) -> Self {
        Figure { aliases, ..self }
    }

    const fn specs(self, specs: fn(bool) -> Vec<SimPointSpec>) -> Self {
        Figure { specs, ..self }
    }

    const fn data(self, member: &'static str, data: Render<Json>) -> Self {
        Figure {
            data: Some((member, data)),
            ..self
        }
    }
}

/// The groups `all` runs, in document order. `degradation` injects
/// faults and `ablation` strays from the thesis' choices on purpose, so
/// neither is part of the canonical reproduction.
pub const ALL: [&str; 5] = ["ch2", "ch3", "ch4", "ch5", "ch6"];

/// Every experiment, in the order `repro all` prints them; the entries
/// `all` leaves out come last.
pub static FIGURES: [Figure; 33] = [
    Figure::new("fig2.1", "ch2", |_, _| ch2::fig2_1_text()).data("fig2.1", |_, _| {
        rows(ch2::fig2_1(), |(w, ipc)| {
            Json::object().with("workload", w.label()).with("ipc", ipc)
        })
    }),
    Figure::new("fig2.2", "ch2", |_, _| ch2::fig2_2_text()).data("fig2.2", |_, _| {
        rows(ch2::fig2_2(), |(w, series)| {
            let normalised = rows(series, Json::Num);
            Json::object()
                .with("workload", w.label())
                .with("normalised", normalised)
        })
    }),
    Figure::new("fig2.3", "ch2", |_, _| ch2::fig2_3_text()).data("fig2.3", |_, _| {
        rows(ch2::fig2_3(), |(n, ideal, mesh)| {
            Json::object()
                .with("cores", n)
                .with("ideal", ideal)
                .with("mesh", mesh)
        })
    }),
    Figure::new("tab2.1", "ch2", |_, _| ch2::tab2_1_text()).aliases(&["tab2.2", "tab6.1"]),
    Figure::new("tab2.3", "ch2", |_, _| ch2::tab2_3_text(N40)),
    Figure::new("tab2.4", "ch2", |_, _| ch2::tab2_3_text(N20)),
    Figure::new("fig3.1", "ch3", |_, _| ch3::fig3_1_text()).data("fig3.1", |_, _| {
        rows(ch3::fig3_1(), |(n, per_core, per_chip, pd)| {
            Json::object()
                .with("cores", n)
                .with("per_core_ipc", per_core)
                .with("aggregate_ipc", per_chip)
                .with("pd", pd)
        })
    }),
    Figure::new("fig3.3", "ch3", ch3::fig3_3_text)
        .specs(ch3::fig3_3_all_specs)
        .data("fig3.3", |points, quick| {
            rows(
                ch3::fig3_3_rows(&ch3::fig3_3_all_specs(quick), points),
                |p| {
                    Json::object()
                        .with("workload", p.workload.label())
                        .with("topology", format!("{:?}", p.topology).as_str())
                        .with("cores", p.cores)
                        .with("simulated_ipc", p.simulated_ipc)
                        .with("modeled_ipc", p.modeled_ipc)
                },
            )
        }),
    Figure::new("fig3.4", "ch3", |_, _| ch3::pd_sweep_text(OutOfOrder)),
    Figure::new("fig3.5", "ch3", |_, _| ch3::fig3_5_text()),
    Figure::new("fig3.6", "ch3", |_, _| ch3::pd_sweep_text(InOrder)),
    Figure::new("tab3.2", "ch3", |_, _| ch3::tab3_2_text()),
    Figure::new("sec3.4.5", "ch3", |_, _| ch3::sec3_4_5_text()),
    Figure::new("fig4.3", "ch4", |points, _| ch4::fig4_3_text(points))
        .specs(ch4::fig4_3_specs)
        .data("fig4.3", |points, _| {
            rows(ch4::fig4_3_rows(points), |(w, f)| {
                Json::object()
                    .with("workload", w.label())
                    .with("snoop_fraction", f)
            })
        }),
    Figure::new("tab4.1", "ch4", |_, _| ch4::tab4_1_text()),
    Figure::new("fig4.6", "ch4", |points, _| ch4::fig4_6_text(points))
        .specs(|quick| ch4::noc_performance_specs([128; 3], quick))
        .data("fig4.6", |points, _| {
            rows(ch4::noc_performance_rows(points), |(w, r)| {
                Json::object()
                    .with("workload", w.label())
                    .with("mesh", r[0])
                    .with("fbfly", r[1])
                    .with("nocout", r[2])
            })
        }),
    Figure::new("fig4.7", "ch4", |_, _| ch4::fig4_7_text()),
    Figure::new("fig4.8", "ch4", |points, _| ch4::fig4_8_text(points))
        .specs(|quick| ch4::noc_performance_specs(ch4::equal_area_widths(), quick)),
    Figure::new("fig4.9", "ch4", ch4::fig4_9_text)
        .specs(ch4::fig4_9_specs)
        .data("fig4.9", |points, quick| {
            rows(ch4::fig4_9_rows(points, quick), |(kind, w)| {
                let fabric = format!("{kind:?}");
                Json::object()
                    .with("fabric", fabric.as_str())
                    .with("mean_power_w", w)
            })
        }),
    Figure::new("sec4.5", "ch4", |_, _| ch4::sec4_5_text()),
    Figure::new("tab5.1", "ch5", |_, _| ch5::tab5_1_text()),
    Figure::new("tab5.2", "ch5", |_, _| ch5::tab5_2_text()),
    Figure::new("fig5.1", "ch5", |_, _| ch5::fig5_1_text()).data("fig5.1_5.2", |_, _| {
        rows(ch5::fig5_1_5_2(), |(dc, perf, tco)| {
            Json::object()
                .with("chip", dc.chip.label.as_str())
                .with("performance_x", perf)
                .with("tco_x", tco)
                .with("perf_per_tco", dc.perf_per_tco())
        })
    }),
    Figure::new("fig5.2", "ch5", |_, _| ch5::fig5_2_text()),
    Figure::new("fig5.3", "ch5", |_, _| ch5::fig5_3_text()).aliases(&["fig5.4"]),
    Figure::new("fig5.5", "ch5", |_, _| ch5::fig5_5_text()),
    Figure::new("fig6.4", "ch6", |_, _| ch6::pd3d_sweep_text(OutOfOrder)),
    Figure::new("fig6.5", "ch6", |_, _| ch6::strategy_text(OutOfOrder)),
    Figure::new("fig6.6", "ch6", |_, _| ch6::pd3d_sweep_text(InOrder)),
    Figure::new("fig6.7", "ch6", |_, _| ch6::strategy_text(InOrder)),
    Figure::new("tab6.2", "ch6", |_, _| ch6::tab6_2_text()).data("tab6.2", |_, _| {
        rows(ch6::tab6_2(), |pod| {
            Json::object()
                .with("core", pod.core_kind.label())
                .with("dies", pod.dies)
                .with("strategy", format!("{:?}", pod.strategy).as_str())
                .with("total_cores", pod.total_cores())
                .with("total_llc_mb", pod.total_llc_mb())
                .with("pd3d", pod.metrics().performance_density_3d)
        })
    }),
    Figure::new("degradation", "degradation", |points, _| {
        degradation::sweep_text(points)
    })
    .specs(degradation::sweep_specs)
    .data("degradation", |points, _| {
        rows(degradation::sweep_rows(points), |r| r.to_json())
    }),
    Figure::new("ablation", "ablation", |points, _| ablation::text(points))
        .specs(|_| ablation::specs())
        .data("ablation", |points, _| ablation::data(points)),
];

/// `rows` as a JSON array, one element per row.
fn rows<T>(rows: impl IntoIterator<Item = T>, row: impl FnMut(T) -> Json) -> Json {
    Json::Arr(rows.into_iter().map(row).collect())
}

/// The entry printed for `id`, which may be an alias.
pub fn find(id: &str) -> Option<&'static Figure> {
    FIGURES
        .iter()
        .find(|f| f.id == id || f.aliases.contains(&id))
}

/// Evaluates the simulation points of `figures` as one engine campaign
/// named `campaign` (none when no entry simulates) and returns each
/// entry's points, in the order of its specs. `faults` is attached to
/// every spec that carries no schedule of its own.
pub fn run(
    exec: &Exec,
    campaign: &str,
    figures: &[&Figure],
    quick: bool,
    faults: Option<SpecFaults>,
) -> Vec<Vec<SimPoint>> {
    let specs: Vec<Vec<SimPointSpec>> = figures.iter().map(|f| (f.specs)(quick)).collect();
    let all: Vec<SimPointSpec> = specs
        .iter()
        .flatten()
        .map(|s| s.with_faults(s.faults().or(faults)))
        .collect();
    let points = if all.is_empty() {
        Vec::new()
    } else {
        sim_points(exec, campaign, &all)
    };
    let mut rest = points.as_slice();
    specs
        .iter()
        .map(|s| {
            let (mine, next) = rest.split_at(s.len());
            rest = next;
            mine.to_vec()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed output of `repro all --jobs 2`.
    const REPRO_OUTPUT: &str = include_str!("../../../repro_output.txt");

    #[test]
    fn every_id_and_alias_names_one_entry() {
        let mut ids: Vec<&str> = FIGURES
            .iter()
            .flat_map(|f| std::iter::once(f.id).chain(f.aliases.iter().copied()))
            .collect();
        let count = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), count, "an id is defined twice");
        for id in ids {
            assert!(find(id).is_some(), "{id}");
        }
        assert!(find("fig9.9").is_none());
    }

    #[test]
    fn analytic_entries_render_the_committed_text() {
        // Analytic text does not depend on `--quick`, so each entry that
        // simulates nothing must appear verbatim in the snapshot.
        let analytic: Vec<&Figure> = FIGURES
            .iter()
            .filter(|f| (f.specs)(true).is_empty())
            .collect();
        assert_eq!(analytic.len(), 26);
        for f in analytic {
            let text = (f.text)(&[], true);
            assert!(text.ends_with('\n'), "{}", f.id);
            assert!(
                REPRO_OUTPUT.contains(&format!("{text}\n")),
                "{} differs from repro_output.txt:\n{text}",
                f.id
            );
        }
    }

    #[test]
    fn each_entry_gets_its_own_points_and_faults_fill_only_empty_schedules() {
        let exec = Exec::sequential();
        let entries = [
            find("fig2.1").expect("fig2.1"),
            find("degradation").expect("degradation"),
        ];
        let f = SpecFaults {
            seed: 9,
            dead: 1,
            cycle: 0,
        };
        let points = run(&exec, "figures-test", &entries, true, Some(f));
        assert_eq!(points[0].len(), 0);
        let specs = degradation::sweep_specs(true);
        assert_eq!(points[1].len(), specs.len());
        // The healthy level takes the override; the damaged ones keep
        // their own schedules.
        let expected: Vec<SimPointSpec> = specs
            .iter()
            .map(|s| s.with_faults(s.faults().or(Some(f))))
            .collect();
        assert_eq!(expected[0].faults(), Some(f));
        assert_eq!(expected[1].faults(), specs[1].faults());
        assert_eq!(points[1], sim_points(&exec, "figures-test", &expected));
    }
}
