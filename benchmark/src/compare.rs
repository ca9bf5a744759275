//! Comparing two results sets: per workload and end-to-end metric, a
//! regression verdict against the metric's bound; optionally a claim
//! that one metric improved on one workload.
//!
//! A side is one results file or a directory of them (merged in file
//! name order, as `ab.sh` writes one file per pair). Sample `i` of one
//! side pairs with sample `i` of the other.

use std::collections::BTreeMap;
use std::path::Path;

use sop_obs::{json, Json};

use crate::harness::SCHEMA;
use crate::spec::{spec, MetricDef};
use crate::stats::{fmt_value, Summary};

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// Host stamp; both sides must match.
    pub host: Json,
    /// Tree stamp of every merged file.
    pub trees: Vec<Json>,
    /// Workload name → its readings.
    pub workloads: BTreeMap<String, SideWorkload>,
}

/// One workload's readings on one side.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SideWorkload {
    /// End-to-end metric name → readings in sample order.
    pub values: BTreeMap<String, Vec<f64>>,
    /// Every sample's output digest.
    pub digests: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Side {
    /// Loads a results file, or every `*.json` results file in a
    /// directory.
    pub fn load(path: &Path) -> Result<Side, String> {
        let files = if path.is_dir() {
            let mut files: Vec<_> = std::fs::read_dir(path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            files.sort();
            files
        } else {
            vec![path.to_path_buf()]
        };
        let mut side: Option<Side> = None;
        for file in &files {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            let one = Side::from_json(&doc).map_err(|e| format!("{}: {e}", file.display()))?;
            side = Some(match side {
                None => one,
                Some(acc) => acc
                    .merge(one)
                    .map_err(|e| format!("{}: {e}", file.display()))?,
            });
        }
        side.ok_or_else(|| format!("{}: no results files", path.display()))
    }

    /// Reads one results document.
    pub fn from_json(doc: &Json) -> Result<Side, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} results file"));
        }
        let Some(Json::Obj(entries)) = doc.get("workloads") else {
            return Err("no workloads".into());
        };
        let mut workloads = BTreeMap::new();
        for (name, entry) in entries {
            let samples = entry
                .get("samples")
                .and_then(Json::as_arr)
                .unwrap_or_default();
            let mut w = SideWorkload::default();
            for m in &spec().end_to_end {
                // `setup_s` is read by the set-up-only children, the
                // rest once per sample.
                let readings = if m.name == "setup_s" {
                    entry
                        .get("setup_reps")
                        .and_then(Json::as_arr)
                        .unwrap_or_default()
                        .iter()
                        .collect()
                } else {
                    samples
                        .iter()
                        .map(|s| s.get(&m.name))
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(|| format!("{name}: a sample lacks {}", m.name))?
                };
                let values = readings
                    .into_iter()
                    .map(Json::as_f64)
                    .collect::<Option<Vec<f64>>>()
                    .ok_or_else(|| format!("{name}: a {} reading is not a number", m.name))?;
                w.values.insert(m.name.clone(), values);
            }
            w.digests = samples
                .iter()
                .map(|s| {
                    s.get("digest")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned()
                })
                .collect();
            let count = |k: &str| entry.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            w.attempted = count("attempted");
            w.failed = count("failed");
            workloads.insert(name.clone(), w);
        }
        Ok(Side {
            host: doc.get("host").cloned().unwrap_or(Json::Null),
            trees: vec![doc.get("tree").cloned().unwrap_or(Json::Null)],
            workloads,
        })
    }

    /// Appends another file's samples (same host, same workloads).
    fn merge(mut self, other: Side) -> Result<Side, String> {
        if self.host != other.host {
            return Err("results from different hosts in one side".into());
        }
        if self.workloads.keys().ne(other.workloads.keys()) {
            return Err("results with different workloads in one side".into());
        }
        self.trees.extend(other.trees);
        for (name, theirs) in other.workloads {
            let ours = self.workloads.get_mut(&name).expect("same workload names");
            for (metric, values) in theirs.values {
                ours.values.entry(metric).or_default().extend(values);
            }
            ours.digests.extend(theirs.digests);
            ours.attempted += theirs.attempted;
            ours.failed += theirs.failed;
        }
        Ok(self)
    }
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Every sample of B beats every sample of A.
    Better,
    /// The quartile spread of a side exceeds the bound, so a change the
    /// size of the bound cannot be seen.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Judges B against the baseline A on one metric.
pub fn verdict(m: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return Verdict::Unresolved;
    };
    let bound = m.bound.unwrap_or(0.0);
    let b_dominates = b.iter().all(|&y| a.iter().all(|&x| m.beats(y, x)));
    if b_dominates {
        Verdict::Better
    } else if sa.spread() > bound || sb.spread() > bound {
        Verdict::Unresolved
    } else if m.worsening(sa.median, sb.median) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// The evidence for a claim that B improved a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClaimResult {
    /// Pairs compared (sample `i` of A with sample `i` of B).
    pub pairs: usize,
    /// Pairs B won; ties count for neither side.
    pub wins: usize,
    /// Improvement of B's median over A's, in the metric's unit.
    pub gap: f64,
    /// A's interquartile range.
    pub iqr_a: f64,
}

/// Pairs needed before a claim can be made.
pub const MIN_PAIRS: usize = 10;

impl ClaimResult {
    /// At least [`MIN_PAIRS`] pairs, B wins at least nine tenths of
    /// them, and the medians differ by more than A's interquartile range.
    pub fn won(&self) -> bool {
        self.pairs >= MIN_PAIRS && self.wins * 10 >= self.pairs * 9 && self.gap > self.iqr_a
    }
}

/// Weighs a claim that B improved `m` over A.
pub fn claim(m: &MetricDef, a: &[f64], b: &[f64]) -> ClaimResult {
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| m.beats(y, x)).count();
    let (gap, iqr_a) = match (Summary::of(a), Summary::of(b)) {
        (Some(sa), Some(sb)) => {
            let gap = if m.higher_is_better {
                sb.median - sa.median
            } else {
                sa.median - sb.median
            };
            (gap, sa.q3 - sa.q1)
        }
        _ => (0.0, 0.0),
    };
    ClaimResult {
        pairs,
        wins,
        gap,
        iqr_a,
    }
}

/// The outcome of `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The rendered report.
    pub text: String,
    /// Whether nothing regressed, every digest matched, B failed no more
    /// operations than A, and the claim (if any) was won.
    pub passed: bool,
}

/// Compares B against the baseline A. Refuses sides measured on
/// different hosts.
pub fn compare(a: &Side, b: &Side, claimed: Option<(&str, &str)>) -> Result<Comparison, String> {
    if a.host != b.host {
        return Err(format!(
            "refusing to compare results from different hosts:\n  A {}\n  B {}",
            a.host.to_compact_string(),
            b.host.to_compact_string()
        ));
    }
    if a.workloads.keys().ne(b.workloads.keys()) {
        return Err("the two sides ran different workloads".into());
    }
    let mut text = format!(
        "host {}\nA trees {}\nB trees {}\n",
        a.host.to_compact_string(),
        trees(a),
        trees(b)
    );
    text += &format!(
        "{:<11} {:<12} {:<5} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict\n",
        "workload", "metric", "unit", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change"
    );
    let mut passed = true;
    for (name, wa) in &a.workloads {
        let wb = &b.workloads[name];
        for m in &spec().end_to_end {
            let (va, vb) = (&wa.values[&m.name], &wb.values[&m.name]);
            let (Some(sa), Some(sb)) = (Summary::of(va), Summary::of(vb)) else {
                continue;
            };
            let v = verdict(m, va, vb);
            passed &= v != Verdict::Regression;
            text += &format!(
                "{:<11} {:<12} {:<5} {:>12} {:>25} {:>12} {:>25} {:>+7.2}%  {}\n",
                name,
                m.name,
                m.unit,
                fmt_value(sa.median),
                format!("[{}, {}]", fmt_value(sa.q1), fmt_value(sa.q3)),
                fmt_value(sb.median),
                format!("[{}, {}]", fmt_value(sb.q1), fmt_value(sb.q3)),
                100.0 * (sb.median - sa.median) / sa.median.abs(),
                v.label()
            );
        }
        let digests: Vec<&String> = wa.digests.iter().chain(&wb.digests).collect();
        if digests.windows(2).any(|d| d[0] != d[1]) {
            passed = false;
            text += &format!("{name}: output digests differ: FAIL\n");
        }
        if wb.failed > wa.failed {
            passed = false;
            text += &format!(
                "{name}: B failed {} operations, A {}: FAIL\n",
                wb.failed, wa.failed
            );
        }
    }
    if let Some((metric, workload)) = claimed {
        let m = spec()
            .end_to_end(metric)
            .ok_or_else(|| format!("no end-to-end metric {metric:?}"))?;
        let (wa, wb) = a
            .workloads
            .get(workload)
            .zip(b.workloads.get(workload))
            .ok_or_else(|| format!("no workload {workload:?} on both sides"))?;
        let c = claim(m, &wa.values[metric], &wb.values[metric]);
        passed &= c.won();
        text += &format!(
            "claim {metric}@{workload}: B won {} of {} pairs (need {} pairs and 9/10), median gap {} vs A's IQR {}: {}\n",
            c.wins,
            c.pairs,
            MIN_PAIRS,
            fmt_value(c.gap),
            fmt_value(c.iqr_a),
            if c.won() { "claim won" } else { "claim not met" }
        );
    }
    text += if passed { "PASS\n" } else { "FAIL\n" };
    Ok(Comparison { text, passed })
}

fn trees(side: &Side) -> String {
    let mut distinct: Vec<String> = side.trees.iter().map(Json::to_compact_string).collect();
    distinct.dedup();
    distinct.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic metrics with a 10% bound, so the cases below do not
    /// depend on the bounds `BENCHMARK.json` sets.
    fn wall() -> MetricDef {
        MetricDef {
            name: "wall_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.1),
        }
    }

    fn throughput() -> MetricDef {
        MetricDef {
            name: "throughput".into(),
            higher_is_better: true,
            ..wall()
        }
    }

    #[test]
    fn a_slower_median_beyond_the_bound_is_a_regression() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let b = [11.5, 11.6, 11.4, 11.5, 11.45];
        assert_eq!(verdict(&wall(), &a, &b), Verdict::Regression);
        let (ta, tb) = ([1.0, 1.01, 0.99], [0.8, 0.81, 0.79]);
        assert_eq!(verdict(&throughput(), &ta, &tb), Verdict::Regression);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let b = [8.0, 12.0, 9.0, 13.0, 10.0];
        assert_eq!(verdict(&wall(), &a, &b), Verdict::Unresolved);
        // ... unless every sample of B beats every sample of A.
        let b = [7.0, 9.5, 8.0, 9.8, 7.5];
        assert_eq!(verdict(&wall(), &a, &b), Verdict::Better);
    }

    #[test]
    fn a_change_within_the_bound_is_ok_in_either_direction() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let b = [10.5, 10.6, 10.4, 10.5, 10.55];
        assert_eq!(verdict(&wall(), &a, &b), Verdict::Ok);
        let (ta, tb) = ([1.0, 1.01, 0.99], [0.95, 1.02, 0.96]);
        assert_eq!(verdict(&throughput(), &ta, &tb), Verdict::Ok);
    }

    #[test]
    fn a_claim_needs_nine_wins_in_ten_pairs_and_a_gap_beyond_a_s_iqr() {
        let a: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let won: Vec<f64> = a.iter().map(|x| x - 0.5).collect();
        let c = claim(&wall(), &a, &won);
        assert_eq!((c.pairs, c.wins), (10, 10));
        assert!(c.won());
        // Eight wins of ten is not enough.
        let mut eight = won.clone();
        eight[0] = 20.0;
        eight[1] = 20.0;
        assert!(!claim(&wall(), &a, &eight).won());
        // A gap inside A's interquartile range is not enough.
        let close: Vec<f64> = a.iter().map(|x| x - 0.02).collect();
        let c = claim(&wall(), &a, &close);
        assert_eq!(c.wins, 10);
        assert!(!c.won());
        // Nor are fewer than ten pairs.
        assert!(!claim(&wall(), &a[..5], &won[..5]).won());
    }

    fn side(host: &str, digest: &str, walls: &[f64]) -> Side {
        let mut w = SideWorkload::default();
        for m in &spec().end_to_end {
            w.values.insert(m.name.clone(), walls.to_vec());
        }
        w.digests = vec![digest.to_owned(); walls.len()];
        w.attempted = 9;
        Side {
            host: Json::from(host),
            trees: vec![Json::Null],
            workloads: [("pod-long".to_owned(), w)].into_iter().collect(),
        }
    }

    #[test]
    fn different_hosts_are_refused_and_different_digests_fail() {
        let a = side("h1", "d", &[1.0, 1.0, 1.0]);
        assert!(compare(&a, &side("h2", "d", &[1.0, 1.0, 1.0]), None).is_err());
        let same = compare(&a, &side("h1", "d", &[1.0, 1.0, 1.0]), None).expect("same host");
        assert!(same.passed, "{}", same.text);
        let other = compare(&a, &side("h1", "e", &[1.0, 1.0, 1.0]), None).expect("same host");
        assert!(!other.passed);
        assert!(other.text.contains("digests differ"));
    }
}
