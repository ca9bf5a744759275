//! Worker-count determinism: a campaign's data and its stabilized report
//! are byte-identical whether the engine runs one worker or eight.

use sop_bench::campaign::run_campaign;
use sop_exec::Exec;
use sop_obs::{stabilized, Json, Registry, Report, SpanLog};

/// The analytic chapters produce identical JSON for any worker count.
#[test]
fn analytic_campaigns_are_worker_count_invariant() {
    for name in ["ch2", "ch5", "ch6"] {
        let seq = run_campaign(name, true, &Exec::sequential()).expect("known campaign");
        let par = run_campaign(name, true, &Exec::with_workers(8)).expect("known campaign");
        assert_eq!(
            seq.to_compact_string(),
            par.to_compact_string(),
            "campaign {name} diverged across worker counts"
        );
    }
}

/// A stabilized report hides everything schedule-dependent: two runs
/// with different worker counts (and so different `exec.*` metrics and
/// span timings) render byte-identically.
#[test]
fn stabilized_reports_compare_across_worker_counts() {
    let render = |workers: usize| {
        let exec = Exec::with_workers(workers);
        let mut spans = SpanLog::new();
        let data = spans.time("ch2", |_| {
            run_campaign("ch2", true, &exec).expect("known campaign")
        });
        let mut metrics = Registry::new();
        metrics.merge(&exec.metrics_snapshot());
        let mut report = Report::new("sweep", "determinism probe");
        report.set("data", data);
        stabilized(&report.to_json(&spans, &metrics)).to_pretty_string()
    };
    assert_eq!(render(1), render(8));
}

/// FNV-1a over the compact rendering, so member order counts as well
/// as every value.
fn digest(doc: &Json) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in doc.to_compact_string().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The quick data of the analytic chapters, the degradation sweep and
/// the ablations, pinned by digest: a refactor of how figures are built must leave
/// every byte of `sop sweep`'s data as it was.
#[test]
fn campaign_data_is_pinned() {
    for (name, pinned) in [
        ("ch2", "c1a8ae9ce41b36f4"),
        ("ch5", "150d397c33fad157"),
        ("ch6", "50146844cf4a852e"),
        ("degradation", "70902e7fe7903d62"),
        ("ablation", "0dd5f6b0f55b2cd9"),
    ] {
        let data = run_campaign(name, true, &Exec::sequential()).expect("known campaign");
        assert_eq!(digest(&data), pinned, "campaign {name} data changed");
    }
}
