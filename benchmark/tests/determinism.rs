//! The pod-long child's output digest is a function of its seed alone:
//! two fresh processes at one seed agree, and another seed differs.

use std::process::Command;

fn pod_long_digest(seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sop-benchmark"))
        .args([
            "child",
            "--workload",
            "pod-long",
            "--mode",
            "full",
            "--seed",
        ])
        .arg(seed.to_string())
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "child failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let result = sop_obs::json::parse(stdout.trim_end()).expect("one JSON result line");
    assert_eq!(
        result.get("failed").and_then(sop_obs::Json::as_f64),
        Some(0.0),
        "{stdout}"
    );
    result
        .get("digest")
        .and_then(sop_obs::Json::as_str)
        .expect("a digest")
        .to_owned()
}

#[test]
fn pod_long_digest_repeats_at_one_seed_and_changes_with_the_seed() {
    let first = pod_long_digest(42);
    assert_eq!(first, pod_long_digest(42));
    assert_ne!(first, pod_long_digest(7));
}
