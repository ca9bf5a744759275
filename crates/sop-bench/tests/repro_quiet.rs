//! `repro --quiet` prints nothing but the report path: the figure text
//! and the golden summary are computed and written into the report, and
//! stdout carries only the path. Without `--quiet` the same run prints
//! the figure and says where the report went.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory the binary runs in, holding its cache.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sop-repro-quiet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `repro args` in `dir`: exit code, stdout, stderr.
fn repro(dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .env("SOP_CACHE_DIR", dir.join("cache"))
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn quiet_prints_only_the_report_path() {
    let dir = scratch("quiet");
    let (code, stdout, stderr) = repro(&dir, &["fig2.1", "--quiet", "--json", "F"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stdout, "F\n");
    assert_eq!(stderr, "");
    let report = std::fs::read_to_string(dir.join("F")).expect("report written");
    assert!(report.contains("\"golden\""), "{report}");

    let (code, stdout, stderr) = repro(&dir, &["fig2.1", "--json", "G"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.starts_with("Fig 2.1 — "), "{stdout}");
    assert!(stdout.contains("\nGolden checks: 31/31 ok\n"), "{stdout}");
    assert!(stdout.ends_with("\nwrote G\n"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
