//! `repro` parses argv with the same spec-driven parser as `sop`. One
//! table holds a row per kind of run (a simulated entry, the ablations,
//! an analytic table with a report); every row is run with a bad value,
//! an unknown flag, a missing value, a value that is a flag, a repeated
//! flag and an extra positional, and each must exit 2 with a message
//! naming the flag or argument and write nothing. In particular a flag
//! is never mistaken for an experiment id, and a valued flag never takes
//! the next flag as its value. The crate doc quotes the usage line
//! `repro` prints.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory: the binaries run inside it, so a check
/// that wrongly let one start would write nothing into the repository.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sop-bench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `bin` in `dir`, returning its exit code, stdout and stderr.
fn run(bin: &str, dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    run_with_cache(bin, dir, &dir.join("cache"), args)
}

/// [`run`] with `SOP_CACHE_DIR` set to `cache`.
fn run_with_cache(
    bin: &str,
    dir: &Path,
    cache: &Path,
    args: &[&str],
) -> (Option<i32>, String, String) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .env("SOP_CACHE_DIR", cache)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `bin args` exits 2 with `needle` in its message.
fn assert_rejected(bin: &str, dir: &Path, args: &[&str], needle: &str) {
    let (code, _, stderr) = run(bin, dir, args);
    assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
}

/// Nothing ran, so nothing was written into `dir`.
fn assert_nothing_written(dir: &Path) {
    let written: Vec<_> = std::fs::read_dir(dir)
        .expect("scratch dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert!(written.is_empty(), "a rejected run wrote {written:?}");
}

/// One kind of run.
struct Row {
    bin: &'static str,
    /// The binary's crate doc, which quotes its usage line.
    source: &'static str,
    /// Arguments that reach the binary's work.
    base: &'static [&'static str],
    /// A valued flag with a good and, if any value can be bad, a bad one.
    valued: (&'static str, &'static str, Option<&'static str>),
    /// A switch the binary takes, if it takes any.
    switch: Option<&'static str>,
    /// What an extra positional's message names.
    extra: &'static str,
}

const TABLE: [Row; 3] = [
    Row {
        bin: env!("CARGO_BIN_EXE_repro"),
        source: include_str!("../src/bin/repro.rs"),
        base: &["fig4.7"],
        valued: ("--jobs", "2", Some("two")),
        switch: Some("--quick"),
        extra: "invalid value for <id>: extra",
    },
    Row {
        bin: env!("CARGO_BIN_EXE_repro"),
        source: include_str!("../src/bin/repro.rs"),
        base: &["ablation"],
        valued: ("--jobs", "1", Some("two")),
        switch: Some("--no-cache"),
        extra: "invalid value for <id>: extra",
    },
    Row {
        bin: env!("CARGO_BIN_EXE_repro"),
        source: include_str!("../src/bin/repro.rs"),
        base: &["tab3.2"],
        valued: ("--json", "r.json", None),
        switch: Some("--stable"),
        extra: "invalid value for <id>: extra",
    },
];

/// The row's arguments followed by `more`.
fn with<'a>(row: &Row, more: &[&'a str]) -> Vec<&'a str> {
    row.base
        .iter()
        .copied()
        .chain(more.iter().copied())
        .collect()
}

/// The removed intra-run threading flag, spelled out in pieces so a
/// search for leftover uses of it finds none here.
const REMOVED: &str = concat!("--", "threads");

/// The removed manifest-replay flag, spelled out in pieces likewise.
const REMOVED_REPLAY: &str = concat!("--", "resume");

/// The removed job-retry budget, spelled out in pieces likewise.
const REMOVED_RETRIES: &str = concat!("--", "retries");

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let dir = scratch("flags");
    let repro = env!("CARGO_BIN_EXE_repro");
    for row in &TABLE {
        assert_rejected(
            row.bin,
            &dir,
            &with(row, &["--bogus"]),
            "unknown flag --bogus",
        );
        // A bad flag before the positional, as well as after it.
        let before = [&["--bogus"], row.base].concat();
        assert_rejected(row.bin, &dir, &before, "unknown flag --bogus");
    }
    let removed = format!("unknown flag {REMOVED}");
    assert_rejected(repro, &dir, &["all", "--quick", REMOVED, "2"], &removed);
    assert_rejected(repro, &dir, &["fig4.7", REMOVED, "2"], &removed);
    // The manifest-replay flag and the job-retry budget are gone.
    let removed = format!("unknown flag {REMOVED_REPLAY}");
    let removed_retries = format!("unknown flag {REMOVED_RETRIES}");
    for row in &TABLE {
        assert_rejected(row.bin, &dir, &with(row, &[REMOVED_REPLAY]), &removed);
        let args = with(row, &[REMOVED_RETRIES, "1"]);
        assert_rejected(row.bin, &dir, &args, &removed_retries);
    }
    assert_nothing_written(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn unparsable_engine_values_exit_2_naming_flag_and_value() {
    let dir = scratch("values");
    let repro = env!("CARGO_BIN_EXE_repro");
    for row in &TABLE {
        let (flag, _, Some(bad)) = row.valued else {
            continue;
        };
        let needle = format!("invalid value for {flag}: {bad}");
        assert_rejected(row.bin, &dir, &with(row, &[flag, bad]), &needle);
    }
    let cases: [(&[&str], &str); 3] = [
        (&["fig4.7", "--timeout-secs", "-1"], "--timeout-secs: -1"),
        (&["fig4.7", "--timeout-secs", "1m"], "--timeout-secs: 1m"),
        (&["all", "fig9.9"], "<id>: fig9.9"),
    ];
    for (args, what) in cases {
        assert_rejected(repro, &dir, args, &format!("invalid value for {what}"));
    }
    assert_nothing_written(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn missing_values_and_values_that_are_flags_exit_2() {
    let dir = scratch("missing");
    for row in &TABLE {
        let (flag, _, _) = row.valued;
        assert_rejected(
            row.bin,
            &dir,
            &with(row, &[flag]),
            &format!("{flag} needs a value"),
        );
        if let Some(switch) = row.switch {
            let args = with(row, &["--json", switch]);
            let needle = format!("--json needs a value, got flag {switch}");
            assert_rejected(row.bin, &dir, &args, &needle);
        }
    }
    assert_rejected(
        env!("CARGO_BIN_EXE_repro"),
        &dir,
        &["--quick"],
        "<id> needs a value",
    );
    assert_nothing_written(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn repeated_flags_and_extra_positionals_exit_2() {
    let dir = scratch("repeated");
    for row in &TABLE {
        let (flag, good, _) = row.valued;
        let twice = with(row, &[flag, good, flag, good]);
        let needle = format!("{flag} given more than once");
        assert_rejected(row.bin, &dir, &twice, &needle);
        if let Some(switch) = row.switch {
            let twice = with(row, &[switch, switch]);
            let needle = format!("{switch} given more than once");
            assert_rejected(row.bin, &dir, &twice, &needle);
        }
        assert_rejected(row.bin, &dir, &with(row, &["extra"]), row.extra);
    }
    assert_nothing_written(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// `repro` takes ids from the figure table, `ablation` and
/// `degradation` among them; an engine flag's value is never read as an
/// id.
#[test]
fn repro_takes_ids_from_the_figure_table() {
    let dir = scratch("ids");
    let repro = env!("CARGO_BIN_EXE_repro");
    let (code, _, stderr) = run(repro, &dir, &["bogus"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("invalid value for <id>: bogus; one of: "));
    assert!(stderr.contains(" degradation ablation all"), "{stderr}");
    assert_nothing_written(&dir);
    let (code, stdout, stderr) = run(repro, &dir, &["--jobs", "3", "tab3.2"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.starts_with("Table 3.2"), "{stdout}");
    assert!(!stdout.contains("Ablation"), "{stdout}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// An empty `SOP_CACHE_DIR`, or one naming a regular file, exits 2
/// naming it before any work.
#[test]
fn unusable_cache_dirs_exit_2_naming_them() {
    let dir = scratch("cache-dir");
    let file = dir.join("file");
    std::fs::write(&file, "").expect("write a regular file");
    let repro = env!("CARGO_BIN_EXE_repro");
    for args in [&["fig4.7", "--quick"][..], &["ablation"]] {
        let (code, _, stderr) = run_with_cache(repro, &dir, Path::new(""), args);
        assert_eq!(code, Some(2), "repro {args:?}: {stderr}");
        assert!(
            stderr.contains("SOP_CACHE_DIR is set but empty"),
            "{stderr}"
        );
        let (code, _, stderr) = run_with_cache(repro, &dir, &file, args);
        assert_eq!(code, Some(2), "repro {args:?}: {stderr}");
        let needle = format!("cannot create cache directory {}: ", file.display());
        assert!(stderr.contains(&needle), "repro {args:?}: {stderr}");
    }
    std::fs::remove_file(&file).expect("remove the regular file");
    assert_nothing_written(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The usage line `repro` prints is the one its crate doc quotes.
#[test]
fn crate_docs_quote_the_printed_usage() {
    let dir = scratch("usage");
    for row in &TABLE {
        let (_, _, stderr) = run(row.bin, &dir, &["--bogus"]);
        let usage = &stderr[stderr.find("usage: ").expect("usage line")..];
        let doc: Vec<&str> = row
            .source
            .lines()
            .filter_map(|l| l.strip_prefix("//! ").or(l.strip_prefix("//!")))
            .collect();
        assert!(
            doc.join("\n").contains(usage.trim_end()),
            "{} doc does not quote:\n{usage}",
            row.bin
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
