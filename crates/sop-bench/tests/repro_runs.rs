//! What a `repro` run runs and what it touches on disk: `all` is the
//! entries of the groups in `figures::ALL`, and `--no-cache` neither
//! reads nor writes the result cache.

use std::path::{Path, PathBuf};
use std::process::Command;

use sop_bench::figures::{self, FIGURES};
use sop_exec::{parse_hash_hex, ResultCache};
use sop_obs::{json, Json};

/// A fresh scratch directory the binary runs in.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sop-repro-runs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `repro args` in `dir` with its cache in `dir/cache`; returns
/// stdout and asserts success.
fn repro(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .env("SOP_CACHE_DIR", dir.join("cache"))
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro {args:?}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Every file under `dir` with its bytes, sorted by name.
fn listing(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|e| {
            let e = e.expect("entry");
            let name = e.file_name().into_string().expect("utf-8 name");
            (name, std::fs::read(e.path()).expect("read"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn all_runs_exactly_the_entries_of_the_all_groups() {
    let dir = scratch("all");
    repro(&dir, &["all", "--quick", "--jobs", "2", "--json", "r.json"]);
    let text = std::fs::read_to_string(dir.join("r.json")).expect("report");
    let doc = json::parse(&text).expect("report is JSON");
    let ran: Vec<&str> = doc
        .get("sections")
        .and_then(|s| s.get("experiments"))
        .and_then(Json::as_arr)
        .expect("experiments")
        .iter()
        .map(|id| id.as_str().expect("id"))
        .collect();
    let expected: Vec<&str> = FIGURES
        .iter()
        .filter(|f| figures::ALL.contains(&f.group))
        .map(|f| f.id)
        .collect();
    assert_eq!(ran, expected);
    for left_out in ["degradation", "ablation"] {
        assert!(!figures::ALL.contains(&left_out));
        assert!(!ran.contains(&left_out), "{ran:?}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn no_cache_reads_and_writes_no_file() {
    let dir = scratch("no-cache");
    let cache = dir.join("cache");
    let args = ["degradation", "--quick", "--jobs", "2"];
    let computed = repro(&dir, &args);
    // Replace every entry with a valid one holding a result no
    // simulation gives: a run that reads the cache prints it.
    let planted = ResultCache::on_disk(&cache);
    for (name, bytes) in listing(&cache) {
        let Some(hash) = name.strip_suffix(".json").and_then(parse_hash_hex) else {
            continue;
        };
        let entry = json::parse(std::str::from_utf8(&bytes).expect("utf-8")).expect("entry");
        let Some(Json::Obj(result)) = entry.get("result").cloned() else {
            panic!("{name} holds no result object");
        };
        let fake = Json::Obj(
            result
                .into_iter()
                .map(|(k, v)| match k.as_str() {
                    "aggregate_ipc" => (k, Json::Num(1234.5)),
                    _ => (k, v),
                })
                .collect(),
        );
        planted.put(hash, entry.get("spec").expect("spec"), &fake);
    }
    assert_eq!(planted.put_errors(), 0);
    assert!(repro(&dir, &args).contains("1234.500"), "the plant is read");

    let before = listing(&cache);
    let uncached = repro(&dir, &[&args[..], &["--no-cache"]].concat());
    assert_eq!(uncached, computed);
    assert!(listing(&cache) == before, "--no-cache wrote to the cache");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
