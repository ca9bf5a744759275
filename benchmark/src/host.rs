//! What a result was measured on: the host, the source tree, and the
//! peak memory of the process.

use std::path::Path;
use std::process::Command;

use sop_obs::Json;

/// The peak resident set size (`VmHWM`) in kB from the text of
/// `/proc/<pid>/status`.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// This process's peak resident set size in kB.
pub fn peak_rss_kb() -> Option<u64> {
    vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The host a result was measured on: CPU count, CPU model and the
/// compiler. `compare` refuses results whose hosts differ.
pub fn host_stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Json::object().with("nproc", nproc).with("cpu", cpu).with(
        "rustc",
        command_output("rustc", &["-V"], None).unwrap_or_else(|| "unknown".to_owned()),
    )
}

/// The source tree the benchmark was built against: the git tree hash
/// of `HEAD` in the repository that holds this crate, and whether the
/// sources it compiles (`crates/`, `vendor/`, the root manifest) differ
/// from it. Outside a git checkout both read as unknown.
pub fn tree_stamp() -> Json {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let tree = command_output("git", &["rev-parse", "HEAD^{tree}"], Some(&root));
    let dirty = command_output(
        "git",
        &[
            "status",
            "--porcelain",
            "--untracked-files=no",
            "--",
            "crates",
            "vendor",
            "Cargo.toml",
        ],
        Some(&root),
    )
    .map(|status| !status.is_empty());
    Json::object()
        .with("tree", tree.map_or(Json::Null, Json::Str))
        .with("dirty", dirty.map_or(Json::Null, Json::Bool))
}

/// Trimmed standard output of a successful command.
fn command_output(program: &str, args: &[&str], dir: Option<&Path>) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\tsop-benchmark\nVmPeak:\t  912345 kB\nVmHWM:\t  536120 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(536_120));
    }

    #[test]
    fn missing_or_malformed_vm_hwm_is_none() {
        assert_eq!(vm_hwm_kb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t1024 MB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_kb().is_some_and(|kb| kb > 0));
    }
}
