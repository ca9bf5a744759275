//! Content-addressed result cache on disk.
//!
//! Keys are [`spec_hash`](crate::hash::spec_hash)es of canonicalized job
//! specs; values are the jobs' JSON results, one file per result under
//! the cache directory (default `target/sop-cache/`, override with
//! `SOP_CACHE_DIR`), so repeated `repro` and `sop sweep` invocations skip
//! completed work. Within one campaign the engine computes a spec shared
//! by several jobs once without asking the cache.
//!
//! Entries are self-validating: each file records the schema tag,
//! the canonical spec, the spec's hash, and a checksum of the result. A
//! read re-hashes the embedded spec and compares it to both the stored
//! hash and the file name, and re-hashes the result against its
//! checksum, so a truncated, corrupted, or hand-edited entry is
//! *detected and recomputed*, never trusted.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use sop_obs::{json, Json};

use crate::hash::{hash_hex, spec_hash};

/// Cache entry layout version. Bump when the entry format (not the job
/// results) changes; old entries then read as invalid and recompute.
/// `v2` added the result checksum.
pub const CACHE_SCHEMA: &str = "sop-cache/v2";

/// A content-addressed result store in one directory.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    invalid: AtomicU64,
    put_errors: AtomicU64,
}

/// The on-disk cache directory: `$SOP_CACHE_DIR` if set, otherwise
/// `target/sop-cache` under the current directory. The one reader of
/// the variable. Set but empty, it is an error: an empty path would put
/// the cache in the current directory.
pub fn default_cache_dir() -> Result<PathBuf, String> {
    match std::env::var_os("SOP_CACHE_DIR") {
        None => Ok(PathBuf::from("target").join("sop-cache")),
        Some(dir) if dir.is_empty() => Err("SOP_CACHE_DIR is set but empty".to_owned()),
        Some(dir) => Ok(PathBuf::from(dir)),
    }
}

impl ResultCache {
    /// A cache persisted under `dir` (created on first write).
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        ResultCache {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            put_errors: AtomicU64::new(0),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Disk entries that existed but failed validation (truncated,
    /// corrupt, or hash-mismatched) and were therefore recomputed.
    pub fn invalid(&self) -> u64 {
        self.invalid.load(Ordering::Relaxed)
    }

    /// Entries whose write failed (directory, temp file or rename); the
    /// job's result stands, only its entry is missing.
    pub fn put_errors(&self) -> u64 {
        self.put_errors.load(Ordering::Relaxed)
    }

    fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{}.json", hash_hex(hash)))
    }

    /// Looks up the result for `hash`. Counts a hit or miss, and a miss
    /// on an entry that exists but fails validation as invalid too.
    pub fn get(&self, hash: u64) -> Option<Json> {
        let path = self.entry_path(hash);
        let result = read_entry(&path, hash);
        if result.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            if path.exists() {
                self.invalid.fetch_add(1, Ordering::Relaxed);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Stores `result` for `hash`. The entry goes through a temp file +
    /// rename so a killed run never leaves a half-written entry under the
    /// final name. A failed write is counted in [`Self::put_errors`] and
    /// its temp file removed; it does not fail the job.
    pub fn put(&self, hash: u64, spec: &Json, result: &Json) {
        let doc = Json::object()
            .with("schema", CACHE_SCHEMA)
            .with("hash", hash_hex(hash).as_str())
            .with("spec", crate::hash::canonicalize(spec))
            .with("result", result.clone())
            .with("result_hash", hash_hex(spec_hash(result)).as_str());
        let path = self.entry_path(hash);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let written = std::fs::create_dir_all(&self.dir)
            .and_then(|()| std::fs::write(&tmp, doc.to_pretty_string() + "\n"))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
            self.put_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Validates and extracts the entry at `path` for `hash`; `None` if
/// absent or poisoned.
fn read_entry(path: &Path, hash: u64) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = json::parse(&text).ok()?;
    if doc.get("schema").and_then(Json::as_str) != Some(CACHE_SCHEMA) {
        return None;
    }
    let spec = doc.get("spec")?;
    // The embedded spec must hash to the stored hash AND to the hash
    // we asked for; a file renamed onto another key fails here.
    let recomputed = spec_hash(spec);
    let stored = doc
        .get("hash")
        .and_then(Json::as_str)
        .and_then(crate::hash::parse_hash_hex)?;
    if recomputed != hash || stored != hash {
        return None;
    }
    // The result must match the checksum written with it.
    let result = doc.get("result")?;
    let checksum = doc
        .get("result_hash")
        .and_then(Json::as_str)
        .and_then(crate::hash::parse_hash_hex)?;
    (spec_hash(result) == checksum).then(|| result.clone())
}

/// The outcome of [`audit_dir`]: a census of every file under a cache
/// directory, classified by whether it would be trusted on read.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CacheAudit {
    /// Entries that pass full validation (schema, spec hash, filename and
    /// result checksum).
    pub valid: usize,
    /// `.json` entries that fail validation — truncated, corrupt,
    /// hash-mismatched, or misnamed — listed by file name.
    pub invalid: Vec<String>,
    /// Leftover `*.tmp.<pid>` files from interrupted writes. Harmless
    /// (never read) but evidence a writer died mid-put.
    pub stray_tmp: Vec<String>,
    /// Anything else (not `.json`, not a temp file).
    pub other: Vec<String>,
}

impl CacheAudit {
    /// True when every entry validates and no debris is present.
    pub fn is_clean(&self) -> bool {
        self.invalid.is_empty() && self.stray_tmp.is_empty() && self.other.is_empty()
    }

    /// The audit as a JSON section for run reports.
    pub fn to_json(&self) -> Json {
        let names = |v: &[String]| Json::Arr(v.iter().map(|n| Json::Str(n.clone())).collect());
        Json::object()
            .with("valid", self.valid as u64)
            .with("invalid", names(&self.invalid))
            .with("stray_tmp", names(&self.stray_tmp))
            .with("other", names(&self.other))
    }
}

/// Audits every file under `dir`, re-validating each `.json` entry the
/// same way a read would (schema tag, embedded spec re-hash, filename
/// agreement, result checksum). A missing directory audits as empty and
/// clean — an unpopulated cache is not an error. Used by the CI chaos job
/// to assert that fault-injected campaigns leave zero truncated cache
/// files.
pub fn audit_dir(dir: impl AsRef<Path>) -> std::io::Result<CacheAudit> {
    let dir = dir.as_ref();
    let mut audit = CacheAudit::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(audit),
        Err(e) => return Err(e),
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        let path = dir.join(&name);
        let key = name
            .strip_suffix(".json")
            .and_then(crate::hash::parse_hash_hex);
        // The campaign heartbeat streams progress beside the cache
        // entries; it is expected telemetry, not cache state or debris.
        if name == crate::heartbeat::PROGRESS_FILE {
            continue;
        }
        match key {
            Some(hash) if read_entry(&path, hash).is_some() => audit.valid += 1,
            Some(_) => audit.invalid.push(name),
            None if name.contains(".tmp.") => audit.stray_tmp.push(name),
            None => audit.other.push(name),
        }
    }
    Ok(audit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sop-exec-cache-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entries_round_trip_and_count() {
        let dir = scratch_dir("round-trip");
        let cache = ResultCache::on_disk(&dir);
        let spec = Json::object().with("k", 1u64);
        let h = spec_hash(&spec);
        assert_eq!(cache.get(h), None);
        cache.put(h, &spec, &Json::UInt(7));
        assert_eq!(cache.get(h), Some(Json::UInt(7)));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!((cache.invalid(), cache.put_errors()), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_is_counted_and_leaves_no_temp_file() {
        let dir = scratch_dir("put-error");
        let spec = Json::object().with("x", 7u64);
        let h = spec_hash(&spec);
        // A directory under the entry's name makes the rename fail.
        std::fs::create_dir_all(dir.join(format!("{}.json", hash_hex(h)))).expect("mkdir");
        let cache = ResultCache::on_disk(&dir);
        cache.put(h, &spec, &Json::UInt(7));
        assert_eq!(cache.put_errors(), 1);
        assert_eq!(audit_dir(&dir).expect("audit"), CacheAudit::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_layer_survives_a_new_cache_instance() {
        let dir = scratch_dir("persist");
        let spec = Json::object().with("cores", 64u64);
        let h = spec_hash(&spec);
        {
            let cache = ResultCache::on_disk(&dir);
            cache.put(h, &spec, &Json::Num(1.5));
        }
        let fresh = ResultCache::on_disk(&dir);
        assert_eq!(fresh.get(h), Some(Json::Num(1.5)));
        assert_eq!(fresh.hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_detected_not_trusted() {
        let dir = scratch_dir("truncated");
        let spec = Json::object().with("x", 2u64);
        let h = spec_hash(&spec);
        let cache = ResultCache::on_disk(&dir);
        cache.put(h, &spec, &Json::UInt(42));
        let path = dir.join(format!("{}.json", hash_hex(h)));
        let full = std::fs::read_to_string(&path).expect("entry exists");
        std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");
        let fresh = ResultCache::on_disk(&dir);
        assert_eq!(fresh.get(h), None, "truncated entry must read as a miss");
        assert_eq!(fresh.invalid(), 1);
        assert_eq!(fresh.misses(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_result_with_stale_hash_is_rejected() {
        let dir = scratch_dir("tampered");
        let spec = Json::object().with("x", 3u64);
        let h = spec_hash(&spec);
        let cache = ResultCache::on_disk(&dir);
        cache.put(h, &spec, &Json::UInt(1));
        // Rewrite the entry with a different embedded spec (as if the
        // file were renamed onto the wrong key).
        let other_spec = Json::object().with("x", 4u64);
        let doc = Json::object()
            .with("schema", CACHE_SCHEMA)
            .with("hash", hash_hex(h).as_str())
            .with("spec", other_spec)
            .with("result", Json::UInt(99));
        let path = dir.join(format!("{}.json", hash_hex(h)));
        std::fs::write(&path, doc.to_pretty_string()).expect("write");
        let fresh = ResultCache::on_disk(&dir);
        assert_eq!(fresh.get(h), None);
        assert_eq!(fresh.invalid(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn edited_result_reads_as_a_miss_and_audits_invalid() {
        let dir = scratch_dir("edited-result");
        let spec = Json::object().with("x", 6u64);
        let h = spec_hash(&spec);
        ResultCache::on_disk(&dir).put(h, &spec, &Json::object().with("ipc", 1.5));
        // Hand-edit the result, as `"result": {}`, and leave everything
        // else (schema, spec, hash, file name) as written.
        let path = dir.join(format!("{}.json", hash_hex(h)));
        let mut doc = json::parse(&std::fs::read_to_string(&path).expect("entry")).expect("json");
        let Json::Obj(members) = &mut doc else {
            panic!("an entry is an object");
        };
        for (k, v) in members.iter_mut() {
            if k == "result" {
                *v = Json::object();
            }
        }
        std::fs::write(&path, doc.to_pretty_string()).expect("write");
        let fresh = ResultCache::on_disk(&dir);
        assert_eq!(fresh.get(h), None, "an edited result must not be trusted");
        assert_eq!(fresh.invalid(), 1);
        let audit = audit_dir(&dir).expect("audit");
        assert_eq!((audit.valid, audit.invalid.len()), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_schema_reads_as_miss() {
        let dir = scratch_dir("schema");
        let spec = Json::object().with("x", 5u64);
        let h = spec_hash(&spec);
        // Entries written before the result checksum (v1) and of an
        // unknown schema are misses, whatever else they hold.
        for schema in ["sop-cache/v1", "sop-cache/v999"] {
            let doc = Json::object()
                .with("schema", schema)
                .with("hash", hash_hex(h).as_str())
                .with("spec", spec.clone())
                .with("result", Json::UInt(3))
                .with("result_hash", hash_hex(spec_hash(&Json::UInt(3))).as_str());
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(
                dir.join(format!("{}.json", hash_hex(h))),
                doc.to_pretty_string(),
            )
            .expect("write");
            let cache = ResultCache::on_disk(&dir);
            assert_eq!(cache.get(h), None, "{schema}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audit_classifies_valid_invalid_and_debris() {
        let dir = scratch_dir("audit");
        let cache = ResultCache::on_disk(&dir);
        for x in 0..3u64 {
            let spec = Json::object().with("x", x);
            cache.put(spec_hash(&spec), &spec, &Json::UInt(x));
        }
        // Truncate one entry, drop a stray temp file and a README.
        let spec = Json::object().with("x", 1u64);
        let victim = dir.join(format!("{}.json", hash_hex(spec_hash(&spec))));
        let full = std::fs::read_to_string(&victim).expect("entry");
        std::fs::write(&victim, &full[..full.len() / 3]).expect("truncate");
        std::fs::write(dir.join("deadbeef.json.tmp.123"), "partial").expect("tmp");
        std::fs::write(dir.join("README"), "not an entry").expect("other");
        // The heartbeat stream lives beside the entries and is expected.
        std::fs::write(dir.join(crate::heartbeat::PROGRESS_FILE), "{}\n").expect("hb");

        let audit = audit_dir(&dir).expect("audit");
        assert_eq!(audit.valid, 2);
        assert_eq!(audit.invalid.len(), 1);
        assert_eq!(audit.stray_tmp, vec!["deadbeef.json.tmp.123".to_owned()]);
        assert_eq!(audit.other, vec!["README".to_owned()]);
        assert!(!audit.is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audit_of_missing_or_clean_dir_is_clean() {
        let dir = scratch_dir("audit-clean");
        let audit = audit_dir(&dir).expect("missing dir audits clean");
        assert_eq!(audit, CacheAudit::default());
        assert!(audit.is_clean());
        let cache = ResultCache::on_disk(&dir);
        let spec = Json::object().with("y", 9u64);
        cache.put(spec_hash(&spec), &spec, &Json::UInt(9));
        let audit = audit_dir(&dir).expect("audit");
        assert_eq!(audit.valid, 1);
        assert!(audit.is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        /// Reading a damaged entry never panics and never trusts a
        /// changed result: over arbitrary bytes, and over a valid entry
        /// cut short or with one byte flipped, a read either misses or
        /// returns exactly the result that was written, and the audit
        /// agrees with the read.
        #[test]
        fn damaged_entries_never_panic_and_never_lie(
            x in 0u64..u64::MAX,
            ipc in 0u64..1_000_000,
            junk in proptest::prop::collection::vec(0u8..255, 0..200),
            at in 0usize..10_000,
            mask in 1u8..255,
        ) {
            let dir = scratch_dir("prop");
            let spec = Json::object().with("x", x);
            let h = spec_hash(&spec);
            let result = Json::object()
                .with("ipc", ipc as f64 / 1000.0)
                .with("rows", Json::Arr(vec![Json::UInt(x), Json::from("a\u{e9}b")]));
            ResultCache::on_disk(&dir).put(h, &spec, &result);
            let path = dir.join(format!("{}.json", hash_hex(h)));
            let entry = std::fs::read(&path).expect("entry written");
            let at = at % entry.len();
            let mut flipped = entry.clone();
            flipped[at] ^= mask;
            for bytes in [&junk[..], &entry[..at], &flipped[..]] {
                std::fs::write(&path, bytes).expect("write");
                let read = ResultCache::on_disk(&dir).get(h);
                proptest::prop_assert!(read.is_none() || read.as_ref() == Some(&result));
                let audit = audit_dir(&dir).expect("audit");
                proptest::prop_assert_eq!(audit.valid + audit.invalid.len(), 1);
                proptest::prop_assert_eq!(audit.valid == 1, read.is_some());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
