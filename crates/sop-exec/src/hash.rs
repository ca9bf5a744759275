//! Stable content addressing for job specifications.
//!
//! A job's cache identity is the FNV-1a hash of its *canonicalized*
//! specification: object members sorted by key at every depth, rendered
//! compactly. Two specs that differ only in member order therefore hash
//! identically, and the hash is a pure function of the spec's content —
//! stable across processes, runs, and machines (no pointer values, no
//! randomized hasher state).

use sop_obs::Json;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A copy of `spec` with object members sorted by key at every depth.
/// Arrays keep their order: `[1, 2]` and `[2, 1]` are different specs.
#[must_use]
pub fn canonicalize(spec: &Json) -> Json {
    match spec {
        Json::Obj(members) => {
            let mut sorted: Vec<(String, Json)> = members
                .iter()
                .map(|(k, v)| (k.clone(), canonicalize(v)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            // Duplicate keys would make the canonical form ambiguous;
            // keep the last occurrence, matching `Json::get`'s
            // first-match the other way around is a spec bug either way,
            // so collapse deterministically.
            sorted.dedup_by(|later, earlier| {
                if later.0 == earlier.0 {
                    earlier.1 = later.1.clone();
                    true
                } else {
                    false
                }
            });
            Json::Obj(sorted)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(canonicalize).collect()),
        other => other.clone(),
    }
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The content hash of a job spec: FNV-1a of its canonical compact
/// rendering. Member order never matters; every value does.
pub fn spec_hash(spec: &Json) -> u64 {
    fnv1a(canonicalize(spec).to_compact_string().as_bytes())
}

/// The 16-digit lowercase-hex form used for cache file names and job
/// outcomes.
pub fn hash_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses a `hash_hex` string back to the hash.
pub fn parse_hash_hex(text: &str) -> Option<u64> {
    if text.len() == 16 {
        u64::from_str_radix(text, 16).ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_order_does_not_change_the_hash() {
        let a = Json::object().with("x", 1u64).with("y", "z");
        let b = Json::object().with("y", "z").with("x", 1u64);
        assert_eq!(spec_hash(&a), spec_hash(&b));
    }

    #[test]
    fn nested_member_order_does_not_change_the_hash() {
        let a = Json::object().with("o", Json::object().with("p", 1u64).with("q", 2u64));
        let b = Json::object().with("o", Json::object().with("q", 2u64).with("p", 1u64));
        assert_eq!(spec_hash(&a), spec_hash(&b));
    }

    #[test]
    fn array_order_matters() {
        let a = Json::Arr(vec![Json::UInt(1), Json::UInt(2)]);
        let b = Json::Arr(vec![Json::UInt(2), Json::UInt(1)]);
        assert_ne!(spec_hash(&a), spec_hash(&b));
    }

    #[test]
    fn values_matter() {
        let a = Json::object().with("cores", 16u64);
        let b = Json::object().with("cores", 32u64);
        assert_ne!(spec_hash(&a), spec_hash(&b));
    }

    #[test]
    fn hash_is_pinned_across_builds() {
        // The disk cache outlives any one process; a hash change silently
        // invalidates every stored result. This pin makes such a change a
        // deliberate decision (delete target/sop-cache when bumping it).
        let spec = Json::object()
            .with("kind", "sim")
            .with("workload", "WebSearch")
            .with("cores", 64u64);
        assert_eq!(hash_hex(spec_hash(&spec)), "a1640f13198e9ccd");
    }

    #[test]
    fn hex_round_trips() {
        for h in [0u64, 1, u64::MAX, 0xdead_beef_0bad_cafe] {
            assert_eq!(parse_hash_hex(&hash_hex(h)), Some(h));
        }
        assert_eq!(parse_hash_hex("nope"), None);
        assert_eq!(parse_hash_hex("123"), None);
    }

    #[test]
    fn duplicate_keys_collapse_to_the_last() {
        let dup = Json::Obj(vec![
            ("k".to_owned(), Json::UInt(1)),
            ("k".to_owned(), Json::UInt(2)),
        ]);
        let single = Json::object().with("k", 2u64);
        assert_eq!(spec_hash(&dup), spec_hash(&single));
    }
}
