//! Golden digests of the functionally warmed machine.
//!
//! Each configuration is warmed functionally and then timed for a short
//! window with no timed warm-up, so the window's metrics — every LLC
//! bank's accesses, misses and snoops, the L1 counters, the NOC and
//! memory-channel counters and the request-latency histogram — depend
//! on exactly which lines the warm-up left in which bank, in which
//! recency order and with which sharers. The pinned digests were
//! measured on the warm-up that walked the accesses time-major across
//! all banks and picked LRU victims by a minimum scan over per-way
//! stamps, so they hold any faster warm-up to its exact result.
//!
//! Configurations are built on one thread in an order that exercises
//! the thread's one-entry warm-up slot: each twice in a row (the first
//! build computes its warm state, the second reuses the slot), then all
//! of them again interleaved, so each build finds the slot holding
//! another configuration's state and recomputes its own. Every build
//! must produce the pinned digest.

use sop_noc::TopologyKind;
use sop_obs::Metric;
use sop_sim::{Machine, SimConfig};
use sop_tech::CoreKind;
use sop_workloads::Workload;

/// Timed cycles after the functional warm-up.
const WINDOW: u64 = 1_500;

/// FNV-1a over bytes: stable across platforms and toolchains, unlike
/// the standard library's hasher.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Warms `cfg`, times a short window and hashes every metric it reports.
fn run(cfg: SimConfig) -> u64 {
    let mut m = Machine::new(cfg);
    let r = m.run_window(0, WINDOW);
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    for (key, metric) in r.metrics.iter() {
        digest.bytes(key.as_bytes());
        match metric {
            Metric::Counter(v) => digest.word(*v),
            Metric::Gauge(v) => digest.word(v.to_bits()),
            Metric::Histogram(h) => {
                for (upper, count) in h.buckets() {
                    digest.word(upper);
                    digest.word(count);
                }
                digest.word(h.sum());
                digest.word(h.max());
            }
        }
    }
    assert!(
        r.metrics.sum_counters_matching("sim.llc.bank", ".accesses") > 0,
        "the window must reach the LLC"
    );
    digest.0
}

fn with_kind(cfg: SimConfig, core_kind: CoreKind) -> SimConfig {
    SimConfig { core_kind, ..cfg }
}

/// `(name, configuration, digest)`.
fn golden() -> Vec<(&'static str, SimConfig, u64)> {
    use TopologyKind::{Crossbar, Mesh, NocOut};
    use Workload::{DataServing, MapReduceW, MediaStreaming, WebFrontend, WebSearch};
    vec![
        (
            "websearch-4-mesh",
            SimConfig::validation(WebSearch, 4, Mesh),
            0x88e991e845371dc4,
        ),
        (
            "dataserving-16-mesh",
            SimConfig::validation(DataServing, 16, Mesh),
            0x4f68c8496053f238,
        ),
        (
            "mapreducew-4-crossbar-inorder",
            with_kind(
                SimConfig::validation(MapReduceW, 4, Crossbar),
                CoreKind::InOrder,
            ),
            0xe1703680db8a7523,
        ),
        (
            "webfrontend-16-crossbar",
            SimConfig::validation(WebFrontend, 16, Crossbar),
            0x9bf89ee6ec7f56d1,
        ),
        (
            "mediastreaming-16-nocout-inorder",
            with_kind(
                SimConfig::validation(MediaStreaming, 16, NocOut),
                CoreKind::InOrder,
            ),
            0x8e73d3fac719aeaa,
        ),
        (
            "websearch-16-mesh-12-active",
            SimConfig {
                active_cores: 12,
                ..SimConfig::validation(WebSearch, 16, Mesh)
            },
            0x244e0fbf26dff9ea,
        ),
    ]
}

#[test]
fn warmed_machines_match_their_golden_digests() {
    let golden = golden();
    let pairs = golden.iter().flat_map(|g| [(g, "computed"), (g, "slot")]);
    let interleaved = golden.iter().map(|g| (g, "recomputed"));
    let mut wrong = Vec::new();
    for ((name, cfg, want), build) in pairs.chain(interleaved) {
        let got = run(*cfg);
        if got != *want {
            wrong.push(format!(
                "{name} ({build}): got {got:#018x}, want {want:#018x}"
            ));
        }
    }
    assert!(wrong.is_empty(), "digest mismatches:\n{}", wrong.join("\n"));
}
